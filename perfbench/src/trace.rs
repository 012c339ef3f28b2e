//! The traced run's per-layer numbers, measured from outside the
//! program: counters are read as deltas around each read, and every
//! cache miss is replayed through components the benchmark builds itself
//! from public API — one `QueryEngine` per shard over
//! `plan().members(s)` with the same `IndexConfig`, the index's bound
//! calls, the technique kernels and the merges — each call timed.
//!
//! Counter deltas are taken around single reads only, never across an
//! `update_series`: the update re-prepares the owner shard, which
//! restarts its `IndexCounters`, so `ShardedEngine::index_stats()` drops
//! and a delta across it would wrap.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use uts_core::dust::DustBoundTable;
use uts_core::engine::{QueryEngine, QueryRef};
use uts_core::index::{CandidateIndex, IndexConfig, IndexCounters, IndexStats};
use uts_core::matching::{MatchingTask, Technique};
use uts_core::munich::interval_distance_sq_bounds_enveloped;
use uts_core::parallel::try_parallel_map;
use uts_core::serving::{
    merge_answer_sets, merge_scored_by_index, merge_top_k, CacheStats, GateStats, ShardedEngine,
};
use uts_core::Deadline;
use uts_tseries::distance::{euclidean_squared_early_abandon, squared_cutoff};
use uts_uncertain::PointError;

use crate::inputs::{copy_task, Replacement};
use crate::stats::{mean, median};
use crate::workload::{Read, ReadKind, Spec, Tech};

/// Members per shard whose lower bound is compared with the exact
/// distance on each indexed range read (tightness of the lower bound).
const TLB_SAMPLES: usize = 8;

/// Counters of one engine at one instant.
pub struct Snapshot {
    cache: CacheStats,
    gate: GateStats,
    index: IndexStats,
}

impl Snapshot {
    pub fn of(engine: &ShardedEngine) -> Snapshot {
        Snapshot {
            cache: engine.cache_stats(),
            gate: engine.gate_stats().unwrap_or_default(),
            index: engine.index_stats(),
        }
    }
}

/// `after − before` per field; `None` if any counter went down.
fn index_delta(after: &IndexStats, before: &IndexStats) -> Option<IndexStats> {
    Some(IndexStats {
        indexed_queries: after.indexed_queries.checked_sub(before.indexed_queries)?,
        scan_queries: after.scan_queries.checked_sub(before.scan_queries)?,
        leaves_visited: after.leaves_visited.checked_sub(before.leaves_visited)?,
        leaves_pruned: after.leaves_pruned.checked_sub(before.leaves_pruned)?,
        series_pruned: after.series_pruned.checked_sub(before.series_pruned)?,
        candidates: after.candidates.checked_sub(before.candidates)?,
    })
}

type Shard = QueryEngine<Arc<MatchingTask>>;

pub struct Tracer {
    techs: Vec<Tech>,
    index: IndexConfig,
    workers: usize,
    /// Per engine, one replica `QueryEngine` per shard.
    replicas: Vec<Vec<Shard>>,
    /// Per engine, DUST's φ-space cost envelope (the index's bound cost).
    envelopes: Vec<Option<DustBoundTable>>,
    generations_at_start: u64,

    hits: u64,
    misses: u64,
    gate_admitted: u64,
    counter_faults: u64,
    hit_us: Vec<f64>,
    read_us: Vec<f64>,
    fanout_overhead_us: Vec<f64>,
    merge_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    shard_eval_us: Vec<f64>,
    accounted: Vec<f64>,
    update_overhead_us: Vec<f64>,
    shard_prepare_s: Vec<f64>,
    scan_reads: u64,
    indexed_reads: u64,
    exact_calls: Vec<f64>,
    candidates: Vec<f64>,
    leaves_pruned: u64,
    series_pruned: u64,
    pruning: Vec<f64>,
    tlb: Vec<f64>,
    bound_us: Vec<f64>,
    build_s: Vec<f64>,
    euclidean_ns: Vec<f64>,
    uma_ns: Vec<f64>,
    dust_ns: Vec<f64>,
    proud_ns: Vec<f64>,
    munich_survivors: Vec<f64>,
    munich_refine_us: Vec<f64>,
    replay_s: f64,
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

impl Tracer {
    /// Replicas of `engines`' shards over `base`, the collection they were
    /// prepared from.
    pub fn new(
        spec: &Spec,
        engines: &[ShardedEngine],
        base: &MatchingTask,
    ) -> Result<Tracer, String> {
        let mut t = Tracer {
            techs: spec.techs.clone(),
            index: spec.index,
            workers: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(spec.shards),
            replicas: Vec::new(),
            envelopes: Vec::new(),
            generations_at_start: engines.iter().map(|e| e.cache_stats().generation).sum(),
            hits: 0,
            misses: 0,
            gate_admitted: 0,
            counter_faults: 0,
            hit_us: Vec::new(),
            read_us: Vec::new(),
            fanout_overhead_us: Vec::new(),
            merge_us: Vec::new(),
            dispatch_us: Vec::new(),
            shard_eval_us: Vec::new(),
            accounted: Vec::new(),
            update_overhead_us: Vec::new(),
            shard_prepare_s: Vec::new(),
            scan_reads: 0,
            indexed_reads: 0,
            exact_calls: Vec::new(),
            candidates: Vec::new(),
            leaves_pruned: 0,
            series_pruned: 0,
            pruning: Vec::new(),
            tlb: Vec::new(),
            bound_us: Vec::new(),
            build_s: Vec::new(),
            euclidean_ns: Vec::new(),
            uma_ns: Vec::new(),
            dust_ns: Vec::new(),
            proud_ns: Vec::new(),
            munich_survivors: Vec::new(),
            munich_refine_us: Vec::new(),
            replay_s: 0.0,
        };
        for engine in engines {
            let technique = engine.technique().clone();
            let mut shard_engines = Vec::new();
            for s in 0..engine.shard_count() {
                let task = Arc::new(copy_task(base, engine.plan().members(s), None));
                let t0 = Instant::now();
                let shard = QueryEngine::try_prepare_with(task, &technique, spec.index)
                    .map_err(|e| format!("replica shard {s}: {e}"))?;
                t.shard_prepare_s.push(t0.elapsed().as_secs_f64());
                t.time_index_build(&shard);
                shard_engines.push(shard);
            }
            t.envelopes.push(match &technique {
                Technique::Dust(d) => d.bound_envelope(&distinct_errors(base)),
                _ => None,
            });
            t.replicas.push(shard_engines);
        }
        Ok(t)
    }

    /// Times a candidate-index build over the shard's value view, when
    /// the shard engine built one.
    fn time_index_build(&mut self, shard: &Shard) {
        if !shard.is_indexed() {
            return;
        }
        let views: Vec<&[f64]> = (0..shard.task().len())
            .map(|i| value_view(shard, i))
            .collect();
        let t0 = Instant::now();
        black_box(CandidateIndex::build(&views, &self.index));
        self.build_s.push(t0.elapsed().as_secs_f64());
    }

    /// Records one read the closed loop just made (`latency_us`), and
    /// replays it layer by layer when it was a cache miss.
    pub fn read(&mut self, engine: &ShardedEngine, r: &Read, before: &Snapshot, latency_us: f64) {
        let t_replay = Instant::now();
        let after = Snapshot::of(engine);
        self.read_us.push(latency_us);
        let hits = after.cache.hits.saturating_sub(before.cache.hits);
        self.hits += hits;
        self.misses += after.cache.misses.saturating_sub(before.cache.misses);
        self.gate_admitted += after.gate.admitted.saturating_sub(before.gate.admitted);
        let Some(delta) = index_delta(&after.index, &before.index) else {
            self.counter_faults += 1;
            return;
        };
        if hits > 0 {
            self.hit_us.push(latency_us);
            self.replay_s += t_replay.elapsed().as_secs_f64();
            return;
        }
        if delta.indexed_queries > 0 {
            self.indexed_reads += 1;
        } else {
            self.scan_reads += 1;
        }
        self.replay_miss(engine, r, &delta, latency_us);
        self.replay_s += t_replay.elapsed().as_secs_f64();
    }

    fn replay_miss(
        &mut self,
        engine: &ShardedEngine,
        r: &Read,
        delta: &IndexStats,
        latency_us: f64,
    ) {
        // Taken out for the replay (the query view borrows from it) and
        // put back at the end.
        let shards = std::mem::take(&mut self.replicas[r.engine]);
        self.replay_shards(engine, r, delta, latency_us, &shards);
        self.replicas[r.engine] = shards;
    }

    fn replay_shards(
        &mut self,
        engine: &ShardedEngine,
        r: &Read,
        delta: &IndexStats,
        latency_us: f64,
        shards: &[Shard],
    ) {
        let plan = engine.plan();
        let (owner, local) = plan.owner_of(r.query);
        let query = shards[owner].query_ref(local);
        let exclude = |s: usize| (s == owner).then_some(local);

        // Shard evaluations, one at a time, then the merge of their parts.
        let mut times = Vec::with_capacity(shards.len());
        let merge_t = match r.kind {
            ReadKind::Range(eps) => {
                let mut parts = Vec::new();
                for (s, shard) in shards.iter().enumerate() {
                    let t0 = Instant::now();
                    let part = shard
                        .answer_set_ref_within(&query, eps, exclude(s), &Deadline::NONE)
                        .expect("the unarmed deadline never expires");
                    times.push(us_since(t0));
                    parts.push(part.into_iter().map(|l| plan.global_of(s, l)).collect());
                }
                let t0 = Instant::now();
                black_box(merge_answer_sets(&parts));
                us_since(t0)
            }
            ReadKind::TopK(k) => {
                let mut parts = Vec::new();
                for (s, shard) in shards.iter().enumerate() {
                    let t0 = Instant::now();
                    let part = shard
                        .top_k_ref_within(&query, k, exclude(s), &Deadline::NONE)
                        .expect("the unarmed deadline never expires")
                        .expect("a distance-ranked technique");
                    times.push(us_since(t0));
                    parts.push(scored_global(part, plan, s));
                }
                let t0 = Instant::now();
                black_box(merge_top_k(&parts, k));
                us_since(t0)
            }
            ReadKind::Probabilities(eps) => {
                let mut parts = Vec::new();
                for (s, shard) in shards.iter().enumerate() {
                    let t0 = Instant::now();
                    let part = shard
                        .probabilities_ref_within(&query, eps, exclude(s), &Deadline::NONE)
                        .expect("the unarmed deadline never expires")
                        .expect("a probabilistic technique");
                    times.push(us_since(t0));
                    parts.push(scored_global(part, plan, s));
                }
                let t0 = Instant::now();
                black_box(merge_scored_by_index(&parts));
                us_since(t0)
            }
        };
        let ids: Vec<usize> = (0..shards.len()).collect();
        let t0 = Instant::now();
        black_box(try_parallel_map(&ids, |&s| black_box(s)));
        let dispatch = us_since(t0);

        // `scatter_gather` threads only from 4 items up; below that the
        // shards run one after another on the caller's thread.
        let threaded = shards.len() >= 4 && self.workers > 1;
        let sum: f64 = times.iter().sum();
        let critical = if threaded {
            times
                .iter()
                .cloned()
                .fold(0.0, f64::max)
                .max(sum / self.workers as f64)
        } else {
            sum
        };
        self.shard_eval_us.extend_from_slice(&times);
        self.merge_us.push(merge_t);
        self.dispatch_us.push(dispatch);
        self.fanout_overhead_us
            .push(latency_us - critical - merge_t);
        // Every fan-out pays the dispatch, threaded or not.
        self.accounted
            .push((critical + merge_t + dispatch) / latency_us);

        let members: usize = shards.iter().map(|s| s.task().len()).sum::<usize>() - 1;
        if delta.indexed_queries > 0 {
            self.exact_calls.push(delta.candidates as f64);
            self.candidates.push(delta.candidates as f64);
            self.leaves_pruned += delta.leaves_pruned;
            self.series_pruned += delta.series_pruned;
            self.pruning
                .push(1.0 - delta.candidates as f64 / members as f64);
        } else {
            self.exact_calls.push(members as f64);
        }
        match r.kind {
            ReadKind::Range(eps) => {
                let indexed = delta.indexed_queries as usize == shards.len();
                self.replay_kernels(shards, r.engine, &query, eps, owner, local, indexed);
            }
            ReadKind::Probabilities(eps) => {
                self.replay_probabilities(shards, &query, eps, owner, local)
            }
            ReadKind::TopK(_) => {}
        }
    }

    /// Range reads: the index's candidate generation (when the read was
    /// indexed) and the exact kernel over each shard's candidates.
    #[allow(clippy::too_many_arguments)]
    fn replay_kernels(
        &mut self,
        shards: &[Shard],
        e: usize,
        query: &QueryRef<'_>,
        eps: f64,
        owner: usize,
        local: usize,
        indexed: bool,
    ) {
        let tech = self.techs[e];
        if tech == Tech::Munich {
            return self.replay_munich(shards, query, eps, owner, local);
        }
        let cutoff = squared_cutoff(eps);
        let env = self.envelopes[e].as_ref();
        let mut bound_t = 0.0;
        let mut kernel_t = 0.0;
        let mut calls = 0usize;
        let mut tlb = Vec::new();
        let tlb_offset = self.tlb.len();
        for (s, shard) in shards.iter().enumerate() {
            let exclude = (s == owner).then_some(local);
            let qv = query_values(query);
            let ix = shard.index().filter(|_| indexed);
            let candidates: Vec<usize> = match ix
                .and_then(|ix| ix.query_synopsis(qv).map(|qp| (ix, qp)))
            {
                Some((ix, qp)) => {
                    let counters = IndexCounters::default();
                    let t0 = Instant::now();
                    let c = match env {
                        Some(env) => ix.range_candidates_by(&qp, eps, exclude, &counters, |g| {
                            env.cost(g.abs())
                        }),
                        None => ix.range_candidates(&qp, eps, exclude, &counters),
                    };
                    bound_t += us_since(t0);
                    tlb.extend(tlb_samples(shard, ix, &qp, query, env, tlb_offset));
                    c
                }
                None => (0..shard.task().len())
                    .filter(|&i| Some(i) != exclude)
                    .collect(),
            };
            let t0 = Instant::now();
            let hits = match (shard.technique(), query) {
                (Technique::Dust(d), QueryRef::Uncertain(qu)) => candidates
                    .iter()
                    .filter(|&&i| d.within_sq(qu, &shard.task().uncertain()[i], cutoff))
                    .count(),
                _ => candidates
                    .iter()
                    .filter(|&&i| {
                        euclidean_squared_early_abandon(qv, value_view(shard, i), cutoff).is_some()
                    })
                    .count(),
            };
            kernel_t += us_since(t0);
            black_box(hits);
            calls += candidates.len();
        }
        if indexed {
            self.bound_us.push(bound_t);
        }
        self.tlb.extend(tlb);
        if calls > 0 {
            let ns = kernel_t * 1e3 / calls as f64;
            match tech {
                Tech::Euclidean => self.euclidean_ns.push(ns),
                Tech::Uma | Tech::Uema => self.uma_ns.push(ns),
                Tech::Dust => self.dust_ns.push(ns),
                Tech::Proud { .. } | Tech::Munich => {}
            }
        }
    }

    /// PROUD reads: the probability kernel over every member.
    fn replay_probabilities(
        &mut self,
        shards: &[Shard],
        query: &QueryRef<'_>,
        eps: f64,
        owner: usize,
        local: usize,
    ) {
        let QueryRef::Uncertain(qu) = query else {
            return;
        };
        let mut kernel_t = 0.0;
        let mut calls = 0usize;
        for (s, shard) in shards.iter().enumerate() {
            let Technique::Proud { proud, .. } = shard.technique() else {
                return;
            };
            let t0 = Instant::now();
            for (i, x) in shard.task().uncertain().iter().enumerate() {
                if s == owner && i == local {
                    continue;
                }
                black_box(proud.probability_within(qu, x, eps));
                calls += 1;
            }
            kernel_t += us_since(t0);
        }
        if calls > 0 {
            self.proud_ns.push(kernel_t * 1e3 / calls as f64);
        }
    }

    /// MUNICH range reads: the MBI filter over every candidate, then the
    /// refinement of each pair the filter leaves undecided, timed alone.
    fn replay_munich(
        &mut self,
        shards: &[Shard],
        query: &QueryRef<'_>,
        eps: f64,
        owner: usize,
        local: usize,
    ) {
        let QueryRef::Multi(qm, qenv) = *query else {
            return;
        };
        let eps_sq = eps * eps;
        let mut survivors = 0usize;
        let mut refine = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let Technique::Munich { munich, tau } = shard.technique() else {
                return;
            };
            for i in 0..shard.task().len() {
                if s == owner && i == local {
                    continue;
                }
                let QueryRef::Multi(xm, xenv) = shard.query_ref(i) else {
                    return;
                };
                let (lb, ub) = interval_distance_sq_bounds_enveloped(qenv, xenv);
                if ub <= eps_sq || lb > eps_sq {
                    continue;
                }
                survivors += 1;
                let t0 = Instant::now();
                black_box(munich.matches_enveloped(qm, xm, eps, *tau, qenv, xenv));
                refine.push(us_since(t0));
            }
        }
        self.munich_refine_us.extend(refine);
        self.munich_survivors.push(survivors as f64);
    }

    /// Records one `update_series` call (`latency_us`) that put `rep` in
    /// place, and re-prepares the replica of the owner shard from `base`
    /// with `rep` in place, timed alone.
    pub fn update(
        &mut self,
        e: usize,
        engine: &ShardedEngine,
        base: &MatchingTask,
        rep: &Replacement,
        latency_us: f64,
    ) {
        let t_replay = Instant::now();
        let (owner, _) = engine.plan().owner_of(rep.member);
        let task = Arc::new(copy_task(base, engine.plan().members(owner), Some(rep)));
        let t0 = Instant::now();
        let shard = QueryEngine::try_prepare_with(task, engine.technique(), self.index)
            .expect("the replica prepares like the engine's shard did");
        let prepare_s = t0.elapsed().as_secs_f64();
        self.replicas[e][owner] = shard;
        self.shard_prepare_s.push(prepare_s);
        self.update_overhead_us.push(latency_us - prepare_s * 1e6);
        self.replay_s += t_replay.elapsed().as_secs_f64();
    }

    /// The per-layer metrics, named `<layer>.<metric>`.
    pub fn finish(
        self,
        engines: &[ShardedEngine],
        elapsed_s: f64,
    ) -> Vec<(String, f64, &'static str)> {
        if self.counter_faults > 0 {
            eprintln!(
                "perfbench: {} reads saw an index counter go down",
                self.counter_faults
            );
        }
        let generations: u64 = engines
            .iter()
            .map(|e| e.cache_stats().generation)
            .sum::<u64>()
            - self.generations_at_start;
        let reads = self.read_us.len() as f64;
        let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
        vec![
            m("serving.cache_hits", self.hits as f64, "count"),
            m("serving.cache_misses", self.misses as f64, "count"),
            m("serving.cache_generations", generations as f64, "count"),
            m("serving.cache_hit_p50_us", median(&self.hit_us), "us"),
            m("serving.gate_admitted", self.gate_admitted as f64, "count"),
            m(
                "serving.fanout_overhead_p50_us",
                median(&self.fanout_overhead_us),
                "us",
            ),
            m("serving.merge_p50_us", median(&self.merge_us), "us"),
            m(
                "serving.update_overhead_p50_us",
                median(&self.update_overhead_us),
                "us",
            ),
            m("parallel.dispatch_p50_us", median(&self.dispatch_us), "us"),
            m(
                "engine.shard_eval_p50_us",
                median(&self.shard_eval_us),
                "us",
            ),
            m("engine.scan_reads", self.scan_reads as f64, "count"),
            m("engine.indexed_reads", self.indexed_reads as f64, "count"),
            m(
                "engine.exact_calls_per_read",
                mean(&self.exact_calls),
                "count",
            ),
            m("engine.shard_prepare_s", median(&self.shard_prepare_s), "s"),
            m("index.candidates_per_read", mean(&self.candidates), "count"),
            m("index.leaves_pruned", self.leaves_pruned as f64, "count"),
            m("index.series_pruned", self.series_pruned as f64, "count"),
            m("index.pruning_ratio", mean(&self.pruning), "ratio"),
            m("index.tlb", mean(&self.tlb), "ratio"),
            m("index.bound_p50_us", median(&self.bound_us), "us"),
            m("index.build_s", median(&self.build_s), "s"),
            m("euclidean.call_ns", median(&self.euclidean_ns), "ns"),
            m("uma.call_ns", median(&self.uma_ns), "ns"),
            m("dust.call_ns", median(&self.dust_ns), "ns"),
            m("proud.call_ns", median(&self.proud_ns), "ns"),
            m(
                "munich.filter_survivors_per_read",
                mean(&self.munich_survivors),
                "count",
            ),
            m("munich.refine_p50_us", median(&self.munich_refine_us), "us"),
            m("trace.read_p50_us", median(&self.read_us), "us"),
            m("trace.accounted_share", median(&self.accounted), "ratio"),
            m("trace.replay_share", self.replay_s / elapsed_s, "ratio"),
            m("trace.reads", reads, "count"),
        ]
    }
}

/// Lower bound over exact distance for a few members of one shard.
fn tlb_samples(
    shard: &Shard,
    ix: &CandidateIndex,
    qp: &[f64],
    query: &QueryRef<'_>,
    env: Option<&DustBoundTable>,
    offset: usize,
) -> Vec<f64> {
    let n = shard.task().len();
    let step = (n / TLB_SAMPLES).max(1);
    let offset = offset % step;
    let mut out = Vec::new();
    let scale = (query_values(query).len() as f64 / ix.segments() as f64).sqrt();
    for i in (offset..n).step_by(step).take(TLB_SAMPLES) {
        let (lb, exact) = match (shard.technique(), query, env) {
            (Technique::Dust(d), QueryRef::Uncertain(qu), Some(env)) => {
                let x = &shard.task().uncertain()[i];
                let mp = ix.query_synopsis(x.values()).expect("same length");
                let acc: f64 = qp
                    .iter()
                    .zip(&mp)
                    .map(|(a, b)| env.cost((a - b).abs()))
                    .sum();
                (scale * acc.sqrt(), d.distance(qu, x))
            }
            _ => {
                let exact = euclidean_squared_early_abandon(
                    query_values(query),
                    value_view(shard, i),
                    f64::INFINITY,
                )
                .expect("an infinite limit never abandons")
                .sqrt();
                (ix.member_lower_bound(qp, i), exact)
            }
        };
        if exact > 0.0 {
            out.push(lb / exact);
        }
    }
    out
}

fn scored_global(
    part: Vec<(usize, f64)>,
    plan: &uts_core::serving::ShardPlan,
    s: usize,
) -> Vec<(usize, f64)> {
    part.into_iter()
        .map(|(l, v)| (plan.global_of(s, l), v))
        .collect()
}

/// The values the technique's exact kernel compares for member `i`:
/// the filtered view for UMA/UEMA, the observed values otherwise.
fn value_view(shard: &Shard, i: usize) -> &[f64] {
    match shard.query_ref(i) {
        QueryRef::Filtered(f) => f.values(),
        QueryRef::Uncertain(u) => u.values(),
        QueryRef::Multi(..) => unreachable!("MUNICH has no value view"),
    }
}

fn query_values<'a>(query: &QueryRef<'a>) -> &'a [f64] {
    match *query {
        QueryRef::Filtered(f) => f.values(),
        QueryRef::Uncertain(u) => u.values(),
        QueryRef::Multi(..) => unreachable!("MUNICH has no value view"),
    }
}

/// Distinct (family, σ) descriptions in the collection.
fn distinct_errors(task: &MatchingTask) -> Vec<PointError> {
    let mut out: Vec<PointError> = Vec::new();
    for u in task.uncertain() {
        for e in u.errors() {
            if !out.contains(e) {
                out.push(*e);
            }
        }
    }
    out
}
