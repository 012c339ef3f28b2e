//! The three workloads: collection recipes, techniques, shard layout and
//! the round of operations every run repeats.
//!
//! A run attempts whole rounds only. Every round has the same make-up
//! (engines, operation kinds and counts, repeats, one update); the keys
//! cycle through [`KEY_SETS`] seeded sets, so a run reads thousands of
//! distinct keys and its tail is not set by a few expensive ones. Each
//! round ends with an update that touches every engine, so every engine's
//! cache starts each round empty: the hits in a round are exactly its
//! repeated keys, and the share of hits is the same in every run and for
//! every seed. Every round also reads the updated member itself as a
//! query on every engine (its *probes*), so the answer checks after the
//! last update ask keys whose answers that update changed.

use std::collections::HashMap;

use uts_core::index::IndexConfig;
use uts_core::matching::{MatchingTask, Technique};
use uts_core::munich::{Munich, MunichConfig};
use uts_core::proud::{Proud, ProudConfig};
use uts_core::uma::{Uema, Uma};
use uts_core::Dust;
use uts_stats::rng::Seed;

use crate::inputs::{Recipe, Replacement, Rng, Shape};

pub const NAMES: [&str; 3] = ["serve_fanout", "index_prune", "munich_refine"];

/// A technique the workload serves; [`Tech::build`] makes a fresh
/// instance (a new `Dust` has an empty table cache, so every preparation
/// pays the table warm-up).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Tech {
    Euclidean,
    Uma,
    Uema,
    Dust,
    Proud { sigma: f64 },
    Munich,
}

/// PRQ threshold of the MUNICH workload.
pub const MUNICH_TAU: f64 = 0.4;
/// PROUD's τ; its reads are `probabilities` calls, which do not use it.
const PROUD_TAU: f64 = 0.5;

impl Tech {
    pub fn build(self) -> Technique {
        match self {
            Tech::Euclidean => Technique::Euclidean,
            Tech::Uma => Technique::Uma(Uma::default()),
            Tech::Uema => Technique::Uema(Uema::default()),
            Tech::Dust => Technique::Dust(Dust::default()),
            Tech::Proud { sigma } => Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(sigma)),
                tau: PROUD_TAU,
            },
            Tech::Munich => Technique::Munich {
                munich: Munich::new(MunichConfig::default()),
                tau: MUNICH_TAU,
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum ReadKind {
    Range(f64),
    TopK(usize),
    Probabilities(f64),
}

/// One read: which engine (technique), which member is the query, what op.
#[derive(Clone, Copy, Debug)]
pub struct Read {
    pub engine: usize,
    pub query: usize,
    pub kind: ReadKind,
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read(Read),
    /// Replace the update member in every engine (see `Spec::update`).
    Update,
}

pub struct Spec {
    pub techs: Vec<Tech>,
    pub shards: usize,
    pub index: IndexConfig,
    /// Round `r` runs `rounds[r % KEY_SETS]`.
    pub rounds: Vec<Vec<Op>>,
    /// Two new versions of one member: round `r` applies `update[r % 2]`,
    /// so every update really changes the member.
    pub update: [Replacement; 2],
    /// Fresh preparations per run for `setup_s`: at least `setup_min`,
    /// and `setup_budget_s` seconds of them in all.
    pub setup_min: usize,
    pub setup_budget_s: f64,
}

/// Per-engine read plan for one round, besides the probes.
#[derive(Clone, Copy)]
struct Plan {
    range: usize,
    top_k: usize,
    probabilities: usize,
    repeats: usize,
    /// ε of a range or probabilities read is the calibrated ε times a
    /// factor drawn uniformly from `1 ± eps_jitter`.
    eps_jitter: f64,
}

/// Seeded key sets the rounds cycle through.
pub const KEY_SETS: usize = 8;
const TOP_K: usize = 10;
/// Zipf exponent of repeated keys over their first-appearance rank.
const ZIPF_S: f64 = 1.1;

/// The workload `name` on `seed`, and its generated collection as a
/// matching task (ε was calibrated on it; set-up prepares from it).
pub fn build(name: &str, seed: u64) -> Result<(Spec, MatchingTask), String> {
    let seed = Seed::new(seed).derive(name);
    match name {
        // ~200 series on 4 round-robin shards (below the 256-member index
        // threshold): the per-shard kernels cost tens of µs, so fan-out,
        // cache probe and merge dominate a read.
        "serve_fanout" => {
            let sigma = 0.4;
            let recipe = Recipe {
                n: 200,
                len: 150,
                shape: Shape::GunPoint,
                sigma,
                samples: None,
            };
            let distance = Plan {
                range: 36,
                top_k: 36,
                probabilities: 0,
                repeats: 25,
                eps_jitter: 0.0,
            };
            let proud = Plan {
                range: 0,
                top_k: 0,
                probabilities: 73,
                repeats: 25,
                eps_jitter: 0.0,
            };
            Ok(assemble(
                seed,
                recipe,
                vec![
                    Tech::Euclidean,
                    Tech::Uma,
                    Tech::Uema,
                    Tech::Proud { sigma },
                ],
                vec![distance, distance, distance, proud],
                4,
                5,
                (25, 2.0),
            ))
        }
        // ~50k clustered series on 2 shards, each with its own candidate
        // index: leaf/member bounds and exact kernels do the work, every
        // read is a distinct key (a cache miss).
        "index_prune" => {
            let recipe = Recipe {
                n: 50_000,
                len: 64,
                shape: Shape::Clustered,
                sigma: 0.4,
                samples: None,
            };
            let plan = || Plan {
                range: 29,
                top_k: 29,
                probabilities: 0,
                repeats: 0,
                eps_jitter: 0.0,
            };
            Ok(assemble(
                seed,
                recipe,
                vec![Tech::Euclidean, Tech::Uma, Tech::Dust],
                vec![plan(), plan(), plan()],
                2,
                10,
                (5, 3.0),
            ))
        }
        // Multi-observation GunPoint analogues (3 samples per timestamp)
        // on 2 shards: MBI filtering and the refinement ladder do the
        // work; 2 shards stay below the threaded fan-out cut-off.
        "munich_refine" => {
            let recipe = Recipe {
                n: 100,
                len: 48,
                shape: Shape::GunPoint,
                sigma: 0.4,
                samples: Some(3),
            };
            Ok(assemble(
                seed,
                recipe,
                vec![Tech::Munich],
                vec![Plan {
                    range: 98,
                    top_k: 0,
                    probabilities: 0,
                    repeats: 0,
                    eps_jitter: 0.1,
                }],
                2,
                5,
                (25, 2.0),
            ))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn assemble(
    seed: Seed,
    recipe: Recipe,
    techs: Vec<Tech>,
    plans: Vec<Plan>,
    shards: usize,
    k: usize,
    (setup_min, setup_budget_s): (usize, f64),
) -> (Spec, MatchingTask) {
    let task = recipe.collection(seed).into_task(k);
    let mut rng = Rng::new(seed.derive("schedule"));
    let mut calib = Calibration::default();
    let n = task.len();
    let member = rng.below(n);
    let most = |f: fn(&Plan) -> usize| plans.iter().map(f).max().unwrap_or(0);
    let rounds = (0..KEY_SETS)
        .map(|_| {
            // Every engine reads the same query members (one ground truth
            // per member serves all techniques); the update member is read
            // only through the probes.
            let mut draw = |count| stratified(&mut rng, n, recipe.strata(), count, member);
            let queries = Queries {
                range: draw(most(|p| p.range)),
                top_k: draw(most(|p| p.top_k)),
                probabilities: draw(most(|p| p.probabilities)),
                member,
            };
            let per_engine: Vec<Vec<Read>> = plans
                .iter()
                .enumerate()
                .map(|(e, plan)| {
                    engine_reads(&mut rng, &task, &mut calib, e, techs[e], plan, &queries)
                })
                .collect();
            let mut round = interleave(&mut rng, per_engine);
            round.push(Op::Update);
            round
        })
        .collect();
    let update = [
        recipe.replacement(seed, member, 1),
        recipe.replacement(seed, member, 2),
    ];
    let spec = Spec {
        techs,
        shards,
        index: IndexConfig::default(),
        rounds,
        update,
        setup_min,
        setup_budget_s,
    };
    (spec, task)
}

/// Ground truth per query, shared between techniques: calibrating ε
/// (the technique's own distance from the query to its k-th clean
/// neighbour, paper §4.1.2) is input generation, done once here.
#[derive(Default)]
struct Calibration {
    anchors: HashMap<usize, usize>,
}

impl Calibration {
    fn epsilon(&mut self, task: &MatchingTask, q: usize, technique: &Technique) -> f64 {
        let anchor = *self
            .anchors
            .entry(q)
            .or_insert_with(|| task.ground_truth(q).anchor);
        task.threshold_against(q, anchor, technique)
    }
}

/// The query members of one key set, per operation kind, and the update
/// member.
struct Queries {
    range: Vec<usize>,
    top_k: Vec<usize>,
    probabilities: Vec<usize>,
    member: usize,
}

/// One engine's reads for a round: distinct fresh keys in seeded order,
/// the probes among them, plus exactly `plan.repeats` repeats of keys
/// already read this round, Zipf-skewed towards the earliest ones.
///
/// The probes read the update member: a top-k and a range read on the
/// distance techniques, a `probabilities` read on PROUD, and a range and a
/// `probabilities` read on MUNICH. Top-k distances and probabilities
/// change with every new version of the query, so after an update a
/// stale cache entry or a shard that was not re-prepared answers a probe
/// differently from the oracle.
fn engine_reads(
    rng: &mut Rng,
    task: &MatchingTask,
    calib: &mut Calibration,
    engine: usize,
    tech: Tech,
    plan: &Plan,
    queries: &Queries,
) -> Vec<Read> {
    let technique = tech.build();
    let mut epsilon = |q: usize, rng: &mut Rng| {
        calib.epsilon(task, q, &technique) * (1.0 + plan.eps_jitter * (2.0 * rng.unit() - 1.0))
    };
    let mut fresh = Vec::new();
    for &q in &queries.range[..plan.range] {
        let eps = epsilon(q, rng);
        fresh.push(Read {
            engine,
            query: q,
            kind: ReadKind::Range(eps),
        });
    }
    for &q in &queries.top_k[..plan.top_k] {
        fresh.push(Read {
            engine,
            query: q,
            kind: ReadKind::TopK(TOP_K),
        });
    }
    for &q in &queries.probabilities[..plan.probabilities] {
        let eps = epsilon(q, rng);
        fresh.push(Read {
            engine,
            query: q,
            kind: ReadKind::Probabilities(eps),
        });
    }
    let m = queries.member;
    let probes = match tech {
        Tech::Proud { .. } => vec![ReadKind::Probabilities(epsilon(m, rng))],
        Tech::Munich => vec![
            ReadKind::Range(epsilon(m, rng)),
            ReadKind::Probabilities(epsilon(m, rng)),
        ],
        _ => vec![ReadKind::Range(epsilon(m, rng)), ReadKind::TopK(TOP_K)],
    };
    fresh.extend(probes.into_iter().map(|kind| Read {
        engine,
        query: m,
        kind,
    }));
    rng.shuffle(&mut fresh);

    let total = fresh.len() + plan.repeats;
    let mut repeat_at = vec![false; total];
    let mut slots: Vec<usize> = (1..total).collect();
    rng.shuffle(&mut slots);
    for &p in &slots[..plan.repeats] {
        repeat_at[p] = true;
    }
    let mut fresh = fresh.into_iter();
    let mut seen: Vec<Read> = Vec::new();
    let mut out = Vec::with_capacity(total);
    for repeat in repeat_at {
        if repeat {
            out.push(seen[zipf_rank(rng, seen.len())]);
        } else {
            let r = fresh.next().expect("fresh keys fill the non-repeat slots");
            seen.push(r);
            out.push(r);
        }
    }
    out
}

/// `count` distinct members other than `skip` (`count < n`), taken
/// round-robin from the strata `i % strata`, each stratum in seeded order.
fn stratified(rng: &mut Rng, n: usize, strata: usize, count: usize, skip: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).filter(|&i| i != skip).collect();
    rng.shuffle(&mut all);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); strata];
    for i in all {
        buckets[i % strata].push(i);
    }
    let mut out = Vec::with_capacity(count);
    let mut depth = 0;
    while out.len() < count {
        for b in &buckets {
            if out.len() < count && depth < b.len() {
                out.push(b[depth]);
            }
        }
        depth += 1;
    }
    out
}

/// A rank in `0..m` with probability ∝ `1 / (rank + 1)^ZIPF_S`.
fn zipf_rank(rng: &mut Rng, m: usize) -> usize {
    let weight = |r: usize| 1.0 / ((r + 1) as f64).powf(ZIPF_S);
    let total: f64 = (0..m).map(weight).sum();
    let mut u = rng.unit() * total;
    for r in 0..m {
        u -= weight(r);
        if u < 0.0 {
            return r;
        }
    }
    m - 1
}

/// Merges the engines' read sequences in a seeded order that keeps each
/// engine's own order (a repeat never precedes its first read).
fn interleave(rng: &mut Rng, per_engine: Vec<Vec<Read>>) -> Vec<Op> {
    let mut order: Vec<usize> = per_engine
        .iter()
        .enumerate()
        .flat_map(|(e, reads)| std::iter::repeat_n(e, reads.len()))
        .collect();
    rng.shuffle(&mut order);
    let mut cursors = vec![0usize; per_engine.len()];
    order
        .into_iter()
        .map(|e| {
            let r = per_engine[e][cursors[e]];
            cursors[e] += 1;
            Op::Read(r)
        })
        .collect()
}
