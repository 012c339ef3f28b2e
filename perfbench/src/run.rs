//! One run: generate inputs, drive the closed loop for the measured phase
//! with fresh preparations of the engines timed between its rounds, check
//! answers, report.

use std::hint::black_box;
use std::time::{Duration, Instant};

use uts_core::matching::MatchingTask;
use uts_core::serving::{AdmissionConfig, QueryOptions, ShardAssignment, ShardedEngine};

use crate::inputs::{copy_task, Replacement};
use crate::stats::{cpu_ticks, median, percentile, status_mib, Report};
use crate::trace::Tracer;
use crate::workload::{self, Op, Read, ReadKind, Spec};
use crate::Args;

/// Every run holds at least this many reads in the rounds it keeps, so
/// the 99th percentile has at least ten samples beyond it.
const MIN_READS: usize = 1000;

/// Set-up repetitions are timed in batches of at least this long; the
/// host's steal is read around each batch.
const SETUP_BATCH_S: f64 = 0.1;

pub fn run(args: &Args) -> Result<Report, String> {
    // `task` is the generated collection: the one copy of it the benchmark
    // keeps. Every preparation starts from it, and the checks and the
    // trace's replicas copy from it with the update member's version put
    // in place.
    let (spec, task) = workload::build(&args.workload, args.seed)?;
    let mut setup = Setup {
        batches: Vec::new(),
        rss_before_mib: status_mib("VmRSS")?,
    };
    let mut engines = Vec::new();
    setup.batch(&spec, &task, &mut engines, None)?;

    let mut tracer = if args.trace {
        Some(Tracer::new(&spec, &engines, &task)?)
    } else {
        None
    };
    let measured = measure(
        &spec,
        &task,
        &mut engines,
        &mut setup,
        Duration::from_secs(args.seconds),
        tracer.as_mut(),
    )?;
    let steal: Vec<f64> = measured.rounds.iter().filter_map(|r| r.steal).collect();
    let rss = status_mib("VmHWM")?;
    let round_s: Vec<f64> = measured.rounds.iter().map(|r| r.seconds).collect();
    let setup_s = setup.median();
    eprintln!(
        "perfbench: {} seed {}: {} rounds, {} reads, {} updates in {:.2} s; \
         round seconds p10 {:.4} p50 {:.4} p90 {:.4}; read p99 {:.1} us; \
         {} set-ups in {} batches, p10 {:.6} p50 {:.6} p90 {:.6} s, kept-batch median {:.6} s; \
         host steal per round mean {:.1}% p50 {:.1}% p90 {:.1}%; \
         RSS before set-up {:.1} MiB, peak {:.1} MiB",
        args.workload,
        args.seed,
        measured.rounds.len(),
        measured.reads(),
        measured
            .rounds
            .iter()
            .map(|r| r.update_us.len())
            .sum::<usize>(),
        measured.elapsed_s,
        percentile(&round_s, 10.0),
        percentile(&round_s, 50.0),
        percentile(&round_s, 90.0),
        measured.read_p99_us(),
        setup.times().len(),
        setup.batches.len(),
        percentile(&setup.times(), 10.0),
        percentile(&setup.times(), 50.0),
        percentile(&setup.times(), 90.0),
        setup_s,
        crate::stats::mean(&steal) * 100.0,
        percentile(&steal, 50.0) * 100.0,
        percentile(&steal, 90.0) * 100.0,
        setup.rss_before_mib,
        rss,
    );

    // The checks ask the keys of the last round, whose reads filled the
    // caches before its closing update, against the collection as it
    // stands and as it stood before that update.
    let last = measured.rounds.len() - 1;
    let all: Vec<usize> = (0..task.len()).collect();
    let now = copy_task(&task, &all, Some(&spec.update[last % 2]));
    let before = match last {
        0 => copy_task(&task, &all, None),
        _ => copy_task(&task, &all, Some(&spec.update[(last - 1) % 2])),
    };
    let failures = crate::check::verify(
        &engines,
        &spec.rounds[last % spec.rounds.len()],
        spec.update[0].member,
        &now,
        &before,
    );
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let metrics = match tracer {
        Some(t) => {
            let mut m = t.finish(&engines, measured.elapsed_s);
            // The traced run's read tail, without a bound: the replays
            // between reads evict caches, so it reads above the untraced
            // tail, which the untraced run prints to standard error.
            m.push((
                "serving.read_p99_us".to_string(),
                measured.read_p99_us(),
                "us",
            ));
            m
        }
        None => vec![
            ("qps".to_string(), measured.qps(), "req/s"),
            ("read_p50_us".to_string(), measured.read_p50_us(), "us"),
            ("update_p50_us".to_string(), measured.update_p50_us(), "us"),
            ("setup_s".to_string(), setup_s, "s"),
            ("peak_rss_mb".to_string(), rss, "MiB"),
        ],
    };
    Ok(Report {
        correct: failures.is_empty(),
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    })
}

/// The admission gate every engine runs behind. One client thread never
/// holds more than one permit, so it never waits or rejects.
fn gate() -> AdmissionConfig {
    AdmissionConfig {
        permits: 2,
        max_wait: Duration::from_millis(50),
    }
}

/// Prepares one engine per technique, each with a freshly built
/// `Technique` (so DUST pays its table warm-up every time).
pub fn prepare(spec: &Spec, task: &MatchingTask) -> Result<Vec<ShardedEngine>, String> {
    spec.techs
        .iter()
        .map(|t| {
            ShardedEngine::try_prepare_with(
                task,
                &t.build(),
                spec.shards,
                ShardAssignment::RoundRobin,
                spec.index,
            )
            .map(|e| e.with_admission(gate()))
            .map_err(|e| format!("preparing {t:?}: {e}"))
        })
        .collect()
}

/// A batch of set-up repetitions and the host's steal around it.
struct SetupBatch {
    times: Vec<f64>,
    steal: Option<f64>,
}

/// Every fresh preparation of the run, in batches.
struct Setup {
    batches: Vec<SetupBatch>,
    /// This process's resident set before the first preparation: the
    /// benchmark's own share of the peak (mostly its copy of the
    /// collection).
    rss_before_mib: f64,
}

impl Setup {
    /// Every preparation's duration, in order.
    fn times(&self) -> Vec<f64> {
        self.batches.iter().flat_map(|b| b.times.clone()).collect()
    }

    fn total_s(&self) -> f64 {
        self.batches.iter().flat_map(|b| &b.times).sum()
    }

    /// `setup_s`: the median preparation over the half of the batches in
    /// which the host stole the least CPU time.
    fn median(&self) -> f64 {
        let kept: Vec<f64> = least_steal_half(&self.batches, |b| b.steal)
            .into_iter()
            .flat_map(|b| b.times.clone())
            .collect();
        median(&kept)
    }

    /// Prepares fresh engine sets for at least [`SETUP_BATCH_S`], each
    /// timed, and leaves the last one in `engines` to serve. The set that
    /// was serving is dropped first, so one set is alive at a time. The
    /// new set is brought to the collection's current state by updating
    /// `current`'s member, untimed.
    fn batch(
        &mut self,
        spec: &Spec,
        task: &MatchingTask,
        engines: &mut Vec<ShardedEngine>,
        current: Option<&Replacement>,
    ) -> Result<(), String> {
        let ticks = cpu_ticks();
        let mut times = Vec::new();
        while times.iter().sum::<f64>() < SETUP_BATCH_S {
            engines.clear();
            let t0 = Instant::now();
            let set = prepare(spec, task)?;
            times.push(t0.elapsed().as_secs_f64());
            *engines = set;
        }
        self.batches.push(SetupBatch {
            times,
            steal: steal_between(ticks, cpu_ticks()),
        });
        if let Some(rep) = current {
            for engine in engines.iter_mut() {
                let (clean, uncertain, multi) =
                    (rep.clean.clone(), rep.uncertain.clone(), rep.multi.clone());
                engine
                    .try_update_series(rep.member, clean, uncertain, multi)
                    .map_err(|e| format!("bringing a fresh set up to date: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Share of the host's CPU time stolen between two `/proc/stat` readings.
fn steal_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    }
}

/// The half of `items` (rounded up) with the least host steal, in their
/// own order; all of them when steal cannot be read.
fn least_steal_half<T>(items: &[T], steal: impl Fn(&T) -> Option<f64>) -> Vec<&T> {
    if items.iter().any(|i| steal(i).is_none()) {
        return items.iter().collect();
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    let key = |i: usize| steal(&items[i]).unwrap_or(0.0);
    order.sort_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    order.truncate(items.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| &items[i]).collect()
}

/// One round of the measured phase.
pub struct Round {
    pub seconds: f64,
    /// Operations that completed (reads and updates).
    pub completed: u64,
    /// Latency of every completed read and update, in order.
    pub read_us: Vec<f64>,
    pub update_us: Vec<f64>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// round (`None` where `/proc/stat` cannot be read).
    pub steal: Option<f64>,
}

pub struct Measured {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

/// The end-to-end statistics are taken over the half of the rounds in
/// which the hypervisor stole the least CPU time from this machine: over
/// those, throughput and median latency are medians over rounds, and the
/// update latency and the read tail are taken over all their operations.
/// Time stolen by other tenants of the host, and bursts of it, then move
/// few of the parts the result is taken from.
impl Measured {
    pub fn reads(&self) -> usize {
        self.rounds.iter().map(|r| r.read_us.len()).sum()
    }

    /// The kept rounds, in run order.
    pub fn kept(&self) -> Vec<&Round> {
        least_steal_half(&self.rounds, |r| r.steal)
    }

    pub fn qps(&self) -> f64 {
        let per_round: Vec<f64> = self
            .kept()
            .iter()
            .map(|r| r.completed as f64 / r.seconds)
            .collect();
        median(&per_round)
    }

    pub fn read_p50_us(&self) -> f64 {
        let per_round: Vec<f64> = self.kept().iter().map(|r| median(&r.read_us)).collect();
        median(&per_round)
    }

    pub fn read_p99_us(&self) -> f64 {
        let all: Vec<f64> = self
            .kept()
            .iter()
            .flat_map(|r| r.read_us.iter().copied())
            .collect();
        percentile(&all, 99.0)
    }

    pub fn update_p50_us(&self) -> f64 {
        let all: Vec<f64> = self
            .kept()
            .iter()
            .flat_map(|r| r.update_us.iter().copied())
            .collect();
        median(&all)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one read through the serving entry point.
pub fn execute(engine: &ShardedEngine, r: &Read) -> Result<usize, String> {
    let opts = QueryOptions::default();
    match r.kind {
        ReadKind::Range(eps) => engine
            .answer_set_opts(r.query, eps, &opts)
            .map(|resp| resp.value.len())
            .map_err(|e| e.to_string()),
        ReadKind::TopK(k) => engine
            .top_k_opts(r.query, k, &opts)
            .map(|resp| resp.value.len())
            .map_err(|e| e.to_string()),
        ReadKind::Probabilities(eps) => match engine.probabilities_opts(r.query, eps, &opts) {
            Ok(Some(resp)) => Ok(resp.value.len()),
            Ok(None) => Err("technique has no probabilities".into()),
            Err(e) => Err(e.to_string()),
        },
    }
}

/// The closed loop: one client thread, the next operation sent when the
/// previous one returns, whole rounds until the time is up and at least
/// `2 × MIN_READS` reads were made (the statistics keep half the rounds).
///
/// Untraced, set-up batches run between rounds whenever the set-up time
/// so far falls behind `spec.setup_budget_s` in proportion to the time
/// elapsed, so the preparations meet the same host as the rounds; the run
/// ends only when they reach the budget and `spec.setup_min`. Traced, the
/// engines stay the ones the tracer was built against.
fn measure(
    spec: &Spec,
    task: &MatchingTask,
    engines: &mut Vec<ShardedEngine>,
    setup: &mut Setup,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let mut m = Measured {
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed_s: 0.0,
    };
    let mut reads = 0usize;
    let mut current: Option<&Replacement> = None;
    let complain = |what: &str, e: String| eprintln!("perfbench: {what} failed: {e}");
    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let ticks = cpu_ticks();
        let mut read_us = Vec::new();
        let mut update_us = Vec::new();
        let failed_before = m.failed;
        let attempted_before = m.attempted;
        for op in &spec.rounds[m.rounds.len() % spec.rounds.len()] {
            match *op {
                Op::Read(r) => {
                    let engine = &engines[r.engine];
                    let before = tracer.as_ref().map(|_| crate::trace::Snapshot::of(engine));
                    let t0 = Instant::now();
                    let out = execute(engine, &r);
                    let dt = t0.elapsed();
                    m.attempted += 1;
                    reads += 1;
                    match out {
                        Ok(n) => {
                            black_box(n);
                            read_us.push(us(dt));
                        }
                        Err(e) => {
                            m.failed += 1;
                            complain("read", e);
                        }
                    }
                    if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                        t.read(engine, &r, &before, us(dt));
                    }
                }
                Op::Update => {
                    let rep = &spec.update[m.rounds.len() % 2];
                    current = Some(rep);
                    for (e, engine) in engines.iter_mut().enumerate() {
                        let (clean, uncertain, multi) =
                            (rep.clean.clone(), rep.uncertain.clone(), rep.multi.clone());
                        let t0 = Instant::now();
                        let out = engine.try_update_series(rep.member, clean, uncertain, multi);
                        let dt = t0.elapsed();
                        m.attempted += 1;
                        match out {
                            Ok(()) => update_us.push(us(dt)),
                            Err(err) => {
                                m.failed += 1;
                                complain("update", err.to_string());
                            }
                        }
                        if let Some(t) = tracer.as_deref_mut() {
                            t.update(e, engine, task, rep, us(dt));
                        }
                    }
                }
            }
        }
        m.rounds.push(Round {
            seconds: round_start.elapsed().as_secs_f64(),
            completed: (m.attempted - attempted_before) - (m.failed - failed_before),
            read_us,
            update_us,
            steal: steal_between(ticks, cpu_ticks()),
        });
        let elapsed = start.elapsed();
        let setup_due = |setup: &Setup| {
            tracer.is_none()
                && (setup.total_s()
                    < spec.setup_budget_s
                        * (elapsed.as_secs_f64() / duration.as_secs_f64()).min(1.0)
                    || (elapsed >= duration && setup.times().len() < spec.setup_min))
        };
        while setup_due(setup) {
            setup.batch(spec, task, engines, current)?;
        }
        if elapsed >= duration && reads >= 2 * MIN_READS {
            break;
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    Ok(m)
}
