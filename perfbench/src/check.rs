//! Answer checks, run after the measured phase (and so after its last
//! update), outside any timed region.
//!
//! For every engine, the probes of the last round (its reads of the
//! update member) and the first few other distinct reads of each kind are
//! asked again through the serving entry point and compared with a
//! reference computed on a copy of the collection with the update
//! member's current version in place: Euclidean against a distance
//! computed here, the other techniques against the library's naive
//! oracles, and MUNICH range answers against the members whose oracle
//! probability reaches τ.
//!
//! The last round's reads filled the caches before its closing update.
//! Each engine's probes must also answer differently on the member's
//! previous version, so a stale cache entry, or an owner shard that was
//! not re-prepared, gives the previous version's answer and fails.

use uts_core::matching::{MatchingTask, Technique};
use uts_core::serving::{QueryOptions, ShardedEngine};

use crate::workload::{Op, Read, ReadKind};

/// Distinct reads of each kind checked per engine, besides the probes.
const PER_KIND: usize = 4;

/// One read's answer, as served or as the reference gives it.
#[derive(PartialEq)]
enum Answer {
    Members(Vec<usize>),
    Scored(Vec<(usize, f64)>),
}

/// Checks the engines after the last update of `member`: `now` is the
/// collection as it stands, `before` the collection with the member's
/// previous version.
pub fn verify(
    engines: &[ShardedEngine],
    round: &[Op],
    member: usize,
    now: &MatchingTask,
    before: &MatchingTask,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (e, engine) in engines.iter().enumerate() {
        let technique = engine.technique();
        let mut fail = |r: &Read, msg: String| {
            failures.push(format!(
                "{} {:?} query {}: {msg}",
                technique.kind(),
                r.kind,
                r.query
            ))
        };
        let mut probes_tell_versions_apart = false;
        for r in sample(round, e, member) {
            let want = reference(now, technique, &r);
            match (served(engine, &r, now.len()), &want) {
                (Ok(got), Ok(want)) if got == *want => {}
                (Ok(_), Ok(_)) => fail(&r, "differs from the reference".into()),
                (Err(msg), _) => fail(&r, msg),
                (_, Err(msg)) => fail(&r, msg.clone()),
            }
            if let (true, Ok(want), Ok(previous)) =
                (r.query == member, &want, reference(before, technique, &r))
            {
                probes_tell_versions_apart |= *want != previous;
            }
        }
        if !probes_tell_versions_apart {
            failures.push(format!(
                "{}: no probe of member {member} answers differently on its previous version",
                technique.kind()
            ));
        }
    }
    failures
}

/// Every distinct probe engine `e` makes (reads of `member`), and the
/// first `PER_KIND` other distinct reads of each kind.
fn sample(round: &[Op], e: usize, member: usize) -> Vec<Read> {
    let mut out: Vec<Read> = Vec::new();
    let mut counts = [0usize; 3];
    for op in round {
        let Op::Read(r) = *op else { continue };
        let slot = match r.kind {
            ReadKind::Range(_) => 0,
            ReadKind::TopK(_) => 1,
            ReadKind::Probabilities(_) => 2,
        };
        let seen = out.iter().any(|o| {
            o.query == r.query && std::mem::discriminant(&o.kind) == std::mem::discriminant(&r.kind)
        });
        if r.engine != e || seen {
            continue;
        }
        if r.query == member {
            out.push(r);
        } else if counts[slot] < PER_KIND {
            counts[slot] += 1;
            out.push(r);
        }
    }
    out
}

/// The read asked again through the serving entry point, with the
/// properties every answer must have checked (`n` members in all).
fn served(engine: &ShardedEngine, r: &Read, n: usize) -> Result<Answer, String> {
    let opts = QueryOptions::default();
    let q = r.query;
    match r.kind {
        ReadKind::Range(eps) => {
            let got = engine
                .answer_set_opts(q, eps, &opts)
                .map_err(|e| e.to_string())?
                .value;
            if !got.windows(2).all(|w| w[0] < w[1]) || got.contains(&q) {
                return Err("not ascending, or holds the query".into());
            }
            Ok(Answer::Members(got.to_vec()))
        }
        ReadKind::TopK(k) => {
            let got = engine
                .top_k_opts(q, k, &opts)
                .map_err(|e| e.to_string())?
                .value;
            let ordered = got
                .windows(2)
                .all(|w| w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
            if got.len() != k.min(n - 1) || !ordered || got.iter().any(|&(i, _)| i == q) {
                return Err("wrong length, order, or holds the query".into());
            }
            Ok(Answer::Scored(got.to_vec()))
        }
        ReadKind::Probabilities(eps) => {
            let got = engine
                .probabilities_opts(q, eps, &opts)
                .map_err(|e| e.to_string())?
                .ok_or("technique has no probabilities")?
                .value;
            let members = got.iter().map(|&(i, _)| i).eq((0..n).filter(|&i| i != q));
            if !members || got.iter().any(|&(_, p)| !(0.0..=1.0).contains(&p)) {
                return Err("not every other member once, or p outside [0, 1]".into());
            }
            Ok(Answer::Scored(got.to_vec()))
        }
    }
}

/// The reference answer on `task`.
fn reference(task: &MatchingTask, technique: &Technique, r: &Read) -> Result<Answer, String> {
    let q = r.query;
    let n = task.len();
    match r.kind {
        ReadKind::Range(eps) => Ok(Answer::Members(match technique {
            Technique::Euclidean => (0..n)
                .filter(|&i| i != q && euclid(task, q, i) <= eps)
                .collect(),
            Technique::Munich { tau, .. } => task
                .probabilities_naive(q, technique, eps)
                .ok_or("no MUNICH probabilities")?
                .into_iter()
                .filter(|&(_, p)| p >= *tau)
                .map(|(i, _)| i)
                .collect(),
            _ => task.answer_set_naive(q, technique, eps),
        })),
        ReadKind::TopK(k) => Ok(Answer::Scored(match technique {
            Technique::Euclidean => {
                let mut all: Vec<(usize, f64)> = (0..n)
                    .filter(|&i| i != q)
                    .map(|i| (i, euclid(task, q, i)))
                    .collect();
                all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                all.truncate(k);
                all
            }
            _ => task
                .top_k_naive(q, technique, k)
                .ok_or("technique is not distance-ranked")?,
        })),
        ReadKind::Probabilities(eps) => Ok(Answer::Scored(
            task.probabilities_naive(q, technique, eps)
                .ok_or("no oracle probabilities")?,
        )),
    }
}

/// Euclidean distance between the observed members, summed in index
/// order (the order the library's kernels accumulate in).
fn euclid(task: &MatchingTask, a: usize, b: usize) -> f64 {
    let (x, y) = (task.uncertain()[a].values(), task.uncertain()[b].values());
    let mut acc = 0.0;
    for (u, v) in x.iter().zip(y) {
        let d = u - v;
        acc += d * d;
    }
    acc.sqrt()
}
