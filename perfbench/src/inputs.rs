//! Seeded input generation: collections, replacement series and a small
//! deterministic RNG for operation schedules. Everything here is a pure
//! function of the workload seed, so one seed always yields the same
//! inputs; the program under test only ever sees the generated data.

use uts_core::matching::MatchingTask;
use uts_datasets::special::gunpoint_series;
use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, UncertainSeries,
};

/// SplitMix64: tiny, seedable, and independent of the workspace's
/// vendored `rand`, so schedules do not shift when that stand-in changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: Seed) -> Self {
        Rng(seed.value())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One generated collection: clean truth, pdf-model observations and,
/// for MUNICH, repeated observations.
pub struct Collection {
    pub clean: Vec<TimeSeries>,
    pub uncertain: Vec<UncertainSeries>,
    pub multi: Option<Vec<MultiObsSeries>>,
}

/// A new version of one member, applied through `update_series`.
pub struct Replacement {
    pub member: usize,
    pub clean: TimeSeries,
    pub uncertain: UncertainSeries,
    pub multi: Option<MultiObsSeries>,
}

impl Collection {
    /// The collection as a matching task (no copy).
    pub fn into_task(self, k: usize) -> MatchingTask {
        MatchingTask::new(self.clean, self.uncertain, self.multi, k)
    }
}

/// A matching task over a copy of `base`'s members at `members`, with
/// `r`'s version of its member in place of `base`'s.
pub fn copy_task(base: &MatchingTask, members: &[usize], r: Option<&Replacement>) -> MatchingTask {
    let pick = |i: usize| r.filter(|r| r.member == i);
    MatchingTask::new(
        members
            .iter()
            .map(|&i| pick(i).map_or(&base.clean()[i], |r| &r.clean).clone())
            .collect(),
        members
            .iter()
            .map(|&i| {
                pick(i)
                    .map_or(&base.uncertain()[i], |r| &r.uncertain)
                    .clone()
            })
            .collect(),
        base.multi().map(|m| {
            members
                .iter()
                .map(|&i| match pick(i).and_then(|r| r.multi.as_ref()) {
                    Some(new) => new.clone(),
                    None => m[i].clone(),
                })
                .collect()
        }),
        base.k(),
    )
}

/// How a collection's clean series are drawn.
#[derive(Clone, Copy)]
pub enum Shape {
    /// GunPoint-analogue arcs (two classes), length 150.
    GunPoint,
    /// Sixteen sine-mixture clusters with per-member phase and frequency
    /// jitter, z-normalised (the shape of `uts_bench::bench_task_clustered`).
    /// The cluster geometry is fixed, so the index's pruning power does not
    /// change with the seed; the seed draws the noise and the queries.
    Clustered,
}

/// Collection recipe: size, shape, error model and repeated observations.
#[derive(Clone, Copy)]
pub struct Recipe {
    pub n: usize,
    pub len: usize,
    pub shape: Shape,
    pub sigma: f64,
    /// Samples per timestamp for MUNICH (`None`: no multi-observation data).
    pub samples: Option<usize>,
}

const CLUSTERS: usize = 16;

impl Recipe {
    /// Members fall into strata by `i % strata()`: the GunPoint class or
    /// the cluster. Queries are drawn evenly from every stratum, so the
    /// mix of cheap and expensive queries does not change with the seed.
    pub fn strata(&self) -> usize {
        match self.shape {
            Shape::GunPoint => 2,
            Shape::Clustered => CLUSTERS,
        }
    }

    fn clean(&self, seed: Seed, i: usize, version: u64) -> TimeSeries {
        match self.shape {
            Shape::GunPoint => {
                let mut rng = seed
                    .derive("clean")
                    .derive_u64(i as u64)
                    .derive_u64(version)
                    .rng();
                gunpoint_series(&mut rng, i % 2, self.len)
            }
            Shape::Clustered => {
                let c = i % CLUSTERS;
                // A new version stays in its cluster but moves within it.
                let member = (i / CLUSTERS) as f64 + version as f64 * 0.5;
                let freq = 1.0 / (4.0 + c as f64 * 0.7 + member * 1e-4);
                let phase = c as f64 * 0.9 + member * 0.003;
                TimeSeries::from_values((0..self.len).map(|t| {
                    let t = t as f64;
                    (t * freq + phase).sin() + 0.3 * (t * freq * 2.3 + phase * 1.7).cos()
                }))
                .znormalized()
            }
        }
    }

    fn member(
        &self,
        seed: Seed,
        i: usize,
        version: u64,
    ) -> (TimeSeries, UncertainSeries, Option<MultiObsSeries>) {
        let clean = self.clean(seed, i, version);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, self.sigma);
        let s = seed
            .derive("observe")
            .derive_u64(i as u64)
            .derive_u64(version);
        let uncertain = perturb(&clean, &spec, s.derive("pdf"));
        let multi = self
            .samples
            .map(|n| perturb_multi(&clean, &spec, n, s.derive("multi")));
        (clean, uncertain, multi)
    }

    /// The initial collection (version 0 of every member).
    pub fn collection(&self, seed: Seed) -> Collection {
        let mut clean = Vec::with_capacity(self.n);
        let mut uncertain = Vec::with_capacity(self.n);
        let mut multi = self.samples.map(|_| Vec::with_capacity(self.n));
        for i in 0..self.n {
            let (c, u, m) = self.member(seed, i, 0);
            clean.push(c);
            uncertain.push(u);
            if let (Some(all), Some(m)) = (multi.as_mut(), m) {
                all.push(m);
            }
        }
        Collection {
            clean,
            uncertain,
            multi,
        }
    }

    /// Version `version` (≥ 1) of member `i`.
    pub fn replacement(&self, seed: Seed, i: usize, version: u64) -> Replacement {
        let (clean, uncertain, multi) = self.member(seed, i, version);
        Replacement {
            member: i,
            clean,
            uncertain,
            multi,
        }
    }
}
