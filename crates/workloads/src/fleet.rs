//! Streaming multi-tenant fleet workloads: continuous job arrivals with
//! profile-driven shuffle matrices.
//!
//! The paper evaluates one job at a time; the fleet path models a shared
//! datacenter instead — jobs arrive continuously (Poisson or replayed
//! from a trace), sizes are heavy-tailed (bounded Pareto, the standard
//! datacenter job-size fit), and each job's shuffle matrix is drawn from
//! a per-application *traffic profile* mixing Sort-style (byte-preserving,
//! mild skew) and Nutch-style (inflating, strongly Zipfian) shapes. The
//! profile-driven generator follows the MapReduce network-profiling
//! observation (arXiv 1206.2016) that an application's network profile is
//! stable across runs and input sizes, so fleet traffic is realistic
//! rather than uniform.
//!
//! Everything is a pure function of [`FleetSpec`]: the same spec yields a
//! byte-identical arrival trace and byte-identical [`JobSpec`]s, job by
//! job, with no cross-job RNG coupling — job `i` can be regenerated in
//! isolation (snapshot resume rebuilds specs by index without replaying
//! the generator).

use pythia_des::{fnv1a64, splitmix64, SimDuration};
use pythia_hadoop::JobSpec;

use crate::hibench::{ComputeProfile, Workload};
use crate::skew::SkewModel;

const MB: u64 = 1_000_000;
const GB: u64 = 1_000_000_000;

/// How jobs arrive over the trace horizon.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a fixed mean rate (open-loop cluster load).
    Poisson {
        /// Mean time between consecutive job submissions.
        mean_interarrival: SimDuration,
    },
    /// Replay submission instants from a recorded trace (need not be
    /// sorted; the generator sorts them).
    Trace {
        /// Submission time of each job, relative to the run start.
        at: Vec<SimDuration>,
    },
}

/// A per-application traffic profile: the stable shuffle shape every job
/// of that application follows, scaled by its (heavy-tailed) input size.
#[derive(Debug, Clone)]
pub struct FleetProfile {
    /// Application label (lands in job names and fairness tables).
    pub name: String,
    /// Intermediate-to-input byte ratio (Sort ≈ 1.0, Nutch > 1).
    pub map_output_ratio: f64,
    /// Zipf exponent of the per-reducer key skew.
    pub zipf_s: f64,
    /// Per-map multiplicative partition jitter.
    pub map_jitter: f64,
    /// HDFS split (block) size per map task.
    pub split_bytes: u64,
    /// Reduce tasks per GB of input (rounded, clamped below).
    pub reducers_per_gb: f64,
    /// Reducer-count clamp range.
    pub min_reducers: usize,
    /// Upper reducer-count clamp.
    pub max_reducers: usize,
    /// Compute-time constants.
    pub compute: ComputeProfile,
}

impl FleetProfile {
    /// Sort-style profile: pure data movement, mild natural skew.
    pub fn sort_style() -> Self {
        FleetProfile {
            name: "sort".into(),
            map_output_ratio: 1.0,
            zipf_s: 0.5,
            map_jitter: 0.1,
            split_bytes: 64 * MB,
            reducers_per_gb: 2.0,
            min_reducers: 2,
            max_reducers: 32,
            compute: ComputeProfile::default(),
        }
    }

    /// Nutch-style profile: inflating inverted-index build with strongly
    /// Zipfian term frequencies and many small flows.
    pub fn nutch_style() -> Self {
        FleetProfile {
            name: "nutch".into(),
            map_output_ratio: 1.2,
            zipf_s: 0.9,
            map_jitter: 0.2,
            split_bytes: 32 * MB,
            reducers_per_gb: 4.0,
            min_reducers: 4,
            max_reducers: 48,
            compute: ComputeProfile {
                map_bytes_per_sec: 20.0 * MB as f64,
                jitter_frac: 0.2,
                ..ComputeProfile::default()
            },
        }
    }
}

/// A deterministic multi-tenant fleet: an arrival process, a heavy-tailed
/// size law, and a weighted mix of traffic profiles.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Master seed; every drawn quantity derives from it.
    pub seed: u64,
    /// Jobs generated by a [`ArrivalProcess::Poisson`] process (ignored
    /// for trace replay, which takes one job per trace instant).
    pub num_jobs: usize,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Bounded-Pareto tail exponent of the input-size law (smaller ⇒
    /// heavier tail; datacenter fits are typically 1–2).
    pub size_alpha: f64,
    /// Smallest job input.
    pub min_input_bytes: u64,
    /// Largest job input (the Pareto bound).
    pub max_input_bytes: u64,
    /// Weighted profile mix; weights need not sum to 1.
    pub profiles: Vec<(f64, FleetProfile)>,
}

impl FleetSpec {
    /// A Poisson fleet with the default Sort/Nutch mix (70/30) and a
    /// 256 MB – 16 GB bounded-Pareto size law.
    pub fn poisson(num_jobs: usize, mean_interarrival: SimDuration, seed: u64) -> Self {
        FleetSpec {
            seed,
            num_jobs,
            arrivals: ArrivalProcess::Poisson { mean_interarrival },
            size_alpha: 1.6,
            min_input_bytes: 256 * MB,
            max_input_bytes: 16 * GB,
            profiles: vec![
                (0.7, FleetProfile::sort_style()),
                (0.3, FleetProfile::nutch_style()),
            ],
        }
    }

    /// A trace-replay fleet (one job per instant) with the default mix.
    pub fn from_trace(at: Vec<SimDuration>, seed: u64) -> Self {
        let n = at.len();
        let mut f = FleetSpec::poisson(n, SimDuration::from_secs(1), seed);
        f.arrivals = ArrivalProcess::Trace { at };
        f
    }

    /// Number of jobs this spec generates.
    pub fn len(&self) -> usize {
        match &self.arrivals {
            ArrivalProcess::Poisson { .. } => self.num_jobs,
            ArrivalProcess::Trace { at } => at.len(),
        }
    }

    /// True when the spec generates no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted arrival instants, one per job. Pure function of the
    /// spec: Poisson interarrivals are drawn from a counter-mode stream
    /// seeded per index, so the trace never depends on generation order.
    pub fn arrival_times(&self) -> Vec<SimDuration> {
        match &self.arrivals {
            ArrivalProcess::Poisson { mean_interarrival } => {
                let mean = mean_interarrival.as_secs_f64();
                let mut t = 0.0f64;
                (0..self.num_jobs)
                    .map(|i| {
                        let u = unit(self.seed, 0x41, i as u64);
                        // Exponential inverse CDF; `1 - u` keeps ln() off 0.
                        t += -mean * (1.0 - u).ln();
                        SimDuration::from_secs_f64(t)
                    })
                    .collect()
            }
            ArrivalProcess::Trace { at } => {
                let mut at = at.clone();
                at.sort_unstable();
                at
            }
        }
    }

    /// The input size of job `i`: bounded Pareto over
    /// `[min_input_bytes, max_input_bytes]` with tail `size_alpha`.
    pub fn input_bytes(&self, i: usize) -> u64 {
        let u = unit(self.seed, 0x53, i as u64);
        let a = self.size_alpha;
        let lo = self.min_input_bytes as f64;
        let hi = self.max_input_bytes as f64;
        // Inverse CDF of the bounded Pareto(lo, hi, a).
        let x = (lo.powf(-a) - u * (lo.powf(-a) - hi.powf(-a))).powf(-1.0 / a);
        (x as u64).clamp(self.min_input_bytes, self.max_input_bytes)
    }

    /// The traffic profile job `i` belongs to.
    pub fn profile_of(&self, i: usize) -> &FleetProfile {
        assert!(
            !self.profiles.is_empty(),
            "fleet needs at least one profile"
        );
        let total: f64 = self.profiles.iter().map(|(w, _)| *w).sum();
        let mut pick = unit(self.seed, 0x70, i as u64) * total;
        for (w, p) in &self.profiles {
            pick -= *w;
            if pick < 0.0 {
                return p;
            }
        }
        &self.profiles.last().expect("non-empty").1
    }

    /// Mint job `i`'s spec — deterministic and independent of every other
    /// job, so snapshot resume can rebuild any job by index alone.
    pub fn job(&self, i: usize) -> JobSpec {
        let p = self.profile_of(i);
        let input = self.input_bytes(i);
        let gb = input as f64 / GB as f64;
        let reducers = ((gb * p.reducers_per_gb).round() as usize)
            .clamp(p.min_reducers, p.max_reducers.max(p.min_reducers));
        let num_maps = (input / p.split_bytes).max(1) as usize;
        let part_seed = splitmix64(self.seed ^ ((i as u64) << 21) ^ 0xfee7);
        JobSpec {
            name: format!("{}-{i}", p.name),
            num_maps,
            num_reducers: reducers,
            input_bytes: input,
            map_output_ratio: p.map_output_ratio,
            map_duration: p.compute.map_model(),
            sort_duration: p.compute.sort_model(),
            reduce_duration: p.compute.reduce_model(),
            partitioner: SkewModel::Zipf { s: p.zipf_s }.partitioner(
                reducers,
                p.map_jitter,
                part_seed,
            ),
        }
    }

    /// Every job paired with its arrival offset, ready for the engine.
    pub fn jobs(&self) -> Vec<(JobSpec, SimDuration)> {
        self.arrival_times()
            .into_iter()
            .enumerate()
            .map(|(i, at)| (self.job(i), at))
            .collect()
    }

    /// FNV-1a fingerprint of the full arrival trace — every instant and
    /// every job's drawn parameters. Two specs with the same fingerprint
    /// generate byte-identical fleets; the determinism proptests pin this.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for (i, at) in self.arrival_times().into_iter().enumerate() {
            let j = self.job(i);
            for x in [
                at.as_nanos(),
                j.num_maps as u64,
                j.num_reducers as u64,
                j.input_bytes,
                j.map_output_ratio.to_bits(),
                fnv1a64(j.name.as_bytes()),
            ] {
                bytes.extend(x.to_le_bytes());
            }
        }
        fnv1a64(&bytes)
    }
}

/// A [`Workload`] view of one fleet slot, so fleet jobs plug into any
/// harness that takes workloads.
#[derive(Debug, Clone)]
pub struct FleetSlot<'a> {
    spec: &'a FleetSpec,
    index: usize,
}

impl<'a> FleetSlot<'a> {
    /// Job `index` of `spec` as a [`Workload`].
    pub fn new(spec: &'a FleetSpec, index: usize) -> Self {
        assert!(index < spec.len(), "fleet slot out of range");
        FleetSlot { spec, index }
    }
}

impl Workload for FleetSlot<'_> {
    fn name(&self) -> &str {
        &self.spec.profile_of(self.index).name
    }
    fn job(&self) -> JobSpec {
        self.spec.job(self.index)
    }
}

/// Counter-mode uniform draw in `[0, 1)`: one splitmix64 evaluation per
/// (seed, stream, index), no sequential state.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let x = splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ splitmix64(i ^ 0xa02b));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec::poisson(200, SimDuration::from_secs(30), 7)
    }

    #[test]
    fn arrivals_are_sorted_and_positive() {
        let at = spec().arrival_times();
        assert_eq!(at.len(), 200);
        assert!(at[0] > SimDuration::ZERO);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_seed_same_fleet() {
        let a = spec();
        let b = spec();
        assert_eq!(a.trace_fingerprint(), b.trace_fingerprint());
        assert_eq!(a.arrival_times(), b.arrival_times());
        for i in [0, 7, 199] {
            assert_eq!(format!("{:?}", a.job(i)), format!("{:?}", b.job(i)));
        }
    }

    /// The fingerprint is a stable value, not just self-consistent: these
    /// are the test fleet's and the 1000-job benchmark fleet's.
    #[test]
    fn trace_fingerprint_is_pinned() {
        assert_eq!(spec().trace_fingerprint(), 0xa781_51ac_c294_3f76);
        let bench = FleetSpec::poisson(1000, SimDuration::from_secs(4), 42);
        assert_eq!(bench.trace_fingerprint(), 0x28a0_e61f_982f_ffaa);
    }

    #[test]
    fn different_seed_different_fleet() {
        let mut b = spec();
        b.seed = 8;
        assert_ne!(spec().trace_fingerprint(), b.trace_fingerprint());
    }

    #[test]
    fn sizes_are_heavy_tailed_and_bounded() {
        let s = spec();
        let mut sizes: Vec<u64> = (0..s.num_jobs).map(|i| s.input_bytes(i)).collect();
        sizes.sort_unstable();
        assert!(*sizes.first().unwrap() >= s.min_input_bytes);
        assert!(*sizes.last().unwrap() <= s.max_input_bytes);
        let median = sizes[sizes.len() / 2];
        let max = *sizes.last().unwrap();
        // Heavy tail: the largest job dwarfs the median.
        assert!(
            max > 4 * median,
            "tail too light: median {median}, max {max}"
        );
        // Most jobs stay small (mass near the lower bound).
        assert!(median < 4 * s.min_input_bytes, "median {median} too large");
    }

    #[test]
    fn profile_mix_respects_weights() {
        let s = spec();
        let nutch = (0..s.num_jobs)
            .filter(|&i| s.profile_of(i).name == "nutch")
            .count();
        // 30% nominal of 200 — allow generous slack.
        assert!((20..=100).contains(&nutch), "nutch count {nutch}");
    }

    #[test]
    fn trace_replay_sorts_and_counts() {
        let s = FleetSpec::from_trace(
            vec![
                SimDuration::from_secs(9),
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ],
            3,
        );
        assert_eq!(s.len(), 3);
        let at = s.arrival_times();
        assert_eq!(
            at,
            vec![
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
                SimDuration::from_secs(9),
            ]
        );
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 3);
    }

    #[test]
    fn jobs_pair_specs_with_arrivals() {
        let s = FleetSpec::poisson(5, SimDuration::from_secs(10), 1);
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 5);
        let at = s.arrival_times();
        for (i, (spec, t)) in jobs.iter().enumerate() {
            assert_eq!(*t, at[i]);
            assert_eq!(spec.name, s.job(i).name);
            assert!(spec.num_maps >= 1 && spec.num_reducers >= 2);
        }
    }

    #[test]
    fn fleet_slot_is_a_workload() {
        let s = spec();
        let w = FleetSlot::new(&s, 0);
        let j = w.job();
        assert_eq!(j.name, s.job(0).name);
        assert!(!w.name().is_empty());
    }
}
