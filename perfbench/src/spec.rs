//! The two workloads: their scenario configurations, job sets and seeds.
//!
//! `--seed` seeds the engine (`ScenarioConfig::seed`: map-task jitter,
//! placement tie-breaks, background redraws). The job sets themselves are
//! fixed — the paper's 60 GB Sort, and the `engine_fleet` 1000-job trace
//! (fleet seed 42) — so every seed measures about the same amount of work.

use pythia_cluster::{ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_hadoop::JobSpec;
use pythia_netsim::{BackgroundProfile, FatTreeParams};
use pythia_workloads::{FleetSpec, SortWorkload, Workload as _};

/// Seed of the fleet arrival/size trace (the `engine_fleet` bench's).
const FLEET_TRACE_SEED: u64 = 42;

/// Jobs in the fleet at full size, and in the reduced self-test size.
const FLEET_JOBS: usize = 1000;
const SMALL_FLEET_JOBS: usize = 40;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 60 GB Sort on a k=8 fat-tree, one job.
    Sort60,
    /// The control stream of the steady 1000-job fleet, replayed
    /// through the live daemon.
    DaemonReplay,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "sort60" => Some(Kind::Sort60),
            "daemon_replay" => Some(Kind::DaemonReplay),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sort60 => "sort60",
            Kind::DaemonReplay => "daemon_replay",
        }
    }

    /// The seed the existing benches run this scenario with.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::Sort60 => 7,
            Kind::DaemonReplay => 11,
        }
    }
}

/// One workload at one seed and size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Reduced inputs for the self-test (a 6 GB Sort, a 40-job fleet).
    pub small: bool,
}

impl Workload {
    /// The scenario: topology, scheduler, solver mode and control-plane
    /// layout.
    pub fn cfg(&self) -> ScenarioConfig {
        match self.kind {
            // `ScenarioConfig::default()` ships the solver mode measured.
            Kind::Sort60 => ScenarioConfig::default()
                .with_topology(fat_tree(8))
                .with_scheduler(SchedulerKind::Pythia)
                .with_oversubscription(10)
                .with_seed(self.seed),
            Kind::DaemonReplay => fleet_cfg(self.seed),
        }
    }

    /// The fleet `daemon_replay` taps its stream from (1000 Poisson jobs
    /// at a 4 s mean interarrival), with submission offsets.
    pub fn fleet_jobs(&self) -> Vec<(JobSpec, SimDuration)> {
        let n = if self.small {
            SMALL_FLEET_JOBS
        } else {
            FLEET_JOBS
        };
        let mut f = FleetSpec::poisson(n, SimDuration::from_secs(4), FLEET_TRACE_SEED);
        f.min_input_bytes = 512 << 20;
        f.max_input_bytes = 8u64 << 30;
        f.jobs()
    }

    /// The single job of `sort60`.
    pub fn sort_job(&self) -> JobSpec {
        let mut w = SortWorkload::paper_60gb();
        if self.small {
            w.input_bytes /= 10;
        }
        w.job()
    }
}

fn fat_tree(k: u32) -> FatTreeParams {
    FatTreeParams {
        k,
        ..FatTreeParams::default()
    }
}

/// The `engine_fleet` configuration: k=16 (1024 servers), streaming job
/// slots, one collector shard per pod, 1 s install epochs, the relaxed
/// solver, and the fleet telemetry cadence.
fn fleet_cfg(seed: u64) -> ScenarioConfig {
    let k = 16;
    let mut cfg = ScenarioConfig::default()
        .with_topology(fat_tree(k))
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(seed)
        .with_stream_jobs(true)
        .with_collector_shards(k as usize)
        .with_install_epoch(SimDuration::from_secs(1))
        .with_relaxed_order(true);
    cfg.probe_period = SimDuration::from_secs(2);
    cfg.link_load_period = SimDuration::from_secs(5);
    cfg.background = BackgroundProfile::Fluctuating {
        period_secs: 30.0,
        spread: 0.3,
    };
    cfg
}

/// Solver worker threads the engine runs with under `cfg` (the relaxed
/// solver's auto count; the exact solver is single-threaded).
pub fn solver_workers(cfg: &ScenarioConfig) -> usize {
    if !cfg.relaxed_order {
        1
    } else if cfg.solver_workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
    } else {
        cfg.solver_workers
    }
}
