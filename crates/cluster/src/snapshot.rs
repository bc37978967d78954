//! Checkpoint policy and scenario fingerprinting for crash-durable runs.
//!
//! The engine serializes itself through `pythia-snapshot`'s pure core;
//! this module holds the knobs that decide *when* a checkpoint is taken
//! and the configuration hash that pairs a snapshot with the scenario it
//! was taken under. The filesystem work itself (atomic
//! write-to-temp-then-rename, the `MANIFEST` file) lives in
//! [`pythia_snapshot::shell`].

use std::path::PathBuf;

use pythia_des::SimDuration;

use pythia_trace::TraceConfig;

use crate::config::ScenarioConfig;

/// When and where periodic checkpoints are written during a run.
///
/// Both cadence knobs may be set at once; a checkpoint is taken whenever
/// either is due. Checkpoints land at the bottom of the event loop, after
/// the event's effects and the round's finish, so no event is half
/// applied. A rate solve the round deferred is written as pending rather
/// than forced, so a checkpointing run stays bitwise identical to an
/// uncheckpointed one.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the snapshot files and `MANIFEST` are written into.
    pub dir: PathBuf,
    /// Checkpoint every N processed events.
    pub every_events: Option<u64>,
    /// Checkpoint every T of simulated time.
    pub every_sim_time: Option<SimDuration>,
    /// Crash-injection hook for kill tests: abort the process (no
    /// unwinding, like `kill -9` landing here) just before dispatching
    /// the N-th event.
    pub die_at_event: Option<u64>,
    /// Keep every snapshot file instead of deleting the one the new
    /// manifest no longer points at.
    pub retain_all: bool,
}

impl CheckpointPolicy {
    /// A policy writing into `dir` with no cadence set (no periodic
    /// checkpoints until one of the `every_*` builders is applied).
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_events: None,
            every_sim_time: None,
            die_at_event: None,
            retain_all: false,
        }
    }

    /// Checkpoint every `n` processed events.
    pub fn every_events(mut self, n: u64) -> Self {
        assert!(n > 0, "checkpoint cadence must be positive");
        self.every_events = Some(n);
        self
    }

    /// Checkpoint every `d` of simulated time.
    pub fn every_sim_time(mut self, d: SimDuration) -> Self {
        assert!(d > SimDuration::ZERO, "checkpoint cadence must be positive");
        self.every_sim_time = Some(d);
        self
    }

    /// Abort the process just before dispatching event `n` (kill tests).
    pub fn die_at_event(mut self, n: u64) -> Self {
        self.die_at_event = Some(n);
        self
    }

    /// Keep every snapshot file on disk.
    pub fn retain_all(mut self) -> Self {
        self.retain_all = true;
        self
    }
}

/// Fingerprint of a scenario configuration, recorded in each checkpoint's
/// manifest and checked on resume: a snapshot resumed under a different
/// configuration is a typed [`pythia_snapshot::SnapshotError::ConfigMismatch`],
/// not a silently divergent run. The hash covers the config's complete
/// `Debug` rendering, with the fields that cannot change a result
/// normalized first: the deprecated `relaxed_order` (read by nothing),
/// `solver_workers` (results are bitwise identical for any worker count)
/// and `trace` (the flight recorder observes a run without steering it).
pub fn config_hash(cfg: &ScenarioConfig) -> u64 {
    let mut neutral = cfg.clone();
    #[allow(deprecated)]
    {
        neutral.relaxed_order = true;
    }
    neutral.solver_workers = 0;
    neutral.trace = TraceConfig::disabled();
    pythia_des::fnv1a64(format!("{neutral:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use pythia_netsim::FatTreeParams;

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = ScenarioConfig::default();
        let b = ScenarioConfig::default();
        assert_eq!(config_hash(&a), config_hash(&b));
        let differs = [
            ScenarioConfig::default().with_seed(99),
            ScenarioConfig::default().with_topology(FatTreeParams {
                k: 4,
                ..FatTreeParams::default()
            }),
            ScenarioConfig::default().with_scheduler(SchedulerKind::Pythia),
            ScenarioConfig {
                eager_solves: true,
                ..ScenarioConfig::default()
            },
        ];
        for c in &differs {
            assert_ne!(config_hash(&a), config_hash(c), "{c:?}");
        }
    }

    /// Fields that cannot change a result leave the hash alone, so a run
    /// resumes under a different worker count or trace setting.
    #[test]
    #[allow(deprecated)]
    fn result_neutral_fields_keep_the_hash() {
        let base = config_hash(&ScenarioConfig::default());
        let exact = ScenarioConfig {
            relaxed_order: false,
            ..ScenarioConfig::default()
        };
        let workers = ScenarioConfig {
            solver_workers: 3,
            ..ScenarioConfig::default()
        };
        let traced = ScenarioConfig::default().with_trace(TraceConfig::enabled());
        for c in [exact, workers, traced] {
            assert_eq!(config_hash(&c), base, "{c:?}");
        }
    }

    /// A change to `ScenarioConfig`'s `Debug` rendering orphans every
    /// checkpoint on disk; it must fail here, not at someone's resume.
    #[test]
    fn default_config_hash_is_pinned() {
        let got = config_hash(&ScenarioConfig::default());
        assert_eq!(
            got, 0xd6d3_1787_eb7f_bb94,
            "default config hash {got:#018x}"
        );
    }

    #[test]
    fn policy_builders() {
        let p = CheckpointPolicy::new("/tmp/x")
            .every_events(100)
            .every_sim_time(SimDuration::from_secs(2))
            .retain_all();
        assert_eq!(p.every_events, Some(100));
        assert_eq!(p.every_sim_time, Some(SimDuration::from_secs(2)));
        assert!(p.retain_all);
        assert!(p.die_at_event.is_none());
    }
}
