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

use crate::config::ScenarioConfig;

/// When and where periodic checkpoints are written during a run.
///
/// Both cadence knobs may be set at once; a checkpoint is taken whenever
/// either is due. Checkpoints land at the bottom of the event loop —
/// after the event's effects and the rate solve — so the snapshot is
/// always of a settled simulation. On the exact solver path a
/// checkpointing run stays byte-identical to an uncheckpointed one; the
/// relaxed-order path settles its deferred solve at each checkpoint
/// (always a legal solve point, covered by the published tolerance).
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
/// `Debug` rendering, so any field change invalidates old checkpoints.
pub fn config_hash(cfg: &ScenarioConfig) -> u64 {
    pythia_des::fnv1a64(format!("{cfg:?}").as_bytes())
}

/// [`config_hash`] with the chaos schedule (link faults, controller
/// outages, agent respills) cleared — what a *fork* must agree on: the
/// warm-up the snapshot captured is shared, only the chaos injected after
/// the fork point may differ.
pub fn fork_config_hash(cfg: &ScenarioConfig) -> u64 {
    let mut base = cfg.clone();
    base.link_faults.clear();
    base.controller_outages.clear();
    base.agent_respill_at.clear();
    config_hash(&base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = ScenarioConfig::default();
        let b = ScenarioConfig::default();
        assert_eq!(config_hash(&a), config_hash(&b));
        let c = ScenarioConfig::default().with_seed(99);
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn fork_hash_ignores_chaos_schedule() {
        let base = ScenarioConfig::default();
        let mut chaotic = ScenarioConfig::default();
        chaotic
            .controller_outages
            .push(crate::config::ControllerOutage {
                down_at: SimDuration::from_secs(5),
                up_at: SimDuration::from_secs(6),
            });
        assert_ne!(config_hash(&base), config_hash(&chaotic));
        assert_eq!(fork_config_hash(&base), fork_config_hash(&chaotic));
        // But a non-chaos change still shows through.
        let other = ScenarioConfig::default().with_seed(99);
        assert_ne!(fork_config_hash(&base), fork_config_hash(&other));
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
