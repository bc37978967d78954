//! Scenario configuration: everything needed to reproduce one run.

use pythia_baselines::HederaConfig;
use pythia_core::PythiaConfig;
use pythia_des::SimDuration;
use pythia_hadoop::HadoopConfig;
use pythia_netsim::{BackgroundProfile, OverSubscription, TopologySpec};
use pythia_openflow::ControllerConfig;
use pythia_trace::TraceConfig;

/// Which flow scheduler manages shuffle traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Random load-unaware 5-tuple hashing (the paper's baseline).
    Ecmp,
    /// The full Pythia system: prediction + SDN path installation.
    Pythia,
    /// Hedera-like reactive elephant rerouting (ablation).
    Hedera,
}

impl SchedulerKind {
    /// Short lower-case label used in reports and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Ecmp => "ecmp",
            SchedulerKind::Pythia => "pythia",
            SchedulerKind::Hedera => "hedera",
        }
    }
}

/// A scheduled trunk-cable fault (fails both directions of the cable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Which trunk cable (duplex pair index) fails.
    pub trunk_cable: usize,
    /// When it fails, relative to job start.
    pub fail_at: SimDuration,
    /// When it comes back, if ever.
    pub restore_at: Option<SimDuration>,
}

/// A scheduled SDN-controller outage. While the controller is down no
/// rules can be installed or modified — in-flight installs are lost and
/// newly aggregated flows ride default ECMP. Installed dataplane rules
/// survive (switches keep forwarding without their controller). On
/// recovery the controller resyncs from collector state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerOutage {
    /// When the controller crashes, relative to run start.
    pub down_at: SimDuration,
    /// When it comes back.
    pub up_at: SimDuration,
}

/// A complete, reproducible scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Cluster/network shape — the paper's multi-rack reference fabric
    /// or a parameterized fat-tree (`TopologySpec::FatTree`).
    pub topology: TopologySpec,
    /// Over-subscription ratio 1:N emulated by background traffic.
    pub oversubscription: OverSubscription,
    /// How the background load moves across parallel trunks over time.
    pub background: BackgroundProfile,
    /// The flow scheduler under test.
    pub scheduler: SchedulerKind,
    /// Hadoop framework knobs.
    pub hadoop: HadoopConfig,
    /// Pythia knobs (used when `scheduler` is Pythia).
    pub pythia: PythiaConfig,
    /// SDN controller knobs.
    pub controller: ControllerConfig,
    /// Hedera knobs (used when `scheduler` is Hedera).
    pub hedera: HederaConfig,
    /// Wildcard TCAM capacity per switch.
    pub tcam_capacity: usize,
    /// NetFlow probe sampling period.
    pub probe_period: SimDuration,
    /// Controller link-load update period.
    pub link_load_period: SimDuration,
    /// Scheduled trunk-cable faults (fault-tolerance experiments; §IV's
    /// "the routing graph is updated at the event of link or switch
    /// failure").
    pub link_faults: Vec<LinkFault>,
    /// Scheduled SDN-controller outages (chaos experiments).
    pub controller_outages: Vec<ControllerOutage>,
    /// Instants at which every instrumentation middleware restarts and
    /// replays the spill indices still on disk (exercises end-to-end
    /// idempotent delivery).
    pub agent_respill_at: Vec<SimDuration>,
    /// Flight-recorder configuration. Disabled by default — the recorder
    /// then costs one branch per instrumentation site.
    pub trace: TraceConfig,
    /// Master seed: drives task jitter, ECMP hash salt, install latencies,
    /// wire-overhead sampling.
    pub seed: u64,
    /// Watchdog: abort if simulated time exceeds this.
    pub max_sim_time: SimDuration,
    /// Watchdog: abort if event count exceeds this.
    pub max_events: u64,
    /// Read by nothing: every run uses the relaxed-order rate solver (lazy
    /// byte integration, component-parallel fair-share solves, deferred
    /// recomputes). Kept, always `true`, for callers that still read it.
    #[deprecated(note = "every run uses the relaxed-order solver; drop the read")]
    pub relaxed_order: bool,
    /// Solve rates in every round that mutated the network instead of
    /// deferring within the budget ([`pythia_netsim::Deferral`]). Slower;
    /// it is the reference the deferral's published completion envelope
    /// is measured against (`tests/relaxed_tolerance.rs`).
    pub eager_solves: bool,
    /// Worker threads for component-parallel solves. 0 = auto (available
    /// parallelism, capped at 8). Results do not depend on the worker
    /// count, so auto reproduces across machines:
    /// `tests/relaxed_tolerance.rs` pins one fingerprint for 1, 2 and 4
    /// workers.
    pub solver_workers: usize,
    /// Shard Pythia's placement per pod: one collector aggregates every
    /// prediction, and each pair is placed by the allocator of its
    /// source's pod shard (pod-sized plans). `1` (the default) is the
    /// paper's single allocator.
    pub collector_shards: usize,
    /// Batch Pythia rule installs per pod per epoch: placements buffer
    /// and one batched install per pod goes to the switches each epoch,
    /// instead of a per-prediction install stream. `None` (the default)
    /// keeps per-prediction installs.
    pub install_epoch: Option<SimDuration>,
}

impl Default for ScenarioConfig {
    #[allow(deprecated)] // `relaxed_order` stays initialized for its readers.
    fn default() -> Self {
        ScenarioConfig {
            topology: TopologySpec::default(),
            oversubscription: OverSubscription::NONE,
            background: BackgroundProfile::default(),
            scheduler: SchedulerKind::Ecmp,
            hadoop: HadoopConfig::default(),
            pythia: PythiaConfig::default(),
            controller: ControllerConfig::default(),
            hedera: HederaConfig::default(),
            tcam_capacity: 2000,
            probe_period: SimDuration::from_millis(500),
            link_load_period: SimDuration::from_secs(1),
            link_faults: Vec::new(),
            controller_outages: Vec::new(),
            agent_respill_at: Vec::new(),
            trace: TraceConfig::disabled(),
            seed: 1,
            max_sim_time: SimDuration::from_secs(24 * 3600),
            max_events: 50_000_000,
            relaxed_order: true,
            eager_solves: false,
            solver_workers: 0,
            collector_shards: 1,
            install_epoch: None,
        }
    }
}

impl ScenarioConfig {
    /// Set the flow scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Does nothing: every job is built at its `JobStart` and retired at
    /// completion, so there is no other mode to select.
    #[deprecated(note = "jobs always stream; drop the call")]
    pub fn with_stream_jobs(self, _on: bool) -> Self {
        self
    }

    /// Shard Pythia's placement per pod (`1` = the paper's single
    /// allocator); see [`ScenarioConfig::collector_shards`].
    pub fn with_collector_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one placement shard");
        self.collector_shards = shards;
        self
    }

    /// Batch Pythia rule installs per pod on this epoch period.
    pub fn with_install_epoch(mut self, epoch: SimDuration) -> Self {
        assert!(epoch > SimDuration::ZERO, "install epoch must be positive");
        self.install_epoch = Some(epoch);
        self
    }

    /// Set the over-subscription ratio to 1:`n`.
    pub fn with_oversubscription(mut self, n: u32) -> Self {
        self.oversubscription = OverSubscription(n);
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the fabric (anything convertible into a [`TopologySpec`]:
    /// `MultiRackParams` or `FatTreeParams`).
    pub fn with_topology(mut self, spec: impl Into<TopologySpec>) -> Self {
        self.topology = spec.into();
        self
    }

    /// Set the flight-recorder configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Does nothing: every run uses the relaxed-order solver, so there is
    /// no other mode to select.
    #[deprecated(note = "every run uses the relaxed-order solver; drop the call")]
    pub fn with_relaxed_order(self, _on: bool) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = ScenarioConfig::default()
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(20)
            .with_seed(7)
            .with_trace(TraceConfig::enabled());
        assert_eq!(c.scheduler, SchedulerKind::Pythia);
        assert_eq!(c.oversubscription, OverSubscription(20));
        assert_eq!(c.seed, 7);
        assert!(c.trace.enabled);
        assert!(!ScenarioConfig::default().trace.enabled);
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::Ecmp.label(), "ecmp");
        assert_eq!(SchedulerKind::Pythia.label(), "pythia");
        assert_eq!(SchedulerKind::Hedera.label(), "hedera");
    }
}
