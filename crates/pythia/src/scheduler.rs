//! The Pythia system facade: instrumentation → collector → allocator →
//! controller, wired end to end.
//!
//! [`PythiaSystem`] is what the cluster engine talks to. The driving
//! contract (all methods are pure state transitions; the engine owns
//! simulated time):
//!
//! 1. Hadoop spills a map output → engine calls [`PythiaSystem::on_spill`]
//!    with the raw index-file bytes; gets back the prediction message and
//!    its management-network **delivery time**, and schedules it.
//! 2. At delivery time → [`PythiaSystem::on_prediction_delivered`]; Pythia
//!    aggregates, allocates paths for newly active server pairs, and
//!    returns the OpenFlow rules to program (each with its hardware
//!    install latency).
//! 3. A reducer launches → [`PythiaSystem::on_reducer_launched`]; parked
//!    predictions resolve, possibly producing more rules.
//! 4. A shuffle fetch completes → [`PythiaSystem::on_fetch_completed`];
//!    the pair's outstanding volume drains, freeing planned capacity.
//!
//! ## Placement shards
//!
//! One collector aggregates every prediction, as in the paper: its maps
//! are hash-keyed, so each message costs O(the state it names) however
//! large the fabric, and a map task re-executed in another pod retracts
//! its stale prediction like any other re-execution. Placement is split
//! into N ≥ 1 shards by *pod* (rack on leaf fabrics): server `s` belongs
//! to shard `pod(s) % N`, and each shard's allocator plans only the pairs
//! whose **source node** it owns, so its plan stays pod-sized. Every
//! demand, retraction and drain goes to the shard of its pair's source;
//! a pair's placement lifecycle (placement → stack → drain) therefore
//! stays in one shard.
//!
//! * **per source node** — demands, retractions and drains;
//! * **every shard in turn** — the re-placement sweep and the
//!   controller-restart resync;
//! * **system-wide** — the collector, the per-server instrumentation, the
//!   background residual table (background load is fabric state every
//!   shard reads), controller reachability and the run statistics.
//!
//! Placements made by one shard are not visible in another's allocator
//! plan — the trade-off a per-pod controller deployment would make. With
//! one shard it vanishes: the system is the paper's single allocator.

use std::collections::BTreeMap;

use pythia_des::{SimDuration, SimTime};
use pythia_hadoop::{JobId, MapTaskId, ReducerId, ServerId};
use pythia_netsim::{CumulativeCurve, LinkId, NodeId, Path, Topology};
use pythia_openflow::{Controller, FlowMatch, PendingRule};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};
use pythia_trace::{AllocOutcome, Component, Trace, TraceEvent};

use crate::allocator::{FlowAllocator, Placement};
use crate::collector::{AggregatedDemand, Collector};
use crate::instrument::{Instrumentation, PredictionMsg};
use crate::mgmtnet::MgmtNetConfig;
use crate::residual::ResidualTable;

/// Granularity at which predicted transfers are aggregated and rules are
/// installed (§IV: "large-scale future SDN network setups may force
/// routing at the level of server aggregations, e.g. racks or sets of
/// racks-PODs. Pythia can easily respond to such a requirement by
/// populating the flow aggregation module with server location-awareness
/// and an appropriate aggregation policy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationPolicy {
    /// One aggregate (and one path decision) per mapper-server →
    /// reducer-server pair — the paper's deployed configuration.
    ServerPair,
    /// One path decision per rack pair: all server pairs between two
    /// racks ride the same trunk. Conserves forwarding state (in hardware
    /// this is a pair of IP-prefix rules per ToR) at the cost of
    /// load-balancing freedom.
    RackPair,
}

/// How the allocator weighs transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationMode {
    /// Full Pythia: size-aware first-fit-decreasing, where heavier pairs
    /// (the barrier-critical ones) get the better placements.
    SizeAware,
    /// FlowComb-like (§VI): uses the *existence* of predicted transfers
    /// but "does not leverage application intelligence except from
    /// predicted flow volumes"'s criticality — modelled by erasing the
    /// volume signal: every demand is placed as if it were the same size.
    SizeBlind,
}

/// Pythia tunables.
#[derive(Debug, Clone)]
pub struct PythiaConfig {
    /// One-way latency of a prediction message over the management
    /// network (server → collector → allocation logic). The paper keeps
    /// all Pythia control traffic off the data network (§III).
    pub mgmt_latency: SimDuration,
    /// OpenFlow priority of installed shuffle rules (above the default
    /// ECMP behaviour, below nothing else we install).
    pub rule_priority: u16,
    /// Aggregation granularity for path decisions.
    pub aggregation: AggregationPolicy,
    /// Size-aware (Pythia) vs size-blind (FlowComb-like) placement.
    pub allocation: AllocationMode,
    /// Fault model of the management network (default: ideal channel —
    /// no loss, duplication, or jitter).
    pub mgmtnet: MgmtNetConfig,
    /// Expire parked (unknown-reducer) prediction entries older than
    /// this. `None` (default) keeps them forever — correct when the
    /// management network is ideal and every reducer launches.
    pub parked_ttl: Option<SimDuration>,
}

impl Default for PythiaConfig {
    fn default() -> Self {
        PythiaConfig {
            mgmt_latency: SimDuration::from_millis(1),
            rule_priority: 100,
            aggregation: AggregationPolicy::ServerPair,
            allocation: AllocationMode::SizeAware,
            mgmtnet: MgmtNetConfig::default(),
            parked_ttl: None,
        }
    }
}

/// Aggregate statistics for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PythiaStats {
    /// Prediction messages emitted by the instrumentation.
    pub predictions_sent: u64,
    /// Aggregated server-pair demand increments processed.
    pub demands_aggregated: u64,
    /// Path (re)assignments made by the allocator.
    pub paths_assigned: u64,
    /// OpenFlow rules issued to the controller.
    pub rules_issued: u64,
    /// Placements made while the controller was down — the pair runs on
    /// default ECMP until the restart resync installs its rules.
    pub demands_deferred: u64,
    /// Rules re-issued by controller-restart resyncs.
    pub rules_reinstalled: u64,
    /// Controller restart resyncs performed.
    pub controller_resyncs: u64,
    /// Placement requests with no candidate path (degraded fabric) —
    /// the pair rides default ECMP instead of a pinned route.
    pub demands_no_path: u64,
}

impl Persist for PythiaStats {
    fn put(&self, w: &mut SectionWriter) {
        self.predictions_sent.put(w);
        self.demands_aggregated.put(w);
        self.paths_assigned.put(w);
        self.rules_issued.put(w);
        self.demands_deferred.put(w);
        self.rules_reinstalled.put(w);
        self.controller_resyncs.put(w);
        self.demands_no_path.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(PythiaStats {
            predictions_sent: u64::get(r)?,
            demands_aggregated: u64::get(r)?,
            paths_assigned: u64::get(r)?,
            rules_issued: u64::get(r)?,
            demands_deferred: u64::get(r)?,
            rules_reinstalled: u64::get(r)?,
            controller_resyncs: u64::get(r)?,
            demands_no_path: u64::get(r)?,
        })
    }
}

/// Collector degradation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorTotals {
    /// Duplicate prediction deliveries dropped.
    pub duplicates_dropped: u64,
    /// Map re-execution retractions applied.
    pub retractions: u64,
    /// Malformed prediction payloads dropped.
    pub malformed_dropped: u64,
    /// Parked predictions expired by the TTL sweep.
    pub parked_expired: u64,
}

/// One placement shard: the allocator plan for the pairs whose source
/// node lives in the shard's pods.
struct Shard {
    allocator: FlowAllocator,
    /// Rack-aggregation state: per rack pair, the pinned inter-switch
    /// trunk link and how many active server pairs ride it.
    rack_trunk: BTreeMap<(u32, u32), (LinkId, u64)>,
    /// Server pairs currently counted against a rack pin.
    rack_counted: BTreeMap<(NodeId, NodeId), (u32, u32)>,
}

impl Shard {
    fn new(cfg: &PythiaConfig) -> Shard {
        let allocator = match cfg.allocation {
            AllocationMode::SizeAware => FlowAllocator::new(),
            AllocationMode::SizeBlind => FlowAllocator::new_size_blind(),
        };
        Shard {
            allocator,
            rack_trunk: BTreeMap::new(),
            rack_counted: BTreeMap::new(),
        }
    }

    /// Drain `bytes` of predicted volume from `pair`, releasing its rack
    /// pin (RackPair aggregation) once nothing is outstanding.
    fn drain(&mut self, pair: (NodeId, NodeId), bytes: u64, aggregation: AggregationPolicy) {
        self.allocator.drain(pair, bytes);
        if aggregation != AggregationPolicy::RackPair || self.allocator.outstanding(pair) > 0 {
            return;
        }
        if let Some(key) = self.rack_counted.remove(&pair) {
            if let Some(entry) = self.rack_trunk.get_mut(&key) {
                entry.1 = entry.1.saturating_sub(1);
                if entry.1 == 0 {
                    self.rack_trunk.remove(&key);
                }
            }
        }
    }

    /// Record that `pair` rides `path`'s inter-switch trunk for its rack
    /// pair.
    fn pin_rack(
        &mut self,
        rack_key: Option<(u32, u32)>,
        pair: (NodeId, NodeId),
        path: &Path,
        topo: &Topology,
    ) {
        let Some(key) = rack_key else { return };
        // The trunk is the link whose endpoints are both switches.
        let trunk = path.links().iter().copied().find(|&l| {
            let link = topo.link(l);
            !topo.node(link.src).is_server() && !topo.node(link.dst).is_server()
        });
        let Some(trunk) = trunk else { return }; // intra-rack path
        let entry = self.rack_trunk.entry(key).or_insert((trunk, 0));
        entry.0 = trunk;
        entry.1 += 1;
        self.rack_counted.insert(pair, key);
    }

    fn put_state(&self, w: &mut SectionWriter) {
        self.allocator.put_state(w);
        self.rack_trunk.put(w);
        self.rack_counted.put(w);
    }

    fn restore_state(
        &mut self,
        topo: &Topology,
        r: &mut SectionReader,
    ) -> Result<(), SnapshotError> {
        self.allocator.restore_state(topo, r)?;
        let rack_trunk = <BTreeMap<(u32, u32), (LinkId, u64)> as Persist>::get(r)?;
        for &(link, count) in rack_trunk.values() {
            if link.0 as usize >= topo.num_links() {
                return Err(r.malformed(format!("rack trunk {link} out of range")));
            }
            if count == 0 {
                return Err(r.malformed("rack trunk pinned with zero riders"));
            }
        }
        let rack_counted = <BTreeMap<(NodeId, NodeId), (u32, u32)> as Persist>::get(r)?;
        for key in rack_counted.values() {
            if !rack_trunk.contains_key(key) {
                return Err(r.malformed("server pair counted against an unpinned rack pair"));
            }
        }
        self.rack_trunk = rack_trunk;
        self.rack_counted = rack_counted;
        Ok(())
    }
}

/// The complete Pythia deployment over one cluster: one instrumentation
/// agent per server, one collector and N ≥ 1 placement shards (see the
/// module docs).
pub struct PythiaSystem {
    cfg: PythiaConfig,
    instruments: Vec<Instrumentation>,
    /// `shard_of_node[n]` — placement shard of network node `n` (0 for
    /// nodes that host no server).
    shard_of_node: Vec<u32>,
    collector: Collector,
    shards: Vec<Shard>,
    /// Whether the SDN controller is reachable. While down, placements
    /// are still decided (the collector/allocator live with Pythia, not
    /// the controller) but no rules can be installed — new aggregated
    /// flows ride default ECMP until the restart resync.
    controller_up: bool,
    /// Per-link background/residual capacity, updated incrementally by
    /// [`PythiaSystem::set_background`] so path scoring is O(1) per link.
    residuals: ResidualTable,
    /// Scratch: active pairs snapshot for the periodic reassignment
    /// sweep. Reused so the steady-state control loop does not allocate.
    active_scratch: Vec<(NodeId, NodeId)>,
    /// Scratch: per-candidate residual bandwidths, parallel to the
    /// controller's memoized path slice.
    resid_scratch: Vec<f64>,
    /// Scratch: candidate paths narrowed to a pinned rack trunk
    /// (RackPair aggregation only).
    pin_paths: Vec<Path>,
    /// Scratch: residuals parallel to `pin_paths`.
    pin_resids: Vec<f64>,
    /// Flight-recorder handle (off by default).
    trace: Trace,
    stats: PythiaStats,
}

impl PythiaSystem {
    /// `server_nodes[i]` is the network node hosting Hadoop server `i`
    /// and `pod_of_server[i]` its pod (or rack); server `i` belongs to
    /// placement shard `pod_of_server[i] % num_shards`. `topo` is the
    /// (nominal) fabric the residual table is sized from.
    pub fn new(
        cfg: PythiaConfig,
        topo: &Topology,
        server_nodes: Vec<NodeId>,
        pod_of_server: Vec<u32>,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "at least one placement shard");
        assert_eq!(
            pod_of_server.len(),
            server_nodes.len(),
            "one pod id per server"
        );
        let instruments = (0..server_nodes.len() as u32)
            .map(|i| Instrumentation::new(ServerId(i)))
            .collect();
        let mut shard_of_node = vec![0; topo.num_nodes()];
        for (&node, &pod) in server_nodes.iter().zip(&pod_of_server) {
            shard_of_node[node.0 as usize] = pod % num_shards as u32;
        }
        let shards = (0..num_shards).map(|_| Shard::new(&cfg)).collect();
        PythiaSystem {
            cfg,
            instruments,
            shard_of_node,
            collector: Collector::new(server_nodes),
            shards,
            controller_up: true,
            residuals: ResidualTable::new(topo),
            active_scratch: Vec::new(),
            resid_scratch: Vec::new(),
            pin_paths: Vec::new(),
            pin_resids: Vec::new(),
            trace: Trace::off(),
            stats: PythiaStats::default(),
        }
    }

    /// Attach a flight-recorder handle (the engine hands out clones of
    /// its per-run recorder).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Number of placement shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard placing the pairs whose source is network node `node`.
    fn shard_of_node(&self, node: NodeId) -> usize {
        self.shard_of_node[node.0 as usize] as usize
    }

    /// The link-load service reported `link` carrying `bps` of
    /// **non-shuffle** load (Pythia differentiates its own traffic from
    /// background using application knowledge, §IV). Updates the link's
    /// residual in O(1).
    pub fn set_background(&mut self, link: LinkId, bps: f64) {
        self.residuals.set_background(link, bps);
    }

    /// Bulk background refresh (`loads[l]` per link id) — one O(links)
    /// pass, after which every path score is table lookups.
    pub fn set_background_from(&mut self, loads: &[f64]) {
        self.residuals.set_background_from(loads);
    }

    /// Instrumentation hook: the spill index for `map` appeared on
    /// `server`. Returns the prediction and the time it reaches the
    /// collector. Corrupt index files are dropped (and would be logged in
    /// a real deployment) — prediction is best-effort, Hadoop is not.
    pub fn on_spill(
        &mut self,
        now: SimTime,
        job: JobId,
        map: MapTaskId,
        server: ServerId,
        data: &[u8],
    ) -> Option<(PredictionMsg, SimTime)> {
        let inst = &mut self.instruments[server.0 as usize];
        match inst.on_spill(now, job, map, data) {
            Ok(msg) => {
                self.stats.predictions_sent += 1;
                let deliver_at = now + self.cfg.mgmt_latency;
                self.trace
                    .record(Component::Instrument, || TraceEvent::SpillDecode {
                        job,
                        map,
                        server,
                        predicted_bytes: msg.total_bytes(),
                    });
                self.trace
                    .record(Component::Instrument, || TraceEvent::PredictionEmit {
                        job,
                        map,
                        server,
                        deliver_at,
                    });
                Some((msg, deliver_at))
            }
            Err(_) => {
                self.trace
                    .record(Component::Collector, || TraceEvent::PredictionDrop {
                        reason: "corrupt-index",
                    });
                None
            }
        }
    }

    /// The collector received a prediction; its demands are placed by
    /// the shard of the message's source server. Background load is read
    /// from the residual table — push updates via
    /// [`PythiaSystem::set_background`] before delivering.
    pub fn on_prediction_delivered(
        &mut self,
        now: SimTime,
        msg: &PredictionMsg,
        controller: &mut Controller,
    ) -> Vec<PendingRule> {
        let collector = &mut self.collector;
        // Counter snapshots let the recorder classify what the collector
        // did with this delivery without touching its internals.
        let snap = self.trace.is_enabled().then(|| {
            (
                collector.duplicates_dropped,
                collector.malformed_dropped,
                collector.parked(),
            )
        });
        let outcome = collector.on_prediction(now, msg);
        if let Some((dups, malformed, parked)) = snap {
            if collector.duplicates_dropped > dups {
                self.trace
                    .record(Component::Collector, || TraceEvent::PredictionDedup {
                        job: msg.job,
                        map: msg.map,
                    });
            }
            if collector.malformed_dropped > malformed {
                self.trace
                    .record(Component::Collector, || TraceEvent::PredictionDrop {
                        reason: "malformed",
                    });
            }
            if !outcome.retracted.is_empty() {
                self.trace
                    .record(Component::Collector, || TraceEvent::PredictionRetract {
                        job: msg.job,
                        map: msg.map,
                        withdrawn: outcome.retracted.len() as u32,
                    });
            }
            let parked_now = collector.parked();
            if parked_now > parked {
                self.trace
                    .record(Component::Collector, || TraceEvent::CollectorPark {
                        job: msg.job,
                        map: msg.map,
                        entries: (parked_now - parked) as u32,
                    });
            }
        }
        // A re-executed map retracts its stale volumes, in the shard of
        // the pod it ran in before, ahead of placing the new prediction.
        for &(pair, bytes) in &outcome.retracted {
            self.drain(pair, bytes);
        }
        let mut rules = Vec::new();
        self.handle_demands(&outcome.demands, controller, &mut rules);
        rules
    }

    /// Drain `bytes` of predicted volume from `pair` in its source's
    /// shard.
    fn drain(&mut self, pair: (NodeId, NodeId), bytes: u64) {
        let s = self.shard_of_node(pair.0);
        self.shards[s].drain(pair, bytes, self.cfg.aggregation);
    }

    /// A reducer launched: resolve its parked predictions (a job's maps
    /// span pods, so the demands go to several shards). Rule batches
    /// concatenate in shard order.
    pub fn on_reducer_launched(
        &mut self,
        now: SimTime,
        job: JobId,
        reducer: ReducerId,
        server: ServerId,
        controller: &mut Controller,
    ) -> Vec<PendingRule> {
        let collector = &mut self.collector;
        let parked_before = self.trace.is_enabled().then(|| collector.parked());
        let demands = collector.on_reducer_location(now, job, reducer, server);
        if let Some(before) = parked_before {
            let released = before.saturating_sub(collector.parked());
            if released > 0 {
                self.trace
                    .record(Component::Collector, || TraceEvent::CollectorUnpark {
                        job,
                        reducer,
                        entries: released as u32,
                    });
            }
        }
        let mut rules = Vec::new();
        self.handle_demands(&demands, controller, &mut rules);
        rules
    }

    /// Network conditions changed (the link-load service reports a shifted
    /// background distribution): re-evaluate every active pair and move
    /// the ones whose path went bad. Returns the rules to (re)install.
    pub fn on_background_update(
        &mut self,
        now: SimTime,
        controller: &mut Controller,
    ) -> Vec<PendingRule> {
        let _ = now;
        if !self.controller_up {
            // No controller: no link-load service, no rule installs. The
            // restart resync re-evaluates everything.
            return Vec::new();
        }
        let mut rules = Vec::new();
        // Candidate paths are borrowed straight from the controller's
        // memoized k-shortest sets; only residuals are recomputed, into a
        // reused scratch buffer. The allocator clones a path only when a
        // pair actually moves.
        let mut pairs = std::mem::take(&mut self.active_scratch);
        let paths_epoch = controller.paths_epoch();
        for shard in &mut self.shards {
            shard.allocator.active_pairs_into(&mut pairs);
            for &pair in &pairs {
                let paths = controller.paths(pair.0, pair.1);
                self.resid_scratch.clear();
                for p in paths {
                    self.resid_scratch.push(self.residuals.path_residual_bps(p));
                }
                // 1.5× hysteresis: move only for a clear win. The
                // epoch-keyed entry point reuses the pair's memoized
                // candidate geometry across sweeps (the path sets are
                // stable between topology events, so the memo hits on
                // every sweep after the first).
                if let Some(path) = shard.allocator.reassign_epoch(
                    pair,
                    paths,
                    &self.resid_scratch,
                    1.5,
                    paths_epoch,
                ) {
                    self.stats.paths_assigned += 1;
                    let matcher = FlowMatch::server_pair(pair.0, pair.1);
                    let pending = controller.install_path(matcher, &path, self.cfg.rule_priority);
                    self.stats.rules_issued += pending.len() as u64;
                    rules.extend(pending);
                }
            }
        }
        self.active_scratch = pairs;
        rules
    }

    /// A shuffle fetch completed: drain the pair's predicted volume in
    /// its source's shard.
    pub fn on_fetch_completed(
        &mut self,
        job: JobId,
        map: MapTaskId,
        reducer: ReducerId,
        src: ServerId,
        dst: ServerId,
    ) {
        if let Some((pair, bytes)) = self
            .collector
            .on_fetch_completed(job, map, reducer, src, dst)
        {
            self.drain(pair, bytes);
        }
    }

    /// The SDN controller crashed: stop issuing rules. Placement state is
    /// kept — Pythia's collector/allocator run beside Hadoop, not inside
    /// the controller — so the restart resync can re-derive every rule.
    pub fn set_controller_down(&mut self) {
        self.controller_up = false;
    }

    /// Whether rule installation is currently possible.
    pub fn controller_is_up(&self) -> bool {
        self.controller_up
    }

    /// The controller restarted. Re-derive the full rule set from
    /// collector/allocator state, shard by shard: re-place pairs that
    /// still carry predicted volume but lost their assignment, then
    /// reinstall rules for every active pair (flow-table replace
    /// semantics make the reinstalls idempotent on switches that kept
    /// their TCAM).
    pub fn on_controller_restart(
        &mut self,
        now: SimTime,
        controller: &mut Controller,
    ) -> Vec<PendingRule> {
        let _ = now;
        self.controller_up = true;
        self.stats.controller_resyncs += 1;
        let mut rules = Vec::new();
        let outstanding = self.collector.outstanding_pairs();
        let mut pairs = std::mem::take(&mut self.active_scratch);
        for s in 0..self.shards.len() {
            let allocator = &self.shards[s].allocator;
            // Pairs the collector predicts but the allocator never placed
            // (NoPath during the outage, e.g. a concurrent link failure).
            let unplaced: Vec<AggregatedDemand> = outstanding
                .iter()
                .filter(|&&(pair, _)| {
                    self.shard_of_node(pair.0) == s && allocator.assigned_path(pair).is_none()
                })
                .map(|&((src, dst), bytes)| AggregatedDemand {
                    src,
                    dst,
                    added_bytes: bytes,
                })
                .collect();
            self.handle_demands(&unplaced, controller, &mut rules);
            let allocator = &self.shards[s].allocator;
            allocator.active_pairs_into(&mut pairs);
            for &pair in &pairs {
                if let Some(path) = allocator.assigned_path(pair) {
                    let matcher = FlowMatch::server_pair(pair.0, pair.1);
                    let pending = controller.install_path(matcher, path, self.cfg.rule_priority);
                    self.stats.rules_issued += pending.len() as u64;
                    self.stats.rules_reinstalled += pending.len() as u64;
                    rules.extend(pending);
                }
            }
        }
        self.active_scratch = pairs;
        rules
    }

    /// TTL sweep over parked predictions (no-op unless
    /// [`PythiaConfig::parked_ttl`] is set). Returns entries expired.
    pub fn expire_parked(&mut self, now: SimTime) -> usize {
        match self.cfg.parked_ttl {
            Some(ttl) => self.collector.expire_parked(now, ttl),
            None => 0,
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> PythiaStats {
        self.stats
    }

    /// Collector degradation counters.
    pub fn collector_totals(&self) -> CollectorTotals {
        let c = &self.collector;
        CollectorTotals {
            duplicates_dropped: c.duplicates_dropped,
            retractions: c.retractions,
            malformed_dropped: c.malformed_dropped,
            parked_expired: c.parked_expired,
        }
    }

    /// Serialize every stateful sub-component: per-server middleware
    /// counters, the collector, each shard's allocator plan and rack
    /// pins, controller reachability, the residual table, and the run
    /// stats. The config, the pod map and the trace handle are scenario
    /// wiring, not state.
    pub fn put_state(&self, w: &mut SectionWriter) {
        (self.instruments.len() as u64).put(w);
        for inst in &self.instruments {
            inst.put_state(w);
        }
        self.collector.put_state(w);
        (self.shards.len() as u64).put(w);
        for shard in &self.shards {
            shard.put_state(w);
        }
        self.controller_up.put(w);
        self.residuals.put_state(w);
        self.stats.put(w);
    }

    /// Restore onto a freshly constructed system for the same scenario
    /// (same config, topology, server map and shard count — mismatches
    /// surface as typed errors).
    pub fn restore_state(
        &mut self,
        topo: &Topology,
        r: &mut SectionReader,
    ) -> Result<(), SnapshotError> {
        let n = u64::get(r)? as usize;
        if n != self.instruments.len() {
            return Err(r.malformed(format!(
                "snapshot has {n} instrumented servers, scenario has {}",
                self.instruments.len()
            )));
        }
        for inst in &mut self.instruments {
            inst.restore_state(r)?;
        }
        self.collector.restore_state(r)?;
        let n = u64::get(r)? as usize;
        if n != self.shards.len() {
            return Err(r.malformed(format!(
                "snapshot has {n} placement shards, scenario has {}",
                self.shards.len()
            )));
        }
        for shard in &mut self.shards {
            shard.restore_state(topo, r)?;
        }
        self.controller_up = bool::get(r)?;
        self.residuals.restore_state(r)?;
        self.stats = PythiaStats::get(r)?;
        self.active_scratch.clear();
        self.resid_scratch.clear();
        self.pin_paths.clear();
        self.pin_resids.clear();
        Ok(())
    }

    /// Place each of `demands` with its source's shard, appending the
    /// rules to install to `rules`: shard by shard, and within a shard
    /// largest demand first.
    fn handle_demands(
        &mut self,
        demands: &[AggregatedDemand],
        controller: &mut Controller,
        rules: &mut Vec<PendingRule>,
    ) {
        let _span = self.trace.span("first_fit_place");
        for d in demands {
            self.trace
                .record(Component::Collector, || TraceEvent::CollectorAggregate {
                    src: d.src,
                    dst: d.dst,
                    added_bytes: d.added_bytes,
                });
        }
        // Largest demand first within a shard: first-fit-decreasing.
        let mut sorted: Vec<(usize, &AggregatedDemand)> = demands
            .iter()
            .map(|d| (self.shard_of_node(d.src), d))
            .collect();
        sorted.sort_by(|(sa, a), (sb, b)| {
            sa.cmp(sb)
                .then_with(|| b.added_bytes.cmp(&a.added_bytes))
                .then_with(|| (a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        let paths_epoch = controller.paths_epoch();
        let rack_pair = self.cfg.aggregation == AggregationPolicy::RackPair;
        for (s, d) in sorted {
            let shard = &mut self.shards[s];
            self.stats.demands_aggregated += 1;
            // Fast path: the overwhelming majority of demands stack onto
            // a pair that already holds an assignment with outstanding
            // volume. The allocator absorbs those with mutations
            // bit-identical to the Keep branch of a full placement, so
            // the candidate-path lookup and per-path residual scan are
            // skipped entirely.
            if shard.allocator.stack_demand((d.src, d.dst), d.added_bytes) {
                self.trace
                    .record(Component::Allocator, || TraceEvent::AllocPlace {
                        src: d.src,
                        dst: d.dst,
                        bytes: d.added_bytes,
                        outcome: AllocOutcome::Keep,
                        links: Vec::new(),
                        resid_bps: 0.0,
                    });
                continue;
            }
            let rack_key = rack_key(controller.topology(), d.src, d.dst);
            let all = controller.paths(d.src, d.dst);
            self.resid_scratch.clear();
            for p in all {
                self.resid_scratch.push(self.residuals.path_residual_bps(p));
            }
            let placement = if rack_pair {
                // Rack aggregation: once a trunk is pinned for this rack
                // pair, every further server pair between the racks must
                // follow it. Only that (narrowing) case copies candidates;
                // otherwise they are borrowed from the controller's
                // memoized set.
                let mut paths: &[Path] = all;
                let mut resids: &[f64] = &self.resid_scratch;
                if let Some(&(trunk, _)) = rack_key.and_then(|k| shard.rack_trunk.get(&k)) {
                    self.pin_paths.clear();
                    self.pin_resids.clear();
                    for (p, &r) in all.iter().zip(resids) {
                        if p.contains_link(trunk) {
                            self.pin_paths.push(p.clone());
                            self.pin_resids.push(r);
                        }
                    }
                    if !self.pin_paths.is_empty() {
                        paths = &self.pin_paths;
                        resids = &self.pin_resids;
                    }
                }
                shard
                    .allocator
                    .place((d.src, d.dst), d.added_bytes, paths, resids)
            } else {
                // ServerPair aggregation (the deployed configuration)
                // hands the controller's path epoch to the allocator so it
                // can reuse the pair's memoized candidate geometry —
                // bit-identical to a fresh scan while the epoch holds.
                shard.allocator.place_epoch(
                    (d.src, d.dst),
                    d.added_bytes,
                    all,
                    &self.resid_scratch,
                    paths_epoch,
                )
            };
            match placement {
                Placement::Assign(path) => {
                    self.stats.paths_assigned += 1;
                    if self.trace.wants(Component::Allocator) {
                        let resid_bps = self.residuals.path_residual_bps(&path);
                        self.trace
                            .record(Component::Allocator, || TraceEvent::AllocPlace {
                                src: d.src,
                                dst: d.dst,
                                bytes: d.added_bytes,
                                outcome: AllocOutcome::Assign,
                                links: path.links().to_vec(),
                                resid_bps,
                            });
                    }
                    if rack_pair {
                        shard.pin_rack(rack_key, (d.src, d.dst), &path, controller.topology());
                    }
                    if self.controller_up {
                        let matcher = FlowMatch::server_pair(d.src, d.dst);
                        let pending =
                            controller.install_path(matcher, &path, self.cfg.rule_priority);
                        self.stats.rules_issued += pending.len() as u64;
                        rules.extend(pending);
                    } else {
                        // Controller outage: the placement is remembered
                        // but the pair degrades to default ECMP until the
                        // restart resync installs its rules.
                        self.stats.demands_deferred += 1;
                    }
                }
                Placement::Keep => {
                    self.trace
                        .record(Component::Allocator, || TraceEvent::AllocPlace {
                            src: d.src,
                            dst: d.dst,
                            bytes: d.added_bytes,
                            outcome: AllocOutcome::Keep,
                            links: Vec::new(),
                            resid_bps: 0.0,
                        });
                }
                Placement::NoPath => {
                    // Degraded fabric: no candidate path. The pair keeps
                    // riding default ECMP; count it instead of panicking
                    // anywhere downstream.
                    self.stats.demands_no_path += 1;
                    self.trace
                        .record(Component::Allocator, || TraceEvent::AllocPlace {
                            src: d.src,
                            dst: d.dst,
                            bytes: d.added_bytes,
                            outcome: AllocOutcome::NoPath,
                            links: Vec::new(),
                            resid_bps: 0.0,
                        });
                }
            }
        }
    }

    /// Predicted cumulative remote-traffic curve of server `server`
    /// (Figure 5's prediction side).
    pub fn predicted_curve(&self, server: ServerId) -> Option<&CumulativeCurve> {
        let c = &self.collector;
        c.predicted_curve(c.node_of(server).ok()?)
    }

    /// Outstanding predicted bytes on a server pair.
    pub fn outstanding(&self, src: NodeId, dst: NodeId) -> u64 {
        self.collector.outstanding(src, dst)
    }

    /// Parked (unknown-reducer) prediction entries.
    pub fn parked_predictions(&self) -> usize {
        self.collector.parked()
    }

    /// Per-server spill-decode counts, for the §V-C overhead model.
    pub fn spills_decoded(&self, server: ServerId) -> u64 {
        self.instruments[server.0 as usize].spills_decoded
    }
}

/// The rack pair of a server pair, if both ends have rack labels.
fn rack_key(topo: &Topology, src: NodeId, dst: NodeId) -> Option<(u32, u32)> {
    Some((topo.node(src).rack()?, topo.node(dst).rack()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_des::RngFactory;
    use pythia_hadoop::IndexFile;
    use pythia_netsim::{build_multi_rack, MultiRack, MultiRackParams};
    use pythia_openflow::ControllerConfig;

    /// One placement shard over `servers`.
    fn single(cfg: PythiaConfig, mr: &MultiRack, servers: &[NodeId]) -> PythiaSystem {
        PythiaSystem::new(
            cfg,
            &mr.topology,
            servers.to_vec(),
            vec![0; servers.len()],
            1,
        )
    }

    /// `n` shards over the default multi-rack, one pod per rack.
    fn sharded(mr: &MultiRack, n: usize) -> PythiaSystem {
        let pods = mr
            .servers
            .iter()
            .map(|&s| mr.topology.node(s).rack().unwrap_or(0))
            .collect();
        PythiaSystem::new(
            PythiaConfig::default(),
            &mr.topology,
            mr.servers.clone(),
            pods,
            n,
        )
    }

    fn setup() -> (MultiRack, Controller, PythiaSystem) {
        let mr = build_multi_rack(&MultiRackParams::default());
        let controller = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(3),
        );
        let pythia = single(PythiaConfig::default(), &mr, &mr.servers);
        (mr, controller, pythia)
    }

    #[test]
    fn spill_to_rules_end_to_end() {
        let (mr, mut ctl, mut py) = setup();
        // Reducer 0 lives on server 5 (other rack from server 0).
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        let index = IndexFile::from_partition_sizes(&[50_000_000], 1.0);
        let (msg, deliver_at) = py
            .on_spill(
                SimTime::from_secs(10),
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        assert_eq!(
            deliver_at,
            SimTime::from_secs(10) + SimDuration::from_millis(1)
        );
        let rules = py.on_prediction_delivered(deliver_at, &msg, &mut ctl);
        // Cross-rack path: rules at both ToRs.
        assert_eq!(rules.len(), 2);
        for r in &rules {
            assert_eq!(
                r.rule.matcher,
                FlowMatch::server_pair(mr.servers[0], mr.servers[5])
            );
            assert_eq!(r.rule.priority, 100);
        }
        assert!(py.outstanding(mr.servers[0], mr.servers[5]) > 50_000_000);
    }

    #[test]
    fn unknown_reducer_defers_rules_until_launch() {
        let (mr, mut ctl, mut py) = setup();
        let index = IndexFile::from_partition_sizes(&[50_000_000], 1.0);
        let (msg, at) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        let rules = py.on_prediction_delivered(at, &msg, &mut ctl);
        assert!(rules.is_empty());
        assert_eq!(py.parked_predictions(), 1);
        let rules2 = py.on_reducer_launched(
            SimTime::from_secs(1),
            JobId(0),
            ReducerId(0),
            ServerId(5),
            &mut ctl,
        );
        assert_eq!(rules2.len(), 2);
        assert_eq!(py.parked_predictions(), 0);
        let _ = mr;
    }

    #[test]
    fn local_pair_installs_nothing() {
        let (_mr, mut ctl, mut py) = setup();
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(0), &mut ctl);
        let index = IndexFile::from_partition_sizes(&[50_000_000], 1.0);
        let (msg, at) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        let rules = py.on_prediction_delivered(at, &msg, &mut ctl);
        assert!(rules.is_empty());
    }

    #[test]
    fn second_prediction_on_active_pair_reuses_path() {
        let (mr, mut ctl, mut py) = setup();
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        let index = IndexFile::from_partition_sizes(&[10_000_000], 1.0);
        let (m1, a1) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        let r1 = py.on_prediction_delivered(a1, &m1, &mut ctl);
        assert_eq!(r1.len(), 2);
        let (m2, a2) = py
            .on_spill(
                SimTime::from_secs(1),
                JobId(0),
                MapTaskId(1),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        let r2 = py.on_prediction_delivered(a2, &m2, &mut ctl);
        assert!(r2.is_empty(), "active pair must not churn rules");
        let _ = mr;
    }

    #[test]
    fn fetch_completion_drains_outstanding() {
        let (mr, mut ctl, mut py) = setup();
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        let index = IndexFile::from_partition_sizes(&[10_000_000], 1.0);
        let (m1, a1) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        py.on_prediction_delivered(a1, &m1, &mut ctl);
        let before = py.outstanding(mr.servers[0], mr.servers[5]);
        assert!(before > 0);
        py.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(0),
            ServerId(5),
        );
        assert_eq!(py.outstanding(mr.servers[0], mr.servers[5]), 0);
    }

    #[test]
    fn rack_aggregation_pins_all_pairs_to_one_trunk() {
        let (mr, mut ctl, _) = setup();
        let cfg = PythiaConfig {
            aggregation: AggregationPolicy::RackPair,
            ..Default::default()
        };
        let mut py = single(cfg, &mr, &mr.servers);
        // Reducers 0..3 on rack-1 servers 5..8.
        for r in 0..4u32 {
            py.on_reducer_launched(
                SimTime::ZERO,
                JobId(0),
                ReducerId(r),
                ServerId(5 + r),
                &mut ctl,
            );
        }
        // Spills from four rack-0 servers, all four reducers each.
        let index = IndexFile::from_partition_sizes(&[10_000_000; 4], 1.0);
        let mut trunks = std::collections::BTreeSet::new();
        for srv in 0..4u32 {
            let (msg, at) = py
                .on_spill(
                    SimTime::ZERO,
                    JobId(0),
                    MapTaskId(srv),
                    ServerId(srv),
                    &index.encode(),
                )
                .unwrap();
            for rule in py.on_prediction_delivered(at, &msg, &mut ctl) {
                if rule.switch == mr.tors[0] {
                    trunks.insert(rule.rule.out_link);
                }
            }
        }
        assert_eq!(
            trunks.len(),
            1,
            "rack aggregation must pin one trunk, got {trunks:?}"
        );
    }

    #[test]
    fn server_pair_aggregation_uses_both_trunks() {
        let (mr, mut ctl, mut py) = setup();
        for r in 0..4u32 {
            py.on_reducer_launched(
                SimTime::ZERO,
                JobId(0),
                ReducerId(r),
                ServerId(5 + r),
                &mut ctl,
            );
        }
        let index = IndexFile::from_partition_sizes(&[10_000_000; 4], 1.0);
        let mut trunks = std::collections::BTreeSet::new();
        for srv in 0..4u32 {
            let (msg, at) = py
                .on_spill(
                    SimTime::ZERO,
                    JobId(0),
                    MapTaskId(srv),
                    ServerId(srv),
                    &index.encode(),
                )
                .unwrap();
            for rule in py.on_prediction_delivered(at, &msg, &mut ctl) {
                if rule.switch == mr.tors[0] {
                    trunks.insert(rule.rule.out_link);
                }
            }
        }
        assert_eq!(trunks.len(), 2, "server-pair mode must balance trunks");
    }

    #[test]
    fn size_blind_mode_places_by_count_not_volume() {
        let (mr, mut ctl, _) = setup();
        let cfg = PythiaConfig {
            allocation: AllocationMode::SizeBlind,
            ..Default::default()
        };
        let mut py = single(cfg, &mr, &mr.servers);
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(1), ServerId(6), &mut ctl);
        // One huge transfer, then two tiny ones. Size-blind counts 1 pair
        // per trunk: the huge one lands alone on trunk A, tiny #1 on B,
        // tiny #2 back on A (count tie ...) — crucially it does NOT weigh
        // the huge transfer as heavier.
        let huge = IndexFile::from_partition_sizes(&[1_000_000_000, 0], 1.0);
        let tiny = IndexFile::from_partition_sizes(&[0, 1_000], 1.0);
        let (m1, a1) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &huge.encode(),
            )
            .unwrap();
        let r1 = py.on_prediction_delivered(a1, &m1, &mut ctl);
        let (m2, a2) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(1),
                ServerId(1),
                &tiny.encode(),
            )
            .unwrap();
        let r2 = py.on_prediction_delivered(a2, &m2, &mut ctl);
        // Both placements happen; the tiny pair takes the other trunk
        // despite the byte imbalance being irrelevant to it.
        let t1 = r1
            .iter()
            .find(|r| r.switch == mr.tors[0])
            .unwrap()
            .rule
            .out_link;
        let t2 = r2
            .iter()
            .find(|r| r.switch == mr.tors[0])
            .unwrap()
            .rule
            .out_link;
        assert_ne!(t1, t2);
    }

    fn snap(py: &PythiaSystem) -> Vec<u8> {
        let mut w = pythia_snapshot::Writer::new();
        w.section("pythia", |s| py.put_state(s));
        w.finish()
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let (mr, mut ctl, mut py) = setup();
        // Exercise every aggregate: a committed placement, a parked
        // prediction, background load, and run counters.
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        py.set_background(trunk0, 2e9);
        let index = IndexFile::from_partition_sizes(&[40_000_000], 1.0);
        let (m1, a1) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        py.on_prediction_delivered(a1, &m1, &mut ctl);
        let parked = IndexFile::from_partition_sizes(&[0, 25_000_000], 1.0);
        let (m2, a2) = py
            .on_spill(
                SimTime::from_secs(1),
                JobId(0),
                MapTaskId(1),
                ServerId(1),
                &parked.encode(),
            )
            .unwrap();
        py.on_prediction_delivered(a2, &m2, &mut ctl);
        assert_eq!(py.parked_predictions(), 1);

        // Snapshot Pythia and the controller; restore both onto fresh
        // instances of the same scenario.
        let mut w = pythia_snapshot::Writer::new();
        w.section("pythia", |s| py.put_state(s));
        w.section("controller", |s| ctl.put_state(s));
        let bytes = w.finish();
        let mut py2 = single(PythiaConfig::default(), &mr, &mr.servers);
        let mut ctl2 = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(3),
        );
        let mut rd = pythia_snapshot::Reader::new(&bytes).unwrap();
        let mut sec = rd.section("pythia").unwrap();
        py2.restore_state(&mr.topology, &mut sec).unwrap();
        sec.finish().unwrap();
        let mut sec = rd.section("controller").unwrap();
        ctl2.restore_state(&mut sec).unwrap();
        sec.finish().unwrap();

        // Re-snapshot is byte-identical and both halves continue in
        // lock-step: the parked prediction resolves into the same rules.
        assert_eq!(snap(&py2), snap(&py));
        let at = SimTime::from_secs(2);
        let r1 = py.on_reducer_launched(at, JobId(0), ReducerId(1), ServerId(6), &mut ctl);
        let r2 = py2.on_reducer_launched(at, JobId(0), ReducerId(1), ServerId(6), &mut ctl2);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
        assert!(!r1.is_empty());
        // Draining a fetch keeps them in lock-step too.
        py.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(0),
            ServerId(5),
        );
        py2.on_fetch_completed(
            JobId(0),
            MapTaskId(0),
            ReducerId(0),
            ServerId(0),
            ServerId(5),
        );
        assert_eq!(
            py.outstanding(mr.servers[0], mr.servers[5]),
            py2.outstanding(mr.servers[0], mr.servers[5])
        );
        assert_eq!(snap(&py2), snap(&py));
    }

    #[test]
    fn restore_onto_smaller_cluster_is_a_typed_error() {
        let (mr, mut ctl, mut py) = setup();
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        let bytes = snap(&py);
        let mut small = single(PythiaConfig::default(), &mr, &mr.servers[..4]);
        let mut rd = pythia_snapshot::Reader::new(&bytes).unwrap();
        let mut sec = rd.section("pythia").unwrap();
        match small.restore_state(&mr.topology, &mut sec) {
            Err(pythia_snapshot::SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn background_steers_placement() {
        let (mr, mut ctl, mut py) = setup();
        py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
        // Trunk 0 (first cable tor0→tor1) carries 9.9 Gb/s of background.
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        py.set_background(trunk0, 9.9e9);
        let index = IndexFile::from_partition_sizes(&[10_000_000], 1.0);
        let (m1, a1) = py
            .on_spill(
                SimTime::ZERO,
                JobId(0),
                MapTaskId(0),
                ServerId(0),
                &index.encode(),
            )
            .unwrap();
        let rules = py.on_prediction_delivered(a1, &m1, &mut ctl);
        // The rule at tor0 must avoid the loaded trunk.
        let tor0_rule = rules.iter().find(|r| r.switch == mr.tors[0]).unwrap();
        assert_ne!(tor0_rule.rule.out_link, trunk0);
    }

    #[test]
    fn shard_routing_follows_pods() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let py = sharded(&mr, 2);
        // Default multi-rack: 2 racks x 5 servers, rack-major order.
        assert_eq!(py.shard_of_node(mr.servers[0]), 0);
        assert_eq!(py.shard_of_node(mr.servers[4]), 0);
        assert_eq!(py.shard_of_node(mr.servers[5]), 1);
        assert_eq!(py.shard_of_node(mr.servers[9]), 1);
        let one = sharded(&mr, 1);
        assert!(mr.servers.iter().all(|&n| one.shard_of_node(n) == 0));
    }

    #[test]
    fn cross_pod_reexecution_retracts_the_stale_prediction() {
        // Map 0 spills on server 1 (rack 0) for reducer 0 on server 5
        // (rack 1), then Hadoop re-executes it on server 6 (rack 1). The
        // stale pair's volume must be retracted whatever the shard count,
        // though with two shards the two copies come from different pods.
        let mr = build_multi_rack(&MultiRackParams::default());
        let index = IndexFile::from_partition_sizes(&[10_000_000], 1.0);
        let stale = (mr.servers[1], mr.servers[5]);
        for shards in [1, 2] {
            let mut ctl = Controller::new(
                mr.topology.clone(),
                ControllerConfig::default(),
                &RngFactory::new(3),
            );
            let mut py = sharded(&mr, shards);
            py.on_reducer_launched(SimTime::ZERO, JobId(0), ReducerId(0), ServerId(5), &mut ctl);
            for (server, secs) in [(1, 1), (6, 2)] {
                let (msg, at) = py
                    .on_spill(
                        SimTime::from_secs(secs),
                        JobId(0),
                        MapTaskId(0),
                        ServerId(server),
                        &index.encode(),
                    )
                    .unwrap();
                py.on_prediction_delivered(at, &msg, &mut ctl);
                if server == 1 {
                    assert_eq!(py.outstanding(stale.0, stale.1), 10_721_547);
                }
            }
            assert_eq!(
                py.outstanding(stale.0, stale.1),
                0,
                "{shards} shard(s): stale pair still outstanding"
            );
            assert_eq!(py.collector_totals().retractions, 1, "{shards} shard(s)");
            assert!(py.outstanding(mr.servers[6], mr.servers[5]) > 0);
            // The allocator drained too: the stale pair no longer holds
            // planned volume, so nothing is left to reinstall for it.
            py.set_controller_down();
            let rules = py.on_controller_restart(SimTime::from_secs(3), &mut ctl);
            assert!(
                rules.iter().all(|r| r.rule.matcher.src != Some(stale.0)),
                "{shards} shard(s): stale pair reinstalled"
            );
        }
    }

    #[test]
    fn shards_split_collection_and_sum_counters() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let mut ctl = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(3),
        );
        let mut py = sharded(&mr, 2);
        assert_eq!(py.num_shards(), 2);
        assert_eq!(py.stats(), PythiaStats::default());
        assert_eq!(py.collector_totals(), CollectorTotals::default());
        // Spills from both racks, delivered before their reducers launch,
        // park in their source server's shard.
        let index = IndexFile::from_partition_sizes(&[10_000_000, 10_000_000], 1.0);
        for (map, server) in [(0, 0), (1, 6)] {
            let (msg, at) = py
                .on_spill(
                    SimTime::ZERO,
                    JobId(0),
                    MapTaskId(map),
                    ServerId(server),
                    &index.encode(),
                )
                .unwrap();
            assert!(py.on_prediction_delivered(at, &msg, &mut ctl).is_empty());
        }
        assert_eq!(py.parked_predictions(), 4);
        // A reducer launch is broadcast: both shards un-park and place.
        // Reducer 0 on server 5 is cross-rack from server 0 (rules at both
        // ToRs) and same-rack from server 6 (one ToR rule).
        let rules = py.on_reducer_launched(
            SimTime::from_secs(1),
            JobId(0),
            ReducerId(0),
            ServerId(5),
            &mut ctl,
        );
        assert_eq!(rules.len(), 3);
        assert_eq!(py.parked_predictions(), 2);
        assert_eq!(py.stats().predictions_sent, 2);
        assert!(py.outstanding(mr.servers[0], mr.servers[5]) > 0);
        assert!(py.outstanding(mr.servers[6], mr.servers[5]) > 0);
        assert!(py.predicted_curve(ServerId(0)).is_some());
        assert!(py.predicted_curve(ServerId(6)).is_some());
        assert_eq!(py.spills_decoded(ServerId(6)), 1);
    }
}
