//! The discrete-event engine: Hadoop × network × SDN control × Pythia.
//!
//! This is the only place in the workspace where simulated time actually
//! advances. The engine owns the event queue and drives the pure state
//! machines of the domain crates according to their contracts:
//!
//! * [`pythia_netsim::FlowNet`] — advance → mutate → recompute → schedule
//!   the single next-completion event;
//! * [`pythia_hadoop::MapReduceSim`] — feed timer/fetch inputs, act on the
//!   returned [`HadoopEvent`]s;
//! * [`pythia_core::PythiaSystem`] — spill/prediction/reducer/fetch hooks,
//!   returned rules scheduled with their hardware install latency;
//! * [`pythia_baselines::HederaScheduler`] — periodic rebalance ticks.
//!
//! Forwarding fidelity: every shuffle flow's path is resolved by walking
//! the switch flow tables ([`pythia_openflow::Dataplane`]), falling back
//! to ECMP hashing where no rule matches. A rule that becomes active
//! mid-flow re-resolves and reroutes the matching in-flight flows, exactly
//! like hardware that matches packets, not flows.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use pythia_baselines::{EcmpForwarding, HederaScheduler};
use pythia_core::{overhead, MgmtNet, PredictionMsg, PythiaSystem};
use pythia_des::{EventId, EventQueue, FastMap, FastSet, RngFactory, SimDuration, SimTime};
use pythia_hadoop::{FetchId, HadoopEvent, JobId, MapReduceSim, MapTaskId, ReducerId, ServerId};
use pythia_metrics::{DegradationReport, FlowTrace, ShuffleFlowRecord};
use pythia_netsim::{
    background_flows, redraw_group_rates, BackgroundProfile, Deferral, FiveTuple, FlowId, FlowNet,
    FlowSpec, LinkId, MultiRack, NetFlowProbe, NodeId, Path, Topology,
};
use pythia_openflow::{Controller, Dataplane, EcmpNextHops, FlowRule, ResolveError};
use pythia_snapshot::shell::{load_checkpoint, store_checkpoint, Manifest};
use pythia_snapshot::{
    crc32, Persist, Reader, SectionReader, SectionWriter, SnapshotError, Writer, SNAPSHOT_VERSION,
};
use pythia_trace::{Component, Trace, TraceEvent};

use crate::config::{ScenarioConfig, SchedulerKind};
use crate::report::{JobOutcome, MultiRunReport, RunReport};
use crate::service::{self, ControlMsg, SYSTEM_TENANT};
use crate::snapshot::{config_hash, CheckpointPolicy};

/// Engine events.
#[derive(Debug)]
enum Event {
    JobStart(JobId),
    MapFinish(JobId, MapTaskId),
    ReducerStart(JobId, ReducerId),
    SortFinish(JobId, ReducerId),
    ReducerFinish(JobId, ReducerId),
    /// The projected earliest flow completion (content-free: the top-of-
    /// loop advance does the work).
    FlowCheck,
    /// A prediction copy arriving off the management network. `Arc` so
    /// the lossy channel's duplicate deliveries share one heap message
    /// instead of deep-cloning the server list per copy, and so the
    /// delivery converts into a [`ControlMsg`] (which must be `Send` for
    /// the daemon's cross-thread ingest) without a deep clone.
    PredictionDeliver(Arc<PredictionMsg>),
    RuleActive {
        switch: NodeId,
        rule: FlowRule,
        /// Controller-connection epoch the install was issued under. A
        /// crash bumps the engine's epoch, so in-flight installs from
        /// before the crash are recognized as dead at dispatch and
        /// skipped — O(1) per crash instead of cancel-draining a handle
        /// list.
        generation: u64,
        /// Tenant (job) the rule was issued on behalf of, for per-tenant
        /// install accounting; [`SYSTEM_TENANT`] for rules derived from
        /// fabric events (background shifts, controller resyncs) rather
        /// than one job's predictions.
        tenant: u32,
    },
    /// Drain the per-pod buffered rule installs (epoch-batched install
    /// mode): one batched push per pod per epoch instead of a controller
    /// round-trip per prediction.
    EpochFlush,
    HederaTick,
    LinkLoadSample,
    ProbeSample,
    /// Redraw the background split across parallel trunks (the
    /// fluctuating-background profile).
    BackgroundChange,
    /// A trunk cable fails or recovers.
    LinkState {
        trunk_cable: usize,
        up: bool,
    },
    /// The SDN controller crashes (`up: false`) or restarts (`up: true`).
    ControllerState {
        up: bool,
    },
    /// Every instrumentation agent restarts and replays the spill indices
    /// still on disk (end-to-end idempotent-delivery exercise).
    AgentRespill,
    /// Periodic TTL sweep over parked collector entries.
    ParkedSweep,
}

/// Flight-recorder span name for each event type, so the histogram
/// registry attributes dispatch cost per handler.
fn event_span_name(ev: &Event) -> &'static str {
    match ev {
        Event::JobStart(..) => "ev_job_start",
        Event::MapFinish(..) => "ev_map_finish",
        Event::ReducerStart(..) => "ev_reducer_start",
        Event::SortFinish(..) => "ev_sort_finish",
        Event::ReducerFinish(..) => "ev_reducer_finish",
        Event::FlowCheck => "ev_flow_check",
        Event::PredictionDeliver(..) => "ev_prediction_deliver",
        Event::RuleActive { .. } => "ev_rule_active",
        Event::HederaTick => "ev_hedera_tick",
        Event::LinkLoadSample => "ev_link_load_sample",
        Event::ProbeSample => "ev_probe_sample",
        Event::BackgroundChange => "ev_background_change",
        Event::LinkState { .. } => "ev_link_state",
        Event::ControllerState { .. } => "ev_controller_state",
        Event::AgentRespill => "ev_agent_respill",
        Event::ParkedSweep => "ev_parked_sweep",
        Event::EpochFlush => "ev_epoch_flush",
    }
}

/// Metadata the engine keeps per in-flight fetch (Hadoop drops its own
/// copy when the fetch completes, but Pythia's drain needs it after).
#[derive(Debug, Clone, Copy)]
struct FetchInfo {
    map: MapTaskId,
    reducer: ReducerId,
    src: ServerId,
    dst: ServerId,
}

/// A memoized pair→path resolution. Invalidated per pair when a rule for
/// that pair lands (a server-pair rule cannot change any other pair's
/// resolution), and globally — via the engine's routing epoch — on ECMP
/// reconvergence or wildcard rule changes.
#[derive(Debug, Clone)]
struct CachedPath {
    routing_epoch: u64,
    path: Path,
}

/// A shuffle fetch that had no route when it tried to start (degraded
/// fabric, e.g. every trunk cable down). Parked and retried on the next
/// topology recovery instead of crashing the run.
#[derive(Debug, Clone, Copy)]
struct ParkedFetch {
    job: JobId,
    start: WaveFetch,
}

/// One fetch of a buffered shuffle wave: everything `start_one_fetch`
/// needs, queued while the rest of the Hadoop output batch drains so the
/// whole wave starts through one amortized pass (`start_fetch_wave`).
/// Fetch starts push no events and draw no randomness, so the deferral
/// is invisible to queue sequencing and RNG order.
#[derive(Debug, Clone, Copy)]
struct WaveFetch {
    fetch: FetchId,
    map: MapTaskId,
    reducer: ReducerId,
    src: ServerId,
    dst: ServerId,
    app_bytes: u64,
    src_port: u16,
    dst_port: u16,
}

/// Queued events ride inside checkpoints verbatim — times, FIFO sequence
/// numbers and payloads — so a resumed run pops them in exactly the order
/// the interrupted run would have.
impl Persist for Event {
    fn put(&self, w: &mut SectionWriter) {
        match self {
            Event::JobStart(j) => {
                0u8.put(w);
                j.put(w);
            }
            Event::MapFinish(j, m) => {
                1u8.put(w);
                j.put(w);
                m.put(w);
            }
            Event::ReducerStart(j, r) => {
                2u8.put(w);
                j.put(w);
                r.put(w);
            }
            Event::SortFinish(j, r) => {
                3u8.put(w);
                j.put(w);
                r.put(w);
            }
            Event::ReducerFinish(j, r) => {
                4u8.put(w);
                j.put(w);
                r.put(w);
            }
            Event::FlowCheck => 5u8.put(w),
            // The shared Arc is flattened: duplicate deliveries of one
            // message serialize the same payload and restore as separate
            // allocations — identical semantics, slightly more memory.
            Event::PredictionDeliver(msg) => {
                6u8.put(w);
                msg.as_ref().put(w);
            }
            Event::RuleActive {
                switch,
                rule,
                generation,
                tenant,
            } => {
                7u8.put(w);
                switch.put(w);
                rule.put(w);
                generation.put(w);
                tenant.put(w);
            }
            Event::HederaTick => 8u8.put(w),
            Event::LinkLoadSample => 9u8.put(w),
            Event::ProbeSample => 10u8.put(w),
            Event::BackgroundChange => 11u8.put(w),
            Event::LinkState { trunk_cable, up } => {
                12u8.put(w);
                trunk_cable.put(w);
                up.put(w);
            }
            Event::ControllerState { up } => {
                13u8.put(w);
                up.put(w);
            }
            Event::AgentRespill => 14u8.put(w),
            Event::ParkedSweep => 15u8.put(w),
            Event::EpochFlush => 16u8.put(w),
        }
    }

    fn get(r: &mut SectionReader) -> Result<Event, SnapshotError> {
        Ok(match u8::get(r)? {
            0 => Event::JobStart(JobId::get(r)?),
            1 => Event::MapFinish(JobId::get(r)?, MapTaskId::get(r)?),
            2 => Event::ReducerStart(JobId::get(r)?, ReducerId::get(r)?),
            3 => Event::SortFinish(JobId::get(r)?, ReducerId::get(r)?),
            4 => Event::ReducerFinish(JobId::get(r)?, ReducerId::get(r)?),
            5 => Event::FlowCheck,
            6 => Event::PredictionDeliver(Arc::new(PredictionMsg::get(r)?)),
            7 => Event::RuleActive {
                switch: NodeId::get(r)?,
                rule: FlowRule::get(r)?,
                generation: u64::get(r)?,
                tenant: u32::get(r)?,
            },
            8 => Event::HederaTick,
            9 => Event::LinkLoadSample,
            10 => Event::ProbeSample,
            11 => Event::BackgroundChange,
            12 => Event::LinkState {
                trunk_cable: usize::get(r)?,
                up: bool::get(r)?,
            },
            13 => Event::ControllerState { up: bool::get(r)? },
            14 => Event::AgentRespill,
            15 => Event::ParkedSweep,
            16 => Event::EpochFlush,
            t => return Err(r.malformed(format!("unknown event tag {t}"))),
        })
    }
}

impl Persist for FetchInfo {
    fn put(&self, w: &mut SectionWriter) {
        self.map.put(w);
        self.reducer.put(w);
        self.src.put(w);
        self.dst.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<FetchInfo, SnapshotError> {
        Ok(FetchInfo {
            map: MapTaskId::get(r)?,
            reducer: ReducerId::get(r)?,
            src: ServerId::get(r)?,
            dst: ServerId::get(r)?,
        })
    }
}

impl Persist for ParkedFetch {
    fn put(&self, w: &mut SectionWriter) {
        let f = &self.start;
        self.job.put(w);
        f.fetch.put(w);
        f.map.put(w);
        f.reducer.put(w);
        f.src.put(w);
        f.dst.put(w);
        f.app_bytes.put(w);
        f.src_port.put(w);
        f.dst_port.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<ParkedFetch, SnapshotError> {
        Ok(ParkedFetch {
            job: JobId::get(r)?,
            start: WaveFetch {
                fetch: FetchId::get(r)?,
                map: MapTaskId::get(r)?,
                reducer: ReducerId::get(r)?,
                src: ServerId::get(r)?,
                dst: ServerId::get(r)?,
                app_bytes: u64::get(r)?,
                src_port: u16::get(r)?,
                dst_port: u16::get(r)?,
            },
        })
    }
}

/// Range-check a deserialized event payload against the running scenario
/// so a snapshot that decodes but references entities the scenario does
/// not have surfaces as a typed restore error, never an index panic at
/// dispatch.
fn validate_event(
    ev: &Event,
    n_jobs: usize,
    n_nodes: usize,
    n_links: usize,
    n_servers: usize,
    n_cables: usize,
) -> Result<(), String> {
    let job_ok = |j: JobId| -> Result<(), String> {
        if (j.0 as usize) < n_jobs {
            Ok(())
        } else {
            Err(format!("event job {} out of range", j.0))
        }
    };
    match ev {
        Event::JobStart(j)
        | Event::MapFinish(j, _)
        | Event::ReducerStart(j, _)
        | Event::SortFinish(j, _)
        | Event::ReducerFinish(j, _) => job_ok(*j)?,
        Event::PredictionDeliver(m) => {
            job_ok(m.job)?;
            if m.src_server.0 as usize >= n_servers {
                return Err(format!(
                    "prediction source server {} out of range",
                    m.src_server.0
                ));
            }
        }
        Event::RuleActive {
            switch,
            rule,
            tenant,
            ..
        } => {
            if switch.0 as usize >= n_nodes {
                return Err(format!("rule switch {} out of range", switch.0));
            }
            if rule.out_link.0 as usize >= n_links {
                return Err(format!("rule out-link {} out of range", rule.out_link.0));
            }
            for n in [rule.matcher.src, rule.matcher.dst].into_iter().flatten() {
                if n.0 as usize >= n_nodes {
                    return Err(format!("rule matcher node {} out of range", n.0));
                }
            }
            if *tenant != SYSTEM_TENANT && *tenant as usize >= n_jobs {
                return Err(format!("rule tenant {tenant} out of range"));
            }
        }
        Event::LinkState { trunk_cable, .. } if *trunk_cable >= n_cables => {
            return Err(format!("trunk cable {trunk_cable} out of range"));
        }
        _ => {}
    }
    Ok(())
}

/// Run one scenario to job completion.
pub fn run_scenario(job: pythia_hadoop::JobSpec, cfg: &ScenarioConfig) -> RunReport {
    let multi = run_multi_scenario(vec![(job, pythia_des::SimDuration::ZERO)], cfg);
    multi.into_single()
}

/// Run several jobs concurrently (each submitted at its start offset).
/// Pythia's collector aggregates predictions across all of them — two
/// jobs shuffling between the same server pair share one aggregated
/// transfer and one rule, exactly as the §IV aggregation implies.
pub fn run_multi_scenario(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
) -> MultiRunReport {
    Engine::new(jobs, cfg).run()
}

/// Shared append-only log of dispatched control messages (see
/// [`run_multi_scenario_tapped`]).
type ControlTap = Rc<RefCell<Vec<(SimTime, ControlMsg)>>>;

/// Run several jobs while recording every control-plane message the
/// engine dispatched into the Pythia pipeline, with the sim time it was
/// dispatched at — the stream a live `pythia-daemon` replays to
/// reproduce the batch run's rule installs byte for byte (the daemon
/// equivalence test). The tap changes no engine behavior; the report is
/// identical to [`run_multi_scenario`]'s.
pub fn run_multi_scenario_tapped(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
) -> (MultiRunReport, Vec<(SimTime, ControlMsg)>) {
    let tap = Rc::new(RefCell::new(Vec::new()));
    let mut e = Engine::new(jobs, cfg);
    e.control_tap = Some(Rc::clone(&tap));
    let report = e.run();
    let msgs = Rc::try_unwrap(tap)
        .expect("engine dropped its tap handle")
        .into_inner();
    (report, msgs)
}

/// Single-job convenience wrapper over [`run_multi_scenario_tapped`].
pub fn run_scenario_tapped(
    job: pythia_hadoop::JobSpec,
    cfg: &ScenarioConfig,
) -> (RunReport, Vec<(SimTime, ControlMsg)>) {
    let (multi, msgs) = run_multi_scenario_tapped(vec![(job, pythia_des::SimDuration::ZERO)], cfg);
    (multi.into_single(), msgs)
}

/// Run several jobs with periodic crash-durable checkpoints written per
/// `policy`. A `kill -9` at any instant leaves the last good checkpoint
/// intact in `policy.dir`; [`resume_multi_scenario`] picks it up. The
/// checkpointing run is bitwise identical to an uncheckpointed one: a
/// checkpoint writes a deferred rate solve as pending instead of forcing
/// it.
pub fn run_multi_scenario_checkpointed(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
    policy: &CheckpointPolicy,
) -> Result<MultiRunReport, SnapshotError> {
    let mut e = Engine::new(jobs, cfg);
    e.kickoff();
    let cp = CheckpointRuntime::new(policy, config_hash(cfg), 0, SimTime::ZERO);
    match e.run_loop(Some(cp), None)? {
        LoopOutcome::Done(r) => Ok(*r),
        LoopOutcome::Captured(..) => unreachable!("no capture point requested"),
    }
}

/// Resume the latest checkpoint in `dir` and run to completion. The
/// manifest's configuration hash must match `cfg` (a resume under a
/// different scenario is [`SnapshotError::ConfigMismatch`]); `jobs` must
/// be the same job list the checkpointed run was started with. Pass a
/// `policy` to keep checkpointing after the resume.
pub fn resume_multi_scenario(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
    dir: &std::path::Path,
    policy: Option<&CheckpointPolicy>,
) -> Result<MultiRunReport, SnapshotError> {
    let (manifest, bytes) = load_checkpoint(dir)?;
    // An older format is refused as such, ahead of a config hash that
    // format may have computed differently.
    if manifest.version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version {
            found: manifest.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let found = config_hash(cfg);
    if manifest.config_hash != found {
        return Err(SnapshotError::ConfigMismatch {
            expected: manifest.config_hash,
            found,
        });
    }
    let mut e = Engine::new(jobs, cfg);
    let now = e.restore_from_bytes(&bytes, false)?;
    let cp = policy.map(|p| {
        let mut rt = CheckpointRuntime::new(p, found, e.events_processed, now);
        rt.last_file = Some(manifest.snapshot_file.clone());
        rt
    });
    match e.run_loop(cp, None)? {
        LoopOutcome::Done(r) => Ok(*r),
        LoopOutcome::Captured(..) => unreachable!("no capture point requested"),
    }
}

/// Resume directly from in-memory snapshot bytes (no manifest, no
/// config-hash gate — the caller vouches that `cfg` and `jobs` match the
/// scenario the snapshot was taken under; every structural mismatch still
/// surfaces as a typed error from the section restores).
pub fn resume_multi_from_bytes(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
    bytes: &[u8],
) -> Result<MultiRunReport, SnapshotError> {
    let mut e = Engine::new(jobs, cfg);
    e.restore_from_bytes(bytes, false)?;
    match e.run_loop(None, None)? {
        LoopOutcome::Done(r) => Ok(*r),
        LoopOutcome::Captured(..) => unreachable!("no capture point requested"),
    }
}

/// Fork: resume `bytes` under a (possibly) different chaos schedule.
/// The warm-up the snapshot captured is shared; the queued chaos events
/// (link faults, controller outages, agent respills) are dropped and
/// re-scheduled from `cfg`. Every chaos instant in `cfg` must lie
/// strictly after the fork point, else [`SnapshotError::Fork`].
///
/// No configuration hash is checked — the bytes carry none. The restore
/// validates what the snapshot itself records against the scenario built
/// from `cfg` and `jobs` (link and node counts, the job list and start
/// offsets, the background flows, every cross-reference between
/// sections), and any mismatch there is a typed error. Other non-chaos
/// settings (seed, scheduler knobs, periods) are not recorded, so the
/// caller vouches that they match the run that captured the snapshot.
pub fn fork_multi_scenario(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
    bytes: &[u8],
) -> Result<MultiRunReport, SnapshotError> {
    let mut e = Engine::new(jobs, cfg);
    e.restore_from_bytes(bytes, true)?;
    match e.run_loop(None, None)? {
        LoopOutcome::Done(r) => Ok(*r),
        LoopOutcome::Captured(..) => unreachable!("no capture point requested"),
    }
}

/// Run until `after_events` events have been processed and return the
/// snapshot taken there — the shared warm-up for fork-based chaos sweeps.
/// [`SnapshotError::Fork`] if the run completes first.
pub fn capture_multi_snapshot(
    jobs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
    cfg: &ScenarioConfig,
    after_events: u64,
) -> Result<Vec<u8>, SnapshotError> {
    let mut e = Engine::new(jobs, cfg);
    e.kickoff();
    match e.run_loop(None, Some(after_events))? {
        LoopOutcome::Captured(bytes) => Ok(bytes),
        LoopOutcome::Done(r) => Err(SnapshotError::Fork {
            detail: format!(
                "run completed after {} events, before the requested fork point {after_events}",
                r.events_processed
            ),
        }),
    }
}

/// Live checkpointing state for one run.
struct CheckpointRuntime<'p> {
    policy: &'p CheckpointPolicy,
    cfg_hash: u64,
    events_at_last: u64,
    next_sim: Option<SimTime>,
    last_file: Option<String>,
}

impl<'p> CheckpointRuntime<'p> {
    fn new(policy: &'p CheckpointPolicy, cfg_hash: u64, events_now: u64, now: SimTime) -> Self {
        CheckpointRuntime {
            policy,
            cfg_hash,
            events_at_last: events_now,
            next_sim: policy.every_sim_time.map(|d| now + d),
            last_file: None,
        }
    }

    fn due(&self, events: u64, now: SimTime) -> bool {
        self.policy
            .every_events
            .is_some_and(|n| events - self.events_at_last >= n)
            || self.next_sim.is_some_and(|t| now >= t)
    }
}

/// What `run_loop` produced: a finished report, or — in capture mode — a
/// snapshot taken at the requested event count.
enum LoopOutcome {
    Done(Box<MultiRunReport>),
    Captured(Vec<u8>),
}

/// Worker-thread count for the component-parallel rate solver.
fn solver_workers(cfg: &ScenarioConfig) -> usize {
    if cfg.solver_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        cfg.solver_workers
    }
}

/// A trunk-direction background group: (per-cable capacity, member CBR
/// flow ids ordered like the group's links).
type BgGroup = (f64, Vec<(LinkId, FlowId)>);

/// What installing the over-subscription background produced: the static
/// per-link load, the per-direction trunk groups, and how many entries
/// were skipped because they formed no valid path.
struct BackgroundInstall {
    background_bps: Vec<f64>,
    groups: Vec<BgGroup>,
    skipped: u64,
}

/// Install the background CBR flows (§V-A) into the network, grouped by
/// trunk direction so the fluctuating profile can redistribute load
/// within each group. Entries that form no valid path are skipped and
/// counted instead of panicking ([`service::static_background`]): the
/// run proceeds without that load, the same graceful degradation as
/// unroutable fetches.
fn install_background_flows(
    net: &mut FlowNet,
    topo: &Topology,
    flows: Vec<(FlowSpec, Vec<LinkId>)>,
) -> BackgroundInstall {
    let service::StaticBackground {
        flows,
        load_bps,
        skipped,
    } = service::static_background(topo, flows);
    let mut group_map: BTreeMap<(NodeId, NodeId), BgGroup> = BTreeMap::new();
    for (spec, path) in flows {
        let link = path.links()[0];
        let (src, dst, cap) = {
            let l = topo.link(link);
            (l.src, l.dst, l.capacity_bps)
        };
        let fid = net.start_flow(spec, path);
        group_map
            .entry((src, dst))
            .or_insert((cap, Vec::new()))
            .1
            .push((link, fid));
    }
    BackgroundInstall {
        background_bps: load_bps,
        groups: group_map.into_values().collect(),
        skipped,
    }
}

/// One job being driven by the engine: its name, its arrival and where
/// it is in its life.
struct JobSlot {
    name: String,
    start_at: SimTime,
    state: JobState,
}

/// A job's lifecycle. The simulator is built at the job's `JobStart`
/// event and dropped at its completion, so a day-long arrival trace
/// holds Hadoop state for the jobs currently *running*, not for every
/// job that ever ran.
enum JobState {
    /// Waiting for its `JobStart`: only the spec is held.
    Pending(pythia_hadoop::JobSpec),
    /// Between `JobStart` and completion: the live simulator (boxed, as
    /// it is four times the size of a spec).
    Running(Box<MapReduceSim>),
    /// Completed: the timeline, kept for the final report.
    Done(pythia_hadoop::Timeline),
}

impl JobSlot {
    /// Build the simulator of a pending job and return it (a running
    /// job's is returned as it is). Job `index`'s RNG seed depends only
    /// on the scenario seed and the index, so the simulator is the same
    /// whenever it is built: at arrival, or on restoring a checkpoint.
    fn materialize(
        &mut self,
        cfg: &ScenarioConfig,
        index: usize,
        servers: &[ServerId],
    ) -> &mut MapReduceSim {
        let placeholder = JobState::Done(pythia_hadoop::Timeline::default());
        self.state = match std::mem::replace(&mut self.state, placeholder) {
            JobState::Pending(spec) => JobState::Running(Box::new(MapReduceSim::new(
                cfg.hadoop.clone(),
                spec,
                servers.to_vec(),
                &RngFactory::new(pythia_des::splitmix64(cfg.seed ^ (index as u64) << 17)),
            ))),
            other => other,
        };
        match &mut self.state {
            JobState::Running(sim) => sim,
            _ => panic!("job `{}` started after it completed", self.name),
        }
    }

    /// Drop a running job's simulator and keep its timeline. Returns
    /// whether the slot was running.
    fn retire(&mut self) -> bool {
        let JobState::Running(sim) = &mut self.state else {
            return false;
        };
        self.state = JobState::Done(std::mem::take(&mut sim.timeline));
        true
    }
}

/// A rule install parked in the per-pod epoch buffer (epoch-batched
/// install mode): everything needed to emit the `RuleActive` at flush.
#[derive(Debug, Clone)]
struct BufferedRule {
    switch: NodeId,
    rule: FlowRule,
    delay: SimDuration,
    tenant: u32,
}

impl Persist for BufferedRule {
    fn put(&self, w: &mut SectionWriter) {
        self.switch.put(w);
        self.rule.put(w);
        self.delay.put(w);
        self.tenant.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<BufferedRule, SnapshotError> {
        Ok(BufferedRule {
            switch: NodeId::get(r)?,
            rule: FlowRule::get(r)?,
            delay: SimDuration::get(r)?,
            tenant: u32::get(r)?,
        })
    }
}

struct Engine<'a> {
    cfg: &'a ScenarioConfig,
    mr: MultiRack,
    net: FlowNet,
    dataplane: Dataplane,
    controller: Controller,
    nexthops: EcmpNextHops,
    ecmp: EcmpForwarding,
    jobs: Vec<JobSlot>,
    /// Jobs whose `JobCompleted` has not yet been processed. Checked
    /// after every event, so it must be O(1) — a fleet run cannot afford
    /// the former O(jobs) `is_done` scan per event.
    jobs_remaining: usize,
    /// Hadoop server ids (0..n), kept for job materialization.
    server_ids: Vec<ServerId>,
    /// Pod (fat-tree) or rack (leaf fabrics) of every node; `u32::MAX`
    /// for core switches, which belong to no pod. Drives collector
    /// sharding and per-pod install batching.
    pod_of_node: Vec<u32>,
    pythia: Option<PythiaSystem>,
    /// The agent → collector management-network channel (Pythia only).
    mgmt: Option<MgmtNet>,
    hedera: Option<HederaScheduler>,
    /// Static CBR background per link (bits/sec) — what the link-load
    /// service would report net of Pythia's own shuffle traffic.
    background_bps: Vec<f64>,
    queue: EventQueue<Event>,
    /// The scheduled completion-probe event and the time it fires at, so
    /// an unchanged projection is left in place instead of the
    /// cancel-and-repush churn every round.
    flowcheck: Option<(EventId, SimTime)>,
    fetch_of_flow: BTreeMap<FlowId, (JobId, FetchId)>,
    info_of_fetch: BTreeMap<(JobId, FetchId), FetchInfo>,
    probe: NetFlowProbe,
    trace: FlowTrace,
    /// Per trunk direction group: (capacity, member CBR flow ids ordered
    /// like the group's links).
    bg_groups: Vec<BgGroup>,
    bg_rng: rand::rngs::SmallRng,
    /// Directed links currently down (both directions of failed cables).
    down_links: FastSet<LinkId>,
    /// Original capacities, for restoration.
    orig_capacity: Vec<f64>,
    wire_seed: u64,
    events_processed: u64,
    rules_installed: u64,
    /// Rule installs rejected by a full TCAM (flow degraded to ECMP).
    tcam_rejected: u64,
    /// Fetches parked because no route existed at start time.
    parked_fetches: Vec<ParkedFetch>,
    /// Total unroutable-fetch parkings over the run.
    flows_unroutable: u64,
    /// Background CBR flows skipped at construction because their trunk
    /// entry formed no valid path. Construction-derived — a restore
    /// rebuilds it identically from the same config — so not persisted.
    background_flows_skipped: u64,
    /// When set, every control-plane message dispatched into the Pythia
    /// pipeline is appended here with its sim time — the stream a live
    /// daemon replays for the equivalence test. Observation only (never
    /// read back), so not persisted; tapped runs are not checkpointed.
    control_tap: Option<ControlTap>,
    /// The flight recorder (off unless the scenario enables it).
    flight: Trace,
    /// Whether the SDN controller is reachable.
    controller_up: bool,
    /// Start of the current outage, if one is in progress.
    controller_down_since: Option<SimTime>,
    /// Accumulated downtime over completed outage windows.
    controller_down_total: SimDuration,
    /// Controller crash events survived.
    controller_outages_seen: u64,
    /// Controller-connection epoch. Bumped on every crash; `RuleActive`
    /// events stamped with an older generation are dead (the install
    /// died with the connection) and skipped at dispatch.
    rule_generation: u64,
    /// The pending rate solve, if any: mutations since the last solve and
    /// their weight against the deferral budget.
    deferral: Deferral,
    /// Pair→path resolution memo (see [`CachedPath`]). Pythia installs
    /// pair-level rules and ECMP only consults the full 5-tuple where
    /// several equal-cost hops exist, so most resolutions are pair-pure
    /// and repeat across the many fetches of a server pair.
    path_cache: FastMap<(NodeId, NodeId), CachedPath>,
    /// Bumped whenever default (ECMP) forwarding reconverges; invalidates
    /// the path cache alongside the dataplane rule epoch.
    routing_epoch: u64,
    /// Dispatch-loop scratch: flows completed by the pre-event advance.
    /// Owned by the engine so steady-state dispatch allocates nothing.
    completed_scratch: Vec<FlowId>,
    /// Dispatch-loop scratch for Hadoop event batches.
    hadoop_scratch: Vec<HadoopEvent>,
    /// Wave buffer: fetch starts of the Hadoop batch currently draining,
    /// deferred to one `start_fetch_wave` pass at the end of the batch.
    /// Always empty between events (checkpoints assert it), so it is
    /// scratch, not persisted state.
    wave_scratch: Vec<WaveFetch>,
    /// Whether the completion projection may have moved since the last
    /// `finish_round` peek. Any flow mutation or solve sets it; quiet
    /// rounds (the overwhelmingly common rule-activation ticks) skip the
    /// completion-heap peek entirely. Persisted: a peek may fold flows,
    /// so a resumed run must peek exactly where the original did.
    projection_dirty: bool,
    /// Dispatch-loop scratch: in-flight flows a rule or link event must
    /// re-resolve.
    candidates_scratch: Vec<(FlowId, FiveTuple)>,
    /// In-flight fetch flows by server pair, each list in flow-id order.
    /// Lets `on_rule_active` re-resolve exactly the flows a server-pair
    /// rule can match instead of scanning every flow in the network.
    flows_of_pair: BTreeMap<(NodeId, NodeId), Vec<FlowId>>,
    /// Epoch-batched install buffers, keyed by pod of the target switch
    /// (`u32::MAX` = the shared core bucket). Empty unless
    /// `cfg.install_epoch` is set.
    epoch_buf: BTreeMap<u32, Vec<BufferedRule>>,
    /// Non-empty per-pod batches flushed over the run.
    epoch_batches: u64,
    /// Per-tenant rule accounting (index = job id): rules issued by the
    /// control plane, rules that landed in a TCAM, installs rejected by
    /// a full TCAM. System-attributed rules (resyncs, background
    /// re-placements) are counted in the engine-wide totals only.
    tenant_rules_issued: Vec<u64>,
    tenant_rules_installed: Vec<u64>,
    tenant_tcam_rejected: Vec<u64>,
}

impl<'a> Engine<'a> {
    fn new(
        job_specs: Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
        cfg: &'a ScenarioConfig,
    ) -> Engine<'a> {
        assert!(!job_specs.is_empty(), "need at least one job");
        let mr = cfg.topology.build();
        let rngs = RngFactory::new(cfg.seed);
        let mut net = FlowNet::new(mr.topology.clone());
        // Only server-sourced (shuffle) traffic is observed — the probe
        // watches servers and flow traces cover fetches only — so skip
        // per-advance byte integration for everything else (the CBR
        // background keeps its rates; its byte counters are never read).
        net.meter_sources_only(mr.servers.iter().copied());
        net.set_solver_workers(solver_workers(cfg));

        // Background load emulating over-subscription (§V-A): one CBR
        // stream per trunk cable, grouped by direction so the fluctuating
        // profile can redistribute load within each group.
        let bg = install_background_flows(
            &mut net,
            &mr.topology,
            background_flows(&mr.topology, &mr.trunk_links, cfg.oversubscription),
        );
        let background_bps = bg.background_bps;
        let bg_groups = bg.groups;
        let background_flows_skipped = bg.skipped;
        net.recompute();

        let flight = Trace::new(&cfg.trace);
        let dataplane = Dataplane::new(&mr.topology, cfg.tcam_capacity);
        let nexthops = EcmpNextHops::compute(&mr.topology);
        let ecmp = EcmpForwarding::new(pythia_des::splitmix64(cfg.seed ^ 0xec3b));

        let servers: Vec<ServerId> = (0..mr.servers.len() as u32).map(ServerId).collect();
        // Scenario-known shuffle size: at most one cross-network fetch per
        // (map, reducer) pair per job. Sizes the probe curve buffers.
        let total_fetches: usize = job_specs
            .iter()
            .map(|(s, _)| s.num_maps.saturating_mul(s.num_reducers))
            .sum();
        let jobs: Vec<JobSlot> = job_specs
            .into_iter()
            .map(|(spec, offset)| JobSlot {
                name: spec.name.clone(),
                start_at: SimTime::ZERO + offset,
                state: JobState::Pending(spec),
            })
            .collect();
        let jobs_remaining = jobs.len();

        let service::ControlPlane {
            controller,
            pythia,
            pod_of_node,
        } = service::control_plane(cfg, &mr, &background_bps, &flight);
        let mgmt = match cfg.scheduler {
            SchedulerKind::Pythia => Some(MgmtNet::new(
                cfg.pythia.mgmtnet.clone(),
                rngs.stream("mgmtnet"),
            )),
            _ => None,
        };
        let hedera = match cfg.scheduler {
            SchedulerKind::Hedera => Some(HederaScheduler::new(cfg.hedera.clone())),
            _ => None,
        };

        let mut probe = NetFlowProbe::new(mr.servers.clone());
        // Pre-size each curve from the known fetch count: delta-encoded
        // pushes retain at most one point per completion wave a node
        // sources (fetches spread ~evenly across servers) plus the
        // periodic ticks — so steady-state sampling never reallocates
        // (pinned by the counting-allocator guard).
        probe.reserve(total_fetches / mr.servers.len().max(1) + 64);
        let n_jobs_total = jobs.len();

        Engine {
            cfg,
            net,
            dataplane,
            controller,
            nexthops,
            ecmp,
            jobs,
            jobs_remaining,
            server_ids: servers,
            pod_of_node,
            pythia,
            mgmt,
            hedera,
            background_bps,
            queue: EventQueue::new(),
            flowcheck: None,
            fetch_of_flow: BTreeMap::new(),
            info_of_fetch: BTreeMap::new(),
            probe,
            trace: FlowTrace::default(),
            bg_groups,
            bg_rng: rngs.stream("background-fluctuation"),
            down_links: FastSet::default(),
            orig_capacity: (0..mr.topology.num_links())
                .map(|l| mr.topology.link(LinkId(l as u32)).capacity_bps)
                .collect(),
            wire_seed: pythia_des::splitmix64(cfg.seed ^ 0x31f3),
            events_processed: 0,
            rules_installed: 0,
            tcam_rejected: 0,
            parked_fetches: Vec::new(),
            flows_unroutable: 0,
            background_flows_skipped,
            control_tap: None,
            flight,
            controller_up: true,
            controller_down_since: None,
            controller_down_total: SimDuration::ZERO,
            controller_outages_seen: 0,
            rule_generation: 0,
            deferral: Deferral::default(),
            path_cache: FastMap::default(),
            routing_epoch: 0,
            completed_scratch: Vec::new(),
            hadoop_scratch: Vec::new(),
            wave_scratch: Vec::new(),
            projection_dirty: true,
            candidates_scratch: Vec::new(),
            flows_of_pair: BTreeMap::new(),
            epoch_buf: BTreeMap::new(),
            epoch_batches: 0,
            tenant_rules_issued: vec![0; n_jobs_total],
            tenant_rules_installed: vec![0; n_jobs_total],
            tenant_tcam_rejected: vec![0; n_jobs_total],
            mr,
        }
    }

    /// O(1): the per-event completion check (this runs after *every*
    /// dispatched event — an O(jobs) scan here capped fleet throughput).
    fn all_done(&self) -> bool {
        self.jobs_remaining == 0
    }

    /// The live simulator of job `j`. Panics if the job is not running —
    /// the per-job events the engine dispatches only exist while the
    /// simulator does.
    fn sim_mut(&mut self, j: JobId) -> &mut MapReduceSim {
        match &mut self.jobs[j.0 as usize].state {
            JobState::Running(sim) => sim,
            _ => panic!("event for a job with no live simulator"),
        }
    }

    fn node_of(&self, s: ServerId) -> NodeId {
        self.mr.servers[s.0 as usize]
    }

    fn run(mut self) -> MultiRunReport {
        self.kickoff();
        match self.run_loop(None, None) {
            Ok(LoopOutcome::Done(report)) => *report,
            // With no checkpoint policy and no capture point the loop can
            // neither fail nor stop early.
            Ok(LoopOutcome::Captured(..)) | Err(_) => unreachable!("plain run cannot checkpoint"),
        }
    }

    fn kickoff(&mut self) {
        // Kick off: periodic samplers, Hedera ticks, the job itself.
        self.probe.sample(&self.net);
        self.queue
            .push(SimTime::ZERO + self.cfg.probe_period, Event::ProbeSample);
        self.queue.push(
            SimTime::ZERO + self.cfg.link_load_period,
            Event::LinkLoadSample,
        );
        if self.hedera.is_some() {
            self.queue
                .push(SimTime::ZERO + self.cfg.hedera.period, Event::HederaTick);
        }
        for fault in &self.cfg.link_faults {
            self.queue.push(
                SimTime::ZERO + fault.fail_at,
                Event::LinkState {
                    trunk_cable: fault.trunk_cable,
                    up: false,
                },
            );
            if let Some(at) = fault.restore_at {
                self.queue.push(
                    SimTime::ZERO + at,
                    Event::LinkState {
                        trunk_cable: fault.trunk_cable,
                        up: true,
                    },
                );
            }
        }
        for o in &self.cfg.controller_outages {
            self.queue.push(
                SimTime::ZERO + o.down_at,
                Event::ControllerState { up: false },
            );
            self.queue
                .push(SimTime::ZERO + o.up_at, Event::ControllerState { up: true });
        }
        for &at in &self.cfg.agent_respill_at {
            self.queue.push(SimTime::ZERO + at, Event::AgentRespill);
        }
        if self.pythia.is_some() {
            if let Some(ttl) = self.cfg.pythia.parked_ttl {
                self.queue.push(SimTime::ZERO + ttl, Event::ParkedSweep);
            }
            if let Some(epoch) = self.cfg.install_epoch {
                self.queue.push(SimTime::ZERO + epoch, Event::EpochFlush);
            }
        }
        if let BackgroundProfile::Fluctuating { .. } = self.cfg.background {
            if !self.bg_groups.is_empty() {
                // First draw at t=0 so runs start asymmetric already.
                self.on_background_change(SimTime::ZERO);
            }
        }
        for i in 0..self.jobs.len() {
            let job = JobId(i as u32);
            let at = self.jobs[i].start_at;
            self.queue.push(at, Event::JobStart(job));
        }
        self.finish_round(SimTime::ZERO);
    }

    fn run_loop(
        mut self,
        mut checkpoint: Option<CheckpointRuntime<'_>>,
        capture_at: Option<u64>,
    ) -> Result<LoopOutcome, SnapshotError> {
        while let Some((now, _, ev)) = self.queue.pop() {
            // Installs issued before a controller crash died with the
            // connection: drop them before they count as processed, the
            // same way a lazily-cancelled queue entry never surfaces.
            if let Event::RuleActive { generation, .. } = ev {
                if generation != self.rule_generation {
                    continue;
                }
            }
            if let Some(cp) = checkpoint.as_ref() {
                if cp.policy.die_at_event == Some(self.events_processed + 1) {
                    // Crash injection: die with no unwinding, exactly as
                    // a `kill -9` landing mid-dispatch would.
                    std::process::abort();
                }
            }
            self.flight.set_now(now);
            self.events_processed += 1;
            assert!(
                self.events_processed <= self.cfg.max_events,
                "watchdog: event budget exhausted ({})",
                self.cfg.max_events
            );
            assert!(
                now.saturating_since(SimTime::ZERO) <= self.cfg.max_sim_time,
                "watchdog: simulated time budget exhausted at {now}"
            );
            // 1. Integrate the network up to now; handle completions.
            {
                let _span = self.flight.span("ev_advance_net");
                let mut completed = std::mem::take(&mut self.completed_scratch);
                completed.clear();
                completed.extend_from_slice(self.net.advance_to(now));
                for &fid in &completed {
                    self.on_flow_complete(now, fid);
                }
                completed.clear();
                self.completed_scratch = completed;
            }
            // 2. The event itself, timed per handler so the span
            // histograms attribute dispatch cost by event type.
            let span = self.flight.span(event_span_name(&ev));
            match ev {
                Event::JobStart(j) => {
                    let mut evts = std::mem::take(&mut self.hadoop_scratch);
                    self.jobs[j.0 as usize]
                        .materialize(self.cfg, j.0 as usize, &self.server_ids)
                        .start_into(now, &mut evts);
                    self.apply_hadoop_events(now, j, &mut evts);
                    self.hadoop_scratch = evts;
                }
                Event::MapFinish(j, m) => {
                    self.flight
                        .record(Component::Hadoop, || TraceEvent::MapFinish {
                            job: j,
                            map: m,
                        });
                    let mut evts = std::mem::take(&mut self.hadoop_scratch);
                    self.sim_mut(j).map_finished_into(now, m, &mut evts);
                    self.apply_hadoop_events(now, j, &mut evts);
                    self.hadoop_scratch = evts;
                }
                Event::ReducerStart(j, r) => {
                    let mut evts = std::mem::take(&mut self.hadoop_scratch);
                    self.sim_mut(j).reducer_started_into(now, r, &mut evts);
                    self.apply_hadoop_events(now, j, &mut evts);
                    self.hadoop_scratch = evts;
                }
                Event::SortFinish(j, r) => {
                    let mut evts = std::mem::take(&mut self.hadoop_scratch);
                    self.sim_mut(j).sort_finished_into(now, r, &mut evts);
                    self.apply_hadoop_events(now, j, &mut evts);
                    self.hadoop_scratch = evts;
                }
                Event::ReducerFinish(j, r) => {
                    let mut evts = std::mem::take(&mut self.hadoop_scratch);
                    self.sim_mut(j).reducer_finished_into(now, r, &mut evts);
                    self.apply_hadoop_events(now, j, &mut evts);
                    self.hadoop_scratch = evts;
                }
                Event::FlowCheck => {
                    // Work done by the advance above. Clearing the handle
                    // changes what the round finish must compare against,
                    // so the projection must be re-peeked even if the
                    // advance completed nothing (a lazily-stale check).
                    self.flowcheck = None;
                    self.projection_dirty = true;
                }
                Event::PredictionDeliver(msg) => {
                    self.control(now, ControlMsg::Prediction(msg));
                }
                Event::RuleActive {
                    switch,
                    rule,
                    tenant,
                    ..
                } => self.on_rule_active(switch, rule, tenant),
                Event::EpochFlush => self.on_epoch_flush(now),
                Event::HederaTick => self.on_hedera_tick(now),
                Event::LinkLoadSample => self.on_link_load_sample(now),
                Event::ProbeSample => {
                    self.probe.sample(&self.net);
                    if !self.all_done() {
                        self.queue
                            .push(now + self.cfg.probe_period, Event::ProbeSample);
                    }
                }
                Event::BackgroundChange => self.on_background_change(now),
                Event::LinkState { trunk_cable, up } => self.on_link_state(now, trunk_cable, up),
                Event::ControllerState { up } => self.on_controller_state(now, up),
                Event::AgentRespill => self.on_agent_respill(now),
                Event::ParkedSweep => self.on_parked_sweep(now),
            }
            drop(span);
            if self.all_done() {
                // Final probe point at job end, then stop: only unbounded
                // background flows remain.
                if self.deferral.is_pending() {
                    self.net.recompute();
                }
                self.probe.sample(&self.net);
                break;
            }
            self.finish_round(now);
            // Checkpoints land here — after the event's effects and the
            // round's finish — so no event is half applied.
            if let Some(cp) = checkpoint.as_mut() {
                if cp.due(self.events_processed, now) {
                    self.write_checkpoint(now, cp)?;
                }
            }
            if capture_at.is_some_and(|n| self.events_processed >= n) {
                return Ok(LoopOutcome::Captured(self.snapshot_bytes(now)));
            }
        }

        assert!(
            self.all_done(),
            "event queue drained before job completion — lost event?"
        );
        Ok(LoopOutcome::Done(Box::new(self.build_report())))
    }

    /// Serialize the whole engine — queue, network, dataplane, controller,
    /// every job's Hadoop state, and the scheduler under test — into one
    /// versioned snapshot. `now` is the checkpoint instant (the time of
    /// the event just dispatched).
    ///
    /// A deferred rate solve is written as pending — the network's
    /// provisional rates and dirty links, the engine's deferral state —
    /// never forced, so a checkpointing run stays bitwise identical to an
    /// uncheckpointed one.
    fn snapshot_bytes(&mut self, now: SimTime) -> Vec<u8> {
        // Checkpoints land between events, and every Hadoop batch drains
        // its fetch wave before its handler returns — a wave is never
        // in flight here, so the buffer is scratch, not state.
        debug_assert!(
            self.wave_scratch.is_empty(),
            "checkpoint with a fetch wave in flight"
        );
        let _span = self.flight.span("checkpoint");
        let mut w = Writer::new();
        w.section("engine", |s| {
            now.put(s);
            self.events_processed.put(s);
            self.rules_installed.put(s);
            self.tcam_rejected.put(s);
            self.flows_unroutable.put(s);
            self.rule_generation.put(s);
            self.controller_up.put(s);
            self.controller_down_since.put(s);
            self.controller_down_total.put(s);
            self.controller_outages_seen.put(s);
            self.flowcheck.put(s);
            self.background_bps.put(s);
            // The down set is unordered in memory; serialize sorted so
            // identical states write identical bytes.
            let mut down: Vec<LinkId> = self.down_links.iter().copied().collect();
            down.sort_unstable();
            down.put(s);
            self.parked_fetches.put(s);
            self.fetch_of_flow.put(s);
            self.info_of_fetch.put(s);
            pythia_des::put_rng(s, &self.bg_rng);
            self.epoch_batches.put(s);
            self.epoch_buf.put(s);
            self.tenant_rules_issued.put(s);
            self.tenant_rules_installed.put(s);
            self.tenant_tcam_rejected.put(s);
            self.deferral.put(s);
            self.projection_dirty.put(s);
        });
        w.section("queue", |s| {
            self.queue.next_seq().put(s);
            let entries = self.queue.live_entries();
            (entries.len() as u64).put(s);
            for (t, seq, ev) in entries {
                t.put(s);
                seq.put(s);
                ev.put(s);
            }
        });
        w.section("net", |s| self.net.put_state(s));
        w.section("dataplane", |s| self.dataplane.put_state(s));
        w.section("controller", |s| self.controller.put_state(s));
        w.section("jobs", |s| {
            (self.jobs.len() as u64).put(s);
            for j in &self.jobs {
                j.name.put(s);
                j.start_at.put(s);
                // Started byte, then the state tag: 0 = pending,
                // 1 = running (simulator state follows), 2 = done
                // (timeline follows).
                match &j.state {
                    JobState::Pending(_) => {
                        false.put(s);
                        0u8.put(s);
                    }
                    JobState::Running(sim) => {
                        true.put(s);
                        1u8.put(s);
                        sim.put_state(s);
                    }
                    JobState::Done(tl) => {
                        true.put(s);
                        2u8.put(s);
                        tl.put(s);
                    }
                }
            }
        });
        if let Some(py) = &self.pythia {
            w.section("pythia", |s| py.put_state(s));
        }
        if let Some(m) = &self.mgmt {
            w.section("mgmt", |s| m.put_state(s));
        }
        if let Some(h) = &self.hedera {
            w.section("hedera", |s| h.put_state(s));
        }
        w.section("probe", |s| self.probe.put(s));
        w.section("flowtrace", |s| self.trace.put(s));
        w.finish()
    }

    /// Write one checkpoint: snapshot bytes, atomic snapshot file, then
    /// the manifest — in that order, so the manifest never names a file
    /// that is not fully on disk.
    fn write_checkpoint(
        &mut self,
        now: SimTime,
        cp: &mut CheckpointRuntime<'_>,
    ) -> Result<(), SnapshotError> {
        let bytes = self.snapshot_bytes(now);
        let file = format!("snap-{:012}.pysnap", self.events_processed);
        let manifest = Manifest {
            snapshot_file: file.clone(),
            version: SNAPSHOT_VERSION,
            config_hash: cp.cfg_hash,
            events: self.events_processed,
            sim_nanos: now.as_nanos(),
            bytes: bytes.len() as u64,
            crc32: crc32(&bytes),
        };
        store_checkpoint(&cp.policy.dir, &manifest, &bytes)?;
        if !cp.policy.retain_all {
            if let Some(prev) = cp.last_file.take() {
                if prev != file {
                    // Best-effort: a leftover old snapshot is harmless —
                    // the manifest no longer points at it.
                    let _ = std::fs::remove_file(cp.policy.dir.join(prev));
                }
            }
        }
        cp.last_file = Some(file);
        cp.events_at_last = self.events_processed;
        cp.next_sim = cp.policy.every_sim_time.map(|d| now + d);
        Ok(())
    }

    /// Overlay a snapshot onto this freshly constructed engine. Every
    /// cross-reference is validated against the running scenario — a
    /// snapshot from a different cluster or job list is a typed error,
    /// never a panic. On error the engine is in a partially
    /// restored state and must be discarded (every caller does).
    ///
    /// With `fork`, the queued chaos events (link faults, controller
    /// outages, agent respills) are dropped and re-scheduled from this
    /// engine's configuration; each must lie strictly after the snapshot
    /// instant.
    ///
    /// Returns the snapshot instant.
    fn restore_from_bytes(&mut self, bytes: &[u8], fork: bool) -> Result<SimTime, SnapshotError> {
        let n_links = self.mr.topology.num_links();
        let n_nodes = self.mr.topology.num_nodes();
        let n_servers = self.mr.servers.len();
        let n_jobs = self.jobs.len();
        let n_cables = self.mr.trunk_links.len() / 2;
        let malformed = |section: &str, detail: String| SnapshotError::Malformed {
            section: section.into(),
            detail,
        };

        let mut rd = Reader::new(bytes)?;
        let mut s = rd.section("engine")?;
        let now = SimTime::get(&mut s)?;
        let events_processed = u64::get(&mut s)?;
        let rules_installed = u64::get(&mut s)?;
        let tcam_rejected = u64::get(&mut s)?;
        let flows_unroutable = u64::get(&mut s)?;
        let rule_generation = u64::get(&mut s)?;
        let controller_up = bool::get(&mut s)?;
        let controller_down_since = Option::<SimTime>::get(&mut s)?;
        let controller_down_total = SimDuration::get(&mut s)?;
        let controller_outages_seen = u64::get(&mut s)?;
        let flowcheck = Option::<(EventId, SimTime)>::get(&mut s)?;
        let background_bps = Vec::<f64>::get(&mut s)?;
        if background_bps.len() != n_links {
            return Err(s.malformed(format!(
                "background table covers {} links, topology has {n_links}",
                background_bps.len()
            )));
        }
        for (i, &b) in background_bps.iter().enumerate() {
            if !b.is_finite() || b < 0.0 {
                return Err(s.malformed(format!("background load {b} on link {i} invalid")));
            }
        }
        let down_vec = Vec::<LinkId>::get(&mut s)?;
        for win in down_vec.windows(2) {
            if win[1] <= win[0] {
                return Err(s.malformed("down-link list not strictly ascending".to_string()));
            }
        }
        if let Some(l) = down_vec.iter().find(|l| l.0 as usize >= n_links) {
            return Err(s.malformed(format!("down link {} out of range", l.0)));
        }
        let parked_fetches = Vec::<ParkedFetch>::get(&mut s)?;
        for p in &parked_fetches {
            let (src, dst) = (p.start.src, p.start.dst);
            if p.job.0 as usize >= n_jobs
                || src.0 as usize >= n_servers
                || dst.0 as usize >= n_servers
            {
                return Err(s.malformed(format!(
                    "parked fetch references job {} / servers {},{} outside the scenario",
                    p.job.0, src.0, dst.0
                )));
            }
        }
        let fetch_of_flow = <BTreeMap<FlowId, (JobId, FetchId)> as Persist>::get(&mut s)?;
        let info_of_fetch = <BTreeMap<(JobId, FetchId), FetchInfo> as Persist>::get(&mut s)?;
        if info_of_fetch.len() != fetch_of_flow.len() {
            return Err(s.malformed(format!(
                "{} in-flight flows but {} fetch records",
                fetch_of_flow.len(),
                info_of_fetch.len()
            )));
        }
        {
            let mut seen = std::collections::BTreeSet::new();
            for &(job, fetch) in fetch_of_flow.values() {
                if job.0 as usize >= n_jobs {
                    return Err(s.malformed(format!("in-flight job {} out of range", job.0)));
                }
                if !info_of_fetch.contains_key(&(job, fetch)) || !seen.insert((job, fetch)) {
                    return Err(s.malformed(format!(
                        "in-flight fetch ({}, {}) has no unique fetch record",
                        job.0, fetch.0
                    )));
                }
            }
        }
        for info in info_of_fetch.values() {
            if info.src.0 as usize >= n_servers || info.dst.0 as usize >= n_servers {
                return Err(s.malformed(format!(
                    "fetch record references servers {},{} outside the scenario",
                    info.src.0, info.dst.0
                )));
            }
        }
        let bg_rng = pythia_des::get_rng(&mut s)?;
        let epoch_batches = u64::get(&mut s)?;
        let epoch_buf = <BTreeMap<u32, Vec<BufferedRule>> as Persist>::get(&mut s)?;
        for rules in epoch_buf.values() {
            for b in rules {
                if b.switch.0 as usize >= n_nodes {
                    return Err(
                        s.malformed(format!("buffered rule switch {} out of range", b.switch.0))
                    );
                }
                if b.tenant != SYSTEM_TENANT && b.tenant as usize >= n_jobs {
                    return Err(
                        s.malformed(format!("buffered rule tenant {} out of range", b.tenant))
                    );
                }
            }
        }
        let tenant_rules_issued = Vec::<u64>::get(&mut s)?;
        let tenant_rules_installed = Vec::<u64>::get(&mut s)?;
        let tenant_tcam_rejected = Vec::<u64>::get(&mut s)?;
        let deferral = Deferral::get(&mut s)?;
        let projection_dirty = bool::get(&mut s)?;
        for (what, v) in [
            ("issued", &tenant_rules_issued),
            ("installed", &tenant_rules_installed),
            ("tcam-rejected", &tenant_tcam_rejected),
        ] {
            if v.len() != n_jobs {
                return Err(s.malformed(format!(
                    "tenant {what} table covers {} jobs, scenario has {n_jobs}",
                    v.len()
                )));
            }
        }
        s.finish()?;

        let mut s = rd.section("queue")?;
        let next_seq = u64::get(&mut s)?;
        let n_events = u64::get(&mut s)? as usize;
        if n_events > s.remaining() {
            return Err(s.malformed("event count exceeds section size".to_string()));
        }
        let mut entries: Vec<(SimTime, u64, Event)> = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let t = SimTime::get(&mut s)?;
            let seq = u64::get(&mut s)?;
            let ev = Event::get(&mut s)?;
            validate_event(&ev, n_jobs, n_nodes, n_links, n_servers, n_cables)
                .map_err(|d| s.malformed(d))?;
            entries.push((t, seq, ev));
        }
        s.finish()?;
        if fork {
            entries.retain(|(_, _, ev)| {
                !matches!(
                    ev,
                    Event::LinkState { .. } | Event::ControllerState { .. } | Event::AgentRespill
                )
            });
        }
        // The flowcheck handle must agree with the queue: exactly one
        // live FlowCheck at its recorded time when armed, none otherwise.
        let flowchecks: Vec<SimTime> = entries
            .iter()
            .filter(|(_, _, ev)| matches!(ev, Event::FlowCheck))
            .map(|&(t, _, _)| t)
            .collect();
        match flowcheck {
            Some((_, t)) if flowchecks != vec![t] => {
                return Err(malformed(
                    "queue",
                    format!("completion probe armed at {t} but queue disagrees"),
                ));
            }
            None if !flowchecks.is_empty() => {
                return Err(malformed(
                    "queue",
                    "completion probe queued but not armed".to_string(),
                ));
            }
            _ => {}
        }
        let mut queue =
            EventQueue::from_entries(entries, next_seq).map_err(|d| malformed("queue", d))?;

        let mut s = rd.section("net")?;
        let mut net = FlowNet::get_state(self.mr.topology.clone(), &mut s)?;
        s.finish()?;
        // The worker pool is a runtime resource, not state.
        net.set_solver_workers(solver_workers(self.cfg));
        for fid in fetch_of_flow.keys() {
            if net.flow(*fid).is_none() {
                return Err(malformed(
                    "net",
                    format!("in-flight fetch flow {fid} missing from the network"),
                ));
            }
        }
        // The background groups are rebuilt from configuration (same
        // deterministic construction order, so the same flow ids); the
        // snapshot must actually contain those CBR flows.
        for (_, members) in &self.bg_groups {
            for &(_, fid) in members {
                let ok = net
                    .flow(fid)
                    .is_some_and(|f| matches!(f.spec.kind, pythia_netsim::FlowKind::Cbr { .. }));
                if !ok {
                    return Err(malformed(
                        "net",
                        format!("background flow {fid} missing from the network"),
                    ));
                }
            }
        }

        let mut s = rd.section("dataplane")?;
        let dataplane = Dataplane::get_state(&self.mr.topology, &mut s)?;
        s.finish()?;

        let mut s = rd.section("controller")?;
        self.controller.restore_state(&mut s)?;
        s.finish()?;

        let mut s = rd.section("jobs")?;
        let n = u64::get(&mut s)? as usize;
        if n != n_jobs {
            return Err(s.malformed(format!("snapshot has {n} jobs, scenario has {n_jobs}")));
        }
        for (i, slot) in self.jobs.iter_mut().enumerate() {
            let name = String::get(&mut s)?;
            if name != slot.name {
                return Err(SnapshotError::Malformed {
                    section: "jobs".into(),
                    detail: format!("snapshot job `{name}`, scenario job `{}`", slot.name),
                });
            }
            let start_at = SimTime::get(&mut s)?;
            if start_at != slot.start_at {
                return Err(SnapshotError::Malformed {
                    section: "jobs".into(),
                    detail: format!(
                        "job `{name}` starts at {start_at} in the snapshot, {} in the scenario",
                        slot.start_at
                    ),
                });
            }
            let started = bool::get(&mut s)?;
            // The fresh slot is pending and holds the spec.
            match (u8::get(&mut s)?, started) {
                (0, false) => {}
                // Build the simulator exactly as `JobStart` would, then
                // overlay the state. Checkpoints that built every job up
                // front hold jobs not yet started as running records with
                // the started byte clear; their `JobStart` is still queued
                // and starts the restored simulator.
                (1, _) => {
                    let sim = slot.materialize(self.cfg, i, &self.server_ids);
                    sim.restore_state(&mut s)?;
                    // Those checkpoints also kept the simulator of a
                    // completed job.
                    if sim.is_done() {
                        slot.retire();
                    }
                }
                (2, true) => slot.state = JobState::Done(pythia_hadoop::Timeline::get(&mut s)?),
                (t @ (0 | 2), _) => {
                    return Err(s.malformed(format!(
                        "job `{name}` has started byte {started} but state tag {t}"
                    )));
                }
                (t, _) => {
                    return Err(s.malformed(format!("unknown job-slot state tag {t}")));
                }
            }
        }
        s.finish()?;
        self.jobs_remaining = self
            .jobs
            .iter()
            .filter(|j| !matches!(j.state, JobState::Done(_)))
            .count();

        if let Some(mut py) = self.pythia.take() {
            let mut s = rd.section("pythia")?;
            py.restore_state(&self.mr.topology, &mut s)?;
            s.finish()?;
            self.pythia = Some(py);
        }
        if let Some(m) = self.mgmt.as_mut() {
            let mut s = rd.section("mgmt")?;
            m.restore_state(&mut s)?;
            s.finish()?;
        }
        if let Some(h) = self.hedera.as_mut() {
            let mut s = rd.section("hedera")?;
            h.restore_state(&mut s)?;
            s.finish()?;
        }
        let mut s = rd.section("probe")?;
        let probe = NetFlowProbe::get(&mut s)?;
        s.finish()?;
        let mut s = rd.section("flowtrace")?;
        let trace = FlowTrace::get(&mut s)?;
        s.finish()?;
        if !rd.at_end() {
            return Err(malformed(
                "trailer",
                "trailing bytes after the final section".to_string(),
            ));
        }

        if fork {
            self.push_fork_chaos(&mut queue, now)?;
        }

        // Commit. From here on the engine *is* the snapshot.
        self.queue = queue;
        self.flowcheck = flowcheck;
        self.net = net;
        self.dataplane = dataplane;
        self.probe = probe;
        self.trace = trace;
        self.bg_rng = bg_rng;
        self.background_bps = background_bps;
        self.down_links = down_vec.into_iter().collect();
        self.parked_fetches = parked_fetches;
        self.fetch_of_flow = fetch_of_flow;
        self.info_of_fetch = info_of_fetch;
        self.events_processed = events_processed;
        self.rules_installed = rules_installed;
        self.tcam_rejected = tcam_rejected;
        self.flows_unroutable = flows_unroutable;
        self.epoch_batches = epoch_batches;
        self.epoch_buf = epoch_buf;
        self.tenant_rules_issued = tenant_rules_issued;
        self.tenant_rules_installed = tenant_rules_installed;
        self.tenant_tcam_rejected = tenant_tcam_rejected;
        self.rule_generation = rule_generation;
        self.controller_up = controller_up;
        self.controller_down_since = controller_down_since;
        self.controller_down_total = controller_down_total;
        self.controller_outages_seen = controller_outages_seen;
        // A deferred solve resumes pending, exactly as it was; the
        // resolution memo is cold but provably reconstructible (it is only
        // a cache); default forwarding reconverges from the restored down
        // set.
        self.deferral = deferral;
        self.projection_dirty = projection_dirty;
        self.wave_scratch.clear();
        self.path_cache.clear();
        self.routing_epoch = 0;
        self.nexthops = EcmpNextHops::compute_avoiding(&self.mr.topology, &self.down_links);
        self.flows_of_pair.clear();
        for &fid in self.fetch_of_flow.keys() {
            let f = self.net.flow(fid).expect("validated above");
            // BTreeMap iteration is ascending, so each pair list comes
            // out in flow-id order, matching the live engine's invariant.
            self.flows_of_pair
                .entry((f.spec.tuple.src, f.spec.tuple.dst))
                .or_default()
                .push(fid);
        }

        // Resume-safety cross-check: restoring must be a fixed point of
        // snapshotting. Any ambient state that failed to round-trip —
        // a missed field, an order-scrambling container — shows up here
        // as a byte difference, in debug builds, on every resume.
        #[cfg(debug_assertions)]
        if !fork {
            let again = self.snapshot_bytes(now);
            assert!(
                again == bytes,
                "snapshot → restore → snapshot is not byte-identical \
                 ({} vs {} bytes)",
                again.len(),
                bytes.len()
            );
        }
        Ok(now)
    }

    /// Schedule this configuration's chaos events onto a forked queue.
    /// Each must lie strictly after the fork instant `now` — chaos in the
    /// shared warm-up cannot be re-written after the fact.
    fn push_fork_chaos(
        &self,
        queue: &mut EventQueue<Event>,
        now: SimTime,
    ) -> Result<(), SnapshotError> {
        let n_cables = self.mr.trunk_links.len() / 2;
        let after = |what: &str, at: SimTime| -> Result<SimTime, SnapshotError> {
            if at <= now {
                return Err(SnapshotError::Fork {
                    detail: format!("{what} at {at} is not after the fork point {now}"),
                });
            }
            Ok(at)
        };
        for (i, f) in self.cfg.link_faults.iter().enumerate() {
            if f.trunk_cable >= n_cables {
                return Err(SnapshotError::Fork {
                    detail: format!(
                        "link fault #{i} names trunk cable {} of {n_cables}",
                        f.trunk_cable
                    ),
                });
            }
            queue.push(
                after("link fault", SimTime::ZERO + f.fail_at)?,
                Event::LinkState {
                    trunk_cable: f.trunk_cable,
                    up: false,
                },
            );
            if let Some(at) = f.restore_at {
                queue.push(
                    after("link restore", SimTime::ZERO + at)?,
                    Event::LinkState {
                        trunk_cable: f.trunk_cable,
                        up: true,
                    },
                );
            }
        }
        for o in &self.cfg.controller_outages {
            queue.push(
                after("controller outage", SimTime::ZERO + o.down_at)?,
                Event::ControllerState { up: false },
            );
            queue.push(
                after("controller recovery", SimTime::ZERO + o.up_at)?,
                Event::ControllerState { up: true },
            );
        }
        for &at in &self.cfg.agent_respill_at {
            queue.push(
                after("agent respill", SimTime::ZERO + at)?,
                Event::AgentRespill,
            );
        }
        Ok(())
    }

    /// Settle the round: solve rates unless the deferral budget lets the
    /// solve wait ([`Deferral::solve_due`]; with
    /// [`ScenarioConfig::eager_solves`], never), then reschedule the
    /// completion probe if its projection moved.
    ///
    /// Deferring collapses bursts of mutations (a wave of fetch starts, a
    /// run of rule installs) into one solve; the staleness it leaves
    /// behind is held to the deferral budget (see
    /// [`pythia_netsim::deferral`]). The probe is rescheduled only when
    /// its projection actually moved, and a quiet round — no solve and no
    /// flow added or removed since the last peek — skips the peek.
    fn finish_round(&mut self, now: SimTime) {
        let _span = self.flight.span("finish_round");
        let due = if self.cfg.eager_solves {
            self.deferral.is_pending()
        } else {
            self.deferral.solve_due(now, self.queue.peek_time())
        };
        if due {
            self.solve_now();
        }
        // Rule activations that move nothing (the bulk of all events)
        // take this exit.
        if !self.projection_dirty {
            return;
        }
        self.projection_dirty = false;
        let _span = self.flight.span("net_next_completion");
        let next = self.net.next_completion().map(|(t, _)| t);
        match (next, self.flowcheck) {
            (Some(t), Some((_, th))) if t == th => {}
            (Some(t), prev) => {
                if let Some((h, _)) = prev {
                    self.queue.cancel(h);
                }
                self.flowcheck = Some((self.queue.push(t, Event::FlowCheck), t));
            }
            (None, Some((h, _))) => {
                self.queue.cancel(h);
                self.flowcheck = None;
            }
            (None, None) => {}
        }
    }

    /// Run the pending rate solve now and clear the deferral state.
    fn solve_now(&mut self) {
        let _span = self.flight.span("net_recompute");
        self.net.recompute();
        self.deferral.solved();
        self.projection_dirty = true;
    }

    /// Force a deferred rate solve before a handler reads rates or loads
    /// off the network.
    fn sync_rates_for_read(&mut self) {
        if self.deferral.is_pending() {
            self.solve_now();
        }
    }

    /// Mark the network dirty from a single-flow mutation: one of the
    /// in-flight fetches started, completed, or moved.
    fn dirty_net_flow(&mut self) {
        self.deferral.flow_changed(self.fetch_of_flow.len());
        self.projection_dirty = true;
    }

    /// Mark the network dirty from a structural change (background
    /// redraw, link fault, routing reconvergence).
    fn dirty_net_all(&mut self) {
        self.deferral.structural_change();
        self.projection_dirty = true;
    }

    /// Act on a batch of Hadoop outputs, draining `evts` so the caller
    /// can hand the (engine-owned) buffer back for reuse.
    fn apply_hadoop_events(&mut self, now: SimTime, job: JobId, evts: &mut Vec<HadoopEvent>) {
        for e in evts.drain(..) {
            match e {
                HadoopEvent::MapFinishAt { map, at } => {
                    self.queue.push(at, Event::MapFinish(job, map));
                }
                HadoopEvent::SpillIndex { map, server, data } => {
                    let sent = self
                        .pythia
                        .as_mut()
                        .and_then(|py| py.on_spill(now, job, map, server, &data));
                    if let Some((msg, deliver_at)) = sent {
                        self.send_prediction(now, deliver_at, msg);
                    }
                }
                HadoopEvent::ReducerLaunchAt { reducer, at } => {
                    self.queue.push(at, Event::ReducerStart(job, reducer));
                }
                HadoopEvent::ReducerLaunched { reducer, server } => {
                    self.control(
                        now,
                        ControlMsg::ReducerLaunched {
                            job,
                            reducer,
                            server,
                        },
                    );
                }
                HadoopEvent::FetchStart {
                    fetch,
                    map,
                    reducer,
                    src,
                    dst,
                    bytes,
                    src_port,
                    dst_port,
                } => {
                    // Defer to the end of this Hadoop batch: the whole
                    // shuffle wave starts through one amortized pass.
                    self.wave_scratch.push(WaveFetch {
                        fetch,
                        map,
                        reducer,
                        src,
                        dst,
                        app_bytes: bytes,
                        src_port,
                        dst_port,
                    });
                }
                HadoopEvent::SortFinishAt { reducer, at } => {
                    self.queue.push(at, Event::SortFinish(job, reducer));
                }
                HadoopEvent::ReducerFinishAt { reducer, at } => {
                    self.queue.push(at, Event::ReducerFinish(job, reducer));
                }
                HadoopEvent::JobCompleted { .. } => {
                    // The job leaves the loop: drop its simulator, keep
                    // the timeline for the report.
                    if self.jobs[job.0 as usize].retire() {
                        self.jobs_remaining -= 1;
                    }
                }
            }
        }
        if !self.wave_scratch.is_empty() {
            self.start_fetch_wave(job);
        }
    }

    /// Start every buffered fetch of the wave (one Hadoop output batch,
    /// one job) through a single amortized pass: one flight span covers
    /// the wave, the per-job wire seed is mixed once, and each start
    /// rides the pair→path memo its wave predecessors just warmed.
    /// Per-fetch effects — flow-id assignment, dirty weights, index
    /// inserts, flight records — run in arrival order, so the wave is
    /// byte-identical to starting each fetch in place (fetch starts push
    /// no events and draw no randomness; see [`WaveFetch`]).
    fn start_fetch_wave(&mut self, job: JobId) {
        let _span = self.flight.span("fetch_wave");
        let mut wave = std::mem::take(&mut self.wave_scratch);
        let job_seed = self.wire_seed ^ pythia_des::splitmix64(job.0 as u64);
        for f in wave.drain(..) {
            self.start_one_fetch(job, job_seed, f);
        }
        self.wave_scratch = wave;
    }

    /// Resolve the path a fetch tuple takes through the flow tables,
    /// memoized per (src, dst) pair. Resolutions that depended on nothing
    /// beyond the pair (no port-matching rule, no multi-candidate ECMP
    /// choice) are cached until a rule install targets the pair or an
    /// ECMP reconvergence bumps the routing epoch.
    fn resolve_fetch_path(&mut self, tuple: &FiveTuple) -> Result<Path, ResolveError> {
        let key = (tuple.src, tuple.dst);
        if let Some(c) = self.path_cache.get(&key) {
            if c.routing_epoch == self.routing_epoch {
                return Ok(c.path.clone());
            }
        }
        let mut tuple_sensitive = false;
        let path = self.dataplane.resolve_path_tracked(
            &self.mr.topology,
            tuple,
            &self.ecmp,
            &self.nexthops,
            &mut tuple_sensitive,
        )?;
        if !tuple_sensitive {
            self.path_cache.insert(
                key,
                CachedPath {
                    routing_epoch: self.routing_epoch,
                    path: path.clone(),
                },
            );
        }
        Ok(path)
    }

    /// Start one fetch flow. `job_seed` is the per-job wire-overhead seed
    /// (`wire_seed ^ splitmix64(job)`), mixed once per wave by the
    /// batched caller instead of once per fetch.
    fn start_one_fetch(&mut self, job: JobId, job_seed: u64, f: WaveFetch) {
        let WaveFetch {
            fetch,
            map,
            reducer,
            src,
            dst,
            app_bytes,
            src_port,
            dst_port,
        } = f;
        let src_node = self.node_of(src);
        let dst_node = self.node_of(dst);
        debug_assert_ne!(src_node, dst_node, "local fetches bypass the network");
        // What actually crosses the wire: payload + real protocol overhead.
        let wire_bytes = overhead::actual_wire_bytes(app_bytes, map.0, reducer.0, job_seed);
        let tuple = FiveTuple::tcp(src_node, dst_node, src_port, dst_port);
        let resolved = self.resolve_fetch_path(&tuple);
        let Ok(path) = resolved else {
            // Degraded fabric (e.g. every trunk cable down): no route
            // exists right now. Parking the fetch and retrying it on the
            // next topology recovery degrades gracefully where a panic
            // would kill the whole run.
            self.flows_unroutable += 1;
            self.flight
                .record(Component::NetSim, || TraceEvent::FlowUnroutable {
                    src: src_node,
                    dst: dst_node,
                });
            self.parked_fetches.push(ParkedFetch { job, start: f });
            return;
        };
        let fid = self
            .net
            .start_flow(FlowSpec::tcp_transfer(tuple, wire_bytes), path);
        self.dirty_net_flow();
        self.flight
            .record(Component::NetSim, || TraceEvent::FlowStart {
                flow: fid,
                src: src_node,
                dst: dst_node,
                bytes: wire_bytes,
            });
        self.fetch_of_flow.insert(fid, (job, fetch));
        // Flow ids are allocated monotonically, so appending keeps each
        // pair list in flow-id order.
        self.flows_of_pair
            .entry((src_node, dst_node))
            .or_default()
            .push(fid);
        self.info_of_fetch.insert(
            (job, fetch),
            FetchInfo {
                map,
                reducer,
                src,
                dst,
            },
        );
    }

    /// Retry every parked (unroutable) fetch — called when the topology
    /// recovers. Fetches that still have no route simply park again.
    fn retry_parked_fetches(&mut self) {
        let parked = std::mem::take(&mut self.parked_fetches);
        for p in parked {
            // A retry that parks again does not recount as a new fault.
            let before = self.flows_unroutable;
            let seed = self.wire_seed ^ pythia_des::splitmix64(p.job.0 as u64);
            self.start_one_fetch(p.job, seed, p.start);
            if self.flows_unroutable > before {
                self.flows_unroutable = before;
            }
        }
    }

    fn on_flow_complete(&mut self, now: SimTime, fid: FlowId) {
        let _span = self.flight.span("flow_complete");
        let report = self.net.remove_flow(fid);
        self.dirty_net_flow();
        self.trace.push(ShuffleFlowRecord::from_report(
            &report,
            &self.mr.trunk_links,
        ));
        // Crisp measured curves: sample the completing flow's own source
        // curve (a same-timestamp wave coalesces into one point via the
        // delta-encoded push); every other watched counter is analytic
        // and read at the next periodic tick.
        self.probe.sample_node(&self.net, report.spec.tuple.src);
        let (job, fetch) = self
            .fetch_of_flow
            .remove(&fid)
            .expect("completed flow is not a fetch");
        let info = self
            .info_of_fetch
            .remove(&(job, fetch))
            .expect("unknown fetch");
        let src_node = self.mr.servers[info.src.0 as usize];
        let dst_node = self.mr.servers[info.dst.0 as usize];
        if let Some(fids) = self.flows_of_pair.get_mut(&(src_node, dst_node)) {
            // Order-preserving removal keeps the list flow-id sorted.
            if let Some(pos) = fids.iter().position(|&f| f == fid) {
                fids.remove(pos);
            }
        }
        self.flight
            .record(Component::NetSim, || TraceEvent::FlowFinish {
                flow: fid,
                src: src_node,
                dst: dst_node,
            });
        self.control(
            now,
            ControlMsg::FetchCompleted {
                job,
                map: info.map,
                reducer: info.reducer,
                src: info.src,
                dst: info.dst,
            },
        );
        let mut evts = std::mem::take(&mut self.hadoop_scratch);
        self.sim_mut(job)
            .fetch_completed_into(now, fetch, &mut evts);
        self.apply_hadoop_events(now, job, &mut evts);
        self.hadoop_scratch = evts;
    }

    /// Dispatch one control-plane message into the shared service
    /// pipeline ([`service::dispatch_control`]) and return the rules it
    /// provoked. No-op (empty) when the scenario runs no Pythia — the
    /// same guard every former `if let Some(py)` site had. Tapped runs
    /// record the message first, so a daemon can replay the identical
    /// stream.
    fn control_rules(
        &mut self,
        now: SimTime,
        msg: &ControlMsg,
    ) -> Vec<pythia_openflow::PendingRule> {
        let Some(mut py) = self.pythia.take() else {
            return Vec::new();
        };
        if let Some(tap) = &self.control_tap {
            tap.borrow_mut().push((now, msg.clone()));
        }
        let rules = service::dispatch_control(&mut py, &mut self.controller, now, msg);
        self.pythia = Some(py);
        rules
    }

    /// Dispatch one control-plane message and schedule whatever rules it
    /// produced under the message's tenant.
    fn control(&mut self, now: SimTime, msg: ControlMsg) {
        let tenant = service::tenant_of(&msg);
        let rules = self.control_rules(now, &msg);
        self.schedule_rules(now, rules, tenant);
    }

    /// Background load changed: refresh the Pythia residual table and
    /// re-place active pairs whose path collapsed (one `BackgroundUpdate`
    /// control message).
    fn control_background_update(&mut self, now: SimTime) {
        if self.pythia.is_some() {
            let loads: Arc<[f64]> = Arc::from(self.background_bps.as_slice());
            self.control(now, ControlMsg::BackgroundUpdate { loads });
        }
    }

    /// Hand one prediction message to the management network and schedule
    /// every copy the channel delivers. On the ideal (default) channel this
    /// is exactly one delivery at `deliver_at` — bit-identical to a direct
    /// push.
    fn send_prediction(&mut self, now: SimTime, deliver_at: SimTime, msg: PredictionMsg) {
        let base = deliver_at.saturating_since(now);
        let mgmt = self
            .mgmt
            .as_mut()
            .expect("Pythia runs carry a mgmt channel");
        let lost_before = mgmt.stats.transmissions_lost;
        let deliveries = mgmt.transmit(now, base);
        let copies = deliveries.len() as u32;
        let lost = (mgmt.stats.transmissions_lost - lost_before) as u32;
        self.flight
            .record(Component::Instrument, || TraceEvent::PredictionWire {
                copies,
                lost,
            });
        let msg = Arc::new(msg);
        for at in deliveries {
            self.queue
                .push(at, Event::PredictionDeliver(Arc::clone(&msg)));
        }
    }

    /// Issue a batch of pending rules on behalf of `tenant`
    /// ([`SYSTEM_TENANT`] for fabric-driven rules). Per-prediction mode
    /// schedules each install directly; epoch-batched mode parks the
    /// rules in the per-pod buffer the next `EpochFlush` drains — one
    /// batched controller push per pod per epoch.
    fn schedule_rules(
        &mut self,
        now: SimTime,
        rules: Vec<pythia_openflow::PendingRule>,
        tenant: u32,
    ) {
        if (tenant as usize) < self.tenant_rules_issued.len() {
            self.tenant_rules_issued[tenant as usize] += rules.len() as u64;
        }
        if self.cfg.install_epoch.is_some() {
            for p in rules {
                let pod = self.pod_of_node[p.switch.0 as usize];
                self.epoch_buf.entry(pod).or_default().push(BufferedRule {
                    switch: p.switch,
                    rule: p.rule,
                    delay: p.delay,
                    tenant,
                });
            }
            return;
        }
        for p in rules {
            self.queue.push(
                now + p.delay,
                Event::RuleActive {
                    switch: p.switch,
                    rule: p.rule,
                    generation: self.rule_generation,
                    tenant,
                },
            );
        }
    }

    /// Drain the per-pod install buffers (epoch-batched mode): every pod
    /// with buffered rules gets one batched install this epoch, rules in
    /// arrival order within the batch. Install latency still applies per
    /// rule — batching amortizes controller round-trips, not switch
    /// programming time.
    fn on_epoch_flush(&mut self, now: SimTime) {
        let buf = std::mem::take(&mut self.epoch_buf);
        for (_pod, rules) in buf {
            if rules.is_empty() {
                continue;
            }
            self.epoch_batches += 1;
            for b in rules {
                self.queue.push(
                    now + b.delay,
                    Event::RuleActive {
                        switch: b.switch,
                        rule: b.rule,
                        generation: self.rule_generation,
                        tenant: b.tenant,
                    },
                );
            }
        }
        if !self.all_done() {
            if let Some(epoch) = self.cfg.install_epoch {
                self.queue.push(now + epoch, Event::EpochFlush);
            }
        }
    }

    fn on_rule_active(&mut self, switch: NodeId, rule: FlowRule, tenant: u32) {
        // A rule matching an explicit (src, dst) pair can only change that
        // pair's resolution; wildcard matchers (none of our controllers
        // emit them) invalidate everything via the routing epoch.
        match (rule.matcher.src, rule.matcher.dst) {
            (Some(src), Some(dst)) => {
                self.path_cache.remove(&(src, dst));
            }
            _ => {
                self.path_cache.clear();
                self.routing_epoch += 1;
            }
        }
        // TCAM overflow: the rule is simply not installed; traffic keeps
        // using the default (ECMP) path — graceful degradation, not an
        // error.
        if self.dataplane.install(switch, rule).is_ok() {
            self.rules_installed += 1;
            if (tenant as usize) < self.tenant_rules_installed.len() {
                self.tenant_rules_installed[tenant as usize] += 1;
            }
            self.flight
                .record(Component::Dataplane, || TraceEvent::RuleActive {
                    switch,
                    src: rule.matcher.src,
                    dst: rule.matcher.dst,
                    out_link: rule.out_link,
                });
        } else {
            self.tcam_rejected += 1;
            if (tenant as usize) < self.tenant_tcam_rejected.len() {
                self.tenant_tcam_rejected[tenant as usize] += 1;
            }
            self.flight
                .record(Component::Dataplane, || TraceEvent::RuleTcamReject {
                    switch,
                });
        }
        // A newly active rule redirects matching *in-flight* flows too —
        // hardware matches packets, not flows. Pythia installs
        // server-pair rules, so the pair index hands back exactly the
        // flows the matcher can hit; the full scan remains only for
        // wildcard matchers no current controller emits.
        let mut matching = std::mem::take(&mut self.candidates_scratch);
        matching.clear();
        match (rule.matcher.src, rule.matcher.dst) {
            (Some(src), Some(dst)) => {
                if let Some(fids) = self.flows_of_pair.get(&(src, dst)) {
                    // Lists are in flow-id order, matching the id-ordered
                    // full scan this replaces.
                    matching.extend(fids.iter().filter_map(|&fid| {
                        let f = self.net.flow(fid)?;
                        (!f.is_complete() && rule.matcher.matches(&f.spec.tuple))
                            .then_some((fid, f.spec.tuple))
                    }));
                }
            }
            _ => {
                matching.extend(
                    self.net
                        .flows()
                        .filter(|(_, f)| {
                            f.spec.size_bytes.is_some()
                                && !f.is_complete()
                                && rule.matcher.matches(&f.spec.tuple)
                        })
                        .map(|(id, f)| (id, f.spec.tuple)),
                );
            }
        }
        for &(fid, tuple) in &matching {
            if let Ok(path) = self.resolve_fetch_path(&tuple) {
                if path.links() != self.net.flow(fid).unwrap().path.links() {
                    self.net.reroute_flow(fid, path);
                    self.dirty_net_flow();
                }
            }
        }
        matching.clear();
        self.candidates_scratch = matching;
    }

    /// The SDN controller crashed or came back. Installed rules survive a
    /// crash (switches forward autonomously without their controller) but
    /// in-flight installs are lost and no new rules can land until
    /// recovery, when the controller resyncs the full rule set from
    /// Pythia's collector/allocator state.
    fn on_controller_state(&mut self, now: SimTime, up: bool) {
        if up == self.controller_up {
            return;
        }
        self.controller_up = up;
        self.flight
            .record(Component::Engine, || TraceEvent::ControllerState { up });
        if up {
            if let Some(since) = self.controller_down_since.take() {
                self.controller_down_total += now.saturating_since(since);
            }
            if self.pythia.is_some() {
                let rules = self.control_rules(now, &ControlMsg::ControllerRestart);
                self.flight
                    .record(Component::Engine, || TraceEvent::ControllerResync {
                        rules: rules.len() as u32,
                    });
                self.schedule_rules(now, rules, SYSTEM_TENANT);
            }
        } else {
            self.controller_outages_seen += 1;
            self.controller_down_since = Some(now);
            // An install that has not reached its switch dies with the
            // controller connection: bump the epoch so every in-flight
            // `RuleActive` is recognized as stale at dispatch. O(1) per
            // crash, no handle bookkeeping on the install hot path.
            self.rule_generation += 1;
            // Epoch-batched installs not yet pushed die the same death —
            // the restart resync re-derives every surviving rule.
            self.epoch_buf.clear();
            self.control(now, ControlMsg::ControllerDown);
        }
    }

    /// Every instrumentation agent restarts and replays the spill indices
    /// still on disk: the predictions are re-sent end to end and the
    /// collector's `(job, map)` dedup must absorb every copy.
    fn on_agent_respill(&mut self, now: SimTime) {
        if self.pythia.is_none() {
            return;
        }
        for i in 0..self.jobs.len() {
            let job = JobId(i as u32);
            let mut evts = std::mem::take(&mut self.hadoop_scratch);
            // Jobs that have not started (no spill indices on disk yet)
            // or are done (their reducers are done; a replay would be
            // deduped anyway) have no simulator to replay.
            let JobState::Running(sim) = &mut self.jobs[i].state else {
                self.hadoop_scratch = evts;
                continue;
            };
            sim.respill_completed_into(&mut evts);
            for e in evts.drain(..) {
                if let HadoopEvent::SpillIndex { map, server, data } = e {
                    let sent = self
                        .pythia
                        .as_mut()
                        .and_then(|py| py.on_spill(now, job, map, server, &data));
                    if let Some((msg, deliver_at)) = sent {
                        self.send_prediction(now, deliver_at, msg);
                    }
                }
            }
            self.hadoop_scratch = evts;
        }
    }

    /// TTL sweep over parked (unknown-reducer) collector entries.
    fn on_parked_sweep(&mut self, now: SimTime) {
        self.control(now, ControlMsg::ExpireParked);
        if !self.all_done() {
            if let Some(ttl) = self.cfg.pythia.parked_ttl {
                self.queue.push(now + ttl, Event::ParkedSweep);
            }
        }
    }

    fn on_hedera_tick(&mut self, now: SimTime) {
        // Hedera's rebalance plans from current flow rates and loads.
        self.sync_rates_for_read();
        if !self.controller_up {
            // Hedera polls flow stats through the controller: a downed
            // controller means no reroutes this tick.
            if !self.all_done() {
                self.queue
                    .push(now + self.cfg.hedera.period, Event::HederaTick);
            }
            return;
        }
        if let Some(mut hedera) = self.hedera.take() {
            // Borrowed view: the scheduler only reads the background
            // table during the call, so no per-tick clone.
            let bg = &self.background_bps;
            let reroutes = hedera.rebalance(&self.net, &mut self.controller, &|l: LinkId| {
                bg[l.0 as usize]
            });
            for r in reroutes {
                // Skip flows that completed during this tick's planning.
                if self.net.flow(r.flow).is_some() {
                    self.net.reroute_flow(r.flow, r.path);
                    self.dirty_net_flow();
                }
            }
            self.hedera = Some(hedera);
            if !self.all_done() {
                self.queue
                    .push(now + self.cfg.hedera.period, Event::HederaTick);
            }
        }
    }

    /// Redraw the background split within each trunk direction group and
    /// notify the Pythia control loop (whose link-load view just changed).
    fn on_background_change(&mut self, now: SimTime) {
        let BackgroundProfile::Fluctuating {
            period_secs,
            spread,
        } = self.cfg.background
        else {
            return;
        };
        let frac = self.cfg.oversubscription.background_fraction();
        if frac > 0.0 {
            for (cap, members) in &self.bg_groups {
                let alive: Vec<&(LinkId, FlowId)> = members
                    .iter()
                    .filter(|(l, _)| !self.down_links.contains(l))
                    .collect();
                if alive.is_empty() {
                    continue;
                }
                // The direction's total background squeezes onto the
                // surviving cables (scaled down to what they can carry).
                let frac_alive = (frac * members.len() as f64 / alive.len() as f64).min(0.995);
                let rates =
                    redraw_group_rates(*cap, alive.len(), frac_alive, spread, &mut self.bg_rng);
                for (&&(link, fid), rate) in alive.iter().zip(rates) {
                    self.net.set_cbr_rate(fid, rate.max(1.0));
                    self.background_bps[link.0 as usize] = rate;
                }
            }
            self.dirty_net_all();
            // Pythia's link-load service sees the shift: one O(links)
            // residual refresh, then re-place active pairs whose path
            // collapsed using table lookups only.
            self.control_background_update(now);
        }
        if !self.all_done() {
            self.queue.push(
                now + pythia_des::SimDuration::from_secs_f64(period_secs),
                Event::BackgroundChange,
            );
        }
    }

    /// A trunk cable failed or recovered: degrade/restore both directed
    /// links, update the controller's routing graph, flush dead rules,
    /// reconverge ECMP, reroute affected in-flight flows, and let Pythia
    /// re-place its active pairs.
    fn on_link_state(&mut self, now: SimTime, trunk_cable: usize, up: bool) {
        // trunk_links holds duplex pairs consecutively: cable i is
        // entries 2i and 2i+1.
        let a = self.mr.trunk_links[2 * trunk_cable];
        let bdir = self.mr.trunk_links[2 * trunk_cable + 1];
        for l in [a, bdir] {
            self.flight
                .record(Component::Engine, || TraceEvent::LinkState { link: l, up });
            if up {
                self.down_links.remove(&l);
                self.net
                    .set_link_capacity(l, self.orig_capacity[l.0 as usize]);
            } else {
                self.down_links.insert(l);
                // A dead cable carries (effectively) nothing; 1 bps keeps
                // the fair-share arithmetic well-defined.
                self.net.set_link_capacity(l, 1.0);
                // The iperf endpoint on the cable loses carrier too.
                for (_, members) in &self.bg_groups {
                    for &(link, fid) in members {
                        if link == l {
                            self.net.set_cbr_rate(fid, 1.0);
                            self.background_bps[l.0 as usize] = 0.0;
                        }
                    }
                }
                self.dataplane.remove_rules_via(l);
            }
            // The controller's routing-graph update flows through the
            // control-plane service on Pythia runs (so a daemon replay
            // keeps identical controller state); other schedulers poke
            // the controller directly, as before.
            if self.pythia.is_some() {
                self.control(now, ControlMsg::LinkState { link: l, up });
            } else {
                self.controller.on_link_state(l, up);
            }
        }
        self.dirty_net_all();
        // Routing protocol reconvergence for default (ECMP) forwarding.
        self.nexthops = EcmpNextHops::compute_avoiding(&self.mr.topology, &self.down_links);
        self.routing_epoch += 1;
        // Re-resolve in-flight flows touching a changed link (on failure)
        // or all flows (on recovery ECMP may spread them back). The fetch
        // registry (flow-id ordered) and the per-link incidence lists
        // replace the old full-flow scan: cost is O(fetches touched), not
        // O(all flows).
        let mut affected = std::mem::take(&mut self.candidates_scratch);
        affected.clear();
        if up {
            // Every in-flight fetch, in flow-id order.
            affected.extend(self.fetch_of_flow.keys().map(|&fid| {
                let f = self.net.flow(fid).unwrap();
                (fid, f.spec.tuple)
            }));
        } else {
            // Only fetches whose current path crosses a dead link. The
            // union over an unordered set is sorted + deduplicated, so
            // downstream work runs in flow-id order like the scan it
            // replaces.
            for &l in &self.down_links {
                for fid in self.net.flows_on_link(l) {
                    if self.fetch_of_flow.contains_key(&fid) {
                        let tuple = self.net.flow(fid).unwrap().spec.tuple;
                        affected.push((fid, tuple));
                    }
                }
            }
            affected.sort_unstable_by_key(|&(fid, _)| fid);
            affected.dedup_by_key(|&mut (fid, _)| fid);
        }
        for &(fid, tuple) in &affected {
            if let Ok(path) = self.resolve_fetch_path(&tuple) {
                if path.links() != self.net.flow(fid).unwrap().path.links() {
                    self.net.reroute_flow(fid, path);
                }
            }
        }
        affected.clear();
        self.candidates_scratch = affected;
        // A recovery may give parked (unroutable) fetches a route again.
        if up && !self.parked_fetches.is_empty() {
            self.retry_parked_fetches();
        }
        // Pythia re-places active pairs on the updated path cache.
        self.control_background_update(now);
        // On restore, the fluctuating profile re-populates the cable on
        // its next redraw; static profiles restore immediately.
        if up {
            if let BackgroundProfile::Static = self.cfg.background {
                let frac = self.cfg.oversubscription.background_fraction();
                for (cap, members) in &self.bg_groups {
                    for &(link, fid) in members {
                        if link == a || link == bdir {
                            self.net.set_cbr_rate(fid, (frac * cap).max(1.0));
                            self.background_bps[link.0 as usize] = frac * cap;
                        }
                    }
                }
                // The restore changed background after the re-place above
                // (kept in that order deliberately); sync the residual
                // table so later placements see the restored load.
                if self.pythia.is_some() {
                    let loads: Arc<[f64]> = Arc::from(self.background_bps.as_slice());
                    self.control(now, ControlMsg::BackgroundRefresh { loads });
                }
            }
        }
    }

    fn on_link_load_sample(&mut self, now: SimTime) {
        // The controller samples real link loads: settle deferred solves.
        self.sync_rates_for_read();
        if self.pythia.is_some() {
            // Pythia runs ship the sample through the control-plane
            // service as one dense telemetry message, so a daemon replay
            // evolves identical controller load state.
            let loads: Arc<[f64]> = (0..self.mr.topology.num_links())
                .map(|i| self.net.link_load_bps(LinkId(i as u32)))
                .collect();
            self.control(now, ControlMsg::LinkLoads { loads });
        } else {
            for (l, _) in self.mr.topology.links() {
                self.controller
                    .observe_link_load(l, self.net.link_load_bps(l));
            }
        }
        if !self.all_done() {
            self.queue
                .push(now + self.cfg.link_load_period, Event::LinkLoadSample);
        }
    }

    fn build_report(self) -> MultiRunReport {
        // Group parallel trunk cables by direction for balance metrics.
        let mut trunk_groups: BTreeMap<(NodeId, NodeId), Vec<LinkId>> = BTreeMap::new();
        for &l in &self.mr.trunk_links {
            let link = self.mr.topology.link(l);
            trunk_groups
                .entry((link.src, link.dst))
                .or_default()
                .push(l);
        }
        let trunk_groups: Vec<Vec<LinkId>> = trunk_groups.into_values().collect();
        let measured_curves = self.probe.curves().map(|(n, c)| (n, c.clone())).collect();
        let predicted_curves = match &self.pythia {
            Some(py) => self
                .mr
                .servers
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| Some((n, py.predicted_curve(ServerId(i as u32))?.clone())))
                .collect(),
            None => BTreeMap::new(),
        };
        let spills_per_server = match &self.pythia {
            Some(py) => (0..self.mr.servers.len() as u32)
                .map(|i| py.spills_decoded(ServerId(i)))
                .collect(),
            None => vec![0; self.mr.servers.len()],
        };
        let jobs: Vec<JobOutcome> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobOutcome {
                job: JobId(i as u32),
                name: j.name.clone(),
                started_at: j.start_at,
                timeline: match &j.state {
                    JobState::Running(sim) => sim.timeline.clone(),
                    JobState::Done(tl) => tl.clone(),
                    JobState::Pending(_) => panic!("report built before job `{}` started", j.name),
                },
            })
            .collect();
        let tenant_usage: Vec<pythia_metrics::TenantUsage> = jobs
            .iter()
            .map(|j| {
                let i = j.job.0 as usize;
                pythia_metrics::TenantUsage {
                    job: j.job.0,
                    name: j.name.clone(),
                    completion_secs: j
                        .timeline
                        .completion()
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(f64::NAN),
                    slowdown: None,
                    rules_issued: self.tenant_rules_issued[i],
                    rules_installed: self.tenant_rules_installed[i],
                    tcam_rejected: self.tenant_tcam_rejected[i],
                }
            })
            .collect();
        let mut degradation = DegradationReport {
            rules_failed: self.controller.stats.rules_failed,
            rules_timed_out: self.controller.stats.rules_timed_out,
            rules_tcam_rejected: self.tcam_rejected,
            controller_outages: self.controller_outages_seen,
            controller_down_secs: self.controller_down_total.as_secs_f64(),
            flows_unroutable: self.flows_unroutable,
            background_flows_skipped: self.background_flows_skipped,
            ..Default::default()
        };
        if let Some(m) = &self.mgmt {
            degradation.predictions_sent = m.stats.messages_sent;
            degradation.predictions_delivered = m.stats.deliveries;
            degradation.prediction_transmissions_lost = m.stats.transmissions_lost;
            degradation.predictions_lost = m.stats.messages_lost;
        }
        if let Some(py) = &self.pythia {
            let c = py.collector_totals();
            degradation.predictions_deduped = c.duplicates_dropped;
            degradation.predictions_retracted = c.retractions;
            degradation.predictions_malformed = c.malformed_dropped;
            degradation.parked_expired = c.parked_expired;
            let stats = py.stats();
            degradation.demands_deferred = stats.demands_deferred;
            degradation.rules_reinstalled = stats.rules_reinstalled;
            degradation.demands_no_path = stats.demands_no_path;
        }
        // Engine-health counters for the flight recorder: where the event
        // queue and the rate solver actually spent their work.
        self.flight
            .count("eventq_dead_shed", self.queue.dead_shed());
        self.flight
            .count("eventq_compactions", self.queue.compactions());
        let ns = self.net.stats();
        self.flight.count("net_recomputes", ns.recomputes);
        self.flight.count("net_region_links", ns.region_links);
        self.flight.count("net_region_flows", ns.region_flows);
        self.flight
            .count("net_advance_flow_steps", ns.advance_flow_steps);
        self.flight.count("net_heap_pushes", ns.heap_pushes);
        self.flight
            .count("net_heap_compactions", ns.heap_compactions);
        self.flight
            .count("net_cbr_flow_updates", ns.cbr_flow_updates);
        let trace_stats = self.flight.stats();
        let trace_events = self.flight.take_events();
        MultiRunReport {
            scheduler: self.cfg.scheduler.label().to_string(),
            oversubscription: self.cfg.oversubscription.0,
            seed: self.cfg.seed,
            jobs,
            flow_trace: self.trace,
            measured_curves,
            predicted_curves,
            spills_per_server,
            events_processed: self.events_processed,
            rules_installed: self.rules_installed,
            hedera_reroutes: self.hedera.as_ref().map(|h| h.reroutes_issued).unwrap_or(0),
            epoch_batches: self.epoch_batches,
            tenant_usage,
            degradation,
            trunk_links: self.mr.trunk_links.clone(),
            trunk_groups,
            trace_events,
            trace_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::TopologyBuilder;

    /// Regression for the former `expect("bad background path")` at
    /// engine construction: a background entry that forms no valid path
    /// (a degraded or degenerate fabric handing back an empty or
    /// discontinuous link list) must be skipped and counted in the
    /// degradation report, not panic the run before it starts.
    #[test]
    fn degenerate_background_entry_is_skipped_not_panicking() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_server("s0", 0);
        let s1 = b.add_server("s1", 1);
        let t0 = b.add_tor_switch("tor0", 0);
        let t1 = b.add_tor_switch("tor1", 1);
        let (s0_up, _) = b.add_duplex(s0, t0, 1e9);
        b.add_duplex(s1, t1, 1e9);
        let (trunk_up, _) = b.add_duplex(t0, t1, 1e9);
        let topo = b.build();
        let mut net = FlowNet::new(topo.clone());

        let cbr = |sport: u16| FlowSpec::cbr(FiveTuple::udp(t0, t1, sport, 5001), 1e8);
        let good = (cbr(1), vec![trunk_up]);
        // trunk_up ends at tor1 but s0_up starts at s0: discontinuous.
        let discontinuous = (cbr(2), vec![trunk_up, s0_up]);
        let empty = (cbr(3), vec![]);

        let r = install_background_flows(&mut net, &topo, vec![good, discontinuous, empty]);
        assert_eq!(r.skipped, 2);
        assert_eq!(r.groups.len(), 1, "only the valid entry installed");
        assert_eq!(r.groups[0].1.len(), 1);
        assert!(r.background_bps[trunk_up.0 as usize] > 0.0);
        // Skipped entries leave no phantom load behind.
        assert_eq!(r.background_bps[s0_up.0 as usize], 0.0);
    }
}
