//! The control-plane service core: prediction ingest → rule install as a
//! reusable state machine.
//!
//! The batch engine ([`crate::engine`]) and the live daemon
//! (`pythia-daemon`) drive the *same* collector + allocator + controller
//! pipeline; this module is the shared seam. Every message the engine
//! feeds into [`pythia_core::PythiaSystem`] or
//! [`pythia_openflow::Controller`] is expressible as one [`ControlMsg`],
//! and [`dispatch_control`] turns a message into the batch of
//! [`PendingRule`] installs it provokes. The engine routes its handlers
//! through this dispatcher (the byte-identical refcheck fingerprints pin
//! that the re-route changed nothing); the daemon replays the identical
//! message stream against an [`InstallBackend`]-shaped sink — which is
//! exactly how the daemon-vs-batch equivalence test works.
//!
//! [`ServiceCore`] bundles the state the dispatcher needs (sharded
//! collector, SDN controller, pod map, background residuals) and knows
//! how to build it from a [`ScenarioConfig`] *identically* to
//! `Engine::new`, so a daemon fed the tapped prediction stream of a
//! batch run reproduces its rule stream byte for byte.
//!
//! [`InstallBackend`]: ../../pythia_daemon/backend/trait.InstallBackend.html

use std::sync::Arc;

use pythia_core::{PredictionMsg, PythiaSystem};
use pythia_des::{RngFactory, SimTime};
use pythia_hadoop::{JobId, MapTaskId, ReducerId, ServerId};
use pythia_netsim::{background_flows, LinkId, MultiRack};
use pythia_openflow::{Controller, PendingRule};
use pythia_trace::Trace;

use crate::config::{ScenarioConfig, SchedulerKind};

/// Tenant id used for rules not attributable to a single job (controller
/// resyncs, background re-placements).
pub const SYSTEM_TENANT: u32 = u32::MAX;

/// One control-plane input: everything the engine (or a live agent
/// fleet) can tell the collector/allocator/controller pipeline.
///
/// Payload-bearing variants share their heap data via [`Arc`], so a
/// message is cheap to clone (tap recording, bounded-queue handoff,
/// cross-thread ingest) and `Send` for the daemon's channel API.
#[derive(Debug, Clone)]
pub enum ControlMsg {
    /// A prediction delivered to the collector (post management network:
    /// the daemon ingests *deliveries*, the lossy wire stays engine-side).
    Prediction(Arc<PredictionMsg>),
    /// A reducer was scheduled on `server` — parked predictions for the
    /// job may now be placeable.
    ReducerLaunched {
        /// Job owning the reducer.
        job: JobId,
        /// The launched reducer.
        reducer: ReducerId,
        /// The Hadoop server it landed on.
        server: ServerId,
    },
    /// A shuffle fetch finished — the collector drains the delivered
    /// demand from its aggregate.
    FetchCompleted {
        /// Job owning the fetch.
        job: JobId,
        /// Source map task.
        map: MapTaskId,
        /// Destination reducer.
        reducer: ReducerId,
        /// Mapper-side server.
        src: ServerId,
        /// Reducer-side server.
        dst: ServerId,
    },
    /// Periodic link-load telemetry (dense, indexed by [`LinkId`]) for
    /// the controller's load view.
    LinkLoads {
        /// Observed load per link, bits/sec.
        loads: Arc<[f64]>,
    },
    /// A directed link failed or recovered (controller routing-graph
    /// update; the fabric-side consequences stay with the caller).
    LinkState {
        /// The directed link.
        link: LinkId,
        /// `true` = recovered.
        up: bool,
    },
    /// The background load shifted: refresh the residual table *and*
    /// re-place active pairs whose path collapsed.
    BackgroundUpdate {
        /// CBR background per link, bits/sec.
        loads: Arc<[f64]>,
    },
    /// Refresh the residual table only (no re-placement sweep) — the
    /// post-recovery sync of a statically-profiled fabric.
    BackgroundRefresh {
        /// CBR background per link, bits/sec.
        loads: Arc<[f64]>,
    },
    /// The SDN controller crashed: stop issuing rules.
    ControllerDown,
    /// The SDN controller recovered: resync the full surviving rule set.
    ControllerRestart,
    /// TTL sweep over parked (unknown-reducer) collector entries.
    ExpireParked,
}

/// The tenant (job) a message's rules are attributed to;
/// [`SYSTEM_TENANT`] for fabric-driven messages.
pub fn tenant_of(msg: &ControlMsg) -> u32 {
    match msg {
        ControlMsg::Prediction(m) => m.job.0,
        ControlMsg::ReducerLaunched { job, .. } | ControlMsg::FetchCompleted { job, .. } => job.0,
        _ => SYSTEM_TENANT,
    }
}

/// Feed one message into the pipeline and return the rule installs it
/// provoked. This is the *only* mutation path shared by the batch engine
/// and the daemon — identical message streams against identical initial
/// state produce identical rule streams.
pub fn dispatch_control(
    py: &mut PythiaSystem,
    controller: &mut Controller,
    now: SimTime,
    msg: &ControlMsg,
) -> Vec<PendingRule> {
    match msg {
        ControlMsg::Prediction(m) => py.on_prediction_delivered(now, m, controller),
        ControlMsg::ReducerLaunched {
            job,
            reducer,
            server,
        } => py.on_reducer_launched(now, *job, *reducer, *server, controller),
        ControlMsg::FetchCompleted {
            job,
            map,
            reducer,
            src,
            dst,
        } => {
            py.on_fetch_completed(*job, *map, *reducer, *src, *dst);
            Vec::new()
        }
        ControlMsg::LinkLoads { loads } => {
            for (i, &bps) in loads.iter().enumerate() {
                controller.observe_link_load(LinkId(i as u32), bps);
            }
            Vec::new()
        }
        ControlMsg::LinkState { link, up } => {
            controller.on_link_state(*link, *up);
            Vec::new()
        }
        ControlMsg::BackgroundUpdate { loads } => {
            py.set_background_from(loads);
            py.on_background_update(now, controller)
        }
        ControlMsg::BackgroundRefresh { loads } => {
            py.set_background_from(loads);
            Vec::new()
        }
        ControlMsg::ControllerDown => {
            py.set_controller_down();
            Vec::new()
        }
        ControlMsg::ControllerRestart => py.on_controller_restart(now, controller),
        ControlMsg::ExpireParked => {
            py.expire_parked(now);
            Vec::new()
        }
    }
}

/// Building a [`ServiceCore`] can fail in configuration-shaped ways; no
/// panics on the service path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The scenario does not run the Pythia control plane (ECMP and
    /// Hedera have no prediction pipeline to serve).
    NotPythia {
        /// The scheduler the configuration named.
        scheduler: &'static str,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NotPythia { scheduler } => write!(
                f,
                "the control-plane service requires the Pythia scheduler, \
                 configuration names {scheduler}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Pod (fat-tree) or rack (leaf fabrics) of every node; `u32::MAX` for
/// core switches, which belong to no pod. This drives collector sharding
/// and per-pod install batching — the engine and the daemon must agree
/// on it byte for byte.
pub fn pod_of_nodes(mr: &MultiRack) -> Vec<u32> {
    let mut pod_of_node = vec![u32::MAX; mr.topology.num_nodes()];
    if let Some(clos) = &mr.clos {
        for &srv in &mr.servers {
            if let Some((edge, _)) = clos.host_up(srv) {
                if let Some(pod) = clos.pod_of_edge(edge) {
                    pod_of_node[srv.0 as usize] = pod;
                    pod_of_node[edge.0 as usize] = pod;
                }
            }
        }
        for pod in 0..clos.k() {
            for &agg in clos.aggs_of_pod(pod) {
                pod_of_node[agg.0 as usize] = pod;
            }
        }
    } else {
        for (n, node) in mr.topology.nodes() {
            if let Some(rack) = node.rack() {
                pod_of_node[n.0 as usize] = rack;
            }
        }
    }
    pod_of_node
}

/// The static CBR background per link (bits/sec) the scenario starts
/// with — what the link-load service would report net of Pythia's own
/// shuffle traffic. Must match the engine's seeding of the residual
/// table exactly.
pub fn static_background_bps(mr: &MultiRack, cfg: &ScenarioConfig) -> Vec<f64> {
    let mut background_bps = vec![0.0; mr.topology.num_links()];
    for (spec, links) in background_flows(&mr.topology, &mr.trunk_links, cfg.oversubscription) {
        // Entries with no valid path install no flow engine-side (they are
        // skipped and counted there), so they contribute no load here
        // either — both sides see the same residual table.
        if pythia_netsim::Path::new(&mr.topology, links.clone()).is_err() {
            continue;
        }
        if let pythia_netsim::FlowKind::Cbr { rate_bps } = spec.kind {
            for &l in &links {
                background_bps[l.0 as usize] += rate_bps;
            }
        }
    }
    background_bps
}

/// The state [`dispatch_control`] mutates, bundled with the fabric
/// context needed to build it — the daemon's heart, constructed
/// *identically* to the corresponding pieces of `Engine::new` so a
/// replayed message stream evolves the same bytes.
pub struct ServiceCore {
    /// The pod-sharded collector + allocator.
    pub pythia: PythiaSystem,
    /// The SDN controller (path candidates, rule issue, install latency).
    pub controller: Controller,
    /// Pod of every node (see [`pod_of_nodes`]).
    pub pod_of_node: Vec<u32>,
    /// The built fabric (topology, servers, trunk links, Clos structure).
    pub mr: MultiRack,
    /// The flight recorder every component reports into.
    pub trace: Trace,
}

impl ServiceCore {
    /// Build the service core for a scenario. [`ServiceError::NotPythia`]
    /// unless the configuration runs the Pythia scheduler.
    pub fn from_config(cfg: &ScenarioConfig) -> Result<ServiceCore, ServiceError> {
        if cfg.scheduler != SchedulerKind::Pythia {
            return Err(ServiceError::NotPythia {
                scheduler: cfg.scheduler.label(),
            });
        }
        let mr = cfg.topology.build();
        let rngs = RngFactory::new(cfg.seed);
        let trace = Trace::new(&cfg.trace);
        let mut controller = Controller::with_clos(
            mr.topology.clone(),
            mr.clos.clone(),
            cfg.controller.clone(),
            &rngs,
        );
        controller.set_trace(trace.clone());
        let pod_of_node = pod_of_nodes(&mr);
        let pod_of_server: Vec<u32> = mr
            .servers
            .iter()
            .map(|&n| pod_of_node[n.0 as usize])
            .collect();
        let mut pythia = PythiaSystem::new(
            cfg.pythia.clone(),
            &mr.topology,
            mr.servers.clone(),
            pod_of_server,
            cfg.collector_shards,
        );
        pythia.set_trace(trace.clone());
        pythia.set_background_from(&static_background_bps(&mr, cfg));
        Ok(ServiceCore {
            pythia,
            controller,
            pod_of_node,
            mr,
            trace,
        })
    }

    /// Dispatch one message (see [`dispatch_control`]).
    pub fn dispatch(&mut self, now: SimTime, msg: &ControlMsg) -> Vec<PendingRule> {
        self.trace.set_now(now);
        dispatch_control(&mut self.pythia, &mut self.controller, now, msg)
    }

    /// Dispatch a time-ordered message batch — the shape a socket
    /// transport hands a live daemon, and what the engine's wave-batched
    /// fetch chain produces. `sink` sees every message *after* dispatch
    /// with the rules it provoked, so per-message attribution (tenants,
    /// backends, latency stamps) is preserved while the trace clock is
    /// stamped once per distinct timestamp instead of once per message.
    /// Message-by-message equivalent to calling [`ServiceCore::dispatch`]
    /// in a loop.
    pub fn dispatch_batch<I, F>(&mut self, msgs: I, mut sink: F)
    where
        I: IntoIterator<Item = (SimTime, ControlMsg)>,
        F: FnMut(SimTime, &ControlMsg, Vec<PendingRule>),
    {
        let mut stamped: Option<SimTime> = None;
        for (at, msg) in msgs {
            if stamped != Some(at) {
                self.trace.set_now(at);
                stamped = Some(at);
            }
            let rules = dispatch_control(&mut self.pythia, &mut self.controller, at, &msg);
            sink(at, &msg, rules);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_pythia_scheduler_is_a_typed_error() {
        let cfg = ScenarioConfig::default().with_scheduler(SchedulerKind::Ecmp);
        let err = ServiceCore::from_config(&cfg).err().expect("must refuse");
        assert_eq!(err, ServiceError::NotPythia { scheduler: "ecmp" });
        assert!(format!("{err}").contains("ecmp"));
    }

    #[test]
    fn tenants_attribute_job_messages_only() {
        let msg = ControlMsg::ReducerLaunched {
            job: JobId(3),
            reducer: ReducerId(0),
            server: ServerId(1),
        };
        assert_eq!(tenant_of(&msg), 3);
        assert_eq!(tenant_of(&ControlMsg::ControllerDown), SYSTEM_TENANT);
        assert_eq!(tenant_of(&ControlMsg::ExpireParked), SYSTEM_TENANT);
    }

    #[test]
    fn core_construction_matches_scenario_shape() {
        let cfg = ScenarioConfig::default().with_scheduler(SchedulerKind::Pythia);
        let core = ServiceCore::from_config(&cfg).expect("pythia");
        assert_eq!(core.pod_of_node.len(), core.mr.topology.num_nodes());
        assert_eq!(core.pythia.num_shards(), cfg.collector_shards);
    }
}
