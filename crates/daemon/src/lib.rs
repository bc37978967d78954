#![warn(missing_docs)]

//! `pythia-daemon` — the live control-plane service.
//!
//! The batch engine simulates the whole testbed; this crate runs just
//! the control plane — collector, allocator, SDN controller — as a
//! long-running service. Agents (or a replayed tap of a batch run) feed
//! [`ControlMsg`]s into a bounded ingest queue; the daemon dispatches
//! them through the *same* [`pythia_cluster::ServiceCore`] the engine
//! uses and pushes every provoked rule install into an
//! [`InstallBackend`]. Two backends ship: the simulator dataplane
//! (byte-equivalent to the batch path — pinned by the equivalence test)
//! and a recording log feeding a queryable [`InstallArchive`] with
//! per-pair lead-time queries (the paper's Figure 5, live).
//!
//! Backpressure is explicit: the ingest queue is bounded, a full queue
//! *sheds* the message (counted, never blocking the dispatch loop), and
//! [`DaemonStats`] reports the high-water mark so operators can size the
//! queue from data. Malformed telemetry (see
//! [`pythia_cluster::ServiceCore::check`]) is refused at ingest and
//! counted, so no message can panic the dispatch loop. [`server`] wraps the whole thing in a thread with a
//! channel-style handle for cross-thread ingest.

pub mod archive;
pub mod backend;
pub mod server;

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use pythia_cluster::{tenant_of, ControlMsg, ScenarioConfig, ServiceCore, ServiceError};
use pythia_core::PredictionMsg;
use pythia_des::{SimDuration, SimTime};
use pythia_hadoop::{JobId, MapTaskId, ReducerId, ServerId};
use pythia_trace::SpanHist;

pub use archive::InstallArchive;
pub use backend::{InstallBackend, InstallRecord, RecordingBackend, SimDataplaneBackend};
pub use server::{serve_synthetic, DaemonHandle, DaemonReport};

/// Ingest/dispatch counters. `shed` only ever grows when the bounded
/// queue was full — explicit backpressure, never a silent drop — and
/// `malformed` only when a message failed
/// [`pythia_cluster::ServiceCore::check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Messages accepted into the queue.
    pub ingested: u64,
    /// Messages refused because the queue was full.
    pub shed: u64,
    /// Messages refused as malformed (never queued or dispatched).
    pub malformed: u64,
    /// Messages dispatched through the service core.
    pub processed: u64,
    /// Rules the dispatches provoked (before any backend rejection).
    pub rules_emitted: u64,
    /// Largest queue depth observed at ingest.
    pub queue_high_water: usize,
}

/// The daemon: bounded ingest queue in front of a [`ServiceCore`], rule
/// installs out through an [`InstallBackend`].
pub struct Daemon<B: InstallBackend> {
    core: ServiceCore,
    backend: B,
    queue: VecDeque<(SimTime, Instant, ControlMsg)>,
    capacity: usize,
    stats: DaemonStats,
    hist: SpanHist,
    now: SimTime,
    /// Scratch: enqueue instants of the batch being pumped, reused so
    /// the drain loop does not allocate per pump.
    lat_scratch: Vec<Instant>,
}

impl<B: InstallBackend> Daemon<B> {
    /// Build a daemon for a scenario. The queue holds at most
    /// `queue_capacity` undispatched messages; further ingests shed.
    /// [`ServiceError::NotPythia`] unless the scenario runs Pythia.
    pub fn new(
        cfg: &ScenarioConfig,
        backend: B,
        queue_capacity: usize,
    ) -> Result<Daemon<B>, ServiceError> {
        Ok(Daemon {
            core: ServiceCore::from_config(cfg)?,
            backend,
            queue: VecDeque::new(),
            capacity: queue_capacity.max(1),
            stats: DaemonStats::default(),
            hist: SpanHist::default(),
            now: SimTime::ZERO,
            lat_scratch: Vec::new(),
        })
    }

    /// Offer one message stamped with its (simulated) arrival time.
    /// Returns `false` — and counts a shed — when the queue is full.
    pub fn ingest(&mut self, at: SimTime, msg: ControlMsg) -> bool {
        self.ingest_enqueued(at, Instant::now(), msg)
    }

    /// [`Daemon::ingest`] with a caller-supplied enqueue instant, so a
    /// channel front-end charges its own hand-off time to the latency
    /// histogram instead of hiding it. A malformed message is refused
    /// (`false`) and counted in [`DaemonStats::malformed`].
    pub fn ingest_enqueued(&mut self, at: SimTime, enqueued: Instant, msg: ControlMsg) -> bool {
        if self.core.check(&msg).is_err() {
            self.stats.malformed += 1;
            return false;
        }
        if self.queue.len() >= self.capacity {
            self.stats.shed += 1;
            return false;
        }
        self.queue.push_back((at, enqueued, msg));
        self.stats.ingested += 1;
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.queue.len());
        true
    }

    /// Dispatch every queued message: service core → rules → backend.
    /// Returns how many messages were processed.
    ///
    /// The whole queue drains through one
    /// [`pythia_cluster::ServiceCore::dispatch_batch`] call — the batch
    /// path a socket transport would feed — while the per-message sink
    /// keeps tenant attribution, backend installs, and latency stamps
    /// exactly as the one-at-a-time loop produced them.
    pub fn pump(&mut self) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        let mut latencies = std::mem::take(&mut self.lat_scratch);
        latencies.clear();
        latencies.extend(self.queue.iter().map(|&(_, enq, _)| enq));
        let batch: Vec<(SimTime, ControlMsg)> =
            self.queue.drain(..).map(|(at, _, msg)| (at, msg)).collect();
        let n = batch.len();
        let backend = &mut self.backend;
        let stats = &mut self.stats;
        let hist = &mut self.hist;
        let now = &mut self.now;
        let mut i = 0;
        self.core.dispatch_batch(batch, |at, msg, rules| {
            stats.rules_emitted += rules.len() as u64;
            backend.install(at, tenant_of(msg), &rules);
            backend.observe(at, msg);
            let wall_ns = latencies[i].elapsed().as_nanos();
            hist.observe(u64::try_from(wall_ns).unwrap_or(u64::MAX));
            i += 1;
            stats.processed += 1;
            *now = (*now).max(at);
        });
        self.lat_scratch = latencies;
        n
    }

    /// Drain the queue and flush the backend's in-flight installs.
    pub fn finish(&mut self) {
        self.pump();
        self.backend.finish(self.now);
    }

    /// Counters so far.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// The ingest→install wall-clock latency histogram.
    pub fn hist(&self) -> &SpanHist {
        &self.hist
    }

    /// The install sink.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Latest dispatched message time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Tear down into the service core (trace access), the backend, the
    /// counters, and the latency histogram.
    pub fn into_parts(self) -> (ServiceCore, B, DaemonStats, SpanHist) {
        (self.core, self.backend, self.stats, self.hist)
    }
}

/// A deterministic synthetic ingest stream for benchmarks and smoke
/// runs: one job, a reducer launched on every server, then `predictions`
/// map-finish predictions round-robined across servers, one message
/// every 100 µs of simulated time. Every prediction predicts 64 MB per
/// reducer, comfortably above the elephant threshold, so the allocator
/// actually places pairs and issues rules.
pub fn synthetic_stream(cfg: &ScenarioConfig, predictions: usize) -> Vec<(SimTime, ControlMsg)> {
    let mr = cfg.topology.build();
    let n = mr.servers.len() as u32;
    assert!(n > 0, "topology has no servers");
    let job = JobId(0);
    let step = SimDuration::from_micros(100);
    let mut t = SimTime::from_millis(1);
    let mut out = Vec::with_capacity(n as usize + predictions);
    for r in 0..n {
        out.push((
            t,
            ControlMsg::ReducerLaunched {
                job,
                reducer: ReducerId(r),
                server: ServerId(r),
            },
        ));
        t += step;
    }
    for i in 0..predictions {
        out.push((
            t,
            ControlMsg::Prediction(Arc::new(PredictionMsg {
                job,
                map: MapTaskId(i as u32),
                src_server: ServerId(i as u32 % n),
                per_reducer_bytes: vec![64 << 20; n as usize],
                predicted_at: t,
            })),
        ));
        t += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pythia_cfg() -> ScenarioConfig {
        ScenarioConfig::default().with_scheduler(pythia_cluster::SchedulerKind::Pythia)
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let cfg = pythia_cfg();
        let mut d = Daemon::new(&cfg, RecordingBackend::from_config(&cfg), 4).expect("pythia");
        let msgs = synthetic_stream(&cfg, 100);
        let mut accepted = 0;
        for (t, m) in msgs {
            if d.ingest(t, m) {
                accepted += 1;
            }
        }
        let s = d.stats();
        assert_eq!(accepted, 4);
        assert_eq!(s.ingested, 4);
        assert_eq!(s.shed, 110 - 4); // 10 reducer launches + 100 predictions
        assert_eq!(s.queue_high_water, 4);
        // The daemon still makes progress: nothing deadlocked.
        d.finish();
        assert_eq!(d.stats().processed, 4);
    }

    #[test]
    fn synthetic_stream_provokes_rule_installs() {
        let cfg = pythia_cfg();
        let mut d =
            Daemon::new(&cfg, SimDataplaneBackend::from_config(&cfg), 1 << 12).expect("pythia");
        for (t, m) in synthetic_stream(&cfg, 64) {
            assert!(d.ingest(t, m));
        }
        d.finish();
        let s = d.stats();
        assert_eq!(s.shed, 0);
        assert_eq!(s.processed, s.ingested);
        assert!(s.rules_emitted > 0, "allocator placed nothing");
        assert!(d.backend().installed() > 0);
        assert_eq!(d.hist().count, s.processed);
    }

    /// Offer `bad` to a fresh daemon: it must be refused and counted as
    /// malformed, and a well-formed message of the same kind must still
    /// dispatch afterwards.
    fn refused_then_good_dispatches(bad: ControlMsg, good: ControlMsg) {
        let cfg = pythia_cfg();
        let mut d = Daemon::new(&cfg, RecordingBackend::from_config(&cfg), 8).expect("pythia");
        assert!(!d.ingest(SimTime::from_millis(1), bad));
        assert!(d.ingest(SimTime::from_millis(2), good));
        d.finish();
        let s = d.stats();
        assert_eq!((s.malformed, s.shed, s.ingested, s.processed), (1, 0, 1, 1));
    }

    fn n_links() -> usize {
        pythia_cfg().topology.build().topology.num_links()
    }

    fn loads(n: usize, v: f64) -> Arc<[f64]> {
        vec![v; n].into()
    }

    #[test]
    fn link_loads_longer_than_the_fabric_are_refused() {
        let n = n_links();
        refused_then_good_dispatches(
            ControlMsg::LinkLoads {
                loads: loads(n + 1, 1e6),
            },
            ControlMsg::LinkLoads {
                loads: loads(n, 1e6),
            },
        );
    }

    #[test]
    fn link_state_for_an_unknown_link_is_refused() {
        let link = pythia_netsim::LinkId(n_links() as u32);
        let cfg = pythia_cfg();
        let core = pythia_cluster::ServiceCore::from_config(&cfg).expect("pythia");
        let bad = ControlMsg::LinkState { link, up: false };
        assert_eq!(
            core.check(&bad),
            Err(pythia_cluster::MalformedMsg::UnknownLink(link))
        );
        refused_then_good_dispatches(
            bad,
            ControlMsg::LinkState {
                link: pythia_netsim::LinkId(0),
                up: false,
            },
        );
    }

    #[test]
    fn background_vectors_of_the_wrong_length_are_refused() {
        let n = n_links();
        for len in [0, n - 1, n + 1] {
            refused_then_good_dispatches(
                ControlMsg::BackgroundUpdate {
                    loads: loads(len, 0.0),
                },
                ControlMsg::BackgroundUpdate {
                    loads: loads(n, 0.0),
                },
            );
            refused_then_good_dispatches(
                ControlMsg::BackgroundRefresh {
                    loads: loads(len, 0.0),
                },
                ControlMsg::BackgroundRefresh {
                    loads: loads(n, 0.0),
                },
            );
        }
    }

    #[test]
    fn non_finite_loads_are_refused() {
        let n = n_links();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = vec![1e6; n];
            bad[n / 2] = v;
            let bad: Arc<[f64]> = bad.into();
            refused_then_good_dispatches(
                ControlMsg::LinkLoads {
                    loads: Arc::clone(&bad),
                },
                ControlMsg::LinkLoads {
                    loads: loads(n, 1e6),
                },
            );
            refused_then_good_dispatches(
                ControlMsg::BackgroundUpdate {
                    loads: Arc::clone(&bad),
                },
                ControlMsg::BackgroundUpdate {
                    loads: loads(n, 0.0),
                },
            );
            refused_then_good_dispatches(
                ControlMsg::BackgroundRefresh { loads: bad },
                ControlMsg::BackgroundRefresh {
                    loads: loads(n, 0.0),
                },
            );
        }
    }

    #[test]
    fn messages_from_unknown_servers_are_refused() {
        let cfg = pythia_cfg();
        let servers = cfg.topology.build().servers.len() as u32;
        let fetch = |src: u32| ControlMsg::FetchCompleted {
            job: JobId(0),
            map: MapTaskId(0),
            reducer: ReducerId(0),
            src: ServerId(src),
            dst: ServerId(0),
        };
        refused_then_good_dispatches(fetch(servers), fetch(0));
        let prediction = |src: u32| {
            ControlMsg::Prediction(Arc::new(PredictionMsg {
                job: JobId(0),
                map: MapTaskId(0),
                src_server: ServerId(src),
                per_reducer_bytes: vec![1 << 20],
                predicted_at: SimTime::ZERO,
            }))
        };
        refused_then_good_dispatches(prediction(u32::MAX), prediction(0));
    }

    #[test]
    fn non_pythia_config_is_refused() {
        let cfg = ScenarioConfig::default().with_scheduler(pythia_cluster::SchedulerKind::Ecmp);
        let err = Daemon::new(&cfg, RecordingBackend::from_config(&cfg), 8)
            .err()
            .expect("must refuse");
        assert!(matches!(err, ServiceError::NotPythia { .. }));
    }
}
