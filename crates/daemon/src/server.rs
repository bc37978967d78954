//! The threaded front-end: a daemon on its own thread behind a bounded
//! channel, with a `Send + Sync` handle for cross-thread ingest.
//!
//! The service core holds non-`Send` state (the trace recorder shares
//! `Rc` handles), so the daemon is *constructed inside* the spawned
//! thread; only the [`ScenarioConfig`] crosses. The channel is the
//! bounded queue: `try_send` on a full channel sheds the message and
//! counts it, exactly like the in-process queue — no producer ever
//! blocks unless it opts into [`DaemonHandle::ingest_blocking`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pythia_cluster::{ControlMsg, ScenarioConfig, SchedulerKind, ServiceError};
use pythia_des::SimTime;

use crate::backend::{InstallBackend, SimDataplaneBackend};
use crate::{synthetic_stream, Daemon, DaemonStats};

type Envelope = (SimTime, Instant, ControlMsg);

/// What a daemon thread reports back at shutdown.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Backend name ("sim-dataplane" for the stock server).
    pub backend: &'static str,
    /// Ingest/dispatch counters; `shed` includes channel-full sheds.
    pub stats: DaemonStats,
    /// Rules that landed in a TCAM.
    pub installed: u64,
    /// Installs rejected by full TCAMs.
    pub tcam_rejected: u64,
    /// Order-sensitive digest over every applied install.
    pub install_crc: u32,
    /// Median ingest→install wall-clock latency (bucket upper bound).
    pub p50: Duration,
    /// Tail ingest→install wall-clock latency (bucket upper bound).
    pub p99: Duration,
}

/// Handle to a daemon running on its own thread.
pub struct DaemonHandle {
    tx: Option<SyncSender<Envelope>>,
    shed: Arc<AtomicU64>,
    join: Option<JoinHandle<DaemonReport>>,
}

impl DaemonHandle {
    /// Spawn a daemon over the simulator-dataplane backend. The channel
    /// holds at most `queue_capacity` undispatched messages.
    /// [`ServiceError::NotPythia`] unless the scenario runs Pythia.
    pub fn spawn_sim(
        cfg: &ScenarioConfig,
        queue_capacity: usize,
    ) -> Result<DaemonHandle, ServiceError> {
        // Validate here: the closure below may only fail on this, and a
        // join-to-discover-misconfiguration API would be hostile.
        if cfg.scheduler != SchedulerKind::Pythia {
            return Err(ServiceError::NotPythia {
                scheduler: cfg.scheduler.label(),
            });
        }
        let capacity = queue_capacity.max(1);
        let (tx, rx) = sync_channel::<Envelope>(capacity);
        let shed = Arc::new(AtomicU64::new(0));
        let cfg = cfg.clone();
        let shed_in_thread = Arc::clone(&shed);
        let join = std::thread::spawn(move || {
            let backend = SimDataplaneBackend::from_config(&cfg);
            let mut d = Daemon::new(&cfg, backend, capacity).expect("scheduler pre-validated");
            for (at, enqueued, msg) in rx {
                // The channel already bounded the hand-off; the internal
                // queue has the same capacity, so this cannot shed.
                d.ingest_enqueued(at, enqueued, msg);
                d.pump();
            }
            d.finish();
            let mut stats = d.stats();
            stats.shed += shed_in_thread.load(Ordering::Relaxed);
            DaemonReport {
                backend: d.backend().name(),
                stats,
                installed: d.backend().installed(),
                tcam_rejected: d.backend().tcam_rejected(),
                install_crc: d.backend().install_crc(),
                p50: d.hist().p50(),
                p99: d.hist().p99(),
            }
        });
        Ok(DaemonHandle {
            tx: Some(tx),
            shed,
            join: Some(join),
        })
    }

    /// Offer one message; `false` — and a counted shed — when the
    /// channel is full or the daemon is gone.
    pub fn ingest(&self, at: SimTime, msg: ControlMsg) -> bool {
        let tx = self.tx.as_ref().expect("handle not shut down");
        match tx.try_send((at, Instant::now(), msg)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Offer one message, blocking while the channel is full (lossless
    /// feeding for replays and benchmarks). `false` if the daemon died.
    pub fn ingest_blocking(&self, at: SimTime, msg: ControlMsg) -> bool {
        let tx = self.tx.as_ref().expect("handle not shut down");
        tx.send((at, Instant::now(), msg)).is_ok()
    }

    /// Messages shed at the channel so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Close the ingest side, drain the daemon, and collect its report.
    pub fn shutdown(mut self) -> DaemonReport {
        drop(self.tx.take());
        self.join
            .take()
            .expect("handle not shut down")
            .join()
            .expect("daemon thread panicked")
    }
}

/// Feed `predictions` synthetic predictions ([`synthetic_stream`])
/// losslessly through a freshly spawned sim daemon with a
/// `queue_capacity` channel, and return its report with the wall time
/// from the first ingest to the drained shutdown (the stream is built
/// before the clock starts). `pythia-sim serve` prints this run; the
/// release perf gates (`tests/perf_gates.rs`) hold it to a throughput
/// floor and a p99 ceiling.
pub fn serve_synthetic(
    cfg: &ScenarioConfig,
    predictions: usize,
    queue_capacity: usize,
) -> Result<(DaemonReport, Duration), ServiceError> {
    let stream = synthetic_stream(cfg, predictions);
    let handle = DaemonHandle::spawn_sim(cfg, queue_capacity)?;
    let start = Instant::now();
    for (t, m) in stream {
        handle.ingest_blocking(t, m);
    }
    let report = handle.shutdown();
    Ok((report, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_daemon_processes_a_stream() {
        let cfg = ScenarioConfig::default().with_scheduler(SchedulerKind::Pythia);
        let total = synthetic_stream(&cfg, 200).len() as u64;
        let (report, elapsed) = serve_synthetic(&cfg, 200, 256).expect("pythia");
        assert!(elapsed > Duration::ZERO);
        assert_eq!(report.backend, "sim-dataplane");
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.stats.processed, total);
        assert!(report.installed > 0);
        assert!(report.p99 >= report.p50);
    }

    #[test]
    fn malformed_telemetry_does_not_stop_the_thread() {
        let cfg = ScenarioConfig::default().with_scheduler(SchedulerKind::Pythia);
        let links = cfg.topology.build().topology.num_links();
        let h = DaemonHandle::spawn_sim(&cfg, 256).expect("pythia");
        let at = SimTime::from_millis(1);
        let bad = [
            ControlMsg::LinkLoads {
                loads: vec![0.0; links + 1].into(),
            },
            ControlMsg::LinkState {
                link: pythia_netsim::LinkId(links as u32),
                up: true,
            },
            ControlMsg::BackgroundUpdate {
                loads: vec![0.0; links - 1].into(),
            },
            ControlMsg::BackgroundRefresh {
                loads: vec![f64::NAN; links].into(),
            },
        ];
        for m in bad {
            assert!(h.ingest_blocking(at, m), "the channel itself accepts");
        }
        let msgs = synthetic_stream(&cfg, 50);
        let total = msgs.len() as u64;
        for (t, m) in msgs {
            assert!(h.ingest_blocking(t, m));
        }
        let report = h.shutdown();
        assert_eq!(report.stats.malformed, 4);
        assert_eq!(report.stats.processed, total);
        assert!(report.installed > 0);
    }

    #[test]
    fn spawn_refuses_non_pythia_schedulers() {
        let cfg = ScenarioConfig::default().with_scheduler(SchedulerKind::Hedera);
        let err = DaemonHandle::spawn_sim(&cfg, 8).err().expect("must refuse");
        assert_eq!(
            err,
            ServiceError::NotPythia {
                scheduler: "hedera"
            }
        );
    }
}
