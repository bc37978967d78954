//! The daemon phase: a control stream through the live daemon
//! (`Daemon` + `SimDataplaneBackend`), closed loop and open loop, and an
//! instrumented pass that times each `ServiceCore::dispatch` and
//! `InstallBackend::install`/`observe` call from outside.

use std::time::{Duration, Instant};

use pythia_cluster::{tenant_of, ControlMsg, ScenarioConfig, ServiceCore};
use pythia_daemon::{Daemon, InstallBackend, SimDataplaneBackend};
use pythia_des::SimTime;
use pythia_trace::{TraceConfig, TraceStats};

use crate::engine::Stream;

/// Open-loop offered rate, messages per host second (~20% of the
/// closed-loop drain rate of the fleet stream).
pub const OPEN_LOOP_RATE: f64 = 25_000.0;

/// Open-loop replays per daemon phase: enough to offer ~100k messages,
/// at least 3 and at most 20, fixed by the stream alone, so every run
/// pools the same latency samples.
pub fn replays(stream_len: usize) -> usize {
    (100_000 / stream_len.max(1)).clamp(3, 20)
}

/// Build a daemon whose queue holds the whole stream, so neither loop
/// sheds on a healthy program.
pub fn new_daemon(cfg: &ScenarioConfig, capacity: usize) -> Daemon<SimDataplaneBackend> {
    let backend = SimDataplaneBackend::from_config(cfg);
    Daemon::new(cfg, backend, capacity.max(1)).expect("benchmark scenarios run Pythia")
}

/// What the install backend did with one replay of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Installs {
    pub emitted: u64,
    pub installed: u64,
    pub tcam_rejected: u64,
    pub shed: u64,
}

impl Installs {
    fn of(d: &Daemon<SimDataplaneBackend>) -> Installs {
        Installs {
            emitted: d.stats().rules_emitted,
            installed: d.backend().installed(),
            tcam_rejected: d.backend().tcam_rejected(),
            shed: d.stats().shed,
        }
    }
}

/// Result of driving one stream through one daemon.
pub struct Drain {
    pub wall_s: f64,
    pub installs: Installs,
}

/// Messages queued per closed-loop chunk.
const DRAIN_CHUNK: usize = 8192;

/// Closed loop: queue `DRAIN_CHUNK` messages, drain them (`pump`), and so
/// on to the end of the stream, then `finish`. `between` runs between
/// chunks, off the clock: the host reference is timed there, so it
/// follows the host through a drain of a second or more.
pub fn drain(cfg: &ScenarioConfig, stream: &Stream, between: &mut dyn FnMut()) -> Drain {
    let mut d = new_daemon(cfg, stream.len());
    let mut wall = Duration::ZERO;
    for (k, chunk) in stream.chunks(DRAIN_CHUNK).enumerate() {
        if k > 0 {
            between();
        }
        let t0 = Instant::now();
        for (at, msg) in chunk {
            d.ingest(*at, msg.clone());
        }
        d.pump();
        wall += t0.elapsed();
    }
    let t0 = Instant::now();
    d.finish();
    wall += t0.elapsed();
    Drain {
        wall_s: wall.as_secs_f64(),
        installs: Installs::of(&d),
    }
}

/// What an open-loop replay measured.
pub struct OpenLoop {
    /// Due time to return of the `pump` that installed it, per message, µs.
    pub latency_us: Vec<f64>,
    /// Largest delay between a message's due time and its ingest, ms.
    pub generator_late_max_ms: f64,
    /// Mean wait between a message's due time and the start of the
    /// `pump` that dispatched it, ms.
    pub queue_wait_mean_ms: f64,
    pub queue_high_water: usize,
    pub installs: Installs,
    /// Index of the first message of every segment after the first.
    pub segments: Vec<usize>,
}

/// Open-loop time between pauses for `between`.
const SEGMENT: Duration = Duration::from_millis(100);

/// Open loop on one thread: message `i` is due `i / OPEN_LOOP_RATE`
/// seconds after the start, whatever the daemon is doing. Every due
/// message is ingested with its due instant, then one `pump` dispatches
/// the queue; each message is timed from its due time to that pump's
/// return, so a stall also charges the messages that queued behind it.
/// After each `SEGMENT`, at the first moment nothing is queued, the
/// schedule pauses for `between` (the host reference) and resumes with
/// every later due time shifted by the pause.
pub fn open_loop(cfg: &ScenarioConfig, stream: &Stream, between: &mut dyn FnMut()) -> OpenLoop {
    let mut d = new_daemon(cfg, stream.len());
    let n = stream.len();
    let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
    let mut start = Instant::now() + Duration::from_millis(1);
    let mut segment_end = start + SEGMENT;
    let mut segments = Vec::new();
    let mut latency_us = Vec::with_capacity(n);
    let mut late_max = Duration::ZERO;
    let mut wait_total = Duration::ZERO;
    let (mut next, mut pumped) = (0, 0);
    while pumped < n {
        let due = |i: usize| start + period * i as u32;
        let now = Instant::now();
        if next == pumped && now >= segment_end && next < n {
            between();
            let resumed = Instant::now();
            start += resumed - now;
            segment_end = resumed + SEGMENT;
            segments.push(next);
            continue;
        }
        while next < n && due(next) <= now {
            late_max = late_max.max(now - due(next));
            let (at, msg) = &stream[next];
            d.ingest_enqueued(*at, due(next), msg.clone());
            next += 1;
        }
        if next == pumped {
            wait_until(due(next));
            continue;
        }
        let pump_start = Instant::now();
        d.pump();
        let done = Instant::now();
        for i in pumped..next {
            wait_total += pump_start - due(i);
            latency_us.push((done - due(i)).as_secs_f64() * 1e6);
        }
        pumped = next;
    }
    d.finish();
    let s = d.stats();
    OpenLoop {
        latency_us,
        generator_late_max_ms: late_max.as_secs_f64() * 1e3,
        queue_wait_mean_ms: wait_total.as_secs_f64() * 1e3 / n.max(1) as f64,
        queue_high_water: s.queue_high_water,
        installs: Installs::of(&d),
        segments,
    }
}

/// Sleep through long gaps, spin through short ones (the 40 µs period
/// is below the sleep granularity). The spin polls the clock without a
/// `spin_loop` hint: under a hypervisor, a tight PAUSE loop can trigger
/// pause-loop exits that delay the next message by microseconds.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        }
    }
}

/// Index of the message kinds timed separately, in the order of
/// `DISPATCH_METRICS` in main.rs.
fn kind_index(msg: &ControlMsg) -> Option<usize> {
    match msg {
        ControlMsg::Prediction(_) => Some(0),
        ControlMsg::FetchCompleted { .. } => Some(1),
        ControlMsg::ReducerLaunched { .. } => Some(2),
        ControlMsg::LinkLoads { .. } => Some(3),
        ControlMsg::BackgroundUpdate { .. } => Some(4),
        _ => None,
    }
}

/// The instrumented pass: the daemon's dispatch loop unrolled, with the
/// flight recorder on (span histograms only) and every call timed.
pub struct Instrumented {
    pub wall_s: f64,
    /// Total dispatch time per message kind (see `kind_index`), ms.
    pub dispatch_ms: [f64; 5],
    /// Messages per message kind.
    pub dispatch_count: [u64; 5],
    /// Total time in `install` + `observe` + the final `finish`, ms.
    pub install_ms: f64,
    /// Longest single `install` call, ms.
    pub install_max_ms: f64,
    pub installs: Installs,
    pub demands_deferred: u64,
    pub demands_no_path: u64,
    pub trace: TraceStats,
}

pub fn instrumented(cfg: &ScenarioConfig, stream: &Stream) -> Instrumented {
    let cfg = cfg
        .clone()
        .with_trace(TraceConfig::enabled().with_components(&[]));
    let mut core = ServiceCore::from_config(&cfg).expect("benchmark scenarios run Pythia");
    let mut backend = SimDataplaneBackend::from_config(&cfg);
    let mut out = Instrumented {
        wall_s: 0.0,
        dispatch_ms: [0.0; 5],
        dispatch_count: [0; 5],
        install_ms: 0.0,
        install_max_ms: 0.0,
        installs: Installs::default(),
        demands_deferred: 0,
        demands_no_path: 0,
        trace: TraceStats::default(),
    };
    let mut now = SimTime::ZERO;
    let mut install = Duration::ZERO;
    let t0 = Instant::now();
    for (at, msg) in stream {
        let t = Instant::now();
        let rules = core.dispatch(*at, msg);
        let dispatched = t.elapsed();
        if let Some(k) = kind_index(msg) {
            out.dispatch_ms[k] += dispatched.as_secs_f64() * 1e3;
            out.dispatch_count[k] += 1;
        }
        out.installs.emitted += rules.len() as u64;
        let t = Instant::now();
        backend.install(*at, tenant_of(msg), &rules);
        let one = t.elapsed();
        backend.observe(*at, msg);
        install += t.elapsed();
        out.install_max_ms = out.install_max_ms.max(one.as_secs_f64() * 1e3);
        now = now.max(*at);
    }
    let t = Instant::now();
    backend.finish(now);
    install += t.elapsed();
    out.wall_s = t0.elapsed().as_secs_f64();
    out.install_ms = install.as_secs_f64() * 1e3;
    out.installs.installed = backend.installed();
    out.installs.tcam_rejected = backend.tcam_rejected();
    let stats = core.pythia.stats();
    out.demands_deferred = stats.demands_deferred;
    out.demands_no_path = stats.demands_no_path;
    out.trace = core.trace.stats();
    out
}
