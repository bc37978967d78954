//! End-to-end and per-layer benchmark of the Pythia reproduction.
//!
//! ```text
//! perfbench --workload <sort60|daemon_replay> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|small]
//! ```
//!
//! Every workload runs an engine job set and replays that job set's
//! control stream through the live daemon; which of the two is repeated
//! for `--seconds` (and reported as `wall_s`) depends on the workload.
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric,
//! from passes with the flight recorder on. The lines before it repeat
//! the metrics for people, with error rate and host context.
//! `perfbench/README.md` defines each metric on each workload.

mod daemon;
mod engine;
mod hostref;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use pythia_cluster::{ScenarioConfig, RELAXED_ABS_EPS_SECS, RELAXED_COMPLETION_EPS};
use pythia_experiments::calibrate;
use pythia_trace::{TraceConfig, TraceStats};

use crate::daemon::OpenLoop;
use crate::engine::{Outcome, Stream};
use crate::hostref::HostRef;
use crate::spec::{Kind, Workload};
use crate::stats::{median, peak_rss_mb, quantile, reset_peak_rss, Tally};

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_completion_s", "s"),
    ("sim_jct_p50_s", "s"),
    ("sim_jct_p99_s", "s"),
    ("daemon_msgs_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer the workload
/// does not run reports 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.dead_shed", "count"),
    ("netsim.recompute_ms", "ms"),
    ("netsim.recomputes", "count"),
    ("netsim.flows_per_recompute", "count"),
    ("netsim.next_completion_ms", "ms"),
    ("netsim.advance_ms", "ms"),
    ("netsim.flow_complete_ms", "ms"),
    ("netsim.advance_flow_steps", "count"),
    ("netsim.heap_pushes", "count"),
    ("openflow.path_compute_ms", "ms"),
    ("openflow.path_computes", "count"),
    ("openflow.rule_active_ms", "ms"),
    ("openflow.rules_installed", "count"),
    ("openflow.tcam_rejected", "count"),
    ("pythia.place_ms", "ms"),
    ("pythia.placements", "count"),
    ("pythia.fetch_wave_ms", "ms"),
    ("pythia.demands_deferred", "count"),
    ("pythia.demands_no_path", "count"),
    ("pythia.epoch_batches", "count"),
    ("pythia.lead_min_s", "s"),
    ("pythia.overestimate_pct", "%"),
    ("hadoop.reducer_start_ms", "ms"),
    ("hadoop.map_finish_ms", "ms"),
    ("cluster.finish_round_ms", "ms"),
    ("cluster.background_change_ms", "ms"),
    ("cluster.link_load_sample_ms", "ms"),
    ("daemon.dispatch_ms.prediction", "ms"),
    ("daemon.dispatch_ms.fetch_completed", "ms"),
    ("daemon.dispatch_ms.reducer_launched", "ms"),
    ("daemon.dispatch_ms.link_loads", "ms"),
    ("daemon.dispatch_ms.background_update", "ms"),
    ("daemon.install_ms", "ms"),
    ("daemon.install_max_ms", "ms"),
    ("daemon.queue_wait_ms", "ms"),
    ("daemon.rules_emitted", "count"),
    ("daemon.queue_high_water", "count"),
    ("daemon.generator_late_max_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("host.fixed_work_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("host.nproc", "count"),
    ("host.solver_workers", "count"),
];

/// Per-kind dispatch time of the daemon layer, in the order of
/// `daemon::kind_index`.
const DISPATCH_METRICS: [&str; 5] = [
    "daemon.dispatch_ms.prediction",
    "daemon.dispatch_ms.fetch_completed",
    "daemon.dispatch_ms.reducer_launched",
    "daemon.dispatch_ms.link_loads",
    "daemon.dispatch_ms.background_update",
];

/// `sim_completion_s` of `sort60` at full size, exact solver, per seed.
const SORT60_REFERENCE: &str = include_str!("../reference/sort60_completion.tsv");

const USAGE: &str = "usage: perfbench --workload <sort60|daemon_replay> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|small]\n       \
                     perfbench --record-sort60 <first-seed> <last-seed>";

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut small) = (None, 10.0, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                small = match value {
                    "full" => false,
                    "small" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload {
            kind,
            seed: seed.unwrap_or(kind.default_seed()),
            small,
        },
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-sort60") {
        record_sort60(&argv[1..]);
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    println!(
        "workload {} seed {} size {} seconds {} trace {}",
        w.kind.name(),
        w.seed,
        if w.small { "small" } else { "full" },
        args.seconds,
        u8::from(args.trace)
    );
    let mut run = Run::new(w, args.seconds);
    if args.trace {
        run.traced();
    } else {
        run.untraced();
    }
    run.finish(args.trace);
}

/// One benchmark run: the workload, its budget, the tally and the
/// metrics gathered so far.
struct Run {
    w: Workload,
    cfg: ScenarioConfig,
    seconds: f64,
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
    /// Rules the engine installed and rejected (TCAM full) from the
    /// stream the daemon replays.
    engine_installs: (u64, u64),
    peak_rss_reset: bool,
    /// Scaled seconds of each set-up burst so far (see `setup_burst`).
    setup_samples: Vec<f64>,
    host: HostRef,
    /// Unscaled medians of the host times, printed for people.
    raw: Vec<(&'static str, f64)>,
}

impl Run {
    fn new(w: Workload, seconds: f64) -> Run {
        let cfg = w.cfg();
        let mut metrics = BTreeMap::new();
        // Host context: recorded beside every run, never divided into
        // another metric.
        metrics.insert("host.fixed_work_ms", calibrate::fixed_work_ns(3) / 1e6);
        metrics.insert(
            "host.nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        metrics.insert("host.solver_workers", spec::solver_workers(&cfg) as f64);
        Run {
            w,
            cfg,
            seconds,
            tally: Tally::default(),
            metrics,
            engine_installs: (0, 0),
            peak_rss_reset: false,
            setup_samples: Vec::new(),
            host: HostRef::new(),
            raw: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set each metric to its median over passes that each report the
    /// same names in the same order.
    fn set_medians(&mut self, passes: &[Vec<(&'static str, f64)>]) {
        for (k, &(name, _)) in passes[0].iter().enumerate() {
            let samples: Vec<f64> = passes.iter().map(|p| p[k].1).collect();
            self.set(name, median(&samples));
        }
    }

    /// Host times (`setup_s`, `wall_s`, `daemon_msgs_per_s`) are scaled
    /// sample by sample to the nominal host speed of `hostref` and
    /// reported as medians over samples spread across the whole run;
    /// their unscaled medians are printed beside them.
    fn untraced(&mut self) {
        self.setup_burst();
        if self.w.kind == Kind::DaemonReplay {
            let (tapped, stream) = self.tap();
            self.sim_metrics(&tapped);
            self.peak_rss_reset = reset_peak_rss();
            let drains = self.daemon_drains(&stream, self.seconds);
            self.set("wall_s", median(&drains));
            self.set("peak_rss_mb", peak_rss_mb());
        } else {
            // Engine passes first, so their resident peak holds no stream.
            self.peak_rss_reset = reset_peak_rss();
            let (walls, first) = self.engine_passes();
            self.set("wall_s", median(&walls));
            self.set("peak_rss_mb", peak_rss_mb());
            self.sim_metrics(&first);
            let (tapped, stream) = self.tap();
            self.check_same(&first, &tapped, "tapped engine run");
            self.daemon_drains(&stream, self.seconds / 3.0);
        }
        self.set("setup_s", median(&self.setup_samples));
    }

    fn traced(&mut self) {
        let focus = self.w.kind == Kind::DaemonReplay;
        if !focus {
            self.traced_engine_passes();
        }
        let (_, stream) = self.tap();
        self.traced_drains(&stream, if focus { self.seconds } else { 0.0 });
        self.open_loops(&stream);
    }

    /// One `setup_s` sample: the public constructors the workload's
    /// state is built from, at least 5 times and for at least 0.05 s,
    /// median, scaled. `sort60` builds the fabric
    /// (`TopologySpec::build`); `daemon_replay` builds the daemon and its
    /// install backend. Bursts run at the start and every quarter of the
    /// daemon phase, so the samples span the run.
    fn setup_burst(&mut self) {
        let t0 = Instant::now();
        let mut burst = Vec::new();
        while burst.len() < 5 || t0.elapsed().as_secs_f64() < 0.05 {
            let t = Instant::now();
            if self.w.kind == Kind::DaemonReplay {
                std::hint::black_box(daemon::new_daemon(&self.cfg, 1));
            } else {
                std::hint::black_box(self.cfg.topology.build());
            }
            burst.push(t.elapsed().as_secs_f64());
        }
        let k = self.host.factor();
        self.setup_samples.push(median(&burst) * k);
    }

    /// Engine passes for the budget, at least one; returns the scaled
    /// seconds of each and the first pass's outcome (every later one must
    /// match it).
    fn engine_passes(&mut self) -> (Vec<f64>, Outcome) {
        let t0 = Instant::now();
        let (wall, first) = engine::pass(&self.w, &self.cfg);
        self.check_jobs(&first, "engine pass");
        let mut raw = vec![wall];
        let mut walls = vec![wall * self.host.factor()];
        while t0.elapsed().as_secs_f64() < self.seconds {
            let (wall, o) = engine::pass(&self.w, &self.cfg);
            self.check_jobs(&o, "engine pass");
            self.check_same(&first, &o, "repeated engine pass");
            raw.push(wall);
            walls.push(wall * self.host.factor());
        }
        self.raw.push(("wall_s", median(&raw)));
        (walls, first)
    }

    /// Alternate untraced and traced passes for the budget; per-layer
    /// engine metrics are medians over the traced passes.
    fn traced_engine_passes(&mut self) {
        // Component events too: Fig 5's lead time needs them. The
        // daemon's instrumented pass records span histograms only.
        let traced_cfg = self.cfg.clone().with_trace(TraceConfig::enabled());
        let t0 = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut layers = Vec::new();
        while traced.is_empty() || t0.elapsed().as_secs_f64() < self.seconds {
            let (wall, o) = engine::pass(&self.w, &self.cfg);
            self.check_jobs(&o, "engine pass");
            plain.push(wall);
            let (wall, t) = engine::pass(&self.w, &traced_cfg);
            self.check_jobs(&t, "traced engine pass");
            self.check_same(&o, &t, "traced engine pass");
            traced.push(wall);
            layers.push(engine_layers(&t, wall));
        }
        self.set_medians(&layers);
        self.set(
            "trace.overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
    }

    /// The stream the daemon replays: the workload's job set run once
    /// more through the engine, tapped, untimed. On `daemon_replay` this
    /// is the steady fleet, whose simulated results are that workload's
    /// `sim_*`; on `sort60` it must match the timed passes.
    fn tap(&mut self) -> (Outcome, Stream) {
        let (o, stream) = engine::tapped(&self.w, &self.cfg);
        self.check_jobs(&o, "tapped engine run");
        self.engine_installs = (o.rules_installed, o.tcam_rejected);
        (o, stream)
    }

    fn sim_metrics(&mut self, o: &Outcome) {
        let (p50, p99) = if o.jct_s.is_empty() {
            (0.0, 0.0)
        } else {
            (quantile(&o.jct_s, 0.5), quantile(&o.jct_s, 0.99))
        };
        self.set("sim_completion_s", o.makespan_s);
        self.set("sim_jct_p50_s", p50);
        self.set("sim_jct_p99_s", p99);
        if self.w.kind == Kind::Sort60 {
            self.check_sort60_reference(o.makespan_s);
        }
    }

    /// `sort60`'s completion must stay within the published relaxed-solver
    /// envelope of the value recorded for its seed. Seeds without a
    /// recorded value (and the reduced size) compare against the other
    /// solver mode run on the spot, under the same envelope.
    fn check_sort60_reference(&mut self, got: f64) {
        let recorded = (!self.w.small)
            .then(|| sort60_reference(self.w.seed))
            .flatten();
        let (reference, source) = match recorded {
            Some(r) => (r, "recorded value"),
            None => {
                let other = self.cfg.clone().with_relaxed_order(!self.cfg.relaxed_order);
                let (_, o) = engine::pass(&self.w, &other);
                (o.makespan_s, "other solver mode")
            }
        };
        let bound = RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS * reference;
        self.tally.check((got - reference).abs() <= bound, || {
            format!("sim_completion_s {got} is more than {bound} s from the {source} {reference}")
        });
    }

    fn check_jobs(&mut self, o: &Outcome, what: &str) {
        let jobs = o.jobs.max(1) as u64;
        self.tally.ops(
            jobs,
            jobs - o.completed as u64,
            &format!("jobs of a {what}"),
        );
    }

    fn check_same(&mut self, a: &Outcome, b: &Outcome, what: &str) {
        self.tally.check(a.fingerprint() == b.fingerprint(), || {
            format!(
                "{what} diverged: (completed, makespan bits, events, rules) {:?} vs {:?}",
                a.fingerprint(),
                b.fingerprint()
            )
        });
    }

    /// Every daemon pass must shed nothing, issue exactly the rules the
    /// engine issued from the same stream, each installed or rejected
    /// (TCAM full), and install exactly the rules the engine installed.
    fn check_daemon(&mut self, messages: usize, got: daemon::Installs, what: &str) {
        self.tally.ops(
            messages as u64,
            got.shed,
            &format!("messages offered to a {what}"),
        );
        let (installed, rejected) = self.engine_installs;
        self.tally.check(
            got.installed + got.tcam_rejected == got.emitted
                && got.emitted == installed + rejected
                && got.installed == installed,
            || format!("{what}: {got:?}, the engine installed {installed} and rejected {rejected}"),
        );
    }

    /// The daemon phase of an untraced run: closed-loop drains for
    /// `budget` seconds (at least three), scaled, with a set-up burst
    /// every quarter of the budget. Sets `daemon_msgs_per_s` (stream
    /// length over the median drain); returns the drain times.
    fn daemon_drains(&mut self, stream: &Stream, budget: f64) -> Vec<f64> {
        let t0 = Instant::now();
        let (mut raw, mut walls) = (Vec::new(), Vec::new());
        let mut next_burst = 0.0;
        while walls.len() < 3 || t0.elapsed().as_secs_f64() < budget {
            if t0.elapsed().as_secs_f64() >= next_burst {
                self.setup_burst();
                next_burst += budget / 4.0;
            }
            let host = &mut self.host;
            let d = daemon::drain(&self.cfg, stream, &mut || host.tick());
            self.check_daemon(stream.len(), d.installs, "closed-loop drain");
            raw.push(d.wall_s);
            walls.push(d.wall_s * self.host.factor());
        }
        self.set("daemon_msgs_per_s", stream.len() as f64 / median(&walls));
        self.raw
            .push(("daemon_msgs_per_s", stream.len() as f64 / median(&raw)));
        if self.w.kind == Kind::DaemonReplay {
            self.raw.push(("wall_s", median(&raw)));
        }
        println!(
            "daemon: {} drains of {} messages",
            walls.len(),
            stream.len()
        );
        walls
    }

    /// The open-loop phase of a traced run: `daemon::replays(stream)`
    /// replays. Sets `ingest_p50_us` / `ingest_p99_us` (scaled latency
    /// samples pooled over the replays), the median queue wait, and the
    /// largest queue and generator lateness of any replay.
    fn open_loops(&mut self, stream: &Stream) {
        let replays = daemon::replays(stream.len());
        let (mut raw_lat, mut lat) = (Vec::new(), Vec::new());
        let (mut wait, mut high_water, mut late) = (Vec::new(), 0usize, 0.0f64);
        for _ in 0..replays {
            let (ol, scaled) = self.open_loop_once(stream);
            lat.extend(scaled);
            raw_lat.extend(ol.latency_us);
            wait.push(ol.queue_wait_mean_ms);
            high_water = high_water.max(ol.queue_high_water);
            late = late.max(ol.generator_late_max_ms);
        }
        lat.sort_by(f64::total_cmp);
        raw_lat.sort_by(f64::total_cmp);
        self.set("ingest_p50_us", quantile(&lat, 0.5));
        self.set("ingest_p99_us", quantile(&lat, 0.99));
        self.raw.extend([
            ("ingest_p50_us", quantile(&raw_lat, 0.5)),
            ("ingest_p99_us", quantile(&raw_lat, 0.99)),
        ]);
        self.set("daemon.queue_wait_ms", median(&wait));
        self.set("daemon.queue_high_water", high_water as f64);
        self.set("daemon.generator_late_max_ms", late);
        println!(
            "daemon: {replays} open-loop replays of {} messages at {} msgs/s",
            stream.len(),
            daemon::OPEN_LOOP_RATE
        );
    }

    /// One open-loop replay; returns it and its latencies scaled segment
    /// by segment (each segment's window: the reference slices at its
    /// two ends).
    fn open_loop_once(&mut self, stream: &Stream) -> (OpenLoop, Vec<f64>) {
        let mut factors = Vec::new();
        let host = &mut self.host;
        let ol = daemon::open_loop(&self.cfg, stream, &mut || factors.push(host.factor()));
        factors.push(self.host.factor());
        self.check_daemon(stream.len(), ol.installs, "open-loop replay");
        self.set("daemon.rules_emitted", ol.installs.emitted as f64);
        let mut seg = 0;
        let scaled = ol
            .latency_us
            .iter()
            .enumerate()
            .map(|(i, l)| {
                while seg < ol.segments.len() && i >= ol.segments[seg] {
                    seg += 1;
                }
                l * factors[seg]
            })
            .collect();
        (ol, scaled)
    }

    /// Instrumented daemon passes: for `budget` seconds (at least one),
    /// each after a plain drain, whose ratio is the tracing overhead
    /// where the daemon is the workload's focus.
    fn traced_drains(&mut self, stream: &Stream, budget: f64) {
        let t0 = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
        let mut last = None;
        while traced.is_empty() || t0.elapsed().as_secs_f64() < budget {
            let d = daemon::drain(&self.cfg, stream, &mut || ());
            self.check_daemon(stream.len(), d.installs, "closed-loop drain");
            plain.push(d.wall_s);
            let i = daemon::instrumented(&self.cfg, stream);
            self.check_daemon(stream.len(), i.installs, "instrumented replay");
            traced.push(i.wall_s);
            layers.push(daemon_layers(&i, self.w.kind == Kind::DaemonReplay));
            last = Some(i);
        }
        self.set_medians(&layers);
        let last = last.expect("one instrumented pass ran");
        for (k, name) in DISPATCH_METRICS.iter().enumerate() {
            let kind = name.rsplit('.').next().unwrap_or(name);
            let n = last.dispatch_count[k];
            println!(
                "dispatch {kind}: {n} messages, mean {:.2} us",
                last.dispatch_ms[k] * 1e3 / n.max(1) as f64
            );
        }
        println!(
            "instrumented pass: {:.3} s, of which install/observe {:.3} s",
            last.wall_s,
            last.install_ms / 1e3
        );
        if self.w.kind == Kind::DaemonReplay {
            self.set(
                "trace.overhead_frac",
                median(&traced) / median(&plain) - 1.0,
            );
        }
    }

    fn finish(mut self, trace: bool) {
        let ref_ms = median(&self.host.samples) * 1e3;
        self.set("host.ref_ms", ref_ms);
        println!("host reference: {} slices", self.host.samples.len());
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for f in &self.tally.failures {
            println!("FAILED: {f}");
        }
        let mut json = Vec::new();
        for &(name, unit) in list {
            let value = if trace {
                self.metrics.get(name).copied().unwrap_or(0.0)
            } else {
                *self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"))
            };
            println!("{name:<38} {value:>16.6} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for &(name, value) in &self.raw {
            println!("{:<38} {value:>16.6} unscaled", format!("{name} (host)"));
        }
        if !trace {
            for name in [
                "host.fixed_work_ms",
                "host.ref_ms",
                "host.nproc",
                "host.solver_workers",
            ] {
                println!("{name:<38} {:>16.6} context", self.metrics[name]);
            }
            if !self.peak_rss_reset {
                println!("peak_rss_mb includes input generation: the kernel refused a peak reset");
            }
        }
        println!(
            "{:<38} {:>16.6} fraction ({} failed of {} attempted)",
            "error_rate",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            json.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as -1, which no real value takes.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn span_ms(t: &TraceStats, name: &str) -> f64 {
    t.span(name).map_or(0.0, |h| h.total_wall_ns as f64 / 1e6)
}

fn span_count(t: &TraceStats, name: &str) -> f64 {
    t.span(name).map_or(0.0, |h| h.count as f64)
}

/// Per-layer metrics of one traced engine pass that took `wall` seconds.
fn engine_layers(o: &Outcome, wall: f64) -> Vec<(&'static str, f64)> {
    let t = &o.trace;
    let c = |name: &str| t.counter(name) as f64;
    vec![
        ("des.events", o.events as f64),
        ("des.events_per_s", o.events as f64 / wall),
        ("des.dead_shed", c("eventq_dead_shed")),
        ("netsim.recompute_ms", span_ms(t, "net_recompute")),
        ("netsim.recomputes", c("net_recomputes")),
        (
            "netsim.flows_per_recompute",
            c("net_region_flows") / c("net_recomputes").max(1.0),
        ),
        (
            "netsim.next_completion_ms",
            span_ms(t, "net_next_completion"),
        ),
        ("netsim.advance_ms", span_ms(t, "ev_advance_net")),
        ("netsim.flow_complete_ms", span_ms(t, "flow_complete")),
        ("netsim.advance_flow_steps", c("net_advance_flow_steps")),
        ("netsim.heap_pushes", c("net_heap_pushes")),
        ("openflow.path_compute_ms", span_ms(t, "path_compute")),
        ("openflow.path_computes", span_count(t, "path_compute")),
        ("openflow.rule_active_ms", span_ms(t, "ev_rule_active")),
        ("openflow.rules_installed", o.rules_installed as f64),
        ("openflow.tcam_rejected", o.tcam_rejected as f64),
        ("pythia.place_ms", span_ms(t, "first_fit_place")),
        ("pythia.placements", span_count(t, "first_fit_place")),
        ("pythia.fetch_wave_ms", span_ms(t, "fetch_wave")),
        ("pythia.demands_deferred", o.demands_deferred as f64),
        ("pythia.demands_no_path", o.demands_no_path as f64),
        ("pythia.epoch_batches", o.epoch_batches as f64),
        ("pythia.lead_min_s", o.lead_min_s.unwrap_or(0.0)),
        ("pythia.overestimate_pct", o.overestimate_pct.unwrap_or(0.0)),
        ("hadoop.reducer_start_ms", span_ms(t, "ev_reducer_start")),
        ("hadoop.map_finish_ms", span_ms(t, "ev_map_finish")),
        ("cluster.finish_round_ms", span_ms(t, "finish_round")),
        (
            "cluster.background_change_ms",
            span_ms(t, "ev_background_change"),
        ),
        (
            "cluster.link_load_sample_ms",
            span_ms(t, "ev_link_load_sample"),
        ),
    ]
}

/// Per-layer metrics of one instrumented daemon pass. Where the daemon
/// is the workload's focus, its service core also supplies the openflow
/// and pythia layers; on `sort60` those come from the engine.
fn daemon_layers(i: &daemon::Instrumented, core_layers: bool) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> = DISPATCH_METRICS
        .iter()
        .zip(i.dispatch_ms)
        .map(|(&n, ms)| (n, ms))
        .collect();
    v.push(("daemon.install_ms", i.install_ms));
    v.push(("daemon.install_max_ms", i.install_max_ms));
    if core_layers {
        let t = &i.trace;
        v.extend([
            ("openflow.path_compute_ms", span_ms(t, "path_compute")),
            ("openflow.path_computes", span_count(t, "path_compute")),
            ("openflow.rules_installed", i.installs.installed as f64),
            ("openflow.tcam_rejected", i.installs.tcam_rejected as f64),
            ("pythia.place_ms", span_ms(t, "first_fit_place")),
            ("pythia.placements", span_count(t, "first_fit_place")),
            ("pythia.fetch_wave_ms", span_ms(t, "fetch_wave")),
            ("pythia.demands_deferred", i.demands_deferred as f64),
            ("pythia.demands_no_path", i.demands_no_path as f64),
        ]);
    }
    v
}

fn sort60_reference(seed: u64) -> Option<f64> {
    SORT60_REFERENCE.lines().find_map(|line| {
        let (s, v) = line.split_once('\t')?;
        (s.parse::<u64>().ok()? == seed).then(|| v.parse().ok())?
    })
}

/// Print `seed<TAB>sim_completion_s` of full-size `sort60` for a seed
/// range: how `reference/sort60_completion.tsv` is made.
fn record_sort60(args: &[String]) {
    let bound = |i: usize| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("perfbench: {USAGE}");
            std::process::exit(2);
        })
    };
    for seed in bound(0)..=bound(1) {
        let w = Workload {
            kind: Kind::Sort60,
            seed,
            small: false,
        };
        let (_, o) = engine::pass(&w, &w.cfg());
        assert_eq!(o.completed, 1, "sort60 seed {seed} did not complete");
        println!("{seed}\t{}", o.makespan_s);
    }
}
