//! Release-only performance gates, one `#[test]` per gate:
//!
//! - **Engine floor**: the 60 GB Sort on a fat-tree k=8 (1:10, seed 7)
//!   above `FLOOR_ALLOWANCE` × its calibrated events/sec floor.
//! - **Solver share**: on the traced Sort, the rate solver
//!   (`net_recompute`) takes ≤ 15% of wall time.
//! - **Daemon**: 100k synthetic predictions through the threaded daemon
//!   above `FLOOR_ALLOWANCE` × its throughput floor and under its p99
//!   ceiling.
//! - **Disabled trace record**: `Trace::record`, a `Trace::span` guard
//!   and `Trace::set_now` with the recorder off each cost < 100 ns.
//!
//! Every floor and ceiling is a constant below, every event count comes
//! from the run's own report, and every rate is scaled by this session's
//! fixed-work calibration factor (`pythia_experiments::calibrate`).
//! EXPERIMENTS.md ("Retired bench records") has the measurements the
//! bounds were set from. Debug builds ignore the gates (the reference
//! cross-check dominates their timing). Run them serially, so the rate
//! solver's worker pool never times against another gate:
//!
//! ```text
//! cargo test --release --test perf_gates -- --test-threads=1
//! ```

use std::hint::black_box;
use std::time::Instant;

use pythia_repro::cluster::{run_scenario, ScenarioConfig, SchedulerKind};
use pythia_repro::daemon::serve_synthetic;
use pythia_repro::des::SimTime;
use pythia_repro::experiments::calibrate::{measured_session_factor, FLOOR_ALLOWANCE};
use pythia_repro::netsim::{FatTreeParams, FlowId, NodeId};
use pythia_repro::trace::{Component, Trace, TraceConfig, TraceEvent};
use pythia_repro::workloads::{SortWorkload, Workload};

/// Calibrated events/sec floor of `sort60` on the relaxed-order solver:
/// the 5× target over the 52.4k pre-index engine, measured at 305.8k
/// calibrated.
const SORT60_RELAXED_FLOOR: f64 = 300_000.0;
/// Daemon throughput floor: the paper-scale spill rate of a busy Hadoop
/// fleet, not the ~400 M/hour the daemon sustains.
const DAEMON_FLOOR_PER_HOUR: f64 = 1_000_000.0;
/// Daemon p99 ceiling: ~10× the 46 ms queue-wait tail measured at queue
/// capacity 4096.
const DAEMON_P99_CEILING_NS: f64 = 500_000_000.0;
/// Largest share of Sort wall time the rate solver may take, so
/// an accidental O(all-flows) solve cannot hide behind the floor's
/// allowance.
const SOLVER_SHARE_BUDGET: f64 = 0.15;
/// Ceiling on one disabled recorder call: over 20× the 0.7–4.5 ns each
/// measured, loose enough for shared runners, tight enough to catch a
/// lock or an allocation on the disabled path.
const DISABLED_TRACE_CEILING_NS: f64 = 100.0;
/// Timed passes per engine measurement, after one warm-up pass.
const ENGINE_PASSES: u32 = 10;

/// Mean wall time of `passes` calls of `f`, in nanoseconds.
fn mean_ns(passes: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..passes {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(passes)
}

/// The paper's 60 GB Sort scenario: fat-tree k=8, 1:10, seed 7.
fn sort60() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 8,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(7)
}

#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
#[test]
fn engine_floors() {
    let rows = [("sort60_fat8_pythia", SORT60_RELAXED_FLOOR)];
    let sort = SortWorkload::paper_60gb();
    let mut misses = Vec::new();
    for (row, floor) in rows {
        let cfg = sort60();
        // The warm-up pass; the run is deterministic, so its event count
        // is every timed pass's.
        let events = run_scenario(sort.job(), &cfg).events_processed;
        let ns = mean_ns(ENGINE_PASSES, || {
            black_box(run_scenario(sort.job(), &cfg));
        });
        let factor = measured_session_factor();
        let raw = events as f64 / (ns / 1e9);
        let calibrated = raw * factor;
        eprintln!(
            "{row}: {calibrated:.0} calibrated events/sec ({events} events, {raw:.0} raw × \
             {factor:.2}; floor {floor}, gate > {FLOOR_ALLOWANCE} × floor)"
        );
        if calibrated <= FLOOR_ALLOWANCE * floor {
            misses.push(format!(
                "{row}: {calibrated:.0} calibrated events/sec ({raw:.0} raw × {factor:.2}) \
                 <= FLOOR_ALLOWANCE {FLOOR_ALLOWANCE} × floor {floor}"
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}

#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
#[test]
fn relaxed_solver_share() {
    // Share is drift-immune (solver time and wall move together with the
    // host), so it is not calibrated.
    let cfg = sort60().with_trace(TraceConfig::enabled());
    let start = Instant::now();
    let r = run_scenario(SortWorkload::paper_60gb().job(), &cfg);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let solver_ns = r
        .trace_stats
        .span("net_recompute")
        .expect("traced run records net_recompute spans")
        .total_wall_ns as f64;
    let share = solver_ns / wall_ns;
    eprintln!(
        "net_recompute: {:.1} ms of {:.1} ms wall = {:.1}% (budget <= {:.0}%)",
        solver_ns / 1e6,
        wall_ns / 1e6,
        share * 100.0,
        SOLVER_SHARE_BUDGET * 100.0
    );
    assert!(
        share <= SOLVER_SHARE_BUDGET,
        "solver share {:.1}% of sort60 wall exceeds the {:.0}% budget",
        share * 100.0,
        SOLVER_SHARE_BUDGET * 100.0
    );
}

#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
#[test]
fn daemon_throughput_and_tail() {
    const PREDICTIONS: usize = 100_000;
    let cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(1);
    let (report, elapsed) = serve_synthetic(&cfg, PREDICTIONS, 4096).expect("pythia daemon");
    let per_hour = PREDICTIONS as f64 / elapsed.as_secs_f64() * 3600.0;
    let p99_ns = report.p99.as_nanos() as f64;
    eprintln!(
        "daemon: {per_hour:.0} predictions/hour (floor {DAEMON_FLOOR_PER_HOUR}), p99 {p99_ns} ns \
         (ceiling {DAEMON_P99_CEILING_NS}), installed {}, shed {}",
        report.installed, report.stats.shed
    );
    assert_eq!(report.stats.shed, 0, "lossless feed shed messages");
    assert!(report.installed > 0, "daemon installed no rules");
    assert!(
        per_hour > FLOOR_ALLOWANCE * DAEMON_FLOOR_PER_HOUR,
        "{per_hour:.0} predictions/hour <= FLOOR_ALLOWANCE {FLOOR_ALLOWANCE} × \
         DAEMON_FLOOR_PER_HOUR {DAEMON_FLOOR_PER_HOUR}"
    );
    assert!(
        p99_ns < DAEMON_P99_CEILING_NS,
        "p99 {p99_ns} ns not under DAEMON_P99_CEILING_NS {DAEMON_P99_CEILING_NS} ns"
    );
}

#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
#[test]
fn disabled_trace_record() {
    const CALLS: u64 = 1_000_000;
    let off = Trace::off();
    let record = || {
        for i in 0..CALLS {
            black_box(&off).record(Component::NetSim, || TraceEvent::FlowStart {
                flow: FlowId(i),
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1,
            });
        }
    };
    let span = || {
        for _ in 0..CALLS {
            let _guard = black_box(&off).span("path_compute");
        }
    };
    let set_now = || {
        for i in 0..CALLS {
            black_box(&off).set_now(SimTime::from_nanos(i));
        }
    };
    let mut misses = Vec::new();
    for (name, batch) in [
        ("record", &record as &dyn Fn()),
        ("span", &span),
        ("set_now", &set_now),
    ] {
        batch();
        let ns = mean_ns(10, batch) / CALLS as f64;
        eprintln!("disabled-path {name}: {ns:.2} ns/call (ceiling {DISABLED_TRACE_CEILING_NS} ns)");
        if ns >= DISABLED_TRACE_CEILING_NS {
            misses.push(format!(
                "disabled-path {name} took {ns:.2} ns/call, ceiling {DISABLED_TRACE_CEILING_NS} ns"
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
