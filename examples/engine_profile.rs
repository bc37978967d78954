//! Per-handler dispatch-cost profile of the cluster engine.
//!
//! Runs the 60 GB sort on a fat-tree k=8 with the flight recorder
//! enabled and prints every `ev_*` span histogram: how many times each
//! event type fired, total wall time, and mean/max per event. This is the
//! attribution tool behind DESIGN.md §5g's per-event complexity budget —
//! run it after touching the engine to see where dispatch time goes.
//! Every mode runs the relaxed-order solver (pinned at runtime), the
//! solver whose share of wall time CI budgets.
//!
//! ```text
//! cargo run --release --example engine_profile            # pythia
//! cargo run --release --example engine_profile -- ecmp    # baseline
//! cargo run --release --example engine_profile -- hedera
//! cargo run --release --example engine_profile -- fleet   # 1024-server fleet
//! ```

use pythia_repro::cluster::{run_multi_scenario, run_scenario, ScenarioConfig, SchedulerKind};
use pythia_repro::des::SimDuration;
use pythia_repro::netsim::FatTreeParams;
use pythia_repro::trace::TraceConfig;
use pythia_repro::workloads::{FleetSpec, SortWorkload, Workload};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let kind = match mode.as_str() {
        "ecmp" => SchedulerKind::Ecmp,
        "hedera" => SchedulerKind::Hedera,
        _ => SchedulerKind::Pythia,
    };
    let (stats, events, wall, headline) = if mode == "fleet" {
        // The BENCH_fleet.json scenario with the flight recorder on.
        let mut fleet = FleetSpec::poisson(1000, SimDuration::from_secs(4), 42);
        fleet.min_input_bytes = 512 << 20;
        fleet.max_input_bytes = 8u64 << 30;
        let mut cfg = ScenarioConfig::default()
            .with_topology(FatTreeParams {
                k: 16,
                ..FatTreeParams::default()
            })
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(10)
            .with_seed(11)
            .with_stream_jobs(true)
            .with_collector_shards(16)
            .with_install_epoch(SimDuration::from_secs(1))
            .with_relaxed_order(true)
            .with_trace(TraceConfig::enabled());
        cfg.probe_period = SimDuration::from_secs(2);
        cfg.link_load_period = SimDuration::from_secs(5);
        cfg.background = pythia_repro::netsim::BackgroundProfile::Fluctuating {
            period_secs: 30.0,
            spread: 0.3,
        };
        let start = std::time::Instant::now();
        let r = run_multi_scenario(fleet.jobs(), &cfg);
        let wall = start.elapsed();
        let head = format!(
            "1000-job fleet / fat-tree k=16 / pythia: {} events, makespan {:.0}s",
            r.events_processed,
            r.makespan().as_secs_f64()
        );
        (r.trace_stats, r.events_processed, wall, head)
    } else {
        let cfg = ScenarioConfig::default()
            .with_topology(FatTreeParams {
                k: 8,
                ..FatTreeParams::default()
            })
            .with_scheduler(kind)
            .with_oversubscription(10)
            .with_seed(7)
            .with_relaxed_order(true)
            .with_trace(TraceConfig::enabled());
        let start = std::time::Instant::now();
        let r = run_scenario(SortWorkload::paper_60gb().job(), &cfg);
        let wall = start.elapsed();
        let head = format!(
            "60 GB sort / fat-tree k=8 / {} (relaxed): {} events, completion {:.1}s",
            kind.label(),
            r.events_processed,
            r.completion().as_secs_f64()
        );
        (r.trace_stats, r.events_processed, wall, head)
    };
    println!(
        "{headline} — {:.1} ms wall ({:.0} events/sec)",
        wall.as_secs_f64() * 1e3,
        events as f64 / wall.as_secs_f64(),
    );

    println!(
        "{:<24} {:>9} {:>12} {:>10} {:>10}",
        "span", "count", "total ms", "mean us", "max us"
    );
    let mut rows: Vec<_> = stats.spans.iter().collect();
    rows.sort_by_key(|&(_, h)| std::cmp::Reverse(h.total_wall_ns));
    for (name, h) in rows {
        println!(
            "{:<24} {:>9} {:>12.3} {:>10.2} {:>10.2}",
            name,
            h.count,
            h.total_wall_ns as f64 / 1e6,
            h.total_wall_ns as f64 / h.count.max(1) as f64 / 1e3,
            h.max_wall_ns as f64 / 1e3,
        );
    }
    for (name, v) in &stats.counters {
        if *v > 0 {
            println!("counter {name}: {v}");
        }
    }

    // Machine-readable attribution for CI budget gates (the solver-share
    // assert) and the BENCH_*.json provenance notes: `PROFILE_JSON=<file>`
    // writes one JSON object with the full span table and counters.
    if let Ok(path) = std::env::var("PROFILE_JSON") {
        let mut spans: Vec<_> = stats.spans.iter().collect();
        spans.sort_by_key(|&(_, h)| std::cmp::Reverse(h.total_wall_ns));
        let span_json: Vec<String> = spans
            .iter()
            .map(|(name, h)| {
                format!(
                    "{{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                    h.count, h.total_wall_ns, h.max_wall_ns
                )
            })
            .collect();
        let counter_json: Vec<String> = stats
            .counters
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        let json = format!(
            "{{\"mode\": \"{}\", \"events\": {events}, \"wall_ns\": {}, \
             \"spans\": [{}], \"counters\": {{{}}}}}\n",
            if mode.is_empty() { "pythia" } else { &mode },
            wall.as_nanos(),
            span_json.join(", "),
            counter_json.join(", ")
        );
        std::fs::write(&path, json).expect("write PROFILE_JSON");
    }
}
