//! Fleet smoke tests: the streaming multi-tenant control plane — arrival
//! traces, per-pod collector shards, epoch-batched rule installs — must
//! run end-to-end and agree with the historical eager/unsharded path.
//!
//! The k=4 (16-server) smoke always runs. The 1024-server fleet is opt-in
//! via the `FLEET_SERVERS` environment variable (CI's workflow_dispatch
//! knob, mirroring `SCALE_SERVERS`): `FLEET_SERVERS=1024` adds the k=16
//! fabric with ≥1000 streamed jobs and pins the 175k events/sec floor
//! from `BENCH_fleet.json`, scaled by the fixed-work session factor
//! (`pythia_experiments::calibrate`) so host drift cannot fake a
//! regression — or hide one.

use pythia_repro::cluster::{run_multi_scenario, ScenarioConfig, SchedulerKind};
use pythia_repro::des::SimDuration;
use pythia_repro::netsim::FatTreeParams;
use pythia_repro::workloads::FleetSpec;

fn fleet_cap() -> usize {
    std::env::var("FLEET_SERVERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// A small, fast fleet: two dozen jobs arriving over ~40 s on 16 servers.
fn small_fleet() -> FleetSpec {
    let mut f = FleetSpec::poisson(24, SimDuration::from_millis(1700), 42);
    f.min_input_bytes = 64 << 20;
    f.max_input_bytes = 512 << 20;
    f
}

fn fleet_cfg(k: u32) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(11)
}

/// The k=4 fleet on the relaxed solver (the fleet's production mode):
/// streamed jobs, four collector shards, epoch-batched installs.
#[test]
fn fleet_streams_on_fat_tree_k4() {
    let fleet = small_fleet();
    let cfg = fleet_cfg(4)
        .with_stream_jobs(true)
        .with_collector_shards(4)
        .with_install_epoch(SimDuration::from_millis(500))
        .with_relaxed_order(true);
    let r = run_multi_scenario(fleet.jobs(), &cfg);
    assert_eq!(r.jobs.len(), fleet.len());
    for j in &r.jobs {
        let secs = j.completion().as_secs_f64();
        assert!(secs > 0.0 && secs.is_finite(), "{} unfinished", j.name);
    }
    assert!(r.epoch_batches > 0, "epoch batching never flushed a pod");
    assert_eq!(r.tenant_usage.len(), fleet.len());
    assert!(
        r.tenant_usage.iter().any(|t| t.rules_issued > 0),
        "no tenant-attributed control-plane work at all"
    );
    let fairness = r.fairness();
    assert!(
        fairness.rule_share_jain.unwrap_or(0.0) > 0.0,
        "fleet fairness index undefined despite installs"
    );
}

/// Streaming materialization + a single collector shard must reproduce
/// the historical eager/unsharded run exactly: same report fingerprint
/// (exact solver path).
#[test]
fn streaming_single_shard_matches_eager_unsharded() {
    let fleet = small_fleet();
    let base = fleet_cfg(4).with_relaxed_order(false);
    let eager = run_multi_scenario(fleet.jobs(), &base);
    let streamed = run_multi_scenario(
        fleet.jobs(),
        &base.clone().with_stream_jobs(true).with_collector_shards(1),
    );
    assert_eq!(eager.fingerprint(), streamed.fingerprint());
}

/// The 1024-server fleet: ≥1000 streamed jobs on a k=16 fat-tree with 16
/// collector shards and epoch-batched installs, sustained above the
/// calibration-scaled `BENCH_fleet.json` floor of 175k events/sec
/// (relaxed-order solver, the fleet's production mode).
#[test]
fn fleet_1024_sustains_event_rate_gated() {
    if fleet_cap() < 1024 {
        eprintln!("skipped: set FLEET_SERVERS>=1024 to run the 1024-server fleet");
        return;
    }
    let mut fleet = FleetSpec::poisson(1000, SimDuration::from_secs(4), 42);
    fleet.min_input_bytes = 512 << 20;
    fleet.max_input_bytes = 8u64 << 30;
    let mut cfg = fleet_cfg(16)
        .with_stream_jobs(true)
        .with_collector_shards(16)
        .with_install_epoch(SimDuration::from_secs(1))
        .with_relaxed_order(true);
    // Fleet telemetry cadence: the paper's 500 ms NetFlow probe is sized
    // for one job on 60 servers; at 1024 servers a long-running fleet
    // samples less often (the bench measures the engine loop, not the
    // probe scan).
    cfg.probe_period = SimDuration::from_secs(2);
    cfg.link_load_period = SimDuration::from_secs(5);
    cfg.background = pythia_repro::netsim::BackgroundProfile::Fluctuating {
        period_secs: 30.0,
        spread: 0.3,
    };
    let start = std::time::Instant::now();
    let r = run_multi_scenario(fleet.jobs(), &cfg);
    let wall = start.elapsed().as_secs_f64();
    let rate = r.events_processed as f64 / wall;
    // Scale this session's measured rate by the fixed-work calibration
    // factor, so the floor check compares against the reference host in
    // BENCH_HOST.json instead of whatever state the shared box is in.
    let factor = pythia_repro::experiments::calibrate::measured_session_factor("BENCH_HOST.json");
    let calibrated = rate * factor;
    eprintln!(
        "fleet1024: {} jobs, {} events in {wall:.1}s = {rate:.0} ev/s raw, \
         {calibrated:.0} ev/s calibrated (session factor {factor:.2}), \
         {} epoch batches, makespan {}",
        r.jobs.len(),
        r.events_processed,
        r.epoch_batches,
        r.makespan()
    );
    assert_eq!(r.jobs.len(), 1000);
    assert!(r.epoch_batches > 0);
    // 70% of the BENCH_fleet.json floor, same allowance as the engine
    // throughput smoke in ci.yml.
    assert!(
        calibrated > 0.7 * 175_000.0,
        "calibrated fleet event rate {calibrated:.0} ev/s (raw {rate:.0} × {factor:.2}) \
         under 70% of the 175k floor (BENCH_fleet.json, host context BENCH_HOST.json)"
    );
}
