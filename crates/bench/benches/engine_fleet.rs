//! Fleet-scale control-plane macro-benchmark: a streaming multi-tenant
//! arrival trace on a 1024-server fat-tree.
//!
//! This backs `BENCH_fleet.json`. The headline scenario is 1000 Poisson
//! jobs (Sort/Nutch mix, bounded-Pareto sizes) streamed through the
//! engine on a k=16 fat-tree with a 16-way pod-sharded collector and
//! epoch-batched rule installs — the configuration whose sustained
//! event rate the fleet smoke (`tests/fleet_smoke.rs`,
//! `FLEET_SERVERS=1024`) floors at the `BENCH_fleet.json` rate
//! (relaxed-order solver, pinned at runtime). A k=8 (128-server)
//! variant runs the same fleet for scaling context.
//!
//! Every scenario is deterministic, so events/sec is derived by dividing
//! the (printed) event count by the measured wall clock. Run with
//! `BENCH_JSON=<file> cargo bench -p pythia-bench --bench engine_fleet`
//! to get machine-readable `ns_per_iter` lines.

use criterion::{criterion_group, criterion_main, Criterion};
use pythia_cluster::{run_multi_scenario, ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_netsim::{BackgroundProfile, FatTreeParams};
use pythia_workloads::FleetSpec;

/// The fleet of the `BENCH_fleet.json` floor: 1000 jobs, ~4 s mean
/// interarrival, 512 MB – 8 GB bounded-Pareto inputs over the default
/// Sort/Nutch mix.
fn fleet() -> FleetSpec {
    let mut f = FleetSpec::poisson(1000, SimDuration::from_secs(4), 42);
    f.min_input_bytes = 512 << 20;
    f.max_input_bytes = 8u64 << 30;
    f
}

/// Fleet engine configuration on a `k`-pod fat-tree: streaming job
/// slots, one collector shard per pod, 1 s install epochs, and a
/// fleet telemetry cadence (the paper's 500 ms NetFlow probe is sized
/// for one job on 60 servers, not a continuous 1024-server stream).
fn fleet_cfg(k: u32) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(11)
        .with_stream_jobs(true)
        .with_collector_shards(k as usize)
        .with_install_epoch(SimDuration::from_secs(1))
        .with_relaxed_order(true);
    cfg.probe_period = SimDuration::from_secs(2);
    cfg.link_load_period = SimDuration::from_secs(5);
    cfg.background = BackgroundProfile::Fluctuating {
        period_secs: 30.0,
        spread: 0.3,
    };
    cfg
}

fn engine_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_fleet");
    g.sample_size(10);

    for k in [8u32, 16] {
        let servers = (k * k * k) / 4;
        let cfg = fleet_cfg(k);
        let f = fleet();
        let r = run_multi_scenario(f.jobs(), &cfg);
        eprintln!(
            "engine_fleet/fleet1000_fat{k}_pythia: {} servers, {} events, \
             {} epoch batches, makespan {}",
            servers,
            r.events_processed,
            r.epoch_batches,
            r.makespan()
        );
        g.bench_function(format!("fleet1000_fat{k}_pythia"), |b| {
            b.iter(|| run_multi_scenario(f.jobs(), &cfg))
        });
    }

    g.finish();
}

criterion_group!(benches, engine_fleet);
criterion_main!(benches);
