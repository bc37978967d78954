//! Live-daemon macro-benchmarks: ingest→install latency and throughput
//! for the control-plane-as-a-service path (`pythia-daemon`).
//!
//! These back `BENCH_daemon.json`. The headline number is predictions
//! per hour through the in-process daemon + simulator-dataplane backend
//! — the paper's control plane must sustain millions of predictions per
//! hour to keep up with a busy Hadoop fleet, and the release perf gates
//! (`tests/perf_gates.rs`) hold the threaded daemon to the
//! `BENCH_daemon.json` floor through `pythia_daemon::serve_synthetic`,
//! the run `pythia-sim serve` prints. Every stream is deterministic, so
//! predictions/hour falls out of `ns_per_iter` divided by the stream's
//! prediction count.
//!
//! Run with `BENCH_JSON=<file> cargo bench -p pythia-bench --bench
//! engine_daemon` for machine-readable `ns_per_iter` lines.

use criterion::{criterion_group, criterion_main, Criterion};
use pythia_cluster::{run_scenario_tapped, ScenarioConfig, SchedulerKind};
use pythia_daemon::{synthetic_stream, Daemon, SimDataplaneBackend};
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_workloads::SkewModel;

fn cfg() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(1)
}

/// Feed a prepared stream through a fresh daemon, start to flush.
fn drive(
    cfg: &ScenarioConfig,
    stream: &[(pythia_des::SimTime, pythia_cluster::ControlMsg)],
) -> u64 {
    let backend = SimDataplaneBackend::from_config(cfg);
    let mut d = Daemon::new(cfg, backend, stream.len().max(1)).expect("pythia");
    for (t, m) in stream {
        d.ingest(*t, m.clone());
    }
    d.finish();
    d.stats().processed
}

/// Synthetic firehose: N map-finish predictions round-robined over the
/// testbed's servers — the pure control-plane hot path with no
/// simulator in the loop.
fn daemon_synthetic(c: &mut Criterion) {
    let cfg = cfg();
    let mut g = c.benchmark_group("engine_daemon");
    g.sample_size(10);
    for n in [1_000usize, 10_000] {
        let stream = synthetic_stream(&cfg, n);
        g.bench_function(format!("synthetic_{n}"), |b| {
            b.iter(|| drive(&cfg, &stream));
        });
    }
    g.finish();
}

/// Replayed batch tap: the exact message stream a real simulated job
/// produces (reducer launches, predictions, fetch completions, load
/// telemetry), i.e. the equivalence-test workload as a benchmark.
fn daemon_replay(c: &mut Criterion) {
    const MB: u64 = 1_000_000;
    let job = JobSpec {
        name: "ref".into(),
        num_maps: 40,
        num_reducers: 8,
        input_bytes: 40 * 64 * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(8, 0.1, 99),
    };
    let cfg = cfg().with_relaxed_order(false);
    let (_, stream) = run_scenario_tapped(job, &cfg);
    let mut g = c.benchmark_group("engine_daemon");
    g.sample_size(10);
    g.bench_function(format!("replay_tap_{}", stream.len()), |b| {
        b.iter(|| drive(&cfg, &stream));
    });
    g.finish();
}

criterion_group!(benches, daemon_synthetic, daemon_replay);
criterion_main!(benches);
