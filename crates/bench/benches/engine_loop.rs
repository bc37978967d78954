//! Engine event-loop macro-benchmarks: whole-run wall clock and events
//! per second for paper-scale scenarios.
//!
//! These back `BENCH_engine.json`. The headline scenario is the paper's
//! 60 GB Sort on a fat-tree k=8 (128 servers) under each scheduler, plus
//! a 3-job concurrent mix — the workloads where the engine's per-event
//! dispatch cost (flow scans, payload clones, per-tick rebuilds)
//! dominates once the rate engine and control plane are incremental.
//! `sort60_fat8_pythia_relaxed` is the Pythia sort again on the
//! relaxed-order solver, pinned at runtime; it has its own floor. The
//! floors are gated by the release perf gates (`tests/perf_gates.rs`),
//! which run the two Pythia sorts themselves rather than this bench.
//!
//! Every scenario is deterministic, so events/sec is derived by dividing
//! the (printed) event count by the measured wall clock. Run with
//! `BENCH_JSON=<file> cargo bench -p pythia-bench --bench engine_loop`
//! to get machine-readable `ns_per_iter` lines.

use criterion::{criterion_group, criterion_main, Criterion};
use pythia_cluster::{run_multi_scenario, run_scenario, ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_netsim::FatTreeParams;
use pythia_workloads::{SortWorkload, Workload};

fn fat8() -> FatTreeParams {
    FatTreeParams {
        k: 8,
        ..FatTreeParams::default()
    }
}

fn sort_cfg(kind: SchedulerKind) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_topology(fat8())
        .with_scheduler(kind)
        .with_oversubscription(10)
        .with_seed(7)
}

/// A 3-job mix: three 20 GB sorts submitted 5 s apart. Concurrent
/// shuffles maximize live-flow counts — exactly what punishes any
/// O(all-flows) work left in the dispatch loop.
fn multi_jobs() -> Vec<(pythia_hadoop::JobSpec, SimDuration)> {
    (0..3u64)
        .map(|i| {
            let mut w = SortWorkload::paper_60gb();
            w.input_bytes /= 3;
            w.seed ^= i;
            (w.job(), SimDuration::from_secs(5 * i))
        })
        .collect()
}

fn engine_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_loop");
    g.sample_size(10);

    for kind in [
        SchedulerKind::Pythia,
        SchedulerKind::Ecmp,
        SchedulerKind::Hedera,
    ] {
        let cfg = sort_cfg(kind);
        let sort = SortWorkload::paper_60gb();
        let r = run_scenario(sort.job(), &cfg);
        eprintln!(
            "engine_loop/sort60_fat8_{}: {} events, completion {}",
            kind.label(),
            r.events_processed,
            r.completion()
        );
        g.bench_function(format!("sort60_fat8_{}", kind.label()), |b| {
            b.iter(|| run_scenario(sort.job(), &cfg))
        });
    }

    // Same scenario on the relaxed-order solver (deferred solves,
    // component-parallel fair share). Its event count differs from the
    // exact run's: completions land in solver order.
    let cfg = sort_cfg(SchedulerKind::Pythia).with_relaxed_order(true);
    let sort = SortWorkload::paper_60gb();
    let r = run_scenario(sort.job(), &cfg);
    eprintln!(
        "engine_loop/sort60_fat8_pythia_relaxed: {} events, completion {}",
        r.events_processed,
        r.completion()
    );
    g.bench_function("sort60_fat8_pythia_relaxed", |b| {
        b.iter(|| run_scenario(sort.job(), &cfg))
    });

    let cfg = sort_cfg(SchedulerKind::Pythia);
    let r = run_multi_scenario(multi_jobs(), &cfg);
    eprintln!(
        "engine_loop/multijob3_fat8_pythia: {} events, makespan {}",
        r.events_processed,
        r.makespan()
    );
    g.bench_function("multijob3_fat8_pythia", |b| {
        b.iter(|| run_multi_scenario(multi_jobs(), &cfg))
    });

    g.finish();
}

criterion_group!(benches, engine_loop);
criterion_main!(benches);
