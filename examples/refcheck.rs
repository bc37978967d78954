//! Prints the canonical report fingerprint of each deterministic
//! reference scenario, one line each, in the form
//! `tests/refcheck_fingerprint.rs` pins (used to verify refactors keep
//! the fault-free path bit-identical, and to regenerate those pins).
//!
//! With `--tolerance`, each scenario is additionally run with the
//! relaxed-order solver and compared against the exact run within the
//! published epsilon bounds (completion times and probe curves); the
//! process exits non-zero if any bound is violated.

use pythia_repro::cluster::{
    compare_conservation, compare_tolerance, run_multi_scenario, run_scenario, ScenarioConfig,
    SchedulerKind,
};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::{DurationModel, JobSpec};
use pythia_repro::netsim::FatTreeParams;
use pythia_repro::workloads::SkewModel;

const MB: u64 = 1_000_000;

fn ref_job() -> JobSpec {
    JobSpec {
        name: "ref".into(),
        num_maps: 40,
        num_reducers: 8,
        input_bytes: 40 * 64 * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(8, 0.1, 99),
    }
}

fn main() {
    let tolerance = std::env::args().any(|a| a == "--tolerance");
    let mut failed = false;
    for (kind, ratio, seed) in [
        (SchedulerKind::Pythia, 20, 42),
        (SchedulerKind::Pythia, 10, 7),
        (SchedulerKind::Ecmp, 20, 42),
        (SchedulerKind::Hedera, 10, 1),
    ] {
        let cfg = ScenarioConfig::default()
            .with_scheduler(kind)
            .with_oversubscription(ratio)
            .with_seed(seed)
            .with_relaxed_order(false);
        let r = run_scenario(ref_job(), &cfg);
        println!("{kind:?} ratio={ratio} seed={seed} {}", r.fingerprint());
        if tolerance {
            let relaxed = run_scenario(ref_job(), &cfg.clone().with_relaxed_order(true));
            // Pythia routes by (src, dst) pair rules and self-corrects, so
            // its relaxed drift is held to the epsilon bounds. The
            // hash-routed baselines rehash on any completion-order flip
            // (ephemeral ports are schedule-dependent) and are only
            // required to conserve flows and bytes.
            let tol = match kind {
                SchedulerKind::Pythia => compare_tolerance(&r, &relaxed),
                _ => compare_conservation(&r, &relaxed),
            };
            println!(
                "  relaxed: completion={} events={} | {}",
                relaxed.completion(),
                relaxed.events_processed,
                tol.summary()
            );
            for v in &tol.violations {
                eprintln!("  VIOLATION: {v}");
            }
            failed |= !tol.within_bounds();
        }
    }
    println!(
        "fat-tree k=4 two jobs {}",
        fat_tree_two_jobs().fingerprint()
    );
    if failed {
        eprintln!("tolerance refcheck FAILED");
        std::process::exit(1);
    }
}

/// Two staggered half-size jobs on a k=4 fat-tree (exact solver): the
/// multi-job scenario `tests/refcheck_fingerprint.rs` also pins.
fn fat_tree_two_jobs() -> pythia_repro::cluster::MultiRunReport {
    let half = || {
        let mut j = ref_job();
        j.num_maps = 20;
        j.input_bytes = 20 * 64 * MB;
        j
    };
    let cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(42)
        .with_relaxed_order(false);
    run_multi_scenario(
        vec![
            (half(), SimDuration::ZERO),
            (half(), SimDuration::from_secs(4)),
        ],
        &cfg,
    )
}
