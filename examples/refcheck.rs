//! Prints the canonical report fingerprint of each deterministic
//! reference scenario, one line each, in the form
//! `tests/refcheck_fingerprint.rs` pins (used to verify refactors keep
//! the fault-free path bit-identical, and to regenerate those pins).
//!
//! ```text
//! cargo run --release --example refcheck
//! ```

use pythia_repro::cluster::{run_multi_scenario, run_scenario, ScenarioConfig, SchedulerKind};
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
    for (kind, ratio, seed) in [
        (SchedulerKind::Pythia, 20, 42),
        (SchedulerKind::Pythia, 10, 7),
        (SchedulerKind::Ecmp, 20, 42),
        (SchedulerKind::Hedera, 10, 1),
    ] {
        let cfg = ScenarioConfig::default()
            .with_scheduler(kind)
            .with_oversubscription(ratio)
            .with_seed(seed);
        let r = run_scenario(ref_job(), &cfg);
        println!("{kind:?} ratio={ratio} seed={seed} {}", r.fingerprint());
    }
    println!(
        "fat-tree k=4 two jobs {}",
        fat_tree_two_jobs().fingerprint()
    );
}

/// Two staggered half-size jobs on a k=4 fat-tree: the multi-job
/// scenario `tests/refcheck_fingerprint.rs` also pins.
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
        .with_seed(42);
    run_multi_scenario(
        vec![
            (half(), SimDuration::ZERO),
            (half(), SimDuration::from_secs(4)),
        ],
        &cfg,
    )
}
