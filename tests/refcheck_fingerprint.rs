//! Pins the deterministic reference fingerprints (`examples/refcheck.rs`
//! prints them) so refactors that are supposed to be behavior-preserving
//! — the lazy path cache, the residual table, the structural Clos
//! enumerator — cannot silently drift the fault-free simulation path.
//! The headline numbers of each pin were produced by the eager
//! pre-refactor control plane; the hash is the canonical report
//! fingerprint over everything else the run observed.
//!
//! Every scenario pins `.with_relaxed_order(false)`: these fingerprints
//! define the exact accounting path, which must stay byte-identical. The
//! relaxed solver is held to the tolerance bounds in
//! `tests/relaxed_tolerance.rs` instead.

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

#[test]
fn reference_fingerprints_are_stable() {
    let expected = [
        (
            SchedulerKind::Pythia,
            20,
            42,
            "t=19.487058s ev=567 rules=112 flows=288 #cf04588727901e15",
        ),
        (
            SchedulerKind::Pythia,
            10,
            7,
            "t=16.630084s ev=571 rules=112 flows=288 #550ecb6063a272b6",
        ),
        (
            SchedulerKind::Ecmp,
            20,
            42,
            "t=46.573418s ev=496 rules=0 flows=288 #918153d813c61364",
        ),
        (
            SchedulerKind::Hedera,
            10,
            1,
            "t=17.705975s ev=409 rules=0 flows=288 #867dd0114bc776ff",
        ),
    ];
    for (kind, ratio, seed, want) in expected {
        let cfg = ScenarioConfig::default()
            .with_scheduler(kind)
            .with_oversubscription(ratio)
            .with_seed(seed)
            .with_relaxed_order(false);
        let r = run_scenario(ref_job(), &cfg);
        assert_eq!(
            r.fingerprint().to_string(),
            want,
            "{kind:?} ratio={ratio} seed={seed}"
        );
    }
}

/// Concurrent shuffles on a fat-tree: two staggered jobs at k=4. Pins the
/// multi-job scheduling path (shared flow network, interleaved fetch
/// waves) that the single-job fingerprints above never exercise.
#[test]
fn fat_tree_multi_job_fingerprint_is_stable() {
    let half = || {
        let mut j = ref_job();
        j.num_maps = 20;
        j.input_bytes = 20 * 64 * MB;
        j
    };
    let jobs = vec![
        (half(), SimDuration::ZERO),
        (half(), SimDuration::from_secs(4)),
    ];
    let cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(42)
        .with_relaxed_order(false);
    let r = run_multi_scenario(jobs, &cfg);
    assert_eq!(
        r.fingerprint().to_string(),
        "t=14.832763s ev=1553 rules=1072 flows=296 #b9bd9acbe802b177"
    );
}
