//! Holds the relaxed-order solver to its published contract: Pythia runs
//! stay within the epsilon envelope of the exact path, hash-routed
//! baselines conserve flows and bytes, and the relaxed path itself is
//! bitwise deterministic — run-to-run and across solver worker counts.
//!
//! The exact path's byte-identical fingerprints are pinned separately in
//! `tests/refcheck_fingerprint.rs`; this file owns everything
//! `with_relaxed_order(true)` is allowed to change.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pythia_repro::cluster::{
    compare_conservation, compare_tolerance, run_multi_scenario, run_scenario, MultiRunReport,
    ScenarioConfig, SchedulerKind,
};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::{DurationModel, JobSpec};
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

fn ref_cfg(kind: SchedulerKind, ratio: u32, seed: u64) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_scheduler(kind)
        .with_oversubscription(ratio)
        .with_seed(seed)
}

/// Pythia self-corrects through pair rules, so its relaxed drift must
/// stay inside the published completion/curve envelope on the refcheck
/// scenarios the bounds were calibrated against.
#[test]
fn pythia_refcheck_scenarios_stay_within_tolerance() {
    for (ratio, seed) in [(20u32, 42u64), (10, 7)] {
        let cfg = ref_cfg(SchedulerKind::Pythia, ratio, seed);
        let exact = run_scenario(ref_job(), &cfg.clone().with_relaxed_order(false));
        let relaxed = run_scenario(ref_job(), &cfg.with_relaxed_order(true));
        let tol = compare_tolerance(&exact, &relaxed);
        assert!(
            tol.within_bounds(),
            "ratio={ratio} seed={seed}: {}\n{}",
            tol.summary(),
            tol.violations.join("\n")
        );
        assert_eq!(tol.flows_compared, 288, "ratio={ratio} seed={seed}");
        assert!(tol.curve_points_compared > 0);
    }
}

/// ECMP and Hedera hash the 5-tuple (including the schedule-dependent
/// ephemeral port), so completion times diverge chaotically under
/// reordering — but every fetch must still run and move exactly its
/// wire bytes.
#[test]
fn hash_routed_baselines_conserve_flows_and_bytes() {
    for (kind, ratio, seed) in [
        (SchedulerKind::Ecmp, 20u32, 42u64),
        (SchedulerKind::Hedera, 10, 1),
    ] {
        let cfg = ref_cfg(kind, ratio, seed);
        let exact = run_scenario(ref_job(), &cfg.clone().with_relaxed_order(false));
        let relaxed = run_scenario(ref_job(), &cfg.with_relaxed_order(true));
        let tol = compare_conservation(&exact, &relaxed);
        assert!(
            tol.within_bounds(),
            "{kind:?}: {}\n{}",
            tol.summary(),
            tol.violations.join("\n")
        );
        assert_eq!(tol.flows_compared, 288, "{kind:?}");
    }
}

/// Relaxed mode trades exactness for speed, not reproducibility: the
/// same config must give bit-identical results run to run.
#[test]
fn relaxed_runs_are_bitwise_deterministic() {
    let run = || {
        let cfg = ref_cfg(SchedulerKind::Pythia, 10, 7).with_relaxed_order(true);
        run_scenario(ref_job(), &cfg)
    };
    assert_eq!(run().fingerprint(), run().fingerprint());
}

/// The component-parallel solver partitions work by connected component
/// and merges in component order, so the worker count must not change
/// a single bit of the outcome.
#[test]
fn solver_worker_count_does_not_change_results() {
    let run = |workers: usize| {
        let mut cfg = ref_cfg(SchedulerKind::Pythia, 20, 42).with_relaxed_order(true);
        cfg.solver_workers = workers;
        run_scenario(ref_job(), &cfg)
    };
    let one = run(1).fingerprint();
    assert_eq!(one, run(2).fingerprint());
    assert_eq!(one, run(4).fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential check on randomized two-job scenarios: whatever the
    /// shape, the relaxed run must terminate, execute the same logical
    /// fetch multiset as the exact run, and conserve per-source bytes.
    #[test]
    fn random_scenarios_conserve_flows_and_bytes(
        maps_a in 4usize..10,
        maps_b in 4usize..10,
        reducers in 2usize..5,
        stagger_ms in 0u64..8000,
        ratio in prop_oneof![Just(10u32), Just(20u32)],
        seed in 0u64..1000,
    ) {
        let job = |name: &str, maps: usize, pseed: u64| JobSpec {
            name: name.into(),
            num_maps: maps,
            num_reducers: reducers,
            input_bytes: maps as u64 * 64 * MB,
            map_output_ratio: 1.0,
            map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
            sort_duration: DurationModel::rate(
                SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
            reduce_duration: DurationModel::rate(
                SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
            partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(reducers, 0.1, pseed),
        };
        let jobs = || vec![
            (job("alpha", maps_a, seed), SimDuration::ZERO),
            (job("beta", maps_b, seed + 1), SimDuration::from_millis(stagger_ms)),
        ];
        let cfg = ref_cfg(SchedulerKind::Pythia, ratio, seed);
        let exact = run_multi_scenario(jobs(), &cfg.clone().with_relaxed_order(false));
        let relaxed = run_multi_scenario(jobs(), &cfg.with_relaxed_order(true));
        for r in [&exact, &relaxed] {
            for j in &r.jobs {
                prop_assert!(j.timeline.job_end.is_some(), "job {} unfinished", j.name);
            }
        }
        // Conservation: same logical fetch multiset (keyed by src, dst and
        // wire bytes — ports are schedule-dependent) and the same total
        // bytes sourced per node.
        let group = |r: &MultiRunReport| -> BTreeMap<(u32, u32, u64), usize> {
            let mut m = BTreeMap::new();
            for f in r.flow_trace.records() {
                *m.entry((f.src_node, f.dst_node, f.bytes.round() as u64))
                    .or_default() += 1;
            }
            m
        };
        prop_assert_eq!(group(&exact), group(&relaxed));
        prop_assert_eq!(exact.measured_curves.len(), relaxed.measured_curves.len());
        for (node, ce) in &exact.measured_curves {
            let cr = &relaxed.measured_curves[node];
            let tot = ce.total().max(1.0);
            prop_assert!(
                (cr.total() - ce.total()).abs() / tot <= 1e-6,
                "node {:?}: relaxed {} vs exact {} bytes",
                node, cr.total(), ce.total()
            );
        }
    }
}
