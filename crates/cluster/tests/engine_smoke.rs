//! End-to-end engine tests: small jobs through the full stack
//! (Hadoop × flow network × SDN control × scheduler).

use pythia_cluster::{run_scenario, RunReport, ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, HadoopConfig, JobSpec};
use pythia_workloads::SkewModel;

const MB: u64 = 1_000_000;

fn small_job(maps: usize, reducers: usize, bytes_per_map: u64, skew: SkewModel) -> JobSpec {
    JobSpec {
        name: "smoke".into(),
        num_maps: maps,
        num_reducers: reducers,
        input_bytes: maps as u64 * bytes_per_map,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: skew.partitioner(reducers, 0.1, 99),
    }
}

fn base_cfg() -> ScenarioConfig {
    ScenarioConfig {
        hadoop: HadoopConfig {
            map_slots_per_server: 2,
            reduce_slots_per_server: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run(scheduler: SchedulerKind, ratio: u32, seed: u64) -> RunReport {
    let job = small_job(40, 8, 64 * MB, SkewModel::Zipf { s: 0.8 });
    let cfg = base_cfg()
        .with_scheduler(scheduler)
        .with_oversubscription(ratio)
        .with_seed(seed);
    run_scenario(job, &cfg)
}

#[test]
fn ecmp_job_completes() {
    let r = run(SchedulerKind::Ecmp, 1, 1);
    assert!(r.timeline.job_end.is_some());
    assert!(r.completion() > SimDuration::from_secs(1));
    assert!(!r.flow_trace.is_empty(), "cross-rack fetches must exist");
    assert_eq!(r.rules_installed, 0, "ECMP installs no rules");
    assert!(r.predicted_curves.is_empty());
}

#[test]
fn pythia_job_completes_and_installs_rules() {
    let r = run(SchedulerKind::Pythia, 10, 1);
    assert!(r.timeline.job_end.is_some());
    assert!(r.rules_installed > 0, "Pythia must program the network");
    assert!(
        !r.predicted_curves.is_empty(),
        "predictions must be recorded"
    );
    assert!(r.spills_per_server.iter().sum::<u64>() > 0);
}

#[test]
fn hedera_job_completes() {
    let r = run(SchedulerKind::Hedera, 10, 1);
    assert!(r.timeline.job_end.is_some());
    assert_eq!(r.rules_installed, 0);
}

#[test]
fn deterministic_same_seed() {
    let a = run(SchedulerKind::Pythia, 10, 42);
    let b = run(SchedulerKind::Pythia, 10, 42);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn different_seeds_differ() {
    let a = run(SchedulerKind::Ecmp, 10, 1);
    let b = run(SchedulerKind::Ecmp, 10, 2);
    assert_ne!(a.completion(), b.completion());
}

#[test]
fn byte_conservation_across_stack() {
    let r = run(SchedulerKind::Ecmp, 1, 3);
    // All intermediate output lands at reducers: remote (traced on the
    // network, with wire overhead) + local.
    let job_bytes = 40 * 64 * MB;
    let remote: u64 = r.timeline.reducers.values().map(|t| t.remote_bytes).sum();
    let local: u64 = r.timeline.reducers.values().map(|t| t.local_bytes).sum();
    assert_eq!(remote + local, job_bytes, "application-level conservation");
    // Network trace carries remote bytes + 0.5–3.5% overhead.
    let traced = r.flow_trace.total_bytes();
    assert!(traced > remote as f64, "wire bytes must exceed payload");
    assert!(traced < remote as f64 * 1.04, "overhead bounded");
}

#[test]
fn oversubscription_slows_ecmp_down() {
    let fast = run(SchedulerKind::Ecmp, 1, 5);
    let slow = run(SchedulerKind::Ecmp, 20, 5);
    assert!(
        slow.completion() > fast.completion(),
        "1:20 must be slower than 1:1 ({} vs {})",
        slow.completion(),
        fast.completion()
    );
}

#[test]
fn pythia_beats_ecmp_under_heavy_oversubscription() {
    // Average over a few seeds: ECMP's hash luck varies.
    let seeds = [1u64, 2, 3];
    let mean = |kind: SchedulerKind| -> f64 {
        seeds
            .iter()
            .map(|&s| run(kind, 20, s).completion().as_secs_f64())
            .sum::<f64>()
            / seeds.len() as f64
    };
    let ecmp = mean(SchedulerKind::Ecmp);
    let pythia = mean(SchedulerKind::Pythia);
    assert!(
        pythia < ecmp,
        "Pythia ({pythia:.1}s) must beat ECMP ({ecmp:.1}s) at 1:20"
    );
}

#[test]
fn prediction_leads_measurement() {
    let r = run(SchedulerKind::Pythia, 5, 7);
    let mut evaluated = 0;
    for (node, measured) in &r.measured_curves {
        if measured.total() <= 0.0 {
            continue;
        }
        let Some(predicted) = r.predicted_curves.get(node) else {
            continue;
        };
        let eval = pythia_metrics::evaluate_prediction(predicted, measured, 10).unwrap();
        assert!(eval.never_lags, "prediction lagged on {node}");
        assert!(
            eval.overestimate_frac > 0.0,
            "prediction must over-estimate, got {}",
            eval.overestimate_frac
        );
        assert!(
            eval.min_lead > SimDuration::ZERO,
            "prediction must lead on {node}"
        );
        evaluated += 1;
    }
    assert!(evaluated >= 5, "most servers must source traffic");
}
