//! Multi-job integration tests: Pythia's collector handles predictions
//! from concurrent jobs, aggregating transfers that share a server pair
//! (the deployment reality behind §IV's per-server-pair aggregation).

use pythia_repro::cluster::{run_multi_scenario, ScenarioConfig, SchedulerKind};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::{DurationModel, JobSpec};
use pythia_repro::workloads::SkewModel;

const MB: u64 = 1_000_000;

fn job(name: &str, maps: usize, seed: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        num_maps: maps,
        num_reducers: 6,
        input_bytes: maps as u64 * 64 * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(6, 0.1, seed),
    }
}

fn two_jobs() -> Vec<(JobSpec, SimDuration)> {
    vec![
        (job("alpha", 30, 1), SimDuration::ZERO),
        (job("beta", 30, 2), SimDuration::from_secs(10)),
    ]
}

#[test]
fn concurrent_jobs_complete_under_every_scheduler() {
    for scheduler in [
        SchedulerKind::Ecmp,
        SchedulerKind::Pythia,
        SchedulerKind::Hedera,
    ] {
        let cfg = ScenarioConfig::default()
            .with_scheduler(scheduler)
            .with_oversubscription(10)
            .with_seed(3);
        let r = run_multi_scenario(two_jobs(), &cfg);
        assert_eq!(r.jobs.len(), 2, "{scheduler:?}");
        for j in &r.jobs {
            assert!(
                j.timeline.job_end.is_some(),
                "{scheduler:?}: job {} unfinished",
                j.name
            );
        }
        // The staggered job really started later.
        assert!(r.jobs[1].started_at > r.jobs[0].started_at);
        assert!(r.jobs[1].timeline.job_start == r.jobs[1].started_at);
    }
}

#[test]
fn concurrent_jobs_are_deterministic() {
    let run = || {
        let cfg = ScenarioConfig::default()
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(10)
            .with_seed(7);
        run_multi_scenario(two_jobs(), &cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn pythia_helps_the_combined_workload() {
    let mean_makespan = |scheduler: SchedulerKind| -> f64 {
        [1u64, 2, 3]
            .iter()
            .map(|&seed| {
                let cfg = ScenarioConfig::default()
                    .with_scheduler(scheduler)
                    .with_oversubscription(20)
                    .with_seed(seed);
                run_multi_scenario(two_jobs(), &cfg)
                    .makespan()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / 3.0
    };
    let ecmp = mean_makespan(SchedulerKind::Ecmp);
    let pythia = mean_makespan(SchedulerKind::Pythia);
    assert!(
        pythia < ecmp,
        "pythia {pythia:.1}s must beat ecmp {ecmp:.1}s on the combined workload"
    );
}

#[test]
fn predictions_across_jobs_never_lag() {
    let cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(5);
    let r = run_multi_scenario(two_jobs(), &cfg);
    for (node, measured) in &r.measured_curves {
        if measured.total() <= 0.0 {
            continue;
        }
        let predicted = r
            .predicted_curves
            .get(node)
            .unwrap_or_else(|| panic!("no prediction for {node}"));
        let eval = pythia_repro::metrics::evaluate_prediction(predicted, measured, 10).unwrap();
        assert!(eval.never_lags, "prediction lagged on {node} with 2 jobs");
    }
}

#[test]
fn single_job_wrapper_matches_multi() {
    // run_scenario is a thin wrapper over run_multi_scenario.
    let cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Ecmp)
        .with_seed(11);
    let single = pythia_repro::cluster::run_scenario(job("alpha", 20, 1), &cfg);
    let multi = run_multi_scenario(vec![(job("alpha", 20, 1), SimDuration::ZERO)], &cfg);
    assert_eq!(single.completion(), multi.jobs[0].completion());
    assert_eq!(single.events_processed, multi.events_processed);
}
