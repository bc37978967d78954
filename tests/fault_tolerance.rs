//! Fault-tolerance integration tests (§IV: "it provides fault tolerance
//! since the routing graph is updated at the event of link or switch
//! failure"): a trunk cable dies mid-shuffle; the job must complete under
//! every scheduler, traffic must leave the dead cable, and recovery must
//! restore capacity.

use pythia_repro::cluster::{run_scenario, LinkFault, RunReport, ScenarioConfig, SchedulerKind};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::{DurationModel, JobSpec};
use pythia_repro::workloads::SkewModel;

const MB: u64 = 1_000_000;

fn job() -> JobSpec {
    JobSpec {
        name: "fault-tolerance".into(),
        num_maps: 40,
        num_reducers: 8,
        input_bytes: 40 * 64 * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(8, 0.1, 11),
    }
}

fn run_with_fault(scheduler: SchedulerKind, restore: Option<SimDuration>) -> RunReport {
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(scheduler)
        .with_oversubscription(5)
        .with_seed(3);
    cfg.link_faults = vec![LinkFault {
        trunk_cable: 0,
        fail_at: SimDuration::from_secs(12),
        restore_at: restore,
    }];
    run_scenario(job(), &cfg)
}

#[test]
fn every_scheduler_survives_a_trunk_failure() {
    for scheduler in [
        SchedulerKind::Ecmp,
        SchedulerKind::Pythia,
        SchedulerKind::Hedera,
    ] {
        let r = run_with_fault(scheduler, None);
        assert!(
            r.timeline.job_end.is_some(),
            "{scheduler:?} wedged after trunk failure"
        );
    }
}

#[test]
fn no_new_flow_rides_the_dead_cable() {
    let r = run_with_fault(SchedulerKind::Pythia, None);
    // Cable 0 = the first duplex pair in trunk_links.
    let dead: Vec<u32> = r.trunk_links[..2].iter().map(|l| l.0).collect();
    for rec in r.flow_trace.records() {
        if rec.start_secs > 12.5 {
            if let Some(t) = rec.trunk_link {
                assert!(
                    !dead.contains(&t),
                    "flow started at {:.1}s rides dead trunk {t}",
                    rec.start_secs
                );
            }
        }
    }
}

#[test]
fn failure_hurts_and_recovery_helps() {
    let healthy = {
        let cfg = ScenarioConfig::default()
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(5)
            .with_seed(3);
        run_scenario(job(), &cfg)
    };
    let permanent = run_with_fault(SchedulerKind::Pythia, None);
    let transient = run_with_fault(SchedulerKind::Pythia, Some(SimDuration::from_secs(25)));
    // Losing half the bisection mid-shuffle cannot speed the job up.
    assert!(
        permanent.completion() + SimDuration::from_secs(1) >= healthy.completion(),
        "failure sped the job up: {} vs {}",
        permanent.completion(),
        healthy.completion()
    );
    // A repaired cable must not do worse than a permanently dead one.
    assert!(
        transient.completion() <= permanent.completion() + SimDuration::from_secs(1),
        "recovery made things worse: {} vs {}",
        transient.completion(),
        permanent.completion()
    );
}

/// The restore path end to end: while the cable is down no flow
/// finishes on it (everything reroutes off at fail time), and once
/// restored the ECMP reconvergence spreads in-flight flows back across
/// it — capacity actually recovers, it doesn't just stop failing.
/// A flow record's trunk is its *final* path, so end-time windows are
/// the right lens.
#[test]
fn restored_trunk_carries_traffic_again() {
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Ecmp)
        .with_oversubscription(5)
        .with_seed(3);
    cfg.link_faults = vec![LinkFault {
        trunk_cable: 0,
        fail_at: SimDuration::from_secs(4),
        restore_at: Some(SimDuration::from_secs(7)),
    }];
    let r = run_scenario(job(), &cfg);
    assert!(r.timeline.job_end.is_some());
    let dead: Vec<u32> = r.trunk_links[..2].iter().map(|l| l.0).collect();
    let mut finished_on_dead_cable = 0u32;
    let mut back_after_restore = 0u32;
    for rec in r.flow_trace.records() {
        let Some(t) = rec.trunk_link else { continue };
        if !dead.contains(&t) {
            continue;
        }
        if rec.end_secs > 4.1 && rec.end_secs < 7.0 {
            finished_on_dead_cable += 1;
        } else if rec.end_secs > 7.2 {
            back_after_restore += 1;
        }
    }
    assert_eq!(
        finished_on_dead_cable, 0,
        "flows must reroute off a dead cable"
    );
    assert!(
        back_after_restore > 0,
        "restored cable never carried traffic again"
    );
    // Link faults are data-plane events: the control-plane degradation
    // report must stay clean.
    assert!(r.degradation.is_clean(), "{}", r.degradation);
}

#[test]
fn deterministic_with_faults() {
    let a = run_with_fault(SchedulerKind::Pythia, Some(SimDuration::from_secs(25)));
    let b = run_with_fault(SchedulerKind::Pythia, Some(SimDuration::from_secs(25)));
    assert_eq!(a.fingerprint(), b.fingerprint());
}
