//! Chaos harness: deterministic fault schedules against the whole stack.
//!
//! The control plane must degrade, never fail: with a lossy, reordering
//! management network, a mid-shuffle controller outage, rule-install
//! faults and an agent restart replaying every spill, each job still
//! completes, byte accounting stays exact, and Pythia's job-completion
//! time stays bounded between the fault-free run and the ECMP baseline
//! of the same scenario. Everything is seeded: a chaos run is as
//! reproducible as a clean one.
//!
//! The property-based section drives randomized fault schedules; the
//! number of cases defaults low for CI and scales up via the
//! `CHAOS_CASES` environment variable.

use proptest::prelude::*;
use pythia_cluster::{run_scenario, ControllerOutage, RunReport, ScenarioConfig, SchedulerKind};
use pythia_core::MgmtNetConfig;
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_workloads::SkewModel;

const MB: u64 = 1_000_000;

fn job(maps: usize, reducers: usize) -> JobSpec {
    JobSpec {
        name: "chaos".into(),
        num_maps: maps,
        num_reducers: reducers,
        input_bytes: maps as u64 * 64 * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_secs(1), 50.0 * MB as f64, 0.1),
        sort_duration: DurationModel::rate(SimDuration::from_millis(500), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(500), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: 0.8 }.partitioner(reducers, 0.1, 99),
    }
}

/// The reference chaos schedule: ≤20% prediction loss with duplication
/// and reordering jitter, a controller crash in the middle of the
/// shuffle, occasional rule-install losses, and an agent restart that
/// replays every spill index after the controller recovers.
fn chaos_cfg(scheduler: SchedulerKind, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(scheduler)
        .with_oversubscription(20)
        .with_seed(seed);
    cfg.pythia.mgmtnet = MgmtNetConfig {
        loss_prob: 0.2,
        dup_prob: 0.1,
        jitter: SimDuration::from_millis(20),
        retry_timeout: SimDuration::from_millis(50),
        max_retries: 4,
    };
    cfg.pythia.parked_ttl = Some(SimDuration::from_secs(60));
    cfg.controller.install_fail_prob = 0.1;
    cfg.controller_outages = vec![ControllerOutage {
        down_at: SimDuration::from_secs(3),
        up_at: SimDuration::from_secs(10),
    }];
    cfg.agent_respill_at = vec![SimDuration::from_secs(12)];
    cfg
}

fn run_chaos(scheduler: SchedulerKind, seed: u64) -> RunReport {
    run_scenario(job(40, 8), &chaos_cfg(scheduler, seed))
}

fn run_clean(scheduler: SchedulerKind, seed: u64) -> RunReport {
    let cfg = ScenarioConfig::default()
        .with_scheduler(scheduler)
        .with_oversubscription(20)
        .with_seed(seed);
    run_scenario(job(40, 8), &cfg)
}

/// Application-level byte conservation plus bounded wire overhead —
/// chaos must never lose or invent shuffle data.
fn assert_bytes_exact(r: &RunReport, maps: u64) {
    let job_bytes = maps * 64 * MB;
    let remote: u64 = r.timeline.reducers.values().map(|t| t.remote_bytes).sum();
    let local: u64 = r.timeline.reducers.values().map(|t| t.local_bytes).sum();
    assert_eq!(remote + local, job_bytes, "shuffle bytes lost or invented");
    let traced = r.flow_trace.total_bytes();
    assert!(traced > remote as f64, "wire bytes must exceed payload");
    assert!(traced < remote as f64 * 1.04, "overhead bounded");
}

#[test]
fn chaos_run_completes_with_exact_byte_accounting() {
    let r = run_chaos(SchedulerKind::Pythia, 42);
    assert!(r.timeline.job_end.is_some());
    assert_bytes_exact(&r, 40);
    // The shuffle volume matches the fault-free run bit for bit: chaos
    // touches only the control plane, never the data.
    let clean = run_clean(SchedulerKind::Pythia, 42);
    let remote =
        |r: &RunReport| -> u64 { r.timeline.reducers.values().map(|t| t.remote_bytes).sum() };
    assert_eq!(remote(&r), remote(&clean));
}

#[test]
fn chaos_degradation_counters_tell_the_story() {
    let r = run_chaos(SchedulerKind::Pythia, 42);
    let d = &r.degradation;
    assert!(!d.is_clean(), "a chaos run must not look clean");
    assert!(d.predictions_sent > 0);
    assert!(
        d.prediction_transmissions_lost > 0,
        "20% loss must drop transmissions: {d}"
    );
    assert!(
        d.predictions_deduped > 0,
        "the respill replay must be deduplicated: {d}"
    );
    assert_eq!(d.controller_outages, 1);
    assert_eq!(d.controller_down_secs, 7.0, "down from 3 s to 10 s");
    assert!(
        d.demands_deferred > 0,
        "placements during the outage must defer to ECMP: {d}"
    );
    assert!(
        d.rules_reinstalled > 0,
        "the restart resync must re-derive rules: {d}"
    );
    assert_eq!(d.predictions_malformed, 0);
}

#[test]
fn chaos_is_deterministic() {
    let a = run_chaos(SchedulerKind::Pythia, 7);
    let b = run_chaos(SchedulerKind::Pythia, 7);
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_chaos(SchedulerKind::Pythia, 8);
    assert_ne!(a.completion(), c.completion());
}

/// A checkpoint taken in the middle of the fault battery — lossy mgmt
/// net mid-retry, parked fetches, an outage scheduled or in flight —
/// must restore to a run indistinguishable from the uninterrupted one:
/// every DegradationReport counter and the MgmtNet retry state survive
/// the round trip. The assertion is full equality.
#[test]
fn chaos_survives_mid_run_checkpoint_restore() {
    use pythia_cluster::{capture_multi_snapshot, resume_multi_from_bytes};

    let cfg = chaos_cfg(SchedulerKind::Pythia, 7);
    let jobs = || vec![(job(40, 8), SimDuration::ZERO)];

    let full = pythia_cluster::run_multi_scenario(jobs(), &cfg);
    let mid = full.events_processed / 2;
    let snap = capture_multi_snapshot(jobs(), &cfg, mid).expect("mid-chaos capture");
    let resumed = resume_multi_from_bytes(jobs(), &cfg, &snap).expect("mid-chaos resume");

    // Every fault counter — losses, retries exhausted, dedups, parked
    // expiries, outage bookkeeping — is part of the fingerprint.
    assert_eq!(full.fingerprint(), resumed.fingerprint());
    // And the run really was chaotic: the snapshot carried live retry
    // state, not a quiet simulation.
    assert!(resumed.degradation.prediction_transmissions_lost > 0);
    assert_eq!(resumed.degradation.controller_outages, 1);
}

#[test]
fn chaos_jct_bounded_between_clean_pythia_and_ecmp() {
    // Mean over seeds: individual runs vary with ECMP hash luck.
    let seeds = [1u64, 2, 3];
    let mean = |f: &dyn Fn(u64) -> RunReport| -> f64 {
        seeds
            .iter()
            .map(|&s| f(s).completion().as_secs_f64())
            .sum::<f64>()
            / seeds.len() as f64
    };
    let chaos = mean(&|s| run_chaos(SchedulerKind::Pythia, s));
    let clean = mean(&|s| run_clean(SchedulerKind::Pythia, s));
    let ecmp = mean(&|s| run_chaos(SchedulerKind::Ecmp, s));
    assert!(
        chaos <= ecmp,
        "graceful degradation must beat no scheduler at all: \
         chaos {chaos:.1}s vs ecmp {ecmp:.1}s"
    );
    assert!(
        chaos >= clean * 0.98,
        "chaos cannot beat the fault-free run: {chaos:.1}s vs {clean:.1}s"
    );
}

#[test]
fn zero_probability_knobs_change_nothing() {
    // All fault machinery configured but every probability zero: the run
    // must be bit-identical to the default fault-free path.
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(20)
        .with_seed(42);
    cfg.pythia.mgmtnet = MgmtNetConfig {
        loss_prob: 0.0,
        dup_prob: 0.0,
        jitter: SimDuration::ZERO,
        // A different retry timer is irrelevant on an ideal channel.
        retry_timeout: SimDuration::from_millis(77),
        max_retries: 9,
    };
    cfg.controller.install_fail_prob = 0.0;
    cfg.controller.install_timeout_prob = 0.0;
    let armed = run_scenario(job(40, 8), &cfg);
    let plain = run_clean(SchedulerKind::Pythia, 42);
    assert_eq!(armed.fingerprint(), plain.fingerprint());
    assert!(armed.degradation.is_clean(), "{}", armed.degradation);
}

#[test]
fn ecmp_baseline_ignores_control_plane_chaos() {
    // ECMP has no control plane to break: the chaos schedule must leave
    // it exactly as the clean run.
    let chaos = run_chaos(SchedulerKind::Ecmp, 42);
    let clean = run_clean(SchedulerKind::Ecmp, 42);
    assert_eq!(chaos.completion(), clean.completion());
    assert_eq!(chaos.rules_installed, 0);
}

/// Property section: randomized fault schedules. Case count defaults low
/// (CI smoke); export `CHAOS_CASES=256` for a long soak.
fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn random_fault_schedules_never_wedge(
        seed in 1u64..10_000,
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.2,
        jitter_ms in 0u64..50,
        fail_prob in 0.0f64..0.2,
        down_at_s in 2u64..12,
        down_len_s in 1u64..8,
        respill_s in 4u64..20,
    ) {
        let mut cfg = ScenarioConfig::default()
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(10)
            .with_seed(seed);
        cfg.pythia.mgmtnet = MgmtNetConfig {
            loss_prob: loss,
            dup_prob: dup,
            jitter: SimDuration::from_millis(jitter_ms),
            ..Default::default()
        };
        cfg.pythia.parked_ttl = Some(SimDuration::from_secs(30));
        cfg.controller.install_fail_prob = fail_prob;
        cfg.controller_outages = vec![ControllerOutage {
            down_at: SimDuration::from_secs(down_at_s),
            up_at: SimDuration::from_secs(down_at_s + down_len_s),
        }];
        cfg.agent_respill_at = vec![SimDuration::from_secs(respill_s)];
        let r = run_scenario(job(16, 4), &cfg);
        prop_assert!(r.timeline.job_end.is_some());
        let job_bytes = 16 * 64 * MB;
        let remote: u64 = r.timeline.reducers.values().map(|t| t.remote_bytes).sum();
        let local: u64 = r.timeline.reducers.values().map(|t| t.local_bytes).sum();
        prop_assert_eq!(remote + local, job_bytes);
        prop_assert_eq!(r.degradation.controller_outages, 1);

        // Mid-run checkpoint+restore leg under the same randomized fault
        // schedule: every degradation counter and the MgmtNet retry state
        // must survive the round trip — the resumed run is
        // indistinguishable from the uninterrupted one.
        let jobs = || vec![(job(16, 4), SimDuration::ZERO)];
        let full = pythia_cluster::run_multi_scenario(jobs(), &cfg);
        let snap = pythia_cluster::capture_multi_snapshot(
            jobs(), &cfg, (full.events_processed / 2).max(1),
        ).unwrap();
        let resumed = pythia_cluster::resume_multi_from_bytes(jobs(), &cfg, &snap).unwrap();
        prop_assert_eq!(full.fingerprint(), resumed.fingerprint());
    }
}
