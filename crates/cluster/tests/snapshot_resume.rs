//! Crash-durable snapshot/resume: the whole simulation checkpoints,
//! resumes byte-identically (exact solver path), forks onto new chaos
//! schedules, and turns every corrupt snapshot into a typed error.
//!
//! The exact-path tests pin `with_relaxed_order(false)` and assert equal
//! canonical report fingerprints. The relaxed legs pin `true`: a relaxed
//! checkpointing run resumes to its own fingerprint, and a relaxed resume
//! stays within the published tolerance of the exact run.

use pythia_cluster::{
    capture_multi_snapshot, compare_tolerance, fork_multi_scenario, resume_multi_from_bytes,
    resume_multi_scenario, run_multi_scenario, run_multi_scenario_checkpointed, CheckpointPolicy,
    ControllerOutage, ScenarioConfig, SchedulerKind, SnapshotError,
};
use pythia_core::MgmtNetConfig;
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_workloads::SkewModel;

const MB: u64 = 1_000_000;

fn job(maps: usize, reducers: usize) -> JobSpec {
    JobSpec {
        name: "snap".into(),
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

fn jobs(maps: usize, reducers: usize) -> Vec<(JobSpec, SimDuration)> {
    vec![(job(maps, reducers), SimDuration::ZERO)]
}

/// Exact-path scenario with the full fault battery armed: lossy mgmt
/// net, a mid-shuffle controller outage and an agent respill, so the
/// snapshot has to carry retry state, parked fetches and chaos events.
fn chaosy_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(seed)
        .with_relaxed_order(false);
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
        down_at: SimDuration::from_millis(4_070),
        up_at: SimDuration::from_millis(6_310),
    }];
    cfg.agent_respill_at = vec![SimDuration::from_millis(7_130)];
    cfg
}

fn clean_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(seed)
        .with_relaxed_order(false)
}

#[test]
fn exact_resume_reproduces_uninterrupted_run() {
    let cfg = chaosy_cfg(7);
    let full = run_multi_scenario(jobs(16, 4), &cfg);
    let mid = full.events_processed / 2;
    assert!(mid > 30, "scenario too small to be a meaningful fixture");

    // The mid-run capture goes through snapshot → restore → re-snapshot
    // in debug builds (the byte-identity cross-check inside the engine),
    // so taking it already exercises the resume-safety hole detector.
    let snap = capture_multi_snapshot(jobs(16, 4), &cfg, mid).expect("capture");
    let resumed = resume_multi_from_bytes(jobs(16, 4), &cfg, &snap).expect("resume");
    assert_eq!(
        full.fingerprint(),
        resumed.fingerprint(),
        "resumed run diverged from the uninterrupted one"
    );

    // Resuming the same bytes twice is deterministic.
    let again = resume_multi_from_bytes(jobs(16, 4), &cfg, &snap).expect("second resume");
    assert_eq!(resumed.fingerprint(), again.fingerprint());

    // The fixture actually saw faults — the snapshot carried retry and
    // outage state, not a quiet simulation.
    let r = resumed.into_single();
    assert_eq!(r.degradation.controller_outages, 1);
    assert!(r.degradation.predictions_sent > 0);
}

#[test]
fn checkpointed_run_matches_plain_and_resumes_from_disk() {
    let cfg = chaosy_cfg(11);
    let dir = std::env::temp_dir().join(format!("pythia-snap-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plain = run_multi_scenario(jobs(16, 4), &cfg);
    let policy = CheckpointPolicy::new(&dir).every_events(50);
    let checkpointed =
        run_multi_scenario_checkpointed(jobs(16, 4), &cfg, &policy).expect("checkpointed run");
    assert_eq!(
        plain.fingerprint(),
        checkpointed.fingerprint(),
        "periodic checkpointing perturbed the exact-path run"
    );

    // Superseded snapshots are pruned: one .pysnap plus the MANIFEST.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.iter().filter(|n| n.ends_with(".pysnap")).count(), 1);
    assert!(names.iter().any(|n| n == "MANIFEST"), "names: {names:?}");

    // Pick the last checkpoint back up — kill -9 after the final write
    // would leave exactly this state — and run the tail to completion.
    let resumed = resume_multi_scenario(jobs(16, 4), &cfg, &dir, None).expect("resume from disk");
    assert_eq!(plain.fingerprint(), resumed.fingerprint());

    // A different scenario must be refused, not silently diverge.
    let other = chaosy_cfg(12);
    match resume_multi_scenario(jobs(16, 4), &other, &dir, None) {
        Err(SnapshotError::ConfigMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_fail_typed_never_panic() {
    let cfg = chaosy_cfg(3);
    let full = run_multi_scenario(jobs(8, 4), &cfg);
    let snap =
        capture_multi_snapshot(jobs(8, 4), &cfg, full.events_processed / 2).expect("capture");

    // Header corruption has precise diagnoses.
    let mut bad_magic = snap.clone();
    bad_magic[0] ^= 0xff;
    match resume_multi_from_bytes(jobs(8, 4), &cfg, &bad_magic) {
        Err(SnapshotError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let mut bad_version = snap.clone();
    bad_version[4..8].copy_from_slice(&999u32.to_le_bytes());
    match resume_multi_from_bytes(jobs(8, 4), &cfg, &bad_version) {
        Err(SnapshotError::Version { found: 999, .. }) => {}
        other => panic!("expected Version mismatch, got {other:?}"),
    }
    // A checkpoint in the previous layout (format 1 repeated every
    // server's instrumentation inside each collector shard) is refused by
    // its version, never misparsed.
    let mut old_format = snap.clone();
    old_format[4..8].copy_from_slice(&1u32.to_le_bytes());
    match resume_multi_from_bytes(jobs(8, 4), &cfg, &old_format) {
        Err(SnapshotError::Version { found: 1, expected }) => assert!(expected > 1),
        other => panic!("expected Version mismatch, got {other:?}"),
    }

    // Truncation anywhere is a typed error.
    for cut in [0, 1, 7, snap.len() / 3, snap.len() - 1] {
        let r = resume_multi_from_bytes(jobs(8, 4), &cfg, &snap[..cut]);
        assert!(r.is_err(), "truncation to {cut} bytes was accepted");
    }

    // Bit-flip fuzz across the whole snapshot: every flip must surface
    // as an Err — never a panic, never a silently wrong resume. The
    // per-section CRC32 catches all single-bit body flips; header flips
    // land in the framing diagnoses.
    let step = (snap.len() / 96).max(1);
    for pos in (0..snap.len()).step_by(step) {
        let mut bad = snap.clone();
        bad[pos] ^= 1 << (pos % 8);
        let r = resume_multi_from_bytes(jobs(8, 4), &cfg, &bad);
        assert!(r.is_err(), "bit flip at byte {pos} was accepted");
    }
}

#[test]
fn fork_reproduces_cold_start_chaos_run() {
    // Warm up with no chaos scheduled, snapshot early, then fork the
    // warm-up onto a chaos schedule. The fork must be observably
    // identical to a cold start that had the same schedule from t=0.
    let base = clean_cfg(21);
    let warm = capture_multi_snapshot(jobs(16, 4), &base, 40).expect("warm-up capture");

    let mut chaos = base.clone();
    chaos.controller_outages = vec![ControllerOutage {
        down_at: SimDuration::from_millis(5_330),
        up_at: SimDuration::from_millis(7_810),
    }];
    chaos.agent_respill_at = vec![SimDuration::from_millis(8_130)];

    let cold = run_multi_scenario(jobs(16, 4), &chaos);
    let forked = fork_multi_scenario(jobs(16, 4), &chaos, &warm).expect("fork");
    assert_eq!(
        cold.fingerprint(),
        forked.fingerprint(),
        "forked chaos run diverged from the cold start"
    );
    assert_eq!(forked.into_single().degradation.controller_outages, 1);

    // Chaos scheduled at-or-before the fork point is refused.
    let mut too_early = base.clone();
    too_early.controller_outages = vec![ControllerOutage {
        down_at: SimDuration::from_millis(1),
        up_at: SimDuration::from_millis(2),
    }];
    match fork_multi_scenario(jobs(16, 4), &too_early, &warm) {
        Err(SnapshotError::Fork { detail }) => {
            assert!(detail.contains("fork point"), "detail: {detail}")
        }
        other => panic!("expected Fork error, got {other:?}"),
    }
}

#[test]
fn relaxed_resume_stays_within_tolerance() {
    let exact = run_multi_scenario(jobs(16, 4), &clean_cfg(5)).into_single();

    let relaxed_cfg = clean_cfg(5).with_relaxed_order(true);
    let full = run_multi_scenario(jobs(16, 4), &relaxed_cfg);
    let snap = capture_multi_snapshot(jobs(16, 4), &relaxed_cfg, full.events_processed / 2)
        .expect("relaxed capture");
    let resumed = resume_multi_from_bytes(jobs(16, 4), &relaxed_cfg, &snap)
        .expect("relaxed resume")
        .into_single();

    let t = compare_tolerance(&exact, &resumed);
    assert!(
        t.within_bounds(),
        "relaxed resumed run left tolerance: {}\n{:#?}",
        t.summary(),
        t.violations
    );
}

/// The relaxed solver's crash drill, in process: a checkpointing relaxed
/// run leaves a mid-run checkpoint behind (what a `kill -9` after that
/// write would leave), and resuming it at the same cadence must finish
/// with the fingerprint of the uninterrupted checkpointing run.
/// Checkpoints land at settled solve points, so both runs defer and
/// settle their solves identically.
#[test]
fn relaxed_checkpointed_run_resumes_to_its_fingerprint() {
    let cfg = clean_cfg(9).with_relaxed_order(true);
    let dir = std::env::temp_dir().join(format!("pythia-relaxed-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One checkpoint, ~60% of the way in: the next one would fall past
    // the end of the run, so the directory keeps a mid-run snapshot.
    let events = run_multi_scenario(jobs(16, 4), &cfg).events_processed;
    let policy = CheckpointPolicy::new(&dir).every_events(events * 3 / 5);
    let checkpointed =
        run_multi_scenario_checkpointed(jobs(16, 4), &cfg, &policy).expect("checkpointed run");
    assert!(checkpointed.events_processed < 2 * (events * 3 / 5));

    let resumed =
        resume_multi_scenario(jobs(16, 4), &cfg, &dir, Some(&policy)).expect("resume from disk");
    assert_eq!(
        checkpointed.fingerprint(),
        resumed.fingerprint(),
        "relaxed resume diverged from the uninterrupted checkpointing run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
