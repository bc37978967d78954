//! Daemon-vs-batch equivalence: replaying the tapped control-message
//! stream of a batch run through the live daemon + simulator-dataplane
//! backend must program the same rules.
//!
//! The scenarios are the reference runs whose fingerprints
//! `tests/refcheck_fingerprint.rs` pins.

use pythia_repro::cluster::{run_scenario_tapped, ScenarioConfig, SchedulerKind};
use pythia_repro::daemon::{Daemon, RecordingBackend, SimDataplaneBackend};
use pythia_repro::des::SimDuration;
use pythia_repro::hadoop::{DurationModel, JobSpec};
use pythia_repro::trace::TraceConfig;
use pythia_repro::workloads::SkewModel;

const MB: u64 = 1_000_000;

/// The reference job of `tests/refcheck_fingerprint.rs`.
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

fn ref_cfg(ratio: u32, seed: u64) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(ratio)
        .with_seed(seed)
}

#[test]
fn daemon_replay_matches_batch_refcheck() {
    let cfg = ref_cfg(20, 42);
    let (report, msgs) = run_scenario_tapped(ref_job(), &cfg);

    // The tap must not perturb the batch path: the pinned refcheck
    // fingerprint still holds on the tapped run.
    assert_eq!(format!("{}", report.completion()), "19.643507s");
    assert_eq!(report.events_processed, 564);
    assert_eq!(report.rules_installed, 112);
    assert_eq!(report.flow_trace.len(), 288);

    // Replay the identical message stream through the daemon.
    let backend = SimDataplaneBackend::from_config(&cfg);
    let mut d = Daemon::new(&cfg, backend, msgs.len().max(1)).expect("pythia");
    for (t, m) in msgs {
        assert!(d.ingest(t, m), "lossless replay must not shed");
    }
    d.finish();

    let stats = d.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.processed, stats.ingested);
    // The daemon's rule stream is the batch engine's rule stream.
    assert_eq!(stats.rules_emitted, report.rules_installed);
    assert_eq!(d.backend().installed(), report.rules_installed);
    assert_eq!(
        d.backend().tcam_rejected(),
        report.degradation.rules_tcam_rejected
    );
    assert_eq!(d.backend().pending_len(), 0);
    // Order-sensitive digest chained over a fixed binary record (due
    // time, tenant, switch, match fields, priority, out link, outcome) of
    // every applied install. A changed constant here means the daemon
    // programmed different rules, a different order, or different timing
    // than this pinned run.
    assert_eq!(d.backend().install_crc(), 0xef80_0f57);
}

#[test]
fn daemon_replay_matches_batch_refcheck_second_seed() {
    let cfg = ref_cfg(10, 7);
    let (report, msgs) = run_scenario_tapped(ref_job(), &cfg);
    assert_eq!(format!("{}", report.completion()), "16.639711s");
    assert_eq!(report.rules_installed, 112);

    let backend = SimDataplaneBackend::from_config(&cfg);
    let mut d = Daemon::new(&cfg, backend, msgs.len().max(1)).expect("pythia");
    for (t, m) in msgs {
        assert!(d.ingest(t, m));
    }
    d.finish();
    assert_eq!(d.backend().installed(), report.rules_installed);
    assert_eq!(
        d.backend().tcam_rejected(),
        report.degradation.rules_tcam_rejected
    );
    assert_eq!(d.backend().install_crc(), 0x11d8_2296);
}

#[test]
fn overloaded_daemon_sheds_and_finishes() {
    let cfg = ref_cfg(20, 42);
    let (_, msgs) = run_scenario_tapped(ref_job(), &cfg);
    let total = msgs.len() as u64;
    assert!(total > 100, "tap produced a real stream");

    // A queue of 16 against a burst of the full stream: the daemon must
    // shed the overflow — counted, no deadlock, no panic — and still
    // dispatch what it accepted.
    let backend = SimDataplaneBackend::from_config(&cfg);
    let mut d = Daemon::new(&cfg, backend, 16).expect("pythia");
    for (t, m) in msgs {
        d.ingest(t, m);
    }
    let stats_before = d.stats();
    assert_eq!(stats_before.ingested, 16);
    assert_eq!(stats_before.shed, total - 16);
    assert_eq!(stats_before.queue_high_water, 16);
    d.finish();
    let stats = d.stats();
    assert_eq!(stats.processed, 16);
    // Shedding is not silent failure: the daemon still made progress on
    // the accepted prefix.
    assert_eq!(stats.shed, total - 16);
}

#[test]
fn recording_daemon_archives_per_pair_lead_times() {
    let cfg = ref_cfg(20, 42).with_trace(TraceConfig::enabled());
    let (report, msgs) = run_scenario_tapped(ref_job(), &cfg);

    let backend = RecordingBackend::from_config(&cfg);
    let mut d = Daemon::new(&cfg, backend, msgs.len().max(1)).expect("pythia");
    for (t, m) in msgs {
        assert!(d.ingest(t, m));
    }
    d.finish();

    let (core, backend, stats, _) = d.into_parts();
    assert_eq!(stats.rules_emitted, report.rules_installed);
    assert_eq!(backend.len() as u64, report.rules_installed);

    // Join the install log against the collector's native trace: the
    // live Figure 5. Every archived pair that has both a final demand
    // and a traffic end must show positive lead — the rule beat the
    // traffic it was predicted for.
    let archive = backend.into_archive(core.trace.take_events());
    let lead = archive.lead_times();
    assert!(!lead.pairs.is_empty(), "no pairs archived");
    let complete: Vec<_> = lead.pairs.iter().filter(|p| p.lead().is_some()).collect();
    assert!(!complete.is_empty(), "no pair completed the join");
    let first = complete[0];
    // The per-pair point query agrees with the full join.
    let q = archive
        .pair_lead(first.src, first.dst)
        .expect("queried pair exists");
    assert_eq!(q.lead(), first.lead());
    // And the raw install log can answer "when was this pair's rule in
    // the fabric" directly.
    assert!(archive.rule_active_at(first.src, first.dst).is_some());
}
