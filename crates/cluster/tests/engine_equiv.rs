//! Pins the optimized engine to the pre-index behavior, bit for bit.
//!
//! The secondary indexes (server-pair → flows, link → flows), the layered
//! CBR background solve, metered byte integration, and the reusable
//! dispatch scratch buffers are all *pure caches*: they must not change a
//! single event, rate, curve point, or trace record. The pins are
//! canonical report fingerprints ([`pythia_cluster::Fingerprint`]) of
//! the chaos harness scenarios (controller outage + lossy management
//! network + agent respill) and of a clean fat-tree run, with the flight
//! recorder on so the full event stream is part of the hash. The pins
//! were re-taken once when the relaxed-order solver became the only
//! accounting mode; each equals what that mode produced while it was
//! still optional.

use pythia_cluster::{run_scenario, ControllerOutage, ScenarioConfig, SchedulerKind};
use pythia_core::MgmtNetConfig;
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_netsim::FatTreeParams;
use pythia_trace::TraceConfig;
use pythia_workloads::SkewModel;

const MB: u64 = 1_000_000;

fn job(maps: usize, reducers: usize) -> JobSpec {
    JobSpec {
        name: "equiv".into(),
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

/// The chaos harness's reference fault schedule (see `chaos.rs`), with the
/// flight recorder on so the trace event stream is part of the pin.
fn chaos_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(20)
        .with_seed(seed)
        .with_trace(TraceConfig::enabled());
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

#[test]
fn chaos_seed_runs_match_pre_index_engine() {
    let expected = [
        (
            42u64,
            "t=24.007076s ev=614 rules=95 flows=288 #40b8730161cd4350",
        ),
        (
            7u64,
            "t=22.842062s ev=602 rules=88 flows=288 #0c2d920e32098117",
        ),
    ];
    for (seed, want) in expected {
        let r = run_scenario(job(40, 8), &chaos_cfg(seed));
        assert_eq!(r.fingerprint().to_string(), want, "chaos seed {seed}");
    }
}

#[test]
fn clean_fat_tree_run_matches_pre_index_engine() {
    let cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(5)
        .with_trace(TraceConfig::enabled());
    let r = run_scenario(job(24, 6), &cfg);
    assert_eq!(
        r.fingerprint().to_string(),
        "t=12.852778s ev=639 rules=402 flows=132 #a4d7090b74c55483"
    );
}
