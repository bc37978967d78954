//! Hash order never reaches observable state.
//!
//! The collector, allocator and controller key their per-message state by
//! hash, in `pythia_des::FastMap`s whose multiply-rotate hasher takes a
//! fresh seed per map (a per-process random base mixed with a per-map
//! counter). Two [`ServiceCore`]s built in one process therefore iterate
//! their maps in different orders. Replaying one tapped control stream
//! through both must still produce identical rules and identical snapshot
//! bytes at every checkpoint, because every output that walks a map sorts
//! first.
//! The CRC over all checkpoint snapshots is pinned as well, so the
//! snapshot bytes themselves cannot move unnoticed.

use pythia_cluster::{
    run_multi_scenario_tapped, ControlMsg, ScenarioConfig, SchedulerKind, ServiceCore,
};
use pythia_des::{SimDuration, SimTime};
use pythia_netsim::{BackgroundProfile, FatTreeParams};
use pythia_snapshot::{crc32, Writer};
use pythia_workloads::FleetSpec;

/// A small streamed fleet on k=4 with four placement shards: jobs
/// overlap, so parked predictions of several jobs interleave. The
/// background is redrawn every second and as lopsided as it gets, so the
/// reassignment sweep moves pairs and its order shows in the rules.
fn fleet_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(4242)
        .with_collector_shards(4);
    cfg.background = BackgroundProfile::Fluctuating {
        period_secs: 1.0,
        spread: 1.0,
    };
    cfg
}

fn stream() -> Vec<(SimTime, ControlMsg)> {
    let mut fleet = FleetSpec::poisson(24, SimDuration::from_secs(1), 4242);
    fleet.min_input_bytes = 256 << 20;
    fleet.max_input_bytes = 1 << 30;
    let (_, msgs) = run_multi_scenario_tapped(fleet.jobs(), &fleet_cfg());
    msgs
}

/// The collector/allocator state and the controller state, as snapshot
/// bytes.
fn state_bytes(core: &ServiceCore) -> Vec<u8> {
    let mut w = Writer::new();
    w.section("pythia", |s| core.pythia.put_state(s));
    w.section("controller", |s| core.controller.put_state(s));
    w.finish()
}

#[test]
fn replicas_with_distinct_hashers_emit_identical_bytes() {
    let msgs = stream();
    assert!(msgs.len() > 500, "tap produced {} messages", msgs.len());
    let kinds = |f: fn(&ControlMsg) -> bool| msgs.iter().filter(|(_, m)| f(m)).count();
    assert!(kinds(|m| matches!(m, ControlMsg::ReducerLaunched { .. })) > 10);
    assert!(kinds(|m| matches!(m, ControlMsg::FetchCompleted { .. })) > 100);
    assert!(kinds(|m| matches!(m, ControlMsg::BackgroundUpdate { .. })) > 10);

    let cfg = fleet_cfg();
    let mut a = ServiceCore::from_config(&cfg).expect("pythia");
    let mut b = ServiceCore::from_config(&cfg).expect("pythia");
    let every = msgs.len() / 8;
    let mut checkpoints = Vec::new();
    let (mut rules, mut parked_max) = (0usize, 0usize);
    for (i, (at, msg)) in msgs.iter().enumerate() {
        let ra = a.dispatch(*at, msg);
        let rb = b.dispatch(*at, msg);
        assert_eq!(ra.len(), rb.len(), "message {i}: rule count differs");
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!((x.switch, x.rule, x.delay), (y.switch, y.rule, y.delay));
        }
        rules += ra.len();
        parked_max = parked_max.max(a.pythia.parked_predictions());
        if (i + 1) % every == 0 || i + 1 == msgs.len() {
            let (sa, sb) = (state_bytes(&a), state_bytes(&b));
            assert!(sa == sb, "snapshot bytes differ after message {i}");
            checkpoints.extend_from_slice(&sa);
        }
    }
    assert!(rules > 0, "the stream installed no rules");
    assert!(parked_max > 10, "no predictions waited for their reducers");
    // Re-taken when the relaxed-order solver became the only mode (the
    // tapped stream moved with it) and snapshots became format 3, and
    // again at format 4, which stores the one collector ahead of the
    // placement shards (the rules it pins did not move).
    assert_eq!(crc32(&checkpoints), 0xb162_243a);
}
