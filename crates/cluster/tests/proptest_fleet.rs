//! Property tests for the streaming fleet path: arrival traces are a
//! pure function of the seed, whole-fleet runs are bit-deterministic,
//! and a mid-trace snapshot/resume is indistinguishable from an
//! uninterrupted run.

use proptest::prelude::*;
use pythia_cluster::{
    capture_multi_snapshot, resume_multi_from_bytes, run_multi_scenario, ScenarioConfig,
    SchedulerKind,
};
use pythia_des::SimDuration;
use pythia_netsim::FatTreeParams;
use pythia_workloads::FleetSpec;

#[derive(Debug, Clone)]
struct FleetScn {
    jobs: usize,
    mean_secs: u64,
    seed: u64,
    shards: usize,
    epoch_ms: Option<u64>,
}

fn scn() -> impl Strategy<Value = FleetScn> {
    (
        3usize..8,
        1u64..6,
        1u64..10_000,
        1usize..5,
        prop_oneof![Just(None), Just(Some(300u64)), Just(Some(1500))],
    )
        .prop_map(|(jobs, mean_secs, seed, shards, epoch_ms)| FleetScn {
            jobs,
            mean_secs,
            seed,
            shards,
            epoch_ms,
        })
}

fn fleet_of(s: &FleetScn) -> FleetSpec {
    let mut f = FleetSpec::poisson(s.jobs, SimDuration::from_secs(s.mean_secs), s.seed);
    // Small jobs keep each proptest case sub-second.
    f.min_input_bytes = 32 << 20;
    f.max_input_bytes = 256 << 20;
    f
}

fn cfg_of(s: &FleetScn) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(s.seed)
        .with_collector_shards(s.shards);
    if let Some(ms) = s.epoch_ms {
        cfg = cfg.with_install_epoch(SimDuration::from_millis(ms));
    }
    cfg
}

/// One fixed fleet, pinned: k=4, four collector shards, 300 ms install
/// epochs. Re-taken once when the relaxed-order solver became the only
/// accounting mode (it equals what that mode produced while it was still
/// optional); every comparison in this file is equality, not tolerance.
#[test]
fn four_shard_epoch_fleet_is_pinned() {
    let s = FleetScn {
        jobs: 12,
        mean_secs: 1,
        seed: 4242,
        shards: 4,
        epoch_ms: Some(300),
    };
    let r = run_multi_scenario(fleet_of(&s).jobs(), &cfg_of(&s));
    assert_eq!(
        r.fingerprint().to_string(),
        "t=16.721680s ev=306 rules=39 flows=26 #a6b1e3917ab5ae17"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The arrival trace — instants, sizes, profiles, partitioners — is a
    /// pure function of the spec: same seed, byte-identical fleet.
    #[test]
    fn same_seed_same_trace(s in scn()) {
        let a = fleet_of(&s);
        let b = fleet_of(&s);
        prop_assert_eq!(a.trace_fingerprint(), b.trace_fingerprint());
        let (ja, jb) = (a.jobs(), b.jobs());
        prop_assert_eq!(ja.len(), jb.len());
        for ((sa, ta), (sb, tb)) in ja.iter().zip(&jb) {
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(&sa.name, &sb.name);
            prop_assert_eq!(sa.input_bytes, sb.input_bytes);
            prop_assert_eq!(sa.num_maps, sb.num_maps);
            prop_assert_eq!(sa.num_reducers, sb.num_reducers);
        }
        // Reordering the seed reorders the fleet: perturbing it moves the
        // fingerprint (seeds are drawn apart, collisions are negligible).
        let mut other = fleet_of(&s);
        other.seed ^= 0x5eed_5eed;
        prop_assert_ne!(a.trace_fingerprint(), other.trace_fingerprint());
    }

    /// Whole-fleet bit-determinism: same seed, same report fingerprint
    /// (streamed jobs, sharded collector, epoch batching and all).
    #[test]
    fn same_seed_same_report(s in scn()) {
        let cfg = cfg_of(&s);
        let a = run_multi_scenario(fleet_of(&s).jobs(), &cfg);
        let b = run_multi_scenario(fleet_of(&s).jobs(), &cfg);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// A snapshot taken mid-trace and resumed must be indistinguishable
    /// from the run that was never interrupted.
    #[test]
    fn mid_trace_resume_matches_uninterrupted(s in scn(), frac in 0.1f64..0.9) {
        let cfg = cfg_of(&s);
        let straight = run_multi_scenario(fleet_of(&s).jobs(), &cfg);
        let cut = ((straight.events_processed as f64 * frac) as u64).max(1);
        let bytes = capture_multi_snapshot(fleet_of(&s).jobs(), &cfg, cut)
            .expect("capture point inside the run");
        let resumed = resume_multi_from_bytes(fleet_of(&s).jobs(), &cfg, &bytes)
            .expect("resume from mid-trace snapshot");
        prop_assert_eq!(straight.fingerprint(), resumed.fingerprint());
    }
}
