//! Property tests over randomized end-to-end scenarios: every
//! configuration completes, conserves bytes across the Hadoop/network
//! boundary, and is bit-deterministic.

use proptest::prelude::*;
use pythia_cluster::{run_scenario, ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_hadoop::{DurationModel, HadoopConfig, JobSpec};
use pythia_netsim::{BackgroundProfile, MultiRackParams};
use pythia_workloads::SkewModel;

const MB: u64 = 1_000_000;

#[derive(Debug, Clone)]
struct Scn {
    scheduler: SchedulerKind,
    ratio: u32,
    racks: u32,
    servers_per_rack: u32,
    maps: usize,
    reducers: usize,
    mb_per_map: u64,
    zipf_s: f64,
    fluctuating: bool,
    seed: u64,
}

fn scn() -> impl Strategy<Value = Scn> {
    (
        prop_oneof![
            Just(SchedulerKind::Ecmp),
            Just(SchedulerKind::Pythia),
            Just(SchedulerKind::Hedera),
        ],
        prop_oneof![Just(1u32), Just(5), Just(10), Just(20)],
        2u32..4,
        2u32..5,
        2usize..25,
        1usize..6,
        4u64..128,
        0.0f64..1.5,
        any::<bool>(),
        1u64..10_000,
    )
        .prop_map(
            |(scheduler, ratio, racks, spr, maps, reducers, mb, zipf_s, fluctuating, seed)| Scn {
                scheduler,
                ratio,
                racks,
                servers_per_rack: spr,
                maps,
                reducers: reducers.min((spr * racks) as usize * 2),
                mb_per_map: mb,
                zipf_s,
                fluctuating,
                seed,
            },
        )
}

fn build(s: &Scn) -> (JobSpec, ScenarioConfig) {
    let job = JobSpec {
        name: "prop".into(),
        num_maps: s.maps,
        num_reducers: s.reducers,
        input_bytes: s.maps as u64 * s.mb_per_map * MB,
        map_output_ratio: 1.0,
        map_duration: DurationModel::rate(SimDuration::from_millis(500), 50.0 * MB as f64, 0.2),
        sort_duration: DurationModel::rate(SimDuration::from_millis(100), 500.0 * MB as f64, 0.1),
        reduce_duration: DurationModel::rate(SimDuration::from_millis(100), 200.0 * MB as f64, 0.1),
        partitioner: SkewModel::Zipf { s: s.zipf_s }.partitioner(s.reducers, 0.1, s.seed),
    };
    let mut cfg = ScenarioConfig::default()
        .with_scheduler(s.scheduler)
        .with_oversubscription(s.ratio)
        .with_seed(s.seed);
    cfg.topology = MultiRackParams {
        racks: s.racks,
        servers_per_rack: s.servers_per_rack,
        nic_bps: 1e9,
        trunk_count: 2,
        trunk_bps: 10e9,
    }
    .into();
    cfg.hadoop = HadoopConfig {
        map_slots_per_server: 2,
        reduce_slots_per_server: 2,
        reducer_launch_overhead: SimDuration::from_millis(500),
        ..Default::default()
    };
    cfg.background = if s.fluctuating {
        BackgroundProfile::default()
    } else {
        BackgroundProfile::Static
    };
    (job, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random scenario completes with conserved bytes.
    #[test]
    fn completes_and_conserves(s in scn()) {
        let (job, cfg) = build(&s);
        let expected_output = {
            let split = (job.input_bytes as f64 / job.num_maps as f64).round() as u64;
            split * job.num_maps as u64
        };
        let r = run_scenario(job, &cfg);
        prop_assert!(r.timeline.job_end.is_some());
        let local: u64 = r.timeline.reducers.values().map(|t| t.local_bytes).sum();
        let remote: u64 = r.timeline.reducers.values().map(|t| t.remote_bytes).sum();
        prop_assert_eq!(local + remote, expected_output);
        // Wire trace covers remote payload plus bounded overhead.
        let traced = r.flow_trace.total_bytes();
        prop_assert!(traced >= remote as f64 * 0.999);
        prop_assert!(traced <= remote as f64 * 1.04 + 1.0);
        // Only Pythia programs the network.
        if s.scheduler != SchedulerKind::Pythia {
            prop_assert_eq!(r.rules_installed, 0);
        }
    }

    /// Bit-determinism across the whole stack.
    #[test]
    fn deterministic(s in scn()) {
        let (job_a, cfg) = build(&s);
        let (job_b, _) = build(&s);
        let a = run_scenario(job_a, &cfg);
        let b = run_scenario(job_b, &cfg);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
