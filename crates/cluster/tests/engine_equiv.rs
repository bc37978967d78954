//! Pins the optimized engine to the pre-index behavior, bit for bit.
//!
//! The secondary indexes (server-pair → flows, link → flows), the layered
//! CBR background solve, metered byte integration, and the reusable
//! dispatch scratch buffers are all *pure caches*: they must not change a
//! single event, rate, curve point, or trace record. These fingerprints
//! were captured from the pre-optimization engine on the chaos harness
//! scenarios (controller outage + lossy management network + agent
//! respill) and on a clean fat-tree run; the optimized engine must
//! reproduce them exactly — including the full flight-recorder event
//! stream and every report artifact that feeds the CSVs.
//!
//! Every scenario pins `.with_relaxed_order(false)`: these fingerprints
//! define the exact accounting path, which must stay byte-identical. The
//! relaxed solver is held to the tolerance bounds in
//! `tests/relaxed_tolerance.rs` at the workspace root instead.

use std::collections::BTreeMap;

use pythia_cluster::{run_scenario, ControllerOutage, RunReport, ScenarioConfig, SchedulerKind};
use pythia_core::MgmtNetConfig;
use pythia_des::{fnv1a64, SimDuration, SimTime};
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_netsim::{CumulativeCurve, FatTreeParams, NodeId};
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
        .with_trace(TraceConfig::enabled())
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
        down_at: SimDuration::from_secs(3),
        up_at: SimDuration::from_secs(10),
    }];
    cfg.agent_respill_at = vec![SimDuration::from_secs(12)];
    cfg
}

/// Curves are hashed by sampling them with `value_at` on this fixed
/// grid (every 100 ms up to 60 s, past the end of every pinned run), so
/// the pin sees the step function the run observed, not how many points
/// the curve happens to store.
const CURVE_GRID_MS: u64 = 100;
const CURVE_GRID_END_MS: u64 = 60_000;

/// Little-endian byte sink for the artifact hash.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, x: u64) {
        self.0.extend(x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn time(&mut self, t: Option<SimTime>) {
        self.u64(t.map_or(u64::MAX, SimTime::as_nanos));
    }
    fn curves(&mut self, curves: &BTreeMap<NodeId, CumulativeCurve>) {
        for (node, curve) in curves {
            self.u64(node.0 as u64);
            for ms in (0..=CURVE_GRID_END_MS).step_by(CURVE_GRID_MS as usize) {
                self.f64(curve.value_at(SimTime::from_millis(ms)));
            }
        }
    }
}

/// Everything observable about a run, collapsed to one comparable line:
/// headline numbers plus content hashes of the trace stream and of the
/// report artifacts — per-flow NetFlow records, measured/predicted
/// curves on the sampling grid, spill counts and the job timeline —
/// each hashed field by field.
fn fingerprint(r: &RunReport) -> String {
    let mut stream = String::new();
    for ev in &r.trace_events {
        stream.push_str(&format!("{ev:?}"));
    }
    let trace = fnv1a64(stream.as_bytes());
    let mut b = Bytes::default();
    for f in r.flow_trace.records() {
        b.u64(f.src_node as u64);
        b.u64(f.dst_node as u64);
        b.u64(f.src_port as u64);
        b.u64(f.dst_port as u64);
        b.f64(f.bytes);
        b.f64(f.start_secs);
        b.f64(f.end_secs);
        b.u64(f.trunk_link.map_or(u64::MAX, u64::from));
    }
    b.curves(&r.measured_curves);
    b.curves(&r.predicted_curves);
    for &n in &r.spills_per_server {
        b.u64(n);
    }
    let t = &r.timeline;
    b.time(Some(t.job_start));
    b.time(t.job_end);
    for (map, (server, span)) in &t.maps {
        b.u64(map.0 as u64);
        b.u64(server.0 as u64);
        b.time(Some(span.start));
        b.time(Some(span.end));
    }
    for (reducer, rt) in &t.reducers {
        b.u64(reducer.0 as u64);
        b.u64(rt.server.0 as u64);
        b.time(Some(rt.launched_at));
        b.time(rt.shuffle_end);
        b.time(rt.sort_end);
        b.time(rt.finished_at);
        b.u64(rt.local_bytes);
        b.u64(rt.remote_bytes);
    }
    b.time(t.first_fetch_at);
    b.time(t.last_fetch_end);
    format!(
        "t={} ev={} rules={} flows={} outages={} tr={}#{trace:016x} art={:016x}",
        r.completion(),
        r.events_processed,
        r.rules_installed,
        r.flow_trace.len(),
        r.degradation.controller_outages,
        r.trace_events.len(),
        fnv1a64(&b.0),
    )
}

#[test]
fn chaos_seed_runs_match_pre_index_engine() {
    let expected = [
        (
            42u64,
            "t=24.002518s ev=615 rules=95 flows=288 outages=1 tr=1301#b00276ca694404bb art=d9d510c07f828da7",
        ),
        (
            7u64,
            "t=26.868063s ev=623 rules=96 flows=288 outages=1 tr=1297#831f15cc5ed57458 art=4aa9ac4dd7ea64f1",
        ),
    ];
    for (seed, want) in expected {
        let r = run_scenario(job(40, 8), &chaos_cfg(seed));
        let got = fingerprint(&r);
        assert_eq!(got, want, "chaos seed {seed}");
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
        .with_trace(TraceConfig::enabled())
        .with_relaxed_order(false);
    let r = run_scenario(job(24, 6), &cfg);
    assert_eq!(
        fingerprint(&r),
        "t=12.841055s ev=640 rules=402 flows=132 outages=0 \
         tr=1374#57166f972557e4b3 art=d2b18635336d9c37"
    );
}
