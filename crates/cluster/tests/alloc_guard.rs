//! Allocation guards for the hot loops.
//!
//! A counting global allocator wraps `System` and the checks run against
//! its counter:
//!
//! 1. **Zero steady-state allocation** in the component hot loops: a
//!    warmed-up [`FlowNet`] advance → mutate → recompute cycle (one
//!    solver worker), a
//!    pre-sized NetFlow probe sampling cycle, and a warmed-up
//!    [`EventQueue`] push → cancel → push → pop cycle, whose later
//!    pushes reuse cancelled slots while the dead keys are still in the
//!    heap, must perform exactly zero heap allocations.
//! 2. **Bounded allocations per event** for the full engine: a complete
//!    fat-tree run must stay under a per-event allocation budget, so an
//!    accidental O(all flows) collection creeping back into a dispatch
//!    handler fails loudly.
//!
//! Everything lives in one `#[test]` because the counter is process-wide
//! and the default test runner is multi-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pythia_cluster::{run_scenario, ScenarioConfig, SchedulerKind};
use pythia_des::{EventQueue, SimDuration, SimTime};
use pythia_hadoop::{DurationModel, JobSpec};
use pythia_netsim::{
    build_multi_rack, FatTreeParams, FiveTuple, FlowId, FlowNet, FlowSpec, MultiRack,
    MultiRackParams, Path,
};
use pythia_workloads::SkewModel;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The paper's two-rack testbed with background CBR on both trunks plus
/// long-lived adaptive flows, so a cycle exercises the layered CBR
/// refresh, the adaptive region solve and metered byte integration
/// together. Returns the net (solved once) and its CBR flows.
fn loaded_net(mr: &MultiRack) -> (FlowNet, Vec<FlowId>) {
    let topo = &mr.topology;
    let mut net = FlowNet::new(topo.clone());
    let mut cbrs = Vec::new();
    for trunk in 0..2 {
        let l = topo.find_link(mr.tors[0], mr.tors[1], trunk).unwrap();
        let tuple = FiveTuple::udp(mr.tors[0], mr.tors[1], 9000 + trunk as u16, 9);
        let path = Path::new(topo, vec![l]).unwrap();
        cbrs.push(net.start_flow(FlowSpec::cbr(tuple, 1e9), path));
    }
    for i in 0..4u16 {
        let s = mr.servers[i as usize];
        let d = mr.servers[5 + i as usize];
        let up = topo.find_link(s, mr.tors[0], 0).unwrap();
        let tr = topo
            .find_link(mr.tors[0], mr.tors[1], (i % 2) as usize)
            .unwrap();
        let down = topo.find_link(mr.tors[1], d, 0).unwrap();
        let path = Path::new(topo, vec![up, tr, down]).unwrap();
        // Big enough to outlive the whole measured window.
        net.start_flow(
            FlowSpec::tcp_transfer(FiveTuple::tcp(s, d, 40000 + i, 50060), 500_000_000_000),
            path,
        );
    }
    net.recompute();
    (net, cbrs)
}

/// Drive one advance → mutate → recompute round on a warmed net.
fn net_cycle(net: &mut FlowNet, cbrs: &[FlowId], round: u64) {
    let t = net.now() + SimDuration::from_millis(10);
    let _completed = net.advance_to(t);
    for (i, &fid) in cbrs.iter().enumerate() {
        // Deterministic wobble; stays far from link capacity.
        let rate = 1e9 + ((round * 7 + i as u64 * 13) % 100) as f64 * 1e6;
        net.set_cbr_rate(fid, rate);
    }
    net.recompute();
}

fn queue_cycle(q: &mut EventQueue<u32>, base_ms: u64) {
    let mut ids = [None; 32];
    for (i, slot) in ids.iter_mut().enumerate() {
        *slot = Some(q.push(SimTime::from_millis(base_ms + i as u64), i as u32));
    }
    // Cancel the odd half (stale completion estimates).
    for id in ids.iter().flatten().skip(1).step_by(2) {
        q.cancel(*id);
    }
    // Re-estimates: each push takes a slot a cancel just freed while
    // that slot's dead key still waits in the heap.
    for i in 0..8u32 {
        q.push(SimTime::from_millis(base_ms + 2 * i as u64 + 1), 100 + i);
    }
    assert_eq!(
        (q.len(), q.heap_len()),
        (24, 40),
        "slots reused with dead keys in the heap"
    );
    while q.pop().is_some() {}
}

fn job(maps: usize, reducers: usize) -> JobSpec {
    const MB: u64 = 1_000_000;
    JobSpec {
        name: "alloc-guard".into(),
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

// Debug builds run the allocating `assert_matches_reference` cross-check
// after every recompute, so the zero-allocation property only holds (and
// only matters) in release.
#[cfg_attr(
    debug_assertions,
    ignore = "reference cross-check allocates in debug builds"
)]
#[test]
fn hot_loops_allocation_budget() {
    // ---- 1a. FlowNet steady state: zero allocations (component solves
    // on the calling thread: one solver worker, the default).
    let mr = build_multi_rack(&MultiRackParams::default());
    let (mut net, cbrs) = loaded_net(&mr);
    for round in 0..50 {
        net_cycle(&mut net, &cbrs, round); // warm every internal buffer
    }
    let before = allocs();
    for round in 50..150 {
        net_cycle(&mut net, &cbrs, round);
    }
    assert_eq!(
        allocs() - before,
        0,
        "FlowNet advance/mutate/recompute cycle allocated in steady state"
    );

    // ---- 1b. NetFlow probe steady state: zero allocations. -------------
    // Pre-sized curves (the engine reserves from the scenario's fetch
    // count at construction) must absorb periodic and per-completion
    // samples without ever growing.
    let mut probe = pythia_netsim::NetFlowProbe::new(mr.servers.clone());
    probe.reserve(256);
    for round in 150..160 {
        net_cycle(&mut net, &cbrs, round);
        probe.sample(&net);
    }
    let before = allocs();
    for round in 160..260 {
        net_cycle(&mut net, &cbrs, round);
        probe.sample(&net);
        for &s in &mr.servers[..4] {
            probe.sample_node(&net, s);
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "pre-sized NetFlowProbe sampling allocated in steady state"
    );

    // ---- 1c. EventQueue steady state: zero allocations. ----------------
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..200 {
        queue_cycle(&mut q, i * 100);
    }
    let before = allocs();
    for i in 200..400 {
        queue_cycle(&mut q, i * 100);
    }
    assert_eq!(
        allocs() - before,
        0,
        "EventQueue push/cancel/push/pop cycle allocated in steady state"
    );

    // ---- 2. Whole-engine allocation budget per event. ------------------
    // A full run still allocates for real state growth (new flows' paths,
    // curve points, trace records, rule installs), but the per-event
    // average must stay small and flat: an O(all flows) temporary per
    // dispatch would blow this budget immediately.
    let cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(5);
    let before = allocs();
    let report = run_scenario(job(24, 6), &cfg);
    let spent = allocs() - before;
    let per_event = spent as f64 / report.events_processed as f64;
    assert!(
        per_event < 40.0,
        "engine allocated {per_event:.1} times per event ({spent} total / {} events)",
        report.events_processed
    );
}
