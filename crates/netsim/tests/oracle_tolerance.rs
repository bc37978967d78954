//! Oracle for the rate engine's accounting and for deferred solves.
//!
//! A random shuffle-shaped script — waves of flow starts, SDN re-routes
//! shortly after a start, rare aborts, CBR background redraws — runs
//! through two systems:
//!
//! * [`FlowNet`] driven the way the cluster engine drives it: lazy byte
//!   accounting, one event per round, and the rate solve either run every
//!   round or left to the engine's [`Deferral`] (single-flow mutations
//!   weigh `1/N`, background redraws `1.0`);
//! * an eager oracle: the reference allocator ([`max_min_fair`]) re-solved
//!   after every mutation and every completion, with bytes integrated
//!   eagerly in `f64` seconds between them.
//!
//! Solving every round, completions must match the oracle to rounding.
//! Deferring, every flow must still complete with exactly its bytes, and
//! the flows that leave the published completion envelope are counted
//! against a recorded ceiling (see
//! [`deferred_solves_track_the_eager_oracle`]). Debug builds run 64
//! cases, release builds 4096.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pythia_des::SimTime;
use pythia_netsim::{
    build_multi_rack, max_min_fair, Deferral, FiveTuple, FlowId, FlowNet, FlowPath, FlowSpec,
    LinkId, MultiRack, MultiRackParams, Path, RELAXED_ABS_EPS_SECS, RELAXED_COMPLETION_EPS,
};

/// One scripted mutation. Flows are numbered in start order; servers are
/// indices into the fabric's server list.
#[derive(Debug, Clone, Copy)]
enum Op {
    Start {
        flow: usize,
        route: Route,
        bytes: u64,
    },
    Reroute {
        flow: usize,
        route: Route,
    },
    Abort {
        flow: usize,
    },
    Cbr {
        trunk_link: usize,
        rate_bps: f64,
    },
}

/// `src → dst`, crossing parallel trunk `trunk` between racks.
#[derive(Debug, Clone, Copy)]
struct Route {
    src: usize,
    dst: usize,
    trunk: usize,
}

/// The script (time in ms, op) and each system's completion instant per
/// flow (`None`: aborted first).
type Script = Vec<(u64, Op)>;
type Ends = Vec<Option<f64>>;

/// Deterministic LCG for the script; proptest only supplies the seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn fabric() -> MultiRack {
    build_multi_rack(&MultiRackParams {
        racks: 3,
        servers_per_rack: 4,
        nic_bps: 1e9,
        trunk_count: 2,
        trunk_bps: 1e9,
    })
}

/// A time-ordered script shaped like a shuffle: waves of fetch starts (a
/// reducer launching its fetches from several map hosts at one instant),
/// re-routes of started flows shortly after their start (rule installs),
/// rare aborts, and background redraws.
fn script(mr: &MultiRack, seed: u64) -> (Script, usize) {
    let mut rng = Lcg(seed ^ 0x0a5c_1e00);
    let n_servers = mr.servers.len() as u64;
    let mut ops = Vec::new();
    let mut flow = 0;
    for _ in 0..2 + rng.below(8) {
        let at = rng.below(8000);
        let dst = rng.below(n_servers) as usize;
        for _ in 0..2 + rng.below(7) {
            let src = (dst + 1 + rng.below(n_servers - 1) as usize) % n_servers as usize;
            let route = |trunk| Route { src, dst, trunk };
            let bytes = 1_000_000 + rng.below(300_000_000);
            ops.push((
                at,
                Op::Start {
                    flow,
                    route: route(rng.below(2) as usize),
                    bytes,
                },
            ));
            if rng.below(3) == 0 {
                let route = route(rng.below(2) as usize);
                ops.push((at + 1 + rng.below(200), Op::Reroute { flow, route }));
            }
            if rng.below(16) == 0 {
                ops.push((at + 1 + rng.below(4000), Op::Abort { flow }));
            }
            flow += 1;
        }
    }
    for _ in 0..rng.below(6) {
        let trunk_link = rng.below(mr.trunk_links.len() as u64) as usize;
        let rate_bps = 1e6 + rng.below(900) as f64 * 1e6;
        ops.push((
            rng.below(10_000),
            Op::Cbr {
                trunk_link,
                rate_bps,
            },
        ));
    }
    // Stable: same-instant ops keep their generation order.
    ops.sort_by_key(|&(at, _)| at);
    (ops, flow)
}

fn links(mr: &MultiRack, r: Route) -> Vec<LinkId> {
    let t = &mr.topology;
    let (s, d) = (mr.servers[r.src], mr.servers[r.dst]);
    let (ra, rb) = (t.node(s).rack().unwrap(), t.node(d).rack().unwrap());
    let (ta, tb) = (mr.tors[ra as usize], mr.tors[rb as usize]);
    let mut links = vec![t.find_link(s, ta, 0).unwrap()];
    if ra != rb {
        links.push(t.find_link(ta, tb, r.trunk).unwrap());
    }
    links.push(t.find_link(tb, d, 0).unwrap());
    links
}

/// Initial background: one CBR stream per trunk link at 30% of capacity.
const CBR_START_BPS: f64 = 0.3e9;

/// [`FlowNet`] driven the way the engine drives it.
struct Driver<'a> {
    mr: &'a MultiRack,
    net: FlowNet,
    /// Per scripted flow: its id from its start until it leaves.
    ids: Vec<Option<FlowId>>,
    flow_of: BTreeMap<FlowId, usize>,
    cbr: Vec<FlowId>,
    ends: Ends,
    /// Whether solves are deferred; `false` solves every round.
    defer: bool,
    deferral: Deferral,
    flowcheck: Option<SimTime>,
}

impl<'a> Driver<'a> {
    fn new(mr: &'a MultiRack, n_flows: usize, defer: bool) -> Self {
        let mut net = FlowNet::new(mr.topology.clone());
        let cbr = mr
            .trunk_links
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let link = mr.topology.link(l);
                let tuple = FiveTuple::udp(link.src, link.dst, 5000 + i as u16, 5001);
                let path = Path::new(&mr.topology, vec![l]).unwrap();
                net.start_flow(FlowSpec::cbr(tuple, CBR_START_BPS), path)
            })
            .collect();
        net.recompute();
        Driver {
            mr,
            net,
            ids: vec![None; n_flows],
            flow_of: BTreeMap::new(),
            cbr,
            ends: vec![None; n_flows],
            defer,
            deferral: Deferral::default(),
            flowcheck: None,
        }
    }

    /// A single-flow mutation among the live transfers (counted before a
    /// start, including a departing flow), as the engine counts fetches.
    fn dirty_flow(&mut self) {
        self.deferral.flow_changed(self.flow_of.len());
    }

    fn path(&self, r: Route) -> Path {
        Path::new(&self.mr.topology, links(self.mr, r)).unwrap()
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Start { flow, route, bytes } => {
                let (s, d) = (self.mr.servers[route.src], self.mr.servers[route.dst]);
                let tuple = FiveTuple::tcp(s, d, 40000 + flow as u16, 50060);
                let spec = FlowSpec::tcp_transfer(tuple, bytes);
                let id = self.net.start_flow(spec, self.path(route));
                self.dirty_flow();
                self.ids[flow] = Some(id);
                self.flow_of.insert(id, flow);
            }
            Op::Reroute { flow, route } => {
                if let Some(id) = self.ids[flow] {
                    self.net.reroute_flow(id, self.path(route));
                    self.dirty_flow();
                }
            }
            Op::Abort { flow } => {
                if let Some(id) = self.ids[flow].take() {
                    self.dirty_flow();
                    self.flow_of.remove(&id);
                    self.net.remove_flow(id);
                }
            }
            Op::Cbr {
                trunk_link,
                rate_bps,
            } => {
                self.net.set_cbr_rate(self.cbr[trunk_link], rate_bps);
                self.deferral.structural_change();
            }
        }
    }

    /// The engine's round finish: solve unless the deferral budget allows
    /// waiting until `next_event`, then re-project the completion probe.
    fn finish_round(&mut self, now: SimTime, next_event: Option<SimTime>) {
        let due = if self.defer {
            self.deferral.solve_due(now, next_event)
        } else {
            self.deferral.is_pending()
        };
        if due {
            self.net.recompute();
            self.deferral.solved();
        }
        self.flowcheck = self.net.next_completion().map(|(t, _)| t);
    }

    fn run(mut self, ops: &[(u64, Op)]) -> Ends {
        let mut ops = ops.iter().peekable();
        let next_at = |ops: &mut std::iter::Peekable<_>, probe: Option<SimTime>| {
            let op = ops
                .peek()
                .map(|&&(ms, _): &&(u64, Op)| SimTime::from_millis(ms));
            match (op, probe) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        while let Some(now) = next_at(&mut ops, self.flowcheck) {
            let done: Vec<FlowId> = self.net.advance_to(now).to_vec();
            for id in done {
                self.dirty_flow();
                let flow = self.flow_of.remove(&id).expect("scripted flow");
                self.ids[flow] = None;
                let rep = self.net.remove_flow(id);
                let want = rep.spec.size_bytes.expect("bounded transfer") as f64;
                assert!(
                    (rep.transferred_bytes - want).abs() <= 8.0,
                    "flow {flow} moved {} of {want} bytes",
                    rep.transferred_bytes
                );
                self.ends[flow] = Some(now.as_secs_f64());
            }
            // One event per round: the due probe first, else every op of
            // this instant (one handler's batch, like a fetch wave).
            if self.flowcheck == Some(now) {
                self.flowcheck = None;
            } else {
                while let Some(&(_, op)) = ops.next_if(|&&(ms, _)| SimTime::from_millis(ms) == now)
                {
                    self.apply(op);
                }
            }
            let next_event = next_at(&mut ops, self.flowcheck);
            self.finish_round(now, next_event);
        }
        self.ends
    }
}

/// One flow of the eager oracle.
struct OracleFlow {
    links: Vec<usize>,
    remaining: f64,
    cbr_bps: Option<f64>,
}

/// The reference allocator re-solved after every change, bytes
/// integrated eagerly.
struct Oracle<'a> {
    mr: &'a MultiRack,
    caps: Vec<f64>,
    /// Adaptive flows keyed by script index; CBR flows after them.
    flows: BTreeMap<usize, OracleFlow>,
    n_flows: usize,
    now: f64,
    ends: Ends,
}

impl<'a> Oracle<'a> {
    fn new(mr: &'a MultiRack, n_flows: usize) -> Self {
        let caps = (0..mr.topology.num_links())
            .map(|l| mr.topology.link(LinkId(l as u32)).capacity_bps)
            .collect();
        let cbr = mr.trunk_links.iter().enumerate().map(|(i, &l)| {
            let f = OracleFlow {
                links: vec![l.0 as usize],
                remaining: f64::INFINITY,
                cbr_bps: Some(CBR_START_BPS),
            };
            (n_flows + i, f)
        });
        Oracle {
            mr,
            caps,
            flows: cbr.collect(),
            n_flows,
            now: 0.0,
            ends: vec![None; n_flows],
        }
    }

    fn links(&self, r: Route) -> Vec<usize> {
        links(self.mr, r).iter().map(|l| l.0 as usize).collect()
    }

    /// Integrate to `t`, completing flows (and re-solving) on the way.
    fn run_to(&mut self, t: f64) {
        loop {
            let paths: Vec<FlowPath<'_>> = self
                .flows
                .values()
                .map(|f| FlowPath {
                    links: &f.links,
                    cbr_rate_bps: f.cbr_bps,
                })
                .collect();
            let rates = max_min_fair(&self.caps, &paths).rates_bps;
            let mut dt = t - self.now;
            let mut first = None;
            for ((&k, f), &r) in self.flows.iter().zip(&rates) {
                if f.cbr_bps.is_none() && r > 0.0 && f.remaining * 8.0 / r <= dt {
                    dt = f.remaining * 8.0 / r;
                    first = Some(k);
                }
            }
            for (f, &r) in self.flows.values_mut().zip(&rates) {
                if f.cbr_bps.is_none() && r > 0.0 {
                    f.remaining -= r * dt / 8.0;
                }
            }
            self.now += dt;
            let Some(first) = first else { break };
            self.flows.get_mut(&first).unwrap().remaining = 0.0;
            let now = self.now;
            let ends = &mut self.ends;
            self.flows.retain(|&k, f| {
                let done = f.cbr_bps.is_none() && f.remaining <= 1e-6;
                if done {
                    ends[k] = Some(now);
                }
                !done
            });
        }
    }

    fn run(mut self, ops: &[(u64, Op)]) -> Ends {
        for &(ms, op) in ops {
            self.run_to(ms as f64 / 1000.0);
            match op {
                Op::Start { flow, route, bytes } => {
                    let f = OracleFlow {
                        links: self.links(route),
                        remaining: bytes as f64,
                        cbr_bps: None,
                    };
                    self.flows.insert(flow, f);
                }
                Op::Reroute { flow, route } => {
                    let links = self.links(route);
                    if let Some(f) = self.flows.get_mut(&flow) {
                        f.links = links;
                    }
                }
                Op::Abort { flow } => {
                    self.flows.remove(&flow);
                }
                Op::Cbr {
                    trunk_link,
                    rate_bps,
                } => {
                    let f = self.flows.get_mut(&(self.n_flows + trunk_link)).unwrap();
                    f.cbr_bps = Some(rate_bps);
                }
            }
        }
        self.run_to(f64::INFINITY);
        self.ends
    }
}

/// Cases per property: the debug suite runs few, release builds soak.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4096 };

/// Run `seed`'s script through the driver and the oracle.
fn run_both(seed: u64, defer: bool) -> (Script, Ends, Ends) {
    let mr = fabric();
    let (ops, n_flows) = script(&mr, seed);
    let got = Driver::new(&mr, n_flows, defer).run(&ops);
    let want = Oracle::new(&mr, n_flows).run(&ops);
    (ops, got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Solving every round, lazy accounting is the eager integration: every
    /// flow completes in both systems at the same instant, up to the
    /// nanosecond rounding of completion projections.
    #[test]
    fn eager_solves_match_the_oracle(seed in any::<u64>()) {
        let (_, got, want) = run_both(seed, false);
        for (flow, (g, w)) in got.iter().zip(&want).enumerate() {
            match (g, w) {
                (Some(g), Some(w)) => prop_assert!(
                    (g - w).abs() <= 1e-6 + 1e-9 * w,
                    "seed {seed:#x} flow {flow}: completed at {g:.9}s, oracle {w:.9}s"
                ),
                (None, None) => {}
                _ => prop_assert!(false, "seed {seed:#x} flow {flow}: {g:?} vs oracle {w:?}"),
            }
        }
    }
}

/// Scripts with a flow outside the completion envelope under deferred
/// solves, out of the 64 (debug) or 4096 (release) scripts of
/// [`deferred_solves_track_the_eager_oracle`]'s fixed seed stream, as
/// measured with the engine's deferral budget (0.25, 500 ms; the 1 s
/// window it replaced left 469 of 4096). The test fails if the count
/// rises; lower it with any policy change that does.
const ENVELOPE_MISSES: usize = if cfg!(debug_assertions) { 0 } else { 99 };

/// Under the engine's deferral budget every flow that is not aborted
/// still completes in both systems and moves exactly its bytes (the
/// driver asserts that on removal). The published per-flow envelope,
/// `|deferred − oracle| ≤ RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS ·
/// oracle`, is checked on every flow, and the scripts with a flow outside
/// it are counted against [`ENVELOPE_MISSES`].
///
/// The envelope is not a bound the deferral policy guarantees: a flow
/// that leaves a stale window a few megabytes behind (or ahead) and then
/// falls to a small share of a congested link — a background redraw, a
/// wave of starts on its destination — finishes late (or early) by those
/// bytes at the small rate. No deferral budget removes that without
/// giving up the deferral: weighting each mutation by its own links'
/// crowding (99.3% of the eager solves) or capping the window at 100 ms
/// still leaves a few cases in 20,000 outside the envelope. The two
/// calibrated reference scenarios hold it per flow against a run that
/// solves every round (`tests/relaxed_tolerance.rs`).
#[test]
fn deferred_solves_track_the_eager_oracle() {
    let mut seeds = Lcg(0x0dd5_eed5);
    let mut misses = Vec::new();
    let mut worst = (0.0f64, String::new());
    for _ in 0..CASES {
        let seed = seeds.below(u64::MAX);
        let (ops, got, want) = run_both(seed, true);
        let aborted: Vec<usize> = ops
            .iter()
            .filter_map(|(_, op)| match op {
                Op::Abort { flow } => Some(*flow),
                _ => None,
            })
            .collect();
        let mut missed = false;
        for (flow, (g, w)) in got.iter().zip(&want).enumerate() {
            let (Some(g), Some(w)) = (*g, *w) else {
                assert!(
                    aborted.contains(&flow),
                    "seed {seed:#x} flow {flow}: {g:?} vs oracle {w:?}"
                );
                continue;
            };
            let bound = RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS * w;
            let ratio = (g - w).abs() / bound;
            missed |= ratio > 1.0;
            if ratio > worst.0 {
                let at = format!("seed {seed:#x} flow {flow}: {g:.6}s vs oracle {w:.6}s");
                worst = (ratio, at);
            }
        }
        if missed {
            misses.push(seed);
        }
    }
    eprintln!(
        "{} of {CASES} scripts left the envelope; worst {:.2}× it ({})",
        misses.len(),
        worst.0,
        worst.1
    );
    let over_ceiling = misses.len().saturating_sub(ENVELOPE_MISSES);
    assert_eq!(
        over_ceiling,
        0,
        "{} scripts left the completion envelope, recorded ceiling {ENVELOPE_MISSES}: {:#x?}",
        misses.len(),
        misses
    );
}
