//! The live network state: active flows, their rates, and byte accounting.
//!
//! [`FlowNet`] is a *pure state machine* — it never schedules events. The
//! simulation engine drives it with this contract:
//!
//! 1. call [`FlowNet::advance_to`] to move the clock to the current
//!    instant and reap the flows whose bytes ran out;
//! 2. mutate the flow set ([`FlowNet::start_flow`] / [`FlowNet::remove_flow`]);
//! 3. call [`FlowNet::recompute`] to refresh max-min fair rates — now, or
//!    after several more mutations (see *deferred solves* below);
//! 4. ask [`FlowNet::next_completion`] for the earliest projected flow
//!    completion and schedule a single event there (re-doing steps 1–4 when
//!    it fires or whenever the flow set changes).
//!
//! # Incremental rate engine
//!
//! Every mutation marks the links it touches *dirty*. [`FlowNet::recompute`]
//! then restricts progressive filling to the connected component(s) of the
//! flow–link sharing graph that contain a dirty link: max-min fair rates of
//! a component depend only on that component's flows and links, so flows in
//! untouched components keep their rates verbatim. A single flow departing
//! from an isolated rack therefore costs `O(component)`, not `O(network)`.
//! Each component is solved in place: progressive filling runs over the
//! engine's own incidence lists with link- and slot-indexed scratch.
//! [`FlowNet::full_recompute`] forces the global problem, and in debug
//! builds every recompute is cross-checked against the retained reference
//! allocator ([`max_min_fair`]).
//!
//! Completion lookup is indexed: a lazy-deletion binary heap keyed by
//! projected completion time holds one `(time, flow id, rate epoch, slot)`
//! entry per (flow, rate-change). An entry is live while its slot still
//! holds that flow at that epoch — checked by indexing the slot table, not
//! by a lookup in the flow index; a rate change, a completion or a removal
//! (after which the slot may hold a newer flow) kills it.
//!
//! # Layered CBR solve
//!
//! CBR (background) flows don't compete — their rates depend only on
//! requested rates and link capacities (the clamp), never on adaptive
//! traffic. They are therefore solved in their own layer, refreshed only
//! when a CBR input changes, and handed to the adaptive region solve as
//! pre-committed per-link load. A recompute triggered by adaptive churn
//! (the common case: a shuffle fetch starting or finishing) never touches
//! a background flow at all.
//!
//! # Relaxed-order accounting
//!
//! Bytes are integrated *lazily, at observation points*: each flow
//! carries a `(rate, since)` segment and each source node a
//! `(committed, rate_sum, since)` accumulator, folded analytically only
//! when a rate changes, a completion fires, or a counter is read. No
//! result depends on the order flows are discovered or visited in, which
//! buys three things:
//!
//! * **O(touched) advancement** — [`FlowNet::advance_to`] pops only due
//!   completion projections instead of integrating every active flow;
//! * **deferred solves** — mutators assign feasible provisional rates
//!   (new flows get their path's residual capacity), so a driver may
//!   batch several mutations before one [`FlowNet::recompute`];
//! * **component-parallel solves** — the dirty set is split into
//!   connected components solved independently (optionally on scoped
//!   worker threads); rates are written back in canonical flow-id order,
//!   so results are bitwise identical for *any* worker count.
//!
//! A driver that defers solves trades exactness for speed: completion
//! times then match an eager solve-after-every-mutation integration
//! within a small tolerance (the netsim oracle property test holds them to
//! the envelope the cluster crate publishes), not byte for byte.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use pythia_des::{SimDuration, SimTime};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

use crate::fairshare::{max_min_fair, Allocation, FlowPath, CBR_SHARE_LIMIT};
use crate::flow::{FlowId, FlowKind, FlowSpec};
use crate::routing::Path;
use crate::topology::{LinkId, NodeId, Topology};

/// A flow currently in the network.
#[derive(Debug, Clone)]
pub struct ActiveFlow {
    /// The flow's descriptor (5-tuple, size, kind).
    pub spec: FlowSpec,
    /// The path it currently rides.
    pub path: Path,
    /// Bytes still to transfer (`None` ⇒ unbounded), as of the flow's
    /// last fold (a rate change, its completion or its removal).
    pub remaining_bytes: Option<f64>,
    /// Bytes moved as of the flow's last fold; [`FlowReport`] and
    /// [`FlowNet::cum_tx_bytes`] are current.
    pub transferred_bytes: f64,
    /// Current allocated rate (bits/sec); valid as of the last `recompute`.
    pub rate_bps: f64,
    /// When the flow entered the network.
    pub started_at: SimTime,
}

impl ActiveFlow {
    /// A bounded flow whose byte count has reached zero.
    pub fn is_complete(&self) -> bool {
        matches!(self.remaining_bytes, Some(r) if r <= 0.0)
    }
}

/// Final accounting for a removed flow.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The removed flow's id.
    pub id: FlowId,
    /// Its descriptor.
    pub spec: FlowSpec,
    /// The path it was on at removal.
    pub path: Path,
    /// Total bytes it moved.
    pub transferred_bytes: f64,
    /// When it entered the network.
    pub started_at: SimTime,
    /// When it was removed.
    pub ended_at: SimTime,
}

const NONE_U32: u32 = u32::MAX;

/// Engine-internal bookkeeping kept alongside the public [`ActiveFlow`].
struct FlowSlot {
    id: FlowId,
    flow: ActiveFlow,
    /// Whether the flow currently contributes load (present in the
    /// flow–link incidence lists). Completed flows are unlinked.
    linked: bool,
    /// Whether this flow's byte counters are observable (bounded, or
    /// sourced at a metered node). Unmetered flows are never integrated.
    metered: bool,
    /// Bumped whenever `rate_bps` changes; completion-heap entries carry
    /// the epoch they were projected under and die with it.
    rate_epoch: u64,
    /// The instant `remaining`/`transferred` were last folded to; the
    /// flow's rate has been constant since.
    since: SimTime,
}

/// One incidence-list entry: flow `slot` crosses this link as its `k`-th
/// path hop.
#[derive(Clone, Copy)]
struct LinkEntry {
    slot: u32,
    k: u32,
}

/// Per-link incidence lists packed into one arena.
///
/// Region discovery walks the lists of every link it pulls in — with one
/// heap `Vec` per link those walks were a cache miss per link. Here every
/// list lives in a segment of a single backing vector (the whole working
/// set is a few tens of KB, so it stays cache-resident), and a full
/// segment is migrated to a doubled one at the tail on overflow. The old
/// segment is abandoned, which is fine: a link only migrates when it
/// exceeds its historical peak, so the backing length is bounded by a
/// small multiple of peak total incidence, independent of run length.
///
/// `push` appends and `swap_remove` backfills with the last element —
/// the order semantics the per-link `Vec`s had. No rate or byte depends
/// on list order (component solves are order-independent and write back
/// in flow-id order), but snapshots serialize the lists verbatim.
struct LinkLists {
    data: Vec<LinkEntry>,
    off: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
}

impl LinkLists {
    fn new(n_links: usize) -> Self {
        LinkLists {
            data: Vec::new(),
            off: vec![0; n_links],
            len: vec![0; n_links],
            cap: vec![0; n_links],
        }
    }

    fn list(&self, l: usize) -> &[LinkEntry] {
        let off = self.off[l] as usize;
        &self.data[off..off + self.len[l] as usize]
    }

    fn get(&self, l: usize, pos: usize) -> LinkEntry {
        debug_assert!((pos as u32) < self.len[l]);
        self.data[self.off[l] as usize + pos]
    }

    /// Append an entry to `l`'s list; returns its position.
    fn push(&mut self, l: usize, e: LinkEntry) -> u32 {
        if self.len[l] == self.cap[l] {
            let new_cap = (self.cap[l] * 2).max(4);
            let new_off = self.data.len() as u32;
            let old = self.off[l] as usize;
            self.data.reserve(new_cap as usize);
            for i in 0..self.len[l] as usize {
                let e = self.data[old + i];
                self.data.push(e);
            }
            self.data.resize(
                new_off as usize + new_cap as usize,
                LinkEntry { slot: 0, k: 0 },
            );
            self.off[l] = new_off;
            self.cap[l] = new_cap;
        }
        let pos = self.len[l];
        self.data[self.off[l] as usize + pos as usize] = e;
        self.len[l] += 1;
        pos
    }

    /// Remove the entry at `pos`, backfilling with the last entry.
    /// Returns the backfilled entry if one was moved into `pos`.
    fn swap_remove(&mut self, l: usize, pos: usize) -> Option<LinkEntry> {
        let off = self.off[l] as usize;
        let last = self.len[l] as usize - 1;
        debug_assert!(pos <= last);
        self.data[off + pos] = self.data[off + last];
        self.len[l] -= 1;
        (pos < last).then(|| self.data[off + pos])
    }
}

/// Per-slot interned path links and incidence positions, packed into one
/// arena (same rationale as [`LinkLists`]: region discovery and solve
/// staging walk a flow's links for every region flow, and per-slot heap
/// `Vec`s made each walk a cache miss into the large `FlowSlot`).
///
/// `links[off[s]..off[s]+len[s]]` are slot `s`'s interned link indices in
/// path-hop order; `pos` is the parallel position of each hop's entry in
/// `link_flows` (valid while the slot is linked). Segments are replaced
/// wholesale on (re)route; a segment that outgrows its capacity migrates
/// to the tail and the old one is abandoned, bounded as in `LinkLists`.
struct SlotHops {
    links: Vec<u32>,
    pos: Vec<u32>,
    off: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
}

impl SlotHops {
    fn new() -> Self {
        SlotHops {
            links: Vec::new(),
            pos: Vec::new(),
            off: Vec::new(),
            len: Vec::new(),
            cap: Vec::new(),
        }
    }

    /// Replace slot `s`'s hop list with `path_links`, resetting every
    /// incidence position to `NONE_U32`.
    fn set(&mut self, s: usize, path_links: &[LinkId]) {
        if self.off.len() <= s {
            self.off.resize(s + 1, 0);
            self.len.resize(s + 1, 0);
            self.cap.resize(s + 1, 0);
        }
        let n = path_links.len();
        if n as u32 > self.cap[s] {
            let new_cap = (n as u32).next_power_of_two().max(4);
            self.off[s] = self.links.len() as u32;
            self.links.resize(self.links.len() + new_cap as usize, 0);
            self.pos.resize(self.pos.len() + new_cap as usize, 0);
            self.cap[s] = new_cap;
        }
        let off = self.off[s] as usize;
        for (k, l) in path_links.iter().enumerate() {
            self.links[off + k] = l.0;
            self.pos[off + k] = NONE_U32;
        }
        self.len[s] = n as u32;
    }

    /// Slot `s`'s interned links, in path-hop order.
    fn links(&self, s: u32) -> &[u32] {
        let off = self.off[s as usize] as usize;
        &self.links[off..off + self.len[s as usize] as usize]
    }

    fn n(&self, s: u32) -> usize {
        self.len[s as usize] as usize
    }

    fn link(&self, s: u32, k: usize) -> u32 {
        debug_assert!(k < self.n(s));
        self.links[self.off[s as usize] as usize + k]
    }

    fn pos(&self, s: u32, k: usize) -> u32 {
        debug_assert!(k < self.n(s));
        self.pos[self.off[s as usize] as usize + k]
    }

    fn set_pos(&mut self, s: u32, k: usize, v: u32) {
        debug_assert!(k < self.n(s));
        self.pos[self.off[s as usize] as usize + k] = v;
    }
}

/// What an in-place region solve reads of the network: capacities, the
/// CBR layer's committed load, and the adaptive incidence in both
/// directions (link → flows, flow → links).
#[derive(Clone, Copy)]
struct FabricView<'a> {
    topo: &'a Topology,
    cbr_load_bps: &'a [f64],
    link_flows: &'a LinkLists,
    slot_hops: &'a SlotHops,
}

/// Progressive filling in place over [`FlowNet`]'s incidence lists.
///
/// Per-link scratch is indexed by link id and per-flow scratch by slot,
/// so a region is solved where it lives: no staging copy, no adjacency
/// rebuild. Links and flows enter one by one ([`Filling::add_link`],
/// [`Filling::add_flow`]); the region must be closed — every adaptive
/// flow on an entered link entered too — because a link's unfrozen count
/// starts at its incidence-list length. [`Filling::solve`] then runs the
/// rounds and leaves each flow's rate in `rate[slot]` and each link's
/// committed load in the caller's `load[link]`. [`Filling::solve_component`]
/// does all three for one connected component.
///
/// The arithmetic is the reference allocator's: each round takes the
/// minimum equal-split share over the links still carrying unfrozen
/// flows, freezes every flow crossing a link within the tie tolerance
/// (`min·1e-9 + 1e-6`) of it, and charges the share to each of the
/// flow's links. Every flow frozen in a round subtracts the same share,
/// so each link sees the same operation sequence whatever order the
/// round walks its links and flows in: the result does not depend on
/// that order, bit for bit.
#[derive(Default)]
struct Filling {
    /// Capacity left per link once the flows frozen so far are charged.
    residual: Vec<f64>,
    /// Unfrozen flows per link.
    count: Vec<u32>,
    /// `residual / count` per live link as of the last round;
    /// [`TOUCHED`] once the current round changed the link.
    share: Vec<f64>,
    /// Rate per slot: [`UNFROZEN`] until the flow freezes.
    rate: Vec<f64>,
    /// Entered links that still carry an unfrozen flow, compacted after
    /// every round: the rounds' scans shrink as links saturate.
    live: Vec<u32>,
    saturated: Vec<u32>,
    touched: Vec<u32>,
    n_unfrozen: usize,
}

/// `Filling::rate` of a flow that has not frozen yet (rates are ≥ 0).
const UNFROZEN: f64 = -1.0;
/// `Filling::share` of a link the current round changed (shares are ≥ 0
/// or `∞`); the share is divided once, when the round ends.
const TOUCHED: f64 = -1.0;

impl Filling {
    /// Scratch for `n_links` links; per-slot scratch grows with the slot
    /// table ([`Filling::fit_slots`]).
    fn new(n_links: usize) -> Self {
        Filling {
            residual: vec![0.0; n_links],
            count: vec![0; n_links],
            share: vec![f64::INFINITY; n_links],
            ..Filling::default()
        }
    }

    fn fit_slots(&mut self, n_slots: usize) {
        if self.rate.len() < n_slots {
            self.rate.resize(n_slots, 0.0);
        }
    }

    /// Enter link `l`: its CBR load is pre-committed to `load[l]` and the
    /// rest of its capacity is split among its adaptive flows.
    fn add_link(&mut self, net: FabricView<'_>, l: u32, load: &mut [f64]) {
        let li = l as usize;
        let pre = net.cbr_load_bps[li];
        load[li] = pre;
        let residual = (net.topo.link(LinkId(l)).capacity_bps - pre).max(0.0);
        let n = net.link_flows.len[li];
        self.residual[li] = residual;
        self.count[li] = n;
        if n > 0 {
            self.share[li] = residual / n as f64;
            self.live.push(l);
        }
    }

    fn add_flow(&mut self, slot: u32) {
        self.rate[slot as usize] = UNFROZEN;
        self.n_unfrozen += 1;
    }

    /// Run the filling rounds over everything entered since the last
    /// solve.
    fn solve(&mut self, net: FabricView<'_>, load: &mut [f64]) {
        let Filling {
            residual,
            count,
            share,
            rate,
            live,
            saturated,
            touched,
            n_unfrozen,
        } = self;
        while *n_unfrozen > 0 {
            let mut min_share = f64::INFINITY;
            for &l in live.iter() {
                min_share = min_share.min(share[l as usize]);
            }
            debug_assert!(min_share.is_finite());
            let cutoff = min_share + (min_share * 1e-9 + 1e-6);
            saturated.clear();
            saturated.extend(live.iter().filter(|&&l| share[l as usize] <= cutoff));
            let before = *n_unfrozen;
            for &l in saturated.iter() {
                for e in net.link_flows.list(l as usize) {
                    let r = &mut rate[e.slot as usize];
                    if *r != UNFROZEN {
                        continue;
                    }
                    *r = min_share;
                    *n_unfrozen -= 1;
                    for &l2 in net.slot_hops.links(e.slot) {
                        let l2 = l2 as usize;
                        residual[l2] = (residual[l2] - min_share).max(0.0);
                        count[l2] -= 1;
                        load[l2] += min_share;
                        if share[l2] != TOUCHED {
                            share[l2] = TOUCHED;
                            touched.push(l2 as u32);
                        }
                    }
                }
            }
            // Progress guarantee: min_share came from a live link, and all
            // of that link's flows freeze when it saturates.
            assert!(
                *n_unfrozen < before,
                "progressive filling failed to make progress"
            );
            for &l in touched.iter() {
                let l = l as usize;
                share[l] = if count[l] > 0 {
                    residual[l] / count[l] as f64
                } else {
                    f64::INFINITY
                };
            }
            touched.clear();
            live.retain(|&l| count[l as usize] > 0);
        }
        // In a closed region every live link carries an unfrozen flow.
        debug_assert!(live.is_empty());
    }

    /// Enter and solve one closed component.
    fn solve_component(
        &mut self,
        net: FabricView<'_>,
        links: &[u32],
        slots: &[u32],
        load: &mut [f64],
    ) {
        for &l in links {
            self.add_link(net, l, load);
        }
        for &slot in slots {
            self.add_flow(slot);
        }
        self.solve(net, load);
    }
}

/// Monotone work counters of the incremental rate engine — evidence for
/// per-event complexity budgets (how much of the network each recompute
/// and advance actually touched).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Recomputes that had dirty links to solve.
    pub recomputes: u64,
    /// Links pulled into dirty regions, summed over all recomputes.
    pub region_links: u64,
    /// Flows pulled into dirty regions, summed over all recomputes.
    pub region_flows: u64,
    /// Flows folded by `advance_to` (due completion projections).
    pub advance_flow_steps: u64,
    /// Completion-heap entries pushed.
    pub heap_pushes: u64,
    /// Eager completion-heap compactions.
    pub heap_compactions: u64,
    /// CBR flow rate refreshes performed by the layered background pass.
    pub cbr_flow_updates: u64,
    /// Connected components solved, summed over all recomputes.
    pub components: u64,
}

/// The live network. See module docs for the driving contract.
pub struct FlowNet {
    topo: Topology,
    /// Flow id → slot; iterated for the id-ordered public views.
    index: BTreeMap<FlowId, u32>,
    slots: Vec<Option<FlowSlot>>,
    free_slots: Vec<u32>,
    next_id: u64,
    now: SimTime,
    /// Bumped on every rate recomputation; lets engines detect stale
    /// completion projections.
    epoch: u64,
    /// Committed rate per link as of the last recompute (bits/sec).
    link_load_bps: Vec<f64>,
    /// Cumulative bytes sourced per node since the start of the run —
    /// exactly what a NetFlow exporter on the host would report.
    cum_tx_bytes: Vec<f64>,
    rates_dirty: bool,

    // --- incremental rate engine ---
    /// Links whose allocation inputs changed since the last recompute.
    dirty_links: Vec<u32>,
    link_dirty: Vec<bool>,
    /// Per-link incidence lists of the *adaptive* flows consuming it.
    /// CBR (background) flows live in `link_cbr_flows`: region discovery
    /// walks only adaptive incidence, and the CBR layer only CBR
    /// incidence, so neither pays to skip the other's entries.
    link_flows: LinkLists,
    /// Per-link incidence lists of the CBR flows crossing it.
    link_cbr_flows: LinkLists,
    /// Per-slot interned path links and incidence positions.
    slot_hops: SlotHops,
    /// Aggregate requested CBR rate per link, maintained incrementally so
    /// background-traffic redraws never re-derive it from the flow set.
    cbr_requested_bps: Vec<f64>,
    /// Region solver scratch (sequential component solves).
    fill: Filling,

    // --- layered CBR (background) solve ---
    /// Links whose CBR inputs (capacity or requested aggregate) changed.
    cbr_dirty_links: Vec<u32>,
    cbr_link_dirty: Vec<bool>,
    /// CBR share clamp per link (≤ 1.0), refreshed lazily.
    cbr_scale: Vec<f64>,
    /// Post-clamp committed CBR rate per link — the adaptive solve's
    /// pre-committed load.
    cbr_load_bps: Vec<f64>,
    /// Scratch: CBR slots touched by the current layer refresh.
    cbr_touched: Vec<u32>,
    cbr_touched_mark: Vec<bool>,
    /// Scratch: links whose committed CBR load must be re-summed.
    cbr_stale_loads: Vec<u32>,
    cbr_load_stale: Vec<bool>,
    /// Nodes whose sourced bytes are observable; `None` ⇒ all of them.
    metered_nodes: Option<Vec<bool>>,
    // Region-discovery scratch (cleared after each recompute).
    link_in_region: Vec<bool>,
    flow_in_region: Vec<bool>,
    region_links: Vec<u32>,
    region_slots: Vec<u32>,

    // --- completion tracking ---
    /// Lazy-deletion min-heap of projected completions:
    /// `(time, flow id, rate_epoch at projection, slot)`. An entry is
    /// live while `slots[slot]` still holds that flow at that epoch.
    heap: BinaryHeap<Reverse<(SimTime, u64, u64, u32)>>,
    /// Reusable output buffers of [`FlowNet::advance_to`].
    advance_completed_slots: Vec<u32>,
    advance_completed: Vec<FlowId>,
    stats: NetStats,

    // --- lazy byte integration and component solves ---
    /// Worker threads for component solves (≥ 1; 1 ⇒ always sequential).
    solver_workers: usize,
    /// Per-worker filling scratch and link loads, kept across recomputes.
    worker_fill: Vec<(Filling, Vec<f64>)>,
    /// Per-node lazy rate sum of metered flows sourced there (bits/sec).
    /// `cum_tx_bytes[n]` holds the *committed* bytes as of `node_since[n]`;
    /// the live counter is `committed + rate_sum · (now − since) / 8`.
    node_rate_bps: Vec<f64>,
    node_since: Vec<SimTime>,
    /// Component boundaries as exclusive prefix ends into
    /// (`region_links`, `region_slots`), one entry per component.
    comp_bounds: Vec<(u32, u32)>,
    /// Canonical write-back order: (flow id, slot).
    canon: Vec<(u64, u32)>,
}

/// Components smaller than this (in flows, summed over the whole region)
/// are never worth a thread spawn; solve sequentially.
const PAR_FLOWS_CUTOFF: usize = 256;

impl FlowNet {
    /// An empty network over `topo`, at time zero.
    pub fn new(topo: Topology) -> Self {
        let n_links = topo.num_links();
        let n_nodes = topo.num_nodes();
        FlowNet {
            topo,
            index: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
            epoch: 0,
            link_load_bps: vec![0.0; n_links],
            cum_tx_bytes: vec![0.0; n_nodes],
            rates_dirty: false,
            dirty_links: Vec::new(),
            link_dirty: vec![false; n_links],
            link_flows: LinkLists::new(n_links),
            link_cbr_flows: LinkLists::new(n_links),
            slot_hops: SlotHops::new(),
            cbr_requested_bps: vec![0.0; n_links],
            fill: Filling::new(n_links),
            cbr_dirty_links: Vec::new(),
            cbr_link_dirty: vec![false; n_links],
            cbr_scale: vec![1.0; n_links],
            cbr_load_bps: vec![0.0; n_links],
            cbr_touched: Vec::new(),
            cbr_touched_mark: Vec::new(),
            cbr_stale_loads: Vec::new(),
            cbr_load_stale: vec![false; n_links],
            metered_nodes: None,
            link_in_region: vec![false; n_links],
            flow_in_region: Vec::new(),
            region_links: Vec::new(),
            region_slots: Vec::new(),
            heap: BinaryHeap::new(),
            advance_completed_slots: Vec::new(),
            advance_completed: Vec::new(),
            stats: NetStats::default(),
            solver_workers: 1,
            worker_fill: Vec::new(),
            node_rate_bps: vec![0.0; n_nodes],
            node_since: vec![SimTime::ZERO; n_nodes],
            comp_bounds: Vec::new(),
            canon: Vec::new(),
        }
    }

    /// Worker threads for component solves. Results are
    /// bitwise identical for any count (canonical write-back order);
    /// `1` keeps every solve on the calling thread.
    pub fn set_solver_workers(&mut self, n: usize) {
        self.solver_workers = n.max(1);
    }

    /// Restrict byte metering to flows sourced at `nodes` (bounded flows
    /// are always metered — completion detection needs their bytes).
    ///
    /// Unmetered flows still get fair-share rates and consume capacity,
    /// but are never integrated: their `transferred_bytes` stay zero and
    /// their source's [`FlowNet::cum_tx_bytes`] counter never moves. Call
    /// this when only some sources are observed (e.g. NetFlow probes on
    /// servers while unbounded background streams load switch-to-switch
    /// trunks) so rate changes on unobserved flows fold nothing.
    ///
    /// # Panics
    /// Panics if any flow was already started.
    pub fn meter_sources_only(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        assert!(
            self.index.is_empty(),
            "meter_sources_only must be called before flows start"
        );
        let mut metered = vec![false; self.topo.num_nodes()];
        for n in nodes {
            metered[n.0 as usize] = true;
        }
        self.metered_nodes = Some(metered);
    }

    /// Monotone work counters of the incremental engine.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// This network's topology view (capacities reflect degradations).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The instant byte counters are integrated up to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Rate-recompute epoch; changes whenever rates may have changed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of flows in the network (including completed-not-removed).
    pub fn num_active_flows(&self) -> usize {
        self.index.len()
    }

    fn slot(&self, slot: u32) -> &FlowSlot {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, slot: u32) -> &mut FlowSlot {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// The flow a completion-heap entry was projected for, if `slot`
    /// still holds it (slots are reused once a flow is removed) at the
    /// projected rate epoch.
    fn heap_entry_flow(&self, id: u64, epoch: u64, slot: u32) -> Option<&FlowSlot> {
        self.slots
            .get(slot as usize)?
            .as_ref()
            .filter(|st| st.id.0 == id && st.rate_epoch == epoch)
    }

    /// Look up one flow.
    pub fn flow(&self, id: FlowId) -> Option<&ActiveFlow> {
        self.index.get(&id).map(|&s| &self.slot(s).flow)
    }

    /// All flows, in id order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &ActiveFlow)> {
        self.index.iter().map(|(&id, &s)| (id, &self.slot(s).flow))
    }

    // --- fold discipline -------------------------------------------------
    //
    // Every metered flow's bytes are a piecewise-linear function of time:
    // constant rate since the last fold. The same holds per source node
    // for the sum over its flows. The invariants:
    //
    //  * fold_node(src, t) must run before any change to the rate sum at
    //    `src` and before fold_slot of a flow sourced there;
    //  * a flow's rate only changes through apply_rate (which folds
    //    first), so `rate · (t − since)` is always exact;
    //  * a bounded flow clamps at its remaining bytes; the node
    //    accumulator integrated the full rate over the interval, so the
    //    clamp excess is subtracted from the committed counter.

    /// Commit `node`'s lazy byte integral up to `t`.
    fn fold_node(&mut self, node: usize, t: SimTime) {
        let dt = t.saturating_since(self.node_since[node]).as_secs_f64();
        if dt > 0.0 {
            self.cum_tx_bytes[node] += self.node_rate_bps[node] * dt / 8.0;
        }
        self.node_since[node] = t;
    }

    /// Commit a flow's lazy byte integral up to `t`. The source node must
    /// already be folded to `t`.
    fn fold_slot(&mut self, slot: u32, t: SimTime) {
        let st = self.slots[slot as usize].as_mut().expect("live slot");
        let src = st.flow.spec.tuple.src.0 as usize;
        let dt = t.saturating_since(st.since).as_secs_f64();
        st.since = t;
        if !st.metered || st.flow.rate_bps <= 0.0 || dt <= 0.0 {
            return;
        }
        let raw = st.flow.rate_bps * dt / 8.0;
        let moved = match &mut st.flow.remaining_bytes {
            Some(rem) if *rem <= 0.0 => 0.0,
            Some(rem) => {
                let m = raw.min(*rem);
                *rem -= m;
                if *rem <= 0.0 {
                    *rem = 0.0;
                }
                m
            }
            None => raw,
        };
        st.flow.transferred_bytes += moved;
        let excess = raw - moved;
        if excess > 0.0 {
            // The node integral counted the full rate over the interval;
            // take the clamped part back out.
            self.cum_tx_bytes[src] -= excess;
        }
    }

    /// Rate assignment: fold the flow (and its source's accumulator) to
    /// `now`, set the rate, maintain the node rate sum, bump the epoch,
    /// and (re)project completion. Link loads are *not* touched — each
    /// caller settles them (the solve write-back installs workspace loads
    /// wholesale; mutators adjust incrementally).
    fn apply_rate(&mut self, slot: u32, rate: f64) {
        let now = self.now;
        let (src, metered, old) = {
            let st = self.slot(slot);
            (
                st.flow.spec.tuple.src.0 as usize,
                st.metered,
                st.flow.rate_bps,
            )
        };
        if metered {
            self.fold_node(src, now);
        }
        self.fold_slot(slot, now);
        if metered {
            self.node_rate_bps[src] = (self.node_rate_bps[src] - old + rate).max(0.0);
        }
        let st = self.slots[slot as usize].as_mut().expect("live slot");
        st.flow.rate_bps = rate;
        st.rate_epoch += 1;
        let entry = match st.flow.remaining_bytes {
            Some(rem) if rem > 0.0 && rate > 0.0 => {
                // Saturating: a provisional admission onto a degraded
                // (1 bps) link projects past the representable horizon.
                let d = SimDuration::for_bytes_at_rate(rem.ceil() as u64, rate);
                Some((now.saturating_add(d), st.id.0, st.rate_epoch, slot))
            }
            Some(rem) if rem <= 0.0 => {
                // Drained at the fold (ceil projections run a hair long):
                // leave an immediate entry so the next advance reaps it.
                Some((now, st.id.0, st.rate_epoch, slot))
            }
            _ => None,
        };
        if let Some(e) = entry {
            self.stats.heap_pushes += 1;
            self.heap.push(Reverse(e));
        }
    }

    /// Move the clock to `t` and return the bounded flows that reached
    /// zero remaining bytes by then (they stay in the network until
    /// [`FlowNet::remove_flow`]). No per-flow integration: every
    /// completion projection due by `t` is popped and just those flows are
    /// folded; the rare byte-ceil undershoot is re-projected strictly
    /// later. The returned slice lives in a buffer reused across calls —
    /// copy it out before advancing again.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> &[FlowId] {
        assert!(t >= self.now, "advance_to({t}) before now ({})", self.now);
        let mut completed_slots = std::mem::take(&mut self.advance_completed_slots);
        completed_slots.clear();
        self.now = t;
        while let Some(&Reverse((pt, id, fe, slot))) = self.heap.peek() {
            if pt > t {
                break;
            }
            self.heap.pop();
            let Some(st) = self.heap_entry_flow(id, fe, slot) else {
                continue;
            };
            let (src, metered) = (st.flow.spec.tuple.src.0 as usize, st.metered);
            self.stats.advance_flow_steps += 1;
            if metered {
                self.fold_node(src, t);
            }
            self.fold_slot(slot, t);
            let st = self.slot(slot);
            match st.flow.remaining_bytes {
                Some(rem) if rem <= 0.0 => completed_slots.push(slot),
                Some(rem) if st.flow.rate_bps > 0.0 => {
                    // Undershoot: the ceil projection rounded long and an
                    // earlier advance folded past part of the interval.
                    let d = SimDuration::for_bytes_at_rate(rem.ceil() as u64, st.flow.rate_bps);
                    self.stats.heap_pushes += 1;
                    self.heap.push(Reverse((t.saturating_add(d), id, fe, slot)));
                }
                _ => {}
            }
        }
        let mut completed = std::mem::take(&mut self.advance_completed);
        completed.clear();
        for &slot in &completed_slots {
            completed.push(self.slot(slot).id);
        }
        for &slot in &completed_slots {
            self.on_flow_completed(slot);
        }
        completed.sort_unstable();
        self.advance_completed_slots = completed_slots;
        self.advance_completed = completed;
        &self.advance_completed
    }

    /// The flows currently riding `link` (live, linked flows only; each
    /// appears once), in incidence-list order. A reverse index for
    /// fault handlers: collect, sort, and you have every flow a link
    /// event can possibly touch without scanning the whole flow table.
    pub fn flows_on_link(&self, link: LinkId) -> impl Iterator<Item = FlowId> + '_ {
        self.link_flows
            .list(link.0 as usize)
            .iter()
            .chain(self.link_cbr_flows.list(link.0 as usize))
            .map(move |e| self.slot(e.slot).id)
    }

    /// A flow just drained its byte budget: it stops consuming bandwidth
    /// immediately and frees its share for the next recompute.
    fn on_flow_completed(&mut self, slot: u32) {
        // The flow is already folded (completion came from a fold); retire
        // its rate from the lazy node sum and the link loads.
        let (rate, src, metered) = {
            let st = self.slot(slot);
            (
                st.flow.rate_bps,
                st.flow.spec.tuple.src.0 as usize,
                st.metered,
            )
        };
        if rate > 0.0 {
            if metered {
                self.fold_node(src, self.now);
                self.node_rate_bps[src] = (self.node_rate_bps[src] - rate).max(0.0);
            }
            for k in 0..self.slot_hops.n(slot) {
                let l = self.slot_hops.link(slot, k) as usize;
                self.link_load_bps[l] = (self.link_load_bps[l] - rate).max(0.0);
            }
        }
        self.mark_flow_links_dirty(slot);
        self.unlink_flow(slot);
        let st = self.slot_mut(slot);
        st.flow.rate_bps = 0.0;
        st.rate_epoch += 1;
    }

    /// Inject a flow on `path`. The path must match the spec's endpoints.
    /// An adaptive flow starts at a provisional rate (its path's residual
    /// capacity) until the next [`FlowNet::recompute`] levels it.
    pub fn start_flow(&mut self, spec: FlowSpec, path: Path) -> FlowId {
        assert_eq!(path.src(), spec.tuple.src, "path/spec source mismatch");
        assert_eq!(path.dst(), spec.tuple.dst, "path/spec destination mismatch");
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let metered = spec.size_bytes.is_some()
            || self
                .metered_nodes
                .as_ref()
                .is_none_or(|m| m[spec.tuple.src.0 as usize]);
        let flow = ActiveFlow {
            remaining_bytes: spec.size_bytes.map(|b| b as f64),
            transferred_bytes: 0.0,
            rate_bps: 0.0,
            started_at: self.now,
            spec,
            path,
        };
        let complete = flow.is_complete();
        let slot = self.alloc_slot(FlowSlot {
            id,
            flow,
            linked: false,
            metered,
            rate_epoch: 0,
            since: self.now,
        });
        let st = self.slots[slot as usize].as_ref().expect("live slot");
        let adaptive = matches!(st.flow.spec.kind, FlowKind::Adaptive);
        self.slot_hops.set(slot as usize, st.flow.path.links());
        self.index.insert(id, slot);
        if !complete {
            self.link_flow(slot);
            self.mark_flow_links_dirty(slot);
            if adaptive {
                // Provisional admission at the path's residual capacity:
                // keeps every link feasible and every flow progressing
                // between deferred solves; the next solve levels it to
                // the fair share. (CBR rates come from the CBR layer.)
                let mut r0 = f64::INFINITY;
                for k in 0..self.slot_hops.n(slot) {
                    let l = self.slot_hops.link(slot, k) as usize;
                    let cap = self.topo.link(LinkId(l as u32)).capacity_bps;
                    r0 = r0.min((cap - self.link_load_bps[l]).max(0.0));
                }
                if !r0.is_finite() {
                    r0 = 0.0;
                }
                if r0 > 0.0 {
                    for k in 0..self.slot_hops.n(slot) {
                        let l = self.slot_hops.link(slot, k) as usize;
                        self.link_load_bps[l] += r0;
                    }
                }
                self.apply_rate(slot, r0);
            }
        }
        self.rates_dirty = true;
        id
    }

    /// Move a live flow onto a new path (SDN re-route). Bytes already
    /// transferred are kept, and so is the rate until the next
    /// [`FlowNet::recompute`].
    pub fn reroute_flow(&mut self, id: FlowId, path: Path) {
        let slot = *self.index.get(&id).expect("reroute of unknown flow");
        {
            let st = self.slot(slot);
            assert_eq!(
                path.src(),
                st.flow.spec.tuple.src,
                "path/spec source mismatch"
            );
            assert_eq!(
                path.dst(),
                st.flow.spec.tuple.dst,
                "path/spec destination mismatch"
            );
        }
        let rate = self.slot(slot).flow.rate_bps;
        if self.slot(slot).linked {
            self.mark_flow_links_dirty(slot);
            if rate > 0.0 {
                // The flow keeps its rate across the move (the next solve
                // re-levels it); shift its committed load to the new path.
                for k in 0..self.slot_hops.n(slot) {
                    let l = self.slot_hops.link(slot, k) as usize;
                    self.link_load_bps[l] = (self.link_load_bps[l] - rate).max(0.0);
                }
            }
            self.unlink_flow(slot);
        }
        self.slot_hops.set(slot as usize, path.links());
        let complete = {
            let st = self.slot_mut(slot);
            st.flow.path = path;
            st.flow.is_complete()
        };
        if !complete {
            self.link_flow(slot);
            self.mark_flow_links_dirty(slot);
            if rate > 0.0 {
                for k in 0..self.slot_hops.n(slot) {
                    let l = self.slot_hops.link(slot, k) as usize;
                    self.link_load_bps[l] += rate;
                }
            }
        }
        self.rates_dirty = true;
    }

    /// Degrade or restore a link in this network's topology view (cable
    /// fault model). Rates become stale.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        self.topo.set_link_capacity(link, capacity_bps);
        // Capacity feeds both layers: the CBR clamp and the adaptive solve.
        self.mark_link_cbr_dirty(link.0);
        self.mark_link_dirty(link.0);
        self.rates_dirty = true;
    }

    /// Change the requested rate of a CBR flow (time-varying background
    /// traffic). Rates become stale.
    ///
    /// # Panics
    /// Panics if the flow is not CBR.
    pub fn set_cbr_rate(&mut self, id: FlowId, rate_bps: f64) {
        assert!(rate_bps.is_finite() && rate_bps >= 0.0);
        let slot = *self.index.get(&id).expect("set_cbr_rate: unknown flow");
        let st = self.slot_mut(slot);
        let new = rate_bps.max(1.0);
        let old = match &mut st.flow.spec.kind {
            FlowKind::Cbr { rate_bps: r } => std::mem::replace(r, new),
            FlowKind::Adaptive => panic!("set_cbr_rate on adaptive flow"),
        };
        if st.linked {
            for k in 0..self.slot_hops.n(slot) {
                let l = self.slot_hops.link(slot, k);
                let agg = &mut self.cbr_requested_bps[l as usize];
                *agg = (*agg - old + new).max(0.0);
                self.mark_link_cbr_dirty(l);
            }
        }
        self.rates_dirty = true;
    }

    /// Remove a flow (completed or aborted) and return its accounting.
    pub fn remove_flow(&mut self, id: FlowId) -> FlowReport {
        let slot = self.index.remove(&id).expect("remove of unknown flow");
        // Settle lazy accounting so the report is exact as of now, and
        // retire an aborted flow's rate (completed flows are already at
        // rate zero and unlinked).
        let (rate, src, metered, linked) = {
            let st = self.slot(slot);
            (
                st.flow.rate_bps,
                st.flow.spec.tuple.src.0 as usize,
                st.metered,
                st.linked,
            )
        };
        if metered {
            self.fold_node(src, self.now);
        }
        self.fold_slot(slot, self.now);
        if rate > 0.0 {
            if metered {
                self.node_rate_bps[src] = (self.node_rate_bps[src] - rate).max(0.0);
            }
            if linked {
                for k in 0..self.slot_hops.n(slot) {
                    let l = self.slot_hops.link(slot, k) as usize;
                    self.link_load_bps[l] = (self.link_load_bps[l] - rate).max(0.0);
                }
            }
        }
        if linked {
            self.mark_flow_links_dirty(slot);
            self.unlink_flow(slot);
        }
        let st = self.slots[slot as usize].take().expect("live slot");
        self.free_slots.push(slot);
        self.rates_dirty = true;
        FlowReport {
            id,
            spec: st.flow.spec,
            path: st.flow.path,
            transferred_bytes: st.flow.transferred_bytes,
            started_at: st.flow.started_at,
            ended_at: self.now,
        }
    }

    /// Refresh the CBR (background) layer: per-link clamp scales, per-flow
    /// clamped rates, and the per-link committed CBR load the adaptive
    /// solve pre-commits. Runs only over links whose CBR inputs changed
    /// and the CBR flows crossing them; every refreshed link is handed to
    /// the adaptive layer as dirty (its residual may have moved).
    ///
    /// The arithmetic — `scale = min(1, limit·cap / requested)` per link,
    /// `rate = requested · min(scale over links)` per flow — is exactly
    /// the reference allocator's pass 1, so solving this layer separately
    /// reproduces the joint solve bit for bit when links don't share
    /// multi-link CBR flows (the background model uses one single-trunk
    /// flow per link), and to a few ULPs otherwise.
    fn recompute_cbr_layer(&mut self) {
        if self.cbr_dirty_links.is_empty() {
            return;
        }
        if self.cbr_touched_mark.len() < self.slots.len() {
            self.cbr_touched_mark.resize(self.slots.len(), false);
        }
        // Phase 1: refresh clamp scales on dirty links; collect the CBR
        // flows crossing them.
        let mut dirty = std::mem::take(&mut self.cbr_dirty_links);
        for &l in &dirty {
            let li = l as usize;
            self.cbr_link_dirty[li] = false;
            let cap = CBR_SHARE_LIMIT * self.topo.link(LinkId(l)).capacity_bps;
            let req = self.cbr_requested_bps[li];
            self.cbr_scale[li] = if req > cap { cap / req } else { 1.0 };
            self.mark_link_dirty(l);
            if !self.cbr_load_stale[li] {
                self.cbr_load_stale[li] = true;
                self.cbr_stale_loads.push(l);
            }
            for ei in 0..self.link_cbr_flows.len[li] as usize {
                let e = self.link_cbr_flows.get(li, ei);
                if !self.cbr_touched_mark[e.slot as usize] {
                    self.cbr_touched_mark[e.slot as usize] = true;
                    self.cbr_touched.push(e.slot);
                }
            }
        }
        dirty.clear();
        self.cbr_dirty_links = dirty;

        // Phase 2: re-clamp every touched flow (all scales are fresh by
        // now) and propagate: its links feed the adaptive layer and need
        // their committed CBR load re-summed.
        let touched = std::mem::take(&mut self.cbr_touched);
        for &slot in &touched {
            self.cbr_touched_mark[slot as usize] = false;
            let st = self.slots[slot as usize].as_mut().expect("live slot");
            let r = match st.flow.spec.kind {
                FlowKind::Cbr { rate_bps } => rate_bps,
                FlowKind::Adaptive => unreachable!("adaptive flow in CBR layer"),
            };
            let mut k = 1.0f64;
            for &l in self.slot_hops.links(slot) {
                k = k.min(self.cbr_scale[l as usize]);
                if !self.link_dirty[l as usize] {
                    self.link_dirty[l as usize] = true;
                    self.dirty_links.push(l);
                }
                if !self.cbr_load_stale[l as usize] {
                    self.cbr_load_stale[l as usize] = true;
                    self.cbr_stale_loads.push(l);
                }
            }
            let rate = r * k;
            self.stats.cbr_flow_updates += 1;
            if rate != self.slot(slot).flow.rate_bps {
                self.apply_rate(slot, rate);
            }
        }
        let mut touched = touched;
        touched.clear();
        self.cbr_touched = touched;

        // Phase 3: re-sum committed CBR load on every stale link, walking
        // its incidence list in order (deterministic summation).
        let stale = std::mem::take(&mut self.cbr_stale_loads);
        for &l in &stale {
            self.cbr_load_stale[l as usize] = false;
            let mut sum = 0.0;
            for e in self.link_cbr_flows.list(l as usize) {
                sum += self.slots[e.slot as usize]
                    .as_ref()
                    .expect("live slot")
                    .flow
                    .rate_bps;
            }
            self.cbr_load_bps[l as usize] = sum;
        }
        let mut stale = stale;
        stale.clear();
        self.cbr_stale_loads = stale;
    }

    /// Recompute max-min fair rates for every flow sharing a component of
    /// the flow–link graph with a dirtied link. With no dirty links this
    /// is O(1) (rates cannot have changed).
    ///
    /// The dirty set is split into its connected components, each solved
    /// independently (on scoped worker threads when the region is big
    /// enough), and rates are written back in canonical flow-id order, so
    /// the result is bitwise identical for any worker count and any
    /// discovery order.
    pub fn recompute(&mut self) {
        self.epoch += 1;
        self.rates_dirty = false;
        self.recompute_cbr_layer();
        if self.dirty_links.is_empty() {
            return;
        }
        // --- Component discovery: one BFS per still-unvisited dirty seed.
        // Each BFS exhausts exactly one connected component of the
        // flow–link sharing graph, laid out contiguously in the region
        // buffers with its exclusive end recorded in `comp_bounds`.
        self.region_links.clear();
        self.region_slots.clear();
        self.comp_bounds.clear();
        let dirty = std::mem::take(&mut self.dirty_links);
        for &l in &dirty {
            self.link_dirty[l as usize] = false;
        }
        for &seed in &dirty {
            if self.link_in_region[seed as usize] {
                continue;
            }
            let mut qi = self.region_links.len();
            self.link_in_region[seed as usize] = true;
            self.region_links.push(seed);
            while qi < self.region_links.len() {
                let l = self.region_links[qi] as usize;
                qi += 1;
                for ei in 0..self.link_flows.len[l] as usize {
                    let slot = self.link_flows.get(l, ei).slot;
                    if self.flow_in_region[slot as usize] {
                        continue;
                    }
                    self.flow_in_region[slot as usize] = true;
                    self.region_slots.push(slot);
                    for &l2 in self.slot_hops.links(slot) {
                        if !self.link_in_region[l2 as usize] {
                            self.link_in_region[l2 as usize] = true;
                            self.region_links.push(l2);
                        }
                    }
                }
            }
            self.comp_bounds.push((
                self.region_links.len() as u32,
                self.region_slots.len() as u32,
            ));
        }
        let mut dirty = dirty;
        dirty.clear();
        self.dirty_links = dirty;

        self.stats.recomputes += 1;
        self.stats.region_links += self.region_links.len() as u64;
        self.stats.region_flows += self.region_slots.len() as u64;
        self.stats.components += self.comp_bounds.len() as u64;

        // Every component is solved on its own: a joint solve would let
        // one component's bottleneck share set another's tie tolerance.
        self.fill.fit_slots(self.slots.len());
        let n_workers = self.solver_workers.min(self.comp_bounds.len());
        if n_workers > 1 && self.region_slots.len() >= PAR_FLOWS_CUTOFF {
            self.solve_components_parallel(n_workers);
        } else {
            let fabric = FabricView {
                topo: &self.topo,
                cbr_load_bps: &self.cbr_load_bps,
                link_flows: &self.link_flows,
                slot_hops: &self.slot_hops,
            };
            let (mut pl, mut ps) = (0usize, 0usize);
            for &(le, se) in &self.comp_bounds {
                let (le, se) = (le as usize, se as usize);
                self.fill.solve_component(
                    fabric,
                    &self.region_links[pl..le],
                    &self.region_slots[ps..se],
                    &mut self.link_load_bps,
                );
                pl = le;
                ps = se;
            }
        }

        // --- Canonical write-back: flow-id order, independent of both
        // component discovery order and worker layout (the node rate sums
        // are floating-point accumulations, so the fold order must be
        // pinned for run-to-run determinism).
        self.canon.clear();
        for &slot in &self.region_slots {
            self.canon.push((self.slot(slot).id.0, slot));
        }
        self.canon.sort_unstable();
        let canon = std::mem::take(&mut self.canon);
        for &(_, slot) in &canon {
            let rate = self.fill.rate[slot as usize];
            if rate != self.slot(slot).flow.rate_bps {
                self.apply_rate(slot, rate);
            }
        }
        self.canon = canon;

        // --- Reset region marks for the next recompute.
        for &l in &self.region_links {
            self.link_in_region[l as usize] = false;
        }
        for &slot in &self.region_slots {
            self.flow_in_region[slot as usize] = false;
        }

        #[cfg(debug_assertions)]
        self.assert_matches_reference();
    }

    /// Solve the discovered components on scoped worker threads: a greedy
    /// contiguous partition balanced by flow count, each worker filling in
    /// its own scratch, then rates and loads merged into `fill.rate` and
    /// `link_load_bps` on the calling thread.
    fn solve_components_parallel(&mut self, n_workers: usize) {
        if self.worker_fill.len() < n_workers {
            let n_links = self.topo.num_links();
            self.worker_fill
                .resize_with(n_workers, || (Filling::new(n_links), vec![0.0; n_links]));
        }
        let total = self.region_slots.len();
        let target = total.div_ceil(n_workers).max(1);
        // Each worker's share of the region: a run of whole components,
        // given by the exclusive end of its run in `comp_bounds`.
        let mut parts: Vec<usize> = Vec::with_capacity(n_workers);
        {
            let mut flows_base = 0u32;
            for (ci, &(_, se)) in self.comp_bounds.iter().enumerate() {
                if (se - flows_base) as usize >= target || ci + 1 == self.comp_bounds.len() {
                    parts.push(ci + 1);
                    flows_base = se;
                }
            }
        }
        let fabric = FabricView {
            topo: &self.topo,
            cbr_load_bps: &self.cbr_load_bps,
            link_flows: &self.link_flows,
            slot_hops: &self.slot_hops,
        };
        let n_slots = self.slots.len();
        let comp_bounds: &[(u32, u32)] = &self.comp_bounds;
        let region_links: &[u32] = &self.region_links;
        let region_slots: &[u32] = &self.region_slots;
        std::thread::scope(|scope| {
            let mut c0 = 0usize;
            for ((fill, load), &c1) in self.worker_fill.iter_mut().zip(&parts) {
                let mine = &comp_bounds[c0..c1];
                let (mut pl, mut ps) = match c0 {
                    0 => (0, 0),
                    _ => (
                        comp_bounds[c0 - 1].0 as usize,
                        comp_bounds[c0 - 1].1 as usize,
                    ),
                };
                c0 = c1;
                scope.spawn(move || {
                    fill.fit_slots(n_slots);
                    for &(le, se) in mine {
                        let (le, se) = (le as usize, se as usize);
                        fill.solve_component(
                            fabric,
                            &region_links[pl..le],
                            &region_slots[ps..se],
                            load,
                        );
                        pl = le;
                        ps = se;
                    }
                });
            }
        });
        let (mut pl, mut ps) = (0usize, 0usize);
        for ((fill, load), &c1) in self.worker_fill.iter().zip(&parts) {
            let (le, se) = self.comp_bounds[c1 - 1];
            for &l in &self.region_links[pl..le as usize] {
                self.link_load_bps[l as usize] = load[l as usize];
            }
            for &slot in &self.region_slots[ps..se as usize] {
                self.fill.rate[slot as usize] = fill.rate[slot as usize];
            }
            (pl, ps) = (le as usize, se as usize);
        }
    }

    /// Recompute rates for the whole network regardless of what is dirty.
    pub fn full_recompute(&mut self) {
        for l in 0..self.topo.num_links() as u32 {
            self.mark_link_cbr_dirty(l);
            self.mark_link_dirty(l);
        }
        self.recompute();
    }

    /// Earliest projected completion among bounded, progressing flows.
    ///
    /// Pops dead heap entries (rate changed, flow completed or removed)
    /// lazily; takes `&mut self` for exactly that reason. Projections are
    /// valid under the current — possibly provisional — rates. A flow
    /// drained by a fold outside [`FlowNet::advance_to`] keeps an
    /// immediate entry (returned clamped to `now` so the driver reaps it
    /// on its next advance), and a stale byte-ceil projection folds the
    /// flow before re-projecting.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        if self.heap.len() > 64 && self.heap.len() > 4 * self.index.len() {
            self.compact_heap();
        }
        while let Some(&Reverse((t, id, fe, slot))) = self.heap.peek() {
            let fid = FlowId(id);
            let Some((rem, rate, src, metered)) =
                self.heap_entry_flow(id, fe, slot).and_then(|st| {
                    let src = st.flow.spec.tuple.src.0 as usize;
                    st.flow
                        .remaining_bytes
                        .map(|rem| (rem, st.flow.rate_bps, src, st.metered))
                })
            else {
                self.heap.pop();
                continue;
            };
            if rem <= 0.0 {
                return Some((t.max(self.now), fid));
            }
            if rate <= 0.0 {
                self.heap.pop();
                continue;
            }
            if t <= self.now {
                self.heap.pop();
                if metered {
                    self.fold_node(src, self.now);
                }
                self.fold_slot(slot, self.now);
                let rem = self
                    .slot(slot)
                    .flow
                    .remaining_bytes
                    .expect("bounded flow stays bounded");
                self.stats.heap_pushes += 1;
                if rem <= 0.0 {
                    self.heap.push(Reverse((self.now, id, fe, slot)));
                    return Some((self.now, fid));
                }
                let d = SimDuration::for_bytes_at_rate(rem.ceil() as u64, rate);
                self.heap
                    .push(Reverse((self.now.saturating_add(d), id, fe, slot)));
                continue;
            }
            return Some((t, fid));
        }
        None
    }

    /// Drop dead heap entries eagerly; keeps the heap O(live flows).
    fn compact_heap(&mut self) {
        self.stats.heap_compactions += 1;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse((_, id, fe, slot))| self.heap_entry_flow(id, fe, slot).is_some());
        self.heap = BinaryHeap::from(entries);
    }

    /// Committed rate on `link` (bits/sec) as of the last recompute.
    pub fn link_load_bps(&self, link: LinkId) -> f64 {
        self.link_load_bps[link.0 as usize]
    }

    /// Load / capacity for `link`, in `[0, 1]`. A link degraded to zero
    /// capacity reports utilization 1.0 — it can carry nothing, and path
    /// scoring must treat it as saturated rather than divide by zero.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let cap = self.topo.link(link).capacity_bps;
        if cap <= 0.0 {
            return 1.0;
        }
        self.link_load_bps(link) / cap
    }

    /// Cumulative bytes sourced by `node` since the start of the run,
    /// evaluated analytically from the node's committed bytes plus its
    /// lazy rate-sum segment — reading it never forces a fold.
    pub fn cum_tx_bytes(&self, node: NodeId) -> f64 {
        let i = node.0 as usize;
        let Some(&committed) = self.cum_tx_bytes.get(i) else {
            return 0.0;
        };
        let dt = self.now.saturating_since(self.node_since[i]).as_secs_f64();
        committed + self.node_rate_bps[i] * dt / 8.0
    }

    // --- incidence-list and hot-set maintenance -------------------------

    fn alloc_slot(&mut self, st: FlowSlot) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            self.slots[s as usize] = Some(st);
            s
        } else {
            self.slots.push(Some(st));
            self.flow_in_region.push(false);
            (self.slots.len() - 1) as u32
        }
    }

    fn mark_link_dirty(&mut self, l: u32) {
        if !self.link_dirty[l as usize] {
            self.link_dirty[l as usize] = true;
            self.dirty_links.push(l);
        }
    }

    fn mark_link_cbr_dirty(&mut self, l: u32) {
        if !self.cbr_link_dirty[l as usize] {
            self.cbr_link_dirty[l as usize] = true;
            self.cbr_dirty_links.push(l);
        }
    }

    /// Mark every link of the flow dirty in the layer that owns it: CBR
    /// mutations go through the background layer (which re-dirties the
    /// links for the adaptive layer after refreshing clamps and loads),
    /// adaptive mutations straight to the region solver.
    fn mark_flow_links_dirty(&mut self, slot: u32) {
        let cbr = matches!(self.slot(slot).flow.spec.kind, FlowKind::Cbr { .. });
        for k in 0..self.slot_hops.n(slot) {
            let l = self.slot_hops.link(slot, k);
            if cbr {
                self.mark_link_cbr_dirty(l);
            } else {
                self.mark_link_dirty(l);
            }
        }
    }

    /// Add the flow to the incidence lists and CBR aggregates.
    fn link_flow(&mut self, slot: u32) {
        let st = self.slot_mut(slot);
        debug_assert!(!st.linked);
        st.linked = true;
        let cbr = match st.flow.spec.kind {
            FlowKind::Cbr { rate_bps } => rate_bps,
            FlowKind::Adaptive => -1.0,
        };
        for k in 0..self.slot_hops.n(slot) {
            let l = self.slot_hops.link(slot, k);
            let e = LinkEntry { slot, k: k as u32 };
            let pos = if cbr >= 0.0 {
                self.cbr_requested_bps[l as usize] += cbr;
                self.link_cbr_flows.push(l as usize, e)
            } else {
                self.link_flows.push(l as usize, e)
            };
            self.slot_hops.set_pos(slot, k, pos);
        }
    }

    /// Remove the flow from the incidence lists and CBR aggregates.
    fn unlink_flow(&mut self, slot: u32) {
        let st = self.slot_mut(slot);
        debug_assert!(st.linked);
        st.linked = false;
        let cbr = match st.flow.spec.kind {
            FlowKind::Cbr { rate_bps } => rate_bps,
            FlowKind::Adaptive => -1.0,
        };
        for k in 0..self.slot_hops.n(slot) {
            let l = self.slot_hops.link(slot, k);
            let pos = self.slot_hops.pos(slot, k) as usize;
            let lists = if cbr >= 0.0 {
                let agg = &mut self.cbr_requested_bps[l as usize];
                *agg = (*agg - cbr).max(0.0);
                &mut self.link_cbr_flows
            } else {
                &mut self.link_flows
            };
            if let Some(moved) = lists.swap_remove(l as usize, pos) {
                self.slot_hops
                    .set_pos(moved.slot, moved.k as usize, pos as u32);
            }
        }
    }

    // --- checkpoint / restore -------------------------------------------

    /// Serialize the complete network state into an open snapshot section.
    ///
    /// Everything observable is written verbatim — float tables are
    /// incrementally maintained accumulations, so re-deriving them would
    /// change bits — and everything order-sensitive keeps its exact order:
    /// per-link incidence lists, the free-slot stack (future slot
    /// assignment), and the completion heap as a full multiset *including
    /// dead entries* (its length gates compaction).
    ///
    /// A network with a deferred solve pending is written as it stands:
    /// provisional rates, dirty links (both layers, in marking order) and
    /// the stale-rates flag. Checkpointing therefore never forces a solve,
    /// and a run resumed from the snapshot solves exactly where the
    /// uninterrupted run would have.
    pub fn put_state(&self, w: &mut SectionWriter) {
        self.now.put(w);
        self.epoch.put(w);
        self.next_id.put(w);
        let n_links = self.topo.num_links();
        (n_links as u64).put(w);
        for l in 0..n_links {
            self.topo.link(LinkId(l as u32)).capacity_bps.put(w);
        }
        (self.slots.len() as u64).put(w);
        for st in &self.slots {
            match st {
                None => false.put(w),
                Some(st) => {
                    true.put(w);
                    st.id.put(w);
                    st.flow.spec.put(w);
                    crate::persist::put_path(w, &st.flow.path);
                    st.flow.remaining_bytes.put(w);
                    st.flow.transferred_bytes.put(w);
                    st.flow.rate_bps.put(w);
                    st.flow.started_at.put(w);
                    st.linked.put(w);
                    st.metered.put(w);
                    st.rate_epoch.put(w);
                    st.since.put(w);
                }
            }
        }
        self.free_slots.put(w);
        self.link_load_bps.put(w);
        self.cum_tx_bytes.put(w);
        self.cbr_requested_bps.put(w);
        self.cbr_scale.put(w);
        self.cbr_load_bps.put(w);
        self.metered_nodes.put(w);
        self.node_rate_bps.put(w);
        self.node_since.put(w);
        for l in 0..n_links {
            for lists in [&self.link_flows, &self.link_cbr_flows] {
                let list = lists.list(l);
                (list.len() as u64).put(w);
                for e in list {
                    e.slot.put(w);
                    e.k.put(w);
                }
            }
        }
        // The slot is a function of the flow id, so it is left out: the
        // snapshot holds `(time, id, epoch)` triples in sorted order.
        let mut heap: Vec<(SimTime, u64, u64)> = self
            .heap
            .iter()
            .map(|&Reverse((t, id, fe, _))| (t, id, fe))
            .collect();
        heap.sort_unstable();
        heap.put(w);
        self.stats.put(w);
        self.dirty_links.put(w);
        self.cbr_dirty_links.put(w);
        self.rates_dirty.put(w);
    }

    /// Rebuild a network from a section written by [`FlowNet::put_state`].
    ///
    /// `topo` is the *pristine* topology (as built from configuration);
    /// degraded capacities are restored from the snapshot on top of it.
    /// Every cross-reference in the snapshot is validated — a corrupt
    /// section yields a typed error, never a panic — and the arenas
    /// ([`LinkLists`], [`SlotHops`]) are rebuilt from the serialized
    /// logical list orders, so a re-snapshot of the result is
    /// byte-identical to the input.
    pub fn get_state(topo: Topology, r: &mut SectionReader) -> Result<FlowNet, SnapshotError> {
        let mut net = FlowNet::new(topo);
        net.now = SimTime::get(r)?;
        net.epoch = u64::get(r)?;
        net.next_id = u64::get(r)?;
        let n_links = net.topo.num_links();
        let n_nodes = net.topo.num_nodes();
        if u64::get(r)? as usize != n_links {
            return Err(r.malformed("link count does not match topology"));
        }
        for l in 0..n_links {
            let cap = f64::get(r)?;
            if !cap.is_finite() || cap < 0.0 {
                return Err(r.malformed(format!("link {l} capacity {cap} invalid")));
            }
            net.topo.set_link_capacity(LinkId(l as u32), cap);
        }
        let n_slots = u64::get(r)? as usize;
        if n_slots > r.remaining() {
            return Err(r.malformed("slot count exceeds section size"));
        }
        net.slots = Vec::with_capacity(n_slots);
        for s in 0..n_slots {
            if !bool::get(r)? {
                net.slots.push(None);
                continue;
            }
            let id = FlowId::get(r)?;
            let spec = FlowSpec::get(r)?;
            let n_hops = u64::get(r)? as usize;
            if n_hops > r.remaining() / 4 {
                return Err(r.malformed("path length exceeds section size"));
            }
            let mut links = Vec::with_capacity(n_hops);
            for _ in 0..n_hops {
                let l = u32::get(r)?;
                if l as usize >= n_links {
                    return Err(r.malformed(format!("path link {l} out of range")));
                }
                links.push(LinkId(l));
            }
            let path = Path::new(&net.topo, links)
                .map_err(|e| r.malformed(format!("flow {id} path invalid: {e:?}")))?;
            if path.src() != spec.tuple.src || path.dst() != spec.tuple.dst {
                return Err(r.malformed(format!("flow {id} path/spec endpoint mismatch")));
            }
            let flow = ActiveFlow {
                spec,
                path,
                remaining_bytes: Option::<f64>::get(r)?,
                transferred_bytes: f64::get(r)?,
                rate_bps: f64::get(r)?,
                started_at: SimTime::get(r)?,
            };
            if !flow.rate_bps.is_finite() || flow.rate_bps < 0.0 {
                return Err(r.malformed(format!("flow {id} rate {} invalid", flow.rate_bps)));
            }
            if id.0 >= net.next_id {
                return Err(r.malformed(format!("flow {id} at or past next_id")));
            }
            let st = FlowSlot {
                id,
                flow,
                linked: bool::get(r)?,
                metered: bool::get(r)?,
                rate_epoch: u64::get(r)?,
                since: SimTime::get(r)?,
            };
            if net.index.insert(id, s as u32).is_some() {
                return Err(r.malformed(format!("duplicate flow id {id}")));
            }
            net.slots.push(Some(st));
        }
        net.flow_in_region = vec![false; n_slots];
        net.free_slots = Vec::<u32>::get(r)?;
        {
            let mut seen = vec![false; n_slots];
            for &s in &net.free_slots {
                let live = net.slots.get(s as usize).map(|o| o.is_some());
                if live != Some(false) || std::mem::replace(&mut seen[s as usize], true) {
                    return Err(r.malformed("free-slot list inconsistent with slot table"));
                }
            }
            let holes = net.slots.iter().filter(|s| s.is_none()).count();
            if holes != net.free_slots.len() {
                return Err(r.malformed("slot hole not on the free list"));
            }
        }
        net.link_load_bps = Vec::<f64>::get(r)?;
        net.cum_tx_bytes = Vec::<f64>::get(r)?;
        net.cbr_requested_bps = Vec::<f64>::get(r)?;
        net.cbr_scale = Vec::<f64>::get(r)?;
        net.cbr_load_bps = Vec::<f64>::get(r)?;
        net.metered_nodes = Option::<Vec<bool>>::get(r)?;
        net.node_rate_bps = Vec::<f64>::get(r)?;
        net.node_since = Vec::<SimTime>::get(r)?;
        for (name, len, want) in [
            ("link_load_bps", net.link_load_bps.len(), n_links),
            ("cbr_requested_bps", net.cbr_requested_bps.len(), n_links),
            ("cbr_scale", net.cbr_scale.len(), n_links),
            ("cbr_load_bps", net.cbr_load_bps.len(), n_links),
            ("cum_tx_bytes", net.cum_tx_bytes.len(), n_nodes),
            ("node_rate_bps", net.node_rate_bps.len(), n_nodes),
            ("node_since", net.node_since.len(), n_nodes),
            (
                "metered_nodes",
                net.metered_nodes.as_ref().map_or(n_nodes, |m| m.len()),
                n_nodes,
            ),
        ] {
            if len != want {
                return Err(r.malformed(format!("{name} length {len}, want {want}")));
            }
        }
        for s in 0..n_slots {
            // Two-phase to appease the borrow checker: clone the hop list,
            // then intern it.
            let hops: Option<Vec<LinkId>> = net.slots[s]
                .as_ref()
                .map(|st| st.flow.path.links().to_vec());
            if let Some(hops) = hops {
                net.slot_hops.set(s, &hops);
            }
        }
        for l in 0..n_links {
            for cbr_list in [false, true] {
                let n = u64::get(r)? as usize;
                if n > r.remaining() / 8 {
                    return Err(r.malformed("incidence list exceeds section size"));
                }
                for _ in 0..n {
                    let slot = u32::get(r)?;
                    let k = u32::get(r)?;
                    let (linked, is_cbr) = net
                        .slots
                        .get(slot as usize)
                        .and_then(|o| o.as_ref())
                        .map(|st| (st.linked, matches!(st.flow.spec.kind, FlowKind::Cbr { .. })))
                        .ok_or_else(|| r.malformed("incidence entry references dead slot"))?;
                    if !linked || is_cbr != cbr_list {
                        return Err(r.malformed("incidence entry in wrong list"));
                    }
                    if k as usize >= net.slot_hops.n(slot)
                        || net.slot_hops.link(slot, k as usize) != l as u32
                    {
                        return Err(r.malformed("incidence entry does not match flow path"));
                    }
                    if net.slot_hops.pos(slot, k as usize) != NONE_U32 {
                        return Err(r.malformed("duplicate incidence entry"));
                    }
                    let e = LinkEntry { slot, k };
                    let pos = if cbr_list {
                        net.link_cbr_flows.push(l, e)
                    } else {
                        net.link_flows.push(l, e)
                    };
                    net.slot_hops.set_pos(slot, k as usize, pos);
                }
            }
        }
        for s in 0..n_slots {
            let Some(st) = &net.slots[s] else { continue };
            if !st.linked {
                continue;
            }
            for k in 0..net.slot_hops.n(s as u32) {
                if net.slot_hops.pos(s as u32, k) == NONE_U32 {
                    return Err(r.malformed("linked flow missing an incidence entry"));
                }
            }
        }
        // Entries of removed flows get no slot: they can never be live.
        let heap = Vec::<(SimTime, u64, u64)>::get(r)?;
        net.heap = heap
            .into_iter()
            .map(|(t, id, fe)| {
                let slot = net.index.get(&FlowId(id)).copied().unwrap_or(NONE_U32);
                Reverse((t, id, fe, slot))
            })
            .collect();
        net.stats = NetStats::get(r)?;
        net.dirty_links = Vec::<u32>::get(r)?;
        net.cbr_dirty_links = Vec::<u32>::get(r)?;
        for (list, marks, what) in [
            (&net.dirty_links, &mut net.link_dirty, "dirty"),
            (&net.cbr_dirty_links, &mut net.cbr_link_dirty, "CBR-dirty"),
        ] {
            for &l in list {
                match marks.get_mut(l as usize) {
                    Some(m) if !*m => *m = true,
                    Some(_) => return Err(r.malformed(format!("{what} link {l} listed twice"))),
                    None => return Err(r.malformed(format!("{what} link {l} out of range"))),
                }
            }
        }
        net.rates_dirty = bool::get(r)?;
        Ok(net)
    }

    // --- reference cross-check ------------------------------------------

    /// Solve the whole network with the retained reference allocator
    /// ([`max_min_fair`]), exactly as the pre-incremental engine did on
    /// every recompute. Kept public for differential tests and benchmarks.
    pub fn reference_allocation(&self) -> Allocation {
        let caps: Vec<f64> = (0..self.topo.num_links())
            .map(|l| self.topo.link(LinkId(l as u32)).capacity_bps)
            .collect();
        let link_lists: Vec<Vec<usize>> = self
            .flows()
            .map(|(_, f)| {
                if f.is_complete() {
                    Vec::new()
                } else {
                    f.path.links().iter().map(|l| l.0 as usize).collect()
                }
            })
            .collect();
        let flow_paths: Vec<FlowPath<'_>> = self
            .flows()
            .zip(link_lists.iter())
            .map(|((_, f), links)| FlowPath {
                links,
                cbr_rate_bps: match f.spec.kind {
                    _ if f.is_complete() => None,
                    FlowKind::Adaptive => None,
                    FlowKind::Cbr { rate_bps } => Some(rate_bps),
                },
            })
            .collect();
        max_min_fair(&caps, &flow_paths)
    }

    /// Assert that the incremental engine's rates and link loads match a
    /// from-scratch reference solve to within relative 1e-6. Runs after
    /// every recompute in debug builds; the differential test suite calls
    /// it explicitly in release.
    pub fn assert_matches_reference(&self) {
        self.assert_within_reference(1e-6);
    }

    /// [`FlowNet::assert_matches_reference`] at relative tolerance `rel`.
    fn assert_within_reference(&self, rel: f64) {
        let reference = self.reference_allocation();
        let close = |a: f64, b: f64| (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0);
        for ((id, f), &want) in self.flows().zip(reference.rates_bps.iter()) {
            assert!(
                close(f.rate_bps, want),
                "flow {id:?}: incremental rate {} vs reference {want}",
                f.rate_bps
            );
        }
        for (l, &want) in reference.link_load_bps.iter().enumerate() {
            let got = self.link_load_bps[l];
            assert!(
                close(got, want),
                "link {l}: incremental load {got} vs reference {want}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use crate::topology::{build_multi_rack, MultiRack, MultiRackParams};

    fn small() -> MultiRack {
        build_multi_rack(&MultiRackParams {
            racks: 2,
            servers_per_rack: 2,
            nic_bps: 1e9,
            trunk_count: 2,
            trunk_bps: 1e9,
        })
    }

    fn cross_rack_path(mr: &MultiRack, s: usize, d: usize, trunk: usize) -> Path {
        let t = &mr.topology;
        let src = mr.servers[s];
        let dst = mr.servers[d];
        let sr = t.node(src).rack().unwrap() as usize;
        let dr = t.node(dst).rack().unwrap() as usize;
        let up = t.find_link(src, mr.tors[sr], 0).unwrap();
        let tr = t.find_link(mr.tors[sr], mr.tors[dr], trunk).unwrap();
        let down = t.find_link(mr.tors[dr], dst, 0).unwrap();
        Path::new(t, vec![up, tr, down]).unwrap()
    }

    #[test]
    fn single_flow_runs_at_bottleneck_and_completes_on_time() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        // 1 Gb/s bottleneck; 125 MB should take exactly 1 s.
        let path = cross_rack_path(&mr, 0, 2, 0);
        let id = net.start_flow(FlowSpec::tcp_transfer(tuple, 125_000_000), path);
        net.recompute();
        let (t, fid) = net.next_completion().unwrap();
        assert_eq!(fid, id);
        assert_eq!(t, SimTime::from_secs(1));
        let done = net.advance_to(t);
        assert_eq!(done, vec![id]);
        let rep = net.remove_flow(id);
        assert!((rep.transferred_bytes - 125_000_000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_same_nic_share_then_speed_up() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        // Both flows leave server0 → its NIC (1 Gb/s) is the bottleneck.
        let t1 = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let t2 = FiveTuple::tcp(mr.servers[0], mr.servers[3], 40001, 50060);
        let f1 = net.start_flow(
            FlowSpec::tcp_transfer(t1, 62_500_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        let f2 = net.start_flow(
            FlowSpec::tcp_transfer(t2, 125_000_000),
            cross_rack_path(&mr, 0, 3, 1),
        );
        net.recompute();
        assert!((net.flow(f1).unwrap().rate_bps - 0.5e9).abs() < 1.0);
        // f1 finishes at 1 s (62.5 MB at 500 Mb/s).
        let (t, fid) = net.next_completion().unwrap();
        assert_eq!(fid, f1);
        assert_eq!(t, SimTime::from_secs(1));
        net.advance_to(t);
        net.remove_flow(f1);
        net.recompute();
        // f2 now gets the full NIC: 62.5 MB left at 1 Gb/s = 0.5 s more.
        let (t2c, fid2) = net.next_completion().unwrap();
        assert_eq!(fid2, f2);
        assert_eq!(t2c, SimTime::from_millis(1500));
    }

    #[test]
    fn cbr_background_squeezes_tcp() {
        let mr = small();
        let t = &mr.topology;
        let mut net = FlowNet::new(t.clone());
        // CBR filling 80% of trunk 0.
        let trunk = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let bg_tuple = FiveTuple::udp(mr.tors[0], mr.tors[1], 1, 2);
        let bg_path = Path::new(t, vec![trunk]).unwrap();
        net.start_flow(FlowSpec::cbr(bg_tuple, 0.8e9), bg_path);
        let ft = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let f = net.start_flow(
            FlowSpec::tcp_transfer(ft, 100_000_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        assert!((net.flow(f).unwrap().rate_bps - 0.2e9).abs() < 1e3);
        assert!(net.link_utilization(trunk) > 0.99);
    }

    #[test]
    fn cum_tx_bytes_tracks_source() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(tuple, 125_000_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        net.advance_to(SimTime::from_millis(500));
        let got = net.cum_tx_bytes(mr.servers[0]);
        assert!((got - 62_500_000.0).abs() < 1.0, "got {got}");
        assert_eq!(net.cum_tx_bytes(mr.servers[1]), 0.0);
    }

    #[test]
    fn reroute_preserves_progress() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let f = net.start_flow(
            FlowSpec::tcp_transfer(tuple, 125_000_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        net.advance_to(SimTime::from_millis(400));
        net.reroute_flow(f, cross_rack_path(&mr, 0, 2, 1));
        net.recompute();
        let sent = net.cum_tx_bytes(mr.servers[0]);
        assert!((sent - 50_000_000.0).abs() < 1.0, "sent {sent}");
        // Completion still at exactly 1 s: same bottleneck rate.
        assert_eq!(net.next_completion().unwrap().0, SimTime::from_secs(1));
    }

    #[test]
    fn epoch_bumps_on_recompute() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let e0 = net.epoch();
        net.recompute();
        assert_eq!(net.epoch(), e0 + 1);
    }

    #[test]
    fn completed_flow_stops_consuming() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let t1 = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let t2 = FiveTuple::tcp(mr.servers[1], mr.servers[2], 40001, 50060);
        let f1 = net.start_flow(
            FlowSpec::tcp_transfer(t1, 1_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        let f2 = net.start_flow(
            FlowSpec::tcp_transfer(t2, 1_000_000_000),
            cross_rack_path(&mr, 1, 2, 0),
        );
        net.recompute();
        let (t, _) = net.next_completion().unwrap();
        net.advance_to(t);
        // f1 done but not yet removed; recompute must hand everything to f2.
        net.recompute();
        assert_eq!(net.flow(f1).unwrap().rate_bps, 0.0);
        // Destination NIC is the shared bottleneck (1 Gb/s).
        assert!((net.flow(f2).unwrap().rate_bps - 1e9).abs() < 1e3);
    }

    #[test]
    fn zero_capacity_link_has_finite_utilization() {
        let mr = small();
        let t = &mr.topology;
        let trunk = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let mut net = FlowNet::new(t.clone());
        net.set_link_capacity(trunk, 0.0);
        net.recompute();
        let u = net.link_utilization(trunk);
        assert!(u.is_finite(), "utilization must not be NaN/inf, got {u}");
        assert_eq!(u, 1.0, "a dead link reads as saturated");
    }

    #[test]
    fn incremental_matches_reference_through_flow_churn() {
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let t1 = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let t2 = FiveTuple::tcp(mr.servers[0], mr.servers[3], 40001, 50060);
        let f1 = net.start_flow(
            FlowSpec::tcp_transfer(t1, 50_000_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        net.assert_matches_reference();
        let f2 = net.start_flow(
            FlowSpec::tcp_transfer(t2, 80_000_000),
            cross_rack_path(&mr, 0, 3, 1),
        );
        net.recompute();
        net.assert_matches_reference();
        net.advance_to(SimTime::from_millis(100));
        net.reroute_flow(f2, cross_rack_path(&mr, 0, 3, 0));
        net.recompute();
        net.assert_matches_reference();
        net.remove_flow(f1);
        net.recompute();
        net.assert_matches_reference();
        net.full_recompute();
        net.assert_matches_reference();
    }

    /// Many disjoint rack-local components, solved sequentially and with
    /// 4 workers: the canonical write-back makes the results — rates,
    /// loads, byte counters — bitwise identical.
    #[test]
    fn parallel_component_solve_is_worker_count_invariant() {
        let build = |workers: usize| {
            let mr = build_multi_rack(&MultiRackParams {
                racks: 8,
                servers_per_rack: 40,
                nic_bps: 1e9,
                trunk_count: 2,
                trunk_bps: 1e9,
            });
            let t = &mr.topology;
            let mut net = FlowNet::new(t.clone());
            net.set_solver_workers(workers);
            // 320 rack-local flows in 8+ disjoint components — well past
            // the sequential cutoff.
            for (i, &s) in mr.servers.iter().enumerate() {
                let rack = t.node(s).rack().unwrap() as usize;
                let up = t.find_link(s, mr.tors[rack], 0).unwrap();
                let tuple = FiveTuple::tcp(s, mr.tors[rack], 40000 + i as u16, 50060);
                net.start_flow(
                    FlowSpec::tcp_transfer(tuple, 10_000_000 + (i as u64) * 1000),
                    Path::new(t, vec![up]).unwrap(),
                );
            }
            net.recompute();
            net.advance_to(SimTime::from_millis(10));
            (mr, net)
        };
        let (mr, mut seq) = build(1);
        let (_, mut par) = build(4);
        let rates_seq: Vec<f64> = seq.flows().map(|(_, f)| f.rate_bps).collect();
        let rates_par: Vec<f64> = par.flows().map(|(_, f)| f.rate_bps).collect();
        assert_eq!(rates_seq, rates_par);
        for &s in &mr.servers {
            assert_eq!(seq.cum_tx_bytes(s).to_bits(), par.cum_tx_bytes(s).to_bits());
        }
        let (ts, fs) = seq.next_completion().unwrap();
        let (tp, fp) = par.next_completion().unwrap();
        assert_eq!((ts, fs), (tp, fp));
    }

    /// A flow whose bytes drain at a fold outside `advance_to` (rate
    /// raised mid-flight, shortening the true completion past the old
    /// ceil projection) must still be reaped by the next advance.
    #[test]
    fn relaxed_fold_drain_is_reaped() {
        let mr = small();
        let t = &mr.topology;
        let mut net = FlowNet::new(t.clone());
        let t1 = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let t2 = FiveTuple::tcp(mr.servers[0], mr.servers[3], 40001, 50060);
        let f1 = net.start_flow(
            FlowSpec::tcp_transfer(t1, 62_500_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        let f2 = net.start_flow(
            FlowSpec::tcp_transfer(t2, 125_000_000),
            cross_rack_path(&mr, 0, 3, 1),
        );
        net.recompute();
        // Both at 500 Mb/s; f1 projects at 1 s. Advance almost there,
        // then remove f2 — f1's rate doubles at the solve's fold point.
        net.advance_to(SimTime::from_millis(999));
        net.remove_flow(f2);
        net.recompute();
        let (tc, fc) = net.next_completion().unwrap();
        assert_eq!(fc, f1);
        assert!(tc > SimTime::from_millis(999) && tc <= SimTime::from_secs(1));
        let done = net.advance_to(tc).to_vec();
        assert_eq!(done, vec![f1]);
        let rep = net.remove_flow(f1);
        assert!((rep.transferred_bytes - 62_500_000.0).abs() <= 8.0);
    }

    /// Checkpoint a mid-run network (degraded link, live + completed
    /// flows, CBR background, and a deferred solve still pending), restore
    /// it into a pristine topology, and check: the re-snapshot is
    /// byte-identical and both copies finish the run with bitwise-equal
    /// byte counters.
    #[test]
    fn state_round_trip_resumes_identically() {
        use pythia_snapshot::{Reader, Writer};
        let mr = small();
        let t = &mr.topology;
        let mut net = FlowNet::new(t.clone());
        // CBR background on trunk 1, plus two competing transfers.
        let trunk1 = t.find_link(mr.tors[0], mr.tors[1], 1).unwrap();
        net.start_flow(
            FlowSpec::cbr(FiveTuple::udp(mr.tors[0], mr.tors[1], 1, 2), 0.4e9),
            Path::new(t, vec![trunk1]).unwrap(),
        );
        let t1 = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let t2 = FiveTuple::tcp(mr.servers[0], mr.servers[3], 40001, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(t1, 62_500_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.start_flow(
            FlowSpec::tcp_transfer(t2, 125_000_000),
            cross_rack_path(&mr, 0, 3, 1),
        );
        net.recompute();
        net.advance_to(SimTime::from_millis(300));
        // A degradation that must survive the round trip.
        let trunk0 = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        net.set_link_capacity(trunk0, 0.5e9);
        net.recompute();
        net.advance_to(SimTime::from_millis(400));
        // Mutations whose solve is still deferred at the checkpoint.
        let t3 = FiveTuple::tcp(mr.servers[1], mr.servers[3], 40002, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(t3, 30_000_000),
            cross_rack_path(&mr, 1, 3, 0),
        );
        net.set_cbr_rate(FlowId(0), 0.6e9);

        let mut w = Writer::new();
        w.section("net", |s| net.put_state(s));
        let bytes = w.finish();
        let mut sec = Reader::new(&bytes).unwrap().section("net").unwrap();
        let mut restored = FlowNet::get_state(mr.topology.clone(), &mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(
            restored.topology().link(trunk0).capacity_bps,
            0.5e9,
            "degraded capacity must survive restore"
        );
        let mut w2 = Writer::new();
        w2.section("net", |s| restored.put_state(s));
        assert_eq!(bytes, w2.finish(), "re-snapshot must be byte-identical");

        // Drive both to completion in lock-step, solving first.
        loop {
            net.recompute();
            restored.recompute();
            assert_eq!(net.epoch(), restored.epoch());
            let a = net.next_completion();
            let b = restored.next_completion();
            assert_eq!(a, b);
            let Some((tc, _)) = a else { break };
            let da: Vec<FlowId> = net.advance_to(tc).to_vec();
            let db: Vec<FlowId> = restored.advance_to(tc).to_vec();
            assert_eq!(da, db);
            for id in da {
                let ra = net.remove_flow(id);
                let rb = restored.remove_flow(id);
                assert_eq!(
                    ra.transferred_bytes.to_bits(),
                    rb.transferred_bytes.to_bits()
                );
                assert_eq!(ra.ended_at, rb.ended_at);
            }
        }
        for &s in &mr.servers {
            assert_eq!(
                net.cum_tx_bytes(s).to_bits(),
                restored.cum_tx_bytes(s).to_bits()
            );
        }
    }

    /// A snapshot whose cross-references were damaged must surface a
    /// typed error from restore, never a panic.
    #[test]
    fn corrupt_state_is_a_typed_error() {
        use pythia_snapshot::{Reader, SnapshotError, Writer};
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(tuple, 125_000_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        let mut w = Writer::new();
        w.section("net", |s| net.put_state(s));
        let good = w.finish();
        // Restoring against a *different* topology (wrong link count)
        // must fail with Malformed, not index out of bounds.
        let tiny = build_multi_rack(&MultiRackParams {
            racks: 2,
            servers_per_rack: 1,
            nic_bps: 1e9,
            trunk_count: 1,
            trunk_bps: 1e9,
        });
        let mut sec = Reader::new(&good).unwrap().section("net").unwrap();
        let err = match FlowNet::get_state(tiny.topology.clone(), &mut sec) {
            Err(e) => e,
            Ok(_) => panic!("restore against wrong topology must fail"),
        };
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn disjoint_components_keep_rates_on_unrelated_churn() {
        // Two flows in different racks, paths sharing no links. Removing
        // one must not perturb (or even re-derive) the other's rate.
        let mr = small();
        let t = &mr.topology;
        let mut net = FlowNet::new(t.clone());
        // Rack-local flows: server -> ToR link only.
        let up0 = t.find_link(mr.servers[0], mr.tors[0], 0).unwrap();
        let up2 = t.find_link(mr.servers[2], mr.tors[1], 0).unwrap();
        let ta = FiveTuple::tcp(mr.servers[0], mr.tors[0], 40000, 50060);
        let tb = FiveTuple::tcp(mr.servers[2], mr.tors[1], 40001, 50060);
        let fa = net.start_flow(
            FlowSpec::tcp_transfer(ta, 500_000_000),
            Path::new(t, vec![up0]).unwrap(),
        );
        let fb = net.start_flow(
            FlowSpec::tcp_transfer(tb, 500_000_000),
            Path::new(t, vec![up2]).unwrap(),
        );
        net.recompute();
        let ra = net.flow(fa).unwrap().rate_bps;
        let eb = net.epoch();
        net.advance_to(SimTime::from_millis(10));
        net.remove_flow(fb);
        net.recompute();
        assert!(net.epoch() > eb);
        // fa's component was untouched: identical rate, bit for bit.
        assert_eq!(net.flow(fa).unwrap().rate_bps, ra);
        net.assert_matches_reference();
    }

    /// A chain `n0 → n1 → … → n_k`; hop `i` gets one parallel link per
    /// entry of `hops[i]` (its capacity). Returns the topology and each
    /// hop's links.
    fn chain(hops: &[Vec<f64>]) -> (Topology, Vec<Vec<LinkId>>) {
        let mut b = crate::topology::TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..=hops.len())
            .map(|i| b.add_core_switch(format!("n{i}")))
            .collect();
        let links = hops
            .iter()
            .enumerate()
            .map(|(i, caps)| {
                caps.iter()
                    .map(|&c| b.add_link(nodes[i], nodes[i + 1], c))
                    .collect()
            })
            .collect();
        (b.build(), links)
    }

    /// Start a flow over `links` (consecutive chain hops): CBR at `cbr`,
    /// else an adaptive transfer that outlives the test.
    fn start_on(net: &mut FlowNet, links: Vec<LinkId>, cbr: Option<f64>) -> FlowId {
        let path = Path::new(net.topology(), links).unwrap();
        let port = net.num_active_flows() as u16;
        let spec = match cbr {
            Some(rate) => FlowSpec::cbr(FiveTuple::udp(path.src(), path.dst(), port, 9), rate),
            None => {
                FlowSpec::tcp_transfer(FiveTuple::tcp(path.src(), path.dst(), port, 50060), 1 << 50)
            }
        };
        net.start_flow(spec, path)
    }

    /// The in-place region solver against the reference allocator on the
    /// shapes that pin max-min fairness: a two-bottleneck chain, CBR
    /// priority, CBR over-subscribing a link (clamped by the CBR layer),
    /// the removal anomaly, and a link degraded to zero capacity.
    #[test]
    fn region_solver_matches_reference_on_pinned_cases() {
        let mut nets = Vec::new();
        // Link 0 (10) shared by f0, f1; link 1 (100) by f1, f2.
        let (t, l) = chain(&[vec![10.0], vec![100.0]]);
        let mut net = FlowNet::new(t);
        start_on(&mut net, vec![l[0][0]], None);
        start_on(&mut net, vec![l[0][0], l[1][0]], None);
        start_on(&mut net, vec![l[1][0]], None);
        nets.push(net);
        // CBR 60 then CBR 500 on a 100 link, beside adaptive flows.
        for cbr in [60.0, 500.0] {
            let (t, l) = chain(&[vec![100.0]]);
            let mut net = FlowNet::new(t);
            start_on(&mut net, vec![l[0][0]], Some(cbr));
            start_on(&mut net, vec![l[0][0]], None);
            start_on(&mut net, vec![l[0][0]], None);
            nets.push(net);
        }
        // Removal anomaly: A over both links, B on link 0, C on link 1.
        let (t, l) = chain(&[vec![10.0], vec![2.0]]);
        let mut net = FlowNet::new(t);
        start_on(&mut net, vec![l[0][0], l[1][0]], None);
        start_on(&mut net, vec![l[0][0]], None);
        start_on(&mut net, vec![l[1][0]], None);
        nets.push(net);
        // A dead link carrying CBR and an adaptive flow, next to a
        // live one.
        let (t, l) = chain(&[vec![40.0], vec![50.0]]);
        let mut net = FlowNet::new(t);
        net.set_link_capacity(l[0][0], 0.0);
        start_on(&mut net, vec![l[0][0]], Some(5.0));
        start_on(&mut net, vec![l[0][0], l[1][0]], None);
        start_on(&mut net, vec![l[1][0]], None);
        nets.push(net);
        for net in &mut nets {
            net.recompute();
            net.assert_within_reference(1e-9);
        }
        // Spot values: the over-subscribed CBR is clamped and TCP
        // keeps a share; the dead link carries nothing.
        let rates = |net: &FlowNet| -> Vec<f64> { net.flows().map(|(_, f)| f.rate_bps).collect() };
        assert_eq!(rates(&nets[0]), vec![5.0, 5.0, 95.0]);
        let over = rates(&nets[2]);
        assert!(over[0] <= CBR_SHARE_LIMIT * 100.0 && over[1] > 0.0);
        assert_eq!(rates(&nets[4])[..2], [0.0, 0.0]);
    }

    /// Random chains with parallel links and mixed CBR/adaptive flows,
    /// solved from scratch, after churn (an incremental region) and again
    /// in full: every rate and link load within 1e-9 of the reference.
    #[test]
    fn region_solver_matches_reference_on_random_meshes() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..50 {
            let n_hops = 2 + next() % 5;
            let hops: Vec<Vec<f64>> = (0..n_hops)
                .map(|_| {
                    (0..1 + next() % 2)
                        .map(|_| (1 + next() % 1000) as f64)
                        .collect()
                })
                .collect();
            let (topo, links) = chain(&hops);
            let mut net = FlowNet::new(topo);
            let n_flows = 1 + next() % 12;
            let mut ids = Vec::new();
            for i in 0..n_flows {
                let first = next() % n_hops;
                let len = 1 + next() % 3.min(n_hops - first);
                let path: Vec<LinkId> = (first..first + len)
                    .map(|h| links[h][next() % links[h].len()])
                    .collect();
                let cbr = (i % 3 == 0).then(|| (1 + next() % 500) as f64);
                ids.push(start_on(&mut net, path, cbr));
            }
            net.recompute();
            net.assert_within_reference(1e-9);
            for id in ids.iter().step_by(2) {
                net.remove_flow(*id);
            }
            net.recompute();
            net.assert_within_reference(1e-9);
            net.full_recompute();
            net.assert_within_reference(1e-9);
        }
    }

    /// The solver scratch carries nothing from one solve into the next:
    /// the same link re-solved with a growing, then shrinking, flow set.
    #[test]
    fn region_solver_is_reusable_across_solves() {
        let (t, l) = chain(&[vec![100.0]]);
        let mut net = FlowNet::new(t);
        let mut ids = Vec::new();
        for n in [2usize, 3, 4, 1] {
            while ids.len() < n {
                ids.push(start_on(&mut net, vec![l[0][0]], None));
            }
            while ids.len() > n {
                net.remove_flow(ids.pop().unwrap());
            }
            net.recompute();
            for (_, f) in net.flows() {
                assert_eq!(f.rate_bps, 100.0 / n as f64);
            }
            assert_eq!(net.link_load_bps(l[0][0]), 100.0);
        }
    }

    /// A removed flow's heap entry stays behind (lazy deletion) while a
    /// newer flow takes over its slot at the same rate epoch. The entry
    /// must never be returned, must not survive compaction, and a
    /// snapshot holding it must re-snapshot byte for byte.
    #[test]
    fn dead_heap_entry_in_a_reused_slot_is_never_live() {
        use pythia_snapshot::{Reader, Writer};
        let mr = small();
        let mut net = FlowNet::new(mr.topology.clone());
        // A alone at 1 Gb/s: projected at 0.5 s.
        let ta = FiveTuple::tcp(mr.servers[0], mr.servers[2], 40000, 50060);
        let a = net.start_flow(
            FlowSpec::tcp_transfer(ta, 62_500_000),
            cross_rack_path(&mr, 0, 2, 0),
        );
        net.recompute();
        let slot = net.index[&a];
        let a_epoch = net.slot(slot).rate_epoch;
        net.remove_flow(a);
        // B reuses the slot, reaches A's epoch and projects at 2 s.
        let tb = FiveTuple::tcp(mr.servers[1], mr.servers[3], 40001, 50060);
        let b = net.start_flow(
            FlowSpec::tcp_transfer(tb, 250_000_000),
            cross_rack_path(&mr, 1, 3, 1),
        );
        net.recompute();
        assert_eq!(net.index[&b], slot);
        assert_eq!(net.slot(slot).rate_epoch, a_epoch);
        let holds_a = |net: &FlowNet| net.heap.iter().any(|e| e.0 .1 == a.0);
        assert!(holds_a(&net), "A's dead entry must still be queued");

        let mut w = Writer::new();
        w.section("net", |s| net.put_state(s));
        let bytes = w.finish();
        let mut sec = Reader::new(&bytes).unwrap().section("net").unwrap();
        let mut restored = FlowNet::get_state(mr.topology.clone(), &mut sec).unwrap();
        let mut w2 = Writer::new();
        w2.section("net", |s| restored.put_state(s));
        assert_eq!(bytes, w2.finish(), "re-snapshot must be byte-identical");
        assert_eq!(restored.next_completion(), Some((SimTime::from_secs(2), b)));

        net.compact_heap();
        assert!(!holds_a(&net), "compaction kept A's dead entry");
        assert_eq!(net.next_completion(), Some((SimTime::from_secs(2), b)));
    }
}
