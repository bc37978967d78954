//! The SDN controller (OpenDaylight stand-in).
//!
//! Hosts the services the paper's flow-allocation plugin consumes (§IV):
//!
//! * **Topology service** — the routing graph, with per-server-pair
//!   k-shortest paths computed lazily on first use and memoized
//!   (structural enumeration on Clos fabrics, hop-count Dijkstra/Yen
//!   elsewhere); topology-change (link up/down) events invalidate only
//!   the pairs whose cached paths traverse the affected link, via a
//!   per-link reverse index, keeping routing off the data path and
//!   giving fault tolerance at 1k-server scale;
//! * **Link-load update service** — EWMA-smoothed per-link utilization fed
//!   by dataplane samples;
//! * **Rule installation** — producing per-switch rules for a path, each
//!   with a hardware programming latency in the 3–5 ms/flow budget the
//!   paper measures for contemporary switches (§V-C).

use std::collections::BTreeSet;

use pythia_des::{get_rng, put_rng, FastMap, FastSet, FastState, RngFactory, SimDuration};
use pythia_netsim::persist::{get_path, put_path};
use pythia_netsim::{ClosStructure, LinkId, NodeId, Path, Topology};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};
use pythia_trace::{Component, Trace, TraceEvent};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::flow_table::FlowRule;
use crate::ksp::k_shortest_paths_avoiding;
use crate::match_fields::FlowMatch;
use crate::structural::clos_paths;

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// How many paths to precompute per server pair.
    pub k_paths: usize,
    /// Lower bound of the hardware rule-programming latency (uniform).
    pub rule_install_min: SimDuration,
    /// Upper bound of the hardware rule-programming latency (uniform).
    pub rule_install_max: SimDuration,
    /// EWMA smoothing factor for link-load samples (0 < α ≤ 1).
    pub load_ewma_alpha: f64,
    /// Probability that a rule install is lost on the switch control
    /// channel (the rule never lands; traffic stays on default ECMP).
    pub install_fail_prob: f64,
    /// Probability that a rule install stalls in the switch's firmware
    /// queue and lands only after [`ControllerConfig::install_timeout`].
    pub install_timeout_prob: f64,
    /// Effective latency of a timed-out install.
    pub install_timeout: SimDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            k_paths: 4,
            rule_install_min: SimDuration::from_millis(3),
            rule_install_max: SimDuration::from_millis(5),
            load_ewma_alpha: 0.3,
            install_fail_prob: 0.0,
            install_timeout_prob: 0.0,
            install_timeout: SimDuration::from_millis(500),
        }
    }
}

/// A rule the controller has decided to program, with the hardware latency
/// until it becomes active. The engine applies it to the [`crate::Dataplane`]
/// after `delay`.
#[derive(Debug, Clone)]
pub struct PendingRule {
    /// The switch to program.
    pub switch: NodeId,
    /// The rule to install there.
    pub rule: FlowRule,
    /// Hardware programming latency before it takes effect.
    pub delay: SimDuration,
}

/// Controller bookkeeping for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Rules handed to switches for installation.
    pub rules_issued: u64,
    /// Per-pair path computations: lazy first-use fills plus recomputes
    /// after a topology event invalidated the pair.
    pub path_cache_recomputes: u64,
    /// Pairs evicted from the cache by topology-change events.
    pub path_cache_invalidations: u64,
    /// Link-load samples ingested.
    pub load_updates: u64,
    /// Rule installs lost on the switch control channel (never landed).
    pub rules_failed: u64,
    /// Rule installs that stalled and landed after the timeout latency.
    pub rules_timed_out: u64,
}

/// The central controller.
pub struct Controller {
    cfg: ControllerConfig,
    topo: Topology,
    servers: Vec<NodeId>,
    /// Structural metadata when the fabric is a known Clos shape; lets
    /// path computation skip graph search entirely.
    clos: Option<ClosStructure>,
    /// Memoized k-shortest paths per pair. Hash-keyed: only
    /// [`Controller::put_state`] walks it, in pair order.
    path_cache: FastMap<(NodeId, NodeId), Vec<Path>>,
    /// Reverse index: link → pairs whose cached paths traverse it. May
    /// hold stale entries (pair since evicted or recomputed around the
    /// link); invalidation tolerates them. Invariant: a cached pair
    /// traversing link `l` is always registered under `l`.
    link_pairs: Vec<Vec<(NodeId, NodeId)>>,
    /// Pairs computed while at least one link was down. Any link-up may
    /// expose better paths for them, so they are all invalidated then.
    avoided_pairs: Vec<(NodeId, NodeId)>,
    down_links: FastSet<LinkId>,
    /// Bumped whenever cached paths may change under a caller's feet —
    /// topology events and snapshot restores, not lazy first-use fills
    /// (a first fill creates the pair, so no caller can hold stale
    /// geometry for it). Invalidation key for the allocator's placement
    /// candidate cache: same epoch ⇒ the paths of every already-seen
    /// pair are unchanged.
    paths_epoch: u64,
    load_ewma_bps: Vec<f64>,
    rng: SmallRng,
    trace: Trace,
    /// Bookkeeping for reports.
    pub stats: ControllerStats,
}

impl Controller {
    /// Build the controller. Paths are computed lazily per server pair on
    /// first use and memoized until a topology event touches them.
    pub fn new(topo: Topology, cfg: ControllerConfig, rngs: &RngFactory) -> Self {
        Self::with_clos(topo, None, cfg, rngs)
    }

    /// [`Controller::new`] with structural Clos metadata: path queries on
    /// a fat-tree then enumerate the k equal-length paths by symmetry in
    /// O(k·hops) instead of running Yen's algorithm.
    pub fn with_clos(
        topo: Topology,
        clos: Option<ClosStructure>,
        cfg: ControllerConfig,
        rngs: &RngFactory,
    ) -> Self {
        assert!(cfg.k_paths >= 1);
        assert!(cfg.load_ewma_alpha > 0.0 && cfg.load_ewma_alpha <= 1.0);
        assert!(cfg.rule_install_min <= cfg.rule_install_max);
        let servers = topo.servers().to_vec();
        let n_links = topo.num_links();
        assert!((0.0..1.0).contains(&cfg.install_fail_prob));
        assert!((0.0..1.0).contains(&cfg.install_timeout_prob));
        Controller {
            cfg,
            topo,
            servers,
            clos,
            path_cache: FastMap::default(),
            link_pairs: vec![Vec::new(); n_links],
            avoided_pairs: Vec::new(),
            down_links: FastSet::default(),
            paths_epoch: 0,
            load_ewma_bps: vec![0.0; n_links],
            rng: rngs.stream("controller-install-latency"),
            trace: Trace::off(),
            stats: ControllerStats::default(),
        }
    }

    /// Attach a flight-recorder handle (the engine hands out clones of
    /// its per-run recorder).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The controller's (nominal) topology view.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Structural Clos metadata, when the fabric has it.
    pub fn clos(&self) -> Option<&ClosStructure> {
        self.clos.as_ref()
    }

    /// Compute (and register) the paths of one pair.
    fn compute_pair(&mut self, src: NodeId, dst: NodeId) {
        let _span = self.trace.span("path_compute");
        // Structural enumeration only on the pristine fabric: with links
        // down, Yen-with-avoidance finds the detours structure can't.
        let structural = if self.down_links.is_empty() {
            self.clos
                .as_ref()
                .and_then(|c| clos_paths(&self.topo, c, src, dst, self.cfg.k_paths))
        } else {
            None
        };
        let paths = structural.unwrap_or_else(|| {
            k_shortest_paths_avoiding(&self.topo, src, dst, self.cfg.k_paths, &self.down_links)
        });
        let mut seen: Vec<LinkId> = Vec::new();
        for p in &paths {
            for &l in p.links() {
                if !seen.contains(&l) {
                    seen.push(l);
                    self.link_pairs[l.0 as usize].push((src, dst));
                }
            }
        }
        if !self.down_links.is_empty() {
            self.avoided_pairs.push((src, dst));
        }
        self.path_cache.insert((src, dst), paths);
        self.stats.path_cache_recomputes += 1;
    }

    /// The k shortest paths from `src` to `dst` (may be fewer than k, or
    /// empty if partitioned). Computed on first use, then served from the
    /// memo until a topology event invalidates the pair.
    pub fn paths(&mut self, src: NodeId, dst: NodeId) -> &[Path] {
        if src != dst && !self.path_cache.contains_key(&(src, dst)) {
            self.compute_pair(src, dst);
        }
        self.path_cache
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Eagerly fill the cache for every ordered server pair (startup
    /// warming and benchmarks; the engine itself relies on lazy fills).
    pub fn warm_all_pairs(&mut self) {
        let servers = std::mem::take(&mut self.servers);
        for &s in &servers {
            for &d in &servers {
                if s != d && !self.path_cache.contains_key(&(s, d)) {
                    self.compute_pair(s, d);
                }
            }
        }
        self.servers = servers;
    }

    /// Cached pairs right now (diagnostics/tests).
    pub fn cached_pairs(&self) -> usize {
        self.path_cache.len()
    }

    /// Monotone path-set generation: unchanged epoch ⇒ every pair served
    /// by [`Controller::paths`] before still has the same path list.
    pub fn paths_epoch(&self) -> u64 {
        self.paths_epoch
    }

    /// Topology-change event: link went down/up. Unlike a full rebuild,
    /// only the affected pairs are evicted: on link-down, the pairs whose
    /// cached paths traverse the link (reverse index); on link-up, the
    /// pairs that were computed under avoidance and may now do better.
    pub fn on_link_state(&mut self, link: LinkId, up: bool) {
        let changed = if up {
            self.down_links.remove(&link)
        } else {
            self.down_links.insert(link)
        };
        if !changed {
            return;
        }
        self.paths_epoch += 1;
        let _span = self.trace.span("cache_invalidate");
        if up {
            for pair in std::mem::take(&mut self.avoided_pairs) {
                if self.path_cache.remove(&pair).is_some() {
                    self.stats.path_cache_invalidations += 1;
                }
            }
        } else {
            for pair in std::mem::take(&mut self.link_pairs[link.0 as usize]) {
                // Stale-tolerant: the pair may have been evicted already,
                // or recomputed via paths that no longer use this link.
                let traverses = self
                    .path_cache
                    .get(&pair)
                    .is_some_and(|ps| ps.iter().any(|p| p.contains_link(link)));
                if traverses {
                    self.path_cache.remove(&pair);
                    self.stats.path_cache_invalidations += 1;
                }
            }
        }
    }

    /// Links currently marked down by topology events.
    pub fn down_links(&self) -> &FastSet<LinkId> {
        &self.down_links
    }

    /// Link-load update service: feed a measured committed rate.
    pub fn observe_link_load(&mut self, link: LinkId, load_bps: f64) {
        let a = self.cfg.load_ewma_alpha;
        let cell = &mut self.load_ewma_bps[link.0 as usize];
        *cell = a * load_bps + (1.0 - a) * *cell;
        self.stats.load_updates += 1;
    }

    /// Smoothed load estimate for `link` (bits/sec).
    pub fn link_load_bps(&self, link: LinkId) -> f64 {
        self.load_ewma_bps[link.0 as usize]
    }

    /// Smoothed *available* bandwidth on `path`: min over links of
    /// (capacity − EWMA load), floored at zero.
    pub fn path_available_bps(&self, path: &Path) -> f64 {
        path.links()
            .iter()
            .map(|&l| (self.topo.link(l).capacity_bps - self.link_load_bps(l)).max(0.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// Produce the per-switch rules that pin `matcher` onto `path`. One
    /// rule per switch the path traverses; each with an independent
    /// hardware install latency sample.
    pub fn install_path(
        &mut self,
        matcher: FlowMatch,
        path: &Path,
        priority: u16,
    ) -> Vec<PendingRule> {
        let mut out = Vec::new();
        for &l in path.links() {
            let node = self.topo.link(l).src;
            if self.topo.node(node).is_server() {
                continue; // hosts have no flow tables
            }
            let span = (self.cfg.rule_install_max - self.cfg.rule_install_min).as_nanos();
            let jitter = if span == 0 {
                0
            } else {
                self.rng.random_range(0..=span)
            };
            self.stats.rules_issued += 1;
            // Control-channel faults. Each probability is gated so the
            // fault-free configuration draws no extra randomness.
            if self.cfg.install_fail_prob > 0.0
                && self.rng.random_range(0.0..1.0) < self.cfg.install_fail_prob
            {
                // The install is lost; this hop keeps its default ECMP
                // forwarding. Path-pinning degrades to a hybrid route.
                self.stats.rules_failed += 1;
                self.trace
                    .record(Component::Controller, || TraceEvent::RuleFail {
                        switch: node,
                    });
                continue;
            }
            let mut delay = self.cfg.rule_install_min + SimDuration::from_nanos(jitter);
            if self.cfg.install_timeout_prob > 0.0
                && self.rng.random_range(0.0..1.0) < self.cfg.install_timeout_prob
            {
                self.stats.rules_timed_out += 1;
                delay = self.cfg.install_timeout;
                self.trace
                    .record(Component::Controller, || TraceEvent::RuleTimeout {
                        switch: node,
                    });
            }
            self.trace
                .record(Component::Controller, || TraceEvent::RuleIssue {
                    switch: node,
                    src: matcher.src,
                    dst: matcher.dst,
                    delay,
                });
            out.push(PendingRule {
                switch: node,
                rule: FlowRule {
                    matcher,
                    priority,
                    out_link: l,
                },
                delay,
            });
        }
        out
    }

    /// Serialize the controller's mutable state. Config, topology, server
    /// list, Clos metadata, and the trace handle are reconstructed by the
    /// restore path (they derive from the scenario), so only the memo
    /// caches, link state, EWMA table, RNG stream, and stats go to bytes.
    /// The path cache and reverse index are serialized verbatim — lazy
    /// fill order determines cache contents, so recomputing them on
    /// restore would diverge from the uninterrupted run.
    pub fn put_state(&self, w: &mut SectionWriter) {
        let mut cached: Vec<(&(NodeId, NodeId), &Vec<Path>)> = self.path_cache.iter().collect();
        cached.sort_unstable_by_key(|&(pair, _)| *pair);
        (cached.len() as u64).put(w);
        for (&(src, dst), paths) in cached {
            src.put(w);
            dst.put(w);
            (paths.len() as u64).put(w);
            for p in paths {
                put_path(w, p);
            }
        }
        self.link_pairs.put(w);
        self.avoided_pairs.put(w);
        // HashSet iteration order is not deterministic; canonicalize.
        let mut down: Vec<LinkId> = self.down_links.iter().copied().collect();
        down.sort_unstable();
        down.put(w);
        self.load_ewma_bps.put(w);
        put_rng(w, &self.rng);
        self.stats.put(w);
    }

    /// Overwrite this (freshly built) controller's mutable state from
    /// [`Controller::put_state`] bytes, validating every path and index
    /// entry against the topology.
    pub fn restore_state(&mut self, r: &mut SectionReader) -> Result<(), SnapshotError> {
        let n_nodes = self.topo.num_nodes();
        let n_links = self.topo.num_links();
        let pairs = u64::get(r)? as usize;
        let mut cache: FastMap<(NodeId, NodeId), Vec<Path>> = FastMap::default();
        for _ in 0..pairs {
            let src = NodeId::get(r)?;
            let dst = NodeId::get(r)?;
            if src.0 as usize >= n_nodes || dst.0 as usize >= n_nodes {
                return Err(r.malformed("cached pair references unknown node"));
            }
            let k = u64::get(r)? as usize;
            let mut paths = Vec::with_capacity(k);
            for _ in 0..k {
                let p = get_path(&self.topo, r)?;
                if p.src() != src || p.dst() != dst {
                    return Err(r.malformed("cached path endpoints disagree with its pair key"));
                }
                paths.push(p);
            }
            if cache.insert((src, dst), paths).is_some() {
                return Err(r.malformed("duplicate pair in path cache"));
            }
        }
        let link_pairs = Vec::<Vec<(NodeId, NodeId)>>::get(r)?;
        if link_pairs.len() != n_links {
            return Err(r.malformed("reverse index length != link count"));
        }
        let mut indexed: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
        for (l, pairs) in link_pairs.iter().enumerate() {
            for &(s, d) in pairs {
                if s.0 as usize >= n_nodes || d.0 as usize >= n_nodes {
                    return Err(r.malformed("reverse index references unknown node"));
                }
                indexed.insert((l as u32, s.0, d.0));
            }
        }
        // The index tolerates stale entries but never missing ones: every
        // cached pair must be registered under every link it traverses,
        // or a later link-down would fail to evict it. Checked in pair
        // order, so a corrupt snapshot always reports the same pair.
        let mut cached: Vec<(&(NodeId, NodeId), &Vec<Path>)> = cache.iter().collect();
        cached.sort_unstable_by_key(|&(pair, _)| *pair);
        for (&(s, d), paths) in cached {
            for p in paths {
                for &l in p.links() {
                    if !indexed.contains(&(l.0, s.0, d.0)) {
                        return Err(r.malformed(format!(
                            "cached pair ({}, {}) missing from reverse index of link {}",
                            s.0, d.0, l.0
                        )));
                    }
                }
            }
        }
        let avoided_pairs = Vec::<(NodeId, NodeId)>::get(r)?;
        for &(s, d) in &avoided_pairs {
            if s.0 as usize >= n_nodes || d.0 as usize >= n_nodes {
                return Err(r.malformed("avoided pair references unknown node"));
            }
        }
        let down = Vec::<LinkId>::get(r)?;
        for win in down.windows(2) {
            if win[1] <= win[0] {
                return Err(r.malformed("down-link set not sorted/unique"));
            }
        }
        let mut down_links = FastSet::with_capacity_and_hasher(down.len(), FastState::default());
        for &l in &down {
            if l.0 as usize >= n_links {
                return Err(r.malformed(format!("down link {} out of range", l.0)));
            }
            down_links.insert(l);
        }
        let load_ewma_bps = Vec::<f64>::get(r)?;
        if load_ewma_bps.len() != n_links {
            return Err(r.malformed("EWMA table length != link count"));
        }
        for &v in &load_ewma_bps {
            if !v.is_finite() || v < 0.0 {
                return Err(r.malformed("non-finite or negative EWMA load"));
            }
        }
        let rng = get_rng(r)?;
        let stats = ControllerStats::get(r)?;
        self.path_cache = cache;
        self.link_pairs = link_pairs;
        self.avoided_pairs = avoided_pairs;
        self.down_links = down_links;
        self.load_ewma_bps = load_ewma_bps;
        self.rng = rng;
        self.stats = stats;
        // The restored cache is a wholesale replacement: any geometry a
        // caller derived from the pre-restore paths is void.
        self.paths_epoch += 1;
        Ok(())
    }
}

impl Persist for ControllerStats {
    fn put(&self, w: &mut SectionWriter) {
        self.rules_issued.put(w);
        self.path_cache_recomputes.put(w);
        self.path_cache_invalidations.put(w);
        self.load_updates.put(w);
        self.rules_failed.put(w);
        self.rules_timed_out.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(ControllerStats {
            rules_issued: u64::get(r)?,
            path_cache_recomputes: u64::get(r)?,
            path_cache_invalidations: u64::get(r)?,
            load_updates: u64::get(r)?,
            rules_failed: u64::get(r)?,
            rules_timed_out: u64::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::{build_multi_rack, MultiRackParams};

    fn controller() -> (pythia_netsim::MultiRack, Controller) {
        let mr = build_multi_rack(&MultiRackParams::default());
        let c = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(7),
        );
        (mr, c)
    }

    #[test]
    fn path_cache_covers_all_pairs() {
        let (mr, mut c) = controller();
        for &s in &mr.servers {
            for &d in &mr.servers {
                if s == d {
                    continue;
                }
                let paths = c.paths(s, d);
                assert!(!paths.is_empty(), "no path {s}->{d}");
                let same_rack = mr.topology.node(s).rack() == mr.topology.node(d).rack();
                let expect = if same_rack { 1 } else { 2 };
                assert_eq!(paths.len(), expect, "{s}->{d}");
            }
        }
        // Lazy fill: one computation per ordered pair, each served from
        // the memo afterwards.
        assert_eq!(c.stats.path_cache_recomputes, 90);
        assert_eq!(c.cached_pairs(), 90);
        let _ = c.paths(mr.servers[0], mr.servers[5]);
        assert_eq!(c.stats.path_cache_recomputes, 90);
    }

    #[test]
    fn warm_all_pairs_fills_cache() {
        let (_, mut c) = controller();
        assert_eq!(c.cached_pairs(), 0);
        c.warm_all_pairs();
        assert_eq!(c.cached_pairs(), 90);
        assert_eq!(c.stats.path_cache_recomputes, 90);
        c.warm_all_pairs(); // idempotent
        assert_eq!(c.stats.path_cache_recomputes, 90);
    }

    #[test]
    fn unrelated_link_event_invalidates_nothing() {
        let (mr, mut c) = controller();
        // Same-rack pair: its paths never touch the inter-rack trunks.
        assert_eq!(c.paths(mr.servers[0], mr.servers[1]).len(), 1);
        let recomputes = c.stats.path_cache_recomputes;
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        c.on_link_state(trunk0, false);
        assert_eq!(c.stats.path_cache_invalidations, 0);
        // Still cached: re-querying recomputes nothing.
        assert_eq!(c.paths(mr.servers[0], mr.servers[1]).len(), 1);
        assert_eq!(c.stats.path_cache_recomputes, recomputes);
        // Restoring the trunk invalidates nothing either — the pair was
        // computed on the pristine topology.
        c.on_link_state(trunk0, true);
        let _ = c.paths(mr.servers[0], mr.servers[1]);
        assert_eq!(c.stats.path_cache_recomputes, recomputes);
    }

    #[test]
    fn link_failure_invalidates_only_traversing_pairs() {
        let (mr, mut c) = controller();
        c.warm_all_pairs();
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        c.on_link_state(trunk0, false);
        // Forward trunk: only rack0→rack1 pairs traverse it (5×5 pairs).
        assert_eq!(c.stats.path_cache_invalidations, 25);
        assert_eq!(c.cached_pairs(), 90 - 25);
    }

    #[test]
    fn install_path_emits_one_rule_per_switch() {
        let (mr, mut c) = controller();
        let path = c.paths(mr.servers[0], mr.servers[5])[0].clone();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[5]);
        let pending = c.install_path(m, &path, 10);
        // 3-hop path: server→tor0 (rule at... server skipped), tor0→tor1,
        // tor1→server: rules at tor0 and tor1.
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].switch, mr.tors[0]);
        assert_eq!(pending[1].switch, mr.tors[1]);
        for p in &pending {
            assert!(p.delay >= SimDuration::from_millis(3));
            assert!(p.delay <= SimDuration::from_millis(5));
            assert_eq!(p.rule.matcher, m);
        }
        assert_eq!(c.stats.rules_issued, 2);
    }

    #[test]
    fn link_failure_removes_paths_and_recovers() {
        let (mr, mut c) = controller();
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        c.on_link_state(trunk0, false);
        let paths = c.paths(mr.servers[0], mr.servers[5]);
        assert_eq!(paths.len(), 1, "one trunk left");
        assert!(!paths[0].contains_link(trunk0));
        c.on_link_state(trunk0, true);
        assert_eq!(c.paths(mr.servers[0], mr.servers[5]).len(), 2);
        // Redundant event does not recompute.
        let recomputes = c.stats.path_cache_recomputes;
        c.on_link_state(trunk0, true);
        assert_eq!(c.stats.path_cache_recomputes, recomputes);
    }

    #[test]
    fn ewma_converges_toward_samples() {
        let (mr, mut c) = controller();
        let l = mr.trunk_links[0];
        for _ in 0..50 {
            c.observe_link_load(l, 5e9);
        }
        assert!((c.link_load_bps(l) - 5e9).abs() < 1e7);
        // One zero sample pulls it down by α.
        c.observe_link_load(l, 0.0);
        assert!((c.link_load_bps(l) - 0.7 * 5e9).abs() < 1e7);
    }

    #[test]
    fn path_available_uses_bottleneck() {
        let (mr, mut c) = controller();
        let path = c.paths(mr.servers[0], mr.servers[5])[0].clone();
        // Unloaded: available = NIC capacity (1 Gb/s bottleneck).
        assert!((c.path_available_bps(&path) - 1e9).abs() < 1.0);
        // Load the trunk link with 9.5 Gb/s: available drops to 0.5 Gb/s.
        let trunk = path.links()[1];
        for _ in 0..200 {
            c.observe_link_load(trunk, 9.5e9);
        }
        assert!((c.path_available_bps(&path) - 0.5e9).abs() < 1e6);
    }

    #[test]
    fn deterministic_install_latencies() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let mk = || {
            Controller::new(
                mr.topology.clone(),
                ControllerConfig::default(),
                &RngFactory::new(99),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let path = a.paths(mr.servers[0], mr.servers[5])[0].clone();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[5]);
        let da: Vec<_> = a
            .install_path(m, &path, 1)
            .iter()
            .map(|p| p.delay)
            .collect();
        let db: Vec<_> = b
            .install_path(m, &path, 1)
            .iter()
            .map(|p| p.delay)
            .collect();
        assert_eq!(da, db);
    }

    #[test]
    fn install_faults_drop_or_delay_rules() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let cfg = ControllerConfig {
            install_fail_prob: 0.5,
            install_timeout_prob: 0.5,
            install_timeout: SimDuration::from_millis(500),
            ..Default::default()
        };
        let mut c = Controller::new(mr.topology.clone(), cfg, &RngFactory::new(5));
        let path = c.paths(mr.servers[0], mr.servers[5])[0].clone();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[5]);
        let mut emitted = 0usize;
        let mut delayed = 0usize;
        for _ in 0..200 {
            for p in c.install_path(m, &path, 1) {
                emitted += 1;
                if p.delay == SimDuration::from_millis(500) {
                    delayed += 1;
                }
            }
        }
        assert_eq!(c.stats.rules_issued, 400, "2 switch hops × 200 installs");
        assert!(c.stats.rules_failed > 0, "p=0.5 must drop some");
        assert!(c.stats.rules_timed_out > 0, "p=0.5 must stall some");
        assert_eq!(emitted, 400 - c.stats.rules_failed as usize);
        assert_eq!(delayed, c.stats.rules_timed_out as usize);
    }

    #[test]
    fn zero_fault_probs_change_nothing() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let mk = |cfg| Controller::new(mr.topology.clone(), cfg, &RngFactory::new(99));
        let mut base = mk(ControllerConfig::default());
        let mut gated = mk(ControllerConfig {
            install_fail_prob: 0.0,
            install_timeout_prob: 0.0,
            ..Default::default()
        });
        let path = base.paths(mr.servers[0], mr.servers[5])[0].clone();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[5]);
        for _ in 0..20 {
            let da: Vec<_> = base
                .install_path(m, &path, 1)
                .iter()
                .map(|p| p.delay)
                .collect();
            let db: Vec<_> = gated
                .install_path(m, &path, 1)
                .iter()
                .map(|p| p.delay)
                .collect();
            assert_eq!(da, db, "zero probs must not consume extra randomness");
        }
    }

    fn controller_state_bytes(c: &Controller) -> Vec<u8> {
        let mut w = pythia_snapshot::Writer::new();
        w.section("controller", |s| c.put_state(s));
        w.finish()
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let (mr, mut c) = controller();
        // Dirty every piece of mutable state: memo fills, an EWMA sample,
        // RNG draws, a link-down with its invalidations.
        c.paths(mr.servers[0], mr.servers[5]);
        c.paths(mr.servers[3], mr.servers[8]);
        c.observe_link_load(LinkId(0), 0.4e9);
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[5]);
        let p = c.paths(mr.servers[0], mr.servers[5])[0].clone();
        c.install_path(m, &p, 10);
        let trunk0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        c.on_link_state(trunk0, false);
        c.paths(mr.servers[1], mr.servers[6]); // computed under avoidance

        let bytes = controller_state_bytes(&c);
        let (_, mut r) = controller(); // fresh, same config/seed
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("controller")
            .unwrap();
        r.restore_state(&mut sec).unwrap();
        sec.finish().unwrap();

        // Snapshot of the restored controller is byte-identical.
        assert_eq!(controller_state_bytes(&r), bytes);
        // Future behavior matches: an uncached pair computes the same
        // paths, and the install-latency RNG stream continues in step.
        for ctl in [&mut c, &mut r] {
            ctl.paths(mr.servers[2], mr.servers[9]);
        }
        assert_eq!(
            c.paths(mr.servers[2], mr.servers[9])
                .iter()
                .map(|p| p.links().to_vec())
                .collect::<Vec<_>>(),
            r.paths(mr.servers[2], mr.servers[9])
                .iter()
                .map(|p| p.links().to_vec())
                .collect::<Vec<_>>(),
        );
        let da: Vec<_> = c.install_path(m, &p, 10).iter().map(|x| x.delay).collect();
        let db: Vec<_> = r.install_path(m, &p, 10).iter().map(|x| x.delay).collect();
        assert_eq!(da, db, "RNG stream must resume mid-sequence");
        assert_eq!(c.stats.rules_issued, r.stats.rules_issued);
        // Link-up invalidation still works through the restored indices.
        c.on_link_state(trunk0, true);
        r.on_link_state(trunk0, true);
        assert_eq!(
            c.stats.path_cache_invalidations,
            r.stats.path_cache_invalidations
        );
    }

    #[test]
    fn tampered_reverse_index_is_a_typed_error() {
        let (mr, mut c) = controller();
        c.paths(mr.servers[0], mr.servers[5]);
        let bytes = controller_state_bytes(&c);
        // Rebuild the section with an emptied reverse index: restore must
        // reject a cached pair that no link-down could ever evict.
        let mut w = pythia_snapshot::Writer::new();
        w.section("controller", |s| {
            c.link_pairs.iter_mut().for_each(Vec::clear);
            c.put_state(s);
        });
        let broken = w.finish();
        assert_ne!(broken, bytes);
        let (_, mut r) = controller();
        let mut sec = pythia_snapshot::Reader::new(&broken)
            .unwrap()
            .section("controller")
            .unwrap();
        match r.restore_state(&mut sec) {
            Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
