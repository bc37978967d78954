//! The forwarding plane: per-switch flow tables plus a default forwarding
//! policy, resolved hop by hop into the path a flow actually takes.
//!
//! Resolving paths by *walking the tables* (rather than trusting whatever
//! the controller intended) models real SDN behaviour faithfully: if only
//! some of a path's rules have been installed when a flow arrives, the
//! flow takes a hybrid route — matched where rules exist, default-forwarded
//! (ECMP) elsewhere. Pythia's prediction lead time is what makes this case
//! rare; the rule-latency ablation makes it common on purpose.

use pythia_netsim::{FiveTuple, LinkId, NodeId, Path, Topology};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

use crate::flow_table::{FlowRule, FlowTable, TableError};
use crate::match_fields::FlowMatch;

/// Chooses an output link when no flow-table rule matches — the fabric's
/// default behaviour (ECMP in this paper). Implementations live in
/// `pythia-baselines`.
pub trait DefaultForwarding {
    /// Pick one of `candidates` (guaranteed non-empty, all equal-cost
    /// toward the destination) for `tuple` at `node`.
    fn choose(&self, node: NodeId, tuple: &FiveTuple, candidates: &[LinkId]) -> LinkId;

    /// The node-independent part of this policy's per-flow hash, computed
    /// once per path resolution instead of once per hop. Policies that do
    /// not hash the tuple leave the default (0, unused).
    fn tuple_key(&self, tuple: &FiveTuple) -> u64 {
        let _ = tuple;
        0
    }

    /// [`DefaultForwarding::choose`] given the precomputed
    /// [`DefaultForwarding::tuple_key`]. Must return exactly what `choose`
    /// would; the default delegates to it, ignoring the key.
    fn choose_keyed(
        &self,
        node: NodeId,
        key: u64,
        tuple: &FiveTuple,
        candidates: &[LinkId],
    ) -> LinkId {
        let _ = key;
        self.choose(node, tuple, candidates)
    }
}

/// Supplies the equal-cost candidate links out of `node` toward `dst`.
///
/// Borrowed on purpose: path resolution runs on the engine's hot dispatch
/// path, and a `Fn(..) -> Vec<LinkId>` adapter would heap-allocate a
/// fresh candidate list per hop. [`crate::EcmpNextHops`] implements this
/// directly over its precomputed tables.
pub trait CandidateLinks {
    /// Equal-cost next-hop links at `node` toward `dst`; empty when the
    /// node has no route.
    fn candidates(&self, node: NodeId, dst: NodeId) -> &[LinkId];
}

impl<T: CandidateLinks + ?Sized> CandidateLinks for &T {
    fn candidates(&self, node: NodeId, dst: NodeId) -> &[LinkId] {
        (**self).candidates(node, dst)
    }
}

/// Why a flow could not be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No rule matched and the default policy had no candidates (node has
    /// no route toward the destination).
    NoRoute {
        /// Where forwarding dead-ended.
        at: NodeId,
    },
    /// A rule chain or default choices formed a loop.
    ForwardingLoop {
        /// Where the walk exceeded the hop budget.
        at: NodeId,
    },
}

/// The set of switch flow tables.
#[derive(Debug)]
pub struct Dataplane {
    /// Indexed by `NodeId`; `None` for servers, which have no table.
    tables: Vec<Option<FlowTable>>,
    /// Bumped on any rule mutation; memoized resolutions carry the epoch
    /// they were computed under and die with it.
    epoch: u64,
}

impl Dataplane {
    /// Create a flow table of `tcam_capacity` rules on every switch.
    pub fn new(topo: &Topology, tcam_capacity: usize) -> Self {
        let tables = topo
            .nodes()
            .map(|(_, n)| (!n.is_server()).then(|| FlowTable::new(tcam_capacity)))
            .collect();
        Dataplane { tables, epoch: 0 }
    }

    /// The current rule epoch; changes whenever any table may have changed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The flow table of `switch`, if it is a switch.
    pub fn table(&self, switch: NodeId) -> Option<&FlowTable> {
        self.tables.get(switch.0 as usize)?.as_ref()
    }

    /// Mutable access to a switch's flow table. Conservatively bumps the
    /// rule epoch (the caller may mutate through it).
    pub fn table_mut(&mut self, switch: NodeId) -> Option<&mut FlowTable> {
        self.epoch += 1;
        self.tables.get_mut(switch.0 as usize)?.as_mut()
    }

    /// Install `rule` on `switch`.
    pub fn install(&mut self, switch: NodeId, rule: FlowRule) -> Result<(), TableError> {
        self.epoch += 1;
        self.tables
            .get_mut(switch.0 as usize)
            .and_then(Option::as_mut)
            .expect("install on non-switch node")
            .install(rule)
    }

    /// Remove rules matching `matcher` from every switch. Returns the
    /// total number removed.
    pub fn remove_everywhere(&mut self, matcher: &FlowMatch) -> usize {
        self.epoch += 1;
        self.tables
            .iter_mut()
            .flatten()
            .map(|t| t.remove(matcher))
            .sum()
    }

    /// Flush the forwarding state a failed `link` killed: on each switch,
    /// every rule whose matcher has some rule outputting to `link` there —
    /// that rule and its siblings at other priorities, even those
    /// outputting to live links. Rules of the same matcher on other
    /// switches stay. One pass per table. Returns the number removed.
    pub fn remove_rules_via(&mut self, link: LinkId) -> usize {
        self.epoch += 1;
        self.tables
            .iter_mut()
            .flatten()
            .map(|t| t.remove_via(link))
            .sum()
    }

    /// Total rules installed across all switches.
    pub fn total_rules(&self) -> usize {
        self.tables.iter().flatten().map(|t| t.len()).sum()
    }

    /// Resolve the path `tuple` takes from its source host to its
    /// destination host, consulting flow tables first and falling back to
    /// `default` (with `candidates_for` supplying the equal-cost next hops
    /// at each node).
    pub fn resolve_path<D, C>(
        &mut self,
        topo: &Topology,
        tuple: &FiveTuple,
        default: &D,
        candidates_for: &C,
    ) -> Result<Path, ResolveError>
    where
        D: DefaultForwarding + ?Sized,
        C: CandidateLinks + ?Sized,
    {
        let mut tuple_sensitive = false;
        self.resolve_path_tracked(topo, tuple, default, candidates_for, &mut tuple_sensitive)
    }

    /// [`Dataplane::resolve_path`], additionally reporting whether the
    /// resolution depended on anything beyond the (src, dst) pair: a
    /// default-forwarding choice over multiple candidates (ECMP hashes
    /// the full tuple) or a rule matching on ports. When it did not,
    /// the result can be memoized per pair until the rule epoch or the
    /// candidate tables change.
    pub fn resolve_path_tracked<D, C>(
        &mut self,
        topo: &Topology,
        tuple: &FiveTuple,
        default: &D,
        candidates_for: &C,
        tuple_sensitive: &mut bool,
    ) -> Result<Path, ResolveError>
    where
        D: DefaultForwarding + ?Sized,
        C: CandidateLinks + ?Sized,
    {
        let mut links = Vec::new();
        let mut node = tuple.src;
        let mut hops = 0usize;
        let max_hops = topo.num_nodes(); // any simple path is shorter
                                         // Serialize + hash the tuple once; every hop salts this key instead
                                         // of re-deriving it from the tuple bytes.
        let key = default.tuple_key(tuple);
        while node != tuple.dst {
            if hops >= max_hops {
                return Err(ResolveError::ForwardingLoop { at: node });
            }
            hops += 1;
            let out = if let Some(table) = self.tables[node.0 as usize].as_mut() {
                match table.lookup(tuple) {
                    Some(rule) => {
                        if rule.matcher.src_port.is_some() || rule.matcher.dst_port.is_some() {
                            *tuple_sensitive = true;
                        }
                        rule.out_link
                    }
                    None => self.default_choice(
                        node,
                        key,
                        tuple,
                        default,
                        candidates_for,
                        tuple_sensitive,
                    )?,
                }
            } else {
                // Hosts have no tables; they default-forward (single NIC in
                // our topologies, but the policy decides if multi-homed).
                self.default_choice(node, key, tuple, default, candidates_for, tuple_sensitive)?
            };
            debug_assert_eq!(topo.link(out).src, node, "rule outputs a foreign link");
            links.push(out);
            node = topo.link(out).dst;
        }
        Ok(Path::new_unchecked(topo, links))
    }

    /// Serialize the rule epoch, then the switch count and every
    /// `(switch, table)` in switch order.
    pub fn put_state(&self, w: &mut SectionWriter) {
        self.epoch.put(w);
        self.switch_tables().count().put(w);
        for (id, table) in self.switch_tables() {
            id.put(w);
            table.put(w);
        }
    }

    /// Every `(switch, table)`, in switch order.
    fn switch_tables(&self) -> impl Iterator<Item = (NodeId, &FlowTable)> {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((NodeId(i as u32), t.as_ref()?)))
    }

    /// Rebuild a dataplane from [`Dataplane::put_state`] bytes, validating
    /// the switch set and every rule against `topo`.
    pub fn get_state(topo: &Topology, r: &mut SectionReader) -> Result<Dataplane, SnapshotError> {
        let epoch = u64::get(r)?;
        let n = usize::get(r)?;
        let switches = topo.nodes().filter(|(_, node)| !node.is_server()).count();
        let mismatch =
            |r: &SectionReader| r.malformed("dataplane switch set does not match topology");
        if n != switches {
            return Err(mismatch(r));
        }
        let mut tables: Vec<Option<FlowTable>> = vec![None; topo.num_nodes()];
        for _ in 0..n {
            let switch = NodeId::get(r)?;
            let table = FlowTable::get(r)?;
            let is_switch =
                (switch.0 as usize) < topo.num_nodes() && !topo.node(switch).is_server();
            match tables.get_mut(switch.0 as usize).filter(|_| is_switch) {
                Some(slot) if slot.is_none() => *slot = Some(table),
                _ => return Err(mismatch(r)),
            }
        }
        let dp = Dataplane { tables, epoch };
        for (switch, table) in dp.switch_tables() {
            for rule in table.rules() {
                if rule.out_link.0 as usize >= topo.num_links() {
                    return Err(r.malformed(format!(
                        "rule out_link {} out of range on switch {}",
                        rule.out_link.0, switch.0
                    )));
                }
                if topo.link(rule.out_link).src != switch {
                    return Err(r.malformed(format!(
                        "rule on switch {} outputs a foreign link {}",
                        switch.0, rule.out_link.0
                    )));
                }
                for node in [rule.matcher.src, rule.matcher.dst].into_iter().flatten() {
                    if node.0 as usize >= topo.num_nodes() {
                        return Err(r.malformed(format!("rule matches unknown node {}", node.0)));
                    }
                }
            }
        }
        Ok(dp)
    }

    fn default_choice<D, C>(
        &self,
        node: NodeId,
        key: u64,
        tuple: &FiveTuple,
        default: &D,
        candidates_for: &C,
        tuple_sensitive: &mut bool,
    ) -> Result<LinkId, ResolveError>
    where
        D: DefaultForwarding + ?Sized,
        C: CandidateLinks + ?Sized,
    {
        let cands = candidates_for.candidates(node, tuple.dst);
        if cands.is_empty() {
            return Err(ResolveError::NoRoute { at: node });
        }
        if cands.len() > 1 {
            // A real choice: the policy may hash the full 5-tuple.
            *tuple_sensitive = true;
        }
        Ok(default.choose_keyed(node, key, tuple, cands))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::EcmpNextHops;
    use pythia_netsim::{build_multi_rack, MultiRackParams, Protocol};

    /// Deterministic "always the first candidate" policy for tests.
    struct FirstCandidate;
    impl DefaultForwarding for FirstCandidate {
        fn choose(&self, _n: NodeId, _t: &FiveTuple, c: &[LinkId]) -> LinkId {
            c[0]
        }
    }

    fn setup() -> (pythia_netsim::MultiRack, Dataplane, EcmpNextHops) {
        let mr = build_multi_rack(&MultiRackParams::default());
        let dp = Dataplane::new(&mr.topology, 1000);
        let nh = EcmpNextHops::compute(&mr.topology);
        (mr, dp, nh)
    }

    #[test]
    fn default_forwarding_resolves_cross_rack() {
        let (mr, mut dp, nh) = setup();
        let t = FiveTuple::tcp(mr.servers[0], mr.servers[7], 40000, 50060);
        let p = dp
            .resolve_path(&mr.topology, &t, &FirstCandidate, &nh)
            .unwrap();
        assert_eq!(p.src(), mr.servers[0]);
        assert_eq!(p.dst(), mr.servers[7]);
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn installed_rule_overrides_default() {
        let (mr, mut dp, nh) = setup();
        let topo = &mr.topology;
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[7], 40000, 50060);
        // Default (first candidate) picks trunk 0; install a rule at ToR0
        // steering the pair onto trunk 1.
        let trunk1 = topo.find_link(mr.tors[0], mr.tors[1], 1).unwrap();
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 10,
                out_link: trunk1,
            },
        )
        .unwrap();
        let p = dp.resolve_path(topo, &tuple, &FirstCandidate, &nh).unwrap();
        assert!(p.contains_link(trunk1));
        // A different pair still takes the default trunk.
        let other = FiveTuple::tcp(mr.servers[1], mr.servers[7], 40000, 50060);
        let p2 = dp.resolve_path(topo, &other, &FirstCandidate, &nh).unwrap();
        assert!(!p2.contains_link(trunk1));
    }

    #[test]
    fn udp_not_matched_by_server_pair_rule() {
        let (mr, mut dp, nh) = setup();
        let topo = &mr.topology;
        let trunk1 = topo.find_link(mr.tors[0], mr.tors[1], 1).unwrap();
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 10,
                out_link: trunk1,
            },
        )
        .unwrap();
        let udp = FiveTuple {
            proto: Protocol::Udp,
            ..FiveTuple::tcp(mr.servers[0], mr.servers[7], 40000, 50060)
        };
        let p = dp.resolve_path(topo, &udp, &FirstCandidate, &nh).unwrap();
        assert!(!p.contains_link(trunk1));
    }

    #[test]
    fn loop_detected() {
        let (mr, mut dp, nh) = setup();
        let topo = &mr.topology;
        // Install a rule at ToR1 bouncing traffic for server7 back to ToR0.
        let back = topo.find_link(mr.tors[1], mr.tors[0], 0).unwrap();
        dp.install(
            mr.tors[1],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 10,
                out_link: back,
            },
        )
        .unwrap();
        let forward = topo.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 10,
                out_link: forward,
            },
        )
        .unwrap();
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[7], 40000, 50060);
        let err = dp
            .resolve_path(topo, &tuple, &FirstCandidate, &nh)
            .unwrap_err();
        assert!(matches!(err, ResolveError::ForwardingLoop { .. }));
    }

    #[test]
    fn state_round_trip_preserves_lookups_and_epoch() {
        let (mr, mut dp, nh) = setup();
        let topo = &mr.topology;
        let trunk1 = topo.find_link(mr.tors[0], mr.tors[1], 1).unwrap();
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 10,
                out_link: trunk1,
            },
        )
        .unwrap();
        // A removal leaves the lookup index dirty — restore must cope.
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[1], mr.servers[7]),
                priority: 10,
                out_link: trunk1,
            },
        )
        .unwrap();
        dp.remove_everywhere(&FlowMatch::server_pair(mr.servers[1], mr.servers[7]));
        let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[7], 40000, 50060);
        dp.resolve_path(topo, &tuple, &FirstCandidate, &nh).unwrap();

        let mut w = pythia_snapshot::Writer::new();
        w.section("dp", |s| dp.put_state(s));
        let bytes = w.finish();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("dp")
            .unwrap();
        let mut dp2 = Dataplane::get_state(topo, &mut sec).unwrap();
        sec.finish().unwrap();

        assert_eq!(dp2.epoch(), dp.epoch());
        assert_eq!(dp2.total_rules(), dp.total_rules());
        let t1 = dp.table(mr.tors[0]).unwrap();
        let t2 = dp2.table(mr.tors[0]).unwrap();
        assert_eq!((t1.lookups, t1.misses), (t2.lookups, t2.misses));
        // Re-snapshot is byte-identical and forwarding is unchanged.
        let mut w2 = pythia_snapshot::Writer::new();
        w2.section("dp", |s| dp2.put_state(s));
        assert_eq!(w2.finish(), bytes);
        let p = dp2
            .resolve_path(topo, &tuple, &FirstCandidate, &nh)
            .unwrap();
        assert!(p.contains_link(trunk1));
    }

    #[test]
    fn foreign_link_rule_is_a_typed_error() {
        let (mr, mut dp, _) = setup();
        let topo = &mr.topology;
        // A rule on ToR0 outputting ToR1's link is inconsistent state.
        let foreign = topo.find_link(mr.tors[1], mr.servers[7], 0).unwrap();
        dp.install(
            mr.tors[1],
            FlowRule {
                matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                priority: 1,
                out_link: foreign,
            },
        )
        .unwrap();
        let mut w = pythia_snapshot::Writer::new();
        w.section("dp", |s| {
            // Serialize, then re-home the rule under the wrong switch by
            // swapping table bytes: easiest is to build a fresh dataplane
            // whose ToR0 table holds the foreign rule unchecked.
            let mut evil = Dataplane::new(topo, 16);
            evil.tables[mr.tors[0].0 as usize]
                .as_mut()
                .unwrap()
                .install(FlowRule {
                    matcher: FlowMatch::server_pair(mr.servers[0], mr.servers[7]),
                    priority: 1,
                    out_link: foreign,
                })
                .unwrap();
            evil.put_state(s);
        });
        let bytes = w.finish();
        let mut sec = pythia_snapshot::Reader::new(&bytes)
            .unwrap()
            .section("dp")
            .unwrap();
        match Dataplane::get_state(topo, &mut sec) {
            Err(pythia_snapshot::SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn remove_rules_via_takes_the_dead_matchers_siblings() {
        let (mr, mut dp, _) = setup();
        let topo = &mr.topology;
        let dead = topo.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let live = topo.find_link(mr.tors[0], mr.tors[1], 1).unwrap();
        let down = topo.find_link(mr.tors[1], mr.servers[7], 0).unwrap();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[7]);
        let other = FlowMatch::server_pair(mr.servers[1], mr.servers[7]);
        let rules = [
            // Through the dead trunk.
            (mr.tors[0], m, 10, dead),
            // Same matcher at another priority on a live trunk: its
            // matcher has a rule through the dead link, so it goes too.
            (mr.tors[0], m, 20, live),
            // Another matcher on the live trunk stays.
            (mr.tors[0], other, 10, live),
            // The same matcher on another switch stays.
            (mr.tors[1], m, 10, down),
        ];
        for (switch, matcher, priority, out_link) in rules {
            dp.install(
                switch,
                FlowRule {
                    matcher,
                    priority,
                    out_link,
                },
            )
            .unwrap();
        }
        let epoch = dp.epoch();
        assert_eq!(dp.remove_rules_via(dead), 2);
        assert!(dp.epoch() > epoch);
        let tor0: Vec<FlowRule> = dp.table(mr.tors[0]).unwrap().rules().copied().collect();
        assert_eq!(tor0.len(), 1);
        assert_eq!((tor0[0].matcher, tor0[0].out_link), (other, live));
        assert_eq!(dp.table(mr.tors[1]).unwrap().len(), 1);
        assert_eq!(dp.remove_rules_via(dead), 0);
    }

    #[test]
    fn remove_everywhere_counts() {
        let (mr, mut dp, _) = setup();
        let m = FlowMatch::server_pair(mr.servers[0], mr.servers[7]);
        let l0 = mr.topology.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let l1 = mr.topology.find_link(mr.tors[1], mr.servers[7], 0).unwrap();
        dp.install(
            mr.tors[0],
            FlowRule {
                matcher: m,
                priority: 1,
                out_link: l0,
            },
        )
        .unwrap();
        dp.install(
            mr.tors[1],
            FlowRule {
                matcher: m,
                priority: 1,
                out_link: l1,
            },
        )
        .unwrap();
        assert_eq!(dp.total_rules(), 2);
        assert_eq!(dp.remove_everywhere(&m), 2);
        assert_eq!(dp.total_rules(), 0);
    }
}
