//! Property tests for the routing algorithms on randomized multi-rack
//! topologies, and for the flow table against a naive reference model.

use proptest::prelude::*;
use pythia_des::FastSet;
use pythia_netsim::{build_multi_rack, FiveTuple, LinkId, MultiRackParams, NodeId, Protocol};
use pythia_openflow::{
    k_shortest_paths, k_shortest_paths_avoiding, shortest_path, EcmpNextHops, FlowMatch, FlowRule,
    FlowTable, TableError,
};
use pythia_snapshot::Writer;

fn params() -> impl Strategy<Value = MultiRackParams> {
    (2u32..5, 1u32..6, 1u32..5).prop_map(|(racks, spr, trunks)| MultiRackParams {
        racks,
        servers_per_rack: spr,
        nic_bps: 1e9,
        trunk_count: trunks,
        trunk_bps: 10e9,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's paths: loop-free, valid, unique, sorted by hops, and the
    /// count matches the topology (for cross-rack pairs in a full mesh of
    /// ToRs, k' = min(k, trunk_count) shortest paths of 3 hops exist).
    #[test]
    fn yen_properties(p in params(), k in 1usize..6) {
        let mr = build_multi_rack(&p);
        let src = mr.servers[0];
        let dst = *mr.servers.last().unwrap();
        let paths = k_shortest_paths(&mr.topology, src, dst, k);
        prop_assert!(!paths.is_empty());
        let expected_direct = (p.trunk_count as usize).min(k);
        prop_assert!(paths.len() >= expected_direct, "{} < {expected_direct}", paths.len());
        let mut seen = FastSet::default();
        let mut last_hops = 0;
        for path in &paths {
            prop_assert_eq!(path.src(), src);
            prop_assert_eq!(path.dst(), dst);
            // Validity & loop-freedom via the validating constructor.
            let revalidated =
                pythia_netsim::Path::new(&mr.topology, path.links().to_vec());
            prop_assert!(revalidated.is_ok());
            prop_assert!(seen.insert(path.links().to_vec()), "duplicate path");
            prop_assert!(path.hops() >= last_hops, "not sorted by hops");
            last_hops = path.hops();
        }
    }

    /// Avoiding a set of links really avoids them.
    #[test]
    fn avoidance_is_respected(p in params(), k in 1usize..5, banned_trunk in 0usize..4) {
        let mr = build_multi_rack(&p);
        let src = mr.servers[0];
        let dst = *mr.servers.last().unwrap();
        let banned_trunk = banned_trunk % mr.trunk_links.len();
        let mut banned = FastSet::default();
        banned.insert(mr.trunk_links[banned_trunk]);
        for path in k_shortest_paths_avoiding(&mr.topology, src, dst, k, &banned) {
            for l in path.links() {
                prop_assert!(!banned.contains(l), "banned link used");
            }
        }
    }

    /// Dijkstra distance is minimal: no Yen path is shorter than the
    /// shortest path, and the shortest path matches the topology's
    /// structural distance (2 hops same rack, 3 cross rack).
    #[test]
    fn dijkstra_minimality(p in params()) {
        let mr = build_multi_rack(&p);
        for &dst in mr.servers.iter().skip(1).take(4) {
            let src = mr.servers[0];
            let sp = shortest_path(&mr.topology, src, dst, &FastSet::default(), &FastSet::default())
                .unwrap();
            let same_rack =
                mr.topology.node(src).rack() == mr.topology.node(dst).rack();
            prop_assert_eq!(sp.hops(), if same_rack { 2 } else { 3 });
            for path in k_shortest_paths(&mr.topology, src, dst, 4) {
                prop_assert!(path.hops() >= sp.hops());
            }
        }
    }

    /// ECMP next-hop candidates always make strict forward progress: from
    /// any node, following any candidate toward dst must reach dst.
    #[test]
    fn ecmp_candidates_reach_destination(p in params()) {
        let mr = build_multi_rack(&p);
        let nh = EcmpNextHops::compute(&mr.topology);
        let dst = *mr.servers.last().unwrap();
        for (node, _) in mr.topology.nodes() {
            if node == dst {
                continue;
            }
            let cands = nh.candidates(node, dst);
            prop_assert!(!cands.is_empty(), "no route from {node}");
            for &c in cands {
                // Walk greedily via first candidates; must terminate.
                let mut cur = mr.topology.link(c).dst;
                let mut hops = 1;
                while cur != dst {
                    hops += 1;
                    prop_assert!(hops <= mr.topology.num_nodes(), "walk does not terminate");
                    let next = nh.candidates(cur, dst);
                    prop_assert!(!next.is_empty(), "dead end at {cur}");
                    cur = mr.topology.link(next[0]).dst;
                }
            }
        }
    }
}

/// Naive reference flow table: a Vec scanned for the best match, the
/// duplicate to replace and the rules to remove.
struct RefTable {
    rules: Vec<(FlowRule, u64)>,
    seq: u64,
    capacity: usize,
    lookups: u64,
    misses: u64,
}

impl RefTable {
    fn install(&mut self, rule: FlowRule) -> Result<(), TableError> {
        if let Some(e) = self
            .rules
            .iter_mut()
            .find(|(r, _)| r.matcher == rule.matcher && r.priority == rule.priority)
        {
            e.0 = rule;
            return Ok(());
        }
        if self.rules.len() >= self.capacity {
            return Err(TableError::TableFull {
                capacity: self.capacity,
            });
        }
        self.rules.push((rule, self.seq));
        self.seq += 1;
        Ok(())
    }

    fn remove(&mut self, m: &FlowMatch) -> usize {
        let before = self.rules.len();
        self.rules.retain(|(r, _)| r.matcher != *m);
        before - self.rules.len()
    }

    /// Remove, matcher by matcher, every matcher that has a rule
    /// outputting to `link`.
    fn remove_via(&mut self, link: LinkId) -> usize {
        let dead: Vec<FlowMatch> = self
            .rules
            .iter()
            .filter(|(r, _)| r.out_link == link)
            .map(|(r, _)| r.matcher)
            .collect();
        dead.iter().map(|m| self.remove(m)).sum()
    }

    fn lookup(&mut self, t: &FiveTuple) -> Option<FlowRule> {
        self.lookups += 1;
        let hit = self
            .rules
            .iter()
            .filter(|(r, _)| r.matcher.matches(t))
            .max_by(|(a, sa), (b, sb)| a.priority.cmp(&b.priority).then(sb.cmp(sa)))
            .map(|(r, _)| *r);
        self.misses += hit.is_none() as u64;
        hit
    }

    /// The snapshot a flow table holding these rules must write:
    /// capacity, next sequence, lookup counters, then every rule with its
    /// sequence number in installation order.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.section("table", |s| {
            s.put(&(self.capacity as u64));
            s.put(&self.seq);
            s.put(&self.lookups);
            s.put(&self.misses);
            s.put(&(self.rules.len() as u64));
            for (rule, seq) in &self.rules {
                s.put(rule);
                s.put(seq);
            }
        });
        w.finish()
    }

    /// The `sel`-th resident rule (wrapping), if any.
    fn pick(&self, sel: usize) -> Option<FlowRule> {
        (!self.rules.is_empty()).then(|| self.rules[sel % self.rules.len()].0)
    }
}

/// One step against a flow table.
#[derive(Debug, Clone)]
enum TableOp {
    /// Install a random rule.
    Install(FlowMatch, u16, u32),
    /// Re-install a resident rule's `(matcher, priority)` with a new
    /// action: a replace, which must succeed even when the table is full.
    Replace(usize, u32),
    /// Remove a resident rule's matcher (or a random one when empty),
    /// leaving the lookup index dirty.
    Remove(usize, FlowMatch),
    /// Remove every matcher with a rule through a link, as after that
    /// link failed.
    RemoveVia(u32),
    /// Look a tuple up.
    Lookup(FiveTuple),
}

fn arb_op() -> impl Strategy<Value = TableOp> {
    let install =
        || (arb_match(), 0u16..4, 0u32..8).prop_map(|(m, p, l)| TableOp::Install(m, p, l));
    // Install listed twice: the table should fill (and hit `TableFull`)
    // faster than removals drain it.
    prop_oneof![
        install(),
        install(),
        (any::<usize>(), 0u32..8).prop_map(|(i, l)| TableOp::Replace(i, l)),
        (any::<usize>(), arb_match()).prop_map(|(i, m)| TableOp::Remove(i, m)),
        (0u32..8).prop_map(TableOp::RemoveVia),
        arb_tuple().prop_map(TableOp::Lookup),
    ]
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(0u32..4),
        proptest::option::of(0u32..4),
        proptest::option::of(0u16..3),
        proptest::option::of(0u16..3),
        proptest::option::of(prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)]),
    )
        .prop_map(|(s, d, sp, dp, pr)| FlowMatch {
            src: s.map(NodeId),
            dst: d.map(NodeId),
            src_port: sp,
            dst_port: dp,
            proto: pr,
        })
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (0u32..4, 0u32..4, 0u16..3, 0u16..3, any::<bool>()).prop_map(|(s, d, sp, dp, tcp)| FiveTuple {
        src: NodeId(s),
        dst: NodeId(d),
        src_port: sp,
        dst_port: dp,
        proto: if tcp { Protocol::Tcp } else { Protocol::Udp },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flow table agrees with the naive reference under interleaved
    /// installs, replaces, removes and lookups on a small TCAM: every
    /// install result (`TableFull`, replace-when-full), every removal
    /// count, `len()`, every lookup and the snapshot bytes after every
    /// step. Endpoints, ports and priorities are drawn from small ranges,
    /// so pairs collect chains of several rules. Removals dirty the
    /// lookup index, so installs and lookups after them take the rebuild
    /// path.
    #[test]
    fn flow_table_matches_reference(
        capacity in 1usize..=12,
        ops in proptest::collection::vec(arb_op(), 1..64),
    ) {
        let mut table = FlowTable::new(capacity);
        let mut reference = RefTable { rules: Vec::new(), seq: 0, capacity, lookups: 0, misses: 0 };
        for op in ops {
            match op {
                TableOp::Install(m, prio, link) => {
                    let rule = FlowRule { matcher: m, priority: prio, out_link: LinkId(link) };
                    prop_assert_eq!(table.install(rule), reference.install(rule), "{:?}", rule);
                }
                TableOp::Replace(sel, link) => {
                    if let Some(r) = reference.pick(sel) {
                        let rule = FlowRule { out_link: LinkId(link), ..r };
                        prop_assert_eq!(table.install(rule), Ok(()));
                        prop_assert_eq!(reference.install(rule), Ok(()));
                    }
                }
                TableOp::Remove(sel, m) => {
                    let m = reference.pick(sel).map_or(m, |r| r.matcher);
                    prop_assert_eq!(table.remove(&m), reference.remove(&m), "{:?}", m);
                }
                TableOp::RemoveVia(link) => {
                    let link = LinkId(link);
                    prop_assert_eq!(table.remove_via(link), reference.remove_via(link));
                }
                TableOp::Lookup(t) => {
                    prop_assert_eq!(table.lookup(&t), reference.lookup(&t), "tuple {}", t);
                }
            }
            prop_assert_eq!(table.len(), reference.rules.len());
            let mut w = Writer::new();
            w.section("table", |s| s.put(&table));
            prop_assert_eq!(w.finish(), reference.snapshot());
        }
    }
}
