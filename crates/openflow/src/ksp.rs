//! Routing-graph algorithms: hop-count Dijkstra, Yen's k-shortest paths,
//! and per-destination ECMP next-hop sets.
//!
//! The paper's flow-allocation module computes the k shortest paths among
//! all server pairs at startup via successive Dijkstra calls (§IV) and
//! refreshes them only on topology-change events, keeping routing work off
//! the data path. Parallel links (the two inter-rack cables of the
//! testbed) yield *distinct* equal-length paths, which is exactly what the
//! allocator spreads load across.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use pythia_des::FastSet;
use pythia_netsim::{LinkId, NodeId, Path, Topology};

/// Hop-count Dijkstra from `src` to `dst`, avoiding `banned_links` and
/// `banned_nodes` (needed by Yen's spur computation and by link-failure
/// handling). Ties are broken deterministically by smaller node/link ids.
pub fn shortest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_links: &FastSet<LinkId>,
    banned_nodes: &FastSet<NodeId>,
) -> Option<Path> {
    if src == dst || banned_nodes.contains(&src) || banned_nodes.contains(&dst) {
        return None;
    }
    let n = topo.num_nodes();
    let mut dist = vec![u32::MAX; n];
    let mut parent: Vec<Option<LinkId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    dist[src.0 as usize] = 0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == dst.0 {
            break;
        }
        for &l in topo.out_links(NodeId(u)) {
            if banned_links.contains(&l) {
                continue;
            }
            let v = topo.link(l).dst;
            if banned_nodes.contains(&v) {
                continue;
            }
            let nd = d + 1;
            let vi = v.0 as usize;
            // Strictly-better relaxes only: with the heap ordered by
            // (dist, node id) and links scanned in id order, the chosen
            // parent is deterministic.
            if nd < dist[vi] {
                dist[vi] = nd;
                parent[vi] = Some(l);
                heap.push(Reverse((nd, v.0)));
            }
        }
    }
    if dist[dst.0 as usize] == u32::MAX {
        return None;
    }
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let l = parent[cur.0 as usize].expect("broken parent chain");
        links.push(l);
        cur = topo.link(l).src;
    }
    links.reverse();
    Some(Path::new_unchecked(topo, links))
}

/// Yen's algorithm: up to `k` loop-free shortest paths from `src` to
/// `dst`, ordered by hop count (then by deterministic discovery order).
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    k_shortest_paths_avoiding(topo, src, dst, k, &FastSet::default())
}

/// [`k_shortest_paths`] excluding `avoid_links` (down links after a
/// failure event — the controller's topology-update service feeds these).
pub fn k_shortest_paths_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    avoid_links: &FastSet<LinkId>,
) -> Vec<Path> {
    let mut result: Vec<Path> = Vec::new();
    let no_nodes = FastSet::default();
    let Some(first) = shortest_path(topo, src, dst, avoid_links, &no_nodes) else {
        return result;
    };
    result.push(first);
    // Candidate set; BTreeMap keyed by (hops, link ids) gives deterministic
    // extraction order and free dedup.
    let mut candidates: BTreeMap<(usize, Vec<LinkId>), Path> = BTreeMap::new();
    for _ in 1..k {
        let prev = result.last().unwrap().clone();
        let prev_nodes = prev.nodes(topo);
        for i in 0..prev.hops() {
            let spur_node = prev_nodes[i];
            let root_links: Vec<LinkId> = prev.links()[..i].to_vec();
            // Ban links that would recreate an already-found path with the
            // same root.
            let mut banned_links: FastSet<LinkId> = avoid_links.clone();
            for p in &result {
                if p.links().len() > i && p.links()[..i] == root_links[..] {
                    banned_links.insert(p.links()[i]);
                }
            }
            // Ban root nodes (except the spur node) to keep paths simple.
            let banned_nodes: FastSet<NodeId> = prev_nodes[..i].iter().copied().collect();
            if let Some(spur) = shortest_path(topo, spur_node, dst, &banned_links, &banned_nodes) {
                let mut links = root_links.clone();
                links.extend_from_slice(spur.links());
                let total = Path::new_unchecked(topo, links);
                candidates
                    .entry((total.hops(), total.links().to_vec()))
                    .or_insert(total);
            }
        }
        // Extract the best candidate not already in the result set.
        let mut chosen = None;
        for (key, path) in candidates.iter() {
            if !result.iter().any(|p| p.links() == path.links()) {
                chosen = Some(key.clone());
                break;
            }
        }
        match chosen {
            Some(key) => {
                let path = candidates.remove(&key).unwrap();
                result.push(path);
            }
            None => break,
        }
    }
    result
}

/// Per-destination ECMP next-hop sets: for every (node, destination
/// server), the outgoing links lying on *some* shortest path. This is the
/// forwarding state a conventional ECMP fabric computes from its routing
/// protocol; the ECMP baseline hashes flows across these candidates.
///
/// Stored as one CSR row per (destination server, node) slot so lookups
/// are two array reads and construction is O(servers · (V + E)) — the
/// previous per-layer link sweep was quadratic in the frontier and
/// dominated startup on 1k-server fabrics.
#[derive(Debug, Clone)]
pub struct EcmpNextHops {
    num_nodes: usize,
    /// Destination server → dense row index.
    dst_row: BTreeMap<NodeId, usize>,
    /// CSR offsets: slot = row · num_nodes + node, length slots + 1.
    offsets: Vec<u32>,
    /// Candidate links, grouped by slot, each group in link-id order.
    links: Vec<LinkId>,
}

impl EcmpNextHops {
    /// Compute next-hop sets toward every server in the topology.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_avoiding(topo, &FastSet::default())
    }

    /// [`EcmpNextHops::compute`] excluding `down_links` — what a routing
    /// protocol converges to after a link failure.
    pub fn compute_avoiding(topo: &Topology, down_links: &FastSet<LinkId>) -> Self {
        let n = topo.num_nodes();
        // Reverse adjacency once: incoming (src, link) per node, link order.
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (l, link) in topo.links() {
            if down_links.contains(&l) {
                continue;
            }
            rev[link.dst.0 as usize].push(link.src);
        }
        let servers = topo.servers();
        let mut dst_row = BTreeMap::new();
        let mut offsets = Vec::with_capacity(servers.len() * n + 1);
        offsets.push(0u32);
        let mut links = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for (row, &dst) in servers.iter().enumerate() {
            dst_row.insert(dst, row);
            // Reverse BFS from dst: dist[v] = hops from v to dst.
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst.0 as usize] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                let du = dist[u.0 as usize];
                for &v in &rev[u.0 as usize] {
                    let vi = v.0 as usize;
                    if dist[vi] == u32::MAX {
                        dist[vi] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
            // Candidate links: strictly decreasing distance.
            for (node, _) in topo.nodes() {
                if dist[node.0 as usize] != u32::MAX && node != dst {
                    for &l in topo.out_links(node) {
                        if down_links.contains(&l) {
                            continue;
                        }
                        let v = topo.link(l).dst;
                        if dist[v.0 as usize] != u32::MAX
                            && dist[v.0 as usize] + 1 == dist[node.0 as usize]
                        {
                            links.push(l);
                        }
                    }
                }
                offsets.push(links.len() as u32);
            }
        }
        EcmpNextHops {
            num_nodes: n,
            dst_row,
            offsets,
            links,
        }
    }

    /// Equal-cost candidate out-links at `node` toward `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[LinkId] {
        let Some(&row) = self.dst_row.get(&dst) else {
            return &[];
        };
        let slot = row * self.num_nodes + node.0 as usize;
        let (a, b) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        &self.links[a..b]
    }
}

impl crate::dataplane::CandidateLinks for EcmpNextHops {
    fn candidates(&self, node: NodeId, dst: NodeId) -> &[LinkId] {
        EcmpNextHops::candidates(self, node, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::{build_multi_rack, MultiRackParams};

    #[test]
    fn shortest_cross_rack_is_three_hops() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let p = shortest_path(
            &mr.topology,
            mr.servers[0],
            mr.servers[5],
            &FastSet::default(),
            &FastSet::default(),
        )
        .unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.src(), mr.servers[0]);
        assert_eq!(p.dst(), mr.servers[5]);
    }

    #[test]
    fn same_rack_is_two_hops() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let p = shortest_path(
            &mr.topology,
            mr.servers[0],
            mr.servers[1],
            &FastSet::default(),
            &FastSet::default(),
        )
        .unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn ksp_finds_both_parallel_trunks() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let paths = k_shortest_paths(&mr.topology, mr.servers[0], mr.servers[5], 4);
        // Exactly two 3-hop paths exist (one per trunk cable).
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.hops() == 3));
        assert_ne!(paths[0].links()[1], paths[1].links()[1]);
        // Same first/last hop (single NIC).
        assert_eq!(paths[0].links()[0], paths[1].links()[0]);
        assert_eq!(paths[0].links()[2], paths[1].links()[2]);
    }

    #[test]
    fn ksp_respects_k() {
        let mr = build_multi_rack(&MultiRackParams {
            trunk_count: 4,
            ..Default::default()
        });
        let paths = k_shortest_paths(&mr.topology, mr.servers[0], mr.servers[5], 3);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn ksp_paths_are_unique_and_loop_free() {
        let mr = build_multi_rack(&MultiRackParams {
            racks: 3,
            trunk_count: 2,
            ..Default::default()
        });
        let paths = k_shortest_paths(&mr.topology, mr.servers[0], mr.servers[12], 8);
        for (i, p) in paths.iter().enumerate() {
            let nodes = p.nodes(&mr.topology);
            let mut dedup = nodes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), nodes.len(), "path {i} has a loop");
            for q in &paths[..i] {
                assert_ne!(p.links(), q.links(), "duplicate path {i}");
            }
        }
        // Sorted by hop count.
        for w in paths.windows(2) {
            assert!(w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn banned_link_forces_other_trunk() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let t = &mr.topology;
        let trunk0 = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let (banned, none) = (FastSet::from_iter([trunk0]), FastSet::default());
        let p = shortest_path(t, mr.servers[0], mr.servers[5], &banned, &none).unwrap();
        assert!(!p.contains_link(trunk0));
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn disconnected_returns_none() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let t = &mr.topology;
        // Ban both trunks in the forward direction: rack 0 can't reach rack 1.
        let banned: FastSet<LinkId> = (0..2)
            .map(|i| t.find_link(mr.tors[0], mr.tors[1], i).unwrap())
            .collect();
        let none = FastSet::default();
        assert!(shortest_path(t, mr.servers[0], mr.servers[5], &banned, &none).is_none());
    }

    #[test]
    fn ecmp_next_hops_at_tor() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let nh = EcmpNextHops::compute(&mr.topology);
        // At ToR0 toward a rack-1 server: both trunk links are candidates.
        let cands = nh.candidates(mr.tors[0], mr.servers[5]);
        assert_eq!(cands.len(), 2);
        // At ToR0 toward a rack-0 server: exactly the server's access link.
        let cands0 = nh.candidates(mr.tors[0], mr.servers[0]);
        assert_eq!(cands0.len(), 1);
        assert_eq!(mr.topology.link(cands0[0]).dst, mr.servers[0]);
        // At a server toward anywhere: its single uplink.
        let up = nh.candidates(mr.servers[0], mr.servers[5]);
        assert_eq!(up.len(), 1);
    }
}
