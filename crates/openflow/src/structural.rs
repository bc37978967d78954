//! Structural path enumeration for Clos/fat-tree fabrics.
//!
//! On a canonical k-ary fat-tree every server pair's shortest paths are
//! determined by symmetry: 2 hops under a shared edge switch, 4 hops via
//! any of the pod's `k/2` aggregation switches, 6 hops via any of the
//! `(k/2)²` (aggregation, core) combinations across pods. Enumerating
//! them is O(k·hops) table lookups — no graph search — which is what lets
//! the controller skip Yen's algorithm entirely on pristine Clos fabrics.
//!
//! Path order is deterministic: inter-pod path `i` uses aggregation index
//! `i % (k/2)` and core index `i / (k/2)` within that aggregation's core
//! group, so the first `k/2` paths traverse pairwise-disjoint trunks —
//! the property the allocator's load spreading wants.

use pythia_netsim::{ClosStructure, NodeId, Path, Topology};

/// Enumerate up to `k` equal-length shortest paths from `src` to `dst`
/// using the fat-tree structure alone. Returns `None` when either
/// endpoint is not a structure-known server (caller falls back to Yen);
/// `src == dst` yields an empty list.
pub fn clos_paths(
    topo: &Topology,
    clos: &ClosStructure,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Option<Vec<Path>> {
    if src == dst {
        return Some(Vec::new());
    }
    let (src_edge, src_up) = clos.host_up(src)?;
    let (dst_edge, _) = clos.host_up(dst)?;
    let dst_down = clos.down_link(dst_edge, dst)?;

    // Same edge switch: the unique 2-hop path.
    if src_edge == dst_edge {
        let p = Path::new_unchecked(topo, vec![src_up, dst_down]);
        return Some(vec![p]);
    }

    let src_pod = clos.pod_of_edge(src_edge)?;
    let dst_pod = clos.pod_of_edge(dst_edge)?;
    let w = clos.width();
    let src_uplinks = clos.edge_uplinks(src_edge);

    // Same pod: one 4-hop path per aggregation switch.
    if src_pod == dst_pod {
        let mut out = Vec::with_capacity(k.min(w));
        for &(up, agg) in src_uplinks.iter().take(k) {
            let dn = clos.down_link(agg, dst_edge)?;
            out.push(Path::new_unchecked(topo, vec![src_up, up, dn, dst_down]));
        }
        return Some(out);
    }

    // Inter-pod: 6-hop paths. Path i = (agg index i % w, core i / w within
    // that aggregation's group) — the first w paths are trunk-disjoint.
    let dst_aggs = clos.aggs_of_pod(dst_pod);
    let mut out = Vec::with_capacity(k.min(w * w));
    for i in 0..k.min(w * w) {
        let (ai, ci) = (i % w, i / w);
        let (agg_up, src_agg) = src_uplinks.get(ai).copied()?;
        let (core_up, core) = clos.agg_uplinks(src_agg).get(ci).copied()?;
        let dst_agg = *dst_aggs.get(ai)?;
        let core_dn = clos.down_link(core, dst_agg)?;
        let agg_dn = clos.down_link(dst_agg, dst_edge)?;
        out.push(Path::new_unchecked(
            topo,
            vec![src_up, agg_up, core_up, core_dn, agg_dn, dst_down],
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::{build_fat_tree, FatTreeParams};

    #[test]
    fn same_edge_pair_gets_single_two_hop_path() {
        let mr = build_fat_tree(&FatTreeParams::default());
        let clos = mr.clos.as_ref().unwrap();
        let paths = clos_paths(&mr.topology, clos, mr.servers[0], mr.servers[1], 4).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 2);
    }

    #[test]
    fn intra_pod_pair_gets_one_path_per_agg() {
        let mr = build_fat_tree(&FatTreeParams::default()); // k=4, w=2
        let clos = mr.clos.as_ref().unwrap();
        // servers 0..1 on edge0, 2..3 on edge1 of pod 0.
        let paths = clos_paths(&mr.topology, clos, mr.servers[0], mr.servers[2], 4).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.hops() == 4));
    }

    #[test]
    fn inter_pod_pair_gets_k_paths_disjoint_trunks() {
        let mr = build_fat_tree(&FatTreeParams {
            k: 8,
            ..Default::default()
        }); // w=4
        let clos = mr.clos.as_ref().unwrap();
        let (s, d) = (mr.servers[0], *mr.servers.last().unwrap());
        let paths = clos_paths(&mr.topology, clos, s, d, 4).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.hops() == 6));
        // First w paths share no trunk (switch-to-switch) links.
        let mut seen = pythia_des::FastSet::default();
        for p in &paths {
            for &l in &p.links()[1..p.hops() - 1] {
                assert!(seen.insert(l), "trunk link reused across first w paths");
            }
        }
    }

    #[test]
    fn non_server_endpoint_falls_back() {
        let mr = build_fat_tree(&FatTreeParams::default());
        let clos = mr.clos.as_ref().unwrap();
        assert!(clos_paths(&mr.topology, clos, mr.tors[0], mr.servers[0], 4).is_none());
    }
}
