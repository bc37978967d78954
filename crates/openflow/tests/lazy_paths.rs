//! Property tests for the lazy path cache and the structural Clos
//! enumerator: the lazy controller must be observationally identical to
//! the old eager all-pairs Yen controller, and structural enumeration on
//! fat-trees must produce exactly the equal-cost path sets the topology
//! guarantees by symmetry.

use proptest::prelude::*;
use pythia_des::{FastSet, RngFactory};
use pythia_netsim::{build_fat_tree, build_multi_rack, FatTreeParams, MultiRackParams};
use pythia_openflow::{
    clos_paths, k_shortest_paths_avoiding, Controller, ControllerConfig, EcmpNextHops,
};

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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On arbitrary multi-rack topologies (no Clos structure, Yen
    /// backend) the lazy cache returns byte-identical paths, in the same
    /// order, as a direct eager Yen call — for every ordered pair.
    #[test]
    fn lazy_equals_eager_on_random_topologies(p in params(), k in 1usize..5) {
        let mr = build_multi_rack(&p);
        let cfg = ControllerConfig { k_paths: k, ..ControllerConfig::default() };
        let mut ctl = Controller::new(mr.topology.clone(), cfg, &RngFactory::new(1));
        let empty = FastSet::default();
        for &s in mr.servers.iter() {
            for &d in mr.servers.iter() {
                if s == d {
                    continue;
                }
                let eager = k_shortest_paths_avoiding(&mr.topology, s, d, k, &empty);
                let lazy: Vec<_> = ctl.paths(s, d).to_vec();
                prop_assert_eq!(&lazy, &eager, "pair {:?}->{:?}", s, d);
            }
        }
    }

    /// Memoization is deterministic: a second read returns the same
    /// paths and computes nothing new.
    #[test]
    fn memoized_reads_are_stable(p in params()) {
        let mr = build_multi_rack(&p);
        let mut ctl = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(1),
        );
        let src = mr.servers[0];
        let dst = *mr.servers.last().unwrap();
        let first: Vec<_> = ctl.paths(src, dst).to_vec();
        let computed = ctl.stats.path_cache_recomputes;
        let second: Vec<_> = ctl.paths(src, dst).to_vec();
        prop_assert_eq!(first, second);
        prop_assert_eq!(ctl.stats.path_cache_recomputes, computed);
    }

    /// After failing and restoring a trunk, the lazy cache converges
    /// back to exactly the eager pristine-topology answer.
    #[test]
    fn cache_converges_after_fault_cycle(p in params(), trunk in 0usize..8) {
        let mr = build_multi_rack(&p);
        let mut ctl = Controller::new(
            mr.topology.clone(),
            ControllerConfig::default(),
            &RngFactory::new(1),
        );
        let src = mr.servers[0];
        let dst = *mr.servers.last().unwrap();
        let pristine: Vec<_> = ctl.paths(src, dst).to_vec();
        let t = mr.trunk_links[trunk % mr.trunk_links.len()];
        ctl.on_link_state(t, false);
        // Paths while degraded must avoid the dead link.
        for path in ctl.paths(src, dst).to_vec() {
            prop_assert!(!path.links().contains(&t));
        }
        ctl.on_link_state(t, true);
        prop_assert_eq!(ctl.paths(src, dst).to_vec(), pristine);
    }
}

/// Structural invariants the fat-tree enumerator must guarantee, checked
/// exhaustively over a server sample for k=4 and k=8.
#[test]
fn structural_invariants_on_fat_trees() {
    for arity in [4u32, 8] {
        let mr = build_fat_tree(&FatTreeParams {
            k: arity,
            ..FatTreeParams::default()
        });
        let clos = mr.clos.as_ref().expect("fat-tree records Clos structure");
        let w = (arity / 2) as usize;
        let k_paths = w; // request exactly the trunk-disjoint count
        let sample: Vec<_> = mr.servers.iter().copied().step_by(3).collect();
        for &s in &sample {
            for &d in &sample {
                if s == d {
                    continue;
                }
                let paths = clos_paths(&mr.topology, clos, s, d, k_paths)
                    .expect("server pairs enumerate structurally");
                assert!(!paths.is_empty());
                assert!(paths.len() <= k_paths.max(1));
                // All equal length; length determined by locality.
                let hops = paths[0].hops();
                assert!(paths.iter().all(|p| p.hops() == hops));
                assert!(matches!(hops, 2 | 4 | 6), "unexpected hop count {hops}");
                // Pairwise distinct, valid, loop-free.
                let mut seen = FastSet::default();
                for p in &paths {
                    assert_eq!(p.src(), s);
                    assert_eq!(p.dst(), d);
                    pythia_netsim::Path::new(&mr.topology, p.links().to_vec()).unwrap();
                    assert!(seen.insert(p.links().to_vec()), "duplicate path");
                }
                // The first w paths share no interior (non-NIC) link:
                // trunk-disjointness is what gives ECMP its spreading.
                if hops > 2 {
                    let mut interior = FastSet::default();
                    for p in paths.iter().take(w) {
                        for &l in &p.links()[1..p.links().len() - 1] {
                            assert!(interior.insert(l), "trunk link shared between paths");
                        }
                    }
                }
                // Yen agrees on the minimum: structural paths are all
                // shortest paths, so Yen's best path has the same hops.
                let yen =
                    k_shortest_paths_avoiding(&mr.topology, s, d, k_paths, &FastSet::default());
                assert_eq!(yen[0].hops(), hops, "structural paths are not shortest");
                assert_eq!(
                    yen.len(),
                    paths.len(),
                    "structural and Yen disagree on path count"
                );
            }
        }
    }
}

/// The lazy controller on a fat-tree serves structurally enumerated
/// paths while pristine, and falls back to Yen-with-avoidance while
/// links are down — both verified against direct calls.
#[test]
fn controller_structural_and_fallback_agree() {
    let mr = build_fat_tree(&FatTreeParams::default());
    let clos = mr.clos.clone().unwrap();
    let cfg = ControllerConfig::default();
    let k = cfg.k_paths;
    let mut ctl = Controller::with_clos(
        mr.topology.clone(),
        Some(clos.clone()),
        cfg,
        &RngFactory::new(1),
    );
    let src = mr.servers[0];
    let dst = *mr.servers.last().unwrap();
    let served: Vec<_> = ctl.paths(src, dst).to_vec();
    let structural = clos_paths(&mr.topology, &clos, src, dst, k).unwrap();
    assert_eq!(served, structural);

    // Kill the first path's core uplink: the served paths must now come
    // from Yen avoiding that link.
    let dead = structural[0].links()[2];
    ctl.on_link_state(dead, false);
    let degraded: Vec<_> = ctl.paths(src, dst).to_vec();
    let mut avoid = FastSet::default();
    avoid.insert(dead);
    assert_eq!(
        degraded,
        k_shortest_paths_avoiding(&mr.topology, src, dst, k, &avoid)
    );
    ctl.on_link_state(dead, true);
    assert_eq!(ctl.paths(src, dst).to_vec(), structural);
}

/// The BFS-based ECMP next-hop table on a fat-tree offers exactly the
/// w core-bound uplinks at each edge switch for inter-pod destinations.
#[test]
fn ecmp_next_hops_fat_tree_diversity() {
    let mr = build_fat_tree(&FatTreeParams::default());
    let clos = mr.clos.as_ref().unwrap();
    let nh = EcmpNextHops::compute(&mr.topology);
    let w = 2usize;
    let src = mr.servers[0];
    let dst = *mr.servers.last().unwrap();
    let (edge, _) = clos.host_up(src).unwrap();
    let cands = nh.candidates(edge, dst);
    assert_eq!(
        cands.len(),
        w,
        "edge switch should spread inter-pod traffic over its {w} aggs"
    );
}
