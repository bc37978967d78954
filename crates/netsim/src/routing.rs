//! Paths through the topology.

use std::sync::Arc;

use crate::topology::{LinkId, NodeId, Topology};

/// A directed path: a sequence of links leading from `src` to `dst`.
///
/// Immutable once built, so the link sequence is shared: cloning a path
/// (the allocator's assignment, the controller's candidate sets, a
/// flow's route) bumps a reference count instead of copying links.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    links: Arc<[LinkId]>,
    src: NodeId,
    dst: NodeId,
}

/// Why a link sequence failed path validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// A path needs at least one link.
    Empty,
    /// `links[i].dst != links[i+1].src`.
    Discontinuous {
        /// Index of the first discontinuous link.
        at: usize,
    },
    /// The path visits the same node twice (forwarding loop).
    Loop {
        /// The revisited node.
        node: NodeId,
    },
}

impl Path {
    /// Validate and build a path from a link sequence.
    pub fn new(topo: &Topology, links: Vec<LinkId>) -> Result<Path, PathError> {
        if links.is_empty() {
            return Err(PathError::Empty);
        }
        let src = topo.link(links[0]).src;
        let mut visited = vec![src];
        for i in 0..links.len() {
            let l = topo.link(links[i]);
            if i + 1 < links.len() && l.dst != topo.link(links[i + 1]).src {
                return Err(PathError::Discontinuous { at: i });
            }
            if visited.contains(&l.dst) {
                return Err(PathError::Loop { node: l.dst });
            }
            visited.push(l.dst);
        }
        let dst = topo.link(*links.last().unwrap()).dst;
        Ok(Path {
            links: links.into(),
            src,
            dst,
        })
    }

    /// Build a path without validation. For internal use where the caller
    /// has just produced a known-valid sequence (e.g. Dijkstra back-tracing).
    pub fn new_unchecked(topo: &Topology, links: Vec<LinkId>) -> Path {
        debug_assert!(!links.is_empty());
        let src = topo.link(links[0]).src;
        let dst = topo.link(*links.last().unwrap()).dst;
        Path {
            links: links.into(),
            src,
            dst,
        }
    }

    /// The link sequence, source side first.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// First node of the path.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Last node of the path.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Number of hops (links) on the path.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The node sequence along the path, `src` first.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        out.push(self.src);
        for &l in self.links.iter() {
            out.push(topo.link(l).dst);
        }
        out
    }

    /// The minimum link capacity along the path.
    pub fn bottleneck_capacity(&self, topo: &Topology) -> f64 {
        self.links
            .iter()
            .map(|&l| topo.link(l).capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// True if `l` lies on this path.
    pub fn contains_link(&self, l: LinkId) -> bool {
        self.links.contains(&l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_multi_rack, MultiRackParams};

    #[test]
    fn valid_cross_rack_path() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let t = &mr.topology;
        let s0 = mr.servers[0];
        let s5 = mr.servers[5];
        let up = t.find_link(s0, mr.tors[0], 0).unwrap();
        let trunk = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let down = t.find_link(mr.tors[1], s5, 0).unwrap();
        let p = Path::new(t, vec![up, trunk, down]).unwrap();
        assert_eq!(p.src(), s0);
        assert_eq!(p.dst(), s5);
        assert_eq!(p.hops(), 3);
        assert_eq!(p.bottleneck_capacity(t), 1e9);
        assert_eq!(p.nodes(t), vec![s0, mr.tors[0], mr.tors[1], s5]);
    }

    #[test]
    fn discontinuous_rejected() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let t = &mr.topology;
        let up = t.find_link(mr.servers[0], mr.tors[0], 0).unwrap();
        let down = t.find_link(mr.tors[1], mr.servers[5], 0).unwrap();
        assert_eq!(
            Path::new(t, vec![up, down]),
            Err(PathError::Discontinuous { at: 0 })
        );
    }

    #[test]
    fn empty_rejected() {
        let mr = build_multi_rack(&MultiRackParams::default());
        assert_eq!(Path::new(&mr.topology, vec![]), Err(PathError::Empty));
    }

    #[test]
    fn loop_rejected() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let t = &mr.topology;
        let up = t.find_link(mr.servers[0], mr.tors[0], 0).unwrap();
        let t01 = t.find_link(mr.tors[0], mr.tors[1], 0).unwrap();
        let t10 = t.find_link(mr.tors[1], mr.tors[0], 0).unwrap();
        assert!(matches!(
            Path::new(t, vec![up, t01, t10]),
            Err(PathError::Loop { .. })
        ));
    }
}
