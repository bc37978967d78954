//! The predictive flow-allocation module (§IV).
//!
//! Multi-commodity flow is NP-complete for unsplittable flows, so the
//! paper uses a **first-fit bin-packing heuristic**: aggregated predicted
//! transfers are assigned, largest-demand-first, to the k-shortest path
//! with the **highest available bandwidth**, where "available" subtracts
//! the *background* load (known from the link-load service, with Pythia's
//! own shuffle traffic differentiated out using application knowledge)
//! and the predicted shuffle volume already planned onto the path.
//!
//! Our concrete realization of "highest available bandwidth" for a
//! size-aware packer: place the transfer where its **estimated completion
//! time** — `(bytes already planned across the path's bottleneck + this
//! transfer) / residual bandwidth` — is smallest. With an empty plan this
//! degenerates to exactly "the path with the highest residual bandwidth";
//! with a non-empty plan it is greedy makespan (LPT) packing, which is
//! what first-fit-decreasing achieves on bins.
//!
//! Flow *criticality* (the differentiator the paper claims over FlowComb,
//! §VI) enters through the demand volumes themselves: pairs feeding
//! heavily-loaded reducers carry more outstanding bytes, and the packer
//! sizes their share of the fabric accordingly.
//!
//! Candidates are passed as two parallel slices — `paths: &[Path]`
//! (typically borrowed straight from the controller's memoized k-shortest
//! set) and `resids: &[f64]` — so the steady-state control loop never
//! clones a `Path` just to score it; the allocator clones only the path
//! it actually assigns.

use pythia_des::FastMap;
use pythia_netsim::persist::{get_path, put_path};
use pythia_netsim::{LinkId, NodeId, Path, Topology};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

/// Resolve each `(src, dst, parallel_index)` hop against the topology
/// into a candidate [`Path`]. Returns `None` when any hop has no link at
/// the requested index or the sequence is not a valid path — a degraded
/// or non-dumbbell fabric then simply offers fewer candidates (down to
/// [`Placement::NoPath`]) instead of panicking.
pub fn resolve_hops(topo: &Topology, hops: &[(NodeId, NodeId, usize)]) -> Option<Path> {
    let links: Option<Vec<LinkId>> = hops
        .iter()
        .map(|&(a, b, k)| topo.find_link(a, b, k))
        .collect();
    Path::new(topo, links?).ok()
}

/// Result of placing demand for a pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// The pair was idle (or new): it is now assigned to this path and
    /// rules must be (re)installed.
    Assign(Path),
    /// The pair already had outstanding bytes on an installed path; the
    /// new demand joins it, no rule churn.
    Keep,
    /// No candidate paths were offered (disconnected pair).
    NoPath,
}

#[derive(Debug, Clone)]
struct Assignment {
    path: Path,
    outstanding: u64,
}

/// Cached per-pair candidate geometry: the partition of each candidate's
/// links into shared (every candidate crosses them — the NIC access legs)
/// and distinctive (the trunk choice the placement actually controls).
/// Pure path-set derived data, so it stays valid while the caller's
/// `paths_epoch` — bumped by the controller on any path-set invalidation
/// — is unchanged; repeat placements on an unchanged fabric then skip the
/// O(k²·hops) common-link scan of a full `place()`.
#[derive(Debug, Clone)]
struct CandGeometry {
    paths_epoch: u64,
    n_paths: usize,
    /// Candidate `i`'s distinctive links are
    /// `links[offsets[i]..offsets[i+1]]`, in path order — the score
    /// domain of `place`. One flat buffer plus an offset table (instead
    /// of k nested vectors) so epoch refreshes rewrite in place without
    /// touching the heap.
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl CandGeometry {
    /// Geometry for no path set yet: an unreachable candidate count, so
    /// the first [`CandGeometry::refresh`] always refills it (epochs count
    /// up from zero).
    fn empty() -> CandGeometry {
        CandGeometry {
            paths_epoch: 0,
            n_paths: usize::MAX,
            offsets: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Refill from `paths` unless already computed for this epoch.
    fn refresh(&mut self, paths: &[Path], paths_epoch: u64) {
        if self.paths_epoch == paths_epoch && self.n_paths == paths.len() {
            return;
        }
        self.links.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for p in paths {
            self.links.extend(
                p.links()
                    .iter()
                    .copied()
                    .filter(|&l| !paths.iter().all(|q| q.contains_link(l))),
            );
            self.offsets.push(self.links.len() as u32);
        }
        self.paths_epoch = paths_epoch;
        self.n_paths = paths.len();
    }

    /// Links of candidate `i` that *not* every candidate crosses.
    fn distinct(&self, i: usize) -> &[LinkId] {
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Everything the allocator keeps for one pair, in one hash slot, so a
/// stack or a placement costs one probe.
#[derive(Debug, Default)]
struct PairSlot {
    /// The pair's path and outstanding bytes, once it has been placed.
    assignment: Option<Assignment>,
    /// Candidate geometry memo for the epoch-keyed fast path (see
    /// [`CandGeometry`]). Untouched by the plain
    /// [`FlowAllocator::place`]/[`FlowAllocator::reassign`] calls.
    geometry: Option<CandGeometry>,
    /// The pair's index in [`FlowAllocator::active`] while it has
    /// outstanding bytes.
    active_at: Option<u32>,
}

/// The active assignment in `slot`, if the pair has outstanding bytes.
fn active(slot: &mut PairSlot) -> Option<&mut Assignment> {
    slot.assignment.as_mut().filter(|a| a.outstanding > 0)
}

/// The links every candidate crosses, into `scratch` — needed only when
/// no geometry memo is at hand.
fn shared_links<'a>(
    scratch: &'a mut Vec<LinkId>,
    geometry: Option<&CandGeometry>,
    paths: &[Path],
) -> &'a [LinkId] {
    scratch.clear();
    if let (None, Some(first)) = (geometry, paths.first()) {
        scratch.extend(
            first
                .links()
                .iter()
                .copied()
                .filter(|&l| paths.iter().all(|p| p.contains_link(l))),
        );
    }
    scratch
}

/// Planned load at the most-loaded distinctive link of candidate `i`
/// (`path`): from the memo when there is one, else `path`'s links minus
/// the `common` ones — identical link sets either way.
fn distinct_load(
    load: &[u64],
    geometry: Option<&CandGeometry>,
    common: &[LinkId],
    i: usize,
    path: &Path,
) -> u64 {
    match geometry {
        Some(g) => max_load(load, g.distinct(i).iter().copied()),
        None => max_load(
            load,
            path.links().iter().copied().filter(|l| !common.contains(l)),
        ),
    }
}

/// The most-loaded of `links` in `load` (zero for no links).
fn max_load(load: &[u64], links: impl Iterator<Item = LinkId>) -> u64 {
    links.map(|l| table_get(load, l)).max().unwrap_or(0)
}

/// The allocator: pair → path assignments plus per-link planned volume.
/// Pairs are hash-keyed; [`FlowAllocator::active_pairs_into`] and
/// [`FlowAllocator::put_state`], the outputs that walk them, sort first.
#[derive(Debug, Default)]
pub struct FlowAllocator {
    pairs: FastMap<(NodeId, NodeId), PairSlot>,
    /// Pairs with outstanding bytes, in no particular order, each slot
    /// recording its index: a pair joins when its outstanding volume
    /// leaves zero and leaves (by swap-remove) when it returns to zero,
    /// so a sweep walks only these. Derived from `pairs` on restore, not
    /// persisted.
    active: Vec<(NodeId, NodeId)>,
    /// Outstanding predicted bytes planned per link, dense-indexed by
    /// `LinkId` and grown lazily (links never planned onto stay absent).
    planned_link_bytes: Vec<u64>,
    /// Active pairs assigned per link (the size-blind load signal).
    planned_link_pairs: Vec<u64>,
    /// Links shared by every candidate, rebuilt per score; kept here so
    /// the steady-state control loop does not allocate.
    common_scratch: Vec<LinkId>,
    /// When false, placement ignores predicted volumes (FlowComb-like
    /// mode): load is counted in *pairs*, not bytes.
    size_blind: bool,
    /// New path assignments made (rule installs triggered).
    pub placements: u64,
    /// Demands stacked onto an already-active pair (no rule churn).
    pub keeps: u64,
}

/// `table[link] += v`, growing the table on first touch of a link.
fn table_add(table: &mut Vec<u64>, links: &[LinkId], v: u64) {
    for &l in links {
        let i = l.0 as usize;
        if i >= table.len() {
            table.resize(i + 1, 0);
        }
        table[i] += v;
    }
}

/// `table[link] -= v`, saturating; links never grown read as zero.
fn table_sub(table: &mut [u64], links: &[LinkId], v: u64) {
    for &l in links {
        if let Some(s) = table.get_mut(l.0 as usize) {
            *s = s.saturating_sub(v);
        }
    }
}

fn table_get(table: &[u64], l: LinkId) -> u64 {
    table.get(l.0 as usize).copied().unwrap_or(0)
}

impl FlowAllocator {
    /// A size-aware (full Pythia) allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// A FlowComb-like allocator: sees that transfers exist, not how big
    /// they are.
    pub fn new_size_blind() -> Self {
        FlowAllocator {
            size_blind: true,
            ..Self::default()
        }
    }

    /// Stack `bytes` of demand onto `pair` *if it resolves without a
    /// path decision*: an active pair absorbs the demand onto its
    /// installed path (exactly [`Placement::Keep`]), and a zero-byte
    /// demand is a no-op Keep. Returns `false` when the pair is idle or
    /// new — the caller must then gather candidates and [`place`]. This
    /// is the demand-stream fast path: the overwhelmingly common repeat
    /// demand on an unchanged assignment skips candidate-path resolution
    /// and residual reads entirely, with mutations bit-identical to the
    /// Keep branch of a full [`place`] call.
    ///
    /// [`place`]: FlowAllocator::place
    pub fn stack_demand(&mut self, pair: (NodeId, NodeId), bytes: u64) -> bool {
        if bytes == 0 {
            return true;
        }
        match self.pairs.get_mut(&pair).and_then(active) {
            Some(a) => {
                a.outstanding += bytes;
                table_add(&mut self.planned_link_bytes, a.path.links(), bytes);
                self.keeps += 1;
                true
            }
            None => false,
        }
    }

    /// Add `bytes` of predicted demand for `pair`, choosing a path if the
    /// pair is idle. `resids[i]` is candidate `paths[i]`'s residual
    /// (background-free) bandwidth in bits/sec.
    pub fn place(
        &mut self,
        pair: (NodeId, NodeId),
        bytes: u64,
        paths: &[Path],
        resids: &[f64],
    ) -> Placement {
        self.place_impl(pair, bytes, paths, resids, None)
    }

    /// [`FlowAllocator::place`] through the epoch-keyed fast path: the
    /// pair's candidate geometry (common/distinct link partition) is
    /// served from a per-pair memo while `paths_epoch` — the controller's
    /// path-set invalidation counter — is unchanged, skipping the full
    /// candidate scan setup on every repeat placement against an
    /// unchanged fabric. Decisions are bit-identical to [`place`]: the
    /// cached geometry is exactly what the scan would recompute.
    ///
    /// [`place`]: FlowAllocator::place
    pub fn place_epoch(
        &mut self,
        pair: (NodeId, NodeId),
        bytes: u64,
        paths: &[Path],
        resids: &[f64],
        paths_epoch: u64,
    ) -> Placement {
        self.place_impl(pair, bytes, paths, resids, Some(paths_epoch))
    }

    fn place_impl(
        &mut self,
        pair: (NodeId, NodeId),
        bytes: u64,
        paths: &[Path],
        resids: &[f64],
        paths_epoch: Option<u64>,
    ) -> Placement {
        debug_assert_eq!(paths.len(), resids.len());
        if bytes == 0 {
            return Placement::Keep;
        }
        let slot = self.pairs.entry(pair).or_default();
        if let Some(a) = active(slot) {
            // Active pair: stack the demand on the installed path.
            a.outstanding += bytes;
            table_add(&mut self.planned_link_bytes, a.path.links(), bytes);
            self.keeps += 1;
            return Placement::Keep;
        }
        if paths.is_empty() {
            return Placement::NoPath;
        }
        // The load metric per link and the transfer's weight in it: bytes
        // when size-aware, active-pair count when size-blind.
        let (load, weight) = if self.size_blind {
            (&self.planned_link_pairs, 1)
        } else {
            (&self.planned_link_bytes, bytes)
        };
        // Links shared by every candidate (the NIC access legs) carry the
        // transfer no matter what we choose; only the distinctive links
        // (the trunk choice) may enter the score, or a loaded shared leg
        // masks the difference and every tie falls onto the first trunk.
        // Pick the path finishing this transfer earliest over the links
        // the decision actually controls.
        let geometry = match paths_epoch {
            // Fast path: the distinctive-link partition comes from the
            // pair's memo, refreshed if the epoch moved.
            Some(epoch) => {
                let g = slot.geometry.get_or_insert_with(CandGeometry::empty);
                g.refresh(paths, epoch);
                Some(&*g)
            }
            None => None,
        };
        let common = shared_links(&mut self.common_scratch, geometry, paths);
        let mut best: Option<(f64, usize)> = None;
        for (i, (p, &resid)) in paths.iter().zip(resids).enumerate() {
            if resid <= 0.0 {
                continue;
            }
            let planned = distinct_load(load, geometry, common, i, p);
            let eta = (planned + weight) as f64 * 8.0 / resid;
            if best.map(|(b, _)| eta < b).unwrap_or(true) {
                best = Some((eta, i));
            }
        }
        // All candidates fully saturated by background: fall back to the
        // raw highest-residual path (index 0 if every residual is zero).
        let idx = match best {
            Some((_, i)) => i,
            None => resids
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap(),
        };
        let path = paths[idx].clone();
        table_add(&mut self.planned_link_bytes, path.links(), bytes);
        table_add(&mut self.planned_link_pairs, path.links(), 1);
        slot.assignment = Some(Assignment {
            path: path.clone(),
            outstanding: bytes,
        });
        debug_assert!(
            slot.active_at.is_none(),
            "an idle pair is not listed active"
        );
        slot.active_at = Some(self.active.len() as u32);
        self.active.push(pair);
        self.placements += 1;
        Placement::Assign(path)
    }

    /// Re-evaluate an *active* pair after network conditions changed
    /// (background shift, link failure). Moves the pair — returning the
    /// new path — only when the best alternative finishes its remaining
    /// bytes at least `improvement` times faster than the current path
    /// would; hysteresis keeps rule churn bounded.
    pub fn reassign(
        &mut self,
        pair: (NodeId, NodeId),
        paths: &[Path],
        resids: &[f64],
        improvement: f64,
    ) -> Option<Path> {
        self.reassign_impl(pair, paths, resids, improvement, None)
    }

    /// [`FlowAllocator::reassign`] through the epoch-keyed fast path —
    /// same geometry memo as [`FlowAllocator::place_epoch`], same
    /// bit-identical decisions.
    pub fn reassign_epoch(
        &mut self,
        pair: (NodeId, NodeId),
        paths: &[Path],
        resids: &[f64],
        improvement: f64,
        paths_epoch: u64,
    ) -> Option<Path> {
        self.reassign_impl(pair, paths, resids, improvement, Some(paths_epoch))
    }

    fn reassign_impl(
        &mut self,
        pair: (NodeId, NodeId),
        paths: &[Path],
        resids: &[f64],
        improvement: f64,
        paths_epoch: Option<u64>,
    ) -> Option<Path> {
        assert!(improvement >= 1.0);
        debug_assert_eq!(paths.len(), resids.len());
        let PairSlot {
            assignment,
            geometry,
            ..
        } = self.pairs.get_mut(&pair)?;
        let a = assignment.as_mut().filter(|a| a.outstanding > 0)?;
        let outstanding = a.outstanding;
        // Score without this pair's own planned bytes.
        table_sub(&mut self.planned_link_bytes, a.path.links(), outstanding);
        let geometry = match paths_epoch {
            Some(epoch) if !paths.is_empty() => {
                let g = geometry.get_or_insert_with(CandGeometry::empty);
                g.refresh(paths, epoch);
                Some(&*g)
            }
            _ => None,
        };
        let common = shared_links(&mut self.common_scratch, geometry, paths);
        let (load, weight) = if self.size_blind {
            (&self.planned_link_pairs, 1)
        } else {
            (&self.planned_link_bytes, outstanding)
        };
        // `i` is the candidate's index (its distinctive links in the
        // memo); the slow path filters against `common` instead —
        // identical link sets either way.
        let eta = |i: usize, path: &Path, resid: f64| -> f64 {
            if resid <= 0.0 {
                return f64::INFINITY;
            }
            (distinct_load(load, geometry, common, i, path) + weight) as f64 * 8.0 / resid
        };
        let current = &a.path;
        let current_eta = paths
            .iter()
            .zip(resids)
            .enumerate()
            .find(|(_, (p, _))| p.links() == current.links())
            .map(|(i, (p, &r))| eta(i, p, r))
            .unwrap_or(f64::INFINITY);
        let best = paths
            .iter()
            .zip(resids)
            .enumerate()
            .map(|(i, (p, &r))| (eta(i, p, r), p))
            .min_by(|a, b| a.0.total_cmp(&b.0));
        let moved = match best {
            Some((best_eta, p))
                if p.links() != current.links()
                    && best_eta.is_finite()
                    && best_eta * improvement < current_eta =>
            {
                Some(p.clone())
            }
            _ => None,
        };
        match &moved {
            Some(path) => {
                table_add(&mut self.planned_link_bytes, path.links(), outstanding);
                table_sub(&mut self.planned_link_pairs, a.path.links(), 1);
                table_add(&mut self.planned_link_pairs, path.links(), 1);
                a.path = path.clone();
                self.placements += 1;
            }
            None => table_add(&mut self.planned_link_bytes, a.path.links(), outstanding),
        }
        moved
    }

    /// Active pairs (outstanding > 0), in deterministic order.
    pub fn active_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        self.active_pairs_into(&mut out);
        out
    }

    /// [`FlowAllocator::active_pairs`] into a caller-owned buffer, so the
    /// periodic reassignment sweep can reuse one allocation.
    /// Sorted: the order decides the reassignment sweep's rule order.
    pub fn active_pairs_into(&self, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        out.extend_from_slice(&self.active);
        out.sort_unstable();
    }

    /// Drop `active[i]` (a pair that just went idle) and re-index the
    /// pair moved into its place.
    fn deactivate(&mut self, i: u32) {
        self.active.swap_remove(i as usize);
        if let Some(moved) = self.active.get(i as usize) {
            let slot = self
                .pairs
                .get_mut(moved)
                .expect("an active pair has a slot");
            slot.active_at = Some(i);
        }
    }

    /// A fetch belonging to `pair` completed; remove its predicted bytes
    /// from the plan.
    pub fn drain(&mut self, pair: (NodeId, NodeId), bytes: u64) {
        let Some(slot) = self.pairs.get_mut(&pair) else {
            return;
        };
        let Some(a) = slot.assignment.as_mut() else {
            return;
        };
        let drained = bytes.min(a.outstanding);
        a.outstanding -= drained;
        table_sub(&mut self.planned_link_bytes, a.path.links(), drained);
        if a.outstanding == 0 {
            table_sub(&mut self.planned_link_pairs, a.path.links(), 1);
            if let Some(i) = slot.active_at.take() {
                self.deactivate(i);
            }
        }
    }

    /// Forget a pair entirely (job teardown).
    pub fn remove_pair(&mut self, pair: (NodeId, NodeId)) {
        let Some(slot) = self.pairs.remove(&pair) else {
            return;
        };
        if let Some(a) = slot.assignment {
            table_sub(&mut self.planned_link_bytes, a.path.links(), a.outstanding);
            if a.outstanding > 0 {
                table_sub(&mut self.planned_link_pairs, a.path.links(), 1);
            }
        }
        if let Some(i) = slot.active_at {
            self.deactivate(i);
        }
    }

    fn assignment(&self, pair: (NodeId, NodeId)) -> Option<&Assignment> {
        self.pairs.get(&pair)?.assignment.as_ref()
    }

    /// Current path assignment of a pair, if any.
    pub fn assigned_path(&self, pair: (NodeId, NodeId)) -> Option<&Path> {
        self.assignment(pair).map(|a| &a.path)
    }

    /// Outstanding planned bytes for a pair.
    pub fn outstanding(&self, pair: (NodeId, NodeId)) -> u64 {
        self.assignment(pair).map_or(0, |a| a.outstanding)
    }

    /// Serialize the full plan. The per-link tables are written verbatim
    /// rather than recomputed from assignments: drains saturate and the
    /// pair table decrements only when a pair idles, so the tables carry
    /// history the assignments alone cannot reproduce. Assignments go out
    /// in pair order; geometry memos are caches and stay out.
    pub fn put_state(&self, w: &mut SectionWriter) {
        self.size_blind.put(w);
        let mut assigned: Vec<(&(NodeId, NodeId), &Assignment)> = self
            .pairs
            .iter()
            .filter_map(|(pair, slot)| Some((pair, slot.assignment.as_ref()?)))
            .collect();
        assigned.sort_unstable_by_key(|&(pair, _)| *pair);
        (assigned.len() as u64).put(w);
        for (&(src, dst), a) in assigned {
            src.put(w);
            dst.put(w);
            put_path(w, &a.path);
            a.outstanding.put(w);
        }
        self.planned_link_bytes.put(w);
        self.planned_link_pairs.put(w);
        self.placements.put(w);
        self.keeps.put(w);
    }

    /// Restore the plan onto a freshly constructed allocator of the same
    /// mode, re-validating every assigned path against `topo`.
    pub fn restore_state(
        &mut self,
        topo: &Topology,
        r: &mut SectionReader,
    ) -> Result<(), SnapshotError> {
        let size_blind = bool::get(r)?;
        if size_blind != self.size_blind {
            return Err(r.malformed("allocator mode (size-aware/size-blind) differs"));
        }
        let n = u64::get(r)? as usize;
        let mut pairs: FastMap<(NodeId, NodeId), PairSlot> = FastMap::default();
        for _ in 0..n {
            let src = NodeId::get(r)?;
            let dst = NodeId::get(r)?;
            let path = get_path(topo, r)?;
            let outstanding = u64::get(r)?;
            let links = path.links();
            if links.is_empty() {
                return Err(r.malformed("assignment with an empty path"));
            }
            if topo.link(links[0]).src != src || topo.link(links[links.len() - 1]).dst != dst {
                return Err(r.malformed(format!("assigned path does not join pair {src}->{dst}")));
            }
            let slot = PairSlot {
                assignment: Some(Assignment { path, outstanding }),
                geometry: None,
                active_at: None,
            };
            if pairs.insert((src, dst), slot).is_some() {
                return Err(r.malformed(format!("duplicate assignment for pair {src}->{dst}")));
            }
        }
        let planned_link_bytes = Vec::<u64>::get(r)?;
        let planned_link_pairs = Vec::<u64>::get(r)?;
        if planned_link_bytes.len() > topo.num_links()
            || planned_link_pairs.len() > topo.num_links()
        {
            return Err(r.malformed("planned-link table larger than the topology"));
        }
        // Geometry memos are caches keyed by the caller's epoch counters,
        // which restart from zero after a restore — the slots start cold.
        self.active.clear();
        for (&pair, slot) in pairs.iter_mut() {
            if slot.assignment.as_ref().is_some_and(|a| a.outstanding > 0) {
                slot.active_at = Some(self.active.len() as u32);
                self.active.push(pair);
            }
        }
        self.pairs = pairs;
        self.planned_link_bytes = planned_link_bytes;
        self.planned_link_pairs = planned_link_pairs;
        self.common_scratch.clear();
        self.placements = u64::get(r)?;
        self.keeps = u64::get(r)?;
        Ok(())
    }

    /// Planned bytes at the path's most-loaded link.
    pub fn path_planned_bytes(&self, path: &Path) -> u64 {
        path.links()
            .iter()
            .map(|&l| table_get(&self.planned_link_bytes, l))
            .max()
            .unwrap_or(0)
    }

    /// Outstanding predicted bytes currently planned across `link`.
    pub fn planned_bytes_on_link(&self, link: LinkId) -> u64 {
        table_get(&self.planned_link_bytes, link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::{build_multi_rack, MultiRack, MultiRackParams};

    /// Up to two candidate cross-rack paths (one per trunk) for a server
    /// pair, as parallel `(paths, resids)` slices. Trunks absent from the
    /// fabric (degraded or single-trunk topologies) yield fewer
    /// candidates rather than a panic.
    fn pair_candidates(
        mr: &MultiRack,
        src: usize,
        dst: usize,
        resid0: f64,
        resid1: f64,
    ) -> (Vec<Path>, Vec<f64>) {
        let t = &mr.topology;
        let mk = |trunk: usize| {
            resolve_hops(
                t,
                &[
                    (mr.servers[src], mr.tors[0], 0),
                    (mr.tors[0], mr.tors[1], trunk),
                    (mr.tors[1], mr.servers[dst], 0),
                ],
            )
        };
        let mut paths = Vec::new();
        let mut resids = Vec::new();
        for (p, r) in [(mk(0), resid0), (mk(1), resid1)] {
            if let Some(p) = p {
                paths.push(p);
                resids.push(r);
            }
        }
        (paths, resids)
    }

    fn candidates(mr: &MultiRack, resid0: f64, resid1: f64) -> (Vec<Path>, Vec<f64>) {
        pair_candidates(mr, 0, 5, resid0, resid1)
    }

    fn mr() -> MultiRack {
        build_multi_rack(&MultiRackParams::default())
    }

    fn pair(mr: &MultiRack) -> (NodeId, NodeId) {
        (mr.servers[0], mr.servers[5])
    }

    #[test]
    fn picks_highest_available_bandwidth_when_plan_empty() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 1e9, 5e9);
        match a.place(pair(&mr), 1_000_000, &paths, &resids) {
            Placement::Assign(p) => assert_eq!(p.links(), paths[1].links()),
            other => panic!("expected Assign, got {other:?}"),
        }
    }

    #[test]
    fn balances_load_across_equal_paths() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        // First pair goes somewhere; second pair must take the other trunk
        // (each pair has its own NIC legs; only the trunks are shared).
        let p1 = (mr.servers[0], mr.servers[5]);
        let p2 = (mr.servers[1], mr.servers[6]);
        let (paths1, resids1) = pair_candidates(&mr, 0, 5, 1e9, 1e9);
        let Placement::Assign(path1) = a.place(p1, 100_000_000, &paths1, &resids1) else {
            panic!()
        };
        let (paths2, resids2) = pair_candidates(&mr, 1, 6, 1e9, 1e9);
        let Placement::Assign(path2) = a.place(p2, 100_000_000, &paths2, &resids2) else {
            panic!()
        };
        assert_ne!(
            path1.links()[1],
            path2.links()[1],
            "equal-size transfers must spread across trunks"
        );
    }

    #[test]
    fn size_aware_packing_prefers_emptier_trunk() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        // Big transfer lands on some trunk.
        let (paths, resids) = pair_candidates(&mr, 0, 5, 1e9, 1e9);
        a.place((mr.servers[0], mr.servers[5]), 800_000_000, &paths, &resids);
        // Two small ones should both prefer the other trunk (planned load
        // 800 MB vs 0/100 MB at the shared bottleneck).
        let (paths, resids) = pair_candidates(&mr, 1, 6, 1e9, 1e9);
        let Placement::Assign(p2) =
            a.place((mr.servers[1], mr.servers[6]), 100_000_000, &paths, &resids)
        else {
            panic!()
        };
        let (paths, resids) = pair_candidates(&mr, 2, 7, 1e9, 1e9);
        let Placement::Assign(p3) =
            a.place((mr.servers[2], mr.servers[7]), 100_000_000, &paths, &resids)
        else {
            panic!()
        };
        assert_eq!(p2.links()[1], p3.links()[1]);
        assert_ne!(
            p2.links()[1],
            a.assigned_path((mr.servers[0], mr.servers[5]))
                .unwrap()
                .links()[1]
        );
    }

    #[test]
    fn active_pair_keeps_its_path() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        let p = pair(&mr);
        assert!(matches!(
            a.place(p, 100, &paths, &resids),
            Placement::Assign(_)
        ));
        assert_eq!(a.place(p, 200, &paths, &resids), Placement::Keep);
        assert_eq!(a.outstanding(p), 300);
    }

    #[test]
    fn drained_pair_can_be_reassigned() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        let p = pair(&mr);
        a.place(p, 100, &paths, &resids);
        a.drain(p, 100);
        assert_eq!(a.outstanding(p), 0);
        // Now idle: a new demand re-places (possibly on a new path).
        assert!(matches!(
            a.place(p, 50, &paths, &resids),
            Placement::Assign(_)
        ));
    }

    #[test]
    fn drain_clears_planned_link_bytes() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        let p = pair(&mr);
        let Placement::Assign(path) = a.place(p, 500, &paths, &resids) else {
            panic!()
        };
        let trunk = path.links()[1];
        assert_eq!(a.planned_bytes_on_link(trunk), 500);
        a.drain(p, 500);
        assert_eq!(a.planned_bytes_on_link(trunk), 0);
    }

    #[test]
    fn zero_residual_falls_back_not_crashes() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 0.0, 0.0);
        assert!(matches!(
            a.place(pair(&mr), 100, &paths, &resids),
            Placement::Assign(_)
        ));
    }

    #[test]
    fn no_candidates_reports_no_path() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        assert_eq!(a.place(pair(&mr), 100, &[], &[]), Placement::NoPath);
    }

    #[test]
    fn reassign_moves_pair_off_congested_path() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let p = pair(&mr);
        // Placed when both trunks were free; trunk of the chosen path then
        // collapses to 50 Mb/s while the other has 950 Mb/s.
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        let Placement::Assign(path0) = a.place(p, 1_000_000, &paths, &resids) else {
            panic!()
        };
        let on_first = path0.links() == paths[0].links();
        let (paths, resids) = if on_first {
            candidates(&mr, 0.05e9, 0.95e9)
        } else {
            candidates(&mr, 0.95e9, 0.05e9)
        };
        let moved = a.reassign(p, &paths, &resids, 1.5).expect("must move");
        assert_ne!(moved.links()[1], path0.links()[1]);
        // Planned bytes follow the move.
        assert_eq!(a.planned_bytes_on_link(path0.links()[1]), 0);
        assert_eq!(a.planned_bytes_on_link(moved.links()[1]), 1_000_000);
    }

    #[test]
    fn reassign_hysteresis_keeps_minor_differences() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let p = pair(&mr);
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        a.place(p, 1_000_000, &paths, &resids);
        // 20% better alternative: below the 1.5x bar, stay put.
        let (paths, resids) = candidates(&mr, 1e9, 1.2e9);
        let moved = a.reassign(p, &paths, &resids, 1.5);
        let (paths, resids) = candidates(&mr, 1.2e9, 1e9);
        let moved2 = a.reassign(p, &paths, &resids, 1.5);
        assert!(moved.is_none() || moved2.is_none());
    }

    #[test]
    fn reassign_ignores_idle_and_unknown_pairs() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let p = pair(&mr);
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        assert!(a.reassign(p, &paths, &resids, 1.5).is_none());
        a.place(p, 100, &paths, &resids);
        a.drain(p, 100);
        let (paths, resids) = candidates(&mr, 0.01e9, 1e9);
        assert!(a.reassign(p, &paths, &resids, 1.5).is_none());
    }

    #[test]
    fn active_pairs_lists_only_outstanding() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let p1 = (mr.servers[0], mr.servers[5]);
        let p2 = (mr.servers[1], mr.servers[6]);
        let (paths, resids) = pair_candidates(&mr, 0, 5, 1e9, 1e9);
        a.place(p1, 100, &paths, &resids);
        let (paths, resids) = pair_candidates(&mr, 1, 6, 1e9, 1e9);
        a.place(p2, 100, &paths, &resids);
        a.drain(p2, 100);
        assert_eq!(a.active_pairs(), vec![p1]);
    }

    #[test]
    fn active_set_follows_outstanding_through_every_transition() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let pairs: Vec<(NodeId, NodeId)> =
            (0..4).map(|i| (mr.servers[i], mr.servers[5 + i])).collect();
        for (i, &p) in pairs.iter().enumerate() {
            let (paths, resids) = pair_candidates(&mr, i, 5 + i, 1e9, 1e9);
            assert!(matches!(
                a.place(p, 100, &paths, &resids),
                Placement::Assign(_)
            ));
        }
        assert!(a.stack_demand(pairs[0], 50));
        a.drain(pairs[0], 100); // 50 left: still active
        a.drain(pairs[1], 100); // idle
        a.drain(pairs[1], 100); // draining an idle pair changes nothing
        a.remove_pair(pairs[2]);
        assert_eq!(a.active_pairs(), vec![pairs[0], pairs[3]]);
        // Re-placing the idle pair makes it active again.
        let (paths, resids) = pair_candidates(&mr, 1, 6, 1e9, 1e9);
        a.place(pairs[1], 10, &paths, &resids);
        assert_eq!(a.active_pairs(), vec![pairs[0], pairs[1], pairs[3]]);
        // A restore derives the set from the plan.
        let mut w = pythia_snapshot::Writer::new();
        w.section("a", |s| a.put_state(s));
        let bytes = w.finish();
        let mut r = pythia_snapshot::Reader::new(&bytes).unwrap();
        let mut sec = r.section("a").unwrap();
        let mut b = FlowAllocator::new();
        b.restore_state(&mr.topology, &mut sec).unwrap();
        assert_eq!(b.active_pairs(), a.active_pairs());
        b.drain(pairs[3], 100);
        assert_eq!(b.active_pairs(), vec![pairs[0], pairs[1]]);
    }

    #[test]
    fn single_trunk_fabric_yields_one_candidate_not_a_panic() {
        // Regression: the candidate builder used to unwrap find_link for
        // trunk index 1 and panicked on any non-dumbbell fabric.
        let mr = build_multi_rack(&MultiRackParams {
            trunk_count: 1,
            ..MultiRackParams::default()
        });
        let (paths, resids) = pair_candidates(&mr, 0, 5, 1e9, 1e9);
        assert_eq!(paths.len(), 1);
        let mut a = FlowAllocator::new();
        assert!(matches!(
            a.place((mr.servers[0], mr.servers[5]), 100, &paths, &resids),
            Placement::Assign(_)
        ));
    }

    #[test]
    fn resolve_hops_rejects_missing_and_discontinuous_hops() {
        let mr = mr();
        let t = &mr.topology;
        // Parallel index past the trunk count: no such link.
        assert!(resolve_hops(t, &[(mr.tors[0], mr.tors[1], 9)]).is_none());
        // Hops that do not chain: invalid path.
        assert!(resolve_hops(
            t,
            &[
                (mr.servers[0], mr.tors[0], 0),
                (mr.tors[1], mr.servers[5], 0),
            ],
        )
        .is_none());
        // A well-formed hop list still resolves.
        assert!(resolve_hops(
            t,
            &[
                (mr.servers[0], mr.tors[0], 0),
                (mr.tors[0], mr.tors[1], 0),
                (mr.tors[1], mr.servers[5], 0),
            ],
        )
        .is_some());
    }

    #[test]
    fn epoch_fast_path_matches_plain_place() {
        let mr = mr();
        // Two allocators fed an identical demand stream, one through the
        // epoch-keyed geometry memo: every decision must be identical.
        let mut plain = FlowAllocator::new();
        let mut fast = FlowAllocator::new();
        let demands = [
            (0usize, 5usize, 800_000_000u64),
            (1, 6, 100_000_000),
            (2, 7, 100_000_000),
            (1, 6, 50_000_000),
            (0, 5, 25_000_000),
        ];
        for &(s, d, bytes) in &demands {
            let (paths, resids) = pair_candidates(&mr, s, d, 1e9, 1e9);
            let p = (mr.servers[s], mr.servers[d]);
            assert_eq!(
                plain.place(p, bytes, &paths, &resids),
                fast.place_epoch(p, bytes, &paths, &resids, 7)
            );
        }
        // The reassignment sweep agrees too.
        let p = (mr.servers[1], mr.servers[6]);
        let (paths, resids) = pair_candidates(&mr, 1, 6, 0.05e9, 0.95e9);
        assert_eq!(
            plain.reassign(p, &paths, &resids, 1.5),
            fast.reassign_epoch(p, &paths, &resids, 1.5, 7)
        );
    }

    #[test]
    fn epoch_bump_refreshes_geometry() {
        // The memo must not serve geometry computed for an older path set.
        let mr = mr();
        let mut a = FlowAllocator::new();
        let p = pair(&mr);
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        a.place_epoch(p, 100, &paths, &resids, 1);
        a.drain(p, 100);
        // New epoch, one candidate: geometry rebuilds and the only path
        // wins (stale two-candidate geometry would index out of bounds).
        let single = vec![paths[1].clone()];
        match a.place_epoch(p, 100, &single, &resids[1..2], 2) {
            Placement::Assign(got) => assert_eq!(got.links(), paths[1].links()),
            other => panic!("expected Assign, got {other:?}"),
        }
    }

    #[test]
    fn zero_bytes_is_a_noop() {
        let mr = mr();
        let mut a = FlowAllocator::new();
        let (paths, resids) = candidates(&mr, 1e9, 1e9);
        assert_eq!(a.place(pair(&mr), 0, &paths, &resids), Placement::Keep);
        assert_eq!(a.outstanding(pair(&mr)), 0);
    }
}
