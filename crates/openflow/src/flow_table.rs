//! A switch's flow table.
//!
//! Rules carry a priority; lookup returns the highest-priority matching
//! rule, with insertion order as the deterministic tie-break (matching
//! OpenFlow's "the switch may pick any overlapping rule of equal priority"
//! by pinning one reproducible choice).
//!
//! The table has finite capacity, modelling the scarce TCAM the paper's
//! flow-aggregation design is motivated by (§IV).

use pythia_des::{FastMap, FastSet, FastState};
use pythia_netsim::{FiveTuple, LinkId};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

use crate::match_fields::FlowMatch;

/// A forwarding rule: match → output link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRule {
    /// What traffic the rule matches.
    pub matcher: FlowMatch,
    /// OpenFlow priority; higher wins.
    pub priority: u16,
    /// The action: forward out this link.
    pub out_link: LinkId,
}

/// Errors from table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The TCAM is full.
    TableFull {
        /// The table's rule capacity.
        capacity: usize,
    },
}

#[derive(Debug, Clone)]
struct Entry {
    rule: FlowRule,
    seq: u64,
    /// Position of the next older rule pinning the same endpoint pair
    /// ([`NIL`] ends the chain; unused for wildcarded-endpoint rules).
    next: u32,
}

/// End of a pair chain.
const NIL: u32 = u32::MAX;

/// A finite-capacity, priority-ordered flow table.
#[derive(Debug, Clone)]
pub struct FlowTable {
    entries: Vec<Entry>,
    capacity: usize,
    next_seq: u64,
    /// Total lookups served (for occupancy/telemetry reporting).
    pub lookups: u64,
    /// Lookups that matched no rule.
    pub misses: u64,
    /// Lookup accelerator, rebuilt lazily after removals: for each
    /// endpoint pair pinned by some rule, the position of the newest such
    /// rule, whose [`Entry::next`] chains the pair's older ones; plus the
    /// positions of every other (wildcarded-endpoint) rule. A rule whose
    /// matcher pins both endpoints can only ever match that one pair, so
    /// the pair's chain + `wild_index` is a superset of the matching
    /// rules for any tuple; the winner under the total `(priority, seq)`
    /// order is the same one the full scan would pick, whatever the chain
    /// order. `install` finds its duplicate `(matcher, priority)` —
    /// unique in the table — through the same index.
    pair_head: FastMap<(u32, u32), u32>,
    wild_index: Vec<u32>,
    index_dirty: bool,
}

impl FlowTable {
    /// A table holding at most `capacity` rules. Hardware wildcard TCAMs
    /// of the paper's era held O(1000) entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        FlowTable {
            entries: Vec::new(),
            capacity,
            next_seq: 0,
            lookups: 0,
            misses: 0,
            pair_head: FastMap::default(),
            wild_index: Vec::new(),
            index_dirty: false,
        }
    }

    /// Index the entry at `pos` (the newest entry of its pair so far).
    fn index_entry(&mut self, pos: u32) {
        let e = &mut self.entries[pos as usize];
        e.next = match (e.rule.matcher.src, e.rule.matcher.dst) {
            (Some(s), Some(d)) => self.pair_head.insert((s.0, d.0), pos).unwrap_or(NIL),
            _ => {
                self.wild_index.push(pos);
                NIL
            }
        };
    }

    fn rebuild_index(&mut self) {
        self.pair_head.clear();
        self.wild_index.clear();
        for pos in 0..self.entries.len() as u32 {
            self.index_entry(pos);
        }
        self.index_dirty = false;
    }

    /// Rules currently installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum rules the TCAM holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy fraction, for TCAM-pressure reporting.
    pub fn occupancy(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// Install a rule. If a rule with an identical matcher and priority
    /// exists it is **replaced** (OpenFlow modify semantics); otherwise the
    /// rule is added, failing if the table is full.
    pub fn install(&mut self, rule: FlowRule) -> Result<(), TableError> {
        if self.index_dirty {
            self.rebuild_index();
        }
        if let Some(pos) = self.position_of(&rule.matcher, rule.priority) {
            // In-place replace: the matcher (and thus the index) is
            // unchanged; only the action differs.
            self.entries[pos].rule = rule;
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            return Err(TableError::TableFull {
                capacity: self.capacity,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            rule,
            seq,
            next: NIL,
        });
        // Incremental index insert; a full (lazy) rebuild is only ever
        // needed after removals shift entry positions.
        self.index_entry((self.entries.len() - 1) as u32);
        Ok(())
    }

    /// Positions of the rules pinning exactly the endpoint pair `(src,
    /// dst)`, newest first (clean index required).
    fn pair_positions(&self, src: u32, dst: u32) -> impl Iterator<Item = u32> + '_ {
        let head = self.pair_head.get(&(src, dst)).copied();
        std::iter::successors(head, |&pos| {
            Some(self.entries[pos as usize].next).filter(|&n| n != NIL)
        })
    }

    /// Position of the rule with this exact matcher and priority, if any
    /// (clean index required). A rule pinning both endpoints can only sit
    /// in its pair's chain; any other rule sits in `wild_index`.
    fn position_of(&self, matcher: &FlowMatch, priority: u16) -> Option<usize> {
        let same = |&pos: &u32| {
            let r = &self.entries[pos as usize].rule;
            r.matcher == *matcher && r.priority == priority
        };
        let pos = match (matcher.src, matcher.dst) {
            (Some(s), Some(d)) => self.pair_positions(s.0, d.0).find(same),
            _ => self.wild_index.iter().copied().find(same),
        };
        pos.map(|p| p as usize)
    }

    /// Remove all rules with the given matcher. Returns how many were
    /// removed.
    pub fn remove(&mut self, matcher: &FlowMatch) -> usize {
        self.remove_where(|m| m == matcher)
    }

    /// Remove every rule whose matcher has some rule outputting to
    /// `link` — that rule and its siblings at other priorities, whatever
    /// link those output to — in one pass over the table. Returns how
    /// many were removed.
    pub fn remove_via(&mut self, link: LinkId) -> usize {
        let dead: FastSet<FlowMatch> = self
            .entries
            .iter()
            .filter(|e| e.rule.out_link == link)
            .map(|e| e.rule.matcher)
            .collect();
        if dead.is_empty() {
            return 0;
        }
        self.remove_where(|m| dead.contains(m))
    }

    /// Remove the rules whose matcher satisfies `dead`, keeping the rest
    /// in installation order; the lookup index is rebuilt lazily.
    fn remove_where(&mut self, dead: impl Fn(&FlowMatch) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !dead(&e.rule.matcher));
        let removed = before - self.entries.len();
        if removed > 0 {
            self.index_dirty = true;
        }
        removed
    }

    /// Highest-priority rule matching `tuple` (ties broken by earliest
    /// installation).
    pub fn lookup(&mut self, tuple: &FiveTuple) -> Option<FlowRule> {
        self.lookups += 1;
        if self.index_dirty {
            self.rebuild_index();
        }
        // Candidates: rules pinning exactly this endpoint pair, plus every
        // rule with a wildcarded endpoint. `(priority, seq)` is a total
        // order (seqs are unique), so the max over this superset is
        // exactly the full scan's winner.
        let hit = self
            .pair_positions(tuple.src.0, tuple.dst.0)
            .chain(self.wild_index.iter().copied())
            .map(|pos| &self.entries[pos as usize])
            .filter(|e| e.rule.matcher.matches(tuple))
            .max_by(|a, b| {
                a.rule
                    .priority
                    .cmp(&b.rule.priority)
                    .then(b.seq.cmp(&a.seq)) // lower seq wins on priority tie
            })
            .map(|e| e.rule);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Iterate over installed rules (no particular order guarantees).
    pub fn rules(&self) -> impl Iterator<Item = &FlowRule> {
        self.entries.iter().map(|e| &e.rule)
    }
}

impl Persist for FlowRule {
    fn put(&self, w: &mut SectionWriter) {
        self.matcher.put(w);
        self.priority.put(w);
        self.out_link.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(FlowRule {
            matcher: FlowMatch::get(r)?,
            priority: u16::get(r)?,
            out_link: LinkId::get(r)?,
        })
    }
}

/// Entries round-trip verbatim in installation order (`seq` decides
/// lookup tie-breaks, so it must survive); the lookup accelerator is
/// rebuilt lazily on the first post-restore lookup rather than
/// serialized.
impl Persist for FlowTable {
    fn put(&self, w: &mut SectionWriter) {
        (self.capacity as u64).put(w);
        self.next_seq.put(w);
        self.lookups.put(w);
        self.misses.put(w);
        (self.entries.len() as u64).put(w);
        for e in &self.entries {
            e.rule.put(w);
            e.seq.put(w);
        }
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        let capacity = u64::get(r)? as usize;
        if capacity == 0 {
            return Err(r.malformed("flow table capacity 0"));
        }
        let next_seq = u64::get(r)?;
        let lookups = u64::get(r)?;
        let misses = u64::get(r)?;
        let n = u64::get(r)? as usize;
        if n > capacity {
            return Err(r.malformed(format!("{n} rules exceed table capacity {capacity}")));
        }
        let mut entries = Vec::with_capacity(n);
        let mut seqs = std::collections::BTreeSet::new();
        let mut keys = FastSet::with_capacity_and_hasher(n, FastState::default());
        for _ in 0..n {
            let rule = FlowRule::get(r)?;
            let seq = u64::get(r)?;
            if seq >= next_seq {
                return Err(r.malformed(format!("rule seq {seq} >= next_seq {next_seq}")));
            }
            if !seqs.insert(seq) {
                return Err(r.malformed(format!("duplicate rule seq {seq}")));
            }
            if !keys.insert((rule.matcher, rule.priority)) {
                return Err(r.malformed("duplicate (matcher, priority) rule"));
            }
            entries.push(Entry {
                rule,
                seq,
                next: NIL,
            });
        }
        Ok(FlowTable {
            entries,
            capacity,
            next_seq,
            lookups,
            misses,
            pair_head: FastMap::default(),
            wild_index: Vec::new(),
            index_dirty: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::NodeId;

    fn tuple(sp: u16) -> FiveTuple {
        FiveTuple::tcp(NodeId(1), NodeId(2), sp, 50060)
    }

    fn rule(m: FlowMatch, prio: u16, link: u32) -> FlowRule {
        FlowRule {
            matcher: m,
            priority: prio,
            out_link: LinkId(link),
        }
    }

    #[test]
    fn priority_wins() {
        let mut t = FlowTable::new(8);
        t.install(rule(FlowMatch::ANY, 0, 0)).unwrap();
        t.install(rule(FlowMatch::server_pair(NodeId(1), NodeId(2)), 10, 1))
            .unwrap();
        assert_eq!(t.lookup(&tuple(40000)).unwrap().out_link, LinkId(1));
        // A tuple not matching the pair rule falls through to ANY.
        let other = FiveTuple::tcp(NodeId(9), NodeId(2), 1, 2);
        assert_eq!(t.lookup(&other).unwrap().out_link, LinkId(0));
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new(8);
        let m1 = FlowMatch::server_pair(NodeId(1), NodeId(2));
        let mut m2 = FlowMatch::ANY;
        m2.proto = Some(pythia_netsim::Protocol::Tcp);
        t.install(rule(m1, 5, 1)).unwrap();
        t.install(rule(m2, 5, 2)).unwrap();
        assert_eq!(t.lookup(&tuple(1)).unwrap().out_link, LinkId(1));
    }

    #[test]
    fn install_replaces_same_matcher_and_priority() {
        let mut t = FlowTable::new(1);
        let m = FlowMatch::server_pair(NodeId(1), NodeId(2));
        t.install(rule(m, 5, 1)).unwrap();
        t.install(rule(m, 5, 2)).unwrap(); // replace, not TableFull
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&tuple(1)).unwrap().out_link, LinkId(2));
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::new(1);
        t.install(rule(FlowMatch::server_pair(NodeId(1), NodeId(2)), 5, 1))
            .unwrap();
        let err = t
            .install(rule(FlowMatch::server_pair(NodeId(1), NodeId(3)), 5, 1))
            .unwrap_err();
        assert_eq!(err, TableError::TableFull { capacity: 1 });
        assert_eq!(t.occupancy(), 1.0);
    }

    #[test]
    fn remove_by_matcher() {
        let mut t = FlowTable::new(8);
        let m = FlowMatch::server_pair(NodeId(1), NodeId(2));
        t.install(rule(m, 5, 1)).unwrap();
        assert_eq!(t.remove(&m), 1);
        assert!(t.lookup(&tuple(1)).is_none());
        assert_eq!(t.remove(&m), 0);
    }

    fn restore(bytes: &[u8]) -> Result<FlowTable, SnapshotError> {
        let mut r = pythia_snapshot::Reader::new(bytes)?;
        r.section("table")?.get::<FlowTable>()
    }

    #[test]
    fn snapshot_round_trips_rules_and_tie_breaks() {
        let mut t = FlowTable::new(8);
        let m = FlowMatch::server_pair(NodeId(1), NodeId(2));
        t.install(rule(m, 5, 1)).unwrap();
        t.install(rule(m, 6, 2)).unwrap(); // same matcher, other priority
        t.install(rule(FlowMatch::ANY, 6, 3)).unwrap();
        let mut w = pythia_snapshot::Writer::new();
        w.section("table", |s| s.put(&t));
        let mut back = restore(&w.finish()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.lookup(&tuple(1)), t.lookup(&tuple(1)));
        // The restored (dirty) index still finds the duplicate to replace.
        back.install(rule(m, 5, 7)).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn snapshot_with_duplicate_rule_is_rejected() {
        let m = FlowMatch::server_pair(NodeId(1), NodeId(2));
        // Two entries with distinct seqs but the same (matcher, priority):
        // install would have replaced the first, so no real table holds both.
        let mut w = pythia_snapshot::Writer::new();
        w.section("table", |s| {
            s.put(&8u64); // capacity
            s.put(&2u64); // next_seq
            s.put(&0u64); // lookups
            s.put(&0u64); // misses
            s.put(&2u64); // entries
            s.put(&rule(m, 5, 1));
            s.put(&0u64);
            s.put(&rule(m, 5, 2));
            s.put(&1u64);
        });
        match restore(&w.finish()) {
            Err(SnapshotError::Malformed { detail, .. }) => {
                assert_eq!(detail, "duplicate (matcher, priority) rule");
            }
            other => panic!("duplicate rule restored: {other:?}"),
        }
    }

    #[test]
    fn miss_counting() {
        let mut t = FlowTable::new(8);
        t.lookup(&tuple(1));
        t.install(rule(FlowMatch::ANY, 0, 0)).unwrap();
        t.lookup(&tuple(1));
        assert_eq!(t.lookups, 2);
        assert_eq!(t.misses, 1);
    }
}
