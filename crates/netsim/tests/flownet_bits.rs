//! Bit pin of the rate engine, one layer below the scenario fingerprints.
//!
//! A fixed script drives [`FlowNet`] on a k=4 fat-tree: flow starts,
//! completions reaped through `next_completion`/`advance_to`, plain time
//! advances, SDN re-routes, CBR background redraws, a trunk degraded to
//! zero and later restored, and a `put_state`/`get_state` round trip in
//! the middle (the run continues on the restored copy). After every
//! recompute one digest absorbs every flow's rate and byte counters,
//! every link load, every node's sourced bytes and the returned
//! completion projection, bit for bit; a second digest absorbs the
//! snapshot's bytes.
//!
//! The observation digest was recorded before the in-place fair-share
//! solver and the slot-carrying completion heap replaced their
//! predecessors, and held when the exact accounting mode was deleted
//! (only the snapshot format moved then); a mismatch here names the rate
//! engine, not the layers above it.

use pythia_des::{SimDuration, SimTime};
use pythia_netsim::{
    build_fat_tree, ClosStructure, FatTreeParams, FiveTuple, FlowId, FlowKind, FlowNet, FlowSpec,
    LinkId, MultiRack, NodeId, Path,
};
use pythia_snapshot::{Reader, Writer};

const OBSERVED_DIGEST: u64 = 0xe314_f120_1e4d_6d25;
const SNAPSHOT_DIGEST: u64 = 0xef41_d428_5b99_f769;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Deterministic LCG; the script needs no external RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The `choice`-th equal-length path from `s` to `d` in the fat-tree.
fn fat_tree_path(ft: &MultiRack, s: NodeId, d: NodeId, choice: usize) -> Path {
    let clos: &ClosStructure = ft.clos.as_ref().expect("fat-tree");
    let w = clos.width();
    let (edge_s, up) = clos.host_up(s).unwrap();
    let (edge_d, _) = clos.host_up(d).unwrap();
    let mut links = vec![up];
    if edge_s != edge_d {
        let (l_ea, agg) = clos.edge_uplinks(edge_s)[choice % w];
        links.push(l_ea);
        let pod_s = clos.pod_of_edge(edge_s).unwrap();
        let pod_d = clos.pod_of_edge(edge_d).unwrap();
        let agg_d = if pod_s == pod_d {
            agg
        } else {
            let (l_ac, core) = clos.agg_uplinks(agg)[(choice / w) % w];
            links.push(l_ac);
            let agg_d = clos.aggs_of_pod(pod_d)[choice % w];
            links.push(clos.down_link(core, agg_d).unwrap());
            agg_d
        };
        links.push(clos.down_link(agg_d, edge_d).unwrap());
    }
    links.push(clos.down_link(edge_d, d).unwrap());
    Path::new(&ft.topology, links).unwrap()
}

struct Script {
    ft: MultiRack,
    net: FlowNet,
    rng: Lcg,
    digest: Digest,
    snapshot: Digest,
    port: u16,
    tcp: Vec<FlowId>,
    cbr: Vec<FlowId>,
}

impl Script {
    fn new() -> Self {
        let ft = build_fat_tree(&FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        });
        let net = FlowNet::new(ft.topology.clone());
        Script {
            ft,
            net,
            rng: Lcg(0x005e_ed0f_b175),
            digest: Digest(0xcbf2_9ce4_8422_2325),
            snapshot: Digest(0xcbf2_9ce4_8422_2325),
            port: 40000,
            tcp: Vec::new(),
            cbr: Vec::new(),
        }
    }

    fn start_tcp(&mut self) {
        let n = self.ft.servers.len();
        let si = self.rng.below(n);
        let di = (si + 1 + self.rng.below(n - 1)) % n;
        let (s, d) = (self.ft.servers[si], self.ft.servers[di]);
        let path = fat_tree_path(&self.ft, s, d, self.rng.below(4));
        let bytes = 1_000_000 + self.rng.next() % 400_000_000;
        self.port += 1;
        let spec = FlowSpec::tcp_transfer(FiveTuple::tcp(s, d, self.port, 50060), bytes);
        self.tcp.push(self.net.start_flow(spec, path));
    }

    fn start_cbr(&mut self, trunk: LinkId, rate: f64) {
        let link = self.ft.topology.link(trunk).clone();
        self.port += 1;
        let spec = FlowSpec::cbr(FiveTuple::udp(link.src, link.dst, self.port, 9), rate);
        let path = Path::new(&self.ft.topology, vec![trunk]).unwrap();
        self.cbr.push(self.net.start_flow(spec, path));
    }

    /// Solve, then absorb everything the solve left observable.
    fn solve_and_observe(&mut self) {
        self.net.recompute();
        let d = &mut self.digest;
        d.word(self.net.epoch());
        d.word(self.net.now().as_nanos());
        for (id, f) in self.net.flows() {
            d.word(id.0);
            d.f(f.rate_bps);
            d.f(f.transferred_bytes);
            d.f(f.remaining_bytes.unwrap_or(-1.0));
        }
        let topo = self.net.topology();
        for l in 0..topo.num_links() {
            d.f(self.net.link_load_bps(LinkId(l as u32)));
        }
        for n in 0..topo.num_nodes() {
            d.f(self.net.cum_tx_bytes(NodeId(n as u32)));
        }
        let next = self.net.next_completion();
        match next {
            Some((t, id)) => {
                d.word(t.as_nanos());
                d.word(id.0);
            }
            None => d.word(u64::MAX),
        }
    }

    /// Reap the next completion (if any) and remove what finished.
    fn complete_next(&mut self) {
        let Some((t, _)) = self.net.next_completion() else {
            return;
        };
        let done: Vec<FlowId> = self.net.advance_to(t).to_vec();
        for id in done {
            self.digest.word(id.0);
            let rep = self.net.remove_flow(id);
            self.digest.f(rep.transferred_bytes);
            self.digest.word(rep.ended_at.as_nanos());
            self.tcp.retain(|&f| f != id);
        }
    }

    fn round_trip(&mut self) {
        let mut w = Writer::new();
        w.section("net", |s| self.net.put_state(s));
        let bytes = w.finish();
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.snapshot.word(u64::from_le_bytes(word));
        }
        let mut sec = Reader::new(&bytes).unwrap().section("net").unwrap();
        let restored = FlowNet::get_state(self.ft.topology.clone(), &mut sec).unwrap();
        sec.finish().unwrap();
        let mut w2 = Writer::new();
        w2.section("net", |s| restored.put_state(s));
        assert_eq!(bytes, w2.finish(), "re-snapshot must be byte-identical");
        self.net = restored;
    }

    /// Run the script; returns the observation and snapshot digests.
    fn run(mut self) -> (u64, u64) {
        let trunks = self.ft.trunk_links.clone();
        for (i, &l) in trunks.iter().enumerate().step_by(5) {
            self.start_cbr(l, 2e9 + i as f64 * 1.5e8);
        }
        for _ in 0..40 {
            self.start_tcp();
        }
        self.solve_and_observe();
        let dead = trunks[3];
        let dead_cap = self.net.topology().link(dead).capacity_bps;
        for step in 0..240u32 {
            match step % 8 {
                0 | 3 | 5 => self.complete_next(),
                1 => {
                    let t = self.net.now() + SimDuration::from_millis(7 + step as u64 % 13);
                    let done: Vec<FlowId> = self.net.advance_to(t).to_vec();
                    for id in done {
                        self.net.remove_flow(id);
                        self.tcp.retain(|&f| f != id);
                    }
                }
                2 => {
                    for _ in 0..3 {
                        self.start_tcp();
                    }
                }
                4 if !self.tcp.is_empty() => {
                    let id = self.tcp[self.rng.below(self.tcp.len())];
                    let f = self.net.flow(id).unwrap();
                    let (s, d) = (f.spec.tuple.src, f.spec.tuple.dst);
                    let path = fat_tree_path(&self.ft, s, d, self.rng.below(4));
                    self.net.reroute_flow(id, path);
                }
                6 => {
                    let id = self.cbr[self.rng.below(self.cbr.len())];
                    assert!(matches!(
                        self.net.flow(id).unwrap().spec.kind,
                        FlowKind::Cbr { .. }
                    ));
                    let rate = 1e8 + (self.rng.next() % 120) as f64 * 1e8;
                    self.net.set_cbr_rate(id, rate);
                }
                _ => {}
            }
            if step == 40 {
                self.net.set_link_capacity(dead, 0.0);
            }
            if step == 90 {
                self.net.set_link_capacity(dead, dead_cap);
            }
            self.solve_and_observe();
            if step == 120 {
                self.round_trip();
                self.solve_and_observe();
            }
        }
        while self.net.next_completion().is_some() {
            self.complete_next();
            self.solve_and_observe();
        }
        assert!(self.net.now() > SimTime::ZERO);
        (self.digest.0, self.snapshot.0)
    }
}

#[test]
fn relaxed_engine_bits_are_pinned() {
    let (observed, snapshot) = Script::new().run();
    assert_eq!(
        observed, OBSERVED_DIGEST,
        "observation digest {observed:#018x}"
    );
    assert_eq!(
        snapshot, SNAPSHOT_DIGEST,
        "snapshot digest {snapshot:#018x}"
    );
}
