//! The host reference: a fixed, std-only workload timed between the
//! benchmark's own samples, by which every end-to-end host time is scaled
//! to one nominal host speed.
//!
//! The shared host this benchmark was tuned on has slow spells lasting
//! from seconds to many minutes, in which the same binary runs up to
//! 1.8x slower; the program's allocation- and cache-heavy code slows
//! most, a pure arithmetic loop (`host.fixed_work_ms`) only ~1.2x, and a
//! DRAM pointer chase not at all. The reference below does the same kind
//! of work as the program — ordered-map and hash-map churn with small
//! allocations, a binary heap, and an unstable sort of 64k integers, in
//! about equal time — and slows with it. Timed beside the daemon's drains
//! over 6 minutes of a drifting host, the map churn alone moved 1.25x as
//! much as the drains did (in logs) and the sort 0.96x; the engine pass
//! moved 1.12x and 0.86x as much; the blend sits near 1 for both. Its
//! code lives in this package, so a change to the repository's crates
//! cannot move it.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds of one reference slice on the host all scaled times are
/// expressed on: a 2-vCPU Intel Xeon KVM guest in a fast spell.
pub const NOMINAL_S: f64 = 0.002;

/// Work per reference slice (~2-4 ms on that host, half of it the sort).
const MAP_OPS: usize = 3_000;
const HEAP_OPS: usize = 6_000;
const SORT_LEN: usize = 64_000;

/// splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One reference slice, host seconds.
pub fn slice() -> f64 {
    let mut s = 11u64;
    let mut sorted: Vec<u32> = (0..SORT_LEN).map(|_| mix(&mut s) as u32).collect();
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut keys = Vec::with_capacity(MAP_OPS);
    for k in 0..MAP_OPS {
        let key = mix(&mut s);
        map.insert(key, vec![key; 1 + (key % 7) as usize]);
        keys.push(key);
        if k % 2 == 1 {
            map.remove(&keys[(mix(&mut s) % keys.len() as u64) as usize]);
        }
    }
    let mut heap = BinaryHeap::new();
    let mut hashed = HashMap::new();
    for k in 0..HEAP_OPS {
        let key = mix(&mut s);
        heap.push((key >> 40, k));
        hashed.insert(key, vec![k as u32; 1 + (key % 5) as usize]);
        if k % 2 == 1 {
            heap.pop();
        }
        if k % 3 == 2 {
            hashed.clear();
        }
    }
    sorted.sort_unstable();
    black_box((map.len(), heap.len(), hashed.len(), sorted[SORT_LEN / 2]));
    t.elapsed().as_secs_f64()
}

/// Slices timed after every sample. The first slice after a long
/// engine pass can run several times slower than the host (the pass's
/// memory is being returned and reclaimed), so a window takes the median
/// of several.
const CLOSING_SLICES: usize = 3;

/// Scale factors for consecutive samples. A sample's window holds the
/// reference slices timed just before it, any slices timed inside it
/// (`tick`, between the chunks of a drain) and the slices timed just after
/// it; the sample is scaled by `NOMINAL_S` over the window's median.
pub struct HostRef {
    window: Vec<f64>,
    /// Every slice timed, host seconds.
    pub samples: Vec<f64>,
}

impl HostRef {
    pub fn new() -> HostRef {
        let mut h = HostRef {
            window: Vec::new(),
            samples: Vec::new(),
        };
        for _ in 0..CLOSING_SLICES {
            h.tick();
        }
        h
    }

    /// Time one reference slice into the current window.
    pub fn tick(&mut self) {
        let t = slice();
        self.samples.push(t);
        self.window.push(t);
    }

    /// Call right after a sample ends: times the closing slices, returns
    /// the factor that scales the sample's host time to the nominal host,
    /// and opens the next window with the closing slices.
    pub fn factor(&mut self) -> f64 {
        for _ in 0..CLOSING_SLICES {
            self.tick();
        }
        let k = NOMINAL_S / median(&self.window);
        self.window.drain(..self.window.len() - CLOSING_SLICES);
        k
    }
}
