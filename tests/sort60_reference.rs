//! Full-size `sort60` — the 60 GB Sort on a fat-tree k=8 at 1:10 under
//! Pythia, as perfbench runs it — for every seed perfbench records a
//! completion time for, held to the envelope perfbench checks:
//! `|got − recorded| ≤ RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS ·
//! recorded`.
//!
//! The recorded values came from the exact accounting path the
//! relaxed-order solver replaced, so this sweep is the scenario-level
//! record that the replacement stayed inside its published envelope on
//! the benchmark's own workload. Release only (about 13 s):
//!
//! ```text
//! cargo test --release --test sort60_reference -- --nocapture
//! ```

use pythia_repro::cluster::{
    run_scenario, ScenarioConfig, SchedulerKind, RELAXED_ABS_EPS_SECS, RELAXED_COMPLETION_EPS,
};
use pythia_repro::des::SimTime;
use pythia_repro::netsim::FatTreeParams;
use pythia_repro::workloads::{SortWorkload, Workload};

/// `seed<TAB>sim_completion_s` per line, as perfbench records it.
const REFERENCE: &str = include_str!("../perfbench/reference/sort60_completion.tsv");

#[cfg_attr(debug_assertions, ignore = "full-size sweep: release builds only")]
#[test]
fn sort60_completion_stays_within_recorded_envelope() {
    let sort = SortWorkload::paper_60gb();
    let (mut worst, mut rel_sum, mut earlier, mut n) = (0.0f64, 0.0, 0, 0);
    let mut misses = Vec::new();
    for line in REFERENCE.lines().filter(|l| !l.trim().is_empty()) {
        let (seed, recorded) = line.split_once('\t').expect("seed<TAB>seconds");
        let seed: u64 = seed.parse().expect("seed");
        let recorded: f64 = recorded.trim().parse().expect("seconds");
        let cfg = ScenarioConfig::default()
            .with_topology(FatTreeParams {
                k: 8,
                ..FatTreeParams::default()
            })
            .with_scheduler(SchedulerKind::Pythia)
            .with_oversubscription(10)
            .with_seed(seed);
        let got = run_scenario(sort.job(), &cfg)
            .timeline
            .job_end
            .expect("sort60 completes")
            .saturating_since(SimTime::ZERO)
            .as_secs_f64();
        let delta = got - recorded;
        let bound = RELAXED_ABS_EPS_SECS + RELAXED_COMPLETION_EPS * recorded;
        if delta.abs() > bound {
            misses.push(format!(
                "seed {seed}: {got:.3} s vs recorded {recorded:.3} s (bound {bound:.3} s)"
            ));
        }
        worst = worst.max(delta.abs());
        rel_sum += delta / recorded;
        earlier += usize::from(delta < 0.0);
        n += 1;
    }
    eprintln!(
        "sort60 over {n} seeds: worst |delta| {worst:.2} s, mean {:+.2}%, {earlier} finished \
         earlier than recorded",
        100.0 * rel_sum / n as f64
    );
    assert!(n > 0, "no reference seeds");
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
