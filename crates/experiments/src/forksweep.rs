//! Fork-based chaos sweep: share one warm-up snapshot across a whole
//! table of fault schedules.
//!
//! A chaos sweep varies only what happens *after* the faults begin; the
//! job submission, the map phase and the first shuffle waves are
//! identical across every variant. Cold-start sweeps pay that shared
//! prefix once per variant. This experiment captures the prefix once
//! with [`pythia_cluster::capture_multi_snapshot`] and forks it onto
//! each fault schedule with [`pythia_cluster::fork_multi_scenario`],
//! then verifies the shortcut changed nothing: on the exact solver path
//! every forked run must be observably identical (canonical report
//! fingerprint, [`pythia_cluster::Fingerprint`]) to the cold start of the
//! same schedule.

use std::time::Instant;

use pythia_cluster::{
    capture_multi_snapshot, fork_multi_scenario, run_multi_scenario, ControllerOutage,
    MultiRunReport, ScenarioConfig, SchedulerKind,
};
use pythia_des::{SimDuration, SimTime};
use pythia_hadoop::JobSpec;
use pythia_metrics::CsvTable;
use pythia_workloads::{SortWorkload, Workload};

use crate::figures::FigureScale;

/// One fault-schedule variant: cold start vs fork off the shared warm-up.
#[derive(Debug, Clone)]
pub struct ForkSweepRow {
    /// Outage window, seconds.
    pub outage: (f64, f64),
    /// Cold-start completion, seconds.
    pub jct_cold_secs: f64,
    /// Forked completion, seconds.
    pub jct_forked_secs: f64,
    /// Whether the canonical report fingerprints matched exactly.
    pub identical: bool,
    /// Controller outages absorbed (sanity: the schedule really fired).
    pub outages_absorbed: u64,
}

/// The sweep outcome: per-variant equality plus the wall-clock ledger.
#[derive(Debug)]
pub struct ForkSweepTable {
    /// One row per fault schedule.
    pub rows: Vec<ForkSweepRow>,
    /// Events in the shared warm-up snapshot.
    pub warmup_events: u64,
    /// Wall-clock seconds for the cold-start sweep.
    pub cold_wall_secs: f64,
    /// Wall-clock seconds for capture + all forks.
    pub forked_wall_secs: f64,
}

impl ForkSweepTable {
    /// Cold wall-clock over forked wall-clock (>1 means the fork paid off).
    pub fn speedup(&self) -> f64 {
        self.cold_wall_secs / self.forked_wall_secs
    }

    /// Paper-style text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fork-based chaos sweep (extension): {} schedules off one \
             {}-event warm-up\n\
             outage [s]        JCT cold   JCT fork   identical   outages\n",
            self.rows.len(),
            self.warmup_events
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>5.1} – {:>5.1}   {:>8.1}   {:>8.1}   {:>9}   {:>7}\n",
                r.outage.0,
                r.outage.1,
                r.jct_cold_secs,
                r.jct_forked_secs,
                if r.identical { "yes" } else { "NO" },
                r.outages_absorbed,
            ));
        }
        out.push_str(&format!(
            "wall clock: cold {:.2}s, capture+forks {:.2}s  ({:.2}x)\n",
            self.cold_wall_secs,
            self.forked_wall_secs,
            self.speedup()
        ));
        out
    }

    /// The table as CSV.
    pub fn csv(&self) -> CsvTable {
        let mut t = CsvTable::new(vec![
            "outage_down_secs",
            "outage_up_secs",
            "jct_cold_secs",
            "jct_forked_secs",
            "identical",
            "outages_absorbed",
        ]);
        for r in &self.rows {
            t.push_row(vec![
                format!("{:.3}", r.outage.0),
                format!("{:.3}", r.outage.1),
                format!("{:.3}", r.jct_cold_secs),
                format!("{:.3}", r.jct_forked_secs),
                r.identical.to_string(),
                r.outages_absorbed.to_string(),
            ]);
        }
        t
    }
}

/// The simulation clock a snapshot was taken at — the first field of
/// its `engine` section, read without restoring anything.
fn snapshot_time(bytes: &[u8]) -> SimTime {
    let mut rd = pythia_snapshot::Reader::new(bytes).expect("readable snapshot");
    let mut s = rd.section("engine").expect("engine section");
    pythia_snapshot::Persist::get(&mut s).expect("snapshot clock")
}

/// Run the fork-vs-cold sweep at 1:20 on the exact solver path (the
/// identity check is full-report equality, so the order-sensitive exact
/// solver is pinned).
pub fn run(scale: &FigureScale) -> ForkSweepTable {
    let f = scale.input_frac;
    let jobs = move || -> Vec<(JobSpec, SimDuration)> {
        let mut w = SortWorkload::paper_240gb();
        w.input_bytes = (w.input_bytes as f64 * f).max(512e6) as u64;
        vec![(w.job(), SimDuration::ZERO)]
    };
    let base = ScenarioConfig::default()
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(20)
        .with_seed(scale.seeds.first().copied().unwrap_or(1))
        .with_relaxed_order(false);

    // Fault-free reference: anchors the outage windows and tells us how
    // many events the run has, so the warm-up stops before any variant's
    // earliest fault.
    let clean = run_multi_scenario(jobs(), &base);
    let clean_jct = clean.makespan().as_secs_f64();

    let variant = |frac: f64| -> ScenarioConfig {
        let mut cfg = base.clone();
        cfg.controller_outages = vec![ControllerOutage {
            down_at: SimDuration::from_secs_f64(clean_jct * frac),
            up_at: SimDuration::from_secs_f64(clean_jct * (frac + 0.15)),
        }];
        cfg
    };
    // Late-run outages: the point of a fork sweep is that everything up
    // to the first fault is shared, so the deeper into the run the chaos
    // lands, the more the warm-up amortizes.
    let fracs = [0.5, 0.6, 0.7, 0.8];
    let earliest_down = clean_jct * fracs[0];

    let cold_t0 = Instant::now();
    let colds: Vec<MultiRunReport> = fracs
        .iter()
        .map(|&p| run_multi_scenario(jobs(), &variant(p)))
        .collect();
    let cold_wall_secs = cold_t0.elapsed().as_secs_f64();

    // The event count at a given sim time is scenario-dependent, so the
    // warm-up point is found adaptively: try large event fractions first
    // and read each candidate snapshot's own clock (the first field of
    // its `engine` section) until one lands strictly before the earliest
    // outage. Probe captures are charged to the forked wall clock.
    let fork_t0 = Instant::now();
    let mut chosen = None;
    for cand in [0.6, 0.45, 0.3, 0.2, 0.1, 0.05] {
        let events = ((clean.events_processed as f64 * cand) as u64).max(10);
        match capture_multi_snapshot(jobs(), &base, events) {
            Ok(w) if snapshot_time(&w).as_secs_f64() < earliest_down => {
                chosen = Some((w, events));
                break;
            }
            Ok(_) | Err(pythia_cluster::SnapshotError::Fork { .. }) => continue,
            Err(e) => panic!("warm-up capture failed: {e}"),
        }
    }
    let (warm, warmup_events) = chosen.expect("no warm-up point before the earliest outage");
    let forks: Vec<MultiRunReport> = fracs
        .iter()
        .map(|&p| {
            fork_multi_scenario(jobs(), &variant(p), &warm)
                .expect("fork onto a strictly-later chaos schedule")
        })
        .collect();
    let forked_wall_secs = fork_t0.elapsed().as_secs_f64();

    let rows = fracs
        .iter()
        .zip(colds.iter().zip(&forks))
        .map(|(&p, (cold, fork))| ForkSweepRow {
            outage: (clean_jct * p, clean_jct * (p + 0.15)),
            jct_cold_secs: cold.makespan().as_secs_f64(),
            jct_forked_secs: fork.makespan().as_secs_f64(),
            identical: cold.fingerprint() == fork.fingerprint(),
            outages_absorbed: fork.degradation.controller_outages,
        })
        .collect();

    ForkSweepTable {
        rows,
        warmup_events,
        cold_wall_secs,
        forked_wall_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fork_sweep_matches_cold_starts() {
        let t = run(&FigureScale::quick());
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            assert!(
                r.identical,
                "fork diverged from cold start for outage {:?}",
                r.outage
            );
            assert_eq!(r.outages_absorbed, 1);
        }
    }
}
