//! Multi-tenant fleet fairness (extension): who pays for sharing the
//! fabric and the control plane?
//!
//! The paper evaluates one job at a time; a real deployment streams many
//! tenants through one Pythia controller and one TCAM budget. This
//! experiment runs a small streamed fleet — Poisson arrivals, Sort/Nutch
//! mix, pod-sharded collector, epoch-batched installs — and then re-runs
//! every tenant *alone* on the same fabric for its isolated baseline.
//! The per-tenant slowdown (shared / isolated), rule-install share, and
//! TCAM rejections condense into Jain fairness indices via
//! [`pythia_metrics::FairnessReport`].

use pythia_cluster::{run_multi_scenario, run_scenario, ScenarioConfig, SchedulerKind};
use pythia_des::SimDuration;
use pythia_metrics::{CsvTable, FairnessReport};
use pythia_netsim::FatTreeParams;
use pythia_workloads::FleetSpec;

use crate::FigureScale;

/// One tenant's shared-vs-isolated outcome.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Job index in arrival order.
    pub job: u32,
    /// Workload name (profile + index).
    pub name: String,
    /// Completion in the shared fleet, seconds.
    pub shared_secs: f64,
    /// Completion running alone on the same fabric, seconds.
    pub isolated_secs: f64,
    /// `shared / isolated` (1.0 = sharing cost nothing).
    pub slowdown: f64,
    /// Share of all tenant-attributed installed rules; `None` when the
    /// fleet installed no rules at all (the share is undefined, not 0/0).
    pub rule_share: Option<f64>,
    /// Installs this tenant lost to full TCAMs.
    pub tcam_rejected: u64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant rows, arrival order.
    pub rows: Vec<FleetRow>,
    /// The fleet-level fairness summary (with isolated baselines).
    pub fairness: FairnessReport,
    /// Non-empty per-pod install batches flushed over the run.
    pub epoch_batches: u64,
    /// Events the shared run processed.
    pub events_processed: u64,
}

impl FleetReport {
    /// Paper-style text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fleet fairness (extension): streamed tenants vs isolated baselines\n\
             job  name          shared [s]  isolated [s]  slowdown  rule share  tcam rej\n",
        );
        for r in &self.rows {
            let share = match r.rule_share {
                Some(s) => format!("{:.1}%", s * 100.0),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<3}  {:<12}  {:>10.1}  {:>12.1}  {:>7.2}x  {:>10}  {:>8}\n",
                r.job, r.name, r.shared_secs, r.isolated_secs, r.slowdown, share, r.tcam_rejected,
            ));
        }
        out.push_str(&format!(
            "rule-share Jain {:.3}   slowdown Jain {:.3}   max slowdown {:.2}x   \
             TCAM rejections {}   epoch batches {}\n",
            self.fairness.rule_share_jain.unwrap_or(f64::NAN),
            self.fairness.slowdown_jain.unwrap_or(f64::NAN),
            self.fairness.max_slowdown().unwrap_or(f64::NAN),
            self.fairness.tcam_rejected_total,
            self.epoch_batches,
        ));
        out
    }

    /// The table as CSV.
    pub fn csv(&self) -> CsvTable {
        let mut t = CsvTable::new(vec![
            "job",
            "name",
            "shared_secs",
            "isolated_secs",
            "slowdown",
            "rule_share",
            "tcam_rejected",
        ]);
        for r in &self.rows {
            t.push_row(vec![
                r.job.to_string(),
                r.name.clone(),
                format!("{:.3}", r.shared_secs),
                format!("{:.3}", r.isolated_secs),
                format!("{:.4}", r.slowdown),
                r.rule_share.map_or(String::new(), |s| format!("{s:.6}")),
                r.tcam_rejected.to_string(),
            ]);
        }
        t
    }
}

/// The experiment's fleet: small jobs on 16 servers so the isolated
/// baselines (one full run per tenant) stay affordable.
fn fleet(scale: &FigureScale) -> FleetSpec {
    let jobs = if scale.input_frac < 0.5 { 8 } else { 16 };
    let mut f = FleetSpec::poisson(jobs, SimDuration::from_secs(2), 42);
    f.min_input_bytes = 48 << 20;
    f.max_input_bytes = 384 << 20;
    f
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(11)
        .with_collector_shards(4)
        .with_install_epoch(SimDuration::from_millis(500))
}

/// Run the fleet shared, then each tenant isolated, and summarize.
pub fn run(scale: &FigureScale) -> FleetReport {
    let spec = fleet(scale);
    let shared = run_multi_scenario(spec.jobs(), &cfg());

    // Isolated baselines: the same job spec alone on the same fabric.
    let isolated: Vec<f64> = (0..spec.len())
        .map(|i| run_scenario(spec.job(i), &cfg()).completion().as_secs_f64())
        .collect();

    let fairness = shared.fairness().with_isolated(&isolated);
    let total_installed = fairness.total_installed();
    let rows = fairness
        .tenants
        .iter()
        .zip(&isolated)
        .map(|(t, &iso)| FleetRow {
            job: t.job,
            name: t.name.clone(),
            shared_secs: t.completion_secs,
            isolated_secs: iso,
            slowdown: t.slowdown.unwrap_or(f64::NAN),
            rule_share: t.rule_share(total_installed),
            tcam_rejected: t.tcam_rejected,
        })
        .collect();
    FleetReport {
        rows,
        fairness,
        epoch_batches: shared.epoch_batches,
        events_processed: shared.events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_fairness_quick() {
        let r = run(&FigureScale::quick());
        assert_eq!(r.rows.len(), 8);
        assert!(r.epoch_batches > 0);
        for row in &r.rows {
            assert!(row.shared_secs > 0.0 && row.isolated_secs > 0.0);
            // Sharing can help a tenant slightly (aggregated rules) but a
            // tenant must never finish wildly faster shared than alone.
            assert!(
                row.slowdown > 0.5,
                "{}: slowdown {}",
                row.name,
                row.slowdown
            );
            // A Pythia fleet installs rules, so every share is defined —
            // and the Option guard means it can never be NaN.
            let share = row.rule_share.expect("pythia fleet installs rules");
            assert!(share.is_finite() && (0.0..=1.0).contains(&share));
        }
        assert!(r.fairness.rule_share_jain.is_some());
        assert!(r.fairness.slowdown_jain.is_some());
        let csv = r.csv().to_string();
        assert!(csv.lines().count() > 8);
    }
}
