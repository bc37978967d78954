//! Shared plumbing for completion-time figures (Figures 3 and 4).

use pythia_cluster::{RunReport, ScenarioConfig, SchedulerKind};
use pythia_hadoop::JobSpec;
use pythia_metrics::{speedup_fraction, CsvTable};

use crate::runner::{default_threads, grid, mean_completion, run_sweep};

/// How big to run an experiment: paper scale or a fast fraction for tests
/// and benches.
#[derive(Debug, Clone)]
pub struct FigureScale {
    /// Fraction of the paper's input size (1.0 = full).
    pub input_frac: f64,
    /// Seeds averaged per cell ("average of multiple executions", §V-B).
    pub seeds: Vec<u64>,
    /// Over-subscription ratios (1 = non-blocking).
    pub ratios: Vec<u32>,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Default for FigureScale {
    fn default() -> Self {
        FigureScale {
            input_frac: 1.0,
            seeds: vec![1, 2, 3, 4, 5],
            ratios: vec![1, 5, 10, 20],
            threads: default_threads(),
        }
    }
}

impl FigureScale {
    /// Small configuration for unit tests and CI smoke runs.
    pub fn quick() -> Self {
        FigureScale {
            input_frac: 0.02,
            seeds: vec![1, 2],
            ratios: vec![1, 20],
            threads: default_threads(),
        }
    }

    /// Medium configuration: between the CI smoke and paper scale.
    pub fn bench() -> Self {
        FigureScale {
            input_frac: 0.1,
            seeds: vec![1, 2, 3],
            ratios: vec![1, 5, 10, 20],
            threads: default_threads(),
        }
    }
}

/// One row of a Pythia-vs-ECMP completion figure.
#[derive(Debug, Clone)]
pub struct CompletionRow {
    /// Over-subscription N (of 1:N).
    pub ratio: u32,
    /// Mean ECMP completion, seconds.
    pub ecmp_secs: f64,
    /// Mean Pythia completion, seconds.
    pub pythia_secs: f64,
    /// Relative improvement, paper convention: `(ecmp−pythia)/ecmp`.
    pub speedup_frac: f64,
}

/// A completed figure.
#[derive(Debug, Clone)]
pub struct CompletionFigure {
    /// Figure label ("Figure 3").
    pub name: String,
    /// Workload label ("Nutch indexing").
    pub workload: String,
    /// One row per over-subscription ratio.
    pub rows: Vec<CompletionRow>,
}

impl CompletionFigure {
    /// Largest speedup across the sweep.
    pub fn max_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.speedup_frac)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Paper-style text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — {} job completion time, Pythia vs ECMP\n",
            self.name, self.workload
        );
        out.push_str("ratio    ECMP [s]   Pythia [s]   speedup\n");
        for r in &self.rows {
            out.push_str(&format!(
                "1:{:<4}  {:>9.1}  {:>10.1}  {:>7.1}%\n",
                r.ratio,
                r.ecmp_secs,
                r.pythia_secs,
                r.speedup_frac * 100.0
            ));
        }
        out
    }

    /// The figure as a CSV table.
    pub fn csv(&self) -> CsvTable {
        let mut t = CsvTable::new(vec![
            "oversubscription",
            "ecmp_secs",
            "pythia_secs",
            "speedup_frac",
        ]);
        for r in &self.rows {
            t.push_row(vec![
                format!("1:{}", r.ratio),
                format!("{:.3}", r.ecmp_secs),
                format!("{:.3}", r.pythia_secs),
                format!("{:.4}", r.speedup_frac),
            ]);
        }
        t
    }
}

/// Run a Pythia-vs-ECMP completion sweep and aggregate it into a figure.
/// Also returns the raw reports for deeper analysis.
pub fn completion_figure(
    name: &str,
    workload: &str,
    job_factory: &(dyn Fn() -> JobSpec + Sync),
    base_cfg: &ScenarioConfig,
    scale: &FigureScale,
) -> (CompletionFigure, Vec<RunReport>) {
    let points = grid(
        &[SchedulerKind::Ecmp, SchedulerKind::Pythia],
        &scale.ratios,
        &scale.seeds,
    );
    let reports = run_sweep(&points, base_cfg, job_factory, scale.threads);
    let rows = scale
        .ratios
        .iter()
        .map(|&ratio| {
            let ecmp =
                mean_completion(&reports, SchedulerKind::Ecmp, ratio).expect("missing ECMP cell");
            let pythia = mean_completion(&reports, SchedulerKind::Pythia, ratio)
                .expect("missing Pythia cell");
            CompletionRow {
                ratio,
                ecmp_secs: ecmp,
                pythia_secs: pythia,
                speedup_frac: speedup_fraction(ecmp, pythia),
            }
        })
        .collect();
    (
        CompletionFigure {
            name: name.to_string(),
            workload: workload.to_string(),
            rows,
        },
        reports,
    )
}
