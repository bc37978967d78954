#![warn(missing_docs)]

//! `pythia-experiments` — the harness regenerating every table and figure
//! of the paper's evaluation (see DESIGN.md for the experiment index):
//!
//! * [`fig1`] — motivation: toy-sort sequence diagram (1a) and the
//!   adversarial ECMP allocation statistics (1b);
//! * [`fig3`] — Nutch indexing completion, Pythia vs ECMP vs ratio;
//! * [`fig4`] — Sort (240 GB) completion, Pythia vs ECMP vs ratio;
//! * [`fig5`] — prediction promptness/accuracy curves;
//! * [`overhead`] — §V-C instrumentation overhead table;
//! * [`ablation`] — scheduler ladder, rule-latency sensitivity, path
//!   diversity;
//! * [`chaos`] — control-plane fault tolerance: JCT and degradation
//!   counters under a lossy management network and controller outage;
//! * [`forksweep`] — fork-based chaos sweep: one warm-up snapshot shared
//!   across every fault schedule, verified observably identical to the
//!   cold starts;
//! * [`leadtime`] — the Fig-5 latency budget decomposed per server pair
//!   from a flight-recorded sort (prediction → rule → flow deltas);
//! * [`scale`] — control-plane scale sweep over fat-tree fabrics:
//!   eager vs. structural path-table construction plus end-to-end Sort
//!   runs (cap the fabric size with `SCALE_SERVERS`).
//! * [`fleet`] — multi-tenant fleet fairness: streamed tenants vs
//!   isolated baselines (slowdown, rule-install share, TCAM contention,
//!   Jain indices).
//!
//! [`calibrate`] is not an experiment but the fixed-work session
//! calibration every throughput floor check runs alongside the real
//! measurement, with the reference time and floor allowance the gates
//! share.
//!
//! Each module exposes `run(&FigureScale)`; `FigureScale::default()` is
//! paper scale, `::quick()` a CI-sized smoke, `::bench()` a medium size
//! between the two. The `run_all` binary executes everything and writes
//! CSVs under `results/`.

pub mod ablation;
pub mod calibrate;
pub mod chaos;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod figures;
pub mod fleet;
pub mod forksweep;
pub mod leadtime;
pub mod multijob;
pub mod overhead;
pub mod runner;
pub mod scale;
pub mod spectrum;
pub mod timeliness;

pub use figures::{completion_figure, CompletionFigure, CompletionRow, FigureScale};
pub use runner::{default_threads, grid, mean_completion, run_sweep, SweepPoint};
