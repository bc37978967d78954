#![warn(missing_docs)]

//! `pythia-cluster` — the cluster orchestrator.
//!
//! Composes the substrates into runnable scenarios: a [`config::ScenarioConfig`]
//! (topology, over-subscription, scheduler, seeds) plus a
//! [`pythia_hadoop::JobSpec`] goes in; a [`report::RunReport`] (timelines,
//! flow traces, measured/predicted curves) comes out.
//!
//! See [`engine`] for the event-loop contract.
//!
//! ```
//! use pythia_cluster::{run_scenario, ScenarioConfig, SchedulerKind};
//! use pythia_des::SimDuration;
//! use pythia_hadoop::{DurationModel, JobSpec, UniformPartitioner};
//!
//! let job = JobSpec {
//!     name: "doc".into(),
//!     num_maps: 8,
//!     num_reducers: 4,
//!     input_bytes: 8 * 64_000_000,
//!     map_output_ratio: 1.0,
//!     map_duration: DurationModel::rate(SimDuration::from_secs(1), 50e6, 0.1),
//!     sort_duration: DurationModel::fixed(SimDuration::from_millis(500)),
//!     reduce_duration: DurationModel::fixed(SimDuration::from_millis(500)),
//!     partitioner: Box::new(UniformPartitioner),
//! };
//! let cfg = ScenarioConfig::default()
//!     .with_scheduler(SchedulerKind::Pythia)
//!     .with_oversubscription(10)
//!     .with_seed(1);
//! let report = run_scenario(job, &cfg);
//! assert!(report.timeline.job_end.is_some());
//! assert!(report.rules_installed > 0);
//! ```

pub mod config;
pub mod engine;
pub mod report;
pub mod service;
pub mod snapshot;
pub mod tolerance;

pub use config::{
    ControllerOutage, LinkFault, ScenarioConfig, SchedulerKind, RELAXED_ABS_EPS_SECS,
    RELAXED_COMPLETION_EPS, RELAXED_CURVE_EPS,
};
pub use engine::{
    capture_multi_snapshot, fork_multi_scenario, resume_multi_from_bytes, resume_multi_scenario,
    run_multi_scenario, run_multi_scenario_checkpointed, run_multi_scenario_tapped, run_scenario,
    run_scenario_tapped,
};
pub use pythia_snapshot::SnapshotError;
pub use report::{Fingerprint, JobOutcome, MultiRunReport, RunReport};
pub use service::{
    dispatch_control, tenant_of, ControlMsg, ServiceCore, ServiceError, SYSTEM_TENANT,
};
pub use snapshot::{config_hash, fork_config_hash, CheckpointPolicy};
pub use tolerance::{compare_conservation, compare_tolerance, ToleranceReport};
