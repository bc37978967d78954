#![warn(missing_docs)]

//! `pythia-core` — the paper's primary contribution.
//!
//! Pythia (IPDPS 2014) accelerates Hadoop MapReduce by predicting shuffle
//! transfers at runtime and programming the SDN data network before the
//! flows start:
//!
//! * [`instrument`] — the transparent per-server middleware that decodes
//!   spill index files into per-reducer shuffle predictions;
//! * [`overhead`] — application-layer → wire-volume conversion (the
//!   source of the paper's 3–7% conservative over-estimate);
//! * [`mgmtnet`] — the management-network channel model (loss,
//!   duplication, jitter) with agent-side retry and exponential backoff;
//! * [`collector`] — central aggregation into server-pair transfers, with
//!   parked predictions for not-yet-scheduled reducers, idempotent under
//!   re-delivery and map re-execution;
//! * [`allocator`] — the first-fit bin-packing path allocator
//!   ("assign each aggregated flow to the path with the highest available
//!   bandwidth", size-aware, background-differentiated);
//! * [`scheduler`] — [`scheduler::PythiaSystem`], the facade the cluster
//!   engine drives: one collector, with placement split into per-pod
//!   allocator shards;
//! * [`middleware_cost`] — the §V-C dc + spike overhead model.
//!
//! The instrumentation path in isolation — decode a spill index into a
//! wire-volume prediction:
//!
//! ```
//! use pythia_core::{Instrumentation, overhead};
//! use pythia_des::SimTime;
//! use pythia_hadoop::{IndexFile, JobId, MapTaskId, ServerId};
//!
//! let mut middleware = Instrumentation::new(ServerId(3));
//! // Hadoop wrote a spill with two reducer partitions.
//! let index = IndexFile::from_partition_sizes(&[10_000_000, 2_000_000], 1.0);
//! let msg = middleware
//!     .on_spill(SimTime::from_secs(42), JobId(0), MapTaskId(7), &index.encode())
//!     .unwrap();
//! // Predicted wire volume = payload x conservative protocol overhead.
//! assert_eq!(msg.per_reducer_bytes[0], overhead::predicted_wire_bytes(10_000_000));
//! assert!(msg.per_reducer_bytes[0] > 10_000_000);
//! ```

pub mod allocator;
pub mod collector;
pub mod instrument;
pub mod mgmtnet;
pub mod middleware_cost;
pub mod overhead;
pub mod residual;
pub mod scheduler;

pub use allocator::{resolve_hops, FlowAllocator, Placement};
pub use collector::{AggregatedDemand, Collector, PredictionOutcome, UnknownServer};
pub use instrument::{Instrumentation, PredictionMsg};
pub use mgmtnet::{MgmtNet, MgmtNetConfig, MgmtNetStats};
pub use middleware_cost::MiddlewareCostModel;
pub use residual::ResidualTable;
pub use scheduler::{
    AggregationPolicy, AllocationMode, CollectorTotals, PythiaConfig, PythiaStats, PythiaSystem,
};
