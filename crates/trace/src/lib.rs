#![warn(missing_docs)]

//! `pythia-trace` — the flight recorder for the whole pipeline.
//!
//! Pythia's value proposition is *timing*: a map-finish must become an
//! index-file decode, a prediction, a collector aggregate, and an
//! installed rule **before** the shuffle flow arrives (§IV; Figure 5's
//! ≥9 s lead). End-state aggregates cannot show *where* in that chain
//! lead time is spent or lost under chaos — this crate can. It provides:
//!
//! * a bounded **ring buffer** of typed, sim-time-stamped events
//!   ([`TraceEvent`]) covering the full prediction→rule→flow chain plus
//!   chaos (link state, controller outages);
//! * lightweight **span timing** of control-plane operations (path
//!   compute, cache invalidation, first-fit placement) feeding a
//!   counter/**histogram registry** — wall-clock cost, kept out of the
//!   deterministic event stream by default;
//! * exporters to **JSONL** (one event per line, schema-validatable) and
//!   **Chrome trace-event** format keyed by sim-time, loadable in
//!   Perfetto / `chrome://tracing`;
//! * a per-[`Component`] filter and a bounded-memory mode so tracing a
//!   1024-server run cannot exhaust the heap.
//!
//! The disabled path is a single `Option` check per site — event
//! construction is deferred behind closures that never run — so
//! simulation hot paths pay nothing when the recorder is off (the
//! default).
//!
//! ```
//! use pythia_trace::{Trace, TraceConfig, TraceEvent, Component};
//! use pythia_des::SimTime;
//! use pythia_netsim::LinkId;
//!
//! let trace = Trace::new(&TraceConfig::enabled());
//! trace.set_now(SimTime::from_secs(1));
//! trace.record(Component::Engine, || TraceEvent::LinkState { link: LinkId(3), up: false });
//! let events = trace.take_events();
//! assert_eq!(events.len(), 1);
//! let jsonl = pythia_trace::export::to_jsonl(&events);
//! pythia_trace::export::validate_jsonl(&jsonl).unwrap();
//! ```

pub mod event;
pub mod export;
pub mod recorder;

pub use event::{AllocOutcome, Component, TimedEvent, TraceEvent};
pub use recorder::{SpanGuard, SpanHist, Trace, TraceConfig, TraceStats};
