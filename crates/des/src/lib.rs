#![warn(missing_docs)]

//! `pythia-des` — discrete-event simulation kernel.
//!
//! The minimal substrate every other crate in the Pythia reproduction
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`EventQueue`] — a deterministic future-event set with O(log n) push,
//!   lazy O(1) cancellation, and FIFO ordering for simultaneous events;
//! * [`RngFactory`] — named, reproducible random streams derived from one
//!   master seed;
//! * [`FastMap`] / [`FastSet`] — hash tables with a seeded multiply-rotate
//!   hasher, one seed per table.
//!
//! Domain crates (`pythia-netsim`, `pythia-hadoop`, …) are written as pure
//! state machines; only `pythia-cluster` runs an actual event loop on top
//! of this kernel. That split keeps the domain logic unit- and
//! property-testable without standing up a whole simulation.
//!
//! ```
//! use pythia_des::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_secs(2), "late");
//! let early = q.push(SimTime::from_millis(500), "early");
//! let cancelled = q.push(SimTime::from_secs(1), "never");
//! q.cancel(cancelled);
//!
//! let (t, _, what) = q.pop().unwrap();
//! assert_eq!(what, "early");
//! assert_eq!(t + SimDuration::from_millis(1500), SimTime::from_secs(2));
//! assert_eq!(q.pop().unwrap().2, "late");
//! assert!(q.is_empty());
//! # let _ = early;
//! ```

pub mod hash;
pub mod persist;
pub mod queue;
pub mod rng;
pub mod time;

pub use hash::{FastMap, FastSet, FastState};
pub use persist::{get_rng, put_rng};
pub use queue::{EventId, EventQueue};
pub use rng::{fnv1a64, splitmix64, Fnv1a64, RngFactory};
pub use time::{SimDuration, SimTime};
