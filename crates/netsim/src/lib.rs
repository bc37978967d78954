#![warn(missing_docs)]

//! `pythia-netsim` — flow-level datacenter network simulator.
//!
//! Substrate replacing the paper's physical testbed (10 servers in 2 racks,
//! OpenFlow ToR switches, 2 inter-rack links; §V-A):
//!
//! * [`topology`] — capacitated directed graph of servers/switches, with
//!   the paper's multi-rack reference builder;
//! * [`routing`] — validated loop-free paths;
//! * [`flow`] — 5-tuple flow descriptors (adaptive TCP vs constant-rate UDP);
//! * [`fairshare`] — max-min fair bandwidth allocation (progressive
//!   filling), the fluid model standing in for per-packet TCP dynamics;
//! * [`net`] — [`net::FlowNet`], the live network state machine driven by
//!   the simulation engine;
//! * [`deferral`] — when a driver may defer a rate solve, and the
//!   completion-time tolerance that deferring is held to;
//! * [`background`] — iperf-style CBR streams emulating over-subscription;
//! * [`probe`] — NetFlow-style cumulative traffic curves (Figure 5's
//!   measurement methodology).
//!
//! ```
//! use pythia_des::SimTime;
//! use pythia_netsim::{build_multi_rack, FiveTuple, FlowNet, FlowSpec, MultiRackParams, Path};
//!
//! // The paper's testbed: 2 racks x 5 servers, 1 GbE NICs, 2 x 10 GbE trunks.
//! let mr = build_multi_rack(&MultiRackParams::default());
//! let mut net = FlowNet::new(mr.topology.clone());
//!
//! // A 125 MB shuffle fetch across the first trunk.
//! let t = &mr.topology;
//! let path = Path::new(t, vec![
//!     t.find_link(mr.servers[0], mr.tors[0], 0).unwrap(),
//!     t.find_link(mr.tors[0], mr.tors[1], 0).unwrap(),
//!     t.find_link(mr.tors[1], mr.servers[5], 0).unwrap(),
//! ]).unwrap();
//! let tuple = FiveTuple::tcp(mr.servers[0], mr.servers[5], 50060, 40000);
//! let id = net.start_flow(FlowSpec::tcp_transfer(tuple, 125_000_000), path);
//!
//! // Engine contract: recompute rates, then advance to the projected end.
//! net.recompute();
//! let (done_at, fid) = net.next_completion().unwrap();
//! assert_eq!(fid, id);
//! assert_eq!(done_at, SimTime::from_secs(1)); // 125 MB at the 1 Gb/s NIC
//! ```

pub mod background;
pub mod deferral;
pub mod fairshare;
pub mod flow;
pub mod net;
pub mod persist;
pub mod probe;
pub mod routing;
pub mod topology;

pub use background::{background_flows, redraw_group_rates, BackgroundProfile, OverSubscription};
pub use deferral::{
    Deferral, RELAXED_ABS_EPS_SECS, RELAXED_COMPLETION_EPS, RELAXED_CURVE_EPS, RELAXED_DEFER_FRAC,
    RELAXED_DEFER_MAX,
};
pub use fairshare::{max_min_fair, Allocation, FlowPath, CBR_SHARE_LIMIT};
pub use flow::{FiveTuple, FlowId, FlowKind, FlowSpec, Protocol};
pub use net::{ActiveFlow, FlowNet, FlowReport};
pub use probe::{CumulativeCurve, NetFlowProbe};
pub use routing::{Path, PathError};
pub use topology::{
    build_fat_tree, build_multi_rack, ClosStructure, FatTreeParams, Link, LinkId, MultiRack,
    MultiRackParams, Node, NodeId, NodeKind, Topology, TopologyBuilder, TopologySpec,
};
