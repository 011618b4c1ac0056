//! # ovcomm-obs
//!
//! Observability for the ovcomm stack: a lock-cheap [`registry`] of
//! counters/gauges/virtual-time histograms fed by the simulator layers, an
//! [`analyze()`] pass that turns network utilization integrals into
//! overlap-efficiency numbers (how much NIC-busy time carried ≥ 2
//! concurrent flows — the paper's central quantity), a
//! [`critpath`]/[`blame`] profiling pass that rebuilds the happens-before
//! DAG from spans plus send→recv / post→wait edges and attributes the
//! makespan into a wait-blame tree (the `ProfileBlock` bench records
//! embed), and a [`perfetto`] exporter that writes Chrome trace-event
//! JSON loadable in `ui.perfetto.dev`.
//!
//! The crate depends only on `ovcomm-simnet` types; `ovcomm-simmpi` feeds
//! it and the kernel/bench layers consume the reports.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod blame;
pub mod critpath;
pub mod perfetto;
pub mod registry;

pub use analyze::{analyze, OverlapReport};
pub use blame::{profile, BlameNode, ProfileBlock, ProfileSegment, PROFILE_SCHEMA};
pub use critpath::{critical_path_dag, PathSegment, GAP_ACTOR};
pub use perfetto::{read_trace, trace_to_json, validate_trace_events, write_trace};
pub use registry::{
    Counter, CounterFamily, Gauge, GaugeSnapshot, Histogram, HistogramFamily, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};
