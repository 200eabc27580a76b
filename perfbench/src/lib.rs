//! The altroute benchmark: four workloads, each measured end to end
//! with tracing off and layer by layer in a separate traced run. See
//! `README.md` in this directory for the metrics, the workloads and the
//! per-layer predictions.

pub mod affinity;
pub mod feed;
pub mod micro;
pub mod probe;
pub mod sim;
pub mod stats;
