//! End-to-end and per-layer benchmark of the PicoCube simulator.
//!
//! The binary (`src/main.rs`) runs one named [`workload::Workload`] per
//! invocation, times it, checks its output, and prints a report whose last
//! line is one JSON object. This library holds the parts that are tested
//! on their own: order statistics, `/proc` readings, span self time, the
//! workloads and their output checks, the traced replay and the layer
//! probes.

pub mod calib;
pub mod probes;
pub mod procfs;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
