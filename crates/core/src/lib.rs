//! The assembled PicoCube: a full-node simulation of the 1 cm³
//! harvested-energy sensor node.
//!
//! This crate wires the subsystem models together exactly as the hardware
//! is wired (Fig. 1): the emulated MSP430 runs the stock interrupt-driven
//! firmware; its SPI bus is multiplexed between the sensor and the radio by
//! the same GPIO lines the firmware drives; the power chain (the built
//! COTS chain or the §7.1 integrated IC) maps every rail's draw back to
//! the NiMH bus; a harvester charges the cell through the rectifier; and a
//! [`PowerLedger`](picocube_sim::PowerLedger) integrates it all so the
//! paper's measured quantities — the Fig. 6 power profile, the 6 µW
//! average, the ~14 ms burst — are *measurements of the simulation*.
//!
//! # Examples
//!
//! ```
//! use picocube_node::{AppBoard, NodeConfig, StackBuilder};
//! use picocube_sim::SimDuration;
//!
//! let mut node = StackBuilder::new(NodeConfig::default())
//!     .app(AppBoard::Tpms)
//!     .build()?;
//! node.run_for(SimDuration::from_secs(60));
//! let report = node.report();
//! assert!(report.average_power.micro() < 20.0);
//! assert!(!report.packets.is_empty());
//! # Ok::<(), picocube_node::BuildError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod bus;
mod demo;
mod fleet;
mod mesh;
mod node;
mod packaging;
pub mod scenario;
pub mod stack;

pub use baseline::{node_class_table, MoteClassNode, NodeClassRow};
pub use bus::{RadioFrontend, TransmittedPacket};
pub use demo::{DemoStation, ReceivedSample};
pub use fleet::{
    capture_sweep, merge_fleet, run_fleet, run_fleet_partial, run_fleet_resumable, run_fleet_with,
    run_fleet_with_stats, simulate_node, simulate_node_instrumented, AirSlot, CheckpointError,
    FleetApp, FleetCheckpoint, FleetConfig, FleetConfigBuilder, FleetConfigError, FleetOutcome,
    FleetSchedStats, NodeOnAir, PacketFate, Parallelism, StackCheckpoint,
};
pub use mesh::{run_mesh, run_mesh_with, MeshConfig, MeshConfigError, MeshOutcome};
pub use node::{
    BuildError, HarvestDropout, HarvesterKind, NodeConfig, NodeReport, PowerChainKind, SensorKind,
    StorageKind,
};
pub use packaging::{
    BoardSpec, BusAllocation, ElastomerSpec, PackagingError, StackDesign, StackReport,
};
pub use scenario::{
    run_scenario_with, Campaign, ChaosPlan, FleetSpec, MeshSpec, RunSummary, Scenario,
    ScenarioError, ScenarioOutcome, SurvivalCurve, Sweep, SweepKnob,
};
pub use stack::{
    AppBoard, Board, BoardDraw, NodeFault, RadioBoard, RailSolve, RunOutcome, SensorBoard, Stack,
    StackBuilder, StackCtx, StorageBoard, SupervisorVerdict, SwitchBoard,
};
