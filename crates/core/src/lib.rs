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
//! Many nodes run through the fleet engine. [`FleetConfig`] is plain
//! data, and every fleet entry point calls [`FleetConfig::validate`]
//! first: [`run_fleet_with`] panics on a bad config, while
//! [`run_fleet_resumable`] returns the failure typed and can continue a
//! [`FleetCheckpoint`]. [`MeshConfig`] and [`run_mesh_with`] run the
//! relay mesh, and a [`Scenario`] lowers a JSON spec onto either.
//! `DESIGN.md` §8 lists the public API.
//!
//! # Examples
//!
//! ```
//! use picocube_node::{AppBoard, NodeConfig, Stack};
//! use picocube_sim::SimDuration;
//!
//! let mut node = Stack::new(NodeConfig::default(), AppBoard::Tpms)?;
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
mod stack;

pub use baseline::{node_class_table, MoteClassNode, NodeClassRow};
pub use bus::TransmittedPacket;
pub use demo::{DemoStation, ReceivedSample};
pub use fleet::{
    capture_sweep, merge_fleet, run_fleet_partial, run_fleet_resumable, run_fleet_with,
    run_fleet_with_stats, simulate_node, AirSlot, CheckpointError, FleetApp, FleetCheckpoint,
    FleetConfig, FleetConfigError, FleetOutcome, FleetSchedStats, NodeOnAir, PacketFate,
    Parallelism, StackCheckpoint,
};
pub use mesh::{run_mesh_with, MeshConfig, MeshConfigError, MeshOutcome};
pub use node::{
    BuildError, HarvestDropout, HarvesterKind, NodeConfig, NodeReport, PowerChainKind, StorageKind,
};
pub use packaging::{
    BoardSpec, BusAllocation, ElastomerSpec, PackagingError, StackDesign, StackReport,
};
pub use scenario::{
    run_scenario_with, Campaign, ChaosPlan, FleetSpec, MeshSpec, RunSummary, Scenario,
    ScenarioError, ScenarioOutcome, SurvivalCurve, Sweep, SweepKnob,
};
pub use stack::{AppBoard, NodeFault, RunOutcome, Stack};
