//! **picocube** — a full-system simulation of the PicoCube, the 1 cm³
//! sensor node powered by harvested energy (Chee et al., DAC 2008).
//!
//! The PicoCube's contribution is a physical artifact — five stacked
//! 1 cm² boards running a tire-pressure application at a 6 µW average
//! from harvested energy. This workspace reproduces that system as a
//! simulation faithful to every number the paper publishes: the MSP430
//! runs real (emulated) firmware, the power train models carry the
//! measured efficiencies, and the paper's figures regenerate from runs.
//!
//! This meta-crate re-exports the member crates under one roof:
//!
//! * [`units`] — typed physical quantities (volts, watts, dBm, …).
//! * [`sim`] — the discrete-event kernel, power ledger and traces.
//! * [`power`] — rectifiers, charge pump, regulators, SC converters,
//!   references, switches, and the §7.1 power interface IC.
//! * [`storage`] — NiMH cell, supercapacitors, bypass networks.
//! * [`harvest`] — shaker, wheel, vibration-beam and solar harvesters.
//! * [`mcu`] — the MSP430-subset emulator, assembler and stock firmware.
//! * [`sensors`] — SP12 TPMS and SCA3000 models plus their environments.
//! * [`radio`] — FBAR, OOK transmitter, antenna, channel, receivers.
//! * [`node`] — the assembled PicoCube, packaging checks, baselines.
//! * [`telemetry`] — counters, event logs, per-rail energy export.
//!
//! For scripts and examples, `use picocube::prelude::*;` pulls in the
//! handful of types nearly every program needs.
//!
//! # Quickstart
//!
//! ```
//! use picocube::node::{AppBoard, NodeConfig, StackBuilder};
//! use picocube::sim::SimDuration;
//!
//! let mut node = StackBuilder::new(NodeConfig::default())
//!     .app(AppBoard::Tpms)
//!     .build()?;
//! node.run_for(SimDuration::from_secs(60));
//!
//! let report = node.report();
//! println!("average power: {:.2} µW", report.average_power.micro());
//! assert!(report.packets.len() >= 9); // one sample every six seconds
//! # Ok::<(), picocube::node::BuildError>(())
//! ```
//!
//! See `examples/` for the runnable scenarios (quickstart, TPMS
//! deployment, the §6 motion demo, harvester sizing) and the
//! `picocube-bench` crate for the per-figure experiment binaries.

#![warn(missing_docs)]

pub use picocube_harvest as harvest;
pub use picocube_mcu as mcu;
pub use picocube_node as node;
pub use picocube_power as power;
pub use picocube_radio as radio;
pub use picocube_sensors as sensors;
pub use picocube_sim as sim;
pub use picocube_storage as storage;
pub use picocube_telemetry as telemetry;
pub use picocube_units as units;

/// The types nearly every PicoCube program touches, in one import.
///
/// Covers building and running a node ([`Stack`](prelude::Stack),
/// [`NodeConfig`](prelude::NodeConfig), [`StackBuilder`](prelude::StackBuilder)
/// with [`AppBoard`](prelude::AppBoard)), fleet scenarios
/// ([`FleetConfig`](prelude::FleetConfig) and friends), declarative JSON
/// scenarios ([`Scenario`](prelude::Scenario) and
/// [`run_scenario_with`](prelude::run_scenario_with)), the simulation
/// clock, telemetry sinks, and the most common physical quantities.
///
/// # Examples
///
/// ```
/// use picocube::prelude::*;
///
/// let mut node = StackBuilder::new(NodeConfig::default())
///     .app(AppBoard::Tpms)
///     .build()?;
/// node.run_for(SimDuration::from_secs(30));
/// assert!(node.report().average_power < Watts::from_micro(20.0));
/// # Ok::<(), BuildError>(())
/// ```
pub mod prelude {
    pub use picocube_node::{
        run_fleet, run_fleet_with, run_mesh, run_mesh_with, run_scenario_with, AppBoard,
        BuildError, FleetApp, FleetConfig, FleetConfigBuilder, FleetConfigError, FleetOutcome,
        HarvesterKind, MeshConfig, MeshConfigError, MeshOutcome, NodeConfig, NodeReport,
        Parallelism, Scenario, ScenarioError, ScenarioOutcome, Stack, StackBuilder,
    };
    pub use picocube_sim::{SimDuration, SimRng, SimTime};
    pub use picocube_telemetry::{
        summary_table, Event, EventKind, JsonlRecorder, Metrics, NullRecorder, Recorder,
        TelemetryBuffer,
    };
    pub use picocube_units::{Dbm, Hertz, Joules, Seconds, Volts, Watts};
}
