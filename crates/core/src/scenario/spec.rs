//! The declarative [`Scenario`] spec: plain data plus JSON codecs.
//!
//! Everything here is inert description — no simulation state, no RNG.
//! The lowering rules that turn a spec into engine configurations live in
//! the parent module; the chaos-plan knobs lower onto the typed
//! [`NodeConfig`]/fleet fields added for them (see `DESIGN.md` §13).

use crate::fleet::{FleetConfig, STOCK_WAKE_PPM};
use crate::mesh::MeshConfig;
use crate::node::{HarvestDropout, NodeConfig};
use crate::stack::AppBoard;
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};

/// Fleet geometry and channel parameters (the non-chaos fleet knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Minimum node-to-receiver distance, meters.
    pub distance_min_m: f64,
    /// Maximum node-to-receiver distance, meters.
    pub distance_max_m: f64,
    /// Capture threshold for overlapping transmissions, dB.
    pub capture_margin_db: f64,
}

impl Default for FleetSpec {
    /// The stock engine defaults, so an omitted "fleet" object lowers onto
    /// `FleetConfig::default()`.
    fn default() -> Self {
        let fleet = FleetConfig::default();
        Self {
            distance_min_m: fleet.distance_range.0,
            distance_max_m: fleet.distance_range.1,
            capture_margin_db: fleet.capture_margin.value(),
        }
    }
}

/// Mesh (multi-hop relay) parameters. A scenario with a `mesh` object
/// runs the line-topology relay engine instead of the single-receiver
/// ALOHA fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Distance from the sink to node 0, meters.
    pub sink_offset_m: f64,
    /// Inter-node spacing along the line, meters.
    pub spacing_m: f64,
    /// Relay decode + PA spin-up delay, milliseconds.
    pub turnaround_ms: u64,
    /// Maximum hop count a relayed copy may reach.
    pub max_hops: u32,
}

impl Default for MeshSpec {
    /// The stock engine defaults, so an omitted mesh field lowers onto
    /// `MeshConfig::default()`.
    fn default() -> Self {
        let mesh = MeshConfig::default();
        Self {
            sink_offset_m: mesh.sink_offset_m,
            spacing_m: mesh.spacing_m,
            turnaround_ms: mesh.turnaround.as_nanos() / 1_000_000,
            max_hops: mesh.max_hops,
        }
    }
}

/// The fault/chaos plan: deterministic environmental adversity layered on
/// the typed `NodeFault` machinery. Every knob defaults to "off" (the
/// exact stock behavior).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Square-wave harvest dropout (per-node phase staggered by seed).
    pub harvest_dropout: Option<HarvestDropout>,
    /// Battery aging: remaining capacity fraction in `(0, 1]` (1.0 = fresh).
    pub battery_capacity_fraction: f64,
    /// Ambient storage temperature, °C — drives the NiMH
    /// temperature-dependent self-discharge.
    pub ambient_celsius: Option<f64>,
    /// Clock-drift half-width for the per-node wake-timer tolerance draw,
    /// ppm (500 = stock).
    pub wake_ppm_range: f64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            harvest_dropout: None,
            battery_capacity_fraction: 1.0,
            ambient_celsius: None,
            wake_ppm_range: STOCK_WAKE_PPM,
        }
    }
}

/// Which scalar the sweep mode varies across its `values`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKnob {
    /// Fleet size (values are rounded to whole nodes).
    Nodes,
    /// Initial battery state of charge.
    InitialSoc,
    /// Maximum node-to-receiver distance, meters (fleet mode only).
    DistanceMaxM,
    /// Sensor sample period override, seconds.
    SamplePeriodS,
}

impl SweepKnob {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Nodes => "nodes",
            Self::InitialSoc => "initial_soc",
            Self::DistanceMaxM => "distance_max_m",
            Self::SamplePeriodS => "sample_period_s",
        }
    }
}

/// A parameter sweep: one engine run per value, all from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Which knob varies.
    pub knob: SweepKnob,
    /// The values to run, in order.
    pub values: Vec<f64>,
}

/// A Monte Carlo campaign: the scenario re-run under a fan of derived
/// seeds, with per-node first-brown-out times harvested from the
/// telemetry stream into a survival curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Number of seeds in the fan (seed 0 is the spec's own seed).
    pub seeds: usize,
    /// Time-axis resolution of the survival curve.
    pub bins: usize,
}

impl Default for Campaign {
    fn default() -> Self {
        Self { seeds: 8, bins: 24 }
    }
}

/// A declarative simulation scenario: one JSON-able value describing the
/// harvester, environment, application board, fleet shape, mesh mode,
/// chaos plan, and (optionally) a sweep or Monte Carlo campaign.
///
/// `name`, `seed`, `duration_s` and `nodes` are required in the JSON
/// form; everything else defaults to the stock engine behavior, so a
/// minimal spec is four lines and lowers bit-identically onto the
/// hard-coded TPMS fleet (pinned by `tests/scenarios.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (carried into the outcome).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Fleet size.
    pub nodes: usize,
    /// Base per-node configuration (id/seed/phase overridden per node).
    pub node: NodeConfig,
    /// Application board every node carries.
    pub app: AppBoard,
    /// Fleet geometry/channel parameters.
    pub fleet: FleetSpec,
    /// Multi-hop relay mode, when present.
    pub mesh: Option<MeshSpec>,
    /// Chaos plan, when present.
    pub chaos: Option<ChaosPlan>,
    /// Parameter sweep mode, when present.
    pub sweep: Option<Sweep>,
    /// Monte Carlo campaign mode, when present.
    pub campaign: Option<Campaign>,
}

impl ToJson for FleetSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("distance_min_m".into(), self.distance_min_m.to_json()),
            ("distance_max_m".into(), self.distance_max_m.to_json()),
            ("capture_margin_db".into(), self.capture_margin_db.to_json()),
        ])
    }
}

impl FromJson for FleetSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let defaults = Self::default();
        Ok(Self {
            distance_min_m: optional(value, "distance_min_m", defaults.distance_min_m)?,
            distance_max_m: optional(value, "distance_max_m", defaults.distance_max_m)?,
            capture_margin_db: optional(value, "capture_margin_db", defaults.capture_margin_db)?,
        })
    }
}

impl ToJson for MeshSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sink_offset_m".into(), self.sink_offset_m.to_json()),
            ("spacing_m".into(), self.spacing_m.to_json()),
            ("turnaround_ms".into(), self.turnaround_ms.to_json()),
            ("max_hops".into(), self.max_hops.to_json()),
        ])
    }
}

impl FromJson for MeshSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let defaults = Self::default();
        Ok(Self {
            sink_offset_m: optional(value, "sink_offset_m", defaults.sink_offset_m)?,
            spacing_m: optional(value, "spacing_m", defaults.spacing_m)?,
            turnaround_ms: optional(value, "turnaround_ms", defaults.turnaround_ms)?,
            max_hops: optional(value, "max_hops", defaults.max_hops)?,
        })
    }
}

impl ToJson for ChaosPlan {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("harvest_dropout".into(), self.harvest_dropout.to_json()),
            (
                "battery_capacity_fraction".into(),
                self.battery_capacity_fraction.to_json(),
            ),
            ("ambient_celsius".into(), self.ambient_celsius.to_json()),
            ("wake_ppm_range".into(), self.wake_ppm_range.to_json()),
        ])
    }
}

impl FromJson for ChaosPlan {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let defaults = Self::default();
        Ok(Self {
            harvest_dropout: optional(value, "harvest_dropout", defaults.harvest_dropout)?,
            battery_capacity_fraction: optional(
                value,
                "battery_capacity_fraction",
                defaults.battery_capacity_fraction,
            )?,
            ambient_celsius: optional(value, "ambient_celsius", defaults.ambient_celsius)?,
            wake_ppm_range: optional(value, "wake_ppm_range", defaults.wake_ppm_range)?,
        })
    }
}

impl ToJson for SweepKnob {
    fn to_json(&self) -> Json {
        Json::Str(self.tag().into())
    }
}

impl FromJson for SweepKnob {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tag: String = FromJson::from_json(value)?;
        match tag.as_str() {
            "nodes" => Ok(Self::Nodes),
            "initial_soc" => Ok(Self::InitialSoc),
            "distance_max_m" => Ok(Self::DistanceMaxM),
            "sample_period_s" => Ok(Self::SamplePeriodS),
            other => Err(JsonError::new(format!("unknown sweep knob {other:?}"))),
        }
    }
}

impl ToJson for Sweep {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("knob".into(), self.knob.to_json()),
            ("values".into(), self.values.to_json()),
        ])
    }
}

impl FromJson for Sweep {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            knob: FromJson::from_json(field(value, "knob")?)?,
            values: FromJson::from_json(field(value, "values")?)?,
        })
    }
}

impl ToJson for Campaign {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seeds".into(), self.seeds.to_json()),
            ("bins".into(), self.bins.to_json()),
        ])
    }
}

impl FromJson for Campaign {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let defaults = Self::default();
        Ok(Self {
            seeds: optional(value, "seeds", defaults.seeds)?,
            bins: optional(value, "bins", defaults.bins)?,
        })
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("duration_s".into(), self.duration_s.to_json()),
            ("nodes".into(), self.nodes.to_json()),
            ("node".into(), self.node.to_json()),
            ("app".into(), self.app.to_json()),
            ("fleet".into(), self.fleet.to_json()),
            ("mesh".into(), self.mesh.to_json()),
            ("chaos".into(), self.chaos.to_json()),
            ("sweep".into(), self.sweep.to_json()),
            ("campaign".into(), self.campaign.to_json()),
        ])
    }
}

impl FromJson for Scenario {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: FromJson::from_json(field(value, "name")?)?,
            seed: FromJson::from_json(field(value, "seed")?)?,
            duration_s: FromJson::from_json(field(value, "duration_s")?)?,
            nodes: FromJson::from_json(field(value, "nodes")?)?,
            node: match value.get("node") {
                Some(v) => node_overlay(v)?,
                None => NodeConfig::default(),
            },
            app: optional(value, "app", AppBoard::Tpms)?,
            fleet: optional(value, "fleet", FleetSpec::default())?,
            mesh: optional(value, "mesh", None)?,
            chaos: optional(value, "chaos", None)?,
            sweep: optional(value, "sweep", None)?,
            campaign: optional(value, "campaign", None)?,
        })
    }
}

/// Parses an optional object key, substituting `default` when the key is
/// absent (or, for `Option` targets, explicitly `null`).
fn optional<T: FromJson>(value: &Json, key: &str, default: T) -> Result<T, JsonError> {
    match value.get(key) {
        Some(v) => FromJson::from_json(v),
        None => Ok(default),
    }
}

/// Parses a *partial* node configuration: every key is optional and
/// missing keys take the stock [`NodeConfig::default`] value, so spec
/// files only spell the knobs they change (unlike the strict
/// [`NodeConfig`] codec used for full round-trips).
fn node_overlay(value: &Json) -> Result<NodeConfig, JsonError> {
    let d = NodeConfig::default();
    Ok(NodeConfig {
        power_chain: optional(value, "power_chain", d.power_chain)?,
        harvester: optional(value, "harvester", d.harvester)?,
        drive_cycle: optional(value, "drive_cycle", d.drive_cycle)?,
        node_id: optional(value, "node_id", d.node_id)?,
        seed: optional(value, "seed", d.seed)?,
        initial_soc: optional(value, "initial_soc", d.initial_soc)?,
        leak_kpa_per_hour: optional(value, "leak_kpa_per_hour", d.leak_kpa_per_hour)?,
        wakeup_receiver: optional(value, "wakeup_receiver", d.wakeup_receiver)?,
        first_wake_offset_ms: optional(value, "first_wake_offset_ms", d.first_wake_offset_ms)?,
        wake_interval_ppm: optional(value, "wake_interval_ppm", d.wake_interval_ppm)?,
        alarm_threshold_kpa: optional(value, "alarm_threshold_kpa", d.alarm_threshold_kpa)?,
        ungated_rf_ldo: optional(value, "ungated_rf_ldo", d.ungated_rf_ldo)?,
        sample_period_s: optional(value, "sample_period_s", d.sample_period_s)?,
        storage: optional(value, "storage", d.storage)?,
        battery_capacity_fraction: optional(
            value,
            "battery_capacity_fraction",
            d.battery_capacity_fraction,
        )?,
        ambient_celsius: optional(value, "ambient_celsius", d.ambient_celsius)?,
        harvest_dropout: optional(value, "harvest_dropout", d.harvest_dropout)?,
    })
}
