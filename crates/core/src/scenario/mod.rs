//! The declarative scenario engine: one serde-able [`Scenario`] spec
//! drives harvesters, environments, fleets, meshes and chaos campaigns.
//!
//! A spec is plain JSON-able data (the `spec` submodule) with explicit
//! lowering rules onto the existing engines (`DESIGN.md` §13):
//!
//! * no `mesh` object → the work-stealing ALOHA fleet
//!   ([`run_fleet_with`](crate::run_fleet_with)); with one → the
//!   multi-hop relay mesh ([`run_mesh_with`]).
//! * a `chaos` object owns the four chaos knobs (harvest dropout, battery
//!   aging, ambient temperature, clock drift) and overrides the node-level
//!   equivalents; every knob's default is the exact stock behavior, so a
//!   spec with no chaos lowers **bit-identically** onto the hard-coded
//!   engine paths (pinned by `tests/scenarios.rs` golden fixtures).
//! * a `sweep` object fans one scalar knob across a value list (one run
//!   per value, same seed); a `campaign` object fans the *seed* instead
//!   and folds per-node first-brown-out times — harvested from the
//!   deterministic telemetry event stream — into a [`SurvivalCurve`].
//!
//! The spec-parsing and lowering path is panic-free by construction:
//! every malformed input comes back as a typed [`ScenarioError`]. Fleet
//! runs go through the typed entry point [`run_fleet_resumable`], whose
//! one pipeline validates the lowered config and probe-builds node 0, so
//! a node that does not build (say, an unphysical harvester trace from
//! JSON) comes back as [`ScenarioError::Build`] from the fleet and the
//! mesh alike.

mod campaign;
mod spec;

pub use campaign::SurvivalCurve;
pub use spec::{Campaign, ChaosPlan, FleetSpec, MeshSpec, Scenario, Sweep, SweepKnob};

use crate::fleet::{
    run_fleet_resumable, CheckpointError, FleetConfig, FleetConfigError, FleetOutcome, Parallelism,
};
use crate::mesh::{run_mesh_with, MeshConfig, MeshConfigError};
use crate::node::{BuildError, NodeConfig};
use campaign::SurvivalTracker;
use picocube_sim::{SimDuration, SimRng};
use picocube_telemetry::{keys, Metrics, Recorder};
use picocube_units::json::{Json, JsonError, ToJson};
use picocube_units::{Db, Seconds};

/// Why a scenario was rejected.
#[derive(Debug)]
pub enum ScenarioError {
    /// The JSON text failed to parse or was missing required fields.
    Parse(JsonError),
    /// A spec-level invariant was violated (the inner string names it).
    Invalid(&'static str),
    /// The lowered fleet configuration was rejected.
    Fleet(FleetConfigError),
    /// The lowered mesh configuration was rejected.
    Mesh(MeshConfigError),
    /// The lowered node failed its probe build (fleet or mesh).
    Build(BuildError),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "scenario JSON: {e}"),
            Self::Invalid(what) => write!(f, "invalid scenario: {what}"),
            Self::Fleet(e) => write!(f, "scenario fleet config: {e}"),
            Self::Mesh(e) => write!(f, "scenario mesh config: {e}"),
            Self::Build(e) => write!(f, "scenario node build: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        Self::Parse(e)
    }
}

impl From<FleetConfigError> for ScenarioError {
    fn from(e: FleetConfigError) -> Self {
        Self::Fleet(e)
    }
}

impl From<MeshConfigError> for ScenarioError {
    fn from(e: MeshConfigError) -> Self {
        match e {
            MeshConfigError::BaseConfig(build) => Self::Build(build),
            other => Self::Mesh(other),
        }
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON or missing
    /// required fields, and the other variants for specs that parse but
    /// cannot lower.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let value = Json::parse(text)?;
        let spec: Self = picocube_units::json::FromJson::from_json(&value)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks spec-level invariants (the engine-level ones are checked
    /// again by the lowered configs' own `validate`).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(ScenarioError::Invalid("duration_s must be positive"));
        }
        if self.nodes == 0 {
            return Err(ScenarioError::Invalid("nodes must be at least 1"));
        }
        self.app.validate().map_err(ScenarioError::Invalid)?;
        if self.sweep.is_some() && self.campaign.is_some() {
            return Err(ScenarioError::Invalid(
                "sweep and campaign modes are mutually exclusive",
            ));
        }
        if let Some(sweep) = &self.sweep {
            if sweep.values.is_empty() {
                return Err(ScenarioError::Invalid("sweep needs at least one value"));
            }
            if self.mesh.is_some() && sweep.knob == SweepKnob::DistanceMaxM {
                return Err(ScenarioError::Invalid(
                    "distance_max_m sweeps apply to fleet mode only",
                ));
            }
        }
        if let Some(mesh) = self.mesh {
            if mesh.turnaround_ms.checked_mul(1_000_000).is_none() {
                return Err(ScenarioError::Invalid(
                    "mesh turnaround_ms overflows the nanosecond simulation clock",
                ));
            }
        }
        if let Some(campaign) = self.campaign {
            if campaign.seeds == 0 {
                return Err(ScenarioError::Invalid("campaign needs at least one seed"));
            }
            if campaign.bins == 0 || campaign.bins > 10_000 {
                return Err(ScenarioError::Invalid(
                    "campaign bins must be in [1, 10000]",
                ));
            }
        }
        Ok(())
    }

    /// The base node config with the chaos plan applied. A present chaos
    /// object *owns* its knobs: its four fields replace the node-level
    /// equivalents (absent chaos fields take the chaos defaults, i.e.
    /// "off").
    fn lowered_node(&self) -> NodeConfig {
        let mut node = self.node.clone();
        if let Some(chaos) = self.chaos {
            node.harvest_dropout = chaos.harvest_dropout;
            node.battery_capacity_fraction = chaos.battery_capacity_fraction;
            node.ambient_celsius = chaos.ambient_celsius;
        }
        node
    }

    fn wake_ppm_range(&self) -> f64 {
        self.chaos.map_or(500.0, |c| c.wake_ppm_range)
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_seconds(Seconds::new(self.duration_s))
    }

    /// Lowers the spec onto a validated [`FleetConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] for specs the fleet engine would reject.
    pub fn fleet_config(&self, parallelism: Parallelism) -> Result<FleetConfig, ScenarioError> {
        self.validate()?;
        let config = FleetConfig {
            nodes: self.nodes,
            base: self.lowered_node(),
            duration: self.duration(),
            distance_range: (self.fleet.distance_min_m, self.fleet.distance_max_m),
            capture_margin: Db::new(self.fleet.capture_margin_db),
            seed: self.seed,
            parallelism,
            app: self.app,
            wake_ppm_range: self.wake_ppm_range(),
            // Scenario summaries read only fleet aggregates; keep the
            // lowered run on the O(workers) streaming path.
            per_node_stats: false,
        };
        config.validate()?;
        Ok(config)
    }

    /// Lowers the spec onto a validated [`MeshConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the spec has no `mesh`
    /// object, and the other variants for specs the mesh engine rejects.
    pub fn mesh_config(&self, parallelism: Parallelism) -> Result<MeshConfig, ScenarioError> {
        self.validate()?;
        let Some(mesh) = self.mesh else {
            return Err(ScenarioError::Invalid("scenario has no mesh object"));
        };
        let config = MeshConfig {
            nodes: self.nodes,
            base: self.lowered_node(),
            duration: self.duration(),
            sink_offset_m: mesh.sink_offset_m,
            spacing_m: mesh.spacing_m,
            capture_margin: Db::new(self.fleet.capture_margin_db),
            seed: self.seed,
            parallelism,
            turnaround: SimDuration::from_millis(mesh.turnaround_ms),
            max_hops: mesh.max_hops,
            app: self.app,
            wake_ppm_range: self.wake_ppm_range(),
            ..MeshConfig::default()
        };
        config.validate()?;
        Ok(config)
    }
}

/// One engine run's headline numbers, in the fleet vocabulary (mesh runs
/// report their sink-side accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Master seed this run used.
    pub seed: u64,
    /// The swept knob's value, in sweep mode.
    pub knob_value: Option<f64>,
    /// Packets put on the air.
    pub offered: usize,
    /// Packets decoded at the receiver/sink.
    pub delivered: usize,
    /// Packets lost to collisions.
    pub collided: usize,
    /// Packets lost to the channel.
    pub channel_losses: usize,
    /// `delivered / offered`.
    pub delivery_ratio: f64,
    /// Nodes whose simulation latched a fault.
    pub faulted: usize,
    /// Brown-out events across the fleet (from the merged metrics).
    pub brownouts: u64,
}

impl RunSummary {
    fn from_fleet(
        seed: u64,
        knob_value: Option<f64>,
        outcome: &FleetOutcome,
        metrics: &Metrics,
    ) -> Self {
        Self {
            seed,
            knob_value,
            offered: outcome.offered,
            delivered: outcome.delivered,
            collided: outcome.collided,
            channel_losses: outcome.channel_losses,
            delivery_ratio: outcome.delivery_ratio(),
            faulted: outcome.faulted,
            brownouts: metrics.counter(keys::BOARD_STORAGE_BROWNOUTS),
        }
    }
}

impl ToJson for RunSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), self.seed.to_json()),
            ("knob_value".into(), self.knob_value.to_json()),
            ("offered".into(), self.offered.to_json()),
            ("delivered".into(), self.delivered.to_json()),
            ("collided".into(), self.collided.to_json()),
            ("channel_losses".into(), self.channel_losses.to_json()),
            ("delivery_ratio".into(), self.delivery_ratio.to_json()),
            ("faulted".into(), self.faulted.to_json()),
            ("brownouts".into(), self.brownouts.to_json()),
        ])
    }
}

/// What [`run_scenario_with`] produced: one summary per engine run, the
/// merged metric registry, and (in campaign mode) the survival curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The spec's name, echoed for provenance.
    pub name: String,
    /// One entry per engine run (one for a plain scenario, one per sweep
    /// value, one per campaign seed).
    pub runs: Vec<RunSummary>,
    /// Campaign-mode survival curve.
    pub survival: Option<SurvivalCurve>,
    /// Merged metrics. For a plain (single-run) scenario these are
    /// bit-identical to the underlying engine's registry.
    pub metrics: Metrics,
}

impl ScenarioOutcome {
    /// Overall delivery ratio across all runs.
    pub fn delivery_ratio(&self) -> f64 {
        let offered: usize = self.runs.iter().map(|r| r.offered).sum();
        let delivered: usize = self.runs.iter().map(|r| r.delivered).sum();
        if offered == 0 {
            0.0
        } else {
            delivered as f64 / offered as f64
        }
    }
}

impl ToJson for ScenarioOutcome {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("runs".into(), self.runs.to_json()),
            ("survival".into(), self.survival.to_json()),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }
}

/// A spec lowered onto one engine's immutable config: what plain, sweep
/// and campaign runs all execute.
enum Lowered {
    Fleet(FleetConfig),
    Mesh(MeshConfig),
}

impl Lowered {
    /// Lowers `spec` onto the fleet engine, or onto the mesh when it has a
    /// `mesh` object.
    fn new(spec: &Scenario, parallelism: Parallelism) -> Result<Self, ScenarioError> {
        Ok(if spec.mesh.is_some() {
            Self::Mesh(spec.mesh_config(parallelism)?)
        } else {
            Self::Fleet(spec.fleet_config(parallelism)?)
        })
    }

    /// Re-seeds the lowered run (a campaign's seed fan).
    fn set_seed(&mut self, seed: u64) {
        match self {
            Self::Fleet(config) => config.seed = seed,
            Self::Mesh(config) => config.seed = seed,
        }
    }

    /// One engine pass, panic-free, summarized under `knob_value`.
    fn run(
        &self,
        knob_value: Option<f64>,
        recorder: &mut dyn Recorder,
    ) -> Result<(RunSummary, Metrics), ScenarioError> {
        let (seed, outcome, metrics) = match self {
            Self::Fleet(config) => {
                let (outcome, metrics) =
                    run_fleet_resumable(config, None, recorder).map_err(fleet_error)?;
                (config.seed, outcome, metrics)
            }
            Self::Mesh(config) => {
                let (outcome, metrics) = run_mesh_with(config, recorder)?;
                (config.seed, outcome.sink, metrics)
            }
        };
        let summary = RunSummary::from_fleet(seed, knob_value, &outcome, &metrics);
        Ok((summary, metrics))
    }
}

/// A fleet run's failure in the scenario vocabulary: a config error stays
/// a fleet error and a build error a build error. A fresh run restores no
/// checkpoint, so the last two arms are defensive.
fn fleet_error(e: CheckpointError) -> ScenarioError {
    match e {
        CheckpointError::Config(e) => ScenarioError::Fleet(e),
        CheckpointError::Build(e) => ScenarioError::Build(e),
        CheckpointError::Json(e) => ScenarioError::Parse(e),
        CheckpointError::Mismatch(what) => ScenarioError::Invalid(what),
    }
}

/// Applies one sweep value to a copy of the spec.
fn apply_knob(spec: &Scenario, knob: SweepKnob, value: f64) -> Result<Scenario, ScenarioError> {
    let mut varied = spec.clone();
    varied.sweep = None;
    match knob {
        SweepKnob::Nodes => {
            if !(value.is_finite() && (1.0..=1e6).contains(&value)) {
                return Err(ScenarioError::Invalid("swept node count out of range"));
            }
            varied.nodes = value.round() as usize;
        }
        SweepKnob::InitialSoc => varied.node.initial_soc = value,
        SweepKnob::DistanceMaxM => varied.fleet.distance_max_m = value,
        SweepKnob::SamplePeriodS => varied.node.sample_period_s = Some(value),
    }
    Ok(varied)
}

/// The campaign's seed fan: seed `k` of the fan (k = 0 is the spec's own
/// seed). Delegates to [`SimRng::fan_seed`] — the one home for seed
/// derivation — so the rule cannot drift from the engine's.
fn fan_seed(master: u64, k: usize) -> u64 {
    SimRng::fan_seed(master, k as u64)
}

/// Runs a [`Scenario`] end to end: a single engine pass for a plain spec,
/// one pass per value in sweep mode, or a seed-fanned Monte Carlo
/// campaign (with survival curve) in campaign mode.
///
/// Telemetry streams into `recorder` exactly as the underlying engines
/// emit it (multi-run modes concatenate their runs' streams in run
/// order); for a plain spec the returned metrics are bit-identical to
/// [`run_fleet_with`](crate::run_fleet_with) / [`run_mesh_with`] on the
/// lowered config.
///
/// # Errors
///
/// Returns [`ScenarioError`] for any spec the engines cannot run — this
/// path never panics on bad input.
pub fn run_scenario_with(
    spec: &Scenario,
    parallelism: Parallelism,
    recorder: &mut dyn Recorder,
) -> Result<ScenarioOutcome, ScenarioError> {
    spec.validate()?;
    if let Some(campaign) = spec.campaign {
        return run_campaign(spec, campaign, parallelism, recorder);
    }
    if let Some(sweep) = spec.sweep.clone() {
        let mut runs = Vec::with_capacity(sweep.values.len());
        let mut merged = Metrics::new();
        for &value in &sweep.values {
            let varied = apply_knob(spec, sweep.knob, value)?;
            let (summary, metrics) =
                Lowered::new(&varied, parallelism)?.run(Some(value), recorder)?;
            merged.merge_from(&metrics);
            runs.push(summary);
        }
        return Ok(ScenarioOutcome {
            name: spec.name.clone(),
            runs,
            survival: None,
            metrics: merged,
        });
    }
    let (summary, metrics) = Lowered::new(spec, parallelism)?.run(None, recorder)?;
    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        runs: vec![summary],
        survival: None,
        metrics,
    })
}

fn run_campaign(
    spec: &Scenario,
    campaign: Campaign,
    parallelism: Parallelism,
    recorder: &mut dyn Recorder,
) -> Result<ScenarioOutcome, ScenarioError> {
    // Lower the spec ONCE. Each fanned run reuses the same lowered config
    // — harvest traces, chaos overlays and all — and swaps only the seed,
    // so a wide Monte Carlo campaign pays lowering and validation once,
    // and the per-seed engine passes ride the streaming fleet path in
    // O(workers) memory.
    let mut lowered = Lowered::new(spec, parallelism)?;
    let mut runs = Vec::with_capacity(campaign.seeds);
    let mut merged = Metrics::new();
    let mut first_downs: Vec<Vec<Option<u64>>> = Vec::with_capacity(campaign.seeds);
    for k in 0..campaign.seeds {
        let seed = fan_seed(spec.seed, k);
        let mut tracker = SurvivalTracker::new(recorder, spec.nodes);
        lowered.set_seed(seed);
        let (summary, metrics) = lowered.run(None, &mut tracker)?;
        first_downs.push(tracker.into_first_down());
        merged.merge_from(&metrics);
        runs.push(summary);
    }
    let survival = SurvivalCurve::from_runs(spec.duration_s, campaign.bins, &first_downs);
    let browned_out: usize = first_downs
        .iter()
        .flat_map(|run| run.iter())
        .filter(|down| down.is_some())
        .count();
    merged.inc(keys::CAMPAIGN_SEEDS, campaign.seeds as u64);
    merged.inc(
        keys::CAMPAIGN_NODES_TOTAL,
        (campaign.seeds * spec.nodes) as u64,
    );
    merged.inc(keys::CAMPAIGN_BROWNED_OUT_NODES, browned_out as u64);
    merged.add(keys::CAMPAIGN_FINAL_ALIVE_FRACTION, survival.final_alive());
    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        runs,
        survival: Some(survival),
        metrics: merged,
    })
}
