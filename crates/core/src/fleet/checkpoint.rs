//! Checkpoint/resume for streaming fleet runs.
//!
//! A [`FleetCheckpoint`] is the streaming engine's fold state cut between
//! two nodes: the accumulator's compact packet records, its node-order
//! telemetry fold (metrics plus the unsorted event prefix), the fault
//! tally and the fold cursor, stamped with a fingerprint of every
//! result-relevant configuration field. Because the fold is a strict
//! left-fold in node order and every node's randomness derives only from
//! `(master seed, node index)`, resuming from a serialized checkpoint
//! replays the *identical* fold the uninterrupted run would have produced
//! — [`run_fleet_resumable`] is bit-identical to `run_fleet_with`, not
//! merely statistically equivalent.
//!
//! A [`StackCheckpoint`] cuts one node's simulation mid-run instead. The
//! stack's full machine state (MCU registers, event queue, cell charge)
//! has no serial form, so the checkpoint stores the *recipe* — the node
//! config, application board and elapsed simulated time — and
//! [`StackCheckpoint::resume`] rebuilds the stack and replays it to the
//! cut. Replay costs simulated time but no memory, and determinism makes
//! it exact: the rebuilt stack's subsequent run is bit-identical to one
//! that never stopped, provided the cut lands on an idle boundary (between
//! wake cycles — see `tests/checkpoint.rs` for the pinned boundaries).
//!
//! Both checkpoints serialize through the in-repo `units::json`, whose
//! `f64` round-trip is bit-exact, so a checkpoint that travels through a
//! file changes nothing.

use super::accumulator::{FleetAccumulator, NodeCounts, PacketRecord};
use super::{
    build_fleet_node, derive_node_config, finalize_fleet, probe_build, stream_nodes, FleetApp,
    FleetConfig, FleetConfigError, FleetOutcome,
};
use crate::node::{BuildError, NodeConfig, PicoCube};
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{Event, Metrics, Recorder, TelemetryBuffer};
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::Dbm;

/// Why a checkpoint could not be captured, parsed or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The fleet configuration itself is degenerate.
    Config(FleetConfigError),
    /// The checkpoint was captured under a different configuration (or a
    /// recorder with a different event-recording mode) than the resume.
    Mismatch(&'static str),
    /// The serialized checkpoint failed to parse.
    Json(JsonError),
    /// The fleet's base config, or a checkpointed node, does not build.
    Build(BuildError),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "degenerate fleet config: {e}"),
            Self::Mismatch(what) => f.write_str(what),
            Self::Json(e) => write!(f, "malformed checkpoint: {e}"),
            Self::Build(e) => write!(f, "node does not build: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

/// JSON text of every configuration field that influences results (the
/// execution mode, `parallelism`, deliberately excluded — serial and
/// threaded runs are bit-identical, so a checkpoint may hop between them).
/// Equal configs produce equal strings: `units::json` renders `f64`
/// shortest-round-trip, so the comparison is bit-exact.
fn fleet_fingerprint(config: &FleetConfig) -> String {
    Json::Obj(vec![
        ("nodes".into(), config.nodes.to_json()),
        ("duration_ns".into(), config.duration.as_nanos().to_json()),
        ("seed".into(), config.seed.to_json()),
        ("base".into(), config.base.to_json()),
        ("app".into(), config.app.to_json()),
        (
            "distance_m".into(),
            vec![config.distance_range.0, config.distance_range.1].to_json(),
        ),
        (
            "capture_margin_db".into(),
            config.capture_margin.value().to_json(),
        ),
        ("wake_ppm_range".into(), config.wake_ppm_range.to_json()),
        ("per_node_stats".into(), config.per_node_stats.to_json()),
    ])
    .to_string()
}

impl ToJson for PacketRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("node".into(), self.node.to_json()),
            ("start_ns".into(), self.start.as_nanos().to_json()),
            ("end_ns".into(), self.end.as_nanos().to_json()),
            ("rx_dbm".into(), self.rx_dbm.value().to_json()),
            ("bits".into(), self.bits.to_json()),
            ("decode_ok".into(), self.decode_ok.to_json()),
        ])
    }
}

impl FromJson for PacketRecord {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            node: u32::from_json(field(value, "node")?)?,
            start: SimTime::from_nanos(u64::from_json(field(value, "start_ns")?)?),
            end: SimTime::from_nanos(u64::from_json(field(value, "end_ns")?)?),
            rx_dbm: Dbm::new(f64::from_json(field(value, "rx_dbm")?)?),
            bits: u32::from_json(field(value, "bits")?)?,
            decode_ok: bool::from_json(field(value, "decode_ok")?)?,
        })
    }
}

impl ToJson for NodeCounts {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("offered".into(), self.offered.to_json()),
            ("delivered".into(), self.delivered.to_json()),
        ])
    }
}

impl FromJson for NodeCounts {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            offered: u32::from_json(field(value, "offered")?)?,
            delivered: u32::from_json(field(value, "delivered")?)?,
        })
    }
}

/// A streaming fleet run cut between two nodes: everything
/// [`run_fleet_resumable`] needs to continue the fold bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Fingerprint of the capturing configuration (see
    /// [`fleet_fingerprint`]); resume refuses any other config.
    fingerprint: String,
    /// Whether the fold carries events (must match the resuming recorder).
    record_events: bool,
    /// Total nodes in the fleet, for progress reporting.
    nodes: usize,
    /// Nodes already folded; the resume simulates `nodes_done..nodes`.
    nodes_done: usize,
    /// Fault tally across the folded prefix.
    faulted: usize,
    /// Compact packet records of the folded prefix, in fold order.
    records: Vec<PacketRecord>,
    /// Metric registry of the folded prefix (node-order fold).
    metrics: Metrics,
    /// Event prefix in fold order — deliberately *unsorted*: the engine
    /// canonicalizes the interleaving once, at finalize.
    events: Vec<Event>,
    /// Per-node tallies when the config opted in.
    per_node: Option<Vec<NodeCounts>>,
}

impl FleetCheckpoint {
    /// Captures the accumulator's state under `config`'s fingerprint.
    pub(crate) fn capture(config: &FleetConfig, acc: &FleetAccumulator) -> Self {
        let (faulted, records, telemetry, per_node) = acc.parts();
        Self {
            fingerprint: fleet_fingerprint(config),
            record_events: acc.record_events(),
            nodes: config.nodes,
            nodes_done: acc.nodes_done(),
            faulted,
            records: records.to_vec(),
            metrics: telemetry.metrics.clone(),
            events: telemetry.events().to_vec(),
            per_node: per_node.map(<[NodeCounts]>::to_vec),
        }
    }

    /// Nodes already folded into this checkpoint.
    pub fn nodes_done(&self) -> usize {
        self.nodes_done
    }

    /// Total nodes in the checkpointed fleet.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether phase 1 is finished (resume goes straight to the merge).
    pub fn is_complete(&self) -> bool {
        self.nodes_done >= self.nodes
    }

    /// Rebuilds the accumulator, refusing configs or recording modes other
    /// than the ones the checkpoint was captured under.
    fn restore(
        &self,
        config: &FleetConfig,
        record_events: bool,
    ) -> Result<FleetAccumulator, CheckpointError> {
        if self.fingerprint != fleet_fingerprint(config) {
            return Err(CheckpointError::Mismatch(
                "checkpoint was captured under a different fleet configuration",
            ));
        }
        if self.record_events != record_events {
            return Err(CheckpointError::Mismatch(
                "checkpoint event-recording mode does not match the resuming recorder",
            ));
        }
        let mut telemetry = TelemetryBuffer::with_events(record_events);
        telemetry.metrics = self.metrics.clone();
        for event in &self.events {
            telemetry.record_for(event.node, event.t_ns, event.kind.clone());
        }
        Ok(FleetAccumulator::from_parts(
            self.nodes_done,
            self.faulted,
            self.records.clone(),
            telemetry,
            self.per_node.clone(),
        ))
    }
}

impl ToJson for FleetCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("version".into(), 1u64.to_json()),
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("record_events".into(), self.record_events.to_json()),
            ("nodes".into(), self.nodes.to_json()),
            ("nodes_done".into(), self.nodes_done.to_json()),
            ("faulted".into(), self.faulted.to_json()),
            ("records".into(), self.records.to_json()),
            ("metrics".into(), self.metrics.to_json()),
            ("events".into(), self.events.to_json()),
        ];
        if let Some(per_node) = &self.per_node {
            obj.push(("per_node".into(), per_node.to_json()));
        }
        Json::Obj(obj)
    }
}

impl FromJson for FleetCheckpoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let version = u64::from_json(field(value, "version")?)?;
        if version != 1 {
            return Err(JsonError::new(format!(
                "unsupported fleet checkpoint version {version}"
            )));
        }
        let nodes = usize::from_json(field(value, "nodes")?)?;
        let nodes_done = usize::from_json(field(value, "nodes_done")?)?;
        if nodes_done > nodes {
            return Err(JsonError::new("checkpoint cursor past the fleet size"));
        }
        Ok(Self {
            fingerprint: String::from_json(field(value, "fingerprint")?)?,
            record_events: bool::from_json(field(value, "record_events")?)?,
            nodes,
            nodes_done,
            faulted: usize::from_json(field(value, "faulted")?)?,
            records: Vec::from_json(field(value, "records")?)?,
            metrics: Metrics::from_json(field(value, "metrics")?)?,
            events: Vec::from_json(field(value, "events")?)?,
            per_node: match value.get("per_node") {
                Some(per_node) => Some(Vec::from_json(per_node)?),
                None => None,
            },
        })
    }
}

/// Runs (or continues) phase 1 for at most `budget` more nodes and returns
/// the fold cut as a checkpoint. `budget` is clamped to at least one node
/// so every call makes progress; once [`FleetCheckpoint::is_complete`],
/// further calls return the checkpoint unchanged.
///
/// `record_events` chooses whether the fold carries the event stream; it
/// must match `recorder.wants_events()` of the recorder eventually handed
/// to [`run_fleet_resumable`].
///
/// # Errors
///
/// Returns [`CheckpointError::Build`] when the base config does not build
/// (it is probe-built before any worker thread starts), and the other
/// [`CheckpointError`]s for a degenerate config or a mismatched
/// checkpoint.
pub fn run_fleet_partial(
    config: &FleetConfig,
    resume: Option<&FleetCheckpoint>,
    budget: usize,
    record_events: bool,
) -> Result<FleetCheckpoint, CheckpointError> {
    config.validate().map_err(CheckpointError::Config)?;
    let mut acc = match resume {
        Some(checkpoint) => checkpoint.restore(config, record_events)?,
        None => {
            probe_build(config).map_err(CheckpointError::Build)?;
            FleetAccumulator::new(record_events, config.per_node_stats)
        }
    };
    let upto = acc
        .nodes_done()
        .saturating_add(budget.max(1))
        .min(config.nodes);
    stream_nodes(config, &mut acc, upto);
    Ok(FleetCheckpoint::capture(config, &acc))
}

/// Runs the fleet to completion, continuing from `resume` when given — the
/// checkpoint-aware sibling of [`run_fleet_with`](super::run_fleet_with),
/// with degenerate configs surfacing as typed errors instead of panics.
///
/// Bit-identity contract: for any split of the node range into
/// [`run_fleet_partial`] legs (including legs serialized through JSON in
/// between, and legs run under different [`Parallelism`](super::Parallelism)
/// modes), the final outcome, metric registry and event stream are
/// identical to a single uninterrupted `run_fleet_with` call.
///
/// # Errors
///
/// As [`run_fleet_partial`].
pub fn run_fleet_resumable(
    config: &FleetConfig,
    resume: Option<&FleetCheckpoint>,
    recorder: &mut dyn Recorder,
) -> Result<(FleetOutcome, Metrics), CheckpointError> {
    config.validate().map_err(CheckpointError::Config)?;
    let mut acc = match resume {
        Some(checkpoint) => checkpoint.restore(config, recorder.wants_events())?,
        None => {
            probe_build(config).map_err(CheckpointError::Build)?;
            FleetAccumulator::new(recorder.wants_events(), config.per_node_stats)
        }
    };
    stream_nodes(config, &mut acc, config.nodes);
    Ok(finalize_fleet(config, acc, recorder))
}

/// One node's simulation cut mid-run, as a replayable recipe: the node
/// config, application board and elapsed simulated time. See the module
/// docs for why replay (not state serialization) is the right checkpoint
/// for a `Stack`, and `tests/checkpoint.rs` for the wake-boundary
/// bit-identity pins.
#[derive(Debug, Clone, PartialEq)]
pub struct StackCheckpoint {
    config: NodeConfig,
    app: FleetApp,
    elapsed: SimDuration,
    record_events: bool,
}

impl StackCheckpoint {
    /// Checkpoints an arbitrary node recipe at `elapsed`.
    pub fn new(
        config: NodeConfig,
        app: FleetApp,
        elapsed: SimDuration,
        record_events: bool,
    ) -> Self {
        Self {
            config,
            app,
            elapsed,
            record_events,
        }
    }

    /// Checkpoints fleet node `index` of `config` at `elapsed`: derives the
    /// node's concrete config (identity, seed stream, deployment jitter)
    /// exactly as the fleet engine does.
    pub fn for_fleet_node(
        config: &FleetConfig,
        index: usize,
        elapsed: SimDuration,
        record_events: bool,
    ) -> Self {
        let (node_config, _) =
            derive_node_config(&config.base, config.seed, config.wake_ppm_range, index);
        Self {
            config: node_config,
            app: config.app,
            elapsed,
            record_events,
        }
    }

    /// Simulated time already elapsed at the cut.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Rebuilds the stack and replays it to the cut. The returned node is
    /// ready for `run_for(remaining)`; determinism makes the replayed
    /// prefix bit-identical to the original run's.
    pub fn resume(&self) -> Result<PicoCube, CheckpointError> {
        let mut node =
            build_fleet_node(self.config.clone(), self.app).map_err(CheckpointError::Build)?;
        node.set_event_recording(self.record_events);
        if !self.elapsed.is_zero() {
            node.run_for(self.elapsed);
        }
        Ok(node)
    }
}

impl ToJson for StackCheckpoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), 1u64.to_json()),
            ("config".into(), self.config.to_json()),
            ("app".into(), self.app.to_json()),
            ("elapsed_ns".into(), self.elapsed.as_nanos().to_json()),
            ("record_events".into(), self.record_events.to_json()),
        ])
    }
}

impl FromJson for StackCheckpoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let version = u64::from_json(field(value, "version")?)?;
        if version != 1 {
            return Err(JsonError::new(format!(
                "unsupported stack checkpoint version {version}"
            )));
        }
        Ok(Self {
            config: NodeConfig::from_json(field(value, "config")?)?,
            app: FleetApp::from_json(field(value, "app")?)?,
            elapsed: SimDuration::from_nanos(u64::from_json(field(value, "elapsed_ns")?)?),
            record_events: bool::from_json(field(value, "record_events")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_sim::SimDuration;
    use picocube_telemetry::NullRecorder;

    fn config(per_node_stats: bool) -> FleetConfig {
        FleetConfig::builder()
            .nodes(6)
            .duration(SimDuration::from_secs(30))
            .seed(77)
            .per_node_stats(per_node_stats)
            .build()
            .expect("valid test scenario")
    }

    #[test]
    fn partial_legs_then_resume_match_uninterrupted() {
        let cfg = config(true);
        let (direct, direct_metrics) = super::super::run_fleet_with(&cfg, &mut NullRecorder);

        // Three legs: 2 + 2 + rest, the first cut serialized through JSON
        // text in between.
        let first = run_fleet_partial(&cfg, None, 2, false).expect("leg 1");
        assert_eq!(first.nodes_done(), 2);
        let text = first.to_json().to_string();
        let parsed = Json::parse(&text).expect("checkpoint text parses");
        let thawed = FleetCheckpoint::from_json(&parsed).expect("checkpoint round trips");
        assert_eq!(thawed, first);
        let checkpoint = run_fleet_partial(&cfg, Some(&thawed), 2, false).expect("leg 2");
        assert_eq!(checkpoint.nodes_done(), 4);
        assert!(!checkpoint.is_complete());
        let (resumed, resumed_metrics) =
            run_fleet_resumable(&cfg, Some(&checkpoint), &mut NullRecorder).expect("final leg");

        assert_eq!(resumed, direct);
        assert_eq!(
            resumed_metrics.to_json().to_string(),
            direct_metrics.to_json().to_string()
        );
    }

    #[test]
    fn resume_rejects_mismatched_config_and_mode() {
        let cfg = config(false);
        let checkpoint = run_fleet_partial(&cfg, None, 3, false).expect("leg 1");

        let mut other = cfg.clone();
        other.seed = 78;
        assert!(matches!(
            run_fleet_resumable(&other, Some(&checkpoint), &mut NullRecorder),
            Err(CheckpointError::Mismatch(_))
        ));

        let mut events: Vec<picocube_telemetry::Event> = Vec::new();
        assert!(matches!(
            run_fleet_resumable(&cfg, Some(&checkpoint), &mut events),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn parallelism_may_change_between_legs() {
        // The fingerprint deliberately excludes the execution mode: a
        // checkpoint captured serially resumes threaded, bit-identically.
        let serial = config(true);
        let mut threaded = serial.clone();
        threaded.parallelism = super::super::Parallelism::Threads(3);

        let (direct, _) = super::super::run_fleet_with(&serial, &mut NullRecorder);
        let checkpoint = run_fleet_partial(&serial, None, 3, false).expect("serial leg");
        let (resumed, _) = run_fleet_resumable(&threaded, Some(&checkpoint), &mut NullRecorder)
            .expect("threaded leg");
        assert_eq!(resumed, direct);
    }

    #[test]
    fn stack_checkpoint_round_trips_through_json() {
        let cfg = config(false);
        let checkpoint = StackCheckpoint::for_fleet_node(&cfg, 2, SimDuration::from_secs(12), true);
        let text = checkpoint.to_json().to_string();
        let parsed = Json::parse(&text).expect("checkpoint text parses");
        let thawed = StackCheckpoint::from_json(&parsed).expect("round trips");
        assert_eq!(thawed, checkpoint);
    }

    #[test]
    fn typed_rejection_of_degenerate_configs() {
        let mut cfg = config(false);
        cfg.nodes = 0;
        assert!(matches!(
            run_fleet_partial(&cfg, None, 1, false),
            Err(CheckpointError::Config(FleetConfigError::ZeroNodes))
        ));
        assert!(matches!(
            run_fleet_resumable(&cfg, None, &mut NullRecorder),
            Err(CheckpointError::Config(FleetConfigError::ZeroNodes))
        ));

        // A base config that does not build fails the probe, typed.
        let mut cfg = config(false);
        cfg.base.initial_soc = 2.0;
        assert!(matches!(
            run_fleet_partial(&cfg, None, 1, false),
            Err(CheckpointError::Build(BuildError::InvalidConfig(_)))
        ));
        assert!(matches!(
            run_fleet_resumable(&cfg, None, &mut NullRecorder),
            Err(CheckpointError::Build(BuildError::InvalidConfig(_)))
        ));
    }
}
