//! Checkpoint/resume for streaming fleet runs.
//!
//! A [`FleetCheckpoint`] is the streaming engine's fold cut between two
//! nodes: the accumulator itself (the fold cursor, fault tally, compact
//! packet records and node-order telemetry fold, with the event prefix
//! still unsorted), stamped with a fingerprint of every result-relevant
//! configuration field. Because the fold is a strict left-fold in node
//! order and every node's randomness derives only from `(master seed,
//! node index)`, resuming from a serialized checkpoint replays the
//! *identical* fold the uninterrupted run would have produced —
//! [`run_fleet_resumable`](super::run_fleet_resumable) is bit-identical to
//! [`run_fleet_with`](super::run_fleet_with), not merely statistically
//! equivalent.
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

use super::accumulator::{FleetAccumulator, PacketRecord};
use super::{derive_node_config, FleetConfig, FleetConfigError};
use crate::node::{BuildError, NodeConfig};
use crate::stack::{AppBoard, Stack};
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{Event, Metrics, TelemetryBuffer};
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

/// A streaming fleet run cut between two nodes: the fold itself, bound
/// to the configuration that produced it. Everything
/// [`run_fleet_resumable`](super::run_fleet_resumable) needs to continue
/// the fold bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Fingerprint of the capturing configuration (see
    /// [`fleet_fingerprint`]); resume refuses any other config.
    fingerprint: String,
    /// Total nodes in the fleet, for progress reporting.
    nodes: usize,
    /// The fold over nodes `0..nodes_done`; whether it carries events must
    /// match the resuming recorder.
    acc: FleetAccumulator,
}

impl FleetCheckpoint {
    /// Stamps `acc`, the fold of a run under `config`, with the config's
    /// fingerprint.
    pub(super) fn capture(config: &FleetConfig, acc: FleetAccumulator) -> Self {
        Self {
            fingerprint: fleet_fingerprint(config),
            nodes: config.nodes,
            acc,
        }
    }

    /// Nodes already folded into this checkpoint.
    pub fn nodes_done(&self) -> usize {
        self.acc.nodes_done()
    }

    /// Total nodes in the checkpointed fleet.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether phase 1 is finished (resume goes straight to the merge).
    pub fn is_complete(&self) -> bool {
        self.nodes_done() >= self.nodes
    }

    /// A copy of the fold to continue, refusing configs or recording modes
    /// other than the ones the checkpoint was captured under.
    pub(super) fn restore(
        &self,
        config: &FleetConfig,
        record_events: bool,
    ) -> Result<FleetAccumulator, CheckpointError> {
        if self.fingerprint != fleet_fingerprint(config) {
            return Err(CheckpointError::Mismatch(
                "checkpoint was captured under a different fleet configuration",
            ));
        }
        if self.acc.record_events() != record_events {
            return Err(CheckpointError::Mismatch(
                "checkpoint event-recording mode does not match the resuming recorder",
            ));
        }
        Ok(self.acc.clone())
    }
}

impl ToJson for FleetCheckpoint {
    fn to_json(&self) -> Json {
        let acc = &self.acc;
        Json::Obj(vec![
            ("version".into(), 1u64.to_json()),
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("record_events".into(), acc.record_events().to_json()),
            ("nodes".into(), self.nodes.to_json()),
            ("nodes_done".into(), acc.next_node.to_json()),
            ("faulted".into(), acc.faulted.to_json()),
            ("records".into(), acc.records.to_json()),
            ("metrics".into(), acc.telemetry.metrics.to_json()),
            (
                "events".into(),
                Json::Arr(acc.telemetry.events().iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for FleetCheckpoint {
    /// Reads a version-1 checkpoint. A `per_node` array, written by
    /// versions that kept per-node tallies in the fold, is ignored: the
    /// merge counts them from the records, and the fingerprint already
    /// binds `per_node_stats`.
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
        let mut telemetry =
            TelemetryBuffer::with_events(bool::from_json(field(value, "record_events")?)?);
        telemetry.metrics = Metrics::from_json(field(value, "metrics")?)?;
        for event in Vec::<Event>::from_json(field(value, "events")?)? {
            telemetry.record_for(event.node, event.t_ns, event.kind);
        }
        Ok(Self {
            fingerprint: String::from_json(field(value, "fingerprint")?)?,
            nodes,
            acc: FleetAccumulator {
                next_node: nodes_done,
                faulted: usize::from_json(field(value, "faulted")?)?,
                records: Vec::from_json(field(value, "records")?)?,
                telemetry,
            },
        })
    }
}

/// One node's simulation cut mid-run, as a replayable recipe: the node
/// config, application board and elapsed simulated time. See the module
/// docs for why replay (not state serialization) is the right checkpoint
/// for a `Stack`, and `tests/checkpoint.rs` for the wake-boundary
/// bit-identity pins.
#[derive(Debug, Clone, PartialEq)]
pub struct StackCheckpoint {
    config: NodeConfig,
    app: AppBoard,
    elapsed: SimDuration,
    record_events: bool,
}

impl StackCheckpoint {
    /// Checkpoints an arbitrary node recipe at `elapsed`.
    pub fn new(
        config: NodeConfig,
        app: AppBoard,
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
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Build`] when the recipe does not build,
    /// for instance a checkpoint file whose app parameters are invalid.
    pub fn resume(&self) -> Result<Stack, CheckpointError> {
        let mut node = Stack::new(self.config.clone(), self.app).map_err(CheckpointError::Build)?;
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
            app: AppBoard::from_json(field(value, "app")?)?,
            elapsed: SimDuration::from_nanos(u64::from_json(field(value, "elapsed_ns")?)?),
            record_events: bool::from_json(field(value, "record_events")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run_fleet_partial, run_fleet_resumable, run_fleet_with, Parallelism};
    use super::*;
    use picocube_telemetry::NullRecorder;

    fn config(per_node_stats: bool) -> FleetConfig {
        FleetConfig {
            nodes: 6,
            duration: SimDuration::from_secs(30),
            seed: 77,
            per_node_stats,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn partial_legs_then_resume_match_uninterrupted() {
        let cfg = config(true);
        let (direct, direct_metrics) = run_fleet_with(&cfg, &mut NullRecorder);

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
        threaded.parallelism = Parallelism::Threads(3);

        let (direct, _) = run_fleet_with(&serial, &mut NullRecorder);
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
