//! Dense deployments: many PicoCubes sharing one channel and one receiver.
//!
//! §1 motivates nodes that "will be embedded in everyday materials and
//! surfaces often in very dense collaborative networks". The Cube has no
//! receiver, so its MAC is pure unslotted ALOHA: each node transmits when
//! its free-running sensor timer fires. This module runs a fleet of
//! independent node simulations, merges their on-air packets, applies a
//! collision model (with capture), and pushes survivors through the demo
//! receiver — the delivery-vs-density curve a deployment planner needs.
//!
//! # Streaming two-phase engine
//!
//! The fleet runs in two phases so node simulations can execute on worker
//! threads without changing any result:
//!
//! 1. **Per-node simulation** ([`simulate_node`]): each node is built and
//!    run in isolation (the Cube is transmit-only, so nodes never interact
//!    mid-simulation) and reduced to a plain-data [`NodeOnAir`] — its
//!    on-air packet intervals and receive levels. Every random draw a node
//!    makes comes from streams derived *only* from `(master seed, node
//!    index)` via [`SimRng::stream`], never from a shared generator, so
//!    the draws are identical no matter which thread runs the node or in
//!    what order nodes finish.
//! 2. **Merge** ([`merge_fleet`]): the per-node packet lists are combined,
//!    sorted by `(start, node)`, and swept once for collisions/capture;
//!    survivors then face the receiver's bit-error channel using a
//!    dedicated merge RNG stream. This phase is single-threaded and
//!    operates on data whose order is already canonical, so it is
//!    deterministic by construction.
//!
//! Phase 1 *streams*: a node's stack is built on claim, simulated, reduced
//! to a compact per-packet record list plus its telemetry, folded into the
//! run's [accumulator](accumulator) in node order, and torn down before
//! the worker claims its next chunk. Live state is O(workers) node stacks
//! plus the O(offered packets) record list the merge irreducibly consumes
//! — never O(nodes) stacks or telemetry registries — which is what lets
//! one machine sweep million-node fleets. A bounded reorder window keeps
//! fast workers from buffering unboundedly ahead of the in-order fold.
//!
//! [`FleetConfig::parallelism`] sets how many workers run phase 1's one
//! work-stealing loop; [`Parallelism::Serial`] is the one-worker case, so
//! every mode produces bit-identical [`FleetOutcome`]s. The fold can also
//! be cut and serialized mid-run: see [`FleetCheckpoint`] and
//! [`run_fleet_resumable`], which are bit-identical to uninterrupted runs.

mod accumulator;
mod checkpoint;

pub(crate) use accumulator::NodeCounts;

pub use checkpoint::{
    run_fleet_partial, run_fleet_resumable, CheckpointError, FleetCheckpoint, StackCheckpoint,
};

use crate::bus::TransmittedPacket;
use crate::node::{BuildError, NodeConfig, PicoCube};
use crate::stack::{AppBoard, NodeFault, StackBuilder};
use accumulator::{FleetAccumulator, NodeYield, PacketRecord};
use picocube_radio::{Channel, Link, PatchAntenna, SuperRegenReceiver};
use picocube_sensors::MotionScenario;
use picocube_sim::{SimDuration, SimRng, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics, NullRecorder, Recorder, TelemetryBuffer};
use picocube_units::{Db, Dbm, Gs, Hertz, Meters, Seconds};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// How fleet phase 1 (per-node simulation) is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker: the work-stealing scheduler's one-worker case,
    /// simulating nodes one after another in node order.
    Serial,
    /// Shard nodes across this many worker threads.
    Threads(usize),
}

impl Parallelism {
    /// Threaded execution sized to the machine (`available_parallelism`,
    /// falling back to serial when it cannot be determined).
    pub fn available() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Self::Threads(n.get()),
            _ => Self::Serial,
        }
    }

    /// The number of worker threads this mode uses. `Threads(0)` is
    /// rejected by [`FleetConfig::validate`] before the engine ever asks.
    pub(crate) fn workers(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Threads(n) => {
                debug_assert!(n > 0, "Threads(0) escaped FleetConfig::validate");
                n
            }
        }
    }
}

/// Which application board every node in a fleet (or mesh) carries.
///
/// Plain data — `Copy`, `Send`, JSON-able — unlike the stack-level
/// [`AppBoard`], which holds a built [`MotionScenario`]. The engine lowers
/// this onto [`AppBoard`] per node, seeding each node's motion scenario
/// from that node's own seed stream so fleets of motion nodes decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FleetApp {
    /// Tire-pressure stack (SP12 board, TPMS firmware) — the default.
    #[default]
    Tpms,
    /// §6 motion-demo stack (SCA3000 board, motion firmware).
    Motion {
        /// Mean rest span between handling bouts, seconds.
        rest_s: f64,
        /// Mean handled (shaken) span, seconds.
        handled_s: f64,
        /// Peak handling acceleration, g.
        vigor_g: f64,
    },
    /// Timer-paced beacon stack (SCA3000 board, beacon firmware).
    Beacon {
        /// Mean rest span between handling bouts, seconds.
        rest_s: f64,
        /// Mean handled (shaken) span, seconds.
        handled_s: f64,
        /// Peak handling acceleration, g.
        vigor_g: f64,
        /// Beacon period programmed into Timer A, seconds.
        period_s: u16,
    },
}

impl FleetApp {
    /// Checks the parameters [`MotionScenario::new`] would otherwise
    /// assert on, so spec-driven configs fail typed instead of panicking.
    pub(crate) fn validate(&self) -> Result<(), FleetConfigError> {
        match *self {
            Self::Tpms => Ok(()),
            Self::Motion {
                rest_s,
                handled_s,
                vigor_g,
            }
            | Self::Beacon {
                rest_s,
                handled_s,
                vigor_g,
                ..
            } => {
                if !(rest_s.is_finite() && rest_s > 0.0 && handled_s.is_finite() && handled_s > 0.0)
                {
                    return Err(FleetConfigError::InvalidApp(
                        "motion rest/handled spans must be positive",
                    ));
                }
                if !(vigor_g.is_finite() && vigor_g >= 0.0) {
                    return Err(FleetConfigError::InvalidApp(
                        "motion vigor must be non-negative",
                    ));
                }
                if let Self::Beacon { period_s: 0, .. } = self {
                    return Err(FleetConfigError::InvalidApp(
                        "beacon period must be non-zero",
                    ));
                }
                Ok(())
            }
        }
    }

    /// Lowers onto the stack-level board, seeding the motion scenario from
    /// the node's own seed. Parameters must have passed [`Self::validate`].
    pub(crate) fn board(&self, node_seed: u64) -> AppBoard {
        match *self {
            Self::Tpms => AppBoard::Tpms,
            Self::Motion {
                rest_s,
                handled_s,
                vigor_g,
            } => AppBoard::Motion {
                scenario: MotionScenario::new(
                    Seconds::new(rest_s),
                    Seconds::new(handled_s),
                    Gs::new(vigor_g),
                    node_seed,
                ),
            },
            Self::Beacon {
                rest_s,
                handled_s,
                vigor_g,
                period_s,
            } => AppBoard::Beacon {
                scenario: MotionScenario::new(
                    Seconds::new(rest_s),
                    Seconds::new(handled_s),
                    Gs::new(vigor_g),
                    node_seed,
                ),
                period_s,
            },
        }
    }
}

/// Builds one fleet/mesh node's stack: the per-node config (already
/// specialized with its identity and seed stream) under the configured
/// application board.
pub(crate) fn build_fleet_node(config: NodeConfig, app: FleetApp) -> Result<PicoCube, BuildError> {
    let seed = config.seed;
    StackBuilder::new(config).app(app.board(seed)).build()
}

/// Fleet scenario parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Base per-node configuration (id/seed/phase are overridden per node).
    pub base: NodeConfig,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Node-to-receiver distances drawn uniformly from this range (m).
    pub distance_range: (f64, f64),
    /// Capture threshold: a collided packet still decodes if it is this
    /// much stronger than the sum of its interferers.
    pub capture_margin: Db,
    /// Master seed.
    pub seed: u64,
    /// Phase-1 execution mode. Serial and threaded runs of the same
    /// configuration produce bit-identical outcomes.
    pub parallelism: Parallelism,
    /// Application board every node carries (motion scenarios are seeded
    /// per node).
    pub app: FleetApp,
    /// Half-width of the per-node wake-timer tolerance draw, ppm. The
    /// default 500 reproduces the historical `uniform(-500, 500)` draw
    /// bit-identically; widening it models worse clock drift (chaos).
    pub wake_ppm_range: f64,
    /// Whether to keep O(nodes) per-node tallies and populate
    /// [`FleetOutcome::per_node_delivery`]. Off by default: a streaming
    /// million-node run should not allocate a million-entry vector for a
    /// curve most callers never read. Per-packet, per-node fates still
    /// stream to the run's [`Recorder`] as [`EventKind::PacketFate`]
    /// events regardless, so an O(1)-memory sink can rebuild any per-node
    /// statistic offline.
    pub per_node_stats: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            base: NodeConfig::default(),
            duration: SimDuration::from_secs(120),
            distance_range: (0.5, 4.0),
            capture_margin: Db::new(10.0),
            seed: 1,
            parallelism: Parallelism::Serial,
            app: FleetApp::Tpms,
            wake_ppm_range: 500.0,
            per_node_stats: false,
        }
    }
}

/// Why a fleet configuration was rejected by [`FleetConfig::validate`] (and
/// therefore by [`FleetConfigBuilder::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// The fleet had zero nodes.
    ZeroNodes,
    /// The simulated duration was zero.
    NonPositiveDuration,
    /// `Parallelism::Threads(0)` was requested.
    ZeroThreads,
    /// The distance range was non-positive or reversed.
    InvalidDistanceRange,
    /// The application-board parameters were unphysical (the inner string
    /// names the violated invariant).
    InvalidApp(&'static str),
    /// The wake-timer tolerance half-width was negative or non-finite.
    InvalidWakePpmRange,
}

impl core::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::ZeroNodes => "fleet needs at least one node",
            Self::NonPositiveDuration => "fleet duration must be positive",
            Self::ZeroThreads => "Parallelism::Threads needs at least one thread",
            Self::InvalidDistanceRange => {
                "invalid distance range: distances must be positive and ascending"
            }
            Self::InvalidApp(what) => what,
            Self::InvalidWakePpmRange => {
                "wake timer tolerance half-width must be finite and non-negative"
            }
        })
    }
}

impl std::error::Error for FleetConfigError {}

impl FleetConfig {
    /// Starts a validating builder seeded with [`FleetConfig::default`].
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: Self::default(),
        }
    }

    /// Checks the invariants the fleet engine relies on, returning the
    /// first violation. [`run_fleet`] still asserts (for back-compat with
    /// struct-literal construction); the builder routes through this.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.nodes == 0 {
            return Err(FleetConfigError::ZeroNodes);
        }
        if self.duration.is_zero() {
            return Err(FleetConfigError::NonPositiveDuration);
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err(FleetConfigError::ZeroThreads);
        }
        if !(self.distance_range.0 > 0.0 && self.distance_range.1 >= self.distance_range.0) {
            return Err(FleetConfigError::InvalidDistanceRange);
        }
        self.app.validate()?;
        if !(self.wake_ppm_range.is_finite() && self.wake_ppm_range >= 0.0) {
            return Err(FleetConfigError::InvalidWakePpmRange);
        }
        Ok(())
    }
}

/// Builder for [`FleetConfig`] that validates on
/// [`build`](FleetConfigBuilder::build): degenerate scenarios (zero nodes, zero
/// duration, zero worker threads, bad distance ranges) come back as a
/// [`FleetConfigError`] instead of a panic deep inside the engine.
///
/// # Examples
///
/// ```
/// use picocube_node::{FleetConfig, Parallelism};
/// use picocube_sim::SimDuration;
///
/// let config = FleetConfig::builder()
///     .nodes(64)
///     .duration(SimDuration::from_secs(60))
///     .seed(7)
///     .parallelism(Parallelism::Threads(4))
///     .build()
///     .expect("valid fleet scenario");
/// assert_eq!(config.nodes, 64);
/// assert!(FleetConfig::builder().nodes(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the number of nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Sets the base per-node configuration (id/seed/phase are overridden
    /// per node).
    pub fn base(mut self, base: NodeConfig) -> Self {
        self.config.base = base;
        self
    }

    /// Sets the simulated duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.config.duration = duration;
        self
    }

    /// Sets the node-to-receiver distance range in meters.
    pub fn distance_range(mut self, min_m: f64, max_m: f64) -> Self {
        self.config.distance_range = (min_m, max_m);
        self
    }

    /// Sets the capture threshold.
    pub fn capture_margin(mut self, margin: Db) -> Self {
        self.config.capture_margin = margin;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the phase-1 execution mode.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the application board every node carries.
    pub fn app(mut self, app: FleetApp) -> Self {
        self.config.app = app;
        self
    }

    /// Sets the half-width of the per-node wake-timer tolerance draw, ppm.
    pub fn wake_ppm_range(mut self, half_width_ppm: f64) -> Self {
        self.config.wake_ppm_range = half_width_ppm;
        self
    }

    /// Opts into the O(nodes) [`FleetOutcome::per_node_delivery`] vector.
    pub fn per_node_stats(mut self, enabled: bool) -> Self {
        self.config.per_node_stats = enabled;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<FleetConfig, FleetConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// What happened to one transmitted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Decoded at the receiver.
    Delivered,
    /// Overlapped another transmission and lost the capture race.
    Collided,
    /// No overlap, but the channel corrupted it beyond the checksum.
    ChannelLoss,
}

/// Aggregated fleet results.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Packets put on the air across the fleet.
    pub offered: usize,
    /// Packets lost to collisions.
    pub collided: usize,
    /// Packets lost to the channel.
    pub channel_losses: usize,
    /// Packets decoded.
    pub delivered: usize,
    /// Nodes whose simulation latched a [`NodeFault`] before the run ended
    /// (their packets up to the fault still count toward `offered`).
    pub faulted: usize,
    /// Per-node delivery fractions (indexed by node). Empty unless the run
    /// opted in via [`FleetConfig::per_node_stats`] — the only O(nodes)
    /// output the engine can produce, kept off the streaming path by
    /// default.
    pub per_node_delivery: Vec<f64>,
    /// Normalized offered load `G` (fleet airtime / elapsed time).
    pub offered_load: f64,
}

impl FleetOutcome {
    /// Overall delivery fraction.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// One packet interval on the shared channel.
#[derive(Debug, Clone)]
pub(crate) struct OnAir {
    node: usize,
    start: SimTime,
    end: SimTime,
    rx_dbm: Dbm,
    packet: TransmittedPacket,
}

/// Plain-data result of one node's isolated simulation (phase 1). `Send`,
/// unlike the node itself, so worker threads can hand it back.
#[derive(Debug, Clone)]
pub struct NodeOnAir {
    /// Fleet index of the node.
    pub node: usize,
    /// `(start, end, receive level)` per packet, in transmission order,
    /// with the frame bytes and RF accounting.
    packets: Vec<OnAir>,
    /// The node's drained telemetry: metric totals plus (when the fleet
    /// run's recorder wants them) its attributed event stream.
    telemetry: TelemetryBuffer,
    /// The fault that ended the node's simulation early, if any.
    fault: Option<NodeFault>,
}

impl NodeOnAir {
    /// The fault that ended this node's simulation early, if any. A faulted
    /// node's packets up to the fault instant are still on the air.
    pub fn fault(&self) -> Option<NodeFault> {
        self.fault
    }
}

// The parallel engine moves these across thread boundaries; keep the
// guarantee explicit so a non-Send field shows up here, not in a distant
// spawn call.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NodeOnAir>();
    assert_send::<FleetConfig>();
    assert_send::<FleetOutcome>();
};

/// Seed-derivation domains (see `DESIGN.md`): node `i` draws its firmware
/// noise from stream `2 * i`, its deployment parameters (power-up phase,
/// timer tolerance, distance) from stream `2 * i + 1`, and the merge phase
/// uses the reserved stream [`MERGE_STREAM`]. Each stream depends only on
/// `(master, index)`, so no node's draws shift when another node's
/// consumption changes — the invariant the parallel engine relies on.
fn node_sim_seed(master: u64, node: usize) -> u64 {
    SimRng::stream_seed(master, 2 * node as u64)
}

fn node_setup_rng(master: u64, node: usize) -> SimRng {
    SimRng::stream(master, 2 * node as u64 + 1)
}

/// The concrete [`NodeConfig`] for node `index` of a fleet or mesh seeded
/// `master`: the shared `base` plus per-node identity, seed stream and
/// deployment jitter. Also returns the node's setup stream, positioned
/// after the jitter draws; the fleet draws the deployment distance from it
/// once the node has run.
pub(crate) fn derive_node_config(
    base: &NodeConfig,
    master: u64,
    wake_ppm_range: f64,
    index: usize,
) -> (NodeConfig, SimRng) {
    let mut setup = node_setup_rng(master, index);
    let period_ms = 6_000u64;
    let config = NodeConfig {
        node_id: (index & 0xFF) as u8,
        seed: node_sim_seed(master, index),
        first_wake_offset_ms: setup.next_u64() % period_ms,
        // Scaled after the draw so the draw count/order is fixed; at the
        // default 500 ppm the factor is exactly 1.0 and the product is
        // bit-identical to the unscaled historical draw.
        wake_interval_ppm: setup.uniform(-500.0, 500.0) * (wake_ppm_range / 500.0),
        ..base.clone()
    };
    (config, setup)
}

/// Reserved stream index for the merge phase's channel trials. Odd, and
/// unreachable from `2 * i + 1` for any realistic fleet size.
const MERGE_STREAM: u64 = u64::MAX;

pub(crate) fn link_for_fleet() -> Link {
    Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(2.0),
        channel: Channel::demo_room(),
    }
}

/// Phase 1: builds and runs node `index` in isolation and reduces it to
/// its on-air packet list.
///
/// # Panics
///
/// Panics if the node fails to build.
pub fn simulate_node(config: &FleetConfig, index: usize) -> NodeOnAir {
    simulate_node_instrumented(config, index, false)
}

/// [`simulate_node`], with structured event recording switched on when
/// `record_events` is set. The node's telemetry is drained, attributed to
/// its fleet index and carried in the returned [`NodeOnAir`]; metrics are
/// collected either way.
///
/// # Panics
///
/// Panics if the node fails to build.
pub fn simulate_node_instrumented(
    config: &FleetConfig,
    index: usize,
    record_events: bool,
) -> NodeOnAir {
    let (node_config, mut setup) =
        derive_node_config(&config.base, config.seed, config.wake_ppm_range, index);
    // Per-node fields (id, seed, offsets) cannot invalidate a base config
    // that builds, and the fleet entry points probe-build the base up front.
    let mut node = build_fleet_node(node_config, config.app)
        // picocube-lint: allow(L2) documented `# Panics`; base pre-validated by the fleet probe
        .expect("fleet node builds");
    node.set_event_recording(record_events);
    let outcome = node.run_for(config.duration);
    let mut telemetry = node.drain_telemetry();
    telemetry.attribute_to(index as u32);
    // The setup stream's post-run draw: its order is part of the RNG
    // contract.
    let distance = setup.uniform(config.distance_range.0, config.distance_range.1);
    let link = link_for_fleet();
    let rx_dbm = link.budget(Meters::new(distance)).received;
    let packets = node
        .packets()
        .into_iter()
        .map(|packet| {
            // `time` is the transmission's end; a packet whose modeled
            // duration exceeds its completion timestamp (a transmission
            // already in flight at t=0, or a corrupted report replayed
            // into the merge) clamps to the simulation origin instead of
            // panicking the whole fleet on u64 underflow.
            let start = packet
                .time
                .checked_sub(SimDuration::from_seconds(packet.transmission.duration))
                .unwrap_or(SimTime::ZERO);
            OnAir {
                node: index,
                start,
                end: packet.time,
                rx_dbm,
                packet,
            }
        })
        .collect();
    NodeOnAir {
        node: index,
        packets,
        telemetry,
        fault: outcome.fault(),
    }
}

/// Nodes per work-stealing chunk claim. Small enough that a worker stuck
/// on an expensive node (a long brown-out hold, a fault spiral) leaves the
/// rest of the range claimable by its idle peers; large enough that the
/// atomic claim is noise against a node simulation.
const STEAL_CHUNK: usize = 4;

/// How phase 1's work was divided across workers — the scheduler's shape,
/// as observed on the wall clock. Serial runs report the same shape as
/// `Threads(1)`: one worker claiming every chunk.
///
/// Which worker claimed which chunk depends on OS scheduling, so these
/// numbers (unlike everything in [`FleetOutcome`] and the merged
/// [`Metrics`]) are **not** deterministic across runs. They ride back on
/// this side channel precisely so the merged telemetry registry can stay
/// bit-identical between serial and threaded runs; benches and diagnostics
/// fold them into their own registries via
/// [`FleetSchedStats::export_metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSchedStats {
    /// Worker threads phase 1 ran on (1 for [`Parallelism::Serial`]).
    pub workers: usize,
    /// Nodes per claimed chunk.
    pub chunk_size: usize,
    /// Chunks the node range was divided into.
    pub chunks: usize,
    /// Chunks claimed by each worker, indexed by spawn order.
    pub claims: Vec<u64>,
}

impl FleetSchedStats {
    /// Chunks claimed beyond each worker's even share — work that a static
    /// contiguous sharding would have left stranded on a slow worker.
    pub fn steals(&self) -> u64 {
        let fair = (self.chunks as u64).div_ceil(self.workers.max(1) as u64);
        self.claims.iter().map(|&c| c.saturating_sub(fair)).sum()
    }

    /// Publishes the scheduler shape under `fleet.sched.*`. Callers fold
    /// this into their *own* registry (a bench report, a diagnostics dump)
    /// — never into the merged fleet registry, whose serial/threaded
    /// bit-identity these wall-clock-dependent numbers would break.
    pub fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.inc(keys::FLEET_SCHED_WORKERS, self.workers as u64);
        metrics.inc(keys::FLEET_SCHED_CHUNKS, self.chunks as u64);
        metrics.inc(keys::FLEET_SCHED_CHUNK_SIZE, self.chunk_size as u64);
        metrics.inc(keys::FLEET_SCHED_STEALS, self.steals());
    }
}

/// Shared scheduler state for the streaming phase 1, behind one mutex:
/// the chunk-claim cursor, the fold frontier, and the bounded reorder
/// buffer of finished-but-not-yet-foldable chunks.
struct StreamState<'acc> {
    /// Next chunk index to hand to a claiming worker.
    next_chunk: usize,
    /// Lowest chunk index not yet folded into the accumulator.
    floor_chunk: usize,
    /// Finished chunks waiting for the fold frontier to reach them.
    pending: BTreeMap<usize, Vec<NodeYield>>,
    /// The run's in-order fold.
    acc: &'acc mut FleetAccumulator,
}

/// Runs phase 1 for nodes `[acc.nodes_done(), upto)` on
/// `config.parallelism` workers (one for [`Parallelism::Serial`]), folding
/// every node's yield into `acc` in node order the moment it can. Live
/// state is O(workers): each worker holds one node stack at a time plus
/// its in-flight chunk of yields, and the bounded reorder window below
/// keeps fast workers from buffering unboundedly ahead of the in-order
/// fold.
fn stream_nodes(config: &FleetConfig, acc: &mut FleetAccumulator, upto: usize) -> FleetSchedStats {
    let record_events = acc.record_events();
    let first = acc.nodes_done();
    let remaining = upto.saturating_sub(first);
    let workers = config.parallelism.workers().min(remaining).max(1);
    // Work stealing over a chunk-claim cursor: the node range is cut into
    // fixed chunks and every worker loops claiming the next unclaimed
    // chunk. Which worker simulates which node is scheduling-dependent,
    // but each node's draws derive only from `(master seed, node index)`
    // and yields are folded strictly in node order via the reorder buffer,
    // so the accumulator sees exactly the serial engine's fold — even when
    // faulted or browned-out nodes make per-node cost wildly uneven.
    //
    // A worker may claim chunk `c` only while `c < floor + WINDOW`
    // (`floor` = the fold frontier), so at most WINDOW chunks of yields
    // exist at once: the claim rule is what bounds memory. Deadlock-free:
    // after every deposit the floor chunk is never left sitting in
    // `pending` (the depositing worker drains it), so the floor chunk is
    // always in flight on some worker, and that worker's deposit path
    // never waits.
    let chunks = remaining.div_ceil(STEAL_CHUNK);
    let window = 2 * workers;
    let mut state = StreamState {
        next_chunk: 0,
        floor_chunk: 0,
        pending: BTreeMap::new(),
        acc,
    };
    let claims: Vec<u64> = {
        let state = Mutex::new(&mut state);
        let frontier_moved = Condvar::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let state = &state;
                    let frontier_moved = &frontier_moved;
                    scope.spawn(move || {
                        let mut claimed = 0u64;
                        loop {
                            let mut guard = match state.lock() {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            let chunk = loop {
                                if guard.next_chunk >= chunks {
                                    break None;
                                }
                                if guard.next_chunk < guard.floor_chunk + window {
                                    let chunk = guard.next_chunk;
                                    guard.next_chunk += 1;
                                    break Some(chunk);
                                }
                                guard = match frontier_moved.wait(guard) {
                                    Ok(guard) => guard,
                                    Err(poisoned) => poisoned.into_inner(),
                                };
                            };
                            drop(guard);
                            let Some(chunk) = chunk else {
                                break;
                            };
                            claimed += 1;
                            let lo = first + chunk * STEAL_CHUNK;
                            let hi = (lo + STEAL_CHUNK).min(upto);
                            // Simulate outside the lock; this is where the
                            // wall-clock time goes.
                            let yields: Vec<NodeYield> = (lo..hi)
                                .map(|i| {
                                    simulate_node_instrumented(config, i, record_events)
                                        .into_yield()
                                })
                                .collect();
                            let mut guard = match state.lock() {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            guard.pending.insert(chunk, yields);
                            // Drain every consecutive chunk at the
                            // frontier so the floor never idles in
                            // `pending`.
                            loop {
                                let floor = guard.floor_chunk;
                                let Some(folds) = guard.pending.remove(&floor) else {
                                    break;
                                };
                                for fold in folds {
                                    guard.acc.absorb(fold);
                                }
                                guard.floor_chunk += 1;
                            }
                            drop(guard);
                            frontier_moved.notify_all();
                        }
                        claimed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(claimed) => claimed,
                    // Re-raise the worker's own panic payload instead of
                    // replacing it with a second, less informative one.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    assert!(
        state.pending.is_empty() && state.floor_chunk == chunks,
        "streaming fold must drain every claimed chunk"
    );
    FleetSchedStats {
        workers,
        chunk_size: STEAL_CHUNK,
        chunks,
        claims,
    }
}

/// The pre-work-stealing phase-1 scheduler: contiguous static shards,
/// thread `t` simulating nodes `[bounds[t], bounds[t+1])`. Kept as the
/// differential reference for the scheduler bit-identity tests.
#[cfg(test)]
fn simulate_static_shards(
    config: &FleetConfig,
    workers: usize,
    record_events: bool,
) -> Vec<NodeOnAir> {
    let workers = workers.min(config.nodes).max(1);
    let per = config.nodes / workers;
    let extra = config.nodes % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut lo = 0usize;
    for t in 0..workers {
        let hi = lo + per + usize::from(t < extra);
        shards.push((lo, hi));
        lo = hi;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|(lo, hi)| {
                scope.spawn(move || {
                    (lo..hi)
                        .map(|i| simulate_node_instrumented(config, i, record_events))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(config.nodes);
        for handle in handles {
            match handle.join() {
                Ok(shard) => all.extend(shard),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    })
}

/// Phase 2: merges per-node packet lists, applies collision/capture and the
/// receiver's channel, and aggregates the outcome. Single-threaded and
/// deterministic: inputs are canonically ordered by `(start, node)` and all
/// randomness comes from the reserved merge stream.
pub fn merge_fleet(config: &FleetConfig, nodes: Vec<NodeOnAir>) -> FleetOutcome {
    merge_fleet_impl(config, nodes, &mut TelemetryBuffer::new())
}

/// One transmission interval as heard at a common receiver — the input
/// row of [`capture_sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirSlot {
    /// Transmitting node's fleet index.
    pub node: usize,
    /// Transmission start.
    pub start: SimTime,
    /// Transmission end.
    pub end: SimTime,
    /// Receive level at the receiver under consideration.
    pub rx_dbm: Dbm,
}

/// Collision + capture over `(start, node)`-sorted transmission intervals
/// at one receiver, as a single forward sweep: slot `j > i` overlaps `i`
/// iff it starts before `i` ends, so each pair is visited exactly once
/// and the strongest interferer is marked in both directions.
///
/// Returns one flag per slot, `true` when the slot overlapped another
/// node's transmission and failed to clear the strongest such interferer
/// by `capture_margin` (an exact tie at the margin still captures).
/// Overlaps between slots of the *same* node never collide — a
/// transmitter does not jam itself, and a node's own back-to-back frames
/// are adjacent by construction.
pub fn capture_sweep(slots: &[AirSlot], capture_margin: Db) -> Vec<bool> {
    debug_assert!(
        slots.windows(2).all(|pair| match pair {
            [a, b] => (a.start, a.node) <= (b.start, b.node),
            _ => true,
        }),
        "capture_sweep input must be (start, node)-sorted"
    );
    let raise = |slot: &mut Option<Dbm>, level: Dbm| {
        *slot = Some(match *slot {
            Some(s) if s >= level => s,
            _ => level,
        });
    };
    let mut strongest: Vec<Option<Dbm>> = vec![None; slots.len()];
    // Walk the sorted list by successively splitting off the head: each
    // pass pairs slot i against the tail until the first non-overlap.
    // Suffix splitting instead of index arithmetic keeps the sweep free of
    // slice-index panic sites.
    let mut air_rest = slots;
    let mut strong_rest = strongest.as_mut_slice();
    while let Some((entry_i, air_tail)) = air_rest.split_first() {
        let Some((slot_i, strong_tail)) = std::mem::take(&mut strong_rest).split_first_mut() else {
            break;
        };
        for (entry_j, slot_j) in air_tail.iter().zip(strong_tail.iter_mut()) {
            if entry_j.start >= entry_i.end {
                break;
            }
            if entry_i.node == entry_j.node {
                continue;
            }
            raise(slot_i, entry_j.rx_dbm);
            raise(slot_j, entry_i.rx_dbm);
        }
        air_rest = air_tail;
        strong_rest = strong_tail;
    }
    slots
        .iter()
        .zip(&strongest)
        .map(|(entry, interferer)| {
            interferer.is_some_and(|level| entry.rx_dbm.margin_over(level) < capture_margin)
        })
        .collect()
}

/// Receive-level histogram bounds for `fleet.rx_dbm`: 10 dB decades across
/// the plausible indoor range. The default decade bounds are built for
/// positive magnitudes and cannot bucket dBm.
pub(crate) const RX_DBM_BOUNDS: [f64; 8] =
    [-100.0, -90.0, -80.0, -70.0, -60.0, -50.0, -40.0, -30.0];

/// [`merge_fleet`], instrumenting `telemetry` with the fleet-level metrics
/// (`fleet.offered` / `fleet.collided` / `fleet.channel_losses` /
/// `fleet.delivered` / `fleet.faulted_nodes` counters, the `fleet.offered_load` gauge, the
/// `fleet.rx_dbm` histogram) and one [`EventKind::PacketFate`] event per
/// packet, attributed and in canonical `(start, node)` order.
fn merge_fleet_impl(
    config: &FleetConfig,
    nodes: Vec<NodeOnAir>,
    telemetry: &mut TelemetryBuffer,
) -> FleetOutcome {
    // Lower the materialized per-node results onto the streaming merge
    // input. Nodes may arrive in any order through this pre-streaming API
    // (results used to be scattered into per-node slots); the canonical
    // sort inside `merge_records` erases arrival order either way, and the
    // per-node tallies index by the yield's own node field.
    let faulted = nodes.iter().filter(|n| n.fault.is_some()).count();
    let mut per_node = config
        .per_node_stats
        .then(|| vec![NodeCounts::default(); config.nodes]);
    let mut records: Vec<PacketRecord> = Vec::new();
    for node in &nodes {
        if let Some(counts) = per_node.as_mut().and_then(|p| p.get_mut(node.node)) {
            counts.offered = node.packets.len() as u32;
        }
        records.extend(node.packets.iter().map(PacketRecord::from_on_air));
    }
    merge_records(config, records, faulted, per_node, telemetry)
}

/// The merge proper, over the accumulator's compact packet records:
/// canonical `(start, node)` sort, collision/capture sweep, channel trials
/// on the reserved merge stream, instrumentation, aggregation.
///
/// Bit-compatibility with the materializing engine is carried by two
/// properties: the Bernoulli-per-bit channel trial short-circuits on the
/// first corrupted bit exactly as before (records store the bit count, so
/// the draw sequence is unchanged), and the checksum verdict — evaluated
/// only when every bit survives — was precomputed at reduction time
/// (`decode` draws no randomness, so hoisting it cannot shift the stream).
fn merge_records(
    config: &FleetConfig,
    mut records: Vec<PacketRecord>,
    faulted_nodes: usize,
    mut per_node: Option<Vec<NodeCounts>>,
    telemetry: &mut TelemetryBuffer,
) -> FleetOutcome {
    // Canonical order. Two packets from the same node cannot share a start
    // time, so (start, node) is a total order independent of arrival order.
    records.sort_by_key(|p| (p.start, p.node));

    let slots: Vec<AirSlot> = records
        .iter()
        .map(|p| AirSlot {
            node: p.node as usize,
            start: p.start,
            end: p.end,
            rx_dbm: p.rx_dbm,
        })
        .collect();
    let mut fates = vec![PacketFate::Delivered; records.len()];
    for (fate, collided) in fates
        .iter_mut()
        .zip(capture_sweep(&slots, config.capture_margin))
    {
        if collided {
            *fate = PacketFate::Collided;
        }
    }

    // Channel trials for the survivors, from the dedicated merge stream.
    let receiver = SuperRegenReceiver::bwrc_issc05();
    let mut rng = SimRng::stream(config.seed, MERGE_STREAM);
    let mut delivered = 0;
    let mut channel_losses = 0;
    for (entry, fate) in records.iter().zip(&mut fates) {
        if *fate == PacketFate::Collided {
            continue;
        }
        // The link budget is already folded into rx_dbm; trial on SNR via
        // the receiver's error model.
        let ber = receiver.ber(entry.rx_dbm);
        let survived = (0..entry.bits).all(|_| !rng.bernoulli(ber)) && entry.decode_ok;
        if survived {
            delivered += 1;
            if let Some(counts) = per_node
                .as_mut()
                .and_then(|p| p.get_mut(entry.node as usize))
            {
                counts.delivered += 1;
            }
        } else {
            channel_losses += 1;
            *fate = PacketFate::ChannelLoss;
        }
    }

    let collided = fates.iter().filter(|f| **f == PacketFate::Collided).count();
    let elapsed = config.duration.as_seconds().value();
    let airtime: f64 = records
        .iter()
        .map(|p| p.end.duration_since(p.start).as_seconds().value())
        .sum();

    // Fleet-level instrumentation. The sweep above already visits packets
    // in canonical (start, node) order, so the fate stream and histogram
    // fills are deterministic regardless of how phase 1 was scheduled.
    telemetry
        .metrics
        .register_histogram(keys::FLEET_RX_DBM, &RX_DBM_BOUNDS);
    for (entry, fate) in records.iter().zip(&fates) {
        telemetry
            .metrics
            .observe(keys::FLEET_RX_DBM, entry.rx_dbm.value());
        let fate = match fate {
            PacketFate::Delivered => "delivered",
            PacketFate::Collided => "collided",
            PacketFate::ChannelLoss => "channel_loss",
        };
        telemetry.record_for(
            entry.node,
            entry.end.as_nanos(),
            EventKind::PacketFate { fate },
        );
    }
    telemetry
        .metrics
        .inc(keys::FLEET_OFFERED, records.len() as u64);
    telemetry.metrics.inc(keys::FLEET_COLLIDED, collided as u64);
    telemetry
        .metrics
        .inc(keys::FLEET_CHANNEL_LOSSES, channel_losses as u64);
    telemetry
        .metrics
        .inc(keys::FLEET_DELIVERED, delivered as u64);
    telemetry
        .metrics
        .inc(keys::FLEET_FAULTED_NODES, faulted_nodes as u64);
    let offered_load = if elapsed > 0.0 {
        airtime / elapsed
    } else {
        0.0
    };
    telemetry
        .metrics
        .add(keys::FLEET_OFFERED_LOAD, offered_load);

    FleetOutcome {
        offered: records.len(),
        collided,
        channel_losses,
        delivered,
        faulted: faulted_nodes,
        per_node_delivery: per_node
            .map(|counts| counts.iter().map(NodeCounts::delivery_ratio).collect())
            .unwrap_or_default(),
        // Zero-duration (or packet-free) runs report 0, never NaN.
        offered_load,
    }
}

/// Runs the fleet scenario.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes, reversed
/// distance range, zero worker threads) or a node fails to build.
pub fn run_fleet(config: &FleetConfig) -> FleetOutcome {
    run_fleet_with(config, &mut NullRecorder).0
}

/// Runs the fleet scenario, streaming telemetry into `recorder` and
/// returning the merged metric registry alongside the outcome.
///
/// Events are recorded only when `recorder.wants_events()` (so
/// [`NullRecorder`] costs one branch per potential event); metric counters
/// are always collected. The emitted stream is framed by phase markers —
/// `phase_start`/`phase_end` for `"simulate"`, then for `"merge"` — with
/// per-node events canonically interleaved by `(t_ns, node)` inside the
/// simulate frame and per-packet [`EventKind::PacketFate`] events in
/// `(start, node)` order inside the merge frame. Both the stream and the
/// metric totals are bit-identical between [`Parallelism::Serial`] and
/// [`Parallelism::Threads`] runs of the same configuration: shards record
/// into their own [`TelemetryBuffer`]s and merge in node order.
///
/// # Panics
///
/// Panics as [`run_fleet`] does on degenerate configurations.
pub fn run_fleet_with(
    config: &FleetConfig,
    recorder: &mut dyn Recorder,
) -> (FleetOutcome, Metrics) {
    let (outcome, metrics, _stats) = run_fleet_with_stats(config, recorder);
    (outcome, metrics)
}

/// [`run_fleet_with`], additionally returning the phase-1 scheduler shape.
///
/// The [`FleetSchedStats`] are wall-clock-dependent (which worker claimed
/// which chunk) and deliberately *not* part of the returned [`Metrics`],
/// which stay bit-identical across [`Parallelism`] modes; see
/// [`FleetSchedStats::export_metrics`] for folding them into a separate
/// registry.
///
/// # Panics
///
/// Panics as [`run_fleet`] does on degenerate configurations.
pub fn run_fleet_with_stats(
    config: &FleetConfig,
    recorder: &mut dyn Recorder,
) -> (FleetOutcome, Metrics, FleetSchedStats) {
    if let Err(error) = config.validate() {
        // picocube-lint: allow(L2) documented `# Panics`; struct-literal configs bypass the builder's typed rejection
        panic!("degenerate fleet config: {error}");
    }
    if let Err(error) = probe_build(config) {
        // picocube-lint: allow(L2) documented `# Panics`; the checkpoint and scenario entry points return this error typed
        panic!("fleet base config does not build: {error:?}");
    }
    let mut acc = FleetAccumulator::new(recorder.wants_events(), config.per_node_stats);
    let sched_stats = stream_nodes(config, &mut acc, config.nodes);
    let (outcome, metrics) = finalize_fleet(config, acc, recorder);
    (outcome, metrics, sched_stats)
}

/// Probe-builds node 0 before any worker threads exist, so an invalid base
/// config fails here with its typed build error rather than as a panic
/// inside a worker thread.
pub(crate) fn probe_build(config: &FleetConfig) -> Result<(), BuildError> {
    let (node_config, _) = derive_node_config(&config.base, config.seed, config.wake_ppm_range, 0);
    build_fleet_node(node_config, config.app).map(drop)
}

/// The run's tail: canonicalizes the fully-fed accumulator's event
/// interleaving, frames the stream with phase markers, merges, and drains
/// events into `recorder`.
///
/// The telemetry fold here reproduces the materializing engine's order of
/// operations exactly — empty engine registry, node-order shard fold
/// (already inside the accumulator), `(t_ns, node)` event sort, then the
/// merge's instrumentation — so metric registries and event streams stay
/// bit-identical to pre-streaming goldens.
pub(crate) fn finalize_fleet(
    config: &FleetConfig,
    acc: FleetAccumulator,
    recorder: &mut dyn Recorder,
) -> (FleetOutcome, Metrics) {
    assert_eq!(
        acc.nodes_done(),
        config.nodes,
        "fleet fold finalized before every node was absorbed"
    );
    let record_events = acc.record_events();
    let duration_ns = config.duration.as_nanos();
    let (records, mut shards, faulted, per_node) = acc.into_parts();

    let mut engine = TelemetryBuffer::with_events(record_events);
    engine.record(
        0,
        EventKind::PhaseStart {
            phase: "simulate".into(),
        },
    );
    // Deterministic shard merge: the accumulator absorbed per-node buffers
    // in node order; canonicalize the interleaving.
    shards.sort_events();
    engine.absorb(shards);
    engine.record(
        duration_ns,
        EventKind::PhaseEnd {
            phase: "simulate".into(),
        },
    );

    engine.record(
        duration_ns,
        EventKind::PhaseStart {
            phase: "merge".into(),
        },
    );
    let outcome = merge_records(config, records, faulted, per_node, &mut engine);
    engine.record(
        duration_ns,
        EventKind::PhaseEnd {
            phase: "merge".into(),
        },
    );

    engine.drain_events_into(recorder);
    (outcome, engine.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_telemetry::Event;
    use picocube_units::json::ToJson;

    fn quick(nodes: usize, seed: u64) -> FleetOutcome {
        run_fleet(
            &FleetConfig::builder()
                .nodes(nodes)
                .duration(SimDuration::from_secs(60))
                .seed(seed)
                .build()
                .expect("valid test scenario"),
        )
    }

    #[test]
    fn builder_accepts_a_full_scenario() {
        let config = FleetConfig::builder()
            .nodes(5)
            .duration(SimDuration::from_secs(45))
            .distance_range(1.0, 2.0)
            .capture_margin(Db::new(6.0))
            .seed(99)
            .parallelism(Parallelism::Threads(2))
            .build()
            .expect("valid scenario");
        assert_eq!(config.nodes, 5);
        assert_eq!(config.duration, SimDuration::from_secs(45));
        assert_eq!(config.distance_range, (1.0, 2.0));
        assert_eq!(config.capture_margin, Db::new(6.0));
        assert_eq!(config.seed, 99);
        assert_eq!(config.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn builder_rejects_degenerate_scenarios() {
        let err = |b: FleetConfigBuilder| b.build().unwrap_err();
        assert_eq!(
            err(FleetConfig::builder().nodes(0)),
            FleetConfigError::ZeroNodes
        );
        assert_eq!(
            err(FleetConfig::builder().duration(SimDuration::ZERO)),
            FleetConfigError::NonPositiveDuration
        );
        assert_eq!(
            err(FleetConfig::builder().parallelism(Parallelism::Threads(0))),
            FleetConfigError::ZeroThreads
        );
        assert_eq!(
            err(FleetConfig::builder().distance_range(2.0, 1.0)),
            FleetConfigError::InvalidDistanceRange
        );
        assert_eq!(
            err(FleetConfig::builder().distance_range(0.0, 1.0)),
            FleetConfigError::InvalidDistanceRange
        );
        // The messages are what `run_fleet`'s asserts say, so builder users
        // and struct-literal users read the same diagnostics.
        assert!(FleetConfigError::ZeroNodes
            .to_string()
            .contains("at least one node"));
        assert!(FleetConfigError::ZeroThreads
            .to_string()
            .contains("at least one thread"));
    }

    #[test]
    fn instrumented_run_streams_framed_events_and_totals() {
        let config = FleetConfig::builder()
            .nodes(3)
            .duration(SimDuration::from_secs(30))
            .seed(9)
            .build()
            .expect("valid scenario");
        let mut events: Vec<Event> = Vec::new();
        let (out, metrics) = run_fleet_with(&config, &mut events);

        assert_eq!(metrics.counter("fleet.offered"), out.offered as u64);
        assert_eq!(metrics.counter("fleet.collided"), out.collided as u64);
        assert_eq!(
            metrics.counter("fleet.channel_losses"),
            out.channel_losses as u64
        );
        assert_eq!(metrics.counter("fleet.delivered"), out.delivered as u64);
        // Healthy firmware on healthy rails: nobody faults.
        assert_eq!(metrics.counter("fleet.faulted_nodes"), 0);
        assert_eq!(out.faulted, 0);
        assert_eq!(
            metrics.gauge("fleet.offered_load").to_bits(),
            out.offered_load.to_bits()
        );
        assert!(metrics.counter("node.wakes") >= out.offered as u64);
        assert!(metrics.gauge("power.total.uj") > 0.0);
        let rx = metrics.histogram("fleet.rx_dbm").expect("registered");
        assert_eq!(rx.count(), out.offered as u64);

        // Framing: phase markers open and close the stream, one fate event
        // per offered packet, at least one wake per node.
        assert!(
            matches!(events.first().unwrap().kind, EventKind::PhaseStart { ref phase } if phase == "simulate")
        );
        assert!(
            matches!(events.last().unwrap().kind, EventKind::PhaseEnd { ref phase } if phase == "merge")
        );
        let fates = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PacketFate { .. }))
            .count();
        assert_eq!(fates, out.offered);
        for node in 0..config.nodes as u32 {
            assert!(
                events
                    .iter()
                    .any(|e| e.node == node && matches!(e.kind, EventKind::Wake { .. })),
                "node {node} recorded no wake"
            );
        }
    }

    #[test]
    fn null_recorder_keeps_metrics_without_events() {
        let config = FleetConfig::builder()
            .nodes(2)
            .duration(SimDuration::from_secs(30))
            .seed(9)
            .build()
            .expect("valid scenario");
        let (out, metrics) = run_fleet_with(&config, &mut NullRecorder);
        assert_eq!(metrics.counter("fleet.offered"), out.offered as u64);
        assert!(metrics.counter("mcu.lpm_ns") > 0);
    }

    #[test]
    fn single_node_delivers_everything() {
        let out = quick(1, 3);
        // One wake every 6 s; the random power-up phase may shave one.
        assert!((9..=10).contains(&out.offered), "offered {}", out.offered);
        assert_eq!(out.collided, 0);
        assert!(out.delivery_ratio() > 0.99);
    }

    #[test]
    fn small_fleet_rarely_collides() {
        let out = quick(8, 4);
        assert!(
            (8 * 9..=8 * 10).contains(&out.offered),
            "offered {}",
            out.offered
        );
        // 1 ms packets in 6 s periods: offered load ~0.13 %, collisions
        // should be absent or nearly so.
        assert!(out.collided <= 2, "collided {}", out.collided);
        assert!(out.delivery_ratio() > 0.95);
    }

    #[test]
    fn offered_load_matches_airtime() {
        let out = quick(8, 5);
        // ~80 packets × 1.04 ms / 60 s ≈ 0.14 %.
        assert!(
            (out.offered_load - 0.0014).abs() < 5e-4,
            "G = {}",
            out.offered_load
        );
    }

    #[test]
    fn dense_bursts_still_mostly_deliver() {
        // Direct check of the overlap predicate through a dense burst:
        // nodes within one packet time of each other must collide, and
        // equal-power nodes cannot capture.
        let dense = run_fleet(
            &FleetConfig::builder()
                .nodes(64)
                .duration(SimDuration::from_secs(30))
                .distance_range(1.0, 1.01)
                .seed(7)
                .build()
                .expect("valid test scenario"),
        );
        // 64 nodes × 5 packets in 30 s at random phases: expect a few
        // overlaps in expectation (birthday-style).
        assert!(dense.offered >= 64 * 4);
        assert!(dense.delivery_ratio() > 0.5);
    }

    #[test]
    fn per_node_stats_cover_all_nodes_when_opted_in() {
        let out = run_fleet(
            &FleetConfig::builder()
                .nodes(5)
                .duration(SimDuration::from_secs(60))
                .seed(8)
                .per_node_stats(true)
                .build()
                .expect("valid test scenario"),
        );
        assert_eq!(out.per_node_delivery.len(), 5);
        assert!(out
            .per_node_delivery
            .iter()
            .all(|&d| (0.0..=1.0).contains(&d)));
    }

    #[test]
    fn per_node_stats_default_off_keeps_output_o1() {
        // The streaming default: no O(nodes) output vector. Aggregates are
        // unchanged by the opt-in.
        let opted = run_fleet(
            &FleetConfig::builder()
                .nodes(5)
                .duration(SimDuration::from_secs(60))
                .seed(8)
                .per_node_stats(true)
                .build()
                .expect("valid test scenario"),
        );
        let off = quick(5, 8);
        assert!(off.per_node_delivery.is_empty());
        assert_eq!(off.offered, opted.offered);
        assert_eq!(off.delivered, opted.delivered);
        assert_eq!(off.collided, opted.collided);
        assert_eq!(off.offered_load.to_bits(), opted.offered_load.to_bits());
    }

    #[test]
    fn short_duration_emits_zeroes_not_nan() {
        // 1 s is shorter than any node's first wake can be guaranteed to
        // land: nodes that never transmit must report 0.0, not 0/0.
        let out = run_fleet(&FleetConfig {
            nodes: 4,
            duration: SimDuration::from_secs(1),
            seed: 11,
            per_node_stats: true,
            ..FleetConfig::default()
        });
        assert!(out.offered_load.is_finite());
        assert!(out.per_node_delivery.iter().all(|d| d.is_finite()));
        assert!(out.delivery_ratio().is_finite());
        for (idx, d) in out.per_node_delivery.iter().enumerate() {
            assert!((0.0..=1.0).contains(d), "node {idx}: {d}");
        }
    }

    #[test]
    fn serial_and_threaded_runs_are_bit_identical() {
        for seed in [3u64, 17, 292] {
            let serial = run_fleet(&FleetConfig {
                nodes: 12,
                duration: SimDuration::from_secs(30),
                seed,
                parallelism: Parallelism::Serial,
                per_node_stats: true,
                ..FleetConfig::default()
            });
            let threaded = run_fleet(&FleetConfig {
                nodes: 12,
                duration: SimDuration::from_secs(30),
                seed,
                parallelism: Parallelism::Threads(4),
                per_node_stats: true,
                ..FleetConfig::default()
            });
            assert_eq!(serial.offered, threaded.offered, "seed {seed}");
            assert_eq!(serial.collided, threaded.collided, "seed {seed}");
            assert_eq!(
                serial.channel_losses, threaded.channel_losses,
                "seed {seed}"
            );
            assert_eq!(serial.delivered, threaded.delivered, "seed {seed}");
            assert_eq!(
                serial.per_node_delivery.len(),
                threaded.per_node_delivery.len(),
                "seed {seed}"
            );
            for (idx, (s, t)) in serial
                .per_node_delivery
                .iter()
                .zip(&threaded.per_node_delivery)
                .enumerate()
            {
                assert!(
                    s.to_bits() == t.to_bits(),
                    "seed {seed} node {idx}: serial {s} != threaded {t}"
                );
            }
            assert_eq!(
                serial.offered_load.to_bits(),
                threaded.offered_load.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |parallelism| {
            run_fleet(&FleetConfig {
                nodes: 7, // deliberately not a multiple of the worker count
                duration: SimDuration::from_secs(30),
                seed: 5,
                parallelism,
                ..FleetConfig::default()
            })
        };
        let serial = run(Parallelism::Serial);
        for workers in [2usize, 3, 8, 16] {
            assert_eq!(
                serial,
                run(Parallelism::Threads(workers)),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn reorder_window_stall_path_is_bit_identical() {
        // 48 nodes on 2 workers: 12 chunks against a window of 4, so fast
        // workers must stall on the reorder window and resume when the
        // fold frontier advances — the streaming engine's backpressure
        // path, which the wider tests above never enter.
        let run = |parallelism| {
            run_fleet_with(
                &FleetConfig {
                    nodes: 48,
                    duration: SimDuration::from_secs(10),
                    seed: 31,
                    parallelism,
                    ..FleetConfig::default()
                },
                &mut NullRecorder,
            )
        };
        let (serial_out, serial_metrics) = run(Parallelism::Serial);
        let (threaded_out, threaded_metrics) = run(Parallelism::Threads(2));
        assert_eq!(serial_out, threaded_out);
        assert_eq!(
            serial_metrics.to_json().to_string(),
            threaded_metrics.to_json().to_string()
        );
    }

    #[test]
    fn brownout_imbalanced_fleet_identical_across_schedulers() {
        use crate::node::HarvesterKind;

        // Every node starts below the supervisor threshold with a shaker
        // harvester attached: it browns out at the first check, sits held
        // in reset (simulated in cheap 60 s strides) until the cell
        // recharges past the restart threshold (~2 h), then runs actively
        // for the remainder. Brown-out holds make per-node cost wildly
        // uneven in time — the load shape the work-stealing scheduler
        // exists for — and the three phase-1 schedulers must still be
        // bit-identical in outcome AND telemetry.
        let config = |parallelism| FleetConfig {
            nodes: 6,
            base: NodeConfig {
                harvester: HarvesterKind::Shaker,
                initial_soc: 0.009,
                ..NodeConfig::default()
            },
            duration: SimDuration::from_secs(3 * 3_600),
            seed: 23,
            parallelism,
            ..FleetConfig::default()
        };

        let (serial_out, serial_metrics) =
            run_fleet_with(&config(Parallelism::Serial), &mut NullRecorder);
        let serial_json = serial_metrics.to_json().to_string();
        assert!(
            serial_metrics.counter("node.brownouts") >= 6,
            "every node must brown out early (got {})",
            serial_metrics.counter("node.brownouts")
        );

        // Work stealing at two widths, including more workers than chunks.
        for workers in [2usize, 7] {
            let (out, metrics) =
                run_fleet_with(&config(Parallelism::Threads(workers)), &mut NullRecorder);
            assert_eq!(out, serial_out, "{workers} workers: outcome diverged");
            assert_eq!(
                metrics.to_json().to_string(),
                serial_json,
                "{workers} workers: metric registries diverged"
            );
        }

        // The pre-work-stealing static-shard scheduler, replayed through
        // the same merge path, is the third reference.
        let cfg = config(Parallelism::Serial);
        let mut nodes = simulate_static_shards(&cfg, 3, false);
        let mut telemetry = TelemetryBuffer::new();
        for node in &mut nodes {
            telemetry.absorb(std::mem::take(&mut node.telemetry));
        }
        let static_out = merge_fleet_impl(&cfg, nodes, &mut telemetry);
        assert_eq!(static_out, serial_out, "static shards: outcome diverged");
        assert_eq!(
            telemetry.metrics.to_json().to_string(),
            serial_json,
            "static shards: metric registries diverged"
        );
    }

    #[test]
    fn streamed_engine_matches_per_node_reference() {
        // The streamed engine (claim, simulate, fold in node order) at one
        // and at three workers must reproduce the plain per-node reference
        // — `simulate_node_instrumented` over every index, then one merge —
        // bit-for-bit in outcome and full metric registry. 11 nodes: two
        // full STEAL_CHUNKs plus a ragged tail.
        for (app, duration) in [
            (FleetApp::Tpms, SimDuration::from_secs(30)),
            (
                FleetApp::Beacon {
                    rest_s: 5.0,
                    handled_s: 1.0,
                    vigor_g: 1.5,
                    period_s: 4,
                },
                SimDuration::from_secs(20),
            ),
        ] {
            let cfg = FleetConfig {
                nodes: 11,
                duration,
                seed: 77,
                app,
                ..FleetConfig::default()
            };
            let mut nodes: Vec<NodeOnAir> = (0..cfg.nodes)
                .map(|i| simulate_node_instrumented(&cfg, i, false))
                .collect();
            let mut telemetry = TelemetryBuffer::new();
            for node in &mut nodes {
                telemetry.absorb(std::mem::take(&mut node.telemetry));
            }
            let reference_out = merge_fleet_impl(&cfg, nodes, &mut telemetry);
            let reference_json = telemetry.metrics.to_json().to_string();

            for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
                let (out, metrics) = run_fleet_with(
                    &FleetConfig {
                        parallelism,
                        ..cfg.clone()
                    },
                    &mut NullRecorder,
                );
                assert_eq!(
                    out, reference_out,
                    "{app:?} {parallelism:?}: outcome diverged"
                );
                assert_eq!(
                    metrics.to_json().to_string(),
                    reference_json,
                    "{app:?} {parallelism:?}: metric registries diverged"
                );
            }
        }
    }

    #[test]
    fn serial_is_the_one_worker_scheduler() {
        // 10 nodes: two full STEAL_CHUNKs plus a ragged tail.
        let config = |parallelism| FleetConfig {
            nodes: 10,
            duration: SimDuration::from_secs(20),
            seed: 13,
            parallelism,
            ..FleetConfig::default()
        };
        let (serial_out, serial_metrics, stats) =
            run_fleet_with_stats(&config(Parallelism::Serial), &mut NullRecorder);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.chunk_size, STEAL_CHUNK);
        assert_eq!(stats.chunks, 10usize.div_ceil(STEAL_CHUNK));
        assert_eq!(stats.claims, vec![stats.chunks as u64]);

        let (one_out, one_metrics, one_stats) =
            run_fleet_with_stats(&config(Parallelism::Threads(1)), &mut NullRecorder);
        assert_eq!(one_stats, stats);
        assert_eq!(one_out, serial_out);
        assert_eq!(
            one_metrics.to_json().to_string(),
            serial_metrics.to_json().to_string()
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        run_fleet(&FleetConfig {
            nodes: 0,
            ..FleetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        run_fleet(&FleetConfig {
            parallelism: Parallelism::Threads(0),
            ..FleetConfig::default()
        });
    }
}
