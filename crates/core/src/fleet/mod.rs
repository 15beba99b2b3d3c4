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
//!    mid-simulation) and reduced to a plain-data [`NodeOnAir`] — one
//!    compact record per packet (interval, receive level, bit count,
//!    checksum verdict) plus its telemetry. Every random draw a node
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
//!
//! # One pipeline
//!
//! Every entry point runs the same pipeline: [`FleetConfig::validate`],
//! then either restore a checkpoint or probe-build node 0 (before any
//! worker thread exists, so a base config that does not build fails with
//! its typed [`BuildError`](crate::BuildError)), then stream the fold.
//! Each entry point adds one step: [`run_fleet_partial`] stops after a
//! node budget and moves the fold into a [`FleetCheckpoint`];
//! [`run_fleet_resumable`] runs to the end and finalizes, returning every
//! failure as a [`CheckpointError`]; [`run_fleet_with_stats`] does the
//! same but panics with the error's message, and [`run_fleet_with`] drops
//! its scheduler stats.

mod accumulator;
mod checkpoint;

pub use checkpoint::{CheckpointError, FleetCheckpoint, StackCheckpoint};

use crate::node::NodeConfig;
use crate::stack::{AppBoard, NodeFault, Stack};
use accumulator::{FleetAccumulator, PacketRecord};
use picocube_radio::packet::{decode, Checksum};
use picocube_radio::{Channel, Link, PatchAntenna, SuperRegenReceiver};
use picocube_sim::{SimDuration, SimRng, SimTime};
use picocube_telemetry::{keys, EventKind, MergeConflict, Metrics, Recorder, TelemetryBuffer};
use picocube_units::json::JsonError;
use picocube_units::{Db, Dbm, Hertz, Meters};
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

/// The former name of [`AppBoard`], kept while the benchmark's frozen
/// probes still spell it.
pub type FleetApp = AppBoard;

/// Fleet scenario parameters: plain data, checked by
/// [`validate`](Self::validate), which every fleet entry point calls
/// before it simulates anything.
///
/// # Examples
///
/// ```
/// use picocube_node::{run_fleet_with, FleetConfig, FleetConfigError, Parallelism};
/// use picocube_sim::SimDuration;
/// use picocube_telemetry::NullRecorder;
///
/// let config = FleetConfig {
///     nodes: 2,
///     duration: SimDuration::from_secs(30),
///     seed: 7,
///     parallelism: Parallelism::Threads(2),
///     ..FleetConfig::default()
/// };
/// assert_eq!(config.validate(), Ok(()));
/// let (outcome, _metrics) = run_fleet_with(&config, &mut NullRecorder);
/// assert!(outcome.offered > 0);
/// assert_eq!(
///     FleetConfig { nodes: 0, ..config }.validate(),
///     Err(FleetConfigError::ZeroNodes)
/// );
/// ```
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
    pub app: AppBoard,
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
            app: AppBoard::Tpms,
            wake_ppm_range: STOCK_WAKE_PPM,
            per_node_stats: false,
        }
    }
}

/// Why a fleet configuration was rejected by [`FleetConfig::validate`].
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
    /// Checks the invariants the fleet engine relies on, returning the
    /// first violation. Every fleet entry point calls it first.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
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
        self.app.validate().map_err(FleetConfigError::InvalidApp)?;
        if !(self.wake_ppm_range.is_finite() && self.wake_ppm_range >= 0.0) {
            return Err(FleetConfigError::InvalidWakePpmRange);
        }
        Ok(())
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

/// Plain-data result of one node's isolated simulation (phase 1): what
/// the in-order fold absorbs and [`merge_fleet`] merges.
#[derive(Debug, Clone)]
pub struct NodeOnAir {
    /// Fleet index of the node.
    pub node: usize,
    /// One compact record per packet, in transmission order.
    records: Vec<PacketRecord>,
    /// The node's drained telemetry: metric totals plus (when the fleet
    /// run's recorder wants them) its attributed event stream.
    telemetry: TelemetryBuffer,
    /// The fault that ended the node's simulation early, if any.
    fault: Option<NodeFault>,
}

// The parallel engine moves these across thread boundaries; keep the
// guarantee explicit so a non-Send field shows up here, not in a distant
// spawn call.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NodeOnAir>();
    assert_send::<FleetConfig>();
    assert_send::<FleetOutcome>();
    assert_send::<Stack>();
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

/// The stock half-width of the per-node wake-timer tolerance draw, ppm:
/// the default of every engine config and of a scenario's chaos plan.
pub(crate) const STOCK_WAKE_PPM: f64 = 500.0;

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
        // stock range the factor is exactly 1.0 and the product is
        // bit-identical to the unscaled historical draw.
        wake_interval_ppm: setup.uniform(-STOCK_WAKE_PPM, STOCK_WAKE_PPM)
            * (wake_ppm_range / STOCK_WAKE_PPM),
        ..base.clone()
    };
    (config, setup)
}

/// Reserved stream index for the merge phase's channel trials. Odd, and
/// unreachable from `2 * i + 1` for any realistic fleet size.
const MERGE_STREAM: u64 = u64::MAX;

/// The §6 demo-table link: the 0.8 dBm transmitter through the as-built
/// patch antenna at 1.863 GHz, 2 dB of orientation loss, into the demo
/// room. The fleet and mesh channel trials and the demo station all use it.
pub(crate) fn demo_link() -> Link {
    Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(2.0),
        channel: Channel::demo_room(),
    }
}

/// Phase 1: builds and runs node `index` in isolation and reduces it to
/// its packet records.
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
fn simulate_node_instrumented(
    config: &FleetConfig,
    index: usize,
    record_events: bool,
) -> NodeOnAir {
    let (node_config, mut setup) =
        derive_node_config(&config.base, config.seed, config.wake_ppm_range, index);
    // Per-node fields (id, seed, offsets) cannot invalidate a base config
    // that builds, and the fleet pipeline probe-builds the base first.
    let mut node = Stack::without_traces(node_config, config.app)
        // picocube-lint: allow(L2) documented `# Panics`; base pre-validated by the pipeline's probe
        .expect("fleet node builds");
    node.set_event_recording(record_events);
    let outcome = node.run_for(config.duration);
    let mut telemetry = node.drain_telemetry();
    telemetry.attribute_to(index as u32);
    // The setup stream's post-run draw: its order is part of the RNG
    // contract.
    let distance = setup.uniform(config.distance_range.0, config.distance_range.1);
    let link = demo_link();
    let rx_dbm = link.budget(Meters::new(distance)).received;
    let records = node
        .packets()
        .iter()
        .map(|packet| PacketRecord {
            node: index as u32,
            start: packet.start(),
            end: packet.time,
            rx_dbm,
            bits: (packet.bytes.len() * 8) as u32,
            decode_ok: decode(&packet.bytes, Checksum::Xor).is_ok(),
        })
        .collect();
    NodeOnAir {
        node: index,
        records,
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
    pending: BTreeMap<usize, Vec<NodeOnAir>>,
    /// The run's in-order fold.
    acc: &'acc mut FleetAccumulator,
    /// The metric conflict that stopped the fold, if any.
    conflict: Option<MergeConflict>,
}

/// Runs phase 1 for nodes `[acc.nodes_done(), upto)` on
/// `config.parallelism` workers (one for [`Parallelism::Serial`]), folding
/// every node's yield into `acc` in node order the moment it can. Live
/// state is O(workers): each worker holds one node stack at a time plus
/// its in-flight chunk of yields, and the bounded reorder window below
/// keeps fast workers from buffering unboundedly ahead of the in-order
/// fold. A metric conflict in the fold (see [`FleetAccumulator::absorb`])
/// stops every worker's claims and is returned.
fn stream_nodes(
    config: &FleetConfig,
    acc: &mut FleetAccumulator,
    upto: usize,
) -> Result<FleetSchedStats, MergeConflict> {
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
        conflict: None,
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
                            let yields: Vec<NodeOnAir> = (lo..hi)
                                .map(|i| simulate_node_instrumented(config, i, record_events))
                                .collect();
                            let mut guard = match state.lock() {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            guard.pending.insert(chunk, yields);
                            // Drain every consecutive chunk at the
                            // frontier so the floor never idles in
                            // `pending`. A conflict ends the claims, so
                            // waiting workers wake and exit.
                            while guard.conflict.is_none() {
                                let floor = guard.floor_chunk;
                                let Some(folds) = guard.pending.remove(&floor) else {
                                    break;
                                };
                                for node in folds {
                                    if let Err(conflict) = guard.acc.absorb(node) {
                                        guard.conflict = Some(conflict);
                                        guard.next_chunk = chunks;
                                        break;
                                    }
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
    if let Some(conflict) = state.conflict {
        return Err(conflict);
    }
    assert!(
        state.pending.is_empty() && state.floor_chunk == chunks,
        "streaming fold must drain every claimed chunk"
    );
    Ok(FleetSchedStats {
        workers,
        chunk_size: STEAL_CHUNK,
        chunks,
        claims,
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
    capture_sweep_by(slots, capture_margin, |slot| *slot)
}

/// [`capture_sweep`] over any `(start, node)`-sorted rows, each read as an
/// [`AirSlot`] through `air`. The merge sweeps its packet records in place
/// this way instead of copying them into slots first.
fn capture_sweep_by<T>(slots: &[T], capture_margin: Db, air: impl Fn(&T) -> AirSlot) -> Vec<bool> {
    debug_assert!(
        slots.windows(2).all(|pair| match pair {
            [a, b] => (air(a).start, air(a).node) <= (air(b).start, air(b).node),
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
        let entry_i = air(entry_i);
        for (entry_j, slot_j) in air_tail.iter().zip(strong_tail.iter_mut()) {
            let entry_j = air(entry_j);
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
            interferer.is_some_and(|level| air(entry).rx_dbm.margin_over(level) < capture_margin)
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
    // input. Nodes may arrive in any order through this pre-streaming API;
    // the canonical sort inside `merge_records` erases arrival order.
    let faulted = nodes.iter().filter(|n| n.fault.is_some()).count();
    let records = nodes.into_iter().flat_map(|node| node.records).collect();
    merge_records(config, records, faulted, telemetry)
}

/// Per-node delivery fractions over `nodes` nodes, from one `(node,
/// delivered)` pair per packet; a node that never transmitted reads 0.
pub(crate) fn per_node_delivery(
    nodes: usize,
    packets: impl IntoIterator<Item = (usize, bool)>,
) -> Vec<f64> {
    let mut counts = vec![(0u32, 0u32); nodes];
    for (node, delivered) in packets {
        if let Some((offered, hits)) = counts.get_mut(node) {
            *offered += 1;
            *hits += u32::from(delivered);
        }
    }
    counts
        .iter()
        .map(|&(offered, hits)| {
            if offered == 0 {
                0.0
            } else {
                f64::from(hits) / f64::from(offered)
            }
        })
        .collect()
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
    telemetry: &mut TelemetryBuffer,
) -> FleetOutcome {
    // Canonical order, independent of arrival order. The key is unique,
    // because each node's starts strictly increase (the checkpoint decoder
    // enforces this for records it reads), so the unstable sort, which
    // needs no scratch copy of the records, leaves them where a stable one
    // would.
    records.sort_unstable_by_key(|p| (p.start, p.node));
    debug_assert!(
        records.windows(2).all(|pair| match pair {
            [a, b] => (a.start, a.node) < (b.start, b.node),
            _ => true,
        }),
        "two packet records share a (start, node) key"
    );

    // The sweep reads the records in place; its flags become the fates in
    // the same allocation.
    let mut fates: Vec<PacketFate> =
        capture_sweep_by(&records, config.capture_margin, PacketRecord::air)
            .into_iter()
            .map(|collided| {
                if collided {
                    PacketFate::Collided
                } else {
                    PacketFate::Delivered
                }
            })
            .collect();

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
        // Counted from the records, which carry their node index, only
        // when the run opted in.
        per_node_delivery: if config.per_node_stats {
            per_node_delivery(
                config.nodes,
                records
                    .iter()
                    .zip(&fates)
                    .map(|(entry, fate)| (entry.node as usize, *fate == PacketFate::Delivered)),
            )
        } else {
            Vec::new()
        },
        // Zero-duration (or packet-free) runs report 0, never NaN.
        offered_load,
    }
}

/// The one fleet pipeline behind every entry point: validates `config`,
/// then either restores `resume` or probe-builds node 0, then streams the
/// fold for at most `budget` more nodes. The probe runs before any worker
/// thread exists, so an invalid base fails here with its typed build
/// error rather than as a panic inside a worker.
fn stream_fleet(
    config: &FleetConfig,
    resume: Option<&FleetCheckpoint>,
    record_events: bool,
    budget: usize,
) -> Result<(FleetAccumulator, FleetSchedStats), CheckpointError> {
    config.validate().map_err(CheckpointError::Config)?;
    let mut acc = match resume {
        Some(checkpoint) => checkpoint.restore(config, record_events)?,
        None => {
            let (probe, _) =
                derive_node_config(&config.base, config.seed, config.wake_ppm_range, 0);
            Stack::new(probe, config.app).map_err(CheckpointError::Build)?;
            FleetAccumulator::new(record_events)
        }
    };
    let upto = acc.nodes_done().saturating_add(budget).min(config.nodes);
    // Only a restored fold can contradict its nodes' metrics, so a
    // conflict is a malformed checkpoint.
    let sched_stats = stream_nodes(config, &mut acc, upto)
        .map_err(|conflict| JsonError::new(format!("metrics: {conflict}")))?;
    Ok((acc, sched_stats))
}

/// Runs the fleet scenario, streaming telemetry into `recorder` and
/// returning the merged metric registry alongside the outcome.
///
/// Events are recorded only when `recorder.wants_events()` (so
/// [`NullRecorder`](picocube_telemetry::NullRecorder) costs one branch per potential event); metric counters
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
/// Panics as [`run_fleet_with_stats`] does.
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
/// Panics with the message of the [`CheckpointError`] that
/// [`run_fleet_resumable`] returns for the same config: a degenerate
/// configuration ("degenerate fleet config: …") or a base config that
/// does not build.
pub fn run_fleet_with_stats(
    config: &FleetConfig,
    recorder: &mut dyn Recorder,
) -> (FleetOutcome, Metrics, FleetSchedStats) {
    match stream_fleet(config, None, recorder.wants_events(), usize::MAX) {
        Ok((acc, sched_stats)) => {
            let (outcome, metrics) = finalize_fleet(config, acc, recorder);
            (outcome, metrics, sched_stats)
        }
        // picocube-lint: allow(L2) documented `# Panics`; `run_fleet_resumable` returns this error typed
        Err(error) => panic!("{error}"),
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
    let (acc, _stats) = stream_fleet(config, resume, record_events, budget.max(1))?;
    Ok(FleetCheckpoint::capture(config, acc))
}

/// Runs the fleet to completion, continuing from `resume` when given: the
/// typed entry point, which returns every failure
/// [`run_fleet_with`] would panic on as a [`CheckpointError`].
///
/// Bit-identity contract: for any split of the node range into
/// [`run_fleet_partial`] legs (including legs serialized through JSON in
/// between, and legs run under different [`Parallelism`] modes), the
/// final outcome, metric registry and event stream are identical to a
/// single uninterrupted [`run_fleet_with`] call.
///
/// # Errors
///
/// As [`run_fleet_partial`].
pub fn run_fleet_resumable(
    config: &FleetConfig,
    resume: Option<&FleetCheckpoint>,
    recorder: &mut dyn Recorder,
) -> Result<(FleetOutcome, Metrics), CheckpointError> {
    let (acc, _stats) = stream_fleet(config, resume, recorder.wants_events(), usize::MAX)?;
    Ok(finalize_fleet(config, acc, recorder))
}

/// The run's tail: frames the fully-fed accumulator's events and merges
/// its records.
///
/// The telemetry fold here reproduces the materializing engine's order of
/// operations exactly — empty engine registry, node-order shard fold
/// (already inside the accumulator), `(t_ns, node)` event sort, then the
/// merge's instrumentation — so metric registries and event streams stay
/// bit-identical to pre-streaming goldens.
fn finalize_fleet(
    config: &FleetConfig,
    acc: FleetAccumulator,
    recorder: &mut dyn Recorder,
) -> (FleetOutcome, Metrics) {
    assert_eq!(
        acc.nodes_done(),
        config.nodes,
        "fleet fold finalized before every node was absorbed"
    );
    let FleetAccumulator {
        records,
        telemetry,
        faulted,
        ..
    } = acc;
    frame_run(telemetry, config.duration, "merge", recorder, |engine| {
        merge_records(config, records, faulted, engine)
    })
}

/// The event frame both engines share. Emits `phase_start` `"simulate"`
/// at 0, then `simulated` (every node's telemetry absorbed in node order,
/// then the engine's own events) in canonical `(t_ns, node)` order, then
/// `phase_end` at the run's `duration`; runs `tail` (the fleet's
/// `"merge"`, the mesh's `"sink"`) between that phase's markers, also at
/// `duration`; and drains the events into `recorder`. Returns the tail's
/// result and the run's merged metric registry.
pub(crate) fn frame_run<T>(
    mut simulated: TelemetryBuffer,
    duration: SimDuration,
    tail_phase: &str,
    recorder: &mut dyn Recorder,
    tail: impl FnOnce(&mut TelemetryBuffer) -> T,
) -> (T, Metrics) {
    let duration_ns = duration.as_nanos();
    let mut engine = TelemetryBuffer::with_events(simulated.events_enabled());
    engine.record(
        0,
        EventKind::PhaseStart {
            phase: "simulate".into(),
        },
    );
    simulated.sort_events();
    engine.absorb(simulated);
    engine.record(
        duration_ns,
        EventKind::PhaseEnd {
            phase: "simulate".into(),
        },
    );

    engine.record(
        duration_ns,
        EventKind::PhaseStart {
            phase: tail_phase.into(),
        },
    );
    let outcome = tail(&mut engine);
    engine.record(
        duration_ns,
        EventKind::PhaseEnd {
            phase: tail_phase.into(),
        },
    );

    engine.drain_events_into(recorder);
    (outcome, engine.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_telemetry::{Event, NullRecorder};
    use picocube_units::json::ToJson;

    fn run(config: &FleetConfig) -> FleetOutcome {
        run_fleet_with(config, &mut NullRecorder).0
    }

    fn quick(nodes: usize, seed: u64) -> FleetOutcome {
        run(&FleetConfig {
            nodes,
            duration: SimDuration::from_secs(60),
            seed,
            ..FleetConfig::default()
        })
    }

    /// A struct literal that sets every scalar field away from its default.
    fn full_scenario() -> FleetConfig {
        FleetConfig {
            nodes: 5,
            duration: SimDuration::from_secs(45),
            distance_range: (1.0, 2.0),
            capture_margin: Db::new(6.0),
            seed: 99,
            parallelism: Parallelism::Threads(2),
            wake_ppm_range: 200.0,
            per_node_stats: true,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn builder_accepts_a_full_scenario() {
        let config = full_scenario();
        assert_eq!(config.validate(), Ok(()));
        assert_eq!(config.nodes, 5);
        assert_eq!(config.duration, SimDuration::from_secs(45));
        assert_eq!(config.distance_range, (1.0, 2.0));
        assert_eq!(config.capture_margin, Db::new(6.0));
        assert_eq!(config.seed, 99);
        assert_eq!(config.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn builder_rejects_degenerate_scenarios() {
        // Each edit breaks one invariant of a config that validates.
        let ok = full_scenario();
        use FleetConfigError as E;
        type Edit = fn(&mut FleetConfig);
        let cases: [(Edit, E); 7] = [
            (|c| c.nodes = 0, E::ZeroNodes),
            (|c| c.duration = SimDuration::ZERO, E::NonPositiveDuration),
            (|c| c.parallelism = Parallelism::Threads(0), E::ZeroThreads),
            (|c| c.distance_range = (2.0, 1.0), E::InvalidDistanceRange),
            (|c| c.distance_range = (0.0, 1.0), E::InvalidDistanceRange),
            (|c| c.wake_ppm_range = f64::NAN, E::InvalidWakePpmRange),
            (|c| c.wake_ppm_range = -1.0, E::InvalidWakePpmRange),
        ];
        for (edit, expected) in cases {
            let mut config = ok.clone();
            edit(&mut config);
            assert_eq!(config.validate(), Err(expected));
        }
        let mut bad_app = ok;
        bad_app.app = AppBoard::Beacon {
            rest_s: 5.0,
            handled_s: 1.0,
            vigor_g: 1.5,
            period_s: 0,
        };
        assert_eq!(
            bad_app.validate(),
            Err(E::InvalidApp("app period_s must be at least 1 s"))
        );
        // Every entry point reports these messages, typed or in its panic.
        assert!(FleetConfigError::ZeroNodes
            .to_string()
            .contains("at least one node"));
        assert!(FleetConfigError::ZeroThreads
            .to_string()
            .contains("at least one thread"));
    }

    #[test]
    fn instrumented_run_streams_framed_events_and_totals() {
        let config = FleetConfig {
            nodes: 3,
            duration: SimDuration::from_secs(30),
            seed: 9,
            ..FleetConfig::default()
        };
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
        let config = FleetConfig {
            nodes: 2,
            duration: SimDuration::from_secs(30),
            seed: 9,
            ..FleetConfig::default()
        };
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
        let dense = run(&FleetConfig {
            nodes: 64,
            duration: SimDuration::from_secs(30),
            distance_range: (1.0, 1.01),
            seed: 7,
            ..FleetConfig::default()
        });
        // 64 nodes × 5 packets in 30 s at random phases: expect a few
        // overlaps in expectation (birthday-style).
        assert!(dense.offered >= 64 * 4);
        assert!(dense.delivery_ratio() > 0.5);
    }

    #[test]
    fn per_node_stats_cover_all_nodes_when_opted_in() {
        let out = run(&FleetConfig {
            nodes: 5,
            duration: SimDuration::from_secs(60),
            seed: 8,
            per_node_stats: true,
            ..FleetConfig::default()
        });
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
        let opted = run(&FleetConfig {
            nodes: 5,
            duration: SimDuration::from_secs(60),
            seed: 8,
            per_node_stats: true,
            ..FleetConfig::default()
        });
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
        let out = run(&FleetConfig {
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
            let serial = run(&FleetConfig {
                nodes: 12,
                duration: SimDuration::from_secs(30),
                seed,
                parallelism: Parallelism::Serial,
                per_node_stats: true,
                ..FleetConfig::default()
            });
            let threaded = run(&FleetConfig {
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
            run(&FleetConfig {
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
        // exists for — and every worker count must still match the serial
        // run and the per-node reference bit for bit, in outcome AND
        // telemetry.
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

        // The per-node reference — `simulate_node_instrumented` over every
        // index, then one merge — is the scheduler-free reference.
        let cfg = config(Parallelism::Serial);
        let mut nodes: Vec<NodeOnAir> = (0..cfg.nodes)
            .map(|i| simulate_node_instrumented(&cfg, i, false))
            .collect();
        let mut telemetry = TelemetryBuffer::new();
        for node in &mut nodes {
            telemetry.absorb(std::mem::take(&mut node.telemetry));
        }
        let reference_out = merge_fleet_impl(&cfg, nodes, &mut telemetry);
        assert_eq!(
            reference_out, serial_out,
            "per-node reference: outcome diverged"
        );
        assert_eq!(
            telemetry.metrics.to_json().to_string(),
            serial_json,
            "per-node reference: metric registries diverged"
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
            (AppBoard::Tpms, SimDuration::from_secs(30)),
            (
                AppBoard::Beacon {
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
        run(&FleetConfig {
            nodes: 0,
            ..FleetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        run(&FleetConfig {
            parallelism: Parallelism::Threads(0),
            ..FleetConfig::default()
        });
    }

    /// A record on a coarse grid: starts and ends in 10 µs steps, so
    /// equal starts across nodes and overlaps within one node are common,
    /// and receive levels in 5 dB steps, so whole-dB capture margins tie
    /// exactly.
    fn record(node: u32, start: u64, len: u64, level: u64, bits: u32) -> PacketRecord {
        PacketRecord {
            node,
            start: SimTime::from_micros(10 * start),
            end: SimTime::from_micros(10 * (start + len)),
            rx_dbm: Dbm::new(-50.0 - 5.0 * level as f64),
            bits,
            decode_ok: bits.is_multiple_of(2),
        }
    }

    /// Records as the fold leaves them: nodes ascending, each node's starts
    /// strictly increasing, every other field drawn freely.
    fn fold_ordered(raw: Vec<(u32, u64, u64, u64, u32)>) -> Vec<PacketRecord> {
        let mut node = 0;
        let mut last_start: Option<u64> = None;
        raw.into_iter()
            .map(|(next_node, gap, len, level, bits)| {
                if next_node == 1 {
                    node += 1;
                    last_start = None;
                }
                let start = last_start.map_or(gap, |prev| prev + 1 + gap % 8);
                last_start = Some(start);
                record(node, start, len, level, bits)
            })
            .collect()
    }

    proptest::proptest! {
        /// The merge's in-place sweep over records is `capture_sweep` over
        /// their slots, flag for flag.
        #[test]
        fn projected_sweep_matches_capture_sweep(
            raw in proptest::prop::collection::vec(
                (0u32..4, 0u64..40, 1u64..30, 0u64..8, 0u32..200),
                0..40,
            ),
            margin_db in 0u64..20,
        ) {
            let mut records: Vec<PacketRecord> = raw
                .into_iter()
                .map(|(node, start, len, level, bits)| record(node, start, len, level, bits))
                .collect();
            records.sort_by_key(|p| (p.start, p.node));
            let slots: Vec<AirSlot> = records.iter().map(PacketRecord::air).collect();
            let margin = Db::new(margin_db as f64);
            proptest::prop_assert_eq!(
                capture_sweep_by(&records, margin, PacketRecord::air),
                capture_sweep(&slots, margin)
            );
        }

        /// On fold-ordered records the `(start, node)` key is unique, so the
        /// merge's unstable sort puts every record where a stable sort does.
        #[test]
        fn unstable_sort_matches_stable_sort_on_fold_order(
            raw in proptest::prop::collection::vec(
                (0u32..3, 0u64..40, 1u64..30, 0u64..8, 0u32..200),
                0..60,
            ),
        ) {
            let records = fold_ordered(raw);
            let mut stable = records.clone();
            stable.sort_by_key(|p| (p.start, p.node));
            let mut unstable = records;
            unstable.sort_unstable_by_key(|p| (p.start, p.node));
            proptest::prop_assert_eq!(unstable, stable);
        }
    }

    #[test]
    fn projected_sweep_pins_a_tie_and_a_same_node_overlap() {
        // The properties above draw these shapes often; pin one of each.
        let records = [
            record(0, 0, 10, 0, 8), // -50 dBm
            record(1, 0, 10, 2, 8), // same start, another node, -60 dBm
            record(1, 5, 10, 4, 8), // overlaps its own node's frame
            record(2, 30, 10, 0, 8),
            record(3, 35, 10, 2, 8), // exactly 10 dB under node 2
        ];
        let flags = capture_sweep_by(&records, Db::new(10.0), PacketRecord::air);
        // Node 0 clears node 1's stronger frame by exactly the margin and
        // captures; node 1's own frames do not jam each other, but both
        // lose to node 0. Node 2 clears node 3 by exactly the margin.
        assert_eq!(flags, [false, true, true, false, true]);
    }
}
