//! Multi-hop mesh deployments: PicoCubes that hear each other.
//!
//! The two-phase fleet engine ([`crate::fleet`]) treats nodes as
//! transmit-only — packets meet only in the merge. This module gives the
//! fleet a *receive path*: every node carries the §7.3 wakeup receiver as
//! a real addressable detector ([`WakeupReceiver::detects`] gates on the
//! pairwise link budget), and a hop-count-limited flooding protocol
//! rebroadcasts detected frames toward the sink, one per-hop PA pulse and
//! its RF energy at a time.
//!
//! # Conservative time-windowed synchronization
//!
//! Receiving couples the node simulations, so the embarrassingly-parallel
//! two-phase split no longer applies. The mesh engine instead advances
//! all nodes in lockstep windows of length `W = turnaround` (the decode +
//! PA spin-up delay between hearing a frame and rebroadcasting it) and
//! exchanges packets only at window boundaries. The lookahead argument
//! that makes this exact, not approximate: a transmission collected after
//! window `k` ended at some `e > W_{k-1}`, so the earliest relay it can
//! trigger fires at `e + turnaround > W_{k-1} + W = W_k` — always in the
//! *next* window or later, never in a stack's simulated past. Every
//! cross-node interaction therefore happens in the single-threaded match
//! phase between windows, and the engine is bit-identical across
//! [`Parallelism::Serial`] and [`Parallelism::Threads`]: worker threads
//! own static contiguous node shards (stacks hold `Rc` state and cannot
//! migrate), two barriers bracket each match phase, and the match phase
//! itself always runs on one thread over node-indexed data.
//!
//! Randomness follows the fleet's stream discipline: node `i` keeps its
//! fleet streams `2i`/`2i + 1`, false wakes draw from the reserved
//! per-node streams [`FALSE_WAKE_STREAM_BASE`]` + i`, and the sink's
//! channel trials use [`SINK_STREAM`] — no draw ever depends on thread
//! scheduling.

use crate::fleet::{
    capture_sweep, derive_node_config, link_for_fleet, AirSlot, FleetApp, FleetConfigError,
    FleetOutcome, NodeCounts, Parallelism, RX_DBM_BOUNDS,
};
use crate::node::NodeConfig;
use crate::stack::Stack;
use crate::TransmittedPacket;
use picocube_radio::packet::{self, Checksum};
use picocube_radio::{SuperRegenReceiver, WakeupReceiver};
use picocube_sim::{SimDuration, SimRng, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics, NullRecorder, Recorder, TelemetryBuffer};
use picocube_units::{Db, Dbm, Meters, Seconds};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Reserved stream index for the sink's channel trials (the fleet merge
/// uses `u64::MAX`; both are unreachable from any per-node stream).
const SINK_STREAM: u64 = u64::MAX - 1;

/// Base of the reserved per-node false-wake streams: node `i` draws its
/// noise-triggered wake times from stream `FALSE_WAKE_STREAM_BASE + i`,
/// disjoint from the fleet's `2i`/`2i + 1` streams for any fleet that
/// fits in memory and from the engine streams at the top of the range.
const FALSE_WAKE_STREAM_BASE: u64 = 1 << 62;

/// Histogram bounds for delivered-copy hop counts (`mesh.delivered_hops`):
/// one bucket per hop count 0..=7.
const HOP_BOUNDS: [f64; 8] = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];

/// Mesh scenario parameters.
///
/// Geometry is a line: node `i` sits `sink_offset_m + i * spacing_m` from
/// the sink, so pairwise node distance is `|i - j| * spacing_m`. With the
/// default [`WakeupReceiver::mesh_correlator`] detector (−72 dBm) and the
/// demo-room channel, nodes hear only adjacent neighbors while the sink's
/// superregenerative receiver dies past ~20 m — distant nodes deliver
/// only over multiple hops.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Base per-node configuration (id/seed/phase are overridden per node).
    pub base: NodeConfig,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Distance from the sink to node 0, in meters.
    pub sink_offset_m: f64,
    /// Inter-node spacing along the line, in meters.
    pub spacing_m: f64,
    /// Capture threshold for overlapping transmissions, at relays and at
    /// the sink.
    pub capture_margin: Db,
    /// Master seed.
    pub seed: u64,
    /// Window execution mode. Serial and threaded runs of the same
    /// configuration produce bit-identical outcomes.
    pub parallelism: Parallelism,
    /// The wakeup detector every node listens with.
    pub detector: WakeupReceiver,
    /// Decode + PA spin-up delay between hearing a frame's end and
    /// rebroadcasting it. Also the synchronization window length (see the
    /// module docs), so it must be at least the detector's wake latency.
    pub turnaround: SimDuration,
    /// Maximum hop count a copy may reach (1 = first relay; originals are
    /// hop 0). Rebroadcast stops at this count.
    pub max_hops: u32,
    /// Application board every node carries (motion scenarios are seeded
    /// per node).
    pub app: FleetApp,
    /// Half-width of the per-node wake-timer tolerance draw, ppm (500
    /// reproduces the historical draw bit-identically).
    pub wake_ppm_range: f64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self {
            nodes: 12,
            base: NodeConfig::default(),
            duration: SimDuration::from_secs(120),
            sink_offset_m: 2.0,
            spacing_m: 2.0,
            capture_margin: Db::new(10.0),
            seed: 1,
            parallelism: Parallelism::Serial,
            detector: WakeupReceiver::mesh_correlator(),
            turnaround: SimDuration::from_millis(20),
            max_hops: 4,
            app: FleetApp::Tpms,
            wake_ppm_range: 500.0,
        }
    }
}

/// Why a mesh configuration (or its probe build) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshConfigError {
    /// The mesh had zero nodes.
    ZeroNodes,
    /// The simulated duration was zero.
    NonPositiveDuration,
    /// `Parallelism::Threads(0)` was requested.
    ZeroThreads,
    /// Spacing or sink offset was non-positive (or not finite).
    InvalidGeometry,
    /// The turnaround was zero or shorter than the detector's wake
    /// latency (the windowed-sync lookahead argument needs it).
    InvalidTurnaround,
    /// Zero hops would never relay anything.
    ZeroMaxHops,
    /// The application-board parameters were unphysical (the inner string
    /// names the violated invariant).
    InvalidApp(&'static str),
    /// The wake-timer tolerance half-width was negative or non-finite.
    InvalidWakePpmRange,
    /// The base node configuration failed its probe build.
    BaseConfig(String),
}

impl core::fmt::Display for MeshConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ZeroNodes => f.write_str("mesh needs at least one node"),
            Self::NonPositiveDuration => f.write_str("mesh duration must be positive"),
            Self::ZeroThreads => f.write_str("Parallelism::Threads needs at least one thread"),
            Self::InvalidGeometry => {
                f.write_str("mesh geometry needs positive spacing and sink offset")
            }
            Self::InvalidTurnaround => {
                f.write_str("turnaround must be positive and at least the detector latency")
            }
            Self::ZeroMaxHops => f.write_str("max_hops must be at least 1"),
            Self::InvalidApp(what) => f.write_str(what),
            Self::InvalidWakePpmRange => {
                f.write_str("wake timer tolerance half-width must be finite and non-negative")
            }
            Self::BaseConfig(why) => write!(f, "mesh base config does not build: {why}"),
        }
    }
}

impl std::error::Error for MeshConfigError {}

impl MeshConfig {
    /// Checks the invariants the windowed-sync engine relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), MeshConfigError> {
        if self.nodes == 0 {
            return Err(MeshConfigError::ZeroNodes);
        }
        if self.duration.is_zero() {
            return Err(MeshConfigError::NonPositiveDuration);
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err(MeshConfigError::ZeroThreads);
        }
        let positive_finite = |v: f64| v > 0.0 && v.is_finite();
        if !positive_finite(self.spacing_m) || !positive_finite(self.sink_offset_m) {
            return Err(MeshConfigError::InvalidGeometry);
        }
        let latency = SimDuration::from_seconds(self.detector.latency());
        if self.turnaround.is_zero() || self.turnaround < latency {
            return Err(MeshConfigError::InvalidTurnaround);
        }
        if self.max_hops == 0 {
            return Err(MeshConfigError::ZeroMaxHops);
        }
        if let Err(FleetConfigError::InvalidApp(what)) = self.app.validate() {
            return Err(MeshConfigError::InvalidApp(what));
        }
        if !(self.wake_ppm_range.is_finite() && self.wake_ppm_range >= 0.0) {
            return Err(MeshConfigError::InvalidWakePpmRange);
        }
        Ok(())
    }
}

/// Aggregated mesh results: the sink's per-transmission accounting plus
/// the relay fabric's own counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshOutcome {
    /// Per-transmission accounting at the sink (originals and relayed
    /// copies alike), in the fleet's vocabulary.
    pub sink: FleetOutcome,
    /// Distinct packets originated across the fleet.
    pub unique_offered: usize,
    /// Distinct packets with at least one copy decoded at the sink.
    pub unique_delivered: usize,
    /// Delivered copies by hop count (index = hops; 0 = the originator's
    /// own transmission reached the sink directly).
    pub delivered_by_hop: Vec<usize>,
    /// Rebroadcasts that made it onto the air.
    pub relays: usize,
    /// Rebroadcasts accepted by the match phase (`relays` plus copies
    /// dropped by brown-outs, faults or the end of the run).
    pub relays_injected: usize,
    /// Frames successfully detected and decoded at relay nodes.
    pub receptions: usize,
    /// Receptions suppressed as duplicates by the flooding dedup.
    pub duplicates: usize,
    /// Detections lost to overlapping transmissions at a relay.
    pub rx_collisions: usize,
    /// Noise-triggered wakes across the fleet (the detectors'
    /// `false_rate`).
    pub false_wakes: usize,
}

/// One transmission with its flooding provenance, as plain engine data.
#[derive(Debug, Clone)]
struct MeshTx {
    node: usize,
    start: SimTime,
    end: SimTime,
    bytes: Vec<u8>,
    /// Fleet index of the originating node.
    origin: u32,
    /// The originator's running packet number.
    seq: u32,
    /// Hop count of this copy (0 = transmitted by the originator).
    hops: u32,
}

/// A rebroadcast the match phase scheduled but has not yet observed on
/// the air (the node may still drop it to a brown-out or the run's end).
#[derive(Debug, Clone)]
struct PendingRelay {
    bytes: Vec<u8>,
    origin: u32,
    seq: u32,
    hops: u32,
}

/// Engine-side per-node state (the stacks themselves stay thread-pinned).
#[derive(Debug, Default)]
struct NodeState {
    /// Origination counter.
    seq: u32,
    /// Scheduled rebroadcasts not yet seen on the air.
    pending: Vec<PendingRelay>,
    /// Sorted flooding-dedup set of `(origin, seq)` keys this node has
    /// originated, heard, or relayed.
    seen: Vec<(u32, u32)>,
}

impl NodeState {
    /// Inserts `key` into the dedup set; `false` if it was already there.
    fn remember(&mut self, key: (u32, u32)) -> bool {
        match self.seen.binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.seen.insert(pos, key);
                true
            }
        }
    }
}

/// What one worker hands the match phase for one node and window, and
/// what the match phase hands back.
#[derive(Debug, Default)]
struct WindowSlot {
    alive: bool,
    faulted: bool,
    new_packets: Vec<TransmittedPacket>,
    injections: Vec<(SimTime, Vec<u8>)>,
    telemetry: Option<TelemetryBuffer>,
}

/// Everything the single-threaded match phase accumulates over the run.
struct EngineState {
    nodes: Vec<NodeState>,
    all_txs: Vec<MeshTx>,
    /// The previous window's transmissions: interference context for
    /// boundary-straddling overlaps in the next match phase.
    prev_txs: Vec<MeshTx>,
    telemetry: TelemetryBuffer,
    receptions: usize,
    duplicates: usize,
    rx_collisions: usize,
    relays_injected: usize,
    relays_on_air: usize,
}

/// The pairwise/sink link-budget tables, precomputed once.
struct Geometry {
    /// Receive level between nodes `d` apart, at index `d - 1`.
    neighbor_level: Vec<Dbm>,
    /// Receive level at the sink, per node index.
    sink_level: Vec<Dbm>,
}

impl Geometry {
    fn new(config: &MeshConfig) -> Self {
        let link = link_for_fleet();
        let neighbor_level = (1..config.nodes)
            .map(|d| {
                link.budget(Meters::new(d as f64 * config.spacing_m))
                    .received
            })
            .collect();
        let sink_level = (0..config.nodes)
            .map(|i| {
                link.budget(Meters::new(
                    config.sink_offset_m + i as f64 * config.spacing_m,
                ))
                .received
            })
            .collect();
        Self {
            neighbor_level,
            sink_level,
        }
    }

    /// Receive level at node `j` of node `i`'s transmission (`None` for
    /// `i == j`; a node hears itself through the half-duplex veto, not
    /// the link budget).
    fn between(&self, i: usize, j: usize) -> Option<Dbm> {
        let d = i.abs_diff(j);
        if d == 0 {
            return None;
        }
        self.neighbor_level.get(d - 1).copied()
    }
}

/// Builds and arms one mesh node: the configured application stack with
/// the mesh receive path fitted and event recording set.
fn build_mesh_node(
    config: &MeshConfig,
    index: usize,
    record_events: bool,
) -> Result<Stack, String> {
    let (node_config, _) =
        derive_node_config(&config.base, config.seed, config.wake_ppm_range, index);
    let mut stack =
        crate::fleet::build_fleet_node(node_config, config.app).map_err(|e| format!("{e:?}"))?;
    stack.set_event_recording(record_events);
    stack
        .fit_mesh_rx(config.detector)
        .map_err(|fault| format!("mesh rx fit: {fault}"))?;
    Ok(stack)
}

/// Precomputes node `index`'s noise-triggered wake times over the run
/// from its reserved false-wake stream.
fn false_wake_times(config: &MeshConfig, index: usize) -> Vec<SimTime> {
    let rate = config.detector.false_rate().value();
    if rate <= 0.0 {
        return Vec::new();
    }
    let mut rng = SimRng::stream(config.seed, FALSE_WAKE_STREAM_BASE + index as u64);
    let horizon = config.duration.as_seconds().value();
    let mut times = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(rate);
        if t >= horizon {
            break;
        }
        times.push(SimTime::from_seconds(Seconds::new(t)));
    }
    times
}

/// `Mutex` lock with poison recovery: a panicked worker already aborts
/// the run via `resume_unwind`, so a poisoned lock here only means this
/// thread is unwinding alongside it.
fn lock(slot: &Mutex<WindowSlot>) -> MutexGuard<'_, WindowSlot> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Provenance the collection pass attaches to one on-air packet.
struct Classified {
    origin: u32,
    seq: u32,
    hops: u32,
    was_relay: bool,
}

/// The single-threaded match phase for one window: classify the window's
/// transmissions, gate detection on the wakeup sensitivity, apply
/// collision/capture and half-duplex at each receiver, dedup, hop-limit,
/// and emit next-window injections into the slots.
fn match_window(
    config: &MeshConfig,
    geometry: &Geometry,
    state: &mut EngineState,
    slots: &[Mutex<WindowSlot>],
    prev_txs: &[MeshTx],
) -> Vec<MeshTx> {
    // Collect the window's transmissions with provenance, node-ordered.
    let mut window_txs: Vec<MeshTx> = Vec::new();
    for (index, slot) in slots.iter().enumerate() {
        let packets = std::mem::take(&mut lock(slot).new_packets);
        for packet in packets {
            let start = packet
                .time
                .checked_sub(SimDuration::from_seconds(packet.transmission.duration))
                .unwrap_or(SimTime::ZERO);
            let classified = state.nodes.get_mut(index).and_then(|node_state| {
                if packet.relayed {
                    // Match the copy back to the scheduled rebroadcast it
                    // executes; byte identity is the key (flooding relays
                    // frames verbatim).
                    node_state
                        .pending
                        .iter()
                        .position(|p| p.bytes == packet.bytes)
                        .map(|pos| {
                            let pending = node_state.pending.remove(pos);
                            Classified {
                                origin: pending.origin,
                                seq: pending.seq,
                                hops: pending.hops,
                                was_relay: true,
                            }
                        })
                } else {
                    let seq = node_state.seq;
                    node_state.seq += 1;
                    node_state.remember((index as u32, seq));
                    Some(Classified {
                        origin: index as u32,
                        seq,
                        hops: 0,
                        was_relay: false,
                    })
                }
            });
            let Some(classified) = classified else {
                debug_assert!(false, "relayed packet without a pending record");
                continue;
            };
            if classified.was_relay {
                state.relays_on_air += 1;
            }
            window_txs.push(MeshTx {
                node: index,
                start,
                end: packet.time,
                bytes: packet.bytes,
                origin: classified.origin,
                seq: classified.seq,
                hops: classified.hops,
            });
        }
    }

    // Per-receiver reception: interference context is this window plus
    // the previous one (transmissions are far shorter than a window, so
    // only boundary-straddlers can interfere across the boundary).
    let latency = SimDuration::from_seconds(config.detector.latency());
    for receiver in 0..config.nodes {
        let receiver_alive = slots.get(receiver).is_some_and(|slot| lock(slot).alive);
        if !receiver_alive {
            continue;
        }
        // Interference slots at this receiver, with back-pointers into
        // `window_txs` for the current window's entries.
        let mut heard: Vec<(AirSlot, Option<usize>)> = Vec::new();
        let context = prev_txs
            .iter()
            .map(|t| (None, t))
            .chain(window_txs.iter().enumerate().map(|(i, t)| (Some(i), t)));
        for (tx_index, tx) in context {
            if let Some(level) = geometry.between(tx.node, receiver) {
                heard.push((
                    AirSlot {
                        node: tx.node,
                        start: tx.start,
                        end: tx.end,
                        rx_dbm: level,
                    },
                    tx_index,
                ));
            }
        }
        heard.sort_by_key(|(slot, _)| (slot.start, slot.node));
        let air: Vec<AirSlot> = heard.iter().map(|(slot, _)| *slot).collect();
        let collided = capture_sweep(&air, config.capture_margin);
        // The receiver's own airtime, for the half-duplex veto.
        let own: Vec<(SimTime, SimTime)> = prev_txs
            .iter()
            .chain(window_txs.iter())
            .filter(|t| t.node == receiver)
            .map(|t| (t.start, t.end))
            .collect();

        for ((slot, tx_index), was_collided) in heard.iter().zip(&collided) {
            let Some(tx_index) = tx_index else {
                continue; // previous window: interference context only
            };
            let Some(tx) = window_txs.get(*tx_index) else {
                continue;
            };
            if !config.detector.detects(slot.rx_dbm) {
                continue;
            }
            if *was_collided {
                state.rx_collisions += 1;
                state.telemetry.metrics.inc(keys::MESH_RX_COLLIDED, 1);
                continue;
            }
            if own.iter().any(|&(s, e)| tx.start < e && s < tx.end) {
                // Half-duplex: the receiver was transmitting itself.
                state.telemetry.metrics.inc(keys::MESH_RX_HALF_DUPLEX, 1);
                continue;
            }
            state.receptions += 1;
            state.telemetry.metrics.inc(keys::MESH_RX_DETECTED, 1);
            let detect_at = tx.end + latency;
            if state.telemetry.events_enabled() {
                state.telemetry.record_for(
                    receiver as u32,
                    detect_at.as_nanos(),
                    EventKind::Rx {
                        from: tx.node as u32,
                        hops: tx.hops,
                        level_dbm: slot.rx_dbm.value(),
                    },
                );
            }
            let fresh = match state.nodes.get_mut(receiver) {
                Some(node_state) => node_state.remember((tx.origin, tx.seq)),
                None => continue,
            };
            if !fresh {
                state.duplicates += 1;
                state.telemetry.metrics.inc(keys::MESH_RX_DUPLICATES, 1);
                continue;
            }
            if tx.hops + 1 > config.max_hops {
                state.telemetry.metrics.inc(keys::MESH_RELAY_HOP_LIMITED, 1);
                continue;
            }
            let relay_at = tx.end + config.turnaround;
            if let Some(node_state) = state.nodes.get_mut(receiver) {
                node_state.pending.push(PendingRelay {
                    bytes: tx.bytes.clone(),
                    origin: tx.origin,
                    seq: tx.seq,
                    hops: tx.hops + 1,
                });
            }
            state.relays_injected += 1;
            state.telemetry.metrics.inc(keys::MESH_RELAY_INJECTED, 1);
            if state.telemetry.events_enabled() {
                state.telemetry.record_for(
                    receiver as u32,
                    relay_at.as_nanos(),
                    EventKind::Relay {
                        origin: tx.origin,
                        hops: tx.hops + 1,
                    },
                );
            }
            if let Some(slot) = slots.get(receiver) {
                lock(slot).injections.push((relay_at, tx.bytes.clone()));
            }
        }
    }
    state.all_txs.extend(window_txs.iter().cloned());
    window_txs
}

/// Runs the mesh scenario with the default (event-free) recorder.
///
/// # Errors
///
/// Returns [`MeshConfigError`] on a degenerate configuration or a base
/// config that fails its probe build.
pub fn run_mesh(config: &MeshConfig) -> Result<MeshOutcome, MeshConfigError> {
    run_mesh_with(config, &mut NullRecorder).map(|(outcome, _)| outcome)
}

/// Runs the mesh scenario, streaming telemetry into `recorder` and
/// returning the merged metric registry alongside the outcome.
///
/// The event stream is framed like the fleet's: `phase_start`/`phase_end`
/// for `"simulate"` (node events plus the engine's `rx`/`relay`/
/// `false_wake` events, canonically `(t_ns, node)`-interleaved), then for
/// `"sink"` (per-copy [`EventKind::PacketFate`] in `(start, node)`
/// order). Stream and metrics are bit-identical across [`Parallelism`]
/// modes.
///
/// # Errors
///
/// Returns [`MeshConfigError`] on a degenerate configuration or a base
/// config that fails its probe build.
pub fn run_mesh_with(
    config: &MeshConfig,
    recorder: &mut dyn Recorder,
) -> Result<(MeshOutcome, Metrics), MeshConfigError> {
    config.validate()?;
    let record_events = recorder.wants_events();
    // Probe-build node 0 before any worker threads exist, so an invalid
    // base fails here with a typed error instead of inside a shard.
    build_mesh_node(config, 0, record_events).map_err(MeshConfigError::BaseConfig)?;

    let duration_ns = config.duration.as_nanos();
    let mut engine = TelemetryBuffer::with_events(record_events);
    engine.record(
        0,
        EventKind::PhaseStart {
            phase: "simulate".into(),
        },
    );

    let mut state = EngineState {
        nodes: (0..config.nodes).map(|_| NodeState::default()).collect(),
        all_txs: Vec::new(),
        prev_txs: Vec::new(),
        telemetry: TelemetryBuffer::with_events(record_events),
        receptions: 0,
        duplicates: 0,
        rx_collisions: 0,
        relays_injected: 0,
        relays_on_air: 0,
    };

    // Noise-triggered wakes, from each node's reserved stream: real
    // detectors pay their `false_rate` whether or not a frame is on the
    // air. Surfaced as counted (and recorded) events.
    let mut false_wakes = 0usize;
    for index in 0..config.nodes {
        for at in false_wake_times(config, index) {
            false_wakes += 1;
            state.telemetry.metrics.inc(keys::MESH_FALSE_WAKES, 1);
            if record_events {
                state
                    .telemetry
                    .record_for(index as u32, at.as_nanos(), EventKind::FalseWake);
            }
        }
    }

    let (faulted, node_buffers) = run_windows(config, record_events, &mut state);

    // Deterministic merge: node buffers in node order, then the engine's
    // own rx/relay events, then canonicalize the interleaving.
    let mut shards = TelemetryBuffer::with_events(record_events);
    for buffer in node_buffers {
        shards.absorb(buffer);
    }
    let engine_events = std::mem::take(&mut state.telemetry);
    shards.absorb(engine_events);
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
            phase: "sink".into(),
        },
    );
    let outcome = sink_phase(config, &mut state, faulted, false_wakes, &mut engine);
    engine.record(
        duration_ns,
        EventKind::PhaseEnd {
            phase: "sink".into(),
        },
    );

    engine.drain_events_into(recorder);
    Ok((outcome, engine.metrics))
}

/// The window loop: static node shards on `workers` threads, two barriers
/// per window around the single-threaded match phase on worker 0.
///
/// Returns the faulted-node count and each node's drained telemetry, in
/// node order.
fn run_windows(
    config: &MeshConfig,
    record_events: bool,
    state: &mut EngineState,
) -> (usize, Vec<TelemetryBuffer>) {
    let workers = config.parallelism.workers().min(config.nodes).max(1);
    let geometry = Geometry::new(config);
    let slots: Vec<Mutex<WindowSlot>> = (0..config.nodes)
        .map(|_| Mutex::new(WindowSlot::default()))
        .collect();
    let barrier = Barrier::new(workers);

    // Window schedule: equal `turnaround` steps with a short tail.
    let mut steps: Vec<SimDuration> = Vec::new();
    let mut remaining = config.duration;
    while !remaining.is_zero() {
        let step = remaining.min(config.turnaround);
        steps.push(step);
        remaining = remaining - step;
    }

    // Contiguous static shards: `nodes = k * workers + extra` gives the
    // first `extra` workers one node more. (Fleet phase 1 work-steals,
    // but mesh stacks persist across windows and hold `Rc` state, so
    // they stay pinned to the thread that builds them.)
    let per = config.nodes / workers;
    let extra = config.nodes % workers;
    let mut bounds = Vec::with_capacity(workers + 1);
    let mut lo = 0usize;
    bounds.push(lo);
    for t in 0..workers {
        lo += per + usize::from(t < extra);
        bounds.push(lo);
    }

    let state_cell = Mutex::new(state);
    let steps = &steps;
    let slots_ref = &slots;
    let barrier = &barrier;
    let geometry = &geometry;
    let state_cell = &state_cell;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .enumerate()
            .map(|(worker, range)| {
                let (lo, hi) = match *range {
                    [lo, hi] => (lo, hi),
                    _ => (0, 0),
                };
                scope.spawn(move || {
                    // Build this shard's stacks locally: they never leave
                    // this thread. A node whose build fails (cannot
                    // happen after the probe build, but stay total)
                    // counts as faulted from the start.
                    let mut stacks: Vec<Option<Stack>> = (lo..hi)
                        .map(|i| build_mesh_node(config, i, record_events).ok())
                        .collect();
                    for step in steps {
                        // Phase A: advance own nodes one window.
                        for (offset, stack) in stacks.iter_mut().enumerate() {
                            let Some(slot) = slots_ref.get(lo + offset) else {
                                continue;
                            };
                            let mut slot = lock(slot);
                            match stack {
                                Some(node) => {
                                    let before = node.packet_count();
                                    let completed = node.run_for(*step).is_completed();
                                    slot.alive = completed;
                                    slot.faulted |= !completed;
                                    slot.new_packets = node.packets_since(before);
                                }
                                None => {
                                    slot.alive = false;
                                    slot.faulted = true;
                                }
                            }
                        }
                        barrier.wait();
                        // Phase B: worker 0 matches the window while the
                        // others pause at the second barrier.
                        if worker == 0 {
                            let mut engine = lock_state(state_cell);
                            let prev = std::mem::take(&mut engine.prev_txs);
                            let window =
                                match_window(config, geometry, &mut engine, slots_ref, &prev);
                            engine.prev_txs = window;
                        }
                        barrier.wait();
                        // Phase C: owners apply the injections to their
                        // own stacks (worker 0 cannot: stacks are !Send).
                        for (offset, stack) in stacks.iter_mut().enumerate() {
                            let Some(slot) = slots_ref.get(lo + offset) else {
                                continue;
                            };
                            let injections = std::mem::take(&mut lock(slot).injections);
                            if let Some(node) = stack {
                                for (at, bytes) in injections {
                                    node.inject_relay(at, bytes);
                                }
                            }
                        }
                    }
                    // Drain telemetry; reassembled in node order below.
                    for (offset, stack) in stacks.iter_mut().enumerate() {
                        let Some(slot) = slots_ref.get(lo + offset) else {
                            continue;
                        };
                        if let Some(node) = stack {
                            let mut telemetry = node.drain_telemetry();
                            telemetry.attribute_to((lo + offset) as u32);
                            lock(slot).telemetry = Some(telemetry);
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut faulted = 0usize;
    let mut buffers = Vec::with_capacity(config.nodes);
    for slot in &slots {
        let mut slot = lock(slot);
        faulted += usize::from(slot.faulted);
        buffers.push(slot.telemetry.take().unwrap_or_default());
    }
    (faulted, buffers)
}

/// Locks the engine-state cell. Worker 0 is its only contender (the
/// barriers exclude everyone else during the match phase); the mutex
/// exists to move the `&mut` into the scope soundly.
fn lock_state<'a, 'b>(cell: &'a Mutex<&'b mut EngineState>) -> MutexGuard<'a, &'b mut EngineState> {
    match cell.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The sink phase: every transmission (originals and relayed copies)
/// faces the sink's collision/capture sweep and channel trials, exactly
/// like the fleet merge but with line-geometry receive levels and the
/// reserved [`SINK_STREAM`].
fn sink_phase(
    config: &MeshConfig,
    state: &mut EngineState,
    faulted: usize,
    false_wakes: usize,
    engine: &mut TelemetryBuffer,
) -> MeshOutcome {
    let geometry = Geometry::new(config);
    let mut txs = std::mem::take(&mut state.all_txs);
    txs.sort_by_key(|t| (t.start, t.node));
    let slots: Vec<AirSlot> = txs
        .iter()
        .map(|t| AirSlot {
            node: t.node,
            start: t.start,
            end: t.end,
            rx_dbm: geometry
                .sink_level
                .get(t.node)
                .copied()
                .unwrap_or(Dbm::new(-200.0)),
        })
        .collect();
    let collided_flags = capture_sweep(&slots, config.capture_margin);

    let receiver = SuperRegenReceiver::bwrc_issc05();
    let mut rng = SimRng::stream(config.seed, SINK_STREAM);
    let mut delivered = 0usize;
    let mut collided = 0usize;
    let mut channel_losses = 0usize;
    let mut per_node = vec![NodeCounts::default(); config.nodes];
    let mut delivered_by_hop = vec![0usize; config.max_hops as usize + 1];
    let mut delivered_keys: Vec<(u32, u32)> = Vec::new();

    engine
        .metrics
        .register_histogram(keys::MESH_SINK_RX_DBM, &RX_DBM_BOUNDS);
    engine
        .metrics
        .register_histogram(keys::MESH_DELIVERED_HOPS, &HOP_BOUNDS);

    for ((tx, slot), was_collided) in txs.iter().zip(&slots).zip(&collided_flags) {
        if let Some(counts) = per_node.get_mut(tx.node) {
            counts.offered += 1;
        }
        engine
            .metrics
            .observe(keys::MESH_SINK_RX_DBM, slot.rx_dbm.value());
        let fate = if *was_collided {
            collided += 1;
            "collided"
        } else {
            let ber = receiver.ber(slot.rx_dbm);
            let bits = tx.bytes.len() * 8;
            // Consume one Bernoulli per bit unconditionally so the trial
            // count (and thus the stream position) is data-independent.
            let flips = (0..bits).filter(|_| rng.bernoulli(ber)).count();
            if flips == 0 && packet::decode(&tx.bytes, Checksum::Xor).is_ok() {
                delivered += 1;
                if let Some(counts) = per_node.get_mut(tx.node) {
                    counts.delivered += 1;
                }
                if let Some(bucket) = delivered_by_hop.get_mut(tx.hops as usize) {
                    *bucket += 1;
                }
                engine
                    .metrics
                    .observe(keys::MESH_DELIVERED_HOPS, f64::from(tx.hops));
                let key = (tx.origin, tx.seq);
                if let Err(pos) = delivered_keys.binary_search(&key) {
                    delivered_keys.insert(pos, key);
                }
                "delivered"
            } else {
                channel_losses += 1;
                "channel_loss"
            }
        };
        if engine.events_enabled() {
            engine.record_for(
                tx.node as u32,
                tx.end.as_nanos(),
                EventKind::PacketFate { fate },
            );
        }
    }

    let elapsed = config.duration.as_seconds().value();
    let airtime: f64 = txs
        .iter()
        .map(|t| t.end.duration_since(t.start).as_seconds().value())
        .sum();
    let offered_load = if elapsed > 0.0 {
        airtime / elapsed
    } else {
        0.0
    };

    let unique_offered: usize = state.nodes.iter().map(|n| n.seq as usize).sum();
    let dropped: usize = state.nodes.iter().map(|n| n.pending.len()).sum();
    engine.metrics.inc(keys::MESH_OFFERED, txs.len() as u64);
    engine.metrics.inc(keys::MESH_COLLIDED, collided as u64);
    engine
        .metrics
        .inc(keys::MESH_CHANNEL_LOSSES, channel_losses as u64);
    engine.metrics.inc(keys::MESH_DELIVERED, delivered as u64);
    engine
        .metrics
        .inc(keys::MESH_UNIQUE_OFFERED, unique_offered as u64);
    engine
        .metrics
        .inc(keys::MESH_UNIQUE_DELIVERED, delivered_keys.len() as u64);
    engine
        .metrics
        .inc(keys::MESH_RELAY_ON_AIR, state.relays_on_air as u64);
    engine.metrics.inc(keys::MESH_RELAY_DROPPED, dropped as u64);
    engine.metrics.inc(keys::MESH_FAULTED_NODES, faulted as u64);
    engine.metrics.add(keys::MESH_OFFERED_LOAD, offered_load);

    MeshOutcome {
        sink: FleetOutcome {
            offered: txs.len(),
            collided,
            channel_losses,
            delivered,
            faulted,
            per_node_delivery: per_node.iter().map(NodeCounts::delivery_ratio).collect(),
            offered_load,
        },
        unique_offered,
        unique_delivered: delivered_keys.len(),
        delivered_by_hop,
        relays: state.relays_on_air,
        relays_injected: state.relays_injected,
        receptions: state.receptions,
        duplicates: state.duplicates,
        rx_collisions: state.rx_collisions,
        false_wakes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(nodes: usize) -> MeshConfig {
        MeshConfig {
            nodes,
            duration: SimDuration::from_secs(30),
            ..MeshConfig::default()
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = tiny_config(3);
        assert_eq!(ok.validate(), Ok(()));
        let mut bad = ok.clone();
        bad.nodes = 0;
        assert_eq!(bad.validate(), Err(MeshConfigError::ZeroNodes));
        let mut bad = ok.clone();
        bad.duration = SimDuration::ZERO;
        assert_eq!(bad.validate(), Err(MeshConfigError::NonPositiveDuration));
        let mut bad = ok.clone();
        bad.parallelism = Parallelism::Threads(0);
        assert_eq!(bad.validate(), Err(MeshConfigError::ZeroThreads));
        let mut bad = ok.clone();
        bad.spacing_m = 0.0;
        assert_eq!(bad.validate(), Err(MeshConfigError::InvalidGeometry));
        let mut bad = ok.clone();
        bad.turnaround = SimDuration::from_micros(100); // < 300 µs latency
        assert_eq!(bad.validate(), Err(MeshConfigError::InvalidTurnaround));
        let mut bad = ok;
        bad.max_hops = 0;
        assert_eq!(bad.validate(), Err(MeshConfigError::ZeroMaxHops));
    }

    #[test]
    fn single_node_mesh_degenerates_to_direct_delivery() {
        let outcome = run_mesh(&tiny_config(1)).expect("mesh runs");
        // Nobody to relay: everything on the air is an original.
        assert_eq!(outcome.relays, 0);
        assert_eq!(outcome.receptions, 0);
        assert_eq!(outcome.sink.offered, outcome.unique_offered);
        assert!(outcome.sink.offered > 0, "node never transmitted");
        // 2 m from the sink: deliveries should dominate.
        assert!(outcome.sink.delivered > 0);
    }

    #[test]
    fn adjacent_nodes_relay_for_each_other() {
        let outcome = run_mesh(&tiny_config(4)).expect("mesh runs");
        assert!(
            outcome.receptions > 0,
            "adjacent nodes at 2 m should detect each other"
        );
        assert!(outcome.relays > 0, "detections should trigger rebroadcasts");
        assert!(
            outcome.sink.offered > outcome.unique_offered,
            "relayed copies should add to the offered count"
        );
        // Conservation: every rebroadcast on the air was first injected.
        assert!(outcome.relays <= outcome.relays_injected);
        // Dedup keeps flooding finite: each node relays a packet at most
        // once, so copies per unique packet are bounded by the fleet size.
        assert!(outcome.sink.offered <= outcome.unique_offered * (4 + 1));
    }

    #[test]
    fn hop_limit_caps_flooding_depth() {
        let mut config = tiny_config(5);
        config.max_hops = 1;
        let outcome = run_mesh(&config).expect("mesh runs");
        for (hops, &count) in outcome.delivered_by_hop.iter().enumerate() {
            if hops > 1 {
                assert_eq!(count, 0, "a copy travelled {hops} hops past the limit");
            }
        }
    }

    #[test]
    fn serial_and_threaded_runs_are_bit_identical() {
        let serial = run_mesh(&tiny_config(5)).expect("serial mesh runs");
        for workers in [2usize, 3, 5, 8] {
            let mut config = tiny_config(5);
            config.parallelism = Parallelism::Threads(workers);
            let threaded = run_mesh(&config).expect("threaded mesh runs");
            assert_eq!(serial, threaded, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn distant_fleet_needs_multiple_hops() {
        // Stretch the line so far nodes are out of the sink's direct
        // reach: their packets arrive only as relayed copies.
        let mut config = tiny_config(8);
        config.spacing_m = 2.5;
        config.duration = SimDuration::from_secs(60);
        let outcome = run_mesh(&config).expect("mesh runs");
        let multi_hop: usize = outcome.delivered_by_hop.iter().skip(1).sum();
        assert!(
            multi_hop > 0,
            "no multi-hop deliveries: {:?}",
            outcome.delivered_by_hop
        );
    }
}
