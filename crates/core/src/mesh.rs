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
//! cross-node interaction therefore happens in the match phase between
//! windows.
//!
//! The engine runs on the calling thread. It owns every node's stack in
//! a window slot, advances the slots in node order, and runs the match
//! phase over node-indexed data. [`MeshConfig::parallelism`] is validated
//! but does not change how a mesh runs.
//!
//! # Quiet stretches
//!
//! Most windows have nothing on the air: a TPMS node wakes for about
//! 14 ms every 6 s. After each match phase the engine asks every node
//! when it could next put a frame on the air (`Stack::quiet_until`) and
//! runs, without a match phase in between, every window that ends at or
//! before the earliest such time on each node's own clock, plus the
//! first one that does not. A match phase over a window with no new transmissions
//! changes nothing, so the stretch's one match phase leaves the engine
//! exactly where one per window would. Every node still settles and
//! re-solves its rails at every window end. A node that browns out and
//! recovers inside a stretch may transmit before it ends; the match
//! phase sees that exactly (a packet put on the air before the matched
//! window), abandons the run and replays it one window at a time.
//!
//! Randomness follows the fleet's stream discipline: node `i` keeps its
//! fleet streams `2i`/`2i + 1`, false wakes draw from the reserved
//! per-node streams [`FALSE_WAKE_STREAM_BASE`]` + i`, and the sink's
//! channel trials use [`SINK_STREAM`] — no draw depends on the order the
//! nodes are advanced in.

use crate::fleet::{
    capture_sweep, demo_link, derive_node_config, frame_run, per_node_delivery, AirSlot,
    FleetOutcome, Parallelism, RX_DBM_BOUNDS, STOCK_WAKE_PPM,
};
use crate::node::{BuildError, NodeConfig};
use crate::stack::{AppBoard, Stack};
use picocube_radio::packet::{self, Checksum};
use picocube_radio::{SuperRegenReceiver, WakeupReceiver};
use picocube_sim::{SimDuration, SimRng, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics, Recorder, TelemetryBuffer};
use picocube_units::{Db, Dbm, Meters, Seconds};

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

/// The largest accepted [`MeshConfig::max_hops`]: the range of a one-byte
/// TTL. The sink keeps one delivered-copy bucket per hop count.
const MAX_HOPS: u32 = 255;

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
    /// Accepted for symmetry with [`FleetConfig`](crate::fleet::FleetConfig)
    /// and validated (`Threads(0)` is [`MeshConfigError::ZeroThreads`]),
    /// but it does not change how a mesh runs: the window loop always runs
    /// on the calling thread, so every mode gives the same result.
    pub parallelism: Parallelism,
    /// The wakeup detector every node listens with.
    pub detector: WakeupReceiver,
    /// Decode + PA spin-up delay between hearing a frame's end and
    /// rebroadcasting it. Also the synchronization window length (see the
    /// module docs), so it must be at least the detector's wake latency.
    pub turnaround: SimDuration,
    /// Maximum hop count a copy may reach (1 = first relay; originals are
    /// hop 0). Rebroadcast stops at this count. At most 255, the range of
    /// a one-byte TTL.
    pub max_hops: u32,
    /// Application board every node carries (motion scenarios are seeded
    /// per node).
    pub app: AppBoard,
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
            app: AppBoard::Tpms,
            wake_ppm_range: STOCK_WAKE_PPM,
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
    /// `max_hops` was zero (which would never relay anything) or above
    /// 255 (the range of a one-byte TTL).
    InvalidMaxHops,
    /// The application-board parameters were unphysical (the inner string
    /// names the violated invariant).
    InvalidApp(&'static str),
    /// The wake-timer tolerance half-width was negative or non-finite.
    InvalidWakePpmRange,
    /// The base node configuration failed its probe build (a failed
    /// mesh receive-path fit reports as [`BuildError::PowerChain`]).
    BaseConfig(BuildError),
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
            Self::InvalidMaxHops => f.write_str("max_hops must be in [1, 255]"),
            Self::InvalidApp(what) => f.write_str(what),
            Self::InvalidWakePpmRange => {
                f.write_str("wake timer tolerance half-width must be finite and non-negative")
            }
            Self::BaseConfig(e) => write!(f, "mesh base config does not build: {e}"),
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
        if !(1..=MAX_HOPS).contains(&self.max_hops) {
            return Err(MeshConfigError::InvalidMaxHops);
        }
        self.app.validate().map_err(MeshConfigError::InvalidApp)?;
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

/// Engine-side per-node state, beside the stack in its [`WindowSlot`].
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

/// When a node could next put a frame on the air, or `None` if it never
/// will again: the engine's quiet horizon. Production passes
/// [`Stack::quiet_until`]; [`lockstep`] is the horizon that never batches.
type Horizon = fn(&Stack) -> Option<SimTime>;

/// The horizon of a node that may transmit at once: every stretch is one
/// window, as before quiet stretches, and no packet can come early.
fn lockstep(stack: &Stack) -> Option<SimTime> {
    Some(stack.now())
}

/// One node's stack, and how far the match phase has read its packets.
#[derive(Debug)]
struct WindowSlot {
    stack: Stack,
    /// Packets of the stack the match phase has already collected; the
    /// next window's new packets start here.
    collected: usize,
    /// The stack's packet count when it began the stretch's last window.
    /// The match phase collects only that window, so it must equal
    /// `collected`.
    window_from: usize,
}

/// Everything the match phase accumulates over the run.
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
    false_wakes: usize,
}

/// The pairwise/sink link-budget tables, precomputed once.
struct Geometry {
    /// Receive level between nodes `d` apart, at index `d - 1`.
    neighbor_level: Vec<Dbm>,
    /// Whether the wakeup detector hears a node `d` away, at index `d - 1`.
    audible: Vec<bool>,
    /// Receive level at the sink, per node index.
    sink_level: Vec<Dbm>,
}

impl Geometry {
    fn new(config: &MeshConfig) -> Self {
        let link = demo_link();
        let neighbor_level: Vec<Dbm> = (1..config.nodes)
            .map(|d| {
                link.budget(Meters::new(d as f64 * config.spacing_m))
                    .received
            })
            .collect();
        let audible = neighbor_level
            .iter()
            .map(|&level| config.detector.detects(level))
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
            audible,
            sink_level,
        }
    }

    /// Whether node `j`'s wakeup detector hears node `i` (never itself).
    fn hears(&self, i: usize, j: usize) -> bool {
        let d = i.abs_diff(j);
        d != 0 && self.audible.get(d - 1) == Some(&true)
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
) -> Result<Stack, BuildError> {
    let (node_config, _) =
        derive_node_config(&config.base, config.seed, config.wake_ppm_range, index);
    let mut stack = Stack::without_traces(node_config, config.app)?;
    stack.set_event_recording(record_events);
    stack
        .fit_mesh_rx(config.detector)
        .map_err(BuildError::PowerChain)?;
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

/// How many windows after the present one end, on `stack`'s own clock,
/// before `horizon` says it could next put a frame on the air
/// (`usize::MAX` for a node that never will). A node that sleeps through
/// a window advances its clock by the window rounded up to whole
/// microseconds (`quiet_step_ns`): the core sleeps in 1 µs cycles.
fn quiet_windows(stack: &Stack, horizon: Horizon, quiet_step_ns: u64) -> usize {
    match horizon(stack) {
        None => usize::MAX,
        Some(at) => {
            let lead = at.as_nanos().saturating_sub(stack.now().as_nanos());
            usize::try_from(lead / quiet_step_ns).unwrap_or(usize::MAX)
        }
    }
}

/// Advances one node through a stretch of windows, noting its packet
/// count before the last one. A fault latches in the stack, where the
/// match phase and the run's tally read it ([`Stack::fault`]).
fn advance_stretch(slot: &mut WindowSlot, stretch: &[SimDuration]) {
    let Some((last, before)) = stretch.split_last() else {
        return;
    };
    for step in before {
        slot.stack.run_for(*step);
    }
    slot.window_from = slot.stack.packet_count();
    slot.stack.run_for(*last);
}

/// Provenance the collection pass attaches to one on-air packet.
struct Classified {
    origin: u32,
    seq: u32,
    hops: u32,
    was_relay: bool,
}

/// The match phase for the last window of a stretch: classify the
/// window's transmissions, gate detection on the wakeup sensitivity,
/// apply collision/capture and half-duplex at each live receiver that can
/// hear one of them, dedup, hop-limit, and inject next-window relays into
/// the receivers' stacks. `prev_txs` is the interference context: the
/// window before's transmissions, empty after a longer stretch. The
/// window's transmissions become the next one's context.
///
/// Returns how many windows after this one end before any node could next
/// put a frame on the air, or `None`, with the engine state left partly
/// matched, when a node put a packet on the air before the matched window.
fn match_window(
    config: &MeshConfig,
    geometry: &Geometry,
    state: &mut EngineState,
    slots: &mut [WindowSlot],
    prev_txs: Vec<MeshTx>,
    horizon: Horizon,
    quiet_step_ns: u64,
) -> Option<usize> {
    // Collect the window's transmissions with provenance, node-ordered,
    // reading each stack's new packets in place, and each node's quiet
    // span in the same pass.
    let mut window_txs: Vec<MeshTx> = Vec::new();
    let mut quiet = usize::MAX;
    for (index, slot) in slots.iter_mut().enumerate() {
        if slot.window_from != slot.collected {
            return None;
        }
        quiet = quiet.min(quiet_windows(&slot.stack, horizon, quiet_step_ns));
        let packets = slot.stack.packets();
        for packet in packets.get(slot.collected..).unwrap_or_default() {
            let start = packet.start();
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
                bytes: packet.bytes.clone(),
                origin: classified.origin,
                seq: classified.seq,
                hops: classified.hops,
            });
        }
        slot.collected = packets.len();
    }

    // Per-receiver reception: interference context is the previous window
    // then this one (transmissions are far shorter than a window, so only
    // boundary-straddlers can interfere across the boundary). With nothing
    // on the air there is nothing to hear.
    if window_txs.is_empty() {
        state.prev_txs = window_txs;
        return Some(quiet);
    }
    // The context, stably sorted once by `(start, node)` and flagged with
    // whether each entry is this window's. A receiver's filtered view of it
    // is in the order a stable sort of that view would give.
    let mut context: Vec<(&MeshTx, bool)> = prev_txs
        .iter()
        .map(|t| (t, false))
        .chain(window_txs.iter().map(|t| (t, true)))
        .collect();
    context.sort_by_key(|(tx, _)| (tx.start, tx.node));
    let latency = SimDuration::from_seconds(config.detector.latency());
    // Reused per receiver: interference slots with this window's entries,
    // their `AirSlot`s, and the receiver's own airtime.
    let mut heard: Vec<(AirSlot, Option<&MeshTx>)> = Vec::new();
    let mut air: Vec<AirSlot> = Vec::new();
    let mut own: Vec<(SimTime, SimTime)> = Vec::new();
    for (receiver, listener) in slots.iter_mut().enumerate() {
        // A receiver that can detect none of this window's transmissions
        // changes nothing: every entry below would skip at the
        // sensitivity gate.
        if listener.stack.fault().is_some()
            || !window_txs
                .iter()
                .any(|tx| geometry.hears(tx.node, receiver))
        {
            continue;
        }
        heard.clear();
        own.clear();
        for &(tx, current) in &context {
            if tx.node == receiver {
                // The receiver's own airtime, for the half-duplex veto.
                own.push((tx.start, tx.end));
            } else if let Some(level) = geometry.between(tx.node, receiver) {
                let slot = AirSlot {
                    node: tx.node,
                    start: tx.start,
                    end: tx.end,
                    rx_dbm: level,
                };
                heard.push((slot, current.then_some(tx)));
            }
        }
        air.clear();
        air.extend(heard.iter().map(|(slot, _)| *slot));
        let collided = capture_sweep(&air, config.capture_margin);

        for ((slot, tx), was_collided) in heard.iter().zip(&collided) {
            let Some(tx) = tx else {
                continue; // previous window: interference context only
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
            // Saturating: a turnaround near the clock's range lands past
            // any run's end instead of wrapping into the past.
            let relay_at = tx.end.saturating_add(config.turnaround);
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
            listener.stack.inject_relay(relay_at, tx.bytes.clone());
            // The queued relay is a board event: the receiver's quiet span
            // can only shrink.
            quiet = quiet.min(quiet_windows(&listener.stack, horizon, quiet_step_ns));
        }
    }
    state.all_txs.extend(window_txs.iter().cloned());
    state.prev_txs = window_txs;
    Some(quiet)
}

/// What one run of the window loop did.
struct WindowRun {
    /// Nodes that faulted.
    faulted: usize,
    /// Every node's drained telemetry, absorbed in node order.
    telemetry: TelemetryBuffer,
    /// Match phases run: one per stretch.
    match_phases: usize,
    /// Whether the run was abandoned because a node put a packet on the
    /// air before its stretch's last window.
    early: bool,
}

/// Runs the mesh scenario, streaming telemetry into `recorder` and
/// returning the merged metric registry alongside the outcome.
///
/// The event stream is framed like the fleet's: `phase_start`/`phase_end`
/// for `"simulate"` (node events plus the engine's `rx`/`relay`/
/// `false_wake` events, canonically `(t_ns, node)`-interleaved), then for
/// `"sink"` (per-copy [`EventKind::PacketFate`] in `(start, node)`
/// order). Stream and metrics are the same for every [`Parallelism`].
///
/// # Errors
///
/// Returns [`MeshConfigError`] on a degenerate configuration or a base
/// config whose nodes fail to build.
pub fn run_mesh_with(
    config: &MeshConfig,
    recorder: &mut dyn Recorder,
) -> Result<(MeshOutcome, Metrics), MeshConfigError> {
    run_mesh_at(config, recorder, Stack::quiet_until)
        .map(|(outcome, metrics, _)| (outcome, metrics))
}

/// How a mesh run went through its windows: the match phases it ran, and
/// whether it was replayed one window at a time after its stretches let
/// a packet on the air early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MeshStats {
    match_phases: usize,
    replayed: bool,
}

/// [`run_mesh_with`] under the quiet horizon `horizon`.
fn run_mesh_at(
    config: &MeshConfig,
    recorder: &mut dyn Recorder,
    horizon: Horizon,
) -> Result<(MeshOutcome, Metrics, MeshStats), MeshConfigError> {
    config.validate()?;
    let record_events = recorder.wants_events();
    let (mut state, mut run) = simulate(config, record_events, horizon)?;
    let replayed = run.early;
    if replayed {
        (state, run) = simulate(config, record_events, lockstep)?;
    }
    let stats = MeshStats {
        match_phases: run.match_phases,
        replayed,
    };

    // Node buffers in node order, then the engine's own rx/relay events.
    let mut simulated = run.telemetry;
    simulated.absorb(std::mem::take(&mut state.telemetry));
    let (outcome, metrics) = frame_run(simulated, config.duration, "sink", recorder, |engine| {
        sink_phase(config, &mut state, run.faulted, engine)
    });
    Ok((outcome, metrics, stats))
}

/// Simulates the mesh's nodes under `horizon`: builds every node (node
/// 0's build is the probe, so an invalid base fails there with its typed
/// error), sets up the engine state with its noise-triggered wakes, then
/// runs the window loop.
fn simulate(
    config: &MeshConfig,
    record_events: bool,
    horizon: Horizon,
) -> Result<(EngineState, WindowRun), MeshConfigError> {
    let slots = (0..config.nodes)
        .map(|index| {
            build_mesh_node(config, index, record_events).map(|stack| WindowSlot {
                stack,
                collected: 0,
                window_from: 0,
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(MeshConfigError::BaseConfig)?;
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
        false_wakes: 0,
    };

    // Noise-triggered wakes, from each node's reserved stream: real
    // detectors pay their `false_rate` whether or not a frame is on the
    // air. Surfaced as counted (and recorded) events.
    for index in 0..config.nodes {
        for at in false_wake_times(config, index) {
            state.false_wakes += 1;
            state.telemetry.metrics.inc(keys::MESH_FALSE_WAKES, 1);
            if record_events {
                state
                    .telemetry
                    .record_for(index as u32, at.as_nanos(), EventKind::FalseWake);
            }
        }
    }

    let run = run_windows(config, slots, &mut state, horizon, record_events);
    Ok((state, run))
}

/// The window loop: advances every node, in node order, through one quiet
/// stretch at a time (see the module docs), then runs the match phase,
/// which sizes the next stretch under `horizon`.
fn run_windows(
    config: &MeshConfig,
    mut slots: Vec<WindowSlot>,
    state: &mut EngineState,
    horizon: Horizon,
    record_events: bool,
) -> WindowRun {
    let geometry = Geometry::new(config);
    let quiet_step_ns = config
        .turnaround
        .as_nanos()
        .div_ceil(1_000)
        .saturating_mul(1_000);

    // Window schedule: equal `turnaround` steps with a short tail.
    let mut steps: Vec<SimDuration> = Vec::new();
    let mut remaining = config.duration;
    while !remaining.is_zero() {
        let step = remaining.min(config.turnaround);
        steps.push(step);
        remaining = remaining - step;
    }

    let mut match_phases = 0usize;
    let mut window = 0usize;
    // One past the current stretch's last window.
    let mut end = 1usize;
    let early = loop {
        let Some(stretch) = steps.get(window..end).filter(|s| !s.is_empty()) else {
            break false;
        };
        for slot in &mut slots {
            advance_stretch(slot, stretch);
        }
        match_phases += 1;
        // Windows inside a longer stretch had nothing on the air, so
        // nothing straddles into this one.
        let prev = std::mem::take(&mut state.prev_txs);
        let prev = if stretch.len() == 1 { prev } else { Vec::new() };
        let Some(quiet) = match_window(
            config,
            &geometry,
            state,
            &mut slots,
            prev,
            horizon,
            quiet_step_ns,
        ) else {
            break true;
        };
        window = end;
        end = end.saturating_add(quiet.saturating_add(1)).min(steps.len());
    };

    let faulted = slots
        .iter()
        .filter(|slot| slot.stack.fault().is_some())
        .count();
    let mut telemetry = TelemetryBuffer::with_events(record_events);
    for (index, mut slot) in slots.into_iter().enumerate() {
        let mut node = slot.stack.drain_telemetry();
        node.attribute_to(index as u32);
        telemetry.absorb(node);
    }
    WindowRun {
        faulted,
        telemetry,
        match_phases,
        early,
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
    let mut sink_fates: Vec<(usize, bool)> = Vec::with_capacity(txs.len());
    let mut delivered_by_hop = vec![0usize; config.max_hops as usize + 1];
    let mut delivered_keys: Vec<(u32, u32)> = Vec::new();

    engine
        .metrics
        .register_histogram(keys::MESH_SINK_RX_DBM, &RX_DBM_BOUNDS);
    engine
        .metrics
        .register_histogram(keys::MESH_DELIVERED_HOPS, &HOP_BOUNDS);

    for ((tx, slot), was_collided) in txs.iter().zip(&slots).zip(&collided_flags) {
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
        sink_fates.push((tx.node, fate == "delivered"));
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
            per_node_delivery: per_node_delivery(config.nodes, sink_fates),
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
        false_wakes: state.false_wakes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_telemetry::NullRecorder;
    use picocube_units::json::ToJson;

    fn run_mesh(config: &MeshConfig) -> Result<MeshOutcome, MeshConfigError> {
        run_mesh_with(config, &mut NullRecorder).map(|(outcome, _)| outcome)
    }

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
        for max_hops in [0, 256, u32::MAX] {
            let mut bad = ok.clone();
            bad.max_hops = max_hops;
            assert_eq!(bad.validate(), Err(MeshConfigError::InvalidMaxHops));
        }
        let mut capped = ok;
        capped.max_hops = 255;
        assert_eq!(capped.validate(), Ok(()));
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

    /// A mesh that starts on a nearly flat sliver of a cell with its
    /// harvesters mostly gated off, so the wakeup receivers' listen draw
    /// browns its nodes out mid-run: held nodes and relays injected into
    /// held nodes.
    fn flat_config() -> MeshConfig {
        MeshConfig {
            base: NodeConfig {
                initial_soc: 0.02,
                battery_capacity_fraction: 0.001,
                harvest_dropout: Some(crate::node::HarvestDropout {
                    period_s: 300.0,
                    off_s: 290.0,
                }),
                ..NodeConfig::default()
            },
            ..tiny_config(5)
        }
    }

    #[test]
    fn serial_and_threaded_runs_are_bit_identical() {
        for (config, browns_out) in [(tiny_config(5), false), (flat_config(), true)] {
            let (serial, metrics) =
                run_mesh_with(&config, &mut NullRecorder).expect("serial mesh runs");
            let brownouts = metrics.counter(keys::NODE_BROWNOUTS);
            assert!(
                !browns_out || brownouts > 0,
                "the flat mesh never browned out"
            );
            for workers in [2usize, 3, 5, 8] {
                let threaded = run_mesh(&MeshConfig {
                    parallelism: Parallelism::Threads(workers),
                    ..config.clone()
                })
                .expect("threaded mesh runs");
                assert_eq!(serial, threaded, "{workers} workers diverged from serial");
            }
        }
    }

    /// Runs `config` under `horizon` with events on: the outcome, the
    /// registry JSON and the event stream as one string, and how the run
    /// went through its windows.
    fn capture(config: &MeshConfig, horizon: Horizon) -> (String, MeshStats) {
        let mut events: Vec<picocube_telemetry::Event> = Vec::new();
        let (outcome, metrics, stats) =
            run_mesh_at(config, &mut events, horizon).expect("mesh runs");
        let mut text = format!("{outcome:?}\n{}\n", metrics.to_json());
        for event in &events {
            text.push_str(&event.to_json().to_string());
            text.push('\n');
        }
        (text, stats)
    }

    /// Windows in a run of `config`.
    fn windows(config: &MeshConfig) -> usize {
        let (t, w) = (config.duration.as_nanos(), config.turnaround.as_nanos());
        usize::try_from(t.div_ceil(w)).expect("window count fits")
    }

    #[test]
    fn quiet_stretches_match_lockstep_windows() {
        // The golden mesh of `tests/mesh_determinism.rs`, the browned-out
        // flat mesh, a dense mesh in which every node hears every other,
        // and a mesh whose nodes brown out and recover inside a stretch.
        let golden = MeshConfig {
            nodes: 8,
            spacing_m: 2.5,
            duration: SimDuration::from_secs(60),
            ..MeshConfig::default()
        };
        let dense = MeshConfig {
            spacing_m: 0.4,
            ..tiny_config(6)
        };
        let geometry = Geometry::new(&dense);
        assert!(
            (0..6).all(|i| (0..6).all(|j| i == j || geometry.hears(i, j))),
            "the dense mesh has a deaf pair"
        );
        // A sliver of a cell on a gated shaker browns out when the shaker
        // stops and recovers within milliseconds of it restarting, inside
        // one stretch. With wake timers up to 40 % slow, a node's next
        // wake can lie seconds past the wake its reboot schedules, so
        // without the reboot bound in `Stack::quiet_until` the reboot's
        // first packet goes out before the stretch ends.
        let recovering = MeshConfig {
            base: NodeConfig {
                initial_soc: 0.05,
                battery_capacity_fraction: 1e-5,
                harvester: crate::node::HarvesterKind::Shaker,
                harvest_dropout: Some(crate::node::HarvestDropout {
                    period_s: 3.0,
                    off_s: 1.5,
                }),
                ..NodeConfig::default()
            },
            wake_ppm_range: 400_000.0,
            ..tiny_config(2)
        };
        for (name, config) in [
            ("golden", golden),
            ("flat", flat_config()),
            ("dense", dense),
            ("recovering", recovering),
        ] {
            let windows = windows(&config);
            for parallelism in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(3),
            ] {
                let config = MeshConfig {
                    parallelism,
                    ..config.clone()
                };
                let (reference, lockstep_stats) = capture(&config, lockstep);
                assert_eq!(lockstep_stats.match_phases, windows, "{name}");
                let (quiet, stats) = capture(&config, Stack::quiet_until);
                assert!(
                    reference == quiet,
                    "{name} at {parallelism:?}: quiet stretches diverged from lockstep windows"
                );
                assert!(
                    !stats.replayed,
                    "{name} at {parallelism:?}: a stretch let a packet on the air early"
                );
                assert!(
                    stats.match_phases < windows,
                    "{name} at {parallelism:?}: {} match phases in {windows} windows",
                    stats.match_phases
                );
            }
        }
    }

    #[test]
    fn a_stretch_that_lets_a_packet_out_early_replays_in_lockstep() {
        // A horizon that calls every node quiet forever runs the whole mesh
        // as one stretch: the first packet before its last window abandons
        // the run, and the replay is the lockstep run.
        let config = tiny_config(4);
        let (reference, _) = capture(&config, lockstep);
        let (replayed, stats) = capture(&config, |_| None);
        assert!(stats.replayed, "the early packet went unnoticed");
        assert_eq!(stats.match_phases, windows(&config));
        assert!(
            reference == replayed,
            "the replay diverged from lockstep windows"
        );
    }

    #[test]
    fn quiet_stretches_reach_is_pinned() {
        // The simbench `mesh_relay` workload: a 24-node line for 600 s at
        // seed 42, 30,000 windows of 20 ms.
        let spec = r#"{"name": "mesh_relay", "seed": 42, "duration_s": 600.0, "nodes": 24,
            "mesh": {"sink_offset_m": 2.0, "spacing_m": 2.0, "turnaround_ms": 20, "max_hops": 4}}"#;
        let config = crate::scenario::Scenario::parse(spec)
            .and_then(|s| s.mesh_config(Parallelism::Threads(2)))
            .expect("the workload spec lowers");
        assert_eq!(windows(&config), 30_000);
        let (_, _, stats) =
            run_mesh_at(&config, &mut NullRecorder, Stack::quiet_until).expect("mesh runs");
        assert!(!stats.replayed);
        assert_eq!(stats.match_phases, 11_422);
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
