//! The streaming fleet accumulator: per-node results folded online, in
//! node order, into O(1)-per-node state.
//!
//! The materializing engine kept every node's full frame bytes, RF
//! accounting and telemetry registry alive until the merge phase, so a
//! million-node run held a million telemetry buffers and packet payloads
//! at once. The streaming engine reduces each node to a [`NodeOnAir`]: a
//! [`PacketRecord`] list (the packet's interval, receive level, bit count
//! and checksum verdict — everything the collision sweep and channel
//! trials consume, ~40 bytes per packet) plus its telemetry buffer, and
//! folds it into this accumulator the moment the node finishes. Live
//! state is then O(workers) node results plus the compact record list the
//! merge phase irreducibly needs.
//!
//! # Merge law
//!
//! [`FleetAccumulator::absorb`] must be called in ascending node order
//! with no gaps — the same left-fold the materializing engine performed
//! after phase 1. Metric gauges merge by floating-point addition, which
//! is order-sensitive; folding in node order is what makes serial,
//! threaded and checkpoint/resumed runs bit-identical. The accumulator
//! asserts the discipline instead of trusting its callers.

use super::NodeOnAir;
use picocube_sim::SimTime;
use picocube_telemetry::TelemetryBuffer;
use picocube_units::Dbm;

/// One on-air packet, reduced to the fields the merge phase consumes.
///
/// The frame bytes are gone: the channel trial needs only their bit count
/// (one Bernoulli draw per bit) and the checksum verdict, both computed at
/// reduction time. The verdict commutes with the trial — `decode` draws no
/// randomness, so evaluating it early cannot shift the merge stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PacketRecord {
    /// Transmitting node's fleet index.
    pub node: u32,
    /// Transmission start.
    pub start: SimTime,
    /// Transmission end.
    pub end: SimTime,
    /// Receive level at the fleet receiver.
    pub rx_dbm: Dbm,
    /// Frame length in bits (one channel trial per bit).
    pub bits: u32,
    /// Whether the uncorrupted frame passes the XOR checksum.
    pub decode_ok: bool,
}

/// The online fold over node results, and what a
/// [`FleetCheckpoint`](super::FleetCheckpoint) holds. See the module docs
/// for the merge law; the fleet's finalize step turns a fully-fed
/// accumulator into the [`FleetOutcome`](super::FleetOutcome). Per-node
/// tallies are not kept: every record carries its node index, so the
/// merge counts them when a run opts in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FleetAccumulator {
    /// Next node index the fold expects (= nodes absorbed so far, plus the
    /// resume offset when restored from a checkpoint).
    pub(super) next_node: usize,
    /// Nodes whose simulation latched a fault.
    pub(super) faulted: usize,
    /// Compact on-air records across all folded nodes, in fold order.
    pub(super) records: Vec<PacketRecord>,
    /// Metric totals (and, when events are on, the attributed event
    /// buffer, unsorted) folded in node order.
    pub(super) telemetry: TelemetryBuffer,
}

impl FleetAccumulator {
    /// An empty accumulator expecting node 0 first.
    pub(crate) fn new(record_events: bool) -> Self {
        Self {
            next_node: 0,
            faulted: 0,
            records: Vec::new(),
            telemetry: TelemetryBuffer::with_events(record_events),
        }
    }

    /// Whether the telemetry fold keeps events.
    pub(crate) fn record_events(&self) -> bool {
        self.telemetry.events_enabled()
    }

    /// Nodes folded so far (including any checkpoint prefix).
    pub(crate) fn nodes_done(&self) -> usize {
        self.next_node
    }

    /// Folds one node's result. The merge law: results arrive in
    /// ascending node order with no gaps.
    pub(crate) fn absorb(&mut self, node: NodeOnAir) {
        assert_eq!(
            node.node, self.next_node,
            "fleet accumulator fed out of node order"
        );
        self.next_node += 1;
        self.faulted += usize::from(node.fault.is_some());
        self.records.extend(node.records);
        self.telemetry.absorb(node.telemetry);
    }
}
