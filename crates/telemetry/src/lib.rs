//! Workspace-wide instrumentation: counters, event logs and per-rail
//! energy export behind one small public API.
//!
//! The paper's headline claims (the 6 µW average, the Fig. 6 power
//! profile, the 46 % PA efficiency) are *measured time-series*, so the
//! simulator's observability layer is first-class rather than ad-hoc
//! printlns. Three pieces:
//!
//! * [`Recorder`] — the event-sink trait. [`NullRecorder`] is the
//!   zero-overhead default, [`JsonlRecorder`] writes a structured
//!   JSON-lines log, and `Vec<Event>` collects in memory for tests.
//! * [`Metrics`] — an insertion-ordered registry of named counters,
//!   gauges and [`Histogram`]s with a deterministic, fixed-order merge.
//! * [`TelemetryBuffer`] — the per-shard accumulator. Each fleet node
//!   records into its own buffer on whatever thread simulates it; buffers
//!   merge **in node order**, so serial and threaded runs produce
//!   bit-identical event streams and metric totals.
//!
//! # Examples
//!
//! ```
//! use picocube_telemetry::{Event, EventKind, Metrics, Recorder, TelemetryBuffer};
//!
//! let mut shard = TelemetryBuffer::with_events(true);
//! shard.metrics.inc("radio.tx.packets", 1);
//! shard.record(6_000_000_000, EventKind::Wake { index: 1 });
//! shard.attribute_to(3); // fleet assigns the node index
//!
//! let mut fleet = TelemetryBuffer::with_events(true);
//! fleet.absorb(shard);
//! assert_eq!(fleet.metrics.counter("radio.tx.packets"), 1);
//! assert_eq!(fleet.events()[0].node, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod keys;
mod metrics;
mod recorder;

pub use event::{Event, EventKind, NO_NODE};
pub use metrics::{Histogram, MergeConflict, Metric, Metrics, DEFAULT_BOUNDS};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder};

/// Per-shard telemetry accumulator: a [`Metrics`] registry plus an
/// optional event buffer. Plain data and `Send`, so fleet worker threads
/// can hand finished buffers back for ordered merging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryBuffer {
    /// The shard's metric registry.
    pub metrics: Metrics,
    events: Vec<Event>,
    events_enabled: bool,
}

// The parallel engine moves buffers across threads; keep the guarantee
// explicit so a non-Send field shows up here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TelemetryBuffer>();
    assert_send::<Event>();
    assert_send::<Metrics>();
};

impl TelemetryBuffer {
    /// Creates a buffer with event recording disabled (metrics only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer with event recording on or off.
    pub fn with_events(enabled: bool) -> Self {
        Self {
            events_enabled: enabled,
            ..Self::default()
        }
    }

    /// Whether [`record`](Self::record) keeps events. Metric updates are
    /// always kept.
    pub fn events_enabled(&self) -> bool {
        self.events_enabled
    }

    /// Turns event buffering on or off (existing events are kept).
    pub fn set_events_enabled(&mut self, enabled: bool) {
        self.events_enabled = enabled;
    }

    /// Buffers an event at `t_ns`, unattributed ([`NO_NODE`]) until
    /// [`attribute_to`](Self::attribute_to) assigns an owner. A no-op when
    /// events are disabled.
    pub fn record(&mut self, t_ns: u64, kind: EventKind) {
        if self.events_enabled {
            self.events.push(Event::engine(t_ns, kind));
        }
    }

    /// Buffers an event already attributed to `node` (the merge phase
    /// knows packet owners directly). A no-op when events are disabled.
    pub fn record_for(&mut self, node: u32, t_ns: u64, kind: EventKind) {
        if self.events_enabled {
            self.events.push(Event { t_ns, node, kind });
        }
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Stamps every unattributed event with `node`. The node model does
    /// not know its fleet index; the fleet assigns it after phase 1.
    pub fn attribute_to(&mut self, node: u32) {
        for event in &mut self.events {
            if event.node == NO_NODE {
                event.node = node;
            }
        }
    }

    /// Folds another buffer into this one: metrics merge (counters and
    /// gauges add, histograms merge bucket-wise) and events append.
    /// Absorbing shards in node order is the determinism contract.
    pub fn absorb(&mut self, other: TelemetryBuffer) {
        self.metrics.merge_from(&other.metrics);
        self.events.extend(other.events);
    }

    /// [`absorb`](Self::absorb), returning a metric conflict instead of
    /// panicking; on a conflict no event moves.
    ///
    /// # Errors
    ///
    /// Returns the [`MergeConflict`] of [`Metrics::try_merge_from`].
    pub fn try_absorb(&mut self, other: TelemetryBuffer) -> Result<(), MergeConflict> {
        self.metrics.try_merge_from(&other.metrics)?;
        self.events.extend(other.events);
        Ok(())
    }

    /// Stable-sorts buffered events by `(t_ns, node)`. Within one node the
    /// recording order (already time-ordered) is preserved, so the result
    /// is a canonical interleaving independent of merge order.
    pub fn sort_events(&mut self) {
        self.events.sort_by_key(|e| (e.t_ns, e.node));
    }

    /// Drains the buffered events into `recorder` (buffer keeps metrics).
    pub fn drain_events_into(&mut self, recorder: &mut dyn Recorder) {
        for event in self.events.drain(..) {
            recorder.record(&event);
        }
    }
}

/// Renders a fixed-width summary table of a metric registry, one line per
/// metric in registration order — the `exp_*` binaries' report format.
pub fn summary_table(metrics: &Metrics) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let width = metrics
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0)
        .max(6);
    for (name, metric) in metrics.iter() {
        let _ = match metric {
            Metric::Counter(v) => writeln!(out, "  {name:<width$} {v:>14}"),
            Metric::Gauge(v) => writeln!(out, "  {name:<width$} {v:>14.3}"),
            Metric::Histogram(h) => {
                let mean = h
                    .mean()
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.3}"));
                let max = h
                    .max()
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.3}"));
                writeln!(
                    out,
                    "  {name:<width$} {:>14} observations  mean {mean}  max {max}",
                    h.count()
                )
            }
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_drops_events_but_keeps_metrics() {
        let mut b = TelemetryBuffer::new();
        b.record(5, EventKind::BrownOut);
        b.metrics.inc("node.brownouts", 1);
        assert!(b.events().is_empty());
        assert_eq!(b.metrics.counter("node.brownouts"), 1);
    }

    #[test]
    fn attribution_only_touches_unowned_events() {
        let mut b = TelemetryBuffer::with_events(true);
        b.record(1, EventKind::Wake { index: 1 });
        b.attribute_to(7);
        b.record(2, EventKind::Wake { index: 2 });
        b.attribute_to(9);
        assert_eq!(b.events()[0].node, 7);
        assert_eq!(b.events()[1].node, 9);
    }

    #[test]
    fn absorb_in_node_order_is_deterministic() {
        let shard = |node: u32, t: u64| {
            let mut b = TelemetryBuffer::with_events(true);
            b.record(t, EventKind::Wake { index: 1 });
            b.metrics.add("power.total.uj", f64::from(node) * 0.3);
            b.attribute_to(node);
            b
        };
        let fold = || {
            let mut all = TelemetryBuffer::with_events(true);
            for node in 0..4 {
                all.absorb(shard(node, 10 - u64::from(node)));
            }
            all.sort_events();
            all
        };
        let (a, b) = (fold(), fold());
        assert_eq!(a.events(), b.events());
        assert_eq!(
            a.metrics.gauge("power.total.uj").to_bits(),
            b.metrics.gauge("power.total.uj").to_bits()
        );
        // Sorted canonically: ascending time, ties broken by node.
        let times: Vec<u64> = a.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, [7, 8, 9, 10]);
    }

    #[test]
    fn summary_table_lists_every_metric() {
        let mut m = Metrics::new();
        m.inc("fleet.offered", 42);
        m.add("power.total.uj", 1.25);
        m.observe("radio.tx.airtime_us", 1040.0);
        let table = summary_table(&m);
        assert!(table.contains("fleet.offered"));
        assert!(table.contains("42"));
        assert!(table.contains("power.total.uj"));
        assert!(table.contains("observations"));
    }
}
