//! In-memory spans recorded around calls into the simulator's public API,
//! and the self-time arithmetic over them.
//!
//! Spans are recorded by the benchmark, outside the library: a span covers
//! one public call (or one small group of calls) and names the layer it
//! belongs to as the prefix of its name (`stack.run` is layer `stack`).
//! Worker threads record into their own [`WorkerTrace`] and hand it back
//! when they join, so recording takes no lock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Index of the enclosing span in the trace, or [`ROOT`].
    pub parent: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Node index, campaign seed or window index the span worked on.
    pub tag: u64,
    /// Recording thread: 0 for the coordinating thread, `1..` for workers.
    pub worker: u32,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The coordinating thread's trace. Span ids are indices into it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the coordinating thread and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, tag: u64) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            tag,
            worker: 0,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span on the coordinating thread.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tag: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, tag);
        let out = f();
        self.close(id);
        out
    }

    /// A recorder for worker thread `worker` (1-based) sharing this
    /// trace's epoch.
    pub fn worker(&self, worker: u32) -> WorkerTrace {
        WorkerTrace {
            epoch: self.epoch,
            worker,
            spans: Vec::new(),
        }
    }

    /// Appends a joined worker's spans. Their parents must be ids of this
    /// trace.
    pub fn absorb(&mut self, worker: WorkerTrace) {
        self.spans.extend(worker.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A worker thread's spans, each a child of a span of the [`Tracer`] it
/// came from.
#[derive(Debug)]
pub struct WorkerTrace {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
}

impl WorkerTrace {
    /// Runs `f` inside a span whose parent is `parent` in the tracer.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tag: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            tag,
            worker: self.worker,
        });
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Children recorded by
/// different workers may overlap each other; the union counts overlapped
/// time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != ROOT {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let covered = u32::try_from(id)
                .ok()
                .and_then(|id| children.get(&id))
                .map_or(0, |kids| union_within(kids, span.start_ns, span.end_ns));
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Total self time and span count per key (`Span::layer` or the span
/// name), given each span's self time in `self_ns`.
pub fn totals_by(
    spans: &[Span],
    self_ns: &[u64],
    key: impl Fn(&Span) -> &'static str,
) -> BTreeMap<&'static str, (u64, usize)> {
    let mut totals: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (span, &own) in spans.iter().zip(self_ns) {
        let entry = totals.entry(key(span)).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    totals
}
