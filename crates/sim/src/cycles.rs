//! Run-length log of per-instruction cycle costs.
//!
//! An MCU segment is a run of instructions across which no draw changes,
//! so the power ledger only needs each instruction's cycle cost, in
//! order. Most of a wake burst is one idiom repeated: the
//! `bit.b #1, &SPISTAT / jnz` busy-wait. A [`CycleLog`] stores such a
//! stretch as one `(poll, jump) × k` record instead of `2k` entries, and
//! [`PowerLedger::advance_log`](crate::PowerLedger::advance_log) replays
//! a record in closed form. Every other instruction stays one plain
//! entry, so logging it costs no more than pushing onto a `Vec<u32>`
//! plus one count: the log tallies its instructions per cycle cost as it
//! appends, so the replay need not recount them.

/// A repeated record of a [`CycleLog`]: a two-instruction pattern of
/// cycle costs, repeated `reps` times, placed in the log before the
/// single instruction at index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRun {
    pub(crate) at: usize,
    pub(crate) pattern: [u32; 2],
    pub(crate) reps: u32,
}

impl CycleRun {
    /// The per-instruction cycle costs of one repetition.
    pub fn pattern(&self) -> [u32; 2] {
        self.pattern
    }

    /// How many times the pattern repeats.
    pub fn reps(&self) -> u32 {
        self.reps
    }
}

/// Cycle costs a [`CycleLog`] counts as it appends: `0..COUNTED`, which
/// holds every cost an MSP430 instruction or interrupt entry has (1–6).
pub(crate) const COUNTED: usize = 8;

/// Per-instruction cycle costs of one MCU segment, run-length encoded.
///
/// Expanding the log ([`CycleLog::iter_insns`]) yields exactly the costs
/// the instructions had, one per instruction, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleLog {
    /// Costs of the instructions logged one by one.
    pub(crate) costs: Vec<u32>,
    /// Repeated records, in order, each placed by index into `costs`.
    pub(crate) runs: Vec<CycleRun>,
    /// Instructions the repeated records stand for.
    run_insns: u64,
    /// Instructions per cycle cost, for costs below [`COUNTED`].
    counts: [u64; COUNTED],
    /// Whether some instruction cost [`COUNTED`] cycles or more, which
    /// `counts` leaves out.
    uncounted: bool,
}

impl CycleLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every record, keeping the allocations.
    pub fn clear(&mut self) {
        self.costs.clear();
        self.runs.clear();
        self.run_insns = 0;
        self.counts = [0; COUNTED];
        self.uncounted = false;
    }

    /// Appends one instruction costing `cycles`.
    #[inline]
    pub fn push(&mut self, cycles: u32) {
        self.costs.push(cycles);
        self.count(cycles, 1);
    }

    /// Appends `reps` repetitions of the two-instruction pattern
    /// `(first, second)`. Nothing is appended when `reps` is zero.
    pub fn push_repeated(&mut self, first: u32, second: u32, reps: u32) {
        if reps == 0 {
            return;
        }
        self.runs.push(CycleRun {
            at: self.costs.len(),
            pattern: [first, second],
            reps,
        });
        self.run_insns += 2 * u64::from(reps);
        self.count(first, u64::from(reps));
        self.count(second, u64::from(reps));
    }

    /// Adds `n` instructions of `cycles` to the kept counts.
    #[inline]
    fn count(&mut self, cycles: u32, n: u64) {
        match self.counts.get_mut(cycles as usize) {
            Some(slot) => *slot += n,
            None => self.uncounted = true,
        }
    }

    /// Instructions per cycle cost (index = cost), or `None` when the log
    /// holds a cost of [`COUNTED`] cycles or more and must be recounted.
    pub(crate) fn counts(&self) -> Option<&[u64]> {
        (!self.uncounted).then_some(&self.counts)
    }

    /// Instructions logged.
    pub fn insns(&self) -> u64 {
        self.costs.len() as u64 + self.run_insns
    }

    /// The repeated records, in execution order.
    pub fn runs(&self) -> &[CycleRun] {
        &self.runs
    }

    /// The log expanded to one cycle cost per instruction.
    pub fn iter_insns(&self) -> impl Iterator<Item = u32> + '_ {
        let mut done = 0;
        let tail = self.runs.last().map_or(0, |run| run.at);
        self.runs
            .iter()
            .flat_map(move |run| {
                let before = self.costs.get(done..run.at).unwrap_or_default();
                done = run.at;
                let repeated = (0..run.reps).flat_map(move |_| run.pattern);
                before.iter().copied().chain(repeated)
            })
            .chain(self.costs.get(tail..).unwrap_or_default().iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log_expands_to_the_pushed_costs() {
        let mut log = CycleLog::new();
        log.push(4);
        log.push_repeated(4, 2, 3);
        log.push_repeated(5, 2, 0); // no-op
        log.push_repeated(3, 2, 1);
        log.push(1);
        log.push(6);
        let expanded: Vec<u32> = log.iter_insns().collect();
        assert_eq!(expanded, [4, 4, 2, 4, 2, 4, 2, 3, 2, 1, 6]);
        assert_eq!(log.insns(), 11);
        assert_eq!(log.runs().len(), 2);
        assert_eq!((log.runs()[0].pattern(), log.runs()[0].reps()), ([4, 2], 3));
        log.clear();
        assert_eq!(log.insns(), 0);
        assert_eq!(log.iter_insns().count(), 0);
        log.push_repeated(4, 2, 2);
        assert_eq!(log.iter_insns().collect::<Vec<_>>(), [4, 2, 4, 2]);
    }

    /// One operation on a log under test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u32),
        Repeat(u32, u32, u32),
        Clear,
    }

    /// Cycle costs, a quarter of them past the counted range.
    fn cost() -> impl Strategy<Value = u32> {
        let counted = 0..COUNTED as u32;
        prop_oneof![
            counted.clone(),
            counted.clone(),
            counted,
            COUNTED as u32..40
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            cost().prop_map(Op::Push),
            cost().prop_map(Op::Push),
            (cost(), cost(), 0u32..40).prop_map(|(a, b, k)| Op::Repeat(a, b, k)),
            Just(Op::Clear),
        ]
    }

    /// The log's kept counts equal a recount of its expansion, or the log
    /// holds a cost past the counted range and says so.
    fn assert_counts_match(log: &CycleLog) {
        let mut recount = [0u64; COUNTED];
        let mut past = false;
        for c in log.iter_insns() {
            match recount.get_mut(c as usize) {
                Some(n) => *n += 1,
                None => past = true,
            }
        }
        match log.counts() {
            Some(kept) => {
                assert!(!past, "a cost past the counted range went uncounted");
                assert_eq!(kept, &recount[..]);
            }
            None => assert!(past, "the log gave up its counts with every cost in range"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kept_counts_match_a_recount(
            ops in prop::collection::vec(op(), 0..40),
            big in 0usize..160,
        ) {
            // `big` places a 2^20-rep record in about one case in eight.
            let mut log = CycleLog::new();
            for (i, op) in ops.into_iter().enumerate() {
                if i == big {
                    log.push_repeated(4, 2, 1 << 20);
                }
                match op {
                    Op::Push(c) => log.push(c),
                    Op::Repeat(a, b, k) => log.push_repeated(a, b, k),
                    Op::Clear => {
                        assert_counts_match(&log);
                        log.clear();
                    }
                }
            }
            assert_counts_match(&log);
        }
    }
}
