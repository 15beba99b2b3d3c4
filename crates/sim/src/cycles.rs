//! Run-length log of per-instruction cycle costs.
//!
//! An MCU segment is a run of instructions across which no draw changes,
//! so the power ledger only needs each instruction's cycle cost, in
//! order. Most of a wake burst is one idiom repeated: the
//! `bit.b #1, &SPISTAT / jnz` busy-wait. A [`CycleLog`] stores such a
//! stretch as one `(poll, jump) × k` record instead of `2k` entries, and
//! [`PowerLedger::advance_log`](crate::PowerLedger::advance_log) replays
//! a record in closed form. Every other instruction stays one plain
//! entry, so logging it costs no more than pushing onto a `Vec<u32>`.

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
    }

    /// Appends one instruction costing `cycles`.
    #[inline]
    pub fn push(&mut self, cycles: u32) {
        self.costs.push(cycles);
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
}
