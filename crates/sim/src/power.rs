//! Rail-by-rail, load-by-load power accounting.
//!
//! The PicoCube has three supply rails (2.1–3.6 V controller/sensor, 1.0 V
//! radio digital, 0.65 V radio RF) plus the 1.2 V battery bus. Every
//! component model registers one or more *loads* on a rail and publishes its
//! instantaneous current draw whenever it changes state. The ledger treats
//! draws as piecewise-constant between updates and integrates exact per-load
//! energies, which is what the paper's Fig. 6 profile and §6 power budget
//! measure on the bench.

use crate::cycles::{CycleLog, CycleRun};
use crate::exact::{add_counted, repeat_add};
use crate::{SimDuration, SimTime};
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{Amps, Joules, Seconds, Volts, Watts};

/// A [`PowerLedger`] lookup was given a handle the ledger never issued
/// (a `RailId`/`LoadId` from a different ledger, or a corrupted one).
///
/// Handles are only obtainable from [`PowerLedger::add_rail`] and
/// [`PowerLedger::register_load`] and loads are never removed, so within
/// one ledger every issued handle stays valid for the ledger's lifetime;
/// this error is always a wiring bug in the caller, never a model
/// outcome. It is still surfaced as a `Result` (rather than a panic) so
/// a single mis-wired node degrades instead of aborting a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The `RailId` does not name a rail of this ledger.
    UnknownRail,
    /// The `LoadId` does not name a load of this ledger.
    UnknownLoad,
}

impl core::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownRail => write!(f, "rail handle was not issued by this power ledger"),
            Self::UnknownLoad => write!(f, "load handle was not issued by this power ledger"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Identifies a supply rail registered with a [`PowerLedger`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RailId(usize);

/// Identifies a load registered on a rail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LoadId {
    rail: usize,
    load: usize,
}

impl LoadId {
    /// The rail this load draws from.
    pub fn rail(self) -> RailId {
        RailId(self.rail)
    }
}

#[derive(Debug, Clone)]
struct Load {
    name: String,
    current: Amps,
    energy: Joules,
}

#[derive(Debug, Clone)]
struct Rail {
    name: String,
    voltage: Volts,
    loads: Vec<Load>,
}

/// Integrating energy meter over a set of named rails and loads.
///
/// # Examples
///
/// ```
/// use picocube_sim::{PowerLedger, SimTime};
/// use picocube_units::{Volts, Amps, Watts};
///
/// # fn main() -> Result<(), picocube_sim::LedgerError> {
/// let mut ledger = PowerLedger::new();
/// let vdd = ledger.add_rail("VDD", Volts::new(3.0));
/// let mcu = ledger.register_load(vdd, "MSP430")?;
///
/// ledger.set_load_current(mcu, Amps::from_micro(0.5))?; // deep sleep
/// ledger.advance_to(SimTime::from_secs(6));
/// assert!((ledger.total_energy().micro() - 9.0).abs() < 1e-9); // 3V*0.5µA*6s
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerLedger {
    rails: Vec<Rail>,
    now: SimTime,
    /// Grand total accumulated alongside the per-load integrals; the
    /// debug-build sanitizer cross-checks it against their sum. Only debug
    /// builds accumulate it: nothing else reads it, so release builds
    /// leave it at zero instead of paying a second add per load per step.
    integrated_total: Joules,
    /// Registration-ordered `(rail, load)` indices of loads currently
    /// drawing nonzero current, rebuilt lazily after any current change.
    /// Purely an iteration shortcut for [`advance_to`](Self::advance_to):
    /// the visit order matches a full scan and zero-current loads
    /// contribute exactly `+0.0`, so the float accumulation sequence is
    /// bit-identical to walking every load.
    hot: Vec<(usize, usize)>,
    hot_dirty: bool,
    /// Scratch reused by [`advance_log`](Self::advance_log): instructions
    /// per cycle cost, the hot loads' watts and one repeated record's
    /// addend pattern. Pure scratch — the contents never outlive one call.
    scratch_counts: Vec<u64>,
    scratch_watts: Vec<Watts>,
    scratch_pattern: Vec<f64>,
    /// Per-load segment replays by path, for the tests.
    #[cfg(test)]
    replays: ReplayTally,
}

/// How many per-load segment replays took each path.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReplayTally {
    closed: u64,
    ordered: u64,
}

#[cfg(test)]
impl ReplayTally {
    fn tally(&mut self, closed: bool) {
        if closed {
            self.closed += 1;
        } else {
            self.ordered += 1;
        }
    }
}

impl PowerLedger {
    /// Creates an empty ledger at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a supply rail at the given nominal voltage.
    pub fn add_rail(&mut self, name: impl Into<String>, voltage: Volts) -> RailId {
        self.rails.push(Rail {
            name: name.into(),
            voltage,
            loads: Vec::new(),
        });
        RailId(self.rails.len() - 1)
    }

    /// Looks up a rail by handle.
    fn rail_slot(&self, rail: RailId) -> Result<&Rail, LedgerError> {
        self.rails.get(rail.0).ok_or(LedgerError::UnknownRail)
    }

    /// Looks up a rail by handle, mutably.
    fn rail_slot_mut(&mut self, rail: RailId) -> Result<&mut Rail, LedgerError> {
        self.rails.get_mut(rail.0).ok_or(LedgerError::UnknownRail)
    }

    /// Looks up a load by handle.
    fn load_slot(&self, load: LoadId) -> Result<&Load, LedgerError> {
        self.rails
            .get(load.rail)
            .and_then(|r| r.loads.get(load.load))
            .ok_or(LedgerError::UnknownLoad)
    }

    /// Looks up a load by handle, mutably.
    fn load_slot_mut(&mut self, load: LoadId) -> Result<&mut Load, LedgerError> {
        self.rails
            .get_mut(load.rail)
            .and_then(|r| r.loads.get_mut(load.load))
            .ok_or(LedgerError::UnknownLoad)
    }

    /// Registers a named load on `rail`, initially drawing zero current.
    ///
    /// Fails if `rail` was not issued by this ledger.
    pub fn register_load(
        &mut self,
        rail: RailId,
        name: impl Into<String>,
    ) -> Result<LoadId, LedgerError> {
        let r = self.rail_slot_mut(rail)?;
        r.loads.push(Load {
            name: name.into(),
            current: Amps::ZERO,
            energy: Joules::ZERO,
        });
        let load = r.loads.len() - 1;
        self.hot_dirty = true;
        Ok(LoadId { rail: rail.0, load })
    }

    /// Current simulation time of the ledger.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Updates the instantaneous current drawn by `load`.
    ///
    /// The previous draw is assumed to have held since the last
    /// [`advance_to`](Self::advance_to); call `advance_to` *before* changing
    /// currents at an event boundary.
    pub fn set_load_current(&mut self, load: LoadId, current: Amps) -> Result<(), LedgerError> {
        self.load_slot_mut(load)?.current = current;
        self.hot_dirty = true;
        Ok(())
    }

    /// Reads back the instantaneous current drawn by `load`.
    pub fn load_current(&self, load: LoadId) -> Result<Amps, LedgerError> {
        Ok(self.load_slot(load)?.current)
    }

    /// Updates the rail voltage (e.g. battery sag). Takes effect for energy
    /// integrated after the call.
    pub fn set_rail_voltage(&mut self, rail: RailId, voltage: Volts) -> Result<(), LedgerError> {
        self.rail_slot_mut(rail)?.voltage = voltage;
        Ok(())
    }

    /// The present voltage of `rail`.
    pub fn rail_voltage(&self, rail: RailId) -> Result<Volts, LedgerError> {
        Ok(self.rail_slot(rail)?.voltage)
    }

    /// Instantaneous power drawn from `rail` (sum over its loads).
    pub fn rail_power(&self, rail: RailId) -> Result<Watts, LedgerError> {
        let r = self.rail_slot(rail)?;
        let total: Amps = r.loads.iter().map(|l| l.current).sum();
        Ok(r.voltage * total)
    }

    /// Instantaneous total power across all rails.
    pub fn total_power(&self) -> Watts {
        // Same per-rail visit and accumulation order as summing
        // `rail_power` over every issued handle.
        self.rails
            .iter()
            .map(|r| {
                let total: Amps = r.loads.iter().map(|l| l.current).sum();
                r.voltage * total
            })
            .sum()
    }

    /// Integrates all loads forward to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the ledger's current time.
    pub fn advance_to(&mut self, t: SimTime) {
        let dt: Seconds = t.duration_since(self.now).as_seconds();
        if dt.value() > 0.0 {
            // Skipping zero-current loads is bit-invisible: each would
            // contribute exactly +0.0, and `x + 0.0 == x` bit-for-bit
            // (energies only ever accumulate non-negative deltas, so no
            // -0.0 exists to be normalized). Most of a node's loads are
            // gated off at any instant, so the hot list is short.
            if self.hot_dirty {
                self.rebuild_hot();
            }
            for &(ri, li) in &self.hot {
                // The indices were rebuilt above from the live rails, so
                // the lookups cannot miss; `continue` keeps this panic-free
                // for the lint without costing the hot path anything.
                let Some(rail) = self.rails.get_mut(ri) else {
                    continue;
                };
                let voltage = rail.voltage;
                let Some(load) = rail.loads.get_mut(li) else {
                    continue;
                };
                let delta = voltage * load.current * dt;
                load.energy += delta;
                if cfg!(debug_assertions) {
                    self.integrated_total += delta;
                }
            }
        }
        self.now = t;
        self.debug_check_balance();
    }

    /// Rebuilds the hot list: registration-ordered indices of loads with
    /// nonzero current.
    fn rebuild_hot(&mut self) {
        self.hot.clear();
        for (ri, rail) in self.rails.iter().enumerate() {
            for (li, load) in rail.loads.iter().enumerate() {
                if load.current.value() != 0.0 {
                    self.hot.push((ri, li));
                }
            }
        }
        self.hot_dirty = false;
    }

    /// Integrates one MCU segment's run-length cycle log, bit-identically
    /// to calling [`advance_to`](Self::advance_to) once after each
    /// instruction with that instruction's cycle cost (1 µs per cycle).
    ///
    /// Voltages and currents cannot change between instructions of a
    /// segment (nothing else executes), so each load adds `delta(c) =
    /// watts * dt(c)` per instruction of cost `c`, where `watts = voltage *
    /// current` is exactly the first product `advance_to`'s left-to-right
    /// `voltage * current * dt` forms. The log counts the segment's
    /// instructions per cycle cost as it is written (a log holding a cost
    /// past the counted range is recounted here), and each load then adds
    /// `Σ count(c) · round(delta(c) / ulp)` ulps to its energy in integer
    /// mantissa arithmetic: inside one binade, away from half-ulp ties,
    /// the rounding of an add does not depend on the accumulator, so the
    /// adds' order does not matter (see `exact.rs`). A load whose sum
    /// would leave its binade, meets a tie, or starts at zero or a
    /// subnormal replays instruction by instruction instead, repeated
    /// records in closed form — again bit-identically. An empty log is a
    /// no-op.
    pub fn advance_log(&mut self, log: &CycleLog) {
        self.replay(&log.costs, &log.runs, log.counts());
    }

    /// [`advance_log`](Self::advance_log) over a plain list of
    /// per-instruction cycle costs (a log without repeated records).
    pub fn advance_deltas(&mut self, deltas: &[u32]) {
        self.replay(deltas, &[], None);
    }

    /// The replay behind [`advance_log`](Self::advance_log): `costs` are
    /// single instructions, and each of `runs` sits before `costs[run.at]`.
    /// `counted` tallies them per cycle cost when the log kept that tally;
    /// otherwise the replay counts them itself.
    fn replay(&mut self, costs: &[u32], runs: &[CycleRun], counted: Option<&[u64]>) {
        if costs.is_empty() && runs.is_empty() {
            return;
        }
        let mut scratch = core::mem::take(&mut self.scratch_counts);
        let mut watts = core::mem::take(&mut self.scratch_watts);
        let mut pattern = core::mem::take(&mut self.scratch_pattern);
        let counts = match counted {
            Some(counts) => counts,
            None => {
                scratch.clear();
                for &c in costs {
                    count(&mut scratch, c, 1);
                }
                for run in runs {
                    for c in run.pattern {
                        count(&mut scratch, c, u64::from(run.reps));
                    }
                }
                &scratch
            }
        };
        let cycles: u64 = (0u64..).zip(counts).map(|(c, &n)| c * n).sum();
        let end = SimTime::from_nanos(self.now.as_nanos() + cycles * 1_000);
        if self.hot_dirty {
            self.rebuild_hot();
        }
        watts.clear();
        for &(ri, li) in &self.hot {
            let Some(rail) = self.rails.get(ri) else {
                continue;
            };
            let Some(load) = rail.loads.get(li) else {
                continue;
            };
            watts.push(rail.voltage * load.current);
        }
        for (&(ri, li), w) in self.hot.iter().zip(&watts) {
            let Some(load) = self.rails.get_mut(ri).and_then(|r| r.loads.get_mut(li)) else {
                continue;
            };
            let one = core::slice::from_ref(w);
            let (energy, _closed) =
                replay_one(load.energy.value(), one, counts, costs, runs, &mut pattern);
            load.energy = Joules::new(energy);
            #[cfg(test)]
            self.replays.tally(_closed);
        }
        if cfg!(debug_assertions) {
            // Per instruction the total adds every hot load's delta, in
            // hot-list order.
            let total = self.integrated_total.value();
            let (total, _) = replay_one(total, &watts, counts, costs, runs, &mut pattern);
            self.integrated_total = Joules::new(total);
        }
        self.now = end;
        self.scratch_counts = scratch;
        self.scratch_watts = watts;
        self.scratch_pattern = pattern;
        self.debug_check_balance();
    }

    /// Stages this ledger's pending advance to `t` into a cross-ledger
    /// [`SleepBatch`] pass, returning the span handle to later
    /// [`commit_sleep`](Self::commit_sleep) with.
    ///
    /// Bit-identical to [`advance_to`](Self::advance_to): the staged rows
    /// are exactly the hot-list products `rail.voltage * load.current` (the
    /// first multiply `advance_to` forms) and the span's `dt` is the same
    /// `duration_since(now).as_seconds()` value, so the batch's
    /// `watts * dt` / `energy += delta` replay performs the identical f64
    /// operations in the identical order. Grouping many ledgers into one
    /// pass adds no cross-ledger arithmetic — each span integrates on its
    /// own accumulators.
    ///
    /// The ledger's clock does **not** move until the commit; between stage
    /// and commit the ledger must not be touched (currents, voltages, or
    /// further advances), which the commit's debug assertions police.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the ledger's current time (same
    /// contract as `advance_to`).
    pub fn stage_sleep(&mut self, t: SimTime, batch: &mut SleepBatch) -> usize {
        debug_assert!(
            !batch.integrated,
            "stage_sleep after integrate: clear the batch between passes"
        );
        let dt: Seconds = t.duration_since(self.now).as_seconds();
        let first = batch.watts.len();
        if dt.value() > 0.0 {
            if self.hot_dirty {
                self.rebuild_hot();
            }
            for &(ri, li) in &self.hot {
                let Some(rail) = self.rails.get(ri) else {
                    continue;
                };
                let Some(load) = rail.loads.get(li) else {
                    continue;
                };
                batch.watts.push((rail.voltage * load.current).value());
                batch.energy.push(load.energy.value());
            }
        }
        batch.spans.push(SleepSpan {
            first,
            rows: batch.watts.len() - first,
            dt: dt.value(),
            end: t,
            total: self.integrated_total.value(),
        });
        batch.spans.len() - 1
    }

    /// Writes an integrated [`SleepBatch`] span back into this ledger:
    /// per-load energies, the grand total (debug builds), and the clock.
    /// Must be called on the same ledger that staged `span`, with the hot
    /// list untouched since; a stale or foreign handle is a caller bug and
    /// trips the sanitizer (release builds write back whatever was
    /// staged).
    pub fn commit_sleep(&mut self, batch: &SleepBatch, span: usize) {
        let Some(span) = batch.spans.get(span) else {
            debug_assert!(false, "commit_sleep: span handle out of range");
            return;
        };
        debug_assert!(
            batch.integrated,
            "commit_sleep before SleepBatch::integrate"
        );
        if span.rows > 0 {
            debug_assert!(
                !self.hot_dirty && self.hot.len() == span.rows,
                "ledger mutated between stage_sleep and commit_sleep"
            );
            let energies = batch.energy.iter().skip(span.first).take(span.rows);
            for (&(ri, li), &e) in self.hot.iter().zip(energies) {
                if let Some(load) = self.rails.get_mut(ri).and_then(|r| r.loads.get_mut(li)) {
                    load.energy = Joules::new(e);
                }
            }
        }
        if cfg!(debug_assertions) {
            self.integrated_total = Joules::new(span.total);
        }
        self.now = span.end;
        self.debug_check_balance();
    }

    /// Debug-build sanitizer: the per-rail energy integrals must sum to the
    /// independently accumulated grand total. A mismatch means some path
    /// mutated a load's energy without going through
    /// [`advance_to`](Self::advance_to) — a bookkeeping bug in the ledger,
    /// never a legitimate model outcome. Compiled out in release builds.
    fn debug_check_balance(&self) {
        if cfg!(debug_assertions) {
            let per_load: f64 = self
                .rails
                .iter()
                .flat_map(|r| r.loads.iter())
                .map(|l| l.energy.value())
                .sum();
            let total = self.integrated_total.value();
            // Summation order differs between the two accumulators, so allow
            // a relative float tolerance.
            let tolerance = 1e-9 * per_load.abs().max(total.abs()).max(1e-12);
            debug_assert!(
                (per_load - total).abs() <= tolerance,
                "power ledger unbalanced: per-load sum {per_load} J != integrated total {total} J"
            );
        }
    }

    /// Test-only fault injection: bumps one load's integral without touching
    /// the grand total, unbalancing the ledger for sanitizer regression
    /// tests.
    #[cfg(test)]
    fn unbalance_load_energy(&mut self, load: LoadId, delta: Joules) {
        if let Some(l) = self
            .rails
            .get_mut(load.rail)
            .and_then(|r| r.loads.get_mut(load.load))
        {
            l.energy += delta;
        }
    }

    /// Test-only: sets one load's integral, re-balancing the grand total
    /// (debug builds) to the per-load sum so the sanitizer stays quiet.
    #[cfg(test)]
    fn seed_load_energy(&mut self, load: LoadId, energy: Joules) {
        if let Some(l) = self
            .rails
            .get_mut(load.rail)
            .and_then(|r| r.loads.get_mut(load.load))
        {
            l.energy = energy;
        }
        if cfg!(debug_assertions) {
            self.integrated_total = self
                .rails
                .iter()
                .flat_map(|r| r.loads.iter())
                .map(|l| l.energy)
                .sum();
        }
    }

    /// Total energy consumed from `rail` so far.
    pub fn rail_energy(&self, rail: RailId) -> Result<Joules, LedgerError> {
        Ok(self.rail_slot(rail)?.loads.iter().map(|l| l.energy).sum())
    }

    /// Energy consumed by one load so far.
    pub fn load_energy(&self, load: LoadId) -> Result<Joules, LedgerError> {
        Ok(self.load_slot(load)?.energy)
    }

    /// Total energy consumed across all rails so far.
    pub fn total_energy(&self) -> Joules {
        // Same per-rail visit and accumulation order as summing
        // `rail_energy` over every issued handle.
        self.rails
            .iter()
            .map(|r| r.loads.iter().map(|l| l.energy).sum::<Joules>())
            .sum()
    }

    /// Average power since simulation start (total energy / elapsed time).
    /// Returns zero before any time has elapsed.
    pub fn average_power(&self) -> Watts {
        let t = self.now.as_seconds();
        if t.value() <= 0.0 {
            Watts::ZERO
        } else {
            self.total_energy() / t
        }
    }

    /// Exports the ledger's accumulated energy accounting into a metric
    /// registry: one accumulating gauge per rail
    /// (`power.rail.<rail>.uj`), one per load
    /// (`power.load.<rail>.<load>.uj`) and the grand total
    /// (`power.total.uj`), all in microjoules. Gauges merge by addition,
    /// so fleet-merged registries carry per-rail totals across nodes.
    pub fn export_metrics(&self, metrics: &mut picocube_telemetry::Metrics) {
        use picocube_telemetry::keys;
        for rail in &self.rails {
            metrics.add(
                &keys::power_rail_uj(&rail.name),
                rail.loads.iter().map(|l| l.energy.micro()).sum(),
            );
            for load in &rail.loads {
                metrics.add(
                    &keys::power_load_uj(&rail.name, &load.name),
                    load.energy.micro(),
                );
            }
        }
        metrics.add(keys::POWER_TOTAL_UJ, self.total_energy().micro());
    }

    /// Produces a structured per-rail, per-load energy report.
    pub fn report(&self) -> PowerReport {
        PowerReport {
            elapsed: self.now.as_seconds(),
            total_energy: self.total_energy(),
            average_power: self.average_power(),
            rails: self
                .rails
                .iter()
                .map(|r| RailReport {
                    name: r.name.clone(),
                    voltage: r.voltage,
                    energy: r.loads.iter().map(|l| l.energy).sum(),
                    loads: r.loads.iter().map(|l| (l.name.clone(), l.energy)).collect(),
                })
                .collect(),
        }
    }
}

/// Adds `n` instructions of `cost` cycles to the per-cost `counts`.
#[inline]
fn count(counts: &mut Vec<u64>, cost: u32, n: u64) {
    let c = cost as usize;
    if counts.len() <= c {
        counts.resize(c + 1, 0);
    }
    if let Some(slot) = counts.get_mut(c) {
        *slot += n;
    }
}

/// Replays one segment into one accumulator, where an instruction of `c`
/// cycles adds `w * dt(c)` for each `w` of `watts`, in order: the product
/// `advance_to` forms for a load drawing `w`. `counts` tallies the
/// segment's instructions per cycle cost; `costs` and `runs` are its log.
/// Takes the closed form over `counts` when [`add_counted`] can, and the
/// ordered replay of the log otherwise; returns the new value and whether
/// the closed form ran. Zero-cost instructions add nothing, like
/// `advance_to`'s `dt > 0` gate. `pattern` is scratch.
fn replay_one(
    acc: f64,
    watts: &[Watts],
    counts: &[u64],
    costs: &[u32],
    runs: &[CycleRun],
    pattern: &mut Vec<f64>,
) -> (f64, bool) {
    let terms = (0u32..)
        .zip(counts)
        .skip(1)
        .filter(|&(_, &n)| n > 0)
        .flat_map(|(c, &n)| watts.iter().map(move |&w| (n, delta(w, c))));
    if let Some(acc) = add_counted(acc, terms) {
        return (acc, true);
    }
    let mut acc = acc;
    let mut done = 0;
    for run in runs {
        let before = costs.get(done..run.at).unwrap_or_default();
        acc = add_singles(acc, before, watts);
        done = run.at;
        pattern.clear();
        for c in run.pattern.into_iter().filter(|&c| c != 0) {
            pattern.extend(watts.iter().map(|&w| delta(w, c)));
        }
        acc = repeat_add(acc, pattern, u64::from(run.reps));
    }
    let rest = costs.get(done..).unwrap_or_default();
    (add_singles(acc, rest, watts), false)
}

/// The energy a load drawing `watts` uses over one `cycles`-cycle
/// instruction (1 µs per cycle), formed exactly as `advance_to` forms it.
#[inline]
fn delta(watts: Watts, cycles: u32) -> f64 {
    (watts * SimDuration::from_micros(u64::from(cycles)).as_seconds()).value()
}

/// Adds each single instruction's deltas for `watts` to `acc`, in order.
#[inline]
fn add_singles(mut acc: f64, costs: &[u32], watts: &[Watts]) -> f64 {
    for &c in costs {
        if c == 0 {
            continue; // advance_to's `dt > 0` gate
        }
        for &w in watts {
            acc += delta(w, c);
        }
    }
    acc
}

/// One ledger's staged sleep span inside a [`SleepBatch`].
#[derive(Debug, Clone, Copy)]
struct SleepSpan {
    /// First row of this span in the batch's flat arrays.
    first: usize,
    /// Hot-load rows staged (zero when the span's `dt` was zero).
    rows: usize,
    /// Elapsed seconds, exactly as `advance_to` would have formed it.
    dt: f64,
    /// The ledger clock after the commit.
    end: SimTime,
    /// The ledger's grand total: staged value before
    /// [`SleepBatch::integrate`], final value after (debug builds only
    /// accumulate it, like the ledger's own).
    total: f64,
}

/// Struct-of-arrays batch integrator for many ledgers' sleep spans.
///
/// Many ledgers stage their pending sleep advance
/// ([`PowerLedger::stage_sleep`]) into one pair of flat `watts`/`energy`
/// arrays; [`integrate`](Self::integrate) then runs the whole group's
/// energy accumulation as a single tight loop over those arrays, and each
/// ledger copies its span back with [`PowerLedger::commit_sleep`]. Every
/// span's arithmetic is bit-identical to that ledger calling
/// [`PowerLedger::advance_to`] by itself — same operand values, same
/// operations, same accumulation order, no cross-ledger math — so batching
/// is purely a memory-layout optimization: one cache-friendly pass instead
/// of a pointer-chasing walk per node.
#[derive(Debug, Default)]
pub struct SleepBatch {
    watts: Vec<f64>,
    energy: Vec<f64>,
    spans: Vec<SleepSpan>,
    /// Set once [`integrate`](Self::integrate) has run; staging is only
    /// legal before, committing only after.
    integrated: bool,
}

impl SleepBatch {
    /// Creates an empty batch. Reuse it across passes: `clear` keeps the
    /// allocations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all staged spans, keeping capacity for the next round.
    pub fn clear(&mut self) {
        self.watts.clear();
        self.energy.clear();
        self.spans.clear();
        self.integrated = false;
    }

    /// Number of spans staged this round.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// The grouped integration pass: for every staged span, accumulates
    /// `energy += watts * dt` per row and, in debug builds, folds the same
    /// deltas into the span's grand total — the exact f64 sequence
    /// `advance_to` performs per ledger, laid out as one linear sweep.
    pub fn integrate(&mut self) {
        for span in &mut self.spans {
            let mut total = span.total;
            let rows = self
                .energy
                .iter_mut()
                .skip(span.first)
                .take(span.rows)
                .zip(self.watts.iter().skip(span.first));
            for (e, &w) in rows {
                let delta = w * span.dt;
                *e += delta;
                if cfg!(debug_assertions) {
                    total += delta;
                }
            }
            span.total = total;
        }
        self.integrated = true;
    }
}

/// Per-rail slice of a [`PowerReport`].
#[derive(Debug, Clone)]
pub struct RailReport {
    /// Rail name as registered.
    pub name: String,
    /// Rail voltage at report time.
    pub voltage: Volts,
    /// Total energy drawn from this rail.
    pub energy: Joules,
    /// `(load name, energy)` pairs in registration order.
    pub loads: Vec<(String, Joules)>,
}

/// Snapshot of a [`PowerLedger`]'s accumulated energy accounting.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Simulated time covered by the report.
    pub elapsed: Seconds,
    /// Total energy drawn across all rails.
    pub total_energy: Joules,
    /// `total_energy / elapsed`.
    pub average_power: Watts,
    /// Per-rail breakdowns.
    pub rails: Vec<RailReport>,
}

impl core::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "power report: {:.3} over {:.3} (avg {:.3})",
            self.total_energy, self.elapsed, self.average_power
        )?;
        for rail in &self.rails {
            writeln!(
                f,
                "  rail {:<18} {:>7.3}: {:.6}",
                rail.name, rail.voltage, rail.energy
            )?;
            for (name, energy) in &rail.loads {
                writeln!(f, "    {:<20} {:.9}", name, energy)?;
            }
        }
        Ok(())
    }
}

impl ToJson for RailReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("voltage".into(), self.voltage.to_json()),
            ("energy".into(), self.energy.to_json()),
            ("loads".into(), self.loads.to_json()),
        ])
    }
}

impl FromJson for RailReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: FromJson::from_json(field(value, "name")?)?,
            voltage: FromJson::from_json(field(value, "voltage")?)?,
            energy: FromJson::from_json(field(value, "energy")?)?,
            loads: FromJson::from_json(field(value, "loads")?)?,
        })
    }
}

impl ToJson for PowerReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("elapsed".into(), self.elapsed.to_json()),
            ("total_energy".into(), self.total_energy.to_json()),
            ("average_power".into(), self.average_power.to_json()),
            ("rails".into(), self.rails.to_json()),
        ])
    }
}

impl FromJson for PowerReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            elapsed: FromJson::from_json(field(value, "elapsed")?)?,
            total_energy: FromJson::from_json(field(value, "total_energy")?)?,
            average_power: FromJson::from_json(field(value, "average_power")?)?,
            rails: FromJson::from_json(field(value, "rails")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_piecewise_constant_current() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "radio").unwrap();

        ledger
            .set_load_current(load, Amps::from_milli(1.0))
            .unwrap();
        ledger.advance_to(SimTime::from_millis(10));
        ledger.set_load_current(load, Amps::ZERO).unwrap();
        ledger.advance_to(SimTime::from_secs(10));

        // 1.2 V * 1 mA * 10 ms = 12 µJ
        assert!((ledger.total_energy().micro() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn per_load_breakdown() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(2.0));
        let a = ledger.register_load(rail, "a").unwrap();
        let b = ledger.register_load(rail, "b").unwrap();
        ledger.set_load_current(a, Amps::from_micro(1.0)).unwrap();
        ledger.set_load_current(b, Amps::from_micro(3.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(1));
        assert!((ledger.load_energy(a).unwrap().micro() - 2.0).abs() < 1e-9);
        assert!((ledger.load_energy(b).unwrap().micro() - 6.0).abs() < 1e-9);
        assert!((ledger.rail_energy(rail).unwrap().micro() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rail_voltage_change_applies_forward() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "mcu").unwrap();
        ledger.set_load_current(load, Amps::new(1.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(1)); // 1.2 J
        ledger.set_rail_voltage(rail, Volts::new(1.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(2)); // +1.0 J
        assert!((ledger.total_energy().value() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn average_power_matches_energy_over_time() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        let load = ledger.register_load(rail, "x").unwrap();
        ledger
            .set_load_current(load, Amps::from_micro(2.0))
            .unwrap();
        ledger.advance_to(SimTime::from_secs(100));
        assert!((ledger.average_power().micro() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn average_power_is_zero_at_t0() {
        let ledger = PowerLedger::new();
        assert_eq!(ledger.average_power(), Watts::ZERO);
    }

    #[test]
    fn instantaneous_power_sums_rails() {
        let mut ledger = PowerLedger::new();
        let r1 = ledger.add_rail("a", Volts::new(1.0));
        let r2 = ledger.add_rail("b", Volts::new(2.0));
        let l1 = ledger.register_load(r1, "x").unwrap();
        let l2 = ledger.register_load(r2, "y").unwrap();
        ledger.set_load_current(l1, Amps::new(1.0)).unwrap();
        ledger.set_load_current(l2, Amps::new(1.0)).unwrap();
        assert!((ledger.total_power().value() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn advancing_backwards_panics() {
        let mut ledger = PowerLedger::new();
        ledger.advance_to(SimTime::from_secs(2));
        ledger.advance_to(SimTime::from_secs(1));
    }

    /// Builds a small ledger with an irrationally odd operating point so
    /// any deviation from `advance_to`'s float sequence shows up in the
    /// low bits.
    fn odd_ledger(scale: f64) -> (PowerLedger, LoadId, LoadId) {
        let mut ledger = PowerLedger::new();
        let vbat = ledger.add_rail("VBAT", Volts::new(1.217 * scale));
        let vdd = ledger.add_rail("VDD", Volts::new(2.393));
        let a = ledger.register_load(vbat, "a").unwrap();
        let b = ledger.register_load(vdd, "b").unwrap();
        let z = ledger.register_load(vdd, "gated off").unwrap();
        ledger
            .set_load_current(a, Amps::new(1.0e-3 / 3.0 * scale))
            .unwrap();
        ledger.set_load_current(b, Amps::new(7.7e-6 / 9.0)).unwrap();
        ledger.set_load_current(z, Amps::ZERO).unwrap();
        (ledger, a, b)
    }

    /// Every load's energy, the grand total (debug builds, which alone
    /// accumulate it) and the clock, as raw bits.
    fn ledger_bits(ledger: &PowerLedger) -> (Vec<u64>, Option<u64>, SimTime) {
        let loads = ledger
            .rails
            .iter()
            .flat_map(|r| r.loads.iter())
            .map(|l| l.energy.value().to_bits())
            .collect();
        let total = cfg!(debug_assertions).then(|| ledger.integrated_total.value().to_bits());
        (loads, total, ledger.now())
    }

    #[test]
    fn run_log_replay_matches_per_instruction_advance_to() {
        // Random segments of single instructions and repeated
        // (poll, jump) records, with draw changes between segments (the
        // first ones from all-zero energies), replayed three ways: the
        // run log, its expansion through `advance_deltas`, and one
        // `advance_to` per instruction. All must agree bit for bit.
        let mut rng = crate::SimRng::seed_from(0x10c_1e55);
        let (mut logged, a, b) = odd_ledger(1.0);
        let mut expanded = logged.clone();
        let mut stepped = logged.clone();
        let mut log = CycleLog::new();
        for segment in 0..200 {
            if segment % 7 == 0 {
                let scale = 0.5 + rng.uniform(0.0, 2.0);
                for ledger in [&mut logged, &mut expanded, &mut stepped] {
                    ledger
                        .set_load_current(a, Amps::new(1.0e-3 / 3.0 * scale))
                        .unwrap();
                    ledger
                        .set_load_current(b, Amps::new(scale * 1.0e-4))
                        .unwrap();
                }
            }
            log.clear();
            for _ in 0..rng.index(12) {
                if rng.bernoulli(0.3) {
                    let longest = if rng.bernoulli(0.1) { 5_000 } else { 300 };
                    let reps = 1 + rng.index(longest);
                    log.push_repeated(1 + rng.index(6) as u32, 2, reps as u32);
                } else {
                    log.push(1 + rng.index(6) as u32);
                }
            }
            logged.advance_log(&log);
            let deltas: Vec<u32> = log.iter_insns().collect();
            expanded.advance_deltas(&deltas);
            for c in deltas {
                let t = stepped.now() + SimDuration::from_micros(u64::from(c));
                stepped.advance_to(t);
            }
            assert_eq!(
                ledger_bits(&logged),
                ledger_bits(&stepped),
                "segment {segment}"
            );
            assert_eq!(
                ledger_bits(&expanded),
                ledger_bits(&stepped),
                "segment {segment}"
            );
        }
    }

    fn ulp_of(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1) - x
    }

    /// A current for `load` whose delta over one `cycles`-cycle instruction
    /// is an exact half-ulp tie for an accumulator at `acc`: `(k + ½)` ulps
    /// for the first small `k` some current hits exactly.
    fn tie_current(ledger: &PowerLedger, load: LoadId, cycles: u32, acc: f64) -> Option<Amps> {
        let volts = ledger.rail_voltage(load.rail()).ok()?;
        let dt = SimDuration::from_micros(u64::from(cycles)).as_seconds();
        let u = ulp_of(acc);
        (1..64).find_map(|k| {
            let tie = (k as f64 + 0.5) * u;
            let guess = (tie / (volts.value() * dt.value())).to_bits();
            // Step outwards from the guess, one representable current at
            // a time.
            (0..128)
                .flat_map(|d| [guess + d, guess - 1 - d])
                .map(|bits| Amps::new(f64::from_bits(bits)))
                .find(|&amps| (volts * amps * dt).value() == tie)
        })
    }

    #[test]
    fn order_free_replay_matches_ordered_and_per_instruction() {
        // Random segments replayed three ways: the run log (the closed
        // form over its cost counts where that is exact, the ordered
        // replay otherwise), `advance_deltas` on its expansion, and one
        // `advance_to` per instruction. The generator mixes draw changes,
        // accumulators at +0.0, subnormal and a few ulps under a binade
        // top, exact half-ulp deltas, zero-cost entries and runs of up to
        // 2^20 repetitions.
        let mut rng = crate::SimRng::seed_from(0x0dd_f1ee);
        let (mut logged, a, b) = odd_ledger(1.0);
        let z = logged.register_load(b.rail(), "switched on later").unwrap();
        let mut expanded = logged.clone();
        let mut stepped = logged.clone();
        let mut log = CycleLog::new();
        let segments = 400;
        for segment in 0..segments {
            let mut ledgers = [&mut logged, &mut expanded, &mut stepped];
            match rng.index(16) {
                0 | 1 => {
                    // A draw change; z switches on at +0.0 the first time.
                    let scale = 0.5 + rng.uniform(0.0, 2.0);
                    for ledger in &mut ledgers {
                        ledger
                            .set_load_current(a, Amps::new(1.0e-3 / 3.0 * scale))
                            .unwrap();
                        ledger
                            .set_load_current(z, Amps::new(scale * 2.0e-6))
                            .unwrap();
                    }
                }
                2 => {
                    // A subnormal, a zero or a few ulps under a binade top.
                    let energy = match rng.index(3) {
                        0 => f64::from_bits(1 + rng.next_u64() % (1 << 52)),
                        1 => 0.0,
                        _ => f64::from_bits(
                            (2.0f64.powi(-20 + rng.index(8) as i32)).to_bits()
                                - 1
                                - rng.index(8) as u64,
                        ),
                    };
                    let load = [a, b][rng.index(2)];
                    for ledger in &mut ledgers {
                        ledger.seed_load_energy(load, Joules::new(energy));
                    }
                }
                3 => {
                    // An exact half-ulp delta for b's 3-cycle instructions.
                    let acc = ledgers[0].load_energy(b).unwrap().value();
                    if acc.is_normal() {
                        if let Some(amps) = tie_current(ledgers[0], b, 3, acc) {
                            for ledger in &mut ledgers {
                                ledger.set_load_current(b, amps).unwrap();
                            }
                        }
                    }
                }
                _ => {}
            }
            log.clear();
            if segment == segments / 2 {
                log.push_repeated(1 + rng.index(6) as u32, 2, 1 << 20);
            }
            for _ in 0..rng.index(16) {
                match rng.index(10) {
                    0 => log.push(0),
                    1..=3 => {
                        let reps = match rng.index(8) {
                            0 => 1 + rng.index(5_000),
                            _ => 1 + rng.index(300),
                        };
                        let first = rng.index(7) as u32;
                        log.push_repeated(first, [0, 2][rng.index(2)], reps as u32);
                    }
                    _ => log.push(1 + rng.index(6) as u32),
                }
            }
            logged.advance_log(&log);
            let deltas: Vec<u32> = log.iter_insns().collect();
            expanded.advance_deltas(&deltas);
            for c in deltas {
                let t = stepped.now() + SimDuration::from_micros(u64::from(c));
                stepped.advance_to(t);
            }
            let want = ledger_bits(&stepped);
            assert_eq!(ledger_bits(&logged), want, "segment {segment}");
            assert_eq!(ledger_bits(&expanded), want, "segment {segment}");
        }
        // Both paths carried a real share of the per-load replays, and the
        // log and its expansion chose the same path every time.
        assert_eq!(logged.replays, expanded.replays);
        let ReplayTally { closed, ordered } = logged.replays;
        let all = closed + ordered;
        assert!(
            closed * 2 > all && ordered * 10 > all,
            "closed form {closed}, ordered {ordered} of {all} replays"
        );
    }

    #[test]
    fn sleep_batch_matches_advance_to_bit_for_bit() {
        // Three ledgers at different operating points and span lengths,
        // staged into one batch; a clone of each advances alone. Every
        // energy integral, total, and clock must agree exactly — the
        // batch's contract is bit-identity, not tolerance.
        let mut group: Vec<PowerLedger> = (1..=3)
            .map(|k| {
                let (mut l, _, _) = odd_ledger(k as f64);
                l.advance_to(SimTime::from_nanos(12_345 * k));
                l
            })
            .collect();
        let mut solo = group.clone();
        let ends = [
            SimTime::from_nanos(7_777_777),
            SimTime::from_nanos(12_345 * 2), // dt == 0: clock-only commit
            SimTime::from_secs(3),
        ];

        let mut batch = SleepBatch::new();
        let handles: Vec<usize> = group
            .iter_mut()
            .zip(ends)
            .map(|(ledger, end)| ledger.stage_sleep(end, &mut batch))
            .collect();
        batch.integrate();
        for (ledger, span) in group.iter_mut().zip(handles) {
            ledger.commit_sleep(&batch, span);
        }

        for (ledger, end) in solo.iter_mut().zip(ends) {
            ledger.advance_to(end);
        }
        for (batched, alone) in group.iter().zip(&solo) {
            assert_eq!(batched.now(), alone.now());
            assert_eq!(
                batched.total_energy().value().to_bits(),
                alone.total_energy().value().to_bits(),
                "grand totals must be bit-identical"
            );
            let (br, ar) = (batched.report(), alone.report());
            for (b, a) in br.rails.iter().zip(&ar.rails) {
                for ((_, be), (_, ae)) in b.loads.iter().zip(&a.loads) {
                    assert_eq!(be.value().to_bits(), ae.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn sleep_batch_reuse_after_clear() {
        let (mut ledger, _, _) = odd_ledger(1.0);
        let mut solo = ledger.clone();
        let mut batch = SleepBatch::new();
        for round in 1..=4u64 {
            batch.clear();
            let end = SimTime::from_millis(round * 13);
            let span = ledger.stage_sleep(end, &mut batch);
            assert_eq!(batch.spans(), 1);
            batch.integrate();
            ledger.commit_sleep(&batch, span);
            solo.advance_to(end);
            assert_eq!(
                ledger.total_energy().value().to_bits(),
                solo.total_energy().value().to_bits()
            );
        }
    }

    #[test]
    fn export_metrics_breaks_energy_out_per_rail_and_load() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.0));
        let a = ledger.register_load(rail, "mcu").unwrap();
        let b = ledger.register_load(rail, "radio").unwrap();
        ledger.set_load_current(a, Amps::from_micro(1.0)).unwrap();
        ledger.set_load_current(b, Amps::from_micro(3.0)).unwrap();
        ledger.advance_to(SimTime::from_secs(2));

        let mut metrics = picocube_telemetry::Metrics::new();
        ledger.export_metrics(&mut metrics);
        assert!((metrics.gauge("power.load.VBAT.mcu.uj") - 2.0).abs() < 1e-9);
        assert!((metrics.gauge("power.load.VBAT.radio.uj") - 6.0).abs() < 1e-9);
        assert!((metrics.gauge("power.rail.VBAT.uj") - 8.0).abs() < 1e-9);
        assert!((metrics.gauge("power.total.uj") - 8.0).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sanitizer compiles away in release")]
    #[should_panic(expected = "power ledger unbalanced")]
    fn unbalanced_ledger_trips_the_sanitizer() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", Volts::new(1.2));
        let load = ledger.register_load(rail, "radio").unwrap();
        ledger
            .set_load_current(load, Amps::from_milli(1.0))
            .unwrap();
        ledger.advance_to(SimTime::from_secs(1));
        // Corrupt one integral behind the ledger's back; the next advance
        // must catch the imbalance.
        ledger.unbalance_load_energy(load, Joules::new(1.0));
        ledger.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn sanitizer_accepts_a_balanced_ledger() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        let a = ledger.register_load(rail, "mcu").unwrap();
        let b = ledger.register_load(rail, "sensor").unwrap();
        for step in 1..=1_000u64 {
            ledger
                .set_load_current(a, Amps::from_micro(step as f64))
                .unwrap();
            ledger
                .set_load_current(b, Amps::from_micro(1_000.0 - step as f64))
                .unwrap();
            ledger.advance_to(SimTime::from_millis(step));
        }
        // 1 mA aggregate at 3 V for 1 s = 3 mJ; the two accumulators agree.
        assert!((ledger.total_energy().value() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn foreign_handles_are_rejected_not_panicked() {
        // Handles minted by one ledger must be refused (not panic) when
        // presented to another, emptier ledger.
        let mut big = PowerLedger::new();
        let r0 = big.add_rail("a", Volts::new(1.0));
        let r1 = big.add_rail("b", Volts::new(1.0));
        let l0 = big.register_load(r0, "w").unwrap();
        let l1 = big.register_load(r1, "x").unwrap();

        let mut small = PowerLedger::new();
        small.add_rail("only", Volts::new(1.0));
        assert_eq!(
            small.register_load(r1, "y").unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(
            small.rail_voltage(r1).unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(small.rail_power(r1).unwrap_err(), LedgerError::UnknownRail);
        assert_eq!(small.rail_energy(r1).unwrap_err(), LedgerError::UnknownRail);
        assert_eq!(
            small.set_rail_voltage(r1, Volts::new(2.0)).unwrap_err(),
            LedgerError::UnknownRail
        );
        assert_eq!(
            small.load_current(l1).unwrap_err(),
            LedgerError::UnknownLoad
        );
        assert_eq!(small.load_energy(l1).unwrap_err(), LedgerError::UnknownLoad);
        assert_eq!(
            small.set_load_current(l1, Amps::ZERO).unwrap_err(),
            LedgerError::UnknownLoad
        );
        // A valid rail with an out-of-range load slot is an unknown load.
        assert!(small.rail_voltage(r0).is_ok());
        assert_eq!(
            small.load_current(l0).unwrap_err(),
            LedgerError::UnknownLoad
        );
    }

    #[test]
    fn report_contains_all_loads() {
        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VDD", Volts::new(3.0));
        ledger.register_load(rail, "mcu").unwrap();
        ledger.register_load(rail, "sensor").unwrap();
        let report = ledger.report();
        assert_eq!(report.rails.len(), 1);
        assert_eq!(report.rails[0].loads.len(), 2);
        assert_eq!(report.rails[0].loads[0].0, "mcu");
        let shown = format!("{report}");
        assert!(shown.contains("mcu") && shown.contains("sensor"));
    }
}
