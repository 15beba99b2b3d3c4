//! The power-switch board: the power train (COTS chain or §7.1 IC) plus
//! the load switches that gate every rail (§4.3).

use super::NodeFault;
use crate::node::PowerChainKind;
use picocube_power::converter_ic::PowerInterfaceIc;
use picocube_power::cots::CotsPowerChain;
use picocube_telemetry::{keys, Metrics};
use picocube_units::{Amps, Celsius, Volts, Watts};
use std::collections::VecDeque;

enum Chain {
    Cots(Box<CotsPowerChain>),
    Ic(Box<PowerInterfaceIc>),
}

/// Battery-side currents solved for one load point: what each registered
/// ledger load should carry, plus the VDD the chain delivers there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RailSolve {
    /// Chain quiescent/standby current, including open-switch leakage.
    pub overhead: Amps,
    /// The always-on VDD rail demand reflected to the battery side.
    pub vdd_reflected: Amps,
    /// The radio digital rail demand reflected to the battery side.
    pub digital: Amps,
    /// The RF rail demand at the battery.
    pub rf: Amps,
    /// The VDD delivered at this operating point.
    pub vdd_out: Volts,
}

/// Exact-bit key identifying one rail operating point: the raw IEEE bits
/// of the electrical inputs plus the switch states. Two calls with equal
/// keys present byte-identical inputs to the (pure) solvers, so replaying
/// a cached [`RailSolve`] is bit-invisible. The "vbat bucket" is the
/// identity bucket — no quantization, no tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpKey {
    vbat: u64,
    i_vdd: u64,
    i_rf: u64,
    spi_on: bool,
    pa_on: bool,
}

/// Memo-cache capacity. A node cycles through a handful of operating
/// points per wake (sleep, active, SPI burst, PA window), all at one
/// settled VBAT; 32 covers several wakes of drift with room to spare.
const OP_CACHE_CAP: usize = 32;

/// The switch board: routes battery power to the other boards through the
/// selected power train, and models the gating the board exists for.
pub(crate) struct SwitchBoard {
    chain: Chain,
    ungated_rf_ldo: bool,
    /// Solved operating points, most-recently-used first, scanned
    /// linearly: the hit is almost always at the front, eviction order is
    /// fixed (pop the back), and lint L3 keeps `HashMap` out of the
    /// deterministic core anyway. A ring buffer, so filing a miss at the
    /// front shifts nothing, and a hit shifts only the entries ahead of it.
    op_cache: VecDeque<(OpKey, RailSolve)>,
    op_cache_hits: u64,
    op_cache_misses: u64,
}

impl core::fmt::Debug for SwitchBoard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SwitchBoard")
            .field(
                "chain",
                &match self.chain {
                    Chain::Cots(_) => "Cots",
                    Chain::Ic(_) => "Ic",
                },
            )
            .field("ungated_rf_ldo", &self.ungated_rf_ldo)
            .finish_non_exhaustive()
    }
}

impl SwitchBoard {
    pub(super) fn new(kind: PowerChainKind, ungated_rf_ldo: bool) -> Self {
        let chain = match kind {
            PowerChainKind::Cots => Chain::Cots(Box::new(CotsPowerChain::paper())),
            PowerChainKind::IntegratedIc => Chain::Ic(Box::new(PowerInterfaceIc::paper())),
        };
        Self {
            chain,
            ungated_rf_ldo,
            op_cache: VecDeque::with_capacity(OP_CACHE_CAP),
            op_cache_hits: 0,
            op_cache_misses: 0,
        }
    }

    /// Routes harvested power through the chain's rectifier; an interval
    /// whose operating point does not solve delivers nothing.
    pub(super) fn harvest(&self, raw: Watts, vbat: Volts) -> Watts {
        match &self.chain {
            Chain::Cots(c) => c.harvest(raw, vbat).unwrap_or(Watts::ZERO),
            Chain::Ic(ic) => ic.harvest(raw, vbat).unwrap_or(Watts::ZERO),
        }
    }

    /// Solves the battery-side currents for the present load point: `i_vdd`
    /// on the always-on rail, `i_rf` demanded by the PA, with the SPI and
    /// PA switch states selecting which converters are live.
    ///
    /// Memoized: a previously solved operating point (exact-bit [`OpKey`])
    /// replays its [`RailSolve`] without re-running the converter models —
    /// the IC chain's log-space bisection runs once per *distinct* point
    /// instead of once per transition. Failed solves are not cached, so a
    /// fault reproduces on every attempt.
    ///
    /// # Errors
    ///
    /// Returns [`NodeFault::PowerChain`] when a converter's operating point
    /// fails to solve — the electrical model was driven outside its domain.
    pub(super) fn rails(
        &mut self,
        vbat: Volts,
        i_vdd: Amps,
        spi_on: bool,
        pa_on: bool,
        i_rf: Amps,
    ) -> Result<RailSolve, NodeFault> {
        let key = OpKey {
            vbat: vbat.value().to_bits(),
            i_vdd: i_vdd.value().to_bits(),
            i_rf: i_rf.value().to_bits(),
            spi_on,
            pa_on,
        };
        if let Some(pos) = self.op_cache.iter().position(|(k, _)| *k == key) {
            // Move-to-front keeps the scan short and the eviction order a
            // pure function of the node's own (deterministic) call history.
            if let Some(hit) = self.op_cache.remove(pos) {
                self.op_cache_hits += 1;
                self.op_cache.push_front(hit);
                return Ok(hit.1);
            }
        }
        let solve = self.solve_rails(vbat, i_vdd, spi_on, pa_on, i_rf)?;
        self.op_cache_misses += 1;
        if self.op_cache.len() == OP_CACHE_CAP {
            self.op_cache.pop_back();
        }
        self.op_cache.push_front((key, solve));
        Ok(solve)
    }

    /// The uncached solver behind [`SwitchBoard::rails`].
    fn solve_rails(
        &self,
        vbat: Volts,
        i_vdd: Amps,
        spi_on: bool,
        pa_on: bool,
        i_rf: Amps,
    ) -> Result<RailSolve, NodeFault> {
        match &self.chain {
            Chain::Cots(chain) => {
                let base = chain
                    .supply_mcu(vbat, i_vdd)
                    .map_err(|_| NodeFault::PowerChain {
                        rail: "pump operating point",
                    })?;
                let vdd_out = base.vout;
                let quiescent = base.iin - Amps::new(chain.pump().gain() * i_vdd.value());
                // Radio digital rail: GPIO at VDD through the shunt, which
                // reflects through the pump.
                let digital = if spi_on {
                    let shunt_op = chain
                        .supply_radio_digital(vdd_out, Amps::from_micro(300.0))
                        .map_err(|_| NodeFault::PowerChain {
                            rail: "shunt operating point",
                        })?;
                    Amps::new(chain.pump().gain() * shunt_op.iin.value())
                } else {
                    Amps::ZERO
                };
                let rf = if pa_on {
                    chain
                        .supply_radio_rf(vbat, i_rf)
                        .map_err(|_| NodeFault::PowerChain {
                            rail: "rf rail operating point",
                        })?
                        .iin
                } else if self.ungated_rf_ldo {
                    // Ablation: the LT3020's ground current burns even with
                    // the radio idle — the loss the switch board exists to
                    // eliminate.
                    Amps::from_micro(120.0)
                } else {
                    Amps::ZERO
                };
                let leakage = Amps::from_nano(30.0); // three open load switches
                Ok(RailSolve {
                    overhead: quiescent + leakage,
                    vdd_reflected: Amps::new(chain.pump().gain() * i_vdd.value()),
                    digital,
                    rf,
                    vdd_out,
                })
            }
            Chain::Ic(ic) => {
                let standby = ic.standby_current(Celsius::new(25.0), vbat);
                let op = ic
                    .supply_mcu(vbat, i_vdd)
                    .map_err(|_| NodeFault::PowerChain {
                        rail: "1:2 converter operating point",
                    })?;
                let vdd_out = op.vout;
                let digital = if spi_on {
                    // The shunt still hangs off a GPIO; its draw reflects
                    // through the 1:2 converter at roughly 2×.
                    let gpio = (vdd_out - Volts::new(1.0)) / picocube_units::Ohms::new(2_200.0);
                    Amps::new(2.0 * gpio.value())
                } else {
                    Amps::ZERO
                };
                let rf = if pa_on {
                    ic.supply_radio(vbat, i_rf)
                        .map_err(|_| NodeFault::PowerChain {
                            rail: "3:2 converter operating point",
                        })?
                        .battery_current()
                } else {
                    Amps::ZERO
                };
                Ok(RailSolve {
                    overhead: standby,
                    vdd_reflected: op.iin,
                    digital,
                    rf,
                    vdd_out,
                })
            }
        }
    }

    /// Publishes the board's lifetime telemetry under `board.switch.*`.
    pub(super) fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.inc(keys::BOARD_SWITCH_OP_CACHE_HITS, self.op_cache_hits);
        metrics.inc(keys::BOARD_SWITCH_OP_CACHE_MISSES, self.op_cache_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The discrete load tuples a node cycles through: sleep, active, the
    /// SPI burst, the PA window, and a PA tail with the bus released.
    /// Drawing from a small pool guarantees the randomized sequences
    /// revisit keys, exercising cache hits (including the post-brownout
    /// `force` path, which re-solves an already-seen operating point).
    fn op_point(idx: usize) -> (Amps, bool, bool, Amps) {
        match idx % 5 {
            0 => (Amps::from_micro(0.6), false, false, Amps::ZERO),
            1 => (Amps::from_micro(300.0), false, false, Amps::ZERO),
            2 => (Amps::from_micro(350.0), true, false, Amps::ZERO),
            3 => (Amps::from_micro(350.0), true, true, Amps::from_micro(420.0)),
            _ => (
                Amps::from_micro(300.0),
                false,
                true,
                Amps::from_micro(420.0),
            ),
        }
    }

    fn assert_bit_identical(expected: &RailSolve, actual: &RailSolve) {
        for (e, a, rail) in [
            (
                expected.overhead.value(),
                actual.overhead.value(),
                "overhead",
            ),
            (
                expected.vdd_reflected.value(),
                actual.vdd_reflected.value(),
                "vdd_reflected",
            ),
            (expected.digital.value(), actual.digital.value(), "digital"),
            (expected.rf.value(), actual.rf.value(), "rf"),
            (expected.vdd_out.value(), actual.vdd_out.value(), "vdd_out"),
        ] {
            assert_eq!(
                e.to_bits(),
                a.to_bits(),
                "{rail}: cached {a} != uncached {e}"
            );
        }
    }

    /// The cache policy as it stood on a plain `Vec`: a hit moves to the
    /// front by `remove` + `insert(0)`, a successful miss is filed by
    /// `insert(0)` + `truncate`. The ring buffer must reproduce its
    /// hit/miss sequence exactly, because the goldens pin the counts.
    #[derive(Default)]
    struct VecLru(Vec<OpKey>);

    impl VecLru {
        /// Looks `key` up; `Some(true)` on a hit, `Some(false)` on a miss
        /// that is filed, `None` on a miss whose solve failed.
        fn access(&mut self, key: OpKey, solves: bool) -> Option<bool> {
            if let Some(pos) = self.0.iter().position(|k| *k == key) {
                let hit = self.0.remove(pos);
                self.0.insert(0, hit);
                Some(true)
            } else if solves {
                self.0.insert(0, key);
                self.0.truncate(OP_CACHE_CAP);
                Some(false)
            } else {
                None
            }
        }
    }

    proptest! {
        #[test]
        fn cached_and_uncached_rails_agree_bitwise(
            use_ic in prop::bool::ANY,
            ungated in prop::bool::ANY,
            wide in prop::bool::ANY,
            seq in prop::collection::vec((0usize..5, 0usize..12), 1..200),
        ) {
            let kind = if use_ic {
                PowerChainKind::IntegratedIc
            } else {
                PowerChainKind::Cots
            };
            let mut board = SwitchBoard::new(kind, ungated);
            let mut reference = VecLru::default();
            // Three settled VBAT levels: within one wake the battery does
            // not move, so real call streams repeat exact vbat bits too.
            // The wide pool's 60 operating points overflow the cache, so
            // its eviction order is exercised as well.
            let pool = if wide { 12 } else { 3 };
            for &(op_idx, vbat_idx) in &seq {
                let (i_vdd, spi_on, pa_on, i_rf) = op_point(op_idx);
                let vbat = Volts::new(1.18 + 0.013 * (vbat_idx % pool) as f64);
                let expected = board.solve_rails(vbat, i_vdd, spi_on, pa_on, i_rf);
                let hits = board.op_cache_hits;
                let misses = board.op_cache_misses;
                let actual = board.rails(vbat, i_vdd, spi_on, pa_on, i_rf);
                let key = OpKey {
                    vbat: vbat.value().to_bits(),
                    i_vdd: i_vdd.value().to_bits(),
                    i_rf: i_rf.value().to_bits(),
                    spi_on,
                    pa_on,
                };
                let outcome = match (board.op_cache_hits - hits, board.op_cache_misses - misses) {
                    (1, 0) => Some(true),
                    (0, 1) => Some(false),
                    _ => None,
                };
                prop_assert_eq!(
                    outcome,
                    reference.access(key, expected.is_ok()),
                    "hit/miss order departs from the Vec policy"
                );
                match (expected, actual) {
                    (Ok(e), Ok(a)) => assert_bit_identical(&e, &a),
                    (e, a) => prop_assert_eq!(
                        e.is_err(),
                        a.is_err(),
                        "cached and uncached paths disagree on solvability"
                    ),
                }
            }
            let cached: Vec<OpKey> = board.op_cache.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(cached, reference.0, "cache order departs from the Vec policy");
            // Every call is accounted a hit or a miss, and the cache stays
            // within its fixed bound (deterministic eviction).
            prop_assert_eq!(
                board.op_cache_hits + board.op_cache_misses,
                seq.len() as u64
            );
            prop_assert!(board.op_cache.len() <= OP_CACHE_CAP);
            // Distinct keys are bounded by 5 load tuples x 3 vbats, so any
            // longer sequence must have produced hits.
            if !wide && seq.len() > 15 {
                prop_assert!(board.op_cache_hits > 0, "no cache hits in {} calls", seq.len());
            }
        }
    }
}
