//! Exact repeated addition: `k` passes of a short addend pattern in
//! closed form, bit-identical to adding one element at a time.
//!
//! Take a positive normal accumulator `x` in the binade `[2^e, 2^(e+1))`,
//! where every double is a multiple of `u = ulp(x)`. Adding a positive
//! normal `a` rounds the exact sum `x + a` to the nearest multiple of
//! `u`. While the sum stays below `2^(e+1)` that is `x + r·u`, with
//! `r = round(a / u)` independent of `x` — unless `a / u` is an exact
//! half-integer, where ties-to-even makes the result follow the last bit
//! of `x`. So while no addend of the pattern is such a tie and the
//! accumulator stays inside its binade, one pass adds exactly
//! `S = Σ r_j` ulps, and `k` passes add `k·S`: integer arithmetic on the
//! mantissa. Every other case (ties, passes that would leave the binade,
//! zero / subnormal / negative / non-finite operands) takes plain
//! stepwise adds, and the closed form resumes in the new binade.
//!
//! The same argument makes a whole multiset of adds order-free: inside
//! one binade and away from ties, each add contributes its own `r` ulps
//! whatever the accumulator holds, so every order of `n_j` adds of each
//! `a_j` adds `Σ n_j·r_j` ulps. No `r` is negative, so the partial sums
//! only grow, and a final mantissa at or below the binade's top keeps
//! every one of them inside it. [`add_counted`] takes that closed form or
//! declines; it never steps.

/// Fraction bits of an `f64`.
const FRAC_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
const IMPLICIT: u64 = 1 << FRAC_BITS;
/// Largest mantissa (implicit bit included) inside one binade.
const TOP: u64 = (1 << (FRAC_BITS + 1)) - 1;

/// `acc` plus `reps` passes over `pattern`, bit-identical to
/// `for _ in 0..reps { for &a in pattern { acc += a } }`.
pub(crate) fn repeat_add(acc: f64, pattern: &[f64], reps: u64) -> f64 {
    repeat_add_counted(acc, pattern, reps).0
}

/// [`repeat_add`] that also reports how many passes took the closed form.
fn repeat_add_counted(mut acc: f64, pattern: &[f64], mut reps: u64) -> (f64, u64) {
    let mut closed = 0;
    while reps > 0 {
        if let Some((exp, mant)) = split(acc) {
            if let Some(per_pass) = ulps_per_pass(pattern, exp) {
                // Passes whose every partial sum stays at or below the
                // binade's top mantissa: then each exact sum is below
                // `2^(e+1)` and rounds as predicted.
                let fit = match (TOP - mant).checked_div(per_pass) {
                    Some(room) => room.min(reps),
                    None => reps, // every addend rounds away: acc is fixed
                };
                if fit > 0 {
                    acc = join(exp, mant + fit * per_pass);
                    reps -= fit;
                    closed += fit;
                    continue;
                }
            }
        }
        for &a in pattern {
            acc += a;
        }
        reps -= 1;
    }
    (acc, closed)
}

/// `acc` plus `n` adds of `a` for every `(n, a)` of `terms`, bit-identical
/// to performing those adds one at a time in any order, or `None` where
/// the order could matter: `acc` is not a positive normal, some `a` is a
/// tie or not a positive normal, or the sum would leave `acc`'s binade.
pub(crate) fn add_counted(acc: f64, terms: impl IntoIterator<Item = (u64, f64)>) -> Option<f64> {
    let (exp, mant) = split(acc)?;
    let mut sum = 0u64;
    for (n, a) in terms {
        sum = sum.checked_add(n.checked_mul(ulps(a, exp)?)?)?;
    }
    let mant = mant.checked_add(sum).filter(|&m| m <= TOP)?;
    Some(join(exp, mant))
}

/// The biased exponent and the mantissa (implicit bit included) of a
/// positive normal `acc`; `None` for any other value.
fn split(acc: f64) -> Option<(u64, u64)> {
    (acc.is_normal() && acc > 0.0).then(|| {
        let bits = acc.to_bits();
        (bits >> FRAC_BITS, (bits & FRAC_MASK) | IMPLICIT)
    })
}

/// The positive normal with biased exponent `exp` and mantissa `mant`
/// (at most [`TOP`]).
fn join(exp: u64, mant: u64) -> f64 {
    f64::from_bits((exp << FRAC_BITS) | (mant & FRAC_MASK))
}

/// Ulps one pass over `pattern` adds to an accumulator in the binade of
/// biased exponent `exp`, or `None` where some addend's rounding depends
/// on the accumulator (or is not a positive normal).
fn ulps_per_pass(pattern: &[f64], exp: u64) -> Option<u64> {
    pattern
        .iter()
        .try_fold(0u64, |sum, &a| sum.checked_add(ulps(a, exp)?))
}

/// `round(a / u)` for the ulp `u` of binade `exp`, or `None` when `a` is
/// not a positive normal, lands on an exact half-ulp tie, or is so large
/// that one add leaves the binade anyway.
fn ulps(a: f64, exp: u64) -> Option<u64> {
    let bits = a.to_bits();
    // The sign bit lands in `a_exp` too, so a negative `a`, like an
    // infinite or NaN one, reads as at least `exp`.
    let a_exp = bits >> FRAC_BITS;
    if a_exp == 0 || a_exp >= exp {
        return None; // zero or subnormal, or a >= 2^e: one add leaves the binade
    }
    let mant = (bits & FRAC_MASK) | IMPLICIT;
    // a / u = mant / 2^shift.
    let shift = exp - a_exp;
    if shift > u64::from(FRAC_BITS) + 2 {
        return Some(0); // a < u/4: rounds away, never a tie
    }
    let quot = mant >> shift;
    let rem = mant & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    // Branch-free rounding: which side of the half a delta's remainder
    // falls on varies from cost to cost, so a branch on it mispredicts.
    (rem != half).then_some(quot + u64::from(rem > half))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn stepwise(mut acc: f64, pattern: &[f64], reps: u64) -> f64 {
        for _ in 0..reps {
            for &a in pattern {
                acc += a;
            }
        }
        acc
    }

    /// Checks the closed form against the stepwise loop bit for bit and
    /// returns how many passes took the closed form.
    fn check(acc: f64, pattern: &[f64], reps: u64) -> u64 {
        let (got, closed) = repeat_add_counted(acc, pattern, reps);
        let want = stepwise(acc, pattern, reps);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "acc {acc:e} ({:#x}), pattern {pattern:?}, reps {reps}: got {got:e}, want {want:e}",
            acc.to_bits()
        );
        closed
    }

    fn ulp_of(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1) - x
    }

    #[test]
    fn plain_runs_take_the_closed_form() {
        // A wake-burst-like replay: µJ-scale energy, pJ-scale steps.
        let closed = check(1.234_567e-3, &[4.1e-12, 2.05e-12], 100_000);
        assert_eq!(closed, 100_000);
        // Patterns of one to eight entries.
        for len in 1..=8 {
            let pattern: Vec<f64> = (0..len).map(|i| 1.0e-9 * (1.0 + i as f64 / 7.0)).collect();
            assert!(check(0.75, &pattern, 777) > 0, "len {len}");
        }
    }

    #[test]
    fn half_ulp_ties_fall_back() {
        let acc = 1.5;
        let u = ulp_of(acc);
        // Exactly half an ulp, and 3.5 ulps: both round by the last bit.
        for tie in [u / 2.0, 3.5 * u] {
            assert_eq!(check(acc, &[tie], 1_000), 0, "tie {tie:e}");
            assert_eq!(check(acc + u, &[tie], 999), 0);
            assert_eq!(check(acc, &[u, tie], 333), 0);
        }
        // A hair off the tie is predictable again.
        let near = f64::from_bits((u / 2.0).to_bits() + 1);
        assert!(check(acc, &[near], 1_000) > 0);
    }

    #[test]
    fn binade_crossings_mid_run_resume_in_the_next_binade() {
        // Start a few steps below 2.0 with steps of many ulps: the run
        // crosses into [2, 4) (and the ulp doubles) partway through.
        let u = ulp_of(1.0);
        let start = 2.0 - 1_000.0 * u;
        let closed = check(start, &[3.3 * u, 7.1 * u], 5_000);
        assert!(closed > 0 && closed < 5_000, "closed {closed}");
        // The top mantissa of a binade, and the largest finite double.
        check(f64::from_bits(2.0f64.to_bits() - 1), &[0.3 * u], 50);
        check(f64::MAX, &[1.0e300], 3);
        check(f64::MAX, &[1.0], 10);
        // Crossing many binades.
        check(1.0e-12, &[1.0e-13, 3.0e-13], 200_000);
    }

    #[test]
    fn degenerate_operands_fall_back() {
        let sub = f64::from_bits(1234);
        for acc in [0.0, -0.0, sub, -1.0, f64::INFINITY, f64::NAN, -sub] {
            check(acc, &[1.0e-9, 2.5e-9], 300);
        }
        for bad in [
            0.0,
            -0.0,
            -1.0e-9,
            sub,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(check(1.0, &[1.0e-9, bad], 300), 0, "addend {bad:e}");
            check(0.0, &[bad, 1.0e-9], 300);
        }
        // An accumulator of +0.0 steps once, then runs in closed form,
        // stepping again only where it crosses into the next binade.
        let closed = check(0.0, &[1.0e-9, 2.0e-9], 1_000);
        assert!((980..1_000).contains(&closed), "closed {closed}");
        // Empty pattern, zero reps.
        check(1.0, &[], 10);
        check(1.0, &[1.0], 0);
    }

    #[test]
    fn large_k_of_negligible_addends_keeps_the_accumulator() {
        // Far below half an ulp: every add rounds away.
        assert_eq!(check(1.0, &[1.0e-20, 3.0e-19], 1 << 20), 1 << 20);
    }

    /// An addend relative to `acc`: mixes tiny, ulp-scale (with ties),
    /// large, and degenerate values.
    fn addend(rng: &mut SimRng, acc: f64) -> f64 {
        let scale = if acc.is_normal() {
            ulp_of(acc.abs())
        } else {
            1.0e-300
        };
        match rng.index(10) {
            0 => (rng.index(64) as f64 + 0.5) * scale, // exact tie
            1 => rng.index(4_096) as f64 * scale,      // whole ulps (or 0)
            2 => rng.uniform(0.0, 1.0) * scale * 2f64.powi(rng.index(40) as i32),
            3 => rng.uniform(0.0, 1.0) * scale / 2f64.powi(rng.index(60) as i32),
            4 => [
                0.0,
                -0.0,
                -scale,
                f64::NAN,
                f64::INFINITY,
                f64::from_bits(7),
            ][rng.index(6)],
            5 => rng.uniform(0.0, 1.0) * acc.abs().max(1.0e-300) * 1.0e-3,
            _ => rng.uniform(0.0, 64.0) * scale,
        }
    }

    #[test]
    fn counted_adds_in_closed_form_match_every_order() {
        // Random multisets of adds, performed stepwise grouped in order,
        // grouped in reverse and round-robin; where `add_counted` answers,
        // all three agree with it bit for bit.
        let mut rng = SimRng::seed_from(0x0dd5_f4ee);
        let (mut answered, cases) = (0, 2_000);
        for _ in 0..cases {
            let acc = match rng.index(6) {
                0 => 0.0,
                1 => f64::from_bits(2.0f64.to_bits() - 1 - rng.index(4_096) as u64),
                _ => rng.uniform(1.0e-9, 1.0e-2),
            };
            let terms: Vec<(u64, f64)> = (0..1 + rng.index(12))
                .map(|_| {
                    let a = match rng.index(8) {
                        0 => addend(&mut rng, acc),
                        _ => rng.uniform(0.0, 64.0) * ulp_of(acc.max(1.0e-300)),
                    };
                    (rng.index(2_000) as u64, a)
                })
                .collect();
            let Some(got) = add_counted(acc, terms.iter().copied()) else {
                continue;
            };
            answered += 1;
            let forward = terms
                .iter()
                .fold(acc, |acc, &(n, a)| stepwise(acc, &[a], n));
            let backward = terms
                .iter()
                .rev()
                .fold(acc, |acc, &(n, a)| stepwise(acc, &[a], n));
            let mut round_robin = acc;
            for k in 0..terms.iter().map(|&(n, _)| n).max().unwrap_or(0) {
                for &(n, a) in &terms {
                    if k < n {
                        round_robin += a;
                    }
                }
            }
            for want in [forward, backward, round_robin] {
                assert_eq!(got.to_bits(), want.to_bits(), "acc {acc:e}, {terms:?}");
            }
        }
        assert!(
            answered > cases / 5,
            "closed form answered {answered}/{cases}"
        );
    }

    #[test]
    fn counted_adds_decline_where_order_could_matter() {
        let u = ulp_of(1.5);
        // A tie, a zero or subnormal accumulator, a sum that leaves the
        // binade, and addends that are not positive normals.
        assert_eq!(add_counted(1.5, [(3, u), (1, 2.5 * u)]), None);
        assert_eq!(add_counted(0.0, [(3, u)]), None);
        assert_eq!(add_counted(f64::from_bits(9), [(3, u)]), None);
        assert_eq!(add_counted(2.0 - 4.0 * u, [(2, u), (1, 2.0 * u)]), None);
        for bad in [0.0, -u, f64::from_bits(9), f64::INFINITY, f64::NAN] {
            assert_eq!(add_counted(1.5, [(1, bad)]), None, "addend {bad:e}");
        }
        // Landing exactly on the binade's top mantissa still fits; no
        // adds at all leave the accumulator as it is.
        let top = f64::from_bits(2.0f64.to_bits() - 1);
        assert_eq!(
            add_counted(2.0 - 4.0 * u, [(1, u), (1, 2.0 * u)]),
            Some(top)
        );
        assert_eq!(add_counted(1.5, []), Some(1.5));
    }

    #[test]
    fn random_runs_match_stepwise_bit_for_bit() {
        let mut rng = SimRng::seed_from(0x5eed_c10f);
        let mut closed_cases = 0;
        let cases = 3_000;
        for _ in 0..cases {
            let acc = match rng.index(8) {
                0 => 0.0,
                1 => f64::from_bits(rng.next_u64() & FRAC_MASK), // subnormal or 0
                // The last few mantissas of a binade.
                2 => f64::from_bits(2.0f64.to_bits() - 1 - rng.index(64) as u64),
                3 => f64::from_bits((rng.next_u64() >> 2) | (1 << 61)), // wide exponents
                _ => rng.uniform(1.0e-9, 1.0e-2),
            };
            let len = 1 + rng.index(8);
            let pattern: Vec<f64> = (0..len).map(|_| addend(&mut rng, acc)).collect();
            let reps = match rng.index(4) {
                0 => 1 + rng.index(3) as u64,
                1 => 1 + rng.index(20_000) as u64,
                _ => 1 + rng.index(300) as u64,
            };
            if check(acc, &pattern, reps) > 0 {
                closed_cases += 1;
            }
        }
        // The generator must exercise the closed form, not only fallbacks.
        assert!(
            closed_cases > cases / 5,
            "closed form hit {closed_cases}/{cases}"
        );
    }
}
