//! Virtual time: the simulation counts processor cycles; these helpers
//! convert between cycles and wall-clock units given a core frequency.

/// Virtual time, measured in processor cycles.
pub type Cycles = u64;

/// `x.ceil() as u64` without a libm call, for every `f64` (NaN, ±∞ and
/// negatives included).
///
/// Baseline x86-64 has no rounding instruction, so `f64::ceil` compiles to
/// an out-of-line call; the cycle arithmetic under every simulated step
/// uses this instead.  `t = x as u64` truncates toward zero and saturates
/// (NaN and negatives give 0, anything from 2⁶⁴ up gives `u64::MAX`), and
/// `t as f64` is exact because a truncated `f64` below 2⁶⁴ is an integer
/// `f64` can hold; so `x` lies above `t` exactly when it has a fraction.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// `x.round() as u64` (half away from zero) without a libm call, for every
/// `f64`.  The fraction `x - t` is exact (Sterbenz: `t ≤ x ≤ 2t` once
/// `x ≥ 1`, and `t = 0` below), so comparing it with ½ decides the
/// rounding exactly; NaN compares false and gives 0, as the cast does.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// Convert seconds of wall-clock time to cycles at `ghz` GHz.
// lint: hot-path
#[inline]
pub fn secs_to_cycles(secs: f64, ghz: f64) -> Cycles {
    round_u64(secs * ghz * 1e9)
}

/// Convert cycles to seconds at `ghz` GHz.
#[inline]
pub fn cycles_to_secs(cycles: Cycles, ghz: f64) -> f64 {
    cycles as f64 / (ghz * 1e9)
}

/// Convert microseconds to cycles at `ghz` GHz.
#[inline]
pub fn micros_to_cycles(micros: f64, ghz: f64) -> Cycles {
    round_u64(micros * ghz * 1e3)
}

/// Convert cycles to microseconds at `ghz` GHz.
#[inline]
pub fn cycles_to_micros(cycles: Cycles, ghz: f64) -> f64 {
    cycles as f64 / (ghz * 1e3)
}

/// Convert a fractional cycle count to microseconds at `ghz` GHz (for
/// averages, where truncating to whole cycles first would lose precision).
#[inline]
pub fn frac_cycles_to_micros(cycles: f64, ghz: f64) -> f64 {
    cycles / (ghz * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both helpers against the libm rounding they replace, at `x`.
    fn assert_libm_equal(x: f64) {
        assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil_u64({x:e})");
        assert_eq!(round_u64(x), x.round() as u64, "round_u64({x:e})");
    }

    #[test]
    fn rounding_helpers_match_libm_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            0.25,
            0.5,
            0.5f64.next_down(),
            0.5f64.next_up(),
            0.75,
            1.0,
            1.5,
            2.5,
            3.5,
            4_503_599_627_370_495.5, // 2⁵² − ½: the last representable half
            two52 - 1.0,
            two52,
            two52 + 1.0,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 2.0,
            (1u64 << 63) as f64,
            18_446_744_073_709_551_616.0, // 2⁶⁴
            u64::MAX as f64,
            u64::MAX as f64 * 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.25,
            -0.5,
            -0.75,
            -1.0,
            -1.5,
            -2.5,
            -1e300,
            f64::MIN,
        ];
        for x in edges {
            assert_libm_equal(x);
        }
        assert_eq!(round_u64(2.5), 3, "halves round away from zero");
        assert_eq!(ceil_u64(f64::from_bits(1)), 1);
        assert_eq!(ceil_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_u64(f64::NAN), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Every bit pattern, and integers and halves near it: the helpers
        /// equal `x.ceil() as u64` and `x.round() as u64`.
        #[test]
        fn rounding_helpers_match_libm_on_random_bit_patterns(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(ceil_u64(x), x.ceil() as u64);
            prop_assert_eq!(round_u64(x), x.round() as u64);
            // Random bits are mostly huge or tiny; these land in the
            // range the simulation's cycle counts live in.
            let near = (bits >> (11 + bits % 53)) as f64;
            for y in [near, near + 0.5, near - 0.5, near + 0.25, (near + 0.5).next_down()] {
                prop_assert_eq!(ceil_u64(y), y.ceil() as u64);
                prop_assert_eq!(round_u64(y), y.round() as u64);
            }
        }
    }

    #[test]
    fn roundtrip_seconds() {
        let ghz = 2.4;
        let c = secs_to_cycles(1.0, ghz);
        assert_eq!(c, 2_400_000_000);
        let s = cycles_to_secs(c, ghz);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_micros() {
        let ghz = 2.4;
        let c = micros_to_cycles(10.0, ghz);
        assert_eq!(c, 24_000);
        assert!((cycles_to_micros(c, ghz) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(secs_to_cycles(0.0, 2.4), 0);
        assert_eq!(cycles_to_secs(0, 2.4), 0.0);
    }
}
