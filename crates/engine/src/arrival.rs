//! Open-loop arrival processes.
//!
//! The closed-loop executor measures *capacity*: clients submit as fast as
//! the engine commits, so the system is always exactly saturated.  Open
//! loop decouples the two — transactions arrive on their own schedule,
//! whether or not the engine keeps up — which is the only way to observe
//! overload: queueing delay, admission rejections, and goodput past
//! saturation (the regime the paper's coordination-free design targets).
//!
//! An [`ArrivalProcess`] is a deterministic description of offered load:
//! Poisson arrivals at a constant rate in transactions per virtual second.
//! Load that varies over a run is a sequence of `SetArrivalRate` /
//! `SetArrivalProcess` scenario events, each installing a new rate.  Each
//! arrival is one exponential step drawn from the executor's dedicated
//! arrival RNG, so a run's arrival sequence depends only on the seed and
//! the rates — never on how fast the engine happens to serve — and stays
//! bit-reproducible.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A description of offered load: how transaction arrivals are spread over
/// virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// A homogeneous Poisson process: independent exponential
    /// inter-arrival gaps at a constant mean rate.
    Poisson {
        /// Mean arrival rate in transactions per virtual second.
        rate_tps: f64,
    },
}

impl ArrivalProcess {
    /// Check the parameters describe a well-formed process.
    pub fn validate(&self) -> Result<(), String> {
        let ArrivalProcess::Poisson { rate_tps } = *self;
        if rate_tps.is_finite() && rate_tps > 0.0 {
            Ok(())
        } else {
            Err(format!(
                "rate_tps must be a positive finite number, got {rate_tps}"
            ))
        }
    }

    /// Draw the next arrival strictly after `after_secs`: one exponential
    /// gap at the process's rate, from one uniform draw of `rng`.
    /// Deterministic given the RNG state; consumes RNG draws independently
    /// of engine speed.
    ///
    /// The returned time is *strictly* greater than `after_secs`: the gap
    /// mapping never yields zero (see `exponential_gap`), and adding a
    /// sub-ulp gap that would vanish in the `f64` addition instead advances
    /// to the next representable instant.
    pub fn next_arrival_secs(&self, after_secs: f64, rng: &mut SmallRng) -> f64 {
        let ArrivalProcess::Poisson { rate_tps } = *self;
        let u: f64 = rng.gen_range(0.0..1.0);
        let t = after_secs + exponential_gap(u, rate_tps);
        if t > after_secs {
            t
        } else {
            after_secs.next_up()
        }
    }
}

/// Map a uniform draw `u ∈ [0, 1)` to a strictly positive exponential
/// inter-arrival gap with mean `1/rate` seconds.
///
/// The natural inversion `-ln(1 - u) / rate` is finite for every `u` the
/// generator can produce (flipping to `1 - u ∈ (0, 1]` keeps `ln` off the
/// `ln(0)` pole) — but at `u = 0.0` exactly it returns a *zero* gap,
/// which broke `next_arrival_secs`'s strictly-after contract.  That one
/// measure-zero input is remapped to the smallest nonzero draw the
/// 53-bit generator can produce (`2⁻⁵³`), so the gap distribution is
/// unchanged everywhere else and every committed experiment reproduces
/// bit-identically.
fn exponential_gap(u: f64, rate: f64) -> f64 {
    // The smallest nonzero value of a 53-bit uniform draw.
    const MIN_UNIFORM: f64 = 1.0 / (1u64 << 53) as f64;
    let u = if u > 0.0 { u } else { MIN_UNIFORM };
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_count(p: &ArrivalProcess, horizon: f64, seed: u64) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = 0.0;
        let mut n = 0;
        loop {
            t = p.next_arrival_secs(t, &mut rng);
            if t >= horizon {
                return n;
            }
            n += 1;
        }
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        let p = ArrivalProcess::Poisson { rate_tps: 10_000.0 };
        let n = sample_count(&p, 1.0, 7) as f64;
        assert!(
            (n - 10_000.0).abs() < 500.0,
            "1s at 10k tps produced {n} arrivals"
        );
    }

    #[test]
    fn arrivals_are_deterministic_and_strictly_increasing() {
        let p = ArrivalProcess::Poisson { rate_tps: 5_000.0 };
        let draw = || {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut t = 0.0;
            (0..200)
                .map(|_| {
                    t = p.next_arrival_secs(t, &mut rng);
                    t
                })
                .collect::<Vec<f64>>()
        };
        let a = draw();
        let b = draw();
        assert_eq!(a, b, "same seed must give the same arrival sequence");
        assert!(a.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn gap_is_strictly_positive_even_for_a_zero_draw() {
        // Regression: `gen_range(0.0..1.0)` *can* yield exactly 0.0 (one
        // u64 pattern in 2⁵³), and the raw inversion -ln(1 - 0)/rate gave
        // a zero-length gap, violating the strictly-after contract the
        // strictly-increasing test above asserts.
        for rate in [1.0, 1e3, 1e6] {
            assert!(
                exponential_gap(0.0, rate) > 0.0,
                "zero draw must still give a positive gap at rate {rate}"
            );
            // And the remap only touches u == 0.0: the smallest real draw
            // maps exactly where it always did.
            let min_u = 1.0 / (1u64 << 53) as f64;
            assert_eq!(exponential_gap(0.0, rate), exponential_gap(min_u, rate));
            assert!(exponential_gap(0.5, rate) > exponential_gap(min_u, rate));
        }
    }

    #[test]
    fn arrivals_stay_strictly_after_even_when_gaps_underflow() {
        // At a huge `after_secs` every realistic gap is below one ulp, so
        // naive addition returns `after_secs` unchanged; the guard must
        // advance to the next representable instant instead.
        let p = ArrivalProcess::Poisson { rate_tps: 50_000.0 };
        let mut rng = SmallRng::seed_from_u64(9);
        let after = 1e18;
        for _ in 0..100 {
            let t = p.next_arrival_secs(after, &mut rng);
            assert!(t > after, "arrival {t} not strictly after {after}");
        }
    }

    #[test]
    fn validation_rejects_malformed_processes() {
        assert!(ArrivalProcess::Poisson { rate_tps: 100.0 }
            .validate()
            .is_ok());
        for rate_tps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(
                ArrivalProcess::Poisson { rate_tps }.validate().is_err(),
                "rate {rate_tps} accepted"
            );
        }
    }

    #[test]
    fn processes_round_trip_through_json() {
        let p = ArrivalProcess::Poisson { rate_tps: 1_234.5 };
        let text = serde::json::to_string(&p);
        let back: ArrivalProcess = serde::json::from_str(&text).unwrap();
        assert_eq!(back, p);
    }
}
