//! Key-access distributions.
//!
//! Lives in `atrapos-core` (rather than the workloads crate) because the
//! engine's typed reconfiguration channel (`WorkloadChange::Distribution`)
//! carries a distribution across the workload trait boundary: scenarios
//! that introduce skew at runtime (paper Figure 11) are plain data.
//!
//! Two layers:
//!
//! * [`KeyDistribution`] — the serializable *description* (uniform,
//!   hotspot, Zipfian, drifting hotspot).  This is what scenario files and
//!   `WorkloadChange` events carry.
//! * [`KeySampler`] — the *instantiation* of a description over a fixed
//!   key domain, and the only way a key is drawn.  Building a sampler does
//!   any precomputation up front (the hot window's width; the Zipfian
//!   variant quantises its cumulative distribution to one 32-bit threshold
//!   per key, once), so drawing a key is allocation-free: the simulator's
//!   per-transaction hot path stays flat no matter the distribution.
//!
//! The hottest Zipfian ranks map to the *lowest* keys of the domain
//! (rank 0 → `lo`), deliberately un-scrambled: contiguous hot keys stress
//! range-partitioned designs exactly the way the paper's hotspot
//! experiments do, which is the point of carrying the distribution into a
//! partition-affinity simulator.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How keys are drawn from a domain `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Uniform over the whole domain.
    Uniform,
    /// Hotspot skew: `access_fraction` of the requests go to the first
    /// `data_fraction` of the domain (the paper's Figure 11 uses 50% of the
    /// requests on 20% of the data).
    Hotspot {
        /// Fraction of the domain that is hot (0..1).
        data_fraction: f64,
        /// Fraction of accesses that hit the hot range (0..1).
        access_fraction: f64,
    },
    /// Zipfian rank-frequency skew with exponent `theta`: the probability
    /// of drawing the key of rank `k` (1-based, rank 1 = `lo`) is
    /// proportional to `k^-theta`.  `theta = 0` degenerates to uniform;
    /// YCSB's standard constant is `0.99`.
    Zipfian {
        /// Skew exponent (≥ 0; negative values are clamped to 0).
        theta: f64,
    },
    /// A *moving* hotspot: the hot window (`data_fraction` of the domain,
    /// receiving `access_fraction` of the accesses) rotates once around
    /// the whole domain every `period_txns` draws.  This is the
    /// continuously drifting skew that gives an adaptive system no stable
    /// layout to converge to — the stress test for repartitioning
    /// controllers.
    Drift {
        /// Fraction of the domain that is hot at any instant (0..1).
        data_fraction: f64,
        /// Fraction of accesses that hit the hot window (0..1).
        access_fraction: f64,
        /// Draws per full rotation of the hot window around the domain.
        period_txns: u64,
    },
}

/// Largest domain a Zipfian sampler is built for (its table of 32-bit CDF
/// thresholds costs about 4 bytes per key; the paper-scale datasets top out
/// at 800 K keys, well below this).
pub const MAX_ZIPFIAN_DOMAIN: i64 = 1 << 23;

/// Ranks between two exact running sums a Zipfian table keeps: a draw that
/// needs an exact CDF value recomputes at most this many terms.
const ZIPFIAN_CHECKPOINT_STRIDE: usize = 64;

/// `2^32`: a CDF value in `[0, 1]` times this, floored, is its 32-bit
/// threshold.  Scaling by a power of two is exact, so the floor is too.
const TWO_POW_32: f64 = 4_294_967_296.0;

/// Bucket count of the Zipfian first-level index.  Must be a power of two:
/// for `u` in `[0, 1)`, `u * 1024.0` only shifts the exponent, so
/// `(u * 1024.0) as usize` computes `floor(u * B)` *exactly* and the
/// bucket bounds below bracket the true CDF position without any rounding
/// slop.  The index stays `u32` because [`MAX_ZIPFIAN_DOMAIN`] < 2^32.
const ZIPFIAN_INDEX_BUCKETS: usize = 1 << 10;

/// A Zipfian sampler was asked for over more keys than
/// [`MAX_ZIPFIAN_DOMAIN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfianDomainTooLarge {
    /// Keys in the requested domain.
    pub keys: i64,
}

impl fmt::Display for ZipfianDomainTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Zipfian table over {} keys exceeds the {MAX_ZIPFIAN_DOMAIN}-key cap",
            self.keys
        )
    }
}

impl std::error::Error for ZipfianDomainTooLarge {}

impl KeyDistribution {
    /// Check the parameters a caller supplies: a Zipfian exponent must be
    /// finite and non-negative.  Samplers still clamp one that is not to
    /// uniform, so this is where input (a scenario file) is refused rather
    /// than silently run as something else.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            KeyDistribution::Zipfian { theta } if !(theta.is_finite() && theta >= 0.0) => Err(
                format!("a Zipfian exponent must be finite and non-negative, got {theta}"),
            ),
            _ => Ok(()),
        }
    }

    /// Instantiate the distribution over `[lo, hi)` as a ready-to-draw
    /// [`KeySampler`], performing any precomputation now so that
    /// [`KeySampler::sample`] never allocates.
    ///
    /// # Panics
    ///
    /// On an empty domain, and on a `Zipfian` domain of more than
    /// [`MAX_ZIPFIAN_DOMAIN`] keys (use [`KeyDistribution::try_sampler`]
    /// where the domain comes from input).
    pub fn sampler(&self, lo: i64, hi: i64) -> KeySampler {
        self.try_sampler(lo, hi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`KeyDistribution::sampler`], refusing a `Zipfian` domain of more
    /// than [`MAX_ZIPFIAN_DOMAIN`] keys with a typed error.
    ///
    /// # Panics
    ///
    /// On an empty domain.
    pub fn try_sampler(&self, lo: i64, hi: i64) -> Result<KeySampler, ZipfianDomainTooLarge> {
        assert!(hi > lo, "empty key domain [{lo}, {hi})");
        let window = |data_fraction: f64, access_fraction: f64| {
            let width = hi - lo;
            HotWindow {
                width,
                hot: ((width as f64 * data_fraction).ceil() as i64).clamp(1, width),
                access_fraction: access_fraction.clamp(0.0, 1.0),
            }
        };
        let kind = match *self {
            KeyDistribution::Uniform => SamplerKind::Uniform,
            KeyDistribution::Hotspot {
                data_fraction,
                access_fraction,
            } => SamplerKind::Hotspot(window(data_fraction, access_fraction)),
            KeyDistribution::Zipfian { theta } => {
                let keys = hi - lo;
                if keys > MAX_ZIPFIAN_DOMAIN {
                    return Err(ZipfianDomainTooLarge { keys });
                }
                SamplerKind::Zipfian(ZipfianTable::new(keys as usize, theta))
            }
            KeyDistribution::Drift {
                data_fraction,
                access_fraction,
                period_txns,
            } => SamplerKind::Drift {
                window: window(data_fraction, access_fraction),
                period_txns: period_txns.max(1),
                drawn: 0,
            },
        };
        Ok(KeySampler {
            lo,
            hi,
            distribution: *self,
            kind,
        })
    }
}

/// A Zipfian exponent as the tables use it: negative or non-finite
/// exponents are clamped to 0 (uniform).
fn sanitize_theta(theta: f64) -> f64 {
    if theta.is_finite() {
        theta.max(0.0)
    } else {
        0.0
    }
}

/// The Zipfian rank distribution over `n` ranks, held in about 4 bytes per
/// rank, from which draws come out bit-identical to a binary search of
/// the full `f64` CDF.
///
/// Rank `i`'s CDF value is `cdf[i] = S(i + 1) / T`, where `S(m)` is the
/// running sum `1^-θ + 2^-θ + … + m^-θ` accumulated left to right in
/// `f64` and `T = S(n)`.  The table keeps:
///
/// * `q[i] = floor(cdf[i] · 2^32)` as a `u32` (the cast saturates, so a CDF
///   value of exactly 1 stores `u32::MAX`);
/// * the exact running sum `S(64c)` for every `c`, so any `cdf[i]` can be
///   rebuilt bit for bit with the same additions in the same order;
/// * `T`, θ and a 1024-bucket first-level index (see
///   [`ZIPFIAN_INDEX_BUCKETS`]).
///
/// A draw `u` in `[0, 1)` has `qu = floor(u · 2^32)` exactly (`u` carries
/// 53 bits).  Flooring is monotone, so a rank with `q < qu` has
/// `cdf <= u` and a rank with `q > qu` has `cdf > u`; only the ranks with
/// `q == qu` — a tie run, met by about 2 draws in 10 000 at θ = 0.99
/// over 1 M ranks — need their exact CDF values.
#[derive(Debug, Clone)]
struct ZipfianTable {
    /// 32-bit CDF threshold per rank.
    q: Vec<u32>,
    /// `checkpoints[c]` is the exact running sum `S(64c)`; `S(0) = 0`.
    checkpoints: Vec<f64>,
    /// The total `T = S(n)`.
    total: f64,
    /// The sanitized exponent.
    theta: f64,
    /// `index[j]` is the number of ranks with `cdf <= j / B`.  A draw `u`
    /// in bucket `j = floor(u · B)` then lands in `index[j]..=index[j +
    /// 1]`, so its search only looks inside `q[index[j]..index[j + 1]]` —
    /// for heavy skew that window is usually empty or a single entry.
    index: Vec<u32>,
}

impl ZipfianTable {
    /// Build the table over ranks `1..=n` (`n >= 1`) with one pass of
    /// `powf`: the running sums go into a scratch vector that is
    /// quantised, bucketed and dropped before this returns.
    fn new(n: usize, theta: f64) -> Self {
        let theta = sanitize_theta(theta);
        let mut sums = Vec::with_capacity(n);
        let mut checkpoints = Vec::with_capacity(n / ZIPFIAN_CHECKPOINT_STRIDE + 1);
        let mut total = 0.0f64;
        checkpoints.push(total);
        for k in 1..=n {
            total += (k as f64).powf(-theta);
            sums.push(total);
            if k % ZIPFIAN_CHECKPOINT_STRIDE == 0 {
                checkpoints.push(total);
            }
        }
        let b = ZIPFIAN_INDEX_BUCKETS;
        let mut q = Vec::with_capacity(n);
        let mut index = Vec::with_capacity(b + 1);
        for (i, s) in sums.iter().enumerate() {
            let cdf = s / total;
            q.push((cdf * TWO_POW_32) as u32);
            // Every bucket bound this CDF value is the first to exceed
            // starts at rank `i`.
            while index.len() <= b && cdf > index.len() as f64 / b as f64 {
                index.push(i as u32);
            }
        }
        index.resize(b + 1, n as u32);
        Self {
            q,
            checkpoints,
            total,
            theta,
            index,
        }
    }

    /// The rank a full `partition_point(|&c| c <= u)` over the `f64` CDF
    /// returns for `u` in `[0, 1)`, clamped to the last rank.
    fn rank(&self, u: f64) -> usize {
        // `j` is exact (power-of-two bucket count, see
        // [`ZIPFIAN_INDEX_BUCKETS`]), and so is `qu`.
        let j = (u * ZIPFIAN_INDEX_BUCKETS as f64) as usize;
        let lo = self.index[j] as usize;
        let hi = self.index[j + 1] as usize;
        let qu = (u * TWO_POW_32) as u32;
        let window = &self.q[lo..hi];
        let p0 = window.partition_point(|&x| x < qu);
        let rank = if window.get(p0) == Some(&qu) {
            let run = window[p0..].partition_point(|&x| x == qu);
            self.first_above(lo + p0, lo + p0 + run, u)
        } else {
            lo + p0
        };
        rank.min(self.q.len() - 1)
    }

    /// The first rank in `r0..r1` whose exact CDF value exceeds `u`, or
    /// `r1` if none does (the CDF is monotone, so this is a partition
    /// point).
    fn first_above(&self, r0: usize, r1: usize, u: f64) -> usize {
        let stride = ZIPFIAN_CHECKPOINT_STRIDE;
        // Checkpoint `c` ends rank `64c - 1`, whose CDF value is exactly
        // `checkpoints[c] / T`: skip the whole blocks of the run that end
        // at or below `u` without recomputing a term.
        let first = r0 / stride;
        let last = r1 / stride;
        let c =
            first + self.checkpoints[first + 1..=last].partition_point(|&s| s / self.total <= u);
        // Walk forward from that checkpoint with the build's additions.
        let mut sum = self.checkpoints[c];
        for k in c * stride + 1..=r1 {
            sum += (k as f64).powf(-self.theta);
            if k > r0 && sum / self.total > u {
                return k - 1;
            }
        }
        r1
    }
}

/// A [`KeyDistribution`] instantiated over a fixed domain `[lo, hi)`,
/// ready to draw keys without allocating: the only way keys are drawn.
///
/// Building one does the distribution's precomputation once: the hot
/// window's width for the hotspot and drifting variants, and for the
/// Zipfian variant a table of one 32-bit CDF threshold per key, an exact
/// running sum every 64 keys and a 1024-bucket first-level index (O(domain)
/// build, about 4 bytes per key; each draw binary-searches only the
/// thresholds its bucket brackets, usually zero or one entry under heavy
/// skew).  The drifting variant carries the draw counter that moves its
/// hot window.  Workloads hold one sampler per distribution and rebuild it
/// only on reconfiguration, never per transaction; the sampler reports the
/// distribution it was built from ([`KeySampler::distribution`]).
#[derive(Debug, Clone)]
pub struct KeySampler {
    lo: i64,
    hi: i64,
    distribution: KeyDistribution,
    kind: SamplerKind,
}

/// A hot window of `hot` of the domain's `width` keys that receives
/// `access_fraction` of the draws; the rest of the domain receives the
/// others.
#[derive(Debug, Clone, Copy)]
struct HotWindow {
    /// Keys in the domain.
    width: i64,
    /// Keys in the window, in `1..=width`.
    hot: i64,
    /// Share of the draws in the window, clamped to `[0, 1]`.
    access_fraction: f64,
}

impl HotWindow {
    /// An offset in `[0, width)` from the window's start: inside the
    /// window with probability `access_fraction`, else in the remainder
    /// (or anywhere, when the window is the whole domain).
    fn offset(self, rng: &mut SmallRng) -> i64 {
        if rng.gen_bool(self.access_fraction) {
            rng.gen_range(0..self.hot)
        } else if self.hot < self.width {
            rng.gen_range(self.hot..self.width)
        } else {
            rng.gen_range(0..self.width)
        }
    }
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    /// Hot window fixed at the start of the domain.
    Hotspot(HotWindow),
    /// Quantised cumulative distribution over ranks (rank `i` maps to key
    /// `lo + i`).
    Zipfian(ZipfianTable),
    /// Rotating hot window, advanced one step per draw.
    Drift {
        window: HotWindow,
        period_txns: u64,
        drawn: u64,
    },
}

impl KeySampler {
    /// The sampled domain `[lo, hi)`.
    pub fn domain(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// The distribution this sampler was built from.
    pub fn distribution(&self) -> KeyDistribution {
        self.distribution
    }

    /// Draw one key head from the domain.  Never allocates.
    // Called several times per generated action by every workload.
    // lint: hot-path
    pub fn sample(&mut self, rng: &mut SmallRng) -> i64 {
        match &mut self.kind {
            SamplerKind::Uniform => rng.gen_range(self.lo..self.hi),
            SamplerKind::Hotspot(window) => self.lo + window.offset(rng),
            SamplerKind::Zipfian(table) => {
                let u = rng.gen_range(0.0f64..1.0);
                self.lo + table.rank(u) as i64
            }
            SamplerKind::Drift {
                window,
                period_txns,
                drawn,
            } => {
                // The window's lower edge sweeps the domain once per
                // period; offsets are taken modulo the width so both the
                // hot window and the cold remainder wrap around.
                let width = window.width;
                let start =
                    ((*drawn % *period_txns) as f64 / *period_txns as f64 * width as f64) as i64;
                *drawn += 1;
                self.lo + (start + window.offset(rng)) % width
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The reference the Zipfian table must reproduce: the normalized
    /// cumulative distribution of ranks `1..=n`, `cdf[i]` being the
    /// probability of drawing a rank `<= i + 1`.
    fn zipfian_cdf(n: usize, theta: f64) -> Vec<f64> {
        let theta = sanitize_theta(theta);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += (k as f64).powf(-theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        cdf
    }

    /// The reference draw: a full binary search of the `f64` CDF.
    fn reference_rank(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }

    /// The largest `f64` below 1, the largest draw `gen_range(0.0..1.0)`
    /// can make.
    const LAST_DRAW: f64 = 1.0 - f64::EPSILON / 2.0;

    #[test]
    fn zipfian_table_matches_the_f64_cdf_at_every_threshold() {
        // Each CDF value and its 1-ulp neighbours are the draws where a
        // rounding slip would show; theta = 3 has long runs of tied and
        // saturated thresholds, theta = 0 long runs of equal spacing.
        for n in [1usize, 2, 63, 64, 65, 1_000, 100_003] {
            for theta in [0.0, 0.5, 0.99, 1.0, 1.5, 3.0] {
                let cdf = zipfian_cdf(n, theta);
                let table = ZipfianTable::new(n, theta);
                let probes = cdf
                    .iter()
                    .flat_map(|&c| [c.next_down(), c, c.next_up()])
                    .chain([0.0, LAST_DRAW])
                    .filter(|u| (0.0..1.0).contains(u));
                for u in probes {
                    assert_eq!(
                        table.rank(u),
                        reference_rank(&cdf, u),
                        "n={n} theta={theta} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipfian_tie_runs_are_resolved_exactly() {
        // Under theta = 3 the tail's CDF steps are far below 2^-32, so
        // whole runs of ranks share one threshold.  A draw equal to the
        // CDF value of a rank inside such a run must land on the next
        // rank, which the thresholds alone cannot tell apart.
        let n = 10_000;
        let cdf = zipfian_cdf(n, 3.0);
        let table = ZipfianTable::new(n, 3.0);
        let i = (1..n - 1)
            .find(|&i| {
                table.q[i - 1] == table.q[i] && table.q[i] == table.q[i + 1] && cdf[i] < cdf[i + 1]
            })
            .expect("theta = 3 has a tie run");
        let u = cdf[i];
        assert_eq!((u * TWO_POW_32) as u32, table.q[i], "u must tie");
        assert_eq!(table.rank(u), i + 1);
        assert_eq!(table.rank(u), reference_rank(&cdf, u));
    }

    #[test]
    fn zipfian_table_over_1m_keys_holds_at_most_4_2_mb() {
        // 4 bytes per rank of thresholds, 8 bytes per 64 ranks of running
        // sums, 4 KB of index: half of an `f64` CDF.
        let table = ZipfianTable::new(1_000_000, 0.99);
        let bytes = table.q.capacity() * std::mem::size_of::<u32>()
            + table.checkpoints.capacity() * std::mem::size_of::<f64>()
            + table.index.capacity() * std::mem::size_of::<u32>();
        assert!(bytes <= 4_200_000, "{bytes} bytes");
    }

    #[test]
    fn zipfian_domain_over_the_cap_is_a_typed_error() {
        let d = KeyDistribution::Zipfian { theta: 0.99 };
        let err = d.try_sampler(0, MAX_ZIPFIAN_DOMAIN + 1).unwrap_err();
        assert_eq!(
            err,
            ZipfianDomainTooLarge {
                keys: MAX_ZIPFIAN_DOMAIN + 1
            }
        );
        // The other distributions have no table and no cap.
        assert!(KeyDistribution::Uniform
            .try_sampler(0, MAX_ZIPFIAN_DOMAIN + 1)
            .is_ok());
    }

    #[test]
    fn uniform_covers_the_domain() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = KeyDistribution::Uniform.sampler(0, 100);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2000 {
            let k = s.sample(&mut rng);
            assert!((0..100).contains(&k));
            if k < 10 {
                seen_low = true;
            }
            if k >= 90 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = KeyDistribution::Hotspot {
            data_fraction: 0.2,
            access_fraction: 0.5,
        }
        .sampler(0, 1000);
        let n = 10_000;
        let hot = (0..n).filter(|_| s.sample(&mut rng) < 200).count() as f64;
        let frac = hot / n as f64;
        assert!((0.45..0.55).contains(&frac), "hot fraction {frac}");
    }

    /// The closed forms the uniform and hotspot samplers reproduce: every
    /// committed key stream was drawn with exactly these rng calls.
    fn closed_form(d: KeyDistribution, rng: &mut SmallRng, lo: i64, hi: i64) -> i64 {
        match d {
            KeyDistribution::Uniform => rng.gen_range(lo..hi),
            KeyDistribution::Hotspot {
                data_fraction,
                access_fraction,
            } => {
                let width = hi - lo;
                let hot_width = ((width as f64 * data_fraction).ceil() as i64).clamp(1, width);
                if rng.gen_bool(access_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(lo..lo + hot_width)
                } else if hot_width < width {
                    rng.gen_range(lo + hot_width..hi)
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            other => unreachable!("{other:?} has no closed form"),
        }
    }

    #[test]
    fn sampler_matches_closed_form_for_uniform_and_hotspot() {
        // Draw for draw, the sampler must consume the rng exactly as the
        // closed form does — switching a workload's key draw must not
        // move a single golden number.  Hot windows as wide as the
        // domain reach the `hot == width` arm, and access fractions outside
        // [0, 1] the clamp.
        let hotspots = [(0.25, 0.7), (1.0, 1.5), (1.0, 0.4), (0.1, -0.5)].map(
            |(data_fraction, access_fraction)| KeyDistribution::Hotspot {
                data_fraction,
                access_fraction,
            },
        );
        for d in std::iter::once(KeyDistribution::Uniform).chain(hotspots) {
            let mut a = SmallRng::seed_from_u64(11);
            let mut b = SmallRng::seed_from_u64(11);
            let mut s = d.sampler(5, 505);
            for _ in 0..500 {
                assert_eq!(closed_form(d, &mut a, 5, 505), s.sample(&mut b), "{d:?}");
            }
        }
    }

    #[test]
    fn zipfian_rank_frequency_is_monotone() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = KeyDistribution::Zipfian { theta: 0.99 }.sampler(0, 50);
        let mut counts = [0u64; 50];
        for _ in 0..200_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        // Coarse monotonicity: averaged over buckets of 10 ranks so
        // statistical noise cannot flip the order.
        let bucket = |i: usize| counts[i * 10..(i + 1) * 10].iter().sum::<u64>();
        for i in 0..4 {
            assert!(
                bucket(i) > bucket(i + 1),
                "bucket {i} ({}) not hotter than bucket {} ({})",
                bucket(i),
                i + 1,
                bucket(i + 1)
            );
        }
        // Rank 1 is the single hottest key.
        assert!(counts[0] > *counts[1..].iter().max().unwrap());
    }

    #[test]
    fn zipfian_index_narrows_to_the_same_key_as_a_full_search() {
        // The bucket index is a pure accelerator: for every draw the
        // narrowed search must return exactly the rank a full
        // `partition_point` over the whole CDF would have, including the
        // degenerate single-key domain and theta = 0 (uniform CDF, where
        // every bucket window is non-trivial).
        for (n, theta) in [
            (1usize, 0.99),
            (2, 0.99),
            (50, 0.99),
            (50, 0.0),
            (1_000, 0.5),
            (1_000, 1.2),
            (100_000, 0.99),
        ] {
            let cdf = zipfian_cdf(n, theta);
            let mut s = KeyDistribution::Zipfian { theta }.sampler(0, n as i64);
            let mut fast = SmallRng::seed_from_u64(7);
            let mut slow = SmallRng::seed_from_u64(7);
            for draw in 0..20_000 {
                let key = s.sample(&mut fast);
                let u = slow.gen_range(0.0f64..1.0);
                let idx = reference_rank(&cdf, u);
                assert_eq!(key, idx as i64, "n={n} theta={theta} draw={draw} u={u}");
            }
        }
    }

    #[test]
    fn zipfian_index_brackets_every_bucket() {
        for (n, theta) in [(1usize, 0.0), (50, 0.99), (10_000, 0.99)] {
            let cdf = zipfian_cdf(n, theta);
            let index = ZipfianTable::new(n, theta).index;
            assert_eq!(index.len(), ZIPFIAN_INDEX_BUCKETS + 1);
            assert_eq!(index[0], 0);
            for j in 0..ZIPFIAN_INDEX_BUCKETS {
                assert!(index[j] <= index[j + 1], "index not monotone at {j}");
                let bound = j as f64 / ZIPFIAN_INDEX_BUCKETS as f64;
                assert_eq!(
                    index[j] as usize,
                    cdf.partition_point(|&c| c <= bound),
                    "n={n} theta={theta} bucket={j}"
                );
            }
            assert!(index[ZIPFIAN_INDEX_BUCKETS] as usize <= n);
        }
    }

    #[test]
    fn zipfian_theta_zero_is_uniform() {
        let cdf = zipfian_cdf(100, 0.0);
        for (i, c) in cdf.iter().enumerate() {
            assert!((c - (i + 1) as f64 / 100.0).abs() < 1e-12);
        }
    }

    #[test]
    fn drifting_hotspot_moves_its_window() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = KeyDistribution::Drift {
            data_fraction: 0.1,
            access_fraction: 0.9,
            period_txns: 10_000,
        }
        .sampler(0, 1_000);
        // First tenth of the period: window at the start of the domain.
        let early: Vec<i64> = (0..1_000).map(|_| s.sample(&mut rng)).collect();
        // Skip to mid-period: window near the middle.
        for _ in 0..4_000 {
            s.sample(&mut rng);
        }
        let late: Vec<i64> = (0..1_000).map(|_| s.sample(&mut rng)).collect();
        let hot = |xs: &[i64], lo: i64, hi: i64| {
            xs.iter().filter(|&&x| (lo..hi).contains(&x)).count() as f64 / xs.len() as f64
        };
        assert!(hot(&early, 0, 250) > 0.6, "early window not at the start");
        assert!(hot(&late, 450, 700) > 0.6, "late window did not move");
    }

    #[test]
    fn distribution_round_trips_through_serde() {
        for d in [
            KeyDistribution::Hotspot {
                data_fraction: 0.2,
                access_fraction: 0.5,
            },
            KeyDistribution::Zipfian { theta: 0.99 },
            KeyDistribution::Drift {
                data_fraction: 0.1,
                access_fraction: 0.8,
                period_txns: 5_000,
            },
        ] {
            let text = serde::json::to_string(&d);
            let back: KeyDistribution = serde::json::from_str(&text).unwrap();
            assert_eq!(back, d);
        }
    }
}
