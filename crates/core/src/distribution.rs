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
//!   key domain.  Building a sampler does any precomputation up front
//!   (the Zipfian variant quantises its cumulative distribution to one
//!   32-bit threshold per key, once), so drawing a key is allocation-free:
//!   the simulator's per-transaction hot path stays flat no matter the
//!   distribution.
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
    /// Draw a key head from `[lo, hi)`.
    ///
    /// Exact and allocation-free for `Uniform` and `Hotspot`.  For
    /// `Zipfian` this is a *convenience* path that rebuilds the sampler table
    /// on every call — per-transaction hot paths must hold a
    /// [`KeySampler`] instead (see [`KeyDistribution::sampler`]).  For
    /// `Drift`, which is inherently stateful, this samples the window at
    /// its initial position (draw 0).
    pub fn sample(&self, rng: &mut SmallRng, lo: i64, hi: i64) -> i64 {
        debug_assert!(hi > lo);
        match *self {
            KeyDistribution::Uniform => rng.gen_range(lo..hi),
            KeyDistribution::Hotspot {
                data_fraction,
                access_fraction,
            } => {
                let width = hi - lo;
                let hot_width = hot_width(width, data_fraction);
                if rng.gen_bool(access_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(lo..lo + hot_width)
                } else if hot_width < width {
                    rng.gen_range(lo + hot_width..hi)
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            KeyDistribution::Zipfian { .. } | KeyDistribution::Drift { .. } => {
                self.sampler(lo, hi).sample(rng)
            }
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
        let kind = match *self {
            KeyDistribution::Uniform | KeyDistribution::Hotspot { .. } => {
                SamplerKind::Closed(*self)
            }
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
                data_fraction,
                access_fraction,
                period_txns: period_txns.max(1),
                drawn: 0,
            },
        };
        Ok(KeySampler { lo, hi, kind })
    }
}

/// The hot-window width in keys for a hotspot-style distribution.
fn hot_width(width: i64, data_fraction: f64) -> i64 {
    ((width as f64 * data_fraction).ceil() as i64).clamp(1, width)
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
/// ready to draw keys without allocating.
///
/// Cheap to build for the closed-form distributions; the Zipfian variant
/// precomputes a table of one 32-bit CDF threshold per key, an exact
/// running sum every 64 keys and a 1024-bucket first-level index once
/// (O(domain) build, about 4 bytes per key; each draw binary-searches only
/// the thresholds its bucket brackets, usually zero or one entry under
/// heavy skew), and the drifting variant carries the draw counter that
/// moves its hot window.  Workloads hold one sampler per
/// distribution and rebuild it only on reconfiguration, never per
/// transaction.
#[derive(Debug, Clone)]
pub struct KeySampler {
    lo: i64,
    hi: i64,
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    /// Uniform / hotspot: delegate to the exact closed form (same rng
    /// draw order as [`KeyDistribution::sample`], bit for bit).
    Closed(KeyDistribution),
    /// Quantised cumulative distribution over ranks (rank `i` maps to key
    /// `lo + i`).
    Zipfian(ZipfianTable),
    /// Rotating hot window, advanced one step per draw.
    Drift {
        data_fraction: f64,
        access_fraction: f64,
        period_txns: u64,
        drawn: u64,
    },
}

impl KeySampler {
    /// The sampled domain `[lo, hi)`.
    pub fn domain(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// Draw one key head from the domain.  Never allocates.
    // Called several times per generated action by every workload.
    // lint: hot-path
    pub fn sample(&mut self, rng: &mut SmallRng) -> i64 {
        match &mut self.kind {
            SamplerKind::Closed(d) => d.sample(rng, self.lo, self.hi),
            SamplerKind::Zipfian(table) => {
                let u = rng.gen_range(0.0f64..1.0);
                self.lo + table.rank(u) as i64
            }
            SamplerKind::Drift {
                data_fraction,
                access_fraction,
                period_txns,
                drawn,
            } => {
                let width = self.hi - self.lo;
                let hot = hot_width(width, *data_fraction);
                // The window's lower edge sweeps the domain once per
                // period; offsets are taken modulo the width so both the
                // hot window and the cold remainder wrap around.
                let start =
                    ((*drawn % *period_txns) as f64 / *period_txns as f64 * width as f64) as i64;
                *drawn += 1;
                let offset = if rng.gen_bool(access_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hot)
                } else if hot < width {
                    rng.gen_range(hot..width)
                } else {
                    rng.gen_range(0..width)
                };
                self.lo + (start + offset) % width
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
        // The closed forms have no table and no cap.
        assert!(KeyDistribution::Uniform
            .try_sampler(0, MAX_ZIPFIAN_DOMAIN + 1)
            .is_ok());
    }

    #[test]
    fn uniform_covers_the_domain() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = KeyDistribution::Uniform;
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2000 {
            let k = d.sample(&mut rng, 0, 100);
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
        let d = KeyDistribution::Hotspot {
            data_fraction: 0.2,
            access_fraction: 0.5,
        };
        let n = 10_000;
        let hot = (0..n).filter(|_| d.sample(&mut rng, 0, 1000) < 200).count() as f64;
        let frac = hot / n as f64;
        assert!((0.45..0.55).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn sampler_matches_closed_form_for_uniform_and_hotspot() {
        // The sampler must draw from the rng in exactly the same order as
        // the closed-form path — workloads switching to samplers must not
        // move a single golden number.
        for d in [
            KeyDistribution::Uniform,
            KeyDistribution::Hotspot {
                data_fraction: 0.25,
                access_fraction: 0.7,
            },
        ] {
            let mut a = SmallRng::seed_from_u64(11);
            let mut b = SmallRng::seed_from_u64(11);
            let mut s = d.sampler(5, 505);
            for _ in 0..500 {
                assert_eq!(d.sample(&mut a, 5, 505), s.sample(&mut b));
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
