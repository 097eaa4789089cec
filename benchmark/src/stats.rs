//! The small numeric helpers every reported number goes through: order
//! statistics over repetitions and the FNV digest of simulated outcomes.

use serde::{Deserialize, Serialize};

/// Median, both quartiles and the sample count of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` by the method of Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), which
    /// is what the driver applies across runs — so the spread printed here
    /// and the spread the driver computes are the same statistic.  A
    /// single sample is its own median and quartiles.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no samples");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        if n == 1 {
            return Self {
                q1: data[0],
                median: data[0],
                q3: data[0],
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Self {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Inter-quartile range as a share of the median (the run-to-run
    /// spread; 0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a sequence of digests into one (order-sensitive).
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_and_spread() {
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(q.spread(), 0.0);
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.spread(), 1.0);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn combined_digest_depends_on_order_and_content() {
        assert_ne!(combine_digests([1, 2]), combine_digests([2, 1]));
        assert_ne!(combine_digests([1, 2]), combine_digests([1, 3]));
        assert_eq!(combine_digests([1, 2]), combine_digests([1, 2]));
    }
}
