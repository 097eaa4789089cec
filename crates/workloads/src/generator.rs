//! Key-distribution and transaction-mix helpers shared by the workloads,
//! and the stack-text helper their loaders pack text cells with.

use rand::rngs::SmallRng;
use rand::Rng;

// The distribution types moved to `atrapos-core` so the engine's typed
// reconfiguration channel (`WorkloadChange`) can carry them; re-exported
// here for compatibility.  `KeyDistribution` covers uniform, hotspot,
// Zipfian, and drifting-hotspot skew; `KeySampler` is its precomputed
// per-domain instantiation.
pub use atrapos_core::{KeyDistribution, KeySampler};

/// A weighted transaction mix.
///
/// The cumulative-weight table is precomputed once per mix change, so
/// drawing is a binary search instead of the per-transaction linear walk
/// over the entries it used to be — the selection logic runs once per
/// mix, not once per transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix<T: Clone> {
    entries: Vec<(T, f64)>,
    /// `cumulative[i]` = sum of the first `i + 1` weights.
    cumulative: Vec<f64>,
    total: f64,
}

impl<T: Clone> Mix<T> {
    /// Build a mix from `(item, weight)` pairs.
    pub fn new(entries: Vec<(T, f64)>) -> Self {
        assert!(!entries.is_empty(), "a mix needs at least one entry");
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut total = 0.0;
        for (_, w) in &entries {
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "mix weights must sum to a positive value");
        Self {
            entries,
            cumulative,
            total,
        }
    }

    /// A mix that always picks `item`.
    pub fn single(item: T) -> Self {
        Self::new(vec![(item, 1.0)])
    }

    /// Draw one item: the first entry whose cumulative weight exceeds the
    /// draw (identical selection to walking the weights in order).
    pub fn pick(&self, rng: &mut SmallRng) -> T {
        let x = rng.gen_range(0.0..self.total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.entries[idx.min(self.entries.len() - 1)].0.clone()
    }

    /// The entries of the mix.
    pub fn entries(&self) -> &[(T, f64)] {
        &self.entries
    }
}

/// Room for one loader text cell: a short prefix and the digits of an
/// `i64`, padded.
pub(crate) type TextBuf = [u8; 32];

/// `prefix`, then `v` in decimal zero-padded to `width` (at most 20)
/// digits, written into `buf` and borrowed from it — the text
/// `format!("{prefix}{v:0w$}")` makes for a non-negative `v`, with no heap
/// block.  Loaders pack it into a row cell on the stack.
pub(crate) fn decimal<'b>(buf: &'b mut TextBuf, prefix: &str, v: i64, width: usize) -> &'b str {
    let mut x = u64::try_from(v).expect("a loader's decimal text is non-negative");
    // The digits, right-aligned over a field of zeros that pad them.
    let mut field = [b'0'; 20];
    assert!(width <= field.len(), "a loader pads to at most 20 digits");
    let mut first = field.len();
    loop {
        first -= 1;
        field[first] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    let digits = &field[first.min(field.len() - width)..];
    let len = prefix.len() + digits.len();
    assert!(
        len <= buf.len(),
        "a loader's text cell fits {} bytes",
        buf.len()
    );
    buf[..prefix.len()].copy_from_slice(prefix.as_bytes());
    buf[prefix.len()..len].copy_from_slice(digits);
    std::str::from_utf8(&buf[..len]).expect("a str prefix and ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every loader text is the `format!` it replaced, byte for byte.
    #[test]
    fn decimal_text_matches_format() {
        let mut buf = TextBuf::default();
        for v in [
            0,
            1,
            9,
            10,
            42,
            99_999,
            1_000_000,
            123_456_789_012_345,
            i64::MAX,
        ] {
            assert_eq!(decimal(&mut buf, "", v, 15), format!("{v:015}"));
            assert_eq!(decimal(&mut buf, "item-", v, 0), format!("item-{v}"));
            assert_eq!(
                decimal(&mut buf, "warehouse-", v, 0),
                format!("warehouse-{v}")
            );
        }
    }

    #[test]
    fn mix_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mix = Mix::new(vec![("a", 0.8), ("b", 0.2)]);
        let n = 10_000;
        let a = (0..n).filter(|_| mix.pick(&mut rng) == "a").count() as f64 / n as f64;
        assert!((0.75..0.85).contains(&a), "a fraction {a}");
        let single = Mix::single("x");
        assert_eq!(single.pick(&mut rng), "x");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_is_rejected() {
        let _: Mix<&str> = Mix::new(vec![]);
    }
}
