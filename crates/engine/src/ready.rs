//! The executor's ready index: a min-tree (tournament tree) over each
//! client's `(next_free, client index)`.
//!
//! The root is the client that frees up first, ties going to the lowest
//! index — the client a first-minimum scan over the clients would pick.
//! Inactive clients sit at the [`IDLE`] sentinel, so they never win while
//! an active client is left.  Changing one client's key walks one
//! leaf-to-root path (⌈log₂ n⌉ levels); a bulk change rebuilds every inner
//! node in O(n).

use atrapos_numa::Cycles;

/// Key of a client that is not serving (its socket failed).
pub(crate) const IDLE: Cycles = Cycles::MAX;

/// A min-tree over `(key, index)` pairs, allocated once.
#[derive(Debug, Clone)]
pub(crate) struct ReadyTree {
    /// Leaves (`width` of them, padded with [`IDLE`]) start at `width`;
    /// node `k > 0` holds the smaller of nodes `2k` and `2k + 1`; node 0
    /// is unused.
    nodes: Vec<(Cycles, usize)>,
    width: usize,
}

impl ReadyTree {
    /// A tree over `keys`, one leaf per client in order.
    pub(crate) fn new(keys: impl ExactSizeIterator<Item = Cycles>) -> Self {
        let width = keys.len().next_power_of_two();
        let mut tree = Self {
            nodes: vec![(IDLE, usize::MAX); 2 * width],
            width,
        };
        tree.rebuild(keys);
        tree
    }

    /// Replace every leaf with `keys` (client order) and rebuild the inner
    /// nodes.
    pub(crate) fn rebuild(&mut self, keys: impl Iterator<Item = Cycles>) {
        for (i, key) in keys.enumerate() {
            self.nodes[self.width + i] = (key, i);
        }
        for k in (1..self.width).rev() {
            self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
        }
    }

    /// Set client `i`'s key and fix the path above it.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, key: Cycles) {
        let mut k = self.width + i;
        self.nodes[k] = (key, i);
        while k > 1 {
            k /= 2;
            self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
        }
    }

    /// The client with the smallest key (lowest index among equals) and
    /// its key, or `None` when every client is [`IDLE`].
    #[inline]
    pub(crate) fn first(&self) -> Option<(usize, Cycles)> {
        let (key, i) = self.nodes[1];
        (key != IDLE).then_some((i, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The first-minimum scan the tree replaces.
    fn scan(keys: &[Cycles]) -> Option<(usize, Cycles)> {
        keys.iter()
            .copied()
            .enumerate()
            .filter(|&(_, k)| k != IDLE)
            .min_by_key(|&(_, k)| k)
    }

    #[test]
    fn one_client_and_a_padded_width_still_answer() {
        let mut one = ReadyTree::new([5].into_iter());
        assert_eq!(one.first(), Some((0, 5)));
        one.set(0, IDLE);
        assert_eq!(one.first(), None);
        let mut three = ReadyTree::new([7, 3, 3].into_iter());
        assert_eq!(three.first(), Some((1, 3)), "ties go to the lowest index");
        three.set(1, 9);
        assert_eq!(three.first(), Some((2, 3)));
        three.rebuild([IDLE, IDLE, IDLE].into_iter());
        assert_eq!(three.first(), None, "padding never wins");
    }

    proptest! {
        /// Random single-key updates and bulk rebuilds over 1–99 clients,
        /// with keys drawn from a narrow range so ties are common: the root
        /// is the scan's pick after every step.
        #[test]
        fn the_root_is_the_first_minimum(
            n in 1usize..100,
            steps in prop::collection::vec((any::<u64>(), 0u64..24, 0u64..6), 1..300),
        ) {
            let mut keys = vec![0; n];
            let mut tree = ReadyTree::new(keys.iter().copied());
            for (pick, key, op) in steps {
                let key = if key == 0 { IDLE } else { key };
                match op {
                    // Raise every key to at least `key` (a pause or the
                    // segment-end coast), then rebuild.
                    0 => {
                        for k in &mut keys {
                            if *k != IDLE {
                                *k = (*k).max(key);
                            }
                        }
                        tree.rebuild(keys.iter().copied());
                    }
                    _ => {
                        let i = (pick % n as u64) as usize;
                        keys[i] = key;
                        tree.set(i, key);
                    }
                }
                prop_assert_eq!(tree.first(), scan(&keys));
            }
        }
    }
}
