//! One instance, or one per Island.
//!
//! Paper §IV makes the storage manager's critical-path internals — the
//! log, the list of active transactions, the state lock — NUMA-aware the
//! same way each time: instead of one instance every socket pulls across
//! the interconnect, keep one instance per socket and let a thread use the
//! one of the socket it runs on.  [`PerSocket`] is that rule; the three
//! structures differ only in what an instance is and what using it costs.

use atrapos_numa::SocketId;

/// Either a single centralized `T` or one `T` per socket.
#[derive(Debug, Clone)]
pub struct PerSocket<T> {
    parts: Vec<T>,
}

impl<T> PerSocket<T> {
    /// One part, homed on socket 0, that every socket uses (stock
    /// Shore-MT).
    pub fn centralized(make: impl FnOnce(SocketId) -> T) -> Self {
        Self {
            parts: vec![make(SocketId(0))],
        }
    }

    /// One part per socket, each homed on its own socket (at least one).
    pub fn partitioned(n_sockets: usize, make: impl FnMut(SocketId) -> T) -> Self {
        Self {
            parts: (0..n_sockets.max(1) as u16)
                .map(SocketId)
                .map(make)
                .collect(),
        }
    }

    /// The part a thread running on `socket` uses: its own socket's, or
    /// the single shared one.
    #[inline]
    pub fn local(&mut self, socket: SocketId) -> &mut T {
        match &mut self.parts[..] {
            [only] => only,
            parts => &mut parts[socket.index()],
        }
    }

    /// Every part (for totals and background-style traversals).
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.parts.iter()
    }

    /// Every part, mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.parts.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_maps_every_socket_to_the_part_homed_on_socket_0() {
        let mut one = PerSocket::centralized(|home| home);
        for s in 0..8 {
            assert_eq!(*one.local(SocketId(s)), SocketId(0));
        }
        assert_eq!(one.iter().count(), 1);
    }

    #[test]
    fn per_socket_is_the_identity_and_totals_see_every_part() {
        let mut parts = PerSocket::partitioned(4, |home| (home, 0u64));
        for s in 0..4 {
            let part = parts.local(SocketId(s));
            assert_eq!(part.0, SocketId(s));
            part.1 += u64::from(s) + 1;
        }
        assert_eq!(parts.iter().map(|p| p.1).sum::<u64>(), 1 + 2 + 3 + 4);
        assert_eq!(PerSocket::partitioned(0, |home| home).iter().count(), 1);
    }
}
