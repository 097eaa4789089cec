//! Virtual-time model of contended cache lines.
//!
//! This primitive is what makes the simulation reproduce the paper's
//! central observation: *any* centralized data structure accessed in the
//! critical path eventually becomes the bottleneck on a multisocket machine,
//! because every access turns into a cache-line transfer over the
//! interconnect and the transfers of different cores serialize.
//!
//! [`ContendedLine`] models a single cache line that is read or atomically
//! updated (CAS) by many cores — e.g. the head of Shore-MT's lock-free
//! list of active transactions.  Atomic updates serialize in virtual time
//! and each one pays a transfer cost that depends on which socket last
//! owned the line.
//!
//! A line keeps only what decides the next access: its home node, its
//! current owner, and its busy intervals.  Its traffic is counted in the
//! accessing step's [`crate::Tally`], not on the line.
//!
//! Because the execution engine simulates one transaction at a time, accesses
//! to a line do not necessarily arrive in increasing virtual-time order: a
//! transaction processed *earlier* may have touched the line at a *later*
//! virtual time (e.g. at its commit).  [`Timeline`] therefore keeps a bounded
//! window of busy intervals instead of a single "free at" timestamp, so a
//! later-processed access can slot into a gap instead of spuriously queueing
//! behind the whole earlier transaction.

use crate::clock::Cycles;
use crate::topology::SocketId;
use std::collections::VecDeque;

/// How a cache line is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain read: the line can stay shared; concurrent readers do not
    /// serialize, but a reader still pays the transfer cost if the line is
    /// dirty in a remote cache.
    Read,
    /// Atomic read-modify-write (CAS, fetch-and-add): the line is taken in
    /// exclusive mode, so concurrent writers serialize.
    Rmw,
}

/// What a core does while it waits for a line or resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Spin-wait on a locally cached copy: instructions retire at the spin
    /// IPC (this is what inflates the IPC of the centralized design in the
    /// paper's Figure 1 while its throughput collapses).
    Spin,
    /// Stall: no instructions retire (typical for a CAS retry loop bouncing
    /// a line between sockets — the PLP bars of Figure 1).
    Stall,
}

/// Maximum number of busy intervals remembered per timeline.  Out-of-order
/// bookings only span roughly one transaction length, so a small window is
/// sufficient; older intervals are coalesced into the window start.
const TIMELINE_CAPACITY: usize = 48;

/// A bounded set of disjoint busy intervals on the virtual-time axis.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Disjoint, non-empty `[start, end)` intervals sorted by start — and
    /// therefore by end.
    intervals: VecDeque<(Cycles, Cycles)>,
}

impl Timeline {
    /// Earliest time `>= at` at which a busy span of `duration` cycles fits
    /// without overlapping existing intervals.
    pub fn earliest_fit(&self, at: Cycles, duration: Cycles) -> Cycles {
        // Past the horizon nothing can interfere (intervals are disjoint
        // and sorted): the common case returns without searching.
        if self.intervals.back().is_none_or(|&(_, e)| at >= e) {
            return at;
        }
        self.fit(at, duration).0
    }

    /// [`Timeline::earliest_fit`], plus the index of the first interval
    /// that begins after the span: where `book` inserts it.
    fn fit(&self, at: Cycles, duration: Cycles) -> (Cycles, usize) {
        // Ends are increasing, so the intervals over by `at` are a prefix;
        // from there on every interval ends after `start`.
        let mut pos = self.intervals.partition_point(|&(_, e)| e <= at);
        let mut start = at;
        while let Some(&(s, e)) = self.intervals.get(pos) {
            if start + duration <= s {
                break;
            }
            start = e;
            pos += 1;
        }
        (start, pos)
    }

    /// Book a busy span of `duration` cycles at the earliest opportunity at
    /// or after `at`.  Returns the granted start time.
    ///
    /// `earliest_fit` guarantees the new span overlaps no existing
    /// interval, so keeping the set coalesced only requires merging with
    /// the (at most two) adjacent neighbours — in place, with no
    /// allocation.  This runs on every simulated cache-line access, which
    /// made the previous full rebuild-and-coalesce one of the hottest
    /// allocation sites of the simulator.
    // lint: hot-path
    pub fn book(&mut self, at: Cycles, duration: Cycles) -> Cycles {
        let duration = duration.max(1);
        // Fast path: requests at or beyond the horizon (the overwhelmingly
        // common case — the executor hands out work in roughly increasing
        // virtual time) append at the back without scanning.
        if let Some(back) = self.intervals.back_mut() {
            if at >= back.1 {
                if at == back.1 {
                    back.1 = at + duration;
                } else {
                    self.intervals.push_back((at, at + duration));
                    if self.intervals.len() > TIMELINE_CAPACITY {
                        self.intervals.pop_front();
                    }
                }
                return at;
            }
        } else {
            self.intervals.push_back((at, at + duration));
            return at;
        }
        let (start, pos) = self.fit(at, duration);
        let end = start + duration;
        let touches_prev = pos > 0 && self.intervals[pos - 1].1 == start;
        let touches_next = pos < self.intervals.len() && self.intervals[pos].0 == end;
        match (touches_prev, touches_next) {
            (true, true) => {
                let next_end = self.intervals[pos].1;
                self.intervals[pos - 1].1 = next_end;
                self.intervals.remove(pos);
            }
            (true, false) => self.intervals[pos - 1].1 = end,
            (false, true) => self.intervals[pos].0 = start,
            (false, false) => {
                self.intervals.insert(pos, (start, end));
                // Bound the window: drop the oldest interval once over
                // capacity.
                if self.intervals.len() > TIMELINE_CAPACITY {
                    self.intervals.pop_front();
                }
            }
        }
        start
    }

    /// Latest booked end time (0 if nothing is booked).
    pub fn horizon(&self) -> Cycles {
        self.intervals.back().map(|&(_, e)| e).unwrap_or(0)
    }

    /// Total booked (busy) cycles currently tracked in the window.
    pub fn busy_cycles(&self) -> Cycles {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }
}

/// A single contended cache line.
#[derive(Debug, Clone)]
pub struct ContendedLine {
    /// Memory node the line's backing memory lives on.
    pub home: SocketId,
    /// Socket whose cache currently holds the line (None = only in memory).
    owner: Option<SocketId>,
    /// Busy intervals of in-flight exclusive accesses.
    timeline: Timeline,
}

impl ContendedLine {
    /// A new line homed on `home`, not yet cached anywhere.
    pub fn new(home: SocketId) -> Self {
        Self {
            home,
            owner: None,
            timeline: Timeline::default(),
        }
    }

    /// Socket whose cache currently owns the line, if any.
    pub fn owner(&self) -> Option<SocketId> {
        self.owner
    }

    /// Latest time at which a currently known exclusive access completes.
    pub fn busy_horizon(&self) -> Cycles {
        self.timeline.horizon()
    }

    /// Earliest time `>= at` at which an exclusive span of `duration` can be
    /// granted.
    pub fn earliest_grant(&self, at: Cycles, duration: Cycles) -> Cycles {
        self.timeline.earliest_fit(at, duration)
    }

    /// Book an exclusive span (used by the simulation context).  Returns the
    /// granted start time.
    pub(crate) fn book_exclusive(&mut self, at: Cycles, duration: Cycles) -> Cycles {
        self.timeline.book(at, duration)
    }

    /// Record who holds the line after an access decided by the simulation
    /// context: an RMW takes ownership, a read only claims an unowned line.
    pub(crate) fn commit_access(&mut self, kind: AccessKind, accessor: SocketId) {
        if kind == AccessKind::Rmw || self.owner.is_none() {
            self.owner = Some(accessor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timeline_books_back_to_back_spans() {
        let mut tl = Timeline::default();
        assert_eq!(tl.book(100, 50), 100);
        // Overlapping request queues behind the first.
        assert_eq!(tl.book(120, 50), 150);
        // A later request after the horizon is granted immediately.
        assert_eq!(tl.book(500, 10), 500);
        assert_eq!(tl.horizon(), 510);
        assert_eq!(tl.busy_cycles(), 110);
    }

    #[test]
    fn timeline_fills_gaps_for_out_of_order_requests() {
        let mut tl = Timeline::default();
        // A "future" booking (from a transaction processed first but
        // touching the line at its commit).
        assert_eq!(tl.book(10_000, 100), 10_000);
        // An earlier access processed later slots in before it.
        assert_eq!(tl.book(200, 100), 200);
        // And one that does not fit in the gap goes after.
        assert_eq!(tl.book(9_950, 200), 10_100);
    }

    /// `Timeline::book` as it was before `fit`: one front-to-back scan for
    /// the slot and a second for the insert position.  Kept as the
    /// reference the binary search must reproduce.
    fn book_linear(tl: &mut Timeline, at: Cycles, duration: Cycles) -> Cycles {
        let duration = duration.max(1);
        let mut start = at;
        for &(s, e) in &tl.intervals {
            if e <= start {
                continue;
            }
            if start + duration <= s {
                break;
            }
            start = e;
        }
        let end = start + duration;
        let pos = tl
            .intervals
            .iter()
            .position(|&(s, _)| s > start)
            .unwrap_or(tl.intervals.len());
        let touches_prev = pos > 0 && tl.intervals[pos - 1].1 == start;
        let touches_next = pos < tl.intervals.len() && tl.intervals[pos].0 == end;
        match (touches_prev, touches_next) {
            (true, true) => {
                tl.intervals[pos - 1].1 = tl.intervals[pos].1;
                tl.intervals.remove(pos);
            }
            (true, false) => tl.intervals[pos - 1].1 = end,
            (false, true) => tl.intervals[pos].0 = start,
            (false, false) => {
                tl.intervals.insert(pos, (start, end));
                if tl.intervals.len() > TIMELINE_CAPACITY {
                    tl.intervals.pop_front();
                }
            }
        }
        start
    }

    proptest! {
        /// Same grant on every call and the same interval set after it as
        /// the linear reference, on streams that book behind, inside and
        /// past a full window of live intervals.
        #[test]
        fn book_matches_the_linear_reference(
            stream in prop::collection::vec((0u64..80, 0u64..2_500, 0u64..40), 200..600),
        ) {
            let (mut tl, mut reference) = (Timeline::default(), Timeline::default());
            let (mut base, mut widest) = (10_000u64, 0);
            for (advance, jitter, duration) in stream {
                base += advance;
                let at = base.saturating_sub(jitter);
                prop_assert_eq!(
                    tl.earliest_fit(at, duration.max(1)),
                    book_linear(&mut reference.clone(), at, duration)
                );
                prop_assert_eq!(
                    tl.book(at, duration),
                    book_linear(&mut reference, at, duration)
                );
                prop_assert_eq!(&tl.intervals, &reference.intervals);
                widest = widest.max(tl.intervals.len());
            }
            prop_assert_eq!(widest, TIMELINE_CAPACITY, "the window never filled");
        }
    }

    #[test]
    fn timeline_capacity_is_bounded() {
        let mut tl = Timeline::default();
        for i in 0..1000u64 {
            tl.book(i * 1000, 10);
        }
        assert!(tl.busy_cycles() <= 48 * 10);
    }

    #[test]
    fn new_line_is_unowned_and_free() {
        let l = ContendedLine::new(SocketId(3));
        assert_eq!(l.owner(), None);
        assert_eq!(l.busy_horizon(), 0);
        assert_eq!(l.home, SocketId(3));
    }

    #[test]
    fn rmw_takes_ownership() {
        let mut l = ContendedLine::new(SocketId(0));
        l.book_exclusive(0, 300);
        l.commit_access(AccessKind::Rmw, SocketId(2));
        assert_eq!(l.owner(), Some(SocketId(2)));
        assert_eq!(l.busy_horizon(), 300);
        l.commit_access(AccessKind::Rmw, SocketId(1));
        assert_eq!(l.owner(), Some(SocketId(1)));
    }

    #[test]
    fn read_does_not_steal_ownership() {
        let mut l = ContendedLine::new(SocketId(0));
        l.commit_access(AccessKind::Read, SocketId(1));
        assert_eq!(
            l.owner(),
            Some(SocketId(1)),
            "a read claims an unowned line"
        );
        l.commit_access(AccessKind::Read, SocketId(4));
        assert_eq!(l.owner(), Some(SocketId(1)));
    }
}
