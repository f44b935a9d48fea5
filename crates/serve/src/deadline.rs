//! A min-heap of deadlines: the timers of one I/O thread.
//!
//! Each thread of the connection loop ([`crate::eventloop`]) keeps one
//! [`DeadlineHeap`] of the timers scheduled on its connections and
//! sleeps in its poll no longer than until the earliest entry.  An
//! entry's handle may pin its request's allocation until the entry
//! pops, yet most requests are answered long before they are due, so
//! [`DeadlineHeap::push`] drops the answered entries whenever the heap
//! has doubled since the last sweep: the heap stays proportional to
//! the requests still outstanding, at O(1) amortized cost per push.
//! `push` also reports whether the new entry is the earliest.  A sweep
//! only removes entries, so at worst it leaves the thread a wake that
//! finds nothing due.

use std::collections::BinaryHeap;
use std::time::Instant;

/// What a deadline fires on: a request that may be answered first.
pub trait Answerable {
    /// Has the request been answered (or dropped)?  Firing such an
    /// entry does nothing, so a sweep may drop it before it is due.
    fn answered(&self) -> bool;
}

/// Floor of the heap length that triggers a sweep of answered
/// entries: the first sweep runs at twice this many.
pub const SWEEP_FLOOR: usize = 32;

/// Items queued by deadline, earliest first; equal deadlines pop in
/// push order.
pub struct DeadlineHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    /// The next sweep runs once the heap holds twice this many: its
    /// size after the last sweep, floored at [`SWEEP_FLOOR`].
    swept_len: usize,
    /// Push counter: orders equal deadlines and identifies the entry
    /// just pushed.
    seq: u64,
}

struct Entry<T> {
    due: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed: BinaryHeap is a max-heap, we want earliest first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

impl<T> DeadlineHeap<T> {
    pub const fn new() -> Self {
        DeadlineHeap {
            heap: BinaryHeap::new(),
            swept_len: SWEEP_FLOOR,
            seq: 0,
        }
    }
}

impl<T> Default for DeadlineHeap<T> {
    fn default() -> Self {
        DeadlineHeap::new()
    }
}

impl<T: Answerable> DeadlineHeap<T> {
    /// Queue `item` to fire at `due`, sweeping out the answered
    /// entries if the heap has doubled since the last sweep.  Returns
    /// whether `item` is now the earliest entry.
    pub fn push(&mut self, due: Instant, item: T) -> bool {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Entry { due, seq, item });
        if self.heap.len() >= 2 * self.swept_len {
            self.sweep();
        }
        self.heap.peek().is_some_and(|top| top.seq == seq)
    }

    /// Drop every answered entry.
    pub fn sweep(&mut self) {
        self.heap.retain(|e| !e.item.answered());
        self.swept_len = self.heap.len().max(SWEEP_FLOOR);
    }

    /// Remove and return the earliest item if it is due by `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.heap.peek()?.due > now {
            return None;
        }
        self.heap.pop().map(|e| e.item)
    }

    /// The earliest deadline, if any item is queued.
    pub fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.due)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Open;

    impl Answerable for Open {
        fn answered(&self) -> bool {
            false
        }
    }

    #[test]
    fn push_reports_a_new_earliest_entry_and_pops_in_deadline_order() {
        let now = Instant::now();
        let mut heap = DeadlineHeap::new();
        let mut earliest = Vec::new();
        for ms in [30u64, 10, 20, 10, 5] {
            earliest.push(heap.push(now + Duration::from_millis(ms), Open));
        }
        // A tie with the head is not earlier: it pops after it.
        assert_eq!(earliest, [true, true, false, false, true]);
        assert!(heap.pop_due(now).is_none(), "nothing is due yet");
        let mut order = Vec::new();
        while let Some(due) = heap.next_due() {
            assert!(heap.pop_due(due).is_some());
            order.push(due);
        }
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
        assert!(heap.is_empty());
    }
}
