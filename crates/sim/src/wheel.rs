//! The SM's writeback queue: a timing wheel with a heap for far events.
//!
//! ALU and shared-memory latencies are small constants, so almost every
//! writeback is due within a few dozen cycles of its issue. Those go into a
//! wheel of [`SPAN`] per-cycle slots, each a FIFO in push order; the rare
//! event due further out (a DRAM return) goes into an overflow heap ordered
//! on `(due, seq)`. Retiring a cycle merges its slot with the heap's due
//! events by push sequence, so the queue yields exactly the order of one
//! heap over every event — `(due, seq)` — at O(1) per event.
//!
//! The wheel relies on the simulator visiting every cycle at which an event
//! is due: the run loop only fast-forwards to [`WritebackQueue::earliest`]
//! or earlier, and steps every cycle otherwise. A slot then holds events of
//! a single due cycle at a time.

use crate::config::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cycles the wheel covers: an event due less than `SPAN` cycles after
/// its push goes into a slot, anything later into the overflow heap.
const SPAN: usize = 64;

// `occupied` holds one bit per slot.
const _: () = assert!(SPAN == u64::BITS as usize);

/// A queued item with its due cycle and push sequence.
#[derive(Clone, Debug)]
struct Entry<T> {
    due: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Items due at future cycles, retired in `(due, push order)` order.
#[derive(Clone, Debug)]
pub(crate) struct WritebackQueue<T> {
    slots: Vec<VecDeque<Entry<T>>>,
    /// Bit `k` set: `slots[k]` is non-empty.
    occupied: u64,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> WritebackQueue<T> {
    pub(crate) fn new() -> Self {
        WritebackQueue {
            slots: (0..SPAN).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.overflow.is_empty()
    }

    /// Queue `item`, pushed at cycle `now`, to retire at cycle `due`.
    pub(crate) fn push(&mut self, now: Cycle, due: Cycle, item: T) {
        let entry = Entry {
            due,
            seq: self.next_seq,
            item,
        };
        self.next_seq += 1;
        if due > now && due - now < SPAN as Cycle {
            let k = due as usize % SPAN;
            debug_assert!(
                self.slots[k].front().is_none_or(|e| e.due == due),
                "slot {k} holds an event not retired at its due cycle"
            );
            self.slots[k].push_back(entry);
            self.occupied |= 1 << k;
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Retire the next item due by `now`, in `(due, seq)` order: the
    /// overflow heap's head if it is due and was pushed before the front of
    /// `now`'s slot, else that front.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<T> {
        let k = now as usize % SPAN;
        let slot_seq = self.slots[k].front().map(|e| {
            debug_assert_eq!(e.due, now, "wheel event missed its due cycle");
            e.seq
        });
        let from_overflow = match self.overflow.peek() {
            Some(Reverse(e)) if e.due <= now => slot_seq.is_none_or(|s| e.due < now || e.seq < s),
            _ => false,
        };
        let entry = if from_overflow {
            self.overflow.pop().map(|Reverse(e)| e)
        } else {
            let e = self.slots[k].pop_front();
            if self.slots[k].is_empty() {
                self.occupied &= !(1 << k);
            }
            e
        }?;
        Some(entry.item)
    }

    /// The earliest due cycle of any queued item, as seen after retiring
    /// cycle `now`: every wheel item is then due in `now + 1..now + SPAN`.
    pub(crate) fn earliest(&self, now: Cycle) -> Option<Cycle> {
        let wheel = (self.occupied != 0).then(|| {
            let from = (now as usize + 1) % SPAN;
            now + 1 + Cycle::from(self.occupied.rotate_right(from as u32).trailing_zeros())
        });
        let heap = self.overflow.peek().map(|Reverse(e)| e.due);
        match (wheel, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drive the wheel and a plain `(due, seq)` heap through the same
    /// pushes, stepping or skipping to `earliest()`, and require identical
    /// retire sequences per cycle and identical `earliest()` answers.
    fn compare(ops: &[(u8, u16, u8)]) {
        let mut wheel = WritebackQueue::new();
        let mut reference: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now: Cycle = 0;
        for &(pushes, latency, advance) in ops {
            // Retire everything due now.
            let mut got = Vec::new();
            while let Some(s) = wheel.pop_due(now) {
                got.push(s);
            }
            let mut want = Vec::new();
            while reference
                .peek()
                .is_some_and(|Reverse((due, _))| *due <= now)
            {
                want.push(reference.pop().expect("peeked").0 .1);
            }
            assert_eq!(got, want, "retired at cycle {now}");
            // Same-cycle pushes with latencies under and over the span.
            for i in 0..pushes % 5 {
                let lat = match (latency >> (3 * i)) % 4 {
                    0 => 1,
                    1 => Cycle::from(latency % 70) + 1,
                    2 => SPAN as Cycle - 1 + Cycle::from(i),
                    _ => Cycle::from(latency) + 1,
                };
                wheel.push(now, now + lat, seq);
                reference.push(Reverse((now + lat, seq)));
                seq += 1;
            }
            let earliest = reference.peek().map(|Reverse((due, _))| *due);
            assert_eq!(wheel.earliest(now), earliest, "earliest at cycle {now}");
            assert_eq!(wheel.is_empty(), reference.is_empty());
            // Step one cycle, or skip to the earliest due event (never
            // past it, as the run loop guarantees).
            now = match (advance % 3, earliest) {
                (0, Some(due)) => due,
                (1, Some(due)) => (now + 1 + Cycle::from(advance)).min(due),
                _ => now + 1,
            };
        }
    }

    proptest! {
        #[test]
        fn wheel_matches_a_heap(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..300),
        ) {
            compare(&ops);
        }
    }

    #[test]
    fn same_due_cycle_keeps_push_order_across_heap_and_wheel() {
        let mut q = WritebackQueue::new();
        // Pushed at 0 due at 100: overflow. Pushed at 50 due at 100: wheel.
        q.push(0, 100, 'a');
        q.push(0, 100, 'b');
        q.push(50, 100, 'c');
        q.push(60, 100, 'd');
        assert_eq!(q.earliest(60), Some(100));
        let order: Vec<char> = std::iter::from_fn(|| q.pop_due(100)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
        assert!(q.is_empty());
    }
}
