//! The engine's event queue: a calendar queue (hierarchical timing wheel).
//!
//! The simulation pops every event in strict `(time, seq)` order; the queue
//! is the hottest data structure in the workspace. A binary heap pays
//! O(log n) per push/pop with poor locality. The calendar queue buckets
//! events by time into a power-of-two wheel of slots (1024 ns per slot): push
//! links the event at the head of its slot's chain, pop drains the current
//! slot after one deferred sort, so both are amortized O(1). Events beyond
//! the wheel's window (far-future timers: heartbeats, retry backoff) land in
//! an *overflow tier* — a small binary heap — and cascade into the wheel when
//! the window rotates past them.
//!
//! Every event waiting in a slot lives in one slab per queue, and the nodes
//! of drained slots are reused, so the queue's memory follows the most events
//! ever pending at once (the queue's high water), plus 12 B per slot.
//!
//! The plain `BinaryHeap` the wheel replaced survives only as the reference
//! model of the differential proptest at the bottom of this file.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the wheel slot width in nanoseconds (1024 ns ≈ 1 µs — the scale
/// of one work item, so steady-state slots hold a handful of events).
const SLOT_SHIFT: u32 = 10;
/// Wheel size bounds (slots). The window spans `slots << SLOT_SHIFT` ns.
const MIN_SLOTS: usize = 1024;
const MAX_SLOTS: usize = 16_384;

/// One event of the overflow tier. Heap ordering is reversed on
/// `(time, seq)` so the `BinaryHeap` max-heap yields the earliest event first.
struct HeapEntry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A chain link meaning "no node": the end of a slot's chain or of the free
/// list.
const NIL: u32 = u32::MAX;

/// One slab entry: an event waiting in a wheel slot, or (with `payload:
/// None`) a free node waiting for reuse. `next` links the slot's chain, or
/// the free list.
struct Node<T> {
    time: SimTime,
    seq: u64,
    next: u32,
    payload: Option<T>,
}

/// Calendar queue: `slots` time buckets of `1 << SLOT_SHIFT` ns each, plus a
/// binary-heap overflow tier for events past the current window.
///
/// Every event waiting in a wheel slot lives in one slab, `nodes`; a slot is
/// only the head of a singly linked chain through it. When the cursor
/// reaches a slot, its events move into `current` and their nodes go onto a
/// free list for reuse, so the slab never holds more nodes than the most
/// events ever pending at once, and the steady state allocates nothing. (One
/// vector per slot would instead keep, in every slot, the most events that
/// slot ever held: a sum of per-slot maxima, not the live population.)
struct Wheel<T> {
    /// Power-of-two slot count; `mask = slots - 1`.
    mask: u64,
    /// The slab. A node's index is stable while its event waits in a chain.
    nodes: Vec<Node<T>>,
    /// Head of the free list of `nodes`, or `NIL`.
    free: u32,
    /// Chain head per slot, indexed by `absolute_slot & mask`, or `NIL`. Only
    /// slots in `[cursor, window_end)` may be non-empty. Chains are LIFO,
    /// so a slot's earliest event may sit anywhere in its chain.
    slots: Vec<u32>,
    /// Earliest event time per slot, valid while the slot's chain is
    /// non-empty: a peek reads it instead of walking the chain.
    earliest: Vec<SimTime>,
    /// The events of slot `cursor` once the cursor reached it, sorted
    /// descending so `pop()` from the tail yields ascending `(time, seq)`.
    /// While it is non-empty, that slot's chain is empty and pushes into the
    /// slot land here at their sorted position.
    current: Vec<(SimTime, u64, T)>,
    /// Absolute slot index currently being drained. Every event in a slot
    /// `< cursor` has already been popped.
    cursor: u64,
    /// Absolute slot index one past the window; events at `>= window_end`
    /// go to the overflow tier.
    window_end: u64,
    /// Events currently stored in the wheel tier, `current` included
    /// (excludes overflow).
    in_wheel: usize,
    /// Far-future events, min-first by `(time, seq)`.
    overflow: BinaryHeap<HeapEntry<T>>,
    /// The earliest pending time, when a peek has worked it out and nothing
    /// has been popped since: an idle domain is peeked every round, and its
    /// next event (a heartbeat) can be a thousand empty slots away.
    head: Cell<Option<SimTime>>,
}

impl<T> Wheel<T> {
    fn new(hint: usize) -> Self {
        let slots = hint.next_power_of_two().clamp(MIN_SLOTS, MAX_SLOTS);
        Wheel {
            mask: slots as u64 - 1,
            nodes: Vec::new(),
            free: NIL,
            slots: vec![NIL; slots],
            earliest: vec![SimTime::ZERO; slots],
            current: Vec::new(),
            cursor: 0,
            window_end: slots as u64,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            head: Cell::new(None),
        }
    }

    fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// Links an event at the head of its slot's chain, in a free node when
    /// there is one.
    fn link(&mut self, slot: u64, time: SimTime, seq: u64, payload: T) {
        let at = (slot & self.mask) as usize;
        let next = self.slots[at];
        if next == NIL || time < self.earliest[at] {
            self.earliest[at] = time;
        }
        let node = Node {
            time,
            seq,
            next,
            payload: Some(payload),
        };
        self.slots[at] = if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "more than u32::MAX - 1 events waiting in one wheel"
            );
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.in_wheel += 1;
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let slot = time.nanos() >> SLOT_SHIFT;
        debug_assert!(slot >= self.cursor, "event time regressed behind cursor");
        if self.head.get().is_some_and(|head| time < head) {
            self.head.set(Some(time));
        }
        if slot >= self.window_end {
            self.overflow.push(HeapEntry { time, seq, payload });
        } else if slot == self.cursor && !self.current.is_empty() {
            // The slot is mid-drain: keep it sorted (descending) so the next
            // pop still takes the minimum. New events always have a larger
            // seq than anything already popped, so order stays exact.
            let key = (time, seq);
            let at = self.current.partition_point(|e| (e.0, e.1) > key);
            self.current.insert(at, (time, seq, payload));
            self.in_wheel += 1;
        } else {
            self.link(slot, time, seq, payload);
        }
    }

    /// Advances `cursor` to the next non-empty slot (rotating the window
    /// forward over the overflow tier when the wheel is drained) and makes
    /// sure `current` holds that slot's events, sorted. `None` when the queue
    /// is empty.
    fn advance(&mut self) -> Option<()> {
        if self.in_wheel == 0 {
            // Window exhausted: jump straight to the earliest overflow event
            // and cascade everything that now fits into the wheel.
            let start = self.overflow.peek()?.time.nanos() >> SLOT_SHIFT;
            self.cursor = start;
            self.window_end = start + self.mask + 1;
            while let Some(e) = self.overflow.peek() {
                let slot = e.time.nanos() >> SLOT_SHIFT;
                if slot >= self.window_end {
                    break;
                }
                let e = self.overflow.pop().expect("peeked above");
                self.link(slot, e.time, e.seq, e.payload);
            }
        }
        if !self.current.is_empty() {
            return Some(());
        }
        loop {
            let at = (self.cursor & self.mask) as usize;
            let mut idx = std::mem::replace(&mut self.slots[at], NIL);
            if idx != NIL {
                // Move the chain's events out and free its nodes.
                while idx != NIL {
                    let node = &mut self.nodes[idx as usize];
                    let payload = node.payload.take().expect("a chained node holds its event");
                    self.current.push((node.time, node.seq, payload));
                    let next = std::mem::replace(&mut node.next, self.free);
                    self.free = idx;
                    idx = next;
                }
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                return Some(());
            }
            self.cursor += 1;
        }
    }

    /// Earliest pending event time *without* moving the cursor. The sharded
    /// engine peeks every domain each LBTS round and only pops events inside
    /// the horizon; events merged from other shards may still arrive between
    /// the cursor and the slot scanned here, so committing the cursor on a
    /// peek (as `advance` does) would strand them behind it. The cursor only
    /// moves in `pop`, i.e. only up to slots whose events actually executed.
    fn peek_time(&self) -> Option<SimTime> {
        if self.head.get().is_none() {
            self.head.set(self.scan_head());
        }
        self.head.get()
    }

    fn scan_head(&self) -> Option<SimTime> {
        if self.in_wheel == 0 {
            // Overflow events are all >= window_end, so when the wheel tier
            // is empty the overflow head is the global minimum.
            return self.overflow.peek().map(|e| e.time);
        }
        if let Some(e) = self.current.last() {
            // Mid-drain slot: sorted descending, minimum at the tail.
            return Some(e.0);
        }
        let mut c = self.cursor;
        loop {
            let at = (c & self.mask) as usize;
            if self.slots[at] != NIL {
                return Some(self.earliest[at]);
            }
            c += 1;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.head.set(None);
        self.advance()?;
        self.in_wheel -= 1;
        self.current.pop()
    }
}

/// The engine's pending-event queue. Pops in strict ascending `(time, seq)`
/// order.
pub(crate) struct EventQueue<T> {
    wheel: Wheel<T>,
    high_water: usize,
}

impl<T> EventQueue<T> {
    /// `hint` sizes the wheel for the expected steady-state population; it
    /// affects performance only.
    pub fn new(hint: usize) -> Self {
        EventQueue {
            wheel: Wheel::new(hint),
            high_water: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Largest population the queue ever reached (cold-start sizing signal).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        self.wheel.push(time, seq, payload);
        self.high_water = self.high_water.max(self.len());
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.wheel.pop()
    }

    /// Slots in the wheel.
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.wheel.slots.len()
    }

    /// Nodes in the wheel's slab, free ones included.
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.wheel.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::proptest;

    fn drain_order(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, p)) = q.pop() {
            out.push((t.nanos(), s, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: EventQueue<u32> = EventQueue::new(64);
        q.push(SimTime::from_nanos(500), 0, 0);
        q.push(SimTime::from_nanos(100), 1, 1);
        q.push(SimTime::from_nanos(100), 2, 2);
        q.push(SimTime::from_nanos(2_000_000), 3, 3); // beyond a 1k wheel
        q.push(SimTime::ZERO, 4, 4);
        let order: Vec<u32> = drain_order(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(order, vec![4, 1, 2, 0, 3]);
    }

    #[test]
    fn far_future_timers_land_in_overflow_and_rollover_preserves_order() {
        // Heartbeat/backoff-style horizon: a 1024-slot wheel spans ~1 ms, so
        // timers at +10 ms / +50 ms / +1 s must take the overflow tier and
        // cascade back in exact order as the window rotates past them.
        let mut q: EventQueue<u32> = EventQueue::new(MIN_SLOTS);
        let horizon_ns = (MIN_SLOTS as u64) << SLOT_SHIFT;
        let mut expect = Vec::new();
        for (i, t) in [
            1_000_000_000u64, // 1 s
            10_000_000,       // 10 ms
            horizon_ns - 1,   // last in-window slot
            50_000_000,       // 50 ms
            10_000_000,       // tie on time, later seq
            500,              // immediate
        ]
        .iter()
        .enumerate()
        {
            q.push(SimTime::from_nanos(*t), i as u64, i as u32);
            expect.push((*t, i as u64));
        }
        assert!(q.len() == 6);
        expect.sort();
        let got: Vec<(u64, u64)> = drain_order(&mut q).iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn push_into_slot_being_drained_keeps_order() {
        let mut q: EventQueue<u32> = EventQueue::new(MIN_SLOTS);
        // Three events in one slot; pop one (sorting the slot), then push two
        // more into the same slot — one earlier, one later than the remainder.
        for (seq, (t, p)) in [(100u64, 0u32), (900, 1), (500, 2)].into_iter().enumerate() {
            q.push(SimTime::from_nanos(t), seq as u64, p);
        }
        assert_eq!(q.pop().map(|e| e.2), Some(0));
        q.push(SimTime::from_nanos(200), 3, 3);
        q.push(SimTime::from_nanos(1000), 4, 4);
        let rest: Vec<u32> = drain_order(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(rest, vec![3, 2, 1, 4]);
    }

    #[test]
    fn a_steady_stream_reuses_the_slab() {
        // A steady population of 64 pending events, each pop followed by a
        // push up to ~50 µs ahead, for over four laps of a 1024-slot window:
        // every slot is revisited, and a slot that ever held many events must
        // not keep their nodes for itself.
        let mut q: EventQueue<u32> = EventQueue::new(MIN_SLOTS);
        let mut seq = 0u64;
        for i in 0..64u64 {
            q.push(SimTime::from_nanos(i * 700), seq, 0);
            seq += 1;
        }
        let laps = 4 * ((MIN_SLOTS as u64) << SLOT_SHIFT);
        let mut now = 0;
        while now < laps {
            let (t, _, _) = q.pop().expect("the population stays at 64");
            assert!(t.nanos() >= now, "pops go forward in time");
            now = t.nanos();
            // Bursty offsets: most land within a slot or two, some pile up.
            let ahead = match seq % 8 {
                0 => 0,
                1..=5 => (seq * 7_919) % 4_000,
                _ => (seq * 104_729) % 50_000,
            };
            q.push(SimTime::from_nanos(now + ahead), seq, 0);
            seq += 1;
        }
        assert_eq!(q.high_water(), 64);
        assert!(
            q.slab_len() <= q.high_water(),
            "slab grew to {} nodes for {} events pending at most",
            q.slab_len(),
            q.high_water()
        );
    }

    #[test]
    fn peek_sees_the_minimum_of_an_unsorted_slot() {
        // Slot chains are LIFO, so the earliest event of a slot nobody has
        // drained yet can sit anywhere in its chain. Slot 5 of the window,
        // offsets inside it; the mixed order repeats a time.
        let base = 5 << SLOT_SHIFT;
        for order in [
            &[100u64, 200, 300, 400][..],
            &[400, 300, 200, 100],
            &[300, 100, 400, 100, 200],
        ] {
            // A fresh queue per prefix: a peek remembers its answer until
            // the next pop, so only the first peek scans the slot.
            for n in 1..=order.len() {
                let mut q: EventQueue<u32> = EventQueue::new(MIN_SLOTS);
                for (seq, &off) in order[..n].iter().enumerate() {
                    q.push(SimTime::from_nanos(base + off), seq as u64, seq as u32);
                }
                let min = order[..n].iter().min().expect("non-empty prefix");
                assert_eq!(q.peek_time(), Some(SimTime::from_nanos(base + min)));
                let got: Vec<(u64, u64)> = drain_order(&mut q).iter().map(|e| (e.0, e.1)).collect();
                let mut want: Vec<(u64, u64)> = order[..n]
                    .iter()
                    .enumerate()
                    .map(|(seq, &off)| (base + off, seq as u64))
                    .collect();
                want.sort();
                assert_eq!(got, want, "order {order:?}, first {n}");
            }
        }
    }

    proptest! {
        /// Differential oracle: random pushes (with ties, far-future bursts,
        /// and interleaved pops and peeks) drain in the exact same order from
        /// the wheel and a plain `BinaryHeap`. The peek arm is the sharded engine's round:
        /// every domain is peeked, and events delivered from other shards then
        /// land anywhere between the last popped time and the peeked head, so
        /// a peek that committed the cursor would strand them.
        #[test]
        fn wheel_matches_heap_on_random_streams(seed in 0u64..1_000_000) {
            let mut rng = SimRng::seed(seed);
            let mut wheel: EventQueue<u32> = EventQueue::new(256);
            let mut heap: BinaryHeap<HeapEntry<u32>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = Vec::new();
            let mut push = |wheel: &mut EventQueue<u32>, heap: &mut BinaryHeap<_>, t: u64, i| {
                let time = SimTime::from_nanos(t);
                wheel.push(time, seq, i);
                heap.push(HeapEntry { time, seq, payload: i });
                seq += 1;
            };
            // Drain-heavy seeds empty the wheel tier mid-stream, so peeks and
            // pops also meet the overflow head and the window rollover.
            let pops = 4 + rng.below(8);
            for i in 0..600u32 {
                let op = rng.below(20);
                if op < pops {
                    let a = wheel.pop();
                    let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!((x.0, x.1, x.2), (y.0, y.1, y.2));
                            now = x.0.nanos();
                            popped.push((x.0.nanos(), x.1));
                        }
                        (None, None) => {}
                        (a, b) => panic!(
                            "divergent emptiness: wheel={:?} heap={:?}",
                            a.map(|e| e.1),
                            b.map(|e| e.1)
                        ),
                    }
                } else if op < pops + 4 {
                    let head = wheel.peek_time();
                    assert_eq!(head, heap.peek().map(|e| e.time));
                    let Some(head) = head.map(|t| t.nanos()) else { continue };
                    for _ in 0..=rng.below(3) {
                        let t = match rng.below(5) {
                            0 => now,                              // tie with the last pop
                            1 => head,                             // tie with the peeked head
                            2 => head + rng.below(50_000_000),     // far-future burst
                            _ => now + rng.below(head - now + 1),  // inside the gap
                        };
                        push(&mut wheel, &mut heap, t, i);
                        // Peek again: an answer remembered from the first
                        // peek must have followed a push below it.
                        assert_eq!(wheel.peek_time(), heap.peek().map(|e| e.time));
                    }
                } else {
                    // Mix near-term, tie-heavy, and far-future (overflow) times.
                    let t = now + match rng.below(10) {
                        0..=5 => rng.below(4_000),
                        6 | 7 => rng.below(100) * 1_000, // dense ties per slot
                        8 => rng.below(50_000_000),      // past the window
                        _ => 0,                          // exact tie with `now`
                    };
                    push(&mut wheel, &mut heap, t, i);
                }
            }
            let rest_w = drain_order(&mut wheel);
            let rest_h: Vec<_> = std::iter::from_fn(|| heap.pop())
                .map(|e| (e.time.nanos(), e.seq, e.payload))
                .collect();
            assert_eq!(rest_w, rest_h);
            // And the merged pop stream really is sorted by (time, seq).
            popped.extend(rest_w.iter().map(|e| (e.0, e.1)));
            let mut sorted = popped.clone();
            sorted.sort();
            assert_eq!(popped, sorted);
        }
    }

    #[test]
    fn high_water_tracks_peak_population() {
        let mut q: EventQueue<u32> = EventQueue::new(64);
        for i in 0..10u64 {
            q.push(SimTime::from_nanos(i * 100), i, i as u32);
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(SimTime::from_nanos(10_000), 11, 99);
        assert_eq!(q.high_water(), 10);
        assert_eq!(q.len(), 6);
    }
}
