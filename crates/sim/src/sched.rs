//! The engine's event queue: a calendar queue (hierarchical timing wheel).
//!
//! The simulation pops every event in strict `(time, seq)` order; the queue
//! is the hottest data structure in the workspace. A binary heap pays
//! O(log n) per push/pop with poor locality. The calendar queue buckets
//! events by time into a power-of-two wheel of slots (1024 ns per slot): push
//! is an append into the target slot's vector, pop drains the current slot
//! after one deferred sort, so both are amortized O(1). Events beyond the
//! wheel's window (far-future timers: heartbeats, retry backoff) land in an
//! *overflow tier* — a small binary heap — and cascade into the wheel when
//! the window rotates past them.
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

/// Calendar queue: `slots` time buckets of `1 << SLOT_SHIFT` ns each, plus a
/// binary-heap overflow tier for events past the current window.
struct Wheel<T> {
    /// Power-of-two slot count; `mask = slots - 1`.
    mask: u64,
    /// Slot vectors, indexed by `absolute_slot & mask`. Only slots in
    /// `[cursor, window_end)` may be non-empty; capacity is retained across
    /// drains so steady state allocates nothing.
    buckets: Vec<Vec<(SimTime, u64, T)>>,
    /// Absolute slot index currently being drained. Every event in a slot
    /// `< cursor` has already been popped.
    cursor: u64,
    /// Absolute slot index one past the window; events at `>= window_end`
    /// go to the overflow tier.
    window_end: u64,
    /// Whether `buckets[cursor & mask]` is sorted (descending, so `pop()`
    /// from the tail yields ascending `(time, seq)`).
    cur_sorted: bool,
    /// Events currently stored in wheel slots (excludes overflow).
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
        let mut buckets = Vec::with_capacity(slots);
        buckets.resize_with(slots, Vec::new);
        Wheel {
            mask: slots as u64 - 1,
            buckets,
            cursor: 0,
            window_end: slots as u64,
            cur_sorted: false,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            head: Cell::new(None),
        }
    }

    fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let slot = time.nanos() >> SLOT_SHIFT;
        debug_assert!(slot >= self.cursor, "event time regressed behind cursor");
        if self.head.get().is_some_and(|head| time < head) {
            self.head.set(Some(time));
        }
        if slot >= self.window_end {
            self.overflow.push(HeapEntry { time, seq, payload });
            return;
        }
        let bucket = &mut self.buckets[(slot & self.mask) as usize];
        if slot == self.cursor && self.cur_sorted {
            // The slot is mid-drain: keep it sorted (descending) so the next
            // pop still takes the minimum. New events always have a larger
            // seq than anything already popped, so order stays exact.
            let key = (time, seq);
            let at = bucket.partition_point(|e| (e.0, e.1) > key);
            bucket.insert(at, (time, seq, payload));
        } else {
            bucket.push((time, seq, payload));
        }
        self.in_wheel += 1;
    }

    /// Advances `cursor` to the next non-empty slot (rotating the window
    /// forward over the overflow tier when the wheel is drained), sorts it if
    /// needed, and returns its bucket index. `None` when the queue is empty.
    fn advance(&mut self) -> Option<usize> {
        if self.in_wheel == 0 {
            // Window exhausted: jump straight to the earliest overflow event
            // and cascade everything that now fits into the wheel.
            let start = self.overflow.peek()?.time.nanos() >> SLOT_SHIFT;
            self.cursor = start;
            self.window_end = start + self.mask + 1;
            self.cur_sorted = false;
            while let Some(e) = self.overflow.peek() {
                if e.time.nanos() >> SLOT_SHIFT >= self.window_end {
                    break;
                }
                let e = self.overflow.pop().expect("peeked above");
                let slot = e.time.nanos() >> SLOT_SHIFT;
                self.buckets[(slot & self.mask) as usize].push((e.time, e.seq, e.payload));
                self.in_wheel += 1;
            }
        }
        loop {
            let idx = (self.cursor & self.mask) as usize;
            if !self.buckets[idx].is_empty() {
                if !self.cur_sorted {
                    self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                    self.cur_sorted = true;
                }
                return Some(idx);
            }
            self.cursor += 1;
            self.cur_sorted = false;
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
        let mut c = self.cursor;
        loop {
            let idx = (c & self.mask) as usize;
            let bucket = &self.buckets[idx];
            if !bucket.is_empty() {
                if c == self.cursor && self.cur_sorted {
                    // Mid-drain slot: sorted descending, minimum at the tail.
                    return bucket.last().map(|e| e.0);
                }
                return bucket.iter().map(|e| e.0).min();
            }
            c += 1;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.head.set(None);
        let idx = self.advance()?;
        let e = self.buckets[idx].pop().expect("advance returned non-empty");
        self.in_wheel -= 1;
        Some(e)
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
