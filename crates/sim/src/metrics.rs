//! CPU and event accounting for simulation runs.
//!
//! The paper's analysis hinges on *where CPU time goes*: message processing
//! (MP), replication processing (RP), transaction processing (TP), object
//! store work (OS) and maintenance tasks (MT). Handlers tag every slice of
//! CPU they consume with a [`StageTag`]; [`Metrics`] aggregates those slices
//! per tag, per thread and per core, and converts them to the paper's
//! "logical cores × 100" CPU-usage convention.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// A label for a class of CPU work (e.g. `"MP"`, `"RP"`, `"TP"`, `"OS"`, `"MT"`).
///
/// Tags are interned `&'static str`s; drivers define their own vocabulary.
pub type StageTag = &'static str;

/// Aggregated counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// CPU nanoseconds per stage tag.
    tag_ns: BTreeMap<StageTag, u64>,
    /// CPU nanoseconds per thread (indexed by `ThreadId`; inside one engine
    /// domain, by the domain's local thread index).
    thread_busy_ns: Vec<u64>,
    /// CPU nanoseconds per core (indexed like `thread_busy_ns`).
    core_busy_ns: Vec<u64>,
    /// Number of context switches charged (a work item ran on a core whose
    /// previous work item belonged to a different thread).
    pub context_switches: u64,
    /// Nanoseconds spent purely on context-switch overhead.
    pub context_switch_ns: u64,
    /// Work items executed.
    pub items_run: u64,
    /// Instant from which rates/usages are computed (set by `reset_window`).
    window_start: SimTime,
}

impl Metrics {
    /// Creates empty metrics sized for `threads` threads and `cores` cores.
    pub fn new(threads: usize, cores: usize) -> Self {
        Metrics {
            thread_busy_ns: vec![0; threads],
            core_busy_ns: vec![0; cores],
            ..Metrics::default()
        }
    }

    pub(crate) fn grow(&mut self, threads: usize, cores: usize) {
        if self.thread_busy_ns.len() < threads {
            self.thread_busy_ns.resize(threads, 0);
        }
        if self.core_busy_ns.len() < cores {
            self.core_busy_ns.resize(cores, 0);
        }
    }

    pub(crate) fn charge_tag(&mut self, tag: StageTag, d: SimDuration) {
        *self.tag_ns.entry(tag).or_insert(0) += d.as_nanos();
    }

    pub(crate) fn charge_thread(&mut self, thread: usize, d: SimDuration) {
        self.thread_busy_ns[thread] += d.as_nanos();
    }

    pub(crate) fn charge_core(&mut self, core: usize, d: SimDuration) {
        self.core_busy_ns[core] += d.as_nanos();
    }

    /// Discards all accumulated counters and restarts the measurement window
    /// at `now`. Call after warm-up so steady-state numbers are unpolluted.
    pub fn reset_window(&mut self, now: SimTime) {
        let threads = self.thread_busy_ns.len();
        let cores = self.core_busy_ns.len();
        *self = Metrics::new(threads, cores);
        self.window_start = now;
    }

    /// Start of the current measurement window.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Folds one engine domain's counters into `self`, whose busy vectors
    /// are indexed by global id: `threads` and `cores` yield the global id
    /// of each of `other`'s local slots, in order. The window start is the
    /// caller's.
    ///
    /// Every operation here is an order-independent sum, and domains own
    /// disjoint ids, so merging them gives the same result in any order —
    /// the invariant the determinism suite pins.
    pub(crate) fn merge(
        &mut self,
        other: &Metrics,
        threads: impl IntoIterator<Item = usize>,
        cores: impl IntoIterator<Item = usize>,
    ) {
        for (tag, ns) in &other.tag_ns {
            *self.tag_ns.entry(tag).or_insert(0) += ns;
        }
        for (t, ns) in threads.into_iter().zip(&other.thread_busy_ns) {
            self.thread_busy_ns[t] += ns;
        }
        for (c, ns) in cores.into_iter().zip(&other.core_busy_ns) {
            self.core_busy_ns[c] += ns;
        }
        self.context_switches += other.context_switches;
        self.context_switch_ns += other.context_switch_ns;
        self.items_run += other.items_run;
    }

    /// CPU nanoseconds charged to `tag` in the current window.
    pub fn tag_nanos(&self, tag: StageTag) -> u64 {
        self.tag_ns.get(tag).copied().unwrap_or(0)
    }

    /// All tags with charges, sorted by tag name.
    pub fn tags(&self) -> impl Iterator<Item = (StageTag, u64)> + '_ {
        self.tag_ns.iter().map(|(t, ns)| (*t, *ns))
    }

    /// CPU usage of `tag` in the paper's convention (% of one logical core;
    /// 200 means two cores fully busy) over the window ending at `now`.
    pub fn tag_cpu_pct(&self, tag: StageTag, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start).as_nanos();
        if window == 0 {
            return 0.0;
        }
        self.tag_nanos(tag) as f64 / window as f64 * 100.0
    }

    /// Busy nanoseconds of one thread in the current window.
    pub fn thread_busy(&self, thread: usize) -> u64 {
        self.thread_busy_ns.get(thread).copied().unwrap_or(0)
    }

    /// Busy nanoseconds of one core in the current window.
    pub fn core_busy(&self, core: usize) -> u64 {
        self.core_busy_ns.get(core).copied().unwrap_or(0)
    }

    /// Lengths of the thread and core busy vectors.
    #[cfg(test)]
    pub(crate) fn sizes(&self) -> (usize, usize) {
        (self.thread_busy_ns.len(), self.core_busy_ns.len())
    }

    /// Sum of busy nanoseconds over a contiguous range of cores (e.g. the
    /// cores of one node).
    pub fn cores_busy(&self, cores: std::ops::Range<usize>) -> u64 {
        cores.filter_map(|c| self.core_busy_ns.get(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_pct_uses_window() {
        let mut m = Metrics::new(2, 2);
        m.reset_window(SimTime::from_nanos(1_000));
        m.charge_tag("MP", SimDuration::nanos(500));
        m.charge_core(0, SimDuration::nanos(500));
        let now = SimTime::from_nanos(2_000);
        assert!((m.tag_cpu_pct("MP", now) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_tag_reads_zero() {
        let m = Metrics::new(1, 1);
        assert_eq!(m.tag_nanos("nope"), 0);
        assert_eq!(m.tag_cpu_pct("nope", SimTime::from_nanos(10)), 0.0);
    }

    #[test]
    fn merge_sums_disjoint_shards_order_independently() {
        // Shard 0 owns thread/core 0, shard 1 owns threads 1 and 2 and core
        // 2, each counting by its own local index.
        let mut a = Metrics::new(1, 1);
        a.charge_tag("MP", SimDuration::nanos(100));
        a.charge_thread(0, SimDuration::nanos(40));
        a.charge_core(0, SimDuration::nanos(40));
        a.items_run = 3;
        let mut b = Metrics::new(2, 1);
        b.charge_tag("MP", SimDuration::nanos(11));
        b.charge_tag("OS", SimDuration::nanos(7));
        b.charge_thread(1, SimDuration::nanos(5));
        b.charge_core(0, SimDuration::nanos(5));
        b.context_switches = 2;
        b.context_switch_ns = 2_400;
        b.items_run = 4;

        let (mut ab, mut ba) = (Metrics::new(3, 3), Metrics::new(3, 3));
        ab.merge(&a, [0], [0]);
        ab.merge(&b, [1, 2], [2]);
        ba.merge(&b, [1, 2], [2]);
        ba.merge(&a, [0], [0]);

        assert_eq!(ab, ba);
        for m in [&ab, &ba] {
            assert_eq!(m.tag_nanos("MP"), 111);
            assert_eq!(m.tag_nanos("OS"), 7);
            assert_eq!(m.thread_busy(0), 40);
            assert_eq!(m.thread_busy(1), 0);
            assert_eq!(m.thread_busy(2), 5);
            assert_eq!(m.core_busy(0), 40);
            assert_eq!(m.core_busy(2), 5);
            assert_eq!(m.context_switches, 2);
            assert_eq!(m.context_switch_ns, 2_400);
            assert_eq!(m.items_run, 7);
        }
    }

    #[test]
    fn reset_clears_counters_but_keeps_sizes() {
        let mut m = Metrics::new(3, 4);
        m.charge_thread(2, SimDuration::nanos(7));
        m.reset_window(SimTime::from_nanos(5));
        assert_eq!(m.thread_busy(2), 0);
        assert_eq!(m.window_start(), SimTime::from_nanos(5));
        m.charge_thread(2, SimDuration::nanos(9)); // must not panic: sizes kept
        assert_eq!(m.thread_busy(2), 9);
    }
}
