//! What a run reports: the [`SimReport`] of a measured window and its
//! fingerprint, and the windowed telemetry sampler.

use std::collections::BTreeMap;

use rablock_sim::{
    AttributionReport, DeviceStats, LatSummary, SimDuration, SimTime, ThreadId, TimeSeries,
};
use rablock_storage::StoreStats;

use super::ClusterSim;
use crate::osd::Osd;

/// Aggregated results of one measured window.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured wall-clock (simulated) duration.
    pub duration: SimDuration,
    /// Completed writes (and creates) in the window.
    pub writes_done: u64,
    /// Completed reads in the window.
    pub reads_done: u64,
    /// Write IOPS.
    pub write_iops: f64,
    /// Read IOPS.
    pub read_iops: f64,
    /// Write latency summary (mean / p50 / p95 / p99 / p99.9).
    pub write_lat: LatSummary,
    /// Read latency summary (mean / p50 / p95 / p99 / p99.9).
    pub read_lat: LatSummary,
    /// CPU usage per storage node (% of one core, paper convention).
    pub node_cpu_pct: Vec<f64>,
    /// CPU usage per stage tag across the cluster.
    pub tag_cpu_pct: BTreeMap<&'static str, f64>,
    /// CPU usage per thread class across the cluster.
    pub class_cpu_pct: BTreeMap<&'static str, f64>,
    /// Context switches charged in the window.
    pub context_switches: u64,
    /// Scheduler work items executed in the window (DES events that ran a
    /// handler) — the denominator for wall-clock events/sec.
    pub events_processed: u64,
    /// Aggregated backend store statistics (WAF).
    pub store: StoreStats,
    /// Aggregated device statistics.
    pub device: DeviceStats,
    /// Total NVM bytes written (operation logs).
    pub nvm_bytes: u64,
    /// Forced synchronous flushes because NVM filled up.
    pub nvm_full_stalls: u64,
    /// Client operations surfaced as errors (retry budget exhausted or an
    /// error reply under fault injection).
    pub client_errors: u64,
    /// Recovery pushes sent by all OSDs (log replay and backfill).
    pub recovery_pushes: u64,
    /// Bytes pushed by full-object backfill across all OSDs.
    pub backfill_bytes: u64,
    /// Recovery pushes deferred by the backfill throttle across all OSDs.
    pub backfill_queued: u64,
    /// Simulated time OSDs spent in throttled backfill windows (summed).
    pub backfill_throttled_nanos: u64,
    /// Rejoins the monitor's flap dampening refused.
    pub flaps_damped: u64,
    /// Objects still known missing on some peer at the end of the window
    /// (outstanding recovery work; zero once the cluster healed).
    pub degraded_objects: u64,
    /// Largest pending-event population the scheduler's queue reached over
    /// the whole run (cold-start sizing signal for the timing wheel).
    pub queue_high_water: u64,
    /// Scrub rounds completed across all OSDs.
    pub scrubs_completed: u64,
    /// Replica inconsistencies scrub comparison flagged (bad copies).
    pub scrub_errors_found: u64,
    /// Flagged inconsistencies repaired (self-heal fetches + peer pushes).
    pub scrub_errors_repaired: u64,
    /// Bytes deep scrub read back and re-verified.
    pub scrub_bytes: u64,
    /// Simulated time deep-scrub starts spent throttled behind the shared
    /// backfill byte budget (summed over OSDs).
    pub scrub_throttled_nanos: u64,
    /// Client reads the storage read path rejected with a checksum
    /// mismatch (each one triggers read-repair on the serving OSD).
    pub read_checksum_errors: u64,
    /// Per-component latency attribution (present when tracing is on).
    /// Excluded from determinism fingerprints: it is derived observational
    /// data, not simulation state.
    pub attribution: Option<AttributionReport>,
}

impl SimReport {
    /// Total client IOPS.
    pub fn total_iops(&self) -> f64 {
        self.write_iops + self.read_iops
    }

    /// Mean CPU usage per node.
    pub fn mean_node_cpu(&self) -> f64 {
        if self.node_cpu_pct.is_empty() {
            0.0
        } else {
            self.node_cpu_pct.iter().sum::<f64>() / self.node_cpu_pct.len() as f64
        }
    }

    /// Everything a run is allowed to vary by between two executions of the
    /// same seed — nothing — as named integer words, so equality is
    /// byte-for-byte: raw counters, latency percentiles in nanoseconds, CPU
    /// percentages, store/device accounting, and (when history checking is
    /// on) the checker's `writes_acked` / `reads_checked` verdict counts.
    /// A word is named after the report field it comes from (`writes_done`,
    /// `write_lat.p99`, `node_cpu_pct[2]`, `store.wal_bytes`).
    pub fn fingerprint(&self, checker: Option<(u64, u64)>) -> Fingerprint {
        // Exhaustive on purpose: a new report field does not compile until
        // someone decides here whether it is fingerprinted.
        let SimReport {
            duration,
            writes_done,
            reads_done,
            write_iops,
            read_iops,
            write_lat,
            read_lat,
            node_cpu_pct,
            tag_cpu_pct,
            class_cpu_pct,
            context_switches,
            events_processed,
            store,
            device,
            nvm_bytes,
            nvm_full_stalls,
            client_errors,
            recovery_pushes,
            backfill_bytes,
            backfill_queued,
            backfill_throttled_nanos,
            flaps_damped,
            degraded_objects,
            queue_high_water,
            scrubs_completed,
            scrub_errors_found,
            scrub_errors_repaired,
            scrub_bytes,
            scrub_throttled_nanos,
            read_checksum_errors,
            // Only exists when tracing is armed; traced must equal untraced.
            attribution: _,
        } = self;
        let StoreStats {
            user_bytes,
            wal_bytes,
            flush_bytes,
            compaction_bytes,
            data_bytes,
            metadata_bytes,
            superblock_bytes,
            read_bytes,
            transactions,
        } = *store;
        let DeviceStats {
            reads,
            writes,
            flushes,
            bytes_read,
            bytes_written,
            total_latency_ns,
        } = *device;
        let count = |name: &str, n: u64| (name.to_string(), Word::Count(n));
        let real = |name: &str, x: f64| (name.to_string(), Word::Real(x.to_bits()));
        let mut fp = vec![
            count("duration", duration.as_nanos()),
            count("writes_done", *writes_done),
            count("reads_done", *reads_done),
            real("write_iops", *write_iops),
            real("read_iops", *read_iops),
            count("context_switches", *context_switches),
            count("events_processed", *events_processed),
            count("nvm_bytes", *nvm_bytes),
            count("nvm_full_stalls", *nvm_full_stalls),
            count("client_errors", *client_errors),
            count("queue_high_water", *queue_high_water),
            count("recovery_pushes", *recovery_pushes),
            count("backfill_bytes", *backfill_bytes),
            count("degraded_objects", *degraded_objects),
            count("backfill_queued", *backfill_queued),
            count("backfill_throttled_nanos", *backfill_throttled_nanos),
            count("flaps_damped", *flaps_damped),
            count("scrubs_completed", *scrubs_completed),
            count("scrub_errors_found", *scrub_errors_found),
            count("scrub_errors_repaired", *scrub_errors_repaired),
            count("scrub_bytes", *scrub_bytes),
            count("scrub_throttled_nanos", *scrub_throttled_nanos),
            count("read_checksum_errors", *read_checksum_errors),
        ];
        for (lat, summary) in [("write_lat", write_lat), ("read_lat", read_lat)] {
            let fields = ["mean", "p50", "p95", "p99", "p999"]
                .iter()
                .zip(summary.fields());
            fp.extend(fields.map(|(f, d)| count(&format!("{lat}.{f}"), d.as_nanos())));
        }
        let nodes = node_cpu_pct.iter().enumerate();
        fp.extend(nodes.map(|(i, p)| real(&format!("node_cpu_pct[{i}]"), *p)));
        for (map, pcts) in [
            ("tag_cpu_pct", tag_cpu_pct),
            ("class_cpu_pct", class_cpu_pct),
        ] {
            fp.extend(pcts.iter().map(|(k, p)| real(&format!("{map}[{k}]"), *p)));
        }
        fp.extend([
            count("store.user_bytes", user_bytes),
            count("store.wal_bytes", wal_bytes),
            count("store.flush_bytes", flush_bytes),
            count("store.compaction_bytes", compaction_bytes),
            count("store.data_bytes", data_bytes),
            count("store.metadata_bytes", metadata_bytes),
            count("store.superblock_bytes", superblock_bytes),
            count("store.read_bytes", read_bytes),
            count("store.transactions", transactions),
            count("device.reads", reads),
            count("device.writes", writes),
            count("device.flushes", flushes),
            count("device.bytes_read", bytes_read),
            count("device.bytes_written", bytes_written),
            count("device.total_latency_ns", total_latency_ns),
        ]);
        if let Some((acked, checked)) = checker {
            fp.extend([
                count("writes_acked", acked),
                count("reads_checked", checked),
            ]);
        }
        fp
    }
}

/// A run's fingerprint: every simulated result as a `(name, word)` pair, in
/// the fixed order [`SimReport::fingerprint`] lists them.
pub type Fingerprint = Vec<(String, Word)>;

/// One fingerprint word. An `f64` is kept as its IEEE-754 bit pattern, so
/// equality is byte-for-byte; it prints as the shortest decimal that parses
/// back to the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Word {
    /// A counter, a byte count or a duration in nanoseconds.
    Count(u64),
    /// The bits of an `f64` (IOPS, CPU percentages).
    Real(u64),
}

impl std::fmt::Display for Word {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Word::Count(n) => write!(f, "{n}"),
            Word::Real(bits) => write!(f, "{:?}", f64::from_bits(bits)),
        }
    }
}

impl std::str::FromStr for Word {
    type Err = std::num::ParseFloatError;

    /// A `u64` is a [`Word::Count`]; anything else must parse as an `f64`.
    fn from_str(s: &str) -> Result<Word, Self::Err> {
        match s.parse() {
            Ok(n) => Ok(Word::Count(n)),
            Err(_) => s.parse::<f64>().map(|x| Word::Real(x.to_bits())),
        }
    }
}

/// FNV-1a over the fingerprint's words in order (names excluded): one hash
/// line to print and compare. The multiplier is `0x1_0000_01b3`, not the
/// 64-bit FNV prime; every recorded hash uses it.
pub fn fingerprint_hash(fp: &[(String, Word)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let bytes = fp
        .iter()
        .flat_map(|(_, Word::Count(n) | Word::Real(n))| n.to_le_bytes());
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Snapshot of cumulative counters at the last telemetry sample, so each
/// window reports deltas. Sampling happens *between* `run_until` slices —
/// never inside the event loop — so it cannot perturb event order.
#[derive(Default)]
pub(super) struct SamplerState {
    last: SimTime,
    writes: u64,
    reads: u64,
    throttled: u64,
    scrub_errors: u64,
    osd_busy: Vec<u64>,
}

impl ClusterSim {
    /// The cumulative counters the sampler reports deltas of, as of now.
    fn snapshot(&self) -> SamplerState {
        let metrics = self.sim.metrics();
        let busy = |ts: &Vec<ThreadId>| ts.iter().map(|&t| metrics.thread_busy(t)).sum();
        SamplerState {
            last: self.sim.now(),
            writes: self.parts[0].writes_done,
            reads: self.parts[0].reads_done,
            throttled: self.throttled_nanos(Osd::backfill_throttled_windows),
            scrub_errors: self.osds().map(|o| o.scrub_errors_found).sum(),
            osd_busy: self.osd_threads.iter().map(busy).collect(),
        }
    }

    /// Simulated time spent in throttled background windows, summed over
    /// OSDs: each heartbeat opens a window, so a window lasts one period.
    fn throttled_nanos(&self, windows: fn(&Osd) -> u64) -> u64 {
        let period = self.topo.cfg.heartbeat_period.map_or(0, |p| p.as_nanos());
        self.osds().map(windows).sum::<u64>() * period
    }

    /// Re-anchors the sampler's counter snapshots to "now" (post-reset).
    pub(super) fn rebaseline_sampler(&mut self) {
        self.sampler = self.snapshot();
    }

    /// Takes one telemetry sample covering the window since the last one.
    /// Reads counters only — called between event-loop slices, it cannot
    /// change simulation behavior.
    pub(super) fn sample_window(&mut self) {
        let (cur, prev) = (self.snapshot(), &self.sampler);
        let dt = cur.last.saturating_since(prev.last);
        if dt.is_zero() {
            return;
        }
        let secs = dt.as_secs_f64();
        let conns = self.parts[0].conns.iter();
        let outstanding: usize = conns.map(|c| c.outstanding.len()).sum();
        let degraded: u64 = self.osds().map(Osd::degraded_objects).sum();
        let mut vals = vec![
            (cur.writes - prev.writes) as f64 / secs,
            (cur.reads - prev.reads) as f64 / secs,
            outstanding as f64,
            degraded as f64,
            cur.throttled.saturating_sub(prev.throttled) as f64 / 1e6,
            cur.scrub_errors.saturating_sub(prev.scrub_errors) as f64,
        ];
        for ids in self.class_threads.values() {
            let depth: usize = ids.iter().map(|&t| self.sim.thread_queue_len(t)).sum();
            vals.push(depth as f64);
        }
        for (busy, was) in cur.osd_busy.iter().zip(&prev.osd_busy) {
            let delta = busy.saturating_sub(*was);
            vals.push(delta as f64 / dt.as_nanos() as f64 * 100.0);
        }
        self.timeseries.push(cur.last, vals);
        self.sampler = cur;
    }

    /// The engine's account of its parallel rounds (see
    /// [`Simulation::round_stats`](rablock_sim::Simulation::round_stats)):
    /// zeros unless [`ClusterSimConfig::shards`](super::ClusterSimConfig::shards)
    /// put the run on several workers.
    pub fn round_stats(&self) -> &rablock_sim::RoundStats {
        self.sim.round_stats()
    }

    /// The telemetry time-series sampled during the measured phase (empty
    /// unless [`ClusterSimConfig::telemetry_window`](super::ClusterSimConfig::telemetry_window)
    /// was set).
    pub fn telemetry(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The telemetry series rendered as CSV (header + one row per window).
    pub fn telemetry_csv(&self) -> String {
        self.timeseries.to_csv()
    }

    pub(super) fn report(&self, duration: SimDuration) -> SimReport {
        let now = self.sim.now();
        let metrics = self.sim.metrics();
        let win = now
            .saturating_since(metrics.window_start())
            .as_nanos()
            .max(1);
        let node_cpu_pct = self
            .node_cores
            .iter()
            .map(|r| metrics.cores_busy(r.clone()) as f64 / win as f64 * 100.0)
            .collect();
        let mut tag_cpu_pct = BTreeMap::new();
        for (tag, ns) in metrics.tags() {
            tag_cpu_pct.insert(tag, ns as f64 / win as f64 * 100.0);
        }
        let mut class_cpu_pct = BTreeMap::new();
        for (class, ids) in &self.class_threads {
            let ns: u64 = ids.iter().map(|&t| metrics.thread_busy(t)).sum();
            class_cpu_pct.insert(*class, ns as f64 / win as f64 * 100.0);
        }
        let mut store = StoreStats::default();
        for osd in self.osds() {
            let s = osd.backend().stats();
            store.user_bytes += s.user_bytes;
            store.wal_bytes += s.wal_bytes;
            store.flush_bytes += s.flush_bytes;
            store.compaction_bytes += s.compaction_bytes;
            store.data_bytes += s.data_bytes;
            store.metadata_bytes += s.metadata_bytes;
            store.superblock_bytes += s.superblock_bytes;
            store.read_bytes += s.read_bytes;
            store.transactions += s.transactions;
        }
        let mut device = DeviceStats::default();
        for i in 0..self.sim.device_count() {
            let d = self.sim.device(i).stats();
            device.reads += d.reads;
            device.writes += d.writes;
            device.flushes += d.flushes;
            device.bytes_read += d.bytes_read;
            device.bytes_written += d.bytes_written;
            device.total_latency_ns += d.total_latency_ns;
        }
        let secs = duration.as_secs_f64();
        let w0 = &self.parts[0];
        let osds = || self.osds();
        SimReport {
            duration,
            writes_done: w0.writes_done,
            reads_done: w0.reads_done,
            write_iops: w0.writes_done as f64 / secs,
            read_iops: w0.reads_done as f64 / secs,
            write_lat: w0.write_lat.summary(),
            read_lat: w0.read_lat.summary(),
            attribution: self.replay_recorder().map(|r| r.report()),
            node_cpu_pct,
            tag_cpu_pct,
            class_cpu_pct,
            context_switches: metrics.context_switches,
            events_processed: metrics.items_run,
            store,
            device,
            nvm_bytes: osds().map(Osd::nvm_bytes_written).sum(),
            nvm_full_stalls: osds().map(|o| o.nvm_full_stalls).sum(),
            client_errors: w0.client_errors,
            recovery_pushes: osds().map(|o| o.recovery_pushes).sum(),
            backfill_bytes: osds().map(|o| o.backfill_bytes).sum(),
            backfill_queued: osds().map(Osd::backfill_queued).sum(),
            backfill_throttled_nanos: self.throttled_nanos(Osd::backfill_throttled_windows),
            flaps_damped: w0.monitor.flaps_damped(),
            degraded_objects: osds().map(Osd::degraded_objects).sum(),
            queue_high_water: self.sim.queue_high_water(),
            scrubs_completed: osds().map(|o| o.scrubs_completed).sum(),
            scrub_errors_found: osds().map(|o| o.scrub_errors_found).sum(),
            scrub_errors_repaired: osds().map(|o| o.scrub_errors_repaired).sum(),
            scrub_bytes: osds().map(|o| o.scrub_bytes).sum(),
            scrub_throttled_nanos: self.throttled_nanos(Osd::scrub_throttled_windows),
            read_checksum_errors: osds().map(|o| o.read_checksum_errors).sum(),
        }
    }
}
