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

    /// Position of `queue_high_water` in [`SimReport::fingerprint`]. It is
    /// the one word that measures the *engine* rather than the simulation:
    /// how many events sit pending at once depends on when cross-domain
    /// events merge into the destination queue, which is what the lookahead
    /// window batches — so a comparison across window sizes masks it.
    pub const FINGERPRINT_QUEUE_HIGH_WATER: usize = 10;

    /// Everything a run is allowed to vary by between two executions of the
    /// same seed — nothing — flattened to integers so equality is
    /// byte-for-byte: raw counters, latency percentiles in nanoseconds, CPU
    /// percentages as IEEE-754 bit patterns, store/device accounting, and
    /// (when history checking is on) the checker's `(writes_acked,
    /// reads_checked)` verdict counts.
    pub fn fingerprint(&self, checker: Option<(u64, u64)>) -> Vec<u64> {
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
        let mut v = vec![
            duration.as_nanos(),
            *writes_done,
            *reads_done,
            write_iops.to_bits(),
            read_iops.to_bits(),
            *context_switches,
            *events_processed,
            *nvm_bytes,
            *nvm_full_stalls,
            *client_errors,
            *queue_high_water,
            *recovery_pushes,
            *backfill_bytes,
            *degraded_objects,
            *backfill_queued,
            *backfill_throttled_nanos,
            *flaps_damped,
            *scrubs_completed,
            *scrub_errors_found,
            *scrub_errors_repaired,
            *scrub_bytes,
            *scrub_throttled_nanos,
            *read_checksum_errors,
        ];
        debug_assert_eq!(v[Self::FINGERPRINT_QUEUE_HIGH_WATER], *queue_high_water);
        let lat = write_lat.fields().into_iter().chain(read_lat.fields());
        v.extend(lat.map(|d| d.as_nanos()));
        let cpu = node_cpu_pct
            .iter()
            .chain(tag_cpu_pct.values())
            .chain(class_cpu_pct.values());
        v.extend(cpu.map(|p| p.to_bits()));
        v.extend([
            user_bytes,
            wal_bytes,
            flush_bytes,
            compaction_bytes,
            data_bytes,
            metadata_bytes,
            superblock_bytes,
            read_bytes,
            transactions,
            reads,
            writes,
            flushes,
            bytes_read,
            bytes_written,
            total_latency_ns,
        ]);
        v.extend(
            checker
                .into_iter()
                .flat_map(|(acked, checked)| [acked, checked]),
        );
        v
    }
}

/// FNV-1a over fingerprint words: one hash line to print and compare.
pub fn fingerprint_hash(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
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
            throttled: self.osds().map(Osd::backfill_throttled_nanos).sum(),
            scrub_errors: self.osds().map(|o| o.scrub_errors_found).sum(),
            osd_busy: self.osd_threads.iter().map(busy).collect(),
        }
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
            backfill_throttled_nanos: osds().map(Osd::backfill_throttled_nanos).sum(),
            flaps_damped: w0.monitor.flaps_damped(),
            degraded_objects: osds().map(Osd::degraded_objects).sum(),
            queue_high_water: self.sim.queue_high_water(),
            scrubs_completed: osds().map(|o| o.scrubs_completed).sum(),
            scrub_errors_found: osds().map(|o| o.scrub_errors_found).sum(),
            scrub_errors_repaired: osds().map(|o| o.scrub_errors_repaired).sum(),
            scrub_bytes: osds().map(|o| o.scrub_bytes).sum(),
            scrub_throttled_nanos: osds().map(Osd::scrub_throttled_nanos).sum(),
            read_checksum_errors: osds().map(|o| o.read_checksum_errors).sum(),
        }
    }
}
