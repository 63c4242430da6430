//! Runs one simulated cell: fresh cluster per repeat, host time around
//! `ClusterSim::run`, simulated results and counts out of the `SimReport`.

use std::time::Instant;

use rablock::sim::{ClusterSim, Component, SimDuration, SimReport};
use rablock::PipelineMode;

use crate::host;
use crate::recipes::{self, Scale, SimCell};
use crate::spans::Tracer;

/// The five simulated workloads, in catalog order.
pub const SIM_WORKLOADS: [&str; 5] = [
    "randwrite_dop",
    "randwrite_orig",
    "mixed_rw_dop",
    "churn_scrub",
    "scale256_par",
];

/// Builds `workload`'s cell from the seed. `shards` matters only to
/// `scale256_par`, the one cell that runs the engine on worker threads.
pub fn build(workload: &str, seed: u64, scale: Scale, shards: usize) -> SimCell {
    match workload {
        "randwrite_dop" => recipes::randwrite(PipelineMode::Dop, seed, scale.millis(150)),
        "randwrite_orig" => recipes::randwrite(PipelineMode::Original, seed, scale.millis(250)),
        "mixed_rw_dop" => recipes::mixed_rw(seed, scale.millis(150)),
        "churn_scrub" => recipes::churn_scrub(seed, scale),
        "scale256_par" => recipes::scale256(seed, shards, scale.millis(30)),
        other => panic!("not a simulated workload: {other}"),
    }
}

/// Host seconds one repeat takes on the sizing host (set-up included); the
/// repeat count of a run is `--seconds` over this.
pub fn nominal_repeat_seconds(workload: &str) -> f64 {
    match workload {
        "randwrite_dop" => 1.7,
        "randwrite_orig" => 2.2,
        "mixed_rw_dop" => 2.1,
        "churn_scrub" => 1.2,
        "scale256_par" => 3.4,
        other => panic!("not a simulated workload: {other}"),
    }
}

/// Engine worker threads `scale256_par` runs on (this host has 2 cores).
pub const PAR_SHARDS: usize = 2;

/// One repeat of a cell.
pub struct Repeat {
    /// Host seconds of recipe, `ClusterSim::new` and `prefill`.
    pub construct_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: SimReport,
    /// `(writes_acked, reads_checked)` when the history checker ran.
    pub checker: Option<(u64, u64)>,
    pub fingerprint: u64,
}

impl Repeat {
    pub fn ops(&self) -> u64 {
        self.report.writes_done + self.report.reads_done
    }
}

/// Builds the cell, constructs and prefills the cluster (set-up), runs the
/// measured window (timed), and extracts the report.
pub fn run_once(build: impl FnOnce() -> SimCell, traced: bool, tr: &mut Tracer) -> Repeat {
    let whole = tr.begin("repeat");
    let t0 = Instant::now();
    let span = tr.begin("recipe");
    let mut cell = build();
    cell.cfg.trace = traced;
    tr.end(span);
    let span = tr.begin("ClusterSim::new");
    let mut sim = ClusterSim::new(cell.cfg, cell.conns);
    tr.end(span);
    let span = tr.begin("ClusterSim::prefill");
    sim.prefill(&cell.prefill);
    tr.end(span);
    let construct_s = t0.elapsed().as_secs_f64();

    let span = tr.begin("ClusterSim::run");
    let cpu0 = host::cpu_seconds();
    let t1 = Instant::now();
    let report = sim.run(SimDuration::ZERO, cell.measure);
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    tr.end(span);

    let span = tr.begin("report");
    let checker = sim.checker().map(|c| (c.writes_acked(), c.reads_checked()));
    let fingerprint = fingerprint(&report, checker);
    tr.end(span);
    let span = tr.begin("drop");
    drop(sim);
    tr.end(span);
    tr.end(whole);
    Repeat {
        construct_s,
        wall_s,
        cpu_s,
        report,
        checker,
        fingerprint,
    }
}

/// FNV-1a over every simulated result of the report: counters, latency
/// fields, CPU shares, `StoreStats`, `DeviceStats`, checker verdicts. The
/// attribution is left out: it exists only when tracing is on, and tracing
/// must not change the fingerprint.
pub fn fingerprint(r: &SimReport, checker: Option<(u64, u64)>) -> u64 {
    let mut words = vec![
        r.duration.as_nanos(),
        r.writes_done,
        r.reads_done,
        r.write_iops.to_bits(),
        r.read_iops.to_bits(),
        r.context_switches,
        r.events_processed,
        r.nvm_bytes,
        r.nvm_full_stalls,
        r.client_errors,
        r.queue_high_water,
        r.recovery_pushes,
        r.backfill_bytes,
        r.backfill_queued,
        r.backfill_throttled_nanos,
        r.flaps_damped,
        r.degraded_objects,
        r.scrubs_completed,
        r.scrub_errors_found,
        r.scrub_errors_repaired,
        r.scrub_bytes,
        r.scrub_throttled_nanos,
        r.read_checksum_errors,
    ];
    let lat = r.write_lat.fields().into_iter().chain(r.read_lat.fields());
    words.extend(lat.map(|d| d.as_nanos()));
    words.extend(r.node_cpu_pct.iter().map(|p| p.to_bits()));
    words.extend(r.tag_cpu_pct.values().map(|p| p.to_bits()));
    words.extend(r.class_cpu_pct.values().map(|p| p.to_bits()));
    let s = &r.store;
    words.extend([
        s.user_bytes,
        s.wal_bytes,
        s.flush_bytes,
        s.compaction_bytes,
        s.data_bytes,
        s.metadata_bytes,
        s.superblock_bytes,
        s.read_bytes,
        s.transactions,
    ]);
    let d = &r.device;
    words.extend([
        d.reads,
        d.writes,
        d.flushes,
        d.bytes_read,
        d.bytes_written,
        d.total_latency_ns,
    ]);
    if let Some((acked, checked)) = checker {
        words.extend([acked, checked]);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Simulated CPU time over all storage nodes per completed op, in µs — the
/// paper's CPU-efficiency axis. `node_cpu_pct` is percent of one core.
pub fn sim_cpu_us_per_op(r: &SimReport) -> f64 {
    let busy_cores: f64 = r.node_cpu_pct.iter().sum::<f64>() / 100.0;
    busy_cores * r.duration.as_secs_f64() * 1e6 / (r.writes_done + r.reads_done).max(1) as f64
}

pub fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// What `churn_scrub` must show at the end of its window, beyond the
/// history checker (which panics by itself on a lost acknowledged write).
pub fn churn_checks(rep: &Repeat) -> Vec<String> {
    let r = &rep.report;
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    require(
        r.degraded_objects == 0,
        format!("{} objects still degraded at the end", r.degraded_objects),
    );
    require(
        r.scrub_errors_found == r.scrub_errors_repaired,
        format!(
            "scrub found {} errors but repaired {}",
            r.scrub_errors_found, r.scrub_errors_repaired
        ),
    );
    require(r.scrubs_completed > 0, "no scrub round completed".into());
    require(r.recovery_pushes > 0, "no recovery push happened".into());
    require(r.backfill_bytes > 0, "no backfill happened".into());
    require(
        rep.checker
            .is_some_and(|(acked, checked)| acked > 0 && checked > 0),
        "history checker saw no acked write or no read".into(),
    );
    failures
}

/// Per-layer values one report yields (counts repeat exactly per seed; the
/// two host-time rates use `wall_s` of the same run).
pub fn report_metrics(rep: &Repeat) -> Vec<(&'static str, f64)> {
    let r = &rep.report;
    let ops = rep.ops().max(1) as f64;
    let events = r.events_processed as f64;
    let tags: f64 = r.tag_cpu_pct.values().sum();
    let tag_share = |tag: &str| {
        if tags > 0.0 {
            r.tag_cpu_pct.get(tag).copied().unwrap_or(0.0) / tags
        } else {
            0.0
        }
    };
    let user = r.store.user_bytes.max(1) as f64;
    let mut out = vec![
        ("sim.iops", r.total_iops()),
        ("sim.write_mean_us", us(r.write_lat.mean)),
        ("sim.write_p999_us", us(r.write_lat.p999)),
        ("sim.write_samples", r.writes_done as f64),
        ("sim.read_p50_us", us(r.read_lat.p50)),
        ("sim.read_p99_us", us(r.read_lat.p99)),
        ("sim.read_samples", r.reads_done as f64),
        ("sim.events", events),
        ("sim.events_per_op", events / ops),
        ("sim.events_per_host_s", events / rep.wall_s),
        ("sim.host_ns_per_event", rep.wall_s * 1e9 / events.max(1.0)),
        ("sim.queue_high_water", r.queue_high_water as f64),
        ("sim.ctx_switches_per_op", r.context_switches as f64 / ops),
        ("sim.device_writes", r.device.writes as f64),
        ("sim.device_flushes", r.device.flushes as f64),
        ("sim.device_bytes_written", r.device.bytes_written as f64),
        ("host.cpu_us_per_op", rep.cpu_s * 1e6 / ops),
        ("sim.write_p99_us", us(r.write_lat.p99)),
        ("cluster.construct_prefill_ms", rep.construct_s * 1e3),
        ("storage.user_bytes", r.store.user_bytes as f64),
        ("storage.wal_bytes", r.store.wal_bytes as f64),
        ("storage.flush_bytes", r.store.flush_bytes as f64),
        ("storage.compaction_bytes", r.store.compaction_bytes as f64),
        ("storage.data_bytes", r.store.data_bytes as f64),
        ("storage.metadata_bytes", r.store.metadata_bytes as f64),
        ("storage.read_bytes", r.store.read_bytes as f64),
        ("oplog.nvm_bytes_per_op", r.nvm_bytes as f64 / ops),
        ("oplog.nvm_full_stalls", r.nvm_full_stalls as f64),
        (
            "lsm.compaction_bytes_per_user_byte",
            r.store.compaction_bytes as f64 / user,
        ),
        ("cluster.cpu_share_mp", tag_share("MP")),
        ("cluster.cpu_share_rp", tag_share("RP")),
        ("cluster.cpu_share_tp", tag_share("TP")),
        ("cluster.cpu_share_os", tag_share("OS")),
        ("cluster.cpu_share_mt", tag_share("MT")),
        ("cluster.recovery_pushes", r.recovery_pushes as f64),
        ("cluster.backfill_bytes", r.backfill_bytes as f64),
        ("cluster.backfill_queued", r.backfill_queued as f64),
        (
            "cluster.backfill_throttled_ms",
            r.backfill_throttled_nanos as f64 / 1e6,
        ),
        ("cluster.scrubs_completed", r.scrubs_completed as f64),
        ("cluster.scrub_bytes", r.scrub_bytes as f64),
        ("cluster.scrub_errors_found", r.scrub_errors_found as f64),
        (
            "cluster.scrub_errors_repaired",
            r.scrub_errors_repaired as f64,
        ),
        (
            "cluster.read_checksum_errors",
            r.read_checksum_errors as f64,
        ),
        ("cluster.degraded_objects_end", r.degraded_objects as f64),
        ("cluster.flaps_damped", r.flaps_damped as f64),
    ];
    if let Some(att) = &r.attribution {
        let share = |c: Component| att.share(c);
        out.extend([
            ("attr.queue_share", share(Component::Queue)),
            ("attr.service_share", share(Component::Service)),
            ("attr.network_share", share(Component::Network)),
            ("attr.nvm_share", share(Component::Nvm)),
            ("attr.device_share", share(Component::Device)),
            ("attr.retry_share", share(Component::Retry)),
            ("attr.other_share", share(Component::Other)),
        ]);
        if let Some((_, lat, _)) = att
            .components
            .iter()
            .find(|(c, _, _)| *c == Component::Queue)
        {
            out.push(("attr.queue_p99_us", us(lat.p99)));
        }
    }
    out
}
