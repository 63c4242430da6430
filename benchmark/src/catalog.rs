//! The one declaration of workloads and metrics. `BENCHMARK.json` is this
//! table printed by the `manifest` subcommand; `run` emits exactly these
//! names, and `compare` applies exactly these bounds.

use crate::json::Json;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_210_707;
/// Held-out seed: never used while a change is being written, so a claimed
/// gain can be confirmed on inputs the change was not tuned on.
pub const HELD_OUT_SEED: u64 = 0x1CDC_5202_1000;
/// `run_seconds` of `BENCHMARK.json`: the timed share of one run.
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and applies the
    /// bounds. `live_randwrite` is not: between quiet and busy spells of the
    /// sizing host its throughput spread over ten runs went from 2 % to 43 %,
    /// beyond the largest bound a metric may have. `run` and `compare` still
    /// measure it.
    pub gated: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "randwrite_dop",
        why: "sim, 4x2 OSDs, 16 conns x qd16 uniform 4 KiB writes, DOP: the paper's headline cell; engine, OSD, oplog and COS all on the hot path",
        gated: true,
    },
    Workload {
        name: "randwrite_orig",
        why: "same load on Original (thread-pool OSD + LSM): bypasses oplog and COS, so their optimisations must show no change; LSM ones show only here",
        gated: true,
    },
    Workload {
        name: "mixed_rw_dop",
        why: "sim, DOP, 70 % reads, Zipfian(0.99) blocks, checksums on: read path through log index or COS read + CRC beside writes",
        gated: true,
    },
    Workload {
        name: "churn_scrub",
        why: "sim, 16x4 OSDs grown 4->8->64 under load, crash with torn NVM tail, bit rot, deep scrub, retries: background machinery does the work",
        gated: true,
    },
    Workload {
        name: "scale256_par",
        why: "sim, 32x8 OSDs, 10 000 conns x qd2, 2 engine workers: rounds, barriers, mailboxes, placement and memory at scale dominate",
        gated: true,
    },
    Workload {
        name: "live_randwrite",
        why: "LiveCluster on real threads, 2 OSDs + 2 closed-loop clients, no DES engine: the bypass for every simulator optimisation",
        gated: false,
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. `write_p50_us` and `cpu_us_per_op` are in
/// the cluster's own clock: simulated time on the five sim workloads, host
/// time on `live_randwrite`. `waf` exists on the sim workloads only (the live
/// cluster does not expose store statistics). The first three are always
/// host quantities.
pub const END_TO_END: &[Metric] = &[
    e2e("host_ops_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
    e2e("write_p50_us", "us", Lower, 0.15),
    e2e("cpu_us_per_op", "us", Lower, 0.20),
    e2e("waf", "ratio", Lower, 0.20),
];

pub const PER_LAYER: &[Metric] = &[
    // sim: simulated results (repeat exactly for one seed) ...
    layer("sim.iops", "1/s", Higher),
    layer("sim.write_mean_us", "us", Lower),
    layer("sim.write_p99_us", "us", Lower),
    layer("sim.write_p999_us", "us", Lower),
    layer("sim.write_samples", "count", Higher),
    layer("sim.read_p50_us", "us", Lower),
    layer("sim.read_p99_us", "us", Lower),
    layer("sim.read_samples", "count", Higher),
    // ... and the engine's own work and speed.
    layer("sim.events", "count", Lower),
    layer("sim.events_per_op", "ratio", Lower),
    layer("sim.events_per_host_s", "1/s", Higher),
    layer("sim.host_ns_per_event", "ns", Lower),
    layer("sim.queue_high_water", "count", Lower),
    layer("sim.ctx_switches_per_op", "ratio", Lower),
    layer("sim.device_writes", "count", Lower),
    layer("sim.device_flushes", "count", Lower),
    layer("sim.device_bytes_written", "B", Lower),
    layer("sim.engine_probe_ns_per_event", "ns", Lower),
    layer("sim.engine_probe_2dom_ns_per_event", "ns", Lower),
    layer("sim.par_speedup", "ratio", Higher),
    layer("sim.trace_overhead_pct", "%", Lower),
    layer("host.cpu_us_per_op", "us", Lower),
    // storage
    layer("storage.user_bytes", "B", Higher),
    layer("storage.wal_bytes", "B", Lower),
    layer("storage.flush_bytes", "B", Lower),
    layer("storage.compaction_bytes", "B", Lower),
    layer("storage.data_bytes", "B", Lower),
    layer("storage.metadata_bytes", "B", Lower),
    layer("storage.read_bytes", "B", Lower),
    layer("storage.payload_clone_slice_ns", "ns", Lower),
    layer("storage.nvm_write_4k_ns", "ns", Lower),
    layer("storage.memdisk_write_4k_ns", "ns", Lower),
    // oplog
    layer("oplog.nvm_bytes_per_op", "B", Lower),
    layer("oplog.nvm_full_stalls", "count", Lower),
    layer("oplog.append_4k_ns", "ns", Lower),
    layer("oplog.drain_flush_ns_per_record", "ns", Lower),
    layer("oplog.read_path_hit_ns", "ns", Lower),
    // cos
    layer("cos.submit_4k_ns", "ns", Lower),
    layer("cos.read_4k_ns", "ns", Lower),
    layer("cos.read_4k_csum_ns", "ns", Lower),
    layer("cos.format_create_ns_per_object", "ns", Lower),
    layer("cos.btree_alloc_free_ns", "ns", Lower),
    layer("cos.radix_get_ns", "ns", Lower),
    // lsm
    layer("lsm.submit_4k_ns", "ns", Lower),
    layer("lsm.read_4k_ns", "ns", Lower),
    layer("lsm.maintenance_time_share", "ratio", Lower),
    layer("lsm.compaction_bytes_per_user_byte", "ratio", Lower),
    // cluster
    layer("cluster.osd_write_dop_ns", "ns", Lower),
    layer("cluster.osd_write_orig_ns", "ns", Lower),
    layer("cluster.osd_read_dop_ns", "ns", Lower),
    layer("cluster.construct_prefill_ms", "ms", Lower),
    layer("cluster.acting_set_hot_ns", "ns", Lower),
    layer("cluster.acting_set_cold_ns", "ns", Lower),
    layer("cluster.cpu_share_mp", "ratio", Lower),
    layer("cluster.cpu_share_rp", "ratio", Lower),
    layer("cluster.cpu_share_tp", "ratio", Lower),
    layer("cluster.cpu_share_os", "ratio", Lower),
    layer("cluster.cpu_share_mt", "ratio", Lower),
    layer("cluster.recovery_pushes", "count", Lower),
    layer("cluster.backfill_bytes", "B", Lower),
    layer("cluster.backfill_queued", "count", Lower),
    layer("cluster.backfill_throttled_ms", "ms", Lower),
    layer("cluster.scrubs_completed", "count", Higher),
    layer("cluster.scrub_bytes", "B", Higher),
    layer("cluster.scrub_errors_found", "count", Higher),
    layer("cluster.scrub_errors_repaired", "count", Higher),
    layer("cluster.read_checksum_errors", "count", Lower),
    layer("cluster.degraded_objects_end", "count", Lower),
    layer("cluster.flaps_damped", "count", Lower),
    // attribution of simulated latency (traced run; shares sum to 1)
    layer("attr.queue_share", "ratio", Lower),
    layer("attr.service_share", "ratio", Lower),
    layer("attr.network_share", "ratio", Lower),
    layer("attr.nvm_share", "ratio", Lower),
    layer("attr.device_share", "ratio", Lower),
    layer("attr.retry_share", "ratio", Lower),
    layer("attr.other_share", "ratio", Lower),
    layer("attr.queue_p99_us", "us", Lower),
    // live driver + block client
    layer("live.lat_mean_us", "us", Lower),
    layer("live.lat_p99_us", "us", Lower),
    layer("live.lat_samples", "count", Higher),
    layer("live.qd1_ops_per_s", "1/s", Higher),
    // workload generators
    layer("workload.fio_next_op_ns", "ns", Lower),
    layer("workload.zipf_next_ns", "ns", Lower),
    layer("workload.histogram_record_ns", "ns", Lower),
    // host-time budget of a sim run, estimated from the probes
    layer("budget.engine_share", "ratio", Lower),
    layer("budget.osd_stack_share", "ratio", Lower),
    layer("budget.oplog_share", "ratio", Lower),
    layer("budget.store_share", "ratio", Lower),
    layer("budget.residual_share", "ratio", Lower),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            (
                "better",
                Json::str(if m.better == Higher {
                    "higher"
                } else {
                    "lower"
                }),
            ),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}
