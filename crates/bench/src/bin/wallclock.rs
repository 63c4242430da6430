//! Wall-clock throughput harness for the simulator itself.
//!
//! Every figure cell drives the sans-io OSD core through the DES engine,
//! so the wall-clock speed of that loop bounds how much of the parameter
//! space a sweep can cover. This binary measures it directly: it runs the
//! fig7 4 KiB random-write scenario, a chaos (fault-injection) scenario,
//! and a grow-4->8->64 elastic-expansion scenario
//! under `std::time::Instant` and reports
//!
//! * **events/sec** — scheduler work items executed per wall-clock second
//!   (`SimReport::events_processed` over the timed `run` call), and
//! * **sim-ops/sec** — completed simulated client operations per wall-clock
//!   second.
//!
//! Each scenario and each `--scale-curve` point also prints, on lines of
//! their own, the minor page faults of its timed runs and the process's peak
//! RSS while it ran ("n/a" off Linux).
//!
//! Each scenario is also run twice with the same seed as a determinism
//! guard: the full metric fingerprint (counters, latency percentiles, CPU%
//! per stage, HistoryChecker verdicts) must be byte-identical, so a perf
//! change that altered simulated results would fail here first.
//!
//! Usage:
//!
//! ```text
//! wallclock [--iters N] [--smoke] [--only NAME] [--trace-out PATH]
//!           [--shards N] [--scale-curve] [--check-jobs]
//! ```
//!
//! `--shards N` sets how many worker threads execute the engine's
//! space-parallel domains (clients+monitor in domain 0, one domain per
//! storage node). The partition is fixed at construction and the
//! cross-domain merge order is total, so every fingerprint printed here is
//! byte-identical for every N — CI diffs `--shards 1/2/4` runs to prove it.
//!
//! `--scale-curve` runs the 256-OSD (32 nodes x 8 OSDs), 10 000-connection
//! 4 KiB random-write scenario at shards 1, 2, 4, and 8, asserts all four
//! fingerprints are identical, and prints the scaling curve with the host
//! core count — speedup is only meaningful relative to the cores the run
//! actually had.
//!
//! `--check-jobs` runs the smoke figure sweep on one and on two worker
//! threads and asserts the two-job run is not slower (beyond a noise
//! tolerance): the longest-cell-first schedule plus share-nothing workers
//! must never lose to the sequential order, even on a single hardware
//! thread.
//!
//! `--trace-out PATH` re-runs each selected scenario with tracing and
//! windowed telemetry armed, asserts the traced fingerprint is identical
//! to the untraced one (tracing is passive by construction), and writes a
//! Perfetto-loadable Chrome trace JSON plus `.telemetry.csv` /
//! `.attribution.csv` siblings. With `--only NAME` the JSON lands at PATH
//! exactly; otherwise each scenario gets a `-<name>` suffix.
//!
//! The grow scenario also reports the write-tail degradation window: its
//! p99 write latency next to the p99 of a churn-free control run on the
//! same 64-OSD topology, so a regression in rebalance interference shows
//! up as a ratio change.
//!
//! Nothing but `--trace-out` writes a file: committed, bounded measurements
//! are the `benchmark/` package's job (`BENCHMARK.json`). `--smoke` runs a
//! seconds-scale pass. Each scenario prints a fingerprint hash. The chaos
//! and grow scenarios are `rablock_bench::scenarios` recipes, the same ones
//! the integration tests pin. The figure grid is the `figures` binary's.

use std::path::PathBuf;
use std::time::Instant;

use rablock::sim::{fingerprint_hash, ClusterSim, ClusterSimConfig, SimDuration, SimReport};
use rablock::{ObjectId, PipelineMode};
use rablock_bench::sweep::{figure_cells, run_sweep};
use rablock_bench::{banner, paper_cluster, randwrite_conns, scenarios, Dataset};
use rablock_cluster::osd::OsdConfig;
use rablock_cos::CosOptions;
use rablock_lsm::LsmOptions;
use rablock_sim::RoundStats;

/// One timed scenario run.
struct Sample {
    wall_secs: f64,
    events: u64,
    /// Completed simulated client operations (writes + reads).
    sim_ops: u64,
    /// p99 write latency of the run, in simulated nanoseconds.
    p99_write_ns: u64,
    /// Minor page faults the process took during the run (`None` off Linux).
    minor_faults: Option<u64>,
}

/// Deterministic per-run observability artifacts (`--trace-out`).
struct TraceOut {
    /// Chrome trace-event JSON (Perfetto-loadable): slow-op span trees
    /// plus the telemetry counter tracks.
    chrome_json: String,
    /// Windowed telemetry time-series as CSV.
    telemetry_csv: String,
    /// Per-component latency attribution, pre-rendered as CSV rows.
    attribution_csv: String,
}

/// Renders a report's attribution breakdown as CSV (component per row).
fn attribution_csv(r: &SimReport) -> String {
    let mut out = String::from("component,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,total_ns,share\n");
    if let Some(att) = &r.attribution {
        for (comp, lat, total) in &att.components {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.4}\n",
                comp.name(),
                lat.mean.as_nanos(),
                lat.p50.as_nanos(),
                lat.p95.as_nanos(),
                lat.p99.as_nanos(),
                lat.p999.as_nanos(),
                total,
                att.share(*comp),
            ));
        }
    }
    out
}

impl Sample {
    fn of(report: &SimReport, wall_secs: f64, minor_faults: Option<u64>) -> Sample {
        Sample {
            wall_secs,
            events: report.events_processed,
            sim_ops: report.writes_done + report.reads_done,
            p99_write_ns: report.write_lat.p99.as_nanos(),
            minor_faults,
        }
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn sim_ops_per_sec(&self) -> f64 {
        self.sim_ops as f64 / self.wall_secs
    }
}

/// Minor page faults this process has taken so far: field 10 of
/// `/proc/self/stat`. `None` where that file does not exist (off Linux).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, is in parentheses and may hold spaces.
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// Runs one timed section; returns its result, its wall seconds and the
/// minor page faults the process took meanwhile. A first touch of fresh
/// memory is a fault, and its cost shows in the wall time but nowhere else.
fn timed<T>(run: impl FnOnce() -> T) -> (T, f64, Option<u64>) {
    let before = minor_faults();
    let t = Instant::now();
    let out = run();
    let wall_secs = t.elapsed().as_secs_f64();
    let faults = minor_faults()
        .zip(before)
        .map(|(after, before)| after - before);
    (out, wall_secs, faults)
}

/// A fault count as printed: the number, or "n/a".
fn faults_text(faults: Option<u64>) -> String {
    faults.map_or_else(|| "n/a".to_string(), |n| n.to_string())
}

/// Arms tracing + windowed telemetry on a config (`--trace-out` runs).
fn arm_trace(cfg: &mut ClusterSimConfig) {
    cfg.trace = true;
    cfg.telemetry_window = Some(SimDuration::millis(2));
}

/// Extracts the observability artifacts after a traced run.
fn trace_out(sim: &ClusterSim, report: &SimReport) -> TraceOut {
    TraceOut {
        chrome_json: sim.trace_chrome_json().expect("tracing armed"),
        telemetry_csv: sim.telemetry_csv(),
        attribution_csv: attribution_csv(report),
    }
}

/// The fig7 4 KiB random-write scenario at the paper-cluster scale.
fn run_fig7(
    measure: SimDuration,
    shards: usize,
    trace: bool,
) -> (Sample, Vec<u64>, Option<TraceOut>) {
    const CONNS: usize = 16;
    let dataset = Dataset::default_for(CONNS);
    let mut cfg = paper_cluster(PipelineMode::Dop);
    cfg.shards = shards;
    if trace {
        arm_trace(&mut cfg);
    }
    let mut sim = ClusterSim::new(cfg, randwrite_conns(dataset, CONNS));
    sim.prefill(&dataset.all_objects());
    let (report, wall_secs, faults) = timed(|| sim.run(SimDuration::ZERO, measure));
    let fp = report.fingerprint(None);
    let out = trace.then(|| trace_out(&sim, &report));
    (Sample::of(&report, wall_secs, faults), fp, out)
}

fn run_chaos(
    measure: SimDuration,
    shards: usize,
    trace: bool,
) -> (Sample, Vec<u64>, Option<TraceOut>) {
    let mut cfg = scenarios::chaos_config();
    cfg.shards = shards;
    if trace {
        arm_trace(&mut cfg);
    }
    let mut sim = scenarios::CHAOS_LOAD.sim(cfg);
    let (report, wall_secs, faults) = timed(|| sim.run(SimDuration::ZERO, measure));
    let fp = scenarios::checked_fingerprint(&sim, &report);
    let out = trace.then(|| trace_out(&sim, &report));
    (Sample::of(&report, wall_secs, faults), fp, out)
}

/// The grow scenario under an endless writer, so both expansion windows and
/// the warmed-up control measure a cluster under constant pressure. With
/// `churn` false the same 64-OSD topology runs fully in service from the
/// start: the control whose p99 frames the expansion's degradation window.
fn run_grow(
    measure: SimDuration,
    shards: usize,
    churn: bool,
    trace: bool,
) -> (Sample, Vec<u64>, Option<TraceOut>) {
    // No link noise here, unlike chaos.rs's grow: random drops put 10 ms
    // retry timeouts in both tails and would swamp the expansion's own
    // interference, which is the thing being measured.
    let mut cfg = scenarios::grow_config(0xE1A5, churn);
    cfg.shards = shards;
    if trace {
        arm_trace(&mut cfg);
    }
    let mut sim = scenarios::grow_load(u64::MAX, 0).sim(cfg);
    // The churn run measures from t0 so the expansion windows (8 ms and
    // 20 ms) land inside the percentile frame. The control warms up past
    // the 64-OSD heartbeat-staggering transient and measures steady state,
    // making its p99 the clean baseline the degradation is judged against.
    let warmup = if churn {
        SimDuration::ZERO
    } else {
        SimDuration::millis(25)
    };
    let (report, wall_secs, faults) = timed(|| sim.run(warmup, measure));
    let fp = scenarios::checked_fingerprint(&sim, &report);
    let out = trace.then(|| trace_out(&sim, &report));
    (Sample::of(&report, wall_secs, faults), fp, out)
}

// Scale scenario (`--scale-curve`): the issue's target shape — 256 OSDs
// (32 nodes x 8 OSDs) under 10 000 client connections of 4 KiB random
// writes. One image (= one 1 MiB object namespace) per connection keeps
// the prefill proportional to the connection count.
const SCALE_NODES: u32 = 32;
const SCALE_OSDS_PER_NODE: u32 = 8;
const SCALE_CONNS: usize = 10_000;

fn scale_config(shards: usize) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::defaults(PipelineMode::Dop);
    cfg.nodes = SCALE_NODES;
    cfg.osds_per_node = SCALE_OSDS_PER_NODE;
    // 8 OSDs x 2 pinned priority threads + a shared pool, matching the
    // paper testbed's 44-logical-core nodes in spirit.
    cfg.cores_per_node = 24;
    cfg.pg_count = 512;
    cfg.replication = 2;
    cfg.queue_depth = 2;
    cfg.seed = 0x5CA1E;
    cfg.messenger_threads = 2;
    cfg.pg_threads = 2;
    cfg.rtc_threads = 2;
    cfg.priority_threads = 2;
    cfg.non_priority_threads = 2;
    cfg.osd = OsdConfig {
        mode: PipelineMode::Dop,
        // MemDisk pages lazily (vec![0; n] = untouched zero pages), so a
        // roomy device is cheap; PG-placement skew can pile ~3x the mean
        // PG count onto one OSD and the hash can pile those PGs onto one
        // partition, so each partition needs slack over the ~20 MiB mean.
        device_bytes: 512 << 20,
        nvm_bytes: 16 << 20,
        ring_bytes: 256 << 10,
        flush_threshold: 8,
        lsm: LsmOptions::tiny(),
        // ~156 objects land on each OSD (10k objects x 2 replicas over
        // 256 OSDs); tiny()'s 128 onode slots are too few.
        cos: CosOptions {
            partitions: 4,
            onode_slots: 1024,
            ..CosOptions::tiny()
        },
        ..OsdConfig::default()
    };
    cfg.shards = shards;
    cfg
}

/// One point of the shard-scaling curve. Prefill happens outside the
/// timed window; the timer brackets only the DES `run` call.
fn run_scale(measure: SimDuration, shards: usize) -> (Sample, Vec<u64>, RoundStats) {
    let dataset = Dataset {
        images: SCALE_CONNS as u64,
        image_bytes: 256 << 10,
    };
    let mut sim = ClusterSim::new(scale_config(shards), randwrite_conns(dataset, SCALE_CONNS));
    // One 256 KiB object per connection, sized to the image (not the
    // 1 MiB stripe default): 20 000 replicas over 256 OSDs have to fit
    // the partition the group hash picks, with skew headroom.
    let objects: Vec<(ObjectId, u64)> = (0..dataset.images)
        .map(|image| (dataset.object(image, 0).0, dataset.image_bytes))
        .collect();
    sim.prefill(&objects);
    let (report, wall_secs, faults) = timed(|| sim.run(SimDuration::ZERO, measure));
    let fp = report.fingerprint(None);
    (
        Sample::of(&report, wall_secs, faults),
        fp,
        sim.round_stats().clone(),
    )
}

/// `--scale-curve`: run the scale scenario at 1/2/4/8 worker shards,
/// assert every fingerprint equals the shards=1 one, and print the curve.
fn run_scale_curve(smoke: bool) {
    let measure = if smoke {
        SimDuration::millis(4)
    } else {
        SimDuration::millis(12)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scale curve: {SCALE_NODES} nodes x {SCALE_OSDS_PER_NODE} OSDs, \
         {SCALE_CONNS} conns, 4 KiB randwrite, {} ms window, {cores} host cores",
        measure.as_nanos() / 1_000_000,
    );
    // Untimed warmup: the first run in a process pays allocator growth
    // and zero-page faults for the MemDisks; without it the shards=1
    // point (always measured first) looks 2x slower than steady state.
    let _ = run_scale(measure, 1);
    // Shared 1-core runners jitter wall time by 3-5x between runs; the
    // min of a few repeats is the usual low-noise estimator for
    // CPU-bound work. Every repeat still has to reproduce the
    // fingerprint, so the determinism check gets stronger, not weaker.
    let iters = if smoke { 1 } else { 3 };
    let mut base_fp: Option<Vec<u64>> = None;
    for &shards in &[1usize, 2, 4, 8] {
        let reset = reset_peak_rss();
        let (mut s, fp, mut rounds) = run_scale(measure, shards);
        for _ in 1..iters {
            let (again, fp_again, rounds_again) = run_scale(measure, shards);
            assert_eq!(
                fp, fp_again,
                "scale: shards={shards} fingerprint drifted between repeats"
            );
            if again.wall_secs < s.wall_secs {
                (s, rounds) = (again, rounds_again);
            }
        }
        println!(
            "  [scale] shards {shards}: wall {:.3}s  events {}  events/sec {:.0}  \
             fingerprint {:#018x}",
            s.wall_secs,
            s.events,
            s.events_per_sec(),
            fingerprint_hash(&fp),
        );
        println!(
            "          minor page faults {}",
            faults_text(s.minor_faults)
        );
        println!("          peak RSS {}", rss_text(peak_rss_since(reset)));
        // Where each worker's wall clock went (nothing for one worker: it
        // has no barriers to wait at).
        let secs = |ns: u64| ns as f64 / 1e9;
        for (w, t) in rounds.workers.iter().enumerate() {
            println!(
                "          worker {w}: {} rounds  execute {:.3}s  wait {:.3}s  \
                 merge {:.3}s  wait {:.3}s",
                rounds.rounds,
                secs(t.execute_ns),
                secs(t.execute_wait_ns),
                secs(t.merge_ns),
                secs(t.merge_wait_ns),
            );
        }
        // Where the domains' execution went, whichever worker claimed them.
        let domains = &rounds.domain_execute_ns;
        let by_time = |(_, ns): &(usize, &u64)| **ns;
        let slowest = domains.iter().enumerate().max_by_key(by_time);
        let fastest = domains.iter().enumerate().min_by_key(by_time);
        if let (Some((slow, &slow_ns)), Some((fast, &fast_ns))) = (slowest, fastest) {
            let total: u64 = domains.iter().sum();
            let steals: u64 = rounds.workers.iter().map(|w| w.steals).sum();
            println!(
                "          domains: execute {:.3}s, domain 0 {:.1} %, slowest d{slow} {:.3}s, \
                 fastest d{fast} {:.3}s; {:.1} steals/round",
                secs(total),
                domains[0] as f64 * 100.0 / total.max(1) as f64,
                secs(slow_ns),
                secs(fast_ns),
                steals as f64 / rounds.rounds.max(1) as f64,
            );
        }
        match &base_fp {
            None => base_fp = Some(fp),
            Some(base) => assert_eq!(
                *base, fp,
                "scale: shards={shards} must replay the shards=1 fingerprint byte-identically"
            ),
        }
    }
    println!("  [scale] fingerprints identical across shards 1/2/4/8: OK");
}

/// `--check-jobs`: the sweep-parallelism regression guard. PR 5's numbers
/// showed `--jobs 2` *losing* to `--jobs 1` (133.3k vs 151.9k events/sec)
/// because workers serialized on shared result state and the longest cell
/// landed last. With longest-first scheduling and share-nothing workers,
/// two jobs must never be slower than one beyond measurement noise — even
/// on a single hardware thread, where the best case is a tie.
fn run_jobs_check() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("jobs check (smoke sweep, {cores} host cores):");
    // Alternate job counts and keep the min of three runs each: shared
    // runners drift minute to minute, and the regression this guards
    // against (PR 5's pre-LPT schedule) was only ~1.14x — a single shot
    // cannot tell that from noise.
    let ((mut secs1, events1), (mut secs2, events2)) = (run_figure_sweep(1), run_figure_sweep(2));
    for _ in 0..2 {
        secs2 = secs2.min(run_figure_sweep(2).0);
        secs1 = secs1.min(run_figure_sweep(1).0);
    }
    assert_eq!(
        events1, events2,
        "sweep must execute the same events regardless of job count"
    );
    // On one core two jobs can only tie (plus scheduling noise); with real
    // parallelism available a loss means contention crept back in.
    let tolerance = if cores >= 2 { 1.10 } else { 1.25 };
    println!(
        "  [jobs] jobs=1 {secs1:.3}s  jobs=2 {secs2:.3}s  ratio {:.3} (tolerance {tolerance})",
        secs2 / secs1,
    );
    assert!(
        secs2 <= secs1 * tolerance,
        "sweep parallelism regression: 2 jobs took {secs2:.3}s vs 1 job {secs1:.3}s \
         (tolerance {tolerance}x on {cores} cores)",
    );
    println!("  [jobs] check passed: two jobs are not slower than one");
}

/// Resets the process's peak resident set (`VmHWM`) to what it holds now,
/// by writing `5` to `/proc/self/clear_refs`. False where that fails (off
/// Linux).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set since `reset_peak_rss`, in MiB: `VmHWM`
/// of `/proc/self/status`. It includes what the process already held at the
/// reset, heap the allocator kept from earlier runs too. `None` when the
/// reset failed or the file is missing.
fn peak_rss_since(reset: bool) -> Option<f64> {
    if !reset {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// A peak RSS as printed: MiB with one decimal, or "n/a".
fn rss_text(mib: Option<f64>) -> String {
    mib.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MiB"))
}

/// Runs one scenario `iters` times (plus a determinism re-run of the first
/// iteration) and returns the best sample by events/sec plus the first
/// run's fingerprint (for traced-vs-untraced comparisons).
fn measure_scenario(
    name: &str,
    iters: usize,
    run: impl Fn() -> (Sample, Vec<u64>, Option<TraceOut>),
) -> (Sample, Vec<u64>) {
    let reset = reset_peak_rss();
    let (first, fp_a, _) = run();
    let (second, fp_b, _) = run();
    let mut faults = vec![first.minor_faults, second.minor_faults];
    assert_eq!(
        fp_a, fp_b,
        "{name}: same seed must replay a byte-identical metric fingerprint"
    );
    println!(
        "  [{name}] determinism guard: OK ({} counters identical)",
        fp_a.len()
    );
    println!("  [{name}] fingerprint {:#018x}", fingerprint_hash(&fp_a));
    let mut best = first;
    for _ in 1..iters.max(1) {
        let (s, _, _) = run();
        faults.push(s.minor_faults);
        if s.events_per_sec() > best.events_per_sec() {
            best = s;
        }
    }
    println!(
        "  [{name}] wall {:.3}s  events {}  events/sec {:.0}  sim-ops/sec {:.0}",
        best.wall_secs,
        best.events,
        best.events_per_sec(),
        best.sim_ops_per_sec(),
    );
    // On a line of its own: CI compares the lines that carry fingerprints.
    let faults: Vec<String> = faults.into_iter().map(faults_text).collect();
    println!(
        "  [{name}] minor page faults per timed run: {}",
        faults.join(", ")
    );
    println!(
        "  [{name}] peak RSS over the runs: {}",
        rss_text(peak_rss_since(reset))
    );
    (best, fp_a)
}

/// Runs a scenario once with tracing + telemetry armed, asserts the traced
/// fingerprint matches the untraced one (tracing must be purely passive),
/// and writes the artifacts next to `path`'s stem (`-<name>` suffix unless
/// the caller narrowed the run to one scenario with `--only`).
fn emit_trace_artifacts(
    name: &str,
    path: &str,
    exclusive: bool,
    untraced_fp: &[u64],
    untraced_wall_secs: f64,
    run: impl Fn() -> (Sample, Vec<u64>, Option<TraceOut>),
) {
    let (traced, fp, out) = run();
    // The telemetry window slices the run, and a slice boundary clips the
    // engine round in progress, so events from other domains merge into a
    // queue at a different moment. That moves no event, only how many sit
    // pending at once — the one thing `queue_high_water` measures (on the
    // grow scenario it reads 3215 against 3214).
    let masked = |fp: &[u64]| {
        let mut v = fp.to_vec();
        v[SimReport::FINGERPRINT_QUEUE_HIGH_WATER] = 0;
        v
    };
    assert_eq!(
        masked(&fp),
        masked(untraced_fp),
        "{name}: tracing must not change the simulation (fingerprint drift)"
    );
    println!("  [{name}] traced fingerprint identical: OK");
    println!(
        "  [{name}] traced wall {:.3}s  overhead {:+.1}% vs untraced {:.3}s",
        traced.wall_secs,
        (traced.wall_secs / untraced_wall_secs - 1.0) * 100.0,
        untraced_wall_secs
    );
    let out = out.expect("traced run yields artifacts");
    let base = if exclusive {
        PathBuf::from(path)
    } else {
        let p = PathBuf::from(path);
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("json");
        p.with_file_name(format!("{stem}-{name}.{ext}"))
    };
    std::fs::write(&base, &out.chrome_json).expect("write trace json");
    println!("  [{name}] trace written: {}", base.display());
    let telemetry_dest = base.with_extension("telemetry.csv");
    std::fs::write(&telemetry_dest, &out.telemetry_csv).expect("write telemetry csv");
    println!("  [{name}] telemetry written: {}", telemetry_dest.display());
    let attribution_dest = base.with_extension("attribution.csv");
    std::fs::write(&attribution_dest, &out.attribution_csv).expect("write attribution csv");
    println!(
        "  [{name}] attribution written: {}",
        attribution_dest.display()
    );
}

/// Runs the smoke figure grid on `jobs` worker threads (`--check-jobs`);
/// returns `(wall seconds, events)`.
fn run_figure_sweep(jobs: usize) -> (f64, u64) {
    let cells = figure_cells(true, None);
    println!("figure sweep: {} cells on {jobs} jobs (smoke)", cells.len());
    let outcome = run_sweep(cells, jobs);
    let merged = outcome.merged_lines();
    let merged_hash = fingerprint_hash(&merged.bytes().map(u64::from).collect::<Vec<u64>>());
    println!("  [sweep] merged output hash {merged_hash:#018x}");
    println!(
        "  [sweep] wall {:.3}s  events {}  events/sec {:.0}",
        outcome.wall_secs,
        outcome.events,
        outcome.events as f64 / outcome.wall_secs,
    );
    (outcome.wall_secs, outcome.events)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut iters = 3usize;
    let mut only: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut shards = 1usize;
    let mut scale_curve = false;
    let mut check_jobs = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                shards = args
                    .get(i + 1)
                    .expect("--shards needs a value")
                    .parse()
                    .expect("--shards takes a number");
                i += 2;
            }
            "--scale-curve" => {
                scale_curve = true;
                i += 1;
            }
            "--check-jobs" => {
                check_jobs = true;
                i += 1;
            }
            "--trace-out" => {
                trace_path = Some(args.get(i + 1).expect("--trace-out needs a path").clone());
                i += 2;
            }
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters takes a number");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--only" => {
                only = Some(args.get(i + 1).expect("--only needs a value").clone());
                i += 2;
            }
            other => panic!(
                "unknown argument {other:?} \
                 (expected --iters/--smoke/--only/--trace-out\
                 /--shards/--scale-curve/--check-jobs)"
            ),
        }
    }

    banner(
        "wallclock",
        "wall-clock throughput of the simulator (events/sec, sim-ops/sec)",
    );

    // Sweep cells build their own configs through `run_sim`, which picks
    // up the process-wide default; the scenario runners below take the
    // value explicitly.
    rablock_bench::set_default_shards(shards);
    println!("worker shards: {shards}");

    if check_jobs {
        run_jobs_check();
        return;
    }

    if scale_curve {
        run_scale_curve(smoke);
        return;
    }

    let (fig7_measure, chaos_measure, grow_measure) = if smoke {
        (
            SimDuration::millis(20),
            SimDuration::millis(100),
            SimDuration::millis(150),
        )
    } else {
        // The grow window intentionally matches smoke: the p99 degradation
        // window is measured over the expansion itself (both churn waves
        // plus backfill settle), and a longer steady-state tail only
        // dilutes the churn-window tail back toward the control's.
        (
            SimDuration::millis(160),
            SimDuration::secs(2),
            SimDuration::millis(150),
        )
    };
    if smoke {
        iters = 1;
    }

    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let exclusive = only.is_some();
    if want("fig7") {
        println!("fig7 4 KiB randwrite (DOP, 4 nodes x 2 OSDs, 16 conns):");
        let (fig7, fp) = measure_scenario("fig7", iters, || run_fig7(fig7_measure, shards, false));
        if let Some(path) = &trace_path {
            emit_trace_artifacts("fig7", path, exclusive, &fp, fig7.wall_secs, || {
                run_fig7(fig7_measure, shards, true)
            });
        }
    }
    if want("chaos") {
        println!("chaos (3 nodes, faults + retries + history checker):");
        let (chaos, fp) =
            measure_scenario("chaos", iters, || run_chaos(chaos_measure, shards, false));
        if let Some(path) = &trace_path {
            emit_trace_artifacts("chaos", path, exclusive, &fp, chaos.wall_secs, || {
                run_chaos(chaos_measure, shards, true)
            });
        }
    }
    if want("grow") {
        println!("grow 4->8->64 OSDs under load (weight churn + throttled backfill):");
        let (control, _, _) = run_grow(grow_measure, shards, false, false);
        let (grow, fp) = measure_scenario("grow", iters, || {
            run_grow(grow_measure, shards, true, false)
        });
        if let Some(path) = &trace_path {
            emit_trace_artifacts("grow", path, exclusive, &fp, grow.wall_secs, || {
                run_grow(grow_measure, shards, true, true)
            });
        }
        println!(
            "  [grow] p99 write {} ns vs churn-free control {} ns ({:.2}x degradation window)",
            grow.p99_write_ns,
            control.p99_write_ns,
            grow.p99_write_ns as f64 / control.p99_write_ns.max(1) as f64,
        );
    }
}
