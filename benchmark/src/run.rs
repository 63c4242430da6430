//! One workload in this process: repeats, checks, metric values, output.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rablock::sim::SimDuration;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::host;
use crate::json::Json;
use crate::live::{self, LiveRepeat};
use crate::probes::{self, ProbeSize};
use crate::recipes::{Scale, SimCell};
use crate::simcell::{self, Repeat, PAR_SHARDS, SIM_WORKLOADS};
use crate::spans::Tracer;
use crate::stats::{max, median, min, percentile_sorted, quartiles};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds of timed work the untraced run aims for.
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// When the process started; what it did before measuring is set-up.
    pub started: Instant,
}

/// Everything one run of one workload produced.
#[derive(Default)]
struct Outcome {
    /// Per metric, one value per repeat (one value for quantities that are
    /// measured once per run, such as peak memory or pooled percentiles).
    samples: Vec<(&'static str, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    /// Failed checks; empty means the outputs were correct.
    failures: Vec<String>,
    fingerprint: Option<u64>,
    repeats: usize,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.samples.push((name, vec![value])),
        }
    }

    fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.push(name, value);
        }
    }

    fn values(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Repeats of a run: `--seconds` over what one repeat takes on the sizing
/// host, so the count depends on the arguments only, never on host speed.
fn repeats_for(a: &Args, nominal_seconds: f64) -> usize {
    if a.smoke {
        return 2;
    }
    ((a.seconds as f64 / nominal_seconds).round() as usize).clamp(3, 15)
}

/// Runs `a.workload` and prints its metrics. A failed check is reported in
/// the result object (`"correct": false`), not through the exit code.
pub fn run_workload(a: &Args) {
    let mut tracer = Tracer::new(a.trace, a.seed);
    let is_sim = SIM_WORKLOADS.contains(&a.workload.as_str());
    let outcome = match (is_sim, a.trace) {
        (true, false) => sim_untraced(a, &mut tracer),
        (true, true) => sim_traced(a, &mut tracer),
        (false, false) => live_untraced(a, &mut tracer),
        (false, true) => live_traced(a, &mut tracer),
    };
    if a.trace {
        let path = a
            .out_dir
            .join(format!("{}.seed{}.chrome-trace.json", a.workload, a.seed));
        write_file(&path, &tracer.chrome_json().compact());
        println!("chrome trace: {}", path.display());
        println!("self time by span (s):");
        for (name, secs, count) in tracer.self_time_by_name() {
            println!("  {secs:>9.4}  x{count:<3} {name}");
        }
    }
    report(a, &outcome);
}

fn check_fingerprints(out: &mut Outcome, reps: &[&Repeat]) {
    let first = reps[0].fingerprint;
    out.fingerprint = Some(first);
    if let Some(bad) = reps.iter().position(|r| r.fingerprint != first) {
        out.failures.push(format!(
            "fingerprint of run {bad} is {:#018x}, of run 0 {first:#018x}: simulated results differ between identical runs",
            reps[bad].fingerprint
        ));
    }
}

fn sim_checks(a: &Args, out: &mut Outcome, rep: &Repeat) {
    out.attempted += rep.ops() + rep.report.client_errors;
    out.failed += rep.report.client_errors;
    if a.workload == "churn_scrub" && !a.smoke {
        // The smoke window is too short for recovery and scrub to finish.
        out.failures.extend(simcell::churn_checks(rep));
    }
}

fn sim_shards(workload: &str) -> usize {
    if workload == "scale256_par" {
        PAR_SHARDS
    } else {
        1
    }
}

/// `a.workload`'s cell at the run's seed and size, on `shards` workers.
fn build_cell(a: &Args, shards: usize) -> SimCell {
    simcell::build(&a.workload, a.seed, Scale { smoke: a.smoke }, shards)
}

/// Set-up cycles a run performs before it measures; `setup_s` takes their
/// median, so one disturbed cycle does not decide it. `--smoke` makes do
/// with one.
fn setup_cycles(a: &Args) -> usize {
    if a.smoke {
        1
    } else {
        3
    }
}

/// One discarded set-up cycle: build a cluster, run a tenth of the window,
/// drop it. The first clusters of a process pay page faults, allocator growth
/// and cold code that no later one does. Returns the host seconds it took.
fn sim_warm_up(a: &Args, tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    let build = || {
        let mut cell = build_cell(a, sim_shards(&a.workload));
        cell.measure = SimDuration::nanos(cell.measure.as_nanos() / 10);
        cell
    };
    simcell::run_once(build, false, tr);
    t.elapsed().as_secs_f64()
}

/// Host seconds before the first operation of a measured cluster can be
/// issued: what the process did before its first cycle, a warm-up cycle, and
/// the construction and prefill of the measured cluster; the last two as
/// medians over the cycles and over the repeats.
fn setup_seconds(prologue_s: f64, cycles: &[f64], construct: &[f64]) -> f64 {
    prologue_s + median(cycles) + median(construct)
}

fn sim_untraced(a: &Args, tr: &mut Tracer) -> Outcome {
    let shards = sim_shards(&a.workload);
    let build = || build_cell(a, shards);
    let prologue_s = a.started.elapsed().as_secs_f64();
    let cycles: Vec<f64> = (0..setup_cycles(a)).map(|_| sim_warm_up(a, tr)).collect();
    let n = repeats_for(a, simcell::nominal_repeat_seconds(&a.workload));
    let reps: Vec<Repeat> = (0..n)
        .map(|_| simcell::run_once(build, false, tr))
        .collect();

    let mut out = Outcome {
        repeats: n,
        ..Outcome::default()
    };
    let construct: Vec<f64> = reps.iter().map(|r| r.construct_s).collect();
    out.push("setup_s", setup_seconds(prologue_s, &cycles, &construct));
    for rep in &reps {
        sim_checks(a, &mut out, rep);
        let r = &rep.report;
        out.extend([
            ("host_ops_per_s", rep.ops() as f64 / rep.wall_s),
            ("write_p50_us", simcell::us(r.write_lat.p50)),
            ("cpu_us_per_op", simcell::sim_cpu_us_per_op(r)),
            ("waf", r.store.waf()),
        ]);
    }
    out.push("peak_rss_mib", host::peak_rss_mib());
    check_fingerprints(&mut out, &reps.iter().collect::<Vec<_>>());
    // For the reader of the log; the traced pass is what reports these.
    for (name, value) in simcell::report_metrics(&reps[n - 1]) {
        if matches!(
            name,
            "sim.iops" | "sim.write_p99_us" | "sim.events_per_host_s"
        ) {
            println!("  ({name} = {value})");
        }
    }
    out
}

fn sim_traced(a: &Args, tr: &mut Tracer) -> Outcome {
    let shards = sim_shards(&a.workload);
    let build = || build_cell(a, shards);
    let span = tr.begin("warm-up");
    sim_warm_up(a, tr);
    tr.end(span);
    let span = tr.begin("untraced");
    let plain = simcell::run_once(build, false, tr);
    tr.end(span);
    let span = tr.begin("traced");
    let traced = simcell::run_once(build, true, tr);
    tr.end(span);

    let mut out = Outcome {
        repeats: 1,
        ..Outcome::default()
    };
    sim_checks(a, &mut out, &plain);
    // Tracing is passive: the traced run must reproduce the untraced one.
    check_fingerprints(&mut out, &[&plain, &traced]);
    out.extend(simcell::report_metrics(&plain));
    // The attribution exists only in the traced report.
    out.extend(
        simcell::report_metrics(&traced)
            .into_iter()
            .filter(|(name, _)| name.starts_with("attr.")),
    );
    out.push(
        "sim.trace_overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    if shards > 1 {
        let span = tr.begin("one-worker");
        let single = simcell::run_once(|| build_cell(a, 1), false, tr);
        tr.end(span);
        // Worker count must never change simulated results.
        check_fingerprints(&mut out, &[&plain, &single]);
        out.push("sim.par_speedup", single.wall_s / plain.wall_s);
    }
    let probes = probes::run_all(a.seed, ProbeSize::new(a.smoke), tr);
    out.extend(probes.iter().copied());
    out.extend(budget(a, &plain, shards, &probes));
    out
}

/// Where a sim run's host time goes, estimated from outside: each probe's
/// cost per operation times the operations the run performed, over the
/// run's wall time (times the worker count when the engine ran in
/// parallel). The probes run their layer alone with warm caches, so the
/// shares are a floor, and the residual holds everything no probe covers:
/// driver glue, cost model, metrics, generators, cache misses.
fn budget(
    a: &Args,
    rep: &Repeat,
    shards: usize,
    probes: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let p = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let r = &rep.report;
    let (writes, reads) = (r.writes_done as f64, r.reads_done as f64);
    let capacity_ns = rep.wall_s * 1e9 * shards as f64;
    let engine_probe = if shards > 1 {
        p("sim.engine_probe_2dom_ns_per_event")
    } else {
        p("sim.engine_probe_ns_per_event")
    };
    let engine = engine_probe * r.events_processed as f64;
    // Every write is logged (DOP) or submitted (Original) on both replicas.
    let (osd, oplog, store) = if a.workload == "randwrite_orig" {
        (
            p("cluster.osd_write_orig_ns") * writes,
            0.0,
            2.0 * p("lsm.submit_4k_ns") * writes,
        )
    } else {
        let checksums = matches!(a.workload.as_str(), "mixed_rw_dop" | "churn_scrub");
        let read = if checksums {
            p("cos.read_4k_csum_ns")
        } else {
            p("cos.read_4k_ns")
        };
        (
            p("cluster.osd_write_dop_ns") * writes + p("cluster.osd_read_dop_ns") * reads,
            2.0 * (p("oplog.append_4k_ns") + p("oplog.drain_flush_ns_per_record")) * writes,
            2.0 * p("cos.submit_4k_ns") * writes + read * reads,
        )
    };
    vec![
        ("budget.engine_share", engine / capacity_ns),
        ("budget.osd_stack_share", osd / capacity_ns),
        ("budget.oplog_share", oplog / capacity_ns),
        ("budget.store_share", store / capacity_ns),
        ("budget.residual_share", 1.0 - (engine + osd) / capacity_ns),
    ]
}

fn live_ops(a: &Args) -> usize {
    if a.smoke {
        live::OPS_PER_CLIENT / 20
    } else {
        live::OPS_PER_CLIENT
    }
}

fn live_checks(out: &mut Outcome, rep: &LiveRepeat) {
    out.attempted += rep.attempted;
    out.failed += rep.failed;
    if rep.verified == 0 || rep.mismatched > 0 {
        out.failures.push(format!(
            "read-back: {} of {} touched blocks do not hold the last value written",
            rep.mismatched, rep.verified
        ));
    }
}

/// One discarded set-up cycle of the live cell, at a tenth of the ops.
/// Returns the host seconds it took.
fn live_warm_up(a: &Args, tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    live::run_once(a.seed, live::CLIENTS, live_ops(a) / 10, tr);
    t.elapsed().as_secs_f64()
}

fn live_untraced(a: &Args, tr: &mut Tracer) -> Outcome {
    let ops = live_ops(a);
    let prologue_s = a.started.elapsed().as_secs_f64();
    let cycles: Vec<f64> = (0..setup_cycles(a)).map(|_| live_warm_up(a, tr)).collect();
    let n = repeats_for(a, live::NOMINAL_REPEAT_SECONDS);
    let mut out = Outcome {
        repeats: n,
        ..Outcome::default()
    };
    let mut pooled: Vec<u64> = Vec::new();
    let mut construct = Vec::new();
    for _ in 0..n {
        let rep = live::run_once(a.seed, live::CLIENTS, ops, tr);
        live_checks(&mut out, &rep);
        construct.push(rep.construct_s);
        let done = rep.lat_ns.len() as f64;
        out.extend([
            ("host_ops_per_s", done / rep.wall_s),
            ("cpu_us_per_op", rep.cpu_s * 1e6 / done.max(1.0)),
        ]);
        pooled.extend(rep.lat_ns);
    }
    out.push("setup_s", setup_seconds(prologue_s, &cycles, &construct));
    // The exact median of the sorted samples of all repeats.
    pooled.sort_unstable();
    out.push(
        "write_p50_us",
        percentile_sorted(&pooled, 0.50) as f64 / 1e3,
    );
    out.push("peak_rss_mib", host::peak_rss_mib());
    println!(
        "  (latency samples = {}, p99 = {} us)",
        pooled.len(),
        percentile_sorted(&pooled, 0.99) as f64 / 1e3
    );
    out
}

fn live_traced(a: &Args, tr: &mut Tracer) -> Outcome {
    let ops = live_ops(a);
    let span = tr.begin("warm-up");
    live_warm_up(a, tr);
    tr.end(span);
    let span = tr.begin("two-clients");
    let rep = live::run_once(a.seed, live::CLIENTS, ops, tr);
    tr.end(span);
    // One client: the bare request / replicate / ack round trip.
    let span = tr.begin("one-client");
    let qd1 = live::run_once(a.seed, 1, ops, tr);
    tr.end(span);

    let mut out = Outcome {
        repeats: 1,
        ..Outcome::default()
    };
    live_checks(&mut out, &rep);
    live_checks(&mut out, &qd1);
    let done = rep.lat_ns.len().max(1) as f64;
    let mut sorted = rep.lat_ns.clone();
    sorted.sort_unstable();
    out.extend([
        (
            "live.lat_mean_us",
            rep.lat_ns.iter().sum::<u64>() as f64 / done / 1e3,
        ),
        (
            "live.lat_p99_us",
            percentile_sorted(&sorted, 0.99) as f64 / 1e3,
        ),
        ("live.lat_samples", done),
        ("cluster.construct_prefill_ms", rep.construct_s * 1e3),
        ("live.qd1_ops_per_s", qd1.lat_ns.len() as f64 / qd1.wall_s),
        ("host.cpu_us_per_op", rep.cpu_s * 1e6 / done),
    ]);
    out.extend(probes::run_all(a.seed, ProbeSize::new(a.smoke), tr));
    out
}

/// Writes `text` to `path`, creating the directories above it.
pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, text).expect("write output file");
}

/// Where a run leaves its per-metric detail for the all-workloads command.
pub fn detail_path(out_dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}.seed{seed}.trace{}.json",
        u8::from(trace)
    ))
}

/// Prints every metric of the pass by name with its unit, writes the detail
/// file, and ends with the one-line result object.
fn report(a: &Args, out: &Outcome) {
    let set: &[Metric] = if a.trace { PER_LAYER } else { END_TO_END };
    let mut line = Vec::new();
    let mut detail = Vec::new();
    for m in set {
        let values = match out.values(m.name) {
            Some(values) => values,
            // A per-layer metric that does not apply to this workload reads 0.
            None if a.trace => &[0.0],
            // `live_randwrite`, which the driver does not run, has no `waf`.
            None if a.workload == "live_randwrite" => continue,
            None => panic!("end-to-end metric {} not measured", m.name),
        };
        let value = median(values);
        let (q1, q3) = quartiles(values);
        let spread = if values.len() > 1 {
            format!(
                " (min {:.4}, max {:.4}, n={})",
                min(values),
                max(values),
                values.len()
            )
        } else {
            String::new()
        };
        println!("{:<38} {:>16.4} {:<6}{spread}", m.name, value, m.unit);
        line.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
        detail.push((
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(value)),
                ("min", Json::Num(min(values))),
                ("max", Json::Num(max(values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("n", Json::Num(values.len() as f64)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]),
        ));
    }
    let correct = out.failures.is_empty();
    let fingerprint = out
        .fingerprint
        .map_or(Json::Null, |f| Json::str(format!("{f:#018x}")));
    println!("fingerprint: {}", fingerprint.compact());
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "ops attempted {}, failed {} (share {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let detail = Json::obj([
        ("workload", Json::str(a.workload.clone())),
        ("seed", Json::str(a.seed.to_string())),
        ("trace", Json::Bool(a.trace)),
        ("smoke", Json::Bool(a.smoke)),
        ("seconds", Json::Num(a.seconds as f64)),
        ("repeats", Json::Num(out.repeats as f64)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("commit", Json::str(host::git_commit())),
        ("rustc", Json::str(host::rustc_version())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "failures",
            Json::Arr(out.failures.iter().map(Json::str).collect()),
        ),
        ("fingerprint", fingerprint),
        ("metrics", Json::obj(detail)),
    ]);
    write_file(
        &detail_path(&a.out_dir, &a.workload, a.seed, a.trace),
        &detail.pretty(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(line)),
    ]);
    println!("{}", result.compact());
}
