//! The diagnosing tool: replays the fixed scenarios once each and says what
//! they did.
//!
//! It measures nothing. The simulator's speed and memory — events per host
//! second, sim-ops per second, peak RSS, the shard speed-up, the tracing
//! overhead — are the `benchmark/` package's ledger (`BENCHMARK.json`). This
//! binary runs four scenarios: fig7 (the paper cluster's 4 KiB random
//! writes), chaos (the kit's fault scenario), grow (4 -> 8 -> 64 OSDs under
//! load) and scale256 (256 OSDs under 10 000 connections), all built from
//! `rablock_bench::scenarios`. For each it prints
//!
//! * its fingerprint hash (FNV-1a over the words of `SimReport::fingerprint`,
//!   which `results/golden/` pins by name), the same for every `--shards`
//!   value;
//! * for grow, the p99 write latency next to the p99 of a churn-free control
//!   on the same 64 OSDs: the expansion's degradation window;
//! * with `--shards N` above 1, where the engine's workers spent their
//!   rounds (`Simulation::round_stats`): executing domains, waiting at the
//!   barrier, merging mailboxes and waiting again, plus how the execute time
//!   split over domains and how often workers stole one.
//!
//! Usage:
//!
//! ```text
//! wallclock [--smoke] [--only fig7|chaos|grow|scale256] [--shards N]
//!           [--trace-out PATH]
//! ```
//!
//! `--smoke` shortens the fig7, chaos and scale256 windows so the whole run
//! takes seconds. `--trace-out PATH` arms tracing and a 2 ms telemetry
//! window, and writes a Perfetto-loadable Chrome trace JSON plus
//! `.telemetry.csv` and `.attribution.csv` siblings. With `--only` the JSON
//! lands at PATH exactly; otherwise each scenario gets a `-<name>` suffix. A
//! traced run may print another fingerprint than an untraced one: its
//! telemetry slices can move the `queue_high_water` word, and no other
//! (DESIGN.md §13).
//!
//! Shard invariance, tracing passivity and same-seed replay are pinned by
//! `tests/determinism.rs`, the 256-OSD fingerprint included.

use std::path::PathBuf;

use rablock::sim::{fingerprint_hash, ClusterSim, ClusterSimConfig, SimDuration, SimReport};
use rablock::PipelineMode;
use rablock_bench::{banner, paper_cluster, scenarios};

/// The scenarios `--only` can pick, in the order they run.
const NAMES: [&str; 4] = ["fig7", "chaos", "grow", "scale256"];

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

/// Writes a traced run's artifacts next to `path`'s stem (`-<name>` suffix
/// unless `--only` narrowed the run to one scenario).
fn write_trace(name: &str, path: &str, exclusive: bool, sim: &ClusterSim, report: &SimReport) {
    let base = if exclusive {
        PathBuf::from(path)
    } else {
        let p = PathBuf::from(path);
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("json");
        p.with_file_name(format!("{stem}-{name}.{ext}"))
    };
    let json = sim.trace_chrome_json().expect("tracing armed");
    std::fs::write(&base, json).expect("write trace json");
    println!("  [{name}] trace written: {}", base.display());
    let telemetry_dest = base.with_extension("telemetry.csv");
    std::fs::write(&telemetry_dest, sim.telemetry_csv()).expect("write telemetry csv");
    println!("  [{name}] telemetry written: {}", telemetry_dest.display());
    let attribution_dest = base.with_extension("attribution.csv");
    std::fs::write(&attribution_dest, attribution_csv(report)).expect("write attribution csv");
    println!(
        "  [{name}] attribution written: {}",
        attribution_dest.display()
    );
}

/// Prints where each engine worker's rounds went; nothing after a
/// one-worker run, which has no barriers to wait at.
fn print_rounds(name: &str, sim: &ClusterSim) {
    let rounds = sim.round_stats();
    let secs = |ns: u64| ns as f64 / 1e9;
    for (w, t) in rounds.workers.iter().enumerate() {
        println!(
            "  [{name}] worker {w}: {} rounds  execute {:.3}s  wait {:.3}s  \
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
            "  [{name}] domains: execute {:.3}s, domain 0 {:.1} %, slowest d{slow} {:.3}s, \
             fastest d{fast} {:.3}s; {:.1} steals/round",
            secs(total),
            domains[0] as f64 * 100.0 / total.max(1) as f64,
            secs(slow_ns),
            secs(fast_ns),
            steals as f64 / rounds.rounds.max(1) as f64,
        );
    }
}

/// The knobs every run of this binary shares.
struct Opts {
    shards: usize,
    trace_path: Option<String>,
    exclusive: bool,
}

impl Opts {
    /// Builds `cfg` into a simulation with `build`, runs it once and prints
    /// its fingerprint and round breakdown; traces it and writes the
    /// artifacts when a trace path is set.
    fn run(
        &self,
        name: &str,
        mut cfg: ClusterSimConfig,
        build: impl FnOnce(ClusterSimConfig) -> ClusterSim,
        (warmup, measure): (SimDuration, SimDuration),
    ) -> SimReport {
        cfg.shards = self.shards;
        if self.trace_path.is_some() {
            cfg.trace = true;
            cfg.telemetry_window = Some(SimDuration::millis(2));
        }
        let mut sim = build(cfg);
        let report = sim.run(warmup, measure);
        let checked = sim.checker().map(|c| (c.writes_acked(), c.reads_checked()));
        let fp = fingerprint_hash(&report.fingerprint(checked));
        println!("  [{name}] fingerprint {fp:#018x}");
        print_rounds(name, &sim);
        if let Some(path) = &self.trace_path {
            write_trace(name, path, self.exclusive, &sim, &report);
        }
        report
    }
}

fn main() {
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut opts = Opts {
        shards: 1,
        trace_path: None,
        exclusive: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--only" => only = Some(value()),
            "--shards" => opts.shards = value().parse().expect("--shards takes a number"),
            "--trace-out" => opts.trace_path = Some(value()),
            other => {
                panic!("unknown argument {other:?} (expected --smoke/--only/--shards/--trace-out)")
            }
        }
    }
    if let Some(name) = &only {
        assert!(
            NAMES.contains(&name.as_str()),
            "--only takes one of {NAMES:?}"
        );
    }
    opts.exclusive = only.is_some();
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    banner(
        "wallclock",
        "the fixed scenarios replayed once: fingerprints, grow's p99 window, engine rounds",
    );
    println!("worker shards: {}", opts.shards);
    let window = |smoke_ms: u64, full_ms: u64| {
        let ms = if smoke { smoke_ms } else { full_ms };
        (SimDuration::ZERO, SimDuration::millis(ms))
    };

    if want("fig7") {
        println!("fig7 4 KiB randwrite (DOP, 4 nodes x 2 OSDs, 16 conns):");
        let cfg = paper_cluster(PipelineMode::Dop);
        opts.run("fig7", cfg, scenarios::fig7_sim, window(20, 160));
    }
    if want("chaos") {
        println!("chaos (3 nodes, faults + retries + history checker):");
        let load = scenarios::CHAOS_LOAD;
        let cfg = scenarios::chaos_config();
        opts.run("chaos", cfg, |c| load.sim(c), window(100, 2_000));
    }
    if want("grow") {
        println!("grow 4->8->64 OSDs under load (weight churn + throttled backfill):");
        // An endless writer keeps both expansion waves and the control under
        // constant pressure. No link noise, unlike the correctness half in
        // tests/chaos.rs: random drops put 10 ms retry timeouts in both tails
        // and would swamp the expansion's own interference. The 150 ms window
        // is the same with and without --smoke: it holds both waves and the
        // backfill settle, and a longer steady-state tail would only dilute
        // the churn tail toward the control's.
        let load = scenarios::grow_load(u64::MAX, 0);
        let measure = SimDuration::millis(150);
        let grow = opts.run(
            "grow",
            scenarios::grow_config(0xE1A5, true),
            |c| load.sim(c),
            (SimDuration::ZERO, measure),
        );
        // The control warms up past the 64-OSD heartbeat-staggering
        // transient and measures steady state: the clean baseline. It is
        // never traced.
        let untraced = Opts {
            trace_path: None,
            ..opts
        };
        let control = untraced.run(
            "grow control",
            scenarios::grow_config(0xE1A5, false),
            |c| load.sim(c),
            (SimDuration::millis(25), measure),
        );
        let (p99, base) = (grow.write_lat.p99, control.write_lat.p99);
        println!(
            "  [grow] p99 write {} ns vs churn-free control {} ns ({:.2}x degradation window)",
            p99.as_nanos(),
            base.as_nanos(),
            p99.as_nanos() as f64 / base.as_nanos().max(1) as f64,
        );
    }
    if want("scale256") {
        println!("scale256 4 KiB randwrite (DOP, 32 nodes x 8 OSDs, 10 000 conns):");
        let cfg = scenarios::scale256_config();
        opts.run("scale256", cfg, scenarios::scale256_sim, window(4, 12));
    }
}
