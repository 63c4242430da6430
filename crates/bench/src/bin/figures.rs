//! Reproduce every figure of the paper in one parallel sweep, and check the
//! paper's claims against it.
//!
//! The binary enumerates the (figure, configuration) grid as independent
//! cells and fans them across worker threads; results merge in key order,
//! so the data output is byte-identical for any `--jobs` value (each cell
//! is a seeded, single-threaded simulation — see DESIGN.md §11). After the
//! sweep it checks every claim of `rablock_bench::claims`, prints them as
//! one markdown table, and exits non-zero naming each claim that fails.
//!
//! Usage:
//!
//! ```text
//! figures [--jobs N] [--smoke] [--only PREFIX] [--out PATH] [--shards N]
//!         [--check-jobs]
//! ```
//!
//! `--jobs` defaults to all cores. `--smoke` shrinks measurement windows
//! ~8× for CI and checks only the claims that hold at smoke windows.
//! `--only fig09/` runs one figure's cells and skips the claims whose cells
//! it left out; without it, a missing cell fails its claim. The merged
//! data lines (timing-free, deterministic) go to stdout and to `--out`; a
//! full-window run of the whole grid writes them by default to
//! `results/figures_sweep.txt` at the workspace root, the committed golden
//! CI compares against. `--shards N` runs every cell's simulation on N
//! engine worker threads (space-parallel domains); like `--jobs`, it can
//! only change wall-clock, never a data line.
//!
//! `--check-jobs` runs nothing else: it runs the smoke grid on one and on
//! two worker threads and asserts the two-job run is not slower (beyond a
//! noise tolerance). The longest-cell-first schedule plus share-nothing
//! workers must never lose to the sequential order, even on a single
//! hardware thread.

use std::path::PathBuf;

use rablock::sim::fingerprint_hash;
use rablock_bench::banner;
use rablock_bench::claims::{self, Verdict};
use rablock_bench::sweep::{figure_cells, run_sweep};

fn workspace_root() -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path
}

/// `--check-jobs`: the sweep-parallelism regression guard. An earlier
/// schedule had `--jobs 2` *losing* to `--jobs 1` (133.3k vs 151.9k events/sec)
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
    // against (the pre-LPT schedule) was only ~1.14x — a single shot
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
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut shards = 1usize;
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
            "--jobs" => {
                jobs = args
                    .get(i + 1)
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("--jobs takes a number");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--check-jobs" => {
                check_jobs = true;
                i += 1;
            }
            "--only" => {
                only = Some(args.get(i + 1).expect("--only needs a value").clone());
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).expect("--out needs a value")));
                i += 2;
            }
            other => {
                panic!("unknown argument {other:?} (expected --jobs/--smoke/--only/--out/--shards/--check-jobs)")
            }
        }
    }

    banner(
        "figures",
        "all paper figures + ablation grids as one parallel sweep",
    );
    rablock_bench::set_default_shards(shards);
    if check_jobs {
        run_jobs_check();
        return;
    }
    let cells = figure_cells(smoke, only.as_deref());
    let n = cells.len();
    println!(
        "{n} cells, {jobs} jobs, {shards} engine shards{}",
        if smoke { " (smoke)" } else { "" }
    );
    let outcome = run_sweep(cells, jobs);

    let merged = outcome.merged_lines();
    print!("{merged}");
    println!(
        "sweep: {} cells in {:.2}s wall ({} events, {:.0} events/sec aggregate)",
        outcome.results.len(),
        outcome.wall_secs,
        outcome.events,
        outcome.events as f64 / outcome.wall_secs,
    );
    let slowest = outcome
        .results
        .iter()
        .max_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    if let Some(s) = slowest {
        println!("slowest cell: {} ({:.2}s)", s.key, s.wall_secs);
    }

    // Only a full-window run of the whole grid replaces the golden.
    let path = out.or_else(|| {
        (!smoke && only.is_none()).then(|| workspace_root().join("results/figures_sweep.txt"))
    });
    if let Some(path) = path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, &merged).expect("write merged sweep output");
        println!("[out] {}", path.display());
    }

    let outcomes = claims::check(&merged, smoke, only.is_none());
    print!("{}", claims::render(&outcomes));
    let red: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.verdict == Verdict::Fails)
        .map(|o| o.claim.id)
        .collect();
    if !red.is_empty() {
        eprintln!("claims failed: {}", red.join(", "));
        std::process::exit(1);
    }
}
