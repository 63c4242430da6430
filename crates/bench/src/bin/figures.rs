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
//! figures [--jobs N] [--smoke] [--only PREFIX] [--out PATH]
//! ```
//!
//! `--jobs` defaults to all cores. `--smoke` shrinks measurement windows
//! ~8× for CI and checks only the claims that hold at smoke windows.
//! `--only fig09/` runs one figure's cells and skips the claims whose cells
//! it left out; without it, a missing cell fails its claim. The merged
//! data lines (timing-free, deterministic) go to stdout and to `--out`; a
//! full-window run of the whole grid writes them by default to
//! `results/figures_sweep.txt` at the workspace root, the committed golden
//! CI compares against. Each cell's simulation runs on the engine workers
//! its own config names; that every worker count gives the same data lines
//! is `tests/determinism.rs`'s to pin. The binary times nothing; the
//! simulator's speed is the `benchmark/` package's to measure.

use std::path::PathBuf;

use rablock_bench::banner;
use rablock_bench::claims::{self, Verdict};
use rablock_bench::sweep::{figure_cells, run_sweep};

fn workspace_root() -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
            "--only" => {
                only = Some(args.get(i + 1).expect("--only needs a value").clone());
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).expect("--out needs a value")));
                i += 2;
            }
            other => {
                panic!("unknown argument {other:?} (expected --jobs/--smoke/--only/--out)")
            }
        }
    }

    banner(
        "figures",
        "all paper figures + ablation grids as one parallel sweep",
    );
    let cells = figure_cells(smoke, only.as_deref());
    let n = cells.len();
    println!(
        "{n} cells, {jobs} jobs{}",
        if smoke { " (smoke)" } else { "" }
    );
    let outcome = run_sweep(cells, jobs);

    let merged = outcome.merged_lines();
    print!("{merged}");

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
