//! The one benchmark for rablock. See `benchmark/README.md`.
//!
//! ```text
//! rablock-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                         [--smoke] [--out DIR] [--result FILE]
//! rablock-benchmark trace [same options]        the traced pass only
//! rablock-benchmark compare A.json B.json
//! rablock-benchmark manifest                    prints BENCHMARK.json
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and ends
//! with the one-line result object. Without it, every workload runs in a
//! fresh child process (so peak memory is per workload), first untraced for
//! the end-to-end metrics, then traced for the per-layer ones, and the
//! results are gathered into one JSON file.

mod catalog;
mod compare;
mod host;
mod json;
mod live;
mod probes;
mod recipes;
mod run;
mod simcell;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::Command;

use catalog::{DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};
use json::Json;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `None`: both passes (all-workloads mode) or the untraced one.
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    result: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rablock-benchmark run|trace [--workload W] [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--out DIR] [--result FILE]\n       \
         rablock-benchmark compare A.json B.json\n       \
         rablock-benchmark manifest\nworkloads: {}\n\
         seeds: default {DEFAULT_SEED}, `--seed held-out` = {HELD_OUT_SEED}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        result: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => {
                cli.seed = match value().as_str() {
                    "held-out" => HELD_OUT_SEED,
                    n => n.parse().unwrap_or_else(|_| usage()),
                }
            }
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value()),
            "--result" => cli.result = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            usage();
        }
    }
    cli
}

/// Runs every workload in a child process per pass and gathers the detail
/// files the children leave into one result.
fn run_all(cli: &Cli) -> i32 {
    let exe = std::env::current_exe().expect("own path");
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut entry = vec![];
        for &trace in passes {
            println!("=== {} (--trace {}) ===", w.name, u8::from(trace));
            let mut cmd = Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out_dir);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().expect("start child run");
            let path = run::detail_path(&cli.out_dir, w.name, cli.seed, trace);
            let detail = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            let Some(detail) = detail.filter(|_| status.success()) else {
                println!("{}: run failed ({status})", w.name);
                all_correct = false;
                continue;
            };
            all_correct &= detail.get("correct") == Some(&Json::Bool(true));
            if entry.is_empty() {
                for key in ["correct", "attempted", "failed", "fingerprint", "repeats"] {
                    entry.push((
                        key.to_string(),
                        detail.get(key).cloned().unwrap_or(Json::Null),
                    ));
                }
            }
            let set = if trace { "per_layer" } else { "end_to_end" };
            entry.push((
                set.to_string(),
                detail.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    let result = Json::obj([
        ("schema", Json::str("rablock-benchmark/1")),
        ("seed", Json::str(cli.seed.to_string())),
        ("seconds", Json::Num(cli.seconds as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("commit", Json::str(host::git_commit())),
        ("rustc", Json::str(host::rustc_version())),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = cli.result.clone().unwrap_or_else(|| {
        let smoke = if cli.smoke { ".smoke" } else { "" };
        cli.out_dir
            .join(format!("result.seed{}{smoke}.json", cli.seed))
    });
    run::write_file(&path, &result.pretty());
    println!("result: {}", path.display());
    i32::from(!all_correct)
}

fn main() {
    let started = std::time::Instant::now();
    host::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let code = match command.as_str() {
        "run" | "trace" => {
            let mut cli = parse(rest);
            if command == "trace" {
                cli.trace = Some(true);
            }
            match &cli.workload {
                Some(workload) => {
                    run::run_workload(&run::Args {
                        workload: workload.clone(),
                        seed: cli.seed,
                        seconds: cli.seconds,
                        trace: cli.trace.unwrap_or(false),
                        smoke: cli.smoke,
                        out_dir: cli.out_dir.clone(),
                        started,
                    });
                    0
                }
                None => run_all(&cli),
            }
        }
        "compare" => match rest {
            [a, b] => compare::compare(a, b).unwrap_or_else(|e| {
                eprintln!("compare: {e}");
                2
            }),
            _ => usage(),
        },
        "manifest" => {
            print!("{}", catalog::manifest().pretty());
            0
        }
        _ => usage(),
    };
    std::process::exit(code);
}
