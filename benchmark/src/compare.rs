//! `compare A.json B.json`: per workload and end-to-end metric, is B the
//! same as A, better, worse, or can the data not tell?

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::json::Json;

#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field(metric: &Json, key: &str) -> Option<f64> {
    metric.get(key).and_then(Json::as_f64)
}

/// Applies the benchmark's own bound to one metric of one workload.
///
/// `worse_by` is the share of A's median by which B is worse (negative when
/// better). When A's own repeats spread, first to third quartile, by more
/// than the bound, a difference of that size proves nothing: unresolved.
fn judge(better: Better, bound: f64, a: &Json, b: &Json) -> Option<(Verdict, f64, f64)> {
    let (ma, mb) = (field(a, "median")?, field(b, "median")?);
    if ma == 0.0 {
        return None;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = (field(a, "q3")? - field(a, "q1")?).abs() / ma.abs();
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((verdict, mb / ma, ma))
}

/// Prints one row per workload; returns the exit code (1 when any metric
/// is worse or unresolved, or simulated results differ).
pub fn compare(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc, path) in [("A", &a, path_a), ("B", &b, path_b)] {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{label}: {path}  commit {}  seed {}  nproc {}  {}",
            text("commit"),
            text("seed"),
            num("nproc"),
            text("rustc")
        );
    }
    let same_seed = a.get("seed") == b.get("seed");
    println!("each cell: verdict B/A of A's median; bound in the header");
    let mut header = format!("{:<16}", "workload");
    for m in END_TO_END {
        header.push_str(&format!(
            " | {:<30}",
            format!(
                "{} [{}] ±{:.0}%",
                m.name,
                m.unit,
                m.bound.unwrap_or(0.0) * 100.0
            )
        ));
    }
    println!("{header} | simulated results");
    let mut bad = 0;
    for w in WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{:<16} | missing in A or B", w.name);
            bad += 1;
            continue;
        };
        let mut row = format!("{:<16}", w.name);
        for m in END_TO_END {
            let metric = |doc: &Json| doc.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let cell = match (metric(&wa), metric(&wb)) {
                (Some(ma), Some(mb)) => match judge(m.better, m.bound.unwrap_or(0.0), &ma, &mb) {
                    Some((verdict, ratio, base)) => {
                        bad += i32::from(matches!(verdict, Verdict::Worse | Verdict::Unresolved));
                        format!("{} x{ratio:.4} of {base:.4}", verdict.word())
                    }
                    None => "no value".to_string(),
                },
                // `live_randwrite` has no `waf`.
                _ => "n/a".to_string(),
            };
            row.push_str(&format!(" | {cell:<30}"));
        }
        let print = |doc: &Json| {
            doc.get("fingerprint")
                .map(Json::compact)
                .unwrap_or_default()
        };
        let (fa, fb) = (print(&wa), print(&wb));
        if !same_seed {
            row.push_str(" | not comparable: seeds differ");
        } else if fa == fb {
            row.push_str(&format!(" | identical {fa}"));
        } else {
            row.push_str(&format!(" | DIFFERENT {fa} vs {fb}"));
            bad += 1;
        }
        println!("{row}");
    }
    Ok(i32::from(bad > 0))
}
