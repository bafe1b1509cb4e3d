//! `--compare A.json B.json`: is B worse than A by more than the bounds
//! of `BENCHMARK.json`? One row per workload and end-to-end metric; where
//! either side's own repeats spread wider than the bound the verdict is
//! `unresolved`, not `ok`. Counts the issue calls exact must be equal.

use crate::spec::{get, Spec};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Per-layer counts that must repeat exactly between two runs of one
/// commit on one seed.
const EXACT_COUNTS: [&str; 4] = [
    "core.tasks_dispatched",
    "core.rounds",
    "wire.bytes_per_task",
    "likelihood.optimize_pattern_updates",
];
/// Below this absolute difference `setup_s` does not count as regressed.
const SETUP_FLOOR_S: f64 = 0.1;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The row of `workload` that has metrics under `section`.
fn row<'a>(doc: &'a Value, workload: &str, section: &str) -> Option<&'a Value> {
    get(doc, "rows")?.as_array()?.iter().find(|r| {
        get(r, "workload").and_then(Value::as_str) == Some(workload)
            && get(r, section)
                .and_then(Value::as_object)
                .is_some_and(|m| !m.is_empty())
    })
}

fn stat(row: &Value, section: &str, metric: &str, key: &str) -> Option<f64> {
    get(get(get(row, section)?, metric)?, key)?.as_f64()
}

pub fn run(a: &Path, b: &Path, spec: &Spec) -> Result<ExitCode, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let workloads: Vec<&str> = get(&doc_a, "rows")
        .and_then(Value::as_array)
        .ok_or("first file has no rows")?
        .iter()
        .filter_map(|r| get(r, "workload")?.as_str())
        .fold(Vec::new(), |mut seen, w| {
            if !seen.contains(&w) {
                seen.push(w);
            }
            seen
        });
    let mut bad = 0;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in workloads {
        let section = "end_to_end";
        let (Some(ra), Some(rb)) = (row(&doc_a, w, section), row(&doc_b, w, section)) else {
            println!("{w:<16} missing from one side");
            bad += 1;
            continue;
        };
        let unresolved_host = [ra, rb]
            .iter()
            .any(|r| get(r, "status").and_then(Value::as_str) == Some("unresolved"));
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let side = |r| {
                let value = stat(r, section, &m.name, "value")?;
                let spread =
                    (stat(r, section, &m.name, "max")? - stat(r, section, &m.name, "min")?) / value;
                Some((value, spread))
            };
            let (Some((va, spread_a)), Some((vb, spread_b))) = (side(ra), side(rb)) else {
                println!("{w:<16} {:<16} missing from one side", m.name);
                bad += 1;
                continue;
            };
            let change = (vb - va) / va;
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = if unresolved_host {
                "unresolved (host)"
            } else if change > bound && vb - va > floor {
                bad += 1;
                "REGRESSED"
            } else if spread_a.max(spread_b) > bound && (vb - va).abs() > floor {
                "unresolved (spread)"
            } else {
                "ok"
            };
            println!(
                "{w:<16} {:<16} {va:>12.6} {vb:>12.6} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                change * 100.0,
                bound * 100.0
            );
        }
        let failed = |r| get(r, "failed").and_then(Value::as_u64).unwrap_or(u64::MAX);
        if failed(ra) + failed(rb) > 0 {
            println!(
                "{w:<16} failed_runs      {:>12} {:>12}                    FAILED",
                failed(ra),
                failed(rb)
            );
            bad += 1;
        }
        if let (Some(ta), Some(tb)) = (row(&doc_a, w, "per_layer"), row(&doc_b, w, "per_layer")) {
            for name in EXACT_COUNTS {
                let (ca, cb) = (
                    stat(ta, "per_layer", name, "value"),
                    stat(tb, "per_layer", name, "value"),
                );
                if ca != cb {
                    println!("{w:<16} {name}: {ca:?} vs {cb:?}  DIFFERS (must repeat exactly)");
                    bad += 1;
                }
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "no regression beyond the bounds"
        } else {
            "see the rows marked above"
        }
    );
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
