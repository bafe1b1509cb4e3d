//! Seconds-to-tree on every deployment path of `fastdnaml`, with a traced
//! run that attributes them to layers. See `benchmark/README.md`.
//!
//! ```text
//! fdml-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                [--repeats N] [--quick]
//! fdml-benchmark [--seed N] [--seconds S] [--out FILE]     every workload
//! fdml-benchmark --compare A.json B.json
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod launch;
mod obslog;
mod probes;
mod run;
mod spec;
mod trace;
mod workloads;

use run::{fastest, median, Context};
use serde_json::{Number, Value};
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Deploy, Workload, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: Option<usize>,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeats: None,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--repeats" => {
                args.repeats = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?)
            }
            "--trace" => args.trace = value()? != "0",
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// A measured value: counts as whole numbers, the rest with all digits.
fn num(x: f64) -> Value {
    if x >= 0.0 && x.fract() == 0.0 && x < 1e15 {
        Value::Number(Number::U(x as u64))
    } else {
        Value::Number(Number::F(x))
    }
}

fn int(n: usize) -> Value {
    Value::Number(Number::U(n as u64))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// First line a command prints, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were measured; part of every result row.
fn provenance(args: &Args, host_cores: usize) -> Value {
    object(vec![
        ("kind", text("measured")),
        ("host_cores", int(host_cores)),
        ("kernel_isa", text(probes::kernel_isa())),
        ("rustc", text(&first_line("rustc", &["-V"]))),
        (
            "git_commit",
            text(&first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Number(Number::U(args.seed))),
        ("sites", int(workloads::SITES)),
        ("comparable", Value::Bool(!args.quick)),
    ])
}

/// Build the release `fastdnaml` binary from the checkout's source.
fn build_program(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "fastdnaml"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of fastdnaml failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let program = root.join(target).join("release").join("fastdnaml");
    if program.is_file() {
        Ok(program)
    } else {
        Err(format!("{} was not built", program.display()))
    }
}

fn load_golden(root: &Path) -> Result<BTreeMap<String, f64>, String> {
    let path = root.join("benchmark/golden.json");
    let doc: Value = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let lnl = spec::get(&doc, "lnl")
        .and_then(Value::as_object)
        .ok_or("golden.json: no lnl object")?;
    Ok(lnl
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// One workload's results, as printed and as stored in a results file.
struct Row {
    workload: &'static str,
    /// "measured", or "unresolved" where the host cannot express the
    /// workload (a parallel path on fewer than two cores).
    status: &'static str,
    attempted: usize,
    failures: Vec<String>,
    /// (name, reported value, samples) of the end-to-end metrics.
    end_to_end: Vec<(String, f64, Vec<f64>)>,
    /// name → value, for the per-layer metrics.
    per_layer: Vec<(String, f64)>,
}

impl Row {
    /// The line the driver reads: every end-to-end metric, or with
    /// tracing every per-layer metric, by name with its unit.
    fn contract_line(&self, spec: &Spec, traced: bool) -> Value {
        let metric = |name: &str, unit: &str, value: f64| {
            (
                name.to_string(),
                object(vec![("value", num(value)), ("unit", text(unit))]),
            )
        };
        let metrics = if traced {
            self.per_layer
                .iter()
                .zip(&spec.per_layer)
                .map(|((name, value), m)| metric(name, &m.unit, *value))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .zip(&spec.end_to_end)
                .map(|((name, value, _), m)| metric(name, &m.unit, *value))
                .collect()
        };
        object(vec![
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failures.len())),
            ("metrics", Value::Object(metrics)),
        ])
    }

    fn to_json(&self, spec: &Spec) -> Value {
        let end_to_end = self
            .end_to_end
            .iter()
            .zip(&spec.end_to_end)
            .map(|((name, value, samples), m)| {
                let (min, max) = min_max(samples);
                let stats = object(vec![
                    ("value", num(*value)),
                    ("unit", text(&m.unit)),
                    ("min", num(min)),
                    ("max", num(max)),
                    ("samples", int(samples.len())),
                ]);
                (name.clone(), stats)
            })
            .collect();
        let per_layer = self
            .per_layer
            .iter()
            .zip(&spec.per_layer)
            .map(|((name, value), m)| {
                (
                    name.clone(),
                    object(vec![("value", num(*value)), ("unit", text(&m.unit))]),
                )
            })
            .collect();
        object(vec![
            ("workload", text(self.workload)),
            ("status", text(self.status)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failures.len())),
            ("end_to_end", Value::Object(end_to_end)),
            ("per_layer", Value::Object(per_layer)),
        ])
    }

    fn print(&self, spec: &Spec) {
        for ((name, value, samples), m) in self.end_to_end.iter().zip(&spec.end_to_end) {
            let (min, max) = min_max(samples);
            println!(
                "  {name:<38} {value:>14.6} {:<6} min {min:.6} max {max:.6} n={}",
                m.unit,
                samples.len()
            );
        }
        for ((name, value), m) in self.per_layer.iter().zip(&spec.per_layer) {
            println!("  {name:<38} {value:>14.6} {}", m.unit);
        }
        println!(
            "  {:<38} {:>14} of {} attempted",
            "failed_runs",
            self.failures.len(),
            self.attempted
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Measure one workload, untraced or traced.
fn run_workload(
    ctx: &Context,
    spec: &Spec,
    w: &'static Workload,
    args: &Args,
    traced: bool,
    host_cores: usize,
) -> Result<Row, String> {
    let status = if host_cores < 2 && w.deploy != Deploy::Serial {
        println!(
            "  unresolved: {} needs two cores, this host has {host_cores}",
            w.name
        );
        "unresolved"
    } else {
        "measured"
    };
    let mut row = Row {
        workload: w.name,
        status,
        attempted: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if traced {
        row.attempted = 1;
        match ctx.trace(w) {
            Ok(values) => {
                for m in &spec.per_layer {
                    let value = values
                        .get(m.name.as_str())
                        .ok_or(format!("no probe measures {}", m.name))?;
                    row.per_layer.push((m.name.clone(), *value));
                }
            }
            Err(e) => row.failures.push(e),
        }
    } else {
        let measured = ctx.measure(w, args.seconds, args.repeats);
        row.attempted = measured.attempted;
        row.failures = measured.failures;
        if let Some(lnl) = measured.lnl {
            println!("  lnL of the output tree, recomputed: {lnl}");
        }
        for m in &spec.end_to_end {
            let (value, samples) = match m.name.as_str() {
                "time_to_tree_s" => (
                    median(&measured.time_to_tree_s),
                    measured.time_to_tree_s.clone(),
                ),
                "setup_s" => (fastest(&measured.setup_s), measured.setup_s.clone()),
                other => return Err(format!("nothing measures the end-to-end metric {other}")),
            };
            row.end_to_end.push((m.name.clone(), value, samples));
        }
    }
    Ok(row)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let spec = spec::load(&root)?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &spec);
    }
    let out_dir = root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let ctx = Context {
        program: build_program(&root)?,
        out_dir: out_dir.clone(),
        seed: args.seed,
        quick: args.quick,
        golden: load_golden(&root)?,
        runs: Default::default(),
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = provenance(args, host_cores);
    println!(
        "provenance: {}",
        serde_json::to_string(&provenance).map_err(|e| e.to_string())?
    );
    if args.quick {
        println!(
            "--quick: {} taxa everywhere; numbers are not comparable with full-size runs",
            workloads::QUICK_TAXA
        );
    }

    // One workload, as the driver runs it.
    if let Some(name) = &args.workload {
        let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
        println!(
            "{} (seed {}, trace {}):",
            w.name, args.seed, args.trace as u8
        );
        let row = run_workload(&ctx, &spec, w, args, args.trace, host_cores)?;
        row.print(&spec);
        let line = row.contract_line(&spec, args.trace);
        println!(
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        );
        return Ok(if row.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // Every workload, untraced then traced, into one results file.
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut time_to_tree = BTreeMap::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            println!(
                "{} ({}):",
                w.name,
                if traced { "traced" } else { "untraced" }
            );
            let row = run_workload(&ctx, &spec, w, args, traced, host_cores)?;
            row.print(&spec);
            attempted += row.attempted;
            failed += row.failures.len();
            if let Some((_, value, _)) = row.end_to_end.iter().find(|(n, ..)| n == "time_to_tree_s")
            {
                time_to_tree.insert(w.name, *value);
            }
            rows.push(row.to_json(&spec));
        }
    }
    // What one deployment path costs over another, from untraced medians.
    let t = |name: &str| time_to_tree.get(name).copied().unwrap_or(f64::NAN);
    let derived = vec![
        ("net.overhead_s", t("net101_inc") - t("threads101_inc"), "s"),
        (
            "core.speedup_vs_serial",
            t("serial50_full") / t("threads50_full"),
            "ratio",
        ),
    ];
    println!("across workloads:");
    for (name, value, unit) in &derived {
        println!("  {name:<38} {value:>14.6} {unit}");
    }
    let results = object(vec![
        ("provenance", provenance),
        ("rows", Value::Array(rows)),
        (
            "derived",
            Value::Object(
                derived
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            object(vec![("value", num(*v)), ("unit", text(u))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.clone().unwrap_or(out_dir.join("results.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    let summary = object(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", Value::Object(Vec::new())),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fdml-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
