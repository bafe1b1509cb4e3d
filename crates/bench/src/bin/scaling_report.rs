//! Scaling study past the paper's 64-processor ceiling: the two-level
//! foreman tree with `fdml-wire` binary batching versus the flat
//! single-foreman, per-task-JSON design, from 4 to 4096 simulated ranks.
//! Writes `BENCH_scaling.json` — the extension of the paper's Figure 3/4
//! curves into territory the RS/6000 SP never reached.
//!
//! Usage: scaling_report [--quick] [--rounds N] [--round-size N] [--out PATH]
//!
//! Two gates are enforced (the process exits non-zero if either fails):
//!
//! 1. **Byte-identical at scale**: at 1024 ranks the hierarchical replay
//!    must complete exactly the task set the flat foreman completes, with
//!    the same total compute — the topology must be invisible in the
//!    result, mirroring the runtime's `cmp`-level guarantees.
//! 2. **Efficiency held**: per-rank efficiency (speedup ÷ processors) of
//!    the hierarchical topology at 1024 ranks must be within 20% of its
//!    64-rank figure, and at 4096 ranks the tree must beat the flat
//!    JSON-era design outright — master dispatch is no longer the
//!    bottleneck.

use fdml_bench::Args;
use fdml_core::trace::{RoundKind, RoundRecord, SearchTrace};
use fdml_obs::{Event, MemorySink, Obs};
use fdml_simsp::{
    binary_edit_task_bytes, simulate_trace, simulate_trace_hierarchical,
    simulate_trace_hierarchical_observed, simulate_trace_observed, CostModel, HierConfig,
    SimConfig, SimReport,
};
use serde::Serialize;
use std::collections::BTreeSet;

/// One scaling-curve point.
#[derive(Serialize)]
struct ScaleRow {
    topology: String,
    processors: usize,
    regions: usize,
    workers: usize,
    wall_seconds: f64,
    speedup: f64,
    /// Per-rank efficiency: speedup ÷ processors.
    efficiency: f64,
    utilization: f64,
}

#[derive(Serialize)]
struct EfficiencyGate {
    efficiency_64: f64,
    efficiency_1024: f64,
    ratio: f64,
    threshold: f64,
    pass: bool,
}

#[derive(Serialize)]
struct DispatchGate {
    flat_json_wall_4096: f64,
    hierarchical_wall_4096: f64,
    pass: bool,
}

#[derive(Serialize)]
struct ScaleSmoke {
    processors: usize,
    tasks: usize,
    identical_task_set: bool,
    identical_busy_seconds: bool,
    identical_final_ln_likelihood: bool,
}

#[derive(Serialize)]
struct ScalingReport {
    /// Measured wire bytes of one binary `TreeEditTask` frame.
    task_frame_bytes: usize,
    rounds: usize,
    round_size: usize,
    rows: Vec<ScaleRow>,
    efficiency_gate: EfficiencyGate,
    dispatch_gate: DispatchGate,
    smoke: ScaleSmoke,
}

/// Deterministic synthetic trace of a large analysis — rounds wide enough
/// (thousands of candidates) that a 4096-rank fleet has work for everyone,
/// with per-candidate variance shaped like the real searches.
fn scale_trace(rounds: usize, round_size: usize) -> SearchTrace {
    let rs = (0..rounds)
        .map(|r| RoundRecord {
            kind: RoundKind::Rearrangement,
            taxa_in_tree: 200,
            candidate_work: (0..round_size)
                .map(|j| 2_000_000 + ((r * 131 + j * 977) % 1_500_000) as u64)
                .collect(),
            master_work: 300_000,
            improved: true,
        })
        .collect();
    SearchTrace {
        dataset: "scale-synthetic".into(),
        num_taxa: 200,
        num_sites: 2000,
        num_patterns: 900,
        jumble_seed: 1,
        full_evaluation: true,
        rounds: rs,
        final_ln_likelihood: -250_000.0,
        final_newick: String::new(),
    }
}

/// Regions for a processor count: sized so no regional foreman owns more
/// than ~64 workers — the per-coordinator ceiling the paper established.
fn regions_for(processors: usize) -> usize {
    (processors - 3).div_ceil(65)
}

/// The flat design's cost at scale: the single foreman's link carries
/// every per-task JSON frame, so each dispatch occupies it for the frame's
/// wire time on top of the queueing overhead.
fn flat_json_cost() -> CostModel {
    let base = CostModel::power3_sp();
    let frame = base.tree_message_bytes(200);
    CostModel {
        foreman_overhead: base.foreman_overhead + frame as f64 / base.bandwidth,
        ..base
    }
}

fn row(topology: &str, regions: usize, r: &SimReport) -> ScaleRow {
    let workers = r.processors - 3 - regions;
    ScaleRow {
        topology: topology.into(),
        processors: r.processors,
        regions,
        workers,
        wall_seconds: r.wall_seconds,
        speedup: r.speedup(),
        efficiency: r.speedup() / r.processors as f64,
        utilization: r.utilization,
    }
}

/// Completed task ids and final likelihood from an event log.
fn outcome(events: &[fdml_obs::Record]) -> (BTreeSet<u64>, f64) {
    let mut tasks = BTreeSet::new();
    let mut lnl = f64::NAN;
    for rec in events {
        match rec.event {
            Event::TaskCompleted { task, .. } => {
                tasks.insert(task);
            }
            Event::RunFinished { ln_likelihood } => lnl = ln_likelihood,
            _ => {}
        }
    }
    (tasks, lnl)
}

fn main() {
    let args = Args::from_env();
    let quick = args.has_flag("quick");
    let rounds: usize = args.get("rounds", if quick { 3 } else { 12 });
    let round_size: usize = args.get("round-size", 8192);
    let out = args.get_str("out", "BENCH_scaling.json");
    let trace = scale_trace(rounds, round_size);
    let cost = CostModel::power3_sp();
    let cfg = |p: usize, c: &CostModel| SimConfig {
        processors: p,
        cost: c.clone(),
    };

    println!("Scaling past the paper's ceiling — {rounds} rounds × {round_size} candidates");
    println!(
        "binary task frame: {} B (vs ~{} B JSON whole-tree)\n",
        binary_edit_task_bytes(),
        cost.tree_message_bytes(200)
    );
    println!("topology      procs  regions      seconds    speedup  efficiency");
    let mut rows = Vec::new();
    let mut emit = |r: ScaleRow| {
        println!(
            "{:<12} {:>6} {:>8} {:>12.1} {:>10.1} {:>11.3}",
            r.topology, r.processors, r.regions, r.wall_seconds, r.speedup, r.efficiency
        );
        rows.push(r);
    };

    // The paper's range, flat topology, JSON-era frames (the baseline
    // curve of Figures 3/4).
    let json_cost = flat_json_cost();
    for p in [4usize, 8, 16, 32, 64] {
        emit(row(
            "flat-json",
            0,
            &simulate_trace(&trace, &cfg(p, &json_cost)),
        ));
    }
    // Past the ceiling: flat-json hits the dispatch wall...
    for p in [256usize, 1024, 4096] {
        emit(row(
            "flat-json",
            0,
            &simulate_trace(&trace, &cfg(p, &json_cost)),
        ));
    }
    // ...the foreman tree with binary batched frames does not.
    for p in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let regions = regions_for(p);
        let r = simulate_trace_hierarchical(&trace, &cfg(p, &cost), &HierConfig::binary(regions));
        emit(row("hierarchical", regions, &r));
    }

    // Gate 1: byte-identical replay at 1024 ranks.
    let flat_mem = MemorySink::new();
    let flat = simulate_trace_observed(
        &trace,
        &cfg(1024, &cost),
        &Obs::new(Box::new(flat_mem.clone())),
    );
    let hier_mem = MemorySink::new();
    let hier = simulate_trace_hierarchical_observed(
        &trace,
        &cfg(1024, &cost),
        &HierConfig::binary(regions_for(1024)),
        &Obs::new(Box::new(hier_mem.clone())),
    );
    let (flat_tasks, flat_lnl) = outcome(&flat_mem.take());
    let (hier_tasks, hier_lnl) = outcome(&hier_mem.take());
    let smoke = ScaleSmoke {
        processors: 1024,
        tasks: hier_tasks.len(),
        identical_task_set: hier_tasks == flat_tasks && hier_tasks.len() == rounds * round_size,
        identical_busy_seconds: (hier.worker_busy_seconds - flat.worker_busy_seconds).abs() < 1e-6,
        identical_final_ln_likelihood: hier_lnl == flat_lnl,
    };
    println!(
        "\nscale smoke @1024 ranks: {} tasks, task set identical: {}, compute identical: {}",
        smoke.tasks, smoke.identical_task_set, smoke.identical_busy_seconds
    );

    // Gate 2: efficiency held from 64 to 1024 ranks on the hierarchical
    // curve, and the tree beats flat-json outright at 4096.
    let eff = |p: usize| {
        rows.iter()
            .find(|r| r.topology == "hierarchical" && r.processors == p)
            .expect("hierarchical row present")
            .efficiency
    };
    let wall = |topo: &str, p: usize| {
        rows.iter()
            .find(|r| r.topology == topo && r.processors == p)
            .expect("row present")
            .wall_seconds
    };
    let efficiency_gate = EfficiencyGate {
        efficiency_64: eff(64),
        efficiency_1024: eff(1024),
        ratio: eff(1024) / eff(64),
        threshold: 0.8,
        pass: eff(1024) >= 0.8 * eff(64),
    };
    let dispatch_gate = DispatchGate {
        flat_json_wall_4096: wall("flat-json", 4096),
        hierarchical_wall_4096: wall("hierarchical", 4096),
        pass: wall("hierarchical", 4096) < wall("flat-json", 4096),
    };
    println!(
        "efficiency: 64 ranks {:.3} → 1024 ranks {:.3} (ratio {:.3}, gate ≥ 0.8)",
        efficiency_gate.efficiency_64, efficiency_gate.efficiency_1024, efficiency_gate.ratio
    );
    println!(
        "4096 ranks: hierarchical {:.1}s vs flat-json {:.1}s",
        dispatch_gate.hierarchical_wall_4096, dispatch_gate.flat_json_wall_4096
    );

    let report = ScalingReport {
        task_frame_bytes: binary_edit_task_bytes(),
        rounds,
        round_size,
        rows,
        efficiency_gate,
        dispatch_gate,
        smoke,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("report serializes") + "\n",
    )
    .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    assert!(
        report.smoke.identical_task_set
            && report.smoke.identical_busy_seconds
            && report.smoke.identical_final_ln_likelihood,
        "hierarchical replay diverged from flat at 1024 ranks"
    );
    assert!(
        report.efficiency_gate.pass,
        "per-rank efficiency at 1024 ranks fell more than 20% below the 64-rank figure: {:.3} vs {:.3}",
        report.efficiency_gate.efficiency_1024, report.efficiency_gate.efficiency_64
    );
    assert!(
        report.dispatch_gate.pass,
        "flat-json outran the foreman tree at 4096 ranks"
    );
}
