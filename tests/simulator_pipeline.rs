//! Integration of the search → trace → simulator pipeline: the properties
//! behind Figures 3 and 4 must emerge from a *real* recorded trace, not
//! just from synthetic ones.

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::runner::traced_in_process;
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::simsp::{scaling_table, simulate_trace, CostModel, SimConfig};

fn real_trace(taxa: usize, radius: usize) -> fastdnaml::core::trace::SearchTrace {
    let tree = yule_tree(taxa, 0.08, 61);
    let alignment = evolve(&tree, 300, &EvolutionConfig::default(), 7, "taxon");
    let config = SearchConfig {
        jumble_seed: 1,
        rearrange_radius: radius,
        final_radius: radius,
        incremental: true,
        ..SearchConfig::default()
    };
    traced_in_process(&alignment, &config, "itest")
        .expect("traced search")
        .trace
        .expect("trace requested")
}

#[test]
fn figure3_shape_from_a_real_trace() {
    let trace = real_trace(30, 3);
    let cost = CostModel::power3_sp();
    let rows = scaling_table(&[trace], &[1, 4, 8, 16, 32, 64], &cost);
    // Paper §3.2: P=4 slower than serial (one worker plus overhead).
    assert!(
        rows[1].mean_wall_seconds > rows[0].mean_wall_seconds,
        "P=4 ({}) must be slower than serial ({})",
        rows[1].mean_wall_seconds,
        rows[0].mean_wall_seconds
    );
    // Time decreases monotonically from 4 processors on.
    for w in rows[1..].windows(2) {
        assert!(
            w[1].mean_wall_seconds <= w[0].mean_wall_seconds * 1.0001,
            "{} → {} processors increased time",
            w[0].processors,
            w[1].processors
        );
    }
    // Speedups grow substantially from 16 to 64 (the paper's "quite good"
    // relative speedups): with 30 taxa the rounds are modest, so demand at
    // least a 2× relative gain.
    let s16 = rows
        .iter()
        .find(|r| r.processors == 16)
        .unwrap()
        .mean_speedup;
    let s64 = rows
        .iter()
        .find(|r| r.processors == 64)
        .unwrap()
        .mean_speedup;
    assert!(s64 / s16 > 2.0, "16→64 relative speedup {}", s64 / s16);
}

#[test]
fn larger_radius_improves_scalability() {
    // §3.2: radius 1 has less work between synchronizations → worse
    // scaling than radius 3 on the same data.
    let cost = CostModel::power3_sp();
    let t1 = real_trace(24, 1);
    let t3 = real_trace(24, 3);
    let s1 = scaling_table(&[t1], &[64], &cost)[0].mean_speedup;
    let s3 = scaling_table(&[t3], &[64], &cost)[0].mean_speedup;
    assert!(
        s3 > s1,
        "radius 3 speedup at 64 procs ({s3:.2}) must beat radius 1 ({s1:.2})"
    );
}

#[test]
fn falloff_when_workers_exceed_round_sizes() {
    let trace = real_trace(20, 1);
    // Radius-1 rounds on 20 taxa have ≤ ~37 candidates; past ~40 workers,
    // extra processors are idle.
    let cost = CostModel::power3_sp();
    let r64 = simulate_trace(
        &trace,
        &SimConfig {
            processors: 64,
            cost: cost.clone(),
        },
    );
    let r256 = simulate_trace(
        &trace,
        &SimConfig {
            processors: 256,
            cost: cost.clone(),
        },
    );
    let gain = r64.wall_seconds / r256.wall_seconds;
    assert!(
        gain < 1.1,
        "64 → 256 processors should gain almost nothing here, gained {gain:.3}×"
    );
    assert!(r256.utilization < r64.utilization);
}

#[test]
fn trace_work_matches_simulated_busy_time() {
    let trace = real_trace(16, 2);
    let cost = CostModel::power3_sp();
    let serial = simulate_trace(
        &trace,
        &SimConfig {
            processors: 1,
            cost: cost.clone(),
        },
    );
    let p8 = simulate_trace(
        &trace,
        &SimConfig {
            processors: 8,
            cost,
        },
    );
    // Worker busy time is invariant to the processor count (same work).
    assert!(
        (p8.worker_busy_seconds - serial.worker_busy_seconds).abs() / serial.worker_busy_seconds
            < 0.05,
        "busy {} vs serial {}",
        p8.worker_busy_seconds,
        serial.worker_busy_seconds
    );
}
