//! Benchmark-gated kernel performance report.
//!
//! The `kernel_report` binary times the gated likelihood workloads under
//! both [`fdml_likelihood::KernelMode`]s and emits `BENCH_kernels.json`:
//! mean wall time, pattern throughput, and the optimized-over-reference
//! speedup per workload. The reference kernels reproduce the seed
//! implementation (including its per-call allocations), so the speedup
//! column is an honest before/after for the kernel rewrite. CI runs the
//! binary with `--quick` as a smoke test; the checked-in report comes from
//! a full run.

use serde::Serialize;
use std::time::Instant;

/// One kernel mode's timing for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct ModeStats {
    /// Timed samples (after one untimed warmup).
    pub samples: usize,
    /// Mean wall time of one run, seconds.
    pub mean_seconds: f64,
    /// Fastest observed run, seconds.
    pub min_seconds: f64,
    /// Per-pattern kernel operations one run performs
    /// (`WorkCounter::total_pattern_updates`; identical across modes).
    pub pattern_updates: u64,
    /// `pattern_updates / mean_seconds`.
    pub patterns_per_sec: f64,
    /// `mean_seconds / pattern_updates`, in nanoseconds.
    pub ns_per_pattern: f64,
}

/// One workload's optimized-vs-reference comparison.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// Workload id, matching the Criterion bench names
    /// (e.g. `tree_evaluate/optimize/101`).
    pub name: String,
    /// Timing under the optimized kernels (the engine default).
    pub optimized: ModeStats,
    /// Timing under the scalar reference kernels (seed behavior).
    pub reference: ModeStats,
    /// `reference.mean_seconds / optimized.mean_seconds`.
    pub speedup: f64,
}

/// Cost of the write-ahead round log on the golden search: the same
/// stepwise search timed bare and with a [`fdml_core::wal`] session
/// appending (and `fdatasync`ing) every committed round, including log
/// creation and retirement, the two arms alternating run by run. The gated
/// number is the min-of-N wall ratio — the WAL's floor cost with scheduler
/// noise squeezed out.
#[derive(Debug, Clone, Serialize)]
pub struct WalOverheadReport {
    /// Workload id (e.g. `wal_overhead/golden_search/16`).
    pub name: String,
    /// Timed samples per arm (after one untimed warmup each).
    pub samples: usize,
    /// Committed rounds logged per search (one durable append each).
    pub rounds: u64,
    /// Final log size in bytes, magic header included.
    pub wal_bytes: u64,
    /// Mean wall time of the bare search, seconds.
    pub baseline_mean_seconds: f64,
    /// Fastest bare run, seconds.
    pub baseline_min_seconds: f64,
    /// Mean wall time with the WAL attached, seconds.
    pub wal_mean_seconds: f64,
    /// Fastest WAL run, seconds.
    pub wal_min_seconds: f64,
    /// `wal_min_seconds / baseline_min_seconds - 1` — the gated fraction.
    pub overhead: f64,
}

/// One Newton-objective microkernel row: the shipped kernel against the
/// scalar loop it replaced, on one pattern count, one evaluation after
/// another the way Newton issues them.
///
/// Times are nanoseconds per pattern-iteration from the fastest of
/// `samples` batches (the two arms alternate batch by batch, so drift of
/// the host hits both); `speedup` is their ratio. The full-mode gate is on
/// `newton_objective/142` alone.
#[derive(Debug, Clone, Serialize)]
pub struct ObjectiveReport {
    /// Row id: `newton_objective/N` (with `_half_weighted`, `_all_weighted`
    /// or `_4cat` before the slash for the other alignment shapes) or
    /// `w_terms/N`.
    pub name: String,
    /// Pattern count of one evaluation.
    pub patterns: usize,
    /// The active ISA lane (the W-term kernel dispatches on it; the
    /// objective is one portable loop).
    pub isa: String,
    /// Hardware threads the measuring host had.
    pub host_cores: usize,
    /// Timed batches per arm.
    pub samples: usize,
    /// Shipped kernel, ns per pattern-iteration.
    pub kernel_ns_per_pattern: f64,
    /// The scalar original, ns per pattern-iteration.
    pub scalar_ns_per_pattern: f64,
    /// `scalar_ns_per_pattern / kernel_ns_per_pattern`.
    pub speedup: f64,
}

/// `optimize` on the shape the search runs it on: a fully smoothed base
/// plus one insertion at default lengths, over every insertion edge of the
/// last taxon. Counts are exact (read off the `WorkCounter`); only
/// `ms_per_call` depends on the host. Report-only.
#[derive(Debug, Clone, Serialize)]
pub struct SmoothCandidateReport {
    /// Row id: `smooth_candidate/TAXA`.
    pub name: String,
    /// Compressed pattern count of the alignment.
    pub patterns: usize,
    /// The active ISA lane.
    pub isa: String,
    /// Hardware threads the measuring host had.
    pub host_cores: usize,
    /// Timed sweeps over all candidates.
    pub samples: usize,
    /// Candidates (`optimize` calls) per sweep.
    pub calls: usize,
    /// Mean wall time of one `optimize` call, milliseconds.
    pub ms_per_call: f64,
    /// Mean smoothing passes per call.
    pub mean_passes: f64,
    /// Share of calls that ran into `OptimizeOptions::max_passes`.
    pub capped_share: f64,
    /// Newton objective evaluations per branch visit.
    pub evals_per_visit: f64,
    /// Share of a pass's `down` recombines skipped because nothing below
    /// the edge moved.
    pub down_combines_skipped: f64,
}

/// The whole report, serialized to `BENCH_kernels.json`.
#[derive(Debug, Clone, Serialize)]
pub struct KernelReport {
    /// Tool that wrote the file.
    pub generated_by: String,
    /// True when produced by the `--quick` CI smoke configuration
    /// (smaller datasets, fewer samples — not for the gate).
    pub quick: bool,
    /// Per-workload comparisons.
    pub workloads: Vec<WorkloadReport>,
    /// Write-ahead-log overhead rows (empty before the WAL).
    #[serde(default)]
    pub wal_overhead: Vec<WalOverheadReport>,
    /// Newton-objective microkernel rows (empty before the two-phase
    /// objective).
    #[serde(default)]
    pub objective: Vec<ObjectiveReport>,
    /// Warm-start `optimize` rows (empty before smoothing skipped clean
    /// subtrees).
    #[serde(default)]
    pub smooth_candidate: Vec<SmoothCandidateReport>,
}

impl KernelReport {
    /// Pretty JSON for the report file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Times `run` (`samples` timed passes after one untimed warmup) and
/// derives throughput stats; `pattern_updates` is the per-run operation
/// count the workload reports.
pub fn measure(samples: usize, pattern_updates: u64, mut run: impl FnMut()) -> ModeStats {
    run(); // warmup: page in CLVs, warm caches, trigger lazy allocation
    let mut total = 0.0;
    let mut min = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        run();
        let dt = start.elapsed().as_secs_f64();
        total += dt;
        min = min.min(dt);
    }
    let mean = total / samples as f64;
    ModeStats {
        samples,
        mean_seconds: mean,
        min_seconds: min,
        pattern_updates,
        patterns_per_sec: pattern_updates as f64 / mean,
        ns_per_pattern: mean * 1e9 / pattern_updates.max(1) as f64,
    }
}

/// Combines two mode timings into a workload row.
pub fn compare(name: &str, optimized: ModeStats, reference: ModeStats) -> WorkloadReport {
    let speedup = reference.mean_seconds / optimized.mean_seconds;
    WorkloadReport {
        name: name.to_string(),
        optimized,
        reference,
        speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_and_rates() {
        let mut calls = 0u32;
        let stats = measure(5, 1000, || calls += 1);
        assert_eq!(calls, 6, "warmup + samples");
        assert_eq!(stats.samples, 5);
        assert!(stats.mean_seconds >= 0.0);
        assert!(stats.min_seconds <= stats.mean_seconds * (1.0 + 1e-9));
        assert!(stats.patterns_per_sec > 0.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let s = |mean: f64| ModeStats {
            samples: 3,
            mean_seconds: mean,
            min_seconds: mean,
            pattern_updates: 100,
            patterns_per_sec: 100.0 / mean,
            ns_per_pattern: mean * 1e9 / 100.0,
        };
        let report = KernelReport {
            generated_by: "fdml-bench kernel_report".into(),
            quick: false,
            workloads: vec![compare("w", s(1.0), s(2.0))],
            wal_overhead: vec![WalOverheadReport {
                name: "wal_overhead/golden_search/16".into(),
                samples: 3,
                rounds: 20,
                wal_bytes: 4000,
                baseline_mean_seconds: 1.0,
                baseline_min_seconds: 0.9,
                wal_mean_seconds: 1.01,
                wal_min_seconds: 0.91,
                overhead: 0.91 / 0.9 - 1.0,
            }],
            objective: vec![ObjectiveReport {
                name: "newton_objective/142".into(),
                patterns: 142,
                isa: "scalar".into(),
                host_cores: 1,
                samples: 3,
                kernel_ns_per_pattern: 2.0,
                scalar_ns_per_pattern: 5.0,
                speedup: 2.5,
            }],
            smooth_candidate: vec![SmoothCandidateReport {
                name: "smooth_candidate/50".into(),
                patterns: 142,
                isa: "scalar".into(),
                host_cores: 1,
                samples: 3,
                calls: 95,
                ms_per_call: 0.9,
                mean_passes: 5.9,
                capped_share: 0.16,
                evals_per_visit: 1.9,
                down_combines_skipped: 0.37,
            }],
        };
        assert!((report.workloads[0].speedup - 2.0).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"tree_evaluate\"") || json.contains("\"w\""));
        assert!(json.contains("\"wal_overhead\""));
        assert!(json.contains("\"overhead\""));
        assert!(json.contains("\"newton_objective/142\""));
        assert!(json.contains("\"scalar_ns_per_pattern\""));
        assert!(json.contains("\"down_combines_skipped\""));
    }
}
