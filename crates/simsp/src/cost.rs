//! The machine cost model: Power3+ compute rate and SP Switch2 messaging.

use fdml_core::trace::SearchTrace;
use serde::{Deserialize, Serialize};

/// Cost model of one simulated cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds one work unit takes on one processor. A work unit is ≈ 40
    /// floating-point operations (one CLV pattern update, see
    /// `fdml-likelihood::work`); a 375 MHz Power3+ sustains roughly 200
    /// Mflop/s on pointer-chasing likelihood code, giving ≈ 2×10⁻⁷ s.
    pub seconds_per_work_unit: f64,
    /// One-way message latency (SP Switch2 MPI latency ≈ 20 µs).
    pub message_latency: f64,
    /// Link bandwidth in bytes/second (≈ 350 MB/s sustained).
    pub bandwidth: f64,
    /// Time the foreman is occupied per dispatched message (serialization
    /// of the dispatch loop).
    pub foreman_overhead: f64,
    /// Time the master spends generating/serializing one candidate tree
    /// per taxon (Newick generation is linear in tree size).
    pub master_gen_per_taxon: f64,
    /// Smoothing passes assumed for the full-evaluation floor when the
    /// trace was recorded with incremental scoring.
    pub assumed_passes: usize,
}

impl CostModel {
    /// The RS/6000 SP model used for the paper reproduction.
    pub fn power3_sp() -> CostModel {
        CostModel {
            seconds_per_work_unit: 2.0e-7,
            message_latency: 20e-6,
            bandwidth: 350e6,
            foreman_overhead: 10e-6,
            master_gen_per_taxon: 1e-6,
            assumed_passes: 8,
        }
    }

    /// A model calibrated from a measured host rate: `ns_per_unit_host` is
    /// the benchmarked nanoseconds per work unit on the machine running the
    /// benches (see the `calibrate` bench), and `host_speedup_vs_power3` is
    /// how many times faster that host is than a 375 MHz Power3+.
    pub fn from_host_calibration(ns_per_unit_host: f64, host_speedup_vs_power3: f64) -> CostModel {
        CostModel {
            seconds_per_work_unit: ns_per_unit_host * 1e-9 * host_speedup_vs_power3,
            ..CostModel::power3_sp()
        }
    }

    /// Transfer time of one message of `bytes`.
    pub fn message_seconds(&self, bytes: usize) -> f64 {
        self.message_latency + bytes as f64 / self.bandwidth
    }

    /// Approximate size of a tree message for a tree on `taxa` taxa
    /// (Newick text ≈ 30 bytes per taxon plus framing).
    pub fn tree_message_bytes(&self, taxa: usize) -> usize {
        30 * taxa + 64
    }

    /// Work units of the *fixed* part of a full tree evaluation (CLV
    /// construction plus smoothing sweeps) for a tree on `taxa` taxa over
    /// `patterns` patterns. When a trace was recorded with incremental
    /// scoring, each candidate's worker cost is this floor plus the
    /// recorded variable units; traces recorded under full evaluation
    /// already include it.
    ///
    /// Derivation: 2E CLV updates to build both sweeps, and per pass and
    /// edge roughly one up-CLV update, one W-term pass, ~5 Newton
    /// pattern-iterations (≈2.5 units), and one down-CLV update — about 5.5
    /// units per pattern-edge-pass. `assumed_passes` defaults to the
    /// engine's default of 8, though convergence usually stops earlier;
    /// the calibration bench validates this against measurement.
    pub fn full_eval_floor_units(&self, taxa: usize, patterns: usize) -> u64 {
        let edges = (2 * taxa).saturating_sub(3) as u64;
        let np = patterns as u64;
        2 * edges * np + (self.assumed_passes as u64) * edges * np * 11 / 2
    }

    /// Worker compute seconds for one candidate in a given trace mode.
    pub fn candidate_seconds(
        &self,
        recorded_units: u64,
        taxa: usize,
        patterns: usize,
        full_evaluation: bool,
    ) -> f64 {
        let units = if full_evaluation {
            recorded_units
        } else {
            recorded_units + self.full_eval_floor_units(taxa, patterns)
        };
        units as f64 * self.seconds_per_work_unit
    }

    /// Total serial-program seconds for a trace: every candidate evaluated
    /// one after another on a single processor, plus the master-side work,
    /// with no messaging (the paper's conservative baseline).
    pub fn serial_seconds(&self, trace: &SearchTrace) -> f64 {
        let mut total = 0.0;
        for round in &trace.rounds {
            for &w in &round.candidate_work {
                total += self.candidate_seconds(
                    w,
                    round.taxa_in_tree,
                    trace.num_patterns,
                    trace.full_evaluation,
                );
            }
            total += round.master_work as f64 * self.seconds_per_work_unit;
            total += round.candidate_work.len() as f64
                * round.taxa_in_tree as f64
                * self.master_gen_per_taxon;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_core::trace::{RoundKind, RoundRecord};

    fn toy_trace(full: bool) -> SearchTrace {
        SearchTrace {
            dataset: "toy".into(),
            num_taxa: 10,
            num_sites: 100,
            num_patterns: 50,
            jumble_seed: 1,
            full_evaluation: full,
            rounds: vec![RoundRecord {
                kind: RoundKind::TaxonAddition,
                taxa_in_tree: 10,
                candidate_work: vec![1000, 2000, 3000],
                master_work: 500,
                improved: true,
            }],
            final_ln_likelihood: -1.0,
            final_newick: "(a,b);".into(),
        }
    }

    #[test]
    fn message_time_has_latency_floor() {
        let m = CostModel::power3_sp();
        assert!(m.message_seconds(0) >= 20e-6);
        assert!(m.message_seconds(350_000_000) > 1.0);
    }

    #[test]
    fn floor_grows_with_tree_and_patterns() {
        let m = CostModel::power3_sp();
        assert!(m.full_eval_floor_units(100, 500) > m.full_eval_floor_units(50, 500));
        assert!(m.full_eval_floor_units(50, 500) > m.full_eval_floor_units(50, 100));
    }

    #[test]
    fn scorer_mode_adds_floor() {
        let m = CostModel::power3_sp();
        let with_floor = m.candidate_seconds(1000, 10, 50, false);
        let without = m.candidate_seconds(1000, 10, 50, true);
        assert!(with_floor > without);
        let floor = m.full_eval_floor_units(10, 50) as f64 * m.seconds_per_work_unit;
        assert!((with_floor - without - floor).abs() < 1e-12);
    }

    #[test]
    fn serial_seconds_sum_all_rounds() {
        let m = CostModel::power3_sp();
        let t = toy_trace(true);
        let expected = (1000.0 + 2000.0 + 3000.0 + 500.0) * m.seconds_per_work_unit
            + 3.0 * 10.0 * m.master_gen_per_taxon;
        assert!((m.serial_seconds(&t) - expected).abs() < 1e-12);
    }

    #[test]
    fn calibration_constructor_scales() {
        let m = CostModel::from_host_calibration(10.0, 50.0);
        assert!((m.seconds_per_work_unit - 5e-7).abs() < 1e-15);
    }

    #[test]
    fn a_model_serialized_with_intra_threads_parses_the_same() {
        // Builds that modeled intra-rank threads wrote the key; it is
        // ignored now.
        let json = serde_json::to_string(&CostModel::power3_sp()).unwrap();
        let legacy = format!("{},\"intra_threads\":4}}", json.strip_suffix('}').unwrap());
        let back: CostModel = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
