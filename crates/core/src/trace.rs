//! Search traces: the record of every dispatch round, consumed by the
//! RS/6000 SP simulator (`fdml-simsp`) to replay the run at any processor
//! count.
//!
//! A *round* is one implicit barrier of the paper's algorithm: a batch of
//! candidate trees dispatched to workers, followed by the selection of the
//! best (the "loosely synchronized" barrier of §3.2). The trace records the
//! exact per-candidate work so the simulator reproduces both the round
//! structure and the between-tree variance.

use serde::{Deserialize, Serialize};

/// What kind of dispatch round this was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundKind {
    /// Step 3: adding a taxon at each possible place (`2i-5` candidates).
    TaxonAddition,
    /// Step 4: local rearrangements after an addition.
    Rearrangement,
    /// Step 5: the final, possibly more extensive rearrangement.
    FinalRearrangement,
}

/// One dispatch round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round kind.
    pub kind: RoundKind,
    /// Number of taxa in the candidate trees of this round.
    pub taxa_in_tree: usize,
    /// Work units of each candidate, in dispatch order. The variance here
    /// is what loosens the barrier.
    pub candidate_work: Vec<u64>,
    /// Work the master performs between rounds (commit of the winner,
    /// candidate generation) — the serial fraction of the program.
    pub master_work: u64,
    /// Did this round improve the tree? A fruitless rearrangement round is
    /// the case Ceron et al.'s *speculative* dispatch exploits (discussed
    /// in §3.2 of the paper); the simulator's speculative mode overlaps it
    /// with the following round. Defaults to `true` for traces recorded
    /// before this field existed (conservative: no speculation benefit).
    #[serde(default = "default_improved")]
    pub improved: bool,
}

fn default_improved() -> bool {
    true
}

/// A complete trace of one jumble's search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Dataset label (e.g. "synthetic-150").
    pub dataset: String,
    /// Taxa in the full problem.
    pub num_taxa: usize,
    /// Alignment length in sites.
    pub num_sites: usize,
    /// Unique patterns after compression.
    pub num_patterns: usize,
    /// The jumble seed used.
    pub jumble_seed: u64,
    /// Whether candidate work was measured under full per-tree evaluation
    /// (the worker protocol) or incremental scoring (see `fdml-simsp`'s
    /// cost model, which adds the fixed full-evaluation floor in the
    /// latter mode).
    pub full_evaluation: bool,
    /// Every dispatch round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Final log-likelihood.
    pub final_ln_likelihood: f64,
    /// Final tree (Newick).
    pub final_newick: String,
}

impl SearchTrace {
    /// Total number of candidate trees evaluated.
    pub fn total_candidates(&self) -> usize {
        self.rounds.iter().map(|r| r.candidate_work.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    impl SearchTrace {
        /// Total candidate (worker-side) work units across all rounds.
        pub(crate) fn total_worker_work(&self) -> u64 {
            self.rounds.iter().flat_map(|r| &r.candidate_work).sum()
        }

        /// Total master (serial) work units across all rounds.
        fn total_master_work(&self) -> u64 {
            self.rounds.iter().map(|r| r.master_work).sum()
        }
    }

    use super::*;

    fn sample() -> SearchTrace {
        SearchTrace {
            dataset: "test".into(),
            num_taxa: 5,
            num_sites: 100,
            num_patterns: 40,
            jumble_seed: 1,
            full_evaluation: false,
            rounds: vec![
                RoundRecord {
                    kind: RoundKind::TaxonAddition,
                    taxa_in_tree: 4,
                    candidate_work: vec![10, 20, 30],
                    master_work: 5,
                    improved: true,
                },
                RoundRecord {
                    kind: RoundKind::Rearrangement,
                    taxa_in_tree: 4,
                    candidate_work: vec![15, 25],
                    master_work: 7,
                    improved: false,
                },
            ],
            final_ln_likelihood: -100.0,
            final_newick: "(a,b,(c,d));".into(),
        }
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.total_worker_work(), 100);
        assert_eq!(t.total_master_work(), 12);
        assert_eq!(t.total_candidates(), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: SearchTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn missing_improved_field_defaults_true() {
        let json =
            r#"{"kind":"Rearrangement","taxa_in_tree":5,"candidate_work":[1],"master_work":0}"#;
        let r: RoundRecord = serde_json::from_str(json).unwrap();
        assert!(r.improved);
    }
}
