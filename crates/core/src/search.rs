//! The fastDNAml search driver: stepwise addition with rearrangement
//! (paper §2, steps 1–5), independent of how rounds are evaluated.

use crate::config::SearchConfig;
use crate::executor::{CandidateScore, RoundExecutor};
use crate::jumble::jumble_order;
use crate::trace::{RoundKind, RoundRecord, SearchTrace};
use crate::wal::{WalMove, WalPhase, WalRound, NUMERICS_EPOCH, REPLAY_TOLERANCE};
use fdml_phylo::error::PhyloError;
use fdml_phylo::newick;
use fdml_phylo::ops::{enumerate_insertion_moves, enumerate_spr_moves, TreeMove};
use fdml_phylo::tree::Tree;
use std::collections::VecDeque;

/// Information passed to the per-round observer (the real-time viewer hook:
/// the paper's monitor application watches the best tree of each iteration).
#[derive(Debug)]
pub struct RoundInfo<'a> {
    /// Kind of the round just completed.
    pub kind: RoundKind,
    /// Ordinal of the round within the search.
    pub round: usize,
    /// Number of candidates evaluated.
    pub candidates: usize,
    /// Best log-likelihood after the round.
    pub ln_likelihood: f64,
    /// Current best tree.
    pub tree: &'a Tree,
}

/// The result of one jumble's search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best tree found, branch lengths optimized.
    pub tree: Tree,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Dispatch rounds executed.
    pub rounds: usize,
    /// Candidate trees evaluated.
    pub candidates_evaluated: usize,
    /// Total work units across candidates and base maintenance.
    pub work_units: u64,
    /// Rounds replayed from a write-ahead log instead of scored live.
    pub wal_replayed_rounds: usize,
    /// The dispatch-round trace, when the search recorded one
    /// ([`StepwiseSearch::with_trace`]).
    pub trace: Option<SearchTrace>,
}

/// The stepwise-addition search, generic over the round executor.
pub struct StepwiseSearch<'c, E: RoundExecutor> {
    config: &'c SearchConfig,
    executor: E,
    num_taxa: usize,
    names: Vec<String>,
    trace: Option<SearchTrace>,
    #[allow(clippy::type_complexity)]
    on_round: Option<Box<dyn FnMut(&RoundInfo<'_>) + Send + 'c>>,
    // Deliberately not `Send`: the WAL sink often captures a borrowed
    // transport, and searches are constructed and run on one thread.
    #[allow(clippy::type_complexity)]
    on_wal: Option<Box<dyn FnMut(&WalRound) + 'c>>,
    replay: VecDeque<WalRound>,
    replay_numerics: u32,
    wal_index: u64,
    wal_replayed: usize,
    rounds: usize,
    candidates: usize,
    work_units: u64,
}

impl<'c, E: RoundExecutor> StepwiseSearch<'c, E> {
    /// Create a search over `num_taxa` taxa.
    pub fn new(config: &'c SearchConfig, executor: E, num_taxa: usize) -> StepwiseSearch<'c, E> {
        StepwiseSearch {
            config,
            executor,
            num_taxa,
            names: (0..num_taxa).map(|i| format!("taxon{i}")).collect(),
            trace: None,
            on_round: None,
            on_wal: None,
            replay: VecDeque::new(),
            replay_numerics: NUMERICS_EPOCH,
            wal_index: 0,
            wal_replayed: 0,
            rounds: 0,
            candidates: 0,
            work_units: 0,
        }
    }

    /// Provide taxon names (used in traces and observer output).
    pub fn with_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.num_taxa);
        self.names = names;
        self
    }

    /// Record a trace for the simulator, returned in [`SearchResult::trace`].
    pub fn with_trace(
        mut self,
        dataset: &str,
        num_sites: usize,
        num_patterns: usize,
        full_evaluation: bool,
    ) -> Self {
        self.trace = Some(SearchTrace {
            dataset: dataset.to_string(),
            num_taxa: self.num_taxa,
            num_sites,
            num_patterns,
            jumble_seed: self.config.jumble_seed,
            full_evaluation,
            rounds: Vec::new(),
            final_ln_likelihood: 0.0,
            final_newick: String::new(),
        });
        self
    }

    /// Set a per-round observer.
    pub fn on_round(mut self, f: impl FnMut(&RoundInfo<'_>) + Send + 'c) -> Self {
        self.on_round = Some(Box::new(f));
        self
    }

    /// Receive a [`WalRound`] after every committed round (append it to
    /// the write-ahead log, or stream it to the coordinator). Replayed
    /// rounds are not re-emitted; the first emitted record carries the
    /// index after the replayed prefix.
    pub fn on_wal(mut self, f: impl FnMut(&WalRound) + 'c) -> Self {
        self.on_wal = Some(Box::new(f));
        self
    }

    /// Resume by replaying committed rounds from a write-ahead log
    /// instead of re-scoring them: each replayed round re-commits the move
    /// the original run adopted (and nothing for a round that adopted
    /// none), skipping candidate scoring and failed verifications
    /// entirely, so the resumed search is bit-identical to the
    /// uninterrupted one.
    pub fn resume_from_wal(mut self, rounds: Vec<WalRound>) -> Self {
        self.wal_index = rounds.len() as u64;
        self.replay = rounds.into();
        self
    }

    /// The [`NUMERICS_EPOCH`] the [`resume_from_wal`](Self::resume_from_wal)
    /// rounds were computed under (default: this build's). Under another
    /// epoch the replay commits the same moves and the divergence guard
    /// allows [`REPLAY_TOLERANCE`] relative: the same trajectory, not the
    /// same bits.
    pub fn replay_epoch(mut self, numerics: u32) -> Self {
        self.replay_numerics = numerics;
        self
    }

    /// Consume the search, returning the executor (e.g. for an orderly
    /// cluster shutdown).
    pub fn into_executor(self) -> E {
        self.executor
    }

    /// Run the search: steps 1–5 of the paper.
    pub fn run(&mut self) -> Result<SearchResult, PhyloError> {
        if self.num_taxa < 2 {
            return Err(PhyloError::InvalidTreeOp("need at least two taxa".into()));
        }
        // Step 1: random addition order; step 2: the initial tree.
        let order = jumble_order(self.num_taxa, self.config.jumble_seed);
        let initial = if self.num_taxa == 2 {
            Tree::pair(order[0], order[1])
        } else {
            Tree::triplet(order[0], order[1], order[2])
        };
        let base = self.executor.set_base(initial)?;
        self.work_units += base.work_units;
        let mut tree = base.tree;
        let mut lnl = base.ln_likelihood;

        // Step 3 + 4: add each remaining taxon, then rearrange locally.
        for (idx, &taxon) in order.iter().enumerate().skip(3) {
            if let Some(rec) = self.pop_replay(WalPhase::Addition) {
                // Replay the committed insertion without scoring the
                // round: the WAL already decided it.
                let mv = rec.tried.first().copied().ok_or_else(|| {
                    PhyloError::InvalidTreeOp("wal addition record with no move".into())
                })?;
                let committed = self.executor.commit(&mv.to_move())?;
                self.check_replay_lnl(&rec, committed.ln_likelihood)?;
                self.record_round(
                    RoundKind::TaxonAddition,
                    idx + 1,
                    &[],
                    committed.work_units,
                    true,
                );
                self.wal_replayed += 1;
                tree = committed.tree;
                lnl = committed.ln_likelihood;
                self.work_units += committed.work_units;
                self.notify(RoundKind::TaxonAddition, 0, lnl, &tree);
            } else {
                let moves = enumerate_insertion_moves(&tree, taxon);
                let scores = self.executor.score_round(&moves)?;
                let best = argmax(&scores);
                let committed = self.executor.commit(&moves[best])?;
                self.record_round(
                    RoundKind::TaxonAddition,
                    idx + 1,
                    &scores,
                    committed.work_units,
                    true,
                );
                tree = committed.tree;
                lnl = committed.ln_likelihood;
                self.work_units += committed.work_units;
                self.emit_wal(
                    WalPhase::Addition,
                    vec![WalMove::from_move(&moves[best])],
                    true,
                    lnl,
                )?;
                self.notify(RoundKind::TaxonAddition, scores.len(), lnl, &tree);
            }

            // Step 4: local rearrangements until no improvement.
            let (t2, l2) = self.rearrange_to_convergence(
                tree,
                lnl,
                self.config.rearrange_radius,
                RoundKind::Rearrangement,
            )?;
            tree = t2;
            lnl = l2;
        }

        // Step 5: final rearrangement (possibly more extensive). When the
        // radius equals the step-4 radius the last step-4 loop has already
        // dispatched the confirming no-improvement round, matching the
        // paper's behaviour without duplicate work.
        if self.num_taxa > 3 && self.config.final_radius != self.config.rearrange_radius {
            let (t2, l2) = self.rearrange_to_convergence(
                tree,
                lnl,
                self.config.final_radius,
                RoundKind::FinalRearrangement,
            )?;
            tree = t2;
            lnl = l2;
        }

        if !self.replay.is_empty() {
            return Err(PhyloError::InvalidTreeOp(format!(
                "search finished with {} unconsumed write-ahead log records \
                 (log from a different run?)",
                self.replay.len()
            )));
        }
        let mut trace = self.trace.take();
        if let Some(trace) = &mut trace {
            trace.final_ln_likelihood = lnl;
            trace.final_newick = newick::write_tree(&tree, &self.names);
        }
        Ok(SearchResult {
            tree,
            ln_likelihood: lnl,
            rounds: self.rounds,
            candidates_evaluated: self.candidates,
            work_units: self.work_units,
            wal_replayed_rounds: self.wal_replayed,
            trace,
        })
    }

    /// Rearrangement loop: dispatch the radius-limited SPR neighbourhood,
    /// adopt the first verified improvement, repeat until a round yields
    /// none (that final fruitless round is real dispatched work, as in the
    /// paper). The executor's base changes only when a round adopts: a
    /// fruitless round leaves it — and `tree` — exactly as they were.
    fn rearrange_to_convergence(
        &mut self,
        mut tree: Tree,
        mut lnl: f64,
        radius: usize,
        kind: RoundKind,
    ) -> Result<(Tree, f64), PhyloError> {
        if radius == 0 {
            return Ok((tree, lnl));
        }
        let phase = match kind {
            RoundKind::FinalRearrangement => WalPhase::Final,
            _ => WalPhase::Rearrange,
        };
        for _ in 0..self.config.max_rearrange_rounds {
            if let Some(rec) = self.pop_replay(phase) {
                // The log already decided the round: an accepted record is
                // the commit of its last verified move, a rejected one
                // changed nothing.
                let mut verify_work = 0u64;
                if rec.accepted {
                    let mv = rec.tried.last().ok_or_else(|| {
                        PhyloError::InvalidTreeOp("wal accepted record with no move".into())
                    })?;
                    let committed = self.executor.commit(&mv.to_move())?;
                    verify_work = committed.work_units;
                    tree = committed.tree;
                    lnl = committed.ln_likelihood;
                }
                self.check_replay_lnl(&rec, lnl)?;
                self.record_round(kind, tree.num_tips(), &[], verify_work, rec.accepted);
                self.wal_replayed += 1;
                self.work_units += verify_work;
                self.notify(kind, 0, lnl, &tree);
                if rec.accepted {
                    continue;
                }
                break;
            }
            let moves = enumerate_spr_moves(&tree, radius);
            if moves.is_empty() {
                break;
            }
            let scores = self.executor.score_round(&moves)?;
            // Leading candidates receive the full treatment in descending
            // score order ("it is then tested more carefully", §2.1): the
            // first verified improvement in that order is kept; candidates
            // scoring far below the current tree are not worth verifying.
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| {
                scores[b]
                    .ln_likelihood
                    .total_cmp(&scores[a].ln_likelihood)
                    .then(a.cmp(&b))
            });
            let eligible: Vec<TreeMove> = order
                .into_iter()
                .take(self.config.max_verify_per_round)
                .take_while(|&i| scores[i].ln_likelihood > lnl - self.config.verify_slack)
                .map(|i| moves[i])
                .collect();
            // One call verifies them in rank order and stops at the first
            // improver, whose outcome is adopted exactly as verified; how
            // many the executor had in flight changes nothing returned.
            let bar = lnl + self.config.min_improvement;
            let verified = self.executor.verify(&eligible, bar)?;
            let tried: Vec<WalMove> = eligible[..verified.len()]
                .iter()
                .map(WalMove::from_move)
                .collect();
            let mut verify_work: u64 = verified.iter().map(|v| v.work_units).sum();
            let improver = verified
                .into_iter()
                .last()
                .filter(|v| v.ln_likelihood > bar);
            let accepted = improver.is_some();
            if let Some(improver) = improver {
                let adopted = self.executor.adopt(improver)?;
                verify_work += adopted.work_units;
                tree = adopted.tree;
                lnl = adopted.ln_likelihood;
            }
            self.record_round(kind, tree.num_tips(), &scores, verify_work, accepted);
            self.work_units += verify_work;
            self.emit_wal(phase, tried, accepted, lnl)?;
            self.notify(kind, scores.len(), lnl, &tree);
            if !accepted {
                break;
            }
        }
        Ok((tree, lnl))
    }

    /// Pop the next replay record if it belongs to `phase`; a different
    /// phase at the head means the replayed prefix has moved on (e.g. a
    /// convergence loop that ended without a fruitless round).
    fn pop_replay(&mut self, phase: WalPhase) -> Option<WalRound> {
        match self.replay.front() {
            Some(r) if r.phase == phase => self.replay.pop_front(),
            _ => None,
        }
    }

    /// Hand a freshly committed round to the WAL sink. Emitting while
    /// unconsumed replay records remain means the live search diverged
    /// from the log (wrong config, wrong data): abort rather than write a
    /// log that contradicts its own prefix.
    fn emit_wal(
        &mut self,
        phase: WalPhase,
        tried: Vec<WalMove>,
        accepted: bool,
        lnl: f64,
    ) -> Result<(), PhyloError> {
        if self.on_wal.is_none() && self.replay.is_empty() {
            return Ok(());
        }
        if !self.replay.is_empty() {
            return Err(PhyloError::InvalidTreeOp(format!(
                "search diverged from write-ahead log: scored a live {phase:?} round while {} \
                 replay records remain (log from a different run?)",
                self.replay.len()
            )));
        }
        let rec = WalRound {
            index: self.wal_index,
            phase,
            tried,
            accepted,
            lnl_bits: lnl.to_bits(),
        };
        self.wal_index += 1;
        if let Some(f) = &mut self.on_wal {
            f(&rec);
        }
        Ok(())
    }

    /// The replay divergence guard: a replayed round must reproduce the
    /// recorded log-likelihood — bit for bit within an epoch, within
    /// [`REPLAY_TOLERANCE`] across epochs — or the log does not belong to
    /// this (config, data, seed), or its move no longer applies, and
    /// resuming would silently drift.
    fn check_replay_lnl(&self, rec: &WalRound, lnl: f64) -> Result<(), PhyloError> {
        let logged = f64::from_bits(rec.lnl_bits);
        let agrees = if self.replay_numerics == NUMERICS_EPOCH {
            lnl.to_bits() == rec.lnl_bits
        } else {
            (lnl - logged).abs() <= REPLAY_TOLERANCE * logged.abs()
        };
        if !agrees {
            return Err(PhyloError::InvalidTreeOp(format!(
                "write-ahead log divergence at round {}: replay reached lnl {lnl} but the log \
                 recorded {logged} (log from a different run?)",
                rec.index
            )));
        }
        Ok(())
    }

    fn record_round(
        &mut self,
        kind: RoundKind,
        taxa_in_tree: usize,
        scores: &[CandidateScore],
        commit_work: u64,
        improved: bool,
    ) {
        self.rounds += 1;
        self.candidates += scores.len();
        for s in scores {
            self.work_units += s.work_units;
        }
        if let Some(trace) = &mut self.trace {
            trace.rounds.push(RoundRecord {
                kind,
                taxa_in_tree,
                candidate_work: scores.iter().map(|s| s.work_units).collect(),
                master_work: commit_work,
                improved,
            });
        }
    }

    fn notify(&mut self, kind: RoundKind, candidates: usize, lnl: f64, tree: &Tree) {
        if let Some(f) = &mut self.on_round {
            f(&RoundInfo {
                kind,
                round: self.rounds,
                candidates,
                ln_likelihood: lnl,
                tree,
            });
        }
    }
}

/// First index achieving the maximum log-likelihood: the deterministic
/// tie-break that makes serial and parallel runs agree regardless of
/// result arrival order.
pub fn argmax(scores: &[CandidateScore]) -> usize {
    assert!(!scores.is_empty(), "round with zero candidates");
    let mut best = 0;
    for (i, s) in scores.iter().enumerate().skip(1) {
        if s.ln_likelihood > scores[best].ln_likelihood {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::ClusterExecutor;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::bipartition::SplitSet;

    /// Six taxa with clean signal for topology ((t0,t1),(t2,t3),(t4,t5)).
    fn alignment() -> Alignment {
        Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT"),
            ("t2", "ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT"),
            ("t3", "ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT"),
            ("t4", "TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA"),
            ("t5", "TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA"),
        ])
        .unwrap()
    }

    #[test]
    fn recovers_generating_topology() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 3,
            rearrange_radius: 2,
            final_radius: 2,
            ..Default::default()
        };
        let ex = ClusterExecutor::in_process(&a, &config);
        let mut search = StepwiseSearch::new(&config, ex, 6);
        let result = search.run().unwrap();
        result.tree.check_valid().unwrap();
        assert_eq!(result.tree.num_tips(), 6);
        let found = SplitSet::of_tree(&result.tree, 6);
        // Expected topology contains splits {0,1}, {4,5} (and {2,3} via
        // complement structure).
        let expect_01 = fdml_phylo::bipartition::Bipartition::from_side(&[0, 1], 6);
        let expect_45 = fdml_phylo::bipartition::Bipartition::from_side(&[4, 5], 6);
        assert!(
            found.splits().contains(&expect_01),
            "missing (t0,t1): {found:?}"
        );
        assert!(
            found.splits().contains(&expect_45),
            "missing (t4,t5): {found:?}"
        );
    }

    #[test]
    fn scorer_and_full_eval_find_same_tree_with_enough_radius() {
        // With radius 1 the two modes may legitimately diverge: the scorer
        // accepts the *approximate* insertion point (paper §2.1, "a rapid
        // approximation of the insertion point is used, since it is then
        // tested more carefully for the effects of rearrangement"), and a
        // one-vertex rearrangement cannot always repair a misplacement.
        // With radius 2 the rearrangements do repair it here.
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 7,
            rearrange_radius: 2,
            final_radius: 2,
            ..Default::default()
        };
        let edit_scored = SearchConfig {
            incremental: true,
            ..config.clone()
        };
        let full = ClusterExecutor::in_process(&a, &config);
        let fast = ClusterExecutor::in_process(&a, &edit_scored);
        let r_full = StepwiseSearch::new(&config, full, 6).run().unwrap();
        let r_fast = StepwiseSearch::new(&config, fast, 6).run().unwrap();
        // The two modes converge to likelihood-equivalent optima. (On this
        // dataset two topologies differing by an NNI across a zero-length
        // branch are exactly co-optimal, so split sets may differ by one
        // split; the likelihoods agree to ~1e-8.)
        assert!(
            (r_full.ln_likelihood - r_fast.ln_likelihood).abs() < 1e-4,
            "full {} vs fast {}",
            r_full.ln_likelihood,
            r_fast.ln_likelihood
        );
        let rf =
            SplitSet::of_tree(&r_full.tree, 6).robinson_foulds(&SplitSet::of_tree(&r_fast.tree, 6));
        assert!(
            rf <= 2,
            "topologies differ by more than one split: RF = {rf}"
        );
    }

    #[test]
    fn different_jumbles_still_converge_on_strong_signal() {
        let a = alignment();
        let mut trees = Vec::new();
        for seed in [1u64, 5, 9] {
            let config = SearchConfig {
                jumble_seed: seed,
                rearrange_radius: 2,
                final_radius: 2,
                ..Default::default()
            };
            let ex = ClusterExecutor::in_process(&a, &config);
            let r = StepwiseSearch::new(&config, ex, 6).run().unwrap();
            trees.push(SplitSet::of_tree(&r.tree, 6));
        }
        assert_eq!(trees[0], trees[1]);
        assert_eq!(trees[1], trees[2]);
    }

    #[test]
    fn trace_records_round_structure() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 1,
            rearrange_radius: 1,
            final_radius: 1,
            ..Default::default()
        };
        let ex = ClusterExecutor::in_process(&a, &config);
        let mut search = StepwiseSearch::new(&config, ex, 6)
            .with_names(a.names().to_vec())
            .with_trace("six", a.num_sites(), 0, true);
        let result = search.run().unwrap();
        let trace = result.trace.clone().unwrap();
        assert_eq!(trace.num_taxa, 6);
        assert_eq!(trace.final_ln_likelihood, result.ln_likelihood);
        assert!(!trace.final_newick.is_empty());
        assert_eq!(trace.total_candidates(), result.candidates_evaluated);
        // Addition rounds: taxa 4, 5, 6 → candidate counts 2i-5 = 3, 5, 7.
        let additions: Vec<usize> = trace
            .rounds
            .iter()
            .filter(|r| r.kind == RoundKind::TaxonAddition)
            .map(|r| r.candidate_work.len())
            .collect();
        assert_eq!(additions, vec![3, 5, 7]);
        // Every addition is followed by at least one rearrangement round
        // (the confirming no-improvement round at minimum).
        assert!(
            trace
                .rounds
                .iter()
                .filter(|r| r.kind == RoundKind::Rearrangement)
                .count()
                >= 3
        );
    }

    #[test]
    fn observer_sees_monotone_likelihood() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 2,
            ..Default::default()
        };
        let ex = ClusterExecutor::in_process(&a, &config);
        let mut lnls: Vec<f64> = Vec::new();
        {
            let mut search = StepwiseSearch::new(&config, ex, 6).on_round(|info| {
                lnls.push(info.ln_likelihood);
            });
            search.run().unwrap();
        }
        assert!(!lnls.is_empty());
        // Within a fixed taxon count the likelihood never decreases;
        // adding a taxon may lower it (more data), so compare only within
        // stretches between additions. Simplest check: the last value is
        // the global best for the final taxon set.
        let last = *lnls.last().unwrap();
        assert!(last.is_finite());
    }

    #[test]
    fn two_and_three_taxon_problems() {
        let a = Alignment::from_strings(&[("a", "ACGT"), ("b", "ACGA"), ("c", "AGGA")]).unwrap();
        let config = SearchConfig::default();
        let ex = ClusterExecutor::in_process(&a, &config);
        let r = StepwiseSearch::new(&config, ex, 3).run().unwrap();
        assert_eq!(r.tree.num_tips(), 3);
        let a2 = Alignment::from_strings(&[("a", "ACGT"), ("b", "ACGA")]).unwrap();
        let ex2 = ClusterExecutor::in_process(&a2, &config);
        let r2 = StepwiseSearch::new(&config, ex2, 2).run().unwrap();
        assert_eq!(r2.tree.num_tips(), 2);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        let scores = vec![
            CandidateScore {
                ln_likelihood: -5.0,
                work_units: 1,
            },
            CandidateScore {
                ln_likelihood: -3.0,
                work_units: 1,
            },
            CandidateScore {
                ln_likelihood: -3.0,
                work_units: 1,
            },
        ];
        assert_eq!(argmax(&scores), 1);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::master::ClusterExecutor;
    use fdml_phylo::alignment::Alignment;

    fn alignment() -> Alignment {
        Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT"),
            ("t2", "ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT"),
            ("t3", "ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT"),
            ("t4", "TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA"),
            ("t5", "TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA"),
            ("t6", "TCGAACGGACGTACGTAAGTACGTTCCTACGGAGGAACGC"),
        ])
        .unwrap()
    }

    #[test]
    fn the_log_holds_one_addition_per_taxon_beyond_the_triplet() {
        // The round log is the checkpoint: the taxa placed are the count
        // of its Addition records.
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 5,
            ..Default::default()
        };
        let ex = ClusterExecutor::in_process(&a, &config);
        let mut wal: Vec<WalRound> = Vec::new();
        StepwiseSearch::new(&config, ex, 7)
            .with_names(a.names().to_vec())
            .on_wal(|rec| wal.push(rec.clone()))
            .run()
            .unwrap();
        let additions: Vec<&WalRound> = wal
            .iter()
            .filter(|r| r.phase == WalPhase::Addition)
            .collect();
        assert_eq!(additions.len(), 4, "taxa 4..=7");
        assert!(additions.iter().all(|r| r.accepted && r.tried.len() == 1));
    }

    #[test]
    fn wal_replay_of_every_prefix_is_bit_identical() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 9,
            ..Default::default()
        };

        // Uninterrupted run, recording the WAL.
        let mut wal: Vec<crate::wal::WalRound> = Vec::new();
        let full = {
            let ex = ClusterExecutor::in_process(&a, &config);
            let mut search = StepwiseSearch::new(&config, ex, 7)
                .with_names(a.names().to_vec())
                .on_wal(|rec| wal.push(rec.clone()));
            search.run().unwrap()
        };
        assert!(
            wal.len() >= 8,
            "expected a multi-round WAL, got {}",
            wal.len()
        );
        let full_newick = fdml_phylo::newick::write_tree(&full.tree, a.names());

        // Resume from every prefix length, including 0 and the whole log.
        for k in 0..=wal.len() {
            let mut tail: Vec<crate::wal::WalRound> = Vec::new();
            let resumed = {
                let ex = ClusterExecutor::in_process(&a, &config);
                let mut search = StepwiseSearch::new(&config, ex, 7)
                    .with_names(a.names().to_vec())
                    .resume_from_wal(wal[..k].to_vec())
                    .on_wal(|rec| tail.push(rec.clone()));
                search.run().unwrap()
            };
            assert_eq!(
                resumed.ln_likelihood.to_bits(),
                full.ln_likelihood.to_bits(),
                "prefix {k}: lnl diverged"
            );
            assert_eq!(
                fdml_phylo::newick::write_tree(&resumed.tree, a.names()),
                full_newick,
                "prefix {k}: tree diverged"
            );
            assert_eq!(resumed.wal_replayed_rounds, k, "prefix {k}: replay count");
            // The records emitted after the replayed prefix are exactly
            // the suffix of the original log.
            assert_eq!(tail, wal[k..].to_vec(), "prefix {k}: emitted suffix");
            // Scoring was actually skipped for the replayed rounds.
            if k > 0 {
                assert!(
                    resumed.candidates_evaluated < full.candidates_evaluated,
                    "prefix {k}: no scoring saved"
                );
            }
        }
    }

    #[test]
    fn wal_from_a_different_run_is_rejected() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 9,
            ..Default::default()
        };
        let mut wal: Vec<crate::wal::WalRound> = Vec::new();
        {
            let ex = ClusterExecutor::in_process(&a, &config);
            StepwiseSearch::new(&config, ex, 7)
                .with_names(a.names().to_vec())
                .on_wal(|rec| wal.push(rec.clone()))
                .run()
                .unwrap();
        }
        // Corrupt the recorded likelihood of a replayed round: resume
        // must fail loudly, not drift.
        wal[1].lnl_bits ^= 1;
        let ex = ClusterExecutor::in_process(&a, &config);
        let err = StepwiseSearch::new(&config, ex, 7)
            .with_names(a.names().to_vec())
            .resume_from_wal(wal.clone())
            .run()
            .unwrap_err();
        assert!(
            format!("{err:?}").contains("divergence"),
            "unexpected error: {err:?}"
        );
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::executor::{BaseOutcome, ExecutorError, Verified};
    use crate::loopback::Counting;
    use crate::master::ClusterExecutor;
    use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::TreeMove;

    /// One executor call, as the driver issued it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        SetBase,
        Score,
        /// A verification that returned this many outcomes.
        Verify(usize),
        Adopt,
    }

    /// Wraps an executor and logs the driver's call stream.
    struct Probe<E> {
        inner: E,
        names: Vec<String>,
        calls: Vec<Call>,
    }

    impl<E: RoundExecutor> Probe<E> {
        fn new(inner: E, a: &Alignment) -> Probe<E> {
            Probe {
                inner,
                names: a.names().to_vec(),
                calls: Vec::new(),
            }
        }
    }

    impl<E: RoundExecutor> RoundExecutor for Probe<E> {
        fn set_base(&mut self, tree: Tree) -> Result<BaseOutcome, ExecutorError> {
            self.calls.push(Call::SetBase);
            self.inner.set_base(tree)
        }

        fn score_round(
            &mut self,
            moves: &[TreeMove],
        ) -> Result<Vec<CandidateScore>, ExecutorError> {
            self.calls.push(Call::Score);
            self.inner.score_round(moves)
        }

        fn verify(&mut self, moves: &[TreeMove], bar: f64) -> Result<Vec<Verified>, ExecutorError> {
            let verified = self.inner.verify(moves, bar)?;
            self.calls.push(Call::Verify(verified.len()));
            Ok(verified)
        }

        fn adopt(&mut self, verified: Verified) -> Result<BaseOutcome, ExecutorError> {
            self.calls.push(Call::Adopt);
            let (text, lnl) = (verified.newick.clone(), verified.ln_likelihood);
            let adopted = self.inner.adopt(verified)?;
            // In process, adopting is installing: not a branch moves.
            assert_eq!(newick::write_tree(&adopted.tree, &self.names), text);
            assert_eq!(adopted.ln_likelihood.to_bits(), lnl.to_bits());
            Ok(adopted)
        }
    }

    /// Noisy enough that rearrangement rounds both succeed and fail, and
    /// that the incremental ranking's leader is not always the improver.
    fn alignment() -> Alignment {
        let tree = yule_tree(14, 0.12, 0xA11CE);
        evolve(&tree, 90, &EvolutionConfig::default(), 0xBEEF, "t")
    }

    struct Run {
        newick: String,
        lnl_bits: u64,
        work_units: u64,
        wal: Vec<WalRound>,
        calls: Vec<Call>,
        /// Tasks the executor sent, verification past an improver included.
        tasks: usize,
    }

    /// The in-process executor, edit-scored, verifying through `window`,
    /// and a reader of the tasks it has sent.
    fn scorer(
        a: &Alignment,
        config: &SearchConfig,
        window: usize,
    ) -> (ClusterExecutor<Counting>, impl Fn() -> usize) {
        let edit_scored = SearchConfig {
            incremental: true,
            ..config.clone()
        };
        let (transport, tasks) = Counting::new();
        let ex = ClusterExecutor::over(transport, a, &edit_scored).with_window(window);
        (ex, tasks)
    }

    fn run_scorer(a: &Alignment, config: &SearchConfig, window: usize) -> Run {
        let (ex, tasks) = scorer(a, config, window);
        let mut run = finish(a, config, Probe::new(ex, a), Vec::new());
        run.tasks = tasks();
        run
    }

    fn finish<E: RoundExecutor>(
        a: &Alignment,
        config: &SearchConfig,
        ex: Probe<E>,
        replay: Vec<WalRound>,
    ) -> Run {
        let mut wal = Vec::new();
        let mut search = StepwiseSearch::new(config, ex, a.num_taxa())
            .with_names(a.names().to_vec())
            .resume_from_wal(replay)
            .on_wal(|rec| wal.push(rec.clone()));
        let result = search.run().unwrap();
        let calls = search.into_executor().calls;
        Run {
            newick: newick::write_tree(&result.tree, a.names()),
            lnl_bits: result.ln_likelihood.to_bits(),
            work_units: result.work_units,
            wal,
            calls,
            tasks: 0,
        }
    }

    /// Split the call stream into rounds: each starts at a `Score`.
    fn rounds(calls: &[Call]) -> Vec<&[Call]> {
        let starts: Vec<usize> = (0..calls.len())
            .filter(|&i| calls[i] == Call::Score)
            .collect();
        starts
            .iter()
            .enumerate()
            .map(|(n, &at)| &calls[at + 1..starts.get(n + 1).copied().unwrap_or(calls.len())])
            .collect()
    }

    #[test]
    fn fruitless_rounds_leave_the_base_alone_and_improvers_are_adopted_as_verified() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 11,
            ..Default::default()
        };
        let run = run_scorer(&a, &config, 1);
        // The only `set_base` of the whole search is the initial triplet:
        // nothing is ever reverted or restored.
        assert_eq!(run.calls[0], Call::SetBase);
        assert_eq!(run.calls.iter().filter(|&&c| c == Call::SetBase).count(), 1);
        let (mut fruitless, mut exhausted, mut improving) = (0, 0, 0);
        for round in rounds(&run.calls) {
            // A round is one verification, of at most the per-round cap.
            let Call::Verify(verified) = round[0] else {
                panic!("round did not start with a verification: {round:?}")
            };
            assert!(
                verified <= config.max_verify_per_round,
                "round verified {verified} trees: {round:?}"
            );
            match round[1..] {
                // A fruitless round verifies and does nothing else.
                [] => {
                    fruitless += 1;
                    exhausted += usize::from(verified == config.max_verify_per_round);
                }
                // The improver is adopted straight from its verification
                // (`Probe::adopt` checks: the same tree, bit for bit) and
                // ends the round.
                [Call::Adopt] => improving += 1,
                _ => panic!("round is not one verification and at most one adopt: {round:?}"),
            }
        }
        assert!(fruitless > 0 && exhausted > 0 && improving > 0);
    }

    #[test]
    fn the_verify_window_changes_nothing_but_the_tasks_sent() {
        let a = alignment();
        for seed in [1u64, 5, 7, 11] {
            let config = SearchConfig {
                jumble_seed: seed,
                ..Default::default()
            };
            let serial = run_scorer(&a, &config, 1);
            let mut sent = serial.tasks;
            for window in [2usize, 3, 8] {
                let wide = run_scorer(&a, &config, window);
                assert_eq!(wide.newick, serial.newick, "seed {seed} window {window}");
                assert_eq!(
                    wide.lnl_bits, serial.lnl_bits,
                    "seed {seed} window {window}"
                );
                // The WAL — `tried` lists included — and the work charged
                // stop at the adopted move, whatever else was in flight.
                assert_eq!(wide.wal, serial.wal, "seed {seed} window {window}");
                assert_eq!(
                    wide.work_units, serial.work_units,
                    "seed {seed} window {window}"
                );
                assert_eq!(wide.calls, serial.calls, "seed {seed} window {window}");
                // A wider window did send past improvers.
                assert!(
                    wide.tasks > sent,
                    "seed {seed}: window {window} sent no more"
                );
                sent = wide.tasks;
            }
        }
        // The whole-tree executor takes the same path, and its verification
        // is answered from the round's own outcomes: no window sends more.
        let config = SearchConfig {
            jumble_seed: 11,
            ..Default::default()
        };
        let full = |window| {
            let (transport, tasks) = Counting::new();
            let ex = ClusterExecutor::over(transport, &a, &config).with_window(window);
            let mut run = finish(&a, &config, Probe::new(ex, &a), Vec::new());
            run.tasks = tasks();
            run
        };
        let serial = full(1);
        for window in [2usize, 3, 8] {
            let wide = full(window);
            assert_eq!(wide.newick, serial.newick, "window {window}");
            assert_eq!(wide.lnl_bits, serial.lnl_bits, "window {window}");
            assert_eq!(wide.wal, serial.wal, "window {window}");
            assert_eq!(wide.work_units, serial.work_units, "window {window}");
            assert_eq!(wide.tasks, serial.tasks, "window {window}");
        }
    }

    #[test]
    fn wal_replay_commits_only_the_adopted_moves_at_any_window() {
        let a = alignment();
        let config = SearchConfig {
            jumble_seed: 11,
            ..Default::default()
        };
        const WINDOW: usize = 3;
        let full = run_scorer(&a, &config, WINDOW);
        // The log holds a round whose adopted move was not its first
        // candidate — later ranks were in flight when it was decided — and
        // rounds that adopted nothing.
        assert!(full.wal.iter().any(|r| r.accepted && r.tried.len() > 1));
        assert!(full.wal.iter().any(|r| !r.accepted && !r.tried.is_empty()));
        let adopted = full.wal.iter().filter(|r| r.accepted).count();

        for k in 0..=full.wal.len() {
            // Replay under a different window than the log was written at.
            let (ex, _) = scorer(&a, &config, 1);
            let resumed = finish(&a, &config, Probe::new(ex, &a), full.wal[..k].to_vec());
            assert_eq!(resumed.lnl_bits, full.lnl_bits, "prefix {k}");
            assert_eq!(resumed.newick, full.newick, "prefix {k}");
            assert_eq!(resumed.wal, full.wal[k..].to_vec(), "prefix {k}");
            if k == full.wal.len() {
                // A whole-log replay scores nothing and verifies exactly
                // the adopted moves: rejected records replay as nothing.
                assert!(!resumed.calls.contains(&Call::Score));
                let verified = resumed
                    .calls
                    .iter()
                    .filter(|c| matches!(c, Call::Verify(_)))
                    .count();
                assert_eq!(verified, adopted);
            }
        }
    }
}
