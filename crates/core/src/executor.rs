//! The round-executor contract: how the search driver asks for a batch of
//! candidate trees to be evaluated.
//!
//! The search driver ([`crate::search::StepwiseSearch`]) is generic over
//! this trait, exactly as fastDNAml's algorithm code is independent of the
//! message-passing layer. There is one implementation,
//! [`crate::master::ClusterExecutor`]: candidates travel as tasks over a
//! [`fdml_comm::transport::Transport`], whether the other end is a fleet
//! of worker processes or the in-process [`crate::loopback::Loopback`] —
//! the paper's serial build, "the parallel program linked against a
//! sequential comm back end". The trait remains so the driver's tests can
//! interpose on the call stream.
//!
//! The executor separates *verifying* a move (fully optimize `base +
//! move`, base untouched) from *adopting* a verified tree as the new base
//! (no recomputation). The driver's rearrangement rounds verify the
//! leading candidates and adopt the first improver, so a fruitless round
//! never touches the base and nothing is ever reverted.

use fdml_phylo::error::PhyloError;
use fdml_phylo::ops::TreeMove;
use fdml_phylo::tree::Tree;
use std::fmt;

/// Errors an executor can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutorError {
    /// `score_round` or `commit` was called before `set_base` established a
    /// base tree.
    NoBase,
    /// A tree or likelihood operation failed.
    Phylo(PhyloError),
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::NoBase => {
                write!(f, "set_base must be called before scoring or committing")
            }
            ExecutorError::Phylo(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecutorError {}

impl From<PhyloError> for ExecutorError {
    fn from(e: PhyloError) -> ExecutorError {
        ExecutorError::Phylo(e)
    }
}

impl From<ExecutorError> for PhyloError {
    fn from(e: ExecutorError) -> PhyloError {
        match e {
            ExecutorError::NoBase => PhyloError::InvalidTreeOp(
                "set_base must be called before scoring or committing".into(),
            ),
            ExecutorError::Phylo(e) => e,
        }
    }
}

/// The score of one candidate in a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// Candidate log-likelihood (comparison key).
    pub ln_likelihood: f64,
    /// Work units the evaluation cost (trace/simulator input).
    pub work_units: u64,
}

/// Outcome of establishing or updating the base tree.
#[derive(Debug, Clone)]
pub struct BaseOutcome {
    /// The optimized base tree (arena-identical to what the executor will
    /// score against — the driver must enumerate moves on exactly this).
    pub tree: Tree,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Work units spent.
    pub work_units: u64,
}

/// A fully optimized `base + move` that has not been adopted: the tree
/// stays the Newick text its evaluator wrote. A round verifies many
/// candidates and adopts at most one, so only
/// [`adopt`](RoundExecutor::adopt) pays for a parse.
#[derive(Debug, Clone)]
pub struct Verified {
    /// The optimized tree as Newick text.
    pub newick: String,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Work units spent.
    pub work_units: u64,
}

/// Evaluation strategy for candidate rounds.
///
/// Calling [`RoundExecutor::score_round`], [`RoundExecutor::verify`] or
/// [`RoundExecutor::commit`] before [`RoundExecutor::set_base`] is a typed
/// error ([`ExecutorError::NoBase`]), not a panic.
pub trait RoundExecutor {
    /// Establish a new base tree, optimizing its branch lengths.
    fn set_base(&mut self, tree: Tree) -> Result<BaseOutcome, ExecutorError>;

    /// Score every move against the current base.
    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError>;

    /// Fully optimize `base + move` for the moves in order, up to and
    /// including the first whose log-likelihood is above `bar` — the
    /// round's improver — or all of them if none is. The base is
    /// untouched, and an outcome depends only on the base and its move —
    /// never on which other moves share the call.
    ///
    /// The returned prefix — and so a round's `tried` list, its WAL record
    /// and the work it charges — never depends on how many moves the
    /// executor had in flight: an outcome it computed past the improver is
    /// neither returned nor charged.
    ///
    /// An executor whose [`score_round`](Self::score_round) already fully
    /// optimized `base + move` (whole-tree scoring) may return that outcome
    /// instead of recomputing it, bit for bit the same, with `work_units`
    /// 0: its work was charged when it was scored.
    fn verify(&mut self, moves: &[TreeMove], bar: f64) -> Result<Vec<Verified>, ExecutorError>;

    /// Install an already-optimized tree (a [`verify`](Self::verify)
    /// outcome) as the base without re-optimizing it. Returns the base as
    /// the executor will score against it; `work_units` is the work the
    /// adoption itself cost.
    fn adopt(&mut self, verified: Verified) -> Result<BaseOutcome, ExecutorError>;

    /// Apply one move to the base, fully optimize, and make the result the
    /// new base: [`verify`](Self::verify) then [`adopt`](Self::adopt), so a
    /// move the round already optimized costs no further work.
    fn commit(&mut self, mv: &TreeMove) -> Result<BaseOutcome, ExecutorError> {
        // One move is its own prefix, whatever the bar.
        let verified = self
            .verify(std::slice::from_ref(mv), f64::INFINITY)?
            .pop()
            .expect("verify returns the one move's outcome");
        let verify_work = verified.work_units;
        let mut adopted = self.adopt(verified)?;
        adopted.work_units += verify_work;
        Ok(adopted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::loopback::{Counting, Loopback};
    use crate::master::ClusterExecutor;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::enumerate_insertion_moves;
    use fdml_phylo::tree::NodeId;

    /// No bar: every move's outcome comes back.
    const ALL: f64 = f64::INFINITY;

    fn setup() -> (Alignment, Tree) {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGA"),
            ("t2", "ACGAACGTACGTACGGAGGT"),
            ("t3", "TCGAACGGACGTACGGAGGA"),
        ])
        .unwrap();
        (a, Tree::triplet(0, 1, 2))
    }

    /// The in-process executor, whole-tree or edit-scored.
    fn in_process(a: &Alignment, incremental: bool) -> ClusterExecutor<Loopback> {
        let config = SearchConfig {
            incremental,
            ..SearchConfig::default()
        };
        ClusterExecutor::in_process(a, &config)
    }

    #[test]
    fn full_eval_scores_and_commits() {
        let (a, t) = setup();
        let mut ex = in_process(&a, false);
        let base = ex.set_base(t).unwrap();
        assert!(base.ln_likelihood < 0.0);
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.work_units > 0));
        let best = argmax(&scores);
        let out = ex.commit(&moves[best]).unwrap();
        assert_eq!(out.tree.num_tips(), 4);
        assert!(out.ln_likelihood >= scores[best].ln_likelihood - 1e-6);
    }

    #[test]
    fn edit_scoring_agrees_with_whole_tree_scoring_on_ranking() {
        let (a, t) = setup();
        let mut full = in_process(&a, false);
        let mut fast = in_process(&a, true);
        let base_full = full.set_base(t.clone()).unwrap();
        let base_fast = fast.set_base(t).unwrap();
        assert!((base_full.ln_likelihood - base_fast.ln_likelihood).abs() < 1e-6);
        let moves = enumerate_insertion_moves(&base_full.tree, 3);
        let s_full = full.score_round(&moves).unwrap();
        let s_fast = fast.score_round(&moves).unwrap();
        assert_eq!(argmax(&s_full), argmax(&s_fast));
    }

    fn argmax(scores: &[CandidateScore]) -> usize {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.ln_likelihood.total_cmp(&b.1.ln_likelihood))
            .unwrap()
            .0
    }

    #[test]
    fn commit_before_base_is_typed_error() {
        let (a, _) = setup();
        let mv = TreeMove::Insertion {
            taxon: 3,
            at: (NodeId(0), NodeId(1)),
        };

        let mut full = in_process(&a, false);
        assert!(matches!(full.commit(&mv), Err(ExecutorError::NoBase)));
        assert!(matches!(
            full.verify(&[mv], ALL),
            Err(ExecutorError::NoBase)
        ));
        assert!(matches!(
            full.score_round(&[mv]),
            Err(ExecutorError::NoBase)
        ));

        let mut fast = in_process(&a, true);
        assert!(matches!(fast.commit(&mv), Err(ExecutorError::NoBase)));
        assert!(matches!(
            fast.verify(&[mv], ALL),
            Err(ExecutorError::NoBase)
        ));
        assert!(matches!(
            fast.score_round(&[mv]),
            Err(ExecutorError::NoBase)
        ));

        // The conversion into PhyloError keeps the message.
        let p: PhyloError = ExecutorError::NoBase.into();
        assert!(p.to_string().contains("set_base"));
    }

    /// Five taxa, so the second insertion round has five candidates.
    fn five_taxa() -> Alignment {
        Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGAACGTACTT"),
            ("t2", "ACGAACGTACGTACGGAGGTACGAACGT"),
            ("t3", "TCGAACGGACGTACGGAGGAACGTTCGT"),
            ("t4", "TCGAACGGACGTACGTAGGAACGTTCGA"),
        ])
        .unwrap()
    }

    /// The in-process executor over a [`Counting`] transport, and a
    /// reader of how many tasks it has dispatched so far.
    fn counted(
        a: &Alignment,
        incremental: bool,
    ) -> (ClusterExecutor<Counting>, impl Fn() -> usize) {
        let (transport, tasks) = Counting::new();
        let config = SearchConfig {
            incremental,
            ..SearchConfig::default()
        };
        (ClusterExecutor::over(transport, a, &config), tasks)
    }

    fn bits(outcomes: &[Verified]) -> Vec<u64> {
        outcomes.iter().map(|v| v.ln_likelihood.to_bits()).collect()
    }

    #[test]
    fn whole_tree_verify_and_commit_reuse_the_rounds_outcomes() {
        let a = five_taxa();
        // A window wider than the loopback's: kept moves take no slot in it.
        let (ex, tasks) = counted(&a, false);
        let mut ex = ex.with_window(3);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        assert_eq!(tasks(), 1);
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        assert_eq!(tasks(), 4);

        // Any subset of the round, in any order: no task, the scores' bits,
        // no work charged a second time.
        let subset = [moves[2], moves[0]];
        let kept = ex.verify(&subset, ALL).unwrap();
        assert_eq!(tasks(), 4);
        assert_eq!(
            bits(&kept),
            [2, 0].map(|i| scores[i].ln_likelihood.to_bits())
        );
        assert!(kept.iter().all(|v| v.work_units == 0));

        // Stopping at an improver: the prefix up to it, still no task.
        let bar = scores[0].ln_likelihood.min(scores[1].ln_likelihood) - 1.0;
        let prefix = ex.verify(&[moves[2], moves[0], moves[1]], bar).unwrap();
        assert_eq!(tasks(), 4);
        let first = usize::from(scores[2].ln_likelihood <= bar);
        assert_eq!(prefix.len(), first + 1);

        // Committing the round's argmax dispatches nothing either.
        let best = argmax(&scores);
        let committed = ex.commit(&moves[best]).unwrap();
        assert_eq!(tasks(), 4);
        assert_eq!(
            committed.ln_likelihood.to_bits(),
            scores[best].ln_likelihood.to_bits()
        );
        assert_eq!(committed.work_units, 0);
    }

    #[test]
    fn whole_tree_verify_dispatches_what_the_round_did_not_score_and_everything_after_adopt() {
        let a = five_taxa();
        let names = a.names().to_vec();
        let (ex, tasks) = counted(&a, false);
        let mut ex = ex.with_window(3);
        let triplet = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&triplet.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        let base = ex.commit(&moves[argmax(&scores)]).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 4);
        assert_eq!(moves.len(), 5);
        let before = tasks();
        let scores = ex.score_round(&moves[..3]).unwrap();
        assert_eq!(tasks(), before + 3);

        // Moves the round did not hold are dispatched, and only those: a
        // mixed call keeps its order.
        let fresh = ex.verify(&moves[3..], ALL).unwrap();
        assert_eq!(tasks(), before + 5);
        assert!(fresh.iter().all(|v| v.work_units > 0));
        let mixed = ex.verify(&[moves[4], moves[1]], ALL).unwrap();
        assert_eq!(tasks(), before + 6);
        assert_eq!(
            bits(&mixed),
            [fresh[1].ln_likelihood, scores[1].ln_likelihood].map(f64::to_bits)
        );
        assert_eq!(mixed[0].newick, fresh[1].newick);
        let kept = ex.verify(&moves[..3], ALL).unwrap();
        assert_eq!(tasks(), before + 6);

        // Adopting a tree — even the base itself, so every move stays
        // valid — forgets the round: each move is optimized again, to the
        // same bits and text.
        ex.adopt(Verified {
            newick: fdml_phylo::newick::write_tree(&base.tree, &names),
            ln_likelihood: base.ln_likelihood,
            work_units: 0,
        })
        .unwrap();
        let again = ex.verify(&moves[..3], ALL).unwrap();
        assert_eq!(tasks(), before + 9);
        assert_eq!(bits(&again), bits(&kept));
        for (again, kept) in again.iter().zip(&kept) {
            assert_eq!(again.newick, kept.newick);
            assert!(again.work_units > 0);
        }
    }

    #[test]
    fn incremental_verify_always_dispatches() {
        let a = five_taxa();
        let (mut ex, tasks) = counted(&a, true);
        let base = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        let before = tasks();
        let verified = ex.verify(&moves, ALL).unwrap();
        assert_eq!(tasks(), before + moves.len());
        assert!(verified.iter().all(|v| v.work_units > 0));
        ex.commit(&moves[argmax(&scores)]).unwrap();
        assert_eq!(tasks(), before + moves.len() + 1);
    }

    /// Five candidates on the five-taxon problem's second insertion round,
    /// with the executor that scored them.
    fn second_round(
        window: usize,
    ) -> (ClusterExecutor<Counting>, impl Fn() -> usize, Vec<TreeMove>) {
        let (ex, tasks) = counted(&five_taxa(), true);
        let mut ex = ex.with_window(window);
        let triplet = ex.set_base(Tree::triplet(0, 1, 2)).unwrap();
        let moves = enumerate_insertion_moves(&triplet.tree, 3);
        let scores = ex.score_round(&moves).unwrap();
        let base = ex.commit(&moves[argmax(&scores)]).unwrap();
        let moves = enumerate_insertion_moves(&base.tree, 4);
        assert_eq!(moves.len(), 5);
        ex.score_round(&moves).unwrap();
        (ex, tasks, moves)
    }

    #[test]
    fn verify_returns_the_prefix_to_the_improver_and_sends_the_window_past_it() {
        let (mut ex, tasks, moves) = second_round(1);
        let all = ex.verify(&moves, ALL).unwrap();
        let n = moves.len();
        let mut improvers = 0;
        for j in 0..n {
            // The bar that makes rank `j` the first improver, if one does.
            let bar = all[..j]
                .iter()
                .map(|v| v.ln_likelihood)
                .fold(f64::NEG_INFINITY, f64::max);
            if all[j].ln_likelihood <= bar {
                continue;
            }
            improvers += 1;
            for window in [1, 2, 3, 8] {
                let (mut ex, tasks, _) = second_round(window);
                let before = tasks();
                let got = ex.verify(&moves, bar).unwrap();
                // Over the loopback a window of one evaluates nothing past
                // the improver; a wider one sends `min(n, j + window)`.
                assert_eq!(
                    tasks() - before,
                    n.min(j + window),
                    "rank {j} window {window}"
                );
                assert_eq!(bits(&got), bits(&all[..=j]), "rank {j} window {window}");
                for (got, all) in got.iter().zip(&all) {
                    assert_eq!(got.newick, all.newick);
                    assert_eq!(got.work_units, all.work_units);
                }
                // What was sent past the improver is dropped, not mistaken
                // for the next call's answers.
                let again = ex.verify(&moves, ALL).unwrap();
                assert_eq!(bits(&again), bits(&all), "rank {j} window {window}");
            }
        }
        assert!(improvers >= 2, "only {improvers} ranks can lead");
        // None improves: every outcome, every move sent once.
        let before = tasks();
        let none = ex.verify(&moves, f64::INFINITY).unwrap();
        assert_eq!(tasks() - before, n);
        assert_eq!(bits(&none), bits(&all));
        // An empty round sends nothing and blocks on nothing.
        assert!(ex.verify(&[], f64::NEG_INFINITY).unwrap().is_empty());
        assert_eq!(tasks() - before, n);
    }
}
