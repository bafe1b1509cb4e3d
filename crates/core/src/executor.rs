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

    /// Fully optimize `base + move` for each move, in order. The base is
    /// untouched, and an outcome depends only on the base and its move —
    /// never on which other moves share the call.
    fn verify(&mut self, moves: &[TreeMove]) -> Result<Vec<Verified>, ExecutorError>;

    /// How many moves one [`verify`](Self::verify) call evaluates
    /// concurrently (at least 1): the driver verifies candidates in waves
    /// of this size.
    fn verify_width(&self) -> usize {
        1
    }

    /// Install an already-optimized tree (a [`verify`](Self::verify)
    /// outcome) as the base without re-optimizing it. Returns the base as
    /// the executor will score against it; `work_units` is the work the
    /// adoption itself cost.
    fn adopt(&mut self, verified: Verified) -> Result<BaseOutcome, ExecutorError>;

    /// Apply one move to the base, fully optimize, and make the result the
    /// new base: [`verify`](Self::verify) then [`adopt`](Self::adopt).
    fn commit(&mut self, mv: &TreeMove) -> Result<BaseOutcome, ExecutorError> {
        let verified = self
            .verify(std::slice::from_ref(mv))?
            .pop()
            .expect("verify returns one outcome per move");
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
    use crate::loopback::Loopback;
    use crate::master::ClusterExecutor;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::enumerate_insertion_moves;
    use fdml_phylo::tree::NodeId;

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
        assert!(matches!(full.verify(&[mv]), Err(ExecutorError::NoBase)));
        assert!(matches!(
            full.score_round(&[mv]),
            Err(ExecutorError::NoBase)
        ));

        let mut fast = in_process(&a, true);
        assert!(matches!(fast.commit(&mv), Err(ExecutorError::NoBase)));
        assert!(matches!(fast.verify(&[mv]), Err(ExecutorError::NoBase)));
        assert!(matches!(
            fast.score_round(&[mv]),
            Err(ExecutorError::NoBase)
        ));

        // The conversion into PhyloError keeps the message.
        let p: PhyloError = ExecutorError::NoBase.into();
        assert!(p.to_string().contains("set_base"));
    }
}
