//! Round executors: how a batch of candidate trees gets evaluated.
//!
//! The search driver ([`crate::search::StepwiseSearch`]) is generic over
//! this trait, exactly as fastDNAml's algorithm code is independent of
//! whether tree evaluation happens in a subroutine (serial) or on remote
//! workers (PVM/MPI):
//!
//! * [`FullEvalExecutor`] — every candidate is materialized and fully
//!   branch-length-optimized in process: the faithful worker computation
//!   and the reference for correctness/determinism tests.
//! * [`ScorerExecutor`] — candidates are scored incrementally
//!   (fastDNAml's "rapid approximation of the insertion point"), making
//!   paper-scale traces computable; the committed winner still gets the
//!   full treatment.
//!
//! The cluster executor that dispatches candidates over a transport lives
//! in [`crate::master`].
//!
//! Every executor separates *verifying* a move (fully optimize `base +
//! move`, base untouched) from *adopting* a verified tree as the new base
//! (no recomputation). The driver's rearrangement rounds verify the
//! leading candidates and adopt the first improver, so a fruitless round
//! never touches the base and nothing is ever reverted.

use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::scorer::TreeScorer;
use fdml_phylo::error::PhyloError;
use fdml_phylo::ops::{apply_move, TreeMove};
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
    fn verify(&mut self, moves: &[TreeMove]) -> Result<Vec<BaseOutcome>, ExecutorError>;

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
    fn adopt(&mut self, verified: BaseOutcome) -> Result<BaseOutcome, ExecutorError>;

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

/// Full per-candidate evaluation in process (the serial worker).
pub struct FullEvalExecutor<'e> {
    engine: &'e LikelihoodEngine,
    opts: OptimizeOptions,
    base: Option<Tree>,
}

impl<'e> FullEvalExecutor<'e> {
    /// Create an executor over an engine.
    pub fn new(engine: &'e LikelihoodEngine, opts: OptimizeOptions) -> FullEvalExecutor<'e> {
        FullEvalExecutor {
            engine,
            opts,
            base: None,
        }
    }

    fn base(&self) -> Result<&Tree, ExecutorError> {
        self.base.as_ref().ok_or(ExecutorError::NoBase)
    }
}

impl RoundExecutor for FullEvalExecutor<'_> {
    fn set_base(&mut self, mut tree: Tree) -> Result<BaseOutcome, ExecutorError> {
        let r = self.engine.optimize(&mut tree, &self.opts);
        let out = BaseOutcome {
            tree: tree.clone(),
            ln_likelihood: r.ln_likelihood,
            work_units: r.work.work_units(),
        };
        self.base = Some(tree);
        Ok(out)
    }

    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError> {
        // Whole-tree scoring is verification with the trees dropped.
        Ok(self
            .verify(moves)?
            .into_iter()
            .map(|full| CandidateScore {
                ln_likelihood: full.ln_likelihood,
                work_units: full.work_units,
            })
            .collect())
    }

    fn verify(&mut self, moves: &[TreeMove]) -> Result<Vec<BaseOutcome>, ExecutorError> {
        moves
            .iter()
            .map(|mv| verify_in_process(self.engine, &self.opts, self.base()?, mv))
            .collect()
    }

    fn adopt(&mut self, verified: BaseOutcome) -> Result<BaseOutcome, ExecutorError> {
        self.base = Some(verified.tree.clone());
        Ok(BaseOutcome {
            work_units: 0,
            ..verified
        })
    }
}

/// `base + mv`, fully optimized in process: the serial executors' verify.
fn verify_in_process(
    engine: &LikelihoodEngine,
    opts: &OptimizeOptions,
    base: &Tree,
    mv: &TreeMove,
) -> Result<BaseOutcome, ExecutorError> {
    let mut tree = base.clone();
    apply_move(&mut tree, mv)?;
    let r = engine.optimize(&mut tree, opts);
    Ok(BaseOutcome {
        tree,
        ln_likelihood: r.ln_likelihood,
        work_units: r.work.work_units(),
    })
}

/// Incremental scoring (see [`fdml_likelihood::scorer`]).
pub struct ScorerExecutor<'e> {
    engine: &'e LikelihoodEngine,
    opts: OptimizeOptions,
    scorer: Option<TreeScorer<'e>>,
}

impl<'e> ScorerExecutor<'e> {
    /// Create an executor over an engine.
    pub fn new(engine: &'e LikelihoodEngine, opts: OptimizeOptions) -> ScorerExecutor<'e> {
        ScorerExecutor {
            engine,
            opts,
            scorer: None,
        }
    }

    /// Make `scorer`'s tree the base and report it.
    fn install(&mut self, scorer: TreeScorer<'e>) -> BaseOutcome {
        let out = BaseOutcome {
            tree: scorer.tree().clone(),
            ln_likelihood: scorer.ln_likelihood(),
            work_units: scorer.base_work().work_units(),
        };
        self.scorer = Some(scorer);
        out
    }
}

impl RoundExecutor for ScorerExecutor<'_> {
    fn set_base(&mut self, tree: Tree) -> Result<BaseOutcome, ExecutorError> {
        let scorer = TreeScorer::new(self.engine, tree, self.opts);
        Ok(self.install(scorer))
    }

    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError> {
        let scorer = self.scorer.as_mut().ok_or(ExecutorError::NoBase)?;
        Ok(scorer
            .score_moves(moves)
            .into_iter()
            .map(|s| CandidateScore {
                ln_likelihood: s.ln_likelihood,
                work_units: s.work.work_units(),
            })
            .collect())
    }

    fn verify(&mut self, moves: &[TreeMove]) -> Result<Vec<BaseOutcome>, ExecutorError> {
        let base = self.scorer.as_ref().ok_or(ExecutorError::NoBase)?.tree();
        moves
            .iter()
            .map(|mv| verify_in_process(self.engine, &self.opts, base, mv))
            .collect()
    }

    fn adopt(&mut self, verified: BaseOutcome) -> Result<BaseOutcome, ExecutorError> {
        // The only work adoption costs is indexing the tree's CLVs.
        let scorer = TreeScorer::from_optimized(
            self.engine,
            verified.tree,
            verified.ln_likelihood,
            self.opts,
        );
        Ok(self.install(scorer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::enumerate_insertion_moves;

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

    #[test]
    fn full_eval_scores_and_commits() {
        let (a, t) = setup();
        let engine = LikelihoodEngine::new(&a);
        let mut ex = FullEvalExecutor::new(engine_ref(&engine), OptimizeOptions::default());
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
    fn scorer_executor_agrees_with_full_eval_on_ranking() {
        let (a, t) = setup();
        let engine = LikelihoodEngine::new(&a);
        let mut full = FullEvalExecutor::new(engine_ref(&engine), OptimizeOptions::default());
        let mut fast = ScorerExecutor::new(engine_ref(&engine), OptimizeOptions::default());
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

    fn engine_ref(e: &LikelihoodEngine) -> &LikelihoodEngine {
        e
    }

    #[test]
    fn commit_before_base_is_typed_error() {
        use fdml_phylo::tree::NodeId;
        let (a, _) = setup();
        let engine = LikelihoodEngine::new(&a);
        let mv = TreeMove::Insertion {
            taxon: 3,
            at: (NodeId(0), NodeId(1)),
        };

        let mut full = FullEvalExecutor::new(&engine, OptimizeOptions::default());
        assert!(matches!(full.commit(&mv), Err(ExecutorError::NoBase)));
        assert!(matches!(full.verify(&[mv]), Err(ExecutorError::NoBase)));
        assert!(matches!(
            full.score_round(&[mv]),
            Err(ExecutorError::NoBase)
        ));

        let mut fast = ScorerExecutor::new(&engine, OptimizeOptions::default());
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
