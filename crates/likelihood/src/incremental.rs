//! Incremental candidate evaluation against a cached base topology.
//!
//! Within a stepwise-addition or rearrangement round, every candidate
//! shares almost all of its subtrees with the round's base tree. The
//! [`ClvCache`] holds the base tree together with its fully indexed
//! directional CLVs (the per-edge partial likelihood tensors of Sumner &
//! Charleston, arXiv:0807.3387) and scores a candidate *edit* — a taxon
//! insertion or a subtree regraft — by recomputing only the dirty path the
//! edit perturbs: the three junction branches are Newton-optimized while
//! every other CLV is read straight from the cache. For a regraft, the
//! CLVs that face the dissolved attachment point are recomputed lazily
//! outward (the minimal dirty set), memoized across edits sharing a prune
//! point.
//!
//! This is the scorer of every deployment: worker processes, the master's
//! quarantine fallback and the in-process loopback all score an edit
//! through a `ClvCache` (via `fdml_core::worker::Evaluator`). The cache
//! *owns* its buffers instead of borrowing the engine, so a worker can
//! keep one alive across many single-edit tasks (the
//! `TaskPayload::TreeEdit` wire form) and rebuild it only when the round's
//! base topology changes.
//!
//! Determinism: a score depends only on the base tree, the edit, and the
//! engine configuration — never on which edits were scored before it on
//! the same cache (the adjusted-CLV memo is a pure function of `(edge,
//! anchor)`). Any two ranks therefore produce bit-identical scores for the
//! same edit.

use crate::engine::{ClvBuffers, LikelihoodEngine, OptimizeOptions, Workspace};
use crate::kernels::{JunctionScratch, KernelScratch};
use crate::scorer::{score_attachment, PruneContext};
use crate::work::WorkCounter;
use fdml_phylo::error::PhyloError;
use fdml_phylo::ops::TreeMove;
use fdml_phylo::tree::{NodeId, Tree, DEFAULT_BRANCH_LENGTH};

/// The outcome of scoring one edit incrementally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EditScore {
    /// Log-likelihood of the candidate (junction branches optimized, every
    /// other branch frozen at the base tree's lengths).
    pub ln_likelihood: f64,
    /// The three optimized junction branch lengths, ordered `[toward
    /// anchor a, toward anchor b, pendant]` — with `anchors`, enough to
    /// rebuild the scored candidate tree.
    pub lens: [f64; 3],
    /// The two base-tree nodes flanking the new junction (the split edge's
    /// endpoints; for a regraft, ordered facing-the-prune-site first).
    pub anchors: (NodeId, NodeId),
    /// Work spent scoring this edit.
    pub work: WorkCounter,
    /// Directional CLVs served from the cache for this edit.
    pub cache_hits: u64,
    /// CLVs recomputed for the dirty path (regrafts only).
    pub edges_recomputed: u64,
}

/// Per-edge CLV cache over one base topology.
///
/// Build once per round base with [`ClvCache::build`], then call
/// [`ClvCache::score_edit`] for each candidate edit of the round.
pub struct ClvCache {
    tree: Tree,
    pub(crate) clvs: ClvBuffers,
    zero_scale: Vec<i32>,
    scratch: KernelScratch,
    junction: JunctionScratch,
    /// Memoized prune context, reused while consecutive edits share a
    /// prune point (scores are identical either way; only work counters
    /// and hit rates change).
    ctx: Option<PruneContext>,
    build_work: WorkCounter,
}

impl ClvCache {
    /// Index the directional CLVs of `tree` (both sweeps, no branch-length
    /// optimization — the base is expected to arrive already optimized).
    pub fn build(engine: &LikelihoodEngine, tree: Tree) -> ClvCache {
        let mut work = WorkCounter::new();
        let mut ws = Workspace::new(engine, &tree);
        ws.compute_all_down(&tree, &mut work);
        ws.compute_all_up(&tree, &mut work);
        let clvs = ws.into_clv_buffers();
        ClvCache {
            tree,
            clvs,
            zero_scale: vec![0; engine.patterns().num_patterns()],
            scratch: engine.kernel_scratch(),
            junction: JunctionScratch::new(engine.patterns().num_patterns()),
            ctx: None,
            build_work: work,
        }
    }

    /// The base tree the cache is keyed on.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Work spent building the cache (charged to the first edit scored).
    pub fn build_work(&self) -> WorkCounter {
        self.build_work
    }

    /// Score one edit against the cached base.
    pub fn score_edit(
        &mut self,
        engine: &LikelihoodEngine,
        mv: &TreeMove,
        opts: &OptimizeOptions,
    ) -> Result<EditScore, PhyloError> {
        match *mv {
            TreeMove::Insertion { taxon, at } => {
                let e = self.tree.edge_between(at.0, at.1).ok_or_else(|| {
                    PhyloError::InvalidTreeOp(format!("edit target {at:?} is not a base edge"))
                })?;
                let (clv_a, sc_a) = self.clvs.directional(engine, e, at.0);
                let (clv_b, sc_b) = self.clvs.directional(engine, e, at.1);
                let clv_c = engine.tip_clv(taxon);
                let half = self.tree.length(e) / 2.0;
                let mut lens = [half, half, DEFAULT_BRANCH_LENGTH];
                let scored = score_attachment(
                    engine,
                    &mut self.scratch,
                    &mut self.junction,
                    (clv_a, sc_a),
                    (clv_b, sc_b),
                    (clv_c, &self.zero_scale),
                    &mut lens,
                    opts,
                );
                Ok(EditScore {
                    ln_likelihood: scored.ln_likelihood,
                    lens,
                    anchors: at,
                    work: scored.work,
                    cache_hits: 3,
                    edges_recomputed: 0,
                })
            }
            TreeMove::Spr {
                root,
                attachment,
                target,
            } => {
                let rebuild = match &self.ctx {
                    Some(c) => c.root != root || c.attachment != attachment,
                    None => true,
                };
                if rebuild {
                    if self.tree.edge_between(root, attachment).is_none() {
                        return Err(PhyloError::InvalidTreeOp(format!(
                            "edit prune point {root:?}-{attachment:?} is not a base edge"
                        )));
                    }
                    self.ctx = Some(PruneContext::build(&self.tree, root, attachment));
                }
                let ctx = self.ctx.as_mut().expect("context just ensured");
                let f = ctx
                    .work_tree
                    .edge_between(target.0, target.1)
                    .ok_or_else(|| {
                        PhyloError::InvalidTreeOp(format!(
                            "edit regraft target {target:?} is not an edge of the pruned tree"
                        ))
                    })?;
                let (facing, away) = if ctx.dist(target.0) <= ctx.dist(target.1) {
                    (target.0, target.1)
                } else {
                    (target.1, target.0)
                };
                let adjusted_before = ctx.adjusted.len();
                let mut work = WorkCounter::new();
                ctx.ensure_adjusted(engine, &self.clvs, &mut self.scratch, f, facing, &mut work);
                let edges_recomputed = (ctx.adjusted.len() - adjusted_before) as u64;
                // The away-side and subtree CLVs always come from the
                // cache; the facing side counts as a hit when its adjusted
                // CLV was already memoized.
                let cache_hits = 2 + u64::from(edges_recomputed == 0);
                let (adj_clv, adj_sc) = ctx.adjusted.get(&(f, facing)).expect("just ensured");
                let (away_clv, away_sc) = self.clvs.directional(engine, f, away);
                let (sub_clv, sub_sc) =
                    self.clvs
                        .directional(engine, ctx.pendant_edge, ctx.subtree_root);
                let half = ctx.work_tree.length(f) / 2.0;
                let mut lens = [half, half, ctx.pendant_length];
                let mut scored = score_attachment(
                    engine,
                    &mut self.scratch,
                    &mut self.junction,
                    (adj_clv, adj_sc),
                    (away_clv, away_sc),
                    (sub_clv, sub_sc),
                    &mut lens,
                    opts,
                );
                scored.work += work;
                Ok(EditScore {
                    ln_likelihood: scored.ln_likelihood,
                    lens,
                    anchors: (facing, away),
                    work: scored.work,
                    cache_hits,
                    edges_recomputed,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LikelihoodEngine;
    use crate::kernels::KernelMode;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::{apply_move, enumerate_insertion_moves, enumerate_spr_moves};

    /// The candidate tree a score describes: the base tree with the edit
    /// applied and the three junction branches set to the optimized
    /// lengths. Evaluating it from scratch must reproduce
    /// `score.ln_likelihood` — the oracle of the equivalence suite below.
    /// (Test support only: the runtime returns scores, never trees.)
    fn materialize(cache: &ClvCache, mv: &TreeMove, score: &EditScore) -> Tree {
        let mut cand = cache.tree.clone();
        let pendant = apply_move(&mut cand, mv).unwrap();
        let outer = match *mv {
            TreeMove::Insertion { taxon, .. } => cand.tip_of(taxon).unwrap(),
            TreeMove::Spr { root, .. } => root,
        };
        let q = cand.other_end(pendant, outer);
        let (na, nb) = score.anchors;
        for (n, len) in [(na, score.lens[0]), (nb, score.lens[1])] {
            let e = cand.edge_between(q, n).expect("junction anchor adjacent");
            cand.set_length(e, len);
        }
        cand.set_length(pendant, score.lens[2]);
        cand
    }

    /// Tiny deterministic generator (xorshift64*) for the seeded
    /// randomized equivalence suite.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Random alignment over `taxa` sequences of `sites` sites: a shared
    /// backbone with per-taxon substitutions so branch lengths stay away
    /// from the Newton bounds.
    fn random_alignment(rng: &mut Rng, taxa: usize, sites: usize) -> Alignment {
        const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
        let backbone: Vec<char> = (0..sites).map(|_| BASES[rng.below(4)]).collect();
        let rows: Vec<(String, String)> = (0..taxa)
            .map(|i| {
                let mut s = backbone.clone();
                for _ in 0..sites / 6 {
                    let site = rng.below(sites);
                    s[site] = BASES[rng.below(4)];
                }
                (format!("t{i}"), s.into_iter().collect())
            })
            .collect();
        let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        Alignment::from_strings(&refs).unwrap()
    }

    /// Random binary tree over taxa `0..n-1` by random stepwise insertion.
    fn random_tree(rng: &mut Rng, n: usize) -> Tree {
        let mut t = Tree::triplet(0, 1, 2);
        for taxon in 3..n as u32 {
            let edges: Vec<_> = t.edge_ids().collect();
            let e = edges[rng.below(edges.len())];
            t.insert_taxon(taxon, e).unwrap();
        }
        t
    }

    fn assert_close_1e12(a: f64, b: f64, what: &str) {
        let tol = 1e-12 * a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{what}: incremental {a} vs from-scratch {b} (|Δ| = {}, tol = {tol})",
            (a - b).abs()
        );
    }

    /// The seeded randomized equivalence suite: for random trees and random
    /// edits, the incremental score equals a from-scratch evaluation of the
    /// materialized candidate to ≤ 1e-12 (relative), on both kernel paths.
    /// Newton is disabled so the junction lengths are pinned and the score
    /// is exactly a likelihood, not an optimum.
    #[test]
    fn randomized_edits_match_from_scratch_reference() {
        for seed in [3u64, 17, 91] {
            let mut rng = Rng(seed | 1);
            let a = random_alignment(&mut rng, 8, 48);
            for mode in [KernelMode::Optimized, KernelMode::Reference] {
                let engine = LikelihoodEngine::new(&a).with_kernel_mode(mode);
                let mut base = random_tree(&mut rng, 7);
                let mut opts = OptimizeOptions::default();
                engine.optimize(&mut base, &opts);
                opts.newton.max_iters = 0;
                let mut cache = ClvCache::build(&engine, base.clone());
                let mut moves = enumerate_insertion_moves(&base, 7);
                moves.extend(enumerate_spr_moves(&base, 3));
                // A deterministic random subsample keeps the suite fast.
                let picks: Vec<TreeMove> = (0..12).map(|_| moves[rng.below(moves.len())]).collect();
                for mv in &picks {
                    let score = cache.score_edit(&engine, mv, &opts).unwrap();
                    let cand = materialize(&cache, mv, &score);
                    cand.check_valid().unwrap();
                    let scratch = engine.evaluate(&cand).ln_likelihood;
                    assert_close_1e12(
                        score.ln_likelihood,
                        scratch,
                        &format!("seed {seed} mode {mode:?} move {mv:?}"),
                    );
                }
            }
        }
    }

    /// Scores are a pure function of (base, edit): scoring order and memo
    /// reuse must not change a single bit.
    #[test]
    fn scores_are_independent_of_scoring_order() {
        let mut rng = Rng(0xabcd);
        let a = random_alignment(&mut rng, 7, 36);
        let engine = LikelihoodEngine::new(&a);
        let mut base = random_tree(&mut rng, 7);
        let opts = OptimizeOptions::default();
        engine.optimize(&mut base, &opts);
        let moves = enumerate_spr_moves(&base, 3);
        assert!(moves.len() >= 4);
        let mut forward = ClvCache::build(&engine, base.clone());
        let fwd: Vec<f64> = moves
            .iter()
            .map(|mv| {
                forward
                    .score_edit(&engine, mv, &opts)
                    .unwrap()
                    .ln_likelihood
            })
            .collect();
        let mut backward = ClvCache::build(&engine, base.clone());
        let bwd: Vec<f64> = moves
            .iter()
            .rev()
            .map(|mv| {
                backward
                    .score_edit(&engine, mv, &opts)
                    .unwrap()
                    .ln_likelihood
            })
            .collect();
        for (i, mv) in moves.iter().enumerate() {
            let b = bwd[moves.len() - 1 - i];
            assert_eq!(fwd[i].to_bits(), b.to_bits(), "move {mv:?}");
        }
        // One-at-a-time on a fresh cache (the cold-worker case) agrees too.
        for (i, mv) in moves.iter().enumerate() {
            let mut solo = ClvCache::build(&engine, base.clone());
            let s = solo.score_edit(&engine, mv, &opts).unwrap().ln_likelihood;
            assert_eq!(fwd[i].to_bits(), s.to_bits(), "move {mv:?}");
        }
    }

    /// Cache-hit accounting: insertions never recompute an edge; regrafts
    /// sharing a prune point recompute the dirty path once and hit the memo
    /// afterwards.
    #[test]
    fn hit_counters_reflect_dirty_path_reuse() {
        let mut rng = Rng(0x77);
        let a = random_alignment(&mut rng, 8, 40);
        let engine = LikelihoodEngine::new(&a);
        let mut base = random_tree(&mut rng, 8);
        let opts = OptimizeOptions::default();
        engine.optimize(&mut base, &opts);
        let mut cache = ClvCache::build(&engine, base.clone());
        let spr = enumerate_spr_moves(&base, 2);
        let mut recomputed = 0u64;
        let mut hits = 0u64;
        for mv in &spr {
            let s = cache.score_edit(&engine, mv, &opts).unwrap();
            recomputed += s.edges_recomputed;
            hits += s.cache_hits;
        }
        assert!(recomputed > 0, "some dirty-path CLVs must be recomputed");
        assert!(
            hits >= 2 * spr.len() as u64,
            "away + subtree CLVs always come from the cache"
        );
        // Re-scoring a move right after itself hits the adjusted-CLV memo:
        // the dirty path was already recomputed by the first scoring.
        let _ = cache.score_edit(&engine, &spr[0], &opts).unwrap();
        let again = cache.score_edit(&engine, &spr[0], &opts).unwrap();
        assert_eq!(again.edges_recomputed, 0);
        assert_eq!(again.cache_hits, 3);
    }

    /// Stale edits (nodes that are not an edge of the base) are typed
    /// errors, not panics — the worker turns these into protocol errors.
    #[test]
    fn stale_edit_is_a_typed_error() {
        let mut rng = Rng(0x5);
        let a = random_alignment(&mut rng, 6, 30);
        let engine = LikelihoodEngine::new(&a);
        let base = random_tree(&mut rng, 5);
        let mut cache = ClvCache::build(&engine, base);
        let bogus = TreeMove::Insertion {
            taxon: 5,
            at: (NodeId(0), NodeId(0)),
        };
        assert!(cache
            .score_edit(&engine, &bogus, &OptimizeOptions::default())
            .is_err());
    }
}
