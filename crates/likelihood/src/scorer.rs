//! The junction kernel of incremental candidate scoring — fastDNAml's
//! "rapid approximation of the insertion point".
//!
//! The stepwise-addition search evaluates huge numbers of candidate trees
//! that differ from the current best tree by a single move. Re-deriving the
//! whole tree's conditional likelihoods for each candidate would repeat
//! almost all of the work, so fastDNAml scores candidates *incrementally*:
//! the base tree's directional CLVs are built once, and a candidate's
//! likelihood needs only the CLVs adjacent to the changed region, with the
//! three branch lengths at the junction optimized by Newton's method
//! ([`score_attachment`]). The winning candidate is then given the full
//! treatment ("it is then tested more carefully", paper §2.1) by a
//! whole-tree optimization.
//!
//! For SPR rearrangements, pruning a subtree invalidates the directional
//! CLVs that *face* the prune site; a [`PruneContext`] recomputes those
//! lazily outward from the dissolved node, bounded by the rearrangement
//! radius, while the away-facing CLVs are reused from the base tree
//! unchanged.
//!
//! The scorer built on these two pieces — the one every deployment uses —
//! is [`crate::incremental::ClvCache`].

use crate::engine::{ClvBuffers, LikelihoodEngine, OptimizeOptions};
use crate::kernels::{self, JunctionScratch, KernelScratch};
use crate::work::WorkCounter;
use fdml_phylo::dna::NUM_STATES;
use fdml_phylo::tree::{EdgeId, NodeId, Tree};
use std::collections::HashMap;

/// The score of one candidate move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredMove {
    /// Approximate log-likelihood of the candidate (junction branches
    /// optimized, all other branch lengths frozen at the base tree's).
    pub ln_likelihood: f64,
    /// Work spent scoring this candidate.
    pub work: WorkCounter,
}

/// Per-prune-point scoring context: the base tree with one subtree detached,
/// plus lazily recomputed CLVs facing the dissolved node, resolved against
/// the base tree's indexed [`ClvBuffers`].
pub(crate) struct PruneContext {
    pub(crate) root: NodeId,
    pub(crate) attachment: NodeId,
    pub(crate) subtree_root: NodeId,
    /// The pendant edge in the *base* tree (still live there).
    pub(crate) pendant_edge: EdgeId,
    pub(crate) pendant_length: f64,
    pub(crate) work_tree: Tree,
    merged_edge: EdgeId,
    /// Base-tree edges equivalent to the two halves of the merged edge,
    /// keyed by their outer endpoint.
    merged_halves: HashMap<NodeId, EdgeId>,
    /// BFS distance from the merged edge's endpoints in `work_tree`.
    node_dist: HashMap<NodeId, u32>,
    /// Recomputed CLVs `(edge, anchor)` for anchors facing the prune site.
    pub(crate) adjusted: HashMap<(EdgeId, NodeId), (Vec<f64>, Vec<i32>)>,
}

impl PruneContext {
    pub(crate) fn build(tree: &Tree, root: NodeId, attachment: NodeId) -> PruneContext {
        let pendant_edge = tree
            .edge_between(root, attachment)
            .expect("prune point must be an edge");
        let pendant_length = tree.length(pendant_edge);
        let mut work_tree = tree.clone();
        let mut merged_halves = HashMap::with_capacity(2);
        for (e, n) in tree.neighbors(attachment) {
            if e != pendant_edge {
                merged_halves.insert(n, e);
            }
        }
        let sub = work_tree
            .detach(pendant_edge, root)
            .expect("prune point must be detachable");
        // BFS node distances from the merged edge's endpoints.
        let (na, nb) = work_tree.endpoints(sub.merged_edge);
        let mut node_dist = HashMap::new();
        node_dist.insert(na, 0u32);
        node_dist.insert(nb, 0u32);
        let mut frontier = vec![na, nb];
        while let Some(n) = frontier.pop() {
            let d = node_dist[&n];
            for (_, m) in work_tree.neighbors(n) {
                if let std::collections::hash_map::Entry::Vacant(v) = node_dist.entry(m) {
                    v.insert(d + 1);
                    frontier.push(m);
                }
            }
        }
        PruneContext {
            root,
            attachment,
            subtree_root: root,
            pendant_edge,
            pendant_length,
            merged_edge: sub.merged_edge,
            work_tree,
            merged_halves,
            node_dist,
            adjusted: HashMap::new(),
        }
    }

    /// Ensure `adjusted[(f, s)]` exists: the CLV anchored at `s` covering
    /// `s`'s component of the pruned tree when `f` is cut — the side that
    /// contains the dissolved attachment, so it cannot be reused from the
    /// base tree. `clvs` holds the base tree's indexed directional CLVs.
    pub(crate) fn ensure_adjusted(
        &mut self,
        engine: &LikelihoodEngine,
        clvs: &ClvBuffers,
        scratch: &mut KernelScratch,
        f: EdgeId,
        s: NodeId,
        work: &mut WorkCounter,
    ) {
        if self.adjusted.contains_key(&(f, s)) {
            return;
        }
        if let Some(taxon) = self.work_tree.taxon(s) {
            let np = engine.patterns().num_patterns();
            self.adjusted
                .insert((f, s), (engine.tip_clv(taxon).to_vec(), vec![0; np]));
            return;
        }
        // Resolve s's other two edges to (clv source, length) pairs.
        let others: Vec<(EdgeId, NodeId, f64)> = self
            .work_tree
            .neighbors(s)
            .filter(|&(g, _)| g != f)
            .map(|(g, m)| (g, m, self.work_tree.length(g)))
            .collect();
        debug_assert_eq!(others.len(), 2);
        // Recurse first so the memo is populated before we borrow it.
        for &(g, m, _) in &others {
            if g != self.merged_edge && self.dist(m) < self.dist(s) {
                self.ensure_adjusted(engine, clvs, scratch, g, m, work);
            }
        }
        let np = engine.patterns().num_patterns();
        let mut out = vec![0.0; np * NUM_STATES];
        let mut out_scale = vec![0; np];
        {
            fn resolve<'x>(
                ctx: &'x PruneContext,
                engine: &'x LikelihoodEngine,
                clvs: &'x ClvBuffers,
                s: NodeId,
                g: EdgeId,
                m: NodeId,
            ) -> (&'x [f64], &'x [i32]) {
                if g == ctx.merged_edge {
                    // The far half of the merged edge is a base-tree edge.
                    let base_edge = ctx.merged_halves[&m];
                    clvs.directional(engine, base_edge, m)
                } else if ctx.dist(m) < ctx.dist(s) {
                    let (clv, sc) = &ctx.adjusted[&(g, m)];
                    (clv.as_slice(), sc.as_slice())
                } else {
                    clvs.directional(engine, g, m)
                }
            }
            let (g1, m1, l1) = others[0];
            let (g2, m2, l2) = others[1];
            let (clv1, sc1) = resolve(self, engine, clvs, s, g1, m1);
            let (clv2, sc2) = resolve(self, engine, clvs, s, g2, m2);
            work.clv_pattern_updates += kernels::combine_edges(
                engine.kernel_mode(),
                engine.model(),
                engine.categories(),
                scratch,
                l1,
                clv1,
                sc1,
                l2,
                clv2,
                sc2,
                &mut out,
                &mut out_scale,
            );
        }
        self.adjusted.insert((f, s), (out, out_scale));
    }

    pub(crate) fn dist(&self, n: NodeId) -> u32 {
        *self.node_dist.get(&n).unwrap_or(&u32::MAX)
    }
}

/// Score a three-way junction: a new node `q` joined to three CLV-bearing
/// anchors `A`, `B`, `C` by branches of the given initial lengths. The three
/// branch lengths are optimized in place (two Gauss–Seidel rounds of
/// Newton), all other likelihood state held fixed; `lens` holds the
/// optimized lengths on return so callers can materialize the scored
/// candidate. This is the common kernel of taxon insertion (C = tip) and
/// subtree regraft (C = pruned subtree). All intermediate buffers live in
/// the caller's [`JunctionScratch`], so scoring a candidate allocates
/// nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_attachment(
    engine: &LikelihoodEngine,
    scratch: &mut KernelScratch,
    junction: &mut JunctionScratch,
    a: (&[f64], &[i32]),
    b: (&[f64], &[i32]),
    c: (&[f64], &[i32]),
    lens: &mut [f64; 3],
    opts: &OptimizeOptions,
) -> ScoredMove {
    let mode = engine.kernel_mode();
    let model = engine.model();
    let cats = engine.categories();
    let weights = engine.pattern_weights();
    let np = engine.patterns().num_patterns();
    let clvs = [a.0, b.0, c.0];
    let scales = [a.1, b.1, c.1];
    let mut work = WorkCounter::new();

    const ROUNDS: usize = 2;
    for round in 0..ROUNDS {
        for i in 0..3 {
            let j = (i + 1) % 3;
            let k = (i + 2) % 3;
            work.clv_pattern_updates += kernels::combine_edges(
                mode,
                model,
                cats,
                scratch,
                lens[j],
                clvs[j],
                scales[j],
                lens[k],
                clvs[k],
                scales[k],
                &mut junction.pair_clv,
                &mut junction.pair_scale,
            );
            work.loglik_pattern_evals += kernels::compute_w_terms(
                mode,
                model,
                &junction.pair_clv,
                clvs[i],
                &mut junction.wterms,
            );
            lens[i] = kernels::optimize_branch_dispatch(
                mode,
                model,
                cats,
                scratch,
                &junction.wterms,
                weights,
                lens[i],
                &opts.newton,
                &mut work,
            );
            // Final round, last branch: evaluate the likelihood right here.
            if round == ROUNDS - 1 && i == 2 {
                for (p, total) in junction.scale_total.iter_mut().enumerate().take(np) {
                    *total = junction.pair_scale[p] + scales[i][p];
                }
                let lnl = kernels::branch_lnl(
                    mode,
                    model,
                    cats,
                    scratch,
                    lens[i],
                    &junction.wterms,
                    weights,
                    &junction.scale_total,
                );
                work.loglik_pattern_evals += np as u64;
                return ScoredMove {
                    ln_likelihood: lnl,
                    work,
                };
            }
        }
    }
    unreachable!("loop always returns on the final branch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LikelihoodEngine;
    use crate::incremental::{ClvCache, EditScore};
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::{apply_move, enumerate_insertion_moves, enumerate_spr_moves, TreeMove};

    fn case() -> (Alignment, Tree) {
        // Every taxon carries unique substitutions so that no optimized
        // branch length collapses to the minimum (the likelihood is very
        // stiff near zero-length branches, which would widen the exactness
        // tolerances below).
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
            ("t1", "ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT"),
            ("t2", "ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT"),
            ("t3", "ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT"),
            ("t4", "TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA"),
            ("t5", "TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA"),
        ])
        .unwrap();
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(2).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        let e = t.incident_edges(t.tip_of(3).unwrap())[0];
        t.insert_taxon(4, e).unwrap();
        (a, t)
    }

    /// The scorer as the search uses it: optimize the base fully, then
    /// index its directional CLVs.
    fn scorer(engine: &LikelihoodEngine, mut tree: Tree) -> (ClvCache, f64) {
        let lnl = engine
            .optimize(&mut tree, &OptimizeOptions::default())
            .ln_likelihood;
        (ClvCache::build(engine, tree), lnl)
    }

    fn score_moves(
        cache: &mut ClvCache,
        engine: &LikelihoodEngine,
        moves: &[TreeMove],
        opts: &OptimizeOptions,
    ) -> Vec<EditScore> {
        moves
            .iter()
            .map(|mv| cache.score_edit(engine, mv, opts).unwrap())
            .collect()
    }

    #[test]
    fn scorer_base_likelihood_matches_engine() {
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let mut t2 = t.clone();
        let expected = engine
            .optimize(&mut t2, &OptimizeOptions::default())
            .ln_likelihood;
        let (cache, lnl) = scorer(&engine, t);
        assert!((lnl - expected).abs() < 1e-6);
        assert!((engine.evaluate(cache.tree()).ln_likelihood - expected).abs() < 1e-6);
    }

    #[test]
    fn insertion_scores_match_full_evaluation() {
        // A scored lnL is the likelihood of the candidate with ONLY the
        // three junction branch lengths optimized: a lower bound on, and
        // within a loose gap of, the fully optimized candidate.
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let opts = OptimizeOptions::default();
        let (mut cache, _) = scorer(&engine, t);
        let moves = enumerate_insertion_moves(cache.tree(), 5);
        let scores = score_moves(&mut cache, &engine, &moves, &opts);
        assert_eq!(scores.len(), moves.len());
        for (mv, sc) in moves.iter().zip(&scores) {
            let mut cand = cache.tree().clone();
            apply_move(&mut cand, mv).unwrap();
            let full = engine.optimize(&mut cand, &opts).ln_likelihood;
            assert!(
                sc.ln_likelihood <= full + 1e-6,
                "scored {} must not exceed fully optimized {}",
                sc.ln_likelihood,
                full
            );
            assert!(
                full - sc.ln_likelihood < 10.0,
                "scored {} too far below optimized {}",
                sc.ln_likelihood,
                full
            );
        }
    }

    #[test]
    fn insertion_ranking_matches_full_ranking() {
        // The argmax candidate under incremental scoring should match the
        // argmax under full optimization for this easy dataset.
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let opts = OptimizeOptions::default();
        let (mut cache, _) = scorer(&engine, t);
        let moves = enumerate_insertion_moves(cache.tree(), 5);
        let scores = score_moves(&mut cache, &engine, &moves, &opts);
        let best_scored = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.ln_likelihood.total_cmp(&y.1.ln_likelihood))
            .unwrap()
            .0;
        let mut best_full = (0, f64::NEG_INFINITY);
        for (i, mv) in moves.iter().enumerate() {
            let mut cand = cache.tree().clone();
            apply_move(&mut cand, mv).unwrap();
            let lnl = engine.optimize(&mut cand, &opts).ln_likelihood;
            if lnl > best_full.1 {
                best_full = (i, lnl);
            }
        }
        assert_eq!(best_scored, best_full.0);
    }

    /// With Newton disabled, a scored lnL is the plain likelihood of the
    /// candidate tree at exactly the lengths `apply_move` produces — so it
    /// must match a full evaluation almost bit-for-bit.
    fn assert_exact_without_optimization(moves_of: impl Fn(&Tree) -> Vec<TreeMove>) {
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let (mut cache, _) = scorer(&engine, t);
        let mut opts = OptimizeOptions::default();
        opts.newton.max_iters = 0;
        let moves = moves_of(cache.tree());
        assert!(!moves.is_empty());
        let scores = score_moves(&mut cache, &engine, &moves, &opts);
        for (mv, sc) in moves.iter().zip(&scores) {
            let mut cand = cache.tree().clone();
            apply_move(&mut cand, mv).unwrap();
            let full = engine.evaluate(&cand).ln_likelihood;
            assert!(
                (sc.ln_likelihood - full).abs() < 1e-8,
                "move {mv:?}: scored {} vs evaluated {}",
                sc.ln_likelihood,
                full
            );
        }
    }

    #[test]
    fn insertion_scores_exact_without_optimization() {
        assert_exact_without_optimization(|t| enumerate_insertion_moves(t, 5));
    }

    #[test]
    fn spr_scores_exact_without_optimization() {
        assert_exact_without_optimization(|t| enumerate_spr_moves(t, 3));
    }

    #[test]
    fn spr_scores_bounded_by_full_optimization() {
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let opts = OptimizeOptions::default();
        let (mut cache, _) = scorer(&engine, t);
        let moves = enumerate_spr_moves(cache.tree(), 2);
        assert!(!moves.is_empty());
        let scores = score_moves(&mut cache, &engine, &moves, &opts);
        for (mv, sc) in moves.iter().zip(&scores) {
            let mut cand = cache.tree().clone();
            apply_move(&mut cand, mv).unwrap();
            let full = engine.optimize(&mut cand, &opts).ln_likelihood;
            assert!(
                sc.ln_likelihood <= full + 1e-6,
                "move {mv:?}: scored {} exceeds optimized {}",
                sc.ln_likelihood,
                full
            );
            assert!(full - sc.ln_likelihood < 10.0, "move {mv:?}: gap too large");
        }
    }

    #[test]
    fn from_optimized_indexes_without_reoptimizing() {
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let opts = OptimizeOptions::default();
        let mut optimized = t.clone();
        engine.optimize(&mut optimized, &opts);
        let mut adopted = ClvCache::build(&engine, optimized.clone());
        // The tree is taken as is: no Newton iteration runs, no branch moves.
        assert_eq!(adopted.build_work().newton_pattern_iters, 0);
        assert!(adopted.build_work().clv_pattern_updates > 0);
        for e in optimized.edge_ids() {
            assert_eq!(
                adopted.tree().length(e).to_bits(),
                optimized.length(e).to_bits()
            );
        }
        // Optimizing the unoptimized tree afresh reaches the same optimum by
        // the same steps, so both caches index the same CLVs and score alike.
        let (mut fresh, _) = scorer(&engine, t);
        let moves = enumerate_insertion_moves(fresh.tree(), 5);
        let expected = score_moves(&mut fresh, &engine, &moves, &opts);
        let got = score_moves(&mut adopted, &engine, &moves, &opts);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.ln_likelihood.to_bits(), e.ln_likelihood.to_bits());
        }
    }

    #[test]
    fn scoring_accumulates_work() {
        let (a, t) = case();
        let engine = LikelihoodEngine::new(&a);
        let (mut cache, _) = scorer(&engine, t);
        let moves = enumerate_insertion_moves(cache.tree(), 5);
        let scores = score_moves(&mut cache, &engine, &moves, &OptimizeOptions::default());
        for s in &scores {
            assert!(s.work.clv_pattern_updates > 0);
            assert!(s.work.newton_pattern_iters > 0);
        }
        assert!(cache.build_work().clv_pattern_updates > 0);
    }

    #[test]
    fn spr_scoring_on_larger_tree_with_radius_five() {
        // Exercise the lazy adjusted-CLV recursion across several rings.
        let (a, _) = case();
        let engine = LikelihoodEngine::new(&a);
        let mut t = Tree::triplet(0, 1, 2);
        for taxon in 3..6u32 {
            let e = t.incident_edges(t.tip_of(taxon - 1).unwrap())[0];
            t.insert_taxon(taxon, e).unwrap();
        }
        let (mut cache, _) = scorer(&engine, t);
        let moves = enumerate_spr_moves(cache.tree(), 5);
        let scores = score_moves(&mut cache, &engine, &moves, &OptimizeOptions::default());
        assert_eq!(scores.len(), moves.len());
        for s in &scores {
            assert!(s.ln_likelihood.is_finite() && s.ln_likelihood < 0.0);
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // 4×4 matrix index math reads clearest
mod adjusted_clv_tests {
    use super::*;
    use crate::engine::LikelihoodEngine;
    use crate::incremental::ClvCache;
    use fdml_phylo::alignment::Alignment;
    use fdml_phylo::ops::{enumerate_spr_moves, TreeMove};

    /// P(data in `anchor`'s component when `via` is cut | state at anchor),
    /// by direct 4x4 matrix recursion (single rate category assumed).
    fn brute_directional(
        engine: &LikelihoodEngine,
        tree: &Tree,
        pattern: usize,
        anchor: NodeId,
        via: EdgeId,
    ) -> [f64; 4] {
        fn clv(
            engine: &LikelihoodEngine,
            tree: &Tree,
            pattern: usize,
            node: NodeId,
            via: EdgeId,
        ) -> [f64; 4] {
            let mut out = if let Some(tx) = tree.taxon(node) {
                let mask = engine.patterns().state(pattern, tx as usize);
                let mut v = [0.0; 4];
                for s in 0..4 {
                    if mask.allows(s) {
                        v[s] = 1.0;
                    }
                }
                v
            } else {
                [1.0; 4]
            };
            for (e, next) in tree.neighbors(node) {
                if e == via {
                    continue;
                }
                let sub = clv(engine, tree, pattern, next, e);
                let rate = engine.categories().rate_of_pattern(pattern);
                let p = engine.model().transition_matrix(tree.length(e), rate);
                for s in 0..4 {
                    let mut acc = 0.0;
                    for (x, sx) in sub.iter().enumerate() {
                        acc += p[s][x] * sx;
                    }
                    out[s] *= acc;
                }
            }
            out
        }
        clv(engine, tree, pattern, anchor, via)
    }

    #[test]
    fn adjusted_clvs_match_fresh_workspace_on_detached_tree() {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTTTGAACGTACGATTAG"),
            ("t1", "ACGTACGAACGTTTGAACGTACGATTAG"),
            ("t2", "ACGTTCGAACGATTGAACGAACGATAAG"),
            ("t3", "CCGTTCGAACGATAGAACGAACGATAAG"),
            ("t4", "CCGTTCGAACGATAGCACGAAGGATAAC"),
            ("t5", "CCGATCGAACGATAGCACTAAGGTTAAC"),
        ])
        .unwrap();
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(2).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        let e = t.incident_edges(t.tip_of(3).unwrap())[0];
        t.insert_taxon(4, e).unwrap();
        let engine = LikelihoodEngine::new(&a);
        engine.optimize(&mut t, &OptimizeOptions::default());
        let scorer = ClvCache::build(&engine, t);
        let moves = enumerate_spr_moves(scorer.tree(), 5);
        for mv in &moves {
            let TreeMove::Spr {
                root,
                attachment,
                target,
            } = *mv
            else {
                continue;
            };
            let mut ctx = PruneContext::build(scorer.tree(), root, attachment);
            let f = ctx.work_tree.edge_between(target.0, target.1).unwrap();
            let (facing, _away) = if ctx.dist(target.0) <= ctx.dist(target.1) {
                (target.0, target.1)
            } else {
                (target.1, target.0)
            };
            let mut wk2 = WorkCounter::new();
            let mut scratch = KernelScratch::new(engine.categories());
            ctx.ensure_adjusted(&engine, &scorer.clvs, &mut scratch, f, facing, &mut wk2);
            let (adj, adj_sc) = &ctx.adjusted[&(f, facing)];
            // Ground truth: matrix recursion over the remaining component.
            let wt = &ctx.work_tree;
            let np = engine.patterns().num_patterns();
            for p in 0..np {
                let truth = brute_directional(&engine, wt, p, facing, f);
                let scale = crate::clv::SCALE_FACTOR.powi(adj_sc[p]);
                for st in 0..4 {
                    let got = adj[p * 4 + st] / scale;
                    assert!(
                        (got - truth[st]).abs() < 1e-10 * truth[st].max(1.0),
                        "move {mv:?} pattern {p} state {st}: {got} vs {truth:?}"
                    );
                }
            }
        }
    }
}
