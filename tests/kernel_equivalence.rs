//! Cross-path kernel equivalence matrix.
//!
//! The contract this suite pins: the log-likelihood surface is a property
//! of the *data and the model*, not of how the kernels happen to run. On
//! seeded datasets it drives every execution path the dispatcher can take
//! — {every ISA lane the host supports} × {Reference, Optimized} —
//! through evaluation, branch optimization, Newton derivatives,
//! incremental `score_edit`, and a whole stepwise search, and demands:
//!
//! * within one `KernelMode`, every ISA lane is **bit-identical** (the
//!   SIMD lanes execute the exact scalar FMA DAG vertically);
//! * across modes, lnL agrees to the established 1e-9 relative contract
//!   (the optimized path refolds coefficients, so bits may differ);
//! * final search trees are **byte-identical** Newick across the matrix.
//!
//! The ISA override is process-global; because every lane is bit-exact,
//! concurrent tests flipping it cannot change any asserted value.

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::evolve::{evolve, EvolutionConfig};
use fastdnaml::datagen::randtree::yule_tree;
use fastdnaml::likelihood::categories::RateCategories;
use fastdnaml::likelihood::clv::WTerms;
use fastdnaml::likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fastdnaml::likelihood::incremental::ClvCache;
use fastdnaml::likelihood::isa::{self, KernelIsa};
use fastdnaml::likelihood::kernels::{self, EdgeDerivCoefficients};
use fastdnaml::likelihood::reference;
use fastdnaml::likelihood::KernelMode;
use fastdnaml::phylo::alignment::Alignment;
use fastdnaml::phylo::newick;
use fastdnaml::phylo::ops::enumerate_spr_moves;
use fastdnaml::phylo::tree::Tree;

/// Every lane this host can execute: on an AVX-512 host that is scalar,
/// AVX2 and AVX-512, so the narrower vector lane is not skipped.
fn lanes() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|lane| lane.supported())
        .collect()
}

fn fixture(taxa: usize, sites: usize, seed: u64) -> (Tree, Alignment) {
    let tree = yule_tree(taxa, 0.08, seed);
    let alignment = evolve(&tree, sites, &EvolutionConfig::default(), seed ^ 0x5a, "t");
    (tree, alignment)
}

/// Score a fixed slice of radius-1 SPR edits through a fresh CLV cache.
fn score_edits(engine: &LikelihoodEngine, base: &Tree) -> Vec<f64> {
    let moves = enumerate_spr_moves(base, 1);
    let mut cache = ClvCache::build(engine, base.clone());
    moves
        .iter()
        .take(6)
        .map(|mv| {
            cache
                .score_edit(engine, mv, &OptimizeOptions::default())
                .expect("edit scores")
                .ln_likelihood
        })
        .collect()
}

/// The full matrix on two seeded datasets — the second one compresses to
/// more patterns than one `PAR_BLOCK`, so multi-block folds are genuinely
/// exercised.
#[test]
fn matrix_evaluate_optimize_and_score_edit_agree() {
    for (taxa, sites, seed) in [(10usize, 300usize, 11u64), (20, 800, 23)] {
        let (tree, alignment) = fixture(taxa, sites, seed);
        let mut cross_mode: Vec<f64> = Vec::new();
        for mode in [KernelMode::Reference, KernelMode::Optimized] {
            // Baseline: the scalar lane.
            isa::set_isa(Some(KernelIsa::Scalar)).unwrap();
            let base_engine = LikelihoodEngine::new(&alignment).with_kernel_mode(mode);
            let base_eval = base_engine.evaluate(&tree).ln_likelihood;
            let mut base_tree = tree.clone();
            let base_opt = base_engine
                .optimize(&mut base_tree, &OptimizeOptions::default())
                .ln_likelihood;
            let base_edits = score_edits(&base_engine, &tree);
            cross_mode.push(base_eval);

            for lane in lanes() {
                isa::set_isa(Some(lane)).unwrap();
                let tag = format!("taxa={taxa} mode={mode:?} lane={}", lane.name());
                let engine = LikelihoodEngine::new(&alignment).with_kernel_mode(mode);
                assert_eq!(
                    engine.evaluate(&tree).ln_likelihood.to_bits(),
                    base_eval.to_bits(),
                    "evaluate diverged ({tag})"
                );
                let mut t = tree.clone();
                let opt = engine.optimize(&mut t, &OptimizeOptions::default());
                assert_eq!(
                    opt.ln_likelihood.to_bits(),
                    base_opt.to_bits(),
                    "optimize lnL diverged ({tag})"
                );
                assert_eq!(
                    newick::write_tree(&t, alignment.names()),
                    newick::write_tree(&base_tree, alignment.names()),
                    "optimized tree diverged ({tag})"
                );
                for e in base_tree.edge_ids() {
                    assert_eq!(
                        t.length(e).to_bits(),
                        base_tree.length(e).to_bits(),
                        "branch length diverged on edge {e:?} ({tag})"
                    );
                }
                let edits = score_edits(&engine, &tree);
                assert_eq!(edits.len(), base_edits.len());
                for (i, (got, want)) in edits.iter().zip(&base_edits).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "score_edit[{i}] diverged ({tag})"
                    );
                }
            }
        }
        // Across modes the optimized path refolds coefficients; 1e-9
        // relative is the established contract.
        let (r, o) = (cross_mode[0], cross_mode[1]);
        assert!(
            (r - o).abs() <= 1e-9 * r.abs(),
            "modes diverged beyond contract: reference {r} vs optimized {o}"
        );
    }
    isa::set_isa(None).unwrap();
}

/// Newton's fused (lnL, d1, d2) fold is bit-identical on every lane — all
/// three outputs, not just the likelihood — for a short block, exactly one
/// `PAR_BLOCK`, and several blocks with a ragged tail.
#[test]
fn d012_fold_is_bit_identical_across_lanes() {
    // Deterministic xorshift64* stream; no RNG crate needed here.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    for np in [5usize, 256, 1111] {
        let model = fastdnaml::likelihood::f84::F84Model::new([0.3, 0.2, 0.25, 0.25], 2.0);
        let cats = RateCategories::single(np);
        let runs = kernels::category_runs(&cats);
        let u: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
        let d: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
        let mut w = vec![WTerms::ZERO; np];
        reference::edge_w_terms(&model, &u, &d, &mut w);
        let weights: Vec<u32> = (0..np).map(|_| 1 + (next() * 5.0) as u32).collect();
        let (w, weights) = (
            kernels::WPlanes::new(&w),
            kernels::PatternWeights::new(&weights),
        );
        let mut deriv = EdgeDerivCoefficients::default();
        deriv.fill(&model, &cats, 0.37);
        isa::set_isa(Some(KernelIsa::Scalar)).unwrap();
        let base = kernels::lnl_d012_folded(&deriv, &runs, &w, &weights);
        for lane in lanes() {
            isa::set_isa(Some(lane)).unwrap();
            let got = kernels::lnl_d012_folded(&deriv, &runs, &w, &weights);
            let lane = lane.name();
            assert_eq!(got.0.to_bits(), base.0.to_bits(), "lnL np={np} {lane}");
            assert_eq!(got.1.to_bits(), base.1.to_bits(), "d1 np={np} {lane}");
            assert_eq!(got.2.to_bits(), base.2.to_bits(), "d2 np={np} {lane}");
        }
    }
    isa::set_isa(None).unwrap();
}

/// A whole stepwise search lands on a byte-identical final tree on every
/// lane.
#[test]
fn full_search_trees_are_byte_identical_across_the_matrix() {
    let (_, alignment) = fixture(8, 200, 5);
    isa::set_isa(Some(KernelIsa::Scalar)).unwrap();
    let base_cfg = SearchConfig {
        jumble_seed: 3,
        ..SearchConfig::default()
    };
    let serial_search = |config: &SearchConfig| {
        let job = ResolvedJob::single(alignment.clone(), config.clone());
        run_in_process(&job, RunOptions::default()).map(|found| found.runs[0].clone())
    };
    let base = serial_search(&base_cfg).unwrap();
    let base_newick = base.newick.clone();
    for lane in lanes() {
        isa::set_isa(Some(lane)).unwrap();
        let got = serial_search(&base_cfg).unwrap();
        assert_eq!(
            got.ln_likelihood.to_bits(),
            base.ln_likelihood.to_bits(),
            "search lnL diverged (lane={})",
            lane.name()
        );
        assert_eq!(
            got.newick,
            base_newick,
            "search tree diverged (lane={})",
            lane.name()
        );
    }
    isa::set_isa(None).unwrap();
}
