//! Seeded randomized equivalence between the optimized kernels and the
//! scalar reference oracle.
//!
//! The optimized path reorders floating-point operations (folded
//! coefficients, `mul_add`, batched logarithms), so exact bit equality is
//! not expected; the contract is ≤1e-12 per CLV entry, ≤1e-9 on
//! log-likelihoods, and *identical* integer scale decisions.

use fdml_likelihood::categories::RateCategories;
use fdml_likelihood::clv::WTerms;
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::f84::F84Model;
use fdml_likelihood::kernels::{self, KernelMode, KernelScratch};
use fdml_likelihood::newton::NewtonOptions;
use fdml_likelihood::reference;
use fdml_likelihood::work::WorkCounter;
use fdml_phylo::alignment::{Alignment, TaxonId};
use fdml_phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CLV_TOL: f64 = 1e-12;
const LNL_TOL: f64 = 1e-9;

fn random_model(rng: &mut StdRng) -> F84Model {
    let raw = [
        rng.random_range(0.1f64..1.0),
        rng.random_range(0.1f64..1.0),
        rng.random_range(0.1f64..1.0),
        rng.random_range(0.1f64..1.0),
    ];
    let total: f64 = raw.iter().sum();
    let freqs = [
        raw[0] / total,
        raw[1] / total,
        raw[2] / total,
        raw[3] / total,
    ];
    F84Model::new(freqs, rng.random_range(0.8f64..8.0))
}

fn random_categories(rng: &mut StdRng, np: usize, ncat: usize) -> RateCategories {
    if ncat == 1 {
        return RateCategories::single(np);
    }
    let rates: Vec<f64> = (0..ncat).map(|_| rng.random_range(0.2f64..3.0)).collect();
    let assignment: Vec<u32> = (0..np).map(|_| rng.random_range(0..ncat as u32)).collect();
    RateCategories::new(rates, assignment)
}

/// A random strictly-positive CLV; `tiny` scales some patterns down to the
/// underflow regime so the rescaling paths are exercised.
fn random_clv(rng: &mut StdRng, np: usize, tiny: bool) -> Vec<f64> {
    (0..np * 4)
        .map(|i| {
            let v = rng.random_range(0.01f64..1.0);
            if tiny && (i / 4) % 3 == 0 {
                v * 1e-60
            } else {
                v
            }
        })
        .collect()
}

fn random_weights(rng: &mut StdRng, np: usize) -> Vec<u32> {
    (0..np).map(|_| rng.random_range(1u32..7)).collect()
}

#[test]
fn combine_matches_reference_across_category_counts() {
    for &ncat in &[1usize, 3, 35] {
        for &(np, tiny) in &[(1usize, false), (7, false), (64, false), (193, true)] {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (ncat as u64) << 16 ^ np as u64);
            let model = random_model(&mut rng);
            let cats = random_categories(&mut rng, np, ncat.min(np));
            let mut scratch = KernelScratch::new(&cats);
            let clv1 = random_clv(&mut rng, np, tiny);
            let clv2 = random_clv(&mut rng, np, tiny);
            let scale1: Vec<i32> = (0..np).map(|_| rng.random_range(0u32..3) as i32).collect();
            let scale2: Vec<i32> = (0..np).map(|_| rng.random_range(0u32..3) as i32).collect();
            let t1 = rng.random_range(0.001f64..5.0);
            let t2 = rng.random_range(0.001f64..5.0);

            let mut out_ref = vec![0.0; np * 4];
            let mut sc_ref = vec![0i32; np];
            let co1 = reference::branch_coefficients(&model, &cats, t1);
            let co2 = reference::branch_coefficients(&model, &cats, t2);
            reference::combine_children(
                &model,
                &cats,
                &co1,
                &clv1,
                &scale1,
                &co2,
                &clv2,
                &scale2,
                &mut out_ref,
                &mut sc_ref,
            );

            let mut out_opt = vec![0.0; np * 4];
            let mut sc_opt = vec![0i32; np];
            kernels::combine_edges(
                KernelMode::Optimized,
                &model,
                &cats,
                &mut scratch,
                t1,
                &clv1,
                &scale1,
                t2,
                &clv2,
                &scale2,
                &mut out_opt,
                &mut sc_opt,
            );

            assert_eq!(
                sc_opt, sc_ref,
                "scale decisions diverged (np={np} ncat={ncat})"
            );
            for (i, (o, r)) in out_opt.iter().zip(&out_ref).enumerate() {
                let tol = CLV_TOL * r.abs().max(1.0);
                assert!(
                    (o - r).abs() <= tol,
                    "clv[{i}]: optimized {o} vs reference {r} (np={np} ncat={ncat})"
                );
            }
        }
    }
}

#[test]
fn w_terms_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for np in [1usize, 13, 200] {
        let model = random_model(&mut rng);
        let u = random_clv(&mut rng, np, false);
        let d = random_clv(&mut rng, np, false);
        let mut w_ref = vec![WTerms::ZERO; np];
        let mut w_opt = vec![WTerms::ZERO; np];
        reference::edge_w_terms(&model, &u, &d, &mut w_ref);
        kernels::compute_w_terms(KernelMode::Optimized, &model, &u, &d, &mut w_opt);
        for (p, (a, b)) in w_opt.iter().zip(&w_ref).enumerate() {
            for (x, y) in [(a.w1, b.w1), (a.w2, b.w2), (a.w3, b.w3)] {
                assert!(
                    (x - y).abs() <= CLV_TOL * y.abs().max(1.0),
                    "w[{p}]: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn branch_lnl_matches_reference() {
    for &ncat in &[1usize, 3, 35] {
        let mut rng = StdRng::seed_from_u64(0xABCD + ncat as u64);
        for np in [1usize, 17, 311] {
            let model = random_model(&mut rng);
            let cats = random_categories(&mut rng, np, ncat.min(np));
            let mut scratch = KernelScratch::new(&cats);
            let u = random_clv(&mut rng, np, false);
            let d = random_clv(&mut rng, np, false);
            let mut w = vec![WTerms::ZERO; np];
            reference::edge_w_terms(&model, &u, &d, &mut w);
            let weights = random_weights(&mut rng, np);
            let bound = kernels::PatternWeights::new(&weights);
            let scale: Vec<i32> = (0..np).map(|_| rng.random_range(0u32..4) as i32).collect();
            let t = rng.random_range(0.001f64..8.0);
            let lnl_ref = reference::edge_log_likelihood(&model, &cats, t, &w, &weights, &scale);
            let lnl_opt = kernels::branch_lnl(
                KernelMode::Optimized,
                &model,
                &cats,
                &mut scratch,
                t,
                &w,
                &bound,
                &scale,
            );
            assert!(
                (lnl_opt - lnl_ref).abs() <= LNL_TOL * lnl_ref.abs().max(1.0),
                "lnL {lnl_opt} vs {lnl_ref} (np={np} ncat={ncat})"
            );
        }
    }
}

#[test]
fn newton_optimization_matches_reference() {
    for &ncat in &[1usize, 3, 35] {
        let mut rng = StdRng::seed_from_u64(0x7777 * (ncat as u64 + 1));
        for np in [5usize, 97] {
            let model = random_model(&mut rng);
            let cats = random_categories(&mut rng, np, ncat.min(np));
            let mut scratch = KernelScratch::new(&cats);
            let u = random_clv(&mut rng, np, false);
            let d = random_clv(&mut rng, np, false);
            let mut w = vec![WTerms::ZERO; np];
            reference::edge_w_terms(&model, &u, &d, &mut w);
            let weights = kernels::PatternWeights::new(&random_weights(&mut rng, np));
            let t0 = rng.random_range(0.01f64..2.0);
            let opts = NewtonOptions::default();
            let mut wk_ref = WorkCounter::new();
            let mut wk_opt = WorkCounter::new();
            let t_ref = kernels::optimize_branch_dispatch(
                KernelMode::Reference,
                &model,
                &cats,
                &mut scratch,
                &w,
                &weights,
                t0,
                &opts,
                &mut wk_ref,
            );
            let t_opt = kernels::optimize_branch_dispatch(
                KernelMode::Optimized,
                &model,
                &cats,
                &mut scratch,
                &w,
                &weights,
                t0,
                &opts,
                &mut wk_opt,
            );
            // Identical safeguarded iteration, same work accounting; the
            // optimum itself agrees to optimizer tolerance.
            assert_eq!(wk_opt.newton_pattern_iters, wk_ref.newton_pattern_iters);
            assert!(
                (t_opt - t_ref).abs() <= 1e-6 * t_ref.max(1e-3),
                "branch length {t_opt} vs {t_ref} (np={np} ncat={ncat})"
            );
        }
    }
}

fn random_alignment(taxa: usize, sites: usize, seed: u64) -> Alignment {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<(String, String)> = (0..taxa)
        .map(|t| {
            let seq: String = (0..sites)
                .map(|_| BASES[rng.random_range(0usize..4)])
                .collect();
            (format!("t{t}"), seq)
        })
        .collect();
    let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    Alignment::from_strings(&refs).expect("well-formed")
}

fn random_tree(taxa: usize, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = Tree::triplet(0, 1, 2);
    for t in 3..taxa as TaxonId {
        let edges: Vec<_> = tree.edge_ids().collect();
        let e = edges[rng.random_range(0..edges.len())];
        tree.insert_taxon(t, e).expect("insertable");
    }
    for e in tree.edge_ids().collect::<Vec<_>>() {
        tree.set_length(e, rng.random_range(0.01f64..0.6));
    }
    tree
}

#[test]
fn engine_modes_agree_on_evaluate_and_optimize() {
    for seed in 0..4u64 {
        let a = random_alignment(9, 160, 1000 + seed);
        let tree = random_tree(9, 2000 + seed);
        let opt_engine = LikelihoodEngine::new(&a);
        let ref_engine = LikelihoodEngine::new(&a).with_kernel_mode(KernelMode::Reference);
        assert_eq!(opt_engine.kernel_mode(), KernelMode::Optimized);

        let ev_opt = opt_engine.evaluate(&tree);
        let ev_ref = ref_engine.evaluate(&tree);
        assert!(
            (ev_opt.ln_likelihood - ev_ref.ln_likelihood).abs()
                <= LNL_TOL * ev_ref.ln_likelihood.abs(),
            "evaluate: {} vs {} (seed {seed})",
            ev_opt.ln_likelihood,
            ev_ref.ln_likelihood
        );
        // Work accounting is mode-independent by construction.
        assert_eq!(ev_opt.work, ev_ref.work);

        let mut t1 = tree.clone();
        let mut t2 = tree.clone();
        let op_opt = opt_engine.optimize(&mut t1, &OptimizeOptions::default());
        let op_ref = ref_engine.optimize(&mut t2, &OptimizeOptions::default());
        assert!(
            (op_opt.ln_likelihood - op_ref.ln_likelihood).abs()
                <= 1e-5 * op_ref.ln_likelihood.abs(),
            "optimize: {} vs {} (seed {seed})",
            op_opt.ln_likelihood,
            op_ref.ln_likelihood
        );
    }
}

#[test]
fn engine_modes_agree_under_deep_trees_with_rescaling() {
    // Enough taxa with long branches that CLV products underflow without
    // rescaling; both modes must take identical scale decisions.
    let a = random_alignment(40, 80, 42);
    let mut tree = random_tree(40, 43);
    for e in tree.edge_ids().collect::<Vec<_>>() {
        tree.set_length(e, 2.5);
    }
    let opt_engine = LikelihoodEngine::new(&a);
    let ref_engine = LikelihoodEngine::new(&a).with_kernel_mode(KernelMode::Reference);
    let l_opt = opt_engine.evaluate(&tree).ln_likelihood;
    let l_ref = ref_engine.evaluate(&tree).ln_likelihood;
    assert!(l_opt.is_finite());
    assert!(
        (l_opt - l_ref).abs() <= LNL_TOL * l_ref.abs(),
        "{l_opt} vs {l_ref}"
    );
}
