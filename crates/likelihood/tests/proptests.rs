//! Property-based tests of the likelihood kernels.

use fdml_likelihood::categories::RateCategories;
use fdml_likelihood::clv::WTerms;
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::f84::F84Model;
use fdml_likelihood::kernels::blocked_ln_prod;
use fdml_likelihood::newton::{optimize_branch, NewtonOptions};
use fdml_likelihood::reference::{edge_log_likelihood, edge_w_terms};
use fdml_likelihood::work::WorkCounter;
use fdml_phylo::alignment::{Alignment, TaxonId};
use fdml_phylo::patterns::PatternAlignment;
use fdml_phylo::tree::Tree;
use proptest::prelude::*;

fn arb_freqs() -> impl Strategy<Value = [f64; 4]> {
    [0.08f64..1.0, 0.08f64..1.0, 0.08f64..1.0, 0.08f64..1.0].prop_map(|raw| {
        let total: f64 = raw.iter().sum();
        [
            raw[0] / total,
            raw[1] / total,
            raw[2] / total,
            raw[3] / total,
        ]
    })
}

/// Random alignment over the plain bases (no ambiguity) with a seeded
/// xorshift, so the strategy shrinks well.
fn random_alignment(taxa: usize, sites: usize, seed: u64) -> Alignment {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<(String, String)> = (0..taxa)
        .map(|t| {
            let seq: String = (0..sites).map(|_| BASES[(next() % 4) as usize]).collect();
            (format!("t{t}"), seq)
        })
        .collect();
    let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    Alignment::from_strings(&refs).expect("well-formed")
}

fn random_tree(taxa: usize, seed: u64) -> Tree {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut tree = Tree::triplet(0, 1, 2);
    for t in 3..taxa as TaxonId {
        let edges: Vec<_> = tree.edge_ids().collect();
        let e = edges[(next() % edges.len() as u64) as usize];
        tree.insert_taxon(t, e).expect("insertable");
    }
    for e in tree.edge_ids().collect::<Vec<_>>() {
        let len = 0.01 + (next() % 1000) as f64 / 2000.0;
        tree.set_length(e, len);
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn log_likelihood_is_always_negative_and_finite(
        taxa in 4usize..12,
        sites in 8usize..60,
        seed in 0u64..5_000,
    ) {
        let a = random_alignment(taxa, sites, seed);
        let tree = random_tree(taxa, seed ^ 0xABCD);
        let engine = LikelihoodEngine::new(&a);
        let lnl = engine.evaluate(&tree).ln_likelihood;
        prop_assert!(lnl.is_finite());
        prop_assert!(lnl < 0.0, "probability of a random alignment must be < 1");
    }

    #[test]
    fn optimization_never_reduces_the_likelihood(
        taxa in 4usize..10,
        sites in 10usize..50,
        seed in 0u64..5_000,
    ) {
        let a = random_alignment(taxa, sites, seed);
        let mut tree = random_tree(taxa, seed ^ 0x1111);
        let engine = LikelihoodEngine::new(&a);
        let before = engine.evaluate(&tree).ln_likelihood;
        let after = engine.optimize(&mut tree, &OptimizeOptions::default()).ln_likelihood;
        prop_assert!(after >= before - 1e-9, "{} → {}", before, after);
    }

    #[test]
    fn reversibility_edge_likelihood_is_direction_free(
        freqs in arb_freqs(),
        tt in 0.8f64..12.0,
        t in 0.001f64..3.0,
        u in proptest::collection::vec(0.01f64..1.0, 4),
        d in proptest::collection::vec(0.01f64..1.0, 4),
    ) {
        // Swapping the two CLVs across a branch must not change the
        // likelihood (time-reversibility of F84).
        let model = F84Model::new(freqs, tt);
        let cats = RateCategories::single(1);
        let mut w_ud = vec![WTerms { w1: 0.0, w2: 0.0, w3: 0.0 }];
        let mut w_du = vec![WTerms { w1: 0.0, w2: 0.0, w3: 0.0 }];
        edge_w_terms(&model, &u, &d, &mut w_ud);
        edge_w_terms(&model, &d, &u, &mut w_du);
        let a = edge_log_likelihood(&model, &cats, t, &w_ud, &[1], &[0]);
        let b = edge_log_likelihood(&model, &cats, t, &w_du, &[1], &[0]);
        prop_assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
    }

    #[test]
    fn newton_result_at_least_as_good_as_start(
        freqs in arb_freqs(),
        tt in 0.8f64..10.0,
        t0 in 0.001f64..5.0,
        u in proptest::collection::vec(0.01f64..1.0, 8),
        d in proptest::collection::vec(0.01f64..1.0, 8),
    ) {
        let model = F84Model::new(freqs, tt);
        let cats = RateCategories::single(2);
        let mut w = vec![WTerms { w1: 0.0, w2: 0.0, w3: 0.0 }; 2];
        edge_w_terms(&model, &u[..4], &d[..4], &mut w[0..1]);
        edge_w_terms(&model, &u[4..], &d[4..], &mut w[1..2]);
        let weights = [3u32, 2];
        let scales = [0i32; 2];
        let mut work = WorkCounter::new();
        let t = optimize_branch(&model, &cats, &w, &weights, t0, &NewtonOptions::default(), &mut work);
        let before = edge_log_likelihood(&model, &cats, t0.clamp(1e-8, 30.0), &w, &weights, &scales);
        let after = edge_log_likelihood(&model, &cats, t, &w, &weights, &scales);
        prop_assert!(after >= before - 1e-9, "start {} (lnl {}) → {} (lnl {})", t0, before, t, after);
    }

    #[test]
    fn blocked_ln_prod_partials_merge_bit_identically(
        n in 1usize..1500,
        seed in 0u64..10_000,
        block in 1usize..600,
    ) {
        // The blocked fold's merge contract, in miniature: chunk partials
        // computed independently (here: in reverse chunk order) and merged
        // in chunk order reproduce the sequential blocked fold bit for bit.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let factors: Vec<(f64, u32)> = (0..n)
            .map(|_| {
                // Mantissas spanning the underflow regime the rescaled
                // kernels produce, weights like real pattern weights.
                let exp = (next() % 120) as i32 - 100;
                let m = (1.0 + (next() % 1000) as f64 / 1000.0) * 2f64.powi(exp);
                (m.max(f64::MIN_POSITIVE), 1 + (next() % 600) as u32)
            })
            .collect();
        let sequential = blocked_ln_prod(&factors, block);
        let mut partials: Vec<(usize, fdml_likelihood::kernels::LnProd)> = factors
            .chunks(block)
            .enumerate()
            .rev()
            .map(|(i, chunk)| {
                let mut p = fdml_likelihood::kernels::LnProd::new();
                for &(f, w) in chunk {
                    p.mul_pow(f, w);
                }
                (i, p)
            })
            .collect();
        partials.sort_by_key(|&(i, _)| i);
        let mut merged = fdml_likelihood::kernels::LnProd::new();
        for (_, p) in &partials {
            merged.merge(p);
        }
        prop_assert_eq!(
            merged.value().to_bits(),
            sequential.value().to_bits(),
            "schedule-independent merge diverged (n={}, block={})",
            n,
            block
        );
        // A block covering every factor degenerates to the serial fold.
        let serial = {
            let mut p = fdml_likelihood::kernels::LnProd::new();
            for &(f, w) in &factors {
                p.mul_pow(f, w);
            }
            p
        };
        let one_block = blocked_ln_prod(&factors, n.max(block));
        prop_assert_eq!(one_block.value().to_bits(), serial.value().to_bits());
    }

    #[test]
    fn pattern_weights_equal_repeated_columns(
        taxa in 4usize..8,
        seed in 0u64..3_000,
        repeat in 2usize..5,
    ) {
        // An alignment where every column appears `repeat` times has the
        // likelihood of the unique columns times the multiplicity.
        let base = random_alignment(taxa, 12, seed);
        let rows: Vec<(String, String)> = (0..taxa as TaxonId)
            .map(|t| {
                let chars: Vec<char> = fdml_phylo::dna::sequence_to_string(base.sequence(t)).chars().collect();
                let mut s = String::new();
                for &c in &chars {
                    for _ in 0..repeat {
                        s.push(c);
                    }
                }
                (base.name(t).to_string(), s)
            })
            .collect();
        let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let repeated = Alignment::from_strings(&refs).unwrap();
        let tree = random_tree(taxa, seed ^ 0x77);
        let model = F84Model::uniform(2.0);
        let e1 = LikelihoodEngine::with_parts(
            PatternAlignment::compress(&base),
            model.clone(),
            RateCategories::single(PatternAlignment::compress(&base).num_patterns()),
        );
        let e2 = LikelihoodEngine::with_parts(
            PatternAlignment::compress(&repeated),
            model,
            RateCategories::single(PatternAlignment::compress(&repeated).num_patterns()),
        );
        let l1 = e1.evaluate(&tree).ln_likelihood;
        let l2 = e2.evaluate(&tree).ln_likelihood;
        prop_assert!((l2 - repeat as f64 * l1).abs() < 1e-6, "{} vs {}×{}", l2, repeat, l1);
    }
}
