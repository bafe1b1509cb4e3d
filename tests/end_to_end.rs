//! Cross-crate integration: data generation → inference → evaluation of
//! the recovered tree, exercising the whole public API the way a user
//! would.

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::likelihood::engine::LikelihoodEngine;
use fastdnaml::phylo::alignment::Alignment;
use fastdnaml::phylo::bipartition::{robinson_foulds, SplitSet};
use fastdnaml::phylo::error::PhyloError;
use fastdnaml::phylo::tree::Tree;
use fastdnaml::phylo::{newick, phylip};

/// A single search's tree and log-likelihood.
struct Found {
    tree: Tree,
    ln_likelihood: f64,
}

/// The serial program: the same search over the in-process transport.
fn serial_search(alignment: &Alignment, config: &SearchConfig) -> Result<Found, PhyloError> {
    let job = ResolvedJob::single(alignment.clone(), config.clone());
    let outcome = run_in_process(&job, RunOptions::default())?;
    let run = &outcome.runs[0];
    Ok(Found {
        tree: run.tree(alignment.names())?,
        ln_likelihood: run.ln_likelihood,
    })
}

/// The same, edit-scored (`--incremental`).
fn edit_scored_search(alignment: &Alignment, config: &SearchConfig) -> Result<Found, PhyloError> {
    let config = SearchConfig {
        incremental: true,
        ..config.clone()
    };
    serial_search(alignment, &config)
}

#[test]
fn search_recovers_generating_topology_with_strong_signal() {
    // Long alignment + moderate divergence → the ML tree should match the
    // generating tree exactly.
    let truth = yule_tree(10, 0.1, 77);
    let config_gen = EvolutionConfig {
        rate_sigma: 0.0,
        prop_invariant: 0.2,
        missing_fraction: 0.0,
        ..Default::default()
    };
    let alignment = evolve(&truth, 2000, &config_gen, 5, "taxon");
    let config = SearchConfig {
        jumble_seed: 3,
        rearrange_radius: 2,
        final_radius: 2,
        ..SearchConfig::default()
    };
    let result = edit_scored_search(&alignment, &config).expect("search succeeds");
    assert_eq!(
        robinson_foulds(&result.tree, &truth, 10),
        0,
        "expected exact recovery; found {}",
        newick::write_tree(&result.tree, alignment.names())
    );
}

#[test]
fn phylip_roundtrip_preserves_search_result() {
    let truth = yule_tree(8, 0.1, 13);
    let alignment = evolve(&truth, 500, &EvolutionConfig::default(), 2, "taxon");
    let text = phylip::write(&alignment);
    let reparsed = phylip::parse(&text).expect("roundtrip parse");
    let config = SearchConfig {
        jumble_seed: 9,
        ..SearchConfig::default()
    };
    let a = serial_search(&alignment, &config).expect("original");
    let b = serial_search(&reparsed, &config).expect("reparsed");
    assert_eq!(
        a.ln_likelihood, b.ln_likelihood,
        "byte-identical inputs, identical search"
    );
    assert_eq!(SplitSet::of_tree(&a.tree, 8), SplitSet::of_tree(&b.tree, 8));
}

#[test]
fn full_and_fast_modes_agree_on_likelihood_scale() {
    let truth = yule_tree(9, 0.1, 19);
    let alignment = evolve(&truth, 600, &EvolutionConfig::default(), 8, "taxon");
    let config = SearchConfig {
        jumble_seed: 1,
        rearrange_radius: 2,
        final_radius: 2,
        ..SearchConfig::default()
    };
    let full = serial_search(&alignment, &config).expect("full");
    let fast = edit_scored_search(&alignment, &config).expect("fast");
    assert!(
        (full.ln_likelihood - fast.ln_likelihood).abs() < 1.0,
        "full {} vs fast {}",
        full.ln_likelihood,
        fast.ln_likelihood
    );
}

#[test]
fn consensus_of_jumbles_contains_well_supported_truth() {
    let truth = yule_tree(12, 0.12, 29);
    let gen = EvolutionConfig {
        rate_sigma: 0.3,
        prop_invariant: 0.2,
        missing_fraction: 0.0,
        ..Default::default()
    };
    let alignment = evolve(&truth, 1500, &gen, 4, "taxon");
    let config = SearchConfig {
        rearrange_radius: 2,
        final_radius: 2,
        ..SearchConfig::default()
    };
    let job = ResolvedJob {
        alignment: alignment.clone(),
        config,
        seeds: vec![1, 5, 9],
    };
    let farm = run_in_process(&job, RunOptions::default()).expect("jumbles succeed");
    let (results, consensus) = (farm.runs, farm.consensus);
    assert_eq!(results.len(), 3);
    // The consensus must be mostly made of true splits.
    let truth_splits = SplitSet::of_tree(&truth, 12);
    let hits = consensus
        .splits
        .iter()
        .filter(|s| truth_splits.splits().contains(&s.split))
        .count();
    assert!(
        hits * 2 >= consensus.splits.len(),
        "{hits} of {} consensus splits are true",
        consensus.splits.len()
    );
}

#[test]
fn final_tree_is_a_local_optimum_under_nni() {
    // The converged tree should not be improvable by any radius-1 move
    // (that is exactly what the rearrangement loop guarantees).
    let truth = yule_tree(8, 0.1, 31);
    let alignment = evolve(&truth, 800, &EvolutionConfig::default(), 3, "taxon");
    let config = SearchConfig {
        jumble_seed: 7,
        ..SearchConfig::default()
    };
    let result = serial_search(&alignment, &config).expect("search");
    let engine = LikelihoodEngine::new(&alignment);
    let moves = fastdnaml::phylo::ops::enumerate_spr_moves(&result.tree, 1);
    for mv in &moves {
        let mut cand = result.tree.clone();
        fastdnaml::phylo::ops::apply_move(&mut cand, mv).expect("apply");
        let lnl = engine
            .optimize(
                &mut cand,
                &fastdnaml::likelihood::engine::OptimizeOptions::default(),
            )
            .ln_likelihood;
        assert!(
            lnl <= result.ln_likelihood + 1e-3,
            "NNI move {mv:?} improves {} → {lnl}",
            result.ln_likelihood
        );
    }
}
