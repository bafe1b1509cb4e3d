//! The DNArates companion workflow (paper §2): estimate per-site rates on a
//! reference tree, group them into categories, and rerun the likelihood
//! with the category model — heterogeneous data fit markedly better.
//!
//! ```sh
//! cargo run --release --example rate_estimation
//! ```

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fastdnaml::rates::{categorize, estimate_rates, RateGrid};

fn main() {
    // Strongly heterogeneous data: lognormal site rates + invariant sites.
    let tree = yule_tree(16, 0.1, 31);
    let gen_config = EvolutionConfig {
        rate_sigma: 1.2,
        prop_invariant: 0.4,
        ..Default::default()
    };
    let alignment = evolve(&tree, 800, &gen_config, 6, "taxon");

    // Reference tree from a homogeneous-model search.
    let config = SearchConfig {
        jumble_seed: 1,
        incremental: true,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::single(alignment.clone(), config);
    let outcome = run_in_process(&job, RunOptions::default()).expect("search");
    let result = &outcome.runs[0];
    let tree = result.tree(alignment.names()).expect("tree parses");
    println!(
        "reference tree lnL (single rate): {:.2}",
        result.ln_likelihood
    );

    // DNArates: per-site ML rates on the reference tree.
    let engine = LikelihoodEngine::new(&alignment);
    let grid = RateGrid::default();
    let estimate = estimate_rates(&engine, &tree, &grid);
    let mean: f64 = estimate.per_site.iter().sum::<f64>() / estimate.per_site.len() as f64;
    let slow = estimate
        .per_site
        .iter()
        .filter(|&&r| r <= grid.min * 1.01)
        .count();
    println!(
        "estimated rates over {} sites: mean {:.2}, {} sites pinned at the slow bound",
        estimate.per_site.len(),
        mean,
        slow
    );

    // Categorize into a handful of rate classes and refit.
    for k in [2usize, 4, 8] {
        let cats = categorize(&estimate.per_pattern, engine.patterns().weights(), k);
        let mut engine_k = engine.clone();
        engine_k.set_categories(cats);
        let mut t = tree.clone();
        let refit = engine_k.optimize(&mut t, &OptimizeOptions::default());
        println!(
            "{k} categories: lnL {:.2}  (Δ vs single rate: {:+.2})",
            refit.ln_likelihood,
            refit.ln_likelihood - result.ln_likelihood
        );
    }
    println!("\nmore categories capture the simulated heterogeneity → higher likelihood.");
}
