//! Comparing method classes on one dataset — the paper's stated value of a
//! fast parallel ML code: "it permits biologists to compare ML methods
//! with other phylogenetic inference methods on the basis of the quality
//! of the biological results obtained. Thus a biologist's choice of
//! methods is not constrained because one method cannot be completed in a
//! reasonable amount of time."
//!
//! ```sh
//! cargo run --release --example methods_comparison
//! ```

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::likelihood::distances::distance_matrix;
use fastdnaml::likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fastdnaml::phylo::bipartition::robinson_foulds;
use fastdnaml::phylo::nj::neighbor_joining;
use fastdnaml::phylo::parsimony::fitch_score;
use fastdnaml::phylo::patterns::PatternAlignment;

fn main() {
    // A 14-taxon dataset from a known tree.
    let truth = yule_tree(14, 0.09, 71);
    let alignment = evolve(&truth, 900, &EvolutionConfig::default(), 12, "taxon");
    let engine = LikelihoodEngine::new(&alignment);
    let patterns = PatternAlignment::compress(&alignment);
    println!(
        "dataset: {} taxa × {} sites ({} patterns)\n",
        alignment.num_taxa(),
        alignment.num_sites(),
        patterns.num_patterns()
    );

    // Distance method: ML pairwise distances → neighbor joining.
    let mut nj_tree = neighbor_joining(&distance_matrix(&engine));
    let nj_lnl = engine
        .optimize(&mut nj_tree, &OptimizeOptions::default())
        .ln_likelihood;

    // Maximum likelihood: the fastDNAml search.
    let config = SearchConfig {
        jumble_seed: 3,
        rearrange_radius: 2,
        final_radius: 2,
        incremental: true,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::single(alignment.clone(), config);
    let ml = run_in_process(&job, RunOptions::default()).expect("ML search");
    let ml_tree = ml.runs[0].tree(alignment.names()).expect("ML tree parses");

    // Score both trees under both criteria.
    let (pars_nj, _) = fitch_score(&nj_tree, &patterns);
    let (pars_ml, _) = fitch_score(&ml_tree, &patterns);

    println!(
        "{:<22} {:>14} {:>12} {:>12}",
        "method", "lnL", "parsimony", "RF vs truth"
    );
    println!(
        "{:<22} {:>14.2} {:>12} {:>12}",
        "neighbor joining",
        nj_lnl,
        pars_nj,
        robinson_foulds(&nj_tree, &truth, 14)
    );
    println!(
        "{:<22} {:>14.2} {:>12} {:>12}",
        "maximum likelihood",
        ml.runs[0].ln_likelihood,
        pars_ml,
        robinson_foulds(&ml_tree, &truth, 14)
    );
    println!(
        "\nML tree is never worse in likelihood (Δ = {:+.2}); the criteria can",
        ml.runs[0].ln_likelihood - nj_lnl
    );
    println!("disagree on topology, which is exactly what the comparison reveals.");
}
