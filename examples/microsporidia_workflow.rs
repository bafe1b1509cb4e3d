//! The biologist's workflow from §2 and §3 of the paper: analyze many
//! random taxon orderings of one dataset and build the majority-rule
//! consensus of the resulting trees (the paper's Microsporidia study used
//! the 50-taxon rRNA alignment; here its synthetic stand-in, scaled down
//! for a quick demo).
//!
//! ```sh
//! cargo run --release --example microsporidia_workflow
//! ```

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::datasets::{paper_dataset, PaperDataset};
use fastdnaml::phylo::bipartition::{robinson_foulds, SplitSet};
use fastdnaml::phylo::newick;

fn main() {
    let (alignment, generating_tree) = paper_dataset(PaperDataset::Taxa50, 0.08);
    println!(
        "dataset: {} taxa × {} sites (synthetic stand-in for the Microsporidia rRNA data)",
        alignment.num_taxa(),
        alignment.num_sites()
    );

    let config = SearchConfig {
        rearrange_radius: 2,
        final_radius: 2,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::from_parts(alignment.clone(), config, 5).expect("five jumbles plan");
    println!(
        "running {} jumbles (random addition orders)…",
        job.seeds.len()
    );
    let farm = run_in_process(&job, RunOptions::default()).expect("jumbles succeed");
    let (results, consensus) = (farm.runs, farm.consensus);

    println!(
        "\n{:>6} {:>16} {:>12} {:>14}",
        "seed", "lnL", "rounds", "RF vs truth"
    );
    for r in &results {
        let tree = newick::parse_tree(&r.newick, &alignment).expect("jumble tree parses");
        println!(
            "{:>6} {:>16.2} {:>12} {:>14}",
            r.seed,
            r.ln_likelihood,
            r.rounds,
            robinson_foulds(&tree, &generating_tree, 50)
        );
    }

    let best = results
        .iter()
        .max_by(|a, b| a.ln_likelihood.total_cmp(&b.ln_likelihood))
        .expect("at least one jumble");
    println!("\nbest jumble lnL: {:.2}", best.ln_likelihood);

    println!(
        "\nmajority-rule consensus of {} trees:",
        consensus.num_trees
    );
    println!("  {} splits above 50% support", consensus.splits.len());
    for s in consensus.splits.iter().take(8) {
        println!(
            "  support {:>5.0}%  split of {} taxa",
            100.0 * s.support,
            s.split.side_size()
        );
    }
    let truth = SplitSet::of_tree(&generating_tree, 50);
    let recovered = consensus
        .splits
        .iter()
        .filter(|s| truth.splits().contains(&s.split))
        .count();
    println!(
        "  {recovered} of {} consensus splits are in the generating tree",
        consensus.splits.len()
    );
}
