//! The viewer workflow of paper §4: load the final trees of several runs,
//! pivot them into canonical orientation, trace selected taxa across them,
//! and render an ASCII phylogram plus a side-by-side SVG comparison
//! (the Figure 5 analog) to `target/tree_comparison.svg`.
//!
//! ```sh
//! cargo run --release --example tree_comparison
//! ```

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::phylo::newick;
use fastdnaml::treeviz::svg::{render_comparison, SvgStyle};
use fastdnaml::treeviz::trace::trace_taxa;
use fastdnaml::treeviz::{ascii, canonical, same_up_to_rotation};

fn main() {
    let true_tree = yule_tree(10, 0.1, 23);
    let alignment = evolve(&true_tree, 400, &EvolutionConfig::default(), 4, "taxon");

    // Three jumbles → three (possibly different) trees.
    let mut asts = Vec::new();
    for seed in [1u64, 7, 13] {
        let config = SearchConfig {
            jumble_seed: seed,
            incremental: true,
            ..SearchConfig::default()
        };
        let job = ResolvedJob::single(alignment.clone(), config);
        let outcome = run_in_process(&job, RunOptions::default()).expect("search");
        let r = &outcome.runs[0];
        println!("jumble {seed}: lnL {:.3}", r.ln_likelihood);
        asts.push(newick::parse(&r.newick).expect("round-trip"));
    }

    // Pivot into canonical orientation so only real topological differences
    // remain visible.
    let canon: Vec<_> = asts.iter().map(canonical).collect();
    println!(
        "\ntrees 1 and 2 same up to subtree pivots: {}",
        same_up_to_rotation(&asts[0], &asts[1], 1e-2)
    );

    println!("\nbest tree of jumble 1 (canonical orientation):\n");
    println!("{}", ascii::render(&canon[0], 70));

    // Trace two taxa across all three trees, as the viewer does.
    let traced = ["taxon000", "taxon005"];
    let traces = trace_taxa(&canon, &traced);
    println!("\ntaxon movement across the three trees (total leaf-row shifts):");
    for t in &traces {
        println!("  {:<10} movement {:.1}", t.name, t.total_movement());
    }

    let svg = render_comparison(&canon, &traced, &SvgStyle::default());
    let path = "target/tree_comparison.svg";
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, &svg).expect("write SVG");
    println!(
        "\nside-by-side comparison with traces written to {path} ({} bytes)",
        svg.len()
    );
}
