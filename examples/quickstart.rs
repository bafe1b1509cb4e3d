//! Quickstart: infer a maximum-likelihood tree from a PHYLIP alignment.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fastdnaml::prelude::*;
use fastdnaml::treeviz;

/// A small primate-style alignment in PHYLIP format (the file format
/// fastDNAml reads).
const PHYLIP: &str = "\
6 60
human     ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
chimp     ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGTACGTACGAACGTACGTACGT
gorilla   ACGTACGTACTTACGGACGTACGAACGTACGTACGTACGTACGTACGAACGTACGTACTT
orang     ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGTACGTACGTACGAACGTACGT
gibbon    ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTTACGTACGTACGAACGTACGT
macaque   TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGATCGTACGTACGAACGGACGT
";

fn main() {
    // Parse the alignment (PHYLIP, as fastDNAml expects).
    let alignment = phylip::parse(PHYLIP).expect("valid PHYLIP");
    println!(
        "alignment: {} taxa × {} sites, {} unique patterns",
        alignment.num_taxa(),
        alignment.num_sites(),
        PatternAlignment::compress(&alignment).num_patterns()
    );

    // fastDNAml defaults: empirical base frequencies, tt-ratio 2.0,
    // local rearrangements crossing one vertex.
    let config = SearchConfig {
        jumble_seed: 137,
        ..SearchConfig::default()
    };
    let job = ResolvedJob::single(alignment.clone(), config);
    let outcome = run_in_process(&job, RunOptions::default()).expect("search succeeds");
    let result = &outcome.runs[0];

    println!("\nbest tree lnL = {:.4}", result.ln_likelihood);
    println!(
        "({} candidate trees evaluated in {} dispatch rounds)\n",
        result.candidates, result.rounds
    );
    println!("Newick: {}\n", result.newick);
    let ast = newick::parse(&result.newick).expect("round-trip");
    println!("{}", treeviz::ascii::render(&ast, 72));
}
