//! The DNArates companion program: estimate per-site evolutionary rates on
//! a fixed tree and emit rate categories for fastdnaml.
//!
//! Its flags are `FLAGS`, which `--help` prints, and nothing else.
//!
//! Output format: one header line, one `category rates:` line, then one
//! line per site: `site  rate  category`.

use fastdnaml::cli::Takes::{Int, Nothing, Real, Text};
use fastdnaml::cli::{flag, get, help, parse_args, Flag, Program, ALL};
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::likelihood::engine::LikelihoodEngine;
use fastdnaml::phylo::{newick, phylip};
use fastdnaml::rates::{categorize, estimate_rates, RateGrid};
use std::process::ExitCode;

/// Every flag the program understands; every one is read.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("input", Text("FILE"), ALL, "PHYLIP alignment [required]"),
    flag("tree", Text("FILE"), ALL, "reference tree (Newick) [default: inferred]"),
    flag("categories", Int("K", 1), ALL, "number of rate categories [8]"),
    flag("grid-min", Real("R"), ALL, "smallest rate considered [0.05]"),
    flag("grid-max", Real("R"), ALL, "largest rate considered, above --grid-min [20.0]"),
    flag("grid-points", Int("N", 3), ALL, "rate grid resolution [25]"),
    flag("output", Text("FILE"), ALL, "write the rate report (\"-\" = stdout) [-]"),
    flag("help", Nothing, ALL, "show this message"),
];

const PROGRAM: Program = Program {
    synopsis: "dnarates --input data.phy [--tree tree.nwk] [options]",
    flags: FLAGS,
    mode: |_| Ok(vec![(ALL, "dnarates")]),
};

/// The one-line failure every bad invocation ends in.
fn die(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("dnarates: {why}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let (args, switches) = match parse_args(std::env::args().skip(1), &PROGRAM) {
        Ok(parsed) => parsed,
        Err(e) => return die(e),
    };
    if switches.iter().any(|s| s == "help") {
        print!("{}", help(&PROGRAM));
        return ExitCode::SUCCESS;
    }
    let Some(input) = args.get("input") else {
        return die("--input FILE is required (--help lists the flags)");
    };
    let alignment = match std::fs::read_to_string(input)
        .map_err(|e| e.to_string())
        .and_then(|t| phylip::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(a) => a,
        Err(e) => return die(e),
    };
    let grid = RateGrid {
        min: get(&args, "grid-min", 0.05),
        max: get(&args, "grid-max", 20.0),
        points: get(&args, "grid-points", 25),
    };
    let k: usize = get(&args, "categories", 8);

    // A grid the estimator cannot use is refused before the reference
    // tree is inferred, not after; the parser has bounded each number.
    if grid.max <= grid.min {
        return die("--grid-max must be above --grid-min");
    }
    let tree = match args.get("tree") {
        Some(path) => {
            let tree = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    newick::parse_tree(text.trim(), &alignment).map_err(|e| e.to_string())
                })
                .and_then(|tree| match tree.num_tips() {
                    n if n == alignment.num_taxa() => Ok(tree),
                    n => Err(format!("tree has {n} of {} taxa", alignment.num_taxa())),
                });
            match tree {
                Ok(tree) => tree,
                Err(e) => return die(format_args!("--tree {path}: {e}")),
            }
        }
        None => {
            eprintln!("dnarates: no --tree given; inferring a reference tree first…");
            let config = SearchConfig {
                incremental: true,
                ..SearchConfig::default()
            };
            let job = ResolvedJob::single(alignment.clone(), config);
            let found = run_in_process(&job, RunOptions::default());
            let found = found.and_then(|found| found.runs[0].tree(alignment.names()));
            match found {
                Ok(tree) => tree,
                Err(e) => return die(format_args!("reference search: {e}")),
            }
        }
    };
    let engine = LikelihoodEngine::new(&alignment);
    let estimate = estimate_rates(&engine, &tree, &grid);
    let cats = categorize(&estimate.per_pattern, engine.patterns().weights(), k);

    let per_site_cat: Vec<u32> = engine.patterns().expand_to_sites(
        &(0..engine.patterns().num_patterns())
            .map(|p| cats.category_of(p) as u32)
            .collect::<Vec<_>>(),
    );
    let out = fastdnaml::rates::write_report(
        cats.rates(),
        &estimate.per_site,
        &per_site_cat,
        &format!(
            "{} taxa, {} sites, {} patterns, {} categories",
            alignment.num_taxa(),
            alignment.num_sites(),
            engine.patterns().num_patterns(),
            cats.num_categories()
        ),
    );
    match args.get("output").map(String::as_str) {
        Some("-") | None => print!("{out}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, out) {
                return die(format_args!("--output {path}: {e}"));
            }
        }
    }
    ExitCode::SUCCESS
}
