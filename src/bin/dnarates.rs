//! The DNArates companion program: estimate per-site evolutionary rates on
//! a fixed tree and emit rate categories for fastdnaml.
//!
//! Its flags are [`USAGE`], what `--help` prints, and nothing else.
//!
//! Output format: one header line, one `category rates:` line, then one
//! line per site: `site  rate  category`.

use fastdnaml::cli::{get, parse_args, Takes};
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, RunOptions};
use fastdnaml::likelihood::engine::LikelihoodEngine;
use fastdnaml::phylo::{newick, phylip};
use fastdnaml::rates::{categorize, estimate_rates, RateGrid};
use std::process::ExitCode;

const USAGE: &str = "\
dnarates --input data.phy [--tree tree.nwk] [options]

  --input FILE       PHYLIP alignment                       [required]
  --tree FILE        reference tree (Newick)                [default: inferred]
  --categories K     number of rate categories              [8]
  --grid-min R       smallest rate considered               [0.05]
  --grid-max R       largest rate considered                [20.0]
  --grid-points N    rate grid resolution                   [25]
  --output FILE      write the rate report (\"-\" = stdout)
  --help             show this message
";

/// Every flag the program understands, in [`USAGE`]'s order.
const FLAGS: &[(&str, Takes)] = &[
    ("input", Takes::Text),
    ("tree", Takes::Text),
    ("categories", Takes::Int),
    ("grid-min", Takes::Real),
    ("grid-max", Takes::Real),
    ("grid-points", Takes::Int),
    ("output", Takes::Text),
    ("help", Takes::Nothing),
];

/// The one-line failure every bad invocation ends in.
fn die(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("dnarates: {why}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let (args, switches) = match parse_args(std::env::args().skip(1), FLAGS) {
        Ok(parsed) => parsed,
        Err(e) => return die(e),
    };
    if switches.iter().any(|s| s == "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(input) = args.get("input") else {
        return die(format_args!("--input FILE is required\n\n{USAGE}"));
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

    // A grid or category count the estimator cannot use is refused before
    // the reference tree is inferred, not after.
    let refusal = if k == 0 {
        Some("--categories must be at least 1")
    } else if grid.points < 3 {
        Some("--grid-points must be at least 3")
    } else if !(grid.min.is_finite() && grid.min > 0.0) {
        Some("--grid-min must be a finite number above 0")
    } else if !(grid.max.is_finite() && grid.max > grid.min) {
        Some("--grid-max must be a finite number above --grid-min")
    } else {
        None
    };
    if let Some(why) = refusal {
        return die(why);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `USAGE` and `FLAGS` name the same flags.
    #[test]
    fn usage_and_the_flag_table_agree() {
        let mut documented: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut table: Vec<&str> = FLAGS.iter().map(|(name, _)| *name).collect();
        table.sort_unstable();
        assert_eq!(documented, table);
    }
}
