//! The DNArates companion program: estimate per-site evolutionary rates on
//! a fixed tree and emit rate categories for fastdnaml.
//!
//! ```text
//! dnarates --input data.phy --tree tree.nwk [options]
//!
//!   --input FILE       PHYLIP alignment                       [required]
//!   --tree FILE        reference tree (Newick)                [optional: inferred]
//!   --categories K     number of rate categories              [8]
//!   --grid-min R       smallest rate considered               [0.05]
//!   --grid-max R       largest rate considered                [20.0]
//!   --grid-points N    rate grid resolution                   [25]
//!   --output FILE      write the rate report ("-" = stdout)
//! ```
//!
//! Output format: one header line, one `category rates:` line, then one
//! line per site: `site  rate  category`.

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{search_in_process, SearchSession};
use fastdnaml::likelihood::engine::LikelihoodEngine;
use fastdnaml::phylo::{newick, phylip};
use fastdnaml::rates::{categorize, estimate_rates, RateGrid};
use std::collections::HashMap;
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

fn main() -> ExitCode {
    let mut args: HashMap<String, String> = HashMap::new();
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(item) = iter.next() {
        if let Some(key) = item.strip_prefix("--") {
            if let Some(v) = iter.peek() {
                if !v.starts_with("--") {
                    args.insert(key.to_string(), iter.next().expect("peeked"));
                    continue;
                }
            }
            args.insert(key.to_string(), String::new());
        }
    }
    if args.contains_key("help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(input) = args.get("input") else {
        eprintln!("dnarates: --input FILE is required\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let alignment = match std::fs::read_to_string(input)
        .map_err(|e| e.to_string())
        .and_then(|t| phylip::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dnarates: {e}");
            return ExitCode::FAILURE;
        }
    };
    let grid = RateGrid {
        min: args
            .get("grid-min")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.05),
        max: args
            .get("grid-max")
            .and_then(|v| v.parse().ok())
            .unwrap_or(20.0),
        points: args
            .get("grid-points")
            .and_then(|v| v.parse().ok())
            .unwrap_or(25),
    };
    let k: usize = args
        .get("categories")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

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
        eprintln!("dnarates: {why}");
        return ExitCode::FAILURE;
    }
    let tree = match args.get("tree") {
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("read tree file");
            newick::parse_tree(text.trim(), &alignment).expect("parse reference tree")
        }
        None => {
            eprintln!("dnarates: no --tree given; inferring a reference tree first…");
            let config = SearchConfig {
                incremental: true,
                ..SearchConfig::default()
            };
            let job = ResolvedJob::single(alignment.clone(), config);
            search_in_process(&job, SearchSession::default())
                .expect("reference search")
                .tree
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
        Some(path) => std::fs::write(path, out).expect("write output"),
    }
    ExitCode::SUCCESS
}
