//! Trace generation with on-disk caching.
//!
//! Generating a paper-scale trace means actually running the search once
//! per dataset per jumble; the results are cached as JSON under `traces/`
//! so the figure binaries are fast to re-run and the simulator inputs are
//! inspectable.

use fdml_core::config::SearchConfig;
use fdml_core::runner::traced_in_process;
use fdml_core::trace::SearchTrace;
use fdml_datagen::datasets::{paper_dataset, PaperDataset};
use std::fs;
use std::path::PathBuf;

/// What traces to produce.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// Which dataset.
    pub dataset: PaperDataset,
    /// Alignment-length scale in `(0, 1]` (1.0 = the paper's full length).
    pub site_scale: f64,
    /// Jumble seeds (the paper uses ten per dataset).
    pub seeds: Vec<u64>,
    /// Rearrangement radius (the paper's runs use 5).
    pub radius: usize,
    /// Evaluate every candidate fully (slow, faithful) instead of with
    /// incremental scoring.
    pub full_evaluation: bool,
    /// Cache directory.
    pub cache_dir: PathBuf,
}

impl TraceRequest {
    /// The paper's protocol for one dataset, scaled for tractability.
    pub fn paper(dataset: PaperDataset, site_scale: f64, jumbles: usize) -> TraceRequest {
        TraceRequest {
            dataset,
            site_scale,
            seeds: (0..jumbles as u64).map(|i| 2 * i + 1).collect(),
            radius: 5,
            full_evaluation: false,
            cache_dir: PathBuf::from("traces"),
        }
    }

    fn cache_path(&self, seed: u64) -> PathBuf {
        let mode = if self.full_evaluation { "full" } else { "fast" };
        self.cache_dir.join(format!(
            "{}_s{:.3}_r{}_{}_j{}.json",
            self.dataset.label(),
            self.site_scale,
            self.radius,
            mode,
            seed
        ))
    }
}

/// Load cached traces or run the searches to build them. Returns one trace
/// per seed, in seed order. Progress goes to stderr.
pub fn load_or_build_traces(request: &TraceRequest) -> Vec<SearchTrace> {
    fs::create_dir_all(&request.cache_dir).ok();
    let mut dataset_cache = None;
    request
        .seeds
        .iter()
        .map(|&seed| {
            let path = request.cache_path(seed);
            if let Ok(text) = fs::read_to_string(&path) {
                if let Ok(trace) = serde_json::from_str::<SearchTrace>(&text) {
                    eprintln!("[traces] loaded {}", path.display());
                    return trace;
                }
            }
            let (alignment, _) = dataset_cache
                .get_or_insert_with(|| paper_dataset(request.dataset, request.site_scale))
                .clone();
            let config = SearchConfig {
                jumble_seed: seed,
                rearrange_radius: request.radius,
                final_radius: request.radius,
                incremental: !request.full_evaluation,
                ..SearchConfig::default()
            };
            eprintln!(
                "[traces] building {} seed {} ({} taxa × {} sites, radius {})…",
                request.dataset.label(),
                seed,
                alignment.num_taxa(),
                alignment.num_sites(),
                request.radius
            );
            let start = std::time::Instant::now();
            let trace = traced_in_process(&alignment, &config, request.dataset.label())
                .expect("search must succeed")
                .trace
                .expect("trace requested");
            eprintln!(
                "[traces]   {} rounds, {} candidates, {:.1}s wall",
                trace.rounds.len(),
                trace.total_candidates(),
                start.elapsed().as_secs_f64()
            );
            if let Ok(json) = serde_json::to_string(&trace) {
                fs::write(&path, json).ok();
            }
            trace
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fdml_trace_test_{}", std::process::id()));
        let request = TraceRequest {
            dataset: PaperDataset::Taxa50,
            site_scale: 0.01, // 19 sites — tiny, just exercises the plumbing
            seeds: vec![1],
            radius: 1,
            full_evaluation: false,
            cache_dir: dir.clone(),
        };
        let first = load_or_build_traces(&request);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].num_taxa, 50);
        // Second call hits the cache and returns identical content.
        let second = load_or_build_traces(&request);
        assert_eq!(first, second);
        fs::remove_dir_all(dir).ok();
    }
}
