//! Run configuration.

use fdml_likelihood::categories::RateCategories;
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::f84::F84Model;
use fdml_likelihood::newton::NewtonOptions;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::patterns::PatternAlignment;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Configuration of one fastDNAml search (one jumble).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// User random seed for the taxon addition order; even seeds are
    /// adjusted as in fastDNAml (see [`crate::jumble::adjust_seed`]).
    pub jumble_seed: u64,
    /// Vertices crossed in the local rearrangements after each taxon
    /// addition (paper step 4). fastDNAml's default is 1; the paper's
    /// performance runs use 5.
    pub rearrange_radius: usize,
    /// Vertices crossed in the final rearrangement (paper step 5).
    pub final_radius: usize,
    /// Transition/transversion ratio of the F84 model.
    pub tt_ratio: f64,
    /// Branch-length optimization settings for full tree treatment.
    pub optimize: OptimizeOptions,
    /// Minimum log-likelihood gain for a rearrangement to be accepted.
    pub min_improvement: f64,
    /// Safety cap on rearrangement rounds per step (the paper's loop runs
    /// "until the rearrangements no longer result in improvement"; the cap
    /// only guards against numerical livelock).
    pub max_rearrange_rounds: usize,
    /// How many of a round's leading candidates may be verified with the
    /// full treatment before the round is declared fruitless.
    pub max_verify_per_round: usize,
    /// Candidates whose approximate score falls more than this below the
    /// current tree's likelihood are not worth verifying.
    pub verify_slack: f64,
    /// Foreman fault-tolerance timeout: a worker that holds a tree longer
    /// than this is marked delinquent and the tree is re-dispatched
    /// (paper §2.2, the "user-specified timeout parameter").
    pub worker_timeout: Duration,
    /// Explicit rate categories (per *pattern*); `None` means a single
    /// unit-rate category.
    pub categories: Option<RateCategories>,
    /// Score candidate rounds incrementally: broadcast the round's base
    /// topology once and dispatch compact tree edits that workers score
    /// through a per-worker CLV cache. Master-side only — like
    /// `worker_timeout` it never travels in the engine wire config; the
    /// mode a worker runs in is decided per task by the message it
    /// receives (`TreeTask` vs `EditChunk`).
    pub incremental: bool,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            jumble_seed: 1,
            rearrange_radius: 1,
            final_radius: 1,
            tt_ratio: fdml_likelihood::f84::DEFAULT_TT_RATIO,
            optimize: OptimizeOptions::default(),
            min_improvement: 1e-5,
            max_rearrange_rounds: 64,
            max_verify_per_round: 8,
            verify_slack: 3.0,
            worker_timeout: Duration::from_secs(30),
            categories: None,
            incremental: false,
        }
    }
}

impl SearchConfig {
    /// Build the likelihood engine this configuration describes.
    pub fn build_engine(&self, alignment: &Alignment) -> LikelihoodEngine {
        let patterns = PatternAlignment::compress(alignment);
        let model = F84Model::new(alignment.empirical_frequencies(), self.tt_ratio);
        let categories = match &self.categories {
            Some(c) => {
                assert_eq!(c.num_patterns(), patterns.num_patterns());
                c.clone()
            }
            None => RateCategories::single(patterns.num_patterns()),
        };
        LikelihoodEngine::with_parts(patterns, model, categories)
    }

    /// The wire form of the engine configuration, broadcast to workers.
    pub fn engine_config_json(&self) -> String {
        serde_json::to_string(&EngineConfigWire::from(self)).expect("config serializes")
    }

    /// Rebuild a search configuration from the wire form (worker side).
    /// The wire carries both the engine model and the search-control
    /// fields, so a worker handed a whole jumble ([`fdml_comm::Message::JobTask`])
    /// runs the byte-identical search a serial process would. A ratio or
    /// a category model no engine can be built from is an error naming it.
    pub fn from_engine_config_json(json: &str) -> Result<SearchConfig, String> {
        let wire: EngineConfigWire = serde_json::from_str(json).map_err(|e| e.to_string())?;
        wire.into_config()
    }
}

/// The transferable subset of [`SearchConfig`] — the engine model plus the
/// search-control parameters — as broadcast in
/// [`fdml_comm::Message::ProblemData`]. Only `worker_timeout` (a purely
/// foreman-side concern), `jumble_seed` (carried per-task), and
/// `incremental` (a master-side dispatch choice, visible to workers only
/// through which task message arrives) stay behind. Keys this form does
/// not know, such as the per-rank thread count older builds wrote, are
/// ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineConfigWire {
    tt_ratio: f64,
    max_passes: usize,
    length_tolerance: f64,
    newton_max_iters: usize,
    newton_tolerance: f64,
    category_rates: Vec<f64>,
    category_assignment: Option<Vec<u32>>,
    #[serde(default = "default_rearrange_radius")]
    rearrange_radius: usize,
    #[serde(default = "default_rearrange_radius")]
    final_radius: usize,
    #[serde(default = "default_min_improvement")]
    min_improvement: f64,
    #[serde(default = "default_max_rearrange_rounds")]
    max_rearrange_rounds: usize,
    #[serde(default = "default_max_verify_per_round")]
    max_verify_per_round: usize,
    #[serde(default = "default_verify_slack")]
    verify_slack: f64,
}

fn default_rearrange_radius() -> usize {
    SearchConfig::default().rearrange_radius
}

fn default_min_improvement() -> f64 {
    SearchConfig::default().min_improvement
}

fn default_max_rearrange_rounds() -> usize {
    SearchConfig::default().max_rearrange_rounds
}

fn default_max_verify_per_round() -> usize {
    SearchConfig::default().max_verify_per_round
}

fn default_verify_slack() -> f64 {
    SearchConfig::default().verify_slack
}

impl From<&SearchConfig> for EngineConfigWire {
    fn from(c: &SearchConfig) -> EngineConfigWire {
        EngineConfigWire {
            tt_ratio: c.tt_ratio,
            max_passes: c.optimize.max_passes,
            length_tolerance: c.optimize.length_tolerance,
            newton_max_iters: c.optimize.newton.max_iters,
            newton_tolerance: c.optimize.newton.tolerance,
            category_rates: c
                .categories
                .as_ref()
                .map(|cat| cat.rates().to_vec())
                .unwrap_or_else(|| vec![1.0]),
            category_assignment: c.categories.as_ref().map(|cat| cat.assignment().to_vec()),
            rearrange_radius: c.rearrange_radius,
            final_radius: c.final_radius,
            min_improvement: c.min_improvement,
            max_rearrange_rounds: c.max_rearrange_rounds,
            max_verify_per_round: c.max_verify_per_round,
            verify_slack: c.verify_slack,
        }
    }
}

impl EngineConfigWire {
    fn into_config(self) -> Result<SearchConfig, String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.tt_ratio) {
            return Err(format!(
                "tt_ratio {}: not a finite number above 0",
                self.tt_ratio
            ));
        }
        let rates = &self.category_rates;
        if rates.is_empty() || !rates.iter().all(|&r| positive(r)) {
            return Err(format!(
                "category_rates {rates:?}: not one or more finite numbers above 0"
            ));
        }
        let assignment = self.category_assignment.as_deref().unwrap_or_default();
        if let Some(c) = assignment.iter().find(|&&c| c as usize >= rates.len()) {
            return Err(format!(
                "category_assignment names category {c} of {}",
                rates.len()
            ));
        }
        let categories = self
            .category_assignment
            .map(|assignment| RateCategories::new(self.category_rates.clone(), assignment));
        Ok(SearchConfig {
            tt_ratio: self.tt_ratio,
            optimize: OptimizeOptions {
                max_passes: self.max_passes,
                length_tolerance: self.length_tolerance,
                newton: NewtonOptions {
                    max_iters: self.newton_max_iters,
                    tolerance: self.newton_tolerance,
                },
            },
            categories,
            rearrange_radius: self.rearrange_radius,
            final_radius: self.final_radius,
            min_improvement: self.min_improvement,
            max_rearrange_rounds: self.max_rearrange_rounds,
            max_verify_per_round: self.max_verify_per_round,
            verify_slack: self.verify_slack,
            ..SearchConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fastdnaml_defaults() {
        let c = SearchConfig::default();
        assert_eq!(c.rearrange_radius, 1);
        assert_eq!(c.tt_ratio, 2.0);
    }

    #[test]
    fn engine_config_wire_roundtrip() {
        let mut c = SearchConfig {
            tt_ratio: 3.5,
            ..SearchConfig::default()
        };
        c.optimize.max_passes = 3;
        c.optimize.newton.max_iters = 7;
        let json = c.engine_config_json();
        let back = SearchConfig::from_engine_config_json(&json).unwrap();
        assert_eq!(back.tt_ratio, 3.5);
        assert_eq!(back.optimize.max_passes, 3);
        assert_eq!(back.optimize.newton.max_iters, 7);
        assert!(back.categories.is_none());
    }

    #[test]
    fn engine_config_wire_carries_search_controls() {
        // A worker given a whole jumble must search exactly like a serial
        // process with the same configuration would.
        let c = SearchConfig {
            rearrange_radius: 4,
            final_radius: 6,
            min_improvement: 2e-4,
            max_rearrange_rounds: 11,
            max_verify_per_round: 3,
            verify_slack: 7.5,
            ..SearchConfig::default()
        };
        let back = SearchConfig::from_engine_config_json(&c.engine_config_json()).unwrap();
        assert_eq!(back.rearrange_radius, 4);
        assert_eq!(back.final_radius, 6);
        assert_eq!(back.min_improvement, 2e-4);
        assert_eq!(back.max_rearrange_rounds, 11);
        assert_eq!(back.max_verify_per_round, 3);
        assert_eq!(back.verify_slack, 7.5);
    }

    #[test]
    fn engine_config_json_without_search_controls_takes_defaults() {
        // Wire payloads written before the search-control fields existed
        // still parse.
        let json = r#"{"tt_ratio":2.0,"max_passes":2,"length_tolerance":1e-5,
            "newton_max_iters":10,"newton_tolerance":1e-6,
            "category_rates":[1.0],"category_assignment":null}"#;
        let back = SearchConfig::from_engine_config_json(json).unwrap();
        let d = SearchConfig::default();
        assert_eq!(back.rearrange_radius, d.rearrange_radius);
        assert_eq!(back.verify_slack, d.verify_slack);
    }

    #[test]
    fn engine_config_from_a_build_with_intra_threads_parses_the_same() {
        // Builds that had intra-rank threads appended `"intra_threads":N`
        // to this payload; a worker of this build reads the rest unchanged.
        let c = SearchConfig {
            tt_ratio: 3.5,
            rearrange_radius: 4,
            categories: Some(RateCategories::new(vec![0.5, 2.0], vec![0, 1, 1])),
            ..SearchConfig::default()
        };
        let json = c.engine_config_json();
        let legacy = format!("{},\"intra_threads\":4}}", json.strip_suffix('}').unwrap());
        let back = SearchConfig::from_engine_config_json(&legacy).unwrap();
        assert_eq!(back.engine_config_json(), json);
    }

    #[test]
    fn engine_config_wire_carries_categories() {
        let c = SearchConfig {
            categories: Some(RateCategories::new(vec![0.5, 2.0], vec![0, 1, 1])),
            ..SearchConfig::default()
        };
        let json = c.engine_config_json();
        let back = SearchConfig::from_engine_config_json(&json).unwrap();
        let cats = back.categories.unwrap();
        assert_eq!(cats.rates(), &[0.5, 2.0]);
        assert_eq!(cats.assignment(), &[0, 1, 1]);
    }

    #[test]
    fn build_engine_matches_alignment() {
        let a = Alignment::from_strings(&[("x", "ACGT"), ("y", "ACGA")]).unwrap();
        let c = SearchConfig::default();
        let e = c.build_engine(&a);
        assert_eq!(e.patterns().num_taxa(), 2);
    }
}
