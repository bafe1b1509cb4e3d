//! Resolving a wire-level [`JobSpec`] into the runnable form the
//! orchestration entrypoints consume.
//!
//! Every high-level entrypoint in this crate — [`crate::runner`]'s
//! in-process and threaded launchers, [`crate::netrun`]'s TCP launcher,
//! and the `fdml-serve` daemon's scheduler — is constructed from the same
//! [`ResolvedJob`]: the parsed alignment, the search configuration, and
//! the planned jumble-seed list. One description of a job, however it
//! arrived (CLI flags, a `Submit` frame, or a durable registry entry).

use crate::config::SearchConfig;
use crate::farm::plan_seeds;
use fdml_comm::job::JobSpec;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::error::PhyloError;
use fdml_phylo::patterns::PatternAlignment;
use fdml_phylo::phylip;

/// A [`JobSpec`] made runnable: alignment parsed, config rebuilt from its
/// wire form, jumble seeds planned.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The parsed alignment.
    pub alignment: Alignment,
    /// The search configuration (model, radii, fault-tolerance timeout).
    pub config: SearchConfig,
    /// The adjusted, deduplicated jumble seeds, in plan order. A
    /// single-element list is the single search.
    pub seeds: Vec<u64>,
}

impl ResolvedJob {
    /// Build from already-parsed parts (the in-process path: tests and
    /// callers that hold an [`Alignment`] already). Seeds are planned from
    /// `config.jumble_seed`.
    pub fn from_parts(
        alignment: Alignment,
        config: SearchConfig,
        jumbles: usize,
    ) -> Result<ResolvedJob, PhyloError> {
        let seeds = plan_seeds(config.jumble_seed, jumbles)?;
        Ok(ResolvedJob {
            alignment,
            config,
            seeds,
        })
    }

    /// The one-shot case: a single search under `config.jumble_seed`.
    pub fn single(alignment: Alignment, config: SearchConfig) -> ResolvedJob {
        ResolvedJob::from_parts(alignment, config, 1).expect("one jumble always plans")
    }

    /// Resolve a wire-level spec (the daemon's admission and registry).
    /// The daemon ships every jumble whole to a worker, which scores it
    /// edit by edit, so the job is edit-scored. Fails with a typed
    /// [`PhyloError`] on malformed PHYLIP or config JSON, and on a spec no
    /// worker could run: a ratio or category rate that is not a finite
    /// number above 0, a category assignment that names a missing category
    /// or does not cover the alignment's patterns, seed 0, or no jumbles.
    pub fn from_spec(spec: &JobSpec) -> Result<ResolvedJob, PhyloError> {
        let alignment = phylip::parse(&spec.phylip)
            .map_err(|e| PhyloError::Format(format!("bad alignment in job spec: {e}")))?;
        let bad = |what: String| PhyloError::Format(format!("bad config in job spec: {what}"));
        let mut config = SearchConfig::from_engine_config_json(&spec.config_json).map_err(bad)?;
        if let Some(categories) = &config.categories {
            let patterns = PatternAlignment::compress(&alignment).num_patterns();
            if categories.num_patterns() != patterns {
                return Err(bad(format!(
                    "category_assignment covers {} patterns, the alignment has {patterns}",
                    categories.num_patterns()
                )));
            }
        }
        if spec.base_seed == 0 || spec.jumbles == 0 {
            return Err(PhyloError::Format(format!(
                "job spec asks for {} jumbles from seed {}: both must be at least 1",
                spec.jumbles, spec.base_seed
            )));
        }
        config.jumble_seed = spec.base_seed;
        config.incremental = true;
        let seeds = plan_seeds(spec.base_seed, spec.jumbles)?;
        Ok(ResolvedJob {
            alignment,
            config,
            seeds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alignment() -> Alignment {
        Alignment::from_strings(&[
            ("t0", "ACGTACGTACGT"),
            ("t1", "ACGTACGAACGT"),
            ("t2", "ACTTACGAACGA"),
            ("t3", "TCTTACGAACGA"),
        ])
        .unwrap()
    }

    fn spec(config_json: String) -> JobSpec {
        JobSpec {
            phylip: phylip::write(&alignment()),
            config_json,
            jumbles: 2,
            base_seed: 9,
            max_ranks: 0,
            max_wall_ms: 0,
            label: String::new(),
        }
    }

    #[test]
    fn a_spec_resolves_like_its_parts() {
        let config = SearchConfig::default();
        let resolved = ResolvedJob::from_spec(&spec(config.engine_config_json())).unwrap();
        let direct = ResolvedJob::from_parts(
            alignment(),
            SearchConfig {
                jumble_seed: 9,
                ..config
            },
            2,
        )
        .unwrap();
        assert_eq!(resolved.seeds, direct.seeds);
    }

    #[test]
    fn a_spec_no_worker_could_run_is_a_typed_error() {
        let good = spec(SearchConfig::default().engine_config_json());
        let config = |from: &str, to: &str| JobSpec {
            config_json: good.config_json.replace(from, to),
            ..good.clone()
        };
        let patterns = PatternAlignment::compress(&alignment()).num_patterns();
        let cover = format!("{:?}", vec![0; patterns]);
        let hostile = [
            JobSpec {
                phylip: "not phylip".into(),
                ..good.clone()
            },
            config(r#""tt_ratio":2.0"#, r#""tt_ratio":-1.0"#),
            config(r#""category_rates":[1.0]"#, r#""category_rates":[0.0]"#),
            config(r#""category_rates":[1.0]"#, r#""category_rates":[]"#),
            config(
                r#""category_assignment":null"#,
                r#""category_assignment":[0]"#,
            ),
            config(
                r#""category_assignment":null"#,
                &format!(r#""category_assignment":{}"#, cover.replacen('0', "1", 1)),
            ),
            JobSpec {
                base_seed: 0,
                ..good.clone()
            },
            JobSpec {
                jumbles: 0,
                ..good.clone()
            },
        ];
        for spec in hostile {
            assert!(ResolvedJob::from_spec(&spec).is_err(), "{spec:?}");
        }
        let covered = config(
            r#""category_assignment":null"#,
            &format!(r#""category_assignment":{cover}"#),
        );
        assert!(ResolvedJob::from_spec(&covered).is_ok());
    }
}
