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

    /// Resolve a wire-level spec (the submit path and the daemon's
    /// registry). The daemon ships every jumble whole to a worker, which
    /// scores it edit by edit, so the job is edit-scored. Fails with a
    /// typed [`PhyloError`] on malformed PHYLIP or config JSON.
    pub fn from_spec(spec: &JobSpec) -> Result<ResolvedJob, PhyloError> {
        let alignment = phylip::parse(&spec.phylip)
            .map_err(|e| PhyloError::Format(format!("bad alignment in job spec: {e}")))?;
        let mut config = SearchConfig::from_engine_config_json(&spec.config_json)
            .map_err(|e| PhyloError::Format(format!("bad config in job spec: {e}")))?;
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
    use fdml_comm::job::JobSpecError;

    fn alignment() -> Alignment {
        Alignment::from_strings(&[
            ("t0", "ACGTACGTACGT"),
            ("t1", "ACGTACGAACGT"),
            ("t2", "ACTTACGAACGA"),
            ("t3", "TCTTACGAACGA"),
        ])
        .unwrap()
    }

    #[test]
    fn builder_feeds_from_parts_equivalent_spec() {
        let config = SearchConfig::default();
        let spec = JobSpec::builder()
            .phylip(phylip::write(&alignment()))
            .config_json(config.engine_config_json())
            .base_seed(9)
            .jumbles(2)
            .build()
            .unwrap();
        let resolved = ResolvedJob::from_spec(&spec).unwrap();
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
    fn bad_phylip_is_a_typed_error() {
        let spec = JobSpec {
            phylip: "not phylip".into(),
            config_json: SearchConfig::default().engine_config_json(),
            jumbles: 1,
            base_seed: 1,
            max_ranks: 0,
            max_wall_ms: 0,
            label: String::new(),
        };
        assert!(ResolvedJob::from_spec(&spec).is_err());
        // And the builder rejects structurally bad flag sets before a spec
        // even exists.
        assert!(matches!(
            JobSpec::builder().build(),
            Err(JobSpecError::Missing { .. })
        ));
    }
}
