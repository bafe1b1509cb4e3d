//! The unified Job API: one request/response surface shared by the CLI
//! one-shot path, the `fdml-serve` daemon, and the `--submit` / `--status`
//! / `--attach` client modes.
//!
//! A [`JobSpec`] is the complete, serializable description of one
//! inference job: the alignment text, the engine/search configuration in
//! its wire form, the jumble plan, and the per-job quota requests. It is
//! what travels in a `Submit` frame, what the daemon persists in its job
//! registry, and what `fdml-core`'s entrypoints are constructed from.
//!
//! [`JobStatus`] is the polling surface (`--status`), [`JobResult`] the
//! final product streamed back to an attached client, and
//! [`RejectReason`] the typed admission-control verdict for submissions
//! the daemon refuses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a job inside one daemon's registry (monotonically
/// assigned at admission, stable across daemon restarts).
pub type JobId = u64;

/// A complete, self-contained description of one inference job.
///
/// Everything a foreman/worker fleet needs travels inside: the alignment
/// (PHYLIP text), the engine configuration (the same wire JSON broadcast
/// in `ProblemData`), the jumble plan, and the quota requests checked at
/// admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The alignment, as interleaved or sequential PHYLIP text.
    pub phylip: String,
    /// Engine + search-control configuration in wire-JSON form (the
    /// `SearchConfig::engine_config_json` format).
    pub config_json: String,
    /// Number of independent random-addition searches (jumbles) to run.
    pub jumbles: usize,
    /// Base random seed; the farm's seed planner derives one adjusted
    /// seed per jumble from it.
    pub base_seed: u64,
    /// Quota request: the most workers this job may occupy at once.
    /// `0` means "no per-job cap" (the daemon may still impose one).
    pub max_ranks: usize,
    /// Quota request: wall-time budget in milliseconds. `0` means
    /// unlimited (subject to the daemon's own ceiling).
    pub max_wall_ms: u64,
    /// Free-form label shown in status output.
    pub label: String,
}

impl JobSpec {
    /// Start building a spec flag by flag (the CLI path).
    pub fn builder() -> JobSpecBuilder {
        JobSpecBuilder::default()
    }
}

/// Incremental [`JobSpec`] construction with conflict checking.
///
/// Both the one-shot CLI path and the daemon submit path funnel their
/// flags through this builder; [`JobSpecBuilder::build`] rejects
/// incomplete or contradictory combinations with a typed
/// [`JobSpecError`] naming the offending flag instead of silently letting
/// the first-parsed flag win.
#[derive(Debug, Default, Clone)]
pub struct JobSpecBuilder {
    phylip: Option<String>,
    config_json: Option<String>,
    jumbles: Option<usize>,
    base_seed: Option<u64>,
    max_ranks: usize,
    max_wall_ms: u64,
    label: String,
    conflicts: Vec<(String, String)>,
}

impl JobSpecBuilder {
    /// Set the PHYLIP alignment text (`--input`).
    pub fn phylip(mut self, text: impl Into<String>) -> Self {
        self.phylip = Some(text.into());
        self
    }

    /// Set the engine configuration wire JSON.
    pub fn config_json(mut self, json: impl Into<String>) -> Self {
        self.config_json = Some(json.into());
        self
    }

    /// Set the jumble count (`--jumbles`).
    pub fn jumbles(mut self, n: usize) -> Self {
        self.jumbles = Some(n);
        self
    }

    /// Set the base jumble seed (`--jumble`).
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = Some(seed);
        self
    }

    /// Request a per-job worker cap (`--max-job-ranks`).
    pub fn max_ranks(mut self, n: usize) -> Self {
        self.max_ranks = n;
        self
    }

    /// Request a wall-time budget in milliseconds (`--max-wall-ms`).
    pub fn max_wall_ms(mut self, ms: u64) -> Self {
        self.max_wall_ms = ms;
        self
    }

    /// Attach a display label (`--job-label`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Record that two mutually exclusive flags were both given. The
    /// check is deferred so every conflict is reported from one place
    /// ([`JobSpecBuilder::build`]) with a typed error.
    pub fn conflict(mut self, flag: impl Into<String>, conflicts_with: impl Into<String>) -> Self {
        self.conflicts.push((flag.into(), conflicts_with.into()));
        self
    }

    /// Record a conflict when `both` is true (convenience for flag
    /// tables).
    pub fn conflict_if(
        self,
        both: bool,
        flag: impl Into<String>,
        conflicts_with: impl Into<String>,
    ) -> Self {
        if both {
            self.conflict(flag, conflicts_with)
        } else {
            self
        }
    }

    /// Finish the spec, or report the first missing / conflicting /
    /// invalid flag as a typed error.
    pub fn build(self) -> Result<JobSpec, JobSpecError> {
        if let Some((flag, conflicts_with)) = self.conflicts.into_iter().next() {
            return Err(JobSpecError::Conflict {
                flag,
                conflicts_with,
            });
        }
        let phylip = self.phylip.ok_or(JobSpecError::Missing {
            flag: "--input".into(),
        })?;
        let config_json = self.config_json.ok_or(JobSpecError::Missing {
            flag: "--config".into(),
        })?;
        let jumbles = self.jumbles.unwrap_or(1);
        if jumbles == 0 {
            return Err(JobSpecError::Invalid {
                flag: "--jumbles".into(),
                reason: "must be at least 1".into(),
            });
        }
        let base_seed = self.base_seed.unwrap_or(1);
        if base_seed == 0 {
            return Err(JobSpecError::Invalid {
                flag: "--jumble".into(),
                reason: "seed 0 is reserved (fastDNAml seeds are positive)".into(),
            });
        }
        Ok(JobSpec {
            phylip,
            config_json,
            jumbles,
            base_seed,
            max_ranks: self.max_ranks,
            max_wall_ms: self.max_wall_ms,
            label: self.label,
        })
    }
}

/// Typed builder failure: what flag broke the spec, and how.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobSpecError {
    /// Two mutually exclusive flags were both given.
    Conflict {
        /// The later / offending flag.
        flag: String,
        /// The flag it cannot be combined with.
        conflicts_with: String,
    },
    /// A required flag was never given.
    Missing {
        /// The absent flag.
        flag: String,
    },
    /// A flag's value is out of range or unparsable.
    Invalid {
        /// The offending flag.
        flag: String,
        /// Why the value was refused.
        reason: String,
    },
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::Conflict {
                flag,
                conflicts_with,
            } => write!(f, "flag {flag} conflicts with {conflicts_with}"),
            JobSpecError::Missing { flag } => write!(f, "required flag {flag} is missing"),
            JobSpecError::Invalid { flag, reason } => {
                write!(f, "invalid value for {flag}: {reason}")
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

/// Coarse lifecycle state of a job inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for the dispatcher to pick it up.
    Queued,
    /// At least one of its jumbles is dispatched or done.
    Running,
    /// Every jumble finished; the result is available.
    Done,
    /// The job was abandoned (quota exhausted, data error, abort).
    Failed,
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// Point-in-time progress of one job (the `--status` answer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job being described.
    pub job: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Jumbles completed so far.
    pub done: usize,
    /// Total jumbles in the job.
    pub total: usize,
    /// The job's label, echoed back.
    pub label: String,
    /// Failure reason, when `state` is [`JobState::Failed`].
    pub failure: Option<String>,
}

/// One finished jumble inside a [`JobResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTree {
    /// The adjusted jumble seed that produced this tree.
    pub seed: u64,
    /// The tree in Newick form.
    pub newick: String,
    /// Its final log-likelihood.
    pub ln_likelihood: f64,
}

/// The final product of a job, streamed to an attached client and kept in
/// the daemon registry after completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: JobId,
    /// Every jumble's tree, in seed-plan order (byte-identical to a
    /// serial run of the same seeds).
    pub trees: Vec<JobTree>,
    /// Majority-rule consensus over `trees` (absent for a single jumble).
    pub consensus_newick: Option<String>,
    /// Newick of the best-scoring jumble (first in plan order on ties).
    pub best_newick: String,
    /// Log-likelihood of `best_newick`.
    pub best_ln_likelihood: f64,
    /// The job's rendered per-job run report, when observation was on.
    pub report: Option<String>,
}

/// Typed admission-control verdict for a refused submission or an
/// unanswerable query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The spec asked for more than the daemon allows.
    QuotaExceeded {
        /// Which quota was exceeded (`"max_ranks"`, `"max_wall_ms"`,
        /// `"jumbles"`).
        quota: String,
        /// What the spec requested.
        requested: u64,
        /// The daemon's ceiling.
        limit: u64,
    },
    /// The daemon's admission queue is at capacity.
    QueueFull {
        /// The configured queue limit.
        limit: usize,
    },
    /// The spec failed validation (bad PHYLIP, bad config JSON, ...).
    Malformed {
        /// What was wrong.
        reason: String,
    },
    /// The queried/attached job id is not in the registry.
    UnknownJob {
        /// The id that was asked for.
        job: JobId,
    },
    /// An attach to a job that ended without a result.
    JobFailed {
        /// The failed job.
        job: JobId,
        /// Why it failed.
        reason: String,
    },
    /// A rank-slot rejoin presented a job binding that no longer matches
    /// the slot's — the cross-job guard: after the hub declared a peer
    /// dead and re-dedicated its rank to another job, the stale client's
    /// reconnect must be refused, not silently bound to the wrong problem.
    WrongJob {
        /// The rank slot being contested.
        rank: usize,
        /// The job the slot is currently bound to.
        bound: Option<JobId>,
        /// The job the reconnecting client presented.
        presented: Option<JobId>,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QuotaExceeded {
                quota,
                requested,
                limit,
            } => write!(
                f,
                "quota {quota} exceeded: requested {requested}, limit {limit}"
            ),
            RejectReason::QueueFull { limit } => {
                write!(f, "job queue full (limit {limit})")
            }
            RejectReason::Malformed { reason } => write!(f, "malformed job spec: {reason}"),
            RejectReason::UnknownJob { job } => write!(f, "unknown job {job}"),
            RejectReason::JobFailed { job, reason } => {
                write!(f, "job {job} failed: {reason}")
            }
            RejectReason::WrongJob {
                rank,
                bound,
                presented,
            } => write!(
                f,
                "rank {rank} is bound to job {bound:?}, not {presented:?}"
            ),
        }
    }
}

impl std::error::Error for RejectReason {}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> JobSpecBuilder {
        JobSpec::builder()
            .phylip(" 4 4\na ACGT\nb ACGA\nc AGGT\nd ACTT\n")
            .config_json("{}")
    }

    #[test]
    fn builder_produces_defaults() {
        let spec = minimal().build().unwrap();
        assert_eq!(spec.jumbles, 1);
        assert_eq!(spec.base_seed, 1);
        assert_eq!(spec.max_ranks, 0);
        assert_eq!(spec.max_wall_ms, 0);
    }

    #[test]
    fn conflict_is_typed_and_names_the_flag() {
        let err = minimal()
            .conflict("--midpoint", "--outgroup")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            JobSpecError::Conflict {
                flag: "--midpoint".into(),
                conflicts_with: "--outgroup".into(),
            }
        );
        assert!(err.to_string().contains("--midpoint"));
        assert!(err.to_string().contains("--outgroup"));
    }

    #[test]
    fn conflict_if_only_fires_when_true() {
        assert!(minimal().conflict_if(false, "--a", "--b").build().is_ok());
        assert!(minimal().conflict_if(true, "--a", "--b").build().is_err());
    }

    #[test]
    fn missing_input_is_reported() {
        let err = JobSpec::builder().config_json("{}").build().unwrap_err();
        assert!(matches!(err, JobSpecError::Missing { ref flag } if flag == "--input"));
    }

    #[test]
    fn zero_jumbles_rejected() {
        let err = minimal().jumbles(0).build().unwrap_err();
        assert!(matches!(err, JobSpecError::Invalid { ref flag, .. } if flag == "--jumbles"));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = minimal()
            .jumbles(3)
            .base_seed(7)
            .max_ranks(4)
            .max_wall_ms(60_000)
            .label("demo")
            .build()
            .unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn status_and_result_round_trip() {
        let status = JobStatus {
            job: 2,
            state: JobState::Running,
            done: 1,
            total: 3,
            label: "demo".into(),
            failure: None,
        };
        let json = serde_json::to_string(&status).unwrap();
        assert_eq!(serde_json::from_str::<JobStatus>(&json).unwrap(), status);

        let result = JobResult {
            job: 2,
            trees: vec![JobTree {
                seed: 7,
                newick: "(a,b,(c,d));".into(),
                ln_likelihood: -123.5,
            }],
            consensus_newick: None,
            best_newick: "(a,b,(c,d));".into(),
            best_ln_likelihood: -123.5,
            report: None,
        };
        let json = serde_json::to_string(&result).unwrap();
        assert_eq!(serde_json::from_str::<JobResult>(&json).unwrap(), result);
    }

    #[test]
    fn reject_reasons_round_trip_and_render() {
        let reasons = vec![
            RejectReason::QuotaExceeded {
                quota: "max_ranks".into(),
                requested: 64,
                limit: 8,
            },
            RejectReason::QueueFull { limit: 4 },
            RejectReason::Malformed {
                reason: "bad phylip".into(),
            },
            RejectReason::UnknownJob { job: 9 },
        ];
        for r in reasons {
            let json = serde_json::to_string(&r).unwrap();
            assert_eq!(serde_json::from_str::<RejectReason>(&json).unwrap(), r);
            assert!(!r.to_string().is_empty());
        }
    }
}
