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
/// admission. A spec is a plain value: nothing checks it when it is
/// written, and the daemon's admission (`ResolvedJob::from_spec`) refuses
/// one no worker could run.
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
        }
    }
}

impl std::error::Error for RejectReason {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            phylip: " 4 4\na ACGT\nb ACGA\nc AGGT\nd ACTT\n".into(),
            config_json: "{}".into(),
            jumbles: 3,
            base_seed: 7,
            max_ranks: 4,
            max_wall_ms: 60_000,
            label: "demo".into(),
        };
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
