//! The fastDNAml search and parallel runtime — the paper's contribution.
//!
//! * [`config`] — run configuration (seeds, rearrangement radii, model).
//! * [`jumble`] — random taxon addition orders (paper step 1, including the
//!   odd-seed adjustment).
//! * [`search`] — the stepwise-addition + rearrangement driver
//!   (paper steps 2–5), generic over how candidate rounds are evaluated.
//! * [`executor`] — the round-executor contract between the driver and
//!   whatever evaluates its candidate rounds.
//! * [`master`], [`foreman`], [`worker`], [`monitor`] — the four parallel
//!   modules of the paper (§2.2), written against `fdml-comm`'s transport.
//!   [`master::ClusterExecutor`] is the one executor; [`worker::Evaluator`]
//!   is the one place a task is computed; the foreman's queues and
//!   fault-tolerance ladder are one pure state machine (`sched`, private)
//!   that [`foreman`]'s shell drives.
//! * [`loopback`] — the sequential transport (the paper's `comm_seq.c`):
//!   the serial program is the master over an in-process evaluator.
//! * [`job`] — the unified job surface: resolving a wire-level
//!   `JobSpec` into the runnable form every orchestration entrypoint is
//!   constructed from.
//! * [`runner`] — entry points: `search_on` (the one way a search runs),
//!   the in-process and threaded programs, the threaded jumble farm.
//! * [`netrun`] — the same topology across OS processes over `fdml-net`'s
//!   TCP transport: coordinator, peer, and single-command spawn launchers.
//! * [`trace`] — dispatch-round traces consumed by the RS/6000 SP
//!   simulator to regenerate Figures 3 and 4.
//! * [`durable`] — the crash-consistent storage layer: fsynced atomic
//!   replace and the CRC32-framed append-only log with truncate-to-valid
//!   recovery, shared by farm manifests, the registry, and the WAL.
//! * [`wal`] — the write-ahead round log, the one way a run resumes: one
//!   framed record per committed search round, replayed when the same run
//!   is re-launched over the same `--wal-dir` — byte-identically within a
//!   numerics epoch, along the same trajectory across epochs.
//! * [`farm`] — the jumble farm: whole random-addition searches sharded
//!   across the worker pool, streaming into an incremental consensus and a
//!   manifest kept beside the jumbles' round logs.

#![warn(missing_docs)]

pub mod config;
pub mod durable;
mod edits;
pub mod executor;
pub mod farm;
pub mod foreman;
pub mod job;
pub mod jumble;
pub mod loopback;
pub mod master;
pub mod monitor;
pub mod netrun;
pub mod runner;
mod sched;
pub mod search;
pub mod trace;
pub mod wal;
pub mod worker;

pub use config::SearchConfig;
pub use job::ResolvedJob;
pub use runner::{parallel_search, search_in_process, search_on, RunOptions, SearchSession};
pub use search::{SearchResult, StepwiseSearch};
