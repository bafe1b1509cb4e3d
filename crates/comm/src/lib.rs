//! Message passing for the parallel fastDNAml runtime.
//!
//! The paper makes a point of its communication design: *"Calls to any
//! message passing libraries are sequestered in a single file (one each for
//! serial, PVM, and MPI implementations). … This keeps the code, other than
//! the communications definition files, independent of any particular
//! message passing library."* This crate is that file's Rust analog: the
//! master / foreman / worker / monitor processes in `fdml-core` talk only
//! through the [`transport::Transport`] trait.
//!
//! Back ends:
//!
//! * [`threads`] — ranks are OS threads joined by crossbeam channels, the
//!   shared-memory stand-in for MPI ranks (the `repro_why` note: MPI
//!   bindings are thin, so the dispatch/queue/fault-tolerance code paths
//!   are exercised over channels instead of a wire).
//!
//! The serial build needs no transport at all: as in the paper, "the worker
//! process acts as a subroutine in the serial version of fastDNAml".

#![warn(missing_docs)]

pub mod codec;
pub mod job;
pub mod message;
pub mod recording;
pub mod threads;
pub mod transport;

pub use codec::{CodecError, JsonCodec, MessageCodec};
pub use job::{JobId, JobResult, JobSpec, JobState, JobStatus, JobTree, RejectReason};
pub use message::{EditScore, Message, MessageKind, MonitorEvent, TaskPayload, TreeEdit};
pub use recording::Recording;
pub use threads::ThreadUniverse;
pub use transport::{ranks, CommError, Rank, Transport};
