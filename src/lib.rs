//! # fastdnaml
//!
//! A Rust reproduction of **fastDNAml** — *Parallel implementation and
//! performance of fastDNAml: a program for maximum likelihood phylogenetic
//! inference* (Stewart, Hart, Berry, Olsen, Wernert & Fischer, SC 2001).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`phylo`] — alignments, PHYLIP/FASTA/Newick I/O, unrooted trees,
//!   rearrangements, bipartitions, consensus.
//! * [`likelihood`] — the F84 maximum-likelihood kernel with Newton
//!   branch-length optimization and rate categories.
//! * [`rates`] — the DNArates analog (per-site rate estimation).
//! * [`comm`] — the message-passing abstraction (threads; the sequential
//!   loopback lives in [`core`]).
//! * [`chaos`] — the deterministic chaos harness: seeded fault schedules
//!   applied through a transport wrapper.
//! * [`core`] — the fastDNAml search and the master / foreman / worker /
//!   monitor parallel runtime.
//! * [`net`] — the TCP transport: framed wire protocol, coordinator hub,
//!   reconnecting clients, and the v3 service plane.
//! * [`serve`] — the always-on multi-tenant daemon: durable job registry,
//!   fair-share scheduler over a shared worker fleet, and the
//!   submit / status / attach client.
//! * [`obs`] — the observability layer: structured runtime events, sinks
//!   (memory / JSONL), and the end-of-run [`obs::RunReport`].
//! * [`simsp`] — the IBM RS/6000 SP discrete-event simulator used to
//!   regenerate the paper's scaling figures.
//! * [`datagen`] — synthetic dataset generation (random trees, sequence
//!   evolution).
//! * [`treeviz`] — tree layout, tracing, and rendering (the paper's viewer
//!   core library).
//!
//! ## Quickstart
//!
//! ```
//! use fastdnaml::prelude::*;
//!
//! // Four aligned sequences (PHYLIP text would normally come from a file).
//! let alignment = Alignment::from_strings(&[
//!     ("human",   "ACGTACGTACGTACGTAAAA"),
//!     ("chimp",   "ACGTACGTACGTACGTAAAT"),
//!     ("mouse",   "ACGAACGTACTTACGTTTAA"),
//!     ("chicken", "ACGAACTTACTTACGTTTAT"),
//! ]).unwrap();
//!
//! let config = SearchConfig { jumble_seed: 137, ..SearchConfig::default() };
//! let job = ResolvedJob::single(alignment, config);
//! let outcome = run_in_process(&job, RunOptions::default()).unwrap();
//! assert!(outcome.runs[0].newick.contains("chicken"));
//! assert!(outcome.runs[0].ln_likelihood < 0.0);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use fdml_chaos as chaos;
pub use fdml_comm as comm;
pub use fdml_core as core;
pub use fdml_datagen as datagen;
pub use fdml_likelihood as likelihood;
pub use fdml_net as net;
pub use fdml_obs as obs;
pub use fdml_phylo as phylo;
pub use fdml_rates as rates;
pub use fdml_serve as serve;
pub use fdml_simsp as simsp;
pub use fdml_treeviz as treeviz;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use fdml_comm::job::{JobResult, JobSpec, JobState, JobStatus};
    pub use fdml_comm::transport::Transport;
    pub use fdml_core::config::SearchConfig;
    pub use fdml_core::job::ResolvedJob;
    pub use fdml_core::runner::{run_in_process, run_threaded, search_on, RunOptions, RunOutcome};
    pub use fdml_core::search::SearchResult;
    pub use fdml_likelihood::engine::LikelihoodEngine;
    pub use fdml_likelihood::f84::F84Model;
    pub use fdml_obs::{Event, JsonlSink, MemorySink, Obs, RunReport, Sink};
    pub use fdml_phylo::alignment::Alignment;
    pub use fdml_phylo::bipartition::{robinson_foulds, SplitSet};
    pub use fdml_phylo::newick;
    pub use fdml_phylo::patterns::PatternAlignment;
    pub use fdml_phylo::phylip;
    pub use fdml_phylo::tree::Tree;
}
