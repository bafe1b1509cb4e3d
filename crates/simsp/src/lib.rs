//! Discrete-event simulation of the paper's evaluation platform.
//!
//! The paper measured fastDNAml on an IBM RS/6000 SP: Power3+ "high nodes"
//! (375 MHz) connected by an SP Switch2, from 4 to 64 processors, with the
//! serial program on one processor as the baseline (§3.1). That machine is
//! not available here, so the scaling study is reproduced by simulation:
//!
//! 1. The real search runs once per dataset per jumble, recording a
//!    [`fdml_core::trace::SearchTrace`] — the exact sequence of dispatch
//!    rounds and the exact work units of every candidate tree.
//! 2. [`schedule::simulate_trace`] replays the trace for any processor
//!    count: three processors are dedicated to master / foreman / monitor
//!    (the paper's instrumented configuration), the rest are workers fed
//!    from the foreman's queue; a round ends when its last tree returns
//!    (the paper's "loosely synchronized" barrier).
//! 3. [`cost::CostModel`] converts work units to Power3+ seconds and
//!    charges SP Switch2 latency/bandwidth per message.
//!
//! Everything that shapes the paper's Figures 3 and 4 — round sizes versus
//! worker count, per-tree cost variance, dedicated control processors,
//! dispatch serialization — is taken from the measured trace or the
//! machine model, not from curve fitting.

#![warn(missing_docs)]

pub mod cost;
pub mod report;
pub mod schedule;

pub use cost::CostModel;
pub use report::{scaling_table, ScalingRow};
pub use schedule::{
    simulate_trace, simulate_trace_observed, simulate_trace_speculative, SimConfig, SimReport,
};
