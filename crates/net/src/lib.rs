//! TCP transport for the fastDNAml parallel runtime.
//!
//! The paper ran fastDNAml's master/foreman/worker/monitor topology over
//! PVM and MPI across clusters and supercomputers; this crate is the
//! workspace's equivalent of that `comm_*.c` layer for plain sockets, so
//! the same `fdml-core` run loops span OS processes and machines:
//!
//! * [`wire`] — the framed wire format: length prefix + CRC + a binary
//!   data-plane or JSON control-plane body, a versioned `Hello`/`Welcome`
//!   handshake, heartbeats,
//!   `Goodbye`; writers pack every queued frame into one `write`, readers
//!   take every complete frame out of one `read`.
//! * [`hub::TcpHub`] — the coordinator's endpoint (rank 0). Owns the
//!   listening socket, hosts the coordinator's control ranks as in-process
//!   [`hub::HostedRank`] endpoints, assigns the remote ranks in arrival
//!   order, routes every message, and watches liveness. It also fronts
//!   the v3 *service plane*: connections opening with `Submit` / `Query`
//!   / `Attach` are handed to the job API via
//!   [`hub::TcpHub::accept_service`].
//! * [`client::TcpTransport`] — a peer's endpoint. Learns its rank from
//!   the handshake and reconnects with exponential backoff when the link
//!   drops; only an exhausted backoff schedule surfaces as
//!   [`CommError::Disconnected`](fdml_comm::transport::CommError).
//!
//! Both endpoints implement [`fdml_comm::transport::Transport`] with the
//! exact semantics of the threaded transport (`send` is non-blocking and
//! buffered, `recv_timeout` returns `Ok(None)` on timeout), so everything
//! written against the trait — the foreman's scheduling, fault injection
//! via `FaultyTransport`, wire-byte accounting via `Recording` — composes
//! unchanged over TCP.

#![warn(missing_docs)]

pub mod client;
pub mod hub;
pub mod wire;

pub use client::{ClientConfig, TcpTransport};
pub use hub::{HostedRank, NetConfig, ServiceRequest, TcpHub};
