//! `fdml-serve`: the always-on, multi-tenant inference daemon.
//!
//! The paper's runtime tears the whole PVM/MPI universe down after every
//! analysis. This crate promotes the TCP hub into a persistent service:
//! the daemon stays up across jobs, a shared worker fleet stays
//! connected, and clients submit work over the same versioned wire
//! protocol the compute plane uses — alignment and configuration in,
//! streamed progress and the final trees out.
//!
//! * [`ServeOptions`] / [`Daemon`] — configure and run the daemon: the
//!   hub (rank 0), the scheduler's loopback foreman connection (rank 1),
//!   a monitor placeholder (rank 2), and optionally forked worker
//!   processes (ranks 3+).
//! * [`registry::Registry`] — durable job state under one directory:
//!   `jobs.json` plus a farm manifest per job, written through before
//!   any acknowledgement, so a killed daemon resumes its in-flight jobs
//!   with no jumble lost or repeated.
//! * [`client`] — the submit / status / attach calls the CLI's
//!   `--submit`, `--status`, and `--attach` modes wrap.
//!
//! Scheduling is fair-share round-robin: each eligible job receives one
//! jumble per cycle, bounded by its admitted `max_ranks` quota, so
//! concurrent farms interleave over one fleet instead of queueing behind
//! each other — and every jumble still runs through the same
//! `Evaluator::jumble` code path, keeping results byte-identical to a
//! serial run of the same seeds.
//!
//! The daemon speaks the `fdml-wire` binary codec by default
//! ([`ServeOptions::wire`]) and introduces each job to a worker in a
//! single `Batch` frame (alignment + first jumble together). Its
//! scheduling is flat, like the one-shot coordinator's: the unit of work
//! is a whole jumble — thousands of candidate evaluations per frame — so a
//! single scheduler saturates far more workers than the per-candidate
//! dispatch path does.

#![warn(missing_docs)]

pub mod client;
pub mod registry;
mod scheduler;

pub use registry::{JobEntry, Registry};

use fdml_comm::transport::{ranks, Rank, Transport};
use fdml_net::{ClientConfig, NetConfig, TcpHub, TcpTransport, WireFormat};
use fdml_obs::{Obs, Sink};
use scheduler::{Limits, Scheduler, MODE_KILL, MODE_RUN, MODE_STOP};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for one daemon instance.
pub struct ServeOptions {
    /// Address to listen on (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Universe size: rank 0 (hub) + rank 1 (scheduler) + rank 2
    /// (monitor placeholder) + workers. Must be at least 4.
    pub num_ranks: usize,
    /// Durable state directory (`jobs.json` + per-job manifests).
    pub state_dir: PathBuf,
    /// Most admitted-but-unfinished jobs at once; further submissions
    /// get a typed `QueueFull` rejection.
    pub max_jobs: usize,
    /// Ceiling on a job's `max_ranks` quota request (0 = none).
    pub max_job_ranks: usize,
    /// Ceiling on a job's `max_wall_ms` request, and the default budget
    /// for jobs that request none (0 = none).
    pub max_wall_ms: u64,
    /// Fork this binary as the worker fleet (`--net worker --connect`).
    /// `None` leaves the fleet to external joiners.
    pub spawn: Option<PathBuf>,
    /// Observability sinks for the daemon-global event stream (each job
    /// additionally gets its own in-memory sink behind its run report).
    pub sinks: Vec<Box<dyn Sink>>,
    /// Wire format the hub writes its data-plane frames in. Workers that
    /// did not advertise codec-sniffing support are written JSON
    /// regardless, so a mixed fleet keeps working.
    pub wire: WireFormat,
}

impl ServeOptions {
    /// Defaults: queue limit 8, no rank/wall ceilings, no forked
    /// workers, unobserved, binary wire.
    pub fn new(
        listen: impl Into<String>,
        num_ranks: usize,
        state_dir: impl Into<PathBuf>,
    ) -> ServeOptions {
        ServeOptions {
            listen: listen.into(),
            num_ranks,
            state_dir: state_dir.into(),
            max_jobs: 8,
            max_job_ranks: 0,
            max_wall_ms: 0,
            spawn: None,
            sinks: Vec::new(),
            wire: WireFormat::Binary,
        }
    }
}

/// A running daemon: the hub, the scheduler thread, and any forked
/// workers. Dropping the handle hard-stops everything (like a crash);
/// call [`Daemon::stop`] for a graceful shutdown.
pub struct Daemon {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    thread: Option<JoinHandle<()>>,
    children: Vec<Child>,
}

impl Daemon {
    /// Bind the hub, dial the scheduler and monitor ranks, fork workers
    /// if asked, revive unfinished jobs from the state directory, and
    /// start scheduling.
    pub fn start(options: ServeOptions) -> io::Result<Daemon> {
        assert!(
            options.num_ranks >= 4,
            "a daemon universe needs hub + scheduler + monitor + at least one worker"
        );
        let obs = Obs::multi(options.sinks);
        // Ranks 1 and 2 are reserved before the hub starts accepting, so
        // an external worker (or a stale client) dialing the listen
        // address during startup cannot race the daemon for its own
        // scheduler and monitor slots.
        let hub = TcpHub::bind_reserved(
            options.listen.as_str(),
            options.num_ranks,
            &[ranks::FOREMAN, ranks::MONITOR],
            NetConfig {
                wire: options.wire,
                ..NetConfig::default()
            },
            obs.clone(),
        )?;
        let addr = hub.local_addr();
        // Explicit claims pin the scheduler to rank 1 (the foreman slot,
        // where workers address their results) and the placeholder to
        // rank 2, leaving 3.. for the fleet.
        let claim = |rank: Rank, what: &str| -> io::Result<TcpTransport> {
            let transport = TcpTransport::connect_observed(
                addr,
                ClientConfig {
                    claim: Some(rank),
                    ..ClientConfig::default()
                },
                Obs::disabled(),
            )?;
            if transport.rank() != rank {
                return Err(io::Error::other(format!(
                    "{what} claimed rank {rank} but was assigned {}",
                    transport.rank()
                )));
            }
            Ok(transport)
        };
        let foreman = claim(ranks::FOREMAN, "scheduler")?;
        let monitor = claim(ranks::MONITOR, "monitor placeholder")?;
        let mut children = Vec::new();
        if let Some(program) = &options.spawn {
            for _ in 3..options.num_ranks {
                let child = Command::new(program)
                    .arg("--net")
                    .arg("worker")
                    .arg("--connect")
                    .arg(addr.to_string())
                    .arg("--quiet")
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()?;
                children.push(child);
            }
        }
        // Observed open: a torn `jobs.json` tail recovers to the last
        // valid snapshot with a DurableRecovered warning instead of
        // aborting startup.
        let registry = Registry::open_observed(&options.state_dir, &obs)?;
        let limits = Limits {
            max_jobs: options.max_jobs,
            max_job_ranks: options.max_job_ranks,
            max_wall_ms: options.max_wall_ms,
        };
        let mode = Arc::new(AtomicU8::new(MODE_RUN));
        let scheduler = Scheduler::new(
            hub,
            foreman,
            monitor,
            registry,
            obs,
            limits,
            Arc::clone(&mode),
        );
        let thread = std::thread::Builder::new()
            .name("fdml-serve-sched".into())
            .spawn(move || scheduler.run())?;
        Ok(Daemon {
            addr,
            mode,
            thread: Some(thread),
            children,
        })
    }

    /// The address the daemon actually serves on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: workers receive `Shutdown`, durable state is
    /// already on disk, forked children are reaped.
    pub fn stop(mut self) {
        self.halt(MODE_STOP);
    }

    /// Hard stop, simulating a daemon crash: no farewell to anyone.
    /// Durable state stays exactly as the last write-through left it —
    /// the restart-resume path's test hook.
    pub fn kill(mut self) {
        self.halt(MODE_KILL);
    }

    fn halt(&mut self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.halt(MODE_KILL);
    }
}
