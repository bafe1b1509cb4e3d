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
//!   hub with the daemon's master (rank 0), the universe's foreman and
//!   monitor on two loopback connections (ranks 1 and 2), and optionally
//!   forked worker processes (ranks 3+).
//! * [`registry::Registry`] — durable job state under one directory:
//!   `jobs.json` plus a farm manifest per job, written through before
//!   any acknowledgement, so a killed daemon resumes its in-flight jobs
//!   with no jumble lost or repeated.
//! * [`client`] — the submit / status / attach calls the CLI's
//!   `--submit`, `--status`, and `--attach` modes wrap.
//!
//! Admission is fair-share round-robin: each eligible job receives one
//! jumble per free worker in turn, bounded by its admitted `max_ranks`
//! quota, so concurrent farms interleave over one fleet instead of
//! queueing behind each other. The jumbles go through the same foreman
//! (`Sched`) as every CLI run's, and each runs through the same
//! `Evaluator::jumble` code path, keeping results byte-identical to a
//! serial run of the same seeds.
//!
//! Every worker holds one engine per active job: a job's `JobData`
//! reaches each worker when the job is admitted or the worker joins,
//! before any of the job's jumbles can. The unit of work is a whole
//! jumble — thousands of candidate evaluations per frame — so one foreman
//! saturates far more workers than the per-candidate dispatch path does.

#![warn(missing_docs)]

pub mod client;
pub mod registry;
mod scheduler;

pub use registry::{JobEntry, Registry};

use fdml_comm::transport::{ranks, Rank, Transport};
use fdml_core::runner::ServiceRanks;
use fdml_net::{ClientConfig, NetConfig, TcpHub, TcpTransport};
use fdml_obs::{Obs, Sink};
use scheduler::{Limits, Scheduler, MODE_KILL, MODE_RUN, MODE_STOP};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for one daemon instance.
pub struct ServeOptions {
    /// Address to listen on (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Universe size: rank 0 (hub and master) + rank 1 (foreman) + rank 2
    /// (monitor) + workers. Must be at least 4.
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
}

impl ServeOptions {
    /// Defaults: queue limit 8, no rank/wall ceilings, no forked
    /// workers, unobserved.
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
        }
    }
}

/// A running daemon: the hub, the master thread, the foreman and monitor
/// threads, and any forked workers. Dropping the handle hard-stops
/// everything (like a crash); call [`Daemon::stop`] for a graceful
/// shutdown.
pub struct Daemon {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    thread: Option<JoinHandle<()>>,
    children: Vec<Child>,
}

impl Daemon {
    /// Bind the hub, start the foreman and the monitor, fork workers if
    /// asked, revive unfinished jobs from the state directory, and start
    /// the master.
    pub fn start(options: ServeOptions) -> io::Result<Daemon> {
        assert!(
            options.num_ranks >= 4,
            "a daemon universe needs hub + foreman + monitor + at least one worker"
        );
        let obs = Obs::multi(options.sinks);
        let (hub, service) = universe(&options.listen, options.num_ranks, &obs)?;
        let addr = hub.local_addr();
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
        let scheduler = Scheduler::new(hub, service, registry, obs, limits, Arc::clone(&mode));
        let thread = std::thread::Builder::new()
            .name("fdml-serve-master".into())
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

    /// Graceful shutdown: the foreman passes `Shutdown` on to the workers
    /// and the monitor, the daemon waits for every peer to hang up (durable
    /// state is already on disk), and forked children are reaped.
    pub fn stop(mut self) {
        self.halt(MODE_STOP);
    }

    /// Hard stop, simulating a daemon crash: no farewell to anyone, and
    /// nothing joined but the master. Durable state stays exactly as the
    /// last write-through left it — the restart-resume path's test hook.
    /// The foreman and the monitor end on their own once their links to
    /// the dropped hub give up.
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

/// Bind the hub for `num_ranks` ranks with ranks 1 and 2 reserved, claim
/// them over loopback, and run the universe's foreman and monitor on the
/// two connections. The foreman's timeout never fires: a jumble runs as
/// long as it runs, and only a dropped connection takes it back.
///
/// The ranks are reserved before the hub starts accepting, so an external
/// worker (or a stale client) dialing the listen address during startup
/// cannot race the daemon for its own foreman and monitor slots.
fn universe(listen: &str, num_ranks: usize, obs: &Obs) -> io::Result<(TcpHub, ServiceRanks)> {
    let hub = TcpHub::bind_reserved(
        listen,
        num_ranks,
        &[ranks::FOREMAN, ranks::MONITOR],
        NetConfig::default(),
        obs.clone(),
    )?;
    let addr = hub.local_addr();
    let claim = |rank: Rank| -> io::Result<TcpTransport> {
        let config = ClientConfig {
            claim: Some(rank),
            ..ClientConfig::default()
        };
        let transport = TcpTransport::connect_observed(addr, config, Obs::disabled())?;
        if transport.rank() != rank {
            return Err(io::Error::other(format!(
                "claimed rank {rank} but was assigned {}",
                transport.rank()
            )));
        }
        Ok(transport)
    };
    let (foreman, monitor) = (claim(ranks::FOREMAN)?, claim(ranks::MONITOR)?);
    let service = ServiceRanks::start(foreman, monitor, Duration::MAX, obs);
    Ok((hub, service))
}
