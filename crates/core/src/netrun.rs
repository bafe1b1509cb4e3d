//! Multi-process orchestration over the TCP transport.
//!
//! This is the launcher layer of the paper's distributed deployments: one
//! *coordinator* process hosts the hub and the control ranks — 0 master, 1
//! foreman, 2 monitor, the latter two as threads over the hub's hosted
//! endpoints, started by the same `ServiceRanks` helper the threaded
//! runtime uses — and *peer* processes dial in and become the worker rank
//! the hub assigns from 3 up, running exactly the same `run_worker` loop
//! the threaded build runs, now against [`fdml_net::TcpTransport`] instead
//! of a channel endpoint. Master, foreman and monitor talk over channels; a
//! task crosses a socket twice, foreman → worker and back.
//!
//! [`run_net`] is the TCP member of the one-launcher-per-transport family
//! ([`crate::runner`]): a [`ResolvedJob`] (what to run), a [`NetOptions`]
//! bundle (where to run it) and the shared [`RunOptions`], run as one
//! `farm::Ledger` job by the same master, returning the same
//! [`RunOutcome`].
//!
//! [`run_net`] can also fork the peers itself (`spawn` mode), reproducing
//! the single-command cluster launch of `mpirun -np N` on one machine:
//! children are re-invocations of the current executable in peer mode,
//! connected over loopback.

use crate::farm::{run_job, to_foreman};
use crate::job::ResolvedJob;
use crate::runner::{RunObserver, RunOptions, RunOutcome, ServiceRanks};
use crate::worker::{ranks, run_worker, WorkerStats};
use fdml_comm::message::Message;
use fdml_comm::recording::Recording;
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_net::{ClientConfig, HostedRank, NetConfig, TcpHub, TcpTransport};
use fdml_obs::{Event, Obs, Sink};
use fdml_phylo::error::PhyloError;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spawn-mode settings: the coordinator forks its own peers.
#[derive(Debug, Clone)]
pub struct NetSpawn {
    /// The executable to run for each peer (normally `current_exe`).
    pub program: PathBuf,
    /// Chaos: the child destined for this rank is told to kill itself
    /// (`process::exit`) just before sending result number `tasks + 1` —
    /// a real process death mid-search, for exercising the foreman's
    /// requeue path end to end.
    pub die_after_tasks: Option<(Rank, u64)>,
    /// Forward `--quiet` to the children, silencing their shutdown
    /// summaries on stderr.
    pub quiet: bool,
    /// Self-healing: respawn worker processes that die mid-run, with
    /// capped exponential backoff. The replacement dials back in, the hub
    /// re-binds it to the lowest dead slot, the master re-sends the
    /// problem data (`PeerUp`), and the foreman re-admits it through the
    /// ready queue. Respawned children never inherit `die_after_tasks`.
    pub supervise: bool,
    /// Ceiling on respawns per worker slot when supervising.
    pub max_restarts: u32,
}

impl NetSpawn {
    /// Plain spawn settings for `program`: no chaos, no supervision.
    pub fn new(program: PathBuf) -> NetSpawn {
        NetSpawn {
            program,
            die_after_tasks: None,
            quiet: false,
            supervise: false,
            max_restarts: 3,
        }
    }
}

/// Where a coordinator runs: the listen address, universe size and
/// optional peer spawning. The job itself rides as a
/// [`ResolvedJob`], how it is steered as [`RunOptions`];
/// [`NetOptions::new`] waits for external dials.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Address to bind the hub on (`host:0` picks an ephemeral port).
    pub listen: String,
    /// Total universe size including the coordinator (minimum 4).
    pub num_ranks: usize,
    /// Fork the peers ourselves — the single-command cluster launch.
    pub spawn: Option<NetSpawn>,
}

impl NetOptions {
    /// Plain settings: listen on `listen`, expect `num_ranks` ranks, peers
    /// dial in on their own.
    pub fn new(listen: impl Into<String>, num_ranks: usize) -> NetOptions {
        NetOptions {
            listen: listen.into(),
            num_ranks,
            spawn: None,
        }
    }

    /// Fork the peers from `spawn` instead of waiting for external dials.
    pub fn spawning(mut self, spawn: NetSpawn) -> NetOptions {
        self.spawn = Some(spawn);
        self
    }
}

/// How long the coordinator waits for the universe to assemble.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The `--net worker` command line of one forked peer: `rank` is the rank
/// it will be, if a `--die-after-tasks` plan may name it. Its stdout is
/// closed; its stderr is the caller's.
pub fn peer_command(spawn: &NetSpawn, addr: &str, rank: Option<Rank>) -> Command {
    let mut cmd = Command::new(&spawn.program);
    cmd.arg("--net")
        .arg("worker")
        .arg("--connect")
        .arg(addr)
        .stdout(Stdio::null());
    if spawn.quiet {
        cmd.arg("--quiet");
    }
    // An explicit `--isa` narrows the whole universe to one lane; children
    // must inherit it or worker-side dispatch would silently diverge.
    if let Some(isa) = fdml_likelihood::isa::override_isa() {
        cmd.arg("--isa").arg(isa.name());
    }
    if let (Some(rank), Some((die_rank, tasks))) = (rank, spawn.die_after_tasks) {
        if die_rank == rank {
            cmd.arg("--die-after-tasks").arg(tasks.to_string());
        }
    }
    cmd
}

/// The coordinator's side of an assembled universe: the master's endpoint,
/// the foreman's and the monitor's, and the forked peers.
type Universe = (TcpHub, HostedRank, HostedRank, Vec<(Rank, Child)>);

/// Bind the hub — hosting ranks 0–2 — fork the peers if asked, and wait
/// for the universe.
///
/// Spawning is sequential — each child's handshake is awaited (on the
/// hub's own signal, not a sleep) before the next fork — so connection
/// order, and therefore rank assignment, is deterministic (child *i*
/// becomes rank *i*).
fn assemble_universe(
    listen: &str,
    num_ranks: usize,
    obs: &Obs,
    spawn: &Option<NetSpawn>,
) -> Result<Universe, PhyloError> {
    assert!(
        num_ranks >= 4,
        "the fully instrumented parallel version requires at least four ranks"
    );
    let (hub, mut hosted) = TcpHub::bind_hosting(
        listen,
        num_ranks,
        ranks::FIRST_WORKER,
        NetConfig::default(),
        obs.clone(),
    )
    .map_err(|e| PhyloError::Format(format!("bind {listen}: {e}")))?;
    let monitor_end = hosted.pop().expect("rank 2 is hosted");
    let foreman_end = hosted.pop().expect("rank 1 is hosted");
    let addr = hub.local_addr().to_string();

    let mut children: Vec<(Rank, Child)> = Vec::new();
    if let Some(spawn) = spawn {
        for rank in ranks::FIRST_WORKER..num_ranks {
            let child = peer_command(spawn, &addr, Some(rank))
                .spawn()
                .map_err(|e| PhyloError::Format(format!("spawn peer: {e}")))?;
            children.push((rank, child));
            if !hub.wait_for_peers(READY_TIMEOUT, |connected| connected >= children.len()) {
                reap(&mut children, Duration::ZERO);
                return Err(PhyloError::Format(format!(
                    "spawned peer for rank {rank} never connected"
                )));
            }
        }
    }
    hub.wait_ready(READY_TIMEOUT)
        .map_err(|e| PhyloError::Format(format!("waiting for peers: {e}")))?;
    Ok((hub, foreman_end, monitor_end, children))
}

/// Shut the universe down: stop supervision, wait for the peers to
/// acknowledge by disconnecting (or the foreman's Shutdown cascade would
/// race the relay teardown and surviving ranks would die on a broken link
/// instead of exiting cleanly), then collect child exit statuses.
fn drain_and_reap(
    master_end: Recording<TcpHub>,
    supervisor: Option<Supervisor>,
    mut children: Vec<(Rank, Child)>,
) -> Vec<(Rank, Option<i32>)> {
    let mut peer_exits = Vec::new();
    if let Some(sup) = supervisor {
        let (mut kids, mut exits) = sup.finish();
        children.append(&mut kids);
        peer_exits.append(&mut exits);
    }
    master_end
        .inner()
        .wait_for_peers(Duration::from_secs(10), |connected| connected == 0);
    peer_exits.extend(reap(&mut children, Duration::from_secs(30)));
    drop(master_end);
    peer_exits
}

/// The multi-process program: bind the hub — hosting ranks 0–2 — fork and
/// supervise the peers if asked, wait for the universe, start the foreman
/// and the monitor on their hosted endpoints, run the job as rank 0, and
/// afterwards drain and reap the universe. The outcome's report holds the
/// coordinator's ranks (master, foreman, monitor) plus the hub's per-peer
/// connection events. The peers are stateless between tasks, so only rank
/// 0 carries state worth saving: `options.wal_dir` makes a coordinator
/// killed mid-run restartable.
pub fn run_net(
    job: &ResolvedJob,
    net: NetOptions,
    options: RunOptions,
) -> Result<RunOutcome, PhyloError> {
    let NetOptions {
        listen,
        num_ranks,
        spawn,
    } = net;
    let observer = RunObserver::start(options.sinks, num_ranks, num_ranks - ranks::FIRST_WORKER);
    let obs = &observer.obs;
    let (hub, foreman_end, monitor_end, mut children) =
        assemble_universe(&listen, num_ranks, obs, &spawn)?;
    let addr = hub.local_addr().to_string();
    let supervisor = match &spawn {
        Some(s) if s.supervise => Some(Supervisor::start(
            std::mem::take(&mut children),
            s.clone(),
            addr,
            obs.clone(),
        )),
        _ => None,
    };
    let service = ServiceRanks::start(foreman_end, monitor_end, job.config.worker_timeout, obs);
    let master_end = Recording::new(hub, obs.clone());
    let (master_end, parts) = run_job(
        master_end,
        job,
        options.width,
        options.wal_dir,
        obs,
        to_foreman,
    );
    let (foreman, monitor) = service.join();
    let relayed = master_end.inner().relayed();
    // The teardown helper keeps the hub alive until the peers acknowledge
    // the shutdown by disconnecting.
    let peer_exits = drain_and_reap(master_end, supervisor, children);
    let parts = parts?;
    let best = parts.best_ln_likelihood();
    Ok(RunOutcome {
        foreman,
        monitor,
        relayed,
        peer_exits,
        ..RunOutcome::new(parts, observer.finish(best))
    })
}

/// What supervision hands back at shutdown: the surviving children, plus
/// the exit status of every child that died (and was possibly replaced)
/// along the way.
type SupervisionOutcome = (Vec<(Rank, Child)>, Vec<(Rank, Option<i32>)>);

/// First respawn delay; doubles per restart of the same slot.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(50);
/// Ceiling on the per-slot respawn delay.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// The process-level half of the self-healing layer: watches spawned
/// children on its own thread and respawns dead workers. The coordinator
/// stops it the moment shutdown begins, so deaths during teardown are not
/// "healed" back to life.
struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<SupervisionOutcome>,
}

impl Supervisor {
    fn start(children: Vec<(Rank, Child)>, spawn: NetSpawn, addr: String, obs: Obs) -> Supervisor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || supervise(children, spawn, addr, obs, stop_flag));
        Supervisor { stop, handle }
    }

    /// Stop supervising and hand back the surviving children plus the
    /// exit statuses of every child that died (and was possibly replaced)
    /// along the way.
    fn finish(self) -> SupervisionOutcome {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("supervisor thread must not panic")
    }
}

fn supervise(
    mut children: Vec<(Rank, Child)>,
    spawn: NetSpawn,
    addr: String,
    obs: Obs,
    stop: Arc<AtomicBool>,
) -> SupervisionOutcome {
    let mut restarts: HashMap<Rank, u32> = HashMap::new();
    // Slots waiting out their backoff before the next respawn attempt.
    let mut due: Vec<(Rank, Instant)> = Vec::new();
    let mut early_exits: Vec<(Rank, Option<i32>)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let mut i = 0;
        while i < children.len() {
            match children[i].1.try_wait() {
                Ok(Some(status)) => {
                    let (rank, _) = children.remove(i);
                    early_exits.push((rank, status.code()));
                    let count = *restarts.get(&rank).unwrap_or(&0);
                    if rank >= ranks::FIRST_WORKER && count < spawn.max_restarts {
                        let backoff = RESPAWN_BACKOFF
                            .saturating_mul(1u32 << count.min(16))
                            .min(RESPAWN_BACKOFF_CAP);
                        due.push((rank, Instant::now() + backoff));
                    }
                }
                _ => i += 1,
            }
        }
        let now = Instant::now();
        let mut j = 0;
        while j < due.len() {
            if due[j].1 > now {
                j += 1;
                continue;
            }
            let (rank, _) = due.remove(j);
            let count = restarts.entry(rank).or_insert(0);
            *count += 1;
            let restart_count = *count as u64;
            // Deliberately built without `--die-after-tasks` (rank None):
            // the replacement is healthy even when the original was a
            // chaos casualty.
            match peer_command(&spawn, &addr, None).spawn() {
                Ok(child) => {
                    obs.emit(|| Event::WorkerRespawned {
                        worker: rank,
                        restarts: restart_count,
                    });
                    children.push((rank, child));
                }
                Err(_) => {
                    // The slot stays dead; the foreman schedules around it.
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    (children, early_exits)
}

/// Collect spawned peers, killing any that outlive `grace`.
fn reap(children: &mut Vec<(Rank, Child)>, grace: Duration) -> Vec<(Rank, Option<i32>)> {
    let deadline = Instant::now() + grace;
    let mut exits = Vec::with_capacity(children.len());
    for (rank, mut child) in children.drain(..) {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    exits.push((rank, status.code()));
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    exits.push((rank, None));
                    break;
                }
            }
        }
    }
    exits
}

/// Run this process as a peer: dial the coordinator, learn our rank, and
/// run the worker loop until shutdown. `die_after_tasks` arms the chaos
/// exit used by fault-injection tests (see [`NetSpawn::die_after_tasks`]).
pub fn run_net_peer(
    connect: &str,
    sinks: Vec<Box<dyn Sink>>,
    die_after_tasks: Option<u64>,
) -> Result<(Rank, WorkerStats), String> {
    let obs = Obs::multi(sinks);
    let transport = TcpTransport::connect_observed(connect, ClientConfig::default(), obs.clone())
        .map_err(|e| format!("connect {connect}: {e}"))?;
    let rank = transport.rank();
    if rank < ranks::FIRST_WORKER {
        // Only a coordinator from before control ranks were hosted hands
        // these out.
        return Err(format!(
            "assigned control rank {rank}: this build's coordinator runs the foreman and \
             the monitor itself"
        ));
    }
    let limit = die_after_tasks.unwrap_or(u64::MAX);
    let (inner, sent) = (Recording::new(transport, obs.clone()), Cell::new(0));
    let stats = run_worker(DieAfter { inner, limit, sent }, obs.clone())
        .map_err(|e| format!("worker: {e:?}"))?;
    obs.flush();
    Ok((rank, stats))
}

/// Chaos wrapper: lets `limit` results (tree, jumble or edit chunk)
/// through (`u64::MAX`: all), then terminates the whole process before the
/// next one — a genuine worker death, distinct from a
/// [`fdml_chaos::ChaosPlan`] sever, which only cuts an in-process link.
struct DieAfter<T: Transport> {
    inner: T,
    limit: u64,
    sent: Cell<u64>,
}

impl<T: Transport> Transport for DieAfter<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: Rank, msg: &Message) -> Result<(), CommError> {
        if msg.is_result() {
            if self.sent.get() >= self.limit {
                // Abrupt death: no Goodbye, no flush — the coordinator
                // must discover it via liveness, exactly like a crashed
                // node in the paper's clusters.
                std::process::exit(3);
            }
            self.sent.set(self.sent.get() + 1);
        }
        self.inner.send(to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Rank, Message)>, CommError> {
        self.inner.recv_timeout(timeout)
    }
}
