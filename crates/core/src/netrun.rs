//! Multi-process orchestration over the TCP transport.
//!
//! This is the launcher layer of the paper's distributed deployments: one
//! *coordinator* process hosts the hub and the control ranks — 0 master, 1
//! foreman, 2 monitor, the latter two as threads over the hub's hosted
//! endpoints, started by the same [`ServiceRanks`] helper the threaded
//! runtime uses — and *peer* processes dial in and become the worker rank
//! the hub assigns from 3 up, running exactly the same `run_worker` loop
//! the threaded build runs, now against [`fdml_net::TcpTransport`] instead
//! of a channel endpoint. Master, foreman and monitor talk over channels; a
//! task crosses a socket twice, foreman → worker and back.
//!
//! Like every orchestration entrypoint in this crate, the coordinators are
//! constructed from a [`ResolvedJob`] (what to run) plus a [`NetOptions`]
//! bundle (where and how to run it) — the same two-part surface the
//! threaded [`crate::runner`] and the `fdml-serve` daemon use.
//!
//! [`net_coordinator_search`] can also fork the peers itself (`spawn`
//! mode), reproducing the single-command cluster launch of `mpirun -np N`
//! on one machine: children are re-invocations of the current executable in
//! peer mode, connected over loopback.

use crate::config::SearchConfig;
use crate::farm::{run_farm_master, FarmOptions, JumbleRun};
use crate::job::ResolvedJob;
use crate::runner::{search_on, RunObserver, SearchSession, ServiceRanks, ServiceStats};
use crate::search::SearchResult;
use crate::worker::{ranks, run_worker, WorkerStats};
use fdml_comm::message::Message;
use fdml_comm::recording::Recording;
use fdml_comm::transport::{CommError, Rank, Transport};
use fdml_net::{ClientConfig, HostedRank, NetConfig, TcpHub, TcpTransport, WireFormat};
use fdml_obs::{Event, Obs, RunReport, Sink};
use fdml_phylo::consensus::Consensus;
use fdml_phylo::error::PhyloError;
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

/// Where and how a coordinator runs: the listen address, universe size,
/// observer sinks, the round log, and optional peer spawning. The job
/// itself (alignment, config, seeds) rides separately as a
/// [`ResolvedJob`]; [`NetOptions::new`] gives the plain unobserved run.
pub struct NetOptions {
    /// Address to bind the hub on (`host:0` picks an ephemeral port).
    pub listen: String,
    /// Total universe size including the coordinator (minimum 4).
    pub num_ranks: usize,
    /// Observer sinks. Empty (or all-null) disables observation and the
    /// outcome's `report` is `None`.
    pub sinks: Vec<Box<dyn Sink>>,
    /// What the coordinator's search persists and resumes from: the
    /// write-ahead round log. One-shot searches only; a farm keeps its
    /// manifest and per-jumble logs in [`FarmOptions::wal_dir`].
    pub session: SearchSession,
    /// Fork the peers ourselves — the single-command cluster launch.
    pub spawn: Option<NetSpawn>,
    /// Wire format the hub writes to codec-sniffing peers (JSON peers
    /// still interoperate frame by frame).
    pub wire: WireFormat,
}

impl NetOptions {
    /// Plain settings: listen on `listen`, expect `num_ranks` ranks, no
    /// observation, no round log, peers dial in on their own.
    pub fn new(listen: impl Into<String>, num_ranks: usize) -> NetOptions {
        NetOptions {
            listen: listen.into(),
            num_ranks,
            sinks: Vec::new(),
            session: SearchSession::default(),
            spawn: None,
            wire: WireFormat::default(),
        }
    }

    /// Attach observer sinks.
    pub fn observed(mut self, sinks: Vec<Box<dyn Sink>>) -> NetOptions {
        self.sinks = sinks;
        self
    }

    /// Fork the peers from `spawn` instead of waiting for external dials.
    pub fn spawning(mut self, spawn: NetSpawn) -> NetOptions {
        self.spawn = Some(spawn);
        self
    }

    /// Set the hub's data-plane wire format.
    pub fn with_wire(mut self, wire: WireFormat) -> NetOptions {
        self.wire = wire;
        self
    }
}

/// What a coordinator run returns.
#[derive(Debug)]
pub struct NetOutcome {
    /// The search result (identical to a threads-transport run with the
    /// same configuration).
    pub result: SearchResult,
    /// End-of-run observability report — the coordinator's ranks (master,
    /// foreman, monitor) plus the hub's per-peer connection events. `None`
    /// when unobserved.
    pub report: Option<RunReport>,
    /// What the coordinator's universe left behind.
    pub fleet: NetFleet,
}

/// What a coordinator's universe leaves behind besides its result.
#[derive(Debug)]
pub struct NetFleet {
    /// The foreman's and the monitor's shutdown statistics.
    pub service: ServiceStats,
    /// `Data` frames the hub relayed from one peer's socket to another's
    /// over the whole run: zero in a flat universe, where workers speak
    /// only to the (hosted) foreman.
    pub relayed: u64,
    /// Exit statuses of spawned peers (spawn mode only), by rank.
    pub peer_exits: Vec<(Rank, Option<i32>)>,
}

/// How long the coordinator waits for the universe to assemble.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Build the peer-mode command line for one child.
fn peer_command(spawn: &NetSpawn, addr: &str, rank: Option<Rank>) -> Command {
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
    wire: WireFormat,
    obs: &Obs,
    spawn: &Option<NetSpawn>,
) -> Result<Universe, PhyloError> {
    assert!(
        num_ranks >= 4,
        "the fully instrumented parallel version requires at least four ranks"
    );
    let net_cfg = NetConfig {
        wire,
        ..NetConfig::default()
    };
    let (hub, mut hosted) =
        TcpHub::bind_hosting(listen, num_ranks, ranks::FIRST_WORKER, net_cfg, obs.clone())
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

/// Run `master` as rank 0 of a TCP universe: bind the hub, (optionally)
/// fork and supervise the peers, wait for the universe, start the foreman
/// and the monitor on their hosted endpoints, and afterwards drain and
/// reap it. `master` returns its endpoint, its value and the final
/// log-likelihood, and must leave the universe shut down (`Shutdown` sent
/// to the foreman) whatever its outcome.
fn run_on_net<R>(
    config: &SearchConfig,
    options: NetOptions,
    master: impl FnOnce(Recording<TcpHub>, &Obs) -> (Recording<TcpHub>, Result<(R, f64), PhyloError>),
) -> Result<(R, Option<RunReport>, NetFleet), PhyloError> {
    let NetOptions {
        listen,
        num_ranks,
        sinks,
        spawn,
        wire,
        ..
    } = options;
    let observer = RunObserver::start(sinks, num_ranks, num_ranks - ranks::FIRST_WORKER);
    let obs = &observer.obs;
    let (hub, foreman_end, monitor_end, mut children) =
        assemble_universe(&listen, num_ranks, wire, obs, &spawn)?;
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
    let service = ServiceRanks::start(foreman_end, monitor_end, config.worker_timeout, obs);
    let (master_end, outcome) = master(Recording::new(hub, obs.clone()), obs);
    let service = service.join();
    let relayed = master_end.inner().relayed();
    // The teardown helper keeps the hub alive until the peers acknowledge
    // the shutdown by disconnecting.
    let peer_exits = drain_and_reap(master_end, supervisor, children);
    let (value, ln_likelihood) = outcome?;
    let fleet = NetFleet {
        service,
        relayed,
        peer_exits,
    };
    Ok((value, observer.finish(ln_likelihood), fleet))
}

/// Run the coordinator: bind the hub, (optionally) fork peers, wait for
/// the universe, then drive the stepwise search as rank 0.
///
/// `options.session` makes a coordinator killed mid-search restartable —
/// from its round log (the peers are stateless
/// between tasks, so only rank 0 carries state worth saving).
pub fn net_coordinator_search(
    job: &ResolvedJob,
    mut options: NetOptions,
) -> Result<NetOutcome, PhyloError> {
    let session = std::mem::take(&mut options.session);
    let (result, report, fleet) = run_on_net(&job.config, options, |master_end, obs| {
        let (master_end, result) = search_on(master_end, job, session, obs);
        let outcome = result.map(|found| {
            let ln_likelihood = found.ln_likelihood;
            (found, ln_likelihood)
        });
        (master_end, outcome)
    })?;
    Ok(NetOutcome {
        result,
        report,
        fleet,
    })
}

/// What a farm coordinator run returns.
#[derive(Debug)]
pub struct NetFarmOutcome {
    /// Per-jumble results in seed order — byte-identical to a serial or
    /// threads-transport farm with the same configuration.
    pub runs: Vec<JumbleRun>,
    /// The majority-rule consensus over all jumbles.
    pub consensus: Consensus,
    /// End-of-run observability report. `None` when unobserved.
    pub report: Option<RunReport>,
    /// What the coordinator's universe left behind.
    pub fleet: NetFleet,
}

/// Run the coordinator as a jumble-farm master: bind the hub, (optionally)
/// fork peers, then shard the job's planned seeds across the worker
/// processes via [`run_farm_master`]. The manifest and the round logs come
/// from `farm`; the peers run the same worker loop as a tree-task
/// search, so no peer-side flags change.
pub fn net_farm_search(
    job: &ResolvedJob,
    farm: &FarmOptions,
    options: NetOptions,
) -> Result<NetFarmOutcome, PhyloError> {
    let (parts, report, fleet) = run_on_net(&job.config, options, |master_end, obs| {
        let parts = run_farm_master(
            &master_end,
            &job.alignment,
            &job.config,
            &job.seeds,
            farm,
            obs,
        );
        // Shut the universe down regardless of the farm outcome.
        let _ = master_end.send(ranks::FOREMAN, &Message::Shutdown);
        (
            master_end,
            parts.map(|p| {
                let best = p.best_ln_likelihood();
                (p, best)
            }),
        )
    })?;
    Ok(NetFarmOutcome {
        runs: parts.runs,
        consensus: parts.consensus,
        report,
        fleet,
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
    let recorded = Recording::new(transport, obs.clone());
    let stats = match die_after_tasks {
        Some(n) => run_worker(DieAfter::new(recorded, n), obs.clone()),
        None => run_worker(recorded, obs.clone()),
    }
    .map_err(|e| format!("worker: {e:?}"))?;
    obs.flush();
    Ok((rank, stats))
}

/// Chaos wrapper: lets `limit` results (tree, jumble or edit chunk)
/// through, then terminates the whole process before the next one — a
/// genuine worker death, distinct from
/// [`fdml_comm::fault::FaultyTransport`]'s in-process severance.
struct DieAfter<T: Transport> {
    inner: T,
    limit: u64,
    sent: std::cell::Cell<u64>,
}

impl<T: Transport> DieAfter<T> {
    fn new(inner: T, limit: u64) -> DieAfter<T> {
        DieAfter {
            inner,
            limit,
            sent: std::cell::Cell::new(0),
        }
    }
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
