//! The daemon's master: one loop owning the hub's rank 0, the job
//! registry, the fair-share ring and the service plane.
//!
//! Topology: the daemon process hosts the [`TcpHub`] (rank 0, this master)
//! and dials its own loopback twice: rank 1 runs the universe's foreman and
//! rank 2 its monitor — the [`ServiceRanks`] every CLI deployment runs — so
//! workers start at rank 3. Worker processes are either forked by the
//! daemon or join externally with `fastdnaml --net worker --connect ADDR`;
//! either way they are one *shared* fleet, multiplexed across every
//! admitted job.
//!
//! Like the farm master (`farm::run_job`), this master sends each job's
//! next task to the foreman and folds what comes back — `JumbleResult`,
//! `WalRound`, `Quarantined` — into that job's [`Ledger`]. The foreman owns
//! the ready queue and the requeue of a lost worker's jumble; its timeout
//! never fires, so only a dropped connection takes a jumble back. The
//! master greets each worker it sees join or rejoin with every active
//! job's `JobData`, then a `Ping`: the worker's `WorkerReady` answer puts
//! it in the foreman's ready queue, so no jumble reaches a worker before
//! its job's data does. A job's `JobRetire` goes out once the job is closed
//! and none of its tasks is still out, so no worker is handed a jumble of
//! a job whose engine it has dropped.
//!
//! Fair share: active jobs sit in a round-robin ring, refilled one jumble
//! per free worker — the tasks out never outnumber the greeted workers, so
//! each job's next jumble leaves the moment a worker frees up. A job's
//! `max_ranks` quota caps how many of its jumbles are out at once, so a
//! wide job cannot starve a narrow one.
//!
//! Durability: every admission and state transition is written through
//! [`Registry`] before it is acknowledged. A job's jumbles — manifest,
//! pending seeds, dispatches in flight, round logs, consensus — are one
//! [`Ledger`], the value the farm master drives too, so a completed jumble
//! is in the job's manifest before anything else hears of it. A daemon
//! killed at any point restarts by reopening each unfinished job's ledger
//! from its manifest: exactly the `Pending` seeds are requeued — nothing
//! lost, nothing run twice — and no round log outlives its jumble.

use crate::registry::Registry;
use fdml_comm::job::{JobId, JobResult, JobSpec, JobState, JobStatus, JobTree, RejectReason};
use fdml_comm::message::Message;
use fdml_comm::transport::{ranks, Rank, Transport};
use fdml_core::farm::{FarmManifest, FarmParts, JumbleRun, Ledger};
use fdml_core::job::ResolvedJob;
use fdml_core::runner::ServiceRanks;
use fdml_core::wal;
use fdml_net::wire::{write_frame, Frame};
use fdml_net::{ServiceRequest, TcpHub};
use fdml_obs::{Event, MemorySink, Obs, Record, RunReport, Sink};
use fdml_phylo::error::PhyloError;
use fdml_phylo::{newick, phylip};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master run mode, shared with the [`crate::Daemon`] handle.
pub(crate) const MODE_RUN: u8 = 0;
/// Graceful stop: the universe is shut down and drained.
pub(crate) const MODE_STOP: u8 = 1;
/// Hard stop: drop everything mid-flight, as a crash would.
pub(crate) const MODE_KILL: u8 = 2;

/// Most finished-job results kept in memory for fast `Attach` answers.
/// Older results are evicted; attaching to an evicted job rebuilds its
/// result from the durable manifest (as a post-restart attach does).
const RESULT_CACHE: usize = 64;

/// Admission ceilings, from [`crate::ServeOptions`].
pub(crate) struct Limits {
    /// Most jobs admitted-but-unfinished at once.
    pub max_jobs: usize,
    /// Ceiling on a spec's `max_ranks` request (0 = none).
    pub max_job_ranks: usize,
    /// Ceiling on a spec's `max_wall_ms` request, and the default budget
    /// for specs that ask for none (0 = none).
    pub max_wall_ms: u64,
}

/// One admitted, unfinished job's live state.
struct Active {
    /// The job's `JobData`, as every worker receives it.
    data: Message,
    /// The job's jumbles; its round logs are namespaced by the job id.
    ledger: Ledger,
    /// Effective worker cap (0 = share the whole fleet).
    width: usize,
    /// Effective wall budget (0 = unlimited), armed at first dispatch.
    wall_ms: u64,
    deadline: Option<Instant>,
    started: bool,
    /// Per-job event buffer behind the per-job run report.
    sink: MemorySink,
    /// Records into `sink` and, through [`Also`], the daemon's own log.
    obs: Obs,
    /// Streams attached with `Attach`, fed progress and the final result.
    attached: Vec<TcpStream>,
}

/// The sink that copies a job's events into the daemon's log.
struct Also(Obs);

impl Sink for Also {
    fn record(&self, record: &Record) {
        self.0.emit(|| record.event.clone());
    }
}

pub(crate) struct Scheduler {
    hub: TcpHub,
    /// The foreman and the monitor.
    service: ServiceRanks,
    registry: Registry,
    obs: Obs,
    limits: Limits,
    active: HashMap<JobId, Active>,
    ring: VecDeque<JobId>,
    results: HashMap<JobId, JobResult>,
    /// Insertion order of `results`, for bounded eviction.
    results_order: VecDeque<JobId>,
    /// Workers greeted since they last joined.
    greeted: BTreeSet<Rank>,
    /// The job of every task sent to the foreman and neither answered nor
    /// quarantined yet.
    tasks: HashMap<u64, JobId>,
    next_task: u64,
    mode: Arc<AtomicU8>,
}

impl Scheduler {
    pub(crate) fn new(
        hub: TcpHub,
        service: ServiceRanks,
        registry: Registry,
        obs: Obs,
        limits: Limits,
        mode: Arc<AtomicU8>,
    ) -> Scheduler {
        let mut s = Scheduler {
            hub,
            service,
            registry,
            obs,
            limits,
            active: HashMap::new(),
            ring: VecDeque::new(),
            results: HashMap::new(),
            results_order: VecDeque::new(),
            greeted: BTreeSet::new(),
            tasks: HashMap::new(),
            next_task: 1,
            mode,
        };
        s.revive();
        s
    }

    /// Re-admit every unfinished job a previous daemon left in the state
    /// directory: reopen its ledger from its manifest, which requeues
    /// exactly the `Pending` seeds.
    fn revive(&mut self) {
        let unfinished: Vec<(JobId, JobSpec)> = self
            .registry
            .jobs()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
            .map(|j| (j.id, j.spec.clone()))
            .collect();
        for (id, spec) in unfinished {
            match ResolvedJob::from_spec(&spec) {
                Ok(resolved) => {
                    self.activate(id, &spec, resolved);
                    // It may have finished just before the old daemon
                    // died, with only the registry transition lost.
                    if self.active.get(&id).is_some_and(|j| j.ledger.is_complete()) {
                        self.finish(id);
                    }
                }
                Err(e) => {
                    let _ = self
                        .registry
                        .set_failed(id, format!("unresolvable after restart: {e}"));
                }
            }
        }
    }

    /// Open the job's ledger, hand its data to every greeted worker and
    /// put it on the ring; a manifest the ledger refuses (one that does not
    /// parse, a `Done` entry without its tree, foreign seeds) fails the job
    /// with that reason.
    fn activate(&mut self, id: JobId, spec: &JobSpec, resolved: ResolvedJob) {
        let width = effective(spec.max_ranks as u64, self.limits.max_job_ranks as u64) as usize;
        let wall_ms = effective(spec.max_wall_ms, self.limits.max_wall_ms);
        let sink = MemorySink::new();
        let obs = Obs::multi(vec![
            Box::new(sink.clone()),
            Box::new(Also(self.obs.clone())),
        ]);
        let dir = Some(self.registry.wal_dir());
        let (alignment, config) = (&resolved.alignment, &resolved.config);
        let ledger = match Ledger::open(alignment, config, &resolved.seeds, id, dir, &obs) {
            // A stale log that will not go is clutter, not the job's problem.
            Ok((ledger, _stale)) => ledger,
            Err(e) => {
                let _ = self.registry.set_failed(id, e.to_string());
                return;
            }
        };
        let data = Message::JobData {
            job: id,
            phylip: phylip::write(alignment),
            config_json: config.engine_config_json(),
        };
        for &rank in &self.greeted {
            let _ = self.hub.send(rank, &data);
        }
        self.active.insert(
            id,
            Active {
                data,
                ledger,
                width,
                wall_ms,
                deadline: None,
                started: false,
                sink,
                obs,
                attached: Vec::new(),
            },
        );
        self.ring.push_back(id);
    }

    /// The master loop, until the daemon handle changes the mode.
    pub(crate) fn run(mut self) {
        while self.mode.load(Ordering::SeqCst) == MODE_RUN {
            self.poll();
        }
        if self.mode.load(Ordering::SeqCst) == MODE_STOP {
            self.drain();
        }
        // A hard stop joins nothing: the hub drops with `self`, and the
        // service ranks end when their links give up.
    }

    /// One turn of the loop: serve the service connections, fold in what
    /// the foreman and the hub sent, greet newcomers, enforce wall quotas,
    /// dispatch.
    fn poll(&mut self) {
        let mut wait = Duration::from_millis(10);
        while let Some(req) = self.hub.accept_service(wait) {
            wait = Duration::ZERO;
            self.handle_service(req);
        }
        let mut wait = Duration::from_millis(10);
        while let Ok(Some((_, msg))) = self.hub.recv_timeout(wait) {
            wait = Duration::ZERO;
            self.handle_message(msg);
        }
        self.greet_newcomers();
        self.enforce_wall_quotas();
        self.dispatch();
    }

    /// Graceful stop: the foreman passes `Shutdown` on to the workers and
    /// the monitor; wait for both service ranks to end and for every peer
    /// to hang up.
    fn drain(self) {
        let Scheduler { hub, service, .. } = self;
        if hub.send(ranks::FOREMAN, &Message::Shutdown).is_ok() {
            service.join();
        }
        hub.wait_for_peers(Duration::from_secs(10), |connected| connected == 0);
    }

    /// Greet every worker that joined since the last look, and forget the
    /// ones that left.
    fn greet_newcomers(&mut self) {
        let connected: BTreeSet<Rank> = self
            .hub
            .peer_ranks()
            .into_iter()
            .filter(|&rank| rank >= ranks::FIRST_WORKER)
            .collect();
        self.greeted.retain(|rank| connected.contains(rank));
        for rank in connected {
            if !self.greeted.contains(&rank) {
                self.greet(rank);
            }
        }
    }

    /// Send `rank` every active job's data, then a `Ping`: the worker's
    /// `WorkerReady` answer, which comes after the data is installed, makes
    /// it ready at the foreman.
    fn greet(&mut self, rank: Rank) {
        for job in self.active.values() {
            let _ = self.hub.send(rank, &job.data);
        }
        let _ = self.hub.send(rank, &Message::Ping);
        self.greeted.insert(rank);
    }

    fn handle_message(&mut self, msg: Message) {
        match msg {
            Message::JumbleResult {
                job,
                task,
                seed,
                newick,
                ln_likelihood,
                ..
            } => {
                self.tasks.remove(&task);
                self.absorb_result(job, task, seed, newick, ln_likelihood);
            }
            // A worker committed one search round. Whatever the ledger
            // makes of it — a finished jumble's late stream, a bad payload,
            // a gap, a failed append — costs crash-tolerance granularity,
            // never correctness, so it is not allowed to disturb the job.
            Message::WalRound {
                job, seed, entry, ..
            } => {
                if let Some(job) = self.active.get_mut(&job) {
                    let _ = job.ledger.wal_round(seed, &entry);
                }
            }
            // The foreman gave up on a jumble that several workers died
            // holding: a live job queues its seed again, to go out anew.
            Message::Quarantined { task, .. } => {
                if let Some(job) = self.tasks.remove(&task) {
                    match self.active.get_mut(&job) {
                        Some(active) => {
                            active.ledger.requeue(task);
                        }
                        None => self.retire_if_idle(job),
                    }
                }
            }
            // A rank rebound after its link died — a reconnect or a fresh
            // process in a dead slot — may hold no engines.
            Message::PeerUp { rank } => self.greet(rank),
            // An `Abort` (every worker gone) is not the end of a daemon:
            // workers may come back. The rest is the foreman's business.
            _ => {}
        }
    }

    fn absorb_result(&mut self, job_id: JobId, task: u64, seed: u64, newick: String, lnl: f64) {
        let Some(job) = self.active.get_mut(&job_id) else {
            // A closed job's task: the last of them retires the job.
            return self.retire_if_idle(job_id);
        };
        let run = JumbleRun {
            seed,
            newick,
            ln_likelihood: lnl,
            ..JumbleRun::default()
        };
        match job.ledger.done(task, run) {
            // It is in the manifest; whether its log went too is not the job's concern.
            Ok((true, _retired)) => {
                let (done, total) = job.ledger.completed();
                let line = format!("jumble seed={seed} lnL={lnl:.4} ({done}/{total})");
                notify_attached(&mut job.attached, job_id, &line);
            }
            Ok((false, _)) => {}
            // A result that is no tree of this alignment, or a manifest
            // that cannot be written: the job cannot keep its promise.
            Err(e) => return self.fail(job_id, e.to_string()),
        }
        if job.ledger.is_complete() {
            self.finish(job_id);
        }
    }

    /// Take a job off the active table and the ring, and retire it from
    /// the fleet unless some of its tasks are still out.
    fn close(&mut self, id: JobId) -> Option<Active> {
        let job = self.active.remove(&id)?;
        self.ring.retain(|&j| j != id);
        self.retire_if_idle(id);
        Some(job)
    }

    /// Tell every connected worker to evict the engine of closed job `id`,
    /// once none of its tasks is out: the foreman sends none of them again
    /// after its first answer or its quarantine, so no worker is handed a
    /// jumble of `id` after this. Without retirement a long-lived fleet
    /// leaks one engine per job served.
    fn retire_if_idle(&self, id: JobId) {
        if self.tasks.values().any(|&job| job == id) {
            return;
        }
        for rank in self.hub.peer_ranks() {
            if rank >= ranks::FIRST_WORKER {
                let _ = self.hub.send(rank, &Message::JobRetire { job: id });
            }
        }
    }

    /// Every jumble landed: assemble the result, persist `Done`, answer
    /// the attached clients.
    fn finish(&mut self, id: JobId) {
        let Some(mut job) = self.close(id) else {
            return;
        };
        let report = RunReport::from_events(&job.sink.snapshot());
        let report_json = serde_json::to_string(&report).ok();
        let result = match job.ledger.finish() {
            Ok(parts) => job_result(id, &parts, report_json),
            Err(e) => return self.failed(id, &job.obs, job.attached, e.to_string()),
        };
        let _ = self.registry.set_state(id, JobState::Done);
        job.obs.emit(|| Event::JobCompleted {
            job: id,
            best_ln_likelihood: result.best_ln_likelihood,
        });
        for mut stream in job.attached.drain(..) {
            let _ = write_frame(
                &mut stream,
                &Frame::Done {
                    job: id,
                    result: result.clone(),
                },
            );
        }
        self.cache_result(id, result);
    }

    /// Remember a finished job's result, evicting the oldest entries past
    /// [`RESULT_CACHE`].
    fn cache_result(&mut self, id: JobId, result: JobResult) {
        if self.results.insert(id, result).is_none() {
            self.results_order.push_back(id);
            while self.results_order.len() > RESULT_CACHE {
                if let Some(old) = self.results_order.pop_front() {
                    self.results.remove(&old);
                }
            }
        }
    }

    /// Abandon an active job. Its round logs are dead weight — including
    /// any a previous daemon left for seeds this one never dispatched —
    /// and go, so the wal directory stays bounded by the in-flight jumbles.
    fn fail(&mut self, id: JobId, reason: String) {
        if let Some(mut job) = self.close(id) {
            let _ = job.ledger.retire_logs();
            self.failed(id, &job.obs, job.attached, reason);
        }
        // Its tasks still out are answered to nobody; the last of them
        // retires the job from the fleet.
    }

    /// Persist `Failed` and tell the attached clients why.
    fn failed(&mut self, id: JobId, obs: &Obs, attached: Vec<TcpStream>, reason: String) {
        let _ = self.registry.set_failed(id, reason.clone());
        obs.emit(|| Event::JobFailed {
            job: id,
            reason: reason.clone(),
        });
        for mut stream in attached {
            let _ = write_frame(
                &mut stream,
                &Frame::Rejected {
                    reason: RejectReason::JobFailed {
                        job: id,
                        reason: reason.clone(),
                    },
                },
            );
        }
    }

    fn enforce_wall_quotas(&mut self) {
        let now = Instant::now();
        let expired: Vec<(JobId, u64)> = self
            .active
            .iter()
            .filter_map(|(&id, job)| match job.deadline {
                Some(d) if now >= d => Some((id, job.wall_ms)),
                _ => None,
            })
            .collect();
        for (id, wall_ms) in expired {
            self.fail(id, format!("wall-time quota exhausted ({wall_ms} ms)"));
        }
    }

    /// Fair share: while a greeted worker is free, send the next eligible
    /// job's next jumble to the foreman, taking the jobs in ring order.
    fn dispatch(&mut self) {
        while self.tasks.len() < self.greeted.len() {
            let Some(id) = self.next_eligible() else {
                return;
            };
            if !self.assign(id) {
                return;
            }
        }
    }

    /// The next job on the ring with a seed pending and room under its
    /// quota; it goes to the back of the ring.
    fn next_eligible(&mut self) -> Option<JobId> {
        for _ in 0..self.ring.len() {
            let id = self.ring.pop_front()?;
            self.ring.push_back(id);
            let eligible = self.active.get(&id).is_some_and(|j| {
                !j.ledger.pending().is_empty() && (j.width == 0 || j.ledger.in_flight() < j.width)
            });
            if eligible {
                return Some(id);
            }
        }
        None
    }

    /// Send `id`'s next jumble to the foreman; `false` when nothing was sent.
    fn assign(&mut self, id: JobId) -> bool {
        let Some(job) = self.active.get_mut(&id) else {
            return false;
        };
        let task = self.next_task;
        // The jumble travels with its committed WAL prefix: the worker
        // replays it (scoring skipped), runs the rest live, and streams
        // each newly committed round back as a `WalRound`. A daemon killed
        // mid-jumble re-dispatches the longer prefix on restart. A sick
        // wal directory must not wedge the job: the ledger then hands out
        // the WAL-less task, widening this jumble's crash window back to
        // manifest granularity, and its error is dropped here.
        let Some((msg, _wal)) = job.ledger.next(task) else {
            return false;
        };
        self.next_task += 1;
        if self.hub.send(ranks::FOREMAN, &msg).is_err() {
            job.ledger.requeue(task);
            return false;
        }
        self.tasks.insert(task, id);
        if !job.started {
            job.started = true;
            if job.wall_ms > 0 {
                job.deadline = Some(Instant::now() + Duration::from_millis(job.wall_ms));
            }
            let _ = self.registry.set_state(id, JobState::Running);
            job.obs.emit(|| Event::JobStarted { job: id });
        }
        job.ledger.started(task);
        true
    }

    // ----- service plane -------------------------------------------------

    fn handle_service(&mut self, req: ServiceRequest) {
        let ServiceRequest { mut stream, first } = req;
        match first {
            Frame::Submit { spec } => {
                let answer = match self.admit(spec) {
                    Ok(job) => Frame::Accepted { job },
                    Err(reason) => Frame::Rejected { reason },
                };
                let _ = write_frame(&mut stream, &answer);
            }
            Frame::Query { job } => {
                let answer = match self.status_of(job) {
                    Some(status) => Frame::Status { status },
                    None => Frame::Rejected {
                        reason: RejectReason::UnknownJob { job },
                    },
                };
                let _ = write_frame(&mut stream, &answer);
            }
            Frame::Attach { job } => self.attach(job, stream),
            _ => {}
        }
    }

    /// Admission control: validate the spec, check it against the
    /// daemon's quotas, and only then assign an id and persist.
    fn admit(&mut self, spec: JobSpec) -> Result<JobId, RejectReason> {
        let resolved = ResolvedJob::from_spec(&spec).map_err(|e| RejectReason::Malformed {
            reason: e.to_string(),
        })?;
        if self.limits.max_job_ranks > 0 && spec.max_ranks > self.limits.max_job_ranks {
            return Err(RejectReason::QuotaExceeded {
                quota: "max_ranks".into(),
                requested: spec.max_ranks as u64,
                limit: self.limits.max_job_ranks as u64,
            });
        }
        if self.limits.max_wall_ms > 0 && spec.max_wall_ms > self.limits.max_wall_ms {
            return Err(RejectReason::QuotaExceeded {
                quota: "max_wall_ms".into(),
                requested: spec.max_wall_ms,
                limit: self.limits.max_wall_ms,
            });
        }
        if self.registry.active_jobs() >= self.limits.max_jobs {
            return Err(RejectReason::QueueFull {
                limit: self.limits.max_jobs,
            });
        }
        let id = self
            .registry
            .admit(spec.clone())
            .map_err(|e| RejectReason::Malformed {
                reason: format!("state dir unwritable: {e}"),
            })?;
        self.activate(id, &spec, resolved);
        if let Some(job) = self.active.get(&id) {
            job.obs.emit(|| Event::JobSubmitted {
                job: id,
                jumbles: spec.jumbles,
                label: spec.label,
            });
        }
        Ok(id)
    }

    fn status_of(&self, id: JobId) -> Option<JobStatus> {
        if let Some(job) = self.active.get(&id) {
            let (done, total) = job.ledger.completed();
            return self.registry.status(id, done, total);
        }
        let entry = self.registry.get(id)?;
        // Done or failed. One that failed before a jumble finished, or on a
        // manifest that does not parse, reports none done.
        let path = wal::manifest_path(&self.registry.wal_dir(), id);
        let (done, total) = match FarmManifest::load(&path) {
            Ok(Some(manifest)) => manifest.completed(),
            _ => (0, entry.spec.jumbles),
        };
        self.registry.status(id, done, total)
    }

    fn attach(&mut self, id: JobId, mut stream: TcpStream) {
        if let Some(job) = self.active.get_mut(&id) {
            let _ = write_frame(
                &mut stream,
                &Frame::JobEvent {
                    job: id,
                    text: "attached".into(),
                },
            );
            job.attached.push(stream);
            return;
        }
        let rejected = |reason| Frame::Rejected {
            reason: RejectReason::JobFailed { job: id, reason },
        };
        let answer = match (self.results.get(&id).cloned(), self.registry.get(id)) {
            (Some(result), _) => Frame::Done { job: id, result },
            // Completed before a restart, or evicted from the cache: rebuild
            // the result from the durable manifest (the in-memory report
            // did not survive).
            (None, Some(entry)) if entry.state == JobState::Done => {
                match self.rebuild(id, &entry.spec) {
                    Ok(parts) => {
                        let result = job_result(id, &parts, None);
                        self.cache_result(id, result.clone());
                        Frame::Done { job: id, result }
                    }
                    Err(e) => rejected(format!("result unrecoverable: {e}")),
                }
            }
            (None, Some(entry)) if entry.state == JobState::Failed => {
                rejected(entry.failure.clone().unwrap_or("unknown failure".into()))
            }
            _ => Frame::Rejected {
                reason: RejectReason::UnknownJob { job: id },
            },
        };
        if matches!(answer, Frame::Done { .. }) {
            // Keep the stream shape uniform whether the client attached
            // before or after completion: at least one event, then Done.
            let _ = write_frame(
                &mut stream,
                &Frame::JobEvent {
                    job: id,
                    text: "attached (already complete)".into(),
                },
            );
        }
        let _ = write_frame(&mut stream, &answer);
    }

    /// A finished job's trees and consensus, from its durable manifest.
    fn rebuild(&self, id: JobId, spec: &JobSpec) -> Result<FarmParts, PhyloError> {
        let job = ResolvedJob::from_spec(spec).map_err(|e| PhyloError::Format(e.to_string()))?;
        let (alignment, quiet) = (&job.alignment, Obs::disabled());
        let dir = Some(self.registry.wal_dir());
        let (ledger, _) = Ledger::open(alignment, &job.config, &job.seeds, id, dir, &quiet)?;
        ledger.finish()
    }
}

/// `requested` capped by `ceiling`, where 0 means "unset" on both sides.
fn effective(requested: u64, ceiling: u64) -> u64 {
    match (requested, ceiling) {
        (0, c) => c,
        (r, 0) => r,
        (r, c) => r.min(c),
    }
}

/// Push one progress line to every attached stream, dropping streams
/// whose client went away.
fn notify_attached(attached: &mut Vec<TcpStream>, job: JobId, text: &str) {
    attached.retain_mut(|stream| {
        write_frame(
            stream,
            &Frame::JobEvent {
                job,
                text: text.into(),
            },
        )
        .is_ok()
    });
}

/// The final [`JobResult`] of a finished farm: trees in plan order, the
/// best tree (first on ties), and the majority-rule consensus for
/// multi-jumble jobs — byte-identical to a serial farm over the same seeds,
/// because it is the same ledger's [`FarmParts`].
fn job_result(id: JobId, parts: &FarmParts, report: Option<String>) -> JobResult {
    let trees: Vec<JobTree> = parts
        .runs
        .iter()
        .map(|r| JobTree {
            seed: r.seed,
            newick: r.newick.clone(),
            ln_likelihood: r.ln_likelihood,
        })
        .collect();
    // Strictly-greater comparison keeps the first tree in plan order on
    // ties, matching the serial farm's tie-break.
    let mut best = &trees[0];
    for t in &trees {
        if t.ln_likelihood > best.ln_likelihood {
            best = t;
        }
    }
    JobResult {
        job: id,
        consensus_newick: (trees.len() > 1).then(|| newick::write(&parts.consensus.tree)),
        best_newick: best.newick.clone(),
        best_ln_likelihood: best.ln_likelihood,
        trees,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_core::config::SearchConfig;
    use fdml_core::wal::{wal_path, WalWriter};
    use fdml_net::TcpTransport;
    use std::path::{Path, PathBuf};

    #[test]
    fn effective_caps_compose() {
        assert_eq!(effective(0, 0), 0);
        assert_eq!(effective(0, 8), 8);
        assert_eq!(effective(4, 0), 4);
        assert_eq!(effective(16, 8), 8);
        assert_eq!(effective(4, 8), 4);
    }

    // ----- the master over its foreman ------------------------------------
    //
    // These drive the master's internals directly over a real universe (the
    // foreman and the monitor run): a "worker" is a greeted rank, and the
    // foreman's forward of its answer is injected with `answer`, so the
    // ledger's side of each interleaving can be replayed. What the foreman
    // does with a lost worker's task is `Sched`'s, tested there.

    fn test_scheduler(tag: &str) -> (Scheduler, PathBuf) {
        let dir = std::env::temp_dir().join(format!("fdml-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (scheduler_at(&dir), dir)
    }

    /// A master over whatever state `dir` holds — a restarted daemon.
    fn scheduler_at(dir: &Path) -> Scheduler {
        let quiet = Obs::disabled();
        let (hub, service) = crate::universe("127.0.0.1:0", 4, &quiet).unwrap();
        let registry = Registry::open(dir).unwrap();
        Scheduler::new(
            hub,
            service,
            registry,
            quiet,
            Limits {
                max_jobs: 8,
                max_job_ranks: 0,
                max_wall_ms: 0,
            },
            Arc::new(AtomicU8::new(MODE_RUN)),
        )
    }

    /// The foreman's forward of a worker's answer to `task`.
    fn answer(s: &mut Scheduler, job: JobId, task: u64, seed: u64, ln_likelihood: f64) {
        s.handle_message(Message::JumbleResult {
            job,
            task,
            seed,
            newick: TREE.into(),
            ln_likelihood,
            rounds: 1,
            candidates: 1,
            work_units: 1,
        });
    }

    fn one_jumble_spec() -> JobSpec {
        JobSpec::builder()
            .phylip(" 3 12\nt0 ACGTACGTACGT\nt1 ACGTACGAACGT\nt2 ACTTACGAACGA\n")
            .config_json(SearchConfig::default().engine_config_json())
            .jumbles(1)
            .base_seed(7)
            .label("late-result")
            .build()
            .unwrap()
    }

    #[test]
    fn a_failed_jobs_engine_is_retired_once_its_last_task_is_answered() {
        let (mut s, dir) = test_scheduler("retire");
        let id = s.admit(two_jumble_spec()).unwrap();
        let worker = TcpTransport::connect(s.hub.local_addr()).unwrap();
        assert_eq!(worker.rank(), 3);
        // What reaches the worker next, the master running meanwhile.
        let next = |s: &mut Scheduler, patience: Duration| -> Option<Message> {
            let deadline = Instant::now() + patience;
            while Instant::now() < deadline {
                s.poll();
                if let Some((_, msg)) = worker.recv_timeout(Duration::from_millis(5)).unwrap() {
                    return Some(msg);
                }
            }
            None
        };
        let patience = Duration::from_secs(20);
        // Greeted: the job's data, then a probe whose answer makes it ready.
        assert!(matches!(next(&mut s, patience), Some(Message::JobData { job, .. }) if job == id));
        assert_eq!(next(&mut s, patience), Some(Message::Ping));
        worker.send(ranks::FOREMAN, &Message::WorkerReady).unwrap();
        let Some(Message::JumbleResume {
            job, task, seed, ..
        }) = next(&mut s, patience)
        else {
            panic!("the worker was sent no jumble");
        };
        assert_eq!(job, id);

        // The job fails on its wall quota while the worker runs its task.
        let active = s.active.get_mut(&id).unwrap();
        (active.deadline, active.wall_ms) = (Some(Instant::now()), 5);
        s.enforce_wall_quotas();
        assert_eq!(s.registry.get(id).unwrap().state, JobState::Failed);
        assert_eq!(next(&mut s, Duration::from_millis(300)), None);

        // Its answer is the job's last task out: the retirement follows.
        let late = Message::JumbleResult {
            job: id,
            task,
            seed,
            newick: TREE.into(),
            ln_likelihood: -42.0,
            rounds: 1,
            candidates: 1,
            work_units: 1,
        };
        worker.send(ranks::FOREMAN, &late).unwrap();
        assert_eq!(next(&mut s, patience), Some(Message::JobRetire { job: id }));
        assert!(s.tasks.is_empty());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ----- restarts: no round log outlives its jumble --------------------

    const TREE: &str = "(t0:0.1,t1:0.1,t2:0.1);";

    fn two_jumble_spec() -> JobSpec {
        JobSpec {
            jumbles: 2,
            ..one_jumble_spec()
        }
    }

    /// Round logs left in the state directory (the manifests stay).
    fn wal_files(dir: &Path) -> usize {
        let entries = std::fs::read_dir(dir.join("wal"))
            .into_iter()
            .flatten()
            .flatten();
        let is_log = |e: &std::fs::DirEntry| e.path().extension().is_some_and(|x| x == "wal");
        entries.filter(is_log).count()
    }

    /// A daemon that admitted a two-jumble job, landed its first seed and
    /// was killed with the second on a worker; returns the job, its seeds
    /// and the state directory.
    fn killed_after_one_jumble(tag: &str) -> (JobId, Vec<u64>, PathBuf) {
        let (mut s, dir) = test_scheduler(tag);
        let id = s.admit(two_jumble_spec()).unwrap();
        let seeds: Vec<u64> = s.active[&id].ledger.pending().iter().copied().collect();
        s.greeted.insert(3);
        s.dispatch();
        answer(&mut s, id, 1, seeds[0], -42.0);
        s.dispatch();
        assert_eq!(s.active[&id].ledger.completed(), (1, 2));
        assert_eq!(s.active[&id].ledger.in_flight(), 1);
        (id, seeds, dir)
    }

    #[test]
    fn revive_retires_the_stale_log_of_a_done_seed() {
        // Killed between the manifest save and the log retire: the entry is
        // Done, its complete log is still there.
        let (id, seeds, dir) = killed_after_one_jumble("stale");
        drop(WalWriter::create(&dir.join("wal"), id, seeds[0], 3, "stale").unwrap());
        assert_eq!(wal_files(&dir), 2, "the stale log and the in-flight one");

        let mut s = scheduler_at(&dir);
        assert!(!wal_path(&dir.join("wal"), id, seeds[0]).exists());
        assert_eq!(s.active[&id].ledger.pending().len(), 1);
        s.greeted.insert(3);
        s.dispatch();
        let task = *s.tasks.keys().next().unwrap();
        answer(&mut s, id, task, seeds[1], -41.0);
        assert_eq!(s.registry.get(id).unwrap().state, JobState::Done);
        let result = &s.results[&id];
        assert_eq!(result.trees.len(), 2);
        assert_eq!(
            (result.best_ln_likelihood, result.trees[1].seed),
            (-41.0, seeds[1])
        );
        assert!(result.consensus_newick.is_some());
        assert_eq!(wal_files(&dir), 0, "no round log is left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_that_will_not_go_never_fails_a_job() {
        // `remove_file` removes no directory, whoever asks: one stands in
        // for the Done seed's stale log at revive, another for the last
        // seed's log when its result lands.
        let (id, seeds, dir) = killed_after_one_jumble("stuck");
        let stuck = |seed| wal_path(&dir.join("wal"), id, seed);
        std::fs::create_dir(stuck(seeds[0])).unwrap();
        let mut s = scheduler_at(&dir);
        assert_eq!(s.active[&id].ledger.completed(), (1, 2));
        s.greeted.insert(3);
        s.dispatch();
        std::fs::remove_file(stuck(seeds[1])).unwrap();
        std::fs::create_dir(stuck(seeds[1])).unwrap();
        let task = *s.tasks.keys().next().unwrap();
        answer(&mut s, id, task, seeds[1], -41.0);
        assert_eq!(s.registry.get(id).unwrap().state, JobState::Done);
        assert_eq!(s.results[&id].trees.len(), 2);
        assert_eq!(wal_files(&dir), 2, "both are still in the way");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_failed_after_a_restart_takes_its_old_logs_with_it() {
        // The second seed's log is from the previous incarnation; this one
        // fails the job on its wall quota before ever dispatching that seed.
        let (id, _, dir) = killed_after_one_jumble("quota");
        assert_eq!(wal_files(&dir), 1);
        let mut s = scheduler_at(&dir);
        assert_eq!(s.active[&id].ledger.in_flight(), 0);
        s.active.get_mut(&id).unwrap().deadline = Some(Instant::now());
        s.active.get_mut(&id).unwrap().wall_ms = 5;
        s.enforce_wall_quotas();
        let entry = s.registry.get(id).unwrap();
        assert_eq!(entry.state, JobState::Failed);
        assert!(entry.failure.as_ref().unwrap().contains("wall-time"));
        assert_eq!(wal_files(&dir), 0, "no round log is left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_done_entry_fails_the_job_with_the_farms_error() {
        for (tag, newick, reason) in [
            ("no-tree", None, "Done entry without a tree"),
            ("bad-tree", Some("((t0,".to_string()), "leaf without a name"),
        ] {
            let (id, seeds, dir) = killed_after_one_jumble(tag);
            let path = wal::manifest_path(&dir.join("wal"), id);
            let mut manifest = FarmManifest::load(&path).unwrap().unwrap();
            assert_eq!(manifest.unfinished(), [seeds[1]]);
            manifest.entries[0].newick = newick;
            manifest.save(&path).unwrap();

            let s = scheduler_at(&dir);
            assert!(!s.active.contains_key(&id) && !s.results.contains_key(&id));
            let entry = s.registry.get(id).unwrap();
            assert_eq!(entry.state, JobState::Failed);
            let failure = entry.failure.clone().unwrap();
            assert!(failure.contains(reason), "{tag}: {failure}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn manifests_in_the_old_layout_revive_and_rebuild_their_jobs() {
        // One job finished and one killed mid-way, under a daemon that kept
        // each manifest as `job-N.manifest.json` beside `jobs.json`, with
        // no problem key.
        let (mut s, dir) = test_scheduler("legacy");
        let done = s.admit(one_jumble_spec()).unwrap();
        s.greeted.insert(3);
        s.dispatch();
        let task = *s.tasks.keys().next().unwrap();
        answer(&mut s, done, task, 7, -40.0);
        assert_eq!(s.registry.get(done).unwrap().state, JobState::Done);
        let running = s.admit(two_jumble_spec()).unwrap();
        let seeds: Vec<u64> = s.active[&running]
            .ledger
            .pending()
            .iter()
            .copied()
            .collect();
        s.dispatch();
        let task = *s.tasks.keys().next().unwrap();
        answer(&mut s, running, task, seeds[0], -42.0);
        drop(s);
        for id in [done, running] {
            let path = wal::manifest_path(&dir.join("wal"), id);
            let mut manifest = FarmManifest::load(&path).unwrap().unwrap();
            manifest.problem = None;
            manifest
                .save(&dir.join(format!("job-{id}.manifest.json")))
                .unwrap();
            std::fs::remove_file(&path).unwrap();
        }

        let s = scheduler_at(&dir);
        assert_eq!(s.registry.get(running).unwrap().state, JobState::Running);
        assert_eq!(s.active[&running].ledger.completed(), (1, 2));
        assert_eq!(s.status_of(done).unwrap().done, 1);
        let spec = s.registry.get(done).unwrap().spec.clone();
        let parts = s.rebuild(done, &spec).expect("the finished job's result");
        assert_eq!((parts.runs.len(), parts.best_ln_likelihood()), (1, -40.0));
        assert!(!dir.join(format!("job-{done}.manifest.json")).exists());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_that_does_not_parse_fails_only_its_job() {
        let (id, _, dir) = killed_after_one_jumble("garbled");
        let mut s = scheduler_at(&dir);
        let other = s.admit(two_jumble_spec()).unwrap();
        drop(s);
        let path = wal::manifest_path(&dir.join("wal"), id);
        std::fs::write(&path, "{ \"entries\": [").unwrap();

        let s = scheduler_at(&dir);
        let entry = s.registry.get(id).unwrap();
        assert_eq!(entry.state, JobState::Failed);
        let failure = entry.failure.clone().unwrap();
        assert!(
            failure.contains(&path.display().to_string())
                && failure.contains("not a valid farm manifest"),
            "{failure}"
        );
        assert_eq!(s.status_of(id).unwrap().done, 0);
        assert_eq!(s.active[&other].ledger.completed(), (0, 2));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);

        // No manifest at all is a job that has finished nothing yet.
        let (id, _, dir) = killed_after_one_jumble("missing");
        std::fs::remove_file(wal::manifest_path(&dir.join("wal"), id)).unwrap();
        let s = scheduler_at(&dir);
        assert_eq!(s.registry.get(id).unwrap().state, JobState::Running);
        assert_eq!(s.active[&id].ledger.completed(), (0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
