//! The daemon's fair-share scheduler: one loop owning the hub, the job
//! registry, and the shared worker fleet.
//!
//! Topology: the daemon process hosts the [`TcpHub`] (rank 0) and dials
//! its own loopback twice — rank 1 is the scheduler's transport (the
//! foreman slot, so worker [`Message::JobTaskResult`] replies route
//! here), rank 2 a placeholder monitor connection keeping the classic
//! rank convention (workers at 3 and up). Worker processes are either
//! forked by the daemon or join externally with
//! `fastdnaml --net worker --connect ADDR`; either way they are one
//! *shared* fleet, multiplexed across every admitted job.
//!
//! Fair share: active jobs sit in a round-robin ring; each dispatch round
//! hands one jumble to one idle worker per eligible job, cycling until
//! workers or work run out. A job's `max_ranks` quota caps how many
//! workers it occupies at once, so a wide job cannot starve a narrow one.
//!
//! Durability: every admission and state transition is written through
//! [`Registry`] before it is acknowledged, and every completed jumble
//! lands in the job's farm manifest before the in-memory ledger advances.
//! A daemon killed at any point restarts by requeueing exactly the
//! `Pending` seeds — nothing lost, nothing run twice.

use crate::registry::Registry;
use fdml_comm::job::{JobId, JobResult, JobSpec, JobState, JobStatus, JobTree, RejectReason};
use fdml_comm::message::Message;
use fdml_comm::transport::{ranks, Rank, Transport};
use fdml_core::checkpoint::{FarmManifest, JumbleStatus};
use fdml_core::job::ResolvedJob;
use fdml_core::wal::{self, WalRound, WalWriter};
use fdml_net::wire::{write_frame, Frame};
use fdml_net::{ServiceRequest, TcpHub, TcpTransport};
use fdml_obs::{Event, MemorySink, Obs, RunReport};
use fdml_phylo::consensus::consensus;
use fdml_phylo::newick;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduler run mode, shared with the [`crate::Daemon`] handle.
pub(crate) const MODE_RUN: u8 = 0;
/// Graceful stop: workers get `Shutdown`, state is flushed.
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
    resolved: ResolvedJob,
    manifest: FarmManifest,
    /// Seeds not yet dispatched, in plan order (requeues go to the front
    /// so a restart-heavy run still drains oldest-first).
    pending: VecDeque<u64>,
    /// Jumbles currently on a worker.
    in_flight: usize,
    /// Effective worker cap (0 = share the whole fleet).
    width: usize,
    /// Effective wall budget (0 = unlimited), armed at first dispatch.
    wall_ms: u64,
    deadline: Option<Instant>,
    started: bool,
    /// Per-job event buffer behind the per-job run report.
    sink: MemorySink,
    obs: Obs,
    /// Streams attached with `Attach`, fed progress and the final result.
    attached: Vec<TcpStream>,
}

/// One shared-fleet worker's state.
#[derive(Default)]
struct Worker {
    /// The task currently on this worker, if any.
    busy: Option<u64>,
    /// Jobs whose `JobData` this worker process has already received.
    knows: HashSet<JobId>,
}

/// An outstanding dispatch.
struct Flight {
    job: JobId,
    seed: u64,
    rank: Rank,
}

pub(crate) struct Scheduler {
    hub: TcpHub,
    foreman: TcpTransport,
    /// Holds the monitor rank open so workers start at rank 3.
    _monitor: TcpTransport,
    registry: Registry,
    obs: Obs,
    limits: Limits,
    active: HashMap<JobId, Active>,
    ring: VecDeque<JobId>,
    results: HashMap<JobId, JobResult>,
    /// Insertion order of `results`, for bounded eviction.
    results_order: VecDeque<JobId>,
    workers: HashMap<Rank, Worker>,
    in_flight: HashMap<u64, Flight>,
    /// Append handle for each in-flight jumble's write-ahead round log,
    /// keyed by (job, seed); entries leave when the jumble lands in the
    /// manifest (log retired) or its log goes bad (log abandoned).
    wal_writers: HashMap<(JobId, u64), WalWriter>,
    next_task: u64,
    mode: Arc<AtomicU8>,
}

impl Scheduler {
    pub(crate) fn new(
        hub: TcpHub,
        foreman: TcpTransport,
        monitor: TcpTransport,
        registry: Registry,
        obs: Obs,
        limits: Limits,
        mode: Arc<AtomicU8>,
    ) -> Scheduler {
        let mut s = Scheduler {
            hub,
            foreman,
            _monitor: monitor,
            registry,
            obs,
            limits,
            active: HashMap::new(),
            ring: VecDeque::new(),
            results: HashMap::new(),
            results_order: VecDeque::new(),
            workers: HashMap::new(),
            in_flight: HashMap::new(),
            wal_writers: HashMap::new(),
            next_task: 1,
            mode,
        };
        s.revive();
        s
    }

    /// Re-admit every unfinished job a previous daemon left in the state
    /// directory: reload its manifest and requeue exactly the `Pending`
    /// seeds.
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
                    let manifest = self.registry.load_manifest(id, &resolved.seeds);
                    if manifest.is_complete() {
                        // It finished just before the old daemon died;
                        // only the registry transition was lost.
                        let result = assemble_result(id, &resolved, &manifest, None);
                        let _ = self.registry.set_state(id, JobState::Done);
                        self.cache_result(id, result);
                        continue;
                    }
                    self.activate(id, &spec, resolved, manifest);
                }
                Err(e) => {
                    let _ = self
                        .registry
                        .set_failed(id, format!("unresolvable after restart: {e}"));
                }
            }
        }
    }

    fn activate(
        &mut self,
        id: JobId,
        spec: &JobSpec,
        resolved: ResolvedJob,
        manifest: FarmManifest,
    ) {
        let slots = effective(spec.max_ranks as u64, self.limits.max_job_ranks as u64) as usize;
        // A rank running `intra_threads` kernel threads occupies that many
        // hardware slots, so the job's concurrent-rank width is its slot
        // budget divided by its per-rank thread count (min 1 — a budget,
        // once granted, always admits at least one rank).
        let threads = spec.intra_threads.max(1);
        let width = if slots == 0 {
            0
        } else {
            (slots / threads).max(1)
        };
        let wall_ms = effective(spec.max_wall_ms, self.limits.max_wall_ms);
        let pending: VecDeque<u64> = manifest.unfinished().into();
        let sink = MemorySink::new();
        let obs = Obs::new(Box::new(sink.clone()));
        self.active.insert(
            id,
            Active {
                resolved,
                manifest,
                pending,
                in_flight: 0,
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

    /// The scheduler loop: drain service connections, drain worker
    /// results, refresh the fleet, enforce wall quotas, dispatch.
    pub(crate) fn run(mut self) {
        loop {
            match self.mode.load(Ordering::SeqCst) {
                MODE_RUN => {}
                MODE_STOP => {
                    for (&rank, _) in self.workers.iter() {
                        let _ = self.foreman.send(rank, &Message::Shutdown);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    return;
                }
                _ => return,
            }

            // Service plane: Submit / Query / Attach openers.
            let mut service_wait = Duration::from_millis(10);
            while let Some(req) = self.hub.accept_service(service_wait) {
                service_wait = Duration::ZERO;
                self.handle_service(req);
            }

            // Compute plane: results and liveness, via the foreman slot.
            let mut recv_wait = Duration::from_millis(10);
            while let Ok(Some((from, msg))) = self.foreman.recv_timeout(recv_wait) {
                recv_wait = Duration::ZERO;
                self.handle_message(from, msg);
            }

            // The hub's own rank-0 queue gets liveness notifications too;
            // nothing reads it in daemon mode, so drain and discard.
            while let Ok(Some(_)) = self.hub.recv_timeout(Duration::ZERO) {}

            self.refresh_workers();
            self.enforce_wall_quotas();
            self.dispatch();
        }
    }

    /// Reconcile the worker table with the hub's live connections.
    fn refresh_workers(&mut self) {
        let connected: HashSet<Rank> = self
            .hub
            .peer_ranks()
            .into_iter()
            .filter(|&r| r >= ranks::FIRST_WORKER)
            .collect();
        for &rank in &connected {
            self.workers.entry(rank).or_default();
        }
        let gone: Vec<Rank> = self
            .workers
            .keys()
            .filter(|r| !connected.contains(r))
            .copied()
            .collect();
        for rank in gone {
            self.worker_lost(rank);
        }
    }

    /// A worker's connection dropped: requeue whatever it carried. Its
    /// late result, should the process somehow still deliver one through
    /// a rejoin, is deduplicated against the manifest.
    fn worker_lost(&mut self, rank: Rank) {
        let Some(worker) = self.workers.remove(&rank) else {
            return;
        };
        if let Some(task) = worker.busy {
            self.requeue(task);
        }
    }

    /// A worker reconnected under the same rank: it may be a fresh
    /// replacement process with no engines, so its `JobData` cache resets
    /// and anything it carried is requeued.
    fn worker_rejoined(&mut self, rank: Rank) {
        if let Some(worker) = self.workers.get_mut(&rank) {
            let busy = worker.busy.take();
            worker.knows.clear();
            if let Some(task) = busy {
                self.requeue(task);
            }
        }
    }

    fn requeue(&mut self, task: u64) {
        if let Some(flight) = self.in_flight.remove(&task) {
            if let Some(job) = self.active.get_mut(&flight.job) {
                job.in_flight = job.in_flight.saturating_sub(1);
                let still_pending = job
                    .manifest
                    .entries
                    .iter()
                    .any(|e| e.seed == flight.seed && e.status == JumbleStatus::Pending);
                if still_pending {
                    job.pending.push_front(flight.seed);
                }
            }
        }
    }

    fn handle_message(&mut self, _from: Rank, msg: Message) {
        match msg {
            Message::JobTaskResult {
                job,
                task,
                seed,
                newick,
                ln_likelihood,
                ..
            } => self.absorb_result(job, task, seed, newick, ln_likelihood),
            Message::WalRound {
                job,
                seed,
                index,
                entry,
            } => self.absorb_wal_round(job, seed, index, entry),
            Message::PeerDown { rank } => self.worker_lost(rank),
            Message::PeerUp { rank } => self.worker_rejoined(rank),
            // Stray WorkerReady (ping answers), heartbeat artifacts, and
            // legacy single-job traffic are not the scheduler's concern.
            _ => {}
        }
    }

    /// A worker committed one search round: append it to the jumble's
    /// log. All failure modes here cost only crash-tolerance granularity,
    /// never correctness, so none of them is allowed to disturb the job:
    /// a missing writer is a finished jumble's late stream (drop), an
    /// unparseable entry is a bad worker payload (drop), a duplicate
    /// index is a restarted worker re-streaming its prefix (deduped by
    /// the writer), and an append error or index gap abandons this one
    /// log while the jumble keeps running toward the manifest.
    fn absorb_wal_round(&mut self, job_id: JobId, seed: u64, index: u64, entry: String) {
        let Some(writer) = self.wal_writers.get_mut(&(job_id, seed)) else {
            return;
        };
        let Ok(round) = WalRound::from_json(&entry) else {
            return;
        };
        match writer.append(&round) {
            Ok(Some(bytes)) => {
                let ev = Event::WalAppend {
                    job: job_id,
                    seed,
                    index,
                    bytes,
                };
                self.obs.emit(|| ev.clone());
                if let Some(job) = self.active.get(&job_id) {
                    job.obs.emit(|| ev);
                }
            }
            Ok(None) => {}
            Err(_) => {
                self.wal_writers.remove(&(job_id, seed));
            }
        }
    }

    fn absorb_result(&mut self, job_id: JobId, task: u64, seed: u64, newick: String, lnl: f64) {
        let flight = self.in_flight.remove(&task);
        if let Some(f) = &flight {
            if let Some(worker) = self.workers.get_mut(&f.rank) {
                if worker.busy == Some(task) {
                    worker.busy = None;
                }
            }
        }
        let Some(job) = self.active.get_mut(&job_id) else {
            return; // late result for a finished/failed job
        };
        // Only a flight that was still on the books for this job releases
        // an in-flight count: a task already requeued by the liveness
        // machinery was decremented there, and decrementing again for its
        // late result would let in_flight hit zero while the recomputation
        // is still on a worker.
        if flight.as_ref().is_some_and(|f| f.job == job_id) {
            job.in_flight = job.in_flight.saturating_sub(1);
        }
        let fresh = job
            .manifest
            .entries
            .iter()
            .any(|e| e.seed == seed && e.status == JumbleStatus::Pending);
        if fresh {
            // The liveness machinery may have requeued this seed while its
            // original result was in transit; pull it back out so the
            // jumble is not dispatched a second time.
            job.pending.retain(|&s| s != seed);
            job.manifest.mark_done(seed, newick, lnl);
            let _ = job.manifest.save(&self.registry.manifest_path(job_id));
            // The result is durable in the manifest: the round log has
            // served its purpose.
            self.wal_writers.remove(&(job_id, seed));
            let _ = wal::retire(&self.registry.wal_dir(), job_id, seed);
            let done = job
                .manifest
                .entries
                .iter()
                .filter(|e| e.status == JumbleStatus::Done)
                .count();
            let total = job.manifest.entries.len();
            let ev = Event::JumbleCompleted {
                seed,
                ln_likelihood: lnl,
                reused: false,
            };
            self.obs.emit(|| ev.clone());
            job.obs.emit(|| ev);
            let progress = Event::FarmProgress {
                completed: done,
                in_flight: job.in_flight,
                pending: job.pending.len(),
                total,
            };
            self.obs.emit(|| progress.clone());
            job.obs.emit(|| progress);
            let line = format!("jumble seed={seed} lnL={lnl:.4} ({done}/{total})");
            notify_attached(&mut job.attached, job_id, &line);
        }
        // Completion is checked on the duplicate path too: when a late
        // original result marked the final seed Done, the recomputation's
        // duplicate may be the message that brings in_flight to zero.
        if job.manifest.is_complete() && job.pending.is_empty() && job.in_flight == 0 {
            self.finish(job_id);
        }
    }

    /// Every jumble landed: assemble the result, persist `Done`, answer
    /// the attached clients.
    fn finish(&mut self, id: JobId) {
        let Some(mut job) = self.active.remove(&id) else {
            return;
        };
        self.ring.retain(|&j| j != id);
        self.retire_job(id);
        self.sweep_wal(id);
        let report = RunReport::from_events(&job.sink.snapshot());
        let report_json = serde_json::to_string(&report).ok();
        let result = assemble_result(id, &job.resolved, &job.manifest, report_json);
        let _ = self.registry.set_state(id, JobState::Done);
        let ev = Event::JobCompleted {
            job: id,
            best_ln_likelihood: result.best_ln_likelihood,
        };
        self.obs.emit(|| ev.clone());
        job.obs.emit(|| ev);
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

    /// Tell the whole fleet to evict this job's cached engine, and forget
    /// who knows it. Without retirement a long-lived fleet leaks one
    /// engine per job served — on both sides. The broadcast goes to every
    /// connected worker, not just those marked as knowing the job: a
    /// worker that rejoined mid-job had its `knows` entry cleared but may
    /// still hold the engine, and eviction of an unknown job is a no-op.
    fn retire_job(&mut self, id: JobId) {
        for (&rank, worker) in self.workers.iter_mut() {
            worker.knows.remove(&id);
            let _ = self.foreman.send(rank, &Message::JobRetire { job: id });
        }
    }

    /// A job left the active table (finished or failed): its round logs
    /// are dead weight — drop the writers and delete the files so the
    /// wal directory stays bounded by the number of in-flight jumbles.
    fn sweep_wal(&mut self, id: JobId) {
        let dir = self.registry.wal_dir();
        let seeds: Vec<u64> = self
            .wal_writers
            .keys()
            .filter(|&&(j, _)| j == id)
            .map(|&(_, s)| s)
            .collect();
        for seed in seeds {
            self.wal_writers.remove(&(id, seed));
            let _ = wal::retire(&dir, id, seed);
        }
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

    fn fail(&mut self, id: JobId, reason: String) {
        let Some(mut job) = self.active.remove(&id) else {
            return;
        };
        self.ring.retain(|&j| j != id);
        self.retire_job(id);
        self.sweep_wal(id);
        let _ = self.registry.set_failed(id, reason.clone());
        let ev = Event::JobFailed {
            job: id,
            reason: reason.clone(),
        };
        self.obs.emit(|| ev.clone());
        job.obs.emit(|| ev);
        for mut stream in job.attached.drain(..) {
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
        // In-flight tasks stay in the flight table; their late results
        // find no active job and are discarded.
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

    /// Fair-share dispatch: one jumble per eligible job per ring cycle,
    /// until idle workers or eligible work run out.
    fn dispatch(&mut self) {
        loop {
            let Some(rank) = self.idle_worker() else {
                return;
            };
            let mut assigned = false;
            for _ in 0..self.ring.len() {
                let Some(id) = self.ring.pop_front() else {
                    break;
                };
                let eligible = self
                    .active
                    .get(&id)
                    .map(|j| !j.pending.is_empty() && (j.width == 0 || j.in_flight < j.width))
                    .unwrap_or(false);
                self.ring.push_back(id);
                if eligible {
                    self.assign(id, rank);
                    assigned = true;
                    break;
                }
            }
            if !assigned {
                return;
            }
        }
    }

    fn idle_worker(&self) -> Option<Rank> {
        self.workers
            .iter()
            .filter(|(_, w)| w.busy.is_none())
            .map(|(&r, _)| r)
            .min()
    }

    fn assign(&mut self, id: JobId, rank: Rank) {
        let Some(job) = self.active.get_mut(&id) else {
            return;
        };
        let Some(seed) = job.pending.pop_front() else {
            return;
        };
        let task = self.next_task;
        self.next_task += 1;
        // The jumble travels with its committed WAL prefix: the worker
        // replays it (scoring skipped), runs the rest live, and streams
        // each newly committed round back as a `WalRound`. A daemon killed
        // mid-jumble re-dispatches the longer prefix on restart.
        let task_msg = match open_wal(
            &self.registry.wal_dir(),
            id,
            seed,
            job.resolved.alignment.num_taxa(),
        ) {
            Ok((entries, writer)) => {
                if !entries.is_empty() {
                    let replayed = entries.len() as u64;
                    let ev = Event::WalReplay {
                        job: id,
                        seed,
                        rounds: replayed,
                    };
                    self.obs.emit(|| ev.clone());
                    job.obs.emit(|| ev);
                }
                self.wal_writers.insert((id, seed), writer);
                Message::JumbleResume {
                    job: id,
                    task,
                    seed,
                    wal: entries,
                }
            }
            Err(_) => {
                // A sick wal directory must not wedge the job: degrade to
                // a WAL-less dispatch, widening this jumble's crash window
                // back to manifest granularity.
                self.wal_writers.remove(&(id, seed));
                Message::JobTask {
                    job: id,
                    task,
                    seed,
                }
            }
        };
        // First contact between this worker and this job ships the
        // alignment and the first jumble in one `Batch` envelope, so a
        // dispatch always costs exactly one frame; the worker unpacks the
        // batch in order, installing the engine before the task arrives.
        let introduce = !self.workers.entry(rank).or_default().knows.contains(&id);
        let frame = if introduce {
            Message::Batch {
                msgs: vec![
                    Message::JobData {
                        job: id,
                        phylip: fdml_phylo::phylip::write(&job.resolved.alignment),
                        config_json: job.resolved.config.engine_config_json(),
                    },
                    task_msg,
                ],
            }
        } else {
            task_msg
        };
        if self.foreman.send(rank, &frame).is_err() {
            job.pending.push_front(seed);
            return;
        }
        let worker = self.workers.get_mut(&rank).expect("worker present");
        if introduce {
            worker.knows.insert(id);
        }
        worker.busy = Some(task);
        self.in_flight.insert(
            task,
            Flight {
                job: id,
                seed,
                rank,
            },
        );
        job.in_flight += 1;
        if !job.started {
            job.started = true;
            if job.wall_ms > 0 {
                job.deadline = Some(Instant::now() + Duration::from_millis(job.wall_ms));
            }
            let _ = self.registry.set_state(id, JobState::Running);
            let ev = Event::JobStarted { job: id };
            self.obs.emit(|| ev.clone());
            job.obs.emit(|| ev);
        }
        let ev = Event::JumbleStarted { seed };
        self.obs.emit(|| ev.clone());
        job.obs.emit(|| ev);
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
            .admit(spec.clone(), &resolved.seeds)
            .map_err(|e| RejectReason::Malformed {
                reason: format!("state dir unwritable: {e}"),
            })?;
        let manifest = FarmManifest::new(&resolved.seeds);
        self.activate(id, &spec, resolved, manifest);
        let jumbles = spec.jumbles;
        let label = spec.label;
        let ev = Event::JobSubmitted {
            job: id,
            jumbles,
            label,
        };
        self.obs.emit(|| ev.clone());
        if let Some(job) = self.active.get(&id) {
            job.obs.emit(|| ev);
        }
        Ok(id)
    }

    fn status_of(&self, id: JobId) -> Option<JobStatus> {
        if let Some(job) = self.active.get(&id) {
            let done = job
                .manifest
                .entries
                .iter()
                .filter(|e| e.status == JumbleStatus::Done)
                .count();
            return self.registry.status(id, done, job.manifest.entries.len());
        }
        let entry = self.registry.get(id)?;
        let manifest = self.registry.load_manifest(id, &[]);
        let done = manifest
            .entries
            .iter()
            .filter(|e| e.status == JumbleStatus::Done)
            .count();
        let total = if manifest.entries.is_empty() {
            entry.spec.jumbles
        } else {
            manifest.entries.len()
        };
        self.registry.status(id, done, total)
    }

    fn attach(&mut self, id: JobId, mut stream: TcpStream) {
        if let Some(result) = self.results.get(&id) {
            // Keep the stream shape uniform whether the client attached
            // before or after completion: at least one event, then Done.
            let _ = write_frame(
                &mut stream,
                &Frame::JobEvent {
                    job: id,
                    text: "attached (already complete)".into(),
                },
            );
            let _ = write_frame(
                &mut stream,
                &Frame::Done {
                    job: id,
                    result: result.clone(),
                },
            );
            return;
        }
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
        let answer = match self.registry.get(id) {
            Some(entry) if entry.state == JobState::Done => {
                // Completed before a restart; rebuild the result from the
                // durable manifest (the in-memory report did not survive).
                match ResolvedJob::from_spec(&entry.spec) {
                    Ok(resolved) => {
                        let manifest = self.registry.load_manifest(id, &resolved.seeds);
                        let result = assemble_result(id, &resolved, &manifest, None);
                        self.cache_result(id, result.clone());
                        Frame::Done { job: id, result }
                    }
                    Err(e) => Frame::Rejected {
                        reason: RejectReason::JobFailed {
                            job: id,
                            reason: format!("result unrecoverable: {e}"),
                        },
                    },
                }
            }
            Some(entry) if entry.state == JobState::Failed => Frame::Rejected {
                reason: RejectReason::JobFailed {
                    job: id,
                    reason: entry
                        .failure
                        .clone()
                        .unwrap_or_else(|| "unknown failure".into()),
                },
            },
            _ => Frame::Rejected {
                reason: RejectReason::UnknownJob { job: id },
            },
        };
        if matches!(answer, Frame::Done { .. }) {
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
}

/// Recover (or start) the WAL for one (job, seed): returns the committed
/// rounds as wire-ready JSON entries plus the append handle continuing at
/// the next index.
fn open_wal(
    dir: &std::path::Path,
    job: JobId,
    seed: u64,
    num_taxa: usize,
) -> std::io::Result<(Vec<String>, WalWriter)> {
    match wal::load(dir, job, seed)? {
        Some(state) => {
            let writer = WalWriter::resume(dir, job, seed, &state)?;
            let entries = state.rounds.iter().map(|r| r.to_json()).collect();
            Ok((entries, writer))
        }
        None => {
            let writer = WalWriter::create(dir, job, seed, num_taxa)?;
            Ok((Vec::new(), writer))
        }
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

/// Build the final [`JobResult`] from a complete manifest: trees in plan
/// order, the best tree (first on ties), and the majority-rule consensus
/// for multi-jumble jobs — byte-identical to a serial farm over the same
/// seeds, because every jumble ran through `Evaluator::jumble`.
fn assemble_result(
    id: JobId,
    resolved: &ResolvedJob,
    manifest: &FarmManifest,
    report: Option<String>,
) -> JobResult {
    let trees: Vec<JobTree> = manifest
        .entries
        .iter()
        .map(|e| JobTree {
            seed: e.seed,
            newick: e.newick.clone().unwrap_or_default(),
            ln_likelihood: e.ln_likelihood.unwrap_or(f64::NEG_INFINITY),
        })
        .collect();
    // Strictly-greater comparison keeps the first tree in plan order on
    // ties, matching the serial farm's tie-break.
    let mut best = JobTree {
        seed: 0,
        newick: String::new(),
        ln_likelihood: f64::NEG_INFINITY,
    };
    for t in &trees {
        if t.ln_likelihood > best.ln_likelihood {
            best = t.clone();
        }
    }
    let consensus_newick = if trees.len() > 1 {
        let parsed: Result<Vec<_>, _> = trees
            .iter()
            .map(|t| newick::parse_tree(&t.newick, &resolved.alignment))
            .collect();
        parsed.ok().and_then(|ts| {
            let names = resolved.alignment.names().to_vec();
            consensus(&ts, names.len(), 0.5, &names)
                .ok()
                .map(|c| newick::write(&c.tree))
        })
    } else {
        None
    };
    JobResult {
        job: id,
        trees,
        consensus_newick,
        best_newick: best.newick,
        best_ln_likelihood: best.ln_likelihood,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_core::config::SearchConfig;
    use fdml_net::{ClientConfig, NetConfig};
    use std::path::PathBuf;

    #[test]
    fn effective_caps_compose() {
        assert_eq!(effective(0, 0), 0);
        assert_eq!(effective(0, 8), 8);
        assert_eq!(effective(4, 0), 4);
        assert_eq!(effective(16, 8), 8);
        assert_eq!(effective(4, 8), 4);
    }

    // ----- duplicate / late-result accounting ---------------------------
    //
    // These drive the scheduler's internals directly (no real worker
    // processes): a "worker" is an entry in the worker table, and results
    // are injected via absorb_result, so the exact interleavings of the
    // liveness machinery and in-transit results can be replayed.

    fn test_scheduler(tag: &str) -> (Scheduler, PathBuf) {
        let dir = std::env::temp_dir().join(format!("fdml-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = TcpHub::bind_reserved(
            "127.0.0.1:0",
            4,
            &[1, 2],
            NetConfig::default(),
            Obs::disabled(),
        )
        .unwrap();
        let addr = hub.local_addr();
        let claim = |rank| {
            TcpTransport::connect_observed(
                addr,
                ClientConfig {
                    claim: Some(rank),
                    ..ClientConfig::default()
                },
                Obs::disabled(),
            )
            .unwrap()
        };
        let foreman = claim(1);
        let monitor = claim(2);
        let registry = Registry::open(&dir).unwrap();
        let scheduler = Scheduler::new(
            hub,
            foreman,
            monitor,
            registry,
            Obs::disabled(),
            Limits {
                max_jobs: 8,
                max_job_ranks: 0,
                max_wall_ms: 0,
            },
            Arc::new(AtomicU8::new(MODE_RUN)),
        );
        (scheduler, dir)
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
    fn width_accounts_intra_threads_as_slots() {
        // A rank running N kernel threads occupies N hardware slots: a
        // 4-slot budget admits 2 concurrent ranks at 2 threads each, and
        // an oversubscribed request still gets one rank.
        let (mut s, dir) = test_scheduler("slots");
        let wide = JobSpec {
            max_ranks: 4,
            intra_threads: 2,
            ..one_jumble_spec()
        };
        let id = s.admit(wide).unwrap();
        assert_eq!(s.active[&id].width, 2);
        let over = JobSpec {
            max_ranks: 4,
            intra_threads: 16,
            ..one_jumble_spec()
        };
        let id2 = s.admit(over).unwrap();
        assert_eq!(s.active[&id2].width, 1);
        let uncapped = one_jumble_spec();
        let id3 = s.admit(uncapped).unwrap();
        assert_eq!(s.active[&id3].width, 0, "no budget, no cap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_result_after_requeue_completes_the_job() {
        // A busy worker's connection flaps: PeerUp requeues its seed, then
        // the original result still arrives. The job must finish — with
        // the seed pulled back out of the pending queue, not recomputed.
        let (mut s, dir) = test_scheduler("flap");
        let id = s.admit(one_jumble_spec()).unwrap();
        s.workers.insert(3, Worker::default());
        s.dispatch();
        assert_eq!(s.active[&id].in_flight, 1);
        assert!(s.active[&id].pending.is_empty());

        s.worker_rejoined(3);
        assert_eq!(s.active[&id].in_flight, 0);
        assert_eq!(s.active[&id].pending.len(), 1);
        let seed = s.active[&id].pending[0];

        // The original worker's result for the requeued seed arrives
        // before the seed is re-dispatched.
        s.absorb_result(id, 1, seed, "(t0:0.1,t1:0.1,t2:0.1);".into(), -42.0);
        assert!(!s.active.contains_key(&id), "job should have finished");
        assert!(s.results.contains_key(&id));
        assert_eq!(
            s.registry.get(id).unwrap().state,
            JobState::Done,
            "completion must be persisted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recomputed_duplicate_still_completes_the_job() {
        // Worse interleaving: the requeued seed is *re-dispatched* before
        // the original result lands. The late original marks the seed
        // Done; the recomputation's duplicate must then (a) not
        // double-decrement in_flight and (b) still trigger completion.
        let (mut s, dir) = test_scheduler("dup");
        let id = s.admit(one_jumble_spec()).unwrap();
        s.workers.insert(3, Worker::default());
        s.dispatch(); // task 1
        s.worker_rejoined(3); // requeue: seed back to pending
        let seed = s.active[&id].pending[0];
        s.dispatch(); // task 2: the recomputation
        assert_eq!(s.active[&id].in_flight, 1);

        // Late original result for task 1: no flight on the books, so
        // in_flight must stay 1 (the recomputation is still out).
        s.absorb_result(id, 1, seed, "(t0:0.1,t1:0.1,t2:0.1);".into(), -42.0);
        assert!(s.active.contains_key(&id), "recomputation still in flight");
        assert_eq!(s.active[&id].in_flight, 1);

        // The recomputation's result is a duplicate (seed already Done),
        // but it is what brings in_flight to zero — completion must run.
        s.absorb_result(id, 2, seed, "(t0:0.1,t1:0.1,t2:0.1);".into(), -42.0);
        assert!(!s.active.contains_key(&id), "job should have finished");
        assert!(s.results.contains_key(&id));
        assert_eq!(s.registry.get(id).unwrap().state, JobState::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
