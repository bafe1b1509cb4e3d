//! The structured event vocabulary of the instrumented runtime.
//!
//! One schema serves both the real threaded runtime and the RS/6000 SP
//! simulator; `t_us` is wall-clock microseconds since observation started in
//! the former and simulated microseconds in the latter.

use serde::{Deserialize, Serialize};

/// A single runtime observation.
///
/// Ranks are plain `usize` (the `fdml-comm` rank convention: 0 = master,
/// 1 = foreman, 2 = monitor, 3.. = workers) and message kinds are their
/// stable string names, so this crate stays dependency-free below `serde`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Observation began; the universe has `ranks` ranks, of which
    /// `workers` evaluate trees.
    RunStarted {
        /// Total rank count (master + foreman + monitor + workers).
        ranks: usize,
        /// Worker count (`ranks - 3`).
        workers: usize,
    },
    /// A transport endpoint sent a message.
    MessageSent {
        /// Sending rank.
        from: usize,
        /// Destination rank.
        to: usize,
        /// Stable message-kind name (`MessageKind::name`).
        kind: String,
        /// Approximate wire size (`Message::wire_bytes`).
        bytes: u64,
    },
    /// A transport endpoint received a message.
    MessageReceived {
        /// Receiving rank.
        at: usize,
        /// Originating rank.
        from: usize,
        /// Stable message-kind name (`MessageKind::name`).
        kind: String,
        /// Approximate wire size (`Message::wire_bytes`).
        bytes: u64,
    },
    /// The foreman's queue state after a scheduling action.
    QueueDepth {
        /// Candidate trees waiting for a worker.
        work: usize,
        /// Workers waiting for a candidate tree.
        ready: usize,
        /// Tasks dispatched and not yet answered.
        in_flight: usize,
    },
    /// The foreman handed a candidate tree to a worker.
    TaskDispatched {
        /// Task id.
        task: u64,
        /// Worker rank.
        worker: usize,
    },
    /// A worker's evaluated tree was accepted by the foreman.
    TaskCompleted {
        /// Task id.
        task: u64,
        /// Worker rank.
        worker: usize,
        /// Dispatch-to-result latency seen by the foreman, µs.
        service_us: u64,
        /// Work units the evaluation reported.
        work_units: u64,
        /// The candidate's log-likelihood.
        ln_likelihood: f64,
    },
    /// A worker blew the foreman's timeout; its task was re-queued.
    TaskTimedOut {
        /// The re-queued task id.
        task: u64,
        /// The delinquent worker's rank.
        worker: usize,
    },
    /// A delinquent worker answered late and was re-admitted.
    WorkerRecovered {
        /// The recovered worker's rank.
        worker: usize,
    },
    /// A worker finished the compute part of one task (measured on the
    /// worker itself, excluding queueing and transport).
    WorkerTaskDone {
        /// The worker's rank.
        worker: usize,
        /// Task id.
        task: u64,
        /// Time spent inside likelihood evaluation, µs.
        busy_us: u64,
        /// Work units expended.
        work_units: u64,
        /// Raw per-pattern kernel operations performed
        /// (`WorkCounter::total_pattern_updates`), the unweighted count
        /// behind the patterns/sec throughput gauge.
        pattern_updates: u64,
    },
    /// A worker scored one incremental edit task through its CLV cache
    /// (emitted alongside [`Event::WorkerTaskDone`] for that task).
    IncrementalEdit {
        /// The worker's rank.
        worker: usize,
        /// Directional CLVs served from the cache for this edit.
        cache_hits: u64,
        /// Dirty-path CLVs recomputed for this edit.
        edges_recomputed: u64,
        /// 1 when the worker had to install an embedded base from a
        /// self-contained dispatch (the fallback ladder fired), else 0.
        fallbacks: u64,
    },
    /// A dispatch round closed.
    RoundCompleted {
        /// Round ordinal.
        round: u64,
        /// Candidate trees evaluated in the round.
        candidates: usize,
        /// Best log-likelihood found in the round.
        best_ln_likelihood: f64,
    },
    /// Observation ended.
    RunFinished {
        /// Final log-likelihood of the search.
        ln_likelihood: f64,
    },
    /// A network peer completed the transport handshake and joined the
    /// universe (emitted by `fdml-net`; the threaded transport never
    /// produces it, the simulator emits one per simulated worker so real
    /// and simulated reports share a schema).
    NetPeerConnected {
        /// The rank the peer was assigned.
        rank: usize,
    },
    /// A network peer's connection was lost (or closed in an orderly way).
    NetPeerDisconnected {
        /// The disconnected peer's rank.
        rank: usize,
        /// True when the peer said goodbye; false for a dropped link.
        graceful: bool,
    },
    /// A heartbeat interval elapsed with no traffic from a peer.
    NetHeartbeatMiss {
        /// The silent peer's rank.
        rank: usize,
        /// Consecutive misses so far (the peer is declared dead at the
        /// transport's miss limit).
        misses: u64,
    },
    /// A previously lost peer reconnected and was re-bound to its rank.
    NetPeerReconnected {
        /// The returning peer's rank.
        rank: usize,
        /// Cumulative reconnects for this rank, this one included.
        reconnects: u64,
    },
    /// The farm scheduler handed a jumble (one whole random-addition
    /// search) to the worker pool.
    JumbleStarted {
        /// The adjusted jumble seed.
        seed: u64,
    },
    /// A jumble finished and its tree entered the incremental consensus.
    JumbleCompleted {
        /// The adjusted jumble seed.
        seed: u64,
        /// The jumble's final log-likelihood.
        ln_likelihood: f64,
        /// True when the result came from a resumed manifest rather than a
        /// fresh computation.
        reused: bool,
    },
    /// A farm scheduling state change: how many jumbles are done, running,
    /// and still queued (the farm's throughput gauge).
    FarmProgress {
        /// Jumbles completed so far.
        completed: usize,
        /// Jumbles currently dispatched to the pool.
        in_flight: usize,
        /// Jumbles not yet dispatched.
        pending: usize,
        /// Total jumbles in the farm.
        total: usize,
    },
    /// The supervisor restarted a dead worker process (or thread).
    WorkerRespawned {
        /// The respawned worker's rank.
        worker: usize,
        /// Cumulative restarts for this rank, this one included.
        restarts: u64,
    },
    /// A frame failed its CRC32 check (or a chaos plan corrupted a
    /// message); the payload was discarded and the peer treated as lost.
    FrameCorrupt {
        /// The rank whose traffic was corrupted.
        rank: usize,
    },
    /// A task exhausted its failure budget across distinct workers and was
    /// pulled from the queue for local evaluation on the master.
    TaskQuarantined {
        /// The quarantined task id.
        task: u64,
        /// Distinct workers that failed the task before quarantine.
        failures: u64,
    },
    /// A regional foreman's queue state in `fdml-simsp`'s simulated
    /// two-level foreman tree (the runtime has one foreman, which emits
    /// [`Event::QueueDepth`]).
    RegionQueueDepth {
        /// Region index (0-based; region r is rank 3 + r).
        region: usize,
        /// Leased tasks waiting for a worker in this region.
        work: usize,
        /// Idle workers in this region.
        ready: usize,
        /// Tasks dispatched to this region's workers and not yet answered.
        in_flight: usize,
    },
    /// The simulated root foreman granted a lease batch to a regional
    /// foreman.
    LeaseGranted {
        /// The receiving region's index.
        region: usize,
        /// Tasks in the grant.
        tasks: usize,
    },
    /// A multi-message frame left a tier of the simulated foreman tree
    /// (lease grants, result aggregation) — its wire-amortization gauge.
    BatchSent {
        /// Sending rank.
        from: usize,
        /// Messages inside the batch.
        msgs: usize,
        /// Approximate wire size of the batch (`Message::wire_bytes`).
        bytes: u64,
    },
    /// The daemon admitted a job into its registry (service mode).
    JobSubmitted {
        /// The registry id assigned at admission.
        job: u64,
        /// How many jumbles the job plans.
        jumbles: usize,
        /// The submitter's display label.
        label: String,
    },
    /// The fair-share scheduler dispatched a job's first piece of work.
    JobStarted {
        /// The job that left the queue.
        job: u64,
    },
    /// Every jumble of a job completed; its result is available.
    JobCompleted {
        /// The finished job.
        job: u64,
        /// The best log-likelihood over its jumbles.
        best_ln_likelihood: f64,
    },
    /// A job ended without a result (search error, wall-time quota).
    JobFailed {
        /// The failed job.
        job: u64,
        /// Why it failed.
        reason: String,
    },
    /// The likelihood kernel configuration a run resolved at startup:
    /// which SIMD instruction set the dispatcher selected.
    KernelDispatch {
        /// Active instruction set name (`KernelIsa::name`): "scalar",
        /// "avx2", "avx512", or "neon".
        isa: String,
    },
    /// One committed round was appended to a write-ahead log.
    WalAppend {
        /// Serve-job id the WAL belongs to (0 outside the daemon).
        job: u64,
        /// Jumble seed of the search being logged.
        seed: u64,
        /// 0-based round index of the appended record.
        index: u64,
        /// Framed bytes written (header + payload).
        bytes: u64,
    },
    /// A resumed search replayed committed rounds from a write-ahead log
    /// instead of re-scoring them.
    WalReplay {
        /// Serve-job id the WAL belongs to (0 outside the daemon).
        job: u64,
        /// Jumble seed of the resumed search.
        seed: u64,
        /// Rounds replayed from the log.
        rounds: u64,
    },
    /// The crash-consistent storage layer recovered a damaged file:
    /// salvaged the longest valid prefix and dropped the torn tail. A
    /// warning, not an error — surviving exactly this is what the framed
    /// format is for — but worth an operator's eyes.
    DurableRecovered {
        /// The file that was recovered.
        path: String,
        /// Byte offset where the salvaged prefix ends (the last valid
        /// record boundary).
        valid_bytes: u64,
        /// Bytes dropped after that offset.
        dropped_bytes: u64,
    },
}

impl Event {
    /// A short stable tag for the event type (for filtering logs).
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "RunStarted",
            Event::MessageSent { .. } => "MessageSent",
            Event::MessageReceived { .. } => "MessageReceived",
            Event::QueueDepth { .. } => "QueueDepth",
            Event::TaskDispatched { .. } => "TaskDispatched",
            Event::TaskCompleted { .. } => "TaskCompleted",
            Event::TaskTimedOut { .. } => "TaskTimedOut",
            Event::WorkerRecovered { .. } => "WorkerRecovered",
            Event::WorkerTaskDone { .. } => "WorkerTaskDone",
            Event::IncrementalEdit { .. } => "IncrementalEdit",
            Event::RoundCompleted { .. } => "RoundCompleted",
            Event::RunFinished { .. } => "RunFinished",
            Event::NetPeerConnected { .. } => "NetPeerConnected",
            Event::NetPeerDisconnected { .. } => "NetPeerDisconnected",
            Event::NetHeartbeatMiss { .. } => "NetHeartbeatMiss",
            Event::NetPeerReconnected { .. } => "NetPeerReconnected",
            Event::JumbleStarted { .. } => "JumbleStarted",
            Event::JumbleCompleted { .. } => "JumbleCompleted",
            Event::FarmProgress { .. } => "FarmProgress",
            Event::WorkerRespawned { .. } => "WorkerRespawned",
            Event::FrameCorrupt { .. } => "FrameCorrupt",
            Event::TaskQuarantined { .. } => "TaskQuarantined",
            Event::RegionQueueDepth { .. } => "RegionQueueDepth",
            Event::LeaseGranted { .. } => "LeaseGranted",
            Event::BatchSent { .. } => "BatchSent",
            Event::JobSubmitted { .. } => "JobSubmitted",
            Event::JobStarted { .. } => "JobStarted",
            Event::JobCompleted { .. } => "JobCompleted",
            Event::JobFailed { .. } => "JobFailed",
            Event::KernelDispatch { .. } => "KernelDispatch",
            Event::WalAppend { .. } => "WalAppend",
            Event::WalReplay { .. } => "WalReplay",
            Event::DurableRecovered { .. } => "DurableRecovered",
        }
    }
}

/// An [`Event`] stamped with its observation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Microseconds since observation started (wall clock in the real
    /// runtime, simulated time in `fdml-simsp`).
    pub t_us: u64,
    /// The observation itself.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            Record {
                t_us: 0,
                event: Event::RunStarted {
                    ranks: 5,
                    workers: 2,
                },
            },
            Record {
                t_us: 17,
                event: Event::MessageSent {
                    from: 1,
                    to: 3,
                    kind: "TreeTask".into(),
                    bytes: 120,
                },
            },
            Record {
                t_us: 40,
                event: Event::TaskCompleted {
                    task: 9,
                    worker: 3,
                    service_us: 23,
                    work_units: 800,
                    ln_likelihood: -1234.5,
                },
            },
            Record {
                t_us: 99,
                event: Event::RunFinished {
                    ln_likelihood: -1200.25,
                },
            },
        ];
        for r in records {
            let json = serde_json::to_string(&r).unwrap();
            let back: Record = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Event::QueueDepth {
                work: 0,
                ready: 0,
                in_flight: 0
            }
            .name(),
            "QueueDepth"
        );
        assert_eq!(
            Event::WorkerRecovered { worker: 3 }.name(),
            "WorkerRecovered"
        );
        assert_eq!(
            Event::WorkerRespawned {
                worker: 3,
                restarts: 1
            }
            .name(),
            "WorkerRespawned"
        );
        assert_eq!(Event::FrameCorrupt { rank: 4 }.name(), "FrameCorrupt");
        assert_eq!(
            Event::TaskQuarantined {
                task: 9,
                failures: 2
            }
            .name(),
            "TaskQuarantined"
        );
    }

    #[test]
    fn robustness_events_round_trip_through_json() {
        let records = vec![
            Record {
                t_us: 5,
                event: Event::WorkerRespawned {
                    worker: 4,
                    restarts: 2,
                },
            },
            Record {
                t_us: 6,
                event: Event::FrameCorrupt { rank: 3 },
            },
            Record {
                t_us: 7,
                event: Event::TaskQuarantined {
                    task: 12,
                    failures: 3,
                },
            },
        ];
        for r in records {
            let json = serde_json::to_string(&r).unwrap();
            let back: Record = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }
}
