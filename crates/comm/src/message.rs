//! The message vocabulary of the parallel runtime.
//!
//! Mirrors fastDNAml's protocol: trees travel as ASCII Newick strings, the
//! problem data is broadcast once at startup, and the monitor receives
//! instrumentation events.

use serde::{Deserialize, Serialize};
use std::fmt;

fn default_service_us() -> u64 {
    0
}

/// Instrumentation events consumed by the optional monitor process
/// (paper §2.2: "an optional process that provides instrumentation").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MonitorEvent {
    /// A tree was dispatched to a worker.
    Dispatched {
        /// Task id of the candidate tree.
        task: u64,
        /// Worker rank it went to.
        worker: usize,
    },
    /// A worker returned an evaluated tree.
    Completed {
        /// Task id of the candidate tree.
        task: u64,
        /// Worker rank that evaluated it.
        worker: usize,
        /// Log-likelihood it reported.
        ln_likelihood: f64,
        /// Work units the evaluation took.
        work_units: u64,
        /// Wall-clock dispatch-to-result latency observed by the foreman,
        /// in microseconds. Absent in logs written before this field
        /// existed, hence the default.
        #[serde(default = "default_service_us")]
        service_us: u64,
    },
    /// A worker was marked delinquent after a timeout.
    WorkerTimedOut {
        /// The delinquent worker's rank.
        worker: usize,
        /// The task that was re-dispatched.
        task: u64,
    },
    /// A previously delinquent worker answered and was re-admitted.
    WorkerRecovered {
        /// The recovered worker's rank.
        worker: usize,
    },
    /// A dispatch round finished; the best tree of the round is reported.
    /// The real-time viewer tails these (paper §4: the monitor application
    /// watches "a file representing the best tree from each iteration").
    RoundComplete {
        /// Round ordinal.
        round: u64,
        /// Candidates evaluated in the round.
        candidates: usize,
        /// Best log-likelihood of the round.
        best_ln_likelihood: f64,
        /// Best tree of the round, as Newick text.
        best_newick: String,
    },
}

/// One candidate edit against a broadcast base topology — the compact wire
/// form of a tree move. Node and taxon identifiers are the plain integers
/// of the base tree's arena; they are meaningful because Newick parsing is
/// deterministic, so every rank that parses the same broadcast base text
/// assigns the same ids (the comm crate deliberately does not depend on
/// the phylogeny crate's typed ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeEdit {
    /// Insert taxon `taxon` into the base edge between nodes `a` and `b`.
    Insert {
        /// The taxon to insert (alignment row index).
        taxon: u32,
        /// One endpoint of the insertion edge.
        a: u32,
        /// The other endpoint of the insertion edge.
        b: u32,
    },
    /// Prune the subtree hanging off `root` across the `root`–`attachment`
    /// edge and regraft it into the edge between nodes `a` and `b`.
    Regraft {
        /// The node at the pruned subtree's junction.
        root: u32,
        /// The base-tree node the subtree was attached through.
        attachment: u32,
        /// One endpoint of the regraft target edge.
        a: u32,
        /// The other endpoint of the regraft target edge.
        b: u32,
    },
}

/// One edit's answer inside a [`Message::EditScores`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EditScore {
    /// Log-likelihood of `base + edit`.
    pub ln_likelihood: f64,
    /// Work units the scoring cost.
    pub work_units: u64,
}

/// The payload of one unit of work, detached from its routing envelope.
/// Carried inside [`Message::Quarantined`] so the master can evaluate a
/// poisoned task locally with the same inputs the workers saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskPayload {
    /// A single candidate tree (the payload of a [`Message::TreeTask`]).
    Tree {
        /// The candidate tree as Newick text.
        newick: String,
    },
    /// A whole jumble (the payload of a [`Message::JobTask`] or a
    /// [`Message::JumbleResume`]).
    Jumble {
        /// The adjusted jumble seed.
        seed: u64,
    },
    /// A chunk of candidate edits against a broadcast base topology (the
    /// payload of a [`Message::EditChunk`]).
    TreeEdit {
        /// Generation id of the base topology the edits apply to.
        base_id: u64,
        /// The edits, in the order their scores are expected back.
        edits: Vec<TreeEdit>,
    },
}

/// Messages exchanged between master, foreman, workers, and monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Broadcast once from the foreman to every worker before any tree is
    /// dispatched: the aligned data plus an opaque engine configuration
    /// (JSON; the transport does not interpret it).
    ProblemData {
        /// PHYLIP-formatted alignment text.
        phylip: String,
        /// Engine configuration (model, categories, optimizer options).
        config_json: String,
    },
    /// A worker announces it is ready for work.
    WorkerReady,
    /// Foreman → worker: evaluate this tree (optimize branch lengths,
    /// return the likelihood).
    TreeTask {
        /// Task id, unique within the run.
        task: u64,
        /// The candidate tree as Newick text.
        newick: String,
    },
    /// Worker → foreman: the evaluated tree.
    TreeResult {
        /// Task id echoed back.
        task: u64,
        /// The tree with optimized branch lengths, as Newick text.
        newick: String,
        /// Its log-likelihood.
        ln_likelihood: f64,
        /// Work units expended (for instrumentation and the simulator).
        work_units: u64,
    },
    /// Worker → foreman → master: a finished jumble, the one answer to
    /// every jumble request ([`Message::JobTask`] or
    /// [`Message::JumbleResume`]).
    JumbleResult {
        /// The job echoed back (0 = the run's own problem).
        job: crate::job::JobId,
        /// Task id echoed back.
        task: u64,
        /// The jumble seed echoed back.
        seed: u64,
        /// The best tree of the jumble, as Newick text.
        newick: String,
        /// Its log-likelihood.
        ln_likelihood: f64,
        /// Dispatch rounds the search ran.
        rounds: u64,
        /// Candidate trees the search evaluated.
        candidates: u64,
        /// Work units expended over the whole search.
        work_units: u64,
    },
    /// Instrumentation, routed to the monitor rank.
    Monitor(MonitorEvent),
    /// Transport → foreman: a worker rank was lost (connection dropped,
    /// corrupt frame, or process death). The foreman eagerly requeues the
    /// rank's in-flight task instead of waiting out the timeout. Never
    /// routed to workers.
    PeerDown {
        /// The lost worker's rank.
        rank: usize,
    },
    /// Transport → foreman: a previously lost worker rank rejoined (a
    /// reconnect or a supervisor respawn re-admitted through the
    /// Hello/Welcome path). The foreman re-broadcasts the problem data so
    /// the fresh process can rebuild its engine. Never routed to workers.
    PeerUp {
        /// The returning worker's rank.
        rank: usize,
    },
    /// Foreman → master: a task exhausted its failure budget across
    /// distinct workers and was pulled from the queue; the master must
    /// evaluate it locally as a last resort.
    Quarantined {
        /// Task id of the poisoned task.
        task: u64,
        /// Distinct workers that failed it before quarantine.
        failures: u64,
        /// The work itself, so the master can redo it locally.
        payload: TaskPayload,
    },
    /// Foreman → master: the run cannot continue (every worker is dead
    /// with work still outstanding). The master surfaces a typed error and
    /// leaves its round log on disk.
    Abort {
        /// Human-readable cause.
        reason: String,
    },
    /// Daemon master → worker: the problem data of one job in a
    /// multi-tenant fleet, sent when the job is admitted and whenever a
    /// worker joins. Unlike [`Message::ProblemData`] (one anonymous
    /// problem per process lifetime) this is tagged with the job id, and a
    /// worker caches one engine per job so tasks from concurrent jobs can
    /// interleave on the same rank.
    JobData {
        /// The job this data belongs to.
        job: crate::job::JobId,
        /// PHYLIP-formatted alignment text.
        phylip: String,
        /// Engine configuration (model, categories, optimizer options).
        config_json: String,
    },
    /// Master → foreman → worker: run one whole jumble (a complete
    /// stepwise-addition search with this addition-order seed) and answer
    /// with a [`Message::JumbleResult`]. This is the unit of work of a job
    /// of several jumbles: an entire random restart, not one candidate
    /// tree. Job 0 is the run's own problem ([`Message::ProblemData`]);
    /// any other job is a daemon job, evaluated with the engine cached for
    /// it (its [`Message::JobData`] always arrives first).
    JobTask {
        /// The job the jumble belongs to (0 = the run's own problem).
        job: crate::job::JobId,
        /// Task id, unique within the daemon's lifetime.
        task: u64,
        /// The jumble seed (already adjusted and deduplicated).
        seed: u64,
    },
    /// A finished daemon-job jumble without its search's round and
    /// candidate counts. Retired: every jumble is answered by a
    /// [`Message::JumbleResult`], and nothing in the runtime sends this
    /// variant. It and its codec arms survive because the benchmark's
    /// `wire.bytes_per_task` probe (`benchmark/src/probes.rs`) constructs
    /// and round-trips it; delete both together (ROADMAP 1c).
    JobTaskResult {
        /// The job echoed back.
        job: crate::job::JobId,
        /// Task id echoed back.
        task: u64,
        /// The jumble seed echoed back.
        seed: u64,
        /// The best tree of the jumble, as Newick text.
        newick: String,
        /// Its log-likelihood.
        ln_likelihood: f64,
        /// Work units expended over the whole search.
        work_units: u64,
    },
    /// Daemon master → worker: a job is finished or failed and none of its
    /// jumbles is out any more; drop its cached engine. Without retirement a long-lived shared-fleet worker
    /// would keep one alignment + likelihood state per job ever served.
    JobRetire {
        /// The job to evict.
        job: crate::job::JobId,
    },
    /// Master → foreman → workers: the base topology of the upcoming
    /// dispatch round. Workers index its per-edge CLVs once and then score
    /// each [`Message::EditChunk`] of the round incrementally. A new
    /// broadcast (higher `base_id`) invalidates any cached predecessor.
    BaseTopology {
        /// Monotonically increasing generation id of this base.
        base_id: u64,
        /// The base tree as Newick text (branch lengths round-trip
        /// exactly: shortest-round-trip float formatting).
        newick: String,
    },
    /// One candidate edit as a task of its own, answered by a
    /// [`Message::TreeResult`] with an empty Newick. Retired: candidates
    /// travel in [`Message::EditChunk`]s, and nothing in the runtime builds
    /// or serves this variant. It and its codec arms survive because the
    /// benchmark's `wire.bytes_per_task` probe (`benchmark/src/probes.rs:249`)
    /// constructs and round-trips it; delete both together (ROADMAP 1g).
    TreeEditTask {
        /// Task id, unique within the run.
        task: u64,
        /// Generation id of the base the edit applies to.
        base_id: u64,
        /// The edit to score.
        edit: TreeEdit,
        /// The base tree itself, embedded when the foreman cannot assume
        /// the worker holds the broadcast base (fresh respawn, requeue
        /// after a peer death, or quarantine re-dispatch) — the
        /// self-contained rung of the fallback ladder.
        base_newick: Option<String>,
    },
    /// Foreman → worker: score a chunk of candidate edits against the
    /// round's base topology — the unit of edit work. An edit is a few node
    /// ids and ~40 µs of compute, so a round's moves travel a chunk per
    /// frame, not a move per frame; the worker answers with one
    /// [`Message::EditScores`].
    EditChunk {
        /// Task id, unique within the run.
        task: u64,
        /// Generation id of the base the edits apply to.
        base_id: u64,
        /// The edits to score, in order.
        edits: Vec<TreeEdit>,
        /// The base tree itself, embedded when the foreman cannot assume
        /// the worker holds the broadcast base (fresh respawn, requeue
        /// after a peer death, or quarantine re-dispatch) — the
        /// self-contained rung of the fallback ladder.
        base_newick: Option<String>,
    },
    /// Worker → foreman: the scores of an [`Message::EditChunk`], one per
    /// edit, in the chunk's order. No trees: the master rebuilds the one
    /// candidate it wants itself.
    EditScores {
        /// Task id echoed back.
        task: u64,
        /// One score per edit of the chunk, in edit order.
        scores: Vec<EditScore>,
    },
    /// Foreman → worker: a liveness probe. A delinquent worker gets no new
    /// work, so without a probe a silently dead one would never be
    /// discovered (nothing is ever sent to it again) and an idle-but-alive
    /// one would never be re-admitted. The worker answers with
    /// [`Message::WorkerReady`]; on the threaded transport a dead endpoint
    /// fails the send instead.
    Ping,
    /// Worker → foreman → master: one committed search round of a
    /// remotely running jumble, as a framed write-ahead-log entry. The
    /// coordinator appends it to the jumble's WAL so a killed-and-resumed
    /// coordinator can hand the worker its own history back (see
    /// [`Message::JumbleResume`]) and replay to a byte-identical tree.
    /// `entry` is the JSON text of one `WalRecord::Round`; the transport
    /// does not interpret it.
    WalRound {
        /// The job the jumble belongs to (0 = the anonymous one-shot farm).
        job: u64,
        /// The jumble seed (already adjusted), identifying the WAL.
        seed: u64,
        /// Zero-based round ordinal within the jumble. The coordinator
        /// dedups re-streamed history from a restarted worker by index.
        index: u64,
        /// One framed round as JSON text.
        entry: String,
    },
    /// Coordinator → worker: run one whole jumble, resuming from the
    /// write-ahead log carried inline. The WAL-aware sibling of
    /// [`Message::JobTask`]: an empty `wal` means a fresh start, a
    /// non-empty one replays the committed rounds before going live, and
    /// either way the worker streams every subsequent committed round back
    /// as [`Message::WalRound`], then answers with a
    /// [`Message::JumbleResult`].
    JumbleResume {
        /// The job the jumble belongs to (0 = the run's own problem).
        job: u64,
        /// Task id, unique within the run.
        task: u64,
        /// The jumble seed (already adjusted and deduplicated).
        seed: u64,
        /// The numerics epoch the `wal` rounds were computed under: the
        /// worker replays them bit for bit within its own epoch and within
        /// the replay tolerance across epochs, as a single search does.
        numerics: u32,
        /// The committed rounds so far, one `WalRecord::Round` JSON text
        /// per entry, in order. Empty for a fresh start.
        wal: Vec<String>,
    },
    /// Orderly shutdown of a worker or the monitor.
    Shutdown,
}

/// The kind of a [`Message`], without its payload. This is the unit of
/// per-kind traffic accounting shared by the observability layer, fault
/// injection, and the simulator's communication cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    /// [`Message::ProblemData`].
    ProblemData,
    /// [`Message::WorkerReady`].
    WorkerReady,
    /// [`Message::TreeTask`].
    TreeTask,
    /// [`Message::TreeResult`].
    TreeResult,
    /// [`Message::JumbleResult`].
    JumbleResult,
    /// [`Message::Monitor`].
    Monitor,
    /// [`Message::PeerDown`].
    PeerDown,
    /// [`Message::PeerUp`].
    PeerUp,
    /// [`Message::Quarantined`].
    Quarantined,
    /// [`Message::Abort`].
    Abort,
    /// [`Message::JobData`].
    JobData,
    /// [`Message::JobTask`].
    JobTask,
    /// [`Message::JobTaskResult`].
    JobTaskResult,
    /// [`Message::JobRetire`].
    JobRetire,
    /// [`Message::BaseTopology`].
    BaseTopology,
    /// [`Message::TreeEditTask`].
    TreeEditTask,
    /// [`Message::EditChunk`].
    EditChunk,
    /// [`Message::EditScores`].
    EditScores,
    /// [`Message::Ping`].
    Ping,
    /// [`Message::WalRound`].
    WalRound,
    /// [`Message::JumbleResume`].
    JumbleResume,
    /// [`Message::Shutdown`].
    Shutdown,
}

impl MessageKind {
    /// The stable string tag for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::ProblemData => "ProblemData",
            MessageKind::WorkerReady => "WorkerReady",
            MessageKind::TreeTask => "TreeTask",
            MessageKind::TreeResult => "TreeResult",
            MessageKind::JumbleResult => "JumbleResult",
            MessageKind::Monitor => "Monitor",
            MessageKind::PeerDown => "PeerDown",
            MessageKind::PeerUp => "PeerUp",
            MessageKind::Quarantined => "Quarantined",
            MessageKind::Abort => "Abort",
            MessageKind::JobData => "JobData",
            MessageKind::JobTask => "JobTask",
            MessageKind::JobTaskResult => "JobTaskResult",
            MessageKind::JobRetire => "JobRetire",
            MessageKind::BaseTopology => "BaseTopology",
            MessageKind::TreeEditTask => "TreeEditTask",
            MessageKind::EditChunk => "EditChunk",
            MessageKind::EditScores => "EditScores",
            MessageKind::Ping => "Ping",
            MessageKind::WalRound => "WalRound",
            MessageKind::JumbleResume => "JumbleResume",
            MessageKind::Shutdown => "Shutdown",
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Message {
    /// The payload-free kind of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::ProblemData { .. } => MessageKind::ProblemData,
            Message::WorkerReady => MessageKind::WorkerReady,
            Message::TreeTask { .. } => MessageKind::TreeTask,
            Message::TreeResult { .. } => MessageKind::TreeResult,
            Message::JumbleResult { .. } => MessageKind::JumbleResult,
            Message::Monitor(_) => MessageKind::Monitor,
            Message::PeerDown { .. } => MessageKind::PeerDown,
            Message::PeerUp { .. } => MessageKind::PeerUp,
            Message::Quarantined { .. } => MessageKind::Quarantined,
            Message::Abort { .. } => MessageKind::Abort,
            Message::JobData { .. } => MessageKind::JobData,
            Message::JobTask { .. } => MessageKind::JobTask,
            Message::JobTaskResult { .. } => MessageKind::JobTaskResult,
            Message::JobRetire { .. } => MessageKind::JobRetire,
            Message::BaseTopology { .. } => MessageKind::BaseTopology,
            Message::TreeEditTask { .. } => MessageKind::TreeEditTask,
            Message::EditChunk { .. } => MessageKind::EditChunk,
            Message::EditScores { .. } => MessageKind::EditScores,
            Message::Ping => MessageKind::Ping,
            Message::WalRound { .. } => MessageKind::WalRound,
            Message::JumbleResume { .. } => MessageKind::JumbleResume,
            Message::Shutdown => MessageKind::Shutdown,
        }
    }

    /// Whether this is a worker's answer to a task — a whole-tree result,
    /// a jumble result or a chunk's scores. The fault injectors count and
    /// attack exactly these.
    pub fn is_result(&self) -> bool {
        matches!(
            self,
            Message::TreeResult { .. } | Message::JumbleResult { .. } | Message::EditScores { .. }
        )
    }

    /// Approximate on-the-wire size in bytes (used by the simulator's
    /// communication cost model).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Message::ProblemData {
                phylip,
                config_json,
            } => phylip.len() + config_json.len() + 16,
            Message::WorkerReady => 16,
            Message::TreeTask { newick, .. } => newick.len() + 24,
            Message::TreeResult { newick, .. } => newick.len() + 40,
            Message::JumbleResult { newick, .. } => newick.len() + 72,
            Message::Monitor(_) => 64,
            Message::PeerDown { .. } | Message::PeerUp { .. } => 24,
            Message::Quarantined { payload, .. } => {
                32 + match payload {
                    TaskPayload::Tree { newick } => newick.len() + 8,
                    TaskPayload::Jumble { .. } => 16,
                    TaskPayload::TreeEdit { edits, .. } => 16 + 16 * edits.len(),
                }
            }
            Message::Abort { reason } => reason.len() + 16,
            Message::JobData {
                phylip,
                config_json,
                ..
            } => phylip.len() + config_json.len() + 24,
            Message::JobTask { .. } => 40,
            Message::JobTaskResult { newick, .. } => newick.len() + 72,
            Message::JobRetire { .. } => 24,
            Message::BaseTopology { newick, .. } => newick.len() + 24,
            Message::TreeEditTask { base_newick, .. } => {
                48 + base_newick.as_ref().map_or(0, |n| n.len())
            }
            Message::EditChunk {
                edits, base_newick, ..
            } => 32 + 16 * edits.len() + base_newick.as_ref().map_or(0, |n| n.len()),
            Message::EditScores { scores, .. } => 24 + 16 * scores.len(),
            Message::Ping => 16,
            Message::WalRound { entry, .. } => entry.len() + 40,
            Message::JumbleResume { wal, .. } => {
                40 + wal.iter().map(|e| e.len() + 8).sum::<usize>()
            }
            Message::Shutdown => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip() {
        let msgs = vec![
            Message::ProblemData {
                phylip: "2 4\na ACGT\nb ACGA\n".into(),
                config_json: "{}".into(),
            },
            Message::WorkerReady,
            Message::TreeTask {
                task: 7,
                newick: "(a:1,b:2);".into(),
            },
            Message::TreeResult {
                task: 7,
                newick: "(a:1.1,b:1.9);".into(),
                ln_likelihood: -123.45,
                work_units: 999,
            },
            Message::JumbleResult {
                job: 0,
                task: 8,
                seed: 11,
                newick: "(a:1,b:2);".into(),
                ln_likelihood: -99.5,
                rounds: 4,
                candidates: 17,
                work_units: 1234,
            },
            Message::Monitor(MonitorEvent::RoundComplete {
                round: 3,
                candidates: 11,
                best_ln_likelihood: -100.0,
                best_newick: "(a,b);".into(),
            }),
            Message::PeerDown { rank: 4 },
            Message::PeerUp { rank: 4 },
            Message::Quarantined {
                task: 9,
                failures: 3,
                payload: TaskPayload::Tree {
                    newick: "(a:1,b:2);".into(),
                },
            },
            Message::Quarantined {
                task: 10,
                failures: 3,
                payload: TaskPayload::Jumble { seed: 17 },
            },
            Message::Abort {
                reason: "all workers dead".into(),
            },
            Message::JobData {
                job: 2,
                phylip: "2 4\na ACGT\nb ACGA\n".into(),
                config_json: "{}".into(),
            },
            Message::JobTask {
                job: 2,
                task: 40,
                seed: 11,
            },
            Message::JobTaskResult {
                job: 2,
                task: 40,
                seed: 11,
                newick: "(a:1,b:2);".into(),
                ln_likelihood: -99.5,
                work_units: 1234,
            },
            Message::JobRetire { job: 2 },
            Message::BaseTopology {
                base_id: 5,
                newick: "(a:1,b:2);".into(),
            },
            Message::TreeEditTask {
                task: 41,
                base_id: 5,
                edit: TreeEdit::Insert {
                    taxon: 4,
                    a: 1,
                    b: 2,
                },
                base_newick: None,
            },
            Message::TreeEditTask {
                task: 42,
                base_id: 5,
                edit: TreeEdit::Regraft {
                    root: 6,
                    attachment: 7,
                    a: 1,
                    b: 2,
                },
                base_newick: Some("(a:1,b:2);".into()),
            },
            Message::EditChunk {
                task: 44,
                base_id: 5,
                edits: vec![
                    TreeEdit::Insert {
                        taxon: 4,
                        a: 1,
                        b: 2,
                    },
                    TreeEdit::Regraft {
                        root: 6,
                        attachment: 7,
                        a: 1,
                        b: 2,
                    },
                ],
                base_newick: Some("(a:1,b:2);".into()),
            },
            Message::EditScores {
                task: 44,
                scores: vec![
                    EditScore {
                        ln_likelihood: -12.5,
                        work_units: 7,
                    },
                    EditScore {
                        ln_likelihood: -13.25,
                        work_units: 9,
                    },
                ],
            },
            Message::Quarantined {
                task: 43,
                failures: 3,
                payload: TaskPayload::TreeEdit {
                    base_id: 5,
                    edits: vec![TreeEdit::Insert {
                        taxon: 4,
                        a: 1,
                        b: 2,
                    }],
                },
            },
            Message::Ping,
            Message::WalRound {
                job: 0,
                seed: 11,
                index: 2,
                entry: r#"{"Round":{"index":2}}"#.into(),
            },
            Message::JumbleResume {
                job: 3,
                task: 60,
                seed: 11,
                numerics: 1,
                wal: vec![r#"{"Round":{"index":0}}"#.into()],
            },
            Message::Shutdown,
        ];
        for m in msgs {
            let json = serde_json::to_string(&m).unwrap();
            let back: Message = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Message::WorkerReady.kind(), MessageKind::WorkerReady);
        assert_eq!(Message::WorkerReady.kind().name(), "WorkerReady");
        assert_eq!(Message::Shutdown.kind().name(), "Shutdown");
        assert_eq!(MessageKind::TreeResult.to_string(), "TreeResult");
        assert_eq!(Message::PeerDown { rank: 3 }.kind().name(), "PeerDown");
        assert_eq!(Message::PeerUp { rank: 3 }.kind().name(), "PeerUp");
        assert_eq!(MessageKind::Quarantined.name(), "Quarantined");
        assert_eq!(MessageKind::Abort.name(), "Abort");
        assert_eq!(MessageKind::BaseTopology.name(), "BaseTopology");
        assert_eq!(MessageKind::TreeEditTask.name(), "TreeEditTask");
        assert_eq!(MessageKind::EditChunk.name(), "EditChunk");
        assert_eq!(MessageKind::EditScores.name(), "EditScores");
    }

    #[test]
    fn completed_event_defaults_service_us() {
        // Logs written before `service_us` existed still parse.
        let json = r#"{"Completed":{"task":1,"worker":3,"ln_likelihood":-10.5,"work_units":42}}"#;
        let ev: MonitorEvent = serde_json::from_str(json).unwrap();
        assert_eq!(
            ev,
            MonitorEvent::Completed {
                task: 1,
                worker: 3,
                ln_likelihood: -10.5,
                work_units: 42,
                service_us: 0,
            }
        );
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = Message::TreeTask {
            task: 1,
            newick: "(a,b);".into(),
        };
        let big = Message::TreeTask {
            task: 1,
            newick: "(a,b);".repeat(100),
        };
        assert!(big.wire_bytes() > small.wire_bytes());
    }
}
