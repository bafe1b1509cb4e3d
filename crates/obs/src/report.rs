//! The end-of-run summary assembled from an event stream.

use crate::event::{Event, Record};
use crate::registry::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One worker's share of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerUsage {
    /// The worker's rank.
    pub worker: usize,
    /// Tasks the foreman accepted from it.
    pub tasks: u64,
    /// Microseconds it spent inside likelihood evaluation.
    pub busy_us: u64,
    /// Work units it reported.
    pub work_units: u64,
    /// Raw per-pattern kernel operations it reported (unweighted, unlike
    /// `work_units`). Comparable across kernel modes and between the real
    /// runtime and the simulator.
    pub pattern_updates: u64,
    /// `pattern_updates` per second of busy time — the kernel throughput
    /// gauge the benchmark suite tracks.
    pub patterns_per_sec: f64,
    /// `busy_us` over the observed span — the paper's per-worker
    /// utilization.
    pub utilization: f64,
    /// Directional CLVs served from this worker's cache by incremental
    /// edit tasks (zero when incremental evaluation was off).
    #[serde(default)]
    pub clv_cache_hits: u64,
    /// Dirty-path CLVs this worker recomputed for incremental edits.
    #[serde(default)]
    pub clv_edges_recomputed: u64,
    /// Edit tasks this worker could only score via an embedded base from a
    /// self-contained dispatch (the fallback ladder fired).
    #[serde(default)]
    pub incremental_fallbacks: u64,
}

/// Message traffic for one message kind.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KindTraffic {
    /// Messages sent.
    pub sent_msgs: u64,
    /// Bytes sent (approximate wire size).
    pub sent_bytes: u64,
    /// Messages received.
    pub recv_msgs: u64,
    /// Bytes received (approximate wire size).
    pub recv_bytes: u64,
}

/// One network peer's connection history over a run (populated only when
/// the run used the `fdml-net` TCP transport or a simulated equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetPeerStats {
    /// The peer's rank.
    pub rank: usize,
    /// Successful handshakes (first connect plus any rejoins counted as
    /// connects by the emitting side).
    pub connects: u64,
    /// Connections lost or closed.
    pub disconnects: u64,
    /// Heartbeat intervals that elapsed without traffic from the peer.
    pub heartbeat_misses: u64,
    /// Times the peer reconnected after a lost link (the per-rank
    /// reconnect count the failure model is judged by).
    pub reconnects: u64,
}

/// Aggregate counters of the simulated two-level foreman tree
/// (`fdml-simsp`'s hierarchical replay; all zero for a run of the
/// runtime): leasing and wire-batching activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Lease batches the root granted to regional foremen.
    pub leases_granted: u64,
    /// Tasks inside those grants.
    pub tasks_leased: u64,
    /// Multi-message frames sent between scheduling tiers.
    pub batches_sent: u64,
    /// Messages carried inside those frames.
    pub batched_msgs: u64,
    /// Approximate wire bytes of those frames.
    pub batched_bytes: u64,
    /// Deepest regional work queue observed.
    pub max_region_depth: usize,
    /// Distinct regions that reported queue depth.
    pub regions_seen: usize,
}

/// One finished jumble of a farm run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JumbleOutcome {
    /// The adjusted jumble seed.
    pub seed: u64,
    /// The jumble's final log-likelihood.
    pub ln_likelihood: f64,
    /// True when the result was replayed from a resumed manifest.
    pub reused: bool,
}

/// One dispatch round's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Round ordinal.
    pub round: u64,
    /// Candidates evaluated.
    pub candidates: usize,
    /// Best log-likelihood of the round.
    pub best_ln_likelihood: f64,
    /// When the round closed (µs since observation start).
    pub t_us: u64,
}

/// The end-of-run report: the numbers the paper's evaluation is written in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Total ranks, if a `RunStarted` event was seen.
    pub ranks: Option<usize>,
    /// Observed span in microseconds (first to last record).
    pub span_us: u64,
    /// Per-worker usage, sorted by rank.
    pub workers: Vec<WorkerUsage>,
    /// Tasks dispatched by the foreman.
    pub dispatched: u64,
    /// Tasks completed (accepted results).
    pub completed: u64,
    /// Timeouts declared.
    pub timeouts: u64,
    /// Delinquent workers re-admitted.
    pub recoveries: u64,
    /// `(t_us, work, ready)` queue-depth samples in event order.
    pub queue_depth: Vec<(u64, usize, usize)>,
    /// Deepest work queue observed.
    pub max_work_depth: usize,
    /// Per-message-kind traffic, keyed by kind name.
    pub traffic: BTreeMap<String, KindTraffic>,
    /// Distribution of foreman-observed task service times (µs).
    pub service_us: Histogram,
    /// Per-round candidate counts and lnL trajectory.
    pub rounds: Vec<RoundSummary>,
    /// Per-rank network connection history, sorted by rank. Empty for
    /// in-process (threads transport) runs.
    pub net_peers: Vec<NetPeerStats>,
    /// Finished jumbles of a farm run, in completion order. Empty for
    /// single-search runs.
    #[serde(default)]
    pub jumbles: Vec<JumbleOutcome>,
    /// Jumbles the farm dispatched (counting `JumbleStarted` events; a
    /// reused manifest entry completes without starting).
    #[serde(default)]
    pub jumbles_started: u64,
    /// Dead workers the supervisor respawned (`WorkerRespawned` events).
    #[serde(default)]
    pub respawns: u64,
    /// Frames discarded for CRC mismatch or chaos-injected corruption
    /// (`FrameCorrupt` events).
    #[serde(default)]
    pub corrupt_frames: u64,
    /// Tasks pulled from the queue after exhausting their failure budget
    /// and evaluated locally on the master (`TaskQuarantined` events).
    #[serde(default)]
    pub quarantined: u64,
    /// Foreman-tree activity: leasing, stealing, batching (all zero for
    /// flat runs).
    #[serde(default)]
    pub hierarchy: HierarchyStats,
    /// Active SIMD instruction set (`KernelDispatch` event), empty when
    /// the run predates kernel-dispatch observability.
    #[serde(default)]
    pub kernel_isa: String,
    /// Committed rounds appended to write-ahead logs (`WalAppend`).
    #[serde(default)]
    pub wal_appends: u64,
    /// Total framed WAL bytes written (`WalAppend`).
    #[serde(default)]
    pub wal_bytes: u64,
    /// Rounds replayed from write-ahead logs on resume (`WalReplay`).
    #[serde(default)]
    pub wal_replayed_rounds: u64,
    /// Damaged durable files recovered by truncate-to-valid
    /// (`DurableRecovered`).
    #[serde(default)]
    pub durable_recoveries: u64,
    /// Final log-likelihood, if a `RunFinished` event was seen.
    pub final_ln_likelihood: Option<f64>,
}

impl RunReport {
    /// Builds the report from an event stream (any order-preserving sink's
    /// contents; records need not be sorted by time).
    pub fn from_events(records: &[Record]) -> RunReport {
        let mut ranks = None;
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        let mut dispatched = 0u64;
        let mut completed = 0u64;
        let mut timeouts = 0u64;
        let mut recoveries = 0u64;
        let mut queue_depth = Vec::new();
        let mut max_work_depth = 0usize;
        let mut traffic: BTreeMap<String, KindTraffic> = BTreeMap::new();
        let mut service_us = Histogram::new();
        let mut rounds = Vec::new();
        let mut jumbles = Vec::new();
        let mut jumbles_started = 0u64;
        let mut respawns = 0u64;
        let mut corrupt_frames = 0u64;
        let mut quarantined = 0u64;
        let mut hierarchy = HierarchyStats::default();
        let mut regions_seen: std::collections::BTreeSet<usize> = Default::default();
        let mut kernel_isa = String::new();
        let mut wal_appends = 0u64;
        let mut wal_bytes = 0u64;
        let mut wal_replayed_rounds = 0u64;
        let mut durable_recoveries = 0u64;
        let mut final_ln_likelihood = None;
        // worker → (tasks, busy_us, work_units, pattern_updates,
        //           clv_cache_hits, clv_edges_recomputed, fallbacks)
        type WorkerTotals = (u64, u64, u64, u64, u64, u64, u64);
        let mut per_worker: BTreeMap<usize, WorkerTotals> = BTreeMap::new();
        let mut net: BTreeMap<usize, NetPeerStats> = BTreeMap::new();

        for record in records {
            t_min = t_min.min(record.t_us);
            t_max = t_max.max(record.t_us);
            match &record.event {
                Event::RunStarted { ranks: n, .. } => ranks = Some(*n),
                Event::MessageSent { kind, bytes, .. } => {
                    let entry = traffic.entry(kind.clone()).or_default();
                    entry.sent_msgs += 1;
                    entry.sent_bytes += bytes;
                }
                Event::MessageReceived { kind, bytes, .. } => {
                    let entry = traffic.entry(kind.clone()).or_default();
                    entry.recv_msgs += 1;
                    entry.recv_bytes += bytes;
                }
                Event::QueueDepth { work, ready, .. } => {
                    queue_depth.push((record.t_us, *work, *ready));
                    max_work_depth = max_work_depth.max(*work);
                }
                Event::TaskDispatched { .. } => dispatched += 1,
                Event::TaskCompleted {
                    worker,
                    service_us: s,
                    ..
                } => {
                    completed += 1;
                    service_us.observe(*s);
                    per_worker.entry(*worker).or_default().0 += 1;
                }
                Event::TaskTimedOut { .. } => timeouts += 1,
                Event::WorkerRecovered { .. } => recoveries += 1,
                Event::WorkerTaskDone {
                    worker,
                    busy_us,
                    work_units,
                    pattern_updates,
                    ..
                } => {
                    let entry = per_worker.entry(*worker).or_default();
                    entry.1 += busy_us;
                    entry.2 += work_units;
                    entry.3 += pattern_updates;
                }
                Event::IncrementalEdit {
                    worker,
                    cache_hits,
                    edges_recomputed,
                    fallbacks,
                } => {
                    let entry = per_worker.entry(*worker).or_default();
                    entry.4 += cache_hits;
                    entry.5 += edges_recomputed;
                    entry.6 += fallbacks;
                }
                Event::RoundCompleted {
                    round,
                    candidates,
                    best_ln_likelihood,
                } => rounds.push(RoundSummary {
                    round: *round,
                    candidates: *candidates,
                    best_ln_likelihood: *best_ln_likelihood,
                    t_us: record.t_us,
                }),
                Event::RunFinished { ln_likelihood } => final_ln_likelihood = Some(*ln_likelihood),
                Event::NetPeerConnected { rank } => {
                    let e = net.entry(*rank).or_default();
                    e.rank = *rank;
                    e.connects += 1;
                }
                Event::NetPeerDisconnected { rank, .. } => {
                    let e = net.entry(*rank).or_default();
                    e.rank = *rank;
                    e.disconnects += 1;
                }
                Event::NetHeartbeatMiss { rank, .. } => {
                    let e = net.entry(*rank).or_default();
                    e.rank = *rank;
                    e.heartbeat_misses += 1;
                }
                Event::NetPeerReconnected { rank, reconnects } => {
                    let e = net.entry(*rank).or_default();
                    e.rank = *rank;
                    e.reconnects = (*reconnects).max(e.reconnects + 1);
                }
                Event::JumbleStarted { .. } => jumbles_started += 1,
                Event::JumbleCompleted {
                    seed,
                    ln_likelihood,
                    reused,
                } => jumbles.push(JumbleOutcome {
                    seed: *seed,
                    ln_likelihood: *ln_likelihood,
                    reused: *reused,
                }),
                // Farm progress is a gauge stream; the report keeps the
                // completion list instead of every sample.
                Event::FarmProgress { .. } => {}
                Event::WorkerRespawned { .. } => respawns += 1,
                Event::FrameCorrupt { .. } => corrupt_frames += 1,
                Event::TaskQuarantined { .. } => quarantined += 1,
                Event::RegionQueueDepth { region, work, .. } => {
                    regions_seen.insert(*region);
                    hierarchy.max_region_depth = hierarchy.max_region_depth.max(*work);
                }
                Event::LeaseGranted { tasks, .. } => {
                    hierarchy.leases_granted += 1;
                    hierarchy.tasks_leased += *tasks as u64;
                }
                Event::BatchSent { msgs, bytes, .. } => {
                    hierarchy.batches_sent += 1;
                    hierarchy.batched_msgs += *msgs as u64;
                    hierarchy.batched_bytes += bytes;
                }
                // Job lifecycle events belong to the daemon's per-job
                // ledger, not the per-run report.
                Event::JobSubmitted { .. }
                | Event::JobStarted { .. }
                | Event::JobCompleted { .. }
                | Event::JobFailed { .. } => {}
                Event::KernelDispatch { isa } => kernel_isa = isa.clone(),
                Event::WalAppend { bytes, .. } => {
                    wal_appends += 1;
                    wal_bytes += bytes;
                }
                Event::WalReplay { rounds: r, .. } => wal_replayed_rounds += r,
                Event::DurableRecovered { .. } => durable_recoveries += 1,
            }
        }

        let span_us = if t_min == u64::MAX {
            0
        } else {
            (t_max - t_min).max(1)
        };
        let workers = per_worker
            .into_iter()
            .map(
                |(
                    worker,
                    (tasks, busy_us, work_units, pattern_updates, hits, recomputed, fallbacks),
                )| {
                    WorkerUsage {
                        worker,
                        tasks,
                        busy_us,
                        work_units,
                        pattern_updates,
                        patterns_per_sec: if busy_us > 0 {
                            pattern_updates as f64 * 1e6 / busy_us as f64
                        } else {
                            0.0
                        },
                        utilization: busy_us as f64 / span_us as f64,
                        clv_cache_hits: hits,
                        clv_edges_recomputed: recomputed,
                        incremental_fallbacks: fallbacks,
                    }
                },
            )
            .collect();

        RunReport {
            ranks,
            span_us,
            workers,
            dispatched,
            completed,
            timeouts,
            recoveries,
            queue_depth,
            max_work_depth,
            traffic,
            service_us,
            rounds,
            net_peers: net.into_values().collect(),
            jumbles,
            jumbles_started,
            respawns,
            corrupt_frames,
            quarantined,
            hierarchy: HierarchyStats {
                regions_seen: regions_seen.len(),
                ..hierarchy
            },
            kernel_isa,
            wal_appends,
            wal_bytes,
            wal_replayed_rounds,
            durable_recoveries,
            final_ln_likelihood,
        }
    }

    /// Mean worker utilization (0 when no workers were observed).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.utilization).sum::<f64>() / self.workers.len() as f64
    }

    /// The per-round best-lnL trajectory, in round order.
    pub fn lnl_trajectory(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.best_ln_likelihood).collect()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run report")?;
        writeln!(f, "  span: {:.3} s", self.span_us as f64 / 1e6)?;
        if let Some(n) = self.ranks {
            writeln!(f, "  ranks: {n}")?;
        }
        if !self.kernel_isa.is_empty() {
            writeln!(f, "  kernels: {} isa", self.kernel_isa)?;
        }
        writeln!(
            f,
            "  tasks: {} dispatched, {} completed, {} timeouts, {} recoveries",
            self.dispatched, self.completed, self.timeouts, self.recoveries
        )?;
        writeln!(f, "  max work-queue depth: {}", self.max_work_depth)?;
        if self.respawns + self.corrupt_frames + self.quarantined > 0 {
            writeln!(
                f,
                "  faults: {} respawns, {} corrupt frames, {} quarantined tasks",
                self.respawns, self.corrupt_frames, self.quarantined
            )?;
        }
        if self.hierarchy.leases_granted > 0 {
            let h = &self.hierarchy;
            writeln!(
                f,
                "  hierarchy: {} regions, {} leases / {} tasks granted, {} batches ({} msgs, {} B)",
                h.regions_seen,
                h.leases_granted,
                h.tasks_leased,
                h.batches_sent,
                h.batched_msgs,
                h.batched_bytes
            )?;
        }
        if self.service_us.count > 0 {
            writeln!(
                f,
                "  service time: mean {:.1} µs, p50 ≤ {} µs, p95 ≤ {} µs, max {} µs",
                self.service_us.mean(),
                self.service_us.quantile(0.5),
                self.service_us.quantile(0.95),
                self.service_us.max
            )?;
        }
        if !self.workers.is_empty() {
            writeln!(
                f,
                "  workers ({}), mean utilization {:.1}%:",
                self.workers.len(),
                100.0 * self.mean_utilization()
            )?;
            for w in &self.workers {
                writeln!(
                    f,
                    "    rank {:>3}: {:>5} tasks, {:>8} work units, busy {:.3} s ({:.1}%), {:.0} patterns/s",
                    w.worker,
                    w.tasks,
                    w.work_units,
                    w.busy_us as f64 / 1e6,
                    100.0 * w.utilization,
                    w.patterns_per_sec
                )?;
                if w.clv_cache_hits + w.clv_edges_recomputed + w.incremental_fallbacks > 0 {
                    writeln!(
                        f,
                        "             incremental: {} CLV cache hits, {} edges recomputed, {} fallbacks",
                        w.clv_cache_hits, w.clv_edges_recomputed, w.incremental_fallbacks
                    )?;
                }
            }
        }
        if !self.traffic.is_empty() {
            writeln!(f, "  traffic by kind:")?;
            for (kind, t) in &self.traffic {
                writeln!(
                    f,
                    "    {kind:<12} sent {:>6} msgs / {:>9} B, received {:>6} msgs / {:>9} B",
                    t.sent_msgs, t.sent_bytes, t.recv_msgs, t.recv_bytes
                )?;
            }
        }
        if !self.net_peers.is_empty() {
            writeln!(f, "  network peers:")?;
            for p in &self.net_peers {
                writeln!(
                    f,
                    "    rank {:>3}: {} connects, {} disconnects, {} heartbeat misses, {} reconnects",
                    p.rank, p.connects, p.disconnects, p.heartbeat_misses, p.reconnects
                )?;
            }
        }
        if !self.rounds.is_empty() {
            writeln!(f, "  rounds ({}):", self.rounds.len())?;
            for r in &self.rounds {
                writeln!(
                    f,
                    "    round {:>3}: {:>4} candidates, best lnL {:.4}",
                    r.round, r.candidates, r.best_ln_likelihood
                )?;
            }
        }
        if !self.jumbles.is_empty() {
            writeln!(
                f,
                "  jumbles ({} completed, {} dispatched):",
                self.jumbles.len(),
                self.jumbles_started
            )?;
            for j in &self.jumbles {
                writeln!(
                    f,
                    "    seed {:>6}: lnL {:.4}{}",
                    j.seed,
                    j.ln_likelihood,
                    if j.reused { " (resumed)" } else { "" }
                )?;
            }
        }
        if let Some(lnl) = self.final_ln_likelihood {
            writeln!(f, "  final lnL: {lnl:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_us: u64, event: Event) -> Record {
        Record { t_us, event }
    }

    #[test]
    fn aggregates_a_small_run() {
        let records = vec![
            rec(
                0,
                Event::RunStarted {
                    ranks: 5,
                    workers: 2,
                },
            ),
            rec(
                1,
                Event::QueueDepth {
                    work: 3,
                    ready: 2,
                    in_flight: 0,
                },
            ),
            rec(2, Event::TaskDispatched { task: 0, worker: 3 }),
            rec(2, Event::TaskDispatched { task: 1, worker: 4 }),
            rec(
                3,
                Event::QueueDepth {
                    work: 1,
                    ready: 0,
                    in_flight: 2,
                },
            ),
            rec(
                500_000,
                Event::WorkerTaskDone {
                    worker: 3,
                    task: 0,
                    busy_us: 400_000,
                    work_units: 100,
                    pattern_updates: 200_000,
                },
            ),
            rec(
                500_010,
                Event::TaskCompleted {
                    task: 0,
                    worker: 3,
                    service_us: 499_000,
                    work_units: 100,
                    ln_likelihood: -50.0,
                },
            ),
            rec(600_000, Event::TaskTimedOut { task: 1, worker: 4 }),
            rec(700_000, Event::WorkerRecovered { worker: 4 }),
            rec(
                800_000,
                Event::WorkerTaskDone {
                    worker: 4,
                    task: 1,
                    busy_us: 200_000,
                    work_units: 60,
                    pattern_updates: 80_000,
                },
            ),
            rec(
                800_010,
                Event::TaskCompleted {
                    task: 1,
                    worker: 4,
                    service_us: 798_000,
                    work_units: 60,
                    ln_likelihood: -48.5,
                },
            ),
            rec(
                900_000,
                Event::RoundCompleted {
                    round: 1,
                    candidates: 2,
                    best_ln_likelihood: -48.5,
                },
            ),
            rec(
                1_000_000,
                Event::RunFinished {
                    ln_likelihood: -48.5,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        assert_eq!(report.ranks, Some(5));
        assert_eq!(report.span_us, 1_000_000);
        assert_eq!(report.dispatched, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.max_work_depth, 3);
        assert_eq!(report.queue_depth.len(), 2);
        assert_eq!(report.workers.len(), 2);
        let w3 = &report.workers[0];
        assert_eq!(w3.worker, 3);
        assert_eq!(w3.tasks, 1);
        assert!((w3.utilization - 0.4).abs() < 1e-9);
        assert_eq!(w3.pattern_updates, 200_000);
        // 200k pattern updates in 0.4 s of busy time → 500k patterns/s.
        assert!((w3.patterns_per_sec - 500_000.0).abs() < 1e-6);
        assert_eq!(report.service_us.count, 2);
        assert_eq!(report.lnl_trajectory(), vec![-48.5]);
        assert_eq!(report.final_ln_likelihood, Some(-48.5));
        // The Display form mentions the headline numbers.
        let text = report.to_string();
        assert!(text.contains("2 dispatched"));
        assert!(text.contains("1 timeouts"));
    }

    #[test]
    fn traffic_accumulates_per_kind() {
        let records = vec![
            rec(
                0,
                Event::MessageSent {
                    from: 1,
                    to: 3,
                    kind: "TreeTask".into(),
                    bytes: 100,
                },
            ),
            rec(
                1,
                Event::MessageSent {
                    from: 1,
                    to: 4,
                    kind: "TreeTask".into(),
                    bytes: 150,
                },
            ),
            rec(
                2,
                Event::MessageReceived {
                    at: 3,
                    from: 1,
                    kind: "TreeTask".into(),
                    bytes: 100,
                },
            ),
            rec(
                3,
                Event::MessageSent {
                    from: 3,
                    to: 1,
                    kind: "TreeResult".into(),
                    bytes: 220,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        let task = &report.traffic["TreeTask"];
        assert_eq!(task.sent_msgs, 2);
        assert_eq!(task.sent_bytes, 250);
        assert_eq!(task.recv_msgs, 1);
        let result = &report.traffic["TreeResult"];
        assert_eq!(result.sent_msgs, 1);
        assert_eq!(result.sent_bytes, 220);
    }

    #[test]
    fn net_events_aggregate_per_rank() {
        let records = vec![
            rec(0, Event::NetPeerConnected { rank: 3 }),
            rec(1, Event::NetPeerConnected { rank: 4 }),
            rec(50, Event::NetHeartbeatMiss { rank: 3, misses: 1 }),
            rec(60, Event::NetHeartbeatMiss { rank: 3, misses: 2 }),
            rec(
                70,
                Event::NetPeerDisconnected {
                    rank: 3,
                    graceful: false,
                },
            ),
            rec(
                90,
                Event::NetPeerReconnected {
                    rank: 3,
                    reconnects: 1,
                },
            ),
            rec(
                100,
                Event::NetPeerDisconnected {
                    rank: 4,
                    graceful: true,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        assert_eq!(report.net_peers.len(), 2);
        let p3 = &report.net_peers[0];
        assert_eq!(
            (
                p3.rank,
                p3.connects,
                p3.disconnects,
                p3.heartbeat_misses,
                p3.reconnects
            ),
            (3, 1, 1, 2, 1)
        );
        let p4 = &report.net_peers[1];
        assert_eq!((p4.rank, p4.connects, p4.disconnects), (4, 1, 1));
        let text = report.to_string();
        assert!(text.contains("network peers"));
        assert!(text.contains("2 heartbeat misses"));
        // Net events round-trip through the serialized report.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.net_peers, report.net_peers);
    }

    #[test]
    fn farm_events_aggregate_into_jumble_list() {
        let records = vec![
            rec(0, Event::JumbleStarted { seed: 3 }),
            rec(1, Event::JumbleStarted { seed: 5 }),
            rec(
                2,
                Event::FarmProgress {
                    completed: 0,
                    in_flight: 2,
                    pending: 1,
                    total: 3,
                },
            ),
            rec(
                10,
                Event::JumbleCompleted {
                    seed: 5,
                    ln_likelihood: -42.5,
                    reused: false,
                },
            ),
            rec(
                11,
                Event::JumbleCompleted {
                    seed: 1,
                    ln_likelihood: -43.0,
                    reused: true,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        assert_eq!(report.jumbles_started, 2);
        assert_eq!(report.jumbles.len(), 2);
        assert_eq!(report.jumbles[0].seed, 5);
        assert!(report.jumbles[1].reused);
        let text = report.to_string();
        assert!(text.contains("jumbles (2 completed, 2 dispatched)"));
        assert!(text.contains("(resumed)"));
        // Round-trips, and a report serialized before the farm fields
        // existed still parses.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn robustness_events_aggregate_into_fault_counters() {
        let records = vec![
            rec(
                0,
                Event::WorkerRespawned {
                    worker: 3,
                    restarts: 1,
                },
            ),
            rec(
                1,
                Event::WorkerRespawned {
                    worker: 3,
                    restarts: 2,
                },
            ),
            rec(2, Event::FrameCorrupt { rank: 4 }),
            rec(
                3,
                Event::TaskQuarantined {
                    task: 17,
                    failures: 3,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        assert_eq!(report.respawns, 2);
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(report.quarantined, 1);
        let text = report.to_string();
        assert!(text.contains("2 respawns"));
        assert!(text.contains("1 corrupt frames"));
        assert!(text.contains("1 quarantined tasks"));
        // A report serialized before the fault counters existed parses.
        let json = serde_json::to_string(&RunReport::from_events(&[])).unwrap();
        let stripped = json
            .replace("\"respawns\":0,", "")
            .replace("\"corrupt_frames\":0,", "")
            .replace("\"quarantined\":0,", "");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.respawns, 0);
    }

    #[test]
    fn incremental_counters_aggregate_per_worker() {
        let records = vec![
            rec(
                0,
                Event::IncrementalEdit {
                    worker: 3,
                    cache_hits: 3,
                    edges_recomputed: 0,
                    fallbacks: 0,
                },
            ),
            rec(
                1,
                Event::IncrementalEdit {
                    worker: 3,
                    cache_hits: 2,
                    edges_recomputed: 4,
                    fallbacks: 1,
                },
            ),
            rec(
                2,
                Event::IncrementalEdit {
                    worker: 4,
                    cache_hits: 3,
                    edges_recomputed: 0,
                    fallbacks: 0,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        assert_eq!(report.workers.len(), 2);
        let w3 = &report.workers[0];
        assert_eq!(w3.clv_cache_hits, 5);
        assert_eq!(w3.clv_edges_recomputed, 4);
        assert_eq!(w3.incremental_fallbacks, 1);
        let text = report.to_string();
        assert!(text.contains("5 CLV cache hits"), "got: {text}");
        assert!(text.contains("1 fallbacks"), "got: {text}");
        // A report serialized before the incremental counters existed
        // still parses (serde defaults).
        let json = serde_json::to_string(&report).unwrap();
        let stripped = json
            .replace("\"clv_cache_hits\":5,", "")
            .replace("\"clv_edges_recomputed\":4,", "")
            .replace("\"incremental_fallbacks\":1,", "");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.workers[0].clv_cache_hits, 0);
        assert_eq!(back.workers[1].clv_cache_hits, 3);
    }

    #[test]
    fn hierarchy_events_aggregate_into_tree_counters() {
        let records = vec![
            rec(
                0,
                Event::LeaseGranted {
                    region: 0,
                    tasks: 8,
                },
            ),
            rec(
                1,
                Event::LeaseGranted {
                    region: 1,
                    tasks: 4,
                },
            ),
            rec(
                2,
                Event::RegionQueueDepth {
                    region: 0,
                    work: 6,
                    ready: 2,
                    in_flight: 2,
                },
            ),
            rec(
                3,
                Event::RegionQueueDepth {
                    region: 1,
                    work: 3,
                    ready: 1,
                    in_flight: 1,
                },
            ),
            rec(
                5,
                Event::BatchSent {
                    from: 3,
                    msgs: 5,
                    bytes: 420,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        let h = &report.hierarchy;
        assert_eq!(h.leases_granted, 2);
        assert_eq!(h.tasks_leased, 12);
        assert_eq!(h.batches_sent, 1);
        assert_eq!(h.batched_msgs, 5);
        assert_eq!(h.batched_bytes, 420);
        assert_eq!(h.max_region_depth, 6);
        assert_eq!(h.regions_seen, 2);
        let text = report.to_string();
        assert!(text.contains("2 leases / 12 tasks granted"), "got: {text}");
        // A report serialized before the hierarchy block existed parses.
        // The block is a flat object, so the first `}` after the key (plus
        // the trailing comma) bounds exactly what has to go.
        let json = serde_json::to_string(&report).unwrap();
        let start = json.find("\"hierarchy\":").unwrap();
        let end = json[start..].find('}').unwrap() + start;
        let stripped = format!("{}{}", &json[..start], &json[end + 2..]);
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.hierarchy, HierarchyStats::default());
    }

    #[test]
    fn empty_stream_is_a_zero_report() {
        let report = RunReport::from_events(&[]);
        assert_eq!(report.span_us, 0);
        assert!(report.workers.is_empty());
        assert_eq!(report.mean_utilization(), 0.0);
        assert_eq!(report.final_ln_likelihood, None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let records = vec![
            rec(
                0,
                Event::RunStarted {
                    ranks: 4,
                    workers: 1,
                },
            ),
            rec(
                10,
                Event::TaskCompleted {
                    task: 0,
                    worker: 3,
                    service_us: 9,
                    work_units: 5,
                    ln_likelihood: -1.0,
                },
            ),
        ];
        let report = RunReport::from_events(&records);
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
