//! Replaying a search trace on a simulated cluster.

use crate::cost::CostModel;
use fdml_core::trace::SearchTrace;
use fdml_core::worker::ranks;
use fdml_obs::{Event, Obs};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total processors. `1` means the serial program (no parallel
    /// overheads, the paper's baseline); `≥ 4` is the instrumented parallel
    /// program with master, foreman, and monitor on dedicated processors.
    pub processors: usize,
    /// The machine model.
    pub cost: CostModel,
}

/// Like [`simulate_trace`] but with *speculative dispatch*, the feature of
/// Ceron et al.'s parallel DNAml the paper discusses in §3.2: because "the
/// relatively low probability of a local rearrangement improving the
/// likelihood" makes fruitless rearrangement rounds the common case, the
/// master speculatively generates the next round's candidates (assuming no
/// improvement) while the current round is still being evaluated, and the
/// foreman feeds them to workers as they free up — the fruitless round's
/// barrier disappears. When a round *does* improve the tree, speculation
/// was wrong and the next round waits for the commit, exactly as in the
/// plain schedule. (The paper: "We have not studied … whether such a
/// feature would enhance the scalability of the parallel version of
/// fastDNAml. We plan to do so." — this is that study, in simulation.)
pub fn simulate_trace_speculative(trace: &SearchTrace, config: &SimConfig) -> SimReport {
    use fdml_core::trace::RoundKind;
    let cost = &config.cost;
    let serial_seconds = cost.serial_seconds(trace);
    if config.processors == 1 {
        return simulate_trace(trace, config);
    }
    let workers = config.workers();
    // Persistent worker availability across speculated (barrier-free)
    // round boundaries.
    let mut avail: Vec<f64> = vec![0.0; workers];
    let mut busy = 0.0f64;
    let mut clock = 0.0f64; // completion time of the last finished round
                            // Master-side time at which the current round's candidates are ready.
    let mut gen_ready = 0.0f64;
    let mut barrier_before_next = true;
    for round in &trace.rounds {
        let gen = round.candidate_work.len() as f64
            * round.taxa_in_tree as f64
            * cost.master_gen_per_taxon;
        let round_start = if barrier_before_next {
            // Wait for the previous round to fully finish, then generate.
            let t0 = clock + gen;
            for a in &mut avail {
                *a = (*a).max(t0);
            }
            t0
        } else {
            // Candidates were generated speculatively while the previous
            // round ran; workers flow straight into them.
            gen_ready + gen
        };
        gen_ready = round_start;
        let msg = cost.message_seconds(cost.tree_message_bytes(round.taxa_in_tree));
        let mut round_end = round_start;
        let mut free: BinaryHeap<Reverse<(OrderedF64, usize)>> = avail
            .iter()
            .enumerate()
            .map(|(w, &a)| Reverse((OrderedF64(a), w)))
            .collect();
        for (j, &units) in round.candidate_work.iter().enumerate() {
            let compute = cost.candidate_seconds(
                units,
                round.taxa_in_tree,
                trace.num_patterns,
                trace.full_evaluation,
            );
            let Reverse((OrderedF64(a), w)) = free.pop().expect("worker pool non-empty");
            let dispatch_ready = round_start + j as f64 * cost.foreman_overhead;
            let start = a.max(dispatch_ready) + msg;
            let end = start + compute + msg;
            busy += compute;
            round_end = round_end.max(end);
            avail[w] = end;
            free.push(Reverse((OrderedF64(end), w)));
        }
        clock = round_end + round.master_work as f64 * cost.seconds_per_work_unit;
        // Speculation applies only after fruitless rearrangement rounds.
        barrier_before_next = round.improved
            || !matches!(
                round.kind,
                RoundKind::Rearrangement | RoundKind::FinalRearrangement
            );
    }
    let utilization = if clock > 0.0 {
        busy / (workers as f64 * clock)
    } else {
        0.0
    };
    SimReport {
        processors: config.processors,
        wall_seconds: clock,
        serial_seconds,
        worker_busy_seconds: busy,
        utilization,
        rounds: trace.rounds.len(),
    }
}

impl SimConfig {
    /// Number of worker processors (the paper dedicates three processors
    /// to control and monitoring).
    pub fn workers(&self) -> usize {
        if self.processors == 1 {
            1
        } else {
            assert!(
                self.processors >= 4,
                "parallel fastDNAml needs master+foreman+monitor+worker"
            );
            self.processors - 3
        }
    }
}

/// Result of simulating one trace at one processor count.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Processors simulated.
    pub processors: usize,
    /// Simulated wall-clock seconds.
    pub wall_seconds: f64,
    /// The serial baseline for the same trace (for speedup).
    pub serial_seconds: f64,
    /// Sum of worker busy time (compute only).
    pub worker_busy_seconds: f64,
    /// Worker utilization: busy / (workers × wall).
    pub utilization: f64,
    /// Dispatch rounds replayed.
    pub rounds: usize,
}

impl SimReport {
    /// Speedup versus the serial program.
    pub fn speedup(&self) -> f64 {
        self.serial_seconds / self.wall_seconds
    }
}

/// Replay a trace at a processor count.
///
/// Round semantics (paper Figure 2): the master generates the round's
/// candidate trees and hands them to the foreman; the foreman dispatches to
/// idle workers, each worker returning its result as soon as it finishes
/// and immediately receiving the next tree; the round closes when the last
/// tree returns (the implicit, loosely synchronized barrier of §3.2); the
/// master then commits the best tree before the next round begins.
pub fn simulate_trace(trace: &SearchTrace, config: &SimConfig) -> SimReport {
    simulate_trace_observed(trace, config, &Obs::disabled())
}

/// [`simulate_trace`] emitting the *same structured event schema* as the
/// real threaded runtime ([`Event`]), with timestamps in simulated
/// microseconds — so `fdml_obs::RunReport`s from a measured run and a
/// simulated run are directly comparable.
///
/// The trace does not record per-round likelihoods, so `RoundCompleted`
/// events carry `best_ln_likelihood = 0.0`; the final likelihood comes from
/// the trace itself.
pub fn simulate_trace_observed(trace: &SearchTrace, config: &SimConfig, obs: &Obs) -> SimReport {
    let cost = &config.cost;
    let serial_seconds = cost.serial_seconds(trace);
    let sim_us = |t: f64| (t * 1e6).round() as u64;
    if config.processors == 1 {
        obs.emit_at(0, || Event::RunStarted {
            ranks: 1,
            workers: 1,
        });
        obs.emit_at(sim_us(serial_seconds), || Event::RunFinished {
            ln_likelihood: trace.final_ln_likelihood,
        });
        return SimReport {
            processors: 1,
            wall_seconds: serial_seconds,
            serial_seconds,
            worker_busy_seconds: serial_seconds,
            utilization: 1.0,
            rounds: trace.rounds.len(),
        };
    }
    let workers = config.workers();
    obs.emit_at(0, || Event::RunStarted {
        ranks: config.processors,
        workers,
    });
    // The simulated cluster "connects" instantly: one NetPeerConnected per
    // worker rank keeps the report schema identical to a real `fdml-net`
    // run (whose coordinator emits the same events from live handshakes).
    for w in 0..workers {
        obs.emit_at(0, || Event::NetPeerConnected {
            rank: ranks::FIRST_WORKER + w,
        });
    }
    let mut clock = 0.0f64;
    let mut busy = 0.0f64;
    let mut next_task = 0u64;
    for (round_no, round) in trace.rounds.iter().enumerate() {
        // Master generates all candidates of the round up front (the paper
        // notes both fastDNAml and Ceron's code "calculate in advance the
        // list of trees to be dispatched").
        let gen = round.candidate_work.len() as f64
            * round.taxa_in_tree as f64
            * cost.master_gen_per_taxon;
        let round_start = clock + gen;
        let msg = cost.message_seconds(cost.tree_message_bytes(round.taxa_in_tree));
        // Greedy list scheduling over worker availability.
        let mut free: BinaryHeap<Reverse<(OrderedF64, usize)>> = (0..workers)
            .map(|w| Reverse((OrderedF64(round_start), w)))
            .collect();
        let mut round_end = round_start;
        for (j, &units) in round.candidate_work.iter().enumerate() {
            let compute = cost.candidate_seconds(
                units,
                round.taxa_in_tree,
                trace.num_patterns,
                trace.full_evaluation,
            );
            let Reverse((OrderedF64(avail), w)) = free.pop().expect("worker pool non-empty");
            // The foreman's dispatch loop is serial: message j cannot leave
            // before round_start + j·overhead.
            let dispatch_ready = round_start + j as f64 * cost.foreman_overhead;
            let start = avail.max(dispatch_ready) + msg;
            let end = start + compute + msg;
            busy += compute;
            round_end = round_end.max(end);
            free.push(Reverse((OrderedF64(end), w)));
            let task = next_task;
            next_task += 1;
            let rank = ranks::FIRST_WORKER + w;
            obs.emit_at(sim_us(dispatch_ready), || Event::TaskDispatched {
                task,
                worker: rank,
            });
            // The trace records weighted work units; the simulator has no
            // finer-grained counter, so report them as pattern-update
            // equivalents to keep the throughput gauge populated.
            obs.emit_at(sim_us(start + compute), || Event::WorkerTaskDone {
                worker: rank,
                task,
                busy_us: sim_us(compute),
                work_units: units,
                pattern_updates: units,
            });
            // A trace taken with quick (non-full) evaluation models the
            // incremental candidate path: each edit reuses the round's base
            // CLVs (3 cached vectors at the junction) and a rearrangement
            // additionally recomputes its dirty path. Mirroring the real
            // worker's counters keeps RunReports comparable across a
            // measured incremental run and its simulation.
            if !trace.full_evaluation {
                use fdml_core::trace::RoundKind;
                let recomputed = matches!(
                    round.kind,
                    RoundKind::Rearrangement | RoundKind::FinalRearrangement
                ) as u64;
                obs.emit_at(sim_us(start + compute), || Event::IncrementalEdit {
                    worker: rank,
                    cache_hits: 3,
                    edges_recomputed: recomputed,
                    fallbacks: 0,
                });
            }
            obs.emit_at(sim_us(end), || Event::TaskCompleted {
                task,
                worker: rank,
                service_us: sim_us(end - dispatch_ready),
                work_units: units,
                ln_likelihood: 0.0,
            });
        }
        // Master commits the winner before the next round.
        clock = round_end + round.master_work as f64 * cost.seconds_per_work_unit;
        obs.emit_at(sim_us(round_end), || Event::RoundCompleted {
            round: round_no as u64 + 1,
            candidates: round.candidate_work.len(),
            best_ln_likelihood: 0.0,
        });
    }
    obs.emit_at(sim_us(clock), || Event::RunFinished {
        ln_likelihood: trace.final_ln_likelihood,
    });
    let utilization = if clock > 0.0 {
        busy / (workers as f64 * clock)
    } else {
        0.0
    };
    SimReport {
        processors: config.processors,
        wall_seconds: clock,
        serial_seconds,
        worker_busy_seconds: busy,
        utilization,
        rounds: trace.rounds.len(),
    }
}

/// Shape of the two-level foreman tree for [`simulate_trace_hierarchical`]:
/// how many regional foremen sit between the root foreman and the workers,
/// how many tasks ride in one lease grant, and how large one task frame is
/// on the wire. The frame size should come from [`binary_edit_task_bytes`]
/// (the real `fdml-wire` encoding of a representative candidate), not from
/// an assumed constant — the whole point of the scale-out study is that
/// the measured frame shrink moves the dispatch wall.
#[derive(Debug, Clone)]
pub struct HierConfig {
    /// Regional foremen (each owns the round-robin worker shard
    /// `w % regions`).
    pub regions: usize,
    /// Tasks per lease batch ([`HierConfig::GRANT_CAP`] as deployed).
    pub grant: usize,
    /// Wire bytes of one downward task frame.
    pub task_bytes: usize,
    /// Master seconds to generate one candidate. In the edit-task era a
    /// candidate leaves the master as a handful of node ids, so this is a
    /// small constant — unlike the flat model's per-taxon Newick
    /// serialization (`CostModel::master_gen_per_taxon`), it does not grow
    /// with the tree.
    pub gen_per_task: f64,
}

impl HierConfig {
    /// Most tasks a single lease grant may carry: it bounds the damage of
    /// losing a region mid-lease and keeps the root's grants round-robin
    /// fair.
    pub const GRANT_CAP: usize = 64;

    /// The deployed configuration: `regions` regional foremen, the grant
    /// cap, the measured binary `TreeEditTask` frame, and edit-era
    /// candidate generation (~1 µs per candidate).
    pub fn binary(regions: usize) -> HierConfig {
        HierConfig {
            regions,
            grant: HierConfig::GRANT_CAP,
            task_bytes: binary_edit_task_bytes(),
            gen_per_task: 1e-6,
        }
    }

    /// First worker rank: the control ranks (master, root foreman,
    /// monitor) and the regional foremen come before the fleet.
    pub fn first_worker_rank(&self) -> usize {
        3 + self.regions
    }
}

/// Measured wire size of a representative candidate task in the binary
/// codec: a `TreeEditTask` carrying a regraft (the most common and largest
/// steady-state edit), no embedded base. This is what a worker receives
/// for every candidate of an incremental round.
pub fn binary_edit_task_bytes() -> usize {
    use fdml_comm::message::{Message, TreeEdit};
    let msg = Message::TreeEditTask {
        task: u32::MAX as u64,
        base_id: 1000,
        edit: TreeEdit::Regraft {
            root: 4000,
            attachment: 4001,
            a: 4002,
            b: 4003,
        },
        base_newick: None,
    };
    fdml_wire::encode_message(&msg).len()
}

/// Replay a trace on a two-level foreman tree — the scale-out topology
/// that pushes past the paper's 64-processor ceiling.
///
/// The model mirrors the real scheduler's cost structure:
///
/// * The **root foreman** serializes per *batch*, not per task: batch `k`
///   (up to `grant` tasks) occupies it for one `foreman_overhead` plus the
///   batch's wire time, and batches go to regions round-robin.
/// * Each **regional foreman** serializes its own shard's per-task
///   dispatch — so that cost divides by the region count instead of
///   bounding the whole fleet.
/// * Results return to the regional foreman with the usual tree-message
///   cost and reach the master one aggregated relay hop (one latency)
///   later, modelling the batched upward stream.
/// * The **master** generates compact edits ([`HierConfig::gen_per_task`]
///   per candidate) instead of serializing whole Newick trees.
///
/// Worker compute and per-candidate work are identical to
/// [`simulate_trace`], so `worker_busy_seconds` matches the flat replay
/// exactly and the completed task set is the same — the topology is
/// invisible in the result. (The runtime once shipped this tree as
/// `--regions`; it was retired because it ran ~10× slower than the flat
/// foreman on every shape measured, DESIGN §12.2.)
pub fn simulate_trace_hierarchical(
    trace: &SearchTrace,
    config: &SimConfig,
    hier: &HierConfig,
) -> SimReport {
    simulate_trace_hierarchical_observed(trace, config, hier, &Obs::disabled())
}

/// [`simulate_trace_hierarchical`] emitting the runtime's event schema,
/// including the hierarchy events (`LeaseGranted`, `BatchSent`,
/// `RegionQueueDepth`) that populate `RunReport::hierarchy`.
pub fn simulate_trace_hierarchical_observed(
    trace: &SearchTrace,
    config: &SimConfig,
    hier: &HierConfig,
    obs: &Obs,
) -> SimReport {
    let cost = &config.cost;
    let regions = hier.regions;
    assert!(regions >= 1, "hierarchical simulation needs >= 1 region");
    assert!(hier.grant >= 1);
    assert!(
        config.processors >= 4 + regions,
        "need master+root+monitor+{regions} regionals and >= 1 worker"
    );
    let workers = config.processors - 3 - regions;
    let serial_seconds = cost.serial_seconds(trace);
    let sim_us = |t: f64| (t * 1e6).round() as u64;
    obs.emit_at(0, || Event::RunStarted {
        ranks: config.processors,
        workers,
    });
    let first_worker = hier.first_worker_rank();
    // Worker w (0-based) lives in region w % regions and is global rank
    // first_worker + w.
    let mut clock = 0.0f64;
    let mut busy = 0.0f64;
    let mut next_task = 0u64;
    for (round_no, round) in trace.rounds.iter().enumerate() {
        let gen = round.candidate_work.len() as f64 * hier.gen_per_task;
        let round_start = clock + gen;
        let result_msg = cost.message_seconds(cost.tree_message_bytes(round.taxa_in_tree));
        let mut shard: Vec<BinaryHeap<Reverse<(OrderedF64, usize)>>> =
            vec![BinaryHeap::new(); regions];
        for w in 0..workers {
            shard[w % regions].push(Reverse((OrderedF64(round_start), w)));
        }
        // When the regional foreman's dispatch loop frees up, per region.
        let mut regional_free = vec![round_start; regions];
        let mut root_free = round_start;
        let mut round_end = round_start;
        for (k, chunk) in round.candidate_work.chunks(hier.grant).enumerate() {
            let region = k % regions;
            // Root occupancy: one queue operation plus the batch's bytes
            // through its link — per batch, the 64× relief over per-task.
            let batch_bytes = 16 + chunk.len() * hier.task_bytes;
            root_free += cost.foreman_overhead + batch_bytes as f64 / cost.bandwidth;
            let leave_root = root_free;
            let arrival = leave_root + cost.message_latency;
            obs.emit_at(sim_us(leave_root), || Event::LeaseGranted {
                region,
                tasks: chunk.len(),
            });
            obs.emit_at(sim_us(leave_root), || Event::BatchSent {
                from: fdml_core::worker::ranks::FOREMAN,
                msgs: chunk.len(),
                bytes: batch_bytes as u64,
            });
            obs.emit_at(sim_us(arrival), || Event::RegionQueueDepth {
                region,
                work: chunk.len(),
                ready: 0,
                in_flight: 0,
            });
            for &units in chunk {
                let compute = cost.candidate_seconds(
                    units,
                    round.taxa_in_tree,
                    trace.num_patterns,
                    trace.full_evaluation,
                );
                // Regional dispatch serializes within the shard only.
                let dispatch_ready = arrival.max(regional_free[region])
                    + cost.foreman_overhead
                    + hier.task_bytes as f64 / cost.bandwidth;
                regional_free[region] = dispatch_ready;
                let Reverse((OrderedF64(avail), w)) = shard[region].pop().expect("shard non-empty");
                let start = avail.max(dispatch_ready) + cost.message_latency;
                let end = start + compute + result_msg;
                // The aggregated upward stream: one extra relay latency,
                // bandwidth already charged on the worker→regional leg.
                let at_master = end + cost.message_latency;
                busy += compute;
                round_end = round_end.max(at_master);
                shard[region].push(Reverse((OrderedF64(end), w)));
                let task = next_task;
                next_task += 1;
                let rank = first_worker + w;
                obs.emit_at(sim_us(dispatch_ready), || Event::TaskDispatched {
                    task,
                    worker: rank,
                });
                obs.emit_at(sim_us(start + compute), || Event::WorkerTaskDone {
                    worker: rank,
                    task,
                    busy_us: sim_us(compute),
                    work_units: units,
                    pattern_updates: units,
                });
                obs.emit_at(sim_us(at_master), || Event::TaskCompleted {
                    task,
                    worker: rank,
                    service_us: sim_us(at_master - dispatch_ready),
                    work_units: units,
                    ln_likelihood: 0.0,
                });
            }
        }
        clock = round_end + round.master_work as f64 * cost.seconds_per_work_unit;
        obs.emit_at(sim_us(round_end), || Event::RoundCompleted {
            round: round_no as u64 + 1,
            candidates: round.candidate_work.len(),
            best_ln_likelihood: 0.0,
        });
    }
    obs.emit_at(sim_us(clock), || Event::RunFinished {
        ln_likelihood: trace.final_ln_likelihood,
    });
    let utilization = if clock > 0.0 {
        busy / (workers as f64 * clock)
    } else {
        0.0
    };
    SimReport {
        processors: config.processors,
        wall_seconds: clock,
        serial_seconds,
        worker_busy_seconds: busy,
        utilization,
        rounds: trace.rounds.len(),
    }
}

/// Total order wrapper for the availability heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_core::trace::{RoundKind, RoundRecord};

    /// A synthetic trace shaped like a real search: rounds of growing size
    /// with per-candidate variance.
    fn synthetic_trace(rounds: usize, round_size: usize) -> SearchTrace {
        let mut rs = Vec::new();
        for r in 0..rounds {
            rs.push(RoundRecord {
                kind: RoundKind::Rearrangement,
                taxa_in_tree: 50,
                candidate_work: (0..round_size)
                    .map(|j| 1_000_000 + ((r * 31 + j * 97) % 700_000) as u64)
                    .collect(),
                master_work: 200_000,
                improved: true,
            });
        }
        SearchTrace {
            dataset: "synthetic".into(),
            num_taxa: 50,
            num_sites: 1000,
            num_patterns: 400,
            jumble_seed: 1,
            full_evaluation: true,
            rounds: rs,
            final_ln_likelihood: -1.0,
            final_newick: String::new(),
        }
    }

    fn sim(trace: &SearchTrace, p: usize) -> SimReport {
        simulate_trace(
            trace,
            &SimConfig {
                processors: p,
                cost: CostModel::power3_sp(),
            },
        )
    }

    #[test]
    fn four_processors_slower_than_serial() {
        // §3.2: "the overhead of communications and processing tasks causes
        // the parallel code running on four processors to be slower than
        // the serial code running on one processor."
        let t = synthetic_trace(40, 60);
        let serial = sim(&t, 1);
        let p4 = sim(&t, 4);
        assert!(
            p4.wall_seconds > serial.wall_seconds,
            "P=4 {} must exceed serial {}",
            p4.wall_seconds,
            serial.wall_seconds
        );
        assert!(p4.speedup() < 1.0);
    }

    #[test]
    fn more_processors_never_slower() {
        let t = synthetic_trace(30, 80);
        let mut last = f64::INFINITY;
        for p in [4usize, 8, 16, 32, 64] {
            let r = sim(&t, p);
            assert!(
                r.wall_seconds <= last * 1.0000001,
                "P={p}: {} > previous {last}",
                r.wall_seconds
            );
            last = r.wall_seconds;
        }
    }

    #[test]
    fn near_linear_scaling_with_big_rounds() {
        // With rounds much larger than the worker count, time scales with
        // the *worker* count: 16 → 32 processors is 13 → 29 workers, a
        // 2.23× capacity jump — the effect behind the paper's better-than-
        // expected relative speedups from 16 to 64 processors.
        let t = synthetic_trace(30, 512);
        let p16 = sim(&t, 16);
        let p32 = sim(&t, 32);
        let ratio = p16.wall_seconds / p32.wall_seconds;
        let worker_ratio = 29.0 / 13.0;
        assert!(
            ratio > worker_ratio * 0.9 && ratio < worker_ratio * 1.02,
            "16→32 processors should scale like workers ({worker_ratio:.2}), ratio {ratio}"
        );
    }

    #[test]
    fn scaling_falls_off_when_workers_exceed_round_size() {
        // §3.2's prediction: "the scalability will likely fall off at
        // between 100 and 200 processors, since the number of processors
        // will equal or exceed the number of trees analyzed".
        let t = synthetic_trace(30, 100);
        let p103 = sim(&t, 103); // 100 workers = round size
        let p203 = sim(&t, 203); // double the workers
        let gain = p103.wall_seconds / p203.wall_seconds;
        assert!(gain < 1.05, "beyond round size, extra workers gain {gain}");
    }

    #[test]
    fn utilization_bounded_and_consistent() {
        let t = synthetic_trace(10, 32);
        for p in [4usize, 8, 64] {
            let r = sim(&t, p);
            assert!(
                r.utilization > 0.0 && r.utilization <= 1.0,
                "P={p}: {}",
                r.utilization
            );
            assert!(r.worker_busy_seconds <= (r.processors.max(4) - 3) as f64 * r.wall_seconds);
        }
    }

    #[test]
    fn variance_loosens_the_barrier() {
        // A round with one slow tree bounds the round time from below by
        // that tree, regardless of worker count.
        let mut t = synthetic_trace(1, 16);
        t.rounds[0].candidate_work[7] = 100_000_000;
        let r = sim(&t, 64);
        let cost = CostModel::power3_sp();
        let slowest = cost.candidate_seconds(100_000_000, 50, 400, true);
        assert!(r.wall_seconds >= slowest);
    }

    #[test]
    fn serial_report_is_self_consistent() {
        let t = synthetic_trace(5, 10);
        let r = sim(&t, 1);
        assert_eq!(r.processors, 1);
        assert!((r.speedup() - 1.0).abs() < 1e-12);
        assert_eq!(r.rounds, 5);
    }

    #[test]
    #[should_panic(expected = "master+foreman+monitor")]
    fn two_processors_is_invalid() {
        let t = synthetic_trace(1, 4);
        sim(&t, 2);
    }

    #[test]
    fn observed_simulation_matches_plain_and_its_own_report() {
        use fdml_obs::{MemorySink, RunReport};
        let t = synthetic_trace(12, 40);
        let cfg = SimConfig {
            processors: 8,
            cost: CostModel::power3_sp(),
        };
        let plain = simulate_trace(&t, &cfg);
        let mem = MemorySink::new();
        let obs = Obs::new(Box::new(mem.clone()));
        let observed = simulate_trace_observed(&t, &cfg, &obs);
        // Emitting events must not change the schedule.
        assert_eq!(observed, plain);
        let report = RunReport::from_events(&mem.take());
        assert_eq!(report.ranks, Some(8));
        assert_eq!(report.workers.len(), 5);
        assert_eq!(report.completed, 12 * 40);
        assert_eq!(report.dispatched, 12 * 40);
        assert_eq!(report.rounds.len(), 12);
        // The report's mean utilization (busy µs over span µs, averaged
        // over workers) reproduces the simulator's own figure.
        assert!(
            (report.mean_utilization() - observed.utilization).abs() < 0.01,
            "report {} vs simulator {}",
            report.mean_utilization(),
            observed.utilization
        );
        assert_eq!(report.final_ln_likelihood, Some(-1.0));
    }

    #[test]
    fn quick_evaluation_traces_report_incremental_counters() {
        use fdml_obs::{MemorySink, RunReport};
        let mut t = synthetic_trace(3, 8);
        t.full_evaluation = false;
        let cfg = SimConfig {
            processors: 5,
            cost: CostModel::power3_sp(),
        };
        let mem = MemorySink::new();
        let obs = Obs::new(Box::new(mem.clone()));
        simulate_trace_observed(&t, &cfg, &obs);
        let report = RunReport::from_events(&mem.take());
        let hits: u64 = report.workers.iter().map(|w| w.clv_cache_hits).sum();
        let recomputed: u64 = report.workers.iter().map(|w| w.clv_edges_recomputed).sum();
        let fallbacks: u64 = report.workers.iter().map(|w| w.incremental_fallbacks).sum();
        // 3 rounds × 8 candidates, 3 cache hits each; every synthetic round
        // is a rearrangement, so one recomputed edge per candidate.
        assert_eq!(hits, 3 * 8 * 3);
        assert_eq!(recomputed, 3 * 8);
        assert_eq!(fallbacks, 0);

        // Full-evaluation traces model whole-tree scoring: no counters.
        let full = synthetic_trace(3, 8);
        let mem2 = MemorySink::new();
        let obs2 = Obs::new(Box::new(mem2.clone()));
        simulate_trace_observed(&full, &cfg, &obs2);
        let report2 = RunReport::from_events(&mem2.take());
        assert!(report2.workers.iter().all(|w| w.clv_cache_hits == 0));
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use fdml_core::trace::{RoundKind, RoundRecord};

    fn trace_with_fruitless_rounds() -> SearchTrace {
        // addition(improved) → rearr(improved) → rearr(fruitless) →
        // addition → rearr(fruitless) → final(fruitless)
        let mk = |kind, improved, n: usize| RoundRecord {
            kind,
            taxa_in_tree: 30,
            candidate_work: vec![800_000; n],
            master_work: 50_000,
            improved,
        };
        SearchTrace {
            dataset: "spec".into(),
            num_taxa: 30,
            num_sites: 500,
            num_patterns: 200,
            jumble_seed: 1,
            full_evaluation: true,
            rounds: vec![
                mk(RoundKind::TaxonAddition, true, 20),
                mk(RoundKind::Rearrangement, true, 30),
                mk(RoundKind::Rearrangement, false, 30),
                mk(RoundKind::TaxonAddition, true, 22),
                mk(RoundKind::Rearrangement, false, 34),
                mk(RoundKind::FinalRearrangement, false, 34),
            ],
            final_ln_likelihood: -1.0,
            final_newick: String::new(),
        }
    }

    #[test]
    fn speculation_reduces_wall_time_with_many_workers() {
        let t = trace_with_fruitless_rounds();
        let cfg = SimConfig {
            processors: 64,
            cost: CostModel::power3_sp(),
        };
        let plain = simulate_trace(&t, &cfg);
        let spec = simulate_trace_speculative(&t, &cfg);
        assert!(
            spec.wall_seconds < plain.wall_seconds,
            "speculative {} must beat plain {}",
            spec.wall_seconds,
            plain.wall_seconds
        );
        // Same total work, same serial baseline.
        assert!((spec.serial_seconds - plain.serial_seconds).abs() < 1e-9);
        assert!((spec.worker_busy_seconds - plain.worker_busy_seconds).abs() < 1e-9);
    }

    #[test]
    fn speculation_keeps_round_count_and_work() {
        let t = trace_with_fruitless_rounds();
        let cfg = SimConfig {
            processors: 8,
            cost: CostModel::power3_sp(),
        };
        let plain = simulate_trace(&t, &cfg);
        let spec = simulate_trace_speculative(&t, &cfg);
        assert_eq!(spec.rounds, plain.rounds);
        assert!((spec.worker_busy_seconds - plain.worker_busy_seconds).abs() < 1e-9);
    }

    #[test]
    fn speculation_never_hurts() {
        let t = trace_with_fruitless_rounds();
        for p in [4usize, 8, 32, 64, 128] {
            let cfg = SimConfig {
                processors: p,
                cost: CostModel::power3_sp(),
            };
            let plain = simulate_trace(&t, &cfg);
            let spec = simulate_trace_speculative(&t, &cfg);
            assert!(spec.wall_seconds <= plain.wall_seconds * 1.0000001, "P={p}");
        }
    }
}

#[cfg(test)]
mod hierarchy_tests {
    use super::*;
    use fdml_obs::{Event, MemorySink, RunReport};
    use std::collections::BTreeSet;

    /// A trace big enough that a 1024-rank fleet has work for everyone.
    fn wide_trace(rounds: usize, round_size: usize) -> SearchTrace {
        use fdml_core::trace::{RoundKind, RoundRecord};
        let rs = (0..rounds)
            .map(|r| RoundRecord {
                kind: RoundKind::Rearrangement,
                taxa_in_tree: 200,
                candidate_work: (0..round_size)
                    .map(|j| 2_000_000 + ((r * 131 + j * 977) % 1_500_000) as u64)
                    .collect(),
                master_work: 300_000,
                improved: true,
            })
            .collect();
        SearchTrace {
            dataset: "wide".into(),
            num_taxa: 200,
            num_sites: 2000,
            num_patterns: 900,
            jumble_seed: 1,
            full_evaluation: true,
            rounds: rs,
            final_ln_likelihood: -42.5,
            final_newick: "(a,(b,c));".into(),
        }
    }

    /// The completed task ids and the final likelihood from an event log —
    /// the simulator's analogue of "the bytes of the final tree".
    fn outcome(events: &[fdml_obs::Record]) -> (BTreeSet<u64>, f64) {
        let mut tasks = BTreeSet::new();
        let mut lnl = f64::NAN;
        for r in events {
            match r.event {
                Event::TaskCompleted { task, .. } => {
                    assert!(tasks.insert(task), "task {task} completed twice");
                }
                Event::RunFinished { ln_likelihood } => lnl = ln_likelihood,
                _ => {}
            }
        }
        (tasks, lnl)
    }

    #[test]
    fn hierarchical_replay_is_work_identical_to_flat_at_1024_ranks() {
        // The scale smoke: 1024 simulated ranks through the two-level
        // scheduler must complete exactly the task set the flat foreman
        // completes, with identical per-candidate compute — the topology
        // only changes *when* work happens, never *what* the search does.
        let t = wide_trace(4, 4096);
        let cfg = SimConfig {
            processors: 1024,
            cost: CostModel::power3_sp(),
        };
        let flat_mem = MemorySink::new();
        let flat = simulate_trace_observed(&t, &cfg, &Obs::new(Box::new(flat_mem.clone())));
        let hier_mem = MemorySink::new();
        let hier = simulate_trace_hierarchical_observed(
            &t,
            &cfg,
            &HierConfig::binary(16),
            &Obs::new(Box::new(hier_mem.clone())),
        );
        let (flat_tasks, flat_lnl) = outcome(&flat_mem.take());
        let (hier_tasks, hier_lnl) = outcome(&hier_mem.take());
        assert_eq!(hier_tasks, flat_tasks);
        assert_eq!(hier_tasks.len(), 4 * 4096);
        assert_eq!(hier_lnl, flat_lnl);
        assert!((hier.worker_busy_seconds - flat.worker_busy_seconds).abs() < 1e-6);
        assert_eq!(hier.rounds, flat.rounds);
    }

    #[test]
    fn hierarchy_events_populate_the_run_report() {
        let t = wide_trace(2, 512);
        let cfg = SimConfig {
            processors: 128,
            cost: CostModel::power3_sp(),
        };
        let mem = MemorySink::new();
        simulate_trace_hierarchical_observed(
            &t,
            &cfg,
            &HierConfig::binary(4),
            &Obs::new(Box::new(mem.clone())),
        );
        let report = RunReport::from_events(&mem.take());
        assert_eq!(report.hierarchy.regions_seen, 4);
        // 512 candidates / 64-task grants = 8 leases per round, 2 rounds.
        assert_eq!(report.hierarchy.leases_granted, 16);
        assert_eq!(report.hierarchy.tasks_leased, 2 * 512);
        assert_eq!(report.hierarchy.batches_sent, 16);
        assert!(report.hierarchy.batched_bytes > 0);
        assert_eq!(report.completed, 2 * 512);
    }

    #[test]
    fn binary_task_frame_is_small_and_stable() {
        let bytes = binary_edit_task_bytes();
        // The ~50 B TreeEdit story of PR 7, now measured off the real
        // codec: a steady-state candidate frame stays under 64 bytes.
        assert!(bytes > 8 && bytes < 64, "got {bytes}");
    }

    #[test]
    fn regional_serialization_beats_the_flat_wall_at_scale() {
        // Make dispatch the bottleneck: tiny compute, many candidates.
        use fdml_core::trace::{RoundKind, RoundRecord};
        let t = SearchTrace {
            dataset: "dispatch-bound".into(),
            num_taxa: 200,
            num_sites: 2000,
            num_patterns: 900,
            jumble_seed: 1,
            full_evaluation: true,
            rounds: vec![RoundRecord {
                kind: RoundKind::Rearrangement,
                taxa_in_tree: 200,
                candidate_work: vec![50_000; 16_384],
                master_work: 0,
                improved: true,
            }],
            final_ln_likelihood: -1.0,
            final_newick: String::new(),
        };
        // Flat with the JSON-era frames: each dispatch occupies the single
        // foreman for overhead + frame wire time.
        let json_frame = CostModel::power3_sp().tree_message_bytes(200);
        let flat_cost = CostModel {
            foreman_overhead: 10e-6 + json_frame as f64 / CostModel::power3_sp().bandwidth,
            ..CostModel::power3_sp()
        };
        let cfg = |cost| SimConfig {
            processors: 2048,
            cost,
        };
        let flat = simulate_trace(&t, &cfg(flat_cost));
        let hier =
            simulate_trace_hierarchical(&t, &cfg(CostModel::power3_sp()), &HierConfig::binary(31));
        assert!(
            hier.wall_seconds < flat.wall_seconds,
            "hierarchical {} must beat the dispatch-bound flat {}",
            hier.wall_seconds,
            flat.wall_seconds
        );
    }
}
