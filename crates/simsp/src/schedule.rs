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
