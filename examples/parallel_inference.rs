//! The parallel program: master, foreman, monitor, and a pool of workers,
//! as in Figure 2 of the paper — here as threads over the transport
//! abstraction instead of MPI ranks.
//!
//! ```sh
//! cargo run --release --example parallel_inference
//! ```

use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_in_process, run_threaded, RunOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::obs::{MemorySink, Sink};
use fastdnaml::phylo::bipartition::robinson_foulds;
use std::time::Instant;

fn main() {
    // A 20-taxon synthetic dataset (see fdml-datagen).
    let true_tree = yule_tree(20, 0.08, 11);
    let alignment = evolve(&true_tree, 600, &EvolutionConfig::default(), 3, "taxon");
    let config = SearchConfig {
        jumble_seed: 5,
        rearrange_radius: 1,
        final_radius: 1,
        ..SearchConfig::default()
    };

    let job = ResolvedJob::single(alignment.clone(), config);

    println!("serial baseline…");
    let t0 = Instant::now();
    let serial = run_in_process(&job, RunOptions::default()).expect("serial search");
    let serial = serial.search.expect("a run without a manifest searches");
    let serial_secs = t0.elapsed().as_secs_f64();
    println!("  lnL {:.3} in {serial_secs:.2}s", serial.ln_likelihood);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).clamp(1, 8))
        .unwrap_or(4);
    let ranks = workers + 3; // master + foreman + monitor + workers
    println!("\nparallel run with {ranks} ranks ({workers} workers)…");
    let t0 = Instant::now();
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(MemorySink::new())];
    let outcome = run_threaded(&job, ranks, RunOptions::observed(sinks)).expect("parallel search");
    let parallel = outcome
        .search
        .as_ref()
        .expect("a run without a manifest searches");
    let par_secs = t0.elapsed().as_secs_f64();
    println!(
        "  lnL {:.3} in {par_secs:.2}s → speedup {:.2}×",
        parallel.ln_likelihood,
        serial_secs / par_secs
    );

    // The serial program is the parallel one over an in-process transport:
    // the same decisions, the same tree.
    let rf = robinson_foulds(&serial.tree, &parallel.tree, 20);
    println!("  topology identical to serial: {}", rf == 0);
    println!(
        "  tree identical to serial, bit for bit: {}",
        serial.tree == parallel.tree
    );

    println!("\nmonitor report:");
    println!("  events                : {}", outcome.monitor.events);
    println!(
        "  rounds observed       : {}",
        outcome.monitor.round_history.len()
    );
    println!(
        "  load imbalance (cv)   : {:.3}",
        outcome.monitor.load_imbalance()
    );
    let mut ranks_sorted: Vec<_> = outcome.monitor.per_worker.iter().collect();
    ranks_sorted.sort_by_key(|(rank, _)| **rank);
    for (rank, util) in ranks_sorted {
        println!(
            "  worker {rank}: {} trees completed, {} work units",
            util.completed, util.work_units
        );
    }
    println!(
        "  foreman: {} dispatches, {} results",
        outcome.foreman.dispatched, outcome.foreman.results_forwarded
    );

    if let Some(report) = &outcome.report {
        println!("\nrun report (fdml-obs):");
        println!("{report}");
    }
}
