//! Fault tolerance (paper §2.2): a worker that fails to return a tree
//! within the timeout is removed from the ready list and its tree is sent
//! to a different worker; if it answers later it is re-admitted.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use fastdnaml::chaos::ChaosPlan;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::runner::{run_threaded, RunOptions, ThreadOptions};
use fastdnaml::datagen::{evolve, yule_tree, EvolutionConfig};
use fastdnaml::phylo::bipartition::robinson_foulds;
use std::time::Duration;

fn main() {
    let tree = yule_tree(12, 0.08, 17);
    let alignment = evolve(&tree, 300, &EvolutionConfig::default(), 9, "taxon");
    let config = SearchConfig {
        jumble_seed: 3,
        worker_timeout: Duration::from_millis(250),
        ..SearchConfig::default()
    };

    println!("clean run (5 ranks: master, foreman, monitor, 2 workers)…");
    let job = ResolvedJob::from_parts(alignment.clone(), config.clone(), 1).expect("resolve job");
    let clean = run_threaded(&job, 5, RunOptions::default()).expect("clean run");
    println!(
        "  lnL {:.3}; {} dispatches, {} timeouts",
        clean.runs[0].ln_likelihood, clean.foreman.dispatched, clean.foreman.timeouts
    );

    println!("\nfaulty run: worker 3 silently drops its first 6 results…");
    let threads = ThreadOptions {
        chaos: Some(ChaosPlan::quiet(0).with_drop(3, 0, 6)),
        ..5.into()
    };
    let faulty = run_threaded(&job, threads, RunOptions::default()).expect("faulty run");
    println!(
        "  lnL {:.3}; {} dispatches, {} timeouts, {} re-admissions, {} duplicate results ignored",
        faulty.runs[0].ln_likelihood,
        faulty.foreman.dispatched,
        faulty.foreman.timeouts,
        faulty.foreman.recoveries,
        faulty.foreman.duplicates_ignored
    );

    let names = alignment.names();
    let (clean_tree, faulty_tree) = (clean.runs[0].tree(names), faulty.runs[0].tree(names));
    let rf = robinson_foulds(&clean_tree.unwrap(), &faulty_tree.unwrap(), 12);
    println!("\nresult unchanged despite the faults:");
    println!("  same topology : {}", rf == 0);
    println!(
        "  lnL difference: {:.2e}",
        (clean.runs[0].ln_likelihood - faulty.runs[0].ln_likelihood).abs()
    );
    println!("\nper-worker timeout counts seen by the monitor:");
    let mut items: Vec<_> = faulty.monitor.per_worker.iter().collect();
    items.sort_by_key(|(rank, _)| **rank);
    for (rank, util) in items {
        println!(
            "  worker {rank}: {} completed, {} timeouts",
            util.completed, util.timeouts
        );
    }
}
