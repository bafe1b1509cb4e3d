//! Supporting measurement: *real* (not simulated) parallel speedup of the
//! threaded runtime on this host, up to the available cores. The workers do
//! full per-tree evaluations exactly like the paper's MPI workers.
//!
//! Usage: measured_speedup [--taxa 24] [--sites 400] [--radius 2] [--max-workers 8]

use fdml_bench::Args;
use fdml_core::config::SearchConfig;
use fdml_core::job::ResolvedJob;
use fdml_core::runner::{run_in_process, run_threaded, RunOptions};
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let taxa: usize = args.get("taxa", 24);
    let sites: usize = args.get("sites", 400);
    let radius: usize = args.get("radius", 2);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let max_workers: usize = args.get("max-workers", host_cores.saturating_sub(1).clamp(1, 8));
    let tree = yule_tree(taxa, 0.08, 99);
    let alignment = evolve(&tree, sites, &EvolutionConfig::default(), 7, "taxon");
    let config = SearchConfig {
        jumble_seed: 1,
        rearrange_radius: radius,
        final_radius: radius,
        ..SearchConfig::default()
    };
    println!("Measured threaded speedup, {taxa} taxa × {sites} sites, radius {radius}");
    println!("(host has {host_cores} cores; 3 ranks are control processes)\n");
    let job = ResolvedJob::single(alignment, config);
    let t0 = Instant::now();
    let serial = run_in_process(&job, RunOptions::default()).expect("serial search");
    let serial_time = t0.elapsed().as_secs_f64();
    println!(
        "{:>8} {:>12} {:>10} {:>14}",
        "workers", "seconds", "speedup", "lnL"
    );
    println!(
        "{:>8} {:>12.2} {:>10.2} {:>14.3}  (serial)",
        1, serial_time, 1.0, serial.runs[0].ln_likelihood
    );
    let mut workers = 1usize;
    while workers <= max_workers {
        let ranks = workers + 3;
        let t0 = Instant::now();
        let outcome = run_threaded(&job, ranks, RunOptions::default()).expect("parallel search");
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{:>8} {:>12.2} {:>10.2} {:>14.3}  (ranks={ranks}, util cv={:.2})",
            workers,
            wall,
            serial_time / wall,
            outcome.runs[0].ln_likelihood,
            outcome.monitor.load_imbalance()
        );
        workers *= 2;
    }
}
