//! Synthetic client swarm against the `fdml-serve` daemon: many clients
//! submit farm jobs concurrently over one shared worker fleet, and the
//! harness reports admission, completion, and latency figures — the
//! service-mode analogue of the paper's throughput measurements.
//!
//! Usage: serve_swarm [--clients 4] [--jobs-per-client 3] [--jumbles 3]
//!                    [--taxa 8] [--sites 120] [--workers 2]

use fdml_bench::Args;
use fdml_comm::job::JobSpec;
use fdml_core::config::SearchConfig;
use fdml_core::worker::run_worker;
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_net::TcpTransport;
use fdml_obs::Obs;
use fdml_phylo::phylip;
use fdml_serve::{client, Daemon, ServeOptions};
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::from_env();
    let clients: usize = args.get("clients", 4);
    let jobs_per_client: usize = args.get("jobs-per-client", 3);
    let jumbles: usize = args.get("jumbles", 3);
    let taxa: usize = args.get("taxa", 8);
    let sites: usize = args.get("sites", 120);
    let workers: usize = args.get("workers", 2);

    let state_dir = std::env::temp_dir().join(format!("fdml-swarm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let total_jobs = clients * jobs_per_client;
    let mut options = ServeOptions::new("127.0.0.1:0", 3 + workers.max(1), &state_dir);
    options.max_jobs = total_jobs;
    let daemon = Daemon::start(options).expect("start daemon");
    let addr = daemon.local_addr();
    let fleet: Vec<_> = (0..workers)
        .map(|_| {
            thread::spawn(move || {
                if let Ok(transport) = TcpTransport::connect(addr) {
                    let _ = run_worker(transport, Obs::disabled());
                }
            })
        })
        .collect();

    println!(
        "Client swarm: {clients} clients × {jobs_per_client} jobs × {jumbles} jumbles, \
         {taxa} taxa × {sites} sites, {workers} workers on {addr}"
    );
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            thread::spawn(move || {
                let mut latencies = Vec::new();
                for j in 0..jobs_per_client {
                    // Every job is a distinct dataset: distinct tree seed,
                    // distinct jumble seeds.
                    let stamp = (c * 1000 + j) as u64;
                    let tree = yule_tree(taxa, 0.08, 21 + stamp);
                    let alignment =
                        evolve(&tree, sites, &EvolutionConfig::default(), 5 + stamp, "t");
                    let spec = JobSpec {
                        phylip: phylip::write(&alignment),
                        config_json: SearchConfig::default().engine_config_json(),
                        jumbles,
                        base_seed: 1 + stamp,
                        max_ranks: 0,
                        max_wall_ms: 0,
                        label: format!("swarm-{c}-{j}"),
                    };
                    let t = Instant::now();
                    let job = client::submit(addr, &spec).expect("submit");
                    let result = client::attach(addr, job, Duration::from_secs(600), &mut |_| {})
                        .expect("attach");
                    assert_eq!(result.trees.len(), jumbles);
                    latencies.push(t.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    daemon.stop();
    for w in fleet {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let max = latencies.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "{total_jobs} jobs ({} jumbles total) in {wall:.2}s = {:.2} jobs/s",
        total_jobs * jumbles,
        total_jobs as f64 / wall
    );
    println!("submit→result latency: mean {mean:.2}s, max {max:.2}s");
}
