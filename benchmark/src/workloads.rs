//! The five workloads: one per way of deploying the program.
//!
//! All use two workers (`--parallel 5`, `--net spawn 5`, `--ranks 5`:
//! master, foreman and monitor take three ranks), rearrangement radius 1
//! and jumble seed 7. Each run is a fresh process; runs never overlap
//! (closed loop, one client).

use crate::probes::TaskShape;

/// Alignment length of every workload: the paper's 1858 positions scaled
/// so that the driver's 114 runs fit its time cap on two cores. The issue
/// sized the workloads at 464 sites (9–18 s a run); 174 keeps the
/// whole-tree workloads kernel-bound (measured speed-up 1.47 on two
/// workers) at 5–9 s a run.
pub const SITES: usize = 174;
/// Size of the `--quick` smoke variant of every workload.
pub const QUICK_TAXA: usize = 12;
/// Universe size; ranks 0–2 are master, foreman and monitor.
pub const RANKS: usize = 5;
/// The addition-order seed of every search (the farm's base seed).
pub const JUMBLE: &str = "7";

/// How the program is deployed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Deploy {
    /// One thread, no runtime.
    Serial,
    /// `--parallel`: ranks are threads of one process.
    Threads,
    /// `--net spawn`: ranks are processes on loopback TCP.
    Net,
    /// `--serve` daemon with a spawned fleet; `--submit`, then `--attach`.
    Serve,
}

impl Deploy {
    /// The flags that select this deployment (none for the daemon's
    /// clients, which get `--connect`).
    pub fn flags(self) -> &'static [&'static str] {
        match self {
            Deploy::Serial | Deploy::Serve => &[],
            Deploy::Threads => &["--parallel", "5"],
            Deploy::Net => &["--net", "spawn", "5", "--wire", "binary"],
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Taxon count of its alignment.
    pub taxa: usize,
    /// Deployment path.
    pub deploy: Deploy,
    /// What to compute: scoring mode or jumble count.
    pub job: &'static [&'static str],
    /// The message pair that carries one task on this path.
    pub shape: TaskShape,
}

/// The workloads, in the order they are reported.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serial50_full",
        taxa: 50,
        deploy: Deploy::Serial,
        job: &["--no-incremental"],
        shape: TaskShape::WholeTree,
    },
    Workload {
        name: "threads50_full",
        taxa: 50,
        deploy: Deploy::Threads,
        job: &["--no-incremental"],
        shape: TaskShape::WholeTree,
    },
    Workload {
        name: "threads101_inc",
        taxa: 101,
        deploy: Deploy::Threads,
        job: &["--incremental"],
        shape: TaskShape::Edit,
    },
    Workload {
        name: "net101_inc",
        taxa: 101,
        deploy: Deploy::Net,
        job: &["--incremental"],
        shape: TaskShape::Edit,
    },
    Workload {
        name: "serve_farm10",
        taxa: 50,
        deploy: Deploy::Serve,
        job: &["--jumbles", "10"],
        shape: TaskShape::Jumble,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
