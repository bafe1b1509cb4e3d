//! The fastDNAml command-line program. Its flags are `FLAGS`, each with
//! the modes that read it; `fastdnaml --help` prints the table.

use fastdnaml::cli::Takes::{Int, Nothing, OneOf, Real, Text};
use fastdnaml::cli::{self, flag, get, Flag, Mode, Modes, Program};
use fastdnaml::cli::{ALL, ATTACH, BOOTSTRAP, COORDINATOR, FARM, ONE, PARALLEL, SEARCH, SERIAL};
use fastdnaml::cli::{SERVE, SPAWN, STATUS, SUBMIT, USER_TREES, WORKER};
use fastdnaml::comm::job::JobSpec;
use fastdnaml::core::config::SearchConfig;
use fastdnaml::core::job::ResolvedJob;
use fastdnaml::core::netrun::{run_net, run_net_peer, NetOptions, NetSpawn};
use fastdnaml::core::runner::{
    bootstrap_analysis, evaluate_user_trees, run_in_process, run_threaded, RunOptions,
};
use fastdnaml::obs::{JsonlSink, MemorySink, Sink};
use fastdnaml::phylo::{fasta, newick, phylip};
use fastdnaml::rates::{categorize, estimate_rates, RateGrid};
use fastdnaml::serve::{client, Daemon, ServeOptions};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// `eprintln!` for the lines a `--net spawn` rank prints while its siblings
/// live: stderr is unbuffered, so `eprintln!` emits a line fragment by
/// fragment, the workers share the coordinator's stderr, and two reports
/// would interleave mid-line. Here the whole line leaves in one `write`.
macro_rules! report {
    ($($arg:tt)*) => {{
        let line = format!("{}\n", format_args!($($arg)*));
        // A closed stderr loses the line; `eprintln!` would panic.
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }};
}

/// The observer sinks `--obs-out` / `--obs-summary` ask for.
fn obs_sinks(
    args: &HashMap<String, String>,
    obs_summary: bool,
) -> Result<Vec<Box<dyn Sink>>, String> {
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if let Some(path) = args.get("obs-out") {
        let sink = JsonlSink::create(path).map_err(|e| format!("--obs-out {path}: {e}"))?;
        sinks.push(Box::new(sink));
    }
    if obs_summary && sinks.is_empty() {
        // No event log requested, but the report still needs the stream.
        sinks.push(Box::new(MemorySink::new()));
    }
    Ok(sinks)
}

/// The `--net coordinator | spawn N` universe the flags describe:
/// `--listen`, `--ranks`, and for `spawn` the peer launch settings.
fn net_options(mode: &str, args: &HashMap<String, String>, flags: &[String]) -> NetOptions {
    let listen = args
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let options = NetOptions::new(listen, get(args, "ranks", 4));
    if mode != "spawn" {
        return options;
    }
    let die_rank = args.get("die-rank").and_then(|v| v.parse::<usize>().ok());
    let die_tasks = args
        .get("die-after-tasks")
        .and_then(|v| v.parse::<u64>().ok());
    options.spawning(NetSpawn {
        program: std::env::current_exe().expect("current executable path"),
        die_after_tasks: die_rank.zip(die_tasks),
        quiet: flags.iter().any(|f| f == "quiet"),
        supervise: flags.iter().any(|f| f == "supervise"),
        max_restarts: get(args, "max-restarts", 3),
    })
}

/// Report spawned peers that did not exit cleanly.
fn report_peer_exits(peer_exits: &[(usize, Option<i32>)]) {
    for (rank, code) in peer_exits {
        if *code != Some(0) {
            report!("fastdnaml: peer rank {rank} exited with {code:?}");
        }
    }
}

/// The command line as `(value flags, switches)`, parsed and checked
/// against [`PROGRAM`] ([`cli::parse_args`]); a [`RETIRED`] flag is an
/// error naming what replaced it.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<cli::Args, String> {
    let mut argv: Vec<String> = argv.collect();
    let mut keys = argv.iter().filter_map(|item| item.strip_prefix("--"));
    if let Some(key) = keys.find(|key| RETIRED.contains(key)) {
        return Err(format!(
            "--{key} is retired: a run resumes from its round log; \
             re-run the same command with --wal-dir DIR"
        ));
    }
    // `--net spawn N` carries a second operand: the rank count rides in
    // as if `--ranks N` had been given.
    for i in (0..argv.len().saturating_sub(2)).rev() {
        if argv[i] == "--net" && argv[i + 1] == "spawn" && argv[i + 2].parse::<usize>().is_ok() {
            argv.insert(i + 2, "--ranks".into());
        }
    }
    cli::parse_args(argv, &PROGRAM)
}

/// The flags of the checkpoint files the round log replaced.
const RETIRED: &[&str] = &["checkpoint", "checkpoint-out", "resume"];

/// The modes that read the alignment.
const PROBLEM: Modes = SEARCH | SUBMIT | USER_TREES | BOOTSTRAP;
/// The model a search, a daemon job and a bootstrap search under.
const SEARCHED: Modes = SEARCH | SUBMIT | BOOTSTRAP;
/// A search with its own category model, or user trees scored under one.
const CATEGORIES: Modes = SEARCH | SUBMIT | USER_TREES;
/// A search of one jumble, in any deployment.
const SINGLE: Modes = SEARCH & !FARM;
/// A search that runs a foreman over other ranks.
const RANKED: Modes = SEARCH & !SERIAL;
/// A search over the TCP hub.
const NET: Modes = SEARCH & !SERIAL & !PARALLEL;

/// Every flag the program understands, with the modes that read it, in
/// `--help`'s order: the flags that the same modes read stand together.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("quiet", Nothing, ALL, "suppress progress output"),
    flag("help", Nothing, ALL, "show this message"),
    flag("isa", Text("LANE"), ALL, "kernel instruction set: scalar | avx2 | avx512 | neon (host-supported) [auto-detect]"),
    flag("wire", OneOf(&["binary"]), ALL, "the data-plane encoding; binary is the only one"),
    flag("chaos-storage-crash", Int("N", 0), ALL, "test hook: abort at the Nth durable-storage operation, as a crash there would"),
    flag("input", Text("FILE"), PROBLEM, "PHYLIP (or FASTA with --fasta) alignment [required]"),
    flag("fasta", Nothing, PROBLEM, "input is FASTA instead of PHYLIP"),
    flag("tt-ratio", Real("R"), SEARCHED | USER_TREES, "transition/transversion ratio [2.0]"),
    flag("jumble", Int("SEED", 1), SEARCHED, "random addition-order seed [1]"),
    flag("radius", Int("K", 0), SEARCHED, "vertices crossed in local rearrangements [1]"),
    flag("final-radius", Int("K", 0), SEARCHED, "vertices crossed in the final pass [= radius]"),
    flag("categories", Int("K", 1), CATEGORIES, "estimate K rate categories (DNArates) first"),
    flag("rates-file", Text("FILE"), CATEGORIES, "use a dnarates report for the category model"),
    flag("jumbles", Int("N", 1), SEARCH | SUBMIT, "number of random orderings to analyze [1]"),
    flag("output", Text("FILE"), SEARCH | USER_TREES | BOOTSTRAP | ATTACH, "write the best tree / consensus (\"-\" = stdout) [-]"),
    flag("jumble-trees", Text("FILE"), SEARCH | ATTACH, "write every jumble's tree, one per line"),
    flag("outgroup", Text("T1,T2"), SINGLE | USER_TREES, "root the output tree on this outgroup clade"),
    flag("midpoint", Nothing, SINGLE | USER_TREES, "midpoint-root the output tree"),
    flag("incremental", Nothing, SINGLE, "score candidate rounds as base + edit (CLV cache)"),
    flag("no-incremental", Nothing, SINGLE, "whole-tree candidate scoring, the default for a single search (farm jumbles and daemon jobs are always edit-scored)"),
    flag("obs-summary", Nothing, SEARCH, "print the end-of-run report"),
    flag("wal-dir", Text("DIR"), SEARCH, "keep round logs and manifest in DIR; the same command, on any deployment, resumes or answers from them"),
    flag("obs-out", Text("FILE"), SEARCH | SERVE | WORKER, "write runtime events as JSON lines"),
    flag("farm-width", Int("W", 0), SEARCH & !ONE, "max jumbles in flight at once (0 = all) [0]"),
    flag("parallel", Int("RANKS", 4), PARALLEL | ONE | FARM, "run the threaded parallel program over RANKS ranks"),
    flag("net", OneOf(&["coordinator", "worker", "spawn", "peer"]), NET | WORKER, "host the TCP hub and ranks 0-2 for peers that dial in; join one as a peer (--connect); or host it and fork N-3 workers (spawn N)"),
    flag("listen", Text("ADDR"), NET | SERVE, "coordinator / daemon bind address [127.0.0.1:0]"),
    flag("ranks", Int("N", 4), NET | SERVE, "universe size, ranks 0-2 (master, foreman, monitor) included [4]"),
    flag("worker-timeout-ms", Int("T", 0), RANKED, "foreman timeout before a task is requeued"),
    flag("supervise", Nothing, SPAWN | ONE | FARM, "respawn dead worker processes"),
    flag("max-restarts", Int("N", 0), SPAWN | ONE | FARM, "respawn ceiling per worker slot with --supervise [3]"),
    flag("die-rank", Int("RANK", 0), SPAWN | ONE | FARM, "test hook: the worker rank --die-after-tasks applies to"),
    flag("die-after-tasks", Int("N", 0), WORKER | SPAWN | ONE | FARM, "test hook: a worker exits after N results (--net spawn: the --die-rank one)"),
    flag("bootstrap", Int("N", 1), BOOTSTRAP, "bootstrap with N replicates instead of jumbles"),
    flag("user-trees", Text("FILE"), USER_TREES, "evaluate the Newick trees in FILE, no search"),
    flag("submit", Nothing, SUBMIT, "submit --input to the daemon at --connect"),
    flag("job-label", Text("NAME"), SUBMIT, "display label for the job"),
    flag("max-job-ranks", Int("N", 0), SERVE | SUBMIT, "per-job worker ceiling (--serve) / request (--submit) [0 = none]"),
    flag("max-wall-ms", Int("T", 0), SERVE | SUBMIT, "per-job wall budget ceiling (--serve) / request (--submit) [0 = none]"),
    flag("serve", Nothing, SERVE, "run the multi-tenant job daemon (workers join via --net worker)"),
    flag("state-dir", Text("DIR"), SERVE, "durable job state; a restart resumes unfinished jobs [required]"),
    flag("addr-file", Text("FILE"), SERVE, "write the bound address to FILE"),
    flag("spawn-workers", Nothing, SERVE, "fork this binary as the worker fleet"),
    flag("max-jobs", Int("N", 0), SERVE, "admission queue limit [8]"),
    flag("connect", Text("ADDR"), WORKER | SUBMIT | STATUS | ATTACH, "the coordinator or daemon to dial"),
    flag("status", Int("JOB", 0), STATUS, "print a submitted job's state and progress"),
    flag("attach", Int("JOB", 0), ATTACH, "stream a job's progress and write its result"),
    flag("attach-timeout-ms", Int("T", 0), ATTACH, "give up attaching after this long [600000]"),
];

/// The command line's mode. Each mode's own flag is read by that mode
/// alone, so at most one of them reaches the program; a search is
/// deployed by `--net` or `--parallel` and shaped by `--jumbles`.
fn mode((values, switches): &cli::Args) -> Result<Mode, String> {
    let on = |key: &str| values.contains_key(key) || switches.iter().any(|s| s == key);
    if on("midpoint") && on("outgroup") {
        return Err("--midpoint conflicts with --outgroup: a tree has one root".into());
    }
    let net = values.get("net").map(String::as_str);
    let own = [
        (on("serve"), SERVE, "--serve"),
        (on("status"), STATUS, "--status"),
        (on("attach"), ATTACH, "--attach"),
        (
            matches!(net, Some("worker" | "peer")),
            WORKER,
            "--net worker",
        ),
        (on("submit"), SUBMIT, "--submit"),
        (on("user-trees"), USER_TREES, "--user-trees"),
        (on("bootstrap"), BOOTSTRAP, "--bootstrap"),
    ];
    if let Some(&(_, bit, name)) = own.iter().find(|(given, ..)| *given) {
        return Ok(vec![(bit, name)]);
    }
    let deployment = match net {
        Some("coordinator") => (COORDINATOR, "--net coordinator"),
        Some(_) => (SPAWN, "--net spawn"),
        None if on("parallel") => (PARALLEL, "--parallel"),
        None => (SERIAL, "a serial search"),
    };
    let shape = match get(values, "jumbles", 1) {
        0 | 1 => (ONE, "a single search"),
        _ => (FARM, "--jumbles N"),
    };
    Ok(vec![deployment, shape])
}

const PROGRAM: Program = Program {
    synopsis: "fastdnaml --input data.phy [options]",
    flags: FLAGS,
    mode,
};

/// Write `text` to `--output` (default `-` = stdout).
fn emit_to(output: &str, text: &str) -> Result<(), String> {
    if output == "-" {
        println!("{text}");
        return Ok(());
    }
    std::fs::write(output, format!("{text}\n")).map_err(|e| format!("--output {output}: {e}"))
}

/// `--jumble-trees FILE`, the determinism artifact: every jumble's tree,
/// verbatim as the search produced it, one per line in seed order.
fn write_jumble_trees<'a>(
    args: &HashMap<String, String>,
    trees: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let Some(path) = args.get("jumble-trees") else {
        return Ok(());
    };
    let text: String = trees.flat_map(|tree| [tree, "\n"]).collect();
    std::fs::write(path, text).map_err(|e| format!("--jumble-trees {path}: {e}"))
}

/// `--serve`: run the daemon until killed. Never returns on success — the
/// scheduler thread owns the process from here.
fn serve_mode(args: &HashMap<String, String>, flags: &[String], quiet: bool) -> ExitCode {
    let Some(state_dir) = args.get("state-dir") else {
        return die("--serve requires --state-dir DIR");
    };
    let listen = args
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let mut options = ServeOptions::new(listen, get(args, "ranks", 4), state_dir);
    options.max_jobs = get(args, "max-jobs", 8);
    options.max_job_ranks = get(args, "max-job-ranks", 0);
    options.max_wall_ms = get(args, "max-wall-ms", 0);
    if flags.iter().any(|f| f == "spawn-workers") {
        options.spawn = Some(std::env::current_exe().expect("current executable path"));
    }
    options.sinks = match obs_sinks(args, false) {
        Ok(sinks) => sinks,
        Err(e) => return die(e),
    };
    let daemon = match Daemon::start(options) {
        Ok(d) => d,
        Err(e) => return die(format_args!("serve: {e}")),
    };
    let addr = daemon.local_addr();
    if let Some(path) = args.get("addr-file") {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            return die(format_args!("--addr-file {path}: {e}"));
        }
    }
    if !quiet {
        eprintln!("fastdnaml: serving jobs on {addr} (state in {state_dir})");
    }
    // The daemon runs until the process is killed; durable state makes
    // that a safe way to stop it.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `--status JOB`: one-line report from the daemon at `--connect`.
fn status_mode(connect: &str, job: u64) -> ExitCode {
    match client::status(connect, job) {
        Ok(status) => {
            let label = if status.label.is_empty() {
                String::new()
            } else {
                format!(" ({})", status.label)
            };
            let failure = match &status.failure {
                Some(reason) => format!(": {reason}"),
                None => String::new(),
            };
            println!(
                "job {}{label}: {} {}/{} jumbles{failure}",
                status.job, status.state, status.done, status.total
            );
            ExitCode::SUCCESS
        }
        Err(e) => die(format_args!("status: {e}")),
    }
}

/// `--attach JOB`: stream progress, then write the consensus (or the
/// single tree) like a local farm run would.
fn attach_mode(connect: &str, job: u64, args: &HashMap<String, String>, quiet: bool) -> ExitCode {
    let patience = Duration::from_millis(get(args, "attach-timeout-ms", 600_000u64));
    let mut on_event = |text: &str| {
        if !quiet {
            eprintln!("fastdnaml: job {job}: {text}");
        }
    };
    match client::attach(connect, job, patience, &mut on_event) {
        Ok(result) => {
            if !quiet {
                for tree in &result.trees {
                    eprintln!(
                        "fastdnaml: jumble {}: lnL {:.4}",
                        tree.seed, tree.ln_likelihood
                    );
                }
            }
            let best = result
                .consensus_newick
                .clone()
                .unwrap_or_else(|| result.best_newick.clone());
            let output = args.get("output").map(String::as_str).unwrap_or("-");
            done(
                write_jumble_trees(args, result.trees.iter().map(|t| t.newick.as_str()))
                    .and_then(|()| emit_to(output, &best)),
            )
        }
        Err(e) => die(format_args!("attach: {e}")),
    }
}

/// The one-line failure every bad invocation ends in.
fn die(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("fastdnaml: {why}");
    ExitCode::FAILURE
}

/// Success, or [`die`] with the error.
fn done(result: Result<(), String>) -> ExitCode {
    result.map_or_else(die, |()| ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let (args, flags) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => return die(e),
    };
    if flags.iter().any(|f| f == "help") {
        print!("{}", cli::help(&PROGRAM));
        return ExitCode::SUCCESS;
    }
    let quiet = flags.iter().any(|f| f == "quiet");

    // `--isa` narrows the kernel dispatch before any engine exists; it is
    // applied first so every mode — including `--net worker`, whose engine
    // config arrives over the wire — runs the requested lane.
    if let Some(name) = args.get("isa") {
        let Some(isa) = fastdnaml::likelihood::KernelIsa::parse(name) else {
            return die(format_args!(
                "--isa {name}: expected scalar, avx2, avx512, or neon"
            ));
        };
        if let Err(e) = fastdnaml::likelihood::isa::set_isa(Some(isa)) {
            return die(format_args!("--isa {name}: {e}"));
        }
    }

    // Chaos hook for the crash-recovery gate: die (sticky storage
    // failure, so the run aborts with the on-disk state a SIGKILL would
    // leave) at exactly the Nth durable-storage operation. The smoke in
    // ci.sh uses this to kill the coordinator at a WAL boundary
    // deterministically, then proves re-running the same command
    // recovers the byte-identical tree.
    if let Some(op) = args
        .get("chaos-storage-crash")
        .and_then(|op| op.parse().ok())
    {
        fastdnaml::chaos::storage::install(
            fastdnaml::chaos::storage::StoragePlan::quiet(0).crash_at(op),
        );
    }

    // Daemon mode: no alignment of its own — jobs bring their problem
    // data over the wire.
    if flags.iter().any(|f| f == "serve") {
        return serve_mode(&args, &flags, quiet);
    }

    // Client modes that only need a job id and the daemon address.
    if args.contains_key("status") || args.contains_key("attach") {
        let Some(connect) = args.get("connect") else {
            return die("--status / --attach require --connect ADDR");
        };
        if args.contains_key("status") {
            return status_mode(connect, get(&args, "status", 0));
        }
        return attach_mode(connect, get(&args, "attach", 0), &args, quiet);
    }

    // Peer mode: no alignment, no search options — everything (problem
    // data, engine configuration, rank) arrives from the coordinator over
    // the wire, like an MPI rank joining a job.
    if matches!(args.get("net").map(String::as_str), Some("worker" | "peer")) {
        let Some(connect) = args.get("connect") else {
            return die("--net worker requires --connect ADDR");
        };
        let sinks = match obs_sinks(&args, false) {
            Ok(sinks) => sinks,
            Err(e) => return die(e),
        };
        let die_after = args
            .get("die-after-tasks")
            .and_then(|v| v.parse::<u64>().ok());
        match run_net_peer(connect, sinks, die_after) {
            Ok((rank, stats)) => {
                if !quiet {
                    report!("fastdnaml: rank {rank} done: Worker({stats:?})");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                report!("fastdnaml: net worker: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(input) = args.get("input") else {
        return die("--input FILE is required (--help lists the flags)");
    };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => return die(format_args!("cannot read {input}: {e}")),
    };
    let alignment = match if flags.iter().any(|f| f == "fasta") {
        fasta::parse(&text)
    } else {
        phylip::parse(&text)
    } {
        Ok(a) => a,
        Err(e) => return die(format_args!("cannot parse {input}: {e}")),
    };
    if !quiet {
        eprintln!(
            "fastdnaml: {} taxa × {} sites",
            alignment.num_taxa(),
            alignment.num_sites()
        );
    }

    let radius: usize = get(&args, "radius", 1);
    let mut config = SearchConfig {
        jumble_seed: get(&args, "jumble", 1),
        rearrange_radius: radius,
        final_radius: get(&args, "final-radius", radius),
        tt_ratio: get(&args, "tt-ratio", 2.0),
        ..SearchConfig::default()
    };
    if let Some(ms) = args
        .get("worker-timeout-ms")
        .and_then(|v| v.parse::<u64>().ok())
    {
        config.worker_timeout = std::time::Duration::from_millis(ms);
    }
    if flags.iter().any(|f| f == "incremental") {
        config.incremental = true;
    }
    // `--no-incremental` wins if both are given: it is the escape hatch.
    if flags.iter().any(|f| f == "no-incremental") {
        config.incremental = false;
    }

    let jumbles: usize = get(&args, "jumbles", 1);

    // Category model from a dnarates report file.
    if let Some(path) = args.get("rates-file") {
        let report = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| fastdnaml::rates::parse_report(&text).map_err(|e| e.to_string()))
        {
            Ok(report) => report,
            Err(e) => return die(format_args!("--rates-file {path}: {e}")),
        };
        let patterns = fastdnaml::phylo::patterns::PatternAlignment::compress(&alignment);
        config.categories = Some(
            report
                .to_categories(&patterns)
                .normalized(patterns.weights()),
        );
        if !quiet {
            eprintln!(
                "fastdnaml: using {} rate categories from {path}",
                report.rates.len()
            );
        }
    }

    // Optional DNArates pre-pass: the single edit-scored search, in process.
    if let Some(k) = args.get("categories").and_then(|v| v.parse::<usize>().ok()) {
        if !quiet {
            eprintln!("fastdnaml: estimating {k} rate categories (DNArates pre-pass)…");
        }
        let engine = config.build_engine(&alignment);
        let pre_config = SearchConfig {
            incremental: true,
            ..config.clone()
        };
        let pre = ResolvedJob::single(alignment.clone(), pre_config);
        let pre = run_in_process(&pre, RunOptions::default());
        let tree = pre.and_then(|pre| pre.runs[0].tree(alignment.names()));
        let tree = match tree {
            Ok(tree) => tree,
            Err(e) => return die(format_args!("pre-pass search: {e}")),
        };
        let est = estimate_rates(&engine, &tree, &RateGrid::default());
        config.categories = Some(categorize(&est.per_pattern, engine.patterns().weights(), k));
    }

    // Submit mode: the spec goes to the daemon instead of running here.
    if flags.iter().any(|f| f == "submit") {
        let Some(connect) = args.get("connect") else {
            return die("--submit requires --connect ADDR");
        };
        // The spec carries the category model the pre-pass estimated.
        let spec = JobSpec {
            phylip: phylip::write(&alignment),
            config_json: config.engine_config_json(),
            jumbles,
            base_seed: config.jumble_seed,
            max_ranks: get(&args, "max-job-ranks", 0),
            max_wall_ms: get(&args, "max-wall-ms", 0),
            label: args.get("job-label").cloned().unwrap_or_default(),
        };
        return match client::submit(connect.as_str(), &spec) {
            Ok(job) => {
                if !quiet {
                    eprintln!("fastdnaml: submitted job {job} to {connect}");
                }
                println!("{job}");
                ExitCode::SUCCESS
            }
            Err(e) => die(format_args!("submit: {e}")),
        };
    }

    let output = args.get("output").map(String::as_str).unwrap_or("-");
    // Optional rooting of result trees (§1.1: rooting is a separate step
    // after the unrooted search).
    let outgroup = args.get("outgroup").map(|list| {
        list.split(',')
            .map(|name| alignment.taxon_id(name.trim()))
            .collect::<Result<Vec<u32>, _>>()
    });
    let outgroup = match outgroup.transpose() {
        Ok(outgroup) => outgroup,
        Err(e) => return die(format_args!("--outgroup: {e}")),
    };
    let midpoint = flags.iter().any(|f| f == "midpoint");
    let render_tree = |tree: &fastdnaml::phylo::tree::Tree| {
        use fastdnaml::phylo::rooting::{midpoint_root, root_at_outgroup};
        Ok::<_, fastdnaml::phylo::error::PhyloError>(if let Some(og) = &outgroup {
            newick::write(&root_at_outgroup(tree, og, alignment.names())?)
        } else if midpoint {
            newick::write(&midpoint_root(tree, alignment.names())?)
        } else {
            newick::write_tree(tree, alignment.names())
        })
    };

    // User-tree evaluation mode.
    if let Some(path) = args.get("user-trees") {
        let trees_text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return die(format_args!("--user-trees {path}: {e}")),
        };
        let newicks: Vec<String> = trees_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect();
        let evaluated = match evaluate_user_trees(&alignment, &config, &newicks) {
            Ok(evaluated) => evaluated,
            Err(e) => return die(format_args!("--user-trees {path}: {e}")),
        };
        for (i, e) in evaluated.iter().enumerate() {
            println!("tree {:>3}: lnL {:.4}", i + 1, e.ln_likelihood);
        }
        let Some(best) = evaluated
            .iter()
            .max_by(|a, b| a.ln_likelihood.total_cmp(&b.ln_likelihood))
        else {
            return die(format_args!("--user-trees {path}: no trees in the file"));
        };
        return match render_tree(&best.tree) {
            Ok(text) => done(emit_to(output, &text)),
            Err(e) => die(format_args!("rooting: {e}")),
        };
    }

    // Bootstrap mode.
    if let Some(n) = args.get("bootstrap").and_then(|v| v.parse::<usize>().ok()) {
        if !quiet {
            eprintln!("fastdnaml: {n} bootstrap replicates…");
        }
        let cons = match bootstrap_analysis(&alignment, &config, n, config.jumble_seed) {
            Ok((_, cons)) => cons,
            Err(e) => return die(format_args!("bootstrap: {e}")),
        };
        if let Err(e) = emit_to(output, &newick::write(&cons.tree)) {
            return die(e);
        }
        if !quiet {
            eprintln!(
                "fastdnaml: consensus has {} splits above 50%",
                cons.splits.len()
            );
        }
        return ExitCode::SUCCESS;
    }

    // The resolved job drives every remaining mode: alignment + config +
    // planned seeds, the same value the daemon builds from a submitted
    // spec. One seed is the single search, several a jumble farm with an
    // incremental majority-rule consensus; either is one job, in a
    // manifest beside its round logs under --wal-dir.
    let job = match ResolvedJob::from_parts(alignment.clone(), config.clone(), jumbles) {
        Ok(job) => job,
        Err(e) => return die(e),
    };
    let obs_summary = flags.iter().any(|f| f == "obs-summary");
    let options = RunOptions {
        wal_dir: args.get("wal-dir").map(std::path::PathBuf::from),
        width: get(&args, "farm-width", 0),
        sinks: match obs_sinks(&args, obs_summary) {
            Ok(sinks) => sinks,
            Err(e) => return die(e),
        },
    };

    // The deployment, picked once: multi-process (coordinator: peers join
    // from elsewhere; spawn: the coordinator forks its own local peers),
    // threaded, or in process.
    let threads = args.get("parallel").and_then(|v| v.parse::<usize>().ok());
    let outcome = match (args.get("net"), threads) {
        (Some(mode), _) => {
            let net = net_options(mode, &args, &flags);
            if !quiet {
                eprintln!(
                    "fastdnaml: net {mode}: {} jumble(s) over {} ranks via {}",
                    job.seeds.len(),
                    net.num_ranks,
                    net.listen
                );
            }
            run_net(&job, net, options)
        }
        (None, Some(ranks)) => run_threaded(&job, ranks, options),
        (None, None) => run_in_process(&job, options),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => return die(format_args!("search: {e}")),
    };
    if obs_summary {
        match &outcome.report {
            Some(report) => println!("{report}"),
            None => eprintln!("fastdnaml: no observability data collected"),
        }
    }
    if !quiet {
        for r in &outcome.runs {
            eprintln!(
                "fastdnaml: jumble {}: lnL {:.4} after {} candidate trees in {} rounds{}",
                r.seed,
                r.ln_likelihood,
                r.candidates,
                r.rounds,
                if r.reused { " (resumed)" } else { "" }
            );
        }
        if threads.is_some() || args.contains_key("net") {
            let foreman = outcome.foreman;
            eprintln!(
                "fastdnaml: {} tasks, {} timeouts, {} frames relayed",
                foreman.results_forwarded, foreman.timeouts, outcome.relayed
            );
        }
        report_peer_exits(&outcome.peer_exits);
    }

    // One jumble prints its tree, rooted as asked; several print their
    // consensus. Either way the text comes from the run's record, so a
    // re-run answered from the manifest prints the same bytes.
    let [single] = &outcome.runs[..] else {
        let cons = &outcome.consensus;
        if !quiet {
            eprintln!(
                "fastdnaml: consensus of {} jumbles has {} splits above 50%",
                outcome.runs.len(),
                cons.splits.len()
            );
        }
        let trees = outcome.runs.iter().map(|r| r.newick.as_str());
        return done(
            write_jumble_trees(&args, trees)
                .and_then(|()| emit_to(output, &newick::write(&cons.tree))),
        );
    };
    let text = if outgroup.is_none() && !midpoint {
        Ok(single.newick.clone())
    } else {
        single.tree(alignment.names()).and_then(|t| render_tree(&t))
    };
    match text {
        Ok(text) => done(
            write_jumble_trees(&args, std::iter::once(single.newick.as_str()))
                .and_then(|()| emit_to(output, &text)),
        ),
        Err(e) => die(format_args!("rooting: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<cli::Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn no_flag_is_listed_twice() {
        let mut names: Vec<&str> = FLAGS.iter().map(|flag| flag.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FLAGS.len());
    }

    #[test]
    fn the_parser_takes_what_the_table_lists_and_nothing_else() {
        let (values, flags) =
            parse("--input a.phy --net spawn 5 --wire binary --incremental --quiet").unwrap();
        assert_eq!(values["net"], "spawn");
        assert_eq!(values["ranks"], "5", "spawn's operand rides in as --ranks");
        assert_eq!(values["wire"], "binary");
        assert_eq!(flags, ["incremental", "quiet"]);
        let (values, _) = parse("--net spawn --ranks 6 --output -").unwrap();
        assert_eq!(
            (values["ranks"].as_str(), values["output"].as_str()),
            ("6", "-")
        );
        for (line, named) in [
            ("--incrmental", "--incrmental"),
            ("--quiet yes", "yes"),
            ("--radius", "--radius expects a value"),
            ("--radius -1", "--radius -1"),
            ("--jumbles 2.5", "--jumbles 2.5"),
            ("--net spawn five", "five"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
