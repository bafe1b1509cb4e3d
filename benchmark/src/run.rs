//! Running one workload: set-up, the timed end-to-end runs with their
//! output checks, and the traced run with its layer probes.

use crate::launch::{self, Daemon, Finished};
use crate::obslog::{self, CoreMetrics};
use crate::probes::{self, Scorer};
use crate::trace::Tracer;
use crate::workloads::{Deploy, Workload, JUMBLE, QUICK_TAXA, RANKS, SITES};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Timed runs per invocation, at least (their median is reported).
const MIN_REPEATS: usize = 2;
/// Set-ups per invocation, at least (the fastest is reported). They are
/// sampled for [`SETUP_WINDOW`] before each timed run and once more at the
/// end: a millisecond of work is at the mercy of whatever else the host
/// does in that millisecond, so the samples are spread over the invocation.
const SETUP_SAMPLES: usize = 15;
const SETUP_WINDOW: Duration = Duration::from_millis(200);
/// `--status` polls behind `serve.status_ms`, at least.
const STATUS_POLLS: usize = 20;
/// Relative tolerance of the golden and cross-path lnL checks.
const LNL_TOLERANCE: f64 = 1e-6;

/// What an invocation runs against.
pub struct Context {
    /// The release `fastdnaml` binary.
    pub program: PathBuf,
    /// `benchmark/out`: run directories, traces, logs of failed runs.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Smoke size: 12 taxa everywhere, results not comparable.
    pub quick: bool,
    /// lnL per workload at full size, from `benchmark/golden.json`.
    pub golden: BTreeMap<String, f64>,
    /// Run directories handed out so far.
    pub runs: AtomicU32,
}

/// A per-run scratch directory: removed on drop, or moved under
/// `out/failed/` when the run failed.
struct RunDir {
    path: PathBuf,
    keep_as: Option<PathBuf>,
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = match &self.keep_as {
            Some(dest) => fs::create_dir_all(dest.parent().expect("kept under out/failed"))
                .and_then(|()| fs::rename(&self.path, dest)),
            None => fs::remove_dir_all(&self.path),
        };
    }
}

/// A generated input, and for the service workload a running daemon.
struct Prepared {
    // Declared before `dir`: the daemon must be gone before its state
    // directory is removed.
    daemon: Option<Daemon>,
    daemon_start_ms: f64,
    /// The probe engine over the generated file, for the output check.
    scorer: Scorer,
    input: PathBuf,
    dir: RunDir,
}

impl Prepared {
    fn path(&self, file: &str) -> PathBuf {
        self.dir.path.join(file)
    }
}

/// The result of one end-to-end run that passed its output check.
pub struct Outcome {
    /// Wall seconds from launching the command until the tree was written
    /// and the process had exited.
    pub seconds: f64,
    /// The final tree (or consensus) file.
    pub tree: String,
    /// A tree with branch lengths for the probes: `tree`, or the best
    /// jumble tree of a farm.
    pub best_tree: String,
    /// Its log-likelihood, recomputed by the probe engine.
    pub lnl: f64,
    /// Peak resident set of the coordinator, when sampled.
    pub peak_rss_mb: Option<f64>,
    /// Service timings, on the daemon path.
    pub serve: Option<ServeTimes>,
}

/// Client-visible latencies of the daemon.
#[derive(Clone, Copy)]
pub struct ServeTimes {
    pub daemon_start_ms: f64,
    pub submit_ack_ms: f64,
    /// Median `--status` round trip; zero unless polled.
    pub status_ms: f64,
}

/// What the untraced repeats of one workload measured.
pub struct Measured {
    pub time_to_tree_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// lnL of the output tree, recomputed by the probe engine.
    pub lnl: Option<f64>,
}

/// The lower median: the middle sample, or of an even number the lower of
/// the middle two. Interference on a shared host only ever slows a run, so
/// of two repeats the faster is the better estimate.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The fastest sample. Set-up is a millisecond of allocation-heavy work,
/// and on the reference host it runs in two modes 1.5x apart that
/// alternate every few hundred milliseconds whatever the code does: the
/// median flips between them from one invocation to the next, and when the
/// host is busy even the fast decile does (it spread 14-27 %). The fastest
/// of ~400 samples moved 3 %, and work added to set-up still raises it.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

impl Context {
    fn taxa(&self, w: &Workload) -> usize {
        if self.quick {
            QUICK_TAXA
        } else {
            w.taxa
        }
    }

    fn new_run_dir(&self) -> Result<RunDir, String> {
        let n = self.runs.fetch_add(1, Ordering::Relaxed);
        let path = self.out_dir.join(format!("run_{}_{n}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir {
            path,
            keep_as: None,
        })
    }

    /// Everything the benchmark does before the clock of a run starts:
    /// generate the alignment, write it as PHYLIP, read it back into the
    /// engine that will check the output, and on the service path start
    /// the daemon and wait until its fleet has joined.
    fn prepare(&self, taxa: usize, deploy: Deploy, daemon_obs: bool) -> Result<Prepared, String> {
        let mut dir = self.new_run_dir()?;
        let input = dir.path.join("data.phy");
        fs::write(&input, probes::generate_phylip(taxa, SITES, self.seed))
            .map_err(|e| format!("{}: {e}", input.display()))?;
        let scorer = fs::read_to_string(&input)
            .map_err(|e| e.to_string())
            .and_then(|t| Scorer::new(&t))?;
        let start = Instant::now();
        let daemon = match deploy {
            Deploy::Serve => {
                let obs = dir.path.join("daemon_obs.jsonl");
                let obs = daemon_obs.then_some(obs.as_path());
                match Daemon::start(&self.program, &dir.path, RANKS, obs) {
                    Ok(daemon) => Some(daemon),
                    Err(e) => {
                        dir.keep_as = Some(self.failed_dir("daemon_start"));
                        return Err(e);
                    }
                }
            }
            _ => None,
        };
        Ok(Prepared {
            daemon,
            daemon_start_ms: start.elapsed().as_secs_f64() * 1e3,
            scorer,
            input,
            dir,
        })
    }

    fn failed_dir(&self, what: &str) -> PathBuf {
        self.out_dir
            .join("failed")
            .join(format!("{what}_{}", self.runs.load(Ordering::Relaxed)))
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.arg("--quiet");
        cmd
    }

    /// One search through the command line, as a user would start it.
    fn search(
        &self,
        prep: &Prepared,
        deploy: Deploy,
        job: &[&str],
        obs_out: Option<&Path>,
        sample_rss: bool,
    ) -> Result<Finished, String> {
        let mut cmd = self.command();
        cmd.arg("--input").arg(&prep.input);
        cmd.args(["--jumble", JUMBLE, "--radius", "1"]);
        cmd.arg("--output").arg(prep.path("out.nwk"));
        cmd.args(deploy.flags()).args(job);
        if job.contains(&"--jumbles") {
            cmd.arg("--jumble-trees").arg(prep.path("trees.txt"));
        }
        if let Some(path) = obs_out {
            cmd.arg("--obs-out").arg(path);
        }
        launch::run(&mut cmd, &prep.dir.path, "search", sample_rss)
    }

    /// One job through the daemon: `--submit`, then `--attach` until the
    /// consensus is written. With `poll`, `--status` is timed meanwhile.
    fn serve_job(
        &self,
        prep: &Prepared,
        job: &[&str],
        poll: bool,
    ) -> Result<(f64, ServeTimes), String> {
        let daemon = prep
            .daemon
            .as_ref()
            .expect("the service path prepares a daemon");
        let dir = &prep.dir.path;
        let start = Instant::now();
        let mut submit = self.command();
        submit.args(["--submit", "--connect", &daemon.addr]);
        submit.arg("--input").arg(&prep.input);
        submit.args(["--jumble", JUMBLE, "--radius", "1"]).args(job);
        let submitted = launch::run(&mut submit, dir, "submit", false)?;
        let job_id = submitted.stdout.trim().to_string();

        let mut attach = self.command();
        attach.args(["--attach", &job_id, "--connect", &daemon.addr]);
        attach.arg("--output").arg(prep.path("out.nwk"));
        attach.arg("--jumble-trees").arg(prep.path("trees.txt"));
        let attached = AtomicBool::new(false);
        let (finished, polls) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut polls = Vec::new();
                while poll && (polls.len() < STATUS_POLLS || !attached.load(Ordering::SeqCst)) {
                    let mut status = self.command();
                    status.args(["--status", &job_id, "--connect", &daemon.addr]);
                    polls.push(
                        launch::run(&mut status, dir, "status", false)
                            .map(|f| f.wall.as_secs_f64() * 1e3),
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                polls
            });
            let finished = launch::run(&mut attach, dir, "attach", false);
            attached.store(true, Ordering::SeqCst);
            (
                finished,
                poller.join().expect("status poller does not panic"),
            )
        });
        let seconds = (finished?.ended - start).as_secs_f64();
        let polls = polls.into_iter().collect::<Result<Vec<f64>, String>>()?;
        let times = ServeTimes {
            daemon_start_ms: prep.daemon_start_ms,
            submit_ack_ms: submitted.wall.as_secs_f64() * 1e3,
            status_ms: if poll { median(&polls) } else { 0.0 },
        };
        Ok((seconds, times))
    }

    /// Run `w` once on `deploy` (its own path, or the threaded companion)
    /// and check what it wrote.
    fn execute(
        &self,
        w: &Workload,
        deploy: Deploy,
        prep: &Prepared,
        obs_out: Option<&Path>,
        traced: bool,
    ) -> Result<Outcome, String> {
        let scorer = &prep.scorer;
        let (seconds, peak_rss_mb, serve) = match deploy {
            Deploy::Serve => {
                let (seconds, times) = self.serve_job(prep, w.job, traced)?;
                let peak = prep.daemon.as_ref().and_then(Daemon::peak_rss_mb);
                (seconds, peak.filter(|_| traced), Some(times))
            }
            _ => {
                let run = self.search(prep, deploy, w.job, obs_out, traced)?;
                (run.wall.as_secs_f64(), run.peak_rss_mb, None)
            }
        };
        let tree =
            fs::read_to_string(prep.path("out.nwk")).map_err(|e| format!("no output tree: {e}"))?;
        // A farm's final file is a consensus without branch lengths; its
        // likelihood check runs on the per-jumble trees.
        let farm_trees = fs::read_to_string(prep.path("trees.txt"))
            .ok()
            .filter(|_| w.job.contains(&"--jumbles"));
        let (best_tree, lnl) = match farm_trees {
            None => (tree.clone(), scorer.ln_likelihood(&tree)?),
            Some(trees) => {
                scorer.check_taxa(&tree)?;
                let mut best: Option<(String, f64)> = None;
                for line in trees.lines() {
                    let lnl = scorer.ln_likelihood(line)?;
                    if best.as_ref().is_none_or(|(_, b)| lnl > *b) {
                        best = Some((line.to_string(), lnl));
                    }
                }
                best.ok_or("the farm wrote no jumble tree")?
            }
        };
        if let Some(&golden) = self.golden.get(w.name).filter(|_| !self.quick) {
            if ((lnl - golden) / golden).abs() > LNL_TOLERANCE {
                return Err(format!("lnL {lnl} is not the golden {golden}"));
            }
        }
        Ok(Outcome {
            seconds,
            tree,
            best_tree,
            lnl,
            peak_rss_mb,
            serve,
        })
    }

    /// Set up, run and check `w` once. A failed run keeps its directory
    /// (stdout, stderr, partial outputs) under `out/failed/`.
    fn attempt(
        &self,
        w: &Workload,
        deploy: Deploy,
        tag: &str,
        obs: bool,
        traced: bool,
    ) -> Result<(f64, Outcome, Option<CoreMetrics>), String> {
        let start = Instant::now();
        let mut prep = self.prepare(self.taxa(w), deploy, obs)?;
        let setup_s = start.elapsed().as_secs_f64();
        let obs_out = (obs && deploy != Deploy::Serve).then(|| prep.path("obs.jsonl"));
        let result = self
            .execute(w, deploy, &prep, obs_out.as_deref(), traced)
            .and_then(|outcome| {
                let core = match &obs_out {
                    Some(path) if deploy == Deploy::Threads => Some(obslog::core_metrics(path)?),
                    _ => None,
                };
                Ok((setup_s, outcome, core))
            });
        // Stop the daemon here rather than on drop, so that a fleet that
        // survives being killed fails the run.
        let stopped = prep.daemon.take().map_or(Ok(()), Daemon::stop);
        let result = result.and_then(|r| stopped.map(|()| r));
        if result.is_err() {
            prep.dir.keep_as = Some(self.failed_dir(&format!("{}_{tag}", w.name)));
        }
        result
    }

    /// The untraced runs: repeat `w` until `seconds` have passed (at least
    /// twice), or exactly `repeats` times.
    pub fn measure(&self, w: &Workload, seconds: f64, repeats: Option<usize>) -> Measured {
        let mut m = Measured {
            time_to_tree_s: Vec::new(),
            setup_s: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            lnl: None,
        };
        let began = Instant::now();
        while match repeats {
            Some(n) => m.attempted < n,
            None => m.attempted < MIN_REPEATS || began.elapsed().as_secs_f64() < seconds,
        } {
            self.sample_setup(w, &mut m, 0);
            m.attempted += 1;
            match self.attempt(w, w.deploy, "run", false, false) {
                Ok((setup_s, outcome, _)) => {
                    m.setup_s.push(setup_s);
                    m.time_to_tree_s.push(outcome.seconds);
                    let first = *m.lnl.get_or_insert(outcome.lnl);
                    if first.to_bits() != outcome.lnl.to_bits() {
                        m.failures.push(format!(
                            "lnL differs between repeats: {first} then {}",
                            outcome.lnl
                        ));
                    }
                }
                Err(e) => m.failures.push(e),
            }
        }
        self.sample_setup(w, &mut m, SETUP_SAMPLES);
        m
    }

    /// Set up and tear down again, for [`SETUP_WINDOW`] and until `m` holds
    /// `at_least` samples. Stops at the first failure.
    fn sample_setup(&self, w: &Workload, m: &mut Measured, at_least: usize) {
        let began = Instant::now();
        while m.failures.is_empty()
            && (began.elapsed() < SETUP_WINDOW || m.setup_s.len() < at_least)
        {
            let start = Instant::now();
            match self.prepare(self.taxa(w), w.deploy, false) {
                Ok(_) => m.setup_s.push(start.elapsed().as_secs_f64()),
                Err(e) => m.failures.push(e),
            }
        }
    }

    /// The traced run: `w` once untraced and once with `--obs-out`, the
    /// threaded companion where `w`'s own path has no in-process foreman
    /// to observe, and the probes of every layer on `w`'s own input and
    /// output. Returns the per-layer metrics by name.
    pub fn trace(&self, w: &Workload) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut tracer = Tracer::new(w.name);
        let metrics = tracer.span("traced_run", "harness", |t| self.trace_spans(w, t));
        let self_times = tracer.self_time_by_layer();
        println!("self time by layer (span minus children), seconds:");
        for (layer, secs) in &self_times {
            println!("  {layer:<12} {secs:>9.4}");
        }
        let path = self.out_dir.join(format!("trace_{}.json", w.name));
        let text = serde_json::to_string(&tracer.to_json()).map_err(|e| e.to_string())?;
        fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        let mut metrics = metrics?;
        metrics.insert("trace.coverage", tracer.coverage());
        Ok(metrics)
    }

    fn trace_spans(
        &self,
        w: &Workload,
        t: &mut Tracer,
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut out = BTreeMap::new();
        let (_, plain, _) = t.span("run_untraced", "fastdnaml", |_| {
            self.attempt(w, w.deploy, "untraced", false, false)
        })?;
        let (_, traced, own_core) = t.span("run_traced", "fastdnaml", |_| {
            self.attempt(w, w.deploy, "traced", true, true)
        })?;
        if traced.lnl.to_bits() != plain.lnl.to_bits() {
            return Err(format!(
                "lnL differs with --obs-out: {} vs {}",
                plain.lnl, traced.lnl
            ));
        }
        out.insert(
            "obs.overhead_pct",
            (traced.seconds / plain.seconds - 1.0) * 100.0,
        );
        out.insert(
            "core.coordinator_peak_rss_mb",
            traced.peak_rss_mb.unwrap_or(0.0),
        );

        // Off the threaded path the foreman runs in another process (or
        // not at all) and the coordinator's log has none of its events:
        // the core layer is then observed on the same job run threaded,
        // which must also find the same tree.
        let core = match own_core {
            Some(core) => core,
            None => {
                let (_, companion, core) = t.span("run_threaded_companion", "fastdnaml", |_| {
                    self.attempt(w, Deploy::Threads, "companion", true, true)
                })?;
                if w.deploy == Deploy::Net && companion.tree != traced.tree {
                    return Err("--net spawn and --parallel wrote different trees".into());
                }
                if ((companion.lnl - traced.lnl) / traced.lnl).abs() > LNL_TOLERANCE {
                    return Err(format!(
                        "lnL differs across paths: {} here, {} threaded",
                        traced.lnl, companion.lnl
                    ));
                }
                core.expect("a threaded run with --obs-out yields core metrics")
            }
        };
        println!(
            "core: foreman service time p50 {} us, mean {:.1} us",
            core.foreman_service_us_p50, core.foreman_service_us
        );
        out.insert("core.tasks_dispatched", core.tasks_dispatched as f64);
        out.insert("core.rounds", core.rounds as f64);
        out.insert("core.worker_utilization", core.worker_utilization);
        out.insert("core.master_serial_share", core.master_serial_share);
        out.insert("core.foreman_service_us", core.foreman_service_us);
        out.insert("core.max_queue_depth", core.max_queue_depth as f64);

        // Leaf-layer probes on this workload's own alignment and tree.
        let prep = t.span("generate", "datagen", |_| {
            self.prepare(self.taxa(w), Deploy::Serial, false)
        })?;
        let phylip = fs::read_to_string(&prep.input).map_err(|e| e.to_string())?;
        out.insert(
            "phylo.parse_ms",
            t.span("parse", "phylo", |_| probes::parse_ms(&phylip, 20)),
        );
        let scorer = &prep.scorer;
        let lik = t.span("likelihood", "likelihood", |_| {
            scorer.likelihood_probe(&traced.best_tree)
        })?;
        out.insert(
            "likelihood.evaluate_ns_per_pattern",
            lik.evaluate_ns_per_pattern,
        );
        out.insert("likelihood.optimize_ms_per_tree", lik.optimize_ms_per_tree);
        out.insert(
            "likelihood.optimize_pattern_updates",
            lik.optimize_pattern_updates as f64,
        );
        out.insert("likelihood.score_edit_us", lik.score_edit_us);
        let (binary, json) = t.span("codecs", "wire", |_| {
            scorer.wire_probe(w.shape, &traced.best_tree)
        })?;
        out.insert("wire.bytes_per_task", binary.bytes_per_task as f64);
        out.insert("wire.encode_ns", binary.encode_ns);
        out.insert("wire.decode_ns", binary.decode_ns);
        out.insert("wire.json_bytes_per_task", json.bytes_per_task as f64);
        out.insert("wire.json_encode_ns", json.encode_ns);
        out.insert("wire.json_decode_ns", json.decode_ns);
        let (write_ms, append_us) = t
            .span("storage", "durable", |_| {
                probes::durable_probe(&prep.dir.path)
            })
            .map_err(|e| format!("durable probe: {e}"))?;
        out.insert("durable.atomic_write_ms", write_ms);
        out.insert("durable.log_append_us", append_us);

        // Fixed cost of launching the process fleet: a search too small to
        // take any time itself.
        let spawn_ms = t.span("spawn_fleet", "net", |_| -> Result<f64, String> {
            let tiny = self.prepare(6, Deploy::Net, false)?;
            let mut walls = Vec::new();
            for _ in 0..3 {
                let run = self.search(&tiny, Deploy::Net, &[], None, false)?;
                walls.push(run.wall.as_secs_f64() * 1e3);
            }
            Ok(median(&walls))
        })?;
        out.insert("net.spawn_ms", spawn_ms);

        // The daemon's client-visible latencies: from this workload's own
        // job on the service path, else from one jumble of its alignment.
        let serve = match traced.serve {
            Some(times) => times,
            None => t.span("daemon_job", "serve", |_| -> Result<ServeTimes, String> {
                let prep = self.prepare(self.taxa(w), Deploy::Serve, false)?;
                Ok(self.serve_job(&prep, &["--jumbles", "1"], true)?.1)
            })?,
        };
        out.insert("serve.daemon_start_ms", serve.daemon_start_ms);
        out.insert("serve.submit_ack_ms", serve.submit_ack_ms);
        out.insert("serve.status_ms", serve.status_ms);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_pick_from_the_fast_side() {
        assert_eq!(median(&[3.0, 1.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(fastest(&[5.0, 3.0, 4.0]), 3.0);
        assert!(fastest(&[]).is_nan());
    }
}
