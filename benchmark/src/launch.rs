//! Starting, timing and stopping `fastdnaml` processes.
//!
//! Every launch gets a process group of its own, so that whatever it forks
//! (`--net spawn` peers, the daemon's worker fleet) can be killed with it
//! and checked to be gone afterwards, by pid.

use std::fs::{self, File};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Wall limit of one program run; a run that exceeds it is killed and
/// counted as failed.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(120);

const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Kill every process of a group. The group may already be empty.
fn kill_group(pgid: u32) {
    // SAFETY: kill(2) takes two integers and touches no memory of ours; a
    // negative pid addresses the process group this module created.
    unsafe {
        kill(-(pgid as i32), SIGKILL);
    }
}

/// Pids of the live (non-zombie) members of a process group, from /proc.
fn group_members(pgid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // "pid (comm) state ppid pgrp ...": comm may contain spaces, so
            // split after its closing parenthesis.
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat.rsplit_once(')')?.1;
                    let mut fields = rest.split_whitespace();
                    let state = fields.next()?;
                    let pgrp = fields.nth(1)?.parse::<u32>().ok()?;
                    Some(state != "Z" && pgrp == pgid)
                })
                .unwrap_or(false)
        })
        .collect()
}

/// Kill a group and wait until none of its members is left.
fn reap_group(pgid: u32) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = group_members(pgid);
        if left.is_empty() {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "processes {left:?} of group {pgid} survived SIGKILL"
            ));
        }
        kill_group(pgid);
        thread::sleep(Duration::from_millis(5));
    }
}

/// Peak resident set of a live process in MB (`VmHWM`), if still readable.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Spawn `cmd` in a new process group with its output in `dir`.
fn spawn_logged(cmd: &mut Command, dir: &Path, tag: &str) -> Result<Child, String> {
    let out = File::create(dir.join(format!("{tag}.stdout"))).map_err(|e| e.to_string())?;
    let err = File::create(dir.join(format!("{tag}.stderr"))).map_err(|e| e.to_string())?;
    cmd.stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))
}

/// A finished run of the program.
pub struct Finished {
    /// Wall time from spawn until the process had exited.
    pub wall: Duration,
    /// When it had exited.
    pub ended: Instant,
    /// Its standard output.
    pub stdout: String,
    /// Its standard error (progress lines go here).
    pub stderr: String,
    /// `VmHWM` of the launched pid, sampled while it ran (only when asked).
    pub peak_rss_mb: Option<f64>,
}

/// Run `cmd` to completion. Errors: it could not start, exited non-zero,
/// ran past [`RUN_TIMEOUT`], or left processes behind. In every case its
/// whole process group is gone when this returns; `{tag}.stdout` and
/// `{tag}.stderr` stay in `dir`.
pub fn run(cmd: &mut Command, dir: &Path, tag: &str, sample_rss: bool) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = spawn_logged(cmd, dir, tag)?;
    let pid = child.id();

    // The main thread blocks in wait(); this one enforces the time limit
    // and, for a traced run, samples the peak resident set.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        let mut peak = None;
        let tick = if sample_rss {
            Duration::from_millis(50)
        } else {
            RUN_TIMEOUT
        };
        loop {
            match done_rx.recv_timeout(tick) {
                Err(RecvTimeoutError::Timeout) if start.elapsed() >= RUN_TIMEOUT => {
                    kill_group(pid);
                    return (true, peak);
                }
                Err(RecvTimeoutError::Timeout) => peak = peak_rss_mb(pid).or(peak),
                _ => return (false, peak),
            }
        }
    });
    let status = child.wait();
    let ended = Instant::now();
    let _ = done_tx.send(());
    let (timed_out, peak_rss_mb) = watchdog.join().expect("watchdog thread does not panic");

    // Forked peers get a moment to finish exiting on their own before
    // they count as left behind.
    let grace = Instant::now() + Duration::from_secs(2);
    let mut orphans = group_members(pid);
    while !orphans.is_empty() && Instant::now() < grace {
        thread::sleep(Duration::from_millis(5));
        orphans = group_members(pid);
    }
    reap_group(pid)?;
    let read = |ext: &str| fs::read_to_string(dir.join(format!("{tag}.{ext}"))).unwrap_or_default();
    let finished = Finished {
        wall: ended - start,
        ended,
        stdout: read("stdout"),
        stderr: read("stderr"),
        peak_rss_mb,
    };
    let status = status.map_err(|e| format!("{tag}: wait failed: {e}"))?;
    if timed_out {
        Err(format!("{tag}: killed after {} s", RUN_TIMEOUT.as_secs()))
    } else if !status.success() {
        let last = finished.stderr.lines().last().unwrap_or("");
        Err(format!("{tag}: {status}: {last}"))
    } else if !orphans.is_empty() {
        Err(format!(
            "{tag}: exited leaving processes {orphans:?} behind"
        ))
    } else {
        Ok(finished)
    }
}

/// A running `--serve` daemon with its spawned worker fleet.
pub struct Daemon {
    child: Child,
    /// The address it bound, as `--connect` takes it.
    pub addr: String,
}

impl Daemon {
    /// Start the daemon on an ephemeral loopback port and wait until its
    /// `ranks - 3` spawned workers have connected.
    pub fn start(
        program: &Path,
        dir: &Path,
        ranks: usize,
        obs_out: Option<&Path>,
    ) -> Result<Daemon, String> {
        let addr_file = dir.join("daemon.addr");
        let mut cmd = Command::new(program);
        cmd.args(["--serve", "--spawn-workers", "--quiet"])
            .args(["--listen", "127.0.0.1:0", "--ranks", &ranks.to_string()])
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--addr-file")
            .arg(&addr_file);
        if let Some(path) = obs_out {
            cmd.arg("--obs-out").arg(path);
        }
        let child = spawn_logged(&mut cmd, dir, "daemon")?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        // Scheduler, monitor and each worker hold one connection to the hub.
        let expected = ranks - 1;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if daemon.addr.is_empty() {
                daemon.addr = fs::read_to_string(&addr_file)
                    .unwrap_or_default()
                    .trim()
                    .to_string();
            }
            let joined = daemon
                .addr
                .rsplit_once(':')
                .and_then(|(_, p)| p.parse().ok())
                .map(established_to);
            if joined >= Some(expected) {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "daemon fleet incomplete after 20 s: {joined:?} of {expected} connections"
                ));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's pid (its `VmHWM` is the coordinator's peak memory).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Kill the daemon and its fleet, and check by pid that they are gone.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        let pgid = self.child.id();
        kill_group(pgid);
        let _ = self.child.wait();
        reap_group(pgid)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// Established loopback connections whose remote end is `port`.
fn established_to(port: u16) -> usize {
    const ESTABLISHED: &str = "01";
    fs::read_to_string("/proc/net/tcp")
        .unwrap_or_default()
        .lines()
        .skip(1)
        .filter(|line| {
            let mut f = line.split_whitespace();
            let remote = f.nth(2).and_then(|a| a.rsplit_once(':'));
            let remote_port = remote.and_then(|(_, p)| u16::from_str_radix(p, 16).ok());
            remote_port == Some(port) && f.next() == Some(ESTABLISHED)
        })
        .count()
}
