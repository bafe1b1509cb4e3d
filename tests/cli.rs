//! Integration tests of the two command-line programs, driven end-to-end
//! through their real binaries.

use std::path::{Path, PathBuf};
use std::process::Command;

const PHYLIP: &str = "\
6 40
t0        ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
t1        ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT
t2        ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT
t3        ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT
t4        TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA
t5        TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA
";

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdml_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("data.phy"), PHYLIP).expect("write alignment");
    dir
}

fn fastdnaml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastdnaml"))
}

fn dnarates() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnarates"))
}

#[test]
fn serial_search_emits_a_tree() {
    let dir = workdir("serial");
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--jumble", "7", "--radius", "2", "--quiet"])
        .output()
        .expect("run fastdnaml");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tree = String::from_utf8(out.stdout).expect("utf8");
    let ast = fastdnaml::phylo::newick::parse(tree.trim()).expect("valid Newick on stdout");
    assert_eq!(ast.leaf_names().len(), 6);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_killed_run_resumes_from_its_round_log_alone() {
    let dir = workdir("resume");
    let wal = dir.join("wal");
    let run = |extra: &[&str]| {
        fastdnaml()
            .args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", "9", "--quiet"])
            .args(extra)
            .output()
            .expect("run")
    };
    let plain = run(&[]);
    assert!(plain.status.success());
    // Killed at its sixth storage operation, the run leaves its log behind.
    let wal_arg = wal.to_str().unwrap();
    let killed = run(&["--wal-dir", wal_arg, "--chaos-storage-crash", "6"]);
    assert!(!killed.status.success(), "the crash must stop the run");
    assert_eq!(std::fs::read_dir(&wal).unwrap().count(), 1);
    // The same command again replays the log and prints the same tree.
    let resumed = run(&["--wal-dir", wal_arg]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, plain.stdout);
    assert_eq!(wal_files(&wal), ["manifest.json"], "log retired");
    std::fs::remove_dir_all(dir).ok();
}

/// A single search and a farm jumble of one seed share a log name. A
/// whole-tree `--jumble 7` run killed mid-search used to leave a log that a
/// later (edit-scored) `--jumbles 2` farm over the same directory replayed
/// into its jumble 7 without a word, printing another tree for it than a
/// clean farm. The log names its problem and scoring mode now: the farm
/// refuses it in one line naming the file, and leaves it to the search
/// that wrote it.
#[test]
fn a_farm_refuses_a_whole_tree_searchs_round_log_naming_it() {
    let dir = workdir("log_key");
    let wal = dir.join("wal");
    let wal_arg = wal.to_str().unwrap();
    let run = |extra: &[&str]| {
        fastdnaml()
            .args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", "7", "--quiet"])
            .args(extra)
            .output()
            .expect("run")
    };
    let killed = run(&["--wal-dir", wal_arg, "--chaos-storage-crash", "6"]);
    assert!(!killed.status.success(), "the crash must stop the run");
    let log = wal.join("jumble-7.wal");
    assert!(log.exists(), "the killed search leaves its log");
    let trees = dir.join("trees.txt");
    let trees_arg = trees.to_str().unwrap();
    let farm = run(&[
        "--jumbles",
        "2",
        "--wal-dir",
        wal_arg,
        "--jumble-trees",
        trees_arg,
    ]);
    let stderr = String::from_utf8(farm.stderr).unwrap();
    assert_eq!(farm.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("jumble-7.wal"), "{stderr}");
    assert!(farm.stdout.is_empty(), "the farm printed a tree");
    assert!(!trees.exists(), "the farm wrote jumble trees");
    assert!(log.exists(), "the refused log is kept");
    // The search that wrote it still resumes from it.
    let plain = run(&[]);
    let resumed = run(&["--wal-dir", wal_arg]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, plain.stdout);
    std::fs::remove_dir_all(dir).ok();
}

/// The checkpoint file's flags are gone; each says what replaced it rather
/// than reading as a typo.
#[test]
fn the_retired_checkpoint_flags_name_the_wal_dir() {
    let dir = workdir("retired");
    for flag in ["--checkpoint", "--checkpoint-out", "--resume"] {
        let line = one_line_failure(&dir, &[flag, "cp.json"]);
        assert!(line.contains(flag) && line.contains("--wal-dir"), "{line}");
        assert!(!dir.join("cp.json").exists());
    }
    // Runs no round log serves refuse one rather than ignore it.
    for (extra, first) in [
        (&["--bootstrap", "2", "--wal-dir", "w"][..], "--bootstrap"),
        (&["--submit", "--wal-dir", "w"][..], "--submit"),
    ] {
        let line = one_line_failure(&dir, extra);
        assert!(line.contains(first) && line.contains("--wal-dir"), "{line}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A bootstrap runs its replicates serially, edit-scored and without a
/// category model, and writes only the unrooted consensus: each flag it
/// would silently ignore is refused in one line naming both, and nothing
/// is written.
#[test]
fn a_bootstrap_refuses_the_flags_it_cannot_serve() {
    let dir = workdir("bootstrap_conflicts");
    let rates = dir.join("rates.txt");
    let out = dnarates()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--categories", "2", "--output"])
        .arg(&rates)
        .output()
        .expect("run dnarates");
    assert!(out.status.success());
    let file = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (obs, trees) = (file("o.jsonl"), file("t.txt"));
    let rates = rates.to_str().unwrap();
    for (extra, refused) in [
        (&["--parallel", "5"][..], "--parallel"),
        (&["--net", "spawn", "5"][..], "--net"),
        (&["--obs-out", &obs][..], "--obs-out"),
        (&["--jumble-trees", &trees][..], "--jumble-trees"),
        (&["--obs-summary"][..], "--obs-summary"),
        (&["--no-incremental"][..], "--no-incremental"),
        (&["--categories", "2"][..], "--categories"),
        (&["--rates-file", rates][..], "--rates-file"),
        (&["--outgroup", "t0"][..], "--outgroup"),
        (&["--midpoint"][..], "--midpoint"),
    ] {
        let args = [&["--bootstrap", "2"][..], extra].concat();
        let line = one_line_failure(&dir, &args);
        assert!(
            line.contains("--bootstrap") && line.contains(refused),
            "{line}"
        );
    }
    assert!(!Path::new(&obs).exists() && !Path::new(&trees).exists());
    std::fs::remove_dir_all(dir).ok();
}

/// User-tree evaluation scores the given trees in process and writes only
/// the best one: each flag it would silently ignore is refused in one line
/// naming both, and nothing is written.
#[test]
fn user_tree_evaluation_refuses_the_flags_it_cannot_serve() {
    let dir = workdir("user_tree_conflicts");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let user = file("user.nwk");
    std::fs::write(&user, "((t0,t1),(t2,t3),(t4,t5));\n").unwrap();
    let (obs, trees, wal) = (file("o.jsonl"), file("t.txt"), file("wal"));
    for (extra, refused) in [
        (&["--parallel", "5"][..], "--parallel"),
        (&["--net", "spawn", "4"][..], "--net"),
        (&["--obs-out", &obs][..], "--obs-out"),
        (&["--jumble-trees", &trees][..], "--jumble-trees"),
        (&["--wal-dir", &wal][..], "--wal-dir"),
        (&["--obs-summary"][..], "--obs-summary"),
    ] {
        let args = [&["--user-trees", &user][..], extra].concat();
        let line = one_line_failure(&dir, &args);
        assert!(
            line.contains("--user-trees") && line.contains(refused),
            "{line}"
        );
    }
    for path in [&obs, &trees, &wal] {
        assert!(!Path::new(path).exists(), "{path} was written");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// The best user tree is rooted as asked, like a search's tree.
#[test]
fn the_best_user_tree_is_rooted_as_asked() {
    let dir = workdir("user_tree_rooting");
    let user = dir.join("user.nwk");
    std::fs::write(&user, "((t0,t1),(t2,t3),(t4,t5));\n").unwrap();
    let run = |extra: &[&str]| -> String {
        let out = fastdnaml()
            .args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--quiet", "--user-trees"])
            .arg(&user)
            .args(extra)
            .output()
            .expect("run fastdnaml");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout.lines().last().unwrap().to_string()
    };
    // Unrooted: the trifurcation the search engine writes.
    let plain = fastdnaml::phylo::newick::parse(&run(&[])).unwrap();
    assert_eq!(plain.children.len(), 3);
    // Outgroup: two children at the root, one of them t0 alone.
    let rooted = fastdnaml::phylo::newick::parse(&run(&["--outgroup", "t0"])).unwrap();
    assert_eq!(rooted.children.len(), 2);
    assert!(rooted.children.iter().any(|c| c.leaf_names() == vec!["t0"]));
    // Midpoint: a rooted binary tree over all six taxa.
    let rooted = fastdnaml::phylo::newick::parse(&run(&["--midpoint"])).unwrap();
    assert_eq!(rooted.children.len(), 2);
    assert_eq!(rooted.leaf_names().len(), 6);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_foreign_or_garbled_farm_manifest_fails_cleanly_naming_the_file() {
    let dir = workdir("badfarm");
    let wal = dir.join("wal");
    let manifest = wal.join("manifest.json");
    let farm = |seed: &str, radius: &str| {
        fastdnaml()
            .args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", seed, "--jumbles", "3", "--radius", radius])
            .args(["--quiet", "--wal-dir"])
            .arg(&wal)
            .output()
            .expect("run")
    };
    let out = farm("1", "1");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(manifest.exists(), "the finished farm keeps its manifest");
    // Re-running under a different base seed plans a different seed set;
    // silently mixing the two farms would corrupt the consensus.
    let failure = |out: std::process::Output| {
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("manifest.json"), "{stderr}");
        stderr
    };
    assert!(failure(farm("11", "1")).contains("do not match"));
    // The same seeds under other settings are another farm: answering it
    // with the finished farm's trees would compute nothing.
    assert!(failure(farm("1", "2")).contains("another alignment or other settings"));
    // A garbled manifest is an error, not a silent re-run of every jumble.
    std::fs::write(&manifest, "{ not json").unwrap();
    assert!(failure(farm("1", "1")).contains("not a valid farm manifest"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn dnarates_report_feeds_fastdnaml() {
    let dir = workdir("rates");
    let rates = dir.join("rates.txt");
    let out = dnarates()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--categories", "3", "--output"])
        .arg(&rates)
        .output()
        .expect("run dnarates");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report_text = std::fs::read_to_string(&rates).expect("report written");
    let report = fastdnaml::rates::parse_report(&report_text).expect("parseable report");
    assert_eq!(report.per_site_rate.len(), 40);
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--rates-file"])
        .arg(&rates)
        .args(["--quiet"])
        .output()
        .expect("run fastdnaml with rates");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn missing_input_fails_cleanly() {
    let out = fastdnaml().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
    let out = fastdnaml()
        .args(["--input", "/nonexistent.phy"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn user_tree_mode_ranks_trees() {
    let dir = workdir("user");
    let trees = dir.join("trees.nwk");
    std::fs::write(
        &trees,
        "(t0:0.1,t1:0.1,(t2:0.1,(t3:0.1,(t4:0.1,t5:0.1):0.1):0.1):0.1);\n\
         (t0:0.1,t4:0.1,(t2:0.1,(t3:0.1,(t1:0.1,t5:0.1):0.1):0.1):0.1);\n",
    )
    .unwrap();
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--user-trees"])
        .arg(&trees)
        .args(["--quiet"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("tree   1"));
    assert!(stdout.contains("tree   2"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_single_search_writes_its_tree_to_the_jumble_trees_file() {
    let dir = workdir("single_trees");
    let trees = dir.join("trees.txt");
    // Rooted for print, verbatim in the file: line 1 is the search's tree.
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args([
            "--jumble",
            "7",
            "--outgroup",
            "t5",
            "--quiet",
            "--jumble-trees",
        ])
        .arg(&trees)
        .output()
        .expect("run fastdnaml");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plain = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--jumble", "7", "--quiet"])
        .output()
        .expect("run fastdnaml");
    let written = std::fs::read_to_string(&trees).expect("the --jumble-trees file");
    assert_eq!(written, String::from_utf8(plain.stdout).unwrap());
    assert_eq!(written.lines().count(), 1);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn outgroup_and_midpoint_rooting() {
    let dir = workdir("rooting");
    let run = |extra: &[&str]| -> String {
        let mut cmd = fastdnaml();
        cmd.args(["--input"])
            .arg(dir.join("data.phy"))
            .args(["--jumble", "7", "--quiet"]);
        for a in extra {
            cmd.arg(a);
        }
        let out = cmd.output().expect("run");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap().trim().to_string()
    };
    // Outgroup rooting: the root has two children, one of which is t5.
    let rooted = run(&["--outgroup", "t5"]);
    let ast = fastdnaml::phylo::newick::parse(&rooted).unwrap();
    assert_eq!(ast.children.len(), 2);
    assert!(ast.children.iter().any(|c| c.leaf_names() == vec!["t5"]));
    // Midpoint rooting also yields a rooted binary tree over all taxa.
    let rooted = run(&["--midpoint"]);
    let ast = fastdnaml::phylo::newick::parse(&rooted).unwrap();
    assert_eq!(ast.children.len(), 2);
    assert_eq!(ast.leaf_names().len(), 6);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn parallel_run_writes_an_event_log_and_a_summary() {
    let dir = workdir("obs");
    let log = dir.join("events.jsonl");
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--jumble", "3", "--parallel", "4", "--quiet", "--obs-out"])
        .arg(&log)
        .args(["--obs-summary"])
        .output()
        .expect("run fastdnaml");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The summary report and the best tree both land on stdout.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("run report"), "stdout: {stdout}");
    assert!(stdout.contains("dispatched"), "stdout: {stdout}");
    // The event log parses back and tells a consistent story.
    let text = std::fs::read_to_string(&log).expect("event log written");
    let records = fastdnaml::obs::JsonlSink::parse(&text).expect("valid JSONL");
    assert!(matches!(
        records.first().map(|r| &r.event),
        Some(fastdnaml::obs::Event::RunStarted {
            ranks: 4,
            workers: 1
        })
    ));
    assert!(matches!(
        records.last().map(|r| &r.event),
        Some(fastdnaml::obs::Event::RunFinished { .. })
    ));
    let report = fastdnaml::obs::RunReport::from_events(&records);
    assert!(report.dispatched > 0);
    assert_eq!(report.completed, report.dispatched);
    std::fs::remove_dir_all(dir).ok();
}

/// Run the program on the fixture with `extra`; it must fail with exactly
/// one line on stderr, which is returned.
fn one_line_failure(dir: &std::path::Path, extra: &[&str]) -> String {
    let out = fastdnaml()
        .arg("--input")
        .arg(dir.join("data.phy"))
        .arg("--quiet")
        .args(extra)
        .output()
        .expect("run fastdnaml");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{extra:?} still printed a tree");
    assert_eq!(stderr.lines().count(), 1, "{extra:?}: {stderr}");
    assert!(stderr.starts_with("fastdnaml: "), "{extra:?}: {stderr}");
    stderr
}

#[test]
fn what_the_cli_does_not_understand_it_refuses() {
    let dir = workdir("strict");
    // A typo'd flag used to run a different search without a word.
    assert!(one_line_failure(&dir, &["--incrmental"]).contains("--incrmental"));
    assert!(one_line_failure(&dir, &["--paralel", "5"]).contains("--paralel"));
    assert!(one_line_failure(&dir, &["stray"]).contains("stray"));
    // A number that does not parse used to be the default.
    assert!(one_line_failure(&dir, &["--radius", "abc"]).contains("--radius abc"));
    assert!(one_line_failure(&dir, &["--parallel", "x"]).contains("--parallel x"));
    assert!(one_line_failure(&dir, &["--tt-ratio", "two"]).contains("--tt-ratio two"));
    assert!(one_line_failure(&dir, &["--radius", "--midpoint"]).contains("--radius expects"));
    // Files and names the user got wrong used to be panics (exit 101).
    let missing = one_line_failure(&dir, &["--rates-file", "/nonexistent.rates"]);
    assert!(
        missing.contains("--rates-file /nonexistent.rates"),
        "{missing}"
    );
    let garbage = dir.join("data.phy");
    let garbage = one_line_failure(&dir, &["--rates-file", garbage.to_str().unwrap()]);
    assert!(garbage.contains("--rates-file"), "{garbage}");
    let trees = one_line_failure(&dir, &["--user-trees", "/nonexistent.nwk"]);
    assert!(trees.contains("--user-trees /nonexistent.nwk"), "{trees}");
    let outgroup = one_line_failure(&dir, &["--outgroup", "t0,nobody"]);
    assert!(
        outgroup.contains("--outgroup") && outgroup.contains("nobody"),
        "{outgroup}"
    );
    // What the launchers pass is still understood: the worker's hidden
    // test hook and the `peer` spelling get as far as dialing a dead
    // address.
    let out = fastdnaml()
        .args(["--net", "peer", "--connect", "127.0.0.1:1", "--quiet"])
        .args(["--die-after-tasks", "3"])
        .output()
        .expect("run fastdnaml");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("net worker"), "stderr: {stderr}");
    assert!(stderr.contains("connect 127.0.0.1:1"), "stderr: {stderr}");
    assert!(!stderr.contains("does not read"), "stderr: {stderr}");
    std::fs::remove_dir_all(dir).ok();
}

/// A run whose result file cannot be written — each of these used to panic
/// with a backtrace (exit 101) — fails with one line naming the file.
fn unwritable_file_is_one_line_error(tag: &str, extra: &[&str], named: &str) {
    let dir = workdir(tag);
    let line = one_line_failure(&dir, extra);
    assert!(!line.contains("panicked"), "{extra:?}: {line}");
    assert!(line.contains(named), "{extra:?}: {line}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unwritable_output_is_a_one_line_error() {
    unwritable_file_is_one_line_error(
        "unwritable_output",
        &["--output", "/nonexistent/x.tre"],
        "/nonexistent/x.tre",
    );
}

#[test]
fn unwritable_jumble_trees_is_a_one_line_error() {
    unwritable_file_is_one_line_error(
        "unwritable_jumbles",
        &["--jumbles", "2", "--jumble-trees", "/nonexistent/j.txt"],
        "/nonexistent/j.txt",
    );
}

#[test]
fn unwritable_obs_out_is_a_one_line_error() {
    unwritable_file_is_one_line_error(
        "unwritable_obs",
        &["--parallel", "4", "--obs-out", "/nonexistent/o.jsonl"],
        "/nonexistent/o.jsonl",
    );
}

#[test]
fn unwritable_addr_file_is_a_one_line_error() {
    // A daemon reads no alignment, so its command line has no `--input`.
    let dir = workdir("unwritable_addr");
    let state = dir.join("state");
    let out = fastdnaml()
        .arg("--serve")
        .arg("--state-dir")
        .arg(&state)
        .args(["--addr-file", "/nonexistent/a.txt", "--quiet"])
        .output()
        .expect("run fastdnaml");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("fastdnaml: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("/nonexistent/a.txt"), "{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_user_tree_missing_taxa_is_a_one_line_error() {
    let dir = workdir("partial_tree");
    let partial = dir.join("partial.nwk");
    std::fs::write(&partial, "(t0,t1,t2);\n").unwrap();
    // Used to panic with `InvalidTreeOp` out of `expect` (exit 101).
    let line = one_line_failure(&dir, &["--user-trees", partial.to_str().unwrap()]);
    assert!(!line.contains("panicked"), "{line}");
    assert!(line.contains("3 of 6 taxa"), "{line}");
    std::fs::remove_dir_all(dir).ok();
}

/// A count of zero used to trip an assertion (exit 101); it is refused
/// like `--jumbles 0`.
fn zero_count_is_refused(tag: &str, flag: &str) {
    let dir = workdir(tag);
    let line = one_line_failure(&dir, &[flag, "0"]);
    assert!(!line.contains("panicked"), "{line}");
    assert!(line.contains(flag) && line.contains("at least 1"), "{line}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn zero_categories_is_a_one_line_error() {
    zero_count_is_refused("zero_categories", "--categories");
}

#[test]
fn zero_bootstrap_replicates_is_a_one_line_error() {
    zero_count_is_refused("zero_bootstrap", "--bootstrap");
}

#[test]
fn an_empty_user_tree_file_is_a_one_line_error() {
    let dir = workdir("empty_trees");
    let empty = dir.join("empty.nwk");
    std::fs::write(&empty, "\n\n").unwrap();
    // Used to panic out of `expect("at least one tree")` (exit 101).
    let line = one_line_failure(&dir, &["--user-trees", empty.to_str().unwrap()]);
    assert!(!line.contains("panicked"), "{line}");
    assert!(
        line.contains("--user-trees") && line.contains("no trees"),
        "{line}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn help_flags_print_usage() {
    let out = fastdnaml().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("--jumble") && text.contains("--outgroup"));
    let out = dnarates().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("--grid-points"));
}

/// The names of the files in `dir`, sorted.
fn wal_files(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap().flatten();
    let mut names: Vec<String> = entries
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A finished single search's `--wal-dir` answers a re-run of the same
/// command from its manifest: the same bytes, plain and rooted either way,
/// and not one round computed or logged.
#[test]
fn a_finished_single_search_answers_a_rerun_from_its_manifest() {
    let dir = workdir("rerun");
    for rooting in [&[][..], &["--outgroup", "t4,t5"], &["--midpoint"]] {
        let wal = dir.join(format!("wal{}", rooting.len()));
        let wal = wal.to_str().unwrap();
        let events = dir.join("rerun.jsonl");
        let events = events.to_str().unwrap();
        let logged = [rooting, &["--wal-dir", wal]].concat();
        let first = serial_run(&dir, &logged);
        assert_eq!(first, serial_run(&dir, rooting), "{rooting:?}");
        let rerun = serial_run(&dir, &[&logged[..], &["--obs-out", events]].concat());
        assert_eq!(rerun, first, "{rooting:?}");
        let log = std::fs::read_to_string(events).unwrap();
        assert!(
            !log.contains("WalAppend") && !log.contains("WalReplay"),
            "{log}"
        );
        assert!(log.contains(r#""reused":true"#), "{log}");
        assert_eq!(wal_files(Path::new(wal)), ["manifest.json"]);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// One taxon is not a search. The pre-pass and the bootstrap searches say
/// so in one line, as a plain search does, instead of panicking.
#[test]
fn a_one_taxon_alignment_fails_the_pre_pass_and_the_bootstrap_in_one_line() {
    let dir = workdir("one_taxon");
    std::fs::write(dir.join("one.phy"), "1 8\nA ACGTACGT\n").unwrap();
    for (flag, what) in [
        ("--categories", "pre-pass search"),
        ("--bootstrap", "bootstrap"),
    ] {
        let out = fastdnaml()
            .args(["--input"])
            .arg(dir.join("one.phy"))
            .args([flag, "2", "--quiet"])
            .output()
            .expect("run fastdnaml");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("fastdnaml: {what}: ")) && stderr.contains("two taxa"),
            "{flag}: {stderr}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Run the serial program on the fixture (seed 7), return its stdout.
fn serial_run(dir: &std::path::Path, flags: &[&str]) -> String {
    let out = fastdnaml()
        .args(["--input"])
        .arg(dir.join("data.phy"))
        .args(["--jumble", "7", "--quiet"])
        .args(flags)
        .output()
        .expect("run fastdnaml");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap().trim().to_string()
}

#[test]
fn serial_incremental_flag_selects_the_scoring_mode() {
    use fastdnaml::core::config::SearchConfig;
    use fastdnaml::core::job::ResolvedJob;
    use fastdnaml::core::runner::{run_in_process, RunOptions};
    use fastdnaml::phylo::phylip;

    let dir = workdir("serial_inc");
    let run = |flags: &[&str]| serial_run(&dir, flags);
    // What each scoring mode produces for this search, from the library.
    let alignment = phylip::parse(PHYLIP).unwrap();
    let library = |incremental: bool| {
        let config = SearchConfig {
            jumble_seed: 7,
            incremental,
            ..SearchConfig::default()
        };
        let job = ResolvedJob::single(alignment.clone(), config);
        let outcome = run_in_process(&job, RunOptions::default()).unwrap();
        outcome.runs[0].newick.clone()
    };
    let (whole_tree, scorer) = (library(false), library(true));
    assert_ne!(
        whole_tree, scorer,
        "the two scoring modes must be told apart by their bytes on this seed"
    );

    // Whole-tree scoring stays the default, and the escape hatch wins.
    assert_eq!(run(&[]), whole_tree);
    assert_eq!(run(&["--no-incremental"]), whole_tree);
    assert_eq!(run(&["--incremental", "--no-incremental"]), whole_tree);
    // The flag is no longer ignored by the serial program.
    assert_eq!(run(&["--incremental"]), scorer);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn persistence_flags_do_not_change_the_serial_scoring_mode() {
    // `--wal-dir` used to route the serial program through the edit
    // scorer whatever the scoring flags said.
    let dir = workdir("serial_persist");
    let modes = ["--no-incremental", "--incremental"];
    let plain = modes.map(|mode| serial_run(&dir, &[mode]));
    assert_ne!(plain[0], plain[1], "the modes differ on this seed");
    for (mode, plain) in modes.iter().zip(&plain) {
        let wal = dir.join(format!("wal{mode}"));
        let wal = wal.to_str().unwrap();
        assert_eq!(
            &serial_run(&dir, &[mode, "--wal-dir", wal]),
            plain,
            "{mode}"
        );
        // A completed run retires its log and keeps its manifest.
        assert_eq!(wal_files(Path::new(wal)), ["manifest.json"], "{mode}");
    }
    // The manifest names its scoring mode: the other mode's search of the
    // same seed is refused in one line naming it, not answered.
    let whole = dir.join("wal--no-incremental");
    let whole = whole.to_str().unwrap();
    let line = one_line_failure(
        &dir,
        &["--jumble", "7", "--incremental", "--wal-dir", whole],
    );
    assert!(
        line.contains("manifest.json") && line.contains("another scoring mode"),
        "{line}"
    );
    // `--help` says which mode farm jumbles run in.
    let help = fastdnaml().args(["--help"]).output().expect("run");
    let help = String::from_utf8(help.stdout).unwrap();
    assert!(help.contains("always edit-scored"), "help: {help}");
    std::fs::remove_dir_all(dir).ok();
}

/// A universe too small for its ranks used to trip an assertion once the
/// ranks were being started (exit 101); it is refused up front, naming the
/// flag.
#[test]
fn a_universe_without_room_for_a_worker_is_a_one_line_error() {
    let dir = workdir("small_universe");
    let cases: [(&[&str], &str); 7] = [
        (&["--parallel", "0"], "--parallel"),
        (&["--parallel", "1"], "--parallel"),
        (&["--parallel", "3"], "--parallel"),
        (&["--parallel", "3", "--jumbles", "2"], "--parallel"),
        (&["--net", "spawn", "3"], "--net spawn"),
        (&["--net", "coordinator", "--ranks", "3"], "--ranks"),
        // The foreman tree is retired: its flag is refused like any
        // unknown one.
        (&["--parallel", "5", "--regions", "2"], "--regions"),
    ];
    for (extra, flag) in cases {
        let line = one_line_failure(&dir, extra);
        assert!(!line.contains("panicked"), "{extra:?}: {line}");
        assert!(line.contains(flag), "{extra:?}: {line}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// `--tt-ratio nan` and `inf` used to fail inside the search ("bad config:
/// expected f64, got null"), and `-1` and `0` to run silently.
#[test]
fn a_tt_ratio_that_is_not_a_finite_positive_number_is_a_one_line_error() {
    let dir = workdir("tt_ratio");
    for value in ["nan", "inf", "-1", "0"] {
        let line = one_line_failure(&dir, &["--tt-ratio", value]);
        assert!(!line.contains("panicked"), "{value}: {line}");
        assert!(line.contains("--tt-ratio"), "{value}: {line}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A grid or category count `dnarates` cannot use used to panic after the
/// reference tree had been inferred; it is refused before.
#[test]
fn dnarates_refuses_a_bad_grid_up_front() {
    let dir = workdir("dnarates_grid");
    let cases: [(&[&str], &str); 6] = [
        (&["--categories", "0"], "--categories"),
        (&["--grid-points", "0"], "--grid-points"),
        (&["--grid-points", "1"], "--grid-points"),
        (&["--grid-min", "0"], "--grid-min"),
        (&["--grid-min", "-1"], "--grid-min"),
        (&["--grid-min", "5", "--grid-max", "1"], "--grid-max"),
    ];
    for (extra, flag) in cases {
        let out = dnarates()
            .arg("--input")
            .arg(dir.join("data.phy"))
            .args(extra)
            .output()
            .expect("run dnarates");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(!stderr.contains("inferring"), "{extra:?}: {stderr}");
        assert!(stderr.contains(flag), "{extra:?}: {stderr}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Each of these used to run something else without a word (`--categoris
/// 2` ran 8 categories, `--grid-min abc` used 0.05) or to panic (exit 101)
/// on a tree file or an output file it could not use.
#[test]
fn dnarates_refuses_what_it_does_not_understand() {
    let dir = workdir("dnarates_strict");
    let partial = dir.join("partial.nwk");
    std::fs::write(&partial, "(t0,t1,t2);\n").unwrap();
    let garbled = dir.join("garbled.nwk");
    std::fs::write(&garbled, "((t0,t1").unwrap();
    let tree = dir.join("tree.nwk");
    std::fs::write(&tree, "((t0,t1),(t2,t3),(t4,t5));\n").unwrap();
    let (partial, garbled, tree) = (
        partial.to_str().unwrap(),
        garbled.to_str().unwrap(),
        tree.to_str().unwrap(),
    );
    let cases: [(&[&str], &str); 8] = [
        (&["--categoris", "2"], "--categoris"),
        (&["--grid-min", "abc"], "--grid-min abc"),
        (&["--grid-points", "many"], "--grid-points many"),
        (&["--output"], "--output expects a value"),
        (&["--tree", "/nonexistent.nwk"], "--tree /nonexistent.nwk"),
        (&["--tree", garbled], garbled),
        (&["--tree", partial], "3 of 6 taxa"),
        (
            &["--tree", tree, "--output", "/nonexistent/r.txt"],
            "/nonexistent/r.txt",
        ),
    ];
    for (extra, named) in cases {
        let out = dnarates()
            .arg("--input")
            .arg(dir.join("data.phy"))
            .args(extra)
            .output()
            .expect("run dnarates");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{extra:?}: {stderr}");
        assert!(stderr.starts_with("dnarates: "), "{extra:?}: {stderr}");
        assert!(stderr.contains(named), "{extra:?}: {stderr}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Every flag a mode does not read used to be ignored without a word: each
/// of these exited 0 (or carried on to the network) as if the flag were
/// not there. Each is refused now in one line naming the mode and the
/// flag, before any file is read or written.
#[test]
fn every_mode_refuses_the_flags_it_does_not_read() {
    let dir = workdir("unread");
    let input = dir.join("data.phy");
    let input = input.to_str().unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (state, addr, out, trees, obs) = (
        file("state"),
        file("addr"),
        file("o.nwk"),
        file("t.txt"),
        file("o.jsonl"),
    );
    let search = ["--input", input];
    let serial = "a serial search";
    let submit = ["--submit", "--connect", "127.0.0.1:9", "--input", input];
    let status = ["--status", "1", "--connect", "127.0.0.1:9"];
    let attach = ["--attach", "1", "--connect", "127.0.0.1:9"];
    let worker = ["--net", "worker", "--connect", "127.0.0.1:9"];
    // An unwritable address file: a daemon that does start exits at once.
    let serve = [
        "--serve",
        "--state-dir",
        &state,
        "--addr-file",
        "/nonexistent/a",
    ];
    let cases: &[(&[&str], &[&str], &str, &str)] = &[
        (&search, &["--ranks", "9"], serial, "--ranks"),
        (&search, &["--listen", "127.0.0.1:0"], serial, "--listen"),
        (&search, &["--connect", "127.0.0.1:9"], serial, "--connect"),
        (&search, &["--supervise"], serial, "--supervise"),
        (&search, &["--max-restarts", "9"], serial, "--max-restarts"),
        (&search, &["--max-wall-ms", "5"], serial, "--max-wall-ms"),
        (
            &search,
            &["--max-job-ranks", "2"],
            serial,
            "--max-job-ranks",
        ),
        (&search, &["--job-label", "x"], serial, "--job-label"),
        (&search, &["--state-dir", &state], serial, "--state-dir"),
        (&search, &["--max-jobs", "3"], serial, "--max-jobs"),
        (&search, &["--addr-file", &addr], serial, "--addr-file"),
        (&search, &["--spawn-workers"], serial, "--spawn-workers"),
        (
            &search,
            &["--attach-timeout-ms", "5"],
            serial,
            "--attach-timeout-ms",
        ),
        (
            &search,
            &["--die-rank", "3", "--die-after-tasks", "1"],
            serial,
            "--die-rank",
        ),
        (
            &search,
            &["--parallel", "4", "--ranks", "9"],
            "--parallel",
            "--ranks",
        ),
        (
            &search,
            &["--parallel", "4", "--supervise"],
            "--parallel",
            "--supervise",
        ),
        (
            &search,
            &["--jumbles", "3", "--outgroup", "t0"],
            "--jumbles",
            "--outgroup",
        ),
        (&submit, &["--output", &out], "--submit", "--output"),
        (
            &submit,
            &["--jumble-trees", &trees],
            "--submit",
            "--jumble-trees",
        ),
        (&submit, &["--obs-out", &obs], "--submit", "--obs-out"),
        (&submit, &["--farm-width", "2"], "--submit", "--farm-width"),
        (&submit, &["--outgroup", "t0"], "--submit", "--outgroup"),
        (
            &submit,
            &["--no-incremental"],
            "--submit",
            "--no-incremental",
        ),
        (&status, &["--input", input], "--status", "--input"),
        (&status, &["--parallel", "5"], "--status", "--parallel"),
        (&status, &["--jumbles", "3"], "--status", "--jumbles"),
        (&attach, &["--input", input], "--attach", "--input"),
        (&attach, &["--parallel", "5"], "--attach", "--parallel"),
        (&attach, &["--jumbles", "3"], "--attach", "--jumbles"),
        (&worker, &["--input", input], "--net worker", "--input"),
        (&worker, &["--radius", "4"], "--net worker", "--radius"),
        (&serve, &["--input", input], "--serve", "--input"),
    ];
    for (mode, extra, names_mode, names_flag) in cases {
        let out = fastdnaml()
            .args(*mode)
            .args(*extra)
            .arg("--quiet")
            .output()
            .expect("run fastdnaml");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = [*mode, *extra].concat();
        assert_eq!(out.status.code(), Some(1), "{case:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{case:?} printed {:?}", out.stdout);
        assert_eq!(stderr.lines().count(), 1, "{case:?}: {stderr}");
        assert!(
            stderr.contains(names_mode) && stderr.contains(names_flag),
            "{case:?}: {stderr}"
        );
    }
    assert_eq!(wal_files(&dir), ["data.phy"], "a refused run wrote a file");
    std::fs::remove_dir_all(dir).ok();
}
