#!/bin/sh
# The full local CI gate: build, tests, formatting, lints.
#
#   ./ci.sh         the whole gate (includes the chaos smoke)
#   ./ci.sh chaos   just the fault-injection smoke: the seeded soak matrix
#                   plus a killed-and-supervised TCP worker, with the final
#                   tree compared byte-for-byte against the fault-free run
set -eux

SMOKE=target/net_smoke

write_smoke_data() {
  mkdir -p "$SMOKE"
  printf '%s\n' \
    '6 40' \
    't0        ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT' \
    't1        ACGTACGTACTTACGTACGTACGAACGTACGTACGTACGT' \
    't2        ACGAACGTACGTACGGACGTACGTACCTACGTAGGTACGT' \
    't3        ACGAACGTACGTACGGACGTACTTACCTACGTAGGTACTT' \
    't4        TCGAACGGACGTACGGAAGTACGTACCTACGGAGGTACGA' \
    't5        TCGAACGGACGTACGGAAGTACGTTCCTACGGAGGAACGA' \
    > "$SMOKE/data.phy"
}

# An 18-taxon alignment for the traffic smoke: the six smoke sequences
# (write_smoke_data first), each copied twice more with one or two
# substitutions. Large enough that a result carrying a candidate Newick is
# ~400 bytes and rearrangement rounds verify many candidates, small enough
# to finish in well under a second.
write_traffic_data() {
  awk 'NR > 1 { base[NR - 2] = $2 }
    END {
      print "18 40"
      for (k = 0; k < 18; k++) {
        s = base[k % 6]
        for (j = 0; j < int(k / 6); j++) {
          p = (k * 7 + j * 11) % 40
          s = substr(s, 1, p) substr("TGCA", k % 4 + 1, 1) substr(s, p + 2)
        }
        printf "t%-9d%s\n", k, s
      }
    }' "$SMOKE/data.phy" > "$SMOKE/traffic.phy"
}

chaos_smoke() {
  # The in-process soak: seeded drop/delay/duplicate/corrupt/kill schedules
  # must reproduce the fault-free tree and likelihood bit for bit.
  cargo test -q --test chaos_soak
  # Process-level chaos over TCP: worker rank 4 calls process::exit
  # mid-search and the supervisor re-forks it; the self-healing run must
  # emit the identical tree to the undisturbed one.
  cargo build --release
  write_smoke_data
  ./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --net spawn 5 --quiet \
    --output "$SMOKE/chaos_clean.nwk"
  ./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --net spawn 5 --quiet \
    --supervise --die-rank 4 --die-after-tasks 2 --worker-timeout-ms 300 \
    --output "$SMOKE/chaos_faulty.nwk"
  cmp "$SMOKE/chaos_clean.nwk" "$SMOKE/chaos_faulty.nwk"
  # The same death with edit chunks in flight: `EditScores` replies count
  # toward --die-after-tasks, so rank 4 exits owing a chunk, which the
  # foreman requeues self-contained. On the 18-taxon input: the 6-taxon
  # search is over before rank 4 has been handed a third task.
  write_traffic_data
  ./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 7 --incremental \
    --net spawn 5 --quiet --output "$SMOKE/chaos_clean_inc.nwk"
  ./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 7 --incremental \
    --net spawn 5 --supervise --die-rank 4 --die-after-tasks 2 --worker-timeout-ms 300 \
    --output "$SMOKE/chaos_faulty_inc.nwk" 2> "$SMOKE/chaos_faulty_inc.err"
  cmp "$SMOKE/chaos_clean_inc.nwk" "$SMOKE/chaos_faulty_inc.nwk"
  grep -q 'peer rank 4 exited with Some(3)' "$SMOKE/chaos_faulty_inc.err"
}

if [ "${1:-all}" = "chaos" ]; then
  chaos_smoke
  exit 0
fi

cargo build --release
cargo test -q
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Benches must keep compiling, and the kernel perf reporter must produce
# valid JSON end to end (quick datasets; the checked-in BENCH_kernels.json
# comes from a full run). The reporter itself enforces the >=3x incremental
# candidate-round gate and the bit-identity of the two-phase Newton
# objective with the scalar loop it replaced (the `newton_objective` /
# `w_terms` rows), so the --quick run doubles as both smokes.
cargo bench --no-run
cargo run --release -p fdml-bench --bin kernel_report -- --quick \
  --out target/bench_kernels_smoke.json

# Newton has one objective: the value-only form and the hint that selected
# it went when a converged exit stopped measuring its last step.
if grep -rn 'value_only\|lnl_value_folded' crates tests; then
  echo "newton: the value-only objective is back"
  exit 1
fi

# Incremental-evaluation equivalence suite: seeded randomized edits must
# score identically (<=1e-12) to from-scratch evaluation under both kernel
# modes, in any scoring order; the junction kernel's own suite rides the
# same ClvCache.
cargo test -q -p fdml-likelihood incremental
cargo test -q -p fdml-likelihood scorer

# Cross-path kernel equivalence matrix: {every ISA lane the host has} ×
# {Reference, Optimized} must agree bit for bit on evaluation,
# optimization, Newton derivatives, score_edit, and whole searches.
cargo test -q --test kernel_equivalence

# Multi-process smoke: a 4-rank TCP deployment (the coordinator plus one
# worker process, loopback) must emit the identical tree, byte for byte,
# to the threaded in-process run of the same search.
write_smoke_data
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --net spawn 4 --quiet --output "$SMOKE/net.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --quiet --output "$SMOKE/threads.nwk"
cmp "$SMOKE/net.nwk" "$SMOKE/threads.nwk"

# One canonical stream: the serial program is the same master over an
# in-process transport, so with no runtime at all it emits the same bytes
# (seed 7 whole-tree here; seed 5 edit-scored below).
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --quiet --output "$SMOKE/serial.nwk"
cmp "$SMOKE/serial.nwk" "$SMOKE/threads.nwk"

# ISA smoke: pinning the scalar lane must emit the byte-identical tree —
# the SIMD lanes are the same computation.
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --isa scalar --quiet \
  --output "$SMOKE/isa_scalar.nwk"
cmp "$SMOKE/isa_scalar.nwk" "$SMOKE/threads.nwk"
# On an AVX-512 host the default lane above is AVX-512 and the narrower
# vector lane would never run: pin it too where the CPU has it.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo; then
  ./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --isa avx2 --quiet \
    --output "$SMOKE/isa_avx2.nwk"
  cmp "$SMOKE/isa_avx2.nwk" "$SMOKE/threads.nwk"
fi

# Rates smoke: the DNArates pre-pass (`--categories`, a likelihood pass per
# grid point over shared patterns and tip CLVs) and a search under a
# dnarates report (`--rates-file`: several rate categories, so the kernels'
# category runs are short) emit the same bytes on the scalar lane and on
# the default one. The two are different models — the report rounds its
# rates to six decimals — so each is compared with itself, not with the
# other.
./target/release/dnarates --input "$SMOKE/data.phy" --categories 4 --output "$SMOKE/rates.txt" 2>/dev/null
for model in "--categories 4" "--rates-file $SMOKE/rates.txt"; do
  ./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 $model --quiet \
    --output "$SMOKE/rates_default.nwk"
  ./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 $model --isa scalar --quiet \
    --output "$SMOKE/rates_scalar.nwk"
  cmp "$SMOKE/rates_scalar.nwk" "$SMOKE/rates_default.nwk"
done

# Incremental round smoke (golden seed 5): base + edit dispatch must emit
# the identical tree, byte for byte, to whole-tree dispatch of the same
# search, over both the threaded and the TCP transports.
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 5 --parallel 4 --quiet \
  --output "$SMOKE/full_threads.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 5 --parallel 4 --incremental --quiet \
  --output "$SMOKE/inc_threads.nwk"
cmp "$SMOKE/inc_threads.nwk" "$SMOKE/full_threads.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 5 --net spawn 4 --incremental --quiet \
  --output "$SMOKE/inc_net.nwk"
cmp "$SMOKE/inc_net.nwk" "$SMOKE/full_threads.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 5 --incremental --quiet \
  --output "$SMOKE/inc_serial.nwk"
cmp "$SMOKE/inc_serial.nwk" "$SMOKE/inc_threads.nwk"

# Traffic smoke for the incremental path (`--obs-summary`, "traffic by
# kind"): candidates travel as chunks of edits and come back as scores —
# a few bytes per candidate in `EditScores`, while `TreeResult`s (whole
# trees) answer verification only, far fewer than there are candidates —
# and a round adopts at most one base — one master->foreman frame plus one
# relay per worker — so BaseTopology messages are bounded by
# (workers + 1) x (rounds + 1). A verify ladder that reverts, or a
# candidate that costs a tree or a frame of its own, breaks one of them.
write_traffic_data
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --parallel 5 --incremental --quiet \
  --obs-summary --obs-out "$SMOKE/traffic.jsonl" --output "$SMOKE/traffic.nwk" > "$SMOKE/traffic_summary.txt"
awk '
  /^  workers \(/      { gsub(/[^0-9]/, "", $2); workers = $2 }
  /^  rounds \(/       { gsub(/[^0-9]/, "", $2); rounds = $2 }
  /^    round +[0-9]+:/ { candidates += $3 }
  $1 == "TreeResult"   { tree_msgs = $3 }
  $1 == "EditChunk"    { chunk_msgs = $3 }
  $1 == "EditScores"   { score_bytes = $6 }
  $1 == "BaseTopology" { base_msgs = $3 }
  END {
    if (!workers || !rounds || !candidates || !tree_msgs || !chunk_msgs || !score_bytes || !base_msgs) {
      print "traffic smoke: run report not understood"; exit 1
    }
    printf "traffic smoke: %d candidates in %d EditChunk msgs, %.1f B of scores each, %d TreeResult msgs, %d BaseTopology msgs for %d rounds on %d workers\n",
      candidates, chunk_msgs, score_bytes / candidates, tree_msgs, base_msgs, rounds, workers
    if (score_bytes / candidates >= 64) { print "traffic smoke: scores carry trees again"; exit 1 }
    if (chunk_msgs >= candidates) { print "traffic smoke: a frame per candidate again"; exit 1 }
    if (tree_msgs >= candidates) { print "traffic smoke: a whole tree per candidate"; exit 1 }
    if (base_msgs > (workers + 1) * (rounds + 1)) { print "traffic smoke: more than one base per round"; exit 1 }
  }' "$SMOKE/traffic_summary.txt"

# Chunked dispatch: the chunk is the unit of edit work, so the foreman's
# log holds fewer `TaskDispatched` than the search scored candidates, and
# chunk boundaries (which follow the worker count) change no byte: the
# threaded tree above, the in-process tree (one evaluator, four chunks a
# round) and the TCP tree further down (`flat_net.nwk`) are one file.
dispatched=$(grep -c '"TaskDispatched"' "$SMOKE/traffic.jsonl")
candidates=$(grep -o '"RoundCompleted":{[^}]*"candidates":[0-9]*' "$SMOKE/traffic.jsonl" |
  awk -F: '{ n += $NF } END { print n }')
test "$dispatched" -gt 0
test "$dispatched" -lt "$candidates"
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --incremental --quiet \
  --output "$SMOKE/traffic_serial.nwk"
cmp "$SMOKE/traffic_serial.nwk" "$SMOKE/traffic.nwk"

# Window traffic: verification keeps workers + 1 tasks sent beyond its
# decided prefix, and each rank decided as not improving releases one
# more, so what is sent past an improver is a function of the ranks alone.
# Two threaded runs and a TCP run report one `tasks: N dispatched`, however
# their answers raced, and print the in-process tree.
window_tasks() {
  tag=$1
  shift
  ./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --incremental --quiet \
    --obs-summary --output "$SMOKE/window_$tag.nwk" "$@" | awk '/^  tasks:/ { print $2 }'
}
window_a=$(window_tasks a --parallel 5)
window_b=$(window_tasks b --parallel 5)
window_net=$(window_tasks net --net spawn 5)
echo "window traffic smoke: $window_a and $window_b tasks on threads, $window_net over TCP"
test -n "$window_a"
test "$window_a" = "$window_b"
test "$window_a" = "$window_net"
for run in a b net; do
  cmp "$SMOKE/traffic_serial.nwk" "$SMOKE/window_$run.nwk"
done

# Whole-tree traffic: scoring fully optimizes each candidate, so its
# result is the verified outcome and the verify/commit steps reuse it —
# one task per candidate plus the starting triplet's `set_base`, on
# threads, in process and over TCP alike.
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --parallel 5 --no-incremental --quiet \
  --obs-summary --output "$SMOKE/whole.nwk" > "$SMOKE/whole_summary.txt"
awk '
  /^  tasks:/           { dispatched = $2 }
  /^    round +[0-9]+:/ { candidates += $3 }
  END {
    printf "whole-tree traffic smoke: %d tasks for %d candidates\n", dispatched, candidates
    if (!candidates || dispatched != candidates + 1) {
      print "whole-tree traffic smoke: a candidate optimized twice (or not at all)"; exit 1
    }
  }' "$SMOKE/whole_summary.txt"
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --no-incremental --quiet \
  --output "$SMOKE/whole_serial.nwk"
cmp "$SMOKE/whole_serial.nwk" "$SMOKE/whole.nwk"
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --net spawn 5 --no-incremental --quiet \
  --output "$SMOKE/whole_net.nwk"
cmp "$SMOKE/whole_net.nwk" "$SMOKE/whole.nwk"
# Nothing the runtime runs builds the retired one-edit task (the variant
# and its codec arms stay for benchmark/src/probes.rs:249 only), and how a
# round is chunked is a pure function of its size and the fleet's — no
# environment variable reaches it.
for f in crates/core/src/*.rs crates/net/src/*.rs; do
  if awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f" | grep -n 'Message::TreeEditTask'; then
    echo "chunked dispatch: $f builds or serves the single-edit task"
    exit 1
  fi
done
if grep -rnE 'env::var|option_env!' crates/core/src; then
  echo "chunked dispatch: crates/core/src reads the environment"
  exit 1
fi

# Wire-codec smoke: every fdml-wire frame round-trips (proptest + golden
# bytes) and the transport passes its conformance suite. Binary is the
# only data-plane encoding: `--wire binary` names it and runs the same
# tree as real OS processes, and `--wire json` is refused in one line.
cargo test -q -p fdml-wire
cargo test -q -p fdml-net --test conformance
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --net spawn 4 --wire binary --quiet \
  --output "$SMOKE/wire_binary.nwk"
cmp "$SMOKE/wire_binary.nwk" "$SMOKE/threads.nwk"
rm -f "$SMOKE/wire_json.nwk"
status=0
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --net spawn 4 --wire json --quiet \
  --output "$SMOKE/wire_json.nwk" 2> "$SMOKE/wire_json.err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$SMOKE/wire_json.err")" -eq 1
grep -q -- '--wire json' "$SMOKE/wire_json.err"
test ! -e "$SMOKE/wire_json.nwk"

# Hosted control ranks: a flat `--net spawn 5` is one coordinator process
# running master, foreman and monitor, plus exactly two forked workers
# (ranks 3 and 4) — nothing dials in as rank 1 or 2 — and it finds the
# threaded run's tree on the 18-taxon traffic input.
./target/release/fastdnaml --input "$SMOKE/traffic.phy" --jumble 5 --net spawn 5 --incremental \
  --obs-out "$SMOKE/flat_net.jsonl" --output "$SMOKE/flat_net.nwk" 2> "$SMOKE/flat_net.err"
cmp "$SMOKE/flat_net.nwk" "$SMOKE/traffic.nwk"
test "$(grep -c 'fastdnaml: rank [0-9]* done' "$SMOKE/flat_net.err")" -eq 2
grep -q 'fastdnaml: rank 3 done: Worker' "$SMOKE/flat_net.err"
grep -q 'fastdnaml: rank 4 done: Worker' "$SMOKE/flat_net.err"
if grep -q 'peer rank [0-9]* exited' "$SMOKE/flat_net.err"; then
  echo "hosted ranks smoke: a worker process did not exit cleanly"
  exit 1
fi
test "$(grep -c '"NetPeerConnected"' "$SMOKE/flat_net.jsonl")" -eq 2
if grep -E '"NetPeerConnected":\{"rank":[012]\}' "$SMOKE/flat_net.jsonl"; then
  echo "hosted ranks smoke: a control rank dialed in over TCP"
  exit 1
fi

# One syscall per side per burst: the socket's read timeout is armed in one
# place, FrameReader::new — once per connection for the session loops of
# hub.rs and client.rs, which read through their FrameReader, and per call
# only under read_frame, the one-shot reader of handshakes and the service
# plane. It must not creep back into a per-frame path.
if grep -n 'set_read_timeout' crates/net/src/hub.rs crates/net/src/client.rs; then
  echo "net: a session loop arms the socket timeout itself"
  exit 1
fi
test "$(grep -c '\.set_read_timeout(' crates/net/src/wire.rs)" -eq 1
for loop in peer_reader run_generation; do
  if awk -v f="fn $loop" 'index($0, f) { on = 1 } on { print } on && /^}/ { exit }' \
      crates/net/src/hub.rs crates/net/src/client.rs | grep -n 'read_frame('; then
    echo "net: $loop reads frame by frame off the bare socket"
    exit 1
  fi
done

# One scheduler core. The ladder (dispatch, timeout, probe, result,
# WorkerReady, PeerDown) is the pure machine of core/src/sched.rs, driven
# under a virtual clock by its unit tests; everything that receives, sends
# or reads the clock is the one shell in foreman.rs. Neither a second copy
# of the ladder nor I/O inside the machine may come back.
cargo test -q -p fdml-core --lib sched
if awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/sched.rs |
  grep -nE 'Transport|recv_timeout|Instant::now|thread::sleep|serde_json'; then
  echo "scheduler purity: crates/core/src/sched.rs touches I/O or the clock"
  exit 1
fi
test "$(cat crates/core/src/*.rs | grep -c 'ready queue emptied mid-dispatch')" -eq 1
test "$(cat crates/core/src/*.rs | grep -c 'the flat ladder, verbatim')" -eq 0

# One jumble farm. A job's jumbles are one `farm::Ledger` whether the farm
# master (serial over the loopback, threads, TCP) or the daemon holds it:
# a round log is opened in one place (`wal::open`), a manifest entry is
# marked Done in one place (`Ledger::done`), and the copies that did both
# by hand stay gone. The line count is the ROADMAP's "lines down" gate,
# measured: 2 130 before the ledger.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }
for f in $(find crates src -name '*.rs' -path '*src/*'); do
  if [ "$f" != crates/core/src/wal.rs ] &&
    nontest "$f" | grep -n 'WalWriter::resume(\|WalWriter::create('; then
    echo "one farm: $f opens a round log itself; that is wal::open"
    exit 1
  fi
  if [ "$f" != crates/core/src/farm.rs ] && nontest "$f" | grep -n '\.mark_done('; then
    echo "one farm: $f marks a jumble Done itself; that is Ledger::done"
    exit 1
  fi
done
if grep -rn 'fn open_wal\|fn jumble_here\|dispatch_up_to_width' crates src tests examples benchmark/src; then
  echo "one farm: a hand-written copy of the ledger is back"
  exit 1
fi
farm_lines=0
for f in crates/core/src/farm.rs crates/core/src/loopback.rs crates/core/src/wal.rs \
  crates/serve/src/scheduler.rs; do
  farm_lines=$((farm_lines + $(nontest "$f" | wc -l)))
done
echo "one farm: farm.rs + loopback.rs + wal.rs + serve/scheduler.rs = $farm_lines non-test lines"
nontest_lines() {
  n=0
  for f in $(find "$@" -name '*.rs' -path '*src/*'); do n=$((n + $(nontest "$f" | wc -l))); done
  echo "$n"
}
echo "non-test lines: crates/likelihood/src = $(nontest_lines crates/likelihood/src)," \
  "crates/*/src + src + shims = $(nontest_lines crates src shims)"

# Ranks are the only parallelism: no intra-rank thread pool, no flag or
# config field for one, no vendored pool to build it on. Test modules may
# name the retired key (they pin that old payloads still parse); nothing
# else may. `benchmark/Cargo.lock` keeps a stale entry until the benchmark
# package is next revised. The retired flag is refused like any unknown one.
retired='IntraPar|SendPtr|for_each_block|intra_threads|intra-threads|modeled_speedup|rayon'
for f in $(find Cargo.toml crates src tests examples shims -name '*.rs' -o -name Cargo.toml); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "ranks are the only parallelism: $f brings intra-rank threads back"
    exit 1
  fi
done
# One recovery story: the round log under --wal-dir is how any run
# resumes. The checkpoint file, its type and its hooks stay gone from
# everything but test modules, and each retired flag is refused in one
# line that names what replaced it.
retired='\bCheckpoint\b|checkpoint_out|on_checkpoint|resume_from\('
for f in $(find crates src examples -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one recovery story: $f brings the checkpoint file back"
    exit 1
  fi
done
# One run shape: every run is one `farm::Ledger` job under one master,
# with one launcher per transport, one outcome type, one round-log path
# and one replay rule. The per-shape entry points, outcome types, the
# single search's own log session and the farm's epoch switch stay gone
# from everything but test modules.
retired='search_in_process|parallel_search|net_coordinator_search|serial_farm|farm_search|net_farm_search|ParallelOutcome|FarmOutcome|NetOutcome|NetFarmOutcome|SearchSession|WalSession|across_epochs|FarmOptions'
for f in $(find crates src examples -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one run shape: $f brings a second run shape back"
    exit 1
  fi
done
for flag in --checkpoint --checkpoint-out --resume; do
  status=0
  ./target/release/fastdnaml --input "$SMOKE/data.phy" "$flag" "$SMOKE/cp.json" --quiet \
    2> "$SMOKE/retired.err" || status=$?
  test "$status" -eq 1
  test "$(wc -l < "$SMOKE/retired.err")" -eq 1
  grep -q -- "$flag .*--wal-dir" "$SMOKE/retired.err"
done

status=0
./target/release/fastdnaml --input "$SMOKE/data.phy" --intra-threads 4 --quiet \
  2> "$SMOKE/intra.err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$SMOKE/intra.err")" -eq 1
grep -q 'unknown argument "--intra-threads"' "$SMOKE/intra.err"

# One scheduling topology: the paper's flat foreman. The hierarchical
# foreman tree ran ~10x slower than flat on every shape measured (DESIGN
# §12.2) and was retired; its module, constructor, messages and worker
# entry point stay gone from everything but test modules, and its flag is
# refused like any unknown one.
retired='hierarchy::|Sched::regional|LeaseRequest|StealRequest|StealReturn|Rehome|run_worker_homed'
for f in $(find crates src examples -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one scheduling topology: $f brings the foreman tree back"
    exit 1
  fi
done
status=0
./target/release/fastdnaml --input "$SMOKE/data.phy" --parallel 5 --regions 2 --quiet \
  2> "$SMOKE/regions.err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$SMOKE/regions.err")" -eq 1
grep -q 'unknown argument "--regions"' "$SMOKE/regions.err"

# One scheduler: the daemon's jumbles go through the universe's foreman
# (`Sched`), so the daemon's own worker table stays gone from
# crates/serve/src but for test modules.
retired='struct Worker\b|struct Flight|fn idle_worker|fn worker_lost|fn worker_rejoined'
for f in $(find crates/serve/src -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one scheduler: $f keeps a worker table of its own again"
    exit 1
  fi
done
# One data-plane vocabulary: binary is the only data-plane encoding, with
# no knob, codec object or sniffing decoder to pick another, and a jumble
# goes out as a `JobTask` or a `JumbleResume` and comes back as one
# `JumbleResult`. The job-less task stays gone from the non-test code,
# and the retired daemon answer (kept for the benchmark's codec probe)
# from everything that runs a jumble.
retired='WireFormat|BinaryCodec|decode_auto|write_frame_as|with_wire|Message::JumbleTask'
for f in $(find crates/*/src src -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one data-plane vocabulary: $f brings a second encoding or jumble form back"
    exit 1
  fi
done
for f in $(find crates/core/src crates/serve/src crates/net/src src -name '*.rs'); do
  if nontest "$f" | grep -n 'JobTaskResult'; then
    echo "one data-plane vocabulary: $f answers a jumble with the retired JobTaskResult"
    exit 1
  fi
done

# Nor does the foreman tree survive as a model: simsp's simulated
# hierarchy, its report events, the batch frame and the nesting bound
# that only the batch frame needed stay gone from the non-test code.
retired='HierConfig|simulate_trace_hierarchical|binary_edit_task_bytes|RegionQueueDepth|LeaseGranted|BatchSent|HierarchyStats|Message::Batch|MAX_DEPTH'
for f in $(find crates/*/src src -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one scheduling topology: $f brings a piece of the foreman tree back"
    exit 1
  fi
done

# One flag table: each flag is declared once, with the modes that read it,
# and `--help`, bounds and refusals come from it. No hand-written usage
# text, conflict list, spec builder or job-bound rank slot comes back.
retired='const USAGE|JobSpecBuilder|conflict_if|WrongJob'
for f in $(find crates/*/src src -name '*.rs'); do
  if nontest "$f" | grep -nE "$retired"; then
    echo "one flag table: $f brings a second list of what a flag means back"
    exit 1
  fi
done

# One worker-fault injector: a `ChaosPlan` scripts every in-process fault
# (seeded mixes, and drops, delays and severs on named ranks). The second
# wrapper that only dropped, delayed or severed a rank's first results
# stays gone, tests and examples included.
if grep -rnE 'FaultyTransport|FaultPlan|FaultKind|comm::fault' crates/*/src src tests examples; then
  echo "one worker-fault injector: a second fault wrapper is back"
  exit 1
fi

# No dead public surface: every `pub fn` of the runtime's library crates
# (core, serve, comm, net) has a caller outside its own file's test module
# — another file, a test target, an example or the benchmark — or a line
# on the allowlist below. A caller is approximated by the name: a `pub fn`
# whose name appears on no line but definitions has none. A helper only
# tests use lives in the test module that uses it.
#
# Allowlist, one name per entry with its reason (none at present):
dead_allow=''
set +x
corpus=target/pub_fn_corpus.rs
for f in $(find crates src examples benchmark/src tests -name '*.rs' -not -path '*/target/*'); do
  case "$f" in
    tests/* | crates/*/tests/*) cat "$f" ;;
    *) nontest "$f" ;;
  esac
done | grep -v '^ *//' > "$corpus"
dead=0
for f in $(find crates/core/src crates/serve/src crates/comm/src crates/net/src -name '*.rs'); do
  for name in $(nontest "$f" | sed -n 's/^ *pub fn \([a-z_0-9]*\).*/\1/p'); do
    uses=$(grep -cE "(^|[^a-z_0-9])$name([^a-z_0-9]|\$)" "$corpus" || true)
    defs=$(grep -cE "fn $name([^a-z_0-9]|\$)" "$corpus" || true)
    if [ "$uses" -le "$defs" ] && ! echo " $dead_allow " | grep -q " $name "; then
      echo "dead public surface: $f: pub fn $name has no caller"
      dead=1
    fi
  done
done
set -x
test "$dead" -eq 0

# Wire smoke: the wire_report asserts the >=5x bytes-per-task reduction.
cargo run --release -p fdml-bench --bin wire_report -- --quick --out target/bench_wire_smoke.json

# Benchmark smoke: the standalone `benchmark/` package compiles against
# the library surface (`benchmark/src/probes.rs`) and drives the binary
# through its flags; its 12-taxon `--quick` runs of the two incremental
# workloads catch drift in either before the benchmark driver does.
# Building the benchmark rewrites its lock file (it drops a stale entry),
# and CI changes nothing under benchmark/: the file is saved first and put
# back afterwards, on failure too, and a checkout must show benchmark/
# clean once the smoke is over.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock.saved
trap 'cp target/benchmark-Cargo.lock.saved benchmark/Cargo.lock' EXIT
for workload in threads101_inc net101_inc; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --quick --repeats 1
done
cp target/benchmark-Cargo.lock.saved benchmark/Cargo.lock
trap - EXIT
if git rev-parse --is-inside-work-tree > /dev/null 2>&1 &&
  [ -n "$(git status --porcelain -- benchmark)" ]; then
  echo "benchmark smoke: CI left benchmark/ changed"
  git status --porcelain -- benchmark
  exit 1
fi

# Jumble-farm smoke: 3 jumbles at width 2, sharded over worker processes
# (TCP) and worker threads — the per-jumble trees and the consensus must
# both be byte-identical across the two transports.
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --jumbles 3 --farm-width 2 --net spawn 4 --quiet \
  --jumble-trees "$SMOKE/farm_net_trees.txt" --output "$SMOKE/farm_net.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --jumbles 3 --farm-width 2 --parallel 4 --quiet \
  --jumble-trees "$SMOKE/farm_thr_trees.txt" --output "$SMOKE/farm_thr.nwk"
cmp "$SMOKE/farm_net_trees.txt" "$SMOKE/farm_thr_trees.txt"
cmp "$SMOKE/farm_net.nwk" "$SMOKE/farm_thr.nwk"

# Coordinator crash-recovery smoke, three kill styles:
#
# (1) Deterministic: --chaos-storage-crash aborts the coordinator at an
# exact WAL storage operation, leaving the file a SIGKILL there would
# leave. Re-running the same command must resume from the round log and
# emit the byte-identical tree, then retire the log and keep the run's
# manifest. Running it once more answers from that manifest, unsearched,
# with the same bytes.
WALD="$SMOKE/wal_crash"
rm -rf "$WALD"; mkdir -p "$WALD"
rm -f "$SMOKE/wal_crash.nwk"   # stale output from a prior gate run
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --quiet \
  --wal-dir "$WALD" --chaos-storage-crash 6 --output "$SMOKE/wal_crash.nwk" 2>/dev/null \
  && { echo "crash injection did not kill the coordinator"; exit 1; }
test ! -f "$SMOKE/wal_crash.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --quiet \
  --wal-dir "$WALD" --output "$SMOKE/wal_crash.nwk"
cmp "$SMOKE/wal_crash.nwk" "$SMOKE/threads.nwk"
test -z "$(find "$WALD" -name '*.wal')"   # log retired: the directory stays bounded
test -s "$WALD/manifest.json"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --quiet \
  --wal-dir "$WALD" --output "$SMOKE/wal_rerun.nwk"
cmp "$SMOKE/wal_rerun.nwk" "$SMOKE/threads.nwk"
#
# (2) Across deployments: the same abort under --parallel, resumed with no
# --parallel at all. Every deployment commits the same rounds, so the
# serial program replays the threaded run's log to the same bytes. The
# directory starts empty: (1)'s manifest would answer this run.
rm -rf "$WALD"; mkdir -p "$WALD"
rm -f "$SMOKE/wal_cross.nwk"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --parallel 4 --quiet \
  --wal-dir "$WALD" --chaos-storage-crash 6 --output "$SMOKE/wal_cross.nwk" 2>/dev/null \
  && { echo "crash injection did not kill the coordinator"; exit 1; }
test -n "$(ls -A "$WALD")"    # the interrupted log is there to resume
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --quiet \
  --wal-dir "$WALD" --output "$SMOKE/wal_cross.nwk"
cmp "$SMOKE/wal_cross.nwk" "$SMOKE/threads.nwk"
test -z "$(find "$WALD" -name '*.wal')"
test -s "$WALD/manifest.json"
#
# (3) A real kill -9 mid-farm: 24 jumbles give the coordinator enough
# wall time to be caught with its manifest and WAL half-written. The
# relaunched command — the same one, --wal-dir alone — must finish the
# farm with per-jumble trees byte-identical to an uninterrupted baseline.
# The farm's manifest stays in the directory; no round log does.
rm -rf "$WALD"; mkdir -p "$WALD"
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --jumbles 24 --parallel 4 --quiet \
  --jumble-trees "$SMOKE/farm_base_trees.txt" --output /dev/null
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --jumbles 24 --parallel 4 --quiet \
  --wal-dir "$WALD" --jumble-trees "$SMOKE/farm_kill_trees.txt" --output /dev/null &
FARM_PID=$!
until [ -s "$WALD/manifest.json" ]; do sleep 0.02; done
kill -9 "$FARM_PID" 2>/dev/null || true
wait "$FARM_PID" 2>/dev/null || true
./target/release/fastdnaml --input "$SMOKE/data.phy" --jumble 7 --jumbles 24 --parallel 4 --quiet \
  --wal-dir "$WALD" --jumble-trees "$SMOKE/farm_kill_trees.txt" --output /dev/null
cmp "$SMOKE/farm_kill_trees.txt" "$SMOKE/farm_base_trees.txt"
test -s "$WALD/manifest.json"
test -z "$(find "$WALD" -name '*.wal')"

# The full crash-point matrices behind the smoke (every WAL boundary,
# every storage op of a farm, torn tails, fault storms) run as part of
# `cargo test` above: tests/wal_resume.rs and tests/storage_faults.rs.

# Service smoke: start the job daemon with no workers, submit two farms
# (they stay queued — no fleet yet), kill the daemon without ceremony,
# then restart it on a fresh port with a spawned fleet and the same state
# directory. Both jobs must resume from durable state and finish with
# results byte-identical to local serial runs of the same seeds.
SERVE=target/serve_smoke
rm -rf "$SERVE"
mkdir -p "$SERVE"
cp "$SMOKE/data.phy" "$SERVE/data.phy"
./target/release/fastdnaml --serve --state-dir "$SERVE/state" --listen 127.0.0.1:0 \
  --addr-file "$SERVE/addr" --ranks 4 --quiet &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$SERVE/addr")
JOB_A=$(./target/release/fastdnaml --submit --connect "$ADDR" --input "$SERVE/data.phy" \
  --jumble 7 --jumbles 3 --job-label smoke-a --quiet)
JOB_B=$(./target/release/fastdnaml --submit --connect "$ADDR" --input "$SERVE/data.phy" \
  --jumble 11 --jumbles 2 --job-label smoke-b --quiet)
./target/release/fastdnaml --status "$JOB_A" --connect "$ADDR" | grep -q queued
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
rm -f "$SERVE/addr"
./target/release/fastdnaml --serve --state-dir "$SERVE/state" --listen 127.0.0.1:0 \
  --addr-file "$SERVE/addr" --ranks 5 --spawn-workers --quiet &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$SERVE/addr")
./target/release/fastdnaml --attach "$JOB_A" --connect "$ADDR" --quiet --output "$SERVE/job_a.nwk"
./target/release/fastdnaml --attach "$JOB_B" --connect "$ADDR" --quiet --output "$SERVE/job_b.nwk"
./target/release/fastdnaml --status "$JOB_A" --connect "$ADDR" | grep -q done
# Every jumble's round log went with its result: none outlives its job
# (the jobs' manifests stay beside them).
[ -z "$(find "$SERVE/state/wal" -name '*.wal')" ]
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
./target/release/fastdnaml --input "$SERVE/data.phy" --jumble 7 --jumbles 3 --quiet \
  --output "$SERVE/serial_a.nwk"
./target/release/fastdnaml --input "$SERVE/data.phy" --jumble 11 --jumbles 2 --quiet \
  --output "$SERVE/serial_b.nwk"
cmp "$SERVE/job_a.nwk" "$SERVE/serial_a.nwk"
cmp "$SERVE/job_b.nwk" "$SERVE/serial_b.nwk"

# Fault-injection smoke rides the default gate too.
chaos_smoke
