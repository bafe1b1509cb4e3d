//! Wire-codec study: bytes per scored candidate and codec throughput for
//! the eras of the dispatch path — one JSON whole tree per candidate (the
//! paper's design), candidates as edits in `EditChunk` task frames (JSON,
//! then `fdml-wire` binary). A task is a chunk of edits, cut by the
//! master's own `edit_chunk_len`, so every figure is per *candidate*.
//! Writes `BENCH_wire.json`.
//!
//! Usage: wire_report [--quick] [--taxa N] [--candidates N] [--workers N]
//!                    [--out PATH]
//!
//! One gate is enforced (the process exits non-zero if it fails): a binary
//! chunk frame must carry a candidate in at least **5× fewer bytes** than
//! the JSON whole-tree frame it replaces.

use fdml_bench::Args;
use fdml_comm::{JsonCodec, Message, MessageCodec, TreeEdit};
use fdml_wire::{decode_message, encode_message};
use serde::Serialize;
use std::time::Instant;

/// One codec × payload row of the study.
#[derive(Serialize)]
struct WireRow {
    /// What travelled: `json-tree`, `json-chunk` or `binary-chunk`.
    scheme: String,
    /// Frames put on the wire for all the rounds.
    frames: usize,
    /// Total wire bytes.
    total_bytes: usize,
    /// Wire bytes per scored candidate.
    bytes_per_candidate: f64,
    /// Encode throughput, candidates per second.
    encode_candidates_per_sec: f64,
    /// Decode throughput, candidates per second.
    decode_candidates_per_sec: f64,
}

#[derive(Serialize)]
struct ReductionGate {
    json_tree_bytes_per_candidate: f64,
    binary_chunk_bytes_per_candidate: f64,
    reduction: f64,
    threshold: f64,
    pass: bool,
}

#[derive(Serialize)]
struct WireReport {
    taxa: usize,
    candidates: usize,
    /// Workers the rounds were chunked for.
    workers: usize,
    /// Candidates per rearrangement round (`2·taxa − 6`, radius 1).
    round_moves: usize,
    /// Edits per chunk task: `edit_chunk_len(round_moves, workers)`.
    chunk_len: usize,
    rows: Vec<WireRow>,
    gate: ReductionGate,
}

/// A Newick caterpillar with `taxa` leaves and realistic branch lengths —
/// the payload the JSON era shipped once per candidate.
fn caterpillar(taxa: usize) -> String {
    let mut s = String::from("(t0:0.0123456,t1:0.0234567");
    for i in 2..taxa {
        s = format!("({s}:0.0{}1234,t{i}:0.0{}4321", i % 97, (i * 7) % 97);
    }
    s.push_str(");");
    s
}

/// The candidate edits of the study, deterministic in `i`.
fn candidate_edits(candidates: usize, taxa: usize) -> Vec<TreeEdit> {
    let nodes = (2 * taxa - 2) as u32;
    (0..candidates as u32)
        .map(|i| TreeEdit::Regraft {
            root: (i * 7) % nodes,
            attachment: (i * 13 + 1) % nodes,
            a: (i * 29 + 2) % nodes,
            b: (i * 31 + 3) % nodes,
        })
        .collect()
}

/// Measure one scheme: encode every frame, decode every frame back, and
/// report sizes plus throughput per candidate carried.
fn measure(
    scheme: &str,
    frames: &[Message],
    candidates: usize,
    encode: impl Fn(&Message) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<Message>,
) -> WireRow {
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(&encode).collect();
    let encode_secs = t0.elapsed().as_secs_f64();
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();
    let t1 = Instant::now();
    for bytes in &encoded {
        let msg = decode(bytes).expect("round-trip decodes");
        std::hint::black_box(msg);
    }
    let decode_secs = t1.elapsed().as_secs_f64();
    WireRow {
        scheme: scheme.into(),
        frames: frames.len(),
        total_bytes,
        bytes_per_candidate: total_bytes as f64 / candidates as f64,
        encode_candidates_per_sec: candidates as f64 / encode_secs.max(1e-9),
        decode_candidates_per_sec: candidates as f64 / decode_secs.max(1e-9),
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.has_flag("quick");
    let taxa: usize = args.get("taxa", 200);
    let candidates: usize = args.get("candidates", if quick { 2048 } else { 16384 });
    let workers: usize = args.get("workers", 2);
    let out = args.get_str("out", "BENCH_wire.json");

    let base = caterpillar(taxa);
    let edits = candidate_edits(candidates, taxa);
    // A radius-1 rearrangement round scores 2n − 6 candidates; the master
    // cuts each round into chunks for its workers.
    let round_moves = 2 * taxa - 6;
    let chunk_len = fdml_core::master::edit_chunk_len(round_moves, workers);

    // The paper's era: every candidate ships as a whole Newick tree in a
    // JSON frame.
    let json_trees: Vec<Message> = (0..candidates as u64)
        .map(|task| Message::TreeTask {
            task,
            newick: base.clone(),
        })
        .collect();
    // The edit era: a round's candidates travel as chunk tasks.
    let chunks: Vec<Message> = edits
        .chunks(round_moves)
        .flat_map(|round| round.chunks(chunk_len))
        .enumerate()
        .map(|(task, chunk)| Message::EditChunk {
            task: task as u64,
            base_id: 42,
            edits: chunk.to_vec(),
            base_newick: None,
        })
        .collect();

    let json = |m: &Message| JsonCodec.encode(m).expect("json encodes");
    let from_json = |b: &[u8]| JsonCodec.decode(b).ok();
    let from_binary = |b: &[u8]| decode_message(b).ok();
    let rows = vec![
        measure("json-tree", &json_trees, candidates, json, from_json),
        measure("json-chunk", &chunks, candidates, json, from_json),
        measure(
            "binary-chunk",
            &chunks,
            candidates,
            encode_message,
            from_binary,
        ),
    ];

    println!(
        "Wire study — {candidates} candidates, {taxa}-taxon base tree, \
         rounds of {round_moves} in chunks of {chunk_len} ({workers} workers)\n"
    );
    println!("scheme           frames  total bytes  bytes/cand   enc Mcand/s   dec Mcand/s");
    for r in &rows {
        println!(
            "{:<15} {:>7} {:>12} {:>11.1} {:>13.2} {:>13.2}",
            r.scheme,
            r.frames,
            r.total_bytes,
            r.bytes_per_candidate,
            r.encode_candidates_per_sec / 1e6,
            r.decode_candidates_per_sec / 1e6
        );
    }

    let per_candidate = |scheme: &str| {
        rows.iter()
            .find(|r| r.scheme == scheme)
            .expect("scheme present")
            .bytes_per_candidate
    };
    let gate = ReductionGate {
        json_tree_bytes_per_candidate: per_candidate("json-tree"),
        binary_chunk_bytes_per_candidate: per_candidate("binary-chunk"),
        reduction: per_candidate("json-tree") / per_candidate("binary-chunk"),
        threshold: 5.0,
        pass: per_candidate("json-tree") >= 5.0 * per_candidate("binary-chunk"),
    };
    println!(
        "\nbytes/candidate: json whole-tree {:.1} → binary chunk {:.1} ({:.0}× reduction, gate ≥ {:.0}×)",
        gate.json_tree_bytes_per_candidate,
        gate.binary_chunk_bytes_per_candidate,
        gate.reduction,
        gate.threshold
    );

    let report = WireReport {
        taxa,
        candidates,
        workers,
        round_moves,
        chunk_len,
        rows,
        gate,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("report serializes") + "\n",
    )
    .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    assert!(
        report.gate.pass,
        "binary chunk frames must be ≥5× smaller per candidate than JSON whole-tree frames: {:.1} vs {:.1}",
        report.gate.binary_chunk_bytes_per_candidate, report.gate.json_tree_bytes_per_candidate
    );
}
