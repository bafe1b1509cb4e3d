//! The one file of the benchmark that calls the repository's libraries.
//!
//! End-to-end runs drive the `fastdnaml` binary through its command line
//! and never pass through here. What does: generating the inputs, checking
//! the program's outputs, and the leaf-layer probes of the traced run. The
//! functions used are listed in `benchmark/README.md`; none of them is an
//! entry point that ROADMAP items 2, 3 or 6 list for removal, so those
//! refactors should not need to edit the benchmark.

use fdml_comm::{JsonCodec, Message, MessageCodec, TreeEdit};
use fdml_core::durable::{atomic_write, LogWriter};
use fdml_datagen::{evolve, yule_tree, EvolutionConfig};
use fdml_likelihood::engine::{LikelihoodEngine, OptimizeOptions};
use fdml_likelihood::incremental::ClvCache;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::ops::{enumerate_spr_moves, TreeMove};
use fdml_phylo::patterns::PatternAlignment;
use fdml_phylo::tree::{Tree, DEFAULT_BRANCH_LENGTH};
use fdml_phylo::{newick, phylip};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The kernel instruction set the probe engine (and, on the same host, the
/// program) dispatches to.
pub fn kernel_isa() -> &'static str {
    fdml_likelihood::isa::active().name()
}

/// Generate a workload's alignment as PHYLIP text.
///
/// The tree and the evolved columns are fixed per taxon count (the 50- and
/// 101-taxon seeds are `fdml_datagen::paper_dataset`'s), and `seed` decides
/// the order of the columns and the taxon labels. The search does the same
/// work whatever the column order, so runs with different seeds measure the
/// same thing: across independently generated alignments of one size,
/// seconds-to-tree spreads over 40 % of its median (the number of
/// rearrangement rounds is a property of the data), which no regression
/// bound could see through.
pub fn generate_phylip(taxa: usize, sites: usize, seed: u64) -> String {
    let base = match taxa {
        50 => 0x5001,
        101 => 0x1011,
        n => 0xFD00 + n as u64,
    };
    let tree = yule_tree(taxa, 0.08, base);
    let prefix = format!("s{:04x}t", seed & 0xFFFF);
    let evolved = evolve(
        &tree,
        sites,
        &EvolutionConfig::default(),
        base ^ 0xABCD,
        &prefix,
    );
    let mut order: Vec<usize> = (0..sites).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let rows = (0..taxa as u32)
        .map(|t| {
            let row = evolved.sequence(t);
            (
                evolved.name(t).to_string(),
                order.iter().map(|&c| row[c]).collect(),
            )
        })
        .collect();
    let shuffled = Alignment::new(rows).expect("a column permutation keeps the alignment valid");
    phylip::write(&shuffled)
}

/// `phylo.parse_ms`: PHYLIP parse plus pattern compression, mean of `reps`.
pub fn parse_ms(phylip_text: &str, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        let alignment = phylip::parse(black_box(phylip_text)).expect("generated PHYLIP parses");
        black_box(PatternAlignment::compress(&alignment));
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// What the likelihood probes measured on one tree.
pub struct LikelihoodProbe {
    /// `LikelihoodEngine::evaluate`, wall per pattern update.
    pub evaluate_ns_per_pattern: f64,
    /// `LikelihoodEngine::optimize` from default branch lengths, wall per tree.
    pub optimize_ms_per_tree: f64,
    /// Pattern updates of one such optimization (exact).
    pub optimize_pattern_updates: u64,
    /// `ClvCache::score_edit`, wall per radius-1 regraft of the tree.
    pub score_edit_us: f64,
}

/// What the codec probe measured on one task and its result.
pub struct WireProbe {
    /// Encoded bytes of one task plus its result (exact).
    pub bytes_per_task: u64,
    /// Wall to encode the pair.
    pub encode_ns: f64,
    /// Wall to decode the pair.
    pub decode_ns: f64,
}

/// Which messages carry one unit of a workload's work.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TaskShape {
    /// `TreeTask` → `TreeResult`: whole-tree scoring (`--no-incremental`).
    WholeTree,
    /// `TreeEditTask` → `TreeResult`: base + edit scoring (`--incremental`).
    Edit,
    /// `JobTask` → `JobTaskResult`: a whole jumble of a daemon job.
    Jumble,
}

/// The probe engine over one alignment: checks output trees and times the
/// likelihood layer on them.
pub struct Scorer {
    alignment: Alignment,
    engine: LikelihoodEngine,
}

impl Scorer {
    /// Parse the PHYLIP text the program was given and build an engine
    /// with the program's defaults.
    pub fn new(phylip_text: &str) -> Result<Scorer, String> {
        let alignment = phylip::parse(phylip_text).map_err(|e| e.to_string())?;
        let engine = LikelihoodEngine::new(&alignment);
        Ok(Scorer { alignment, engine })
    }

    /// The Newick text must parse and name every taxon exactly once.
    pub fn check_taxa(&self, newick_text: &str) -> Result<(), String> {
        let ast = newick::parse(newick_text.trim()).map_err(|e| e.to_string())?;
        let mut seen: Vec<&str> = ast.leaf_names();
        seen.sort_unstable();
        let mut expected: Vec<&str> = self.alignment.names().iter().map(String::as_str).collect();
        expected.sort_unstable();
        if seen == expected {
            Ok(())
        } else {
            Err(format!(
                "tree names {} leaves, the alignment {} taxa, or the names differ",
                seen.len(),
                expected.len()
            ))
        }
    }

    /// Check a tree with branch lengths and recompute its log-likelihood.
    pub fn ln_likelihood(&self, newick_text: &str) -> Result<f64, String> {
        self.check_taxa(newick_text)?;
        let tree = self.tree(newick_text)?;
        let lnl = self.engine.evaluate(&tree).ln_likelihood;
        if lnl.is_finite() {
            Ok(lnl)
        } else {
            Err(format!("recomputed lnL is {lnl}"))
        }
    }

    fn tree(&self, newick_text: &str) -> Result<Tree, String> {
        newick::parse_tree(newick_text.trim(), &self.alignment).map_err(|e| e.to_string())
    }

    /// Time the likelihood layer on the workload's own output tree.
    pub fn likelihood_probe(&self, newick_text: &str) -> Result<LikelihoodProbe, String> {
        const EVALUATE_REPS: u32 = 200;
        const OPTIMIZE_REPS: u32 = 5;
        let tree = self.tree(newick_text)?;

        let updates = self.engine.evaluate(&tree).work.total_pattern_updates();
        let start = Instant::now();
        for _ in 0..EVALUATE_REPS {
            black_box(self.engine.evaluate(black_box(&tree)));
        }
        let evaluate_ns_per_pattern =
            start.elapsed().as_secs_f64() * 1e9 / (EVALUATE_REPS as f64 * updates as f64);

        // A candidate as a worker first sees it: topology known, lengths not.
        let mut unfitted = tree.clone();
        for e in tree.edge_ids() {
            unfitted.set_length(e, DEFAULT_BRANCH_LENGTH);
        }
        let opts = OptimizeOptions::default();
        let mut optimize_pattern_updates = 0;
        let start = Instant::now();
        for _ in 0..OPTIMIZE_REPS {
            let mut t = unfitted.clone();
            optimize_pattern_updates = self
                .engine
                .optimize(&mut t, &opts)
                .work
                .total_pattern_updates();
            black_box(t);
        }
        let optimize_ms_per_tree = start.elapsed().as_secs_f64() * 1e3 / OPTIMIZE_REPS as f64;

        let moves = enumerate_spr_moves(&tree, 1);
        let mut cache = ClvCache::build(&self.engine, tree);
        let start = Instant::now();
        for mv in &moves {
            black_box(
                cache
                    .score_edit(&self.engine, mv, &opts)
                    .map_err(|e| e.to_string())?,
            );
        }
        let score_edit_us = start.elapsed().as_secs_f64() * 1e6 / moves.len() as f64;

        Ok(LikelihoodProbe {
            evaluate_ns_per_pattern,
            optimize_ms_per_tree,
            optimize_pattern_updates,
            score_edit_us,
        })
    }

    /// One task and its result, as the workload's path would send them for
    /// this output tree.
    fn task_messages(&self, shape: TaskShape, newick_text: &str) -> Result<[Message; 2], String> {
        let tree = self.tree(newick_text)?;
        let ln_likelihood = self.engine.evaluate(&tree).ln_likelihood;
        let newick = newick_text.trim().to_string();
        let result = Message::TreeResult {
            task: 4242,
            newick: newick.clone(),
            ln_likelihood,
            work_units: 1_000_000,
        };
        Ok(match shape {
            TaskShape::WholeTree => [Message::TreeTask { task: 4242, newick }, result],
            TaskShape::Edit => {
                let Some(TreeMove::Spr {
                    root,
                    attachment,
                    target,
                }) = enumerate_spr_moves(&tree, 1).into_iter().next()
                else {
                    return Err("output tree has no radius-1 regraft".into());
                };
                let edit = TreeEdit::Regraft {
                    root: root.0,
                    attachment: attachment.0,
                    a: target.0 .0,
                    b: target.1 .0,
                };
                [
                    Message::TreeEditTask {
                        task: 4242,
                        base_id: 17,
                        edit,
                        base_newick: None,
                    },
                    result,
                ]
            }
            TaskShape::Jumble => [
                Message::JobTask {
                    job: 1,
                    task: 4242,
                    seed: 7,
                },
                Message::JobTaskResult {
                    job: 1,
                    task: 4242,
                    seed: 7,
                    newick,
                    ln_likelihood,
                    work_units: 1_000_000,
                },
            ],
        })
    }

    /// Time both codecs on the workload's task/result pair: `(binary, json)`.
    pub fn wire_probe(
        &self,
        shape: TaskShape,
        newick_text: &str,
    ) -> Result<(WireProbe, WireProbe), String> {
        let msgs = self.task_messages(shape, newick_text)?;
        let binary = time_codec(&msgs, fdml_wire::encode_message, |b| {
            fdml_wire::decode_message(b).map_err(|e| e.to_string())
        })?;
        let json = time_codec(
            &msgs,
            |m| {
                JsonCodec
                    .encode(m)
                    .expect("protocol messages encode as JSON")
            },
            |b| JsonCodec.decode(b).map_err(|e| e.to_string()),
        )?;
        Ok((binary, json))
    }
}

fn time_codec(
    msgs: &[Message; 2],
    encode: impl Fn(&Message) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<Message, String>,
) -> Result<WireProbe, String> {
    const REPS: u32 = 2000;
    let bodies: Vec<Vec<u8>> = msgs.iter().map(&encode).collect();
    for (body, msg) in bodies.iter().zip(msgs) {
        if decode(body)? != *msg {
            return Err("message did not survive its codec".into());
        }
    }
    let start = Instant::now();
    for _ in 0..REPS {
        for msg in msgs {
            black_box(encode(black_box(msg)));
        }
    }
    let encode_ns = start.elapsed().as_secs_f64() * 1e9 / REPS as f64;
    let start = Instant::now();
    for _ in 0..REPS {
        for body in &bodies {
            black_box(decode(black_box(body))?);
        }
    }
    let decode_ns = start.elapsed().as_secs_f64() * 1e9 / REPS as f64;
    Ok(WireProbe {
        bytes_per_task: bodies.iter().map(|b| b.len() as u64).sum(),
        encode_ns,
        decode_ns,
    })
}

/// `durable.atomic_write_ms` and `durable.log_append_us`: the two storage
/// primitives under `jobs.json` and the write-ahead logs, timed in `dir`.
pub fn durable_probe(dir: &Path) -> std::io::Result<(f64, f64)> {
    const WRITES: u32 = 20;
    const APPENDS: u32 = 50;
    // A registry snapshot of a few jobs, and one committed-round record
    // (the daemon's WalAppend events on serve_farm10 average 279 bytes).
    let snapshot = vec![b'j'; 4096];
    let record = [b'r'; 280];

    let start = Instant::now();
    for _ in 0..WRITES {
        atomic_write(&dir.join("jobs.json"), &snapshot)?;
    }
    let atomic_write_ms = start.elapsed().as_secs_f64() * 1e3 / WRITES as f64;

    let mut log = LogWriter::create(&dir.join("round.wal"))?;
    let start = Instant::now();
    for _ in 0..APPENDS {
        log.append(&record)?;
    }
    let log_append_us = start.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;
    Ok((atomic_write_ms, log_append_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_permutes_columns_and_nothing_else() {
        let a = phylip::parse(&generate_phylip(12, 60, 1)).unwrap();
        let b = phylip::parse(&generate_phylip(12, 60, 2)).unwrap();
        assert_eq!(generate_phylip(12, 60, 1), generate_phylip(12, 60, 1));
        assert_ne!(a.sequence(0), b.sequence(0));
        let columns = |al: &Alignment| {
            let mut cols: Vec<String> = (0..al.num_sites())
                .map(|s| al.column(s).map(|n| n.to_char()).collect())
                .collect();
            cols.sort();
            cols
        };
        assert_eq!(columns(&a), columns(&b));
    }

    #[test]
    fn the_check_wants_every_taxon_exactly_once() {
        let scorer = Scorer::new(&generate_phylip(4, 60, 3)).unwrap();
        let name = |t: usize| format!("s0003t{t:03}");
        let (a, b, c, d) = (name(0), name(1), name(2), name(3));
        let good = format!("({a}:0.1,{b}:0.1,({c}:0.1,{d}:0.1):0.1);");
        assert!(scorer.ln_likelihood(&good).unwrap() < 0.0);
        let twice = format!("({a}:0.1,{b}:0.1,({c}:0.1,{c}:0.1):0.1);");
        assert!(scorer.check_taxa(&twice).is_err());
        let missing = format!("({a}:0.1,{b}:0.1,{c}:0.1);");
        assert!(scorer.check_taxa(&missing).is_err());
        assert!(scorer.check_taxa("not a tree").is_err());
    }
}
