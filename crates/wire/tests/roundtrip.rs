//! Encode→decode identity for every `Message` variant, in both codecs.
//!
//! The generator is seed-driven: each case builds one message of every
//! variant from a splitmix64 stream, so a single proptest case sweeps the
//! whole vocabulary and a thousand cases sweep it with a thousand
//! different payload shapes.

use fdml_comm::codec::{JsonCodec, MessageCodec};
use fdml_comm::message::{EditScore, Message, MessageKind, MonitorEvent, TaskPayload, TreeEdit};
use fdml_wire::{decode_auto, BinaryCodec};
use proptest::prelude::*;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64: cheap, seedable, good enough to vary payloads.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn string(&mut self) -> String {
        let len = (self.next() % 40) as usize;
        // Mix ASCII newick-ish text with multi-byte code points so UTF-8
        // length prefixes are exercised.
        (0..len)
            .map(|_| match self.next() % 8 {
                0 => 'é',
                1 => '…',
                n => (b"(a:1,b);"[n as usize % 8]) as char,
            })
            .collect()
    }

    fn f64(&mut self) -> f64 {
        // Arbitrary bit patterns, steering clear of NaN (NaN != NaN would
        // fail the equality check for reasons unrelated to the codec).
        let v = f64::from_bits(self.next());
        if v.is_nan() {
            -1234.5
        } else {
            v
        }
    }

    fn edit(&mut self) -> TreeEdit {
        if self.next().is_multiple_of(2) {
            TreeEdit::Insert {
                taxon: self.next() as u32,
                a: self.next() as u32,
                b: self.next() as u32,
            }
        } else {
            TreeEdit::Regraft {
                root: self.next() as u32,
                attachment: self.next() as u32,
                a: self.next() as u32,
                b: self.next() as u32,
            }
        }
    }

    /// Zero to three edits: the empty chunk, the one-edit chunk (whose
    /// quarantine payload keeps the frozen tag-2 layout) and longer ones.
    fn edits(&mut self) -> Vec<TreeEdit> {
        (0..self.next() % 4).map(|_| self.edit()).collect()
    }

    fn payload(&mut self) -> TaskPayload {
        match self.next() % 3 {
            0 => TaskPayload::Tree {
                newick: self.string(),
            },
            1 => TaskPayload::Jumble { seed: self.next() },
            _ => TaskPayload::TreeEdit {
                base_id: self.next(),
                edits: self.edits(),
            },
        }
    }

    fn monitor(&mut self) -> MonitorEvent {
        match self.next() % 5 {
            0 => MonitorEvent::Dispatched {
                task: self.next(),
                worker: (self.next() % 4096) as usize,
            },
            1 => MonitorEvent::Completed {
                task: self.next(),
                worker: (self.next() % 4096) as usize,
                ln_likelihood: self.f64(),
                work_units: self.next(),
                service_us: self.next(),
            },
            2 => MonitorEvent::WorkerTimedOut {
                worker: (self.next() % 4096) as usize,
                task: self.next(),
            },
            3 => MonitorEvent::WorkerRecovered {
                worker: (self.next() % 4096) as usize,
            },
            _ => MonitorEvent::RoundComplete {
                round: self.next(),
                candidates: (self.next() % 10_000) as usize,
                best_ln_likelihood: self.f64(),
                best_newick: self.string(),
            },
        }
    }

    /// One message of the variant with this index.
    fn message(&mut self, variant: usize) -> Message {
        match variant {
            0 => Message::ProblemData {
                phylip: self.string(),
                config_json: self.string(),
            },
            1 => Message::WorkerReady,
            2 => Message::TreeTask {
                task: self.next(),
                newick: self.string(),
            },
            3 => Message::TreeResult {
                task: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                work_units: self.next(),
            },
            4 => Message::JumbleTask {
                task: self.next(),
                seed: self.next(),
            },
            5 => Message::JumbleResult {
                task: self.next(),
                seed: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                rounds: self.next(),
                candidates: self.next(),
                work_units: self.next(),
            },
            6 => Message::Monitor(self.monitor()),
            7 => Message::PeerDown {
                rank: (self.next() % 4096) as usize,
            },
            8 => Message::PeerUp {
                rank: (self.next() % 4096) as usize,
            },
            9 => Message::Quarantined {
                task: self.next(),
                failures: self.next(),
                payload: self.payload(),
            },
            10 => Message::Abort {
                reason: self.string(),
            },
            11 => Message::JobData {
                job: self.next(),
                phylip: self.string(),
                config_json: self.string(),
            },
            12 => Message::JobTask {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
            },
            13 => Message::JobTaskResult {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                work_units: self.next(),
            },
            14 => Message::JobRetire { job: self.next() },
            15 => Message::BaseTopology {
                base_id: self.next(),
                newick: self.string(),
            },
            16 => Message::TreeEditTask {
                task: self.next(),
                base_id: self.next(),
                edit: self.edit(),
                base_newick: if self.next().is_multiple_of(2) {
                    None
                } else {
                    Some(self.string())
                },
            },
            17 => Message::Ping,
            18 => Message::EditChunk {
                task: self.next(),
                base_id: self.next(),
                edits: self.edits(),
                base_newick: if self.next().is_multiple_of(2) {
                    None
                } else {
                    Some(self.string())
                },
            },
            19 => Message::EditScores {
                task: self.next(),
                scores: (0..self.next() % 4)
                    .map(|_| EditScore {
                        ln_likelihood: self.f64(),
                        work_units: self.next(),
                    })
                    .collect(),
            },
            _ => Message::Shutdown,
        }
    }
}

const VARIANTS: usize = 21;

fn roundtrip(codec: &dyn MessageCodec, msg: &Message) -> Result<(), TestCaseError> {
    let bytes = codec.encode(msg).expect("encode");
    let back = codec.decode(&bytes).expect("decode");
    prop_assert_eq!(&back, msg, "{} codec broke identity", codec.name());
    // The sniffing reader must agree regardless of which codec wrote it.
    let sniffed = decode_auto(&bytes).expect("decode_auto");
    prop_assert_eq!(&sniffed, msg, "auto-detect broke on {}", codec.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    fn every_variant_roundtrips_in_both_codecs(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for variant in 0..VARIANTS {
            let msg = rng.message(variant);
            roundtrip(&BinaryCodec, &msg)?;
            roundtrip(&JsonCodec, &msg)?;
        }
    }
}

/// The generator above must actually cover the whole vocabulary: if a new
/// variant is added to `Message` without extending the generator (or the
/// codec), this fails at compile time in `kind()`'s match or here.
#[test]
fn generator_covers_every_message_kind() {
    let mut rng = Rng(7);
    let kinds: std::collections::BTreeSet<MessageKind> =
        (0..VARIANTS).map(|v| rng.message(v).kind()).collect();
    assert_eq!(kinds.len(), VARIANTS, "generator misses a variant");
}
