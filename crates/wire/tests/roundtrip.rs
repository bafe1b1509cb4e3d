//! Encode→decode identity for every `Message` variant, in the binary codec
//! and in the JSON reference rendering.
//!
//! The generator is seed-driven: each case builds one message of every
//! variant from a splitmix64 stream, so a single proptest case sweeps the
//! whole vocabulary and a thousand cases sweep it with a thousand
//! different payload shapes.

use fdml_comm::codec::{JsonCodec, MessageCodec};
use fdml_comm::message::{EditScore, Message, MessageKind, MonitorEvent, TaskPayload, TreeEdit};
use fdml_wire::{decode_message, encode_message};
use proptest::prelude::*;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64: cheap, seedable, good enough to vary payloads.
        rand::splitmix64(&mut self.0)
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

    /// One message of this kind. The match has no wildcard arm: a new
    /// kind does not compile until the generator covers it.
    fn message(&mut self, kind: MessageKind) -> Message {
        match kind {
            MessageKind::ProblemData => Message::ProblemData {
                phylip: self.string(),
                config_json: self.string(),
            },
            MessageKind::WorkerReady => Message::WorkerReady,
            MessageKind::TreeTask => Message::TreeTask {
                task: self.next(),
                newick: self.string(),
            },
            MessageKind::TreeResult => Message::TreeResult {
                task: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                work_units: self.next(),
            },
            MessageKind::JumbleResult => Message::JumbleResult {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                rounds: self.next(),
                candidates: self.next(),
                work_units: self.next(),
            },
            MessageKind::Monitor => Message::Monitor(self.monitor()),
            MessageKind::PeerDown => Message::PeerDown {
                rank: (self.next() % 4096) as usize,
            },
            MessageKind::PeerUp => Message::PeerUp {
                rank: (self.next() % 4096) as usize,
            },
            MessageKind::Quarantined => Message::Quarantined {
                task: self.next(),
                failures: self.next(),
                payload: self.payload(),
            },
            MessageKind::Abort => Message::Abort {
                reason: self.string(),
            },
            MessageKind::JobData => Message::JobData {
                job: self.next(),
                phylip: self.string(),
                config_json: self.string(),
            },
            MessageKind::JobTask => Message::JobTask {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
            },
            MessageKind::JobTaskResult => Message::JobTaskResult {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
                newick: self.string(),
                ln_likelihood: self.f64(),
                work_units: self.next(),
            },
            MessageKind::JobRetire => Message::JobRetire { job: self.next() },
            MessageKind::BaseTopology => Message::BaseTopology {
                base_id: self.next(),
                newick: self.string(),
            },
            MessageKind::TreeEditTask => Message::TreeEditTask {
                task: self.next(),
                base_id: self.next(),
                edit: self.edit(),
                base_newick: self.opt_string(),
            },
            MessageKind::EditChunk => Message::EditChunk {
                task: self.next(),
                base_id: self.next(),
                edits: self.edits(),
                base_newick: self.opt_string(),
            },
            MessageKind::EditScores => Message::EditScores {
                task: self.next(),
                scores: (0..self.next() % 4)
                    .map(|_| EditScore {
                        ln_likelihood: self.f64(),
                        work_units: self.next(),
                    })
                    .collect(),
            },
            MessageKind::Ping => Message::Ping,
            MessageKind::WalRound => Message::WalRound {
                job: self.next(),
                seed: self.next(),
                index: self.next(),
                entry: self.string(),
            },
            MessageKind::JumbleResume => Message::JumbleResume {
                job: self.next(),
                task: self.next(),
                seed: self.next(),
                numerics: self.next() as u32,
                wal: (0..self.next() % 4).map(|_| self.string()).collect(),
            },
            MessageKind::Shutdown => Message::Shutdown,
        }
    }

    fn opt_string(&mut self) -> Option<String> {
        if self.next().is_multiple_of(2) {
            None
        } else {
            Some(self.string())
        }
    }
}

/// Every kind, in declaration order.
const KINDS: [MessageKind; 22] = [
    MessageKind::ProblemData,
    MessageKind::WorkerReady,
    MessageKind::TreeTask,
    MessageKind::TreeResult,
    MessageKind::JumbleResult,
    MessageKind::Monitor,
    MessageKind::PeerDown,
    MessageKind::PeerUp,
    MessageKind::Quarantined,
    MessageKind::Abort,
    MessageKind::JobData,
    MessageKind::JobTask,
    MessageKind::JobTaskResult,
    MessageKind::JobRetire,
    MessageKind::BaseTopology,
    MessageKind::TreeEditTask,
    MessageKind::EditChunk,
    MessageKind::EditScores,
    MessageKind::Ping,
    MessageKind::WalRound,
    MessageKind::JumbleResume,
    MessageKind::Shutdown,
];

fn roundtrip(msg: &Message) -> Result<(), TestCaseError> {
    let back = decode_message(&encode_message(msg)).expect("binary decode");
    prop_assert_eq!(&back, msg, "binary codec broke identity");
    let json = JsonCodec.encode(msg).expect("json encode");
    let back = JsonCodec.decode(&json).expect("json decode");
    prop_assert_eq!(&back, msg, "json rendering broke identity");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    fn every_variant_roundtrips_in_both_codecs(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for kind in KINDS {
            roundtrip(&rng.message(kind))?;
        }
    }
}

/// The list the property test sweeps is the whole vocabulary: kind `i` of
/// the declaration sits at index `i`, the last declared kind ends it (a
/// kind declared anywhere before `Shutdown` moves its discriminant), and
/// the generator builds a message of the kind it is asked for. A kind
/// added to `MessageKind` fails to compile in the generator's match until
/// it is covered there.
#[test]
fn generator_covers_every_message_kind() {
    let mut rng = Rng(7);
    for (i, &kind) in KINDS.iter().enumerate() {
        assert_eq!(kind as usize, i, "{kind} out of place");
        assert_eq!(rng.message(kind).kind(), kind);
    }
    assert_eq!(KINDS.len(), MessageKind::Shutdown as usize + 1);
}
