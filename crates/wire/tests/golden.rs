//! Golden-bytes fixtures pinning binary layout version 1.
//!
//! These hex strings are the contract: a peer built from any commit after
//! this one must produce exactly these bytes for these messages, or fleets
//! mixing builds would silently mis-decode each other mid-rollout. If a
//! change here is intentional, bump `fdml_wire::BINARY_VERSION` so old
//! decoders reject the new layout instead of misreading it — then, and
//! only then, regenerate the fixtures.

use fdml_comm::message::{EditScore, Message, MonitorEvent, TaskPayload, TreeEdit};
use fdml_wire::{decode_message, encode_message, WireError};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fixtures() -> Vec<(&'static str, Message, &'static str)> {
    vec![
        ("worker_ready", Message::WorkerReady, "fd0101"),
        ("ping", Message::Ping, "fd0111"),
        ("shutdown", Message::Shutdown, "fd0112"),
        (
            "tree_task",
            Message::TreeTask {
                task: 300,
                newick: "(a:1,b:2);".into(),
            },
            "fd0102ac020a28613a312c623a32293b",
        ),
        (
            "tree_result",
            Message::TreeResult {
                task: 300,
                newick: "(a:1.5,b:2.5);".into(),
                ln_likelihood: -1234.5625,
                work_units: 777,
            },
            "fd0103ac020e28613a312e352c623a322e35293b00000000404a93c08906",
        ),
        (
            "edit_insert",
            Message::TreeEditTask {
                task: 65,
                base_id: 9,
                edit: TreeEdit::Insert {
                    taxon: 12,
                    a: 3,
                    b: 130,
                },
                base_newick: None,
            },
            "fd01104109000c03820100",
        ),
        (
            "edit_regraft_embedded",
            Message::TreeEditTask {
                task: 66,
                base_id: 9,
                edit: TreeEdit::Regraft {
                    root: 5,
                    attachment: 6,
                    a: 1,
                    b: 2,
                },
                base_newick: Some("(a,b);".into()),
            },
            "fd011042090105060102010628612c62293b",
        ),
        (
            "base_topology",
            Message::BaseTopology {
                base_id: 9,
                newick: "(a:1,b:2);".into(),
            },
            "fd010f090a28613a312c623a32293b",
        ),
        (
            "monitor_completed",
            Message::Monitor(MonitorEvent::Completed {
                task: 4,
                worker: 3,
                ln_likelihood: -0.5,
                work_units: 10,
                service_us: 1000,
            }),
            "fd0106010403000000000000e0bf0ae807",
        ),
        (
            "wal_round",
            Message::WalRound {
                job: 0,
                seed: 11,
                index: 2,
                entry: "x".into(),
            },
            "fd0118000b020178",
        ),
        // Tags 26/27 and payload tag 3 (appended, PROTOCOL_VERSION 4).
        (
            "edit_chunk",
            Message::EditChunk {
                task: 65,
                base_id: 9,
                edits: vec![
                    TreeEdit::Insert {
                        taxon: 12,
                        a: 3,
                        b: 130,
                    },
                    TreeEdit::Regraft {
                        root: 5,
                        attachment: 6,
                        a: 1,
                        b: 2,
                    },
                ],
                base_newick: None,
            },
            "fd011a410902000c038201010506010200",
        ),
        (
            "edit_chunk_embedded",
            Message::EditChunk {
                task: 66,
                base_id: 9,
                edits: vec![TreeEdit::Regraft {
                    root: 5,
                    attachment: 6,
                    a: 1,
                    b: 2,
                }],
                base_newick: Some("(a,b);".into()),
            },
            "fd011a4209010105060102010628612c62293b",
        ),
        (
            "edit_scores",
            Message::EditScores {
                task: 65,
                scores: vec![
                    EditScore {
                        ln_likelihood: -1234.5625,
                        work_units: 777,
                    },
                    EditScore {
                        ln_likelihood: -0.5,
                        work_units: 10,
                    },
                ],
            },
            "fd011b410200000000404a93c08906000000000000e0bf0a",
        ),
        (
            "quarantined_chunk",
            Message::Quarantined {
                task: 9,
                failures: 3,
                payload: TaskPayload::TreeEdit {
                    base_id: 2,
                    edits: vec![
                        TreeEdit::Insert {
                            taxon: 1,
                            a: 2,
                            b: 3,
                        },
                        TreeEdit::Insert {
                            taxon: 1,
                            a: 3,
                            b: 4,
                        },
                    ],
                },
            },
            "fd010909030302020001020300010304",
        ),
        // Tag 28 (appended, PROTOCOL_VERSION 6): a resumed jumble with its
        // prefix's numerics epoch.
        (
            "jumble_resume",
            Message::JumbleResume {
                job: 3,
                task: 300,
                seed: 11,
                numerics: 1,
                wal: vec!["ab".into()],
            },
            "fd011c03ac020b0101026162",
        ),
        // Tag 29 (appended, PROTOCOL_VERSION 8): the one answer to every
        // jumble, carrying its job.
        (
            "jumble_result",
            Message::JumbleResult {
                job: 3,
                task: 300,
                seed: 11,
                newick: "(a,b);".into(),
                ln_likelihood: -0.5,
                rounds: 2,
                candidates: 3,
                work_units: 10,
            },
            "fd011d03ac020b0628612c62293b000000000000e0bf02030a",
        ),
    ]
}

/// Layouts still read but no longer written: task-payload tag 2 (one
/// uncounted edit) decodes to a one-edit chunk; the encoder writes every
/// chunk, whatever its length, under the counted tag 3.
fn decode_only_fixtures() -> Vec<(&'static str, Message, &'static str)> {
    vec![(
        "quarantined",
        Message::Quarantined {
            task: 9,
            failures: 3,
            payload: TaskPayload::TreeEdit {
                base_id: 2,
                edits: vec![TreeEdit::Insert {
                    taxon: 1,
                    a: 2,
                    b: 3,
                }],
            },
        },
        "fd01090903020200010203",
    )]
}

#[test]
fn encoder_matches_golden_bytes() {
    for (name, msg, expected) in fixtures() {
        assert_eq!(
            hex(&encode_message(&msg)),
            expected,
            "binary layout changed for fixture `{name}` — bump BINARY_VERSION"
        );
    }
}

#[test]
fn decoder_reads_golden_bytes() {
    for (name, msg, expected) in fixtures().into_iter().chain(decode_only_fixtures()) {
        let bytes: Vec<u8> = (0..expected.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&expected[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            decode_message(&bytes).unwrap(),
            msg,
            "decoder disagrees with fixture `{name}`"
        );
    }
}

/// Tags 4 and 5 carried the job-less jumble task (a `JobTask` of job 0
/// now) and result (tag 29 now, with its job); tags 19-23 the
/// hierarchical foreman tree's batch frame, lease request, steal request,
/// steal return and re-home; tag 25 a resumed jumble without its prefix's
/// numerics epoch (tag 28 now). Retired tags are never reused: the bytes
/// an older peer wrote for them are refused as an unknown tag.
#[test]
fn retired_tags_decode_to_a_typed_error() {
    for (tag, old_golden) in [
        (4, "fd0104ac020b"),
        (5, "fd0105ac020b0628612c62293b000000000000e0bf02030a"),
        (19, "fd011302104109000c0382010011"),
        (20, "fd0114c801"),
        (21, "fd011504"),
        (22, "fd01160104028001"),
        (23, "fd011705"),
        (25, "fd011903ac020b01026162"),
    ] {
        let bytes: Vec<u8> = (0..old_golden.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&old_golden[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::BadTag("message", tag)),
            "retired tag {tag}"
        );
    }
}

#[test]
fn a_chunk_costs_a_few_bytes_per_candidate() {
    // The point of chunking on the wire: task id, base id and framing are
    // paid once per chunk, so a regraft costs its four ids and a tag.
    let edits: Vec<TreeEdit> = (0..25)
        .map(|i| TreeEdit::Regraft {
            root: 100 + i,
            attachment: 60,
            a: 7,
            b: i,
        })
        .collect();
    let msg = Message::EditChunk {
        task: 4242,
        base_id: 17,
        edits,
        base_newick: None,
    };
    assert!(encode_message(&msg).len() <= 8 + 25 * 5);
}

#[test]
fn compact_task_is_under_16_bytes() {
    // The point of the exercise: a PR 7 edit task fits in a dozen bytes.
    let msg = Message::TreeEditTask {
        task: 65,
        base_id: 9,
        edit: TreeEdit::Insert {
            taxon: 12,
            a: 3,
            b: 130,
        },
        base_newick: None,
    };
    assert!(encode_message(&msg).len() < 16);
}
