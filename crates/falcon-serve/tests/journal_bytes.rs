//! Arbitrary bytes against both journal kinds. `CrowdJournal::open` and
//! `ServeJournal::open` share one framed log, so they share its
//! contract: open never panics; a refusal leaves the file as it was; an
//! acceptance keeps a prefix of it (or writes the bare header over a file
//! torn inside its header line); and a second open agrees with the first
//! and changes nothing. A journal of well-formed records cut at any byte
//! keeps exactly the records that end at or before the cut.

use falcon_crowd::journal::{BatchRecord, QuestionRecord};
use falcon_crowd::{CrowdJournal, JournalError};
use falcon_serve::journal::ServeJournal;
use proptest::prelude::*;
use std::fs;
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::time::Duration;

const CROWD_HEADER: &str = "falcon-journal v1\n";
const SERVE_HEADER: &str = "falcon-serve-journal v1\n";

#[derive(Debug, Clone, Copy)]
enum Kind {
    Crowd,
    Serve,
}

impl Kind {
    fn header(self) -> &'static str {
        match self {
            Kind::Crowd => CROWD_HEADER,
            Kind::Serve => SERVE_HEADER,
        }
    }

    /// Open a journal of this kind; its pending batches / rounds.
    fn open(self, path: &Path) -> Result<usize, JournalError> {
        match self {
            Kind::Crowd => CrowdJournal::open(path).map(|j| j.pending_batches()),
            Kind::Serve => ServeJournal::open(path).map(|j| j.pending_rounds()),
        }
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "falcon-journal-bytes-{name}-{}",
        std::process::id()
    ))
}

/// Write `input` as a `kind` journal and check the open contract.
fn check_open(kind: Kind, input: &[u8], path: &Path) {
    fs::write(path, input).expect("write input");
    let shown = String::from_utf8_lossy(input);
    let first = catch_unwind(|| kind.open(path))
        .unwrap_or_else(|_| panic!("{kind:?} open panicked on {shown:?}"));
    let after = fs::read(path).expect("read back");
    let pending = match first {
        Ok(pending) => pending,
        Err(e) => {
            assert_eq!(
                after, input,
                "{kind:?} refused {shown:?} ({e}) but changed it"
            );
            return;
        }
    };
    if kind.header().as_bytes().starts_with(input) {
        assert_eq!(after, kind.header().as_bytes(), "{kind:?} on {shown:?}");
    } else {
        assert!(
            input.starts_with(&after),
            "{kind:?} kept a non-prefix of {shown:?}"
        );
    }
    assert_eq!(kind.open(path), Ok(pending), "{kind:?} reopen of {shown:?}");
    assert_eq!(
        fs::read(path).expect("read back"),
        after,
        "{kind:?} reopen changed {shown:?}"
    );
}

/// Lines from both grammars, well- and ill-formed, so generated files
/// reach every branch of both frame functions.
const FRAGMENTS: &[&str] = &[
    "op blocking",
    "op",
    "batch maj 1",
    "batch strong 0",
    "batch maj 2",
    "batch maj 18446744073709551615",
    "batch maj",
    "q 1 2 1 3 0",
    "q 4294967296 2 0 3 1",
    "q 1 2",
    "end 1 0 90000000000",
    "end 0",
    "end 1",
    "end x",
    "round 0",
    "round 1",
    "round 2",
    "round -1",
    "config 3c59d3369d58d975",
    "admit 0 a 0 0 active",
    "p 0 1 m gen_features 5 1 0 0 5 1",
    "falcon-journal v1",
    "falcon-serve-journal v1",
    "",
    "\r",
];

fn journalish() -> impl Strategy<Value = Vec<u8>> {
    let line = prop_oneof![
        4 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        1 => "[a-z0-9 \r]{0,8}",
    ];
    (
        0..3usize,
        proptest::collection::vec(line, 0..10),
        0usize..400,
    )
        .prop_map(|(header, lines, cut)| {
            let mut text =
                [String::new(), CROWD_HEADER.into(), SERVE_HEADER.into()][header].clone();
            for l in lines {
                text.push_str(&l);
                text.push('\n');
            }
            // Tear the last line (or not) at an arbitrary byte.
            text.truncate(cut.min(text.len()));
            text.into_bytes()
        })
}

fn raw_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0..3usize, proptest::collection::vec(any::<u8>(), 0..48)).prop_map(|(header, bytes)| {
        let mut input = ["", CROWD_HEADER, SERVE_HEADER][header].as_bytes().to_vec();
        input.extend(bytes);
        input
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_like_text_opens_by_the_contract(input in journalish()) {
        let path = tmp("text");
        check_open(Kind::Crowd, &input, &path);
        check_open(Kind::Serve, &input, &path);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn arbitrary_bytes_open_by_the_contract(input in raw_bytes()) {
        let path = tmp("raw");
        check_open(Kind::Crowd, &input, &path);
        check_open(Kind::Serve, &input, &path);
        fs::remove_file(&path).ok();
    }
}

/// Cut `bytes` at every offset and open each cut as a `kind` journal.
/// `ends` holds each record's end offset and whether it is counted as
/// pending (a batch or a committed round); every cut must keep exactly
/// the records that end at or before it, and nothing after them.
fn check_every_cut(kind: Kind, bytes: &[u8], ends: &[(u64, bool)], path: &Path) {
    let header = kind.header().len() as u64;
    for cut in 0..=bytes.len() {
        let cut_at = cut as u64;
        fs::write(path, &bytes[..cut]).expect("write cut");
        let kept: Vec<_> = ends.iter().filter(|(end, _)| *end <= cut_at).collect();
        let pending = kind
            .open(path)
            .unwrap_or_else(|e| panic!("{kind:?} cut at {cut}: {e}"));
        assert_eq!(
            pending,
            kept.iter().filter(|(_, counted)| *counted).count(),
            "{kind:?} cut at {cut}"
        );
        let len = kept.last().map_or(header, |(end, _)| *end);
        assert_eq!(
            fs::metadata(path).expect("stat").len(),
            len,
            "{kind:?} cut at {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_crowd_journal_cut_anywhere_keeps_the_batches_before_the_cut(
        batches in proptest::collection::vec((0..4usize, any::<bool>(), any::<u32>()), 1..5),
    ) {
        let path = tmp("crowd-cut");
        fs::remove_file(&path).ok();
        let mut ends = Vec::new();
        {
            let mut j = CrowdJournal::open(&path).expect("open");
            for (n, strong, seed) in batches {
                if strong {
                    j.mark_op("eval_rules").expect("op");
                    ends.push((fs::metadata(&path).expect("stat").len(), false));
                }
                let batch = BatchRecord {
                    scheme: if strong { "strong" } else { "maj" }.to_string(),
                    questions: (0..n as u32)
                        .map(|i| QuestionRecord {
                            pair: (seed.wrapping_add(i), i),
                            label: seed % 2 == 0,
                            answers: 3,
                            lost: i as usize,
                        })
                        .collect(),
                    rounds: 1 + n,
                    escalations: n / 2,
                    latency: Duration::from_millis(u64::from(seed)),
                };
                j.record_batch(&batch).expect("batch");
                ends.push((fs::metadata(&path).expect("stat").len(), true));
            }
        }
        let bytes = fs::read(&path).expect("read");
        check_every_cut(Kind::Crowd, &bytes, &ends, &path);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_service_journal_cut_anywhere_keeps_the_rounds_before_the_cut(
        admits in 1..4usize,
        rounds in proptest::collection::vec(0..4usize, 1..5),
    ) {
        let path = tmp("serve-cut");
        let mut text = SERVE_HEADER.to_string();
        let mut ends = Vec::new();
        let mut prefix = vec!["config 3c59d3369d58d975".to_string()];
        prefix.extend((0..admits).map(|i| format!("admit {i} t{i} 0 0 active")));
        for line in prefix {
            text.push_str(&line);
            text.push('\n');
            ends.push((text.len() as u64, false));
        }
        for (n, decisions) in rounds.into_iter().enumerate() {
            text.push_str(&format!("round {n}\n"));
            for d in 0..decisions {
                text.push_str(&format!("p {d} {n} m gen_features 5 1 0 0 5 1\n"));
            }
            text.push_str(&format!("end {n}\n"));
            ends.push((text.len() as u64, true));
        }
        check_every_cut(Kind::Serve, text.as_bytes(), &ends, &path);
        fs::remove_file(&path).ok();
    }
}
