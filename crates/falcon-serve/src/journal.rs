//! Crash-resumable service journal (`falcon-serve-journal v1`).
//!
//! The scheduler's entire decision stream is deterministic given the job
//! list and [`ServeConfig`](crate::ServeConfig): admissions, per-round
//! stage placements, crowd folds, cancellations, finishes. The journal
//! records that stream as plain text, one decision per line, with a
//! commit marker per round:
//!
//! ```text
//! falcon-serve-journal v1
//! config <fnv64-of-config>
//! admit <idx> <name> <arrival_ns> <priority> <decision>
//! round 0
//! c <idx> <seq> <label> <dur_ns> <tasks> <records> <start> <end>
//! p <idx> <seq> <kind> <label> <dur_ns> <tasks> <records> <start> <end> <nodes>
//! x <idx> <reason>
//! f <idx> <finish_ns> <status>
//! end 0
//! round 1
//! ...
//! ```
//!
//! `c` lines fold a crowd wait into the tenant's clock, `p` lines place a
//! machine-kind stage on the pool, `x` lines record a cancellation grant,
//! `f` lines record a tenant finishing. A round is *committed* by its
//! `end` marker.
//!
//! **Resume = re-execute + verify.** Because every decision is a pure
//! function of the inputs, [`Scheduler::resume`](crate::serve) replays
//! completed rounds by re-running the same drain/place logic (tenant
//! drivers replay their own crowd journals, so no crowd question is ever
//! re-asked) and *string-compares* each regenerated line against the
//! recorded one. Any mismatch — a stale crowd journal, an edited config,
//! a different job list — surfaces as a typed
//! [`ServeError::ServiceJournal`](crate::ServeError) divergence instead
//! of silently forking history.
//!
//! **Torn tails.** Only `\n`-terminated lines are trusted, mirroring
//! `falcon-crowd`'s journal: a crash mid-round leaves a `round` group
//! with no `end` marker, and `open` drops the whole group (truncating
//! the file back to the last commit) so the round re-runs live on
//! resume. The header check is the crowd journal's too
//! (`falcon_crowd::journal::open_journal`): a file torn inside its header
//! line starts fresh, any other first line is a version error. Structural
//! damage *before* the tail — round numbering gaps, stray `end` — is
//! corruption, not a torn tail, and fails typed.

use falcon_crowd::journal::{open_journal, trusted_lines, JournalError};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const HEADER: &str = "falcon-serve-journal v1";

/// One committed round: its number and its decision lines (markers
/// excluded).
pub(crate) type RoundLines = (u64, Vec<String>);

/// The service journal: recorded history on open, append sink while
/// running live.
#[derive(Debug)]
pub struct ServeJournal {
    path: PathBuf,
    file: File,
    /// Byte offset of the end of trusted content.
    end_offset: u64,
    /// Recorded `config`/`admit` lines (empty when fresh).
    prefix: Vec<String>,
    /// Committed rounds awaiting replay.
    rounds: VecDeque<RoundLines>,
}

impl ServeJournal {
    /// Open or create a journal at `path`, trusting only committed
    /// content and truncating any torn tail.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let (mut file, text) = open_journal(&path, HEADER)?;
        let (prefix, rounds, end_offset) = parse(&text)?;
        if end_offset < text.len() as u64 {
            // Torn tail: drop everything after the last commit so the
            // next append continues from trusted state.
            file.set_len(end_offset)?;
        }
        file.seek(SeekFrom::Start(end_offset))?;
        Ok(Self {
            path,
            file,
            end_offset,
            prefix,
            rounds,
        })
    }

    /// Path the journal lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when the journal holds no committed history (fresh run).
    pub fn is_fresh(&self) -> bool {
        self.prefix.is_empty() && self.rounds.is_empty()
    }

    /// Committed rounds still awaiting replay.
    pub fn pending_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Recorded `config`/`admit` lines (empty when fresh).
    pub(crate) fn prefix(&self) -> &[String] {
        &self.prefix
    }

    /// Pop the next committed round for replay verification.
    pub(crate) fn next_round(&mut self) -> Option<RoundLines> {
        self.rounds.pop_front()
    }

    /// Append the `config`/`admit` prefix of a fresh run.
    pub(crate) fn write_prefix(&mut self, lines: &[String]) -> Result<(), JournalError> {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        self.append(&buf)
    }

    /// Append one committed round: `round n`, its lines, `end n`, then
    /// flush + sync so a crash can lose at most the round in flight.
    pub(crate) fn write_round(&mut self, n: u64, lines: &[String]) -> Result<(), JournalError> {
        let mut buf = format!("round {n}\n");
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        buf.push_str(&format!("end {n}\n"));
        self.append(&buf)?;
        self.file.sync_all()?;
        Ok(())
    }

    fn append(&mut self, buf: &str) -> Result<(), JournalError> {
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()?;
        self.end_offset += buf.len() as u64;
        Ok(())
    }
}

/// Parse journal text (its checked header line included) into `(prefix,
/// committed rounds, trusted byte length)`.
#[allow(clippy::type_complexity)]
fn parse(text: &str) -> Result<(Vec<String>, VecDeque<RoundLines>, u64), JournalError> {
    let lines = trusted_lines(text);
    let mut prefix = Vec::new();
    let mut rounds = VecDeque::new();
    let mut trusted = lines.first().map_or(0, |header| header.end);
    let mut current: Option<(u64, Vec<String>)> = None;
    let mut expected_round = 0u64;
    for line in lines.iter().skip(1) {
        let (no, l, end) = (line.no, line.text, line.end);
        if let Some(rest) = l.strip_prefix("round ") {
            if current.is_some() {
                return Err(JournalError::Corrupt {
                    line: no,
                    message: "round opened inside an uncommitted round".into(),
                });
            }
            let n: u64 = rest.parse().map_err(|_| JournalError::Corrupt {
                line: no,
                message: format!("bad round number {rest:?}"),
            })?;
            if n != expected_round {
                return Err(JournalError::Corrupt {
                    line: no,
                    message: format!("round {n} where round {expected_round} was expected"),
                });
            }
            current = Some((n, Vec::new()));
        } else if let Some(rest) = l.strip_prefix("end ") {
            let Some((n, body)) = current.take() else {
                return Err(JournalError::Corrupt {
                    line: no,
                    message: "end marker outside a round".into(),
                });
            };
            if rest.parse::<u64>() != Ok(n) {
                return Err(JournalError::Corrupt {
                    line: no,
                    message: format!("end {rest} closes round {n}"),
                });
            }
            rounds.push_back((n, body));
            expected_round = n + 1;
            trusted = end; // commit point
        } else if let Some((_, body)) = current.as_mut() {
            body.push(l.to_string());
        } else if rounds.is_empty() {
            prefix.push(l.to_string());
            trusted = end;
        } else {
            return Err(JournalError::Corrupt {
                line: no,
                message: "decision line between rounds".into(),
            });
        }
    }
    // An open `current` is the torn tail: dropped by leaving `trusted`
    // at the last commit.
    Ok((prefix, rounds, trusted))
}

/// FNV-1a over a string, for compact config digests in journal lines.
pub(crate) fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "falcon-serve-journal-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_file(&p);
        p
    }

    #[test]
    fn fresh_then_reopen_round_trips() {
        let p = tmp("fresh");
        {
            let mut j = ServeJournal::open(&p).unwrap();
            assert!(j.is_fresh());
            j.write_prefix(&["config 1".into(), "admit 0 a 0 0 active".into()])
                .unwrap();
            j.write_round(0, &["p 0 0 m x 1 1 0 0 1 1".into()]).unwrap();
            j.write_round(1, &[]).unwrap();
        }
        let mut j = ServeJournal::open(&p).unwrap();
        assert!(!j.is_fresh());
        assert_eq!(j.prefix(), ["config 1", "admit 0 a 0 0 active"]);
        assert_eq!(j.pending_rounds(), 2);
        assert_eq!(
            j.next_round(),
            Some((0, vec!["p 0 0 m x 1 1 0 0 1 1".into()]))
        );
        assert_eq!(j.next_round(), Some((1, vec![])));
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn torn_mid_round_tail_is_dropped_and_truncated() {
        let p = tmp("torn");
        {
            let mut j = ServeJournal::open(&p).unwrap();
            j.write_prefix(&["config 7".into()]).unwrap();
            j.write_round(0, &["c 0 0 al 5 0 0 0 5".into()]).unwrap();
        }
        // Crash mid-round-1: a round marker, one decision, no commit,
        // and a half-written final line.
        let mut f = fs::OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"round 1\np 0 1 m x 1 1 0 5 6 1\np 0 2 m y 9")
            .unwrap();
        drop(f);
        let before = fs::read_to_string(&p).unwrap();
        let j = ServeJournal::open(&p).unwrap();
        assert_eq!(j.pending_rounds(), 1);
        let after = fs::read_to_string(&p).unwrap();
        assert!(before.len() > after.len());
        assert!(after.ends_with("end 0\n"));
        let _ = fs::remove_file(&p);
    }

    /// A crash inside the first write leaves part of the header and no
    /// newline: only `\n`-terminated lines are trusted, so that is a fresh
    /// journal, not corruption.
    #[test]
    fn a_header_torn_mid_line_is_a_fresh_journal() {
        let p = tmp("torn-header");
        fs::write(&p, "falcon-serve-jou").unwrap();
        {
            let mut j = ServeJournal::open(&p).unwrap();
            assert!(j.is_fresh());
            j.write_prefix(&["config 7".into()]).unwrap();
            j.write_round(0, &[]).unwrap();
        }
        let text = fs::read_to_string(&p).unwrap();
        assert_eq!(text, format!("{HEADER}\nconfig 7\nround 0\nend 0\n"));
        assert_eq!(ServeJournal::open(&p).unwrap().pending_rounds(), 1);
        // Unterminated bytes that are not ours are refused, untouched.
        fs::write(&p, "dataset=products").unwrap();
        assert!(matches!(
            ServeJournal::open(&p),
            Err(JournalError::Version { .. })
        ));
        assert_eq!(fs::read_to_string(&p).unwrap(), "dataset=products");
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn round_numbering_gap_is_corrupt_not_torn() {
        let p = tmp("gap");
        fs::write(&p, format!("{HEADER}\nround 0\nend 0\nround 2\nend 2\n")).unwrap();
        match ServeJournal::open(&p) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn stray_end_marker_is_corrupt() {
        let p = tmp("stray");
        fs::write(&p, format!("{HEADER}\nend 0\n")).unwrap();
        assert!(matches!(
            ServeJournal::open(&p),
            Err(JournalError::Corrupt { .. })
        ));
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn wrong_header_is_version_error() {
        let p = tmp("version");
        fs::write(&p, "falcon-serve-journal v9\n").unwrap();
        assert!(matches!(
            ServeJournal::open(&p),
            Err(JournalError::Version { .. })
        ));
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64("abc"), fnv64("abc"));
        assert_ne!(fnv64("abc"), fnv64("abd"));
    }
}
