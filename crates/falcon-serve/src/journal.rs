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
//! function of the inputs, [`resume`](crate::resume) replays completed
//! rounds by re-running the same drain/place logic (tenant drivers replay
//! their own crowd journals, so no crowd question is ever re-asked),
//! renders each regenerated scheduling decision as its line and compares
//! it with the recorded one. Any mismatch — a stale crowd journal, an
//! edited config, a different job list — surfaces as a typed
//! [`ServeError::ServiceJournal`](crate::ServeError) divergence instead
//! of silently forking history.
//!
//! **Framing.** The file is a [`Log`], the framed log the crowd journal
//! is built on too: it owns the header check, the torn-tail rule and
//! every write. This module adds the grammar — the prefix lines, then
//! `round n … end n` groups numbered from 0 — and a crash mid-round
//! leaves a group with no `end` marker that the log truncates, so the
//! round re-runs live on resume. Structural damage *before* the tail —
//! round numbering gaps, stray `end` — is corruption, not a torn tail,
//! and fails typed.

use falcon_crowd::journal::{corrupt, JournalError, JournalLine, Log};
use std::path::Path;

const HEADER: &str = "falcon-serve-journal v1";

/// One committed round: its number and its decision lines (markers
/// excluded).
pub(crate) type RoundLines = (u64, Vec<String>);

/// One committed group of the service journal.
#[derive(Debug)]
enum Group {
    /// The `config`/`admit` lines ahead of round 0.
    Prefix(Vec<String>),
    Round(RoundLines),
}

/// The service journal: recorded history on open, append sink while
/// running live.
#[derive(Debug)]
pub struct ServeJournal {
    log: Log<Group>,
    /// Recorded `config`/`admit` lines (empty when fresh).
    prefix: Vec<String>,
}

impl ServeJournal {
    /// Open or create a journal at `path`, trusting only committed
    /// content and truncating any torn tail.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let mut next_round = 0;
        let mut log = Log::open(path.as_ref(), HEADER, |lines| frame(lines, &mut next_round))?;
        let prefix = match log.pop_if(|g| matches!(g, Group::Prefix(_))) {
            Some(Group::Prefix(lines)) => lines,
            _ => Vec::new(),
        };
        Ok(Self { log, prefix })
    }

    /// True when the journal holds no committed history (fresh run).
    pub fn is_fresh(&self) -> bool {
        self.prefix.is_empty() && self.pending_rounds() == 0
    }

    /// Committed rounds still awaiting replay.
    pub fn pending_rounds(&self) -> usize {
        self.log.pending().count()
    }

    /// Recorded `config`/`admit` lines (empty when fresh).
    pub(crate) fn prefix(&self) -> &[String] {
        &self.prefix
    }

    /// Pop the next committed round for replay verification.
    pub(crate) fn next_round(&mut self) -> Option<RoundLines> {
        match self.log.pop()? {
            Group::Round(round) => Some(round),
            Group::Prefix(_) => None,
        }
    }

    /// Append the `config`/`admit` prefix of a fresh run.
    pub(crate) fn write_prefix(&mut self, lines: &[String]) -> Result<(), JournalError> {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        self.log.append(&buf)
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
        self.log.append(&buf)?;
        self.log.sync()
    }
}

/// Cut the next group off `lines`: the prefix (every line up to the
/// first `round`/`end` marker, each one committed by itself), or a
/// `round n` group through its `end n`, with rounds numbered from
/// `*next_round`. `None` when the round runs into the end of `lines`.
fn frame(
    lines: &[JournalLine<'_>],
    next_round: &mut u64,
) -> Result<Option<(usize, Group)>, JournalError> {
    let (head, body) = (&lines[0], &lines[1..]);
    let Some(rest) = head.text.strip_prefix("round ") else {
        if head.text.starts_with("end ") {
            return Err(corrupt(head.no, "end marker outside a round"));
        }
        if *next_round > 0 {
            return Err(corrupt(head.no, "decision line between rounds"));
        }
        let n = lines
            .iter()
            .take_while(|l| !l.text.starts_with("round ") && !l.text.starts_with("end "))
            .count();
        let prefix = lines[..n].iter().map(|l| l.text.to_string()).collect();
        return Ok(Some((n, Group::Prefix(prefix))));
    };
    let n: u64 = rest
        .parse()
        .map_err(|_| corrupt(head.no, format!("bad round number {rest:?}")))?;
    if n != *next_round {
        return Err(corrupt(
            head.no,
            format!("round {n} where round {next_round} was expected"),
        ));
    }
    for (i, line) in body.iter().enumerate() {
        if let Some(end) = line.text.strip_prefix("end ") {
            if end.parse::<u64>() != Ok(n) {
                return Err(corrupt(line.no, format!("end {end} closes round {n}")));
            }
            *next_round += 1;
            let decisions = body[..i].iter().map(|l| l.text.to_string()).collect();
            return Ok(Some((i + 2, Group::Round((n, decisions)))));
        }
        if line.text.starts_with("round ") {
            return Err(corrupt(line.no, "round opened inside an uncommitted round"));
        }
    }
    Ok(None)
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
    use std::io::Write;
    use std::path::PathBuf;

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
