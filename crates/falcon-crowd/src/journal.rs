//! The crowd-label checkpoint journal: a versioned, append-only on-disk
//! log of every labeled batch and every operator boundary, written after
//! each batch so a crashed run never re-spends a crowd question.
//!
//! # Format (`falcon-journal v1`)
//!
//! A plain text file, one record per line:
//!
//! ```text
//! falcon-journal v1
//! op <label>
//! batch <scheme> <n>
//! q <a> <b> <0|1> <answers> <lost>
//! end <rounds> <escalations> <latency_nanos>
//! ```
//!
//! * `op` marks an operator boundary (driver progress marker).
//! * `batch` opens a labeled batch: voting `scheme` (`maj`/`strong`) and
//!   question count `n`, followed by exactly `n` `q` lines — pair ids,
//!   decided label, delivered answers, lost answers — and one `end` line
//!   with the batch's simulated rounds, escalation count and latency.
//!
//! The writer flushes after every record, so at worst a crash leaves one
//! *truncated* trailing batch; [`CrowdJournal::open`] drops any
//! incomplete tail (truncating the file) and keeps every complete batch
//! for replay. A resumed session replays batches in order — answering
//! from the journal, charging the recorded cost/latency and fast-
//! forwarding the crowd's RNG — and switches to live labeling exactly
//! where the crashed run stopped. If a resumed run ever asks a
//! *different* question than the journal recorded (a diverged
//! configuration), the journal truncates at the divergence point and
//! records the new reality from there.

use falcon_table::IdPair;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The version line this implementation reads and writes.
const HEADER: &str = "falcon-journal v1";

/// A journal failure: I/O, corruption, or a version this build can't read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying filesystem error.
    Io {
        /// Stringified OS error.
        message: String,
    },
    /// A structurally invalid record (not a truncated tail, which is
    /// tolerated — real corruption mid-file).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file's version line is not one this implementation supports.
    Version {
        /// The version line found.
        found: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { message } => write!(f, "journal I/O error: {message}"),
            Self::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            Self::Version { found } => write!(f, "unsupported journal version: {found:?}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io {
            message: e.to_string(),
        }
    }
}

/// One trusted line of a journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalLine<'a> {
    /// 1-based line number.
    pub no: usize,
    /// Byte offset of the line's first byte.
    pub start: u64,
    /// Byte offset just past the line's `\n`.
    pub end: u64,
    /// The line, without its terminator.
    pub text: &'a str,
}

/// The lines of journal `text` a reader may trust: those terminated by
/// `\n`. Writers flush whole records, so a partial last line is crash
/// debris and is left out.
pub fn trusted_lines(text: &str) -> Vec<JournalLine<'_>> {
    let mut start = 0u64;
    let mut lines = Vec::new();
    for (i, piece) in text.split_inclusive('\n').enumerate() {
        let end = start + piece.len() as u64;
        if let Some(line) = piece.strip_suffix('\n') {
            lines.push(JournalLine {
                no: i + 1,
                start,
                end,
                text: line.trim_end_matches('\r'),
            });
        }
        start = end;
    }
    lines
}

/// Open (or create) the line-oriented journal file at `path` whose first
/// line must be `header`, returning the file and its text (header line
/// included, so line offsets are file offsets).
///
/// An empty file, or one torn inside its header line (its whole content
/// is a prefix of `header` with no `\n` yet), is a fresh journal: it is
/// truncated and the header written. Any other first line — or other
/// unterminated bytes — is [`JournalError::Version`]: not a file this
/// journal may overwrite.
pub fn open_journal(path: &Path, header: &str) -> Result<(File, String), JournalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut text = String::new();
    file.read_to_string(&mut text)?;
    match trusted_lines(&text).first() {
        Some(first) if first.text == header => {}
        Some(first) => {
            return Err(JournalError::Version {
                found: first.text.to_string(),
            })
        }
        None if header.starts_with(&text) => {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            text = format!("{header}\n");
            file.write_all(text.as_bytes())?;
            file.flush()?;
        }
        None => return Err(JournalError::Version { found: text }),
    }
    Ok((file, text))
}

/// One labeled question inside a batch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestionRecord {
    /// The labeled pair.
    pub pair: IdPair,
    /// The decided label.
    pub label: bool,
    /// Answers delivered for this question.
    pub answers: usize,
    /// Answers lost (each forced a re-post).
    pub lost: usize,
}

/// One labeled batch: everything a resumed session needs to reproduce the
/// batch without touching the crowd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Voting scheme tag (`"maj"` or `"strong"`).
    pub scheme: String,
    /// The batch's questions, in labeling order.
    pub questions: Vec<QuestionRecord>,
    /// Simulated latency rounds the batch consumed (re-post waves included).
    pub rounds: usize,
    /// Questions whose vote ended in escalation.
    pub escalations: usize,
    /// Simulated crowd latency charged for the batch.
    pub latency: Duration,
}

impl BatchRecord {
    /// Total answers delivered across the batch.
    pub fn answers(&self) -> usize {
        self.questions.iter().map(|q| q.answers).sum()
    }

    /// Total answers lost across the batch.
    pub fn lost(&self) -> usize {
        self.questions.iter().map(|q| q.lost).sum()
    }

    /// Total `try_answer` draws the live batch consumed — what a seeded
    /// crowd must fast-forward by when the batch is replayed.
    pub fn draws(&self) -> usize {
        self.answers() + self.lost()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    Op(String),
    Batch(BatchRecord),
}

/// The checkpoint journal: parsed replay queue plus an append handle.
#[derive(Debug)]
pub struct CrowdJournal {
    path: PathBuf,
    file: File,
    /// Byte length of the valid prefix; appends start here.
    end_offset: u64,
    /// Complete records awaiting replay, with their start offsets.
    replay: VecDeque<(u64, Record)>,
    /// Set once a resume diverged from the journal.
    diverged: bool,
    replayed_batches: usize,
}

impl CrowdJournal {
    /// Open (or create) a journal at `path`. An existing file is parsed;
    /// complete records become the replay queue, a truncated trailing
    /// record is discarded (and the file truncated to the valid prefix).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let (file, text) = open_journal(&path, HEADER)?;
        let (replay, valid_len) = parse(&text)?;
        if valid_len < text.len() as u64 {
            file.set_len(valid_len)?;
        }
        Ok(Self {
            path,
            file,
            end_offset: valid_len,
            replay,
            diverged: false,
            replayed_batches: 0,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Batches still queued for replay.
    pub fn pending_batches(&self) -> usize {
        self.replay
            .iter()
            .filter(|(_, r)| matches!(r, Record::Batch(_)))
            .count()
    }

    /// Batches replayed so far this session.
    pub fn replayed_batches(&self) -> usize {
        self.replayed_batches
    }

    /// True when a resumed run asked a different question than the
    /// journal recorded, so the stale tail was discarded.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Drop the remaining replay queue and truncate the file back to the
    /// first unconsumed record: the resume has diverged from the journal.
    fn truncate_at_front(&mut self) -> Result<(), JournalError> {
        if let Some(&(offset, _)) = self.replay.front() {
            self.file.set_len(offset)?;
            self.end_offset = offset;
        }
        self.replay.clear();
        self.diverged = true;
        Ok(())
    }

    fn append(&mut self, text: &str) -> Result<(), JournalError> {
        self.file.seek(SeekFrom::Start(self.end_offset))?;
        self.file.write_all(text.as_bytes())?;
        self.file.flush()?;
        self.end_offset += text.len() as u64;
        Ok(())
    }

    /// Replay the next batch if it matches the requested scheme and
    /// question list; on mismatch, truncate the journal at the
    /// divergence point and return `None` (the caller labels live).
    pub fn try_replay_batch(
        &mut self,
        scheme: &str,
        pairs: &[IdPair],
    ) -> Result<Option<BatchRecord>, JournalError> {
        // Skip queued op markers: a batch request matches against the
        // next *batch* record (ops are progress decoration).
        while matches!(self.replay.front(), Some((_, Record::Op(_)))) {
            self.replay.pop_front();
        }
        let matches_front = match self.replay.front() {
            Some((_, Record::Batch(b))) => {
                b.scheme == scheme
                    && b.questions.len() == pairs.len()
                    && b.questions.iter().zip(pairs).all(|(q, p)| q.pair == *p)
            }
            _ => false,
        };
        if !matches_front {
            if !self.replay.is_empty() {
                self.truncate_at_front()?;
            }
            return Ok(None);
        }
        match self.replay.pop_front() {
            Some((_, Record::Batch(b))) => {
                self.replayed_batches += 1;
                Ok(Some(b))
            }
            _ => Ok(None),
        }
    }

    /// Append a freshly labeled batch.
    pub fn record_batch(&mut self, batch: &BatchRecord) -> Result<(), JournalError> {
        // A live batch while records are still queued means the caller
        // skipped ahead: the queued tail is stale.
        if !self.replay.is_empty() {
            self.truncate_at_front()?;
        }
        let mut text = format!("batch {} {}\n", batch.scheme, batch.questions.len());
        for q in &batch.questions {
            text.push_str(&format!(
                "q {} {} {} {} {}\n",
                q.pair.0,
                q.pair.1,
                u8::from(q.label),
                q.answers,
                q.lost
            ));
        }
        text.push_str(&format!(
            "end {} {} {}\n",
            batch.rounds,
            batch.escalations,
            batch.latency.as_nanos()
        ));
        self.append(&text)
    }

    /// Force every written record to stable storage (`fsync`). The
    /// writer already flushes after each record, so this adds durability
    /// against OS-level loss — a cancelled gated run calls it before
    /// unwinding so the journal tail survives a subsequent real crash.
    pub fn finalize(&mut self) -> Result<(), JournalError> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Record (or replay past) an operator-boundary marker.
    pub fn mark_op(&mut self, label: &str) -> Result<(), JournalError> {
        if let Some((_, Record::Op(queued))) = self.replay.front() {
            if queued == label {
                self.replay.pop_front();
                return Ok(());
            }
            // A different boundary than recorded: stale tail.
            self.truncate_at_front()?;
        }
        if label.chars().any(char::is_whitespace) {
            return Err(JournalError::Corrupt {
                line: 0,
                message: format!("op label {label:?} must not contain whitespace"),
            });
        }
        self.append(&format!("op {label}\n"))
    }
}

fn corrupt(line: usize, message: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        line,
        message: message.into(),
    }
}

/// Parse journal text (its checked header line included) into complete
/// records plus the byte length of the valid prefix. A truncated trailing
/// record (no final newline, or a `batch` missing `q`/`end` lines) is
/// excluded from both; anything structurally invalid *before* the tail is
/// an error.
#[allow(clippy::type_complexity)]
fn parse(text: &str) -> Result<(VecDeque<(u64, Record)>, u64), JournalError> {
    let mut records = VecDeque::new();
    let lines = trusted_lines(text);
    // The valid prefix ends with the last line of the last complete
    // record; the header is line 0.
    let mut valid_len = lines.first().map_or(0, |header| header.end);
    let mut idx = 1;
    while idx < lines.len() {
        let (line_no, start_off, content) = (lines[idx].no, lines[idx].start, lines[idx].text);
        let mut parts = content.split(' ');
        match parts.next() {
            Some("op") => {
                let label = parts
                    .next()
                    .ok_or_else(|| corrupt(line_no, "op without label"))?;
                records.push_back((start_off, Record::Op(label.to_string())));
                idx += 1;
            }
            Some("batch") => {
                let scheme = parts
                    .next()
                    .ok_or_else(|| corrupt(line_no, "batch without scheme"))?
                    .to_string();
                let n: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt(line_no, "batch without question count"))?;
                // n question lines + the end line must all be present,
                // else this is a truncated tail: stop parsing here.
                if idx + n + 2 > lines.len() {
                    return Ok((records, valid_len));
                }
                let mut questions = Vec::with_capacity(n);
                for k in 0..n {
                    let qline_no = lines[idx + 1 + k].no;
                    let mut q = lines[idx + 1 + k].text.split(' ');
                    if q.next() != Some("q") {
                        return Err(corrupt(qline_no, "expected a q line"));
                    }
                    let mut num = || -> Result<u64, JournalError> {
                        q.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| corrupt(qline_no, "malformed q line"))
                    };
                    let a = num()? as u32;
                    let b = num()? as u32;
                    let label = num()? != 0;
                    let answers = num()? as usize;
                    let lost = num()? as usize;
                    questions.push(QuestionRecord {
                        pair: (a, b),
                        label,
                        answers,
                        lost,
                    });
                }
                let eline_no = lines[idx + 1 + n].no;
                let mut e = lines[idx + 1 + n].text.split(' ');
                if e.next() != Some("end") {
                    return Err(corrupt(eline_no, "expected an end line"));
                }
                let mut num = || -> Result<u128, JournalError> {
                    e.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt(eline_no, "malformed end line"))
                };
                let rounds = num()? as usize;
                let escalations = num()? as usize;
                let latency_nanos = num()?;
                records.push_back((
                    start_off,
                    Record::Batch(BatchRecord {
                        scheme,
                        questions,
                        rounds,
                        escalations,
                        latency: nanos_to_duration(latency_nanos),
                    }),
                ));
                idx += n + 2;
            }
            _ => return Err(corrupt(line_no, format!("unknown record {content:?}"))),
        }
        valid_len = lines[idx - 1].end;
    }
    Ok((records, valid_len))
}

fn nanos_to_duration(nanos: u128) -> Duration {
    let secs = (nanos / 1_000_000_000) as u64;
    let sub = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("falcon-journal-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    fn sample_batch(scheme: &str) -> BatchRecord {
        BatchRecord {
            scheme: scheme.to_string(),
            questions: vec![
                QuestionRecord {
                    pair: (1, 2),
                    label: true,
                    answers: 3,
                    lost: 1,
                },
                QuestionRecord {
                    pair: (3, 4),
                    label: false,
                    answers: 3,
                    lost: 0,
                },
            ],
            rounds: 2,
            escalations: 0,
            latency: Duration::from_secs(180),
        }
    }

    #[test]
    fn round_trips_batches_and_ops() {
        let path = tmp("round-trip");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = CrowdJournal::open(&path).expect("open");
            j.mark_op("blocking").expect("op");
            j.record_batch(&sample_batch("maj")).expect("batch");
            j.record_batch(&sample_batch("strong")).expect("batch");
        }
        let mut j = CrowdJournal::open(&path).expect("reopen");
        assert_eq!(j.pending_batches(), 2);
        j.mark_op("blocking").expect("op replays");
        let b = j
            .try_replay_batch("maj", &[(1, 2), (3, 4)])
            .expect("replay")
            .expect("recorded batch");
        assert_eq!(b, sample_batch("maj"));
        assert_eq!(b.draws(), 7);
        assert!(!j.diverged());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = CrowdJournal::open(&path).expect("open");
            j.record_batch(&sample_batch("maj")).expect("batch");
        }
        // Simulate a crash mid-write: a batch header with no body.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("append");
            f.write_all(b"batch maj 5\nq 9 9 1 3 0\n").expect("debris");
        }
        let mut j = CrowdJournal::open(&path).expect("reopen tolerates tail");
        assert_eq!(j.pending_batches(), 1, "only the complete batch survives");
        assert!(j
            .try_replay_batch("maj", &[(1, 2), (3, 4)])
            .expect("replay")
            .is_some());
        // The debris was truncated away on open.
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(!text.contains("9 9"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn divergence_truncates_and_switches_to_live() {
        let path = tmp("diverge");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = CrowdJournal::open(&path).expect("open");
            j.record_batch(&sample_batch("maj")).expect("b1");
            j.record_batch(&sample_batch("strong")).expect("b2");
        }
        let mut j = CrowdJournal::open(&path).expect("reopen");
        // First batch replays; the second is asked with different pairs.
        assert!(j
            .try_replay_batch("maj", &[(1, 2), (3, 4)])
            .expect("replay")
            .is_some());
        assert!(j
            .try_replay_batch("strong", &[(7, 8)])
            .expect("divergence is not an error")
            .is_none());
        assert!(j.diverged());
        // The live batch records over the stale tail.
        let fresh = BatchRecord {
            scheme: "strong".to_string(),
            questions: vec![QuestionRecord {
                pair: (7, 8),
                label: true,
                answers: 3,
                lost: 0,
            }],
            rounds: 1,
            escalations: 0,
            latency: Duration::from_secs(90),
        };
        j.record_batch(&fresh).expect("record after divergence");
        drop(j);
        let mut j = CrowdJournal::open(&path).expect("reopen again");
        assert!(j
            .try_replay_batch("maj", &[(1, 2), (3, 4)])
            .expect("replay")
            .is_some());
        let b = j
            .try_replay_batch("strong", &[(7, 8)])
            .expect("replay")
            .expect("fresh batch persisted");
        assert_eq!(b, fresh);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_refused() {
        let path = tmp("version");
        std::fs::write(&path, "falcon-journal v99\n").expect("write");
        match CrowdJournal::open(&path) {
            Err(JournalError::Version { found }) => assert_eq!(found, "falcon-journal v99"),
            other => panic!("expected version error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A crash inside the very first write leaves part of the header and
    /// no newline: that is a fresh journal, and what the run then appends
    /// must reopen — not a headerless file the next open refuses.
    #[test]
    fn a_header_torn_mid_line_is_a_fresh_journal() {
        let path = tmp("torn-header");
        for torn in ["falcon-jou", HEADER] {
            std::fs::write(&path, torn).expect("write");
            {
                let mut j = CrowdJournal::open(&path).expect("torn header opens fresh");
                assert_eq!(j.pending_batches(), 0);
                j.mark_op("blocking").expect("op");
                j.record_batch(&sample_batch("maj")).expect("batch");
            }
            let text = std::fs::read_to_string(&path).expect("read");
            assert!(
                text.starts_with("falcon-journal v1\nop blocking\n"),
                "{text}"
            );
            let j = CrowdJournal::open(&path).expect("reopen");
            assert_eq!(j.pending_batches(), 1);
        }
        // Unterminated bytes that are not ours are never overwritten.
        std::fs::write(&path, "id,name").expect("write");
        match CrowdJournal::open(&path) {
            Err(JournalError::Version { found }) => assert_eq!(found, "id,name"),
            other => panic!("expected version error, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "id,name");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt");
        std::fs::write(
            &path,
            "falcon-journal v1\ngarbage line\nbatch maj 0\nend 1 0 5\n",
        )
        .expect("write");
        match CrowdJournal::open(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
