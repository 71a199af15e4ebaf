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
//! This journal and `falcon-serve`'s service journal are both a [`Log`]:
//! one framed file that owns the header check, the torn-tail rule and
//! every write. A journal adds only its record grammar — the frame
//! function it opens the log with — and its replay policy. This one's:
//! a resumed session replays batches in order — answering from the
//! journal, charging the recorded cost/latency and fast-forwarding the
//! crowd's RNG — and switches to live labeling exactly where the crashed
//! run stopped. If a resumed run ever asks a *different* question than
//! the journal recorded (a diverged configuration), the journal truncates
//! at the divergence point and records the new reality from there.

use falcon_table::IdPair;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
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

/// A corruption error at 1-based line `line`.
pub fn corrupt(line: usize, message: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        line,
        message: message.into(),
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
/// `\n`. Writers flush whole groups, so a partial last line is crash
/// debris and is left out.
fn trusted_lines(text: &str) -> Vec<JournalLine<'_>> {
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

/// A framed, append-only journal file — a versioned header line, then
/// committed groups of lines — that owns every open, truncation, write
/// and `fsync` of both journals. A journal supplies only the frame
/// function that cuts its groups and decodes each into a record `R`.
#[derive(Debug)]
pub struct Log<R> {
    file: File,
    /// Byte length of the trusted content; appends start here.
    end: u64,
    /// Committed groups not yet replayed, with their start offsets.
    pending: VecDeque<(u64, R)>,
}

impl<R> Log<R> {
    /// Open (or create) the log at `path`, whose first line is `header`.
    ///
    /// An empty file, or one torn inside its header line, is fresh: the
    /// header is written. Any other first line, or other unterminated
    /// bytes, is [`JournalError::Version`]. Only `\n`-terminated lines are
    /// trusted; `frame` gets the untaken ones (never none) and returns
    /// `Some((n, record))` for a group of `n` lines, or `None` for a torn
    /// tail — a group that runs into the end with every line so far
    /// well-formed — which is truncated away. Errors leave the file as is.
    pub fn open(
        path: &Path,
        header: &str,
        mut frame: impl FnMut(&[JournalLine<'_>]) -> Result<Option<(usize, R)>, JournalError>,
    ) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let lines = trusted_lines(&text);
        let mut pending = VecDeque::new();
        let end = match lines.split_first() {
            Some((first, mut rest)) if first.text == header => {
                let mut end = first.end;
                while !rest.is_empty() {
                    let Some((n, record)) = frame(rest)? else {
                        break;
                    };
                    let (group, tail) = rest.split_at(n.clamp(1, rest.len()));
                    pending.push_back((group[0].start, record));
                    end = group[group.len() - 1].end;
                    rest = tail;
                }
                end
            }
            Some((first, _)) => {
                return Err(JournalError::Version {
                    found: first.text.to_string(),
                })
            }
            None if header.starts_with(text.as_str()) => 0,
            None => return Err(JournalError::Version { found: text }),
        };
        if end < text.len() as u64 {
            file.set_len(end)?;
        }
        let mut log = Self { file, end, pending };
        // Only a fresh file has no trusted header line.
        if end == 0 {
            log.append(&format!("{header}\n"))?;
        }
        Ok(log)
    }

    /// The groups awaiting replay, in file order.
    pub fn pending(&self) -> impl Iterator<Item = &R> {
        self.pending.iter().map(|(_, r)| r)
    }

    /// Take the next group for replay.
    pub fn pop(&mut self) -> Option<R> {
        self.pending.pop_front().map(|(_, r)| r)
    }

    /// Take the next group for replay if `wanted` accepts it.
    pub fn pop_if(&mut self, wanted: impl FnOnce(&R) -> bool) -> Option<R> {
        self.pending.front().filter(|(_, r)| wanted(r))?;
        self.pop()
    }

    /// Drop every group still awaiting replay and cut the file where the
    /// first of them starts. Returns whether there was one.
    pub fn discard_pending(&mut self) -> Result<bool, JournalError> {
        let Some(&(start, _)) = self.pending.front() else {
            return Ok(false);
        };
        self.file.set_len(start)?;
        self.end = start;
        self.pending.clear();
        Ok(true)
    }

    /// Write `text` (whole lines) at the end of the trusted content and
    /// flush it.
    pub fn append(&mut self, text: &str) -> Result<(), JournalError> {
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(text.as_bytes())?;
        self.file.flush()?;
        self.end += text.len() as u64;
        Ok(())
    }

    /// Force everything written to stable storage (`fsync`).
    pub fn sync(&self) -> Result<(), JournalError> {
        self.file.sync_all()?;
        Ok(())
    }
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

/// The checkpoint journal: a [`Log`] of crowd records plus its replay
/// policy.
#[derive(Debug)]
pub struct CrowdJournal {
    log: Log<Record>,
    /// Set once a resume diverged from the journal.
    diverged: bool,
    replayed_batches: usize,
}

impl CrowdJournal {
    /// Open (or create) a journal at `path`. Complete records become the
    /// replay queue; a torn trailing batch is truncated away.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Ok(Self {
            log: Log::open(path.as_ref(), HEADER, frame)?,
            diverged: false,
            replayed_batches: 0,
        })
    }

    /// Batches still queued for replay.
    pub fn pending_batches(&self) -> usize {
        self.log
            .pending()
            .filter(|r| matches!(r, Record::Batch(_)))
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
        while self.log.pop_if(|r| matches!(r, Record::Op(_))).is_some() {}
        let asked = |b: &BatchRecord| {
            b.scheme == scheme
                && b.questions.len() == pairs.len()
                && b.questions.iter().zip(pairs).all(|(q, p)| q.pair == *p)
        };
        if let Some(Record::Batch(b)) = self
            .log
            .pop_if(|r| matches!(r, Record::Batch(b) if asked(b)))
        {
            self.replayed_batches += 1;
            return Ok(Some(b));
        }
        self.diverged |= self.log.discard_pending()?;
        Ok(None)
    }

    /// Append a freshly labeled batch.
    pub fn record_batch(&mut self, batch: &BatchRecord) -> Result<(), JournalError> {
        // A live batch while records are still queued means the caller
        // skipped ahead: the queued tail is stale.
        self.diverged |= self.log.discard_pending()?;
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
        self.log.append(&text)
    }

    /// Force every written record to stable storage (`fsync`). The
    /// writer already flushes after each record, so this adds durability
    /// against OS-level loss — a cancelled gated run calls it before
    /// unwinding so the journal tail survives a subsequent real crash.
    pub fn finalize(&mut self) -> Result<(), JournalError> {
        self.log.sync()
    }

    /// Record (or replay past) an operator-boundary marker.
    pub fn mark_op(&mut self, label: &str) -> Result<(), JournalError> {
        if self
            .log
            .pop_if(|r| matches!(r, Record::Op(queued) if queued == label))
            .is_some()
        {
            return Ok(());
        }
        // A different boundary than recorded: stale tail.
        self.diverged |= self.log.discard_pending()?;
        if label.chars().any(char::is_whitespace) {
            return Err(corrupt(
                0,
                format!("op label {label:?} must not contain whitespace"),
            ));
        }
        self.log.append(&format!("op {label}\n"))
    }
}

/// Cut the next `falcon-journal v1` record off `lines`: an `op` line, or
/// a `batch` line with its `q` lines and `end` line. The question count
/// is read from disk, so it only bounds a walk over the lines that are
/// there — it never sizes or offsets anything.
fn frame(lines: &[JournalLine<'_>]) -> Result<Option<(usize, Record)>, JournalError> {
    let (head, mut body) = (&lines[0], &lines[1..]);
    let mut parts = head.text.split(' ');
    match parts.next() {
        Some("op") => {
            let label = parts
                .next()
                .ok_or_else(|| corrupt(head.no, "op without label"))?;
            Ok(Some((1, Record::Op(label.to_string()))))
        }
        Some("batch") => {
            let scheme = parts
                .next()
                .ok_or_else(|| corrupt(head.no, "batch without scheme"))?
                .to_string();
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt(head.no, "batch without question count"))?;
            let mut questions = Vec::new();
            while questions.len() < n {
                let Some((line, rest)) = body.split_first() else {
                    return Ok(None);
                };
                let mut q = line.text.split(' ');
                if q.next() != Some("q") {
                    return Err(corrupt(line.no, "expected a q line"));
                }
                let mut num = || -> Result<u64, JournalError> {
                    q.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt(line.no, "malformed q line"))
                };
                questions.push(QuestionRecord {
                    pair: (num()? as u32, num()? as u32),
                    label: num()? != 0,
                    answers: num()? as usize,
                    lost: num()? as usize,
                });
                body = rest;
            }
            let Some(line) = body.first() else {
                return Ok(None);
            };
            let mut e = line.text.split(' ');
            if e.next() != Some("end") {
                return Err(corrupt(line.no, "expected an end line"));
            }
            let mut num = || -> Result<u128, JournalError> {
                e.next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt(line.no, "malformed end line"))
            };
            let batch = BatchRecord {
                scheme,
                rounds: num()? as usize,
                escalations: num()? as usize,
                latency: nanos_to_duration(num()?),
                questions,
            };
            Ok(Some((batch.questions.len() + 2, Record::Batch(batch))))
        }
        _ => Err(corrupt(head.no, format!("unknown record {:?}", head.text))),
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    let secs = (nanos / 1_000_000_000) as u64;
    let sub = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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

    /// A question count read from disk only bounds a walk over the lines
    /// that are there: a huge one is neither an overflow nor an
    /// allocation, and the complete line that breaks its batch is corrupt.
    #[test]
    fn a_huge_question_count_is_corrupt_not_a_panic() {
        let path = tmp("huge-count");
        std::fs::write(
            &path,
            "falcon-journal v1\nbatch maj 18446744073709551615\nop x\n",
        )
        .expect("write");
        match CrowdJournal::open(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Only a batch that runs into the end of the file with every line
    /// well-formed is a torn tail. Complete lines that break it are
    /// corruption, and the file is left exactly as it was.
    #[test]
    fn a_batch_broken_by_complete_lines_is_corrupt_not_torn() {
        let path = tmp("broken-batch");
        let text = "falcon-journal v1\nbatch maj 5\nop x\nop y\n";
        std::fs::write(&path, text).expect("write");
        match CrowdJournal::open(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).expect("read"), text);
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
