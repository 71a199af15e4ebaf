//! Minimal CSV reader/writer (RFC-4180-ish: quoted fields, embedded commas,
//! doubled quotes, embedded newlines). Enough to persist/load the synthetic
//! datasets without an external dependency.
//!
//! The reader is a streaming, cross-line state machine: it scans the
//! buffered input byte-at-a-time, accumulates each record's unescaped
//! field bytes into one reused buffer, and feeds fields straight into
//! [`ColumnBuilder`]s — no intermediate `String` per field, no `Vec` per
//! row. Quoted fields may span physical lines, fixing the round-trip bug
//! where [`write_table`] quoted embedded `\n` but the old line-split
//! reader corrupted it on re-read.

use crate::column::ColumnBuilder;
use crate::schema::{AttrType, Schema};
use crate::table::Table;
use std::io::{self, BufRead, Write};

/// Escape a field for CSV output.
pub fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parser state carried across buffer refills (and physical lines).
#[derive(Clone, Copy, PartialEq)]
enum ScanState {
    /// Outside quotes.
    Unquoted,
    /// Inside a quoted section.
    Quoted,
    /// Inside quotes, just saw a `"` — the next byte decides whether it
    /// was a doubled quote (literal `"`) or the closing quote.
    QuoteSeen,
}

/// One decoded record: all unescaped field bytes in a single buffer,
/// with per-field end offsets. Field `i` spans `ends[i-1]..ends[i]`
/// (`ends[-1]` read as 0). Reused across records so steady-state record
/// decoding is allocation-free.
///
/// The buffer holds raw bytes while a record is being assembled (bulk
/// copies from the input chunk may end mid-way through a multi-byte
/// character at a chunk boundary); [`RecordReader::next_record`]
/// validates the completed record once, so [`Record::field`] always sees
/// UTF-8 and its fallback never fires. Field boundaries sit after ASCII
/// separators, hence always on character boundaries.
#[derive(Default)]
struct Record {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl Record {
    fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    fn arity(&self) -> usize {
        self.ends.len()
    }

    fn field(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        std::str::from_utf8(&self.buf[start..self.ends[i]]).unwrap_or("")
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        (0..self.arity()).map(|i| self.field(i))
    }

    /// Close the final field and validate the whole record's bytes.
    fn finish(&mut self) -> io::Result<bool> {
        self.ends.push(self.buf.len());
        std::str::from_utf8(&self.buf).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid utf-8 in csv: {e}"),
            )
        })?;
        Ok(true)
    }
}

/// Streaming record scanner over buffered input.
struct RecordReader<R: BufRead> {
    inner: R,
}

impl<R: BufRead> RecordReader<R> {
    fn new(inner: R) -> Self {
        RecordReader { inner }
    }

    /// Decode the next record into `rec`, skipping blank lines. Returns
    /// `false` at end of input. Newline handling matches the old
    /// line-based reader exactly: `\r\n` and `\n` terminate records
    /// (outside quotes), a lone `\r` is field content, and inside quotes
    /// every byte is literal.
    ///
    /// The scan works on raw bytes: every structural character (`"`,
    /// `,`, `\r`, `\n`) is ASCII, and no UTF-8 continuation byte can
    /// alias one, so runs of plain content between structural bytes are
    /// bulk-copied. Validation happens once per completed record (see
    /// [`Record::finish`]), which also keeps multi-byte characters split
    /// across buffer refills intact.
    fn next_record(&mut self, rec: &mut Record) -> io::Result<bool> {
        rec.clear();
        let mut state = ScanState::Unquoted;
        // Consumed at least one byte for this record (terminator included).
        let mut consumed_any = false;
        // Saw a quote or comma — a record of just `""` is one empty
        // field, not a blank line.
        let mut structure = false;
        // The previous byte was an unquoted `\r` (stripped before `\n`).
        let mut cr_pending = false;

        loop {
            let bytes = self.inner.fill_buf()?;
            if bytes.is_empty() {
                // End of input: emit the trailing record if it has any
                // content (files need not end with a newline). A pending
                // `\r` is content here — `BufRead::lines` only strips it
                // immediately before `\n`. An unterminated quote ends
                // its field at EOF.
                if cr_pending {
                    rec.buf.push(b'\r');
                }
                if !consumed_any || (rec.buf.is_empty() && rec.ends.is_empty() && !structure) {
                    return Ok(false);
                }
                return rec.finish();
            }
            let mut pos = 0;
            while pos < bytes.len() {
                let b = bytes[pos];
                if cr_pending && !(state == ScanState::Unquoted && b == b'\n') {
                    // The `\r` was not part of a `\r\n` terminator after
                    // all — keep it as field content.
                    rec.buf.push(b'\r');
                    cr_pending = false;
                }
                match state {
                    ScanState::Quoted => {
                        // Bulk-copy literal bytes up to the next quote.
                        let run = bytes[pos..]
                            .iter()
                            .position(|&x| x == b'"')
                            .unwrap_or(bytes.len() - pos);
                        rec.buf.extend_from_slice(&bytes[pos..pos + run]);
                        pos += run;
                        consumed_any = true;
                        if pos < bytes.len() {
                            state = ScanState::QuoteSeen;
                            pos += 1;
                        }
                    }
                    ScanState::QuoteSeen => {
                        consumed_any = true;
                        match b {
                            b'"' => {
                                rec.buf.push(b'"');
                                state = ScanState::Quoted;
                                pos += 1;
                            }
                            b',' => {
                                state = ScanState::Unquoted;
                                rec.ends.push(rec.buf.len());
                                pos += 1;
                            }
                            b'\n' => {
                                self.inner.consume(pos + 1);
                                return rec.finish();
                            }
                            b'\r' => {
                                state = ScanState::Unquoted;
                                cr_pending = true;
                                pos += 1;
                            }
                            // Plain byte after a closing quote: fall back
                            // to unquoted content without consuming, so
                            // the bulk arm below copies the run.
                            _ => state = ScanState::Unquoted,
                        }
                    }
                    ScanState::Unquoted => match b {
                        b'"' => {
                            state = ScanState::Quoted;
                            structure = true;
                            consumed_any = true;
                            pos += 1;
                        }
                        b',' => {
                            rec.ends.push(rec.buf.len());
                            structure = true;
                            consumed_any = true;
                            pos += 1;
                        }
                        b'\r' => {
                            cr_pending = true;
                            consumed_any = true;
                            pos += 1;
                        }
                        b'\n' => {
                            cr_pending = false;
                            pos += 1;
                            if rec.buf.is_empty() && rec.ends.is_empty() && !structure {
                                // Blank line: skip and keep scanning.
                                consumed_any = false;
                                continue;
                            }
                            self.inner.consume(pos);
                            return rec.finish();
                        }
                        _ => {
                            // Bulk-copy the run of plain field bytes.
                            let run = bytes[pos..]
                                .iter()
                                .position(|&x| matches!(x, b'"' | b',' | b'\r' | b'\n'))
                                .unwrap_or(bytes.len() - pos);
                            rec.buf.extend_from_slice(&bytes[pos..pos + run]);
                            pos += run;
                            consumed_any = true;
                        }
                    },
                }
            }
            let used = bytes.len();
            self.inner.consume(used);
        }
    }
}

/// Read a table from CSV with a header row. All columns load as `Str`;
/// fields stream straight into column builders, classified with
/// [`Value::parse`](crate::value::Value::parse) semantics
/// ([`ColumnBuilder::push_raw`]). A header naming a column twice is
/// `InvalidData`.
pub fn read_table(name: &str, reader: impl BufRead) -> io::Result<Table> {
    let mut rr = RecordReader::new(reader);
    let mut rec = Record::default();
    if !rr.next_record(&mut rec)? {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty csv"));
    }
    let mut names: Vec<&str> = rec.fields().collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("csv header repeats the column name {:?}", w[0]),
        ));
    }
    let schema = Schema::new(rec.fields().map(|n| (n.to_string(), AttrType::Str)));
    let arity = schema.arity();

    let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
    let mut n_rows = 0usize;
    while rr.next_record(&mut rec)? {
        if rec.arity() != arity {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("row arity {} != header {arity}", rec.arity()),
            ));
        }
        for (b, field) in builders.iter_mut().zip(rec.fields()) {
            b.push_raw(field);
        }
        n_rows += 1;
    }
    Ok(Table::from_columns(
        name,
        schema,
        builders.into_iter().map(ColumnBuilder::finish).collect(),
        n_rows,
    ))
}

/// Write a table as CSV with a header row.
pub fn write_table(table: &Table, mut w: impl Write) -> io::Result<()> {
    let mut line = String::new();
    for (i, name) in table.schema().names().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_escaped(&mut line, name);
    }
    writeln!(w, "{line}")?;
    let arity = table.schema().arity();
    let mut scratch = String::new();
    for id in 0..table.len() {
        line.clear();
        for idx in 0..arity {
            if idx > 0 {
                line.push(',');
            }
            scratch.clear();
            if let Some(v) = table.value_ref(id as u32, idx) {
                v.render_into(&mut scratch);
            }
            push_escaped(&mut line, &scratch);
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Append `field` to `out`, quoting and doubling quotes when needed
/// (same output as [`escape`], without the per-field allocation).
fn push_escaped(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// `read_table`, checked against its definition: every field the
    /// record scanner yields, classified by [`Value::parse`].
    fn read_checked(csv: &str) -> Table {
        let t = read_table("t", csv.as_bytes()).unwrap();
        let mut rr = RecordReader::new(csv.as_bytes());
        let mut rec = Record::default();
        assert!(rr.next_record(&mut rec).unwrap(), "header");
        let mut want: Vec<Vec<Value>> = Vec::new();
        while rr.next_record(&mut rec).unwrap() {
            want.push(rec.fields().map(Value::parse).collect());
        }
        let got: Vec<Vec<Value>> = t.rows().into_iter().map(|r| r.values).collect();
        assert_eq!(got, want, "reader disagrees with Value::parse");
        t
    }

    fn cell(t: &Table, id: u32, attr: &str) -> Value {
        let idx = t.schema().index_of(attr).unwrap();
        t.value_ref(id, idx).unwrap().to_value()
    }

    /// The fields of the single record in `input`.
    fn one_record(input: &str) -> Vec<String> {
        let mut rr = RecordReader::new(input.as_bytes());
        let mut rec = Record::default();
        assert!(rr.next_record(&mut rec).unwrap(), "{input:?}");
        let fields = rec.fields().map(str::to_string).collect();
        assert!(!rr.next_record(&mut rec).unwrap(), "{input:?}");
        fields
    }

    #[test]
    fn roundtrip() {
        let csv = "title,price\n\"laptop, 15in\",999.5\nmouse,25\n";
        let t = read_checked(csv);
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 0, "title"), Value::str("laptop, 15in"));
        assert_eq!(cell(&t, 1, "price"), Value::Num(25.0));
        let mut out = Vec::new();
        write_table(&t, &mut out).unwrap();
        let t2 = read_table("t2", out.as_slice()).unwrap();
        assert_eq!(t2.rows(), t.rows());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let csv = "a,b\n1\n";
        assert!(read_table("t", csv.as_bytes()).is_err());
    }

    #[test]
    fn escape_roundtrips() {
        for s in ["plain", "with,comma", "with \"quote\"", "two\nlines", ""] {
            let line = format!("{},x\n", escape(s));
            assert_eq!(one_record(&line), [s, "x"]);
        }
    }

    #[test]
    fn embedded_newline_roundtrips() {
        // Regression: `write_table` quotes embedded newlines; the old
        // line-split reader corrupted them on re-read.
        let schema = Schema::new([("notes", AttrType::Str), ("n", AttrType::Num)]);
        let t = Table::new(
            "multi",
            schema,
            vec![
                vec![Value::str("line one\nline two"), Value::num(1.0)],
                vec![Value::str("a \"quoted\"\ncomma, too"), Value::num(2.0)],
                vec![Value::str("plain"), Value::Null],
            ],
        );
        let mut out = Vec::new();
        write_table(&t, &mut out).unwrap();
        let csv = String::from_utf8(out).unwrap();
        let back = read_checked(&csv);
        assert_eq!(back.rows(), t.rows());
        assert_eq!(cell(&back, 0, "notes"), Value::str("line one\nline two"));
    }

    #[test]
    fn crlf_and_blank_lines_match_line_reader() {
        // \r\n terminators are stripped like BufRead::lines does; blank
        // lines (including \r\n-only) are skipped; a lone \r mid-field
        // is content.
        let csv = "a,b\r\n1,x\r\n\r\n\n2,has\rcr\r\n";
        let t = read_checked(csv);
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 1, "b"), Value::str("has\rcr"));
    }

    #[test]
    fn quoted_empty_record_is_one_empty_field() {
        // A record of just `""` is a 1-field row (empty ⇒ Null), not a
        // blank line.
        let csv = "a\n\"\"\nx\n";
        let t = read_checked(csv);
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 0, "a"), Value::Null);
        assert_eq!(cell(&t, 1, "a"), Value::str("x"));
    }

    #[test]
    fn missing_trailing_newline_keeps_last_row() {
        let t = read_checked("a,b\n1,2\n3,4");
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 1, "b"), Value::Num(4.0));
    }

    #[test]
    fn single_line_records_split_into_their_fields() {
        // Quoted commas, doubled quotes, empty fields, a quote closing
        // mid-field, multi-byte text.
        let cases: [(&str, &[&str]); 6] = [
            ("a,b,c", &["a", "b", "c"]),
            (r#""a,b",c"#, &["a,b", "c"]),
            (r#""say ""hi""",x"#, &[r#"say "hi""#, "x"]),
            ("a,,c", &["a", "", "c"]),
            (r#""mid"quote,x"#, &["midquote", "x"]),
            ("ünï,cödé", &["ünï", "cödé"]),
        ];
        for (line, want) in cases {
            assert_eq!(one_record(&format!("{line}\n")), want, "line {line:?}");
        }
    }

    #[test]
    fn repeated_header_name_is_invalid_data() {
        let err = read_table("t", "a,a\n1,2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"a\""), "{err}");
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let bytes: &[u8] = b"a\n\xffbad\n";
        assert!(read_table("t", bytes).is_err());
    }
}
