//! An interactive "crowd" backed by a human at a terminal — the paper's
//! Example 1 notes that users who don't want to pay a crowd "can label the
//! tuple pairs themselves". Questions render both tuples side by side
//! (like the MTurk HIT of Figure 8) and read `y`/`n` answers from any
//! `BufRead` (stdin in the examples; a script in tests).
//!
//! Answers are cached per pair so majority-voting schemes don't re-ask a
//! human the same question three times.

use crate::Crowd;
use falcon_table::{IdPair, Table};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Duration;

/// A single human answering questions over an I/O channel.
pub struct InteractiveCrowd<R: BufRead + Send, W: Write + Send> {
    a: Table,
    b: Table,
    state: Mutex<(R, W, HashMap<IdPair, bool>)>,
}

impl<R: BufRead + Send, W: Write + Send> InteractiveCrowd<R, W> {
    /// Create over the two tables being matched and an answer channel.
    pub fn new(a: Table, b: Table, input: R, output: W) -> Self {
        Self {
            a,
            b,
            state: Mutex::new((input, output, HashMap::new())),
        }
    }

    /// Number of distinct questions answered so far.
    pub fn answered(&self) -> usize {
        self.state.lock().2.len()
    }
}

impl<R: BufRead + Send, W: Write + Send> Crowd for InteractiveCrowd<R, W> {
    fn answer(&self, pair: IdPair) -> bool {
        let mut state = self.state.lock();
        if let Some(&cached) = state.2.get(&pair) {
            return cached;
        }
        if pair.0 as usize >= self.a.len() || pair.1 as usize >= self.b.len() {
            // No record to show: say so and default to "no match", like
            // a closed pipe, instead of ending the labeling session.
            let _ = writeln!(
                state.1,
                "\n--- pair ({}, {}) names an unknown record: no match ---",
                pair.0, pair.1
            );
            state.2.insert(pair, false);
            return false;
        }
        let answer = loop {
            {
                let (_, out, _) = &mut *state;
                // Rendering failure (closed pipe) defaults to "no match".
                let (a, b) = (&self.a, &self.b);
                let mut render = || -> std::io::Result<()> {
                    writeln!(out, "\n--- Do these records match? (y/n) ---")?;
                    for (side, table, id) in [("A", a, pair.0), ("B", b, pair.1)] {
                        write!(out, "  {side}: ")?;
                        for (i, attr) in table.schema().attrs().iter().enumerate() {
                            let cell = table.value_ref(id, i).unwrap_or_default();
                            write!(out, "{}={} ", attr.name, cell.render())?;
                        }
                        writeln!(out)?;
                    }
                    write!(out, "> ")?;
                    out.flush()
                };
                if render().is_err() {
                    break false;
                }
            }
            let mut line = String::new();
            let (input, _, _) = &mut *state;
            if input.read_line(&mut line).unwrap_or(0) == 0 {
                break false; // EOF: default to no-match
            }
            match line.trim().to_lowercase().as_str() {
                "y" | "yes" | "1" => break true,
                "n" | "no" | "0" => break false,
                _ => {
                    let (_, out, _) = &mut *state;
                    let _ = writeln!(out, "please answer y or n");
                }
            }
        };
        state.2.insert(pair, answer);
        answer
    }

    fn latency_per_round(&self) -> Duration {
        // A human labels a 20-pair round in a few minutes; the virtual
        // latency only matters for masking accounting.
        Duration::from_secs(120)
    }

    fn cost_per_answer(&self) -> f64 {
        0.0
    }

    fn name(&self) -> &str {
        "interactive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Value};
    use std::io::Cursor;

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("name", AttrType::Str)]);
        let a = Table::new(
            "a",
            schema.clone(),
            vec![vec![Value::str("alpha")], vec![Value::str("beta")]],
        );
        let b = Table::new(
            "b",
            schema,
            vec![vec![Value::str("alpha!")], vec![Value::str("gamma")]],
        );
        (a, b)
    }

    #[test]
    fn reads_answers_and_caches() {
        let (a, b) = tables();
        let input = Cursor::new(b"y\nn\n".to_vec());
        let crowd = InteractiveCrowd::new(a, b, input, Vec::new());
        assert!(crowd.answer((0, 0)));
        // Cached: the second read must not consume the "n".
        assert!(crowd.answer((0, 0)));
        assert!(!crowd.answer((1, 1)));
        assert_eq!(crowd.answered(), 2);
    }

    #[test]
    fn retries_on_garbage_then_accepts() {
        let (a, b) = tables();
        let input = Cursor::new(b"maybe\nYES\n".to_vec());
        let crowd = InteractiveCrowd::new(a, b, input, Vec::new());
        assert!(crowd.answer((0, 1)));
    }

    #[test]
    fn eof_defaults_to_no() {
        let (a, b) = tables();
        let input = Cursor::new(Vec::new());
        let crowd = InteractiveCrowd::new(a, b, input, Vec::new());
        assert!(!crowd.answer((0, 0)));
    }

    #[test]
    fn unknown_id_says_so_and_defaults_to_no() {
        let (a, b) = tables();
        let input = Cursor::new(b"y\ny\n".to_vec());
        let crowd = InteractiveCrowd::new(a, b, input, Vec::new());
        assert!(!crowd.answer((0, 7)));
        assert!(!crowd.answer((9, 0)));
        let out = String::from_utf8(crowd.state.lock().1.clone()).unwrap();
        assert!(out.contains("pair (0, 7) names an unknown record"), "{out}");
        assert!(!out.contains("(y/n)"), "{out}");
        // Neither question consumed an answer.
        assert!(crowd.answer((1, 1)));
    }

    #[test]
    fn closed_pipe_defaults_to_no() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (a, b) = tables();
        let crowd = InteractiveCrowd::new(a, b, Cursor::new(b"y\n".to_vec()), Closed);
        assert!(!crowd.answer((0, 0)));
        assert!(!crowd.answer((0, 9)));
    }

    #[test]
    fn prompt_shows_both_tuples() {
        let (a, b) = tables();
        let input = Cursor::new(b"y\n".to_vec());
        let crowd = InteractiveCrowd::new(a, b, input, Vec::new());
        crowd.answer((0, 0));
        let out = {
            let state = crowd.state.lock();
            String::from_utf8(state.1.clone()).unwrap()
        };
        assert!(out.contains("alpha"));
        assert!(out.contains("alpha!"));
        assert!(out.contains("(y/n)"));
    }
}
