//! A hand-rolled lexer over the token-relevant subset of Rust.
//!
//! `syn` is unavailable offline, so falcon-lint carries its own lexer: it
//! masks comments, string literals and char literals (preserving line
//! structure), then produces a token stream with line/column spans. On
//! top of the token stream sit two lightweight syntactic passes:
//!
//! * [`LexedFile::functions`] — per-function scopes (name, signature and
//!   body token ranges), where hash-typed parameters are found.
//! * [`LexedFile::cfg_test_lines`] — lines covered by `#[cfg(test)]`
//!   items, which the rules skip.

/// One token of the masked source.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token text (identifier, number, or a single punctuation char).
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in characters).
    pub col: usize,
    /// True for identifier/keyword tokens.
    pub is_ident: bool,
}

impl Tok {
    /// True when the token is the identifier `s`.
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// A function definition found in the token stream.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token index of the `fn` keyword (signature runs from here to the
    /// body's opening brace).
    pub kw: usize,
    /// Token index range of the body, `[open_brace, close_brace]`.
    pub body: (usize, usize),
}

/// A lexed source file: tokens and raw lines.
#[derive(Debug)]
pub struct LexedFile {
    /// The token stream of the masked source.
    pub toks: Vec<Tok>,
    /// Raw source lines (for snippets).
    pub raw_lines: Vec<String>,
}

/// Mask comments, string literals and char literals with spaces,
/// preserving newlines.
fn mask(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut masked: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |masked: &mut Vec<u8>, s: &str| {
        masked.extend(s.bytes().map(|b| if b == b'\n' { b } else { b' ' }));
    };
    while i < bytes.len() {
        let rest = &source[i..];
        if rest.starts_with("//") {
            let end = rest.find('\n').map_or(bytes.len(), |n| i + n);
            blank(&mut masked, &source[i..end]);
            i = end;
        } else if rest.starts_with("/*") {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if source[j..].starts_with("/*") {
                    depth += 1;
                    j += 2;
                } else if source[j..].starts_with("*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut masked, &source[i..j]);
            i = j;
        } else if rest.starts_with("r\"") || rest.starts_with("r#") {
            // Raw string: count the hashes, find the closing quote+hashes.
            let hashes = rest[1..].bytes().take_while(|&b| b == b'#').count();
            let open = 1 + hashes + 1; // r + hashes + quote
            let close_pat: String = format!("\"{}", "#".repeat(hashes));
            let end = source[i + open..]
                .find(&close_pat)
                .map_or(bytes.len(), |n| i + open + n + close_pat.len());
            blank(&mut masked, &source[i..end]);
            i = end;
        } else if rest.starts_with('"') {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let j = j.min(bytes.len());
            blank(&mut masked, &source[i..j]);
            i = j;
        } else if rest.starts_with('\'') {
            // Char literal or lifetime. A lifetime (`'a`) has no closing
            // quote within a couple of characters; a char literal does.
            let lit_end = source[i + 1..]
                .char_indices()
                .take(5)
                .find(|&(off, c)| c == '\'' && off != 0)
                .map(|(off, _)| i + 1 + off + 1);
            match lit_end {
                Some(j) if !rest.starts_with("'\\") || j > i + 2 => {
                    blank(&mut masked, &source[i..j]);
                    i = j;
                }
                _ => {
                    masked.push(bytes[i]);
                    i += 1;
                }
            }
        } else {
            masked.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8_lossy(&masked).into_owned()
}

/// Lex `source` into a [`LexedFile`].
pub fn lex(source: &str) -> LexedFile {
    let masked = mask(source);
    let mut toks = Vec::new();
    for (ln, text) in masked.lines().enumerate() {
        let chars: Vec<char> = text.chars().collect();
        let mut c = 0usize;
        while c < chars.len() {
            let ch = chars[c];
            if ch.is_whitespace() {
                c += 1;
            } else if ch.is_alphabetic() || ch == '_' {
                let start = c;
                while c < chars.len() && (chars[c].is_alphanumeric() || chars[c] == '_') {
                    c += 1;
                }
                toks.push(Tok {
                    text: chars[start..c].iter().collect(),
                    line: ln + 1,
                    col: start + 1,
                    is_ident: true,
                });
            } else if ch.is_ascii_digit() {
                // Number: digits, underscores, one fraction, type suffix.
                let start = c;
                while c < chars.len() && (chars[c].is_alphanumeric() || chars[c] == '_') {
                    c += 1;
                }
                if c + 1 < chars.len() && chars[c] == '.' && chars[c + 1].is_ascii_digit() {
                    c += 1;
                    while c < chars.len() && (chars[c].is_alphanumeric() || chars[c] == '_') {
                        c += 1;
                    }
                }
                toks.push(Tok {
                    text: chars[start..c].iter().collect(),
                    line: ln + 1,
                    col: start + 1,
                    is_ident: false,
                });
            } else {
                toks.push(Tok {
                    text: ch.to_string(),
                    line: ln + 1,
                    col: c + 1,
                    is_ident: false,
                });
                c += 1;
            }
        }
    }
    LexedFile {
        toks,
        raw_lines: source.lines().map(str::to_string).collect(),
    }
}

impl LexedFile {
    /// True when tokens `i..i+pats.len()` match `pats` exactly.
    pub fn matches(&self, i: usize, pats: &[&str]) -> bool {
        pats.iter()
            .enumerate()
            .all(|(k, p)| self.toks.get(i + k).is_some_and(|t| t.text == *p))
    }

    /// Token index of the matching `}` for the `{` at `open` (falls back
    /// to the last token on unbalanced input).
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (k, t) in self.toks.iter().enumerate().skip(open) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Function definitions: `fn name ... { body }`. Trait-method
    /// declarations (signature ending in `;`) have no body and are
    /// skipped.
    pub fn functions(&self) -> Vec<FnDef> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            if self.toks[i].is("fn") && self.toks[i].is_ident {
                if let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.is_ident) {
                    // Find the body `{`, stopping at `;` (no body).
                    let mut j = i + 2;
                    let mut depth = 0i32; // () / [] nesting in the signature
                    let mut body = None;
                    while j < self.toks.len() {
                        match self.toks[j].text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            ";" if depth <= 0 => break,
                            "{" if depth <= 0 => {
                                body = Some(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(open) = body {
                        out.push(FnDef {
                            name: name_tok.text.clone(),
                            kw: i,
                            body: (open, self.matching_brace(open)),
                        });
                    }
                }
            }
            i += 1;
        }
        out
    }

    /// 1-based lines covered by `#[cfg(test)]` items.
    pub fn cfg_test_lines(&self) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let mut i = 0;
        while i + 5 < self.toks.len() {
            if self.matches(i, &["#", "[", "cfg", "(", "test", ")"]) {
                // Find the annotated item's opening brace, then its match.
                let mut j = i + 6;
                while j < self.toks.len() && !self.toks[j].is("{") {
                    j += 1;
                }
                if j < self.toks.len() {
                    let close = self.matching_brace(j);
                    ranges.push((self.toks[i].line, self.toks[close].line));
                    i = close;
                }
            }
            i += 1;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_carry_spans() {
        let f = lex("fn main() {\n    let x = 1;\n}\n");
        let x = f.toks.iter().find(|t| t.is("x")).expect("x token");
        assert_eq!((x.line, x.col), (2, 9));
    }

    #[test]
    fn strings_and_comments_are_masked_but_collected() {
        // Masked out of the token stream, kept in the raw lines that
        // violation snippets quote.
        let f = lex("// note: m.keys()\nlet s = \"m.keys()\"; /* m.keys()\n */ x\n");
        assert!(!f.toks.iter().any(|t| t.is("m") || t.is("keys")));
        assert_eq!(
            f.toks.last().map(|t| (t.text.as_str(), t.line)),
            Some(("x", 3))
        );
        assert!(f.raw_lines[0].contains("m.keys()"));
        assert!(f.raw_lines[1].contains("m.keys()"));
    }

    #[test]
    fn functions_are_scoped_and_trait_decls_skipped() {
        let src = "trait T { fn decl(&self) -> u32; }\nfn real() { nested_call(); }\n";
        let f = lex(src);
        let fns = f.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
        let (open, close) = fns[0].body;
        assert!(f.toks[open].is("{") && f.toks[close].is("}"));
    }

    #[test]
    fn cfg_test_ranges_cover_the_module() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = lex(src);
        assert_eq!(f.cfg_test_lines(), vec![(2, 5)]);
    }
}
