//! Syntax-aware invariant linter for the Falcon workspace.
//!
//! The paper's system is a *hands-off cloud service*: once a job is
//! submitted nobody watches a terminal, so nondeterminism makes
//! simulated-time experiments unreproducible and an error without its
//! coordinates is undiagnosable. Each invariant has exactly one checker.
//! Every rule that is a path lookup belongs to clippy, which resolves
//! paths through the compiler: panic-freedom (`unwrap_used`,
//! `expect_used`, `panic`, `unreachable` denied in the crate roots of
//! `falcon-core`, `falcon-dataflow`, `falcon-index` and `falcon-serve`),
//! and wall-clock, environment and hasher-entropy reads (the root
//! `clippy.toml`). This crate keeps the three rules no path lookup can
//! express, checked over the library source by a hand-rolled lexer
//! ([`lexer`]) with comments, strings and `cfg(test)` regions excluded:
//!
//! * **`hashmap-iter-order`** — iterating a `HashMap`/`HashSet` (local,
//!   parameter or field with a hash type) in result-producing code under
//!   `crates/falcon-{core,dataflow,forest,index}` must go through a
//!   deterministic funnel: `group_in_arrival_order`, a sorted view
//!   (`sort*`, BTree collections) or an
//!   order-insensitive fold (`sum`/`count`/`min`/`max`/`any`/`all`/...).
//!   `RandomState` is already banned, but even a deterministic hasher's
//!   arbitrary order is not a *stable contract* — results must not depend
//!   on it.
//! * **`float-reduce-order`** — no float accumulation (`sum::<f64>()`,
//!   `fold(0.0, ...)`) over an unordered hash-container iteration: float
//!   addition is non-associative, so an arbitrary reduction order breaks
//!   bit-identical replay. Sort first, or reduce in arrival order.
//! * **`error-context`** — every `DataflowError` struct-variant
//!   construction in `falcon-dataflow`/`falcon-core` must carry its
//!   `job` and `phase` coordinates (task-level errors also carry `task`),
//!   and every `ServeError` construction in `falcon-serve` its `tenant`
//!   and `round`: a hands-off service diagnoses a failed run from the
//!   error value alone.
//!
//! The rules have no waiver syntax: a deliberate exception is written
//! through a funnel (a sort, an order-insensitive fold, the coordinates)
//! instead.

pub mod lexer;

use lexer::{FnDef, LexedFile};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Hash-container iteration must go through a deterministic funnel.
    HashmapIterOrder,
    /// No float accumulation over unordered hash iteration.
    FloatReduceOrder,
    /// `DataflowError` constructions must carry job/phase coordinates;
    /// `ServeError` constructions tenant/round.
    ErrorContext,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 3] = [
    Rule::HashmapIterOrder,
    Rule::FloatReduceOrder,
    Rule::ErrorContext,
];

impl Rule {
    /// The rule's name as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashmapIterOrder => "hashmap-iter-order",
            Rule::FloatReduceOrder => "float-reduce-order",
            Rule::ErrorContext => "error-context",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in (as given to the scanner).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The matched construct.
    pub token: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] `{}` — {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule.name(),
            self.token,
            self.snippet
        )
    }
}

/// Normalize a path for rule matching: `/`-separated, `.` segments and
/// duplicate separators collapsed, so Windows-style paths select the
/// same rule set as POSIX ones.
fn norm(path: &Path) -> String {
    let p = path.to_string_lossy().replace('\\', "/");
    let segs: Vec<&str> = p
        .split('/')
        .filter(|s| !s.is_empty() && *s != ".")
        .collect();
    segs.join("/")
}

/// Which rules apply to a file, by workspace-relative path.
pub fn rules_for(path: &Path) -> Vec<Rule> {
    let p = norm(path);
    let has = |frag: &str| p.contains(frag);
    let mut rules = Vec::new();
    let deterministic_result_path = has("falcon-core/src/")
        || has("falcon-dataflow/src/")
        || has("falcon-forest/src/")
        || has("falcon-index/src/");
    if deterministic_result_path {
        rules.push(Rule::HashmapIterOrder);
        rules.push(Rule::FloatReduceOrder);
    }
    if has("falcon-dataflow/src/") || has("falcon-core/src/") || has("falcon-serve/src/") {
        rules.push(Rule::ErrorContext);
    }
    rules
}

/// A prepared file: lexed source, active rules and test regions.
struct FileScan {
    path: PathBuf,
    rules: Vec<Rule>,
    lx: LexedFile,
    /// 1-based `#[cfg(test)]` line ranges.
    test_ranges: Vec<(usize, usize)>,
    /// Function scopes.
    fns: Vec<FnDef>,
}

impl FileScan {
    fn prepare(path: PathBuf, source: &str, rules: Vec<Rule>) -> FileScan {
        let lx = lexer::lex(source);
        let test_ranges = lx.cfg_test_lines();
        let fns = lx.functions();
        FileScan {
            path,
            rules,
            lx,
            test_ranges,
            fns,
        }
    }

    /// True when `rule` applies to this file and `line` is not inside a
    /// test region.
    fn active(&self, rule: Rule, line: usize) -> bool {
        self.rules.contains(&rule)
            && !self
                .test_ranges
                .iter()
                .any(|&(s, e)| line >= s && line <= e)
    }

    fn violation(
        &self,
        rule: Rule,
        line: usize,
        col: usize,
        token: impl Into<String>,
    ) -> Violation {
        Violation {
            file: self.path.clone(),
            line,
            col,
            rule,
            token: token.into(),
            snippet: self
                .lx
                .raw_lines
                .get(line - 1)
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
        }
    }
}

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
];
/// Constructs that make an iteration order-insensitive or ordered.
const BLESSED: [&str; 16] = [
    "group_in_arrival_order",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "count",
    "len",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "any",
    "all",
    "contains",
    "contains_key",
];

fn is_blessed(text: &str) -> bool {
    BLESSED.contains(&text) || text.starts_with("sort")
}

/// Names in this file bound to hash-container types: locals
/// (`let m: HashMap<...>` / `let m = HashMap::new()`), function
/// parameters and struct fields.
fn hash_container_names(fs: &FileScan) -> HashSet<String> {
    let toks = &fs.lx.toks;
    let mut names = HashSet::new();
    let stmt_has_hash_type = |from: usize, to: usize| {
        toks[from..to.min(toks.len())]
            .iter()
            .any(|t| HASH_TYPES.contains(&t.text.as_str()))
    };
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is("let") && t.is_ident {
            // `let [mut] name ...;` — plain bindings only.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.is_ident) {
                // Statement span: to the `;` closing this let.
                let mut depth = 0i32;
                let mut end = j;
                while end < toks.len() {
                    match toks[end].text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                if stmt_has_hash_type(j + 1, end) {
                    names.insert(name.text.clone());
                }
                i = end;
                continue;
            }
        } else if t.is("struct") && t.is_ident {
            // Record hash-typed field names: `name: HashMap<...>,`.
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                j += 1;
            }
            if j < toks.len() && toks[j].is("{") {
                let close = fs.lx.matching_brace(j);
                let mut k = j + 1;
                while k < close {
                    if toks[k].is_ident && toks.get(k + 1).is_some_and(|t| t.is(":")) {
                        // Field span: to the `,` at depth 0.
                        let mut depth = 0i32;
                        let mut end = k + 2;
                        while end < close {
                            match toks[end].text.as_str() {
                                "{" | "(" | "[" | "<" => depth += 1,
                                "}" | ")" | "]" | ">" => depth -= 1,
                                "," if depth <= 0 => break,
                                _ => {}
                            }
                            end += 1;
                        }
                        if stmt_has_hash_type(k + 2, end) {
                            names.insert(toks[k].text.clone());
                        }
                        k = end;
                    }
                    k += 1;
                }
                i = close;
                continue;
            }
        }
        i += 1;
    }
    // Function parameters: `name: ... HashMap<...>` within signatures.
    for f in &fs.fns {
        let (sig_start, sig_end) = (f.kw, f.body.0);
        let mut k = sig_start;
        while k < sig_end {
            if toks[k].is_ident && toks.get(k + 1).is_some_and(|t| t.is(":")) {
                let mut depth = 0i32;
                let mut end = k + 2;
                while end < sig_end {
                    match toks[end].text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "," if depth <= 0 => break,
                        _ => {}
                    }
                    if depth < 0 {
                        break;
                    }
                    end += 1;
                }
                if stmt_has_hash_type(k + 2, end) {
                    names.insert(toks[k].text.clone());
                }
                k = end;
            }
            k += 1;
        }
    }
    names
}

/// Scan hash-container iteration sites; classify each as blessed,
/// `float-reduce-order` or `hashmap-iter-order`.
fn pass_hash_iteration(fs: &FileScan, out: &mut Vec<Violation>) {
    let toks = &fs.lx.toks;
    let hashes = hash_container_names(fs);
    if hashes.is_empty() {
        return;
    }

    // Method-chain iteration: `<hash> . <iter-method> (`.
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident && hashes.contains(&t.text)) {
            continue;
        }
        if !(toks.get(i + 1).is_some_and(|n| n.is("."))
            && toks
                .get(i + 2)
                .is_some_and(|n| ITER_METHODS.contains(&n.text.as_str()))
            && toks.get(i + 3).is_some_and(|n| n.is("(")))
        {
            continue;
        }
        // Statement span: back to the previous `;`/`{`/`}`, forward to the
        // `;` that closes this statement (tracking nested braces). For a
        // `let` binding the span extends one statement further, so the
        // idiomatic `let v: Vec<_> = m.keys().collect(); v.sort();`
        // shape is seen as sorted.
        let start = (0..i)
            .rev()
            .find(|&k| matches!(toks[k].text.as_str(), ";" | "{" | "}"))
            .map_or(0, |k| k + 1);
        let is_let = toks.get(start).is_some_and(|t| t.is("let") && t.is_ident);
        let mut semis_wanted = if is_let { 2 } else { 1 };
        let mut depth = 0i32;
        let mut end = i;
        while end < toks.len() {
            match toks[end].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth <= 0 => {
                    semis_wanted -= 1;
                    if semis_wanted == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let span = &toks[start..end.min(toks.len())];
        classify_iteration(
            fs,
            span,
            t.line,
            t.col,
            &format!("{}.{}()", t.text, toks[i + 2].text),
            out,
        );
    }

    // `for ... in <hash-expr> {`: the loop header is the span (the body
    // cannot prove order-insensitivity; use a sorted view or a funnel).
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is("for") && toks[i].is_ident) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => break, // not a for-loop header after all
                _ => {}
            }
            j += 1;
        }
        let header = &toks[i..j.min(toks.len())];
        // An ident followed by `(` is a *call* that happens to share the
        // container's name (e.g. a `qgrams` local next to a `qgrams()`
        // tokenizer fn) — only a bare use of the name is the container.
        if let Some(h) = header.iter().enumerate().find_map(|(off, t)| {
            let next = toks.get(i + off + 1);
            (t.is_ident && hashes.contains(&t.text) && !next.is_some_and(|n| n.is("(")))
                .then_some(t)
        }) {
            classify_iteration(
                fs,
                header,
                toks[i].line,
                toks[i].col,
                &format!("for … in {}", h.text),
                out,
            );
        }
        i = j + 1;
    }
}

/// Decide what (if anything) to report for one hash-iteration span.
fn classify_iteration(
    fs: &FileScan,
    span: &[lexer::Tok],
    line: usize,
    col: usize,
    token: &str,
    out: &mut Vec<Violation>,
) {
    let has = |s: &str| span.iter().any(|t| t.is_ident && t.is(s));
    let float_sum = has("sum") && (has("f64") || has("f32"));
    let float_fold = has("fold")
        && span
            .iter()
            .any(|t| !t.is_ident && t.text.contains('.') && t.text.starts_with(char::is_numeric));
    if float_sum || float_fold {
        if fs.active(Rule::FloatReduceOrder, line) {
            let what = if float_sum {
                "sum::<float>"
            } else {
                "fold(0.0, …)"
            };
            out.push(fs.violation(
                Rule::FloatReduceOrder,
                line,
                col,
                format!("{token} → {what}"),
            ));
        }
        return; // float-reduce-order shadows hashmap-iter-order
    }
    if span.iter().any(|t| t.is_ident && is_blessed(&t.text)) {
        return;
    }
    if fs.active(Rule::HashmapIterOrder, line) {
        out.push(fs.violation(Rule::HashmapIterOrder, line, col, token.to_string()));
    }
}

/// Error types whose struct-variant constructions must carry location
/// coordinates, with the field names that count as context. A hands-off
/// service diagnoses failures from the error value alone, so every typed
/// error names where it happened: dataflow errors carry (job, phase),
/// service errors carry (tenant, round).
pub const ERROR_CONTEXT_TYPES: [(&str, [&str; 2]); 2] = [
    ("DataflowError", ["job", "phase"]),
    ("ServeError", ["tenant", "round"]),
];

/// Scan `DataflowError::Variant { ... }` / `ServeError::Variant { ... }`
/// constructions for missing coordinates (see [`ERROR_CONTEXT_TYPES`]).
/// Match-arm *patterns* (span followed by `=>` or `=`) are exempt — the
/// rule is about constructing errors with context, not destructuring
/// them.
fn pass_error_context(fs: &FileScan, out: &mut Vec<Violation>) {
    let toks = &fs.lx.toks;
    for i in 0..toks.len() {
        let Some((ty, required)) = ERROR_CONTEXT_TYPES
            .iter()
            .find(|(ty, _)| toks[i].is(ty) && toks[i].is_ident)
        else {
            continue;
        };
        if !fs.lx.matches(i + 1, &[":", ":"]) {
            continue;
        }
        let Some(variant) = toks.get(i + 3).filter(|t| t.is_ident) else {
            continue;
        };
        if !toks.get(i + 4).is_some_and(|t| t.is("{")) {
            continue;
        }
        let close = fs.lx.matching_brace(i + 4);
        if toks
            .get(close + 1)
            .is_some_and(|t| t.is("=") || t.text == ">")
        {
            continue; // pattern position, not a construction
        }
        let body = &toks[i + 5..close];
        let has = |s: &str| body.iter().any(|t| t.is_ident && t.is(s));
        if !required.iter().all(|f| has(f)) && fs.active(Rule::ErrorContext, toks[i].line) {
            out.push(fs.violation(
                Rule::ErrorContext,
                toks[i].line,
                toks[i].col,
                format!("{ty}::{}", variant.text),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Lint one file's source under `rules` (normally [`rules_for`] its path).
pub fn scan_source(path: &Path, source: &str, rules: &[Rule]) -> Vec<Violation> {
    let mut out = Vec::new();
    if rules.is_empty() {
        return out;
    }
    let fs = FileScan::prepare(path.to_path_buf(), source, rules.to_vec());
    pass_hash_iteration(&fs, &mut out);
    pass_error_context(&fs, &mut out);
    out.sort_by_key(|v| (v.line, v.col, v.rule.name()));
    out
}

/// Recursively collect `.rs` files under `dir`, skipping test/bench/
/// example/fixture directories and anything outside library source.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP_DIRS: [&str; 5] = ["tests", "benches", "examples", "fixtures", "target"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every library source file under `<root>/crates/`.
///
/// `root` is the workspace root. Vendored stub crates (`vendor/`) are not
/// Falcon code and are not scanned.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let source = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        out.extend(scan_source(rel, &source, &rules_for(rel)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_path() -> PathBuf {
        PathBuf::from("crates/falcon-core/src/driver.rs")
    }

    #[test]
    fn cfg_test_module_is_skipped() {
        let src = concat!(
            "pub fn f() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n",
            "    fn e() -> DataflowError { DataflowError::PartitionMissing { partition: 3 } }\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_confuse_the_lexer() {
        let src = concat!(
            "pub fn f<'a>(s: &'a str, m: &HashMap<u32, u32>) -> &'a str {\n",
            "    let _ = r\"m.keys() DataflowError::PartitionMissing { }\";\n",
            "    let _c = '\\'';\n",
            "    s\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn windows_style_paths_select_the_same_rules() {
        let posix = PathBuf::from("crates/falcon-dataflow/src/runner.rs");
        let windows = PathBuf::from("crates\\falcon-dataflow\\src\\runner.rs");
        let dotted = PathBuf::from("./crates//falcon-dataflow/./src/runner.rs");
        assert_eq!(rules_for(&posix), ALL_RULES);
        assert_eq!(rules_for(&posix), rules_for(&windows));
        assert_eq!(rules_for(&posix), rules_for(&dotted));
        // The service crate owes error context only, whatever the separator.
        let w = PathBuf::from("crates\\falcon-serve\\src\\sched.rs");
        assert_eq!(rules_for(&w), [Rule::ErrorContext]);
    }

    #[test]
    fn hashmap_iteration_without_a_funnel_is_flagged() {
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n",
            "    m.values().copied().collect()\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashmapIterOrder);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn sorted_and_order_insensitive_hash_iteration_is_blessed() {
        // The idiomatic collect-then-sort shape: a `let` binding's span
        // extends one statement forward, so the sort is visible. The
        // order-insensitive `sum` over `usize` is blessed outright.
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: &HashMap<u32, u32>) -> (Vec<u32>, usize) {\n",
            "    let mut v: Vec<u32> = m.keys().copied().collect::<Vec<_>>();\n",
            "    v.sort_unstable();\n",
            "    let n: usize = m.values().map(|x| *x as usize).sum();\n",
            "    (v, n)\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert!(v.is_empty(), "{v:?}");
        // Collecting without sorting stays flagged: the binding escapes
        // in hash order.
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n",
            "    let v: Vec<u32> = m.keys().copied().collect::<Vec<_>>();\n",
            "    v\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashmapIterOrder);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn group_in_arrival_order_is_a_blessed_funnel() {
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: HashMap<u32, Vec<u32>>) -> Vec<(u32, Vec<u32>)> {\n",
            "    let mut out = Vec::new();\n",
            "    for (k, vs) in group_in_arrival_order(m.into_iter().collect()) { out.push((k, vs)); }\n",
            "    out\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_sum_over_hash_iteration_is_flagged_as_float_reduce() {
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: &HashMap<u32, f64>) -> f64 {\n",
            "    m.values().sum::<f64>()\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatReduceOrder);
        // Integer sums stay blessed.
        let src = concat!(
            "use std::collections::HashMap;\n",
            "pub fn f(m: &HashMap<u32, usize>) -> usize {\n",
            "    m.values().sum::<usize>()\n",
            "}\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn error_context_requires_job_and_phase() {
        let path = PathBuf::from("crates/falcon-dataflow/src/runner.rs");
        let src =
            "pub fn f() -> DataflowError { DataflowError::PartitionMissing { partition: 3 } }\n";
        let v = scan_source(&path, src, &rules_for(&path));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ErrorContext);
        assert_eq!(v[0].token, "DataflowError::PartitionMissing");
        let src = "pub fn f() -> DataflowError { DataflowError::PartitionMissing { job: 1, phase: Phase::Reduce, partition: 3 } }\n";
        let v = scan_source(&path, src, &rules_for(&path));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn error_context_skips_match_patterns() {
        let path = PathBuf::from("crates/falcon-dataflow/src/runner.rs");
        let src = concat!(
            "pub fn f(e: &DataflowError) -> usize {\n",
            "    match e {\n",
            "        DataflowError::PartitionMissing { partition, .. } => *partition,\n",
            "        _ => 0,\n",
            "    }\n",
            "}\n",
        );
        let v = scan_source(&path, src, &rules_for(&path));
        assert!(v.is_empty(), "{v:?}");
    }
}
