//! Syntax-aware invariant linter for the Falcon workspace.
//!
//! The paper's system is a *hands-off cloud service*: once a job is
//! submitted nobody watches a terminal, so a worker panic is an outage and
//! nondeterminism makes simulated-time experiments unreproducible. The
//! invariants are enforced mechanically over the library source by a
//! hand-rolled lexer ([`lexer`]) — token spans, `use`-path resolution and
//! per-function scopes, with comments, strings and `cfg(test)` regions
//! excluded:
//!
//! * **`no-panic`** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in operator
//!   (`falcon-core/src/ops/`), dataflow (`falcon-dataflow/src/`) or index
//!   (`falcon-index/src/`) library code. These paths run inside simulated
//!   cluster workers; a panic there kills a whole job.
//! * **`no-nondeterminism`** — no `thread_rng` / `from_entropy` /
//!   `SystemTime` / `RandomState` in `falcon-core`, `falcon-dataflow` or
//!   `falcon-index` library source, and no `env::var` / `env::var_os` in
//!   any library crate (all but `falcon-cli`, `falcon-bench` and
//!   `falcon-lint`). Identical inputs, config and seeds must give
//!   identical plans, candidates and timelines; a process-wide
//!   environment knob is none of the three.
//! * **`sim-time`** — `Instant::now` (including through `use ... as`
//!   renames) only inside `falcon-dataflow/src/sim_time.rs` and the
//!   `falcon-bench` harness. The one read there, `wall_now`, is private
//!   to `falcon-dataflow` and stamps `JobStats::wall` only: simulated
//!   durations are priced from records, and crate visibility — not this
//!   rule — keeps a measured `Duration` away from every timeline.
//! * **`wall-clock-retry`** — no wall-clock reads (`Instant::now`,
//!   `SystemTime::now`) in `falcon-dataflow` or `falcon-crowd` library
//!   code (`sim_time.rs` excepted). Retry backoff, speculation and crowd
//!   re-post latency must be charged to the *simulated* clock. On these
//!   paths `wall-clock-retry` takes precedence: a single wall-clock read
//!   reports exactly one rule.
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
//! * **`sim-time-transitive`** — the sim-time funnel holds *transitively*:
//!   a function that reaches `Instant::now` through any chain of calls to
//!   workspace functions is flagged at the call site, even when the read
//!   itself is one or more files away (call-graph-lite pass, keyed by
//!   function name).
//!
//! A violation can be waived with a `// falcon-lint: allow(<rule>)`
//! comment on the same line, or on its own line immediately above the
//! offending *statement* (the waiver extends to the end of that
//! statement, so multi-line call chains need only one directive).
//! Multiple rules may be waived at once: `allow(no-panic, sim-time)`.
//! Directives are read from comments only — `falcon-lint: allow(...)`
//! inside a string literal is data, not a waiver.

pub mod lexer;

use lexer::{FnDef, LexedFile};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// No panicking constructs in operator/dataflow/index library code.
    NoPanic,
    /// No nondeterminism sources in library code.
    NoNondeterminism,
    /// `Instant::now` only in `sim_time.rs` and the bench harness.
    SimTime,
    /// No wall-clock reads in the fault-tolerant retry/re-post paths
    /// (`falcon-dataflow`, `falcon-crowd`).
    WallClockRetry,
    /// Hash-container iteration must go through a deterministic funnel.
    HashmapIterOrder,
    /// No float accumulation over unordered hash iteration.
    FloatReduceOrder,
    /// `DataflowError` constructions must carry job/phase coordinates;
    /// `ServeError` constructions tenant/round.
    ErrorContext,
    /// The sim-time funnel holds through call chains.
    SimTimeTransitive,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::NoPanic,
    Rule::NoNondeterminism,
    Rule::SimTime,
    Rule::WallClockRetry,
    Rule::HashmapIterOrder,
    Rule::FloatReduceOrder,
    Rule::ErrorContext,
    Rule::SimTimeTransitive,
];

impl Rule {
    /// The rule's name as written in `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoNondeterminism => "no-nondeterminism",
            Rule::SimTime => "sim-time",
            Rule::WallClockRetry => "wall-clock-retry",
            Rule::HashmapIterOrder => "hashmap-iter-order",
            Rule::FloatReduceOrder => "float-reduce-order",
            Rule::ErrorContext => "error-context",
            Rule::SimTimeTransitive => "sim-time-transitive",
        }
    }

    /// Parse a rule name (as written in `allow(...)`).
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }
}

/// The wall-clock read needles shared by `sim-time` and
/// `wall-clock-retry`. A single site matching one of these reports
/// exactly one rule: `wall-clock-retry` on the retry path class
/// (`falcon-dataflow`, `falcon-crowd`), `sim-time` (for `Instant::now`)
/// or `no-nondeterminism` (for `SystemTime::now`) everywhere else.
pub const WALL_CLOCK_NEEDLES: [&str; 2] = ["Instant::now", "SystemTime::now"];

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
    let p = format!("{}/", norm(path)); // trailing slash so `ends_with` dirs match
    let p = p.as_str();
    let has = |frag: &str| p.contains(frag);
    let mut rules = Vec::new();
    if has("falcon-core/src/ops/") || has("falcon-dataflow/src/") || has("falcon-index/src/") {
        rules.push(Rule::NoPanic);
    }
    if !(has("falcon-cli/") || has("falcon-bench/") || has("falcon-lint/")) {
        rules.push(Rule::NoNondeterminism);
    }
    let sim_time_exempt = has("falcon-dataflow/src/sim_time.rs/") || has("falcon-bench/");
    if !sim_time_exempt {
        rules.push(Rule::SimTime);
    }
    if !sim_time_exempt && (has("falcon-dataflow/src/") || has("falcon-crowd/src/")) {
        rules.push(Rule::WallClockRetry);
    }
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
    if !sim_time_exempt {
        rules.push(Rule::SimTimeTransitive);
    }
    rules
}

/// One file handed to [`scan_files`].
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (selects the rule set).
    pub path: PathBuf,
    /// Full source text.
    pub source: String,
}

/// A prepared file: lexed source, active rules and per-line waivers.
struct FileScan {
    path: PathBuf,
    rules: Vec<Rule>,
    lx: LexedFile,
    /// Per 1-based line: rules waived on it.
    waived: HashMap<usize, Vec<Rule>>,
    /// 1-based `#[cfg(test)]` line ranges.
    test_ranges: Vec<(usize, usize)>,
    /// `use` alias map.
    aliases: HashMap<String, String>,
    /// Function scopes.
    fns: Vec<FnDef>,
}

impl FileScan {
    fn prepare(path: PathBuf, source: &str, rules: Vec<Rule>) -> FileScan {
        let lx = lexer::lex(source);
        let mut waived: HashMap<usize, Vec<Rule>> = HashMap::new();
        for c in &lx.comments {
            let allows = parse_allows(&c.text);
            if allows.is_empty() {
                continue;
            }
            waived.entry(c.line).or_default().extend(allows.clone());
            // A standalone directive (nothing but the comment on its
            // line) covers the following statement: every line until one
            // whose masked text contains `;`, `{` or `}`.
            let own_line = lx
                .masked_lines
                .get(c.line - 1)
                .is_some_and(|m| m.trim().is_empty());
            if own_line {
                for ln in (c.line + 1)..=lx.masked_lines.len() {
                    waived.entry(ln).or_default().extend(allows.clone());
                    let m = &lx.masked_lines[ln - 1];
                    if m.contains(';') || m.contains('{') || m.contains('}') {
                        break;
                    }
                }
            }
        }
        let test_ranges = lx.cfg_test_lines();
        let aliases = lx.use_aliases();
        let fns = lx.functions();
        FileScan {
            path,
            rules,
            lx,
            waived,
            test_ranges,
            aliases,
            fns,
        }
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }

    /// True when `rule` applies to this file and is not waived or inside
    /// a test region at `line`.
    fn active(&self, rule: Rule, line: usize) -> bool {
        self.rules.contains(&rule)
            && !self.in_test(line)
            && !self.waived.get(&line).is_some_and(|w| w.contains(&rule))
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

    /// Resolve the base of a `Base::now` path through `use` aliases to its
    /// final segment (`Instant`, `SystemTime`, ...).
    fn resolve_last(&self, base: &str) -> String {
        match self.aliases.get(base) {
            Some(full) => full.rsplit("::").next().unwrap_or(base).to_string(),
            None => base.to_string(),
        }
    }
}

/// Parse `falcon-lint: allow(a, b, ...)` directives out of comment text.
fn parse_allows(comment: &str) -> Vec<Rule> {
    let mut out = Vec::new();
    let Some(pos) = comment.find("falcon-lint:") else {
        return out;
    };
    let tail = &comment[pos + "falcon-lint:".len()..];
    let Some(open) = tail.find("allow(") else {
        return out;
    };
    let args = &tail[open + "allow(".len()..];
    let Some(close) = args.find(')') else {
        return out;
    };
    for name in args[..close].split(',') {
        if let Some(rule) = Rule::from_name(name.trim()) {
            if !out.contains(&rule) {
                out.push(rule);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Token-pattern passes
// ---------------------------------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const NONDET_IDENTS: [&str; 3] = ["thread_rng", "from_entropy", "RandomState"];
const ENV_READS: [&str; 2] = ["var", "var_os"];
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
/// Idents that look like calls but are control flow or constructors.
const NOT_CALLS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "Some", "Ok", "Err", "None",
];

fn is_blessed(text: &str) -> bool {
    BLESSED.contains(&text) || text.starts_with("sort")
}

/// Scan panic constructs.
fn pass_no_panic(fs: &FileScan, out: &mut Vec<Violation>) {
    let toks = &fs.lx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !fs.active(Rule::NoPanic, t.line) {
            continue;
        }
        if t.is(".") && fs.lx.matches(i + 1, &["unwrap", "(", ")"]) {
            out.push(fs.violation(
                Rule::NoPanic,
                toks[i + 1].line,
                toks[i + 1].col,
                ".unwrap()",
            ));
        } else if t.is(".") && fs.lx.matches(i + 1, &["expect", "("]) {
            out.push(fs.violation(Rule::NoPanic, toks[i + 1].line, toks[i + 1].col, ".expect("));
        } else if t.is_ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is("!"))
        {
            out.push(fs.violation(Rule::NoPanic, t.line, t.col, format!("{}!", t.text)));
        }
    }
}

/// Scan nondeterminism sources and wall-clock reads, with the
/// `wall-clock-retry` > `sim-time`/`no-nondeterminism` precedence.
fn pass_nondet_and_wall_clock(fs: &FileScan, out: &mut Vec<Violation>) {
    let toks = &fs.lx.toks;
    let on_retry_path = fs.rules.contains(&Rule::WallClockRetry);
    // `no-nondeterminism` covers every library crate for environment
    // reads; its entropy and `SystemTime` needles only these three.
    let p = norm(&fs.path);
    let entropy_scope = [
        "falcon-core/src/",
        "falcon-dataflow/src/",
        "falcon-index/src/",
    ]
    .iter()
    .any(|frag| p.contains(frag));
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident {
            continue;
        }
        // `env::var` / `env::var_os`: through the module (or a rename of
        // it), or a call of the function imported by name.
        let env_read = ENV_READS.iter().find(|f| {
            (fs.resolve_last(&t.text) == "env" && fs.lx.matches(i + 1, &[":", ":", f]))
                || (toks.get(i + 1).is_some_and(|n| n.is("("))
                    && fs
                        .aliases
                        .get(&t.text)
                        .is_some_and(|full| full.ends_with(&format!("env::{f}"))))
        });
        if let Some(f) = env_read {
            if fs.active(Rule::NoNondeterminism, t.line) {
                out.push(fs.violation(Rule::NoNondeterminism, t.line, t.col, format!("env::{f}")));
            }
            continue;
        }
        // `Base::now` with Base resolving to Instant / SystemTime.
        let is_now_path = fs.lx.matches(i + 1, &[":", ":", "now"]);
        if is_now_path {
            let last = fs.resolve_last(&t.text);
            let needle = match last.as_str() {
                "Instant" => Some("Instant::now"),
                "SystemTime" => Some("SystemTime::now"),
                _ => None,
            };
            if let Some(needle) = needle {
                let rule = if on_retry_path {
                    Rule::WallClockRetry
                } else if needle == "Instant::now" {
                    Rule::SimTime
                } else {
                    Rule::NoNondeterminism
                };
                let in_scope = rule != Rule::NoNondeterminism || entropy_scope;
                if in_scope && fs.active(rule, t.line) {
                    out.push(fs.violation(rule, t.line, t.col, needle));
                }
                continue; // exactly one rule per wall-clock read
            }
        }
        if !entropy_scope {
            continue;
        }
        if NONDET_IDENTS.contains(&t.text.as_str()) && fs.active(Rule::NoNondeterminism, t.line) {
            out.push(fs.violation(Rule::NoNondeterminism, t.line, t.col, t.text.clone()));
        } else if t.is("SystemTime") && !is_now_path && fs.active(Rule::NoNondeterminism, t.line) {
            out.push(fs.violation(Rule::NoNondeterminism, t.line, t.col, "SystemTime"));
        }
    }
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

/// Unwaived wall-clock read token indices in a file (taint sources for
/// the transitive pass). Reads inside `cfg(test)` or waived lines are
/// sanctioned and do not taint.
fn wall_clock_reads(fs: &FileScan) -> Vec<usize> {
    let toks = &fs.lx.toks;
    let mut reads = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident && fs.lx.matches(i + 1, &[":", ":", "now"])) {
            continue;
        }
        let last = fs.resolve_last(&t.text);
        if last != "Instant" && last != "SystemTime" {
            continue;
        }
        if fs.in_test(t.line) {
            continue;
        }
        let waived = fs.waived.get(&t.line).is_some_and(|w| {
            w.contains(&Rule::SimTime)
                || w.contains(&Rule::WallClockRetry)
                || w.contains(&Rule::NoNondeterminism)
        });
        if !waived {
            reads.push(i);
        }
    }
    reads
}

/// The call-graph-lite transitive sim-time pass over a set of prepared
/// files: functions containing an unwaived wall-clock read taint their
/// (transitive) callers; every call to a tainted function is flagged.
fn pass_sim_time_transitive(files: &[FileScan], out: &mut Vec<Violation>) {
    // Taint roots: functions with a direct read, in files where the
    // sim-time funnel applies (sim_time.rs and falcon-bench are exempt
    // and never taint — `wall_now` is the funnel the dataflow runner
    // calls).
    let mut tainted: HashSet<String> = HashSet::new();
    for fs in files {
        if !fs.rules.contains(&Rule::SimTime) && !fs.rules.contains(&Rule::WallClockRetry) {
            continue;
        }
        let reads = wall_clock_reads(fs);
        for f in &fs.fns {
            if reads.iter().any(|&r| r > f.body.0 && r < f.body.1) {
                tainted.insert(f.name.clone());
            }
        }
    }

    // Call edges: (file idx, caller fn idx, callee name, call token idx).
    let mut edges: Vec<(usize, usize, String, usize)> = Vec::new();
    for (fi, fs) in files.iter().enumerate() {
        let toks = &fs.lx.toks;
        for (gi, f) in fs.fns.iter().enumerate() {
            for k in (f.body.0 + 1)..f.body.1 {
                let t = &toks[k];
                if !(t.is_ident && toks.get(k + 1).is_some_and(|n| n.is("("))) {
                    continue;
                }
                if NOT_CALLS.contains(&t.text.as_str()) {
                    continue;
                }
                if k > 0 && toks[k - 1].is("fn") {
                    continue; // nested fn definition, not a call
                }
                // `Instant::now()` / `SystemTime::now()` is the direct
                // read (already its own violation), not a workspace call.
                if t.is("now")
                    && k >= 3
                    && toks[k - 1].is(":")
                    && toks[k - 2].is(":")
                    && matches!(
                        fs.resolve_last(&toks[k - 3].text).as_str(),
                        "Instant" | "SystemTime"
                    )
                {
                    continue;
                }
                edges.push((fi, gi, t.text.clone(), k));
            }
        }
    }

    // Propagate taint to callers until fixpoint.
    loop {
        let mut changed = false;
        for (fi, gi, callee, _) in &edges {
            if tainted.contains(callee) {
                let caller = &files[*fi].fns[*gi].name;
                if !tainted.contains(caller) {
                    tainted.insert(caller.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for (fi, _, callee, k) in &edges {
        let fs = &files[*fi];
        if !tainted.contains(callee) {
            continue;
        }
        let t = &fs.lx.toks[*k];
        if fs.active(Rule::SimTimeTransitive, t.line) {
            out.push(fs.violation(
                Rule::SimTimeTransitive,
                t.line,
                t.col,
                format!("{callee}() reaches Instant::now"),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

fn scan_prepared(files: &[FileScan]) -> Vec<Violation> {
    let mut out = Vec::new();
    for fs in files {
        if fs.rules.is_empty() {
            continue;
        }
        pass_no_panic(fs, &mut out);
        pass_nondet_and_wall_clock(fs, &mut out);
        pass_hash_iteration(fs, &mut out);
        pass_error_context(fs, &mut out);
    }
    pass_sim_time_transitive(files, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    out
}

/// Lint a set of files together (rule sets derived from each path). The
/// transitive sim-time pass sees the whole set, so a function calling a
/// wall-clock reader in another file is still flagged.
pub fn scan_files(files: &[SourceFile]) -> Vec<Violation> {
    let prepared: Vec<FileScan> = files
        .iter()
        .map(|f| FileScan::prepare(f.path.clone(), &f.source, rules_for(&f.path)))
        .collect();
    scan_prepared(&prepared)
}

/// Lint one file's source under the rules its path selects (or an
/// explicit rule set). Cross-file taint is invisible here; use
/// [`scan_files`] / [`scan_workspace`] for the workspace-wide pass.
pub fn scan_source(path: &Path, source: &str, rules: &[Rule]) -> Vec<Violation> {
    let fs = FileScan::prepare(path.to_path_buf(), source, rules.to_vec());
    scan_prepared(std::slice::from_ref(&fs))
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
    let crates = root.join("crates");
    let mut paths = Vec::new();
    collect_rs(&crates, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let source = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        files.push(SourceFile {
            path: rel.to_path_buf(),
            source,
        });
    }
    Ok(scan_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_path() -> PathBuf {
        PathBuf::from("crates/falcon-core/src/ops/example.rs")
    }

    fn core_path() -> PathBuf {
        PathBuf::from("crates/falcon-core/src/driver.rs")
    }

    #[test]
    fn unwrap_in_operator_code_is_flagged() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanic);
        assert_eq!(v[0].line, 2);
        assert!(v[0].col > 0);
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        let src = concat!(
            "// calls .unwrap() somewhere\n",
            "/* panic! inside\n   block comment */\n",
            "pub fn f() -> &'static str {\n",
            "    \".unwrap() and panic! in a string\"\n",
            "}\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_and_expect_err_are_not_flagged() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_module_is_skipped() {
        let src = concat!(
            "pub fn f() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { Some(1).unwrap(); panic!(\"x\") }\n",
            "}\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn same_line_allow_directive_waives() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // falcon-lint: allow(no-panic)\n}\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn standalone_allow_covers_the_following_statement() {
        let src = concat!(
            "pub fn f(x: Option<u32>) -> u32 {\n",
            "    // falcon-lint: allow(no-panic)\n",
            "    x\n",
            "        .unwrap()\n",
            "}\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn multi_rule_waiver_on_one_line() {
        let src = "pub fn f() -> u32 { let _ = std::time::Instant::now(); Some(1).unwrap() } // falcon-lint: allow(no-panic, sim-time)\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
        // ... and the multi-rule form still only waives what it names.
        let src = "pub fn f() -> u32 { let _ = rand::thread_rng(); Some(1).unwrap() } // falcon-lint: allow(no-panic, sim-time)\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoNondeterminism);
    }

    #[test]
    fn waiver_inside_a_string_literal_does_not_apply() {
        let src = concat!(
            "pub fn f(x: Option<u32>) -> u32 {\n",
            "    let _note = \"falcon-lint: allow(no-panic)\";\n",
            "    x.unwrap()\n",
            "}\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoPanic);
        // Same line as the violation: still not a waiver.
        let src = "pub fn f(x: Option<u32>) -> u32 { let _ = \"falcon-lint: allow(no-panic)\"; x.unwrap() }\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn allow_for_one_rule_does_not_waive_another() {
        let src =
            "pub fn f() { let _ = std::time::Instant::now(); } // falcon-lint: allow(no-panic)\n";
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SimTime);
    }

    #[test]
    fn nondeterminism_tokens_flagged_in_core_but_not_elsewhere() {
        let src = "pub fn f() { let _ = rand::thread_rng(); }\n";
        let core = core_path();
        let v = scan_source(&core, src, &rules_for(&core));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoNondeterminism);
        // The CLI crate is not under the determinism contract.
        let cli = PathBuf::from("crates/falcon-cli/src/main.rs");
        let v = scan_source(&cli, src, &rules_for(&cli));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn env_reads_flagged_in_every_library_crate() {
        let table = PathBuf::from("crates/falcon-table/src/table.rs");
        for (src, token) in [
            ("pub fn f() { let _ = std::env::var(\"X\"); }\n", "env::var"),
            (
                "use std::env;\npub fn f() { let _ = env::var_os(\"X\"); }\n",
                "env::var_os",
            ),
            (
                "use std::env as e;\npub fn f() { let _ = e::var(\"X\"); }\n",
                "env::var",
            ),
            (
                "use std::env::{var as getenv};\npub fn f() { let _ = getenv(\"X\"); }\n",
                "env::var",
            ),
        ] {
            let v = scan_source(&table, src, &rules_for(&table));
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, Rule::NoNondeterminism);
            assert_eq!(v[0].token, token);
            for exempt in [
                "falcon-cli/src/main.rs",
                "falcon-bench/src/lib.rs",
                "falcon-lint/src/main.rs",
            ] {
                let path = PathBuf::from("crates").join(exempt);
                assert!(
                    scan_source(&path, src, &rules_for(&path)).is_empty(),
                    "{exempt}"
                );
            }
        }
        // Other `env` items and the entropy needles keep their scope.
        let fine = "pub fn f() { let _ = (std::env::temp_dir(), rand::thread_rng()); let _ = std::time::SystemTime::now(); }\n";
        assert!(scan_source(&table, fine, &rules_for(&table))
            .iter()
            .all(|v| v.rule != Rule::NoNondeterminism));
        let waived = "pub fn f() { let _ = std::env::var(\"X\"); } // falcon-lint: allow(no-nondeterminism)\n";
        assert!(scan_source(&table, waived, &rules_for(&table)).is_empty());
    }

    #[test]
    fn sim_time_exemptions_hold() {
        let src = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
        let sanctioned = PathBuf::from("crates/falcon-dataflow/src/sim_time.rs");
        assert!(scan_source(&sanctioned, src, &rules_for(&sanctioned)).is_empty());
        let bench = PathBuf::from("crates/falcon-bench/src/lib.rs");
        assert!(scan_source(&bench, src, &rules_for(&bench)).is_empty());
        let elsewhere = PathBuf::from("crates/falcon-table/src/lib.rs");
        let v = scan_source(&elsewhere, src, &rules_for(&elsewhere));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SimTime);
    }

    #[test]
    fn use_alias_of_instant_is_still_a_wall_clock_read() {
        let src = concat!(
            "use std::time::Instant as Clock;\n",
            "pub fn f() -> Clock { Clock::now() }\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SimTime);
        assert_eq!(v[0].token, "Instant::now");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn wall_clock_reads_in_retry_paths_report_exactly_one_rule() {
        // The precedence contract (shared WALL_CLOCK_NEEDLES): on the
        // retry path class a read is wall-clock-retry, and neither
        // sim-time nor no-nondeterminism double-report it.
        let dataflow = PathBuf::from("crates/falcon-dataflow/src/runner.rs");
        for needle in ["Instant", "SystemTime"] {
            let src = format!("pub fn f() {{ let _ = std::time::{needle}::now(); }}\n");
            let v = scan_source(&dataflow, &src, &rules_for(&dataflow));
            assert_eq!(v.len(), 1, "{needle}: {v:?}");
            assert_eq!(v[0].rule, Rule::WallClockRetry, "{needle}");
        }
        // Off the retry path, Instant::now is sim-time and
        // SystemTime::now is no-nondeterminism — still one rule each.
        let core = core_path();
        let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
        let v = scan_source(&core, src, &rules_for(&core));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SimTime);
        let src = "pub fn f() { let _ = std::time::SystemTime::now(); }\n";
        let v = scan_source(&core, src, &rules_for(&core));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoNondeterminism);
    }

    #[test]
    fn wall_clock_retry_is_waivable() {
        let crowd = PathBuf::from("crates/falcon-crowd/src/vote.rs");
        let waived = "pub fn deadline() -> std::time::SystemTime { std::time::SystemTime::now() } // falcon-lint: allow(wall-clock-retry)\n";
        assert!(scan_source(&crowd, waived, &rules_for(&crowd)).is_empty());
        let core = core_path();
        assert!(!rules_for(&core).contains(&Rule::WallClockRetry));
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_confuse_the_lexer() {
        let src = concat!(
            "pub fn f<'a>(s: &'a str) -> &'a str {\n",
            "    let _ = r\"panic! .unwrap()\";\n",
            "    let _c = '\\'';\n",
            "    s\n",
            "}\n",
        );
        let v = scan_source(&ops_path(), src, &rules_for(&ops_path()));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn windows_style_paths_select_the_same_rules() {
        let posix = PathBuf::from("crates/falcon-dataflow/src/runner.rs");
        let windows = PathBuf::from("crates\\falcon-dataflow\\src\\runner.rs");
        let dotted = PathBuf::from("./crates//falcon-dataflow/./src/runner.rs");
        assert_eq!(rules_for(&posix), rules_for(&windows));
        assert_eq!(rules_for(&posix), rules_for(&dotted));
        // The sim_time.rs exemption also canonicalizes.
        let w = PathBuf::from("crates\\falcon-dataflow\\src\\sim_time.rs");
        assert!(!rules_for(&w).contains(&Rule::SimTime));
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

    #[test]
    fn transitive_sim_time_is_flagged_through_indirection() {
        let src = concat!(
            "pub fn hidden() -> std::time::Instant { std::time::Instant::now() }\n",
            "pub fn caller() { let _ = hidden(); }\n",
            "pub fn outer() { caller(); }\n",
        );
        let v = scan_source(&core_path(), src, &rules_for(&core_path()));
        let direct: Vec<_> = v.iter().filter(|v| v.rule == Rule::SimTime).collect();
        let transitive: Vec<_> = v
            .iter()
            .filter(|v| v.rule == Rule::SimTimeTransitive)
            .collect();
        assert_eq!(direct.len(), 1, "{v:?}");
        assert_eq!(transitive.len(), 2, "{v:?}"); // caller→hidden, outer→caller
        assert_eq!(transitive[0].line, 2);
        assert_eq!(transitive[1].line, 3);
    }

    #[test]
    fn transitive_sim_time_sees_across_files() {
        let files = [
            SourceFile {
                path: PathBuf::from("crates/falcon-core/src/a.rs"),
                source: "pub fn read_clock() -> std::time::Instant { std::time::Instant::now() }\n"
                    .into(),
            },
            SourceFile {
                path: PathBuf::from("crates/falcon-core/src/b.rs"),
                source: "pub fn indirect() { let _ = read_clock(); }\n".into(),
            },
        ];
        let v = scan_files(&files);
        assert!(
            v.iter().any(|v| v.rule == Rule::SimTimeTransitive
                && v.file.ends_with("b.rs")
                && v.token.contains("read_clock")),
            "{v:?}"
        );
    }

    #[test]
    fn calls_to_the_sanctioned_funnel_do_not_taint() {
        // The crate-private wall_now lives in sim_time.rs, which is
        // exempt: its one caller, the runner, is clean even though the
        // funnel's body reads the wall clock.
        let files = [
            SourceFile {
                path: PathBuf::from("crates/falcon-dataflow/src/sim_time.rs"),
                source:
                    "pub(crate) fn wall_now() -> std::time::Instant { std::time::Instant::now() }\n"
                        .into(),
            },
            SourceFile {
                path: PathBuf::from("crates/falcon-dataflow/src/runner.rs"),
                source: "pub fn timed() { let _ = wall_now(); }\n".into(),
            },
        ];
        let v = scan_files(&files);
        assert!(v.is_empty(), "{v:?}");
    }
}
