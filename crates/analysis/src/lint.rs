//! The determinism lint: a hand-rolled, workspace-aware source scanner
//! enforcing the repo-specific rules that keep mapping output byte-identical
//! (DESIGN.md "Determinism policy" and §7).
//!
//! # Rules
//!
//! | id | rule |
//! |----|------|
//! | D1 | no unordered iteration over `HashMap`/`HashSet` (`for`, `.iter()`, `.keys()`, `.values()`, `.drain()`, …) — point lookups are fine |
//! | D2 | no `Instant::now`/`SystemTime`/`thread::current().id()` on algorithmic paths (timing is confined to `crates/bench/`) |
//! | D3 | no `f32`/`f64` arithmetic inside the exact paths (`crates/algebra/src/`, `crates/numeric/src/`) |
//! | D4 | every `unsafe` block carries a `// SAFETY:` comment |
//! | D5 | no `std::env::var` outside `crates/bench/` (the designated bench-config reader) |
//! | D6 | no direct trace-recorder/collector construction outside `crates/trace/` and the engine's batch/pool entry points — instrumentation goes through the `trace_event!`/`trace_span!`/`trace_sched!` macros |
//!
//! Violations are suppressed with a **mandatory-reason** escape hatch:
//!
//! * `lint:allow(Dn): why` in a comment trailing the offending line (or on
//!   the comment line directly above it) suppresses rule `Dn` on that line;
//! * `lint:allow-file(Dn): why` anywhere in a file suppresses the rule for
//!   the whole file (used for the float-boundary modules whose entire job
//!   is `f64` conversion).
//!
//! The hatch is itself linted: an allow without a reason is `A1`, an allow
//! that suppresses nothing (stale) is `A2`, and an allow naming an unknown
//! rule is `A3`. Meta-diagnostics cannot be allowed away.
//!
//! # Soundness and limits
//!
//! This is a line/token scanner, not a compiler plugin — deliberately, so it
//! runs with zero dependencies and no nightly. Comments, string/char
//! literals (including raw strings) are stripped with a real state machine
//! before matching, so prose never trips a rule. The remaining limits are
//! documented in DESIGN.md §7: D1 tracks hash-typed names *per file* (a
//! `HashMap` smuggled across a file boundary behind a bare type alias is
//! missed; a non-hash field that shares a flagged field's name is
//! over-flagged — the escape hatch is the pressure valve), D2/D5 match
//! rustfmt-normalized spellings, and macro-generated code is not expanded.

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A determinism rule (or meta-rule) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered iteration over a hash-keyed container.
    D1,
    /// Wall-clock / thread-identity read on an algorithmic path.
    D2,
    /// Float arithmetic inside an exact-algebra module.
    D3,
    /// `unsafe` block without a `// SAFETY:` comment.
    D4,
    /// Environment read outside a config/CI-switch site.
    D5,
    /// Direct trace-recorder use outside the trace crate / engine entry
    /// points.
    D6,
    /// `lint:allow` without a reason.
    A1,
    /// Stale `lint:allow` (suppresses nothing).
    A2,
    /// `lint:allow` naming an unknown rule.
    A3,
}

impl Rule {
    /// The short id used in diagnostics and allow directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
        }
    }

    /// Parses a *suppressible* rule id (the `Dn` rules only — the `An`
    /// meta-diagnostics cannot be allowed away).
    pub fn parse_allowable(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            _ => None,
        }
    }
}

/// Path prefixes (root-relative, forward slashes) a rule is confined to.
/// Empty means the rule applies to the whole tree.
fn applies_under(rule: Rule) -> &'static [&'static str] {
    match rule {
        Rule::D3 => &["crates/algebra/src/", "crates/numeric/src/"],
        _ => &[],
    }
}

/// Path prefixes exempt from a rule *without* an annotation: the bench crate
/// is the designated home of timing (`D2`) and of the `SYMMAP_QUICK` /
/// `SYMMAP_BENCH_*` CI-switch reads (`D5`).
fn allowed_under(rule: Rule) -> &'static [&'static str] {
    match rule {
        Rule::D2 | Rule::D5 => &["crates/bench/"],
        // The trace crate implements the recorder; the engine's batch module
        // owns the collector lifecycle and the pool→sched adapter, and the
        // pool defines the observer hook. Everyone else uses the macros.
        Rule::D6 => &[
            "crates/trace/",
            "crates/engine/src/batch.rs",
            "crates/engine/src/pool.rs",
        ],
        _ => &[],
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the match.
    pub column: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule.id(), self.message)?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.column)
    }
}

impl Diagnostic {
    /// The diagnostic as one JSON object (hand-rolled; the lint takes no
    /// dependencies, serde included).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":"{}","line":{},"column":{},"rule":"{}","message":"{}"}}"#,
            json_escape(&self.path),
            self.line,
            self.column,
            self.rule.id(),
            json_escape(&self.message)
        )
    }
}

/// Renders a diagnostic list as a JSON array.
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source stripping: comments and literals out, columns preserved.
// ---------------------------------------------------------------------------

/// A source file with literals and comments blanked out of the code view and
/// comment text collected per line (for `SAFETY:` and `lint:allow` parsing).
/// Stripped bytes are replaced by spaces so columns in diagnostics match the
/// original source.
#[derive(Debug)]
struct Stripped {
    /// Code with comments/strings/chars blanked, one entry per source line.
    code: Vec<String>,
    /// Concatenated comment text per line (empty when the line has none).
    comments: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StripState {
    Code,
    LineComment,
    /// Block comment with nesting depth.
    BlockComment(u32),
    /// String literal; the flag records a pending backslash escape.
    Str {
        escaped: bool,
    },
    /// Raw string literal closed by `"` followed by this many `#`s.
    RawStr {
        hashes: u32,
    },
    /// Char literal; the flag records a pending backslash escape.
    Char {
        escaped: bool,
    },
}

fn strip(source: &str) -> Stripped {
    let bytes = source.as_bytes();
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = StripState::Code;
    let mut i = 0;

    // Treats the source as bytes: every delimiter that matters is ASCII, and
    // non-ASCII bytes inside literals/comments are copied or blanked as-is.
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            if state == StripState::LineComment {
                state = StripState::Code;
            }
            i += 1;
            continue;
        }
        match state {
            StripState::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = StripState::LineComment;
                    code_line.push_str("  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = StripState::BlockComment(1);
                    code_line.push_str("  ");
                    i += 2;
                } else if b == b'"' {
                    state = StripState::Str { escaped: false };
                    code_line.push(' ');
                    i += 1;
                } else if let Some(hashes) = raw_string_open(bytes, i) {
                    // `r"`, `r#"`, `br##"` … — blank the whole opener.
                    let opener = 1 + usize::from(bytes[i] == b'b') + hashes as usize + 1;
                    state = StripState::RawStr { hashes };
                    for _ in 0..opener {
                        code_line.push(' ');
                    }
                    i += opener;
                } else if b == b'\'' && char_literal_opens(bytes, i) {
                    state = StripState::Char { escaped: false };
                    code_line.push(' ');
                    i += 1;
                } else {
                    code_line.push(b as char);
                    i += 1;
                }
            }
            StripState::LineComment => {
                comment_line.push(b as char);
                code_line.push(' ');
                i += 1;
            }
            StripState::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        StripState::Code
                    } else {
                        StripState::BlockComment(depth - 1)
                    };
                    code_line.push_str("  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = StripState::BlockComment(depth + 1);
                    code_line.push_str("  ");
                    i += 2;
                } else {
                    comment_line.push(b as char);
                    code_line.push(' ');
                    i += 1;
                }
            }
            StripState::Str { escaped } => {
                if escaped {
                    state = StripState::Str { escaped: false };
                } else if b == b'\\' {
                    state = StripState::Str { escaped: true };
                } else if b == b'"' {
                    state = StripState::Code;
                }
                code_line.push(' ');
                i += 1;
            }
            StripState::RawStr { hashes } => {
                if b == b'"' && raw_string_closes(bytes, i, hashes) {
                    state = StripState::Code;
                    for _ in 0..=hashes {
                        code_line.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            StripState::Char { escaped } => {
                if escaped {
                    state = StripState::Char { escaped: false };
                } else if b == b'\\' {
                    state = StripState::Char { escaped: true };
                } else if b == b'\'' {
                    state = StripState::Code;
                }
                code_line.push(' ');
                i += 1;
            }
        }
    }
    code.push(code_line);
    comments.push(comment_line);
    Stripped { code, comments }
}

/// Does a raw string literal (`r"`, `r#"`, `br"`, …) open at `i`? Returns
/// the number of `#`s. Guards against the `r`/`b` being the tail of an
/// identifier (`var"` is not a raw string).
fn raw_string_open(bytes: &[u8], i: usize) -> Option<u32> {
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

fn raw_string_closes(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Distinguishes a char literal from a lifetime: `'x'` and `'\n'` open a
/// literal; `'a` in `<'a>` does not.
fn char_literal_opens(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

// ---------------------------------------------------------------------------
// Tokenizer (runs on stripped code lines).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// Numeric literal; `true` when it is a float literal.
    Num {
        float: bool,
    },
    /// `::`
    PathSep,
    Punct(char),
}

/// A token plus its 0-based byte column.
type SpannedTok = (usize, Tok);

fn tokenize(line: &str) -> Vec<SpannedTok> {
    let bytes = line.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push((start, Tok::Ident(line[start..i].to_string())));
        } else if b.is_ascii_digit() {
            let start = i;
            let mut float = false;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                // `0x…`/suffixes ride along; `e`/`E` exponents only count as
                // float when followed by a digit or sign (so `0xE` stays int).
                if (bytes[i] == b'e' || bytes[i] == b'E')
                    && !line[start..].starts_with("0x")
                    && matches!(bytes.get(i + 1), Some(c) if c.is_ascii_digit() || *c == b'+' || *c == b'-')
                {
                    float = true;
                    i += 2;
                    continue;
                }
                i += 1;
            }
            // A `.` continues the literal as a float only when not a range
            // (`0..n`) and not a method call (`1.max(2)`).
            if i < bytes.len() && bytes[i] == b'.' {
                match bytes.get(i + 1) {
                    Some(c) if c.is_ascii_digit() => {
                        float = true;
                        i += 1;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                    }
                    // `0..n` range, or a method call like `1.max(2)`.
                    Some(&b'.') => {}
                    Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {}
                    _ => {
                        // Trailing-dot float (`1.`).
                        float = true;
                        i += 1;
                    }
                }
            }
            toks.push((start, Tok::Num { float }));
        } else if b == b':' && bytes.get(i + 1) == Some(&b':') {
            toks.push((i, Tok::PathSep));
            i += 2;
        } else {
            toks.push((i, Tok::Punct(b as char)));
            i += 1;
        }
    }
    toks
}

fn ident_at(toks: &[SpannedTok], idx: usize) -> Option<&str> {
    match toks.get(idx) {
        Some((_, Tok::Ident(s))) => Some(s),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Allow directives.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct AllowDirective {
    rule: Option<Rule>,
    /// Raw rule text, for the unknown-rule diagnostic.
    rule_text: String,
    has_reason: bool,
    file_level: bool,
    /// 0-based line the directive was written on.
    at_line: usize,
    /// 0-based line the directive suppresses (ignored when `file_level`).
    target_line: usize,
    /// 1-based column of the directive within its line.
    column: usize,
    used: bool,
}

/// Parses every `lint:allow(…)` / `lint:allow-file(…)` directive out of the
/// per-line comment text. A directive on a comment-only line targets the
/// next line that carries code.
fn parse_allows(stripped: &Stripped) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (line_idx, comment) in stripped.comments.iter().enumerate() {
        let mut search_from = 0;
        while let Some(found) = comment[search_from..].find("lint:allow") {
            let at = search_from + found;
            let mut rest = &comment[at + "lint:allow".len()..];
            let file_level = rest.starts_with("-file");
            if file_level {
                rest = &rest["-file".len()..];
            }
            search_from = at + "lint:allow".len();
            let Some(inner) = rest.strip_prefix('(') else {
                continue;
            };
            let Some(close) = inner.find(')') else {
                continue;
            };
            let rule_text = inner[..close].trim().to_string();
            // Only id-shaped text (an uppercase letter plus digits) is a
            // directive; prose like "lint:allow(rule)" in documentation is
            // not. Typos within the shape (e.g. a nonexistent D-number)
            // still reach the unknown-rule diagnostic below.
            let id_shaped = {
                let mut chars = rule_text.chars();
                chars.next().is_some_and(|c| c.is_ascii_uppercase())
                    && rule_text.len() > 1
                    && chars.all(|c| c.is_ascii_digit())
            };
            if !id_shaped {
                continue;
            }
            let after = inner[close + 1..].trim_start();
            let has_reason = after
                .strip_prefix(':')
                .is_some_and(|r| !r.trim().is_empty());
            let target_line = if stripped.code[line_idx].trim().is_empty() {
                // Comment-only line: the directive covers the next code line.
                (line_idx + 1..stripped.code.len())
                    .find(|&l| !stripped.code[l].trim().is_empty())
                    .unwrap_or(line_idx)
            } else {
                line_idx
            };
            out.push(AllowDirective {
                rule: Rule::parse_allowable(&rule_text),
                rule_text,
                has_reason,
                file_level,
                at_line: line_idx,
                target_line,
                column: at + 1,
                used: false,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

/// Iteration methods that expose hash-container order (point lookups like
/// `.get`, `.entry`, `.contains_key`, `.remove` are deliberately absent).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Pass 1 of D1: names declared (in this file) with a hash-container type.
/// Seeds with the container names themselves and grows through `type`
/// aliases, `let` bindings, and `name: Type` field/param declarations.
fn collect_hash_names(code_lines: &[String]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = ["HashMap", "HashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Two sweeps so a type alias declared after its first field use still
    // taints that field (file order is not declaration order in Rust).
    for _ in 0..2 {
        for line in code_lines {
            let toks = tokenize(line);
            let hash_positions: Vec<usize> = toks
                .iter()
                .enumerate()
                .filter_map(|(i, (_, t))| match t {
                    Tok::Ident(s) if names.contains(s) => Some(i),
                    _ => None,
                })
                .collect();
            if hash_positions.is_empty() {
                continue;
            }
            // `type Alias = …Hash…;`
            if ident_at(&toks, 0) == Some("type") {
                if let Some(alias) = ident_at(&toks, 1) {
                    names.insert(alias.to_string());
                    continue;
                }
            }
            for &hp in &hash_positions {
                // `let [mut] name … = …Hash…` — the binding is hash-typed.
                let let_pos = toks[..hp]
                    .iter()
                    .position(|(_, t)| matches!(t, Tok::Ident(s) if s == "let"));
                if let Some(lp) = let_pos {
                    let mut n = lp + 1;
                    if ident_at(&toks, n) == Some("mut") {
                        n += 1;
                    }
                    if let Some(name) = ident_at(&toks, n) {
                        names.insert(name.to_string());
                        continue;
                    }
                }
                // `name: …Hash…` (struct field, fn param) — scan back from
                // the container token for the nearest single `:` and take the
                // identifier before it.
                for k in (0..hp).rev() {
                    match &toks[k].1 {
                        Tok::Punct(':') => {
                            if let Some(name) = ident_at(&toks, k.wrapping_sub(1)) {
                                names.insert(name.to_string());
                            }
                            break;
                        }
                        // A statement/field boundary before any `:` means the
                        // container appears in expression position.
                        Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                        _ => {}
                    }
                }
            }
        }
    }
    names
}

fn check_d1(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    let hash_names = collect_hash_names(&stripped.code);
    for (line_idx, line) in stripped.code.iter().enumerate() {
        let toks = tokenize(line);
        // `<recv>.method(` where method exposes iteration order.
        for i in 0..toks.len() {
            if let Tok::Ident(m) = &toks[i].1 {
                if ITER_METHODS.contains(&m.as_str())
                    && matches!(toks.get(i + 1), Some((_, Tok::Punct('('))))
                    && matches!(toks.get(i.wrapping_sub(1)), Some((_, Tok::Punct('.'))))
                {
                    if let Some(recv) = ident_at(&toks, i.wrapping_sub(2)) {
                        if hash_names.contains(recv) {
                            out.push(Diagnostic {
                                path: path.to_string(),
                                line: line_idx + 1,
                                column: toks[i].0 + 1,
                                rule: Rule::D1,
                                message: format!(
                                    "unordered iteration: `.{m}()` on hash-keyed `{recv}` \
                                     (use a BTreeMap/BTreeSet, sort explicitly, or justify \
                                     order-freedom with lint:allow)"
                                ),
                            });
                        }
                    }
                }
            }
        }
        // `for … in [&[mut]] <path-ending-in-hash-name> {`
        if let Some(for_pos) = toks
            .iter()
            .position(|(_, t)| matches!(t, Tok::Ident(s) if s == "for"))
        {
            if let Some(in_pos) = toks[for_pos..]
                .iter()
                .position(|(_, t)| matches!(t, Tok::Ident(s) if s == "in"))
                .map(|p| p + for_pos)
            {
                // Tokens between `in` and the loop body's `{`.
                let mut expr: Vec<&Tok> = Vec::new();
                for st in &toks[in_pos + 1..] {
                    if matches!(st.1, Tok::Punct('{')) {
                        break;
                    }
                    expr.push(&st.1);
                }
                // Strip leading `&`/`mut`/`*`, require a pure path (no
                // calls: a call's order is the callee's business, caught at
                // its `.iter()` site), and test the final segment.
                let mut start = 0;
                while start < expr.len() {
                    let skip = match expr[start] {
                        Tok::Punct('&') | Tok::Punct('*') => true,
                        Tok::Ident(s) => s == "mut",
                        _ => false,
                    };
                    if !skip {
                        break;
                    }
                    start += 1;
                }
                let expr = &expr[start..];
                let pure_path = !expr.is_empty()
                    && expr
                        .iter()
                        .all(|t| matches!(t, Tok::Ident(_) | Tok::PathSep | Tok::Punct('.')));
                if pure_path {
                    if let Some(Tok::Ident(last)) = expr.last() {
                        if hash_names.contains(last) {
                            out.push(Diagnostic {
                                path: path.to_string(),
                                line: line_idx + 1,
                                column: toks[for_pos].0 + 1,
                                rule: Rule::D1,
                                message: format!(
                                    "unordered iteration: `for … in` over hash-keyed `{last}`"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Spellings D2 flags (rustfmt keeps these on one line; see module docs for
/// the normalization caveat).
const D2_PATTERNS: &[&str] = &["Instant::now", "SystemTime", "thread::current().id()"];

fn check_d2(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    for (line_idx, line) in stripped.code.iter().enumerate() {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        for pat in D2_PATTERNS {
            // Match on the whitespace-free line, report the column of the
            // pattern's head token in the original line.
            if compact.contains(pat) {
                let head = pat.split(['(', ':', '.']).next().unwrap_or(pat);
                let column = line.find(head).map_or(1, |c| c + 1);
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_idx + 1,
                    column,
                    rule: Rule::D2,
                    message: format!(
                        "`{pat}` on a non-bench path: wall clocks and thread identity \
                         must never influence algorithmic results"
                    ),
                });
            }
        }
    }
}

fn check_d3(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    for (line_idx, line) in stripped.code.iter().enumerate() {
        for (col, tok) in tokenize(line) {
            let hit = match &tok {
                Tok::Ident(s) => s == "f32" || s == "f64",
                Tok::Num { float } => *float,
                _ => false,
            };
            if hit {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_idx + 1,
                    column: col + 1,
                    rule: Rule::D3,
                    message: "float type or literal inside an exact-arithmetic module \
                              (exact paths are Rational/BigInt/Fp64 only)"
                        .to_string(),
                });
                break; // One diagnostic per line keeps float-heavy lines readable.
            }
        }
    }
}

fn check_d4(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    for (line_idx, line) in stripped.code.iter().enumerate() {
        for (col, tok) in tokenize(line) {
            if !matches!(&tok, Tok::Ident(s) if s == "unsafe") {
                continue;
            }
            // A `// SAFETY:` comment may trail the line or sit in the
            // contiguous comment block directly above it.
            let mut documented = stripped.comments[line_idx].contains("SAFETY");
            let mut l = line_idx;
            while !documented && l > 0 {
                l -= 1;
                let comment = &stripped.comments[l];
                if stripped.code[l].trim().is_empty() && !comment.is_empty() {
                    documented = comment.contains("SAFETY");
                } else {
                    break;
                }
            }
            if !documented {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_idx + 1,
                    column: col + 1,
                    rule: Rule::D4,
                    message: "`unsafe` without a `// SAFETY:` comment documenting why the \
                              invariants hold"
                        .to_string(),
                });
            }
        }
    }
}

/// Spellings D6 flags: the recorder's raw entry points and the collector
/// type itself. The `trace_event!`-family macros expand to these *inside*
/// `crates/trace/` (exempt), so macro users never match.
const D6_PATTERNS: &[&str] = &[
    "TraceCollector",
    "install_job_scope",
    "install_compute_scope",
    "record_raw",
    "sched_raw",
    "sched_event",
];

fn check_d6(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    for (line_idx, line) in stripped.code.iter().enumerate() {
        for pat in D6_PATTERNS {
            if let Some(col) = line.find(pat) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: line_idx + 1,
                    column: col + 1,
                    rule: Rule::D6,
                    message: format!(
                        "direct trace-recorder use (`{pat}`) outside crates/trace and the \
                         engine entry points: instrument through the trace_event!/\
                         trace_span!/trace_sched! macros"
                    ),
                });
                break; // One diagnostic per line.
            }
        }
    }
}

fn check_d5(path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) {
    for (line_idx, line) in stripped.code.iter().enumerate() {
        if let Some(col) = line.find("env::var") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: line_idx + 1,
                column: col + 1,
                rule: Rule::D5,
                message: "environment read outside a config/CI-switch site: process \
                          environment must never steer algorithmic paths"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Lints one file's source. `rel_path` is the root-relative path with
/// forward slashes — rule scoping (`D3`'s exact-path confinement, the bench
/// exemptions for `D2`/`D5`) keys off it.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let stripped = strip(source);
    let mut raw = Vec::new();
    for rule in [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5, Rule::D6] {
        let scope = applies_under(rule);
        if !scope.is_empty() && !path_in(rel_path, scope) {
            continue;
        }
        if path_in(rel_path, allowed_under(rule)) {
            continue;
        }
        match rule {
            Rule::D1 => check_d1(rel_path, &stripped, &mut raw),
            Rule::D2 => check_d2(rel_path, &stripped, &mut raw),
            Rule::D3 => check_d3(rel_path, &stripped, &mut raw),
            Rule::D4 => check_d4(rel_path, &stripped, &mut raw),
            Rule::D5 => check_d5(rel_path, &stripped, &mut raw),
            Rule::D6 => check_d6(rel_path, &stripped, &mut raw),
            _ => unreachable!("meta rules are not checkers"),
        }
    }

    let mut allows = parse_allows(&stripped);
    let mut out = Vec::new();
    for diag in raw {
        let mut suppressed = false;
        for allow in allows.iter_mut() {
            if allow.rule == Some(diag.rule)
                && (allow.file_level || allow.target_line + 1 == diag.line)
            {
                allow.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(diag);
        }
    }
    for allow in &allows {
        let line = allow.at_line + 1;
        match allow.rule {
            None => out.push(Diagnostic {
                path: rel_path.to_string(),
                line,
                column: allow.column,
                rule: Rule::A3,
                message: format!(
                    "lint:allow names unknown rule `{}` (known: D1–D6)",
                    allow.rule_text
                ),
            }),
            Some(rule) => {
                if !allow.has_reason {
                    out.push(Diagnostic {
                        path: rel_path.to_string(),
                        line,
                        column: allow.column,
                        rule: Rule::A1,
                        message: format!(
                            "lint:allow({}) without a reason — write \
                             `lint:allow({}): why this site is order-free/legitimate`",
                            rule.id(),
                            rule.id()
                        ),
                    });
                }
                if !allow.used {
                    out.push(Diagnostic {
                        path: rel_path.to_string(),
                        line,
                        column: allow.column,
                        rule: Rule::A2,
                        message: format!(
                            "stale lint:allow({}): it suppresses nothing — the hazard it \
                             excused is gone, so remove the annotation",
                            rule.id()
                        ),
                    });
                }
            }
        }
    }
    out.sort_by_key(|d| (d.line, d.column, d.rule));
    out
}

/// Directories never scanned: build output, the vendored dependency shims
/// (external code simulating external crates), VCS internals, and the lint's
/// own deliberately-bad fixture tree.
const EXCLUDED_DIRS: &[&str] = &["target", "vendor", ".git"];
const EXCLUDED_PREFIXES: &[&str] = &["crates/analysis/fixtures"];

/// Recursively collects the `.rs` files under `root`, as root-relative
/// forward-slash paths, in sorted order — the scan itself must not depend on
/// the OS's directory iteration order (the lint practices what it preaches).
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let mut entries: Vec<_> = std::fs::read_dir(&abs)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        for name in entries {
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let abs_child = root.join(&rel);
            if abs_child.is_dir() {
                if EXCLUDED_DIRS.contains(&name.as_str())
                    || EXCLUDED_PREFIXES.contains(&rel_str.as_str())
                {
                    continue;
                }
                stack.push(rel);
            } else if name.ends_with(".rs") {
                files.push(rel_str);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// What a full lint run found.
#[derive(Debug)]
pub struct LintReport {
    /// All diagnostics, in (path, line, column) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints every `.rs` file under `root` (excluding `target/`, `vendor/`, and
/// the fixture tree).
pub fn lint_tree(root: &Path) -> io::Result<LintReport> {
    let files = collect_rust_files(root)?;
    let mut diagnostics = Vec::new();
    let files_scanned = files.len();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        diagnostics.extend(lint_source(&rel, &source));
    }
    Ok(LintReport {
        diagnostics,
        files_scanned,
    })
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn stripper_ignores_comments_strings_and_chars() {
        let src = "// Instant::now in a comment is fine\n\
                   fn f() -> usize {\n\
                   let s = \"Instant::now in a string is fine\";\n\
                   let raw = r#\"Instant::now in a raw string\"#;\n\
                   let c = 'i'; let lt: &'static str = s;\n\
                   /* block Instant::now */ let _ = (raw, c, lt); 1\n\
                   }\n";
        let diags = lint_source("crates/engine/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn d1_flags_iteration_not_point_lookups() {
        let src = "use std::collections::HashMap;\n\
                   struct S { entries: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn ok(&self) -> Option<&u32> { self.entries.get(&1) }\n\
                   fn bad(&self) -> usize { self.entries.iter().count() }\n\
                   fn bad2(&self) { for (_k, _v) in &self.entries {} }\n\
                   }\n";
        let diags = lint_source("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&diags), vec!["D1", "D1"]);
        assert_eq!(diags[0].line, 5);
        assert_eq!(diags[1].line, 6);
    }

    #[test]
    fn d1_tracks_type_aliases_and_let_bindings() {
        let src = "type Shard = std::collections::HashMap<u32, u32>;\n\
                   fn f(m: &Shard) { for _ in m.keys() {} }\n\
                   fn g() { let mut set = std::collections::HashSet::new();\n\
                   set.insert(1);\n\
                   let _n: usize = set.drain().count(); }\n";
        let diags = lint_source("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&diags), vec!["D1", "D1"]);
    }

    #[test]
    fn d1_leaves_btreemap_alone() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: &BTreeMap<u32, u32>) -> u32 { m.values().sum() }\n";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn d2_and_d5_exempt_the_bench_crate() {
        let src = "fn f() { let _t = std::time::Instant::now(); \
                   let _q = std::env::var(\"SYMMAP_QUICK\"); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/x.rs", src)),
            vec!["D2", "D5"]
        );
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_is_confined_to_exact_paths() {
        let src = "fn half(x: f64) -> f64 { x * 0.5 }\n";
        assert_eq!(
            rules_of(&lint_source("crates/algebra/src/x.rs", src)),
            vec!["D3"]
        );
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
        // Integer ranges and method calls on ints are not float literals.
        let ints = "fn f() -> usize { (0..10).map(|i| i.max(2)).sum() }\n";
        assert!(lint_source("crates/numeric/src/x.rs", ints).is_empty());
    }

    #[test]
    fn d6_flags_direct_recorder_use_outside_entry_points() {
        let src = "fn f() { let c = symmap_trace::TraceCollector::new(1); drop(c); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/decompose.rs", src)),
            vec!["D6"]
        );
        // The trace crate and the engine's batch/pool entry points are exempt.
        assert!(lint_source("crates/trace/src/recorder.rs", src).is_empty());
        assert!(lint_source("crates/engine/src/batch.rs", src).is_empty());
        // Macro call sites never match: the raw entry-point names only occur
        // in the macro expansion, which lives in crates/trace.
        let macro_user = "fn f() { symmap_trace::trace_event!(\"x\"); }\n";
        assert!(lint_source("crates/engine/src/decompose.rs", macro_user).is_empty());
    }

    #[test]
    fn d4_accepts_trailing_and_preceding_safety_comments() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/x.rs", bad)),
            vec!["D4"]
        );
        let trailing = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: caller contract\n";
        assert!(lint_source("crates/engine/src/x.rs", trailing).is_empty());
        let above = "fn f(p: *const u8) -> u8 {\n\
                     // SAFETY: p is valid by the caller contract.\n\
                     unsafe { *p }\n\
                     }\n";
        assert!(lint_source("crates/engine/src/x.rs", above).is_empty());
    }

    #[test]
    fn allow_suppresses_and_requires_reason() {
        let ok = "fn f() { let _t = std::time::Instant::now(); } \
                  // lint:allow(D2): stats-only wall clock\n";
        assert!(lint_source("crates/engine/src/x.rs", ok).is_empty());
        let missing = "fn f() { let _t = std::time::Instant::now(); } // lint:allow(D2)\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/x.rs", missing)),
            vec!["A1"]
        );
    }

    #[test]
    fn allow_on_preceding_comment_line_targets_next_code_line() {
        let src = "fn f() {\n\
                   // lint:allow(D2): stats-only wall clock\n\
                   let _t = std::time::Instant::now();\n\
                   }\n";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn stale_and_unknown_allows_are_reported() {
        let stale = "fn f() { let _x = 1; } // lint:allow(D2): nothing here anymore\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/x.rs", stale)),
            vec!["A2"]
        );
        let unknown = "fn f() {} // lint:allow(D9): no such rule\n";
        assert_eq!(
            rules_of(&lint_source("crates/engine/src/x.rs", unknown)),
            vec!["A3"]
        );
    }

    #[test]
    fn file_level_allow_covers_the_file_and_goes_stale() {
        let src = "// lint:allow-file(D3): float-boundary module by design\n\
                   fn a(x: f64) -> f64 { x + 1.0 }\n\
                   fn b(y: f32) -> f32 { y * 2.0 }\n";
        assert!(lint_source("crates/numeric/src/x.rs", src).is_empty());
        let stale = "// lint:allow-file(D3): nothing floaty left\n\
                     fn a(x: u32) -> u32 { x + 1 }\n";
        assert_eq!(
            rules_of(&lint_source("crates/numeric/src/x.rs", stale)),
            vec!["A2"]
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic {
            path: "a\"b.rs".to_string(),
            line: 3,
            column: 7,
            rule: Rule::D1,
            message: "x\ny".to_string(),
        };
        assert_eq!(
            d.to_json(),
            r#"{"path":"a\"b.rs","line":3,"column":7,"rule":"D1","message":"x\ny"}"#
        );
        assert_eq!(to_json_array(&[]), "[]");
    }
}
