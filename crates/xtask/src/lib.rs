//! Workspace-specific static analysis for the MOVE reproduction.
//!
//! `cargo run -p xtask -- lint` enforces four rules that `rustc` and
//! `clippy` cannot express because they are *policies of this codebase*,
//! not general Rust style:
//!
//! * **no-panic** — the library crates on the live data path (`move-core`,
//!   `move-runtime`) plus the foundational `move-types` and `move-index`
//!   crates must not contain `unwrap()`, `expect(…)`, `panic!`,
//!   `unreachable!`, `todo!` or `unimplemented!` outside test code: a
//!   worker that panics takes a node's shard with it, so every fallible
//!   path must surface a typed [`MoveError`](../move_types) instead.
//! * **no-unbounded** — channels must be bounded (backpressure is a core
//!   design property of the engine) unless the call site carries an
//!   explicit `xtask:allow-unbounded` marker comment justifying it.
//! * **no-catch-all** — the files that dispatch on the engine's protocol
//!   enums (`worker.rs`, `engine.rs`, `interleave.rs`, `fault.rs`,
//!   `supervisor.rs`, `ingest.rs`, `dispatch.rs`, the staged-join engine `rebalance.rs`,
//!   the routing-snapshot kernel `snapshot.rs`, the versioned-layout
//!   kernel `layout.rs`, and the control-plane aggregation layer
//!   `aggregate.rs`/`fanout.rs`) must not contain `_ =>` match arms, so
//!   adding a
//!   protocol variant is a compile error at every dispatch site instead
//!   of a silently ignored message.
//! * **pub-docs** — every public item in `move-core` and `move-runtime`
//!   carries a doc comment (the hard-failure version of
//!   `#![warn(missing_docs)]`).
//!
//! The scanner is a line-oriented lexer, not a full parser: it strips
//! comments, string/char literals and `#[cfg(test)]` regions, then matches
//! per-line patterns. That is exact enough for these rules because the
//! workspace is `rustfmt`-formatted (one item/arm per line).
//!
//! `cargo run -p xtask -- check-bench [report.json]` additionally
//! validates the schema of the hot-path benchmark report
//! ([`check_bench_report`]) — or, when the file name contains
//! `rebalance`, the join-under-load report ([`check_rebalance_report`]),
//! or `control`, the control-plane aggregation report
//! ([`check_control_report`]) — so CI notices when the bench harnesses
//! and their consumers drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule name for the panic-family ban.
pub const NO_PANIC: &str = "no-panic";
/// Rule name for the unbounded-channel ban.
pub const NO_UNBOUNDED: &str = "no-unbounded";
/// Rule name for the protocol catch-all ban.
pub const NO_CATCH_ALL: &str = "no-catch-all";
/// Rule name for the public-item documentation requirement.
pub const PUB_DOCS: &str = "pub-docs";

/// One finding: a rule violated at a specific line of a specific file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (one of the `NO_*`/`PUB_DOCS` constants).
    pub rule: &'static str,
    /// What was found and why it is rejected.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The process exit code for a lint run: 0 when clean, 1 when any rule
/// fired.
#[must_use]
pub fn exit_code(violations: &[Violation]) -> i32 {
    i32::from(!violations.is_empty())
}

/// A source line after lexical preprocessing.
struct Line {
    /// The verbatim line (markers and doc comments are read from here).
    raw: String,
    /// The line with comments and string/char literal *contents* blanked
    /// out, so pattern matches cannot fire inside them.
    code: String,
    /// Whether the line lies inside a `#[cfg(test)]` item or a `#[test]`
    /// function.
    in_test: bool,
}

/// Strips comments and literal contents from `source`, preserving the line
/// structure, then marks test regions.
fn preprocess(source: &str) -> Vec<Line> {
    let code = strip_comments_and_literals(source);
    let mut lines: Vec<Line> = source
        .lines()
        .zip(code.lines())
        .map(|(raw, code)| Line {
            raw: raw.to_owned(),
            code: code.to_owned(),
            in_test: false,
        })
        .collect();
    mark_test_regions(&mut lines);
    lines
}

/// The lexer pass: replaces comment bodies and string/char literal
/// contents with spaces. Newlines are kept so line numbers survive.
fn strip_comments_and_literals(source: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                    i += 1;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                    i += 1;
                    out.push(' ');
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = State::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    i += consumed - 1;
                }
                '\'' if is_char_literal(&chars, i) => {
                    state = State::Char;
                    out.push('\'');
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '*' && next == Some('/') {
                    out.push(' ');
                    i += 1;
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    out.push(' ');
                    i += 1;
                    state = State::BlockComment(depth + 1);
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 1;
                    }
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    for _ in 0..=hashes as usize {
                        out.push(' ');
                    }
                    i += hashes as usize;
                    state = State::Code;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 1;
                    }
                }
                '\'' => {
                    state = State::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw string literal
/// (`r"`, `r#"`, `br"`, …) rather than an identifier.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Reject when preceded by an identifier character: `for r in ..` vs
    // an identifier ending in r like `var"` cannot occur.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    j += 1; // past 'r'
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Returns (number of `#`s, characters consumed through the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // past 'r'
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i + 1) // +1 consumes the opening quote
}

/// Whether the quote at `i` is followed by `hashes` `#`s, closing the raw
/// string.
fn raw_string_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Whether the `'` at position `i` starts a char literal (vs a lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks every line belonging to an item annotated `#[cfg(test)]` or
/// `#[test]`, by brace-matching from the attribute to the end of the item.
fn mark_test_regions(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        let is_test_attr =
            code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") || code == "#[test]";
        if !is_test_attr {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut seen_open = false;
        let mut j = i;
        while j < lines.len() {
            lines[j].in_test = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if seen_open && depth <= 0 {
                break;
            }
            // A braceless item (`#[cfg(test)] use …;`) ends at the first
            // statement terminator.
            if !seen_open && j > i && lines[j].code.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Crates whose non-test code must be panic-free and fully documented:
/// the library data path.
fn is_data_path(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/runtime/src/")
}

/// Crates whose non-test code must be panic-free but are not (yet) held to
/// the pub-docs rule: the foundation types and the match kernels, which
/// every data-path crate builds on, plus the versioned-layout kernel in
/// `move-cluster` — a panic there poisons every scheme's view of the ring.
fn is_no_panic_scope(path: &str) -> bool {
    is_data_path(path)
        || path.starts_with("crates/types/src/")
        || path.starts_with("crates/index/src/")
        || path == "crates/cluster/src/layout.rs"
}

/// Files that dispatch on the engine's protocol enums. `rebalance.rs`
/// (the staged-join engine) and `layout.rs` (the versioned-layout kernel)
/// are included because a silently dropped control message or layout
/// change there strands partitions mid-handover; `aggregate.rs` and
/// `fanout.rs` (the control-plane aggregation layer) because a silently
/// ignored register/unregister outcome desynchronizes the fan-out
/// refcounts from the posting entries.
fn is_protocol_dispatch(path: &str) -> bool {
    matches!(
        path,
        "crates/runtime/src/worker.rs"
            | "crates/runtime/src/lanes.rs"
            | "crates/runtime/src/engine.rs"
            | "crates/runtime/src/dispatch.rs"
            | "crates/runtime/src/interleave.rs"
            | "crates/runtime/src/fault.rs"
            | "crates/runtime/src/supervisor.rs"
            | "crates/runtime/src/ingest.rs"
            | "crates/runtime/src/rebalance.rs"
            | "crates/core/src/snapshot.rs"
            | "crates/cluster/src/layout.rs"
            | "crates/index/src/aggregate.rs"
            | "crates/index/src/fanout.rs"
    )
}

/// Crates subject to the unbounded-channel ban (everything but the shims,
/// which *define* `unbounded`, and this linter itself, which names it).
fn is_channel_scope(path: &str) -> bool {
    path.starts_with("crates/") && !path.starts_with("crates/xtask/")
}

/// Lints one file given its workspace-relative `path` (which selects the
/// applicable rules) and its contents.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Violation> {
    let lines = preprocess(source);
    let mut out = Vec::new();
    if is_no_panic_scope(path) {
        no_panic(path, &lines, &mut out);
    }
    if is_data_path(path) {
        pub_docs(path, &lines, &mut out);
    }
    if is_channel_scope(path) {
        no_unbounded(path, &lines, &mut out);
    }
    if is_protocol_dispatch(path) {
        no_catch_all(path, &lines, &mut out);
    }
    out
}

fn no_panic(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    const PATTERNS: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!(",
        "unimplemented!(",
    ];
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in PATTERNS {
            if line.code.contains(pat) {
                out.push(Violation {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: NO_PANIC,
                    message: format!(
                        "`{pat}` in non-test data-path code; return a typed \
                         move_types::MoveError instead"
                    ),
                });
            }
        }
    }
}

fn no_unbounded(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    const MARKER: &str = "xtask:allow-unbounded";
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !(line.code.contains("unbounded(") || line.code.contains("unbounded::<"))
        {
            continue;
        }
        // The justification marker may sit on the call line or on either
        // of the two comment lines directly above it.
        let allowed = (idx.saturating_sub(2)..=idx).any(|j| lines[j].raw.contains(MARKER));
        if !allowed {
            out.push(Violation {
                path: path.to_owned(),
                line: idx + 1,
                rule: NO_UNBOUNDED,
                message: "unbounded channel without an `xtask:allow-unbounded` \
                          justification; use a bounded channel (backpressure) or \
                          add the marker with a reason"
                    .to_owned(),
            });
        }
    }
}

fn no_catch_all(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let t = line.code.trim_start();
        if t.starts_with("_ =>") || t.starts_with("| _ =>") {
            out.push(Violation {
                path: path.to_owned(),
                line: idx + 1,
                rule: NO_CATCH_ALL,
                message: "catch-all `_ =>` arm in a protocol dispatch file; \
                          list every variant so new messages fail to compile \
                          here instead of being silently dropped"
                    .to_owned(),
            });
        }
    }
}

/// Whether a stripped, trimmed code line declares a `pub` item that
/// requires a doc comment. `pub(crate)`/`pub(super)` items and `pub use`
/// re-exports are exempt (the latter inherit the target's docs), as are
/// `pub` fields — field visibility cannot be classified without type
/// context, and `#![warn(missing_docs)]` already covers public fields.
fn pub_item_needs_doc(code: &str) -> bool {
    let Some(rest) = code.strip_prefix("pub ") else {
        return false;
    };
    let mut words = rest.split_whitespace();
    loop {
        match words.next() {
            Some("unsafe" | "async" | "extern") => {}
            Some("const") => {
                // `pub const fn f()` and `pub const X: T` both need docs.
                return true;
            }
            Some("fn" | "struct" | "enum" | "trait" | "mod" | "type" | "static" | "union") => {
                return true;
            }
            _ => return false,
        }
    }
}

fn pub_docs(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    let mut has_doc = false;
    let mut attr_depth: i64 = 0;
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            has_doc = false;
            attr_depth = 0;
            continue;
        }
        let code = line.code.trim();
        let raw = line.raw.trim_start();
        if attr_depth > 0 {
            attr_depth += bracket_balance(code);
            continue;
        }
        if raw.starts_with("///") || raw.starts_with("//!") || raw.starts_with("#[doc") {
            has_doc = true;
            continue;
        }
        if code.is_empty() {
            // Comment-only lines keep an accumulated doc attached; truly
            // blank lines detach it.
            if raw.is_empty() {
                has_doc = false;
            }
            continue;
        }
        if code.starts_with("#[") || code.starts_with("#!") {
            attr_depth = bracket_balance(code);
            continue;
        }
        if pub_item_needs_doc(code) && !has_doc {
            out.push(Violation {
                path: path.to_owned(),
                line: idx + 1,
                rule: PUB_DOCS,
                message: format!(
                    "undocumented public item `{}`",
                    code.split('{').next().unwrap_or(code).trim()
                ),
            });
        }
        has_doc = false;
    }
}

/// Net `[`/`]` balance of a line — used to span multi-line attributes.
fn bracket_balance(code: &str) -> i64 {
    let mut depth = 0;
    for c in code.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Lints every `.rs` file under `root/crates`, returning all findings
/// sorted by path and line.
///
/// # Errors
///
/// Propagates filesystem errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rust_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&file)?;
        out.extend(lint_source(&rel, &source));
    }
    Ok(out)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // Skip build artifacts if a stray target/ exists in-tree.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Validates the structure of a `results/BENCH_hotpath.json` report
/// produced by `cargo run -p move-bench --bin bench_hotpath`, returning a
/// human-readable message per schema problem (empty when the report is
/// well-formed).
///
/// The schema is deliberately shallow — it guards the CI bench-smoke job
/// against the harness silently rotting (wrong field names, empty run set,
/// zeroed throughput), not against regressions in the numbers themselves:
///
/// * top level: object with numeric `scale`, `nodes`, `filters`, `docs`
///   and a non-empty `runs` array;
/// * each run: `scheme` ∈ {`il`, `rs`, `move`}, `mode` ∈ {`sim`, `live`},
///   `docs_per_sec` > 0, and `p50_us` ≤ `p99_us` (both non-negative);
/// * when the optional `scaling` array (the `--publishers` sweep) is
///   present: each entry has `scheme` ∈ {`il`, `rs`, `move`}, `mode` =
///   `live`, integer `publishers` ≥ 1, `docs_per_sec` > 0, `speedup` > 0,
///   and `deliveries_match` = `true` — a `false` means the router pool
///   diverged from the serial delivery sets, which is a correctness
///   failure, not a schema nit, so it fails the check;
/// * when the optional `lanes` array (the `--match-lanes` sweep over the
///   workers' work-stealing match pools) is present: each entry has
///   `scheme` ∈ {`il`, `rs`, `move`}, `mode` = `live`, integer `lanes` ≥
///   1, `docs_per_sec` > 0, `speedup` ≥ [`LANE_SPEEDUP_FLOOR`] (lane
///   configurations that *regress* throughput by more than 5% hard-fail
///   the gate), and `deliveries_match` = `true` — same correctness gate
///   as the publisher sweep, now over intra-node lane counts.
#[must_use]
pub fn check_bench_report(src: &str) -> Vec<String> {
    use serde::Value;

    let mut errors = Vec::new();
    let root = match serde_json::parse_value(src) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if !matches!(root, Value::Object(_)) {
        return vec![format!(
            "top level must be an object, found {}",
            root.kind()
        )];
    }
    for field in ["scale", "nodes", "filters", "docs"] {
        match root.get(field) {
            None => errors.push(format!("missing top-level field `{field}`")),
            Some(v) if v.as_f64().is_none() => {
                errors.push(format!("`{field}` must be a number, found {}", v.kind()));
            }
            Some(_) => {}
        }
    }
    let runs = match root.get("runs") {
        None => {
            errors.push("missing top-level field `runs`".to_string());
            return errors;
        }
        Some(Value::Array(runs)) => runs,
        Some(v) => {
            errors.push(format!("`runs` must be an array, found {}", v.kind()));
            return errors;
        }
    };
    if runs.is_empty() {
        errors.push("`runs` must not be empty".to_string());
    }
    for (i, run) in runs.iter().enumerate() {
        if !matches!(run, Value::Object(_)) {
            errors.push(format!("runs[{i}] must be an object, found {}", run.kind()));
            continue;
        }
        for (field, allowed) in [
            ("scheme", &["il", "rs", "move"][..]),
            ("mode", &["sim", "live"][..]),
        ] {
            match run.get(field) {
                Some(Value::String(s)) if allowed.contains(&s.as_str()) => {}
                Some(Value::String(s)) => errors.push(format!(
                    "runs[{i}].{field}: `{s}` is not one of {allowed:?}"
                )),
                Some(v) => errors.push(format!(
                    "runs[{i}].{field} must be a string, found {}",
                    v.kind()
                )),
                None => errors.push(format!("runs[{i}] missing `{field}`")),
            }
        }
        for field in ["elapsed_secs", "docs_per_sec", "p50_us", "p99_us"] {
            match run.get(field).and_then(Value::as_f64) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                Some(_) => errors.push(format!("runs[{i}].{field} must be finite and >= 0")),
                None => errors.push(format!("runs[{i}] missing numeric `{field}`")),
            }
        }
        if let Some(dps) = run.get("docs_per_sec").and_then(Value::as_f64) {
            if dps <= 0.0 {
                errors.push(format!("runs[{i}].docs_per_sec must be > 0, got {dps}"));
            }
        }
        if let (Some(p50), Some(p99)) = (
            run.get("p50_us").and_then(Value::as_f64),
            run.get("p99_us").and_then(Value::as_f64),
        ) {
            if p50 > p99 {
                errors.push(format!("runs[{i}]: p50_us ({p50}) exceeds p99_us ({p99})"));
            }
        }
        for field in ["deliveries", "postings_scanned"] {
            match run.get(field) {
                None => errors.push(format!("runs[{i}] missing `{field}`")),
                Some(v) if v.as_u64().is_none() => errors.push(format!(
                    "runs[{i}].{field} must be a non-negative integer, found {}",
                    v.kind()
                )),
                Some(_) => {}
            }
        }
    }
    match root.get("scaling") {
        None => {} // pre-pool reports carry no sweep; that is fine
        Some(Value::Array(scaling)) => {
            if scaling.is_empty() {
                errors.push("`scaling` must not be empty when present".to_string());
            }
            for (i, entry) in scaling.iter().enumerate() {
                check_scaling_entry(i, entry, &mut errors);
            }
        }
        Some(v) => errors.push(format!("`scaling` must be an array, found {}", v.kind())),
    }
    match root.get("lanes") {
        None => {} // pre-pool reports carry no lane sweep; that is fine
        Some(Value::Array(lanes)) => {
            if lanes.is_empty() {
                errors.push("`lanes` must not be empty when present".to_string());
            }
            for (i, entry) in lanes.iter().enumerate() {
                check_lane_entry(i, entry, &mut errors);
            }
        }
        Some(v) => errors.push(format!("`lanes` must be an array, found {}", v.kind())),
    }
    errors
}

/// Hard floor on every lane-sweep `speedup`: a multi-lane configuration
/// may fail to gain (scheduler overhead, single hardware core), but one
/// that *loses* more than 5% versus the single-lane worker is a
/// regression the bench gate refuses to certify.
pub const LANE_SPEEDUP_FLOOR: f64 = 0.95;

/// Validates one entry of the `lanes` (`--match-lanes` sweep) array.
fn check_lane_entry(i: usize, entry: &serde::Value, errors: &mut Vec<String>) {
    use serde::Value;

    if !matches!(entry, Value::Object(_)) {
        errors.push(format!(
            "lanes[{i}] must be an object, found {}",
            entry.kind()
        ));
        return;
    }
    match entry.get("scheme") {
        Some(Value::String(s)) if ["il", "rs", "move"].contains(&s.as_str()) => {}
        Some(Value::String(s)) => errors.push(format!(
            "lanes[{i}].scheme: `{s}` is not one of [\"il\", \"rs\", \"move\"]"
        )),
        Some(v) => errors.push(format!(
            "lanes[{i}].scheme must be a string, found {}",
            v.kind()
        )),
        None => errors.push(format!("lanes[{i}] missing `scheme`")),
    }
    match entry.get("mode") {
        Some(Value::String(s)) if s == "live" => {}
        Some(_) => errors.push(format!(
            "lanes[{i}].mode must be \"live\" (the sweep measures the live pool)"
        )),
        None => errors.push(format!("lanes[{i}] missing `mode`")),
    }
    match entry.get("lanes").and_then(Value::as_u64) {
        Some(l) if l >= 1 => {}
        Some(_) => errors.push(format!("lanes[{i}].lanes must be >= 1")),
        None => errors.push(format!("lanes[{i}] missing integer `lanes`")),
    }
    for field in ["docs_per_sec", "speedup"] {
        match entry.get(field).and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            Some(_) => errors.push(format!("lanes[{i}].{field} must be finite and > 0")),
            None => errors.push(format!("lanes[{i}] missing numeric `{field}`")),
        }
    }
    match entry.get("speedup").and_then(Value::as_f64) {
        Some(s) if s.is_finite() && s > 0.0 && s < LANE_SPEEDUP_FLOOR => errors.push(format!(
            "lanes[{i}].speedup {s:.3} is below the {LANE_SPEEDUP_FLOOR} floor: \
             the lane pool regresses versus the single-lane worker — a lane \
             configuration that costs throughput must not ship"
        )),
        Some(_) | None => {} // non-positive / missing reported above
    }
    match entry.get("deliveries_match") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => errors.push(format!(
            "lanes[{i}].deliveries_match is false: the match pool's delivery \
             sets diverged from the single-lane worker's"
        )),
        Some(v) => errors.push(format!(
            "lanes[{i}].deliveries_match must be a bool, found {}",
            v.kind()
        )),
        None => errors.push(format!("lanes[{i}] missing `deliveries_match`")),
    }
}

/// Validates one entry of the `scaling` (`--publishers` sweep) array.
fn check_scaling_entry(i: usize, entry: &serde::Value, errors: &mut Vec<String>) {
    use serde::Value;

    if !matches!(entry, Value::Object(_)) {
        errors.push(format!(
            "scaling[{i}] must be an object, found {}",
            entry.kind()
        ));
        return;
    }
    match entry.get("scheme") {
        Some(Value::String(s)) if ["il", "rs", "move"].contains(&s.as_str()) => {}
        Some(Value::String(s)) => errors.push(format!(
            "scaling[{i}].scheme: `{s}` is not one of [\"il\", \"rs\", \"move\"]"
        )),
        Some(v) => errors.push(format!(
            "scaling[{i}].scheme must be a string, found {}",
            v.kind()
        )),
        None => errors.push(format!("scaling[{i}] missing `scheme`")),
    }
    match entry.get("mode") {
        Some(Value::String(s)) if s == "live" => {}
        Some(_) => errors.push(format!(
            "scaling[{i}].mode must be \"live\" (the sweep measures the live pool)"
        )),
        None => errors.push(format!("scaling[{i}] missing `mode`")),
    }
    match entry.get("publishers").and_then(Value::as_u64) {
        Some(p) if p >= 1 => {}
        Some(_) => errors.push(format!("scaling[{i}].publishers must be >= 1")),
        None => errors.push(format!("scaling[{i}] missing integer `publishers`")),
    }
    for field in ["docs_per_sec", "speedup"] {
        match entry.get(field).and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            Some(_) => errors.push(format!("scaling[{i}].{field} must be finite and > 0")),
            None => errors.push(format!("scaling[{i}] missing numeric `{field}`")),
        }
    }
    match entry.get("deliveries_match") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => errors.push(format!(
            "scaling[{i}].deliveries_match is false: the pool's delivery \
             sets diverged from the serial router's"
        )),
        Some(v) => errors.push(format!(
            "scaling[{i}].deliveries_match must be a bool, found {}",
            v.kind()
        )),
        None => errors.push(format!("scaling[{i}] missing `deliveries_match`")),
    }
}

/// Validates the structure of a `results/BENCH_rebalance.json` report
/// produced by `cargo run -p move-bench --bin bench_rebalance`, returning
/// a human-readable message per schema problem (empty when the report is
/// well-formed).
///
/// Beyond field shapes, two of the checks are correctness gates rather
/// than schema nits, because the bench is the acceptance harness for the
/// elastic-cluster subsystem:
///
/// * `deliveries_match` must be `true` — a `false` means a join changed
///   what subscribers received versus a from-scratch N+1 cluster;
/// * `dip_ratio` must be > 0 and ≤ 1 — the slowest ingest bucket of the
///   join run over the run's median bucket; 0 would mean ingest fully
///   stalled during the handover, which the staged design forbids (the
///   fence gates the commit, not the copy);
/// * `partitions_moved` ≥ 1 for the keyword-routed schemes (`il`,
///   `move`) — a join that moved nothing rebalanced nothing. `rs` floods
///   every group, so it legitimately streams no partitions.
#[must_use]
pub fn check_rebalance_report(src: &str) -> Vec<String> {
    use serde::Value;

    let mut errors = Vec::new();
    let root = match serde_json::parse_value(src) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if !matches!(root, Value::Object(_)) {
        return vec![format!(
            "top level must be an object, found {}",
            root.kind()
        )];
    }
    for field in ["scale", "nodes", "filters", "docs"] {
        match root.get(field) {
            None => errors.push(format!("missing top-level field `{field}`")),
            Some(v) if v.as_f64().is_none() => {
                errors.push(format!("`{field}` must be a number, found {}", v.kind()));
            }
            Some(_) => {}
        }
    }
    let runs = match root.get("runs") {
        None => {
            errors.push("missing top-level field `runs`".to_string());
            return errors;
        }
        Some(Value::Array(runs)) => runs,
        Some(v) => {
            errors.push(format!("`runs` must be an array, found {}", v.kind()));
            return errors;
        }
    };
    if runs.is_empty() {
        errors.push("`runs` must not be empty".to_string());
    }
    for (i, run) in runs.iter().enumerate() {
        if !matches!(run, Value::Object(_)) {
            errors.push(format!("runs[{i}] must be an object, found {}", run.kind()));
            continue;
        }
        let scheme = match run.get("scheme") {
            Some(Value::String(s)) if ["il", "rs", "move"].contains(&s.as_str()) => {
                Some(s.as_str())
            }
            Some(Value::String(s)) => {
                errors.push(format!(
                    "runs[{i}].scheme: `{s}` is not one of [\"il\", \"rs\", \"move\"]"
                ));
                None
            }
            Some(v) => {
                errors.push(format!(
                    "runs[{i}].scheme must be a string, found {}",
                    v.kind()
                ));
                None
            }
            None => {
                errors.push(format!("runs[{i}] missing `scheme`"));
                None
            }
        };
        match run.get("mode") {
            Some(Value::String(s)) if s == "live" => {}
            Some(_) => errors.push(format!(
                "runs[{i}].mode must be \"live\" (joins only exist on the live engine)"
            )),
            None => errors.push(format!("runs[{i}] missing `mode`")),
        }
        for (field, min) in [("publishers", 1), ("window_docs", 1), ("joins", 1)] {
            match run.get(field).and_then(Value::as_u64) {
                Some(x) if x >= min => {}
                Some(x) => errors.push(format!("runs[{i}].{field} must be >= {min}, got {x}")),
                None => errors.push(format!("runs[{i}] missing integer `{field}`")),
            }
        }
        for field in ["docs_per_sec", "baseline_docs_per_sec"] {
            match run.get(field).and_then(Value::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                Some(_) => errors.push(format!("runs[{i}].{field} must be finite and > 0")),
                None => errors.push(format!("runs[{i}] missing numeric `{field}`")),
            }
        }
        match run.get("dip_ratio").and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x > 0.0 && x <= 1.0 => {}
            Some(x) => errors.push(format!(
                "runs[{i}].dip_ratio must be in (0, 1]: got {x} — 0 means \
                 ingest fully stalled during the handover"
            )),
            None => errors.push(format!("runs[{i}] missing numeric `dip_ratio`")),
        }
        match run.get("partitions_moved").and_then(Value::as_u64) {
            Some(0) if scheme.is_none() || scheme == Some("rs") => {}
            Some(0) => errors.push(format!(
                "runs[{i}].partitions_moved is 0: a keyword-routed join \
                 that moved nothing rebalanced nothing"
            )),
            Some(_) => {}
            None => errors.push(format!("runs[{i}] missing integer `partitions_moved`")),
        }
        for field in ["docs_double_routed", "handover_docs", "handover_nanos"] {
            match run.get(field) {
                None => errors.push(format!("runs[{i}] missing `{field}`")),
                Some(v) if v.as_u64().is_none() => errors.push(format!(
                    "runs[{i}].{field} must be a non-negative integer, found {}",
                    v.kind()
                )),
                Some(_) => {}
            }
        }
        match run.get("p99_us").and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x >= 0.0 => {}
            Some(_) => errors.push(format!("runs[{i}].p99_us must be finite and >= 0")),
            None => errors.push(format!("runs[{i}] missing numeric `p99_us`")),
        }
        match run.get("deliveries_match") {
            Some(Value::Bool(true)) => {}
            Some(Value::Bool(false)) => errors.push(format!(
                "runs[{i}].deliveries_match is false: the join changed the \
                 delivery sets versus a from-scratch N+1 cluster"
            )),
            Some(v) => errors.push(format!(
                "runs[{i}].deliveries_match must be a bool, found {}",
                v.kind()
            )),
            None => errors.push(format!("runs[{i}] missing `deliveries_match`")),
        }
    }
    errors
}

/// Validates the structure of a `results/BENCH_control.json` report
/// produced by `cargo run -p move-bench --bin bench_control`, returning a
/// human-readable message per problem (empty when the report is
/// well-formed).
///
/// Beyond field shapes, three checks are correctness gates, because the
/// bench is the acceptance harness for the control-plane aggregation
/// layer (DESIGN.md §12):
///
/// * `deliveries_match` must be `true` on every run — a `false` means the
///   aggregated delivery sets diverged from the verbatim twin or the
///   brute-force oracle under churn;
/// * every aggregated run's `bytes_per_filter` must be strictly below its
///   scheme's verbatim run — aggregation that grows storage is a bug, not
///   a trade-off;
/// * every aggregated run's `bytes_reduction` must be ≥ 4 — the pool's
///   20× predicate aliasing must buy at least a 4× storage cut.
#[must_use]
pub fn check_control_report(src: &str) -> Vec<String> {
    use serde::Value;

    let mut errors = Vec::new();
    let root = match serde_json::parse_value(src) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if !matches!(root, Value::Object(_)) {
        return vec![format!(
            "top level must be an object, found {}",
            root.kind()
        )];
    }
    for field in [
        "scale",
        "nodes",
        "subscribers",
        "predicate_pool",
        "churn_ticks",
        "docs",
    ] {
        match root.get(field) {
            None => errors.push(format!("missing top-level field `{field}`")),
            Some(v) if v.as_f64().is_none() => {
                errors.push(format!("`{field}` must be a number, found {}", v.kind()));
            }
            Some(_) => {}
        }
    }
    let runs = match root.get("runs") {
        None => {
            errors.push("missing top-level field `runs`".to_string());
            return errors;
        }
        Some(Value::Array(runs)) => runs,
        Some(v) => {
            errors.push(format!("`runs` must be an array, found {}", v.kind()));
            return errors;
        }
    };
    if runs.is_empty() {
        errors.push("`runs` must not be empty".to_string());
    }
    // scheme → (aggregated bytes/filter, verbatim bytes/filter) for the
    // cross-run storage gate.
    let mut bytes: std::collections::BTreeMap<String, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    for (i, run) in runs.iter().enumerate() {
        if !matches!(run, Value::Object(_)) {
            errors.push(format!("runs[{i}] must be an object, found {}", run.kind()));
            continue;
        }
        let scheme = match run.get("scheme") {
            Some(Value::String(s)) if ["il", "rs", "move"].contains(&s.as_str()) => Some(s.clone()),
            Some(Value::String(s)) => {
                errors.push(format!(
                    "runs[{i}].scheme: `{s}` is not one of [\"il\", \"rs\", \"move\"]"
                ));
                None
            }
            Some(v) => {
                errors.push(format!(
                    "runs[{i}].scheme must be a string, found {}",
                    v.kind()
                ));
                None
            }
            None => {
                errors.push(format!("runs[{i}] missing `scheme`"));
                None
            }
        };
        let aggregated = match run.get("mode") {
            Some(Value::String(s)) if s == "aggregated" => Some(true),
            Some(Value::String(s)) if s == "verbatim" => Some(false),
            Some(_) => {
                errors.push(format!(
                    "runs[{i}].mode must be \"aggregated\" or \"verbatim\""
                ));
                None
            }
            None => {
                errors.push(format!("runs[{i}] missing `mode`"));
                None
            }
        };
        for field in ["subscribers", "canonical_filters"] {
            match run.get(field).and_then(Value::as_u64) {
                Some(x) if x >= 1 => {}
                Some(x) => errors.push(format!("runs[{i}].{field} must be >= 1, got {x}")),
                None => errors.push(format!("runs[{i}] missing integer `{field}`")),
            }
        }
        for field in [
            "bytes_per_filter",
            "registrations_per_sec",
            "unregistrations_per_sec",
            "docs_per_sec_under_churn",
        ] {
            match run.get(field).and_then(Value::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                Some(_) => errors.push(format!("runs[{i}].{field} must be finite and > 0")),
                None => errors.push(format!("runs[{i}] missing numeric `{field}`")),
            }
        }
        if let (Some(scheme), Some(aggregated)) = (&scheme, aggregated) {
            let slot = bytes.entry(scheme.clone()).or_default();
            let bpf = run.get("bytes_per_filter").and_then(Value::as_f64);
            if aggregated {
                slot.0 = bpf;
            } else {
                slot.1 = bpf;
            }
        }
        if aggregated == Some(true) {
            match run.get("bytes_reduction").and_then(Value::as_f64) {
                Some(r) if r >= 4.0 => {}
                Some(r) => errors.push(format!(
                    "runs[{i}].bytes_reduction is {r:.2}: aggregation must \
                     cut storage at least 4x under the pool's aliasing"
                )),
                None => errors.push(format!(
                    "runs[{i}] (aggregated) missing numeric `bytes_reduction`"
                )),
            }
        }
        match run.get("deliveries_match") {
            Some(Value::Bool(true)) => {}
            Some(Value::Bool(false)) => errors.push(format!(
                "runs[{i}].deliveries_match is false: aggregated deliveries \
                 diverged from the verbatim twin or the brute-force oracle"
            )),
            Some(v) => errors.push(format!(
                "runs[{i}].deliveries_match must be a bool, found {}",
                v.kind()
            )),
            None => errors.push(format!("runs[{i}] missing `deliveries_match`")),
        }
    }
    for (scheme, (agg, verb)) in &bytes {
        match (agg, verb) {
            (Some(a), Some(v)) if a < v => {}
            (Some(a), Some(v)) => errors.push(format!(
                "{scheme}: aggregated bytes/filter ({a:.1}) must be strictly \
                 below the verbatim baseline ({v:.1})"
            )),
            _ => errors.push(format!(
                "{scheme}: report must contain both an aggregated and a \
                 verbatim run"
            )),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unwrap_in_data_path_is_rejected() {
        let src = "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_source("crates/core/src/bad.rs", src);
        assert_eq!(rules(&v), [NO_PANIC]);
        assert_eq!(v[0].line, 3);
        assert_eq!(exit_code(&v), 1);
    }

    #[test]
    fn every_panic_family_macro_is_rejected() {
        for call in [
            "x.expect(\"y\")",
            "panic!(\"boom\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let src = format!("/// Doc.\npub fn f() {{\n    {call};\n}}\n");
            let v = lint_source("crates/runtime/src/bad.rs", &src);
            assert_eq!(rules(&v), [NO_PANIC], "for {call}");
        }
    }

    #[test]
    fn unwrap_outside_data_path_is_fine() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_source("crates/bench/src/ok.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   None::<u32>.unwrap();\n    }\n}\n";
        assert!(lint_source("crates/core/src/ok.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_comments_and_strings_is_fine() {
        let src = "/// Call `x.unwrap()` like this:\n/// ```\n/// x.unwrap();\n/// ```\n\
                   pub fn f() -> &'static str {\n    \".unwrap() and panic!\"\n}\n";
        assert!(lint_source("crates/core/src/ok.rs", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\n\
                   /// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_source("crates/core/src/bad.rs", src);
        assert_eq!(rules(&v), [NO_PANIC]);
        assert_eq!(v[0].line, 9);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap_or(0).max(x.unwrap_or_default())\n}\n";
        assert!(lint_source("crates/core/src/ok.rs", src).is_empty());
    }

    #[test]
    fn unbounded_without_marker_is_rejected() {
        let src = "/// Doc.\npub fn f() {\n    let (tx, rx) = unbounded::<u32>();\n    \
                   let _ = (tx, rx);\n}\n";
        let v = lint_source("crates/stats/src/bad.rs", src);
        assert_eq!(rules(&v), [NO_UNBOUNDED]);
    }

    #[test]
    fn unbounded_with_marker_is_fine() {
        let same_line =
            "pub fn f() {\n    let c = unbounded::<u32>(); // xtask:allow-unbounded: x\n}\n";
        let line_above =
            "pub fn f() {\n    // xtask:allow-unbounded — reason spanning\n    // two lines\n    \
             let c = unbounded::<u32>();\n}\n";
        assert!(lint_source("crates/stats/src/ok.rs", same_line).is_empty());
        assert!(lint_source("crates/stats/src/ok.rs", line_above).is_empty());
    }

    #[test]
    fn catch_all_in_protocol_dispatch_is_rejected() {
        let src = "fn f(m: u32) {\n    match m {\n        0 => {}\n        _ => {}\n    }\n}\n";
        let v = lint_source("crates/runtime/src/worker.rs", src);
        assert_eq!(rules(&v), [NO_CATCH_ALL]);
        assert_eq!(v[0].line, 4);
        // The same code is fine elsewhere.
        assert!(lint_source("crates/runtime/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn binding_patterns_are_not_catch_alls() {
        let src = "fn f(m: Result<u32, u32>) {\n    match m {\n        Ok(_) => {}\n        \
                   Err(_) => {}\n    }\n}\n";
        assert!(lint_source("crates/runtime/src/engine.rs", src).is_empty());
    }

    #[test]
    fn undocumented_pub_item_is_rejected() {
        let src = "pub struct Naked;\n";
        let v = lint_source("crates/runtime/src/bad.rs", src);
        assert_eq!(rules(&v), [PUB_DOCS]);
        assert!(v[0].message.contains("Naked"));
    }

    #[test]
    fn documented_and_crate_private_items_are_fine() {
        let src = "/// Documented.\n#[derive(Debug, Clone)]\npub struct S;\n\n\
                   pub(crate) struct Hidden;\n\npub use std::fmt;\n\n\
                   /// Documented fn behind attributes.\n#[inline]\n#[must_use]\n\
                   pub fn f() -> u32 {\n    0\n}\n";
        assert!(lint_source("crates/core/src/ok.rs", src).is_empty());
    }

    #[test]
    fn doc_detached_by_blank_line_is_rejected() {
        let src = "/// A doc that drifted away.\n\npub fn f() {}\n";
        let v = lint_source("crates/core/src/bad.rs", src);
        assert_eq!(rules(&v), [PUB_DOCS]);
    }

    fn valid_report() -> String {
        let run = |scheme: &str, mode: &str| {
            format!(
                "{{\"scheme\":\"{scheme}\",\"mode\":\"{mode}\",\
                 \"elapsed_secs\":1.5,\"docs_per_sec\":3500.0,\
                 \"p50_us\":60.5,\"p99_us\":900.0,\
                 \"deliveries\":12345,\"postings_scanned\":67890}}"
            )
        };
        format!(
            "{{\"scale\":0.05,\"nodes\":20,\"filters\":50000,\"docs\":5000,\
             \"runs\":[{},{}]}}",
            run("rs", "sim"),
            run("move", "live")
        )
    }

    #[test]
    fn bench_report_accepts_valid() {
        let errors = check_bench_report(&valid_report());
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
    }

    #[test]
    fn bench_report_rejects_garbage_json() {
        assert!(!check_bench_report("{not json").is_empty());
        assert_eq!(check_bench_report("[1,2,3]").len(), 1);
    }

    #[test]
    fn bench_report_rejects_empty_runs() {
        let src = "{\"scale\":1,\"nodes\":2,\"filters\":3,\"docs\":4,\"runs\":[]}";
        let errors = check_bench_report(src);
        assert!(errors.iter().any(|e| e.contains("must not be empty")));
    }

    #[test]
    fn bench_report_rejects_bad_run_fields() {
        let report = valid_report()
            .replace("\"rs\"", "\"ilx\"")
            .replace("3500.0", "0.0")
            .replace("900.0", "10.0");
        let errors = check_bench_report(&report);
        assert!(
            errors.iter().any(|e| e.contains("not one of")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("must be > 0")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("exceeds p99_us")),
            "{errors:?}"
        );
    }

    #[test]
    fn bench_report_rejects_missing_fields() {
        let errors = check_bench_report("{\"runs\":[{}]}");
        assert!(errors
            .iter()
            .any(|e| e.contains("missing top-level field `scale`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("runs[0] missing `scheme`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("missing numeric `docs_per_sec`")));
    }

    fn scaling_entry(scheme: &str, publishers: u64, speedup: f64, matched: bool) -> String {
        format!(
            "{{\"scheme\":\"{scheme}\",\"mode\":\"live\",\"publishers\":{publishers},\
             \"docs_per_sec\":5000.0,\"speedup\":{speedup},\"deliveries_match\":{matched}}}"
        )
    }

    fn report_with_scaling(entries: &[String]) -> String {
        valid_report().replacen(
            ",\"runs\":",
            &format!(",\"scaling\":[{}],\"runs\":", entries.join(",")),
            1,
        )
    }

    #[test]
    fn bench_report_accepts_a_valid_scaling_sweep() {
        let report = report_with_scaling(&[
            scaling_entry("il", 1, 1.0, true),
            scaling_entry("il", 4, 2.7, true),
            scaling_entry("move", 4, 2.4, true),
        ]);
        let errors = check_bench_report(&report);
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
        // And a report without the sweep stays valid (pre-pool schema).
        assert!(check_bench_report(&valid_report()).is_empty());
    }

    #[test]
    fn bench_report_rejects_bad_scaling_entries() {
        let report = report_with_scaling(&[
            scaling_entry("ilx", 0, -1.0, true),
            "{\"scheme\":\"il\",\"mode\":\"sim\"}".to_string(),
        ]);
        let errors = check_bench_report(&report);
        assert!(errors.iter().any(|e| e.contains("scaling[0].scheme")));
        assert!(errors.iter().any(|e| e.contains("publishers must be >= 1")));
        assert!(errors
            .iter()
            .any(|e| e.contains("speedup must be finite and > 0")));
        assert!(errors.iter().any(|e| e.contains("mode must be \"live\"")));
        assert!(errors
            .iter()
            .any(|e| e.contains("scaling[1] missing `deliveries_match`")));
        assert!(check_bench_report(&report_with_scaling(&[]))
            .iter()
            .any(|e| e.contains("must not be empty when present")));
    }

    #[test]
    fn bench_report_rejects_a_delivery_divergence() {
        let report = report_with_scaling(&[scaling_entry("move", 4, 2.2, false)]);
        let errors = check_bench_report(&report);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("deliveries_match is false")),
            "{errors:?}"
        );
    }

    fn lane_entry(scheme: &str, lanes: u64, speedup: f64, matched: bool) -> String {
        format!(
            "{{\"scheme\":\"{scheme}\",\"mode\":\"live\",\"lanes\":{lanes},\
             \"docs_per_sec\":5000.0,\"speedup\":{speedup},\"deliveries_match\":{matched}}}"
        )
    }

    fn report_with_lanes(entries: &[String]) -> String {
        valid_report().replacen(
            ",\"runs\":",
            &format!(",\"lanes\":[{}],\"runs\":", entries.join(",")),
            1,
        )
    }

    #[test]
    fn bench_report_accepts_a_valid_lane_sweep() {
        let report = report_with_lanes(&[
            lane_entry("il", 1, 1.0, true),
            lane_entry("il", 4, 1.1, true),
            lane_entry("move", 2, 1.05, true),
        ]);
        let errors = check_bench_report(&report);
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
    }

    #[test]
    fn bench_report_rejects_bad_lane_entries() {
        let report = report_with_lanes(&[
            lane_entry("ilx", 0, -1.0, true),
            "{\"scheme\":\"il\",\"mode\":\"sim\"}".to_string(),
        ]);
        let errors = check_bench_report(&report);
        assert!(errors.iter().any(|e| e.contains("lanes[0].scheme")));
        assert!(errors
            .iter()
            .any(|e| e.contains("lanes[0].lanes must be >= 1")));
        assert!(errors
            .iter()
            .any(|e| e.contains("lanes[0].speedup must be finite and > 0")));
        assert!(errors
            .iter()
            .any(|e| e.contains("lanes[1].mode must be \"live\"")));
        assert!(errors
            .iter()
            .any(|e| e.contains("lanes[1] missing `deliveries_match`")));
        assert!(check_bench_report(&report_with_lanes(&[]))
            .iter()
            .any(|e| e.contains("`lanes` must not be empty when present")));
    }

    #[test]
    fn bench_report_rejects_a_lane_delivery_divergence() {
        let report = report_with_lanes(&[lane_entry("move", 4, 1.1, false)]);
        let errors = check_bench_report(&report);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("lanes[0].deliveries_match is false")),
            "{errors:?}"
        );
    }

    #[test]
    fn bench_report_rejects_a_lane_speedup_below_the_floor() {
        // 0.84 was the committed regression this floor exists to block.
        let report = report_with_lanes(&[
            lane_entry("il", 1, 1.0, true),
            lane_entry("move", 4, 0.84, true),
        ]);
        let errors = check_bench_report(&report);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("lanes[1].speedup 0.840 is below the 0.95 floor")),
            "{errors:?}"
        );
    }

    #[test]
    fn bench_report_accepts_lane_speedups_at_the_floor() {
        let report = report_with_lanes(&[
            lane_entry("il", 2, 0.95, true),
            lane_entry("move", 4, 0.96, true),
        ]);
        let errors = check_bench_report(&report);
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
    }

    fn valid_rebalance_report() -> String {
        let run = |scheme: &str, partitions: u64| {
            format!(
                "{{\"scheme\":\"{scheme}\",\"mode\":\"live\",\"publishers\":4,\
                 \"window_docs\":300,\"docs_per_sec\":9000.0,\
                 \"baseline_docs_per_sec\":8500.0,\"dip_ratio\":0.4,\
                 \"joins\":1,\"partitions_moved\":{partitions},\
                 \"docs_double_routed\":515,\"handover_docs\":1715,\
                 \"handover_nanos\":862929624,\"p99_us\":1488.0,\
                 \"deliveries_match\":true}}"
            )
        };
        format!(
            "{{\"scale\":0.05,\"nodes\":20,\"filters\":25000,\"docs\":3000,\
             \"runs\":[{},{}]}}",
            run("il", 12),
            run("move", 12)
        )
    }

    #[test]
    fn rebalance_report_accepts_valid() {
        let errors = check_rebalance_report(&valid_rebalance_report());
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
    }

    #[test]
    fn rebalance_report_rejects_garbage_json() {
        assert!(!check_rebalance_report("{not json").is_empty());
        assert_eq!(check_rebalance_report("[1,2,3]").len(), 1);
    }

    #[test]
    fn rebalance_report_rejects_empty_runs() {
        let src = "{\"scale\":1,\"nodes\":2,\"filters\":3,\"docs\":4,\"runs\":[]}";
        let errors = check_rebalance_report(src);
        assert!(errors.iter().any(|e| e.contains("must not be empty")));
    }

    #[test]
    fn rebalance_report_rejects_a_full_stall() {
        for bad_dip in ["0.0", "1.5", "-0.2"] {
            let report = valid_rebalance_report().replace("0.4", bad_dip);
            let errors = check_rebalance_report(&report);
            assert!(
                errors.iter().any(|e| e.contains("dip_ratio must be in")),
                "dip {bad_dip}: {errors:?}"
            );
        }
    }

    #[test]
    fn rebalance_report_rejects_a_delivery_divergence() {
        let report = valid_rebalance_report().replace("true", "false");
        let errors = check_rebalance_report(&report);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("deliveries_match is false")),
            "{errors:?}"
        );
    }

    #[test]
    fn rebalance_report_rejects_a_join_that_moved_nothing() {
        let report =
            valid_rebalance_report().replace("\"partitions_moved\":12", "\"partitions_moved\":0");
        let errors = check_rebalance_report(&report);
        assert!(
            errors.iter().any(|e| e.contains("moved nothing")),
            "{errors:?}"
        );
        // RS floods every group, so zero moved partitions is legitimate.
        let rs = report
            .replace("\"il\"", "\"rs\"")
            .replace("\"move\"", "\"rs\"");
        assert!(
            check_rebalance_report(&rs).is_empty(),
            "rs may move nothing"
        );
    }

    #[test]
    fn rebalance_report_rejects_missing_fields() {
        let errors = check_rebalance_report("{\"runs\":[{}]}");
        assert!(errors
            .iter()
            .any(|e| e.contains("missing top-level field `scale`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("runs[0] missing `scheme`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("missing numeric `dip_ratio`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("runs[0] missing integer `joins`")));
    }

    fn valid_control_report() -> String {
        let run = |scheme: &str, aggregated: bool| {
            let (mode, canonicals, bpf, reduction) = if aggregated {
                ("aggregated", 2446, 47.7, ",\"bytes_reduction\":5.7")
            } else {
                ("verbatim", 50000, 273.3, "")
            };
            format!(
                "{{\"scheme\":\"{scheme}\",\"mode\":\"{mode}\",\
                 \"subscribers\":50000,\"canonical_filters\":{canonicals},\
                 \"bytes_per_filter\":{bpf}{reduction},\
                 \"bulk_register_secs\":0.5,\
                 \"registrations_per_sec\":1345074.0,\
                 \"unregistrations_per_sec\":1368521.0,\
                 \"docs_per_sec_under_churn\":2024.0,\
                 \"canonical_hit_rate\":0.994,\
                 \"deliveries_match\":true}}"
            )
        };
        format!(
            "{{\"scale\":0.05,\"nodes\":20,\"subscribers\":50000,\
             \"predicate_pool\":2500,\"churn_ticks\":6,\"docs\":1000,\
             \"runs\":[{},{}]}}",
            run("il", true),
            run("il", false)
        )
    }

    #[test]
    fn control_report_accepts_valid() {
        let errors = check_control_report(&valid_control_report());
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
    }

    #[test]
    fn control_report_rejects_garbage_json() {
        assert!(!check_control_report("{not json").is_empty());
        assert_eq!(check_control_report("[1,2,3]").len(), 1);
    }

    #[test]
    fn control_report_rejects_a_delivery_divergence() {
        let report = valid_control_report().replace("true", "false");
        let errors = check_control_report(&report);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("deliveries_match is false")),
            "{errors:?}"
        );
    }

    #[test]
    fn control_report_rejects_a_weak_reduction() {
        let report =
            valid_control_report().replace("\"bytes_reduction\":5.7", "\"bytes_reduction\":2.0");
        let errors = check_control_report(&report);
        assert!(
            errors.iter().any(|e| e.contains("at least 4x")),
            "{errors:?}"
        );
    }

    #[test]
    fn control_report_rejects_aggregation_that_grew_storage() {
        let report = valid_control_report()
            .replace("\"bytes_per_filter\":47.7", "\"bytes_per_filter\":300.0");
        let errors = check_control_report(&report);
        assert!(errors.iter().any(|e| e.contains("strictly")), "{errors:?}");
    }

    #[test]
    fn control_report_requires_both_modes_per_scheme() {
        // Drop the verbatim run: the storage gate has no baseline.
        let report = valid_control_report();
        let agg_only = {
            let cut = report.rfind(",{").expect("two runs");
            format!("{}]}}", &report[..cut])
        };
        let errors = check_control_report(&agg_only);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("both an aggregated and a")),
            "{errors:?}"
        );
    }

    #[test]
    fn control_report_rejects_missing_fields() {
        let errors = check_control_report("{\"runs\":[{}]}");
        assert!(errors
            .iter()
            .any(|e| e.contains("missing top-level field `subscribers`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("runs[0] missing `scheme`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("missing numeric `bytes_per_filter`")));
    }

    #[test]
    fn the_committed_control_report_is_valid() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_control.json");
        let src = fs::read_to_string(path).expect("read committed control report");
        let errors = check_control_report(&src);
        assert!(errors.is_empty(), "committed report invalid: {errors:?}");
    }

    #[test]
    fn the_committed_rebalance_report_is_valid() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_rebalance.json");
        let src = fs::read_to_string(path).expect("read committed rebalance report");
        let errors = check_rebalance_report(&src);
        assert!(errors.is_empty(), "committed report invalid: {errors:?}");
    }

    #[test]
    fn the_committed_bench_report_is_valid() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_hotpath.json");
        let src = fs::read_to_string(path).expect("read committed bench report");
        let errors = check_bench_report(&src);
        assert!(errors.is_empty(), "committed report invalid: {errors:?}");
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = lint_workspace(&root).expect("walk workspace");
        assert!(
            v.is_empty(),
            "workspace lint must be clean:\n{}",
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
