//! Dependency-free workspace linter (line/token scan, no parser).
//!
//! Five rules over `crates/**/*.rs` (the `check` crate itself is exempt —
//! it implements the shim and the scheduler, so it legitimately touches
//! raw primitives):
//!
//! * **raw-lock** — no `parking_lot`, `crossbeam`, `std::sync::Mutex` /
//!   `RwLock` / `Condvar` / `mpsc` outside `oddci_check::sync`. The shim
//!   is the only lock supplier, which is what makes the lock-order graph
//!   complete.
//! * **phase** — the telemetry phase vocabulary stays closed: every
//!   `Phase::X` names a variant declared in
//!   `crates/telemetry/src/event.rs`, span phases are only emitted
//!   through the RAII-complete `span(..)` / `duration(..)` entry points
//!   (which guarantee an end on every return path), and instant phases
//!   only through `instant(..)`.
//! * **message-enum** — every variant of a `*Msg` enum in `crates/live`
//!   is referenced somewhere by qualified name (`Enum::Variant`), i.e.
//!   has a construction/handler site; a variant nobody matches is a
//!   protocol hole.
//! * **no-unwrap** — `.unwrap()` / `.expect(` are banned in the live hot
//!   paths: `crates/live/src/**`, `crates/wire/src/**` and
//!   `crates/telemetry/src/sink.rs` (non-test code). Panicking across the headend poisons nothing (the
//!   shim is non-poisoning) but silently kills a thread the shutdown
//!   accounting then has to explain.
//! * **unsafe** — the `unsafe` keyword appears in exactly one file,
//!   `crates/wire/src/poller.rs` (the serving loop's four epoll/eventfd
//!   foreign calls), and there every use sits under a `// SAFETY:`
//!   comment. This rule also covers the root package's `src/`, `tests/`
//!   and `examples/`; every other crate root carries
//!   `#![forbid(unsafe_code)]` as well.
//!
//! Suppress a finding with a trailing or preceding comment:
//! `// oddci-check: allow(<rule>)` (applies to that line and the next).
//! Comments are stripped before token scanning, so prose never trips a
//! rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct LintViolation {
    /// Rule id: `raw-lock`, `phase`, `message-enum`, `no-unwrap` or
    /// `unsafe`.
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Ascend from `start` until a directory containing
/// `crates/telemetry/src/event.rs` is found (the workspace root).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().unwrap_or_else(|_| start.to_path_buf());
    for _ in 0..6 {
        if dir.join("crates/telemetry/src/event.rs").is_file() {
            return Some(dir);
        }
        dir = dir.parent()?.to_path_buf();
    }
    None
}

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Vec<LintViolation>> {
    let files = rs_files(&root.join("crates"))?;
    let phase_vocab = parse_phase_vocabulary(root)?;
    let mut sources = Vec::new();
    for path in &files {
        let src = Source::load(root, path)?;
        // The check crate implements the shim/scheduler/linter itself.
        if !src.rel.starts_with("crates/check/") {
            sources.push(src);
        }
    }

    let mut out = Vec::new();
    for src in &sources {
        check_raw_lock(src, &mut out);
        check_phase(src, &phase_vocab, &mut out);
        check_no_unwrap(src, &mut out);
        check_unsafe(src, &mut out);
    }
    check_message_enums(&sources, &mut out);
    // The root package sits outside `crates/`; only the unsafe rule
    // follows it there.
    for dir in ["src", "tests", "examples"] {
        for path in rs_files(&root.join(dir))? {
            check_unsafe(&Source::load(root, &path)?, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

struct Source {
    rel: String,
    raw: String,
    scrubbed: String,
    /// line number → rules suppressed on that line.
    allowed: BTreeMap<usize, BTreeSet<String>>,
}

impl Source {
    fn load(root: &Path, path: &Path) -> io::Result<Source> {
        let raw = fs::read_to_string(path)?;
        Ok(Source {
            rel: path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/"),
            allowed: suppressions(&raw),
            scrubbed: scrub(&raw),
            raw,
        })
    }

    fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allowed
            .get(&line)
            .is_some_and(|rules| rules.contains(rule))
    }
}

fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match fs::read_dir(&d) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries {
            let path = entry?.path();
            if path.is_dir() {
                let name = path.file_name().map(|n| n.to_string_lossy().to_string());
                if name.as_deref() != Some("target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Replace `//` line comments and `/* */` block comments with spaces,
/// preserving offsets and newlines so line numbers stay valid. String
/// literals are left alone — token needles are chosen so real-world
/// strings don't collide.
fn scrub(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    let mut in_str = false;
    let mut in_line = false;
    let mut in_block = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if in_line {
            if c == b'\n' {
                in_line = false;
            } else {
                out[i] = b' ';
            }
        } else if in_block > 0 {
            if c == b'*' && bytes.get(i + 1) == Some(&b'/') {
                out[i] = b' ';
                out[i + 1] = b' ';
                in_block -= 1;
                i += 2;
                continue;
            }
            if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                in_block += 1;
            }
            if c != b'\n' {
                out[i] = b' ';
            }
        } else if in_str {
            if c == b'\\' {
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            in_line = true;
            out[i] = b' ';
        } else if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            in_block = 1;
            out[i] = b' ';
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `// oddci-check: allow(rule)` comments; each covers its own line
/// and the following one.
fn suppressions(raw: &str) -> BTreeMap<usize, BTreeSet<String>> {
    let marker = "oddci-check: allow(";
    let mut out: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(pos) = line.find(marker) else {
            continue;
        };
        let rest = &line[pos + marker.len()..];
        let Some(end) = rest.find(')') else { continue };
        let rule = rest[..end].trim().to_string();
        let ln = idx + 1;
        out.entry(ln).or_default().insert(rule.clone());
        out.entry(ln + 1).or_default().insert(rule);
    }
    out
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// True when `needle` occurs at `pos` *not* preceded by an identifier
/// character (so `span(` doesn't match inside `span_durations_us(`).
fn token_at(text: &str, pos: usize, _needle: &str) -> bool {
    if pos == 0 {
        return true;
    }
    let prev = text.as_bytes()[pos - 1];
    !(prev.is_ascii_alphanumeric() || prev == b'_')
}

fn find_tokens(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find(needle) {
        let pos = from + p;
        if token_at(text, pos, needle) {
            out.push(pos);
        }
        from = pos + needle.len();
    }
    out
}

// ------------------------------------------------------------- raw-lock

const RAW_LOCK_TOKENS: &[&str] = &[
    "parking_lot",
    "crossbeam",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
    "std::sync::mpsc",
];

fn check_raw_lock(src: &Source, out: &mut Vec<LintViolation>) {
    for needle in RAW_LOCK_TOKENS {
        for pos in find_tokens(&src.scrubbed, needle) {
            let line = line_of(&src.scrubbed, pos);
            if src.is_allowed("raw-lock", line) {
                continue;
            }
            out.push(LintViolation {
                rule: "raw-lock",
                file: src.rel.clone(),
                line,
                message: format!(
                    "raw `{needle}` outside the oddci_check::sync shim — use the shim so the lock-order graph stays complete"
                ),
            });
        }
    }
    // `use std::sync::{..}` group imports pulling in a banned item.
    for pos in find_tokens(&src.scrubbed, "std::sync::{") {
        let rest = &src.scrubbed[pos..];
        let Some(close) = rest.find('}') else {
            continue;
        };
        let group = &rest[..close];
        for item in ["Mutex", "RwLock", "Condvar", "mpsc"] {
            if group
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .any(|tok| tok == item)
            {
                let line = line_of(&src.scrubbed, pos);
                if src.is_allowed("raw-lock", line) {
                    continue;
                }
                out.push(LintViolation {
                    rule: "raw-lock",
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "raw `std::sync::{item}` imported outside the oddci_check::sync shim"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- phase

struct PhaseVocab {
    variants: BTreeSet<String>,
    span: BTreeSet<String>,
}

fn phase_idents(region: &str) -> Vec<String> {
    let mut out = Vec::new();
    for pos in find_tokens(region, "Phase::") {
        let rest = &region[pos + "Phase::".len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !ident.is_empty() {
            out.push(ident);
        }
    }
    out
}

fn parse_phase_vocabulary(root: &Path) -> io::Result<PhaseVocab> {
    let text = scrub(&fs::read_to_string(
        root.join("crates/telemetry/src/event.rs"),
    )?);
    let all_start = text.find("const ALL").ok_or_else(|| {
        io::Error::other("event.rs: `const ALL` phase list not found — phase lint can't run")
    })?;
    // Skip past the type annotation (`: [Phase; N] =`) to the list itself.
    let eq = text[all_start..]
        .find('=')
        .map(|p| all_start + p)
        .ok_or_else(|| io::Error::other("event.rs: malformed ALL list"))?;
    let all_region = &text[eq..];
    let all_end = all_region
        .find(']')
        .ok_or_else(|| io::Error::other("event.rs: unterminated ALL list"))?;
    let variants: BTreeSet<String> = phase_idents(&all_region[..all_end]).into_iter().collect();

    let span_start = text.find("fn is_span").ok_or_else(|| {
        io::Error::other("event.rs: `fn is_span` not found — phase lint can't run")
    })?;
    let span_region = &text[span_start..];
    let span_end = span_region
        .find(')')
        .map(|p| {
            // Skip past the `(&self)` parameter list to the matches! body.
            span_region[p + 1..]
                .find(')')
                .map(|q| p + 1 + q)
                .unwrap_or(span_region.len())
        })
        .unwrap_or(span_region.len());
    let span: BTreeSet<String> = phase_idents(&span_region[..span_end]).into_iter().collect();
    if variants.is_empty() || span.is_empty() {
        return Err(io::Error::other(
            "event.rs: parsed an empty phase vocabulary",
        ));
    }
    Ok(PhaseVocab { variants, span })
}

const EMIT_SPAN: &[&str] = &["span(", "duration("];
const EMIT_INSTANT: &[&str] = &["instant("];

fn check_phase(src: &Source, vocab: &PhaseVocab, out: &mut Vec<LintViolation>) {
    if src.rel == "crates/telemetry/src/event.rs" {
        return; // The vocabulary definition itself.
    }
    for pos in find_tokens(&src.scrubbed, "Phase::") {
        let line = line_of(&src.scrubbed, pos);
        if src.is_allowed("phase", line) {
            continue;
        }
        let rest = &src.scrubbed[pos + "Phase::".len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || ident == "ALL" || ident == "COUNT" {
            continue;
        }
        if !vocab.variants.contains(&ident) {
            out.push(LintViolation {
                rule: "phase",
                file: src.rel.clone(),
                line,
                message: format!(
                    "`Phase::{ident}` is not in the closed vocabulary declared in crates/telemetry/src/event.rs"
                ),
            });
            continue;
        }
        // Emission-discipline: look backwards within the statement for
        // the nearest emit entry point.
        let stmt_start = src.scrubbed[..pos]
            .rfind([';', '{', '}'])
            .map(|p| p + 1)
            .unwrap_or(0);
        let window = &src.scrubbed[stmt_start..pos];
        let nearest = |needles: &[&str]| -> Option<usize> {
            needles.iter().flat_map(|n| find_tokens(window, n)).max()
        };
        let span_call = nearest(EMIT_SPAN);
        let instant_call = nearest(EMIT_INSTANT);
        let is_span = vocab.span.contains(&ident);
        match (span_call, instant_call) {
            (Some(s), i) if i.is_none_or(|i| s > i) && !is_span => {
                out.push(LintViolation {
                    rule: "phase",
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "instant phase `Phase::{ident}` emitted through span()/duration() — instant phases must use instant()"
                    ),
                });
            }
            (s, Some(i)) if s.is_none_or(|s| i > s) && is_span => {
                out.push(LintViolation {
                    rule: "phase",
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "span phase `Phase::{ident}` emitted through instant() — span phases must use span()/duration() so every begin gets an end on all return paths"
                    ),
                });
            }
            _ => {}
        }
    }
}

// --------------------------------------------------------- message-enum

fn check_message_enums(sources: &[Source], out: &mut Vec<LintViolation>) {
    // Collect `enum *Msg` variants declared in crates/live.
    let mut enums: Vec<(String, String, usize, Vec<String>)> = Vec::new(); // (file, name, line, variants)
    for src in sources {
        if !src.rel.starts_with("crates/live/") {
            continue;
        }
        for pos in find_tokens(&src.scrubbed, "enum ") {
            let rest = &src.scrubbed[pos + "enum ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.ends_with("Msg") {
                continue;
            }
            let Some(open) = rest.find('{') else { continue };
            let Some(close) = rest[open..].find("\n}") else {
                continue;
            };
            let body = &rest[open + 1..open + close];
            let mut variants = Vec::new();
            for line in body.lines() {
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                let ident: String = t
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    variants.push(ident);
                }
            }
            enums.push((src.rel.clone(), name, line_of(&src.scrubbed, pos), variants));
        }
    }
    for (file, name, line, variants) in enums {
        for variant in variants {
            let qualified = format!("{name}::{variant}");
            let used = sources
                .iter()
                .filter(|s| s.rel.starts_with("crates/live/"))
                .any(|s| !find_tokens(&s.scrubbed, &qualified).is_empty());
            if !used {
                let src = sources.iter().find(|s| s.rel == file);
                if src.is_some_and(|s| s.is_allowed("message-enum", line)) {
                    continue;
                }
                out.push(LintViolation {
                    rule: "message-enum",
                    file: file.clone(),
                    line,
                    message: format!(
                        "message variant `{qualified}` has no qualified use (no handler or construction site) in crates/live"
                    ),
                });
            }
        }
    }
}

// ------------------------------------------------------------ no-unwrap

fn hot_path(rel: &str) -> bool {
    rel.starts_with("crates/live/src/")
        || rel.starts_with("crates/wire/src/")
        || rel == "crates/telemetry/src/sink.rs"
}

fn check_no_unwrap(src: &Source, out: &mut Vec<LintViolation>) {
    if !hot_path(&src.rel) {
        return;
    }
    // Test modules sit at the bottom of each file by workspace
    // convention; everything from the first #[cfg(test)] down is exempt.
    let cutoff = src
        .raw
        .find("#[cfg(test)]")
        .map(|p| line_of(&src.raw, p))
        .unwrap_or(usize::MAX);
    for needle in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(p) = src.scrubbed[from..].find(needle) {
            let pos = from + p;
            from = pos + needle.len();
            let line = line_of(&src.scrubbed, pos);
            if line >= cutoff || src.is_allowed("no-unwrap", line) {
                continue;
            }
            out.push(LintViolation {
                rule: "no-unwrap",
                file: src.rel.clone(),
                line,
                message: format!(
                    "`{needle}` in a live hot path — propagate the error (shutdown accounting must see every failure)"
                ),
            });
        }
    }
}

// --------------------------------------------------------------- unsafe

/// The one file allowed to say `unsafe`.
const UNSAFE_HOME: &str = "crates/wire/src/poller.rs";
/// How many lines above an `unsafe` its `// SAFETY:` comment may start.
const SAFETY_WINDOW: usize = 4;

fn check_unsafe(src: &Source, out: &mut Vec<LintViolation>) {
    let needle = "unsafe";
    for pos in find_tokens(&src.scrubbed, needle) {
        // `unsafe_code` (as in `forbid(unsafe_code)`) is another word.
        let next = src.scrubbed.as_bytes().get(pos + needle.len());
        if next.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
            continue;
        }
        let line = line_of(&src.scrubbed, pos);
        if src.is_allowed("unsafe", line) {
            continue;
        }
        let message = if src.rel != UNSAFE_HOME {
            format!("`unsafe` outside {UNSAFE_HOME} — the workspace keeps its foreign calls in that one file")
        } else if !src
            .raw
            .lines()
            .skip(line.saturating_sub(SAFETY_WINDOW + 1))
            .take(SAFETY_WINDOW)
            .any(|l| l.trim_start().starts_with("// SAFETY:"))
        {
            format!("`unsafe` without a `// SAFETY:` comment in the {SAFETY_WINDOW} lines above it")
        } else {
            continue;
        };
        out.push(LintViolation {
            rule: "unsafe",
            file: src.rel.clone(),
            line,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(rel: &str, raw: &str) -> Source {
        Source {
            rel: rel.to_string(),
            raw: raw.to_string(),
            scrubbed: scrub(raw),
            allowed: suppressions(raw),
        }
    }

    #[test]
    fn unsafe_is_confined_to_the_poller_and_explained_there() {
        let mut out = Vec::new();
        // Attributes and prose do not count; the keyword does.
        check_unsafe(
            &source(
                "crates/live/src/lib.rs",
                "#![forbid(unsafe_code)]\n// unsafe in prose\nfn f() {}\n",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        check_unsafe(
            &source("crates/live/src/x.rs", "fn f() { unsafe { g() } }\n"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("outside"), "{}", out[0]);

        out.clear();
        let explained = "fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g() }\n}\n";
        check_unsafe(&source(UNSAFE_HOME, explained), &mut out);
        assert!(out.is_empty(), "{out:?}");
        check_unsafe(
            &source(UNSAFE_HOME, "fn f() {\n    unsafe { g() }\n}\n"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("SAFETY"), "{}", out[0]);
    }

    #[test]
    fn scrub_blanks_comments_preserving_lines() {
        let s = scrub("let a = 1; // unwrap() here\n/* parking_lot */ let b = 2;\n");
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("parking_lot"));
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("let b = 2;"));
        // String literals survive scrubbing.
        let s = scrub("let m = \"// not a comment\";\n");
        assert!(s.contains("not a comment"));
    }

    #[test]
    fn token_boundaries_respected() {
        assert_eq!(find_tokens("span_durations_us(x, y)", "span(").len(), 0);
        assert_eq!(find_tokens("tele.span(a, b)", "span(").len(), 1);
        assert_eq!(find_tokens("r.instant(t)", "instant(").len(), 1);
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let sup = suppressions("x\n// oddci-check: allow(no-unwrap)\ny.unwrap()\n");
        assert!(sup.get(&2).is_some_and(|r| r.contains("no-unwrap")));
        assert!(sup.get(&3).is_some_and(|r| r.contains("no-unwrap")));
        assert!(!sup.contains_key(&4));
    }

    #[test]
    fn workspace_is_clean() {
        let root = find_root(Path::new(".")).expect("workspace root findable from test cwd");
        let violations = run(&root).expect("lint runs");
        assert!(
            violations.is_empty(),
            "workspace lint must be clean:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
