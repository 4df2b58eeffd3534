//! Dependency-free workspace linter (line/token scan, no parser).
//!
//! Eight rules over `crates/**/*.rs` (the `check` crate itself is exempt
//! from the first seven — it implements the shim and the scheduler, so it
//! legitimately touches raw primitives):
//!
//! * **raw-lock** — no `std::sync::Mutex` / `RwLock` / `Condvar` /
//!   `mpsc` outside `oddci_check::sync`, which wraps exactly those std
//!   types (nor `parking_lot` / `crossbeam`, should either re-enter the
//!   build). The shim is the only lock supplier, which is what makes the
//!   lock-order graph complete.
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
//! * **unsafe** — the `unsafe` keyword appears in exactly two files,
//!   `crates/wire/src/poller.rs` (the serving loop's four epoll/eventfd
//!   foreign calls) and `crates/crypto/src/sha256.rs` (the call of the
//!   SHA-256 hardware kernel once the CPU is known to have it), and there
//!   every use sits under a `// SAFETY:` comment. This rule also covers
//!   the root package's `src/`, `tests/` and `examples/`; every other
//!   crate root carries `#![forbid(unsafe_code)]` as well, and
//!   `oddci-crypto`'s carries `#![deny(unsafe_code)]`.
//! * **ledger-home** — the Backend's and the Provider's job registration
//!   and lookup (`register_job(`, `open_request(`, `request_for_job(`)
//!   are called only in `backend.rs`, `provider.rs` and the
//!   `oddci_core::ledger` module that joins them (non-test code). Code
//!   that calls them elsewhere is writing the job glue a second time.
//! * **node-home** — the PNA's state changes (`on_control_message(`,
//!   `on_direct_reset(`, `image_ready(`, `task_done(`) are called only in
//!   `pna.rs` and the `oddci_core::node` core that drives it (non-test
//!   code). Code that calls them elsewhere writes the node rules a second
//!   time.
//! * **unreached** — every `pub fn` of a library crate (any crate but
//!   `cli` and `bench`, whose items are entry points) is named somewhere
//!   besides its definition: in another file of `crates/`, `src/`,
//!   `tests/`, `examples/` or `benchmark/src/`, or in a non-test line of
//!   its own file. A function only its own unit tests call is surface
//!   nobody uses.
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
    /// Rule id: `raw-lock`, `phase`, `message-enum`, `no-unwrap`,
    /// `unsafe`, `ledger-home`, `node-home` or `unreached`.
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
    let phase_vocab = parse_phase_vocabulary(root)?;
    let mut workspace = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        for path in rs_files(&root.join(dir))? {
            workspace.push(Source::load(root, &path)?);
        }
    }
    // The check crate implements the shim/scheduler/linter itself.
    let sources: Vec<&Source> = workspace
        .iter()
        .filter(|s| s.rel.starts_with("crates/") && !s.rel.starts_with("crates/check/"))
        .collect();

    let mut out = Vec::new();
    for src in &sources {
        check_raw_lock(src, &mut out);
        check_phase(src, &phase_vocab, &mut out);
        check_no_unwrap(src, &mut out);
        check_unsafe(src, &mut out);
        check_ledger_home(src, &mut out);
        check_node_home(src, &mut out);
    }
    check_message_enums(&sources, &mut out);
    // The root package sits outside `crates/`; only the unsafe rule
    // follows it there.
    for src in &workspace {
        if ["src/", "tests/", "examples/"]
            .iter()
            .any(|dir| src.rel.starts_with(dir))
        {
            check_unsafe(src, &mut out);
        }
    }
    check_unreached(&workspace, &mut out);
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

fn check_message_enums(sources: &[&Source], out: &mut Vec<LintViolation>) {
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

/// The byte offset where `src`'s test code starts, if it has any. Test
/// modules sit at the bottom of each file by workspace convention, so
/// everything from the first `#[cfg(test)]` down is test code.
fn test_start(src: &Source) -> Option<usize> {
    src.raw.find("#[cfg(test)]")
}

/// The first line of `src`'s test code ([`test_start`] as a line number).
fn test_cutoff(src: &Source) -> usize {
    test_start(src)
        .map(|p| line_of(&src.raw, p))
        .unwrap_or(usize::MAX)
}

fn check_no_unwrap(src: &Source, out: &mut Vec<LintViolation>) {
    if !hot_path(&src.rel) {
        return;
    }
    let cutoff = test_cutoff(src);
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

/// The files allowed to say `unsafe`.
const UNSAFE_HOME: &[&str] = &["crates/wire/src/poller.rs", "crates/crypto/src/sha256.rs"];
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
        let message = if !UNSAFE_HOME.contains(&src.rel.as_str()) {
            format!(
                "`unsafe` outside {} — the workspace keeps its unsafe code in those files",
                UNSAFE_HOME.join(" and ")
            )
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

// ---------------------------------------------------------- ledger-home

/// The files allowed to register jobs and open or look up requests.
const LEDGER_HOME: &[&str] = &[
    "crates/core/src/backend.rs",
    "crates/core/src/provider.rs",
    "crates/core/src/ledger.rs",
];
const LEDGER_TOKENS: &[&str] = &["register_job(", "open_request(", "request_for_job("];

fn check_ledger_home(src: &Source, out: &mut Vec<LintViolation>) {
    // A crate's `tests/` directory is test code throughout.
    if LEDGER_HOME.contains(&src.rel.as_str()) || src.rel.contains("/tests/") {
        return;
    }
    let cutoff = test_cutoff(src);
    for needle in LEDGER_TOKENS {
        for pos in find_tokens(&src.scrubbed, needle) {
            let line = line_of(&src.scrubbed, pos);
            if line >= cutoff || src.is_allowed("ledger-home", line) {
                continue;
            }
            out.push(LintViolation {
                rule: "ledger-home",
                file: src.rel.clone(),
                line,
                message: format!(
                    "`{needle}..)` outside the Backend, the Provider and oddci_core::ledger — drive jobs through JobLedger"
                ),
            });
        }
    }
}

// ------------------------------------------------------------ node-home

/// The files allowed to drive a `Pna` through its state changes.
const NODE_HOME: &[&str] = &["crates/core/src/pna.rs", "crates/core/src/node.rs"];
const NODE_TOKENS: &[&str] = &[
    ".on_control_message(",
    ".on_control_message_with(",
    ".on_direct_reset(",
    ".image_ready(",
    ".task_done(",
];

fn check_node_home(src: &Source, out: &mut Vec<LintViolation>) {
    // A crate's `tests/` directory is test code throughout.
    if NODE_HOME.contains(&src.rel.as_str()) || src.rel.contains("/tests/") {
        return;
    }
    let cutoff = test_cutoff(src);
    for needle in NODE_TOKENS {
        let mut from = 0;
        while let Some(p) = src.scrubbed[from..].find(needle) {
            let pos = from + p;
            from = pos + needle.len();
            let line = line_of(&src.scrubbed, pos);
            // `self.` calls a method of the file's own type.
            if line >= cutoff
                || src.scrubbed[..pos].ends_with("self")
                || src.is_allowed("node-home", line)
            {
                continue;
            }
            out.push(LintViolation {
                rule: "node-home",
                file: src.rel.clone(),
                line,
                message: format!(
                    "`{}..)` outside the PNA and oddci_core::node — drive the agent through NodeCore",
                    &needle[1..]
                ),
            });
        }
    }
}

// ------------------------------------------------------------ unreached

/// A library file: crate source outside `cli` and `bench`, whose public
/// functions are entry points rather than surface for other code.
fn library_file(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.starts_with("crates/cli/")
        && !rel.starts_with("crates/bench/")
}

/// How often each identifier occurs in `text`.
fn word_counts(text: &str) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if !word.is_empty() {
            *out.entry(word).or_insert(0) += 1;
        }
    }
    out
}

fn check_unreached(workspace: &[Source], out: &mut Vec<LintViolation>) {
    let words: Vec<BTreeMap<&str, usize>> =
        workspace.iter().map(|s| word_counts(&s.scrubbed)).collect();
    for (i, src) in workspace.iter().enumerate() {
        if !library_file(&src.rel) {
            continue;
        }
        let non_test = &src.scrubbed[..test_start(src).unwrap_or(src.raw.len())];
        let here = word_counts(non_test);
        for needle in ["pub fn ", "pub const fn "] {
            for pos in find_tokens(non_test, needle) {
                let name: String = non_test[pos + needle.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let line = line_of(non_test, pos);
                // The definition itself is one of this file's mentions.
                let reached = here.get(name.as_str()).is_some_and(|&n| n > 1)
                    || words
                        .iter()
                        .enumerate()
                        .any(|(j, w)| j != i && w.contains_key(name.as_str()));
                if name.is_empty() || reached || src.is_allowed("unreached", line) {
                    continue;
                }
                out.push(LintViolation {
                    rule: "unreached",
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "`pub fn {name}` is named by no other workspace or benchmark file and by no non-test line of its own — delete it"
                    ),
                });
            }
        }
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
    fn unsafe_is_confined_to_its_homes_and_explained_there() {
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
        // The crypto crate's other files are not homes.
        let explained = "fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g() }\n}\n";
        check_unsafe(&source("crates/crypto/src/hmac.rs", explained), &mut out);
        assert_eq!(out.len(), 2);
        for v in &out {
            assert!(v.message.contains("outside"), "{v}");
        }

        out.clear();
        let bare = "fn f() {\n    unsafe { g() }\n}\n";
        for home in UNSAFE_HOME {
            check_unsafe(&source(home, explained), &mut out);
            assert!(out.is_empty(), "{out:?}");
            check_unsafe(&source(home, bare), &mut out);
            assert_eq!(out.len(), 1, "{home}");
            assert!(out[0].message.contains("SAFETY"), "{}", out[0]);
            out.clear();
        }
    }

    #[test]
    fn job_glue_is_confined_to_the_ledger() {
        let mut out = Vec::new();
        let glue = "fn f(p: &mut Provider) {\n    p.open_request(job, inst, 1, now);\n}\n";
        for home in LEDGER_HOME {
            check_ledger_home(&source(home, glue), &mut out);
        }
        // Prose, test modules and integration tests do not count.
        let tested = "// b.register_job(job, now) in prose\n#[cfg(test)]\nmod tests {\n    fn t() { b.register_job(job, now); }\n}\n";
        check_ledger_home(&source("crates/live/src/headend.rs", tested), &mut out);
        check_ledger_home(&source("crates/core/tests/props.rs", glue), &mut out);
        assert!(out.is_empty(), "{out:?}");

        let glue_sites = "let req = self.provider.request_for_job(job);\nb.register_job(job, now);\nfn register_jobs() {}\n";
        check_ledger_home(
            &source("crates/core/src/world/mod.rs", glue_sites),
            &mut out,
        );
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 1], "{out:?}");
        assert!(out.iter().all(|v| v.rule == "ledger-home"));
    }

    #[test]
    fn pna_transitions_are_confined_to_the_node_core() {
        let mut out = Vec::new();
        let driven = "fn f(pna: &mut Pna) {\n    pna.on_control_message(&msg, host, rng);\n    let _ = pna.task_done();\n}\n";
        for home in NODE_HOME {
            check_node_home(&source(home, driven), &mut out);
        }
        // Prose, definitions, calls on `self`, test modules and
        // integration tests do not count.
        let quiet = "// pna.image_ready() in prose\npub fn task_done(&mut self) {}\nfn g(&mut self) { self.on_direct_reset(node, inst, epoch, now, out) }\n#[cfg(test)]\nmod tests {\n    fn t() { pna.image_ready().unwrap(); }\n}\n";
        check_node_home(&source("crates/core/src/world/mod.rs", quiet), &mut out);
        check_node_home(&source("crates/core/tests/node_props.rs", driven), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // The calls of a sim world and a live node thread that each write
        // the node rules themselves: 4 and 8 sites.
        let world = "let action = node.pna.on_control_message(&msg, host, &mut node.rng);\nnode.pna.image_ready().expect(\"loading DVE starts\");\nif node.current_task.is_none() || node.pna.task_done().is_err() {\nif node.pna.on_direct_reset(inst) {\n} => self.on_direct_reset(node, instance, epoch, now, &mut sched),\n";
        let live = "pna.on_control_message(&b.signed, host, &mut rng)\npna.on_direct_reset(instance);\npna.on_direct_reset(inst);\nlet _ = pna.image_ready();\npna.on_control_message(&b.signed, host, rng)\npna.on_control_message(&b.signed, host, rng)\nlet _ = pna.task_done();\npna.on_control_message(&b.signed, host, rng)\n";
        check_node_home(&source("crates/core/src/world/mod.rs", world), &mut out);
        check_node_home(&source("crates/live/src/runtime.rs", live), &mut out);
        let per_file = |file: &str| out.iter().filter(|v| v.file == file).count();
        assert_eq!(per_file("crates/core/src/world/mod.rs"), 4, "{out:?}");
        assert_eq!(per_file("crates/live/src/runtime.rs"), 8, "{out:?}");
        assert!(out.iter().all(|v| v.rule == "node-home"));
    }

    #[test]
    fn uncalled_library_functions_are_unreached() {
        let lib = source(
            "crates/demo/src/lib.rs",
            "pub fn by_a_bin() {}\npub fn by_itself() {}\npub fn by_a_test() {}\n\
             pub fn by_the_bench() {}\npub fn in_prose() {}\n\
             // oddci-check: allow(unreached)\npub const fn allowed() {}\n\
             fn f() { by_itself() }\n#[cfg(test)]\nmod tests {\n    fn t() { super::in_prose(); }\n}\n",
        );
        let bin = source(
            "crates/cli/src/main.rs",
            "pub fn entry() {}\nfn main() { demo::by_a_bin(); } // in_prose()\n",
        );
        let test = source("tests/demo.rs", "#[test]\nfn t() { demo::by_a_test(); }\n");
        let bench = source("benchmark/src/sut.rs", "pub use demo::by_the_bench;\n");
        let mut out = Vec::new();
        check_unreached(&[lib, bin, test, bench], &mut out);
        let found: Vec<(&str, usize)> = out.iter().map(|v| (v.file.as_str(), v.line)).collect();
        assert_eq!(found, [("crates/demo/src/lib.rs", 5)], "{out:?}");
        assert!(out[0].message.contains("in_prose"));
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
