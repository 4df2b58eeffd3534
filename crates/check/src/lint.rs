//! Dependency-free workspace linter (line/token scan, no parser) for the
//! invariants the compiler cannot express.
//!
//! Four rules: the first three over `crates/**/*.rs`, the last over
//! every Rust file of the workspace and `benchmark/src/`.
//!
//! * **phase** — the telemetry phase vocabulary stays closed: every
//!   `Phase::X` names a variant declared in
//!   `crates/telemetry/src/event.rs`, span phases are only emitted
//!   through the RAII-complete `span(..)` / `duration(..)` entry points
//!   (which guarantee an end on every return path), and instant phases
//!   only through `instant(..)`.
//! * **ledger-home** — the Backend's and the Provider's job registration
//!   and lookup (`register_job(`, `open_request(`, `request_for_job(`)
//!   are called only in `backend.rs`, `provider.rs` and the
//!   `oddci_core::ledger` module that joins them (non-test code). Code
//!   that calls them elsewhere is writing the job glue a second time.
//!   The benchmark calls them too, so visibility cannot confine them.
//! * **node-home** — the PNA's state changes (`on_control_message(`,
//!   `on_direct_reset(`, `image_ready(`, `task_done(`) are called only in
//!   `pna.rs` and the `oddci_core::node` core that drives it (non-test
//!   code). Code that calls them elsewhere writes the node rules a second
//!   time.
//! * **unreached** — every `pub fn` of a library crate (any crate but
//!   `cli` and `bench`, whose items are entry points) is named in some
//!   file outside that crate's `src/`: another crate, an integration test
//!   (the crate's own `tests/` included), an example or `benchmark/src/`.
//!   A function only its own crate names is `pub(crate)`, and rustc's
//!   `dead_code` then reports it if nothing calls it.
//!
//! The other workspace invariants are compiler lints, which resolve
//! paths and types where this scan only matches words:
//!
//! * raw locks and channels outside the `oddci_check::sync` shim —
//!   clippy's `disallowed_types` / `disallowed_methods` (`clippy.toml`);
//! * `unwrap` / `expect` in the live hot paths — `clippy::unwrap_used` /
//!   `clippy::expect_used` at the `oddci-live` and `oddci-wire` roots and
//!   in `crates/telemetry/src/sink.rs`;
//! * `unsafe` — `unsafe_code = "deny"` for the whole workspace, allowed
//!   only on the wire poller and the SHA-256 kernel's dispatch, each
//!   block under a `// SAFETY:` comment
//!   (`clippy::undocumented_unsafe_blocks`);
//! * every live bus message handled — the crate-private `BusMsg`'s
//!   exhaustive matches and `dead_code`.
//!
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
    /// Rule id: `phase`, `ledger-home`, `node-home` or `unreached`.
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

    let mut out = Vec::new();
    for src in workspace.iter().filter(|s| s.rel.starts_with("crates/")) {
        check_phase(src, &phase_vocab, &mut out);
        check_ledger_home(src, &mut out);
        check_node_home(src, &mut out);
    }
    check_unreached(&workspace, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

struct Source {
    rel: String,
    raw: String,
    scrubbed: String,
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
            scrubbed: scrub(&raw),
            raw,
        })
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

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier `text` starts with (empty if none).
fn ident_at(text: &str) -> &str {
    let end = text.bytes().position(|b| !is_ident_byte(b));
    &text[..end.unwrap_or(text.len())]
}

/// Offsets of `needle` in `text` *not* preceded by an identifier
/// character (so `span(` doesn't match inside `span_durations_us(`).
fn find_tokens(text: &str, needle: &str) -> Vec<usize> {
    text.match_indices(needle)
        .map(|(pos, _)| pos)
        .filter(|&pos| pos == 0 || !is_ident_byte(text.as_bytes()[pos - 1]))
        .collect()
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

// ---------------------------------------------------------------- phase

struct PhaseVocab {
    variants: BTreeSet<String>,
    span: BTreeSet<String>,
}

fn phase_idents(region: &str) -> BTreeSet<String> {
    find_tokens(region, "Phase::")
        .into_iter()
        .map(|pos| ident_at(&region[pos + "Phase::".len()..]))
        .filter(|ident| !ident.is_empty())
        .map(str::to_string)
        .collect()
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
    let variants = phase_idents(&all_region[..all_end]);

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
    let span = phase_idents(&span_region[..span_end]);
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
        let ident = ident_at(&src.scrubbed[pos + "Phase::".len()..]);
        if ident.is_empty() || ident == "ALL" || ident == "COUNT" {
            continue;
        }
        if !vocab.variants.contains(ident) {
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
        let is_span = vocab.span.contains(ident);
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
            if line >= cutoff {
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
        for (pos, _) in src.scrubbed.match_indices(needle) {
            let line = line_of(&src.scrubbed, pos);
            // `self.` calls a method of the file's own type.
            if line >= cutoff || src.scrubbed[..pos].ends_with("self") {
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

/// The crate whose library source `rel` is (`crates/<name>/src/..`), or
/// `None` for a file outside every crate's `src/`: an integration test,
/// an example, the root package or the benchmark.
fn library_crate(rel: &str) -> Option<&str> {
    let (name, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    path.starts_with("src/").then_some(name)
}

fn check_unreached(workspace: &[Source], out: &mut Vec<LintViolation>) {
    // Each identifier → the crates whose `src/` names it (`None` for the
    // files outside every crate's `src/`).
    let mut namers: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for src in workspace {
        let home = library_crate(&src.rel);
        for word in src
            .scrubbed
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        {
            namers.entry(word).or_default().insert(home);
        }
    }
    for src in workspace {
        let Some(home) = library_crate(&src.rel).filter(|c| !["cli", "bench"].contains(c)) else {
            continue;
        };
        let non_test = &src.scrubbed[..test_start(src).unwrap_or(src.raw.len())];
        for needle in ["pub fn ", "pub const fn "] {
            for pos in find_tokens(non_test, needle) {
                let name = ident_at(&non_test[pos + needle.len()..]);
                if name.is_empty() || namers[name].iter().any(|&c| c != Some(home)) {
                    continue;
                }
                out.push(LintViolation {
                    rule: "unreached",
                    file: src.rel.clone(),
                    line: line_of(non_test, pos),
                    message: format!(
                        "`pub fn {name}` is named nowhere outside crates/{home}/src — make it `pub(crate)`"
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
             pub fn by_the_bench() {}\npub fn in_prose() {}\npub fn by_own_tests() {}\n\
             pub const fn by_a_sibling() {}\n\
             fn f() { by_itself() }\n#[cfg(test)]\nmod tests {\n    fn t() { super::in_prose(); }\n}\n",
        );
        // Another file of the same crate is inside it; the crate's own
        // integration tests are outside.
        let sibling = source(
            "crates/demo/src/util.rs",
            "fn g() { crate::by_a_sibling() }\n",
        );
        let own_tests = source(
            "crates/demo/tests/t.rs",
            "fn t() { demo::by_own_tests(); }\n",
        );
        let bin = source(
            "crates/cli/src/main.rs",
            "pub fn entry() {}\nfn main() { demo::by_a_bin(); } // in_prose()\n",
        );
        let test = source("tests/demo.rs", "#[test]\nfn t() { demo::by_a_test(); }\n");
        let bench = source("benchmark/src/sut.rs", "pub use demo::by_the_bench;\n");
        let mut out = Vec::new();
        check_unreached(&[lib, sibling, own_tests, bin, test, bench], &mut out);
        let found: Vec<(&str, usize)> = out.iter().map(|v| (v.file.as_str(), v.line)).collect();
        let lib_rs = "crates/demo/src/lib.rs";
        assert_eq!(found, [(lib_rs, 2), (lib_rs, 5), (lib_rs, 7)], "{out:?}");
        for (v, name) in out.iter().zip(["by_itself", "in_prose", "by_a_sibling"]) {
            assert!(v.message.contains(&format!("`pub fn {name}`")), "{v}");
        }
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
