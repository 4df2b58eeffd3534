//! Validates every `results/*.metrics.json` artifact against the
//! checked-in schema `scripts/metrics.schema.json`, plus any streamed
//! trace artifacts the sink layer produced: `*.trace.jsonl` files must
//! start with a well-formed stream header followed by parseable event
//! lines (a bounded sample), `*.stream.json` files must be valid
//! Chrome `trace_event` documents stamped with `otherData.oddci_stream`,
//! and `*.trace.bin` files must carry the binary trace magic, a
//! supported format version, and a complete phase label table.
//!
//! The validator implements the JSON Schema subset the schema actually
//! uses — `type`, `properties`, `required`, `additionalProperties`
//! (boolean) and `items` — so the repository stays dependency-free while
//! CI still refuses malformed or mis-stamped artifacts.
//!
//! It also holds the assertions CI makes on the artifacts of its smokes
//! (`smoke <name>`, reading the fixed `results/ci-*` files `scripts/ci.sh`
//! writes, from the repository root): the live-stats snapshot, the wire,
//! failover and autoscale reports, and the docs gate — every relative
//! markdown link resolves, and every `--flag` OPERATIONS.md documents is
//! one `oddci help` prints.
//!
//! ```text
//! cargo run -p oddci-bench --bin schema_check [-- schema.json dir]
//! cargo run -p oddci-bench --bin schema_check -- smoke top|wire|failover|autoscale|docs
//! ```

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Component, Path, PathBuf};

/// How many event lines of a `.trace.jsonl` file are parsed per file.
/// Streamed sweeps reach ~1 M lines; checking a prefix keeps the gate
/// fast while still catching truncated writes and format drift.
const JSONL_SAMPLE_LINES: usize = 4096;

/// Artifacts the results directory must *contain*, not merely validate
/// when present: the elasticity run (X13) is load-bearing evidence, so a
/// sweep that silently skipped it must fail the gate instead of passing
/// on whatever files remain.
const REQUIRED_ARTIFACTS: &[&str] = &["autoscale.json", "autoscale.metrics.json"];

/// Required artifact names absent from `present` (bare file names).
fn missing_required(present: &[String]) -> Vec<&'static str> {
    REQUIRED_ARTIFACTS
        .iter()
        .copied()
        .filter(|required| !present.iter().any(|name| name == required))
        .collect()
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn matches_type(v: &Value, ty: &str) -> bool {
    match ty {
        "object" => matches!(v, Value::Object(_)),
        "array" => matches!(v, Value::Array(_)),
        "string" => matches!(v, Value::String(_)),
        "boolean" => matches!(v, Value::Bool(_)),
        "null" => matches!(v, Value::Null),
        "number" => matches!(v, Value::Number(_)),
        // JSON Schema "integer": any number with zero fractional part.
        "integer" => v.as_i64().is_some() || v.as_u64().is_some(),
        _ => false,
    }
}

/// Recursively checks `value` against `schema`, appending one message per
/// violation to `errors` (`at` is the JSON-pointer-ish location).
fn validate(value: &Value, schema: &Value, at: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type").and_then(Value::as_str) {
        if !matches_type(value, ty) {
            errors.push(format!("{at}: expected {ty}, found {}", type_name(value)));
            return;
        }
    }
    if let Value::Object(entries) = value {
        if let Some(required) = schema.get("required").and_then(Value::as_array) {
            for name in required.iter().filter_map(Value::as_str) {
                if !entries.iter().any(|(k, _)| k == name) {
                    errors.push(format!("{at}: missing required field `{name}`"));
                }
            }
        }
        let props = schema.get("properties");
        if let Some(Value::Object(prop_schemas)) = props {
            for (key, sub) in prop_schemas {
                if let Some(child) = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                    validate(child, sub, &format!("{at}/{key}"), errors);
                }
            }
            if schema.get("additionalProperties").and_then(Value::as_bool) == Some(false) {
                for (key, _) in entries {
                    if !prop_schemas.iter().any(|(k, _)| k == key) {
                        errors.push(format!("{at}: unexpected field `{key}`"));
                    }
                }
            }
        }
    }
    if let (Value::Array(items), Some(item_schema)) = (value, schema.get("items")) {
        for (i, item) in items.iter().enumerate() {
            validate(item, item_schema, &format!("{at}/{i}"), errors);
        }
    }
}

fn check_file(path: &Path, schema: &Value) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("invalid JSON: {e:?}")],
    };
    let mut errors = Vec::new();
    validate(&doc, schema, "", &mut errors);
    errors
}

/// Validates a streamed JSONL trace: header line with `oddci_stream`
/// version stamp, `format`/`clock` strings, then event lines that
/// deserialize as telemetry events (first [`JSONL_SAMPLE_LINES`] only).
fn validate_jsonl_stream(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return vec!["empty stream file".into()];
    };
    match serde_json::from_str::<Value>(first) {
        Ok(header) => {
            if header.get("oddci_stream").and_then(Value::as_u64).is_none() {
                errors.push("header: missing integer `oddci_stream` stamp".into());
            }
            for key in ["format", "clock"] {
                if header.get(key).and_then(Value::as_str).is_none() {
                    errors.push(format!("header: missing string `{key}`"));
                }
            }
        }
        Err(e) => errors.push(format!("header: invalid JSON: {e:?}")),
    }
    for (i, line) in lines.take(JSONL_SAMPLE_LINES).enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Err(e) = serde_json::from_str::<oddci_telemetry::Event>(line) {
            errors.push(format!("line {}: not a telemetry event: {e:?}", i + 2));
            break;
        }
    }
    errors
}

/// Validates a streamed Chrome trace: a JSON document with a
/// `traceEvents` array and the `otherData.oddci_stream` stamp.
fn validate_chrome_stream(text: &str) -> Vec<String> {
    let doc: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("invalid JSON: {e:?}")],
    };
    let mut errors = Vec::new();
    if doc.get("traceEvents").and_then(Value::as_array).is_none() {
        errors.push("missing `traceEvents` array".into());
    }
    if doc
        .get("otherData")
        .and_then(|d| d.get("oddci_stream"))
        .is_none()
    {
        errors.push("missing `otherData.oddci_stream` stamp".into());
    }
    errors
}

/// Validates a binary trace file header: `ODCB` magic, a format version
/// this build understands, and a phase table covering every phase a
/// record tag could reference. The body is not replayed here — the
/// convert round-trip in CI exercises that path end to end.
fn validate_binary_trace(bytes: &[u8]) -> Vec<String> {
    let (header, body_start) = match oddci_telemetry::binary::decode_header(bytes) {
        Ok(h) => h,
        Err(e) => return vec![format!("bad binary header: {e}")],
    };
    let mut errors = Vec::new();
    if header.version != oddci_telemetry::binary::BINARY_VERSION {
        errors.push(format!(
            "unsupported binary version {} (expected {})",
            header.version,
            oddci_telemetry::binary::BINARY_VERSION
        ));
    }
    if header.labels.is_empty() {
        errors.push("empty phase label table".into());
    }
    if header.lanes == 0 {
        errors.push("header claims zero writer lanes".into());
    }
    if body_start > bytes.len() {
        errors.push("header extends past end of file".into());
    }
    errors
}

fn check_stream_file(path: &Path) -> Vec<String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.ends_with(".trace.bin") {
        return match std::fs::read(path) {
            Ok(bytes) => validate_binary_trace(&bytes),
            Err(e) => vec![format!("unreadable: {e}")],
        };
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    if name.ends_with(".trace.jsonl") {
        validate_jsonl_stream(&text)
    } else {
        validate_chrome_stream(&text)
    }
}

// ------------------------------------------------------------ CI smokes

/// What one field of a smoke artifact must hold.
#[derive(Debug)]
enum Want {
    Eq(f64),
    AtLeast(f64),
    /// A non-empty object, array or string, a non-zero number or `true`.
    NonEmpty,
    /// Equal to the number at another field.
    SameAs(&'static str),
}

/// One smoke assertion: a `/`-separated field path and what it holds.
type Check = (&'static str, Want);

const TOP_CHECKS: &[Check] = &[("registry/counters", Want::NonEmpty)];

const WIRE_CHECKS: &[Check] = &[
    ("tasks_completed", Want::Eq(9.0)),
    ("tasks_unaccounted", Want::Eq(0.0)),
    ("threads_failed", Want::Eq(0.0)),
    ("wire/multi_chunk_tx", Want::AtLeast(1.0)),
    ("wire/checksum_rejects", Want::Eq(0.0)),
];

const FAILOVER_STANDBY_CHECKS: &[Check] = &[
    ("epoch", Want::Eq(1.0)),
    ("adopted_jobs", Want::AtLeast(1.0)),
    ("tasks_completed", Want::Eq(4000.0)),
    ("tasks_unaccounted", Want::Eq(0.0)),
    ("threads_failed", Want::Eq(0.0)),
];

const FAILOVER_PNA_CHECKS: &[Check] = &[("epoch", Want::Eq(1.0))];

const AUTOSCALE_CHECKS: &[Check] = &[
    ("scale_ups", Want::AtLeast(1.0)),
    ("scale_downs", Want::AtLeast(1.0)),
    ("tasks_lost", Want::Eq(0.0)),
    ("tasks_unaccounted", Want::Eq(0.0)),
    ("threads_failed", Want::Eq(0.0)),
    ("tasks_completed", Want::SameAs("queries")),
];

/// The field at `path` (`a/b` is `doc["a"]["b"]`).
fn field<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('/').try_fold(doc, |v, key| v.get(key))
}

/// The violated `checks` of `doc`, one message each.
fn check_fields(doc: &Value, checks: &[Check]) -> Vec<String> {
    let number = |path: &str| field(doc, path).and_then(Value::as_f64);
    checks
        .iter()
        .filter_map(|(path, want)| {
            let got = field(doc, path);
            let holds = match want {
                Want::Eq(n) => number(path) == Some(*n),
                Want::AtLeast(n) => number(path).is_some_and(|v| v >= *n),
                Want::SameAs(other) => number(path).is_some() && number(path) == number(other),
                Want::NonEmpty => match got {
                    Some(Value::Bool(b)) => *b,
                    Some(Value::Number(n)) => n.as_f64() != 0.0,
                    Some(Value::String(s)) => !s.is_empty(),
                    Some(Value::Array(a)) => !a.is_empty(),
                    Some(Value::Object(o)) => !o.is_empty(),
                    Some(Value::Null) | None => false,
                },
            };
            let shown = got
                .and_then(|v| serde_json::to_string(v).ok())
                .unwrap_or_else(|| "missing".into());
            (!holds).then(|| format!("`{path}` is {shown}, expected {want:?}"))
        })
        .collect()
}

/// Runs the named CI smoke check over its `results/ci-*` artifacts; the
/// success line, or every failure.
fn smoke(name: &str) -> Result<String, Vec<String>> {
    let artifacts: Vec<(String, &[Check])> = match name {
        "top" => vec![("results/ci-top.json".into(), TOP_CHECKS)],
        "wire" => vec![("results/ci-wire-smoke.json".into(), WIRE_CHECKS)],
        "failover" => std::iter::once((
            "results/ci-failover-standby.json".into(),
            FAILOVER_STANDBY_CHECKS,
        ))
        .chain([201, 202, 203].map(|seed| {
            (
                format!("results/ci-failover-pna-{seed}.json"),
                FAILOVER_PNA_CHECKS,
            )
        }))
        .collect(),
        "autoscale" => vec![("results/ci-autoscale.json".into(), AUTOSCALE_CHECKS)],
        "docs" => return docs_gate(),
        other => {
            return Err(vec![format!(
                "unknown smoke `{other}` (top, wire, failover, autoscale or docs)"
            )])
        }
    };
    let mut errors = Vec::new();
    let mut first = Value::Null;
    for (i, (path, checks)) in artifacts.iter().enumerate() {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| {
                serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))
            });
        match doc {
            Ok(doc) => {
                errors.extend(
                    check_fields(&doc, checks)
                        .into_iter()
                        .map(|e| format!("{path}: {e}")),
                );
                if i == 0 {
                    first = doc;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    let n = |key: &str| first[key].as_f64().unwrap_or(f64::NAN);
    Ok(match name {
        "top" => "live stats: non-empty metrics registry from the running headend".into(),
        "wire" => "wire smoke: 9 tasks over loopback, accounting balanced".into(),
        "failover" => "failover smoke: standby adopted at epoch 1, 4000 tasks, none lost".into(),
        _ => format!(
            "autoscale smoke: {} up / {} down / {} replace, {} tasks, none lost",
            n("scale_ups"),
            n("scale_downs"),
            n("replacements"),
            n("tasks_completed"),
        ),
    })
}

/// Directories the markdown link check does not descend into.
const LINK_CHECK_SKIP: &[&str] = &[".git", "target", "vendor", "results"];

/// Cargo's own flags, which runbook build and test instructions name.
const CARGO_FLAGS: &[&str] = &["--release", "--offline", "--workspace"];

/// The targets of the inline links `[text](target)` in markdown `text`,
/// a target being one or more characters that are neither `)` nor
/// whitespace.
fn link_targets(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(open) = text[from..].find('[').map(|i| from + i) {
        from = open + 1;
        let Some(close) = text[open..].find(']').map(|i| open + i) else {
            break;
        };
        let Some(rest) = text[close + 1..].strip_prefix('(') else {
            continue;
        };
        let len = rest
            .find(|c: char| c == ')' || c.is_whitespace())
            .unwrap_or(rest.len());
        if len > 0 && rest[len..].starts_with(')') {
            out.push(&rest[..len]);
            from = close + 2 + len + 1;
        }
    }
    out
}

/// `path` with `.` and `name/..` folded away without touching the file
/// system, so a link through a missing directory still resolves.
fn normalize(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for part in path.components() {
        match part {
            Component::CurDir => {}
            Component::ParentDir => match out.components().next_back() {
                Some(Component::Normal(_)) => {
                    out.pop();
                }
                Some(Component::RootDir) => {}
                _ => out.push(".."),
            },
            other => out.push(other),
        }
    }
    if out.as_os_str().is_empty() {
        out.push(".");
    }
    out
}

/// Every `.md` file under `dir`, outside [`LINK_CHECK_SKIP`].
fn markdown_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            if !LINK_CHECK_SKIP.contains(&name.as_ref()) {
                markdown_files(&path, out);
            }
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
}

/// The broken relative links in one markdown file at `path`.
fn broken_links(path: &Path, text: &str) -> Vec<String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    link_targets(text)
        .into_iter()
        .filter(|target| {
            !["http://", "https://", "mailto:", "#"]
                .iter()
                .any(|p| target.starts_with(p))
        })
        .filter(|target| {
            let file = target.split('#').next().unwrap_or("");
            !file.is_empty() && !normalize(&dir.join(file)).exists()
        })
        .map(|target| format!("{}: broken link -> {target}", path.display()))
        .collect()
}

/// Every distinct `--flag` (`--` then a lowercase letter, then lowercase
/// letters, digits and dashes) in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    let b = text.as_bytes();
    let flag_byte = |c: u8| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'-';
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i + 2 < b.len() {
        if b[i] == b'-' && b[i + 1] == b'-' && b[i + 2].is_ascii_lowercase() {
            let end = (i + 3..b.len())
                .find(|&j| !flag_byte(b[j]))
                .unwrap_or(b.len());
            out.insert(&text[i..end]);
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// `text` with every link target `](…)` cut to `]`, so anchors such as
/// `#6-durability--failover` do not read as flags.
fn strip_link_targets(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("](") {
        let Some(j) = rest[i + 2..].find(')') else {
            break;
        };
        out.push_str(&rest[..=i]);
        rest = &rest[i + 2 + j + 1..];
    }
    out.push_str(rest);
    out
}

/// The flags `runbook` documents that `help` does not print.
fn undocumented_flags(help: &str, runbook: &str) -> Vec<String> {
    let known = flags(help);
    flags(&strip_link_targets(runbook))
        .into_iter()
        .filter(|f| !known.contains(f) && !CARGO_FLAGS.contains(f))
        .map(str::to_string)
        .collect()
}

/// The docs gate, run from the repository root after
/// `oddci help > results/ci-help.txt`.
fn docs_gate() -> Result<String, Vec<String>> {
    let mut files = Vec::new();
    markdown_files(Path::new("."), &mut files);
    files.sort();
    let mut errors = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => errors.extend(broken_links(path, &text)),
            Err(e) => errors.push(format!("{}: {e}", path.display())),
        }
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| vec![format!("{p}: {e}")]);
    let (help, ops) = (read("results/ci-help.txt")?, read("OPERATIONS.md")?);
    let missing = undocumented_flags(&help, &ops);
    if !missing.is_empty() {
        errors.push(format!(
            "OPERATIONS.md documents flags `oddci help` does not know: {missing:?}"
        ));
    }
    if errors.is_empty() {
        Ok("docs: every relative markdown link resolves, and every OPERATIONS.md flag appears in `oddci help`".into())
    } else {
        Err(errors)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("smoke") {
        match smoke(argv.get(1).map_or("", String::as_str)) {
            Ok(line) => println!("    {line}"),
            Err(errors) => {
                for e in errors {
                    println!("FAIL  {e}");
                }
                std::process::exit(1);
            }
        }
        return;
    }
    let schema_path = argv
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("scripts/metrics.schema.json"));
    let results_dir = argv
        .get(1)
        .map(PathBuf::from)
        .unwrap_or_else(oddci_bench::results_dir);

    let schema: Value = serde_json::from_str(
        &std::fs::read_to_string(&schema_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", schema_path.display())),
    )
    .expect("schema is valid JSON");

    let mut files: Vec<PathBuf> = std::fs::read_dir(&results_dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", results_dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".metrics.json"))
        })
        .collect();
    files.sort();

    if files.is_empty() {
        println!(
            "schema_check: no *.metrics.json files under {}",
            results_dir.display()
        );
        std::process::exit(1);
    }

    // Streamed-trace artifacts are optional (CI's trace smoke writes and
    // then removes them); check whichever are present.
    let mut streams: Vec<PathBuf> = std::fs::read_dir(&results_dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", results_dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.ends_with(".trace.jsonl")
                    || n.ends_with(".stream.json")
                    || n.ends_with(".trace.bin")
            })
        })
        .collect();
    streams.sort();

    let mut failed = false;
    let present: Vec<String> = std::fs::read_dir(&results_dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", results_dir.display()))
        .filter_map(|entry| entry.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    for name in missing_required(&present) {
        failed = true;
        println!("FAIL  {}", results_dir.join(name).display());
        println!("      required artifact is missing");
    }
    for file in &files {
        let errors = check_file(file, &schema);
        if errors.is_empty() {
            println!("ok    {}", file.display());
        } else {
            failed = true;
            println!("FAIL  {}", file.display());
            for e in errors {
                println!("      {e}");
            }
        }
    }
    for file in &streams {
        let errors = check_stream_file(file);
        if errors.is_empty() {
            println!("ok    {}", file.display());
        } else {
            failed = true;
            println!("FAIL  {}", file.display());
            for e in errors {
                println!("      {e}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "schema_check: {} artifact(s) valid ({} streamed)",
        files.len() + streams.len(),
        streams.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Value {
        serde_json::from_str(include_str!("../../../../scripts/metrics.schema.json")).unwrap()
    }

    #[test]
    fn required_artifacts_must_exist() {
        // A full sweep leaves nothing missing.
        let full: Vec<String> = REQUIRED_ARTIFACTS
            .iter()
            .map(|s| s.to_string())
            .chain(["chaos.metrics.json".to_string()])
            .collect();
        assert!(missing_required(&full).is_empty());

        // Dropping the elasticity run's envelope must be flagged even
        // though every *present* file would validate — required, not
        // pass-if-present.
        let partial: Vec<String> = full
            .iter()
            .filter(|name| *name != "autoscale.metrics.json")
            .cloned()
            .collect();
        assert_eq!(missing_required(&partial), vec!["autoscale.metrics.json"]);

        // An empty results dir misses the whole list, in declared order.
        assert_eq!(missing_required(&[]), REQUIRED_ARTIFACTS.to_vec());
    }

    #[test]
    fn stamped_envelope_passes() {
        let doc = serde_json::json!({
            "run": {"scenario": "chaos", "seed": 2024, "git": "abc1234"},
            "metrics": {
                "wakeup_latency": {"count": 1, "mean": 2.0, "std_dev": 0.0, "min": 2.0, "max": 2.0},
                "joins": 1, "tasks_completed": 1, "control_deliveries": 1,
                "heartbeats_delivered": 1, "direct_resets": 0, "tasks_orphaned": 0,
                "requeues": 0, "task_fetch_retries": 0, "fetch_aborts": 0,
                "faults": {}
            },
            "phases": {}
        });
        let mut errors = Vec::new();
        validate(&doc, &schema(), "", &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn missing_stamp_and_wrong_types_fail() {
        let doc = serde_json::json!({
            "metrics": {"joins": "three"},
            "phases": {}
        });
        let mut errors = Vec::new();
        validate(&doc, &schema(), "", &mut errors);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing required field `run`")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("/metrics/joins")),
            "{errors:?}"
        );
    }

    #[test]
    fn unexpected_top_level_field_fails() {
        let doc = serde_json::json!({"run": {}, "metrics": {}, "phases": {}, "extra": 1});
        let mut errors = Vec::new();
        validate(&doc, &schema(), "", &mut errors);
        assert!(errors.iter().any(|e| e.contains("`extra`")), "{errors:?}");
    }

    #[test]
    fn well_formed_jsonl_stream_passes() {
        let text = "{\"oddci_stream\":1,\"format\":\"jsonl\",\"clock\":\"us\",\"meta\":{}}\n\
            {\"ts_us\":10,\"phase\":\"DveBoot\",\"kind\":\"Begin\",\"track\":3,\"scope\":0}\n\
            {\"ts_us\":20,\"phase\":\"DveBoot\",\"kind\":\"End\",\"track\":3,\"scope\":0}\n";
        assert!(validate_jsonl_stream(text).is_empty());
    }

    #[test]
    fn jsonl_stream_without_stamp_or_with_bad_event_fails() {
        let no_stamp = "{\"format\":\"jsonl\",\"clock\":\"us\"}\n";
        assert!(validate_jsonl_stream(no_stamp)
            .iter()
            .any(|e| e.contains("oddci_stream")));
        let bad_event = "{\"oddci_stream\":1,\"format\":\"jsonl\",\"clock\":\"us\"}\n\
            {\"ts_us\":\"soon\"}\n";
        assert!(validate_jsonl_stream(bad_event)
            .iter()
            .any(|e| e.contains("line 2")));
        assert!(validate_jsonl_stream("")
            .iter()
            .any(|e| e.contains("empty")));
    }

    #[test]
    fn binary_trace_header_passes_and_corruption_fails() {
        let bytes = oddci_telemetry::binary::encode_header(&[("scenario".into(), "t".into())], 2);
        assert!(validate_binary_trace(&bytes).is_empty());

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(validate_binary_trace(&wrong_magic)
            .iter()
            .any(|e| e.contains("bad binary header")));

        // Bump the version field (little-endian u16 right after the magic).
        let mut wrong_version = bytes;
        wrong_version[4] = wrong_version[4].wrapping_add(1);
        let errors = validate_binary_trace(&wrong_version);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("version") || e.contains("bad binary header")),
            "{errors:?}"
        );
    }

    #[test]
    fn chrome_stream_requires_events_and_stamp() {
        let good = r#"{"displayTimeUnit":"ms","otherData":{"oddci_stream":1},"traceEvents":[]}"#;
        assert!(validate_chrome_stream(good).is_empty());
        let errors = validate_chrome_stream(r#"{"traceEvents":{}}"#);
        assert!(errors.iter().any(|e| e.contains("traceEvents")));
        assert!(errors.iter().any(|e| e.contains("oddci_stream")));
    }

    #[test]
    fn smoke_checks_report_each_violated_field() {
        let report = serde_json::json!({
            "tasks_completed": 9, "tasks_unaccounted": 0, "threads_failed": 0,
            "wire": {"multi_chunk_tx": 2, "checksum_rejects": 0}
        });
        assert!(check_fields(&report, WIRE_CHECKS).is_empty());
        let bad = serde_json::json!({
            "tasks_completed": 8, "tasks_unaccounted": 0, "threads_failed": 0,
            "wire": {"multi_chunk_tx": 0}
        });
        let errors = check_fields(&bad, WIRE_CHECKS);
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].contains("`tasks_completed` is"), "{errors:?}");
        assert!(errors[1].contains("wire/multi_chunk_tx"), "{errors:?}");
        assert!(
            errors[2].contains("`wire/checksum_rejects` is missing"),
            "{errors:?}"
        );

        let top = |counters| serde_json::json!({"registry": {"counters": counters}});
        assert!(check_fields(&top(serde_json::json!({"a": 1})), TOP_CHECKS).is_empty());
        assert_eq!(
            check_fields(&top(serde_json::json!({})), TOP_CHECKS).len(),
            1
        );
        let drill = |completed| {
            serde_json::json!({"scale_ups": 1, "scale_downs": 2, "tasks_lost": 0,
                "tasks_unaccounted": 0, "threads_failed": 0,
                "tasks_completed": completed, "queries": 64})
        };
        assert!(check_fields(&drill(64), AUTOSCALE_CHECKS).is_empty());
        let errors = check_fields(&drill(63), AUTOSCALE_CHECKS);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("SameAs(\"queries\")"), "{errors:?}");
    }

    #[test]
    fn link_targets_follow_inline_link_syntax() {
        let text = "see [a](x.md), [b](y.md#z) and [c](http://h) \
            but not [d] (e.md), [f](g h) or [](i)[j](k)";
        assert_eq!(
            link_targets(text),
            vec!["x.md", "y.md#z", "http://h", "i", "k"]
        );
        assert_eq!(link_targets("[a\nb](multi.md) [open"), vec!["multi.md"]);
    }

    #[test]
    fn normalize_folds_dots_lexically() {
        let n = |p: &str| normalize(Path::new(p));
        assert_eq!(n("./a/../b.md"), PathBuf::from("b.md"));
        assert_eq!(n("missing/../README.md"), PathBuf::from("README.md"));
        assert_eq!(n("../x"), PathBuf::from("../x"));
        assert_eq!(n("a/.."), PathBuf::from("."));
        assert_eq!(n("/.."), PathBuf::from("/"));
    }

    #[test]
    fn broken_links_skip_urls_and_anchors() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let doc = root.join("doc.md");
        let text = "[a](Cargo.toml) [b](#top) [c](https://x) [d](src/lib.rs#L1) [e](nope.md)";
        let broken = broken_links(&doc, text);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].ends_with("broken link -> nope.md"), "{broken:?}");
    }

    #[test]
    fn runbook_flags_must_appear_in_help() {
        let help = "oddci headend --listen ADDR --pnas N\n  --snapshot-dir DIR";
        let runbook = "run `oddci headend --listen a --pnas 3` with cargo --release; \
            see [failover](#6-durability--failover) and ---x --Upper --bogus-flag2.";
        assert_eq!(
            undocumented_flags(help, runbook),
            vec!["--bogus-flag2", "--x"]
        );
        assert_eq!(strip_link_targets("[a](b) c](d"), "[a] c](d");
    }
}
