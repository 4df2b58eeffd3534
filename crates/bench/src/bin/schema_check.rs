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
//! ```text
//! cargo run -p oddci-bench --bin schema_check [-- schema.json dir]
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};

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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
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
}
