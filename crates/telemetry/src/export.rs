//! Every text format lives here: the batch Chrome `trace_event`
//! exporter for the ring ([`chrome_trace`]), the JSONL and Chrome *stream*
//! artifacts `oddci trace convert` derives from a binary trace (the row
//! writer behind [`crate::binary::convert`], and [`read_jsonl_events`] to
//! read the JSONL one back), and a Prometheus-style text dump.
//!
//! All of them run after the run, on recorded data, so none holds a
//! telemetry lock while the system under observation is working.

use crate::event::{Event, EventKind, CONTROL_TRACK};
use crate::registry::RegistrySnapshot;
use crate::sink::OutputSummary;
use serde_json::{json, Value};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Text stream format version stamped into every JSONL / Chrome stream
/// artifact header.
pub const STREAM_VERSION: u64 = 1;

/// Chrome trace viewer thread id for a track: the control plane maps to
/// tid 0, node `n` to `n + 1`.
pub fn track_tid(track: u64) -> u64 {
    if track == CONTROL_TRACK {
        0
    } else {
        track.saturating_add(1).min(u64::MAX - 1)
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Number(serde_json::Number::U(n))
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

/// The `M` metadata row naming a track's lane in the trace viewer.
/// Shared by the batch exporter and the stream writer so both artifact
/// flavors render byte-identical rows.
fn thread_meta_row(track: u64) -> Value {
    let name = if track == CONTROL_TRACK {
        "control-plane".to_string()
    } else {
        format!("node-{track}")
    };
    obj(vec![
        ("name", s("thread_name")),
        ("ph", s("M")),
        ("pid", num(1)),
        ("tid", num(track_tid(track))),
        ("args", obj(vec![("name", s(&name))])),
    ])
}

/// One Chrome `trace_event` row for an event (`B`/`E`/`i`).
fn event_row(ev: &Event) -> Value {
    let ph = match ev.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    };
    let mut entries = vec![
        ("name", s(ev.phase.label())),
        ("cat", s("oddci")),
        ("ph", s(ph)),
        ("ts", num(ev.ts_us)),
        ("pid", num(1)),
        ("tid", num(track_tid(ev.track))),
    ];
    if ev.kind == EventKind::Instant {
        entries.push(("s", s("t")));
    }
    entries.push(("args", obj(vec![("scope", num(ev.scope))])));
    obj(entries)
}

/// Render events as Chrome `trace_event` JSON (the `about://tracing` /
/// Perfetto "JSON Object Format"): `{"traceEvents": [...]}` with `B`/`E`
/// duration events, `i` instants, and `M` metadata rows naming each
/// track. Events are stable-sorted by timestamp so retro-emitted spans
/// come out in viewer order.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut sorted: Vec<Event> = events.to_vec();
    sorted.sort_by_key(|e| e.ts_us);

    let mut tracks: Vec<u64> = sorted.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut rows: Vec<Value> = Vec::with_capacity(sorted.len() + tracks.len());
    for track in &tracks {
        rows.push(thread_meta_row(*track));
    }
    for ev in &sorted {
        rows.push(event_row(ev));
    }

    let doc = obj(vec![
        ("traceEvents", Value::Array(rows)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

// ------------------------------------------------------- stream artifacts

/// The two text artifacts a binary trace converts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TextFormat {
    /// Header line + one compact JSON event object per line.
    Jsonl,
    /// Chrome `trace_event` "JSON Object Format" document: rows appended
    /// in file order, closed into `{"traceEvents":[...]}` by `seal`.
    Chrome,
}

/// One open text stream artifact, written row by row so a
/// multi-gigabyte sweep never sits in memory as one JSON document.
#[derive(Debug)]
pub(crate) struct Output {
    path: PathBuf,
    format: TextFormat,
    file: BufWriter<File>,
    bytes: u64,
    /// Chrome only: rows written so far (controls comma placement).
    rows: u64,
    /// Chrome only: tracks that already got their `M` thread_name row.
    seen_tracks: HashSet<u64>,
}

impl Output {
    pub(crate) fn create(
        path: &Path,
        format: TextFormat,
        meta: &[(String, String)],
    ) -> io::Result<Output> {
        let mut out = Output {
            path: path.to_path_buf(),
            format,
            file: BufWriter::new(File::create(path)?),
            bytes: 0,
            rows: 0,
            seen_tracks: HashSet::new(),
        };
        out.write_header(meta)?;
        Ok(out)
    }

    fn write_str(&mut self, text: &str) -> io::Result<()> {
        self.file.write_all(text.as_bytes())?;
        self.bytes += text.len() as u64;
        Ok(())
    }

    fn write_header(&mut self, meta: &[(String, String)]) -> io::Result<()> {
        let meta = meta
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())));
        match self.format {
            TextFormat::Jsonl => {
                let header = json!({
                    "oddci_stream": STREAM_VERSION,
                    "format": "jsonl",
                    "clock": "us",
                    "meta": Value::Object(meta.collect()),
                });
                let line = serde_json::to_string(&header).map_err(io::Error::other)?;
                self.write_str(&line)?;
                self.write_str("\n")
            }
            TextFormat::Chrome => {
                let mut other: Vec<(String, Value)> = vec![
                    ("oddci_stream".to_string(), s(&STREAM_VERSION.to_string())),
                    ("clock".to_string(), s("us")),
                ];
                other.extend(meta);
                let other =
                    serde_json::to_string(&Value::Object(other)).map_err(io::Error::other)?;
                self.write_str(&format!(
                    "{{\"displayTimeUnit\":\"ms\",\"otherData\":{other},\"traceEvents\":["
                ))
            }
        }
    }

    fn write_row(&mut self, row: &Value) -> io::Result<()> {
        self.write_str(if self.rows > 0 { ",\n" } else { "\n" })?;
        self.rows += 1;
        let text = serde_json::to_string(row).map_err(io::Error::other)?;
        self.write_str(&text)
    }

    pub(crate) fn write_event(&mut self, ev: &Event) -> io::Result<()> {
        match self.format {
            TextFormat::Jsonl => {
                let line = serde_json::to_string(ev).map_err(io::Error::other)?;
                self.write_str(&line)?;
                self.write_str("\n")
            }
            TextFormat::Chrome => {
                if self.seen_tracks.insert(ev.track) {
                    self.write_row(&thread_meta_row(ev.track))?;
                }
                self.write_row(&event_row(ev))
            }
        }
    }

    /// Write the footer, flush, and report the finished artifact.
    pub(crate) fn seal(mut self) -> io::Result<OutputSummary> {
        if self.format == TextFormat::Chrome {
            self.write_str("\n]}\n")?;
        }
        self.file.flush()?;
        Ok(OutputSummary {
            path: self.path,
            bytes: self.bytes,
        })
    }
}

/// Parsed first line of a JSONL stream artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// [`STREAM_VERSION`] at write time.
    pub version: u64,
    /// `"jsonl"` for line-oriented streams.
    pub format: String,
    /// Timestamp unit (`"us"`).
    pub clock: String,
    /// Run metadata stamped by the producer (scenario, seed, ...).
    pub meta: Vec<(String, String)>,
}

/// Parse the header line of a JSONL stream artifact.
pub fn parse_jsonl_header(line: &str) -> Result<StreamHeader, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("header is not JSON: {e}"))?;
    let version = v
        .get("oddci_stream")
        .and_then(Value::as_u64)
        .ok_or("header missing integer `oddci_stream`")?;
    let format = v
        .get("format")
        .and_then(Value::as_str)
        .ok_or("header missing string `format`")?
        .to_string();
    let clock = v
        .get("clock")
        .and_then(Value::as_str)
        .ok_or("header missing string `clock`")?
        .to_string();
    let mut meta = Vec::new();
    if let Some(Value::Object(entries)) = v.get("meta") {
        for (k, val) in entries {
            if let Some(s) = val.as_str() {
                meta.push((k.clone(), s.to_string()));
            }
        }
    }
    Ok(StreamHeader {
        version,
        format,
        clock,
        meta,
    })
}

/// Read a whole JSONL stream artifact back: header plus every event,
/// in file order. The inverse of the converter's JSONL output.
pub fn read_jsonl_events(text: &str) -> Result<(StreamHeader, Vec<Event>), String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty stream")?;
    let header = parse_jsonl_header(header_line)?;
    if header.format != "jsonl" {
        return Err(format!("expected jsonl stream, got `{}`", header.format));
    }
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: Event = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        events.push(ev);
    }
    Ok((header, events))
}

/// Replace characters Prometheus metric names reject.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Render a registry snapshot in Prometheus text exposition format:
/// counters and gauges as-is, histograms flattened into
/// `<name>_{count,mean,p50,p90,p99,max}` series (seconds).
pub fn prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        out.push_str(&format!(
            "# TYPE {name} gauge\n{name} {}\n",
            fmt_f64(*value)
        ));
    }
    for (name, h) in &snapshot.histograms {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name}_seconds summary\n"));
        out.push_str(&format!("{name}_seconds_count {}\n", h.count));
        out.push_str(&format!("{name}_seconds_mean {}\n", fmt_f64(h.mean)));
        for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
            out.push_str(&format!(
                "{name}_seconds{{quantile=\"{q}\"}} {}\n",
                fmt_f64(v)
            ));
        }
        out.push_str(&format!("{name}_seconds_max {}\n", fmt_f64(h.max)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::recorder::Recorder;
    use crate::registry::Registry;

    fn sample_events() -> Vec<Event> {
        let r = Recorder::with_capacity(64);
        r.instant(0, Phase::CarouselPublish, CONTROL_TRACK, 7);
        r.span(0, 1500, Phase::WakeupWait, 2, 7);
        r.span(1500, 9000, Phase::DveBoot, 2, 7);
        r.instant(9000, Phase::Heartbeat, 2, 7);
        r.events()
    }

    #[test]
    fn chrome_trace_is_valid_sorted_and_paired() {
        let text = chrome_trace(&sample_events());
        let doc: Value = serde_json::from_str(&text).unwrap();
        let rows = doc["traceEvents"].as_array().unwrap();
        // 2 metadata rows (control + node-2) + 6 events.
        assert_eq!(rows.len(), 8);

        let mut last_ts = 0u64;
        let mut begins = 0i64;
        for row in rows {
            let ph = row["ph"].as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let ts = row["ts"].as_u64().unwrap();
            assert!(ts >= last_ts, "timestamps must be monotone");
            last_ts = ts;
            match ph {
                "B" => begins += 1,
                "E" => begins -= 1,
                "i" => assert_eq!(row["s"].as_str(), Some("t")),
                other => panic!("unexpected ph {other}"),
            }
            assert_eq!(row["pid"].as_u64(), Some(1));
            assert_eq!(row["cat"].as_str(), Some("oddci"));
        }
        assert_eq!(begins, 0, "every B has a matching E");
    }

    #[test]
    fn track_tid_maps_control_to_zero() {
        assert_eq!(track_tid(CONTROL_TRACK), 0);
        assert_eq!(track_tid(0), 1);
        assert_eq!(track_tid(41), 42);
    }

    #[test]
    fn prometheus_dump_has_expected_series() {
        let reg = Registry::new();
        reg.counter("world.joins").add(3);
        reg.gauge("backend.queue-depth").set(2.0);
        reg.histogram("dve.boot").record(0.5);
        let text = prometheus(&reg.snapshot());
        assert!(text.contains("world_joins 3\n"), "{text}");
        assert!(text.contains("backend_queue_depth 2.0\n"), "{text}");
        assert!(text.contains("dve_boot_seconds_count 1\n"), "{text}");
        assert!(
            text.contains("dve_boot_seconds{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(!text.contains('-'), "metric names must be sanitized");
    }
}
