//! Property tests for the binary trace codec: encode → decode is the
//! identity on arbitrary event streams, converting a streamed binary
//! trace to JSONL yields exactly the events the decoder yields, in
//! order, and truncating a binary file anywhere never panics the
//! decoder.

use oddci_telemetry::binary;
use oddci_telemetry::export::read_jsonl_events;
use oddci_telemetry::{Event, EventKind, Phase, StreamingSink, TraceSink};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        0..Phase::COUNT,
        0..3u8,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(ts_us, phase, kind, track, scope)| Event {
            ts_us,
            phase: Phase::ALL[phase],
            kind: match kind {
                0 => EventKind::Begin,
                1 => EventKind::End,
                _ => EventKind::Instant,
            },
            track,
            scope,
        })
}

/// A multiset-comparable key (events carry no identity beyond their
/// fields, and lanes interleave arbitrarily).
fn key(ev: &Event) -> (u64, usize, u8, u64, u64) {
    let kind = match ev.kind {
        EventKind::Begin => 0,
        EventKind::End => 1,
        EventKind::Instant => 2,
    };
    (ev.ts_us, ev.phase.index(), kind, ev.track, ev.scope)
}

fn sorted_keys(events: &[Event]) -> Vec<(u64, usize, u8, u64, u64)> {
    let mut keys: Vec<_> = events.iter().map(key).collect();
    keys.sort_unstable();
    keys
}

fn temp(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("oddci-binary-props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{n}-{name}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_identity(events in proptest::collection::vec(arb_event(), 0..200)) {
        let mut bytes = binary::encode_header(&[("scenario".into(), "props".into())], 1);
        bytes.extend(binary::encode_block(0, &events));
        let trace = binary::decode(&bytes).expect("decodes");
        prop_assert!(trace.truncated.is_none());
        prop_assert_eq!(&trace.events, &events);
    }

    #[test]
    fn truncating_anywhere_never_panics(
        events in proptest::collection::vec(arb_event(), 1..50),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut bytes = binary::encode_header(&[], 1);
        bytes.extend(binary::encode_block(0, &events));
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        // Either a clean decode (possibly with a truncation report) or a
        // structured error — anything but a panic.
        let _ = binary::decode(&bytes[..cut]);
    }
}

proptest! {
    // File-backed cases spin writer threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn convert_yields_exactly_the_decoded_events_in_order(
        events in proptest::collection::vec(arb_event(), 1..150),
        lanes in 1usize..4,
    ) {
        let bin_path = temp("stream.trace.bin");
        let jsonl_converted = temp("converted.trace.jsonl");

        let sink = StreamingSink::builder(&bin_path)
            .lanes(lanes)
            .meta("scenario", "props")
            .start()
            .expect("sink");
        for (i, ev) in events.iter().enumerate() {
            prop_assert!(sink.offer(*ev, Some(i % lanes)));
        }
        prop_assert_eq!(sink.finish().expect("finish").stats.dropped, 0);

        let bytes = std::fs::read(&bin_path).expect("read back");
        let trace = binary::decode(&bytes).expect("decodes");
        prop_assert!(trace.truncated.is_none());
        // The lane split reorders across lanes but loses nothing.
        prop_assert_eq!(sorted_keys(&trace.events), sorted_keys(&events));

        binary::convert(&trace, Some(&jsonl_converted), None).expect("convert");
        let converted_text = std::fs::read_to_string(&jsonl_converted).expect("converted text");
        let (header, converted_events) = read_jsonl_events(&converted_text).expect("converted");
        prop_assert_eq!(&converted_events, &trace.events);
        prop_assert_eq!(header.meta, vec![
            ("scenario".to_string(), "props".to_string()),
            ("converted_from".to_string(), "binary".to_string()),
        ]);

        for p in [&bin_path, &jsonl_converted] {
            let _ = std::fs::remove_file(p);
        }
    }
}
