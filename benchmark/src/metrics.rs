//! The metric tables: every name this benchmark may print, with its unit
//! and direction. `BENCHMARK.json` at the repository root declares the
//! same tables to the driver; a unit test keeps the two identical.

use crate::workloads::Workload;
use serde_json::{json, Value};

/// Seconds one run measures for (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;
/// Runs per workload in a set `run` takes (seeds S..S+10): the count the
/// driver's own spread rule uses, and the one the README's table was
/// measured with.
pub const SET_RUNS: u64 = 10;
/// The bound `compare` holds a timed metric to on the workloads that can
/// hold it (see `bound`).
const TIGHT_BOUND: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with its regression bound:
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// End-to-end metrics. Every workload reports every one of them (the
/// driver's contract); `README.md` says what each means per workload.
/// `bound` here is what the driver reads: one per metric, so the noisiest
/// workload sets it. `bound()` below is what `compare` uses.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The bound `compare` holds `metric` to on `workload`, written into every
/// row of a `run` document. ISSUE 12 asked for a tenth. The two socket
/// workloads whose pace the serve loop's timer sets hold it with room
/// (run-to-run spread 1-4 %, bound >= 2x that) on everything but set-up;
/// the workloads that saturate a vCPU move 10-18 % with this VM from one
/// minute to the next and keep the manifest's bound, as does `setup_s`
/// everywhere (a few ms, spread up to 17 %).
pub fn bound(metric: &EndToEnd, workload: Workload) -> f64 {
    let timer_paced = matches!(workload, Workload::SocketLight | Workload::SocketIdle);
    if timer_paced && metric.name != "setup_s" {
        TIGHT_BOUND.min(metric.bound)
    } else {
        metric.bound
    }
}

/// A metric of one layer (`crate.module.what`): no bound, a traced run
/// prints all of them.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 74] = [
    // Layer suite: fixed-size calls into one layer, inputs from --seed.
    lower("wire.codec.task_request.encode_ns", "ns"),
    lower("wire.codec.task_request.decode_ns", "ns"),
    lower("wire.codec.task_batch8.encode_ns", "ns"),
    lower("wire.codec.task_batch8.decode_ns", "ns"),
    lower("wire.codec.results8.encode_ns", "ns"),
    lower("wire.codec.results8.decode_ns", "ns"),
    lower("wire.frame.small_encode_ns", "ns"),
    lower("wire.frame.small_decode_ns", "ns"),
    higher("wire.frame.encode_mb_s.hmac", "MB/s"),
    higher("wire.frame.encode_mb_s.crc", "MB/s"),
    higher("wire.frame.decode_mb_s.hmac", "MB/s"),
    higher("wire.frame.decode_mb_s.crc", "MB/s"),
    higher("wire.crc32_mb_s", "MB/s"),
    lower("wire.tcp.echo_rtt_p50_us", "us"),
    lower("wire.tcp.echo_rtt_p99_us", "us"),
    higher("wire.tcp.echo_msgs_per_s", "1/s"),
    higher("crypto.sha256_mb_s", "MB/s"),
    higher("crypto.hmac_mb_s", "MB/s"),
    lower("crypto.hmac_small_ns", "ns"),
    lower("crypto.sign_verify_ns", "ns"),
    lower("core.backend.register_job_ns_per_task", "ns"),
    lower("core.backend.fetch_batch_ns_per_task", "ns"),
    lower("core.backend.complete_task_ns", "ns"),
    lower("core.controller.on_heartbeat_ns", "ns"),
    lower("core.controller.tick_ms", "ms"),
    lower("core.pna.on_control_message_ns", "ns"),
    lower("core.world.build_s", "s"),
    lower("core.world.events", "count"),
    higher("core.world.events_per_s", "1/s"),
    lower("sim.queue.push_pop_ns", "ns"),
    lower("broadcast.carousel.acquisition_ns", "ns"),
    higher("workload.random_sequence_mb_s", "MB/s"),
    lower("workload.jobgen_ns_per_task", "ns"),
    lower("live.image.materialize_ms", "ms"),
    lower("live.image.score_ns", "ns"),
    lower("live.snapshot.encode_ms", "ms"),
    lower("live.snapshot.decode_ms", "ms"),
    lower("live.snapshot.write_file_ms", "ms"),
    lower("live.snapshot.read_file_ms", "ms"),
    lower("live.snapshot.bytes", "count"),
    lower("live.headend.start_ms", "ms"),
    lower("live.headend.submit_ms", "ms"),
    lower("live.headend.shutdown_ms", "ms"),
    lower("live.pna.cycle_us", "us"),
    lower("live.probe.fetch_rtt_mean_us", "us"),
    lower("live.headend.residual_us", "us"),
    lower("telemetry.span_ns", "ns"),
    lower("telemetry.span_off_ns", "ns"),
    // Workload counters: read off the traced sessions of the workload
    // the run was asked for; 0 where that workload never enters the layer.
    lower("wire.tcp.tx_frames", "count"),
    lower("wire.tcp.rx_frames", "count"),
    lower("wire.tcp.tx_bytes", "count"),
    lower("wire.tcp.rx_bytes", "count"),
    lower("wire.tcp.multi_chunk_tx", "count"),
    lower("wire.tcp.checksum_rejects", "count"),
    lower("wire.tcp.resyncs", "count"),
    lower("wire.tcp.duplicates", "count"),
    lower("wire.tcp.frames_per_task", "frames/task"),
    lower("wire.tcp.bytes_per_task", "bytes/task"),
    lower("live.wakeup_broadcasts", "count"),
    lower("live.requeues", "count"),
    lower("core.world.sweep_events", "count"),
    lower("telemetry.events_recorded", "count"),
    lower("telemetry.overhead_share", "share"),
    higher("run.traced_work_per_s", "1/s"),
    higher("run.untraced_work_per_s", "1/s"),
    higher("run.sessions", "count"),
    higher("run.op_samples", "count"),
    higher("run.tail_level", "pct"),
    lower("proc.cpu_user_s", "s"),
    lower("proc.cpu_sys_s", "s"),
    higher("proc.cpu_util", "share"),
    lower("proc.ctx_switches_vol", "count"),
    lower("proc.ctx_switches_invol", "count"),
    lower("proc.peak_rss_mb", "MB"),
];

/// The document `BENCHMARK.json` must hold.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({"name": w.name(), "why": w.why()}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--quiet", "--release", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// Checks that `got` names exactly the metrics `declared` does. Returns
/// one line per name that is missing or undeclared.
pub fn check_names<'a>(
    declared: impl Iterator<Item = &'a str>,
    got: impl Iterator<Item = &'a str>,
) -> Vec<String> {
    let declared: std::collections::BTreeSet<&str> = declared.collect();
    let got: std::collections::BTreeSet<&str> = got.collect();
    declared
        .difference(&got)
        .map(|n| format!("declared but not emitted: {n}"))
        .chain(
            got.difference(&declared)
                .map(|n| format!("emitted but not declared: {n}")),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn compare_is_never_looser_than_the_driver() {
        for m in &END_TO_END {
            for w in Workload::ALL {
                assert!(bound(m, w) <= m.bound, "{} on {}", m.name, w.name());
            }
        }
        let rate = &END_TO_END[0];
        assert_eq!(bound(rate, Workload::SocketIdle), 0.10);
        assert_eq!(bound(rate, Workload::InprocLight), 0.25);
        let setup = &END_TO_END[3];
        assert_eq!(bound(setup, Workload::SocketLight), 0.25);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `oddci-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn name_check_reports_both_directions() {
        let problems = check_names(["a", "b"].into_iter(), ["b", "c"].into_iter());
        assert_eq!(
            problems,
            vec![
                "declared but not emitted: a".to_string(),
                "emitted but not declared: c".to_string()
            ]
        );
        assert!(check_names(["a"].into_iter(), ["a"].into_iter()).is_empty());
    }
}
