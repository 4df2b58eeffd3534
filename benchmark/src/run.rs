//! One run of one workload: repeat sessions for `--seconds` of wall
//! clock, reduce the samples to the declared metrics, and hand them back
//! as the one JSON object the driver reads.

use crate::gen::mix;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procstat::Usage;
use crate::stats::{mean, median, percentile, supports};
use crate::sut::Telemetry;
use crate::workloads::{self, Counts, Session, Workload};
use crate::{layers, metrics};
use serde_json::{json, Value};
use std::time::Instant;

/// Sessions a run holds at least, whatever `--seconds` says: set-up is
/// reported as a quartile and wants more than one sample.
const MIN_SESSIONS: usize = 3;
/// Set-up is reported at its lower quartile, not its median. On this
/// kind of VM a sleeping thread now and then wakes ~80 ms late; when that
/// hits the serve loop's first idle sleep, a 1.4 ms socket set-up reads
/// 80 ms, in 30-60 % of sessions. A median over a dozen such sessions
/// flips between the two modes from run to run; the lower quartile is
/// the time a set-up needs when nothing stalls it, and still moves when
/// set-up work is added.
const SETUP_LEVEL: u32 = 25;
/// Wall-clock ceiling of the session loop. The driver kills a run at
/// 180 s; a system that got this slow still reports.
const MAX_LOOP_SECS: f64 = 100.0;

/// Everything the sessions of one run measured.
#[derive(Default)]
pub struct Samples {
    sessions: usize,
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    counts: Counts,
}

impl Samples {
    fn absorb(&mut self, s: Session) {
        for why in &s.problems {
            eprintln!("oddci-benchmark: {why}");
        }
        self.sessions += 1;
        self.setup_s.push(s.setup_s);
        self.rates.extend(s.rates);
        self.op_ms.extend(s.op_ms);
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.counts.add(&s.counts);
    }

    /// True when every operation produced a sample to report.
    fn complete(&self) -> bool {
        !self.rates.is_empty() && !self.op_ms.is_empty() && !self.setup_s.is_empty()
    }
}

/// Runs sessions of `workload` for `seconds` of wall clock: a session
/// starts while the window is open (and until there are `MIN_SESSIONS`),
/// so a run lasts `seconds` plus at most one session — set-up, teardown
/// and output checks included, which keeps the driver's time budget
/// predictable whatever a workload's teardown costs.
/// With `alternate`, odd sessions record telemetry and even ones do not,
/// so the two halves see the same machine state; the halves come back
/// as (untraced, traced, events recorded).
fn sessions(
    workload: Workload,
    seed: u64,
    seconds: f64,
    alternate: bool,
) -> (Samples, Samples, u64) {
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut events = 0u64;
    let window = Instant::now();
    for index in 0u64.. {
        let elapsed = window.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && plain.sessions + traced.sessions >= MIN_SESSIONS;
        // A traced run compares halves: keep them the same size.
        let balanced = !alternate || plain.sessions == traced.sessions;
        if (enough && balanced) || elapsed > MAX_LOOP_SECS {
            break;
        }
        let record = alternate && index % 2 == 1;
        let tele = if record {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        };
        let s = workloads::session(workload, mix(seed, index), &tele);
        if record {
            events += tele.events().len() as u64 + tele.recorder().dropped();
            traced.absorb(s);
        } else {
            plain.absorb(s);
        }
    }
    (plain, traced, events)
}

/// The driver-facing result of one run.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunOutput {
    pub fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// An untraced run: the end-to-end metrics.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let (samples, _, _) = sessions(workload, seed, seconds, false);
    if !samples.complete() {
        return Err(format!("{}: no operation completed", workload.name()));
    }
    let tail = workload.tail_level();
    if !supports(samples.op_ms.len(), tail) {
        return Err(format!(
            "{}: {} timed operations cannot carry a p{tail}",
            workload.name(),
            samples.op_ms.len()
        ));
    }
    let value = |name: &str| match name {
        "work_per_s" => median(&samples.rates),
        "op_mean_ms" => mean(&samples.op_ms),
        "op_tail_ms" => percentile(&samples.op_ms, tail),
        "setup_s" => percentile(&samples.setup_s, SETUP_LEVEL),
        other => unreachable!("{other} is not in END_TO_END"),
    };
    Ok(RunOutput {
        correct: samples.failed == 0,
        attempted: samples.attempted,
        failed: samples.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    })
}

/// A traced run: the layer suite, then the workload with every other
/// session recording telemetry, then the per-layer metrics.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let cores = crate::cores();
    let mut values = layers::run(seed);
    let before = Usage::now();
    let (plain, traced, events) = sessions(workload, seed, seconds, true);
    let used = Usage::now().since(&before, cores);
    if !plain.complete() || !traced.complete() {
        return Err(format!("{}: no operation completed", workload.name()));
    }

    let c = &traced.counts;
    let frames = (c.tx_frames + c.rx_frames) as f64;
    let bytes = (c.tx_bytes + c.rx_bytes) as f64;
    let per_task = |total: f64| {
        if c.tasks == 0 {
            0.0
        } else {
            total / c.tasks as f64
        }
    };
    let untraced_rate = median(&plain.rates);
    let traced_rate = median(&traced.rates);
    let op_samples = plain.op_ms.len() + traced.op_ms.len();
    values.extend([
        ("wire.tcp.tx_frames", c.tx_frames as f64),
        ("wire.tcp.rx_frames", c.rx_frames as f64),
        ("wire.tcp.tx_bytes", c.tx_bytes as f64),
        ("wire.tcp.rx_bytes", c.rx_bytes as f64),
        ("wire.tcp.multi_chunk_tx", c.multi_chunk_tx as f64),
        ("wire.tcp.checksum_rejects", c.checksum_rejects as f64),
        ("wire.tcp.resyncs", c.resyncs as f64),
        ("wire.tcp.duplicates", c.duplicates as f64),
        ("wire.tcp.frames_per_task", per_task(frames)),
        ("wire.tcp.bytes_per_task", per_task(bytes)),
        ("live.wakeup_broadcasts", c.wakeup_broadcasts as f64),
        ("live.requeues", c.requeues as f64),
        ("core.world.sweep_events", c.sweep_events as f64),
        ("telemetry.events_recorded", events as f64),
        (
            "telemetry.overhead_share",
            1.0 - traced_rate / untraced_rate,
        ),
        ("run.traced_work_per_s", traced_rate),
        ("run.untraced_work_per_s", untraced_rate),
        ("run.sessions", (plain.sessions + traced.sessions) as f64),
        ("run.op_samples", op_samples as f64),
        ("run.tail_level", f64::from(workload.tail_level())),
        ("proc.cpu_user_s", used.cpu_user_s),
        ("proc.cpu_sys_s", used.cpu_sys_s),
        ("proc.cpu_util", used.cpu_util),
        ("proc.ctx_switches_vol", used.ctx_vol as f64),
        ("proc.ctx_switches_invol", used.ctx_invol as f64),
        ("proc.peak_rss_mb", Usage::now().peak_rss_mb),
    ]);

    let problems = metrics::check_names(
        PER_LAYER.iter().map(|m| m.name),
        values.iter().map(|(name, _)| *name),
    );
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    let failed = plain.failed + traced.failed;
    Ok(RunOutput {
        correct: failed == 0,
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, m.unit, value)
            })
            .collect(),
    })
}
