//! Aggregate observables of a world run.
//!
//! The counters live in the world's `oddci-telemetry` [`Registry`] (under
//! `world.*` names), so one Prometheus dump or registry snapshot sees the
//! same numbers as [`MetricsSnapshot`]. The handles here are the cached
//! hot-path accessors; both views are always on, so tracing on/off never
//! changes a reported value.

use oddci_faults::FaultCounters;
use oddci_sim::{Histogram, Summary};
use oddci_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cap on stored size samples per instance (one per controller tick).
const TIMELINE_CAP: usize = 100_000;

/// Counters and distributions collected while the world runs.
pub struct WorldMetrics {
    /// Wakeup latency per joining node: publish of the instance's first
    /// wakeup → image running (seconds).
    pub wakeup_latency: Histogram,
    /// Nodes that completed a join (DVE running).
    pub joins: Counter,
    /// Tasks completed across all jobs.
    pub tasks_completed: Counter,
    /// Control-message deliveries processed by PNAs.
    pub control_deliveries: Counter,
    /// Heartbeats that reached the Controller.
    pub heartbeats_delivered: Counter,
    /// Direct resets delivered to nodes.
    pub direct_resets: Counter,
    /// Node power-offs that orphaned an in-flight task.
    pub tasks_orphaned: Counter,
    /// Tasks re-queued by the Backend (node losses, stale re-requests).
    pub requeues: Counter,
    /// Task fetches retried after a lost request, lost input, or Backend
    /// stall (bounded exponential backoff).
    pub task_fetch_retries: Counter,
    /// Retry chains abandoned after exhausting the backoff budget.
    pub fetch_aborts: Counter,
    /// Injected-fault counts per class (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Instance-size samples per instance, one `(secs, size)` point per
    /// controller tick while the instance lives (capped).
    pub size_timeline: BTreeMap<u64, Vec<(f64, u64)>>,
}

impl Default for WorldMetrics {
    fn default() -> Self {
        WorldMetrics::registered(&Telemetry::disabled())
    }
}

impl WorldMetrics {
    /// Builds the metric set with every counter registered in `tele`'s
    /// registry under a `world.*` name.
    pub fn registered(tele: &Telemetry) -> Self {
        let reg = tele.registry();
        WorldMetrics {
            // One-second unit: wakeups range from seconds to tens of minutes.
            wakeup_latency: Histogram::new(1.0),
            joins: reg.counter("world.joins"),
            tasks_completed: reg.counter("world.tasks_completed"),
            control_deliveries: reg.counter("world.control_deliveries"),
            heartbeats_delivered: reg.counter("world.heartbeats_delivered"),
            direct_resets: reg.counter("world.direct_resets"),
            tasks_orphaned: reg.counter("world.tasks_orphaned"),
            requeues: reg.counter("world.requeues"),
            task_fetch_retries: reg.counter("world.task_fetch_retries"),
            fetch_aborts: reg.counter("world.fetch_aborts"),
            faults: FaultCounters::default(),
            size_timeline: BTreeMap::new(),
        }
    }

    /// Appends one instance-size sample (no-op past the per-instance cap).
    pub(crate) fn sample_instance_size(&mut self, instance_raw: u64, at_secs: f64, size: u64) {
        let series = self.size_timeline.entry(instance_raw).or_default();
        if series.len() < TIMELINE_CAP {
            series.push((at_secs, size));
        }
    }

    /// Serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            wakeup_latency: self.wakeup_latency.stats().summary(),
            joins: self.joins.get(),
            tasks_completed: self.tasks_completed.get(),
            control_deliveries: self.control_deliveries.get(),
            heartbeats_delivered: self.heartbeats_delivered.get(),
            direct_resets: self.direct_resets.get(),
            tasks_orphaned: self.tasks_orphaned.get(),
            requeues: self.requeues.get(),
            task_fetch_retries: self.task_fetch_retries.get(),
            fetch_aborts: self.fetch_aborts.get(),
            faults: self.faults,
        }
    }
}

/// Serializable snapshot of [`WorldMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wakeup latency statistics in seconds.
    pub wakeup_latency: Summary,
    /// Nodes that completed a join.
    pub joins: u64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// PNA control-message deliveries.
    pub control_deliveries: u64,
    /// Heartbeats received by the Controller.
    pub heartbeats_delivered: u64,
    /// Direct resets delivered.
    pub direct_resets: u64,
    /// Tasks orphaned by churn.
    pub tasks_orphaned: u64,
    /// Tasks re-queued by the Backend.
    pub requeues: u64,
    /// Task fetches retried with backoff.
    pub task_fetch_retries: u64,
    /// Retry chains abandoned after the backoff budget.
    pub fetch_aborts: u64,
    /// Injected-fault counts per class.
    pub faults: FaultCounters,
}
