//! Capacity model for the shared receiving side (Controller / Backend).
//!
//! §3.2, footnote 3: the paper defers the question of the Controller
//! becoming a heartbeat bottleneck to future work, but its sizing matters
//! for experiment X2. We model the Controller's ingest as an M/D/1 queue:
//! Poisson arrivals (millions of independent PNAs with unsynchronized
//! heartbeat phases are well approximated by a Poisson stream), constant
//! per-message service time.

use oddci_types::{Bandwidth, DataSize, SimDuration};
use serde::{Deserialize, Serialize};

/// Ingest capacity of a Controller or Backend endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerCapacity {
    /// Messages the server can process per second (CPU bound).
    pub service_rate_msgs: f64,
    /// Aggregate access-link capacity.
    pub ingress: Bandwidth,
}

impl ServerCapacity {
    /// Creates a capacity description.
    pub fn new(service_rate_msgs: f64, ingress: Bandwidth) -> Self {
        assert!(service_rate_msgs > 0.0, "service rate must be positive");
        ServerCapacity {
            service_rate_msgs,
            ingress,
        }
    }

    /// Aggregate message arrival rate for `nodes` each sending one message
    /// every `interval`.
    pub fn arrival_rate(nodes: u64, interval: SimDuration) -> f64 {
        assert!(!interval.is_zero(), "interval must be positive");
        nodes as f64 / interval.as_secs_f64()
    }

    /// CPU utilization ρ for the given arrival rate; > 1 means overload.
    pub fn utilization(&self, arrival_rate: f64) -> f64 {
        arrival_rate / self.service_rate_msgs
    }

    /// Link utilization for messages of `msg_size` at `arrival_rate`.
    pub fn link_utilization(&self, arrival_rate: f64, msg_size: DataSize) -> f64 {
        arrival_rate * msg_size.bits() as f64 / self.ingress.bps()
    }

    /// Mean waiting time in queue for an M/D/1 system at the given arrival
    /// rate: `Wq = ρ / (2·μ·(1-ρ))`. Returns `None` when the system is
    /// unstable (ρ ≥ 1).
    pub(crate) fn mean_queue_delay(&self, arrival_rate: f64) -> Option<SimDuration> {
        let rho = self.utilization(arrival_rate);
        if rho >= 1.0 {
            return None;
        }
        let wq = rho / (2.0 * self.service_rate_msgs * (1.0 - rho));
        Some(SimDuration::from_secs_f64(wq))
    }

    /// Mean total sojourn (queue + service). `None` when unstable.
    pub fn mean_response_time(&self, arrival_rate: f64) -> Option<SimDuration> {
        self.mean_queue_delay(arrival_rate)
            .map(|wq| wq + SimDuration::from_secs_f64(1.0 / self.service_rate_msgs))
    }

    /// The largest node population this server sustains (ρ < `target_rho`)
    /// at one message per `interval` per node.
    pub fn max_nodes(&self, interval: SimDuration, target_rho: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&target_rho),
            "target utilization in [0,1]"
        );
        (self.service_rate_msgs * target_rho * interval.as_secs_f64()).floor() as u64
    }

    /// The shortest heartbeat interval sustainable for `nodes` at
    /// `target_rho` utilization — the knob §3.2 says the Controller tunes
    /// ("the PNA must be appropriately configured by the Controller").
    pub fn min_interval(&self, nodes: u64, target_rho: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&target_rho) && target_rho > 0.0);
        SimDuration::from_secs_f64(nodes as f64 / (self.service_rate_msgs * target_rho))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ServerCapacity {
        ServerCapacity::new(10_000.0, Bandwidth::from_mbps(100.0))
    }

    #[test]
    fn arrival_rate_scales_with_population() {
        let r = ServerCapacity::arrival_rate(600_000, SimDuration::from_secs(60));
        assert!((r - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_and_stability() {
        let s = server();
        assert!((s.utilization(5_000.0) - 0.5).abs() < 1e-12);
        assert!(s.mean_queue_delay(5_000.0).is_some());
        assert!(s.mean_queue_delay(10_000.0).is_none(), "rho=1 unstable");
        assert!(s.mean_queue_delay(20_000.0).is_none());
    }

    #[test]
    fn md1_delay_formula() {
        let s = server();
        // rho = 0.5, mu = 1e4: Wq = 0.5 / (2*1e4*0.5) = 50 µs.
        let wq = s.mean_queue_delay(5_000.0).unwrap();
        assert_eq!(wq, SimDuration::from_micros(50));
        // Response = Wq + 1/mu = 50 + 100 = 150 µs.
        assert_eq!(
            s.mean_response_time(5_000.0).unwrap(),
            SimDuration::from_micros(150)
        );
    }

    #[test]
    fn queue_delay_explodes_near_saturation() {
        let s = server();
        let low = s.mean_queue_delay(1_000.0).unwrap();
        let high = s.mean_queue_delay(9_900.0).unwrap();
        assert!(high.as_secs_f64() > low.as_secs_f64() * 50.0);
    }

    #[test]
    fn sizing_inversions_are_consistent() {
        let s = server();
        let interval = SimDuration::from_secs(60);
        let n = s.max_nodes(interval, 0.8);
        assert_eq!(n, 480_000);
        // Inverting: the min interval for that population at the same rho
        // is the original interval.
        let i = s.min_interval(n, 0.8);
        assert!((i.as_secs_f64() - 60.0).abs() < 1e-3);
    }

    #[test]
    fn link_utilization() {
        let s = server();
        // 10k msgs/s * 128 B = 10.24 Mbit/s over 100 Mbps = 0.1024.
        let u = s.link_utilization(10_000.0, DataSize::from_bytes(128));
        assert!((u - 0.1024).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_rate_rejected() {
        let _ = ServerCapacity::new(0.0, Bandwidth::from_mbps(1.0));
    }
}
