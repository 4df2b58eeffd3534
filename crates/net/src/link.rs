//! One node's direct channel.
//!
//! The link is full-duplex: the upstream (node → Controller/Backend) and
//! downstream (→ node) directions have independent capacity δ and are each
//! used serially — a node fetching a task input cannot simultaneously fetch
//! another input, but can be uploading a result meanwhile. Transfers that
//! hit loss are retransmitted whole after a timeout (task/result payloads
//! are single application-level messages in this model).

use oddci_faults::{FaultClass, FaultCounters, FaultInjector};
use oddci_telemetry::{Phase, Telemetry};
use oddci_types::{Bandwidth, DataSize, DirectChannelConfig, NodeId, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Transfer direction over a [`DirectLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Node → Controller/Backend.
    Up,
    /// Controller/Backend → node.
    Down,
}

/// One node's full-duplex point-to-point channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectLink {
    config: DirectChannelConfig,
    busy_until_up: SimTime,
    busy_until_down: SimTime,
    /// Total payload bits moved (both directions), for accounting.
    pub bits_transferred: u64,
    /// Number of retransmissions suffered, for accounting.
    pub retransmissions: u64,
}

impl DirectLink {
    /// Creates an idle link with the given configuration.
    pub fn new(config: DirectChannelConfig) -> Self {
        config.validate().expect("valid direct channel config");
        DirectLink {
            config,
            busy_until_up: SimTime::ZERO,
            busy_until_down: SimTime::ZERO,
            bits_transferred: 0,
            retransmissions: 0,
        }
    }

    /// Link capacity δ.
    pub fn capacity(&self) -> Bandwidth {
        self.config.delta
    }

    /// The configuration this link was built with.
    pub fn config(&self) -> &DirectChannelConfig {
        &self.config
    }

    /// Schedules a transfer of `size` starting no earlier than `now` and
    /// returns its completion instant. The direction stays busy until then.
    ///
    /// Loss is modelled per attempt: with probability `loss_rate` the whole
    /// message is lost and retransmitted after a timeout of one RTT.
    pub fn transfer<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size: DataSize,
        dir: Direction,
        rng: &mut R,
    ) -> SimTime {
        let busy = match dir {
            Direction::Up => &mut self.busy_until_up,
            Direction::Down => &mut self.busy_until_down,
        };
        let start = if *busy > now { *busy } else { now };
        let one_attempt = self.config.latency + size.transfer_time(self.config.delta);
        let mut finish = start + one_attempt;
        // Geometric retransmissions.
        if self.config.loss_rate > 0.0 {
            while rng.random::<f64>() < self.config.loss_rate {
                self.retransmissions += 1;
                // Loss detected after a retransmission timeout of 2 RTTs,
                // then the attempt repeats.
                finish = finish + self.config.latency * 4 + one_attempt;
            }
        }
        *busy = finish;
        self.bits_transferred += size.bits();
        finish
    }

    /// [`transfer`](Self::transfer) under an injected-fault regime.
    ///
    /// Returns `None` when the message vanishes entirely (loss burst or
    /// partition episode at `now`) — the link is then *not* occupied, the
    /// message died in the network, and the caller is expected to retry
    /// with backoff. Otherwise returns the completion instant, stretched
    /// by the active latency-spike multiplier if any (queueing delay in
    /// the network, so it extends delivery without monopolizing the
    /// link's own serializer). Every injection is recorded in `counters`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer_faulted<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size: DataSize,
        dir: Direction,
        rng: &mut R,
        injector: &FaultInjector,
        node: NodeId,
        counters: &mut FaultCounters,
    ) -> Option<SimTime> {
        if injector.partitioned(node, now) {
            counters.record(FaultClass::Partition);
            return None;
        }
        if injector.direct_dropped(node, now) {
            counters.record(FaultClass::DirectLoss);
            return None;
        }
        let done = self.transfer(now, size, dir, rng);
        let mult = injector.latency_multiplier(node, now);
        if mult > 1.0 {
            counters.record(FaultClass::LatencySpike);
            Some(now + (done - now).mul_f64(mult))
        } else {
            Some(done)
        }
    }

    /// [`transfer`](Self::transfer) that also records the delivery as a
    /// `net.transfer` span in `tele` (feeding the direct-channel RTT
    /// histogram). The span covers request-to-delivery including queueing
    /// and retransmissions; `scope` carries the payload size in bytes.
    pub fn transfer_telemetered<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size: DataSize,
        dir: Direction,
        rng: &mut R,
        tele: &Telemetry,
        track: u64,
    ) -> SimTime {
        let done = self.transfer(now, size, dir, rng);
        tele.span(
            now.as_micros(),
            done.as_micros(),
            Phase::DirectTransfer,
            track,
            size.bits() / 8,
        );
        done
    }

    /// `transfer_faulted` that records delivered messages as
    /// `net.transfer` spans. Messages that vanish (partition or
    /// loss burst) are not recorded here — the caller's retry path emits
    /// the `retry` instants that account for them.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_faulted_telemetered<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size: DataSize,
        dir: Direction,
        rng: &mut R,
        injector: &FaultInjector,
        node: NodeId,
        counters: &mut FaultCounters,
        tele: &Telemetry,
    ) -> Option<SimTime> {
        let done = self.transfer_faulted(now, size, dir, rng, injector, node, counters)?;
        tele.span(
            now.as_micros(),
            done.as_micros(),
            Phase::DirectTransfer,
            node.raw(),
            size.bits() / 8,
        );
        Some(done)
    }

    /// Clears queued work (node power-off: in-flight transfers are lost).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until_up = now;
        self.busy_until_down = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::SimDuration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lossless() -> DirectLink {
        DirectLink::new(DirectChannelConfig {
            delta: Bandwidth::from_kbps(150.0),
            latency: SimDuration::from_millis(50),
            loss_rate: 0.0,
        })
    }

    #[test]
    fn transfer_time_is_latency_plus_serialization() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        // 1 KB = 8192 bits over 150 kbps ≈ 54.613 ms, plus 50 ms latency.
        let done = link.transfer(
            SimTime::ZERO,
            DataSize::from_kilobytes(1),
            Direction::Up,
            &mut rng,
        );
        let expect = 0.050 + 8192.0 / 150_000.0;
        assert!((done.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn serial_use_queues_transfers() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        let first = link.transfer(
            SimTime::ZERO,
            DataSize::from_kilobytes(10),
            Direction::Up,
            &mut rng,
        );
        let second = link.transfer(
            SimTime::ZERO,
            DataSize::from_kilobytes(10),
            Direction::Up,
            &mut rng,
        );
        assert_eq!(
            second - first,
            first - SimTime::ZERO,
            "second waits for first"
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        let up = link.transfer(
            SimTime::ZERO,
            DataSize::from_kilobytes(10),
            Direction::Up,
            &mut rng,
        );
        let down = link.transfer(
            SimTime::ZERO,
            DataSize::from_kilobytes(10),
            Direction::Down,
            &mut rng,
        );
        assert_eq!(up, down, "full duplex: no cross-direction queueing");
    }

    #[test]
    fn loss_inflates_completion() {
        let cfg = DirectChannelConfig {
            delta: Bandwidth::from_kbps(150.0),
            latency: SimDuration::from_millis(50),
            loss_rate: 0.5,
        };
        let mut lossy = DirectLink::new(cfg);
        let mut rng = SmallRng::seed_from_u64(7);
        let size = DataSize::from_kilobytes(4);
        let mut total_lossy = 0.0;
        let n = 2000;
        for i in 0..n {
            let t0 = SimTime::from_secs(i * 100);
            lossy.reset(t0);
            let done = lossy.transfer(t0, size, Direction::Up, &mut rng);
            total_lossy += (done - t0).as_secs_f64();
        }
        let mean_lossy = total_lossy / n as f64;
        let ideal = lossless()
            .transfer(SimTime::ZERO, size, Direction::Up, &mut rng)
            .as_secs_f64();
        // E[attempts] = 1/(1-0.5) = 2; plus timeout overhead -> clearly >1.5x.
        assert!(mean_lossy > ideal * 1.5, "mean={mean_lossy} ideal={ideal}");
        assert!(lossy.retransmissions > 0);
    }

    #[test]
    fn accounting_tracks_bits() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        link.transfer(
            SimTime::ZERO,
            DataSize::from_bytes(100),
            Direction::Up,
            &mut rng,
        );
        link.transfer(
            SimTime::ZERO,
            DataSize::from_bytes(50),
            Direction::Down,
            &mut rng,
        );
        assert_eq!(link.bits_transferred, 150 * 8);
    }

    #[test]
    fn reset_clears_queue() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        link.transfer(
            SimTime::ZERO,
            DataSize::from_megabytes(1),
            Direction::Up,
            &mut rng,
        );
        // A reset link serves the next transfer as an idle one would.
        let t = SimTime::from_secs(1);
        link.reset(t);
        let size = DataSize::from_bytes(100);
        assert_eq!(
            link.transfer(t, size, Direction::Up, &mut rng),
            lossless().transfer(t, size, Direction::Up, &mut rng)
        );
    }

    #[test]
    fn faulted_transfer_drops_and_spikes() {
        use oddci_faults::{FaultPlan, FaultSpec};
        let node = NodeId::new(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let size = DataSize::from_kilobytes(1);

        // Total loss: every message vanishes, link stays idle.
        let lossy = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::new(FaultClass::DirectLoss, 1.0).magnitude(10.0)),
            1,
        );
        let mut link = lossless();
        let mut counters = FaultCounters::default();
        let out = link.transfer_faulted(
            SimTime::ZERO,
            size,
            Direction::Up,
            &mut rng,
            &lossy,
            node,
            &mut counters,
        );
        assert_eq!(out, None);
        assert_eq!(counters.direct_losses, 1);
        assert_eq!(
            link.transfer(SimTime::ZERO, size, Direction::Up, &mut rng),
            lossless().transfer(SimTime::ZERO, size, Direction::Up, &mut rng),
            "dropped in the network"
        );

        // Permanent 4x latency spike: delivery stretches, and is counted.
        let spiky = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::new(FaultClass::LatencySpike, 1.0).magnitude(4.0)),
            1,
        );
        let mut link = lossless();
        let nominal = lossless().transfer(SimTime::ZERO, size, Direction::Up, &mut rng);
        let done = link
            .transfer_faulted(
                SimTime::ZERO,
                size,
                Direction::Up,
                &mut rng,
                &spiky,
                node,
                &mut counters,
            )
            .unwrap();
        let stretch = done.as_secs_f64() / nominal.as_secs_f64();
        assert!((3.9..4.1).contains(&stretch), "stretch {stretch}");
        assert_eq!(counters.latency_spikes, 1);

        // No faults: identical to the plain path.
        let mut a = lossless();
        let mut b = lossless();
        let mut ra = SmallRng::seed_from_u64(9);
        let mut rb = SmallRng::seed_from_u64(9);
        let plain = a.transfer(SimTime::ZERO, size, Direction::Up, &mut ra);
        let faulted = b
            .transfer_faulted(
                SimTime::ZERO,
                size,
                Direction::Up,
                &mut rb,
                &FaultInjector::disabled(),
                node,
                &mut counters,
            )
            .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn partition_cuts_both_directions() {
        use oddci_faults::{FaultPlan, FaultSpec};
        let inj = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::new(FaultClass::Partition, 1.0).magnitude(60.0)),
            2,
        );
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counters = FaultCounters::default();
        for dir in [Direction::Up, Direction::Down] {
            let out = link.transfer_faulted(
                SimTime::from_secs(5),
                DataSize::from_bytes(64),
                dir,
                &mut rng,
                &inj,
                NodeId::new(0),
                &mut counters,
            );
            assert_eq!(out, None);
        }
        assert_eq!(counters.partitions, 2);
    }

    #[test]
    fn transfer_starting_later_respects_now() {
        let mut link = lossless();
        let mut rng = SmallRng::seed_from_u64(1);
        let done = link.transfer(
            SimTime::from_secs(100),
            DataSize::from_bytes(1),
            Direction::Up,
            &mut rng,
        );
        assert!(done > SimTime::from_secs(100));
    }
}
