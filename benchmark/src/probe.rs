//! A benchmark-owned PNA that times what it does.
//!
//! `run_wire_pna` is a black box: it fetches, scores and uploads on its
//! own threads and reports nothing per request. The probe speaks the same
//! protocol from public pieces only — `WireClient`, `WireMsg` and the
//! `Pna` state machine — one step at a time on the caller's thread, so
//! the caller can put a monotonic clock around a single fetch. It never
//! decodes the image bytes a wakeup carries (`decode_image` is private to
//! `oddci-live`); the caller materializes its own copy of the image it
//! submitted.

use crate::sut::{
    ClientConfig, HeartbeatReply, InstanceId, Integrity, JobId, NodeId, Pna, PnaAction, SimTime,
    Task, TaskId, WireBatch, WireClient, WireMsg, PROTO_VERSION,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The live plane's default heartbeat period.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(150);
/// How long the probe waits for any single reply. Matches the node
/// loop's task-reply timeout; a fetch that takes longer is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a handshake or a wakeup may take.
const SLOW_TIMEOUT: Duration = Duration::from_secs(10);

/// What one task request came back with.
pub enum Fetched {
    /// Tasks (with their query bytes) of `job`.
    Tasks(JobId, Vec<(Task, Vec<u8>)>),
    /// The instance has no work left.
    Drained,
    /// No reply within the reply timeout.
    TimedOut,
}

/// One connection speaking the PNA side of the wire protocol.
pub struct Probe {
    client: WireClient,
    pna: Pna,
    rng: SmallRng,
    epoch: u64,
    next_corr: u64,
    started: Instant,
    last_heartbeat: Instant,
    /// Set once the headend broadcast `Shutdown` or the socket died.
    pub closed: bool,
}

impl Probe {
    /// Dials `addr` and completes the hello handshake. `resume` asks for
    /// an identity a previous headend issued (the failover path);
    /// `min_epoch` is the highest epoch this node claims to have seen.
    pub fn connect(
        addr: SocketAddr,
        key: &[u8],
        seed: u64,
        min_epoch: u64,
        resume: Option<NodeId>,
    ) -> Result<Probe, String> {
        let client = WireClient::connect(addr, ClientConfig::new(Integrity::hmac(key)))
            .map_err(|e| format!("probe cannot connect: {e}"))?;
        let hello = WireMsg::Hello {
            proto: PROTO_VERSION,
            epoch: min_epoch,
            resume,
        };
        if !client.send(&hello) {
            return Err("connection closed during hello".into());
        }
        let deadline = Instant::now() + SLOW_TIMEOUT;
        let (node, epoch) = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("no HelloAck from headend".into());
            }
            match client.receiver().recv_timeout(left) {
                Ok(WireMsg::HelloAck { node, epoch }) => break (node, epoch),
                // A fresh headend has nothing on air yet; anything else
                // that beats the ack is not for an unidentified node.
                Ok(_) => {}
                Err(_) if client.is_closed() => return Err("connection closed during hello".into()),
                Err(_) => {}
            }
        };
        if epoch < min_epoch {
            return Err(format!(
                "headend acked with stale epoch {epoch} < {min_epoch}"
            ));
        }
        let now = Instant::now();
        Ok(Probe {
            client,
            pna: Pna::new(node, key),
            rng: SmallRng::seed_from_u64(seed),
            epoch,
            next_corr: 0,
            started: now,
            last_heartbeat: now,
            closed: false,
        })
    }

    /// The identity the headend acked.
    pub fn node(&self) -> NodeId {
        self.pna.node()
    }

    /// The epoch the headend acked with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn corr(&mut self) -> u64 {
        self.next_corr += 1;
        self.next_corr
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// Applies traffic the probe was not waiting for. Returns the
    /// instance a wakeup just recruited this node into, if any.
    fn absorb(&mut self, msg: WireMsg) -> Option<InstanceId> {
        match msg {
            WireMsg::Broadcast { signed, .. } => {
                let host = crate::sut::standby_host();
                match self.pna.on_control_message(&signed, host, &mut self.rng) {
                    PnaAction::BeginAcquisition { instance, .. } => {
                        // The caller holds the image already; the DVE is
                        // "loaded" as soon as the wakeup is accepted.
                        let _ = self.pna.image_ready();
                        Some(instance)
                    }
                    _ => None,
                }
            }
            WireMsg::HeartbeatReply {
                reply: HeartbeatReply::Reset(instance),
                ..
            } => {
                self.pna.on_direct_reset(instance);
                None
            }
            WireMsg::Shutdown => {
                self.closed = true;
                None
            }
            _ => None,
        }
    }

    /// Receives until `want` accepts a message or `timeout` passes.
    fn wait_for<T>(
        &mut self,
        timeout: Duration,
        mut want: impl FnMut(&mut Probe, WireMsg) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        while !self.closed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.client.receiver().recv_timeout(left) {
                Ok(msg) => {
                    if let Some(found) = want(self, msg) {
                        return Some(found);
                    }
                }
                Err(_) if self.client.is_closed() => self.closed = true,
                Err(_) => {}
            }
        }
        None
    }

    /// Sends one heartbeat without waiting for its reply (replies are
    /// absorbed by whichever wait runs next).
    pub fn heartbeat(&mut self) {
        let corr = self.corr();
        let hb = self.pna.heartbeat(self.now());
        if !self.client.send(&WireMsg::Heartbeat { corr, hb }) {
            self.closed = true;
        }
        self.last_heartbeat = Instant::now();
    }

    /// Heartbeats if the period has elapsed.
    pub fn heartbeat_if_due(&mut self) {
        if self.last_heartbeat.elapsed() >= HEARTBEAT_EVERY {
            self.heartbeat();
        }
    }

    /// Heartbeats and waits for the ack, so the Controller has this node
    /// in its registry before the caller submits a job.
    pub fn heartbeat_acked(&mut self) -> Result<(), String> {
        self.heartbeat();
        let corr = self.next_corr;
        self.wait_for(SLOW_TIMEOUT, |probe, msg| {
            let acked = matches!(msg, WireMsg::HeartbeatReply { corr: c, .. } if c == corr);
            probe.absorb(msg);
            acked.then_some(())
        })
        .ok_or_else(|| "no heartbeat reply".to_string())
    }

    /// Waits for a wakeup this node accepts; heartbeats busy afterwards
    /// the way `node_main` does once its image is ready.
    pub fn await_wakeup(&mut self) -> Result<InstanceId, String> {
        let instance = self
            .wait_for(SLOW_TIMEOUT, |probe, msg| probe.absorb(msg))
            .ok_or_else(|| "no wakeup accepted".to_string())?;
        self.heartbeat();
        Ok(instance)
    }

    /// One task request. The returned duration runs from just before the
    /// request is written to just after its `TaskBatch` is received.
    pub fn fetch(&mut self, instance: InstanceId) -> (Fetched, Duration) {
        let corr = self.corr();
        let node = self.pna.node();
        let t0 = Instant::now();
        if !self.client.send(&WireMsg::TaskRequest {
            corr,
            instance,
            node,
        }) {
            self.closed = true;
            return (Fetched::TimedOut, t0.elapsed());
        }
        let got = self.wait_for(REPLY_TIMEOUT, |probe, msg| match msg {
            WireMsg::TaskBatch { corr: c, batch } if c == corr => Some(batch),
            other => {
                probe.absorb(other);
                None
            }
        });
        let rtt = t0.elapsed();
        let fetched = match got {
            Some(WireBatch::Assigned { job, tasks }) => Fetched::Tasks(job, tasks),
            Some(WireBatch::Drained) => Fetched::Drained,
            None => Fetched::TimedOut,
        };
        (fetched, rtt)
    }

    /// Uploads scores (fire and forget, as the protocol defines it).
    pub fn upload(&mut self, job: JobId, results: Vec<(TaskId, i32)>) {
        for _ in &results {
            let _ = self.pna.task_done();
        }
        let node = self.pna.node();
        if !self.client.send(&WireMsg::Results { job, node, results }) {
            self.closed = true;
        }
    }
}
