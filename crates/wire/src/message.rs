//! The live-plane wire vocabulary: every message a headend and a PNA
//! exchange over TCP, with a hand-rolled deterministic binary codec.
//!
//! Request/reply pairs (heartbeat, task fetch) carry a `corr`elation id
//! chosen by the requester — the single-socket transport multiplexes all
//! of a node's traffic over one connection, so replies must name the
//! request they answer (SNIPPETS.md snippet 3's single-channel plan).
//! Broadcast traffic (wakeups, resets, shutdown) flows server → client
//! with no correlation: it is the socket mirror of the carousel bus.

use crate::codec::{Reader, Writer};
use crate::tcp::ConnTraffic;
use crate::WireError;
use oddci_core::messages::{
    ControlMessage, Heartbeat, HeartbeatReply, NodeRequirements, PnaStateKind, ResetMessage,
    SignedMessage, WakeupMessage,
};
use oddci_crypto::{Tag, TAG_LEN};
use oddci_telemetry::{HistogramSummary, RegistrySnapshot};
use oddci_types::{
    DataSize, ImageId, InstanceId, JobId, MessageId, NodeId, Probability, SimDuration, SimTime,
    TaskId,
};
use oddci_workload::Task;

/// Wire protocol version spoken in [`WireMsg::Hello`].
///
/// v2 added the headend **epoch** to the handshake (and an optional resume
/// identity to `Hello`): each headend incarnation speaks from a monotonic
/// epoch, and a PNA that has seen epoch `e` refuses any `HelloAck` with a
/// lower one — the fencing token that prevents a zombie primary from
/// reclaiming nodes after a standby adopted them.
pub const PROTO_VERSION: u16 = 2;

/// A batch of tasks answering one [`WireMsg::TaskRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireBatch {
    /// No work left for this instance.
    Drained,
    /// Tasks plus their query payloads.
    Assigned {
        /// Owning job.
        job: JobId,
        /// `(task, query bytes)` pairs.
        tasks: Vec<(Task, Vec<u8>)>,
    },
}

/// Every message of the live wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client → server: first message on a connection.
    Hello {
        /// Protocol version the client speaks.
        proto: u16,
        /// Highest headend epoch the client has spoken with (0 on a fresh
        /// connect). A server never acks from a lower epoch.
        epoch: u64,
        /// Node identity to resume after a reconnect, so a standby that
        /// adopted this node's membership from a snapshot re-acks the
        /// *same* id instead of minting a fresh one.
        resume: Option<NodeId>,
    },
    /// Server → client: node identity assigned to this connection.
    HelloAck {
        /// The node id the PNA runs under.
        node: NodeId,
        /// The serving headend's epoch. Clients reject acks whose epoch is
        /// lower than the highest they have seen.
        epoch: u64,
    },
    /// Client → server: one heartbeat, expecting a reply.
    Heartbeat {
        /// Correlation id echoed by the reply.
        corr: u64,
        /// The heartbeat.
        hb: Heartbeat,
    },
    /// Server → client: answer to a heartbeat.
    HeartbeatReply {
        /// Correlation id of the heartbeat answered.
        corr: u64,
        /// Ack or direct reset.
        reply: HeartbeatReply,
    },
    /// Client → server: fetch a batch of tasks.
    TaskRequest {
        /// Correlation id echoed by the reply.
        corr: u64,
        /// Instance the node executes.
        instance: InstanceId,
        /// Requesting node.
        node: NodeId,
    },
    /// Server → client: answer to a task request.
    TaskBatch {
        /// Correlation id of the request answered.
        corr: u64,
        /// The batch (or `Drained`).
        batch: WireBatch,
    },
    /// Client → server: completed task scores (fire and forget; the
    /// Backend's ledgers recover losses via reassignment).
    Results {
        /// Owning job.
        job: JobId,
        /// Reporting node.
        node: NodeId,
        /// `(task, best score)` pairs.
        results: Vec<(TaskId, i32)>,
    },
    /// Server → client: a signed control message, plus the application
    /// image bytes for wakeups (this is the payload that streams in
    /// multiple chunks).
    Broadcast {
        /// The authenticated wakeup/reset.
        signed: SignedMessage,
        /// Encoded image (recipe + database) for wakeups.
        image: Option<Vec<u8>>,
    },
    /// Server → client: the plane is shutting down.
    Shutdown,
    /// Client → server: ask for the headend's live metrics. Answered
    /// without a `Hello` handshake so a monitoring client never consumes
    /// a node identity.
    StatsQuery {
        /// Correlation id echoed by the reply.
        corr: u64,
    },
    /// Server → client: the headend's metrics registry plus the
    /// per-connection wire counters, answering one [`WireMsg::StatsQuery`].
    StatsReply {
        /// Correlation id of the query answered.
        corr: u64,
        /// Counters, gauges, and latency histogram summaries.
        registry: RegistrySnapshot,
        /// One row per connection the headend has seen.
        connections: Vec<ConnTraffic>,
    },
}

impl WireMsg {
    /// The frame-header kind byte of this message.
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::HelloAck { .. } => 2,
            WireMsg::Heartbeat { .. } => 3,
            WireMsg::HeartbeatReply { .. } => 4,
            WireMsg::TaskRequest { .. } => 5,
            WireMsg::TaskBatch { .. } => 6,
            WireMsg::Results { .. } => 7,
            WireMsg::Broadcast { .. } => 8,
            WireMsg::Shutdown => 9,
            WireMsg::StatsQuery { .. } => 10,
            WireMsg::StatsReply { .. } => 11,
        }
    }

    /// Encodes the message payload (the frame layer adds kind/seq).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            WireMsg::Hello {
                proto,
                epoch,
                resume,
            } => {
                w.u16(*proto);
                w.u64(*epoch);
                match resume {
                    None => w.u8(0),
                    Some(node) => {
                        w.u8(1);
                        w.u64(node.raw());
                    }
                }
            }
            WireMsg::HelloAck { node, epoch } => {
                w.u64(node.raw());
                w.u64(*epoch);
            }
            WireMsg::Heartbeat { corr, hb } => {
                w.u64(*corr);
                encode_heartbeat(&mut w, hb);
            }
            WireMsg::HeartbeatReply { corr, reply } => {
                w.u64(*corr);
                match reply {
                    HeartbeatReply::Ack => w.u8(0),
                    HeartbeatReply::Reset(inst) => {
                        w.u8(1);
                        w.u64(inst.raw());
                    }
                }
            }
            WireMsg::TaskRequest {
                corr,
                instance,
                node,
            } => {
                w.u64(*corr);
                w.u64(instance.raw());
                w.u64(node.raw());
            }
            WireMsg::TaskBatch { corr, batch } => {
                w.u64(*corr);
                match batch {
                    WireBatch::Drained => w.u8(0),
                    WireBatch::Assigned { job, tasks } => {
                        w.u8(1);
                        w.u64(job.raw());
                        w.u32(tasks.len() as u32);
                        for (task, query) in tasks {
                            encode_task(&mut w, task);
                            w.bytes(query);
                        }
                    }
                }
            }
            WireMsg::Results { job, node, results } => {
                w.u64(job.raw());
                w.u64(node.raw());
                w.u32(results.len() as u32);
                for (task, score) in results {
                    w.u64(task.raw());
                    w.i32(*score);
                }
            }
            WireMsg::Broadcast { signed, image } => {
                encode_signed(&mut w, signed);
                match image {
                    None => w.u8(0),
                    Some(bytes) => {
                        w.u8(1);
                        w.bytes(bytes);
                    }
                }
            }
            WireMsg::Shutdown => {}
            WireMsg::StatsQuery { corr } => w.u64(*corr),
            WireMsg::StatsReply {
                corr,
                registry,
                connections,
            } => {
                w.u64(*corr);
                w.u32(registry.counters.len() as u32);
                for (name, value) in &registry.counters {
                    w.bytes(name.as_bytes());
                    w.u64(*value);
                }
                w.u32(registry.gauges.len() as u32);
                for (name, value) in &registry.gauges {
                    w.bytes(name.as_bytes());
                    w.f64(*value);
                }
                w.u32(registry.histograms.len() as u32);
                for (name, h) in &registry.histograms {
                    w.bytes(name.as_bytes());
                    w.u64(h.count);
                    w.f64(h.mean);
                    w.f64(h.p50);
                    w.f64(h.p90);
                    w.f64(h.p99);
                    w.f64(h.max);
                }
                w.u32(connections.len() as u32);
                for c in connections {
                    w.u64(c.conn);
                    w.bool(c.open);
                    w.u64(c.tx_frames);
                    w.u64(c.rx_frames);
                    w.u64(c.tx_bytes);
                    w.u64(c.rx_bytes);
                    w.u64(c.checksum_rejects);
                    w.u64(c.resyncs);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a message from its frame `kind` and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<WireMsg, WireError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            1 => {
                let proto = r.u16()?;
                let epoch = r.u64()?;
                let resume = match r.u8()? {
                    0 => None,
                    1 => Some(NodeId::new(r.u64()?)),
                    _ => return Err(WireError::Malformed("unknown resume tag")),
                };
                WireMsg::Hello {
                    proto,
                    epoch,
                    resume,
                }
            }
            2 => WireMsg::HelloAck {
                node: NodeId::new(r.u64()?),
                epoch: r.u64()?,
            },
            3 => WireMsg::Heartbeat {
                corr: r.u64()?,
                hb: decode_heartbeat(&mut r)?,
            },
            4 => {
                let corr = r.u64()?;
                let reply = match r.u8()? {
                    0 => HeartbeatReply::Ack,
                    1 => HeartbeatReply::Reset(InstanceId::new(r.u64()?)),
                    _ => return Err(WireError::Malformed("unknown heartbeat reply tag")),
                };
                WireMsg::HeartbeatReply { corr, reply }
            }
            5 => WireMsg::TaskRequest {
                corr: r.u64()?,
                instance: InstanceId::new(r.u64()?),
                node: NodeId::new(r.u64()?),
            },
            6 => {
                let corr = r.u64()?;
                let batch = match r.u8()? {
                    0 => WireBatch::Drained,
                    1 => {
                        let job = JobId::new(r.u64()?);
                        let n = r.u32()? as usize;
                        // The headend answers a dry queue with `Drained`; an empty
                        // assignment would hand the PNA a batch with no first task.
                        if n == 0 {
                            return Err(WireError::Malformed("empty task batch"));
                        }
                        let mut tasks = Vec::with_capacity(n.min(4096));
                        for _ in 0..n {
                            let task = decode_task(&mut r)?;
                            let query = r.bytes()?.to_vec();
                            tasks.push((task, query));
                        }
                        WireBatch::Assigned { job, tasks }
                    }
                    _ => return Err(WireError::Malformed("unknown batch tag")),
                };
                WireMsg::TaskBatch { corr, batch }
            }
            7 => {
                let job = JobId::new(r.u64()?);
                let node = NodeId::new(r.u64()?);
                let n = r.u32()? as usize;
                let mut results = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let task = TaskId::new(r.u64()?);
                    let score = r.i32()?;
                    results.push((task, score));
                }
                WireMsg::Results { job, node, results }
            }
            8 => {
                let signed = decode_signed(&mut r)?;
                let image = match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?.to_vec()),
                    _ => return Err(WireError::Malformed("unknown image tag")),
                };
                WireMsg::Broadcast { signed, image }
            }
            9 => WireMsg::Shutdown,
            10 => WireMsg::StatsQuery { corr: r.u64()? },
            11 => {
                let corr = r.u64()?;
                let mut registry = RegistrySnapshot::default();
                for _ in 0..r.u32()? {
                    let name = read_metric_name(&mut r)?;
                    registry.counters.insert(name, r.u64()?);
                }
                for _ in 0..r.u32()? {
                    let name = read_metric_name(&mut r)?;
                    registry.gauges.insert(name, r.f64()?);
                }
                for _ in 0..r.u32()? {
                    let name = read_metric_name(&mut r)?;
                    let h = HistogramSummary {
                        count: r.u64()?,
                        mean: r.f64()?,
                        p50: r.f64()?,
                        p90: r.f64()?,
                        p99: r.f64()?,
                        max: r.f64()?,
                    };
                    registry.histograms.insert(name, h);
                }
                let n = r.u32()? as usize;
                let mut connections = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    connections.push(ConnTraffic {
                        conn: r.u64()?,
                        open: r.bool()?,
                        tx_frames: r.u64()?,
                        rx_frames: r.u64()?,
                        tx_bytes: r.u64()?,
                        rx_bytes: r.u64()?,
                        checksum_rejects: r.u64()?,
                        resyncs: r.u64()?,
                    });
                }
                WireMsg::StatsReply {
                    corr,
                    registry,
                    connections,
                }
            }
            _ => return Err(WireError::Malformed("unknown message kind")),
        };
        r.finish()?;
        Ok(msg)
    }
}

fn read_metric_name(r: &mut Reader<'_>) -> Result<String, WireError> {
    String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| WireError::Malformed("metric name is not utf-8"))
}

fn encode_heartbeat(w: &mut Writer, hb: &Heartbeat) {
    w.u64(hb.node.raw());
    w.u8(match hb.state {
        PnaStateKind::Idle => 0,
        PnaStateKind::Busy => 1,
    });
    match hb.instance {
        None => w.u8(0),
        Some(inst) => {
            w.u8(1);
            w.u64(inst.raw());
        }
    }
    w.u64(hb.sent_at.as_micros());
}

fn decode_heartbeat(r: &mut Reader<'_>) -> Result<Heartbeat, WireError> {
    let node = NodeId::new(r.u64()?);
    let state = match r.u8()? {
        0 => PnaStateKind::Idle,
        1 => PnaStateKind::Busy,
        _ => return Err(WireError::Malformed("unknown PNA state")),
    };
    let instance = match r.u8()? {
        0 => None,
        1 => Some(InstanceId::new(r.u64()?)),
        _ => return Err(WireError::Malformed("unknown instance tag")),
    };
    let sent_at = SimTime::from_micros(r.u64()?);
    Ok(Heartbeat {
        node,
        state,
        instance,
        sent_at,
    })
}

fn encode_task(w: &mut Writer, task: &Task) {
    w.u64(task.id.raw());
    w.u64(task.input_size.bits());
    w.u64(task.cost.as_micros());
    w.u64(task.result_size.bits());
}

fn decode_task(r: &mut Reader<'_>) -> Result<Task, WireError> {
    Ok(Task::new(
        TaskId::new(r.u64()?),
        DataSize::from_bits(r.u64()?),
        SimDuration::from_micros(r.u64()?),
        DataSize::from_bits(r.u64()?),
    ))
}

/// Encodes a signed control message: the same field order as
/// [`ControlMessage::canonical_bytes`] (so the decoded message re-signs
/// to the identical tag), followed by the 32-byte HMAC tag.
fn encode_signed(w: &mut Writer, signed: &SignedMessage) {
    match &signed.message {
        ControlMessage::Wakeup(m) => {
            w.u8(1);
            w.u64(m.id.raw());
            w.u64(m.instance.raw());
            w.u64(m.image.raw());
            w.u64(m.image_size.bits());
            w.f64(m.probability.value());
            w.u64(m.requirements.min_memory.bits());
            w.bool(m.requirements.standby_only);
        }
        ControlMessage::Reset(m) => {
            w.u8(2);
            w.u64(m.id.raw());
            w.u64(m.instance.raw());
        }
    }
    w.raw(&signed.tag);
}

fn decode_signed(r: &mut Reader<'_>) -> Result<SignedMessage, WireError> {
    let message = match r.u8()? {
        1 => ControlMessage::Wakeup(WakeupMessage {
            id: MessageId::new(r.u64()?),
            instance: InstanceId::new(r.u64()?),
            image: ImageId::new(r.u64()?),
            image_size: DataSize::from_bits(r.u64()?),
            probability: Probability::new(r.f64()?),
            requirements: NodeRequirements {
                min_memory: DataSize::from_bits(r.u64()?),
                standby_only: r.bool()?,
            },
        }),
        2 => ControlMessage::Reset(ResetMessage {
            id: MessageId::new(r.u64()?),
            instance: InstanceId::new(r.u64()?),
        }),
        _ => return Err(WireError::Malformed("unknown control message tag")),
    };
    let mut tag: Tag = [0u8; TAG_LEN];
    for byte in tag.iter_mut() {
        *byte = r.u8()?;
    }
    Ok(SignedMessage { message, tag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_crypto::MessageAuthenticator;

    fn signed_wakeup() -> SignedMessage {
        let auth = MessageAuthenticator::from_key(b"controller-key");
        SignedMessage::sign(
            ControlMessage::Wakeup(WakeupMessage {
                id: MessageId::new(11),
                instance: InstanceId::new(4),
                image: ImageId::new(2),
                image_size: DataSize::from_megabytes(1),
                probability: Probability::new(0.37),
                requirements: NodeRequirements {
                    min_memory: DataSize::from_megabytes(64),
                    standby_only: true,
                },
            }),
            &auth,
        )
    }

    fn round_trip(msg: WireMsg) -> WireMsg {
        let enc = msg.encode();
        WireMsg::decode(msg.kind(), &enc).expect("decodes")
    }

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            WireMsg::Hello {
                proto: PROTO_VERSION,
                epoch: 0,
                resume: None,
            },
            WireMsg::Hello {
                proto: PROTO_VERSION,
                epoch: 7,
                resume: Some(NodeId::new(17)),
            },
            WireMsg::HelloAck {
                node: NodeId::new(17),
                epoch: 8,
            },
            WireMsg::Heartbeat {
                corr: 99,
                hb: Heartbeat {
                    node: NodeId::new(3),
                    state: PnaStateKind::Busy,
                    instance: Some(InstanceId::new(8)),
                    sent_at: SimTime::from_micros(123_456),
                },
            },
            WireMsg::HeartbeatReply {
                corr: 99,
                reply: HeartbeatReply::Reset(InstanceId::new(8)),
            },
            WireMsg::TaskRequest {
                corr: 5,
                instance: InstanceId::new(8),
                node: NodeId::new(3),
            },
            WireMsg::TaskBatch {
                corr: 5,
                batch: WireBatch::Assigned {
                    job: JobId::new(1),
                    tasks: vec![
                        (
                            Task::new(
                                TaskId::new(0),
                                DataSize::from_bytes(150),
                                SimDuration::from_millis(10),
                                DataSize::from_bytes(8),
                            ),
                            b"ACGTACGT".to_vec(),
                        ),
                        (
                            Task::new(
                                TaskId::new(1),
                                DataSize::from_bytes(150),
                                SimDuration::from_millis(10),
                                DataSize::from_bytes(8),
                            ),
                            vec![],
                        ),
                    ],
                },
            },
            WireMsg::TaskBatch {
                corr: 6,
                batch: WireBatch::Drained,
            },
            WireMsg::Results {
                job: JobId::new(1),
                node: NodeId::new(3),
                results: vec![(TaskId::new(0), 42), (TaskId::new(1), -7)],
            },
            WireMsg::Broadcast {
                signed: signed_wakeup(),
                image: Some(vec![1, 2, 3, 4, 5]),
            },
            WireMsg::Broadcast {
                signed: SignedMessage::sign(
                    ControlMessage::Reset(ResetMessage {
                        id: MessageId::new(12),
                        instance: InstanceId::new(4),
                    }),
                    &MessageAuthenticator::from_key(b"controller-key"),
                ),
                image: None,
            },
            WireMsg::Shutdown,
            WireMsg::StatsQuery { corr: 41 },
            WireMsg::StatsReply {
                corr: 41,
                registry: {
                    let mut reg = RegistrySnapshot::default();
                    reg.counters.insert("wire.tx_frames".into(), 1234);
                    reg.counters.insert("sink.persisted".into(), 0);
                    reg.gauges.insert("wire.connections".into(), 3.5);
                    reg.histograms.insert(
                        "heartbeat.lag".into(),
                        HistogramSummary {
                            count: 9,
                            mean: 0.004,
                            p50: 0.003,
                            p90: 0.008,
                            p99: 0.009,
                            max: 0.011,
                        },
                    );
                    reg
                },
                connections: vec![
                    ConnTraffic {
                        conn: 1,
                        open: true,
                        tx_frames: 10,
                        rx_frames: 12,
                        tx_bytes: 4096,
                        rx_bytes: 512,
                        checksum_rejects: 0,
                        resyncs: 0,
                    },
                    ConnTraffic {
                        conn: 2,
                        open: false,
                        tx_frames: 1,
                        rx_frames: 1,
                        tx_bytes: 64,
                        rx_bytes: 64,
                        checksum_rejects: 2,
                        resyncs: 1,
                    },
                ],
            },
            WireMsg::StatsReply {
                corr: 0,
                registry: RegistrySnapshot::default(),
                connections: vec![],
            },
        ];
        for msg in msgs {
            assert_eq!(round_trip(msg.clone()), msg);
        }
    }

    #[test]
    fn decoded_wakeup_still_verifies_its_signature() {
        let auth = MessageAuthenticator::from_key(b"controller-key");
        let msg = WireMsg::Broadcast {
            signed: signed_wakeup(),
            image: None,
        };
        let WireMsg::Broadcast { signed, .. } = round_trip(msg) else {
            panic!("wrong variant");
        };
        assert!(
            signed.verify(&auth).is_ok(),
            "wire codec must preserve the canonical signing bytes exactly"
        );
    }

    #[test]
    fn kinds_are_unique() {
        let kinds = [
            WireMsg::Hello {
                proto: 1,
                epoch: 0,
                resume: None,
            }
            .kind(),
            WireMsg::HelloAck {
                node: NodeId::new(0),
                epoch: 0,
            }
            .kind(),
            WireMsg::Shutdown.kind(),
            WireMsg::StatsQuery { corr: 0 }.kind(),
            WireMsg::StatsReply {
                corr: 0,
                registry: RegistrySnapshot::default(),
                connections: vec![],
            }
            .kind(),
        ];
        assert_eq!(kinds, [1, 2, 9, 10, 11]);
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = WireMsg::Results {
            job: JobId::new(1),
            node: NodeId::new(2),
            results: vec![(TaskId::new(0), 1)],
        }
        .encode();
        assert!(WireMsg::decode(7, &enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn unknown_kind_errors() {
        assert!(WireMsg::decode(200, &[]).is_err());
    }

    #[test]
    fn empty_task_batch_is_refused() {
        let enc = WireMsg::TaskBatch {
            corr: 3,
            batch: WireBatch::Assigned {
                job: JobId::new(1),
                tasks: vec![],
            },
        }
        .encode();
        assert!(matches!(
            WireMsg::decode(6, &enc),
            Err(WireError::Malformed("empty task batch"))
        ));
    }
}
