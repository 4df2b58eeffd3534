//! The layer suite: each entry times calls into one layer's public
//! functions, from outside, on inputs derived from `--seed`. The suite
//! is the same in every traced run whatever the workload — the driver
//! wants every per-layer metric from every traced run — so a number here
//! is about the layer, and the workload's own counters (in `run.rs`) say
//! how much of that layer the workload used.
//!
//! Spans are plain `Instant` pairs kept in local vectors and reduced to
//! one number per metric when the suite ends; nothing is written while
//! anything is being timed.

use crate::gen::mix;
use crate::stats::{mean, median, percentile};
use crate::sut::{self, *};
use crate::workloads;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One megabyte, the bulk-path unit (a wakeup image of `socket_wakeup`).
const BULK: usize = 1_000_000;
/// Wall-clock budget of one fine-grained metric.
const BUDGET: Duration = Duration::from_millis(40);
/// Round trips through the echo server: enough that p99 has ten beyond.
const ECHO_TRIPS: u64 = 1_000;
/// Members behind the Controller and snapshot measurements.
const MEMBERS: u64 = 100_000;

pub type Metrics = Vec<(&'static str, f64)>;

/// Mean nanoseconds per call of `f`: batches sized to about a
/// millisecond, repeated until `BUDGET` is spent, median over batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut means = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || means.len() < 3 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    median(&means)
}

/// Median seconds of `reps` calls of a coarse operation.
fn secs_per_call<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Runs the whole suite.
pub fn run(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    let bulk = random_sequence(BULK, mix(seed, 0xB0));
    let key = b"live-oddci-key".as_slice();
    wire_codec(&mut m, seed);
    wire_frames(&mut m, &bulk, key);
    let echo_mean_us = wire_echo(&mut m, key);
    crypto(&mut m, &bulk, key);
    let fetch_ns_per_task = backend(&mut m, seed);
    controller(&mut m, key);
    pna(&mut m, key);
    world(&mut m, seed);
    queue_and_carousel(&mut m, seed);
    workload_generators(&mut m, seed);
    image(&mut m, seed);
    snapshots(&mut m, seed);
    live_plane(&mut m, seed, echo_mean_us, fetch_ns_per_task);
    telemetry(&mut m);
    m
}

fn light_task(i: u64) -> Task {
    Task::new(
        TaskId::new(i),
        DataSize::from_bytes(150),
        SimDuration::from_millis(10),
        DataSize::from_bytes(8),
    )
}

fn wire_codec(m: &mut Metrics, seed: u64) {
    let request = WireMsg::TaskRequest {
        corr: 1,
        instance: InstanceId::new(3),
        node: NodeId::new(7),
    };
    let batch = WireMsg::TaskBatch {
        corr: 1,
        batch: WireBatch::Assigned {
            job: JobId::new(0),
            tasks: (0..8)
                .map(|i| (light_task(i), random_sequence(16, mix(seed, i))))
                .collect(),
        },
    };
    let results = WireMsg::Results {
        job: JobId::new(0),
        node: NodeId::new(7),
        results: (0..8).map(|i| (TaskId::new(i), i as i32)).collect(),
    };
    for (msg, enc, dec) in [
        (
            &request,
            "wire.codec.task_request.encode_ns",
            "wire.codec.task_request.decode_ns",
        ),
        (
            &batch,
            "wire.codec.task_batch8.encode_ns",
            "wire.codec.task_batch8.decode_ns",
        ),
        (
            &results,
            "wire.codec.results8.encode_ns",
            "wire.codec.results8.decode_ns",
        ),
    ] {
        let payload = msg.encode();
        let kind = msg.kind();
        m.push((
            enc,
            ns_per_call(|| drop(black_box(black_box(msg).encode()))),
        ));
        m.push((
            dec,
            ns_per_call(|| drop(black_box(WireMsg::decode(kind, black_box(&payload))))),
        ));
    }
}

/// One message through `FrameDecoder` + `Reassembler`.
fn reassemble(integrity: &Integrity, frames: &[Vec<u8>]) -> Option<Vec<u8>> {
    let mut decoder = FrameDecoder::new(integrity.clone());
    let mut reassembler = Reassembler::new();
    for frame in frames {
        decoder.extend(frame);
        while let Some(frame) = decoder.next_frame() {
            if let Some(message) = reassembler.push(frame) {
                return Some(message.payload);
            }
        }
    }
    None
}

fn wire_frames(m: &mut Metrics, bulk: &[u8], key: &[u8]) {
    let hmac = Integrity::hmac(key);
    let small = WireMsg::TaskRequest {
        corr: 1,
        instance: InstanceId::new(3),
        node: NodeId::new(7),
    }
    .encode();
    let frame = encode_frame(&hmac, 5, 1, 0, 1, &small);
    m.push((
        "wire.frame.small_encode_ns",
        ns_per_call(|| {
            drop(black_box(encode_frame(
                &hmac,
                5,
                1,
                0,
                1,
                black_box(&small),
            )))
        }),
    ));
    m.push((
        "wire.frame.small_decode_ns",
        ns_per_call(|| {
            let mut decoder = FrameDecoder::new(hmac.clone());
            decoder.extend(black_box(&frame));
            drop(black_box(decoder.next_frame()));
        }),
    ));
    for (integrity, enc, dec) in [
        (
            hmac.clone(),
            "wire.frame.encode_mb_s.hmac",
            "wire.frame.decode_mb_s.hmac",
        ),
        (
            Integrity::Crc32,
            "wire.frame.encode_mb_s.crc",
            "wire.frame.decode_mb_s.crc",
        ),
    ] {
        let frames = encode_chunks(&integrity, 8, 1, bulk, DEFAULT_CHUNK);
        assert_eq!(
            reassemble(&integrity, &frames).as_deref(),
            Some(bulk),
            "a chunked megabyte reassembles to itself"
        );
        let secs = secs_per_call(5, || {
            encode_chunks(&integrity, 8, 1, black_box(bulk), DEFAULT_CHUNK)
        });
        m.push((enc, mb_per_s(bulk.len(), secs)));
        let secs = secs_per_call(5, || reassemble(&integrity, black_box(&frames)));
        m.push((dec, mb_per_s(bulk.len(), secs)));
    }
    let secs = secs_per_call(5, || crc32_parts(&[black_box(bulk)]));
    m.push(("wire.crc32_mb_s", mb_per_s(bulk.len(), secs)));
}

/// A `WireService` that sends every message straight back: the socket
/// and serve-loop floor with no headend behind it.
struct Echo;

impl WireService for Echo {
    fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
        out.send(conn, msg);
    }
}

/// Returns the mean round trip in microseconds (for the residual).
fn wire_echo(m: &mut Metrics, key: &[u8]) -> f64 {
    let mut server = WireServer::bind(
        sut::loopback(),
        ServerConfig::new(Integrity::hmac(key)),
        Echo,
    )
    .expect("echo server binds an ephemeral loopback port");
    let client = WireClient::connect(server.local_addr(), ClientConfig::new(Integrity::hmac(key)))
        .expect("echo client connects to the server just bound");
    let mut rtts_us = Vec::with_capacity(ECHO_TRIPS as usize);
    let window = Instant::now();
    for corr in 0..ECHO_TRIPS {
        let msg = WireMsg::TaskRequest {
            corr,
            instance: InstanceId::new(3),
            node: NodeId::new(7),
        };
        let t = Instant::now();
        assert!(client.send(&msg), "echo connection stays open");
        let back = client
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("the echo comes back within 5 s");
        rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(back, msg, "the echo is the message sent");
    }
    let elapsed = window.elapsed().as_secs_f64();
    drop(client);
    server.stop();
    m.push(("wire.tcp.echo_rtt_p50_us", median(&rtts_us)));
    m.push(("wire.tcp.echo_rtt_p99_us", percentile(&rtts_us, 99)));
    m.push(("wire.tcp.echo_msgs_per_s", ECHO_TRIPS as f64 / elapsed));
    mean(&rtts_us)
}

fn crypto(m: &mut Metrics, bulk: &[u8], key: &[u8]) {
    let secs = secs_per_call(5, || Sha256::digest(black_box(bulk)));
    m.push(("crypto.sha256_mb_s", mb_per_s(bulk.len(), secs)));
    let secs = secs_per_call(5, || HmacSha256::mac(key, black_box(bulk)));
    m.push(("crypto.hmac_mb_s", mb_per_s(bulk.len(), secs)));
    // A TaskRequest frame's checked bytes: 24 of header, 24 of payload.
    let small = &bulk[..48];
    m.push((
        "crypto.hmac_small_ns",
        ns_per_call(|| {
            black_box(HmacSha256::mac(key, black_box(small)));
        }),
    ));
    let auth = MessageAuthenticator::from_key(key);
    m.push((
        "crypto.sign_verify_ns",
        ns_per_call(|| {
            let tag = auth.sign(black_box(small));
            assert!(auth.verify(small, &tag));
        }),
    ));
}

fn backend(m: &mut Metrics, seed: u64) -> f64 {
    const TASKS: u64 = 50_000;
    let (_, job) = sut::sweep_inputs(seed, 1, TASKS, Telemetry::disabled());
    let id = job.id;
    let mut register = Vec::new();
    let mut fetch = Vec::new();
    let mut complete = Vec::new();
    for _ in 0..3 {
        let mut backend = Backend::new();
        let fresh = job.clone();
        let t = Instant::now();
        backend.register_job(fresh, SimTime::ZERO);
        register.push(t.elapsed().as_secs_f64() * 1e9 / TASKS as f64);

        // A node completes its batch before it asks for the next one (a
        // second fetch would re-queue what it still holds), so the two
        // calls alternate and are timed apart.
        let mut fetching = Duration::ZERO;
        let mut completing = Duration::ZERO;
        let mut served = 0u64;
        for round in 0.. {
            let node = NodeId::new(round % 2);
            let t = Instant::now();
            let batch = backend.fetch_batch(id, node, 8).expect("registered job");
            fetching += t.elapsed();
            if batch.is_empty() {
                break;
            }
            served += batch.len() as u64;
            let t = Instant::now();
            for task in &batch {
                backend
                    .complete_task(id, task.id, node, SimTime::from_secs(1))
                    .expect("assigned task completes");
            }
            completing += t.elapsed();
        }
        assert_eq!(served, TASKS);
        fetch.push(fetching.as_secs_f64() * 1e9 / TASKS as f64);
        complete.push(completing.as_secs_f64() * 1e9 / TASKS as f64);
        assert!(backend.is_complete(id));
    }
    let fetch = median(&fetch);
    m.push(("core.backend.register_job_ns_per_task", median(&register)));
    m.push(("core.backend.fetch_batch_ns_per_task", fetch));
    m.push(("core.backend.complete_task_ns", median(&complete)));
    fetch
}

fn controller(m: &mut Metrics, key: &[u8]) {
    let policy = ControllerPolicy {
        assumed_audience: MEMBERS,
        ..Default::default()
    };
    let mut controller = Controller::new(key, policy);
    let request = InstanceRequest {
        image: ImageId::new(1),
        image_size: DataSize::from_megabytes(2),
        target: MEMBERS,
        requirements: NodeRequirements::default(),
    };
    let (instance, _) = controller.create_instance(request, SimTime::ZERO);
    let beat = |node: u64, at: SimTime| Heartbeat {
        node: NodeId::new(node),
        state: PnaStateKind::Busy,
        instance: Some(instance),
        sent_at: at,
    };
    // First pass joins every member; the timed passes are steady state.
    for node in 0..MEMBERS {
        controller.on_heartbeat(beat(node, SimTime::ZERO), SimTime::ZERO);
    }
    assert_eq!(controller.instance_size(instance), MEMBERS);
    let mut passes = Vec::new();
    let mut ticks = Vec::new();
    for pass in 1..=3u64 {
        let now = SimTime::from_secs(pass * 60);
        let t = Instant::now();
        for node in 0..MEMBERS {
            black_box(controller.on_heartbeat(beat(node, now), now));
        }
        passes.push(t.elapsed().as_secs_f64() * 1e9 / MEMBERS as f64);
        let t = Instant::now();
        black_box(controller.tick(now));
        ticks.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push(("core.controller.on_heartbeat_ns", median(&passes)));
    m.push(("core.controller.tick_ms", median(&ticks)));
}

fn pna(m: &mut Metrics, key: &[u8]) {
    // Wakeups this node declines at the probability gate — what almost
    // every receiver of a large audience does with almost every wakeup:
    // verify the signature, remember the id, roll, stay idle.
    const MESSAGES: u64 = 4_000;
    let auth = MessageAuthenticator::from_key(key);
    let signed: Vec<SignedMessage> = (0..MESSAGES)
        .map(|i| {
            SignedMessage::sign(
                ControlMessage::Wakeup(WakeupMessage {
                    id: MessageId::new(i),
                    instance: InstanceId::new(i),
                    image: ImageId::new(1),
                    image_size: DataSize::from_megabytes(2),
                    probability: Probability::NEVER,
                    requirements: NodeRequirements::default(),
                }),
                &auth,
            )
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(1);
    let host = sut::standby_host();
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut pna = Pna::new(NodeId::new(0), key);
        let t = Instant::now();
        for msg in &signed {
            black_box(pna.on_control_message(msg, host, &mut rng));
        }
        runs.push(t.elapsed().as_secs_f64() * 1e9 / MESSAGES as f64);
        assert_eq!(pna.counters.gated, MESSAGES);
    }
    m.push(("core.pna.on_control_message_ns", median(&runs)));
}

fn world(m: &mut Metrics, seed: u64) {
    // The `sim_sweep` shape at one fifth: big enough that the event count
    // is in the hundreds of thousands, small enough for every traced run.
    let s = workloads::sim_sweep(seed, 20_000, 80, 2_400, &Telemetry::disabled());
    assert_eq!(s.failed, 0, "layer-suite sweep failed: {:?}", s.problems);
    m.push(("core.world.build_s", s.setup_s));
    m.push(("core.world.events", s.counts.sweep_events as f64));
    m.push((
        "core.world.events_per_s",
        s.counts.sweep_events as f64 / (s.op_ms[0] / 1e3),
    ));
}

fn queue_and_carousel(m: &mut Metrics, seed: u64) {
    const PENDING: u64 = 1_000_000;
    const CYCLES: u64 = 200_000;
    let mut queue = EventQueue::with_capacity(PENDING as usize);
    for i in 0..PENDING {
        queue.push(SimTime::from_micros(mix(seed, i) % 1_000_000_000), i);
    }
    let t = Instant::now();
    for i in 0..CYCLES {
        let (at, event) = queue.pop().expect("a million events are pending");
        let later = SimTime::from_micros(at.as_micros() + 1 + mix(seed, event ^ i) % 1_000_000);
        queue.push(later, event);
    }
    m.push((
        "sim.queue.push_pop_ns",
        t.elapsed().as_secs_f64() * 1e9 / CYCLES as f64,
    ));
    assert_eq!(queue.len() as u64, PENDING);

    let carousel = ObjectCarousel::new(
        TransportMux::new(Bandwidth::from_mbps(1.0)),
        vec![
            CarouselFile::sized("pna.xlet", DataSize::from_kilobytes(256)),
            CarouselFile::sized("config-0", DataSize::from_bytes(512)),
            CarouselFile::sized("image-0", DataSize::from_megabytes(2)),
        ],
        SimTime::ZERO,
    );
    let mut attach = 0u64;
    m.push((
        "broadcast.carousel.acquisition_ns",
        ns_per_call(|| {
            attach = (attach + 7_919) % 60_000_000;
            black_box(carousel.acquisition_complete(2, SimTime::from_micros(attach)));
        }),
    ));
}

fn workload_generators(m: &mut Metrics, seed: u64) {
    let secs = secs_per_call(3, || random_sequence(BULK, black_box(seed)));
    m.push(("workload.random_sequence_mb_s", mb_per_s(BULK, secs)));
    const TASKS: u64 = 100_000;
    let secs = secs_per_call(3, || {
        sut::sweep_inputs(black_box(seed), 1, TASKS, Telemetry::disabled()).1
    });
    m.push(("workload.jobgen_ns_per_task", secs * 1e9 / TASKS as f64));
}

fn image(m: &mut Metrics, seed: u64) {
    let big = sut::light_image(mix(seed, 2), BULK);
    let secs = secs_per_call(3, || big.materialize());
    m.push(("live.image.materialize_ms", secs * 1e3));
    // The light task: a 16-base query against the 20 kB database.
    let light = sut::light_image(mix(seed, 1), 20_000);
    let db = light.materialize();
    let queries = sut::light_queries(seed, 256, 16);
    let mut next = 0;
    m.push((
        "live.image.score_ns",
        ns_per_call(|| {
            next = (next + 1) % queries.len();
            black_box(light.score(&db, &queries[next]));
        }),
    ));
}

fn snapshots(m: &mut Metrics, seed: u64) {
    let snap = sut::synthetic_snapshot(seed, MEMBERS);
    let bytes = snapshot::encode(&snap);
    m.push(("live.snapshot.bytes", bytes.len() as f64));
    let secs = secs_per_call(3, || snapshot::encode(black_box(&snap)));
    m.push(("live.snapshot.encode_ms", secs * 1e3));
    let secs = secs_per_call(3, || snapshot::decode(black_box(&bytes)).expect("decodes"));
    m.push(("live.snapshot.decode_ms", secs * 1e3));
    let dir = crate::scratch_dir().join(format!("layers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let path = dir.join(SNAPSHOT_FILE);
    let secs = secs_per_call(3, || {
        snapshot::write_file(&path, black_box(&snap)).expect("writes")
    });
    m.push(("live.snapshot.write_file_ms", secs * 1e3));
    let secs = secs_per_call(3, || snapshot::read_file(black_box(&path)).expect("reads"));
    m.push(("live.snapshot.read_file_ms", secs * 1e3));
    let _ = std::fs::remove_dir_all(&dir);
}

fn live_plane(m: &mut Metrics, seed: u64, echo_mean_us: f64, fetch_ns_per_task: f64) {
    // A small in-process job: what starting, feeding and stopping a
    // headend costs, and the node loop's cycle time under load.
    const TASKS: u64 = 60_000;
    const NODES: u64 = 2;
    const BATCH: f64 = 8.0;
    let queries = sut::light_queries(seed, TASKS, 16);
    let image = sut::light_image(mix(seed, 1), 20_000);
    let t = Instant::now();
    let live = LiveOddci::start(sut::live_config(
        NODES,
        seed,
        sut::INPROC_MODE,
        Telemetry::disabled(),
    ));
    m.push(("live.headend.start_ms", t.elapsed().as_secs_f64() * 1e3));
    let t = Instant::now();
    let req = live
        .submit_query_job(image, queries, NODES)
        .expect("a running headend accepts a job");
    m.push(("live.headend.submit_ms", t.elapsed().as_secs_f64() * 1e3));
    let outcome = live
        .wait_job(req, sut::JOB_TIMEOUT)
        .expect("layer-suite job completes");
    assert_eq!(outcome.scores.len() as u64, TASKS);
    let t = Instant::now();
    let report = live.shutdown();
    m.push(("live.headend.shutdown_ms", t.elapsed().as_secs_f64() * 1e3));
    assert_eq!((report.tasks_unaccounted, report.threads_failed), (0, 0));
    let tasks_per_s = TASKS as f64 / outcome.report.makespan.as_secs_f64();
    m.push((
        "live.pna.cycle_us",
        NODES as f64 * BATCH / tasks_per_s * 1e6,
    ));

    // A short quiet-socket session: the fetch round trip, and what is
    // left of it once the socket floor and the Backend are taken out.
    // The echo already carries one TaskRequest encode, frame and decode
    // each way; what remains is the bridge into the headend, the channel
    // hops, the hub lock and the reply's extra payload. Means, not
    // medians: the fetch is relayed after one 500 us serve-loop sleep or
    // two, and a median of that mixture jumps between the two modes.
    let s = workloads::socket_idle(seed, 400, &Telemetry::disabled());
    assert_eq!(s.failed, 0, "layer-suite probe failed: {:?}", s.problems);
    let fetch_mean_us = mean(&s.op_ms) * 1e3;
    m.push(("live.probe.fetch_rtt_mean_us", fetch_mean_us));
    m.push((
        "live.headend.residual_us",
        fetch_mean_us - echo_mean_us - fetch_ns_per_task / 1e3,
    ));
}

fn telemetry(m: &mut Metrics) {
    for (tele, name) in [
        (Telemetry::recording(), "telemetry.span_ns"),
        (Telemetry::disabled(), "telemetry.span_off_ns"),
    ] {
        let mut at = 0u64;
        m.push((
            name,
            ns_per_call(|| {
                at += 3;
                tele.span(at, at + 2, Phase::Compute, at % 8, at);
            }),
        ));
    }
}
