//! End-to-end tests of the socket-backed live plane: a headend listening
//! on loopback TCP and PNA clients running the full §3.2 protocol —
//! wakeup (image streamed in chunks), boot, task fetch, result upload,
//! heartbeats and shutdown — over real sockets.

use oddci::check::sync::{unbounded, Sender};
use oddci::faults::{FaultClass, FaultPlan, FaultSpec};
use oddci::live::runtime::DEFAULT_KEY;
use oddci::live::wire::{run_wire_pna, WirePnaConfig};
use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::types::NodeId;
use oddci::wire::{ConnId, Integrity, Outbox, ServerConfig, WireMsg, WireServer, WireService};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}

fn socket_config(nodes: u64) -> LiveConfig {
    LiveConfig {
        nodes,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        mode: HeadendMode::Socket {
            listen: loopback(),
            shards: 1,
            dispatch: 1,
            batch: 4,
        },
        ..Default::default()
    }
}

fn tiny_image() -> AlignmentImage {
    AlignmentImage {
        db_len: 20_000,
        ..AlignmentImage::small_demo()
    }
}

/// Spawns `n` in-process PNAs against `addr` (each the same code a
/// standalone `oddci pna` process runs) and returns their join handles.
fn spawn_pnas(
    addr: SocketAddr,
    n: u64,
    faults: FaultPlan,
) -> Vec<std::thread::JoinHandle<oddci::live::WirePnaReport>> {
    (0..n)
        .map(|i| {
            let faults = faults.clone();
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = 1000 + i;
                cfg.heartbeat_interval = Duration::from_millis(60);
                cfg.faults = faults;
                run_wire_pna(cfg).expect("pna runs to shutdown")
            })
        })
        .collect()
}

#[test]
fn socket_job_completes_over_loopback() {
    let live = LiveOddci::start(socket_config(3));
    let addr = live.wire_addr().expect("socket mode exposes its address");
    let pnas = spawn_pnas(addr, 3, FaultPlan::none());

    let outcome = live
        .run_alignment_job(tiny_image(), 10, 3, Duration::from_secs(60))
        .expect("socket-backed job completes");
    assert_eq!(outcome.scores.len(), 10);
    assert_eq!(outcome.report.tasks_completed, 10);
    // Planted homologs (even task ids) must outscore random noise (odd):
    // proof the computation really ran on the remote side of the wire.
    let planted_min = outcome
        .scores
        .iter()
        .filter(|(t, _)| t.raw() % 2 == 0)
        .map(|(_, &s)| s)
        .min()
        .expect("planted scores");
    let noise_max = outcome
        .scores
        .iter()
        .filter(|(t, _)| t.raw() % 2 == 1)
        .map(|(_, &s)| s)
        .max()
        .expect("noise scores");
    assert!(
        planted_min > noise_max,
        "planted_min={planted_min} noise_max={noise_max}"
    );

    let stats = live.wire_stats().expect("socket mode exposes stats");
    assert!(
        stats.multi_chunk_tx >= 1,
        "the wakeup image must stream in more than one chunk (got {})",
        stats.multi_chunk_tx
    );
    assert_eq!(stats.checksum_rejects, 0, "clean run rejects nothing");

    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);

    for pna in pnas {
        let r = pna.join().expect("pna thread exits cleanly");
        assert!(
            r.stats.rx_messages > 0,
            "node {} heard the headend",
            r.node.raw()
        );
    }
}

#[test]
fn socket_plane_survives_wire_faults() {
    // Every frame class misbehaves at a low rate on both directions; the
    // envelope layer must reject garbage (never deliver it) and the
    // protocol's retries must still finish the job.
    let plan = FaultPlan::none()
        .with(FaultSpec::new(FaultClass::FrameCorrupt, 0.03))
        .with(FaultSpec::new(FaultClass::FrameTruncate, 0.02))
        .with(FaultSpec::new(FaultClass::FrameReorder, 0.08));
    let config = LiveConfig {
        faults: plan.clone(),
        ..socket_config(3)
    };
    let live = LiveOddci::start(config);
    let addr = live.wire_addr().expect("address");
    let pnas = spawn_pnas(addr, 3, plan);
    // Let every PNA finish its (retried, possibly mangled) handshake
    // before the wakeup goes out — a short job must not shut the plane
    // down while a straggler is still mid-hello.
    std::thread::sleep(Duration::from_millis(500));

    let outcome = live
        .run_alignment_job(tiny_image(), 8, 2, Duration::from_secs(120))
        .expect("job completes despite mangled frames");
    assert_eq!(outcome.report.tasks_completed, 8);

    let server = live.wire_stats().expect("stats");
    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);
    let mut mangled = server.mangled_corrupt + server.mangled_truncate + server.mangled_reorder;
    for pna in pnas {
        let r = pna.join().expect("pna exits");
        // A corrupted inbound frame must be rejected by the checksum,
        // not delivered: rejects counted, garbage never decoded.
        assert!(r.stats.rx_messages + r.stats.checksum_rejects > 0);
        mangled += r.stats.mangled_corrupt + r.stats.mangled_truncate + r.stats.mangled_reorder;
    }
    assert!(mangled > 0, "the injector actually fired somewhere");
}

#[test]
fn late_pnas_join_via_rebroadcast() {
    // PNAs that connect after the wakeup went out still catch it on the
    // carousel's next pass — the paper's repeated-broadcast behavior.
    let live = LiveOddci::start(socket_config(2));
    let addr = live.wire_addr().expect("address");

    // Submit the job before anyone is listening, then start the fleet:
    // the carousel re-broadcasts until the instance fills.
    let mut pnas = Vec::new();
    let outcome = std::thread::scope(|s| {
        let job = s.spawn(|| live.run_alignment_job(tiny_image(), 6, 2, Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(300));
        pnas = spawn_pnas(addr, 2, FaultPlan::none());
        job.join().expect("job thread")
    })
    .expect("job completes");
    assert_eq!(outcome.report.tasks_completed, 6);

    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);
    for pna in pnas {
        pna.join().expect("pna exits");
    }
}

#[test]
fn idle_socket_headend_turns_only_for_heartbeats() {
    // One connected, idle PNA heartbeats every 60 ms; between beats the
    // serving loop must be asleep in its readiness wait, not scanning:
    // a beat is read and answered in one turn, and the 100 ms
    // housekeeping ceiling adds at most 10 turns a second. (One PNA, so
    // no two beats share a turn and a second turn per beat shows.)
    let live = LiveOddci::start(socket_config(1));
    let addr = live.wire_addr().expect("address");
    let pnas = spawn_pnas(addr, 1, FaultPlan::none());
    let deadline = Instant::now() + Duration::from_secs(10);
    while live.wire_stats().expect("stats").rx_messages < 3 {
        assert!(Instant::now() < deadline, "the PNAs never heartbeat");
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = live.wire_stats().expect("stats");
    std::thread::sleep(Duration::from_secs(1));
    let after = live.wire_stats().expect("stats");
    let beats = after.rx_messages - before.rx_messages;
    let turns = after.loop_turns - before.loop_turns;
    assert!(beats >= 10, "the fleet kept heartbeating ({beats} in 1 s)");
    assert!(
        turns <= beats + 10,
        "{turns} loop turns for {beats} heartbeats: the loop is not idle between them"
    );

    let report = live.shutdown();
    assert_eq!(report.threads_failed, 0);
    for pna in pnas {
        pna.join().expect("pna exits");
    }
}

/// A headend that acks hellos, answers nothing else, and goes away the
/// moment the first heartbeat arrives — with a `Shutdown` broadcast, or
/// like a crash, without — telling the test when that was.
struct VanishOnHeartbeat {
    goodbye: bool,
    heard: Sender<Instant>,
}

impl WireService for VanishOnHeartbeat {
    fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
        match msg {
            WireMsg::Hello { .. } => out.send(
                conn,
                WireMsg::HelloAck {
                    node: NodeId::new(0),
                    epoch: 0,
                },
            ),
            WireMsg::Heartbeat { .. } => {
                let _ = self.heard.send(Instant::now());
                if self.goodbye {
                    out.broadcast(WireMsg::Shutdown);
                }
                out.request_stop();
            }
            _ => {}
        }
    }
}

#[test]
fn shutdown_while_a_pna_awaits_a_heartbeat_reply_costs_no_timeout() {
    // The interleaving is forced, not slept for: the headend leaves *in
    // response to* the heartbeat, so the PNA is by construction inside
    // its wait for the reply. It must hear the end of the plane on its
    // bus at once instead of sitting out the 2 s reply timeout.
    for goodbye in [true, false] {
        let (heard, heard_at) = unbounded();
        let mut server = WireServer::bind(
            loopback(),
            ServerConfig::new(Integrity::hmac(DEFAULT_KEY)),
            VanishOnHeartbeat { goodbye, heard },
        )
        .expect("bind");
        let mut cfg = WirePnaConfig::new(server.local_addr());
        cfg.heartbeat_interval = Duration::from_millis(30);
        let pna = std::thread::spawn(move || run_wire_pna(cfg));
        let heard_at = heard_at
            .recv_timeout(Duration::from_secs(10))
            .expect("the idle PNA heartbeats");
        pna.join()
            .expect("pna thread exits")
            .expect("pna ran to shutdown");
        let took = heard_at.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "goodbye={goodbye}: the PNA outlived its headend by {took:?}"
        );
        assert!(server.stop());
    }
}
