//! Scaled-down models of the live-headend and streaming-sink
//! protocols, runnable under the schedule explorer.
//!
//! Each scenario exists in two flavours:
//!
//! * the **correct** protocol, mirroring the discipline the live crate
//!   actually implements — the explorer must find *no* failing
//!   interleaving within its bound;
//! * a **known-buggy** variant encoding a tempting-but-wrong
//!   simplification (ignore closed-channel sends, check-then-act outside
//!   the hub lock, tear an atomic stats snapshot) — the explorer must
//!   *find* the failure, and the discovered schedule string replays
//!   deterministically.
//!
//! The buggy variants are not dead weight: `oddci check model` runs them
//! as sensitivity checks (a detector that stops catching them has
//! regressed), and `tests/check_schedules.rs` pins their discovered
//! schedules. The torn-snapshot variant is the very bug this PR fixed in
//! `SinkStats::in_flight` (`crates/telemetry/src/sink.rs`): three relaxed
//! counter loads are not an atomic snapshot, so `emitted - persisted -
//! dropped` can underflow mid-run.

use crate::explore::{ModelAtomic, ModelChannel, ModelMutex, Spawner};
use std::sync::Arc;

/// How many events/tasks the small models push through.
const EVENTS: u64 = 3;

// ----------------------------------------------- shutdown under active sink

/// Shared pieces of the sink-shutdown model.
struct SinkModel {
    ctl: Arc<ModelAtomic>,
    lane: Arc<ModelChannel<u64>>,
    emitted: Arc<ModelAtomic>,
    persisted: Arc<ModelAtomic>,
    dropped: Arc<ModelAtomic>,
    prod_done: Arc<ModelChannel<()>>,
    writer_done: Arc<ModelChannel<()>>,
}

impl SinkModel {
    fn new() -> Self {
        SinkModel {
            ctl: Arc::new(ModelAtomic::new(0)),
            lane: Arc::new(ModelChannel::new(2)),
            emitted: Arc::new(ModelAtomic::new(0)),
            persisted: Arc::new(ModelAtomic::new(0)),
            dropped: Arc::new(ModelAtomic::new(0)),
            prod_done: Arc::new(ModelChannel::new(0)),
            writer_done: Arc::new(ModelChannel::new(0)),
        }
    }
}

fn sink_shutdown_model(sp: &mut Spawner, count_closed_send_as_drop: bool) {
    let m = Arc::new(SinkModel::new());

    let p = Arc::clone(&m);
    sp.spawn("producer", move |ctx| {
        for ev in 0..EVENTS {
            p.emitted.fetch_add(&ctx, 1);
            if p.ctl.load(&ctx) == 1 {
                p.dropped.fetch_add(&ctx, 1);
                continue;
            }
            if p.lane.len(&ctx) >= 2 {
                p.dropped.fetch_add(&ctx, 1);
                continue;
            }
            if p.lane.send(&ctx, ev).is_err() {
                // The lane closed between the ctl check and the send —
                // the event is still accounted for, as a drop.
                if count_closed_send_as_drop {
                    p.dropped.fetch_add(&ctx, 1);
                }
                // Buggy variant: swallow the error; the event vanishes.
            }
        }
        p.prod_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let w = Arc::clone(&m);
    sp.spawn("writer", move |ctx| {
        while w.lane.recv(&ctx).is_ok() {
            w.persisted.fetch_add(&ctx, 1);
        }
        w.writer_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let s = Arc::clone(&m);
    sp.spawn("shutdown", move |ctx| {
        s.ctl.store(&ctx, 1);
        s.lane.close(&ctx);
    });

    let v = Arc::clone(&m);
    sp.spawn("verifier", move |ctx| {
        v.prod_done.recv(&ctx).expect("producer finishes");
        v.writer_done.recv(&ctx).expect("writer finishes");
        let e = v.emitted.load(&ctx);
        let p = v.persisted.load(&ctx);
        let d = v.dropped.load(&ctx);
        assert_eq!(
            e,
            p + d,
            "sink lost events: emitted {e} != persisted {p} + dropped {d}"
        );
    });
}

/// Correct protocol: closing the lane mid-emit turns the failed send into
/// an accounted drop. `emitted == persisted + dropped` in every
/// interleaving.
pub(crate) fn shutdown_under_active_sink(sp: &mut Spawner) {
    sink_shutdown_model(sp, true);
}

/// Buggy variant: a send that fails because shutdown closed the lane is
/// silently swallowed, so the conservation invariant breaks in schedules
/// where close lands between the producer's ctl check and its send.
pub(crate) fn shutdown_under_active_sink_lossy(sp: &mut Spawner) {
    sink_shutdown_model(sp, false);
}

// ------------------------------------------------- heartbeat vs recompose

#[derive(Debug)]
struct HubModel {
    active: Vec<u64>,
    ledger: Vec<u64>,
}

struct RecomposeModel {
    hub: Arc<ModelMutex<HubModel>>,
    hb_done: Arc<ModelChannel<()>>,
    rc_done: Arc<ModelChannel<()>>,
}

impl RecomposeModel {
    fn new() -> Self {
        RecomposeModel {
            hub: Arc::new(ModelMutex::new(HubModel {
                active: vec![1, 2],
                ledger: Vec::new(),
            })),
            hb_done: Arc::new(ModelChannel::new(0)),
            rc_done: Arc::new(ModelChannel::new(0)),
        }
    }
}

fn heartbeat_recompose_model(sp: &mut Spawner, check_and_insert_atomically: bool) {
    let m = Arc::new(RecomposeModel::new());

    let h = Arc::clone(&m);
    sp.spawn("heartbeat", move |ctx| {
        for node in [1u64, 2, 3] {
            if check_and_insert_atomically {
                // Membership check and ledger insert under one hub lock —
                // the rule the real heartbeat handler follows.
                h.hub.lock(&ctx).with(|hub| {
                    if hub.active.contains(&node) {
                        hub.ledger.push(node);
                    }
                });
            } else {
                // Buggy TOCTOU variant: check, release, re-acquire, insert.
                let present = h.hub.lock(&ctx).with(|hub| hub.active.contains(&node));
                if present {
                    h.hub.lock(&ctx).with(|hub| hub.ledger.push(node));
                }
            }
        }
        h.hb_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let r = Arc::clone(&m);
    sp.spawn("recompose", move |ctx| {
        r.hub.lock(&ctx).with(|hub| {
            hub.active = vec![2, 3];
            // Recompose evicts ledger entries for removed nodes.
            let active = hub.active.clone();
            hub.ledger.retain(|n| active.contains(n));
        });
        r.rc_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let v = Arc::clone(&m);
    sp.spawn("verifier", move |ctx| {
        v.hb_done.recv(&ctx).expect("heartbeat finishes");
        v.rc_done.recv(&ctx).expect("recompose finishes");
        v.hub.lock(&ctx).with(|hub| {
            for n in &hub.ledger {
                assert!(
                    hub.active.contains(n),
                    "ledger holds node {n} which recompose removed (ledger {:?}, active {:?})",
                    hub.ledger,
                    hub.active
                );
            }
        });
    });
}

/// Correct protocol: heartbeat checks membership and inserts under one
/// hub-lock critical section; recompose prunes the ledger. The ledger is
/// a subset of the active set in every interleaving.
pub(crate) fn heartbeat_vs_recompose(sp: &mut Spawner) {
    heartbeat_recompose_model(sp, true);
}

/// Buggy TOCTOU variant: membership check and insert in *separate*
/// critical sections, so a recompose landing between them resurrects a
/// removed node in the ledger.
pub(crate) fn heartbeat_vs_recompose_toctou(sp: &mut Spawner) {
    heartbeat_recompose_model(sp, false);
}

// ---------------------------------------------------- sink stats snapshot

fn sink_stats_model(sp: &mut Spawner, saturate: bool) {
    let emitted = Arc::new(ModelAtomic::new(0));
    let persisted = Arc::new(ModelAtomic::new(0));
    let dropped = Arc::new(ModelAtomic::new(0));
    let lane = Arc::new(ModelChannel::new(0));

    let (e, l) = (Arc::clone(&emitted), Arc::clone(&lane));
    sp.spawn("producer", move |ctx| {
        for ev in 0..EVENTS {
            e.fetch_add(&ctx, 1);
            l.send(&ctx, ev).expect("writer drains");
        }
        l.close(&ctx);
    });

    let (p, l) = (Arc::clone(&persisted), Arc::clone(&lane));
    sp.spawn("writer", move |ctx| {
        while l.recv(&ctx).is_ok() {
            p.fetch_add(&ctx, 1);
        }
    });

    let (e, p, d) = (
        Arc::clone(&emitted),
        Arc::clone(&persisted),
        Arc::clone(&dropped),
    );
    sp.spawn("stats-reader", move |ctx| {
        // Three separate relaxed loads — NOT an atomic snapshot. The
        // writer can persist events the reader's `emitted` load predates.
        let e = e.load(&ctx);
        let p = p.load(&ctx);
        let d = d.load(&ctx);
        if saturate {
            // The fixed computation (SinkStats::in_flight): torn
            // snapshots clamp to zero instead of wrapping to ~u64::MAX.
            let in_flight = e.saturating_sub(p).saturating_sub(d);
            assert!(in_flight <= e, "saturating in_flight bounded by emitted");
        } else {
            // The pre-fix computation: plain subtraction underflows on a
            // torn snapshot.
            match e.checked_sub(p + d) {
                Some(_) => {}
                None => ctx.fail(format!(
                    "in_flight underflow: emitted {e} < persisted {p} + dropped {d} (torn snapshot)"
                )),
            }
        }
    });
}

/// The fixed `SinkStats::in_flight` computation (saturating): clean under
/// every interleaving even though the three loads still tear.
pub(crate) fn sink_stats_snapshot(sp: &mut Spawner) {
    sink_stats_model(sp, true);
}

/// The pre-fix computation (plain subtraction): the explorer finds a
/// schedule where the writer persists events between the reader's loads
/// and the subtraction underflows — the bug fixed in
/// `crates/telemetry/src/sink.rs` this PR.
pub(crate) fn sink_stats_snapshot_torn(sp: &mut Spawner) {
    sink_stats_model(sp, false);
}

// ------------------------------------------------------- epoch adoption

struct EpochModel {
    /// HelloAcks racing toward one reconnecting PNA: the revenant
    /// primary's (epoch 0) and the standby's (epoch 1).
    acks: Arc<ModelChannel<u64>>,
    /// The PNA's adopted epoch, stored as `epoch + 1` (0 = none yet).
    adopted: Arc<ModelAtomic>,
    pna_done: Arc<ModelChannel<()>>,
}

impl EpochModel {
    fn new() -> Self {
        EpochModel {
            acks: Arc::new(ModelChannel::new(2)),
            adopted: Arc::new(ModelAtomic::new(0)),
            pna_done: Arc::new(ModelChannel::new(0)),
        }
    }
}

/// The failover hello race: after a primary crash both the standby *and*
/// a revenant primary (restarted from stale state, still fencing at
/// epoch 0) can answer a redialing PNA's hello. The wire client guards
/// this with epoch fencing — an ack below the highest epoch seen is
/// refused (`hello_handshake` in `crates/live/src/wire.rs`).
fn epoch_adoption_model(sp: &mut Spawner, fence_acks: bool) {
    let m = Arc::new(EpochModel::new());

    let p = Arc::clone(&m);
    sp.spawn("revenant-primary", move |ctx| {
        p.acks.send(&ctx, 0).expect("pna is receiving");
    });

    let s = Arc::clone(&m);
    sp.spawn("standby", move |ctx| {
        s.acks.send(&ctx, 1).expect("pna is receiving");
    });

    let n = Arc::clone(&m);
    sp.spawn("pna", move |ctx| {
        for _ in 0..2 {
            let epoch = n.acks.recv(&ctx).expect("both headends ack");
            let current = n.adopted.load(&ctx);
            if fence_acks {
                // Correct protocol: refuse an ack below the highest
                // epoch already seen.
                if epoch + 1 >= current {
                    n.adopted.store(&ctx, epoch + 1);
                }
            } else {
                // Buggy variant: adopt whichever headend answered last.
                n.adopted.store(&ctx, epoch + 1);
            }
        }
        n.pna_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let v = Arc::clone(&m);
    sp.spawn("verifier", move |ctx| {
        v.pna_done.recv(&ctx).expect("pna finishes");
        let adopted = v.adopted.load(&ctx);
        assert_eq!(
            adopted,
            2,
            "pna flipped back to the dead primary: adopted epoch {} after \
             the standby acked epoch 1",
            adopted.saturating_sub(1)
        );
    });
}

/// Correct protocol: the PNA fences hello acks by epoch, so whatever
/// order the standby's and the revenant primary's acks land in, it ends
/// on the standby's epoch.
pub(crate) fn epoch_adoption(sp: &mut Spawner) {
    epoch_adoption_model(sp, true);
}

/// Buggy variant: the PNA adopts any acking headend, so schedules where
/// the revenant primary's ack lands after the standby's flip the node
/// back to a fenced-off epoch.
pub(crate) fn epoch_adoption_flipback(sp: &mut Spawner) {
    epoch_adoption_model(sp, false);
}

// ------------------------------------------------ scale-down vs heartbeat

#[derive(Debug)]
struct TrimHub {
    /// Members currently in the instance.
    active: Vec<u64>,
    /// Tasks handed to a member and not yet completed: `(node, task)`.
    assigned: Vec<(u64, u64)>,
    /// Tasks waiting at the Backend.
    queue: Vec<u64>,
}

struct TrimModel {
    hub: Arc<ModelMutex<TrimHub>>,
    hb_done: Arc<ModelChannel<()>>,
    trim_done: Arc<ModelChannel<()>>,
}

impl TrimModel {
    fn new() -> Self {
        TrimModel {
            hub: Arc::new(ModelMutex::new(TrimHub {
                active: vec![1, 2],
                assigned: Vec::new(),
                queue: (0..EVENTS).collect(),
            })),
            hb_done: Arc::new(ModelChannel::new(0)),
            trim_done: Arc::new(ModelChannel::new(0)),
        }
    }
}

/// The autoscale trim race: the reconciler shrinks the instance while
/// heartbeat-carried fetches keep assigning queued tasks to members. The
/// live heartbeat handler evicts a member and requeues its in-flight tasks
/// inside ONE hub critical section; the tempting refactor — requeue the
/// victim's tasks first, then drop it from the membership — opens a
/// window where a concurrent fetch hands a fresh task to the
/// about-to-be-trimmed member. That task is assigned to a node no longer
/// in the instance and nothing will ever requeue it: stranded.
fn scale_down_heartbeat_model(sp: &mut Spawner, trim_atomically: bool) {
    let m = Arc::new(TrimModel::new());

    // Heartbeat-driven fetches: each heartbeat assigns one queued task to
    // a live member, preferring the trim victim (node 2) while it is
    // still active — the worst-case schedule for a sloppy trimmer.
    let h = Arc::clone(&m);
    sp.spawn("heartbeat-fetch", move |ctx| {
        for _ in 0..EVENTS {
            h.hub.lock(&ctx).with(|hub| {
                if let Some(task) = hub.queue.pop() {
                    let node = if hub.active.contains(&2) { 2 } else { 1 };
                    hub.assigned.push((node, task));
                }
            });
        }
        h.hb_done.send(&ctx, ()).expect("verifier is waiting");
    });

    // The reconciler trims node 2 out of the instance.
    let t = Arc::clone(&m);
    sp.spawn("trim", move |ctx| {
        if trim_atomically {
            // Correct protocol: membership drop and task requeue in one
            // critical section — no fetch can slip between them.
            t.hub.lock(&ctx).with(|hub| {
                hub.active.retain(|&n| n != 2);
                let mut orphaned = Vec::new();
                hub.assigned.retain(|&(node, task)| {
                    if node == 2 {
                        orphaned.push(task);
                        false
                    } else {
                        true
                    }
                });
                hub.queue.extend(orphaned);
            });
        } else {
            // Buggy variant: requeue the victim's tasks, release the
            // lock, then drop it from the membership. A fetch landing in
            // between assigns a fresh task to node 2 — which the second
            // section abandons without requeueing.
            t.hub.lock(&ctx).with(|hub| {
                let mut orphaned = Vec::new();
                hub.assigned.retain(|&(node, task)| {
                    if node == 2 {
                        orphaned.push(task);
                        false
                    } else {
                        true
                    }
                });
                hub.queue.extend(orphaned);
            });
            t.hub.lock(&ctx).with(|hub| {
                hub.active.retain(|&n| n != 2);
            });
        }
        t.trim_done.send(&ctx, ()).expect("verifier is waiting");
    });

    let v = Arc::clone(&m);
    sp.spawn("verifier", move |ctx| {
        v.hb_done.recv(&ctx).expect("heartbeat finishes");
        v.trim_done.recv(&ctx).expect("trim finishes");
        v.hub.lock(&ctx).with(|hub| {
            for &(node, task) in &hub.assigned {
                assert!(
                    hub.active.contains(&node),
                    "task {task} stranded on trimmed node {node} \
                     (assigned {:?}, active {:?}, queue {:?})",
                    hub.assigned,
                    hub.active,
                    hub.queue
                );
            }
        });
    });
}

/// Correct protocol: trimming a member and requeueing its in-flight
/// tasks happen in one hub critical section, so no concurrent heartbeat
/// fetch can strand a task on the trimmed node.
pub(crate) fn scale_down_vs_heartbeat(sp: &mut Spawner) {
    scale_down_heartbeat_model(sp, true);
}

/// Buggy variant: requeue and membership drop in separate critical
/// sections — a fetch between them assigns a task the trim abandons.
pub(crate) fn scale_down_vs_heartbeat_stranded(sp: &mut Spawner) {
    scale_down_heartbeat_model(sp, false);
}

// ------------------------------------------------------------ wake vs wait

/// How many replies the wake-vs-wait model pushes.
const REPLIES: u64 = 2;

struct WakeModel {
    /// Finished replies, pushed by worker threads for the serving loop.
    replies: Arc<ModelChannel<u64>>,
    /// The waker's coalescing flag: 1 from a wake until the loop re-arms.
    pending: Arc<ModelAtomic>,
    /// The wake fd. Level-triggered: the loop's wait returns while it
    /// holds a token. Closing it stands for the housekeeping timeout.
    wake_fd: Arc<ModelChannel<()>>,
    delivered: Arc<ModelAtomic>,
    worker_done: Arc<ModelChannel<()>>,
}

impl WakeModel {
    fn new() -> Self {
        WakeModel {
            replies: Arc::new(ModelChannel::new(0)),
            pending: Arc::new(ModelAtomic::new(0)),
            wake_fd: Arc::new(ModelChannel::new(0)),
            delivered: Arc::new(ModelAtomic::new(0)),
            worker_done: Arc::new(ModelChannel::new(0)),
        }
    }
}

/// The wire serving loop's wakeup protocol (`crates/wire/src/poller.rs`,
/// `ServeLoop::run`): a worker publishes a reply and then wakes — the
/// wake writes the fd only if the coalescing flag was clear — while the
/// loop, woken, empties the fd, clears the flag and drains the replies.
/// The order of those last two steps is the whole protocol. Flag first,
/// then drain: a reply that lands after the drain finds the flag clear
/// and writes the fd, so the next wait returns at once. Drain first,
/// then flag: a reply that lands in between finds the flag still set,
/// skips the write, and then has its flag cleared under it — nothing
/// will wake the loop for it until the housekeeping timeout.
///
/// The model has no clock. Instead a `timeout` thread closes the fd once
/// the worker is done; the loop drains every token written before the
/// close, so a reply still undelivered when its wait fails was waiting
/// for the timeout: stranded.
fn wake_wait_model(sp: &mut Spawner, arm_before_drain: bool) {
    let m = Arc::new(WakeModel::new());

    let w = Arc::clone(&m);
    sp.spawn("worker", move |ctx| {
        for reply in 0..REPLIES {
            w.replies
                .send(&ctx, reply)
                .expect("unbounded, never closed");
            if w.pending.swap(&ctx, 1) == 0 {
                // Failing means the timeout fired first, which wakes too.
                let _ = w.wake_fd.send(&ctx, ());
            }
        }
        w.worker_done.send(&ctx, ()).expect("timeout is waiting");
    });

    let l = Arc::clone(&m);
    sp.spawn("serve-loop", move |ctx| {
        let drain = |ctx: &_| {
            while let Ok(Some(_)) = l.replies.try_recv(ctx) {
                l.delivered.fetch_add(ctx, 1);
            }
        };
        // `epoll_wait`: returns while the fd holds a token.
        while l.wake_fd.recv(&ctx).is_ok() {
            // Reading an eventfd empties it.
            while let Ok(Some(())) = l.wake_fd.try_recv(&ctx) {}
            if arm_before_drain {
                l.pending.store(&ctx, 0);
                drain(&ctx);
            } else {
                drain(&ctx);
                l.pending.store(&ctx, 0);
            }
        }
        let delivered = l.delivered.load(&ctx);
        assert_eq!(
            delivered, REPLIES,
            "reply stranded until the housekeeping timeout: \
             {delivered} of {REPLIES} delivered on wakes"
        );
    });

    let t = Arc::clone(&m);
    sp.spawn("timeout", move |ctx| {
        t.worker_done.recv(&ctx).expect("worker finishes");
        t.wake_fd.close(&ctx);
    });
}

/// Correct protocol: the loop clears the coalescing flag *before* it
/// drains, so every reply is delivered on a wake in every interleaving.
pub(crate) fn wake_vs_wait(sp: &mut Spawner) {
    wake_wait_model(sp, true);
}

/// Buggy variant: the flag is cleared *after* the drain, so a reply that
/// lands between the two skips its wake and is stranded.
pub(crate) fn wake_vs_wait_late_rearm(sp: &mut Spawner) {
    wake_wait_model(sp, false);
}

// ----------------------------------------------------------------- registry

/// A named scenario plus its expected verdict under exploration.
pub struct Scenario {
    /// CLI / report name.
    pub name: &'static str,
    /// Setup function registering the virtual threads.
    pub setup: fn(&mut Spawner),
    /// True when the explorer must find no failure within the bound;
    /// false when it must find one (detector sensitivity check).
    pub expect_clean: bool,
}

/// Every scenario `oddci check model` runs.
pub static ALL: &[Scenario] = &[
    Scenario {
        name: "shutdown-under-active-sink",
        setup: shutdown_under_active_sink,
        expect_clean: true,
    },
    Scenario {
        name: "shutdown-under-active-sink-lossy",
        setup: shutdown_under_active_sink_lossy,
        expect_clean: false,
    },
    Scenario {
        name: "heartbeat-vs-recompose",
        setup: heartbeat_vs_recompose,
        expect_clean: true,
    },
    Scenario {
        name: "heartbeat-vs-recompose-toctou",
        setup: heartbeat_vs_recompose_toctou,
        expect_clean: false,
    },
    Scenario {
        name: "sink-stats-snapshot",
        setup: sink_stats_snapshot,
        expect_clean: true,
    },
    Scenario {
        name: "sink-stats-snapshot-torn",
        setup: sink_stats_snapshot_torn,
        expect_clean: false,
    },
    Scenario {
        name: "epoch-adoption",
        setup: epoch_adoption,
        expect_clean: true,
    },
    Scenario {
        name: "epoch-adoption-flipback",
        setup: epoch_adoption_flipback,
        expect_clean: false,
    },
    Scenario {
        name: "scale-down-vs-heartbeat",
        setup: scale_down_vs_heartbeat,
        expect_clean: true,
    },
    Scenario {
        name: "scale-down-vs-heartbeat-stranded",
        setup: scale_down_vs_heartbeat_stranded,
        expect_clean: false,
    },
    Scenario {
        name: "wake-vs-wait",
        setup: wake_vs_wait,
        expect_clean: true,
    },
    Scenario {
        name: "wake-vs-wait-late-rearm",
        setup: wake_vs_wait_late_rearm,
        expect_clean: false,
    },
];

/// Look a scenario up by its CLI name.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for s in ALL {
            assert!(std::ptr::eq(by_name(s.name).expect("resolvable"), s));
        }
        let mut names: Vec<_> = ALL.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn correct_sink_shutdown_survives_exploration() {
        let r = Explorer::new(11)
            .max_schedules(120)
            .explore(shutdown_under_active_sink);
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert!(r.last_schedule.starts_with("s11:"));
    }

    #[test]
    fn fenced_epoch_adoption_survives_exploration() {
        let r = Explorer::new(11).max_schedules(120).explore(epoch_adoption);
        assert!(r.failure.is_none(), "{:?}", r.failure);
    }

    #[test]
    fn epoch_flipback_is_found_and_replayable() {
        let r = Explorer::new(11)
            .max_schedules(400)
            .explore(epoch_adoption_flipback);
        let f = r.failure.expect("explorer must find the epoch flip-back");
        assert!(f.message.contains("flipped back"), "{}", f.message);
        let replay = Explorer::new(11).replay(&f.schedule, epoch_adoption_flipback);
        let msg = replay.failure.expect("pinned schedule reproduces");
        assert!(msg.contains("flipped back"), "{msg}");
    }

    #[test]
    fn atomic_trim_survives_exploration() {
        let r = Explorer::new(11)
            .max_schedules(200)
            .explore(scale_down_vs_heartbeat);
        assert!(r.failure.is_none(), "{:?}", r.failure);
    }

    #[test]
    fn split_trim_strands_a_task_and_replays() {
        let r = Explorer::new(11)
            .max_schedules(400)
            .explore(scale_down_vs_heartbeat_stranded);
        let f = r.failure.expect("explorer must find the stranded task");
        assert!(f.message.contains("stranded"), "{}", f.message);
        let replay = Explorer::new(11).replay(&f.schedule, scale_down_vs_heartbeat_stranded);
        let msg = replay.failure.expect("pinned schedule reproduces");
        assert!(msg.contains("stranded"), "{msg}");
    }

    #[test]
    fn armed_before_drain_strands_no_reply() {
        let r = Explorer::new(11).max_schedules(200).explore(wake_vs_wait);
        assert!(r.failure.is_none(), "{:?}", r.failure);
    }

    #[test]
    fn late_rearm_strands_a_reply_and_replays() {
        let r = Explorer::new(11)
            .max_schedules(400)
            .explore(wake_vs_wait_late_rearm);
        let f = r.failure.expect("explorer must find the stranded reply");
        assert!(f.message.contains("stranded"), "{}", f.message);
        let replay = Explorer::new(11).replay(&f.schedule, wake_vs_wait_late_rearm);
        let msg = replay.failure.expect("pinned schedule reproduces");
        assert!(msg.contains("stranded"), "{msg}");
    }

    #[test]
    fn torn_snapshot_is_found_and_replayable() {
        let r = Explorer::new(11)
            .max_schedules(400)
            .explore(sink_stats_snapshot_torn);
        let f = r
            .failure
            .expect("explorer must find the torn-snapshot underflow");
        assert!(f.message.contains("underflow"), "{}", f.message);
        let replay = Explorer::new(11).replay(&f.schedule, sink_stats_snapshot_torn);
        let msg = replay.failure.expect("pinned schedule reproduces");
        assert!(msg.contains("underflow"), "{msg}");
    }
}
