//! Lock-acquisition-order graph and potential-deadlock detection.
//!
//! Every [`crate::sync`] lock registers itself here. When checking is
//! enabled ([`crate::enabled`]), each acquisition records one edge per
//! lock currently held by the acquiring thread: *held → acquired*. A
//! cycle in that graph is a potential deadlock — two threads can acquire
//! the cycle's locks in opposite orders — and is reported with the
//! acquisition backtraces of the edges involved, whether or not the
//! deadlock actually fires in this run. This is the classic lockdep
//! construction: it turns a timing-dependent hang into a deterministic
//! report the first time the inconsistent order is *exercised*.
//!
//! The same per-thread held-stack backs `check_channel_send`, which
//! enforces the workspace locking rule that keeps the live headend
//! deadlock-free: **never send on a channel while holding a
//! send-sensitive lock** (the hub). Violations are recorded, not
//! panicked, so a run reports every finding; tests assert on
//! [`take_violations`].

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a dynamic check found.
#[derive(Debug, Clone)]
pub enum Violation {
    /// Adding `from → to` closed a cycle in the acquisition-order graph.
    LockOrderCycle {
        /// Lock names along the cycle, ending where it started.
        cycle: Vec<String>,
        /// Backtrace of the acquisition that closed the cycle.
        backtrace: String,
        /// Backtrace of the first acquisition of the reverse edge.
        prior_backtrace: String,
    },
    /// A channel send happened while a send-sensitive lock was held.
    SendWhileLocked {
        /// Name of the held lock.
        lock: String,
        /// Backtrace of the send.
        backtrace: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockOrderCycle {
                cycle,
                backtrace,
                prior_backtrace,
            } => {
                writeln!(
                    f,
                    "potential deadlock: lock-order cycle {}",
                    cycle.join(" -> ")
                )?;
                writeln!(f, "-- acquisition closing the cycle:\n{backtrace}")?;
                write!(
                    f,
                    "-- earlier acquisition of the reverse edge:\n{prior_backtrace}"
                )
            }
            Violation::SendWhileLocked { lock, backtrace } => {
                write!(
                    f,
                    "channel send while holding send-sensitive lock `{lock}`:\n{backtrace}"
                )
            }
        }
    }
}

#[derive(Debug, Default)]
struct Graph {
    /// Lock id → human name ("live.hub", "sink.lane", or "lock#N").
    names: BTreeMap<u64, String>,
    /// Lock id → channel sends are forbidden while it is held.
    send_sensitive: BTreeMap<u64, bool>,
    /// Edge (held, acquired) → backtrace of its first sighting.
    edges: BTreeMap<(u64, u64), String>,
    violations: Vec<Violation>,
    /// Edges already reported as part of a cycle (one report per edge).
    reported: BTreeMap<(u64, u64), bool>,
}

impl Graph {
    fn name(&self, id: u64) -> String {
        self.names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("lock#{id}"))
    }

    /// Is there a path `from →* to` using recorded edges?
    fn path_exists(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        let mut stack = vec![vec![from]];
        let mut seen = BTreeMap::new();
        seen.insert(from, true);
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("non-empty path");
            if last == to {
                return Some(path);
            }
            for &(a, b) in self.edges.keys() {
                if a == last && seen.insert(b, true).is_none() {
                    let mut next = path.clone();
                    next.push(b);
                    stack.push(next);
                }
            }
        }
        None
    }
}

static GRAPH: Mutex<Option<Graph>> = Mutex::new(None);
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Lock ids this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    let mut slot = GRAPH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(slot.get_or_insert_with(Graph::default))
}

/// Allocate a fresh lock id (called by [`crate::sync`] constructors; ids
/// are allocated even with checking off so enabling mid-run works).
pub(crate) fn register(name: Option<&'static str>, send_sensitive: bool) -> u64 {
    let id = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
    if name.is_some() || send_sensitive {
        with_graph(|g| {
            if let Some(n) = name {
                g.names.insert(id, n.to_string());
            }
            if send_sensitive {
                g.send_sensitive.insert(id, true);
            }
        });
    }
    id
}

/// Record an acquisition: one `held → id` edge per currently-held lock,
/// with cycle detection on new edges. No-op when checking is off.
pub(crate) fn on_acquire(id: u64) {
    if !crate::enabled() {
        return;
    }
    let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
    if !held.is_empty() {
        with_graph(|g| {
            for &h in &held {
                if h == id || g.edges.contains_key(&(h, id)) {
                    continue;
                }
                let backtrace = Backtrace::force_capture().to_string();
                // Cycle iff the reverse direction is already reachable.
                if let Some(path) = g.path_exists(id, h) {
                    if g.reported.insert((h, id), true).is_none() {
                        let mut cycle: Vec<String> = path.iter().map(|&n| g.name(n)).collect();
                        cycle.push(g.name(id));
                        let prior = g
                            .edges
                            .get(&(id, *path.get(1).unwrap_or(&h)))
                            .cloned()
                            .unwrap_or_else(|| "<first edge of path>".to_string());
                        g.violations.push(Violation::LockOrderCycle {
                            cycle,
                            backtrace: backtrace.clone(),
                            prior_backtrace: prior,
                        });
                    }
                }
                g.edges.insert((h, id), backtrace);
            }
        });
    }
    HELD.with(|h| h.borrow_mut().push(id));
}

/// Record a release (pops the most recent occurrence — guards may drop
/// out of order). No-op when checking is off.
pub(crate) fn on_release(id: u64) {
    if !crate::enabled() {
        return;
    }
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&x| x == id) {
            held.remove(pos);
        }
    });
}

/// Called by [`crate::sync::Sender::send`] — and by anything else that
/// hands work to another thread the way a send does, such as the wire
/// serving loop's `Waker::wake` — to flag it when any send-sensitive
/// lock is held. No-op when checking is off.
pub fn check_channel_send() {
    if !crate::enabled() {
        return;
    }
    let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
    if held.is_empty() {
        return;
    }
    with_graph(|g| {
        for &h in &held {
            if g.send_sensitive.get(&h).copied().unwrap_or(false) {
                g.violations.push(Violation::SendWhileLocked {
                    lock: g.name(h),
                    backtrace: Backtrace::force_capture().to_string(),
                });
            }
        }
    });
}

/// True when the current thread holds the named lock (diagnostic hook for
/// call sites that want to assert the documented discipline directly).
pub fn current_thread_holds(name: &str) -> bool {
    if !crate::enabled() {
        return false;
    }
    let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
    with_graph(|g| {
        held.iter()
            .any(|id| g.names.get(id).map(String::as_str) == Some(name))
    })
}

/// Drain every violation recorded so far (tests assert on this; the CLI
/// prints them).
pub fn take_violations() -> Vec<Violation> {
    with_graph(|g| std::mem::take(&mut g.violations))
}

/// Number of violations currently recorded.
pub fn violation_count() -> usize {
    with_graph(|g| g.violations.len())
}

/// Reset the whole graph (edges, names of dropped locks, violations) —
/// test isolation helper.
pub fn reset() {
    let mut slot = GRAPH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global graph is process-wide, so every assertion about it
    /// lives in this one serialized test.
    #[test]
    fn detects_ab_ba_cycle_and_send_while_locked() {
        crate::enable();
        reset();
        let a = crate::sync::Mutex::named(0u32, "test.a");
        let b = crate::sync::Mutex::named(0u32, "test.b");
        {
            let _ga = a.lock();
            let _gb = b.lock(); // edge a -> b
        }
        assert_eq!(violation_count(), 0, "consistent order is clean");
        {
            let _gb = b.lock();
            let _ga = a.lock(); // edge b -> a closes the cycle
        }
        let v = take_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        match &v[0] {
            Violation::LockOrderCycle { cycle, .. } => {
                assert!(cycle.contains(&"test.a".to_string()), "{cycle:?}");
                assert!(cycle.contains(&"test.b".to_string()), "{cycle:?}");
            }
            other => panic!("expected cycle, got {other}"),
        }

        // Send-while-locked: a send under a send-sensitive lock is
        // flagged; the same send after release is clean.
        let hub = crate::sync::Mutex::named_send_sensitive(0u32, "test.hub");
        let (tx, _rx) = crate::sync::unbounded::<u8>();
        {
            let _g = hub.lock();
            assert!(current_thread_holds("test.hub"));
            let _ = tx.send(1);
        }
        assert!(!current_thread_holds("test.hub"));
        let _ = tx.send(2);
        let v = take_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(&v[0], Violation::SendWhileLocked { lock, .. } if lock == "test.hub"));

        crate::disable();
        reset();
    }
}
