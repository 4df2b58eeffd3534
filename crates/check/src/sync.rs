//! The instrumented sync shim the workspace uses instead of raw locks.
//!
//! Everything here sits directly on the standard library, in three
//! families, all registered with the [`crate::order`] lock-order
//! detector:
//!
//! * [`Mutex`] — a `std::sync::Mutex`, poison-transparent;
//! * [`Monitor`] — a `std::sync` mutex *with a condvar*, poison-transparent;
//! * [`unbounded`] channels — `std::sync::mpsc`; every [`Sender::send`]
//!   runs the send-while-locked check. A send never blocks. The
//!   [`Receiver`] is std's own, so it is `Send` but not `Sync`: one
//!   thread at a time owns a channel's receiving end.
//!
//! Poison-transparent means a thread that panics while holding a lock
//! does not poison it for everyone else: the next `lock` gets the data
//! as the panicking thread left it. A panicked node thread must not
//! wedge the live headend's hub.
//!
//! With checking disabled every operation adds one relaxed atomic load to
//! the underlying primitive — cheap enough that the live hot paths use
//! these types unconditionally. With checking enabled
//! ([`crate::enable`] / `ODDCI_CHECK=1`) each acquisition feeds the
//! acquisition-order graph and each send is checked against held
//! send-sensitive locks. The workspace lint (`oddci check`) enforces
//! that no code outside this crate reaches for the raw types.

use crate::order;
use std::ops::{Deref, DerefMut};
use std::sync::{mpsc, PoisonError};
use std::time::Duration;

// ---------------------------------------------------------------- Mutex

/// A poison-transparent mutex wired into the lock-order detector.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex::lock`]; releases its order-graph entry on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    id: u64,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// An anonymous mutex (shows as `lock#N` in reports).
    pub fn new(value: T) -> Self {
        Mutex {
            id: order::register(None, false),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A named mutex — names make lock-order reports readable.
    pub fn named(value: T, name: &'static str) -> Self {
        Mutex {
            id: order::register(Some(name), false),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A named mutex under the *no channel send while held* rule: any
    /// [`Sender::send`] on the holding thread is flagged as a violation.
    pub fn named_send_sensitive(value: T, name: &'static str) -> Self {
        Mutex {
            id: order::register(Some(name), true),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock (recording the acquisition when checking).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        order::on_acquire(self.id);
        MutexGuard {
            id: self.id,
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.id);
    }
}

// ---------------------------------------------------------------- Monitor

/// A mutex paired with a condition variable — the shim for the
/// `std::sync::{Mutex, Condvar}` rendezvous pattern (the streaming sink's
/// writer wake-up). Poison-transparent, like [`Mutex`].
#[derive(Debug)]
pub struct Monitor<T> {
    id: u64,
    cv: std::sync::Condvar,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Monitor::lock`]. The inner option is `Some` for the
/// guard's whole life; it exists only so [`Monitor::wait_timeout`] can
/// move the raw guard out without double-releasing the order entry.
#[derive(Debug)]
pub struct MonitorGuard<'a, T> {
    id: u64,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Monitor<T> {
    /// A named monitor.
    pub fn named(value: T, name: &'static str) -> Self {
        Monitor {
            id: order::register(Some(name), false),
            cv: std::sync::Condvar::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock.
    pub fn lock(&self) -> MonitorGuard<'_, T> {
        order::on_acquire(self.id);
        MonitorGuard {
            id: self.id,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Releases `guard`, waits up to `timeout` for a notification, and
    /// reacquires. Returns the reacquired guard and whether the wait
    /// timed out.
    pub fn wait_timeout<'a>(
        &'a self,
        mut guard: MonitorGuard<'a, T>,
        timeout: Duration,
    ) -> (MonitorGuard<'a, T>, bool) {
        let raw = guard.inner.take().expect("guard always holds its lock");
        order::on_release(self.id);
        let (raw, result) = self
            .cv
            .wait_timeout(raw, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        order::on_acquire(self.id);
        (
            MonitorGuard {
                id: self.id,
                inner: Some(raw),
            },
            result.timed_out(),
        )
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

impl<T> Deref for MonitorGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard always holds its lock")
    }
}

impl<T> DerefMut for MonitorGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard always holds its lock")
    }
}

impl<T> Drop for MonitorGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            order::on_release(self.id);
        }
    }
}

// ---------------------------------------------------------------- channels

pub use std::sync::mpsc::{Receiver, RecvTimeoutError};

/// The sending half of a shim channel; [`send`](Sender::send) runs the
/// send-while-locked check before delegating.
pub struct Sender<T> {
    inner: mpsc::Sender<T>,
}

impl<T> Sender<T> {
    /// Enqueues `value` without blocking, failing once the receiver is
    /// gone. When checking is enabled, first verifies no send-sensitive
    /// lock is held on this thread.
    pub fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
        order::check_channel_send();
        self.inner.send(value)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            inner: self.inner.clone(),
        }
    }
}

/// An unbounded multi-producer, single-consumer channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender { inner: tx }, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::TryRecvError;
    use std::sync::Arc;

    /// A thread that panics while holding a lock leaves it usable, with
    /// its data as the panicking thread left it.
    #[test]
    fn mutex_and_monitor_survive_a_panicking_holder() {
        let m = Arc::new(Mutex::named(vec![1u32], "test.poison.mutex"));
        let mon = Arc::new(Monitor::named(10u32, "test.poison.monitor"));
        let (m2, mon2) = (Arc::clone(&m), Arc::clone(&mon));
        let panicked = std::thread::spawn(move || {
            let mut held = m2.lock();
            let mut watched = mon2.lock();
            held.push(2);
            *watched += 1;
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(*m.lock(), vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        assert_eq!(*mon.lock(), 11);
        let (g, timed_out) = mon.wait_timeout(mon.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*g, 11);
    }

    #[test]
    fn monitor_wait_times_out_and_wakes() {
        let mon = Arc::new(Monitor::named(0u32, "test.monitor"));
        let g = mon.lock();
        let (g, timed_out) = mon.wait_timeout(g, Duration::from_millis(1));
        assert!(timed_out);
        drop(g);
        let mon2 = Arc::clone(&mon);
        let waiter = std::thread::spawn(move || {
            let mut g = mon2.lock();
            while *g == 0 {
                let (next, _) = mon2.wait_timeout(g, Duration::from_millis(50));
                g = next;
            }
            *g
        });
        std::thread::sleep(Duration::from_millis(5));
        *mon.lock() = 7;
        mon.notify_all();
        assert_eq!(waiter.join().expect("waiter exits"), 7);
    }

    #[test]
    fn channels_round_trip() {
        let (tx, rx) = unbounded();
        tx.send(1u8).expect("receiver alive");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(2).is_err());
    }

    /// `recv_timeout` tells a live, empty channel (`Timeout`) from one
    /// whose senders are all gone (`Disconnected`), and only reports the
    /// latter once the queue is drained.
    #[test]
    fn recv_timeout_tells_timeout_from_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        let wait = Duration::from_millis(1);
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
        let tx2 = tx.clone();
        tx.send(4).expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv_timeout(wait), Ok(4));
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
        tx2.send(5).expect("receiver alive");
        drop(tx2);
        assert_eq!(rx.recv_timeout(wait), Ok(5));
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
    }
}
