//! The in-process broadcast bus: one publisher, many subscribers, every
//! subscriber sees every message — the live-plane stand-in for the DTV
//! carousel's one-to-many transmission.

use oddci_check::sync::{unbounded, Mutex, Receiver, Sender};

/// Called after a message was queued for its subscriber.
type Notify = Box<dyn Fn() + Send>;

/// A clone-fan-out broadcast channel.
pub struct BroadcastBus<T: Clone> {
    subscribers: Mutex<Vec<(Sender<T>, Option<Notify>)>>,
}

impl<T: Clone> Default for BroadcastBus<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> BroadcastBus<T> {
    /// Creates a bus with no subscribers.
    pub fn new() -> Self {
        BroadcastBus {
            subscribers: Mutex::named(Vec::new(), "live.bus.subscribers"),
        }
    }

    /// Subscribes; the returned receiver sees every message published
    /// *after* this call (a receiver tuning in mid-broadcast misses what
    /// came before — just like a real carousel-less transmission; the
    /// runtime re-publishes periodically to model carousel repetition).
    pub(crate) fn subscribe(&self) -> Receiver<T> {
        self.push_subscriber(None)
    }

    /// Like [`subscribe`](BroadcastBus::subscribe), for a subscriber that
    /// does not block on its receiver: `notify` runs on the publisher's
    /// thread right after each message is queued (the socket front wakes
    /// its serving loop this way).
    pub(crate) fn subscribe_with(&self, notify: impl Fn() + Send + 'static) -> Receiver<T> {
        self.push_subscriber(Some(Box::new(notify)))
    }

    fn push_subscriber(&self, notify: Option<Notify>) -> Receiver<T> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push((tx, notify));
        rx
    }

    /// Publishes to every live subscriber; hung-up subscribers are pruned.
    /// Returns the number of subscribers reached.
    pub fn publish(&self, msg: &T) -> usize {
        let mut subs = self.subscribers.lock();
        subs.retain(|(tx, notify)| {
            let reached = tx.send(msg.clone()).is_ok();
            if let (true, Some(notify)) = (reached, notify) {
                notify();
            }
            reached
        });
        subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subscriber_sees_every_message() {
        let bus = BroadcastBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        assert_eq!(bus.publish(&1), 2);
        assert_eq!(bus.publish(&2), 2);
        assert_eq!(a.try_recv(), Ok(1));
        assert_eq!(a.try_recv(), Ok(2));
        assert_eq!(b.try_recv(), Ok(1));
        assert_eq!(b.try_recv(), Ok(2));
    }

    #[test]
    fn late_subscribers_miss_earlier_messages() {
        let bus = BroadcastBus::new();
        bus.publish(&1);
        let late = bus.subscribe();
        bus.publish(&2);
        assert_eq!(late.try_recv(), Ok(2));
        assert!(late.try_recv().is_err());
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus = BroadcastBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        drop(b);
        assert_eq!(bus.publish(&7), 1);
        assert_eq!(a.try_recv(), Ok(7));
    }

    #[test]
    fn notified_subscribers_are_told_once_per_message() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let bus = BroadcastBus::new();
        let notified = Arc::new(AtomicUsize::new(0));
        let rx = bus.subscribe_with({
            let notified = Arc::clone(&notified);
            move || {
                notified.fetch_add(1, Ordering::SeqCst);
            }
        });
        let plain = bus.subscribe();
        assert_eq!(bus.publish(&1), 2);
        assert_eq!(bus.publish(&2), 2);
        assert_eq!(notified.load(Ordering::SeqCst), 2);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(plain.try_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn publish_from_multiple_threads() {
        use std::sync::Arc;
        let bus = Arc::new(BroadcastBus::new());
        let rx = bus.subscribe();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for j in 0..100 {
                        bus.publish(&(i * 100 + j));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<i32> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got.len(), 400);
        assert_eq!(got, (0..400).collect::<Vec<_>>());
    }
}
