//! Readiness polling for the serving loop: level-triggered `epoll` plus
//! an `eventfd` that lets other threads interrupt the wait.
//!
//! This is the only file in the workspace that contains `unsafe` (the
//! `oddci-check` lint enforces that): five foreign calls into the C
//! library the standard library already links, declared here instead of
//! pulling in a dependency. Everything past file-descriptor creation is
//! safe code — the descriptors live in [`OwnedFd`]s, so they close on
//! drop, and the wake fd is read and written through [`File`].

use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `struct epoll_event` of Linux: packed on x86-64, naturally aligned on
/// every other architecture.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "the epoll_event layout and the flag values below are those of x86-64 and aarch64 Linux"
);

/// `struct pollfd` of Linux.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const POLLIN: i16 = 0x001;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// Token [`Poller::wait`] reports when a [`Waker`] fired.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;
/// Events fetched per `epoll_wait`; more ready descriptors than this are
/// simply reported by the next call (level-triggered).
const MAX_EVENTS: usize = 256;

/// Turns a `-1` return into the thread's `errno`.
fn cvt(rc: i32) -> io::Result<i32> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

struct WakeInner {
    /// The eventfd, nonblocking.
    fd: File,
    /// True from a `wake` until the loop re-arms: coalesces a burst of
    /// wakes into one eventfd write.
    pending: AtomicBool,
}

/// Interrupts the serving loop's wait from any thread. Cloneable and
/// cheap: a burst of wakes between two loop turns costs one syscall.
///
/// Whoever makes work for the loop outside a socket — a reply pushed on
/// a channel the service drains in [`poll`](crate::WireService::poll), a
/// stop request — publishes the work *first* and calls [`wake`] second.
/// A wake counts as a channel send for the `oddci-check` send-sensitive
/// lock rule: never call it while holding such a lock.
///
/// [`wake`]: Waker::wake
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakeInner>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker { .. }")
    }
}

impl Waker {
    /// Makes the loop's current (or next) wait return promptly.
    pub fn wake(&self) {
        oddci_check::order::check_channel_send();
        // SeqCst pairs with the swap-free store in `Poller::rearm`: either
        // this swap sees the re-armed `false` and writes the fd, or the
        // loop's drain, which follows its store, sees the published work.
        if !self.inner.pending.swap(true, Ordering::SeqCst) {
            // An eventfd write fails only when the counter would overflow
            // (2^64 - 2 unread wakes), in which case the fd is readable
            // anyway.
            let _ = (&self.inner.fd).write(&1u64.to_ne_bytes());
        }
    }
}

/// One readiness report: `token` is readable or writable (the loop
/// tries to flush every reported connection, so only reads need telling
/// apart).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    pub(crate) token: u64,
    /// Readable, or hung up / errored (a read will say which).
    pub(crate) readable: bool,
}

/// An epoll instance with its wake fd registered under [`WAKE_TOKEN`].
pub(crate) struct Poller {
    ep: OwnedFd,
    wake: Arc<WakeInner>,
    events: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; on success it returns
        // a fresh descriptor nobody else owns, which `OwnedFd` then closes.
        let ep = unsafe { OwnedFd::from_raw_fd(cvt(epoll_create1(EPOLL_CLOEXEC))?) };
        // SAFETY: as above for `eventfd`.
        let fd = unsafe { OwnedFd::from_raw_fd(cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))?) };
        let poller = Poller {
            ep,
            wake: Arc::new(WakeInner {
                fd: File::from(fd),
                pending: AtomicBool::new(false),
            }),
            events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.fd.as_raw_fd(), WAKE_TOKEN, false)?;
        Ok(poller)
    }

    pub(crate) fn waker(&self) -> Waker {
        Waker {
            inner: Arc::clone(&self.wake),
        }
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN | if writable { EPOLLOUT } else { 0 },
            data: token,
        };
        // SAFETY: `event` is a live, writable `epoll_event` with the
        // kernel's layout (see the `compile_error!` above); the kernel
        // only reads it, and not past the call.
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Registers `fd` for read readiness, and write readiness if asked.
    pub(crate) fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, writable)
    }

    /// Changes whether `fd` also reports write readiness.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, writable)
    }

    /// Stops reporting `fd`. Closing a descriptor removes it too; this is
    /// for one that stays open (a listener that is backing off).
    pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false)
    }

    /// Blocks until a registered descriptor is ready, a [`Waker`] fires
    /// or `timeout` passes (rounded up to a millisecond), then replaces
    /// the contents of `ready` with what is ready. An interrupted wait
    /// reports nothing.
    pub(crate) fn wait(&mut self, timeout: Duration, ready: &mut Vec<Ready>) -> io::Result<()> {
        ready.clear();
        let millis = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `events` is a live buffer of `MAX_EVENTS` entries, which
        // is the length passed; the kernel writes at most that many.
        let rc = unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                self.events.as_mut_ptr(),
                MAX_EVENTS as i32,
                millis,
            )
        };
        let n = match cvt(rc) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        ready.extend(self.events[..n].iter().map(|e| {
            // Copied out by value: the struct is packed on x86-64.
            let (events, token) = (e.events, e.data);
            Ready {
                token,
                readable: events & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
            }
        }));
        Ok(())
    }

    /// [`wait`](Poller::wait) with every descriptor but the wake fd left
    /// out: blocks until a [`Waker`] fires or `timeout` passes, whatever
    /// the sockets do. The timeout is honoured to the microsecond
    /// (`epoll_wait` counts in milliseconds), which is what holding
    /// intake back for a fraction of one needs.
    pub(crate) fn wait_wake(&self, timeout: Duration, ready: &mut Vec<Ready>) -> io::Result<()> {
        ready.clear();
        let mut fd = PollFd {
            fd: self.wake.fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` is one live, writable `pollfd` and `nfds` is 1;
        // `timeout` is a live `timespec` the kernel only reads; a null
        // signal mask leaves the thread's mask alone. Neither pointer is
        // kept past the call.
        match cvt(unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) }) {
            Ok(0) => {}
            Ok(_) => ready.push(Ready {
                token: WAKE_TOKEN,
                readable: true,
            }),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Re-arms the waker after [`WAKE_TOKEN`] was reported. Call it
    /// *before* draining whatever the wakers publish: a wake that lands
    /// after this writes the fd again, and one that landed before it is
    /// covered by the drain that follows. The read comes first so that
    /// `pending == true` always implies the fd is (about to be) readable.
    pub(crate) fn rearm(&self) {
        let mut count = [0u8; 8];
        let _ = (&self.wake.fd).read(&mut count);
        self.wake.pending.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn wait(poller: &mut Poller, timeout: Duration) -> Vec<Ready> {
        let mut ready = Vec::new();
        poller.wait(timeout, &mut ready).expect("wait");
        ready
    }

    #[test]
    fn wait_times_out_with_nothing_ready() {
        let mut poller = Poller::new().expect("epoll");
        let begin = Instant::now();
        assert!(wait(&mut poller, Duration::from_millis(20)).is_empty());
        assert!(begin.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_burst_of_wakes_is_one_event_until_rearmed() {
        let mut poller = Poller::new().expect("epoll");
        let waker = poller.waker();
        for _ in 0..100 {
            waker.wake();
        }
        let tokens: Vec<u64> = wait(&mut poller, Duration::from_secs(5))
            .iter()
            .map(|r| r.token)
            .collect();
        assert_eq!(tokens, vec![WAKE_TOKEN]);
        // Level-triggered: still ready until the loop re-arms.
        assert_eq!(wait(&mut poller, Duration::ZERO).len(), 1);
        poller.rearm();
        assert_eq!(wait(&mut poller, Duration::ZERO).len(), 0);
        waker.wake();
        assert_eq!(wait(&mut poller, Duration::ZERO).len(), 1);
    }

    #[test]
    fn a_wake_from_another_thread_interrupts_a_long_wait() {
        let mut poller = Poller::new().expect("epoll");
        let waker = poller.waker();
        let begin = Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        assert_eq!(wait(&mut poller, Duration::from_secs(10)).len(), 1);
        assert!(begin.elapsed() < Duration::from_secs(5));
        t.join().expect("waker thread");
    }

    #[test]
    fn wait_wake_keeps_sub_millisecond_time_and_ignores_sockets() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut poller = Poller::new().expect("epoll");
        poller.add(listener.as_raw_fd(), 7, false).expect("add");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        assert_eq!(wait(&mut poller, Duration::from_secs(5)).len(), 1);
        let wait_wake = |poller: &Poller, timeout: Duration| {
            let mut ready = Vec::new();
            poller.wait_wake(timeout, &mut ready).expect("wait_wake");
            ready.iter().map(|r| r.token).collect::<Vec<u64>>()
        };

        // The pending connection does not end the wait; the timeout does,
        // and it is not rounded up to a millisecond.
        let mut best = Duration::MAX;
        for _ in 0..50 {
            let begin = Instant::now();
            assert!(wait_wake(&poller, Duration::from_micros(200)).is_empty());
            let took = begin.elapsed();
            assert!(
                took >= Duration::from_micros(200),
                "returned early: {took:?}"
            );
            best = best.min(took);
        }
        assert!(best < Duration::from_micros(900), "rounded up: {best:?}");

        poller.waker().wake();
        assert_eq!(wait_wake(&poller, Duration::from_secs(5)), vec![WAKE_TOKEN]);
        poller.rearm();
        assert!(wait_wake(&poller, Duration::ZERO).is_empty());
    }

    #[test]
    fn sockets_report_read_and_write_readiness() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut poller = Poller::new().expect("epoll");
        poller.add(listener.as_raw_fd(), 7, false).expect("add");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let ready = wait(&mut poller, Duration::from_secs(5));
        assert!(ready.iter().any(|r| r.token == 7 && r.readable));
        let (accepted, _) = listener.accept().expect("accept");
        poller.remove(listener.as_raw_fd()).expect("remove");

        poller.add(accepted.as_raw_fd(), 9, false).expect("add");
        assert_eq!(wait(&mut poller, Duration::ZERO).len(), 0);
        poller
            .modify(accepted.as_raw_fd(), 9, true)
            .expect("modify");
        let ready = wait(&mut poller, Duration::from_secs(5));
        assert!(ready.iter().any(|r| r.token == 9 && !r.readable));
        poller
            .modify(accepted.as_raw_fd(), 9, false)
            .expect("modify");
        peer.write_all(b"x").expect("write");
        let ready = wait(&mut poller, Duration::from_secs(5));
        assert!(ready.iter().any(|r| r.token == 9 && r.readable));
    }
}
