//! What the run cost the machine: CPU time, context switches and peak
//! resident memory of this process, threads that already exited
//! included — which is why this is `getrusage` and not `/proc`.

use std::time::Instant;

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// `ru_maxrss` (KiB) first; `ru_nvcsw`, `ru_nivcsw` last.
    rest: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout above is the 64-bit Linux one");

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide resource counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    at: Instant,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub ctx_vol: u64,
    pub ctx_invol: u64,
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `RUsage` whose layout matches
        // the kernel's `struct rusage` on 64-bit Linux (enforced by the
        // `compile_error!` above), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Usage {
            at: Instant::now(),
            cpu_user_s: secs(ru.utime),
            cpu_sys_s: secs(ru.stime),
            ctx_vol: ru.rest[12] as u64,
            ctx_invol: ru.rest[13] as u64,
            peak_rss_mb: ru.rest[0] as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier`, plus CPU seconds per
    /// wall-clock second per core over that interval.
    pub fn since(&self, earlier: &Usage, cores: usize) -> Delta {
        let wall = self.at.duration_since(earlier.at).as_secs_f64();
        let user = self.cpu_user_s - earlier.cpu_user_s;
        let sys = self.cpu_sys_s - earlier.cpu_sys_s;
        Delta {
            cpu_user_s: user,
            cpu_sys_s: sys,
            cpu_util: if wall > 0.0 {
                (user + sys) / (wall * cores as f64)
            } else {
                0.0
            },
            ctx_vol: self.ctx_vol - earlier.ctx_vol,
            ctx_invol: self.ctx_invol - earlier.ctx_invol,
        }
    }
}

/// The difference of two [`Usage`] readings.
#[derive(Debug, Clone, Copy)]
pub struct Delta {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub cpu_util: f64,
    pub ctx_vol: u64,
    pub ctx_invol: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_forward() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Usage::now();
        let d = b.since(&a, 1);
        assert!(b.peak_rss_mb > 1.0, "a running process has resident pages");
        assert!(d.cpu_user_s + d.cpu_sys_s > 0.0);
        assert!(d.ctx_vol >= 1, "the sleep is a voluntary switch");
    }
}
