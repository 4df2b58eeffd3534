#![forbid(unsafe_code)]
// The sync shim wraps the raw std primitives that clippy.toml bans
// everywhere else.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

//! # oddci-check — concurrency correctness tooling for the OddCI stack
//!
//! The live plane is genuinely concurrent: node and serving threads that
//! drive the locked Controller and dispatch under the hub lock, a
//! control thread that ticks the Controller, and streaming-sink writer
//! threads all share state through channels, atomics and locks. This
//! crate is the machine-checked discipline behind that concurrency, in
//! two layers:
//!
//! 1. **An instrumented sync shim** ([`sync`]): drop-in `Mutex` /
//!    `Monitor` / channel wrappers over `std::sync` and
//!    `std::sync::mpsc` that the whole workspace uses instead of the raw
//!    std types.
//!    With checking disabled (the default) each operation costs one
//!    relaxed atomic load on top of the underlying primitive. With
//!    checking enabled ([`enable`] or `ODDCI_CHECK=1`), every acquisition
//!    feeds a global lock-order graph ([`order`]) that detects
//!    potential-deadlock cycles — with the acquisition backtraces of the
//!    offending edges — and every channel send is checked against the
//!    workspace locking rule *never send on a channel while holding a
//!    send-sensitive lock* (e.g. the live headend's hub).
//! 2. **A deterministic schedule explorer** ([`explore`]): scaled-down
//!    models of the live-headend protocols ([`scenarios`]) run under a
//!    seeded cooperative scheduler that permutes yield points — bounded
//!    DFS over interleavings with a replayable schedule string printed on
//!    failure, so any discovered race becomes a deterministic regression
//!    test (see `tests/check_schedules.rs` at the workspace root).
//!
//! A third piece, [`lint`], is a dependency-free line/token workspace
//! linter for the static rules the compiler cannot express: the telemetry
//! phase vocabulary stays closed (span phases via `span`/`duration`,
//! instant phases via `instant`), job glue and PNA state changes stay in
//! their home modules, and no library `pub fn` is named only inside its
//! own crate. Clippy enforces the rest under `-D warnings`: no raw lock
//! types outside this crate (`clippy.toml`), no `unwrap()` / `expect()`
//! in the live hot paths, and no `unsafe` without a `// SAFETY:` comment
//! outside its two homes. Run the lint (and the explorer) via the `oddci
//! check` CLI subcommand.

pub mod explore;
pub mod lint;
pub mod order;
pub mod scenarios;
pub mod sync;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state so the first query can fold the environment in exactly once:
/// 0 = undecided, 1 = off, 2 = on.
static CHECKING: AtomicU8 = AtomicU8::new(0);

/// True when dynamic checking (lock-order graph, send-while-locked
/// checks) is active. First call consults the `ODDCI_CHECK` environment
/// variable; [`enable`] / [`disable`] override it programmatically.
pub fn enabled() -> bool {
    match CHECKING.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("ODDCI_CHECK").is_ok_and(|v| v == "1" || v == "true");
            CHECKING.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Turn dynamic checking on for this process (tests call this in their
/// first line; production binaries leave it off).
pub fn enable() {
    CHECKING.store(2, Ordering::Relaxed);
}

/// Turn dynamic checking off.
pub fn disable() {
    CHECKING.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_disable_round_trip() {
        super::enable();
        assert!(super::enabled());
        super::disable();
        assert!(!super::enabled());
    }
}
