#![forbid(unsafe_code)]
// A panic on a live thread kills it silently, and the shutdown
// accounting then has to explain the loss: propagate errors instead.
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! The live OddCI runtime: real threads, real channels, real computation.
//!
//! This is the reproduction's analog of the paper's §4.4 proof-of-concept
//! prototype (a Java Provider/Controller plus a PNA Xlet running in the
//! XletView/OpenGinga emulators). Every receiver is an OS thread hosting
//! the **same [`Pna`](oddci_core::Pna) state machine the simulator uses**;
//! the broadcast channel is an in-process fan-out [`bus`]; heartbeats,
//! probability-gated wakeups, instance trimming, dismantle — the whole
//! §3.2 protocol — run for real, and the "application image" is a genuine
//! sequence-alignment workload executed with
//! [`oddci_workload::alignment`].
//!
//! # Example
//!
//! ```
//! use oddci_live::{LiveConfig, LiveOddci};
//! use std::time::Duration;
//!
//! let live = LiveOddci::start(LiveConfig { nodes: 4, ..Default::default() });
//! let spec = oddci_live::AlignmentImage::small_demo();
//! let outcome = live
//!     .run_alignment_job(spec, 8 /* queries */, 3 /* instance size */,
//!                        Duration::from_secs(30))
//!     .expect("job completes");
//! assert_eq!(outcome.scores.len(), 8);
//! live.shutdown();
//! ```

pub mod bus;
pub mod headend;
pub mod image;
pub mod runtime;
pub mod snapshot;
pub mod wire;

pub use bus::BroadcastBus;
pub use image::{AlignmentImage, LiveBroadcast};
pub use runtime::{HeadendMode, JobOutcome, LiveConfig, LiveOddci, ShutdownReport};
pub use snapshot::{SnapshotError, SnapshotState, SNAPSHOT_FILE};
pub use wire::{run_wire_pna, WirePnaConfig, WirePnaReport};
