#![forbid(unsafe_code)]

//! Closed-form performance models from §5 of the paper.
//!
//! * [`wakeup`] — the wakeup-process overhead `W = 1.5·I/β` (equation
//!   before (1)) with its best/worst envelope `[I/β, 2·I/β]`.
//! * [`makespan()`] — the job makespan model, equation (1):
//!   `M̄ = 1.5·I/β + (n/N)·((s̄+r̄)/δ + p̄)`.
//! * [`efficiency()`] — equation (2): `E = n·p̄ / (M̄·N)`, plus the sweep
//!   helpers that regenerate Figures 6 and 7.
//! * [`requirements`] — the qualitative requirement coverage of Table I as
//!   machine-checkable data, used by the Table 1 harness.
//!
//! Every formula here is cross-validated against the discrete-event
//! simulation in the `oddci-core` integration tests: the simulator contains
//! none of these expressions, so agreement is evidence both are right.
//!
//! # Example
//!
//! ```
//! use oddci_analytics::{wakeup_envelope, wakeup_mean};
//! use oddci_types::{Bandwidth, DataSize};
//!
//! // A 10 MB image on a 1 Mbps carousel: W = 1.5·I/β ≈ 125.8 s.
//! let image = DataSize::from_megabytes(10);
//! let beta = Bandwidth::from_mbps(1.0);
//! let mean = wakeup_mean(image, beta);
//! assert!((mean.as_secs_f64() - 125.8).abs() < 0.1);
//!
//! // The envelope brackets it: best = I/β, worst = 2·I/β.
//! let (best, _, worst) = wakeup_envelope(image, beta);
//! assert!(best < mean && mean < worst);
//! ```

pub mod efficiency;
pub mod makespan;
pub mod requirements;
pub mod wakeup;

pub use efficiency::{efficiency, efficiency_curve, EfficiencyPoint};
pub use makespan::{makespan, makespan_integer_rounds, InstanceParams};
pub use requirements::{Requirement, Technology, TABLE1};
pub use wakeup::{wakeup_envelope, wakeup_mean};
