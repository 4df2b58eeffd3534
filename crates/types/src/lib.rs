#![forbid(unsafe_code)]

//! Common vocabulary types for the OddCI reproduction.
//!
//! Every other crate in the workspace builds on the identifiers, physical
//! units and error types defined here. The units are deliberately strongly
//! typed: the OddCI paper's analytical model (§5) mixes bits, bits-per-second
//! and seconds, and unit confusion is the classic way such reproductions go
//! wrong. [`DataSize`] / [`Bandwidth`] / [`SimTime`] arithmetic encodes the
//! dimensional analysis in the type system.
//!
//! # Example
//!
//! ```
//! use oddci_types::{Bandwidth, DataSize};
//!
//! // The paper's wakeup analysis: one full carousel cycle of an 8 MB image
//! // over a 1 Mbps broadcast channel.
//! let image = DataSize::from_megabytes(8);
//! let beta = Bandwidth::from_mbps(1.0);
//! let one_cycle = image.transfer_time(beta);
//! assert!((one_cycle.as_secs_f64() - 67.108864).abs() < 1e-6);
//! ```

pub mod config;
pub mod error;
pub mod ids;
pub mod prob;
pub mod time;
pub mod units;
pub mod varint;

pub use config::{DirectChannelConfig, DtvSystemConfig, HeartbeatConfig};
pub use error::{OddciError, Result};
pub use ids::{
    ChannelId, ControllerId, ImageId, InstanceId, JobId, MessageId, NodeId, ProviderId, TaskId,
};
pub use prob::Probability;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, DataSize};
