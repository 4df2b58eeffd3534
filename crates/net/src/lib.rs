#![forbid(unsafe_code)]

//! The direct channels: individual full-duplex point-to-point links between
//! each processing node and the Controller / Backend (§3.1, Figure 1).
//!
//! In the paper's model every set-top box has an ADSL-class uplink of
//! capacity δ (150 Kbps is the stated lower bound). Tasks, results and
//! heartbeats all ride these links; the broadcast channel is only used for
//! control messages and image distribution.
//!
//! * [`link`] — one node's link: serial use, propagation latency, loss with
//!   retransmission.
//! * [`server`] — the shared *receiving* side (Controller or Backend): an
//!   M/D/1-style capacity model that turns aggregate message rates into
//!   utilization and queueing delay, used to study when heartbeats would
//!   crush the Controller (§3.2's footnote 3, our experiment X2).
//!
//! # Example
//!
//! ```
//! use oddci_net::ServerCapacity;
//! use oddci_types::{Bandwidth, SimDuration};
//!
//! // A Controller that consolidates 10 000 msgs/s on a 100 Mbps ingress.
//! let server = ServerCapacity::new(10_000.0, Bandwidth::from_mbps(100.0));
//!
//! // 60 000 nodes heartbeating every 15 s arrive at 4 000 msgs/s:
//! let rate = ServerCapacity::arrival_rate(60_000, SimDuration::from_secs(15));
//! assert!(server.utilization(rate) < 1.0);
//! assert!(server.mean_response_time(rate).is_some());
//! ```

pub mod link;
pub mod server;

pub use link::DirectLink;
pub use server::ServerCapacity;
