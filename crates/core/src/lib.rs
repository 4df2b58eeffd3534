#![forbid(unsafe_code)]

//! The OddCI control plane — the paper's primary contribution (§3).
//!
//! Four components extend a standard broadcast network into an on-demand
//! distributed computing infrastructure:
//!
//! * the [`provider::Provider`] creates, manages and destroys
//!   OddCI instances on behalf of users;
//! * the [`controller::Controller`] formats and injects control
//!   messages (wakeup / reset, carrying the application image) into the
//!   broadcast channel, consolidates heartbeats, and keeps instances at
//!   their target size;
//! * the [`backend::Backend`] schedules tasks, serves inputs and
//!   collects results over the direct channels;
//! * the [`pna::Pna`] (Processing Node Agent) runs on every receiver,
//!   listens to the broadcast channel, probabilistically accepts wakeup
//!   messages, hosts the DVE executing the user image, and emits
//!   heartbeats.
//!
//! The [`world`] module assembles all of the above plus the substrates
//! (broadcast carousel, receivers, direct links, churn) into one
//! discrete-event simulation — the OddCI-DTV system of §4 at configurable
//! scale.
//!
//! # Example: a complete simulated OddCI-DTV run
//!
//! ```
//! use oddci_core::world::{World, WorldConfig};
//! use oddci_types::{DataSize, SimDuration};
//! use oddci_workload::JobGenerator;
//!
//! let mut cfg = WorldConfig::default();
//! cfg.nodes = 200;
//! let mut gen = JobGenerator::homogeneous(
//!     DataSize::from_megabytes(1),
//!     DataSize::from_bytes(500),
//!     DataSize::from_bytes(500),
//!     SimDuration::from_secs(30),
//!     7,
//! );
//! let job = gen.generate(400);
//!
//! let mut sim = World::simulation(cfg, 42);
//! let request = sim.submit_job(job, 100); // 100-node instance
//! let report = sim
//!     .run_request(request, oddci_types::SimTime::from_secs(24 * 3600))
//!     .expect("job ran");
//! assert_eq!(report.tasks_completed, 400);
//! ```

pub mod autoscale;
pub mod backend;
pub mod controller;
pub mod federation;
pub mod messages;
pub mod pna;
pub mod profiles;
pub mod provider;
pub mod world;

pub use autoscale::{AutoscaleExport, AutoscalePolicy, Reconciler, ScaleDecision, ScaleInputs};
pub use backend::{Backend, TaskOutcome};
pub use controller::{Controller, ControllerPolicy, InstanceRequest, InstanceStatus};
pub use federation::{FederatedReport, Federation};
pub use messages::{
    ControlMessage, Heartbeat, NodeRequirements, PnaStateKind, ResetMessage, SignedMessage,
    WakeupMessage,
};
pub use pna::{Pna, PnaAction, PnaState};
pub use profiles::BroadcastTechnology;
pub use provider::{JobReport, Provider, ProviderRequest};
pub use world::{ChurnConfig, OddciSim, World, WorldConfig, WorldEvent, WorldMetrics};
