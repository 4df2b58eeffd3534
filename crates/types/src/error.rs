//! Error types shared across the workspace.

use crate::ids::{InstanceId, JobId, NodeId, TaskId};
use std::fmt;

/// Convenience alias used by all OddCI crates.
pub type Result<T> = std::result::Result<T, OddciError>;

/// Every failure mode surfaced by the OddCI stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OddciError {
    /// A control message failed signature verification (§3.2: PNAs only
    /// accept messages broadcast by their associated Controller).
    BadSignature {
        /// Human-readable description of the verification context.
        context: String,
    },
    /// The referenced OddCI instance does not exist (or was dismantled).
    UnknownInstance(InstanceId),
    /// The referenced node is not registered with the Controller.
    UnknownNode(NodeId),
    /// The referenced job was never submitted or already completed.
    UnknownJob(JobId),
    /// A job was submitted under an id already in use.
    DuplicateJob(JobId),
    /// The referenced task does not belong to the job.
    UnknownTask {
        /// Job the lookup was scoped to.
        job: JobId,
        /// The missing task.
        task: TaskId,
    },
    /// An instance request cannot be satisfied by the available pool.
    InsufficientCapacity {
        /// Nodes requested by the Provider.
        requested: u64,
        /// Idle nodes the Controller estimates are reachable.
        available: u64,
    },
    /// An operation was attempted in a state that does not allow it
    /// (e.g. starting an Xlet that was already destroyed).
    InvalidState {
        /// What was attempted.
        operation: &'static str,
        /// The state that forbade it.
        state: String,
    },
    /// A carousel, channel or configuration parameter is out of range.
    InvalidConfig(String),
    /// A communication endpoint has shut down (live runtime).
    ChannelClosed(&'static str),
    /// The simulation was asked to run past its configured horizon.
    HorizonExceeded,
}

impl fmt::Display for OddciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OddciError::BadSignature { context } => {
                write!(
                    f,
                    "control message failed signature verification: {context}"
                )
            }
            OddciError::UnknownInstance(id) => write!(f, "unknown OddCI instance {id}"),
            OddciError::UnknownNode(id) => write!(f, "unknown processing node {id}"),
            OddciError::UnknownJob(id) => write!(f, "unknown job {id}"),
            OddciError::DuplicateJob(id) => write!(f, "job {id} was already submitted"),
            OddciError::UnknownTask { job, task } => {
                write!(f, "task {task} does not belong to job {job}")
            }
            OddciError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "instance request for {requested} nodes exceeds available pool of {available}"
            ),
            OddciError::InvalidState { operation, state } => {
                write!(f, "operation `{operation}` not allowed in state {state}")
            }
            OddciError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OddciError::ChannelClosed(what) => write!(f, "channel closed: {what}"),
            OddciError::HorizonExceeded => write!(f, "simulation horizon exceeded"),
        }
    }
}

impl std::error::Error for OddciError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = OddciError::InsufficientCapacity {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));

        let e = OddciError::UnknownTask {
            job: JobId::new(1),
            task: TaskId::new(9),
        };
        assert!(e.to_string().contains("task-000009"));
        assert!(e.to_string().contains("job-000001"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&OddciError::HorizonExceeded);
    }

    #[test]
    fn equality_for_test_assertions() {
        assert_eq!(
            OddciError::UnknownInstance(InstanceId::new(3)),
            OddciError::UnknownInstance(InstanceId::new(3))
        );
        assert_ne!(
            OddciError::UnknownInstance(InstanceId::new(3)),
            OddciError::UnknownInstance(InstanceId::new(4))
        );
    }
}
