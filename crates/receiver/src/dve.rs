//! The Device Virtualized Environment (DVE).
//!
//! §3.2: upon accepting a wakeup message, the PNA *"creates a DVE for
//! loading and executing the user's application present in the message"*.
//! The DVE is the isolation boundary between the resident PNA and the
//! transient user image: it owns the image, enforces a memory budget, and
//! can be destroyed at any moment (reset message, power-off) without
//! affecting the PNA itself.

use oddci_types::{DataSize, ImageId, InstanceId, OddciError, Result};
use serde::{Deserialize, Serialize};

/// Lifecycle of a DVE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DveState {
    /// Created, image not yet loaded (acquisition from the carousel is
    /// still in flight).
    Loading,
    /// Image loaded and executing.
    Running,
    /// Torn down; terminal.
    Destroyed,
}

/// A sandbox executing one application image on behalf of one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dve {
    /// Instance this DVE belongs to.
    pub instance: InstanceId,
    /// Image the DVE runs.
    pub image: ImageId,
    /// Size of the loaded image (counted against device memory).
    pub image_size: DataSize,
    state: DveState,
    /// Tasks completed inside this DVE (diagnostic).
    pub tasks_completed: u64,
}

impl Dve {
    /// Creates a DVE in the `Loading` state.
    pub fn create(instance: InstanceId, image: ImageId, image_size: DataSize) -> Self {
        Dve {
            instance,
            image,
            image_size,
            state: DveState::Loading,
            tasks_completed: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> DveState {
        self.state
    }

    /// Marks the image as fully acquired and starts execution.
    pub fn image_loaded(&mut self) -> Result<()> {
        match self.state {
            DveState::Loading => {
                self.state = DveState::Running;
                Ok(())
            }
            s => Err(OddciError::InvalidState {
                operation: "image_loaded",
                state: format!("{s:?}"),
            }),
        }
    }

    /// Records a completed task.
    pub fn task_done(&mut self) -> Result<()> {
        match self.state {
            DveState::Running => {
                self.tasks_completed += 1;
                Ok(())
            }
            s => Err(OddciError::InvalidState {
                operation: "task_done",
                state: format!("{s:?}"),
            }),
        }
    }

    /// Tears the DVE down (reset message, instance dismantle, power-off).
    /// Idempotent: destroying twice is allowed and does nothing the second
    /// time, because resets can race power-offs.
    pub fn destroy(&mut self) {
        self.state = DveState::Destroyed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dve() -> Dve {
        Dve::create(
            InstanceId::new(1),
            ImageId::new(9),
            DataSize::from_megabytes(10),
        )
    }

    #[test]
    fn lifecycle() {
        let mut d = dve();
        assert_eq!(d.state(), DveState::Loading);
        assert_ne!(d.state(), DveState::Running);
        d.image_loaded().unwrap();
        assert_eq!(d.state(), DveState::Running);
        d.task_done().unwrap();
        d.task_done().unwrap();
        assert_eq!(d.tasks_completed, 2);
        d.destroy();
        assert_eq!(d.state(), DveState::Destroyed);
    }

    #[test]
    fn cannot_load_twice() {
        let mut d = dve();
        d.image_loaded().unwrap();
        assert!(d.image_loaded().is_err());
    }

    #[test]
    fn cannot_work_before_load_or_after_destroy() {
        let mut d = dve();
        assert!(d.task_done().is_err());
        d.image_loaded().unwrap();
        d.destroy();
        assert!(d.task_done().is_err());
    }

    #[test]
    fn destroy_is_idempotent() {
        let mut d = dve();
        d.destroy();
        d.destroy();
        assert_eq!(d.state(), DveState::Destroyed);
    }

    #[test]
    fn destroy_while_loading_is_allowed() {
        let mut d = dve();
        d.destroy();
        assert!(
            d.image_loaded().is_err(),
            "cannot finish loading a destroyed DVE"
        );
    }
}
