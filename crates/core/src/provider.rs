//! The Provider (§3.1): the user-facing component that creates, manages
//! and destroys OddCI instances according to users' requests.
//!
//! Like the [`Controller`](crate::controller::Controller), the Provider is
//! pure bookkeeping over an abstract runtime: it records which job runs on
//! which instance, tracks request lifecycles, and decides *when* to
//! dismantle (when the Backend reports the job complete). The runtime
//! executes those decisions.

use oddci_types::{InstanceId, JobId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle to one user request ("run this job on an instance of size N").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProviderRequest(pub u64);

/// Lifecycle of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Instance requested, job running (OddCI starts work immediately:
    /// image + config travel together through the carousel).
    Running,
    /// Job finished; instance dismantle commanded.
    Complete,
}

/// Final report for a completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Instance that ran it.
    pub instance: InstanceId,
    /// Requested instance size `N`.
    pub target_nodes: u64,
    /// Submission → last-result makespan.
    pub makespan: SimDuration,
    /// Tasks completed (equals the job's `n` on success).
    pub tasks_completed: u64,
    /// Tasks re-queued due to node churn.
    pub requeues: u64,
    /// Wakeup broadcasts the Controller needed (1 = no recomposition).
    pub wakeup_broadcasts: u32,
}

#[derive(Debug, Clone)]
struct RequestRecord {
    job: JobId,
    instance: InstanceId,
    target: u64,
    submitted_at: SimTime,
    state: RequestState,
    report: Option<JobReport>,
}

/// Exported snapshot of one request record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestExport {
    /// Request handle.
    pub request: ProviderRequest,
    /// The job it drives.
    pub job: JobId,
    /// Instance serving it.
    pub instance: InstanceId,
    /// Requested instance size.
    pub target: u64,
    /// How long before the snapshot it was submitted.
    pub submitted_age: SimDuration,
    /// Lifecycle state.
    pub state: RequestState,
    /// Final report, if complete.
    pub report: Option<JobReport>,
}

/// Complete exported Provider state. `by_job` is derivable and rebuilt on
/// import.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderState {
    /// Every request record.
    pub requests: Vec<RequestExport>,
    /// Next request id to allocate.
    pub next: u64,
}

/// The Provider.
#[derive(Debug, Default)]
pub struct Provider {
    requests: BTreeMap<ProviderRequest, RequestRecord>,
    by_job: BTreeMap<JobId, ProviderRequest>,
    next: u64,
}

impl Provider {
    /// Creates an empty Provider.
    pub fn new() -> Self {
        Provider::default()
    }

    /// Records a new request binding `job` to `instance`.
    pub fn open_request(
        &mut self,
        job: JobId,
        instance: InstanceId,
        target: u64,
        now: SimTime,
    ) -> ProviderRequest {
        let id = ProviderRequest(self.next);
        self.next += 1;
        self.requests.insert(
            id,
            RequestRecord {
                job,
                instance,
                target,
                submitted_at: now,
                state: RequestState::Running,
                report: None,
            },
        );
        self.by_job.insert(job, id);
        id
    }

    /// The request driving `job`, if any.
    pub fn request_for_job(&self, job: JobId) -> Option<ProviderRequest> {
        self.by_job.get(&job).copied()
    }

    /// The instance serving a request.
    pub fn instance_of(&self, req: ProviderRequest) -> Option<InstanceId> {
        self.requests.get(&req).map(|r| r.instance)
    }

    /// Current state of a request.
    pub fn state(&self, req: ProviderRequest) -> Option<RequestState> {
        self.requests.get(&req).map(|r| r.state)
    }

    /// Submission time of a request.
    pub(crate) fn submitted_at(&self, req: ProviderRequest) -> Option<SimTime> {
        self.requests.get(&req).map(|r| r.submitted_at)
    }

    /// Marks the request complete with its final metrics; returns the
    /// instance to dismantle.
    ///
    /// Returns `None` (and changes nothing) if the request is unknown or
    /// already complete — completion signals can race churn re-deliveries.
    pub fn complete(
        &mut self,
        req: ProviderRequest,
        now: SimTime,
        tasks_completed: u64,
        requeues: u64,
        wakeup_broadcasts: u32,
    ) -> Option<InstanceId> {
        let rec = self.requests.get_mut(&req)?;
        if rec.state == RequestState::Complete {
            return None;
        }
        rec.state = RequestState::Complete;
        rec.report = Some(JobReport {
            job: rec.job,
            instance: rec.instance,
            target_nodes: rec.target,
            makespan: now - rec.submitted_at,
            tasks_completed,
            requeues,
            wakeup_broadcasts,
        });
        Some(rec.instance)
    }

    /// The final report, once complete.
    pub fn report(&self, req: ProviderRequest) -> Option<JobReport> {
        self.requests.get(&req).and_then(|r| r.report)
    }

    /// Requests still running.
    pub fn running(&self) -> impl Iterator<Item = ProviderRequest> + '_ {
        self.requests
            .iter()
            .filter(|(_, r)| r.state == RequestState::Running)
            .map(|(&id, _)| id)
    }

    /// Exports every request record for a snapshot taken at `now`.
    pub fn export_state(&self, now: SimTime) -> ProviderState {
        ProviderState {
            requests: self
                .requests
                .iter()
                .map(|(&id, r)| RequestExport {
                    request: id,
                    job: r.job,
                    instance: r.instance,
                    target: r.target,
                    submitted_age: now.since(r.submitted_at),
                    state: r.state,
                    report: r.report,
                })
                .collect(),
            next: self.next,
        }
    }

    /// Replaces all state from an exported snapshot, rebasing submission
    /// timestamps onto `now` (the adopting headend's clock).
    pub fn import_state(&mut self, state: ProviderState, now: SimTime) {
        self.requests = state
            .requests
            .iter()
            .map(|e| {
                (
                    e.request,
                    RequestRecord {
                        job: e.job,
                        instance: e.instance,
                        target: e.target,
                        submitted_at: now.saturating_sub(e.submitted_age),
                        state: e.state,
                        report: e.report,
                    },
                )
            })
            .collect();
        self.by_job = state.requests.iter().map(|e| (e.job, e.request)).collect();
        self.next = state.next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_complete_report_cycle() {
        let mut p = Provider::new();
        let req = p.open_request(
            JobId::new(1),
            InstanceId::new(5),
            100,
            SimTime::from_secs(10),
        );
        assert_eq!(p.state(req), Some(RequestState::Running));
        assert_eq!(p.instance_of(req), Some(InstanceId::new(5)));
        assert_eq!(p.request_for_job(JobId::new(1)), Some(req));
        assert_eq!(p.report(req), None);

        let inst = p.complete(req, SimTime::from_secs(510), 1000, 3, 2);
        assert_eq!(inst, Some(InstanceId::new(5)));
        let report = p.report(req).unwrap();
        assert_eq!(report.makespan, SimDuration::from_secs(500));
        assert_eq!(report.tasks_completed, 1000);
        assert_eq!(report.requeues, 3);
        assert_eq!(report.wakeup_broadcasts, 2);
    }

    #[test]
    fn double_completion_is_ignored() {
        let mut p = Provider::new();
        let req = p.open_request(JobId::new(1), InstanceId::new(1), 10, SimTime::ZERO);
        assert!(p.complete(req, SimTime::from_secs(1), 10, 0, 1).is_some());
        assert!(p.complete(req, SimTime::from_secs(2), 10, 0, 1).is_none());
        // Report keeps the first completion's makespan.
        assert_eq!(p.report(req).unwrap().makespan, SimDuration::from_secs(1));
    }

    #[test]
    fn unknown_request_is_none() {
        let mut p = Provider::new();
        assert!(p
            .complete(ProviderRequest(9), SimTime::ZERO, 0, 0, 0)
            .is_none());
        assert_eq!(p.state(ProviderRequest(9)), None);
    }

    #[test]
    fn running_iterator_tracks_lifecycle() {
        let mut p = Provider::new();
        let a = p.open_request(JobId::new(1), InstanceId::new(1), 10, SimTime::ZERO);
        let b = p.open_request(JobId::new(2), InstanceId::new(2), 10, SimTime::ZERO);
        let running: Vec<_> = p.running().collect();
        assert_eq!(running.len(), 2);
        p.complete(a, SimTime::from_secs(1), 10, 0, 1);
        let running: Vec<_> = p.running().collect();
        assert_eq!(running, vec![b]);
    }

    #[test]
    fn export_import_round_trips_requests() {
        let mut p = Provider::new();
        let a = p.open_request(JobId::new(1), InstanceId::new(1), 10, SimTime::from_secs(1));
        let b = p.open_request(JobId::new(2), InstanceId::new(2), 20, SimTime::from_secs(2));
        p.complete(a, SimTime::from_secs(5), 10, 0, 1);
        let now = SimTime::from_secs(6);
        let state = p.export_state(now);

        let mut adopted = Provider::new();
        adopted.import_state(state.clone(), now);
        assert_eq!(adopted.export_state(now), state);
        assert_eq!(adopted.running().collect::<Vec<_>>(), vec![b]);
        assert_eq!(adopted.report(a), p.report(a));
        assert_eq!(adopted.request_for_job(JobId::new(2)), Some(b));
        // The open request completes normally on the standby...
        assert_eq!(
            adopted.complete(b, SimTime::from_secs(9), 20, 1, 1),
            Some(InstanceId::new(2))
        );
        // ...and fresh ids continue past the imported namespace.
        let c = adopted.open_request(JobId::new(3), InstanceId::new(3), 5, SimTime::from_secs(9));
        assert!(c > b);
    }

    #[test]
    fn request_ids_are_unique() {
        let mut p = Provider::new();
        let a = p.open_request(JobId::new(1), InstanceId::new(1), 1, SimTime::ZERO);
        let b = p.open_request(JobId::new(2), InstanceId::new(2), 1, SimTime::ZERO);
        assert_ne!(a, b);
    }
}
