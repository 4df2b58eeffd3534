//! The job ledger: the §3.2 glue between the Provider, the Backend and
//! the Controller's instances, written once for the simulator and the
//! live runtime. It is sans-I/O: every call takes `now`, and the caller
//! acts on what it returns. The simulated [`world`](crate::world) turns
//! that into scheduled events; the live headend holds the ledger behind
//! its hub lock.

use crate::backend::{Backend, BackendState};
use crate::controller::InstanceRequest;
use crate::messages::NodeRequirements;
use crate::provider::{Provider, ProviderRequest, ProviderState};
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{InstanceId, JobId, NodeId, OddciError, Result, SimTime, TaskId};
use oddci_workload::{Job, Task};
use std::collections::BTreeMap;

/// A [`JobLedger`]'s tables, as a durability snapshot carries them.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// The Backend's task ledgers.
    pub backend: BackendState,
    /// The Provider's request table.
    pub provider: ProviderState,
    /// Instance → job routing.
    pub instance_job: Vec<(InstanceId, JobId)>,
    /// Wakeup broadcasts aired per instance.
    pub wakeups: Vec<(InstanceId, u32)>,
}

/// The Backend, the Provider, the job each instance runs and the wakeups
/// each instance aired.
pub struct JobLedger {
    backend: Backend,
    provider: Provider,
    /// Instances are numbered 0, 1, 2, … and never forgotten.
    instance_job: BTreeMap<InstanceId, JobId>,
    wakeups: BTreeMap<InstanceId, u32>,
    /// Where each finished job's `JobRun` span goes.
    tele: Telemetry,
}

impl JobLedger {
    /// An empty ledger recording on `tele`.
    pub fn new(tele: Telemetry) -> JobLedger {
        JobLedger {
            backend: Backend::new(),
            provider: Provider::new(),
            instance_job: BTreeMap::new(),
            wakeups: BTreeMap::new(),
            tele,
        }
    }

    /// The Backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The Provider.
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// Every instance with the job it runs, in instance order.
    pub fn instances(&self) -> impl Iterator<Item = (InstanceId, JobId)> + '_ {
        self.instance_job.iter().map(|(&i, &j)| (i, j))
    }

    /// The job `instance` runs.
    pub(crate) fn job_of(&self, instance: InstanceId) -> Option<JobId> {
        self.instance_job.get(&instance).copied()
    }

    /// The instance running `job`.
    pub fn instance_of(&self, job: JobId) -> Option<InstanceId> {
        self.provider
            .instance_of(self.provider.request_for_job(job)?)
    }

    /// The first job id past every registered job.
    pub fn next_job(&self) -> u64 {
        self.instance_job.values().max().map_or(0, |j| j.raw() + 1)
    }

    /// Registers `job` (a registered id is refused), numbers its instance
    /// and opens its request for `target` nodes that meet `requirements`.
    /// Returns the instance with the request to admit it under, and the
    /// Provider request.
    pub fn submit(
        &mut self,
        job: Job,
        target: u64,
        requirements: NodeRequirements,
        now: SimTime,
    ) -> Result<(InstanceId, InstanceRequest, ProviderRequest)> {
        let (id, image, image_size) = (job.id, job.image, job.image_size);
        if self.backend.job(id).is_some() {
            return Err(OddciError::DuplicateJob(id));
        }
        let next = self.instance_job.keys().next_back().map(|i| i.raw() + 1);
        let instance = InstanceId::new(next.unwrap_or(0));
        self.backend.register_job(job, now);
        self.instance_job.insert(instance, id);
        let request = self.provider.open_request(id, instance, target, now);
        let admit = InstanceRequest {
            image,
            image_size,
            target,
            requirements,
        };
        Ok((instance, admit, request))
    }

    /// Up to `max` tasks of `instance`'s job for `node`, with the job;
    /// `None` when the instance runs no job or its queue is dry.
    pub fn fetch(
        &mut self,
        instance: InstanceId,
        node: NodeId,
        max: usize,
    ) -> Option<(JobId, Vec<Task>)> {
        let job = self.job_of(instance)?;
        let batch = self.backend.fetch_batch(job, node, max).ok()?;
        (!batch.is_empty()).then_some((job, batch))
    }

    /// Lands `node`'s result for `task`, or `Err` when the Backend refuses
    /// it. The call that completes the job closes its request with
    /// (completed, requeues, wakeups), records the `JobRun` span and
    /// returns the instance to dismantle; any other call returns `None`.
    pub fn complete(
        &mut self,
        job: JobId,
        task: TaskId,
        node: NodeId,
        now: SimTime,
    ) -> Result<Option<InstanceId>> {
        if !self.backend.complete_task(job, task, node, now)? {
            return Ok(None);
        }
        let Some(req) = self.provider.request_for_job(job) else {
            return Ok(None);
        };
        let instance = self.provider.instance_of(req);
        let aired = instance.and_then(|i| self.wakeups.get(&i));
        let wakeups = aired.copied().unwrap_or(0);
        let b = &self.backend;
        let (done, requeues) = (b.completed_count(job), b.requeue_count(job));
        let dismantle = self.provider.complete(req, now, done, requeues, wakeups);
        if let (Some(_), Some(begin)) = (dismantle, self.provider.submitted_at(req)) {
            let (begin, end) = (begin.as_micros(), now.as_micros());
            self.tele
                .span(begin, end, Phase::JobRun, CONTROL_TRACK, job.raw());
        }
        Ok(dismantle)
    }

    /// A wakeup for `instance` went on air.
    pub fn aired(&mut self, instance: InstanceId) {
        *self.wakeups.entry(instance).or_insert(0) += 1;
    }

    /// The Controller declared `node` lost: its tasks are re-queued.
    /// Returns the jobs whose queues refilled.
    pub fn node_lost(&mut self, node: NodeId) -> Vec<JobId> {
        self.backend.node_lost(node)
    }

    /// Exports every table for a snapshot taken at `now`.
    pub fn export_state(&self, now: SimTime) -> LedgerState {
        LedgerState {
            backend: self.backend.export_state(now),
            provider: self.provider.export_state(now),
            instance_job: self.instances().collect(),
            wakeups: self.wakeups.iter().map(|(&i, &w)| (i, w)).collect(),
        }
    }

    /// Replaces every table from `state`, rebasing its ages onto `now`;
    /// new instances are numbered past the imported ones. A state whose
    /// Backend queues or assigns a task outside its job is refused, by
    /// table, and changes nothing.
    pub fn import_state(
        &mut self,
        state: LedgerState,
        now: SimTime,
    ) -> std::result::Result<(), String> {
        for export in &state.backend.jobs {
            let (id, tasks) = (export.job.id, export.job.tasks.len());
            let assigned = export.assigned.iter().map(|(task, _)| task);
            let mut held = export.pending.iter().chain(assigned);
            if let Some(task) = held.find(|t| t.index() >= tasks) {
                return Err(format!(
                    "snapshot backend: {id} holds {task} past its {tasks} tasks"
                ));
            }
        }
        self.backend.import_state(state.backend, now);
        self.provider.import_state(state.provider, now);
        self.instance_job = state.instance_job.into_iter().collect();
        self.wakeups = state.wakeups.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{DataSize, ImageId, SimDuration};

    fn job(id: u64, tasks: u64) -> Job {
        let tasks = (0..tasks)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(16),
                    SimDuration::from_secs(1),
                    DataSize::from_bytes(8),
                )
            })
            .collect();
        Job::new(
            JobId::new(id),
            ImageId::new(id),
            DataSize::from_bytes(1),
            tasks,
        )
    }

    #[test]
    fn submit_numbers_instances_and_refuses_a_duplicate_job() {
        let mut ledger = JobLedger::new(Telemetry::disabled());
        let (a, _, _) = ledger
            .submit(job(4, 1), 2, Default::default(), SimTime::ZERO)
            .unwrap();
        let (b, _, _) = ledger
            .submit(job(9, 1), 2, Default::default(), SimTime::ZERO)
            .unwrap();
        assert_eq!((a.raw(), b.raw()), (0, 1));
        assert!(ledger
            .submit(job(4, 3), 2, Default::default(), SimTime::ZERO)
            .is_err());
        assert_eq!(ledger.backend().job(JobId::new(4)).unwrap().tasks.len(), 1);
        assert_eq!(ledger.next_job(), 10);
        assert_eq!(ledger.instance_of(JobId::new(9)), Some(b));
    }

    /// The last result dismantles once and reports what the ledger
    /// counted; a late duplicate changes nothing.
    #[test]
    fn the_last_result_dismantles_exactly_once() {
        let mut ledger = JobLedger::new(Telemetry::recording());
        let (inst, _, req) = ledger
            .submit(job(0, 2), 1, Default::default(), SimTime::ZERO)
            .unwrap();
        ledger.aired(inst);
        ledger.aired(inst);
        let node = NodeId::new(5);
        let (j, tasks) = ledger.fetch(inst, node, 8).unwrap();
        assert_eq!((j, tasks.len()), (JobId::new(0), 2));
        assert!(
            ledger.fetch(inst, NodeId::new(6), 8).is_none(),
            "a dry queue"
        );
        let at = SimTime::from_secs(7);
        assert_eq!(ledger.complete(j, TaskId::new(0), node, at), Ok(None));
        assert_eq!(ledger.complete(j, TaskId::new(1), node, at), Ok(Some(inst)));
        assert_eq!(ledger.complete(j, TaskId::new(1), node, at), Ok(None));
        let report = ledger.provider().report(req).unwrap();
        assert_eq!(
            (
                report.tasks_completed,
                report.requeues,
                report.wakeup_broadcasts
            ),
            (2, 0, 2)
        );
        assert_eq!(ledger.tele.phase_events(Phase::JobRun), 1);
        assert_eq!(ledger.backend().unaccounted_tasks(JobId::new(0)), 0);
    }

    #[test]
    fn import_round_trips_and_numbers_past_the_imported_instances() {
        let mut ledger = JobLedger::new(Telemetry::disabled());
        let (inst, _, _) = ledger
            .submit(job(3, 4), 2, Default::default(), SimTime::ZERO)
            .unwrap();
        ledger.aired(inst);
        ledger.fetch(inst, NodeId::new(1), 2);
        let now = SimTime::from_secs(1);
        let state = ledger.export_state(now);

        let mut adopted = JobLedger::new(Telemetry::disabled());
        adopted.import_state(state.clone(), now).unwrap();
        assert_eq!(adopted.export_state(now), state);
        let (next, _, _) = adopted
            .submit(job(4, 1), 1, Default::default(), now)
            .unwrap();
        assert_eq!(next.raw(), inst.raw() + 1);
    }

    #[test]
    fn import_refuses_a_task_outside_its_job() {
        let mut ledger = JobLedger::new(Telemetry::disabled());
        ledger
            .submit(job(0, 2), 1, Default::default(), SimTime::ZERO)
            .unwrap();
        let state = ledger.export_state(SimTime::ZERO);

        let mut past_end = state.clone();
        past_end.backend.jobs[0].pending.push(TaskId::new(2));
        let mut assigned = state.clone();
        assigned.backend.jobs[0]
            .assigned
            .push((TaskId::new(9), NodeId::new(1)));
        for bad in [past_end, assigned] {
            let mut adopted = JobLedger::new(Telemetry::disabled());
            let err = adopted.import_state(bad, SimTime::ZERO).unwrap_err();
            assert!(err.contains("backend"), "{err}");
            assert_eq!(adopted.instances().count(), 0, "left as it was");
        }
    }
}
