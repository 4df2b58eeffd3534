//! The Backend (§3.1): application-specific management — task scheduling,
//! input provision, result collection.
//!
//! The paper assumes a suitably provisioned Backend whose result
//! post-processing time is negligible; ours is a pull-model bag-of-tasks
//! scheduler. Nodes request work over their direct channels; the Backend
//! hands out pending tasks, tracks assignments, and re-queues the tasks of
//! nodes the Controller declares lost.

use oddci_types::{JobId, NodeId, OddciError, Result, SimDuration, SimTime, TaskId};
use oddci_workload::{Job, Task};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The completed-task ledger of one job: a flag per task, indexed by
/// [`TaskId::index`] (a job's task ids are `0..tasks.len()`), and how
/// many flags are set. It grows with the job, so it is a vector and not
/// a tree: a completion is one store, not a B-tree insert.
#[derive(Debug)]
struct Completed {
    done: Vec<bool>,
    count: usize,
}

impl Completed {
    fn new(tasks: usize) -> Completed {
        Completed {
            done: vec![false; tasks],
            count: 0,
        }
    }

    /// `ids` marked done in a ledger of `tasks` flags. An id outside the
    /// job names no task, so it is dropped.
    fn from_ids(tasks: usize, ids: impl IntoIterator<Item = TaskId>) -> Completed {
        let mut completed = Completed::new(tasks);
        for task in ids {
            completed.insert(task);
        }
        completed
    }

    fn contains(&self, task: TaskId) -> bool {
        self.done.get(task.index()).copied().unwrap_or(false)
    }

    /// Marks `task` done; a repeat or an id outside the job changes
    /// nothing.
    fn insert(&mut self, task: TaskId) {
        if let Some(flag) = self.done.get_mut(task.index()) {
            self.count += usize::from(!*flag);
            *flag = true;
        }
    }

    fn len(&self) -> usize {
        self.count
    }

    /// Completed ids in ascending order (the snapshot's order).
    fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0u64..)
            .zip(&self.done)
            .filter(|(_, &done)| done)
            .map(|(i, _)| TaskId::new(i))
    }
}

#[derive(Debug)]
struct JobState {
    job: Job,
    pending: VecDeque<TaskId>,
    assigned: BTreeMap<TaskId, NodeId>,
    node_task: BTreeMap<NodeId, BTreeSet<TaskId>>,
    completed: Completed,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    /// Tasks re-queued after node loss (accounting).
    requeues: u64,
}

impl JobState {
    /// Re-queues every task `node` still holds (front of the queue — they
    /// have waited longest). Returns how many open tasks went back.
    fn recycle_node(&mut self, node: NodeId) -> u64 {
        let Some(tasks) = self.node_task.remove(&node) else {
            return 0;
        };
        let mut recycled = 0;
        for task in tasks {
            self.assigned.remove(&task);
            if !self.completed.contains(task) {
                self.pending.push_front(task);
                self.requeues += 1;
                recycled += 1;
            }
        }
        recycled
    }
}

/// Exported snapshot of one job's scheduling ledger.
///
/// The full [`Job`] (task definitions included) travels in the snapshot so
/// a standby can keep cutting batches without re-submission. Assignment
/// order inside `pending` is preserved — re-queued tasks sit at the front
/// and must stay there across a failover. `node_task` is *not* exported:
/// it is derivable from `assigned` and rebuilt on import.
#[derive(Debug, Clone, PartialEq)]
pub struct JobExport {
    /// The job definition, tasks included.
    pub job: Job,
    /// Unassigned tasks in queue order.
    pub pending: Vec<TaskId>,
    /// In-flight assignments.
    pub assigned: Vec<(TaskId, NodeId)>,
    /// Completed tasks.
    pub completed: Vec<TaskId>,
    /// How long before the snapshot the job was submitted.
    pub submitted_age: SimDuration,
    /// How long before the snapshot it completed, if it did.
    pub completed_age: Option<SimDuration>,
    /// Tasks re-queued after node losses so far.
    pub requeues: u64,
}

/// Complete exported Backend state.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendState {
    /// Every registered job's ledger.
    pub jobs: Vec<JobExport>,
}

/// The Backend.
#[derive(Debug, Default)]
pub struct Backend {
    jobs: BTreeMap<JobId, JobState>,
}

impl Backend {
    /// Creates an empty Backend.
    pub fn new() -> Self {
        Backend::default()
    }

    /// Registers a job for scheduling, timestamping its submission.
    pub fn register_job(&mut self, job: Job, now: SimTime) {
        let pending = job.tasks.iter().map(|t| t.id).collect();
        self.jobs.insert(
            job.id,
            JobState {
                completed: Completed::new(job.tasks.len()),
                job,
                pending,
                assigned: BTreeMap::new(),
                node_task: BTreeMap::new(),
                submitted_at: now,
                completed_at: None,
                requeues: 0,
            },
        );
    }

    /// A node asks for up to `max` tasks of `job` in one round trip (the
    /// simulated nodes ask for one, live nodes for a batch). An empty vec
    /// means the job is drained.
    ///
    /// A fresh request from a node the Backend still believes busy means
    /// the node lost its previous assignment without the Controller
    /// noticing yet (it power-cycled within the heartbeat deadline): the
    /// stale tasks are re-queued first, exactly as if the loss had been
    /// reported.
    pub fn fetch_batch(&mut self, job: JobId, node: NodeId, max: usize) -> Result<Vec<Task>> {
        let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
        state.recycle_node(node);
        let mut batch = Vec::new();
        while batch.len() < max {
            let Some(task_id) = state.pending.pop_front() else {
                break;
            };
            state.assigned.insert(task_id, node);
            state.node_task.entry(node).or_default().insert(task_id);
            batch.push(state.job.tasks[task_id.index()].clone());
        }
        Ok(batch)
    }

    /// A node uploads the result of `task`. Returns `true` when this was
    /// the job's last outstanding task.
    pub fn complete_task(
        &mut self,
        job: JobId,
        task: TaskId,
        node: NodeId,
        now: SimTime,
    ) -> Result<bool> {
        let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
        match state.assigned.get(&task) {
            Some(&assignee) if assignee == node => {}
            // Result from a node whose assignment was re-queued after a
            // loss declaration (it came back): accept the work anyway if
            // the task is still open, else drop the duplicate.
            _ => {
                if state.completed.contains(task) {
                    return Ok(state.completed_at.is_some());
                }
                if task.index() >= state.job.tasks.len() {
                    return Err(OddciError::UnknownTask { job, task });
                }
                state.pending.retain(|&t| t != task);
            }
        }
        state.assigned.remove(&task);
        if let Some(held) = state.node_task.get_mut(&node) {
            held.remove(&task);
            if held.is_empty() {
                state.node_task.remove(&node);
            }
        }
        state.completed.insert(task);
        if state.completed.len() == state.job.tasks.len() {
            state.completed_at = Some(now);
            return Ok(true);
        }
        Ok(false)
    }

    /// The Controller declared `node` lost: re-queue its in-flight tasks
    /// (front of the queue — they have waited longest). Returns the jobs
    /// whose queues were refilled.
    pub fn node_lost(&mut self, node: NodeId) -> Vec<JobId> {
        let mut affected = Vec::new();
        for (&job_id, state) in &mut self.jobs {
            if state.recycle_node(node) > 0 {
                affected.push(job_id);
            }
        }
        affected
    }

    /// True once every task of `job` completed.
    pub fn is_complete(&self, job: JobId) -> bool {
        self.jobs
            .get(&job)
            .is_some_and(|s| s.completed_at.is_some())
    }

    /// The job's makespan (completion − submission), once complete.
    pub fn makespan(&self, job: JobId) -> Option<SimDuration> {
        let s = self.jobs.get(&job)?;
        s.completed_at.map(|done| done - s.submitted_at)
    }

    /// Completed-task count.
    pub fn completed_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.completed.len() as u64)
    }

    /// Pending (unassigned) tasks summed over every open job: the
    /// Backend queue depth, without collecting [`open_jobs`](Self::open_jobs).
    pub fn pending_total(&self) -> u64 {
        self.jobs
            .values()
            .filter(|s| s.completed_at.is_none())
            .map(|s| s.pending.len() as u64)
            .sum()
    }

    /// Accounting check for shutdown barriers: how many of `job`'s tasks
    /// are in **no** ledger — neither pending, assigned to a node, nor
    /// completed. Any bookkeeping bug (a task orphaned by a lost node
    /// without a re-queue, a double pop) shows up here as a non-zero
    /// count; a healthy Backend always returns 0.
    pub fn unaccounted_tasks(&self, job: JobId) -> u64 {
        let Some(s) = self.jobs.get(&job) else {
            return 0;
        };
        let mut accounted = s.completed.done.clone();
        for task in s.pending.iter().chain(s.assigned.keys()) {
            if let Some(flag) = accounted.get_mut(task.index()) {
                *flag = true;
            }
        }
        accounted.iter().filter(|&&flag| !flag).count() as u64
    }

    /// Tasks re-queued after node losses.
    pub fn requeue_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.requeues)
    }

    /// Total re-queues across every registered job.
    pub(crate) fn total_requeues(&self) -> u64 {
        self.jobs.values().map(|s| s.requeues).sum()
    }

    /// Jobs that still have unfinished tasks (pending or assigned).
    pub fn open_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, s)| s.completed_at.is_none())
            .map(|(&id, _)| id)
            .collect()
    }

    /// The registered job, if any.
    pub fn job(&self, job: JobId) -> Option<&Job> {
        self.jobs.get(&job).map(|s| &s.job)
    }

    /// Exports every job's ledger for a snapshot taken at `now`.
    pub fn export_state(&self, now: SimTime) -> BackendState {
        BackendState {
            jobs: self
                .jobs
                .values()
                .map(|s| JobExport {
                    job: s.job.clone(),
                    pending: s.pending.iter().copied().collect(),
                    assigned: s.assigned.iter().map(|(&t, &n)| (t, n)).collect(),
                    completed: s.completed.iter().collect(),
                    submitted_age: now.since(s.submitted_at),
                    completed_age: s.completed_at.map(|t| now.since(t)),
                    requeues: s.requeues,
                })
                .collect(),
        }
    }

    /// Replaces all state from an exported snapshot, rebasing submission
    /// timestamps onto `now` (the adopting headend's clock).
    ///
    /// In-flight assignments survive verbatim: a node that finished its
    /// task during the failover window uploads to the standby and the
    /// result is accepted against the imported ledger; a node that died
    /// during the window is declared lost by the imported heartbeat ledger
    /// and its tasks re-queue here, so no task is ever unaccounted.
    pub fn import_state(&mut self, state: BackendState, now: SimTime) {
        self.jobs = state
            .jobs
            .into_iter()
            .map(|e| {
                let mut node_task: BTreeMap<NodeId, BTreeSet<TaskId>> = BTreeMap::new();
                for &(task, node) in &e.assigned {
                    node_task.entry(node).or_default().insert(task);
                }
                (
                    e.job.id,
                    JobState {
                        pending: e.pending.into_iter().collect(),
                        assigned: e.assigned.into_iter().collect(),
                        node_task,
                        completed: Completed::from_ids(e.job.tasks.len(), e.completed),
                        submitted_at: now.saturating_sub(e.submitted_age),
                        completed_at: e.completed_age.map(|age| now.saturating_sub(age)),
                        requeues: e.requeues,
                        job: e.job,
                    },
                )
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{DataSize, ImageId};

    /// One task of `job` for `node`; `None` once the queue is dry.
    fn fetch_one(b: &mut Backend, job: JobId, node: u64) -> Result<Option<Task>> {
        Ok(b.fetch_batch(job, NodeId::new(node), 1)?.pop())
    }

    /// `job`'s pending and in-flight task counts, read off its export.
    fn queued(b: &Backend, job: JobId) -> (usize, usize) {
        let state = b.export_state(SimTime::ZERO);
        let j = state
            .jobs
            .iter()
            .find(|e| e.job.id == job)
            .expect("registered");
        (j.pending.len(), j.assigned.len())
    }

    fn job(n: u64) -> Job {
        let tasks = (0..n)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(100),
                    SimDuration::from_secs(10),
                    DataSize::from_bytes(100),
                )
            })
            .collect();
        Job::new(
            JobId::new(1),
            ImageId::new(1),
            DataSize::from_megabytes(1),
            tasks,
        )
    }

    #[test]
    fn fetch_assigns_in_order_then_drains() {
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        let t0 = fetch_one(&mut b, j, 10).unwrap().unwrap();
        assert_eq!(t0.id, TaskId::new(0));
        let t1 = fetch_one(&mut b, j, 11).unwrap().unwrap();
        assert_eq!(t1.id, TaskId::new(1));
        assert_eq!(fetch_one(&mut b, j, 12).unwrap(), None);
    }

    #[test]
    fn completion_detects_last_task() {
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        fetch_one(&mut b, j, 10).unwrap();
        fetch_one(&mut b, j, 11).unwrap();
        assert!(!b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(5))
            .unwrap());
        assert!(!b.is_complete(j));
        assert!(b
            .complete_task(j, TaskId::new(1), NodeId::new(11), SimTime::from_secs(9))
            .unwrap());
        assert!(b.is_complete(j));
        assert_eq!(b.makespan(j), Some(SimDuration::from_secs(9)));
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn unknown_job_errors() {
        let mut b = Backend::new();
        assert!(matches!(
            fetch_one(&mut b, JobId::new(9), 1),
            Err(OddciError::UnknownJob(_))
        ));
    }

    #[test]
    fn node_loss_requeues_in_flight_task() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        fetch_one(&mut b, j, 10).unwrap();
        assert_eq!(queued(&b, j).0, 0);
        let affected = b.node_lost(NodeId::new(10));
        assert_eq!(affected, vec![j]);
        assert_eq!(queued(&b, j).0, 1);
        assert_eq!(b.requeue_count(j), 1);
        // Another node picks the re-queued task up and finishes the job.
        let t = fetch_one(&mut b, j, 11).unwrap().unwrap();
        assert_eq!(t.id, TaskId::new(0));
        assert!(b
            .complete_task(j, t.id, NodeId::new(11), SimTime::from_secs(60))
            .unwrap());
    }

    #[test]
    fn zombie_result_after_requeue_is_accepted_once() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        fetch_one(&mut b, j, 10).unwrap();
        b.node_lost(NodeId::new(10));
        // The "lost" node was only slow; its result arrives before the
        // task is re-assigned. It must count, and the queue must drain.
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(99))
            .unwrap());
        assert_eq!(queued(&b, j).0, 0);
        assert_eq!(fetch_one(&mut b, j, 11).unwrap(), None);
    }

    #[test]
    fn duplicate_result_is_idempotent() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        fetch_one(&mut b, j, 10).unwrap();
        b.node_lost(NodeId::new(10));
        fetch_one(&mut b, j, 11).unwrap();
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(11), SimTime::from_secs(50))
            .unwrap());
        // The zombie's duplicate upload changes nothing.
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(60))
            .unwrap());
        assert_eq!(b.completed_count(j), 1);
        assert_eq!(b.makespan(j), Some(SimDuration::from_secs(50)));
    }

    #[test]
    fn bogus_task_id_is_rejected() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        assert!(matches!(
            b.complete_task(j, TaskId::new(99), NodeId::new(1), SimTime::ZERO),
            Err(OddciError::UnknownTask { .. })
        ));
    }

    #[test]
    fn re_request_recycles_a_stale_assignment() {
        // A node power-cycles mid-task and asks again before the Controller
        // notices: its old task goes back to the queue and (being at the
        // front) is handed right back.
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        let first = fetch_one(&mut b, j, 10).unwrap().unwrap();
        let again = fetch_one(&mut b, j, 10).unwrap().unwrap();
        assert_eq!(first.id, again.id, "stale task re-queued at the front");
        assert_eq!(b.requeue_count(j), 1);
        // The job still completes exactly once per task.
        assert!(!b
            .complete_task(j, again.id, NodeId::new(10), SimTime::from_secs(1))
            .unwrap());
        let second = fetch_one(&mut b, j, 10).unwrap().unwrap();
        assert!(b
            .complete_task(j, second.id, NodeId::new(10), SimTime::from_secs(2))
            .unwrap());
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn fetch_batch_assigns_up_to_max() {
        let mut b = Backend::new();
        b.register_job(job(5), SimTime::ZERO);
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 3).unwrap();
        assert_eq!(
            batch.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)]
        );
        assert_eq!(queued(&b, j).1, 3);
        // The remainder is a short batch; a further fetch drains.
        assert_eq!(b.fetch_batch(j, NodeId::new(11), 3).unwrap().len(), 2);
        assert!(b.fetch_batch(j, NodeId::new(12), 3).unwrap().is_empty());
        assert_eq!(b.unaccounted_tasks(j), 0);
    }

    #[test]
    fn node_loss_requeues_a_whole_batch() {
        let mut b = Backend::new();
        b.register_job(job(4), SimTime::ZERO);
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 3).unwrap();
        // One result lands before the node dies.
        assert!(!b
            .complete_task(j, batch[0].id, NodeId::new(10), SimTime::from_secs(1))
            .unwrap());
        assert_eq!(b.node_lost(NodeId::new(10)), vec![j]);
        // The two unfinished tasks of the batch went back, the completed
        // one did not; nothing is orphaned.
        assert_eq!(queued(&b, j).0, 3);
        assert_eq!(b.requeue_count(j), 2);
        assert_eq!(b.unaccounted_tasks(j), 0);
        // Another node finishes the job.
        for t in b.fetch_batch(j, NodeId::new(11), 4).unwrap() {
            b.complete_task(j, t.id, NodeId::new(11), SimTime::from_secs(9))
                .unwrap();
        }
        assert!(b.is_complete(j));
    }

    #[test]
    fn batch_refetch_recycles_stale_assignments() {
        // A node holding a batch power-cycles and fetches afresh: its old
        // batch is re-queued first, so nothing is lost or duplicated.
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        let again = b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(b.requeue_count(j), 2);
        assert_eq!(b.unaccounted_tasks(j), 0);
        for t in again {
            b.complete_task(j, t.id, NodeId::new(10), SimTime::from_secs(2))
                .unwrap();
        }
        assert!(b.is_complete(j));
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn loss_of_idle_node_is_a_no_op() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        assert!(b.node_lost(NodeId::new(77)).is_empty());
    }

    #[test]
    fn makespan_absent_until_done() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::from_secs(100));
        assert_eq!(b.makespan(JobId::new(1)), None);
    }

    #[test]
    fn export_import_round_trips_ledger() {
        let mut b = Backend::new();
        b.register_job(job(4), SimTime::from_secs(1));
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        b.complete_task(j, batch[0].id, NodeId::new(10), SimTime::from_secs(2))
            .unwrap();
        b.node_lost(NodeId::new(10)); // re-queues batch[1] at the front
        fetch_one(&mut b, j, 11).unwrap();
        let now = SimTime::from_secs(3);
        let state = b.export_state(now);

        let mut adopted = Backend::new();
        adopted.import_state(state.clone(), now);
        assert_eq!(adopted.export_state(now), state);
        assert_eq!(adopted.completed_count(j), 1);
        assert_eq!(queued(&adopted, j).1, 1);
        assert_eq!(queued(&adopted, j).0, 2);
        assert_eq!(adopted.requeue_count(j), 1);
        assert_eq!(adopted.unaccounted_tasks(j), 0);

        // The adopted ledger keeps full semantics: the in-flight node's
        // upload is accepted, a loss re-queues, and the job completes with
        // every task accounted.
        adopted
            .complete_task(j, batch[1].id, NodeId::new(11), SimTime::from_secs(4))
            .unwrap();
        for t in adopted.fetch_batch(j, NodeId::new(12), 4).unwrap() {
            adopted
                .complete_task(j, t.id, NodeId::new(12), SimTime::from_secs(5))
                .unwrap();
        }
        assert!(adopted.is_complete(j));
        assert_eq!(adopted.unaccounted_tasks(j), 0);
    }

    #[test]
    fn import_rebases_submission_onto_new_clock() {
        let mut b = Backend::new();
        // Submitted at t=100s on the primary, snapshot at t=130s: age 30s.
        b.register_job(job(1), SimTime::from_secs(100));
        let state = b.export_state(SimTime::from_secs(130));

        // Standby clock reads 40s at adoption → submission rebased to 10s.
        let mut adopted = Backend::new();
        adopted.import_state(state, SimTime::from_secs(40));
        let j = JobId::new(1);
        let t = fetch_one(&mut adopted, j, 1).unwrap().unwrap();
        adopted
            .complete_task(j, t.id, NodeId::new(1), SimTime::from_secs(70))
            .unwrap();
        assert_eq!(adopted.makespan(j), Some(SimDuration::from_secs(60)));
    }

    #[test]
    fn pending_total_is_the_queue_depth() {
        let mut b = Backend::new();
        b.register_job(job(3), SimTime::ZERO);
        let j = JobId::new(1);
        assert_eq!(b.pending_total(), 3);
        assert_eq!(b.fetch_batch(j, NodeId::new(1), 2).unwrap().len(), 2);
        assert_eq!(b.pending_total(), 1);
        b.node_lost(NodeId::new(1));
        assert_eq!(b.pending_total(), 3);
        for t in b.fetch_batch(j, NodeId::new(2), 3).unwrap() {
            b.complete_task(j, t.id, NodeId::new(2), SimTime::ZERO)
                .unwrap();
        }
        assert!(b.is_complete(j));
        assert_eq!(b.pending_total(), 0);
    }

    /// The completed ledger as it was before it became a dense vector: a
    /// `BTreeSet`, with the Backend operations that read or write it.
    /// The oracle the dense ledger is checked against.
    mod reference {
        use super::*;

        struct RefJob {
            job: Job,
            pending: VecDeque<TaskId>,
            assigned: BTreeMap<TaskId, NodeId>,
            node_task: BTreeMap<NodeId, BTreeSet<TaskId>>,
            completed: BTreeSet<TaskId>,
            submitted_at: SimTime,
            completed_at: Option<SimTime>,
            requeues: u64,
        }

        impl RefJob {
            fn recycle_node(&mut self, node: NodeId) -> u64 {
                let Some(tasks) = self.node_task.remove(&node) else {
                    return 0;
                };
                let mut recycled = 0;
                for task in tasks {
                    self.assigned.remove(&task);
                    if !self.completed.contains(&task) {
                        self.pending.push_front(task);
                        self.requeues += 1;
                        recycled += 1;
                    }
                }
                recycled
            }
        }

        #[derive(Default)]
        pub(super) struct RefBackend {
            jobs: BTreeMap<JobId, RefJob>,
        }

        impl RefBackend {
            pub(super) fn register_job(&mut self, job: Job, now: SimTime) {
                let pending = job.tasks.iter().map(|t| t.id).collect();
                self.jobs.insert(
                    job.id,
                    RefJob {
                        job,
                        pending,
                        assigned: BTreeMap::new(),
                        node_task: BTreeMap::new(),
                        completed: BTreeSet::new(),
                        submitted_at: now,
                        completed_at: None,
                        requeues: 0,
                    },
                );
            }

            pub(super) fn fetch_batch(
                &mut self,
                job: JobId,
                node: NodeId,
                max: usize,
            ) -> Result<Vec<Task>> {
                let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
                state.recycle_node(node);
                let mut batch = Vec::new();
                while batch.len() < max {
                    let Some(task_id) = state.pending.pop_front() else {
                        break;
                    };
                    state.assigned.insert(task_id, node);
                    state.node_task.entry(node).or_default().insert(task_id);
                    batch.push(state.job.tasks[task_id.index()].clone());
                }
                Ok(batch)
            }

            pub(super) fn complete_task(
                &mut self,
                job: JobId,
                task: TaskId,
                node: NodeId,
                now: SimTime,
            ) -> Result<bool> {
                let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
                match state.assigned.get(&task) {
                    Some(&assignee) if assignee == node => {}
                    _ => {
                        if state.completed.contains(&task) {
                            return Ok(state.completed_at.is_some());
                        }
                        if task.index() >= state.job.tasks.len() {
                            return Err(OddciError::UnknownTask { job, task });
                        }
                        state.pending.retain(|&t| t != task);
                    }
                }
                state.assigned.remove(&task);
                if let Some(held) = state.node_task.get_mut(&node) {
                    held.remove(&task);
                    if held.is_empty() {
                        state.node_task.remove(&node);
                    }
                }
                state.completed.insert(task);
                if state.completed.len() == state.job.tasks.len() {
                    state.completed_at = Some(now);
                    return Ok(true);
                }
                Ok(false)
            }

            pub(super) fn node_lost(&mut self, node: NodeId) -> Vec<JobId> {
                let mut affected = Vec::new();
                for (&job_id, state) in &mut self.jobs {
                    if state.recycle_node(node) > 0 {
                        affected.push(job_id);
                    }
                }
                affected
            }

            pub(super) fn is_complete(&self, job: JobId) -> bool {
                self.jobs
                    .get(&job)
                    .is_some_and(|s| s.completed_at.is_some())
            }

            pub(super) fn completed_count(&self, job: JobId) -> u64 {
                self.jobs.get(&job).map_or(0, |s| s.completed.len() as u64)
            }

            pub(super) fn unaccounted_tasks(&self, job: JobId) -> u64 {
                let Some(s) = self.jobs.get(&job) else {
                    return 0;
                };
                let mut accounted: BTreeSet<TaskId> = s.completed.clone();
                accounted.extend(s.pending.iter().copied());
                accounted.extend(s.assigned.keys().copied());
                s.job.tasks.len() as u64 - accounted.len() as u64
            }

            pub(super) fn requeue_count(&self, job: JobId) -> u64 {
                self.jobs.get(&job).map_or(0, |s| s.requeues)
            }

            pub(super) fn export_state(&self, now: SimTime) -> BackendState {
                BackendState {
                    jobs: self
                        .jobs
                        .values()
                        .map(|s| JobExport {
                            job: s.job.clone(),
                            pending: s.pending.iter().copied().collect(),
                            assigned: s.assigned.iter().map(|(&t, &n)| (t, n)).collect(),
                            completed: s.completed.iter().copied().collect(),
                            submitted_age: now.since(s.submitted_at),
                            completed_age: s.completed_at.map(|t| now.since(t)),
                            requeues: s.requeues,
                        })
                        .collect(),
                }
            }

            pub(super) fn import_state(&mut self, state: BackendState, now: SimTime) {
                self.jobs = state
                    .jobs
                    .into_iter()
                    .map(|e| {
                        let mut node_task: BTreeMap<NodeId, BTreeSet<TaskId>> = BTreeMap::new();
                        for &(task, node) in &e.assigned {
                            node_task.entry(node).or_default().insert(task);
                        }
                        (
                            e.job.id,
                            RefJob {
                                pending: e.pending.into_iter().collect(),
                                assigned: e.assigned.into_iter().collect(),
                                node_task,
                                completed: e.completed.into_iter().collect(),
                                submitted_at: now.saturating_sub(e.submitted_age),
                                completed_at: e.completed_age.map(|age| now.saturating_sub(age)),
                                requeues: e.requeues,
                                job: e.job,
                            },
                        )
                    })
                    .collect();
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random fetches, results (fresh, duplicate, zombie after a
        /// requeue, bogus ids), node losses and snapshot round trips,
        /// applied to the dense ledger and to the `BTreeSet` oracle: every
        /// reply and every accounting read agrees at every step.
        #[test]
        fn dense_ledger_matches_the_btree_oracle(
            n in 1u64..24,
            ops in collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..120),
        ) {
            const NODES: u64 = 4;
            let j = JobId::new(1);
            let mut dense = Backend::new();
            let mut oracle = reference::RefBackend::default();
            dense.register_job(job(n), SimTime::ZERO);
            oracle.register_job(job(n), SimTime::ZERO);
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as u64 + 1);
                let node = NodeId::new(a % NODES);
                match op {
                    0 | 1 => {
                        let max = 1 + (b % 4) as usize;
                        prop_assert_eq!(
                            format!("{:?}", dense.fetch_batch(j, node, max)),
                            format!("{:?}", oracle.fetch_batch(j, node, max)),
                            "fetch_batch at step {}", step
                        );
                    }
                    2 | 3 => {
                        // Two past the end: some results name no task.
                        let task = TaskId::new(b % (n + 2));
                        prop_assert_eq!(
                            format!("{:?}", dense.complete_task(j, task, node, now)),
                            format!("{:?}", oracle.complete_task(j, task, node, now)),
                            "complete_task at step {}", step
                        );
                    }
                    4 => prop_assert_eq!(dense.node_lost(node), oracle.node_lost(node)),
                    _ => {
                        let cut = dense.export_state(now);
                        prop_assert_eq!(&cut, &oracle.export_state(now));
                        dense.import_state(cut.clone(), now);
                        oracle.import_state(cut, now);
                    }
                }
                prop_assert_eq!(dense.completed_count(j), oracle.completed_count(j));
                prop_assert_eq!(dense.is_complete(j), oracle.is_complete(j));
                prop_assert_eq!(dense.unaccounted_tasks(j), oracle.unaccounted_tasks(j));
                prop_assert_eq!(dense.requeue_count(j), oracle.requeue_count(j));
                prop_assert_eq!(dense.export_state(now), oracle.export_state(now));
            }
        }
    }
}
