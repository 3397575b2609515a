//! The job scheduler: bounded admission, a priority queue, and a
//! worker pool that caps how many runs are on the mesh at once.
//!
//! Admission control is explicit policy, not backpressure-by-hanging:
//! a submit against a full queue (or a draining server) is answered
//! *immediately* with a reason, so clients can retry elsewhere instead
//! of piling up. Each admitted job gets a monotonically increasing id
//! which doubles as its run namespace on the mesh (ids start at 1 —
//! run 0 is the anonymous legacy namespace and must never be handed to
//! a tenant). Workers pick the highest-priority queued job (FIFO
//! within a priority), run it through the injected runner, and record
//! the terminal state; the runner is a plain closure so the unit tests
//! schedule against a fake mesh.

use crate::journal::{Journal, JournalEntry};
use crate::metrics::ServeMetrics;
use crate::proto::{JobInfo, JobOutcome, JobSpec, JobState, RejectReason};
use navp_obs::{EventKind as ObsKind, Lane as ObsLane};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler sizing.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Most jobs admitted-but-not-running; further submits are
    /// rejected `QueueFull`.
    pub queue_cap: usize,
    /// Worker threads = most runs on the mesh at once.
    pub max_inflight: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            queue_cap: 64,
            max_inflight: 2,
        }
    }
}

/// How a run failed, as the runner reports it.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// `true` when the run exceeded its `timeout_ms` budget
    /// (recorded as [`JobState::TimedOut`], not `Failed`).
    pub timed_out: bool,
    /// Human-readable detail for `JobInfo::detail`.
    pub detail: String,
}

/// The run executor the scheduler drives: given a spec and the job id
/// (= run namespace), block until the run finishes. Production uses
/// [`crate::gemm::gemm_runner`]; tests inject fakes.
pub type RunnerFn = dyn Fn(&JobSpec, u64) -> Result<JobOutcome, JobFailure> + Send + Sync;

/// Called when a job reaches a terminal state, *outside* the scheduler
/// lock and before that state is published, with the finished id and
/// the set of still-live (queued or running) ids — the server's
/// checkpoint GC hook, which must never prune a live run's directory.
pub type FinishHook = dyn Fn(u64, &HashSet<u64>) + Send + Sync;

struct Job {
    spec: JobSpec,
    info: JobInfo,
    outcome: Option<JobOutcome>,
}

struct State {
    next_id: u64,
    /// Queued job ids; selection order is computed per pick.
    queue: Vec<u64>,
    jobs: HashMap<u64, Job>,
    /// Submission order, for `list`.
    order: Vec<u64>,
    draining: bool,
    stopping: bool,
    inflight: usize,
    /// Jobs whose run is over but whose terminal state is not published
    /// yet: their record is being journaled and the retention hook run.
    /// They are no longer live, and the scheduler is not idle.
    finishing: HashSet<u64>,
}

struct Inner {
    cfg: SchedConfig,
    state: Mutex<State>,
    cv: Condvar,
    epoch: Instant,
    metrics: Arc<ServeMetrics>,
    runner: Arc<RunnerFn>,
    on_finish: Option<Box<FinishHook>>,
    /// When set, every terminal transition is appended here, and the
    /// journal's restored entries seeded the job table at start.
    journal: Option<Mutex<Journal>>,
    /// Flight-recorder lane for scheduler decisions (`JobAdmit`,
    /// `JobStart`, `JobFinish`), keyed by run = job id.
    flight: Arc<ObsLane>,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Make `id` terminal (`Done` carries its outcome, the others a
    /// detail). The terminal record is journaled and the retention hook
    /// run *before* the state is published and waiters are notified, so
    /// whoever wakes on a terminal job finds it journaled and its
    /// completed run pruned. Both run outside the lock — a slow fsync
    /// never stalls submits or status polls — with `id` parked in
    /// `finishing` meanwhile.
    fn finish(
        &self,
        mut st: MutexGuard<'_, State>,
        id: u64,
        state: JobState,
        outcome: Option<JobOutcome>,
        detail: Option<String>,
    ) {
        let now = self.now_ms();
        let job = st.jobs.get(&id).expect("finished id is in the table");
        let mut info = job.info.clone();
        info.state = state;
        info.finished_ms = now;
        if let Some(detail) = detail {
            info.detail = detail;
        }
        let entry = self.journal.as_ref().map(|_| JournalEntry {
            spec: job.spec.clone(),
            info: info.clone(),
            outcome: outcome.clone(),
        });
        let kind = job.spec.kind;
        st.finishing.insert(id);
        let live = live_set(&st);
        drop(st);

        if let (Some(journal), Some(entry)) = (&self.journal, entry) {
            if let Err(e) = journal.lock().unwrap().append(&entry) {
                eprintln!("navp-serve: job journal append failed for job {id}: {e}");
            }
        }
        if let Some(hook) = &self.on_finish {
            hook(id, &live);
        }

        let mut st = self.state.lock().unwrap();
        st.finishing.remove(&id);
        let m = &self.metrics;
        let job = st.jobs.get_mut(&id).expect("finished id is in the table");
        let was_running = job.info.state == JobState::Running;
        let ran_ms = if was_running {
            now.saturating_sub(info.started_ms)
        } else {
            0
        };
        m.latency_ms.observe(now.saturating_sub(info.queued_ms));
        m.jobs_total(state, kind).inc();
        if let Some(o) = &outcome {
            m.observe_job_wall(id, o.wall_ms);
        }
        job.info = info;
        job.outcome = outcome;
        if was_running {
            st.inflight -= 1;
            m.inflight.set(st.inflight as i64);
        }
        self.flight
            .record(ObsKind::JobFinish, 0, id, state.to_u8() as u64, ran_ms);
        self.cv.notify_all();
    }
}

/// The scheduler: owns the queue, the job table and the worker pool.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `cfg.max_inflight` workers driving `runner`.
    pub fn start(
        cfg: SchedConfig,
        metrics: Arc<ServeMetrics>,
        runner: Arc<RunnerFn>,
        on_finish: Option<Box<FinishHook>>,
    ) -> Scheduler {
        Scheduler::start_with_journal(cfg, metrics, runner, on_finish, None)
    }

    /// As [`Scheduler::start`], with a persistent job journal: the
    /// restored entries (from [`Journal::open`]) seed the job table —
    /// so `status`/`result`/`list` answer for jobs a previous process
    /// finished, and ids continue past the highest restored one — and
    /// every new terminal transition is appended to the journal.
    pub fn start_with_journal(
        cfg: SchedConfig,
        metrics: Arc<ServeMetrics>,
        runner: Arc<RunnerFn>,
        on_finish: Option<Box<FinishHook>>,
        journal: Option<(Journal, Vec<JournalEntry>)>,
    ) -> Scheduler {
        let mut next_id = 1;
        let mut jobs = HashMap::new();
        let mut order = Vec::new();
        let (journal, restored) = match journal {
            Some((j, restored)) => (Some(Mutex::new(j)), restored),
            None => (None, Vec::new()),
        };
        for entry in restored {
            // Journals only record terminal jobs, but stay defensive:
            // a non-terminal record must not leak into the queue.
            if !entry.info.state.is_terminal() {
                continue;
            }
            let id = entry.info.id;
            next_id = next_id.max(id + 1);
            if jobs
                .insert(
                    id,
                    Job {
                        spec: entry.spec,
                        info: entry.info,
                        outcome: entry.outcome,
                    },
                )
                .is_none()
            {
                order.push(id);
            }
        }
        order.sort_unstable();
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State {
                next_id,
                queue: Vec::new(),
                jobs,
                order,
                draining: false,
                stopping: false,
                inflight: 0,
                finishing: HashSet::new(),
            }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            metrics,
            runner,
            on_finish,
            journal,
            flight: navp_obs::flight().lane("sched"),
        });
        let workers = (0..cfg.max_inflight.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("navp-serve-worker-{i}"))
                    .spawn(move || worker(inner))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Admit a job, or say immediately why not.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, RejectReason> {
        let m = &self.inner.metrics;
        let mut st = self.inner.state.lock().unwrap();
        if st.draining || st.stopping {
            m.rejects_draining.inc();
            return Err(RejectReason::Draining);
        }
        if st.queue.len() >= self.inner.cfg.queue_cap {
            m.rejects_full.inc();
            return Err(RejectReason::QueueFull {
                cap: self.inner.cfg.queue_cap as u64,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let (priority, kind) = (spec.priority, spec.kind);
        let info = JobInfo {
            id,
            state: JobState::Queued,
            priority: spec.priority,
            queued_ms: self.inner.now_ms(),
            started_ms: 0,
            finished_ms: 0,
            detail: String::new(),
        };
        st.jobs.insert(
            id,
            Job {
                spec,
                info,
                outcome: None,
            },
        );
        st.queue.push(id);
        st.order.push(id);
        m.queue_depth.set(st.queue.len() as i64);
        self.inner
            .flight
            .record(ObsKind::JobAdmit, 0, id, priority as u64, kind.to_wire() as u64);
        // All, not one: result waiters share the condvar with workers.
        self.inner.cv.notify_all();
        Ok(id)
    }

    /// A job's current info, if the id is known.
    pub fn status(&self, id: u64) -> Option<JobInfo> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|j| j.info.clone())
    }

    /// A job's info plus its outcome (present once `Done`).
    pub fn result(&self, id: u64) -> Option<(JobInfo, Option<JobOutcome>)> {
        self.wait_result(id, Duration::ZERO)
    }

    /// Cancel a queued job. `None` for unknown ids, `Some(false)` when
    /// the job already started (a run on the mesh is not torn down
    /// mid-flight), `Some(true)` when it was dequeued and cancelled.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let mut st = self.inner.state.lock().unwrap();
        let job = st.jobs.get(&id)?;
        if job.info.state != JobState::Queued || st.finishing.contains(&id) {
            return Some(false);
        }
        st.queue.retain(|&q| q != id);
        self.inner.metrics.queue_depth.set(st.queue.len() as i64);
        self.inner.finish(st, id, JobState::Cancelled, None, None);
        Some(true)
    }

    /// Every job, in submission order.
    pub fn list(&self) -> Vec<JobInfo> {
        let st = self.inner.state.lock().unwrap();
        st.order
            .iter()
            .filter_map(|id| st.jobs.get(id).map(|j| j.info.clone()))
            .collect()
    }

    /// Stop admitting; queued and in-flight jobs still finish.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.draining = true;
        self.inner.cv.notify_all();
    }

    /// `true` when nothing is queued, running or finishing.
    pub fn idle(&self) -> bool {
        is_idle(&self.inner.state.lock().unwrap())
    }

    /// Block until idle, up to `timeout`. Returns whether it got there.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if is_idle(&st) {
                return true;
            }
            let left = match deadline.checked_duration_since(Instant::now()) {
                Some(d) if !d.is_zero() => d,
                _ => return false,
            };
            let (guard, _) = self.inner.cv.wait_timeout(st, left).unwrap();
            st = guard;
        }
    }

    /// Block until job `id` is terminal, up to `timeout`, then return
    /// what [`Scheduler::result`] would: a terminal state is published
    /// only once it is journaled and pruned. At timeout the job's
    /// current, non-terminal info comes back; `None` for unknown ids.
    pub fn wait_result(
        &self,
        id: u64,
        timeout: Duration,
    ) -> Option<(JobInfo, Option<JobOutcome>)> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let job = st.jobs.get(&id)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if job.info.state.is_terminal() || left.is_zero() {
                return Some((job.info.clone(), job.outcome.clone()));
            }
            let (guard, _) = self.inner.cv.wait_timeout(st, left).unwrap();
            st = guard;
        }
    }

    /// Ids of every non-terminal (queued or running) job.
    pub fn live_ids(&self) -> HashSet<u64> {
        live_set(&self.inner.state.lock().unwrap())
    }

    /// Stop the workers and join them. In-flight runs finish; queued
    /// jobs are abandoned (call [`Scheduler::drain`] + `wait_idle`
    /// first for a graceful stop).
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.stopping = true;
            self.inner.cv.notify_all();
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Queued or running jobs, not counting those already finishing.
fn live_set(st: &State) -> HashSet<u64> {
    st.jobs
        .values()
        .filter(|j| !j.info.state.is_terminal() && !st.finishing.contains(&j.info.id))
        .map(|j| j.info.id)
        .collect()
}

fn is_idle(st: &State) -> bool {
    st.queue.is_empty() && st.inflight == 0 && st.finishing.is_empty()
}

/// The queued job a freed worker should take: highest priority first,
/// oldest id within a priority.
fn pick(st: &State) -> Option<usize> {
    st.queue
        .iter()
        .enumerate()
        .max_by_key(|(_, &id)| {
            let prio = st.jobs.get(&id).map(|j| j.info.priority).unwrap_or(0);
            (prio, std::cmp::Reverse(id))
        })
        .map(|(pos, _)| pos)
}

fn worker(inner: Arc<Inner>) {
    loop {
        // Claim the next job, or park until one exists (or shutdown).
        let (id, spec) = {
            let mut st = inner.state.lock().unwrap();
            let pos = loop {
                if st.stopping {
                    return;
                }
                if let Some(pos) = pick(&st) {
                    break pos;
                }
                st = inner.cv.wait(st).unwrap();
            };
            let id = st.queue.remove(pos);
            st.inflight += 1;
            let now = inner.now_ms();
            let m = &inner.metrics;
            m.queue_depth.set(st.queue.len() as i64);
            m.inflight.set(st.inflight as i64);
            let job = st.jobs.get_mut(&id).expect("queued id is in the table");
            job.info.state = JobState::Running;
            job.info.started_ms = now;
            let age = now.saturating_sub(job.info.queued_ms);
            m.queue_age_ms.observe(age);
            inner.flight.record(ObsKind::JobStart, 0, id, age, 0);
            (id, job.spec.clone())
        };

        let res = (inner.runner)(&spec, id);

        let st = inner.state.lock().unwrap();
        match res {
            Ok(outcome) => inner.finish(st, id, JobState::Done, Some(outcome), None),
            Err(fail) => {
                let state = if fail.timed_out {
                    JobState::TimedOut
                } else {
                    JobState::Failed
                };
                inner.finish(st, id, state, None, Some(fail.detail));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Condvar;
    use std::sync::Mutex as StdMutex;

    const T: Duration = Duration::from_secs(20);

    fn ok_outcome() -> JobOutcome {
        JobOutcome {
            checksum: 1,
            verified: true,
            wall_ms: 0,
        }
    }

    /// A gate that gated jobs block on until the test opens it.
    struct Gate {
        open: StdMutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                open: StdMutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn set(&self, open: bool) {
            *self.open.lock().unwrap() = open;
            self.cv.notify_all();
        }

        fn pass(&self) {
            let open = self.open.lock().unwrap();
            let _open = self.cv.wait_while(open, |open| !*open).unwrap();
        }
    }

    /// Runner that reports each job on the returned channel as it
    /// starts, blocks it until `gate` opens, then logs the id it ran.
    fn gated_runner(
        gate: Arc<Gate>,
        log: Arc<StdMutex<Vec<u64>>>,
    ) -> (Arc<RunnerFn>, Receiver<u64>) {
        let (started, rx) = channel();
        let runner = Arc::new(move |_: &JobSpec, id| {
            let _ = started.send(id);
            gate.pass();
            log.lock().unwrap().push(id);
            Ok(ok_outcome())
        });
        (runner, rx)
    }

    fn spec(priority: u8) -> JobSpec {
        JobSpec {
            priority,
            ..JobSpec::example()
        }
    }

    /// Wait until the runner reports that job `id` started: the worker
    /// marks a job `Running` before it calls the runner.
    fn wait_running(started: &Receiver<u64>, id: u64) {
        while started.recv_timeout(T).expect("job never started") != id {}
    }

    #[test]
    fn priority_order_fifo_within_priority() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (runner, started) = gated_runner(Arc::clone(&gate), Arc::clone(&log));
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 16,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            None,
        );
        let first = s.submit(spec(0)).unwrap();
        wait_running(&started, first); // pin the single worker
        let low = s.submit(spec(0)).unwrap();
        let hi_a = s.submit(spec(5)).unwrap();
        let hi_b = s.submit(spec(5)).unwrap();
        gate.set(true);
        assert!(s.wait_idle(T), "never drained");
        assert_eq!(*log.lock().unwrap(), vec![first, hi_a, hi_b, low]);
        s.shutdown();
    }

    #[test]
    fn queue_full_rejects_with_cap() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let metrics = ServeMetrics::new();
        let (runner, started) = gated_runner(Arc::clone(&gate), log);
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 2,
                max_inflight: 1,
            },
            Arc::clone(&metrics),
            runner,
            None,
        );
        let blocker = s.submit(spec(0)).unwrap();
        wait_running(&started, blocker);
        s.submit(spec(0)).unwrap();
        s.submit(spec(0)).unwrap();
        assert_eq!(
            s.submit(spec(0)),
            Err(RejectReason::QueueFull { cap: 2 }),
            "third queued submit must be rejected"
        );
        assert_eq!(metrics.rejects_full.get(), 1);
        assert_eq!(metrics.queue_depth.get(), 2);
        gate.set(true);
        assert!(s.wait_idle(T));
        s.shutdown();
    }

    #[test]
    fn draining_rejects_new_but_finishes_queued() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let metrics = ServeMetrics::new();
        let (runner, started) = gated_runner(Arc::clone(&gate), Arc::clone(&log));
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            Arc::clone(&metrics),
            runner,
            None,
        );
        let blocker = s.submit(spec(0)).unwrap();
        wait_running(&started, blocker);
        let queued = s.submit(spec(0)).unwrap();
        s.drain();
        assert_eq!(s.submit(spec(0)), Err(RejectReason::Draining));
        assert_eq!(metrics.rejects_draining.get(), 1);
        gate.set(true);
        assert!(s.wait_idle(T), "queued work must still finish");
        assert_eq!(s.status(blocker).unwrap().state, JobState::Done);
        assert_eq!(s.status(queued).unwrap().state, JobState::Done);
        assert_eq!(*log.lock().unwrap(), vec![blocker, queued]);
        s.shutdown();
    }

    #[test]
    fn timeout_and_failure_classified_separately() {
        let metrics = ServeMetrics::new();
        let runner: Arc<RunnerFn> = Arc::new(|spec, _id| {
            Err(JobFailure {
                timed_out: spec.timeout_ms > 0,
                detail: "boom".into(),
            })
        });
        let s = Scheduler::start(SchedConfig::default(), Arc::clone(&metrics), runner, None);
        let slow = s
            .submit(JobSpec {
                timeout_ms: 5,
                ..JobSpec::example()
            })
            .unwrap();
        let bad = s.submit(spec(0)).unwrap();
        assert!(s.wait_idle(T));
        let (slow_info, slow_out) = s.result(slow).unwrap();
        assert_eq!(slow_info.state, JobState::TimedOut);
        assert!(slow_out.is_none());
        assert_eq!(slow_info.detail, "boom");
        assert_eq!(s.status(bad).unwrap().state, JobState::Failed);
        assert_eq!(metrics.jobs_in_state(JobState::TimedOut), 1);
        assert_eq!(metrics.jobs_in_state(JobState::Failed), 1);
        s.shutdown();
    }

    #[test]
    fn cancel_only_works_while_queued() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (runner, started) = gated_runner(Arc::clone(&gate), Arc::clone(&log));
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            None,
        );
        let running = s.submit(spec(0)).unwrap();
        wait_running(&started, running);
        let queued = s.submit(spec(0)).unwrap();
        assert_eq!(s.cancel(queued), Some(true));
        assert_eq!(s.status(queued).unwrap().state, JobState::Cancelled);
        assert_eq!(s.cancel(running), Some(false), "running jobs are not torn down");
        assert_eq!(s.cancel(999), None, "unknown id");
        gate.set(true);
        assert!(s.wait_idle(T));
        assert_eq!(*log.lock().unwrap(), vec![running], "cancelled job never ran");
        s.shutdown();
    }

    /// `(finished job, live set the hook saw)` per finish.
    type Seen = Arc<StdMutex<Vec<(u64, HashSet<u64>)>>>;

    #[test]
    fn finish_hook_sees_live_set_without_finished_job() {
        let seen: Seen = Arc::new(StdMutex::new(Vec::new()));
        let hook_seen = Arc::clone(&seen);
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (runner, started) = gated_runner(Arc::clone(&gate), log);
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            Some(Box::new(move |id, live| {
                hook_seen.lock().unwrap().push((id, live.clone()));
            })),
        );
        let a = s.submit(spec(0)).unwrap();
        wait_running(&started, a);
        let b = s.submit(spec(0)).unwrap();
        assert_eq!(s.live_ids(), HashSet::from([a, b]));
        gate.set(true);
        assert!(s.wait_idle(T));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        // When `a` finished, `b` was still live; when `b` finished,
        // nothing was.
        assert_eq!(seen[0].0, a);
        assert!(seen[0].1.contains(&b) && !seen[0].1.contains(&a));
        assert_eq!(seen[1], (b, HashSet::new()));
        s.shutdown();
    }

    #[test]
    fn finish_hook_runs_before_the_terminal_state_is_published() {
        // The hook (checkpoint retention) is part of finishing: while it
        // runs, nobody may yet see the job terminal.
        let sched: Arc<std::sync::OnceLock<std::sync::Weak<Scheduler>>> = Arc::default();
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let (hook_sched, hook_seen) = (Arc::clone(&sched), Arc::clone(&seen));
        let runner: Arc<RunnerFn> = Arc::new(|_, _| Ok(ok_outcome()));
        let s = Arc::new(Scheduler::start(
            SchedConfig::default(),
            ServeMetrics::new(),
            runner,
            Some(Box::new(move |id, _live| {
                let s = hook_sched.get().and_then(|w| w.upgrade()).expect("scheduler");
                hook_seen.lock().unwrap().push(s.status(id).unwrap().state);
            })),
        ));
        sched.set(Arc::downgrade(&s)).unwrap();
        let id = s.submit(spec(0)).unwrap();
        assert_eq!(s.wait_result(id, T).unwrap().0.state, JobState::Done);
        assert_eq!(*seen.lock().unwrap(), vec![JobState::Running]);
        s.shutdown();
    }

    #[test]
    fn ids_start_at_one_and_increase() {
        let runner: Arc<RunnerFn> = Arc::new(|_, _| Ok(ok_outcome()));
        let s = Scheduler::start(SchedConfig::default(), ServeMetrics::new(), runner, None);
        let a = s.submit(spec(0)).unwrap();
        let b = s.submit(spec(0)).unwrap();
        assert_eq!(a, 1, "run 0 is the anonymous namespace, never a job");
        assert_eq!(b, 2);
        assert!(s.wait_idle(T));
        let listed: Vec<u64> = s.list().iter().map(|i| i.id).collect();
        assert_eq!(listed, vec![a, b]);
        s.shutdown();
    }
    #[test]
    fn wait_result_wakes_on_done_failed_and_cancelled() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (gated, started) = gated_runner(Arc::clone(&gate), log);
        // Job specs with a nonzero timeout fail; the others pass the gate.
        let runner: Arc<RunnerFn> = Arc::new(move |spec, id| {
            if spec.timeout_ms > 0 {
                return Err(JobFailure {
                    timed_out: false,
                    detail: "boom".into(),
                });
            }
            gated(spec, id)
        });
        let s = Arc::new(Scheduler::start(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            None,
        ));
        let done = s.submit(spec(0)).unwrap();
        wait_running(&started, done);
        let cancelled = s.submit(spec(0)).unwrap();
        let failed = s
            .submit(JobSpec {
                timeout_ms: 1,
                ..JobSpec::example()
            })
            .unwrap();
        let waiters: Vec<_> = [done, cancelled, failed]
            .into_iter()
            .map(|id| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.wait_result(id, T).expect("known id"))
            })
            .collect();
        assert_eq!(s.cancel(cancelled), Some(true));
        gate.set(true);
        let got: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(got[0].0.state, JobState::Done);
        assert!(got[0].1.is_some(), "Done carries its outcome");
        assert_eq!(got[1].0.state, JobState::Cancelled);
        assert_eq!(got[2].0.state, JobState::Failed);
        assert_eq!(got[2].0.detail, "boom");
        s.shutdown();
    }

    #[test]
    fn wait_result_returns_current_info_at_timeout() {
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (runner, started) = gated_runner(Arc::clone(&gate), log);
        let s = Scheduler::start(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            None,
        );
        let running = s.submit(spec(0)).unwrap();
        wait_running(&started, running);
        let queued = s.submit(spec(0)).unwrap();
        let (info, outcome) = s.wait_result(running, Duration::from_millis(30)).unwrap();
        assert_eq!(info.state, JobState::Running);
        assert!(outcome.is_none());
        let (info, _) = s.wait_result(queued, Duration::ZERO).unwrap();
        assert_eq!(info.state, JobState::Queued);
        gate.set(true);
        assert!(s.wait_idle(T));
        s.shutdown();
    }

    #[test]
    fn wait_result_of_unknown_id_is_none() {
        let runner: Arc<RunnerFn> = Arc::new(|_, _| Ok(ok_outcome()));
        let s = Scheduler::start(SchedConfig::default(), ServeMetrics::new(), runner, None);
        assert!(s.wait_result(999, Duration::from_millis(10)).is_none());
        s.shutdown();
    }

    #[test]
    fn waiter_woken_on_done_finds_the_journal_record() {
        let path = std::env::temp_dir().join(format!(
            "navp-sched-journal-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let (journal, restored) = Journal::open(&path).unwrap();
        assert!(restored.is_empty());
        let gate = Gate::new();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let (runner, _started) = gated_runner(Arc::clone(&gate), log);
        let s = Arc::new(Scheduler::start_with_journal(
            SchedConfig {
                queue_cap: 8,
                max_inflight: 1,
            },
            ServeMetrics::new(),
            runner,
            None,
            Some((journal, restored)),
        ));
        // One job at a time, so no append is in flight while the
        // waiter reopens the journal.
        let mut ids = Vec::new();
        for _ in 0..20 {
            gate.set(false);
            let id = s.submit(spec(0)).unwrap();
            ids.push(id);
            let waiter = {
                let (s, path, ids) = (Arc::clone(&s), path.clone(), ids.clone());
                std::thread::spawn(move || {
                    let (info, _) = s.wait_result(id, T).unwrap();
                    assert_eq!(info.state, JobState::Done);
                    // Terminal means journaled: reopening finds the record.
                    let (_, entries) = Journal::open(&path).unwrap();
                    let journaled: Vec<u64> = entries.iter().map(|e| e.info.id).collect();
                    assert_eq!(journaled, ids, "the woken waiter must find job {id}'s record");
                })
            };
            gate.set(true);
            waiter.join().unwrap();
        }
        s.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
