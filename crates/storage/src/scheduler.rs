//! A bounded worker pool for background I/O.
//!
//! Hiding disaggregated-storage latency (DESIGN.md §7) with one OS thread
//! per spill pipeline and per prefetching merge source is fine for one
//! query, but a 512-run cascade at fan-in 64 with a partitioned final
//! merge multiplies to hundreds of threads. [`IoScheduler`] bounds that:
//! a fixed-size pool of `io_threads` workers fed by a single submission
//! queue of boxed, block-sized I/O jobs. It is the only way background
//! I/O runs; without a pool, spills and merge reads are synchronous.
//!
//! **Priority classes.** Every job carries an [`IoClass`] — a shared,
//! mutable [`IoPriority`] tag. Workers always dispatch the eligible job
//! with the numerically smallest class (FIFO within a class):
//! [`IoPriority::MergeReadAhead`] (a merge source whose consumer is
//! actively blocked) outranks [`IoPriority::Prefetch`] (speculative
//! read-ahead), which outranks [`IoPriority::SpillWrite`] (spill writes,
//! which only ever stall the producer by bounded backpressure). Because
//! the tag is shared, a consumer that starts draining a source can
//! escalate jobs that are *already queued*.
//!
//! **Per-backend gate.** [`IoScheduler::for_backend`] returns a handle
//! whose jobs count against an in-flight limit for that backend (default:
//! the worker count), so one slow storage service cannot absorb every
//! worker while jobs for a healthy backend starve in the queue.
//!
//! **Contracts.** Jobs must never block on another job (the pipeline and
//! prefetcher submit state-machine steps that re-check their component
//! state and return instead of waiting), so any pool size ≥ 1 is
//! deadlock-free. Workers are spawned lazily on first submission and
//! joined when the last [`IoScheduler`] clone drops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;

use crate::backend::StorageBackend;

/// Locks ignoring poisoning (a panicked job must not wedge the pool).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait ignoring poisoning; returns the reacquired guard.
pub(crate) fn wait<'a, T>(c: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    c.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Priority class of one background-I/O job; smaller dispatches first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum IoPriority {
    /// Read-ahead for a merge source whose consumer is blocked waiting on
    /// it — the merge cannot make progress until this job runs.
    MergeReadAhead = 0,
    /// Speculative read-ahead for a source whose buffer still has blocks.
    Prefetch = 1,
    /// Background spill writes; the producer is only ever delayed by
    /// bounded backpressure, never starved.
    SpillWrite = 2,
}

impl IoPriority {
    const COUNT: usize = 3;

    fn from_u8(v: u8) -> IoPriority {
        match v {
            0 => IoPriority::MergeReadAhead,
            1 => IoPriority::Prefetch,
            _ => IoPriority::SpillWrite,
        }
    }
}

/// A shared, mutable priority tag.
///
/// A component clones one `IoClass` into every job it submits; calling
/// [`IoClass::set`] re-prioritizes jobs *already sitting in the queue*
/// (the prefetcher escalates to [`IoPriority::MergeReadAhead`] the moment
/// its consumer actually blocks).
#[derive(Debug, Clone)]
pub struct IoClass(Arc<AtomicU8>);

impl IoClass {
    /// A fresh tag at priority `p`.
    pub fn new(p: IoPriority) -> Self {
        IoClass(Arc::new(AtomicU8::new(p as u8)))
    }

    /// Re-tags this class (and every queued job sharing it) as `p`.
    pub fn set(&self, p: IoPriority) {
        self.0.store(p as u8, Ordering::Relaxed);
    }

    /// The current priority.
    pub fn get(&self) -> IoPriority {
        IoPriority::from_u8(self.0.load(Ordering::Relaxed))
    }
}

/// In-flight limit for one storage backend (see module docs).
#[derive(Debug)]
struct BackendGate {
    limit: usize,
    in_flight: AtomicUsize,
}

struct Job {
    class: IoClass,
    seq: u64,
    gate: Option<Arc<BackendGate>>,
    work: Box<dyn FnOnce() + Send>,
}

impl Job {
    fn eligible(&self) -> bool {
        self.gate.as_ref().is_none_or(|g| g.in_flight.load(Ordering::Relaxed) < g.limit)
    }
}

struct SchedState {
    queue: Vec<Job>,
    next_seq: u64,
    shutdown: bool,
    spawned: bool,
}

#[derive(Default)]
struct MetricsInner {
    submitted: [AtomicU64; IoPriority::COUNT],
    completed: [AtomicU64; IoPriority::COUNT],
    queue_depth_peak: AtomicUsize,
}

/// Point-in-time counters for one [`IoScheduler`], indexable by
/// [`IoPriority`] (`submitted[IoPriority::SpillWrite as usize]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedulerMetrics {
    /// Jobs submitted, by priority class at submission time.
    pub submitted: [u64; 3],
    /// Jobs completed, by priority class at dispatch time.
    pub completed: [u64; 3],
    /// Jobs currently queued (not yet dispatched).
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub queue_depth_peak: usize,
}

impl IoSchedulerMetrics {
    /// Total jobs submitted across all classes.
    pub fn submitted_total(&self) -> u64 {
        self.submitted.iter().sum()
    }

    /// Total jobs completed across all classes.
    pub fn completed_total(&self) -> u64 {
        self.completed.iter().sum()
    }
}

struct Core {
    state: Mutex<SchedState>,
    cond: Condvar,
    threads: usize,
    backend_limit: usize,
    gates: Mutex<HashMap<usize, Weak<BackendGate>>>,
    metrics: MetricsInner,
}

impl Core {
    /// Index of the best eligible job: smallest (class, seq), honoring
    /// backend gates. Linear scan — the queue holds O(open sources) jobs.
    fn pick(queue: &[Job]) -> Option<usize> {
        queue
            .iter()
            .enumerate()
            .filter(|(_, j)| j.eligible())
            .min_by_key(|(_, j)| (j.class.get(), j.seq))
            .map(|(i, _)| i)
    }

    fn worker(self: &Arc<Core>) {
        let _census = ThreadCensus::register();
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(idx) = Core::pick(&st.queue) {
                        let job = st.queue.swap_remove(idx);
                        if let Some(gate) = &job.gate {
                            gate.in_flight.fetch_add(1, Ordering::Relaxed);
                        }
                        break job;
                    }
                    st = wait(&self.cond, st);
                }
            };
            let class = job.class.get() as usize;
            (job.work)();
            if let Some(gate) = &job.gate {
                gate.in_flight.fetch_sub(1, Ordering::Relaxed);
                // A queued job for this backend may have become eligible.
                self.cond.notify_all();
            }
            self.metrics.completed[class].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Owns the pool; dropped when the last [`IoScheduler`] clone goes away.
struct SchedulerOwner {
    core: Arc<Core>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for SchedulerOwner {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.core.state);
            st.shutdown = true;
            // Undispatched jobs are dropped: a live component would be
            // holding a scheduler clone, so nothing can be waiting on them.
            st.queue.clear();
        }
        self.core.cond.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-size background-I/O worker pool. See the module docs.
///
/// Cloning is cheap and shares the pool; workers are joined when the last
/// clone drops.
#[derive(Clone)]
pub struct IoScheduler {
    owner: Arc<SchedulerOwner>,
}

impl std::fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoScheduler").field("threads", &self.owner.core.threads).finish()
    }
}

impl IoScheduler {
    /// A pool of `threads` workers (clamped to ≥ 1), with a per-backend
    /// in-flight limit equal to the worker count.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self::with_backend_limit(threads, threads)
    }

    /// A pool with an explicit per-backend in-flight limit (clamped ≥ 1).
    pub fn with_backend_limit(threads: usize, backend_limit: usize) -> Self {
        let core = Arc::new(Core {
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                next_seq: 0,
                shutdown: false,
                spawned: false,
            }),
            cond: Condvar::new(),
            threads: threads.max(1),
            backend_limit: backend_limit.max(1),
            gates: Mutex::new(HashMap::new()),
            metrics: MetricsInner::default(),
        });
        IoScheduler { owner: Arc::new(SchedulerOwner { core, handles: Mutex::new(Vec::new()) }) }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.owner.core.threads
    }

    /// True if `other` is a clone of this scheduler (same worker pool),
    /// as opposed to an independently constructed pool.
    pub fn same_pool(&self, other: &IoScheduler) -> bool {
        Arc::ptr_eq(&self.owner.core, &other.owner.core)
    }

    /// An ungated submission handle (no per-backend limit).
    pub fn handle(&self) -> IoSchedulerHandle {
        IoSchedulerHandle { sched: self.clone(), gate: None }
    }

    /// A handle whose jobs count against `backend`'s in-flight gate.
    /// Handles for the same backend (by identity) share one gate.
    pub fn for_backend(&self, backend: &Arc<dyn StorageBackend>) -> IoSchedulerHandle {
        let key = Arc::as_ptr(backend) as *const () as usize;
        let mut gates = lock(&self.owner.core.gates);
        gates.retain(|_, weak| weak.strong_count() > 0);
        let gate = match gates.get(&key).and_then(Weak::upgrade) {
            Some(gate) => gate,
            None => {
                let gate = Arc::new(BackendGate {
                    limit: self.owner.core.backend_limit,
                    in_flight: AtomicUsize::new(0),
                });
                gates.insert(key, Arc::downgrade(&gate));
                gate
            }
        };
        IoSchedulerHandle { sched: self.clone(), gate: Some(gate) }
    }

    /// Current scheduler counters.
    pub fn metrics(&self) -> IoSchedulerMetrics {
        let m = &self.owner.core.metrics;
        let load = |a: &[AtomicU64; 3]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
            ]
        };
        IoSchedulerMetrics {
            submitted: load(&m.submitted),
            completed: load(&m.completed),
            queue_depth: lock(&self.owner.core.state).queue.len(),
            queue_depth_peak: m.queue_depth_peak.load(Ordering::Relaxed),
        }
    }

    fn submit(
        &self,
        class: &IoClass,
        gate: Option<Arc<BackendGate>>,
        work: Box<dyn FnOnce() + Send>,
    ) {
        let core = &self.owner.core;
        core.metrics.submitted[class.get() as usize].fetch_add(1, Ordering::Relaxed);
        let spawn = {
            let mut st = lock(&core.state);
            if st.shutdown {
                // Defensive: cannot happen while a handle is alive, but a
                // dropped job must never strand a waiting component.
                drop(st);
                work();
                return;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(Job { class: class.clone(), seq, gate, work });
            core.metrics.queue_depth_peak.fetch_max(st.queue.len(), Ordering::Relaxed);
            !std::mem::replace(&mut st.spawned, true)
        };
        if spawn {
            let mut handles = lock(&self.owner.handles);
            for i in 0..core.threads {
                let core = core.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("io-sched-{i}"))
                        .spawn(move || core.worker())
                        .expect("spawn io scheduler worker"),
                );
            }
        }
        core.cond.notify_one();
    }
}

/// A cloneable submission endpoint: a scheduler plus an optional
/// per-backend gate. Components hold one of these instead of spawning
/// threads.
#[derive(Debug, Clone)]
pub struct IoSchedulerHandle {
    sched: IoScheduler,
    gate: Option<Arc<BackendGate>>,
}

impl IoSchedulerHandle {
    /// Queues `work` under priority tag `class`. The job runs exactly once
    /// on a pool worker; it must not block on other jobs.
    pub fn submit(&self, class: &IoClass, work: impl FnOnce() + Send + 'static) {
        self.sched.submit(class, self.gate.clone(), Box::new(work));
    }

    /// The scheduler this handle submits to.
    pub fn scheduler(&self) -> &IoScheduler {
        &self.sched
    }
}

static CENSUS_CURRENT: AtomicUsize = AtomicUsize::new(0);
static CENSUS_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Process-wide census of live background-I/O threads (the workers of
/// every [`IoScheduler`] pool). The spill-storm bench asserts
/// its peak stays ≤ `io_threads`; it is global state, so tests that run
/// in parallel must not assert on it.
pub struct ThreadCensus;

impl ThreadCensus {
    /// Registers the calling thread until the returned guard drops.
    pub fn register() -> CensusGuard {
        let now = CENSUS_CURRENT.fetch_add(1, Ordering::SeqCst) + 1;
        CENSUS_PEAK.fetch_max(now, Ordering::SeqCst);
        CensusGuard { _priv: () }
    }

    /// Background-I/O threads alive right now.
    pub fn current() -> usize {
        CENSUS_CURRENT.load(Ordering::SeqCst)
    }

    /// High-water mark since process start (or the last reset).
    pub fn peak() -> usize {
        CENSUS_PEAK.load(Ordering::SeqCst)
    }

    /// Resets the peak to the current count (between bench cases).
    pub fn reset_peak() {
        CENSUS_PEAK.store(CENSUS_CURRENT.load(Ordering::SeqCst), Ordering::SeqCst);
    }
}

/// RAII guard from [`ThreadCensus::register`].
pub struct CensusGuard {
    _priv: (),
}

impl Drop for CensusGuard {
    fn drop(&mut self) {
        CENSUS_CURRENT.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_metrics_count() {
        let sched = IoScheduler::new(2);
        let handle = sched.handle();
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            handle.submit(&IoClass::new(IoPriority::Prefetch), move || {
                tx.send(()).unwrap();
            });
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(10)).expect("job ran");
        }
        // Completion counters are bumped after the job body runs; give the
        // workers a moment to finish bookkeeping.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sched.metrics().completed_total() < 8 {
            assert!(std::time::Instant::now() < deadline, "completions never recorded");
            std::thread::yield_now();
        }
        let m = sched.metrics();
        assert_eq!(m.submitted[IoPriority::Prefetch as usize], 8);
        assert_eq!(m.submitted_total(), 8);
        assert_eq!(m.queue_depth, 0);
        assert!(m.queue_depth_peak >= 1);
    }

    /// With a single worker wedged on a gate job, queued jobs of all three
    /// classes must dispatch highest-priority-first regardless of
    /// submission order — including one escalated *after* queueing.
    #[test]
    fn priority_classes_dispatch_in_order() {
        let sched = IoScheduler::new(1);
        let handle = sched.handle();
        let (order_tx, order_rx) = mpsc::channel::<&'static str>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Wedge the only worker so the next three jobs queue up.
        handle.submit(&IoClass::new(IoPriority::MergeReadAhead), move || {
            gate_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        });
        // Wait until the wedge job is dispatched (queue drains to 0).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sched.metrics().queue_depth > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        let escalated = IoClass::new(IoPriority::SpillWrite);
        for (class, tag) in [
            (escalated.clone(), "escalated"),
            (IoClass::new(IoPriority::SpillWrite), "spill"),
            (IoClass::new(IoPriority::Prefetch), "prefetch"),
        ] {
            let tx = order_tx.clone();
            handle.submit(&class, move || tx.send(tag).unwrap());
        }
        // Escalate the first-submitted spill job to the front of the line.
        escalated.set(IoPriority::MergeReadAhead);
        gate_tx.send(()).unwrap();
        let got: Vec<_> =
            (0..3).map(|_| order_rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        assert_eq!(got, vec!["escalated", "prefetch", "spill"]);
    }

    #[test]
    fn backend_gate_bounds_in_flight_jobs() {
        let sched = IoScheduler::with_backend_limit(4, 1);
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let handle = sched.for_backend(&backend);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..6 {
            let (live, peak, tx) = (live.clone(), peak.clone(), tx.clone());
            handle.submit(&IoClass::new(IoPriority::Prefetch), move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..6 {
            rx.recv_timeout(Duration::from_secs(10)).expect("gated job ran");
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "gate of 1 must serialize the backend");
        // Handles for the same backend share the gate object.
        let again = sched.for_backend(&backend);
        assert!(Arc::ptr_eq(again.gate.as_ref().unwrap(), handle.gate.as_ref().unwrap()));
    }

    #[test]
    fn dropping_the_last_clone_joins_workers() {
        let sched = IoScheduler::new(3);
        let clone = sched.clone();
        // Each worker thread holds an Arc to the core for its lifetime, so
        // the strong count observes spawn and join without touching the
        // process-global census (which races with parallel tests).
        let core = sched.owner.core.clone();
        let (tx, rx) = mpsc::channel();
        clone.handle().submit(&IoClass::new(IoPriority::SpillWrite), move || {
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        drop(sched);
        // Workers stay up while one clone is alive: owner + this test +
        // three workers.
        assert_eq!(Arc::strong_count(&core), 5);
        // ...and are joined when the last clone drops.
        drop(clone);
        assert_eq!(Arc::strong_count(&core), 1);
    }

    #[test]
    fn census_guard_tracks_current_and_peak() {
        let base = ThreadCensus::current();
        let a = ThreadCensus::register();
        let b = ThreadCensus::register();
        assert!(ThreadCensus::current() >= base + 2);
        assert!(ThreadCensus::peak() >= base + 2);
        drop(a);
        drop(b);
        assert!(ThreadCensus::current() >= base);
    }
}
