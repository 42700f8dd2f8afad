//! Overlapped I/O: the background spill pipeline and the prefetching run
//! reader.
//!
//! The paper's storage is a disaggregated service reached over the network
//! (§2.1): every request costs a round trip. Synchronous spilling and
//! merging therefore *add* that latency to run generation and merge time.
//! The two primitives here hide it instead:
//!
//! * [`SpillPipeline`] — background writes per open run. The operator
//!   thread appends rows into the active block buffer; on seal it hands
//!   the raw payload to a bounded queue (capacity
//!   [`SPILL_PIPELINE_DEPTH`]) and keeps filling the next block while the
//!   background side CRCs, frames and writes the previous one. A full
//!   queue is the backpressure: when storage is slower than compute, the
//!   operator blocks, bounding memory to ≤2 sealed blocks in flight.
//! * [`PrefetchingRunReader`] — read-ahead per merge input. The background
//!   side reads, CRC-checks and decodes blocks into a bounded buffer of
//!   decoded row batches, so loser-tree refill pops rows that are already
//!   in memory. Up to `readahead_blocks + 1` blocks are buffered in total:
//!   `readahead_blocks` decoded batches in the buffer plus the in-hand
//!   batch the consumer is draining.
//!
//! **Execution.** Both primitives submit block-sized jobs to a shared
//! [`IoScheduler`](crate::IoScheduler) pool ([`SpillPipeline::spawn_scheduled`] /
//! [`PrefetchingRunReader::spawn_scheduled`]), which bounds the
//! process-wide background thread count to the pool size no matter how
//! many runs and sources are open; without a pool, callers do their I/O
//! synchronously instead. Jobs are state-machine steps: they re-check the
//! component state under its lock, do at most one block of I/O, and
//! *return* instead of blocking, so any pool size ≥ 1 is deadlock-free.
//! Spill jobs run at [`IoPriority::SpillWrite`]; prefetch jobs start at
//! [`IoPriority::Prefetch`] and are escalated to
//! [`IoPriority::MergeReadAhead`] — including jobs already queued — the
//! moment the consumer actually blocks on the source.
//!
//! **Error protocol.** A background step that fails latches its error (a
//! `failed` slot for the pipeline, an in-band `Err` batch for the
//! prefetcher) and stops; the latch unblocks the peer, which surfaces the
//! error on its next `append`/`finish`/`next`. Nothing panics across the
//! boundary and nothing can deadlock: every blocking wait has a live
//! counterpart or a latched terminal state.
//!
//! **Cancellation.** Dropping either wrapper marks the component abandoned,
//! waits out at most one in-flight block job, and discards any unfinished
//! backend object (same contract as dropping a synchronous `SpillWriter`).
//! A consumer that abandons a merge stream mid-way therefore tears down
//! every prefetch source deterministically.
//!
//! **Accounting.** Background I/O books its storage busy time into a
//! per-component `OverlapLedger`; the compute thread books its blocked
//! intervals both as live `io_wait_ns` and into the same ledger. At
//! component shutdown the ledger settles `busy − wait` (saturating) as
//! `overlapped_io_ns` — the latency genuinely *hidden* from the compute
//! thread — so the two counters never book the same nanoseconds twice and
//! their per-component sum never exceeds the component's wall time.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use histok_types::{Error, Result, Row, RowBatch, SortKey};

use crate::backend::SpillWriter;
use crate::crc::crc32;
use crate::run::{encode_block_header, encode_end_marker, RunReader, BLOCK_HEADER_BYTES};
use crate::scheduler::{lock, wait, IoClass, IoPriority, IoSchedulerHandle};
use crate::stats::{IoStats, OverlapLedger};

/// Maximum sealed blocks in flight between the operator thread and the
/// pipeline's background side (double buffering).
pub const SPILL_PIPELINE_DEPTH: usize = 2;

/// What the operator thread ships to the background writer.
enum SpillMsg {
    /// A sealed block payload to CRC, frame and write.
    Block { rows: u32, payload: Vec<u8> },
    /// Write the end marker and finish the backend object.
    Finish,
}

/// Shared state between a pipeline's producer and its jobs.
struct PipeShared {
    state: Mutex<PipeState>,
    cond: Condvar,
    stats: IoStats,
    ledger: Arc<OverlapLedger>,
}

impl PipeShared {
    /// Books time the compute thread spent blocked on the pipeline.
    fn record_wait(&self, waited: Duration) {
        self.stats.record_io_wait(waited);
        self.ledger.record_wait(waited);
    }
}

struct PipeState {
    queue: VecDeque<SpillMsg>,
    /// The backend writer; taken out by the active job while it performs
    /// I/O, consumed by the `Finish` step.
    writer: Option<Box<dyn SpillWriter>>,
    /// Run-file header, written by the first job step.
    header: Option<Vec<u8>>,
    /// True while a pool job owns this component (at most one at a time).
    job_active: bool,
    finished: bool,
    failed: Option<Error>,
    abandoned: bool,
}

/// One scheduler job: drain queued messages until the queue is empty, the
/// run finishes/fails, or the component is abandoned. Never blocks.
fn pipe_job(shared: &Arc<PipeShared>) {
    loop {
        let (msg, writer, header) = {
            let mut st = lock(&shared.state);
            if st.abandoned || st.failed.is_some() {
                // Dropping the writer discards the unfinished object, per
                // the SpillWriter contract.
                st.writer = None;
                st.header = None;
                st.queue.clear();
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            let Some(msg) = st.queue.pop_front() else {
                st.job_active = false;
                shared.cond.notify_all();
                return;
            };
            // Queue space freed: a producer blocked on backpressure can go.
            shared.cond.notify_all();
            (msg, st.writer.take(), st.header.take())
        };
        let Some(mut writer) = writer else {
            let mut st = lock(&shared.state);
            st.failed = Some(Error::Io(std::io::Error::other("spill job ran without a writer")));
            st.queue.clear();
            st.job_active = false;
            shared.cond.notify_all();
            return;
        };
        let outcome: Result<bool> = (|| {
            if let Some(h) = header {
                writer.write_all(&h)?;
            }
            match msg {
                SpillMsg::Block { rows, payload } => {
                    let crc = crc32(&payload);
                    let frame = encode_block_header(rows, payload.len() as u32, crc);
                    let started = Instant::now();
                    writer.write_all(&frame)?;
                    writer.write_all(&payload)?;
                    let elapsed = started.elapsed();
                    shared.stats.record_write_timed(
                        u64::from(rows),
                        BLOCK_HEADER_BYTES as u64 + payload.len() as u64,
                        elapsed,
                    );
                    shared.ledger.record_busy(elapsed);
                    Ok(false)
                }
                SpillMsg::Finish => {
                    let started = Instant::now();
                    writer.write_all(&encode_end_marker())?;
                    writer.finish()?;
                    shared.ledger.record_busy(started.elapsed());
                    Ok(true)
                }
            }
        })();
        let mut st = lock(&shared.state);
        match outcome {
            Ok(false) => {
                st.writer = Some(writer);
            }
            Ok(true) => {
                drop(writer);
                st.finished = true;
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            Err(e) => {
                drop(writer);
                st.failed = Some(e);
                st.queue.clear();
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
        }
    }
}

/// A background writer that turns sealed block payloads into CRC-framed
/// writes against a [`SpillWriter`], as [`IoPriority::SpillWrite`] jobs on
/// a shared scheduler pool. See the module docs for the backpressure,
/// error, cancellation and accounting rules.
pub struct SpillPipeline {
    shared: Arc<PipeShared>,
    handle: IoSchedulerHandle,
    class: IoClass,
}

impl SpillPipeline {
    /// Starts a pipeline whose writes run on `scheduler`'s pool. `header`
    /// is written first (the run-file header), so the operator thread
    /// performs no storage request itself.
    pub fn spawn_scheduled(
        writer: Box<dyn SpillWriter>,
        header: Vec<u8>,
        stats: IoStats,
        scheduler: IoSchedulerHandle,
    ) -> Self {
        let ledger = OverlapLedger::new(stats.clone());
        let shared = Arc::new(PipeShared {
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                writer: Some(writer),
                header: Some(header),
                job_active: false,
                finished: false,
                failed: None,
                abandoned: false,
            }),
            cond: Condvar::new(),
            stats,
            ledger,
        });
        SpillPipeline { shared, handle: scheduler, class: IoClass::new(IoPriority::SpillWrite) }
    }

    /// Submits a drain job unless one already owns the component.
    fn kick(&self, st: &mut PipeState) {
        if !st.job_active {
            st.job_active = true;
            let shared = self.shared.clone();
            self.handle.submit(&self.class, move || pipe_job(&shared));
        }
    }

    /// Queues one sealed block. Blocks while [`SPILL_PIPELINE_DEPTH`]
    /// blocks are already in flight (backpressure); the blocked time is
    /// booked as compute-side I/O wait.
    pub fn write_block(&mut self, rows: u32, payload: Vec<u8>) -> Result<()> {
        let shared = &self.shared;
        let started = Instant::now();
        let mut st = lock(&shared.state);
        while st.queue.len() >= SPILL_PIPELINE_DEPTH && st.failed.is_none() {
            st = wait(&shared.cond, st);
        }
        shared.record_wait(started.elapsed());
        if let Some(e) = st.failed.take() {
            return Err(e);
        }
        if st.finished {
            return Err(Error::Io(std::io::Error::other("write after pipeline finish")));
        }
        st.queue.push_back(SpillMsg::Block { rows, payload });
        self.kick(&mut st);
        Ok(())
    }

    /// Writes the end marker, finishes the backend object, waits out the
    /// background side, and surfaces any latched error. The wait (drain +
    /// completion) is booked as compute-side I/O wait; the component's
    /// overlap ledger settles here.
    pub fn finish(&mut self) -> Result<()> {
        let shared = &self.shared;
        let started = Instant::now();
        let mut st = lock(&shared.state);
        if !st.finished && st.failed.is_none() {
            st.queue.push_back(SpillMsg::Finish);
            self.kick(&mut st);
        }
        while st.job_active || (!st.finished && st.failed.is_none()) {
            st = wait(&shared.cond, st);
        }
        let result = match st.failed.take() {
            Some(e) => Err(e),
            None => Ok(()),
        };
        drop(st);
        shared.record_wait(started.elapsed());
        shared.ledger.settle();
        result
    }
}

impl Drop for SpillPipeline {
    fn drop(&mut self) {
        let shared = &self.shared;
        let mut st = lock(&shared.state);
        st.abandoned = true;
        st.queue.clear();
        st.writer = None;
        st.header = None;
        shared.cond.notify_all();
        // Wait out at most one in-flight block job so nothing touches the
        // component after it is gone.
        while st.job_active {
            st = wait(&shared.cond, st);
        }
        drop(st);
        shared.ledger.settle();
    }
}

/// Shared state between a prefetcher's consumer and its jobs.
struct PrefetchShared<K: SortKey> {
    state: Mutex<PrefetchState<K>>,
    cond: Condvar,
}

struct PrefetchState<K: SortKey> {
    /// Decoded batches (or one trailing in-band error) awaiting the
    /// consumer; bounded at `cap`.
    ready: VecDeque<Result<RowBatch<K>>>,
    /// The underlying reader; taken out by the active job during I/O,
    /// dropped at end of run.
    reader: Option<RunReader<K>>,
    cap: usize,
    job_active: bool,
    eof: bool,
    dropped: bool,
}

/// One scheduler job: decode blocks until the buffer is full, the run
/// ends/fails, or the consumer is gone. Never blocks.
fn prefetch_job<K: SortKey>(shared: &Arc<PrefetchShared<K>>) {
    loop {
        let mut reader = {
            let mut st = lock(&shared.state);
            if st.dropped {
                st.reader = None;
                st.ready.clear();
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            if st.eof || st.ready.len() >= st.cap {
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            match st.reader.take() {
                Some(reader) => reader,
                None => {
                    st.job_active = false;
                    shared.cond.notify_all();
                    return;
                }
            }
        };
        let res = reader.next_batch();
        let mut st = lock(&shared.state);
        match res {
            Ok(Some(batch)) => {
                st.ready.push_back(Ok(batch));
                st.reader = Some(reader);
            }
            Ok(None) => st.eof = true,
            Err(e) => {
                st.ready.push_back(Err(e));
                st.eof = true;
            }
        }
        shared.cond.notify_all();
    }
}

/// A [`RunReader`] driven by bounded background read-ahead jobs on a
/// shared scheduler pool.
///
/// The background side reads, CRC-checks and decodes up to
/// `readahead_blocks` batches ahead (so `readahead_blocks + 1` blocks are
/// buffered in total, counting the in-hand batch); `next` pops rows from
/// the current decoded batch and only waits at batch boundaries. Errors
/// arrive in-band and fuse the iterator; dropping the reader mid-stream
/// tears the background side down (see the module docs).
pub struct PrefetchingRunReader<K: SortKey> {
    shared: Arc<PrefetchShared<K>>,
    handle: IoSchedulerHandle,
    class: IoClass,
    current: VecDeque<Row<K>>,
    stats: IoStats,
    ledger: Arc<OverlapLedger>,
    done: bool,
    rows_yielded: u64,
}

impl<K: SortKey> PrefetchingRunReader<K> {
    /// Takes ownership of `reader` (which may be mid-run, e.g. positioned
    /// by `skip_rows`) and starts prefetching up to `readahead_blocks`
    /// decoded blocks ahead of the consumer on `scheduler`'s pool. Jobs
    /// start at [`IoPriority::Prefetch`] and are escalated to
    /// [`IoPriority::MergeReadAhead`] once the consumer blocks on this
    /// source.
    pub fn spawn_scheduled(
        mut reader: RunReader<K>,
        readahead_blocks: usize,
        scheduler: IoSchedulerHandle,
    ) -> Self {
        let stats = reader.stats().clone();
        let ledger = OverlapLedger::new(stats.clone());
        reader.set_ledger(Some(ledger.clone()));
        let shared = Arc::new(PrefetchShared {
            state: Mutex::new(PrefetchState {
                ready: VecDeque::new(),
                reader: Some(reader),
                cap: readahead_blocks.max(1),
                job_active: true,
                eof: false,
                dropped: false,
            }),
            cond: Condvar::new(),
        });
        let class = IoClass::new(IoPriority::Prefetch);
        let job = shared.clone();
        scheduler.submit(&class, move || prefetch_job(&job));
        PrefetchingRunReader {
            shared,
            handle: scheduler,
            class,
            current: VecDeque::new(),
            stats,
            ledger,
            done: false,
            rows_yielded: 0,
        }
    }

    /// Rows yielded so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_yielded
    }

    /// The next decoded batch (rows plus prefix column), `Ok(None)` at end
    /// of run. Errors fuse the reader and tear down the background side.
    /// This is the batched merge loop's pull: a whole prefetched block
    /// changes hands per call, prefix column included.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch<K>>> {
        if !self.current.is_empty() {
            // Rows buffered by a previous row-at-a-time `next` call: drain
            // them first so the two pull styles compose (cold path).
            let rows: Vec<Row<K>> = std::mem::take(&mut self.current).into();
            self.rows_yielded += rows.len() as u64;
            return Ok(Some(RowBatch::from_rows(rows)));
        }
        if self.done {
            return Ok(None);
        }
        match self.recv_batch() {
            Some(Ok(batch)) => {
                self.rows_yielded += batch.len() as u64;
                Ok(Some(batch))
            }
            Some(Err(e)) => {
                self.done = true;
                self.shut_down();
                Err(e)
            }
            None => {
                self.done = true;
                self.shut_down();
                Ok(None)
            }
        }
    }

    /// Submits a fill job unless one already owns the component or the
    /// run is exhausted.
    fn kick(&self, st: &mut PrefetchState<K>) {
        if !st.job_active && !st.eof && st.reader.is_some() {
            st.job_active = true;
            let job = self.shared.clone();
            self.handle.submit(&self.class, move || prefetch_job(&job));
        }
    }

    /// The next batch from the background side (or in-band error), `None`
    /// at end of run. Only the blocked time counts as compute-side wait;
    /// the read and decode themselves were booked by the background side.
    fn recv_batch(&mut self) -> Option<Result<RowBatch<K>>> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(item) = st.ready.pop_front() {
                // Buffer space freed: restart the fill if needed.
                self.kick(&mut st);
                return Some(item);
            }
            if st.eof {
                return None;
            }
            // The consumer is now blocked on this source: escalate its
            // jobs — including any already queued — so the pool serves a
            // draining merge input before speculation.
            self.class.set(IoPriority::MergeReadAhead);
            self.kick(&mut st);
            let started = Instant::now();
            st = wait(&self.shared.cond, st);
            let waited = started.elapsed();
            self.stats.record_io_wait(waited);
            self.ledger.record_wait(waited);
        }
    }

    /// Tears down the background side and settles the overlap ledger.
    fn shut_down(&mut self) {
        let mut st = lock(&self.shared.state);
        st.dropped = true;
        st.ready.clear();
        st.reader = None;
        self.shared.cond.notify_all();
        while st.job_active {
            st = wait(&self.shared.cond, st);
        }
        drop(st);
        self.ledger.settle();
    }
}

impl<K: SortKey> Iterator for PrefetchingRunReader<K> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.current.pop_front() {
                self.rows_yielded += 1;
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            match self.recv_batch() {
                Some(Ok(batch)) => self.current = batch.rows.into(),
                Some(Err(e)) => {
                    self.done = true;
                    self.shut_down();
                    return Some(Err(e));
                }
                None => {
                    self.done = true;
                    self.shut_down();
                    return None;
                }
            }
        }
    }
}

impl<K: SortKey> Drop for PrefetchingRunReader<K> {
    fn drop(&mut self) {
        self.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use crate::memory::MemoryBackend;
    use crate::run::RunWriter;
    use crate::scheduler::IoScheduler;
    use crate::throttle::{ThrottleModel, ThrottledBackend};
    use histok_types::SortOrder;

    /// Writes keys `keys` as one run: through a spill pipeline on `sched`
    /// when given, synchronously otherwise.
    fn write_run(
        be: &MemoryBackend,
        name: &str,
        keys: std::ops::Range<u64>,
        block_bytes: usize,
        sched: Option<&IoScheduler>,
    ) -> crate::run::RunMeta<u64> {
        let mut w: RunWriter<u64> = RunWriter::with_io(
            be,
            name,
            SortOrder::Ascending,
            IoStats::new(),
            block_bytes,
            sched.map(IoScheduler::handle),
        )
        .unwrap();
        for k in keys {
            w.append(&Row::new(k, vec![k as u8; 5])).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn pipelined_and_sync_runs_are_byte_identical() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let sync = write_run(&be, "sync", 0..500, 128, None);
        let piped = write_run(&be, "piped", 0..500, 128, Some(&sched));
        assert_eq!(sync.rows, piped.rows);
        assert_eq!(sync.bytes, piped.bytes);
        assert_eq!(sync.blocks, piped.blocks);
        let mut a = vec![0u8; sync.bytes as usize];
        let mut b = vec![0u8; piped.bytes as usize];
        be.open("sync").unwrap().read_exact(&mut a).unwrap();
        be.open("piped").unwrap().read_exact(&mut b).unwrap();
        assert_eq!(a, b, "pipelined spill changed the on-storage bytes");
        assert!(sched.metrics().submitted[IoPriority::SpillWrite as usize] > 0);
    }

    /// A slow producer over a throttled backend: the writer keeps up, so
    /// nearly all of its storage busy time is genuinely hidden and must
    /// settle as overlapped I/O — while the per-component invariant
    /// `io_wait + overlapped ≤ wall` holds.
    #[test]
    fn pipelined_writer_records_overlapped_io() {
        let sched = IoScheduler::new(1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let stats = IoStats::new();
        let started = Instant::now();
        let mut w: RunWriter<u64> = RunWriter::with_io(
            &be,
            "ov",
            SortOrder::Ascending,
            stats.clone(),
            64,
            Some(sched.handle()),
        )
        .unwrap();
        for k in 0..40u64 {
            w.append(&Row::key_only(k)).unwrap();
            // Compute "work" between appends so the pool worker drains
            // the queue and its sleeps overlap with this.
            std::thread::sleep(Duration::from_micros(300));
        }
        w.finish().unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        let snap = stats.snapshot();
        assert!(snap.write_ops > 1);
        assert!(snap.overlapped_io_ns > 0, "pipeline writes should book overlapped time");
        assert_eq!(snap.rows_written, 40);
        assert!(
            snap.io_wait_ns + snap.overlapped_io_ns <= wall,
            "io_wait {} + overlapped {} must not exceed wall {wall}",
            snap.io_wait_ns,
            snap.overlapped_io_ns,
        );
    }

    /// Regression for the finish() double-count: the drain interval must
    /// not be booked as io_wait *and* overlapped. A fast producer over a
    /// slow backend maximizes the drain, which the old accounting
    /// double-counted past wall time.
    #[test]
    fn wait_and_overlap_never_double_count_the_finish_drain() {
        let sched = IoScheduler::new(1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(400),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let stats = IoStats::new();
        let started = Instant::now();
        let mut w: RunWriter<u64> = RunWriter::with_io(
            &be,
            "dc",
            SortOrder::Ascending,
            stats.clone(),
            64,
            Some(sched.handle()),
        )
        .unwrap();
        // Push everything at once: the pipeline queue fills and finish()
        // has a long drain to sit out.
        for k in 0..60u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        w.finish().unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        let snap = stats.snapshot();
        assert!(snap.io_wait_ns > 0, "a saturated pipeline must book wait");
        assert!(
            snap.io_wait_ns + snap.overlapped_io_ns <= wall,
            "io_wait {} + overlapped {} exceeds wall {wall}",
            snap.io_wait_ns,
            snap.overlapped_io_ns,
        );
    }

    #[test]
    fn prefetching_reader_yields_identical_rows() {
        for workers in [1, 2] {
            let be = MemoryBackend::new();
            let sched = IoScheduler::new(workers);
            let meta = write_run(&be, "pf", 0..1000, 96, Some(&sched));
            let plain: Vec<u64> = RunReader::open(&be, &meta, IoStats::new())
                .unwrap()
                .map(|r| r.unwrap().key)
                .collect();
            let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
            let mut pf = PrefetchingRunReader::spawn_scheduled(reader, 2, sched.handle());
            let fetched: Vec<u64> = pf.by_ref().map(|r| r.unwrap().key).collect();
            assert_eq!(plain, fetched, "workers={workers}");
            assert_eq!(pf.rows_yielded(), 1000);
            let m = sched.metrics();
            assert!(m.submitted[IoPriority::Prefetch as usize] > 0, "prefetch must use the pool");
        }
    }

    #[test]
    fn prefetching_reader_resumes_after_skip() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let meta = write_run(&be, "sk", 0..600, 128, None);
        let stats = IoStats::new();
        let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        reader.skip_rows(450).unwrap();
        let rest: Vec<u64> = PrefetchingRunReader::spawn_scheduled(reader, 3, sched.handle())
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(rest, (450..600).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert!(snap.blocks_skipped > 0, "whole-block skips should be counted");
        assert!(snap.bytes_skipped > 0);
    }

    #[test]
    fn dropping_a_prefetching_reader_cancels_its_jobs() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        // Many small blocks so the prefetch jobs are still mid-run when the
        // consumer walks away.
        let meta = write_run(&be, "sdrop", 0..2000, 32, None);
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::spawn_scheduled(reader, 1, sched.handle());
        let first = pf.next().unwrap().unwrap();
        assert_eq!(first.key, 0);
        drop(pf); // must not deadlock and must not leave a runaway job
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = sched.metrics();
            if m.queue_depth == 0 && m.completed_total() == m.submitted_total() {
                break;
            }
            assert!(Instant::now() < deadline, "prefetch jobs leaked after drop");
            std::thread::yield_now();
        }
    }

    #[test]
    fn abandoned_pipelined_run_discards_the_object() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let mut w: RunWriter<u64> = RunWriter::with_io(
            &be,
            "gone",
            SortOrder::Ascending,
            IoStats::new(),
            64,
            Some(sched.handle()),
        )
        .unwrap();
        for k in 0..100u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        drop(w); // no finish: the job must drop the writer, discarding it
        assert!(RunReader::<u64>::open_named(&be, "gone", IoStats::new()).is_err());
    }
}
