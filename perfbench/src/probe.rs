//! A storage probe: a [`StorageBackend`] decorator created once per query
//! around the shared backend. It counts and times every storage call,
//! split by the query's own thread versus other threads (I/O pool,
//! merge partitions), tracks the query's live and peak stored bytes, and
//! in traced runs records one span per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use histok_storage::{SpillReader, SpillWriter, StorageBackend};
use histok_types::Result;

use crate::trace::{Span, Tracer};

/// The storage calls the probe distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `StorageBackend::create`.
    Create = 0,
    /// `StorageBackend::open`.
    Open = 1,
    /// `SpillWriter::write_all`.
    Write = 2,
    /// `SpillWriter::finish`.
    Finish = 3,
    /// `SpillReader::read_exact`.
    Read = 4,
    /// `SpillReader::skip`.
    Skip = 5,
    /// `StorageBackend::delete`.
    Delete = 6,
}

const OPS: usize = 7;

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Create => "storage.create",
            Op::Open => "storage.open",
            Op::Write => "storage.write_all",
            Op::Finish => "storage.finish",
            Op::Read => "storage.read_exact",
            Op::Skip => "storage.skip",
            Op::Delete => "storage.delete",
        }
    }
}

/// Bytes stored on the shared backend by all queries together.
#[derive(Debug, Default)]
pub struct StoreGauge {
    live: AtomicU64,
    peak: AtomicU64,
}

impl StoreGauge {
    fn add(&self, bytes: u64) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// High-water mark of bytes stored at once.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Where a traced query's storage spans go.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// The run's span sink.
    pub tracer: Arc<Tracer>,
    /// The query's id.
    pub query: u64,
    /// The query span, parent of the storage calls made on its thread.
    pub query_span: u64,
}

/// What one query's probe saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeReport {
    /// Calls on the query's thread, by [`Op`].
    pub fg_calls: [u64; OPS],
    /// Calls on other threads, by [`Op`].
    pub bg_calls: [u64; OPS],
    /// Nanoseconds inside storage calls on the query's thread.
    pub fg_busy_ns: u64,
    /// Nanoseconds inside storage calls on other threads.
    pub bg_busy_ns: u64,
    /// Bytes passed to `write_all`.
    pub bytes_written: u64,
    /// Bytes filled by `read_exact`.
    pub bytes_read: u64,
    /// High-water mark of this query's bytes stored at once.
    pub peak_live_bytes: u64,
}

impl ProbeReport {
    /// Calls of `op` on any thread.
    pub fn calls(&self, op: Op) -> u64 {
        self.fg_calls[op as usize] + self.bg_calls[op as usize]
    }
}

#[derive(Debug)]
struct Probe {
    query_thread: ThreadId,
    calls: [[AtomicU64; OPS]; 2],
    busy_ns: [AtomicU64; 2],
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
    objects: Mutex<HashMap<String, u64>>,
    store: Arc<StoreGauge>,
    trace: Option<TraceCtx>,
}

impl Probe {
    /// Runs one storage call, booking its count, time and span.
    fn timed<T>(&self, op: Op, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let fg = std::thread::current().id() == self.query_thread;
        let side = usize::from(!fg);
        self.calls[side][op as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[side]
            .fetch_add(end.duration_since(start).as_nanos() as u64, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.tracer.record(Span {
                name: op.span_name(),
                query: t.query,
                id: t.tracer.next_id(),
                parent: fg.then_some(t.query_span),
                start_ns: t.tracer.ns(start),
                end_ns: t.tracer.ns(end),
                summed: false,
            });
        }
        out
    }

    fn add_live(&self, bytes: u64) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.store.add(bytes);
    }

    fn sub_live(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
        self.store.sub(bytes);
    }

    fn objects(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.objects.lock().expect("probe object map poisoned by a panicking thread")
    }
}

/// The per-query decorator; see the module docs.
#[derive(Clone)]
pub struct ProbeBackend {
    inner: Arc<dyn StorageBackend>,
    probe: Arc<Probe>,
}

impl std::fmt::Debug for ProbeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeBackend").field("probe", &self.probe).finish_non_exhaustive()
    }
}

impl ProbeBackend {
    /// Wraps `inner` for one query executed on the calling thread.
    pub fn new(
        inner: Arc<dyn StorageBackend>,
        store: Arc<StoreGauge>,
        trace: Option<TraceCtx>,
    ) -> Self {
        let probe = Probe {
            query_thread: std::thread::current().id(),
            calls: Default::default(),
            busy_ns: Default::default(),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            objects: Mutex::new(HashMap::new()),
            store,
            trace,
        };
        ProbeBackend { inner, probe: Arc::new(probe) }
    }

    /// Counters so far.
    pub fn report(&self) -> ProbeReport {
        let p = &self.probe;
        let load =
            |side: usize| std::array::from_fn(|op| p.calls[side][op].load(Ordering::Relaxed));
        ProbeReport {
            fg_calls: load(0),
            bg_calls: load(1),
            fg_busy_ns: p.busy_ns[0].load(Ordering::Relaxed),
            bg_busy_ns: p.busy_ns[1].load(Ordering::Relaxed),
            bytes_written: p.bytes_written.load(Ordering::Relaxed),
            bytes_read: p.bytes_read.load(Ordering::Relaxed),
            peak_live_bytes: p.peak.load(Ordering::Relaxed),
        }
    }
}

impl StorageBackend for ProbeBackend {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        let inner = self.probe.timed(Op::Create, || self.inner.create(name))?;
        // Creating truncates: a previous object of that name is gone.
        if let Some(old) = self.probe.objects().remove(name) {
            self.probe.sub_live(old);
        }
        Ok(Box::new(ProbeWriter {
            inner,
            probe: self.probe.clone(),
            name: name.to_string(),
            written: 0,
            finished: false,
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let inner = self.probe.timed(Op::Open, || self.inner.open(name))?;
        Ok(Box::new(ProbeReader { inner, probe: self.probe.clone() }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.probe.timed(Op::Delete, || self.inner.delete(name))?;
        if let Some(size) = self.probe.objects().remove(name) {
            self.probe.sub_live(size);
        }
        Ok(())
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn modelled_io_ns(&self) -> u64 {
        self.inner.modelled_io_ns()
    }
}

struct ProbeWriter {
    inner: Box<dyn SpillWriter>,
    probe: Arc<Probe>,
    name: String,
    written: u64,
    finished: bool,
}

impl SpillWriter for ProbeWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.probe.timed(Op::Write, || self.inner.write_all(data))?;
        let n = data.len() as u64;
        self.written += n;
        self.probe.bytes_written.fetch_add(n, Ordering::Relaxed);
        self.probe.add_live(n);
        Ok(())
    }

    fn finish(&mut self) -> Result<u64> {
        let size = self.probe.timed(Op::Finish, || self.inner.finish())?;
        self.finished = true;
        let replaced = self.probe.objects().insert(self.name.clone(), self.written);
        if let Some(old) = replaced {
            self.probe.sub_live(old);
        }
        Ok(size)
    }
}

impl Drop for ProbeWriter {
    fn drop(&mut self) {
        // An unfinished object is discarded by the backend.
        if !self.finished {
            self.probe.sub_live(self.written);
        }
    }
}

struct ProbeReader {
    inner: Box<dyn SpillReader>,
    probe: Arc<Probe>,
}

impl SpillReader for ProbeReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.probe.timed(Op::Read, || self.inner.read_exact(buf))?;
        self.probe.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.probe.timed(Op::Skip, || self.inner.skip(n))
    }
}
