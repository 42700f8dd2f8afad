//! Disaggregated-storage latency model.
//!
//! In the paper's production environment "the cost of an I/O is a network
//! round trip, plus the invocation of the storage service, plus an I/O in a
//! shared and busy disk drive" (§2.1). [`ThrottledBackend`] decorates any
//! other backend with that cost model: a fixed per-request latency plus a
//! per-byte bandwidth cost.
//!
//! Two accounting modes are supported:
//!
//! * **real** — the calling thread sleeps, so wall-clock measurements show
//!   the I/O-bound behaviour of the paper's testbed. With the overlapped-I/O
//!   layer the "calling thread" is whichever thread issues the storage
//!   request — an I/O pool worker running a spill-pipeline or prefetch job
//!   when those are enabled — so real-sleep latency lands on the I/O side and can be hidden by
//!   compute, exactly like a slow remote service;
//! * **virtual** — the cost is accumulated in a shared counter without
//!   sleeping, letting big experiments report modelled I/O time instantly.
//!
//! The virtual clock is shared by every reader/writer handle the backend
//! hands out, and with background I/O threads several of them charge it
//! concurrently; accumulation is a saturating compare-and-swap so concurrent
//! charges neither wrap nor lose updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use histok_types::Result;

use crate::backend::{SpillReader, SpillWriter, StorageBackend};

/// The cost model for one storage request direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleModel {
    /// Fixed cost per request (network round trip + service invocation).
    pub per_op: Duration,
    /// Cost per byte moved (inverse bandwidth).
    pub per_byte: Duration,
    /// When true the thread actually sleeps; when false the cost is only
    /// accumulated in the virtual clock.
    pub sleep: bool,
}

impl ThrottleModel {
    /// A model of a busy disaggregated service: 2 ms per round trip and
    /// ~200 MB/s effective sequential bandwidth. `sleep` defaults to false
    /// (virtual accounting).
    pub fn disaggregated() -> Self {
        ThrottleModel {
            per_op: Duration::from_micros(2_000),
            per_byte: Duration::from_nanos(5),
            sleep: false,
        }
    }

    /// No cost at all (useful to A/B the decorator itself).
    pub fn free() -> Self {
        ThrottleModel { per_op: Duration::ZERO, per_byte: Duration::ZERO, sleep: false }
    }

    /// Enables real sleeping.
    pub fn sleeping(mut self) -> Self {
        self.sleep = true;
        self
    }

    fn cost(&self, bytes: usize) -> Duration {
        // Computed in u128 nanoseconds: `Duration::saturating_mul` takes a
        // u32 factor, so `bytes as u32` would silently truncate requests of
        // 4 GiB and beyond (the paper's experiments move hundreds of GiB).
        let byte_ns = self.per_byte.as_nanos() * bytes as u128;
        let total_ns = self.per_op.as_nanos().saturating_add(byte_ns);
        let secs = (total_ns / 1_000_000_000) as u64;
        let nanos = (total_ns % 1_000_000_000) as u32;
        Duration::new(secs, nanos)
    }
}

/// A [`StorageBackend`] decorator charging a [`ThrottleModel`] per request.
#[derive(Clone)]
pub struct ThrottledBackend<B> {
    inner: B,
    write_model: ThrottleModel,
    read_model: ThrottleModel,
    virtual_ns: Arc<AtomicU64>,
}

impl<B: StorageBackend> ThrottledBackend<B> {
    /// Wraps `inner`, charging `model` for both reads and writes.
    pub fn new(inner: B, model: ThrottleModel) -> Self {
        ThrottledBackend {
            inner,
            write_model: model,
            read_model: model,
            virtual_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Wraps `inner` with separate read and write models.
    pub fn asymmetric(inner: B, write: ThrottleModel, read: ThrottleModel) -> Self {
        ThrottledBackend {
            inner,
            write_model: write,
            read_model: read,
            virtual_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total modelled I/O time accumulated so far.
    pub fn virtual_io_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_ns.load(Ordering::Relaxed))
    }

    /// Resets the virtual clock (between experiment phases).
    pub fn reset_virtual_clock(&self) {
        self.virtual_ns.store(0, Ordering::Relaxed);
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

fn charge(clock: &AtomicU64, model: &ThrottleModel, bytes: usize) {
    let cost = model.cost(bytes);
    let cost_ns = cost.as_nanos().min(u128::from(u64::MAX)) as u64;
    // Saturating CAS loop: `fetch_add` would wrap on overflow, and with
    // I/O pool workers many handles charge this clock concurrently.
    let mut current = clock.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(cost_ns);
        match clock.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(observed) => current = observed,
        }
    }
    if model.sleep && !cost.is_zero() {
        std::thread::sleep(cost);
    }
}

struct ThrottledWriter {
    inner: Box<dyn SpillWriter>,
    model: ThrottleModel,
    clock: Arc<AtomicU64>,
}

impl SpillWriter for ThrottledWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        charge(&self.clock, &self.model, data.len());
        self.inner.write_all(data)
    }
    fn finish(&mut self) -> Result<u64> {
        charge(&self.clock, &self.model, 0);
        self.inner.finish()
    }
}

struct ThrottledReader {
    inner: Box<dyn SpillReader>,
    model: ThrottleModel,
    clock: Arc<AtomicU64>,
}

impl SpillReader for ThrottledReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        charge(&self.clock, &self.model, buf.len());
        self.inner.read_exact(buf)
    }
    fn skip(&mut self, n: u64) -> Result<()> {
        // Skipping costs one round trip but no bandwidth (the service can
        // reposition without shipping bytes).
        charge(&self.clock, &self.model, 0);
        let _ = n;
        self.inner.skip(n)
    }
}

impl<B: StorageBackend> StorageBackend for ThrottledBackend<B> {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        let inner = self.inner.create(name)?;
        Ok(Box::new(ThrottledWriter {
            inner,
            model: self.write_model,
            clock: self.virtual_ns.clone(),
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let inner = self.inner.open(name)?;
        Ok(Box::new(ThrottledReader {
            inner,
            model: self.read_model,
            clock: self.virtual_ns.clone(),
        }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn modelled_io_ns(&self) -> u64 {
        self.virtual_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;

    #[test]
    fn virtual_clock_accumulates_op_and_byte_costs() {
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::from_nanos(10),
            sleep: false,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let mut w = be.create("x").unwrap();
        w.write_all(&[0u8; 1000]).unwrap(); // 100µs + 10µs
        w.finish().unwrap(); // 100µs
        assert_eq!(be.virtual_io_time(), Duration::from_micros(210));

        let mut r = be.open("x").unwrap();
        let mut buf = [0u8; 1000];
        r.read_exact(&mut buf).unwrap(); // +110µs
        assert_eq!(be.virtual_io_time(), Duration::from_micros(320));
    }

    #[test]
    fn reset_clears_clock() {
        let be = ThrottledBackend::new(MemoryBackend::new(), ThrottleModel::disaggregated());
        let mut w = be.create("y").unwrap();
        w.write_all(&[1u8; 10]).unwrap();
        w.finish().unwrap();
        assert!(be.virtual_io_time() > Duration::ZERO);
        be.reset_virtual_clock();
        assert_eq!(be.virtual_io_time(), Duration::ZERO);
    }

    #[test]
    fn free_model_charges_nothing() {
        let be = ThrottledBackend::new(MemoryBackend::new(), ThrottleModel::free());
        let mut w = be.create("z").unwrap();
        w.write_all(&[0u8; 1_000_000]).unwrap();
        w.finish().unwrap();
        assert_eq!(be.virtual_io_time(), Duration::ZERO);
    }

    #[test]
    fn data_flows_through_unmodified() {
        let be = ThrottledBackend::new(MemoryBackend::new(), ThrottleModel::disaggregated());
        let mut w = be.create("data").unwrap();
        w.write_all(b"abcdef").unwrap();
        w.finish().unwrap();
        assert_eq!(be.size_of("data").unwrap(), 6);
        let mut r = be.open("data").unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap();
        r.skip(1).unwrap();
        let mut rest = [0u8; 2];
        r.read_exact(&mut rest).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(&rest, b"ef");
        be.delete("data").unwrap();
        assert!(be.open("data").is_err());
    }

    #[test]
    fn cost_of_requests_beyond_4gib_does_not_truncate() {
        // 5 GiB at 5 ns/byte is ~26.8 s of bandwidth cost. The old
        // `bytes as u32` truncation would have charged for just 1 GiB.
        let model = ThrottleModel::disaggregated();
        let five_gib: usize = 5 * (1 << 30);
        let cost = model.cost(five_gib);
        let expected_byte_ns = 5u128 * five_gib as u128;
        assert_eq!(
            cost,
            Duration::from_micros(2_000) + Duration::from_nanos(expected_byte_ns as u64)
        );
        assert!(cost > Duration::from_secs(25), "truncated cost: {cost:?}");
    }

    #[test]
    fn modelled_io_is_exposed_through_the_backend_trait() {
        let be = ThrottledBackend::new(MemoryBackend::new(), ThrottleModel::disaggregated());
        let mut w = be.create("m").unwrap();
        w.write_all(&[0u8; 4096]).unwrap();
        w.finish().unwrap();
        let via_trait = (&be as &dyn StorageBackend).modelled_io_ns();
        assert_eq!(Duration::from_nanos(via_trait), be.virtual_io_time());
        assert!(via_trait > 0);
    }

    #[test]
    fn concurrent_charges_neither_wrap_nor_lose_updates() {
        let model = ThrottleModel {
            per_op: Duration::from_nanos(1_000),
            per_byte: Duration::ZERO,
            sleep: false,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let mut w = be.create("c").unwrap();
        w.write_all(&[0u8; 1000]).unwrap();
        w.finish().unwrap();
        be.reset_virtual_clock();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let be = be.clone();
                std::thread::spawn(move || {
                    let mut r = be.open("c").unwrap();
                    let mut buf = [0u8; 1];
                    for _ in 0..1_000 {
                        r.read_exact(&mut buf).unwrap();
                        r.skip(0).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 8 threads × 1000 iterations × 2 charged ops × 1µs each.
        assert_eq!(be.virtual_io_time(), Duration::from_micros(16_000));
    }

    #[test]
    fn charge_saturates_instead_of_wrapping() {
        let clock = AtomicU64::new(u64::MAX - 10);
        let model = ThrottleModel {
            per_op: Duration::from_nanos(1_000),
            per_byte: Duration::ZERO,
            sleep: false,
        };
        charge(&clock, &model, 0);
        assert_eq!(clock.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn asymmetric_models_charge_separately() {
        let write = ThrottleModel {
            per_op: Duration::from_micros(50),
            per_byte: Duration::ZERO,
            sleep: false,
        };
        let be = ThrottledBackend::asymmetric(MemoryBackend::new(), write, ThrottleModel::free());
        let mut w = be.create("a").unwrap();
        w.write_all(&[0u8; 8]).unwrap();
        w.finish().unwrap();
        let at_finish = be.virtual_io_time();
        assert_eq!(at_finish, Duration::from_micros(100));
        let mut r = be.open("a").unwrap();
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(be.virtual_io_time(), at_finish); // reads are free here
    }
}
