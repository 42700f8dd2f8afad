//! Overlap accounting through the shared I/O pool under a sleeping
//! throttle.
//!
//! The test body runs on a watchdog thread with a hard timeout: a pipeline
//! or prefetch job that never completes would otherwise hang the suite
//! instead of failing it. The failure and cancellation paths of the same
//! components are covered by `scheduler_failures.rs`.

use std::sync::mpsc;
use std::time::Duration;

use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader, RunReader, RunWriter, ThrottleModel,
    ThrottledBackend,
};
use histok_types::{Row, SortOrder};

const TEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `body` on its own thread and panics if it does not complete in
/// time — converting a deadlocked I/O job into a test failure.
fn with_watchdog<F: FnOnce() + Send + 'static>(body: F) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(TEST_TIMEOUT) {
        Ok(()) => handle.join().unwrap(),
        Err(_) => panic!("test body deadlocked (exceeded {TEST_TIMEOUT:?})"),
    }
}

#[test]
fn io_wait_and_overlap_are_both_recorded_under_throttle() {
    with_watchdog(|| {
        let sched = IoScheduler::new(1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let stats = IoStats::new();
        let mut w: RunWriter<u64> = RunWriter::with_io(
            &be,
            "acct",
            SortOrder::Ascending,
            stats.clone(),
            64,
            Some(sched.handle()),
        )
        .unwrap();
        for k in 0..400u64 {
            w.append(&Row::new(k, vec![0u8; 16])).unwrap();
            // Compute work between appends: the pool worker drains the
            // queue while this thread is busy, so the throttle sleeps are
            // genuinely hidden and settle as overlapped time.
            std::thread::sleep(Duration::from_micros(60));
        }
        let meta = w.finish().unwrap();
        let snap = stats.snapshot();
        // The pool worker slept in the throttle behind the producer's
        // compute: that latency is overlapped. The compute thread still
        // waited somewhere (at least the finish drain), and the two
        // counters never book the same nanoseconds twice.
        assert!(snap.overlapped_io_ns > 0);
        assert!(snap.io_wait_ns > 0);

        // Prefetched reads book the same way: storage latency lands on the
        // background side (overlapped) while the consumer does per-row
        // compute; the consumer only records its blocked waits.
        let before = stats.snapshot();
        let pf = PrefetchingRunReader::spawn_scheduled(
            RunReader::open(&be, &meta, stats.clone()).unwrap(),
            2,
            sched.handle(),
        );
        let mut read_rows = 0u64;
        for row in pf {
            row.unwrap();
            read_rows += 1;
            std::thread::sleep(Duration::from_micros(30));
        }
        assert_eq!(read_rows, 400);
        let read = stats.snapshot().since(&before);
        assert!(read.overlapped_io_ns > 0);
    });
}
