//! Failure and cancellation paths through the shared I/O worker pool.
//!
//! Every spill and prefetch here runs its background work as jobs on an
//! [`IoScheduler`], and every test body runs under a watchdog with a hard
//! timeout — the failure mode these paths guard
//! against is a *hang* (a job that never completes, a consumer blocked on
//! a cancelled source, a worker pool wedged by a gate), which a plain
//! assert cannot catch.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_storage::{
    FaultBackend, FaultPlan, IoPriority, IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader,
    RunReader, RunWriter, StorageBackend, ThrottleModel, ThrottledBackend,
};
use histok_types::{Error, Result, Row, SortOrder};

const TEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `body` on its own thread and panics if it does not complete in
/// time — converting a deadlocked job or consumer into a test failure.
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

/// Polls until every submitted job has completed: after a cancellation or
/// error the pool must drain, not hold abandoned jobs forever.
fn assert_no_leaked_jobs(sched: &IoScheduler) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = sched.metrics();
        if m.completed_total() == m.submitted_total() && m.queue_depth == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked jobs: {} submitted, {} completed, {} queued",
            m.submitted_total(),
            m.completed_total(),
            m.queue_depth
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn write_run_scheduled(
    be: &dyn StorageBackend,
    sched: &IoScheduler,
    name: &str,
    n: u64,
    block_bytes: usize,
) -> histok_storage::RunMeta<u64> {
    let mut w = RunWriter::with_io(
        be,
        name,
        SortOrder::Ascending,
        IoStats::new(),
        block_bytes,
        Some(sched.handle()),
    )
    .unwrap();
    for k in 0..n {
        w.append(&Row::new(k, vec![k as u8; 16])).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn scheduled_write_error_fails_finish_and_leaks_no_jobs() {
    with_watchdog(|| {
        let sched = IoScheduler::new(2);
        let be = FaultBackend::new(
            MemoryBackend::new(),
            FaultPlan { fail_write_after_bytes: Some(256), ..FaultPlan::none() },
        );
        let mut w: RunWriter<u64> = RunWriter::with_io(
            &be,
            "boom",
            SortOrder::Ascending,
            IoStats::new(),
            64,
            Some(sched.handle()),
        )
        .unwrap();
        // The pipeline job trips the fault on an early block; the error
        // must surface on a later append or, at the latest, on finish —
        // never as a panic or a hang.
        let mut failed = false;
        for k in 0..5_000u64 {
            if w.append(&Row::new(k, vec![0u8; 16])).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            assert!(w.finish().is_err(), "injected write fault was swallowed");
        } else {
            drop(w);
        }
        assert!(be.fault_fired());
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn scheduled_create_error_fails_construction() {
    with_watchdog(|| {
        let sched = IoScheduler::new(1);
        let be = FaultBackend::new(
            MemoryBackend::new(),
            FaultPlan { fail_create: true, ..FaultPlan::none() },
        );
        let r: Result<RunWriter<u64>> = RunWriter::with_io(
            &be,
            "x",
            SortOrder::Ascending,
            IoStats::new(),
            64,
            Some(sched.handle()),
        );
        assert!(r.is_err());
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn crc_corruption_surfaces_through_scheduled_prefetch_and_fuses() {
    with_watchdog(|| {
        let sched = IoScheduler::new(2);
        let be = FaultBackend::new(
            MemoryBackend::new(),
            // Past the file header (8) + first block, inside a later
            // payload: some rows decode fine before the error arrives.
            FaultPlan { corrupt_write_byte_at: Some(400), ..FaultPlan::none() },
        );
        let meta = write_run_scheduled(&be, &sched, "corrupt", 500, 64);
        assert!(be.fault_fired());
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::spawn_scheduled(reader, 2, sched.handle());
        let mut good = 0u64;
        let mut err: Option<Error> = None;
        for item in pf.by_ref() {
            match item {
                Ok(row) => {
                    assert_eq!(row.key, good);
                    good += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(Error::Corrupt(_))), "got {err:?}");
        assert!(good > 0, "corruption in a later block should leave earlier rows readable");
        // Fused: after the error the iterator ends; it does not resurrect
        // the decode job or hang waiting for one.
        assert!(pf.next().is_none());
        drop(pf);
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn read_error_mid_run_surfaces_through_scheduled_prefetch() {
    with_watchdog(|| {
        let sched = IoScheduler::new(2);
        let inner = MemoryBackend::new();
        let meta = write_run_scheduled(&inner, &sched, "readerr", 1_000, 64);
        let be = FaultBackend::new(
            inner,
            FaultPlan { fail_read_after_bytes: Some(512), ..FaultPlan::none() },
        );
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let results: Vec<Result<Row<u64>>> =
            PrefetchingRunReader::spawn_scheduled(reader, 3, sched.handle()).collect();
        assert!(results.last().unwrap().is_err());
        assert!(results.iter().take(results.len() - 1).all(Result::is_ok));
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn dropping_scheduled_prefetchers_mid_stream_cancels_their_jobs() {
    with_watchdog(|| {
        // A sleeping throttle keeps the decode jobs genuinely busy in I/O
        // when the consumer walks away after one row.
        let sched = IoScheduler::new(2);
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let mut readers = Vec::new();
        for i in 0..4 {
            let meta = write_run_scheduled(&be, &sched, &format!("r{i}"), 2_000, 32);
            readers.push(PrefetchingRunReader::spawn_scheduled(
                RunReader::open(&be, &meta, IoStats::new()).unwrap(),
                1,
                sched.handle(),
            ));
        }
        for pf in &mut readers {
            let first = pf.next().unwrap().unwrap();
            assert_eq!(first.key, 0);
        }
        // Drop all four mid-run; each Drop marks its source cancelled and
        // the in-flight job must notice and terminate instead of decoding
        // the remaining ~2,000 rows or blocking on a full buffer forever.
        drop(readers);
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn scheduled_spill_under_sleeping_throttle_matches_sync_bytes() {
    with_watchdog(|| {
        // Storage slower than compute: the bounded pipeline queue exerts
        // backpressure on every block. The run must still complete and be
        // byte-identical to the synchronous spill of the same rows.
        let sched = IoScheduler::new(1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let piped = write_run_scheduled(&be, &sched, "bp-piped", 1_500, 64);
        let mut sync: RunWriter<u64> =
            RunWriter::with_block_bytes(&be, "bp-sync", SortOrder::Ascending, IoStats::new(), 64)
                .unwrap();
        for k in 0..1_500u64 {
            sync.append(&Row::new(k, vec![k as u8; 16])).unwrap();
        }
        let sync = sync.finish().unwrap();
        assert_eq!(piped.bytes, sync.bytes);
        assert_eq!(piped.blocks, sync.blocks);
        let a: Vec<u64> =
            RunReader::open(&be, &piped, IoStats::new()).unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(a, (0..1_500).collect::<Vec<_>>());
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn more_sources_than_workers_never_deadlocks() {
    with_watchdog(|| {
        // Eight prefetching sources share a one-worker pool: at most one
        // decode job runs at a time and the other seven wait queued. A
        // blocking job design would wedge here; the actor jobs must
        // interleave and every source must stream to completion.
        let sched = IoScheduler::new(1);
        let be = MemoryBackend::new();
        let mut readers = Vec::new();
        for i in 0..8 {
            let meta = write_run_scheduled(&be, &sched, &format!("s{i}"), 600, 64);
            readers.push(PrefetchingRunReader::spawn_scheduled(
                RunReader::open(&be, &meta, IoStats::new()).unwrap(),
                2,
                sched.handle(),
            ));
        }
        // Round-robin consumption keeps all eight sources hungry at once.
        let mut counts = vec![0u64; readers.len()];
        let mut live = readers.len();
        while live > 0 {
            live = 0;
            for (i, pf) in readers.iter_mut().enumerate() {
                if let Some(row) = pf.next() {
                    assert_eq!(row.unwrap().key, counts[i]);
                    counts[i] += 1;
                    live += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 600));
        // Consumer-side blocking escalates queued decode jobs to merge
        // read-ahead priority; those completions are tagged by the class
        // they held at dispatch.
        let m = sched.metrics();
        assert!(m.submitted[IoPriority::Prefetch as usize] > 0);
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn backend_gate_limits_in_flight_jobs_without_wedging_the_pool() {
    with_watchdog(|| {
        // A per-backend gate of one on a four-worker pool: jobs for this
        // backend run one at a time while the pool stays responsive, and
        // everything still completes.
        let sched = IoScheduler::with_backend_limit(4, 1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(50),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be: Arc<dyn StorageBackend> =
            Arc::new(ThrottledBackend::new(MemoryBackend::new(), model));
        let handle = sched.for_backend(&be);
        let mut w: RunWriter<u64> = RunWriter::with_io(
            be.as_ref(),
            "gated",
            SortOrder::Ascending,
            IoStats::new(),
            64,
            Some(handle.clone()),
        )
        .unwrap();
        for k in 0..1_000u64 {
            w.append(&Row::new(k, vec![k as u8; 16])).unwrap();
        }
        let meta = w.finish().unwrap();
        let keys: Vec<u64> = PrefetchingRunReader::spawn_scheduled(
            RunReader::open(be.as_ref(), &meta, IoStats::new()).unwrap(),
            2,
            handle,
        )
        .map(|r| r.unwrap().key)
        .collect();
        assert_eq!(keys, (0..1_000).collect::<Vec<_>>());
        assert_no_leaked_jobs(&sched);
    });
}

#[test]
fn pool_outlives_the_dropped_scheduler_while_sources_hold_handles() {
    with_watchdog(|| {
        // Drop the caller's scheduler clone while sources are mid-stream:
        // each source's handle keeps the pool alive, so their queued jobs
        // still run; the workers join only when the last reader drops.
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let sched = IoScheduler::new(1);
        let mut readers = Vec::new();
        for i in 0..4 {
            let meta = write_run_scheduled(&be, &sched, &format!("q{i}"), 1_000, 32);
            readers.push(PrefetchingRunReader::spawn_scheduled(
                RunReader::open(&be, &meta, IoStats::new()).unwrap(),
                1,
                sched.handle(),
            ));
        }
        for pf in &mut readers {
            assert_eq!(pf.next().unwrap().unwrap().key, 0);
        }
        drop(sched);
        // The sources must still stream to completion on the shared pool.
        for (i, pf) in readers.into_iter().enumerate() {
            let rest: Vec<u64> = pf.map(|r| r.unwrap().key).collect();
            assert_eq!(rest, (1..1_000).collect::<Vec<_>>(), "source {i} truncated");
        }
    });
}
