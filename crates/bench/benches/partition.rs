//! Range-partitioned parallel-merge benchmarks.
//!
//! Two angles on the partitioned final merge:
//!  * a partition-count sweep (P ∈ {1, 2, 4, 8}) over few wide runs on a
//!    *sleeping* throttled backend — the case the layer exists for: each
//!    partition's range-scoped readers sleep concurrently, so the
//!    per-request latency divides by the partition count;
//!  * a skew-adversarial workload where one key accounts for half of
//!    every run — the planner cannot split inside a duplicate cluster
//!    (half-open ranges assign all duplicates to one partition), so the
//!    hot partition bounds the win. This measures how gracefully the
//!    speedup degrades, not whether it holds.
//!
//! Read-ahead runs on a shared I/O pool with one worker per open source
//! (`RUNS` per partition), so every range-scoped reader can keep a
//! request in flight.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_sort::{
    merge_runs_partitioned, merge_sources_tuned, open_source, MergeTuning, PartitionAttempt,
};
use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, RunCatalog, ThrottleModel, ThrottledBackend,
};
use histok_types::{Result, Row, SortOrder};

const RUNS: u64 = 4;
const ROWS_PER_RUN: u64 = 2_000;
const BLOCK_BYTES: usize = 512;

/// A fixed 20µs per storage request, slept for real: small enough to keep
/// the benchmark quick, large enough to dominate decode time.
fn throttled_catalog(prefix: &str) -> Arc<RunCatalog<u64>> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(20), per_byte: Duration::ZERO, sleep: true };
    Arc::new(
        RunCatalog::new(
            Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
            RunCatalog::<u64>::unique_prefix(prefix),
            SortOrder::Ascending,
            IoStats::new(),
        )
        .with_block_bytes(BLOCK_BYTES)
        .with_spill_pipeline(false),
    )
}

fn write_runs(cat: &RunCatalog<u64>, key: impl Fn(u64, u64) -> u64) {
    for r in 0..RUNS {
        let mut keys: Vec<u64> = (0..ROWS_PER_RUN).map(|j| key(r, j)).collect();
        keys.sort_unstable();
        let mut w = cat.start_run().unwrap();
        for k in keys {
            w.append(&Row::new(k, k.to_le_bytes().to_vec())).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
}

/// Merge tuning with read-ahead on a pool of one worker per source the
/// `threads`-way partitioned merge opens.
fn tuning(threads: usize) -> MergeTuning {
    MergeTuning { ovc: true, readahead_blocks: 2, ..MergeTuning::default() }
        .with_io_scheduler(Some(IoScheduler::new(threads * RUNS as usize)))
}

fn drain_partitioned(cat: &RunCatalog<u64>, threads: usize, tuning: &MergeTuning) -> u64 {
    let runs = cat.runs();
    let mut n = 0u64;
    if threads >= 2 {
        match merge_runs_partitioned(cat, &runs, vec![], threads, None, tuning).unwrap() {
            PartitionAttempt::Partitioned(merge) => {
                for row in merge {
                    black_box(row.unwrap());
                    n += 1;
                }
                return n;
            }
            PartitionAttempt::Serial(_) => {}
        }
    }
    let sources: Result<Vec<_>> = runs.iter().map(|m| open_source(cat, m, tuning)).collect();
    let tree = merge_sources_tuned(sources.unwrap(), SortOrder::Ascending, tuning).unwrap();
    for row in tree {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

/// Interleaved distinct keys: every partition gets an even share of every
/// run, the planner's best case.
fn bench_partition_sweep(c: &mut Criterion) {
    let cat = throttled_catalog("psweep");
    write_runs(&cat, |r, j| j * RUNS + r);
    let total = RUNS * ROWS_PER_RUN;
    let mut g = c.benchmark_group("partition/sweep_throttled");
    g.throughput(Throughput::Elements(total));
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let tuning = tuning(threads);
        g.bench_function(format!("p{threads}"), |b| {
            b.iter(|| assert_eq!(drain_partitioned(&cat, threads, &tuning), total))
        });
    }
    g.finish();
}

/// Half of every run is one hot key sitting in the middle of the key
/// space: the planner cannot split the cluster, so one partition carries
/// half the rows no matter how many threads are offered.
fn bench_partition_skewed(c: &mut Criterion) {
    let cat = throttled_catalog("pskew");
    let hot = ROWS_PER_RUN; // middle of the 0..2·ROWS_PER_RUN cold range
    write_runs(&cat, |r, j| {
        if j % 2 == 0 {
            hot
        } else {
            // Cold keys spread evenly on both sides of the hot cluster.
            (j * RUNS + r) * 2 % (2 * ROWS_PER_RUN * RUNS)
        }
    });
    let total = RUNS * ROWS_PER_RUN;
    let mut g = c.benchmark_group("partition/skew_adversarial");
    g.throughput(Throughput::Elements(total));
    g.sample_size(10);
    for threads in [1usize, 4] {
        let tuning = tuning(threads);
        g.bench_function(format!("p{threads}"), |b| {
            b.iter(|| assert_eq!(drain_partitioned(&cat, threads, &tuning), total))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_partition_sweep, bench_partition_skewed);
criterion_main!(benches);
