//! Differential grid: the shared I/O worker pool must be invisible in the
//! output.
//!
//! Every {key type} × {sort order} × {filter on/off} cell runs the same
//! input through [`HistogramTopK`] three times — a synchronous reference
//! (spill pipeline off, `readahead_blocks = 0`: no job ever reaches the
//! pool), `io_threads = 1` (maximum contention: every spill and
//! read-ahead job serialized through one worker) and `io_threads = 4` (the
//! default pool) — and asserts byte-identical output. Payloads are unique
//! per input row, so a divergence in tie-breaking, block framing, or job
//! scheduling shows up as a payload mismatch, not just a key mismatch.
//! Tiny memory and block sizes force spilling, multi-block runs and real
//! merge fan-in, so the pool genuinely carries jobs in every cell.

use histok_core::{HistogramTopK, TopKConfig, TopKConfigBuilder, TopKOperator};
use histok_storage::MemoryBackend;
use histok_types::{BytesKey, Row, SortKey, SortOrder, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 9_000;
const K: u64 = 500;

/// Duplicate-heavy keys (~40 distinct values): ties at block boundaries
/// and at the cutoff are exactly where ordering bugs would hide.
trait KeyGen: SortKey {
    fn draw(rng: &mut StdRng) -> Self;
}

impl KeyGen for u64 {
    fn draw(rng: &mut StdRng) -> Self {
        rng.gen_range(0..40)
    }
}

impl KeyGen for BytesKey {
    fn draw(rng: &mut StdRng) -> Self {
        let v: u32 = rng.gen_range(0..40);
        BytesKey::new(format!("shared-prefix-bytes-{v:02}"))
    }
}

fn workload<K: KeyGen>(seed: u64) -> Vec<Row<K>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUT).map(|i| Row::new(K::draw(&mut rng), format!("row-{i:05}").into_bytes())).collect()
}

fn spec_for(order: SortOrder) -> SortSpec {
    match order {
        SortOrder::Ascending => SortSpec::ascending(K),
        SortOrder::Descending => SortSpec::descending(K),
    }
}

fn scheduler_differential<K: KeyGen>(label: &str, order: SortOrder, filter: bool) {
    let rows = workload::<K>(0x10DD);
    let run = |builder: TopKConfigBuilder| -> Vec<Row<K>> {
        let cfg = builder
            .memory_budget(16 * 1024)
            .block_bytes(512)
            .fan_in(4)
            .filter_enabled(filter)
            .build()
            .expect("grid config");
        let mut op =
            HistogramTopK::new(spec_for(order), cfg, MemoryBackend::new()).expect("operator");
        for row in &rows {
            op.push(row.clone()).expect("push");
        }
        op.finish().expect("finish").map(|r| r.expect("row")).collect()
    };
    let reference = run(TopKConfig::builder().spill_pipeline(false).readahead_blocks(0));
    assert_eq!(reference.len(), K as usize, "{label}: short output");
    for threads in [1usize, 4] {
        let pooled = run(TopKConfig::builder().readahead_blocks(3).io_threads(threads));
        assert_eq!(
            reference.len(),
            pooled.len(),
            "{label}: row counts diverged at io_threads={threads}"
        );
        for (i, (a, b)) in reference.iter().zip(&pooled).enumerate() {
            assert_eq!(a.key, b.key, "{label}: key diverged at row {i} (io_threads={threads})");
            assert_eq!(
                a.payload, b.payload,
                "{label}: tie-break diverged at row {i} (io_threads={threads})"
            );
        }
    }
}

macro_rules! grid_cell {
    ($name:ident, $key:ty, $order:expr, $filter:expr) => {
        #[test]
        fn $name() {
            let label = concat!(
                stringify!($key),
                " / ",
                stringify!($order),
                " / filter=",
                stringify!($filter)
            );
            scheduler_differential::<$key>(label, $order, $filter);
        }
    };
}

grid_cell!(u64_ascending_filtered, u64, SortOrder::Ascending, true);
grid_cell!(u64_ascending_unfiltered, u64, SortOrder::Ascending, false);
grid_cell!(u64_descending_filtered, u64, SortOrder::Descending, true);
grid_cell!(u64_descending_unfiltered, u64, SortOrder::Descending, false);
grid_cell!(bytes_ascending_filtered, BytesKey, SortOrder::Ascending, true);
grid_cell!(bytes_ascending_unfiltered, BytesKey, SortOrder::Ascending, false);
grid_cell!(bytes_descending_filtered, BytesKey, SortOrder::Descending, true);
grid_cell!(bytes_descending_unfiltered, BytesKey, SortOrder::Descending, false);
