//! Differential grid: the overlapped-I/O layer must be invisible in the
//! output.
//!
//! Every {key type} × {sort order} × {filter on/off} cell runs the same
//! input through [`HistogramTopK`] twice — once with the spill pipeline and
//! merge read-ahead enabled (the default), once fully synchronous — and
//! asserts byte-identical output. Payloads are unique per input row, so a
//! divergence in tie-breaking, block framing, or prefetch ordering shows up
//! as a payload mismatch, not just a key mismatch. Tiny memory and block
//! sizes force spilling, multi-block runs and real merge fan-in, so the
//! pipeline and prefetch jobs genuinely run on the I/O pool in every cell.

use histok_core::{HistogramTopK, TopKConfig, TopKOperator};
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

fn overlap_differential<K: KeyGen>(label: &str, order: SortOrder, filter: bool) {
    let rows = workload::<K>(0xC3C3);
    let run = |overlap: bool| -> Vec<Row<K>> {
        let cfg = TopKConfig::builder()
            .memory_budget(16 * 1024)
            .block_bytes(512)
            .fan_in(4)
            .filter_enabled(filter)
            .spill_pipeline(overlap)
            .readahead_blocks(if overlap { 3 } else { 0 })
            .build()
            .expect("grid config");
        let mut op =
            HistogramTopK::new(spec_for(order), cfg, MemoryBackend::new()).expect("operator");
        for row in &rows {
            op.push(row.clone()).expect("push");
        }
        op.finish().expect("finish").map(|r| r.expect("row")).collect()
    };
    let overlapped = run(true);
    let synchronous = run(false);
    assert_eq!(overlapped.len(), K as usize, "{label}: short output");
    assert_eq!(overlapped.len(), synchronous.len(), "{label}: row counts diverged");
    for (i, (a, b)) in overlapped.iter().zip(&synchronous).enumerate() {
        assert_eq!(a.key, b.key, "{label}: key diverged at row {i}");
        assert_eq!(a.payload, b.payload, "{label}: tie-break diverged at row {i}");
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
            overlap_differential::<$key>(label, $order, $filter);
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
