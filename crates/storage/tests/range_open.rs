//! Edge cases of `RunReader::open_range` — the block-index seek that backs
//! the partitioned parallel merge: empty runs, single-block runs,
//! duplicate boundary keys spanning blocks, ranges past the run's key
//! span, skip accounting, and composition with prefetch and the offset
//! fast-skip path.

use std::sync::Arc;

use histok_storage::{
    IoScheduler, IoStats, KeyRange, MemoryBackend, PrefetchingRunReader, RunCatalog, RunReader,
};
use histok_types::{Row, SortOrder};

/// Catalog with tiny blocks so multi-block runs appear at test sizes.
fn catalog(order: SortOrder) -> RunCatalog<u64> {
    RunCatalog::new(Arc::new(MemoryBackend::new()), "rg", order, IoStats::new())
        .with_block_bytes(128)
}

fn write_run(cat: &RunCatalog<u64>, keys: impl IntoIterator<Item = u64>) {
    let mut w = cat.start_run().unwrap();
    for k in keys {
        w.append(&Row::key_only(k)).unwrap();
    }
    cat.register(w.finish().unwrap()).unwrap();
}

fn read_range(cat: &RunCatalog<u64>, range: KeyRange<u64>) -> Vec<u64> {
    let meta = &cat.runs()[0];
    cat.open_range(meta, range).unwrap().map(|r| r.unwrap().key).collect()
}

#[test]
fn empty_run_opens_to_an_empty_range_stream() {
    // Empty runs never reach a catalog (register drops them), but the
    // reader must still handle a blocks-less meta defensively.
    let be = MemoryBackend::new();
    let cat: RunCatalog<u64> =
        RunCatalog::new(Arc::new(be.clone()), "e", SortOrder::Ascending, IoStats::new());
    let w = cat.start_run().unwrap();
    let meta = w.finish().unwrap();
    assert!(meta.blocks.is_empty());
    let keys: Vec<u64> =
        RunReader::open_range(&be, &meta, IoStats::new(), KeyRange::half_open(Some(5), Some(10)))
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
    assert!(keys.is_empty());
}

#[test]
fn single_block_run_ranges() {
    let cat = catalog(SortOrder::Ascending);
    // Default-size block usage: 8 rows fit one 128-byte block? Make sure
    // by writing few rows.
    write_run(&cat, [10u64, 20, 30]);
    assert_eq!(cat.runs()[0].blocks.len(), 1);
    assert_eq!(read_range(&cat, KeyRange::half_open(None, None)), vec![10, 20, 30]);
    assert_eq!(read_range(&cat, KeyRange::half_open(Some(15), Some(30))), vec![20]);
    assert_eq!(read_range(&cat, KeyRange::half_open(Some(31), None)), Vec::<u64>::new());
    assert_eq!(read_range(&cat, KeyRange::half_open(None, Some(10))), Vec::<u64>::new());
}

#[test]
fn multi_block_range_skips_prefix_and_suffix_blocks() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..200);
    let meta = cat.runs()[0].clone();
    assert!(meta.blocks.len() >= 4, "need several blocks, got {}", meta.blocks.len());
    let before = cat.stats().snapshot();
    let keys = read_range(&cat, KeyRange::half_open(Some(90), Some(110)));
    assert_eq!(keys, (90..110).collect::<Vec<_>>());
    let delta = cat.stats().snapshot().since(&before);
    // Prefix and suffix blocks must be booked as skipped, not read.
    assert!(delta.blocks_skipped >= 2, "no blocks skipped: {delta:?}");
    assert!(delta.bytes_skipped > 0);
}

#[test]
fn range_past_the_runs_max_key_reads_nothing_and_books_all_blocks() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..200);
    let meta = cat.runs()[0].clone();
    let blocks = meta.blocks.len() as u64;
    let before = cat.stats().snapshot();
    let keys = read_range(&cat, KeyRange::half_open(Some(10_000), None));
    assert!(keys.is_empty());
    let delta = cat.stats().snapshot().since(&before);
    assert_eq!(delta.blocks_skipped, blocks, "every block should be skip-booked");
    assert_eq!(delta.rows_read, 0, "no payload should be decoded");
}

#[test]
fn range_wholly_before_the_run_reads_nothing() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 100..300);
    let keys = read_range(&cat, KeyRange::half_open(None, Some(100)));
    assert!(keys.is_empty());
}

#[test]
fn duplicate_boundary_keys_spanning_blocks_stay_in_one_range() {
    // A long run of one key crosses several block boundaries, so several
    // consecutive blocks share the same `last_key`. Both the range that
    // owns the key and its neighbours must honor the half-open split.
    let cat = catalog(SortOrder::Ascending);
    let keys: Vec<u64> = (0..30).chain(std::iter::repeat_n(50, 60)).chain(100..130).collect();
    write_run(&cat, keys);
    let meta = cat.runs()[0].clone();
    let dup_boundaries = meta.blocks.iter().filter(|b| b.last_key == 50).count();
    assert!(dup_boundaries >= 2, "duplicates must span blocks, got {dup_boundaries}");
    // The range that owns 50 sees every copy exactly once.
    assert_eq!(read_range(&cat, KeyRange::half_open(Some(50), Some(51))).len(), 60);
    // The range below the duplicates sees none of them.
    assert_eq!(read_range(&cat, KeyRange::half_open(None, Some(50))), (0..30).collect::<Vec<_>>());
    // The range above the duplicates sees none of them either.
    assert_eq!(
        read_range(&cat, KeyRange::half_open(Some(51), None)),
        (100..130).collect::<Vec<_>>()
    );
    // An inclusive bound keeps the duplicates (the cutoff-clip shape).
    let clipped = read_range(&cat, KeyRange { lo: None, hi: Some(50), hi_inclusive: true });
    assert_eq!(clipped.len(), 30 + 60);
}

#[test]
fn descending_runs_seek_in_output_order() {
    let cat = catalog(SortOrder::Descending);
    write_run(&cat, (0..200).rev());
    let keys = read_range(&cat, KeyRange::half_open(Some(150), Some(100)));
    assert_eq!(keys, (101..=150).rev().collect::<Vec<_>>());
}

#[test]
fn prefetch_composes_with_a_range_scoped_reader() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..500);
    let meta = cat.runs()[0].clone();
    let before = cat.stats().snapshot();
    let reader = cat.open_range(&meta, KeyRange::half_open(Some(200), Some(300))).unwrap();
    let sched = IoScheduler::new(1);
    let keys: Vec<u64> = PrefetchingRunReader::spawn_scheduled(reader, 2, sched.handle())
        .map(|r| r.unwrap().key)
        .collect();
    assert_eq!(keys, (200..300).collect::<Vec<_>>());
    // Prefetch must start at the seek point: the prefix blocks are
    // skip-booked, never read.
    let delta = cat.stats().snapshot().since(&before);
    assert!(delta.blocks_skipped >= 2, "prefetch re-read skipped blocks: {delta:?}");
}

#[test]
fn offset_fast_skip_within_a_range_decodes_rather_than_overskips() {
    // skip_rows on a range-scoped reader must count only in-range rows:
    // the whole-block shortcut (header row counts) would over-count
    // because headers include out-of-range rows.
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..500);
    let meta = cat.runs()[0].clone();
    let mut reader = cat.open_range(&meta, KeyRange::half_open(Some(200), Some(400))).unwrap();
    reader.skip_rows(50).unwrap();
    let keys: Vec<u64> = reader.map(|r| r.unwrap().key).collect();
    assert_eq!(keys, (250..400).collect::<Vec<_>>());
}

#[test]
fn skip_past_the_ranges_end_errors_like_end_of_run() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..500);
    let meta = cat.runs()[0].clone();
    let mut reader = cat.open_range(&meta, KeyRange::half_open(Some(200), Some(210))).unwrap();
    assert!(reader.skip_rows(100).is_err(), "range holds only 10 rows");
}

#[test]
fn unbounded_range_matches_plain_open() {
    let cat = catalog(SortOrder::Ascending);
    write_run(&cat, 0..300);
    let meta = cat.runs()[0].clone();
    let plain: Vec<u64> = cat.open(&meta).unwrap().map(|r| r.unwrap().key).collect();
    let ranged = read_range(&cat, KeyRange::all());
    assert_eq!(plain, ranged);
}
