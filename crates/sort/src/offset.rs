//! Offset fast-skipping (§4.1).
//!
//! "Histograms can also speed up run generation and merging in the
//! presence of an offset clause ... The combined histogram from all runs
//! can determine the highest key value with a rank lower than the offset;
//! this is the key value where the merge logic should start."
//!
//! Our runs are not b-trees, but every [`RunMeta`] carries a per-block
//! index (row count + last key per block), which supports the same idea at
//! block granularity:
//!
//! 1. pick the largest threshold key `T` such that the rows *provably* at
//!    or before `T` across all merge inputs number at most `offset`
//!    (counting, per run, every block whose last key sorts at or before
//!    `T` — all of those rows are `≤ T`);
//! 2. per run, skip those whole blocks without decoding them, then pop
//!    individual rows `≤ T` from the straddling block;
//! 3. let the merge skip the remaining `offset − skipped` rows normally.
//!
//! Every skipped row has rank ≤ (total rows ≤ T) ≤ offset, so correctness
//! is unconditional; the win is that whole blocks are skipped without
//! being read, decoded or CRC-checked.

use histok_storage::{RunCatalog, RunMeta};
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::merge::{MergeSource, MergeTuning};

/// One part of a merge's input: a catalog, the planned runs to read from
/// it, and in-memory residue sequences (each sorted in output order).
pub type RunPart<'a, K> = (&'a RunCatalog<K>, &'a [RunMeta<K>], Vec<Vec<Row<K>>>);

/// Outcome of the fast-skip planning: merge sources positioned after the
/// skipped prefix, and how many rows were skipped.
pub struct SkippedSources<K: SortKey> {
    /// The positioned merge inputs.
    pub sources: Vec<MergeSource<K>>,
    /// Rows already skipped (to be deducted from the offset).
    pub skipped: u64,
}

/// Chooses the threshold key `T` (see module docs): the largest block
/// boundary such that an **upper bound** on the rows sorting at or before
/// `T` across all inputs stays within `offset`. The upper bound charges,
/// per run, every block whose last key is ≤ `T` in full **plus** the whole
/// straddling block (its rows may or may not be ≤ `T` — they must be
/// assumed to be), and counts residue rows exactly. The bound is monotone
/// in `T`, so a single sweep over the sorted boundaries finds the best
/// threshold.
fn choose_threshold<K: SortKey>(
    runs: &[&RunMeta<K>],
    mut residue_keys: Vec<&K>,
    offset: u64,
    order: SortOrder,
) -> Option<K> {
    // Per-run block cursor: blocks already fully below T, and the current
    // straddle block.
    struct RunState {
        rows: Vec<u64>,
        next: usize, // index of the current straddle block
        full: u64,
    }
    let mut states: Vec<RunState> = runs
        .iter()
        .map(|run| RunState {
            rows: run.blocks.iter().map(|b| u64::from(b.rows)).collect(),
            next: 0,
            full: 0,
        })
        .collect();

    // Candidates: every block boundary, tagged with its run and position.
    let mut candidates: Vec<(&K, usize)> = Vec::new();
    for (r, run) in runs.iter().enumerate() {
        for block in &run.blocks {
            candidates.push((&block.last_key, r));
        }
    }
    candidates.sort_by(|a, b| order.cmp_keys(a.0, b.0));

    // Residue rows, merged and sorted, consumed by a pointer as T grows.
    residue_keys.sort_by(|a, b| order.cmp_keys(a, b));
    let mut residue_seen = 0usize;

    // upper(T) = Σ_r (full_r + straddle_r) + residue_rows ≤ T.
    let straddle = |st: &RunState| st.rows.get(st.next).copied().unwrap_or(0);
    let mut upper_blocks: u64 = states.iter().map(&straddle).sum();

    let mut best: Option<K> = None;
    let mut i = 0;
    while i < candidates.len() {
        let key = candidates[i].0;
        // Advance every candidate (across runs) whose boundary equals `key`
        // before evaluating, so ties are handled atomically.
        while i < candidates.len()
            && order.cmp_keys(candidates[i].0, key) == std::cmp::Ordering::Equal
        {
            let st = &mut states[candidates[i].1];
            let promoted = straddle(st);
            st.full += promoted;
            st.next += 1;
            // Promoted block stays counted (now in `full`); the new
            // straddle block joins the bound.
            upper_blocks += straddle(st);
            i += 1;
        }
        while residue_seen < residue_keys.len() && !order.follows(residue_keys[residue_seen], key) {
            residue_seen += 1;
        }
        let upper = upper_blocks + residue_seen as u64;
        if upper <= offset {
            best = Some(key.clone());
        } else {
            break; // the bound is monotone: later candidates only grow it
        }
    }
    best
}

/// Builds merge sources over every part's `runs` and in-memory residue
/// sequences — in part order, each part's runs before its residue —
/// skipping as much of the first `offset` rows (counted across all parts)
/// as the block indexes allow. Each positioned reader prefetches
/// `tuning.readahead_blocks` blocks on `tuning.io_scheduler` (0, or no
/// pool = synchronous reads).
pub fn fast_skip_sources<K: SortKey>(
    parts: Vec<RunPart<'_, K>>,
    offset: u64,
    tuning: &MergeTuning,
) -> Result<SkippedSources<K>> {
    let threshold = match parts.first() {
        Some((catalog, ..)) if offset > 0 => {
            let runs: Vec<&RunMeta<K>> = parts.iter().flat_map(|p| p.1).collect();
            let residue_keys = parts.iter().flat_map(|p| &p.2).flatten().map(|r| &r.key).collect();
            choose_threshold(&runs, residue_keys, offset, catalog.order())
        }
        _ => None,
    };
    let mut sources = Vec::new();
    let mut skipped = 0u64;
    for (catalog, runs, residues) in parts {
        let order = catalog.order();
        let scheduler = tuning.io_scheduler.as_ref().map(|s| s.for_backend(catalog.backend()));
        for meta in runs {
            let mut reader = catalog.open(meta)?;
            let Some(threshold) = &threshold else {
                sources.push(MergeSource::from_reader_scheduled(
                    reader,
                    tuning.readahead_blocks,
                    scheduler.clone(),
                ));
                continue;
            };
            // Whole leading blocks at or before the threshold.
            let whole_rows: u64 = meta
                .blocks
                .iter()
                .take_while(|b| !order.follows(&b.last_key, threshold))
                .map(|b| u64::from(b.rows))
                .sum();
            if whole_rows > 0 {
                reader.skip_rows(whole_rows)?;
                skipped += whole_rows;
            }
            // Pop individual rows ≤ T from the straddling block.
            let mut head: Vec<Row<K>> = Vec::new();
            for row in reader.by_ref() {
                let row = row?;
                if order.follows(&row.key, threshold) {
                    head.push(row); // first survivor: put it back in front
                    break;
                }
                skipped += 1;
            }
            // Prefetch starts here, after positioning — the skipped prefix
            // is never read ahead.
            let tail = Box::new(MergeSource::from_reader_scheduled(
                reader,
                tuning.readahead_blocks,
                scheduler.clone(),
            ));
            sources.push(MergeSource::Chained { head: head.into_iter(), tail });
        }
        for mut seq in residues {
            if let Some(threshold) = &threshold {
                // Residues are sorted in output order: drop the prefix ≤ T.
                let cut = seq.partition_point(|row| !order.follows(&row.key, threshold));
                skipped += cut as u64;
                seq.drain(..cut);
            }
            sources.push(MergeSource::Memory(seq.into_iter()));
        }
    }
    debug_assert!(skipped <= offset, "fast skip overshot: {skipped} > {offset}");
    Ok(SkippedSources { sources, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_sources;
    use histok_storage::{IoStats, MemoryBackend};
    use std::sync::Arc;

    fn readahead(blocks: usize) -> MergeTuning {
        MergeTuning::default().with_readahead(blocks)
    }

    /// Catalog with `runs` of interleaved keys and tiny blocks.
    fn build_runs(n_runs: u64, rows_per_run: u64) -> Arc<RunCatalog<u64>> {
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "skip",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64), // a handful of rows per block
        );
        for r in 0..n_runs {
            let mut w = cat.start_run().unwrap();
            for j in 0..rows_per_run {
                w.append(&Row::key_only(j * n_runs + r)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        cat
    }

    fn merged_after_skip(cat: &RunCatalog<u64>, offset: u64) -> Vec<u64> {
        let runs = cat.runs();
        let skipped =
            fast_skip_sources(vec![(cat, &runs[..], Vec::new())], offset, &readahead(2)).unwrap();
        let tree = merge_sources(skipped.sources, SortOrder::Ascending).unwrap();
        let mut remaining = offset - skipped.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        out
    }

    #[test]
    fn skipping_preserves_exact_semantics() {
        let cat = build_runs(4, 250); // keys 0..1000 interleaved
        for offset in [0u64, 1, 7, 99, 100, 500, 999] {
            let got = merged_after_skip(&cat, offset);
            let expected: Vec<u64> = (offset..1000).collect();
            assert_eq!(got, expected, "offset {offset}");
        }
    }

    #[test]
    fn whole_blocks_are_not_read() {
        let cat = build_runs(4, 2_000);
        let runs = cat.runs();
        let before = cat.stats().snapshot();
        let skipped =
            fast_skip_sources(vec![(&cat, &runs[..], Vec::new())], 4_000, &readahead(0)).unwrap();
        assert!(skipped.skipped > 3_000, "only skipped {}", skipped.skipped);
        let read = cat.stats().snapshot().since(&before);
        // Reading all 4,000 skipped rows would cost ≥ 4,000 row-reads; the
        // block index must have avoided most of that.
        assert!(
            read.rows_read < 1_000,
            "fast skip decoded {} rows for a 4,000-row offset",
            read.rows_read
        );
        drop(skipped);
    }

    #[test]
    fn zero_offset_is_a_plain_open() {
        let cat = build_runs(2, 50);
        let runs = cat.runs();
        let s = fast_skip_sources(vec![(&cat, &runs[..], Vec::new())], 0, &readahead(2)).unwrap();
        assert_eq!(s.skipped, 0);
        let keys: Vec<u64> = merge_sources(s.sources, SortOrder::Ascending)
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn offset_beyond_all_rows() {
        let cat = build_runs(2, 50);
        let runs = cat.runs();
        let s = fast_skip_sources(vec![(&cat, &runs[..], Vec::new())], 1_000_000, &readahead(2))
            .unwrap();
        assert!(s.skipped <= 100);
        let rest = merge_sources(s.sources, SortOrder::Ascending).unwrap().count() as u64;
        assert_eq!(s.skipped + rest, 100);
    }

    #[test]
    fn residues_participate_in_the_threshold() {
        // The residue holds the SMALLEST keys; ignoring it would let the
        // planner skip run rows that rank beyond the offset.
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "resid",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        let mut w = cat.start_run().unwrap();
        for j in 100..300u64 {
            w.append(&Row::key_only(j)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
        let residue: Vec<Row<u64>> = (0..100).map(Row::key_only).collect();

        let offset = 50u64;
        let runs = cat.runs();
        let s = fast_skip_sources(vec![(&cat, &runs[..], vec![residue])], offset, &readahead(2))
            .unwrap();
        let tree = merge_sources(s.sources, SortOrder::Ascending).unwrap();
        let mut remaining = offset - s.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        assert_eq!(out, (50..300).collect::<Vec<_>>());
    }

    #[test]
    fn descending_runs_skip_correctly() {
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "d",
                SortOrder::Descending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        for r in 0..3u64 {
            let mut w = cat.start_run().unwrap();
            for j in (0..300u64).rev() {
                w.append(&Row::key_only(j * 3 + r)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        let runs = cat.runs();
        let s = fast_skip_sources(vec![(&cat, &runs[..], Vec::new())], 123, &readahead(2)).unwrap();
        let tree = merge_sources(s.sources, SortOrder::Descending).unwrap();
        let mut remaining = 123 - s.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        let expected: Vec<u64> = (0..900u64).rev().skip(123).collect();
        assert_eq!(out, expected);
    }
}
