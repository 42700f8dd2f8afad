//! The final merge every external sort in the workspace ends with.
//!
//! The full external sort ([`crate::ExternalSorter`]) and every spilling
//! top-k operator hand their run catalogs and in-memory residues to
//! [`final_merge`], which
//!
//! 1. reduces each catalog to the merge fan-in with the cascade planner
//!    ([`plan_merges_cascade`]), truncating at `limit` rows and at the
//!    cutoff key;
//! 2. range-partitions the merge across worker threads when no offset is
//!    requested and the partition thresholds are met (DESIGN.md §8);
//! 3. otherwise opens every run serially, fast-skipping the blocks an
//!    `OFFSET` provably covers (§4.1), and drains one loser tree in
//!    batches ([`BatchedMerge`]).
//!
//! Both paths produce the same rows in the same order: within a partition
//! and in the serial tree, sources are opened part by part, each part's
//! runs before its residue.

use std::sync::Arc;

use histok_storage::{RunCatalog, RunMeta};
use histok_types::{Error, Result, Row, SortKey};

use crate::cascade::{plan_merges_cascade, CascadeStats};
use crate::merge::{merge_sources_tuned, BatchedMerge, MergeConfig, MergeSource, MergeTuning};
use crate::offset::fast_skip_sources;
use crate::partition::{
    merge_sources_partitioned, open_partitions, plan_partitions, PartitionCounters,
    PartitionedMerge,
};

/// One `(catalog, residue)` input of [`final_merge`]: a run catalog and
/// the in-memory sequences (each sorted in output order) left over from
/// its run generation.
pub type MergePart<K> = (Arc<RunCatalog<K>>, Vec<Vec<Row<K>>>);

/// How [`final_merge`] plans and runs the last merge of an external sort.
#[derive(Debug, Clone)]
pub struct FinalMergePlan<K: SortKey> {
    /// Fan-in and run-selection policy of the intermediate cascade passes.
    pub merge: MergeConfig,
    /// Knobs threaded into every merge step (offset-value coding, counters,
    /// read-ahead, I/O pool, batch size, folding).
    pub tuning: MergeTuning,
    /// Worker threads for the intermediate cascade passes (1 = serial).
    pub cascade_threads: usize,
    /// Worker threads for the final merge; 2 or more range-partitions it
    /// when the estimated row count reaches `partition_min_rows`.
    pub merge_threads: usize,
    /// Minimum estimated rows before the final merge goes parallel.
    pub partition_min_rows: u64,
    /// Rows the consumer can need at most (`offset + limit`); intermediate
    /// merges stop after this many. `None` for a full sort.
    pub limit: Option<u64>,
    /// A key proven to have `limit` rows at or before it: intermediate
    /// merges truncate at it and prune runs that start past it.
    pub cutoff: Option<K>,
    /// Clip the partition plan at `cutoff`. Only sound when the cutoff is
    /// exact; with approximation slack the serial merge may emit rows past
    /// it, and the partitioned merge must match it byte for byte.
    pub clip_at_cutoff: bool,
    /// Rows the consumer skips before its first output row. A non-zero
    /// offset keeps the merge serial and skips whole blocks through the
    /// run indexes (not in fold mode, where block row counts predate
    /// folding); [`SortedStream::rows_skipped`] reports how many.
    pub offset: u64,
}

impl<K: SortKey> FinalMergePlan<K> {
    /// A serial full-sort plan: no limit, cutoff or offset, one thread.
    pub fn new(merge: MergeConfig, tuning: MergeTuning) -> Self {
        FinalMergePlan {
            merge,
            tuning,
            cascade_threads: 1,
            merge_threads: 1,
            partition_min_rows: 0,
            limit: None,
            cutoff: None,
            clip_at_cutoff: false,
            offset: 0,
        }
    }
}

/// Runs the final merge over one or more `(catalog, residue)` parts (see
/// the module docs). The returned stream keeps every catalog — and so
/// every run it reads — alive until it is dropped.
pub fn final_merge<K: SortKey>(
    parts: Vec<MergePart<K>>,
    plan: &FinalMergePlan<K>,
) -> Result<SortedStream<K>> {
    let order = match parts.first() {
        Some((catalog, _)) => catalog.order(),
        None => return Err(Error::InvalidConfig("final merge over no run catalogs".into())),
    };
    let mut cascade = CascadeStats::default();
    let mut catalogs = Vec::with_capacity(parts.len());
    let mut run_lists: Vec<Vec<RunMeta<K>>> = Vec::with_capacity(parts.len());
    let mut residues = Vec::with_capacity(parts.len());
    let mut est_rows = 0u64;
    for (catalog, residue) in parts {
        let (runs, stats) = plan_merges_cascade(
            &catalog,
            &plan.merge,
            plan.limit,
            plan.cutoff.as_ref(),
            &plan.tuning,
            plan.cascade_threads,
        )?;
        cascade = cascade.merged(&stats);
        est_rows += runs.iter().map(|m| m.rows).sum::<u64>();
        est_rows += residue.iter().map(|s| s.len() as u64).sum::<u64>();
        catalogs.push(catalog);
        run_lists.push(runs);
        residues.push(residue);
    }
    let parts: Vec<_> = catalogs
        .iter()
        .zip(&run_lists)
        .zip(residues)
        .map(|((catalog, runs), residue)| (&**catalog, &runs[..], residue))
        .collect();

    // Offset queries stay serial: fast skipping positions readers
    // mid-run, which a range-scoped open cannot do.
    if plan.offset == 0 && plan.merge_threads >= 2 && est_rows >= plan.partition_min_rows.max(1) {
        let clip = plan.cutoff.as_ref().filter(|_| plan.clip_at_cutoff);
        let ranges = plan_partitions(run_lists.iter().flatten(), order, plan.merge_threads, clip);
        if ranges.len() >= 2 {
            let partitions = open_partitions(parts, &ranges, &plan.tuning)?;
            let merge = merge_sources_partitioned(partitions, order, &plan.tuning)?;
            return Ok(SortedStream {
                inner: SortedInner::Partitioned(merge),
                _catalogs: catalogs,
                cascade,
                skipped: 0,
            });
        }
    }
    let offset = if plan.tuning.fold.is_some() { 0 } else { plan.offset };
    let skipped = fast_skip_sources(parts, offset, &plan.tuning)?;
    let tree = merge_sources_tuned(skipped.sources, order, &plan.tuning)?;
    Ok(SortedStream {
        inner: SortedInner::Serial(BatchedMerge::new(tree, plan.tuning.batch_rows)),
        _catalogs: catalogs,
        cascade,
        skipped: skipped.skipped,
    })
}

/// The merged output stream; holds its run catalogs alive until dropped.
pub struct SortedStream<K: SortKey> {
    // Declared first so it drops first: merge workers and read-ahead jobs
    // stop before the catalogs delete the runs they read.
    inner: SortedInner<K>,
    _catalogs: Vec<Arc<RunCatalog<K>>>,
    cascade: CascadeStats,
    skipped: u64,
}

// One stream per sort: the variant size gap is irrelevant at this
// allocation rate, and boxing would cost an indirection per batch.
#[allow(clippy::large_enum_variant)]
enum SortedInner<K: SortKey> {
    Serial(BatchedMerge<K, MergeSource<K>>),
    Partitioned(PartitionedMerge<K>),
}

impl<K: SortKey> SortedStream<K> {
    /// Partitions the final merge runs across (1 when serial).
    pub fn merge_partitions(&self) -> usize {
        match &self.inner {
            SortedInner::Serial(_) => 1,
            SortedInner::Partitioned(m) => m.partitions(),
        }
    }

    /// Per-partition row counters when the merge went parallel.
    pub fn partition_counters(&self) -> Option<PartitionCounters> {
        match &self.inner {
            SortedInner::Serial(_) => None,
            SortedInner::Partitioned(m) => Some(m.counters()),
        }
    }

    /// Pass counters of the intermediate cascade merges that reduced each
    /// catalog to the fan-in (all zero when no reduction was needed).
    pub fn cascade_stats(&self) -> CascadeStats {
        self.cascade
    }

    /// Leading rows of the requested offset that fast skipping already
    /// dropped; the consumer skips only the remainder.
    pub fn rows_skipped(&self) -> u64 {
        self.skipped
    }
}

impl<K: SortKey> Iterator for SortedStream<K> {
    type Item = Result<Row<K>>;
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            SortedInner::Serial(merge) => merge.next(),
            SortedInner::Partitioned(merge) => merge.next(),
        }
    }
}
