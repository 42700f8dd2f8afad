//! Merge planning for top-k external sorts.
//!
//! When more runs exist than the merge fan-in allows, intermediate merge
//! steps reduce the run count. Two facts specific to top operations
//! (paper §4.1) shape the planner:
//!
//! * any merge step may stop after `k` rows — a row ranked worse than `k`
//!   within *any* subset of runs is ranked worse than `k` globally;
//! * a merge step may stop as soon as the merged key passes the cutoff key;
//! * for a top operation the best runs to merge first are the ones with the
//!   lowest keys (the most recently produced), not the traditional smallest
//!   runs.

use histok_storage::{
    IoScheduler, IoSchedulerHandle, PrefetchingRunReader, RunCatalog, RunMeta, RunReader,
};
use histok_types::{Error, Result, Row, RowBatch, SortKey, SortOrder};

use crate::cascade::SharedCutoff;
use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::loser_tree::LoserTree;
use crate::source::{RowSource, DEFAULT_BATCH_ROWS};

/// Knobs an operator threads into every merge step it triggers: whether
/// the loser tree uses offset-value coding, an optional shared
/// comparison-counter sink the trees flush into, how many blocks each run
/// input prefetches in the background, which I/O pool (if any) that
/// prefetching runs on, and how many rows each merge drain batches.
#[derive(Debug, Clone)]
pub struct MergeTuning {
    /// Resolve tournament duels on offset-value codes (default on).
    pub ovc: bool,
    /// Shared comparison counters; `None` skips the accounting.
    pub stats: Option<CmpStats>,
    /// Blocks of background read-ahead per run input (default 2); `0`
    /// reads synchronously on the merge thread.
    pub readahead_blocks: usize,
    /// Shared worker pool the read-ahead jobs run on; `None` reads every
    /// run input synchronously on the merge thread, whatever
    /// `readahead_blocks` says.
    pub io_scheduler: Option<IoScheduler>,
    /// Rows per merge output batch (and the refill hint passed to batched
    /// sources). `1` degenerates to row-at-a-time — the differential
    /// baseline.
    pub batch_rows: usize,
    /// Fold equal-key rows at every merge step (duplicate removal /
    /// grouped aggregation); `None` emits duplicates verbatim.
    pub fold: Option<FoldSpec>,
}

impl Default for MergeTuning {
    fn default() -> Self {
        MergeTuning {
            ovc: true,
            stats: None,
            readahead_blocks: 2,
            io_scheduler: None,
            batch_rows: DEFAULT_BATCH_ROWS,
            fold: None,
        }
    }
}

impl MergeTuning {
    /// Tuning with offset-value coding switched off (full comparisons
    /// everywhere) — the differential-testing baseline.
    pub fn without_ovc() -> Self {
        MergeTuning { ovc: false, ..MergeTuning::default() }
    }

    /// Sets the shared comparison-counter sink every tree flushes into.
    pub fn with_stats(mut self, stats: Option<CmpStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Overrides the per-input read-ahead depth.
    pub fn with_readahead(mut self, blocks: usize) -> Self {
        self.readahead_blocks = blocks;
        self
    }

    /// Routes read-ahead through `scheduler`'s shared worker pool.
    pub fn with_io_scheduler(mut self, scheduler: Option<IoScheduler>) -> Self {
        self.io_scheduler = scheduler;
        self
    }

    /// Overrides the merge batch size (clamped to at least 1).
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Enables (or disables) equal-key folding in every merge this tuning
    /// reaches — serial, cascade and partitioned.
    pub fn with_fold(mut self, fold: Option<FoldSpec>) -> Self {
        self.fold = fold;
        self
    }
}

/// A merge input: a spilled run, an in-memory sorted sequence (the run
/// generator's residue), or a buffered head chained onto a run reader
/// (produced by offset fast-skipping, which may over-read a block
/// boundary and must put the extra rows back in front).
pub enum MergeSource<K: SortKey> {
    /// Rows streamed from a spilled run, read synchronously.
    Run(RunReader<K>),
    /// Rows streamed from a spilled run through background read-ahead
    /// jobs on a shared I/O pool (see [`PrefetchingRunReader`]).
    Prefetched(PrefetchingRunReader<K>),
    /// Rows already in memory, sorted in output order.
    Memory(std::vec::IntoIter<Row<K>>),
    /// Buffered rows followed by the rest of a source.
    Chained {
        /// Rows to emit before resuming the tail (already sorted).
        head: std::vec::IntoIter<Row<K>>,
        /// The remainder of the source.
        tail: Box<MergeSource<K>>,
    },
}

impl<K: SortKey> MergeSource<K> {
    /// Wraps an (optionally mid-run) reader. With a `scheduler` and a
    /// non-zero `readahead_blocks`, the reader prefetches that many blocks
    /// as jobs on the shared pool (starting at prefetch priority,
    /// escalated once the merge actually drains this source); otherwise
    /// it reads synchronously on the merge thread.
    pub fn from_reader_scheduled(
        reader: RunReader<K>,
        readahead_blocks: usize,
        scheduler: Option<IoSchedulerHandle>,
    ) -> Self {
        match scheduler {
            Some(handle) if readahead_blocks > 0 => MergeSource::Prefetched(
                PrefetchingRunReader::spawn_scheduled(reader, readahead_blocks, handle),
            ),
            _ => MergeSource::Run(reader),
        }
    }
}

impl<K: SortKey> Iterator for MergeSource<K> {
    type Item = Result<Row<K>>;
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MergeSource::Run(r) => r.next(),
            MergeSource::Prefetched(r) => r.next(),
            MergeSource::Memory(m) => m.next().map(Ok),
            MergeSource::Chained { head, tail } => match head.next() {
                Some(row) => Some(Ok(row)),
                None => tail.next(),
            },
        }
    }
}

impl<K: SortKey> RowSource<K> for MergeSource<K> {
    fn next_batch(&mut self, target: usize) -> Result<Option<RowBatch<K>>> {
        match self {
            // Readers hand over whole decoded blocks with the prefix
            // column already built at decode time; the hint is moot.
            MergeSource::Run(r) => r.next_batch(),
            MergeSource::Prefetched(r) => r.next_batch(),
            MergeSource::Memory(m) => {
                let take = m.len().min(target.max(1));
                if take == 0 {
                    return Ok(None);
                }
                let mut batch = RowBatch::with_capacity(take);
                for row in m.by_ref().take(take) {
                    batch.push(row);
                }
                Ok(Some(batch))
            }
            MergeSource::Chained { head, tail } => {
                let take = head.len().min(target.max(1));
                if take == 0 {
                    return tail.next_batch(target);
                }
                let mut batch = RowBatch::with_capacity(take);
                for row in head.by_ref().take(take) {
                    batch.push(row);
                }
                Ok(Some(batch))
            }
        }
    }
}

/// Row-at-a-time facade over a batched [`LoserTree`] drain: refills an
/// internal buffer through [`LoserTree::merge_into`] so the per-row cost
/// is a buffer pop, with the tree's done/error bookkeeping paid once per
/// batch. Operators wrap their final serial merges in this.
pub struct BatchedMerge<K: SortKey, S: RowSource<K>> {
    tree: LoserTree<K, S>,
    buffer: std::vec::IntoIter<Row<K>>,
    batch_rows: usize,
    done: bool,
}

impl<K: SortKey, S: RowSource<K>> BatchedMerge<K, S> {
    /// Wraps `tree`, draining `batch_rows` rows per refill.
    pub fn new(tree: LoserTree<K, S>, batch_rows: usize) -> Self {
        BatchedMerge {
            tree,
            buffer: Vec::new().into_iter(),
            batch_rows: batch_rows.max(1),
            done: false,
        }
    }

    /// Peeks at the key that would be produced next (buffered rows
    /// first, then the tree head).
    pub fn peek_key(&self) -> Option<&K> {
        self.buffer.as_slice().first().map(|r| &r.key).or_else(|| self.tree.peek_key())
    }

    /// Comparison counts of the underlying tree.
    pub fn cmp_counts(&self) -> (u64, u64) {
        self.tree.cmp_counts()
    }
}

impl<K: SortKey, S: RowSource<K>> Iterator for BatchedMerge<K, S> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(row) = self.buffer.next() {
            return Some(Ok(row));
        }
        if self.done {
            return None;
        }
        let mut out = RowBatch::with_capacity(self.batch_rows);
        match self.tree.merge_into(&mut out, self.batch_rows) {
            Ok(()) => {
                if out.is_empty() {
                    self.done = true;
                    return None;
                }
                self.buffer = out.rows.into_iter();
                self.buffer.next().map(Ok)
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Opens a registered run as a merge source, honoring the tuning's
/// read-ahead depth and I/O scheduler (jobs gated on the catalog's
/// backend).
pub fn open_source<K: SortKey>(
    catalog: &RunCatalog<K>,
    meta: &RunMeta<K>,
    tuning: &MergeTuning,
) -> Result<MergeSource<K>> {
    let scheduler = tuning.io_scheduler.as_ref().map(|s| s.for_backend(catalog.backend()));
    Ok(MergeSource::from_reader_scheduled(catalog.open(meta)?, tuning.readahead_blocks, scheduler))
}

/// Builds a merging iterator over heterogeneous sources with default
/// tuning (offset-value coding on, no counter sink).
pub fn merge_sources<K: SortKey>(
    sources: Vec<MergeSource<K>>,
    order: SortOrder,
) -> Result<LoserTree<K, MergeSource<K>>> {
    merge_sources_tuned(sources, order, &MergeTuning::default())
}

/// Builds a merging iterator over heterogeneous sources with explicit
/// [`MergeTuning`].
pub fn merge_sources_tuned<K: SortKey>(
    sources: Vec<MergeSource<K>>,
    order: SortOrder,
    tuning: &MergeTuning,
) -> Result<LoserTree<K, MergeSource<K>>> {
    let mut tree = LoserTree::with_ovc(sources, order, tuning.ovc, tuning.stats.clone())?;
    tree.set_batch_target(tuning.batch_rows);
    tree.set_fold(tuning.fold.clone());
    Ok(tree)
}

/// Which runs an intermediate merge step should pick first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Traditional policy: the smallest runs (fewest rows) — minimizes
    /// re-read volume for full sorts.
    SmallestFirst,
    /// Top-k policy (§4.1): the runs whose first keys sort best — usually
    /// the most recently generated ones.
    #[default]
    LowestKeyFirst,
}

/// Fan-in and policy for multi-level merging.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Maximum simultaneous merge inputs.
    pub fan_in: usize,
    /// Run-selection policy for intermediate steps.
    pub policy: MergePolicy,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig { fan_in: 16, policy: MergePolicy::default() }
    }
}

impl MergeConfig {
    /// Validates the fan-in.
    pub fn validate(&self) -> Result<()> {
        if self.fan_in < 2 {
            return Err(Error::InvalidConfig("merge fan-in must be at least 2".into()));
        }
        Ok(())
    }
}

/// Merges the given runs into one new run, truncating at `limit` rows
/// and/or at the first key that sorts after `cutoff`. The source runs are
/// deleted; the new run is registered and returned. Default tuning.
///
/// A refined cutoff can truncate the whole step to zero rows: the empty
/// output is deleted instead of registered (the returned meta has
/// `rows == 0` and refers to no object). On a mid-merge error the
/// half-written output object is removed from the backend and the input
/// runs stay registered untouched.
pub fn merge_runs_to_new<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: &[RunMeta<K>],
    limit: Option<u64>,
    cutoff: Option<&K>,
) -> Result<RunMeta<K>> {
    merge_runs_to_new_tuned(catalog, runs, limit, cutoff, &MergeTuning::default())
}

/// As [`merge_runs_to_new`], with explicit [`MergeTuning`]. The cutoff
/// is fixed for the whole merge.
pub fn merge_runs_to_new_tuned<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: &[RunMeta<K>],
    limit: Option<u64>,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<RunMeta<K>> {
    let fixed = SharedCutoff::new(catalog.order(), cutoff.cloned());
    merge_runs_to_new_shared(catalog, runs, limit, &fixed, tuning)
}

/// As [`merge_runs_to_new_tuned`], but the cutoff lives in a
/// [`SharedCutoff`] cell that concurrent merges of the same cascade may
/// tighten while this one is in flight: the drain polls the cell's
/// generation between output batches (one relaxed load) and re-reads
/// the key only when it moved, truncating the rest of the merge at the
/// tighter key.
pub fn merge_runs_to_new_shared<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: &[RunMeta<K>],
    limit: Option<u64>,
    shared: &SharedCutoff<K>,
    tuning: &MergeTuning,
) -> Result<RunMeta<K>> {
    let order = catalog.order();
    let mut sources = Vec::with_capacity(runs.len());
    for meta in runs {
        sources.push(open_source(catalog, meta, tuning)?);
    }
    let mut tree = merge_sources_tuned(sources, order, tuning)?;
    let mut writer = catalog.start_run()?;
    let out_name = writer.name().to_string();
    let merged: Result<RunMeta<K>> = (|| {
        // Batched drain: pull a batch, clip it at the cutoff by scanning
        // the prefix column (one integer compare per row; key bytes are
        // touched only for wide keys whose prefix ties the cutoff's), and
        // append the survivors in one call.
        let out_mask = match order {
            SortOrder::Ascending => 0,
            SortOrder::Descending => !0u64,
        };
        let mut seen_gen = shared.generation();
        let mut cutoff = shared.get();
        let mut cut_prefix = cutoff.as_ref().map(|c| c.norm_prefix() ^ out_mask);
        let mut produced = 0u64;
        let mut out = RowBatch::with_capacity(tuning.batch_rows);
        loop {
            let gen = shared.generation();
            if gen != seen_gen {
                // Another merge of the cascade tightened the cutoff.
                seen_gen = gen;
                cutoff = shared.get();
                cut_prefix = cutoff.as_ref().map(|c| c.norm_prefix() ^ out_mask);
            }
            let want = match limit {
                Some(l) => {
                    let remaining = l.saturating_sub(produced);
                    if remaining == 0 {
                        break;
                    }
                    usize::try_from(remaining).unwrap_or(usize::MAX).min(tuning.batch_rows)
                }
                None => tuning.batch_rows,
            };
            tree.merge_into(&mut out, want)?;
            if out.is_empty() {
                break;
            }
            let mut clipped = false;
            if let (Some(cut), Some(cp)) = (cutoff.as_ref(), cut_prefix) {
                let first_past = if K::norm_prefix_is_exact() {
                    // Exact prefixes: prefix order IS key order.
                    out.prefixes.iter().position(|&p| (p ^ out_mask) > cp)
                } else {
                    // A row can only follow the cutoff if its prefix is at
                    // or past the cutoff's; confirm on the key from there.
                    out.prefixes.iter().position(|&p| (p ^ out_mask) >= cp).and_then(|i| {
                        (i..out.len()).find(|&j| order.follows(&out.rows[j].key, cut))
                    })
                };
                if let Some(i) = first_past {
                    out.truncate(i);
                    clipped = true;
                }
            }
            writer.append_batch(&out)?;
            produced += out.len() as u64;
            if clipped {
                break;
            }
        }
        writer.finish()
    })();
    drop(tree); // release readers before deleting their objects
    let meta = match merged {
        Ok(meta) => meta,
        Err(e) => {
            // The output object is half-written (or was abandoned by the
            // writer's drop); remove it so a failed merge leaves the
            // backend holding exactly the registered runs. Best-effort: the
            // merge error is what the caller must see.
            let _ = catalog.backend().delete(&out_name);
            return Err(e);
        }
    };
    for old in runs {
        catalog.remove(&old.name)?;
    }
    if meta.is_empty() {
        // The cutoff eliminated every row: registering a zero-row run would
        // cost a storage open and a prefetch source in every later merge
        // pass. Delete the empty object and register nothing.
        catalog.backend().delete(&meta.name)?;
    } else {
        catalog.register(meta.clone())?;
    }
    Ok(meta)
}

/// Sorts run metas so the best merge candidates (per `policy`) come first.
pub(crate) fn rank_candidates<K: SortKey>(
    runs: &mut [RunMeta<K>],
    policy: MergePolicy,
    order: SortOrder,
) {
    match policy {
        MergePolicy::SmallestFirst => runs.sort_by_key(|m| m.rows),
        MergePolicy::LowestKeyFirst => runs.sort_by(|a, b| match (&a.first_key, &b.first_key) {
            (Some(ka), Some(kb)) => order.cmp_keys(ka, kb).then(a.rows.cmp(&b.rows)),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        }),
    }
}

/// Runs intermediate merge steps until at most `config.fan_in` runs remain;
/// returns the final run set (in no particular order).
///
/// `limit`/`cutoff` truncate intermediate outputs — always safe for a top-k
/// (see module docs), never used for a full sort. Per §4.1, "each merge
/// step can also reduce the cutoff key": whenever an intermediate merge
/// produces a full `limit`-row run, its last key proves `limit` rows at or
/// before it, so later merge steps truncate at that (tighter) key.
pub fn plan_merges<K: SortKey>(
    catalog: &RunCatalog<K>,
    config: &MergeConfig,
    limit: Option<u64>,
    cutoff: Option<&K>,
) -> Result<Vec<RunMeta<K>>> {
    plan_merges_tuned(catalog, config, limit, cutoff, &MergeTuning::default())
}

/// As [`plan_merges`], with explicit [`MergeTuning`] applied to every
/// intermediate merge step. Delegates to the cascade planner
/// ([`plan_merges_cascade`](crate::cascade::plan_merges_cascade)) running
/// inline on the calling thread, discarding the pass counters.
pub fn plan_merges_tuned<K: SortKey>(
    catalog: &RunCatalog<K>,
    config: &MergeConfig,
    limit: Option<u64>,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<Vec<RunMeta<K>>> {
    crate::cascade::plan_merges_cascade(catalog, config, limit, cutoff, tuning, 1)
        .map(|(runs, _)| runs)
}

/// The pre-cascade greedy planner: one (F − 1)-sized step at a time on
/// the calling thread, re-ranking the whole run list every iteration and
/// tightening the cutoff only between steps. Kept as the serial baseline
/// the `bench_smoke` cascade gate compares against; new code should call
/// [`plan_merges_tuned`] or the cascade planner directly.
pub fn plan_merges_legacy<K: SortKey>(
    catalog: &RunCatalog<K>,
    config: &MergeConfig,
    limit: Option<u64>,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<Vec<RunMeta<K>>> {
    config.validate()?;
    let order = catalog.order();
    let mut cutoff: Option<K> = cutoff.cloned();
    loop {
        let mut runs = catalog.runs();
        if runs.len() <= config.fan_in {
            return Ok(runs);
        }
        rank_candidates(&mut runs, config.policy, order);
        // Merge just enough runs that the final step can take everything:
        // classic (F - 1)-sized steps, but never fewer than 2 inputs.
        let excess = runs.len() - config.fan_in;
        let step = (excess + 1).clamp(2, config.fan_in).min(runs.len());
        let merged =
            merge_runs_to_new_tuned(catalog, &runs[..step], limit, cutoff.as_ref(), tuning)?;
        if let (Some(lim), Some(last)) = (limit, &merged.last_key) {
            if merged.rows >= lim {
                let tighter = cutoff.as_ref().is_none_or(|c| order.precedes(last, c));
                if tighter {
                    cutoff = Some(last.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::{FaultBackend, FaultPlan, FileBackend, IoStats, MemoryBackend};
    use histok_types::Row;
    use std::sync::Arc;

    fn catalog() -> Arc<RunCatalog<u64>> {
        Arc::new(RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            "m",
            SortOrder::Ascending,
            IoStats::new(),
        ))
    }

    fn write_run(cat: &RunCatalog<u64>, keys: &[u64]) {
        let mut w = cat.start_run().unwrap();
        for &k in keys {
            w.append(&Row::key_only(k)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }

    fn read_run(cat: &RunCatalog<u64>, meta: &RunMeta<u64>) -> Vec<u64> {
        cat.open(meta).unwrap().map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn merge_sources_combines_runs_and_memory() {
        let cat = catalog();
        write_run(&cat, &[2, 4, 6]);
        let run = cat.runs()[0].clone();
        let mem: Vec<Row<u64>> = vec![Row::key_only(1), Row::key_only(5)];
        let sources =
            vec![MergeSource::Run(cat.open(&run).unwrap()), MergeSource::Memory(mem.into_iter())];
        let keys: Vec<u64> =
            merge_sources(sources, SortOrder::Ascending).unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(keys, vec![1, 2, 4, 5, 6]);
    }

    #[test]
    fn merge_runs_to_new_replaces_inputs() {
        let cat = catalog();
        write_run(&cat, &[1, 4, 7]);
        write_run(&cat, &[2, 5, 8]);
        write_run(&cat, &[3, 6, 9]);
        let runs = cat.runs();
        let merged = merge_runs_to_new(&cat, &runs[..2], None, None).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 4, 5, 7, 8]);
        assert_eq!(cat.len(), 2); // merged + untouched third run
    }

    #[test]
    fn limit_truncates_merge_output() {
        let cat = catalog();
        write_run(&cat, &[1, 3, 5, 7, 9]);
        write_run(&cat, &[2, 4, 6, 8, 10]);
        let runs = cat.runs();
        let merged = merge_runs_to_new(&cat, &runs, Some(4), None).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 3, 4]);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn cutoff_truncates_merge_output() {
        let cat = catalog();
        write_run(&cat, &[1, 3, 5, 7, 9]);
        write_run(&cat, &[2, 4, 6, 8, 10]);
        let runs = cat.runs();
        // Keys strictly above 6 must not be written (ties survive).
        let merged = merge_runs_to_new(&cat, &runs, None, Some(&6)).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn plan_merges_reduces_to_fan_in() {
        let cat = catalog();
        for i in 0..10u64 {
            write_run(&cat, &[i, i + 10, i + 20]);
        }
        let cfg = MergeConfig { fan_in: 4, policy: MergePolicy::SmallestFirst };
        let final_runs = plan_merges(&cat, &cfg, None, None).unwrap();
        assert!(final_runs.len() <= 4);
        // Contents preserved exactly.
        let mut all: Vec<u64> = final_runs.iter().flat_map(|m| read_run(&cat, m)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn plan_merges_noop_when_under_fan_in() {
        let cat = catalog();
        write_run(&cat, &[1]);
        write_run(&cat, &[2]);
        let cfg = MergeConfig::default();
        let runs = plan_merges(&cat, &cfg, None, None).unwrap();
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn lowest_key_policy_merges_best_runs_first() {
        let cat = catalog();
        write_run(&cat, &[100, 101, 102]); // early, high keys
        write_run(&cat, &[50, 51, 52]);
        write_run(&cat, &[1, 2, 3]); // recent, low keys
        write_run(&cat, &[60, 61, 62]);
        let mut runs = cat.runs();
        rank_candidates(&mut runs, MergePolicy::LowestKeyFirst, SortOrder::Ascending);
        assert_eq!(runs[0].first_key, Some(1));
        assert_eq!(runs[1].first_key, Some(50));
        assert_eq!(runs[3].first_key, Some(100));
    }

    #[test]
    fn invalid_fan_in_rejected() {
        let cfg = MergeConfig { fan_in: 1, policy: MergePolicy::SmallestFirst };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn plan_merges_refines_the_cutoff_between_steps() {
        // §4.1: once an intermediate merge produces `limit` rows, its last
        // key truncates every later merge. Under SmallestFirst, the two
        // low-key runs merge first (they are smallest) and establish a
        // cutoff ≈ key 59; the high-key merges that follow contain no row
        // at or before it and must write NOTHING.
        let cat = catalog();
        write_run(&cat, &(0..100).step_by(2).collect::<Vec<_>>()); // 50 even low keys
        write_run(&cat, &(1..100).step_by(2).collect::<Vec<_>>()); // 50 odd low keys
        for base in 0..4u64 {
            let keys: Vec<u64> = (0..60).map(|j| 10_000 + j * 4 + base).collect();
            write_run(&cat, &keys);
        }
        let before = cat.stats().snapshot();
        let cfg = MergeConfig { fan_in: 2, policy: MergePolicy::SmallestFirst };
        let k = 60;
        let final_runs = plan_merges(&cat, &cfg, Some(k), None).unwrap();
        assert!(final_runs.len() <= 2);
        // Correctness: the global top 60 is exactly 0..59.
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending)
            .unwrap()
            .take(k as usize)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..k).collect::<Vec<_>>());
        // Savings: only the low-key merge wrote rows; without refinement
        // each high-key pair merge would have written `limit` rows too.
        let rewritten = cat.stats().snapshot().since(&before).rows_written;
        assert!(
            rewritten <= 70,
            "high-key merges were not truncated by the refined cutoff: {rewritten} rows"
        );
    }

    #[test]
    fn cascading_refinement_never_leaves_empty_runs_or_objects() {
        // Same shape as the refinement test above, but driven further: the
        // low-key merge establishes a cutoff that truncates EVERY later
        // high-key merge to zero rows. Those empty outputs must not be
        // registered (each would cost a storage open and a prefetch source
        // per later pass) and must not leak objects in the backend.
        let be = MemoryBackend::new();
        let cat = RunCatalog::<u64>::new(
            Arc::new(be.clone()),
            "cascade",
            SortOrder::Ascending,
            IoStats::new(),
        );
        write_run(&cat, &(0..100).step_by(2).collect::<Vec<_>>());
        write_run(&cat, &(1..100).step_by(2).collect::<Vec<_>>());
        for base in 0..6u64 {
            let keys: Vec<u64> = (0..60).map(|j| 10_000 + j * 6 + base).collect();
            write_run(&cat, &keys);
        }
        let cfg = MergeConfig { fan_in: 2, policy: MergePolicy::SmallestFirst };
        let final_runs = plan_merges(&cat, &cfg, Some(60), None).unwrap();
        assert!(final_runs.len() <= 2);
        assert!(
            final_runs.iter().all(|m| m.rows > 0),
            "zero-row runs survived into the final run set: {final_runs:?}"
        );
        // Backend and catalog agree: exactly one object per registered run.
        assert_eq!(be.object_count(), cat.len());
        // And the answer is still exact.
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending)
            .unwrap()
            .take(60)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn failed_merge_cleans_up_its_output_and_keeps_inputs() {
        // Dry run on an unfaulted backend to learn how many bytes the two
        // input runs cost; the fault budget then trips partway through the
        // merge output.
        let keys_a: Vec<u64> = (0..200).map(|i| i * 2).collect();
        let keys_b: Vec<u64> = (0..200).map(|i| i * 2 + 1).collect();
        let input_bytes = {
            let probe = RunCatalog::<u64>::new(
                Arc::new(MemoryBackend::new()),
                "probe",
                SortOrder::Ascending,
                IoStats::new(),
            );
            write_run(&probe, &keys_a);
            write_run(&probe, &keys_b);
            probe.stats().snapshot().bytes_written
        };
        // A file-backed store makes the leak observable: `create` puts the
        // file on disk immediately, so a dropped unfinished writer leaves
        // it behind unless the error path deletes it.
        let files = FileBackend::temp().unwrap();
        let dir = files.dir().to_path_buf();
        let be = FaultBackend::new(
            files,
            FaultPlan { fail_write_after_bytes: Some(input_bytes + 64), ..FaultPlan::none() },
        );
        let cat = RunCatalog::<u64>::new(
            Arc::new(be.clone()),
            "probe", // same prefix/order ⇒ identical byte layout as the dry run
            SortOrder::Ascending,
            IoStats::new(),
        );
        write_run(&cat, &keys_a);
        write_run(&cat, &keys_b);
        let runs = cat.runs();
        let err = merge_runs_to_new(&cat, &runs, None, None);
        assert!(err.is_err(), "the fault budget must fail the merge");
        assert!(be.fault_fired());
        // Inputs stay registered and readable; the half-written output is
        // gone from the backend.
        assert_eq!(cat.len(), 2);
        for meta in &cat.runs() {
            assert_eq!(cat.open(meta).unwrap().count(), 200);
        }
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, 2, "failed merge leaked its half-written output object");
    }

    #[test]
    fn multi_level_merge_preserves_order_with_limit() {
        // Truncating intermediate merges at k must still produce the exact
        // global top-k at the end.
        let cat = catalog();
        for i in 0..12u64 {
            let keys: Vec<u64> = (0..50).map(|j| j * 12 + i).collect();
            write_run(&cat, &keys);
        }
        let k = 25;
        let cfg = MergeConfig { fan_in: 3, policy: MergePolicy::LowestKeyFirst };
        let final_runs = plan_merges(&cat, &cfg, Some(k), None).unwrap();
        assert!(final_runs.len() <= 3);
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending)
            .unwrap()
            .take(k as usize)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..k).collect::<Vec<_>>());
    }
}
