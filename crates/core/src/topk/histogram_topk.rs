//! The paper's algorithm: adaptive top-k with histogram-guided filtering.
//!
//! While the requested output fits in the memory budget, this operator *is*
//! the in-memory priority-queue top-k (§2.3). The moment the retained rows
//! no longer fit, it switches to external mode: run generation spills
//! through a [`CutoffFilter`], which models the input with per-run
//! histograms and derives an ever-sharpening cutoff key. Rows are
//! eliminated twice — at operator input (Algorithm 1 line 4) and again at
//! spill time (line 11) — so most of the input never reaches secondary
//! storage even though `k` exceeds memory.

use histok_sort::SpillObserver;
use histok_types::{Result, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::cutoff::{filter_from_config, CutoffFilter, DistinctVerdict};
use crate::metrics::OperatorMetrics;
use crate::topk::pipeline::{ExternalTopK, FilterPolicy, Screen};

/// The histogram-guided adaptive top-k operator (the paper's contribution).
///
/// ```
/// use histok_core::{HistogramTopK, TopKConfig, TopKOperator};
/// use histok_storage::MemoryBackend;
/// use histok_types::{Row, SortSpec};
///
/// // Top 100 of 10,000 shuffled keys with memory for ~50 rows.
/// let spec = SortSpec::ascending(100);
/// let config = TopKConfig::builder().memory_budget(50 * 64).build()?;
/// let mut op = HistogramTopK::new(spec, config, MemoryBackend::new())?;
/// for key in (0..10_000u64).rev() {
///     op.push(Row::key_only(key))?;
/// }
/// let out: Vec<u64> = op.finish()?.map(|r| r.map(|row| row.key)).collect::<Result<_, _>>()?;
/// assert_eq!(out, (0..100).collect::<Vec<_>>());
/// assert!(op.metrics().rows_spilled() < 10_000); // most rows never hit storage
/// # Ok::<(), histok_types::Error>(())
/// ```
pub type HistogramTopK<K> = ExternalTopK<K, HistogramPolicy<K>>;

/// The §3 filter policy: a [`CutoffFilter`] over per-run histograms (or,
/// for `DISTINCT`, an exact distinct-key tracker) supplies the cutoff.
pub struct HistogramPolicy<K: SortKey> {
    filter: CutoffFilter<K>,
    /// Input elimination (Algorithm 1 line 4) is on: the filter is enabled
    /// and the query does not fold value aggregates, whose every duplicate
    /// must reach its group's accumulator (DESIGN.md §14).
    screen_input: bool,
    /// The cutoff proves `retained` rows (no approximation slack).
    exact: bool,
}

impl<K: SortKey> FilterPolicy<K> for HistogramPolicy<K> {
    const ALGORITHM: &'static str = "histogram-topk";
    const RUN_PREFIX: &'static str = "htopk";

    fn new(spec: &SortSpec, config: &TopKConfig) -> Result<Self> {
        let filter = filter_from_config(spec, config);
        let screen_input = config.filter_enabled
            && config.input_filter
            && (config.fold_op().is_none() || filter.distinct_mode());
        Ok(HistogramPolicy { filter, screen_input, exact: config.approx_slack == 0.0 })
    }

    fn screen(&mut self, key: &K) -> Screen {
        if !self.screen_input {
            return Screen::Admit;
        }
        if self.filter.distinct_mode() {
            // Dedup mode (Algorithm 1 line 4 adapted to DISTINCT):
            // duplicates of a tracked key fold into nothing — their
            // representative is already in the pipeline — and keys
            // strictly worse than `retained` known distinct keys die.
            return match self.filter.observe_input(key) {
                DistinctVerdict::Admit => Screen::Admit,
                DistinctVerdict::Duplicate => Screen::Duplicate,
                DistinctVerdict::Worse => Screen::Eliminate,
            };
        }
        if self.filter.eliminate(key) {
            Screen::Eliminate
        } else {
            Screen::Admit
        }
    }

    fn observer(&mut self) -> &mut dyn SpillObserver<K> {
        &mut self.filter
    }

    fn cutoff(&self) -> Option<&K> {
        self.filter.cutoff()
    }

    fn clip_at_cutoff(&self) -> bool {
        self.exact
    }

    fn report(&self, metrics: &mut OperatorMetrics) {
        metrics.filter = self.filter.metrics();
        metrics.eliminated_at_spill = metrics.filter.eliminated_at_spill;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunGenKind;
    use crate::topk::TopKOperator;
    use histok_sort::run_gen::ResiduePolicy;
    use histok_storage::MemoryBackend;
    use histok_types::Row;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    fn config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    fn run_op(spec: SortSpec, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    #[test]
    fn stays_in_memory_when_k_fits() {
        let keys = shuffled(10_000, 1);
        let (out, m) = run_op(SortSpec::ascending(100), config(1 << 20), &keys);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(!m.spilled);
        assert_eq!(m.rows_spilled(), 0);
        assert_eq!(m.eliminated_at_input, 10_000 - 100);
    }

    #[test]
    fn exact_top_k_when_output_exceeds_memory() {
        // k = 1000, memory for ~200 rows: must spill but stay correct.
        let keys = shuffled(50_000, 2);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1000), config(200 * row_bytes), &keys);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.rows_spilled() > 0);
    }

    #[test]
    fn filters_most_of_a_large_input() {
        // The headline property: spilled rows ≪ input rows.
        let keys = shuffled(100_000, 3);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(2_000), config(400 * row_bytes), &keys);
        assert_eq!(out, (0..2_000).collect::<Vec<_>>());
        assert!(
            m.rows_spilled() < 25_000,
            "expected heavy filtering, spilled {} of 100k",
            m.rows_spilled()
        );
        assert!(m.eliminated_at_input > 50_000);
        assert!(m.filter.refinements > 0);
    }

    #[test]
    fn descending_queries_work_externally() {
        let keys = shuffled(20_000, 4);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::descending(500), config(100 * row_bytes), &keys);
        assert_eq!(out, (19_500..20_000).rev().collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn offset_beyond_memory() {
        let keys = shuffled(20_000, 5);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(100).with_offset(400);
        let (out, m) = run_op(spec, config(100 * row_bytes), &keys);
        assert_eq!(out, (400..500).collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn duplicates_at_the_cutoff_are_preserved() {
        // 500 copies each of keys 0..100; top 750 must contain key 1 250
        // times exactly (500×key0 + 250×key1).
        let mut keys = Vec::new();
        for k in 0..100u64 {
            keys.extend(std::iter::repeat_n(k, 500));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(6));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, _) = run_op(SortSpec::ascending(750), config(100 * row_bytes), &keys);
        assert_eq!(out.len(), 750);
        assert_eq!(out.iter().filter(|&&k| k == 0).count(), 500);
        assert_eq!(out.iter().filter(|&&k| k == 1).count(), 250);
    }

    #[test]
    fn load_sort_store_mode_matches() {
        let keys = shuffled(30_000, 7);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(150 * row_bytes)
            .run_generation(RunGenKind::LoadSortStore)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(600), cfg, &keys);
        assert_eq!(out, (0..600).collect::<Vec<_>>());
        assert!(m.rows_spilled() < 30_000);
    }

    #[test]
    fn filter_disabled_spills_like_a_plain_sort() {
        let keys = shuffled(20_000, 8);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .filter_enabled(false)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(500), cfg, &keys);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        // Without the filter, (almost) the whole input reaches storage.
        assert!(m.rows_spilled() > 18_000);
        assert_eq!(m.eliminated_at_input, 0);
        assert_eq!(m.filter.buckets_inserted, 0);
    }

    #[test]
    fn variable_sized_rows_do_not_break_the_budget() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = SortSpec::ascending(200);
        let cfg = config(32 * 1024);
        let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        let mut keys = Vec::new();
        for _ in 0..5_000u64 {
            let k: u64 = rng.gen_range(0..1_000_000);
            let payload = vec![0u8; rng.gen_range(0..400)];
            keys.push(k);
            op.push(Row::new(k, payload)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        keys.sort_unstable();
        assert_eq!(out, keys[..200].to_vec());
    }

    #[test]
    fn cutoff_is_visible_and_tightens() {
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: HistogramTopK<u64> = HistogramTopK::new(
            SortSpec::ascending(300),
            config(50 * row_bytes),
            MemoryBackend::new(),
        )
        .unwrap();
        let keys = shuffled(30_000, 10);
        let mut last_cutoff: Option<u64> = None;
        for (i, &k) in keys.iter().enumerate() {
            op.push(Row::key_only(k)).unwrap();
            if i % 1000 == 0 && op.is_external() {
                if let (Some(prev), Some(cur)) = (last_cutoff, op.cutoff()) {
                    assert!(cur <= prev, "cutoff loosened: {prev} -> {cur}");
                }
                last_cutoff = op.cutoff();
            }
        }
        assert!(op.is_external());
        assert!(op.cutoff().is_some());
        let _ = op.finish().unwrap();
    }

    #[test]
    fn push_and_finish_after_finish_error() {
        let mut op: HistogramTopK<u64> =
            HistogramTopK::new(SortSpec::ascending(10), config(1 << 20), MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
        assert!(op.push(Row::key_only(1)).is_err());
    }

    #[test]
    fn spill_to_runs_residue_policy_matches_analysis_accounting() {
        let keys = shuffled(10_000, 11);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .residue(ResiduePolicy::SpillToRuns)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(300), cfg, &keys);
        assert_eq!(out, (0..300).collect::<Vec<_>>());
        // Everything that survived filtering is in runs; the final merge
        // reads it back.
        assert!(m.io.rows_read >= 300);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, m) = run_op(SortSpec::ascending(10), config(1024), &[]);
        assert!(out.is_empty());
        assert_eq!(m.rows_in, 0);
    }

    #[test]
    fn phase_timings_cover_all_three_phases() {
        let keys = shuffled(20_000, 13);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op = HistogramTopK::new(
            SortSpec::ascending(500),
            config(100 * row_bytes),
            MemoryBackend::new(),
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        {
            let stream = op.finish().unwrap();
            let out: Vec<u64> = stream.map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..500).collect::<Vec<_>>());
        } // stream dropped: final-merge time recorded
        let m = op.metrics();
        assert!(m.phases.in_memory_ns > 0, "in-memory phase not timed");
        assert!(m.phases.run_generation_ns > 0, "run generation not timed");
        assert!(m.phases.final_merge_ns > 0, "final merge not timed");
        // Spill writes were timed request-by-request.
        assert_eq!(m.io.write_latency.count, m.io.write_ops);
        assert!(m.io.read_latency.count > 0);
        assert_eq!(m.phases.spill_write_ns, m.io.write_latency.total_ns);
    }

    #[test]
    fn in_memory_runs_report_no_external_phases() {
        let keys = shuffled(5_000, 14);
        let (_, m) = run_op(SortSpec::ascending(100), config(1 << 20), &keys);
        assert!(m.phases.in_memory_ns > 0);
        assert_eq!(m.phases.run_generation_ns, 0);
        assert_eq!(m.phases.spill_write_ns, 0);
    }

    #[test]
    fn input_exactly_k() {
        let keys = shuffled(500, 12);
        let (out, _) = run_op(SortSpec::ascending(500), config(1 << 20), &keys);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    fn dedup_config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).dedup(true).build().unwrap()
    }

    #[test]
    fn dedup_external_returns_distinct_keys_and_folds() {
        // 40 copies each of keys 0..500; DISTINCT top-300 must return 300
        // *distinct* keys, where the plain query returns 40 copies apiece.
        let mut keys = Vec::new();
        for k in 0..500u64 {
            keys.extend(std::iter::repeat_n(k, 40));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(31));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(300), dedup_config(100 * row_bytes), &keys);
        assert_eq!(out, (0..300).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.rows_folded > 0);
        // The distinct tracker absorbs duplicates of retained groups and
        // eliminates worse groups before they reach storage.
        assert!(
            m.rows_spilled() < 2_000,
            "dedup spilled {} of {} input rows",
            m.rows_spilled(),
            keys.len()
        );
        // Same spec without dedup keeps whole duplicate groups instead.
        let (plain, _) = run_op(SortSpec::ascending(300), config(100 * row_bytes), &keys);
        let distinct: std::collections::BTreeSet<u64> = plain.iter().copied().collect();
        assert!(distinct.len() <= 8, "plain top-300 covers ~8 duplicate groups");
    }

    #[test]
    fn dedup_in_memory_folds_without_spilling() {
        // 20 copies each of 0..100 with a generous budget: the folded
        // store handles DISTINCT entirely in memory.
        let mut keys: Vec<u64> = (0..2_000).map(|i| i % 100).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(32));
        let (out, m) = run_op(SortSpec::ascending(50), dedup_config(1 << 20), &keys);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(!m.spilled);
        assert_eq!(m.rows_spilled(), 0);
        assert!(m.rows_folded > 0);
    }

    #[test]
    fn dedup_offset_counts_groups_not_rows() {
        // OFFSET pages over *distinct* keys; exercises the fast-skip
        // gating (block row counts predate folding, so offsets must be
        // applied to the folded stream).
        let mut keys = Vec::new();
        for k in 0..400u64 {
            keys.extend(std::iter::repeat_n(k, 15));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(33));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(50).with_offset(100);
        let (out, m) = run_op(spec, dedup_config(60 * row_bytes), &keys);
        assert_eq!(out, (100..150).collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn aggregate_count_externally_matches_per_group_counts() {
        // COUNT per group with 7 copies of each key; value aggregates get
        // no pre-aggregation filtering, so every row flows through the
        // fold pipeline and each surviving group carries its exact count.
        let mut keys = Vec::new();
        for k in 0..200u64 {
            keys.extend(std::iter::repeat_n(k, 7));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(34));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(60 * row_bytes)
            .block_bytes(1024)
            .aggregate(histok_types::AggregateOp::Count)
            .build()
            .unwrap();
        let mut op =
            HistogramTopK::new(SortSpec::ascending(100), cfg, MemoryBackend::new()).unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<(u64, u64)> = op
            .finish()
            .unwrap()
            .map(|r| {
                let r = r.unwrap();
                (r.key, histok_types::decode_count(&r.payload))
            })
            .collect();
        assert_eq!(out, (0..100).map(|k| (k, 7)).collect::<Vec<_>>());
        let m = op.metrics();
        assert!(m.spilled);
        assert!(m.rows_folded > 0);
        assert_eq!(m.eliminated_at_input, 0, "no input elimination under value aggregation");
    }
}
