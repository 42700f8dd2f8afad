//! The optimized external-merge-sort top-k of [Graefe'08] — the paper's
//! baseline (§2.5, §5.1.3).
//!
//! Beyond the traditional algorithm it applies three optimizations:
//!
//! 1. **run size ≤ k** — no run ever needs more rows than the output;
//! 2. **kth-key filter** — once any single run holds `k` rows, its `k`th
//!    key is a valid cutoff for all further input;
//! 3. **early merge step** — when `k` exceeds a run (the paper's target
//!    regime), runs are merged early into an intermediate run of `k` rows
//!    whose last key becomes the cutoff.
//!
//! Compared to the histogram algorithm this establishes a cutoff *later*
//! (a full merge step must complete first), pays merge I/O to sharpen it,
//! and disrupts pipelined run generation — exactly the costs §3.2.1
//! quantifies ("our algorithm will write 12× less input rows compared to
//! the optimized external merge sort").

use histok_sort::run_gen::ResiduePolicy;
use histok_sort::{merge_runs_to_new_tuned, MergeTuning, SpillObserver};
use histok_storage::RunCatalog;
use histok_types::{Error, Result, SortKey, SortOrder, SortSpec};

use crate::config::{RunGenKind, TopKConfig};
use crate::metrics::OperatorMetrics;
use crate::topk::pipeline::{ExternalTopK, FilterPolicy, Screen};

/// The [Graefe'08] optimized external top-k: the shared pipeline under the
/// [`KthKeyPolicy`].
pub type OptimizedExternalTopK<K> = ExternalTopK<K, KthKeyPolicy<K>>;

/// The §2.5 filter policy: kth-key sharpening during run generation plus
/// the early merge step, with cutoff-based elimination (no histograms).
pub struct KthKeyPolicy<K> {
    order: SortOrder,
    k: u64,
    cutoff: Option<K>,
    rows_in_run: u64,
    rows_spilled: u64,
    eliminated_at_spill: u64,
    early_merges: u64,
    /// Re-derive the cutoff by another merge every time this many more rows
    /// have spilled; `None` (the default, per [Graefe'08]) merges once.
    resharpen_every: Option<u64>,
    spilled_at_last_merge: u64,
}

impl<K: SortKey> KthKeyPolicy<K> {
    fn tighten(&mut self, key: &K) {
        let tighter = match &self.cutoff {
            Some(cur) => self.order.precedes(key, cur),
            None => true,
        };
        if tighter {
            self.cutoff = Some(key.clone());
        }
    }

    fn eliminate(&self, key: &K) -> bool {
        match &self.cutoff {
            Some(cut) => self.order.follows(key, cut),
            None => false,
        }
    }
}

impl<K: SortKey> SpillObserver<K> for KthKeyPolicy<K> {
    fn run_started(&mut self, _estimated_rows: u64) {
        self.rows_in_run = 0;
    }

    fn should_eliminate(&mut self, key: &K) -> bool {
        let kill = self.eliminate(key);
        if kill {
            self.eliminated_at_spill += 1;
        }
        kill
    }

    fn row_spilled(&mut self, key: &K) {
        self.rows_in_run += 1;
        self.rows_spilled += 1;
        if self.rows_in_run == self.k {
            // A single run now proves k rows at or below `key`.
            self.tighten(key);
        }
    }

    fn cutoff_key(&mut self) -> Option<K> {
        // The kth-key rule is exactly "follows the cutoff"; batched run
        // generation may clip whole sorted buffers against it.
        self.cutoff.clone()
    }

    fn rows_clipped(&mut self, n: u64) {
        self.eliminated_at_spill += n;
    }
}

impl<K: SortKey> FilterPolicy<K> for KthKeyPolicy<K> {
    const ALGORITHM: &'static str = "optimized-ems";
    const RUN_PREFIX: &'static str = "opttopk";

    fn new(spec: &SortSpec, config: &TopKConfig) -> Result<Self> {
        if config.fold_op().is_some() {
            return Err(Error::InvalidConfig(
                "dedup/aggregate queries are not supported by the optimized baseline".into(),
            ));
        }
        Ok(KthKeyPolicy {
            order: spec.order,
            k: spec.retained(),
            cutoff: None,
            rows_in_run: 0,
            rows_spilled: 0,
            eliminated_at_spill: 0,
            early_merges: 0,
            resharpen_every: None,
            spilled_at_last_merge: 0,
        })
    }

    /// Replacement selection *defines* this baseline ([Graefe'08]).
    fn run_generation(&self, _config: &TopKConfig) -> RunGenKind {
        RunGenKind::ReplacementSelection
    }

    fn residue(&self, _config: &TopKConfig) -> ResiduePolicy {
        ResiduePolicy::KeepInMemory
    }

    fn screen(&mut self, key: &K) -> Screen {
        if self.eliminate(key) {
            Screen::Eliminate
        } else {
            Screen::Admit
        }
    }

    fn observer(&mut self) -> &mut dyn SpillObserver<K> {
        self
    }

    /// The early merge step: combine all finished runs into one
    /// intermediate run of at most `k` rows; its last key is the cutoff.
    ///
    /// Triggered once `2k` rows have spilled: merging at exactly `k` rows
    /// would derive a cutoff near the maximum seen key (useless), whereas
    /// at `2k` the intermediate run's `k`th key sits near the median of the
    /// spilled keys — the paper's §3.2.1 account of this technique
    /// ("merging 10 initial runs [10 × 1000 rows, k = 5000] establishes a
    /// cutoff key able to eliminate ½ of the remaining input").
    fn after_push(&mut self, catalog: &RunCatalog<K>, tuning: &MergeTuning) -> Result<()> {
        let due = match (&self.cutoff, self.resharpen_every) {
            (None, _) => self.rows_spilled >= 2 * self.k,
            (Some(_), Some(every)) => self.rows_spilled - self.spilled_at_last_merge >= every,
            (Some(_), None) => false,
        };
        if !due || catalog.len() < 2 {
            return Ok(());
        }
        let runs = catalog.runs();
        let merged =
            merge_runs_to_new_tuned(catalog, &runs, Some(self.k), self.cutoff.as_ref(), tuning)?;
        if merged.rows >= self.k {
            if let Some(last) = &merged.last_key {
                self.tighten(last);
            }
        }
        self.early_merges += 1;
        self.spilled_at_last_merge = self.rows_spilled;
        Ok(())
    }

    fn cutoff(&self) -> Option<&K> {
        self.cutoff.as_ref()
    }

    /// The kth-key cutoff (when set) proves at least `retained` rows at or
    /// below it.
    fn clip_at_cutoff(&self) -> bool {
        true
    }

    fn report(&self, metrics: &mut OperatorMetrics) {
        metrics.eliminated_at_spill = self.eliminated_at_spill;
        metrics.early_merges = self.early_merges;
    }
}

impl<K: SortKey> ExternalTopK<K, KthKeyPolicy<K>> {
    /// Enables periodic re-merging: after the first early merge, merge
    /// again whenever `rows` more rows have spilled (an ablation knob — a
    /// more generous baseline than [Graefe'08] prescribes).
    pub fn with_resharpen_every(mut self, rows: u64) -> Self {
        self.policy.resharpen_every = Some(rows.max(1));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKOperator;
    use histok_storage::MemoryBackend;
    use histok_types::Row;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    fn run_op(spec: SortSpec, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = OptimizedExternalTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    #[test]
    fn in_memory_when_k_fits() {
        let keys = shuffled(5_000, 1);
        let (out, m) = run_op(SortSpec::ascending(50), config(1 << 20), &keys);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(!m.spilled);
    }

    #[test]
    fn correct_when_k_exceeds_memory() {
        let keys = shuffled(40_000, 2);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.early_merges >= 1, "early merge should have fired");
    }

    #[test]
    fn early_merge_establishes_a_filter() {
        let keys = shuffled(50_000, 3);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out.len(), 1_000);
        // After the early merge the cutoff eliminates most remaining input.
        assert!(m.eliminated_at_input > 10_000, "eliminated {}", m.eliminated_at_input);
        // But it still spills more than the histogram algorithm would —
        // verified cross-algorithm in the integration tests.
        assert!(m.rows_spilled() > 2_000);
    }

    #[test]
    fn spills_less_than_traditional() {
        let keys = shuffled(50_000, 4);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (_, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert!(
            m.rows_spilled() < 40_000,
            "optimized baseline spilled {} of 50k",
            m.rows_spilled()
        );
    }

    #[test]
    fn resharpening_reduces_spill_further() {
        let keys = shuffled(60_000, 5);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(1_000);

        let run_with = |resharpen: Option<u64>| {
            let mut op =
                OptimizedExternalTopK::new(spec, config(200 * row_bytes), MemoryBackend::new())
                    .unwrap();
            if let Some(every) = resharpen {
                op = op.with_resharpen_every(every);
            }
            for &k in &keys {
                op.push(Row::key_only(k)).unwrap();
            }
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..1_000).collect::<Vec<_>>());
            op.metrics()
        };

        let single = run_with(None);
        let periodic = run_with(Some(1_000));
        assert!(periodic.early_merges > single.early_merges);
        // Fewer *run-generation* rows spilled thanks to the sharper filter
        // (total I/O may still be higher due to merge rewrites).
        assert!(periodic.eliminated_at_input >= single.eliminated_at_input);
    }

    #[test]
    fn descending_works() {
        let keys = shuffled(20_000, 6);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, _) = run_op(SortSpec::descending(500), config(100 * row_bytes), &keys);
        assert_eq!(out, (19_500..20_000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn offset_supported() {
        let keys = shuffled(10_000, 7);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(50).with_offset(200);
        let (out, _) = run_op(spec, config(100 * row_bytes), &keys);
        assert_eq!(out, (200..250).collect::<Vec<_>>());
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: OptimizedExternalTopK<u64> =
            OptimizedExternalTopK::new(SortSpec::ascending(1), config(1024), MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }
}
