//! The traditional external-merge-sort top-k (§2.4).
//!
//! "The entire input is consumed and written to sorted runs on secondary
//! storage, the final result is produced by scanning and merging all the
//! sorted runs until k records have been produced." No cutoff, no run-size
//! limit, quicksort runs — the PostgreSQL behaviour whose order-of-magnitude
//! performance cliff §5.2 demonstrates.

use std::sync::Arc;

use histok_sort::{ExternalSorter, MemoryBudget, MergeTuning};
use histok_storage::{IoStats, StorageBackend};
use histok_types::{Error, Phase, Result, Row, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::metrics::OperatorMetrics;
use crate::topk::{already_finished, PipelineStats, RowStream, TopKOperator};

/// Top-k by fully sorting the input externally, then taking `k` rows.
pub struct TraditionalExternalTopK<K: SortKey> {
    spec: SortSpec,
    sorter: Option<ExternalSorter<K>>,
    rows_in: u64,
    peak_bytes: usize,
    budget: usize,
    /// The whole consume stage is run generation: there is no filtering
    /// in-memory phase to account separately.
    stats: PipelineStats,
}

impl<K: SortKey> TraditionalExternalTopK<K> {
    /// Creates the operator with `budget_bytes` of sort workspace and the
    /// sorter's own defaults: synchronous I/O, serial merges.
    pub fn new(
        spec: SortSpec,
        budget_bytes: usize,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        if budget_bytes == 0 {
            return Err(Error::InvalidConfig("memory budget must be positive".into()));
        }
        spec.validate()?;
        let backend: Arc<dyn StorageBackend> = Arc::new(backend);
        let stats = PipelineStats::new(backend.clone(), Phase::RunGeneration);
        let sorter = ExternalSorter::with_memory_budget(
            backend,
            spec.order,
            MemoryBudget::new(budget_bytes),
            stats.io.clone(),
        )
        .with_tuning(MergeTuning::default().with_stats(Some(stats.cmp.clone())));
        Ok(Self::with_sorter(spec, sorter, budget_bytes, stats))
    }

    /// As [`TraditionalExternalTopK::new`] with a shared backend and the
    /// I/O and merge knobs from `config` (block size, spill pipeline,
    /// read-ahead, offset-value coding, merge threads); the sort workspace
    /// is `config.memory_budget` (or its lease).
    pub fn with_config(
        spec: SortSpec,
        config: &TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        config.validate()?;
        spec.validate()?;
        if config.fold_op().is_some() {
            return Err(Error::InvalidConfig(
                "dedup/aggregate queries are not supported by the traditional baseline".into(),
            ));
        }
        let stats = PipelineStats::new(backend.clone(), Phase::RunGeneration);
        let sorter = config.external_sorter(backend, spec.order, stats.io.clone(), &stats.cmp);
        let budget = config.make_budget().limit();
        Ok(Self::with_sorter(spec, sorter, budget, stats))
    }

    fn with_sorter(
        spec: SortSpec,
        sorter: ExternalSorter<K>,
        budget: usize,
        stats: PipelineStats,
    ) -> Self {
        TraditionalExternalTopK {
            spec,
            sorter: Some(sorter),
            rows_in: 0,
            peak_bytes: 0,
            budget,
            stats,
        }
    }

    /// The shared I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        &self.stats.io
    }
}

impl<K: SortKey> TopKOperator<K> for TraditionalExternalTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        let sorter =
            self.sorter.as_mut().ok_or_else(|| Error::InvalidConfig("push after finish".into()))?;
        self.rows_in += 1;
        sorter.push(row)
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        let Some(sorter) = self.sorter.take() else {
            return already_finished("TraditionalExternalTopK");
        };
        self.peak_bytes = self.budget; // uses its whole workspace
        let stream = sorter.finish()?;
        Ok(self.stats.merged_output(stream, &self.spec))
    }

    fn metrics(&self) -> OperatorMetrics {
        OperatorMetrics {
            rows_in: self.rows_in,
            peak_memory_bytes: self.peak_bytes,
            ..self.stats.metrics()
        }
    }

    fn algorithm(&self) -> &'static str {
        "traditional-ems"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    #[test]
    fn produces_exact_top_k_and_spills_everything() {
        let mut keys: Vec<u64> = (0..5000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(11));
        let mut op =
            TraditionalExternalTopK::new(SortSpec::ascending(50), 100 * 60, MemoryBackend::new())
                .unwrap();
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let m = op.metrics();
        // The defining flaw: all 5000 rows were spilled for 50 outputs.
        assert!(m.rows_spilled() >= 5000);
        assert!((m.spill_fraction() - 1.0).abs() < 0.01 || m.spill_fraction() > 1.0);
        assert_eq!(m.eliminated_at_input, 0);
    }

    #[test]
    fn offset_works() {
        let mut op = TraditionalExternalTopK::new(
            SortSpec::ascending(5).with_offset(10),
            40 * 60,
            MemoryBackend::new(),
        )
        .unwrap();
        for k in (0..200u64).rev() {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn small_input_without_spilling() {
        let mut op =
            TraditionalExternalTopK::new(SortSpec::descending(2), 1 << 20, MemoryBackend::new())
                .unwrap();
        for k in [4u64, 8, 2] {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![8, 4]);
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: TraditionalExternalTopK<u64> =
            TraditionalExternalTopK::new(SortSpec::ascending(1), 1024, MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(TraditionalExternalTopK::<u64>::new(
            SortSpec::ascending(1),
            0,
            MemoryBackend::new()
        )
        .is_err());
    }
}
