//! The one external top-k pipeline.
//!
//! The paper's §2.5 baseline ([Graefe'08]) and its §3 algorithm run the
//! same state machine: an in-memory priority queue while the output fits
//! (§2.3), filtered run generation once it does not, and the shared final
//! merge ([`histok_sort::final_merge()`]). They differ only in the
//! [`FilterPolicy`] — where the cutoff key comes from, which rows it
//! eliminates, and what happens after each spilled push — and in the run
//! generation that policy asks for. [`ExternalTopK`] is generic over the
//! policy, so the per-row input test is statically dispatched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use histok_sort::run_gen::{
    BatchSort, LoadSortStore, ReplacementSelection, ResiduePolicy, RunGenerator,
};
use histok_sort::{
    final_merge, CascadeStats, CmpStats, FoldSpec, FoldStats, MergeTuning, PartitionCounters,
    SortedStream, SpillObserver,
};
use histok_storage::{IoScheduler, IoStats, RunCatalog, StorageBackend};
use histok_types::{Aggregator, Error, Phase, PhaseTimer, Result, Row, SortKey, SortSpec};

use crate::config::{RunGenKind, TopKConfig};
use crate::metrics::OperatorMetrics;
use crate::topk::{
    already_finished, FoldedStore, Offer, RetainedHeap, RowStream, SpecStream, TimedStream,
    TopKOperator,
};

/// A [`FilterPolicy`]'s verdict on a row arriving in external mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screen {
    /// The row enters run generation.
    Admit,
    /// The row duplicates a key already in the pipeline and folds into
    /// nothing (dedup mode).
    Duplicate,
    /// The row sorts past the cutoff and is eliminated (Algorithm 1
    /// line 4).
    Eliminate,
}

/// What tells the external top-k algorithms apart: the source of the
/// cutoff key and how it filters input and spills.
pub trait FilterPolicy<K: SortKey>: Send + Sized {
    /// The algorithm name reported by [`TopKOperator::algorithm`].
    const ALGORITHM: &'static str;
    /// Base name of the operator's spilled run objects.
    const RUN_PREFIX: &'static str;

    /// Builds the policy for one query, rejecting configurations it does
    /// not support.
    fn new(spec: &SortSpec, config: &TopKConfig) -> Result<Self>;

    /// The run-generation strategy (the configured one by default).
    fn run_generation(&self, config: &TopKConfig) -> RunGenKind {
        config.run_generation
    }

    /// What happens to rows still buffered at end of input (the
    /// configured policy by default).
    fn residue(&self, config: &TopKConfig) -> ResiduePolicy {
        config.residue
    }

    /// The input test for a row arriving in external mode (and for the
    /// retained rows re-entering at the switch).
    fn screen(&mut self, key: &K) -> Screen;

    /// The observer run generation reports spills to (Algorithm 1
    /// lines 8–13).
    fn observer(&mut self) -> &mut dyn SpillObserver<K>;

    /// Runs after every row pushed into run generation, e.g. the
    /// [Graefe'08] early merge step. A no-op by default.
    fn after_push(&mut self, catalog: &RunCatalog<K>, tuning: &MergeTuning) -> Result<()> {
        let _ = (catalog, tuning);
        Ok(())
    }

    /// The current cutoff key, if established.
    fn cutoff(&self) -> Option<&K>;

    /// Whether the cutoff proves `offset + limit` rows at or before it,
    /// so the partitioned final merge may clip its plan there.
    fn clip_at_cutoff(&self) -> bool;

    /// Fills in the policy's own counters (filter activity, spill-time
    /// eliminations, early merges).
    fn report(&self, metrics: &mut OperatorMetrics);
}

/// Counters every external operator keeps the same way, and the one place
/// they become [`OperatorMetrics`]: I/O, phase clock, comparison counters
/// and the final merge's partition and cascade shape.
pub(crate) struct PipelineStats {
    pub(crate) io: IoStats,
    pub(crate) cmp: CmpStats,
    /// Where the operator spills; its modelled I/O time joins the metrics.
    pub(crate) backend: Arc<dyn StorageBackend>,
    /// Phase clock: one `Instant` pair per phase transition.
    timer: PhaseTimer,
    /// Final-merge nanoseconds, filled in by the [`TimedStream`] wrapper
    /// when the output stream is dropped.
    final_merge_ns: Arc<AtomicU64>,
    /// Key ranges the final merge ran across (1 = serial).
    merge_partitions: u64,
    /// Per-partition row counters when the final merge went parallel.
    partition_counters: Option<PartitionCounters>,
    /// Intermediate cascade-merge pass counters.
    cascade: CascadeStats,
}

impl PipelineStats {
    pub(crate) fn new(backend: Arc<dyn StorageBackend>, first_phase: Phase) -> Self {
        PipelineStats {
            io: IoStats::new(),
            cmp: CmpStats::new(),
            backend,
            timer: PhaseTimer::started(first_phase),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            merge_partitions: 1,
            partition_counters: None,
            cascade: CascadeStats::default(),
        }
    }

    pub(crate) fn enter(&mut self, phase: Phase) {
        self.timer.enter(phase);
    }

    /// Ends the consume stage and wraps `rows` as the operator's output:
    /// `offset`/`limit` applied, the time until the stream is dropped
    /// charged to the final merge.
    pub(crate) fn output<K: SortKey>(
        &mut self,
        rows: impl Iterator<Item = Result<Row<K>>> + Send + 'static,
        spec: &SortSpec,
    ) -> RowStream<K> {
        self.timer.stop();
        Box::new(TimedStream::new(SpecStream::new(rows, spec), self.final_merge_ns.clone()))
    }

    /// Records the final merge's shape and returns its output stream,
    /// skipping only the part of the offset the merge did not fast-skip.
    pub(crate) fn merged_output<K: SortKey>(
        &mut self,
        stream: SortedStream<K>,
        spec: &SortSpec,
    ) -> RowStream<K> {
        self.merge_partitions = stream.merge_partitions() as u64;
        self.partition_counters = stream.partition_counters();
        self.cascade = stream.cascade_stats();
        let spec = SortSpec { offset: spec.offset - stream.rows_skipped(), ..*spec };
        self.output(stream, &spec)
    }

    /// The shared part of every operator's metrics; `spilled` defaults to
    /// "created a run".
    pub(crate) fn metrics(&self) -> OperatorMetrics {
        let mut io = self.io.snapshot();
        io.modelled_io_ns = io.modelled_io_ns.max(self.backend.modelled_io_ns());
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        OperatorMetrics {
            io,
            spilled: io.runs_created > 0,
            cmp: self.cmp.snapshot(),
            phases,
            merge_partitions: self.merge_partitions,
            partition_rows: self
                .partition_counters
                .as_ref()
                .map(|c| c.snapshot())
                .unwrap_or_default(),
            cascade: self.cascade,
            ..Default::default()
        }
    }
}

/// The external top-k operator over filter policy `P`; see the module
/// docs. Use it through [`crate::HistogramTopK`] or
/// [`crate::OptimizedExternalTopK`].
pub struct ExternalTopK<K: SortKey, P: FilterPolicy<K>> {
    spec: SortSpec,
    config: TopKConfig,
    pub(crate) policy: P,
    state: State<K>,
    rows_in: u64,
    eliminated_at_input: u64,
    peak_bytes: usize,
    spilled: bool,
    stats: PipelineStats,
    /// Shared background-I/O pool, built once from `config.io_threads`
    /// and reused by every spill and merge this operator performs.
    io_scheduler: IoScheduler,
    /// Fold counters every pipeline component flushes into; zero unless
    /// the query runs in dedup/aggregate mode.
    fold_stats: FoldStats,
    /// The aggregator for fold mode (`None` = plain top-k).
    agg: Option<Arc<dyn Aggregator>>,
}

enum State<K: SortKey> {
    /// Phase 1: plain in-memory priority queue.
    InMemory(MemStore<K>),
    /// Phase 2: run generation guarded by the filter policy.
    External(Box<Spill<K>>),
    /// Output has been produced.
    Finished,
}

/// External-mode machinery, boxed to keep the `State` variants similar in
/// size.
struct Spill<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    gen: Box<dyn RunGenerator<K>>,
    tuning: MergeTuning,
}

/// Phase-1 store: a plain retained heap, or the folding group store when
/// the query runs in dedup/aggregate mode.
enum MemStore<K: SortKey> {
    Heap(RetainedHeap<K>),
    Folded(FoldedStore<K>),
}

impl<K: SortKey> MemStore<K> {
    fn bytes(&self) -> usize {
        match self {
            MemStore::Heap(h) => h.bytes(),
            MemStore::Folded(f) => f.bytes(),
        }
    }

    fn is_full(&self) -> bool {
        match self {
            MemStore::Heap(h) => h.is_full(),
            MemStore::Folded(f) => f.is_full(),
        }
    }

    fn cutoff(&self) -> Option<&K> {
        match self {
            MemStore::Heap(h) => h.cutoff(),
            MemStore::Folded(f) => f.cutoff(),
        }
    }

    fn offer(&mut self, row: Row<K>) -> Offer {
        match self {
            MemStore::Heap(h) => h.offer(row),
            MemStore::Folded(f) => f.offer(row),
        }
    }

    fn drain_unordered(&mut self) -> Vec<Row<K>> {
        match self {
            MemStore::Heap(h) => h.drain_unordered(),
            MemStore::Folded(f) => f.drain_unordered(),
        }
    }

    fn into_sorted(self) -> Vec<Row<K>> {
        match self {
            MemStore::Heap(h) => h.into_sorted(),
            MemStore::Folded(f) => f.into_sorted(),
        }
    }
}

impl<K: SortKey, P: FilterPolicy<K>> ExternalTopK<K, P> {
    /// Creates the operator. `backend` receives any spilled runs.
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, config, Arc::new(backend))
    }

    /// As [`ExternalTopK::new`] with a shared backend handle.
    pub fn with_arc(
        spec: SortSpec,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        let policy = P::new(&spec, &config)?;
        let fold_stats = FoldStats::new();
        let agg = config.fold_op().map(|op| op.aggregator());
        let store = match &agg {
            Some(a) => MemStore::Folded(FoldedStore::new(
                spec.retained(),
                spec.order,
                a.clone(),
                fold_stats.clone(),
            )),
            None => MemStore::Heap(RetainedHeap::new(spec.retained(), spec.order)),
        };
        Ok(ExternalTopK {
            state: State::InMemory(store),
            io_scheduler: config.io_scheduler(),
            stats: PipelineStats::new(backend, Phase::InMemory),
            policy,
            fold_stats,
            agg,
            spec,
            config,
            rows_in: 0,
            eliminated_at_input: 0,
            peak_bytes: 0,
            spilled: false,
        })
    }

    /// The current cutoff key: the in-memory queue's worst retained key, or
    /// the policy's cutoff once external.
    pub fn cutoff(&self) -> Option<K> {
        match &self.state {
            State::InMemory(store) => store.cutoff().cloned(),
            State::External(_) => self.policy.cutoff().cloned(),
            State::Finished => None,
        }
    }

    /// True once the operator has switched to external mode.
    pub fn is_external(&self) -> bool {
        matches!(self.state, State::External(_))
    }

    /// The operator's I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        &self.stats.io
    }

    /// The fold instruction every sort component receives in fold mode:
    /// the aggregator plus the shared counters.
    fn fold_spec(&self) -> Option<FoldSpec> {
        self.agg.as_ref().map(|a| FoldSpec::new(a.clone()).with_stats(self.fold_stats.clone()))
    }

    fn build_generator(&self, catalog: Arc<RunCatalog<K>>) -> Box<dyn RunGenerator<K>> {
        // Lease-aware budgets: when the config carries a `budget_lease`,
        // every generator reads its limit through the shared handle, so an
        // admission controller can resize a running query's workspace.
        let budget = self.config.make_budget();
        let mut gen: Box<dyn RunGenerator<K>> = match self.policy.run_generation(&self.config) {
            RunGenKind::ReplacementSelection => {
                let mut gen = ReplacementSelection::with_budget(catalog, budget)
                    .with_ovc(self.config.ovc_enabled, Some(self.stats.cmp.clone()));
                if self.config.limit_run_size {
                    gen = gen.with_run_limit(self.spec.retained());
                }
                Box::new(gen)
            }
            // Radix batching is a faster load-sort-store with identical
            // run shapes; replacement selection's run shape *is* its
            // strategy, so it keeps its heap.
            RunGenKind::LoadSortStore if K::norm_prefix_is_exact() => {
                Box::new(BatchSort::with_budget(catalog, budget))
            }
            RunGenKind::LoadSortStore => Box::new(LoadSortStore::with_budget(catalog, budget)),
        };
        // Fold mode: duplicates collapse inside run generation where the
        // generator supports it; generators that ignore the hint still
        // yield deduplicated output because every merge duel folds too.
        gen.set_fold(self.fold_spec());
        gen
    }

    /// Leaves phase 1: every retained row re-enters through run generation.
    fn switch_to_external(&mut self, rows: Vec<Row<K>>) -> Result<()> {
        self.stats.enter(Phase::RunGeneration);
        let catalog = self.config.run_catalog(
            self.stats.backend.clone(),
            P::RUN_PREFIX,
            self.spec.order,
            self.stats.io.clone(),
            &self.io_scheduler,
        );
        let mut gen = self.build_generator(catalog.clone());
        // In dedup mode the re-entering rows (distinct by construction)
        // seed the distinct tracker, so the cutoff is established before
        // the first external-phase row arrives; groups past the
        // (slack-reduced) filter target are already out.
        for row in rows {
            if self.policy.screen(&row.key) == Screen::Eliminate {
                self.eliminated_at_input += 1;
                continue;
            }
            gen.push(row, self.policy.observer())?;
        }
        let tuning =
            self.config.merge_tuning(&self.stats.cmp, &self.io_scheduler, self.fold_spec());
        self.state = State::External(Box::new(Spill { catalog, gen, tuning }));
        self.spilled = true;
        Ok(())
    }

    fn push_external(&mut self, row: Row<K>) -> Result<()> {
        let State::External(spill) = &mut self.state else { unreachable!() };
        match self.policy.screen(&row.key) {
            Screen::Admit => {}
            Screen::Duplicate => {
                self.fold_stats.record_pre_spill(1, row.encoded_len() as u64);
                return Ok(());
            }
            Screen::Eliminate => {
                self.eliminated_at_input += 1;
                return Ok(());
            }
        }
        spill.gen.push(row, self.policy.observer())?;
        self.peak_bytes = self.peak_bytes.max(spill.gen.buffered_bytes());
        self.policy.after_push(&spill.catalog, &spill.tuning)
    }
}

impl<K: SortKey, P: FilterPolicy<K>> TopKOperator<K> for ExternalTopK<K, P> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        self.rows_in += 1;
        // Operator boundary: in fold mode the raw payload becomes an
        // accumulator exactly once per input row. Rows re-entering run
        // generation at the external switch are already accumulators and
        // bypass this.
        let row = match &self.agg {
            Some(agg) => Row { payload: agg.init(row.payload), key: row.key },
            None => row,
        };
        match &mut self.state {
            State::InMemory(store) => {
                let fp = histok_sort::row_footprint(&row);
                if !store.is_full() && store.bytes() + fp > self.config.effective_memory_budget() {
                    // The output no longer fits: activate run generation.
                    let rows = store.drain_unordered();
                    self.switch_to_external(rows)?;
                    return self.push_external(row);
                }
                match store.offer(row) {
                    Offer::Grew | Offer::Folded => {}
                    Offer::Displaced | Offer::Rejected => self.eliminated_at_input += 1,
                }
                self.peak_bytes = self.peak_bytes.max(store.bytes());
                if store.is_full() && store.bytes() > self.config.effective_memory_budget() {
                    // Variable-size rows grew the full queue past its
                    // budget (§2.3's robustness hazard): spill adaptively
                    // instead of failing.
                    let rows = store.drain_unordered();
                    self.switch_to_external(rows)?;
                }
                Ok(())
            }
            State::External(_) => self.push_external(row),
            State::Finished => Err(Error::InvalidConfig("push after finish".into())),
        }
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        match std::mem::replace(&mut self.state, State::Finished) {
            State::InMemory(store) => {
                let rows = store.into_sorted();
                Ok(self.stats.output(rows.into_iter().map(Ok), &self.spec))
            }
            State::External(spill) => {
                let Spill { catalog, mut gen, tuning } = *spill;
                let residue_policy = self.policy.residue(&self.config);
                let residue = gen.finish(self.policy.observer(), residue_policy)?;
                let plan = self.config.final_merge_plan(
                    &self.spec,
                    tuning,
                    self.policy.cutoff().cloned(),
                    self.policy.clip_at_cutoff(),
                );
                // Residue spilling above and the cascade passes inside the
                // final merge still count as run generation; everything
                // from the returned stream on is the final merge.
                let stream = final_merge(vec![(catalog, residue)], &plan)?;
                Ok(self.stats.merged_output(stream, &self.spec))
            }
            State::Finished => already_finished(P::ALGORITHM),
        }
    }

    fn metrics(&self) -> OperatorMetrics {
        let fold = self.fold_stats.snapshot();
        let mut metrics = OperatorMetrics {
            rows_in: self.rows_in,
            eliminated_at_input: self.eliminated_at_input,
            spilled: self.spilled,
            peak_memory_bytes: self.peak_bytes,
            rows_folded: fold.rows_folded,
            bytes_folded_pre_spill: fold.bytes_folded_pre_spill,
            ..self.stats.metrics()
        };
        self.policy.report(&mut metrics);
        metrics
    }

    fn algorithm(&self) -> &'static str {
        P::ALGORITHM
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistogramTopK, OptimizedExternalTopK};
    use histok_storage::MemoryBackend;

    /// 100 rows with 8-byte payloads fill a k = 100 heap well inside a
    /// 20,000-byte budget; 100 better keys with 4 KiB payloads then
    /// displace them one by one, growing the *full* heap past the budget.
    fn budget_blowup_rows() -> Vec<Row<u64>> {
        let small = (1_000..1_100u64).map(|k| Row::new(k, vec![0u8; 8]));
        let large = (0..100u64).map(|k| Row::new(k, vec![0u8; 4096]));
        small.chain(large).collect()
    }

    fn run_over_budget(mut op: impl TopKOperator<u64>) -> (Vec<u64>, OperatorMetrics) {
        for row in budget_blowup_rows() {
            op.push(row).unwrap();
        }
        let out = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    #[test]
    fn every_policy_spills_when_the_full_heap_outgrows_its_budget() {
        const BUDGET: usize = 20_000;
        let spec = SortSpec::ascending(100);
        let config = || TopKConfig::builder().memory_budget(BUDGET).build().unwrap();
        let largest_row = histok_sort::row_footprint(&Row::new(0u64, vec![0u8; 4096]));
        let runs = [
            run_over_budget(HistogramTopK::new(spec, config(), MemoryBackend::new()).unwrap()),
            run_over_budget(
                OptimizedExternalTopK::new(spec, config(), MemoryBackend::new()).unwrap(),
            ),
        ];
        for (out, m) in runs {
            assert_eq!(out, (0..100).collect::<Vec<_>>());
            assert!(m.spilled, "a full heap past its budget must spill");
            assert!(
                m.peak_memory_bytes <= BUDGET + largest_row,
                "peak {} B exceeds the {BUDGET} B budget by more than one row",
                m.peak_memory_bytes
            );
        }
    }
}
