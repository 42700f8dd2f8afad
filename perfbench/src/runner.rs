//! Executes queries through the server and records what each one did.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_core::{OperatorMetrics, TopKConfig};
use histok_exec::{Query, TopKServer};
use histok_storage::{MemoryBackend, StorageBackend, ThrottleModel, ThrottledBackend};

use crate::cpu;
use crate::input::{Dataset, PullClock, SharedRows};
use crate::probe::{ProbeBackend, ProbeReport, StoreGauge, TraceCtx};
use crate::trace::{Span, Tracer};
use crate::workload::{Class, Plan, Stream, BLOCK_BYTES, STORAGE_LATENCY};

/// The storage every query of a run shares: a sleeping throttled
/// decorator over an in-memory object store.
pub fn shared_backend() -> Arc<dyn StorageBackend> {
    let model = ThrottleModel { per_op: STORAGE_LATENCY, per_byte: Duration::ZERO, sleep: true };
    Arc::new(ThrottledBackend::new(MemoryBackend::new(), model))
}

/// Everything the clients of one measured phase share.
pub struct Ctx<'a> {
    /// Its inputs.
    pub datasets: &'a [Dataset],
    /// The server under test.
    pub server: &'a TopKServer,
    /// The shared storage.
    pub backend: Arc<dyn StorageBackend>,
    /// Bytes stored on `backend` by all queries.
    pub store: Arc<StoreGauge>,
    /// Span sink of a traced run.
    pub tracer: Option<Arc<Tracer>>,
    /// Query-id allocator.
    pub next_query: AtomicU64,
}

/// What one query did.
#[derive(Debug)]
pub struct Outcome {
    /// Query id (span `query` field).
    pub id: u64,
    /// The plan it ran.
    pub plan: Plan,
    /// When the query was submitted.
    pub submit: Instant,
    /// Submit → last row materialized, admission wait included.
    pub latency: Duration,
    /// CPU time of the query's own thread inside `execute`: the work that
    /// blocks its result, without admission wait, storage sleeps or time
    /// the machine spent on other work.
    pub cpu: Duration,
    /// Admission wait reported by the server.
    pub queued: Duration,
    /// Rows in the input.
    pub input_rows: u64,
    /// Encoded bytes of the input.
    pub input_bytes: u64,
    /// Operator counters (default when the query failed).
    pub metrics: OperatorMetrics,
    /// The storage probe's counters.
    pub probe: ProbeReport,
    /// Whether spans were recorded for it.
    pub traced: bool,
    /// Estimated nanoseconds the query thread spent in the input
    /// iterator (traced queries only).
    pub pull_ns: u64,
    /// An execution error or oracle mismatch.
    pub error: Option<String>,
}

impl Outcome {
    /// Interactive queries are reported apart from the workload's heavy
    /// queries.
    pub fn is_interactive(&self) -> bool {
        self.plan.class == Class::Interactive
    }
}

/// Runs one query, checks its result, and records its spans if `traced`.
pub fn run_query(ctx: &Ctx<'_>, plan: Plan, traced: bool, timer_ns: u64) -> Outcome {
    let dataset = &ctx.datasets[plan.dataset];
    let id = ctx.next_query.fetch_add(1, Ordering::Relaxed);
    let tracer = ctx.tracer.as_ref().filter(|_| traced);
    let query_span = tracer.map(|t| t.next_id());
    let trace = tracer.zip(query_span).map(|(t, span)| TraceCtx {
        tracer: t.clone(),
        query: id,
        query_span: span,
    });
    let probe = ProbeBackend::new(ctx.backend.clone(), ctx.store.clone(), trace);
    let clock = tracer.map(|_| Arc::new(PullClock::default()));
    let config = TopKConfig::builder()
        .memory_budget(plan.memory)
        .block_bytes(BLOCK_BYTES)
        .dedup(plan.distinct)
        .build()
        .expect("workload plans build valid configs");
    let query =
        Query::scan(SharedRows::new(dataset.rows.clone(), clock.clone()), plan.spec).config(config);
    let (submit, cpu_start) = (Instant::now(), cpu::thread());
    let result = ctx.server.execute(query, Arc::new(probe.clone()));
    let (done, cpu_done) = (Instant::now(), cpu::thread());
    let mut outcome = Outcome {
        id,
        plan,
        submit,
        latency: done - submit,
        cpu: cpu_done - cpu_start,
        queued: Duration::ZERO,
        input_rows: dataset.len(),
        input_bytes: dataset.input_bytes,
        metrics: OperatorMetrics::default(),
        probe: probe.report(),
        traced: tracer.is_some(),
        pull_ns: 0,
        error: None,
    };
    match result {
        Ok(result) => {
            outcome.queued = result.queued;
            outcome.metrics = result.metrics;
            if let Err(e) = dataset.check(&plan.spec, plan.distinct, &result.rows) {
                outcome.error = Some(format!("wrong result: {e}"));
            }
        }
        Err(e) => outcome.error = Some(format!("execute: {e}")),
    }
    if let (Some(tracer), Some(span), Some(clock)) = (tracer, query_span, clock) {
        let start_ns = tracer.ns(submit);
        tracer.record(Span {
            name: "query",
            query: id,
            id: span,
            parent: None,
            start_ns,
            end_ns: tracer.ns(done),
            summed: false,
        });
        tracer.record(Span {
            name: "admission_wait",
            query: id,
            id: tracer.next_id(),
            parent: Some(span),
            start_ns,
            end_ns: start_ns + outcome.queued.as_nanos() as u64,
            summed: false,
        });
        outcome.pull_ns = clock.estimated_ns(timer_ns);
        let first = clock.first_pull().map_or(start_ns, |t| tracer.ns(t));
        tracer.record(Span {
            name: "input_pull",
            query: id,
            id: tracer.next_id(),
            parent: Some(span),
            start_ns: first,
            end_ns: first + outcome.pull_ns,
            summed: true,
        });
    }
    outcome
}

/// One client's closed loop: sends queries back to back until
/// `deadline`. In a traced run, every other query of each class is
/// traced, so traced and untraced queries see the same mix.
pub fn client_loop(
    ctx: &Ctx<'_>,
    mut stream: Stream,
    deadline: Instant,
    timer_ns: u64,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let mut sent_per_class = std::collections::HashMap::<Class, u64>::new();
    while Instant::now() < deadline {
        let plan = stream.next_plan();
        let nth = sent_per_class.entry(plan.class).or_default();
        let traced = ctx.tracer.is_some() && nth.is_multiple_of(2);
        *nth += 1;
        outcomes.push(run_query(ctx, plan, traced, timer_ns));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DataSpec;
    use histok_exec::ServerConfig;
    use histok_types::SortSpec;

    const RUN_FRAMING_BYTES: u64 = 8 + 16;

    #[test]
    fn probe_bytes_match_operator_io_on_a_spilling_query() {
        let datasets = [Dataset::generate(DataSpec::Uniform { rows: 20_000 }, 11)];
        let server = TopKServer::new(ServerConfig { io_threads: 2, ..Default::default() });
        let ctx = Ctx {
            datasets: &datasets,
            server: &server,
            backend: shared_backend(),
            store: Arc::new(StoreGauge::default()),
            tracer: Some(Arc::new(Tracer::new())),
            next_query: AtomicU64::new(0),
        };
        let plan = Plan {
            class: Class::Export,
            dataset: 0,
            spec: SortSpec::ascending(5_000),
            distinct: false,
            memory: 64 * 1024,
        };
        let out = run_query(&ctx, plan, true, 0);
        assert_eq!(out.error, None);
        assert!(out.metrics.spilled, "k = 5000 under a 64 KiB lease must spill");
        assert!(out.probe.bytes_written > 0);
        // The operator counts block bytes; each run file also carries an
        // 8-byte file header and a 16-byte end marker.
        let framing = RUN_FRAMING_BYTES * out.metrics.io.runs_created;
        assert_eq!(out.probe.bytes_written, out.metrics.io.bytes_written + framing);
        assert!(out.probe.bytes_read > 0);
        assert!(out.probe.peak_live_bytes > 0);
        assert!(out.probe.peak_live_bytes <= out.probe.bytes_written);
        assert_eq!(ctx.store.peak(), out.probe.peak_live_bytes, "the only query");
        let spans = ctx.tracer.as_ref().unwrap().take();
        let query = spans.iter().find(|s| s.name == "query").expect("query span");
        assert!(spans.iter().any(|s| s.name == "input_pull" && s.parent == Some(query.id)));
        assert!(spans.iter().any(|s| s.name.starts_with("storage.")));
        assert!(spans.iter().all(|s| s.query == out.id));
    }
}
