//! Turns the outcomes of a run into the end-to-end and per-layer metrics.

use std::collections::HashMap;

use histok_exec::FleetMetrics;
use histok_storage::{IoPriority, IoSchedulerMetrics};

use crate::probe::Op;
use crate::runner::Outcome;
use crate::stats::{mean, median, ratio, summarize, Summary};
use crate::trace::{self_time_ns, Span};

/// A query counts as having waited for admission when its wait exceeds
/// this; an uncontended grant takes microseconds.
const WAITED_MS: f64 = 1.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How it was computed from how many samples.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { name, value, unit, note: note.into() }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn timing(name: &'static str, unit: &'static str, s: Option<Summary>, tail: bool) -> Metric {
    match s {
        Some(s) if tail => metric(
            name,
            s.tail,
            unit,
            format!("p{:.1} of n={}, {} samples beyond", s.tail_pct, s.n, s.beyond),
        ),
        Some(s) => metric(name, s.p50, unit, format!("median of n={}", s.n)),
        None => metric(name, 0.0, unit, "no samples"),
    }
}

/// Whole-run quantities the end-to-end metrics need besides the outcomes.
#[derive(Debug, Clone, Copy)]
pub struct RunTotals {
    /// Median set-up time over the set-up repetitions.
    pub setup_s: f64,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// CPU time all threads of the process used in the measured phase,
    /// the RSS sampler's own excluded.
    pub cpu_s: f64,
    /// Median over heavy queries of the peak RSS while each ran, above
    /// the post-set-up baseline, in MiB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, over the successful queries of the run.
pub fn end_to_end(outcomes: &[Outcome], totals: RunTotals) -> Vec<Metric> {
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    let cpu_ms = |interactive: bool| -> Vec<f64> {
        ok.iter()
            .filter(|o| o.is_interactive() == interactive)
            .map(|o| o.cpu.as_secs_f64() * 1e3)
            .collect()
    };
    let heavy = summarize(&cpu_ms(false));
    let interactive = summarize(&cpu_ms(true));
    let input_bytes: u64 = ok.iter().map(|o| o.input_bytes).sum();
    let input_rows: u64 = ok.iter().map(|o| o.input_rows).sum();
    let per_input = |bytes: u64| ratio(bytes as f64, input_bytes as f64);
    let sum = |f: fn(&Outcome) -> u64| ok.iter().map(|o| f(o)).sum::<u64>();
    let queries = ok.len();
    vec![
        metric(
            "setup_s",
            totals.setup_s,
            "s",
            format!(
                "median CPU time of {} set-ups (input generation + oracles) before and after \
                 the run",
                totals.setup_reps
            ),
        ),
        timing("query_cpu_p50_ms", "cpu_ms", heavy, false),
        timing("query_cpu_tail_ms", "cpu_ms", heavy, true),
        timing("interactive_cpu_tail_ms", "cpu_ms", interactive, true),
        metric(
            "queries_per_cpu_s",
            ratio(queries as f64, totals.cpu_s),
            "1/cpu_s",
            format!("{queries} queries in {:.3} CPU s", totals.cpu_s),
        ),
        metric(
            "input_rows_per_cpu_s",
            ratio(input_rows as f64, totals.cpu_s),
            "1/cpu_s",
            format!("{input_rows} input rows in {:.3} CPU s", totals.cpu_s),
        ),
        metric(
            "spill_bytes_per_input_byte",
            per_input(sum(|o| o.probe.bytes_written)),
            "ratio",
            format!("over {input_bytes} input bytes"),
        ),
        metric(
            "read_bytes_per_input_byte",
            per_input(sum(|o| o.probe.bytes_read)),
            "ratio",
            format!("over {input_bytes} input bytes"),
        ),
        metric(
            "peak_stored_bytes_per_input_byte",
            per_input(sum(|o| o.probe.peak_live_bytes)),
            "ratio",
            "sum of per-query peaks over summed input bytes",
        ),
        metric(
            "peak_rss_mb",
            totals.peak_rss_mb,
            "MiB",
            "median over heavy queries of the peak RSS while each ran, above the post-set-up baseline",
        ),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    outcomes: &[Outcome],
    fleet: &FleetMetrics,
    sched: &IoSchedulerMetrics,
    store_peak: u64,
    spans: &[Span],
) -> Vec<Metric> {
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    let heavy: Vec<&Outcome> = ok.iter().copied().filter(|o| !o.is_interactive()).collect();
    let h = heavy.len();
    let hn = format!("mean over {h} heavy queries");
    let per_heavy = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
        mean(&heavy.iter().map(|o| f(o)).collect::<Vec<_>>())
    };
    let heavy_sum =
        |f: &dyn Fn(&Outcome) -> u64| -> f64 { heavy.iter().map(|o| f(o)).sum::<u64>() as f64 };
    let rows_in = heavy_sum(&|o| o.metrics.rows_in);

    // exec: every query.
    let waits: Vec<f64> = ok.iter().map(|o| o.queued.as_secs_f64() * 1e3).collect();
    let waited = waits.iter().filter(|&&w| w >= WAITED_MS).count();
    let adm = &fleet.admission;

    // Self time of each traced heavy query span.
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let heavy_ids: std::collections::HashSet<u64> = heavy.iter().map(|o| o.id).collect();
    let self_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "query" && heavy_ids.contains(&s.query))
        .map(|s| ms(self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice))))
        .collect();
    let traced_cpu = |traced: bool| -> Vec<f64> {
        heavy.iter().filter(|o| o.traced == traced).map(|o| o.cpu.as_secs_f64()).collect()
    };
    let untraced_p50 = median(&traced_cpu(false));
    let overhead = ratio(median(&traced_cpu(true)) - untraced_p50, untraced_p50);
    let traced_heavy: Vec<&Outcome> = heavy.iter().copied().filter(|o| o.traced).collect();
    let pull_ms = mean(&traced_heavy.iter().map(|o| ms(o.pull_ns)).collect::<Vec<_>>());

    // storage: spread of bytes read across identical heavy queries.
    let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
    for o in &heavy {
        groups.entry(format!("{:?}", o.plan)).or_default().push(o.probe.bytes_read as f64);
    }
    let largest = groups.values().max_by_key(|v| v.len()).cloned().unwrap_or_default();
    let read_spread = if largest.len() < 2 {
        0.0
    } else {
        let max = largest.iter().cloned().fold(f64::MIN, f64::max);
        let min = largest.iter().cloned().fold(f64::MAX, f64::min);
        ratio(max - min, median(&largest))
    };
    let fg = heavy_sum(&|o| o.probe.fg_busy_ns);
    let bg = heavy_sum(&|o| o.probe.bg_busy_ns);
    let jobs = |p: IoPriority| ratio(sched.submitted[p as usize] as f64, h as f64);
    let cmps = heavy_sum(&|o| o.metrics.cmp.ovc_cmps + o.metrics.cmp.full_cmps);

    vec![
        timing("exec.queue_wait_ms.p50", "ms", summarize(&waits), false),
        timing("exec.queue_wait_ms.tail", "ms", summarize(&waits), true),
        metric(
            "exec.immediate_admit_ratio",
            ratio(adm.admitted_immediately as f64, adm.grants as f64),
            "ratio",
            format!("{} of {} grants", adm.admitted_immediately, adm.grants),
        ),
        metric(
            "exec.queued_queries",
            waited as f64,
            "count",
            format!("queries waiting >= {WAITED_MS} ms for a lease, of {}", ok.len()),
        ),
        metric("exec.rebalances", adm.rebalances as f64, "count", "whole run"),
        metric("exec.revoked_bytes", adm.revoked_bytes as f64, "bytes", "whole run"),
        metric("exec.peak_concurrent", fleet.peak_concurrent as f64, "count", "whole run"),
        metric(
            "exec.execute_self_ms",
            median(&self_ms),
            "ms",
            format!(
                "median over {} traced heavy queries: query span minus admission wait, \
                 input pulls and storage calls on the query thread",
                self_ms.len()
            ),
        ),
        metric(
            "core.input_elimination_ratio",
            ratio(heavy_sum(&|o| o.metrics.eliminated_at_input), rows_in),
            "ratio",
            "rows eliminated at input over heavy-query input rows",
        ),
        metric(
            "core.spill_fraction",
            ratio(heavy_sum(&|o| o.metrics.io.rows_written), rows_in),
            "ratio",
            "rows written over heavy-query input rows",
        ),
        metric(
            "core.filter_refinements",
            per_heavy(&|o| o.metrics.filter.refinements as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "core.buckets_inserted",
            per_heavy(&|o| o.metrics.filter.buckets_inserted as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "core.eliminated_at_spill",
            per_heavy(&|o| o.metrics.eliminated_at_spill as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "core.fold_ratio",
            ratio(heavy_sum(&|o| o.metrics.rows_folded), rows_in),
            "ratio",
            "rows folded into a duplicate over heavy-query input rows",
        ),
        metric(
            "core.run_generation_ms",
            per_heavy(&|o| ms(o.metrics.phases.run_generation_ns)),
            "ms",
            hn.clone(),
        ),
        metric(
            "core.final_merge_ms",
            per_heavy(&|o| ms(o.metrics.phases.final_merge_ns)),
            "ms",
            hn.clone(),
        ),
        metric(
            "core.in_memory_ms",
            per_heavy(&|o| ms(o.metrics.phases.in_memory_ns)),
            "ms",
            hn.clone(),
        ),
        metric(
            "core.peak_memory_bytes",
            heavy.iter().map(|o| o.metrics.peak_memory_bytes).max().unwrap_or(0) as f64,
            "bytes",
            "max over heavy queries",
        ),
        metric(
            "sort.runs",
            per_heavy(&|o| o.metrics.io.runs_created as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.merge_passes",
            per_heavy(&|o| o.metrics.cascade.merge_passes as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.intermediate_merges",
            per_heavy(&|o| o.metrics.cascade.intermediate_merges as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.runs_pruned",
            per_heavy(&|o| o.metrics.cascade.runs_pruned as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.cascade_wait_ms",
            per_heavy(&|o| ms(o.metrics.cascade.cascade_wait_ns)),
            "ms",
            hn.clone(),
        ),
        metric(
            "sort.full_cmp_ratio",
            ratio(heavy_sum(&|o| o.metrics.cmp.full_cmps), cmps),
            "ratio",
            "full key comparisons over all merge/run-generation duels",
        ),
        metric(
            "sort.merge_batches",
            per_heavy(&|o| o.metrics.cmp.merge_batches as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.merge_partitions",
            per_heavy(&|o| o.metrics.merge_partitions as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "sort.partition_skew",
            per_heavy(&|o| o.metrics.partition_skew()),
            "ratio",
            hn.clone(),
        ),
        metric(
            "storage.write_calls",
            per_heavy(&|o| o.probe.calls(Op::Write) as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "storage.bytes_written",
            per_heavy(&|o| o.probe.bytes_written as f64),
            "bytes/query",
            hn.clone(),
        ),
        metric(
            "storage.read_calls",
            per_heavy(&|o| o.probe.calls(Op::Read) as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "storage.bytes_read",
            per_heavy(&|o| o.probe.bytes_read as f64),
            "bytes/query",
            hn.clone(),
        ),
        metric(
            "storage.bytes_read_spread",
            read_spread,
            "ratio",
            format!("(max - min) / median over {} identical heavy queries", largest.len()),
        ),
        metric(
            "storage.objects_created",
            per_heavy(&|o| o.probe.calls(Op::Create) as f64),
            "count/query",
            hn.clone(),
        ),
        metric("storage.peak_live_bytes", store_peak as f64, "bytes", "all queries at once"),
        metric(
            "storage.blocks_skipped",
            per_heavy(&|o| o.metrics.io.blocks_skipped as f64),
            "count/query",
            hn.clone(),
        ),
        metric(
            "storage.fg_busy_ms",
            ratio(fg / 1e6, h as f64),
            "ms",
            format!("{hn}, query thread"),
        ),
        metric(
            "storage.bg_busy_ms",
            ratio(bg / 1e6, h as f64),
            "ms",
            format!("{hn}, other threads"),
        ),
        metric(
            "storage.overlap_ratio",
            ratio(bg, fg + bg),
            "ratio",
            "storage time on other threads over all storage time",
        ),
        metric("storage.io_wait_ms", per_heavy(&|o| ms(o.metrics.io.io_wait_ns)), "ms", hn.clone()),
        metric(
            "storage.sched_queue_depth_peak",
            sched.queue_depth_peak as f64,
            "count",
            "whole run",
        ),
        metric(
            "storage.sched_jobs.merge_readahead",
            jobs(IoPriority::MergeReadAhead),
            "count/query",
            "per heavy query",
        ),
        metric(
            "storage.sched_jobs.prefetch",
            jobs(IoPriority::Prefetch),
            "count/query",
            "per heavy query",
        ),
        metric(
            "storage.sched_jobs.spill_write",
            jobs(IoPriority::SpillWrite),
            "count/query",
            "per heavy query",
        ),
        metric(
            "bench.input_pull_ms",
            pull_ms,
            "ms",
            format!("mean over {} traced heavy queries (1 in 64 pulls timed)", traced_heavy.len()),
        ),
        metric(
            "bench.tracing_overhead",
            overhead,
            "ratio",
            "median heavy query-thread CPU time, traced over untraced queries, minus 1",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_types::JsonValue;

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        match doc.get(key) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let totals = RunTotals { setup_s: 0.0, setup_reps: 1, cpu_s: 0.0, peak_rss_mb: 0.0 };
        assert_eq!(listed(&doc, "end_to_end"), reported(&end_to_end(&[], totals)));
        let layers =
            per_layer(&[], &FleetMetrics::default(), &IoSchedulerMetrics::default(), 0, &[]);
        assert_eq!(listed(&doc, "per_layer"), reported(&layers));
        assert!(layers.iter().chain(&end_to_end(&[], totals)).all(|m| m.value.is_finite()));
    }
}
