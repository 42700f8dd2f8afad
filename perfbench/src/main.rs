//! End-to-end top-k benchmark.
//!
//! Runs one workload through the serving entry point
//! (`TopKServer::execute` → `Query` → `HistogramTopK`) on sleeping
//! throttled storage, checks every result against an oracle computed at
//! set-up, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deep_topk --seed 1 --seconds 15 --trace 0
//! ```

mod cpu;
mod input;
mod probe;
mod report;
mod rss;
mod runner;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_exec::TopKServer;
use histok_types::JsonValue;

use crate::input::{timer_overhead_ns, Dataset};
use crate::probe::StoreGauge;
use crate::report::{Metric, RunTotals};
use crate::runner::{client_loop, run_query, shared_backend, Ctx, Outcome};
use crate::trace::Tracer;
use crate::workload::{Kind, Stream};

const USAGE: &str =
    "usage: perfbench --workload <deep_topk|filter_defeated|fleet_mixed> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is timed in two batches, before and after the measured phase,
/// each of at least [`SETUP_MIN_REPS`] repeats spanning at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median of all repeats, each
/// timed on the set-up thread's CPU clock (set-up is single-threaded).
/// Neither the median nor the clock hinges on how busy a shared machine
/// was at one moment.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Queries each client runs before measurement starts, on a server of
/// their own.
const WARMUP_QUERIES: usize = 4;
/// Where result details and traces are written, relative to the
/// working directory.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Pins glibc's mmap threshold at its initial default (128 KiB) and keeps
/// one allocation arena for all threads. Left dynamic, glibc raises the
/// threshold whenever a large block is freed, after which large buffers
/// stay in the heap and RSS reflects allocation history more than live
/// memory. With an arena per thread, how much freed memory stays resident
/// depends on which thread happened to allocate and free each buffer. Set
/// both ways, `peak_rss_mb` tracks what the queries hold.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn tune_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's allocator-tuning call taking two ints;
    // it only updates allocator parameters and runs before any other
    // thread of this process exists.
    let (arenas, mmap) =
        unsafe { (mallopt(M_ARENA_MAX, 1), mallopt(M_MMAP_THRESHOLD, 128 * 1024)) };
    if arenas != 1 || mmap != 1 {
        eprintln!("perfbench: mallopt failed; RSS figures use glibc defaults");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn tune_allocator() {}

fn main() {
    tune_allocator();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a query failed or returned a
/// wrong result.
fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let mut setup_secs = Vec::new();
    let datasets = set_up(kind, args.seed, &mut setup_secs);
    let timer_ns = timer_overhead_ns();
    let baseline_kib = rss::current_kib().ok_or("cannot read the resident set size")?;

    // Warm-up on a server of its own, so the measured server's counters
    // start at zero.
    let warm_server = TopKServer::new(kind.server_config());
    let warm_ctx = ctx(&datasets, &warm_server, None);
    let warmup = on_clients(kind.clients(), |c| {
        let mut stream = Stream::new(kind, args.seed ^ 0xA5A5_5A5A, c);
        (0..WARMUP_QUERIES)
            .map(|_| run_query(&warm_ctx, stream.next_plan(), false, timer_ns))
            .collect()
    });
    drop(warm_ctx);
    drop(warm_server);

    let server = TopKServer::new(kind.server_config());
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let run_ctx = ctx(&datasets, &server, tracer.clone());
    let sampler = rss::RssSampler::start();
    let (start, cpu_start) = (Instant::now(), cpu::process());
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let outcomes = on_clients(kind.clients(), |c| {
        client_loop(&run_ctx, Stream::new(kind, args.seed, c), deadline, timer_ns)
    });
    let (wall_s, cpu_run) = (start.elapsed().as_secs_f64(), cpu::process() - cpu_start);
    let (rss, sampler_cpu) = sampler.stop();
    let query_peaks: Vec<f64> = outcomes
        .iter()
        .filter(|o| !o.is_interactive())
        .filter_map(|o| rss.peak_kib(o.submit, o.submit + o.latency))
        .map(|kib| kib.saturating_sub(baseline_kib) as f64 / 1024.0)
        .collect();
    let fleet = server.fleet_metrics();
    let sched = server.scheduler().map(|s| s.metrics()).unwrap_or_default();
    let store_peak = run_ctx.store.peak();
    drop(set_up(kind, args.seed, &mut setup_secs));

    let failures: Vec<&Outcome> =
        warmup.iter().chain(&outcomes).filter(|o| o.error.is_some()).collect();
    for o in failures.iter().take(5) {
        eprintln!(
            "perfbench: query {} ({}) failed: {}",
            o.id,
            o.plan.class.name(),
            o.error.as_deref().unwrap_or_default()
        );
    }
    let attempted = warmup.len() + outcomes.len();
    let failed = failures.len();

    let totals = RunTotals {
        setup_s: stats::median(&setup_secs),
        setup_reps: setup_secs.len(),
        cpu_s: cpu_run.saturating_sub(sampler_cpu).as_secs_f64(),
        peak_rss_mb: stats::median(&query_peaks),
    };
    let e2e = report::end_to_end(&outcomes, totals);
    let spans = tracer.map(|t| t.take()).unwrap_or_default();
    let layers = report::per_layer(&outcomes, &fleet, &sched, store_peak, &spans);

    println!(
        "perfbench {} seed={} seconds={} trace={} clients={} available_parallelism={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kind.clients(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for d in &datasets {
        println!(
            "  input: {} rows, {} distinct keys, {} bytes",
            d.len(),
            d.distinct_keys(),
            d.input_bytes
        );
    }
    let mut classes: Vec<_> = outcomes.iter().map(|o| o.plan.class).collect();
    classes.sort_unstable();
    classes.dedup();
    // Wall-clock latencies are printed for reading, not reported: on a
    // shared machine they follow its load as much as the program.
    for class in classes {
        let of_class = || outcomes.iter().filter(|o| o.plan.class == class && o.error.is_none());
        let wall: Vec<f64> = of_class().map(|o| o.latency.as_secs_f64() * 1e3).collect();
        let cpu: Vec<f64> = of_class().map(|o| o.cpu.as_secs_f64() * 1e3).collect();
        if let (Some(w), Some(c)) = (stats::summarize(&wall), stats::summarize(&cpu)) {
            println!(
                "  class {}: n={} wall p50={:.3} ms p{:.1}={:.3} ms; cpu p50={:.3} ms p{:.1}={:.3} ms",
                class.name(),
                w.n,
                w.p50,
                w.tail_pct,
                w.tail,
                c.p50,
                c.tail_pct,
                c.tail
            );
        }
    }
    println!(
        "  wall: {} queries in {wall_s:.3} s = {:.3} queries/s; process CPU {:.3} s",
        outcomes.len(),
        stats::ratio(outcomes.len() as f64, wall_s),
        totals.cpu_s
    );
    let shown = if args.trace { &layers } else { &e2e };
    for m in shown {
        println!("  {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!(
        "  failed_fraction = {} ({failed} of {attempted} queries, warm-up included)",
        stats::ratio(failed as f64, attempted as f64)
    );

    let tag = format!("{}-seed{}-trace{}", kind.name(), args.seed, u8::from(args.trace));
    if let Err(e) = write_outputs(Path::new(OUT_DIR), &tag, &e2e, &layers, &spans) {
        eprintln!("perfbench: could not write details under {OUT_DIR}: {e}");
    }

    let metrics = JsonValue::Obj(
        shown
            .iter()
            .map(|m| {
                let value = JsonValue::obj([
                    ("value", JsonValue::F64(m.value)),
                    ("unit", JsonValue::from(m.unit)),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    );
    let line = JsonValue::obj([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::from(attempted)),
        ("failed", JsonValue::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_json());
    Ok(failed == 0)
}

/// Generates the workload's inputs repeatedly (see [`SETUP_MIN_REPS`]),
/// appending each repeat's time to `secs`, and returns the last inputs.
fn set_up(kind: Kind, seed: u64, secs: &mut Vec<f64>) -> Vec<Dataset> {
    let mut datasets = Vec::new();
    let (batch_start, reps_before) = (Instant::now(), secs.len());
    while secs.len() - reps_before < SETUP_MIN_REPS
        || batch_start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        drop(std::mem::take(&mut datasets));
        let start = cpu::thread();
        datasets = kind.datasets().into_iter().map(|s| Dataset::generate(s, seed)).collect();
        secs.push((cpu::thread() - start).as_secs_f64());
    }
    datasets
}

/// Runs `client(i)` on its own thread for each of `clients` clients and
/// concatenates their outcomes.
fn on_clients(clients: usize, client: impl Fn(usize) -> Vec<Outcome> + Sync) -> Vec<Outcome> {
    std::thread::scope(|s| {
        let client = &client;
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}

fn ctx<'a>(
    datasets: &'a [Dataset],
    server: &'a TopKServer,
    tracer: Option<Arc<Tracer>>,
) -> Ctx<'a> {
    Ctx {
        datasets,
        server,
        backend: shared_backend(),
        store: Arc::new(StoreGauge::default()),
        tracer,
        next_query: AtomicU64::new(0),
    }
}

/// Writes every metric with its note, and the spans of a traced run.
fn write_outputs(
    dir: &Path,
    tag: &str,
    e2e: &[Metric],
    layers: &[Metric],
    spans: &[trace::Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let list = |ms: &[Metric]| {
        JsonValue::Arr(
            ms.iter()
                .map(|m| {
                    JsonValue::obj([
                        ("name", JsonValue::from(m.name)),
                        ("value", JsonValue::F64(m.value)),
                        ("unit", JsonValue::from(m.unit)),
                        ("note", JsonValue::from(m.note.as_str())),
                    ])
                })
                .collect(),
        )
    };
    let doc = JsonValue::obj([("end_to_end", list(e2e)), ("per_layer", list(layers))]);
    std::fs::write(dir.join(format!("{tag}.json")), doc.to_json_pretty(2))?;
    if !spans.is_empty() {
        let path: PathBuf = dir.join(format!("{tag}.spans.jsonl"));
        trace::write_jsonl(spans, &path)?;
    }
    Ok(())
}
