//! `histok` — command-line demo of the histogram top-k operator.
//!
//! ```text
//! histok run     [--rows N] [--k N] [--mem-rows N] [--dist D] [--algo A]
//!                [--desc] [--offset N] [--payload BYTES] [--file-backend]
//!                [--buckets B] [--seed S]
//! histok compare [same flags]      run all four algorithms side by side
//! histok tables                    print the paper's analysis tables 2-5
//! histok help
//! ```
//!
//! Distributions: `uniform`, `fal:<shape>`, `lognormal`, `adversarial`.
//! Algorithms: `histogram`, `inmemory`, `traditional`, `optimized`,
//! `parallel:<n>`.

use std::process::ExitCode;
use std::time::Instant;

use histok::core::{
    HistogramTopK, InMemoryTopK, OperatorMetrics, OptimizedExternalTopK, ParallelTopK,
    SizingPolicy, TopKConfig, TopKOperator, TraditionalExternalTopK,
};
use histok::storage::{FileBackend, MemoryBackend, StorageBackend};
use histok::types::{F64Key, Result, SortSpec};
use histok::workload::{Distribution, Workload};

/// Parsed command-line options.
struct Opts {
    rows: u64,
    k: u64,
    mem_rows: usize,
    dist: Distribution,
    algo: String,
    descending: bool,
    offset: u64,
    payload: usize,
    file_backend: bool,
    buckets: u32,
    seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            rows: 1_000_000,
            k: 20_000,
            mem_rows: 5_000,
            dist: Distribution::Uniform,
            algo: "histogram".into(),
            descending: false,
            offset: 0,
            payload: 0,
            file_backend: false,
            buckets: 50,
            seed: 42,
        }
    }
}

fn parse_dist(s: &str) -> Option<Distribution> {
    match s {
        "uniform" => Some(Distribution::Uniform),
        "lognormal" => Some(Distribution::lognormal_default()),
        "adversarial" => Some(Distribution::Adversarial),
        _ => s
            .strip_prefix("fal:")
            .and_then(|shape| shape.parse().ok())
            .map(|shape| Distribution::Fal { shape }),
    }
}

fn parse_opts(args: &[String]) -> std::result::Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--rows" => opts.rows = value("--rows")?.parse().map_err(|e| format!("{e}"))?,
            "--k" => opts.k = value("--k")?.parse().map_err(|e| format!("{e}"))?,
            "--mem-rows" => {
                opts.mem_rows = value("--mem-rows")?.parse().map_err(|e| format!("{e}"))?
            }
            "--dist" => {
                let s = value("--dist")?;
                opts.dist = parse_dist(&s).ok_or(format!("unknown distribution {s:?}"))?;
            }
            "--algo" => opts.algo = value("--algo")?,
            "--desc" => opts.descending = true,
            "--offset" => opts.offset = value("--offset")?.parse().map_err(|e| format!("{e}"))?,
            "--payload" => {
                opts.payload = value("--payload")?.parse().map_err(|e| format!("{e}"))?
            }
            "--file-backend" => opts.file_backend = true,
            "--buckets" => {
                opts.buckets = value("--buckets")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn spec_of(opts: &Opts) -> SortSpec {
    let spec =
        if opts.descending { SortSpec::descending(opts.k) } else { SortSpec::ascending(opts.k) };
    spec.with_offset(opts.offset)
}

fn config_of(opts: &Opts) -> Result<TopKConfig> {
    let sizing = if opts.buckets == 0 {
        SizingPolicy::Disabled
    } else {
        SizingPolicy::TargetBuckets(opts.buckets)
    };
    TopKConfig::builder().memory_budget(opts.mem_rows * (64 + opts.payload)).sizing(sizing).build()
}

fn make_operator(
    algo: &str,
    opts: &Opts,
    backend: std::sync::Arc<dyn StorageBackend>,
) -> Result<Box<dyn TopKOperator<F64Key>>> {
    let spec = spec_of(opts);
    let config = config_of(opts)?;
    Ok(match algo {
        "histogram" => Box::new(HistogramTopK::with_arc(spec, config, backend)?),
        "inmemory" => Box::new(InMemoryTopK::new(spec)?),
        "traditional" => Box::new(TraditionalExternalTopK::with_config(spec, &config, backend)?),
        "optimized" => Box::new(OptimizedExternalTopK::with_arc(spec, config, backend)?),
        other => {
            if let Some(threads) = other.strip_prefix("parallel:").and_then(|t| t.parse().ok()) {
                return Ok(Box::new(ParallelTopK::with_arc(spec, config, backend, threads)?));
            }
            return Err(histok::types::Error::InvalidConfig(format!(
                "unknown algorithm {other:?} (histogram|inmemory|traditional|optimized|parallel:<n>)"
            )));
        }
    })
}

fn backend_of(opts: &Opts) -> Result<std::sync::Arc<dyn StorageBackend>> {
    Ok(if opts.file_backend {
        std::sync::Arc::new(FileBackend::temp()?)
    } else {
        std::sync::Arc::new(MemoryBackend::new())
    })
}

fn execute(algo: &str, opts: &Opts) -> Result<(f64, u64, Option<f64>, OperatorMetrics)> {
    let mut op = make_operator(algo, opts, backend_of(opts)?)?;
    let workload = Workload::uniform(opts.rows, opts.seed)
        .with_distribution(opts.dist)
        .with_payload_bytes(opts.payload);
    let start = Instant::now();
    for row in workload.rows() {
        op.push(row)?;
    }
    let mut produced = 0u64;
    let mut last = None;
    for row in op.finish()? {
        last = Some(row?.key.get());
        produced += 1;
    }
    Ok((start.elapsed().as_secs_f64(), produced, last, op.metrics()))
}

fn cmd_run(opts: &Opts) -> Result<()> {
    let (secs, produced, last, m) = execute(&opts.algo, opts)?;
    println!("algorithm       : {}", opts.algo);
    println!("input rows      : {}", m.rows_in);
    println!("output rows     : {produced}");
    if let Some(last) = last {
        println!("last output key : {last}");
    }
    println!("wall time       : {secs:.3}s");
    println!(
        "eliminated      : {} at input, {} at spill",
        m.eliminated_at_input, m.eliminated_at_spill
    );
    println!(
        "spilled         : {} rows in {} runs ({:.2}% of input)",
        m.rows_spilled(),
        m.runs(),
        m.spill_fraction() * 100.0
    );
    println!(
        "storage traffic : {} bytes written, {} bytes read",
        m.io.bytes_written, m.io.bytes_read
    );
    Ok(())
}

fn cmd_compare(opts: &Opts) -> Result<()> {
    println!(
        "{:<12} {:>9} {:>12} {:>8} {:>14}",
        "algorithm", "time", "spilled", "runs", "eliminated"
    );
    let mut reference: Option<(u64, Option<f64>)> = None;
    for algo in ["histogram", "optimized", "traditional", "inmemory"] {
        let (secs, produced, last, m) = execute(algo, opts)?;
        match &reference {
            None => reference = Some((produced, last)),
            Some(r) => assert_eq!(
                (produced, last.map(f64::to_bits)),
                (r.0, r.1.map(f64::to_bits)),
                "{algo} disagrees with the reference answer"
            ),
        }
        println!(
            "{:<12} {:>8.3}s {:>12} {:>8} {:>14}",
            algo,
            secs,
            m.rows_spilled(),
            m.runs(),
            m.eliminated_at_input + m.eliminated_at_spill,
        );
    }
    Ok(())
}

fn cmd_tables() {
    for (name, rows) in [
        (
            "Table 2 (histogram size)",
            histok::analysis::table2()
                .into_iter()
                .map(|r| (format!("B={}", r.buckets), r.result))
                .collect::<Vec<_>>(),
        ),
        (
            "Table 4 (input size)",
            histok::analysis::table4()
                .into_iter()
                .map(|r| (format!("N={}", r.input), r.result))
                .collect::<Vec<_>>(),
        ),
        (
            "Table 5 (minimal histograms)",
            histok::analysis::table5()
                .into_iter()
                .map(|r| (format!("N={}", r.input), r.result))
                .collect::<Vec<_>>(),
        ),
    ] {
        println!("\n{name}");
        println!("{:>16} {:>7} {:>10} {:>8}", "experiment", "runs", "rows", "ratio");
        for (label, r) in rows {
            println!(
                "{:>16} {:>7} {:>10} {:>8}",
                label,
                r.runs,
                r.rows_spilled,
                r.ratio.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into()),
            );
        }
    }
    println!("\n(see `cargo run -p histok-bench --bin table1..5` for the full tables)");
}

fn usage() {
    println!("histok — histogram-guided top-k (SIGMOD'20 reproduction)");
    println!();
    println!("  histok run     [flags]   run one algorithm and report metrics");
    println!("  histok compare [flags]   run all four algorithms side by side");
    println!("  histok tables            print the paper's analysis tables");
    println!();
    println!("flags: --rows N --k N --mem-rows N --dist uniform|fal:<z>|lognormal|adversarial");
    println!(
        "       --algo histogram|inmemory|traditional|optimized|parallel:<n> --desc --offset N"
    );
    println!("       --payload BYTES --file-backend --buckets B --seed S");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            usage();
            return ExitCode::SUCCESS;
        }
    };
    let result = match cmd {
        "run" | "compare" => match parse_opts(rest) {
            Ok(opts) => {
                if cmd == "run" {
                    cmd_run(&opts)
                } else {
                    cmd_compare(&opts)
                }
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                usage();
                return ExitCode::FAILURE;
            }
        },
        "tables" => {
            cmd_tables();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
