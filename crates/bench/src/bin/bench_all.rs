//! Runs every named benchmark under a fixed plan and writes
//! machine-readable results:
//!
//! ```text
//! cargo run --release -p crp-bench --bin bench_all [-- --label <name>]
//!     [--out <dir>] [--snapshot <file>]
//! ```
//!
//! Output goes to `<out>/bench.json` (default `results/bench.json`) and
//! a snapshot copy at `--snapshot` (default `BENCH_<label>.json` in the
//! working directory). `bench_check` diffs a later run against such a
//! snapshot.

use crp_bench::harness::Runner;
use crp_bench::synthetic_map;
use crp_core::SimilarityMetric;
use crp_meridian::{FaultPlan, MeridianConfig, MeridianOverlay};
use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    label: String,
    out_dir: PathBuf,
    snapshot: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        label: "baseline".to_owned(),
        out_dir: PathBuf::from("results"),
        snapshot: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => {
                opts.label = it.next().ok_or("--label needs a value")?.clone();
            }
            "--out" => {
                opts.out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--snapshot" => {
                opts.snapshot = Some(PathBuf::from(it.next().ok_or("--snapshot needs a value")?));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.label.is_empty() || opts.label.contains(['/', '\\']) {
        return Err(format!("invalid label {:?}", opts.label));
    }
    Ok(opts)
}

fn usage() {
    eprintln!("usage: bench_all [--label <name>] [--out <dir>] [--snapshot <file>]");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("bench_all: {err}");
            usage();
            return ExitCode::from(2);
        }
    };

    let mut runner = Runner::default();
    register_all(&mut runner);
    let report = runner.into_report(&opts.label);

    println!(
        "{:<34} {:>12} {:>12} {:>14}",
        "benchmark", "p50", "p95", "throughput/s"
    );
    for r in &report.results {
        println!(
            "{:<34} {:>12} {:>12} {:>14.1}",
            r.name,
            format_ns(r.p50_ns),
            format_ns(r.p95_ns),
            r.throughput_per_sec,
        );
    }

    let json = match serde_json::to_string(&report) {
        Ok(json) => json + "\n",
        Err(err) => {
            eprintln!("bench_all: failed to serialize report: {err}");
            return ExitCode::from(1);
        }
    };
    let out_path = opts.out_dir.join("bench.json");
    let snapshot = opts
        .snapshot
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", opts.label)));
    if let Err(err) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("bench_all: cannot create {}: {err}", opts.out_dir.display());
        return ExitCode::from(1);
    }
    #[expect(clippy::disallowed_methods, reason = "bench_all writes its reports")]
    for path in [&out_path, &snapshot] {
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("bench_all: cannot write {}: {err}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("bench_all: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Registers every named benchmark. Names are stable identifiers — the
/// regression gate keys on them, so renames show up as missing/added.
fn register_all(runner: &mut Runner) {
    // --- similarity kernels (§III: the innermost loop of every query)
    let a16 = synthetic_map(1, 16, 1_000);
    let b16 = synthetic_map(2, 16, 1_000);
    runner.run("similarity/cosine_16", 30, 2_000, || {
        a16.cosine_similarity(&b16)
    });
    let a12 = synthetic_map(3, 12, 200);
    let b12 = synthetic_map(4, 12, 200);
    runner.run("similarity/all_metrics_12", 30, 500, || {
        let mut acc = 0.0f64;
        for metric in SimilarityMetric::ALL {
            acc += metric.compare(&a12, &b12);
        }
        acc
    });

    // --- Meridian baseline query (the probing cost CRP avoids)
    let mut net = NetworkBuilder::new(8).build();
    let members = net.add_population(&PopulationSpec::planetlab(60));
    let clients = net.add_population(&PopulationSpec::dns_servers(8));
    let overlay =
        MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
    let mut q = 0usize;
    runner.run("meridian/closest_query_60", 10, 20, move || {
        q += 1;
        overlay.closest_node_query(
            &net,
            members[q % members.len()],
            clients[q % clients.len()],
            SimTime::from_mins(q as u64),
        )
    });
}
