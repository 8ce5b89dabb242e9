//! Runs every named benchmark under a fixed plan and writes
//! machine-readable results:
//!
//! ```text
//! cargo run --release -p crp-bench --bin bench_all [-- --quick]
//!     [--label <name>] [--out <dir>] [--snapshot <file>]
//! ```
//!
//! Output goes to `<out>/bench.json` (default `results/bench.json`) and
//! a snapshot copy at `--snapshot` (default `BENCH_<label>.json` in the
//! working directory) — the start of the repo's perf trajectory.
//! `bench_check` diffs a later run against such a snapshot.
//!
//! The binary links the counting global allocator, so every result
//! also reports allocation pressure per iteration. After the timing
//! pass, a second **attribution pass** re-runs the tracked rows with
//! `crp_telemetry::mem` armed — armed attribution taxes every
//! allocation, so it must never overlap the timed iterations — and the
//! per-domain budgets land in `<out>/mem.json`, which `bench_check`
//! gates against `MEM_BASELINE.json` and renders as an attribution
//! table.

use crp_bench::harness::{self, MemReport, MemResult, Runner};
use crp_bench::{observed_scenario, synthetic_map, synthetic_maps};
use crp_core::{
    Clustering, Ranking, RatioMap, RedirectionTracker, SimilarityMetric, SmfConfig, WindowPolicy,
};
use crp_dns::{AuthoritativeServer, DomainName};
use crp_meridian::{FaultPlan, MeridianConfig, MeridianOverlay};
use crp_netsim::{HostId, NetworkBuilder, PopulationSpec, SimTime};
use std::path::PathBuf;
use std::process::ExitCode;

// The counting global allocator is installed crate-wide by `crp_eval`
// (a dependency), so this binary gets allocation counts without a
// second `#[global_allocator]` declaration.

struct Options {
    quick: bool,
    label: String,
    out_dir: PathBuf,
    snapshot: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        label: "baseline".to_owned(),
        out_dir: PathBuf::from("results"),
        snapshot: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
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
    eprintln!("usage: bench_all [--quick] [--label <name>] [--out <dir>] [--snapshot <file>]");
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

    let mut runner = Runner::new(opts.quick);
    register_all(&mut runner);
    let report = runner.into_report(&opts.label);
    crp_telemetry::mem::start();
    let mut mem_results = Vec::new();
    mem_pass(&report, &mut mem_results);
    let _ = crp_telemetry::mem::finish();
    let mem_report = MemReport {
        label: report.label.clone(),
        quick: report.quick,
        results: mem_results,
    };

    println!(
        "{:<34} {:>12} {:>12} {:>14} {:>10} {:>8}",
        "benchmark", "p50", "p95", "throughput/s", "B/iter", "allocs"
    );
    for r in &report.results {
        println!(
            "{:<34} {:>12} {:>12} {:>14.1} {:>10} {:>8}",
            r.name,
            format_ns(r.p50_ns),
            format_ns(r.p95_ns),
            r.throughput_per_sec,
            r.alloc_bytes_per_iter,
            r.allocs_per_iter
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
    let mem_json = match serde_json::to_string(&mem_report) {
        Ok(json) => json + "\n",
        Err(err) => {
            eprintln!("bench_all: failed to serialize mem report: {err}");
            return ExitCode::from(1);
        }
    };
    let mem_path = opts.out_dir.join("mem.json");
    #[expect(clippy::disallowed_methods, reason = "bench_all writes its reports")]
    if let Err(err) = std::fs::write(&mem_path, &mem_json) {
        eprintln!("bench_all: cannot write {}: {err}", mem_path.display());
        return ExitCode::from(1);
    }
    eprintln!("bench_all: wrote {}", mem_path.display());
    ExitCode::SUCCESS
}

/// The attribution pass: re-runs each tracked workload exactly as many
/// iterations as its timing row executed (warmup included), with fresh
/// counters per row, and appends the per-domain budgets to `mem`.
fn mem_pass(report: &crp_bench::harness::BenchReport, mem: &mut Vec<MemResult>) {
    run_mem_row(report, mem, "tracker/ingest_1000_bounded30", ingest_row);
    run_mem_row(report, mem, "macro/fig4_closest_smoke", fig4_row);
    run_mem_row(report, mem, "macro/fig6_clustering_smoke", fig6_row);
    run_mem_row(report, mem, "macro/observation_campaign_6h", campaign_row);
}

/// Replays one tracked workload under armed attribution, mirroring the
/// timing plan recorded in its [`BenchResult`].
fn run_mem_row<T, F>(
    report: &crp_bench::harness::BenchReport,
    mem: &mut Vec<MemResult>,
    name: &str,
    mut f: F,
) where
    F: FnMut() -> T,
{
    let Some(result) = report.result(name) else {
        return;
    };
    let iters = (result.samples + 1).max(1) * result.iters_per_sample.max(1);
    crp_telemetry::mem::reset();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let snap = crp_telemetry::mem::snapshot();
    mem.push(harness::mem_result_for(result, &snap));
}

/// The tracker-ingest workload: 1,000 probes into a 30-bounded window.
fn ingest_row() -> RedirectionTracker<u32> {
    let mut t = RedirectionTracker::<u32>::with_capacity(30);
    for i in 0..1_000u64 {
        t.record_slice(SimTime::from_mins(i), &[(i % 9) as u32]);
    }
    t
}

/// The Fig. 4 closest-node pipeline at smoke scale.
fn fig4_row() -> usize {
    crp_eval::run_closest(&crp_eval::ClosestConfig::smoke(11))
        .outcomes
        .len()
}

/// The Fig. 6 clustering pipeline at smoke scale.
fn fig6_row() -> usize {
    crp_eval::run_clustering(&crp_eval::ClusterExpConfig::smoke(12))
        .king_ms
        .len()
}

/// The 6-hour observation campaign at smoke scale.
fn campaign_row() -> usize {
    let (_scenario, service, _end) = observed_scenario(13, 8, 4);
    service.node_count()
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

    // --- ratio-map construction
    let weights: Vec<(u32, f64)> = (0..32u32).map(|i| (i, 1.0 + f64::from(i))).collect();
    runner.run("ratio_map/from_weights_32", 30, 1_000, || {
        RatioMap::from_weights(weights.clone())
    });
    let counts: Vec<(u32, u64)> = (0..30u32).map(|i| (i % 12, 1 + u64::from(i))).collect();
    runner.run("ratio_map/from_counts_30", 30, 1_000, || {
        RatioMap::from_counts(counts.clone())
    });

    // --- redirection tracker (per-probe bookkeeping + window derivation)
    runner.run("tracker/ingest_1000_bounded30", 20, 20, ingest_row);
    // The same ingest loop with the live-observability stack armed:
    // every probe mints a causal trace and feeds the time-series store,
    // so the delta against the row above is the per-probe cost of
    // running traced. (Collectors are torn down before the next row.)
    crp_telemetry::trace::start(crp_telemetry::trace::TraceConfig::default());
    crp_telemetry::timeseries::start(crp_telemetry::timeseries::TimeSeriesConfig::default());
    runner.run("tracker/ingest_1000_bounded30_traced", 20, 20, || {
        let mut t = RedirectionTracker::<u32>::with_capacity(30);
        for i in 0..1_000u64 {
            let id = crp_telemetry::trace::mint(&[7, i]);
            crp_telemetry::trace::begin(id, i * 60_000, "bench.ingest");
            t.record_slice(SimTime::from_mins(i), &[(i % 9) as u32]);
        }
        t
    });
    let _ = crp_telemetry::trace::finish();
    let _ = crp_telemetry::timeseries::finish();

    let mut full = RedirectionTracker::new();
    for i in 0..720usize {
        full.record(
            SimTime::from_mins(10 * i as u64),
            vec![(i % 7) as u32, ((i * 3) % 7) as u32],
        );
    }
    let now = SimTime::from_mins(7_200);
    runner.run("tracker/window_last30_of_720", 30, 500, || {
        full.ratio_map(WindowPolicy::LastProbes(30), now)
    });

    // --- clustering and ranking (§V)
    let nodes = synthetic_maps(177, 8, 500);
    runner.run("smf/cluster_177x8", 10, 2, || {
        Clustering::smf(&nodes, &SmfConfig::paper(0.1))
    });
    let client = synthetic_map(0xC11E47, 10, 1_000);
    let cands = synthetic_maps(240, 10, 1_000);
    runner.run("ranking/rank_240_candidates", 20, 50, || {
        Ranking::rank(
            &client,
            cands.iter().map(|(n, m)| (*n, m)),
            SimilarityMetric::Cosine,
        )
    });

    // --- CDN mapping hot path (the cost of every simulated probe)
    let (cdn, cdn_client, name) = cdn_fixture();
    let mut t_ms = 0u64;
    runner.run("cdn/authoritative_answer_warm", 20, 200, move || {
        t_ms += 20_000;
        cdn.authoritative_answer(&name, cdn_client, SimTime::from_millis(t_ms))
    });

    // --- scripted infrastructure events (change-detection pipeline)
    // Applying the standard event suite to a freshly deployed CDN: the
    // per-build cost every change-detection scenario pays. The network
    // is cloned from a prebuilt template so topology generation stays
    // outside the measured path (deploy + stage + apply remain inside).
    let event_net = NetworkBuilder::new(21)
        .tier1_count(4)
        .transit_per_region(2)
        .stubs_per_region(12)
        .build();
    let suite = crp_cdn::EventScript::standard_suite(SimTime::from_hours(24));
    runner.run("cdn/apply_event", 10, 1, || {
        let mut cdn = crp_cdn::Cdn::deploy(
            event_net.clone(),
            &crp_cdn::DeploymentSpec::akamai_like(0.25),
            crp_cdn::MappingConfig::default(),
        );
        suite.stage(&mut cdn);
        suite.apply(&mut cdn).len()
    });

    // The online detector's scan over a recorded 12-hour history with a
    // mid-run mass remap — the full snapshot/lag/group-stats pipeline.
    let detect_service = detect_fixture();
    let detect_hosts: Vec<(u32, String)> = (0..48u32)
        .map(|h| (h, format!("region-{}", h % 4)))
        .collect();
    let detect_cfg = crp_audit::detect::DetectConfig::new(
        SimTime::from_hours(1),
        SimTime::from_hours(12),
        crp_netsim::SimDuration::from_mins(30),
    );
    runner.run("audit/detect_scan", 10, 5, || {
        crp_audit::detect::scan(&detect_service, &detect_hosts, &detect_cfg)
            .windows
            .len()
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

    // --- macro kernels: the per-figure experiment pipelines at smoke scale
    runner.run("macro/fig4_closest_smoke", 5, 1, fig4_row);
    runner.run("macro/fig6_clustering_smoke", 5, 1, fig6_row);
    runner.run("macro/observation_campaign_6h", 5, 1, campaign_row);
}

/// A 12-hour observation history for the detector scan: 48 hosts in 4
/// scope groups probing every 10 minutes, with half of every group
/// decisively remapping at hour 6 — enough churn that the scan row
/// exercises the full detection path, not just the quiet one.
fn detect_fixture() -> crp_core::CrpService<u32, u32> {
    let mut svc = crp_core::CrpService::new(WindowPolicy::LastProbes(12), SimilarityMetric::Cosine);
    for host in 0..48u32 {
        for m in 0..72u64 {
            let t = SimTime::from_mins(m * 10);
            let flipped = host % 2 == 0 && t >= SimTime::from_hours(6);
            let replica = if flipped { 100 + host % 4 } else { host % 8 };
            svc.record(host, t, vec![replica, (host + 1) % 8]);
        }
    }
    svc
}

fn cdn_fixture() -> (crp_cdn::Cdn, HostId, DomainName) {
    let mut net = NetworkBuilder::new(5).build();
    let client = net.add_population(&PopulationSpec::dns_servers(1))[0];
    let mut cdn = crp_cdn::Cdn::deploy(
        net,
        &crp_cdn::DeploymentSpec::akamai_like(1.0),
        crp_cdn::MappingConfig::default(),
    );
    let name = cdn
        .add_customer("us.i1.yimg.com")
        .expect("valid customer name");
    let _ = cdn.authoritative_answer(&name, client, SimTime::ZERO); // warm the shortlist memo
    (cdn, client, name)
}
