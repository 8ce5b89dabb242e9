//! The workloads at small sizes, checked against the experiment kernels
//! they reproduce, and their traced runs against the work they did.

use crp_core::{SimilarityMetric, WindowPolicy};
use crp_e2e_bench::workloads::{self, Answer, Size, Workload};
use crp_eval::closest::{average_ranks, run_closest, ClosestConfig};
use crp_netsim::{HostId, SimDuration, SimTime};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const INTERVAL: SimDuration = SimDuration::from_mins(10);

/// The profiler a traced run reads is process-global, so no two runs may
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small() -> Size {
    Size {
        candidates: 24,
        clients: 16,
        cdn_scale: 0.3,
        campaign_hours: 6,
        sweep_hours: 14,
        host_blocks: 5,
        snapshots: 4,
        chunk: 10,
    }
}

/// A zero budget runs exactly the minimum number of operations, which
/// covers a whole pass over the small inputs.
fn run(workload: Workload, seed: u64, trace: bool) -> workloads::Outcome {
    let outcome = workloads::run(workload, &small(), seed, Duration::ZERO, trace);
    assert_eq!(
        outcome.failed,
        0,
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    outcome
}

#[test]
fn fig4_top1_picks_equal_run_closest() {
    let _serial = serial();
    let size = small();
    let outcome = run(Workload::Fig4Paper, 7, false);
    let reference = run_closest(&ClosestConfig {
        seed: 7,
        candidates: size.candidates,
        clients: size.clients,
        cdn_scale: size.cdn_scale,
        observe_hours: size.campaign_hours,
        probe_interval: INTERVAL,
        window: WindowPolicy::LastProbes(30),
        inject_faults: false,
        filter_cdn_owned: false,
    });
    let expected: Vec<(HostId, HostId, usize)> = reference
        .outcomes
        .iter()
        .map(|o| (o.client, o.crp_top1_selected, o.crp_top1_rank))
        .collect();
    let got: Vec<(HostId, HostId, usize)> = outcome
        .answers
        .iter()
        .map(|a| (a.client, a.top1, a.rank))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(got, expected);
}

/// Per-client mean rank over the answers under `window`, sorted by client.
fn mean_ranks(answers: &[Answer], window: WindowPolicy) -> Vec<(HostId, f64)> {
    let mut out: Vec<(HostId, Vec<f64>)> = Vec::new();
    for a in answers.iter().filter(|a| a.window == window) {
        match out.last_mut() {
            Some((client, ranks)) if *client == a.client => ranks.push(a.rank as f64),
            _ => out.push((a.client, vec![a.rank as f64])),
        }
    }
    let mut means: Vec<(HostId, f64)> = out
        .into_iter()
        .map(|(c, ranks)| (c, ranks.iter().sum::<f64>() / ranks.len() as f64))
        .collect();
    means.sort_by_key(|(c, _)| *c);
    means
}

#[test]
fn fig9_mean_ranks_equal_average_ranks() {
    let _serial = serial();
    let size = small();
    let outcome = run(Workload::Fig9Sweep, 8, false);
    let world = workloads::world(8, &size);
    let hours = size.sweep_hours;
    let base = world.observe_all(
        SimTime::ZERO,
        SimTime::from_hours(hours),
        INTERVAL,
        WindowPolicy::All,
        SimilarityMetric::Cosine,
    );
    let eval_times: Vec<SimTime> = (0..4)
        .map(|i| SimTime::from_hours(hours - 12 + i * 4))
        .collect();
    for window in [
        WindowPolicy::All,
        WindowPolicy::LastProbes(30),
        WindowPolicy::LastProbes(10),
        WindowPolicy::LastProbes(5),
    ] {
        let mut expected = average_ranks(&world, &base.clone().with_window(window), &eval_times);
        expected.sort_by_key(|(c, _)| *c);
        assert!(!expected.is_empty());
        assert_eq!(mean_ranks(&outcome.answers, window), expected, "{window:?}");
    }
}

#[test]
fn traced_counts_match_the_work_done() {
    let _serial = serial();
    let size = small();
    let world = workloads::world(9, &size);
    let hosts = workloads::all_hosts(&world).len() as u64;
    let candidates = size.candidates as u64;
    let ticks = size.campaign_hours * 6;
    let lookups = world.names().len() as u64;
    let count = |outcome: &workloads::Outcome, name: &str| {
        outcome
            .trace
            .as_ref()
            .expect("a traced run keeps its trace")
            .layer(name)
            .calls
    };

    // The set-up's campaign answers every name for every host at every
    // tick; each query maps the client and every candidate once.
    let ingest = run(Workload::IngestMixed, 9, true);
    let ops = ingest.traced_op_ns.len() as u64;
    assert_eq!(count(&ingest, "probe.observe"), hosts * ticks);
    assert_eq!(
        count(&ingest, "cdn.authoritative_answer"),
        hosts * ticks * lookups
    );
    assert_eq!(count(&ingest, "core.closest"), ops);
    assert_eq!(count(&ingest, "core.rank"), ops);
    // A client that is itself a candidate is not ranked against itself.
    let maps = count(&ingest, "core.ratio_map");
    assert!((ops * candidates..=ops * (candidates + 1)).contains(&maps));
    let records = ingest
        .quality
        .iter()
        .find(|(k, _)| *k == "records_per_pass");
    assert_eq!(count(&ingest, "core.record") as f64, records.unwrap().1);

    let fig9 = run(Workload::Fig9Sweep, 9, true);
    let queries = 4 * fig9.traced_op_ns.len() as u64;
    assert_eq!(count(&fig9, "scenario.observe"), 1);
    assert_eq!(count(&fig9, "core.closest"), queries);
    assert_eq!(count(&fig9, "core.ratio_map"), queries * (candidates + 1));

    let cluster = run(Workload::ClusterSweep, 9, true);
    let ops = cluster.traced_op_ns.len() as u64;
    assert_eq!(count(&cluster, "core.smf"), ops);
    assert_eq!(count(&cluster, "core.ratio_map"), ops * hosts);

    // The set-up probes every host once; the operations probe whole
    // passes over the blocks of hosts.
    let fig4 = run(Workload::Fig4Paper, 9, true);
    let ops = fig4.traced_op_ns.len() as u64;
    let passes = ops / size.host_blocks as u64;
    assert_eq!(ops % size.host_blocks as u64, 0);
    assert_eq!(count(&fig4, "scenario.observe"), ops + 1);
    assert_eq!(
        count(&fig4, "cdn.authoritative_answer"),
        hosts * lookups * (passes * ticks + 1)
    );
}

fn quality_bits(outcome: &workloads::Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .quality
        .iter()
        .map(|(name, v)| (*name, v.to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_identical_answers_and_quality_traced_or_not() {
    let _serial = serial();
    for workload in Workload::ALL {
        let plain = run(workload, 11, false);
        let traced = run(workload, 11, true);
        let other_seed = run(workload, 12, false);
        let name = workload.name();
        assert!(!plain.quality.is_empty(), "{name}");
        assert_eq!(plain.answers, traced.answers, "{name}");
        assert_eq!(quality_bits(&plain), quality_bits(&traced), "{name}");
        assert_ne!(quality_bits(&plain), quality_bits(&other_seed), "{name}");
        assert_eq!(plain.setup_s.len(), workloads::SETUP_REPS);
        assert_eq!(traced.op_ns.len(), traced.traced_op_ns.len(), "{name}");
        let trace = traced.trace.expect("a traced run keeps its trace");
        assert!(traced.traced_top_level_ns > 0, "{name}");
        assert!(trace.top_level_ns() >= traced.traced_top_level_ns, "{name}");
        assert!(!trace.sampled().is_empty(), "{name}");
    }
}
