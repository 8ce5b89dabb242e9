//! Per-figure experiment kernels at reduced scale — one bench per table
//! and figure of the paper, so regressions in end-to-end experiment cost
//! are caught just like micro-regressions.
//!
//! (The full-scale numbers are produced by `crp-eval`'s binaries; these
//! benches measure the same code paths at a size Criterion can iterate.)

use criterion::{criterion_group, criterion_main, Criterion};
use crp_bench::observed_scenario;
use crp_core::{SimilarityMetric, SmfConfig, WindowPolicy};
use crp_netsim::{SimDuration, SimTime};

/// Figs. 4–5 kernel: one full closest-node comparison per iteration.
fn bench_fig4_fig5_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig4_fig5_closest_node_small", |bench| {
        bench.iter(|| {
            let cfg = crp_eval_shim::closest_smoke(11);
            crp_eval_shim::run_closest(&cfg).outcomes.len()
        });
    });
    group.finish();
}

/// Table I / Figs. 6–7 kernel: clustering + baseline + ground truth.
fn bench_clustering_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("table1_fig6_fig7_clustering_small", |bench| {
        bench.iter(|| {
            let cfg = crp_eval_shim::cluster_smoke(12);
            crp_eval_shim::run_clustering(&cfg).king_ms.len()
        });
    });
    group.finish();
}

/// Figs. 8–9 kernel: observation campaign + rank evaluation.
fn bench_rank_sweep_kernel(c: &mut Criterion) {
    let (scenario, service, end) = observed_scenario(13, 24, 16);
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig8_fig9_rank_evaluation", |bench| {
        bench.iter(|| {
            let windows = [WindowPolicy::All, WindowPolicy::LastProbes(10)];
            let mut total = 0usize;
            for w in windows {
                let svc = service.clone().with_window(w);
                total += crp_eval_shim::average_ranks(&scenario, &svc, &[end]).len();
            }
            total
        });
    });
    group.bench_function("fig8_observation_campaign_6h", |bench| {
        bench.iter(|| {
            scenario.observe_hosts(
                &scenario.clients()[..4],
                SimTime::ZERO,
                end,
                SimDuration::from_mins(10),
                WindowPolicy::All,
                SimilarityMetric::Cosine,
            )
        });
    });
    group.finish();
}

/// Ablation kernel: SMF under both center strategies on live maps.
fn bench_ablation_kernel(c: &mut Criterion) {
    let (_scenario, service, end) = observed_scenario(14, 0, 40);
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("ablation_smf_on_live_maps", |bench| {
        bench.iter(|| service.cluster(&SmfConfig::paper(0.1), end).total_nodes());
    });
    group.finish();
}

/// Thin re-exports of the eval kernels so the benches exercise the same
/// code the figures use.
mod crp_eval_shim {
    pub(crate) use crp_eval::closest::average_ranks;
    pub(crate) use crp_eval::{run_closest, run_clustering};

    pub(crate) fn closest_smoke(seed: u64) -> crp_eval::ClosestConfig {
        crp_eval::ClosestConfig::smoke(seed)
    }

    pub(crate) fn cluster_smoke(seed: u64) -> crp_eval::ClusterExpConfig {
        crp_eval::ClusterExpConfig::smoke(seed)
    }
}

criterion_group!(
    benches,
    bench_fig4_fig5_kernel,
    bench_clustering_kernel,
    bench_rank_sweep_kernel,
    bench_ablation_kernel
);
criterion_main!(benches);
