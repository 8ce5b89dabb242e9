//! The closest-node selection experiment kernel (§V-A, Figs. 4–5, 8–9).
//!
//! One run reproduces the paper's pipeline end to end:
//!
//! 1. build the world (candidate servers, DNS-server clients, CDN);
//! 2. run the observation campaign (recursive DNS probes on a fixed
//!    interval) for every host;
//! 3. build the Meridian overlay over the candidates — with the
//!    deployment pathologies the paper documents, when enabled;
//! 4. for every client, ask CRP (Top-1 and Top-5) and Meridian for the
//!    closest candidate and score both against the ground-truth
//!    RTT-ordered candidate list.

use crp::{Scenario, ScenarioConfig};
use crp_cdn::ReplicaId;
use crp_core::{CrpService, SimilarityMetric, WindowPolicy};
use crp_meridian::{FaultPlan, MeridianConfig, MeridianOverlay};
use crp_netsim::{noise, HostId, SimDuration, SimTime};

use crate::cli::EvalArgs;

/// Configuration of a closest-node experiment run.
#[derive(Clone, Debug)]
pub struct ClosestConfig {
    /// Master seed.
    pub seed: u64,
    /// Candidate servers (paper: 240 Meridian-active PlanetLab nodes).
    pub candidates: usize,
    /// Clients (paper: 1,000 DNS servers from the King data set).
    pub clients: usize,
    /// CDN footprint scale.
    pub cdn_scale: f64,
    /// Observation-campaign length.
    pub observe_hours: u64,
    /// Probe interval.
    pub probe_interval: SimDuration,
    /// Ratio-map window policy.
    pub window: WindowPolicy,
    /// Inject the paper's Meridian deployment faults.
    pub inject_faults: bool,
    /// Apply the §VI CDN-owned-address filter to probes.
    pub filter_cdn_owned: bool,
}

impl ClosestConfig {
    /// The paper-scale configuration, with overrides from common flags.
    pub fn paper(args: &EvalArgs) -> Self {
        ClosestConfig {
            seed: args.seed,
            candidates: args.candidates.unwrap_or(240),
            clients: args.clients.unwrap_or(1_000),
            cdn_scale: args.scale.unwrap_or(1.0),
            observe_hours: args.hours.unwrap_or(36),
            probe_interval: SimDuration::from_mins(10),
            window: WindowPolicy::LastProbes(30),
            inject_faults: true,
            filter_cdn_owned: false,
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn smoke(seed: u64) -> Self {
        ClosestConfig {
            seed,
            candidates: 24,
            clients: 16,
            cdn_scale: 0.3,
            observe_hours: 6,
            probe_interval: SimDuration::from_mins(10),
            window: WindowPolicy::LastProbes(30),
            inject_faults: true,
            filter_cdn_owned: false,
        }
    }
}

/// Per-client outcome of the experiment, all latencies in milliseconds
/// measured against the evaluation window.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    /// The client host.
    pub client: HostId,
    /// RTT to the truly closest candidate.
    pub optimal_ms: f64,
    /// The truly closest candidate (ground truth).
    pub optimal_selected: HostId,
    /// RTT to Meridian's recommendation.
    pub meridian_ms: f64,
    /// Rank of Meridian's recommendation (0 = optimal).
    pub meridian_rank: usize,
    /// Meridian's recommended candidate.
    pub meridian_selected: HostId,
    /// RTT to CRP's Top-1 recommendation.
    pub crp_top1_ms: f64,
    /// Rank of CRP's Top-1 (0 = optimal).
    pub crp_top1_rank: usize,
    /// CRP's Top-1 candidate.
    pub crp_top1_selected: HostId,
    /// Similarity score behind the Top-1 pick (0 when the client shares
    /// no replica with it) — the audit layer uses this to separate weak
    /// picks from confidently wrong ones.
    pub crp_top1_score: f64,
    /// Mean RTT over CRP's Top-5 recommendations.
    pub crp_top5_ms: f64,
    /// Whether the client shared any replica with any candidate.
    pub crp_has_signal: bool,
}

/// The assembled world plus per-client outcomes.
pub struct ClosestRun {
    /// The scenario (network, CDN, populations).
    pub scenario: Scenario,
    /// The observation service after the campaign.
    pub service: CrpService<HostId, ReplicaId>,
    /// The Meridian overlay used for the comparison.
    pub overlay: MeridianOverlay,
    /// When the evaluation snapshot was taken.
    pub eval_time: SimTime,
    /// Per-client results (clients CRP could not position at all are
    /// omitted, mirroring the paper's smaller plotted populations).
    pub outcomes: Vec<ClientOutcome>,
}

/// Runs the full closest-node experiment.
pub fn run_closest(cfg: &ClosestConfig) -> ClosestRun {
    crp_telemetry::stage!(EVAL_RUN_CLOSEST);
    let scenario = Scenario::build(ScenarioConfig {
        seed: cfg.seed,
        candidate_servers: cfg.candidates,
        clients: cfg.clients,
        cdn_scale: cfg.cdn_scale,
        filter_cdn_owned: cfg.filter_cdn_owned,
        ..ScenarioConfig::default()
    });
    let start = SimTime::ZERO;
    let end = SimTime::from_hours(cfg.observe_hours);
    let service = scenario.observe_all(
        start,
        end,
        cfg.probe_interval,
        cfg.window,
        SimilarityMetric::Cosine,
    );

    let faults = if cfg.inject_faults {
        FaultPlan::paper_like(scenario.candidates(), 17)
    } else {
        FaultPlan::none()
    };
    let overlay = MeridianOverlay::build(
        scenario.network(),
        scenario.candidates(),
        MeridianConfig {
            seed: cfg.seed,
            ..MeridianConfig::default()
        },
        faults,
    );

    // Ground truth over the last two hours of the campaign.
    let truth_start = SimTime::from_hours(cfg.observe_hours.saturating_sub(2).max(1) - 1);
    let eval_time = end;
    let mut outcomes = Vec::with_capacity(scenario.clients().len());

    for (i, &client) in scenario.clients().iter().enumerate() {
        let Ok(ranking) = service.closest(&client, scenario.candidates().to_vec(), eval_time)
        else {
            continue; // client never observed a redirection
        };
        if ranking.is_empty() {
            continue;
        }
        let order = scenario.rtt_ordered_candidates(client, truth_start, end);
        #[expect(
            clippy::expect_used,
            reason = "order contains every candidate by construction"
        )]
        let rank_of = |host: HostId| -> usize {
            order
                .iter()
                .position(|(c, _)| *c == host)
                .expect("candidates are ranked")
        };
        #[expect(
            clippy::expect_used,
            reason = "order contains every candidate by construction"
        )]
        let ms_of = |host: HostId| -> f64 {
            order
                .iter()
                .find(|(c, _)| *c == host)
                .expect("candidates are ranked")
                .1
                .millis()
        };

        #[expect(clippy::expect_used, reason = "empty rankings are skipped above")]
        let crp_top1 = **ranking.top_k(1).first().expect("non-empty ranking");
        // Top-5 averages only candidates CRP has signal for (shared
        // replicas): zero-similarity entries carry no position
        // information, and the paper's semantics for them is "not near",
        // never "recommend".
        let top5: Vec<HostId> = ranking
            .entries()
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .take(5)
            .map(|(c, _)| *c)
            .collect();
        let crp_top5_ms = if top5.is_empty() {
            ms_of(crp_top1)
        } else {
            top5.iter().map(|c| ms_of(*c)).sum::<f64>() / top5.len() as f64
        };

        // The paper used "the measuring PlanetLab node" as the entry
        // point; we draw a deterministic entry per client.
        let entry = scenario.candidates()[(noise::mix(&[cfg.seed, 0xE1, i as u64])
            % scenario.candidates().len() as u64)
            as usize];
        let mq = overlay.closest_node_query(scenario.network(), entry, client, eval_time);

        outcomes.push(ClientOutcome {
            client,
            optimal_ms: order[0].1.millis(),
            optimal_selected: order[0].0,
            meridian_ms: ms_of(mq.selected),
            meridian_rank: rank_of(mq.selected),
            meridian_selected: mq.selected,
            crp_top1_ms: ms_of(crp_top1),
            crp_top1_rank: rank_of(crp_top1),
            crp_top1_selected: crp_top1,
            crp_top1_score: ranking.entries().first().map_or(0.0, |(_, s)| *s),
            crp_top5_ms,
            crp_has_signal: ranking.has_signal(),
        });
    }

    ClosestRun {
        scenario,
        service,
        overlay,
        eval_time,
        outcomes,
    }
}

/// Average CRP Top-1 rank per client over several evaluation instants,
/// scoring each instant against the *instantaneous* RTT ordering — the
/// metric of Figs. 8–9. Clients that cannot be positioned at any
/// evaluation instant are omitted (the paper plots fewer DNS servers at
/// long probe intervals for exactly this reason).
pub fn average_ranks(
    scenario: &Scenario,
    service: &CrpService<HostId, ReplicaId>,
    eval_times: &[SimTime],
) -> Vec<(HostId, f64)> {
    let net = scenario.network();
    let mut out = Vec::new();
    for &client in scenario.clients() {
        let mut ranks = Vec::new();
        for &t in eval_times {
            let Ok(ranking) = service.closest(&client, scenario.candidates().to_vec(), t) else {
                continue;
            };
            // A client that shares no replica with any candidate cannot
            // be positioned at this instant — the paper plots fewer DNS
            // servers at long probe intervals for exactly this reason.
            if !ranking.has_signal() {
                continue;
            }
            let Some(&top1) = ranking.top() else { continue };
            let mut order: Vec<(HostId, f64)> = scenario
                .candidates()
                .iter()
                .map(|&c| (c, net.rtt(client, c, t).millis()))
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            #[expect(clippy::expect_used, reason = "top1 came from this candidate list")]
            let rank = order
                .iter()
                .position(|(c, _)| *c == top1)
                .expect("top1 is a candidate");
            ranks.push(rank as f64);
        }
        if !ranks.is_empty() {
            out.push((client, ranks.iter().sum::<f64>() / ranks.len() as f64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_outcomes() {
        let run = run_closest(&ClosestConfig::smoke(1));
        assert!(
            run.outcomes.len() >= 12,
            "only {} of 16 clients scored",
            run.outcomes.len()
        );
        for o in &run.outcomes {
            assert!(o.optimal_ms <= o.crp_top1_ms + 1e-9);
            assert!(o.optimal_ms <= o.meridian_ms + 1e-9);
            assert!(o.crp_top1_rank < 24);
            assert!(o.meridian_rank < 24);
        }
    }

    #[test]
    fn crp_beats_random_selection_on_average() {
        let run = run_closest(&ClosestConfig::smoke(2));
        let n_candidates = 24.0;
        let mean_rank = run
            .outcomes
            .iter()
            .map(|o| o.crp_top1_rank as f64)
            .sum::<f64>()
            / run.outcomes.len() as f64;
        // Random selection would average (n-1)/2 = 11.5.
        assert!(
            mean_rank < n_candidates / 2.0 - 2.0,
            "CRP mean rank {mean_rank:.1} is no better than random"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_closest(&ClosestConfig::smoke(3));
        let b = run_closest(&ClosestConfig::smoke(3));
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.crp_top1_selected, y.crp_top1_selected);
            assert_eq!(x.meridian_selected, y.meridian_selected);
        }
    }

    #[test]
    fn average_ranks_cover_positionable_clients() {
        let run = run_closest(&ClosestConfig::smoke(4));
        let times = [SimTime::from_hours(5), SimTime::from_hours(6)];
        let ranks = average_ranks(&run.scenario, &run.service, &times);
        assert!(!ranks.is_empty());
        for (_, r) in &ranks {
            assert!(*r >= 0.0 && *r < 24.0);
        }
    }
}
