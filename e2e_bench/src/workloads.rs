//! The four paper-scale workloads and the closed loop that drives them.
//!
//! One thread issues operations back to back, each only after the
//! previous one returned: a closed loop with a single client. Every
//! workload runs on the world of the paper's closest-node experiments —
//! 240 candidate servers and 1,000 DNS-server clients behind the full
//! Akamai-like CDN — and each loads a different layer:
//!
//! | workload | set-up | one timed operation |
//! |---|---|---|
//! | `fig4-paper` | build the world, one probe per host | 36 h of 10-min probes for a block of 4 hosts (`Scenario::observe_hosts`) |
//! | `fig9-sweep` | build + 48 h campaign | one client at one instant, `CrpService::closest` under windows all/30/10/5 |
//! | `cluster-sweep` | build + 36 h campaign | `CrpService::cluster` over all 1,240 hosts at one threshold and snapshot |
//! | `ingest-mixed` | build + collect the 36 h probe stream | 50 `CrpService::record` calls in arrival order, then one `closest` |
//!
//! Operations call the public API named above, traced or not; a traced
//! unit only runs inside a profiling session ([`crate::trace`]). Ground
//! truth and output checks run between operations, outside the timed
//! region and outside any session.

use crate::trace::Trace;
use crp::{CdnProbe, Scenario, ScenarioConfig};
use crp_cdn::{CdnStats, ReplicaId};
use crp_core::invariant::{
    check_disjoint_partition, check_ranking_scores, check_ratio_distribution,
};
use crp_core::{
    Clustering, CrpService, ObservationSource, Ranking, RatioMap, RatioMapError, SimilarityMetric,
    SmfConfig, WindowPolicy,
};
use crp_netsim::{HostId, SimDuration, SimTime};
use std::time::{Duration, Instant};

/// The service type every workload drives.
pub type Service = CrpService<HostId, ReplicaId>;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Operations every measured phase completes at least; also the window
/// over which latency statistics are taken, so that a window's p90 has
/// ten samples beyond it.
pub const MIN_OPS: usize = 100;

const PROBE_INTERVAL: SimDuration = SimDuration::from_mins(10);
/// The window of the paper's closest-node and clustering experiments.
const PAPER_WINDOW: WindowPolicy = WindowPolicy::LastProbes(30);
/// The window the paper recommends for a deployed service.
const SERVICE_WINDOW: WindowPolicy = WindowPolicy::LastProbes(10);
/// The windows of Fig. 9.
const SWEEP_WINDOWS: [WindowPolicy; 4] = [
    WindowPolicy::All,
    WindowPolicy::LastProbes(30),
    WindowPolicy::LastProbes(10),
    WindowPolicy::LastProbes(5),
];
/// The SMF thresholds of Table I.
const THRESHOLDS: [f64; 3] = [0.01, 0.1, 0.5];
const SNAPSHOT_STEP: SimDuration = SimDuration::from_mins(15);
/// ingest-mixed scores one query in this many against ground truth,
const INGEST_SCORE_EVERY: usize = 50;
/// once a window of 10 probes can have arrived.
const INGEST_SCORE_FROM: SimTime = SimTime::from_millis(10 * PROBE_INTERVAL.as_millis());
/// A Top-1 pick no better than this share of the random-pick mean rank
/// fails the quality check.
const MAX_RANK_SHARE_OF_RANDOM: f64 = 0.5;

/// A benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4 observation campaign.
    Fig4Paper,
    /// The Fig. 9 window sweep of closest-node queries.
    Fig9Sweep,
    /// The Table I SMF threshold sweep over every host.
    ClusterSweep,
    /// Ingest in arrival order with queries in between.
    IngestMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Paper,
        Workload::Fig9Sweep,
        Workload::ClusterSweep,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Paper => "fig4-paper",
            Workload::Fig9Sweep => "fig9-sweep",
            Workload::ClusterSweep => "cluster-sweep",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    /// The workload with this name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of the world and of each workload's inputs.
#[derive(Clone, Debug)]
pub struct Size {
    /// Candidate servers (paper: 240).
    pub candidates: usize,
    /// DNS-server clients (paper: 1,000).
    pub clients: usize,
    /// CDN footprint scale (paper: 1.0).
    pub cdn_scale: f64,
    /// Campaign length of fig4-paper, cluster-sweep and ingest-mixed
    /// (paper: 36 h).
    pub campaign_hours: u64,
    /// Campaign length of fig9-sweep (paper: 48 h).
    pub sweep_hours: u64,
    /// fig4-paper: the hosts split into this many blocks, one block per
    /// operation.
    pub host_blocks: usize,
    /// cluster-sweep: snapshots 15 min apart, back from the campaign end
    /// (paper: 40).
    pub snapshots: usize,
    /// ingest-mixed: records between two queries.
    pub chunk: usize,
}

impl Size {
    /// The paper's scale: 310 blocks of 4 hosts, 40 snapshots, a query
    /// after every 50 records.
    pub fn paper() -> Size {
        Size {
            candidates: 240,
            clients: 1_000,
            cdn_scale: 1.0,
            campaign_hours: 36,
            sweep_hours: 48,
            host_blocks: 310,
            snapshots: 40,
            chunk: 50,
        }
    }
}

/// One closest-node answer scored against ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The querying host.
    pub client: HostId,
    /// The query instant.
    pub at: SimTime,
    /// The window the query ran under.
    pub window: WindowPolicy,
    /// CRP's Top-1 pick.
    pub top1: HostId,
    /// The pick's rank in the ground-truth RTT order (0 = optimal).
    pub rank: usize,
}

/// Everything one run of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced operation.
    pub op_ns: Vec<u64>,
    /// Latency of each traced operation (trace mode only).
    pub traced_op_ns: Vec<u64>,
    /// Scope time no other scope encloses, inside traced operations.
    pub traced_top_level_ns: u64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Descriptions of the first failed checks.
    pub problems: Vec<String>,
    /// Scored answers from the first pass over the inputs.
    pub answers: Vec<Answer>,
    /// Deterministic figures of merit: the same seed gives the same values.
    pub quality: Vec<(&'static str, f64)>,
    /// The CDN's load counters at the end of the run.
    pub cdn: CdnStats,
    /// The scopes of the traced set-up and operations.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn problem(&mut self, problem: String) {
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problem(problem);
    }
}

/// Builds the world every workload runs on.
pub fn world(seed: u64, size: &Size) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        candidate_servers: size.candidates,
        clients: size.clients,
        cdn_scale: size.cdn_scale,
        ..ScenarioConfig::default()
    })
}

/// Candidates then clients: the host order of `Scenario::observe_all`.
pub fn all_hosts(world: &Scenario) -> Vec<HostId> {
    world
        .candidates()
        .iter()
        .chain(world.clients())
        .copied()
        .collect()
}

/// Runs `workload` once. Untraced, it sets up [`SETUP_REPS`] times and
/// measures for a share of `budget` after each set-up. Traced, it sets up
/// once inside a profiling session, then splits `budget` between an
/// untraced phase and a traced phase that replays the same operations
/// from the start, each in a session of its own. Each phase
/// runs at least [`MIN_OPS`] operations and any pass the final checks
/// read; the final checks close the run.
pub fn run(workload: Workload, size: &Size, seed: u64, budget: Duration, trace: bool) -> Outcome {
    match workload {
        Workload::Fig4Paper => drive::<Fig4>(size, seed, budget, trace),
        Workload::Fig9Sweep => drive::<Fig9>(size, seed, budget, trace),
        Workload::ClusterSweep => drive::<ClusterSweep>(size, seed, budget, trace),
        Workload::IngestMixed => drive::<Ingest>(size, seed, budget, trace),
    }
}

/// One workload's inputs and operations.
trait Bench: Sized {
    /// What one operation returns for checking.
    type Out;
    /// Builds the inputs on a freshly built world.
    fn setup(world: Scenario, size: &Size, seed: u64) -> Self;
    /// The world the workload runs on.
    fn world(&self) -> &Scenario;
    /// Operations in one pass over the inputs.
    fn pass_len(&self) -> usize;
    /// Operations each measured phase must complete because the final
    /// checks read them.
    fn required_ops(&self) -> usize {
        0
    }
    /// Untimed preparation of operation `i`.
    fn prepare(&mut self, _i: usize) {}
    /// The timed operation.
    fn op(&mut self, i: usize) -> Result<Self::Out, String>;
    /// Untimed check of an operation's output; `record` marks the
    /// operations whose answers feed the outcome.
    fn check(
        &mut self,
        i: usize,
        out: Self::Out,
        record: bool,
        log: &mut Outcome,
    ) -> Result<(), String>;
    /// Starts the operation sequence over.
    fn restart(&mut self) {}
    /// Untimed checks after the measured phase.
    fn finish(&mut self, log: &mut Outcome);
}

fn drive<B: Bench>(size: &Size, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut trace = trace.then(Trace::default);
    let (setups, phases) = match trace {
        Some(_) => (1, 2),
        None => (SETUP_REPS, SETUP_REPS as u32),
    };
    let phase = budget / phases;
    let mut log = Outcome::default();
    let mut bench: Option<B> = None;
    // Untraced, each set-up is followed by its share of the measurement:
    // spread out this way, a run samples more of the machine's changing
    // load than one block of measurement would.
    for _ in 0..setups {
        drop(bench.take());
        if let Some(t) = &trace {
            t.begin();
        }
        let started = Instant::now();
        let mut b = B::setup(world(seed, size), size, seed);
        log.setup_s.push(started.elapsed().as_secs_f64());
        if let Some(t) = &mut trace {
            t.end();
        }
        log.answers.clear();
        let op_ns = measure(&mut b, phase, None, &mut log);
        log.op_ns.extend(op_ns);
        bench = Some(b);
    }
    let mut bench = bench.expect("set up at least once");
    if let Some(t) = &mut trace {
        bench.restart();
        log.answers.clear();
        let top_before = t.top_level_ns();
        log.traced_op_ns = measure(&mut bench, phase, Some(&mut *t), &mut log);
        log.traced_top_level_ns = t.top_level_ns() - top_before;
    }
    bench.finish(&mut log);
    log.cdn = bench.world().cdn().stats();
    log.trace = trace;
    log
}

fn measure<B: Bench>(
    bench: &mut B,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    log: &mut Outcome,
) -> Vec<u64> {
    let min_ops = MIN_OPS.max(bench.required_ops());
    let recorded = bench.pass_len().min(min_ops);
    let mut op_ns = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i < min_ops || started.elapsed() < budget {
        bench.prepare(i);
        if let Some(t) = &trace {
            t.begin();
        }
        let op_start = Instant::now();
        let out = bench.op(i);
        op_ns.push(u64::try_from(op_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Some(t) = &mut trace {
            t.end();
        }
        log.attempted += 1;
        if let Err(problem) = out.and_then(|o| bench.check(i, o, i < recorded, log)) {
            log.fail(format!("operation {i}: {problem}"));
        }
        i += 1;
    }
    op_ns
}

// ---------------------------------------------------------------------
// Calls into the system. Scopes opened here mark public calls that open
// none of their own.

/// `Scenario::observe_hosts` for `hosts` over `[0, end)`, every 10 min.
pub fn campaign(world: &Scenario, hosts: &[HostId], end: SimTime, window: WindowPolicy) -> Service {
    world.observe_hosts(
        hosts,
        SimTime::ZERO,
        end,
        PROBE_INTERVAL,
        window,
        SimilarityMetric::Cosine,
    )
}

/// `CrpService::closest` over `candidates` other than `client`.
///
/// # Errors
///
/// Returns [`RatioMapError::Empty`] when the client has no usable
/// observations.
pub fn closest(
    service: &Service,
    client: HostId,
    candidates: &[HostId],
    at: SimTime,
) -> Result<Ranking<HostId>, RatioMapError> {
    crp_telemetry::profile_scope!("core.closest");
    let others = candidates.iter().copied().filter(move |&c| c != client);
    service.closest(&client, others, at)
}

// ---------------------------------------------------------------------
// Checks.

/// A ranking is well formed: scores in `[0, 1]` and non-increasing, and
/// each of at most `candidates` entries a distinct candidate.
fn check_ranking(ranking: &Ranking<HostId>, candidates: usize) -> Result<(), String> {
    check_ranking_scores(ranking.entries().iter().map(|(_, s)| s))?;
    let mut ids: Vec<HostId> = ranking.entries().iter().map(|(c, _)| *c).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != ranking.len() {
        return Err("a candidate is ranked twice".to_owned());
    }
    if ids.len() > candidates {
        return Err(format!("{} entries for {candidates} candidates", ids.len()));
    }
    Ok(())
}

/// The rank of `pick` among the candidates ordered by RTT to `client` at
/// `at` (the instantaneous ordering of Figs. 8–9).
fn instant_rank(world: &Scenario, client: HostId, at: SimTime) -> impl Fn(HostId) -> Option<usize> {
    let mut order: Vec<(HostId, f64)> = world
        .candidates()
        .iter()
        .map(|&c| (c, world.network().rtt(client, c, at).millis()))
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    move |pick| order.iter().position(|(c, _)| *c == pick)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Fails the run when the mean Top-1 rank is not clearly better than a
/// random pick's.
fn check_mean_rank(log: &mut Outcome, what: &str, mean_rank: f64, candidates: usize) {
    let random = candidates.saturating_sub(1) as f64 / 2.0;
    if mean_rank.is_nan() || mean_rank > random * MAX_RANK_SHARE_OF_RANDOM {
        log.problem(format!(
            "{what}: mean Top-1 rank {mean_rank:.2} is not better than half of random ({random:.1})"
        ));
    }
}

// ---------------------------------------------------------------------
// fig4-paper

/// The Fig. 4 campaign, one block of hosts per operation. Blocks take
/// every `host_blocks`-th host, so candidates and clients spread evenly
/// over the blocks.
struct Fig4 {
    world: Scenario,
    blocks: Vec<Vec<HostId>>,
    end: SimTime,
    kept: Vec<Service>,
}

impl Bench for Fig4 {
    type Out = Service;

    fn setup(world: Scenario, size: &Size, _seed: u64) -> Self {
        let hosts = all_hosts(&world);
        // One probe per host fills the CDN's lazily built shortlists, which
        // users pay for once, not on every campaign.
        let first_tick_end = SimTime::from_millis(PROBE_INTERVAL.as_millis());
        campaign(&world, &hosts, first_tick_end, PAPER_WINDOW);
        let n = size.host_blocks.clamp(1, hosts.len());
        let blocks = (0..n)
            .map(|b| hosts.iter().skip(b).step_by(n).copied().collect())
            .collect();
        Fig4 {
            world,
            blocks,
            end: SimTime::from_hours(size.campaign_hours),
            kept: Vec::new(),
        }
    }

    fn world(&self) -> &Scenario {
        &self.world
    }

    fn pass_len(&self) -> usize {
        self.blocks.len()
    }

    fn required_ops(&self) -> usize {
        self.blocks.len()
    }

    fn op(&mut self, i: usize) -> Result<Service, String> {
        let block = &self.blocks[i % self.blocks.len()];
        Ok(campaign(&self.world, block, self.end, PAPER_WINDOW))
    }

    fn check(
        &mut self,
        i: usize,
        service: Service,
        record: bool,
        _log: &mut Outcome,
    ) -> Result<(), String> {
        let block = &self.blocks[i % self.blocks.len()];
        if service.node_count() > block.len() {
            return Err(format!(
                "{} nodes observed in a block of {}",
                service.node_count(),
                block.len()
            ));
        }
        for host in block {
            if let Ok(map) = service.ratio_map(host, self.end) {
                let ratios: Vec<f64> = map.iter().map(|(_, r)| r).collect();
                check_ratio_distribution(&ratios).map_err(|e| format!("{host:?}: {e}"))?;
            }
        }
        if record {
            self.kept.push(service);
        }
        Ok(())
    }

    fn restart(&mut self) {
        self.kept.clear();
    }

    /// Scores CRP's Top-1 pick for every client against the mean-RTT
    /// order over the campaign's last hours, as `crp_eval::run_closest`
    /// does for Fig. 4.
    fn finish(&mut self, log: &mut Outcome) {
        let n = self.blocks.len();
        if self.kept.len() != n {
            log.problem(format!("{} of {n} blocks kept", self.kept.len()));
            return;
        }
        let end = self.end;
        let hours = end.as_millis() / SimTime::from_hours(1).as_millis();
        let truth_start = SimTime::from_hours(hours.saturating_sub(2).max(1) - 1);
        let kept = &self.kept;
        // The k-th host of `all_hosts` was probed in block k % n.
        let map_of = |k: usize, host: HostId| kept[k % n].ratio_map(&host, end);
        let candidates = self.world.candidates();
        let candidate_maps: Vec<(HostId, RatioMap<ReplicaId>)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(k, &c)| map_of(k, c).ok().map(|m| (c, m)))
            .collect();
        for (k, &client) in self.world.clients().iter().enumerate() {
            let Ok(client_map) = map_of(candidates.len() + k, client) else {
                continue;
            };
            let ranking = Ranking::rank(
                &client_map,
                candidate_maps.iter().map(|(c, m)| (*c, m)),
                SimilarityMetric::Cosine,
            );
            if let Err(e) = check_ranking(&ranking, candidates.len()) {
                log.problem(format!("client {client:?}: {e}"));
            }
            if let Some(&top1) = ranking.top() {
                let mut order: Vec<(HostId, crp_netsim::Rtt)> = candidates
                    .iter()
                    .map(|&c| (c, self.world.mean_rtt(client, c, truth_start, end)))
                    .collect();
                order.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                let rank = order.iter().position(|(c, _)| *c == top1);
                log.answers.push(Answer {
                    client,
                    at: end,
                    window: PAPER_WINDOW,
                    top1,
                    rank: rank.expect("the pick is a candidate"),
                });
            }
        }
        let mean_rank = mean(log.answers.iter().map(|a| a.rank as f64));
        let positioned = log.answers.len() as f64 / self.world.clients().len() as f64;
        log.quality = vec![
            ("top1_mean_rank", mean_rank),
            ("positioned_frac", positioned),
        ];
        check_mean_rank(log, "fig4", mean_rank, candidates.len());
    }
}

// ---------------------------------------------------------------------
// fig9-sweep

/// The Fig. 9 sweep: each operation asks for one client at one of four
/// instants under every window, all four instants per client. Clients
/// are taken with a stride through the population, so that the first
/// [`MIN_OPS`] operations, the ones scored, cover it evenly.
struct Fig9 {
    world: Scenario,
    service: Service,
    eval_times: Vec<SimTime>,
    clients: Vec<HostId>,
}

impl Bench for Fig9 {
    type Out = (HostId, SimTime, Vec<Ranking<HostId>>);

    fn setup(world: Scenario, size: &Size, _seed: u64) -> Self {
        let hours = size.sweep_hours;
        let end = SimTime::from_hours(hours);
        let service = campaign(&world, &all_hosts(&world), end, WindowPolicy::All);
        let eval_times: Vec<SimTime> = (0..4)
            .map(|i| SimTime::from_hours(hours.saturating_sub(12) + i * 4))
            .collect();
        let population = world.clients();
        let stride = population.len().div_ceil(MIN_OPS / eval_times.len()).max(1);
        let clients = (0..stride)
            .flat_map(|offset| population.iter().skip(offset).step_by(stride))
            .copied()
            .collect();
        Fig9 {
            world,
            service,
            eval_times,
            clients,
        }
    }

    fn world(&self) -> &Scenario {
        &self.world
    }

    fn pass_len(&self) -> usize {
        self.clients.len() * self.eval_times.len()
    }

    fn op(&mut self, i: usize) -> Result<Self::Out, String> {
        let times = self.eval_times.len();
        let client = self.clients[(i / times) % self.clients.len()];
        let at = self.eval_times[i % times];
        let mut rankings = Vec::with_capacity(SWEEP_WINDOWS.len());
        for window in SWEEP_WINDOWS {
            let service = std::mem::replace(
                &mut self.service,
                CrpService::new(window, SimilarityMetric::Cosine),
            );
            self.service = service.with_window(window);
            let ranking = closest(&self.service, client, self.world.candidates(), at)
                .map_err(|e| format!("client {client:?} under {}: {e}", window.label()))?;
            rankings.push(ranking);
        }
        Ok((client, at, rankings))
    }

    fn check(
        &mut self,
        _i: usize,
        (client, at, rankings): Self::Out,
        record: bool,
        log: &mut Outcome,
    ) -> Result<(), String> {
        for ranking in &rankings {
            check_ranking(ranking, self.world.candidates().len())?;
        }
        if !record {
            return Ok(());
        }
        let rank_of = instant_rank(&self.world, client, at);
        for (window, ranking) in SWEEP_WINDOWS.into_iter().zip(&rankings) {
            // Rankings without signal are not scored, as in Fig. 9.
            let Some(&top1) = ranking.top().filter(|_| ranking.has_signal()) else {
                continue;
            };
            log.answers.push(Answer {
                client,
                at,
                window,
                top1,
                rank: rank_of(top1).ok_or("the pick is not a candidate")?,
            });
        }
        Ok(())
    }

    /// Mean ranks over the scored clients, a sample of the population
    /// (25 of 1,000 at paper scale).
    fn finish(&mut self, log: &mut Outcome) {
        let mut scored: Vec<HostId> = log.answers.iter().map(|a| a.client).collect();
        scored.sort_unstable();
        scored.dedup();
        log.quality.push(("scored_clients", scored.len() as f64));
        for (name, window) in [
            ("top1_mean_rank_all", WindowPolicy::All),
            ("top1_mean_rank_30", WindowPolicy::LastProbes(30)),
            ("top1_mean_rank_10", WindowPolicy::LastProbes(10)),
            ("top1_mean_rank_5", WindowPolicy::LastProbes(5)),
        ] {
            let ranks = log.answers.iter().filter(|a| a.window == window);
            let mean_rank = mean(ranks.map(|a| a.rank as f64));
            log.quality.push((name, mean_rank));
            check_mean_rank(log, name, mean_rank, self.world.candidates().len());
        }
    }
}

// ---------------------------------------------------------------------
// cluster-sweep

/// The Table I thresholds over every host, at snapshots 15 min apart.
struct ClusterSweep {
    world: Scenario,
    service: Service,
    nodes: Vec<HostId>,
    snapshots: Vec<SimTime>,
    seed: u64,
    /// Per threshold: clustered fraction and intra-cluster tightness,
    /// summed over the recorded operations, and their count.
    sums: [(f64, f64, usize); 3],
}

impl Bench for ClusterSweep {
    type Out = (usize, SimTime, Clustering<HostId>);

    fn setup(world: Scenario, size: &Size, seed: u64) -> Self {
        let end = SimTime::from_hours(size.campaign_hours);
        let nodes = all_hosts(&world);
        let service = campaign(&world, &nodes, end, PAPER_WINDOW);
        let snapshots = (0..size.snapshots as u64)
            .map(|j| {
                SimTime::from_millis(
                    end.as_millis()
                        .saturating_sub(j * SNAPSHOT_STEP.as_millis()),
                )
            })
            .collect();
        ClusterSweep {
            world,
            service,
            nodes,
            snapshots,
            seed,
            sums: [(0.0, 0.0, 0); 3],
        }
    }

    fn world(&self) -> &Scenario {
        &self.world
    }

    fn pass_len(&self) -> usize {
        THRESHOLDS.len() * self.snapshots.len()
    }

    fn required_ops(&self) -> usize {
        self.pass_len()
    }

    fn op(&mut self, i: usize) -> Result<Self::Out, String> {
        let t = i % THRESHOLDS.len();
        let at = self.snapshots[(i / THRESHOLDS.len()) % self.snapshots.len()];
        let cfg = SmfConfig {
            seed: self.seed,
            ..SmfConfig::paper(THRESHOLDS[t])
        };
        crp_telemetry::profile_scope!("core.cluster");
        Ok((t, at, self.service.cluster(&cfg, at)))
    }

    fn check(
        &mut self,
        _i: usize,
        (t, at, clustering): Self::Out,
        record: bool,
        _log: &mut Outcome,
    ) -> Result<(), String> {
        check_disjoint_partition(
            clustering.clusters().iter().map(|c| c.members()),
            self.service.node_count(),
        )?;
        if record {
            let sums = &mut self.sums[t];
            sums.0 += clustering.summary().fraction_clustered();
            sums.1 += tightness(&self.world, &self.nodes, &clustering, at);
            sums.2 += 1;
        }
        Ok(())
    }

    fn restart(&mut self) {
        self.sums = [(0.0, 0.0, 0); 3];
    }

    fn finish(&mut self, log: &mut Outcome) {
        let names = [
            ("clustered_frac_t0.01", "tightness_t0.01"),
            ("clustered_frac_t0.1", "tightness_t0.1"),
            ("clustered_frac_t0.5", "tightness_t0.5"),
        ];
        for ((frac, tight), (f, g, n)) in names.into_iter().zip(self.sums) {
            let n = n as f64;
            log.quality.push((frac, f / n));
            log.quality.push((tight, g / n));
        }
        // At the paper's headline threshold, clusters must group hosts
        // that are closer to each other than hosts paired at random.
        let headline = self.sums[1];
        let tight = headline.1 / headline.2 as f64;
        if tight.is_nan() || tight >= 1.0 {
            log.problem(format!(
                "at t = 0.1 intra-cluster RTT is {tight:.3} of the paired-host RTT"
            ));
        }
    }
}

/// Mean RTT from each clustered node to its cluster center, as a share
/// of the mean RTT between hosts paired across the population.
fn tightness(
    world: &Scenario,
    nodes: &[HostId],
    clustering: &Clustering<HostId>,
    at: SimTime,
) -> f64 {
    let rtt = |a: HostId, b: HostId| world.network().rtt(a, b, at).millis();
    let intra = mean(
        clustering
            .multi_clusters()
            .flat_map(|c| c.members()[1..].iter().map(|&m| rtt(*c.center(), m))),
    );
    let half = nodes.len() / 2;
    let paired = mean(
        nodes[..half]
            .iter()
            .zip(&nodes[half..])
            .map(|(&a, &b)| rtt(a, b)),
    );
    intra / paired
}

// ---------------------------------------------------------------------
// ingest-mixed

/// One probe result: when, which host, which replicas.
type Record = (SimTime, HostId, Vec<ReplicaId>);

/// The 36 h probe stream replayed in arrival order into a fresh service,
/// with one closest-node query after every chunk of records.
struct Ingest {
    world: Scenario,
    stream: Vec<Record>,
    chunk: usize,
    service: Service,
    pending: Vec<Record>,
}

impl Bench for Ingest {
    type Out = (HostId, SimTime, Ranking<HostId>);

    fn setup(world: Scenario, size: &Size, _seed: u64) -> Self {
        let end = SimTime::from_hours(size.campaign_hours);
        let mut stream = Vec::new();
        for host in all_hosts(&world) {
            let mut probe = CdnProbe::new(world.cdn(), host, world.names().to_vec());
            for at in SimTime::ZERO.iter_until(end, PROBE_INTERVAL) {
                let servers = {
                    crp_telemetry::profile_scope!("probe.observe");
                    probe.observe(at)
                };
                if let Some(servers) = servers {
                    stream.push((at, host, servers));
                }
            }
        }
        stream.sort_unstable_by_key(|(at, host, _)| (*at, *host));
        Ingest {
            world,
            stream,
            chunk: size.chunk.max(1),
            service: CrpService::new(SERVICE_WINDOW, SimilarityMetric::Cosine),
            pending: Vec::new(),
        }
    }

    fn world(&self) -> &Scenario {
        &self.world
    }

    fn pass_len(&self) -> usize {
        self.stream.len().div_ceil(self.chunk)
    }

    fn required_ops(&self) -> usize {
        self.pass_len()
    }

    fn prepare(&mut self, i: usize) {
        let k = i % self.pass_len();
        if k == 0 {
            self.service = CrpService::new(SERVICE_WINDOW, SimilarityMetric::Cosine);
        }
        let end = ((k + 1) * self.chunk).min(self.stream.len());
        self.pending.clear();
        self.pending
            .extend_from_slice(&self.stream[k * self.chunk..end]);
    }

    fn op(&mut self, _i: usize) -> Result<Self::Out, String> {
        let mut last = None;
        for (at, host, servers) in self.pending.drain(..) {
            crp_telemetry::profile_scope!("core.record");
            self.service.record(host, at, servers);
            last = Some((host, at));
        }
        let (client, at) = last.ok_or("empty chunk")?;
        let ranking = closest(&self.service, client, self.world.candidates(), at)
            .map_err(|e| format!("{client:?} right after its own record: {e}"))?;
        Ok((client, at, ranking))
    }

    fn check(
        &mut self,
        i: usize,
        (client, at, ranking): Self::Out,
        record: bool,
        log: &mut Outcome,
    ) -> Result<(), String> {
        check_ranking(&ranking, self.world.candidates().len())?;
        if !record
            || !i.is_multiple_of(INGEST_SCORE_EVERY)
            || at < INGEST_SCORE_FROM
            || !ranking.has_signal()
        {
            return Ok(());
        }
        let Some(&top1) = ranking.top() else {
            return Ok(());
        };
        let rank = instant_rank(&self.world, client, at)(top1);
        log.answers.push(Answer {
            client,
            at,
            window: SERVICE_WINDOW,
            top1,
            rank: rank.ok_or("the pick is not a candidate")?,
        });
        Ok(())
    }

    fn finish(&mut self, log: &mut Outcome) {
        let mean_rank = mean(log.answers.iter().map(|a| a.rank as f64));
        log.quality.push(("top1_mean_rank", mean_rank));
        log.quality
            .push(("records_per_pass", self.stream.len() as f64));
        check_mean_rank(log, "ingest", mean_rank, self.world.candidates().len());
    }
}
