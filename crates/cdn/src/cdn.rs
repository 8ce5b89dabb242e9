//! The CDN proper: fleet + customers + the authoritative mapping system.

use crate::customer::Customer;
use crate::deployment::DeploymentSpec;
use crate::mapping::MappingConfig;
use crate::replica::{ReplicaId, ReplicaServer};
use crp_dns::{AuthoritativeServer, DnsResponse, DomainName, RecordData, ResourceRecord, SimIp};
use crp_netsim::{noise, HostId, Network, Region, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Reusable per-thread buffers for the answer path. The authoritative
/// answer is the CDN's per-query hot path: the warm-answer pin in
/// `tests/hot_path_allocs.rs` counts its allocations, and e2e_bench's
/// `cdn.answer.ns_per_call` times it. Routing every intermediate list
/// through these buffers keeps the warm path down to the single
/// allocation the returned `DnsResponse` must own.
#[derive(Default)]
struct AnswerScratch {
    shortlist: Vec<ReplicaId>,
    ranked: Vec<(f64, ReplicaId)>,
    scattered: Vec<(f64, ReplicaId)>,
    remaining: Vec<(f64, ReplicaId)>,
    weights: Vec<f64>,
    picked: Vec<ReplicaId>,
}

thread_local! {
    static SCRATCH: RefCell<AnswerScratch> = RefCell::default();
}

/// Noise-stream tags for the mapping system.
const TAG_MEASURE: u64 = 0x31;
const TAG_PICK: u64 = 0x32;
const TAG_FALLBACK: u64 = 0x33;
const TAG_SUBSET: u64 = 0x34;
const TAG_SCATTER: u64 = 0x35;

/// An outage end meaning "never recovers" — used by event scripts to
/// retire a replica permanently.
pub(crate) const FOREVER: SimTime = SimTime::from_millis(u64::MAX);

/// Aggregate counters describing the load the CDN has served.
#[derive(Clone, Debug, Default)]
pub struct CdnStats {
    /// Authoritative queries answered.
    pub queries_answered: u64,
    /// Queries answered with global fallback servers.
    pub fallback_answers: u64,
    /// Queries from poorly-covered resolvers (scattered answers).
    pub scattered_answers: u64,
}

/// The simulated CDN.
///
/// `Cdn` takes ownership of the [`Network`] at deployment time (the
/// fleet adds its replica hosts, then the host set is frozen) and exposes
/// it read-only via [`Cdn::network`]; experiments use that reference for
/// ground-truth RTT measurements.
pub struct Cdn {
    net: Network,
    cfg: MappingConfig,
    replicas: Vec<ReplicaServer>,
    fallbacks: Vec<ReplicaId>,
    customers: Vec<Customer>,
    by_domain: HashMap<DomainName, usize>,
    edge_zone: DomainName,
    shortlists: RwLock<HashMap<(HostId, u32), Vec<ReplicaId>>>,
    outages: Vec<(ReplicaId, SimTime, SimTime)>,
    // Per-replica activation time: `SimTime::ZERO` for the deployed
    // fleet, `FOREVER` for dormant reserves until an event script
    // activates them.
    active_from: Vec<SimTime>,
    // Dormant reserve pools per region index, consumed by event scripts.
    reserves: Vec<Vec<ReplicaId>>,
    // Scheduled load-balance pool-width changes, in schedule order.
    lb_overrides: Vec<(SimTime, usize)>,
    // Multiplicative measurement penalties (replica, from, until,
    // factor) — the flash-crowd overload model: the mapping system sees
    // the replica as slower and routes around it.
    measure_penalties: Vec<(ReplicaId, SimTime, SimTime, f64)>,
    queries_answered: AtomicU64,
    fallback_answers: AtomicU64,
    scattered_answers: AtomicU64,
    per_replica_answers: Vec<AtomicU64>,
}

impl std::fmt::Debug for Cdn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cdn")
            .field("replicas", &self.replicas.len())
            .field("customers", &self.customers.len())
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Cdn {
    /// Deploys a replica fleet on `net` per `spec` and returns the CDN.
    ///
    /// Regional replicas are placed like well-connected infrastructure
    /// hosts; fallback servers are placed in North America on CDN-owned
    /// addresses, mirroring the distant Akamai-owned answers the paper
    /// describes in §VI.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is internally inconsistent (see
    /// [`MappingConfig::validate`]).
    pub fn deploy(mut net: Network, spec: &DeploymentSpec, cfg: MappingConfig) -> Cdn {
        cfg.validate();
        let mut replicas = Vec::with_capacity(spec.total());
        for (region, count) in spec.per_region() {
            for _ in 0..*count {
                let id = ReplicaId::from_index(replicas.len() as u32);
                let host = net.add_host_with_spread(
                    *region,
                    (0.1, 0.8),
                    format!("replica-{}", replicas.len()),
                    Some(100.0),
                );
                replicas.push(ReplicaServer::new(id, host, false));
            }
        }
        let mut fallbacks = Vec::with_capacity(spec.fallback_count());
        for _ in 0..spec.fallback_count() {
            let id = ReplicaId::from_index(replicas.len() as u32);
            let host = net.add_host_with_spread(
                Region::NorthAmerica,
                (0.1, 0.8),
                format!("fallback-{}", fallbacks.len()),
                Some(100.0),
            );
            replicas.push(ReplicaServer::new(id, host, true));
            fallbacks.push(id);
        }
        let per_replica_answers = (0..replicas.len()).map(|_| AtomicU64::new(0)).collect();
        let active_from = vec![SimTime::ZERO; replicas.len()];
        Cdn {
            net,
            cfg,
            replicas,
            fallbacks,
            customers: Vec::new(),
            by_domain: HashMap::new(),
            #[expect(clippy::expect_used, reason = "the static zone name is a valid domain")]
            edge_zone: "g.akamai-sim.net".parse().expect("static name is valid"),
            shortlists: RwLock::new(HashMap::new()),
            outages: Vec::new(),
            active_from,
            reserves: Region::ALL.iter().map(|_| Vec::new()).collect(),
            lb_overrides: Vec::new(),
            measure_penalties: Vec::new(),
            queries_answered: AtomicU64::new(0),
            fallback_answers: AtomicU64::new(0),
            scattered_answers: AtomicU64::new(0),
            per_replica_answers,
        }
    }

    /// Deploys `count` *dormant* reserve replicas in `region` and parks
    /// them in the region's reserve pool. Reserves join customer
    /// eligibility subsets and shortlists like any edge replica, but
    /// serve no traffic until an event script activates them (regional
    /// pool flips, footprint expansions).
    ///
    /// Must run before customers are registered so eligibility and
    /// shortlists see the full fleet.
    ///
    /// # Panics
    ///
    /// Panics if any customer is already registered.
    pub fn deploy_reserve(&mut self, region: Region, count: usize) -> Vec<ReplicaId> {
        assert!(
            self.customers.is_empty(),
            "reserves must be deployed before customers register"
        );
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = ReplicaId::from_index(self.replicas.len() as u32);
            let host = self.net.add_host_with_spread(
                region,
                (0.1, 0.8),
                format!("replica-{}", self.replicas.len()),
                Some(100.0),
            );
            self.replicas.push(ReplicaServer::new(id, host, false));
            self.active_from.push(FOREVER);
            self.per_replica_answers.push(AtomicU64::new(0));
            ids.push(id);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "one reserve pool per Region, and Region::index is below Region::ALL.len()"
        )]
        self.reserves[region.index() as usize].extend_from_slice(&ids);
        ids
    }

    /// Takes up to `count` dormant reserves from `region`'s pool, in
    /// deployment order.
    pub fn take_reserves(&mut self, region: Region, count: usize) -> Vec<ReplicaId> {
        #[expect(
            clippy::indexing_slicing,
            reason = "one reserve pool per Region, and Region::index is below Region::ALL.len()"
        )]
        let pool = &mut self.reserves[region.index() as usize];
        let n = count.min(pool.len());
        pool.drain(..n).collect()
    }

    /// Dormant reserves remaining in `region`'s pool.
    pub fn reserve_count(&self, region: Region) -> usize {
        #[expect(
            clippy::indexing_slicing,
            reason = "one reserve pool per Region, and Region::index is below Region::ALL.len()"
        )]
        self.reserves[region.index() as usize].len()
    }

    /// Activates a dormant replica: it starts serving at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is unknown or already active.
    pub fn activate_replica(&mut self, replica: ReplicaId, at: SimTime) {
        assert!(replica.index() < self.replicas.len(), "unknown replica");
        #[expect(
            clippy::indexing_slicing,
            reason = "the replica index is asserted in range first; control-plane path"
        )]
        let active_from = &mut self.active_from[replica.index()];
        assert_eq!(
            *active_from, FOREVER,
            "replica {replica:?} is already active"
        );
        *active_from = at;
    }

    /// Retires a replica permanently from `at` on — a pool flip's
    /// outgoing half. Implemented as an outage that never ends.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is not deployed.
    pub fn retire_replica(&mut self, replica: ReplicaId, at: SimTime) {
        self.schedule_outage(replica, at, FOREVER);
    }

    /// Schedules a load-balance pool-width change: answers for
    /// well-covered resolvers rotate among `pool` candidates from `from`
    /// on (until a later override).
    ///
    /// # Panics
    ///
    /// Panics if `pool` is zero.
    pub fn set_load_balance_pool(&mut self, from: SimTime, pool: usize) {
        assert!(pool > 0, "load-balance pool must be non-empty");
        self.lb_overrides.push((from, pool));
    }

    /// Applies a multiplicative penalty to the CDN's internal latency
    /// measurements of `replica` during `[from, until)` — the
    /// flash-crowd model: an overloaded replica measures slower, so the
    /// mapping system shifts traffic off it for the duration.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is unknown, the interval is empty, or
    /// the factor is not positive.
    pub fn add_measurement_penalty(
        &mut self,
        replica: ReplicaId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) {
        assert!(replica.index() < self.replicas.len(), "unknown replica");
        assert!(until > from, "empty penalty interval");
        assert!(
            factor.is_finite() && factor > 0.0,
            "penalty factor must be positive"
        );
        self.measure_penalties.push((replica, from, until, factor));
    }

    /// The load-balance pool width in effect at `t` (the last scheduled
    /// override at or before `t`, else the configured default).
    fn effective_lb_pool(&self, t: SimTime) -> usize {
        self.lb_overrides
            .iter()
            .rfind(|(at, _)| *at <= t)
            .map_or(self.cfg.load_balance_pool, |(_, pool)| *pool)
    }

    /// Non-fallback replicas homed in `region` that are serving at `t`
    /// (activated, not down), in deployment order.
    pub fn serving_region_replicas(&self, region: Region, t: SimTime) -> Vec<ReplicaId> {
        self.replicas
            .iter()
            .filter(|r| !r.is_cdn_owned())
            .filter(|r| self.net.host(r.host()).region() == region)
            .map(ReplicaServer::id)
            .filter(|id| self.replica_is_up(*id, t))
            .collect()
    }

    /// The region a replica is homed in.
    pub fn replica_region(&self, replica: ReplicaId) -> Region {
        #[expect(
            clippy::indexing_slicing,
            reason = "ReplicaIds are only minted by this Cdn, so they are always in range"
        )]
        let host = self.replicas[replica.index()].host();
        self.net.host(host).region()
    }

    /// Registers a customer name served by a deterministic ~70% subset of
    /// the edge fleet, and returns the public [`DomainName`] to query.
    ///
    /// # Errors
    ///
    /// Returns [`crp_dns::ParseNameError`] if `domain` is not a valid
    /// DNS name.
    ///
    /// # Panics
    ///
    /// Panics if the domain is already registered.
    pub fn add_customer(&mut self, domain: &str) -> Result<DomainName, crp_dns::ParseNameError> {
        self.add_customer_with_share(domain, 0.7)
    }

    /// Registers a customer served by a `share` fraction of the edge
    /// fleet (fallbacks excluded; every customer can reach them).
    ///
    /// # Errors
    ///
    /// Returns [`crp_dns::ParseNameError`] if `domain` is not a valid
    /// DNS name.
    ///
    /// # Panics
    ///
    /// Panics if the domain is already registered or `share` is outside
    /// `(0, 1]`.
    pub fn add_customer_with_share(
        &mut self,
        domain: &str,
        share: f64,
    ) -> Result<DomainName, crp_dns::ParseNameError> {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0, 1]");
        let name: DomainName = domain.parse()?;
        assert!(
            !self.by_domain.contains_key(&name),
            "customer already registered: {name}"
        );
        let idx = self.customers.len();
        #[expect(
            clippy::expect_used,
            reason = "a generated edge label is a valid DNS label"
        )]
        let edge_name = self
            .edge_zone
            .prepend(&format!("a{}", 1_000 + idx))
            .expect("edge label is valid");
        let eligible: Vec<ReplicaId> = self
            .replicas
            .iter()
            .filter(|r| !r.is_cdn_owned())
            .map(ReplicaServer::id)
            .filter(|id| {
                noise::uniform(&[self.net.seed(), TAG_SUBSET, idx as u64, id.key()]) < share
            })
            .collect();
        self.customers
            .push(Customer::new(name.clone(), edge_name, eligible));
        self.by_domain.insert(name.clone(), idx);
        Ok(name)
    }

    /// Schedules an outage: `replica` serves no traffic during
    /// `[from, until)`. The mapping system routes around down replicas,
    /// so clients observing redirections simply see their maps shift —
    /// the failure-injection hook used by robustness tests.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is not deployed or the interval is
    /// empty.
    pub fn schedule_outage(&mut self, replica: ReplicaId, from: SimTime, until: SimTime) {
        assert!(replica.index() < self.replicas.len(), "unknown replica");
        assert!(until > from, "empty outage interval");
        self.outages.push((replica, from, until));
    }

    /// Whether `replica` is serving at time `t`: activated (dormant
    /// reserves are not), and not inside a scheduled outage.
    pub fn replica_is_up(&self, replica: ReplicaId, t: SimTime) -> bool {
        #[expect(
            clippy::indexing_slicing,
            reason = "ReplicaIds are only minted by this Cdn, so they are always in range"
        )]
        let active_from = self.active_from[replica.index()];
        t >= active_from
            && !self
                .outages
                .iter()
                .any(|(r, from, until)| *r == replica && t >= *from && t < *until)
    }

    /// The network the CDN (and everything else) runs on.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The mapping configuration in effect.
    pub fn config(&self) -> &MappingConfig {
        &self.cfg
    }

    /// All deployed replicas, including fallbacks.
    pub fn replicas(&self) -> &[ReplicaServer] {
        &self.replicas
    }

    /// Registered customers.
    pub fn customers(&self) -> &[Customer] {
        &self.customers
    }

    /// Looks up the replica answering from `ip`, if any.
    pub fn replica_by_ip(&self, ip: SimIp) -> Option<&ReplicaServer> {
        ReplicaId::from_ip(ip).and_then(|id| self.replicas.get(id.index()))
    }

    /// Whether `ip` belongs to the CDN's own address block — the
    /// simulation analogue of the whois check behind the paper's §VI
    /// name-filtering rule.
    pub fn ip_is_cdn_owned(&self, ip: SimIp) -> bool {
        self.replica_by_ip(ip)
            .is_some_and(ReplicaServer::is_cdn_owned)
    }

    /// Load counters accumulated so far.
    pub fn stats(&self) -> CdnStats {
        CdnStats {
            queries_answered: self.queries_answered.load(Ordering::Relaxed),
            fallback_answers: self.fallback_answers.load(Ordering::Relaxed),
            scattered_answers: self.scattered_answers.load(Ordering::Relaxed),
        }
    }

    /// Answers served by each replica, indexed by replica id.
    pub fn per_replica_answers(&self) -> Vec<u64> {
        self.per_replica_answers
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Answers served per region — how CRP's probing load distributes
    /// over the fleet (the commensalism analysis of §VI).
    pub fn answers_by_region(&self) -> Vec<(Region, u64)> {
        let mut out: Vec<(Region, u64)> = Region::ALL.iter().map(|r| (*r, 0)).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "out holds one entry per Region::ALL, and Region::index is a position in it"
        )]
        for (replica, count) in self.replicas.iter().zip(&self.per_replica_answers) {
            let region = self.net.host(replica.host()).region();
            out[region.index() as usize].1 += count.load(Ordering::Relaxed);
        }
        out
    }

    /// The CDN's internal latency measurement of `replica` as seen from
    /// `resolver` during the mapping epoch containing `t`: the true RTT
    /// at the epoch start, perturbed by measurement noise.
    fn measured_ms(&self, resolver: HostId, replica: ReplicaId, t: SimTime) -> f64 {
        let epoch = t.as_millis() / self.cfg.mapping_epoch_ms;
        let epoch_start = SimTime::from_millis(epoch * self.cfg.mapping_epoch_ms);
        #[expect(
            clippy::indexing_slicing,
            reason = "ReplicaIds are only minted by this Cdn, so they are always in range"
        )]
        let truth = self
            .net
            .rtt(resolver, self.replicas[replica.index()].host(), epoch_start)
            .millis();
        let eps = noise::gaussian(&[
            self.net.seed(),
            TAG_MEASURE,
            resolver.key(),
            replica.key(),
            epoch,
        ]) * self.cfg.measurement_noise_sigma;
        let mut load = 1.0;
        for (r, from, until, factor) in &self.measure_penalties {
            if *r == replica && t >= *from && t < *until {
                load *= factor;
            }
        }
        truth * load * (1.0 + eps).max(0.1)
    }

    /// The static shortlist of candidate replicas for `(resolver,
    /// customer)`: the `shortlist_size` nearest eligible replicas by
    /// baseline RTT. Computed once and memoized; the warm path copies
    /// the memoized list into `out` instead of cloning a fresh `Vec`.
    fn shortlist_into(&self, resolver: HostId, customer_idx: usize, out: &mut Vec<ReplicaId>) {
        let key = (resolver, customer_idx as u32);
        out.clear();
        {
            let shortlists = self
                .shortlists
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(hit) = shortlists.get(&key) {
                out.extend_from_slice(hit);
                return;
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "customer indices come from by_domain"
        )]
        let customer = &self.customers[customer_idx];
        #[expect(
            clippy::indexing_slicing,
            reason = "ReplicaIds are only minted by this Cdn, so they are always in range"
        )]
        let mut scored: Vec<(f64, ReplicaId)> = customer
            .eligible()
            .iter()
            .map(|id| {
                let host = self.replicas[id.index()].host();
                (self.net.baseline_rtt(resolver, host).millis(), *id)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.truncate(self.cfg.shortlist_size);
        let list: Vec<ReplicaId> = scored.into_iter().map(|(_, id)| id).collect();
        out.extend_from_slice(&list);
        self.shortlists
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, list);
    }

    /// Picks `count` distinct replicas from `pool` with weights that
    /// favor lower measured latency (softmax over -rtt). Results land in
    /// `picked`; `remaining` and `weights` are caller-owned scratch so
    /// the warm path allocates nothing.
    #[expect(
        clippy::too_many_arguments,
        reason = "the caller-owned scratch buffers keep the warm answer path allocation-free"
    )]
    fn weighted_pick_into(
        &self,
        pool: &[(f64, ReplicaId)],
        count: usize,
        resolver: HostId,
        t: SimTime,
        remaining: &mut Vec<(f64, ReplicaId)>,
        weights: &mut Vec<f64>,
        picked: &mut Vec<ReplicaId>,
    ) {
        remaining.clear();
        remaining.extend_from_slice(pool);
        picked.clear();
        let temp = 2.0; // ms scale over which preference decays
        for draw in 0..count.min(pool.len()) {
            let best = remaining
                .iter()
                .map(|(ms, _)| *ms)
                .fold(f64::INFINITY, f64::min);
            // Floor guards exp() underflow for extreme RTT spreads, so
            // every candidate keeps a nonzero (if negligible) weight.
            weights.clear();
            weights.extend(
                remaining
                    .iter()
                    .map(|(ms, _)| (-(ms - best) / temp).exp().max(1e-300)),
            );
            let total: f64 = weights.iter().sum();
            crp_core::debug_invariant!(
                crp_core::invariant::check_ratio_distribution(
                    weights.iter().map(|w| w / total).collect::<Vec<_>>().iter()
                ),
                "Cdn::weighted_pick softmax weights ({} candidates)",
                remaining.len()
            );
            let mut u = noise::uniform(&[
                self.net.seed(),
                TAG_PICK,
                resolver.key(),
                t.as_millis(),
                draw as u64,
            ]) * total;
            let mut chosen = remaining.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    chosen = i;
                    break;
                }
                u -= w;
            }
            picked.push(remaining.swap_remove(chosen).1);
        }
    }

    fn answer_records(&self, customer: &Customer, picked: &[ReplicaId]) -> Vec<ResourceRecord> {
        let mut records = Vec::with_capacity(picked.len() + 1);
        records.push(ResourceRecord::new(
            customer.domain().clone(),
            SimDuration::from_secs(self.cfg.cname_ttl_secs),
            RecordData::Cname(customer.edge_name().clone()),
        ));
        for id in picked {
            records.push(ResourceRecord::new(
                customer.edge_name().clone(),
                SimDuration::from_secs(self.cfg.answer_ttl_secs),
                RecordData::A(id.ip()),
            ));
        }
        records
    }
}

impl AuthoritativeServer for Cdn {
    /// Redirects `resolver` for `query` at time `now`.
    ///
    /// Well-covered resolvers (best candidate within the coverage radius)
    /// get answers rotated among the `load_balance_pool` best candidates
    /// of their shortlist, ranked by the CDN's epoch measurements.
    /// Poorly-covered resolvers get either a global fallback server
    /// (CDN-owned address) or an answer scattered across a much wider
    /// pool — reproducing the behavior the paper observed for clients in
    /// regions Akamai served badly.
    fn authoritative_answer(
        &self,
        query: &DomainName,
        resolver: HostId,
        now: SimTime,
    ) -> Option<DnsResponse> {
        crp_telemetry::stage!(CDN_AUTHORITATIVE_ANSWER, now.as_millis());
        let customer_idx = *self.by_domain.get(query)?;
        #[expect(
            clippy::indexing_slicing,
            reason = "customer indices come from by_domain"
        )]
        let customer = &self.customers[customer_idx];
        self.queries_answered.fetch_add(1, Ordering::Relaxed);
        // The redirection event is where a causal trace is born: the id
        // is a pure function of the deterministic inputs, so the same
        // seeded run mints the same ids.
        if crp_telemetry::trace::enabled() {
            let id = crp_telemetry::trace::mint(&[
                self.net.seed(),
                resolver.key(),
                now.as_millis(),
                customer_idx as u64,
            ]);
            crp_telemetry::trace::begin(
                id,
                now.as_millis(),
                crp_telemetry::stage::CDN_AUTHORITATIVE_ANSWER.name,
            );
        }

        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let AnswerScratch {
                shortlist,
                ranked,
                scattered,
                remaining,
                weights,
                picked,
            } = scratch;

            self.shortlist_into(resolver, customer_idx, shortlist);
            ranked.clear();
            ranked.extend(
                shortlist
                    .iter()
                    .filter(|id| self.replica_is_up(**id, now))
                    .map(|id| (self.measured_ms(resolver, *id, now), *id)),
            );
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));

            let well_covered = ranked
                .first()
                .is_some_and(|(ms, _)| *ms <= self.cfg.coverage_radius_ms);
            if let Some((best_ms, _)) = ranked.first() {
                crp_telemetry::observe_at(now.as_millis(), "cdn.best_candidate_ms", *best_ms);
            }

            if well_covered {
                crp_telemetry::counter_add_at(now.as_millis(), "cdn.answers.load_balanced", 1);
                #[expect(clippy::indexing_slicing, reason = "the width is clamped to ranked")]
                let pool = &ranked[..ranked.len().min(self.effective_lb_pool(now))];
                self.weighted_pick_into(
                    pool,
                    self.cfg.answers_per_response,
                    resolver,
                    now,
                    remaining,
                    weights,
                    picked,
                );
            } else {
                let fallback_draw = noise::uniform(&[
                    self.net.seed(),
                    TAG_FALLBACK,
                    resolver.key(),
                    now.as_millis(),
                ]);
                if fallback_draw < self.cfg.fallback_probability && !self.fallbacks.is_empty() {
                    self.fallback_answers.fetch_add(1, Ordering::Relaxed);
                    crp_telemetry::counter_add_at(now.as_millis(), "cdn.answers.fallback", 1);
                    scattered.clear();
                    scattered.extend(
                        self.fallbacks
                            .iter()
                            .filter(|id| self.replica_is_up(**id, now))
                            .map(|id| (self.measured_ms(resolver, *id, now), *id)),
                    );
                    self.weighted_pick_into(
                        scattered,
                        self.cfg.answers_per_response,
                        resolver,
                        now,
                        remaining,
                        weights,
                        picked,
                    );
                } else {
                    self.scattered_answers.fetch_add(1, Ordering::Relaxed);
                    crp_telemetry::counter_add_at(now.as_millis(), "cdn.answers.scattered", 1);
                    // The CDN cannot localize this resolver: re-rank the
                    // shortlist under heavy measurement noise so answers
                    // scatter far and wide, epoch to epoch.
                    let epoch = now.as_millis() / self.cfg.mapping_epoch_ms;
                    scattered.clear();
                    scattered.extend(ranked.iter().map(|(ms, id)| {
                        let u = noise::uniform(&[
                            self.net.seed(),
                            TAG_SCATTER,
                            resolver.key(),
                            id.key(),
                            epoch,
                        ]);
                        (ms * (1.0 + self.cfg.scatter_noise * u), *id)
                    }));
                    scattered.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let width = self
                        .effective_lb_pool(now)
                        .saturating_mul(self.cfg.scatter_factor)
                        .min(scattered.len());
                    #[expect(clippy::indexing_slicing, reason = "width is clamped to scattered")]
                    self.weighted_pick_into(
                        &scattered[..width],
                        self.cfg.answers_per_response,
                        resolver,
                        now,
                        remaining,
                        weights,
                        picked,
                    );
                }
            }

            if picked.is_empty() {
                return None;
            }
            for id in picked.iter() {
                #[expect(clippy::indexing_slicing, reason = "ReplicaIds are minted by this Cdn")]
                self.per_replica_answers[id.index()].fetch_add(1, Ordering::Relaxed);
            }
            Some(DnsResponse::new(
                query.clone(),
                self.answer_records(customer, picked),
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netsim::{NetworkBuilder, PopulationSpec};

    fn build_cdn(seed: u64) -> (Cdn, Vec<HostId>, DomainName) {
        let mut net = NetworkBuilder::new(seed)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let clients = net.add_population(&PopulationSpec::dns_servers(8));
        let mut cdn = Cdn::deploy(
            net,
            &DeploymentSpec::akamai_like(0.4),
            MappingConfig::default(),
        );
        let name = cdn.add_customer("us.i1.yimg.com").unwrap();
        (cdn, clients, name)
    }

    #[test]
    fn deploy_counts_match_spec() {
        let spec = DeploymentSpec::akamai_like(0.4);
        let (cdn, _, _) = build_cdn(1);
        assert_eq!(cdn.replicas().len(), spec.total());
        let owned = cdn.replicas().iter().filter(|r| r.is_cdn_owned()).count();
        assert_eq!(owned, spec.fallback_count());
    }

    #[test]
    fn answers_have_cname_chain_and_a_records() {
        let (cdn, clients, name) = build_cdn(2);
        let resp = cdn
            .authoritative_answer(&name, clients[0], SimTime::ZERO)
            .expect("registered name resolves");
        let ips = resp.a_addresses();
        assert_eq!(ips.len(), cdn.config().answers_per_response);
        assert_eq!(resp.min_ttl(), SimDuration::from_secs(20));
        assert!(resp.records().len() > ips.len(), "missing CNAME record");
        for ip in ips {
            assert!(cdn.replica_by_ip(ip).is_some());
        }
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let (cdn, clients, _) = build_cdn(3);
        let other: DomainName = "unknown.example.org".parse().unwrap();
        assert!(cdn
            .authoritative_answer(&other, clients[0], SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn redirections_favor_nearby_replicas() {
        let (cdn, clients, name) = build_cdn(4);
        let net = cdn.network();
        for &client in &clients {
            // Collect answers over a few epochs.
            let mut seen_ms = Vec::new();
            for i in 0..20u64 {
                let t = SimTime::from_mins(i * 2);
                if let Some(resp) = cdn.authoritative_answer(&name, client, t) {
                    for ip in resp.a_addresses() {
                        let replica = cdn.replica_by_ip(ip).unwrap();
                        seen_ms.push(net.baseline_rtt(client, replica.host()).millis());
                    }
                }
            }
            let mean_seen = seen_ms.iter().sum::<f64>() / seen_ms.len() as f64;
            // Mean RTT to a random replica, for contrast.
            let mean_all: f64 = cdn
                .replicas()
                .iter()
                .map(|r| net.baseline_rtt(client, r.host()).millis())
                .sum::<f64>()
                / cdn.replicas().len() as f64;
            assert!(
                mean_seen < mean_all,
                "client {client}: redirected mean {mean_seen:.1} not better than random {mean_all:.1}"
            );
        }
    }

    #[test]
    fn load_balancing_rotates_answers() {
        let (cdn, clients, name) = build_cdn(5);
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..40u64 {
            let t = SimTime::from_secs(i * 25);
            if let Some(resp) = cdn.authoritative_answer(&name, clients[0], t) {
                distinct.extend(resp.a_addresses());
            }
        }
        assert!(
            distinct.len() >= 3,
            "expected rotation among candidates, saw {}",
            distinct.len()
        );
    }

    #[test]
    fn answers_do_not_depend_on_query_history() {
        // A CDN warmed by 30 mapping epochs of queries from every client
        // answers exactly like a fresh one: the only state answers build
        // up (the shortlist memo) is a pure function of its key.
        let (warm, clients, name) = build_cdn(8);
        for i in 0..30u64 {
            let t = SimTime::from_mins(i * 2);
            for &client in &clients {
                let _ = warm.authoritative_answer(&name, client, t);
            }
        }
        let (fresh, clients_b, name_b) = build_cdn(8);
        for i in 0..30u64 {
            let t = SimTime::from_mins(i * 2);
            for (&a, &b) in clients.iter().zip(&clients_b) {
                let ra = warm.authoritative_answer(&name, a, t);
                let rb = fresh.authoritative_answer(&name_b, b, t);
                assert_eq!(ra.map(|r| r.a_addresses()), rb.map(|r| r.a_addresses()));
            }
        }
    }

    #[test]
    fn answers_are_deterministic() {
        let (cdn_a, clients_a, name_a) = build_cdn(6);
        let (cdn_b, clients_b, name_b) = build_cdn(6);
        for i in 0..10u64 {
            let t = SimTime::from_mins(i * 7);
            let ra = cdn_a.authoritative_answer(&name_a, clients_a[2], t);
            let rb = cdn_b.authoritative_answer(&name_b, clients_b[2], t);
            assert_eq!(ra.map(|r| r.a_addresses()), rb.map(|r| r.a_addresses()));
        }
    }

    #[test]
    fn two_customers_use_different_subsets() {
        let (mut cdn, _, _) = build_cdn(7);
        let fox = cdn.add_customer("www.foxnews.com").unwrap();
        assert_ne!(fox, cdn.customers()[0].domain().clone());
        let a = cdn.customers()[0].eligible().to_vec();
        let b = cdn.customers()[1].eligible().to_vec();
        assert_ne!(a, b, "independent subsets expected");
        assert!(cdn.customers()[1]
            .edge_name()
            .to_string()
            .starts_with("a1001."));
    }

    #[test]
    fn duplicate_customer_panics() {
        let (mut cdn, _, _) = build_cdn(8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cdn.add_customer("us.i1.yimg.com");
        }));
        assert!(r.is_err());
    }

    #[test]
    fn stats_count_queries() {
        let (cdn, clients, name) = build_cdn(9);
        for _ in 0..5 {
            let _ = cdn.authoritative_answer(&name, clients[1], SimTime::ZERO);
        }
        assert_eq!(cdn.stats().queries_answered, 5);
        let per: u64 = cdn.per_replica_answers().iter().sum();
        assert_eq!(per, 5 * cdn.config().answers_per_response as u64);
    }

    #[test]
    fn cdn_owned_detection() {
        let (cdn, _, _) = build_cdn(10);
        let fallback = cdn
            .replicas()
            .iter()
            .find(|r| r.is_cdn_owned())
            .expect("fallbacks deployed");
        assert!(cdn.ip_is_cdn_owned(fallback.ip()));
        let edge = cdn
            .replicas()
            .iter()
            .find(|r| !r.is_cdn_owned())
            .expect("edge replicas deployed");
        assert!(!cdn.ip_is_cdn_owned(edge.ip()));
        assert!(!cdn.ip_is_cdn_owned(SimIp::from_index(3)));
    }

    #[test]
    fn outages_divert_traffic_and_expire() {
        let (mut cdn, clients, name) = build_cdn(20);
        // Find the replica the client is currently served by.
        let t0 = SimTime::ZERO;
        let first = cdn
            .authoritative_answer(&name, clients[0], t0)
            .expect("answered")
            .a_addresses();
        let victim = ReplicaId::from_ip(first[0]).expect("replica ip");
        cdn.schedule_outage(victim, SimTime::ZERO, SimTime::from_hours(1));
        assert!(!cdn.replica_is_up(victim, SimTime::from_mins(30)));
        assert!(cdn.replica_is_up(victim, SimTime::from_hours(2)));
        // During the outage, the victim never appears in answers.
        for i in 0..20u64 {
            let t = SimTime::from_mins(i * 3);
            if let Some(resp) = cdn.authoritative_answer(&name, clients[0], t) {
                assert!(
                    !resp.a_addresses().contains(&victim.ip()),
                    "down replica served at {t}"
                );
            }
        }
        // After the outage it may serve again (and does, for its metro).
        let after: Vec<_> = (0..40u64)
            .filter_map(|i| {
                cdn.authoritative_answer(&name, clients[0], SimTime::from_mins(60 + i * 3))
            })
            .flat_map(|r| r.a_addresses())
            .collect();
        assert!(after.contains(&victim.ip()), "replica never returned");
    }

    #[test]
    #[should_panic(expected = "empty outage interval")]
    fn outage_interval_validated() {
        let (mut cdn, _, _) = build_cdn(21);
        let id = cdn.replicas()[0].id();
        cdn.schedule_outage(id, SimTime::from_mins(5), SimTime::from_mins(5));
    }

    #[test]
    fn reserves_are_dormant_until_activated() {
        let mut net = NetworkBuilder::new(30)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let clients = net.add_population(&PopulationSpec::dns_servers(4));
        let mut cdn = Cdn::deploy(
            net,
            &DeploymentSpec::akamai_like(0.2),
            MappingConfig::default(),
        );
        let ids = cdn.deploy_reserve(Region::Europe, 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(cdn.reserve_count(Region::Europe), 3);
        let name = cdn.add_customer("us.i1.yimg.com").unwrap();
        // Dormant: never up, never in answers.
        for &id in &ids {
            assert!(!cdn.replica_is_up(id, SimTime::from_hours(5)));
            assert_eq!(cdn.replica_region(id), Region::Europe);
        }
        let taken = cdn.take_reserves(Region::Europe, 2);
        assert_eq!(taken, ids[..2].to_vec());
        assert_eq!(cdn.reserve_count(Region::Europe), 1);
        let wake = SimTime::from_hours(2);
        for &id in &taken {
            cdn.activate_replica(id, wake);
            assert!(!cdn.replica_is_up(id, SimTime::from_hours(1)));
            assert!(cdn.replica_is_up(id, SimTime::from_hours(3)));
        }
        // Activated reserves can serve; dormant ones never appear.
        let dormant = ids[2];
        for i in 0..30u64 {
            if let Some(resp) = cdn.authoritative_answer(&name, clients[0], SimTime::from_mins(i)) {
                assert!(!resp.a_addresses().contains(&dormant.ip()));
            }
        }
    }

    #[test]
    fn reserves_after_customers_panic() {
        let (mut cdn, _, _) = build_cdn(31);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cdn.deploy_reserve(Region::Europe, 1);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn lb_pool_override_widens_rotation() {
        let (mut cdn, clients, name) = build_cdn(32);
        let change_at = SimTime::from_hours(2);
        cdn.set_load_balance_pool(change_at, 6);
        assert_eq!(cdn.effective_lb_pool(SimTime::from_hours(1)), 2);
        assert_eq!(cdn.effective_lb_pool(SimTime::from_hours(3)), 6);
        let distinct_in = |cdn: &Cdn, base: SimTime| {
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..60u64 {
                let t = base + SimDuration::from_secs(i * 30);
                if let Some(resp) = cdn.authoritative_answer(&name, clients[0], t) {
                    seen.extend(resp.a_addresses());
                }
            }
            seen.len()
        };
        let before = distinct_in(&cdn, SimTime::ZERO);
        let after = distinct_in(&cdn, SimTime::from_hours(3));
        assert!(
            after > before,
            "wider pool should rotate more replicas: before={before} after={after}"
        );
    }

    #[test]
    fn measurement_penalty_routes_around_replica() {
        let (mut cdn, clients, name) = build_cdn(33);
        let first = cdn
            .authoritative_answer(&name, clients[0], SimTime::ZERO)
            .expect("answered")
            .a_addresses();
        let victim = ReplicaId::from_ip(first[0]).expect("replica ip");
        cdn.add_measurement_penalty(victim, SimTime::from_hours(1), SimTime::from_hours(2), 50.0);
        // During the penalty the victim measures 50x slower, so the
        // load balancer stops handing it out.
        for i in 0..20u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_mins(i * 3);
            if let Some(resp) = cdn.authoritative_answer(&name, clients[0], t) {
                assert!(
                    !resp.a_addresses().contains(&victim.ip()),
                    "overloaded replica still served at {t}"
                );
            }
        }
        // After it subsides (same route epoch, so the baseline ranking
        // still holds) the replica serves again.
        let after: Vec<_> = (0..40u64)
            .filter_map(|i| {
                let t = SimTime::from_hours(2) + SimDuration::from_mins(i * 3);
                cdn.authoritative_answer(&name, clients[0], t)
            })
            .flat_map(|r| r.a_addresses())
            .collect();
        assert!(after.contains(&victim.ip()), "replica never recovered");
    }

    #[test]
    fn poorly_covered_clients_get_fallbacks_or_scatter() {
        // Deploy only in North America so other regions are badly served.
        let mut net = NetworkBuilder::new(11)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let far = net.add_population(&PopulationSpec::single_region(
            crp_netsim::HostProfile::DnsServer,
            4,
            Region::Africa,
        ));
        let spec = DeploymentSpec::custom(vec![(Region::NorthAmerica, 20)], 4);
        let mut cdn = Cdn::deploy(net, &spec, MappingConfig::default());
        let name = cdn.add_customer("us.i1.yimg.com").unwrap();
        for &client in &far {
            for i in 0..10u64 {
                let _ = cdn.authoritative_answer(&name, client, SimTime::from_mins(i * 3));
            }
        }
        let stats = cdn.stats();
        assert!(
            stats.fallback_answers + stats.scattered_answers > 0,
            "distant clients should trigger the coverage path: {stats:?}"
        );
    }
}
