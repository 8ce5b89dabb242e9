//! Scripted CDN infrastructure events and their ground-truth log.
//!
//! The paper reads CDN redirections as a passive lens on infrastructure;
//! YouLighter-style change detection needs that infrastructure to
//! actually *change*. An [`EventScript`] is a SimTime-ordered timeline of
//! the event kinds worth detecting — regional replica-pool flips,
//! datacenter outages and recoveries, load-balancer policy changes,
//! flash crowds, and gradual footprint expansion — applied to a [`Cdn`]
//! before a campaign runs. Applying a script emits a ground-truth
//! [`EventLog`] (when, where, which replicas) that the change-detection
//! evaluation matches detections against.
//!
//! Everything here is deterministic: victim replicas are chosen in
//! deployment order, reserves are consumed in deployment order, and the
//! log is sorted by event time.

use crate::cdn::Cdn;
use crate::replica::ReplicaId;
use crp_netsim::{Region, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The taxonomy of scripted infrastructure events. Recovery is its own
/// class: an outage ending re-maps clients a second time, and the
/// detector should account for both shifts.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventClass {
    /// A fraction of a region's pool is retired and replaced by fresh
    /// reserves.
    RegionalPoolFlip,
    /// A fraction of a region's pool goes dark for a bounded interval.
    DatacenterOutage,
    /// The outage ends; the dark replicas serve again.
    DatacenterRecovery,
    /// The global load-balance pool width changes.
    LoadBalancerPolicyChange,
    /// A fraction of a region's pool is overloaded for a bounded
    /// interval, measuring slower and shedding traffic.
    FlashCrowd,
    /// Fresh reserves come online in a region, in staggered batches.
    FootprintExpansion,
}

impl EventClass {
    /// All classes, for iteration in reports.
    pub const ALL: [EventClass; 6] = [
        EventClass::RegionalPoolFlip,
        EventClass::DatacenterOutage,
        EventClass::DatacenterRecovery,
        EventClass::LoadBalancerPolicyChange,
        EventClass::FlashCrowd,
        EventClass::FootprintExpansion,
    ];

    /// Stable lowercase label used in artifacts and tables.
    pub fn label(self) -> &'static str {
        match self {
            EventClass::RegionalPoolFlip => "regional_pool_flip",
            EventClass::DatacenterOutage => "datacenter_outage",
            EventClass::DatacenterRecovery => "datacenter_recovery",
            EventClass::LoadBalancerPolicyChange => "load_balancer_policy_change",
            EventClass::FlashCrowd => "flash_crowd",
            EventClass::FootprintExpansion => "footprint_expansion",
        }
    }
}

/// What a scripted event does, with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Retire `fraction` of the region's serving pool and activate up to
    /// as many reserves in its place.
    RegionalPoolFlip {
        /// Region whose pool flips.
        region: Region,
        /// Fraction of the serving pool retired (0, 1].
        fraction: f64,
    },
    /// Take `fraction` of the region's serving pool down for
    /// `duration`; a recovery record is logged when it ends.
    DatacenterOutage {
        /// Region that goes dark.
        region: Region,
        /// Fraction of the serving pool affected (0, 1].
        fraction: f64,
        /// How long the outage lasts.
        duration: SimDuration,
    },
    /// Change the global load-balance pool width.
    LoadBalancerPolicyChange {
        /// New pool width.
        pool: usize,
    },
    /// Overload `fraction` of the region's serving pool by `factor` for
    /// `duration` — measurements inflate, traffic shifts away, then
    /// returns.
    FlashCrowd {
        /// Region under the flash crowd.
        region: Region,
        /// Fraction of the serving pool overloaded (0, 1].
        fraction: f64,
        /// Multiplicative measurement inflation (> 1 to overload).
        factor: f64,
        /// How long the overload lasts.
        duration: SimDuration,
    },
    /// Activate `replicas` reserves in `batches` staggered batches.
    FootprintExpansion {
        /// Region being built out.
        region: Region,
        /// Total reserves to activate.
        replicas: usize,
        /// Number of activation batches (>= 1).
        batches: usize,
        /// Spacing between batches.
        stagger: SimDuration,
    },
}

/// One scheduled event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventSpec {
    /// When the event fires.
    pub at: SimTime,
    /// What happens.
    pub kind: EventKind,
}

/// A ground-truth record of one applied event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// When the event took effect (SimTime ms).
    pub at_ms: u64,
    /// When its direct effect ended (equals `at_ms` for instantaneous
    /// events; outage end, flash-crowd end, last expansion batch
    /// otherwise).
    pub until_ms: u64,
    /// Event class.
    pub class: EventClass,
    /// Region slug, or `"global"` for region-less events.
    pub region: String,
    /// Replica ids affected (empty for policy changes).
    pub replicas: Vec<u64>,
    /// Human-readable parameters.
    pub detail: String,
}

/// The ground-truth log of an applied script, sorted by `at_ms`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    /// Applied-event records in time order.
    pub records: Vec<EventRecord>,
}

impl EventLog {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one class.
    pub fn of_class(&self, class: EventClass) -> impl Iterator<Item = &EventRecord> {
        self.records.iter().filter(move |r| r.class == class)
    }
}

/// A SimTime-ordered script of infrastructure events plus the reserve
/// pools they consume.
///
/// Usage is two-phase, mirroring CDN construction: [`stage`] deploys the
/// dormant reserve pools (before customers register, so eligibility and
/// shortlists cover them), then [`apply`] fires every event into the
/// [`Cdn`] and returns the ground-truth [`EventLog`].
///
/// [`stage`]: EventScript::stage
/// [`apply`]: EventScript::apply
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventScript {
    events: Vec<EventSpec>,
    reserves: Vec<(Region, usize)>,
}

impl EventScript {
    /// An empty script.
    pub fn new() -> Self {
        EventScript::default()
    }

    /// Adds a dormant reserve pool for `region` (builder style).
    #[must_use]
    pub fn with_reserve(mut self, region: Region, count: usize) -> Self {
        self.reserves.push((region, count));
        self
    }

    /// Schedules `kind` at `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, kind: EventKind) -> Self {
        self.events.push(EventSpec { at, kind });
        self
    }

    /// The scheduled events, in schedule order.
    pub fn events(&self) -> &[EventSpec] {
        &self.events
    }

    /// The reserve pools the script will stage.
    pub fn reserves(&self) -> &[(Region, usize)] {
        &self.reserves
    }

    /// Whether the script schedules nothing and stages nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.reserves.is_empty()
    }

    /// The default change-detection suite: one event of every class,
    /// spread over `horizon` with enough quiet time between events for a
    /// detector to see each one in isolation. Event magnitudes are
    /// fractions of the (scale-dependent) serving pools, so the suite
    /// works at any deployment scale.
    pub fn standard_suite(horizon: SimTime) -> Self {
        let ms = horizon.as_millis();
        let frac = |num: u64, den: u64| SimTime::from_millis(ms * num / den);
        let dur = |num: u64, den: u64| SimDuration::from_millis(ms * num / den);
        EventScript::new()
            .with_reserve(Region::Europe, 24)
            .with_reserve(Region::Oceania, 8)
            .at(
                frac(1, 4),
                EventKind::RegionalPoolFlip {
                    region: Region::Europe,
                    fraction: 0.5,
                },
            )
            .at(
                frac(3, 8),
                EventKind::DatacenterOutage {
                    region: Region::NorthAmerica,
                    fraction: 0.6,
                    duration: dur(1, 12),
                },
            )
            .at(
                frac(9, 16),
                EventKind::LoadBalancerPolicyChange { pool: 12 },
            )
            .at(
                frac(11, 16),
                EventKind::FlashCrowd {
                    region: Region::EastAsia,
                    fraction: 0.6,
                    factor: 4.0,
                    duration: dur(1, 8),
                },
            )
            .at(
                frac(13, 16),
                EventKind::FootprintExpansion {
                    region: Region::Oceania,
                    replicas: 8,
                    batches: 2,
                    stagger: dur(1, 48),
                },
            )
    }

    /// Deploys the script's dormant reserve pools into `cdn`.
    ///
    /// # Panics
    ///
    /// Panics if customers are already registered (see
    /// [`Cdn::deploy_reserve`]).
    pub fn stage(&self, cdn: &mut Cdn) {
        for (region, count) in &self.reserves {
            let _ = cdn.deploy_reserve(*region, *count);
        }
    }

    /// Fires every scheduled event into `cdn`, in time order, and
    /// returns the ground-truth log. Requires [`stage`] to have run if
    /// the script uses reserves.
    ///
    /// [`stage`]: EventScript::stage
    ///
    /// # Panics
    ///
    /// Panics if an event's parameters are out of range (fractions
    /// outside `(0, 1]`, zero batches) or a region has no serving
    /// replicas to affect.
    pub fn apply(&self, cdn: &mut Cdn) -> EventLog {
        let mut ordered: Vec<&EventSpec> = self.events.iter().collect();
        ordered.sort_by_key(|e| e.at);
        let mut records = Vec::new();
        for spec in ordered {
            apply_event(cdn, spec, &mut records);
            if crp_telemetry::trace::enabled() {
                // Every applied event mints a causal trace so the change
                // a detector later flags can be walked back to the
                // scripted cause. Deterministic id: seed + fire time.
                let id =
                    crp_telemetry::trace::mint(&[cdn.network().seed(), 0x45, spec.at.as_millis()]);
                crp_telemetry::trace::begin(id, spec.at.as_millis(), "cdn.event");
            }
            crp_telemetry::counter_add_at(spec.at.as_millis(), "cdn.events.applied", 1);
        }
        records.sort_by_key(|r: &EventRecord| (r.at_ms, r.class));
        EventLog { records }
    }
}

/// Deterministically selects the first `fraction` of the region's
/// serving pool (deployment order) as event victims.
fn victims(cdn: &Cdn, region: Region, at: SimTime, fraction: f64) -> Vec<ReplicaId> {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "event fraction must be in (0, 1]"
    );
    let pool = cdn.serving_region_replicas(region, at);
    assert!(
        !pool.is_empty(),
        "no serving replicas in {region} at {at} to affect"
    );
    let n = ((pool.len() as f64 * fraction).round() as usize).clamp(1, pool.len());
    #[expect(
        clippy::indexing_slicing,
        reason = "n is clamped to pool.len() on the line above"
    )]
    pool[..n].to_vec()
}

fn ids(replicas: &[ReplicaId]) -> Vec<u64> {
    replicas.iter().map(|r| r.index() as u64).collect()
}

fn apply_event(cdn: &mut Cdn, spec: &EventSpec, records: &mut Vec<EventRecord>) {
    let at = spec.at;
    match &spec.kind {
        EventKind::RegionalPoolFlip { region, fraction } => {
            let out = victims(cdn, *region, at, *fraction);
            for &r in &out {
                cdn.retire_replica(r, at);
            }
            let incoming = cdn.take_reserves(*region, out.len());
            for &r in &incoming {
                cdn.activate_replica(r, at);
            }
            let mut affected = ids(&out);
            affected.extend(ids(&incoming));
            records.push(EventRecord {
                at_ms: at.as_millis(),
                until_ms: at.as_millis(),
                class: EventClass::RegionalPoolFlip,
                region: region.slug().to_owned(),
                replicas: affected,
                detail: format!(
                    "retired {} replicas, activated {} reserves",
                    out.len(),
                    incoming.len()
                ),
            });
        }
        EventKind::DatacenterOutage {
            region,
            fraction,
            duration,
        } => {
            let out = victims(cdn, *region, at, *fraction);
            let until = at + *duration;
            for &r in &out {
                cdn.schedule_outage(r, at, until);
            }
            records.push(EventRecord {
                at_ms: at.as_millis(),
                until_ms: until.as_millis(),
                class: EventClass::DatacenterOutage,
                region: region.slug().to_owned(),
                replicas: ids(&out),
                detail: format!("{} replicas dark for {}", out.len(), duration),
            });
            records.push(EventRecord {
                at_ms: until.as_millis(),
                until_ms: until.as_millis(),
                class: EventClass::DatacenterRecovery,
                region: region.slug().to_owned(),
                replicas: ids(&out),
                detail: format!("{} replicas back up", out.len()),
            });
        }
        EventKind::LoadBalancerPolicyChange { pool } => {
            cdn.set_load_balance_pool(at, *pool);
            records.push(EventRecord {
                at_ms: at.as_millis(),
                until_ms: at.as_millis(),
                class: EventClass::LoadBalancerPolicyChange,
                region: "global".to_owned(),
                replicas: Vec::new(),
                detail: format!("load-balance pool -> {pool}"),
            });
        }
        EventKind::FlashCrowd {
            region,
            fraction,
            factor,
            duration,
        } => {
            let out = victims(cdn, *region, at, *fraction);
            let until = at + *duration;
            for &r in &out {
                cdn.add_measurement_penalty(r, at, until, *factor);
            }
            records.push(EventRecord {
                at_ms: at.as_millis(),
                until_ms: until.as_millis(),
                class: EventClass::FlashCrowd,
                region: region.slug().to_owned(),
                replicas: ids(&out),
                detail: format!(
                    "{} replicas overloaded {factor}x for {}",
                    out.len(),
                    duration
                ),
            });
        }
        EventKind::FootprintExpansion {
            region,
            replicas,
            batches,
            stagger,
        } => {
            assert!(*batches >= 1, "expansion needs at least one batch");
            let fresh = cdn.take_reserves(*region, *replicas);
            assert!(
                !fresh.is_empty(),
                "no reserves staged in {region} for expansion"
            );
            let per_batch = fresh.len().div_ceil(*batches);
            let mut last = at;
            for (i, chunk) in fresh.chunks(per_batch.max(1)).enumerate() {
                let when = at + SimDuration::from_millis(stagger.as_millis() * i as u64);
                for &r in chunk {
                    cdn.activate_replica(r, when);
                }
                last = when;
            }
            records.push(EventRecord {
                at_ms: at.as_millis(),
                until_ms: last.as_millis(),
                class: EventClass::FootprintExpansion,
                region: region.slug().to_owned(),
                replicas: ids(&fresh),
                detail: format!("{} reserves activated in {batches} batches", fresh.len()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentSpec;
    use crate::mapping::MappingConfig;
    use crp_netsim::{NetworkBuilder, PopulationSpec};

    fn staged_cdn(script: &EventScript) -> Cdn {
        let mut net = NetworkBuilder::new(50)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let _clients = net.add_population(&PopulationSpec::dns_servers(6));
        let mut cdn = Cdn::deploy(
            net,
            &DeploymentSpec::akamai_like(0.5),
            MappingConfig::default(),
        );
        script.stage(&mut cdn);
        let _ = cdn.add_customer("us.i1.yimg.com").unwrap();
        cdn
    }

    #[test]
    fn standard_suite_covers_every_class() {
        let script = EventScript::standard_suite(SimTime::from_hours(48));
        let mut cdn = staged_cdn(&script);
        let log = script.apply(&mut cdn);
        for class in EventClass::ALL {
            assert_eq!(
                log.of_class(class).count(),
                1,
                "expected exactly one {} record",
                class.label()
            );
        }
        assert_eq!(log.len(), 6);
        // Sorted by time.
        assert!(log.records.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn pool_flip_swaps_serving_set() {
        let script = EventScript::new().with_reserve(Region::Europe, 4).at(
            SimTime::from_hours(6),
            EventKind::RegionalPoolFlip {
                region: Region::Europe,
                fraction: 0.25,
            },
        );
        let mut cdn = staged_cdn(&script);
        let before = cdn.serving_region_replicas(Region::Europe, SimTime::from_hours(1));
        let log = script.apply(&mut cdn);
        let after = cdn.serving_region_replicas(Region::Europe, SimTime::from_hours(7));
        let record = &log.records[0];
        assert_eq!(record.class, EventClass::RegionalPoolFlip);
        assert_eq!(record.region, "europe");
        // Retired replicas no longer serve; activated reserves do.
        let retired = (before.len() as f64 * 0.25).round() as usize;
        for &r in &before[..retired] {
            assert!(!after.contains(&r), "retired replica {r:?} still serving");
        }
        assert_eq!(after.len(), before.len() - retired + retired.min(4));
    }

    #[test]
    fn outage_logs_recovery_record() {
        let script = EventScript::new().at(
            SimTime::from_hours(4),
            EventKind::DatacenterOutage {
                region: Region::NorthAmerica,
                fraction: 0.3,
                duration: SimDuration::from_hours(2),
            },
        );
        let mut cdn = staged_cdn(&script);
        let log = script.apply(&mut cdn);
        assert_eq!(log.len(), 2);
        let outage = &log.records[0];
        let recovery = &log.records[1];
        assert_eq!(outage.class, EventClass::DatacenterOutage);
        assert_eq!(recovery.class, EventClass::DatacenterRecovery);
        assert_eq!(recovery.at_ms, outage.until_ms);
        assert_eq!(outage.replicas, recovery.replicas);
        let victim = ReplicaId::from_index(outage.replicas[0] as u32);
        assert!(!cdn.replica_is_up(victim, SimTime::from_hours(5)));
        assert!(cdn.replica_is_up(victim, SimTime::from_hours(7)));
    }

    #[test]
    fn expansion_activates_in_batches() {
        let script = EventScript::new().with_reserve(Region::Oceania, 6).at(
            SimTime::from_hours(10),
            EventKind::FootprintExpansion {
                region: Region::Oceania,
                replicas: 6,
                batches: 3,
                stagger: SimDuration::from_hours(1),
            },
        );
        let mut cdn = staged_cdn(&script);
        let log = script.apply(&mut cdn);
        let record = &log.records[0];
        assert_eq!(record.replicas.len(), 6);
        assert_eq!(record.until_ms, SimTime::from_hours(12).as_millis());
        let first = ReplicaId::from_index(record.replicas[0] as u32);
        let last = ReplicaId::from_index(record.replicas[5] as u32);
        assert!(cdn.replica_is_up(first, SimTime::from_hours(10)));
        assert!(!cdn.replica_is_up(last, SimTime::from_hours(11)));
        assert!(cdn.replica_is_up(last, SimTime::from_hours(12)));
    }

    #[test]
    fn apply_is_deterministic() {
        let script = EventScript::standard_suite(SimTime::from_hours(48));
        let mut a = staged_cdn(&script);
        let mut b = staged_cdn(&script);
        assert_eq!(script.apply(&mut a), script.apply(&mut b));
    }

    #[test]
    fn record_round_trips_through_json() {
        let script = EventScript::standard_suite(SimTime::from_hours(48));
        let mut cdn = staged_cdn(&script);
        let log = script.apply(&mut cdn);
        let text = serde_json::to_string(&log).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        let back = EventLog::from_value(&value).expect("shape");
        assert_eq!(back, log);
    }

    #[test]
    #[should_panic(expected = "fraction must be")]
    fn bad_fraction_rejected() {
        let script = EventScript::new().at(
            SimTime::from_hours(1),
            EventKind::FlashCrowd {
                region: Region::Europe,
                fraction: 1.5,
                factor: 2.0,
                duration: SimDuration::from_hours(1),
            },
        );
        let mut cdn = staged_cdn(&script);
        let _ = script.apply(&mut cdn);
    }
}
