//! The time-varying latency model.
//!
//! `rtt(a, b, t)` is a deterministic function of the master seed, the pair
//! of hosts and the simulated time. The components are:
//!
//! * **Propagation** — great-circle distance at ~200 km/ms one way, scaled
//!   by a per-pair *path inflation* factor. Inflation is re-drawn at route
//!   epochs (default 6 h, per-pair phase), which models route changes and
//!   produces triangle-inequality violations.
//! * **AS-path processing** — a per-hop cost from BFS hop counts.
//! * **Last mile** — each host's access latency.
//! * **Congestion** — per-AS diurnal swing plus a slow smooth drift,
//!   scaled by the AS's congestion scale (stubs are noisier than
//!   backbones).
//! * **Jitter** — small per-query noise.
//!
//! The congestion and route-epoch terms are what make long observation
//! histories go stale, reproducing the paper's Fig. 9 finding that "all
//! probes" underperforms a bounded window for a third of hosts.

use crate::noise;
use crate::rtt::Rtt;
use crate::time::SimTime;
use crate::topology::{HostId, Network};
use serde::{Deserialize, Serialize};

/// Parameters of the latency model. The defaults target realistic
/// wide-area magnitudes (intra-metro ~5 ms, transcontinental ~80 ms,
/// transoceanic 120–250 ms).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// One-way propagation speed in km per millisecond (fiber ≈ 200).
    pub speed_km_per_ms: f64,
    /// Baseline multiplicative path inflation (≥ 1).
    pub inflation_base: f64,
    /// Maximum extra inflation on top of the base. The inflation drawn
    /// for a host pair mixes a static AS-pair term (peering quality —
    /// the dominant component), a static host-pair term, and a
    /// route-epoch wobble.
    pub inflation_spread: f64,
    /// Length of a route epoch in milliseconds.
    pub route_epoch_ms: u64,
    /// Round-trip processing cost per AS-level hop, in milliseconds.
    pub per_hop_ms: f64,
    /// Peak-to-trough diurnal congestion amplitude, in milliseconds,
    /// before the per-AS scale is applied.
    pub diurnal_amplitude_ms: f64,
    /// Amplitude of the slow random congestion drift, in milliseconds.
    pub drift_amplitude_ms: f64,
    /// Knot spacing of the drift process, in milliseconds.
    pub drift_bucket_ms: u64,
    /// Additive route-change wobble: every host pair gains up to this
    /// many milliseconds, re-drawn each route epoch. Unlike the
    /// multiplicative inflation wobble this matters even at metro
    /// distances, so "which nearby server is best" genuinely changes
    /// when routes change.
    pub route_wobble_ms: f64,
    /// Standard deviation of per-query jitter, in milliseconds.
    pub jitter_sigma_ms: f64,
    /// Floor applied to every distinct-host RTT, in milliseconds.
    pub min_rtt_ms: f64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            speed_km_per_ms: 200.0,
            inflation_base: 1.15,
            inflation_spread: 0.85,
            route_epoch_ms: 6 * 3_600_000,
            per_hop_ms: 1.2,
            diurnal_amplitude_ms: 3.5,
            drift_amplitude_ms: 4.5,
            drift_bucket_ms: 45 * 60_000,
            route_wobble_ms: 6.0,
            jitter_sigma_ms: 0.8,
            min_rtt_ms: 0.3,
        }
    }
}

impl LatencyConfig {
    /// A configuration with all time-varying terms disabled, useful for
    /// tests that need a static metric space.
    pub fn static_network() -> Self {
        LatencyConfig {
            diurnal_amplitude_ms: 0.0,
            drift_amplitude_ms: 0.0,
            jitter_sigma_ms: 0.0,
            inflation_spread: 0.0,
            route_wobble_ms: 0.0,
            ..LatencyConfig::default()
        }
    }
}

/// Noise-stream tags, kept distinct so the streams are independent.
const TAG_INFLATION: u64 = 0x11;
const TAG_INFLATION_STATIC: u64 = 0x17;
const TAG_INFLATION_AS: u64 = 0x18;
const TAG_ROUTE_WOBBLE: u64 = 0x19;
const TAG_EPOCH_PHASE: u64 = 0x12;
const TAG_DIURNAL_PHASE: u64 = 0x13;
const TAG_DRIFT: u64 = 0x14;
const TAG_JITTER: u64 = 0x15;
const TAG_SELF: u64 = 0x16;

impl Network {
    /// The round-trip time between two hosts at simulated time `t`.
    ///
    /// The result is symmetric in `a` and `b`, strictly positive, and
    /// deterministic for a given network seed.
    ///
    /// # Panics
    ///
    /// Panics if either host id does not belong to this network.
    pub fn rtt(&self, a: HostId, b: HostId, t: SimTime) -> Rtt {
        let cfg = self.latency_config();
        if a == b {
            let jitter = noise::uniform(&[self.seed(), TAG_SELF, a.key(), t.as_millis()]) * 0.2;
            return Rtt::from_millis(cfg.min_rtt_ms + jitter);
        }
        self.count_rtt_sample(a);
        // Order the pair so every noise stream is symmetric.
        let (lo, hi) = if a.key() <= b.key() { (a, b) } else { (b, a) };
        let ha = self.host(lo);
        let hb = self.host(hi);
        let seed = self.seed();

        // Propagation with per-pair, per-route-epoch inflation.
        let dist_km = ha.location().great_circle_km(hb.location());
        let phase =
            noise::mix(&[seed, TAG_EPOCH_PHASE, lo.key(), hi.key()]) % cfg.route_epoch_ms.max(1);
        let epoch = (t.as_millis() + phase) / cfg.route_epoch_ms.max(1);
        // Inflation mixes peering quality between the two ASes (static,
        // dominant), a static host-pair term, and a route-epoch wobble.
        let inflation =
            cfg.inflation_base + cfg.inflation_spread * self.inflation_mix(lo, hi, Some(epoch));
        let prop_ms = 2.0 * dist_km * inflation / cfg.speed_km_per_ms;
        let wobble_ms = cfg.route_wobble_ms
            * noise::uniform(&[seed, TAG_ROUTE_WOBBLE, lo.key(), hi.key(), epoch]);

        // AS-path processing.
        let hops = self.as_hops(ha.asn(), hb.asn()) as f64;
        let hop_ms = hops * cfg.per_hop_ms;

        // Last mile.
        let access_ms = ha.access_ms() + hb.access_ms();

        // Congestion at both endpoint ASes.
        let congestion_ms = self.as_congestion_ms(ha.asn().index() as u64, t)
            + self.as_congestion_ms(hb.asn().index() as u64, t);

        // Per-query jitter (folded to non-negative).
        let jitter_ms = noise::gaussian(&[seed, TAG_JITTER, lo.key(), hi.key(), t.as_millis()])
            .abs()
            * cfg.jitter_sigma_ms;

        let total = (prop_ms + wobble_ms + hop_ms + access_ms + congestion_ms + jitter_ms)
            .max(cfg.min_rtt_ms);
        Rtt::from_millis(total)
    }

    /// Telemetry accounting for one distinct-host RTT sample, keyed by
    /// the querying endpoint's region and AS tier. A single disabled
    /// check up front keeps the hot path at one relaxed atomic load.
    fn count_rtt_sample(&self, a: HostId) {
        if !crp_telemetry::enabled() {
            return;
        }
        crp_telemetry::counter_add("netsim.rtt_samples", 1);
        let host = self.host(a);
        let region = host.region().slug();
        crp_telemetry::counter_add(&format!("netsim.rtt_samples.region.{region}"), 1);
        let tier = match self.ases()[host.asn().index()].tier() {
            crate::topology::AsTier::Tier1 => "tier1",
            crate::topology::AsTier::Transit => "transit",
            crate::topology::AsTier::Stub => "stub",
        };
        crp_telemetry::counter_add(&format!("netsim.rtt_samples.tier.{tier}"), 1);
    }

    /// The normalized inflation mix for a host pair: 45% AS-pair peering
    /// quality, 20% host-pair specifics, 35% route-epoch wobble (replaced
    /// by its expectation when `epoch` is `None`, as in `baseline_rtt`).
    fn inflation_mix(&self, lo: HostId, hi: HostId, epoch: Option<u64>) -> f64 {
        let seed = self.seed();
        let (as_lo, as_hi) = {
            let a = self.host(lo).asn().index() as u64;
            let b = self.host(hi).asn().index() as u64;
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        };
        let u_as = noise::uniform(&[seed, TAG_INFLATION_AS, as_lo, as_hi]);
        let u_host = noise::uniform(&[seed, TAG_INFLATION_STATIC, lo.key(), hi.key()]);
        let u_epoch = match epoch {
            Some(e) => noise::uniform(&[seed, TAG_INFLATION, lo.key(), hi.key(), e]),
            None => 0.5,
        };
        0.45 * u_as + 0.20 * u_host + 0.35 * u_epoch
    }

    /// The congestion contribution of one AS at time `t`, in ms.
    fn as_congestion_ms(&self, as_index: u64, t: SimTime) -> f64 {
        let cfg = self.latency_config();
        let seed = self.seed();
        let scale = self.ases()[as_index as usize].congestion_scale();

        let day_ms = 24.0 * 3_600_000.0;
        let phase = noise::uniform(&[seed, TAG_DIURNAL_PHASE, as_index]);
        let diurnal = 0.5
            * cfg.diurnal_amplitude_ms
            * (1.0 + (std::f64::consts::TAU * (t.as_millis() as f64 / day_ms + phase)).sin());

        let drift = if cfg.drift_amplitude_ms > 0.0 {
            cfg.drift_amplitude_ms
                * noise::smooth(
                    &[seed, TAG_DRIFT, as_index],
                    t.as_millis(),
                    cfg.drift_bucket_ms,
                )
        } else {
            0.0
        };

        scale * (diurnal + drift)
    }

    /// The RTT with all time-varying terms at their expectation removed —
    /// a static "distance" used by tests and cluster-quality baselines.
    ///
    /// This is the model's propagation + hops + access floor; it ignores
    /// congestion, drift and jitter, and fixes path inflation at its mean.
    pub fn baseline_rtt(&self, a: HostId, b: HostId) -> Rtt {
        let cfg = self.latency_config();
        if a == b {
            return Rtt::from_millis(cfg.min_rtt_ms);
        }
        let (lo, hi) = if a.key() <= b.key() { (a, b) } else { (b, a) };
        let ha = self.host(lo);
        let hb = self.host(hi);
        let dist_km = ha.location().great_circle_km(hb.location());
        let inflation =
            cfg.inflation_base + cfg.inflation_spread * self.inflation_mix(lo, hi, None);
        let prop_ms = 2.0 * dist_km * inflation / cfg.speed_km_per_ms;
        let wobble_ms = cfg.route_wobble_ms * 0.5;
        let hop_ms = self.as_hops(ha.asn(), hb.asn()) as f64 * cfg.per_hop_ms;
        let total =
            (prop_ms + wobble_ms + hop_ms + ha.access_ms() + hb.access_ms()).max(cfg.min_rtt_ms);
        Rtt::from_millis(total)
    }

    /// Mean RTT over `samples` instants evenly spaced in `[start, end)` —
    /// the simulation analogue of "we measured RTT repeatedly during the
    /// experiment and averaged".
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero or `end <= start`.
    pub fn mean_rtt(
        &self,
        a: HostId,
        b: HostId,
        start: SimTime,
        end: SimTime,
        samples: usize,
    ) -> Rtt {
        assert!(samples > 0, "need at least one sample");
        assert!(end > start, "empty sampling interval");
        let span = (end - start).as_millis();
        let step = (span / samples as u64).max(1);
        let rtts = (0..samples).map(|i| {
            self.rtt(
                a,
                b,
                SimTime::from_millis(start.as_millis() + i as u64 * step),
            )
        });
        #[expect(clippy::expect_used, reason = "samples >= 1, so the mean exists")]
        Rtt::mean(rtts).expect("samples > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;
    use crate::topology::NetworkBuilder;

    fn net_with_hosts() -> (Network, Vec<HostId>) {
        let mut net = NetworkBuilder::new(7)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let mut hosts = Vec::new();
        for (i, region) in [
            Region::NorthAmerica,
            Region::NorthAmerica,
            Region::Europe,
            Region::EastAsia,
            Region::Oceania,
            Region::Africa,
        ]
        .into_iter()
        .enumerate()
        {
            hosts.push(net.add_host(region, (0.5, 3.0), format!("h{i}")));
        }
        (net, hosts)
    }

    #[test]
    fn rtt_is_symmetric() {
        let (net, hosts) = net_with_hosts();
        let t = SimTime::from_mins(90);
        for &a in &hosts {
            for &b in &hosts {
                assert_eq!(net.rtt(a, b, t), net.rtt(b, a, t));
            }
        }
    }

    #[test]
    fn rtt_is_positive_and_bounded() {
        let (net, hosts) = net_with_hosts();
        for &a in &hosts {
            for &b in &hosts {
                let r = net.rtt(a, b, SimTime::from_hours(5));
                assert!(r.millis() > 0.0);
                assert!(r.millis() < 600.0, "implausible RTT {r}");
            }
        }
    }

    #[test]
    fn self_rtt_is_tiny() {
        let (net, hosts) = net_with_hosts();
        let r = net.rtt(hosts[0], hosts[0], SimTime::from_mins(3));
        assert!(r.millis() < 1.0);
    }

    #[test]
    fn same_region_closer_than_cross_ocean() {
        let (net, hosts) = net_with_hosts();
        let t = SimTime::from_hours(1);
        // Two North-America hosts vs NA ↔ Oceania.
        let near = net.rtt(hosts[0], hosts[1], t);
        let far = net.rtt(hosts[0], hosts[4], t);
        assert!(
            near < far,
            "intra-region {near} should beat trans-pacific {far}"
        );
    }

    #[test]
    fn rtt_varies_over_time() {
        let (net, hosts) = net_with_hosts();
        let r1 = net.rtt(hosts[0], hosts[2], SimTime::ZERO);
        let r2 = net.rtt(hosts[0], hosts[2], SimTime::from_hours(12));
        assert_ne!(r1, r2);
    }

    #[test]
    fn rtt_is_deterministic() {
        let (net, hosts) = net_with_hosts();
        let t = SimTime::from_mins(1234);
        assert_eq!(
            net.rtt(hosts[1], hosts[3], t),
            net.rtt(hosts[1], hosts[3], t)
        );
    }

    #[test]
    fn static_config_removes_time_variation_except_route_epochs() {
        let mut net = NetworkBuilder::new(9)
            .tier1_count(3)
            .transit_per_region(2)
            .stubs_per_region(3)
            .latency(LatencyConfig::static_network())
            .build();
        let a = net.add_host(Region::Europe, (1.0, 1.0), "a".into());
        let b = net.add_host(Region::Europe, (1.0, 1.0), "b".into());
        let r1 = net.rtt(a, b, SimTime::ZERO);
        let r2 = net.rtt(a, b, SimTime::from_mins(5));
        assert_eq!(r1, r2);
    }

    #[test]
    fn baseline_close_to_time_mean() {
        let (net, hosts) = net_with_hosts();
        let base = net.baseline_rtt(hosts[0], hosts[2]);
        let mean = net.mean_rtt(
            hosts[0],
            hosts[2],
            SimTime::ZERO,
            SimTime::from_hours(24),
            48,
        );
        // The mean includes congestion; it should exceed the floor but not
        // by an implausible margin.
        assert!(mean >= base * 0.8);
        assert!(mean.millis() < base.millis() + 80.0);
    }

    #[test]
    fn mean_rtt_single_sample_matches_point_query() {
        let (net, hosts) = net_with_hosts();
        let m = net.mean_rtt(hosts[0], hosts[1], SimTime::ZERO, SimTime::from_mins(1), 1);
        assert_eq!(m, net.rtt(hosts[0], hosts[1], SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "empty sampling interval")]
    fn mean_rtt_rejects_empty_interval() {
        let (net, hosts) = net_with_hosts();
        let _ = net.mean_rtt(
            hosts[0],
            hosts[1],
            SimTime::from_mins(1),
            SimTime::from_mins(1),
            3,
        );
    }
}
