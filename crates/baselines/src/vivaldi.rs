//! Vivaldi network coordinates (Dabek et al., SIGCOMM 2004).
//!
//! Vivaldi embeds hosts in a low-dimensional Euclidean space with a
//! per-node *height* (modeling access-link delay) by simulating a mass–
//! spring system: each RTT sample between two nodes pulls or pushes
//! their coordinates so that coordinate distance tracks measured RTT.
//! It is the canonical decentralized coordinate system the paper's
//! related work discusses, and serves here as the coordinate-based
//! contrast to both CRP and Meridian in the ablation benches.

use crp_netsim::{noise, HostId, Network, Rtt, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Vivaldi tuning parameters (the paper's recommended constants).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VivaldiConfig {
    /// Coordinate dimensionality (2–3 suffices per the Vivaldi paper).
    pub dimensions: usize,
    /// Adaptive-timestep gain `c_c`.
    pub cc: f64,
    /// Error-damping gain `c_e`.
    pub ce: f64,
    /// Samples each node takes per round.
    pub samples_per_round: usize,
    /// Seed for neighbor selection.
    pub seed: u64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dimensions: 3,
            cc: 0.25,
            ce: 0.25,
            samples_per_round: 8,
            seed: 0,
        }
    }
}

impl VivaldiConfig {
    fn validate(&self) {
        assert!(self.dimensions > 0, "need at least one dimension");
        assert!(self.cc > 0.0 && self.cc <= 1.0, "cc must be in (0, 1]");
        assert!(self.ce > 0.0 && self.ce <= 1.0, "ce must be in (0, 1]");
        assert!(self.samples_per_round > 0, "need samples per round");
    }
}

#[derive(Clone, Debug)]
struct Coord {
    v: Vec<f64>,
    height: f64,
    error: f64,
}

/// A Vivaldi coordinate system over a set of hosts.
///
/// # Example
///
/// ```
/// use crp_baselines::{Vivaldi, VivaldiConfig};
/// use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
///
/// let mut net = NetworkBuilder::new(2).build();
/// let hosts = net.add_population(&PopulationSpec::planetlab(20));
/// let mut vivaldi = Vivaldi::new(&hosts, VivaldiConfig::default());
/// vivaldi.run_rounds(&net, 20, SimTime::ZERO);
/// let est = vivaldi.estimate(hosts[0], hosts[1]).unwrap();
/// assert!(est.millis() >= 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Vivaldi {
    cfg: VivaldiConfig,
    coords: HashMap<HostId, Coord>,
    members: Vec<HostId>,
    rounds_run: u64,
    samples_taken: u64,
}

impl Vivaldi {
    /// Creates a system with all hosts at the origin (the canonical
    /// Vivaldi start) with maximal error estimates.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty or the config is invalid.
    pub fn new(hosts: &[HostId], cfg: VivaldiConfig) -> Self {
        cfg.validate();
        assert!(!hosts.is_empty(), "vivaldi needs hosts");
        let coords = hosts
            .iter()
            .map(|h| {
                (
                    *h,
                    Coord {
                        v: vec![0.0; cfg.dimensions],
                        height: 0.0,
                        error: 1.0,
                    },
                )
            })
            .collect();
        Vivaldi {
            cfg,
            coords,
            members: hosts.to_vec(),
            rounds_run: 0,
            samples_taken: 0,
        }
    }

    /// Runs `rounds` update rounds: every node samples RTT to a few
    /// random peers at time `t` and adjusts its coordinate.
    pub fn run_rounds(&mut self, net: &Network, rounds: usize, t: SimTime) {
        for _ in 0..rounds {
            let round = self.rounds_run;
            for i in 0..self.members.len() {
                for s in 0..self.cfg.samples_per_round {
                    let j = (noise::mix(&[self.cfg.seed, 0x51, round, i as u64, s as u64])
                        % self.members.len() as u64) as usize;
                    if i == j {
                        continue;
                    }
                    let a = self.members[i];
                    let b = self.members[j];
                    let rtt = net.rtt(a, b, t);
                    self.samples_taken += 1;
                    self.update(a, b, rtt);
                }
            }
            self.rounds_run += 1;
        }
    }

    /// Applies one Vivaldi update at node `a` from a measured `rtt` to
    /// node `b` (using `b`'s current coordinate and error).
    ///
    /// # Panics
    ///
    /// Panics if either host was not registered at construction.
    pub fn update(&mut self, a: HostId, b: HostId, rtt: Rtt) {
        let cb = self.coords[&b].clone();
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract: hosts must be registered"
        )]
        let ca = self.coords.get_mut(&a).expect("host registered");
        let dist = coord_distance(&ca.v, ca.height, &cb.v, cb.height);
        let rtt_ms = rtt.millis().max(0.1);
        // Sample weight balances local vs remote confidence.
        let w = ca.error / (ca.error + cb.error).max(1e-9);
        let rel_err = (dist - rtt_ms).abs() / rtt_ms;
        // Update the moving error estimate.
        ca.error = (rel_err * self.cfg.ce * w + ca.error * (1.0 - self.cfg.ce * w)).min(2.5);
        // Move along the error gradient.
        let delta = self.cfg.cc * w;
        let force = delta * (rtt_ms - dist);
        let (mut dir, dir_norm) = direction(&ca.v, &cb.v);
        if dir_norm < 1e-9 {
            // Coincident coordinates: kick in a deterministic direction.
            for (d, x) in dir.iter_mut().enumerate() {
                *x = if (a.key() + d as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
            }
            normalize(&mut dir);
        }
        for (x, d) in ca.v.iter_mut().zip(&dir) {
            *x += force * d;
        }
        ca.height = (ca.height + force * 0.1).max(0.0);
    }

    /// The estimated RTT between two registered hosts, or `None` if
    /// either is unknown.
    pub fn estimate(&self, a: HostId, b: HostId) -> Option<Rtt> {
        let ca = self.coords.get(&a)?;
        let cb = self.coords.get(&b)?;
        Some(Rtt::from_millis(
            coord_distance(&ca.v, ca.height, &cb.v, cb.height).max(0.0),
        ))
    }

    /// The node's current error estimate (1.0 = untrained).
    pub fn error_of(&self, host: HostId) -> Option<f64> {
        self.coords.get(&host).map(|c| c.error)
    }

    /// Median relative estimation error against true RTTs at time `t` —
    /// the standard Vivaldi accuracy figure.
    pub fn median_relative_error(&self, net: &Network, t: SimTime) -> f64 {
        let mut errs = Vec::new();
        for (i, &a) in self.members.iter().enumerate() {
            for &b in &self.members[i + 1..] {
                let truth = net.rtt(a, b, t).millis();
                #[expect(clippy::expect_used, reason = "members are registered at construction")]
                let est = self.estimate(a, b).expect("members registered").millis();
                errs.push((est - truth).abs() / truth.max(0.1));
            }
        }
        errs.sort_by(f64::total_cmp);
        if errs.is_empty() {
            0.0
        } else {
            errs[errs.len() / 2]
        }
    }

    /// Total RTT samples consumed so far (Vivaldi's probing cost).
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }
}

fn coord_distance(a: &[f64], ha: f64, b: &[f64], hb: f64) -> f64 {
    let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    // Parenthesized so the result is bit-identical under argument swap.
    sq.sqrt() + (ha + hb)
}

fn direction(from: &[f64], to: &[f64]) -> (Vec<f64>, f64) {
    let mut d: Vec<f64> = from.iter().zip(to).map(|(x, y)| x - y).collect();
    let norm = d.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-9 {
        for x in &mut d {
            *x /= norm;
        }
    }
    (d, norm)
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    for x in v {
        *x /= norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netsim::{LatencyConfig, NetworkBuilder, PopulationSpec};

    fn setup(n: usize) -> (Network, Vec<HostId>) {
        let mut net = NetworkBuilder::new(23)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(5)
            .latency(LatencyConfig::static_network())
            .build();
        let hosts = net.add_population(&PopulationSpec::planetlab(n));
        (net, hosts)
    }

    #[test]
    fn training_reduces_error() {
        let (net, hosts) = setup(30);
        let mut v = Vivaldi::new(&hosts, VivaldiConfig::default());
        let before = v.median_relative_error(&net, SimTime::ZERO);
        v.run_rounds(&net, 40, SimTime::ZERO);
        let after = v.median_relative_error(&net, SimTime::ZERO);
        assert!(
            after < before * 0.6,
            "median error did not improve: {before:.3} -> {after:.3}"
        );
        assert!(after < 0.5, "converged error too high: {after:.3}");
    }

    #[test]
    fn node_error_estimates_shrink_on_average() {
        let (net, hosts) = setup(20);
        let mut v = Vivaldi::new(&hosts, VivaldiConfig::default());
        assert_eq!(v.error_of(hosts[0]), Some(1.0));
        v.run_rounds(&net, 30, SimTime::ZERO);
        // Individual error estimates oscillate (distant samples inflate
        // them transiently), but the population mean must drop well
        // below the untrained value of 1.0.
        let mean: f64 =
            hosts.iter().map(|h| v.error_of(*h).unwrap()).sum::<f64>() / hosts.len() as f64;
        assert!(mean < 0.9, "mean error {mean:.3} did not shrink");
    }

    #[test]
    fn estimates_are_symmetric_and_nonnegative() {
        let (net, hosts) = setup(15);
        let mut v = Vivaldi::new(&hosts, VivaldiConfig::default());
        v.run_rounds(&net, 10, SimTime::ZERO);
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                let ab = v.estimate(a, b).unwrap();
                let ba = v.estimate(b, a).unwrap();
                assert_eq!(ab, ba);
            }
        }
    }

    #[test]
    fn unknown_hosts_estimate_none() {
        let (mut net, hosts) = setup(5);
        let stranger = net.add_host(crp_netsim::Region::Africa, (1.0, 2.0), "x".into());
        let v = Vivaldi::new(&hosts, VivaldiConfig::default());
        assert!(v.estimate(hosts[0], stranger).is_none());
    }

    #[test]
    fn sample_accounting() {
        let (net, hosts) = setup(10);
        let mut v = Vivaldi::new(&hosts, VivaldiConfig::default());
        assert_eq!(v.samples_taken(), 0);
        v.run_rounds(&net, 2, SimTime::ZERO);
        assert!(v.samples_taken() > 0);
    }

    #[test]
    #[should_panic(expected = "vivaldi needs hosts")]
    fn empty_hosts_rejected() {
        let _ = Vivaldi::new(&[], VivaldiConfig::default());
    }

    #[test]
    fn training_is_deterministic() {
        let (net, hosts) = setup(12);
        let mut a = Vivaldi::new(&hosts, VivaldiConfig::default());
        let mut b = Vivaldi::new(&hosts, VivaldiConfig::default());
        a.run_rounds(&net, 15, SimTime::ZERO);
        b.run_rounds(&net, 15, SimTime::ZERO);
        assert_eq!(
            a.estimate(hosts[0], hosts[5]),
            b.estimate(hosts[0], hosts[5])
        );
    }
}
