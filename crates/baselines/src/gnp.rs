//! GNP: Global Network Positioning (Ng & Zhang, INFOCOM 2002).
//!
//! The landmark-based coordinate system the paper's related work leads
//! with. A fixed set of landmarks first embeds *itself* into a
//! low-dimensional Euclidean space by minimizing pairwise embedding
//! error; every other host then solves a small optimization against the
//! landmark coordinates to place itself. Distances between any two
//! hosts are estimated as coordinate distances.
//!
//! Both phases use the same optimizer: a simple deterministic coordinate
//! descent (the original used Simplex Downhill; any local optimizer
//! suffices at these dimensions), seeded from latency-proportional
//! initial positions so runs are reproducible.

use crp_netsim::{HostId, Network, Rtt, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// GNP parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GnpConfig {
    /// Embedding dimensionality (the GNP paper's sweet spot is 5–7 for
    /// the Internet; small worlds do fine with less).
    pub dimensions: usize,
    /// Coordinate-descent sweeps per embedding.
    pub iterations: usize,
    /// Initial step size in coordinate space (ms).
    pub initial_step_ms: f64,
}

impl Default for GnpConfig {
    fn default() -> Self {
        GnpConfig {
            dimensions: 5,
            iterations: 60,
            initial_step_ms: 40.0,
        }
    }
}

impl GnpConfig {
    fn validate(&self) {
        assert!(self.dimensions > 0, "need at least one dimension");
        assert!(self.iterations > 0, "need at least one iteration");
        assert!(self.initial_step_ms > 0.0, "step must be positive");
    }
}

/// A trained GNP coordinate system.
///
/// # Example
///
/// ```
/// use crp_baselines::{Gnp, GnpConfig};
/// use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
///
/// let mut net = NetworkBuilder::new(4).build();
/// let landmarks = net.add_population(&PopulationSpec::planetlab(8));
/// let hosts = net.add_population(&PopulationSpec::dns_servers(4));
/// let mut gnp = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
/// for &h in &hosts {
///     gnp.place_host(&net, h, SimTime::ZERO);
/// }
/// assert!(gnp.estimate(hosts[0], hosts[1]).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Gnp {
    cfg: GnpConfig,
    coords: HashMap<HostId, Vec<f64>>,
    landmarks: Vec<HostId>,
    probes: u64,
}

impl Gnp {
    /// Phase 1: embeds the landmarks from their full pairwise RTT matrix
    /// at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dimensions + 1` landmarks are given or the
    /// config is invalid.
    pub fn embed_landmarks(net: &Network, landmarks: &[HostId], cfg: GnpConfig, t: SimTime) -> Gnp {
        cfg.validate();
        assert!(
            landmarks.len() > cfg.dimensions,
            "need more landmarks than dimensions"
        );
        let n = landmarks.len();
        let mut probes = 0u64;
        let mut rtt = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = net.rtt(landmarks[i], landmarks[j], t).millis();
                probes += 1;
                rtt[i][j] = d;
                rtt[j][i] = d;
            }
        }
        // Latency-proportional deterministic initialization: landmark i
        // starts spread along axis (i mod dims).
        let mut coords: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut v = vec![0.0; cfg.dimensions];
                v[i % cfg.dimensions] = rtt[0][i].max(1.0);
                v
            })
            .collect();
        // Coordinate descent on total squared embedding error.
        let mut step = cfg.initial_step_ms;
        for _ in 0..cfg.iterations {
            for i in 0..n {
                for d in 0..cfg.dimensions {
                    let err_here = landmark_error(&coords, &rtt, i);
                    for delta in [step, -step] {
                        coords[i][d] += delta;
                        if landmark_error(&coords, &rtt, i) < err_here {
                            break;
                        }
                        coords[i][d] -= delta;
                    }
                }
            }
            step *= 0.92;
        }
        let coords_map = landmarks.iter().zip(coords).map(|(h, c)| (*h, c)).collect();
        Gnp {
            cfg,
            coords: coords_map,
            landmarks: landmarks.to_vec(),
            probes,
        }
    }

    /// Phase 2: places one host by measuring it against every landmark
    /// and minimizing its own embedding error.
    pub fn place_host(&mut self, net: &Network, host: HostId, t: SimTime) {
        if self.coords.contains_key(&host) {
            return;
        }
        let targets: Vec<(Vec<f64>, f64)> = self
            .landmarks
            .iter()
            .map(|&l| {
                self.probes += 1;
                (self.coords[&l].clone(), net.rtt(host, l, t).millis())
            })
            .collect();
        // Start at the nearest landmark's coordinate.
        #[expect(
            clippy::expect_used,
            reason = "landmark sets are validated non-empty at construction"
        )]
        let nearest = targets
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("landmarks exist");
        let mut pos = nearest.0.clone();
        let mut step = self.cfg.initial_step_ms;
        for _ in 0..self.cfg.iterations {
            for d in 0..self.cfg.dimensions {
                let here = host_error(&pos, &targets);
                for delta in [step, -step] {
                    pos[d] += delta;
                    if host_error(&pos, &targets) < here {
                        break;
                    }
                    pos[d] -= delta;
                }
            }
            step *= 0.92;
        }
        self.coords.insert(host, pos);
    }

    /// Estimated RTT between two placed hosts, or `None` if either is
    /// unplaced.
    pub fn estimate(&self, a: HostId, b: HostId) -> Option<Rtt> {
        let ca = self.coords.get(&a)?;
        let cb = self.coords.get(&b)?;
        Some(Rtt::from_millis(euclidean(ca, cb)))
    }

    /// Direct measurements consumed so far (GNP's probing bill).
    pub fn probes_issued(&self) -> u64 {
        self.probes
    }

    /// Median relative estimation error over placed non-landmark hosts.
    pub fn median_relative_error(&self, net: &Network, hosts: &[HostId], t: SimTime) -> f64 {
        let mut errs = Vec::new();
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                let (Some(est), truth) = (self.estimate(a, b), net.rtt(a, b, t).millis()) else {
                    continue;
                };
                errs.push((est.millis() - truth).abs() / truth.max(0.1));
            }
        }
        errs.sort_by(f64::total_cmp);
        if errs.is_empty() {
            0.0
        } else {
            errs[errs.len() / 2]
        }
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn landmark_error(coords: &[Vec<f64>], rtt: &[Vec<f64>], i: usize) -> f64 {
    let mut e = 0.0;
    for j in 0..coords.len() {
        if i == j {
            continue;
        }
        let d = euclidean(&coords[i], &coords[j]);
        let want = rtt[i][j];
        // Normalized squared error, as in the GNP objective.
        e += ((d - want) / want.max(1.0)).powi(2);
    }
    e
}

fn host_error(pos: &[f64], targets: &[(Vec<f64>, f64)]) -> f64 {
    targets
        .iter()
        .map(|(c, want)| {
            let d = euclidean(pos, c);
            ((d - want) / want.max(1.0)).powi(2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netsim::{LatencyConfig, NetworkBuilder, PopulationSpec};

    fn world() -> (Network, Vec<HostId>, Vec<HostId>) {
        let mut net = NetworkBuilder::new(93)
            .tier1_count(3)
            .transit_per_region(2)
            .stubs_per_region(5)
            .latency(LatencyConfig::static_network())
            .build();
        let landmarks = net.add_population(&PopulationSpec::planetlab(10));
        let hosts = net.add_population(&PopulationSpec::dns_servers(16));
        (net, landmarks, hosts)
    }

    #[test]
    fn landmark_embedding_reduces_error_below_trivial() {
        let (net, landmarks, _) = world();
        let gnp = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        let err = gnp.median_relative_error(&net, &landmarks, SimTime::ZERO);
        assert!(err < 0.4, "landmark self-embedding error {err:.2}");
    }

    #[test]
    fn placed_hosts_estimate_reasonably() {
        let (net, landmarks, hosts) = world();
        let mut gnp = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        for &h in &hosts {
            gnp.place_host(&net, h, SimTime::ZERO);
        }
        let err = gnp.median_relative_error(&net, &hosts, SimTime::ZERO);
        assert!(err < 0.6, "host embedding error {err:.2}");
    }

    #[test]
    fn probing_cost_is_counted() {
        let (net, landmarks, hosts) = world();
        let mut gnp = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        let after_landmarks = gnp.probes_issued();
        assert_eq!(after_landmarks, (10 * 9 / 2) as u64);
        gnp.place_host(&net, hosts[0], SimTime::ZERO);
        assert_eq!(gnp.probes_issued(), after_landmarks + 10);
    }

    #[test]
    fn unplaced_hosts_estimate_none() {
        let (net, landmarks, hosts) = world();
        let gnp = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        assert!(gnp.estimate(hosts[0], hosts[1]).is_none());
        assert!(gnp.estimate(landmarks[0], landmarks[1]).is_some());
    }

    #[test]
    fn embedding_is_deterministic() {
        let (net, landmarks, hosts) = world();
        let mut a = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        let mut b = Gnp::embed_landmarks(&net, &landmarks, GnpConfig::default(), SimTime::ZERO);
        a.place_host(&net, hosts[0], SimTime::ZERO);
        b.place_host(&net, hosts[0], SimTime::ZERO);
        a.place_host(&net, hosts[1], SimTime::ZERO);
        b.place_host(&net, hosts[1], SimTime::ZERO);
        assert_eq!(
            a.estimate(hosts[0], hosts[1]),
            b.estimate(hosts[0], hosts[1])
        );
    }

    #[test]
    #[should_panic(expected = "more landmarks than dimensions")]
    fn too_few_landmarks_rejected() {
        let (net, landmarks, _) = world();
        let _ = Gnp::embed_landmarks(&net, &landmarks[..3], GnpConfig::default(), SimTime::ZERO);
    }
}
