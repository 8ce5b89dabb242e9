//! Geography: points on the globe and the world regions used to place
//! autonomous systems, hosts and CDN replicas.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6_371.0;

/// A point on the globe, in degrees.
///
/// # Example
///
/// ```
/// use crp_netsim::GeoPoint;
///
/// let chicago = GeoPoint::new(41.9, -87.6);
/// let boston = GeoPoint::new(42.4, -71.1);
/// let d = chicago.great_circle_km(boston);
/// assert!((1_350.0..1_450.0).contains(&d), "got {d}");
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is outside `[-90, 90]` or either coordinate
    /// is not finite. Longitude is normalized into `(-180, 180]`.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!(
            lat_deg.is_finite() && lon_deg.is_finite(),
            "coordinates must be finite"
        );
        assert!(
            (-90.0..=90.0).contains(&lat_deg),
            "latitude {lat_deg} out of range"
        );
        let mut lon = lon_deg % 360.0;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon <= -180.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat_deg,
            lon_deg: lon,
        }
    }

    /// Latitude in degrees.
    pub fn lat_deg(self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees.
    pub fn lon_deg(self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn great_circle_km(self, other: GeoPoint) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// A point jittered uniformly within a disc of `radius_km` around
    /// `self` (approximate for small radii; adequate for metro spread).
    pub fn jitter_km<R: Rng + ?Sized>(self, radius_km: f64, rng: &mut R) -> GeoPoint {
        assert!(radius_km >= 0.0, "radius must be non-negative");
        let angle = rng.random::<f64>() * std::f64::consts::TAU;
        // sqrt for uniform density over the disc area.
        let r = radius_km * rng.random::<f64>().sqrt();
        let dlat = (r * angle.sin()) / 111.0; // km per degree latitude
        let coslat = self.lat_deg.to_radians().cos().abs().max(0.05);
        let dlon = (r * angle.cos()) / (111.0 * coslat);
        GeoPoint::new(
            (self.lat_deg + dlat).clamp(-89.9, 89.9),
            self.lon_deg + dlon,
        )
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.lat_deg, self.lon_deg)
    }
}

/// The world regions used to structure the synthetic topology.
///
/// Regions control where autonomous systems and hosts are placed and how
/// densely the simulated CDN deploys replicas (the paper's Fig. 4 tails
/// come from clients in regions poorly served by Akamai).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    NorthAmerica,
    SouthAmerica,
    Europe,
    Africa,
    MiddleEast,
    SouthAsia,
    EastAsia,
    Oceania,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 8] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::Africa,
        Region::MiddleEast,
        Region::SouthAsia,
        Region::EastAsia,
        Region::Oceania,
    ];

    /// A representative central point for the region.
    pub fn center(self) -> GeoPoint {
        match self {
            Region::NorthAmerica => GeoPoint::new(39.5, -95.0),
            Region::SouthAmerica => GeoPoint::new(-15.0, -58.0),
            Region::Europe => GeoPoint::new(50.0, 10.0),
            Region::Africa => GeoPoint::new(2.0, 20.0),
            Region::MiddleEast => GeoPoint::new(28.0, 45.0),
            Region::SouthAsia => GeoPoint::new(21.0, 78.0),
            Region::EastAsia => GeoPoint::new(34.0, 115.0),
            Region::Oceania => GeoPoint::new(-28.0, 145.0),
        }
    }

    /// The half-width (km) of the disc in which entities of this region
    /// are scattered.
    pub fn spread_km(self) -> f64 {
        match self {
            Region::NorthAmerica => 2_200.0,
            Region::SouthAmerica => 1_900.0,
            Region::Europe => 1_300.0,
            Region::Africa => 2_400.0,
            Region::MiddleEast => 1_200.0,
            Region::SouthAsia => 1_400.0,
            Region::EastAsia => 1_800.0,
            Region::Oceania => 1_700.0,
        }
    }

    /// Samples a location within the region.
    pub fn sample_point<R: Rng + ?Sized>(self, rng: &mut R) -> GeoPoint {
        self.center().jitter_km(self.spread_km(), rng)
    }

    /// Stable kebab-case identifier, used in metric names and file
    /// columns where the display name's spaces would be awkward.
    pub fn slug(self) -> &'static str {
        match self {
            Region::NorthAmerica => "north-america",
            Region::SouthAmerica => "south-america",
            Region::Europe => "europe",
            Region::Africa => "africa",
            Region::MiddleEast => "middle-east",
            Region::SouthAsia => "south-asia",
            Region::EastAsia => "east-asia",
            Region::Oceania => "oceania",
        }
    }

    /// Stable small integer used to derive noise streams.
    pub fn index(self) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "every Region variant appears in Region::ALL"
        )]
        let position = Region::ALL
            .iter()
            .position(|r| *r == self)
            .expect("region in ALL");
        position as u64
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::NorthAmerica => "North America",
            Region::SouthAmerica => "South America",
            Region::Europe => "Europe",
            Region::Africa => "Africa",
            Region::MiddleEast => "Middle East",
            Region::SouthAsia => "South Asia",
            Region::EastAsia => "East Asia",
            Region::Oceania => "Oceania",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_to_self_is_zero() {
        let p = GeoPoint::new(10.0, 20.0);
        assert!(p.great_circle_km(p) < 1e-6);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(40.0, -74.0);
        let b = GeoPoint::new(51.5, 0.0);
        assert!((a.great_circle_km(b) - b.great_circle_km(a)).abs() < 1e-9);
    }

    #[test]
    fn known_distance_new_york_london() {
        let nyc = GeoPoint::new(40.71, -74.01);
        let london = GeoPoint::new(51.51, -0.13);
        let d = nyc.great_circle_km(london);
        assert!((5_500.0..5_650.0).contains(&d), "got {d}");
    }

    #[test]
    fn longitude_normalizes() {
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon_deg() + 170.0).abs() < 1e-9);
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon_deg() - 170.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn rejects_out_of_range_latitude() {
        let _ = GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn jitter_stays_roughly_within_radius() {
        let mut rng = StdRng::seed_from_u64(7);
        let center = GeoPoint::new(45.0, 7.0);
        for _ in 0..200 {
            let p = center.jitter_km(500.0, &mut rng);
            // Allow slack for the flat-earth approximation.
            assert!(center.great_circle_km(p) < 650.0);
        }
    }

    #[test]
    fn regions_have_distinct_centers() {
        for (i, a) in Region::ALL.iter().enumerate() {
            for b in &Region::ALL[i + 1..] {
                assert!(a.center().great_circle_km(b.center()) > 1_000.0);
            }
        }
    }

    #[test]
    fn region_indexes_are_unique() {
        let mut seen: Vec<u64> = Region::ALL.iter().map(|r| r.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), Region::ALL.len());
    }

    #[test]
    fn sample_point_in_region_disc() {
        let mut rng = StdRng::seed_from_u64(3);
        for region in Region::ALL {
            for _ in 0..50 {
                let p = region.sample_point(&mut rng);
                assert!(region.center().great_circle_km(p) < region.spread_km() * 1.4);
            }
        }
    }
}
