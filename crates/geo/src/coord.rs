//! WGS-84 coordinates and great-circle geometry.
//!
//! The paper's vantage points are GPS coordinates fed to the browser's
//! Geolocation API; distances between vantage points (≈ 1 mile between
//! Cuyahoga voting districts, ≈ 100 miles between Ohio county centroids) are
//! the independent variable of the whole study, so the distance math lives
//! here, implemented with the standard haversine formulation on a spherical
//! Earth (error < 0.5 % — irrelevant at the study's scales).

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Kilometres per statute mile.
pub const KM_PER_MILE: f64 = 1.609_344;

/// A WGS-84 latitude/longitude pair in degrees.
///
/// Latitude is clamped conceptually to `[-90, 90]`, longitude normalized to
/// `[-180, 180)` by [`Coord::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    /// Latitude in degrees, positive north.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east.
    pub lon_deg: f64,
}

impl Coord {
    /// Build a coordinate, clamping latitude and wrapping longitude into
    /// canonical ranges.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        let lat = lat_deg.clamp(-90.0, 90.0);
        let mut lon = (lon_deg + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        Coord {
            lat_deg: lat,
            lon_deg: lon - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine).
    pub fn haversine_km(self, other: Coord) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// Great-circle distance to `other` in statute miles.
    pub fn distance_miles(self, other: Coord) -> f64 {
        self.haversine_km(other) / KM_PER_MILE
    }

    /// Initial bearing (forward azimuth) from `self` to `other`, in degrees
    /// clockwise from true north, in `[0, 360)`.
    pub fn initial_bearing_deg(self, other: Coord) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let brng = y.atan2(x).to_degrees();
        (brng + 360.0) % 360.0
    }

    /// Destination point after travelling `dist_km` along the great circle at
    /// the given initial bearing.
    pub fn destination(self, bearing_deg: f64, dist_km: f64) -> Coord {
        let delta = dist_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat_deg.to_radians();
        let lon1 = self.lon_deg.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        Coord::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// Render as the `lat,lon` string format passed to the browser's
    /// Geolocation override (6 decimal places ≈ 0.1 m, matching GPS fixes).
    pub fn to_gps_string(self) -> String {
        format!("{:.6},{:.6}", self.lat_deg, self.lon_deg)
    }

    /// Parse a `lat,lon` GPS string produced by [`Coord::to_gps_string`].
    pub fn parse_gps(s: &str) -> Option<Coord> {
        let (lat, lon) = s.split_once(',')?;
        let lat: f64 = lat.trim().parse().ok()?;
        let lon: f64 = lon.trim().parse().ok()?;
        if !lat.is_finite() || !lon.is_finite() {
            return None;
        }
        Some(Coord::new(lat, lon))
    }
}

/// Mean pairwise great-circle distance among a set of coordinates, in miles.
///
/// The paper reports this for its location sets ("On average, these counties
/// \[are\] 100 miles apart", "On average, these voting districts are 1 mile
/// apart"); used in tests to validate the synthetic layout.
pub fn mean_pairwise_distance_miles(coords: &[Coord]) -> f64 {
    let n = coords.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            total += coords[i].distance_miles(coords[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEVELAND: Coord = Coord {
        lat_deg: 41.4993,
        lon_deg: -81.6944,
    };
    const COLUMBUS: Coord = Coord {
        lat_deg: 39.9612,
        lon_deg: -82.9988,
    };

    #[test]
    fn haversine_known_distance() {
        // Cleveland–Columbus is ~203 km by great circle.
        let d = CLEVELAND.haversine_km(COLUMBUS);
        assert!((d - 203.3).abs() < 2.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        assert_eq!(CLEVELAND.haversine_km(CLEVELAND), 0.0);
        let ab = CLEVELAND.haversine_km(COLUMBUS);
        let ba = COLUMBUS.haversine_km(CLEVELAND);
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn miles_conversion() {
        let km = CLEVELAND.haversine_km(COLUMBUS);
        let mi = CLEVELAND.distance_miles(COLUMBUS);
        assert!((mi * KM_PER_MILE - km).abs() < 1e-9);
    }

    #[test]
    fn destination_roundtrip() {
        let there = CLEVELAND.destination(137.0, 42.0);
        let dist = CLEVELAND.haversine_km(there);
        assert!((dist - 42.0).abs() < 1e-6, "distance {dist}");
        let bearing = CLEVELAND.initial_bearing_deg(there);
        assert!((bearing - 137.0).abs() < 1e-6, "bearing {bearing}");
    }

    #[test]
    fn destination_zero_distance_is_identity() {
        let c = CLEVELAND.destination(90.0, 0.0);
        assert!((c.lat_deg - CLEVELAND.lat_deg).abs() < 1e-9);
        assert!((c.lon_deg - CLEVELAND.lon_deg).abs() < 1e-9);
    }

    #[test]
    fn new_normalizes_longitude() {
        let c = Coord::new(10.0, 190.0);
        assert!((c.lon_deg - (-170.0)).abs() < 1e-9);
        let c = Coord::new(10.0, -190.0);
        assert!((c.lon_deg - 170.0).abs() < 1e-9);
        let c = Coord::new(95.0, 0.0);
        assert_eq!(c.lat_deg, 90.0);
    }

    #[test]
    fn gps_string_roundtrip() {
        let s = CLEVELAND.to_gps_string();
        let back = Coord::parse_gps(&s).unwrap();
        assert!((back.lat_deg - CLEVELAND.lat_deg).abs() < 1e-5);
        assert!((back.lon_deg - CLEVELAND.lon_deg).abs() < 1e-5);
    }

    #[test]
    fn parse_gps_rejects_garbage() {
        assert!(Coord::parse_gps("").is_none());
        assert!(Coord::parse_gps("41.5").is_none());
        assert!(Coord::parse_gps("a,b").is_none());
        assert!(Coord::parse_gps("nan,0").is_none());
        assert!(Coord::parse_gps("inf,0").is_none());
    }

    #[test]
    fn mean_pairwise_small_sets() {
        assert_eq!(mean_pairwise_distance_miles(&[]), 0.0);
        assert_eq!(mean_pairwise_distance_miles(&[CLEVELAND]), 0.0);
        let two = mean_pairwise_distance_miles(&[CLEVELAND, COLUMBUS]);
        assert!((two - CLEVELAND.distance_miles(COLUMBUS)).abs() < 1e-9);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = Coord::new(0.0, 0.0);
        let north = origin.destination(0.0, 100.0);
        assert!(origin.initial_bearing_deg(north) < 1e-6);
        let east = origin.destination(90.0, 100.0);
        assert!((origin.initial_bearing_deg(east) - 90.0).abs() < 1e-6);
    }
}
