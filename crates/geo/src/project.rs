//! Local planar projection.
//!
//! All spatial reasoning in the pipeline (nearest-8 queries, grid cover,
//! visibility radii) happens over a few kilometres, where an equirectangular
//! projection centred on the measurement region is accurate to well under a
//! metre. Projecting once and working in planar metres is both faster and
//! simpler than repeated spherical trigonometry.

use crate::latlng::{LatLng, EARTH_RADIUS_M};
use serde::{Deserialize, Serialize};

/// A point in the local planar frame, in metres east/north of the
/// projection origin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Meters {
    /// Metres east of the origin.
    pub x: f64,
    /// Metres north of the origin.
    pub y: f64,
}

/// A 2-D vector in metres; alias of [`Meters`] used where the value is a
/// displacement rather than a position.
pub type Vec2 = Meters;

impl Meters {
    /// Constructs a planar point.
    pub fn new(x: f64, y: f64) -> Self {
        Meters { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn dist(self, other: Meters) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Squared Euclidean distance — use for comparisons to avoid the sqrt.
    pub fn dist2(self, other: Meters) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length in metres.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Scalar multiplication.
    pub fn scale(self, k: f64) -> Meters {
        Meters::new(self.x * k, self.y * k)
    }

    /// Dot product.
    pub fn dot(self, other: Meters) -> f64 {
        self.x * other.x + self.y * other.y
    }
}

impl std::ops::Sub for Meters {
    type Output = Meters;

    /// Component-wise subtraction.
    fn sub(self, other: Meters) -> Meters {
        Meters::new(self.x - other.x, self.y - other.y)
    }
}

impl std::ops::Add for Meters {
    type Output = Meters;

    /// Component-wise addition.
    fn add(self, other: Meters) -> Meters {
        Meters::new(self.x + other.x, self.y + other.y)
    }
}

/// Equirectangular projection centred on a reference coordinate.
///
/// `to_meters`/`to_latlng` are exact inverses of each other; the planar
/// metric agrees with the spherical one to <0.01% within ~20 km of the
/// origin (verified by property tests in the crate root).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: LatLng,
    cos_lat: f64,
}

impl LocalProjection {
    /// Creates a projection centred on `origin`.
    pub fn new(origin: LatLng) -> Self {
        LocalProjection { origin, cos_lat: origin.lat.to_radians().cos() }
    }

    /// The projection's origin (maps to `(0, 0)`).
    pub fn origin(&self) -> LatLng {
        self.origin
    }

    /// Projects a geographic coordinate into the local planar frame.
    pub fn to_meters(&self, p: LatLng) -> Meters {
        let x = (p.lng - self.origin.lng).to_radians() * self.cos_lat * EARTH_RADIUS_M;
        let y = (p.lat - self.origin.lat).to_radians() * EARTH_RADIUS_M;
        Meters { x, y }
    }

    /// Inverse projection back to geographic coordinates.
    pub fn to_latlng(&self, m: Meters) -> LatLng {
        let lat = self.origin.lat + (m.y / EARTH_RADIUS_M).to_degrees();
        let lng = self.origin.lng + (m.x / (EARTH_RADIUS_M * self.cos_lat)).to_degrees();
        LatLng::new(lat, lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_maps_to_zero() {
        let o = LatLng::new(40.75, -73.98);
        let proj = LocalProjection::new(o);
        let m = proj.to_meters(o);
        assert_eq!(m, Meters::new(0.0, 0.0));
        assert_eq!(proj.to_latlng(m), o);
    }

    #[test]
    fn axes_are_east_and_north() {
        let o = LatLng::new(40.75, -73.98);
        let proj = LocalProjection::new(o);
        let east = proj.to_meters(o.translate(90.0, 250.0));
        assert!((east.x - 250.0).abs() < 0.5 && east.y.abs() < 0.5, "{east:?}");
        let north = proj.to_meters(o.translate(0.0, 250.0));
        assert!((north.y - 250.0).abs() < 0.5 && north.x.abs() < 0.5, "{north:?}");
    }

    #[test]
    fn vector_algebra() {
        let a = Meters::new(3.0, 4.0);
        let b = Meters::new(-1.0, 2.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a - b, Meters::new(4.0, 2.0));
        assert_eq!(a + b, Meters::new(2.0, 6.0));
        assert_eq!(a.scale(2.0), Meters::new(6.0, 8.0));
        assert_eq!(a.dot(b), 5.0);
        assert_eq!(a.dist(b), (16.0f64 + 4.0).sqrt());
        assert_eq!(a.dist2(b), 20.0);
    }
}
