//! Planar polygons: measurement regions and surge areas.
//!
//! The paper works with two kinds of polygon: the *measurement polygon*
//! (the region blanketed by the 43 clients, used for the edge filter on
//! car deaths) and the *surge areas* (the manually drawn partitions Uber
//! prices independently, Figs. 18–19). Both only need containment,
//! boundary-distance and bounding-box queries.

use crate::project::Meters;
use serde::{Deserialize, Serialize};

/// Axis-aligned bounding box in the local planar frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum corner (south-west).
    pub min: Meters,
    /// Maximum corner (north-east).
    pub max: Meters,
}

impl BoundingBox {
    /// Builds the bounding box of a point set. Panics on an empty slice.
    pub fn of(points: &[Meters]) -> Self {
        assert!(!points.is_empty(), "bounding box of empty point set");
        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        BoundingBox { min, max }
    }

    /// Whether `p` lies inside (or on the edge of) the box.
    pub fn contains(&self, p: Meters) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width (east-west extent) in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north-south extent) in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre point.
    pub fn center(&self) -> Meters {
        Meters::new((self.min.x + self.max.x) / 2.0, (self.min.y + self.max.y) / 2.0)
    }
}

/// A simple (non-self-intersecting) polygon in the local planar frame.
///
/// ```
/// use surgescope_geo::{Meters, Polygon};
/// let region = Polygon::rect(Meters::new(0.0, 0.0), Meters::new(2200.0, 900.0));
/// assert!(region.contains(Meters::new(1100.0, 450.0)));
/// // The edge filter asks how close a disappearance was to the boundary:
/// assert_eq!(region.distance_to_boundary(Meters::new(1100.0, 100.0)), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Meters>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Creates a polygon from its vertices (implicitly closed). Panics if
    /// fewer than 3 vertices are given — a degenerate region is always a
    /// configuration error here.
    pub fn new(vertices: Vec<Meters>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        let bbox = BoundingBox::of(&vertices);
        Polygon { vertices, bbox }
    }

    /// An axis-aligned rectangle, the common case for measurement regions.
    pub fn rect(min: Meters, max: Meters) -> Self {
        assert!(max.x > min.x && max.y > min.y, "degenerate rectangle");
        Polygon::new(vec![
            min,
            Meters::new(max.x, min.y),
            max,
            Meters::new(min.x, max.y),
        ])
    }

    /// The polygon's vertices in order.
    pub fn vertices(&self) -> &[Meters] {
        &self.vertices
    }

    /// Cached bounding box.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Even-odd-rule point-in-polygon test. Points exactly on an edge may
    /// report either side; the callers tolerate that (the edge filter adds
    /// an explicit margin anyway).
    pub fn contains(&self, p: Meters) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Distance from `p` to the nearest point on the polygon boundary
    /// (regardless of whether `p` is inside). This drives the paper's edge
    /// filter: a car that disappears within `margin` of the boundary may
    /// have simply driven out, so it is not counted as a death.
    pub fn distance_to_boundary(&self, p: Meters) -> f64 {
        let n = self.vertices.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            best = best.min(dist_point_segment(p, a, b));
        }
        best
    }

    /// Signed area (positive for counter-clockwise winding), in m².
    pub fn area_m2(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }

    /// Centroid of the polygon (area-weighted).
    pub fn centroid(&self) -> Meters {
        let n = self.vertices.len();
        let a = self.area_m2();
        if a.abs() < 1e-9 {
            return self.bbox.center();
        }
        let (mut cx, mut cy) = (0.0, 0.0);
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let cross = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
        }
        Meters::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

fn dist_point_segment(p: Meters, a: Meters, b: Meters) -> f64 {
    let ab = b - a;
    let len2 = ab.dot(ab);
    if len2 == 0.0 {
        return p.dist(a);
    }
    let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
    p.dist(a + ab.scale(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rect(Meters::new(0.0, 0.0), Meters::new(100.0, 100.0))
    }

    #[test]
    fn contains_interior_and_excludes_exterior() {
        let sq = unit_square();
        assert!(sq.contains(Meters::new(50.0, 50.0)));
        assert!(sq.contains(Meters::new(1.0, 99.0)));
        assert!(!sq.contains(Meters::new(-1.0, 50.0)));
        assert!(!sq.contains(Meters::new(50.0, 101.0)));
    }

    #[test]
    fn boundary_distance_interior() {
        let sq = unit_square();
        assert!((sq.distance_to_boundary(Meters::new(50.0, 50.0)) - 50.0).abs() < 1e-9);
        assert!((sq.distance_to_boundary(Meters::new(10.0, 50.0)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_distance_exterior() {
        let sq = unit_square();
        assert!((sq.distance_to_boundary(Meters::new(-30.0, 50.0)) - 30.0).abs() < 1e-9);
        // Corner: diagonal distance.
        let d = sq.distance_to_boundary(Meters::new(-30.0, -40.0));
        assert!((d - 50.0).abs() < 1e-9);
    }

    #[test]
    fn area_and_centroid() {
        let sq = unit_square();
        assert!((sq.area_m2().abs() - 10_000.0).abs() < 1e-6);
        let c = sq.centroid();
        assert!((c.x - 50.0).abs() < 1e-9 && (c.y - 50.0).abs() < 1e-9);
    }

    #[test]
    fn concave_polygon_containment() {
        // L-shape: the notch must be outside.
        let l = Polygon::new(vec![
            Meters::new(0.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 40.0),
            Meters::new(40.0, 40.0),
            Meters::new(40.0, 100.0),
            Meters::new(0.0, 100.0),
        ]);
        assert!(l.contains(Meters::new(20.0, 80.0)));
        assert!(l.contains(Meters::new(80.0, 20.0)));
        assert!(!l.contains(Meters::new(80.0, 80.0)), "notch should be outside");
    }

    #[test]
    fn bbox_queries() {
        let sq = unit_square();
        let bb = sq.bbox();
        assert_eq!(bb.width(), 100.0);
        assert_eq!(bb.height(), 100.0);
        assert_eq!(bb.center(), Meters::new(50.0, 50.0));
        assert!(bb.contains(Meters::new(0.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn rejects_degenerate() {
        let _ = Polygon::new(vec![Meters::new(0.0, 0.0), Meters::new(1.0, 1.0)]);
    }
}
