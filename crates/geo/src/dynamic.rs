//! Incrementally-maintained bucket grid for point sets that churn.
//!
//! The marketplace's per-tier idle-driver index answers dispatch (the
//! nearest idle car within the match radius) and its internal EWT. It
//! changes a handful of entries per tick (a dispatch removes a car, a trip
//! completion re-inserts it, an idle cruise moves it one cell over) while
//! most points stay put, so rebuilding a CSR [`SpatialGrid`] from scratch
//! twice per tick made it the largest line in the tick profile.
//! [`DynamicGrid`] cuts the plane with the same cell geometry (the shared
//! `cells` module: cell fit, centre cell, ring walk, next-ring bound) but
//! stores each cell as a small `Vec<(id, position)>`, so membership
//! updates are O(1) per change.
//!
//! Queries are **exact** and id-deterministic: ring expansion stops only
//! once no unvisited cell can hold a better point, and ties resolve toward
//! the *lowest id*. A freshly rebuilt [`SpatialGrid`] over the same
//! points, inserted in ascending id order, breaks ties by insertion index
//! — i.e. by id — so swapping one index for the other changes no query
//! answer, bit for bit, regardless of how differently the two grids bucket
//! the plane.
//!
//! [`SpatialGrid`]: crate::SpatialGrid

use crate::cells::Cells;
use crate::project::Meters;

/// A mutable point set bucketed into uniform square cells. Ids are caller
/// -assigned `u32`s (e.g. driver indices) and must be unique among the
/// points currently stored.
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    cells: Cells,
    /// Unordered per-cell membership; order never affects query results
    /// because ties resolve by id, not storage position.
    members: Vec<Vec<(u32, Meters)>>,
    len: usize,
}

impl DynamicGrid {
    /// Creates an empty grid covering the axis-aligned box `min..=max`,
    /// sized so roughly `expected_points` points land one per cell
    /// (clamped to the same 50–1500 m range as
    /// [`auto_cell_size`](crate::auto_cell_size)). Points outside the box
    /// are clamped into the border cells, so coverage is a hint, not a
    /// contract.
    pub fn new(min: Meters, max: Meters, expected_points: usize) -> Self {
        let w = (max.x - min.x).max(1.0);
        let h = (max.y - min.y).max(1.0);
        let size = (w * h / expected_points.max(1) as f64).sqrt().clamp(50.0, 1_500.0);
        let cells = Cells::fit(min, w, h, size, expected_points);
        DynamicGrid { cells, members: vec![Vec::new(); cells.count()], len: 0 }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds a point. The id must not already be present.
    pub fn insert(&mut self, id: u32, pos: Meters) {
        let c = self.cells.index_of(pos);
        self.members[c].push((id, pos));
        self.len += 1;
    }

    /// Removes a point by id; `pos` must be the position it was stored
    /// under (insert or latest move). Panics if the point is absent — a
    /// missing entry means the caller's incremental bookkeeping diverged,
    /// which must fail loudly rather than degrade query answers.
    pub fn remove(&mut self, id: u32, pos: Meters) {
        let c = self.cells.index_of(pos);
        let cell = &mut self.members[c];
        let at = cell
            .iter()
            .position(|&(i, _)| i == id)
            .unwrap_or_else(|| panic!("DynamicGrid::remove: id {id} not in its cell"));
        cell.swap_remove(at);
        self.len -= 1;
    }

    /// Moves a point from its stored position `old` to `new`. Stays O(1)
    /// when both land in the same cell.
    pub fn update(&mut self, id: u32, old: Meters, new: Meters) {
        let co = self.cells.index_of(old);
        let cn = self.cells.index_of(new);
        if co == cn {
            let cell = &mut self.members[co];
            let at = cell
                .iter()
                .position(|&(i, _)| i == id)
                .unwrap_or_else(|| panic!("DynamicGrid::update: id {id} not in its cell"));
            cell[at].1 = new;
        } else {
            self.remove(id, old);
            self.insert(id, new);
        }
    }

    /// The stored point minimizing `(L1 distance to pos, id)` among those
    /// within `max_dist` (inclusive), as `(id, L1 distance)`. The
    /// lexicographic tie-break reproduces a first-strictly-less linear
    /// scan in ascending id order — the same answer as the L1 side of
    /// `SpatialGrid::k_nearest_and_l1_into` over points inserted in id
    /// order, restricted to `max_dist`.
    pub fn nearest_l1_within(&self, pos: Meters, max_dist: f64) -> Option<(u32, f64)> {
        if self.is_empty() {
            return None;
        }
        let cells = &self.cells;
        let (cx, cy) = cells.center(pos);
        let mut best: Option<(f64, u32)> = None;
        let mut r = 0;
        loop {
            cells.for_ring(cx, cy, r, |c| {
                for &(id, p) in &self.members[c] {
                    let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
                    if dist <= max_dist
                        && best.is_none_or(|(bd, bi)| dist < bd || (dist == bd && id < bi))
                    {
                        best = Some((dist, id));
                    }
                }
            });
            let Some(lb) = cells.next_ring_bound(pos, cx, cy, r) else { break };
            // Stop once no unvisited cell can beat (or tie) the best, or
            // can lie within the radius at all.
            if lb > max_dist || best.is_some_and(|(bd, _)| lb > bd) {
                break;
            }
            r += 1;
        }
        best.map(|(d, i)| (i, d))
    }

    /// Unbounded variant of [`DynamicGrid::nearest_l1_within`].
    pub fn nearest_l1(&self, pos: Meters) -> Option<(u32, f64)> {
        self.nearest_l1_within(pos, f64::INFINITY)
    }

    /// All stored `(id, position)` pairs, in unspecified order (equivalence
    /// checks sort by id).
    pub fn items(&self) -> impl Iterator<Item = (u32, Meters)> + '_ {
        self.members.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_l1(points: &[(u32, Meters)], pos: Meters, max_dist: f64) -> Option<(u32, f64)> {
        let mut sorted: Vec<_> = points.to_vec();
        sorted.sort_by_key(|&(id, _)| id);
        let mut best: Option<(u32, f64)> = None;
        for (id, p) in sorted {
            let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
            if dist <= max_dist && best.is_none_or(|(_, bd)| dist < bd) {
                best = Some((id, dist));
            }
        }
        best
    }

    #[test]
    fn empty_grid_answers_none() {
        let g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(1000.0, 1000.0), 10);
        assert!(g.is_empty());
        assert!(g.nearest_l1(Meters::new(3.0, 4.0)).is_none());
    }

    #[test]
    fn insert_remove_update_roundtrip() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(2000.0, 2000.0), 16);
        g.insert(7, Meters::new(100.0, 100.0));
        g.insert(3, Meters::new(1900.0, 1900.0));
        assert_eq!(g.len(), 2);
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((7, 200.0)));
        // Move id 7 far away; id 3 becomes nearest.
        g.update(7, Meters::new(100.0, 100.0), Meters::new(2000.0, 2000.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)).map(|(i, _)| i), Some(3));
        g.remove(3, Meters::new(1900.0, 1900.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)).map(|(i, _)| i), Some(7));
    }

    #[test]
    fn ties_resolve_to_lowest_id() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(500.0, 500.0), 8);
        // Insert in descending id order; tie-break must still pick id 1.
        g.insert(9, Meters::new(100.0, 0.0));
        g.insert(4, Meters::new(100.0, 0.0));
        g.insert(1, Meters::new(0.0, 100.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((1, 100.0)));
        g.remove(1, Meters::new(0.0, 100.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((4, 100.0)));
    }

    #[test]
    fn radius_is_inclusive() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(800.0, 800.0), 4);
        g.insert(0, Meters::new(300.0, 400.0));
        assert_eq!(g.nearest_l1_within(Meters::new(0.0, 0.0), 700.0), Some((0, 700.0)));
        assert_eq!(g.nearest_l1_within(Meters::new(0.0, 0.0), 699.0), None);
        // 100 m cells. The point sits on the near edge of a cell two rings
        // out, exactly `max_dist` away: the next-ring bound equals the
        // radius there, so the search must still visit that ring.
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(1000.0, 1000.0), 100);
        g.insert(5, Meters::new(300.0, 50.0));
        assert_eq!(g.nearest_l1_within(Meters::new(150.0, 50.0), 150.0), Some((5, 150.0)));
    }

    #[test]
    fn points_outside_box_are_still_found() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(1000.0, 1000.0), 10);
        g.insert(2, Meters::new(-500.0, 2500.0));
        g.insert(8, Meters::new(400.0, 400.0));
        assert_eq!(
            g.nearest_l1(Meters::new(-400.0, 2400.0)),
            Some((2, 200.0)),
            "clamped border cells must keep out-of-box points queryable"
        );
        // And removing via the same clamped cell works.
        g.remove(2, Meters::new(-500.0, 2500.0));
        assert_eq!(g.nearest_l1(Meters::new(-400.0, 2400.0)).map(|(i, _)| i), Some(8));
    }

    /// Seeded sweep with most points outside the grid's box (on every
    /// side, so they crowd the clamped border cells) and `max_dist` from 0
    /// through finite, tie-hitting radii to unbounded. Every answer must
    /// match a linear scan, and the unbounded one must also match the L1
    /// side of a `SpatialGrid` over the same points in id order.
    #[test]
    fn matches_brute_force_with_points_outside_the_box() {
        use crate::scan::tests::XorShift;
        use crate::{GridScratch, SpatialGrid};
        let (min, max) = (Meters::new(-1_000.0, -1_000.0), Meters::new(1_000.0, 1_000.0));
        let (mut scratch, mut out) = (GridScratch::new(), Vec::new());
        let mut outside = 0;
        for seed in [2026u64, 777, 0xDEAD] {
            let mut rng = XorShift::new(seed);
            for round in 0..10 {
                let n = 1 + (rng.next_u64() % 120) as usize;
                let pts: Vec<(u32, Meters)> = (0..n as u32)
                    .map(|id| {
                        (id, Meters::new(rng.f64_in(-3_000.0, 3_000.0), rng.f64_in(-3_000.0, 3_000.0)))
                    })
                    .collect();
                outside += pts.iter().filter(|(_, p)| p.x.abs() > 1_000.0 || p.y.abs() > 1_000.0).count();
                let mut g = DynamicGrid::new(min, max, n);
                // Insert in reverse: ties must still resolve by id.
                for &(id, p) in pts.iter().rev() {
                    g.insert(id, p);
                }
                let sg = SpatialGrid::build(pts.iter().map(|&(_, p)| (p, ())).collect(), 150.0);
                for _ in 0..20 {
                    let q = Meters::new(rng.f64_in(-4_000.0, 4_000.0), rng.f64_in(-4_000.0, 4_000.0));
                    let max_dist = match rng.next_u64() % 4 {
                        0 => 0.0,
                        1 => f64::INFINITY,
                        _ => (rng.next_u64() % 160) as f64 * 50.0,
                    };
                    let got = g.nearest_l1_within(q, max_dist);
                    assert_eq!(got, brute_l1(&pts, q, max_dist), "seed {seed} round {round}");
                    if max_dist.is_infinite() {
                        let want = sg.k_nearest_and_l1_into(q, 0, &mut scratch, &mut out);
                        assert_eq!(got, want.map(|(i, d)| (i as u32, d)), "seed {seed} round {round}");
                    }
                }
            }
        }
        assert!(outside > 1_000, "only {outside} points outside the box; sweep is vacuous");
    }

    #[test]
    fn matches_brute_force_through_churn() {
        // Deterministic pseudo-random walk: insert/remove/move a point set
        // and compare every query against a linear scan.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(3000.0, 3000.0), 64);
        let mut live: Vec<(u32, Meters)> = Vec::new();
        for step in 0..2000u32 {
            let roll = next() % 100;
            if roll < 40 || live.is_empty() {
                // Snapped coordinates create exact ties and boundary hits.
                let p = Meters::new(
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                );
                g.insert(step, p);
                live.push((step, p));
            } else if roll < 65 {
                let at = (next() as usize) % live.len();
                let (id, p) = live.swap_remove(at);
                g.remove(id, p);
            } else {
                let at = (next() as usize) % live.len();
                let (id, old) = live[at];
                let new = Meters::new(
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                );
                g.update(id, old, new);
                live[at].1 = new;
            }
            let q = Meters::new((next() % 4000) as f64 - 500.0, (next() % 4000) as f64 - 500.0);
            let max_dist = (next() % 5000) as f64;
            assert_eq!(
                g.nearest_l1_within(q, max_dist),
                brute_l1(&live, q, max_dist),
                "step {step}"
            );
            assert_eq!(g.len(), live.len(), "step {step}");
        }
    }
}
