//! Uniform bucket-grid spatial index over a frozen point set.
//!
//! Every pingClient answer asks two questions per tier: the *k nearest
//! cars* to the client (the nearest-8 the app shows) and the *nearest car
//! by rectilinear distance* (its EWT). Scanning the tier's whole inventory
//! for each, and sorting it for the nearest-k, made those questions the
//! bulk of a tick. [`SpatialGrid`] buckets a tier's cars into uniform
//! square cells (CSR layout: one flat index array plus per-cell offsets)
//! and answers both in one expanding ring search,
//! [`SpatialGrid::k_nearest_and_l1_into`], visiting only the cells that
//! can still matter. An EWT-only lookup is the same call with `k = 0`.
//!
//! Queries are **exact**, not approximate: a ring is only ruled out once
//! the distance from the query point to the nearest unvisited cell
//! provably exceeds the current best (with ties resolved toward lower
//! insertion index, matching what a stable sort over the full scan would
//! produce — so swapping the scan for the grid changes no observable
//! output, bit for bit).
//!
//! Storage is structure-of-arrays: coordinates live in separate `xs`/`ys`
//! slabs so the ring scans stream over dense `f64` lanes, and the slabs
//! (plus the CSR arrays) are reused across [`SpatialGrid::rebuild`] calls
//! — a grid rebuilt every tick stops allocating once its capacity
//! high-water marks settle. The query writes into caller-owned buffers
//! ([`GridScratch`] holds the candidate scratch), so it allocates nothing
//! either.

use crate::cells::{max_cells, Cells};
use crate::project::Meters;

/// Reusable candidate scratch for [`SpatialGrid::k_nearest_and_l1_into`].
/// Owning it at the call site (one per worker thread) keeps repeated
/// queries allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    /// `(squared distance, insertion index)` candidates, sorted on demand.
    cands: Vec<(f64, u32)>,
}

impl GridScratch {
    /// An empty scratch; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        GridScratch::default()
    }
}

/// A point set bucketed into uniform square cells for fast proximity
/// queries. `T` is a per-point payload (e.g. a driver index); use `()`
/// when the insertion index itself is the answer.
#[derive(Debug, Clone)]
pub struct SpatialGrid<T> {
    cells: Cells,
    /// CSR offsets: cell `c` holds `cell_items[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    /// Insertion indices grouped by cell, ascending within each cell.
    cell_items: Vec<u32>,
    /// Point x coordinates in insertion order (SoA lane).
    xs: Vec<f64>,
    /// Point y coordinates in insertion order (SoA lane).
    ys: Vec<f64>,
    /// Payloads in insertion order.
    payloads: Vec<T>,
}

impl<T> SpatialGrid<T> {
    /// An empty grid ready to be [`SpatialGrid::rebuild`]-ed in place
    /// (the arena form: keep one per tier, rebuild it every tick).
    pub fn empty() -> Self {
        SpatialGrid {
            cells: Cells::empty(100.0),
            cell_start: vec![0],
            cell_items: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Builds a grid over `items` with square cells of `cell_size` metres.
    /// The cell size is doubled as needed so the cell count stays
    /// proportional to the point count (outlier-stretched bounding boxes
    /// cannot blow up memory).
    pub fn build(items: Vec<(Meters, T)>, cell_size: f64) -> Self {
        let mut g = Self::empty();
        g.rebuild(items.into_iter(), cell_size);
        g
    }

    /// Builds with a density-derived cell size: roughly one point per
    /// cell, clamped to a sane metric range.
    pub fn build_auto(items: Vec<(Meters, T)>) -> Self {
        let cell = auto_cell_size(items.iter().map(|(p, _)| *p));
        Self::build(items, cell)
    }

    /// Re-indexes the grid over a fresh point set **in place**, reusing
    /// every internal buffer (SoA slabs, CSR arrays). Steady-state
    /// rebuilds perform zero heap allocation once capacities have grown
    /// to the working set. Semantically identical to `build`.
    pub fn rebuild(&mut self, items: impl Iterator<Item = (Meters, T)>, cell_size: f64) {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "bad cell size {cell_size}");
        self.xs.clear();
        self.ys.clear();
        self.payloads.clear();
        for (p, t) in items {
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.payloads.push(t);
        }
        let n = self.xs.len();
        if n == 0 {
            self.cells = Cells::empty(cell_size);
            self.cell_start.clear();
            self.cell_start.push(0);
            self.cell_items.clear();
            return;
        }

        let (mut min_x, mut min_y) = (self.xs[0], self.ys[0]);
        let (mut max_x, mut max_y) = (self.xs[0], self.ys[0]);
        for i in 1..n {
            min_x = min_x.min(self.xs[i]);
            min_y = min_y.min(self.ys[i]);
            max_x = max_x.max(self.xs[i]);
            max_y = max_y.max(self.ys[i]);
        }
        let cells =
            Cells::fit(Meters::new(min_x, min_y), max_x - min_x, max_y - min_y, cell_size, n);
        self.cells = cells;

        // Counting sort into cells; iterating in insertion order keeps
        // each cell's item list ascending (the tie-break invariant). The
        // start offsets double as placement cursors, then shift back —
        // no separate cursor array to allocate.
        let ncells = cells.count();
        self.cell_start.clear();
        // Reserve to the `max_cells` cap, not just `ncells`: the actual
        // cell count follows the points' bounding-box shape, so sizing to
        // it would let an unusually elongated frame force a realloc long
        // after the point-count high-water mark stopped moving.
        self.cell_start.reserve(max_cells(n) + 1);
        self.cell_start.resize(ncells + 1, 0);
        for i in 0..n {
            let c = cells.index_of(self.point(i));
            self.cell_start[c + 1] += 1;
        }
        for c in 1..self.cell_start.len() {
            self.cell_start[c] += self.cell_start[c - 1];
        }
        self.cell_items.clear();
        self.cell_items.resize(n, 0);
        for i in 0..n {
            let c = cells.index_of(self.point(i));
            self.cell_items[self.cell_start[c] as usize] = i as u32;
            self.cell_start[c] += 1;
        }
        // Each start has advanced to its cell's end == the next start.
        for c in (1..=ncells).rev() {
            self.cell_start[c] = self.cell_start[c - 1];
        }
        self.cell_start[0] = 0;
    }

    /// In-place variant of [`SpatialGrid::build_auto`]; `items` is
    /// consumed twice (once for the density estimate, once to fill).
    pub fn rebuild_auto(&mut self, items: impl Iterator<Item = (Meters, T)> + Clone) {
        let cell = auto_cell_size(items.clone().map(|(p, _)| p));
        self.rebuild(items, cell);
    }

    /// Reserves capacity for indexing up to `n` points without further
    /// allocation: the coordinate slabs, payloads and item list size to
    /// `n`, and the cell table to the `max_cells` cap `rebuild` would
    /// derive from `n` points. Lets a caller with a known fleet-wide
    /// high-water mark make every later `rebuild` allocation-free.
    pub fn reserve(&mut self, n: usize) {
        self.xs.reserve(n);
        self.ys.reserve(n);
        self.payloads.reserve(n);
        self.cell_items.reserve(n);
        self.cell_start.reserve(max_cells(n) + 1);
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Position of the point with insertion index `i`.
    pub fn point(&self, i: usize) -> Meters {
        Meters::new(self.xs[i], self.ys[i])
    }

    /// Payload of the point with insertion index `i`.
    pub fn payload(&self, i: usize) -> &T {
        &self.payloads[i]
    }

    /// The (possibly adjusted) cell edge length in metres.
    pub fn cell_size(&self) -> f64 {
        self.cells.size
    }

    /// One ring expansion answering both of pingClient's per-tier
    /// questions. The `k` nearest points by Euclidean distance land in
    /// `out`, ordered by `(distance, insertion index)`: exactly what a
    /// stable sort of all points by distance would yield. The return
    /// value is the point minimizing `(L1 distance, insertion index)`, as
    /// `(insertion index, L1 distance)`; the L1 metric matches the city
    /// model's rectilinear drive metric, and the tie-break reproduces a
    /// first-strictly-less linear scan in insertion order. With `k = 0`
    /// only the L1 side runs.
    pub fn k_nearest_and_l1_into(
        &self,
        pos: Meters,
        k: usize,
        scratch: &mut GridScratch,
        out: &mut Vec<usize>,
    ) -> Option<(usize, f64)> {
        out.clear();
        if self.is_empty() {
            return None;
        }
        let cells = &self.cells;
        let (cx, cy) = cells.center(pos);
        let cands = &mut scratch.cands;
        cands.clear();
        let mut best_l1: Option<(f64, u32)> = None;
        // Each side keeps its own done-flag; rings expand until both are
        // satisfied (the k-nearest side is vacuously done for k == 0).
        let mut k_done = k == 0;
        let mut l1_done = false;
        let mut r = 0;
        loop {
            cells.for_ring(cx, cy, r, |c| {
                let items = &self.cell_items
                    [self.cell_start[c] as usize..self.cell_start[c + 1] as usize];
                for &i in items {
                    let dx = self.xs[i as usize] - pos.x;
                    let dy = self.ys[i as usize] - pos.y;
                    if !k_done {
                        // Same op order as `Meters::dist2`: bit-identical.
                        cands.push((dx * dx + dy * dy, i));
                    }
                    let dist = dx.abs() + dy.abs();
                    if best_l1.is_none_or(|(bd, bi)| dist < bd || (dist == bd && i < bi)) {
                        best_l1 = Some((dist, i));
                    }
                }
            });
            let Some(lb) = cells.next_ring_bound(pos, cx, cy, r) else { break };
            if !k_done && cands.len() >= k {
                cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                // A later ring can still matter on an exact tie (a
                // same-distance point with a lower insertion index), so
                // only stop on a strict improvement margin.
                if lb * lb > cands[k - 1].0 {
                    k_done = true;
                }
            }
            // Same margin logic for the L1 side: stop only once no
            // unvisited cell can beat (or tie) the best.
            if best_l1.is_some_and(|(bd, _)| lb > bd) {
                l1_done = true;
            }
            if k_done && l1_done {
                break;
            }
            r += 1;
        }
        if k > 0 {
            cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            cands.truncate(k);
            out.extend(cands.iter().map(|&(_, i)| i as usize));
        }
        best_l1.map(|(d, i)| (i as usize, d))
    }
}

/// Density-derived cell size for a point set: edge of a square holding
/// one point on average, clamped to `[50, 1500]` metres (city scales).
pub fn auto_cell_size(points: impl Iterator<Item = Meters>) -> f64 {
    let mut n = 0usize;
    let mut min = Meters::new(f64::INFINITY, f64::INFINITY);
    let mut max = Meters::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        n += 1;
        min.x = min.x.min(p.x);
        min.y = min.y.min(p.y);
        max.x = max.x.max(p.x);
        max.y = max.y.max(p.y);
    }
    if n == 0 {
        return 100.0;
    }
    let area = (max.x - min.x).max(1.0) * (max.y - min.y).max(1.0);
    (area / n as f64).sqrt().clamp(50.0, 1_500.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tests::{brute_k, brute_l1, XorShift};

    fn grid_of(points: &[Meters], cell: f64) -> SpatialGrid<()> {
        SpatialGrid::build(points.iter().map(|p| (*p, ())).collect(), cell)
    }

    /// The fused kernel's two answers for one query.
    fn query(g: &SpatialGrid<()>, pos: Meters, k: usize) -> (Vec<usize>, Option<(usize, f64)>) {
        let mut out = Vec::new();
        let l1 = g.k_nearest_and_l1_into(pos, k, &mut GridScratch::new(), &mut out);
        (out, l1)
    }

    #[test]
    fn empty_grid_answers_empty() {
        let g: SpatialGrid<()> = SpatialGrid::build(Vec::new(), 100.0);
        assert!(g.is_empty());
        assert_eq!(query(&g, Meters::new(3.0, 4.0), 5), (vec![], None));
    }

    #[test]
    fn single_point_found_from_anywhere() {
        let pts = [Meters::new(10.0, -20.0)];
        let g = grid_of(&pts, 100.0);
        for pos in [Meters::new(0.0, 0.0), Meters::new(-9e5, 7e5), pts[0]] {
            let (k, l1) = query(&g, pos, 3);
            assert_eq!(k, vec![0]);
            assert_eq!(l1.map(|(i, _)| i), Some(0));
        }
    }

    #[test]
    fn ties_resolve_to_lowest_insertion_index() {
        // Four coincident points plus a nearer singleton.
        let pts = [
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(50.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
        ];
        let pos = Meters::new(0.0, 0.0);
        assert_eq!(query(&grid_of(&pts, 30.0), pos, 3), (vec![2, 0, 1], Some((2, 50.0))));
        // Without the singleton the L1 tie among the rest goes to
        // insertion index 0, and `k = 0` leaves the k side empty.
        let rest = [pts[0], pts[1], pts[3], pts[4]];
        assert_eq!(query(&grid_of(&rest, 30.0), pos, 0), (vec![], Some((0, 100.0))));
    }

    #[test]
    fn degenerate_cell_size_is_rescued() {
        // A millimetre cell over a 10 km span would want 10^14 cells;
        // the builder must coarsen instead of allocating that.
        let pts: Vec<Meters> =
            (0..100).map(|i| Meters::new(i as f64 * 100.0, 0.0)).collect();
        let g = grid_of(&pts, 0.001);
        assert!(g.cell_size() > 0.001);
        let pos = Meters::new(4_321.0, 5.0);
        assert_eq!(query(&g, pos, 1).0, brute_k(&pts, pos, 1));
    }

    #[test]
    fn matches_brute_force_on_a_lattice_with_duplicates() {
        // Points exactly on cell boundaries, including duplicates.
        let mut pts = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
                pts.push(Meters::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        pts.extend_from_slice(&pts.clone()[..40]);
        let g = grid_of(&pts, 100.0);
        for pos in [
            Meters::new(0.0, 0.0),
            Meters::new(550.0, 550.0),
            Meters::new(600.0, 600.0), // exactly on a lattice point
            Meters::new(-250.0, 1_800.0), // outside the bbox
        ] {
            let (k, l1) = query(&g, pos, 10);
            assert_eq!(k, brute_k(&pts, pos, 10), "pos {pos:?}");
            assert_eq!(l1, brute_l1(&pts, pos, f64::INFINITY), "pos {pos:?}");
        }
    }

    /// The fused kernel answers exactly like the brute-force scans, `k =
    /// 0` included, across 3 seeds with scratch and output buffers reused
    /// across queries — on fresh grids and on one grid `rebuild`-ed in
    /// place round after round.
    #[test]
    fn fused_kernel_and_rebuild_match_brute_force_across_seeds() {
        let mut scratch = GridScratch::new();
        let mut out = Vec::new();
        let mut reused: SpatialGrid<()> = SpatialGrid::empty();
        for seed in [2026u64, 777, 0xDEAD] {
            let mut rng = XorShift::new(seed);
            for round in 0..12 {
                let n = (rng.next_u64() % 150) as usize;
                let pts: Vec<Meters> = (0..n)
                    .map(|_| Meters::new(rng.f64_in(-2_500.0, 2_500.0), rng.f64_in(-2_500.0, 2_500.0)))
                    .collect();
                let cell = 40.0 + (rng.next_u64() % 400) as f64;
                let fresh = grid_of(&pts, cell);
                reused.rebuild(pts.iter().map(|p| (*p, ())), cell);
                for _ in 0..8 {
                    let pos =
                        Meters::new(rng.f64_in(-3_000.0, 3_000.0), rng.f64_in(-3_000.0, 3_000.0));
                    let k = (rng.next_u64() % 12) as usize;
                    let want_k = brute_k(&pts, pos, k);
                    let want_l1 = brute_l1(&pts, pos, f64::INFINITY).map(|(i, d)| (i, d.to_bits()));
                    for (name, g) in [("fresh", &fresh), ("rebuilt", &reused)] {
                        let l1 = g.k_nearest_and_l1_into(pos, k, &mut scratch, &mut out);
                        assert_eq!(out, want_k, "{name} k side: seed {seed} round {round} k {k}");
                        assert_eq!(
                            l1.map(|(i, d)| (i, d.to_bits())),
                            want_l1,
                            "{name} l1 side: seed {seed} round {round}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scan::tests::{brute_k, brute_l1};
    use proptest::prelude::*;

    // Snapped coordinates land points exactly on cell boundaries and
    // create duplicates — the tie-break and edge cases that matter.
    fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<Meters>> {
        proptest::collection::vec((-2_000.0f64..2_000.0, -2_000.0f64..2_000.0), 0..max_len)
            .prop_map(|v| {
                v.into_iter()
                    .map(|(x, y)| Meters::new((x / 100.0).round() * 100.0, (y / 100.0).round() * 100.0))
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused ring expansion visits the union of the rings either
        /// question alone would need; both answers must stay exact on
        /// arbitrary inputs.
        #[test]
        fn fused_kernel_matches_brute_force(
            pts in arb_points(120),
            qx in -3_000.0f64..3_000.0,
            qy in -3_000.0f64..3_000.0,
            k in 0usize..12,
            cell in 40.0f64..400.0,
        ) {
            let g = SpatialGrid::build(pts.iter().map(|p| (*p, ())).collect::<Vec<_>>(), cell);
            let pos = Meters::new(qx, qy);
            let mut scratch = GridScratch::new();
            let mut out = Vec::new();
            let l1 = g.k_nearest_and_l1_into(pos, k, &mut scratch, &mut out);
            prop_assert_eq!(out, brute_k(&pts, pos, k));
            prop_assert_eq!(
                l1.map(|(i, d)| (i, d.to_bits())),
                brute_l1(&pts, pos, f64::INFINITY).map(|(i, d)| (i, d.to_bits()))
            );
        }
    }
}
