//! Uniform square-cell geometry shared by both bucket grids.
//!
//! [`SpatialGrid`](crate::SpatialGrid) (CSR, rebuilt per snapshot) and
//! [`DynamicGrid`](crate::DynamicGrid) (per-cell vectors, updated in
//! place) store their points differently but cut the plane the same way.
//! This module holds that common part once: fitting the cell size to a
//! box under a cell-count cap, finding a query's centre cell, walking
//! Chebyshev rings of cells outward from it, and bounding how close any
//! cell beyond the walked rings can be.

use crate::project::Meters;

/// The cell-count cap for `n` points: the cell size doubles until the
/// grid fits under it, so outlier-stretched boxes cannot blow up memory.
pub(crate) fn max_cells(n: usize) -> usize {
    (4 * n).max(1_024)
}

/// A grid of `nx × ny` square cells of edge `size` whose lower-left
/// corner sits at `origin`. Cell `(ix, iy)` has index `iy * nx + ix`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cells {
    pub size: f64,
    pub origin: Meters,
    pub nx: usize,
    pub ny: usize,
}

impl Cells {
    /// Geometry with no cells; queries must not ask it for a centre cell.
    pub fn empty(size: f64) -> Self {
        Cells { size, origin: Meters::new(0.0, 0.0), nx: 0, ny: 0 }
    }

    /// Covers a `w × h` box at `origin` with cells of edge `size`, doubled
    /// as often as needed to stay within [`max_cells`] of `n` points.
    pub fn fit(origin: Meters, w: f64, h: f64, mut size: f64, n: usize) -> Self {
        let cap = max_cells(n);
        loop {
            let nx = (w / size) as usize + 1;
            let ny = (h / size) as usize + 1;
            if nx.saturating_mul(ny) <= cap {
                return Cells { size, origin, nx, ny };
            }
            size *= 2.0;
        }
    }

    /// Total number of cells.
    pub fn count(&self) -> usize {
        self.nx * self.ny
    }

    /// The cell holding `pos`, clamped into the grid (points outside the
    /// box fall into the border cells).
    #[inline]
    pub fn center(&self, pos: Meters) -> (usize, usize) {
        let fx = (pos.x - self.origin.x) / self.size;
        let fy = (pos.y - self.origin.y) / self.size;
        let cx = if fx <= 0.0 { 0 } else { (fx as usize).min(self.nx - 1) };
        let cy = if fy <= 0.0 { 0 } else { (fy as usize).min(self.ny - 1) };
        (cx, cy)
    }

    /// Index of the cell holding `pos`.
    #[inline]
    pub fn index_of(&self, pos: Meters) -> usize {
        let (cx, cy) = self.center(pos);
        cy * self.nx + cx
    }

    /// Calls `f` with the index of every in-grid cell on Chebyshev ring
    /// `r` around `(cx, cy)`: top and bottom rows, then the left and
    /// right columns without the corners.
    #[inline]
    pub fn for_ring(&self, cx: usize, cy: usize, r: usize, mut f: impl FnMut(usize)) {
        if r == 0 {
            f(cy * self.nx + cx);
            return;
        }
        let (cx, cy, r) = (cx as i64, cy as i64, r as i64);
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let x_lo = (cx - r).max(0);
        let x_hi = (cx + r).min(nx - 1);
        for iy in [cy - r, cy + r] {
            if (0..ny).contains(&iy) {
                for ix in x_lo..=x_hi {
                    f((iy * nx + ix) as usize);
                }
            }
        }
        let y_lo = (cy - r + 1).max(0);
        let y_hi = (cy + r - 1).min(ny - 1);
        for ix in [cx - r, cx + r] {
            if (0..nx).contains(&ix) {
                for iy in y_lo..=y_hi {
                    f((iy * nx + ix) as usize);
                }
            }
        }
    }

    /// After visiting rings `0..=r` around `(cx, cy)`: the smallest
    /// possible distance from `pos` to any unvisited in-grid cell. It holds
    /// for L1 and L2 alike, since leaving an axis-aligned box means
    /// crossing one of its sides. `None` means every cell has been visited.
    #[inline]
    pub fn next_ring_bound(&self, pos: Meters, cx: usize, cy: usize, r: usize) -> Option<f64> {
        let (cx, cy, r) = (cx as i64, cy as i64, r as i64);
        let mut bound = f64::INFINITY;
        let mut any = false;
        if cx - r > 0 {
            any = true;
            bound = bound.min(pos.x - (self.origin.x + (cx - r) as f64 * self.size));
        }
        if cx + r + 1 < self.nx as i64 {
            any = true;
            bound = bound.min(self.origin.x + (cx + r + 1) as f64 * self.size - pos.x);
        }
        if cy - r > 0 {
            any = true;
            bound = bound.min(pos.y - (self.origin.y + (cy - r) as f64 * self.size));
        }
        if cy + r + 1 < self.ny as i64 {
            any = true;
            bound = bound.min(self.origin.y + (cy + r + 1) as f64 * self.size - pos.y);
        }
        any.then(|| bound.max(0.0))
    }
}
