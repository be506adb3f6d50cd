//! Linear nearest-car scan over one tier's frozen positions.
//!
//! Every pingClient answer asks two questions per tier: the *k nearest
//! cars* to the client (the nearest-8 the app shows) and the *nearest car
//! by rectilinear distance* (its EWT). A tier holds a few dozen visible
//! cars at the busiest hour of an SF day (UberX: mean 58, max 109; every
//! other tier at most 27), so one pass over its contiguous positions
//! answers both faster than building and walking a bucket grid would.
//! [`k_nearest_and_l1_scan`] is that pass; an EWT-only lookup is the same
//! call with `k = 0`.
//!
//! Answers are exact, ties included: the k nearest come out ordered by
//! `(squared distance, index)` — what a stable sort of every point by
//! distance yields — and the L1 winner is the lowest index among the
//! closest, what a first-strictly-less scan yields.

use crate::project::Meters;

/// One linear pass answering both of pingClient's per-tier questions.
///
/// The `k` nearest points by Euclidean distance land in `nearest` as
/// `(squared distance, index)`, ordered by distance via `total_cmp`, then
/// index. The return value is the point minimizing `(L1 distance,
/// index)`, as `(index, L1 distance)`; the L1 metric matches the city
/// model's rectilinear drive metric. Indices count from 0 in iteration
/// order. With `k = 0` only the L1 side runs. `nearest` keeps its
/// capacity across calls, so a reused buffer stops allocating once it has
/// held `k` entries.
pub fn k_nearest_and_l1_scan(
    points: impl IntoIterator<Item = Meters>,
    pos: Meters,
    k: usize,
    nearest: &mut Vec<(f64, usize)>,
) -> Option<(usize, f64)> {
    nearest.clear();
    let mut best_l1: Option<(usize, f64)> = None;
    // Once `nearest` holds k entries, the distance a newcomer must beat.
    let mut bar = f64::INFINITY;
    for (i, p) in points.into_iter().enumerate() {
        let dx = p.x - pos.x;
        let dy = p.y - pos.y;
        // Indices ascend, so a strict `<` keeps the lowest index on a tie.
        let dist = dx.abs() + dy.abs();
        if best_l1.is_none_or(|(_, bd)| dist < bd) {
            best_l1 = Some((i, dist));
        }
        if k == 0 {
            continue;
        }
        // Same op order as `Meters::dist2`: bit-identical distances.
        let d2 = dx * dx + dy * dy;
        if nearest.len() < k {
            nearest.push((d2, i));
        } else if before(d2, bar) {
            nearest[k - 1] = (d2, i);
        } else {
            continue;
        }
        // Sink the newcomer past every strictly farther entry; entries of
        // equal distance have lower indices and stay ahead of it.
        let mut j = nearest.len() - 1;
        while j > 0 && before(d2, nearest[j - 1].0) {
            nearest.swap(j - 1, j);
            j -= 1;
        }
        if nearest.len() == k {
            bar = nearest[k - 1].0;
        }
    }
    best_l1
}

/// `a.total_cmp(&b).is_lt()`, as a plain `<` unless a NaN is involved.
/// The two orders also part on `-0.0 < +0.0`, but a squared distance is
/// never `-0.0`.
#[inline(always)]
fn before(a: f64, b: f64) -> bool {
    a < b || ((a.is_nan() || b.is_nan()) && a.total_cmp(&b).is_lt())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Stable sort of every point by squared distance: ties stay in
    /// index order, the contract both kernels must reproduce.
    pub(crate) fn brute_k(points: &[Meters], pos: Meters, k: usize) -> Vec<usize> {
        let mut v: Vec<(f64, usize)> =
            points.iter().enumerate().map(|(i, p)| (p.dist2(pos), i)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.truncate(k);
        v.into_iter().map(|(_, i)| i).collect()
    }

    /// First-strictly-less L1 scan in index order, within `max_dist`.
    pub(crate) fn brute_l1(points: &[Meters], pos: Meters, max_dist: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in points.iter().enumerate() {
            let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
            if dist <= max_dist && best.is_none_or(|(_, bd)| dist < bd) {
                best = Some((i, dist));
            }
        }
        best
    }

    /// Tiny deterministic PRNG for the seeded equivalence sweeps (the geo
    /// crate deliberately has no RNG dependency).
    pub(crate) struct XorShift(u64);
    impl XorShift {
        pub(crate) fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }
        pub(crate) fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        /// Uniform in `[lo, hi)`, coarsely quantized (ties on purpose).
        pub(crate) fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let v = lo + u * (hi - lo);
            (v / 50.0).round() * 50.0
        }
    }

    /// The scan's two answers for one query, distances as bits.
    fn scan(pts: &[Meters], pos: Meters, k: usize) -> (Vec<usize>, Option<(usize, u64)>) {
        let mut nearest = Vec::new();
        let l1 = k_nearest_and_l1_scan(pts.iter().copied(), pos, k, &mut nearest);
        assert!(nearest.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()), "{nearest:?}");
        for &(d2, i) in &nearest {
            assert_eq!(d2.to_bits(), pts[i].dist2(pos).to_bits(), "distance of {i}");
        }
        (nearest.into_iter().map(|(_, i)| i).collect(), l1.map(|(i, d)| (i, d.to_bits())))
    }

    fn want(pts: &[Meters], pos: Meters, k: usize) -> (Vec<usize>, Option<(usize, u64)>) {
        let l1 = brute_l1(pts, pos, f64::INFINITY).map(|(i, d)| (i, d.to_bits()));
        (brute_k(pts, pos, k), l1)
    }

    #[test]
    fn empty_input_and_zero_k() {
        let pos = Meters::new(3.0, 4.0);
        assert_eq!(scan(&[], pos, 8), (vec![], None));
        assert_eq!(scan(&[], pos, 0), (vec![], None));
        let pts = [Meters::new(10.0, -20.0), Meters::new(1.0, 1.0)];
        let (k, l1) = scan(&pts, pos, 0);
        assert!(k.is_empty(), "k = 0 keeps nothing");
        assert_eq!(l1.map(|(i, _)| i), Some(1));
    }

    #[test]
    fn fewer_points_than_k_returns_them_all_in_order() {
        let pts = [Meters::new(300.0, 0.0), Meters::new(100.0, 0.0), Meters::new(200.0, 0.0)];
        let pos = Meters::new(0.0, 0.0);
        assert_eq!(scan(&pts, pos, 8), (vec![1, 2, 0], Some((1, 100f64.to_bits()))));
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        // Four coincident points plus a nearer singleton.
        let pts = [
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(50.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
        ];
        let pos = Meters::new(0.0, 0.0);
        assert_eq!(scan(&pts, pos, 3), (vec![2, 0, 1], Some((2, 50f64.to_bits()))));
        // Without the singleton every distance ties: index order wins on
        // both sides, for any k.
        let rest = [pts[0], pts[1], pts[3], pts[4]];
        assert_eq!(scan(&rest, pos, 2), (vec![0, 1], Some((0, 100f64.to_bits()))));
        // An L1 tie between different points (3 + 4 = 7 = 0 + 7) also
        // goes to the lower index, while L2 ranks them apart.
        let skew = [Meters::new(0.0, 7.0), Meters::new(3.0, 4.0)];
        assert_eq!(scan(&skew, pos, 2), (vec![1, 0], Some((0, 7f64.to_bits()))));
    }

    #[test]
    fn nan_distances_order_as_total_cmp() {
        // A NaN coordinate gives a NaN distance; `total_cmp` ranks a
        // positive NaN after every number and a negative one before.
        let pos = Meters::new(0.0, 0.0);
        for nan in [f64::NAN, -f64::NAN] {
            let pts = [
                Meters::new(5.0, 0.0),
                Meters::new(nan, 0.0),
                Meters::new(1.0, 0.0),
                Meters::new(3.0, 0.0),
            ];
            for k in 0..6 {
                assert_eq!(scan(&pts, pos, k).0, brute_k(&pts, pos, k), "nan {nan} k {k}");
            }
        }
    }

    /// Seeded sweep against the full-sort reference: quantized points
    /// (many exact ties), k from 0 past n, n from 0 to 160, with one
    /// buffer reused across every query.
    #[test]
    fn matches_full_sort_across_seeds() {
        let mut nearest = Vec::new();
        for seed in [2026u64, 777, 0xDEAD, 14] {
            let mut rng = XorShift::new(seed);
            for round in 0..16 {
                let n = (rng.next_u64() % 161) as usize;
                let pts: Vec<Meters> = (0..n)
                    .map(|_| {
                        Meters::new(rng.f64_in(-2_500.0, 2_500.0), rng.f64_in(-2_500.0, 2_500.0))
                    })
                    .collect();
                for _ in 0..8 {
                    let pos =
                        Meters::new(rng.f64_in(-3_000.0, 3_000.0), rng.f64_in(-3_000.0, 3_000.0));
                    let k = (rng.next_u64() % 13) as usize;
                    assert_eq!(
                        scan(&pts, pos, k),
                        want(&pts, pos, k),
                        "seed {seed} round {round} k {k}"
                    );
                    let l1 = k_nearest_and_l1_scan(pts.iter().copied(), pos, k, &mut nearest);
                    assert_eq!(
                        nearest.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
                        brute_k(&pts, pos, k),
                        "reused buffer: seed {seed} round {round} k {k}"
                    );
                    assert_eq!(l1.map(|(i, _)| i), want(&pts, pos, k).1.map(|(i, _)| i));
                }
            }
        }
    }
}
