//! Summary statistics and output digests.

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based), so `q = 0.5` of `[1, 2, 3, 4]` is 2.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (the mean of the two middle values for an
/// even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The least of `samples` (infinity when there are none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `f` `k` times (at least once) and returns every call's wall
/// time, seconds, with the last call's result. Each earlier result is
/// dropped after its call is timed, so no call's time includes freeing
/// the one before.
pub fn timed_repeats<T>(k: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        let t = std::time::Instant::now();
        let out = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (times, last.expect("at least one call"))
}

/// Tail quantiles a timing may be reported at, highest last.
const TAIL_LADDER: [f64; 3] = [0.9, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it among `n`, or `None` when even p90 has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n - rank(n, q) >= 10)
}

/// A timing distribution: median, tail and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// The value at [`tail_quantile`], or the maximum when the sample is
    /// too small for any tail percentile.
    pub tail: f64,
    /// The quantile `tail` was read at (1.0 for the maximum).
    pub tail_q: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len()).unwrap_or(1.0);
        Summary {
            p50: quantile_sorted(&v, 0.5),
            tail: quantile_sorted(&v, tail_q),
            tail_q,
            n: v.len(),
        }
    }
}

/// 64-bit FNV-1a over a sequence of byte slices.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a length-prefixed part, so `["ab", "c"]` and `["a", "bc"]`
    /// digest differently.
    pub fn part(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one byte string.
pub fn digest(bytes: &[u8]) -> String {
    let mut d = Digest::new();
    d.update(bytes);
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), 2.0);
        assert_eq!(quantile_sorted(&v, 0.75), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn timed_repeats_times_every_call_and_keeps_the_last_result() {
        let mut calls = 0;
        let (times, last) = timed_repeats(3, || {
            calls += 1;
            calls
        });
        assert_eq!((times.len(), last), (3, 3));
        assert!(times.iter().all(|t| *t >= 0.0));
        assert_eq!(timed_repeats(0, || 7).0.len(), 1, "at least one call");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // At the boundary exactly ten samples lie beyond the tail value.
        for n in [100, 1000, 10_000] {
            let q = tail_quantile(n).unwrap();
            assert_eq!(n - rank(n, q), 10);
        }
    }

    #[test]
    fn summary_reports_tail_or_maximum() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.p50, s.tail, s.tail_q, s.n), (500.0, 990.0, 0.99, 1000));
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.tail, small.tail_q), (2.0, 3.0, 1.0));
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn parts_are_length_prefixed() {
        let mut a = Digest::new();
        a.part(b"ab");
        a.part(b"c");
        let mut b = Digest::new();
        b.part(b"a");
        b.part(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
