//! Surge-stream analysis (§5.1–5.2, Figs. 12–17).
//!
//! Operates on the per-client 5-second multiplier series a campaign
//! records, plus the per-interval API reference series:
//!
//! * [`episodes`] — contiguous runs with multiplier > 1, for the duration
//!   CDFs of Fig. 13;
//! * [`change_moments`] — the offset within each 5-minute interval at
//!   which the observed value first changed (Fig. 15);
//! * [`detect_jitter`] — windows where a client deviated from the API
//!   reference toward the *previous* interval's value (Figs. 14, 16);
//! * [`simultaneity`] — how many clients jitter at the same instant
//!   (Fig. 17).

/// Duration (seconds) of every maximal run of multiplier > 1.
///
/// `NaN` entries are transport gaps (dropped pings), not observations: a
/// gap inside a surge episode extends it (the surge did not end just
/// because a ping was lost), but a gap never *starts* an episode.
pub fn episodes(values: &[f32], tick_secs: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut run = 0u64;
    for &v in values {
        if v.is_nan() {
            if run > 0 {
                run += tick_secs;
            }
        } else if v > 1.0 {
            run += tick_secs;
        } else if run > 0 {
            out.push(run);
            run = 0;
        }
    }
    if run > 0 {
        out.push(run);
    }
    out
}

/// For each 5-minute interval (after the first), the offset in seconds at
/// which the observed series first changed value, or `None` if it did not
/// change during that interval.
///
/// `NaN` gaps cannot witness a change: a change is only registered between
/// two *delivered* observations (`NaN != x` is vacuously true and would
/// otherwise turn every gap edge into a spurious change moment).
pub fn change_moments(values: &[f32], tick_secs: u64) -> Vec<Option<u64>> {
    let ticks_per_interval = (300 / tick_secs) as usize;
    let intervals = values.len() / ticks_per_interval;
    let mut out = Vec::with_capacity(intervals.saturating_sub(1));
    for iv in 1..intervals {
        let start = iv * ticks_per_interval;
        // Last delivered value before this interval, if any.
        let mut prev = values[..start].iter().rev().copied().find(|v| !v.is_nan());
        let mut moment = None;
        for k in 0..ticks_per_interval {
            let v = values[start + k];
            if v.is_nan() {
                continue;
            }
            if let Some(p) = prev {
                if v != p {
                    moment = Some(k as u64 * tick_secs);
                    break;
                }
            }
            prev = Some(v);
        }
        out.push(moment);
    }
    out
}

/// One detected stale-data window in a client's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterEvent {
    /// Interval index in which the window occurred.
    pub interval: u64,
    /// Offset of the window start within the interval, seconds.
    pub start_offset: u64,
    /// Window duration, seconds.
    pub duration: u64,
    /// The (stale) multiplier served during the window.
    pub stale_value: f32,
    /// The interval's settled multiplier per the API.
    pub consensus: f32,
}

impl JitterEvent {
    /// Did the stale value *reduce* the price versus the consensus?
    /// (§5.2: jitter lowered prices 64–74% of the time.)
    pub fn is_price_drop(&self) -> bool {
        self.stale_value < self.consensus
    }
}

/// Detects jitter in one client series against the API reference.
///
/// `api_by_interval[iv]` is the settled multiplier of interval `iv`. A run
/// of ticks inside interval `iv` counts as jitter when it (a) does not
/// touch the interval start (that's the ordinary propagation delay),
/// (b) differs from the interval's consensus, (c) equals the *previous*
/// interval's consensus (the signature the paper confirmed with Uber's
/// engineers), and (d) is shorter than 90 s.
///
/// `NaN` gaps cannot witness jitter: a dropped ping says nothing about
/// what the client would have seen, so gaps neither start, extend, nor
/// join deviating runs (`NaN != x` is vacuously true and would otherwise
/// make every gap look like a stale window).
pub fn detect_jitter(
    values: &[f32],
    api_by_interval: &[f32],
    tick_secs: u64,
) -> Vec<JitterEvent> {
    let ticks_per_interval = (300 / tick_secs) as usize;
    let intervals = (values.len() / ticks_per_interval).min(api_by_interval.len());
    let mut out = Vec::new();
    for iv in 1..intervals {
        let consensus = api_by_interval[iv];
        let previous = api_by_interval[iv - 1];
        if consensus == previous {
            continue; // stale data is invisible when nothing changed
        }
        let start = iv * ticks_per_interval;
        let mut k = 0usize;
        while k < ticks_per_interval {
            let v = values[start + k];
            if v.is_nan() || v == consensus {
                k += 1;
                continue;
            }
            // A maximal run of delivered, consensus-deviating ticks; a
            // gap ends the run just as a consensus tick does.
            let run_start = k;
            while k < ticks_per_interval
                && !values[start + k].is_nan()
                && values[start + k] != consensus
            {
                k += 1;
            }
            let run_len = (k - run_start) as u64 * tick_secs;
            let is_delay_run = run_start == 0;
            let matches_previous = values[start + run_start] == previous;
            if !is_delay_run && matches_previous && run_len < 90 {
                out.push(JitterEvent {
                    interval: iv as u64,
                    start_offset: run_start as u64 * tick_secs,
                    duration: run_len,
                    stale_value: values[start + run_start],
                    consensus,
                });
            }
        }
    }
    out
}

/// Histogram of simultaneity: `result[k]` = number of jitter *moments*
/// (5-second ticks inside some client's jitter window) during which
/// exactly `k+1` clients were jittering. Fig. 17 plots the CDF of this.
pub fn simultaneity(per_client_events: &[Vec<JitterEvent>], tick_secs: u64) -> Vec<u64> {
    use std::collections::HashMap;
    // Count jittering clients per absolute tick.
    let mut per_tick: HashMap<u64, u32> = HashMap::new();
    for events in per_client_events {
        for e in events {
            let base = e.interval * 300 + e.start_offset;
            let mut off = 0;
            while off < e.duration {
                *per_tick.entry(base + off).or_insert(0) += 1;
                off += tick_secs;
            }
        }
    }
    let max_k = per_tick.values().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0u64; max_k];
    for (_, k) in per_tick {
        hist[(k - 1) as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 5;

    #[test]
    fn episodes_basic() {
        // 1.0×3, 1.5×4, 1.0×2, 2.0×1
        let mut v = vec![1.0f32; 3];
        v.extend(vec![1.5; 4]);
        v.extend(vec![1.0; 2]);
        v.push(2.0);
        assert_eq!(episodes(&v, T), vec![20, 5]);
    }

    #[test]
    fn episodes_empty_and_flat() {
        assert!(episodes(&[], T).is_empty());
        assert!(episodes(&[1.0; 100], T).is_empty());
        assert_eq!(episodes(&[1.2; 10], T), vec![50]);
    }

    #[test]
    fn change_moment_found() {
        let tpi = 60usize; // ticks per interval at 5 s
        let mut v = vec![1.0f32; tpi]; // interval 0
        let mut iv1 = vec![1.0f32; tpi]; // interval 1: change at tick 7
        for x in iv1.iter_mut().skip(7) {
            *x = 1.5;
        }
        v.extend(iv1);
        let moments = change_moments(&v, T);
        assert_eq!(moments, vec![Some(35)]);
    }

    #[test]
    fn change_moment_none_when_flat() {
        let v = vec![1.3f32; 120];
        assert_eq!(change_moments(&v, T), vec![None]);
    }

    #[test]
    fn jitter_detected_mid_interval() {
        let tpi = 60usize;
        // Interval 0 at 1.5, interval 1 at 1.0, with a 25 s stale window
        // back to 1.5 at offset 100 s.
        let mut v = vec![1.5f32; tpi];
        let mut iv1 = vec![1.0f32; tpi];
        iv1[20..25].fill(1.5);
        v.extend(iv1);
        let api = vec![1.5f32, 1.0];
        let events = detect_jitter(&v, &api, T);
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.interval, 1);
        assert_eq!(e.start_offset, 100);
        assert_eq!(e.duration, 25);
        assert_eq!(e.stale_value, 1.5);
        assert!(!e.is_price_drop(), "stale 1.5 vs consensus 1.0 raises price");
    }

    #[test]
    fn jitter_price_drop_case() {
        let tpi = 60usize;
        // Interval 0 at 1.0, interval 1 surged to 2.0; stale window back
        // to 1.0 is a price drop for the lucky client.
        let mut v = vec![1.0f32; tpi];
        let mut iv1 = vec![2.0f32; tpi];
        iv1[30..35].fill(1.0);
        v.extend(iv1);
        let events = detect_jitter(&v, &[1.0, 2.0], T);
        assert_eq!(events.len(), 1);
        assert!(events[0].is_price_drop());
    }

    #[test]
    fn propagation_delay_not_jitter() {
        let tpi = 60usize;
        // Interval 1 changes value, but the client only catches up after
        // 20 s — a delay run touching the interval start, not jitter.
        let mut v = vec![1.0f32; tpi];
        let mut iv1 = vec![2.0f32; tpi];
        iv1[..4].fill(1.0);
        v.extend(iv1);
        let events = detect_jitter(&v, &[1.0, 2.0], T);
        assert!(events.is_empty(), "delay runs must not count as jitter");
    }

    #[test]
    fn unchanged_interval_hides_stale_data() {
        let v = vec![1.0f32; 120];
        let events = detect_jitter(&v, &[1.0, 1.0], T);
        assert!(events.is_empty());
    }

    #[test]
    fn episodes_gap_extends_but_never_starts() {
        // Surge run 1.5×3 with a NaN gap inside: one episode, not two,
        // and the gap tick counts toward its duration.
        let v = [1.0, 1.5, f32::NAN, 1.5, 1.5, 1.0];
        assert_eq!(episodes(&v, T), vec![20]);
        // Gaps in flat territory never open an episode.
        let flat = [1.0, f32::NAN, f32::NAN, 1.0];
        assert!(episodes(&flat, T).is_empty());
    }

    #[test]
    fn change_moment_gap_is_not_a_change() {
        let tpi = 60usize;
        let mut v = vec![1.0f32; tpi];
        // Interval 1 is flat 1.0 except for dropped pings — no change.
        let mut iv1 = vec![1.0f32; tpi];
        iv1[10] = f32::NAN;
        iv1[11] = f32::NAN;
        v.extend(iv1);
        assert_eq!(change_moments(&v, T), vec![None]);
        // A real change after a gap is stamped at the delivered tick.
        let mut v2 = vec![1.0f32; tpi];
        let mut iv = vec![1.0f32; tpi];
        iv[5] = f32::NAN;
        for x in iv.iter_mut().skip(6) {
            *x = 1.5;
        }
        v2.extend(iv);
        assert_eq!(change_moments(&v2, T), vec![Some(30)]);
    }

    #[test]
    fn jitter_gap_is_not_a_stale_window() {
        let tpi = 60usize;
        // Interval 0 at 1.5, interval 1 at 1.0: dropped pings mid-interval
        // must not masquerade as a stale window.
        let mut v = vec![1.5f32; tpi];
        let mut iv1 = vec![1.0f32; tpi];
        iv1[20..25].fill(f32::NAN);
        v.extend(iv1);
        assert!(detect_jitter(&v, &[1.5, 1.0], T).is_empty());
        // A genuine stale window flanked by gaps is still detected.
        let mut v2 = vec![1.5f32; tpi];
        let mut iv = vec![1.0f32; tpi];
        iv[19] = f32::NAN;
        iv[20..25].fill(1.5);
        iv[25] = f32::NAN;
        v2.extend(iv);
        let events = detect_jitter(&v2, &[1.5, 1.0], T);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].duration, 25);
        assert_eq!(events[0].stale_value, 1.5);
    }

    #[test]
    fn simultaneity_histogram() {
        let e = |interval: u64, start: u64, dur: u64| JitterEvent {
            interval,
            start_offset: start,
            duration: dur,
            stale_value: 1.0,
            consensus: 1.5,
        };
        // Client 0 jitters 100–125; client 1 jitters 110–135: overlap
        // covers 110–125 (3 ticks of 5 s).
        let per_client = vec![vec![e(1, 100, 25)], vec![e(1, 110, 25)]];
        let hist = simultaneity(&per_client, T);
        // Singleton ticks: 100,105 (c0) + 125,130 (c1) = 4; doubles:
        // 110,115,120 = 3.
        assert_eq!(hist, vec![4, 3]);
    }

    #[test]
    fn simultaneity_empty() {
        assert!(simultaneity(&[], T).is_empty());
        assert!(simultaneity(&[vec![], vec![]], T).is_empty());
    }
}
