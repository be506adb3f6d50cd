//! Surge forecasting (§5.4, Table 1).
//!
//! Three linear models predict the next interval's multiplier from the
//! current interval's `(supply − demand, EWT, multiplier)`:
//!
//! * **Raw** — fitted on the full (cleaned) series;
//! * **Threshold** — only on rows whose current multiplier is > 1 ("we
//!   know less about the state of the system when surge is 1");
//! * **Rush** — only rush-hour rows (6–10 a.m., 4–8 p.m.).
//!
//! Cleaning (paper footnote 7): rows whose *target* is 1 are dropped
//! before fitting — predicting "no surge" is trivially easy and would
//! inflate R² — except when the interval directly precedes or follows a
//! surged one.

use surgescope_analysis::ols::{self, OlsFit};
use surgescope_simcore::SimTime;

/// Which Table 1 column a dataset corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFilter {
    /// Full cleaned series.
    Raw,
    /// Only rows with current multiplier > 1.
    Threshold,
    /// Only rush-hour rows.
    Rush,
}

impl ModelFilter {
    /// Display label matching the paper's table.
    pub fn label(self) -> &'static str {
        match self {
            ModelFilter::Raw => "Raw",
            ModelFilter::Threshold => "Threshold",
            ModelFilter::Rush => "Rush",
        }
    }
}

/// One fitted Table 1 cell.
#[derive(Debug, Clone)]
pub struct ForecastFit {
    /// θ for (supply − demand).
    pub theta_sd_diff: f64,
    /// θ for EWT.
    pub theta_ewt: f64,
    /// θ for the previous multiplier.
    pub theta_prev_surge: f64,
    /// In-sample R².
    pub r2: f64,
    /// Rows used.
    pub n: usize,
}

/// Builds the regression rows for one surge area.
///
/// Inputs are per-interval series of equal length: measured supply,
/// measured deaths (demand), mean EWT and the multiplier. Row `t`
/// predicts `surge[t+1]` from interval `t`'s features.
pub fn build_rows(
    supply: &[u32],
    demand: &[u32],
    ewt: &[f32],
    surge: &[f32],
    filter: ModelFilter,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = supply.len().min(demand.len()).min(ewt.len()).min(surge.len());
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for t in 0..n.saturating_sub(1) {
        let y = surge[t + 1] as f64;
        let cur = surge[t] as f64;
        // Footnote 7: drop target==1 rows unless adjacent to a surge.
        if y <= 1.0 {
            let prev_surged = cur > 1.0;
            let next_surged = t + 2 < n && surge[t + 2] > 1.0;
            if !prev_surged && !next_surged {
                continue;
            }
        }
        match filter {
            ModelFilter::Raw => {}
            ModelFilter::Threshold => {
                if cur <= 1.0 {
                    continue;
                }
            }
            ModelFilter::Rush => {
                let start = SimTime((t as u64) * 300);
                if !start.is_rush_hour() {
                    continue;
                }
            }
        }
        rows.push(vec![supply[t] as f64 - demand[t] as f64, ewt[t] as f64, cur]);
        ys.push(y);
    }
    (rows, ys)
}

/// Fits one Table 1 cell from pre-built rows. `None` when the filtered
/// dataset is too small or singular.
pub fn fit(rows: &[Vec<f64>], ys: &[f64]) -> Option<ForecastFit> {
    let OlsFit { model, r2, n } = ols::fit(rows, ys)?;
    Some(ForecastFit {
        theta_sd_diff: model.coeffs[0],
        theta_ewt: model.coeffs[1],
        theta_prev_surge: model.coeffs[2],
        r2,
        n,
    })
}

/// One area's per-interval `(supply, demand, ewt, surge)` series.
pub type AreaSeries = (Vec<u32>, Vec<u32>, Vec<f32>, Vec<f32>);

/// Convenience: builds rows for several areas, concatenates, fits.
pub fn fit_city(
    per_area: &[AreaSeries],
    filter: ModelFilter,
) -> Option<ForecastFit> {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for (supply, demand, ewt, surge) in per_area {
        let (mut r, mut y) = build_rows(supply, demand, ewt, surge, filter);
        rows.append(&mut r);
        ys.append(&mut y);
    }
    fit(&rows, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic area where surge follows a noisy linear rule, so the
    /// fit should recover positive prev-surge dependence and R² ∈ (0, 1).
    fn synthetic_area(len: usize) -> (Vec<u32>, Vec<u32>, Vec<f32>, Vec<f32>) {
        let mut supply = Vec::with_capacity(len);
        let mut demand = Vec::with_capacity(len);
        let mut ewt = Vec::with_capacity(len);
        let mut surge = Vec::with_capacity(len);
        let mut m: f32 = 1.0;
        for t in 0..len {
            let s = 20 + ((t * 13) % 17) as u32;
            let d = 10 + ((t * 7919) % 23) as u32;
            let w = 3.0 + ((t * 31) % 7) as f32;
            supply.push(s);
            demand.push(d);
            ewt.push(w);
            surge.push(m);
            // Next multiplier: depends on slack and EWT plus hash noise.
            let slack = s as f32 - d as f32;
            let noise = (((t * 2654435761) % 100) as f32 - 50.0) / 200.0;
            m = (1.0 + (8.0 - slack * 0.1).max(0.0) * 0.05 + (w - 4.0).max(0.0) * 0.08 + noise)
                .clamp(1.0, 3.0);
            m = (m * 10.0).round() / 10.0;
        }
        (supply, demand, ewt, surge)
    }

    #[test]
    fn build_rows_drops_trivial_no_surge_rows() {
        let supply = vec![10u32; 10];
        let demand = vec![5u32; 10];
        let ewt = vec![3.0f32; 10];
        // Flat 1.0 series: everything is a trivial row.
        let surge = vec![1.0f32; 10];
        let (rows, ys) = build_rows(&supply, &demand, &ewt, &surge, ModelFilter::Raw);
        assert!(rows.is_empty() && ys.is_empty());
    }

    #[test]
    fn build_rows_keeps_surge_boundaries() {
        let supply = vec![10u32; 6];
        let demand = vec![5u32; 6];
        let ewt = vec![3.0f32; 6];
        // One surged interval at t=3.
        let surge = vec![1.0, 1.0, 1.0, 1.8, 1.0, 1.0];
        let (rows, ys) = build_rows(&supply, &demand, &ewt, &surge, ModelFilter::Raw);
        // Kept rows: t=2 (y=1.8), t=3 (y=1, prev surged), t=1 (y=1 but
        // next-next surged per footnote-7 adjacency).
        assert_eq!(rows.len(), ys.len());
        assert!(ys.iter().any(|y| (y - 1.8).abs() < 1e-6));
        assert_eq!(rows.len(), 3, "rows: {ys:?}");
    }

    #[test]
    fn threshold_filter_stricter_than_raw() {
        let area = synthetic_area(2000);
        let (raw_rows, _) = build_rows(&area.0, &area.1, &area.2, &area.3, ModelFilter::Raw);
        let (thr_rows, _) =
            build_rows(&area.0, &area.1, &area.2, &area.3, ModelFilter::Threshold);
        assert!(thr_rows.len() < raw_rows.len());
        assert!(!thr_rows.is_empty());
    }

    #[test]
    fn rush_filter_selects_rush_hours() {
        let area = synthetic_area(2000);
        let (rows, _) = build_rows(&area.0, &area.1, &area.2, &area.3, ModelFilter::Rush);
        // 8 of 24 hours are rush: roughly a third of the rows, give or
        // take the surge-dependent cleaning.
        let (raw_rows, _) = build_rows(&area.0, &area.1, &area.2, &area.3, ModelFilter::Raw);
        assert!(!rows.is_empty());
        assert!(rows.len() < raw_rows.len());
    }

    #[test]
    fn fit_recovers_signal_but_not_perfectly() {
        let area = synthetic_area(3000);
        let fit = fit_city(&[area], ModelFilter::Raw).expect("fit");
        assert!(fit.n > 100);
        // The synthetic rule has noise: R² must be informative but < 1 —
        // the paper's central finding is that forecasting is hard.
        assert!(fit.r2 > 0.05 && fit.r2 < 0.95, "r2={}", fit.r2);
    }

    #[test]
    fn fit_none_on_degenerate_data() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 1.0, 1.0]; 5];
        let ys = vec![1.0; 5];
        assert!(fit(&rows, &ys).is_none(), "constant predictors are singular");
    }
}
