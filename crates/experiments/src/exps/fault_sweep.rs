//! Robustness ablation: the measurement pipeline under transport faults.
//!
//! The paper's clients rode on real cellular/Wi-Fi links, so some pings
//! never came back and others came back late; §3.3's estimators implicitly
//! claim to tolerate that. This experiment makes the claim quantitative:
//! the same Manhattan campaign is re-run under increasing drop chances
//! (plus a fixed 10% chance of a ≤30 s delay), and the supply estimator is
//! scored against the marketplace's ground truth each time. Faults perturb
//! only the transport — the marketplace evolution is bit-identical across
//! runs — so any drift in the estimate is estimator degradation, not
//! world-level noise.

use crate::cache::{CampaignCache, City};
use crate::{Outcome, RunCtx, TextTable};
use surgescope_api::ProtocolEra;
use surgescope_city::CarType;
use surgescope_core::CampaignConfig;
use surgescope_simcore::FaultPlan;

/// Drop chances swept (the delay leg is fixed at 10% ≤ 30 s).
pub const DROP_CHANCES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// One leg of the sweep: the Manhattan campaign under `drop` drop chance.
/// Shared with the scheduler's needs declaration so the prefetch builds
/// exactly the campaigns the sweep will read.
pub fn sweep_config(ctx: &RunCtx, drop: f64) -> CampaignConfig {
    let hours = if ctx.quick { 6 } else { 24 };
    CampaignConfig {
        seed: ctx.seed ^ 0xFA01,
        hours,
        era: ProtocolEra::Apr2015,
        scale: 0.35,
        parallelism: 1,
        faults: FaultPlan { drop_chance: drop, delay_chance: 0.10, max_delay_secs: 30 },
        ..CampaignConfig::test_default(ctx.seed ^ 0xFA01)
    }
}

/// fault_sweep: estimator error vs ground truth as the drop chance grows.
pub fn fault_sweep(ctx: &RunCtx, cache: &CampaignCache) -> Outcome {
    let mut table = TextTable::new(&[
        "drop",
        "gap frac",
        "meas supply",
        "true idle",
        "ratio",
        "mean EWT (min)",
        "supply drift vs clean",
    ]);
    let mut metrics = Vec::new();
    let mut clean_supply = f64::NAN;
    for drop in DROP_CHANCES {
        let data = cache.campaign_custom(City::Manhattan, sweep_config(ctx, drop), ctx);

        // How much of the series is actually missing (NaN gaps).
        let total = (data.ticks * data.clients.len()) as f64;
        let gaps = data
            .client_surge
            .iter()
            .flatten()
            .filter(|v| v.is_nan())
            .count() as f64;
        let gap_frac = gaps / total.max(1.0);

        // Estimated supply vs the truth the paper never had: mean unique
        // visible UberX per interval vs mean idle drivers per interval.
        let supply = data.estimator.supply_series(CarType::UberX);
        let meas =
            supply.iter().map(|&s| s as f64).sum::<f64>() / supply.len().max(1) as f64;
        let truth_idle = data.truth.intervals.iter().map(|s| s.idle_supply).sum::<f64>()
            / data.intervals.max(1) as f64;
        let ratio = meas / truth_idle.max(1e-9);

        let mean_ewt = data.client_mean_ewt.iter().sum::<f64>()
            / data.client_mean_ewt.len().max(1) as f64;

        if drop == 0.0 {
            clean_supply = meas;
        }
        let drift = (meas - clean_supply).abs() / clean_supply.max(1e-9);

        table.row(vec![
            format!("{drop:.2}"),
            format!("{gap_frac:.3}"),
            format!("{meas:.1}"),
            format!("{truth_idle:.1}"),
            format!("{ratio:.3}"),
            format!("{mean_ewt:.2}"),
            format!("{:.1}%", drift * 100.0),
        ]);
        let pct = (drop * 100.0).round() as u32;
        metrics.push((format!("gap_frac_d{pct:02}"), gap_frac));
        metrics.push((format!("supply_ratio_d{pct:02}"), ratio));
        metrics.push((format!("supply_drift_d{pct:02}"), drift));
    }
    let (h, rows) = table.csv_rows();
    ctx.write_csv("fault_sweep", &h, &rows);
    Outcome {
        id: "fault_sweep",
        title: "Robustness: supply estimation under transport drops and delays",
        table: table.render(),
        metrics,
    }
}
