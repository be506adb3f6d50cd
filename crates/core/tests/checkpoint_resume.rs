//! End-to-end checkpoint / resume / replay determinism.
//!
//! The contract under test: a campaign interrupted at a tick boundary and
//! resumed from its checkpoint produces a `CampaignData` that is
//! **bit-identical** (NaN payloads included) to the uninterrupted run —
//! under a clean transport AND under `FaultPlan::laggy` (non-empty
//! in-flight queue at the checkpoint), at parallelism 1 and 4 — and that
//! a finished event log replays into the same bytes without re-simulation.
//!
//! Equality is asserted on `persist::campaign_encoded`, the canonical
//! byte encoding in which equal bytes ⇔ deep bit-exact equality.

use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use surgescope_api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope_city::CityModel;
use surgescope_core::persist::{campaign_encoded, campaign_to_value, replay_campaign};
use surgescope_core::{CampaignConfig, CampaignRunner, StoreHooks};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{FaultPlan, SimDuration};
use surgescope_store::{StoreError, MAX_DEPTH};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "surgescope-ckpt-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn base_cfg(faults: FaultPlan, hours: u64) -> CampaignConfig {
    CampaignConfig { hours, faults, ..CampaignConfig::test_default(77) }
}

/// Runs the scenario end to end: uninterrupted baseline, interrupted run
/// checkpointed at the half-way tick boundary, resumes at parallelism
/// 1 and 4.
fn scenario(tag: &str, faults: FaultPlan, hours: u64) {
    let city = CityModel::manhattan_midtown();
    let half_ticks = hours as usize * 720 / 2; // 720 five-second ticks/hour

    // Uninterrupted baseline (serial), streamed into a log.
    let baseline_log = temp_path(&format!("{tag}-baseline.sslog"));
    let mut cfg = base_cfg(faults, hours);
    cfg.store.log_path = Some(baseline_log.clone());
    let mut runner = CampaignRunner::new(city.clone(), &cfg).unwrap();
    runner.run_to_end().unwrap();
    let baseline = runner.finish().unwrap();
    let baseline_bytes = campaign_encoded(&baseline);

    // Replay: the log alone reconstructs the same bytes, no simulation.
    let replayed = replay_campaign(&baseline_log).unwrap();
    assert_eq!(
        campaign_encoded(&replayed),
        baseline_bytes,
        "{tag}: replay of the event log diverged from the live campaign"
    );

    // Interrupted run: different parallelism, checkpoint at mid-campaign,
    // then the process "crashes" (runner dropped, only the file survives).
    let ckpt = temp_path(&format!("{tag}.ckpt"));
    let mut cfg = base_cfg(faults, hours);
    cfg.parallelism = 4;
    cfg.store.checkpoint_path = Some(ckpt.clone());
    let mut partial = CampaignRunner::new(city, &cfg).unwrap();
    for _ in 0..half_ticks {
        partial.tick().unwrap();
    }
    if faults.delay_chance > 0.0 {
        assert!(
            partial.in_flight() > 0,
            "{tag}: laggy plan should leave messages in flight at the checkpoint"
        );
    }
    partial.write_checkpoint().unwrap();
    drop(partial);

    // Resume at parallelism 1 and 4; both must hit the baseline bytes,
    // and the rewritten log must replay to them as well.
    for threads in [1usize, 4] {
        let log = temp_path(&format!("{tag}-resume{threads}.sslog"));
        let hooks = StoreHooks { log_path: Some(log.clone()), ..StoreHooks::none() };
        let mut resumed = CampaignRunner::resume_from_file(&ckpt, threads, hooks).unwrap();
        assert_eq!(resumed.ticks_done(), half_ticks);
        resumed.run_to_end().unwrap();
        let data = resumed.finish().unwrap();
        assert_eq!(
            campaign_encoded(&data),
            baseline_bytes,
            "{tag}: resume at parallelism {threads} diverged from the uninterrupted run"
        );
        let rewound = replay_campaign(&log).unwrap();
        assert_eq!(
            campaign_encoded(&rewound),
            baseline_bytes,
            "{tag}: log rewritten on resume (parallelism {threads}) replays differently"
        );
        let _ = std::fs::remove_file(&log);
    }
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&baseline_log);
}

#[test]
fn clean_campaign_checkpoint_resume_bit_identical() {
    scenario("clean", FaultPlan::none(), 2);
}

#[test]
fn laggy_campaign_checkpoint_resume_bit_identical() {
    // Delays park responses in the transport queue across the checkpoint
    // boundary; drops punch NaN gaps whose bit patterns must survive.
    scenario(
        "laggy",
        FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 },
        2,
    );
}

/// The verify-script gate: a 4-hour campaign checkpointed at the 2-hour
/// boundary, resumed, and diffed bit-for-bit against the uninterrupted
/// run. Ignored by default (it simulates 4 campaign-hours four times
/// over); `scripts/verify.sh` runs it explicitly with `-- --ignored`.
#[test]
#[ignore = "release-mode gate, run by scripts/verify.sh"]
fn four_hour_campaign_checkpoint_at_two_hours_gate() {
    scenario(
        "gate-4h",
        FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 },
        4,
    );
}

#[test]
fn truncated_log_errors_cleanly() {
    let city = CityModel::manhattan_midtown();
    let log = temp_path("trunc.sslog");
    let mut cfg = CampaignConfig { hours: 1, ..CampaignConfig::test_default(5) };
    cfg.store.log_path = Some(log.clone());
    let mut runner = CampaignRunner::new(city, &cfg).unwrap();
    runner.run_to_end().unwrap();
    runner.finish().unwrap();

    let full = std::fs::read(&log).unwrap();
    // Chop mid-record: an interrupted write must surface Truncated, and a
    // log cut before its FINISH record must be rejected as incomplete —
    // cleanly, never a panic.
    for cut in [full.len() - 7, full.len() / 2, 30] {
        let t = temp_path("trunc-cut.sslog");
        std::fs::write(&t, &full[..cut]).unwrap();
        let err = match replay_campaign(&t) {
            Err(e) => e,
            Ok(_) => panic!("truncated log must not replay (cut {cut})"),
        };
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Schema(_)),
            "cut at {cut}: unexpected error {err}"
        );
        let _ = std::fs::remove_file(&t);
    }
    let _ = std::fs::remove_file(&log);
}

#[test]
fn corrupted_log_fails_crc_cleanly() {
    let city = CityModel::manhattan_midtown();
    let log = temp_path("crc.sslog");
    let mut cfg = CampaignConfig { hours: 1, ..CampaignConfig::test_default(6) };
    cfg.store.log_path = Some(log.clone());
    let mut runner = CampaignRunner::new(city, &cfg).unwrap();
    runner.run_to_end().unwrap();
    runner.finish().unwrap();

    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let err = match replay_campaign(&log) {
        Err(e) => e,
        Ok(_) => panic!("flipped bit must not replay"),
    };
    assert!(
        matches!(err, StoreError::CrcMismatch { .. } | StoreError::Schema(_) | StoreError::Codec(_)),
        "unexpected error {err}"
    );
    let _ = std::fs::remove_file(&log);
}

/// Nesting depth of a value: 0 for a scalar, one more than the deepest
/// child for a sequence or map.
fn depth(v: &Value) -> usize {
    match v {
        Value::Seq(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Map(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The deepest values the program encodes stay well inside the decoder's
/// nesting bound, so the bound can never refuse a real file or frame.
/// A mid-campaign checkpoint with responses in flight carries whole
/// observation blocks inside the transport queue; the finished campaign
/// is what the event log's last record holds; a ping response is the
/// largest wire payload.
#[test]
fn encoded_values_nest_well_inside_the_decode_bound() {
    let faults = FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 };
    let mut runner =
        CampaignRunner::new(CityModel::manhattan_midtown(), &base_cfg(faults, 1)).unwrap();
    for _ in 0..360 {
        runner.tick().unwrap();
    }
    assert!(runner.in_flight() > 0, "the checkpoint must carry in-flight responses");
    let checkpoint = depth(&runner.checkpoint_value());
    runner.run_to_end().unwrap();
    let campaign = depth(&campaign_to_value(&runner.finish().unwrap()));

    let city = CityModel::san_francisco_downtown();
    let center = city.projection.to_latlng(city.measurement_region.centroid());
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 2026);
    mp.run_for(SimDuration::hours(1));
    let api = ApiService::new(ProtocolEra::Apr2015, 2026);
    let response = api.ping_config().ping_client(&WorldSnapshot::of(&mp), 1, center);
    let wire = depth(&response.to_value());

    let deepest = checkpoint.max(campaign).max(wire);
    assert!(
        deepest * 4 <= MAX_DEPTH,
        "depths: checkpoint {checkpoint}, campaign {campaign}, ping response {wire}; \
         MAX_DEPTH {MAX_DEPTH} should be at least four times the deepest"
    );
}
