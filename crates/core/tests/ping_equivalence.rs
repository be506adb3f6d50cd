//! Regression lock backing the `ping_one_into` doc claim: the measurement
//! fan-out renders observations from the tick's render table (skipping
//! the wire response entirely), and that shortcut must stay
//! **byte-identical** to the honest pipeline — materialize a full
//! `ping_client` wire response, then convert its `TypeStatus` blocks into
//! `TypeObservation`s the way a real measurement client would. Any drift
//! here (a missed perturbation, a reordered tier, a different projection,
//! a stale table row) silently changes every downstream estimate.

use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{response_to_observations, MeasuredSystem, TypeObservation, UberSystem};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{ticks_late, FaultOutcome, FaultPlan, SimDuration, SimRng};

const SEED: u64 = 2026;
const FAULT_SEED: u64 = 91;
const TICKS: u64 = 24;

/// Runs an SF fleet for [`TICKS`] ticks through `api` and `plan`, and
/// checks every client's blocks against the wire pipeline: the fresh
/// response converted now (if delivered), then each delayed response
/// converted against its *send-time* snapshot, in send order. The fault
/// draws are replayed from the seed `UberSystem::with_faults` uses.
/// Returns how many late blocks arrived, so callers can rule out a
/// vacuous run.
fn assert_matches_wire(api: ApiService, plan: FaultPlan) -> usize {
    let city = CityModel::san_francisco_downtown();
    let proj = city.projection;
    let clients = placement(&city.measurement_region, city.client_spacing_m);
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), SEED);
    // Midday-ish fleet so every tier shows cars and surge is in play.
    mp.run_for(SimDuration::hours(6));
    let ping = api.ping_config();
    let tick_secs = mp.config().tick_secs;
    let mut sys = UberSystem::new(mp, api).with_faults(plan, FAULT_SEED);
    let mut fault_rng = SimRng::seed_from_u64(FAULT_SEED).split("transport-faults");

    // `(due tick, client, converted send-time response)`, in send order.
    let mut in_flight: Vec<(u64, usize, Vec<TypeObservation>)> = Vec::new();
    let mut late = 0;
    let mut obs = Vec::new();
    for tick in 0..TICKS {
        sys.advance_tick();
        let snap = sys.tick_snapshot();
        sys.ping_all_into(&clients, &mut obs);
        let mut want: Vec<Vec<TypeObservation>> = vec![Vec::new(); clients.len()];
        for (i, c) in clients.iter().enumerate() {
            // The honest client-side pipeline — the exact conversion the
            // remote (socket) measurement client applies to each
            // `pingClient` response.
            let resp = ping.ping_client(&snap, c.key, proj.to_latlng(c.position));
            let converted = response_to_observations(&resp, &proj);
            match if plan.is_none() { FaultOutcome::Deliver } else { plan.decide(&mut fault_rng) } {
                FaultOutcome::Deliver => want[i] = converted,
                FaultOutcome::Delay(d) => {
                    in_flight.push((tick + ticks_late(d, tick_secs), i, converted))
                }
                FaultOutcome::Drop => {}
            }
        }
        // Due arrivals leave in `(sent tick, client)` order.
        in_flight.retain(|(due, i, blocks)| {
            if *due != tick {
                return true;
            }
            late += 1;
            want[*i].extend(blocks.iter().cloned());
            false
        });
        for (i, c) in clients.iter().enumerate() {
            // Byte-level comparison (via serialization) rather than
            // `PartialEq`: a NaN gap must also match bit-for-bit.
            assert_eq!(
                serde_json::to_string(&obs[i]).expect("serialize direct observations"),
                serde_json::to_string(&want[i]).expect("serialize converted response"),
                "tick {tick}: client {} diverged from its wire-response conversion",
                c.key
            );
        }
    }
    late
}

#[test]
fn ping_all_matches_wire_response_conversion() {
    assert_matches_wire(ApiService::new(ProtocolEra::Apr2015, SEED), FaultPlan::none());
}

/// With driver-safety noise every shown position is perturbed per (car,
/// tick): the table must render the same perturbation the wire carries.
#[test]
fn perturbed_positions_match_wire_response_conversion() {
    let api = ApiService::new(ProtocolEra::Apr2015, SEED).with_location_noise(50.0);
    assert_matches_wire(api, FaultPlan::none());
}

/// Delayed responses are rendered from their send tick's table and reach
/// the client up to three ticks later, behind that tick's fresh answer;
/// some pings are dropped. Noise stays on, so a row rendered against the
/// wrong tick would show.
#[test]
fn delayed_and_dropped_pings_match_wire_response_conversion() {
    let api = ApiService::new(ProtocolEra::Apr2015, SEED).with_location_noise(50.0);
    let plan = FaultPlan { drop_chance: 0.1, delay_chance: 0.3, max_delay_secs: 15 }.validated();
    let late = assert_matches_wire(api, plan);
    assert!(late > 100, "only {late} late responses arrived; the delay path went untested");
}
