//! The surge-avoidance strategy (§6, Figs. 23–24).
//!
//! Since short-term surge cannot be forecast, the paper proposes
//! exploiting *current* cross-area price differences: if an adjacent surge
//! area has a lower multiplier `m_a < m_0` and the walk there takes no
//! longer than that area's EWT (`w_a ≤ e_a`), the rider can reserve a car
//! in the adjacent area immediately and walk to the pickup point before
//! it arrives — paying `m_a` instead of `m_0`.
//!
//! The evaluator replays a campaign's per-area API series against each
//! client position: API data only (multipliers change on the 5-minute
//! clock and carry no jitter), walking at 83 m/min.

use crate::observe::ClientSpec;
use surgescope_city::CityModel;
use surgescope_geo::{Meters, WALKING_SPEED_M_PER_MIN};

/// One client's §6 evaluation.
#[derive(Debug, Clone)]
pub struct ClientAvoidance {
    /// Client index.
    pub client: usize,
    /// Intervals where the client's own area surged (m0 > 1).
    pub surged_intervals: usize,
    /// Of those, intervals where walking beat the local price.
    pub beatable: usize,
    /// Multiplier reductions achieved (one per beatable interval,
    /// choosing the cheapest qualifying adjacent area).
    pub savings: Vec<f64>,
    /// Walking times (minutes) for the chosen areas.
    pub walk_minutes: Vec<f64>,
}

impl ClientAvoidance {
    /// Fraction of surged intervals the strategy could beat.
    pub fn success_fraction(&self) -> f64 {
        if self.surged_intervals == 0 {
            return 0.0;
        }
        self.beatable as f64 / self.surged_intervals as f64
    }
}

/// Walking time from a point to the nearest edge of an area polygon, plus
/// a fixed 30 m inset so the pickup is unambiguously inside the area.
pub fn walk_minutes_to_area(city: &CityModel, from: Meters, area: usize) -> f64 {
    let poly = &city.areas[area].polygon;
    let d = if poly.contains(from) { 0.0 } else { poly.distance_to_boundary(from) + 30.0 };
    d / WALKING_SPEED_M_PER_MIN
}

/// Evaluates the strategy for every client against per-area interval
/// series of multipliers (`api_surge[area][interval]`) and EWTs
/// (`api_ewt[area][interval]`, minutes).
pub fn evaluate(
    city: &CityModel,
    clients: &[ClientSpec],
    client_area: &[Option<usize>],
    api_surge: &[Vec<f32>],
    api_ewt: &[Vec<f32>],
) -> Vec<ClientAvoidance> {
    let intervals = api_surge.first().map_or(0, Vec::len);
    clients
        .iter()
        .enumerate()
        .map(|(ci, spec)| {
            let mut out = ClientAvoidance {
                client: ci,
                surged_intervals: 0,
                beatable: 0,
                savings: Vec::new(),
                walk_minutes: Vec::new(),
            };
            let Some(home) = client_area[ci] else { return out };
            for iv in 0..intervals {
                let m0 = api_surge[home][iv] as f64;
                if m0 <= 1.0 {
                    continue;
                }
                out.surged_intervals += 1;
                // Cheapest adjacent area reachable within its EWT.
                let mut best: Option<(f64, f64)> = None; // (multiplier, walk)
                for n in &city.adjacency[home] {
                    let a = n.0;
                    let ma = api_surge[a][iv] as f64;
                    if ma >= m0 {
                        continue;
                    }
                    let walk = walk_minutes_to_area(city, spec.position, a);
                    let ewt = api_ewt[a][iv] as f64;
                    if walk <= ewt && best.is_none_or(|(bm, _)| ma < bm) {
                        best = Some((ma, walk));
                    }
                }
                if let Some((ma, walk)) = best {
                    out.beatable += 1;
                    out.savings.push(m0 - ma);
                    out.walk_minutes.push(walk);
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::placement;

    fn setup() -> (CityModel, Vec<ClientSpec>, Vec<Option<usize>>) {
        let city = CityModel::manhattan_midtown();
        let clients = placement(&city.measurement_region, city.client_spacing_m);
        let areas: Vec<Option<usize>> =
            clients.iter().map(|c| city.area_of(c.position).map(|a| a.0)).collect();
        (city, clients, areas)
    }

    #[test]
    fn walk_time_zero_inside_area() {
        let (city, clients, areas) = setup();
        let ci = 0;
        let home = areas[ci].unwrap();
        assert_eq!(walk_minutes_to_area(&city, clients[ci].position, home), 0.0);
    }

    #[test]
    fn walk_time_positive_to_other_area() {
        let (city, clients, areas) = setup();
        let home = areas[0].unwrap();
        let other = city.adjacency[home][0].0;
        let w = walk_minutes_to_area(&city, clients[0].position, other);
        assert!(w > 0.0 && w < 60.0, "walk {w} minutes");
    }

    #[test]
    fn strategy_wins_when_neighbour_cheaper_and_close() {
        let (city, clients, areas) = setup();
        let n_areas = city.area_count();
        // Area of client 0 surges at 2.0 every interval; its neighbours
        // stay at 1.0 with generous EWTs.
        let home = areas[0].unwrap();
        let mut api_surge = vec![vec![1.0f32; 10]; n_areas];
        api_surge[home] = vec![2.0; 10];
        let api_ewt = vec![vec![30.0f32; 10]; n_areas];
        let result = evaluate(&city, &clients, &areas, &api_surge, &api_ewt);
        let r0 = &result[0];
        assert_eq!(r0.surged_intervals, 10);
        assert_eq!(r0.beatable, 10);
        assert!((r0.success_fraction() - 1.0).abs() < 1e-12);
        assert!(r0.savings.iter().all(|&s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn strategy_fails_when_walk_exceeds_ewt() {
        let (city, clients, areas) = setup();
        let n_areas = city.area_count();
        let home = areas[0].unwrap();
        let mut api_surge = vec![vec![1.0f32; 5]; n_areas];
        api_surge[home] = vec![2.0; 5];
        // EWT of 0.1 min: nobody can walk anywhere that fast.
        let api_ewt = vec![vec![0.1f32; 5]; n_areas];
        let result = evaluate(&city, &clients, &areas, &api_surge, &api_ewt);
        assert_eq!(result[0].beatable, 0);
        assert_eq!(result[0].success_fraction(), 0.0);
    }

    #[test]
    fn strategy_no_op_when_everywhere_surges_equally() {
        let (city, clients, areas) = setup();
        let n_areas = city.area_count();
        let api_surge = vec![vec![1.5f32; 5]; n_areas];
        let api_ewt = vec![vec![30.0f32; 5]; n_areas];
        let result = evaluate(&city, &clients, &areas, &api_surge, &api_ewt);
        for r in &result {
            assert_eq!(r.surged_intervals, 5);
            assert_eq!(r.beatable, 0, "no cheaper neighbour exists");
        }
    }

    #[test]
    fn chooses_cheapest_qualifying_neighbour() {
        let (city, clients, areas) = setup();
        let n_areas = city.area_count();
        let home = areas[0].unwrap();
        let neighbours = &city.adjacency[home];
        assert!(neighbours.len() >= 2, "test needs two neighbours");
        let mut api_surge = vec![vec![1.0f32; 1]; n_areas];
        api_surge[home] = vec![3.0];
        api_surge[neighbours[0].0] = vec![1.5];
        api_surge[neighbours[1].0] = vec![1.2];
        let api_ewt = vec![vec![60.0f32; 1]; n_areas];
        let result = evaluate(&city, &clients, &areas, &api_surge, &api_ewt);
        assert_eq!(result[0].beatable, 1);
        assert!((result[0].savings[0] - 1.8).abs() < 1e-6, "should pick the 1.2 area");
    }
}
