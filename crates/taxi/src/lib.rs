//! Ground-truth taxi substrate (validation, paper §3.5).
//!
//! The paper validates its measurement methodology against the public 2013
//! NYC taxi dataset: an "Uber simulator" replays every taxi ride in real
//! time, exposes a pingClient-equivalent API (nearest eight taxis,
//! randomized IDs), and the measured supply/demand is compared with the
//! known ground truth (97% of cars and 95% of deaths were captured).
//!
//! That dataset is not available offline, so this crate substitutes a
//! **synthetic trace generator** ([`TraceGenerator`]) producing
//! NYC-2013-shaped rides — per-taxi shift sessions, diurnal trip
//! intensity, hotspot-biased origins/destinations — plus the same replay
//! engine the paper describes ([`TaxiReplay`]): straight-line driving
//! between points, a 3-hour idle cutoff, and per-availability-period ID
//! randomization. Because the trace is ours, ground truth is exact and
//! the §3.5 validation can be reproduced end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod replay;
mod trace;

pub use replay::{path_displacement, TaxiGroundTruth, TaxiReplay, IDLE_CUTOFF_SECS};
pub use trace::{TaxiRide, TaxiTrace, TraceGenerator};
