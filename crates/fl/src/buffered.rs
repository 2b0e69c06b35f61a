//! Staleness handling for FedBuff-style asynchronous buffered aggregation.
//!
//! The synchronous engine advances the clock by whole rounds: every
//! selected client launches together and the round lasts as long as its
//! slowest participant. [`Execution::AsyncBuffered`](crate::Execution)
//! replaces that with an event-driven simulation — the server keeps a fixed
//! number of clients in flight, arrivals accumulate in a buffer, and once
//! `buffer_size` updates are waiting the server aggregates them, weighting
//! each by the staleness-discount curve defined here. The event loop itself
//! lives in the unified session driver ([`crate::Session`]), which the
//! synchronous mode shares; this module owns the staleness *policy*:
//!
//! * [`Staleness`] — the discount curve, applied per update by the driver;
//! * [`staleness_weight`] — the default `1/sqrt(1 + s)` shorthand;
//! * the per-update [`max_staleness`](crate::EngineConfig::max_staleness)
//!   bound is enforced by the driver before an update enters the buffer,
//!   with discarded updates counted by
//!   [`MetricsReport::dropped_updates`](crate::MetricsReport).

use serde::{Deserialize, Serialize};

/// The staleness-discount curve applied to asynchronously buffered updates.
/// An update that watched `staleness` server aggregations complete while in
/// flight has its aggregation weight multiplied by [`Staleness::weight`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Staleness {
    /// `1 / sqrt(1 + s)` — FedBuff's default and the engine's.
    #[default]
    Sqrt,
}

impl Staleness {
    /// The weight multiplier for an update of the given staleness: `1.0` at
    /// zero staleness, monotonically decreasing, and strictly positive.
    pub fn weight(&self, staleness: usize) -> f32 {
        match *self {
            Staleness::Sqrt => 1.0 / (1.0 + staleness as f32).sqrt(),
        }
    }
}

/// The FedBuff staleness discount: an update that watched `staleness`
/// server aggregations complete while in flight is weighted by
/// `1 / sqrt(1 + staleness)`. Monotonically decreasing, equal to `1.0` for
/// a fresh update. Shorthand for [`Staleness::Sqrt`]`.weight(staleness)`.
pub fn staleness_weight(staleness: usize) -> f32 {
    Staleness::Sqrt.weight(staleness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_weight_is_monotone_decreasing_from_one() {
        assert_eq!(staleness_weight(0), 1.0);
        let weights: Vec<f32> = (0..20).map(staleness_weight).collect();
        assert!(weights.windows(2).all(|w| w[1] < w[0]));
        assert!(weights.iter().all(|&w| w > 0.0 && w <= 1.0));
        assert!((staleness_weight(3) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn default_curve_is_sqrt() {
        assert_eq!(Staleness::default(), Staleness::Sqrt);
        for s in 0..10 {
            assert_eq!(staleness_weight(s), Staleness::Sqrt.weight(s));
        }
    }
}
