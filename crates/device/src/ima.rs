//! Synthetic stand-in for the IMA smartphone-capability dataset.
//!
//! The paper builds its computation- and communication-limited cases from
//! the IMA dataset (Yang et al., WWW'21), which records the compute power
//! and network bandwidth of more than 1,000 real smartphones. That dataset
//! is not redistributable here, so [`ima_device`] defines a population with
//! the same qualitative properties: long-tailed compute capability
//! (flagships ≫ entry-level phones), long-tailed bandwidth (Wi-Fi vs.
//! congested cellular), and weak correlation between the two.

use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::profile::GIB;

/// The resources of one simulated participant device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceCapability {
    /// Sustained training throughput in GFLOP/s.
    pub compute_gflops: f64,
    /// Uplink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Memory available for training, in bytes.
    pub memory_bytes: u64,
    /// Expected fraction of time the device is reachable for dispatch
    /// (see [`crate::DeviceProfile::availability`]).
    pub availability: f64,
}

/// RAM tiers of the ScientiaMobile smartphone survey the paper cites, with
/// their population shares (weighted toward the mid-range).
const RAM_TIERS: [(u64, f64); 5] = [
    (2 * GIB, 0.10),
    (4 * GIB, 0.30),
    (6 * GIB, 0.30),
    (8 * GIB, 0.22),
    (12 * GIB, 0.08),
];

/// The capability of device `index` of the seeded IMA-like smartphone
/// population.
///
/// Compute capability and bandwidth are log-normally distributed; memory is
/// drawn from the discrete RAM tiers (2/4/6/8/12 GB); availability is
/// uniform on `[0.60, 0.95]` from the dedicated `seed ^ 0xA7A1_1AB1` stream.
/// Each device draws from its own derived stream, so the definition is
/// order-free: `ima_device(seed, i)` is bit-identical whether or not any
/// other device was derived first, and a population of any size costs
/// nothing until a device is asked for.
pub(crate) fn ima_device(seed: u64, index: usize) -> DeviceCapability {
    let mut rng = SeededRng::new(seed).derive(index as u64);
    let mut avail_rng = SeededRng::new(seed ^ 0xA7A1_1AB1).derive(index as u64);
    let weights = RAM_TIERS.map(|(_, w)| w);
    // Median ≈ 25 GFLOP/s with a heavy upper tail (flagship SoCs).
    let compute = (rng.log_normal(3.2, 0.7) as f64).clamp(2.0, 600.0);
    // Median ≈ 20 Mbps uplink, between slow cellular and fast Wi-Fi.
    let bandwidth = (rng.log_normal(3.0, 0.8) as f64).clamp(1.0, 400.0);
    let memory_bytes = RAM_TIERS[rng.weighted_index(&weights)].0;
    // Phones churn: most are reachable 60–95 % of the time.
    let availability = f64::from(avail_rng.uniform(0.60, 0.95));
    DeviceCapability {
        compute_gflops: compute,
        bandwidth_mbps: bandwidth,
        memory_bytes,
        availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(size: usize, seed: u64) -> Vec<DeviceCapability> {
        (0..size).map(|i| ima_device(seed, i)).collect()
    }

    /// Population percentile (0–100) of one capability.
    fn percentile(devices: &[DeviceCapability], of: fn(&DeviceCapability) -> f64, pct: f64) -> f64 {
        let mut v: Vec<f64> = devices.iter().map(of).collect();
        v.sort_by(f64::total_cmp);
        v[(pct / 100.0 * (v.len() - 1) as f64).round() as usize]
    }

    #[test]
    fn population_is_reproducible_and_sized() {
        let a = population(200, 42);
        assert_eq!(a, population(200, 42));
        assert_eq!(a.len(), 200);
        assert_ne!(a, population(200, 43));
    }

    #[test]
    fn capability_spread_is_heterogeneous() {
        let pop = population(500, 7);
        let compute = |d: &DeviceCapability| d.compute_gflops;
        let (p10, p90) = (
            percentile(&pop, compute, 10.0),
            percentile(&pop, compute, 90.0),
        );
        assert!(
            p90 / p10 > 3.0,
            "compute spread should be wide: p10={p10}, p90={p90}"
        );
        let bandwidth = |d: &DeviceCapability| d.bandwidth_mbps;
        let (b10, b90) = (
            percentile(&pop, bandwidth, 10.0),
            percentile(&pop, bandwidth, 90.0),
        );
        assert!(
            b90 / b10 > 3.0,
            "bandwidth spread should be wide: p10={b10}, p90={b90}"
        );
    }

    #[test]
    fn memory_comes_from_discrete_tiers() {
        for d in population(300, 9) {
            let gib = d.memory_bytes / GIB;
            assert!(
                [2, 4, 6, 8, 12].contains(&gib),
                "unexpected RAM tier {gib} GiB"
            );
        }
    }

    #[test]
    fn device_at_is_order_free_and_in_distribution() {
        // Same (seed, index) → same device, no matter what else was derived.
        let a = ima_device(42, 123_456);
        let _ = ima_device(42, 7);
        let b = ima_device(42, 123_456);
        assert_eq!(a, b);
        // Distinct indices and seeds give distinct devices.
        assert_ne!(a, ima_device(42, 123_457));
        assert_ne!(a, ima_device(43, 123_456));
        for d in population(500, 7) {
            assert!((0.60..=0.95).contains(&d.availability));
        }
    }

    #[test]
    fn values_are_within_physical_bounds() {
        for d in population(1000, 3) {
            assert!(d.compute_gflops >= 2.0 && d.compute_gflops <= 600.0);
            assert!(d.bandwidth_mbps >= 1.0 && d.bandwidth_mbps <= 400.0);
        }
    }
}
