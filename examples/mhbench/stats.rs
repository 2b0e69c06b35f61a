//! Order statistics over wall-clock samples.

/// Median of the samples (mean of the two middle ones for an even count).
/// Returns 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Index (into the ascending samples) the tail metric reads: p90 from a
/// hundred samples on, otherwise the highest order statistic that still has
/// ten samples beyond it (n = 30 reads index 19, p66). Below 21 samples that
/// rule would fall under the median, so the median index is the floor.
pub fn tail_index(n: usize) -> usize {
    if n >= 100 {
        (n * 9).div_ceil(10) - 1
    } else {
        n.saturating_sub(11).max(n / 2).min(n.saturating_sub(1))
    }
}

/// The tail sample and the percentile it stands for (`(index + 1) / n`).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = tail_index(sorted.len());
    (
        sorted[index],
        100.0 * (index + 1) as f64 / sorted.len() as f64,
    )
}
