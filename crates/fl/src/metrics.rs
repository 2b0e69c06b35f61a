//! The four evaluation metrics of the benchmark, plus per-client telemetry.

use serde::{Deserialize, Serialize};

use crate::fnv::Fnv1a;

/// Telemetry for one client's contribution to one server round: when it was
/// dispatched and when its update arrived on the simulated clock, how stale
/// the update was by the time the server folded it in, and how many bytes it
/// uploaded.
///
/// Synchronous rounds dispatch every selected client at the round start and
/// always record zero staleness; the asynchronous buffered engine records
/// the actual event times and the number of server aggregations that
/// completed while the update was in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRoundStat {
    /// The client that produced the update.
    pub client: usize,
    /// The server round (aggregation) the update was folded into.
    pub round: usize,
    /// Simulated time at which the client was dispatched.
    pub dispatch_secs: f64,
    /// Simulated time at which the update reached the server.
    pub arrival_secs: f64,
    /// Server aggregations completed between dispatch and arrival.
    pub staleness: usize,
    /// Bytes the client uploaded (its payload's wire size).
    pub payload_bytes: u64,
}

impl ClientRoundStat {
    /// How long the client was busy (training + communicating) for this
    /// update, in simulated seconds.
    pub fn busy_secs(&self) -> f64 {
        (self.arrival_secs - self.dispatch_secs).max(0.0)
    }
}

/// Measurements recorded at one evaluation point of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Federated round index (1-based; round 0 is the initial state).
    pub round: usize,
    /// Simulated wall-clock time elapsed since the start of training, in
    /// seconds (each synchronous round costs the maximum of the selected
    /// clients' compute + communication time).
    pub sim_time_secs: f64,
    /// Accuracy of the global model on the held-out global test set.
    pub global_accuracy: f32,
    /// Accuracy of each client's deployed model on the global test set.
    pub per_client_accuracy: Vec<f32>,
    /// Per-client telemetry of every update aggregated since the previous
    /// evaluation point (inclusive of this record's round).
    pub client_stats: Vec<ClientRoundStat>,
}

/// The full metric record of one experiment, from which the paper's four
/// metrics are derived.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Evaluation records in round order.
    pub records: Vec<RoundRecord>,
    /// Name of the algorithm that produced the report.
    pub algorithm: String,
    /// Updates discarded for exceeding the engine's `max_staleness` bound
    /// (kept private so the digest, which predates the counter, stays
    /// byte-compatible with committed golden fixtures; see
    /// [`dropped_updates`](MetricsReport::dropped_updates)).
    dropped: usize,
}

impl MetricsReport {
    /// Creates an empty report for an algorithm.
    pub fn new(algorithm: impl Into<String>) -> Self {
        MetricsReport {
            records: Vec::new(),
            algorithm: algorithm.into(),
            dropped: 0,
        }
    }

    /// Appends an evaluation record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// Counts one update discarded under the engine's per-update
    /// [`max_staleness`](crate::EngineConfig::max_staleness) bound.
    pub(crate) fn note_dropped_update(&mut self) {
        self.dropped += 1;
    }

    /// Overwrites the dropped-update counter (the decode half of the
    /// durable-checkpoint codec; the counter is not derivable from records).
    pub(crate) fn set_dropped_updates(&mut self, dropped: usize) {
        self.dropped = dropped;
    }

    /// Number of updates the asynchronous engine discarded for exceeding
    /// the configured per-update staleness bound
    /// ([`EngineConfig::max_staleness`](crate::EngineConfig::max_staleness)).
    /// Always zero for synchronous runs and for the default unbounded
    /// configuration.
    ///
    /// Diagnostic only: dropped updates never reach aggregation, so they
    /// appear neither in [`client_stats`](MetricsReport::client_stats) nor
    /// in [`digest`](MetricsReport::digest) (which keeps pre-existing golden
    /// fixtures valid).
    pub fn dropped_updates(&self) -> usize {
        self.dropped
    }

    /// Metric (i): final global accuracy (last evaluation point).
    pub fn final_accuracy(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.global_accuracy)
    }

    /// Metric (ii): time-to-accuracy — the simulated wall-clock time at which
    /// the global model first reached `target` accuracy, or `None` if it
    /// never did.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.global_accuracy >= target)
            .map(|r| r.sim_time_secs)
    }

    /// Metric (iii): stability — the variance of the final per-client
    /// accuracies (lower is more stable across heterogeneous devices).
    pub fn stability(&self) -> f32 {
        let Some(last) = self.records.last() else {
            return 0.0;
        };
        variance(&last.per_client_accuracy)
    }

    /// Metric (iv): effectiveness — the improvement of the final global
    /// accuracy over the resource-aware homogeneous baseline's accuracy.
    pub fn effectiveness(&self, baseline_accuracy: f32) -> f32 {
        self.final_accuracy() - baseline_accuracy
    }

    /// Total simulated training time of the run.
    pub fn total_sim_time_secs(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.sim_time_secs)
    }

    /// The global-accuracy learning curve as `(sim_time, accuracy)` points.
    pub fn accuracy_curve(&self) -> Vec<(f64, f32)> {
        self.records
            .iter()
            .map(|r| (r.sim_time_secs, r.global_accuracy))
            .collect()
    }

    /// Every per-client telemetry record of the run, in aggregation order.
    pub fn client_stats(&self) -> impl Iterator<Item = &ClientRoundStat> {
        self.records.iter().flat_map(|r| r.client_stats.iter())
    }

    /// Mean staleness (in server rounds) over every aggregated update; `0.0`
    /// for an empty report and for any fully synchronous run.
    pub fn mean_staleness(&self) -> f64 {
        let (sum, count) = self
            .client_stats()
            .fold((0usize, 0usize), |(s, n), stat| (s + stat.staleness, n + 1));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Total bytes uploaded by clients over the run.
    pub fn total_payload_bytes(&self) -> u64 {
        self.client_stats().map(|s| s.payload_bytes).sum()
    }

    /// Per-client participation counts over the whole run: how many
    /// aggregated updates each client contributed, as `(client, count)`
    /// pairs in ascending client order. Clients that never participated do
    /// not appear (use [`participation_fairness`] to reason about them).
    ///
    /// Under uniform sampling every client's count concentrates around
    /// `rounds × sample_ratio`; cost-sensitive policies and the
    /// asynchronous engine skew the distribution
    /// toward cheap/fast clients — this accessor is the raw material for
    /// quantifying that selection bias.
    ///
    /// [`participation_fairness`]: MetricsReport::participation_fairness
    pub fn participation_counts(&self) -> Vec<(usize, usize)> {
        let mut counts: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for stat in self.client_stats() {
            *counts.entry(stat.client).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Jain's fairness index of the per-client participation counts over a
    /// population of `num_clients`: `(Σxᵢ)² / (n · Σxᵢ²)`, counting clients
    /// that never participated as zeros.
    ///
    /// `1.0` means perfectly even participation; `1/n` means a single
    /// client did all the work. Returns `0.0` for an empty report or a
    /// zero-client population.
    pub fn participation_fairness(&self, num_clients: usize) -> f64 {
        if num_clients == 0 {
            return 0.0;
        }
        let counts = self.participation_counts();
        let sum: f64 = counts.iter().map(|&(_, c)| c as f64).sum();
        let sum_sq: f64 = counts.iter().map(|&(_, c)| (c as f64) * (c as f64)).sum();
        if sum_sq == 0.0 {
            return 0.0;
        }
        (sum * sum) / (num_clients as f64 * sum_sq)
    }

    /// A canonical 64-bit digest of the full report: every field of every
    /// record — including per-client telemetry — is folded bit-exactly
    /// (`f32::to_bits`/`f64::to_bits`) into an FNV-1a hash.
    ///
    /// Two reports have equal digests iff they are byte-identical, which is
    /// what the golden-trace regression harness (`tests/golden.rs`) pins per
    /// seed: any kernel or scheduling change that alters even one ULP of one
    /// metric changes the digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.algorithm.as_bytes());
        h.write_u64(self.records.len() as u64);
        for record in &self.records {
            h.write_u64(record.round as u64);
            h.write_u64(record.sim_time_secs.to_bits());
            h.write_u32(record.global_accuracy.to_bits());
            h.write_u64(record.per_client_accuracy.len() as u64);
            for acc in &record.per_client_accuracy {
                h.write_u32(acc.to_bits());
            }
            h.write_u64(record.client_stats.len() as u64);
            for stat in &record.client_stats {
                h.write_u64(stat.client as u64);
                h.write_u64(stat.round as u64);
                h.write_u64(stat.dispatch_secs.to_bits());
                h.write_u64(stat.arrival_secs.to_bits());
                h.write_u64(stat.staleness as u64);
                h.write_u64(stat.payload_bytes);
            }
        }
        h.finish()
    }

    /// Client-slot utilisation: the fraction of available client-slot time
    /// spent training or communicating, `sum(busy) / (peak_concurrency ×
    /// span)`, where the span runs from the **first dispatch** to the last
    /// arrival — slots don't exist before anything is dispatched, so a run
    /// whose first round starts late (an availability trace waiting out an
    /// all-offline window, a resumed session) is not penalised for clock
    /// time during which no client could have been busy. A fully
    /// synchronous run is dragged below `1.0` by stragglers (fast clients
    /// idle until the slowest finishes); the asynchronous engine recovers
    /// that idle time by refilling slots as updates arrive. Returns `0.0`
    /// when the report carries no telemetry.
    pub fn utilisation(&self) -> f64 {
        let mut events: Vec<(f64, i32)> = Vec::new();
        let mut busy = 0.0f64;
        let mut first_dispatch = f64::INFINITY;
        let mut span_end = 0.0f64;
        for stat in self.client_stats() {
            busy += stat.busy_secs();
            first_dispatch = first_dispatch.min(stat.dispatch_secs);
            span_end = span_end.max(stat.arrival_secs);
            events.push((stat.dispatch_secs, 1));
            events.push((stat.arrival_secs, -1));
        }
        let span = span_end - first_dispatch;
        if events.is_empty() || span <= 0.0 {
            return 0.0;
        }
        // Departures sort before arrivals at the same instant so back-to-back
        // reuse of a slot does not inflate the peak.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut current = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            current += i64::from(delta);
            peak = peak.max(current);
        }
        busy / (peak.max(1) as f64 * span)
    }
}

fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    // Accumulate in f64: summing thousands of f32 accuracies (or any
    // large-magnitude inputs) in f32 cancels catastrophically — the mean
    // itself absorbs the error and the squared deviations come out wildly
    // wrong (see the regression test below).
    let len = values.len() as f64;
    let mean = values.iter().map(|&v| f64::from(v)).sum::<f64>() / len;
    let var = values
        .iter()
        .map(|&v| {
            let d = f64::from(v) - mean;
            d * d
        })
        .sum::<f64>()
        / len;
    var as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(
        client: usize,
        round: usize,
        dispatch: f64,
        arrival: f64,
        staleness: usize,
        bytes: u64,
    ) -> ClientRoundStat {
        ClientRoundStat {
            client,
            round,
            dispatch_secs: dispatch,
            arrival_secs: arrival,
            staleness,
            payload_bytes: bytes,
        }
    }

    fn report() -> MetricsReport {
        let mut r = MetricsReport::new("TestAlg");
        r.push(RoundRecord {
            round: 1,
            sim_time_secs: 10.0,
            global_accuracy: 0.2,
            per_client_accuracy: vec![0.2, 0.2],
            client_stats: vec![stat(0, 1, 0.0, 4.0, 0, 100), stat(1, 1, 0.0, 10.0, 0, 200)],
        });
        r.push(RoundRecord {
            round: 2,
            sim_time_secs: 20.0,
            global_accuracy: 0.5,
            per_client_accuracy: vec![0.4, 0.6],
            client_stats: vec![
                stat(0, 2, 10.0, 14.0, 1, 100),
                stat(1, 2, 10.0, 20.0, 1, 200),
            ],
        });
        r.push(RoundRecord {
            round: 3,
            sim_time_secs: 30.0,
            global_accuracy: 0.45,
            per_client_accuracy: vec![0.5, 0.4],
            client_stats: vec![
                stat(0, 3, 20.0, 24.0, 0, 100),
                stat(1, 3, 20.0, 30.0, 2, 200),
            ],
        });
        r
    }

    #[test]
    fn final_accuracy_curve_and_total_time() {
        let r = report();
        assert_eq!(r.final_accuracy(), 0.45);
        assert_eq!(r.total_sim_time_secs(), 30.0);
        assert_eq!(r.accuracy_curve().len(), 3);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = report();
        assert_eq!(r.time_to_accuracy(0.4), Some(20.0));
        assert_eq!(r.time_to_accuracy(0.19), Some(10.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn stability_is_variance_of_last_round() {
        let r = report();
        let expected = {
            let vals = [0.5f32, 0.4];
            let mean = 0.45;
            ((vals[0] - mean).powi(2) + (vals[1] - mean).powi(2)) / 2.0
        };
        assert!((r.stability() - expected).abs() < 1e-7);
    }

    #[test]
    fn variance_survives_large_magnitude_inputs() {
        // Values of the form 100_000 + {0, 1, 2} have true variance 2/3
        // regardless of the offset. The old all-f32 accumulator cancels
        // catastrophically here: the running sum reaches ~1e11, where one
        // f32 ULP is thousands of times larger than the per-value signal,
        // so the mean (and with it every squared deviation) is garbage.
        let values: Vec<f32> = (0..1_000_000).map(|i| 100_000.0 + (i % 3) as f32).collect();
        let f32_mean = values.iter().sum::<f32>() / values.len() as f32;
        let f32_var = values
            .iter()
            .map(|v| (v - f32_mean) * (v - f32_mean))
            .sum::<f32>()
            / values.len() as f32;
        assert!(
            (f32_var - 2.0 / 3.0).abs() > 0.5,
            "old accumulator is expected to be wrong here (got {f32_var}); \
             if this starts passing, the regression guard below is vacuous"
        );
        let var = variance(&values);
        assert!(
            (var - 2.0 / 3.0).abs() < 1e-3,
            "f64 accumulation must recover the true variance, got {var}"
        );
    }

    #[test]
    fn effectiveness_compares_to_baseline() {
        let r = report();
        assert!((r.effectiveness(0.30) - 0.15).abs() < 1e-6);
        assert!(r.effectiveness(0.50) < 0.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = MetricsReport::new("Empty");
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.stability(), 0.0);
        assert_eq!(r.time_to_accuracy(0.1), None);
        assert_eq!(r.mean_staleness(), 0.0);
        assert_eq!(r.total_payload_bytes(), 0);
        assert_eq!(r.utilisation(), 0.0);
        assert_eq!(r.dropped_updates(), 0);
    }

    #[test]
    fn dropped_updates_count_but_do_not_move_the_digest() {
        let mut r = report();
        let digest = r.digest();
        r.note_dropped_update();
        r.note_dropped_update();
        assert_eq!(r.dropped_updates(), 2);
        // The counter is diagnostic: golden fixtures pre-date it and must
        // keep matching.
        assert_eq!(r.digest(), digest);
    }

    #[test]
    fn telemetry_aggregates_over_all_records() {
        let r = report();
        assert_eq!(r.client_stats().count(), 6);
        // Stalenesses: 0, 0, 1, 1, 0, 2.
        assert!((r.mean_staleness() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.total_payload_bytes(), 3 * 100 + 3 * 200);
    }

    #[test]
    fn participation_counts_and_fairness() {
        let r = report();
        // Clients 0 and 1 each contributed three updates.
        assert_eq!(r.participation_counts(), vec![(0, 3), (1, 3)]);
        // Perfectly even over a two-client population.
        assert!((r.participation_fairness(2) - 1.0).abs() < 1e-12);
        // Over a larger population the never-selected clients drag it down:
        // (6)^2 / (4 * 18) = 0.5.
        assert!((r.participation_fairness(4) - 0.5).abs() < 1e-12);
        // Degenerate inputs are safe.
        assert_eq!(r.participation_fairness(0), 0.0);
        let empty = MetricsReport::new("Empty");
        assert!(empty.participation_counts().is_empty());
        assert_eq!(empty.participation_fairness(10), 0.0);
        // A single client doing all the work scores 1/n.
        let mut skewed = MetricsReport::new("Skewed");
        skewed.push(RoundRecord {
            round: 1,
            sim_time_secs: 1.0,
            global_accuracy: 0.1,
            per_client_accuracy: vec![],
            client_stats: vec![stat(7, 1, 0.0, 1.0, 0, 10), stat(7, 1, 0.0, 1.0, 0, 10)],
        });
        assert_eq!(skewed.participation_counts(), vec![(7, 2)]);
        assert!((skewed.participation_fairness(5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let r = report();
        assert_eq!(r.digest(), r.digest(), "digest must be deterministic");
        assert_eq!(r.digest(), r.clone().digest());
        // One-ULP changes anywhere in the report change the digest.
        let mut nudged = report();
        let acc = nudged.records[1].global_accuracy;
        nudged.records[1].global_accuracy = f32::from_bits(acc.to_bits() + 1);
        assert_ne!(r.digest(), nudged.digest());
        let mut stat_nudged = report();
        stat_nudged.records[2].client_stats[1].payload_bytes += 1;
        assert_ne!(r.digest(), stat_nudged.digest());
        // Different algorithm names differ even with identical records.
        let mut renamed = report();
        renamed.algorithm = "OtherAlg".into();
        assert_ne!(r.digest(), renamed.digest());
        // Empty reports still digest (and differ by name).
        assert_ne!(
            MetricsReport::new("A").digest(),
            MetricsReport::new("B").digest()
        );
    }

    #[test]
    fn utilisation_reflects_straggler_idle_time() {
        let r = report();
        // Two slots over a 30 s span; busy time = (4+10) + (4+10) + (4+10).
        let expected = 42.0 / (2.0 * 30.0);
        assert!(
            (r.utilisation() - expected).abs() < 1e-12,
            "utilisation {} vs expected {expected}",
            r.utilisation()
        );
        // Fully packed slots hit exactly 1.0.
        let mut packed = MetricsReport::new("Packed");
        packed.push(RoundRecord {
            round: 1,
            sim_time_secs: 10.0,
            global_accuracy: 0.5,
            per_client_accuracy: vec![],
            client_stats: vec![stat(0, 1, 0.0, 10.0, 0, 1), stat(1, 1, 0.0, 10.0, 0, 1)],
        });
        assert!((packed.utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilisation_span_starts_at_first_dispatch_not_time_zero() {
        // A run whose first dispatch happens at t = 1000 (e.g. an
        // availability trace kept everyone offline until then) must score
        // exactly like the same workload dispatched at t = 0: the span is
        // measured from the first dispatch, not the start of the clock.
        let shifted = |offset: f64| {
            let mut r = MetricsReport::new("Offset");
            r.push(RoundRecord {
                round: 1,
                sim_time_secs: offset + 30.0,
                global_accuracy: 0.5,
                per_client_accuracy: vec![],
                client_stats: vec![
                    stat(0, 1, offset, offset + 10.0, 0, 1),
                    stat(1, 1, offset + 10.0, offset + 30.0, 0, 1),
                ],
            });
            r
        };
        let at_zero = shifted(0.0).utilisation();
        let at_thousand = shifted(1000.0).utilisation();
        assert!((at_zero - 1.0).abs() < 1e-12, "slots are packed: {at_zero}");
        assert!(
            (at_thousand - at_zero).abs() < 1e-9,
            "offset start changed utilisation: {at_thousand} vs {at_zero}"
        );
        // Degenerate single-instant telemetry (dispatch == arrival) has no
        // span and reports zero instead of dividing by it.
        let mut instant = MetricsReport::new("Instant");
        instant.push(RoundRecord {
            round: 1,
            sim_time_secs: 5.0,
            global_accuracy: 0.5,
            per_client_accuracy: vec![],
            client_stats: vec![stat(0, 1, 5.0, 5.0, 0, 1)],
        });
        assert_eq!(instant.utilisation(), 0.0);
    }
}
