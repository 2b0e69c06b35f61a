//! Pluggable client-selection policies.
//!
//! Every round the engine asks a [`ClientScheduler`] which clients should
//! participate and how long the synchronous round lasts on the simulated
//! clock. The scheduler sees the per-client [`RoundCost`]s through the
//! [`FederationContext`], so policies can react to device heterogeneity:
//! [`UniformSampler`] reproduces classic FedAvg sampling, [`DeadlineAware`]
//! drops stragglers that would miss a server deadline, [`PowerOfChoice`]
//! over-samples candidates and keeps the fastest, [`BandwidthAware`] prefers
//! clients with the cheapest uploads (payload bytes over uplink bandwidth),
//! [`AvailabilityTrace`] runs a seeded i.i.d. on/offline trace per client —
//! offline clients cannot be dispatched — and [`DiurnalTrace`] correlates
//! those on/off periods through a seeded sinusoidal day/night phase per
//! client.
//!
//! The asynchronous buffered engine (see
//! [`Execution`](crate::Execution)) additionally consults
//! [`is_available`](ClientScheduler::is_available) and
//! [`pick_next`](ClientScheduler::pick_next) to refill dispatch slots one
//! client at a time as updates arrive.
//!
//! Schedulers are configured declaratively through the [`Schedule`] enum on
//! [`EngineConfig`](crate::EngineConfig) /
//! `ExperimentSpec`, or injected directly for custom policies.
//!
//! [`RoundCost`]: mhfl_device::RoundCost

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::FederationContext;

/// An ordered set of dispatch candidates — the clients the asynchronous
/// engine could launch right now, in ascending id order.
///
/// Abstracting the candidate set behind a trait lets the engine expose its
/// free list without materialising a population-sized `Vec` on every refill:
/// the engine's implementation answers [`nth`](CandidatePool::nth) in
/// O(in-flight) by walking the (small, sorted) busy set, so dispatching from
/// a million-client population costs O(active), not O(population).
pub trait CandidatePool {
    /// Number of candidates.
    fn len(&self) -> usize;

    /// Whether there are no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th smallest candidate id. Callers guarantee `k < len()`.
    fn nth(&self, k: usize) -> usize;

    /// Whether `client` is a candidate.
    fn contains(&self, client: usize) -> bool;

    /// All candidates in ascending order. Policies should prefer
    /// [`nth`](CandidatePool::nth)/[`contains`](CandidatePool::contains);
    /// a full iteration is O(population) and only justified as a fallback.
    fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_>;
}

/// A [`CandidatePool`] view over an explicit ascending slice of ids.
pub struct Candidates<'a>(pub &'a [usize]);

impl CandidatePool for Candidates<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn nth(&self, k: usize) -> usize {
        self.0[k]
    }

    fn contains(&self, client: usize) -> bool {
        self.0.binary_search(&client).is_ok()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        Box::new(self.0.iter().copied())
    }
}

/// Bounded rejection sampling over a gated candidate pool: draw uniformly,
/// keep the first draw the gate accepts. For an always-open gate this is
/// exactly one uniform draw — bit-identical RNG consumption to indexing an
/// eligible-client `Vec`, which is what keeps the async golden digests
/// stable — and for trace-gated policies it stays O(attempts) instead of
/// scanning the population. If every attempt lands on a gated-off client
/// (availability well below 1/64), fall back to an exact uniform draw over
/// the accepted subset.
fn pick_gated(
    pool: &dyn CandidatePool,
    rng: &mut SeededRng,
    mut open: impl FnMut(usize) -> bool,
) -> Option<usize> {
    const ATTEMPTS: usize = 64;
    let n = pool.len();
    if n == 0 {
        return None;
    }
    for _ in 0..ATTEMPTS {
        let candidate = pool.nth(rng.index(n));
        if open(candidate) {
            return Some(candidate);
        }
    }
    let accepted: Vec<usize> = pool.iter().filter(|&c| open(c)).collect();
    if accepted.is_empty() {
        None
    } else {
        Some(accepted[rng.index(accepted.len())])
    }
}

/// Samples `count` distinct clients uniformly from `0..n`, ascending.
///
/// Small populations keep the full-shuffle path every golden digest is
/// pinned against; sparse selections (count ≪ n, the million-client case)
/// switch to Floyd's algorithm, which is O(count) time and memory instead
/// of O(n).
fn sample_clients(rng: &mut SeededRng, n: usize, count: usize) -> Vec<usize> {
    if count.saturating_mul(64) >= n {
        rng.choose_indices(n, count)
    } else {
        rng.sample_indices(n, count)
    }
}

/// The outcome of one scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// Clients participating this round, in ascending index order. May be
    /// empty (e.g. no client met a deadline), in which case the round is
    /// skipped but the clock still advances.
    pub clients: Vec<usize>,
    /// Simulated wall-clock duration of the synchronous round.
    pub round_secs: f64,
}

/// A client-selection policy.
///
/// Implementations must be deterministic given (`round`, `rng`, `ctx`):
/// the engine relies on this for reproducible experiments and for the
/// parallel executor producing bit-identical reports to sequential runs.
pub trait ClientScheduler: Send + Sync {
    /// Human-readable policy name (for reports and logs).
    fn name(&self) -> &'static str;

    /// Plans one round: which of the `ctx.num_clients()` clients run, given
    /// a target participation count of `per_round`. `now` is the simulated
    /// time at which the round starts (availability-gated policies use it to
    /// look up their trace).
    fn plan_round(
        &self,
        round: usize,
        per_round: usize,
        now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan;

    /// Whether `client` can be dispatched at simulated time `now`. The
    /// default is always-on; trace-driven policies override this.
    fn is_available(&self, _client: usize, _now: f64, _ctx: &FederationContext) -> bool {
        true
    }

    /// Asynchronous dispatch: picks the next client to launch at `now` from
    /// `pool` (the clients not currently in flight, in ascending id order —
    /// *not* pre-filtered by availability; the default gates through
    /// [`is_available`](ClientScheduler::is_available) itself).
    ///
    /// The default is uniform rejection sampling ([`pick_gated`]): for
    /// always-available policies that is a single uniform draw over the free
    /// set — the same draw the engine historically made over a materialised
    /// eligible `Vec`, so existing digests are preserved — and it never
    /// scans the population unless availability is pathologically sparse.
    /// Cost-sensitive policies override it.
    fn pick_next(
        &self,
        now: f64,
        pool: &dyn CandidatePool,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> Option<usize> {
        pick_gated(pool, rng, |c| self.is_available(c, now, ctx))
    }

    /// How far the asynchronous engine advances the clock when no client is
    /// dispatchable and nothing is in flight. Trace-driven policies return
    /// their trace period so the engine wakes up exactly when availability
    /// can change.
    fn idle_wait_secs(&self) -> f64 {
        1.0
    }
}

/// The slowest selected client's round cost — the duration of a synchronous
/// round with no deadline.
fn max_cost_secs(ctx: &FederationContext, clients: &[usize]) -> f64 {
    clients
        .iter()
        .map(|&c| ctx.assignment(c).cost.total_secs())
        .fold(0.0f64, f64::max)
}

/// Classic FedAvg sampling: every client is equally likely each round and
/// the round lasts as long as its slowest participant.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

impl ClientScheduler for UniformSampler {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        _now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        let n = ctx.num_clients();
        let clients = sample_clients(rng, n, per_round.min(n));
        let round_secs = max_cost_secs(ctx, &clients);
        RoundPlan {
            clients,
            round_secs,
        }
    }
}

/// Deadline-based straggler dropping: candidates are sampled uniformly, but
/// clients whose round cost exceeds the server deadline are skipped. If any
/// candidate was dropped the server waits out the full deadline; otherwise
/// the round ends when the slowest kept client finishes.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAware {
    /// Server-side round deadline in simulated seconds.
    pub deadline_secs: f64,
}

impl ClientScheduler for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        _now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        let n = ctx.num_clients();
        let candidates = sample_clients(rng, n, per_round.min(n));
        let total = candidates.len();
        let clients: Vec<usize> = candidates
            .into_iter()
            .filter(|&c| ctx.assignment(c).cost.total_secs() <= self.deadline_secs)
            .collect();
        let round_secs = if clients.len() == total {
            max_cost_secs(ctx, &clients)
        } else {
            // At least one straggler was dropped: the server waited until
            // the deadline before closing the round.
            self.deadline_secs
        };
        RoundPlan {
            clients,
            round_secs,
        }
    }
}

/// Power-of-choice-style fastest-of-k sampling: sample `factor ×` the target
/// number of candidates, keep the fastest. Trades selection bias (fast
/// devices are over-represented) for shorter synchronous rounds.
#[derive(Debug, Clone, Copy)]
pub struct PowerOfChoice {
    /// Over-sampling factor (`k = factor × per_round` candidates); values
    /// below 2 degenerate towards uniform sampling.
    pub factor: usize,
}

impl ClientScheduler for PowerOfChoice {
    fn name(&self) -> &'static str {
        "power-of-choice"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        _now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        let n = ctx.num_clients();
        let per_round = per_round.min(n);
        let pool = (per_round * self.factor.max(1)).min(n);
        let mut candidates = sample_clients(rng, n, pool);
        // Fastest first; ties broken by client index for determinism.
        candidates.sort_by(|&a, &b| {
            let ca = ctx.assignment(a).cost.total_secs();
            let cb = ctx.assignment(b).cost.total_secs();
            ca.partial_cmp(&cb)
                .expect("costs are finite")
                .then(a.cmp(&b))
        });
        candidates.truncate(per_round);
        candidates.sort_unstable();
        let round_secs = max_cost_secs(ctx, &candidates);
        RoundPlan {
            clients: candidates,
            round_secs,
        }
    }
}

/// Bandwidth-aware selection: prefers clients whose upload is cheapest,
/// ranked by the ratio of their per-round payload bytes to their uplink
/// bandwidth (i.e. estimated upload seconds). In synchronous mode it
/// over-samples `factor ×` the target count and keeps the cheapest uploads;
/// in asynchronous mode it fills each freed dispatch slot with the eligible
/// client whose upload is cheapest.
///
/// The selection uses the cost model's payload estimate
/// ([`RoundCost::payload_bytes`](mhfl_device::RoundCost)); the bytes a
/// client *actually* uploads are reported per update by
/// [`ClientPayload::payload_bytes`](crate::ClientPayload::payload_bytes)
/// and land in the telemetry this policy is trying to minimise.
#[derive(Debug, Clone, Default)]
pub struct BandwidthAware {
    /// Over-sampling factor for the synchronous candidate pool (`factor ×
    /// per_round`); values below 2 degenerate towards uniform sampling.
    pub factor: usize,
    /// All clients ranked by (estimated upload seconds, id), computed once
    /// per session on first async dispatch. Upload costs are static for the
    /// lifetime of a context, so each `pick_next` is then a walk down the
    /// ranking — no re-sort, no allocation per refill.
    ranking: OnceLock<Vec<usize>>,
}

impl BandwidthAware {
    /// Creates the policy with the given over-sampling factor.
    pub fn new(factor: usize) -> Self {
        BandwidthAware {
            factor,
            ranking: OnceLock::new(),
        }
    }

    fn ranking(&self, ctx: &FederationContext) -> &[usize] {
        self.ranking.get_or_init(|| {
            // Derive each client's upload cost exactly once (lazy contexts
            // derive assignments on demand), then sort the index.
            let mut costs: Vec<(f64, usize)> = (0..ctx.num_clients())
                .map(|c| (upload_secs(ctx, c), c))
                .collect();
            costs.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("upload times are finite")
                    .then(a.1.cmp(&b.1))
            });
            costs.into_iter().map(|(_, c)| c).collect()
        })
    }
}

/// Estimated upload seconds of a client: payload bytes over uplink.
fn upload_secs(ctx: &FederationContext, client: usize) -> f64 {
    let a = ctx.assignment(client);
    a.cost.payload_bytes as f64 * 8.0 / (a.device.bandwidth_mbps.max(0.1) * 1e6)
}

impl ClientScheduler for BandwidthAware {
    fn name(&self) -> &'static str {
        "bandwidth-aware"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        _now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        let n = ctx.num_clients();
        let per_round = per_round.min(n);
        let pool = (per_round * self.factor.max(1)).min(n);
        let mut candidates = rng.choose_indices(n, pool);
        // Cheapest upload first; ties broken by client index for determinism.
        candidates.sort_by(|&a, &b| {
            upload_secs(ctx, a)
                .partial_cmp(&upload_secs(ctx, b))
                .expect("upload times are finite")
                .then(a.cmp(&b))
        });
        candidates.truncate(per_round);
        candidates.sort_unstable();
        let round_secs = max_cost_secs(ctx, &candidates);
        RoundPlan {
            clients: candidates,
            round_secs,
        }
    }

    /// Walks the precomputed (upload cost, id) ranking and dispatches the
    /// first client still in the pool — the same client the old
    /// min-by-upload scan picked, found in O(dispatched-prefix) with no
    /// per-refill allocation and no RNG consumption.
    fn pick_next(
        &self,
        _now: f64,
        pool: &dyn CandidatePool,
        ctx: &FederationContext,
        _rng: &mut SeededRng,
    ) -> Option<usize> {
        self.ranking(ctx)
            .iter()
            .copied()
            .find(|&c| pool.contains(c))
    }
}

/// The one availability gate behind [`AvailabilityTrace`], [`DiurnalTrace`]
/// and [`TraceReplay`]: samples `per_round` clients uniformly among those
/// `is_online` admits, or — when nobody is reachable — returns an empty plan
/// that waits out `idle_secs` and tries again.
fn plan_among_online(
    is_online: impl Fn(usize) -> bool,
    idle_secs: f64,
    per_round: usize,
    ctx: &FederationContext,
    rng: &mut SeededRng,
) -> RoundPlan {
    let online: Vec<usize> = (0..ctx.num_clients()).filter(|&c| is_online(c)).collect();
    if online.is_empty() {
        return RoundPlan {
            clients: Vec::new(),
            round_secs: idle_secs,
        };
    }
    let take = per_round.min(online.len());
    let clients: Vec<usize> = rng
        .choose_indices(online.len(), take)
        .into_iter()
        .map(|i| online[i])
        .collect();
    let round_secs = max_cost_secs(ctx, &clients);
    RoundPlan {
        clients,
        round_secs,
    }
}

/// Availability-trace scheduling: each client flips on/offline per a seeded
/// trace discretised into slots of `period_secs`. Within slot `s`, client
/// `c` is online with probability `online_fraction ×` its device's expected
/// [`availability`](mhfl_device::DeviceCapability) — wall-powered edge boxes
/// churn far less than phones. Offline clients cannot be selected
/// (synchronous mode) or dispatched (asynchronous mode).
///
/// The trace is a pure function of `(experiment seed, client, slot)`, so
/// runs are reproducible and availability does not depend on what the
/// scheduler previously chose.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityTrace {
    /// Length of one trace slot in simulated seconds (how often devices
    /// can change between on- and offline).
    pub period_secs: f64,
    /// Global multiplier in `[0, 1]` on each device's expected availability
    /// (`0.0` takes every client offline, `1.0` leaves device churn as the
    /// only cause of unavailability).
    pub online_fraction: f64,
}

impl AvailabilityTrace {
    fn slot(&self, now: f64) -> u64 {
        if self.period_secs <= 0.0 {
            return 0;
        }
        (now / self.period_secs).floor() as u64
    }

    fn is_online(&self, client: usize, now: f64, ctx: &FederationContext) -> bool {
        let p = (self.online_fraction * ctx.assignment(client).device.availability).clamp(0.0, 1.0);
        // An independent, order-free draw per (seed, client, slot).
        SeededRng::new(ctx.seed() ^ 0x7ACE)
            .derive(client as u64)
            .derive(self.slot(now))
            .bernoulli(p)
    }
}

impl ClientScheduler for AvailabilityTrace {
    fn name(&self) -> &'static str {
        "availability-trace"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        plan_among_online(
            |c| self.is_online(c, now, ctx),
            self.idle_wait_secs(),
            per_round,
            ctx,
            rng,
        )
    }

    fn is_available(&self, client: usize, now: f64, ctx: &FederationContext) -> bool {
        self.is_online(client, now, ctx)
    }

    fn idle_wait_secs(&self) -> f64 {
        self.period_secs.max(f64::EPSILON)
    }
}

/// Diurnal availability scheduling: each client follows a day/night cycle
/// with its own seeded phase offset, so on/off periods are *correlated in
/// time* — a client near its trough stays offline for many consecutive
/// slots — instead of the i.i.d. per-slot coin flips of
/// [`AvailabilityTrace`].
///
/// Client `c`'s probability of being online at simulated time `t` is
///
/// ```text
/// p(c, t) = trough + (peak - trough) · (0.5 + 0.5 · sin(2π t / day_secs + φ_c))
/// ```
///
/// scaled by the device's expected
/// [`availability`](mhfl_device::DeviceCapability) and clamped to `[0, 1]`,
/// where the phase `φ_c` is drawn once per client from the experiment seed
/// (phones in different "time zones"). The actual on/off state is a seeded
/// draw per `(client, slot)` at that probability, with slots of
/// `slot_secs`; everything is a pure function of
/// `(experiment seed, client, slot)`, so runs are reproducible and
/// availability does not depend on what the scheduler previously chose.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalTrace {
    /// Length of one full day/night cycle in simulated seconds.
    pub day_secs: f64,
    /// Length of one trace slot (how often devices can flip state).
    pub slot_secs: f64,
    /// Online probability at the peak of a client's cycle (clamped to
    /// `[0, 1]`).
    pub peak_online: f64,
    /// Online probability at the trough of a client's cycle (clamped to
    /// `[0, peak_online]`).
    pub trough_online: f64,
}

impl DiurnalTrace {
    fn slot(&self, now: f64) -> u64 {
        if self.slot_secs <= 0.0 {
            return 0;
        }
        (now / self.slot_secs).floor() as u64
    }

    /// The client's seeded phase offset in `[0, 2π)`.
    fn phase(&self, client: usize, ctx: &FederationContext) -> f64 {
        let mut rng = SeededRng::new(ctx.seed() ^ 0xD1A1).derive(client as u64);
        f64::from(rng.uniform(0.0, std::f32::consts::TAU))
    }

    /// The sinusoidal online probability of `client` at time `now`.
    fn online_probability(&self, client: usize, now: f64, ctx: &FederationContext) -> f64 {
        let peak = self.peak_online.clamp(0.0, 1.0);
        let trough = self.trough_online.clamp(0.0, peak);
        let day = self.day_secs.max(f64::EPSILON);
        let angle = std::f64::consts::TAU * (now / day) + self.phase(client, ctx);
        let wave = 0.5 + 0.5 * angle.sin();
        let p = trough + (peak - trough) * wave;
        (p * ctx.assignment(client).device.availability).clamp(0.0, 1.0)
    }

    fn is_online(&self, client: usize, now: f64, ctx: &FederationContext) -> bool {
        let p = self.online_probability(client, now, ctx);
        // An independent, order-free draw per (seed, client, slot).
        SeededRng::new(ctx.seed() ^ 0xD1A2)
            .derive(client as u64)
            .derive(self.slot(now))
            .bernoulli(p)
    }
}

impl ClientScheduler for DiurnalTrace {
    fn name(&self) -> &'static str {
        "diurnal-trace"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        plan_among_online(
            |c| self.is_online(c, now, ctx),
            self.idle_wait_secs(),
            per_round,
            ctx,
            rng,
        )
    }

    fn is_available(&self, client: usize, now: f64, ctx: &FederationContext) -> bool {
        self.is_online(client, now, ctx)
    }

    fn idle_wait_secs(&self) -> f64 {
        self.slot_secs.max(f64::EPSILON)
    }
}

/// Trace-replay scheduling: availability is read back from a *recorded*
/// run instead of a synthetic model, closing the telemetry loop — the
/// per-update CSV written by [`CsvTelemetry`](crate::CsvTelemetry)
/// (`round,client,dispatch_secs,arrival_secs,staleness,payload_bytes`) is
/// parsed into per-client online windows (`[dispatch, arrival]` proves the
/// client was reachable for that span), and a client can only be selected
/// or dispatched inside one of its windows.
///
/// The recording has a finite horizon; the replay wraps time modulo that
/// horizon so runs longer than the recording keep making progress (an
/// empty trace leaves every client offline forever).
#[derive(Debug, Clone)]
pub struct TraceReplay {
    /// Per-client merged online windows, each sorted by start time. Keyed
    /// sparsely: client ids come from a file, so memory must follow the
    /// number of rows, not the largest id.
    windows: BTreeMap<usize, Vec<(f64, f64)>>,
    /// Largest window end over all clients — the wrap-around period.
    horizon: f64,
    /// How far the asynchronous engine advances the clock when nobody is
    /// reachable.
    slot_secs: f64,
}

impl TraceReplay {
    /// Parses the per-update CSV emitted by
    /// [`CsvTelemetry`](crate::CsvTelemetry). Lines that do not carry at
    /// least `round,client,dispatch_secs,arrival_secs` (plus the header)
    /// are rejected.
    pub fn from_csv(csv: &str) -> crate::FlResult<Self> {
        let mut windows: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("round,") {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() < 4 {
                return Err(crate::FlError::InvalidConfig(format!(
                    "trace line {} has {} fields, expected at least 4: {line:?}",
                    lineno + 1,
                    fields.len()
                )));
            }
            let parse_err = |what: &str| {
                crate::FlError::InvalidConfig(format!(
                    "trace line {}: malformed {what}: {line:?}",
                    lineno + 1
                ))
            };
            let client: usize = fields[1].parse().map_err(|_| parse_err("client"))?;
            let dispatch: f64 = fields[2].parse().map_err(|_| parse_err("dispatch_secs"))?;
            let arrival: f64 = fields[3].parse().map_err(|_| parse_err("arrival_secs"))?;
            if !dispatch.is_finite() || !arrival.is_finite() || arrival < dispatch {
                return Err(parse_err("window"));
            }
            windows.entry(client).or_default().push((dispatch, arrival));
        }
        let mut horizon = 0.0f64;
        for spans in windows.values_mut() {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            // Merge overlapping observations into maximal online windows.
            let mut merged: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
            for &(start, end) in spans.iter() {
                match merged.last_mut() {
                    Some(last) if start <= last.1 => last.1 = last.1.max(end),
                    _ => merged.push((start, end)),
                }
            }
            if let Some(&(_, end)) = merged.last() {
                horizon = horizon.max(end);
            }
            *spans = merged;
        }
        Ok(TraceReplay {
            windows,
            horizon,
            slot_secs: 1.0,
        })
    }

    /// Sets the idle-wait granularity of the asynchronous engine.
    #[must_use]
    pub fn with_slot_secs(mut self, slot_secs: f64) -> Self {
        self.slot_secs = slot_secs.max(f64::EPSILON);
        self
    }

    /// Number of clients the trace covers (highest observed id + 1).
    pub fn trace_clients(&self) -> usize {
        self.windows
            .keys()
            .next_back()
            .map_or(0, |&highest| highest.saturating_add(1))
    }

    fn is_online(&self, client: usize, now: f64) -> bool {
        let Some(spans) = self.windows.get(&client) else {
            return false;
        };
        if spans.is_empty() || self.horizon <= 0.0 {
            return false;
        }
        let t = now.rem_euclid(self.horizon);
        // First window starting after t; the one before (if any) may cover it.
        let i = spans.partition_point(|&(start, _)| start <= t);
        i > 0 && t <= spans[i - 1].1
    }
}

impl ClientScheduler for TraceReplay {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn plan_round(
        &self,
        _round: usize,
        per_round: usize,
        now: f64,
        ctx: &FederationContext,
        rng: &mut SeededRng,
    ) -> RoundPlan {
        plan_among_online(
            |c| self.is_online(c, now),
            self.idle_wait_secs(),
            per_round,
            ctx,
            rng,
        )
    }

    fn is_available(&self, client: usize, now: f64, _ctx: &FederationContext) -> bool {
        self.is_online(client, now)
    }

    fn idle_wait_secs(&self) -> f64 {
        self.slot_secs
    }
}

/// Declarative scheduler configuration carried by
/// [`EngineConfig`](crate::EngineConfig) and `ExperimentSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Schedule {
    /// [`UniformSampler`] — today's default behaviour.
    #[default]
    Uniform,
    /// [`DeadlineAware`] straggler dropping with the given deadline.
    DeadlineAware {
        /// Server-side round deadline in simulated seconds.
        deadline_secs: f64,
    },
    /// [`PowerOfChoice`] fastest-of-k selection with the given over-sampling
    /// factor.
    FastestOfK {
        /// Candidate over-sampling factor.
        factor: usize,
    },
    /// [`BandwidthAware`] cheapest-upload selection with the given
    /// over-sampling factor.
    BandwidthAware {
        /// Candidate over-sampling factor.
        factor: usize,
    },
    /// [`AvailabilityTrace`] on/offline gating with the given slot length
    /// and online multiplier.
    AvailabilityTrace {
        /// Length of one trace slot in simulated seconds.
        period_secs: f64,
        /// Global multiplier on per-device expected availability.
        online_fraction: f64,
    },
    /// [`DiurnalTrace`] correlated day/night availability with a seeded
    /// sinusoidal phase per client.
    DiurnalTrace {
        /// Length of one full day/night cycle in simulated seconds.
        day_secs: f64,
        /// Length of one trace slot in simulated seconds.
        slot_secs: f64,
        /// Online probability at the peak of a client's cycle.
        peak_online: f64,
        /// Online probability at the trough of a client's cycle.
        trough_online: f64,
    },
}

impl Schedule {
    /// Instantiates the scheduler this configuration describes.
    pub fn build(&self) -> Box<dyn ClientScheduler> {
        match *self {
            Schedule::Uniform => Box::new(UniformSampler),
            Schedule::DeadlineAware { deadline_secs } => Box::new(DeadlineAware { deadline_secs }),
            Schedule::FastestOfK { factor } => Box::new(PowerOfChoice { factor }),
            Schedule::BandwidthAware { factor } => Box::new(BandwidthAware::new(factor)),
            Schedule::AvailabilityTrace {
                period_secs,
                online_fraction,
            } => Box::new(AvailabilityTrace {
                period_secs,
                online_fraction,
            }),
            Schedule::DiurnalTrace {
                day_secs,
                slot_secs,
                peak_online,
                trough_online,
            } => Box::new(DiurnalTrace {
                day_secs,
                slot_secs,
                peak_online,
                trough_online,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalTrainConfig;
    use mhfl_data::{DataTask, FederatedDataset};
    use mhfl_device::{ConstraintCase, CostModel, ModelPool};
    use mhfl_models::{MhflMethod, ModelFamily};

    fn context(num_clients: usize) -> FederationContext {
        let data = FederatedDataset::generate(DataTask::UciHar, num_clients, 10, None, 0);
        let pool = ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::ALL,
            6,
        );
        let case = ConstraintCase::Memory;
        let devices = case.build_population(num_clients, 3);
        let assignments = case.assign_clients(
            &pool,
            MhflMethod::SHeteroFl,
            &devices,
            &CostModel::default(),
        );
        FederationContext::new(data, assignments, LocalTrainConfig::default(), 3).unwrap()
    }

    #[test]
    fn uniform_sampler_matches_target_count() {
        let ctx = context(12);
        let mut rng = SeededRng::new(9);
        let plan = UniformSampler.plan_round(1, 4, 0.0, &ctx, &mut rng);
        assert_eq!(plan.clients.len(), 4);
        assert!(plan.clients.windows(2).all(|w| w[0] < w[1]));
        assert!(plan.round_secs > 0.0);
    }

    #[test]
    fn deadline_aware_never_selects_over_deadline() {
        let ctx = context(16);
        // Pick a deadline between the fastest and slowest client so some are
        // skipped and some survive.
        let costs: Vec<f64> = (0..16)
            .map(|c| ctx.assignment(c).cost.total_secs())
            .collect();
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(0.0f64, f64::max);
        let deadline = (min + max) / 2.0;
        let scheduler = DeadlineAware {
            deadline_secs: deadline,
        };
        let mut rng = SeededRng::new(4);
        for round in 1..=50 {
            let plan = scheduler.plan_round(round, 8, 0.0, &ctx, &mut rng);
            for &c in &plan.clients {
                assert!(
                    ctx.assignment(c).cost.total_secs() <= deadline,
                    "client {c} exceeds the deadline"
                );
            }
            assert!(plan.round_secs <= deadline + 1e-12);
        }
    }

    #[test]
    fn deadline_aware_charges_full_deadline_when_dropping() {
        let ctx = context(8);
        let costs: Vec<f64> = (0..8)
            .map(|c| ctx.assignment(c).cost.total_secs())
            .collect();
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        // Deadline below every cost: all candidates dropped, full deadline charged.
        let scheduler = DeadlineAware {
            deadline_secs: min / 2.0,
        };
        let mut rng = SeededRng::new(1);
        let plan = scheduler.plan_round(1, 8, 0.0, &ctx, &mut rng);
        assert!(plan.clients.is_empty());
        assert!((plan.round_secs - min / 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_of_choice_is_no_slower_than_uniform() {
        let ctx = context(16);
        let mut uniform_rng = SeededRng::new(2);
        let mut poc_rng = SeededRng::new(2);
        let poc = PowerOfChoice { factor: 3 };
        let mut uniform_total = 0.0;
        let mut poc_total = 0.0;
        for round in 1..=40 {
            uniform_total += UniformSampler
                .plan_round(round, 4, 0.0, &ctx, &mut uniform_rng)
                .round_secs;
            let plan = poc.plan_round(round, 4, 0.0, &ctx, &mut poc_rng);
            assert_eq!(plan.clients.len(), 4);
            poc_total += plan.round_secs;
        }
        assert!(
            poc_total <= uniform_total,
            "fastest-of-k rounds ({poc_total:.1}s) should not be slower than uniform ({uniform_total:.1}s)"
        );
    }

    #[test]
    fn schedule_builds_the_matching_scheduler() {
        assert_eq!(Schedule::Uniform.build().name(), "uniform");
        assert_eq!(
            Schedule::DeadlineAware {
                deadline_secs: 10.0
            }
            .build()
            .name(),
            "deadline-aware"
        );
        assert_eq!(
            Schedule::FastestOfK { factor: 2 }.build().name(),
            "power-of-choice"
        );
        assert_eq!(
            Schedule::BandwidthAware { factor: 2 }.build().name(),
            "bandwidth-aware"
        );
        assert_eq!(
            Schedule::AvailabilityTrace {
                period_secs: 50.0,
                online_fraction: 0.8
            }
            .build()
            .name(),
            "availability-trace"
        );
        assert_eq!(
            Schedule::DiurnalTrace {
                day_secs: 1000.0,
                slot_secs: 50.0,
                peak_online: 0.9,
                trough_online: 0.1,
            }
            .build()
            .name(),
            "diurnal-trace"
        );
        assert_eq!(Schedule::default(), Schedule::Uniform);
    }

    #[test]
    fn bandwidth_aware_prefers_cheap_uploads() {
        let ctx = context(16);
        let scheduler = BandwidthAware::new(4);
        let mut rng = SeededRng::new(5);
        let plan = scheduler.plan_round(1, 4, 0.0, &ctx, &mut rng);
        assert_eq!(plan.clients.len(), 4);
        let mean_selected: f64 = plan
            .clients
            .iter()
            .map(|&c| upload_secs(&ctx, c))
            .sum::<f64>()
            / plan.clients.len() as f64;
        let mean_all: f64 = (0..16).map(|c| upload_secs(&ctx, c)).sum::<f64>() / 16.0;
        assert!(
            mean_selected <= mean_all,
            "selected mean upload {mean_selected}s vs population {mean_all}s"
        );
        // Async dispatch picks the globally cheapest eligible upload,
        // without consuming any randomness.
        let eligible: Vec<usize> = (0..16).collect();
        let before = rng.snapshot();
        let picked = scheduler
            .pick_next(0.0, &Candidates(&eligible), &ctx, &mut rng)
            .expect("eligible non-empty");
        assert_eq!(rng.snapshot(), before, "ranked dispatch is RNG-free");
        assert!(eligible
            .iter()
            .all(|&c| upload_secs(&ctx, picked) <= upload_secs(&ctx, c)));
        // With the cheapest clients busy, the walk lands on the cheapest
        // remaining one.
        let rest: Vec<usize> = eligible.iter().copied().filter(|&c| c != picked).collect();
        let second = scheduler
            .pick_next(0.0, &Candidates(&rest), &ctx, &mut rng)
            .expect("still non-empty");
        assert_ne!(second, picked);
        assert!(rest
            .iter()
            .all(|&c| upload_secs(&ctx, second) <= upload_secs(&ctx, c)));
        assert!(scheduler
            .pick_next(0.0, &Candidates(&[]), &ctx, &mut rng)
            .is_none());
    }

    #[test]
    fn availability_trace_is_deterministic_and_gates_selection() {
        let ctx = context(12);
        let trace = AvailabilityTrace {
            period_secs: 100.0,
            online_fraction: 0.5,
        };
        // The trace is a pure function of (seed, client, slot).
        for client in 0..12 {
            assert_eq!(
                trace.is_available(client, 42.0, &ctx),
                trace.is_available(client, 42.0, &ctx)
            );
            // Same slot, same answer.
            assert_eq!(
                trace.is_available(client, 1.0, &ctx),
                trace.is_available(client, 99.0, &ctx)
            );
        }
        // plan_round only ever selects online clients.
        let mut rng = SeededRng::new(3);
        for round in 1..=30 {
            let now = round as f64 * 37.0;
            let plan = trace.plan_round(round, 6, now, &ctx, &mut rng);
            for &c in &plan.clients {
                assert!(trace.is_available(c, now, &ctx), "client {c} is offline");
            }
        }
    }

    #[test]
    fn zero_online_fraction_takes_every_client_offline() {
        let ctx = context(8);
        let trace = AvailabilityTrace {
            period_secs: 60.0,
            online_fraction: 0.0,
        };
        let mut rng = SeededRng::new(1);
        let plan = trace.plan_round(1, 4, 0.0, &ctx, &mut rng);
        assert!(plan.clients.is_empty());
        // The clock still advances by one trace slot.
        assert!((plan.round_secs - 60.0).abs() < 1e-12);
        assert!((0..8).all(|c| !trace.is_available(c, 0.0, &ctx)));
        assert_eq!(trace.idle_wait_secs(), 60.0);
    }

    #[test]
    fn diurnal_trace_is_deterministic_and_sinusoidal() {
        let ctx = context(10);
        let trace = DiurnalTrace {
            day_secs: 1000.0,
            slot_secs: 50.0,
            peak_online: 1.0,
            trough_online: 0.0,
        };
        // Pure function of (seed, client, slot).
        for client in 0..10 {
            for now in [0.0, 120.0, 730.0] {
                assert_eq!(
                    trace.is_available(client, now, &ctx),
                    trace.is_available(client, now, &ctx)
                );
            }
            // Same slot, same answer.
            assert_eq!(
                trace.is_available(client, 1.0, &ctx),
                trace.is_available(client, 49.0, &ctx)
            );
        }
        // The underlying probability actually oscillates over a day.
        for client in 0..10 {
            let probs: Vec<f64> = (0..20)
                .map(|i| trace.online_probability(client, i as f64 * 50.0, &ctx))
                .collect();
            let min = probs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = probs.iter().copied().fold(0.0f64, f64::max);
            assert!(
                max - min > 0.3,
                "client {client} probability should swing over a day: {min}..{max}"
            );
        }
        // Clients have distinct phases: at a fixed instant, probabilities
        // differ across the population.
        let at_zero: Vec<u64> = (0..10)
            .map(|c| trace.online_probability(c, 0.0, &ctx).to_bits())
            .collect();
        let mut unique = at_zero.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 1, "all clients share a phase");
        // plan_round only selects online clients.
        let mut rng = SeededRng::new(8);
        for round in 1..=20 {
            let now = round as f64 * 37.0;
            let plan = trace.plan_round(round, 5, now, &ctx, &mut rng);
            for &c in &plan.clients {
                assert!(trace.is_available(c, now, &ctx), "client {c} is offline");
            }
        }
    }

    #[test]
    fn diurnal_trace_correlates_consecutive_slots() {
        // Near the trough, with a long day and short slots, a client that is
        // offline tends to stay offline: the number of on/off flips over a
        // window must be far below what i.i.d. coin flips at p = 0.5 would
        // produce.
        let ctx = context(8);
        let trace = DiurnalTrace {
            day_secs: 10_000.0,
            slot_secs: 10.0,
            peak_online: 1.0,
            trough_online: 0.0,
        };
        let mut flips = 0usize;
        let mut total = 0usize;
        for client in 0..8 {
            let states: Vec<bool> = (0..200)
                .map(|i| trace.is_available(client, i as f64 * 10.0, &ctx))
                .collect();
            flips += states.windows(2).filter(|w| w[0] != w[1]).count();
            total += states.len() - 1;
        }
        // i.i.d. p=0.5 flips half the time; the sinusoid keeps long
        // same-state stretches around its extremes.
        assert!(
            (flips as f64) < 0.4 * total as f64,
            "{flips}/{total} flips looks i.i.d., not diurnal"
        );
    }

    #[test]
    fn diurnal_trace_degenerate_bounds() {
        let ctx = context(6);
        // Zero peak takes every client offline and the clock advances by
        // one slot per planning attempt.
        let dark = DiurnalTrace {
            day_secs: 500.0,
            slot_secs: 25.0,
            peak_online: 0.0,
            trough_online: 0.0,
        };
        let mut rng = SeededRng::new(2);
        let plan = dark.plan_round(1, 4, 0.0, &ctx, &mut rng);
        assert!(plan.clients.is_empty());
        assert!((plan.round_secs - 25.0).abs() < 1e-12);
        assert_eq!(dark.idle_wait_secs(), 25.0);
        assert!((0..6).all(|c| !dark.is_available(c, 0.0, &ctx)));
        // A trough above the peak is clamped to the peak, not inverted.
        let clamped = DiurnalTrace {
            day_secs: 500.0,
            slot_secs: 25.0,
            peak_online: 0.4,
            trough_online: 0.9,
        };
        for c in 0..6 {
            let p = clamped.online_probability(c, 123.0, &ctx);
            assert!(p <= 0.4 + 1e-12);
        }
    }

    #[test]
    fn default_pick_next_is_one_uniform_draw_over_the_free_set() {
        // The digest contract: for always-available policies, pick_next
        // must consume exactly one uniform draw over the free set — the
        // same draw the engine historically made over a materialised
        // eligible Vec.
        let ctx = context(12);
        let free: Vec<usize> = (0..12).collect();
        let mut a = SeededRng::new(77);
        let mut b = SeededRng::new(77);
        let picked = UniformSampler.pick_next(0.0, &Candidates(&free), &ctx, &mut a);
        let expected = free[b.index(free.len())];
        assert_eq!(picked, Some(expected));
        assert_eq!(a.snapshot(), b.snapshot(), "exactly one draw consumed");
    }

    #[test]
    fn default_pick_next_gates_on_availability() {
        let ctx = context(12);
        let trace = AvailabilityTrace {
            period_secs: 100.0,
            online_fraction: 0.5,
        };
        let free: Vec<usize> = (0..12).collect();
        let mut rng = SeededRng::new(6);
        let mut picked_any = false;
        for round in 0..30 {
            let now = round as f64 * 100.0;
            if let Some(c) = trace.pick_next(now, &Candidates(&free), &ctx, &mut rng) {
                assert!(trace.is_available(c, now, &ctx), "picked offline client");
                picked_any = true;
            }
        }
        assert!(picked_any, "half-online trace never yielded a client");
        // Nobody online → None, even though the pool is non-empty.
        let dark = AvailabilityTrace {
            period_secs: 100.0,
            online_fraction: 0.0,
        };
        assert!(dark
            .pick_next(0.0, &Candidates(&free), &ctx, &mut rng)
            .is_none());
    }

    #[test]
    fn sparse_sampling_matches_target_count_at_scale() {
        // Floyd branch: huge population, tiny selection — O(count) work.
        let mut rng = SeededRng::new(11);
        let picked = sample_clients(&mut rng, 1_000_000, 8);
        assert_eq!(picked.len(), 8);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert!(picked.iter().all(|&c| c < 1_000_000));
        // Dense branch is byte-for-byte the legacy shuffle (golden digests
        // are pinned against it).
        let mut a = SeededRng::new(12);
        let mut b = SeededRng::new(12);
        assert_eq!(sample_clients(&mut a, 10, 4), b.choose_indices(10, 4));
    }

    #[test]
    fn trace_replay_parses_merges_and_gates() {
        let csv = "round,client,dispatch_secs,arrival_secs,staleness,payload_bytes\n\
                   1,0,0.0,10.0,0,100\n\
                   1,0,5.0,20.0,0,100\n\
                   2,1,30.0,40.0,1,200\n";
        let trace = TraceReplay::from_csv(csv).unwrap();
        assert_eq!(trace.trace_clients(), 2);
        // Client 0's two overlapping observations merge into [0, 20].
        assert!(trace.is_online(0, 0.0));
        assert!(trace.is_online(0, 15.0));
        assert!(!trace.is_online(0, 25.0));
        // Client 1 is only online inside its recorded window.
        assert!(!trace.is_online(1, 15.0));
        assert!(trace.is_online(1, 35.0));
        // A client the trace never saw is offline.
        assert!(!trace.is_online(7, 35.0));
        // Time wraps at the horizon (40s): 45s replays as 5s.
        assert!(trace.is_online(0, 45.0));
        assert!(!trace.is_online(1, 65.0));
    }

    #[test]
    fn trace_replay_plan_round_selects_only_recorded_online_clients() {
        let ctx = context(8);
        let csv = "round,client,dispatch_secs,arrival_secs,staleness,payload_bytes\n\
                   1,2,0.0,50.0,0,10\n\
                   1,5,0.0,50.0,0,10\n\
                   2,3,60.0,90.0,0,10\n";
        let trace = TraceReplay::from_csv(csv).unwrap().with_slot_secs(5.0);
        let mut rng = SeededRng::new(4);
        let plan = trace.plan_round(1, 8, 10.0, &ctx, &mut rng);
        assert_eq!(plan.clients, vec![2, 5]);
        let later = trace.plan_round(2, 8, 70.0, &ctx, &mut rng);
        assert_eq!(later.clients, vec![3]);
        assert_eq!(trace.idle_wait_secs(), 5.0);
        // The replay exposes itself through the generic availability gate.
        assert!(trace.is_available(2, 10.0, &ctx));
        assert!(!trace.is_available(3, 10.0, &ctx));
    }

    #[test]
    fn trace_replay_rejects_malformed_rows_and_empty_traces_idle() {
        assert!(TraceReplay::from_csv("1,2,3").is_err());
        assert!(TraceReplay::from_csv("1,x,0.0,1.0").is_err());
        assert!(
            TraceReplay::from_csv("1,0,5.0,1.0").is_err(),
            "arrival before dispatch"
        );
        // Client ids come from the file: a huge one must cost O(rows) memory
        // and no id arithmetic may overflow.
        for id in [usize::MAX, 1_000_000_000_000_000] {
            let replay = TraceReplay::from_csv(&format!("0,{id},0,1")).unwrap();
            assert_eq!(replay.trace_clients(), id.saturating_add(1));
            assert!(replay.is_online(id, 0.5) && !replay.is_online(0, 0.5));
        }
        let empty = TraceReplay::from_csv("").unwrap();
        assert_eq!(empty.trace_clients(), 0);
        assert!(!empty.is_online(0, 0.0));
        let ctx = context(4);
        let mut rng = SeededRng::new(1);
        let plan = empty.plan_round(1, 4, 0.0, &ctx, &mut rng);
        assert!(plan.clients.is_empty());
        assert!((plan.round_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn new_policies_clamp_per_round_to_population() {
        let ctx = context(5);
        let mut rng = SeededRng::new(9);
        let bw = BandwidthAware::new(3).plan_round(1, 40, 0.0, &ctx, &mut rng);
        assert_eq!(bw.clients.len(), 5);
        let trace = AvailabilityTrace {
            period_secs: 50.0,
            online_fraction: 1.0,
        };
        let plan = trace.plan_round(1, 40, 0.0, &ctx, &mut rng);
        assert!(plan.clients.len() <= 5);
        assert!(plan.clients.iter().all(|&c| c < 5));
    }
}
