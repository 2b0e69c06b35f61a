//! Pluggable client-selection policies.
//!
//! Every round the engine asks a [`ClientScheduler`] which clients should
//! participate and how long the synchronous round lasts on the simulated
//! clock. The scheduler sees the per-client [`RoundCost`]s through the
//! [`FederationContext`]. [`UniformSampler`] reproduces classic FedAvg
//! sampling and is what the [`Schedule`] enum on
//! [`EngineConfig`](crate::EngineConfig) builds; [`TraceReplay`] gates
//! selection on the availability windows of a recorded run and is injected
//! with [`Session::set_scheduler`](crate::Session::set_scheduler), like any
//! custom policy.
//!
//! The asynchronous buffered engine (see
//! [`Execution`](crate::Execution)) additionally consults
//! [`is_available`](ClientScheduler::is_available) and
//! [`pick_next`](ClientScheduler::pick_next) to refill dispatch slots one
//! client at a time as updates arrive.
//!
//! [`RoundCost`]: mhfl_device::RoundCost

use std::collections::BTreeMap;

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
    /// empty (e.g. nobody was reachable), in which case the round is
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
/// round.
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
        let online: Vec<usize> = (0..ctx.num_clients())
            .filter(|&c| self.is_online(c, now))
            .collect();
        if online.is_empty() {
            // Nobody is reachable: the round is empty and waits out one slot.
            return RoundPlan {
                clients: Vec::new(),
                round_secs: self.slot_secs,
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

    fn is_available(&self, client: usize, now: f64, _ctx: &FederationContext) -> bool {
        self.is_online(client, now)
    }

    fn idle_wait_secs(&self) -> f64 {
        self.slot_secs
    }
}

/// Declarative scheduler configuration carried by
/// [`EngineConfig`](crate::EngineConfig). Every committed result samples
/// uniformly; other policies are injected with
/// [`Session::set_scheduler`](crate::Session::set_scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Schedule {
    /// [`UniformSampler`].
    #[default]
    Uniform,
}

impl Schedule {
    /// Instantiates the scheduler this configuration describes.
    pub fn build(&self) -> Box<dyn ClientScheduler> {
        match *self {
            Schedule::Uniform => Box::new(UniformSampler),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::test_context;
    use mhfl_device::ConstraintCase;

    fn context(num_clients: usize) -> FederationContext {
        test_context(ConstraintCase::Memory, num_clients)
    }

    /// Clients 2 and 5 are online over `[0, 50]`, client 3 over `[60, 90]`.
    const TRACE: &str = "round,client,dispatch_secs,arrival_secs,staleness,payload_bytes\n\
                         1,2,0.0,50.0,0,10\n\
                         1,5,0.0,50.0,0,10\n\
                         2,3,60.0,90.0,0,10\n";

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
    fn schedule_builds_the_matching_scheduler() {
        assert_eq!(Schedule::Uniform.build().name(), "uniform");
        assert_eq!(Schedule::default(), Schedule::Uniform);
    }

    #[test]
    fn availability_trace_is_deterministic_and_gates_selection() {
        let ctx = context(12);
        let trace = TraceReplay::from_csv(TRACE).unwrap();
        // Availability is a pure function of (client, time).
        let probe =
            |t: f64| -> Vec<bool> { (0..12).map(|c| trace.is_available(c, t, &ctx)).collect() };
        let before: Vec<Vec<bool>> = (0..30).map(|i| probe(i as f64 * 7.0)).collect();
        // plan_round only ever selects online clients, whatever it planned
        // before.
        let mut rng = SeededRng::new(3);
        for round in 1..=30 {
            let now = round as f64 * 7.0;
            let plan = trace.plan_round(round, 6, now, &ctx, &mut rng);
            for &c in &plan.clients {
                assert!(trace.is_available(c, now, &ctx), "client {c} is offline");
            }
        }
        let after: Vec<Vec<bool>> = (0..30).map(|i| probe(i as f64 * 7.0)).collect();
        assert_eq!(before, after);
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
        let trace = TraceReplay::from_csv(TRACE).unwrap();
        let free: Vec<usize> = (0..12).collect();
        let mut rng = SeededRng::new(6);
        for now in [0.0, 10.0, 50.0, 60.0, 75.0, 90.0] {
            let c = trace
                .pick_next(now, &Candidates(&free), &ctx, &mut rng)
                .expect("someone is online");
            assert!(trace.is_available(c, now, &ctx), "picked offline client");
        }
        // Nobody online → None, even though the pool is non-empty.
        assert!(trace
            .pick_next(55.0, &Candidates(&free), &ctx, &mut rng)
            .is_none());
        // An online client that is busy is no candidate either.
        assert!(trace
            .pick_next(75.0, &Candidates(&[0, 1, 2, 4, 5]), &ctx, &mut rng)
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
        let trace = TraceReplay::from_csv(TRACE).unwrap().with_slot_secs(5.0);
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
        let uniform = UniformSampler.plan_round(1, 40, 0.0, &ctx, &mut rng);
        assert_eq!(uniform.clients, vec![0, 1, 2, 3, 4]);
        let everyone: String = (0..5).map(|c| format!("1,{c},0.0,100.0\n")).collect();
        let trace = TraceReplay::from_csv(&everyone).unwrap();
        let plan = trace.plan_round(1, 40, 50.0, &ctx, &mut rng);
        assert_eq!(plan.clients, vec![0, 1, 2, 3, 4]);
    }
}
