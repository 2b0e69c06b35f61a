//! Deterministic random number generation for reproducible experiments.

/// A self-contained xoshiro256++ core, seeded via splitmix64 so any 64-bit
/// seed yields a well-mixed initial state. Keeping the generator in-tree
/// (instead of depending on `rand`) makes experiment reproducibility a
/// property of this repository alone.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_words(s: [u64; 4]) -> Self {
        Xoshiro256 { s }
    }

    fn words(&self) -> [u64; 4] {
        self.s
    }

    fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[low, high)`.
    fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        let sample = low + self.unit_f64() * (high - low);
        // Guard against rounding up to the (exclusive) upper bound.
        if sample >= high {
            low.max(high - f64::EPSILON * high.abs())
        } else {
            sample
        }
    }

    fn range_f32(&mut self, low: f32, high: f32) -> f32 {
        let sample = low + self.unit_f64() as f32 * (high - low);
        if sample >= high {
            low.max(high - f32::EPSILON * high.abs())
        } else {
            sample
        }
    }

    /// Uniform draw in `[0, n)` via 128-bit widening multiply.
    fn range_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A bit-exact snapshot of a [`SeededRng`], sufficient to resume its stream
/// exactly where it left off.
///
/// Produced by [`SeededRng::snapshot`] and consumed by
/// [`SeededRng::from_snapshot`]; the checkpoint/resume machinery of the
/// federated engine stores one of these per live generator so a restored run
/// replays the identical random sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// The xoshiro256++ state words.
    pub words: [u64; 4],
    /// The seed the generator was created with (kept so
    /// [`SeededRng::derive`] keeps producing the same child streams).
    pub seed: u64,
    /// Whether the generator is the zero-initialisation stub.
    pub zero_init: bool,
}

/// A seeded random number generator shared by data generation and model
/// initialisation so entire experiments are reproducible from a single seed.
///
/// ```
/// use mhfl_tensor::SeededRng;
/// let mut a = SeededRng::new(7);
/// let mut b = SeededRng::new(7);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: Xoshiro256,
    seed: u64,
    zero_init: bool,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: Xoshiro256::new(seed),
            seed,
            zero_init: false,
        }
    }

    /// Creates a generator whose continuous samplers ([`normal`] and
    /// [`uniform`]) return `0.0` without touching the generator state.
    ///
    /// Used to build parameter containers whose values are immediately
    /// overwritten — e.g. `ProxyModel::from_state` reconstructing a client
    /// model from a stored snapshot — skipping the Box–Muller work of a full
    /// random initialisation. Discrete samplers are unaffected.
    ///
    /// [`normal`]: SeededRng::normal
    /// [`uniform`]: SeededRng::uniform
    pub fn zero_init() -> Self {
        SeededRng {
            zero_init: true,
            ..SeededRng::new(0)
        }
    }

    /// Whether this generator is the zero-initialisation stub produced by
    /// [`SeededRng::zero_init`].
    pub fn is_zero_init(&self) -> bool {
        self.zero_init
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Captures the generator's full state. Resuming from the snapshot with
    /// [`SeededRng::from_snapshot`] continues the exact same stream: the
    /// n-th draw after the snapshot equals the n-th draw after the capture.
    pub fn snapshot(&self) -> RngState {
        RngState {
            words: self.inner.words(),
            seed: self.seed,
            zero_init: self.zero_init,
        }
    }

    /// Reconstructs a generator from a [`snapshot`](SeededRng::snapshot).
    pub fn from_snapshot(state: RngState) -> SeededRng {
        SeededRng {
            inner: Xoshiro256::from_words(state.words),
            seed: state.seed,
            zero_init: state.zero_init,
        }
    }

    /// Derives a child generator whose stream is independent of, but fully
    /// determined by, this generator's seed and the supplied `stream` label.
    ///
    /// Used to hand out per-client, per-round generators that do not depend
    /// on the order in which clients are simulated.
    pub fn derive(&self, stream: u64) -> SeededRng {
        // SplitMix64-style mixing keeps derived seeds well distributed.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SeededRng {
            // Children of a zero-init stub stay zero-init, so an entire model
            // built from one skips initialisation in every sub-module.
            zero_init: self.zero_init,
            ..SeededRng::new(z ^ (z >> 31))
        }
    }

    /// Samples a standard-normal value scaled to mean `mean` and standard
    /// deviation `std` (Box–Muller transform; avoids extra dependencies).
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        if self.zero_init {
            return 0.0;
        }
        let u1: f32 = self.inner.range_f32(f32::EPSILON, 1.0);
        let u2: f32 = self.inner.range_f32(0.0, 1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Samples uniformly from `[low, high)`.
    pub fn uniform(&mut self, low: f32, high: f32) -> f32 {
        if self.zero_init {
            return 0.0;
        }
        if (high - low).abs() < f32::EPSILON {
            return low;
        }
        self.inner.range_f32(low, high)
    }

    /// Samples an integer uniformly from `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.range_u64(n as u64) as usize
    }

    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.unit_f64() < p
    }

    /// Draws a sample from a symmetric Dirichlet distribution with
    /// concentration `alpha` over `k` categories, via normalised Gamma
    /// samples (Marsaglia–Tsang for alpha >= 1, boosting otherwise).
    pub fn dirichlet(&mut self, alpha: f64, k: usize) -> Vec<f64> {
        assert!(k > 0, "dirichlet requires at least one category");
        let mut draws: Vec<f64> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f64 = draws.iter().sum();
        if sum <= f64::EPSILON {
            // Degenerate case: fall back to a one-hot on a random category.
            let hot = self.index(k);
            draws = vec![0.0; k];
            draws[hot] = 1.0;
            return draws;
        }
        draws.iter_mut().for_each(|d| *d /= sum);
        draws
    }

    /// Samples from a Gamma(shape, 1) distribution.
    fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}
            let u: f64 = self.inner.range_f64(f64::EPSILON, 1.0);
            return self.gamma(shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = {
                let u1: f64 = self.inner.range_f64(f64::EPSILON, 1.0);
                let u2: f64 = self.inner.range_f64(0.0, 1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = self.inner.range_f64(f64::EPSILON, 1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// Samples from a log-normal distribution with the given parameters of
    /// the underlying normal (used by the synthetic IMA device population).
    pub fn log_normal(&mut self, mu: f32, sigma: f32) -> f32 {
        crate::math::exp(self.normal(mu, sigma))
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.range_u64(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Chooses `count` distinct indices from `[0, n)` uniformly at random.
    ///
    /// # Panics
    /// Panics if `count > n`.
    pub fn choose_indices(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "cannot choose {count} items from {n}");
        let mut indices: Vec<usize> = (0..n).collect();
        self.shuffle(&mut indices);
        indices.truncate(count);
        indices.sort_unstable();
        indices
    }

    /// Chooses `count` distinct indices from `[0, n)` uniformly at random in
    /// O(count) time and memory (Robert Floyd's sampling algorithm),
    /// returned sorted ascending.
    ///
    /// The subset is uniform like [`choose_indices`](SeededRng::choose_indices)
    /// but the two methods consume the stream differently and realise
    /// different subsets for the same state: `choose_indices` shuffles all
    /// `n` candidates (O(n) work — fine when `count` is a sizeable fraction
    /// of `n`), while this never touches more than `count` of them — the
    /// population-scale path, where `n` is millions and `count` is dozens.
    ///
    /// # Panics
    /// Panics if `count > n`.
    pub fn sample_indices(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "cannot sample {count} items from {n}");
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        for j in (n - count)..n {
            let candidate = self.index(j + 1);
            if chosen.contains(&candidate) {
                chosen.push(j);
            } else {
                chosen.push(candidate);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// Samples an index according to the (non-negative, not necessarily
    /// normalised) weights. Falls back to uniform if all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index requires weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= f64::EPSILON {
            return self.index(weights.len());
        }
        let mut target = self.inner.range_f64(0.0, total);
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..16 {
            assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let base = SeededRng::new(42);
        let mut a = base.derive(1);
        let mut b = base.derive(2);
        let va: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_reproducible() {
        let base = SeededRng::new(7);
        let mut a = base.derive(5);
        let mut b = SeededRng::new(7).derive(5);
        assert_eq!(a.index(1000), b.index(1000));
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SeededRng::new(3);
        for &alpha in &[0.1, 0.5, 1.0, 5.0] {
            let draw = rng.dirichlet(alpha, 10);
            let sum: f64 = draw.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha={alpha} sum={sum}");
            assert!(draw.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn dirichlet_concentration_effect() {
        // Small alpha should produce more skewed distributions on average.
        let mut rng = SeededRng::new(11);
        let avg_max = |alpha: f64, rng: &mut SeededRng| -> f64 {
            (0..200)
                .map(|_| rng.dirichlet(alpha, 10).into_iter().fold(0.0f64, f64::max))
                .sum::<f64>()
                / 200.0
        };
        let skewed = avg_max(0.1, &mut rng);
        let flat = avg_max(10.0, &mut rng);
        assert!(skewed > flat, "skewed={skewed} flat={flat}");
    }

    #[test]
    fn choose_indices_distinct_sorted() {
        let mut rng = SeededRng::new(5);
        let picked = rng.choose_indices(100, 10);
        assert_eq!(picked.len(), 10);
        let mut dedup = picked.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_indices_distinct_sorted_and_sparse() {
        let mut rng = SeededRng::new(5);
        let picked = rng.sample_indices(1_000_000_000, 20);
        assert_eq!(picked.len(), 20);
        assert!(picked.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert!(picked.iter().all(|&i| i < 1_000_000_000));
        // Deterministic given the stream state.
        let mut a = SeededRng::new(9);
        let mut b = SeededRng::new(9);
        assert_eq!(a.sample_indices(1 << 40, 16), b.sample_indices(1 << 40, 16));
        // Degenerate edges.
        assert!(rng.sample_indices(10, 0).is_empty());
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_indices_is_roughly_uniform() {
        // Every index of a small range should be hit at a similar rate.
        let mut rng = SeededRng::new(31);
        let mut hits = [0usize; 10];
        for _ in 0..2000 {
            for i in rng.sample_indices(10, 3) {
                hits[i] += 1;
            }
        }
        // Expected 600 hits each; allow a generous band.
        assert!(
            hits.iter().all(|&h| (400..800).contains(&h)),
            "hits={hits:?}"
        );
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SeededRng::new(13);
        let n = 5000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.2, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.3, "std={}", var.sqrt());
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut rng = SeededRng::new(21);
        let weights = [0.01, 0.01, 10.0, 0.01];
        let hits = (0..500)
            .filter(|_| rng.weighted_index(&weights) == 2)
            .count();
        assert!(hits > 400, "hits={hits}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SeededRng::new(1);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn snapshot_resumes_the_exact_stream() {
        let mut rng = SeededRng::new(99);
        // Burn an arbitrary prefix of the stream.
        for _ in 0..37 {
            rng.normal(0.0, 1.0);
            rng.index(17);
        }
        let snapshot = rng.snapshot();
        let mut resumed = SeededRng::from_snapshot(snapshot);
        for _ in 0..64 {
            assert_eq!(
                rng.normal(0.0, 1.0).to_bits(),
                resumed.normal(0.0, 1.0).to_bits()
            );
            assert_eq!(rng.index(1000), resumed.index(1000));
            assert_eq!(rng.bernoulli(0.3), resumed.bernoulli(0.3));
        }
        // Derived children depend on the original seed, which the snapshot
        // preserves.
        assert_eq!(rng.derive(5).index(100), resumed.derive(5).index(100));
        // Zero-init flag survives the round trip.
        let stub = SeededRng::zero_init();
        let mut restored = SeededRng::from_snapshot(stub.snapshot());
        assert!(restored.is_zero_init());
        assert_eq!(restored.normal(2.0, 1.0), 0.0);
    }

    #[test]
    fn zero_init_samplers_return_zero_and_propagate_to_children() {
        let mut rng = SeededRng::zero_init();
        assert!(rng.is_zero_init());
        assert_eq!(rng.normal(5.0, 2.0), 0.0);
        assert_eq!(rng.uniform(1.0, 3.0), 0.0);
        let mut child = rng.derive(7);
        assert!(child.is_zero_init());
        assert_eq!(child.normal(1.0, 1.0), 0.0);
        // A regular generator is unaffected.
        let mut real = SeededRng::new(7);
        assert!(!real.is_zero_init());
        assert!(!real.derive(3).is_zero_init());
        assert_ne!(real.normal(5.0, 2.0), 0.0);
    }
}
