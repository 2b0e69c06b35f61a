//! [`TensorArena`]: the recycling buffer pool behind [`Tensor`] storage.
//!
//! Every `Tensor` owns a `Vec<f32>` buffer. Before this module existed each
//! construction hit the system allocator and each drop freed — in a
//! federated round that means fresh allocations for every client model,
//! every extracted sub-model, every activation of every training step and
//! every `ClientUpdate` payload, round after round, even though the set of
//! buffer sizes is essentially static once the experiment is running.
//!
//! The arena turns that steady-state traffic into recycling:
//!
//! * **leases** hand out buffers (empty-with-capacity, or zero-filled) from
//!   a free list bucketed by capacity;
//! * **recycling** happens on the tensor drop path: storage returns to the
//!   pool instead of being freed (see `Storage` in `tensor.rs`);
//! * a **per-thread local pool** serves leases and recycles without any
//!   synchronisation, so the federated client fan-out threads never contend
//!   on a lock;
//! * a shared, mutex-protected **overflow pool** catches buffers from
//!   threads that exit (fan-out workers live for one round) and feeds
//!   threads whose local pool misses, so recycling works across the thread
//!   topology, not just within one thread.
//!
//! The pool is **observably inert**: a lease only changes *where* the bytes
//! of a buffer come from, never their values — zero-filled leases are
//! re-zeroed on reuse, and capacity-only leases are handed out empty. The
//! golden-digest suite and `tests/arena.rs` pin this.
//!
//! With the `alloc-count` feature the arena counts its traffic
//! (fresh allocations vs. pool hits, per thread and process-wide), which is
//! how `paper_scale --alloc-audit` bounds the fresh allocations of every
//! warm `Session` round (counter deltas between `RoundCompleted` events)
//! and how the kernel regression tests assert warm paths allocate nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Retained bytes cap of each thread-local pool (beyond it, recycled
/// buffers overflow to the shared pool).
const LOCAL_CAP_BYTES: usize = 32 << 20;
/// Retained bytes cap of the shared overflow pool (beyond it, recycled
/// buffers are actually freed).
const SHARED_CAP_BYTES: usize = 64 << 20;
/// A lease may be served by a pooled buffer up to this factor larger than
/// requested; anything bigger stays pooled for a closer fit.
const FIT_FACTOR: usize = 2;

/// Free lists bucketed by exact buffer capacity.
///
/// `BTreeMap` (rather than a hash map) so a missed exact-capacity lookup
/// can fall forward to the nearest larger bucket within [`FIT_FACTOR`] —
/// that tolerance is what keeps hit rates high when activation batch sizes
/// vary client to client.
#[derive(Default)]
struct Pool {
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    held_bytes: usize,
}

impl Pool {
    /// Takes a buffer with `capacity >= len` (closest fit first), or `None`.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let cap = *self
            .buckets
            .range(len..=len.saturating_mul(FIT_FACTOR))
            .next()?
            .0;
        let bucket = self.buckets.get_mut(&cap)?;
        let buf = bucket.pop()?;
        if bucket.is_empty() {
            self.buckets.remove(&cap);
        }
        self.held_bytes -= cap * 4;
        Some(buf)
    }

    /// Stores a cleared buffer, keyed by its capacity. Returns `false`
    /// (buffer handed back) when the pool is at its byte cap.
    fn put(&mut self, buf: Vec<f32>, cap_bytes: usize) -> Result<(), Vec<f32>> {
        let bytes = buf.capacity() * 4;
        if bytes == 0 || self.held_bytes + bytes > cap_bytes {
            return Err(buf);
        }
        self.held_bytes += bytes;
        self.buckets.entry(buf.capacity()).or_default().push(buf);
        Ok(())
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.held_bytes = 0;
    }
}

/// The process-wide shared overflow pool.
static SHARED: Mutex<Pool> = Mutex::new(Pool {
    buckets: BTreeMap::new(),
    held_bytes: 0,
});

/// A thread's private pool. On thread exit the retained buffers drain into
/// [`SHARED`] instead of being freed, which is what lets one round's scoped
/// fan-out workers hand their buffers to the next round's.
struct LocalPool(Pool);

impl Drop for LocalPool {
    fn drop(&mut self) {
        let mut shared = SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, bucket) in std::mem::take(&mut self.0.buckets) {
            for buf in bucket {
                let _ = shared.put(buf, SHARED_CAP_BYTES);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalPool> = RefCell::new(LocalPool(Pool::default()));
}

// ---------------------------------------------------------------------------
// Allocation counters (feature = "alloc-count")
// ---------------------------------------------------------------------------

/// A snapshot of the arena's allocation counters.
///
/// Only meaningful with the `alloc-count` feature; without it every field
/// reads zero. `fresh_allocs` is the number the whole tentpole is
/// accountable for: leases the pool could not serve, i.e. real system
/// allocations of tensor storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Leases that missed the pool and allocated fresh storage.
    pub fresh_allocs: u64,
    /// Leases served by recycled storage.
    pub pool_hits: u64,
    /// Buffers returned to (and retained by) the pool.
    pub recycled: u64,
    /// Buffers the pool refused (byte cap reached) and actually freed.
    pub released: u64,
}

#[cfg(feature = "alloc-count")]
mod counters {
    use super::ArenaStats;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static G_FRESH: AtomicU64 = AtomicU64::new(0);
    static G_HITS: AtomicU64 = AtomicU64::new(0);
    static G_RECYCLED: AtomicU64 = AtomicU64::new(0);
    static G_RELEASED: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static T_FRESH: Cell<u64> = const { Cell::new(0) };
        static T_HITS: Cell<u64> = const { Cell::new(0) };
        static T_RECYCLED: Cell<u64> = const { Cell::new(0) };
        static T_RELEASED: Cell<u64> = const { Cell::new(0) };
    }

    fn bump(global: &AtomicU64, local: &'static std::thread::LocalKey<Cell<u64>>) {
        global.fetch_add(1, Ordering::Relaxed);
        let _ = local.try_with(|c| c.set(c.get() + 1));
    }

    pub(super) fn fresh() {
        bump(&G_FRESH, &T_FRESH);
    }
    pub(super) fn hit() {
        bump(&G_HITS, &T_HITS);
    }
    pub(super) fn recycled() {
        bump(&G_RECYCLED, &T_RECYCLED);
    }
    pub(super) fn released() {
        bump(&G_RELEASED, &T_RELEASED);
    }

    pub(super) fn global_stats() -> ArenaStats {
        ArenaStats {
            fresh_allocs: G_FRESH.load(Ordering::Relaxed),
            pool_hits: G_HITS.load(Ordering::Relaxed),
            recycled: G_RECYCLED.load(Ordering::Relaxed),
            released: G_RELEASED.load(Ordering::Relaxed),
        }
    }

    pub(super) fn thread_stats() -> ArenaStats {
        ArenaStats {
            fresh_allocs: T_FRESH.with(Cell::get),
            pool_hits: T_HITS.with(Cell::get),
            recycled: T_RECYCLED.with(Cell::get),
            released: T_RELEASED.with(Cell::get),
        }
    }

    pub(super) fn reset_thread_stats() {
        T_FRESH.with(|c| c.set(0));
        T_HITS.with(|c| c.set(0));
        T_RECYCLED.with(|c| c.set(0));
        T_RELEASED.with(|c| c.set(0));
    }
}

#[cfg(not(feature = "alloc-count"))]
mod counters {
    use super::ArenaStats;

    #[inline(always)]
    pub(super) fn fresh() {}
    #[inline(always)]
    pub(super) fn hit() {}
    #[inline(always)]
    pub(super) fn recycled() {}
    #[inline(always)]
    pub(super) fn released() {}

    pub(super) fn global_stats() -> ArenaStats {
        ArenaStats::default()
    }
    pub(super) fn thread_stats() -> ArenaStats {
        ArenaStats::default()
    }
    pub(super) fn reset_thread_stats() {}
}

// ---------------------------------------------------------------------------
// The public handle
// ---------------------------------------------------------------------------

/// Handle to the process-wide tensor buffer pool.
///
/// The arena is a process-level resource (every [`Tensor`](crate::Tensor)
/// returns its storage here when dropped), so the handle is zero-sized and
/// obtained via [`TensorArena::global`]. Taking `&TensorArena` in an API
/// documents that a function allocates through the pool.
///
/// ```
/// use mhfl_tensor::{Tensor, TensorArena};
///
/// let arena = TensorArena::global();
/// let t = Tensor::zeroed_in(arena, &[4, 4]);
/// assert_eq!(t.as_slice(), &[0.0; 16]);
/// drop(t); // storage returns to the pool, not the allocator
/// let mut buf = arena.lease(16);
/// buf.extend((0..16).map(|x| x as f32));
/// let u = Tensor::from_pool(buf, &[4, 4])?;
/// assert_eq!(u.len(), 16);
/// # Ok::<(), mhfl_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct TensorArena {
    _priv: (),
}

static GLOBAL: TensorArena = TensorArena { _priv: () };

impl TensorArena {
    /// `true` when the crate was compiled with the `alloc-count` feature,
    /// i.e. when [`stats`](TensorArena::stats) reports real numbers instead
    /// of zeros. Lets audit tooling fail loudly when run against a binary
    /// that cannot observe allocations.
    pub const fn counting_enabled() -> bool {
        cfg!(feature = "alloc-count")
    }

    /// The process-wide arena every tensor recycles into.
    pub fn global() -> &'static TensorArena {
        &GLOBAL
    }

    /// Leases an **empty** buffer with `capacity >= len`, for callers that
    /// fill by `extend`/`push`. Never zero-fills; the buffer's length is 0.
    pub fn lease(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        if let Some(buf) = take_pooled(len) {
            counters::hit();
            return buf;
        }
        counters::fresh();
        Vec::with_capacity(len)
    }

    /// Leases a buffer of exactly `len` zeros. Recycled storage is
    /// re-zeroed before it is handed out, so pooled and fresh buffers are
    /// indistinguishable to the caller — stale contents can never leak.
    pub fn lease_zeroed(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        if let Some(mut buf) = take_pooled(len) {
            counters::hit();
            buf.resize(len, 0.0);
            return buf;
        }
        counters::fresh();
        vec![0.0; len]
    }

    /// Returns a buffer to the pool (thread-local first, shared overflow
    /// second, freed once both byte caps are reached). The buffer is
    /// cleared; its capacity is what the pool retains.
    pub fn recycle(&self, mut buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let buf = match LOCAL.try_with(|local| local.borrow_mut().0.put(buf, LOCAL_CAP_BYTES)) {
            Ok(Ok(())) => {
                counters::recycled();
                return;
            }
            Ok(Err(buf)) => buf,
            // Thread-local already torn down (thread exit): go shared.
            Err(_) => return, // buf moved into the closure; nothing to do
        };
        let mut shared = SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match shared.put(buf, SHARED_CAP_BYTES) {
            Ok(()) => counters::recycled(),
            Err(_) => counters::released(),
        }
    }

    /// Drains the calling thread's local pool into the shared overflow
    /// pool, making its buffers visible to other threads.
    pub fn flush_thread_pool(&self) {
        let drained = LOCAL
            .try_with(|local| std::mem::take(&mut local.borrow_mut().0.buckets))
            .unwrap_or_default();
        let _ = LOCAL.try_with(|local| local.borrow_mut().0.held_bytes = 0);
        let mut shared = SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, bucket) in drained {
            for buf in bucket {
                let _ = shared.put(buf, SHARED_CAP_BYTES);
            }
        }
    }

    /// Frees everything the calling thread's pool and the shared pool
    /// retain (tests and memory-pressure escapes; steady-state code never
    /// needs this).
    pub fn clear(&self) {
        let _ = LOCAL.try_with(|local| local.borrow_mut().0.clear());
        SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Bytes of idle buffers the pool is holding on to: the calling thread's
    /// local pool plus the shared overflow pool. Bounded by the two byte
    /// caps; a workload whose value keeps climbing towards them is feeding
    /// the pool sizes it never leases back.
    pub fn retained_bytes(&self) -> usize {
        let local = LOCAL
            .try_with(|local| local.borrow().0.held_bytes)
            .unwrap_or(0);
        let shared = SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .held_bytes;
        local + shared
    }

    /// Process-wide allocation counters (all zero without the
    /// `alloc-count` feature).
    pub fn stats(&self) -> ArenaStats {
        counters::global_stats()
    }

    /// The calling thread's allocation counters (all zero without the
    /// `alloc-count` feature). Immune to concurrent test threads, which is
    /// what the zero-allocation kernel regressions assert against.
    pub fn thread_stats(&self) -> ArenaStats {
        counters::thread_stats()
    }

    /// Resets the calling thread's counters (the process-wide counters are
    /// monotone; diff two [`TensorArena::stats`] snapshots instead).
    pub fn reset_thread_stats(&self) {
        counters::reset_thread_stats();
    }
}

/// The lease fast path: thread-local pool, then the shared overflow pool.
fn take_pooled(len: usize) -> Option<Vec<f32>> {
    if let Ok(Some(buf)) = LOCAL.try_with(|local| local.borrow_mut().0.take(len)) {
        return Some(buf);
    }
    SHARED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take(len)
}

/// Recycle entry point for the tensor drop path (see `Storage`).
pub(crate) fn recycle_storage(buf: Vec<f32>) {
    GLOBAL.recycle(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_zeroed_rezeroes_recycled_storage() {
        let arena = TensorArena::global();
        let mut buf = arena.lease_zeroed(1024);
        for v in buf.iter_mut() {
            *v = 7.25;
        }
        arena.recycle(buf);
        // Whatever buffer serves this lease (the poisoned one included),
        // its contents must be exactly zero.
        let buf = arena.lease_zeroed(1024);
        assert_eq!(buf.len(), 1024);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lease_is_empty_with_capacity() {
        let arena = TensorArena::global();
        let mut buf = arena.lease_zeroed(513);
        buf.iter_mut().for_each(|v| *v = 1.0);
        arena.recycle(buf);
        let leased = arena.lease(513);
        assert!(leased.is_empty(), "capacity leases must start empty");
        assert!(leased.capacity() >= 513);
    }

    #[test]
    fn close_fit_serves_but_distant_capacity_does_not() {
        let arena = TensorArena::global();
        arena.flush_thread_pool();
        let probe = 77_771; // a capacity no other test uses
        arena.recycle(Vec::with_capacity(probe));
        // Within FIT_FACTOR: served from the pool.
        let hit = arena.lease(probe / 2 + 1);
        assert!(hit.capacity() > probe / 2);
        arena.recycle(hit);
        // Far below the pooled capacity: a fresh allocation, so tiny
        // tensors can never pin huge buffers.
        let fresh = arena.lease(8);
        assert!(fresh.capacity() < probe);
    }

    #[test]
    fn zero_len_leases_bypass_the_pool() {
        let arena = TensorArena::global();
        assert_eq!(arena.lease(0).capacity(), 0);
        assert!(arena.lease_zeroed(0).is_empty());
        arena.recycle(Vec::new()); // must not poison anything
    }

    #[test]
    fn flush_makes_local_buffers_visible_to_other_threads() {
        let arena = TensorArena::global();
        let probe = 99_991;
        arena.recycle(Vec::with_capacity(probe));
        arena.flush_thread_pool();
        let served = std::thread::spawn(move || {
            let buf = TensorArena::global().lease(probe);
            buf.capacity() >= probe
        })
        .join()
        .unwrap();
        assert!(served, "a flushed buffer must serve another thread");
    }

    #[cfg(feature = "alloc-count")]
    #[test]
    fn thread_stats_count_misses_and_hits() {
        let arena = TensorArena::global();
        arena.reset_thread_stats();
        let probe = 88_883;
        let buf = arena.lease_zeroed(probe);
        assert_eq!(arena.thread_stats().fresh_allocs, 1);
        arena.recycle(buf);
        assert_eq!(arena.thread_stats().recycled, 1);
        let _buf = arena.lease_zeroed(probe);
        assert_eq!(arena.thread_stats().pool_hits, 1);
        assert_eq!(arena.thread_stats().fresh_allocs, 1);
    }
}
