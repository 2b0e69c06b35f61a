//! Blocked matmul kernels.
//!
//! The three kernels here ([`matmul`], [`matmul_nt`], [`matmul_tn`]) are the
//! hot path of every proxy-model forward/backward step. They are written
//! under one hard constraint: **bitwise identity** with a naive `ikj`
//! reference loop, which the crate's tests compare them against.
//! For every output element the partial products are accumulated in strictly
//! ascending `k` order with plain `f32` multiply-then-add (no FMA, no
//! multiple accumulators per element), so blocking and panel packing change
//! *where* the arithmetic happens but never its result — the golden-trace
//! regression harness depends on this.
//!
//! Speed comes from two sources instead:
//!
//! * **cache blocking** — `k`/`j` panels sized to L1 so a panel of the
//!   right-hand side is reused across many output rows before eviction,
//!   with explicit packing once the row stride exceeds the panel width;
//! * **transpose-aware variants** — `matmul_nt` (`A·Bᵀ`) and `matmul_tn`
//!   (`Aᵀ·B`) read the operand in its natural layout, so `Linear` and
//!   attention layers no longer materialise explicit transposes.
//!
//! Every kernel runs on the calling thread: the one parallelism level of a
//! run is the federated client fan-out (`mhfl_fl::Parallelism`), whose
//! workers each drive their own kernels.

/// Rows of a right-hand-side `k`-panel (`KC × NC × 4` bytes ≈ one 32 KiB L1
/// data cache).
const KC: usize = 64;
/// Columns of a right-hand-side panel.
const NC: usize = 128;

/// Blocked `[m, k] × [k, n] -> [m, n]`: `out` must be zeroed, row-major.
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if n <= NC {
        // The full row of B fits the panel budget: block over k only. For
        // each output element the k-blocks arrive in ascending order, and
        // within a block kk ascends — the naive accumulation order.
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for kk in kb..kend {
                    let aik = arow[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..kk * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
        return;
    }
    // Wide B: pack an L1-sized KC×NC panel so the inner loop streams a
    // contiguous buffer instead of striding across full B rows.
    let mut panel = vec![0.0; KC * NC];
    for jb in (0..n).step_by(NC) {
        let jend = (jb + NC).min(n);
        let nc = jend - jb;
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            let kc = kend - kb;
            for p in 0..kc {
                let src = (kb + p) * n + jb;
                panel[p * nc..(p + 1) * nc].copy_from_slice(&b[src..src + nc]);
            }
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + jb..i * n + jend];
                for p in 0..kc {
                    let aik = arow[kb + p];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &panel[p * nc..(p + 1) * nc];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

/// Transpose-aware `[m, k] × [n, k]ᵀ -> [m, n]` (`A·Bᵀ` without
/// materialising `Bᵀ`): every output element is a dot product of two
/// contiguous rows. `out` must be zeroed.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    // Pack L1-sized panels of Bᵀ on the fly: `panel[p][j] = b[jb + j][kb + p]`
    // relocates the values (a tile-local transpose) without touching the
    // arithmetic, which then runs the same contiguous, vectorisable inner-j
    // loop as the plain blocked kernel — per (i, j) the k-blocks and the
    // within-block p both ascend, i.e. the naive accumulation order.
    let mut panel = vec![0.0; KC * NC];
    for jb in (0..n).step_by(NC) {
        let jend = (jb + NC).min(n);
        let nc = jend - jb;
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            let kc = kend - kb;
            for (j, col) in (jb..jend).enumerate() {
                let brow = &b[col * k + kb..col * k + kend];
                for (p, &bv) in brow.iter().enumerate() {
                    panel[p * nc + j] = bv;
                }
            }
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + jb..i * n + jend];
                for p in 0..kc {
                    let aik = arow[kb + p];
                    if aik == 0.0 {
                        continue;
                    }
                    let prow = &panel[p * nc..(p + 1) * nc];
                    for (o, &bv) in orow.iter_mut().zip(prow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

/// Transpose-aware `[k, m]ᵀ × [k, n] -> [m, n]` (`Aᵀ·B` without
/// materialising `Aᵀ`): the reduction runs over the shared leading (sample)
/// axis, reading both operands row-contiguously. `out` must be zeroed.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    // Block over output rows so the live block stays cache-resident while
    // the s (sample) loop streams A and B once per block. Every output
    // element belongs to exactly one block, so its s order is untouched.
    let ob = (4096 / n.max(1)).max(4);
    for obs in (0..m).step_by(ob) {
        let oend = (obs + ob).min(m);
        for s in 0..k {
            let arow = &a[s * m..s * m + m];
            let brow = &b[s * n..s * n + n];
            for o in obs..oend {
                let av = arow[o];
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[o * n..(o + 1) * n];
                for (ov, &bv) in orow.iter_mut().zip(brow) {
                    *ov += av * bv;
                }
            }
        }
    }
}
