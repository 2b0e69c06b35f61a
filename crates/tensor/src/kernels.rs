//! Register-tiled matmul kernels.
//!
//! The three kernels here ([`matmul`], [`matmul_nt`], [`matmul_tn`]) are the
//! hot path of every proxy-model forward/backward step. They are written
//! under one hard constraint: **bitwise identity** with a naive `ikj`
//! reference loop, which the crate's tests compare them against.
//! For every output element the partial products are accumulated in strictly
//! ascending `k` order with plain `f32` multiply-then-add (no FMA, no
//! multiple accumulators per element), from `+0.0`, and a zero left-hand
//! entry adds nothing, exactly as the reference skips it. Tiling changes
//! *where* the arithmetic happens but never its result — the golden-trace
//! regression harness depends on this.
//!
//! Speed comes from one tile that all three kernels share: two output rows
//! by up to 16 output columns stay in registers across the whole `k` loop,
//! so each `k` step loads one strip of the right-hand side and two
//! left-hand values, and an output element is stored once. Columns past the
//! last full 16 go in tiles 8, 4 and 1 wide; an odd last row goes alone.
//! The kernels differ only in how they read their operands:
//!
//! * [`matmul`] (`A·B`) reads both in their natural layout;
//! * [`matmul_nt`] (`A·Bᵀ`, `y = x Wᵀ` in `Linear` and attention) packs
//!   `Bᵀ` once, `k × n`, so the tile streams contiguous strips;
//! * [`matmul_tn`] (`Aᵀ·B`, `dW = dYᵀ X`) reads `A` down its columns.
//!
//! Every kernel runs on the calling thread: the one parallelism level of a
//! run is the federated client fan-out (`mhfl_fl::Parallelism`), whose
//! workers each drive their own kernels.

/// The left-hand operand's layout: element `(i, kk)` of the `[m, k]` matrix
/// the product reads sits at `i · row + kk · col`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    row: usize,
    col: usize,
}

/// `[m, k] × [k, n] -> [m, n]`, row-major; every element of `out` is written.
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    tiled(a, Layout { row: k, col: 1 }, b, m, k, n, out);
}

/// `[m, k] × [n, k]ᵀ -> [m, n]` (`A·Bᵀ` without the caller materialising
/// `Bᵀ`); every element of `out` is written.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    // `bt[kk][j] = b[j][kk]` relocates the values without touching the
    // arithmetic.
    let mut bt = vec![0.0; k * n];
    for (kk, btrow) in bt.chunks_exact_mut(n.max(1)).enumerate() {
        for (j, bv) in btrow.iter_mut().enumerate() {
            *bv = b[j * k + kk];
        }
    }
    tiled(a, Layout { row: k, col: 1 }, &bt, m, k, n, out);
}

/// `[k, m]ᵀ × [k, n] -> [m, n]` (`Aᵀ·B` without materialising `Aᵀ`): the
/// reduction runs over the shared leading (sample) axis. Every element of
/// `out` is written.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    tiled(a, Layout { row: 1, col: m }, b, m, k, n, out);
}

/// `out = A·B` for the `[m, k]` matrix `A` that `layout` reads out of `a`
/// and the row-major `[k, n]` matrix `b`: column strips of 16, then 8, 4
/// and 1.
fn tiled(a: &[f32], layout: Layout, b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j < n {
        j += match n - j {
            16.. => strip::<16>(a, layout, b, m, k, n, j, out),
            8.. => strip::<8>(a, layout, b, m, k, n, j, out),
            4.. => strip::<4>(a, layout, b, m, k, n, j, out),
            _ => strip::<1>(a, layout, b, m, k, n, j, out),
        };
    }
}

/// Output columns `j..j + W` of every row, two rows per tile. Returns `W`.
#[allow(clippy::too_many_arguments)]
fn strip<const W: usize>(
    a: &[f32],
    layout: Layout,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    out: &mut [f32],
) -> usize {
    let mut i = 0;
    while i + 2 <= m {
        tile::<2, W>(a, layout, b, k, n, i, j, out);
        i += 2;
    }
    if i < m {
        tile::<1, W>(a, layout, b, k, n, i, j, out);
    }
    W
}

/// The `R × W` block of outputs at row `i`, column `j`: each element sums
/// its `a · b` products over ascending `kk` in a register, skipping a zero
/// `a`, and is stored once.
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    layout: Layout,
    b: &[f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let at = kk * n + j;
        let bs: &[f32; W] = b[at..at + W].try_into().expect("a W-wide strip");
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = a[(i + r) * layout.row + kk * layout.col];
            if av != 0.0 {
                *acc = std::array::from_fn(|l| acc[l] + av * bs[l]);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let at = (i + r) * n + j;
        out[at..at + W].copy_from_slice(acc);
    }
}
