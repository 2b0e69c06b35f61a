//! In-tree `tanh` and `exp` for `f32`, with the bits of glibc 2.36.
//!
//! A libm's transcendentals are not IEEE-754 correctly rounded operations,
//! so `f32::tanh` or `f32::exp` on one libm returns bits that another need
//! not return. These ports use only `+ − × ÷` and in-tree constants, so
//! they return the same bits on every host: those of glibc 2.36's `tanhf`
//! and `expf` on x86_64, for every `f32` input. The `#[ignore]`d sweeps in
//! this module's tests check all 2³² patterns against the libm they run
//! on:
//!
//! * [`tanh`] is fdlibm's `tanhf` over fdlibm's `__expm1f`, line for line
//!   and without `mul_add` (glibc runs the generic build of both);
//! * [`tanh_slice`] works in place, eight lanes at a time, with a
//!   branch-free body wherever a whole chunk lies in `2⁻²⁶ ≤ |x| < 22`;
//! * [`exp`] is optimized-routines' `expf` with a 32-entry table. glibc
//!   dispatches to its FMA build, which rounds `InvLn2N·x − kd` once; the
//!   port forms that product exactly from a split constant instead.
//! * [`exp_slice`] applies [`exp`] in place, skipping its special cases
//!   wherever a chunk of eight lies in `|x| < 88`.

/// fdlibm `__expm1f`'s constants, by their bits (the glibc source's
/// decimals round to these).
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180); // 8.8721679688e+01
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

/// fdlibm's `__expm1f`, `e^x − 1`.
fn expm1(x: f32) -> f32 {
    let mut hx = x.to_bits();
    let negative = hx & 0x8000_0000 != 0;
    hx &= 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if negative {
            return TINY - 1.0; // x < -27·ln2: -1 with inexact
        }
    }

    // Argument reduction.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k) // t·ln2_hi is exact here
        };
        let reduced = hi - lo;
        (reduced, (hi - reduced) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: x, with inexact when x != 0
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // exp(x) − 1 suffices
        let y = 1.0 - (e - x);
        return add_to_exponent(y, k) - 1.0;
    }
    let y = if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        t - (e - x)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        (x - (e + t)) + 1.0
    };
    add_to_exponent(y, k)
}

/// `y`'s bits with `k` added to its exponent field (fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_to_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k as u32).wrapping_shl(23)))
}

/// `tanh(x)`, bit-equal to glibc 2.36's `tanhf` (fdlibm's) for every `f32`.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = jx & 0x8000_0000 == 0;

    // x is INF or NaN: tanh(±inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if positive {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }

    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2⁻⁵⁵: tanh(small) = small
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| >= 22: ±1, with inexact
    };
    if positive {
        z
    } else {
        -z
    }
}

/// Lanes per chunk of [`tanh_slice`] and [`exp_slice`].
const LANES: usize = 8;

/// `|x|`'s bits at `2⁻²⁶` and at `22`: a chunk whose lanes all lie in
/// `[LANE_MIN, LANE_END)` runs [`tanh_lane`]. Below it `__expm1f` returns
/// its argument (and `tanhf` below `2⁻⁵⁵` skips it); from 22 on, `tanhf`
/// returns `±1`.
const LANE_MIN: u32 = 0x3280_0000;
const LANE_END: u32 = 0x41b0_0000;

/// `1.5·2²³`: adding it rounds an `f32` of magnitude below `2²²` to an
/// integer, held in the low mantissa bits of the sum.
const SHIFTER: f32 = 12_582_912.0;

/// [`tanh`] for `2⁻²⁶ ≤ |x| < 22`, without branches: every `__expm1f`
/// case that `tanhf` can reach in that range is computed and one is picked,
/// so a chunk of lanes vectorises.
#[inline(always)]
fn tanh_lane(input: f32) -> f32 {
    let a = f32::from_bits(input.to_bits() & 0x7fff_ffff);
    let big = a >= 1.0;
    // __expm1f's argument, and its magnitude's bits.
    let xe = if big { 2.0 * a } else { -2.0 * a };
    let hx = (2.0 * a).to_bits();

    // k = (int)(invln2·xe ± 0.5), truncated toward zero: round to nearest
    // through the shifter, then step back where that rounded away.
    let v = INVLN2 * xe + if big { 0.5 } else { -0.5 };
    let shifted = v + SHIFTER;
    let rounded = shifted - SHIFTER;
    let mut k = (shifted.to_bits() as i32).wrapping_sub(SHIFTER.to_bits() as i32);
    if rounded.abs() > v.abs() {
        k -= if big { 1 } else { -1 };
    }

    // Argument reduction: k = 0 at |xe| <= 0.5·ln2; k = -1 below 1.5·ln2
    // (xe >= 2 whenever xe > 0, so k = 1 never occurs); else the k above.
    let k0 = hx <= 0x3eb1_7218;
    let k_minus_1 = !big && hx < 0x3f85_1592;
    let k = if k0 {
        0
    } else if k_minus_1 {
        -1
    } else {
        k
    };
    let kf = k as f32;
    let (hi, lo) = if k_minus_1 {
        (xe + LN2_HI, -LN2_LO)
    } else {
        (xe - kf * LN2_HI, kf * LN2_LO)
    };
    let reduced = hi - lo;
    let c = (hi - reduced) - lo;
    let x = if k0 { xe } else { reduced };

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let at_k0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let at_k_minus_1 = 0.5 * (x - e) - 0.5;
    let far = add_to_exponent(1.0 - (e - x), k) - 1.0;
    let two_to_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let below_23 = add_to_exponent((1.0 - two_to_minus_k) - (e - x), k);
    let from_23 = add_to_exponent((x - (e + two_to_minus_k)) + 1.0, k);
    let expm1 = if k0 {
        at_k0
    } else if k_minus_1 {
        at_k_minus_1
    } else if k <= -2 || k > 56 {
        far
    } else if k < 23 {
        below_23
    } else {
        from_23
    };

    // tanhf's two quotients share one division.
    let numerator = if big { 2.0 } else { -expm1 };
    let q = numerator / (expm1 + 2.0);
    let z = if big { 1.0 - q } else { q };
    // z > 0, so setting the sign bit is tanhf's `-z`.
    f32::from_bits(z.to_bits() | (input.to_bits() & 0x8000_0000))
}

/// [`tanh`] of every element, in place: chunks of eight whose lanes all lie
/// in `2⁻²⁶ ≤ |x| < 22` run the branch-free lane body, any other chunk and
/// the tail run [`tanh`]. Each element gets [`tanh`]'s bits.
pub fn tanh_slice(xs: &mut [f32]) {
    by_chunks(
        xs,
        |x| (LANE_MIN..LANE_END).contains(&(x.to_bits() & 0x7fff_ffff)),
        tanh_lane,
        tanh,
    );
}

/// Applies `lane` to every chunk of eight whose elements all satisfy
/// `in_range`, and `scalar` to the elements of every other chunk and of
/// the tail.
#[inline(always)]
fn by_chunks(
    xs: &mut [f32],
    in_range: impl Fn(f32) -> bool,
    lane: impl Fn(f32) -> f32,
    scalar: impl Fn(f32) -> f32,
) {
    let (chunks, tail) = xs.as_chunks_mut::<LANES>();
    for chunk in chunks {
        if chunk.iter().all(|&x| in_range(x)) {
            for x in chunk.iter_mut() {
                *x = lane(*x);
            }
        } else {
            for x in chunk.iter_mut() {
                *x = scalar(*x);
            }
        }
    }
    for x in tail {
        *x = scalar(*x);
    }
}

/// `expf`'s table size, `N = 2^EXP2F_TABLE_BITS`.
const EXP_TABLE_BITS: u32 = 5;
const EXP_N: u64 = 1 << EXP_TABLE_BITS;

/// `T[i] = bits(nearest f64 to 2^(i/N)) − (i << (52 − EXP_TABLE_BITS))`.
const EXP_TABLE: [u64; EXP_N as usize] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `0x1.71547652b82fep+0 · N`, `N / ln 2`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// [`EXP_INV_LN2_N`] split at its 27th significant bit: each part has at
/// most 27, so `x·HI` and `x·LO` are exact for any `f32` `x` (24 bits).
const EXP_INV_LN2_N_HI: f64 = f64::from_bits(0x4047_1547_6400_0000);
const EXP_INV_LN2_N_LO: f64 = EXP_INV_LN2_N - EXP_INV_LN2_N_HI;
/// `0x1.8p+52`: adding it rounds to an integer in the low mantissa bits.
const EXP_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `0x1.c6af84b912394p-5 / N³`, `0x1.ebfce50fac4f3p-3 / N²`,
/// `0x1.62e42ff0c52d6p-1 / N`.
const EXP_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const EXP_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const EXP_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// `e^x`, bit-equal to glibc 2.36's `expf` (optimized-routines', as its
/// FMA build runs it on x86_64) for every `f32`.
#[inline]
pub fn exp(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= 0x42b {
        // |x| >= 88 or x is NaN.
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x; // +inf or NaN
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY; // x > log(0x1p128) ~= 88.72: overflow
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0; // x < log(0x1p-150) ~= -103.97: underflow
        }
    }
    exp_core(x)
}

/// `expf` past its special cases: `x` is finite and `|x| < 88`, or its
/// result is finite and nonzero.
#[inline(always)]
fn exp_core(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·N/ln2 = k + r with r in [-1/2, 1/2] and integer k.
    let z = EXP_INV_LN2_N * xd;
    let shifted = z + EXP_SHIFT;
    let ki = shifted.to_bits();
    let kd = shifted - EXP_SHIFT;
    // The FMA build's r = fma(InvLN2N, x, -kd), rounded once: the split
    // product's high part minus kd is exact.
    let r = (xd * EXP_INV_LN2_N_HI - kd) + xd * EXP_INV_LN2_N_LO;

    // exp(x) = 2^(k/N) · 2^(r/N) ~= s · (C0·r³ + C1·r² + C2·r + 1)
    let t = EXP_TABLE[(ki % EXP_N) as usize].wrapping_add(ki << (52 - EXP_TABLE_BITS));
    let s = f64::from_bits(t);
    let z = EXP_C0 * r + EXP_C1;
    let r2 = r * r;
    let y = EXP_C2 * r + 1.0;
    let y = z * r2 + y;
    (y * s) as f32
}

/// [`exp`] of every element, in place: chunks of eight whose lanes all
/// have `|x| < 88` skip `expf`'s special cases, so their arithmetic
/// vectorises around the table loads; any other chunk and the tail run
/// [`exp`].
pub fn exp_slice(xs: &mut [f32]) {
    by_chunks(xs, |x| (x.to_bits() >> 20) & 0x7ff < 0x42b, exp_core, exp);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host libm's results, the reference every port is checked
    /// against.
    #[allow(clippy::disallowed_methods)]
    fn libm_tanh(x: f32) -> f32 {
        x.tanh()
    }

    #[allow(clippy::disallowed_methods)]
    fn libm_exp(x: f32) -> f32 {
        x.exp()
    }

    /// Every 4 099th bit pattern: a strided sample of all signs, exponents
    /// and mantissas, NaNs included.
    fn strided_sample() -> Vec<f32> {
        (0..=u32::MAX).step_by(4_099).map(f32::from_bits).collect()
    }

    /// Edge cases of both ports: zeros, subnormals, infinities, NaNs, the
    /// lane body's bounds, `tanhf`'s thresholds and `__expm1f`'s `k`
    /// thresholds on `tanh`'s argument (`|2x|` at `0x3eb17218` and
    /// `0x3f851592`), each with its neighbours.
    fn edge_cases() -> Vec<f32> {
        let centres: [u32; 14] = [
            0x0000_0000, // 0
            0x0000_0001, // least subnormal
            0x007f_ffff, // greatest subnormal
            0x0080_0000, // least normal
            0x2400_0000, // 2⁻⁵⁵
            0x3280_0000, // 2⁻²⁶
            0x3e31_7218, // |2x| at 0.5·ln2
            0x3e85_1592, // |2x| at 1.5·ln2
            0x3f80_0000, // 1
            0x41b0_0000, // 22
            0x42b0_0000, // 88
            0x42b1_7217, // log(0x1p128)
            0x42cf_f1b4, // -log(0x1p-150)
            0x7f7f_ffff, // greatest finite
        ];
        let mut bits: Vec<u32> = centres
            .iter()
            .flat_map(|&c| [c.saturating_sub(1), c, c + 1])
            .collect();
        bits.extend([0x7f80_0000, 0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff]);
        bits.iter()
            .flat_map(|&b| [b, b | 0x8000_0000])
            .map(f32::from_bits)
            .collect()
    }

    #[test]
    fn tanh_matches_libm_on_a_strided_sample_and_the_edges() {
        for x in strided_sample().into_iter().chain(edge_cases()) {
            assert_eq!(
                tanh(x).to_bits(),
                libm_tanh(x).to_bits(),
                "x = {:#x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn tanh_slice_matches_libm_on_a_strided_sample_and_the_edges() {
        let xs: Vec<f32> = strided_sample().into_iter().chain(edge_cases()).collect();
        let mut ys = xs.clone();
        tanh_slice(&mut ys);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(
                y.to_bits(),
                libm_tanh(*x).to_bits(),
                "x = {:#x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn exp_matches_libm_on_a_strided_sample_and_the_edges() {
        let xs: Vec<f32> = strided_sample().into_iter().chain(edge_cases()).collect();
        let mut ys = xs.clone();
        exp_slice(&mut ys);
        for (x, y) in xs.iter().zip(&ys) {
            let want = libm_exp(*x).to_bits();
            assert_eq!(exp(*x).to_bits(), want, "x = {:#x}", x.to_bits());
            assert_eq!(y.to_bits(), want, "x = {:#x}", x.to_bits());
        }
    }

    /// Every length from 0 to 17, so full chunks and every tail, with
    /// chunks whose lanes lie inside and outside the lane bodies' ranges.
    #[test]
    fn slices_match_their_scalar_at_every_length_and_lane_mix() {
        let inside = [0.3, -1.7, 5.0, -0.01, 21.9, 1.0, -0.5, 3e-8];
        let outside = [
            0.0,
            -1e-9,
            22.0,
            -40.0,
            f32::INFINITY,
            f32::NAN,
            1e-30,
            -100.0,
        ];
        for len in 0..=17 {
            for mix in 0..4_u32 {
                let xs: Vec<f32> = (0..len)
                    .map(|i| {
                        // mix 0: all inside; 1: one outside lane per chunk;
                        // 2: alternating; 3: all outside.
                        let out = match mix {
                            0 => false,
                            1 => i % 8 == 5,
                            2 => i % 2 == 1,
                            _ => true,
                        };
                        if out {
                            outside[i % 8]
                        } else {
                            inside[i % 8]
                        }
                    })
                    .collect();
                let (mut tanhs, mut exps) = (xs.clone(), xs.clone());
                tanh_slice(&mut tanhs);
                exp_slice(&mut exps);
                for ((x, t), e) in xs.iter().zip(&tanhs).zip(&exps) {
                    assert_eq!(
                        t.to_bits(),
                        tanh(*x).to_bits(),
                        "len {len}, mix {mix}, x = {x}"
                    );
                    assert_eq!(
                        e.to_bits(),
                        exp(*x).to_bits(),
                        "len {len}, mix {mix}, x = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_exp_table_holds_the_nearest_doubles() {
        for (i, &t) in EXP_TABLE.iter().enumerate() {
            let value = f64::from_bits(t.wrapping_add((i as u64) << (52 - EXP_TABLE_BITS)));
            assert_eq!(
                value.to_bits(),
                (i as f64 / EXP_N as f64).exp2().to_bits(),
                "i = {i}"
            );
        }
    }

    /// `f(x)` against `reference(x)` `to_bits` for all 2³² patterns, on two
    /// threads: the halves of the bit range.
    fn sweep(f: impl Fn(&mut [f32]) + Sync, reference: impl Fn(f32) -> f32 + Sync) {
        const BLOCK: u64 = 1 << 16;
        std::thread::scope(|scope| {
            for half in 0..2_u64 {
                let (f, reference) = (&f, &reference);
                scope.spawn(move || {
                    let mut xs = vec![0.0_f32; BLOCK as usize];
                    let start = half << 31;
                    for block in (start..start + (1 << 31)).step_by(BLOCK as usize) {
                        for (i, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits((block + i as u64) as u32);
                        }
                        f(&mut xs);
                        for (i, y) in xs.iter().enumerate() {
                            let x = f32::from_bits((block + i as u64) as u32);
                            assert_eq!(
                                y.to_bits(),
                                reference(x).to_bits(),
                                "x = {:#x}",
                                x.to_bits()
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    #[ignore = "all 2³² inputs; run at release, ≈ 23 s on two threads"]
    fn tanh_matches_libm_on_every_input() {
        sweep(|xs| xs.iter_mut().for_each(|x| *x = tanh(*x)), libm_tanh);
    }

    #[test]
    #[ignore = "all 2³² inputs; run at release, ≈ 19 s on two threads"]
    fn tanh_slice_matches_libm_on_every_input() {
        sweep(tanh_slice, libm_tanh);
    }

    /// Through [`exp_slice`]: its lanes run [`exp_core`] only where [`exp`]
    /// would, and [`exp`] everywhere else, so this sweeps both.
    #[test]
    #[ignore = "all 2³² inputs; run at release, ≈ 20 s on two threads"]
    fn exp_matches_libm_on_every_input() {
        sweep(exp_slice, libm_exp);
    }
}
