//! Arithmetic, linear algebra and reduction operations on [`Tensor`].

use crate::{kernels, math, Result, Tensor, TensorError};

/// The three matrix products, by the operand each reads transposed.
#[derive(Debug, Clone, Copy)]
enum Product {
    /// `A·B`.
    Plain,
    /// `A·Bᵀ`.
    Nt,
    /// `Aᵀ·B`.
    Tn,
}

/// A kernel of [`crate::kernels`]: `(a, b, m, k, n, out)`.
type Kernel = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

impl Product {
    /// `[m, k, n]` of the `[m, k] × [k, n]` product of the matrices shaped
    /// `a` and `b`, if their contraction extents agree.
    fn extents(self, a: &[usize], b: &[usize]) -> Option<[usize; 3]> {
        let [m, k, k2, n] = match self {
            Product::Plain => [a[0], a[1], b[0], b[1]],
            Product::Nt => [a[0], a[1], b[1], b[0]],
            Product::Tn => [a[1], a[0], b[0], b[1]],
        };
        (k == k2).then_some([m, k, n])
    }

    fn kernel(self) -> Kernel {
        match self {
            Product::Plain => kernels::matmul,
            Product::Nt => kernels::matmul_nt,
            Product::Tn => kernels::matmul_tn,
        }
    }
}

impl Tensor {
    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.as_slice().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, self.dims()).expect("map preserves shape")
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.as_mut_slice().iter_mut().for_each(|x| *x = f(*x));
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.dims() != rhs.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: rhs.dims().to_vec(),
                op: "zip_with",
            });
        }
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise multiplication.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (the AXPY kernel used by SGD and by
    /// server-side aggregation).
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        if self.dims() != rhs.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: rhs.dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, value: f32) -> Tensor {
        self.map(|x| x * value)
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_inplace(&mut self, value: f32) {
        self.map_inplace(|x| x * value);
    }

    /// Adds `bias` (a rank-1 tensor of length equal to the trailing
    /// dimension) to every row of a tensor of rank 2 or more, in place of
    /// its elements; the leading axes of a higher rank are read as rows.
    ///
    /// # Errors
    /// Returns an error for rank/shape mismatches.
    pub fn add_row_broadcast(mut self, bias: &Tensor) -> Result<Tensor> {
        let cols = self.dims().last().copied();
        if self.rank() < 2 || bias.rank() != 1 || cols != Some(bias.len()) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: bias.dims().to_vec(),
                op: "add_row_broadcast",
            });
        }
        let b = bias.as_slice();
        for row in self.as_mut_slice().chunks_exact_mut(b.len().max(1)) {
            for (value, add) in row.iter_mut().zip(b) {
                *value += add;
            }
        }
        Ok(self)
    }

    /// Runs `product` on two matrices, or, when `batched`, on each pair of
    /// matching items of two `[batch, ..]` stacks of matrices. An unbatched
    /// operand of rank above 2 is read in place as the matrix of its last
    /// axis by the product of its leading axes, so a `[batch, seq, dim]`
    /// activation is a `[batch·seq, dim]` matrix; the result keeps the
    /// left-hand operand's leading axes, except that `Aᵀ·B` contracts them.
    fn product(
        &self,
        rhs: &Tensor,
        product: Product,
        batched: bool,
        op: &'static str,
    ) -> Result<Tensor> {
        // `(items, [rows, cols])` of an operand.
        let matrices = |t: &Tensor| match (batched, t.dims()) {
            (true, &[items, rows, cols]) => Ok((items, [rows, cols])),
            (false, [leading @ .., cols]) if !leading.is_empty() => {
                Ok((1, [leading.iter().product(), *cols]))
            }
            _ => Err(TensorError::RankMismatch {
                expected: if batched { 3 } else { 2 },
                actual: t.rank(),
                op,
            }),
        };
        let ((items, a), (items_b, b)) = (matrices(self)?, matrices(rhs)?);
        let mismatch = || TensorError::ShapeMismatch {
            left: self.dims().to_vec(),
            right: rhs.dims().to_vec(),
            op,
        };
        if items != items_b {
            return Err(mismatch());
        }
        let [m, k, n] = product.extents(&a, &b).ok_or_else(mismatch)?;
        let kernel = product.kernel();
        let mut out = vec![0.0; items * m * n];
        for t in 0..items {
            kernel(
                &self.as_slice()[t * m * k..(t + 1) * m * k],
                &rhs.as_slice()[t * k * n..(t + 1) * k * n],
                m,
                k,
                n,
                &mut out[t * m * n..(t + 1) * m * n],
            );
        }
        let dims = match (batched, product) {
            (true, _) => vec![items, m, n],
            (false, Product::Tn) => vec![m, n],
            (false, _) => [&self.dims()[..self.rank() - 1], &[n]].concat(),
        };
        Tensor::from_vec(out, &dims)
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    /// A left-hand `[.., k]` operand of higher rank gives `[.., n]`, its
    /// leading axes read as rows in place.
    ///
    /// Runs the register-tiled kernel of [`crate::kernels`]; bitwise
    /// identical to a plain `ikj` loop (the reference its tests compare
    /// against) for finite inputs.
    ///
    /// # Errors
    /// Returns an error if either operand has rank below 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Plain, false, "matmul")
    }

    /// Transpose-aware product `self × rhsᵀ`: `[m, k] x [n, k] -> [m, n]`,
    /// without materialising the transpose. Bitwise identical to
    /// `self.matmul(&rhs.transpose()?)` for finite inputs — this is the
    /// kernel behind `y = x Wᵀ` in `Linear::forward`, where a
    /// `[batch, seq, k]` input gives `[batch, seq, n]`.
    ///
    /// # Errors
    /// Returns an error if either operand has rank below 2 or the trailing
    /// dimensions disagree.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Nt, false, "matmul_nt")
    }

    /// Transpose-aware product `selfᵀ × rhs`: `[k, m] x [k, n] -> [m, n]`,
    /// without materialising the transpose. Bitwise identical to
    /// `self.transpose()?.matmul(rhs)` for finite inputs — this is the
    /// kernel behind `dW = dYᵀ X` in `Linear::backward`, where two
    /// `[batch, seq, ·]` operands contract over `batch·seq`.
    ///
    /// # Errors
    /// Returns an error if either operand has rank below 2 or the leading
    /// dimensions disagree.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Tn, false, "matmul_tn")
    }

    /// [`Tensor::matmul`] of each item of two rank-3 stacks:
    /// `[batch, m, k] x [batch, k, n] -> [batch, m, n]`, item `t` of the
    /// result bitwise equal to `self[t].matmul(&rhs[t])`.
    ///
    /// # Errors
    /// Returns an error if either operand is not rank-3, the batch sizes
    /// differ or the inner dimensions disagree.
    pub fn matmul_batched(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Plain, true, "matmul_batched")
    }

    /// [`Tensor::matmul_nt`] of each item of two rank-3 stacks:
    /// `[batch, m, k] x [batch, n, k] -> [batch, m, n]`.
    ///
    /// # Errors
    /// Returns an error if either operand is not rank-3, the batch sizes
    /// differ or the trailing dimensions disagree.
    pub fn matmul_nt_batched(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Nt, true, "matmul_nt_batched")
    }

    /// [`Tensor::matmul_tn`] of each item of two rank-3 stacks:
    /// `[batch, k, m] x [batch, k, n] -> [batch, m, n]`.
    ///
    /// # Errors
    /// Returns an error if either operand is not rank-3, the batch sizes
    /// differ or the middle dimensions disagree.
    pub fn matmul_tn_batched(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(rhs, Product::Tn, true, "matmul_tn_batched")
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let src = self.as_slice();
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    /// Returns an error for empty tensors.
    pub fn max(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            })
            .ok_or(TensorError::Empty("max"))
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Per-row sums of a rank-2 tensor.
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank-2.
    pub fn row_sums(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "row_sums",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let data = (0..rows)
            .map(|r| {
                self.as_slice()[r * cols..(r + 1) * cols]
                    .iter()
                    .sum::<f32>()
            })
            .collect();
        Tensor::from_vec(data, &[rows])
    }

    /// Per-column sums of a rank-2 tensor; a tensor of higher rank is read
    /// as the matrix of its last axis, its leading axes as rows. Each column
    /// is accumulated in ascending row order, so the result is bitwise
    /// identical to `self.transpose()?.row_sums()?` without materialising
    /// the transpose (the kernel behind `db = colsum(dY)` in
    /// `Linear::backward`).
    ///
    /// # Errors
    /// Returns an error if the tensor has rank below 2.
    pub fn col_sums(&self) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "col_sums",
            });
        }
        let cols = self.dims()[self.rank() - 1];
        let mut data = vec![0.0; cols];
        for row in self.as_slice().chunks_exact(cols.max(1)) {
            for (acc, value) in data.iter_mut().zip(row) {
                *acc += value;
            }
        }
        Tensor::from_vec(data, &[cols])
    }

    /// Per-column means of a rank-2 tensor.
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank-2 or has zero rows.
    pub fn col_means(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "col_means",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if rows == 0 {
            return Err(TensorError::Empty("col_means"));
        }
        let mut data = vec![0.0; cols];
        for r in 0..rows {
            let row = &self.as_slice()[r * cols..(r + 1) * cols];
            for (acc, value) in data.iter_mut().zip(row) {
                *acc += value;
            }
        }
        data.iter_mut().for_each(|x| *x /= rows as f32);
        Tensor::from_vec(data, &[cols])
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank-2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "softmax_rows",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; rows * cols];
        // One scratch row reused across all rows instead of a fresh `exps`
        // vector per row.
        let mut exps = Vec::with_capacity(cols);
        for r in 0..rows {
            let row = &self.as_slice()[r * cols..(r + 1) * cols];
            let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            exps.clear();
            exps.extend(row.iter().map(|&x| x - maxv));
            math::exp_slice(&mut exps);
            let denom: f32 = exps.iter().sum::<f32>().max(f32::EPSILON);
            for c in 0..cols {
                out[r * cols + c] = exps[c] / denom;
            }
        }
        Tensor::from_vec(out, &[rows, cols])
    }

    /// Row-wise argmax of a rank-2 tensor (predicted class per sample).
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "argmax_rows",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if cols == 0 {
            return Err(TensorError::Empty("argmax_rows"));
        }
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.as_slice()[r * cols..(r + 1) * cols];
            let mut best = 0;
            for (c, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = c;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Clips every element into `[-limit, limit]`.
    pub fn clamp_abs(&self, limit: f32) -> Tensor {
        self.map(|x| x.clamp(-limit, limit))
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.as_slice().iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tensor {
        /// The naive reference kernel: `ikj` loop order, one pass, no
        /// tiling. The ground truth the tiled [`Tensor::matmul`] and the
        /// transpose-aware variants must agree with bit-for-bit.
        fn matmul_naive(&self, rhs: &Tensor) -> Result<Tensor> {
            let (a, b) = (self.dims(), rhs.dims());
            if a.len() != 2 || b.len() != 2 || a[1] != b[0] {
                return Err(TensorError::ShapeMismatch {
                    left: self.dims().to_vec(),
                    right: rhs.dims().to_vec(),
                    op: "matmul",
                });
            }
            let [m, k, n] = [a[0], a[1], b[1]];
            let a = self.as_slice();
            let b = rhs.as_slice();
            let mut out = vec![0.0; m * n];
            // ikj loop order keeps the inner loop contiguous over both `b` and `out`.
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
            Tensor::from_vec(out, &[m, n])
        }
    }

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        let c = t2(&[1.0, 2.0], 1, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut acc = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        acc.axpy(0.5, &g).unwrap();
        acc.axpy(0.5, &g).unwrap();
        assert_eq!(acc.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_shape_errors() {
        let a = t2(&[1.0, 2.0], 1, 2);
        let b = t2(&[1.0, 2.0, 3.0], 3, 1);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        assert!(v.matmul(&a).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `randn` with every third entry `+0.0` and every fifth `-0.0`, so the
    /// kernels' skip of a zero left-hand entry is taken and a zero
    /// right-hand entry adds a signed zero.
    fn with_zeros(dims: &[usize], rng: &mut crate::SeededRng) -> Tensor {
        let mut t = Tensor::randn(dims, 1.0, rng);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            } else if i % 5 == 0 {
                *v = -0.0;
            }
        }
        t
    }

    #[test]
    fn blocked_and_transpose_aware_kernels_match_naive_bitwise() {
        let mut rng = crate::SeededRng::new(7);
        let mut fixed = vec![
            (1usize, 1usize, 1usize),
            (2, 3, 2),
            (5, 7, 9),
            (1, 16, 130),
            (3, 0, 4),    // k = 0: all-zero output
            (17, 70, 33), // odd m, ragged column tail
            (9, 80, 150), // k > 64, n > 128
        ];
        // Odd and even m around the two-row tile, n around the 16-wide one.
        for m in [1, 2, 3, 7] {
            for n in [15, 16, 17, 31, 33] {
                fixed.push((m, 5, n));
            }
        }
        // Seeded random shapes: m in 1..40, k in 0..80, n in 1..160.
        let random: Vec<_> = (0..48)
            .map(|_| (1 + rng.index(39), rng.index(80), 1 + rng.index(159)))
            .collect();
        for (m, k, n) in fixed.into_iter().chain(random) {
            let a = with_zeros(&[m, k], &mut rng);
            let b = with_zeros(&[k, n], &mut rng);
            let naive = a.matmul_naive(&b).unwrap();
            let tiled = a.matmul(&b).unwrap();
            assert_eq!(naive.dims(), tiled.dims());
            assert_eq!(
                bits(&naive),
                bits(&tiled),
                "tiled matmul diverged at {m}x{k}x{n}"
            );
            // A·Bᵀ and Aᵀ·B without the transpose == naive with it.
            let bt = with_zeros(&[n, k], &mut rng);
            let nt = a.matmul_nt(&bt).unwrap();
            let nt_ref = a.matmul_naive(&bt.transpose().unwrap()).unwrap();
            assert_eq!(
                bits(&nt),
                bits(&nt_ref),
                "matmul_nt diverged at {m}x{k}x{n}"
            );
            let at = with_zeros(&[k, m], &mut rng);
            let tn = at.matmul_tn(&b).unwrap();
            let tn_ref = at.transpose().unwrap().matmul_naive(&b).unwrap();
            assert_eq!(
                bits(&tn),
                bits(&tn_ref),
                "matmul_tn diverged at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn batched_products_match_each_item_bitwise() {
        let mut rng = crate::SeededRng::new(11);
        for (batch, m, k, n) in [(1, 1, 1, 1), (3, 12, 16, 12), (2, 5, 0, 3), (4, 7, 9, 17)] {
            let a = with_zeros(&[batch, m, k], &mut rng);
            let b = with_zeros(&[batch, k, n], &mut rng);
            let bt = with_zeros(&[batch, n, k], &mut rng);
            let at = with_zeros(&[batch, k, m], &mut rng);
            let products = [
                (a.matmul_batched(&b).unwrap(), "matmul"),
                (a.matmul_nt_batched(&bt).unwrap(), "matmul_nt"),
                (at.matmul_tn_batched(&b).unwrap(), "matmul_tn"),
            ];
            for t in 0..batch {
                let (a, b) = (a.index_axis0(t).unwrap(), b.index_axis0(t).unwrap());
                let (at, bt) = (at.index_axis0(t).unwrap(), bt.index_axis0(t).unwrap());
                let items = [a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b)];
                for ((batched, name), item) in products.iter().zip(items) {
                    assert_eq!(batched.dims(), &[batch, m, n]);
                    assert_eq!(
                        bits(&batched.index_axis0(t).unwrap()),
                        bits(&item.unwrap()),
                        "{name} item {t} of {batch}x{m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_shape_errors() {
        let a = Tensor::zeros(&[2, 3, 4]);
        assert!(a.matmul_batched(&Tensor::zeros(&[3, 4, 5])).is_err()); // batch
        assert!(a.matmul_batched(&Tensor::zeros(&[2, 3, 5])).is_err()); // inner
        assert!(a.matmul_batched(&Tensor::zeros(&[4, 5])).is_err()); // rank
        assert!(a.matmul_nt_batched(&Tensor::zeros(&[2, 5, 3])).is_err());
        assert!(a.matmul_tn_batched(&Tensor::zeros(&[2, 4, 5])).is_err());
        assert!(Tensor::zeros(&[3, 4]).matmul_batched(&a).is_err());
        assert_eq!(
            a.matmul_nt_batched(&Tensor::zeros(&[2, 5, 4]))
                .unwrap()
                .dims(),
            &[2, 3, 5]
        );
    }

    /// An operand of rank 3 is read in place as the matrix of its last
    /// axis, bit for bit as its `[rows, cols]` reshape would be.
    #[test]
    fn leading_axes_are_read_as_rows() {
        let mut rng = crate::SeededRng::new(13);
        let (batch, seq, k, n) = (3, 5, 7, 17);
        let x = with_zeros(&[batch, seq, k], &mut rng);
        let flat = x.reshape(&[batch * seq, k]).unwrap();
        let w = with_zeros(&[n, k], &mut rng);
        let nt = x.matmul_nt(&w).unwrap();
        assert_eq!(nt.dims(), &[batch, seq, n]);
        assert_eq!(bits(&nt), bits(&flat.matmul_nt(&w).unwrap()));
        let wt = with_zeros(&[k, n], &mut rng);
        let plain = x.matmul(&wt).unwrap();
        assert_eq!(plain.dims(), &[batch, seq, n]);
        assert_eq!(bits(&plain), bits(&flat.matmul(&wt).unwrap()));
        let dy = with_zeros(&[batch, seq, n], &mut rng);
        let dy_flat = dy.reshape(&[batch * seq, n]).unwrap();
        let tn = dy.matmul_tn(&x).unwrap();
        assert_eq!(tn.dims(), &[n, k]);
        assert_eq!(bits(&tn), bits(&dy_flat.matmul_tn(&flat).unwrap()));
        assert_eq!(
            bits(&x.col_sums().unwrap()),
            bits(&flat.col_sums().unwrap())
        );
        let bias = with_zeros(&[k], &mut rng);
        let shifted = x.clone().add_row_broadcast(&bias).unwrap();
        assert_eq!(shifted.dims(), &[batch, seq, k]);
        assert_eq!(
            bits(&shifted),
            bits(&flat.add_row_broadcast(&bias).unwrap())
        );
        assert!(x.matmul_nt(&Tensor::zeros(&[n, k + 1])).is_err());
        assert!(x.matmul_tn(&Tensor::zeros(&[batch, seq + 1, n])).is_err());
        assert!(x
            .clone()
            .add_row_broadcast(&Tensor::zeros(&[k + 1]))
            .is_err());
    }

    #[test]
    fn transpose_aware_shape_errors() {
        let a = t2(&[1.0, 2.0], 1, 2);
        // matmul_nt needs matching trailing dims.
        assert!(a.matmul_nt(&t2(&[1.0, 2.0, 3.0], 1, 3)).is_err());
        // matmul_tn needs matching leading dims.
        assert!(a.matmul_tn(&t2(&[1.0, 2.0, 3.0], 3, 1)).is_err());
        let v = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        assert!(v.matmul_nt(&a).is_err());
        assert!(v.matmul_tn(&a).is_err());
        assert!(a.matmul_naive(&t2(&[1.0, 2.0, 3.0], 3, 1)).is_err());
    }

    #[test]
    fn col_sums_match_transposed_row_sums() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(a.col_sums().unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        let via_transpose = a.transpose().unwrap().row_sums().unwrap();
        assert_eq!(a.col_sums().unwrap(), via_transpose);
        let v = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        assert!(v.col_sums().is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max().unwrap(), 4.0);
        assert!((a.norm() - (30.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(a.row_sums().unwrap().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.col_means().unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = t2(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], 2, 3);
        let s = a.softmax_rows().unwrap();
        for r in 0..2 {
            let row_sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Stable on large inputs.
        assert!(!s.has_non_finite());
        // Monotone: larger logits get larger probability.
        assert!(s.at(&[0, 2]).unwrap() > s.at(&[0, 0]).unwrap());
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = t2(&[0.1, 0.9, 0.0, 0.7, 0.2, 0.1], 2, 3);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn broadcast_bias_add() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let c = a.add_row_broadcast(&b).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn clamp_and_finite_checks() {
        let a = Tensor::from_vec(vec![-5.0, 0.5, 7.0], &[3]).unwrap();
        assert_eq!(a.clamp_abs(1.0).as_slice(), &[-1.0, 0.5, 1.0]);
        assert!(!a.has_non_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(bad.has_non_finite());
    }
}
