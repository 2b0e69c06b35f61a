//! The core [`Tensor`] type: construction, access, reshaping and slicing.

use serde::{Deserialize, Serialize};

use crate::{Result, SeededRng, Shape, TensorError};

/// A dense, row-major, `f32` n-dimensional array.
///
/// This is the only numeric container used by the PracMHBench reproduction.
/// All model parameters, activations, gradients and dataset features are
/// `Tensor`s, which lets the sub-model extraction and aggregation machinery
/// treat everything uniformly.
///
/// ```
/// use mhfl_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` is not the
    /// product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor with entries drawn from `N(0, std^2)`.
    pub fn randn(dims: &[usize], std: f32, rng: &mut SeededRng) -> Self {
        if rng.is_zero_init() {
            return Tensor::zeros(dims);
        }
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.normal(0.0, std)).collect();
        Tensor { shape, data }
    }

    /// Kaiming/He initialisation for a weight of shape `[fan_out, fan_in, ...]`.
    pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut SeededRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(dims, std, rng)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns an error if the index is invalid for this shape.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns an error if the index is invalid for this shape.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Errors
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        self.clone().into_shape(dims)
    }

    /// [`Tensor::reshape`] that moves the elements instead of copying them.
    ///
    /// # Errors
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn into_shape(self, dims: &[usize]) -> Result<Tensor> {
        let target = Shape::new(dims);
        if target.len() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: target.len(),
            });
        }
        Ok(Tensor {
            shape: target,
            data: self.data,
        })
    }

    /// Extracts the `index`-th sub-tensor along axis 0 (e.g. one row of a
    /// matrix, one sample of a batch).
    ///
    /// # Errors
    /// Returns an error for scalars or out-of-range indices.
    pub fn index_axis0(&self, index: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "index_axis0",
            });
        }
        let outer = self.dims()[0];
        if index >= outer {
            return Err(TensorError::IndexOutOfBounds { index, len: outer });
        }
        let inner: usize = self.dims()[1..].iter().product();
        let start = index * inner;
        Tensor::from_vec(self.data[start..start + inner].to_vec(), &self.dims()[1..])
    }

    /// Stacks rank-`k` tensors of identical shape into a rank-`k+1` tensor
    /// along a new leading axis.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty or the shapes differ.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::Empty("stack"))?;
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: p.dims().to_vec(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Selects rows (axis-0 slices) by index, producing a new tensor whose
    /// leading dimension equals `indices.len()`.
    ///
    /// This is the primitive behind width-heterogeneous sub-model extraction:
    /// selecting a subset of output channels of a weight matrix.
    ///
    /// # Errors
    /// Returns an error for scalars or out-of-range indices.
    pub fn gather_axis0(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "gather_axis0",
            });
        }
        let outer = self.dims()[0];
        let inner: usize = self.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            if i >= outer {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: outer,
                });
            }
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.dims()[1..]);
        Tensor::from_vec(data, &dims)
    }

    /// Selects columns (axis-1 slices) by index for rank-2 tensors.
    ///
    /// # Errors
    /// Returns an error if the tensor is not rank 2 or an index is invalid.
    pub fn gather_axis1(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "gather_axis1",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut data = Vec::with_capacity(rows * indices.len());
        for r in 0..rows {
            for &c in indices {
                if c >= cols {
                    return Err(TensorError::IndexOutOfBounds {
                        index: c,
                        len: cols,
                    });
                }
                data.push(self.data[r * cols + c]);
            }
        }
        Tensor::from_vec(data, &[rows, indices.len()])
    }

    /// Gathers along an arbitrary axis by index.
    ///
    /// # Errors
    /// Returns an error if `axis` is out of range or an index is invalid.
    pub fn gather_axis(&self, axis: usize, indices: &[usize]) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let dims = self.dims();
        let axis_len = dims[axis];
        for &i in indices {
            if i >= axis_len {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: axis_len,
                });
            }
        }
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(outer * indices.len() * inner);
        for o in 0..outer {
            for &i in indices {
                let start = (o * axis_len + i) * inner;
                data.extend_from_slice(&self.data[start..start + inner]);
            }
        }
        let mut new_dims = dims.to_vec();
        new_dims[axis] = indices.len();
        Tensor::from_vec(data, &new_dims)
    }

    /// Writes values into positions selected along `axis` (the inverse of
    /// [`Tensor::gather_axis`]): `self[..., indices[j], ...] = src[..., j, ...]`.
    ///
    /// Used when loading a sub-model's parameters back into the full global
    /// model at their original positions during aggregation.
    ///
    /// # Errors
    /// Returns an error if shapes/indices are inconsistent.
    pub fn scatter_axis(&mut self, axis: usize, indices: &[usize], src: &Tensor) -> Result<()> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let dims = self.dims().to_vec();
        let src_dims = src.dims();
        if src_dims.len() != dims.len() || src_dims[axis] != indices.len() {
            return Err(TensorError::ShapeMismatch {
                left: dims.clone(),
                right: src_dims.to_vec(),
                op: "scatter_axis",
            });
        }
        for (d, (&a, &b)) in dims.iter().zip(src_dims.iter()).enumerate() {
            if d != axis && a != b {
                return Err(TensorError::ShapeMismatch {
                    left: dims.clone(),
                    right: src_dims.to_vec(),
                    op: "scatter_axis",
                });
            }
        }
        let axis_len = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        for o in 0..outer {
            for (j, &i) in indices.iter().enumerate() {
                if i >= axis_len {
                    return Err(TensorError::IndexOutOfBounds {
                        index: i,
                        len: axis_len,
                    });
                }
                let dst_start = (o * axis_len + i) * inner;
                let src_start = (o * indices.len() + j) * inner;
                self.data[dst_start..dst_start + inner]
                    .copy_from_slice(&src.data[src_start..src_start + inner]);
            }
        }
        Ok(())
    }

    /// Concatenates tensors along axis 0.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty or trailing shapes differ.
    pub fn concat_axis0(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::Empty("concat_axis0"))?;
        let tail = &first.dims()[1..];
        let mut rows = 0;
        let mut data = Vec::with_capacity(parts.iter().map(Tensor::len).sum());
        for p in parts {
            if p.rank() == 0 || &p.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: p.dims().to_vec(),
                    op: "concat_axis0",
                });
            }
            rows += p.dims()[0];
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![rows];
        dims.extend_from_slice(tail);
        Tensor::from_vec(data, &dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.at(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.at(&[2, 2]).unwrap(), 1.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.5).unwrap();
        assert_eq!(t.at(&[1, 0]).unwrap(), 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.dims(), &[2, 6]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 3]).is_err());
    }

    #[test]
    fn index_axis0_extracts_row() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let row = t.index_axis0(1).unwrap();
        assert_eq!(row.dims(), &[3]);
        assert_eq!(row.as_slice(), &[3.0, 4.0, 5.0]);
        assert!(t.index_axis0(2).is_err());
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        let c = Tensor::concat_axis0(&[s.clone(), s]).unwrap();
        assert_eq!(c.dims(), &[4, 2]);
    }

    #[test]
    fn gather_axis0_selects_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let g = t.gather_axis0(&[0, 2]).unwrap();
        assert_eq!(g.dims(), &[2, 3]);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn gather_axis1_selects_cols() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let g = t.gather_axis1(&[2, 0]).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.as_slice(), &[2.0, 0.0, 5.0, 3.0]);
    }

    #[test]
    fn gather_axis_general_matches_specialised() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let g0 = t.gather_axis(0, &[1]).unwrap();
        assert_eq!(g0.dims(), &[1, 3, 4]);
        assert_eq!(g0.as_slice()[0], 12.0);
        let g1 = t.gather_axis(1, &[0, 2]).unwrap();
        assert_eq!(g1.dims(), &[2, 2, 4]);
        assert_eq!(g1.at(&[0, 1, 0]).unwrap(), 8.0);
        let g2 = t.gather_axis(2, &[3]).unwrap();
        assert_eq!(g2.dims(), &[2, 3, 1]);
        assert_eq!(g2.at(&[1, 2, 0]).unwrap(), 23.0);
    }

    #[test]
    fn scatter_is_inverse_of_gather() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let idx = [1usize, 3];
        let g = t.gather_axis(0, &idx).unwrap();
        let mut restored = Tensor::zeros(&[4, 3]);
        restored.scatter_axis(0, &idx, &g).unwrap();
        for &i in &idx {
            for c in 0..3 {
                assert_eq!(restored.at(&[i, c]).unwrap(), t.at(&[i, c]).unwrap());
            }
        }
        // Untouched rows stay zero.
        assert_eq!(restored.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn scatter_shape_validation() {
        let mut t = Tensor::zeros(&[4, 3]);
        let src = Tensor::zeros(&[2, 2]);
        assert!(t.scatter_axis(0, &[0, 1], &src).is_err());
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let mut rng = SeededRng::new(0);
        let wide = Tensor::kaiming(&[64, 1024], 1024, &mut rng);
        let narrow = Tensor::kaiming(&[64, 4], 4, &mut rng);
        let var = |t: &Tensor| t.as_slice().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!(var(&wide) < var(&narrow));
    }
}
