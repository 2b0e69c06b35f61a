//! Token embedding layer for the NLP proxy models.

use mhfl_tensor::{SeededRng, Tensor};

use crate::layer::{check_grad_shape, join_name};
use crate::{AxisRole, Layer, NnError, Param, Result};

/// A lookup table mapping token ids to dense vectors.
///
/// Input is a `[batch, seq]` tensor whose entries are token ids stored as
/// `f32` (rounded to the nearest integer, clamped to the vocabulary); output
/// is `[batch, seq, dim]`. The vocabulary axis is `Fixed` (every sub-model
/// must understand the full vocabulary) while the embedding dimension is
/// width-scalable.
#[derive(Debug)]
pub struct Embedding {
    table: Param,
    vocab: usize,
    dim: usize,
    cached_ids: Option<Vec<usize>>,
    cached_dims: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates an embedding table with normally-distributed entries.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidConfig`] for a zero-sized vocabulary or dimension.
    pub fn new(vocab: usize, dim: usize, rng: &mut SeededRng) -> Result<Self> {
        if vocab == 0 || dim == 0 {
            return Err(NnError::InvalidConfig(format!(
                "embedding requires positive sizes (vocab={vocab}, dim={dim})"
            )));
        }
        let table = Param::new(
            "weight",
            Tensor::randn(&[vocab, dim], 0.1, rng),
            vec![AxisRole::Fixed, AxisRole::OutFeatures],
        );
        Ok(Embedding {
            table,
            vocab,
            dim,
            cached_ids: None,
            cached_dims: None,
        })
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Layer for Embedding {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.rank() != 2 {
            return Err(NnError::BadInput {
                layer: "Embedding".into(),
                expected: "[batch, seq] token-id input".into(),
                got: input.dims().to_vec(),
            });
        }
        let dims = input.dims().to_vec();
        let (b, s) = (dims[0], dims[1]);
        let ids: Vec<usize> = input
            .as_slice()
            .iter()
            .map(|&v| (v.round().max(0.0) as usize).min(self.vocab - 1))
            .collect();
        let table = self.table.value.as_slice();
        let mut out = vec![0.0; b * s * self.dim];
        for (pos, &id) in ids.iter().enumerate() {
            out[pos * self.dim..(pos + 1) * self.dim]
                .copy_from_slice(&table[id * self.dim..(id + 1) * self.dim]);
        }
        self.cached_ids = train.then_some(ids);
        self.cached_dims = train.then_some(dims);
        Ok(Tensor::from_vec(out, &[b, s, self.dim])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let ids = self
            .cached_ids
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Embedding".into()))?;
        let dims = self.cached_dims.as_ref().expect("cached with ids");
        check_grad_shape("Embedding", grad_output, &[dims[0], dims[1], self.dim])?;
        let dy = grad_output.as_slice();
        let grad = self.table.grad.as_mut_slice();
        for (pos, &id) in ids.iter().enumerate() {
            for j in 0..self.dim {
                grad[id * self.dim + j] += dy[pos * self.dim + j];
            }
        }
        // Token ids are discrete inputs; the "gradient" w.r.t. them is zero.
        Ok(Tensor::zeros(dims))
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "weight"), &self.table);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = SeededRng::new(0);
        let mut emb = Embedding::new(5, 3, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![0.0, 4.0], &[1, 2]).unwrap();
        let y = emb.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2, 3]);
        let table = emb.table.value.as_slice().to_vec();
        assert_eq!(&y.as_slice()[0..3], &table[0..3]);
        assert_eq!(&y.as_slice()[3..6], &table[12..15]);
    }

    #[test]
    fn out_of_range_ids_are_clamped() {
        let mut rng = SeededRng::new(1);
        let mut emb = Embedding::new(4, 2, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![100.0, -3.0], &[1, 2]).unwrap();
        let y = emb.forward(&x, true).unwrap();
        let table = emb.table.value.as_slice().to_vec();
        assert_eq!(&y.as_slice()[0..2], &table[6..8]); // clamped to vocab-1
        assert_eq!(&y.as_slice()[2..4], &table[0..2]); // clamped to 0
    }

    #[test]
    fn backward_accumulates_per_token() {
        let mut rng = SeededRng::new(2);
        let mut emb = Embedding::new(3, 2, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        emb.forward(&x, true).unwrap();
        let dy = Tensor::ones(&[1, 2, 2]);
        emb.backward(&dy).unwrap();
        // Token 1 appears twice, so its gradient rows accumulate to 2.
        assert_eq!(emb.table.grad.as_slice()[2], 2.0);
        assert_eq!(emb.table.grad.as_slice()[3], 2.0);
        assert_eq!(emb.table.grad.as_slice()[0], 0.0);
    }

    #[test]
    fn config_and_shape_validation() {
        let mut rng = SeededRng::new(3);
        assert!(Embedding::new(0, 4, &mut rng).is_err());
        let mut emb = Embedding::new(4, 4, &mut rng).unwrap();
        assert!(emb.forward(&Tensor::zeros(&[4]), true).is_err());
        assert!(emb.backward(&Tensor::zeros(&[1, 1, 4])).is_err());
    }
}
