//! State dictionaries: the unit of exchange between clients and the server.

use std::collections::BTreeMap;

use mhfl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{NnError, Result};

/// An ordered map from fully-qualified parameter name to tensor.
///
/// Every federated exchange in the benchmark — full models, width/depth
/// sub-models, aggregated updates — is represented as a `StateDict`, which is
/// what makes the eight MHFL algorithms expressible independently of the
/// concrete proxy architecture.
///
/// ```
/// use mhfl_nn::StateDict;
/// use mhfl_tensor::Tensor;
///
/// let mut sd = StateDict::new();
/// sd.insert("layer.weight", Tensor::ones(&[2, 2]));
/// assert_eq!(sd.num_parameters(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
}

impl StateDict {
    /// Creates an empty state dict.
    pub fn new() -> Self {
        StateDict {
            entries: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) a parameter tensor.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.entries.insert(name.into(), value);
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Looks up a parameter by name, returning an error if missing.
    ///
    /// # Errors
    /// Returns [`NnError::MissingParam`] when the name is absent.
    pub fn require(&self, name: &str) -> Result<&Tensor> {
        self.entries
            .get(name)
            .ok_or_else(|| NnError::MissingParam(name.to_string()))
    }

    /// Removes a parameter, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Tensor> {
        self.entries.remove(name)
    }

    /// Returns `true` if the dict contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of parameters (tensors) stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no parameters are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Iterates mutably over `(name, tensor)` pairs in name order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Tensor)> {
        self.entries.iter_mut()
    }

    /// Parameter names in order.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Total number of scalar values across all tensors.
    pub fn num_parameters(&self) -> usize {
        self.entries.values().map(Tensor::len).sum()
    }

    /// Squared L2 distance between the overlapping parameters of two dicts.
    /// Parameters present in only one dict (or with differing shapes) are
    /// ignored — useful for measuring drift between heterogeneous models.
    pub fn l2_distance_sq(&self, other: &StateDict) -> f32 {
        self.entries
            .iter()
            .filter_map(|(k, v)| {
                other.get(k).and_then(|o| {
                    (o.dims() == v.dims()).then(|| {
                        v.as_slice()
                            .iter()
                            .zip(o.as_slice())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f32>()
                    })
                })
            })
            .sum()
    }
}

impl FromIterator<(String, Tensor)> for StateDict {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        StateDict {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Tensor)> for StateDict {
    fn extend<I: IntoIterator<Item = (String, Tensor)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl IntoIterator for StateDict {
    type Item = (String, Tensor);
    type IntoIter = std::collections::btree_map::IntoIter<String, Tensor>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("stem.weight", Tensor::ones(&[4, 2]));
        sd.insert("stem.bias", Tensor::zeros(&[4]));
        sd.insert("head.weight", Tensor::full(&[3, 4], 2.0));
        sd
    }

    #[test]
    fn insert_get_remove() {
        let mut sd = sample();
        assert!(sd.contains("stem.weight"));
        assert_eq!(sd.len(), 3);
        assert_eq!(sd.get("stem.bias").unwrap().len(), 4);
        assert!(sd.require("missing").is_err());
        assert!(sd.remove("stem.bias").is_some());
        assert_eq!(sd.len(), 2);
    }

    #[test]
    fn counting_and_bytes() {
        let sd = sample();
        assert_eq!(sd.num_parameters(), 8 + 4 + 12);
    }

    #[test]
    fn l2_distance_over_overlap_only() {
        let a = sample();
        let mut b = sample();
        b.insert("head.weight", Tensor::full(&[3, 4], 3.0));
        b.insert("extra.weight", Tensor::ones(&[5]));
        // Only head.weight differs on the overlap: 12 entries, diff 1 each.
        assert!((a.l2_distance_sq(&b) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn ordering_is_stable_by_name() {
        let sd = sample();
        let names = sd.names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn from_iterator_roundtrip() {
        let sd = sample();
        let rebuilt: StateDict = sd.clone().into_iter().collect();
        assert_eq!(sd, rebuilt);
    }
}
