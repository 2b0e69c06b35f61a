//! Algorithm state capture for checkpoint/resume.
//!
//! A [`Checkpoint`](crate::Checkpoint) must carry the full mutable state of
//! the algorithm it interrupts — server model weights, per-client snapshots,
//! prototype tables — without the engine knowing anything about the concrete
//! algorithm. [`AlgorithmState`] is that carrier: a small named-slot
//! container over the three value kinds every in-tree algorithm's state is
//! built from ([`StateDict`]s, [`Tensor`]s and `f32` vectors).
//!
//! Algorithms fill it in [`FlAlgorithm::snapshot`](crate::FlAlgorithm) and
//! consume it in [`FlAlgorithm::restore`](crate::FlAlgorithm). Anything an
//! algorithm can recompute deterministically from the
//! [`FederationContext`](crate::FederationContext) — model shells,
//! parameter specs, proxy configurations, derived RNG streams — should
//! *not* be stored: restore rebuilds it, which keeps checkpoints small and
//! forward-compatible.

use std::collections::HashSet;

use mhfl_nn::StateDict;
use mhfl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{FlError, FlResult};

/// Named snapshot slots of one algorithm's mutable state.
///
/// Slot names are algorithm-private; the only convention shared across the
/// in-tree families is `client.<id>` for per-client model snapshots (see
/// [`AlgorithmState::client_state_key`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AlgorithmState {
    states: Vec<(String, StateDict)>,
    tensors: Vec<(String, Tensor)>,
    scalars: Vec<(String, Vec<f32>)>,
}

impl AlgorithmState {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        AlgorithmState::default()
    }

    /// The conventional slot name for client `id`'s model snapshot.
    ///
    /// Every other slot is *shared*: `client_update(round, c)` reads only
    /// the shared slots and `client.c`, so a snapshot
    /// [`restricted_to`](AlgorithmState::restricted_to) a set of clients
    /// restores an instance that computes those clients' updates
    /// bit-identically.
    pub fn client_state_key(id: usize) -> String {
        format!("client.{id}")
    }

    /// Parses a slot name produced by [`client_state_key`] back into the
    /// client id.
    ///
    /// [`client_state_key`]: AlgorithmState::client_state_key
    pub fn parse_client_key(name: &str) -> Option<usize> {
        name.strip_prefix("client.")?.parse().ok()
    }

    /// Stores a [`StateDict`] under `name` (replacing any previous value).
    pub fn insert_state(&mut self, name: impl Into<String>, state: StateDict) {
        let name = name.into();
        self.states.retain(|(n, _)| *n != name);
        self.states.push((name, state));
    }

    /// Stores each `(name, state)` of `slots` in order, as one
    /// [`insert_state`](AlgorithmState::insert_state) per slot would, but
    /// with one scan of the existing slots instead of one per insert.
    /// `slots` must not repeat a name.
    pub fn insert_states(&mut self, slots: impl IntoIterator<Item = (String, StateDict)>) {
        let slots: Vec<_> = slots.into_iter().collect();
        let names: HashSet<&str> = slots.iter().map(|(n, _)| n.as_str()).collect();
        debug_assert_eq!(names.len(), slots.len(), "repeated slot name");
        self.states.retain(|(n, _)| !names.contains(n.as_str()));
        self.states.extend(slots);
    }

    /// Stores a [`Tensor`] under `name`.
    pub fn insert_tensor(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        self.tensors.retain(|(n, _)| *n != name);
        self.tensors.push((name, tensor));
    }

    /// Stores a scalar vector under `name`.
    pub fn insert_scalars(&mut self, name: impl Into<String>, values: Vec<f32>) {
        let name = name.into();
        self.scalars.retain(|(n, _)| *n != name);
        self.scalars.push((name, values));
    }

    /// Removes and returns the [`StateDict`] stored under `name`.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if the slot is absent — restoring
    /// from a checkpoint of a different algorithm, usually.
    pub fn take_state(&mut self, name: &str) -> FlResult<StateDict> {
        Self::take(&mut self.states, name, "state-dict")
    }

    /// Removes and returns the [`Tensor`] stored under `name`.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if the slot is absent.
    pub fn take_tensor(&mut self, name: &str) -> FlResult<Tensor> {
        Self::take(&mut self.tensors, name, "tensor")
    }

    /// Removes and returns the [`Tensor`] stored under `name`, or `None` if
    /// the slot was never written (for optional algorithm state).
    pub fn try_take_tensor(&mut self, name: &str) -> Option<Tensor> {
        Self::take(&mut self.tensors, name, "tensor").ok()
    }

    /// Removes and returns the scalar vector stored under `name`.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if the slot is absent.
    pub fn take_scalars(&mut self, name: &str) -> FlResult<Vec<f32>> {
        Self::take(&mut self.scalars, name, "scalars")
    }

    /// Removes and returns every [`StateDict`] slot whose name starts with
    /// `prefix`, in insertion order, as `(full name, value)` pairs.
    pub fn take_states_with_prefix(&mut self, prefix: &str) -> Vec<(String, StateDict)> {
        let (matching, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.states)
            .into_iter()
            .partition(|(n, _)| n.starts_with(prefix));
        self.states = rest;
        matching
    }

    /// A copy holding every shared slot plus the `client.<id>` slots of
    /// `clients` only, in insertion order: all a replica needs to compute
    /// those clients' updates.
    pub fn restricted_to(&self, clients: &[usize]) -> AlgorithmState {
        fn kept<T: Clone>(slots: &[(String, T)], clients: &[usize]) -> Vec<(String, T)> {
            slots
                .iter()
                .filter(|(name, _)| {
                    AlgorithmState::parse_client_key(name).is_none_or(|id| clients.contains(&id))
                })
                .cloned()
                .collect()
        }
        AlgorithmState {
            states: kept(&self.states, clients),
            tensors: kept(&self.tensors, clients),
            scalars: kept(&self.scalars, clients),
        }
    }

    /// Whether no slot of any kind is populated.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty() && self.tensors.is_empty() && self.scalars.is_empty()
    }

    /// The raw slot tables in insertion order, for the durable-checkpoint
    /// codec (`persist`): state dicts, tensors, scalar vectors.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &[(String, StateDict)],
        &[(String, Tensor)],
        &[(String, Vec<f32>)],
    ) {
        (&self.states, &self.tensors, &self.scalars)
    }

    /// Rebuilds a snapshot from raw slot tables (the decode half of
    /// [`parts`](AlgorithmState::parts)); insertion order is preserved.
    pub(crate) fn from_parts(
        states: Vec<(String, StateDict)>,
        tensors: Vec<(String, Tensor)>,
        scalars: Vec<(String, Vec<f32>)>,
    ) -> Self {
        AlgorithmState {
            states,
            tensors,
            scalars,
        }
    }

    fn take<T>(slots: &mut Vec<(String, T)>, name: &str, kind: &str) -> FlResult<T> {
        let index = slots.iter().position(|(n, _)| n == name).ok_or_else(|| {
            FlError::InvalidConfig(format!(
                "algorithm snapshot has no {kind} slot named {name:?} \
                 (checkpoint from a different algorithm?)"
            ))
        })?;
        Ok(slots.remove(index).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_trip_by_name() {
        let mut snap = AlgorithmState::new();
        let mut sd = StateDict::new();
        sd.insert("w", Tensor::ones(&[2, 2]));
        snap.insert_state("global", sd.clone());
        snap.insert_tensor("prototypes", Tensor::zeros(&[3, 4]));
        snap.insert_scalars("counts", vec![1.0, 2.0]);
        assert!(!snap.is_empty());
        assert_eq!(snap.take_state("global").unwrap(), sd);
        assert_eq!(snap.take_tensor("prototypes").unwrap().dims(), &[3, 4]);
        assert_eq!(snap.take_scalars("counts").unwrap(), vec![1.0, 2.0]);
        assert!(snap.is_empty());
    }

    #[test]
    fn missing_slots_error_and_optional_slots_are_none() {
        let mut snap = AlgorithmState::new();
        assert!(snap.take_state("global").is_err());
        assert!(snap.take_scalars("counts").is_err());
        assert!(snap.try_take_tensor("maybe").is_none());
    }

    #[test]
    fn inserts_replace_and_prefix_drain_partitions() {
        let mut snap = AlgorithmState::new();
        snap.insert_scalars("counts", vec![1.0]);
        snap.insert_scalars("counts", vec![2.0]);
        assert_eq!(snap.take_scalars("counts").unwrap(), vec![2.0]);

        snap.insert_state("global", StateDict::new());
        for id in [3usize, 7, 1] {
            snap.insert_state(AlgorithmState::client_state_key(id), StateDict::new());
        }
        let clients = snap.take_states_with_prefix("client.");
        let ids: Vec<usize> = clients
            .iter()
            .map(|(n, _)| AlgorithmState::parse_client_key(n).unwrap())
            .collect();
        assert_eq!(ids, vec![3, 7, 1]);
        assert!(snap.take_state("global").is_ok());
        assert!(AlgorithmState::parse_client_key("server").is_none());
    }

    /// The one-pass bulk insert encodes to the same bytes as one
    /// `insert_state` per slot, replacement of an existing slot included.
    #[test]
    fn bulk_insert_encodes_like_one_insert_per_slot() {
        use crate::wire::{put_algorithm_state, Encoder};
        let base = || {
            let mut snap = AlgorithmState::new();
            snap.insert_state("server", StateDict::new());
            snap.insert_state(AlgorithmState::client_state_key(4), StateDict::new());
            snap.insert_tensor("prototypes", Tensor::zeros(&[2, 2]));
            snap
        };
        let slots: Vec<(String, StateDict)> = (0..300usize)
            .map(|id| {
                let mut sd = StateDict::new();
                sd.insert("w", Tensor::full(&[2], id as f32));
                (AlgorithmState::client_state_key(id * 2), sd)
            })
            .collect();
        let mut one_by_one = base();
        for (name, sd) in slots.clone() {
            one_by_one.insert_state(name, sd);
        }
        let mut bulk = base();
        bulk.insert_states(slots);
        let bytes = |snap: &AlgorithmState| {
            let mut e = Encoder::new();
            put_algorithm_state(&mut e, snap);
            e.into_bytes()
        };
        assert_eq!(bytes(&bulk), bytes(&one_by_one));
    }

    #[test]
    fn restriction_keeps_shared_slots_and_only_the_named_clients() {
        let mut snap = AlgorithmState::new();
        snap.insert_state("server", StateDict::new());
        for id in [3usize, 7, 1] {
            snap.insert_state(AlgorithmState::client_state_key(id), StateDict::new());
        }
        snap.insert_tensor("prototypes", Tensor::zeros(&[2, 2]));
        snap.insert_scalars(AlgorithmState::client_state_key(7), vec![1.0]);

        let mut restricted = snap.restricted_to(&[1, 7, 9]);
        let ids: Vec<usize> = restricted
            .take_states_with_prefix("client.")
            .iter()
            .map(|(n, _)| AlgorithmState::parse_client_key(n).unwrap())
            .collect();
        assert_eq!(ids, vec![7, 1], "insertion order, absent ids ignored");
        assert!(restricted.take_state("server").is_ok());
        assert!(restricted.take_tensor("prototypes").is_ok());
        assert!(restricted.take_scalars("client.7").is_ok());
        assert!(restricted.is_empty());

        let mut none = snap.restricted_to(&[]);
        assert!(none.take_states_with_prefix("client.").is_empty());
        assert!(none.take_scalars("client.7").is_err());
        assert!(none.take_state("server").is_ok());
    }
}
