//! Keyed client-state storage for sparse populations.
//!
//! The engine historically indexed client state with `Vec`s sized to the
//! whole population — `vec![false; num_clients]` for the in-flight map,
//! dense per-client arrays in checkpoints — which bounds population size by
//! memory even when only a handful of clients are ever active. This module
//! provides the sparse replacement: [`ClientSet`], a sorted id set. It
//! costs O(resident) memory and keeps its ids in ascending order, which the
//! schedulers exploit for O(busy) free-slot indexing
//! ([`crate::schedule::CandidatePool`]) and the checkpoint codec for
//! canonical (byte-stable) encodings.
//!
//! A sorted `Vec` rather than a hash set: populations are addressed by dense
//! small-integer ids, resident sets are small (bounded by concurrency, not
//! population), iteration order must be deterministic for bit-exact resume,
//! and binary search on a contiguous array beats hashing at these sizes.

/// A sparse, sorted set of client ids.
///
/// Memory is O(members), independent of the population the ids are drawn
/// from; membership is O(log members); iteration is ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientSet {
    ids: Vec<usize>,
}

impl ClientSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ClientSet::default()
    }

    /// Builds a set from arbitrary ids (deduplicated, sorted).
    pub fn from_ids(mut ids: Vec<usize>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        ClientSet { ids }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `client` is a member.
    pub fn contains(&self, client: usize) -> bool {
        self.ids.binary_search(&client).is_ok()
    }

    /// Inserts `client`; returns `true` if it was newly added.
    pub fn insert(&mut self, client: usize) -> bool {
        match self.ids.binary_search(&client) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, client);
                true
            }
        }
    }

    /// Removes `client`; returns `true` if it was a member.
    pub fn remove(&mut self, client: usize) -> bool {
        match self.ids.binary_search(&client) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().copied()
    }

    /// The members as a sorted slice (the canonical encoding the checkpoint
    /// codec stores).
    pub fn as_slice(&self) -> &[usize] {
        &self.ids
    }
}

impl FromIterator<usize> for ClientSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        ClientSet::from_ids(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_insert_remove_contains() {
        let mut set = ClientSet::new();
        assert!(set.is_empty());
        assert!(set.insert(500_000));
        assert!(set.insert(3));
        assert!(set.insert(999_999_999));
        assert!(!set.insert(3), "duplicate insert is a no-op");
        assert_eq!(set.len(), 3);
        assert!(set.contains(500_000));
        assert!(!set.contains(4));
        assert_eq!(set.as_slice(), &[3, 500_000, 999_999_999]);
        assert!(set.remove(500_000));
        assert!(!set.remove(500_000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 999_999_999]);
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn set_from_ids_sorts_and_dedups() {
        let set = ClientSet::from_ids(vec![9, 1, 9, 4, 1]);
        assert_eq!(set.as_slice(), &[1, 4, 9]);
        let collected: ClientSet = [7usize, 2, 7].into_iter().collect();
        assert_eq!(collected.as_slice(), &[2, 7]);
    }
}
