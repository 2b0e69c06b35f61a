//! Offline stand-in for the `serde` crate.
//!
//! The workspace derives `Serialize`/`Deserialize` on its config and report
//! types so they can be serialised by downstream users once the real crates
//! are swapped back in, but **no serde wire format exists in-tree**: this
//! shim keeps the derives compiling, and any attempt to actually serialise
//! through it fails loudly at runtime instead of silently producing
//! nothing.
//!
//! Durable serialisation in this workspace does not go through serde at
//! all: run checkpoints use the self-contained, versioned, checksummed
//! binary codec in `mhfl_fl::persist` (`Session::save` /
//! `ExperimentSpec::resume_from`), which works offline and is covered by the
//! `tests/persist.rs` round-trip and corruption suites.

/// Stand-in for `serde::Serialize`.
///
/// The derive emits an empty impl, so the panicking default below is what
/// every type gets: calling it aborts with a pointer at `mhfl_fl::persist`
/// rather than pretending a wire format exists.
pub trait Serialize {
    /// Always panics: the offline shim has no wire format. Swap the real
    /// serde crates back in (see `shims/README.md`) or use
    /// `mhfl_fl::persist` for durable checkpoints.
    fn serialize<S>(&self, _serializer: S) -> Result<(), String> {
        unimplemented!(
            "offline serde shim: no wire format is implemented. For durable run \
             checkpoints use mhfl_fl::persist (Session::save / ExperimentSpec::resume_from); \
             for real serde support swap the crates.io dependencies back in as \
             described in shims/README.md"
        )
    }
}

/// Stand-in for `serde::Deserialize`.
///
/// The derive emits an empty impl; the panicking default below makes any
/// attempted use loud.
pub trait Deserialize<'de>: Sized {
    /// Always panics: the offline shim has no wire format. Swap the real
    /// serde crates back in (see `shims/README.md`) or use
    /// `mhfl_fl::persist` for durable checkpoints.
    fn deserialize<D>(_deserializer: D) -> Result<Self, String> {
        unimplemented!(
            "offline serde shim: no wire format is implemented. For durable run \
             checkpoints use mhfl_fl::persist (read_checkpoint / Session::restore); \
             for real serde support swap the crates.io dependencies back in as \
             described in shims/README.md"
        )
    }
}

pub use serde_derive::{Deserialize, Serialize};

#[cfg(test)]
mod tests {
    use super::*;

    struct Marker;
    impl Serialize for Marker {}
    impl<'de> Deserialize<'de> for Marker {}

    #[test]
    #[should_panic(expected = "mhfl_fl::persist")]
    fn serialize_fails_loudly_with_a_pointer_to_persist() {
        let _ = Marker.serialize(());
    }

    #[test]
    #[should_panic(expected = "mhfl_fl::persist")]
    fn deserialize_fails_loudly_with_a_pointer_to_persist() {
        let _ = Marker::deserialize(());
    }
}
