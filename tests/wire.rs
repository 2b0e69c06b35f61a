//! Integration tests of the standalone wire frame
//! (`mhfl_fl::wire::{encode,decode}_client_update`): round trips for every
//! payload family, and the same corruption battery the checkpoint
//! format gets in `tests/persist.rs` — truncations, flipped bits, foreign
//! magic, future versions and trailing garbage all return *typed*
//! `PersistError`s, never a panic and never a silently different update.
//!
//! `ClientUpdate` deliberately has no `PartialEq` (it carries tensors), so
//! equality here is checked the canonical way: decode, re-encode, and
//! compare bytes — the codec is canonical, so byte equality is value
//! equality.

use mhfl_fl::submodel::WidthSelection;
use mhfl_fl::wire::{
    decode_client_update, encode_client_update, encode_frame, CLIENT_UPDATE_FRAME,
    FRAME_HEADER_LEN, FRAME_TRAILER_LEN, WIRE_MAGIC,
};
use mhfl_fl::{ClientPayload, ClientUpdate, PersistError};
use mhfl_nn::StateDict;
use mhfl_tensor::Tensor;
use proptest::prelude::*;

fn state_dict(seed: f32) -> StateDict {
    let mut state = StateDict::new();
    state.insert(
        "encoder.weight",
        Tensor::from_vec(vec![seed, seed + 0.5, -seed, 1.0 / (seed + 1.0)], &[2, 2]).unwrap(),
    );
    state.insert(
        "head.bias",
        Tensor::from_vec(vec![seed * 2.0], &[1]).unwrap(),
    );
    state
}

/// One representative update per payload family.
fn sample_updates() -> Vec<ClientUpdate> {
    vec![
        ClientUpdate {
            client: 3,
            num_samples: 128,
            payload: ClientPayload::SubModel {
                state: state_dict(1.25),
                selection: WidthSelection::Rolling { shift: 7 },
                num_blocks: 4,
            },
            staleness_weight: 1.0,
        },
        ClientUpdate {
            client: 0,
            num_samples: 17,
            payload: ClientPayload::Prototypes {
                state: state_dict(0.0),
                sums: Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[3, 2]).unwrap(),
                counts: vec![4.0, 0.0, 13.0],
            },
            staleness_weight: 0.577_35,
        },
        ClientUpdate {
            client: 41,
            num_samples: 1,
            payload: ClientPayload::PublicLogits {
                state: state_dict(-3.5),
                probs: Tensor::from_vec(vec![0.9, 0.1, 0.25, 0.75], &[2, 2]).unwrap(),
                confidence: 0.825,
            },
            staleness_weight: 0.5,
        },
        ClientUpdate {
            client: usize::MAX >> 8,
            num_samples: 0,
            payload: ClientPayload::Empty,
            staleness_weight: f32::MIN_POSITIVE,
        },
    ]
}

/// Field-wise equality for the parts without tensors, then canonical bytes
/// for the rest.
fn assert_update_round_trips(update: &ClientUpdate) {
    let bytes = encode_client_update(update);
    let decoded = decode_client_update(&bytes).expect("valid frame decodes");
    assert_eq!(decoded.client, update.client);
    assert_eq!(decoded.num_samples, update.num_samples);
    assert_eq!(
        decoded.staleness_weight.to_bits(),
        update.staleness_weight.to_bits(),
        "staleness weight must survive bit-exactly"
    );
    assert_eq!(decoded.payload.kind(), update.payload.kind());
    assert_eq!(
        encode_client_update(&decoded),
        bytes,
        "decode → encode must be the identity (canonical codec)"
    );
}

#[test]
fn every_payload_family_round_trips() {
    for update in &sample_updates() {
        assert_update_round_trips(update);
    }
}

// ---------------------------------------------------------------------------
// Corruption battery (mirrors tests/persist.rs)
// ---------------------------------------------------------------------------

/// A realistic frame image for the corruption tests: sub-model payload with
/// real tensors.
fn sample_frame() -> Vec<u8> {
    encode_client_update(&sample_updates()[0])
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_frame();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        decode_client_update(&bytes),
        Err(PersistError::BadMagic { .. })
    ));
    assert!(matches!(
        decode_client_update(b"\x7fELF\x02\x01\x01\x00 definitely not a frame"),
        Err(PersistError::BadMagic { .. })
    ));
    assert!(matches!(
        decode_client_update(&[]),
        Err(PersistError::Truncated { .. })
    ));
}

#[test]
fn future_wire_versions_are_rejected_not_misparsed() {
    let mut bytes = sample_frame();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        decode_client_update(&bytes),
        Err(PersistError::UnsupportedVersion {
            found: 2,
            supported: 1
        })
    ));
}

#[test]
fn wrong_frame_kind_is_a_typed_error() {
    // An update's own payload in a *well-formed* frame of another kind must
    // be named as the wrong kind, not misparsed into an update.
    let update_frame = sample_frame();
    let payload = &update_frame[FRAME_HEADER_LEN..update_frame.len() - FRAME_TRAILER_LEN];
    let wrong_kind = encode_frame(CLIENT_UPDATE_FRAME + 1, payload);
    match decode_client_update(&wrong_kind) {
        Err(PersistError::Malformed { detail, .. }) => {
            assert!(detail.contains("client-update"), "got: {detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // An unknown kind byte written over a valid frame is rejected too.
    let mut alien = sample_frame();
    alien[WIRE_MAGIC.len() + 4] = 0x7F;
    assert!(decode_client_update(&alien).is_err());
}

#[test]
fn a_flipped_payload_byte_is_a_checksum_mismatch() {
    let bytes = sample_frame();
    let mut corrupt = bytes.clone();
    let mid = FRAME_HEADER_LEN + (bytes.len() - FRAME_HEADER_LEN - 8) / 2;
    corrupt[mid] ^= 0x10;
    match decode_client_update(&corrupt) {
        Err(PersistError::ChecksumMismatch {
            section,
            stored,
            computed,
        }) => {
            assert_eq!(section, "frame");
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_frame();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(
        decode_client_update(&bytes),
        Err(PersistError::TrailingData { bytes: 4 })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in the frame yields a typed error —
    /// never a panic, never a silently different update.
    #[test]
    fn any_single_bit_flip_is_detected(offset in 0usize..1_000_000, bit in 0usize..8) {
        let mut bytes = sample_frame();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        prop_assert!(
            decode_client_update(&bytes).is_err(),
            "flip at byte {} bit {} went undetected",
            offset,
            bit
        );
    }

    /// Truncating the frame at any point yields a typed error.
    #[test]
    fn any_truncation_is_detected(keep in 0usize..1_000_000) {
        let bytes = sample_frame();
        let keep = keep % bytes.len(); // strictly shorter than the frame
        prop_assert!(decode_client_update(&bytes[..keep]).is_err());
    }

    /// Round trip holds across arbitrary field values, including
    /// non-finite staleness weights and empty tensors' worth of metadata.
    #[test]
    fn update_round_trip_is_canonical_for_arbitrary_fields(
        client in 0usize..1_000_000,
        num_samples in 0usize..1_000_000,
        weight_bits in 0u32..u32::MAX,
        shift in 0usize..4096,
        family in 0usize..4,
    ) {
        let mut update = sample_updates()[family].clone();
        update.client = client;
        update.num_samples = num_samples;
        update.staleness_weight = f32::from_bits(weight_bits);
        if let ClientPayload::SubModel { selection, .. } = &mut update.payload {
            *selection = WidthSelection::Rolling { shift };
        }
        let bytes = encode_client_update(&update);
        let decoded = decode_client_update(&bytes).unwrap();
        prop_assert_eq!(decoded.client, client);
        prop_assert_eq!(decoded.num_samples, num_samples);
        prop_assert_eq!(decoded.staleness_weight.to_bits(), weight_bits);
        prop_assert_eq!(encode_client_update(&decoded), bytes);
    }
}
