//! The shared wire format: primitive byte codecs, typed codec errors, and
//! length-prefixed, checksummed frames for values that cross a process
//! boundary.
//!
//! The durable-checkpoint codec ([`persist`](crate::persist)) and the
//! distributed execution layer (`mhfl-net`) speak the same byte language:
//! little-endian integers, IEEE-754 bit patterns for floats, length-prefixed
//! strings and collections, and FNV-1a checksums over every payload. This
//! module owns that language — the [`Encoder`]/[`Decoder`] primitives, the
//! [`PersistError`] corruption taxonomy, and the per-type codecs for the
//! values both layers ship ([`ClientUpdate`], [`ClientPayload`],
//! [`AlgorithmState`], [`EngineConfig`], …) — so a checkpoint section and a
//! network frame are corrupt in exactly the same detectable ways.
//!
//! # Frame layout (wire version 1)
//!
//! ```text
//! magic            8 bytes   b"MHFLWIR1"
//! wire version     u32 LE
//! kind             u8        message discriminant (owned by the caller)
//! payload length   u32 LE
//! payload          length bytes
//! checksum         u64 LE    FNV-1a over the payload
//! ```
//!
//! Every corruption mode — foreign bytes, a future version, a flipped bit
//! anywhere in the payload or checksum, truncation, trailing garbage — maps
//! to a typed [`PersistError`]; decoding never panics and never returns a
//! silently-wrong value.

use std::fmt;

use mhfl_nn::StateDict;
use mhfl_tensor::Tensor;

use crate::fnv::Fnv1a;
use crate::submodel::WidthSelection;
use crate::{
    AlgorithmState, ClientPayload, ClientRoundStat, ClientUpdate, EngineConfig, Execution,
    Parallelism, Schedule, Staleness,
};

/// The 8-byte frame magic ("MHFL wire, line 1 of the format family").
pub const WIRE_MAGIC: [u8; 8] = *b"MHFLWIR1";

/// The newest wire version this build reads and writes.
pub const WIRE_VERSION: u32 = 1;

/// Fixed byte length of a frame header (magic + version + kind + length).
pub const FRAME_HEADER_LEN: usize = 8 + 4 + 1 + 4;

/// Byte length of the frame trailer (the payload checksum).
pub const FRAME_TRAILER_LEN: usize = 8;

/// Upper bound on a declared frame payload, so a corrupt length field read
/// off a socket cannot force a gigantic allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Frame kind of a standalone [`ClientUpdate`] (see [`encode_client_update`]).
pub const CLIENT_UPDATE_FRAME: u8 = 0x10;

/// Errors produced while encoding or decoding wire-format bytes — checkpoint
/// files and network frames alike. Every corruption mode maps to a distinct
/// variant; decoding never panics and never returns a silently-wrong value.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// A filesystem operation failed (message carries the `std::io` detail).
    Io {
        /// The operation that failed (`"read"`, `"write"`, `"rename"`).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// The bytes do not begin with the expected magic — not this format at
    /// all, or a header that was overwritten.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The bytes declare a format version this build does not understand
    /// (e.g. written by a future release).
    UnsupportedVersion {
        /// The version the bytes declare.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// The header fingerprint does not match the configuration section —
    /// the header and body come from different runs (or the fingerprint
    /// bytes were corrupted).
    FingerprintMismatch {
        /// The fingerprint stored in the header.
        stored: u64,
        /// The fingerprint recomputed from the configuration section.
        computed: u64,
    },
    /// A stored checksum does not match its payload.
    ChecksumMismatch {
        /// The section (or `"frame"`) whose payload is corrupt.
        section: &'static str,
        /// The checksum stored in the bytes.
        stored: u64,
        /// The checksum recomputed from the payload.
        computed: u64,
    },
    /// The bytes ended before the declared structure was complete.
    Truncated {
        /// The section (or `"header"`/`"frame"`) being read at the cut.
        section: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A payload passed its checksum but does not parse — or the structure
    /// itself is inconsistent (unknown id, duplicate, missing). Only
    /// reachable for bytes not produced by this encoder.
    Malformed {
        /// The section at fault.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// Bytes follow the final declared structure.
    TrailingData {
        /// Number of unconsumed trailing bytes.
        bytes: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, detail } => {
                write!(f, "checkpoint {op} failed for {path:?}: {detail}")
            }
            PersistError::BadMagic { found } => {
                write!(f, "not a checkpoint file: bad magic {found:02x?}")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads up to {supported})"
            ),
            PersistError::FingerprintMismatch { stored, computed } => write!(
                f,
                "configuration fingerprint mismatch: header says {stored:#018x}, config section hashes to {computed:#018x}"
            ),
            PersistError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section {section:?}: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Truncated {
                section,
                needed,
                remaining,
            } => write!(
                f,
                "checkpoint truncated in {section}: needed {needed} more bytes, {remaining} remain"
            ),
            PersistError::Malformed { section, detail } => {
                write!(f, "malformed checkpoint section {section:?}: {detail}")
            }
            PersistError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after the final checkpoint section")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Alias for wire/persist-layer results.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

/// FNV-1a over a byte slice — the checksum of every section and frame.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Primitive encoder
// ---------------------------------------------------------------------------

/// A little-endian byte-stream writer for wire payloads and checkpoint
/// sections.
///
/// Deliberately minimal: the format has exactly the primitives below, and
/// every floating-point value goes through `to_bits` so encoding is lossless
/// and canonical.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends the exact bit pattern of an `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends the exact bit pattern of an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Primitive decoder
// ---------------------------------------------------------------------------

/// A bounds-checked reader over one payload.
///
/// Every read returns a typed [`PersistError`] on overrun; collection
/// lengths are validated against the bytes actually remaining before any
/// allocation, so a corrupt length field cannot trigger an out-of-memory
/// abort.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`, attributing errors to `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Decoder {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The section label errors are attributed to.
    pub fn section(&self) -> &'static str {
        self.section
    }

    /// Re-labels subsequent errors (used while walking framed structures).
    pub fn set_section(&mut self, section: &'static str) {
        self.section = section;
    }

    fn malformed(&self, detail: impl Into<String>) -> PersistError {
        PersistError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    /// Reads `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                section: self.section,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> PersistResult<u8> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> PersistResult<u32> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> PersistResult<u64> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` into a `usize`.
    pub fn take_usize(&mut self) -> PersistResult<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("value {v} exceeds usize")))
    }

    /// Reads a collection length and validates it against the bytes left:
    /// a valid encoding needs at least `min_elem_bytes` per element, so a
    /// corrupt length cannot force a huge allocation.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> PersistResult<usize> {
        let len = self.take_usize()?;
        let floor = len.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(PersistError::Truncated {
                section: self.section,
                needed: floor,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a one-byte bool, rejecting anything but `0`/`1`.
    pub fn take_bool(&mut self) -> PersistResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.malformed(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an `f32` from its bit pattern.
    pub fn take_f32(&mut self) -> PersistResult<f32> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> PersistResult<String> {
        let len = self.take_len(1)?;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| self.malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Requires that every byte has been consumed.
    pub fn finish(&self) -> PersistResult<()> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!(
                "{} unconsumed bytes at the end of the section",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared type codecs
// ---------------------------------------------------------------------------

/// Encodes a [`Tensor`]: rank, extents, then every element's bit pattern.
pub fn put_tensor(e: &mut Encoder, t: &Tensor) {
    let dims = t.dims();
    e.put_u32(dims.len() as u32);
    for &d in dims {
        e.put_usize(d);
    }
    for &v in t.as_slice() {
        e.put_f32(v);
    }
}

/// Decodes a [`Tensor`] written by [`put_tensor`].
///
/// # Errors
/// Returns a typed [`PersistError`] on implausible rank, overflowing element
/// counts, truncation, or a shape the tensor layer rejects.
pub fn take_tensor(d: &mut Decoder<'_>) -> PersistResult<Tensor> {
    let rank = d.take_u32()? as usize;
    if rank > 16 {
        return Err(PersistError::Malformed {
            section: d.section,
            detail: format!("tensor rank {rank} is implausible"),
        });
    }
    let mut dims = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let extent = d.take_usize()?;
        len = len
            .checked_mul(extent)
            .ok_or_else(|| PersistError::Malformed {
                section: d.section,
                detail: "tensor element count overflows".into(),
            })?;
        dims.push(extent);
    }
    if len.saturating_mul(4) > d.remaining() {
        return Err(PersistError::Truncated {
            section: d.section,
            needed: len.saturating_mul(4),
            remaining: d.remaining(),
        });
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(d.take_f32()?);
    }
    Tensor::from_vec(data, &dims).map_err(|e| PersistError::Malformed {
        section: d.section,
        detail: format!("tensor reconstruction failed: {e}"),
    })
}

/// Encodes a [`StateDict`] as name/tensor pairs in iteration order.
pub fn put_state_dict(e: &mut Encoder, sd: &StateDict) {
    e.put_usize(sd.len());
    for (name, tensor) in sd.iter() {
        e.put_str(name);
        put_tensor(e, tensor);
    }
}

/// Decodes a [`StateDict`] written by [`put_state_dict`].
///
/// # Errors
/// Propagates the underlying string/tensor codec errors.
pub fn take_state_dict(d: &mut Decoder<'_>) -> PersistResult<StateDict> {
    let count = d.take_len(12)?; // name prefix + tensor rank at minimum
    let mut sd = StateDict::new();
    for _ in 0..count {
        let name = d.take_str()?;
        let tensor = take_tensor(d)?;
        sd.insert(name, tensor);
    }
    Ok(sd)
}

/// Encodes a length-prefixed `f32` slice (exact bit patterns).
pub fn put_f32_vec(e: &mut Encoder, values: &[f32]) {
    e.put_usize(values.len());
    for &v in values {
        e.put_f32(v);
    }
}

/// Decodes an `f32` vector written by [`put_f32_vec`].
///
/// # Errors
/// Returns [`PersistError::Truncated`] if the declared length exceeds the
/// remaining bytes.
pub fn take_f32_vec(d: &mut Decoder<'_>) -> PersistResult<Vec<f32>> {
    let len = d.take_len(4)?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(d.take_f32()?);
    }
    Ok(values)
}

/// Encodes a [`WidthSelection`].
pub fn put_selection(e: &mut Encoder, selection: WidthSelection) {
    match selection {
        WidthSelection::Prefix => e.put_u8(0),
        WidthSelection::Rolling { shift } => {
            e.put_u8(1);
            e.put_usize(shift);
        }
    }
}

/// Decodes a [`WidthSelection`] written by [`put_selection`].
///
/// # Errors
/// Returns [`PersistError::Malformed`] on an unknown tag.
pub fn take_selection(d: &mut Decoder<'_>) -> PersistResult<WidthSelection> {
    match d.take_u8()? {
        0 => Ok(WidthSelection::Prefix),
        1 => Ok(WidthSelection::Rolling {
            shift: d.take_usize()?,
        }),
        tag => Err(PersistError::Malformed {
            section: d.section,
            detail: format!("unknown width-selection tag {tag}"),
        }),
    }
}

/// Encodes a [`ClientPayload`] (tag byte + variant fields).
pub fn put_payload(e: &mut Encoder, payload: &ClientPayload) {
    match payload {
        ClientPayload::SubModel {
            state,
            selection,
            num_blocks,
        } => {
            e.put_u8(0);
            put_state_dict(e, state);
            put_selection(e, *selection);
            e.put_usize(*num_blocks);
        }
        ClientPayload::Prototypes {
            state,
            sums,
            counts,
        } => {
            e.put_u8(1);
            put_state_dict(e, state);
            put_tensor(e, sums);
            put_f32_vec(e, counts);
        }
        ClientPayload::PublicLogits {
            state,
            probs,
            confidence,
        } => {
            e.put_u8(2);
            put_state_dict(e, state);
            put_tensor(e, probs);
            e.put_f32(*confidence);
        }
        ClientPayload::Empty => e.put_u8(3),
    }
}

/// Decodes a [`ClientPayload`] written by [`put_payload`].
///
/// # Errors
/// Returns [`PersistError::Malformed`] on an unknown tag; propagates the
/// field codec errors.
pub fn take_payload(d: &mut Decoder<'_>) -> PersistResult<ClientPayload> {
    match d.take_u8()? {
        0 => Ok(ClientPayload::SubModel {
            state: take_state_dict(d)?,
            selection: take_selection(d)?,
            num_blocks: d.take_usize()?,
        }),
        1 => Ok(ClientPayload::Prototypes {
            state: take_state_dict(d)?,
            sums: take_tensor(d)?,
            counts: take_f32_vec(d)?,
        }),
        2 => Ok(ClientPayload::PublicLogits {
            state: take_state_dict(d)?,
            probs: take_tensor(d)?,
            confidence: d.take_f32()?,
        }),
        3 => Ok(ClientPayload::Empty),
        tag => Err(PersistError::Malformed {
            section: d.section,
            detail: format!("unknown client-payload tag {tag}"),
        }),
    }
}

/// Encodes a [`ClientUpdate`] (identity, sample count, weight, payload).
pub fn put_update(e: &mut Encoder, update: &ClientUpdate) {
    e.put_usize(update.client);
    e.put_usize(update.num_samples);
    e.put_f32(update.staleness_weight);
    put_payload(e, &update.payload);
}

/// Decodes a [`ClientUpdate`] written by [`put_update`].
///
/// # Errors
/// Propagates the field codec errors.
pub fn take_update(d: &mut Decoder<'_>) -> PersistResult<ClientUpdate> {
    let client = d.take_usize()?;
    let num_samples = d.take_usize()?;
    let staleness_weight = d.take_f32()?;
    let payload = take_payload(d)?;
    Ok(ClientUpdate {
        client,
        num_samples,
        payload,
        staleness_weight,
    })
}

/// Encodes a [`ClientRoundStat`].
pub fn put_stat(e: &mut Encoder, stat: &ClientRoundStat) {
    e.put_usize(stat.client);
    e.put_usize(stat.round);
    e.put_f64(stat.dispatch_secs);
    e.put_f64(stat.arrival_secs);
    e.put_usize(stat.staleness);
    e.put_u64(stat.payload_bytes);
}

/// Decodes a [`ClientRoundStat`] written by [`put_stat`].
///
/// # Errors
/// Propagates the field codec errors.
pub fn take_stat(d: &mut Decoder<'_>) -> PersistResult<ClientRoundStat> {
    Ok(ClientRoundStat {
        client: d.take_usize()?,
        round: d.take_usize()?,
        dispatch_secs: d.take_f64()?,
        arrival_secs: d.take_f64()?,
        staleness: d.take_usize()?,
        payload_bytes: d.take_u64()?,
    })
}

/// Encodes an [`EngineConfig`] (every field, canonical order).
pub fn put_config(e: &mut Encoder, config: &EngineConfig) {
    e.put_usize(config.rounds);
    e.put_f64(config.sample_ratio);
    e.put_usize(config.eval_every);
    e.put_usize(config.stability_clients);
    match config.schedule {
        Schedule::Uniform => e.put_u8(0),
    }
    match config.parallelism {
        Parallelism::Sequential => e.put_u8(0),
        Parallelism::Threads { workers } => {
            e.put_u8(1);
            e.put_usize(workers);
        }
    }
    match config.execution {
        Execution::Synchronous => e.put_u8(0),
        Execution::AsyncBuffered {
            buffer_size,
            concurrency,
        } => {
            e.put_u8(1);
            e.put_usize(buffer_size);
            e.put_usize(concurrency);
        }
    }
    match config.staleness {
        Staleness::Sqrt => e.put_u8(0),
    }
    match config.max_staleness {
        None => e.put_bool(false),
        Some(bound) => {
            e.put_bool(true);
            e.put_usize(bound);
        }
    }
}

/// Decodes an [`EngineConfig`] written by [`put_config`].
///
/// # Errors
/// Returns [`PersistError::Malformed`] on any unknown variant tag.
pub fn take_config(d: &mut Decoder<'_>) -> PersistResult<EngineConfig> {
    let rounds = d.take_usize()?;
    let sample_ratio = d.take_f64()?;
    let eval_every = d.take_usize()?;
    let stability_clients = d.take_usize()?;
    let schedule = match d.take_u8()? {
        0 => Schedule::Uniform,
        tag => {
            return Err(PersistError::Malformed {
                section: d.section,
                detail: format!("unknown schedule tag {tag}"),
            })
        }
    };
    let parallelism = match d.take_u8()? {
        0 => Parallelism::Sequential,
        1 => Parallelism::Threads {
            workers: d.take_usize()?,
        },
        tag => {
            return Err(PersistError::Malformed {
                section: d.section,
                detail: format!("unknown parallelism tag {tag}"),
            })
        }
    };
    let execution = match d.take_u8()? {
        0 => Execution::Synchronous,
        1 => Execution::AsyncBuffered {
            buffer_size: d.take_usize()?,
            concurrency: d.take_usize()?,
        },
        tag => {
            return Err(PersistError::Malformed {
                section: d.section,
                detail: format!("unknown execution tag {tag}"),
            })
        }
    };
    let staleness = match d.take_u8()? {
        0 => Staleness::Sqrt,
        tag => {
            return Err(PersistError::Malformed {
                section: d.section,
                detail: format!("unknown staleness tag {tag}"),
            })
        }
    };
    let max_staleness = if d.take_bool()? {
        Some(d.take_usize()?)
    } else {
        None
    };
    Ok(EngineConfig {
        rounds,
        sample_ratio,
        eval_every,
        stability_clients,
        schedule,
        parallelism,
        execution,
        staleness,
        max_staleness,
    })
}

/// Encodes an [`AlgorithmState`] (state dicts, tensors, scalar slots).
pub fn put_algorithm_state(e: &mut Encoder, state: &AlgorithmState) {
    let (states, tensors, scalars) = state.parts();
    e.put_usize(states.len());
    for (name, sd) in states {
        e.put_str(name);
        put_state_dict(e, sd);
    }
    e.put_usize(tensors.len());
    for (name, tensor) in tensors {
        e.put_str(name);
        put_tensor(e, tensor);
    }
    e.put_usize(scalars.len());
    for (name, values) in scalars {
        e.put_str(name);
        put_f32_vec(e, values);
    }
}

/// Decodes an [`AlgorithmState`] written by [`put_algorithm_state`].
///
/// # Errors
/// Propagates the slot codec errors.
pub fn take_algorithm_state(d: &mut Decoder<'_>) -> PersistResult<AlgorithmState> {
    let states_len = d.take_len(16)?;
    let mut states = Vec::with_capacity(states_len);
    for _ in 0..states_len {
        let name = d.take_str()?;
        states.push((name, take_state_dict(d)?));
    }
    let tensors_len = d.take_len(12)?;
    let mut tensors = Vec::with_capacity(tensors_len);
    for _ in 0..tensors_len {
        let name = d.take_str()?;
        tensors.push((name, take_tensor(d)?));
    }
    let scalars_len = d.take_len(16)?;
    let mut scalars = Vec::with_capacity(scalars_len);
    for _ in 0..scalars_len {
        let name = d.take_str()?;
        scalars.push((name, take_f32_vec(d)?));
    }
    Ok(AlgorithmState::from_parts(states, tensors, scalars))
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wraps `payload` in a version-1 wire frame: magic, wire version, the
/// caller's `kind` discriminant, a length prefix, the payload, and an
/// FNV-1a checksum trailer.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — a programming error,
/// not an input-corruption mode (no value this workspace ships approaches
/// a gigabyte).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte bound",
        payload.len()
    );
    let mut e = Encoder::new();
    e.put_bytes(&WIRE_MAGIC);
    e.put_u32(WIRE_VERSION);
    e.put_u8(kind);
    e.put_u32(payload.len() as u32);
    e.put_bytes(payload);
    e.put_u64(fnv64(payload));
    e.into_bytes()
}

/// Decodes a [`FRAME_HEADER_LEN`]-byte frame header, validating magic,
/// wire version and the declared payload length; returns `(kind, length)`.
///
/// Socket readers use this to learn how many payload-plus-trailer bytes to
/// read next; [`check_frame_payload`] then verifies the checksum.
///
/// # Errors
/// Returns [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`] or [`PersistError::Malformed`].
pub fn decode_frame_header(header: &[u8]) -> PersistResult<(u8, usize)> {
    let mut d = Decoder::new(header, "frame");
    let magic = d.take_bytes(8)?;
    if magic != WIRE_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let version = d.take_u32()?;
    if version != WIRE_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    let kind = d.take_u8()?;
    let len = d.take_u32()? as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(PersistError::Malformed {
            section: "frame",
            detail: format!("declared payload of {len} bytes exceeds the frame bound"),
        });
    }
    Ok((kind, len))
}

/// Verifies a frame payload against its stored checksum trailer.
///
/// # Errors
/// Returns [`PersistError::ChecksumMismatch`] if the payload was corrupted
/// in flight.
pub fn check_frame_payload(payload: &[u8], stored: u64) -> PersistResult<()> {
    let computed = fnv64(payload);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch {
            section: "frame",
            stored,
            computed,
        });
    }
    Ok(())
}

/// Decodes one complete frame from a byte slice, requiring that the slice
/// contains exactly one frame (no trailing bytes); returns the kind and a
/// borrowed view of the verified payload.
///
/// # Errors
/// Every corruption mode maps to a typed [`PersistError`]: foreign magic,
/// future version, an over-long declared length, truncation, trailing
/// garbage, or a checksum mismatch.
pub fn decode_frame(bytes: &[u8]) -> PersistResult<(u8, &[u8])> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(PersistError::Truncated {
            section: "frame",
            needed: FRAME_HEADER_LEN,
            remaining: bytes.len(),
        });
    }
    let (kind, len) = decode_frame_header(&bytes[..FRAME_HEADER_LEN])?;
    let body = &bytes[FRAME_HEADER_LEN..];
    let expected = len + FRAME_TRAILER_LEN;
    if body.len() < expected {
        return Err(PersistError::Truncated {
            section: "frame",
            needed: expected,
            remaining: body.len(),
        });
    }
    if body.len() > expected {
        return Err(PersistError::TrailingData {
            bytes: body.len() - expected,
        });
    }
    let payload = &body[..len];
    let stored = u64::from_le_bytes(
        body[len..len + FRAME_TRAILER_LEN]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    check_frame_payload(payload, stored)?;
    Ok((kind, payload))
}

/// Encodes a standalone [`ClientUpdate`] as one self-describing frame —
/// the unit the distributed layer ships from worker to server.
pub fn encode_client_update(update: &ClientUpdate) -> Vec<u8> {
    let mut e = Encoder::new();
    put_update(&mut e, update);
    encode_frame(CLIENT_UPDATE_FRAME, &e.into_bytes())
}

/// Decodes a standalone [`ClientUpdate`] frame written by
/// [`encode_client_update`].
///
/// # Errors
/// Returns a typed [`PersistError`] on any corruption (magic, version,
/// checksum, truncation, trailing bytes, wrong frame kind, malformed
/// payload); never panics on untrusted input.
pub fn decode_client_update(bytes: &[u8]) -> PersistResult<ClientUpdate> {
    let (kind, payload) = decode_frame(bytes)?;
    if kind != CLIENT_UPDATE_FRAME {
        return Err(PersistError::Malformed {
            section: "frame",
            detail: format!("expected a client-update frame, found kind {kind:#04x}"),
        });
    }
    let mut d = Decoder::new(payload, "update");
    let update = take_update(&mut d)?;
    d.finish()?;
    Ok(update)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = b"the quick brown fox";
        let bytes = encode_frame(0x42, payload);
        assert_eq!(
            bytes.len(),
            FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN
        );
        let (kind, body) = decode_frame(&bytes).unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(body, payload);

        // Empty payloads are legal frames.
        let empty = encode_frame(0x01, &[]);
        let (kind, body) = decode_frame(&empty).unwrap();
        assert_eq!(kind, 0x01);
        assert!(body.is_empty());
    }

    #[test]
    fn frame_header_rejects_foreign_and_future_bytes() {
        let mut bytes = encode_frame(0x01, b"x");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bytes),
            Err(PersistError::BadMagic { .. })
        ));

        let mut bytes = encode_frame(0x01, b"x");
        bytes[8] = 0xEE; // wire version low byte
        assert!(matches!(
            decode_frame(&bytes),
            Err(PersistError::UnsupportedVersion { found, .. }) if found != WIRE_VERSION
        ));
    }

    #[test]
    fn frame_length_and_checksum_corruption_is_typed() {
        let good = encode_frame(0x07, b"payload bytes");

        // Truncation anywhere is Truncated.
        for cut in 0..good.len() {
            assert!(matches!(
                decode_frame(&good[..cut]),
                Err(PersistError::Truncated { .. })
            ));
        }

        // Trailing garbage is TrailingData.
        let mut long = good.clone();
        long.push(0xAB);
        assert!(matches!(
            decode_frame(&long),
            Err(PersistError::TrailingData { bytes: 1 })
        ));

        // A flipped payload bit is a checksum mismatch.
        let mut corrupt = good.clone();
        corrupt[FRAME_HEADER_LEN + 3] ^= 0x10;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(PersistError::ChecksumMismatch {
                section: "frame",
                ..
            })
        ));

        // A flipped checksum bit likewise.
        let mut corrupt = good;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(PersistError::ChecksumMismatch {
                section: "frame",
                ..
            })
        ));
    }

    #[test]
    fn oversized_declared_payloads_cannot_force_allocation() {
        let mut e = Encoder::new();
        e.put_bytes(&WIRE_MAGIC);
        e.put_u32(WIRE_VERSION);
        e.put_u8(0x01);
        e.put_u32(u32::MAX);
        let header = e.into_bytes();
        assert!(matches!(
            decode_frame_header(&header),
            Err(PersistError::Malformed {
                section: "frame",
                ..
            })
        ));
    }

    #[test]
    fn standalone_update_frames_round_trip() {
        let update = ClientUpdate {
            client: 3,
            num_samples: 17,
            staleness_weight: 0.5,
            payload: ClientPayload::Empty,
        };
        let bytes = encode_client_update(&update);
        let back = decode_client_update(&bytes).unwrap();
        assert_eq!(back.client, update.client);
        assert_eq!(back.num_samples, update.num_samples);
        assert_eq!(
            back.staleness_weight.to_bits(),
            update.staleness_weight.to_bits()
        );
        // Encoding is canonical, so the round trip reproduces the bytes.
        assert_eq!(encode_client_update(&back), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_usize(42);
        e.put_bool(true);
        e.put_bool(false);
        e.put_f32(-0.0);
        e.put_f64(f64::NAN);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "test");
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.take_usize().unwrap(), 42);
        assert!(d.take_bool().unwrap());
        assert!(!d.take_bool().unwrap());
        // Exact bit patterns survive, including -0.0 and NaN.
        assert_eq!(d.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(d.take_str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn decoder_overruns_are_typed_truncations() {
        let mut d = Decoder::new(&[1, 2], "t");
        assert!(matches!(
            d.take_u64(),
            Err(PersistError::Truncated {
                section: "t",
                needed: 8,
                remaining: 2
            })
        ));
        // A huge declared length cannot force an allocation.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        assert!(matches!(d.take_len(4), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn huge_declared_tensor_extent_is_a_typed_truncation_not_an_overflow_panic() {
        // A rank-1 tensor claiming 2^62 elements: the element count itself
        // fits a usize, but the byte count (×4) overflows — both the guard
        // and the error construction must saturate instead of panicking.
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u64(1u64 << 62);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        assert!(matches!(
            take_tensor(&mut d),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_bools_and_strings_are_malformed() {
        let mut d = Decoder::new(&[2], "t");
        assert!(matches!(
            d.take_bool(),
            Err(PersistError::Malformed { section: "t", .. })
        ));
        let mut e = Encoder::new();
        e.put_usize(2);
        e.put_u8(0xFF);
        e.put_u8(0xFE);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        assert!(matches!(d.take_str(), Err(PersistError::Malformed { .. })));
    }

    #[test]
    fn tensors_and_state_dicts_round_trip_bit_exactly() {
        let t = Tensor::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e-20], &[2, 2]).unwrap();
        let mut e = Encoder::new();
        put_tensor(&mut e, &t);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        let back = take_tensor(&mut d).unwrap();
        assert_eq!(back.dims(), t.dims());
        for (a, b) in back.as_slice().iter().zip(t.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut sd = StateDict::new();
        sd.insert("w", t.clone());
        sd.insert("b", Tensor::zeros(&[3]));
        let mut e = Encoder::new();
        put_state_dict(&mut e, &sd);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        assert_eq!(take_state_dict(&mut d).unwrap(), sd);
        d.finish().unwrap();
    }

    #[test]
    fn payload_variants_round_trip() {
        let mut sd = StateDict::new();
        sd.insert("x", Tensor::ones(&[2]));
        let payloads = [
            ClientPayload::SubModel {
                state: sd.clone(),
                selection: WidthSelection::Rolling { shift: 9 },
                num_blocks: 4,
            },
            ClientPayload::Prototypes {
                state: sd.clone(),
                sums: Tensor::ones(&[2, 3]),
                counts: vec![1.0, 0.0],
            },
            ClientPayload::PublicLogits {
                state: sd,
                probs: Tensor::full(&[2, 2], 0.25),
                confidence: 0.75,
            },
            ClientPayload::Empty,
        ];
        for payload in payloads {
            let mut e = Encoder::new();
            put_payload(&mut e, &payload);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes, "t");
            let back = take_payload(&mut d).unwrap();
            d.finish().unwrap();
            assert_eq!(back.kind(), payload.kind());
            assert_eq!(back.payload_bytes(), payload.payload_bytes());
        }
    }

    #[test]
    fn engine_configs_round_trip_through_all_variants() {
        let configs = [
            EngineConfig::default(),
            EngineConfig {
                rounds: 1000,
                sample_ratio: 0.25,
                eval_every: 7,
                stability_clients: 3,
                schedule: Schedule::Uniform,
                parallelism: Parallelism::Threads { workers: 8 },
                execution: Execution::AsyncBuffered {
                    buffer_size: 16,
                    concurrency: 64,
                },
                staleness: Staleness::Sqrt,
                max_staleness: Some(12),
            },
        ];
        for config in configs {
            let mut e = Encoder::new();
            put_config(&mut e, &config);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes, "t");
            assert_eq!(take_config(&mut d).unwrap(), config);
            d.finish().unwrap();
        }
    }

    #[test]
    fn retired_schedule_and_staleness_tags_are_refused() {
        // The schedule tag is the fifth field and the staleness tag the
        // last-but-one; earlier codecs wrote tags 1–5 and 1–2 there, with
        // variant fields after them.
        let mut e = Encoder::new();
        put_config(&mut e, &EngineConfig::default());
        let bytes = e.into_bytes();
        let schedule_at = 8 * 4;
        let staleness_at = bytes.len() - 2;
        assert_eq!((bytes[schedule_at], bytes[staleness_at]), (0, 0));
        let retired = (1..=5u8)
            .map(|tag| (schedule_at, tag, "schedule"))
            .chain((1..=2u8).map(|tag| (staleness_at, tag, "staleness")));
        for (at, tag, what) in retired {
            let mut bytes = bytes.clone();
            bytes[at] = tag;
            let mut d = Decoder::new(&bytes, "config");
            match take_config(&mut d) {
                Err(PersistError::Malformed { detail, .. }) => {
                    assert_eq!(detail, format!("unknown {what} tag {tag}"));
                }
                other => panic!("{what} tag {tag}: {other:?}"),
            }
        }
    }
}
