//! Durable on-disk checkpoints: a self-describing, versioned, checksummed
//! binary codec for [`Checkpoint`] that needs no external serde.
//!
//! The in-memory [`Session::checkpoint`](crate::Session::checkpoint) made
//! mid-run snapshots bit-exact, but a snapshot that dies with its process
//! cannot save a 1000-round paper run from interruption. This module turns
//! the snapshot into a durable artifact with the same discipline short-block
//! codeword analysis applies to channel codes: explicit framing, a format
//! version, a configuration fingerprint, and a checksum over every section,
//! so any corruption — truncation, a flipped bit, a spliced header — is
//! detected and reported as a typed [`PersistError`] instead of silently
//! restoring a wrong run.
//!
//! The byte-level machinery — the [`Encoder`]/[`Decoder`] primitives, the
//! [`PersistError`] taxonomy and the per-type codecs — lives in the shared
//! [`wire`](crate::wire) module, where the distributed execution layer
//! (`mhfl-net`) speaks the same language; this module owns the checkpoint
//! *file* format built on top of it.
//!
//! # File layout (format version 2)
//!
//! ```text
//! magic            8 bytes   b"MHFLCKP1"
//! format version   u32 LE
//! config fingerprint u64 LE  FNV-1a over the CONFIG section payload
//! section count    u32 LE
//! per section:
//!   id             u8        see the section table below
//!   payload length u64 LE
//!   payload        length bytes
//!   checksum       u64 LE    FNV-1a over the payload
//! ```
//!
//! | id | section    | contents |
//! |----|------------|----------|
//! | 1  | `config`   | [`EngineConfig`](crate::EngineConfig), algorithm name, client count |
//! | 2  | `algorithm`| [`AlgorithmState`](crate::AlgorithmState) — every state dict / tensor / scalar slot |
//! | 3  | `rng`      | [`RngState`] — the xoshiro256++ words, seed, zero-init flag |
//! | 4  | `report`   | [`MetricsReport`] accumulated so far |
//! | 5  | `driver`   | clock, round version, dispatch seq, sparse in-flight id list, sync-round state |
//! | 6  | `arrivals` | the in-flight arrival heap (computed `ClientUpdate`s included) |
//! | 7  | `buffer`   | the aggregation buffer |
//! | 8  | `pending`  | telemetry accumulated since the last evaluation point |
//! | 9  | `queue`    | emitted-but-unconsumed [`RoundEvent`]s |
//!
//! All integers are little-endian; every `f32`/`f64` is stored as its exact
//! IEEE-754 bit pattern (`to_bits`), so a decoded checkpoint resumes
//! bit-identically to the uninterrupted run. Encoding is canonical: equal
//! checkpoints produce equal bytes, and `encode(decode(bytes)) == bytes` for
//! any version-2 file this module wrote — the property the committed
//! format-stability fixture pins.
//!
//! Exactly one version is read and written. Version 2 stores the in-flight
//! set in the `driver` section as a sorted sparse id list (O(active
//! clients)); version 1 wrote one flag per client plus a popcount
//! (O(population) — a non-starter for million-client federations) and is
//! rejected as [`PersistError::UnsupportedVersion`], like any other version.
//!
//! # Entry points
//!
//! * [`Session::save`](crate::Session::save) — one-call save of a live
//!   session; [`Session::restore`](crate::Session::restore) rebuilds one
//!   from a decoded [`Checkpoint`], and `pracmhbench_core`'s
//!   `ExperimentSpec::resume_from` is the one call that resumes a spec's
//!   run from a file (read, engine-configuration check, restore, knobs);
//! * [`write_checkpoint`] / [`read_checkpoint`] — file I/O with
//!   atomic tmp-file-then-rename writes;
//! * [`encode_checkpoint`] / [`decode_checkpoint`] — the raw byte codec;
//! * [`CheckpointObserver`] — auto-saves every N rounds from inside the
//!   session event loop.

use std::path::{Path, PathBuf};

use mhfl_tensor::RngState;

use crate::session::{Arrival, Buffered};
use crate::wire::{
    fnv64, put_algorithm_state, put_config, put_f32_vec, put_stat, put_update,
    take_algorithm_state, take_config, take_f32_vec, take_stat, take_update,
};
use crate::{Checkpoint, MetricsReport, Observer, RoundEvent, RoundRecord};

pub use crate::wire::{Decoder, Encoder, PersistError, PersistResult};

/// The 8-byte file magic ("MHFL checkpoint, line 1 of the format family").
pub const MAGIC: [u8; 8] = *b"MHFLCKP1";

/// The one on-disk format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// Every section of a checkpoint, in canonical file order.
const SECTIONS: [(u8, &str); 9] = [
    (1, "config"),
    (2, "algorithm"),
    (3, "rng"),
    (4, "report"),
    (5, "driver"),
    (6, "arrivals"),
    (7, "buffer"),
    (8, "pending"),
    (9, "queue"),
];

fn section_name(id: u8) -> Option<&'static str> {
    SECTIONS.iter().find(|(i, _)| *i == id).map(|(_, n)| *n)
}

// ---------------------------------------------------------------------------
// Checkpoint-specific type codecs
// ---------------------------------------------------------------------------

fn put_record(e: &mut Encoder, record: &RoundRecord) {
    e.put_usize(record.round);
    e.put_f64(record.sim_time_secs);
    e.put_f32(record.global_accuracy);
    put_f32_vec(e, &record.per_client_accuracy);
    e.put_usize(record.client_stats.len());
    for stat in &record.client_stats {
        put_stat(e, stat);
    }
}

fn take_record(d: &mut Decoder<'_>) -> PersistResult<RoundRecord> {
    let round = d.take_usize()?;
    let sim_time_secs = d.take_f64()?;
    let global_accuracy = d.take_f32()?;
    let per_client_accuracy = take_f32_vec(d)?;
    let stats_len = d.take_len(48)?;
    let mut client_stats = Vec::with_capacity(stats_len);
    for _ in 0..stats_len {
        client_stats.push(take_stat(d)?);
    }
    Ok(RoundRecord {
        round,
        sim_time_secs,
        global_accuracy,
        per_client_accuracy,
        client_stats,
    })
}

fn put_report(e: &mut Encoder, report: &MetricsReport) {
    e.put_str(&report.algorithm);
    e.put_usize(report.dropped_updates());
    e.put_usize(report.records.len());
    for record in &report.records {
        put_record(e, record);
    }
}

fn take_report(d: &mut Decoder<'_>) -> PersistResult<MetricsReport> {
    let algorithm = d.take_str()?;
    let dropped = d.take_usize()?;
    let count = d.take_len(24)?;
    let mut report = MetricsReport::new(algorithm);
    report.set_dropped_updates(dropped);
    for _ in 0..count {
        report.push(take_record(d)?);
    }
    Ok(report)
}

fn put_event(e: &mut Encoder, event: &RoundEvent) {
    match event {
        RoundEvent::RoundStarted {
            round,
            sim_time_secs,
        } => {
            e.put_u8(0);
            e.put_usize(*round);
            e.put_f64(*sim_time_secs);
        }
        RoundEvent::ClientDispatched {
            round,
            client,
            sim_time_secs,
        } => {
            e.put_u8(1);
            e.put_usize(*round);
            e.put_usize(*client);
            e.put_f64(*sim_time_secs);
        }
        RoundEvent::UpdateArrived {
            round,
            client,
            sim_time_secs,
            staleness,
        } => {
            e.put_u8(2);
            e.put_usize(*round);
            e.put_usize(*client);
            e.put_f64(*sim_time_secs);
            e.put_usize(*staleness);
        }
        RoundEvent::UpdateDropped {
            round,
            client,
            sim_time_secs,
            staleness,
        } => {
            e.put_u8(3);
            e.put_usize(*round);
            e.put_usize(*client);
            e.put_f64(*sim_time_secs);
            e.put_usize(*staleness);
        }
        RoundEvent::Aggregated {
            round,
            sim_time_secs,
            num_updates,
        } => {
            e.put_u8(4);
            e.put_usize(*round);
            e.put_f64(*sim_time_secs);
            e.put_usize(*num_updates);
        }
        RoundEvent::RoundCompleted {
            round,
            sim_time_secs,
            record,
        } => {
            e.put_u8(5);
            e.put_usize(*round);
            e.put_f64(*sim_time_secs);
            match record {
                Some(record) => {
                    e.put_bool(true);
                    put_record(e, record);
                }
                None => e.put_bool(false),
            }
        }
        RoundEvent::RunCompleted { report } => {
            e.put_u8(6);
            put_report(e, report);
        }
        // Tag 7 is additive: fixtures written before churn existed contain
        // no such events, so such files keep decoding unchanged.
        RoundEvent::ClientChurned {
            round,
            client,
            sim_time_secs,
        } => {
            e.put_u8(7);
            e.put_usize(*round);
            e.put_usize(*client);
            e.put_f64(*sim_time_secs);
        }
    }
}

fn take_event(d: &mut Decoder<'_>) -> PersistResult<RoundEvent> {
    match d.take_u8()? {
        0 => Ok(RoundEvent::RoundStarted {
            round: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
        }),
        1 => Ok(RoundEvent::ClientDispatched {
            round: d.take_usize()?,
            client: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
        }),
        2 => Ok(RoundEvent::UpdateArrived {
            round: d.take_usize()?,
            client: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
            staleness: d.take_usize()?,
        }),
        3 => Ok(RoundEvent::UpdateDropped {
            round: d.take_usize()?,
            client: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
            staleness: d.take_usize()?,
        }),
        4 => Ok(RoundEvent::Aggregated {
            round: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
            num_updates: d.take_usize()?,
        }),
        5 => Ok(RoundEvent::RoundCompleted {
            round: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
            record: if d.take_bool()? {
                Some(take_record(d)?)
            } else {
                None
            },
        }),
        6 => Ok(RoundEvent::RunCompleted {
            report: take_report(d)?,
        }),
        7 => Ok(RoundEvent::ClientChurned {
            round: d.take_usize()?,
            client: d.take_usize()?,
            sim_time_secs: d.take_f64()?,
        }),
        tag => Err(PersistError::Malformed {
            section: d.section(),
            detail: format!("unknown round-event tag {tag}"),
        }),
    }
}

fn put_arrival(e: &mut Encoder, arrival: &Arrival) {
    e.put_f64(arrival.time);
    e.put_u64(arrival.seq);
    e.put_f64(arrival.dispatched_at);
    e.put_usize(arrival.dispatched_version);
    put_update(e, &arrival.update);
}

fn take_arrival(d: &mut Decoder<'_>) -> PersistResult<Arrival> {
    Ok(Arrival {
        time: d.take_f64()?,
        seq: d.take_u64()?,
        dispatched_at: d.take_f64()?,
        dispatched_version: d.take_usize()?,
        update: take_update(d)?,
    })
}

fn put_buffered(e: &mut Encoder, buffered: &Buffered) {
    e.put_u64(buffered.seq);
    put_update(e, &buffered.update);
    put_stat(e, &buffered.stat);
}

fn take_buffered(d: &mut Decoder<'_>) -> PersistResult<Buffered> {
    Ok(Buffered {
        seq: d.take_u64()?,
        update: take_update(d)?,
        stat: take_stat(d)?,
    })
}

// ---------------------------------------------------------------------------
// Whole-checkpoint codec
// ---------------------------------------------------------------------------

fn encode_config_section(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut e = Encoder::new();
    put_config(&mut e, &checkpoint.config);
    e.put_str(&checkpoint.algorithm_name);
    e.put_usize(checkpoint.num_clients);
    e.into_bytes()
}

/// The configuration fingerprint a checkpoint would carry in its file
/// header: an FNV-1a hash of the encoded engine configuration, algorithm
/// name and client count. Two checkpoints from the same experiment setup
/// share a fingerprint; resuming against the wrong setup is rejected before
/// any state is deserialised.
pub fn config_fingerprint(checkpoint: &Checkpoint) -> u64 {
    fnv64(&encode_config_section(checkpoint))
}

/// Encodes a [`Checkpoint`] into the version-2 binary format.
///
/// Encoding is canonical: equal checkpoints yield equal bytes (the arrival
/// heap is already stored in canonical pop order by
/// [`Session::checkpoint`](crate::Session::checkpoint)).
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let config = encode_config_section(checkpoint);
    let fingerprint = fnv64(&config);

    let algorithm = {
        let mut e = Encoder::new();
        put_algorithm_state(&mut e, &checkpoint.algorithm);
        e.into_bytes()
    };
    let rng = {
        let mut e = Encoder::new();
        for word in checkpoint.rng.words {
            e.put_u64(word);
        }
        e.put_u64(checkpoint.rng.seed);
        e.put_bool(checkpoint.rng.zero_init);
        e.into_bytes()
    };
    let report = {
        let mut e = Encoder::new();
        put_report(&mut e, &checkpoint.report);
        e.into_bytes()
    };
    let driver = {
        let mut e = Encoder::new();
        e.put_f64(checkpoint.sim_time);
        e.put_usize(checkpoint.version);
        e.put_u64(checkpoint.seq);
        e.put_bool(checkpoint.started);
        e.put_bool(checkpoint.finished);
        // Sparse in-flight set: a sorted id list, O(active clients) bytes
        // regardless of population size.
        e.put_usize(checkpoint.in_flight.len());
        for &id in &checkpoint.in_flight {
            e.put_usize(id);
        }
        e.put_usize(checkpoint.idle_advances);
        e.put_f64(checkpoint.sync_round_end);
        e.put_usize(checkpoint.sync_expected);
        e.put_bool(checkpoint.sync_open);
        e.into_bytes()
    };
    let arrivals = {
        let mut e = Encoder::new();
        e.put_usize(checkpoint.arrivals.len());
        for arrival in &checkpoint.arrivals {
            put_arrival(&mut e, arrival);
        }
        e.into_bytes()
    };
    let buffer = {
        let mut e = Encoder::new();
        e.put_usize(checkpoint.buffer.len());
        for buffered in &checkpoint.buffer {
            put_buffered(&mut e, buffered);
        }
        e.into_bytes()
    };
    let pending = {
        let mut e = Encoder::new();
        e.put_usize(checkpoint.pending_stats.len());
        for stat in &checkpoint.pending_stats {
            put_stat(&mut e, stat);
        }
        e.into_bytes()
    };
    let queue = {
        let mut e = Encoder::new();
        e.put_usize(checkpoint.queue.len());
        for event in &checkpoint.queue {
            put_event(&mut e, event);
        }
        e.into_bytes()
    };

    let sections: [(u8, &[u8]); 9] = [
        (1, &config),
        (2, &algorithm),
        (3, &rng),
        (4, &report),
        (5, &driver),
        (6, &arrivals),
        (7, &buffer),
        (8, &pending),
        (9, &queue),
    ];

    let mut out = Encoder::new();
    out.put_bytes(&MAGIC);
    out.put_u32(FORMAT_VERSION);
    out.put_u64(fingerprint);
    out.put_u32(sections.len() as u32);
    for (id, payload) in sections {
        out.put_u8(id);
        out.put_usize(payload.len());
        out.put_bytes(payload);
        out.put_u64(fnv64(payload));
    }
    out.into_bytes()
}

/// Decodes a checkpoint from bytes, verifying the
/// magic, format version, every section checksum and the configuration
/// fingerprint before reconstructing any state.
///
/// # Errors
/// Every corruption mode maps to a typed [`PersistError`]; this function
/// never panics on untrusted input and never returns a checkpoint that
/// differs from the one encoded.
pub fn decode_checkpoint(bytes: &[u8]) -> PersistResult<Checkpoint> {
    let mut frame = Decoder::new(bytes, "header");
    let magic = frame.take_bytes(8).map_err(|_| PersistError::Truncated {
        section: "header",
        needed: 8,
        remaining: bytes.len(),
    })?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let format_version = frame.take_u32()?;
    if format_version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: format_version,
            supported: FORMAT_VERSION,
        });
    }
    let fingerprint = frame.take_u64()?;
    let section_count = frame.take_u32()? as usize;
    if section_count != SECTIONS.len() {
        return Err(PersistError::Malformed {
            section: "header",
            detail: format!(
                "checkpoints have {} sections, file declares {section_count}",
                SECTIONS.len()
            ),
        });
    }

    // Read the section table, verifying each checksum as it streams past.
    let mut payloads: Vec<Option<&[u8]>> = vec![None; SECTIONS.len()];
    frame.set_section("frame");
    for _ in 0..section_count {
        let id = frame.take_u8()?;
        let Some(name) = section_name(id) else {
            return Err(PersistError::Malformed {
                section: "frame",
                detail: format!("unknown section id {id}"),
            });
        };
        frame.set_section(name);
        let len = frame.take_len(1)?;
        let payload = frame.take_bytes(len)?;
        let stored = frame.take_u64()?;
        let computed = fnv64(payload);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch {
                section: name,
                stored,
                computed,
            });
        }
        let slot = SECTIONS
            .iter()
            .position(|(i, _)| *i == id)
            .expect("known id");
        if payloads[slot].is_some() {
            return Err(PersistError::Malformed {
                section: name,
                detail: "duplicate section".into(),
            });
        }
        payloads[slot] = Some(payload);
        frame.set_section("frame");
    }
    if frame.remaining() != 0 {
        return Err(PersistError::TrailingData {
            bytes: frame.remaining(),
        });
    }
    let section = |slot: usize| -> PersistResult<&[u8]> {
        payloads[slot].ok_or(PersistError::Malformed {
            section: SECTIONS[slot].1,
            detail: "section missing".into(),
        })
    };

    // Config first: its hash must match the header fingerprint before any
    // other state is trusted.
    let config_bytes = section(0)?;
    let computed = fnv64(config_bytes);
    if computed != fingerprint {
        return Err(PersistError::FingerprintMismatch {
            stored: fingerprint,
            computed,
        });
    }
    let mut d = Decoder::new(config_bytes, "config");
    let config = take_config(&mut d)?;
    let algorithm_name = d.take_str()?;
    let num_clients = d.take_usize()?;
    d.finish()?;

    let mut d = Decoder::new(section(1)?, "algorithm");
    let algorithm = take_algorithm_state(&mut d)?;
    d.finish()?;

    let mut d = Decoder::new(section(2)?, "rng");
    let rng = RngState {
        words: [d.take_u64()?, d.take_u64()?, d.take_u64()?, d.take_u64()?],
        seed: d.take_u64()?,
        zero_init: d.take_bool()?,
    };
    d.finish()?;

    let mut d = Decoder::new(section(3)?, "report");
    let report = take_report(&mut d)?;
    d.finish()?;

    let mut d = Decoder::new(section(4)?, "driver");
    let sim_time = d.take_f64()?;
    let version = d.take_usize()?;
    let seq = d.take_u64()?;
    let started = d.take_bool()?;
    let finished = d.take_bool()?;
    // The in-flight set: a sorted sparse id list.
    let in_flight_len = d.take_len(8)?;
    if in_flight_len > num_clients {
        return Err(PersistError::Malformed {
            section: "driver",
            detail: format!("{in_flight_len} clients in flight out of {num_clients}"),
        });
    }
    let mut in_flight = Vec::with_capacity(in_flight_len);
    for _ in 0..in_flight_len {
        in_flight.push(d.take_usize()?);
    }
    if !in_flight.windows(2).all(|w| w[0] < w[1]) {
        return Err(PersistError::Malformed {
            section: "driver",
            detail: "in-flight ids are not strictly ascending".into(),
        });
    }
    if in_flight.last().is_some_and(|&last| last >= num_clients) {
        return Err(PersistError::Malformed {
            section: "driver",
            detail: format!("in-flight id out of range for {num_clients} clients"),
        });
    }
    let idle_advances = d.take_usize()?;
    let sync_round_end = d.take_f64()?;
    let sync_expected = d.take_usize()?;
    let sync_open = d.take_bool()?;
    d.finish()?;

    let mut d = Decoder::new(section(5)?, "arrivals");
    let arrivals_len = d.take_len(32)?;
    let mut arrivals = Vec::with_capacity(arrivals_len);
    for _ in 0..arrivals_len {
        arrivals.push(take_arrival(&mut d)?);
    }
    d.finish()?;

    let mut d = Decoder::new(section(6)?, "buffer");
    let buffer_len = d.take_len(16)?;
    let mut buffer = Vec::with_capacity(buffer_len);
    for _ in 0..buffer_len {
        buffer.push(take_buffered(&mut d)?);
    }
    d.finish()?;

    let mut d = Decoder::new(section(7)?, "pending");
    let pending_len = d.take_len(48)?;
    let mut pending_stats = Vec::with_capacity(pending_len);
    for _ in 0..pending_len {
        pending_stats.push(take_stat(&mut d)?);
    }
    d.finish()?;

    let mut d = Decoder::new(section(8)?, "queue");
    let queue_len = d.take_len(1)?;
    let mut queue = Vec::with_capacity(queue_len);
    for _ in 0..queue_len {
        queue.push(take_event(&mut d)?);
    }
    d.finish()?;

    Ok(Checkpoint {
        config,
        algorithm_name,
        algorithm,
        rng,
        report,
        sim_time,
        version,
        seq,
        started,
        finished,
        num_clients,
        in_flight,
        arrivals,
        buffer,
        pending_stats,
        idle_advances,
        sync_round_end,
        sync_expected,
        sync_open,
        queue,
    })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

fn io_error(op: &'static str, path: &Path, e: std::io::Error) -> PersistError {
    PersistError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Writes a checkpoint to `path` atomically: the bytes are written to a
/// sibling `<name>.tmp` file, fsynced, and renamed into place, so a crash
/// mid-write — including a power loss after the rename is journaled but
/// before data blocks would otherwise have hit disk — can never leave a
/// truncated checkpoint under the final name.
///
/// # Errors
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn write_checkpoint(path: impl AsRef<Path>, checkpoint: &Checkpoint) -> PersistResult<()> {
    use std::io::Write as _;

    let path = path.as_ref();
    let bytes = encode_checkpoint(checkpoint);
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint".into());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_error("write", &tmp, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_error("write", &tmp, e))?;
        // The durability half of the atomicity claim: the tmp file's data
        // must be on disk before the rename makes it the checkpoint.
        file.sync_all().map_err(|e| io_error("sync", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_error("rename", path, e))?;
    // Best-effort fsync of the parent directory so the rename itself is
    // durable; not every platform allows opening a directory, so failures
    // here are ignored (the file contents are already safe either way).
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads and decodes a checkpoint from `path`.
///
/// # Errors
/// Returns [`PersistError::Io`] on filesystem failure and the full
/// [`decode_checkpoint`] error spectrum on corruption.
pub fn read_checkpoint(path: impl AsRef<Path>) -> PersistResult<Checkpoint> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_error("read", path, e))?;
    decode_checkpoint(&bytes)
}

// ---------------------------------------------------------------------------
// Auto-save observer
// ---------------------------------------------------------------------------

/// An [`Observer`] that asks the session to save a durable checkpoint every
/// `every` completed rounds (and, by default, once more when the run
/// completes), so a long run leaves a fresh resume point behind without the
/// driving code checkpointing by hand.
///
/// The save itself is performed by the [`Session`](crate::Session) at the
/// next event boundary via [`Session::save`](crate::Session::save) — atomic
/// tmp-file-then-rename, the checkpoint state exactly what
/// [`Session::checkpoint`](crate::Session::checkpoint) would capture there —
/// so a run resumed from the file replays bit-identically.
///
/// ```ignore
/// session.observe(Box::new(CheckpointObserver::every("run.ckpt", 25)));
/// let report = session.drain()?; // saves at rounds 25, 50, ... and at the end
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointObserver {
    path: PathBuf,
    every: usize,
    save_on_completion: bool,
    pending: bool,
    requested: usize,
}

impl CheckpointObserver {
    /// Saves to `path` every `every` completed rounds (clamped to at least
    /// one) and once more when the run completes.
    pub fn every(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointObserver {
            path: path.into(),
            every: every.max(1),
            save_on_completion: true,
            pending: false,
            requested: 0,
        }
    }

    /// Disables (or re-enables) the extra save on run completion.
    #[must_use]
    pub fn save_on_completion(mut self, yes: bool) -> Self {
        self.save_on_completion = yes;
        self
    }

    /// The path this observer saves to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of saves requested so far.
    pub fn saves_requested(&self) -> usize {
        self.requested
    }
}

impl Observer for CheckpointObserver {
    fn on_event(&mut self, event: &RoundEvent) {
        match event {
            RoundEvent::RoundCompleted { round, .. } if round.is_multiple_of(self.every) => {
                self.pending = true;
            }
            RoundEvent::RunCompleted { .. } if self.save_on_completion => {
                self.pending = true;
            }
            _ => {}
        }
    }

    fn save_request(&mut self) -> Option<PathBuf> {
        if self.pending {
            self.pending = false;
            self.requested += 1;
            Some(self.path.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_observer_requests_on_cadence_and_completion() {
        let mut obs = CheckpointObserver::every("/tmp/x.ckpt", 2);
        assert!(obs.save_request().is_none());
        let completed = |round| RoundEvent::RoundCompleted {
            round,
            sim_time_secs: 0.0,
            record: None,
        };
        obs.on_event(&completed(1));
        assert!(obs.save_request().is_none());
        obs.on_event(&completed(2));
        assert_eq!(
            obs.save_request().as_deref(),
            Some(Path::new("/tmp/x.ckpt"))
        );
        assert!(obs.save_request().is_none(), "request is one-shot");
        obs.on_event(&RoundEvent::RunCompleted {
            report: MetricsReport::new("X"),
        });
        assert!(obs.save_request().is_some());
        assert_eq!(obs.saves_requested(), 2);

        let mut no_final = CheckpointObserver::every("/tmp/y.ckpt", 1).save_on_completion(false);
        no_final.on_event(&RoundEvent::RunCompleted {
            report: MetricsReport::new("X"),
        });
        assert!(no_final.save_request().is_none());
    }

    #[test]
    fn client_churned_event_round_trips_as_tag_7() {
        let event = RoundEvent::ClientChurned {
            round: 3,
            client: 9,
            sim_time_secs: 12.5,
        };
        let mut e = Encoder::new();
        put_event(&mut e, &event);
        let bytes = e.into_bytes();
        // Tag 7 is additive after the seed tag set 0-6: fixtures written
        // before churn existed never contain it, so they keep decoding.
        assert_eq!(bytes[0], 7);
        let mut d = Decoder::new(&bytes, "queue");
        let decoded = take_event(&mut d).unwrap();
        assert!(matches!(
            decoded,
            RoundEvent::ClientChurned {
                round: 3,
                client: 9,
                sim_time_secs,
            } if sim_time_secs == 12.5
        ));
    }
}
