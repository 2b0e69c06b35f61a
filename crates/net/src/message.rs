//! The server ⇄ worker message set and its frame codec.
//!
//! Every message is one [`mhfl_fl::wire`] frame: the 8-byte wire magic, the
//! wire version, a kind byte, a `u32` payload length, the payload encoded
//! with the shared [`Encoder`], and an FNV-1a checksum trailer. The frame
//! layer already rejects foreign bytes, future versions, truncation and
//! bit flips with typed errors; this module only assigns kinds and payload
//! shapes.
//!
//! | kind | message       | payload |
//! |------|---------------|---------|
//! | 0x01 | `Hello`       | protocol `u32`, spec fingerprint `u64`, worker name |
//! | 0x02 | `AssignShard` | worker index, worker count, client count |
//! | 0x03 | `Dispatch`    | round, client ids, [`AlgorithmState`] restricted to those clients (the frame allows none; workers refuse it), the server's thread count ([`Parallelism`]) |
//! | 0x04 | `UpdateReady` | round, one [`ClientUpdate`] |
//! | 0x05 | `Heartbeat`   | sequence number `u64` |
//! | 0x06 | `Abort`       | human-readable reason |
//! | 0x07 | `Shutdown`    | (empty) |

use std::io::{Read, Write};

use mhfl_fl::wire::{
    check_frame_payload, decode_frame_header, encode_frame, put_algorithm_state, put_update,
    take_algorithm_state, take_update, Decoder, Encoder, PersistError, FRAME_HEADER_LEN,
    FRAME_TRAILER_LEN, WIRE_VERSION,
};
use mhfl_fl::{AlgorithmState, ClientUpdate, Parallelism};

use crate::error::{io_err, NetError, NetResult};

/// The protocol version spoken by this build — currently the wire-format
/// version itself, re-checked explicitly in the [`Message::Hello`]
/// handshake so a future protocol bump can outpace the frame format.
pub const PROTOCOL_VERSION: u32 = WIRE_VERSION;

const MSG_HELLO: u8 = 0x01;
const MSG_ASSIGN_SHARD: u8 = 0x02;
const MSG_DISPATCH: u8 = 0x03;
const MSG_UPDATE_READY: u8 = 0x04;
const MSG_HEARTBEAT: u8 = 0x05;
const MSG_ABORT: u8 = 0x06;
const MSG_SHUTDOWN: u8 = 0x07;

/// One frame of the server ⇄ worker protocol.
#[derive(Debug, Clone)]
pub enum Message {
    /// Worker → server, first frame after connecting: protocol version,
    /// experiment-spec fingerprint and a display name.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Fingerprint of the worker's experiment spec; must equal the
        /// server's or the handshake is rejected.
        fingerprint: u64,
        /// Display name for logs and utilisation reports.
        worker_name: String,
    },
    /// Server → worker, handshake reply: this worker's index in the pool.
    AssignShard {
        /// Zero-based index of this worker.
        worker_index: usize,
        /// Total number of workers the server accepted.
        num_workers: usize,
        /// Client population size of the experiment.
        num_clients: usize,
    },
    /// Server → worker: compute updates for `clients` of `round`, in order.
    Dispatch {
        /// The federated round the clients train in.
        round: usize,
        /// The client ids of this worker's shard, in selection order.
        clients: Vec<usize>,
        /// The algorithm state to restore before computing: the
        /// round-start snapshot restricted to this shard's clients. Sent on
        /// every dispatch, requeue waves included; a worker answers a
        /// dispatch without it with [`Message::Abort`].
        state: Option<AlgorithmState>,
        /// The server's thread count: the worker runs its shard on it, so
        /// a worker is never told one of its own.
        parallelism: Parallelism,
    },
    /// Worker → server: one computed update, streamed in shard order.
    UpdateReady {
        /// Echo of the dispatch round, validated by the server.
        round: usize,
        /// The computed update.
        update: ClientUpdate,
    },
    /// Worker → server liveness signal, sent from a side thread so a long
    /// local computation never looks like a dead connection.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Either direction: the sender hit a non-recoverable failure and is
    /// about to close the connection.
    Abort {
        /// Human-readable reason.
        detail: String,
    },
    /// Server → worker: clean end of service.
    Shutdown,
}

fn put_parallelism(e: &mut Encoder, parallelism: Parallelism) {
    match parallelism {
        Parallelism::Sequential => e.put_u8(0),
        Parallelism::Threads { workers } => {
            e.put_u8(1);
            e.put_usize(workers);
        }
    }
}

fn take_parallelism(d: &mut Decoder<'_>) -> NetResult<Parallelism> {
    match d.take_u8()? {
        0 => Ok(Parallelism::Sequential),
        1 => Ok(Parallelism::Threads {
            workers: d.take_usize()?,
        }),
        tag => Err(NetError::Codec(PersistError::Malformed {
            section: "message",
            detail: format!("unknown parallelism tag {tag}"),
        })),
    }
}

/// Encodes one message as a complete wire frame.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut e = Encoder::new();
    let kind = match message {
        Message::Hello {
            protocol,
            fingerprint,
            worker_name,
        } => {
            e.put_u32(*protocol);
            e.put_u64(*fingerprint);
            e.put_str(worker_name);
            MSG_HELLO
        }
        Message::AssignShard {
            worker_index,
            num_workers,
            num_clients,
        } => {
            e.put_usize(*worker_index);
            e.put_usize(*num_workers);
            e.put_usize(*num_clients);
            MSG_ASSIGN_SHARD
        }
        Message::Dispatch {
            round,
            clients,
            state,
            parallelism,
        } => {
            e.put_usize(*round);
            e.put_usize(clients.len());
            for &client in clients {
                e.put_usize(client);
            }
            match state {
                Some(state) => {
                    e.put_bool(true);
                    put_algorithm_state(&mut e, state);
                }
                None => e.put_bool(false),
            }
            put_parallelism(&mut e, *parallelism);
            MSG_DISPATCH
        }
        Message::UpdateReady { round, update } => {
            e.put_usize(*round);
            put_update(&mut e, update);
            MSG_UPDATE_READY
        }
        Message::Heartbeat { seq } => {
            e.put_u64(*seq);
            MSG_HEARTBEAT
        }
        Message::Abort { detail } => {
            e.put_str(detail);
            MSG_ABORT
        }
        Message::Shutdown => MSG_SHUTDOWN,
    };
    encode_frame(kind, &e.into_bytes())
}

/// Decodes a verified frame payload into a [`Message`].
///
/// # Errors
/// Returns [`NetError::Codec`] on a malformed payload and
/// [`NetError::Protocol`] on an unknown kind.
pub fn decode_message(kind: u8, payload: &[u8]) -> NetResult<Message> {
    let mut d = Decoder::new(payload, "message");
    let message = match kind {
        MSG_HELLO => Message::Hello {
            protocol: d.take_u32()?,
            fingerprint: d.take_u64()?,
            worker_name: d.take_str()?,
        },
        MSG_ASSIGN_SHARD => Message::AssignShard {
            worker_index: d.take_usize()?,
            num_workers: d.take_usize()?,
            num_clients: d.take_usize()?,
        },
        MSG_DISPATCH => {
            let round = d.take_usize()?;
            let len = d.take_len(8)?;
            let mut clients = Vec::with_capacity(len);
            for _ in 0..len {
                clients.push(d.take_usize()?);
            }
            let state = if d.take_bool()? {
                Some(take_algorithm_state(&mut d)?)
            } else {
                None
            };
            let parallelism = take_parallelism(&mut d)?;
            Message::Dispatch {
                round,
                clients,
                state,
                parallelism,
            }
        }
        MSG_UPDATE_READY => Message::UpdateReady {
            round: d.take_usize()?,
            update: take_update(&mut d)?,
        },
        MSG_HEARTBEAT => Message::Heartbeat { seq: d.take_u64()? },
        MSG_ABORT => Message::Abort {
            detail: d.take_str()?,
        },
        MSG_SHUTDOWN => Message::Shutdown,
        other => {
            return Err(NetError::Protocol {
                detail: format!("unknown message kind {other:#04x}"),
            })
        }
    };
    d.finish()?;
    Ok(message)
}

/// Writes one message to a stream and flushes it.
///
/// # Errors
/// Returns [`NetError::Io`] on a write failure — the caller treats that as
/// a dead peer.
pub fn write_message(w: &mut impl Write, message: &Message) -> NetResult<()> {
    let frame = encode_message(message);
    w.write_all(&frame).map_err(|e| io_err("write frame", e))?;
    w.flush().map_err(|e| io_err("flush frame", e))?;
    Ok(())
}

/// Reads exactly one message from a stream: header first (to learn the
/// payload length), then payload + checksum trailer, verified before
/// decoding.
///
/// # Errors
/// [`NetError::Io`] on connection loss or a read timeout (the server's
/// missed-heartbeat signal), [`NetError::Codec`] on any corruption,
/// [`NetError::Protocol`] on an unknown kind.
pub fn read_message(r: &mut impl Read) -> NetResult<Message> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| io_err("read frame header", e))?;
    let (kind, len) = decode_frame_header(&header)?;
    let mut body = vec![0u8; len + FRAME_TRAILER_LEN];
    r.read_exact(&mut body)
        .map_err(|e| io_err("read frame body", e))?;
    let stored = u64::from_le_bytes(body[len..].try_into().expect("trailer is 8 bytes"));
    check_frame_payload(&body[..len], stored)?;
    decode_message(kind, &body[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_fl::ClientPayload;

    fn round_trip(message: &Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, message).expect("write");
        read_message(&mut buf.as_slice()).expect("read")
    }

    #[test]
    fn every_message_kind_round_trips() {
        match round_trip(&Message::Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: 0xDEAD_BEEF,
            worker_name: "w0".into(),
        }) {
            Message::Hello {
                protocol,
                fingerprint,
                worker_name,
            } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(fingerprint, 0xDEAD_BEEF);
                assert_eq!(worker_name, "w0");
            }
            other => panic!("wrong kind: {other:?}"),
        }

        match round_trip(&Message::Dispatch {
            round: 3,
            clients: vec![5, 1, 7],
            state: Some(AlgorithmState::default()),
            parallelism: Parallelism::Threads { workers: 2 },
        }) {
            Message::Dispatch {
                round,
                clients,
                state,
                parallelism,
            } => {
                assert_eq!(round, 3);
                assert_eq!(clients, vec![5, 1, 7]);
                assert!(state.is_some());
                assert_eq!(parallelism, Parallelism::Threads { workers: 2 });
            }
            other => panic!("wrong kind: {other:?}"),
        }

        match round_trip(&Message::UpdateReady {
            round: 2,
            update: ClientUpdate::new(4, 17, ClientPayload::Empty),
        }) {
            Message::UpdateReady { round, update } => {
                assert_eq!(round, 2);
                assert_eq!(update.client, 4);
                assert_eq!(update.num_samples, 17);
            }
            other => panic!("wrong kind: {other:?}"),
        }

        assert!(matches!(
            round_trip(&Message::Heartbeat { seq: 9 }),
            Message::Heartbeat { seq: 9 }
        ));
        assert!(matches!(round_trip(&Message::Shutdown), Message::Shutdown));
        match round_trip(&Message::Abort {
            detail: "boom".into(),
        }) {
            Message::Abort { detail } => assert_eq!(detail, "boom"),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn several_messages_stream_back_to_back() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Heartbeat { seq: 1 }).unwrap();
        write_message(&mut buf, &Message::Heartbeat { seq: 2 }).unwrap();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            read_message(&mut r).unwrap(),
            Message::Heartbeat { seq: 1 }
        ));
        assert!(matches!(
            read_message(&mut r).unwrap(),
            Message::Heartbeat { seq: 2 }
        ));
        assert!(matches!(read_message(&mut r).unwrap(), Message::Shutdown));
        assert!(r.is_empty());
    }

    #[test]
    fn corrupted_streams_are_typed_errors_never_panics() {
        let mut frame = encode_message(&Message::Heartbeat { seq: 7 });

        // Foreign magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_message(&mut bad.as_slice()),
            Err(NetError::Codec(PersistError::BadMagic { .. }))
        ));

        // A flipped payload bit is a checksum mismatch.
        let payload_byte = FRAME_HEADER_LEN; // first payload byte of seq
        frame[payload_byte] ^= 0x01;
        assert!(matches!(
            read_message(&mut frame.as_slice()),
            Err(NetError::Codec(PersistError::ChecksumMismatch { .. }))
        ));
        frame[payload_byte] ^= 0x01;

        // Truncation at every cut point is an I/O or codec error.
        for cut in 0..frame.len() {
            assert!(
                read_message(&mut frame[..cut].as_ref()).is_err(),
                "truncation at {cut} must fail"
            );
        }

        // An unknown kind is a protocol violation.
        let unknown = encode_frame(0x7F, &[]);
        assert!(matches!(
            read_message(&mut unknown.as_slice()),
            Err(NetError::Protocol { .. })
        ));
    }
}
