//! Integration tests of the durable on-disk checkpoint format
//! (`mhfl_fl::persist`): disk round trips, the corruption battery, and
//! format stability against a committed fixture.
//!
//! Three properties are pinned:
//!
//! 1. **Round trip** — for every algorithm family in both execution modes,
//!    a run checkpointed at an (arbitrary) event boundary, encoded, written
//!    to disk, read back, decoded and resumed produces a final
//!    `MetricsReport::digest()` bit-identical to the uninterrupted run,
//!    whatever thread count either half ran under.
//! 2. **Corruption safety** — truncations, flipped bytes in any section,
//!    wrong magic, future format versions and mismatched configuration
//!    fingerprints all return *typed* `PersistError`s: decoding never
//!    panics and never silently restores a wrong checkpoint.
//! 3. **Format stability** — the committed fixture
//!    `tests/fixtures/checkpoint_v2.ckpt` must keep decoding, resuming to
//!    the pinned digest and re-encoding byte-identically (the on-disk
//!    analogue of `golden_digests.txt`). Exactly one format version is
//!    read: the same file with any other version word is rejected. The
//!    fixture can be re-blessed after an *intentional* format change with:
//!
//!    ```text
//!    PERSIST_BLESS=1 cargo test --test persist -- --test-threads=1
//!    ```

use std::sync::Mutex;

use mhfl_algorithms::build_algorithm;
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{
    ClientRunner, ClientUpdate, FederationContext, FlAlgorithm, FlResult, InProcessRunner,
};
use mhfl_models::MhflMethod;
use pracmhbench_core::{
    Checkpoint, Execution, ExperimentSpec, MetricsReport, Parallelism, PersistError, RunScale,
    Session,
};
use proptest::prelude::*;

/// One representative method per algorithm family (width, depth, prototype,
/// ensemble-transfer, homogeneous baseline).
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

const MODES: [Execution; 2] = [
    Execution::Synchronous,
    Execution::AsyncBuffered {
        buffer_size: 2,
        concurrency: 0,
    },
];

fn spec(method: MhflMethod, execution: Execution, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(DataTask::UciHar, method, ConstraintCase::COMPUTATION)
        .with_scale(RunScale::Quick)
        .with_seed(seed)
        .with_execution(execution)
}

/// Drives a fresh session for `cut` events and returns its checkpoint.
fn checkpoint_at(spec: &ExperimentSpec, cut: usize) -> Checkpoint {
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
    let mut seen = 0usize;
    while seen < cut && session.next_event().unwrap().is_some() {
        seen += 1;
    }
    session.checkpoint().unwrap()
}

/// A unique temp-file path for one test.
fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mhfl_persist_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}_{}.ckpt", std::process::id()))
}

/// Full disk round trip: session → save(path) → fresh algorithm →
/// `spec.resume_from(path)` → drain; returns (uninterrupted, resumed)
/// digests.
fn disk_roundtrip_digests(spec: &ExperimentSpec, cut: usize, tag: &str) -> (u64, u64) {
    let uninterrupted = spec.run().unwrap().report.digest();

    let ctx = spec.build_context().unwrap();
    let path = temp_path(tag);
    {
        let mut algorithm = build_algorithm(spec.method);
        let mut session = spec.engine().session(algorithm.as_mut(), &ctx).unwrap();
        let mut seen = 0usize;
        while seen < cut && session.next_event().unwrap().is_some() {
            seen += 1;
        }
        session.save(&path).unwrap();
        // Session and algorithm drop here: the "kill".
    }
    let mut resumed_alg = build_algorithm(spec.method);
    let resumed = spec.resume_from(resumed_alg.as_mut(), &ctx, &path).unwrap();
    let report = resumed.drain().unwrap();
    std::fs::remove_file(&path).ok();
    (uninterrupted, report.digest())
}

#[test]
fn disk_round_trip_is_bit_identical_for_every_family_and_mode() {
    for method in FAMILIES {
        for execution in MODES {
            let spec = spec(method, execution, 43);
            let tag = format!(
                "rt_{method}_{}",
                matches!(execution, Execution::Synchronous)
            );
            let (uninterrupted, resumed) = disk_roundtrip_digests(&spec, 12, &tag);
            assert_eq!(
                uninterrupted, resumed,
                "{method} ({execution:?}): on-disk checkpoint changed the trace"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpointing to *bytes* at a random event boundary and decoding
    /// must reproduce the uninterrupted trace bit-exactly — the pure-codec
    /// half of the disk round trip, cheap enough to sample broadly.
    #[test]
    fn encode_decode_resume_is_bit_identical_at_any_boundary(
        cut in 0usize..80,
        family in 0usize..5,
        mode in 0usize..2,
        seed in 0u64..3,
    ) {
        let spec = spec(FAMILIES[family], MODES[mode], 200 + seed);
        let uninterrupted = spec.run().unwrap().report.digest();

        let checkpoint = checkpoint_at(&spec, cut);
        let bytes = checkpoint.to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes).unwrap();

        let ctx = spec.build_context().unwrap();
        let mut algorithm = build_algorithm(spec.method);
        let resumed = Session::restore(algorithm.as_mut(), &ctx, &decoded).unwrap();
        prop_assert_eq!(uninterrupted, resumed.drain().unwrap().digest());
    }
}

#[test]
fn encoding_is_canonical() {
    let spec = spec(MhflMethod::FedProto, Execution::async_buffered(2), 7);
    let checkpoint = checkpoint_at(&spec, 15);
    let bytes = checkpoint.to_bytes();
    // Same checkpoint → same bytes; decode → encode → same bytes.
    assert_eq!(bytes, checkpoint.to_bytes());
    let decoded = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(bytes, decoded.to_bytes(), "decode/encode must be identity");
    // The advertised fingerprint is what the header carries.
    let header_fp = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    assert_eq!(header_fp, checkpoint.config_fingerprint());
}

// ---------------------------------------------------------------------------
// Corruption battery
// ---------------------------------------------------------------------------

/// A small valid checkpoint file image for the corruption tests.
fn sample_bytes() -> Vec<u8> {
    checkpoint_at(
        &spec(MhflMethod::SHeteroFl, Execution::async_buffered(2), 7),
        10,
    )
    .to_bytes()
}

/// Walks the section frame of a valid file, returning
/// `(payload_start, payload_len)` for each section in file order.
fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 8 + 4 + 8; // magic + version + fingerprint
    let count = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    for _ in 0..count {
        pos += 1; // id
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        spans.push((pos, len));
        pos += len + 8; // payload + checksum
    }
    assert_eq!(pos, bytes.len(), "frame walk must consume the whole file");
    spans
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(PersistError::BadMagic { .. })
    ));
    // A completely different file type as well.
    assert!(matches!(
        Checkpoint::from_bytes(b"\x7fELF\x02\x01\x01\x00 definitely not a checkpoint"),
        Err(PersistError::BadMagic { .. })
    ));
    // And the empty file.
    assert!(matches!(
        Checkpoint::from_bytes(&[]),
        Err(PersistError::Truncated { .. })
    ));
}

#[test]
fn future_format_versions_are_rejected_not_misparsed() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(PersistError::UnsupportedVersion {
            found: 3,
            supported: 2
        })
    ));
    // Version 0 never existed either.
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(PersistError::UnsupportedVersion { found: 0, .. })
    ));
    // Exactly one version is read: the committed current-version fixture
    // with its version word patched to the retired version 1, or to 3, is
    // refused before any section is parsed.
    let fixture = std::fs::read(fixture_dir().join("checkpoint_v2.ckpt")).unwrap();
    for version in [1u32, 3] {
        let mut bytes = fixture.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion { found, supported: 2 }) if found == version
        ));
    }
}

#[test]
fn mismatched_config_fingerprint_is_rejected() {
    // Corrupted fingerprint bytes.
    let mut bytes = sample_bytes();
    bytes[12] ^= 0x01;
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(PersistError::FingerprintMismatch { .. })
    ));

    // A *valid* fingerprint of a different configuration spliced into the
    // header: the classic resume-against-the-wrong-run mistake.
    let other = checkpoint_at(&spec(MhflMethod::SHeteroFl, Execution::Synchronous, 7), 10);
    let mut spliced = sample_bytes();
    spliced[12..20].copy_from_slice(&other.config_fingerprint().to_le_bytes());
    match Checkpoint::from_bytes(&spliced) {
        Err(PersistError::FingerprintMismatch { stored, computed }) => {
            assert_eq!(stored, other.config_fingerprint());
            assert_ne!(stored, computed);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn a_flipped_byte_in_each_section_is_a_checksum_mismatch_naming_it() {
    let bytes = sample_bytes();
    let names = [
        "config",
        "algorithm",
        "rng",
        "report",
        "driver",
        "arrivals",
        "buffer",
        "pending",
        "queue",
    ];
    let spans = section_spans(&bytes);
    assert_eq!(spans.len(), names.len());
    for (i, &(start, len)) in spans.iter().enumerate() {
        if len == 0 {
            continue; // an empty section has no payload byte to flip
        }
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x10;
        match Checkpoint::from_bytes(&corrupt) {
            Err(PersistError::ChecksumMismatch { section, .. }) => assert_eq!(
                section, names[i],
                "flip in section {} must be attributed to it",
                names[i]
            ),
            other => panic!("flip in {} gave {other:?}", names[i]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in the file yields a typed error —
    /// never a panic, never a silently different checkpoint.
    #[test]
    fn any_single_bit_flip_is_detected(offset in 0usize..1_000_000, bit in 0usize..8) {
        let mut bytes = sample_bytes();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} went undetected",
            offset,
            bit
        );
    }

    /// Truncating the file at any point yields a typed error.
    #[test]
    fn any_truncation_is_detected(keep in 0usize..1_000_000) {
        let bytes = sample_bytes();
        let keep = keep % bytes.len(); // strictly shorter than the file
        prop_assert!(Checkpoint::from_bytes(&bytes[..keep]).is_err());
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(PersistError::TrailingData { bytes: 4 })
    ));
}

/// Runs every client phase in process and records the thread count it was
/// handed.
struct RecordingRunner<'a>(&'a Mutex<Vec<Parallelism>>);

impl ClientRunner for RecordingRunner<'_> {
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>> {
        self.0.lock().unwrap().push(parallelism);
        InProcessRunner.run_clients(algorithm, round, clients, ctx, parallelism)
    }
}

/// A thread count is how a run executes, not what it is: a checkpoint saved
/// under `Threads { workers: 2 }` resumes under `Sequential` through
/// `spec.resume_from`, and the reverse, and both reach the straight-run
/// digest. Each half runs under the thread count its session was given.
#[test]
fn a_checkpoint_resumes_under_any_thread_count() {
    let spec = ExperimentSpec::new(
        DataTask::UciHar,
        MhflMethod::SHeteroFl,
        ConstraintCase::Memory,
    )
    .with_scale(RunScale::Quick)
    .with_seed(17);
    let straight = spec.run().unwrap().report.digest();
    let ctx = spec.build_context().unwrap();
    let threads = Parallelism::Threads { workers: 2 };
    for (tag, saved, resumed) in [
        ("threads_to_seq", threads, Parallelism::Sequential),
        ("seq_to_threads", Parallelism::Sequential, threads),
    ] {
        let path = temp_path(tag);
        let seen = Mutex::new(Vec::new());
        {
            let mut algorithm = build_algorithm(spec.method);
            let mut session = spec.open(algorithm.as_mut(), &ctx).unwrap();
            session.set_parallelism(saved);
            session.set_client_runner(Box::new(RecordingRunner(&seen)));
            while session.completed_rounds() < 2 {
                session.next_event().unwrap();
            }
            session.save(&path).unwrap();
        }
        let checkpoint = mhfl_fl::persist::read_checkpoint(&path).unwrap();
        assert_eq!(checkpoint.config().parallelism, Parallelism::Sequential);
        let before = std::mem::take(&mut *seen.lock().unwrap());
        assert!(!before.is_empty() && before.iter().all(|&p| p == saved));

        let mut algorithm = build_algorithm(spec.method);
        let mut session = spec.resume_from(algorithm.as_mut(), &ctx, &path).unwrap();
        session.set_parallelism(resumed);
        session.set_client_runner(Box::new(RecordingRunner(&seen)));
        assert_eq!(session.drain().unwrap().digest(), straight, "{tag}");
        let after = seen.into_inner().unwrap();
        assert!(!after.is_empty() && after.iter().all(|&p| p == resumed));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn restore_from_missing_file_is_a_typed_io_error() {
    let spec = spec(MhflMethod::SHeteroFl, Execution::Synchronous, 3);
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let err = spec
        .resume_from(
            algorithm.as_mut(),
            &ctx,
            temp_path("definitely_missing").join("nope.ckpt"),
        )
        .unwrap_err();
    assert!(
        matches!(err, mhfl_fl::FlError::Persist(PersistError::Io { .. })),
        "got {err:?}"
    );
}

#[test]
fn persist_errors_render_usefully() {
    let errors: Vec<PersistError> = vec![
        Checkpoint::from_bytes(b"XXXXXXXXXXXX").unwrap_err(),
        Checkpoint::from_bytes(&[]).unwrap_err(),
    ];
    for e in errors {
        let text = e.to_string();
        assert!(!text.is_empty());
        // They are std errors, so they compose with ? into Box<dyn Error>.
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Format-stability fixture
// ---------------------------------------------------------------------------

/// The fixed experiment the committed fixture was captured from. Changing
/// any of these constants requires re-blessing the fixture.
fn fixture_spec() -> ExperimentSpec {
    spec(MhflMethod::SHeteroFl, Execution::async_buffered(2), 17)
}

const FIXTURE_CUT: usize = 12;

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_pinned_digest(path: &std::path::Path) -> u64 {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{} is committed with the repo", path.display()));
    u64::from_str_radix(raw.trim().trim_start_matches("0x"), 16).expect("pinned digest (hex)")
}

/// Decodes a committed fixture and resumes it to its pinned digest.
fn decode_and_resume_fixture(ckpt: &str, digest: &str) -> (Vec<u8>, Checkpoint) {
    let bytes = std::fs::read(fixture_dir().join(ckpt))
        .unwrap_or_else(|_| panic!("tests/fixtures/{ckpt} is committed with the repo"));
    let pinned = read_pinned_digest(&fixture_dir().join(digest));

    // The fixture still decodes under today's codec...
    let checkpoint = Checkpoint::from_bytes(&bytes).unwrap_or_else(|e| {
        panic!(
            "committed fixture {ckpt} no longer decodes ({e}); if the format change \
             was intentional, bump FORMAT_VERSION and re-bless with PERSIST_BLESS=1"
        )
    });
    // ... and resumes to the exact digest of the uninterrupted run.
    let spec = fixture_spec();
    let ctx = spec.build_context().unwrap();
    let mut algorithm = build_algorithm(spec.method);
    let resumed: MetricsReport = Session::restore(algorithm.as_mut(), &ctx, &checkpoint)
        .unwrap()
        .drain()
        .unwrap();
    assert_eq!(
        resumed.digest(),
        pinned,
        "{ckpt} resume digest moved; re-bless with PERSIST_BLESS=1 if intentional"
    );
    (bytes, checkpoint)
}

#[test]
fn committed_v2_fixture_decodes_resumes_and_reencodes_byte_identically() {
    let ckpt_path = fixture_dir().join("checkpoint_v2.ckpt");
    let digest_path = fixture_dir().join("checkpoint_v2.digest");

    if std::env::var("PERSIST_BLESS").is_ok_and(|v| v == "1") {
        let spec = fixture_spec();
        let checkpoint = checkpoint_at(&spec, FIXTURE_CUT);
        std::fs::write(&ckpt_path, checkpoint.to_bytes()).unwrap();
        let digest = spec.run().unwrap().report.digest();
        std::fs::write(&digest_path, format!("0x{digest:016x}\n")).unwrap();
        eprintln!(
            "blessed {} and {}",
            ckpt_path.display(),
            digest_path.display()
        );
    }

    let (bytes, checkpoint) =
        decode_and_resume_fixture("checkpoint_v2.ckpt", "checkpoint_v2.digest");
    // Canonical encoding is stable for current-version files.
    assert_eq!(
        checkpoint.to_bytes(),
        bytes,
        "encoder output drifted from the committed fixture; re-bless if intentional"
    );
}
