//! Round-trip and rejection properties of the shard protocol codec.
//!
//! For every message type: `encode → decode` reproduces the value and
//! `encode → decode → encode` reproduces the exact bytes (the encoding is
//! canonical); every strict prefix of a valid encoding is rejected
//! (truncation can never produce a different valid message); a trailing
//! byte is rejected; and each targeted corruption — wrong tag,
//! non-canonical boolean, unknown algorithm code, wrong dimensionality,
//! oversized length prefix — is rejected with its specific error. A
//! deterministic garbage fuzz checks the decoders never panic on
//! arbitrary bytes.

use cpq_rng::Rng;
use cpq_shard::{BoundUpdate, PartialResult, ProtoError, ShardSubquery, WirePair};

fn sample_subquery() -> ShardSubquery<2> {
    ShardSubquery {
        query_id: 0xDEAD_BEEF_0BAD_CAFE,
        shard_p: 3,
        shard_q: 7,
        k: 1000,
        algorithm: 4,
        self_join: false,
        orient_by_oid: true,
        minmin_bits: 2.25f64.to_bits(),
        // One side windowed, one unconstrained: exercises both encodings.
        window_p: Some(cpq_geo::Rect::from_corners([0.5, -3.0], [8.25, 4.0])),
        window_q: None,
        colored: true,
    }
}

fn sample_bound() -> BoundUpdate {
    BoundUpdate {
        query_id: 42,
        bound_bits: 0.125f64.to_bits(),
    }
}

fn sample_partial() -> PartialResult {
    PartialResult {
        query_id: 42,
        shard_p: 1,
        shard_q: 2,
        completed: true,
        pairs: vec![
            WirePair {
                p_oid: 9,
                q_oid: 11,
                dist2_bits: 0.5f64.to_bits(),
            },
            WirePair {
                p_oid: u64::MAX,
                q_oid: 0,
                dist2_bits: f64::INFINITY.to_bits(),
            },
        ],
    }
}

/// Canonical round-trip plus strict prefix/trailing rejection, generically
/// over one message type's encode/decode pair.
fn check_strict<T, E, Dec>(value: &T, encode: E, decode: Dec, label: &str)
where
    T: PartialEq + std::fmt::Debug,
    E: Fn(&T) -> Vec<u8>,
    Dec: Fn(&[u8]) -> Result<T, ProtoError>,
{
    let bytes = encode(value);
    let back = decode(&bytes).unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert_eq!(&back, value, "{label}: value round-trip");
    assert_eq!(encode(&back), bytes, "{label}: canonical re-encode");

    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{label}: prefix of {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_eq!(
        decode(&trailing),
        Err(ProtoError::Trailing(1)),
        "{label}: trailing byte"
    );

    let mut bad_tag = bytes;
    bad_tag[0] = 0x00;
    assert_eq!(
        decode(&bad_tag),
        Err(ProtoError::BadTag(0x00)),
        "{label}: bad tag"
    );
}

#[test]
fn every_message_round_trips_canonically_and_rejects_mutations() {
    check_strict(
        &sample_subquery(),
        ShardSubquery::encode,
        ShardSubquery::<2>::decode,
        "subquery",
    );
    check_strict(
        &sample_bound(),
        BoundUpdate::encode,
        BoundUpdate::decode,
        "bound",
    );
    check_strict(
        &sample_partial(),
        PartialResult::encode,
        PartialResult::decode,
        "partial",
    );
}

#[test]
fn empty_variants_round_trip() {
    check_strict(
        &PartialResult {
            query_id: 0,
            shard_p: 0,
            shard_q: 0,
            completed: false,
            pairs: Vec::new(),
        },
        PartialResult::encode,
        PartialResult::decode,
        "empty partial",
    );
}

#[test]
fn subquery_rejects_unknown_algorithm_code() {
    let mut bytes = sample_subquery().encode();
    // Layout: tag(1) + dim(1) + query_id(8) + shard_p(4) + shard_q(4)
    // + k(8) = 26 bytes before the algorithm code.
    bytes[26] = 9;
    assert_eq!(
        ShardSubquery::<2>::decode(&bytes),
        Err(ProtoError::BadAlgorithm(9))
    );
}

#[test]
fn subquery_rejects_non_canonical_booleans() {
    // self_join, orient_by_oid, and (after the 8-byte minmin) the
    // window_p presence flag.
    for offset in [27usize, 28, 37] {
        let mut bytes = sample_subquery().encode();
        bytes[offset] = 2;
        assert_eq!(
            ShardSubquery::<2>::decode(&bytes),
            Err(ProtoError::BadBool(2)),
            "boolean at byte {offset}"
        );
    }
}

#[test]
fn subquery_rejects_wrong_dimensionality() {
    let mut bytes = sample_subquery().encode();
    bytes[1] = 3;
    assert_eq!(
        ShardSubquery::<2>::decode(&bytes),
        Err(ProtoError::BadDim {
            expected: 2,
            got: 3
        })
    );
}

#[test]
fn unconstrained_subquery_round_trips() {
    let sq = ShardSubquery::<2> {
        window_p: None,
        window_q: None,
        colored: false,
        ..sample_subquery()
    };
    check_strict(
        &sq,
        ShardSubquery::encode,
        ShardSubquery::<2>::decode,
        "unconstrained subquery",
    );
    assert!(!sq.constraint().is_active());
}

#[test]
fn partial_rejects_non_canonical_completed_flag() {
    let mut bytes = sample_partial().encode();
    // Layout: tag(1) + query_id(8) + shard_p(4) + shard_q(4) = 17 bytes
    // before the completed flag.
    bytes[17] = 0xFF;
    assert_eq!(
        PartialResult::decode(&bytes),
        Err(ProtoError::BadBool(0xFF))
    );
}

#[test]
fn partial_rejects_oversized_length_prefix() {
    let mut bytes = sample_partial().encode();
    // The pair-count prefix sits right after the completed flag.
    bytes[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        PartialResult::decode(&bytes),
        Err(ProtoError::BadLen(u64::from(u32::MAX)))
    );
}

#[test]
fn garbage_bytes_never_panic_any_decoder() {
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    for round in 0..500 {
        let len = (round % 64) as usize;
        let mut buf = vec![0u8; len];
        for b in buf.iter_mut() {
            *b = rng.random_range(0..256u32) as u8;
        }
        // Any outcome but a panic is acceptable; random buffers that
        // happen to decode are legitimate messages.
        let _ = ShardSubquery::<2>::decode(&buf);
        let _ = BoundUpdate::decode(&buf);
        let _ = PartialResult::decode(&buf);
    }
}

#[test]
fn single_byte_corruptions_never_panic() {
    // Flip every byte of every sample message to every-other of a few
    // values; decoders must return (Ok or Err), never panic.
    let messages: Vec<Vec<u8>> = vec![
        sample_subquery().encode(),
        sample_bound().encode(),
        sample_partial().encode(),
    ];
    for bytes in &messages {
        for i in 0..bytes.len() {
            for v in [0x00u8, 0x01, 0x7F, 0xFF] {
                let mut m = bytes.clone();
                m[i] = v;
                let _ = ShardSubquery::<2>::decode(&m);
                let _ = BoundUpdate::decode(&m);
                let _ = PartialResult::decode(&m);
            }
        }
    }
}
