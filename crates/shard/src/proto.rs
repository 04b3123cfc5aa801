//! The shard-pair protocol: explicit serializable message types with a
//! std-only byte codec.
//!
//! This is the future RPC boundary between the coordinator and remote
//! shard servers, designed as wire messages from day one even though the
//! current coordinator is in-process. Three message types cross it:
//!
//! * [`ShardSubquery`] — coordinator → shard: run K-CPQ between shard
//!   `shard_p` of `P` and shard `shard_q` of `Q` (or a self-join on the
//!   diagonal), with the planning-time `MINMINDIST` echoed for tracing.
//! * [`BoundUpdate`] — either direction: "the global K-th distance is at
//!   most this"; the receiver folds it into its [`SharedBound`]
//!   (CAS-min, so stale or duplicated updates are harmless).
//! * [`PartialResult`] — shard → coordinator: the subquery's local top-K
//!   as [`WirePair`]s (oids + `f64` distance bits — enough to merge
//!   bit-identically), plus a completion flag for deadline partials.
//!
//! # Wire format
//!
//! Little-endian, one leading tag byte per message, `u32`
//! length-prefixed sequences, `f64` as raw IEEE-754 bits, booleans as
//! exactly `0`/`1`. Decoding is strict: unknown tags, non-canonical
//! booleans, truncated buffers, oversized length prefixes, and trailing
//! bytes are all errors ([`ProtoError`]) — a codec this small can afford
//! to reject everything it does not fully understand.
//!
//! [`SharedBound`]: cpq_core::SharedBound

use cpq_core::{Algorithm, Constraint};
use cpq_geo::Rect;

/// Message tag bytes (first byte of every encoded message).
const TAG_SUBQUERY: u8 = 0xA2;
const TAG_BOUND: u8 = 0xA3;
const TAG_PARTIAL: u8 = 0xA4;

/// Decoding failure: the buffer is not a canonical encoding of the
/// expected message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the message did.
    Truncated,
    /// Bytes remained after a complete message.
    Trailing(usize),
    /// The leading tag byte does not name the expected message.
    BadTag(u8),
    /// A boolean byte was neither `0` nor `1`.
    BadBool(u8),
    /// A length prefix promises more items than the buffer can hold.
    BadLen(u64),
    /// The message's dimensionality does not match the decoder's `D`.
    BadDim {
        /// Compile-time dimensionality of the decoding side.
        expected: u8,
        /// Dimensionality byte found on the wire.
        got: u8,
    },
    /// An algorithm code outside the five defined by the engine.
    BadAlgorithm(u8),
    /// A window rectangle's corners were out of order or NaN.
    BadWindow,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadTag(t) => write!(f, "unexpected message tag {t:#04x}"),
            ProtoError::BadBool(b) => write!(f, "non-canonical boolean byte {b}"),
            ProtoError::BadLen(n) => write!(f, "length prefix {n} exceeds buffer"),
            ProtoError::BadDim { expected, got } => {
                write!(f, "dimensionality mismatch: expected {expected}, got {got}")
            }
            ProtoError::BadAlgorithm(c) => write!(f, "unknown algorithm code {c}"),
            ProtoError::BadWindow => write!(f, "window corners out of order or NaN"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Strict little-endian reader over one message buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes.")]
    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes.")]
    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64_bits(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ProtoError::BadBool(b)),
        }
    }

    /// A `u32` sequence-length prefix, sanity-checked against the bytes
    /// actually remaining (`min_item_bytes` per item) *before* any
    /// allocation sized by it.
    fn len_prefix(&mut self, min_item_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(ProtoError::BadLen(n as u64));
        }
        Ok(n)
    }

    fn tag(&mut self, want: u8) -> Result<(), ProtoError> {
        let t = self.u8()?;
        if t != want {
            return Err(ProtoError::BadTag(t));
        }
        Ok(())
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Wire code for an [`Algorithm`] (stable across releases; new algorithms
/// append).
pub fn algorithm_code(a: Algorithm) -> u8 {
    match a {
        Algorithm::Naive => 0,
        Algorithm::Exhaustive => 1,
        Algorithm::Simple => 2,
        Algorithm::SortedDistances => 3,
        Algorithm::Heap => 4,
    }
}

/// Inverse of [`algorithm_code`].
pub fn algorithm_from_code(c: u8) -> Result<Algorithm, ProtoError> {
    match c {
        0 => Ok(Algorithm::Naive),
        1 => Ok(Algorithm::Exhaustive),
        2 => Ok(Algorithm::Simple),
        3 => Ok(Algorithm::SortedDistances),
        4 => Ok(Algorithm::Heap),
        c => Err(ProtoError::BadAlgorithm(c)),
    }
}

/// Coordinator → shard: run one shard-pair K-CPQ subquery. Generic over
/// the dimension because it carries the query's [`Constraint`] — per-side
/// windows (an optional rectangle each) and the colored flag — so a remote
/// shard server can reproduce the coordinator's result-pair filtering
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSubquery<const D: usize> {
    /// The parent query this subquery belongs to.
    pub query_id: u64,
    /// Shard id on the `P` side.
    pub shard_p: u32,
    /// Shard id on the `Q` side (same dataset and id for a diagonal
    /// self-join subquery).
    pub shard_q: u32,
    /// Number of pairs requested (the parent query's K — every subquery
    /// retains a local top-K so the merge cannot lose a global pair).
    pub k: u64,
    /// Engine algorithm, as [`algorithm_code`].
    pub algorithm: u8,
    /// Diagonal self-join subquery (`shard_p == shard_q` over one tree).
    pub self_join: bool,
    /// Canonicalize retained pairs to `p.oid < q.oid` (off-diagonal
    /// subqueries of a sharded self-join).
    pub orient_by_oid: bool,
    /// Planning-time inter-shard `MINMINDIST` (squared, `f64` bits) — the
    /// priority this subquery was scheduled at; diagnostic.
    pub minmin_bits: u64,
    /// Window the `P`-side point must lie inside (`None` = unconstrained).
    pub window_p: Option<Rect<D>>,
    /// Window the `Q`-side point must lie inside (`None` = unconstrained).
    pub window_q: Option<Rect<D>>,
    /// Require result pairs to span two distinct colors.
    pub colored: bool,
}

impl<const D: usize> ShardSubquery<D> {
    /// The engine-level constraint this subquery must run under.
    pub fn constraint(&self) -> Constraint<D> {
        Constraint {
            window_p: self.window_p,
            window_q: self.window_q,
            colored: self.colored,
        }
    }

    fn put_window(out: &mut Vec<u8>, w: &Option<Rect<D>>) {
        match w {
            Some(rect) => {
                put_bool(out, true);
                for d in 0..D {
                    put_f64(out, rect.lo().coord(d));
                }
                for d in 0..D {
                    put_f64(out, rect.hi().coord(d));
                }
            }
            None => put_bool(out, false),
        }
    }

    fn read_window(r: &mut Reader<'_>) -> Result<Option<Rect<D>>, ProtoError> {
        if !r.bool()? {
            return Ok(None);
        }
        let mut lo = [0.0f64; D];
        let mut hi = [0.0f64; D];
        for slot in lo.iter_mut() {
            *slot = r.f64_bits()?;
        }
        for slot in hi.iter_mut() {
            *slot = r.f64_bits()?;
        }
        // `<=` is false for NaN, so this also rejects NaN corners — the
        // Rect invariant must hold before construction.
        if !(0..D).all(|d| lo[d] <= hi[d]) {
            return Err(ProtoError::BadWindow);
        }
        Ok(Some(Rect::from_corners(lo, hi)))
    }

    /// Encodes the subquery to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + 32 * D);
        out.push(TAG_SUBQUERY);
        out.push(D as u8);
        put_u64(&mut out, self.query_id);
        put_u32(&mut out, self.shard_p);
        put_u32(&mut out, self.shard_q);
        put_u64(&mut out, self.k);
        out.push(self.algorithm);
        put_bool(&mut out, self.self_join);
        put_bool(&mut out, self.orient_by_oid);
        put_u64(&mut out, self.minmin_bits);
        Self::put_window(&mut out, &self.window_p);
        Self::put_window(&mut out, &self.window_q);
        put_bool(&mut out, self.colored);
        out
    }

    /// Decodes a whole buffer as one subquery (strict).
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(buf);
        r.tag(TAG_SUBQUERY)?;
        let dim = r.u8()?;
        if dim as usize != D {
            return Err(ProtoError::BadDim {
                expected: D as u8,
                got: dim,
            });
        }
        let query_id = r.u64()?;
        let shard_p = r.u32()?;
        let shard_q = r.u32()?;
        let k = r.u64()?;
        let algorithm = r.u8()?;
        algorithm_from_code(algorithm)?;
        let self_join = r.bool()?;
        let orient_by_oid = r.bool()?;
        let minmin_bits = r.u64()?;
        let window_p = Self::read_window(&mut r)?;
        let window_q = Self::read_window(&mut r)?;
        let colored = r.bool()?;
        r.finish()?;
        Ok(ShardSubquery {
            query_id,
            shard_p,
            shard_q,
            k,
            algorithm,
            self_join,
            orient_by_oid,
            minmin_bits,
            window_p,
            window_q,
            colored,
        })
    }
}

/// A bound propagation message: "the global K-th distance is at most
/// `f64::from_bits(bound_bits)`". CAS-min on receipt makes delivery order,
/// duplication, and staleness all harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundUpdate {
    /// The parent query the bound belongs to.
    pub query_id: u64,
    /// Squared-distance upper bound, as `f64` bits.
    pub bound_bits: u64,
}

impl BoundUpdate {
    /// Encodes the update to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        out.push(TAG_BOUND);
        put_u64(&mut out, self.query_id);
        put_u64(&mut out, self.bound_bits);
        out
    }

    /// Decodes a whole buffer as one bound update (strict).
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(buf);
        r.tag(TAG_BOUND)?;
        let query_id = r.u64()?;
        let bound_bits = r.u64()?;
        r.finish()?;
        Ok(BoundUpdate {
            query_id,
            bound_bits,
        })
    }
}

/// One result pair on the wire: object ids plus the exact squared distance
/// bits — precisely what the canonical merge order
/// ([`cpq_core::pair_cmp`]) keys on, so merging wire pairs is bit-identical
/// to merging in-memory results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePair {
    /// Object id on the `P` side.
    pub p_oid: u64,
    /// Object id on the `Q` side.
    pub q_oid: u64,
    /// Squared distance, as `f64` bits.
    pub dist2_bits: u64,
}

impl WirePair {
    const WIRE_BYTES: usize = 24;
}

/// Shard → coordinator: a subquery's local top-K.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialResult {
    /// The parent query this partial answers.
    pub query_id: u64,
    /// Shard id on the `P` side.
    pub shard_p: u32,
    /// Shard id on the `Q` side.
    pub shard_q: u32,
    /// Whether the subquery ran to completion (`false` for a deadline
    /// partial — the merged result is then marked incomplete too).
    pub completed: bool,
    /// The local top-K in canonical order.
    pub pairs: Vec<WirePair>,
}

impl PartialResult {
    /// Encodes the partial result to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(22 + self.pairs.len() * WirePair::WIRE_BYTES);
        out.push(TAG_PARTIAL);
        put_u64(&mut out, self.query_id);
        put_u32(&mut out, self.shard_p);
        put_u32(&mut out, self.shard_q);
        put_bool(&mut out, self.completed);
        put_u32(&mut out, self.pairs.len() as u32);
        for p in &self.pairs {
            put_u64(&mut out, p.p_oid);
            put_u64(&mut out, p.q_oid);
            put_u64(&mut out, p.dist2_bits);
        }
        out
    }

    /// Decodes a whole buffer as one partial result (strict).
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(buf);
        r.tag(TAG_PARTIAL)?;
        let query_id = r.u64()?;
        let shard_p = r.u32()?;
        let shard_q = r.u32()?;
        let completed = r.bool()?;
        let n = r.len_prefix(WirePair::WIRE_BYTES)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push(WirePair {
                p_oid: r.u64()?,
                q_oid: r.u64()?,
                dist2_bits: r.u64()?,
            });
        }
        r.finish()?;
        Ok(PartialResult {
            query_id,
            shard_p,
            shard_q,
            completed,
            pairs,
        })
    }
}
