//! Client-facing wire types for the unified query API.
//!
//! A remote caller speaks to the serving runtime in terms of three types
//! that live here, next to [`crate::tasks::LearnedSetStructure`], so client
//! and server agree on them without either linking the serving crate:
//!
//! * [`WireTask`] — the task discriminant with stable one-byte codes.
//! * [`QueryRequest`] — one query set as it crosses the wire.
//! * [`QueryResponse`] — the transportable counterpart of
//!   [`crate::tasks::QueryOutcome`]: the task's value plus the shared
//!   degradation flags (guard fallback, index bound miss).
//!
//! Encoding is hand-rolled little-endian rather than JSON: the serving hot
//! path decodes one of these per query, and the fixed layout keeps that free
//! of allocation and parsing ambiguity. Floats travel as raw IEEE-754 bits
//! so a value decoded on the client is **bit-identical** to the server's
//! [`QueryOutcome`] — the loopback equivalence tests rely on that.
//!
//! Framing (magic, version, request ids, CRC) is deliberately *not* here:
//! that is transport concern and lives in `setlearn-serve::proto`. These
//! types only define how one request/response body is laid out.

use crate::hybrid::FallbackReason;
use crate::tasks::QueryOutcome;
use std::fmt;

/// Decoding failure for a wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag or enum byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A declared length exceeds the remaining buffer or a sanity bound.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: usize,
    },
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::Truncated => write!(f, "wire value truncated"),
            WireDecodeError::BadTag { what, tag } => {
                write!(f, "bad {what} tag 0x{tag:02x}")
            }
            WireDecodeError::BadLength { what, len } => {
                write!(f, "implausible {what} length {len}")
            }
        }
    }
}

impl std::error::Error for WireDecodeError {}

// ---------------------------------------------------------------------------
// Little-endian primitives shared by every wire type.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn take_u8(input: &mut &[u8]) -> Result<u8, WireDecodeError> {
    let (&b, rest) = input.split_first().ok_or(WireDecodeError::Truncated)?;
    *input = rest;
    Ok(b)
}

pub(crate) fn take_u32(input: &mut &[u8]) -> Result<u32, WireDecodeError> {
    if input.len() < 4 {
        return Err(WireDecodeError::Truncated);
    }
    let (head, rest) = input.split_at(4);
    *input = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("split_at(4)")))
}

pub(crate) fn take_u64(input: &mut &[u8]) -> Result<u64, WireDecodeError> {
    if input.len() < 8 {
        return Err(WireDecodeError::Truncated);
    }
    let (head, rest) = input.split_at(8);
    *input = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("split_at(8)")))
}

// ---------------------------------------------------------------------------
// Collection ids (SLP1 v2 addressing)
// ---------------------------------------------------------------------------

/// Longest collection id accepted on the wire. Ids are operator-chosen
/// names, not user data; a one-byte length prefix is plenty and keeps the
/// v2 frame overhead fixed and tiny.
pub const MAX_COLLECTION_ID_LEN: usize = 64;

/// Whether `name` is a valid collection id: non-empty, at most
/// [`MAX_COLLECTION_ID_LEN`] bytes, drawn from `[A-Za-z0-9_-]`. The
/// character set is restricted so a collection id can double as a
/// directory name under the collections root and as a metric label value
/// without escaping.
pub fn valid_collection_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_COLLECTION_ID_LEN
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Appends a length-prefixed collection id to `out`: `u8` byte length,
/// then the id bytes. An empty id (length 0) is legal on the wire and
/// means "the server's default collection".
///
/// # Panics
/// If `name` is non-empty and not a [`valid_collection_name`] — encoding
/// an invalid id is a caller bug, not a wire condition.
pub fn encode_collection_id(out: &mut Vec<u8>, name: &str) {
    assert!(
        name.is_empty() || valid_collection_name(name),
        "invalid collection id {name:?}"
    );
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

/// Decodes a length-prefixed collection id from the front of `input`,
/// advancing it. Returns `None` for a zero-length id (default collection).
/// Rejects over-long declared lengths, truncation, and ids containing
/// bytes outside the valid name alphabet.
pub fn decode_collection_id(input: &mut &[u8]) -> Result<Option<String>, WireDecodeError> {
    let len = take_u8(input)? as usize;
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_COLLECTION_ID_LEN {
        return Err(WireDecodeError::BadLength { what: "collection id", len });
    }
    if input.len() < len {
        return Err(WireDecodeError::Truncated);
    }
    let (head, rest) = input.split_at(len);
    *input = rest;
    let name = std::str::from_utf8(head)
        .map_err(|_| WireDecodeError::BadTag { what: "collection id", tag: head[0] })?;
    if !valid_collection_name(name) {
        return Err(WireDecodeError::BadTag {
            what: "collection id",
            tag: name.bytes().find(|b| !b.is_ascii_alphanumeric() && *b != b'_' && *b != b'-').unwrap_or(0),
        });
    }
    Ok(Some(name.to_string()))
}

// ---------------------------------------------------------------------------
// WireTask
// ---------------------------------------------------------------------------

/// The task a query addresses, with a stable one-byte wire code.
///
/// Codes are part of the `SLP1` protocol contract: they may gain variants
/// but existing codes never change meaning (see the protocol versioning
/// story in `DESIGN.md` §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireTask {
    /// Cardinality estimation (answer: `f64`).
    Cardinality,
    /// Set-index position lookup (answer: `Option<u64>`).
    Index,
    /// Approximate membership (answer: `bool`).
    Bloom,
}

impl WireTask {
    /// Every task, in wire-code order.
    pub const ALL: [WireTask; 3] = [WireTask::Cardinality, WireTask::Index, WireTask::Bloom];

    /// The stable wire code.
    pub fn code(self) -> u8 {
        match self {
            WireTask::Cardinality => 0,
            WireTask::Index => 1,
            WireTask::Bloom => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<WireTask> {
        match code {
            0 => Some(WireTask::Cardinality),
            1 => Some(WireTask::Index),
            2 => Some(WireTask::Bloom),
            _ => None,
        }
    }

    /// The task label used across the CLI and serve metrics.
    pub fn label(self) -> &'static str {
        match self {
            WireTask::Cardinality => "cardinality",
            WireTask::Index => "index",
            WireTask::Bloom => "bloom",
        }
    }
}

impl fmt::Display for WireTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for WireTask {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cardinality" => Ok(WireTask::Cardinality),
            "index" => Ok(WireTask::Index),
            "bloom" => Ok(WireTask::Bloom),
            other => Err(format!("unknown task '{other}' (cardinality|index|bloom)")),
        }
    }
}

// ---------------------------------------------------------------------------
// FallbackReason codes
// ---------------------------------------------------------------------------

/// Wire code for an optional [`FallbackReason`] (0 = no fallback).
pub fn fallback_code(reason: Option<FallbackReason>) -> u8 {
    match reason {
        None => 0,
        Some(FallbackReason::NonFinite) => 1,
        Some(FallbackReason::OutOfBounds) => 2,
    }
}

/// Decodes a fallback code written by [`fallback_code`].
pub fn fallback_from_code(code: u8) -> Result<Option<FallbackReason>, WireDecodeError> {
    match code {
        0 => Ok(None),
        1 => Ok(Some(FallbackReason::NonFinite)),
        2 => Ok(Some(FallbackReason::OutOfBounds)),
        tag => Err(WireDecodeError::BadTag { what: "fallback", tag }),
    }
}

// ---------------------------------------------------------------------------
// QueryRequest
// ---------------------------------------------------------------------------

/// A query's largest sane element count; anything above this in a decoded
/// request is treated as corruption rather than allocated for.
pub const MAX_QUERY_ELEMENTS: usize = 1 << 20;

/// One query as it crosses the wire: raw element ids.
///
/// Layout: `u32` element count, then that many `u32` ids, little-endian.
/// Ids need not arrive canonical — the server normalizes (sort + dedup)
/// before querying, exactly like the CLI does for `--query` lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The element ids of the query set (any order, duplicates allowed).
    pub elements: Vec<u32>,
}

impl QueryRequest {
    /// Wraps raw ids.
    pub fn new(elements: Vec<u32>) -> Self {
        QueryRequest { elements }
    }

    /// Canonicalizes into the [`setlearn_data::ElementSet`] every structure
    /// queries over.
    pub fn canonicalize(self) -> setlearn_data::ElementSet {
        setlearn_data::normalize(self.elements)
    }

    /// Appends the wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.elements.len() as u32);
        for &id in &self.elements {
            put_u32(out, id);
        }
    }

    /// Decodes one request from the front of `input`, advancing it.
    pub fn decode(input: &mut &[u8]) -> Result<QueryRequest, WireDecodeError> {
        let len = take_u32(input)? as usize;
        if len > MAX_QUERY_ELEMENTS {
            return Err(WireDecodeError::BadLength { what: "query", len });
        }
        if input.len() < len * 4 {
            return Err(WireDecodeError::Truncated);
        }
        let mut elements = Vec::with_capacity(len);
        for _ in 0..len {
            elements.push(take_u32(input)?);
        }
        Ok(QueryRequest { elements })
    }
}

impl From<&[u32]> for QueryRequest {
    fn from(ids: &[u32]) -> Self {
        QueryRequest { elements: ids.to_vec() }
    }
}

// ---------------------------------------------------------------------------
// QueryValue / QueryResponse
// ---------------------------------------------------------------------------

/// The task's answer in transportable form. The variant tag doubles as the
/// task code, so a response also identifies which task produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryValue {
    /// A cardinality estimate (IEEE-754 bits on the wire).
    Cardinality(f64),
    /// An index position, or `None` when the subset was not found.
    Position(Option<u64>),
    /// A membership verdict.
    Membership(bool),
}

impl QueryValue {
    /// Which task this value answers.
    pub fn task(self) -> WireTask {
        match self {
            QueryValue::Cardinality(_) => WireTask::Cardinality,
            QueryValue::Position(_) => WireTask::Index,
            QueryValue::Membership(_) => WireTask::Bloom,
        }
    }
}

/// The serializable counterpart of [`QueryOutcome`]: what the serving
/// runtime sends back for one query, preserving the degradation flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResponse {
    /// The task's answer.
    pub value: QueryValue,
    /// Why the model's raw output was rejected, if it was (serve guard).
    pub fallback: Option<FallbackReason>,
    /// Index task only: the scan window was exhausted without a hit.
    pub bound_miss: bool,
}

impl QueryResponse {
    /// Which task this response answers.
    pub fn task(&self) -> WireTask {
        self.value.task()
    }

    /// Whether any degradation flag is set.
    pub fn degraded(&self) -> bool {
        self.fallback.is_some() || self.bound_miss
    }

    /// Appends the wire encoding to `out`: task code, value bytes, fallback
    /// code, bound-miss flag.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.task().code());
        match self.value {
            QueryValue::Cardinality(v) => put_u64(out, v.to_bits()),
            QueryValue::Position(p) => {
                out.push(p.is_some() as u8);
                put_u64(out, p.unwrap_or(0));
            }
            QueryValue::Membership(m) => out.push(m as u8),
        }
        out.push(fallback_code(self.fallback));
        out.push(self.bound_miss as u8);
    }

    /// Decodes one response from the front of `input`, advancing it.
    pub fn decode(input: &mut &[u8]) -> Result<QueryResponse, WireDecodeError> {
        let tag = take_u8(input)?;
        let task = WireTask::from_code(tag)
            .ok_or(WireDecodeError::BadTag { what: "task", tag })?;
        let value = match task {
            WireTask::Cardinality => QueryValue::Cardinality(f64::from_bits(take_u64(input)?)),
            WireTask::Index => {
                let present = match take_u8(input)? {
                    0 => false,
                    1 => true,
                    tag => return Err(WireDecodeError::BadTag { what: "position", tag }),
                };
                let pos = take_u64(input)?;
                QueryValue::Position(present.then_some(pos))
            }
            WireTask::Bloom => match take_u8(input)? {
                0 => QueryValue::Membership(false),
                1 => QueryValue::Membership(true),
                tag => return Err(WireDecodeError::BadTag { what: "membership", tag }),
            },
        };
        let fallback = fallback_from_code(take_u8(input)?)?;
        let bound_miss = match take_u8(input)? {
            0 => false,
            1 => true,
            tag => return Err(WireDecodeError::BadTag { what: "bound_miss", tag }),
        };
        Ok(QueryResponse { value, fallback, bound_miss })
    }
}

impl From<QueryOutcome<f64>> for QueryResponse {
    fn from(o: QueryOutcome<f64>) -> Self {
        QueryResponse {
            value: QueryValue::Cardinality(o.value),
            fallback: o.fallback,
            bound_miss: o.bound_miss,
        }
    }
}

impl From<QueryOutcome<Option<usize>>> for QueryResponse {
    fn from(o: QueryOutcome<Option<usize>>) -> Self {
        QueryResponse {
            value: QueryValue::Position(o.value.map(|p| p as u64)),
            fallback: o.fallback,
            bound_miss: o.bound_miss,
        }
    }
}

impl From<QueryOutcome<bool>> for QueryResponse {
    fn from(o: QueryOutcome<bool>) -> Self {
        QueryResponse {
            value: QueryValue::Membership(o.value),
            fallback: o.fallback,
            bound_miss: o.bound_miss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(r: QueryResponse) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = QueryResponse::decode(&mut slice).expect("decodes");
        assert_eq!(back, r);
        assert!(slice.is_empty(), "decode consumed everything");
    }

    #[test]
    fn task_codes_are_stable_and_invertible() {
        for task in WireTask::ALL {
            assert_eq!(WireTask::from_code(task.code()), Some(task));
            assert_eq!(task.label().parse::<WireTask>().unwrap(), task);
        }
        assert_eq!(WireTask::Cardinality.code(), 0);
        assert_eq!(WireTask::Index.code(), 1);
        assert_eq!(WireTask::Bloom.code(), 2);
        assert_eq!(WireTask::from_code(3), None);
    }

    #[test]
    fn requests_roundtrip_and_canonicalize() {
        let req = QueryRequest::new(vec![5, 1, 5, 3]);
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = QueryRequest::decode(&mut slice).unwrap();
        assert_eq!(back, req);
        assert!(slice.is_empty());
        assert_eq!(back.canonicalize().as_ref(), &[1, 3, 5]);
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        // NaN payload bits survive the trip (value compared via to_bits).
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = Vec::new();
        QueryResponse::from(QueryOutcome::clean(weird)).encode(&mut buf);
        let got = QueryResponse::decode(&mut buf.as_slice()).unwrap();
        match got.value {
            QueryValue::Cardinality(v) => assert_eq!(v.to_bits(), weird.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }

        roundtrip_response(QueryResponse::from(QueryOutcome::clean(42.5f64)));
        roundtrip_response(QueryResponse::from(QueryOutcome {
            value: 0.0f64,
            fallback: Some(FallbackReason::NonFinite),
            bound_miss: false,
        }));
        roundtrip_response(QueryResponse::from(QueryOutcome::clean(Some(7usize))));
        roundtrip_response(QueryResponse::from(QueryOutcome {
            value: None::<usize>,
            fallback: Some(FallbackReason::OutOfBounds),
            bound_miss: true,
        }));
        roundtrip_response(QueryResponse::from(QueryOutcome::clean(true)));
        roundtrip_response(QueryResponse::from(QueryOutcome::clean(false)));
    }

    #[test]
    fn collection_ids_roundtrip_and_reject_garbage() {
        for name in ["t", "tenant-a", "a_b-C9", &"x".repeat(MAX_COLLECTION_ID_LEN)] {
            assert!(valid_collection_name(name), "{name}");
            let mut buf = Vec::new();
            encode_collection_id(&mut buf, name);
            let mut slice = buf.as_slice();
            assert_eq!(decode_collection_id(&mut slice).unwrap().as_deref(), Some(name));
            assert!(slice.is_empty());
        }
        // Empty id = default collection.
        let mut buf = Vec::new();
        encode_collection_id(&mut buf, "");
        assert_eq!(buf, vec![0]);
        assert_eq!(decode_collection_id(&mut buf.as_slice()).unwrap(), None);
        // Invalid names are rejected both at validation and decode time.
        for bad in ["", "has space", "dot.dot", "sla/sh", &"x".repeat(65)] {
            assert!(!valid_collection_name(bad), "{bad:?}");
        }
        let mut slice: &[u8] = &[3, b'a', b' ', b'b'];
        assert!(decode_collection_id(&mut slice).is_err());
        // Over-long declared length and truncation error out cleanly.
        let mut slice: &[u8] = &[65];
        assert!(matches!(
            decode_collection_id(&mut slice),
            Err(WireDecodeError::BadLength { .. })
        ));
        let mut slice: &[u8] = &[5, b'a', b'b'];
        assert!(matches!(
            decode_collection_id(&mut slice),
            Err(WireDecodeError::Truncated)
        ));
        // Non-UTF-8 id bytes are a tag error, not a panic.
        let mut slice: &[u8] = &[2, 0xFF, 0xFE];
        assert!(decode_collection_id(&mut slice).is_err());
    }

    #[test]
    fn truncated_and_garbage_inputs_error_without_panicking() {
        let mut buf = Vec::new();
        QueryResponse::from(QueryOutcome::clean(1.5f64)).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(QueryResponse::decode(&mut slice).is_err(), "cut at {cut}");
        }
        // An unknown task tag is a BadTag, not a panic.
        let mut slice: &[u8] = &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            QueryResponse::decode(&mut slice),
            Err(WireDecodeError::BadTag { what: "task", .. })
        ));
        // An absurd query length is rejected before allocating.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            QueryRequest::decode(&mut buf.as_slice()),
            Err(WireDecodeError::BadLength { .. })
        ));
    }
}
