//! `SLP1` — the versioned, length-prefixed binary wire protocol of the TCP
//! front-end.
//!
//! ## Frame layout (little-endian, 22-byte header + payload)
//!
//! ```text
//! magic   "SLP1"        4 bytes   protocol identity
//! version u8            1 byte    protocol revision (VERSION = 2)
//! kind    u8            1 byte    task kind or control kind (see below)
//! id      u64           8 bytes   request id, echoed verbatim in responses
//! len     u32           4 bytes   payload length in bytes
//! crc32   u32           4 bytes   CRC-32 (IEEE) over the payload
//! payload len bytes     collection id (u8 length + that many
//!                       [A-Za-z0-9_-] bytes), then the kind's body
//! ```
//!
//! Kinds `0..=2` are the [`WireTask`] codes (a query frame); `0xF0` is ping
//! and `0xF1` is a shutdown request. The CRC covers the whole payload —
//! collection id included — with the `persist::crc32` the WAL records use,
//! so truncation and bit flips surface as typed [`ProtoError`]s instead of
//! garbage queries or a misrouted frame. An empty collection id (length 0)
//! addresses the server's default collection. Responses echo the request's
//! kind, id and collection.
//!
//! ## Payloads
//!
//! A **request** body is a query batch: `u32` count, then that many
//! [`QueryRequest`] bodies. A **response** body opens with one status
//! byte: `0` means the batch was decoded and each query gets its own
//! `status` byte (`0` + a [`QueryResponse`] body, or a nonzero
//! [`ErrorCode`] — so a shed query is distinguishable from a panicked one
//! *per query*); a nonzero frame status is a frame-level [`ErrorCode`] and
//! ends the payload. Control frames (ping/shutdown) carry empty bodies
//! and are answered with an empty batch of the same kind.
//!
//! Versioning: the magic pins the protocol family, the version byte the
//! revision. There is one revision; a server refuses any other version
//! byte with [`ErrorCode::UnsupportedVersion`] (see `DESIGN.md` §11).

use crate::error::ServeError;
use setlearn::persist::crc32;
use setlearn::wire::{QueryRequest, QueryResponse, WireDecodeError, WireTask};
use std::fmt;
use std::io::{self, Read};

/// Protocol magic: `SLP1`.
pub const MAGIC: [u8; 4] = *b"SLP1";
/// The protocol revision this side speaks: every payload opens with a
/// length-prefixed collection id (see the module docs).
pub const VERSION: u8 = 2;
/// Header bytes before the payload.
pub const HEADER_LEN: usize = 22;
/// Frame kind: ingest — one durable insert/delete against a mutable
/// collection. Answered with an [`IngestAck`] payload after the WAL fsync.
pub const KIND_INGEST: u8 = 0x10;
/// Frame kind: stats scrape — returns the server's live metrics snapshot
/// (Prometheus text or JSON) or its slow-query log, per the request's
/// [`StatsFormat`] byte. Kinds `0xE0..=0xEF` are the admin space; an admin
/// kind a server does not implement is refused with
/// [`ErrorCode::AdminUnsupported`] (not `BadFrame`), so newer clients can
/// probe older servers safely.
pub const KIND_STATS: u8 = 0xE0;
/// Frame kind: health probe — returns a readiness verdict
/// ([`HealthReport`]: drain state, queue saturation, WAL truncations,
/// compactor lag, resident collections).
pub const KIND_HEALTH: u8 = 0xE1;
/// Frame kind: list the registry's collections ([`CollectionInfo`] rows).
pub const KIND_COLLECTIONS: u8 = 0xE2;
/// Frame kind: attach a collection by name — the server validates its
/// directory under the collections root and registers it (the checkpoint
/// still loads lazily on first query).
pub const KIND_ATTACH: u8 = 0xE3;
/// Frame kind: detach a collection by name — evicts it and stops routing
/// to it. Refused with [`ErrorCode::IngestRejected`] while the collection
/// has pending WAL ops or an in-flight compaction.
pub const KIND_DETACH: u8 = 0xE4;
/// First byte of the admin kind space (`0xE0..=0xEF`).
pub const ADMIN_KIND_MIN: u8 = 0xE0;
/// Last byte of the admin kind space (`0xE0..=0xEF`).
pub const ADMIN_KIND_MAX: u8 = 0xEF;
/// Frame kind: ping (liveness / readiness probe).
pub const KIND_PING: u8 = 0xF0;
/// Frame kind: graceful-shutdown request (honored only when the server was
/// started with remote shutdown allowed).
pub const KIND_SHUTDOWN: u8 = 0xF1;
/// Default cap on payload bytes; larger frames are refused with
/// [`ProtoError::FrameTooLarge`] before any allocation happens.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;
/// Largest query batch a single frame may carry.
pub const MAX_BATCH_PER_FRAME: usize = 1 << 16;

/// Typed protocol failure. `Io` is transport trouble; everything else means
/// the peer sent bytes that are not a well-formed `SLP1` frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Reading or writing the socket failed.
    Io(io::Error),
    /// The first four bytes were not `SLP1`.
    BadMagic([u8; 4]),
    /// The version byte names a revision this side does not speak.
    UnsupportedVersion(u8),
    /// The declared payload length exceeds the configured cap.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The payload failed its CRC-32 check.
    BadCrc {
        /// CRC declared in the header.
        declared: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The payload did not decode as the declared kind's body.
    BadPayload(WireDecodeError),
    /// The kind byte is neither a task code nor a control kind.
    UnknownKind(u8),
    /// The peer answered with a frame-level error code.
    Remote(ErrorCode),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want \"SLP1\")"),
            ProtoError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {VERSION})")
            }
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::BadCrc { declared, actual } => {
                write!(f, "payload crc mismatch: header says {declared:#010x}, got {actual:#010x}")
            }
            ProtoError::BadPayload(e) => write!(f, "bad payload: {e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            ProtoError::Remote(code) => write!(f, "peer refused the frame: {code}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireDecodeError> for ProtoError {
    fn from(e: WireDecodeError) -> Self {
        ProtoError::BadPayload(e)
    }
}

/// Error codes carried in response status bytes. Codes 1–15 are the
/// [`ServeError`] codes (runtime outcomes); 16+ are protocol-level refusals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A [`ServeError`] produced by the runtime (shed, drain, panic, lost,
    /// unanswerable query).
    Serve(ServeError),
    /// The frame addressed a task this server is not serving.
    TaskMismatch,
    /// The frame (or its payload) failed structural validation.
    BadFrame,
    /// The declared payload length exceeded the server's cap.
    FrameTooLarge,
    /// The version byte named a revision the server does not speak.
    UnsupportedVersion,
    /// A shutdown frame arrived but remote shutdown is not allowed.
    ShutdownNotAllowed,
    /// An ingest frame addressed an immutable collection (no `wal/`).
    IngestUnsupported,
    /// The mutation was rejected before logging (empty set, out-of-vocab
    /// element) — nothing was made durable.
    IngestRejected,
    /// The durability layer failed; the mutation was **not** acknowledged.
    IngestFailed,
    /// An admin frame (kind `0xE0..=0xEF`) the server does not implement.
    /// Distinct from [`ErrorCode::BadFrame`] so probing a newer admin kind
    /// against an older server is a typed refusal, not stream corruption.
    AdminUnsupported,
    /// The frame addressed a collection this server does not host (or an
    /// empty collection id reached a server with no default collection).
    UnknownCollection,
    /// The collection's per-tenant admission quota is exhausted. Distinct
    /// from [`ServeError::Overloaded`] (global queue shed): *this* tenant
    /// is over its budget while the server may be otherwise idle.
    TenantOverloaded,
    /// The collection exists but its checkpoint is still loading (another
    /// request triggered the lazy load). Retry shortly.
    CollectionLoading,
}

impl ErrorCode {
    /// The stable wire byte.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::Serve(e) => e.code(),
            ErrorCode::TaskMismatch => 16,
            ErrorCode::BadFrame => 17,
            ErrorCode::FrameTooLarge => 18,
            ErrorCode::UnsupportedVersion => 19,
            ErrorCode::ShutdownNotAllowed => 20,
            ErrorCode::IngestUnsupported => 21,
            ErrorCode::IngestRejected => 22,
            ErrorCode::IngestFailed => 23,
            ErrorCode::AdminUnsupported => 24,
            ErrorCode::UnknownCollection => 25,
            ErrorCode::TenantOverloaded => 26,
            ErrorCode::CollectionLoading => 27,
        }
    }

    /// Decodes a nonzero status byte; unknown codes map to [`ErrorCode::BadFrame`]
    /// is *not* done — they return `None` so new codes fail loudly.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        if let Some(serve) = ServeError::from_code(code) {
            return Some(ErrorCode::Serve(serve));
        }
        match code {
            16 => Some(ErrorCode::TaskMismatch),
            17 => Some(ErrorCode::BadFrame),
            18 => Some(ErrorCode::FrameTooLarge),
            19 => Some(ErrorCode::UnsupportedVersion),
            20 => Some(ErrorCode::ShutdownNotAllowed),
            21 => Some(ErrorCode::IngestUnsupported),
            22 => Some(ErrorCode::IngestRejected),
            23 => Some(ErrorCode::IngestFailed),
            24 => Some(ErrorCode::AdminUnsupported),
            25 => Some(ErrorCode::UnknownCollection),
            26 => Some(ErrorCode::TenantOverloaded),
            27 => Some(ErrorCode::CollectionLoading),
            _ => None,
        }
    }

    /// Stable snake_case label (the `code` label on protocol-error metrics).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Serve(e) => e.label(),
            ErrorCode::TaskMismatch => "task_mismatch",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::ShutdownNotAllowed => "shutdown_not_allowed",
            ErrorCode::IngestUnsupported => "ingest_unsupported",
            ErrorCode::IngestRejected => "ingest_rejected",
            ErrorCode::IngestFailed => "ingest_failed",
            ErrorCode::AdminUnsupported => "admin_unsupported",
            ErrorCode::UnknownCollection => "unknown_collection",
            ErrorCode::TenantOverloaded => "tenant_overloaded",
            ErrorCode::CollectionLoading => "collection_loading",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Serve(e) => write!(f, "{e}"),
            other => f.write_str(other.label()),
        }
    }
}

/// One decoded frame: kind byte, request id, collection address, raw body
/// (CRC-verified, collection field stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Task code (`0..=2`) or control kind (`0xF0` ping, `0xF1` shutdown).
    pub kind: u8,
    /// Request id, echoed verbatim by the responder.
    pub id: u64,
    /// The collection the frame addresses; `None` for an empty id, which
    /// means the default collection.
    pub collection: Option<String>,
    /// CRC-verified body bytes (the payload after the collection field).
    pub payload: Vec<u8>,
}

impl Frame {
    /// The task this frame addresses, if its kind byte is a task code.
    pub fn task(&self) -> Option<WireTask> {
        WireTask::from_code(self.kind)
    }
}

/// Serializes one frame: the body is prefixed with the length-prefixed
/// collection id (`None` or `Some("")` → length 0, the default collection)
/// and the CRC covers both.
pub fn encode_frame_v2(kind: u8, id: u64, collection: Option<&str>, payload: &[u8]) -> Vec<u8> {
    let name = collection.unwrap_or("");
    let mut full = Vec::with_capacity(1 + name.len() + payload.len());
    setlearn::wire::encode_collection_id(&mut full, name);
    full.extend_from_slice(payload);
    let mut out = Vec::with_capacity(HEADER_LEN + full.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(full.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&full).to_le_bytes());
    out.extend_from_slice(&full);
    out
}

/// Reads exactly one frame from `r`, verifying magic, version, size cap and
/// CRC, and stripping the collection id. The version check happens
/// *before* the length is trusted, and the length check before anything is
/// allocated, so a hostile peer cannot make the server allocate unbounded
/// memory or misparse another revision. A malformed collection id is
/// [`ProtoError::BadPayload`] (or [`ProtoError::BadCrc`] if bits flipped),
/// never a misparse of the body.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, ProtoError> {
    read_frame_or_reject(r, max_payload).map_err(|rejected| rejected.error)
}

/// A frame [`read_frame_or_reject`] refused, with the kind and id its
/// header named (both 0 when the header was unreadable or not `SLP1`), so
/// a server can address the refusal to the request.
pub(crate) struct Rejected {
    pub(crate) error: ProtoError,
    pub(crate) kind: u8,
    pub(crate) id: u64,
}

/// The one frame decoder, shared by [`read_frame`] and the server's polled
/// connection reader: every header, CRC and collection-id check lives here.
pub(crate) fn read_frame_or_reject(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Frame, Rejected> {
    let mut header = [0u8; HEADER_LEN];
    let unaddressed = |error: ProtoError| Rejected { error, kind: 0, id: 0 };
    r.read_exact(&mut header).map_err(|e| unaddressed(e.into()))?;
    let magic: [u8; 4] = header[0..4].try_into().expect("fixed slice");
    if magic != MAGIC {
        return Err(unaddressed(ProtoError::BadMagic(magic)));
    }
    let kind = header[5];
    let id = u64::from_le_bytes(header[6..14].try_into().expect("fixed slice"));
    let reject = |error: ProtoError| Rejected { error, kind, id };
    if header[4] != VERSION {
        return Err(reject(ProtoError::UnsupportedVersion(header[4])));
    }
    let len = u32::from_le_bytes(header[14..18].try_into().expect("fixed slice")) as usize;
    let declared = u32::from_le_bytes(header[18..22].try_into().expect("fixed slice"));
    if len > max_payload {
        return Err(reject(ProtoError::FrameTooLarge { len, max: max_payload }));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| reject(e.into()))?;
    let actual = crc32(&payload);
    if actual != declared {
        return Err(reject(ProtoError::BadCrc { declared, actual }));
    }
    let mut body = payload.as_slice();
    let collection =
        setlearn::wire::decode_collection_id(&mut body).map_err(|e| reject(e.into()))?;
    let id_len = len - body.len();
    payload.drain(..id_len);
    Ok(Frame { kind, id, collection, payload })
}

// ---------------------------------------------------------------------------
// Request / response payload bodies
// ---------------------------------------------------------------------------

/// Encodes a query batch into a request payload.
pub fn encode_request_batch(queries: &[QueryRequest]) -> Vec<u8> {
    encode_request_batch_traced(queries, None)
}

/// Encodes a query batch with an optional client-supplied trace id.
///
/// The id rides as 8 extra little-endian bytes *after* the batch — absent
/// entirely when `None`, so default clients stay byte-identical to the
/// pre-tracing encoding (and keep working against servers that reject
/// trailing bytes). Suppliers of a trace id need a server new enough to
/// understand the extension.
pub fn encode_request_batch_traced(queries: &[QueryRequest], trace_id: Option<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + queries.len() * 16 + 8);
    out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for q in queries {
        q.encode(&mut out);
    }
    if let Some(id) = trace_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Decodes a request payload into its query batch plus the optional
/// client-supplied trace id (exactly 8 trailing bytes after the batch; zero
/// trailing bytes means no id; any other remainder is trailing garbage).
pub fn decode_request_batch(
    mut payload: &[u8],
) -> Result<(Vec<QueryRequest>, Option<u64>), ProtoError> {
    let count = take_count(&mut payload, "batch")?;
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        queries.push(QueryRequest::decode(&mut payload)?);
    }
    let trace_id = if payload.len() == 8 {
        let id = u64::from_le_bytes(payload.try_into().expect("checked length"));
        payload = &payload[8..];
        Some(id)
    } else {
        None
    };
    expect_consumed(payload)?;
    Ok((queries, trace_id))
}

/// Per-query outcome inside an OK response frame.
pub type WireOutcome = Result<QueryResponse, ErrorCode>;

/// Encodes an OK response payload: frame status 0, then one status byte (and
/// body on success) per query.
pub fn encode_response_batch(outcomes: &[WireOutcome]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + outcomes.len() * 16);
    out.push(0);
    out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
    for outcome in outcomes {
        match outcome {
            Ok(response) => {
                out.push(0);
                response.encode(&mut out);
            }
            Err(code) => out.push(code.code()),
        }
    }
    out
}

/// Encodes a frame-level error response payload.
pub fn encode_error_response(code: ErrorCode) -> Vec<u8> {
    vec![code.code()]
}

/// Decodes a response payload: either the per-query outcomes or the
/// frame-level error, surfaced as [`ProtoError::Remote`].
pub fn decode_response_batch(mut payload: &[u8]) -> Result<Vec<WireOutcome>, ProtoError> {
    take_reply_status(&mut payload, "frame status")?;
    let count = take_count(&mut payload, "batch")?;
    let mut outcomes = Vec::with_capacity(count);
    for _ in 0..count {
        let status = take_status(&mut payload)?;
        if status == 0 {
            outcomes.push(Ok(QueryResponse::decode(&mut payload)?));
        } else {
            outcomes.push(Err(error_code(status, "query status")?));
        }
    }
    expect_consumed(payload)?;
    Ok(outcomes)
}

// ---------------------------------------------------------------------------
// Ingest payload bodies (kind 0x10)
// ---------------------------------------------------------------------------

/// One durable mutation: `op u8` (0 insert, 1 delete), `count u32`, then
/// `count × u32` element ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRequest {
    /// `true` deletes one occurrence; `false` inserts.
    pub delete: bool,
    /// Raw element ids (the server canonicalizes).
    pub elements: Vec<u32>,
}

/// Encodes an ingest request payload.
pub fn encode_ingest_request(request: &IngestRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + request.elements.len() * 4);
    out.push(u8::from(request.delete));
    out.extend_from_slice(&(request.elements.len() as u32).to_le_bytes());
    for &id in &request.elements {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Decodes an ingest request payload.
pub fn decode_ingest_request(mut payload: &[u8]) -> Result<IngestRequest, ProtoError> {
    let op = take_status(&mut payload)?;
    let delete = match op {
        0 => false,
        1 => true,
        tag => {
            return Err(ProtoError::BadPayload(WireDecodeError::BadTag { what: "ingest op", tag }))
        }
    };
    let count = take_count(&mut payload, "ingest set")?;
    if payload.len() != count * 4 {
        return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
    }
    let elements = payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
        .collect();
    Ok(IngestRequest { delete, elements })
}

/// Acknowledgement of a durable mutation: the record is fsync'd in the
/// server's WAL before this is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// WAL sequence the mutation committed at.
    pub seq: u64,
    /// Whether it changed the logical collection (`false` for a delete
    /// with no remaining occurrence).
    pub applied: bool,
}

/// Encodes an OK ingest response payload: status 0, `applied u8`, `seq u64`.
pub fn encode_ingest_ack(ack: IngestAck) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    out.push(0);
    out.push(u8::from(ack.applied));
    out.extend_from_slice(&ack.seq.to_le_bytes());
    out
}

/// Decodes an ingest response payload; a nonzero status surfaces as
/// [`ProtoError::Remote`].
pub fn decode_ingest_ack(mut payload: &[u8]) -> Result<IngestAck, ProtoError> {
    take_reply_status(&mut payload, "ingest status")?;
    let applied = take_bool(&mut payload, "ingest applied flag")?;
    let seq = take_u64(&mut payload)?;
    expect_consumed(payload)?;
    Ok(IngestAck { seq, applied })
}

// ---------------------------------------------------------------------------
// Admin payload bodies (kinds 0xE0 stats, 0xE1 health)
// ---------------------------------------------------------------------------

/// What a stats frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// Prometheus text exposition of the live metrics registry.
    #[default]
    Prometheus,
    /// JSON [`setlearn_obs::RegistrySnapshot`] of the live registry.
    Json,
    /// The slow-query ring as JSONL, oldest record first.
    SlowQueries,
}

impl StatsFormat {
    /// Stable wire byte.
    pub fn code(self) -> u8 {
        match self {
            StatsFormat::Prometheus => 0,
            StatsFormat::Json => 1,
            StatsFormat::SlowQueries => 2,
        }
    }

    /// Decodes the wire byte.
    pub fn from_code(code: u8) -> Option<StatsFormat> {
        match code {
            0 => Some(StatsFormat::Prometheus),
            1 => Some(StatsFormat::Json),
            2 => Some(StatsFormat::SlowQueries),
            _ => None,
        }
    }
}

/// Encodes a stats request payload: one format byte.
pub fn encode_stats_request(format: StatsFormat) -> Vec<u8> {
    vec![format.code()]
}

/// Decodes a stats request payload.
pub fn decode_stats_request(mut payload: &[u8]) -> Result<StatsFormat, ProtoError> {
    let code = take_status(&mut payload)?;
    let format = StatsFormat::from_code(code)
        .ok_or(ProtoError::BadPayload(WireDecodeError::BadTag { what: "stats format", tag: code }))?;
    expect_consumed(payload)?;
    Ok(format)
}

/// Encodes an OK stats response payload: status 0, `u32` byte length, then
/// the UTF-8 text (Prometheus exposition, JSON snapshot, or JSONL).
pub fn encode_stats_reply(text: &str) -> Vec<u8> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(5 + bytes.len());
    out.push(0);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decodes a stats response payload; a nonzero status surfaces as
/// [`ProtoError::Remote`].
pub fn decode_stats_reply(mut payload: &[u8]) -> Result<String, ProtoError> {
    take_reply_status(&mut payload, "stats status")?;
    if payload.len() < 4 {
        return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
    }
    let (head, rest) = payload.split_at(4);
    let len = u32::from_le_bytes(head.try_into().expect("split_at(4)")) as usize;
    if rest.len() != len {
        return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
    }
    String::from_utf8(rest.to_vec()).map_err(|_| {
        ProtoError::BadPayload(WireDecodeError::BadTag { what: "stats utf8", tag: 0 })
    })
}

// ---------------------------------------------------------------------------
// Collection admin bodies (kinds 0xE2 list, 0xE3 attach, 0xE4 detach)
// ---------------------------------------------------------------------------

/// One registry row in a [`KIND_COLLECTIONS`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInfo {
    /// Collection id.
    pub name: String,
    /// Task it serves.
    pub task: WireTask,
    /// Whether its runtime is currently resident (loaded) vs. cold.
    pub resident: bool,
    /// WAL ops awaiting compaction (0 for immutable or cold collections).
    pub pending_ops: u64,
    /// The registry's resident-size estimate in bytes.
    pub disk_bytes: u64,
}

/// Encodes an OK collections-list reply: status 0, `u32` count, then per
/// collection the length-prefixed name, task code, resident flag, pending
/// ops and byte size.
pub fn encode_collections_reply(rows: &[CollectionInfo]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + rows.len() * 32);
    out.push(0);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        setlearn::wire::encode_collection_id(&mut out, &row.name);
        out.push(row.task.code());
        out.push(u8::from(row.resident));
        out.extend_from_slice(&row.pending_ops.to_le_bytes());
        out.extend_from_slice(&row.disk_bytes.to_le_bytes());
    }
    out
}

/// Decodes a collections-list reply; a nonzero status surfaces as
/// [`ProtoError::Remote`].
pub fn decode_collections_reply(mut payload: &[u8]) -> Result<Vec<CollectionInfo>, ProtoError> {
    take_reply_status(&mut payload, "collections status")?;
    let count = take_count(&mut payload, "collections")?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let name = take_collection_name(&mut payload)?;
        let code = take_status(&mut payload)?;
        let task = WireTask::from_code(code)
            .ok_or(ProtoError::BadPayload(WireDecodeError::BadTag { what: "task", tag: code }))?;
        let resident = take_bool(&mut payload, "resident flag")?;
        let pending_ops = take_u64(&mut payload)?;
        let disk_bytes = take_u64(&mut payload)?;
        rows.push(CollectionInfo { name, task, resident, pending_ops, disk_bytes });
    }
    expect_consumed(payload)?;
    Ok(rows)
}

/// Encodes an attach/detach request body: just the length-prefixed name.
pub fn encode_collection_name(name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + name.len());
    setlearn::wire::encode_collection_id(&mut out, name);
    out
}

/// Decodes an attach/detach request body.
pub fn decode_collection_name(mut payload: &[u8]) -> Result<String, ProtoError> {
    let name = take_collection_name(&mut payload)?;
    expect_consumed(payload)?;
    Ok(name)
}

/// Decodes an attach/detach acknowledgement: an empty-bodied status-0
/// payload, or a frame-level error surfaced as [`ProtoError::Remote`].
pub fn decode_admin_ack(mut payload: &[u8]) -> Result<(), ProtoError> {
    take_reply_status(&mut payload, "admin status")?;
    expect_consumed(payload)?;
    Ok(())
}

/// The server's readiness verdict, answered to a health frame.
///
/// `ready` is the verdict (fail a load-balancer check on `false`); the rest
/// are the evidence. Verdict rules live with the server (see `DESIGN.md`
/// §13): draining or a saturated admission queue mean not ready; WAL
/// truncations and compactor lag are reported as reasons but do not by
/// themselves flip readiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Overall verdict: safe to route new traffic here.
    pub ready: bool,
    /// A graceful drain is in progress (shutdown requested, still answering).
    pub draining: bool,
    /// Requests buffered in the most saturated resident's admission queue.
    pub queue_depth: u64,
    /// That queue's capacity.
    pub queue_capacity: u64,
    /// WAL tail truncations observed at recovery (process lifetime).
    pub wal_truncations: u64,
    /// Mutations in the delta overlays awaiting compaction, summed over
    /// the resident collections (0 when all are immutable).
    pub compactor_pending: u64,
    /// Human-readable degradation reasons, empty when fully healthy.
    pub reasons: Vec<String>,
    /// Collections currently resident in the registry.
    pub resident_collections: u32,
    /// Per-collection pending-ingest depth (WAL ops awaiting compaction),
    /// resident collections only.
    pub collection_pending: Vec<(String, u64)>,
}

/// Encodes an OK health response payload: status 0, the ready and
/// draining flags, queue depth and capacity, WAL truncations, compactor
/// lag, the count-prefixed reasons, then the resident-collection count and
/// the count-prefixed per-collection pending ingest.
pub fn encode_health_report(report: &HealthReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(0);
    out.push(u8::from(report.ready));
    out.push(u8::from(report.draining));
    out.extend_from_slice(&report.queue_depth.to_le_bytes());
    out.extend_from_slice(&report.queue_capacity.to_le_bytes());
    out.extend_from_slice(&report.wal_truncations.to_le_bytes());
    out.extend_from_slice(&report.compactor_pending.to_le_bytes());
    out.extend_from_slice(&(report.reasons.len() as u32).to_le_bytes());
    for reason in &report.reasons {
        let bytes = reason.as_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(&report.resident_collections.to_le_bytes());
    out.extend_from_slice(&(report.collection_pending.len() as u32).to_le_bytes());
    for (name, pending) in &report.collection_pending {
        setlearn::wire::encode_collection_id(&mut out, name);
        out.extend_from_slice(&pending.to_le_bytes());
    }
    out
}

/// Decodes a health response payload; a nonzero status surfaces as
/// [`ProtoError::Remote`].
pub fn decode_health_report(mut payload: &[u8]) -> Result<HealthReport, ProtoError> {
    take_reply_status(&mut payload, "health status")?;
    let ready = take_bool(&mut payload, "health ready flag")?;
    let draining = take_bool(&mut payload, "health draining flag")?;
    let queue_depth = take_u64(&mut payload)?;
    let queue_capacity = take_u64(&mut payload)?;
    let wal_truncations = take_u64(&mut payload)?;
    let compactor_pending = take_u64(&mut payload)?;
    let reason_count = take_count(&mut payload, "health reasons")?;
    let mut reasons = Vec::with_capacity(reason_count);
    for _ in 0..reason_count {
        let len = take_count(&mut payload, "health reason")?;
        if payload.len() < len {
            return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
        }
        let (head, rest) = payload.split_at(len);
        payload = rest;
        reasons.push(String::from_utf8(head.to_vec()).map_err(|_| {
            ProtoError::BadPayload(WireDecodeError::BadTag { what: "health reason utf8", tag: 0 })
        })?);
    }
    let resident_collections = take_count(&mut payload, "resident collections")? as u32;
    let count = take_count(&mut payload, "collection pending")?;
    let mut collection_pending = Vec::with_capacity(count);
    for _ in 0..count {
        collection_pending.push((take_collection_name(&mut payload)?, take_u64(&mut payload)?));
    }
    expect_consumed(payload)?;
    Ok(HealthReport {
        ready,
        draining,
        queue_depth,
        queue_capacity,
        wal_truncations,
        compactor_pending,
        reasons,
        resident_collections,
        collection_pending,
    })
}

/// Opens a reply payload: status 0 continues with the body; a nonzero
/// status is the peer's frame-level refusal, [`ProtoError::Remote`].
fn take_reply_status(payload: &mut &[u8], what: &'static str) -> Result<(), ProtoError> {
    match take_status(payload)? {
        0 => Ok(()),
        status => Err(ProtoError::Remote(error_code(status, what)?)),
    }
}

/// A nonzero status byte as its [`ErrorCode`]; a code this side does not
/// know is a bad tag, so new codes fail loudly.
fn error_code(status: u8, what: &'static str) -> Result<ErrorCode, ProtoError> {
    ErrorCode::from_code(status)
        .ok_or(ProtoError::BadPayload(WireDecodeError::BadTag { what, tag: status }))
}

/// A length-prefixed collection name that must not be empty.
fn take_collection_name(payload: &mut &[u8]) -> Result<String, ProtoError> {
    setlearn::wire::decode_collection_id(payload)?.ok_or(ProtoError::BadPayload(
        WireDecodeError::BadLength { what: "collection name", len: 0 },
    ))
}

fn take_bool(payload: &mut &[u8], what: &'static str) -> Result<bool, ProtoError> {
    match take_status(payload)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(ProtoError::BadPayload(WireDecodeError::BadTag { what, tag })),
    }
}

fn take_u64(payload: &mut &[u8]) -> Result<u64, ProtoError> {
    if payload.len() < 8 {
        return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
    }
    let (head, rest) = payload.split_at(8);
    *payload = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("split_at(8)")))
}

fn take_status(payload: &mut &[u8]) -> Result<u8, ProtoError> {
    let (&status, rest) =
        payload.split_first().ok_or(ProtoError::BadPayload(WireDecodeError::Truncated))?;
    *payload = rest;
    Ok(status)
}

fn take_count(payload: &mut &[u8], what: &'static str) -> Result<usize, ProtoError> {
    if payload.len() < 4 {
        return Err(ProtoError::BadPayload(WireDecodeError::Truncated));
    }
    let (head, rest) = payload.split_at(4);
    *payload = rest;
    let count = u32::from_le_bytes(head.try_into().expect("split_at(4)")) as usize;
    if count > MAX_BATCH_PER_FRAME {
        return Err(ProtoError::BadPayload(WireDecodeError::BadLength { what, len: count }));
    }
    Ok(count)
}

fn expect_consumed(payload: &[u8]) -> Result<(), ProtoError> {
    if payload.is_empty() {
        Ok(())
    } else {
        // Trailing garbage means the frame lied about its structure.
        Err(ProtoError::BadPayload(WireDecodeError::BadLength {
            what: "trailing bytes",
            len: payload.len(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn::tasks::QueryOutcome;

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let payload = encode_request_batch(&[
            QueryRequest::new(vec![1, 2, 3]),
            QueryRequest::new(vec![]),
            QueryRequest::new(vec![u32::MAX]),
        ]);
        let buf = encode_frame_v2(WireTask::Bloom.code(), 77, None, &payload);
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.kind, WireTask::Bloom.code());
        assert_eq!(frame.task(), Some(WireTask::Bloom));
        assert_eq!(frame.id, 77);
        let (queries, trace_id) = decode_request_batch(&frame.payload).unwrap();
        assert_eq!(queries.len(), 3);
        assert_eq!(queries[0].elements, vec![1, 2, 3]);
        assert_eq!(trace_id, None);
    }

    #[test]
    fn trace_id_rides_as_optional_trailing_bytes() {
        let queries = vec![QueryRequest::new(vec![1, 2]), QueryRequest::new(vec![3])];
        // Without an id the traced encoding is byte-identical to the plain one.
        assert_eq!(encode_request_batch_traced(&queries, None), encode_request_batch(&queries));
        let payload = encode_request_batch_traced(&queries, Some(0xDEAD_BEEF_CAFE_F00D));
        let (back, trace_id) = decode_request_batch(&payload).unwrap();
        assert_eq!(back, queries);
        assert_eq!(trace_id, Some(0xDEAD_BEEF_CAFE_F00D));
        // A remainder that is not exactly 0 or 8 bytes is still garbage.
        let mut ragged = encode_request_batch(&queries);
        ragged.extend_from_slice(&[1, 2, 3]);
        assert!(decode_request_batch(&ragged).is_err());
    }

    #[test]
    fn stats_payloads_roundtrip() {
        for format in [StatsFormat::Prometheus, StatsFormat::Json, StatsFormat::SlowQueries] {
            let payload = encode_stats_request(format);
            assert_eq!(decode_stats_request(&payload).unwrap(), format);
        }
        assert!(decode_stats_request(&[9]).is_err());
        assert!(decode_stats_request(&[0, 0]).is_err());

        let text = "setlearn_serve_completed_total 5\n";
        let reply = encode_stats_reply(text);
        assert_eq!(decode_stats_reply(&reply).unwrap(), text);
        assert_eq!(decode_stats_reply(&encode_stats_reply("")).unwrap(), "");
        // Remote refusal surfaces typed.
        match decode_stats_reply(&encode_error_response(ErrorCode::AdminUnsupported)) {
            Err(ProtoError::Remote(ErrorCode::AdminUnsupported)) => {}
            other => panic!("expected remote admin_unsupported, got {other:?}"),
        }
        // Truncated length prefix / short body are typed errors.
        assert!(decode_stats_reply(&[0, 5, 0]).is_err());
        assert!(decode_stats_reply(&[0, 5, 0, 0, 0, b'a']).is_err());
    }

    #[test]
    fn health_payloads_roundtrip() {
        let report = HealthReport {
            ready: false,
            draining: true,
            queue_depth: 12,
            queue_capacity: 1024,
            wal_truncations: 1,
            compactor_pending: 37,
            reasons: vec!["draining".to_string(), "compactor lag: 37 pending ops".to_string()],
            resident_collections: 2,
            collection_pending: vec![("tenant-a".to_string(), 37), ("tenant-b".to_string(), 0)],
        };
        let payload = encode_health_report(&report);
        assert_eq!(decode_health_report(&payload).unwrap(), report);

        let healthy = HealthReport {
            ready: true,
            draining: false,
            queue_depth: 0,
            queue_capacity: 1024,
            wal_truncations: 0,
            compactor_pending: 0,
            reasons: vec![],
            resident_collections: 1,
            collection_pending: vec![],
        };
        assert_eq!(decode_health_report(&encode_health_report(&healthy)).unwrap(), healthy);

        match decode_health_report(&encode_error_response(ErrorCode::AdminUnsupported)) {
            Err(ProtoError::Remote(ErrorCode::AdminUnsupported)) => {}
            other => panic!("expected remote admin_unsupported, got {other:?}"),
        }
        // One body layout: truncation anywhere is a typed error, never a
        // panic or a shorter body that happens to parse.
        for cut in 0..payload.len() {
            assert!(decode_health_report(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn collection_admin_payloads_roundtrip() {
        let rows = vec![
            CollectionInfo {
                name: "tenant-a".to_string(),
                task: WireTask::Cardinality,
                resident: true,
                pending_ops: 12,
                disk_bytes: 4096,
            },
            CollectionInfo {
                name: "tenant-b".to_string(),
                task: WireTask::Bloom,
                resident: false,
                pending_ops: 0,
                disk_bytes: 99,
            },
        ];
        let payload = encode_collections_reply(&rows);
        assert_eq!(decode_collections_reply(&payload).unwrap(), rows);
        assert_eq!(decode_collections_reply(&encode_collections_reply(&[])).unwrap(), vec![]);
        for cut in 1..payload.len() {
            assert!(decode_collections_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
        match decode_collections_reply(&encode_error_response(ErrorCode::AdminUnsupported)) {
            Err(ProtoError::Remote(ErrorCode::AdminUnsupported)) => {}
            other => panic!("expected remote admin_unsupported, got {other:?}"),
        }

        let name_payload = encode_collection_name("tenant-a");
        assert_eq!(decode_collection_name(&name_payload).unwrap(), "tenant-a");
        assert!(decode_collection_name(&[0]).is_err(), "empty name rejected");
        assert!(decode_collection_name(&[]).is_err());

        assert_eq!(decode_admin_ack(&[0]).unwrap(), ());
        match decode_admin_ack(&encode_error_response(ErrorCode::UnknownCollection)) {
            Err(ProtoError::Remote(ErrorCode::UnknownCollection)) => {}
            other => panic!("expected remote unknown_collection, got {other:?}"),
        }
    }

    /// A structurally valid frame (magic, version, CRC) around an
    /// arbitrary payload, collection field included.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&[VERSION, 0]);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frames_carry_a_collection_and_strip_it_from_the_payload() {
        let payload = encode_request_batch(&[QueryRequest::new(vec![1, 2, 3])]);
        // A named collection round-trips and is stripped from the payload
        // the caller sees.
        let named = encode_frame_v2(0, 7, Some("tenant-a"), &payload);
        assert_eq!(named[4], VERSION);
        let frame = read_frame(&mut named.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.collection.as_deref(), Some("tenant-a"));
        assert_eq!(frame.payload, payload);
        // An empty id means "default collection".
        let default = encode_frame_v2(0, 7, None, &payload);
        assert_eq!(default, encode_frame_v2(0, 7, Some(""), &payload));
        let frame = read_frame(&mut default.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.collection, None);
        assert_eq!(frame.payload, payload);
        // Layout: header, a zero id length, then the body verbatim.
        assert_eq!(default.len(), HEADER_LEN + 1 + payload.len());
        assert_eq!(default[HEADER_LEN], 0);
        assert_eq!(&default[HEADER_LEN + 1..], payload.as_slice());
    }

    #[test]
    fn corrupted_collection_fields_fail_typed() {
        let payload = encode_request_batch(&[QueryRequest::new(vec![9])]);
        let good = encode_frame_v2(0, 1, Some("tenant-a"), &payload);
        // Any flipped bit in the collection field trips the CRC.
        for pos in HEADER_LEN..HEADER_LEN + 9 {
            let mut bad = good.clone();
            bad[pos] ^= 0x04;
            assert!(matches!(
                read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME_BYTES),
                Err(ProtoError::BadCrc { .. })
            ));
        }
        // A CRC-consistent but over-long declared id length is BadPayload.
        let mut over = Vec::new();
        over.push(200u8); // declared id length > MAX_COLLECTION_ID_LEN
        over.extend_from_slice(&payload);
        assert!(matches!(
            read_frame(&mut raw_frame(&over).as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(ProtoError::BadPayload(WireDecodeError::BadLength { .. }))
        ));
        // A CRC-consistent id that overruns the payload is truncation.
        assert!(matches!(
            read_frame(&mut raw_frame(&[5, b'a', b'b']).as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(ProtoError::BadPayload(WireDecodeError::Truncated))
        ));
        // An id with bytes outside the alphabet is rejected.
        let mut spaced = Vec::new();
        spaced.extend_from_slice(&[3, b'a', b' ', b'b']);
        spaced.extend_from_slice(&payload);
        assert!(matches!(
            read_frame(&mut raw_frame(&spaced).as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(ProtoError::BadPayload(WireDecodeError::BadTag { .. }))
        ));
        // Truncating the stream anywhere is Io(UnexpectedEof), not a panic.
        for cut in 0..good.len() {
            match read_frame(&mut good[..cut].as_ref(), DEFAULT_MAX_FRAME_BYTES) {
                Err(ProtoError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}")
                }
                other => panic!("cut {cut}: expected eof, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_frames_are_rejected_typed() {
        let payload = encode_request_batch(&[QueryRequest::new(vec![9])]);
        let good = encode_frame_v2(0, 1, None, &payload);

        // Flipped payload bit → BadCrc.
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut flipped.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(ProtoError::BadCrc { .. })
        ));

        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut magic.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(ProtoError::BadMagic(_))
        ));

        // Any version but ours: the retired first revision and a future one.
        for other in [1, 9] {
            let mut version = good.clone();
            version[4] = other;
            match read_frame(&mut version.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
                Err(ProtoError::UnsupportedVersion(v)) => assert_eq!(v, other),
                got => panic!("version {other}: expected unsupported, got {got:?}"),
            }
        }

        // Oversized declared payload is refused before allocation.
        assert!(matches!(
            read_frame(&mut good.as_slice(), 4),
            Err(ProtoError::FrameTooLarge { max: 4, .. })
        ));

        // Truncation anywhere → Io(UnexpectedEof), never a panic.
        for cut in 0..good.len() {
            match read_frame(&mut good[..cut].as_ref(), DEFAULT_MAX_FRAME_BYTES) {
                Err(ProtoError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}")
                }
                other => panic!("cut {cut}: expected eof, got {other:?}"),
            }
        }
    }

    #[test]
    fn response_batches_mix_values_and_typed_errors() {
        let outcomes: Vec<WireOutcome> = vec![
            Ok(QueryOutcome::clean(12.5f64).into()),
            Err(ErrorCode::Serve(ServeError::Overloaded)),
            Ok(QueryOutcome::clean(Some(3usize)).into()),
            Err(ErrorCode::Serve(ServeError::TaskPanicked)),
            Ok(QueryOutcome::clean(true).into()),
        ];
        let payload = encode_response_batch(&outcomes);
        let back = decode_response_batch(&payload).unwrap();
        assert_eq!(back, outcomes);
    }

    #[test]
    fn frame_level_errors_surface_as_remote() {
        let payload = encode_error_response(ErrorCode::TaskMismatch);
        match decode_response_batch(&payload) {
            Err(ProtoError::Remote(ErrorCode::TaskMismatch)) => {}
            other => panic!("expected remote task mismatch, got {other:?}"),
        }
        // Serve errors round-trip distinguishably.
        for serve in [ServeError::Overloaded, ServeError::WorkerLost, ServeError::TaskPanicked] {
            let payload = encode_error_response(ErrorCode::Serve(serve));
            match decode_response_batch(&payload) {
                Err(ProtoError::Remote(ErrorCode::Serve(e))) => assert_eq!(e, serve),
                other => panic!("expected {serve:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_response_batch(&[Ok(QueryOutcome::clean(1.0f64).into())]);
        payload.push(0xAA);
        assert!(matches!(
            decode_response_batch(&payload),
            Err(ProtoError::BadPayload(WireDecodeError::BadLength { .. }))
        ));
    }

    #[test]
    fn error_code_bytes_are_stable() {
        assert_eq!(ErrorCode::Serve(ServeError::Overloaded).code(), 1);
        assert_eq!(ErrorCode::TaskMismatch.code(), 16);
        assert_eq!(ErrorCode::BadFrame.code(), 17);
        assert_eq!(ErrorCode::FrameTooLarge.code(), 18);
        assert_eq!(ErrorCode::UnsupportedVersion.code(), 19);
        assert_eq!(ErrorCode::ShutdownNotAllowed.code(), 20);
        assert_eq!(ErrorCode::IngestUnsupported.code(), 21);
        assert_eq!(ErrorCode::IngestRejected.code(), 22);
        assert_eq!(ErrorCode::IngestFailed.code(), 23);
        assert_eq!(ErrorCode::AdminUnsupported.code(), 24);
        assert_eq!(ErrorCode::UnknownCollection.code(), 25);
        assert_eq!(ErrorCode::TenantOverloaded.code(), 26);
        assert_eq!(ErrorCode::CollectionLoading.code(), 27);
        for code in 1..=27u8 {
            if let Some(decoded) = ErrorCode::from_code(code) {
                assert_eq!(decoded.code(), code);
            }
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(200), None);
    }

    #[test]
    fn ingest_payloads_roundtrip() {
        for request in [
            IngestRequest { delete: false, elements: vec![3, 1, 2] },
            IngestRequest { delete: true, elements: vec![] },
        ] {
            let payload = encode_ingest_request(&request);
            assert_eq!(decode_ingest_request(&payload).unwrap(), request);
        }
        for ack in [
            IngestAck { seq: 0, applied: true },
            IngestAck { seq: u64::MAX, applied: false },
        ] {
            assert_eq!(decode_ingest_ack(&encode_ingest_ack(ack)).unwrap(), ack);
        }
        // Remote refusal surfaces typed.
        match decode_ingest_ack(&encode_error_response(ErrorCode::IngestUnsupported)) {
            Err(ProtoError::Remote(ErrorCode::IngestUnsupported)) => {}
            other => panic!("expected remote ingest_unsupported, got {other:?}"),
        }
        // Garbage op byte / truncated id block are typed errors, not panics.
        assert!(decode_ingest_request(&[7, 0, 0, 0, 0]).is_err());
        assert!(decode_ingest_request(&[0, 2, 0, 0, 0, 1, 0]).is_err());
        assert!(decode_ingest_ack(&[0, 1, 9, 9]).is_err());
    }
}
