//! TCP front-end for the serving runtime: remote clients speak the `SLP1`
//! wire protocol (see [`crate::proto`]) and get the same admission paths —
//! bounded-queue backpressure, natural batching, typed shedding, and
//! [`setlearn::tasks::QueryOutcome`] degradation flags — as in-process
//! callers, without linking the crate.
//!
//! Everything is std-only: a nonblocking [`TcpListener`] accept loop polling
//! a shutdown flag, plus one handler thread per connection. A handler reads
//! one frame at a time (a frame carries a whole query batch), decodes it,
//! canonicalizes the query sets, bulk-submits them into the backend (a
//! [`ServeRuntime`] behind the [`WireBackend`] trait), waits the tickets in
//! order, and writes one response frame.
//! Cross-request batching happens where it always has: in the runtime's
//! worker pool, across connections.
//!
//! ## Robustness
//!
//! * **Read/write timeouts** — a peer that stalls mid-frame (or goes idle
//!   past the read timeout) is disconnected; it cannot pin a handler thread
//!   forever.
//! * **Max-frame-size rejection** — the declared payload length is checked
//!   against the configured cap before any allocation; oversized frames are
//!   answered with [`ErrorCode::FrameTooLarge`] and the connection closed.
//! * **Graceful drain** — [`NetServer::shutdown`] closes the listener
//!   *first* (no new connections), then joins handlers, each of which
//!   finishes answering the frame it already accepted before exiting.
//! * **Typed errors end-to-end** — a shed query, a panicked batch, and a
//!   malformed frame reach the client as distinct [`ErrorCode`]s, not
//!   stringified I/O errors.

use crate::error::ServeError;
use crate::proto::{
    decode_admin_ack, decode_collection_name, decode_collections_reply, decode_health_report,
    decode_ingest_ack, decode_ingest_request, decode_request_batch, decode_response_batch,
    decode_stats_reply, decode_stats_request, encode_collection_name, encode_collections_reply,
    encode_error_response, encode_frame_v2, encode_health_report, encode_ingest_ack,
    encode_ingest_request, encode_request_batch_traced, encode_response_batch,
    encode_stats_reply, encode_stats_request, read_frame, read_frame_or_reject, CollectionInfo,
    ErrorCode, Frame, HealthReport, IngestAck, IngestRequest, ProtoError, StatsFormat,
    WireOutcome, ADMIN_KIND_MAX, ADMIN_KIND_MIN, DEFAULT_MAX_FRAME_BYTES, KIND_ATTACH,
    KIND_COLLECTIONS, KIND_DETACH, KIND_HEALTH, KIND_INGEST, KIND_PING, KIND_SHUTDOWN, KIND_STATS,
};
use crate::registry::{AdminError, CollectionRegistry, ResolveError, Resident};
use crate::request::RequestCtx;
use crate::runtime::ServeRuntime;
use crate::task::StructureTask;
use crate::telemetry::NetTele;
use setlearn::mutable::{MutableSink, MutateError};
use setlearn::tasks::{LearnedSetStructure, QueryOutcome};
use setlearn::wire::{QueryRequest, QueryResponse, WireTask};
use setlearn_data::ElementSet;
use setlearn_obs::{Field, SlowQueryLog, SlowQueryRecord, Stage, DEFAULT_SLOW_LOG_CAPACITY};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Hard cap on a frame's payload bytes; larger declared lengths are
    /// refused with [`ErrorCode::FrameTooLarge`] before any allocation.
    pub max_frame_bytes: usize,
    /// A connection idle (or stalled mid-frame) longer than this is closed.
    pub read_timeout: Duration,
    /// A response write blocked longer than this closes the connection.
    pub write_timeout: Duration,
    /// Whether a `SLP1` shutdown frame may drain the server. Off by
    /// default; the CLI's `--allow-remote-shutdown` turns it on so CI can
    /// stop a serving process deterministically.
    pub allow_remote_shutdown: bool,
    /// Query frames slower than this (frame receipt → response written) are
    /// recorded in the slow-query ring with their per-stage breakdown.
    /// `None` disables the slow-query log.
    pub slow_query_threshold: Option<Duration>,
    /// Slow-query ring capacity; when full, the oldest record is evicted
    /// (and counted as dropped).
    pub slow_log_capacity: usize,
    /// How long a remotely requested shutdown keeps serving before the
    /// listener actually closes. During the grace window health probes
    /// answer *not ready* (so load balancers stop routing here) while
    /// in-flight and newly arriving frames are still answered. Zero (the
    /// default) shuts down immediately.
    pub drain_grace: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            allow_remote_shutdown: false,
            slow_query_threshold: None,
            slow_log_capacity: DEFAULT_SLOW_LOG_CAPACITY,
            drain_grace: Duration::ZERO,
        }
    }
}

/// A claim on one in-flight remote query: redeem it (once) for the query's
/// wire response. Boxed so every task's [`ServeRuntime`] tickets serve
/// through one object-safe backend.
pub type WireTicket = Box<dyn FnOnce() -> Result<QueryResponse, ServeError> + Send>;

/// The serving side of the wire: anything that can admit a batch of
/// canonical query sets and answer them as [`QueryResponse`]s.
///
/// Implemented for [`ServeRuntime`] over any [`StructureTask`] whose output
/// is a wire value. A sharded tenant is such a structure (its `query_batch`
/// folds the per-shard answers), so the TCP front-end is indifferent to
/// sharding.
pub trait WireBackend: Send + Sync {
    /// The task this backend serves; frames addressing a different task are
    /// refused with [`ErrorCode::TaskMismatch`].
    fn wire_task(&self) -> WireTask;

    /// Bulk-admits the batch (one queue-lock acquisition on the runtime
    /// side), returning exactly one ticket per query in order. A shed or
    /// refused query yields a ticket that resolves to its [`ServeError`].
    /// With a tracing context, workers record their queue-wait /
    /// batch-wait / inference stages into the request's breakdown.
    fn submit_wire(&self, sets: Vec<ElementSet>, ctx: Option<Arc<RequestCtx>>) -> Vec<WireTicket>;

    /// Applies one durable mutation. The default refuses with
    /// [`ErrorCode::IngestUnsupported`]: plain model-serving backends are
    /// immutable; wrap one in [`MutableBackend`] to accept writes.
    fn submit_ingest(&self, request: IngestRequest) -> Result<IngestAck, ErrorCode> {
        let _ = request;
        Err(ErrorCode::IngestUnsupported)
    }

    /// `(queue_depth, queue_capacity)` of the backend's admission queue,
    /// the health probe's saturation input. `(0, 0)` means the backend does
    /// not expose a queue.
    fn queue_stats(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Mutations awaiting compaction (compactor lag); 0 when immutable.
    fn pending_ingest(&self) -> u64 {
        0
    }
}

/// A [`WireBackend`] decorator that adds the durable write path: queries
/// delegate to the wrapped backend, ingest frames go to the
/// [`MutableSink`] (a [`setlearn::mutable::MutableCollection`]), which
/// fsyncs the WAL before the ack is sent.
pub struct MutableBackend {
    inner: Arc<dyn WireBackend>,
    sink: Arc<dyn MutableSink>,
}

impl MutableBackend {
    /// Wraps `inner`, routing ingest frames to `sink`.
    pub fn new(inner: Arc<dyn WireBackend>, sink: Arc<dyn MutableSink>) -> Self {
        MutableBackend { inner, sink }
    }
}

impl WireBackend for MutableBackend {
    fn wire_task(&self) -> WireTask {
        self.inner.wire_task()
    }

    fn submit_wire(&self, sets: Vec<ElementSet>, ctx: Option<Arc<RequestCtx>>) -> Vec<WireTicket> {
        self.inner.submit_wire(sets, ctx)
    }

    fn queue_stats(&self) -> (usize, usize) {
        self.inner.queue_stats()
    }

    fn pending_ingest(&self) -> u64 {
        self.sink.pending_ops()
    }

    fn submit_ingest(&self, request: IngestRequest) -> Result<IngestAck, ErrorCode> {
        match self.sink.ingest(request.delete, &request.elements) {
            Ok(ack) => Ok(IngestAck { seq: ack.seq, applied: ack.applied }),
            // Validation refusals vs durability failures are distinct codes:
            // a client may retry the latter, never the former.
            Err(MutateError::EmptySet | MutateError::OutOfVocab { .. }) => {
                Err(ErrorCode::IngestRejected)
            }
            Err(MutateError::Wal(_)) => Err(ErrorCode::IngestFailed),
        }
    }
}

fn wire_task_of<S: LearnedSetStructure>() -> WireTask {
    S::NAME.parse().expect("LearnedSetStructure::NAME is a wire task label")
}

impl<S> WireBackend for ServeRuntime<StructureTask<S>>
where
    S: LearnedSetStructure + Send + Sync + 'static,
    S::Output: Send + 'static,
    QueryResponse: From<QueryOutcome<S::Output>>,
{
    fn wire_task(&self) -> WireTask {
        wire_task_of::<S>()
    }

    /// Every reader's one door to a served structure, so the one place a
    /// query the model cannot answer is refused: an empty set, or one
    /// naming an id past the vocabulary (on a canonical set, its last id),
    /// resolves to [`ServeError::InvalidQuery`] without being admitted,
    /// and the rest of the batch is answered as if it were alone.
    fn submit_wire(&self, sets: Vec<ElementSet>, ctx: Option<Arc<RequestCtx>>) -> Vec<WireTicket> {
        let vocab = self.task().structure.vocab();
        let answerable = |set: &ElementSet| {
            vocab.is_none_or(|vocab| set.last().is_some_and(|&last| last < vocab))
        };
        let count = sets.len();
        // Positions of the refused queries: allocated only when one is.
        let mut refused = Vec::new();
        let requests = sets.into_iter().enumerate().filter_map(|(i, set)| {
            if answerable(&set) {
                Some((set, ctx.clone()))
            } else {
                refused.push(i);
                None
            }
        });
        let mut admitted = self.submit_many_traced(requests).into_iter();
        let mut refused = refused.into_iter().peekable();
        (0..count)
            .map(|i| -> WireTicket {
                if refused.next_if_eq(&i).is_some() {
                    return Box::new(|| Err(ServeError::InvalidQuery));
                }
                match admitted.next().expect("one admission outcome per answerable query") {
                    Ok(ticket) => Box::new(move || ticket.wait().map(QueryResponse::from)),
                    Err(e) => Box::new(move || Err(e)),
                }
            })
            .collect()
    }

    fn queue_stats(&self) -> (usize, usize) {
        (self.queue_depth(), self.queue_capacity())
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The TCP front-end: accepts connections and serves `SLP1` frames out of
/// the [`WireBackend`]s a [`CollectionRegistry`] resolves. The server shares
/// the registry (via `Arc`) — it never drains a runtime, so shutdown ordering
/// stays with the caller: drain the net server first (accepted frames
/// answered), then drop the registry.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// State shared between the accept loop, every connection handler, and the
/// [`NetServer`] handle: the registry frames resolve through, the config,
/// the lifecycle flags, the slow-query ring, and the cached metric handles.
struct ServerShared {
    registry: Arc<CollectionRegistry>,
    config: NetConfig,
    /// Hard stop: the accept loop exits and idle handlers disconnect.
    shutdown: AtomicBool,
    /// Soft stop: health answers *not ready* while frames are still served
    /// (the drain-grace window of a remote shutdown, or a local drain).
    draining: AtomicBool,
    slow_log: SlowQueryLog,
    tele: NetTele,
}

impl fmt::Debug for NetServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
    /// every collection in `registry`: frames route by their collection id
    /// (loading checkpoints lazily), an empty id routes to the registry's
    /// default collection, and the collection admin frames
    /// (list/attach/detach) are live.
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        registry: Arc<CollectionRegistry>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let slow_log = SlowQueryLog::new(config.slow_log_capacity);
        if let Some(threshold) = config.slow_query_threshold {
            slow_log.set_threshold_us(threshold.as_micros().min(u64::MAX as u128) as u64);
        }
        let shared = Arc::new(ServerShared {
            registry,
            config,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            slow_log,
            // Connection-level telemetry is not per-collection (a connection
            // may address many); per-frame latency lands on each resident's
            // own collection-labeled handles.
            tele: NetTele::new("registry"),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || accept_loop(listener, shared, handlers))
        };
        Ok(NetServer { local_addr, shared, accept_thread: Some(accept_thread), handlers })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a shutdown was requested (locally or by a remote shutdown
    /// frame, when those are allowed). The CLI's serve loop polls this.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Whether the server is draining: health probes answer *not ready*,
    /// but frames are still accepted and served. True from the moment a
    /// (graced) remote shutdown is acknowledged until the process exits.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
            || self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The server's slow-query ring (threshold per [`NetConfig`]); also
    /// retrievable over the wire via a stats frame in
    /// [`StatsFormat::SlowQueries`].
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.shared.slow_log.records()
    }

    /// Graceful drain: the listener closes first (no new connections), then
    /// every handler finishes answering the frame it already accepted and
    /// exits. The backend runtime is untouched — drain it after this.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept_thread.take() {
            // Joining the accept thread drops the listener: closed first.
            let _ = accept.join();
        }
        let handlers = {
            let mut guard = self.handlers.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // A plain drop still drains; `shutdown` only makes the order explicit.
        self.drain();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_connection(stream, shared));
                let mut guard = handlers.lock().unwrap_or_else(|p| p.into_inner());
                // Reap finished handlers so a long-lived server does not
                // accumulate join handles without bound.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake): brief
                // backoff, keep accepting.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Returning drops the listener: the port closes before handlers drain.
}

/// Outcome of trying to read one frame off a polled connection.
enum FrameRead {
    /// A complete, CRC-verified frame.
    Frame(Frame),
    /// The connection is done: clean EOF at a frame boundary, shutdown
    /// observed while idle, idle/stall timeout, or transport error. The
    /// handler exits without a response.
    Closed,
    /// The peer sent bytes that are not a valid frame; answer the typed
    /// code, then close (framing can no longer be trusted).
    Refuse {
        /// Kind byte to echo (0 when the header itself was garbage).
        kind: u8,
        /// Request id to echo (0 when unknown).
        id: u64,
        /// The refusal.
        code: ErrorCode,
    },
}

/// A connection's read side for one frame: a [`Read`] whose blocking waits
/// wake every poll tick, so [`crate::proto`]'s frame decoder reads a socket
/// that still honours shutdown and the stall timeout. Before the frame's
/// first byte, a raised shutdown flag ends the read (an idle connection
/// closes); once a byte has arrived the frame is read to completion even
/// during a drain — it was accepted, so it will be answered. No progress
/// for `read_timeout` ends the read too; a half-sent frame gets no answer.
struct PolledRead<'a> {
    stream: &'a mut TcpStream,
    shutdown: &'a AtomicBool,
    read_timeout: Duration,
    last_progress: Instant,
    bytes: usize,
}

impl Read for PolledRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.bytes == 0 && self.shutdown.load(Ordering::SeqCst) {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    self.bytes += n;
                    self.last_progress = Instant::now();
                    return Ok(n);
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                        && self.last_progress.elapsed() < self.read_timeout => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads one frame through the protocol's own decoder, polling for
/// shutdown, and maps a malformed frame to [`FrameRead::Refuse`] so the
/// peer learns *why* it is being disconnected.
fn read_frame_polling(
    stream: &mut TcpStream,
    config: &NetConfig,
    shutdown: &AtomicBool,
    tele: &NetTele,
) -> FrameRead {
    let mut read = PolledRead {
        stream,
        shutdown,
        read_timeout: config.read_timeout,
        last_progress: Instant::now(),
        bytes: 0,
    };
    let result = read_frame_or_reject(&mut read, config.max_frame_bytes);
    tele.record_bytes_in(read.bytes);
    let rejected = match result {
        Ok(frame) => return FrameRead::Frame(frame),
        Err(rejected) => rejected,
    };
    let code = match rejected.error {
        ProtoError::Io(_) => return FrameRead::Closed,
        ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        ProtoError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
        _ => ErrorCode::BadFrame,
    };
    tele.record_protocol_error(code);
    FrameRead::Refuse { kind: rejected.kind, id: rejected.id, code }
}

/// Writes a response addressed like `request` — its id and collection — so
/// a client can match it to the frame it sent.
fn write_response_to(
    stream: &mut TcpStream,
    request: &Frame,
    kind: u8,
    payload: &[u8],
    tele: &NetTele,
) -> bool {
    let bytes = encode_frame_v2(kind, request.id, request.collection.as_deref(), payload);
    write_bytes(stream, bytes, tele)
}

fn write_bytes(stream: &mut TcpStream, bytes: Vec<u8>, tele: &NetTele) -> bool {
    match stream.write_all(&bytes).and_then(|()| stream.flush()) {
        Ok(()) => {
            tele.record_bytes_out(bytes.len());
            true
        }
        Err(_) => false,
    }
}

/// Computes the health verdict answered to a `KIND_HEALTH` frame.
///
/// Verdict rules (see `DESIGN.md` §13): the server is *not ready* while
/// draining or while the most saturated resident admission queue is ≥90%
/// full. WAL tail truncations and compactor lag are evidence (reasons) but
/// do not by themselves flip readiness.
fn health_report(shared: &ServerShared) -> HealthReport {
    let registry = &shared.registry;
    let (depth, capacity) = registry.worst_queue();
    let collection_pending = registry.collection_pending();
    let draining = shared.draining.load(Ordering::SeqCst)
        || shared.shutdown.load(Ordering::SeqCst);
    let saturated = capacity > 0 && depth * 10 >= capacity * 9;
    let wal_truncations =
        setlearn_obs::metrics().counter_with("setlearn_wal_truncated_tail_total", &[]).get();
    let compactor_pending: u64 = collection_pending.iter().map(|(_, n)| n).sum();
    let mut reasons = Vec::new();
    if draining {
        reasons.push("draining: graceful shutdown in progress".to_string());
    }
    if saturated {
        reasons.push(format!("queue saturated: {depth}/{capacity} buffered"));
    }
    if wal_truncations > 0 {
        reasons.push(format!("wal: {wal_truncations} tail truncation(s) at recovery"));
    }
    if compactor_pending > 0 {
        reasons.push(format!("compactor lag: {compactor_pending} mutation(s) pending"));
    }
    HealthReport {
        ready: !draining && !saturated,
        draining,
        queue_depth: depth as u64,
        queue_capacity: capacity as u64,
        wal_truncations,
        compactor_pending,
        reasons,
        resident_collections: registry.resident_count(),
        collection_pending,
    }
}

/// Resolves a frame's collection id to the resident serving it — whose
/// backend answers the frame and whose quota and telemetry govern it.
fn resolve_target(
    registry: &CollectionRegistry,
    collection: Option<&str>,
) -> Result<Arc<Resident>, ErrorCode> {
    registry.resolve(collection).map_err(|e| match e {
        ResolveError::Loading(_) => ErrorCode::CollectionLoading,
        ResolveError::Unknown(_) | ResolveError::Failed(..) => ErrorCode::UnknownCollection,
    })
}

fn handle_connection(mut stream: TcpStream, shared: Arc<ServerShared>) {
    let config = &shared.config;
    let shutdown = &shared.shutdown;
    let tele = &shared.tele;
    // The poll tick is the *read* timeout at the syscall level; the
    // configured read_timeout is enforced on top by `read_exact_polling`.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err()
        || stream.set_write_timeout(Some(config.write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    tele.connection_opened();
    loop {
        let frame = match read_frame_polling(&mut stream, config, shutdown, tele) {
            FrameRead::Frame(frame) => frame,
            FrameRead::Closed => break,
            FrameRead::Refuse { kind, id, code } => {
                let refusal = encode_frame_v2(kind, id, None, &encode_error_response(code));
                let _ = write_bytes(&mut stream, refusal, tele);
                break;
            }
        };
        let started = Instant::now();
        match frame.kind {
            KIND_PING => {
                if !write_response_to(&mut stream, &frame, KIND_PING, &encode_response_batch(&[]), tele)
                {
                    break;
                }
            }
            KIND_STATS => {
                let payload = match decode_stats_request(&frame.payload) {
                    Ok(StatsFormat::Prometheus) => encode_stats_reply(
                        &setlearn_obs::to_prometheus(&setlearn_obs::metrics().snapshot()),
                    ),
                    Ok(StatsFormat::Json) => encode_stats_reply(&setlearn_obs::to_json(
                        &setlearn_obs::metrics().snapshot(),
                    )),
                    Ok(StatsFormat::SlowQueries) => {
                        encode_stats_reply(&shared.slow_log.to_jsonl())
                    }
                    Err(_) => {
                        tele.record_protocol_error(ErrorCode::BadFrame);
                        encode_error_response(ErrorCode::BadFrame)
                    }
                };
                if !write_response_to(&mut stream, &frame, KIND_STATS, &payload, tele) {
                    break;
                }
            }
            KIND_HEALTH => {
                let payload = encode_health_report(&health_report(&shared));
                if !write_response_to(&mut stream, &frame, KIND_HEALTH, &payload, tele) {
                    break;
                }
            }
            KIND_INGEST => {
                let resolved = resolve_target(&shared.registry, frame.collection.as_deref());
                let payload = match resolved {
                    Err(code) => {
                        tele.record_protocol_error(code);
                        encode_error_response(code)
                    }
                    Ok(resident) => match decode_ingest_request(&frame.payload) {
                        Ok(request) => match resident.backend().submit_ingest(request) {
                            Ok(ack) => {
                                resident.tele().record_ingest(started.elapsed());
                                encode_ingest_ack(ack)
                            }
                            Err(code) => {
                                tele.record_protocol_error(code);
                                encode_error_response(code)
                            }
                        },
                        Err(_) => {
                            tele.record_protocol_error(ErrorCode::BadFrame);
                            encode_error_response(ErrorCode::BadFrame)
                        }
                    },
                };
                if !write_response_to(&mut stream, &frame, KIND_INGEST, &payload, tele) {
                    break;
                }
            }
            KIND_SHUTDOWN => {
                if config.allow_remote_shutdown {
                    // Draining is visible before the ack is: a requester that
                    // has its answer never reads a server that still claims
                    // to be ready. The hard stop waits until after the ack,
                    // so the answer is out before the drain closes things.
                    shared.draining.store(true, Ordering::SeqCst);
                    let ok = write_response_to(
                        &mut stream,
                        &frame,
                        KIND_SHUTDOWN,
                        &encode_response_batch(&[]),
                        tele,
                    );
                    if config.drain_grace.is_zero() {
                        shutdown.store(true, Ordering::SeqCst);
                    } else {
                        // Grace window: health already answers *not ready*
                        // (load balancers stop routing), while this and
                        // every other handler keep serving until the timer
                        // promotes the drain to a full shutdown.
                        let grace = config.drain_grace;
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || {
                            std::thread::sleep(grace);
                            shared.shutdown.store(true, Ordering::SeqCst);
                        });
                    }
                    if !ok {
                        break;
                    }
                } else {
                    tele.record_protocol_error(ErrorCode::ShutdownNotAllowed);
                    let _ = write_response_to(
                        &mut stream,
                        &frame,
                        KIND_SHUTDOWN,
                        &encode_error_response(ErrorCode::ShutdownNotAllowed),
                        tele,
                    );
                    break;
                }
            }
            KIND_COLLECTIONS => {
                let payload = encode_collections_reply(&shared.registry.list());
                if !write_response_to(&mut stream, &frame, KIND_COLLECTIONS, &payload, tele) {
                    break;
                }
            }
            kind @ (KIND_ATTACH | KIND_DETACH) => {
                let payload = match decode_collection_name(&frame.payload) {
                    Err(_) => {
                        tele.record_protocol_error(ErrorCode::BadFrame);
                        encode_error_response(ErrorCode::BadFrame)
                    }
                    Ok(name) => {
                        let outcome = if kind == KIND_ATTACH {
                            shared.registry.attach(&name)
                        } else {
                            shared.registry.detach(&name)
                        };
                        match outcome {
                            // Status byte 0: the admin ack body.
                            Ok(()) => vec![0],
                            Err(AdminError::Unknown(_)) => {
                                tele.record_protocol_error(ErrorCode::UnknownCollection);
                                encode_error_response(ErrorCode::UnknownCollection)
                            }
                            // A busy collection (pending WAL ops or live
                            // compaction) refuses detach the same way a
                            // closed collection refuses writes.
                            Err(AdminError::Busy(_)) => {
                                tele.record_protocol_error(ErrorCode::IngestRejected);
                                encode_error_response(ErrorCode::IngestRejected)
                            }
                        }
                    }
                };
                if !write_response_to(&mut stream, &frame, kind, &payload, tele) {
                    break;
                }
            }
            kind if (ADMIN_KIND_MIN..=ADMIN_KIND_MAX).contains(&kind) => {
                // An admin kind this server predates: a typed refusal, not
                // BadFrame — framing is intact, so newer clients can probe
                // and the connection stays usable.
                tele.record_protocol_error(ErrorCode::AdminUnsupported);
                if !write_response_to(
                    &mut stream,
                    &frame,
                    kind,
                    &encode_error_response(ErrorCode::AdminUnsupported),
                    tele,
                ) {
                    break;
                }
            }
            kind => {
                let task = match frame.task() {
                    Some(task) => task,
                    None => {
                        tele.record_protocol_error(ErrorCode::BadFrame);
                        let _ = write_response_to(
                            &mut stream,
                            &frame,
                            kind,
                            &encode_error_response(ErrorCode::BadFrame),
                            tele,
                        );
                        break;
                    }
                };
                let resident =
                    match resolve_target(&shared.registry, frame.collection.as_deref()) {
                        Ok(resident) => resident,
                        Err(code) => {
                            tele.record_protocol_error(code);
                            // An addressing mistake (or a still-loading
                            // collection), not stream corruption: the
                            // connection stays usable.
                            if !write_response_to(
                                &mut stream,
                                &frame,
                                kind,
                                &encode_error_response(code),
                                tele,
                            ) {
                                break;
                            }
                            continue;
                        }
                    };
                let backend = resident.backend();
                if task != backend.wire_task() {
                    tele.record_protocol_error(ErrorCode::TaskMismatch);
                    if !write_response_to(
                        &mut stream,
                        &frame,
                        kind,
                        &encode_error_response(ErrorCode::TaskMismatch),
                        tele,
                    ) {
                        break;
                    }
                    // A task mismatch is an addressing mistake, not stream
                    // corruption: the connection stays usable.
                    continue;
                }
                let (queries, client_trace) = match decode_request_batch(&frame.payload) {
                    Ok(decoded) => decoded,
                    Err(_) => {
                        tele.record_protocol_error(ErrorCode::BadFrame);
                        let _ = write_response_to(
                            &mut stream,
                            &frame,
                            kind,
                            &encode_error_response(ErrorCode::BadFrame),
                            tele,
                        );
                        break;
                    }
                };
                // Per-tenant admission: a token-bucket refusal is a typed
                // shed distinct from the global queue's Overloaded, so one
                // tenant burning its budget never reads as server overload.
                if !resident.try_admit(queries.len()) {
                    resident.tele().record_protocol_error(ErrorCode::TenantOverloaded);
                    if !write_response_to(
                        &mut stream,
                        &frame,
                        kind,
                        &encode_error_response(ErrorCode::TenantOverloaded),
                        tele,
                    ) {
                        break;
                    }
                    continue;
                }
                // The tracing context: client-supplied trace id when the
                // frame carried one, server-minted (odd) otherwise. Decode
                // covers frame receipt → canonical sets.
                let ctx = match client_trace {
                    Some(id) => RequestCtx::with_trace_id(id),
                    None => RequestCtx::mint(),
                };
                let sets: Vec<ElementSet> =
                    queries.into_iter().map(|q| q.canonicalize()).collect();
                let set_size = sets.iter().map(|s| s.len()).max().unwrap_or(0) as u32;
                // Request/stage metrics go to the resident's collection-
                // labeled telemetry; the server-level tele keeps connection
                // and byte counters.
                let ftele = resident.tele();
                let decode = started.elapsed();
                ctx.record_stage(Stage::Decode, decode);
                ftele.record_stage(Stage::Decode, decode);
                let admit_start = Instant::now();
                let tickets = backend.submit_wire(sets, Some(Arc::clone(&ctx)));
                let admitted = admit_start.elapsed();
                ctx.record_stage(Stage::Admission, admitted);
                ftele.record_stage(Stage::Admission, admitted);
                let outcomes: Vec<WireOutcome> = tickets
                    .into_iter()
                    .map(|ticket| ticket().map_err(ErrorCode::Serve))
                    .collect();
                let fallback =
                    outcomes.iter().any(|o| matches!(o, Ok(r) if r.fallback.is_some()));
                let bound_miss = outcomes.iter().any(|o| matches!(o, Ok(r) if r.bound_miss));
                let encode_start = Instant::now();
                let payload = encode_response_batch(&outcomes);
                let encoded = encode_start.elapsed();
                ctx.record_stage(Stage::Encode, encoded);
                ftele.record_stage(Stage::Encode, encoded);
                let ok = write_response_to(&mut stream, &frame, kind, &payload, tele);
                let total = started.elapsed();
                ftele.record_request(task.label(), total);
                if setlearn_obs::tracing_on() {
                    let tracer = setlearn_obs::tracer();
                    let dur_us = total.as_micros().min(u64::MAX as u128) as u64;
                    tracer.push_span(
                        "net_request",
                        tracer.now_us().saturating_sub(dur_us),
                        vec![
                            Field::text("task", task.label()),
                            Field::text("trace_id", &ctx.trace_id.to_string()),
                            Field::num("batch", outcomes.len() as f64),
                        ],
                    );
                }
                let total_us = total.as_micros().min(u64::MAX as u128) as u64;
                if shared.slow_log.is_slow(total_us) {
                    shared.slow_log.record(SlowQueryRecord {
                        trace_id: ctx.trace_id,
                        task: task.label().to_string(),
                        total_us,
                        set_size,
                        fallback,
                        bound_miss,
                        stages: ctx.breakdown(),
                    });
                }
                if !ok {
                    break;
                }
            }
        }
    }
    tele.connection_closed();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport or protocol failure (including frame-level refusals from
    /// the server, surfaced as [`ProtoError::Remote`]).
    Proto(ProtoError),
    /// The response echoed a different request id than the one sent —
    /// the stream is out of sync.
    IdMismatch {
        /// Id this client sent.
        sent: u64,
        /// Id the response carried.
        got: u64,
    },
    /// The response carried a different kind byte than the request.
    KindMismatch {
        /// Kind this client sent.
        sent: u8,
        /// Kind the response carried.
        got: u8,
    },
    /// The response answered a different number of queries than were asked.
    CountMismatch {
        /// Queries sent.
        sent: usize,
        /// Outcomes received.
        got: usize,
    },
    /// A single-query convenience call was answered with a per-query error.
    Query(ErrorCode),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Proto(e) => write!(f, "{e}"),
            NetError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
            NetError::KindMismatch { sent, got } => {
                write!(f, "response kind 0x{got:02x} does not match request kind 0x{sent:02x}")
            }
            NetError::CountMismatch { sent, got } => {
                write!(f, "asked {sent} queries, got {got} outcomes")
            }
            NetError::Query(code) => write!(f, "query refused: {code}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Proto(ProtoError::Io(e))
    }
}

/// A blocking `SLP1` client over one TCP connection. This is the reference
/// implementation of the protocol's client side — the CLI `client`
/// subcommand is a thin wrapper around it.
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    max_frame_bytes: usize,
    collection: Option<String>,
}

impl fmt::Debug for NetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetClient").field("next_id", &self.next_id).finish_non_exhaustive()
    }
}

impl NetClient {
    /// Connects with 30s read / 10s write timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream, next_id: 1, max_frame_bytes: DEFAULT_MAX_FRAME_BYTES, collection: None })
    }

    /// Addresses every subsequent frame at the named collection: the
    /// collection id rides each frame's payload. With `None` (the default)
    /// frames carry an empty id, which the server routes to its default
    /// collection.
    pub fn set_collection(&mut self, collection: Option<String>) {
        self.collection = collection;
    }

    /// Builder-style [`NetClient::set_collection`].
    pub fn with_collection(mut self, collection: impl Into<String>) -> Self {
        self.collection = Some(collection.into());
        self
    }

    /// Round-trips one frame and validates the echo invariants.
    fn roundtrip(&mut self, kind: u8, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = encode_frame_v2(kind, id, self.collection.as_deref(), payload);
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        let frame = read_frame(&mut self.stream, self.max_frame_bytes)?;
        if frame.id != id {
            return Err(NetError::IdMismatch { sent: id, got: frame.id });
        }
        if frame.kind != kind {
            return Err(NetError::KindMismatch { sent: kind, got: frame.kind });
        }
        Ok(frame.payload)
    }

    /// Liveness probe: sends a ping frame, succeeds iff the server answers.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let payload = self.roundtrip(KIND_PING, &[])?;
        decode_response_batch(&payload)?;
        Ok(())
    }

    /// Sends one query batch for `task`; returns one outcome per query in
    /// order. A shed/panicked query is an `Err(ErrorCode)` *inside* the
    /// vector; a frame-level refusal (wrong task, malformed frame) is a
    /// [`NetError::Proto`] with [`ProtoError::Remote`].
    pub fn query_batch(
        &mut self,
        task: WireTask,
        queries: &[QueryRequest],
    ) -> Result<Vec<WireOutcome>, NetError> {
        self.query_batch_traced(task, queries, None)
    }

    /// [`NetClient::query_batch`] with a client-supplied trace id riding the
    /// frame: the server adopts it for its stage breakdown, spans, and
    /// slow-query records, so one id follows the request end to end. Needs a
    /// server new enough to understand the trailing-id extension.
    pub fn query_batch_traced(
        &mut self,
        task: WireTask,
        queries: &[QueryRequest],
        trace_id: Option<u64>,
    ) -> Result<Vec<WireOutcome>, NetError> {
        let payload =
            self.roundtrip(task.code(), &encode_request_batch_traced(queries, trace_id))?;
        let outcomes = decode_response_batch(&payload)?;
        if outcomes.len() != queries.len() {
            return Err(NetError::CountMismatch { sent: queries.len(), got: outcomes.len() });
        }
        Ok(outcomes)
    }

    /// Fetches the server's metrics snapshot (or slow-query log) in the
    /// requested format: Prometheus exposition text, a JSON document, or
    /// JSONL slow-query records. Servers predating the stats frame answer
    /// [`ErrorCode::AdminUnsupported`] (via [`ProtoError::Remote`]).
    pub fn stats(&mut self, format: StatsFormat) -> Result<String, NetError> {
        let payload = self.roundtrip(KIND_STATS, &encode_stats_request(format))?;
        Ok(decode_stats_reply(&payload)?)
    }

    /// Fetches the server's readiness verdict and its evidence.
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        let payload = self.roundtrip(KIND_HEALTH, &[])?;
        Ok(decode_health_report(&payload)?)
    }

    /// Single-query convenience over [`NetClient::query_batch`].
    pub fn query(
        &mut self,
        task: WireTask,
        query: QueryRequest,
    ) -> Result<QueryResponse, NetError> {
        let mut outcomes = self.query_batch(task, std::slice::from_ref(&query))?;
        match outcomes.pop() {
            Some(Ok(response)) => Ok(response),
            Some(Err(code)) => Err(NetError::Query(code)),
            None => Err(NetError::CountMismatch { sent: 1, got: 0 }),
        }
    }

    /// Durably inserts a set into the served mutable collection. The ack
    /// means the record is fsync'd in the server's WAL. Fails with
    /// [`ErrorCode::IngestUnsupported`] (via [`ProtoError::Remote`]) when
    /// the server serves an immutable model.
    pub fn insert(&mut self, elements: Vec<u32>) -> Result<IngestAck, NetError> {
        self.ingest(IngestRequest { delete: false, elements })
    }

    /// Durably deletes one occurrence of a set. See [`NetClient::insert`].
    pub fn delete(&mut self, elements: Vec<u32>) -> Result<IngestAck, NetError> {
        self.ingest(IngestRequest { delete: true, elements })
    }

    fn ingest(&mut self, request: IngestRequest) -> Result<IngestAck, NetError> {
        let payload = self.roundtrip(KIND_INGEST, &encode_ingest_request(&request))?;
        Ok(decode_ingest_ack(&payload)?)
    }

    /// Asks the server to drain and exit. Fails with
    /// [`ErrorCode::ShutdownNotAllowed`] (via [`ProtoError::Remote`]) unless
    /// the server enables remote shutdown.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let payload = self.roundtrip(KIND_SHUTDOWN, &[])?;
        decode_response_batch(&payload)?;
        Ok(())
    }

    /// Lists the collections the server knows about — resident and cold
    /// alike.
    pub fn collections(&mut self) -> Result<Vec<CollectionInfo>, NetError> {
        let payload = self.roundtrip(KIND_COLLECTIONS, &[])?;
        Ok(decode_collections_reply(&payload)?)
    }

    /// Re-admits a previously detached collection (validating it still
    /// exists on disk); loading stays lazy until the first query arrives.
    pub fn attach_collection(&mut self, name: &str) -> Result<(), NetError> {
        let payload = self.roundtrip(KIND_ATTACH, &encode_collection_name(name))?;
        decode_admin_ack(&payload)?;
        Ok(())
    }

    /// Unloads a collection and refuses further frames addressing it until
    /// re-attached. Fails with [`ErrorCode::IngestRejected`] while the
    /// collection has pending WAL ops or a compaction in flight.
    pub fn detach_collection(&mut self, name: &str) -> Result<(), NetError> {
        let payload = self.roundtrip(KIND_DETACH, &encode_collection_name(name))?;
        decode_admin_ack(&payload)?;
        Ok(())
    }
}
