//! The closed-loop load: one thread per connection, each sending its next
//! frame when the previous reply has been checked against the oracle.

use crate::server::{ProcSample, Server};
use crate::spans::{Recorder, Span};
use crate::workload::{same_answer, Op, Plan};
use setlearn::wire::{QueryRequest, QueryResponse, WireTask};
use setlearn_serve::proto::{
    decode_ingest_ack, decode_response_batch, encode_frame_v2, encode_ingest_request,
    encode_request_batch_traced, read_frame, IngestRequest, DEFAULT_MAX_FRAME_BYTES, KIND_INGEST,
};
use setlearn_serve::{NetClient, WireOutcome};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Cycle the schedule; frames completing inside the window count.
    Window { warmup: Duration, measure: Duration },
    /// Run every connection's schedule once, start to end.
    Script,
}

/// Width of the slices the measured time is cut into. A drive's metrics are
/// medians over its slices, so that a stall of the host (or of its disk)
/// shorter than half the measured time does not move them.
pub const SLICE: Duration = Duration::from_millis(500);

/// One completed frame inside the measured time.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Seconds since the measured time began.
    pub at: f64,
    /// Operations of the frame that were verified.
    pub ok: u32,
    /// Client-observed round trip, microseconds.
    pub us: f64,
    pub write: bool,
}

/// One [`SLICE`] of the measured time.
#[derive(Debug, Default)]
pub struct Slice {
    pub ok: u64,
    /// Read-frame round trips, ascending.
    pub read_us: Vec<f64>,
    /// Server utime+stime spent during the slice.
    pub server_cpu_us: f64,
}

/// What one drive measured, all connections together.
#[derive(Debug, Default)]
pub struct Driven {
    pub wall_s: f64,
    pub events: Vec<Event>,
    /// Queries plus writes sent / answered correctly / not.
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub acked_writes: u64,
    /// `/proc` of the server at the start of the measured time and at every
    /// slice boundary after it.
    pub marks: Vec<ProcSample>,
    /// `/proc` of the server as the measured time ended.
    pub at_close: ProcSample,
    pub spans: Vec<Span>,
    pub first_failure: Option<String>,
}

impl Driven {
    /// Round trips of read (or write) frames, microseconds, ascending.
    pub fn latencies(&self, write: bool) -> Vec<f64> {
        let mut us: Vec<f64> = self
            .events
            .iter()
            .filter(|e| e.write == write)
            .map(|e| e.us)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    }

    /// Verified operations per second in each `width_s` of the measured
    /// time, in order; a trailing partial slice is dropped.
    pub fn qps_per(&self, width_s: f64) -> Vec<f64> {
        let mut ops = vec![0u64; ((self.wall_s / width_s).floor() as usize).max(1)];
        for e in &self.events {
            if let Some(slot) = ops.get_mut((e.at / width_s) as usize) {
                *slot += u64::from(e.ok);
            }
        }
        ops.into_iter().map(|n| n as f64 / width_s).collect()
    }

    /// The measured time cut into [`SLICE`]s, one per pair of CPU marks; a
    /// trailing partial slice is dropped.
    pub fn slices(&self) -> Vec<Slice> {
        let mut slices: Vec<Slice> = self
            .marks
            .windows(2)
            .map(|w| Slice {
                server_cpu_us: w[1].cpu_us - w[0].cpu_us,
                ..Slice::default()
            })
            .collect();
        for e in &self.events {
            if let Some(slice) = slices.get_mut((e.at / SLICE.as_secs_f64()) as usize) {
                slice.ok += u64::from(e.ok);
                if !e.write {
                    slice.read_us.push(e.us);
                }
            }
        }
        for slice in &mut slices {
            slice.read_us.sort_by(f64::total_cmp);
        }
        slices
    }
}

/// Number of answers that equal the oracle's, bit for bit.
fn verified(outcomes: &[WireOutcome], expect: &[Option<QueryResponse>]) -> usize {
    outcomes
        .iter()
        .zip(expect)
        .filter(
            |(got, want)| matches!((got, want), (Ok(got), Some(want)) if same_answer(got, want)),
        )
        .count()
}

/// The traced run's client: the bytes [`NetClient`] sends, with encode,
/// round trip and decode timed apart and the frame's trace id on the wire.
struct SpanClient {
    stream: TcpStream,
    next_id: u64,
}

/// Where a traced call hangs its spans.
struct SpanCtx<'a> {
    rec: &'a mut Recorder,
    parent: u64,
    trace_id: u64,
}

impl SpanClient {
    fn connect(addr: SocketAddr) -> std::io::Result<SpanClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(SpanClient { stream, next_id: 1 })
    }

    /// One frame out, one back; `encode` and `decode` run inside the spans
    /// named after them.
    fn roundtrip<T>(
        &mut self,
        ctx: &mut SpanCtx<'_>,
        kind: u8,
        collection: &str,
        encode: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let bytes = encode_frame_v2(kind, id, Some(collection), &encode());
        let t1 = Instant::now();
        ctx.rec
            .record("client.encode", Some(ctx.parent), ctx.trace_id, t0, t1);
        self.stream.write_all(&bytes).map_err(|e| e.to_string())?;
        let frame =
            read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        ctx.rec
            .record("client.rtt", Some(ctx.parent), ctx.trace_id, t1, t2);
        if frame.id != id || frame.kind != kind {
            return Err(format!(
                "reply {}/{:#x} does not echo request {id}",
                frame.id, frame.kind
            ));
        }
        let decoded = decode(&frame.payload);
        ctx.rec.record(
            "client.decode",
            Some(ctx.parent),
            ctx.trace_id,
            t2,
            Instant::now(),
        );
        decoded
    }
}

enum Client {
    Plain(NetClient),
    Traced(SpanClient),
}

#[derive(Default)]
struct ConnOut {
    events: Vec<Event>,
    attempted: u64,
    ok: u64,
    acked_writes: u64,
    spans: Vec<Span>,
    first_failure: Option<String>,
    finished: Option<Instant>,
}

/// One connection's loop, from the start line to the end of its window or
/// script.
struct Conn<'a> {
    client: Client,
    rec: Recorder,
    task: WireTask,
    tenants: &'a [&'a str],
    /// Tenant the plain client currently addresses.
    addressed: usize,
}

impl Conn<'_> {
    fn address(&mut self, tenant: usize) {
        if let Client::Plain(c) = &mut self.client {
            if self.addressed != tenant {
                c.set_collection(Some(self.tenants[tenant].to_string()));
                self.addressed = tenant;
            }
        }
    }

    /// Sends one op; returns (ops attempted, ops verified, failure).
    fn send(&mut self, op: &Op, trace_id: u64, sent: Instant) -> (usize, usize, Option<String>) {
        let traced = matches!(self.client, Client::Traced(_));
        let frame = traced.then(|| self.rec.open("client.frame", None, trace_id, sent));
        let result = match op {
            Op::Read {
                tenant,
                queries,
                expect,
            } => {
                self.address(*tenant);
                let reply = self.query(frame, trace_id, *tenant, queries);
                match reply {
                    Ok(outcomes) if outcomes.len() == queries.len() => {
                        let t = Instant::now();
                        let good = verified(&outcomes, expect);
                        if let Some(parent) = frame {
                            self.rec.record(
                                "client.verify",
                                Some(parent),
                                trace_id,
                                t,
                                Instant::now(),
                            );
                        }
                        let bad = queries.len() - good;
                        (
                            queries.len(),
                            good,
                            (bad > 0).then(|| {
                                format!("{bad} of {} answers differ from the oracle", queries.len())
                            }),
                        )
                    }
                    Ok(outcomes) => (
                        queries.len(),
                        0,
                        Some(format!(
                            "asked {} queries, got {}",
                            queries.len(),
                            outcomes.len()
                        )),
                    ),
                    Err(e) => (queries.len(), 0, Some(e)),
                }
            }
            Op::Write { delete, set } => {
                self.address(0);
                match self.ingest(frame, trace_id, *delete, set) {
                    // Every scripted write changes the logical collection.
                    Ok(true) => (1, 1, None),
                    Ok(false) => (1, 0, Some("write acknowledged as a no-op".to_string())),
                    Err(e) => (1, 0, Some(e)),
                }
            }
        };
        if let Some(parent) = frame {
            self.rec.close(parent, Instant::now());
        }
        result
    }

    fn query(
        &mut self,
        frame: Option<u64>,
        trace_id: u64,
        tenant: usize,
        queries: &[QueryRequest],
    ) -> Result<Vec<WireOutcome>, String> {
        match &mut self.client {
            Client::Plain(c) => c.query_batch(self.task, queries).map_err(|e| e.to_string()),
            Client::Traced(c) => {
                let parent = frame.expect("traced frames open a span");
                c.roundtrip(
                    &mut SpanCtx {
                        rec: &mut self.rec,
                        parent,
                        trace_id,
                    },
                    self.task.code(),
                    self.tenants[tenant],
                    || encode_request_batch_traced(queries, Some(trace_id)),
                    |payload| decode_response_batch(payload).map_err(|e| e.to_string()),
                )
            }
        }
    }

    /// Returns whether the acknowledged write changed the collection.
    fn ingest(
        &mut self,
        frame: Option<u64>,
        trace_id: u64,
        delete: bool,
        set: &[u32],
    ) -> Result<bool, String> {
        let ack = match &mut self.client {
            Client::Plain(c) if delete => c.delete(set.to_vec()).map_err(|e| e.to_string())?,
            Client::Plain(c) => c.insert(set.to_vec()).map_err(|e| e.to_string())?,
            Client::Traced(c) => {
                let parent = frame.expect("traced frames open a span");
                let request = IngestRequest {
                    delete,
                    elements: set.to_vec(),
                };
                c.roundtrip(
                    &mut SpanCtx {
                        rec: &mut self.rec,
                        parent,
                        trace_id,
                    },
                    KIND_INGEST,
                    self.tenants[0],
                    || encode_ingest_request(&request),
                    |payload| decode_ingest_ack(payload).map_err(|e| e.to_string()),
                )?
            }
        };
        Ok(ack.applied)
    }
}

/// Drives `plan` against `server`. With `trace_epoch`, frames carry trace ids
/// and benchmark-side spans are recorded against that clock (lane =
/// connection index).
pub fn drive(
    server: &Server,
    plan: &Plan,
    mode: Mode,
    trace_epoch: Option<Instant>,
) -> Result<Driven, String> {
    let addr = server.addr;
    let tenants = plan.kind.tenants();
    let task = plan.kind.task();
    let barrier = Barrier::new(plan.conns.len() + 1);
    let traced = trace_epoch.is_some();
    let epoch = trace_epoch.unwrap_or_else(Instant::now);
    // The window opens `warmup` after the start line; frames completing
    // before it are sent and checked but not counted.
    let (warmup, measure) = match mode {
        Mode::Window { warmup, measure } => (warmup, Some(measure)),
        Mode::Script => (Duration::ZERO, None),
    };

    let (outs, opened, marks, at_close) = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .conns
            .iter()
            .enumerate()
            .map(|(lane, ops)| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<ConnOut, String> {
                    let client = if traced {
                        SpanClient::connect(addr).map(Client::Traced)
                    } else {
                        NetClient::connect(addr).map(Client::Plain)
                    };
                    // Everyone reaches the start line, connected or not.
                    barrier.wait();
                    let mut conn = Conn {
                        client: client.map_err(|e| format!("connect: {e}"))?,
                        rec: Recorder::new(epoch, lane as u64),
                        task,
                        tenants,
                        addressed: usize::MAX,
                    };
                    let mut out = ConnOut::default();
                    let open = Instant::now() + warmup;
                    let close = measure.map(|m| open + m);
                    let mut frame_no = 0u64;
                    'run: loop {
                        for op in ops {
                            let sent = Instant::now();
                            if close.is_some_and(|c| sent >= c) {
                                break 'run;
                            }
                            // The trace id is the frame's index on its lane.
                            let trace_id = ((lane as u64) << 32) | frame_no;
                            frame_no += 1;
                            let (size, good, failure) = conn.send(op, trace_id, sent);
                            let done = Instant::now();
                            if let Some(failure) = failure {
                                out.first_failure.get_or_insert(failure);
                            }
                            if done < open || close.is_some_and(|c| done > c) {
                                continue;
                            }
                            let write = matches!(op, Op::Write { .. });
                            if write {
                                out.acked_writes += good as u64;
                            }
                            out.attempted += size as u64;
                            out.ok += good as u64;
                            out.events.push(Event {
                                at: done.duration_since(open).as_secs_f64(),
                                ok: good as u32,
                                us: done.duration_since(sent).as_secs_f64() * 1e6,
                                write,
                            });
                        }
                        if measure.is_none() {
                            break;
                        }
                    }
                    out.finished = Some(Instant::now());
                    out.spans = conn.rec.spans;
                    Ok(out)
                })
            })
            .collect();

        barrier.wait();
        let opened = Instant::now() + warmup;
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        sleep_until(opened);
        // Sampled at every slice boundary: a window until it closes (its
        // last sample at the closing instant, connections still open), a
        // script until its last connection has finished.
        let mut marks = vec![server.proc_sample()];
        let window_slices = measure.map(|m| (m.as_secs_f64() / SLICE.as_secs_f64()).floor() as u32);
        for i in 1.. {
            let running = match window_slices {
                Some(n) => i <= n,
                None => !handles.iter().all(|h| h.is_finished()),
            };
            if !running {
                break;
            }
            sleep_until(opened + SLICE * i);
            marks.push(server.proc_sample());
        }
        if let Some(measure) = measure {
            sleep_until(opened + measure);
        }
        let at_close = server.proc_sample();
        let outs: Vec<Result<ConnOut, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect();
        (outs, opened, marks, at_close)
    });

    let mut driven = Driven::default();
    let mut finished = opened;
    for out in outs {
        let out = out?;
        driven.events.extend(out.events);
        driven.attempted += out.attempted;
        driven.ok += out.ok;
        driven.acked_writes += out.acked_writes;
        driven.spans.extend(out.spans);
        driven.first_failure = driven.first_failure.or(out.first_failure);
        finished = finished.max(out.finished.unwrap_or(opened));
    }
    driven.failed = driven.attempted - driven.ok;
    driven.wall_s = measure
        .unwrap_or_else(|| finished.duration_since(opened))
        .as_secs_f64();
    driven.at_close = at_close?;
    driven.marks = marks.into_iter().collect::<Result<_, _>>()?;
    Ok(driven)
}
