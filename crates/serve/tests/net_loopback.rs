//! Loopback tests for the TCP front-end: correctness over the wire, typed
//! shedding, malformed-frame refusal, graceful drain, and the remote
//! shutdown gate — all against fast mock structures so the suite stays
//! quick (the real-model end-to-end lives in the workspace-level
//! `net_e2e.rs`).

mod common;

use common::{serve_backend, two_shards};
use setlearn::mutable::OverlayAnswer;
use setlearn::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use setlearn::wire::{QueryRequest, QueryValue, WireTask};
use setlearn_serve::net::{NetClient, NetConfig, NetError, NetServer};
use setlearn_serve::proto::{
    decode_response_batch, encode_frame_v2, encode_request_batch, read_frame, ErrorCode,
    ProtoError, HEADER_LEN, VERSION,
};
use setlearn_serve::{ServeConfig, ServeError, ServeRuntime, StructureTask};
use setlearn_data::ElementSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic mock "cardinality" structure: 1.5 × |query|, plus a
/// degradation flag on queries containing the element 666 so the wire's
/// flag plumbing is exercised too.
#[derive(Clone)]
struct MockCard;

impl LearnedSetStructure for MockCard {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        queries
            .iter()
            .map(|q| {
                let q = q.as_ref();
                if q.contains(&666) {
                    QueryOutcome {
                        value: 0.0,
                        fallback: Some(setlearn::hybrid::FallbackReason::NonFinite),
                        bound_miss: false,
                    }
                } else {
                    QueryOutcome::clean(q.len() as f64 * 1.5)
                }
            })
            .collect()
    }
}

impl Fold for MockCard {
    fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
        common::sum(acc, part)
    }

    fn overlay(&self, _: &OverlayAnswer) -> QueryOutcome<f64> {
        unreachable!("a sharded structure is never mutable")
    }
}

/// Sleeps per query so a tiny queue sheds deterministically.
#[derive(Clone)]
struct SlowCard;

impl LearnedSetStructure for SlowCard {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        queries
            .iter()
            .map(|q| {
                std::thread::sleep(Duration::from_millis(20));
                QueryOutcome::clean(q.as_ref().len() as f64)
            })
            .collect()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_batch: 16,
        max_delay: Duration::from_micros(100),
        queue_capacity: 256,
    }
}

fn start_server(
    config: NetConfig,
) -> (NetServer, Arc<ServeRuntime<StructureTask<MockCard>>>, std::net::SocketAddr) {
    let runtime = Arc::new(ServeRuntime::start(StructureTask::new(MockCard), serve_config()));
    let server = serve_backend(Arc::clone(&runtime) as _, config);
    let addr = server.local_addr();
    (server, runtime, addr)
}

#[test]
fn loopback_answers_equal_in_process_query_batch() {
    let (server, runtime, addr) = start_server(NetConfig::default());
    let raw: Vec<Vec<u32>> = vec![
        vec![3, 1, 2],
        vec![],
        vec![5, 5, 5, 5],
        vec![666, 1],
        (0..100).rev().collect(),
    ];
    let requests: Vec<QueryRequest> = raw.iter().map(|v| QueryRequest::new(v.clone())).collect();
    let canonical: Vec<ElementSet> =
        requests.iter().cloned().map(|r| r.canonicalize()).collect();
    let expected = MockCard.query_batch(&canonical);

    let mut client = NetClient::connect(addr).unwrap();
    client.ping().unwrap();
    let outcomes = client.query_batch(WireTask::Cardinality, &requests).unwrap();
    assert_eq!(outcomes.len(), expected.len());
    for (got, want) in outcomes.into_iter().zip(expected) {
        let got = got.expect("no query should fail");
        match got.value {
            QueryValue::Cardinality(v) => assert_eq!(v.to_bits(), want.value.to_bits()),
            other => panic!("wrong value kind: {other:?}"),
        }
        assert_eq!(got.fallback, want.fallback);
        assert_eq!(got.bound_miss, want.bound_miss);
    }
    server.shutdown();
    Arc::try_unwrap(runtime).ok().expect("server released its backend handle").shutdown();
}

#[test]
fn several_frames_pipeline_over_one_connection() {
    let (server, runtime, addr) = start_server(NetConfig::default());
    let mut client = NetClient::connect(addr).unwrap();
    for round in 1..20usize {
        let requests: Vec<QueryRequest> =
            (0..round).map(|i| QueryRequest::new((0..i as u32).collect())).collect();
        let outcomes = client.query_batch(WireTask::Cardinality, &requests).unwrap();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome.unwrap().value {
                QueryValue::Cardinality(v) => assert_eq!(v, i as f64 * 1.5),
                other => panic!("wrong value kind: {other:?}"),
            }
        }
    }
    drop(client);
    server.shutdown();
    drop(runtime);
}

#[test]
fn task_mismatch_is_typed_and_the_connection_survives() {
    let (server, runtime, addr) = start_server(NetConfig::default());
    let mut client = NetClient::connect(addr).unwrap();
    match client.query_batch(WireTask::Bloom, &[QueryRequest::new(vec![1])]) {
        Err(NetError::Proto(ProtoError::Remote(ErrorCode::TaskMismatch))) => {}
        other => panic!("expected typed task mismatch, got {other:?}"),
    }
    // Addressing mistakes do not poison the stream.
    client.ping().unwrap();
    let outcomes =
        client.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2])]).unwrap();
    assert!(outcomes[0].is_ok());
    server.shutdown();
    drop(runtime);
}

#[test]
fn overload_shed_round_trips_as_typed_per_query_errors() {
    let runtime = Arc::new(ServeRuntime::start(
        StructureTask::new(SlowCard),
        ServeConfig { threads: 1, max_batch: 1, queue_capacity: 1, ..serve_config() },
    ));
    let server = serve_backend(Arc::clone(&runtime) as _, NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // One frame of 6 queries against a capacity-1 queue: admission is a
    // single atomic bulk push, so exactly one query is admitted and the
    // rest shed — and the shed must arrive as ErrorCode::Serve(Overloaded),
    // not a stringified failure.
    let requests: Vec<QueryRequest> =
        (0..6).map(|i| QueryRequest::new(vec![i as u32])).collect();
    let outcomes = client.query_batch(WireTask::Cardinality, &requests).unwrap();
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ErrorCode::Serve(ServeError::Overloaded))))
        .count();
    assert_eq!(ok, 1, "capacity-1 queue admits exactly one");
    assert_eq!(shed, 5, "the rest shed typed");
    server.shutdown();
    drop(runtime);
}

#[test]
fn malformed_frames_get_typed_refusals() {
    let config = NetConfig { max_frame_bytes: 1 << 12, ..NetConfig::default() };

    // Bad CRC.
    {
        let (server, runtime, addr) = start_server(config.clone());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame =
            encode_frame_v2(0, 5, None, &encode_request_batch(&[QueryRequest::new(vec![1])]));
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        raw.write_all(&frame).unwrap();
        let resp = read_frame(&mut raw, 1 << 12).unwrap();
        match decode_response_batch(&resp.payload) {
            Err(ProtoError::Remote(ErrorCode::BadFrame)) => {}
            other => panic!("bad CRC not refused typed: {other:?}"),
        }
        server.shutdown();
        drop(runtime);
    }

    // Unsupported versions: the retired first revision and one past the
    // one the server speaks. The refusal is addressed to the request.
    for version in [1, VERSION + 1] {
        let (server, runtime, addr) = start_server(config.clone());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame =
            encode_frame_v2(0, 6, None, &encode_request_batch(&[QueryRequest::new(vec![1])]));
        frame[4] = version;
        raw.write_all(&frame).unwrap();
        let resp = read_frame(&mut raw, 1 << 12).unwrap();
        assert_eq!(resp.id, 6, "version {version} refusal echoes the request id");
        match decode_response_batch(&resp.payload) {
            Err(ProtoError::Remote(ErrorCode::UnsupportedVersion)) => {}
            other => panic!("version {version} not refused typed: {other:?}"),
        }
        server.shutdown();
        drop(runtime);
    }

    // Declared payload length past the server's cap: refused before the
    // payload is read (the client never sends one).
    {
        let (server, runtime, addr) = start_server(config.clone());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut header = encode_frame_v2(0, 7, None, &[]);
        header[14..18].copy_from_slice(&(1u32 << 20).to_le_bytes());
        raw.write_all(&header[..HEADER_LEN]).unwrap();
        let resp = read_frame(&mut raw, 1 << 12).unwrap();
        match decode_response_batch(&resp.payload) {
            Err(ProtoError::Remote(ErrorCode::FrameTooLarge)) => {}
            other => panic!("oversized frame not refused typed: {other:?}"),
        }
        server.shutdown();
        drop(runtime);
    }

    // Garbage payload inside a well-formed frame.
    {
        let (server, runtime, addr) = start_server(config);
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let frame = encode_frame_v2(0, 8, None, &[0xFF; 13]);
        raw.write_all(&frame).unwrap();
        let resp = read_frame(&mut raw, 1 << 12).unwrap();
        match decode_response_batch(&resp.payload) {
            Err(ProtoError::Remote(ErrorCode::BadFrame)) => {}
            other => panic!("garbage payload not refused typed: {other:?}"),
        }
        server.shutdown();
        drop(runtime);
    }
}

#[test]
fn graceful_drain_closes_the_listener() {
    let (server, runtime, addr) = start_server(NetConfig::default());
    let mut client = NetClient::connect(addr).unwrap();
    let outcomes =
        client.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2, 3])]).unwrap();
    assert!(outcomes[0].is_ok());
    server.shutdown();
    // After the drain returns the listener is gone: new connections are
    // refused (or a fresh client fails on first use).
    match NetClient::connect(addr) {
        Err(_) => {}
        Ok(mut late) => assert!(late.ping().is_err(), "post-drain connection served a ping"),
    }
    // The backend was untouched by the net drain: in-process serving works.
    let outcome = runtime.call(vec![1u32, 2].into_boxed_slice()).unwrap();
    assert_eq!(outcome.value, 3.0);
    drop(runtime);
}

#[test]
fn remote_shutdown_is_gated_and_drains_when_allowed() {
    // Gate closed: the frame is refused typed and nothing drains.
    let (server, runtime, addr) = start_server(NetConfig::default());
    let mut client = NetClient::connect(addr).unwrap();
    match client.shutdown_server() {
        Err(NetError::Proto(ProtoError::Remote(ErrorCode::ShutdownNotAllowed))) => {}
        other => panic!("expected shutdown refusal, got {other:?}"),
    }
    assert!(!server.is_shutting_down());
    server.shutdown();
    drop(runtime);

    // Gate open: the frame is acked, then the server drains.
    let (server, runtime, addr) =
        start_server(NetConfig { allow_remote_shutdown: true, ..NetConfig::default() });
    let mut client = NetClient::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    // The flag is raised by the handler right after the ack.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !server.is_shutting_down() {
        assert!(std::time::Instant::now() < deadline, "shutdown flag never raised");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    drop(runtime);
}

#[test]
fn sharded_structure_serves_over_the_wire() {
    // Two mock shards, summed: a remote query answers 2 × (1.5 × |q|).
    let runtime = Arc::new(ServeRuntime::start(
        StructureTask::new(two_shards(MockCard)),
        serve_config(),
    ));
    let server = serve_backend(Arc::clone(&runtime) as _, NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let response =
        client.query(WireTask::Cardinality, QueryRequest::new(vec![10, 20, 30, 40])).unwrap();
    match response.value {
        QueryValue::Cardinality(v) => assert_eq!(v, 2.0 * 1.5 * 4.0),
        other => panic!("wrong value kind: {other:?}"),
    }
    server.shutdown();
    drop(runtime);
}
