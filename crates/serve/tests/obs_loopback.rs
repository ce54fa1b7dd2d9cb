//! Loopback tests for the observability plane: wire-scrapable stats and
//! health frames, client-supplied trace-id propagation into slow-query
//! records and spans (a sharded structure included), the typed
//! refusal of admin kinds this server predates, and the drain-grace window
//! where health flips to *not ready* while frames are still answered.

mod common;

use common::{serve_backend, two_shards};
use setlearn::mutable::OverlayAnswer;
use setlearn::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use setlearn::wire::{QueryRequest, QueryValue, WireTask};
use setlearn_obs::{parse_slow_jsonl, RecordKind};
use setlearn_serve::net::{NetClient, NetConfig, NetError, NetServer};
use setlearn_serve::proto::{
    decode_response_batch, encode_frame_v2, read_frame, ErrorCode, ProtoError, StatsFormat,
};
use setlearn_serve::{ServeConfig, ServeRuntime, StructureTask};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mock "cardinality" answering 2 × |query| after a short sleep, so stage
/// durations (inference in particular) are reliably nonzero; queries
/// containing 666 raise the fallback flag for degradation plumbing.
#[derive(Clone)]
struct PacedCard;

impl LearnedSetStructure for PacedCard {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        queries
            .iter()
            .map(|q| {
                std::thread::sleep(Duration::from_millis(2));
                let q = q.as_ref();
                if q.contains(&666) {
                    QueryOutcome {
                        value: 0.0,
                        fallback: Some(setlearn::hybrid::FallbackReason::NonFinite),
                        bound_miss: false,
                    }
                } else {
                    QueryOutcome::clean(q.len() as f64 * 2.0)
                }
            })
            .collect()
    }
}

impl Fold for PacedCard {
    fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
        common::sum(acc, part)
    }

    fn overlay(&self, _: &OverlayAnswer) -> QueryOutcome<f64> {
        unreachable!("a sharded structure is never mutable")
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

fn start_single(config: NetConfig) -> (NetServer, Arc<ServeRuntime<StructureTask<PacedCard>>>) {
    let runtime = Arc::new(ServeRuntime::start(StructureTask::new(PacedCard), serve_config()));
    let server = serve_backend(Arc::clone(&runtime) as _, config);
    (server, runtime)
}

#[test]
fn stats_frame_answers_prometheus_with_stage_labelled_histograms() {
    let (server, runtime) = start_single(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2, 3])]).unwrap();

    let text = client.stats(StatsFormat::Prometheus).unwrap();
    setlearn_obs::validate_prometheus(&text).expect("scrape output parses");
    assert!(text.contains("setlearn_request_stage_seconds"), "stage family exposed");
    for stage in ["decode", "queue", "inference", "encode"] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "stage label {stage:?} missing from exposition"
        );
    }

    // The JSON format carries the same snapshot, machine-parseable.
    let json = client.stats(StatsFormat::Json).unwrap();
    let snap = setlearn_obs::from_json(&json).expect("stats JSON parses");
    assert!(
        snap.histograms.iter().any(|h| h.key.name == "setlearn_request_stage_seconds"),
        "stage family present in JSON snapshot"
    );
    server.shutdown();
    drop(runtime);
}

#[test]
fn client_trace_id_reaches_slow_log_and_spans_through_a_sharded_structure() {
    // Threshold zero: every query is a "slow" query, deterministically.
    let config = NetConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..NetConfig::default()
    };
    let runtime = Arc::new(ServeRuntime::start(
        StructureTask::new(two_shards(PacedCard)),
        serve_config(),
    ));
    let server = serve_backend(Arc::clone(&runtime) as _, config);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    setlearn_obs::set_level(setlearn_obs::TelemetryLevel::Full);
    let trace_id: u64 = 0xCAFE_F00D_0000_0042;
    let outcomes = client
        .query_batch_traced(
            WireTask::Cardinality,
            &[QueryRequest::new(vec![666, 1, 2])],
            Some(trace_id),
        )
        .unwrap();
    match outcomes[0].as_ref().unwrap().value {
        QueryValue::Cardinality(v) => assert_eq!(v, 0.0, "fallback answers ride the wire"),
        ref other => panic!("wrong value kind: {other:?}"),
    }

    // The record is retrievable both in-process and over the wire, carries
    // the client's id verbatim, and its breakdown times both shards' work.
    let jsonl = client.stats(StatsFormat::SlowQueries).unwrap();
    // The handler pushes the request's span and slow-log record *after*
    // writing the reply, and serves this connection's next frame only after
    // both: the level may drop now, not when the query's reply arrived.
    setlearn_obs::set_level(setlearn_obs::TelemetryLevel::Metrics);
    let records = parse_slow_jsonl(&jsonl).expect("slow-query JSONL parses");
    let record = records
        .iter()
        .find(|r| r.trace_id == trace_id)
        .expect("client-supplied trace id in the slow-query log");
    assert_eq!(record.task, "cardinality");
    assert_eq!(record.set_size, 3);
    assert!(record.fallback, "degradation flag recorded");
    assert!(!record.bound_miss);
    assert!(record.total_us > 0);
    assert!(record.stages.inference_us > 0, "inference time across the shards recorded");
    assert!(
        server.slow_queries().iter().any(|r| r.trace_id == trace_id),
        "record also visible via the server handle"
    );

    // At Full level the request left a span naming the same trace id.
    let spans = setlearn_obs::tracer().drain();
    assert!(
        spans.iter().any(|r| {
            matches!(r.kind, RecordKind::Span)
                && r.name == "net_request"
                && r.fields.iter().any(|f| {
                    f.key == "trace_id" && f.text.as_deref() == Some(&trace_id.to_string())
                })
        }),
        "net_request span with the client's trace id"
    );

    server.shutdown();
    drop(runtime);
}

#[test]
fn health_reflects_drain_state_through_the_grace_window() {
    let config = NetConfig {
        allow_remote_shutdown: true,
        drain_grace: Duration::from_millis(400),
        ..NetConfig::default()
    };
    let (server, runtime) = start_single(config);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let report = client.health().unwrap();
    assert!(report.ready, "freshly started server is ready: {:?}", report.reasons);
    assert!(!report.draining);
    assert_eq!(report.resident_collections, 1, "the injected backend is resident");
    assert!(report.queue_capacity >= report.queue_depth);

    client.shutdown_server().unwrap();
    assert!(server.is_draining(), "drain flag raised at the ack");

    // Inside the grace window the same connection still serves queries —
    // but health now answers *not ready* so balancers stop routing here.
    let report = client.health().unwrap();
    assert!(!report.ready, "draining server is not ready");
    assert!(report.draining);
    assert!(report.reasons.iter().any(|r| r.contains("draining")), "{:?}", report.reasons);
    let outcomes =
        client.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![7, 8])]).unwrap();
    assert!(outcomes[0].is_ok(), "queries are still answered during the grace window");

    // The grace timer then promotes the drain to a full shutdown.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_shutting_down() {
        assert!(Instant::now() < deadline, "grace period never promoted to shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    drop(runtime);
}

#[test]
fn unknown_admin_kinds_are_refused_typed_and_the_connection_survives() {
    let (server, runtime) = start_single(NetConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // 0xEF is inside the reserved admin space but unknown to this server.
    raw.write_all(&encode_frame_v2(0xEF, 3, None, &[])).unwrap();
    let resp = read_frame(&mut raw, 1 << 20).unwrap();
    assert_eq!(resp.kind, 0xEF, "refusal echoes the probed kind");
    match decode_response_batch(&resp.payload) {
        Err(ProtoError::Remote(ErrorCode::AdminUnsupported)) => {}
        other => panic!("expected AdminUnsupported, got {other:?}"),
    }
    drop(raw);

    // A typed admin refusal never poisons a client's stream.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    match client.stats(StatsFormat::Prometheus) {
        Ok(_) => {}
        Err(NetError::Proto(ProtoError::Remote(code))) => {
            panic!("stats refused on a server that supports it: {code}")
        }
        Err(other) => panic!("stats failed: {other}"),
    }
    client.ping().unwrap();
    server.shutdown();
    drop(runtime);
}
