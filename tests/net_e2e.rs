//! End-to-end over real trained models: answers served over loopback TCP
//! (`SLP1` frames through `NetServer`/`NetClient`) are bit-identical to the
//! in-process [`LearnedSetStructure::query_batch`] path — values, guard
//! fallbacks, and bound misses alike — for all three tasks, unsharded and
//! sharded.

use setlearn::prelude::{
    BloomConfig, CardinalityConfig, GuidedConfig, IndexConfig,
    IndexStructure, LearnedBloom, LearnedCardinality, LearnedSetIndex, LearnedSetStructure,
    QueryOutcome, QueryRequest, QueryValue, ShardBy, ShardSpec, Sharded, ShardedCollection,
    WireTask,
};
use setlearn::model::DeepSetsConfig;
use setlearn_data::{ElementSet, GeneratorConfig, SetCollection, SubsetIndex};
use setlearn_serve::{
    BloomTask, CardinalityTask, CollectionRegistry, IndexTask, NetClient, NetConfig, NetServer,
    RegistryConfig, ServeConfig, ServeRuntime, StructureTask, WireBackend, WireOutcome,
};
use std::sync::Arc;
use std::time::Duration;

fn quick_guided() -> GuidedConfig {
    GuidedConfig {
        warmup_epochs: 4,
        rounds: 1,
        epochs_per_round: 2,
        percentile: 0.9,
        batch_size: 64,
        learning_rate: 5e-3,
        seed: 1,
    }
}

fn small_collection() -> SetCollection {
    GeneratorConfig::sd(200, 11).generate()
}

fn queries(collection: &SetCollection, n: usize) -> Vec<ElementSet> {
    SubsetIndex::build(collection, 2).iter().take(n).map(|(s, _)| s.clone()).collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_batch: 32,
        max_delay: Duration::from_micros(200),
        queue_capacity: 512,
    }
}

/// Sends `qs` as one wire batch to `backend` — injected as the default
/// collection of a registry rooted nowhere — and returns the per-query
/// outcomes.
fn over_the_wire(
    backend: Arc<dyn WireBackend>,
    task: WireTask,
    qs: &[ElementSet],
) -> Vec<WireOutcome> {
    let mut config = RegistryConfig::new("/nonexistent");
    config.default_collection = Some("solo".into());
    let registry = Arc::new(CollectionRegistry::new(config));
    registry.insert("solo", backend);
    let server = NetServer::bind_registry("127.0.0.1:0", registry, NetConfig::default())
        .expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let requests: Vec<QueryRequest> =
        qs.iter().map(|q| QueryRequest::new(q.to_vec())).collect();
    let outcomes = client.query_batch(task, &requests).expect("query batch");
    drop(client);
    server.shutdown();
    outcomes
}

/// The wire response must carry the local outcome bit-for-bit: the typed
/// value (f64 compared on raw bits), the guard-fallback reason, and the
/// bound-miss flag.
fn assert_wire_equals<T, F: Fn(&QueryValue, &T)>(
    wire: &[WireOutcome],
    local: &[QueryOutcome<T>],
    check_value: F,
) {
    assert_eq!(wire.len(), local.len());
    for (w, l) in wire.iter().zip(local) {
        let w = w.as_ref().expect("no query should error on an idle runtime");
        check_value(&w.value, &l.value);
        assert_eq!(w.fallback, l.fallback, "fallback reason changed in transit");
        assert_eq!(w.bound_miss, l.bound_miss, "bound-miss flag changed in transit");
    }
}

#[test]
fn cardinality_over_loopback_is_bit_identical_to_query_batch() {
    let collection = small_collection();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (estimator, _) = LearnedCardinality::build(&collection, &cfg);
    let qs = queries(&collection, 150);
    let local = estimator.query_batch(&qs);

    let runtime =
        Arc::new(ServeRuntime::start(CardinalityTask::new(estimator), serve_config()));
    let wire = over_the_wire(Arc::clone(&runtime) as _, WireTask::Cardinality, &qs);
    assert_wire_equals(&wire, &local, |got, want: &f64| match got {
        QueryValue::Cardinality(v) => assert_eq!(v.to_bits(), want.to_bits()),
        other => panic!("cardinality answered with {other:?}"),
    });
    Arc::try_unwrap(runtime).map_err(|_| "runtime still shared").unwrap().shutdown();
}

#[test]
fn index_over_loopback_is_bit_identical_to_query_batch() {
    let collection = Arc::new(small_collection());
    let cfg = IndexConfig {
        model: DeepSetsConfig::lsm(collection.num_elements()),
        guided: quick_guided(),
        max_subset_size: 2,
        range_length: 50.0,
        target: setlearn::tasks::PositionTarget::First,
    };
    let (index, _) = LearnedSetIndex::build(&collection, &cfg);
    let structure = IndexStructure { index, collection: Arc::clone(&collection) };
    let qs = queries(&collection, 120);
    let local = structure.query_batch(&qs);

    let runtime = Arc::new(ServeRuntime::start(IndexTask::new(structure), serve_config()));
    let wire = over_the_wire(Arc::clone(&runtime) as _, WireTask::Index, &qs);
    assert_wire_equals(&wire, &local, |got, want: &Option<usize>| match got {
        QueryValue::Position(p) => assert_eq!(*p, want.map(|v| v as u64)),
        other => panic!("index answered with {other:?}"),
    });
    Arc::try_unwrap(runtime).map_err(|_| "runtime still shared").unwrap().shutdown();
}

#[test]
fn bloom_over_loopback_is_bit_identical_to_query_batch() {
    let collection = small_collection();
    let mut cfg = BloomConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.epochs = 4;
    let (filter, _) = LearnedBloom::build_from_collection(&collection, 300, 300, 2, &cfg);
    let qs = queries(&collection, 120);
    let local = filter.query_batch(&qs);

    let runtime = Arc::new(ServeRuntime::start(BloomTask::new(filter), serve_config()));
    let wire = over_the_wire(Arc::clone(&runtime) as _, WireTask::Bloom, &qs);
    assert_wire_equals(&wire, &local, |got, want: &bool| match got {
        QueryValue::Membership(m) => assert_eq!(m, want),
        other => panic!("bloom answered with {other:?}"),
    });
    Arc::try_unwrap(runtime).map_err(|_| "runtime still shared").unwrap().shutdown();
}

/// A sharded structure over the wire: every query hits both shards inside
/// `serve_batch`, and the answer equals the in-process structure's.
#[test]
fn sharded_cardinality_over_loopback_is_bit_identical_to_query_batch() {
    let collection = small_collection();
    let sharded =
        ShardedCollection::partition(&collection, ShardSpec::new(2, ShardBy::Hash)).unwrap();
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(collection.num_elements()));
    cfg.guided = quick_guided();
    cfg.max_subset_size = 2;
    let (estimator, _) =
        Sharded::build(&sharded, |_, shard| Ok(LearnedCardinality::build(shard, &cfg))).unwrap();
    let qs = queries(&collection, 100);
    let local = estimator.query_batch(&qs);

    let runtime = Arc::new(ServeRuntime::start(StructureTask::new(estimator), serve_config()));
    let wire = over_the_wire(Arc::clone(&runtime) as _, WireTask::Cardinality, &qs);
    assert_wire_equals(&wire, &local, |got, want: &f64| match got {
        QueryValue::Cardinality(v) => assert_eq!(v.to_bits(), want.to_bits()),
        other => panic!("sharded cardinality answered with {other:?}"),
    });
    Arc::try_unwrap(runtime).map_err(|_| "runtime still shared").unwrap().shutdown();
}
