//! End-to-end multi-tenant serving over loopback TCP: one registry server
//! hosting several collections answers exactly like dedicated solo servers,
//! clients naming no collection get the default one, admin frames manage
//! residency over the wire, per-tenant quotas shed one tenant without
//! touching another, a query no model can answer is refused on its own,
//! a served index tenant counts each answer's bound miss once, an index
//! tenant whose sets were tampered with is refused at load, and each
//! tenant's precision gauge names its own kernel.

mod common;

use setlearn::model::DeepSetsConfig;
use setlearn::persist::{
    save_manifest, CollectionManifest, COLLECTION_MODEL, COLLECTION_SETS,
};
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, IndexConfig, IndexStructure, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure, Sharded,
};
use setlearn::{Precision, ShardBy, ShardSpec, ShardedCollection};
use setlearn::wire::{QueryRequest, QueryResponse, QueryValue, WireTask};
use setlearn_data::{normalize, ElementSet, GeneratorConfig, SetCollection, SubsetIndex};
use setlearn_serve::net::{NetClient, NetConfig, NetError, NetServer};
use setlearn_serve::proto::{ErrorCode, ProtoError, WireOutcome};
use setlearn_serve::{
    CardinalityTask, CollectionRegistry, QuotaConfig, RegistryConfig, ResolveError, ServeConfig,
    ServeError, ServeRuntime,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmproot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "setlearn-regloop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_serve() -> ServeConfig {
    ServeConfig {
        threads: 1,
        max_batch: 8,
        queue_capacity: 64,
        ..ServeConfig::default()
    }
}

fn tiny_sets(seed: u64) -> SetCollection {
    GeneratorConfig {
        num_sets: 30,
        vocab: 40,
        zipf_s: 0.0,
        min_set_size: 2,
        max_set_size: 5,
        seed,
    }
    .generate()
}

/// Persists a trained `task` structure (of `shards` parts, when sharded)
/// and its sets under `root/<name>/`.
fn write_tenant<M: serde::Serialize>(
    root: &Path,
    name: &str,
    task: &str,
    shards: Option<usize>,
    model: &M,
    sets: &SetCollection,
) {
    let dir = root.join(name);
    let shard_by = shards.map(|_| "hash".to_string());
    save_manifest(&dir, &CollectionManifest { task: task.into(), shards, shard_by }).unwrap();
    setlearn::persist::save_json(model, &dir.join(COLLECTION_MODEL)).unwrap();
    setlearn::persist::save_json(sets, &dir.join(COLLECTION_SETS)).unwrap();
}

/// Trains and persists a tiny cardinality collection under `root/<name>/`.
fn write_collection(root: &Path, name: &str, seed: u64) {
    write_collection_at(root, name, seed, Precision::F32);
}

/// [`write_collection`] built to serve at `precision`.
fn write_collection_at(root: &Path, name: &str, seed: u64, precision: Precision) {
    let sets = tiny_sets(seed);
    let mut cfg = CardinalityConfig::new(DeepSetsConfig::lsm(sets.num_elements()));
    cfg.model.precision = precision;
    cfg.guided.warmup_epochs = 1;
    cfg.guided.rounds = 0;
    cfg.guided.epochs_per_round = 1;
    cfg.max_subset_size = 2;
    let (est, _) = LearnedCardinality::build(&sets, &cfg);
    write_tenant(root, name, "cardinality", None, &est, &sets);
}

/// A dedicated server for the model persisted at `root/<name>/`, loaded and
/// started by hand and injected as a registry's only collection — the
/// bit-identity reference for the loader.
fn solo_server(root: &Path, name: &str) -> (NetServer, std::net::SocketAddr) {
    let est: LearnedCardinality =
        setlearn::persist::load_json(&root.join(name).join(COLLECTION_MODEL)).unwrap();
    let runtime = Arc::new(ServeRuntime::start(CardinalityTask::new(est), quick_serve()));
    let server = common::serve_backend(runtime, NetConfig::default());
    let addr = server.local_addr();
    (server, addr)
}

fn registry_server(
    root: &Path,
    default: Option<&str>,
    quota: Option<QuotaConfig>,
) -> (NetServer, std::net::SocketAddr, Arc<CollectionRegistry>) {
    let mut config = RegistryConfig::new(root);
    config.serve = quick_serve();
    config.default_collection = default.map(str::to_string);
    config.quota = quota;
    let registry = Arc::new(CollectionRegistry::new(config));
    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&registry), NetConfig::default())
            .unwrap();
    let addr = server.local_addr();
    (server, addr, registry)
}

fn requests() -> Vec<QueryRequest> {
    (0..20).map(|i| QueryRequest::new(vec![i % 7, (i * 3) % 11 + 1])).collect()
}

fn cardinalities(outcomes: &[setlearn_serve::proto::WireOutcome]) -> Vec<u64> {
    outcomes
        .iter()
        .map(|o| match o.as_ref().unwrap().value {
            QueryValue::Cardinality(v) => v.to_bits(),
            ref other => panic!("wrong value kind: {other:?}"),
        })
        .collect()
}

#[test]
fn registry_answers_each_tenant_bit_identically_to_solo_servers() {
    let root = tmproot("two-tenant");
    write_collection(&root, "tenant-a", 7);
    write_collection(&root, "tenant-b", 8);
    let (solo_a, addr_a) = solo_server(&root, "tenant-a");
    let (solo_b, addr_b) = solo_server(&root, "tenant-b");
    let (server, addr, _registry) = registry_server(&root, Some("tenant-a"), None);
    let queries = requests();

    let want_a = cardinalities(
        &NetClient::connect(addr_a)
            .unwrap()
            .query_batch(WireTask::Cardinality, &queries)
            .unwrap(),
    );
    let want_b = cardinalities(
        &NetClient::connect(addr_b)
            .unwrap()
            .query_batch(WireTask::Cardinality, &queries)
            .unwrap(),
    );
    assert_ne!(want_a, want_b, "the two tenants trained genuinely different models");

    // v2 clients address each tenant explicitly; answers are bit-identical
    // to the dedicated servers.
    let mut client_a = NetClient::connect(addr).unwrap().with_collection("tenant-a");
    let mut client_b = NetClient::connect(addr).unwrap().with_collection("tenant-b");
    let got_a =
        cardinalities(&client_a.query_batch(WireTask::Cardinality, &queries).unwrap());
    let got_b =
        cardinalities(&client_b.query_batch(WireTask::Cardinality, &queries).unwrap());
    assert_eq!(got_a, want_a, "tenant-a through the registry diverged from its solo server");
    assert_eq!(got_b, want_b, "tenant-b through the registry diverged from its solo server");

    // A client naming no collection sends an empty id, rides to the
    // default collection and sees tenant-a's answers unchanged.
    let mut unaddressed = NetClient::connect(addr).unwrap();
    unaddressed.ping().unwrap();
    let got_default =
        cardinalities(&unaddressed.query_batch(WireTask::Cardinality, &queries).unwrap());
    assert_eq!(got_default, want_a, "empty-id default routing diverged from the solo server");

    server.shutdown();
    solo_a.shutdown();
    solo_b.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_collections_refuse_typed_and_the_connection_survives() {
    let root = tmproot("unknown");
    write_collection(&root, "tenant-a", 9);
    let (server, addr, _registry) = registry_server(&root, Some("tenant-a"), None);

    let mut ghost = NetClient::connect(addr).unwrap().with_collection("ghost");
    match ghost.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2])]) {
        Err(NetError::Proto(ProtoError::Remote(ErrorCode::UnknownCollection))) => {}
        other => panic!("expected UnknownCollection, got {other:?}"),
    }
    // The refusal is per-frame: the same connection re-addressed works.
    ghost.set_collection(Some("tenant-a".into()));
    let outcomes =
        ghost.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2])]).unwrap();
    assert!(outcomes[0].is_ok());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn admin_frames_list_attach_and_detach_over_the_wire() {
    let root = tmproot("admin");
    write_collection(&root, "tenant-a", 11);
    write_collection(&root, "tenant-b", 12);
    let (server, addr, registry) = registry_server(&root, Some("tenant-a"), None);
    let mut admin = NetClient::connect(addr).unwrap();

    // Before any query: both discovered, neither resident.
    let rows = admin.collections().unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|c| !c.resident && c.task == WireTask::Cardinality));
    assert!(rows.iter().any(|c| c.name == "tenant-a"));
    assert!(rows.iter().any(|c| c.name == "tenant-b"));

    // First query makes tenant-b resident; the listing reflects it.
    let mut client_b = NetClient::connect(addr).unwrap().with_collection("tenant-b");
    client_b.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![3, 4])]).unwrap();
    let rows = admin.collections().unwrap();
    let b = rows.iter().find(|c| c.name == "tenant-b").unwrap();
    assert!(b.resident, "first query loads the collection");
    assert_eq!(registry.resident_count(), 1);

    // Detach refuses further frames; attach restores service.
    admin.detach_collection("tenant-b").unwrap();
    match client_b.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![3, 4])]) {
        Err(NetError::Proto(ProtoError::Remote(ErrorCode::UnknownCollection))) => {}
        other => panic!("detached collection still answered: {other:?}"),
    }
    admin.attach_collection("tenant-b").unwrap();
    let outcomes = client_b
        .query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![3, 4])])
        .unwrap();
    assert!(outcomes[0].is_ok());
    // Attaching a name that never existed is a typed error.
    match admin.attach_collection("ghost") {
        Err(NetError::Proto(ProtoError::Remote(ErrorCode::UnknownCollection))) => {}
        other => panic!("attach of unknown collection: {other:?}"),
    }

    // The health probe carries registry residency.
    let report = admin.health().unwrap();
    assert!(report.resident_collections >= 1);
    assert!(report.collection_pending.iter().any(|(name, _)| name == "tenant-b"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quota_exhaustion_sheds_one_tenant_while_the_other_answers() {
    let root = tmproot("quota");
    write_collection(&root, "tenant-a", 13);
    write_collection(&root, "tenant-b", 14);
    // A bucket of 4 with a negligible refill: tenant-a exhausts it fast.
    let quota = QuotaConfig { rate: 0.001, burst: 4.0 };
    let (server, addr, _registry) = registry_server(&root, None, Some(quota));

    let mut client_a = NetClient::connect(addr).unwrap().with_collection("tenant-a");
    let mut shed = false;
    for i in 0..8 {
        match client_a.query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2])]) {
            Ok(outcomes) => assert!(outcomes[0].is_ok(), "admitted query {i} answered"),
            Err(NetError::Proto(ProtoError::Remote(ErrorCode::TenantOverloaded))) => {
                shed = true;
                break;
            }
            other => panic!("unexpected outcome for query {i}: {other:?}"),
        }
    }
    assert!(shed, "tenant-a never hit its quota");
    // The shed is per-tenant: tenant-b has its own untouched bucket.
    let mut client_b = NetClient::connect(addr).unwrap().with_collection("tenant-b");
    let outcomes = client_b
        .query_batch(WireTask::Cardinality, &[QueryRequest::new(vec![1, 2])])
        .unwrap();
    assert!(outcomes[0].is_ok(), "tenant-b served while tenant-a is shed");
    // And it is not sticky: the refused tenant's connection still pings.
    client_a.ping().unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

fn wire_bytes(response: &QueryResponse) -> Vec<u8> {
    let mut out = Vec::new();
    response.encode(&mut out);
    out
}

/// Sends one frame mixing answerable queries with an out-of-vocabulary id,
/// an empty set and `u32::MAX` to `name`, and checks each hostile query is
/// refused on its own with `invalid_query` while every other query is
/// answered bit-for-bit as `structure.query_batch` answers it alone.
fn assert_refuses_hostile_queries<S>(addr: std::net::SocketAddr, name: &str, structure: &S)
where
    S: LearnedSetStructure,
    QueryResponse: From<setlearn::tasks::QueryOutcome<S::Output>>,
{
    let vocab = structure.vocab().expect("a trained structure knows its vocabulary");
    let frame = [
        vec![1, 2],
        vec![3, vocab],
        vec![4],
        vec![],
        vec![u32::MAX, 0],
        vec![vocab - 1, 5],
    ];
    let hostile = [1, 3, 4];
    let answerable: Vec<ElementSet> = frame
        .iter()
        .enumerate()
        .filter(|(i, _)| !hostile.contains(i))
        .map(|(_, q)| normalize(q.clone()))
        .collect();
    let mut direct = structure.query_batch(&answerable).into_iter().map(QueryResponse::from);
    let requests: Vec<QueryRequest> = frame.iter().cloned().map(QueryRequest::new).collect();
    let task: WireTask = S::NAME.parse().unwrap();
    let mut client = NetClient::connect(addr).unwrap().with_collection(name);
    let outcomes: Vec<WireOutcome> = client.query_batch(task, &requests).unwrap();
    for (i, outcome) in outcomes.iter().enumerate() {
        if hostile.contains(&i) {
            assert_eq!(outcome, &Err(ErrorCode::Serve(ServeError::InvalidQuery)), "{name} #{i}");
        } else {
            let served = outcome.as_ref().unwrap_or_else(|e| panic!("{name} #{i}: {e}"));
            assert_eq!(wire_bytes(served), wire_bytes(&direct.next().unwrap()), "{name} #{i}");
        }
    }
    // The refusals did not poison the connection.
    client.ping().unwrap();
}

/// An empty query or an element id past the tenant's vocabulary would panic
/// the model's embedding gather and fail its whole batch; instead each is
/// refused on its own, for every task, and the rest of its frame is
/// answered exactly.
#[test]
fn hostile_queries_are_refused_one_by_one_for_every_task() {
    let root = tmproot("hostile");
    let sets = tiny_sets(51);
    let model = DeepSetsConfig::lsm(sets.num_elements());
    let mut card_cfg = CardinalityConfig::new(model.clone());
    card_cfg.guided.warmup_epochs = 1;
    card_cfg.guided.rounds = 0;
    card_cfg.max_subset_size = 2;
    let (card, _) = LearnedCardinality::build(&sets, &card_cfg);
    write_tenant(&root, "card", "cardinality", None, &card, &sets);
    let bloom_cfg = BloomConfig { epochs: 2, ..BloomConfig::new(model.clone()) };
    let (bloom, _) = LearnedBloom::build_from_collection(&sets, 80, 80, 2, &bloom_cfg);
    write_tenant(&root, "bloom", "bloom", None, &bloom, &sets);
    let mut index_cfg = IndexConfig::new(model);
    index_cfg.guided.warmup_epochs = 1;
    index_cfg.guided.rounds = 0;
    index_cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&sets, &index_cfg);
    write_tenant(&root, "idx", "index", None, &index, &sets);
    let (server, addr, _registry) = registry_server(&root, None, None);

    assert_refuses_hostile_queries(addr, "card", &card);
    assert_refuses_hostile_queries(addr, "bloom", &bloom);
    let index = IndexStructure { index, collection: Arc::new(sets) };
    assert_refuses_hostile_queries(addr, "idx", &index);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Guards the "collection file is a real SetCollection" assumption the
/// solo-server reference relies on (index serving would need it; the
/// cardinality task never touches it, so corruption would otherwise pass).
#[test]
fn written_fixture_collections_load_back() {
    let root = tmproot("fixture");
    write_collection(&root, "tenant-a", 15);
    let sets: SetCollection =
        setlearn::persist::load_json(&root.join("tenant-a").join(COLLECTION_SETS)).unwrap();
    assert!(!sets.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

/// The served path counts each answer's exhausted scan window once, per
/// collection: `setlearn_serve_bound_misses_total{task="index",collection=…}`
/// moves by exactly the number of responses flagged `bound_miss`. Pairs no
/// set holds, sent to an index tenant, exhaust their windows. The same
/// fixture in two shards, sent pairs the collection holds, is the case a
/// per-part count gets wrong: the shard without the pair exhausts its own
/// window, but the folded answer found it, so it is no miss.
#[test]
fn served_index_bound_misses_are_counted() {
    let root = tmproot("misses");
    let sets = tiny_sets(41);
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(sets.num_elements()));
    cfg.guided.warmup_epochs = 1;
    cfg.guided.rounds = 0;
    cfg.guided.epochs_per_round = 1;
    cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&sets, &cfg);
    write_tenant(&root, "idx", "index", None, &index, &sets);
    let part = ShardedCollection::partition(&sets, ShardSpec::new(2, ShardBy::Hash)).unwrap();
    let (sharded, _) =
        Sharded::build(&part, |_, shard| Ok(LearnedSetIndex::build(shard, &cfg))).unwrap();
    write_tenant(&root, "shidx", "index", Some(2), &sharded, &sets);
    let mut config = RegistryConfig::new(&root);
    config.serve = quick_serve();
    let registry = CollectionRegistry::new(config);

    // Serves `queries` to `tenant`; returns (responses flagged, counter delta).
    let serve = |tenant: &str, queries: &[ElementSet]| {
        let resident = registry.resolve(Some(tenant)).unwrap();
        let misses = || {
            setlearn_obs::metrics()
                .snapshot()
                .counter_value(
                    "setlearn_serve_bound_misses_total",
                    &[("task", "index"), ("collection", tenant)],
                )
                .expect("the resident tenant's runtime registered its counter")
        };
        let before = misses();
        let flagged = queries
            .chunks(32)
            .flat_map(|batch| resident.backend().submit_wire(batch.to_vec(), None))
            .map(|ticket| ticket().unwrap())
            .filter(|response| response.bound_miss)
            .count() as u64;
        (flagged, misses() - before)
    };

    let n = sets.num_elements();
    let absent: Vec<ElementSet> = (0..n)
        .map(|e| normalize(vec![e, (e + 7) % n]))
        .filter(|q| !sets.contains_subset(q))
        .collect();
    assert!(!absent.is_empty(), "fixture has no absent pairs");
    let (flagged, counted) = serve("idx", &absent);
    assert!(flagged > 0, "absent pairs exhaust their windows");
    assert_eq!(counted, flagged);

    let present: Vec<ElementSet> = SubsetIndex::build(&sets, 2)
        .iter()
        .map(|(s, _)| s.clone())
        .filter(|s| s.len() == 2)
        .collect();
    let bound = sharded.bind(&sets).unwrap();
    let part_misses: usize = bound
        .shards()
        .iter()
        .map(|shard| shard.query_batch(&present).iter().filter(|o| o.bound_miss).count())
        .sum();
    let (flagged, counted) = serve("shidx", &present);
    assert!(part_misses as u64 > flagged, "the shards miss more than the answers do");
    assert_eq!(counted, flagged);
    let _ = std::fs::remove_dir_all(&root);
}

/// An index tenant whose `collection.json` was edited after training —
/// one set's ids reversed, which the merge walk would silently miss — is
/// refused at load, plain and sharded, naming the set and the rule.
#[test]
fn tampered_index_collection_is_refused_at_load() {
    #[derive(serde::Serialize)]
    struct Stored {
        sets: Vec<Vec<u32>>,
        num_elements: u32,
    }
    let root = tmproot("tampered");
    let sets = tiny_sets(43);
    let mut cfg = IndexConfig::new(DeepSetsConfig::lsm(sets.num_elements()));
    cfg.guided.warmup_epochs = 1;
    cfg.guided.rounds = 0;
    cfg.guided.epochs_per_round = 1;
    cfg.max_subset_size = 2;
    let (index, _) = LearnedSetIndex::build(&sets, &cfg);
    write_tenant(&root, "idx", "index", None, &index, &sets);
    let part = ShardedCollection::partition(&sets, ShardSpec::new(2, ShardBy::Hash)).unwrap();
    let (sharded, _) =
        Sharded::build(&part, |_, shard| Ok(LearnedSetIndex::build(shard, &cfg))).unwrap();
    write_tenant(&root, "shidx", "index", Some(2), &sharded, &sets);
    let mut tampered = Stored {
        sets: sets.sets().iter().map(|s| s.to_vec()).collect(),
        num_elements: sets.num_elements(),
    };
    tampered.sets[0].reverse();
    let mut config = RegistryConfig::new(&root);
    config.serve = quick_serve();
    let registry = CollectionRegistry::new(config);
    for tenant in ["idx", "shidx"] {
        setlearn::persist::save_json(&tampered, &root.join(tenant).join(COLLECTION_SETS))
            .unwrap();
        match registry.resolve(Some(tenant)) {
            Err(ResolveError::Failed(name, why)) => {
                assert_eq!(name, tenant);
                assert!(why.contains("set 0 is not strictly ascending"), "{why}");
            }
            Err(other) => panic!("{tenant}: expected a load failure, got {other}"),
            Ok(_) => panic!("{tenant}: a tampered collection was served"),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `setlearn_infer_precision` is per collection: an f32 and a q8 tenant of
/// the same task each read their own kernel, however their batches
/// interleave, and so does a mutable (WAL-backed) q8 tenant.
#[test]
fn each_tenant_reports_its_own_precision() {
    let root = tmproot("precision");
    write_collection_at(&root, "card-f32", 51, Precision::F32);
    write_collection_at(&root, "card-q8", 52, Precision::Q8);
    write_collection_at(&root, "card-q8-live", 53, Precision::Q8);
    std::fs::create_dir_all(root.join("card-q8-live").join("wal")).unwrap();
    let mut config = RegistryConfig::new(&root);
    config.serve = quick_serve();
    let registry = CollectionRegistry::new(config);
    for tenant in ["card-f32", "card-q8", "card-q8-live", "card-f32"] {
        let resident = registry.resolve(Some(tenant)).unwrap();
        for ticket in resident.backend().submit_wire(vec![normalize(vec![1, 2])], None) {
            ticket().unwrap();
        }
    }
    let snapshot = setlearn_obs::metrics().snapshot();
    let tenants =
        [("card-f32", Precision::F32), ("card-q8", Precision::Q8), ("card-q8-live", Precision::Q8)];
    for (tenant, live) in tenants {
        for p in Precision::ALL {
            let label = p.to_string();
            let gauge = snapshot.gauge_value(
                "setlearn_infer_precision",
                &[("task", "cardinality"), ("collection", tenant), ("precision", &label)],
            );
            let want = if p == live { 1.0 } else { 0.0 };
            assert_eq!(gauge, Some(want), "{tenant} at {p}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
