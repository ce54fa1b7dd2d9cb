//! Shared by the loopback suites.

use setlearn::tasks::{QueryOutcome, Sharded};
use setlearn::{ShardBy, ShardSpec};
use setlearn_serve::net::{NetConfig, NetServer, WireBackend};
use setlearn_serve::{CollectionRegistry, RegistryConfig};
use std::sync::Arc;

/// The front-end over one injected backend: a registry (rooted nowhere)
/// whose only collection is `backend`, made the default so that clients
/// naming no collection reach it.
pub fn serve_backend(backend: Arc<dyn WireBackend>, config: NetConfig) -> NetServer {
    let mut registry = RegistryConfig::new("/nonexistent");
    registry.default_collection = Some("solo".into());
    let registry = Arc::new(CollectionRegistry::new(registry));
    registry.insert("solo", backend);
    NetServer::bind_registry("127.0.0.1:0", registry, config).unwrap()
}

/// Two copies of a mock cardinality shard as one [`Sharded`] structure,
/// folded inside `query_batch` the way real shards are.
#[allow(dead_code)] // not every suite serves a sharded mock
pub fn two_shards<S: Clone>(shard: S) -> Sharded<S> {
    Sharded::new(vec![shard.clone(), shard], ShardSpec::new(2, ShardBy::Hash)).unwrap()
}

/// A mock shard's [`Fold`]: counts add, the first fallback wins.
#[allow(dead_code)]
pub fn sum(acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
    QueryOutcome {
        value: acc.value + part.value,
        fallback: acc.fallback.or(part.fallback),
        bound_miss: acc.bound_miss || part.bound_miss,
    }
}
