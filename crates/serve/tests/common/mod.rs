//! Shared by the loopback suites.

use setlearn::tasks::{aggregate_cardinality, LearnedSetStructure, QueryOutcome};
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

/// Mock cardinality shards folded inside `query_batch`, the way
/// `setlearn::tasks::sharded` folds real ones.
#[allow(dead_code)] // not every suite serves a sharded mock
pub struct SummedShards<S>(pub Vec<S>);

impl<S: LearnedSetStructure<Output = f64>> LearnedSetStructure for SummedShards<S> {
    type Output = f64;
    const NAME: &'static str = "cardinality";

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        let fold = |q: &Q| {
            aggregate_cardinality(self.0.iter().map(|shard| shard.query(q.as_ref())).collect())
        };
        queries.iter().map(fold).collect()
    }
}
