//! Shared by the loopback suites.

use setlearn_serve::net::{NetConfig, NetServer, WireBackend};
use setlearn_serve::{CollectionRegistry, RegistryConfig};
use std::sync::Arc;

/// The front-end over one injected backend: a registry (rooted nowhere)
/// whose only collection is `backend`, made the default so that plain v1
/// clients reach it.
pub fn serve_backend(backend: Arc<dyn WireBackend>, config: NetConfig) -> NetServer {
    let mut registry = RegistryConfig::new("/nonexistent");
    registry.default_collection = Some("solo".into());
    let registry = Arc::new(CollectionRegistry::new(registry));
    registry.insert("solo", backend);
    NetServer::bind_registry("127.0.0.1:0", registry, config).unwrap()
}
