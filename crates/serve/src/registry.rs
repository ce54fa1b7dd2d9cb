//! Multi-tenant collection registry: one process serves many named
//! collections.
//!
//! A [`CollectionRegistry`] owns one serving backend per collection under a
//! collections root directory (`<root>/<name>/` — see
//! [`setlearn::persist::discover_collections`] for the layout). Collections
//! load lazily: the first frame addressing a name pays the checkpoint load
//! (concurrent requests for the same name are refused with
//! [`ResolveError::Loading`], a typed retry signal, instead of queuing
//! behind the load). Resident collections are evicted least-recently-used
//! when the configured byte budget is exceeded — except collections with
//! pending WAL operations or an in-flight compaction, which are pinned:
//! eviction must never lose an acknowledged write or abandon a retrain.
//!
//! Per-tenant admission control sits in front of each collection's
//! [`BoundedQueue`](crate::queue::BoundedQueue): a token bucket refilled at
//! `rate` requests/second up to `burst`. A tenant that exhausts its bucket
//! is shed with [`ErrorCode::TenantOverloaded`](crate::proto::ErrorCode) —
//! typed distinctly from global [`Overloaded`](crate::error::ServeError)
//! shedding, so a noisy tenant's clients see "you are over quota" while
//! everyone else's traffic is untouched.
//!
//! Registry telemetry (all labeled `collection="…"`, bounded by the obs
//! registry's `MAX_SERIES_PER_FAMILY` overflow collapse):
//!
//! - `setlearn_registry_loads_total` — checkpoint loads (counter)
//! - `setlearn_registry_evictions_total` — LRU evictions (counter)
//! - `setlearn_registry_resident` — resident collections (gauge, unlabeled)
//! - `setlearn_registry_resident_bytes` — bytes resident (gauge, unlabeled)
//! - `setlearn_serve_tenant_shed_total` — quota refusals (counter)
//! - `setlearn_infer_precision` — the kernel precision a tenant serves at,
//!   one-hot over `precision="f32"|"q8"` (gauge, also labeled `task`), set
//!   once when the tenant becomes resident

use crate::compact::{spawn_compactor_named, CompactorConfig, CompactorHandle};
use crate::hotswap::HotSwap;
use crate::net::{MutableBackend, WireBackend};
use crate::proto::CollectionInfo;
use crate::runtime::{ServeConfig, ServeRuntime};
use crate::task::StructureTask;
use crate::telemetry::{record_precision, NetTele};
use setlearn::mutable::{MutableCollection, MutableSink};
use setlearn::persist::{self, load_json, CheckpointFiles, CollectionEntry, COLLECTION_WAL};
use setlearn::tasks::{
    BloomConfig, CardinalityConfig, Fold, IndexConfig, IndexStructure, LearnedBloom,
    LearnedCardinality, LearnedSetIndex, LearnedSetStructure, QueryOutcome, Sharded,
};
use setlearn::wire::{QueryResponse, WireTask};
use setlearn::DeepSetsConfig;
use setlearn_data::SetCollection;
use setlearn_obs::Counter;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-tenant admission quota: a token bucket refilled continuously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Sustained admission rate, requests (query-batch elements) per second.
    pub rate: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: f64,
}

/// Tuning for a [`CollectionRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Collections root: `<root>/<name>/manifest.json` + checkpoints.
    pub root: PathBuf,
    /// Collection that frames with an empty collection id (clients that
    /// name none) are routed to. `None` refuses such frames with
    /// `UnknownCollection`.
    pub default_collection: Option<String>,
    /// LRU byte budget over resident collections (on-disk checkpoint size
    /// as the resident-size proxy). `None` never evicts.
    pub max_resident_bytes: Option<u64>,
    /// Runtime knobs applied to every collection's worker pool.
    pub serve: ServeConfig,
    /// Per-tenant token bucket applied to every collection; `None` disables
    /// tenant quotas (only global queue backpressure sheds).
    pub quota: Option<QuotaConfig>,
    /// Spawn a background compactor for mutable (WAL-backed) collections
    /// once this many ops are pending; 0 leaves deltas to the exact overlay.
    pub compact_after: usize,
}

impl RegistryConfig {
    /// A registry over `root` with default serve settings, no byte budget,
    /// no quotas, and no default collection.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RegistryConfig {
            root: root.into(),
            default_collection: None,
            max_resident_bytes: None,
            serve: ServeConfig::default(),
            quota: None,
            compact_after: 0,
        }
    }
}

/// A token bucket guarding one tenant's admission.
pub(crate) struct TenantQuota {
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

struct BucketState {
    tokens: f64,
    refilled: Instant,
}

impl TenantQuota {
    fn new(config: QuotaConfig) -> Self {
        TenantQuota {
            rate: config.rate.max(0.0),
            burst: config.burst.max(1.0),
            state: Mutex::new(BucketState { tokens: config.burst.max(1.0), refilled: Instant::now() }),
        }
    }

    /// Admits `n` requests if the bucket holds that many tokens.
    pub(crate) fn try_admit(&self, n: usize) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let elapsed = now.duration_since(state.refilled).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.rate).min(self.burst);
        state.refilled = now;
        if state.tokens >= n as f64 {
            state.tokens -= n as f64;
            true
        } else {
            false
        }
    }
}

/// One resident (loaded and serving) collection.
pub struct Resident {
    name: String,
    task: WireTask,
    backend: Arc<dyn WireBackend>,
    quota: Option<TenantQuota>,
    tele: NetTele,
    tenant_shed: Arc<Counter>,
    disk_bytes: u64,
    /// Logical-clock timestamp of the last resolve, the LRU key.
    last_used: AtomicU64,
    compactor: Option<CompactorHandle>,
    /// Registered through [`CollectionRegistry::insert`]: there is no
    /// checkpoint to reload it from, so the byte budget never evicts it.
    injected: bool,
}

impl Resident {
    /// The collection id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task this collection serves.
    pub fn task(&self) -> WireTask {
        self.task
    }

    /// The serving backend (queries and ingest route through it).
    pub fn backend(&self) -> &Arc<dyn WireBackend> {
        &self.backend
    }

    /// On-disk checkpoint bytes, the registry's resident-size proxy.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// Mutations applied but not yet compacted (0 for immutable).
    pub fn pending_ingest(&self) -> u64 {
        self.backend.pending_ingest()
    }

    /// Collection-labeled front-end telemetry for frames this collection
    /// answers.
    pub(crate) fn tele(&self) -> &NetTele {
        &self.tele
    }

    /// Charges `n` requests against the tenant's bucket; always admits when
    /// quotas are off. A refusal is counted under
    /// `setlearn_serve_tenant_shed_total{collection="…"}`.
    pub(crate) fn try_admit(&self, n: usize) -> bool {
        match &self.quota {
            None => true,
            Some(quota) => {
                let ok = quota.try_admit(n);
                if !ok && setlearn_obs::metrics_on() {
                    self.tenant_shed.inc();
                }
                ok
            }
        }
    }

    /// Busy collections are neither evicted nor detached: acknowledged
    /// writes not yet compacted and in-flight compactions must survive.
    fn busy(&self) -> bool {
        self.backend.pending_ingest() > 0
            || self.compactor.as_ref().is_some_and(|c| c.is_compacting())
    }

    /// Whether the byte budget must leave this resident alone.
    fn pinned(&self) -> bool {
        self.injected || self.busy()
    }
}

impl fmt::Debug for Resident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resident")
            .field("name", &self.name)
            .field("task", &self.task)
            .field("disk_bytes", &self.disk_bytes)
            .field("pending_ingest", &self.pending_ingest())
            .finish()
    }
}

/// Why a collection could not be resolved to a serving backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No collection with this name (or no default for unaddressed frames).
    Unknown(String),
    /// Another request is loading this collection right now; retry shortly.
    Loading(String),
    /// The collection exists but its checkpoint failed to load.
    Failed(String, String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Unknown(name) => write!(f, "unknown collection {name:?}"),
            ResolveError::Loading(name) => write!(f, "collection {name:?} is loading"),
            ResolveError::Failed(name, e) => write!(f, "collection {name:?} failed to load: {e}"),
        }
    }
}

/// Why an attach/detach admin request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminError {
    /// The named directory is missing, malformed, or invalidly named.
    Unknown(String),
    /// The collection is pinned (pending WAL ops or in-flight compaction).
    Busy(String),
}

impl fmt::Display for AdminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminError::Unknown(e) => write!(f, "unknown collection: {e}"),
            AdminError::Busy(name) => write!(f, "collection {name:?} has pending writes"),
        }
    }
}

enum Slot {
    /// A request is loading the checkpoint outside the registry lock.
    Loading,
    Ready(Arc<Resident>),
}

/// The multi-tenant registry: resolves collection names to resident
/// serving backends, loading lazily and evicting LRU under a byte budget.
pub struct CollectionRegistry {
    config: RegistryConfig,
    entries: Mutex<HashMap<String, Slot>>,
    /// Names detached by an admin frame: lazy loading will not resurrect
    /// them until re-attached.
    detached: Mutex<HashSet<String>>,
    /// Monotone logical clock ordering resolves for LRU.
    clock: AtomicU64,
}

impl CollectionRegistry {
    /// A registry over `config.root`. Directories are discovered lazily;
    /// the root may even be created after the registry.
    pub fn new(config: RegistryConfig) -> Self {
        CollectionRegistry {
            config,
            entries: Mutex::new(HashMap::new()),
            detached: Mutex::new(HashSet::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// The collections root directory.
    pub fn root(&self) -> &Path {
        &self.config.root
    }

    /// The collection empty-id frames route to.
    pub fn default_collection(&self) -> Option<&str> {
        self.config.default_collection.as_deref()
    }

    /// Resolves a frame's collection id (None = the default collection) to
    /// its resident backend, loading the checkpoint on first use.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<Resident>, ResolveError> {
        let name = match name {
            Some(name) => name,
            None => self
                .config
                .default_collection
                .as_deref()
                .ok_or_else(|| ResolveError::Unknown("(default)".into()))?,
        };
        {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            match entries.get(name) {
                Some(Slot::Ready(resident)) => {
                    let resident = Arc::clone(resident);
                    resident
                        .last_used
                        .store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                    return Ok(resident);
                }
                Some(Slot::Loading) => return Err(ResolveError::Loading(name.to_string())),
                None => {}
            }
            if self.detached.lock().unwrap_or_else(|e| e.into_inner()).contains(name) {
                return Err(ResolveError::Unknown(name.to_string()));
            }
            entries.insert(name.to_string(), Slot::Loading);
        }
        // Checkpoint load happens outside the lock: other collections keep
        // resolving, and concurrent requests for this one get the typed
        // `Loading` retry signal instead of convoying here.
        let loaded = self.load_resident(name);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match loaded {
            Ok(resident) => {
                let resident = Arc::new(resident);
                resident
                    .last_used
                    .store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                entries.insert(name.to_string(), Slot::Ready(Arc::clone(&resident)));
                if setlearn_obs::metrics_on() {
                    setlearn_obs::metrics()
                        .counter_with("setlearn_registry_loads_total", &[("collection", name)])
                        .inc();
                }
                self.enforce_budget(&mut entries, name);
                self.publish_gauges(&entries);
                Ok(resident)
            }
            Err(e) => {
                entries.remove(name);
                Err(ResolveError::Failed(name.to_string(), e))
            }
        }
    }

    /// Registers `backend` as the resident serving `name` with no directory
    /// behind it — how tests and benches put a fake or a hand-built structure
    /// behind the one front-end. It answers to its name (and as the default,
    /// when so configured) like a loaded collection, is never evicted or
    /// reloaded, and [`CollectionRegistry::detach`] removes it for good.
    pub fn insert(&self, name: &str, backend: Arc<dyn WireBackend>) {
        let resident = Arc::new(self.resident(name, backend, 0, None, true));
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.insert(name.to_string(), Slot::Ready(resident));
        self.publish_gauges(&entries);
    }

    /// Evicts least-recently-used unpinned collections until the resident
    /// byte total fits the budget. `keep` (the collection just resolved) is
    /// never evicted — a budget smaller than one collection must not evict
    /// the backend the caller is about to use.
    fn enforce_budget(&self, entries: &mut HashMap<String, Slot>, keep: &str) {
        let Some(budget) = self.config.max_resident_bytes else { return };
        loop {
            let total: u64 = entries
                .values()
                .map(|slot| match slot {
                    Slot::Ready(r) => r.disk_bytes,
                    Slot::Loading => 0,
                })
                .sum();
            if total <= budget {
                return;
            }
            let victim = entries
                .iter()
                .filter_map(|(name, slot)| match slot {
                    Slot::Ready(r) if name != keep && !r.pinned() => {
                        Some((name.clone(), r.last_used.load(Ordering::Relaxed)))
                    }
                    _ => None,
                })
                .min_by_key(|(_, used)| *used);
            let Some((victim, _)) = victim else { return };
            entries.remove(&victim);
            if setlearn_obs::metrics_on() {
                setlearn_obs::metrics()
                    .counter_with(
                        "setlearn_registry_evictions_total",
                        &[("collection", &victim)],
                    )
                    .inc();
            }
        }
    }

    fn publish_gauges(&self, entries: &HashMap<String, Slot>) {
        if !setlearn_obs::metrics_on() {
            return;
        }
        let resident: Vec<&Arc<Resident>> = entries
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready(r) => Some(r),
                Slot::Loading => None,
            })
            .collect();
        let m = setlearn_obs::metrics();
        m.gauge_with("setlearn_registry_resident", &[]).set(resident.len() as f64);
        m.gauge_with("setlearn_registry_resident_bytes", &[])
            .set(resident.iter().map(|r| r.disk_bytes).sum::<u64>() as f64);
    }

    /// Every collection under the root (resident or not) plus any resident
    /// entries, for the `KIND_COLLECTIONS` admin frame. Directories whose
    /// manifest names an unknown task are skipped.
    pub fn list(&self) -> Vec<CollectionInfo> {
        let mut rows: HashMap<String, CollectionInfo> = HashMap::new();
        if let Ok(found) = persist::discover_collections(&self.config.root) {
            for entry in found {
                let Ok(task) = entry.manifest.task.parse::<WireTask>() else { continue };
                rows.insert(
                    entry.name.clone(),
                    CollectionInfo {
                        name: entry.name,
                        task,
                        resident: false,
                        pending_ops: 0,
                        disk_bytes: entry.disk_bytes,
                    },
                );
            }
        }
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for (name, slot) in entries.iter() {
            if let Slot::Ready(r) = slot {
                rows.insert(
                    name.clone(),
                    CollectionInfo {
                        name: name.clone(),
                        task: r.task,
                        resident: true,
                        pending_ops: r.pending_ingest(),
                        disk_bytes: r.disk_bytes,
                    },
                );
            }
        }
        let mut rows: Vec<CollectionInfo> = rows.into_values().collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Registers (or re-registers after a detach) a collection directory.
    /// The checkpoint still loads lazily on first request; attach only
    /// validates the directory and clears the detached mark.
    pub fn attach(&self, name: &str) -> Result<(), AdminError> {
        persist::inspect_collection(&self.config.root, name)
            .map_err(|e| AdminError::Unknown(e.to_string()))?;
        self.detached.lock().unwrap_or_else(|e| e.into_inner()).remove(name);
        Ok(())
    }

    /// Evicts and unregisters a collection: subsequent frames addressing it
    /// get `UnknownCollection` until it is re-attached. Refused while the
    /// collection is busy (pending WAL ops or in-flight compaction).
    pub fn detach(&self, name: &str) -> Result<(), AdminError> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get(name) {
            Some(Slot::Ready(r)) if r.busy() => {
                return Err(AdminError::Busy(name.to_string()))
            }
            Some(Slot::Loading) => return Err(AdminError::Busy(name.to_string())),
            _ => {}
        }
        entries.remove(name);
        self.detached.lock().unwrap_or_else(|e| e.into_inner()).insert(name.to_string());
        self.publish_gauges(&entries);
        Ok(())
    }

    /// Number of collections currently resident.
    pub fn resident_count(&self) -> u32 {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.values().filter(|s| matches!(s, Slot::Ready(_))).count() as u32
    }

    /// `(collection, pending ingest ops)` per resident collection, sorted
    /// by name — the health report's per-collection compactor-lag view.
    pub fn collection_pending(&self) -> Vec<(String, u64)> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<(String, u64)> = entries
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Ready(r) => Some((name.clone(), r.pending_ingest())),
                Slot::Loading => None,
            })
            .collect();
        rows.sort();
        rows
    }

    /// Worst queue saturation across resident collections, the health
    /// probe's input: `(depth, capacity)` of the most saturated queue.
    pub fn worst_queue(&self) -> (usize, usize) {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready(r) => Some(r.backend.queue_stats()),
                Slot::Loading => None,
            })
            .max_by(|(d1, c1), (d2, c2)| {
                let s1 = if *c1 == 0 { 0.0 } else { *d1 as f64 / *c1 as f64 };
                let s2 = if *c2 == 0 { 0.0 } else { *d2 as f64 / *c2 as f64 };
                s1.total_cmp(&s2)
            })
            .unwrap_or((0, 0))
    }

    // -- loading ----------------------------------------------------------

    /// Loads one collection's checkpoint into a serving backend — the one
    /// place that happens: immutable single, immutable sharded, or mutable
    /// (WAL-backed), as the directory and its manifest say.
    fn load_resident(&self, name: &str) -> Result<Resident, String> {
        let entry = persist::inspect_collection(&self.config.root, name)
            .map_err(|e| e.to_string())?;
        let task: WireTask = entry
            .manifest
            .task
            .parse()
            .map_err(|_| format!("manifest names unknown task {:?}", entry.manifest.task))?;
        let files = persist::current_files(&entry.dir);
        let (backend, compactor) = if entry.has_wal {
            self.load_mutable(name, task, &entry, files)?
        } else {
            (self.load_immutable(name, task, &entry, files)?, None)
        };
        if backend.wire_task() != task {
            return Err(format!(
                "checkpoint serves {} but the manifest says {}",
                backend.wire_task(),
                task
            ));
        }
        Ok(self.resident(name, backend, entry.disk_bytes, compactor, false))
    }

    /// Wraps a serving backend with the per-tenant state the front-end
    /// needs around it: quota bucket, collection-labeled telemetry, LRU key.
    fn resident(
        &self,
        name: &str,
        backend: Arc<dyn WireBackend>,
        disk_bytes: u64,
        compactor: Option<CompactorHandle>,
        injected: bool,
    ) -> Resident {
        let task = backend.wire_task();
        Resident {
            name: name.to_string(),
            task,
            backend,
            quota: self.config.quota.map(TenantQuota::new),
            tele: NetTele::for_collection(task.label(), name),
            tenant_shed: setlearn_obs::metrics()
                .counter_with("setlearn_serve_tenant_shed_total", &[("collection", name)]),
            disk_bytes,
            last_used: AtomicU64::new(0),
            compactor,
            injected,
        }
    }

    fn load_immutable(
        &self,
        name: &str,
        task: WireTask,
        entry: &CollectionEntry,
        CheckpointFiles { model, sets }: CheckpointFiles,
    ) -> Result<Arc<dyn WireBackend>, String> {
        let shards = entry.manifest.shards;
        match task {
            WireTask::Cardinality => {
                self.start_layout::<LearnedCardinality, _, _>(name, &model, shards, Ok, Ok)
            }
            WireTask::Bloom => {
                self.start_layout::<LearnedBloom, _, _>(name, &model, shards, Ok, Ok)
            }
            WireTask::Index => {
                let collection: Arc<SetCollection> = Arc::new(load_checkpoint(&sets)?);
                self.start_layout(
                    name,
                    &model,
                    shards,
                    |index: LearnedSetIndex| {
                        Ok(IndexStructure { index, collection: Arc::clone(&collection) })
                    },
                    // The checkpoint's own spec routes the partition, so the
                    // manifest only has to get the count right.
                    |index| index.bind(&collection).map_err(|e| e.to_string()),
                )
            }
        }
    }

    /// Starts the runtime over the model file as the manifest lays it out:
    /// one `P`, or a `Sharded<P>` of the manifest's shard count. `bind` and
    /// `bind_sharded` turn either into the structure that serves.
    fn start_layout<P, S, T>(
        &self,
        name: &str,
        model: &Path,
        shards: Option<usize>,
        bind: impl FnOnce(P) -> Result<S, String>,
        bind_sharded: impl FnOnce(Sharded<P>) -> Result<Sharded<T>, String>,
    ) -> Result<Arc<dyn WireBackend>, String>
    where
        P: serde::de::DeserializeOwned,
        S: LearnedSetStructure + Send + Sync + 'static,
        S::Output: Send + 'static,
        QueryResponse: From<QueryOutcome<S::Output>>,
        T: Fold + Send + Sync + 'static,
        T::Output: Send + 'static,
        QueryResponse: From<QueryOutcome<T::Output>>,
    {
        let cfg = self.config.serve.clone();
        Ok(match shards {
            None => {
                let structure = bind(load_checkpoint(model)?)?;
                record_precision(name, &structure);
                Arc::new(ServeRuntime::start_named(StructureTask::new(structure), cfg, name))
            }
            Some(want) => {
                let parts: Sharded<P> = load_checkpoint(model)?;
                let have = parts.shards().len();
                if have != want {
                    return Err(format!(
                        "sharded {} checkpoint has {have} shards, manifest says {want}",
                        T::NAME
                    ));
                }
                let structure = bind_sharded(parts)?;
                record_precision(name, &structure);
                Arc::new(ServeRuntime::start_named(StructureTask::new(structure), cfg, name))
            }
        })
    }

    fn load_mutable(
        &self,
        name: &str,
        task: WireTask,
        entry: &CollectionEntry,
        CheckpointFiles { model, sets }: CheckpointFiles,
    ) -> Result<(Arc<dyn WireBackend>, Option<CompactorHandle>), String> {
        if entry.manifest.shards.is_some() {
            return Err("mutable (WAL-backed) collections cannot be sharded".into());
        }
        let wal_dir = entry.dir.join(COLLECTION_WAL);
        let base: Arc<SetCollection> = Arc::new(load_checkpoint(&sets)?);
        let retrain = persist::retrain_files(&entry.dir);
        // Each rebuild retrains the structure it replaces: the served
        // model's config (dimensions, encoder, serve precision) and (index)
        // its position target carry over, so a compaction changes the data a
        // tenant was trained on and nothing else about it.
        match task {
            WireTask::Cardinality => {
                let est: LearnedCardinality = load_checkpoint(&model)?;
                let served = est.model().config().clone();
                self.start_mutable(name, est, base, &wal_dir, move |merged| {
                    let cfg = CardinalityConfig::new(retrain_config(&served, merged));
                    let (est, _) = LearnedCardinality::build(merged, &cfg);
                    persist_compaction(&retrain, &est, merged)?;
                    Some(est)
                })
            }
            WireTask::Bloom => {
                let filter: LearnedBloom = load_checkpoint(&model)?;
                let served = filter.model().config().clone();
                self.start_mutable(name, filter, base, &wal_dir, move |merged| {
                    // `BloomConfig::new` pins the paper's model widths;
                    // the served widths win.
                    let model = retrain_config(&served, merged);
                    let cfg = BloomConfig { model: model.clone(), ..BloomConfig::new(model) };
                    let (filter, _) =
                        LearnedBloom::build_from_collection(merged, 2_000, 2_000, 4, &cfg);
                    persist_compaction(&retrain, &filter, merged)?;
                    Some(filter)
                })
            }
            WireTask::Index => {
                let index: LearnedSetIndex = load_checkpoint(&model)?;
                let (served, target) = (index.model().config().clone(), index.target());
                let structure = IndexStructure { index, collection: Arc::clone(&base) };
                self.start_mutable(name, structure, base, &wal_dir, move |merged| {
                    let cfg =
                        IndexConfig { target, ..IndexConfig::new(retrain_config(&served, merged)) };
                    let (index, _) = LearnedSetIndex::build(merged, &cfg);
                    persist_compaction(&retrain, &index, merged)?;
                    Some(IndexStructure { index, collection: Arc::new(merged.clone()) })
                })
            }
        }
    }

    /// Opens the WAL-backed collection, starts its runtime over a shared
    /// hot-swap slot, and (when configured) the compaction daemon that
    /// publishes into that slot.
    fn start_mutable<S>(
        &self,
        name: &str,
        structure: S,
        base: Arc<SetCollection>,
        wal_dir: &Path,
        rebuild: impl FnMut(&SetCollection) -> Option<S> + Send + 'static,
    ) -> Result<(Arc<dyn WireBackend>, Option<CompactorHandle>), String>
    where
        S: Fold + Send + Sync + 'static,
        S::Output: Send + 'static,
        QueryResponse: From<setlearn::tasks::QueryOutcome<S::Output>>,
    {
        let (collection, _report) =
            MutableCollection::open(structure, base, wal_dir).map_err(|e| e.to_string())?;
        record_precision(name, &collection);
        let collection = Arc::new(collection);
        let slot = Arc::new(HotSwap::new(StructureTask::new(Arc::clone(&collection))));
        let runtime = Arc::new(ServeRuntime::start_shared_named(
            Arc::clone(&slot),
            self.config.serve.clone(),
            name,
        ));
        let compactor = (self.config.compact_after > 0).then(|| {
            spawn_compactor_named(
                Arc::clone(&collection),
                slot,
                rebuild,
                CompactorConfig {
                    max_delta_ops: self.config.compact_after,
                    ..CompactorConfig::default()
                },
                name,
            )
        });
        let backend = Arc::new(MutableBackend::new(
            runtime as Arc<dyn WireBackend>,
            collection as Arc<dyn MutableSink>,
        ));
        Ok((backend, compactor))
    }
}

impl fmt::Debug for CollectionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectionRegistry")
            .field("root", &self.config.root)
            .field("default_collection", &self.config.default_collection)
            .field("resident", &self.resident_count())
            .finish()
    }
}

/// `load_json` with the file named in the error: whoever reads "failed to
/// load" has to go and find it.
fn load_checkpoint<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    load_json(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The served model's hyper-parameters over the merged collection's
/// vocabulary: what a compaction retrains with.
fn retrain_config(served: &DeepSetsConfig, merged: &SetCollection) -> DeepSetsConfig {
    DeepSetsConfig { vocab: merged.num_elements(), ..served.clone() }
}

/// Durably publishes a compaction (retrained model, then merged collection)
/// before the watermark advances; `None` leaves the delta pending so the
/// compactor retries.
fn persist_compaction<M: serde::Serialize>(
    retrain: &CheckpointFiles,
    model: &M,
    merged: &SetCollection,
) -> Option<()> {
    for (what, result) in [
        ("model", persist::save_json(model, &retrain.model)),
        ("collection", persist::save_json(merged, &retrain.sets)),
    ] {
        if let Err(e) = result {
            eprintln!("warning: compaction checkpoint failed ({what}): {e}");
            return None;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::IngestRequest;
    use setlearn::persist::{save_manifest, CollectionManifest, COLLECTION_MODEL, COLLECTION_SETS};
    use setlearn::tasks::{LearnedSetStructure, PositionTarget, QueryOutcome};
    use setlearn::wire::QueryValue;
    use setlearn::{GuidedConfig, Precision, ShardBy, ShardSpec, ShardedCollection};
    use setlearn_data::{is_subset, ElementSet, GeneratorConfig, SubsetIndex};
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "setlearn-registry-{tag}-{}-{:?}",
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

    fn small_collection(seed: u64) -> SetCollection {
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

    /// Persists a trained tenant under `root/<name>/`; `shards` is the
    /// layout its manifest declares.
    fn write_tenant<M: serde::Serialize>(
        root: &Path,
        name: &str,
        task: &str,
        shards: Option<usize>,
        model: &M,
        sets: &SetCollection,
    ) {
        let dir = root.join(name);
        save_manifest(&dir, &CollectionManifest { task: task.into(), shards, shard_by: None })
            .unwrap();
        persist::save_json(model, &dir.join(COLLECTION_MODEL)).unwrap();
        persist::save_json(sets, &dir.join(COLLECTION_SETS)).unwrap();
    }

    /// A one-epoch guided schedule: the fixtures need a trained model, not a
    /// good one.
    fn quick_guided() -> GuidedConfig {
        GuidedConfig { warmup_epochs: 1, rounds: 0, epochs_per_round: 1, ..GuidedConfig::default() }
    }

    /// Writes a trained cardinality collection under `root/<name>/`.
    fn write_cardinality(root: &Path, name: &str, seed: u64) -> LearnedCardinality {
        let sets = small_collection(seed);
        let cfg = CardinalityConfig {
            guided: quick_guided(),
            max_subset_size: 2,
            ..CardinalityConfig::new(DeepSetsConfig::lsm(sets.num_elements()))
        };
        let (est, _) = LearnedCardinality::build(&sets, &cfg);
        write_tenant(root, name, "cardinality", None, &est, &sets);
        est
    }

    #[test]
    fn lazy_load_then_hit_serves_identical_answers() {
        let root = tmpdir("lazy");
        let est = write_cardinality(&root, "alpha", 7);
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        config.default_collection = Some("alpha".into());
        let registry = CollectionRegistry::new(config);

        assert_eq!(registry.resident_count(), 0, "nothing loads before first use");
        let resident = registry.resolve(Some("alpha")).unwrap();
        assert_eq!(registry.resident_count(), 1);
        assert_eq!(resident.task(), WireTask::Cardinality);

        // The default route resolves to the same resident.
        let by_default = registry.resolve(None).unwrap();
        assert!(Arc::ptr_eq(&resident, &by_default));

        // Served answers match direct structure queries bit-for-bit.
        let query = setlearn_data::normalize(vec![1, 2]);
        let direct = est.query(&query).value;
        let tickets = resident.backend().submit_wire(vec![query], None);
        for ticket in tickets {
            let response = ticket().unwrap();
            match response.value {
                setlearn::wire::QueryValue::Cardinality(v) => {
                    assert_eq!(v.to_bits(), direct.to_bits())
                }
                other => panic!("wrong response kind: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_and_detached_collections_refuse_typed() {
        let root = tmpdir("unknown");
        write_cardinality(&root, "alpha", 9);
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        let registry = CollectionRegistry::new(config);

        assert!(matches!(registry.resolve(Some("ghost")), Err(ResolveError::Failed(..))));
        // No default configured: unaddressed frames have nowhere to go.
        assert!(matches!(registry.resolve(None), Err(ResolveError::Unknown(_))));

        registry.resolve(Some("alpha")).unwrap();
        registry.detach("alpha").unwrap();
        assert_eq!(registry.resident_count(), 0);
        assert!(
            matches!(registry.resolve(Some("alpha")), Err(ResolveError::Unknown(_))),
            "detached collections do not lazily resurrect"
        );
        registry.attach("alpha").unwrap();
        assert!(registry.resolve(Some("alpha")).is_ok(), "re-attach restores serving");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A checkpoint tagged with the retired f16 precision, and one written
    /// before the serve precision moved into the model config (`"precision"`
    /// beside the model, none inside it), are refused with a retrain hint;
    /// the root's other tenants still answer.
    #[test]
    fn refused_checkpoints_name_a_retrain_and_their_sibling_still_answers() {
        let root = tmpdir("refused");
        write_cardinality(&root, "alpha", 11);
        let rewrite = |name: &str, seed: u64, edit: &dyn Fn(&str) -> String| {
            write_cardinality(&root, name, seed);
            let model = root.join(name).join(COLLECTION_MODEL);
            let json = std::fs::read_to_string(&model).unwrap();
            assert_ne!(edit(&json), json, "the model config records its precision");
            std::fs::write(&model, edit(&json)).unwrap();
        };
        rewrite("f16", 12, &|json| {
            json.replace("\"precision\":\"F32\"", "\"precision\":\"F16\"")
        });
        rewrite("moved", 13, &|json| {
            let untagged = json.replacen(",\"precision\":\"F32\"", "", 1);
            untagged.replacen('{', "{\"precision\":\"Q8\",", 1)
        });
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        let registry = CollectionRegistry::new(config);

        for name in ["f16", "moved"] {
            let why = registry.resolve(Some(name)).expect_err(name).to_string();
            assert!(why.contains("failed to load") && why.contains("f32|q8"), "{name}: {why}");
        }
        let query = [setlearn_data::normalize(vec![1, 2])];
        let got = answers(&registry.resolve(Some("alpha")).unwrap(), &query);
        assert!(matches!(got[..], [QueryValue::Cardinality(v)] if v.is_finite()), "{got:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An index and a Bloom filter built at q8 keep their guarantees across
    /// save and reload: the reloaded tenants find every trained subset and
    /// reject no trained key. q8 scores are the same bits on every ISA, so
    /// the bounds and the backup computed at build time hold on any host.
    #[test]
    fn q8_tenants_keep_their_guarantees_across_reload() {
        let root = tmpdir("q8-guarantees");
        let q8 = |sets: &SetCollection| DeepSetsConfig {
            precision: Precision::Q8,
            ..DeepSetsConfig::lsm(sets.num_elements())
        };
        let sets = GeneratorConfig::rw(300, 5).generate();
        let cfg = IndexConfig {
            guided: GuidedConfig {
                warmup_epochs: 25,
                epochs_per_round: 15,
                learning_rate: 5e-3,
                seed: 5,
                ..GuidedConfig::default()
            },
            max_subset_size: 3,
            range_length: 16.0,
            ..IndexConfig::new(q8(&sets))
        };
        let (index, _) = LearnedSetIndex::build(&sets, &cfg);
        write_tenant(&root, "index", "index", None, &index, &sets);
        let bloom_sets = GeneratorConfig::rw(400, 31).generate();
        let workload = setlearn_data::workload::membership_queries(&bloom_sets, 300, 300, 4, 3);
        let bloom_cfg =
            BloomConfig { epochs: 3, learning_rate: 1e-2, ..BloomConfig::new(q8(&bloom_sets)) };
        let (filter, _) = LearnedBloom::build(&workload, &bloom_cfg);
        write_tenant(&root, "bloom", "bloom", None, &filter, &bloom_sets);

        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        let registry = CollectionRegistry::new(config);
        let subsets = SubsetIndex::build(&sets, 3);
        let queries: Vec<ElementSet> = subsets.iter().map(|(s, _)| s.clone()).collect();
        let got = answers(&registry.resolve(Some("index")).unwrap(), &queries);
        for (q, value) in queries.iter().zip(got) {
            let first = subsets.get(q).unwrap().first_pos as u64;
            assert_eq!(value, QueryValue::Position(Some(first)), "subset {q:?}");
        }
        let positives: Vec<ElementSet> =
            workload.iter().filter(|(_, present)| *present).map(|(q, _)| q.clone()).collect();
        let got = answers(&registry.resolve(Some("bloom")).unwrap(), &positives);
        for (q, value) in positives.iter().zip(got) {
            assert_eq!(value, QueryValue::Membership(true), "trained key {q:?}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lru_eviction_respects_budget_and_reloads() {
        let root = tmpdir("lru");
        write_cardinality(&root, "old", 1);
        write_cardinality(&root, "new", 2);
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        // Budget fits roughly one collection: loading the second evicts the
        // least recently used first.
        let one = persist::inspect_collection(&root, "old").unwrap().disk_bytes;
        config.max_resident_bytes = Some(one + one / 2);
        let registry = CollectionRegistry::new(config);

        registry.resolve(Some("old")).unwrap();
        registry.resolve(Some("new")).unwrap();
        assert_eq!(registry.resident_count(), 1, "budget holds one collection");
        let rows = registry.list();
        let resident: Vec<&str> =
            rows.iter().filter(|r| r.resident).map(|r| r.name.as_str()).collect();
        assert_eq!(resident, ["new"], "LRU evicts the older resident");

        // The evicted collection reloads transparently and still answers.
        assert!(registry.resolve(Some("old")).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn token_bucket_sheds_only_past_the_burst() {
        let quota = TenantQuota::new(QuotaConfig { rate: 0.0, burst: 4.0 });
        assert!(quota.try_admit(3), "burst admits");
        assert!(!quota.try_admit(2), "over the remaining tokens");
        assert!(quota.try_admit(1), "the last token still admits");
        assert!(!quota.try_admit(1), "empty bucket with zero refill sheds");

        let refilling = TenantQuota::new(QuotaConfig { rate: 1_000_000.0, burst: 8.0 });
        assert!(refilling.try_admit(8));
        std::thread::sleep(Duration::from_millis(2));
        assert!(refilling.try_admit(8), "bucket refilled at the configured rate");
    }

    #[test]
    fn list_sees_cold_collections_without_loading_them() {
        let root = tmpdir("list");
        write_cardinality(&root, "a", 3);
        write_cardinality(&root, "b", 4);
        let registry = CollectionRegistry::new(RegistryConfig::new(&root));
        let rows = registry.list();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.resident && r.disk_bytes > 0));
        assert_eq!(registry.resident_count(), 0, "listing never loads");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn inserted_backend_resolves_lists_survives_the_budget_and_detaches() {
        let root = tmpdir("insert");
        let est = write_cardinality(&root, "on-disk", 5);
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        config.default_collection = Some("injected".into());
        // No loaded collection fits: every load sweeps for a victim.
        config.max_resident_bytes = Some(1);
        let registry = CollectionRegistry::new(config);
        // The same structure twice: started by hand, and loaded from disk.
        let by_hand = ServeRuntime::start(StructureTask::new(est), quick_serve());
        registry.insert("injected", Arc::new(by_hand));

        let by_name = registry.resolve(Some("injected")).unwrap();
        assert!(Arc::ptr_eq(&by_name, &registry.resolve(None).unwrap()), "also the default");
        assert_eq!(by_name.task(), WireTask::Cardinality);
        // The load blows the 1-byte budget; the only other resident is the
        // injected one, which has no checkpoint to come back from.
        let loaded = registry.resolve(Some("on-disk")).unwrap();
        let query = [setlearn_data::normalize(vec![1, 2])];
        let injected = registry.resolve(Some("injected")).expect("evicted by the budget");
        assert_eq!(answers(&injected, &query), answers(&loaded, &query));
        let rows = registry.list();
        let row = rows.iter().find(|r| r.name == "injected").expect("listed beside directories");
        assert!(row.resident && row.task == WireTask::Cardinality && row.disk_bytes == 0);

        registry.detach("injected").unwrap();
        assert!(matches!(registry.resolve(Some("injected")), Err(ResolveError::Unknown(_))));
        assert!(registry.list().iter().all(|r| r.name != "injected"));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One answer per query through a resident's backend, submitted in
    /// batches the test queue admits whole.
    fn answers(resident: &Resident, queries: &[ElementSet]) -> Vec<QueryValue> {
        queries
            .chunks(32)
            .flat_map(|batch| resident.backend().submit_wire(batch.to_vec(), None))
            .map(|ticket| ticket().unwrap().value)
            .collect()
    }

    /// Asserts a resident serves exactly the structure's own `query_batch`
    /// — compared as wire bytes, so equal means bit-equal, degradation flags
    /// included — and returns the served values.
    fn assert_serves<S>(resident: &Resident, structure: &S, queries: &[ElementSet]) -> Vec<QueryValue>
    where
        S: LearnedSetStructure,
        QueryResponse: From<QueryOutcome<S::Output>>,
    {
        let served: Vec<QueryResponse> = queries
            .chunks(32)
            .flat_map(|batch| resident.backend().submit_wire(batch.to_vec(), None))
            .map(|ticket| ticket().unwrap())
            .collect();
        let direct: Vec<QueryResponse> =
            structure.query_batch(queries).into_iter().map(QueryResponse::from).collect();
        let wire_bytes = |responses: &[QueryResponse]| {
            let mut out = Vec::new();
            responses.iter().for_each(|r| r.encode(&mut out));
            out
        };
        assert_eq!(
            wire_bytes(&served),
            wire_bytes(&direct),
            "{} serves something other than its checkpoint's answers",
            resident.name(),
        );
        served.into_iter().map(|r| r.value).collect()
    }

    /// Every task × {2, 3} shards: the registry serves a sharded checkpoint
    /// through the one runtime, and what comes back is the sharded
    /// structure's own fold — with the paper's per-task guarantees intact
    /// across the partition.
    #[test]
    fn sharded_tenants_of_every_task_serve_the_structures_own_answers() {
        let root = tmpdir("sharded");
        let sets = small_collection(31);
        let model = DeepSetsConfig::lsm(sets.num_elements());
        let card_cfg = CardinalityConfig {
            guided: quick_guided(),
            max_subset_size: 2,
            ..CardinalityConfig::new(model.clone())
        };
        let index_cfg = IndexConfig {
            guided: quick_guided(),
            max_subset_size: 2,
            ..IndexConfig::new(model.clone())
        };
        let bloom_cfg = BloomConfig { epochs: 2, ..BloomConfig::new(model) };
        let workload = setlearn_data::workload::membership_queries(&sets, 80, 80, 2, 5);
        let positives: Vec<ElementSet> =
            workload.iter().filter(|(_, label)| *label).map(|(q, _)| q.clone()).collect();
        // Trained subsets, then pairs no set holds.
        let mut queries: Vec<ElementSet> =
            SubsetIndex::build(&sets, 2).iter().map(|(s, _)| s.clone()).collect();
        queries.extend(
            (0..sets.num_elements())
                .map(|e| setlearn_data::normalize(vec![e, (e + 7) % sets.num_elements()]))
                .filter(|q| !sets.contains_subset(q)),
        );
        let mut config = RegistryConfig::new(&root);
        config.serve = quick_serve();
        let registry = CollectionRegistry::new(config);

        for shards in [2usize, 3] {
            let part =
                ShardedCollection::partition(&sets, ShardSpec::new(shards, ShardBy::Hash)).unwrap();
            let tenant = |task: &str| format!("{task}-{shards}");

            let (card, _) = Sharded::build(&part, |_, shard| {
                Ok(LearnedCardinality::build(shard, &card_cfg))
            })
            .unwrap();
            write_tenant(&root, &tenant("card"), "cardinality", Some(shards), &card, &sets);
            let resident = registry.resolve(Some(&tenant("card"))).unwrap();
            for v in assert_serves(&resident, &card, &queries) {
                assert!(matches!(v, QueryValue::Cardinality(c) if c.is_finite() && c >= 0.0));
            }

            let (bloom, _) = Sharded::build_from_workload(&part, &workload, &bloom_cfg).unwrap();
            write_tenant(&root, &tenant("bloom"), "bloom", Some(shards), &bloom, &sets);
            let resident = registry.resolve(Some(&tenant("bloom"))).unwrap();
            assert_serves(&resident, &bloom, &queries);
            for (q, v) in positives.iter().zip(assert_serves(&resident, &bloom, &positives)) {
                assert_eq!(v, QueryValue::Membership(true), "false negative on {q:?}");
            }

            let (index, _) =
                Sharded::build(&part, |_, shard| Ok(LearnedSetIndex::build(shard, &index_cfg)))
                    .unwrap();
            write_tenant(&root, &tenant("index"), "index", Some(shards), &index, &sets);
            let resident = registry.resolve(Some(&tenant("index"))).unwrap();
            let index_value = serde::Serialize::serialize(&index);
            let bound = index.bind(&sets).unwrap();
            for (q, v) in queries.iter().zip(assert_serves(&resident, &bound, &queries)) {
                let first = sets.iter().find(|(_, s)| is_subset(q, s)).map(|(p, _)| p as u64);
                assert_eq!(v, QueryValue::Position(first), "{q:?}, {shards} shards");
            }

            // A checkpoint that lost a shard from its array, under a
            // manifest that still names them all, is refused — on the first
            // resolve and every one after, never served as part of the
            // collection or left loading.
            let checkpoints = [
                ("cardinality", serde::Serialize::serialize(&card)),
                ("bloom", serde::Serialize::serialize(&bloom)),
                ("index", index_value),
            ];
            for (task, mut value) in checkpoints {
                if let Some((_, serde::Value::Array(parts))) = match &mut value {
                    serde::Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == "shards"),
                    _ => None,
                } {
                    parts.pop();
                }
                let name = tenant(&format!("{task}-short"));
                write_tenant(&root, &name, task, Some(shards), &value, &sets);
                for attempt in 0..2 {
                    match registry.resolve(Some(&name)) {
                        Err(ResolveError::Failed(_, why)) => assert!(
                            why.contains(&format!("holds {} shards", shards - 1)),
                            "{task}, resolve {attempt}: {why}"
                        ),
                        other => panic!("{task}, resolve {attempt}: got {other:?}"),
                    }
                }
            }

            // A manifest that disagrees with its checkpoint is a typed load
            // error, not a mispaired partition.
            write_tenant(&root, &tenant("off"), "cardinality", Some(shards + 1), &card, &sets);
            match registry.resolve(Some(&tenant("off"))) {
                Err(ResolveError::Failed(_, why)) => assert!(
                    why.contains(&format!("has {shards} shards, manifest says {}", shards + 1)),
                    "{why}"
                ),
                other => panic!("expected a shard-count load error, got {other:?}"),
            }

            // A directory with a wal/ is served mutable, and a mutable
            // collection cannot be sharded: nothing else keeps one from
            // being built.
            write_tenant(&root, &tenant("wal"), "cardinality", Some(shards), &card, &sets);
            std::fs::create_dir_all(root.join(tenant("wal")).join(COLLECTION_WAL)).unwrap();
            match registry.resolve(Some(&tenant("wal"))) {
                Err(ResolveError::Failed(_, why)) => {
                    assert!(why.contains("cannot be sharded"), "{why}")
                }
                other => panic!("expected the mutable x sharded refusal, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A compaction retrains *the structure being served*: the model's
    /// dimensions, the serve precision and the index's position target carry
    /// through a forced compaction, and again through one after a reload
    /// from the compacted checkpoint — with the paper's guarantees (no Bloom
    /// false negative on a trained positive, exact index positions) intact.
    #[test]
    fn compaction_retrains_the_served_structure_across_reload() {
        let root = tmpdir("fidelity");
        let sets = small_collection(21);
        let narrow = DeepSetsConfig {
            embedding_dim: 5,
            phi_hidden: vec![12],
            rho_hidden: vec![12],
            ..DeepSetsConfig::lsm(sets.num_elements())
        };
        let narrow_q8 = DeepSetsConfig { precision: Precision::Q8, ..narrow.clone() };
        let (est, _) = LearnedCardinality::build(
            &sets,
            &CardinalityConfig {
                guided: quick_guided(),
                max_subset_size: 2,
                ..CardinalityConfig::new(narrow_q8.clone())
            },
        );
        write_tenant(&root, "card", "cardinality", None, &est, &sets);
        let (index, _) = LearnedSetIndex::build(
            &sets,
            &IndexConfig {
                guided: quick_guided(),
                max_subset_size: 2,
                target: PositionTarget::Last,
                ..IndexConfig::new(narrow_q8)
            },
        );
        write_tenant(&root, "index", "index", None, &index, &sets);
        let bloom_cfg =
            BloomConfig { model: narrow.clone(), epochs: 2, ..BloomConfig::new(narrow.clone()) };
        let (filter, _) = LearnedBloom::build_from_collection(&sets, 200, 200, 3, &bloom_cfg);
        write_tenant(&root, "bloom", "bloom", None, &filter, &sets);
        let tenants = ["card", "index", "bloom"];
        let wal = |name: &str| root.join(name).join(COLLECTION_WAL);
        for name in tenants {
            std::fs::create_dir_all(wal(name)).unwrap();
        }
        let same_shape = |model: &setlearn::DeepSets| {
            let c = model.config();
            (c.embedding_dim, &c.phi_hidden, &c.rho_hidden)
                == (narrow.embedding_dim, &narrow.phi_hidden, &narrow.rho_hidden)
        };

        // Round 0 compacts the trained checkpoint; round 1 reloads what
        // round 0 wrote and compacts that.
        for (round, inserted) in [vec![1, 2, 3], vec![2, 3, 4]].into_iter().enumerate() {
            let mut config = RegistryConfig::new(&root);
            config.serve = quick_serve();
            config.compact_after = 1;
            let registry = CollectionRegistry::new(config);
            for name in tenants {
                let resident = registry.resolve(Some(name)).unwrap();
                // The compactor counts its publish after it lands.
                let swaps = setlearn_obs::metrics().counter_with(
                    "setlearn_serve_swaps_total",
                    &[("task", resident.task().label()), ("collection", name)],
                );
                let published = swaps.get();
                resident
                    .backend()
                    .submit_ingest(IngestRequest { delete: false, elements: inserted.clone() })
                    .unwrap();
                let deadline = Instant::now() + Duration::from_secs(120);
                while resident.pending_ingest() > 0 || swaps.get() == published {
                    assert!(Instant::now() < deadline, "{name} never compacted (round {round})");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            let merged: SetCollection =
                load_json(&wal("index").join("checkpoint.json")).unwrap();
            assert_eq!(merged.len(), sets.len() + round + 1, "the delta was folded");

            let est: LearnedCardinality = load_json(&wal("card").join("model.json")).unwrap();
            assert!(same_shape(est.model()), "round {round}: cardinality dims drifted");
            assert_eq!(est.kernel().precision(), Precision::Q8, "round {round}");
            for value in answers(&registry.resolve(Some("card")).unwrap(), merged.sets())
            {
                assert!(
                    matches!(value, QueryValue::Cardinality(v) if v.is_finite() && v >= 0.0),
                    "round {round}: {value:?}"
                );
            }

            let index: LearnedSetIndex = load_json(&wal("index").join("model.json")).unwrap();
            assert!(same_shape(index.model()), "round {round}: index dims drifted");
            assert_eq!(index.kernel().precision(), Precision::Q8, "round {round}");
            assert_eq!(index.target(), PositionTarget::Last, "round {round}");
            let pairs: Vec<ElementSet> =
                merged.sets().iter().map(|s| s[..2].to_vec().into_boxed_slice()).collect();
            let got = answers(&registry.resolve(Some("index")).unwrap(), &pairs);
            for (q, value) in pairs.iter().zip(got) {
                let last = merged.sets().iter().rposition(|s| is_subset(q, s));
                assert_eq!(
                    value,
                    QueryValue::Position(last.map(|p| p as u64)),
                    "round {round}: {q:?}"
                );
            }

            let filter: LearnedBloom = load_json(&wal("bloom").join("model.json")).unwrap();
            assert!(same_shape(filter.model()), "round {round}: bloom dims drifted");
            // The positives the rebuild trained on, recomputed from its seed.
            let positives = setlearn_data::workload::positive_queries(
                &merged,
                2_000,
                BloomConfig::new(narrow.clone()).seed,
            );
            let got = answers(&registry.resolve(Some("bloom")).unwrap(), &positives);
            for (q, value) in positives.iter().zip(got) {
                assert_eq!(value, QueryValue::Membership(true), "round {round}: {q:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
