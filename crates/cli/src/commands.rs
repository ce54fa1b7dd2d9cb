//! CLI subcommand implementations.

use crate::args::{ArgError, Args};
use crate::telemetry;
use setlearn::persist;
use setlearn::prelude::{
    BloomConfig, CardinalityConfig, DeepSetsConfig, DriftMonitor, FallbackReason, GuidedConfig,
    IndexConfig, LearnedBloom, LearnedCardinality, LearnedSetIndex, MonitorConfig, Precision,
    QueryRequest, QueryResponse, QueryValue, ShardBy, ShardSpec, Sharded, ShardedCollection,
    Wal, WalOp, WireTask,
};
use setlearn_data::{ElementSet, GeneratorConfig, SetCollection, SubsetIndex};
use setlearn_engine::{Engine, QueryOutput, SetTable};
use setlearn_obs::RegistrySnapshot;
use setlearn_serve::{
    CollectionRegistry, ErrorCode, NetClient, NetConfig, NetServer, QuotaConfig, RegistryConfig,
    Resident, ServeConfig, ServeError, StatsFormat, WireBackend, WireOutcome,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Uniform CLI error type.
pub type CliError = Box<dyn std::error::Error>;

/// Wraps an error with the file path it concerns, so `error: No such file
/// or directory` becomes actionable.
fn with_path<'a, E: std::fmt::Display>(
    action: &'static str,
    path: &'a str,
) -> impl FnOnce(E) -> CliError + 'a {
    move |e| format!("cannot {action} {path}: {e}").into()
}

fn load<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let file = std::io::BufReader::new(
        std::fs::File::open(path).map_err(with_path("open", path))?,
    );
    serde_json::from_reader(file).map_err(with_path("parse", path))
}

/// The one addressing: `--root DIR --collection NAME` names one collection
/// directory — `DIR/NAME/{collection.json, model.json, manifest.json, wal/}`
/// — shared by train/query/serve/ingest/sql and the serving registry.
struct TenantPaths {
    name: String,
    dir: PathBuf,
}

impl TenantPaths {
    fn wal_dir(&self) -> PathBuf {
        self.dir.join(persist::COLLECTION_WAL)
    }

    /// The sets the tenant's current checkpoint was trained on.
    fn current_sets(&self) -> Result<SetCollection, CliError> {
        load(&persist::current_files(&self.dir).sets.to_string_lossy())
    }
}

/// Resolves `--root DIR --collection NAME`.
fn tenant_paths(args: &Args) -> Result<TenantPaths, CliError> {
    let root = args.required("root")?;
    let name = args.required("collection")?;
    if !setlearn::wire::valid_collection_name(name) {
        return Err(ArgError(format!(
            "invalid collection name '{name}' (1-{} chars of [A-Za-z0-9_-]); \
             --collection takes a name under --root, not a path",
            setlearn::wire::MAX_COLLECTION_ID_LEN,
        ))
        .into());
    }
    Ok(TenantPaths { name: name.to_string(), dir: Path::new(root).join(name) })
}

/// `setlearn generate --dataset rw|tweets|sd --sets N [--seed S] --out FILE`
pub fn generate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["dataset", "sets", "seed", "out"])?;
    let dataset = args.required("dataset")?;
    let n = args.get_or("sets", 2_000usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let out = args.required("out")?;
    let cfg = match dataset {
        "rw" => GeneratorConfig::rw(n, seed),
        "tweets" => GeneratorConfig::tweets(n, seed),
        "sd" => GeneratorConfig::sd(n, seed),
        other => return Err(ArgError(format!("unknown dataset '{other}' (rw|tweets|sd)")).into()),
    };
    let collection = cfg.generate();
    persist::save_json(&collection, Path::new(out)).map_err(with_path("write", out))?;
    let stats = collection.stats();
    println!(
        "wrote {} sets ({} unique elements, sizes {}-{}) to {out}",
        stats.num_sets, stats.unique_elements, stats.min_set_size, stats.max_set_size
    );
    Ok(())
}

/// `setlearn import --text FILE --out FILE [--dict FILE] [--comment PREFIX]`
pub fn import(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["text", "out", "dict", "comment"])?;
    let text_path = args.required("text")?;
    let out = args.required("out")?;
    let mut format = setlearn_data::io::TextFormat::default();
    if let Some(prefix) = args.optional("comment") {
        format.comment_prefix = Some(prefix.to_string());
    }
    let (collection, dict) =
        setlearn_data::io::read_sets_file(std::path::Path::new(text_path), &format)?;
    persist::save_json(&collection, Path::new(out)).map_err(with_path("write", out))?;
    if let Some(dict_path) = args.optional("dict") {
        persist::save_json(&dict, Path::new(dict_path))
            .map_err(with_path("write", dict_path))?;
    }
    let stats = collection.stats();
    println!(
        "imported {} sets ({} distinct tokens) from {text_path} into {out}",
        stats.num_sets, stats.unique_elements
    );
    Ok(())
}

/// `setlearn export --collection FILE --dict FILE --out FILE`
pub fn export(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["collection", "dict", "out"])?;
    let collection = load::<SetCollection>(args.required("collection")?)?;
    let dict: setlearn_data::Dictionary = load(args.required("dict")?)?;
    let out = args.required("out")?;
    let file = std::fs::File::create(out)?;
    setlearn_data::io::write_sets(file, &collection, &dict, ' ')?;
    println!("exported {} sets to {out}", collection.len());
    Ok(())
}

/// `setlearn reorder --collection FILE --out FILE --strategy lex|head|random [--seed S]`
pub fn reorder_cmd(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["collection", "out", "strategy", "seed"])?;
    let collection = load::<SetCollection>(args.required("collection")?)?;
    let out = args.required("out")?;
    let strategy = args.optional("strategy").unwrap_or("lex");
    let (reordered, _) = match strategy {
        "lex" => setlearn_data::reorder::lexicographic(&collection),
        "head" => setlearn_data::reorder::by_head_element(&collection),
        "random" => setlearn_data::reorder::random(&collection, args.get_or("seed", 1u64)?),
        other => {
            return Err(ArgError(format!("unknown strategy '{other}' (lex|head|random)")).into())
        }
    };
    persist::save_json(&reordered, Path::new(out)).map_err(with_path("write", out))?;
    println!("reordered {} sets ({strategy}) into {out}", reordered.len());
    Ok(())
}

/// `setlearn stats --collection FILE` — collection statistics, or
/// `setlearn stats --telemetry PATH [--format table|prom]` — dump the
/// metrics from a `--telemetry` run artifact.
pub fn stats(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["collection", "telemetry", "format"])?;
    if let Some(base) = args.optional("telemetry") {
        return stats_telemetry(base, args.optional("format").unwrap_or("table"));
    }
    let collection = load::<SetCollection>(args.required("collection")?)?;
    let s = collection.stats();
    println!("sets:            {}", s.num_sets);
    println!("unique elements: {}", s.unique_elements);
    println!("max cardinality: {}", s.max_cardinality);
    println!("set sizes:       {}-{}", s.min_set_size, s.max_set_size);
    println!("resident bytes:  {}", collection.size_bytes());
    Ok(())
}

/// Loads `<base>.metrics.json`, renders it in the requested format (the
/// `prom` output is re-validated against the exposition grammar), and
/// summarizes `<base>.jsonl` when present.
fn stats_telemetry(base: &str, format: &str) -> Result<(), CliError> {
    let metrics_path = format!("{base}.metrics.json");
    let text =
        std::fs::read_to_string(&metrics_path).map_err(with_path("open", &metrics_path))?;
    let snap: RegistrySnapshot =
        serde_json::from_str(&text).map_err(with_path("parse", &metrics_path))?;
    if snap.is_empty() {
        return Err(format!("{metrics_path} contains no metrics").into());
    }
    match format {
        "table" => print!("{}", setlearn_obs::to_table(&snap)),
        "prom" => {
            let prom = setlearn_obs::to_prometheus(&snap);
            setlearn_obs::validate_prometheus(&prom)
                .map_err(|e| format!("internal error: invalid exposition: {e}"))?;
            print!("{prom}");
        }
        other => {
            return Err(ArgError(format!("unknown format '{other}' (table|prom)")).into())
        }
    }
    let trace_path = format!("{base}.jsonl");
    match std::fs::read_to_string(&trace_path) {
        Ok(text) => {
            let records = setlearn_obs::parse_jsonl(&text)
                .map_err(|e| format!("cannot parse {trace_path}: {e}"))?;
            let spans =
                records.iter().filter(|r| r.kind == setlearn_obs::RecordKind::Span).count();
            println!(
                "trace: {} records ({} spans, {} events) in {trace_path}",
                records.len(),
                spans,
                records.len() - spans
            );
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot read {trace_path}: {e}").into()),
    }
    Ok(())
}

/// Parses `--shards N [--shard-by hash|range]` into an optional partition
/// spec. `None` means the classic unsharded path.
fn shard_spec_from_args(args: &Args) -> Result<Option<ShardSpec>, CliError> {
    let by: ShardBy = match args.optional("shard-by") {
        None => ShardBy::Hash,
        Some(raw) => raw.parse().map_err(ArgError)?,
    };
    match args.optional("shards") {
        None => {
            if args.optional("shard-by").is_some() {
                return Err(ArgError("--shard-by requires --shards".into()).into());
            }
            Ok(None)
        }
        Some(raw) => {
            let shards: usize = raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value '{raw}' for --shards")))?;
            if shards == 0 {
                return Err(ArgError("--shards must be at least 1".into()).into());
            }
            Ok(Some(ShardSpec::new(shards, by)))
        }
    }
}

fn guided_from_args(args: &Args) -> Result<GuidedConfig, CliError> {
    Ok(GuidedConfig {
        warmup_epochs: args.get_or("epochs", 15usize)?,
        rounds: 1,
        epochs_per_round: args.get_or("refine-epochs", 10usize)?,
        percentile: args.get_or("percentile", 0.9f64)?,
        batch_size: args.get_or("batch", 128usize)?,
        learning_rate: args.get_or("lr", 3e-3f32)?,
        seed: args.get_or("seed", 7u64)?,
    })
}

/// Prints the harness training summary of each run (one per shard when
/// sharded) and warns (without failing the command) when one ended in a
/// degraded state.
fn report_training<'a>(sharded: bool, trains: impl IntoIterator<Item = &'a setlearn::TrainReport>) {
    for (s, train) in trains.into_iter().enumerate() {
        let run = if sharded { format!("shard {s} training") } else { "training".into() };
        println!("{run}: {train}");
        if !train.is_healthy() {
            eprintln!("warning: {run} degraded ({}); consider lowering --lr", train.stop_reason);
        }
    }
}

/// Trains one structure over the collection with `build`, or one per shard
/// under `spec`, and writes the checkpoint (`S`, or `Sharded<S>`) to `out`.
/// Returns the training reports, one per shard, and the structure's bytes.
fn fit<S: serde::Serialize, R>(
    collection: &SetCollection,
    spec: Option<ShardSpec>,
    out: &str,
    size_bytes: impl Fn(&S) -> usize,
    mut build: impl FnMut(&SetCollection) -> (S, R),
) -> Result<(Vec<R>, usize), CliError> {
    Ok(match spec {
        None => {
            let (structure, report) = build(collection);
            persist::save_json(&structure, Path::new(out)).map_err(with_path("write", out))?;
            (vec![report], size_bytes(&structure))
        }
        Some(spec) => {
            let partition = ShardedCollection::partition(collection, spec)?;
            let (structure, reports) = Sharded::build(&partition, |_, shard| Ok(build(shard)))?;
            persist::save_json(&structure, Path::new(out)).map_err(with_path("write", out))?;
            (reports, structure.shards().iter().map(size_bytes).sum())
        }
    })
}

/// The model options of `train`, read before any file is touched; the
/// vocabulary is the tenant's, set once its sets are read.
fn model_from_args(args: &Args) -> Result<DeepSetsConfig, CliError> {
    let mut model = if args.has_flag("compressed") {
        DeepSetsConfig::clsm(0)
    } else {
        DeepSetsConfig::lsm(0)
    };
    let neurons = args.get_or("neurons", 32usize)?;
    model.phi_hidden = vec![neurons];
    model.rho_hidden = vec![neurons];
    model.embedding_dim = args.get_or("embedding", 8usize)?;
    // Recorded in the checkpoint's model config; every reader serves at it.
    model.precision = args.get_or("precision", Precision::default())?;
    Ok(model)
}

/// `setlearn train --task cardinality|index|bloom --root DIR --collection NAME
///  [--compressed] [--epochs N] [--percentile P] [--neurons N] [--embedding D]
///  [--shards N] [--shard-by hash|range] [--precision f32|q8]
///  [--telemetry PATH]`
///
/// Trains over the tenant's current sets and writes the checkpoint plus the
/// manifest that tells every reader the task and shard layout. With
/// `--shards N` the collection is partitioned by the chosen router and one
/// model is trained per shard; the persisted artifact is a `Sharded` of
/// them. A tenant with a `wal/` is mutable: pending WAL records are
/// folded into the training collection first, and the retrain is published
/// the way a background compaction publishes one — model, merged sets, then
/// the WAL watermark — so the next reader serves it.
pub fn train(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "task", "collection", "root", "compressed", "epochs", "refine-epochs", "percentile",
        "neurons", "embedding", "max-subset", "lr", "batch", "seed", "range", "last", "samples",
        "shards", "shard-by", "telemetry", "precision",
    ])?;
    let sink = telemetry::begin(args)?;
    let task = args.required("task")?.to_string();
    let model = model_from_args(args)?;
    let spec = shard_spec_from_args(args)?;
    let tenant = tenant_paths(args)?;
    let mut collection = tenant.current_sets()?;
    let mut out = tenant.dir.join(persist::COLLECTION_MODEL);
    let mut wal_fold: Option<(Wal, u64, PathBuf)> = None;
    if tenant.wal_dir().is_dir() {
        if spec.is_some() {
            return Err(ArgError(
                "a mutable collection (one with a wal/) cannot be trained with --shards".into(),
            )
            .into());
        }
        let recovery = Wal::open(&tenant.wal_dir())?;
        if recovery.truncated {
            eprintln!("warning: damaged WAL tail was truncated during recovery");
        }
        let (merged, skipped) = setlearn::mutable::replay_into(&collection, &recovery.records);
        println!(
            "folded {} WAL records into the training collection ({} invalid records skipped)",
            recovery.records.len() - skipped,
            skipped,
        );
        let retrain = persist::retrain_files(&tenant.dir);
        let watermark = recovery.wal.next_seq();
        wal_fold = Some((recovery.wal, watermark, retrain.sets));
        out = retrain.model;
        collection = merged;
    }
    let out = out.to_string_lossy();
    let out = &*out;
    let model = DeepSetsConfig { vocab: collection.num_elements(), ..model };
    let sharded = spec.is_some();
    let layout = spec.map_or(String::new(), |s| format!(" over {} shards", s.shards));
    match task.as_str() {
        "cardinality" => {
            let cfg = CardinalityConfig {
                model,
                guided: guided_from_args(args)?,
                max_subset_size: args.get_or("max-subset", 3usize)?,
            };
            let (reports, bytes) =
                fit(&collection, spec, out, LearnedCardinality::size_bytes, |shard| {
                    LearnedCardinality::build(shard, &cfg)
                })?;
            report_training(sharded, reports.iter().map(|r| &r.train));
            println!(
                "trained cardinality estimator{layout} on {} subsets ({} outliers); saved to {out} ({:.3} MB)",
                reports.iter().map(|r| r.training_subsets).sum::<usize>(),
                reports.iter().map(|r| r.outliers).sum::<usize>(),
                bytes as f64 / 1e6
            );
        }
        "index" => {
            let cfg = IndexConfig {
                model,
                guided: guided_from_args(args)?,
                max_subset_size: args.get_or("max-subset", 2usize)?,
                range_length: args.get_or("range", 100.0f64)?,
                target: if args.has_flag("last") {
                    setlearn::tasks::PositionTarget::Last
                } else {
                    setlearn::tasks::PositionTarget::First
                },
            };
            let (reports, bytes) =
                fit(&collection, spec, out, LearnedSetIndex::size_bytes, |shard| {
                    LearnedSetIndex::build(shard, &cfg)
                })?;
            report_training(sharded, reports.iter().map(|r| &r.train));
            println!(
                "trained set index{layout} on {} subsets ({} outliers, worst global error {:.0}); saved to {out} ({:.3} MB)",
                reports.iter().map(|r| r.training_subsets).sum::<usize>(),
                reports.iter().map(|r| r.outliers).sum::<usize>(),
                reports.iter().map(|r| r.global_error).fold(0.0f64, f64::max),
                bytes as f64 / 1e6
            );
        }
        "bloom" => {
            let mut cfg = BloomConfig::new(model);
            cfg.epochs = args.get_or("epochs", 30usize)?;
            cfg.learning_rate = args.get_or("lr", 5e-3f32)?;
            let n = args.get_or("samples", 2_000usize)?;
            let max_query = args.get_or("max-subset", 4usize)?;
            let total = collection.len().max(1);
            let (reports, bytes) =
                fit(&collection, spec, out, LearnedBloom::size_bytes, |shard| {
                    // A shard samples its share of the membership workload.
                    let share = |n: usize| (n * shard.len() / total).max(1);
                    LearnedBloom::build_from_collection(
                        shard,
                        share(n),
                        share(n),
                        max_query,
                        &cfg,
                    )
                })?;
            report_training(sharded, reports.iter().map(|r| &r.train));
            println!(
                "trained bloom filter{layout} (worst accuracy {:.4}, {} backed-up false negatives); saved to {out} ({:.1} KB)",
                reports.iter().map(|r| r.training_accuracy).fold(1.0f64, f64::min),
                reports.iter().map(|r| r.false_negatives).sum::<usize>(),
                bytes as f64 / 1e3
            );
        }
        other => {
            return Err(
                ArgError(format!("unknown task '{other}' (cardinality|index|bloom)")).into()
            )
        }
    }
    // The manifest is what lets every reader open this directory without
    // being told the task: record it (and the shard layout) alongside.
    let manifest = persist::CollectionManifest {
        task: task.clone(),
        shards: spec.map(|s| s.shards),
        shard_by: spec.map(|s| s.by.to_string()),
    };
    persist::save_manifest(&tenant.dir, &manifest)?;
    println!(
        "manifest written to {}",
        tenant.dir.join(persist::COLLECTION_MANIFEST).display()
    );
    if let Some((mut wal, watermark, checkpoint)) = wal_fold {
        // Checkpoint before advancing the watermark: a crash in between
        // replays the (already folded) tail again, it never loses it.
        persist::save_json(&collection, &checkpoint)?;
        wal.mark_applied(watermark)?;
        println!(
            "checkpoint written to {}; WAL applied through seq {watermark}",
            checkpoint.display()
        );
    }
    if let Some(sink) = sink {
        sink.finish()?;
    }
    Ok(())
}

/// Renders an outcome's degradation flags (guard fallback, bound miss) as a
/// bracketed suffix, or nothing when the answer is clean.
fn degradation_notes(fallback: &Option<FallbackReason>, bound_miss: bool) -> String {
    let mut notes = Vec::new();
    if let Some(reason) = fallback {
        notes.push(format!("guard fallback: {reason:?}"));
    }
    if bound_miss {
        notes.push("bound miss".to_string());
    }
    if notes.is_empty() {
        String::new()
    } else {
        format!(" [{}]", notes.join(", "))
    }
}

/// Opens a tenant the one way there is: through the registry, exactly as
/// `serve` does — current checkpoint, WAL recovery and pending deltas
/// included — so an offline verb answers what a server over the same
/// directory would.
fn resolve_tenant(
    registry: &CollectionRegistry,
    tenant: &TenantPaths,
) -> Result<Arc<Resident>, CliError> {
    registry
        .resolve(Some(&tenant.name))
        .map_err(|e| format!("cannot open {}: {e}", tenant.dir.display()).into())
}

/// Submits one frame of canonical sets and waits for every answer, as a
/// connection handler does for a wire frame.
fn answer(backend: &dyn WireBackend, sets: Vec<ElementSet>) -> Vec<WireOutcome> {
    backend
        .submit_wire(sets, None)
        .into_iter()
        .map(|ticket| ticket().map_err(ErrorCode::Serve))
        .collect()
}

/// Queries per replayed frame: half the default admission queue, so a
/// replay is never shed, and several micro-batches, so `--threads` shows.
const REPLAY_FRAME: usize = 512;

/// The `limit` smallest subsets of at most `max_subset` elements of
/// `sets`, in ascending order, with their true counts: the replay sample,
/// the same in every run.
fn replay_sample(
    sets: &SetCollection,
    max_subset: usize,
    limit: usize,
) -> (Vec<ElementSet>, Vec<f64>) {
    let mut pairs = SubsetIndex::build(sets, max_subset).cardinality_pairs();
    pairs.truncate(limit);
    pairs.into_iter().unzip()
}

/// The replay mode of `query`: answers [`replay_sample`] of the tenant's
/// current sets through `resident` and prints the task's summary, with a
/// [`DriftMonitor`] watching accuracy and fallbacks.
fn query_replay(args: &Args, tenant: &TenantPaths, resident: &Resident) -> Result<(), CliError> {
    let limit = args.get_or("limit", 500usize)?;
    let max_subset = args.get_or("max-subset", 2usize)?;
    let (queries, counts) = replay_sample(&tenant.current_sets()?, max_subset, limit);
    let mut monitor = DriftMonitor::try_new(1.0, MonitorConfig::default())?;
    let (mut hits, mut bound_misses, mut fallbacks) = (0usize, 0usize, 0usize);
    let backend = resident.backend().as_ref();
    let outcomes = queries.chunks(REPLAY_FRAME).flat_map(|frame| answer(backend, frame.to_vec()));
    for (outcome, count) in outcomes.zip(&counts) {
        let response = outcome.map_err(|code| format!("query failed: {code}"))?;
        if response.fallback.is_some() {
            monitor.record_fallback();
            fallbacks += 1;
        }
        bound_misses += usize::from(response.bound_miss);
        match response.value {
            QueryValue::Cardinality(v) => monitor.observe(v, *count),
            QueryValue::Position(p) => hits += usize::from(p.is_some()),
            QueryValue::Membership(m) => hits += usize::from(m),
        }
    }
    let served = queries.len();
    match resident.task() {
        WireTask::Cardinality => println!(
            "served {served} cardinality queries: rolling q-error {:.3}, {fallbacks} guard fallbacks",
            monitor.rolling_q_error(),
        ),
        WireTask::Index => println!(
            "served {served} index lookups: {hits} found, {bound_misses} bound misses, \
             {fallbacks} guard fallbacks",
        ),
        WireTask::Bloom => println!(
            "served {served} membership queries: {hits} present \
             (recall {:.3} — trained subsets must all be present), {fallbacks} guard fallbacks",
            hits as f64 / served.max(1) as f64,
        ),
    }
    monitor.publish_metrics();
    if let Some(reason) = monitor.should_retrain() {
        eprintln!("warning: drift monitor raised the retrain signal ({reason:?})");
    }
    Ok(())
}

/// `setlearn query --root DIR --collection NAME
///  (--query 1,2,3 | [--limit N] [--max-subset K]) [--threads N]
///  [--telemetry PATH]`
///
/// Answers through the backend the registry resolves for the tenant — the
/// manifest says the task and shard layout, the checkpoint the precision, a
/// `wal/` that pending deltas are merged in — so this is `client --query`
/// without a server. `--query IDS` answers one ad-hoc query and prints the
/// typed outcome with its degradation flags; without it a workload of subset
/// queries enumerated from the collection is replayed ([`query_replay`]).
/// `--threads N` sizes the worker pool; answers do not depend on it. With
/// `--telemetry` the run artifact carries what the server path leaves:
/// `setlearn_serve_*` counters and histograms and `serve_batch` spans.
pub fn query(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "root", "collection", "query", "limit", "max-subset", "threads", "telemetry",
    ])?;
    let sink = telemetry::begin(args)?;
    let tenant = tenant_paths(args)?;
    let registry = registry_from_args(args)?;
    let resident = resolve_tenant(&registry, &tenant)?;
    if args.optional("query").is_some() {
        let set = QueryRequest::new(args.id_list("query")?).canonicalize();
        for outcome in answer(resident.backend().as_ref(), vec![set.clone()]) {
            print_wire_outcome(&set, &outcome);
        }
    } else {
        query_replay(args, &tenant, &resident)?;
    }
    // Drain the worker pools before the telemetry flush, so the last
    // batch's counters are in the artifact.
    drop(resident);
    drop(registry);
    if let Some(sink) = sink {
        sink.finish()?;
    }
    Ok(())
}

/// Feeds the workload through a resolved backend one request at a time,
/// optionally paced at a target rate (open loop: requests shed at admission
/// are *not* retried, that is the backpressure contract). Returns the
/// answered and shed counts plus the measured completion rate.
fn drive(
    backend: &dyn WireBackend,
    requests: Vec<ElementSet>,
    target_qps: f64,
) -> Result<(u64, u64, f64), CliError> {
    let start = std::time::Instant::now();
    let gap = (target_qps > 0.0)
        .then(|| std::time::Duration::from_secs_f64(1.0 / target_qps));
    let mut tickets = Vec::with_capacity(requests.len());
    for (i, request) in requests.into_iter().enumerate() {
        if let Some(gap) = gap {
            let due = start + gap.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(std::time::Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        tickets.extend(backend.submit_wire(vec![request], None));
    }
    let (mut answered, mut shed) = (0u64, 0u64);
    for ticket in tickets {
        match ticket() {
            Ok(_) => answered += 1,
            Err(ServeError::Overloaded) => shed += 1, // counted by the runtime too
            Err(e) => return Err(format!("request lost: {e}").into()),
        }
    }
    let qps = answered as f64 / start.elapsed().as_secs_f64().max(1e-9);
    Ok((answered, shed, qps))
}

/// Builds the front-end's [`NetConfig`] from the `serve` flags.
fn net_config_from_args(args: &Args) -> Result<NetConfig, CliError> {
    // Absent = slow-query log off; an explicit 0 means threshold zero,
    // i.e. record every request (useful for smoke tests and short probes).
    let slow_query_threshold = match args.optional("slow-query-ms") {
        Some(_) => Some(std::time::Duration::from_millis(args.get_or("slow-query-ms", 0u64)?)),
        None => None,
    };
    Ok(NetConfig {
        allow_remote_shutdown: args.has_flag("allow-remote-shutdown"),
        slow_query_threshold,
        drain_grace: std::time::Duration::from_millis(args.get_or("drain-grace-ms", 0u64)?),
        ..NetConfig::default()
    })
}

/// Prints (and optionally writes to `--addr-file`) the bound address — so
/// scripts can recover the ephemeral port behind `--listen 127.0.0.1:0` —
/// then blocks until `--serve-for-s` elapses or a remote shutdown arrives,
/// and drains the front-end.
fn serve_until_drained(server: NetServer, args: &Args) -> Result<(), CliError> {
    println!("listening on {}", server.local_addr());
    if let Some(path) = args.optional("addr-file") {
        std::fs::write(path, server.local_addr().to_string())
            .map_err(with_path("write", path))?;
    }
    let serve_for_s = args.get_or("serve-for-s", 0.0f64)?;
    let deadline = (serve_for_s > 0.0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_secs_f64(serve_for_s));
    loop {
        if server.is_shutting_down() {
            println!("remote shutdown requested; draining");
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            println!("serve window elapsed; draining");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    Ok(())
}

/// The registry every `serve` mode resolves its backends through, over
/// `--root` with the worker-pool, residency, quota and compaction flags.
fn registry_from_args(args: &Args) -> Result<Arc<CollectionRegistry>, CliError> {
    let mut rcfg = RegistryConfig::new(args.required("root")?);
    rcfg.serve = ServeConfig {
        threads: args.get_or("threads", 2usize)?,
        max_batch: args.get_or("max-batch", 64usize)?,
        queue_capacity: args.get_or("queue", 1024usize)?,
        ..ServeConfig::default()
    };
    rcfg.serve.validate().map_err(|e| CliError::from(ArgError(e)))?;
    rcfg.default_collection = args.optional("default-collection").map(str::to_string);
    if args.optional("max-resident-bytes").is_some() {
        rcfg.max_resident_bytes = Some(args.get_or("max-resident-bytes", u64::MAX)?);
    }
    let quota_qps = args.get_or("quota-qps", 0.0f64)?;
    if quota_qps > 0.0 {
        rcfg.quota = Some(QuotaConfig {
            rate: quota_qps,
            burst: args.get_or("quota-burst", quota_qps.max(1.0))?,
        });
    }
    rcfg.compact_after = args.get_or("compact-after", 0usize)?;
    Ok(Arc::new(CollectionRegistry::new(rcfg)))
}

/// `serve --root DIR --listen HOST:PORT`: the SLP1 front-end over the
/// registry. Every collection directory under DIR is servable; checkpoints
/// load lazily on the first frame that addresses them (by the
/// length-prefixed collection id every frame carries; an empty id routes to
/// `--default-collection`, which is all a solo server is), a `wal/` makes a
/// tenant mutable, `--max-resident-bytes` LRU-evicts idle residents, and
/// `--quota-qps`/`--quota-burst` arm a per-tenant token bucket that sheds
/// with `TenantOverloaded`.
fn serve_listen_registry(
    args: &Args,
    addr: &str,
    registry: Arc<CollectionRegistry>,
) -> Result<(), CliError> {
    let known = registry.list();
    println!(
        "registry over {}: {} collection{} discovered ({})",
        registry.root().display(),
        known.len(),
        if known.len() == 1 { "" } else { "s" },
        if known.is_empty() {
            "none yet — train with --root to add one".to_string()
        } else {
            known.iter().map(|c| c.name.as_str()).collect::<Vec<_>>().join(", ")
        },
    );
    let server = NetServer::bind_registry(addr, Arc::clone(&registry), net_config_from_args(args)?)
        .map_err(with_path("listen on", addr))?;
    serve_until_drained(server, args)?;
    // Dropping the last registry handle drains every resident runtime and
    // stops their compactors.
    let resident = registry.resident_count();
    drop(registry);
    println!("drained registry: {resident} collection(s) were resident");
    Ok(())
}

/// `serve --root DIR --collection NAME --requests N`: enumerates a
/// subset-query workload from the tenant's collection (cycled up to
/// `--requests`) and replays it through the backend the registry resolves
/// for NAME — sharded, mutable or plain, as its directory says.
fn serve_replay(args: &Args, registry: Arc<CollectionRegistry>) -> Result<(), CliError> {
    let tenant = tenant_paths(args)?;
    let total = args.get_or("requests", 2_000usize)?;
    let max_subset = args.get_or("max-subset", 2usize)?;
    let target_qps = args.get_or("target-qps", 0.0f64)?;
    let pool: Vec<ElementSet> = SubsetIndex::build(&tenant.current_sets()?, max_subset)
        .iter()
        .map(|(s, _)| s.clone())
        .collect();
    if pool.is_empty() {
        return Err("collection yields no subset queries to serve".into());
    }
    let requests: Vec<ElementSet> = (0..total).map(|i| pool[i % pool.len()].clone()).collect();
    let resident = resolve_tenant(&registry, &tenant)?;
    let (answered, shed, qps) = drive(resident.backend().as_ref(), requests, target_qps)?;
    let shards = persist::load_manifest(&tenant.dir)?.shards.unwrap_or(1);
    println!(
        "served {answered} of {total} {} requests at {qps:.0} QPS across {shards} shard{}: \
         {shed} shed at admission",
        resident.task(),
        if shards == 1 { "" } else { "s" },
    );
    // Drain the worker pools before the caller flushes telemetry, so the
    // last batch's counters are in the artifact.
    drop(resident);
    drop(registry);
    Ok(())
}

/// `setlearn serve --root DIR (--listen HOST:PORT | --collection NAME)`
///
/// One path: every mode resolves its serving backend through the
/// [`CollectionRegistry`] over `--root`, which reads the task, shard layout
/// and precision from each collection's manifest and checkpoint.
///
/// * `--listen HOST:PORT [--serve-for-s S] [--addr-file PATH]
///   [--allow-remote-shutdown] [--slow-query-ms N] [--drain-grace-ms N]
///   [--default-collection NAME] [--max-resident-bytes N]
///   [--quota-qps Q [--quota-burst B]]` — the SLP1 front-end
///   ([`serve_listen_registry`]).
/// * `--collection NAME [--requests N] [--target-qps Q] [--max-subset K]` —
///   replay a workload through one tenant ([`serve_replay`]);
///   `--target-qps` paces submissions open-loop, 0 (the default) submits as
///   fast as possible.
///
/// Both take `[--threads N] [--max-batch N] [--queue N] [--compact-after N]
/// [--telemetry PATH]`: a bounded admission queue, a worker pool whose
/// batches are whatever is queued (up to `--max-batch`) when a worker frees
/// up, load shedding when the queue is full, and (for tenants with a
/// `wal/`) background compaction once N ops are pending.
pub fn serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "root", "listen", "collection", "threads", "max-batch", "queue",
        "compact-after", "telemetry",
        // Front-end (`--listen`).
        "serve-for-s", "addr-file", "allow-remote-shutdown", "slow-query-ms", "drain-grace-ms",
        "default-collection", "max-resident-bytes", "quota-qps", "quota-burst",
        // Replay (`--collection`).
        "requests", "target-qps", "max-subset",
    ])?;
    let listen = args.optional("listen");
    if listen.is_some() == args.optional("collection").is_some() {
        return Err(ArgError(
            "serve takes exactly one of --listen HOST:PORT (serve every collection under \
             --root; name a solo tenant with --default-collection) or --collection NAME \
             (replay a workload through one tenant)"
                .into(),
        )
        .into());
    }
    let sink = telemetry::begin(args)?;
    let registry = registry_from_args(args)?;
    match listen {
        Some(addr) => serve_listen_registry(args, addr, registry)?,
        None => serve_replay(args, registry)?,
    }
    if let Some(sink) = sink {
        sink.finish()?;
    }
    Ok(())
}

/// Prints one wire outcome: the typed value with its degradation flags, or
/// the remote error code (shed, panic, worker lost — distinguishable
/// client-side).
fn print_wire_outcome(elements: &[u32], outcome: &WireOutcome) {
    let ids = elements.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    match outcome {
        Ok(response) => {
            let notes = degradation_notes(&response.fallback, response.bound_miss);
            match response.value {
                QueryValue::Cardinality(v) => println!("{{{ids}}} -> cardinality {v:.1}{notes}"),
                QueryValue::Position(Some(p)) => println!("{{{ids}}} -> position {p}{notes}"),
                QueryValue::Position(None) => println!("{{{ids}}} -> not found{notes}"),
                QueryValue::Membership(true) => println!("{{{ids}}} -> present{notes}"),
                QueryValue::Membership(false) => println!("{{{ids}}} -> absent{notes}"),
            }
        }
        Err(code) => println!("{{{ids}}} -> error {}: {code}", code.code()),
    }
}

/// Parses semicolon-separated id lists (`"1,2;3,4"`) into canonical
/// (sorted, deduplicated) sets, refusing empty sets.
fn id_set_lists(raw: &str, opt: &str) -> Result<Vec<Vec<u32>>, ArgError> {
    raw.split(';')
        .map(|part| {
            let ids = part
                .split(',')
                .map(|t| t.trim().parse::<u32>())
                .collect::<Result<Vec<u32>, _>>()
                .map_err(|_| ArgError(format!("invalid id list '{part}' in --{opt}")))?;
            let canonical = setlearn_data::normalize(ids);
            if canonical.is_empty() {
                return Err(ArgError(format!("empty set in --{opt}")));
            }
            Ok(canonical.into_vec())
        })
        .collect()
}

/// `setlearn ingest --root DIR --collection NAME [--insert "1,2;3,4"]
///  [--delete "5,6"]`
///
/// Offline durable ingest: appends insert/delete records straight to the
/// collection's WAL (creating it if needed) without loading a model. Every
/// record is fsync'd before the command returns. The records are folded in
/// by the next `train` over the same collection and replayed by whoever
/// opens it next. Sets are canonicalized here; ids outside the base
/// vocabulary are only detectable at replay time, where they are skipped and
/// counted instead of wedging recovery.
pub fn ingest(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["root", "collection", "insert", "delete"])?;
    let dir = tenant_paths(args)?.wal_dir();
    let dir = dir.as_path();
    let mut ops: Vec<WalOp> = Vec::new();
    if let Some(raw) = args.optional("insert") {
        ops.extend(id_set_lists(raw, "insert")?.into_iter().map(WalOp::Insert));
    }
    if let Some(raw) = args.optional("delete") {
        ops.extend(id_set_lists(raw, "delete")?.into_iter().map(WalOp::Delete));
    }
    if ops.is_empty() {
        return Err(ArgError("nothing to do: pass --insert and/or --delete".into()).into());
    }
    let mut recovery = Wal::open(dir)?;
    if recovery.truncated {
        eprintln!("warning: damaged WAL tail was truncated during recovery");
    }
    let pending = recovery.records.len();
    let start = recovery.wal.next_seq();
    for op in &ops {
        recovery.wal.append(op)?;
    }
    println!(
        "appended {} records (seq {start}..{}) to {}; {pending} earlier records pending",
        ops.len(),
        recovery.wal.next_seq(),
        dir.display(),
    );
    Ok(())
}

/// `setlearn client --addr HOST:PORT [--collection NAME]
///  [--task cardinality|index|bloom] [--query 1,2,3] [--batch "1,2;3,4"]
///  [--insert "1,2;3,4"] [--delete "1,2"] [--ping] [--shutdown]`
///
/// Reference client for the `SLP1` wire protocol: connects to a
/// `serve --listen` front-end and, in order, pings, sends the ad-hoc
/// `--query` and/or the semicolon-separated `--batch`, and (with
/// `--shutdown`) asks the server to drain. Without `--collection` every
/// frame carries an empty collection id, which the server answers from its
/// `--default-collection`. Per-query failures come back as typed error
/// codes, not stringified I/O errors.
pub fn client(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "addr", "task", "collection", "query", "batch", "insert", "delete", "ping",
        "shutdown", "stats", "health", "slow-queries", "trace-id", "collections", "attach",
        "detach",
    ])?;
    let addr = args.required("addr")?;
    let mut client = NetClient::connect(addr).map_err(with_path("connect to", addr))?;
    // `--collection NAME` addresses every frame at that collection; without
    // it frames carry an empty id and the server routes them to its
    // default collection.
    if let Some(name) = args.optional("collection") {
        if !setlearn::wire::valid_collection_name(name) {
            return Err(ArgError(format!(
                "invalid collection name '{name}' (1..={} chars of [A-Za-z0-9_-])",
                setlearn::wire::MAX_COLLECTION_ID_LEN
            ))
            .into());
        }
        client.set_collection(Some(name.to_string()));
    }
    let mut acted = false;
    if args.has_flag("ping") {
        client.ping().map_err(|e| format!("ping failed: {e}"))?;
        println!("pong from {addr}");
        acted = true;
    }
    if args.has_flag("collections") {
        let rows = client.collections().map_err(|e| format!("collections failed: {e}"))?;
        println!("{} collection(s):", rows.len());
        for c in &rows {
            println!(
                "  {} task={} {} pending_ops={} disk_bytes={}",
                c.name,
                c.task.label(),
                if c.resident { "resident" } else { "cold" },
                c.pending_ops,
                c.disk_bytes,
            );
        }
        acted = true;
    }
    if let Some(name) = args.optional("attach") {
        client.attach_collection(name).map_err(|e| format!("attach failed: {e}"))?;
        println!("attached {name}");
        acted = true;
    }
    if let Some(name) = args.optional("detach") {
        client.detach_collection(name).map_err(|e| format!("detach failed: {e}"))?;
        println!("detached {name}");
        acted = true;
    }
    if args.has_flag("stats") || args.optional("stats").is_some() {
        let format = match args.optional("stats").unwrap_or("prom") {
            "prom" | "prometheus" => StatsFormat::Prometheus,
            "json" => StatsFormat::Json,
            other => {
                return Err(ArgError(format!("unknown stats format '{other}' (prom|json)")).into())
            }
        };
        let text = client.stats(format).map_err(|e| format!("stats failed: {e}"))?;
        println!("{text}");
        acted = true;
    }
    if args.has_flag("health") {
        let report = client.health().map_err(|e| format!("health failed: {e}"))?;
        println!(
            "{}: draining={} queue={}/{} wal_truncations={} compactor_pending={}",
            if report.ready { "ready" } else { "not ready" },
            report.draining,
            report.queue_depth,
            report.queue_capacity,
            report.wal_truncations,
            report.compactor_pending,
        );
        // Residency and per-collection ingest lag.
        println!("resident collections: {}", report.resident_collections);
        for (name, pending) in &report.collection_pending {
            println!("  {name}: pending_ingest={pending}");
        }
        for reason in &report.reasons {
            println!("  - {reason}");
        }
        // Probe semantics: a not-ready verdict is a nonzero exit, so the
        // command slots directly into load-balancer / orchestrator checks.
        if !report.ready {
            return Err(format!("server not ready: {}", report.reasons.join("; ")).into());
        }
        acted = true;
    }
    if args.has_flag("slow-queries") {
        let jsonl =
            client.stats(StatsFormat::SlowQueries).map_err(|e| format!("slow-queries failed: {e}"))?;
        print!("{jsonl}");
        acted = true;
    }
    // Ingest before queries, so `--insert … --query …` observes its own
    // writes (the server applies an ingest to the overlay before acking).
    if let Some(raw) = args.optional("insert") {
        for ids in id_set_lists(raw, "insert")? {
            let pretty = ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            let ack = client.insert(ids).map_err(|e| format!("insert failed: {e}"))?;
            println!(
                "{{{pretty}}} -> inserted at seq {}{}",
                ack.seq,
                if ack.applied { "" } else { " (not applied)" }
            );
        }
        acted = true;
    }
    if let Some(raw) = args.optional("delete") {
        for ids in id_set_lists(raw, "delete")? {
            let pretty = ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            let ack = client.delete(ids).map_err(|e| format!("delete failed: {e}"))?;
            println!(
                "{{{pretty}}} -> delete acknowledged at seq {}{}",
                ack.seq,
                if ack.applied { "" } else { " (no live occurrence)" }
            );
        }
        acted = true;
    }
    let mut batches: Vec<Vec<QueryRequest>> = Vec::new();
    if args.optional("query").is_some() {
        batches.push(vec![QueryRequest::new(args.id_list("query")?)]);
    }
    if let Some(raw) = args.optional("batch") {
        let batch = raw
            .split(';')
            .map(|part| {
                part.split(',')
                    .map(|t| t.trim().parse::<u32>())
                    .collect::<Result<Vec<u32>, _>>()
                    .map(QueryRequest::new)
                    .map_err(|_| ArgError(format!("invalid id list '{part}' in --batch")))
            })
            .collect::<Result<Vec<QueryRequest>, ArgError>>()?;
        batches.push(batch);
    }
    if !batches.is_empty() {
        let task: WireTask = args.required("task")?.parse().map_err(ArgError)?;
        // An explicit --trace-id rides the query frames, so the server's
        // slow-query records and spans carry the caller's id end to end.
        let trace_id = match args.optional("trace-id") {
            Some(raw) => Some(
                raw.parse::<u64>()
                    .map_err(|_| ArgError(format!("invalid --trace-id '{raw}'")))?,
            ),
            None => None,
        };
        for batch in batches {
            let outcomes = client
                .query_batch_traced(task, &batch, trace_id)
                .map_err(|e| format!("query failed: {e}"))?;
            for (request, outcome) in batch.iter().zip(&outcomes) {
                print_wire_outcome(&request.elements, outcome);
            }
        }
        acted = true;
    }
    if args.has_flag("shutdown") {
        client.shutdown_server().map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server draining");
        acted = true;
    }
    if !acted {
        return Err(ArgError(
            "nothing to do: pass --ping, --query, --batch, --insert, --delete, --stats, \
             --health, --slow-queries, or --shutdown"
                .into(),
        )
        .into());
    }
    Ok(())
}

/// `setlearn watch --addr HOST:PORT [--interval-ms N] [--count N]
/// [--collection NAME]` — polls the server's metrics snapshot over the wire
/// and renders a per-interval delta (counter increments, histogram counts
/// per stage) so an operator can watch a live server's request mix without
/// a scrape stack. `--count 0` (the default) polls until interrupted; on a
/// multi-tenant server `--collection NAME` keeps only that tenant's series.
pub fn watch(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["addr", "interval-ms", "count", "collection"])?;
    let addr = args.required("addr")?;
    let interval = std::time::Duration::from_millis(args.get_or("interval-ms", 1_000u64)?);
    let count = args.get_or("count", 0u64)?;
    // Tenant filter: keep series labeled with this collection. Unlabeled
    // (global) series are dropped so the view is purely that tenant's.
    let tenant_label = args
        .optional("collection")
        .map(|name| format!("collection=\"{name}\""));
    let keep = |rendered: &str| match &tenant_label {
        None => true,
        Some(label) => rendered.contains(label.as_str()),
    };
    let mut client = NetClient::connect(addr).map_err(with_path("connect to", addr))?;
    let mut baseline: Option<setlearn_obs::RegistrySnapshot> = None;
    let mut rounds = 0u64;
    loop {
        let text = client
            .stats(StatsFormat::Json)
            .map_err(|e| format!("stats poll failed: {e}"))?;
        let snap = setlearn_obs::from_json(&text)?;
        match &baseline {
            None => println!("watching {addr} (interval {}ms)", interval.as_millis()),
            Some(prev) => {
                let delta = snap.delta(prev);
                let mut lines = 0usize;
                for c in &delta.counters {
                    let rendered = c.key.render();
                    if c.value > 0 && keep(&rendered) {
                        println!("  {rendered} +{}", c.value);
                        lines += 1;
                    }
                }
                for h in &delta.histograms {
                    if h.value.count > 0 && keep(&h.key.render()) {
                        let mean = h.value.sum / h.value.count as f64;
                        // Latency families are recorded in seconds; render
                        // their means in µs. Anything else keeps raw units.
                        let pretty = if h.key.name.ends_with("_seconds") {
                            format!("{:.1}us", 1e6 * mean)
                        } else {
                            format!("{mean:.1}")
                        };
                        println!("  {} +{} (mean {pretty})", h.key.render(), h.value.count);
                        lines += 1;
                    }
                }
                if lines == 0 {
                    println!("  (idle)");
                }
            }
        }
        baseline = Some(snap);
        rounds += 1;
        if count > 0 && rounds > count {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Plans and runs `sql`'s query over the tenant: the table is the tenant's
/// current sets under the tenant's name, and a trained cardinality tenant —
/// opened through the registry like every other reader, pending deltas
/// included — is the planner's estimator.
fn run_sql(args: &Args) -> Result<QueryOutput, CliError> {
    let tenant = tenant_paths(args)?;
    // The table name comes from the FROM clause; parse first to learn it.
    let mut parsed = setlearn_engine::parse_query(args.required("query")?)?;
    if args.has_flag("explain") {
        parsed.explain = true;
    }
    // SQL identifiers have no '-': a collection's table name has '_' there.
    let table = tenant.name.replace('-', "_");
    if parsed.table != table {
        return Err(format!(
            "query targets table '{}' but collection '{}' is table '{table}'",
            parsed.table, tenant.name
        )
        .into());
    }
    // One collection backs one column; every predicate must agree on its
    // name.
    let columns = parsed.filter.columns();
    let column = *columns.first().ok_or("query references no column")?;
    if let Some(other) = columns.iter().find(|c| **c != column) {
        return Err(format!(
            "query references columns '{column}' and '{other}' but --collection \
             provides only one"
        )
        .into());
    }
    let engine = Engine::new();
    engine.create_table(
        SetTable::from_collection(parsed.table.clone(), tenant.current_sets()?),
        column.to_string(),
    );
    engine.create_index(&parsed.table)?;
    // An untrained collection (no manifest yet) still answers exact plans;
    // only a cardinality tenant is worth opening for the planner.
    if tenant.dir.join(persist::COLLECTION_MANIFEST).exists()
        && persist::load_manifest(&tenant.dir)?.task == WireTask::Cardinality.label()
    {
        let registry = registry_from_args(args)?;
        let backend = Arc::clone(resolve_tenant(&registry, &tenant)?.backend());
        engine.register_estimator_udf(
            &parsed.table,
            Arc::new(move |q| {
                let set = setlearn_data::normalize(q.to_vec());
                match answer(backend.as_ref(), vec![set]).pop() {
                    Some(Ok(QueryResponse { value: QueryValue::Cardinality(rows), .. })) => rows,
                    // A lost request has no estimate; NaN keeps it from
                    // passing as one.
                    _ => f64::NAN,
                }
            }),
        )?;
    }
    Ok(engine.run_query(&parsed)?)
}

/// `setlearn sql --root DIR --collection NAME --query "SELECT ..."
/// [--explain] [--telemetry PATH]`
pub fn sql(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["root", "collection", "query", "explain", "telemetry"])?;
    let sink = telemetry::begin(args)?;
    let out = run_sql(args)?;
    if let Some(text) = &out.explain {
        print!("{text}");
    }
    let result = out.result;
    println!(
        "count: {:.1} ({}, {:?}{})",
        result.count,
        if result.exact { "exact" } else { "estimate" },
        result.mode,
        if result.pinned { ", pinned" } else { ", planned" },
    );
    if let Some(sink) = sink {
        sink.finish()?;
    }
    Ok(())
}

/// `setlearn help`
pub fn help() {
    println!(
        "setlearn — learned data structures over collections of sets (EDBT 2024)

USAGE: setlearn <command> [--option value] [--flag]

COMMANDS:
  generate  --dataset rw|tweets|sd --sets N [--seed S] --out FILE
  import    --text FILE --out FILE [--dict FILE] [--comment PREFIX]
  export    --collection FILE --dict FILE --out FILE
  reorder   --collection FILE --out FILE [--strategy lex|head|random]
  stats     --collection FILE
            | --telemetry PATH [--format table|prom]   (dump a run artifact)
  train     --task cardinality|index|bloom --root DIR --collection NAME
            [--compressed] [--epochs N] [--percentile P] [--neurons N]
            [--embedding D] [--max-subset K] [--lr F] [--batch N]
            [--shards N] [--shard-by hash|range] [--precision f32|q8]
            [--telemetry PATH]
  ingest    --root DIR --collection NAME [--insert \"1,2;3,4\"]
            [--delete \"5,6\"]
            (offline durable appends; folded in by the next `train`)
  query     --root DIR --collection NAME
            (--query 1,2,3 | [--limit N] [--max-subset K]) [--threads N]
            [--telemetry PATH]
            (answers what `serve` over the same directory would; the
            manifest names the task)
  serve     --root DIR --listen HOST:PORT   (SLP1 TCP front-end over every
            collection under DIR, loading lazily; port 0 works)
            [--serve-for-s S] [--addr-file PATH] [--allow-remote-shutdown]
            [--slow-query-ms N] [--drain-grace-ms N]
            [--default-collection NAME] [--max-resident-bytes N]
            [--quota-qps Q [--quota-burst B]]
            | --root DIR --collection NAME   (replay a workload through
            one tenant) [--requests N] [--target-qps Q] [--max-subset K]
            both: [--threads N] [--max-batch N] [--queue N]
            [--compact-after N] [--telemetry PATH]
  client    --addr HOST:PORT [--collection NAME]
            [--task cardinality|index|bloom] [--query 1,2,3]
            [--batch \"1,2;3,4\"] [--insert \"1,2;3,4\"] [--delete \"1,2\"]
            [--trace-id N] [--ping] [--shutdown] [--stats [prom|json]]
            [--health] [--slow-queries] [--collections] [--attach NAME]
            [--detach NAME]
  watch     --addr HOST:PORT [--interval-ms N] [--count N]
            [--collection NAME]
            (poll a live server's metrics, print per-interval deltas)
  sql       --root DIR --collection NAME --query \"[EXPLAIN] SELECT
            COUNT(*) FROM t WHERE tags @> {{1,2}} [AND|OR|NOT ...]
            [USING mode]\" [--explain] [--telemetry PATH]
            (FROM names the collection, '-' spelled '_'; un-pinned queries
            are planned on cost, with a trained cardinality collection as
            the planner's estimator)
  help

Addressing: `--root DIR --collection NAME` names one collection directory
DIR/NAME/ holding collection.json, model.json, manifest.json, and wal/. It
is the only way train/query/serve/ingest/sql name a collection, and every
one of them opens it the way `serve` does: the manifest says the task and
shard layout, the checkpoint the precision, and a wal/ is recovered and its
pending deltas merged in. So do not run an offline verb against a directory
a live server owns.

Passing --telemetry PATH raises telemetry to Full (per-query/per-epoch
spans) and writes PATH.prom, PATH.metrics.json and PATH.jsonl; repeated
runs against the same PATH accumulate into one artifact.

`train --shards N` partitions the collection (hash by default, range with
--shard-by range) and trains one model per shard; every reader takes the
layout from the manifest and serves the sharded structure like any other —
one queue, --threads workers, per-shard answers folded inside each batch.

Every collection is resolved through the registry over --root, which reads
the task, shard layout and serve precision from the collection's manifest
and checkpoint. `serve --listen` serves them all over SLP1 frames carrying
a collection id; a frame with an empty id (a client without --collection)
is routed to --default-collection, so a solo server is
`--default-collection NAME`. Collections load lazily on first use,
--max-resident-bytes LRU-evicts idle ones, and --quota-qps/--quota-burst
arm a per-tenant token bucket that sheds with TenantOverloaded.
`client --collections/--attach/--detach` administer it; all metrics carry
a collection label.

A collection whose directory has a wal/ is served *mutable*: client
inserts/deletes are fsync'd to a write-ahead log before they are
acknowledged and answered from an exact in-memory delta merged with the
model, so a kill -9 loses no acknowledged write (restart replays the WAL
over the checkpoint). `--compact-after N` retrains the served structure
(same model shape, precision and index target) in the background once N ops
are pending, checkpoints atomically, and hot-swaps without dropping
requests; `train` over the same collection does the same fold offline and
publishes to the same place, so the next reader serves it.

The removed verbs estimate/lookup/member are spelled `query --root DIR
--collection NAME --query IDS`."
    );
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => generate(args),
        "import" => import(args),
        "export" => export(args),
        "reorder" => reorder_cmd(args),
        "stats" => stats(args),
        "train" => train(args),
        "query" => query(args),
        "serve" => serve(args),
        "ingest" => ingest(args),
        "client" => client(args),
        "watch" => watch(args),
        // The old estimate/lookup/member verbs are gone: point straight at
        // the unified replacement instead of a generic "unknown command".
        removed @ ("estimate" | "lookup" | "member") => Err(ArgError(format!(
            "`{removed}` was removed; use `setlearn query --root DIR --collection NAME \
             --query IDS` (the collection's manifest names the task)"
        ))
        .into()),
        "sql" => sql(args),
        "help" | "--help" | "-h" => {
            help();
            Ok(())
        }
        other => Err(ArgError(format!("unknown command '{other}'; try `setlearn help`")).into()),
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p: std::path::PathBuf = std::env::temp_dir();
        p.push(format!("setlearn-cli-{name}-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    /// Generates an `sd` collection at `<root>/<name>/collection.json` in a
    /// fresh root; returns the root.
    fn generated_tenant(tag: &str, name: &str, sets: &str, seed: &str) -> String {
        let root = tmp(tag);
        let _ = std::fs::remove_dir_all(&root);
        let dir = format!("{root}/{name}");
        std::fs::create_dir_all(&dir).unwrap();
        run(&args(&[
            "generate", "--dataset", "sd", "--sets", sets, "--seed", seed,
            "--out", &format!("{dir}/collection.json"),
        ]))
        .unwrap();
        root
    }

    /// [`generated_tenant`], then trains a cardinality tenant over it (plus
    /// `extra` train flags).
    fn trained_tenant(tag: &str, name: &str, seed: &str, extra: &[&str]) -> String {
        let root = generated_tenant(tag, name, "150", seed);
        let mut train = vec![
            "train", "--task", "cardinality", "--root", &root, "--collection", name,
            "--epochs", "2", "--refine-epochs", "1", "--max-subset", "2",
        ];
        train.extend_from_slice(extra);
        run(&args(&train)).unwrap();
        root
    }

    #[test]
    fn generate_stats_train_estimate_pipeline() {
        let root = generated_tenant("pipe-root", "pipe", "200", "3");
        run(&args(&["stats", "--collection", &format!("{root}/pipe/collection.json")])).unwrap();
        run(&args(&[
            "train", "--task", "cardinality", "--root", &root, "--collection", "pipe",
            "--compressed", "--epochs", "3", "--refine-epochs", "2", "--max-subset", "2",
        ]))
        .unwrap();
        run(&args(&["query", "--root", &root, "--collection", "pipe", "--query", "1,2"]))
            .unwrap();
        // The removed verb aliases point at the replacement.
        let err = run(&args(&["estimate", "--query", "1,2"])).unwrap_err();
        assert!(err.to_string().contains("query --root DIR --collection NAME"), "got: {err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sql_command_runs_exact_plans() {
        // Untrained: a collection file alone answers the exact plans.
        let root = generated_tenant("sql-root", "web-logs", "300", "1");
        let sql = |query: &str, extra: &[&str]| {
            let mut tokens =
                vec!["sql", "--root", &root, "--collection", "web-logs", "--query", query];
            tokens.extend_from_slice(extra);
            run(&args(&tokens))
        };
        sql("SELECT COUNT(*) FROM web_logs WHERE tags @> {1} USING index", &[]).unwrap();
        // Boolean filters and --explain run.
        sql(
            "SELECT COUNT(*) FROM web_logs WHERE tags @> {1} AND tags @> {2} OR NOT tags @> {3}",
            &["--explain"],
        )
        .unwrap();
        // The table is the collection: another FROM is an error, as is a
        // second column name (one collection backs the table).
        let err = sql("SELECT COUNT(*) FROM logs WHERE tags @> {1}", &[]).unwrap_err();
        assert!(err.to_string().contains("is table 'web_logs'"), "got: {err}");
        let err = sql("SELECT COUNT(*) FROM web_logs WHERE tags @> {1} AND mentions @> {2}", &[])
            .unwrap_err();
        assert!(err.to_string().contains("one"), "got: {err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn import_export_reorder_pipeline() {
        let text_in = tmp("tags.txt");
        let coll = tmp("imported.json");
        let dict = tmp("dict.json");
        let text_out = tmp("exported.txt");
        let sorted = tmp("sorted.json");
        std::fs::write(&text_in, "#a #b\n#b #c\n#a #b #c\n").unwrap();
        run(&args(&[
            "import", "--text", &text_in, "--out", &coll, "--dict", &dict,
        ]))
        .unwrap();
        run(&args(&["export", "--collection", &coll, "--dict", &dict, "--out", &text_out]))
            .unwrap();
        let exported = std::fs::read_to_string(&text_out).unwrap();
        assert_eq!(exported.lines().count(), 3);
        run(&args(&[
            "reorder", "--collection", &coll, "--out", &sorted, "--strategy", "lex",
        ]))
        .unwrap();
        for f in [&text_in, &coll, &dict, &text_out, &sorted] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn missing_files_error_with_path_context_instead_of_panicking() {
        let err = run(&args(&["stats", "--collection", "/nonexistent/nope.json"])).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/nope.json"), "got: {err}");
        let err = run(&args(&[
            "query", "--root", "/nonexistent", "--collection", "nope", "--query", "1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cannot open /nonexistent/nope"), "got: {err}");
    }

    /// A collection file that breaks a rule is an error (exit 1) naming the
    /// set and the rule, not a panic (exit 101) or a silently wrong answer.
    #[test]
    fn stats_refuses_a_broken_collection_file() {
        let root = tmp("broken");
        std::fs::create_dir_all(&root).unwrap();
        for (body, why) in [
            (r#"{"sets":[[0,1],[2,4000000000]],"num_elements":7}"#, "set 1 holds id 4000000000"),
            (r#"{"sets":[[2,1,0]],"num_elements":7}"#, "set 0 is not strictly ascending"),
            (r#"{"sets":[[1],[]],"num_elements":7}"#, "set 1 is empty"),
        ] {
            let file = format!("{root}/collection.json");
            std::fs::write(&file, body).unwrap();
            let err = run(&args(&["stats", "--collection", &file])).unwrap_err();
            assert!(err.to_string().contains(why), "got: {err}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_model_file_errors_instead_of_panicking() {
        let root = trained_tenant("garbage-root", "garbage", "2", &[]);
        let model = format!("{root}/garbage/model.json");
        std::fs::write(&model, b"{ not json ").unwrap();
        let err = run(&args(&[
            "query", "--root", &root, "--collection", "garbage", "--query", "1",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&model) && msg.contains("json error"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage() {
        let err = run(&args(&["generate", "--dataset", "sd", "--sets", "10", "--outt", "x"]))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--outt"), "got: {msg}");
        assert!(msg.contains("usage: setlearn generate"), "got: {msg}");
        // A typo'd training knob fails instead of silently using defaults.
        let err = run(&args(&[
            "train", "--task", "bloom", "--root", "r", "--collection", "c", "--epoch", "3",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--epoch"), "got: {err}");
    }

    #[test]
    fn train_query_stats_telemetry_pipeline() {
        let root = generated_tenant("tele-root", "tele", "150", "5");
        let base = format!("{root}/run");
        run(&args(&[
            "train", "--task", "cardinality", "--root", &root, "--collection", "tele",
            "--epochs", "2", "--refine-epochs", "1", "--max-subset", "2",
            "--telemetry", &base,
        ]))
        .unwrap();
        run(&args(&[
            "query", "--root", &root, "--collection", "tele",
            "--limit", "40", "--max-subset", "2", "--telemetry", &base,
        ]))
        .unwrap();

        // The Prometheus export is parseable and holds what the server path
        // leaves — the batch histogram and a nonzero query counter — beside
        // the train and monitor families.
        let prom = std::fs::read_to_string(format!("{base}.prom")).unwrap();
        setlearn_obs::validate_prometheus(&prom).expect("valid exposition");
        assert!(prom.contains("setlearn_serve_batch_seconds_bucket"), "prom:\n{prom}");
        assert!(prom.contains(
            "setlearn_serve_completed_total{collection=\"tele\",task=\"cardinality\"}"
        ));
        assert!(prom.contains("setlearn_train_epochs_total"));
        assert!(prom.contains("setlearn_monitor_rolling_q_error"));

        // The trace holds both train-epoch and serve-batch spans.
        let trace = std::fs::read_to_string(format!("{base}.jsonl")).unwrap();
        let records = setlearn_obs::parse_jsonl(&trace).expect("parseable trace");
        assert!(records.iter().any(|r| r.name == "train_epoch"), "no train_epoch span");
        assert!(records.iter().any(|r| r.name == "serve_batch"), "no serve_batch span");

        // The metrics snapshot round-trips and the query counter is nonzero.
        let queries = telemetry_snapshot(&base)
            .counter_value(
                "setlearn_serve_completed_total",
                &[("task", "cardinality"), ("collection", "tele")],
            )
            .expect("query counter");
        assert!(queries >= 40, "served {queries}");

        // `stats --telemetry` renders both formats.
        run(&args(&["stats", "--telemetry", &base])).unwrap();
        run(&args(&["stats", "--telemetry", &base, "--format", "prom"])).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The answers `query` would print for `sets`, as raw wire outcomes:
    /// the tenant opened through the same door, the same `answer`.
    fn offline_answers(tokens: &[&str], sets: &[ElementSet]) -> Vec<WireOutcome> {
        let parsed = args(tokens);
        let registry = registry_from_args(&parsed).unwrap();
        let resident = resolve_tenant(&registry, &tenant_paths(&parsed).unwrap()).unwrap();
        answer(resident.backend().as_ref(), sets.to_vec())
    }

    #[test]
    fn query_threads_sizes_the_pool_with_identical_answers() {
        let root = trained_tenant("par-root", "par", "9", &[]);
        // The multi-threaded replay runs end to end…
        run(&args(&[
            "query", "--root", &root, "--collection", "par",
            "--limit", "60", "--max-subset", "2", "--threads", "2",
        ]))
        .unwrap();
        // …and a wider pool answers bit-for-bit what one worker does, which
        // is what the structure answers directly.
        let est: LearnedCardinality = load(&format!("{root}/par/model.json")).unwrap();
        let collection = load::<SetCollection>(&format!("{root}/par/collection.json")).unwrap();
        let qs: Vec<ElementSet> =
            SubsetIndex::build(&collection, 2).iter().map(|(s, _)| s.clone()).collect();
        let direct: Vec<WireOutcome> = {
            use setlearn::prelude::LearnedSetStructure;
            est.query_batch(&qs).into_iter().map(|o| Ok(o.into())).collect()
        };
        for threads in ["1", "3"] {
            let tokens = ["query", "--root", &root, "--collection", "par", "--threads", threads];
            assert_eq!(offline_answers(&tokens, &qs), direct, "--threads {threads}");
        }
        // --threads reaches every task the same way: a bloom tenant over
        // the same sets replays on a pool too.
        std::fs::create_dir_all(format!("{root}/par-bloom")).unwrap();
        std::fs::copy(
            format!("{root}/par/collection.json"),
            format!("{root}/par-bloom/collection.json"),
        )
        .unwrap();
        run(&args(&[
            "train", "--task", "bloom", "--root", &root, "--collection", "par-bloom",
            "--epochs", "2", "--samples", "120", "--max-subset", "2",
        ]))
        .unwrap();
        run(&args(&[
            "query", "--root", &root, "--collection", "par-bloom", "--limit", "40",
            "--threads", "2",
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Runs `serve --root ROOT --listen 127.0.0.1:0 --allow-remote-shutdown`
    /// (plus `extra`) on a thread and waits for the ephemeral port it
    /// publishes through --addr-file.
    fn listen_session(
        root: &str,
        extra: &[&str],
    ) -> (std::thread::JoinHandle<Result<(), String>>, String) {
        let addr_file = format!("{root}/addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let mut tokens = vec![
            "serve", "--root", root, "--listen", "127.0.0.1:0", "--addr-file", &addr_file,
            "--allow-remote-shutdown",
        ];
        tokens.extend_from_slice(extra);
        let parsed = args(&tokens);
        // `CliError` is not `Send`; carry the message across the join.
        let server = std::thread::spawn(move || run(&parsed).map_err(|e| e.to_string()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ if std::time::Instant::now() > deadline || server.is_finished() => {
                    panic!("server never published its address")
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };
        (server, addr)
    }

    fn telemetry_snapshot(base: &str) -> RegistrySnapshot {
        serde_json::from_str(&std::fs::read_to_string(format!("{base}.metrics.json")).unwrap())
            .unwrap()
    }

    /// A mutable collection cannot be sharded: with a wal/ in the tenant,
    /// `train --shards` is an argument error, and nothing is written.
    #[test]
    fn train_refuses_to_shard_a_mutable_collection() {
        let root = generated_tenant("wal-shard-root", "mut", "80", "4");
        std::fs::create_dir_all(format!("{root}/mut/wal")).unwrap();
        let err = run(&args(&[
            "train", "--task", "cardinality", "--root", &root, "--collection", "mut",
            "--epochs", "1", "--max-subset", "2", "--shards", "2",
        ]))
        .unwrap_err();
        assert!(err.downcast_ref::<ArgError>().is_some(), "untyped: {err}");
        assert!(err.to_string().contains("cannot be trained with --shards"), "{err}");
        assert!(!Path::new(&format!("{root}/mut/manifest.json")).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A sharded tenant is served like any other: one runtime, so one metric
    /// series, each request counted once, and one admission queue.
    #[test]
    fn sharded_train_serve_query_pipeline_counts_each_request_once() {
        let root =
            trained_tenant("shard-root", "sharded", "11", &["--shards", "3", "--shard-by", "hash"]);
        let base = format!("{root}/run");
        // `serve` reads the layout from the manifest: no shard flags.
        run(&args(&[
            "serve", "--root", &root, "--collection", "sharded", "--requests", "200",
            "--threads", "3", "--telemetry", &base,
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(format!("{base}.prom")).unwrap();
        setlearn_obs::validate_prometheus(&prom).expect("valid exposition");
        assert!(!prom.contains("shard=\""), "per-shard series in the exposition:\n{prom}");
        let completed = telemetry_snapshot(&base).counter_value(
            "setlearn_serve_completed_total",
            &[("task", "cardinality"), ("collection", "sharded")],
        );
        assert_eq!(completed, Some(200), "200 requests over 3 shards are 200 requests");
        // So does `query`, like every reader, at any worker count.
        for threads in ["1", "2"] {
            run(&args(&[
                "query", "--root", &root, "--collection", "sharded",
                "--limit", "40", "--max-subset", "2", "--threads", threads,
            ]))
            .unwrap();
        }
        // One admission queue of the configured capacity, not one per shard.
        let (server, addr) =
            listen_session(&root, &["--default-collection", "sharded", "--queue", "96"]);
        served_bits(&addr, &[1, 2]);
        let mut client = NetClient::connect(&addr).unwrap();
        assert_eq!(client.health().unwrap().queue_capacity, 96);
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_command_replays_workload_through_the_runtime() {
        let root = trained_tenant("serve-root", "replayed", "4", &[]);
        let base = format!("{root}/run");
        run(&args(&[
            "serve", "--root", &root, "--collection", "replayed", "--requests", "300",
            "--threads", "2", "--max-batch", "32", "--telemetry", &base,
        ]))
        .unwrap();

        // The runtime's queue/batch metrics landed in the artifact, labeled
        // with the tenant the registry resolved.
        let prom = std::fs::read_to_string(format!("{base}.prom")).unwrap();
        setlearn_obs::validate_prometheus(&prom).expect("valid exposition");
        assert!(prom.contains("setlearn_serve_batch_size_bucket"), "prom:\n{prom}");
        let snap = telemetry_snapshot(&base);
        let labels = [("task", "cardinality"), ("collection", "replayed")];
        // `>=`: the registry is process-global, so parallel tests may add.
        let completed = snap
            .counter_value("setlearn_serve_completed_total", &labels)
            .expect("completed counter");
        assert!(completed >= 300, "every submitted request completed (saw {completed})");
        let batches =
            snap.counter_value("setlearn_serve_batches_total", &labels).expect("batch counter");
        assert!((1..=completed).contains(&batches), "{batches} batches for {completed}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_listen_answers_the_cli_client() {
        let root = trained_tenant("net-root", "solo", "8", &[]);
        // A solo server is the registry with a default collection; the serve
        // loop runs until the client requests a drain.
        let (server, addr) = listen_session(&root, &["--default-collection", "solo"]);
        // Frames address the tenant by name…
        run(&args(&[
            "client", "--addr", &addr, "--task", "cardinality", "--collection", "solo",
            "--query", "1,2",
        ]))
        .unwrap();
        // …or carry an empty id and ride to the default collection.
        run(&args(&[
            "client", "--addr", &addr, "--task", "cardinality",
            "--ping", "--query", "1,2", "--batch", "1;2,3", "--shutdown",
        ]))
        .unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every option removed from `serve`, `train`, `query`, `sql` and
    /// `ingest`, and both invalid `serve` mode combinations, are typed usage
    /// errors — never a panic, never a silently ignored flag.
    #[test]
    fn removed_serve_flags_and_mixed_modes_are_typed_arg_errors() {
        let usage_error = |line: String| {
            let err = run(&Args::parse(line.split(' ').map(String::from)).unwrap()).unwrap_err();
            assert!(err.downcast_ref::<ArgError>().is_some(), "`{line}` gave untyped: {err}");
            err.to_string()
        };
        let serve = "serve --root /nonexistent --listen 127.0.0.1:0";
        let mut removed = 0;
        for (verb, flags, value) in [
            (
                serve,
                "task model wal-dir shards shard-by precision epochs refine-epochs percentile \
                 neurons embedding lr batch seed samples range",
                " 1",
            ),
            (serve, "compressed last", ""),
            // The ten options the offline verbs lost with legacy addressing.
            ("train --root /nonexistent --collection gone", "out wal-dir", " 1"),
            (
                "query --root /nonexistent --collection gone",
                "task model shards shard-by precision",
                " 1",
            ),
            ("sql --root /nonexistent --collection gone", "model table", " 1"),
            ("ingest --root /nonexistent --collection gone", "wal-dir", " 1"),
        ] {
            for flag in flags.split_whitespace() {
                let message = usage_error(format!("{verb} --{flag}{value}"));
                assert!(message.contains(&format!("--{flag}")), "--{flag} not named in: {message}");
                removed += 1;
            }
        }
        assert_eq!(removed, 18 + 10);
        // `--collection` beside `--listen`, and neither mode.
        usage_error(format!("{serve} --collection solo"));
        usage_error("serve --root /nonexistent".to_string());
    }

    /// A batch closes when the queue is empty, so `serve` has no batching
    /// window to set: the old option is a usage error naming it.
    #[test]
    fn serve_has_no_batching_window_option() {
        let removed = "--max-delay-us";
        let err = run(&args(&["serve", "--root", "R", "--listen", "127.0.0.1:0", removed, "100"]))
            .unwrap_err();
        assert!(err.downcast_ref::<ArgError>().is_some(), "untyped: {err}");
        assert!(err.to_string().contains(removed), "got: {err}");
    }

    /// The replay sample is the `limit` smallest enumerated subsets with
    /// their true counts, so two runs over one tenant print the same summary.
    #[test]
    fn replay_samples_the_limit_smallest_subsets() {
        let sets = GeneratorConfig::rw(300, 3).generate();
        let subsets = SubsetIndex::build(&sets, 2);
        let mut smallest: Vec<&ElementSet> = subsets.iter().map(|(s, _)| s).collect();
        smallest.sort();
        smallest.truncate(200);
        let (queries, counts) = replay_sample(&sets, 2, 200);
        assert_eq!(queries.iter().collect::<Vec<_>>(), smallest);
        for (q, count) in queries.iter().zip(counts) {
            assert_eq!(count, subsets.get(q).unwrap().count as f64, "{q:?}");
        }
    }

    #[test]
    fn train_refuses_the_removed_half_precision() {
        let train = ["train", "--task", "cardinality", "--root", "R", "--collection", "c"];
        let err = run(&args(&[&train[..], &["--precision", "f16"]].concat())).unwrap_err();
        assert!(err.downcast_ref::<ArgError>().is_some(), "untyped: {err}");
        assert!(err.to_string().contains("expected f32 or q8"), "got: {err}");
    }

    #[test]
    fn ingest_then_train_folds_the_wal_into_a_checkpoint() {
        let root = generated_tenant("wal-fold-root", "fold", "120", "6");
        let dir = format!("{root}/fold");
        let train = [
            "train", "--task", "cardinality", "--root", &root, "--collection", "fold",
            "--epochs", "2", "--refine-epochs", "1", "--max-subset", "2",
        ];
        // Offline appends: two inserts, then a delete that consumes the
        // freshest matching insert — the net delta is one extra row.
        run(&args(&[
            "ingest", "--root", &root, "--collection", "fold", "--insert", "1,2;2,3",
            "--delete", "1,2",
        ]))
        .unwrap();
        run(&args(&train)).unwrap();
        let base = load::<SetCollection>(&format!("{dir}/collection.json")).unwrap();
        let merged: SetCollection = load(&format!("{dir}/wal/checkpoint.json")).unwrap();
        assert_eq!(merged.len(), base.len() + 1, "net delta folded into the checkpoint");
        // The fold consumed the log: nothing is pending on reopen, the
        // retrain is what a reader now opens, and a second train starts
        // from the checkpoint, not from the original collection file.
        let recovery = Wal::open(Path::new(&format!("{dir}/wal"))).unwrap();
        assert!(recovery.records.is_empty(), "WAL fully applied");
        drop(recovery);
        run(&args(&["query", "--root", &root, "--collection", "fold", "--query", "2,3"]))
            .unwrap();
        std::fs::remove_file(format!("{dir}/collection.json")).unwrap();
        run(&args(&train)).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One cardinality answer as raw bits, through a client addressing the
    /// default collection.
    fn served_bits(addr: &str, ids: &[u32]) -> u64 {
        let mut client = NetClient::connect(addr).unwrap();
        let outcomes =
            client.query_batch(WireTask::Cardinality, &[QueryRequest::new(ids.to_vec())]).unwrap();
        cardinality_bits(&outcomes[0])
    }

    fn cardinality_bits(outcome: &WireOutcome) -> u64 {
        match outcome.as_ref().unwrap().value {
            QueryValue::Cardinality(v) => v.to_bits(),
            ref other => panic!("wrong value kind: {other:?}"),
        }
    }

    /// Blocks until the live server's compactor has folded every pending op
    /// into a published checkpoint.
    fn await_compaction(addr: &str, server: &std::thread::JoinHandle<Result<(), String>>) {
        let mut health = NetClient::connect(addr).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        while health.health().unwrap().compactor_pending > 0 {
            assert!(std::time::Instant::now() < deadline, "compaction never folded the delta");
            assert!(!server.is_finished(), "server died before compacting");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    /// The offline verbs open a tenant the way `serve` does: after writes, a
    /// background compaction and one more write — model superseded under
    /// `wal/`, sets checkpointed, a record still pending — `query --query`
    /// and `sql … USING estimate` answer what the server answered.
    #[test]
    fn offline_verbs_answer_what_serve_answers() {
        let root = trained_tenant("offline-root", "live", "7", &[]);
        std::fs::create_dir_all(format!("{root}/live/wal")).unwrap();
        let (server, addr) =
            listen_session(&root, &["--default-collection", "live", "--compact-after", "3"]);
        let trained = served_bits(&addr, &[1, 2]);
        run(&args(&[
            "client", "--addr", &addr, "--task", "cardinality", "--insert", "1,2;1,2,3;1,2,4",
        ]))
        .unwrap();
        await_compaction(&addr, &server);
        assert!(Path::new(&format!("{root}/live/wal/model.json")).exists());
        run(&args(&["client", "--addr", &addr, "--task", "cardinality", "--insert", "1,2,5"]))
            .unwrap();
        let served = served_bits(&addr, &[1, 2]);
        assert_ne!(served, trained, "the retrain and the pending insert moved the answer");
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();

        let tenant = ["--root", &root, "--collection", "live"];
        let offline =
            offline_answers(&[&["query"][..], &tenant].concat(), &[vec![1, 2].into_boxed_slice()]);
        assert_eq!(cardinality_bits(&offline[0]), served, "query --query diverged from serve");
        run(&args(&[&["query"][..], &tenant, &["--query", "1,2"]].concat())).unwrap();
        let out = run_sql(&args(
            &[
                &["sql"][..],
                &tenant,
                &["--query", "SELECT COUNT(*) FROM live WHERE tags @> {1,2} USING estimate"],
            ]
            .concat(),
        ))
        .unwrap();
        assert!(!out.result.exact);
        assert_eq!(out.result.count.to_bits(), served, "sql USING estimate diverged from serve");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `train` over a tenant that a compaction has already checkpointed
    /// publishes where the compaction did, so the next reader serves the
    /// model just trained — not the compacted one it supersedes.
    #[test]
    fn train_after_a_compaction_is_what_the_next_reader_serves() {
        let root = trained_tenant("retrain-root", "live", "8", &[]);
        std::fs::create_dir_all(format!("{root}/live/wal")).unwrap();
        let (server, addr) =
            listen_session(&root, &["--default-collection", "live", "--compact-after", "1"]);
        run(&args(&["client", "--addr", &addr, "--task", "cardinality", "--insert", "1,2,3"]))
            .unwrap();
        await_compaction(&addr, &server);
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        let compacted: LearnedCardinality = load(&format!("{root}/live/wal/model.json")).unwrap();
        assert_eq!(compacted.model().config().embedding_dim, 8);

        run(&args(&[
            "train", "--task", "cardinality", "--root", &root, "--collection", "live",
            "--epochs", "2", "--refine-epochs", "1", "--max-subset", "2", "--embedding", "5",
        ]))
        .unwrap();
        let current = persist::current_files(Path::new(&format!("{root}/live")));
        let retrained: LearnedCardinality = load(&current.model.to_string_lossy()).unwrap();
        assert_eq!(retrained.model().config().embedding_dim, 5, "the reader's model is the new one");
        let sets = load::<SetCollection>(&current.sets.to_string_lossy()).unwrap();
        let qs: Vec<ElementSet> =
            SubsetIndex::build(&sets, 2).iter().map(|(s, _)| s.clone()).collect();
        let direct: Vec<WireOutcome> = {
            use setlearn::prelude::LearnedSetStructure;
            retrained.query_batch(&qs).into_iter().map(|o| Ok(o.into())).collect()
        };
        let served = offline_answers(&["query", "--root", &root, "--collection", "live"], &qs);
        assert_eq!(served, direct, "the served structure is not the one train just wrote");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// End-to-end mutable serving: a tenant with a `wal/` accepts ingest,
    /// acknowledged writes survive a server restart (WAL replay) with
    /// read-your-writes answers, and the background compactor folds the
    /// delta into an atomic checkpoint and publishes while serving.
    #[test]
    fn serve_listen_wal_ingests_recovers_and_compacts() {
        let root = trained_tenant("wal-root", "live", "7", &[]);
        let wal_dir = format!("{root}/live/wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        let base = format!("{root}/run");
        let query = |addr: &str| served_bits(addr, &[1, 2]);

        // Session 1: ingest over the wire, query through the overlay, drain.
        let (server, addr) = listen_session(&root, &["--default-collection", "live"]);
        let before_ingest = query(&addr);
        run(&args(&[
            "client", "--addr", &addr, "--task", "cardinality", "--insert", "1,2;1,2,3",
        ]))
        .unwrap();
        let acknowledged = query(&addr);
        assert_ne!(acknowledged, before_ingest, "the overlay answers the acknowledged writes");
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        let recovery = Wal::open(Path::new(&wal_dir)).unwrap();
        assert_eq!(recovery.records.len(), 2, "acknowledged writes survive the restart");
        drop(recovery);

        // Session 2: recovery replays the pending delta — the restarted
        // server answers exactly as the one that acknowledged the writes.
        let (server, addr) =
            listen_session(&root, &["--default-collection", "live", "--telemetry", &base]);
        assert_eq!(query(&addr), acknowledged, "read-your-writes across the restart");
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        let replayed = telemetry_snapshot(&base)
            .counter_value("setlearn_wal_replayed_records_total", &[])
            .expect("WAL replay counter");
        assert!(replayed >= 2, "recovery replayed {replayed} records");

        // Session 3: the compactor (threshold already crossed) retrains the
        // served structure, checkpoints, and publishes.
        let (server, addr) = listen_session(
            &root,
            &["--default-collection", "live", "--compact-after", "2", "--telemetry", &base],
        );
        query(&addr); // first frame makes the tenant resident
        await_compaction(&addr, &server);
        run(&args(&["client", "--addr", &addr, "--shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        let collection = load::<SetCollection>(&format!("{root}/live/collection.json")).unwrap();
        let merged: SetCollection = load(&format!("{wal_dir}/checkpoint.json")).unwrap();
        assert_eq!(merged.len(), collection.len() + 2, "compaction folded the delta");
        assert!(
            Path::new(&format!("{wal_dir}/model.json")).exists(),
            "compaction persisted the retrained model"
        );
        let swaps = telemetry_snapshot(&base)
            .counter_value(
                "setlearn_serve_swaps_total",
                &[("task", "cardinality"), ("collection", "live")],
            )
            .expect("swap counter");
        assert!(swaps >= 1, "the compaction published through the hot-swap slot");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_command_and_task_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
        let root = generated_tenant("err-root", "err", "100", "2");
        assert!(run(&args(&["train", "--task", "nope", "--root", &root, "--collection", "err"]))
            .is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
