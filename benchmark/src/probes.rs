//! In-process probes: the benchmark calls each layer's public functions on
//! the checkpoint the server loaded and the queries the workload sends, and
//! times the calls from outside. Every call is one `probe.<layer>.<fn>` span.

use crate::spans::Recorder;
use crate::stats::{linear_fit, median};
use crate::workload::{Kind, Op, Oracle, Plan, Rng};
use setlearn::mutable::MutableCollection;
use setlearn::tasks::{CardinalityConfig, LearnedCardinality, LearnedSetStructure};
use setlearn::wal::{Wal, WalOp};
use setlearn::wire::QueryRequest;
use setlearn::{DeepSetsConfig, GuidedConfig};
use setlearn_data::{normalize, ElementSet, SetCollection};
use setlearn_serve::proto::{
    decode_request_batch, decode_response_batch, encode_frame_v2, encode_request_batch,
    encode_response_batch,
};
use setlearn_serve::{
    CollectionRegistry, RegistryConfig, ServeConfig, ServeRuntime, StructureTask, WireOutcome,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Metric name → value, merged into the run's per-layer ledger.
pub type Ledger = BTreeMap<String, f64>;

/// Times one call under a `probe.*` span; returns nanoseconds.
fn timed<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    rec.record(name, None, 0, t0, t1);
    (t1.duration_since(t0).as_nanos() as f64, out)
}

/// Median nanoseconds of `reps` calls.
fn median_ns(rec: &mut Recorder, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(rec, name, &mut f).0).collect();
    median(&samples)
}

fn read_frames(plan: &Plan, limit: usize) -> Vec<&Vec<QueryRequest>> {
    plan.conns[0]
        .iter()
        .filter_map(|op| match op {
            Op::Read { queries, .. } => Some(queries),
            Op::Write { .. } => None,
        })
        .take(limit)
        .collect()
}

/// `proto`: the four batch codecs on the workload's own frames.
pub fn proto(rec: &mut Recorder, plan: &Plan, oracle: &Oracle, out: &mut Ledger) {
    let frames = read_frames(plan, 128);
    let queries: f64 = frames.iter().map(|f| f.len() as f64).sum();
    let payloads: Vec<Vec<u8>> = frames.iter().map(|f| encode_request_batch(f)).collect();
    let replies: Vec<Vec<WireOutcome>> = frames
        .iter()
        .map(|f| {
            let sets: Vec<ElementSet> = f.iter().map(|q| q.clone().canonicalize()).collect();
            oracle.answer(&sets).into_iter().map(Ok).collect()
        })
        .collect();
    let reply_payloads: Vec<Vec<u8>> = replies.iter().map(|r| encode_response_batch(r)).collect();
    let tenant = plan.kind.tenants()[0];
    let wire_bytes: usize = payloads
        .iter()
        .chain(&reply_payloads)
        .map(|p| encode_frame_v2(plan.kind.task().code(), 1, Some(tenant), p).len())
        .sum();

    let reps = 9;
    let per_query = |ns: f64| ns / queries;
    out.insert(
        "proto.encode_req_ns".into(),
        per_query(median_ns(
            rec,
            "probe.proto.encode_request_batch",
            reps,
            || {
                for f in &frames {
                    black_box(encode_request_batch(black_box(f)));
                }
            },
        )),
    );
    out.insert(
        "proto.decode_req_ns".into(),
        per_query(median_ns(
            rec,
            "probe.proto.decode_request_batch",
            reps,
            || {
                for p in &payloads {
                    black_box(decode_request_batch(black_box(p)).expect("own encoding"));
                }
            },
        )),
    );
    out.insert(
        "proto.encode_resp_ns".into(),
        per_query(median_ns(
            rec,
            "probe.proto.encode_response_batch",
            reps,
            || {
                for r in &replies {
                    black_box(encode_response_batch(black_box(r)));
                }
            },
        )),
    );
    out.insert(
        "proto.decode_resp_ns".into(),
        per_query(median_ns(
            rec,
            "probe.proto.decode_response_batch",
            reps,
            || {
                for p in &reply_payloads {
                    black_box(decode_response_batch(black_box(p)).expect("own encoding"));
                }
            },
        )),
    );
    out.insert("proto.bytes_per_query".into(), wire_bytes as f64 / queries);
}

/// `registry`: first-touch load of every tenant, then the resident lookup.
/// `root` must be a copy the server is not using (a mutable tenant's WAL is
/// opened for writing).
pub fn registry(
    rec: &mut Recorder,
    kind: Kind,
    root: &Path,
    out: &mut Ledger,
) -> Result<(), String> {
    let mut config = RegistryConfig::new(root);
    config.serve = cli_serve_config();
    let registry = CollectionRegistry::new(config);
    let mut load_ns = Vec::new();
    for tenant in kind.tenants() {
        let (ns, loaded) = timed(rec, "probe.registry.resolve_load", || {
            registry.resolve(Some(tenant))
        });
        loaded.map_err(|e| e.to_string())?;
        load_ns.push(ns);
    }
    out.insert("registry.load_ms".into(), median(&load_ns) / 1e6);
    let tenants = kind.tenants();
    let calls = 2_000usize;
    let ns = median_ns(rec, "probe.registry.resolve", 9, || {
        for i in 0..calls {
            black_box(
                registry
                    .resolve(Some(tenants[i % tenants.len()]))
                    .expect("resident"),
            );
        }
    });
    out.insert("registry.resolve_ns".into(), ns / calls as f64);
    Ok(())
}

/// The serve settings `setlearn serve --threads 2` runs with.
fn cli_serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        queue_capacity: 1024,
    }
}

/// `runtime`: what `ServeRuntime::call` adds to a direct `query` for one
/// query on an idle pool (queue hop, batch window, wake-up).
pub fn runtime_overhead(
    rec: &mut Recorder,
    kind: Kind,
    root: &Path,
    plan: &Plan,
    out: &mut Ledger,
) -> Result<(), String> {
    fn measure<S>(rec: &mut Recorder, structure: S, pool: &[ElementSet]) -> f64
    where
        S: LearnedSetStructure + Send + Sync + 'static,
        S::Output: Send + 'static,
    {
        let n = pool.len().min(300);
        let direct: Vec<f64> = pool[..n]
            .iter()
            .map(|q| timed(rec, "probe.tasks.query", || black_box(structure.query(q))).0)
            .collect();
        let runtime = ServeRuntime::start(StructureTask::new(structure), cli_serve_config());
        let called: Vec<f64> = pool[..n]
            .iter()
            .map(|q| {
                timed(rec, "probe.runtime.call", || {
                    black_box(runtime.call(q.clone()).is_ok())
                })
                .0
            })
            .collect();
        runtime.shutdown();
        (median(&called) - median(&direct)) / 1e3
    }
    // A second copy of the checkpoint: the runtime takes ownership.
    let (oracle, _) = Oracle::load(kind, root)?;
    let us = match oracle {
        Oracle::Card(s) => measure(rec, s, &plan.pool),
        Oracle::Bloom(s) => measure(rec, s, &plan.pool),
        Oracle::Index(s) => measure(rec, s, &plan.pool),
    };
    out.insert("runtime.call_overhead_us".into(), us);
    Ok(())
}

/// `kernel` and `tasks`: the forward pass alone, then the whole
/// `query_batch`, on the same queries.
pub fn kernel_and_tasks(
    rec: &mut Recorder,
    plan: &Plan,
    oracle: &Oracle,
    seed: u64,
    out: &mut Ledger,
) {
    let kernel = oracle.kernel();
    let config = oracle.model().config();
    let pool = &plan.pool;
    let batch = 64usize;
    let batches: Vec<&[ElementSet]> = pool.chunks_exact(batch).take(16).collect();

    let kernel_ns: Vec<f64> = batches
        .iter()
        .map(|b| {
            timed(rec, "probe.kernel.predict_batch", || {
                black_box(kernel.predict_batch(b))
            })
            .0
        })
        .collect();
    let task_ns: Vec<f64> = batches
        .iter()
        .map(|b| {
            timed(rec, "probe.tasks.query_batch", || {
                black_box(oracle.answer(b))
            })
            .0
        })
        .collect();
    let batch64 = median(&kernel_ns) / batch as f64;
    out.insert("kernel.batch64_ns_per_query".into(), batch64);
    out.insert(
        "tasks.post_ns_per_query".into(),
        (median(&task_ns) / batch as f64 - batch64).max(0.0),
    );
    let singles: Vec<f64> = pool[..256.min(pool.len())]
        .iter()
        .map(|q| {
            timed(rec, "probe.kernel.predict_one", || {
                black_box(kernel.predict_one(q))
            })
            .0
        })
        .collect();
    out.insert("kernel.batch1_ns".into(), median(&singles));

    // Gather and φ scale with elements, pool and ρ with sets: time batches
    // of 64 sets of 1, 2, 4 and 8 elements and fit ns/set = a·elements + b.
    let mut rng = Rng::new(seed ^ 0xf17);
    let vocab = config.vocab as usize;
    let sizes = [1usize, 2, 4, 8];
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for &size in &sizes {
        let sets: Vec<ElementSet> = (0..batch)
            .map(|_| loop {
                let s = normalize((0..size).map(|_| rng.below(vocab) as u32).collect());
                if s.len() == size {
                    break s;
                }
            })
            .collect();
        let ns = median_ns(rec, "probe.kernel.predict_batch_sized", 15, || {
            black_box(kernel.predict_batch(black_box(&sets)));
        });
        xs.push(size as f64);
        ys.push(ns / batch as f64);
    }
    let (per_element, per_set) = linear_fit(&xs, &ys);
    out.insert("kernel.ns_per_element".into(), per_element);
    out.insert("kernel.ns_per_set".into(), per_set);
    out.insert("kernel.weight_bytes".into(), kernel.size_bytes() as f64);

    // Multiply-accumulates from the layer widths, not measured: φ runs once
    // per element, ρ (plus its scalar output layer) once per set.
    let chain = |first: usize, widths: &[usize]| -> (f64, usize) {
        widths.iter().fold((0.0, first), |(macs, fan_in), &w| {
            (macs + (fan_in * w) as f64, w)
        })
    };
    let (phi_macs, pooled) = chain(config.embedding_dim, &config.phi_hidden);
    let (rho_macs, last) = chain(pooled, &config.rho_hidden);
    let mean_elements = pool.iter().map(|q| q.len() as f64).sum::<f64>() / pool.len() as f64;
    out.insert(
        "kernel.macs_per_query".into(),
        mean_elements * phi_macs + rho_macs + last as f64,
    );
    out.insert(
        "kernel.isa".into(),
        setlearn::kernel::kernel_isa() as u8 as f64,
    );

    let answers = oracle.answer(pool);
    let share = |n: usize| n as f64 / answers.len() as f64;
    out.insert(
        "tasks.bound_miss_rate".into(),
        share(answers.iter().filter(|a| a.bound_miss).count()),
    );
    out.insert(
        "tasks.fallback_rate".into(),
        share(answers.iter().filter(|a| a.fallback.is_some()).count()),
    );
    if let Oracle::Index(s) = oracle {
        let (_, profiles) = timed(rec, "probe.tasks.lookup_batch_profiled", || {
            s.index.lookup_batch_profiled(&s.collection, pool)
        });
        let scanned: usize = profiles.iter().map(|p| p.scanned).sum();
        out.insert(
            "tasks.index_scanned_mean".into(),
            scanned as f64 / profiles.len() as f64,
        );
        out.insert(
            "tasks.index_aux_rate".into(),
            share(profiles.iter().filter(|p| p.from_aux).count()),
        );
    }
}

/// Inserts between two read-cost measurements of the overlay probe.
const DELTA_STEP: usize = 250;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `wal`, `mutable`, `compact`: the write path's layers on a fixed delta of
/// 1,000 ops (every insert is an fsync; the issue's 2,000 do not fit the
/// run's time cap), in scratch directories under `scratch`.
pub fn write_path(
    rec: &mut Recorder,
    plan: &Plan,
    est: &LearnedCardinality,
    sets: &Arc<SetCollection>,
    seed: u64,
    scratch: &Path,
    out: &mut Ledger,
) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x3a1);
    let vocab = sets.num_elements() as usize;
    let mut fresh_set = move || loop {
        let s = normalize((0..3).map(|_| rng.below(vocab) as u32).collect());
        if s.len() == 3 {
            break s.to_vec();
        }
    };

    let wal_dir = scratch.join("probe-wal");
    let mut wal = Wal::open(&wal_dir).map_err(|e| e.to_string())?.wal;
    let appends = 200usize;
    let ns: Vec<f64> = (0..appends)
        .map(|_| {
            let op = WalOp::Insert(fresh_set());
            timed(rec, "probe.wal.append", || wal.append(&op).is_ok()).0
        })
        .collect();
    out.insert("wal.append_us".into(), median(&ns) / 1e3);
    out.insert(
        "wal.bytes_per_op".into(),
        dir_bytes(&wal_dir) as f64 / appends as f64,
    );
    drop(wal);

    // Read cost against pending ops: the overlay is scanned per query.
    let delta_dir = scratch.join("probe-delta");
    let open = |dir: &Path| {
        MutableCollection::open(est.clone(), Arc::clone(sets), dir).map_err(|e| e.to_string())
    };
    let (collection, _) = open(&delta_dir)?;
    let reads: Vec<ElementSet> = plan.pool[..256].to_vec();
    let mut insert_ns = Vec::new();
    let (mut pending, mut per_query) = (Vec::new(), Vec::new());
    for step in 0..=4 {
        if step > 0 {
            for _ in 0..DELTA_STEP {
                let set = fresh_set();
                insert_ns.push(
                    timed(rec, "probe.mutable.insert", || {
                        collection.insert(&set).is_ok()
                    })
                    .0,
                );
            }
        }
        let ns = median_ns(rec, "probe.mutable.query_batch", 5, || {
            black_box(collection.query_batch(black_box(&reads)));
        });
        pending.push((step * DELTA_STEP) as f64 / 1e3);
        per_query.push(ns / reads.len() as f64);
    }
    out.insert("mutable.insert_us".into(), median(&insert_ns) / 1e3);
    out.insert(
        "mutable.overlay_ns_per_kpending".into(),
        linear_fit(&pending, &per_query).0,
    );

    drop(collection);
    let (ns, reopened) = timed(rec, "probe.mutable.open", || open(&delta_dir));
    let (collection, report) = reopened?;
    if report.replayed != 4 * DELTA_STEP {
        return Err(format!(
            "recovery replayed {} of {} probe inserts",
            report.replayed,
            4 * DELTA_STEP
        ));
    }
    out.insert("mutable.recover_ms".into(), ns / 1e6);

    // One compaction of that delta, retraining the way the tenant was trained.
    let (ns, cycle) = timed(rec, "probe.compact.cycle", || -> Result<(), String> {
        let snapshot = collection
            .begin_compaction()
            .map_err(|e| e.to_string())?
            .ok_or("nothing to compact")?;
        let cfg = CardinalityConfig {
            model: DeepSetsConfig::lsm(snapshot.merged.num_elements()),
            guided: GuidedConfig {
                warmup_epochs: 4,
                rounds: 1,
                epochs_per_round: 2,
                percentile: 0.9,
                batch_size: 128,
                learning_rate: 3e-3,
                seed,
            },
            max_subset_size: 3,
        };
        let (rebuilt, _) = LearnedCardinality::build(&snapshot.merged, &cfg);
        collection
            .complete_compaction(rebuilt, snapshot)
            .map_err(|e| e.to_string())
    });
    cycle?;
    out.insert("compact.cycle_ms".into(), ns / 1e6);
    Ok(())
}
