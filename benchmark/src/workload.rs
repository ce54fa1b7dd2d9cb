//! The five workloads: how each tenant is provisioned through the CLI, the
//! queries generated from the seed, and the in-process oracle every wire
//! answer is compared with.

use crate::server::{copy_dir, Cli};
use setlearn::persist::{load_json, COLLECTION_MODEL, COLLECTION_SETS, COLLECTION_WAL};
use setlearn::tasks::{
    aggregate_cardinality, BloomConfig, IndexStructure, LearnedBloom, LearnedCardinality,
    LearnedSetIndex, LearnedSetStructure, QueryOutcome,
};
use setlearn::wire::{QueryRequest, QueryResponse, QueryValue, WireTask};
use setlearn::FrozenModel;
use setlearn_data::{normalize, ElementSet, SetCollection};
use std::path::Path;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CardKernel,
    CardKernelQ8,
    BloomWire,
    IndexScan,
    MixedRw,
}

pub const ALL: [Kind; 5] = [
    Kind::CardKernel,
    Kind::CardKernelQ8,
    Kind::BloomWire,
    Kind::IndexScan,
    Kind::MixedRw,
];

/// Client threads, one connection each. The host has two cores and callers
/// of an estimator, filter or index wait for the reply, so the load is a
/// closed loop; an open-loop generator would compete with the server for
/// the same two cores.
pub const CONNECTIONS: usize = 2;

/// Distinct queries per workload; frames draw from this pool so that the
/// oracle answers each query once.
const POOL: usize = 2048;
/// Frames in a connection's cyclic schedule (window workloads).
const SCHEDULE: usize = 512;
/// Keys the bloom filter is built over (`train --samples`).
const BLOOM_SAMPLES: usize = 5000;
/// Element ids reserved per connection for `mixed_rw` inserts.
const RESERVED: u32 = 24;
/// `mixed_rw` script length per connection for each second asked for.
pub const SCRIPT_FRAMES_PER_SECOND: usize = 1000;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::CardKernel => "card_kernel",
            Kind::CardKernelQ8 => "card_kernel_q8",
            Kind::BloomWire => "bloom_wire",
            Kind::IndexScan => "index_scan",
            Kind::MixedRw => "mixed_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn task(self) -> WireTask {
        match self {
            Kind::CardKernel | Kind::CardKernelQ8 | Kind::MixedRw => WireTask::Cardinality,
            Kind::BloomWire => WireTask::Bloom,
            Kind::IndexScan => WireTask::Index,
        }
    }

    pub fn tenants(self) -> &'static [&'static str] {
        match self {
            Kind::CardKernel => &["wide_f32"],
            Kind::CardKernelQ8 => &["wide_q8"],
            Kind::BloomWire => &["blm0", "blm1", "blm2", "blm3"],
            Kind::IndexScan => &["idx"],
            Kind::MixedRw => &["mut"],
        }
    }

    /// Queries per read frame.
    pub fn frame_queries(self) -> usize {
        match self {
            Kind::CardKernel | Kind::CardKernelQ8 => 64,
            Kind::BloomWire => 1,
            Kind::IndexScan => 32,
            Kind::MixedRw => 16,
        }
    }

    /// A fixed op script replaces the fixed window: the delta overlay grows
    /// with every write, so the workload is not stationary in time.
    pub fn scripted(self) -> bool {
        self == Kind::MixedRw
    }

    /// Generates the collection and trains the tenant(s) under `root`, with
    /// `--root/--collection` addressing only. Training sizes are cut from
    /// the issue's so that one set-up fits a few seconds (the contract caps
    /// the whole run); the shapes — wide model, four tenants, mutable
    /// tenant — are what the workloads depend on, and they are kept.
    pub fn provision(self, cli: &Cli, seed: u64, root: &Path) -> Result<(), String> {
        let seed_s = seed.to_string();
        let root_s = root.to_str().ok_or("non-UTF-8 work directory")?;
        let first = self.tenants()[0];
        let dir = root.join(first);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let (dataset, sets) = match self {
            Kind::CardKernel | Kind::CardKernelQ8 => ("tweets", "2000"),
            Kind::BloomWire | Kind::IndexScan => ("rw", "20000"),
            Kind::MixedRw => ("rw", "5000"),
        };
        let sets_path = dir.join(COLLECTION_SETS);
        cli.run(&[
            "generate",
            "--dataset",
            dataset,
            "--sets",
            sets,
            "--seed",
            &seed_s,
            "--out",
            sets_path.to_str().ok_or("non-UTF-8 work directory")?,
        ])?;
        let wide =
            "cardinality --embedding 128 --neurons 512 --epochs 1 --refine-epochs 1 --max-subset 2";
        let task_flags = match self {
            Kind::CardKernel => format!("{wide} --precision f32"),
            Kind::CardKernelQ8 => format!("{wide} --precision q8"),
            Kind::BloomWire => format!("bloom --samples {BLOOM_SAMPLES} --epochs 3"),
            Kind::IndexScan => "index --epochs 3 --refine-epochs 1 --max-subset 2".to_string(),
            Kind::MixedRw => "cardinality --epochs 4 --refine-epochs 2".to_string(),
        };
        let mut train = vec![
            "train",
            "--root",
            root_s,
            "--collection",
            first,
            "--seed",
            &seed_s,
            "--task",
        ];
        train.extend(task_flags.split_whitespace());
        cli.run(&train)?;
        match self {
            // Trained once, served as four tenants.
            Kind::BloomWire => {
                for copy in &self.tenants()[1..] {
                    copy_dir(&dir, &root.join(copy))?;
                }
            }
            // A `wal/` directory is what makes the registry open it mutable.
            Kind::MixedRw => std::fs::create_dir_all(dir.join(COLLECTION_WAL))
                .map_err(|e| format!("mkdir wal: {e}"))?,
            _ => {}
        }
        Ok(())
    }
}

/// SplitMix64: the benchmark's own generator, so that a change to the
/// vendored `rand` stand-in cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct members of `from`, ascending.
    fn choose(&mut self, from: &[u32], k: usize) -> ElementSet {
        let mut picked = from.to_vec();
        for i in 0..k {
            let j = i + self.below(picked.len() - i);
            picked.swap(i, j);
        }
        picked.truncate(k);
        normalize(picked)
    }
}

/// The served checkpoint, loaded in-process with `persist::load_json`: the
/// reference every wire answer must equal bit for bit.
pub enum Oracle {
    Card(LearnedCardinality),
    Bloom(LearnedBloom),
    Index(IndexStructure),
}

impl Oracle {
    pub fn load(kind: Kind, root: &Path) -> Result<(Oracle, Arc<SetCollection>), String> {
        let dir = root.join(kind.tenants()[0]);
        let err = |e: setlearn::persist::PersistError| e.to_string();
        let sets: Arc<SetCollection> =
            Arc::new(load_json(&dir.join(COLLECTION_SETS)).map_err(err)?);
        let model = dir.join(COLLECTION_MODEL);
        let oracle = match kind.task() {
            WireTask::Cardinality => Oracle::Card(load_json(&model).map_err(err)?),
            WireTask::Bloom => Oracle::Bloom(load_json(&model).map_err(err)?),
            WireTask::Index => {
                let index: LearnedSetIndex = load_json(&model).map_err(err)?;
                Oracle::Index(IndexStructure {
                    index,
                    collection: Arc::clone(&sets),
                })
            }
        };
        Ok((oracle, sets))
    }

    /// `query_batch`, as the server's worker calls it.
    pub fn answer(&self, queries: &[ElementSet]) -> Vec<QueryResponse> {
        match self {
            Oracle::Card(s) => s.query_batch(queries).into_iter().map(Into::into).collect(),
            Oracle::Bloom(s) => s.query_batch(queries).into_iter().map(Into::into).collect(),
            Oracle::Index(s) => s.query_batch(queries).into_iter().map(Into::into).collect(),
        }
    }

    pub fn kernel(&self) -> &FrozenModel {
        match self {
            Oracle::Card(s) => s.kernel(),
            Oracle::Bloom(s) => s.kernel(),
            Oracle::Index(s) => s.index.kernel(),
        }
    }

    pub fn model(&self) -> &setlearn::DeepSets {
        match self {
            Oracle::Card(s) => s.model(),
            Oracle::Bloom(s) => s.model(),
            Oracle::Index(s) => s.index.model(),
        }
    }
}

/// One step of a connection's schedule.
#[derive(Debug, Clone)]
pub enum Op {
    Read {
        /// Index into [`Kind::tenants`].
        tenant: usize,
        queries: Vec<QueryRequest>,
        /// The oracle's answer per query; `None` where that answer itself
        /// breaks one of the paper's invariants, which fails the op whatever
        /// the wire says.
        expect: Vec<Option<QueryResponse>>,
    },
    Write {
        delete: bool,
        set: Vec<u32>,
    },
}

/// Model quality on the generated queries; deterministic for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Median q-error against `SetCollection::cardinality` (cardinality).
    pub qerr_p50: f64,
    /// False-positive rate on the sampled negatives (bloom).
    pub fpr: f64,
    /// Present queries not answered with the exact first match (index).
    pub index_miss_rate: f64,
}

pub struct Plan {
    pub kind: Kind,
    /// Per connection: a cyclic schedule (window workloads) or the whole
    /// script (`mixed_rw`).
    pub conns: Vec<Vec<Op>>,
    pub quality: Quality,
    /// The distinct queries behind the schedules, for the in-process probes.
    pub pool: Vec<ElementSet>,
    /// `mixed_rw`: a set no script inserts, for the read-your-writes check.
    pub fresh: Vec<u32>,
}

/// Bit equality: `==` on `f64` would accept `-0.0` for `0.0`.
pub fn same_answer(a: &QueryResponse, b: &QueryResponse) -> bool {
    let value = match (a.value, b.value) {
        (QueryValue::Cardinality(x), QueryValue::Cardinality(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    };
    value && a.fallback == b.fallback && a.bound_miss == b.bound_miss
}

fn requests(queries: &[&ElementSet]) -> Vec<QueryRequest> {
    queries
        .iter()
        .map(|q| QueryRequest::new(q.to_vec()))
        .collect()
}

/// A random subset of a random stored set, `min..=max` elements, accepted by
/// `keep`. Terminates because every collection holds sets of `min` or more.
fn stored_subset(
    rng: &mut Rng,
    sets: &SetCollection,
    min: usize,
    max: usize,
    keep: impl Fn(&[u32]) -> bool,
) -> ElementSet {
    loop {
        let set = sets.get(rng.below(sets.len()));
        if set.len() < min {
            continue;
        }
        let k = min + rng.below(max.min(set.len()) - min + 1);
        let q = rng.choose(set, k);
        if keep(&q) {
            return q;
        }
    }
}

fn q_error(estimate: f64, exact: u64) -> f64 {
    let (e, x) = (estimate.max(1.0), (exact as f64).max(1.0));
    (e / x).max(x / e)
}

fn median_q_error(pool: &[ElementSet], answers: &[QueryResponse], sets: &SetCollection) -> f64 {
    let errors: Vec<f64> = pool
        .iter()
        .zip(answers)
        .map(|(q, a)| match a.value {
            QueryValue::Cardinality(v) => q_error(v, sets.cardinality(q)),
            _ => f64::INFINITY,
        })
        .collect();
    crate::stats::median(&errors)
}

impl Plan {
    /// Generates the workload's inputs from `seed` and answers them with the
    /// oracle. `script_frames` is the per-connection script length
    /// (`mixed_rw` only).
    pub fn generate(
        kind: Kind,
        seed: u64,
        oracle: &Oracle,
        sets: &SetCollection,
        script_frames: usize,
    ) -> Plan {
        let mut rng = Rng::new(seed ^ 0x5e7_1ea4);
        // Pool entry i belongs to class i % classes, and slot j of a frame
        // draws from class j % classes (see `cyclic`): every frame holds the
        // same mix of work whatever the seed, so seeds vary the data and not
        // the amount of work per frame.
        match kind {
            Kind::CardKernel | Kind::CardKernelQ8 => {
                // Classes are the query sizes 2..=8.
                let classes = 7;
                let pool: Vec<ElementSet> = (0..POOL)
                    .map(|i| {
                        stored_subset(&mut rng, sets, 2 + i % classes, 2 + i % classes, |_| true)
                    })
                    .collect();
                let answers = oracle.answer(&pool);
                let expect = answers
                    .iter()
                    .map(cardinality_invariant)
                    .collect::<Vec<_>>();
                let quality = Quality {
                    qerr_p50: median_q_error(&pool, &answers, sets),
                    ..Quality::default()
                };
                let conns = cyclic(kind, &mut rng, &pool, &expect, classes);
                Plan {
                    kind,
                    conns,
                    quality,
                    pool,
                    fresh: Vec::new(),
                }
            }
            Kind::BloomWire => {
                let vocab = sets.num_elements() as usize;
                // Members are keys the filter was built over: the guarantee
                // of no false negative is for those, not for every subset of
                // a stored set. `train --task bloom --samples N` draws them
                // with `positive_queries` under the config's default seed.
                let keys = setlearn_data::workload::positive_queries(
                    sets,
                    BLOOM_SAMPLES,
                    BloomConfig::new(oracle.model().config().clone()).seed,
                );
                // Even entries are members, odd ones sampled negatives.
                let member = |i: usize| i.is_multiple_of(2);
                let pool: Vec<ElementSet> = (0..POOL)
                    .map(|i| loop {
                        if member(i) {
                            break keys[rng.below(keys.len())].clone();
                        }
                        let k = 2 + rng.below(3);
                        let q = normalize((0..k).map(|_| rng.below(vocab) as u32).collect());
                        if !sets.contains_subset(&q) {
                            break q;
                        }
                    })
                    .collect();
                let answers = oracle.answer(&pool);
                let is_true = |a: &QueryResponse| a.value == QueryValue::Membership(true);
                // No false negative: a member the oracle rejects fails.
                let expect: Vec<Option<QueryResponse>> = answers
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (!member(i) || is_true(a)).then_some(*a))
                    .collect();
                let false_positives = answers
                    .iter()
                    .enumerate()
                    .filter(|(i, a)| !member(*i) && is_true(a))
                    .count();
                let quality = Quality {
                    fpr: false_positives as f64 / (POOL / 2) as f64,
                    ..Quality::default()
                };
                let conns = cyclic(kind, &mut rng, &pool, &expect, 2);
                Plan {
                    kind,
                    conns,
                    quality,
                    pool,
                    fresh: Vec::new(),
                }
            }
            Kind::IndexScan => {
                let vocab = sets.num_elements() as usize;
                // One entry in ten is an absent pair, which exhausts its scan
                // window; the rest are 1- and 2-element subsets of stored sets.
                let classes = 10;
                let present = |i: usize| i % classes != classes - 1;
                let pool: Vec<ElementSet> = (0..POOL)
                    .map(|i| loop {
                        if present(i) {
                            break stored_subset(&mut rng, sets, 1 + i % 2, 1 + i % 2, |_| true);
                        }
                        let q = normalize(vec![rng.below(vocab) as u32, rng.below(vocab) as u32]);
                        if q.len() == 2 && !sets.contains_subset(&q) {
                            break q;
                        }
                    })
                    .collect();
                let answers = oracle.answer(&pool);
                let (mut asked, mut misses) = (0usize, 0usize);
                let expect: Vec<Option<QueryResponse>> = pool
                    .iter()
                    .zip(&answers)
                    .enumerate()
                    .map(|(i, (q, a))| {
                        // A returned position must hold the query and be the
                        // first that does; an absent query must get none.
                        let exact = sets.first_position(q).map(|p| p as u64);
                        let ok = a.value == QueryValue::Position(exact);
                        if present(i) {
                            asked += 1;
                            misses += usize::from(!ok);
                        }
                        ok.then_some(*a)
                    })
                    .collect();
                let quality = Quality {
                    index_miss_rate: misses as f64 / asked as f64,
                    ..Quality::default()
                };
                let conns = cyclic(kind, &mut rng, &pool, &expect, classes);
                Plan {
                    kind,
                    conns,
                    quality,
                    pool,
                    fresh: Vec::new(),
                }
            }
            Kind::MixedRw => mixed_rw(&mut rng, oracle, sets, script_frames),
        }
    }
}

/// Cardinality invariant: finite and not negative.
fn cardinality_invariant(a: &QueryResponse) -> Option<QueryResponse> {
    match a.value {
        QueryValue::Cardinality(v) if v.is_finite() && v >= 0.0 => Some(*a),
        _ => None,
    }
}

/// Per connection, `SCHEDULE` frames drawn from the pool, slot `j` of frame
/// `f` from class `(f + j) % classes`; `bloom_wire` rotates its four tenants
/// frame by frame, offset per connection.
fn cyclic(
    kind: Kind,
    rng: &mut Rng,
    pool: &[ElementSet],
    expect: &[Option<QueryResponse>],
    classes: usize,
) -> Vec<Vec<Op>> {
    let tenants = kind.tenants().len();
    let per_class = pool.len() / classes;
    (0..CONNECTIONS)
        .map(|conn| {
            (0..SCHEDULE)
                .map(|frame| {
                    let picks: Vec<usize> = (0..kind.frame_queries())
                        .map(|slot| rng.below(per_class) * classes + (frame + slot) % classes)
                        .collect();
                    Op::Read {
                        tenant: (frame + conn) % tenants,
                        queries: requests(&picks.iter().map(|&i| &pool[i]).collect::<Vec<_>>()),
                        expect: picks.iter().map(|&i| expect[i]).collect(),
                    }
                })
                .collect()
        })
        .collect()
}

/// The model's answer merged with an exact overlay delta, as
/// `MutableCollection::query_batch` merges it.
fn merged(model: QueryOutcome<f64>, delta: f64) -> Option<QueryResponse> {
    let outcome =
        aggregate_cardinality(vec![model, QueryOutcome::clean(delta)]).map(|v| v.max(0.0));
    cardinality_invariant(&outcome.into())
}

/// `mixed_rw`: per connection, every tenth frame is one write — an insert of
/// a fresh 3-element set, or, every fourth write, a delete of the set
/// inserted five writes earlier — and the rest are 16-query reads. Three
/// inserts to one delete, because the overlay scan skips deleted rows: with
/// the two alternating one to one, live rows stay at three and reads never
/// slow down, which is the effect this workload exists to show.
///
/// Inserted sets are drawn from ids reserved per connection, and every pool
/// query holds an id outside both reserves, so no write changes a pool
/// query's answer and each connection alone decides the answers for its own
/// sets. That makes every read checkable although two connections write
/// concurrently: fifteen pool queries (overlay delta 0) and one query for a
/// set this connection inserted (+1 while live, +0 once deleted).
fn mixed_rw(rng: &mut Rng, oracle: &Oracle, sets: &SetCollection, frames: usize) -> Plan {
    let Oracle::Card(est) = oracle else {
        unreachable!("mixed_rw serves cardinality")
    };
    let vocab = sets.num_elements();
    let reserved_from = vocab - RESERVED * CONNECTIONS as u32;
    let pool: Vec<ElementSet> = (0..POOL)
        .map(|_| stored_subset(rng, sets, 2, 3, |q| q.iter().any(|&id| id < reserved_from)))
        .collect();
    let pool_model = est.query_batch(&pool);
    let answers: Vec<QueryResponse> = pool_model.iter().map(|&o| o.into()).collect();
    let expect: Vec<Option<QueryResponse>> = pool_model.iter().map(|&o| merged(o, 0.0)).collect();
    let quality = Quality {
        qerr_p50: median_q_error(&pool, &answers, sets),
        ..Quality::default()
    };

    let mut fresh = Vec::new();
    let conns = (0..CONNECTIONS)
        .map(|conn| {
            let lo = reserved_from + RESERVED * conn as u32;
            let ids: Vec<u32> = (lo..lo + RESERVED).collect();
            // Every 3-subset of the reserve, shuffled: fresh sets never repeat.
            let mut own: Vec<ElementSet> = Vec::new();
            for a in 0..ids.len() {
                for b in a + 1..ids.len() {
                    for c in b + 1..ids.len() {
                        own.push(normalize(vec![ids[a], ids[b], ids[c]]));
                    }
                }
            }
            for i in (1..own.len()).rev() {
                own.swap(i, rng.below(i + 1));
            }
            let inserts_needed = frames / 10 + 1;
            assert!(
                own.len() > inserts_needed,
                "script longer than the reserve allows"
            );
            if conn == 0 {
                fresh = own[own.len() - 1].to_vec();
            }
            own.truncate(inserts_needed);
            let own_model = est.query_batch(&own);

            let mut ops = Vec::with_capacity(frames);
            let mut live = vec![false; own.len()];
            // Per write, the index of the set it inserted (None for deletes).
            let mut written: Vec<Option<usize>> = Vec::new();
            let mut inserted = 0usize;
            for frame in 0..frames {
                if frame % 10 == 9 {
                    let w = written.len();
                    // Write w-5 is no multiple-of-four-minus-one, hence an insert.
                    let victim = if w % 4 == 3 && w >= 5 {
                        written[w - 5]
                    } else {
                        None
                    };
                    ops.push(match victim {
                        Some(j) => {
                            live[j] = false;
                            written.push(None);
                            Op::Write {
                                delete: true,
                                set: own[j].to_vec(),
                            }
                        }
                        None => {
                            live[inserted] = true;
                            written.push(Some(inserted));
                            inserted += 1;
                            Op::Write {
                                delete: false,
                                set: own[inserted - 1].to_vec(),
                            }
                        }
                    });
                    continue;
                }
                let reads = Kind::MixedRw.frame_queries();
                let mut picks: Vec<&ElementSet> = Vec::with_capacity(reads);
                let mut want = Vec::with_capacity(reads);
                if inserted > 0 {
                    let j = rng.below(inserted);
                    picks.push(&own[j]);
                    want.push(merged(own_model[j], if live[j] { 1.0 } else { 0.0 }));
                }
                while picks.len() < reads {
                    let i = rng.below(pool.len());
                    picks.push(&pool[i]);
                    want.push(expect[i]);
                }
                ops.push(Op::Read {
                    tenant: 0,
                    queries: requests(&picks),
                    expect: want,
                });
            }
            ops
        })
        .collect();
    Plan {
        kind: Kind::MixedRw,
        conns,
        quality,
        pool,
        fresh,
    }
}
