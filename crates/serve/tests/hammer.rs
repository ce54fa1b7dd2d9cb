//! Concurrent-correctness hammer tests: compactions installing retrained
//! models while reader threads query, and overload behavior under sustained
//! pressure.

use setlearn::mutable::{MutableCollection, OverlayAnswer};
use setlearn::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use setlearn_data::SetCollection;
use setlearn_serve::{ServeConfig, ServeError, ServeRuntime, ServeTask, StructureTask};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact-count cardinality "model": retraining is re-freezing the merged
/// collection, so every answer names the state it was read from.
struct ExactCard(Arc<SetCollection>);

impl LearnedSetStructure for ExactCard {
    type Output = f64;
    const NAME: &'static str = "cardinality";
    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
        let count = |q: &Q| QueryOutcome::clean(self.0.cardinality(q.as_ref()) as f64);
        queries.iter().map(count).collect()
    }
}

impl Fold for ExactCard {
    fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
        acc.map(|v| (v + part.value).max(0.0))
    }
    fn overlay(&self, d: &OverlayAnswer) -> QueryOutcome<f64> {
        QueryOutcome::clean(d.cardinality_delta as f64)
    }
}

/// The one model swap, hammered: readers query a collection served by a
/// 2-worker runtime while a writer, for ≥100 rounds, inserts a set X,
/// compacts it into a retrained base, deletes X and compacts again. Every
/// state the collection passes through counts X zero or one times, so each
/// answer must be one of the two exact counts; an install that paired the
/// new structure with the old overlay (or the reverse) would count X twice
/// or minus once. No request is lost and none panics.
#[test]
fn compaction_swaps_race_readers_and_every_answer_is_a_real_state() {
    const ROUNDS: usize = 120;
    const READERS: usize = 3;

    let dir =
        std::env::temp_dir().join(format!("setlearn-hammer-compaction-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let x: Vec<u32> = vec![1, 2, 3];
    // X sits in the base too, so each of its subsets counts ≥ 1 and an
    // answer one below the "without" state is still a visible count.
    let raw = vec![vec![0, 1], vec![1, 2, 3], vec![2, 3, 4], vec![1, 3], vec![0, 4, 5]];
    let base = Arc::new(SetCollection::new(raw.clone(), 6));
    let with_x = SetCollection::new(raw.into_iter().chain([x.clone()]).collect(), 6);
    // Every nonempty subset of X, plus a query X's elements miss.
    let queries: Vec<Vec<u32>> =
        vec![vec![1], vec![2], vec![3], vec![1, 2], vec![1, 3], vec![2, 3], x.clone(), vec![4, 5]];
    let allowed: Vec<[f64; 2]> = queries
        .iter()
        .map(|q| [base.cardinality(q) as f64, with_x.cardinality(q) as f64])
        .collect();

    let (collection, _) =
        MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
    let collection = Arc::new(collection);
    let runtime = ServeRuntime::start(
        StructureTask::new(Arc::clone(&collection)),
        ServeConfig { threads: 2, max_batch: 16, queue_capacity: 4096, ..ServeConfig::default() },
    );
    let done = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let insert = || {
        collection.insert(&x).unwrap();
    };
    let delete = || {
        collection.delete(&x).unwrap();
    };
    let compact = || {
        let snapshot = collection.begin_compaction().unwrap().expect("a pending delta");
        let rebuilt = ExactCard(Arc::new(snapshot.merged.clone()));
        collection.complete_compaction(rebuilt, snapshot).unwrap();
    };

    let seen = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = [false; 2];
                    while !done.load(Ordering::Relaxed) {
                        for (q, allowed) in queries.iter().zip(&allowed) {
                            let answer = loop {
                                match runtime.call(q.clone().into_boxed_slice()) {
                                    Ok(answer) => break answer,
                                    Err(ServeError::Overloaded) => std::thread::yield_now(),
                                    Err(e) => panic!("query {q:?}: {e}"),
                                }
                            };
                            let state = allowed.iter().position(|&v| v == answer.value);
                            let Some(state) = state else {
                                panic!(
                                    "query {q:?} answered {} — neither without X ({}) nor with \
                                     X ({}): a torn install",
                                    answer.value, allowed[0], allowed[1]
                                )
                            };
                            if allowed[0] != allowed[1] {
                                seen[state] = true;
                            }
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    seen
                })
            })
            .collect();

        // Every state the writer leaves is read before the next replaces
        // it; a reader that stopped (it panicked) ends the rounds early.
        let settle = || {
            let from = answered.load(Ordering::Relaxed);
            while answered.load(Ordering::Relaxed) < from + (READERS * queries.len()) as u64 {
                if readers.iter().any(|r| r.is_finished()) {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        };
        'rounds: for _ in 0..ROUNDS {
            for step in [&insert as &dyn Fn(), &compact, &delete, &compact] {
                step();
                if !settle() {
                    break 'rounds;
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("reader panicked")).collect::<Vec<_>>()
    });

    assert!(
        seen.iter().any(|s| s[0]) && seen.iter().any(|s| s[1]),
        "the readers never saw both states: {seen:?}"
    );
    assert_eq!(collection.base().len(), 5, "X was compacted out again");
    let report = runtime.shutdown();
    assert_eq!(report.completed, report.submitted, "admitted ≠ answered");
    assert_eq!(report.completed, answered.load(Ordering::Relaxed), "requests lost");
    assert_eq!(report.panicked_batches, 0, "a batch panicked mid-install");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deliberately slow task so the queue backs up.
struct Sluggish;
impl ServeTask for Sluggish {
    type Request = u64;
    type Response = u64;
    const NAME: &'static str = "hammer_sluggish";
    fn serve_batch(&self, requests: &[u64]) -> Vec<u64> {
        std::thread::sleep(Duration::from_millis(2));
        requests.to_vec()
    }
}

/// Overload: a tiny queue over a slow task must shed with the typed error,
/// count every shed, and keep buffered memory bounded by the capacity.
#[test]
fn overload_sheds_are_typed_counted_and_bounded() {
    const CAPACITY: usize = 8;
    let runtime = ServeRuntime::start(
        Sluggish,
        ServeConfig {
            threads: 1,
            max_batch: 2,
            queue_capacity: CAPACITY,
            ..ServeConfig::default()
        },
    );

    let mut tickets = Vec::new();
    let mut sheds = 0u64;
    let mut max_depth = 0usize;
    let deadline = Instant::now() + Duration::from_millis(200);
    let mut i = 0u64;
    while Instant::now() < deadline {
        match runtime.submit(i) {
            Ok(ticket) => tickets.push((i, ticket)),
            Err(ServeError::Overloaded) => sheds += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
        max_depth = max_depth.max(runtime.queue_depth());
        i += 1;
    }
    assert!(sheds > 0, "the queue never overflowed — load too light");
    assert!(
        max_depth <= CAPACITY,
        "queue depth {max_depth} exceeded capacity {CAPACITY}: memory unbounded"
    );
    assert_eq!(runtime.stats().shed(), sheds, "shed counter diverged from typed errors");

    // Every admitted request is still answered correctly on drain.
    let report = runtime.shutdown();
    for (request, ticket) in tickets {
        assert_eq!(ticket.wait().expect("admitted request dropped"), request);
    }
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.shed, sheds);
    assert_eq!(report.submitted + report.shed, i, "admission accounting leaked requests");
}
