//! Background WAL compaction: a daemon thread that watches a
//! [`MutableCollection`]'s pending delta and, once its pending-op count
//! reaches [`CompactorConfig::max_delta_ops`] — the one retrain trigger —
//! retrains on the merged collection, folds the delta into a new
//! checkpoint, and installs the retrained structure with
//! [`MutableCollection::complete_compaction`] — the one swap: it replaces
//! structure, base and overlay under one write lock, and every query batch
//! reads them under one read lock, so the runtime serving the collection
//! needs no swap of its own. The scheduler is interruptible condvar-timed
//! polling behind a stop-on-drop handle.
//!
//! The daemon holds no lock while retraining: mutations and queries keep
//! flowing, land above the compaction watermark, and survive the swap in
//! the overlay (see [`MutableCollection::begin_compaction`]).

use crate::telemetry::RuntimeTele;
use setlearn::mutable::MutableCollection;
use setlearn::tasks::Fold;
use setlearn_data::SetCollection;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Compaction-daemon tuning.
#[derive(Debug, Clone)]
pub struct CompactorConfig {
    /// How often the pending delta is checked against the threshold.
    pub poll_interval: Duration,
    /// Compact once this many WAL records are pending.
    pub max_delta_ops: usize,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            poll_interval: Duration::from_millis(500),
            max_delta_ops: 1024,
        }
    }
}

/// Handle to a running compaction daemon; stop it with
/// [`CompactorHandle::stop`] (dropping also stops it).
pub struct CompactorHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    compactions: Arc<AtomicU64>,
    compacting: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl CompactorHandle {
    /// Number of compactions the daemon has completed and installed.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Whether a compaction (snapshot → retrain → fold → install) is in
    /// flight right now. The registry's eviction pass checks this: a
    /// collection mid-compaction is never evicted.
    pub fn is_compacting(&self) -> bool {
        self.compacting.load(Ordering::SeqCst)
    }

    /// Signals the daemon to exit and joins it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Spawns the compaction daemon for the collection `name` (the swap counter
/// it bumps carries a `collection` label).
///
/// Every `config.poll_interval` the daemon compares
/// [`MutableCollection::pending_ops`] against
/// `config.max_delta_ops`; once it is reached it snapshots the merged
/// collection, calls `rebuild(&merged)` (which must retrain **and durably
/// checkpoint** the new model+collection — the WAL watermark only advances
/// afterwards, so a crash mid-retrain replays the full delta against the
/// old checkpoint), folds the delta via
/// [`MutableCollection::complete_compaction`], whose install the next query
/// batch reads. A `None` from `rebuild` (declined or failed) leaves the
/// delta pending and the old model serving; the next poll retries.
pub fn spawn_compactor_named<S, F>(
    collection: Arc<MutableCollection<S>>,
    mut rebuild: F,
    config: CompactorConfig,
    name: &str,
) -> CompactorHandle
where
    S: Fold + Send + Sync + 'static,
    S::Output: Send + 'static,
    F: FnMut(&SetCollection) -> Option<S> + Send + 'static,
{
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let compactions = Arc::new(AtomicU64::new(0));
    let compacting = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let compactions2 = Arc::clone(&compactions);
    let compacting2 = Arc::clone(&compacting);
    let tele = RuntimeTele::named(S::NAME, name);
    let thread = std::thread::spawn(move || {
        let (lock, cvar) = &*stop2;
        loop {
            {
                let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
                let (guard, _) = cvar
                    .wait_timeout_while(guard, config.poll_interval, |stopped| !*stopped)
                    .unwrap_or_else(|e| e.into_inner());
                if *guard {
                    return;
                }
            }
            let pending = collection.pending_ops();
            if pending == 0 || pending < config.max_delta_ops {
                continue;
            }
            // The in-flight flag pins the collection against registry
            // eviction from snapshot to install; a scope guard would be
            // overkill since every early exit below funnels through one
            // `store(false)`.
            compacting2.store(true, Ordering::SeqCst);
            let installed = (|| {
                let Ok(Some(snapshot)) = collection.begin_compaction() else { return None };
                if snapshot.merged.is_empty() {
                    // Nothing to train on (every row deleted): leave the
                    // delta pending; the structures cannot represent an
                    // empty base.
                    return None;
                }
                let structure = rebuild(&snapshot.merged)?;
                // On an error the watermark did not advance; replay still
                // covers the delta, the retrained model is simply dropped.
                collection.complete_compaction(structure, snapshot).ok()
            })();
            compacting2.store(false, Ordering::SeqCst);
            if installed.is_some() {
                tele.record_swap(compactions2.fetch_add(1, Ordering::Relaxed) + 1);
            }
        }
    });
    CompactorHandle { stop, compactions, compacting, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn::mutable::OverlayAnswer;
    use setlearn::tasks::{LearnedSetStructure, QueryOutcome};
    use std::time::Instant;

    /// Exact-oracle cardinality "model": retraining is just re-freezing the
    /// merged collection.
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

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("setlearn-compact-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn threshold_crossing_compacts_and_installs() {
        let dir = tmp_dir("threshold");
        let base = Arc::new(SetCollection::new(vec![vec![0, 1], vec![1, 2]], 4));
        let (mc, _) =
            MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        let collection = Arc::new(mc);
        let handle = spawn_compactor_named(
            Arc::clone(&collection),
            |merged| Some(ExactCard(Arc::new(SetCollection::new(
                merged.sets().iter().map(|s| s.to_vec()).collect(),
                merged.num_elements(),
            )))),
            CompactorConfig {
                poll_interval: Duration::from_millis(5),
                max_delta_ops: 2,
            },
            "test",
        );
        // One op: below threshold, nothing compacts.
        collection.insert(&[2, 3]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(handle.compactions(), 0);
        assert_eq!(collection.pending_ops(), 1);

        // Second op crosses the threshold.
        collection.insert(&[0, 3]).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || handle.compactions() >= 1),
            "compaction never fired"
        );
        assert!(wait_until(Duration::from_secs(5), || {
            collection.pending_ops() == 0
        }));
        assert_eq!(collection.base().len(), 4, "delta folded into the base");
        // Answers survive the fold.
        assert_eq!(collection.query(&[3]).value, 2.0);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn declined_rebuild_leaves_the_delta_pending() {
        let dir = tmp_dir("declined");
        let base = Arc::new(SetCollection::new(vec![vec![0, 1]], 4));
        let (mc, _) =
            MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        let collection = Arc::new(mc);
        let handle = spawn_compactor_named(
            Arc::clone(&collection),
            |_| None,
            CompactorConfig {
                poll_interval: Duration::from_millis(5),
                max_delta_ops: 1,
            },
            "test",
        );
        collection.insert(&[1, 2]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(handle.compactions(), 0);
        assert_eq!(collection.pending_ops(), 1, "delta stays pending");
        assert_eq!(collection.query(&[1, 2]).value, 1.0, "overlay still answers");
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_joins_promptly_even_with_a_long_poll_interval() {
        let dir = tmp_dir("stop");
        let base = Arc::new(SetCollection::new(vec![vec![0, 1]], 4));
        let (mc, _) =
            MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        let handle = spawn_compactor_named(
            Arc::new(mc),
            |_| None,
            CompactorConfig { poll_interval: Duration::from_secs(3600), ..Default::default() },
            "test",
        );
        let started = Instant::now();
        handle.stop();
        assert!(started.elapsed() < Duration::from_secs(5), "stop did not block on the poll");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
