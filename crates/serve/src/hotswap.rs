//! Zero-downtime model hot-swap.
//!
//! [`HotSwap<T>`] holds the currently published model behind an
//! atomically-bumped version counter. Writers (the compaction daemon) serialize
//! through a mutex and publish a fully-built replacement; readers (serve
//! workers) keep a [`Cached`] snapshot and, on every batch, check a single
//! atomic version load — only when the version moved do they touch the mutex
//! to refresh their `Arc`. In steady state (no swap in flight) the reader
//! hot path is one `Acquire` load and an equality compare; there is no
//! per-read reference-count traffic on a shared counter and no torn read is
//! possible because the `Arc` is cloned under the same mutex the writer
//! published it under.
//!
//! ## Memory-ordering rationale
//!
//! `publish` installs the new `Arc` while holding the writer mutex and only
//! then bumps `version` with `Release`. A reader that observes the bumped
//! version with `Acquire` therefore happens-after the install; when it takes
//! the mutex to clone the slot, the mutex's own acquire/release pairing
//! guarantees it sees the fully-constructed `T` (the model was built
//! *before* `publish` was called, so its writes are ordered before the
//! `Release` bump as well). A reader that observes a *stale* version simply
//! keeps serving its previous snapshot — old answers, never torn ones. The
//! old model is freed when the last in-flight batch drops its `Arc` clone:
//! swaps never invalidate memory a reader is still using.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Atomically published, mutex-written slot for the live model.
pub struct HotSwap<T> {
    /// Bumped (Release) after every publish; readers poll it (Acquire).
    version: AtomicU64,
    /// The live snapshot. Writers replace it; readers clone it (both under
    /// the lock, held only for the pointer copy + refcount bump).
    slot: Mutex<Arc<T>>,
    /// Total publishes since construction.
    swaps: AtomicU64,
}

impl<T> HotSwap<T> {
    /// Publishes `initial` as version 0.
    pub fn new(initial: T) -> Self {
        HotSwap {
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
            swaps: AtomicU64::new(0),
        }
    }

    /// Atomically replaces the published value; readers pick the new
    /// snapshot up on their next [`HotSwap::refresh`]. Returns the new
    /// version number. In-flight readers of the old snapshot are untouched.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// Like [`HotSwap::publish`] for an already-shared value.
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = value;
        // Bump under the lock, after the install: a reader seeing the new
        // version and then locking the slot must find the new Arc.
        let v = self.version.fetch_add(1, Ordering::Release) + 1;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        drop(slot);
        v
    }

    /// Current version (0 before the first swap).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Total publishes since construction.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Clones the current snapshot (slow path: takes the mutex). Use
    /// [`HotSwap::cache`] + [`HotSwap::refresh`] on hot paths.
    pub fn load(&self) -> Arc<T> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Captures a reader-side cache of the current snapshot.
    pub fn cache(&self) -> Cached<T> {
        // Read the version *before* cloning the slot: if a publish lands in
        // between, the cache pairs the new Arc with the old version and the
        // next refresh harmlessly re-clones.
        let version = self.version();
        let snapshot = self.load();
        Cached { version, snapshot }
    }

    /// Refreshes `cached` if a newer version was published; returns the
    /// up-to-date snapshot. The fast path (version unchanged) is a single
    /// atomic load.
    pub fn refresh<'a>(&self, cached: &'a mut Cached<T>) -> &'a Arc<T> {
        let v = self.version();
        if v != cached.version {
            cached.version = v;
            cached.snapshot = self.load();
        }
        &cached.snapshot
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for HotSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotSwap")
            .field("version", &self.version())
            .field("swaps", &self.swap_count())
            .finish_non_exhaustive()
    }
}

/// A reader's locally-cached snapshot (one per worker thread).
pub struct Cached<T> {
    version: u64,
    snapshot: Arc<T>,
}

impl<T> Cached<T> {
    /// The version this cache last synced to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The cached snapshot (possibly stale; call [`HotSwap::refresh`] first
    /// on paths that must see recent publishes).
    pub fn snapshot(&self) -> &Arc<T> {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_version_and_readers_catch_up() {
        let swap = HotSwap::new(10u64);
        let mut cached = swap.cache();
        assert_eq!(**swap.refresh(&mut cached), 10);
        assert_eq!(swap.version(), 0);

        assert_eq!(swap.publish(20), 1);
        assert_eq!(**swap.refresh(&mut cached), 20);
        assert_eq!(cached.version(), 1);
        assert_eq!(swap.swap_count(), 1);
    }

    #[test]
    fn stale_readers_keep_their_snapshot_alive() {
        let swap = HotSwap::new(vec![1u8; 64]);
        let cached = swap.cache();
        swap.publish(vec![2u8; 64]);
        // The stale cache still sees the old value, fully intact.
        assert!(cached.snapshot().iter().all(|&b| b == 1));
        assert_eq!(swap.load()[0], 2);
    }

    #[test]
    fn refresh_is_idempotent_without_publishes() {
        let swap = HotSwap::new(5i32);
        let mut cached = swap.cache();
        let a = Arc::as_ptr(swap.refresh(&mut cached));
        let b = Arc::as_ptr(swap.refresh(&mut cached));
        assert_eq!(a, b, "no publish, no re-clone");
    }

    #[test]
    fn concurrent_publishes_serialize() {
        let swap = Arc::new(HotSwap::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                s.spawn(move || {
                    for i in 0..50 {
                        swap.publish(i);
                    }
                });
            }
        });
        assert_eq!(swap.version(), 200);
        assert_eq!(swap.swap_count(), 200);
    }
}
