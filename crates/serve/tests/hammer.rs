//! Concurrent-correctness hammer tests: writer swaps racing reader threads,
//! and overload behavior under sustained pressure.

use setlearn_serve::{
    HotSwap, ServeConfig, ServeError, ServeRuntime, ServeTask,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A snapshot whose payload is derived from its version: any torn or
/// half-published read shows up as a checksum mismatch.
struct VersionedModel {
    version: u64,
    payload: Vec<u64>,
    checksum: u64,
}

fn checksum(payload: &[u64]) -> u64 {
    payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| {
        (acc ^ v).wrapping_mul(0x1000_0000_01b3)
    })
}

impl VersionedModel {
    fn new(version: u64) -> Self {
        // A non-trivial payload so a torn publish would have many chances to
        // expose a mixed state.
        let payload: Vec<u64> = (0..1024).map(|i| version.wrapping_mul(1_000_003) + i).collect();
        let checksum = checksum(&payload);
        VersionedModel { version, payload, checksum }
    }

    fn verify(&self) {
        assert_eq!(
            checksum(&self.payload),
            self.checksum,
            "torn snapshot at version {}",
            self.version
        );
        assert_eq!(self.payload[0], self.version.wrapping_mul(1_000_003));
    }
}

impl ServeTask for VersionedModel {
    type Request = u64;
    type Response = (u64, u64);
    const NAME: &'static str = "hammer_versioned";

    fn serve_batch(&self, requests: &[u64]) -> Vec<(u64, u64)> {
        // Recompute the checksum on every batch: a torn snapshot fails here,
        // inside the worker, as well as at the caller.
        self.verify();
        // The oracle function is version-independent; the version tag rides
        // along so callers can check swap visibility.
        requests.iter().map(|&r| (oracle(r), self.version)).collect()
    }
}

/// Version-independent request function — the sequential oracle.
fn oracle(r: u64) -> u64 {
    r.wrapping_mul(2654435761).rotate_left(17) ^ 0xdead_beef
}

/// N writer swaps race M direct readers on the HotSwap slot itself: every
/// observed snapshot must be fully consistent and versions must never move
/// backwards for any single reader.
#[test]
fn hotswap_hammer_direct_readers() {
    const SWAPS: u64 = 150;
    const READERS: usize = 4;

    let swap = Arc::new(HotSwap::new(VersionedModel::new(0)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let swap = Arc::clone(&swap);
            let stop = Arc::clone(&stop);
            readers.push(s.spawn(move || {
                let mut cached = swap.cache();
                let mut last_version = 0u64;
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = swap.refresh(&mut cached);
                    snapshot.verify();
                    assert!(
                        snapshot.version >= last_version,
                        "version went backwards: {} -> {}",
                        last_version,
                        snapshot.version
                    );
                    last_version = snapshot.version;
                    observed += 1;
                }
                observed
            }));
        }

        // Writer: publish SWAPS fully-built models as fast as possible.
        for v in 1..=SWAPS {
            swap.publish(VersionedModel::new(v));
            if v % 16 == 0 {
                // Brief yield so readers interleave on small machines.
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);

        for reader in readers {
            let observed = reader.join().expect("reader panicked (torn snapshot?)");
            assert!(observed > 0, "reader never observed a snapshot");
        }
    });
    assert_eq!(swap.swap_count(), SWAPS);
    assert_eq!(swap.load().version, SWAPS);
}

/// ≥100 swaps race a live runtime under concurrent request load: no request
/// is lost or torn, every answer matches the sequential oracle, and the
/// version tags are drawn from published versions only.
#[test]
fn runtime_hammer_swaps_under_load() {
    const SWAPS: u64 = 120;
    const SUBMITTERS: usize = 3;
    const REQUESTS_PER_SUBMITTER: u64 = 400;

    let runtime = Arc::new(ServeRuntime::start(
        VersionedModel::new(0),
        ServeConfig {
            threads: 2,
            max_batch: 16,
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
    ));
    let answered = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let mut submitters = Vec::new();
        for t in 0..SUBMITTERS as u64 {
            let runtime = Arc::clone(&runtime);
            let answered = Arc::clone(&answered);
            submitters.push(s.spawn(move || {
                let mut max_seen_version = 0u64;
                for i in 0..REQUESTS_PER_SUBMITTER {
                    let request = t * REQUESTS_PER_SUBMITTER + i;
                    // The queue is sized generously, but a 1-core scheduler
                    // can still starve workers: retry sheds, they are the
                    // documented client contract.
                    let answer = loop {
                        match runtime.call(request) {
                            Ok(answer) => break answer,
                            Err(ServeError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    };
                    let (value, version) = answer;
                    assert_eq!(value, oracle(request), "answer diverged from the oracle");
                    // Versions are not monotone per submitter (two workers
                    // can momentarily serve different snapshots); they must
                    // only ever come from actually-published models —
                    // per-reader monotonicity is the direct-reader hammer's
                    // job.
                    assert!(version <= SWAPS, "answer from a never-published version");
                    max_seen_version = max_seen_version.max(version);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                max_seen_version
            }));
        }

        // Writer thread: publish swaps while requests are in flight.
        let writer = {
            let runtime = Arc::clone(&runtime);
            let answered = Arc::clone(&answered);
            s.spawn(move || {
                for v in 1..=SWAPS {
                    runtime.swap(VersionedModel::new(v));
                    // Pace swaps against progress so they overlap the load.
                    while answered.load(Ordering::Relaxed)
                        < v * (SUBMITTERS as u64 * REQUESTS_PER_SUBMITTER) / (SWAPS + 1)
                    {
                        std::thread::yield_now();
                    }
                }
            })
        };

        for submitter in submitters {
            submitter.join().expect("submitter panicked");
        }
        writer.join().expect("writer panicked");
    });

    let total = SUBMITTERS as u64 * REQUESTS_PER_SUBMITTER;
    assert_eq!(answered.load(Ordering::Relaxed), total, "requests lost");
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("runtime still shared"));
    let report = runtime.shutdown();
    assert_eq!(report.swaps, SWAPS);
    assert_eq!(report.completed, report.submitted, "admitted ≠ answered");
    assert!(report.completed >= total, "every oracle-checked request was admitted");
    assert_eq!(report.panicked_batches, 0, "no torn snapshot reached serve_batch");
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
