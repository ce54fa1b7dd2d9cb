//! Sharded set collections (ROADMAP "Sharded collections").
//!
//! A [`ShardedCollection`] partitions a [`SetCollection`] across N shards by
//! set position — hash (uniform, order-free) or range (contiguous chunks) —
//! so training and serving scale past one resident copy. Routing is
//! pluggable via [`ShardRouter`]; the built-in routers cover the two CLI
//! policies (`--shard-by hash|range`).
//!
//! Queries over set *content* (subset membership, cardinality) cannot be
//! routed to a single shard — any shard may hold a matching set — so the
//! per-shard task models in [`crate::tasks::sharded`] fan a query out to
//! every shard and fold the answers with the task's [`crate::tasks::Fold`]
//! (sum for cardinality, first/last global position for the index, OR for
//! membership). What sharding buys is per-shard
//! builds, per-shard worker pools, and shard-by-shard rolling hot-swap.

use serde::{Deserialize, Serialize};
use setlearn_data::SetCollection;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Partitioning policy for a [`ShardedCollection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardBy {
    /// Mix each set's position through splitmix64 and take it modulo the
    /// shard count: uniform occupancy, no ordering assumptions.
    #[default]
    Hash,
    /// Contiguous position ranges: shard `s` holds positions
    /// `[s·len/N, (s+1)·len/N)`. Preserves collection order inside a shard,
    /// so global positions are shard-local positions plus an offset.
    Range,
}

impl fmt::Display for ShardBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardBy::Hash => "hash",
            ShardBy::Range => "range",
        })
    }
}

impl FromStr for ShardBy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(ShardBy::Hash),
            "range" => Ok(ShardBy::Range),
            other => Err(format!("unknown shard policy '{other}' (expected hash|range)")),
        }
    }
}

/// How a collection is split: shard count plus routing policy. Embedded in
/// persisted sharded models so serving can re-derive the exact partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Routing policy.
    pub by: ShardBy,
}

impl ShardSpec {
    /// A spec with the given shard count and policy.
    pub fn new(shards: usize, by: ShardBy) -> Self {
        ShardSpec { shards, by }
    }

    /// The built-in router implementing this spec's policy.
    pub fn router(&self) -> Box<dyn ShardRouter> {
        match self.by {
            ShardBy::Hash => Box::new(HashRouter),
            ShardBy::Range => Box::new(RangeRouter),
        }
    }
}

/// Pluggable routing: maps a set's global position to its shard.
///
/// Routing is by *position* (the stable set id in the collection's order),
/// not by content — content-addressed queries fan out to every shard
/// regardless, and position routing keeps the partition deterministic and
/// recomputable from `(collection, spec)` alone, so nothing but the spec
/// needs persisting.
pub trait ShardRouter: Send + Sync {
    /// Shard index in `0..num_shards` for the set at `position` out of
    /// `num_sets`.
    fn route(&self, position: usize, num_sets: usize, num_shards: usize) -> usize;
}

/// splitmix64 of the position, modulo the shard count.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardRouter for HashRouter {
    fn route(&self, position: usize, _num_sets: usize, num_shards: usize) -> usize {
        (splitmix64(position as u64) % num_shards as u64) as usize
    }
}

/// Contiguous position chunks of (near-)equal size.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeRouter;

impl ShardRouter for RangeRouter {
    fn route(&self, position: usize, num_sets: usize, num_shards: usize) -> usize {
        debug_assert!(position < num_sets);
        // position·N/len is monotone in position and spans 0..N exactly.
        position * num_shards / num_sets.max(1)
    }
}

/// Typed partition/build failures. Sharded builds return these instead of
/// panicking — an empty shard is an operator-fixable configuration problem
/// (too many shards, or a skewed router), not a programming error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The spec asked for zero shards.
    ZeroShards,
    /// The router left `shard` with no sets (skewed hash or more shards than
    /// sets); per-shard models cannot train on an empty partition.
    EmptyShard {
        /// The shard the router left empty.
        shard: usize,
    },
    /// The router returned a shard index outside `0..num_shards`.
    RouteOutOfRange {
        /// The set position being routed.
        position: usize,
        /// The out-of-range shard the router returned.
        shard: usize,
        /// The configured shard count.
        shards: usize,
    },
    /// A membership workload routed to `shard` contained no positive
    /// queries, so its learned Bloom filter cannot train.
    NoPositives {
        /// The shard whose routed workload had no positives.
        shard: usize,
    },
    /// A sharded structure holds a different number of shards than its
    /// spec names (a truncated or hand-edited checkpoint).
    ShardCount {
        /// The shards the structure holds.
        shards: usize,
        /// The shard count its spec names.
        spec: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "shard count must be >= 1"),
            ShardError::EmptyShard { shard } => write!(
                f,
                "shard {shard} is empty after partitioning; use fewer shards or a range router"
            ),
            ShardError::RouteOutOfRange { position, shard, shards } => write!(
                f,
                "router sent position {position} to shard {shard}, outside 0..{shards}"
            ),
            ShardError::NoPositives { shard } => write!(
                f,
                "no positive membership queries routed to shard {shard}; enlarge the workload or use fewer shards"
            ),
            ShardError::ShardCount { shards, spec } => {
                write!(f, "holds {shards} shards but its spec names {spec}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A [`SetCollection`] partitioned across shards, with shard-local → global
/// position maps so per-shard index answers can be lifted back to the
/// collection's coordinate space.
///
/// The partition is fully determined by `(collection, spec)` — it is
/// recomputed at load time rather than persisted alongside models.
#[derive(Debug, Clone)]
pub struct ShardedCollection {
    spec: ShardSpec,
    shards: Vec<Arc<SetCollection>>,
    /// `globals[s][local]` = the global position of shard `s`'s `local`-th
    /// set, in shard-local order.
    globals: Vec<Arc<Vec<usize>>>,
    total: usize,
}

impl ShardedCollection {
    /// Partitions with the spec's built-in router.
    pub fn partition(collection: &SetCollection, spec: ShardSpec) -> Result<Self, ShardError> {
        Self::partition_with(collection, spec, &*spec.router())
    }

    /// Partitions with a caller-supplied [`ShardRouter`]. Every shard must
    /// end up non-empty; a skewed router over a small collection yields
    /// [`ShardError::EmptyShard`] instead of a downstream training panic.
    pub fn partition_with(
        collection: &SetCollection,
        spec: ShardSpec,
        router: &dyn ShardRouter,
    ) -> Result<Self, ShardError> {
        if spec.shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let n = spec.shards;
        let mut raw: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        let mut globals: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (position, set) in collection.iter() {
            let shard = router.route(position, collection.len(), n);
            if shard >= n {
                return Err(ShardError::RouteOutOfRange { position, shard, shards: n });
            }
            raw[shard].push(set.to_vec());
            globals[shard].push(position);
        }
        if let Some(shard) = raw.iter().position(|sets| sets.is_empty()) {
            return Err(ShardError::EmptyShard { shard });
        }
        let shards = raw
            .into_iter()
            // Every shard keeps the full vocabulary so per-shard models
            // share input dimensions with an unsharded build.
            .map(|sets| Arc::new(SetCollection::new(sets, collection.num_elements())))
            .collect();
        Ok(ShardedCollection {
            spec,
            shards,
            globals: globals.into_iter().map(Arc::new).collect(),
            total: collection.len(),
        })
    }

    /// The spec this partition was built from.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s collection.
    pub fn shard(&self, s: usize) -> &Arc<SetCollection> {
        &self.shards[s]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[Arc<SetCollection>] {
        &self.shards
    }

    /// Shard `s`'s local → global position map.
    pub fn globals(&self, s: usize) -> &Arc<Vec<usize>> {
        &self.globals[s]
    }

    /// Total sets across all shards (= the source collection's length).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the partition holds no sets.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The source vocabulary size (shared by every shard).
    pub fn num_elements(&self) -> u32 {
        self.shards[0].num_elements()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn_data::GeneratorConfig;

    fn collection(n: usize) -> SetCollection {
        GeneratorConfig::sd(n, 5).generate()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let c = collection(97);
        for by in [ShardBy::Hash, ShardBy::Range] {
            for n in [1, 2, 7] {
                let sharded =
                    ShardedCollection::partition(&c, ShardSpec::new(n, by)).unwrap();
                assert_eq!(sharded.num_shards(), n);
                assert_eq!(sharded.len(), c.len());
                let mut seen = vec![false; c.len()];
                for s in 0..n {
                    let shard = sharded.shard(s);
                    let globals = sharded.globals(s);
                    assert_eq!(shard.len(), globals.len());
                    for (local, &global) in globals.iter().enumerate() {
                        assert!(!seen[global], "position {global} routed twice");
                        seen[global] = true;
                        assert_eq!(shard.get(local), c.get(global));
                    }
                }
                assert!(seen.iter().all(|&s| s), "some position unrouted ({by}, {n})");
            }
        }
    }

    #[test]
    fn range_shards_are_contiguous() {
        let c = collection(50);
        let sharded =
            ShardedCollection::partition(&c, ShardSpec::new(4, ShardBy::Range)).unwrap();
        let mut next = 0;
        for s in 0..4 {
            for &global in sharded.globals(s).iter() {
                assert_eq!(global, next, "range shard {s} not contiguous");
                next += 1;
            }
        }
        assert_eq!(next, c.len());
    }

    #[test]
    fn single_range_shard_is_the_whole_collection() {
        let c = collection(30);
        let sharded =
            ShardedCollection::partition(&c, ShardSpec::new(1, ShardBy::Range)).unwrap();
        assert_eq!(sharded.shard(0).len(), c.len());
        for (i, s) in c.iter() {
            assert_eq!(sharded.shard(0).get(i), s);
        }
    }

    #[test]
    fn empty_shard_is_a_typed_error_not_a_panic() {
        // More shards than sets: some shard must be empty under any router.
        let c = collection(3);
        let err = ShardedCollection::partition(&c, ShardSpec::new(7, ShardBy::Hash))
            .expect_err("3 sets over 7 shards must leave a shard empty");
        assert!(matches!(err, ShardError::EmptyShard { .. }), "got {err:?}");
        // A deliberately skewed router empties shard 1 even when counts fit.
        struct Skewed;
        impl ShardRouter for Skewed {
            fn route(&self, _p: usize, _n: usize, _k: usize) -> usize {
                0
            }
        }
        let c = collection(20);
        let err =
            ShardedCollection::partition_with(&c, ShardSpec::new(2, ShardBy::Hash), &Skewed)
                .expect_err("skewed router must be rejected");
        assert_eq!(err, ShardError::EmptyShard { shard: 1 });
    }

    #[test]
    fn zero_shards_rejected() {
        let c = collection(5);
        let err = ShardedCollection::partition(&c, ShardSpec::new(0, ShardBy::Hash))
            .expect_err("zero shards must be rejected");
        assert_eq!(err, ShardError::ZeroShards);
    }

    #[test]
    fn shard_by_round_trips_through_str() {
        for by in [ShardBy::Hash, ShardBy::Range] {
            assert_eq!(by.to_string().parse::<ShardBy>().unwrap(), by);
        }
        assert!("zone".parse::<ShardBy>().is_err());
    }
}
