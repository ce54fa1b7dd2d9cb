//! # setlearn-data
//!
//! Set-collection data substrate for the `setlearn` reproduction of
//! *Learning over Sets for Databases* (EDBT 2024): the collection type and
//! its query oracles, dictionary encoding, synthetic generators matching the
//! paper's dataset shapes (Table 2), exhaustive subset statistics for
//! training-data creation (§7.1), negative sampling for the learned Bloom
//! filter (§7.1.2), query workloads (§8.1.1), and the digit-sum task of
//! Figure 7.

#![warn(missing_docs)]

pub mod collection;
pub mod dictionary;
pub mod digits;
pub mod generators;
pub mod io;
pub mod negative;
pub mod reorder;
pub mod set;
pub mod subsets;
pub mod workload;
pub mod zipf;

pub use collection::{CollectionStats, SetCollection};
pub use dictionary::Dictionary;
pub use generators::{Dataset, GeneratorConfig};
pub use set::{is_subset, normalize, signature, ElementSet};
pub use subsets::{SubsetIndex, SubsetInfo};
pub use zipf::Zipf;
