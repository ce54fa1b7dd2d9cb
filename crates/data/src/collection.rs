//! The central data object: an ordered collection of sets.

use crate::set::{is_subset, normalize, signature, ElementSet};
use serde::{Deserialize, Serialize, Value};

/// An ordered collection `S = [X_1, ..., X_N]` of sets of element ids
/// (the paper's §1.1 problem statement). The collection may contain
/// duplicate sets; individual sets contain no duplicate elements.
///
/// ```
/// use setlearn_data::SetCollection;
///
/// // Figure 1's four tweets, dictionary-encoded.
/// let tweets = SetCollection::new(
///     vec![vec![0, 1, 2], vec![3, 4, 5], vec![0, 1, 3], vec![0, 1, 6]], 7);
/// assert_eq!(tweets.cardinality(&[0, 1]), 3);      // {#pizza, #dinner}
/// assert_eq!(tweets.first_position(&[3]), Some(1));
/// ```
///
/// Serialized as `{sets, num_elements}`; deserializing runs the same checks
/// as [`SetCollection::new`] (minus the canonicalization, which a stored
/// set must already satisfy) and refuses a file that fails one.
#[derive(Debug, Clone, Serialize)]
pub struct SetCollection {
    sets: Vec<ElementSet>,
    num_elements: u32,
    /// One [`signature`] per set, built with the collection, so a scan can
    /// rule a set out with one AND before reading its elements.
    #[serde(skip)]
    signatures: Box<[u64]>,
}

/// Summary statistics mirroring the paper's Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionStats {
    /// Number of sets in the collection.
    pub num_sets: usize,
    /// Number of distinct elements appearing in at least one set.
    pub unique_elements: usize,
    /// Largest single-element frequency — the maximum possible cardinality
    /// of any query (paper §4.2).
    pub max_cardinality: u64,
    /// Smallest set size.
    pub min_set_size: usize,
    /// Largest set size.
    pub max_set_size: usize,
}

impl Deserialize for SetCollection {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let field = |name| v.get(name).ok_or_else(|| serde::Error::missing_field(name));
        let sets = Vec::deserialize(field("sets")?)?;
        let num_elements = u32::deserialize(field("num_elements")?)?;
        SetCollection::from_canonical(sets, num_elements)
            .map_err(|e| serde::Error::custom(format!("invalid collection: {e}")))
    }
}

impl SetCollection {
    /// Builds a collection from raw sets, canonicalizing each one.
    /// `num_elements` is the vocabulary bound; every id must be below it.
    ///
    /// # Panics
    /// If a set references an id `>= num_elements` or any set is empty.
    pub fn new(raw: Vec<Vec<u32>>, num_elements: u32) -> Self {
        let sets = raw.into_iter().map(normalize).collect();
        Self::from_canonical(sets, num_elements).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one validated constructor, behind [`SetCollection::new`] and
    /// deserialization: refuses, naming the first offending set and the
    /// rule, an empty set, a set whose ids are not strictly ascending, and
    /// an id `>= num_elements`; then builds the per-set signatures.
    fn from_canonical(sets: Vec<ElementSet>, num_elements: u32) -> Result<Self, String> {
        for (i, s) in sets.iter().enumerate() {
            let Some(&max) = s.last() else {
                return Err(format!("set {i} is empty (every set holds at least one element)"));
            };
            if s.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "set {i} is not strictly ascending (a stored set is sorted and duplicate-free)"
                ));
            }
            if max >= num_elements {
                return Err(format!(
                    "set {i} holds id {max}, outside the vocabulary bound {num_elements} \
                     (every id is below num_elements)"
                ));
            }
        }
        let signatures = sets.iter().map(|s| signature(s)).collect();
        Ok(SetCollection { sets, num_elements, signatures })
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Vocabulary bound (ids are `0..num_elements`).
    pub fn num_elements(&self) -> u32 {
        self.num_elements
    }

    /// The set at position `i`.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.sets[i]
    }

    /// All sets in collection order.
    pub fn sets(&self) -> &[ElementSet] {
        &self.sets
    }

    /// Each set's [`signature`], in collection order: `q ⊆ S[i]` implies
    /// `signature(q) & signatures()[i] == signature(q)`, so a scan reads
    /// the elements of only the sets whose signature passes.
    pub fn signatures(&self) -> &[u64] {
        &self.signatures
    }

    /// Iterator over `(position, set)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.sets.iter().enumerate().map(|(i, s)| (i, &**s))
    }

    /// Ground-truth cardinality of query `q`: the number of sets `q` is a
    /// subset of (linear scan; used for labels and test oracles).
    pub fn cardinality(&self, q: &[u32]) -> u64 {
        self.sets.iter().filter(|s| is_subset(q, s)).count() as u64
    }

    /// Ground-truth first position `i` with `q ⊆ S[i]`, if any.
    pub fn first_position(&self, q: &[u32]) -> Option<usize> {
        self.sets.iter().position(|s| is_subset(q, s))
    }

    /// Whether any set contains `q` (membership oracle).
    pub fn contains_subset(&self, q: &[u32]) -> bool {
        self.first_position(q).is_some()
    }

    /// Table 2-style statistics.
    pub fn stats(&self) -> CollectionStats {
        let mut freq = vec![0u64; self.num_elements as usize];
        let mut seen = vec![false; self.num_elements as usize];
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        for s in &self.sets {
            min_size = min_size.min(s.len());
            max_size = max_size.max(s.len());
            for &e in s.iter() {
                freq[e as usize] += 1;
                seen[e as usize] = true;
            }
        }
        CollectionStats {
            num_sets: self.sets.len(),
            unique_elements: seen.iter().filter(|&&b| b).count(),
            max_cardinality: freq.iter().copied().max().unwrap_or(0),
            min_set_size: if self.sets.is_empty() { 0 } else { min_size },
            max_set_size: max_size,
        }
    }

    /// Approximate resident bytes of the stored sets and their signatures
    /// (for competitor-memory comparisons).
    pub fn size_bytes(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.len() * std::mem::size_of::<u32>() + std::mem::size_of::<ElementSet>())
            .sum::<usize>()
            + std::mem::size_of_val(&*self.signatures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SetCollection {
        // Figure 1's four hashtag sets, dictionary-encoded:
        // pizza=0 dinner=1 yummy=2 restaurant=3 bbq=4 steak=5 dessert=6
        SetCollection::new(
            vec![
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![0, 1, 3],
                vec![0, 1, 6],
            ],
            7,
        )
    }

    #[test]
    fn cardinality_matches_figure_1() {
        let c = sample();
        // Q = {pizza, dinner} appears in T1, T3, T4.
        assert_eq!(c.cardinality(&[0, 1]), 3);
        assert_eq!(c.cardinality(&[4]), 1);
        assert_eq!(c.cardinality(&[2, 6]), 0);
    }

    #[test]
    fn first_position_finds_earliest() {
        let c = sample();
        assert_eq!(c.first_position(&[0, 1]), Some(0));
        assert_eq!(c.first_position(&[3]), Some(1));
        assert_eq!(c.first_position(&[6]), Some(3));
        assert_eq!(c.first_position(&[2, 4]), None);
    }

    #[test]
    fn stats_table2_fields() {
        let c = sample();
        let st = c.stats();
        assert_eq!(st.num_sets, 4);
        assert_eq!(st.unique_elements, 7);
        assert_eq!(st.max_cardinality, 3); // pizza and dinner each appear 3x
        assert_eq!(st.min_set_size, 3);
        assert_eq!(st.max_set_size, 3);
    }

    #[test]
    fn duplicate_sets_are_allowed() {
        let c = SetCollection::new(vec![vec![1, 2], vec![1, 2]], 3);
        assert_eq!(c.cardinality(&[1, 2]), 2);
    }

    #[test]
    #[should_panic(expected = "set 0 is empty")]
    fn empty_set_rejected() {
        let _ = SetCollection::new(vec![vec![]], 3);
    }

    #[test]
    #[should_panic(expected = "vocabulary bound")]
    fn out_of_vocab_rejected() {
        let _ = SetCollection::new(vec![vec![5]], 3);
    }

    fn stored(sets: &[&[u64]], num_elements: u64) -> Value {
        let sets = sets.iter().map(|s| Value::Array(s.iter().map(|&e| Value::UInt(e)).collect()));
        Value::Object(vec![
            ("sets".to_string(), Value::Array(sets.collect())),
            ("num_elements".to_string(), Value::UInt(num_elements)),
        ])
    }

    fn refusal(v: &Value) -> String {
        SetCollection::deserialize(v).expect_err("a broken collection must be refused").to_string()
    }

    #[test]
    fn a_stored_collection_is_validated_on_load() {
        assert_eq!(
            refusal(&stored(&[&[0, 1], &[2, 1]], 3)),
            "invalid collection: set 1 is not strictly ascending \
             (a stored set is sorted and duplicate-free)"
        );
        assert!(refusal(&stored(&[&[1, 1]], 3)).contains("set 0 is not strictly ascending"));
        assert_eq!(
            refusal(&stored(&[&[0], &[1, 4_000_000_000]], 7)),
            "invalid collection: set 1 holds id 4000000000, outside the vocabulary bound 7 \
             (every id is below num_elements)"
        );
        assert_eq!(
            refusal(&stored(&[&[0], &[], &[2]], 3)),
            "invalid collection: set 1 is empty (every set holds at least one element)"
        );
        assert!(refusal(&stored(&[&[0]], 1 << 40)).contains("out of range for u32"));
    }

    #[test]
    fn a_valid_collection_round_trips_with_its_signatures() {
        let c = sample();
        let v = c.serialize();
        assert_eq!(v, stored(&[&[0, 1, 2], &[3, 4, 5], &[0, 1, 3], &[0, 1, 6]], 7));
        let back = SetCollection::deserialize(&v).unwrap();
        assert_eq!(back.sets(), c.sets());
        assert_eq!(back.num_elements(), 7);
        assert_eq!(back.signatures(), &[0b111, 0b111000, 0b1011, 0b1000011]);
        assert_eq!(back.signatures(), c.signatures());
    }
}
