//! The central data object: an ordered collection of sets.

use crate::set::{is_subset, normalize, ElementSet};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

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
/// Deserialization validates every row (see [`CollectionError`]): a stored
/// collection whose rows are not canonical is refused, because the
/// sorted-merge subset test would silently miss supersets of such a row.
#[derive(Debug, Clone, Serialize)]
pub struct SetCollection {
    sets: Vec<ElementSet>,
    num_elements: u32,
    /// One 64-bit signature per row (see [`signature`]), built on first
    /// use and never stored: it is a pure function of `sets`.
    #[serde(skip)]
    signatures: OnceLock<Box<[u64]>>,
}

/// Why a stored collection was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectionError {
    /// Row `row` holds no elements.
    EmptySet {
        /// Position of the offending row.
        row: usize,
    },
    /// Row `row` is not strictly increasing (unsorted or holds a
    /// duplicate id).
    NotCanonical {
        /// Position of the offending row.
        row: usize,
    },
    /// Row `row` holds `id >= num_elements`.
    OutOfVocab {
        /// Position of the offending row.
        row: usize,
        /// The offending id.
        id: u32,
        /// The collection's vocabulary bound.
        num_elements: u32,
    },
}

impl fmt::Display for CollectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionError::EmptySet { row } => write!(f, "set {row} is empty"),
            CollectionError::NotCanonical { row } => {
                write!(f, "set {row} is not sorted and duplicate-free")
            }
            CollectionError::OutOfVocab { row, id, num_elements } => write!(
                f,
                "set {row} references id {id} >= vocabulary bound {num_elements}"
            ),
        }
    }
}

impl std::error::Error for CollectionError {}

/// The 64-bit signature of a set: element `e` sets bit
/// `(e * 0x9E37_79B9_7F4A_7C15) >> 58` (Fibonacci hashing onto 64 bits).
/// If `q` is a subset of `s`, every bit of `signature(q)` is set in
/// `signature(s)`; the converse does not hold (distinct ids can share a
/// bit), so a passing signature check must still be confirmed exactly.
pub fn signature(set: &[u32]) -> u64 {
    set.iter()
        .fold(0, |sig, &e| sig | 1 << ((e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58))
}

/// "Does row `i` contain `q`?" for one query against one collection: a
/// signature check that rejects most rows with one AND, then the exact
/// sorted-merge test on the rows that pass. Built by
/// [`SetCollection::superset_probe`].
#[derive(Debug, Clone, Copy)]
pub struct SupersetProbe<'a> {
    q: &'a [u32],
    q_sig: u64,
    sets: &'a [ElementSet],
    signatures: &'a [u64],
}

impl SupersetProbe<'_> {
    /// Whether `q ⊆ S[row]`. Exact: a signature false positive is
    /// re-checked by [`is_subset`], and a true superset always passes the
    /// signature check.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        self.signatures[row] & self.q_sig == self.q_sig && is_subset(self.q, &self.sets[row])
    }
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

impl SetCollection {
    /// Builds a collection from raw sets, canonicalizing each one.
    /// `num_elements` is the vocabulary bound; every id must be below it.
    ///
    /// # Panics
    /// If a set references an id `>= num_elements` or any set is empty.
    pub fn new(raw: Vec<Vec<u32>>, num_elements: u32) -> Self {
        let sets: Vec<ElementSet> = raw.into_iter().map(normalize).collect();
        Self::from_canonical(sets, num_elements)
            .unwrap_or_else(|e| panic!("{e} after normalization"))
    }

    /// Builds a collection from rows that must already be canonical
    /// (non-empty, strictly increasing, every id below `num_elements`);
    /// refuses the first row that is not, rather than repairing it.
    pub fn from_canonical(
        sets: Vec<ElementSet>,
        num_elements: u32,
    ) -> Result<Self, CollectionError> {
        for (row, s) in sets.iter().enumerate() {
            if s.is_empty() {
                return Err(CollectionError::EmptySet { row });
            }
            if s.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CollectionError::NotCanonical { row });
            }
            let max = s[s.len() - 1];
            if max >= num_elements {
                return Err(CollectionError::OutOfVocab { row, id: max, num_elements });
            }
        }
        Ok(SetCollection { sets, num_elements, signatures: OnceLock::new() })
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

    /// Iterator over `(position, set)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.sets.iter().enumerate().map(|(i, s)| (i, &**s))
    }

    /// The one test for "row `i` contains `q`" (canonical `q`), shared by
    /// the oracles below and the learned index's last mile. The first call
    /// builds the per-row signature column.
    pub fn superset_probe<'a>(&'a self, q: &'a [u32]) -> SupersetProbe<'a> {
        let signatures =
            self.signatures.get_or_init(|| self.sets.iter().map(|s| signature(s)).collect());
        SupersetProbe { q, q_sig: signature(q), sets: &self.sets, signatures }
    }

    /// Ground-truth cardinality of query `q`: the number of sets `q` is a
    /// subset of (linear scan; used for labels and test oracles).
    pub fn cardinality(&self, q: &[u32]) -> u64 {
        let probe = self.superset_probe(q);
        (0..self.len()).filter(|&i| probe.matches(i)).count() as u64
    }

    /// Ground-truth first position `i` with `q ⊆ S[i]`, if any.
    pub fn first_position(&self, q: &[u32]) -> Option<usize> {
        let probe = self.superset_probe(q);
        (0..self.len()).find(|&i| probe.matches(i))
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

    /// Approximate resident bytes of the stored sets plus their signature
    /// column (8 B per row; counted whether or not a scan has built it
    /// yet), for competitor-memory comparisons.
    pub fn size_bytes(&self) -> usize {
        self.sets
            .iter()
            .map(|s| {
                s.len() * std::mem::size_of::<u32>()
                    + std::mem::size_of::<ElementSet>()
                    + std::mem::size_of::<u64>()
            })
            .sum()
    }
}

impl Deserialize for SetCollection {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Stored {
            sets: Vec<ElementSet>,
            num_elements: u32,
        }
        let Stored { sets, num_elements } = Stored::deserialize(v)?;
        SetCollection::from_canonical(sets, num_elements).map_err(serde::Error::custom)
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
    #[should_panic(expected = "empty after normalization")]
    fn empty_set_rejected() {
        let _ = SetCollection::new(vec![vec![]], 3);
    }

    #[test]
    #[should_panic(expected = "vocabulary bound")]
    fn out_of_vocab_rejected() {
        let _ = SetCollection::new(vec![vec![5]], 3);
    }
}
