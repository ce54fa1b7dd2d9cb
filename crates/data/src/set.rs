//! Canonical set representation and subset algebra.
//!
//! A set is stored as a sorted, deduplicated `Box<[u32]>` of element ids.
//! Sorting is an internal *storage* canonicalization only — models consume
//! sets through permutation-invariant encoders, and the property tests in
//! `setlearn` feed deliberately shuffled inputs to prove order independence.

/// A canonical set of element ids: sorted, duplicate-free.
pub type ElementSet = Box<[u32]>;

/// Canonicalizes raw ids into an [`ElementSet`] (sort + dedup).
pub fn normalize(mut ids: Vec<u32>) -> ElementSet {
    ids.sort_unstable();
    ids.dedup();
    ids.into_boxed_slice()
}

/// Whether sorted `sub` is a subset of sorted `sup` (merge walk, `O(n + m)`).
pub fn is_subset(sub: &[u32], sup: &[u32]) -> bool {
    debug_assert!(sub.windows(2).all(|w| w[0] < w[1]), "sub not canonical");
    debug_assert!(sup.windows(2).all(|w| w[0] < w[1]), "sup not canonical");
    if sub.len() > sup.len() {
        return false;
    }
    let mut j = 0;
    for &x in sub {
        while j < sup.len() && sup[j] < x {
            j += 1;
        }
        if j == sup.len() || sup[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// A 64-bit summary of `set`: bit `e % 64` is set for each element `e`.
/// `sub ⊆ sup` implies `signature(sub) & !signature(sup) == 0`, so a set
/// whose signature lacks a bit of the query's cannot contain the query, and
/// only the sets that pass need an [`is_subset`] walk.
pub fn signature(set: &[u32]) -> u64 {
    set.iter().fold(0, |sig, &e| sig | 1 << (e % 64))
}

/// Iterates all non-empty subsets of `set` with size at most `max_size`,
/// invoking `f` on each (as a canonical sorted slice).
///
/// The enumeration is combination-based, so a set of size `k` yields
/// `Σ_{i=1..min(k,max_size)} C(k, i)` subsets.
pub fn for_each_subset<F: FnMut(&[u32])>(set: &[u32], max_size: usize, mut f: F) {
    let k = set.len();
    let cap = max_size.min(k);
    let mut scratch: Vec<u32> = Vec::with_capacity(cap);
    // Iterative combinations by size to avoid recursion depth concerns.
    fn rec<F: FnMut(&[u32])>(
        set: &[u32],
        start: usize,
        remaining: usize,
        scratch: &mut Vec<u32>,
        f: &mut F,
    ) {
        if remaining == 0 {
            f(scratch);
            return;
        }
        // Not enough elements left to fill the combination.
        let last_start = set.len() - remaining;
        for i in start..=last_start {
            scratch.push(set[i]);
            rec(set, i + 1, remaining - 1, scratch, f);
            scratch.pop();
        }
    }
    for size in 1..=cap {
        rec(set, 0, size, &mut scratch, &mut f);
    }
}

/// Number of subsets `for_each_subset` yields for a set of size `k`.
pub fn subset_count(k: usize, max_size: usize) -> u64 {
    let cap = max_size.min(k);
    let mut total = 0u64;
    for size in 1..=cap {
        total += binomial(k as u64, size as u64);
    }
    total
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num = 1u64;
    for i in 0..k {
        num = num * (n - i) / (i + 1);
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sorts_and_dedups() {
        assert_eq!(&*normalize(vec![3, 1, 3, 2]), &[1, 2, 3]);
        assert!(normalize(vec![]).is_empty());
    }

    #[test]
    fn subset_checks() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 2, 3], &[1, 2]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn signature_sets_one_bit_per_residue() {
        assert_eq!(signature(&[]), 0);
        assert_eq!(signature(&[0, 3]), 0b1001);
        // 1 and 65 share bit 1; 64 wraps to bit 0.
        assert_eq!(signature(&[1, 64, 65]), 0b11);
        let (sub, sup) = ([2, 70], [1, 2, 6, 70, 99]);
        assert!(is_subset(&sub, &sup));
        assert_eq!(signature(&sub) & !signature(&sup), 0);
    }

    #[test]
    fn enumerates_all_subsets_up_to_cap() {
        let mut got: Vec<Vec<u32>> = Vec::new();
        for_each_subset(&[1, 2, 3], 2, |s| got.push(s.to_vec()));
        assert_eq!(
            got,
            vec![
                vec![1],
                vec![2],
                vec![3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn full_powerset_when_cap_exceeds_size() {
        let mut n = 0;
        for_each_subset(&[1, 2, 3, 4], 10, |_| n += 1);
        assert_eq!(n, 15); // 2^4 - 1
        assert_eq!(subset_count(4, 10), 15);
    }

    #[test]
    fn subset_count_matches_enumeration() {
        for k in 1..=7usize {
            for cap in 1..=k {
                let set: Vec<u32> = (0..k as u32).collect();
                let mut n = 0u64;
                for_each_subset(&set, cap, |_| n += 1);
                assert_eq!(n, subset_count(k, cap), "k={k} cap={cap}");
            }
        }
    }

    #[test]
    fn empty_set_yields_nothing() {
        let mut n = 0;
        for_each_subset(&[], 3, |_| n += 1);
        assert_eq!(n, 0);
    }
}
