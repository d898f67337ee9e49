//! Sorted-set intersection kernels.
//!
//! Profiles are sorted id slices, so intersections are linear merges — or,
//! when one side is much shorter, galloping (exponential) searches into the
//! longer side. [`intersect_count`] picks the strategy by size ratio.

/// Size ratio beyond which galloping beats merging (measured on skewed
/// profile pairs).
const GALLOP_RATIO: usize = 16;

/// Counts common elements of two sorted, duplicate-free slices by linear
/// merge.
pub fn merge_intersect_count(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Counts common elements by galloping the *short* slice into the long one.
///
/// `O(|short| · log |long|)` — asymptotically better than merging when one
/// profile is tiny (e.g. a casual user against a heavy rater).
pub fn galloping_intersect_count(short: &[u32], long: &[u32]) -> usize {
    let mut count = 0;
    let mut lo = 0usize;
    for &x in short {
        // Gallop: find a window [lo+step/2, lo+step] containing x.
        let mut step = 1;
        while lo + step < long.len() && long[lo + step] < x {
            step *= 2;
        }
        // The gallop stopped because long[lo + step] >= x (or ran off the
        // end), so the match — if any — lies in long[lo..=lo + step].
        let hi = (lo + step + 1).min(long.len());
        match long[lo..hi].binary_search(&x) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
        if lo >= long.len() {
            break;
        }
    }
    count
}

/// Counts common elements, choosing merge or galloping by size ratio.
#[inline]
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        0
    } else if long.len() / short.len() >= GALLOP_RATIO {
        galloping_intersect_count(short, long)
    } else {
        merge_intersect_count(short, long)
    }
}

/// Visits every shared id of two sorted slices with its positions in each,
/// by linear merge. The workhorse behind the weighted metrics.
#[inline]
pub fn for_each_shared(a: &[u32], b: &[u32], mut visit: impl FnMut(usize, usize)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                visit(i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Dot product of two sparse rating vectors given as (sorted ids, ratings).
pub fn sparse_dot(a_items: &[u32], a_ratings: &[f32], b_items: &[u32], b_ratings: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    for_each_shared(a_items, b_items, |i, j| {
        dot += f64::from(a_ratings[i]) * f64::from(b_ratings[j]);
    });
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_counts_shared() {
        assert_eq!(merge_intersect_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(merge_intersect_count(&[], &[1, 2]), 0);
        assert_eq!(merge_intersect_count(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(merge_intersect_count(&[1, 2], &[3, 4]), 0);
    }

    #[test]
    fn galloping_counts_shared() {
        let long: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(galloping_intersect_count(&[3, 9, 10, 999], &long), 3);
        assert_eq!(galloping_intersect_count(&[1, 2], &long[..1]), 0);
        assert_eq!(galloping_intersect_count(&[0], &long), 1);
        assert_eq!(galloping_intersect_count(&[2997], &long), 1); // last element
    }

    #[test]
    fn dispatcher_handles_extreme_ratios() {
        let long: Vec<u32> = (0..10_000).collect();
        assert_eq!(intersect_count(&[5000], &long), 1);
        assert_eq!(intersect_count(&long, &[5000]), 1);
        assert_eq!(intersect_count(&[], &long), 0);
    }

    #[test]
    fn sparse_dot_multiplies_shared_ratings() {
        let dot = sparse_dot(&[1, 2, 5], &[1.0, 2.0, 3.0], &[2, 5, 9], &[4.0, 5.0, 6.0]);
        assert_eq!(dot, 2.0 * 4.0 + 3.0 * 5.0);
    }

    #[test]
    fn for_each_shared_yields_positions() {
        let mut pairs = vec![];
        for_each_shared(&[1, 4, 6], &[4, 5, 6], |i, j| pairs.push((i, j)));
        assert_eq!(pairs, vec![(1, 0), (2, 2)]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn sorted_ids() -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::btree_set(0u32..500, 0..120)
                .prop_map(|s: BTreeSet<u32>| s.into_iter().collect())
        }

        proptest! {
            /// All three strategies agree with the set-model answer.
            #[test]
            fn kernels_agree(a in sorted_ids(), b in sorted_ids()) {
                let sa: BTreeSet<u32> = a.iter().copied().collect();
                let sb: BTreeSet<u32> = b.iter().copied().collect();
                let expected = sa.intersection(&sb).count();
                prop_assert_eq!(merge_intersect_count(&a, &b), expected);
                let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
                prop_assert_eq!(galloping_intersect_count(short, long), expected);
                prop_assert_eq!(intersect_count(&a, &b), expected);
            }

            /// Intersection count is symmetric and bounded.
            #[test]
            fn count_symmetric_and_bounded(a in sorted_ids(), b in sorted_ids()) {
                let ab = intersect_count(&a, &b);
                prop_assert_eq!(ab, intersect_count(&b, &a));
                prop_assert!(ab <= a.len().min(b.len()));
            }
        }
    }
}
