//! Least-significant-digit radix sort for unsigned integer keys.
//!
//! The KIFF counting phase gathers, for each user, every co-rater id found in
//! the item profiles of her items and then needs multiplicities. Sorting the
//! gathered ids and run-length encoding is both cache-friendlier and faster
//! than hashing for the bursty, skewed batches this produces. An LSD radix
//! sort with 8-bit digits beats `sort_unstable` on these `u32` batches.

/// Sorts a `u32` slice ascending using LSD radix sort with a scratch buffer.
///
/// Skips passes whose digit is constant across the slice (common when ids are
/// small). Falls back to `sort_unstable` for tiny inputs where the counting
/// overhead dominates.
pub fn radix_sort_u32(data: &mut [u32]) {
    let mut scratch = Vec::new();
    radix_sort_u32_with(data, &mut scratch);
}

/// [`radix_sort_u32`] with a caller-owned scratch buffer (resized on
/// demand, never shrunk) — the allocation-free variant for hot loops that
/// sort many batches.
pub fn radix_sort_u32_with(data: &mut [u32], scratch: &mut Vec<u32>) {
    const SMALL: usize = 64;
    if data.len() <= SMALL {
        data.sort_unstable();
        return;
    }
    if scratch.len() < data.len() {
        scratch.resize(data.len(), 0);
    }
    let scratch = &mut scratch[..data.len()];
    let mut src_is_data = true;
    for pass in 0..4 {
        let shift = pass * 8;
        let (src, dst): (&mut [u32], &mut [u32]) = if src_is_data {
            (&mut data[..], &mut scratch[..])
        } else {
            (&mut scratch[..], &mut data[..])
        };
        let mut counts = [0usize; 256];
        for &x in src.iter() {
            counts[((x >> shift) & 0xFF) as usize] += 1;
        }
        // Digit constant for every element: nothing to move this pass.
        if counts.contains(&src.len()) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut sum = 0;
        for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
            *o = sum;
            sum += c;
        }
        for &x in src.iter() {
            let d = ((x >> shift) & 0xFF) as usize;
            dst[offsets[d]] = x;
            offsets[d] += 1;
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_empty_and_singleton() {
        let mut v: Vec<u32> = vec![];
        radix_sort_u32(&mut v);
        assert!(v.is_empty());
        let mut v = vec![7u32];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn sorts_small_input_via_fallback() {
        let mut v = vec![5u32, 3, 9, 1, 1, 0];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn sorts_large_input_with_duplicates() {
        // Deterministic pseudo-random data exercising all four passes.
        let mut v: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ (i << 16))
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        radix_sort_u32(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_values_with_high_bits() {
        let mut v: Vec<u32> = (0..5_000)
            .map(|i| u32::MAX - (i * 7919) % 100_000)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        radix_sort_u32(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn skips_constant_digit_passes_correctly() {
        // All values < 256: only the first pass does work.
        let mut v: Vec<u32> = (0..1000u32).map(|i| (i * 31) % 256).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        radix_sort_u32(&mut v);
        assert_eq!(v, expected);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn u32_matches_std_sort(mut v in proptest::collection::vec(any::<u32>(), 0..2000)) {
                let mut expected = v.clone();
                expected.sort_unstable();
                radix_sort_u32(&mut v);
                prop_assert_eq!(v, expected);
            }
        }
    }
}
