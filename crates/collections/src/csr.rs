//! Compressed sparse row (CSR) adjacency with weights.
//!
//! Both sides of the bipartite user–item graph — user profiles `UP_u` and
//! item profiles `IP_i` — are stored as CSR: one `offsets` array and two
//! parallel `targets`/`weights` arrays. Within each row, targets are sorted
//! ascending so intersections reduce to linear merges.

/// A weighted CSR adjacency structure.
///
/// Row `r` spans `targets[offsets[r]..offsets[r+1]]`; `weights` is parallel
/// to `targets`. Construct through [`CsrBuilder`], which sorts each row by
/// target id.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Box<[usize]>,
    targets: Box<[u32]>,
    weights: Box<[f32]>,
}

impl Csr {
    /// Assembles a CSR from raw parts whose rows are already sorted: the
    /// no-sort path for callers that concatenate sorted rows. Checks the
    /// invariants [`CsrBuilder`] establishes (offsets start at 0, never
    /// decrease and end at `targets.len()`; weights parallel targets;
    /// targets strictly increase within a row) and reports the first
    /// violation. Duplicate targets are rejected, not merged.
    pub fn from_sorted_parts(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        weights: Vec<f32>,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) || offsets.last() != Some(&targets.len()) {
            return Err(format!("offsets must run from 0 to {}", targets.len()));
        }
        if weights.len() != targets.len() {
            return Err(format!(
                "{} weights for {} targets",
                weights.len(),
                targets.len()
            ));
        }
        let rows = || offsets.windows(2).map(|span| span[0]..span[1]);
        if let Some(r) = rows().position(|row| row.start > row.end) {
            return Err(format!("row {r} ends before it starts"));
        }
        // Every descent in `targets` must sit where a row starts. Counting
        // the descents in one pass over all targets vectorises, where a
        // scan per row would not; rows are only visited to name a culprit.
        let descents = targets.windows(2).filter(|w| w[0] >= w[1]).count();
        let at_row_starts = rows()
            .filter(|row| row.start > 0 && !row.is_empty())
            .filter(|row| targets[row.start - 1] >= targets[row.start])
            .count();
        if descents != at_row_starts {
            let r = rows()
                .position(|row| targets[row].windows(2).any(|w| w[0] >= w[1]))
                .expect("a descent inside some row");
            return Err(format!("row {r} is not strictly sorted"));
        }
        Ok(Self {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            weights: weights.into_boxed_slice(),
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// Degree (row length) of `row`.
    #[inline]
    pub fn degree(&self, row: u32) -> usize {
        let r = row as usize;
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Sorted target ids of `row`.
    #[inline]
    pub fn row(&self, row: u32) -> &[u32] {
        let r = row as usize;
        &self.targets[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Weights parallel to [`Csr::row`].
    #[inline]
    pub fn row_weights(&self, row: u32) -> &[f32] {
        let r = row as usize;
        &self.weights[self.offsets[r]..self.offsets[r + 1]]
    }

    /// `(targets, weights)` of `row` in one call.
    #[inline]
    pub fn row_entries(&self, row: u32) -> (&[u32], &[f32]) {
        let r = row as usize;
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.targets[span.clone()], &self.weights[span])
    }

    /// Iterates `(row, target, weight)` over all edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows() as u32).flat_map(move |r| {
            let (ts, ws) = self.row_entries(r);
            ts.iter().zip(ws.iter()).map(move |(&t, &w)| (r, t, w))
        })
    }

    /// Transposes the structure: row `r` containing target `t` becomes row
    /// `t` containing target `r`. `num_cols` is the row count of the result.
    ///
    /// This is exactly the paper's item-profile construction: `IP_i = {u : i
    /// ∈ UP_u}` (Algorithm 1, lines 1–2).
    pub fn transpose(&self, num_cols: usize) -> Csr {
        let mut builder = CsrBuilder::new(num_cols);
        // Counting pass then placement pass — no per-row Vec churn.
        builder.reserve_edges(self.nnz());
        for (r, t, w) in self.iter_edges() {
            builder.push(t, r, w);
        }
        builder.build()
    }
}

/// Accumulates `(row, target, weight)` triples and assembles a [`Csr`] whose
/// rows are sorted by target id.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    num_rows: usize,
    triples: Vec<(u32, u32, f32)>,
}

impl CsrBuilder {
    /// Builder for `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        Self {
            num_rows,
            triples: Vec::new(),
        }
    }

    /// Pre-allocates space for `n` edges.
    pub fn reserve_edges(&mut self, n: usize) {
        self.triples.reserve(n);
    }

    /// Adds one edge.
    ///
    /// # Panics
    /// Panics if `row >= num_rows`.
    #[inline]
    pub fn push(&mut self, row: u32, target: u32, weight: f32) {
        assert!(
            (row as usize) < self.num_rows,
            "row {row} out of bounds ({} rows)",
            self.num_rows
        );
        self.triples.push((row, target, weight));
    }

    /// Number of edges accumulated so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether no edge has been pushed.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Assembles the CSR. Duplicate `(row, target)` pairs are merged by
    /// *summing* weights (a repeated rating is treated as reinforcement,
    /// matching e.g. Gowalla visit counts).
    pub fn build(mut self) -> Csr {
        // Counting sort on rows keeps construction O(E + R).
        let mut counts = vec![0usize; self.num_rows + 1];
        for &(r, _, _) in &self.triples {
            counts[r as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut placed: Vec<(u32, f32)> = vec![(0, 0.0); self.triples.len()];
        {
            let mut cursors = counts.clone();
            for &(r, t, w) in &self.triples {
                let slot = cursors[r as usize];
                placed[slot] = (t, w);
                cursors[r as usize] += 1;
            }
        }
        self.triples.clear();
        self.triples.shrink_to_fit();

        // Sort each row by target and merge duplicates.
        let mut offsets = Vec::with_capacity(self.num_rows + 1);
        let mut targets = Vec::with_capacity(placed.len());
        let mut weights = Vec::with_capacity(placed.len());
        offsets.push(0);
        for r in 0..self.num_rows {
            let row = &mut placed[counts[r]..counts[r + 1]];
            row.sort_unstable_by_key(|&(t, _)| t);
            let mut i = 0;
            while i < row.len() {
                let t = row[i].0;
                let mut w = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == t {
                    w += row[j].1;
                    j += 1;
                }
                targets.push(t);
                weights.push(w);
                i = j;
            }
            offsets.push(targets.len());
        }
        Csr {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            weights: weights.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Csr {
        // The paper's Figure 2 toy dataset:
        // Alice(0): book(0), coffee(1); Bob(1): coffee(1), cheese(2);
        // Carl(2): shopping(3); Dave(3): shopping(3).
        let mut b = CsrBuilder::new(4);
        b.push(0, 0, 1.0);
        b.push(0, 1, 1.0);
        b.push(1, 1, 1.0);
        b.push(1, 2, 1.0);
        b.push(2, 3, 1.0);
        b.push(3, 3, 1.0);
        b.build()
    }

    #[test]
    fn rows_are_sorted_and_sized() {
        let csr = toy();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.row(0), &[0, 1]);
        assert_eq!(csr.row(1), &[1, 2]);
        assert_eq!(csr.degree(2), 1);
    }

    #[test]
    fn unsorted_input_is_sorted_per_row() {
        let mut b = CsrBuilder::new(1);
        b.push(0, 9, 1.0);
        b.push(0, 2, 2.0);
        b.push(0, 5, 3.0);
        let csr = b.build();
        assert_eq!(csr.row(0), &[2, 5, 9]);
        assert_eq!(csr.row_weights(0), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn duplicate_edges_merge_by_weight_sum() {
        let mut b = CsrBuilder::new(1);
        b.push(0, 4, 1.0);
        b.push(0, 4, 1.0);
        b.push(0, 4, 3.0);
        let csr = b.build();
        assert_eq!(csr.row(0), &[4]);
        assert_eq!(csr.row_weights(0), &[5.0]);
    }

    #[test]
    fn transpose_builds_item_profiles() {
        // IP_book={Alice}, IP_coffee={Alice,Bob}, IP_cheese={Bob},
        // IP_shopping={Carl,Dave} — the dashed arrows of Figure 2.
        let items = toy().transpose(4);
        assert_eq!(items.row(0), &[0]);
        assert_eq!(items.row(1), &[0, 1]);
        assert_eq!(items.row(2), &[1]);
        assert_eq!(items.row(3), &[2, 3]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let csr = toy();
        let back = csr.transpose(4).transpose(4);
        assert_eq!(csr, back);
    }

    #[test]
    fn empty_rows_are_representable() {
        let mut b = CsrBuilder::new(3);
        b.push(2, 0, 1.0);
        let csr = b.build();
        assert_eq!(csr.row(0), &[] as &[u32]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[0]);
    }

    #[test]
    fn iter_edges_round_trips() {
        let csr = toy();
        let edges: Vec<_> = csr.iter_edges().collect();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(0, 1, 1.0)));
        assert!(edges.contains(&(3, 3, 1.0)));
    }

    #[test]
    fn sorted_parts_round_trip_and_reject_broken_rows() {
        let csr = toy();
        let offsets: Vec<usize> = (0..=csr.rows() as u32)
            .map(|r| csr.offsets[r as usize])
            .collect();
        let rebuilt =
            Csr::from_sorted_parts(offsets, csr.targets.to_vec(), csr.weights.to_vec()).unwrap();
        assert_eq!(rebuilt, csr);
        let empty = Csr::from_sorted_parts(vec![0, 0], vec![], vec![]).unwrap();
        assert_eq!(empty.rows(), 1);
        // Targets may fall where a row starts, empty rows between or not.
        let gapped = Csr::from_sorted_parts(vec![0, 2, 2, 4], vec![5, 9, 1, 3], vec![1.0; 4]);
        assert_eq!(gapped.unwrap().row(2), &[1, 3]);
        let err = Csr::from_sorted_parts(vec![0, 2, 2, 4], vec![5, 9, 3, 1], vec![1.0; 4]);
        assert_eq!(err.unwrap_err(), "row 2 is not strictly sorted");
        for (offsets, targets, weights) in [
            (vec![], vec![], vec![]),
            (vec![1, 1], vec![0], vec![1.0]),
            (vec![0, 2], vec![0, 1], vec![1.0]),
            (vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0]),
            (vec![0, 2], vec![3, 3], vec![1.0, 1.0]),
            (vec![0, 2], vec![4, 1], vec![1.0, 1.0]),
        ] {
            assert!(
                Csr::from_sorted_parts(offsets.clone(), targets, weights).is_err(),
                "{offsets:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_row_panics() {
        let mut b = CsrBuilder::new(2);
        b.push(2, 0, 1.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// CSR construction preserves the edge multiset (with duplicate
            /// merging) regardless of insertion order.
            #[test]
            fn build_matches_btreemap_model(
                edges in proptest::collection::vec((0u32..20, 0u32..30, 1u32..5), 0..200)
            ) {
                let mut b = CsrBuilder::new(20);
                let mut model: BTreeMap<(u32, u32), f32> = BTreeMap::new();
                for (r, t, w) in edges {
                    let w = w as f32;
                    b.push(r, t, w);
                    *model.entry((r, t)).or_insert(0.0) += w;
                }
                let csr = b.build();
                let got: BTreeMap<(u32, u32), f32> =
                    csr.iter_edges().map(|(r, t, w)| ((r, t), w)).collect();
                prop_assert_eq!(got, model);
                // Rows sorted.
                for r in 0..csr.rows() as u32 {
                    prop_assert!(csr.row(r).windows(2).all(|w| w[0] < w[1]));
                }
            }

            /// Transposition is an involution on the edge set.
            #[test]
            fn transpose_involution(
                edges in proptest::collection::vec((0u32..15, 0u32..25, 1u32..3), 0..150)
            ) {
                let mut b = CsrBuilder::new(15);
                for &(r, t, w) in &edges {
                    b.push(r, t, w as f32);
                }
                let csr = b.build();
                let tt = csr.transpose(25).transpose(15);
                prop_assert_eq!(csr, tt);
            }
        }
    }
}
