//! Streaming distribution sketches for sublinear observability.
//!
//! [`CountCells`] — *sharded counter cells* over a bounded integer
//! domain: one cell per possible value, maintained incrementally by the
//! producer (`incr`/`decr`/`shift` at mutation sites). Quantile queries
//! walk the cells, so a sample costs O(domain) instead of
//! O(population · log population) for the sort-based full scan it
//! replaces. Results are **exact**: `value_at_rank` agrees with indexing
//! the sorted per-item vector.
//!
//! # Determinism
//!
//! The cells read no clock and draw no randomness; they are a pure
//! function of their mutation sequence, which is what lets them live
//! inside the telemetry path without perturbing same-seed runs.

// bt-lint: allow-file(panic-index) — `CountCells` indexes its cells by
// value; a value outside the fixed domain is a producer bug and panics,
// as the mutators document. The property suite in tests/sketch_props.rs
// hammers it with arbitrary mutation sequences.

/// Exact value-indexed counter cells over the domain `0..=max_value`.
///
/// The producer moves counts between cells as the underlying items
/// mutate; readers answer rank/quantile queries by walking the cells.
///
/// # Example
///
/// ```
/// use bt_obs::CountCells;
///
/// let mut cells = CountCells::new(10);
/// cells.incr(3);
/// cells.incr(7);
/// cells.incr(7);
/// assert_eq!(cells.total(), 3);
/// assert_eq!(cells.value_at_rank(0), 3);
/// assert_eq!(cells.value_at_rank(2), 7);
/// cells.shift(7, 8); // one item went from 7 to 8
/// assert_eq!(cells.value_at_rank(2), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountCells {
    cells: Vec<u64>,
    total: u64,
}

impl CountCells {
    /// Creates empty cells over `0..=max_value`.
    #[must_use]
    pub fn new(max_value: u32) -> CountCells {
        CountCells {
            cells: vec![0; max_value as usize + 1],
            total: 0,
        }
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(&self) -> u32 {
        (self.cells.len() - 1) as u32
    }

    /// Number of items currently tracked.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-value counts (index = value).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.cells
    }

    /// Adds one item with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the domain.
    pub fn incr(&mut self, value: u32) {
        self.cells[value as usize] += 1;
        self.total += 1;
    }

    /// Removes one item with `value`.
    ///
    /// # Panics
    ///
    /// Panics if no item with `value` is tracked (the producer lost
    /// sync with the underlying population).
    pub fn decr(&mut self, value: u32) {
        let cell = &mut self.cells[value as usize];
        assert!(*cell > 0, "count cell underflow at value {value}");
        *cell -= 1;
        self.total -= 1;
    }

    /// Moves one item from `from` to `to` (its value changed).
    ///
    /// # Panics
    ///
    /// Panics if no item with value `from` is tracked.
    pub fn shift(&mut self, from: u32, to: u32) {
        let cell = &mut self.cells[from as usize];
        assert!(*cell > 0, "count cell underflow at value {from}");
        *cell -= 1;
        self.cells[to as usize] += 1;
    }

    /// Value of the `rank`-th item (0-based) in ascending sorted order —
    /// exactly `sorted_values[rank]` for the equivalent sorted vector.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= total()`.
    #[must_use]
    pub fn value_at_rank(&self, rank: u64) -> u32 {
        assert!(rank < self.total, "rank {rank} out of {} items", self.total);
        let mut seen = 0u64;
        for (value, &count) in self.cells.iter().enumerate() {
            seen += count;
            if seen > rank {
                return value as u32;
            }
        }
        // The loop sums every cell, so `seen == total` afterwards and
        // the assert above already guaranteed `rank < total`.
        // bt-lint: allow(panic-macro) — structurally unreachable, see above
        unreachable!("total() covers all cells")
    }

    /// Quantile under the telemetry convention used by the full-scan
    /// path it replaces: the item at rank `round((total − 1) · fraction)`.
    /// Returns `None` when empty.
    #[must_use]
    pub fn quantile(&self, fraction: f64) -> Option<u32> {
        if self.total == 0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((self.total - 1) as f64 * fraction).round() as u64;
        Some(self.value_at_rank(rank.min(self.total - 1)))
    }

    /// Sum of all tracked values (`Σ value · count`). O(domain).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.cells
            .iter()
            .enumerate()
            .map(|(value, &count)| value as u64 * count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_match_sorted_vector() {
        let values = [3u32, 0, 7, 7, 2, 9, 0, 4];
        let mut cells = CountCells::new(10);
        for &v in &values {
            cells.incr(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for (rank, &v) in sorted.iter().enumerate() {
            assert_eq!(cells.value_at_rank(rank as u64), v);
        }
        assert_eq!(cells.total(), 8);
        assert_eq!(cells.sum(), values.iter().map(|&v| u64::from(v)).sum());
    }

    #[test]
    fn cells_quantile_matches_index_convention() {
        let values = [5u32, 1, 3, 8, 8, 2, 0];
        let mut cells = CountCells::new(8);
        for &v in &values {
            cells.incr(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for &f in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((sorted.len() - 1) as f64 * f).round() as usize;
            assert_eq!(cells.quantile(f), Some(sorted[idx]), "fraction {f}");
        }
        assert_eq!(CountCells::new(3).quantile(0.5), None);
    }

    #[test]
    fn cells_shift_and_decr_track_mutations() {
        let mut cells = CountCells::new(4);
        cells.incr(0);
        cells.incr(0);
        cells.shift(0, 1);
        cells.shift(1, 2);
        assert_eq!(cells.counts(), &[1, 0, 1, 0, 0]);
        cells.decr(2);
        assert_eq!(cells.total(), 1);
        assert_eq!(cells.value_at_rank(0), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cells_decr_empty_value_panics() {
        CountCells::new(4).decr(2);
    }
}
