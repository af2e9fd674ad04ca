//! Property suite for the streaming sketches: `CountCells` must agree
//! exactly with a sorted-vector oracle under arbitrary incr/shift/decr
//! mutation sequences.

use bt_obs::CountCells;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cells_agree_with_sorted_oracle(
        ops in prop::collection::vec((0u32..3, 0usize..64), 1..300),
    ) {
        const DOMAIN: u32 = 16;
        let mut cells = CountCells::new(DOMAIN);
        let mut items: Vec<u32> = Vec::new();
        for &(op, pick) in &ops {
            match op {
                // Arrival: a new item at value 0.
                0 => {
                    cells.incr(0);
                    items.push(0);
                }
                // Progress: one existing item moves up a value.
                1 => {
                    let candidates: Vec<usize> = (0..items.len())
                        .filter(|&i| items[i] < DOMAIN)
                        .collect();
                    if let Some(&i) = candidates.get(pick % candidates.len().max(1)) {
                        cells.shift(items[i], items[i] + 1);
                        items[i] += 1;
                    }
                }
                // Departure: one existing item leaves.
                _ => {
                    if !items.is_empty() {
                        let i = pick % items.len();
                        let v = items.swap_remove(i);
                        cells.decr(v);
                    }
                }
            }
        }
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert_eq!(cells.total(), sorted.len() as u64);
        for (rank, &value) in sorted.iter().enumerate() {
            prop_assert_eq!(cells.value_at_rank(rank as u64), value);
        }
        for &fraction in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let expected = if sorted.is_empty() {
                None
            } else {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let idx = ((sorted.len() - 1) as f64 * fraction).round() as usize;
                Some(sorted[idx])
            };
            prop_assert_eq!(cells.quantile(fraction), expected);
        }
    }
}
