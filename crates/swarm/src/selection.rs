//! Piece-selection strategies (§2.1): rarest-first and random-first.
//!
//! Ranking is generic over a [`Substream`] — a source of uniform picks.
//! The exchange plan phase feeds it a [`PlanStream`], a stateless
//! per-pair-direction SplitMix64 stream keyed off run identity alone so
//! that decisions are independent of worker count and shard layout.

use rand::Rng;

use crate::config::PieceSelection;
use crate::piece::{Bitfield, PieceId};

/// A source of uniform random picks for piece selection.
///
/// Implemented by the model RNG (`StdRng`) and by [`PlanStream`] (the
/// exchange plan phase). Keeping ranking generic over this trait —
/// rather than `rand::Rng` — lets the plan phase draw from
/// deterministic per-pair streams that never touch the serial model
/// RNG.
pub trait Substream {
    /// Returns a uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// May panic if `n == 0`; callers pick from non-empty candidate
    /// sets.
    fn pick(&mut self, n: usize) -> usize;
}

impl Substream for rand::rngs::StdRng {
    fn pick(&mut self, n: usize) -> usize {
        self.gen_range(0..n)
    }
}

/// A stateless SplitMix64 pick stream keyed from run identity.
///
/// The parallel exchange plan derives one stream per connection-pair
/// direction via [`PlanStream::pair`], chaining the run seed, round,
/// both peer sequence numbers, and the direction through the same
/// SplitMix64 mix `bt_des::SeedStream` uses for substream derivation.
/// Because the key depends only on *what* is being decided — never on
/// which worker or shard decides it — the resulting bytes are identical
/// at any `--threads` value, and a 1-shard plan equals an N-shard plan
/// bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct PlanStream {
    state: u64,
}

impl PlanStream {
    /// Derives the stream for one direction of a connection pair in one
    /// round: `lo`/`hi` are the canonical (sorted) peer sequence
    /// numbers and `dir` is 0 for the lo→hi download and 1 for hi→lo.
    #[must_use]
    pub fn pair(seed: u64, round: u64, lo: u64, hi: u64, dir: u64) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for salt in [round, lo, hi, dir] {
            h = splitmix64(h ^ salt);
        }
        PlanStream { state: h }
    }

    /// The next raw 64-bit draw (SplitMix64 sequence step).
    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }
}

impl Substream for PlanStream {
    fn pick(&mut self, n: usize) -> usize {
        // Modulo bias is ~n / 2^64 — negligible at piece-count scale.
        (self.next_u64() % n as u64) as usize
    }
}

/// SplitMix64 finalizer, mirroring `bt_des::rng`'s derivation mix so
/// plan streams and seed substreams share one well-studied permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scratch buffers [`rank_pieces`] reuses across calls, plus the work it
/// did: the exchange plan keeps one per shard, so ranking allocates
/// nothing per pair.
#[derive(Debug, Default)]
pub struct RankScratch {
    remaining: Vec<PieceId>,
    ties: Vec<usize>,
    /// Bitfield words read while listing the wanted pieces.
    pub words: u64,
    /// Remaining-list entries scanned while looking for rarest levels.
    pub scans: u64,
}

/// Ranks up to `limit` candidate pieces to download from a connected
/// peer, best first, into `out` (cleared first).
///
/// * `mine` — the downloader's bitfield;
/// * `theirs` — the uploader's bitfield;
/// * `replication` — per-piece replication counts over the downloader's
///   neighbor set (read by rarest-first only).
///
/// Each rank is drawn from the pieces not yet ranked: uniformly over
/// all of them for random-first, uniformly over those with the lowest
/// replication count for rarest-first. Rarest-first scans the remaining
/// list once per level: one pass collects the lowest count and its
/// positions in list order, then the level drains, the tie list
/// mirroring each `swap_remove` (the last entry moves into the hole),
/// so every pick draws with the same bound from the same list a
/// rescan would have built.
///
/// The exchange plan emits a ranked list per connection direction so
/// the serial commit can take the first candidate still valid against
/// live taken/possession state — a downloader invalidates at most
/// `max_connections` candidates in one round (one claim or acquisition
/// per other connection), so `limit = max_connections + 1` always
/// leaves a usable candidate when one exists.
///
/// # Example
///
/// ```
/// use bt_swarm::config::PieceSelection;
/// use bt_swarm::piece::Bitfield;
/// use bt_swarm::selection::{rank_pieces, PlanStream, RankScratch};
///
/// let mine = Bitfield::new(4);
/// let theirs = Bitfield::full(4);
/// let replication = [5, 1, 5, 5]; // piece 1 is rare
/// let mut stream = PlanStream::pair(0, 1, 0, 1, 0);
/// let mut scratch = RankScratch::default();
/// let mut ranked = Vec::new();
/// rank_pieces(
///     PieceSelection::RarestFirst,
///     &mine,
///     &theirs,
///     &replication,
///     2,
///     &mut stream,
///     &mut scratch,
///     &mut ranked,
/// );
/// assert_eq!(ranked[0], 1);
/// assert_eq!(ranked.len(), 2);
/// ```
///
/// # Panics
///
/// Panics if `strategy` is rarest-first, something is wanted, and
/// `replication` does not cover all pieces.
#[allow(clippy::too_many_arguments)]
pub fn rank_pieces<S: Substream + ?Sized>(
    strategy: PieceSelection,
    mine: &Bitfield,
    theirs: &Bitfield,
    replication: &[u16],
    limit: usize,
    rng: &mut S,
    scratch: &mut RankScratch,
    out: &mut Vec<PieceId>,
) {
    out.clear();
    let RankScratch {
        remaining,
        ties,
        words,
        scans,
    } = scratch;
    *words += mine.wanted_into(theirs, remaining);
    if remaining.is_empty() {
        return;
    }
    if strategy == PieceSelection::RandomFirst {
        while out.len() < limit && !remaining.is_empty() {
            let idx = rng.pick(remaining.len());
            out.push(remaining.swap_remove(idx));
        }
        return;
    }
    assert!(
        replication.len() == mine.len() as usize,
        "replication vector must cover all {} pieces",
        mine.len()
    );
    while out.len() < limit && !remaining.is_empty() {
        *scans += remaining.len() as u64;
        ties.clear();
        let mut min_rep = u16::MAX;
        for (i, &p) in remaining.iter().enumerate() {
            let rep = replication[p as usize];
            if rep < min_rep {
                min_rep = rep;
                ties.clear();
            }
            if rep == min_rep {
                ties.push(i);
            }
        }
        while out.len() < limit && !ties.is_empty() {
            let nth = rng.pick(ties.len());
            let idx = ties[nth];
            let last = remaining.len() - 1;
            out.push(remaining.swap_remove(idx));
            if ties.last() == Some(&last) {
                // The list's last entry is a tie: it moved into the hole
                // at `idx`, which keeps its place in position order (or
                // it was the pick itself, and `nth` is the last tie).
                ties.pop();
            } else {
                ties.remove(nth);
            }
        }
    }
}

/// Per-piece replication counts over a collection of bitfields (the view a
/// peer has of its neighbor set, and the quantity whose skew defines the
/// §6 entropy).
///
/// The engine no longer calls this on its hot paths: global counts come
/// from the incrementally maintained [`crate::replication::ReplicationIndex`],
/// and neighbor-local views from the peer store's view table. This
/// from-scratch rebuild is kept as the *oracle* the property tests and
/// [`crate::engine::Swarm::assert_invariants`] check the index against.
#[must_use]
pub fn replication_counts<'a, I>(pieces: u32, fields: I) -> Vec<u64>
where
    I: IntoIterator<Item = &'a Bitfield>,
{
    let mut counts = vec![0u64; pieces as usize];
    for field in fields {
        for p in field.iter() {
            counts[p as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bf(pieces: u32, have: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(pieces);
        for &p in have {
            b.set(p);
        }
        b
    }

    /// Ranks with a fresh scratch; returns the ranked list.
    fn rank<S: Substream>(
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        replication: &[u16],
        limit: usize,
        rng: &mut S,
    ) -> Vec<PieceId> {
        let mut out = vec![u32::MAX];
        rank_pieces(
            strategy,
            mine,
            theirs,
            replication,
            limit,
            rng,
            &mut RankScratch::default(),
            &mut out,
        );
        out
    }

    /// The ranker as it was before the one-scan rewrite: per rank, one
    /// pass for the minimum, one to count its ties, one to find the
    /// picked tie. The property test below holds the rewrite to it.
    fn reference_rank<S: Substream>(
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        replication: &[u16],
        limit: usize,
        rng: &mut S,
    ) -> Vec<PieceId> {
        let mut out = Vec::new();
        let mut remaining = Vec::new();
        mine.wanted_into(theirs, &mut remaining);
        while out.len() < limit && !remaining.is_empty() {
            let idx = match strategy {
                PieceSelection::RandomFirst => rng.pick(remaining.len()),
                PieceSelection::RarestFirst => {
                    let min_rep = remaining
                        .iter()
                        .map(|&p| replication[p as usize])
                        .min()
                        .expect("remaining is non-empty");
                    let ties = remaining
                        .iter()
                        .filter(|&&p| replication[p as usize] == min_rep)
                        .count();
                    let nth = rng.pick(ties);
                    remaining
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| replication[p as usize] == min_rep)
                        .nth(nth)
                        .map(|(i, _)| i)
                        .expect("tie index within tie count")
                }
            };
            out.push(remaining.swap_remove(idx));
        }
        out
    }

    #[test]
    fn rarest_first_picks_minimum_replication() {
        let mine = bf(5, &[0]);
        let theirs = bf(5, &[1, 2, 3]);
        let replication = [9, 4, 1, 4, 9];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let p = rank(
                PieceSelection::RarestFirst,
                &mine,
                &theirs,
                &replication,
                1,
                &mut rng,
            );
            assert_eq!(p, vec![2]);
        }
    }

    #[test]
    fn rarest_first_breaks_ties_within_minimum() {
        let mine = bf(4, &[]);
        let theirs = bf(4, &[0, 1, 2, 3]);
        let replication = [2, 2, 7, 7];
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = rank(
                PieceSelection::RarestFirst,
                &mine,
                &theirs,
                &replication,
                1,
                &mut rng,
            )[0];
            assert!(p < 2, "only pieces 0 and 1 are rarest, got {p}");
            seen.insert(p);
        }
        assert_eq!(seen.len(), 2, "both ties should be hit eventually");
    }

    #[test]
    fn random_first_covers_all_wanted() {
        let mine = bf(6, &[0]);
        let theirs = bf(6, &[1, 2, 3, 4, 5]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(
                rank(
                    PieceSelection::RandomFirst,
                    &mine,
                    &theirs,
                    &[],
                    1,
                    &mut rng,
                )[0],
            );
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn nothing_to_offer_ranks_nothing() {
        let mine = bf(4, &[0, 1]);
        let theirs = bf(4, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        for strategy in [PieceSelection::RandomFirst, PieceSelection::RarestFirst] {
            assert!(rank(strategy, &mine, &theirs, &[], 1, &mut rng).is_empty());
        }
    }

    #[test]
    fn plan_stream_is_reproducible() {
        let mut a = PlanStream::pair(42, 3, 10, 17, 0);
        let mut b = PlanStream::pair(42, 3, 10, 17, 0);
        let draws_a: Vec<usize> = (0..16).map(|_| a.pick(1000)).collect();
        let draws_b: Vec<usize> = (0..16).map(|_| b.pick(1000)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().all(|&d| d < 1000));
    }

    #[test]
    fn plan_stream_keys_separate_streams() {
        let base: Vec<usize> = {
            let mut s = PlanStream::pair(42, 3, 10, 17, 0);
            (0..8).map(|_| s.pick(usize::MAX)).collect()
        };
        for key in [
            PlanStream::pair(43, 3, 10, 17, 0), // seed
            PlanStream::pair(42, 4, 10, 17, 0), // round
            PlanStream::pair(42, 3, 11, 17, 0), // lo
            PlanStream::pair(42, 3, 10, 18, 0), // hi
            PlanStream::pair(42, 3, 10, 17, 1), // direction
        ] {
            let mut s = key;
            let draws: Vec<usize> = (0..8).map(|_| s.pick(usize::MAX)).collect();
            assert_ne!(draws, base, "key {key:?} must not collide with base");
        }
    }

    #[test]
    fn plan_stream_drives_selection() {
        // rank_pieces accepts a PlanStream wherever it accepts the model
        // RNG, and the pick lands in the wanted set.
        let mine = bf(8, &[0]);
        let theirs = bf(8, &[1, 2, 3]);
        let mut stream = PlanStream::pair(7, 1, 0, 1, 0);
        for _ in 0..32 {
            let p = rank(
                PieceSelection::RandomFirst,
                &mine,
                &theirs,
                &[],
                1,
                &mut stream,
            );
            assert!([1, 2, 3].contains(&p[0]));
        }
    }

    #[test]
    fn rank_pieces_lists_distinct_wanted_pieces() {
        let mine = bf(8, &[0]);
        let theirs = bf(8, &[1, 2, 3, 4]);
        let mut stream = PlanStream::pair(1, 1, 0, 1, 0);
        let mut sorted = rank(
            PieceSelection::RandomFirst,
            &mine,
            &theirs,
            &[],
            10,
            &mut stream,
        );
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4], "all wanted pieces, each once");
    }

    #[test]
    fn rank_pieces_respects_limit_and_empty_want() {
        let mine = bf(8, &[]);
        let theirs = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut stream = PlanStream::pair(2, 1, 0, 1, 0);
        let out = rank(
            PieceSelection::RandomFirst,
            &mine,
            &theirs,
            &[],
            3,
            &mut stream,
        );
        assert_eq!(out.len(), 3);
        let full = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let out = rank(
            PieceSelection::RandomFirst,
            &full,
            &theirs,
            &[],
            3,
            &mut stream,
        );
        assert!(out.is_empty(), "nothing wanted clears the output");
    }

    #[test]
    fn rank_pieces_orders_rarest_first() {
        let mine = bf(6, &[]);
        let theirs = bf(6, &[0, 1, 2, 3]);
        let replication = [9, 1, 5, 5, 0, 0];
        let mut stream = PlanStream::pair(3, 1, 0, 1, 0);
        let out = rank(
            PieceSelection::RarestFirst,
            &mine,
            &theirs,
            &replication,
            10,
            &mut stream,
        );
        assert_eq!(out[0], 1, "unique rarest piece ranks first");
        assert_eq!(out[3], 0, "most replicated ranks last");
        assert!(out[1] == 2 || out[1] == 3, "ties fill the middle ranks");
    }

    #[test]
    fn rank_pieces_counts_words_and_level_scans() {
        let mine = bf(70, &[]);
        let theirs = bf(70, &[1, 2, 3, 65]);
        let replication = [[0u16; 65].as_slice(), &[0; 5]].concat();
        let mut scratch = RankScratch::default();
        let mut out = Vec::new();
        let mut stream = PlanStream::pair(4, 1, 0, 1, 0);
        rank_pieces(
            PieceSelection::RarestFirst,
            &mine,
            &theirs,
            &replication,
            10,
            &mut stream,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 4);
        assert_eq!(scratch.words, 4, "two words of each field");
        assert_eq!(scratch.scans, 4, "one level: a single scan of four entries");
    }

    #[test]
    fn replication_counts_sum() {
        let fields = [bf(4, &[0, 1]), bf(4, &[1, 2]), bf(4, &[1])];
        let counts = replication_counts(4, fields.iter());
        assert_eq!(counts, vec![1, 3, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "replication vector")]
    fn rarest_first_checks_replication_length() {
        let mine = bf(4, &[]);
        let theirs = bf(4, &[0]);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = rank(
            PieceSelection::RarestFirst,
            &mine,
            &theirs,
            &[1, 2],
            1,
            &mut rng,
        );
    }

    /// Replication counts that make many ties: a few small levels, or
    /// the full u16 range, with the last remaining entry forced onto
    /// the lowest level or off it.
    fn replication_strategy() -> impl Strategy<Value = Vec<u16>> {
        (
            prop::collection::vec(any::<u16>(), 1..150),
            0u8..4,
            prop::bool::ANY,
        )
            .prop_map(|(raw, levels, last_ties)| {
                let mut reps: Vec<u16> = match levels {
                    0 => raw.iter().map(|&r| r % 2).collect(),
                    1 => raw.iter().map(|&r| r % 3).collect(),
                    2 => raw.iter().map(|&r| (r % 4) * 1000).collect(),
                    _ => raw,
                };
                let min = reps.iter().copied().min().unwrap_or(0);
                if let Some(last) = reps.last_mut() {
                    *last = if last_ties {
                        min
                    } else {
                        min.saturating_add(1)
                    };
                }
                reps
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-scan ranker returns exactly what the k+1-pass ranker
        /// does and leaves the stream at the same point.
        #[test]
        fn rank_matches_k_plus_one_pass_ranker(
            replication in replication_strategy(),
            mine_bits in prop::collection::vec(0u8..10, 150),
            theirs_bits in prop::collection::vec(0u8..10, 150),
            theirs_inside_mine in prop::bool::ANY,
            limit in 0usize..10,
            rarest in prop::bool::ANY,
            key in any::<u64>(),
        ) {
            let pieces = replication.len() as u32;
            let mut mine = Bitfield::new(pieces);
            let mut theirs = Bitfield::new(pieces);
            for p in 0..pieces {
                let mine_has = mine_bits[p as usize] < 3;
                if mine_has {
                    mine.set(p);
                }
                // Nothing wanted: the uploader holds a subset of mine.
                if theirs_bits[p as usize] < 6 && (!theirs_inside_mine || mine_has) {
                    theirs.set(p);
                }
            }
            let strategy = if rarest {
                PieceSelection::RarestFirst
            } else {
                PieceSelection::RandomFirst
            };
            let mut expected_stream = PlanStream::pair(key, 1, 2, 3, 0);
            let expected = reference_rank(strategy, &mine, &theirs, &replication, limit, &mut expected_stream);
            let mut stream = PlanStream::pair(key, 1, 2, 3, 0);
            let got = rank(strategy, &mine, &theirs, &replication, limit, &mut stream);
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(stream.pick(usize::MAX), expected_stream.pick(usize::MAX), "draw count differs");
        }
    }
}
