//! The tracker: peer registry and random peer handout.
//!
//! Mirrors the paper's §2.1 description: a joining peer obtains a random
//! peer list from the tracker, refreshes it on periodic contact, and — in
//! the §7.1 *shake* extension — can request an entirely fresh random set.
//!
//! Peers register in arrival order, and arrival order is id order (the
//! store issues sequence numbers in increasing order), so the alive list
//! is always sorted and a peer's rank is one binary search. A handout
//! samples *positions* of the filtered candidate list (alive peers minus
//! the requester and its exclusions) lazily instead of materialising it:
//! O(s·log N + count·s) per call for an exclusion list of length s and
//! `count ≤ s` (every engine caller asks for at most s), against O(N·s)
//! for filter-then-shuffle. The draw sequence is unchanged (the same
//! `gen_range` calls in the same order with the same bounds), so every
//! handout, and with it every run, is bit-identical to the
//! filter-then-shuffle sampler it replaced.

use rand::Rng;

use crate::peer::PeerId;

/// The swarm tracker. Keeps the set of alive peers in join order (which
/// keeps handouts deterministic for a given RNG stream); join order is
/// also id order, so the list is sorted.
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    alive: Vec<PeerId>,
}

impl Tracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Tracker::default()
    }

    /// Number of registered peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether no peers are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Registers a newly arrived peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer is already registered (identifiers are unique),
    /// or if it does not arrive after every registered peer: handouts rely
    /// on the alive list being sorted by id.
    pub fn register(&mut self, id: PeerId) {
        if let Some(&last) = self.alive.last() {
            assert!(last != id, "{id} registered twice with the tracker");
            assert!(
                last < id,
                "{id} registered after {last}, out of arrival order"
            );
        }
        self.alive.push(id);
    }

    /// Deregisters a departing peer. Returns `true` if it was registered.
    pub fn deregister(&mut self, id: PeerId) -> bool {
        match self.alive.binary_search(&id) {
            Ok(i) => {
                self.alive.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The alive peers in join order.
    #[must_use]
    pub fn peers(&self) -> &[PeerId] {
        &self.alive
    }

    /// Hands out up to `count` distinct random peers, excluding
    /// `requester` and anything in `exclude`, into `out`: the buffer is
    /// cleared and left holding the sampled peers, and its capacity is
    /// reused across calls.
    ///
    /// Sampling is a partial Fisher–Yates over the filtered candidate
    /// list (alive peers in join order, minus the requester and the
    /// exclusions), so the result is uniform without replacement. The
    /// list is never built: positions are mapped to alive indices through
    /// the sorted ranks of the skipped peers, and the few positions the
    /// shuffle has swapped are kept in a short list sorted by position.
    pub fn handout_into<R: Rng + ?Sized>(
        &self,
        out: &mut Vec<PeerId>,
        requester: PeerId,
        exclude: &[PeerId],
        count: usize,
        rng: &mut R,
    ) {
        out.clear();
        // Alive indices of the skipped peers, sorted and deduplicated;
        // exclusions that are not registered skip nothing.
        let mut skip = Vec::with_capacity(exclude.len() + 1);
        skip.extend(
            std::iter::once(&requester)
                .chain(exclude)
                .filter_map(|p| self.alive.binary_search(p).ok()),
        );
        skip.sort_unstable();
        skip.dedup();
        let len = self.alive.len() - skip.len();
        let take = count.min(len);
        // `skip[k] - k` counts the candidates before the k-th skipped
        // index. It is nondecreasing, so the number of skipped indices
        // before the candidate at filtered position `pos` is one binary
        // search.
        for (k, s) in skip.iter_mut().enumerate() {
            *s -= k;
        }
        let below = skip;
        let at = |pos: usize| self.alive[pos + below.partition_point(|&b| b <= pos)];
        // (position, peer) for positions the shuffle has written to, sorted
        // by position. Entries before `head` are at positions already
        // handed out.
        let mut moved: Vec<(usize, PeerId)> = Vec::with_capacity(take);
        let mut head = 0;
        for i in 0..take {
            let j = rng.gen_range(i..len);
            // The value at position i, the smallest position not yet
            // handed out.
            let here = match moved.get(head) {
                Some(&(p, id)) if p == i => {
                    head += 1;
                    id
                }
                _ => at(i),
            };
            if j == i {
                out.push(here);
                continue;
            }
            // Swap: hand out the value at j, which now holds `here`.
            match moved[head..].binary_search_by_key(&j, |&(p, _)| p) {
                Ok(k) => out.push(std::mem::replace(&mut moved[head + k].1, here)),
                Err(k) => {
                    out.push(at(j));
                    moved.insert(head + k, (j, here));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The filter-then-shuffle sampler `handout_into` replaced: copy every
    /// candidate, then run a partial Fisher–Yates over the copy. The
    /// oracle for output and RNG consumption.
    fn reference_handout<R: Rng + ?Sized>(
        alive: &[PeerId],
        requester: PeerId,
        exclude: &[PeerId],
        count: usize,
        rng: &mut R,
    ) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = alive
            .iter()
            .copied()
            .filter(|&p| p != requester && !exclude.contains(&p))
            .collect();
        let take = count.min(out.len());
        for i in 0..take {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(take);
        out
    }

    fn ids(seqs: &[u64]) -> Vec<PeerId> {
        seqs.iter().copied().map(PeerId::synthetic).collect()
    }

    fn tracker_of(n: u64) -> Tracker {
        let mut t = Tracker::new();
        for i in 0..n {
            t.register(PeerId::synthetic(i));
        }
        t
    }

    #[test]
    fn register_and_deregister() {
        let mut t = Tracker::new();
        assert!(t.is_empty());
        t.register(PeerId::synthetic(1));
        t.register(PeerId::synthetic(2));
        assert_eq!(t.len(), 2);
        assert!(t.deregister(PeerId::synthetic(1)));
        assert!(!t.deregister(PeerId::synthetic(1)));
        assert_eq!(t.peers(), &[PeerId::synthetic(2)]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut t = Tracker::new();
        t.register(PeerId::synthetic(1));
        t.register(PeerId::synthetic(1));
    }

    #[test]
    #[should_panic(expected = "out of arrival order")]
    fn out_of_order_registration_panics() {
        let mut t = Tracker::new();
        t.register(PeerId::synthetic(1));
        t.register(PeerId::synthetic(3));
        t.register(PeerId::synthetic(2));
    }

    #[test]
    fn handout_excludes_requester_and_existing() {
        let t = tracker_of(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = Vec::new();
        t.handout_into(&mut got, PeerId::synthetic(0), &ids(&[1, 2]), 20, &mut rng);
        assert_eq!(got.len(), 7, "10 minus requester minus 2 excluded");
        assert!(!got.contains(&PeerId::synthetic(0)));
        assert!(!got.contains(&PeerId::synthetic(1)));
        assert!(!got.contains(&PeerId::synthetic(2)));
    }

    #[test]
    fn handout_is_without_replacement() {
        let t = tracker_of(50);
        let mut rng = StdRng::seed_from_u64(2);
        let mut got = Vec::new();
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 49, &mut rng);
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len());
    }

    #[test]
    fn handout_respects_count() {
        let t = tracker_of(30);
        let mut rng = StdRng::seed_from_u64(3);
        let mut got = Vec::new();
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 5, &mut rng);
        assert_eq!(got.len(), 5);
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 0, &mut rng);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn handout_covers_population_over_draws() {
        // Every candidate is reachable (uniformity smoke test).
        let t = tracker_of(6);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        let mut got = Vec::new();
        for _ in 0..200 {
            t.handout_into(&mut got, PeerId::synthetic(0), &[], 1, &mut rng);
            seen.extend(got.iter().copied());
        }
        assert_eq!(seen.len(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy sampler hands out exactly what filter-then-shuffle
        /// does and leaves the RNG at the same point.
        #[test]
        fn handout_matches_filter_then_shuffle(
            registered in 0u64..80,
            departed in prop::collection::btree_set(0u64..80, 0..40),
            exclude in prop::collection::vec(0u64..90, 0..16),
            duplicates in 0usize..4,
            requester_alive in prop::bool::ANY,
            pick in any::<u64>(),
            count_kind in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut t = tracker_of(registered);
            for &d in &departed {
                t.deregister(PeerId::synthetic(d));
            }
            let alive = t.peers().to_vec();
            // A requester that is registered, or one that departed or
            // never arrived.
            let requester = if requester_alive && !alive.is_empty() {
                alive[(pick % alive.len() as u64) as usize]
            } else {
                let gone: Vec<u64> = departed.iter().copied().filter(|&d| d < registered).collect();
                if gone.is_empty() || pick % 2 == 0 {
                    PeerId::synthetic(registered + pick % 5)
                } else {
                    PeerId::synthetic(gone[(pick % gone.len() as u64) as usize])
                }
            };
            // Exclusions mix alive, departed and never-registered ids,
            // with some repeated.
            let mut exclude = ids(&exclude);
            let repeat = duplicates.min(exclude.len());
            exclude.extend_from_within(..repeat);
            let len = alive
                .iter()
                .filter(|&&p| p != requester && !exclude.contains(&p))
                .count();
            let count = match count_kind {
                0 => 0,
                1 => len,
                2 => len + 1 + (pick % 7) as usize,
                _ => (pick % (len as u64 + 1)) as usize,
            };

            let mut expected_rng = StdRng::seed_from_u64(seed);
            let expected = reference_handout(&alive, requester, &exclude, count, &mut expected_rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut got = vec![PeerId::synthetic(u64::MAX)];
            t.handout_into(&mut got, requester, &exclude, count, &mut rng);
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(got.len(), count.min(len));
            prop_assert_eq!(rng.next_u64(), expected_rng.next_u64(), "RNG draw count differs");
        }
    }
}
