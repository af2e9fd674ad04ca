//! Piece exchange: one piece per direction per connection, executed as
//! a two-phase plan/commit stage.
//!
//! **Plan** (parallel, read-only): over an immutable [`CoreView`], every
//! connection pair gets a ranked candidate list per direction, drawn
//! from a stateless [`PlanStream`] keyed off run seed + round + the
//! pair's sequence numbers + direction. Worker threads only distribute
//! pairs across shards; since no decision depends on which shard made
//! it, the output is byte-identical at every `--threads` value and a
//! 1-shard plan equals an N-shard plan exactly.
//!
//! **Commit** (serial, RNG-free): applies decisions in canonical pair
//! order — live tradability re-check, candidate resolution against live
//! taken/possession state, block transfers, credits, budgets, audit,
//! cohort, piece-cell, and profiler events all land in deterministic
//! order.
//!
//! Candidates are ranked against *start-of-round* replication views:
//! the paper's peers select against the replication state advertised at
//! the start of the round, not against in-flight deliveries. The views
//! are the peer store's incrementally maintained neighbor-local counts
//! ([`crate::store::PeerStore::view`]); plan reads every view before
//! commit writes any, so no acquisition needs buffering. Block
//! continuity (finishing an in-flight partial piece) is resolved live
//! at commit — it depends on mid-round partial state but needs no
//! randomness.

use crate::engine::{CoreView, SwarmCore};
use crate::peer::{Peer, PeerId};
use crate::piece::Bitfield;
use crate::selection::{rank_pieces, PlanStream, RankScratch};
use crate::stages::RoundStage;

/// Executes the round's exchanges under strict tit-for-tat: every
/// connection swaps one piece in each direction, or nothing at all.
///
/// This is the engine's hot path, and all per-peer state lives in
/// slot-indexed scratch tables reused across rounds (the generational
/// store keeps slot indices dense, so the tables stay small):
///
/// * `taken` — pieces already claimed this round per peer;
/// * `budgets` — remaining upload budget (slow-peer bandwidth class);
/// * `plans` — per-pair ranked candidate lists from the plan phase;
/// * `scratch` — one ranking scratch per plan shard.
///
/// `stamp` marks which slots were initialized this round; stale entries
/// from earlier rounds are never read, so nothing needs clearing.
#[derive(Debug, Default)]
pub struct ExchangePieces {
    pairs: Vec<(PeerId, PeerId)>,
    stamp: Vec<u64>,
    taken: Vec<Vec<u32>>,
    budgets: Vec<u32>,
    plans: Vec<PairPlan>,
    scratch: Vec<RankScratch>,
    threads: u32,
}

/// The plan phase's output for one connection pair: a ranked candidate
/// list per download direction (`down_lo` = the lower-sequence peer
/// downloads from the higher, `down_hi` the reverse).
#[derive(Debug, Default)]
struct PairPlan {
    down_lo: Vec<u32>,
    down_hi: Vec<u32>,
}

/// Prefer finishing an in-flight partial piece the uploader has (block
/// continuity); otherwise the caller resolves a planned candidate.
fn continue_piece(downloader: &Peer, uploader_have: &Bitfield) -> Option<u32> {
    downloader
        .partial
        .keys()
        .copied()
        .filter(|&piece| uploader_have.contains(piece))
        .min()
}

/// Resolves the piece one direction of a pair actually downloads:
/// block continuity first, then the best planned candidate the
/// downloader neither holds nor has already claimed this round, then —
/// mirroring the serial fallback — the best unheld candidate even if
/// claimed elsewhere (duplicates are deduplicated on receipt).
fn resolve_candidate(
    downloader: &Peer,
    uploader_have: &Bitfield,
    candidates: &[u32],
    taken: &[u32],
) -> Option<u32> {
    if let Some(piece) = continue_piece(downloader, uploader_have) {
        return Some(piece);
    }
    candidates
        .iter()
        .copied()
        .find(|&c| !downloader.have.contains(c) && !taken.contains(&c))
        .or_else(|| {
            candidates
                .iter()
                .copied()
                .find(|&c| !downloader.have.contains(c))
        })
}

/// Plans one shard of connection pairs: per direction, a ranked
/// candidate list drawn from that direction's [`PlanStream`] against
/// the downloader's neighbor view.
fn plan_pairs_shard(
    view: CoreView<'_>,
    pairs: &[(PeerId, PeerId)],
    plans: &mut [PairPlan],
    scratch: &mut RankScratch,
) {
    let strategy = view.config.piece_selection;
    let seed = view.config.seed;
    // A downloader invalidates at most one candidate per other
    // connection (a claim or a mid-round acquisition), so k + 1 ranked
    // candidates always leave a usable one when any exists.
    let limit = view.config.max_connections as usize + 1;
    for (&(a, b), plan) in pairs.iter().zip(plans) {
        let peer_a = view.store.peer(a);
        let peer_b = view.store.peer(b);
        for (dir, down, mine, theirs, out) in [
            (0, a, peer_a, peer_b, &mut plan.down_lo),
            (1, b, peer_b, peer_a, &mut plan.down_hi),
        ] {
            let mut stream = PlanStream::pair(seed, view.round, a.seq(), b.seq(), dir);
            rank_pieces(
                strategy,
                &mine.have,
                &theirs.have,
                view.store.view(down),
                limit,
                &mut stream,
                scratch,
                out,
            );
        }
    }
}

impl ExchangePieces {
    /// The read-only plan phase: initializes the round's scratch tables
    /// and ranks candidate pieces for every pair direction — sharded
    /// across the configured worker count. Returns the bitfield words
    /// read and the remaining-list entries scanned while ranking.
    fn plan(&mut self, core: &SwarmCore) -> (u64, u64) {
        let round = core.round;
        let view = core.view();

        // Serial prepare walk: stamp the slots involved this round and
        // reset their budgets and claim lists.
        let capacity = view.store.capacity();
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.taken.resize_with(capacity, Vec::new);
            self.budgets.resize(capacity, 0);
        }
        for &(a, b) in &self.pairs {
            for id in [a, b] {
                let slot = id.slot() as usize;
                if self.stamp[slot] == round {
                    continue;
                }
                self.stamp[slot] = round;
                // Heterogeneous bandwidth: slow peers can serve only a
                // bounded number of block-transfers per round.
                self.budgets[slot] = if view.store.peer(id).slow {
                    view.config.slow_upload_budget
                } else {
                    u32::MAX
                };
                self.taken[slot].clear();
            }
        }

        // Parallel pair planning over the immutable neighbor views.
        self.plans.resize_with(self.pairs.len(), PairPlan::default);
        let workers = (self.threads.max(1) as usize).min(self.pairs.len().max(1));
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, RankScratch::default);
        }
        if workers <= 1 {
            plan_pairs_shard(view, &self.pairs, &mut self.plans, &mut self.scratch[0]);
        } else {
            let shard = self.pairs.len().div_ceil(workers).max(1);
            let pairs = &self.pairs;
            std::thread::scope(|scope| {
                for ((pair_shard, plan_shard), scratch) in pairs
                    .chunks(shard)
                    .zip(self.plans.chunks_mut(shard))
                    .zip(self.scratch.iter_mut())
                {
                    scope.spawn(move || plan_pairs_shard(view, pair_shard, plan_shard, scratch));
                }
            });
        }
        // Fixed lane-order merge (summation commutes, but the order is
        // pinned anyway so the merge never becomes scheduling-visible).
        self.scratch
            .iter_mut()
            .fold((0, 0), |(words, scans), lane| {
                (
                    words + std::mem::take(&mut lane.words),
                    scans + std::mem::take(&mut lane.scans),
                )
            })
    }

    /// The serial, RNG-free commit phase: applies planned decisions in
    /// canonical pair order. Returns the number of block transfers and
    /// the bitfield words the live tradability re-checks read.
    fn commit(&mut self, core: &mut SwarmCore) -> (u64, u64) {
        let mut transfers = 0u64;
        let mut words = 0u64;
        for i in 0..self.pairs.len() {
            let (a, b) = self.pairs[i];
            let (slot_a, slot_b) = (a.slot() as usize, b.slot() as usize);
            // Strict tit-for-tat needs upload budget on both sides.
            if self.budgets[slot_a] == 0 || self.budgets[slot_b] == 0 {
                continue;
            }
            // Re-check tradability live: earlier commits this round may
            // have exhausted the novelty.
            let (tradable, read) = core.store.peer(a).have.trade_scan(&core.store.peer(b).have);
            words += read;
            if !tradable {
                core.store.peer_mut(a).connections.retain(|&p| p != b);
                core.store.peer_mut(b).connections.retain(|&p| p != a);
                core.audit.conn_closed += 1;
                core.cohort.slot(core.round, a.seq(), b.seq(), false);
                core.cohort.slot(core.round, b.seq(), a.seq(), false);
                continue;
            }
            let wanted_a = resolve_candidate(
                core.store.peer(a),
                &core.store.peer(b).have,
                &self.plans[i].down_lo,
                &self.taken[slot_a],
            );
            let wanted_b = resolve_candidate(
                core.store.peer(b),
                &core.store.peer(a).have,
                &self.plans[i].down_hi,
                &self.taken[slot_b],
            );
            // Strict tit-for-tat: the swap happens only if both
            // directions carry a block.
            let (Some(piece_a), Some(piece_b)) = (wanted_a, wanted_b) else {
                continue;
            };
            if core.receive_block(a, piece_a) {
                core.store.peer_mut(a).record_credit(b);
                core.cohort
                    .acquire(core.round, a.seq(), piece_a, bt_obs::acquire_source::EXCHANGE);
            }
            if core.receive_block(b, piece_b) {
                core.store.peer_mut(b).record_credit(a);
                core.cohort
                    .acquire(core.round, b.seq(), piece_b, bt_obs::acquire_source::EXCHANGE);
            }
            // One block moved in each direction.
            core.obs.pieces_exchanged.add(2);
            transfers += 2;
            core.profile.add_peer_work(a.seq(), 1);
            core.profile.add_peer_work(b.seq(), 1);
            self.taken[slot_a].push(piece_a);
            self.taken[slot_b].push(piece_b);
            self.budgets[slot_a] = self.budgets[slot_a].saturating_sub(1);
            self.budgets[slot_b] = self.budgets[slot_b].saturating_sub(1);
        }
        (transfers, words)
    }
}

// bt-stage: plan-reads(config, round, tracker), commit-writes(audit, cohort, obs, piece_cells, profile, replication, store)
impl RoundStage for ExchangePieces {
    fn name(&self) -> &'static str {
        "exchange"
    }

    fn timer_name(&self) -> &'static str {
        "round.exchange"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        if !core.store.views_live() {
            // Lazy first build: joins and endowment before the first
            // exchange pay for one rebuild, not per-event upkeep.
            core.store.build_views(core.config.pieces);
        }
        core.collect_connection_pairs(&mut self.pairs);
        let (plan_words, rank_scans) = self.plan(core);
        let (transfers, commit_words) = self.commit(core);
        core.profile
            .add_work("exchange.bitfield_words", plan_words + commit_words);
        core.profile.add_work("exchange.rank_scans", rank_scans);
        core.profile.add_work("exchange.piece_transfers", transfers);
    }

    fn set_threads(&mut self, threads: u32) {
        self.threads = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_unclaimed_candidates_then_falls_back_to_claimed() {
        let mut downloader = Peer::new(PeerId::synthetic(0), 4, 0);
        downloader.acquire(3, 0);
        let uploader = Bitfield::full(4);
        let resolve = |candidates: &[u32], taken: &[u32]| {
            resolve_candidate(&downloader, &uploader, candidates, taken)
        };
        assert_eq!(resolve(&[0, 1], &[0]), Some(1), "claimed piece skipped");
        assert_eq!(resolve(&[2], &[2]), Some(2), "all claimed: duplicate");
        assert_eq!(resolve(&[3], &[]), None, "held pieces never resolve");
    }
}
