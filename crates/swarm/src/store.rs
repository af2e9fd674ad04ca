//! Generational peer storage.
//!
//! [`PeerStore`] is a slab with a free-list: departed peers leave holes
//! that later arrivals fill, so the backing vector stays dense no matter
//! how much churn the swarm sees. Every slot carries a *generation*
//! counter that is bumped on removal, and every [`PeerId`] embeds the
//! generation it was issued under — an id held across a departure stops
//! resolving instead of silently aliasing whichever newcomer inherited
//! the slot. Stale-id bugs thereby become `None` at the access site
//! rather than corrupted simulation state.
//!
//! Identity, ordering, hashing, display, and serialization of a
//! [`PeerId`] all use only its *sequence number* — the arrival index the
//! tracker hands out, unique for the whole run. The slot and generation
//! are routing detail private to the store. This matters for
//! determinism: everything the engine sorts, samples, or serializes
//! (connection pairs, credit maps, observer windows, telemetry) behaves
//! exactly as if ids were plain arrival numbers, regardless of which
//! slot a peer happens to occupy.
//!
//! The store also keeps every peer's *neighbor-local replication view*
//! ([`PeerStore::view`]): per piece, how many of the peer's neighbors
//! hold it — the counts rarest-first ranks against (§2.1). The views are
//! one flat slot-indexed `u16` table, updated by the engine at every
//! site that changes a neighbor set or a bitfield. The table is built
//! lazily from scratch ([`PeerStore::build_views`]); until then every
//! upkeep call is a no-op.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::peer::Peer;
use crate::piece::Bitfield;

/// Identifier of a peer: an arrival sequence number plus the slot and
/// generation that make it resolvable in a [`PeerStore`].
///
/// Two ids are equal exactly when their sequence numbers are equal;
/// ordering and hashing follow suit. Serialization emits only the
/// sequence number, so on-disk formats are identical to a plain integer
/// id.
#[derive(Debug, Clone, Copy)]
pub struct PeerId {
    seq: u64,
    slot: u32,
    generation: u32,
}

impl PeerId {
    /// Sentinel slot/generation for ids that were never issued by a
    /// store (deserialized or test-constructed). They compare and
    /// display normally but never resolve.
    const DETACHED: u32 = u32::MAX;

    /// Builds a detached id carrying only a sequence number — for
    /// tests, tools, and deserialization. It participates in equality,
    /// ordering, and display like any other id, but no store will
    /// resolve it.
    #[must_use]
    pub const fn synthetic(seq: u64) -> Self {
        PeerId {
            seq,
            slot: Self::DETACHED,
            generation: Self::DETACHED,
        }
    }

    /// The run-unique arrival sequence number.
    #[must_use]
    pub const fn seq(self) -> u64 {
        self.seq
    }

    /// The slab slot this id routes to (meaningless for synthetic ids).
    #[must_use]
    pub(crate) const fn slot(self) -> u32 {
        self.slot
    }
}

impl PartialEq for PeerId {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PeerId {}

impl PartialOrd for PeerId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PeerId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

impl std::hash::Hash for PeerId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer#{}", self.seq)
    }
}

impl Serialize for PeerId {
    fn to_value(&self) -> Value {
        self.seq.to_value()
    }
}

impl Deserialize for PeerId {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        u64::from_value(value).map(PeerId::synthetic)
    }
}

/// One slab slot: a generation counter plus the peer currently housed
/// there, if any.
#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    peer: Option<Peer>,
}

/// Generational slab of peers.
///
/// Insertion reuses freed slots (LIFO), lookup checks the generation,
/// and removal bumps it. Iteration over occupied slots is dense:
/// `capacity()` tracks the high-water population, not total arrivals.
#[derive(Debug, Default)]
pub struct PeerStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    /// Lifetime count of slab lookups ([`get`](Self::get) /
    /// [`get_mut`](Self::get_mut)), for cost-attribution profiling. An
    /// atomic (relaxed) so read paths stay `&self` and the store stays
    /// `Sync` for sharded execution; wraps on overflow — consumers diff
    /// consecutive readings, so only deltas are meaningful.
    probes: std::sync::atomic::AtomicU64,
    /// Neighbor-local replication views, `view_width` counts per slot;
    /// entry `p` of a slot counts the occupant's neighbors holding piece
    /// `p`. Empty (`view_width == 0`) until [`build_views`](Self::build_views).
    views: Vec<u16>,
    view_width: usize,
    /// Lifetime count of view entries changed by upkeep (same delta
    /// semantics as `probes`).
    view_updates: u64,
}

impl Clone for PeerStore {
    fn clone(&self) -> Self {
        PeerStore {
            slots: self.slots.clone(),
            free: self.free.clone(),
            next_seq: self.next_seq,
            len: self.len,
            probes: std::sync::atomic::AtomicU64::new(self.probe_count()),
            views: self.views.clone(),
            view_width: self.view_width,
            view_updates: self.view_updates,
        }
    }
}

impl PeerStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        PeerStore::default()
    }

    /// Number of peers currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated — the bound on `PeerId::slot`
    /// values in circulation, useful for sizing slot-indexed scratch
    /// tables.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocates an id (fresh sequence number, first free slot) and
    /// stores the peer `f` builds for it.
    pub fn insert_with(&mut self, f: impl FnOnce(PeerId) -> Peer) -> PeerId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                assert!(slot < PeerId::DETACHED, "peer store slot space exhausted");
                self.slots.push(Slot {
                    generation: 0,
                    peer: None,
                });
                slot
            }
        };
        let id = PeerId {
            seq: self.next_seq,
            slot,
            generation: self.slots[slot as usize].generation,
        };
        self.next_seq += 1;
        self.slots[slot as usize].peer = Some(f(id));
        self.len += 1;
        if self.views_live() {
            // A reused slot still holds its last occupant's view.
            let w = self.view_width;
            let end = (slot as usize + 1) * w;
            if self.views.len() < end {
                self.views.resize(end, 0);
            }
            self.views[end - w..end].fill(0);
        }
        id
    }

    /// Resolves `id`, returning `None` for departed, stale, or
    /// synthetic ids.
    #[must_use]
    pub fn get(&self, id: PeerId) -> Option<&Peer> {
        self.probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot = self.slots.get(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.peer.as_ref()
    }

    /// Mutable variant of [`get`](Self::get).
    #[must_use]
    pub fn get_mut(&mut self, id: PeerId) -> Option<&mut Peer> {
        self.probes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.peer.as_mut()
    }

    /// Resolves an id that is known to be alive.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic — the
    /// engine treats that as a topology-bookkeeping bug, not a
    /// recoverable condition.
    #[must_use]
    pub fn peer(&self, id: PeerId) -> &Peer {
        self.get(id).expect("peer departed but was referenced")
    }

    /// Mutable variant of [`peer`](Self::peer).
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic.
    #[must_use]
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        self.get_mut(id).expect("peer departed but was referenced")
    }

    /// Whether `id` resolves to a live peer.
    #[must_use]
    pub fn contains(&self, id: PeerId) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the peer behind `id`, bumping the slot's
    /// generation so the id (and any copies of it) stop resolving.
    /// Returns `None` if the id is already dead.
    pub fn remove(&mut self, id: PeerId) -> Option<Peer> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let peer = slot.peer.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.len -= 1;
        Some(peer)
    }

    /// Lifetime number of slab lookups performed through
    /// [`get`](Self::get) / [`get_mut`](Self::get_mut) (and everything
    /// built on them). Wraps on overflow; diff consecutive readings to
    /// attribute probes to a code region.
    #[must_use]
    pub fn probe_count(&self) -> u64 {
        self.probes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether the view table has been built (upkeep is live).
    #[must_use]
    pub(crate) fn views_live(&self) -> bool {
        self.view_width > 0
    }

    /// The neighbor-local replication view of alive peer `id`: per
    /// piece, the number of its neighbors holding it. Empty before the
    /// table is built.
    #[must_use]
    pub fn view(&self, id: PeerId) -> &[u16] {
        let start = id.slot as usize * self.view_width;
        &self.views[start..start + self.view_width]
    }

    /// Lifetime number of view entries changed by upkeep. Wraps on
    /// overflow; diff consecutive readings to attribute updates to a
    /// code region.
    #[must_use]
    pub(crate) fn view_update_count(&self) -> u64 {
        self.view_updates
    }

    /// Rebuilds `id`'s view from scratch into `out` (one count per
    /// piece): the lazy first build's routine and the oracle upkeep is
    /// checked against.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive or `out` is shorter than a neighbor's
    /// bitfield.
    pub(crate) fn rebuild_view_into(&self, id: PeerId, out: &mut [u16]) {
        out.fill(0);
        for &n in &self.peer(id).neighbors {
            if let Some(other) = self.get(n) {
                shift_view(out, &other.have, true);
            }
        }
    }

    /// The whole view table rebuilt from scratch for `pieces` pieces —
    /// every occupied slot through [`rebuild_view_into`](Self::rebuild_view_into),
    /// zeros for free slots.
    fn rebuild_views(&self, pieces: u32) -> Vec<u16> {
        let w = pieces as usize;
        let mut table = vec![0u16; self.slots.len() * w];
        for (slot, row) in self.slots.iter().zip(table.chunks_exact_mut(w)) {
            if let Some(peer) = &slot.peer {
                self.rebuild_view_into(peer.id, row);
            }
        }
        table
    }

    /// Builds the view table from scratch for `pieces` pieces and turns
    /// upkeep on.
    pub(crate) fn build_views(&mut self, pieces: u32) {
        self.views = self.rebuild_views(pieces);
        self.view_width = pieces as usize;
    }

    /// The first alive peer whose maintained view differs from a
    /// from-scratch rebuild, with the first differing piece and both
    /// counts (kept, rebuilt); `None` when the table matches or is not
    /// built.
    pub(crate) fn view_divergence(&self) -> Option<(PeerId, u32, u16, u16)> {
        if !self.views_live() {
            return None;
        }
        let rebuilt = self.rebuild_views(self.view_width as u32);
        let w = self.view_width;
        self.iter().find_map(|peer| {
            let slot = peer.id.slot as usize;
            let row = &rebuilt[slot * w..(slot + 1) * w];
            first_difference(self.view(peer.id), row)
                .map(|(p, kept, built)| (peer.id, p, kept, built))
        })
    }

    /// Upkeep for a link between `a` and `b` forming (`add`) or
    /// breaking: each side's bitfield enters or leaves the other's view.
    pub(crate) fn view_link(&mut self, a: PeerId, b: PeerId, add: bool) {
        if !self.views_live() {
            return;
        }
        for (viewer, holder) in [(a, b), (b, a)] {
            let w = self.view_width;
            let start = viewer.slot as usize * w;
            let have = &self.slots[holder.slot as usize]
                .peer
                .as_ref()
                .expect("linked peer is alive")
                .have;
            self.view_updates += shift_view(&mut self.views[start..start + w], have, add);
        }
    }

    /// Upkeep for `id` acquiring `piece`: one more holder in every
    /// neighbor's view.
    pub(crate) fn view_acquired(&mut self, id: PeerId, piece: u32) {
        if !self.views_live() {
            return;
        }
        let w = self.view_width;
        let peer = self.slots[id.slot as usize]
            .peer
            .as_ref()
            .expect("acquiring peer is alive");
        for &n in &peer.neighbors {
            self.views[n.slot as usize * w + piece as usize] += 1;
        }
        self.view_updates += peer.neighbors.len() as u64;
    }

    /// Upkeep for the departure of `peer` (already removed): its
    /// bitfield leaves every former neighbor's view.
    pub(crate) fn view_departed(&mut self, peer: &Peer) {
        if !self.views_live() {
            return;
        }
        let w = self.view_width;
        for &n in &peer.neighbors {
            let start = n.slot as usize * w;
            self.view_updates += shift_view(&mut self.views[start..start + w], &peer.have, false);
        }
    }

    /// Fault-injection hook: one view entry, to bump with no matching
    /// neighbor or possession change.
    pub(crate) fn view_entry_mut(&mut self, id: PeerId, piece: u32) -> &mut u16 {
        &mut self.views[id.slot as usize * self.view_width + piece as usize]
    }

    /// Iterates over live peers in slot order.
    ///
    /// Slot order is *not* arrival order once churn has recycled slots;
    /// engine code that needs deterministic arrival order iterates the
    /// tracker's list instead.
    pub fn iter(&self) -> impl Iterator<Item = &Peer> {
        self.slots.iter().filter_map(|slot| slot.peer.as_ref())
    }
}

/// Adds one to (or subtracts one from) `view[p]` for every piece `p`
/// in `have`; returns the number of entries changed.
fn shift_view(view: &mut [u16], have: &Bitfield, add: bool) -> u64 {
    for p in have.iter() {
        let count = &mut view[p as usize];
        *count = if add { *count + 1 } else { *count - 1 };
    }
    u64::from(have.count())
}

/// The first index where `kept` and `rebuilt` differ, with both values.
pub(crate) fn first_difference(kept: &[u16], rebuilt: &[u16]) -> Option<(u32, u16, u16)> {
    kept.iter()
        .zip(rebuilt)
        .position(|(k, r)| k != r)
        .map(|p| (p as u32, kept[p], rebuilt[p]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: usize) -> (PeerStore, Vec<PeerId>) {
        let mut store = PeerStore::new();
        let ids = (0..n)
            .map(|_| store.insert_with(|id| Peer::new(id, 4, 0)))
            .collect();
        (store, ids)
    }

    #[test]
    fn sequence_numbers_are_run_unique() {
        let (mut store, ids) = store_with(3);
        assert_eq!(ids[0].seq(), 0);
        assert_eq!(ids[2].seq(), 2);
        store.remove(ids[1]).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 4, 1));
        assert_eq!(replacement.seq(), 3, "seq never reused");
        assert_eq!(replacement.slot(), ids[1].slot(), "slot reused");
    }

    #[test]
    fn freed_slot_reuse_rejects_stale_id() {
        let (mut store, ids) = store_with(2);
        let stale = ids[0];
        store.remove(stale).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 4, 5));
        assert_eq!(replacement.slot(), stale.slot(), "slot was recycled");
        assert!(store.get(stale).is_none(), "stale id must not resolve");
        assert!(!store.contains(stale));
        assert!(store.remove(stale).is_none(), "stale remove is a no-op");
        assert_eq!(
            store.peer(replacement).joined_round,
            5,
            "new occupant resolves under its own id"
        );
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn double_remove_only_counts_once() {
        let (mut store, ids) = store_with(1);
        assert!(store.remove(ids[0]).is_some());
        assert!(store.remove(ids[0]).is_none());
        assert!(store.is_empty());
        assert_eq!(store.capacity(), 1);
    }

    #[test]
    fn synthetic_ids_never_resolve() {
        let (store, ids) = store_with(1);
        let ghost = PeerId::synthetic(ids[0].seq());
        assert_eq!(ghost, ids[0], "equality is by sequence number");
        assert!(store.get(ghost).is_none(), "but it does not resolve");
    }

    #[test]
    fn identity_ignores_slot_and_generation() {
        let (mut store, ids) = store_with(2);
        store.remove(ids[0]).expect("alive");
        let recycled = store.insert_with(|id| Peer::new(id, 4, 0));
        assert_eq!(recycled.slot(), ids[0].slot());
        assert_ne!(recycled, ids[0], "same slot, different identity");
        let mut sorted = vec![recycled, ids[1], ids[0]];
        sorted.sort();
        assert_eq!(sorted, vec![ids[0], ids[1], recycled], "ordered by seq");
    }

    #[test]
    fn serialization_is_a_plain_integer() {
        let id = PeerId::synthetic(42);
        let json = serde_json::to_string(&id).expect("serializes");
        assert_eq!(json, "42");
        let back: PeerId = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, id);
        assert_eq!(back.to_string(), "peer#42");
    }

    #[test]
    fn probe_count_tracks_lookups() {
        let (mut store, ids) = store_with(2);
        let before = store.probe_count();
        let _ = store.get(ids[0]);
        let _ = store.get_mut(ids[1]);
        let _ = store.peer(ids[0]); // goes through get
        assert_eq!(store.probe_count() - before, 3);
    }

    #[test]
    fn iter_skips_holes() {
        let (mut store, ids) = store_with(3);
        store.remove(ids[1]).expect("alive");
        let seqs: Vec<u64> = store.iter().map(|p| p.id.seq()).collect();
        assert_eq!(seqs, vec![0, 2]);
    }
}
