//! Mutable delta view over an immutable CSR dataset.
//!
//! [`Dataset`] is deliberately frozen: CSR rows are the fastest layout for
//! the batch algorithms, and rebuilding them per streamed rating would be
//! `O(|E|)` per update. [`DeltaDataset`] layers a sparse overlay on top:
//!
//! * **user side** — mutated users' full profiles live in a hash overlay
//!   (sorted item/rating vectors, each behind an `Arc` and edited
//!   copy-on-write); untouched users keep serving borrowed
//!   [`ProfileRef`]s straight from the base CSR, which sits behind an
//!   `Arc` too. Every user's [`ProfileStats`] are cached and recomputed
//!   on each profile change.
//! * **item side** — copy-on-write item rows. An item's raters are its
//!   base CSR row until its first mutation, which copies that row into an
//!   owned row (an item beyond the base starts from an empty one); later
//!   mutations edit the owned row in place. Owned rows stay sorted by
//!   user, as base rows are, so a removal or a re-rating is one binary
//!   search. A dense per-item slot array finds an item's owned row, so
//!   [`DeltaDataset::item_row`] hands out the current raters and their
//!   ratings as two slices, the shape of [`Csr::row_entries`], without a
//!   hash probe and without rebuilding the transpose. Those rows are both
//!   the co-rater set a rating update affects and the rows the online
//!   repair walks.
//!
//! [`DeltaDataset::freeze`] captures the user side as an immutable
//! [`FrozenDelta`]: the base and every overlay profile shared by `Arc`,
//! so a capture costs one `Arc` clone per overlay user, not a copy of the
//! ratings. A later mutation of a captured profile copies that one
//! profile first (`Arc::make_mut`), so a capture never changes.
//!
//! When the overlay grows past the caller's threshold,
//! [`DeltaDataset::compact`] folds everything back into a fresh CSR —
//! batched re-compaction amortised across many updates, the same trade
//! LSM trees make. Base rows and overlay profiles are both kept sorted,
//! so materialising ([`DeltaDataset::to_dataset`],
//! [`FrozenDelta::to_dataset`]) concatenates rows instead of sorting
//! ratings.

use std::sync::{Arc, OnceLock};

use kiff_collections::{Csr, FxHashMap};

use crate::dataset::Dataset;
use crate::types::{ItemId, ProfileRef, Rating, UserId};

/// One mutated user's complete profile (sorted by item id).
#[derive(Debug, Clone, Default)]
struct OverlayProfile {
    items: Vec<ItemId>,
    ratings: Vec<Rating>,
}

impl OverlayProfile {
    fn from_profile(p: ProfileRef<'_>) -> Self {
        Self {
            items: p.items.to_vec(),
            ratings: p.ratings.to_vec(),
        }
    }
}

/// One mutated item's current raters, ascending by user, with their
/// current ratings: a copy of its base CSR row, edited in place.
#[derive(Debug, Clone, Default)]
struct ItemRow {
    users: Vec<UserId>,
    ratings: Vec<Rating>,
}

/// The slot of an item whose current row is its base CSR row, or the
/// empty row for an item beyond the base.
const BASE_ROW: u32 = u32::MAX;

/// The user side the live store and its captures share: the frozen base
/// plus the overlay of changed profiles, both behind `Arc`s, so cloning
/// it costs one `Arc` clone per overlay user.
#[derive(Debug, Clone)]
struct Layers {
    base: Arc<Dataset>,
    overlay: FxHashMap<UserId, Arc<OverlayProfile>>,
    num_users: usize,
    num_items: usize,
    num_ratings: usize,
}

impl Layers {
    fn new(base: Arc<Dataset>) -> Self {
        Self {
            num_users: base.num_users(),
            num_items: base.num_items(),
            num_ratings: base.num_ratings(),
            overlay: FxHashMap::default(),
            base,
        }
    }

    /// The current profile of `u`: its overlay copy when changed, its
    /// borrowed base row otherwise. Users added after the base was
    /// frozen always have an overlay entry.
    #[inline]
    fn profile(&self, u: UserId) -> ProfileRef<'_> {
        assert!((u as usize) < self.num_users, "user {u} out of bounds");
        match self.overlay.get(&u) {
            Some(p) => ProfileRef {
                items: &p.items,
                ratings: &p.ratings,
            },
            None => self.base.user_profile(u),
        }
    }

    /// One `O(|E|)` copy of the ratings, concatenating each user's
    /// already sorted row — base CSR or overlay — with no sort.
    fn to_dataset(&self) -> Dataset {
        let mut offsets = Vec::with_capacity(self.num_users + 1);
        let mut items = Vec::with_capacity(self.num_ratings);
        let mut ratings = Vec::with_capacity(self.num_ratings);
        offsets.push(0);
        for u in 0..self.num_users as UserId {
            let profile = self.profile(u);
            items.extend_from_slice(profile.items);
            ratings.extend_from_slice(profile.ratings);
            offsets.push(items.len());
        }
        let users = Csr::from_sorted_parts(offsets, items, ratings)
            .expect("base rows and overlay profiles are kept sorted");
        Dataset::from_users_csr(self.base.name(), self.num_items, users)
    }
}

/// An immutable capture of a [`DeltaDataset`]'s ratings
/// ([`DeltaDataset::freeze`]): the frozen base plus the overlay profiles
/// at capture time, shared by `Arc` with the live store. It reads user
/// profiles as the store did when it was captured, whatever the store
/// does afterwards, compaction included.
///
/// Item-side reads need the transpose, which the capture does not hold:
/// [`FrozenDelta::materialised`] builds it once per capture, on first
/// use, and keeps it.
#[derive(Debug)]
pub struct FrozenDelta {
    layers: Layers,
    materialised: OnceLock<Dataset>,
}

impl FrozenDelta {
    /// `base` as a capture with no changed profile: reads go straight to
    /// `base`, and [`FrozenDelta::materialised`] is `base` itself.
    pub fn from_dataset(base: Arc<Dataset>) -> Self {
        Self {
            layers: Layers::new(base),
            materialised: OnceLock::new(),
        }
    }

    /// Number of users at capture time.
    pub fn num_users(&self) -> usize {
        self.layers.num_users
    }

    /// Number of items at capture time.
    pub fn num_items(&self) -> usize {
        self.layers.num_items
    }

    /// Number of ratings at capture time.
    pub fn num_ratings(&self) -> usize {
        self.layers.num_ratings
    }

    /// The profile `UP_u` at capture time.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    #[inline]
    pub fn user_profile(&self, u: UserId) -> ProfileRef<'_> {
        self.layers.profile(u)
    }

    /// Materialises the capture as a fresh frozen [`Dataset`]: one
    /// `O(|E|)` copy of the ratings, with no sort.
    pub fn to_dataset(&self) -> Dataset {
        self.layers.to_dataset()
    }

    /// The capture as a [`Dataset`], for item-side reads
    /// ([`Dataset::item_profile`]): the base itself when no profile
    /// changed, otherwise materialised on the first call and kept, so a
    /// capture pays at most one copy of the ratings however many readers
    /// share it.
    pub fn materialised(&self) -> &Dataset {
        if self.layers.overlay.is_empty() {
            return &self.layers.base;
        }
        self.materialised.get_or_init(|| self.to_dataset())
    }
}

/// Statistics of one profile that similarity formulas need beyond the
/// shared items: cached per user by [`DeltaDataset`], so a score can be
/// finished without reading the profile again.
#[derive(Debug, Clone, Copy)]
pub struct ProfileStats {
    /// `|UP_u|`.
    pub len: usize,
    /// The rating vector's Euclidean norm, as [`ProfileRef::norm`]
    /// computes it.
    pub norm: f64,
    /// The sum of the ratings, widened to `f64` and summed in item order.
    pub total: f64,
}

impl ProfileStats {
    /// Computes the statistics of `p` with the same expressions the
    /// similarity functions use, so cached values equal fresh ones bit
    /// for bit.
    pub(crate) fn of(p: ProfileRef<'_>) -> Self {
        Self {
            len: p.len(),
            norm: p.norm(),
            total: p.ratings.iter().map(|&r| f64::from(r)).sum(),
        }
    }
}

/// A [`Dataset`] plus a mutation overlay. See the module docs.
#[derive(Debug, Clone)]
pub struct DeltaDataset {
    users: Layers,
    /// Content mutations applied so far (see [`DeltaDataset::version`]).
    version: u64,
    /// Per item: the index in `rows` of its owned row, or [`BASE_ROW`].
    item_slots: Vec<u32>,
    /// The owned rows of the items mutated since the last compaction.
    rows: Vec<ItemRow>,
    /// Cached statistics of every user's current profile.
    stats: Vec<ProfileStats>,
}

impl DeltaDataset {
    /// Wraps `base` with an empty overlay.
    pub fn new(base: Dataset) -> Self {
        // The base item profiles back every rater scan; build them once up
        // front so the first update does not pay the transpose.
        let _ = base.item_profiles();
        let stats = (0..base.num_users() as UserId)
            .map(|u| ProfileStats::of(base.user_profile(u)))
            .collect();
        let users = Layers::new(Arc::new(base));
        Self {
            item_slots: vec![BASE_ROW; users.num_items],
            users,
            version: 0,
            rows: Vec::new(),
            stats,
        }
    }

    /// Current number of users (base plus streamed additions).
    pub fn num_users(&self) -> usize {
        self.users.num_users
    }

    /// Current number of items (grows when a rating names a new item).
    pub fn num_items(&self) -> usize {
        self.users.num_items
    }

    /// Current number of ratings.
    pub fn num_ratings(&self) -> usize {
        self.users.num_ratings
    }

    /// The frozen base the overlay is relative to.
    pub fn base(&self) -> &Dataset {
        &self.users.base
    }

    /// Counts the content mutations applied so far: every added user,
    /// added or reinforced rating, and removed rating bumps it;
    /// compaction and no-op removals do not. Equal versions mean equal
    /// contents, so a capture ([`DeltaDataset::freeze`]) can be tagged
    /// with it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of users whose profiles live in the overlay — the
    /// compaction-policy signal, and the cost of a
    /// [`DeltaDataset::freeze`].
    pub fn overlay_users(&self) -> usize {
        self.users.overlay.len()
    }

    /// The current profile of `u`: overlay copy when mutated, borrowed CSR
    /// row otherwise; empty for users added after the base was frozen and
    /// not yet rated.
    pub fn profile(&self, u: UserId) -> ProfileRef<'_> {
        self.users.profile(u)
    }

    /// The cached statistics of `u`'s current profile, equal bit for bit
    /// to a fresh computation on [`DeltaDataset::profile`].
    #[inline]
    pub fn stats(&self, u: UserId) -> ProfileStats {
        self.stats[u as usize]
    }

    /// Appends a user with an empty profile, returning its id.
    pub fn add_user(&mut self) -> UserId {
        let id = self.users.num_users as UserId;
        self.users.num_users += 1;
        self.version += 1;
        self.users.overlay.insert(id, Arc::default());
        self.stats.push(ProfileStats::of(self.profile(id)));
        id
    }

    /// Applies `ρ(u, i) += rating` (a repeated pair reinforces, matching
    /// [`DatasetBuilder`](crate::DatasetBuilder)'s duplicate merge).
    /// Returns `true` when the pair is newly rated — the case that changes
    /// shared-item counts.
    ///
    /// Items beyond the current bound extend the item space; users must
    /// already exist (see [`DeltaDataset::add_user`]).
    ///
    /// # Panics
    /// Panics on an out-of-range user or a non-finite/non-positive rating.
    pub fn add_rating(&mut self, u: UserId, i: ItemId, rating: Rating) -> bool {
        assert!((u as usize) < self.num_users(), "user {u} out of bounds");
        assert!(
            rating.is_finite() && rating > 0.0,
            "rating must be finite and positive, got {rating}"
        );
        self.users.num_items = self.users.num_items.max(i as usize + 1);
        self.item_slots.resize(self.users.num_items, BASE_ROW);
        self.version += 1;
        let profile = self.overlay_entry(u);
        let (current, newly) = match profile.items.binary_search(&i) {
            Ok(pos) => {
                profile.ratings[pos] += rating;
                (profile.ratings[pos], false)
            }
            Err(pos) => {
                profile.items.insert(pos, i);
                profile.ratings.insert(pos, rating);
                (rating, true)
            }
        };
        if newly {
            self.users.num_ratings += 1;
        }
        self.record_item(u, i, Some(current));
        self.refresh_stats(u);
        newly
    }

    /// Deletes the rating `(u, i)`; returns whether it existed.
    pub fn remove_rating(&mut self, u: UserId, i: ItemId) -> bool {
        if self.profile(u).rating(i).is_none() {
            return false;
        }
        let profile = self.overlay_entry(u);
        let pos = profile.items.binary_search(&i).expect("checked present");
        profile.items.remove(pos);
        profile.ratings.remove(pos);
        self.users.num_ratings -= 1;
        self.version += 1;
        self.record_item(u, i, None);
        self.refresh_stats(u);
        true
    }

    /// The current raters of `i`, ascending, and their current ratings:
    /// the item's owned row once it has been mutated, its base CSR row
    /// before, and empty for an item no rating has named. One read of
    /// the slot array finds the row.
    #[inline]
    pub fn item_row(&self, i: ItemId) -> (&[UserId], &[Rating]) {
        match self.item_slots.get(i as usize) {
            Some(&BASE_ROW) if (i as usize) < self.users.base.num_items() => {
                self.users.base.item_profiles().row_entries(i)
            }
            Some(&BASE_ROW) | None => (&[], &[]),
            Some(&slot) => {
                let row = &self.rows[slot as usize];
                (&row.users, &row.ratings)
            }
        }
    }

    /// Captures the current ratings as an immutable [`FrozenDelta`]: one
    /// `Arc` clone per overlay user ([`DeltaDataset::overlay_users`]) and
    /// one for the base, with no rating copied.
    pub fn freeze(&self) -> FrozenDelta {
        FrozenDelta {
            layers: self.users.clone(),
            materialised: OnceLock::new(),
        }
    }

    /// Materialises the current state as a frozen [`Dataset`]: one
    /// `O(|E|)` copy of the ratings, concatenating each user's already
    /// sorted row — base CSR or overlay — with no sort.
    pub fn to_dataset(&self) -> Dataset {
        self.users.to_dataset()
    }

    /// Folds the overlay into a fresh base CSR (batched re-compaction).
    /// `O(|E|)`; call when [`DeltaDataset::overlay_users`] crosses the
    /// caller's threshold so the cost amortises over the preceding updates.
    /// Captures keep the old base and profiles alive.
    pub fn compact(&mut self) {
        self.users.base = Arc::new(self.to_dataset());
        let _ = self.users.base.item_profiles();
        self.users.overlay.clear();
        self.item_slots.fill(BASE_ROW);
        self.rows.clear();
    }

    /// `u`'s overlay profile, ready to edit: copied from the base on
    /// `u`'s first mutation, and copied again first when a capture still
    /// shares it.
    fn overlay_entry(&mut self, u: UserId) -> &mut OverlayProfile {
        let base = &self.users.base;
        let profile = self.users.overlay.entry(u).or_insert_with(|| {
            Arc::new(if (u as usize) < base.num_users() {
                OverlayProfile::from_profile(base.user_profile(u))
            } else {
                OverlayProfile::default()
            })
        });
        Arc::make_mut(profile)
    }

    /// Records `u`'s current rating of `i` in `i`'s owned row (`None`
    /// once removed), copying the row on the item's first mutation.
    fn record_item(&mut self, u: UserId, i: ItemId, rating: Option<Rating>) {
        if self.item_slots[i as usize] == BASE_ROW {
            let (users, ratings) = self.item_row(i);
            let row = ItemRow {
                users: users.to_vec(),
                ratings: ratings.to_vec(),
            };
            self.item_slots[i as usize] = self.rows.len() as u32;
            self.rows.push(row);
        }
        let row = &mut self.rows[self.item_slots[i as usize] as usize];
        match (row.users.binary_search(&u), rating) {
            (Ok(pos), Some(r)) => row.ratings[pos] = r,
            (Ok(pos), None) => {
                row.users.remove(pos);
                row.ratings.remove(pos);
            }
            (Err(pos), Some(r)) => {
                row.users.insert(pos, u);
                row.ratings.insert(pos, r);
            }
            (Err(_), None) => unreachable!("removed rater {u} missing from item {i}'s row"),
        }
    }

    /// Recomputes `u`'s cached statistics after its profile changed.
    fn refresh_stats(&mut self, u: UserId) {
        self.stats[u as usize] = ProfileStats::of(self.profile(u));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::figure2_toy;

    fn raters(d: &DeltaDataset, i: ItemId) -> Vec<UserId> {
        d.item_row(i).0.to_vec()
    }

    #[test]
    fn untouched_view_matches_base() {
        let d = DeltaDataset::new(figure2_toy());
        assert_eq!(d.num_users(), 4);
        assert_eq!(d.num_items(), 4);
        assert_eq!(d.num_ratings(), 6);
        assert_eq!(d.profile(0).items, &[0, 1]);
        assert_eq!(raters(&d, 1), vec![0, 1]);
        assert_eq!(d.overlay_users(), 0);
    }

    #[test]
    fn add_rating_updates_both_sides() {
        let mut d = DeltaDataset::new(figure2_toy());
        // Carl(2) picks up coffee(1).
        assert!(d.add_rating(2, 1, 2.0));
        assert_eq!(d.version(), 1);
        assert_eq!(d.num_ratings(), 7);
        assert_eq!(d.profile(2).items, &[1, 3]);
        assert_eq!(d.profile(2).rating(1), Some(2.0));
        assert_eq!(raters(&d, 1), vec![0, 1, 2]);
        // Untouched users still serve from the base.
        assert_eq!(d.profile(0).items, &[0, 1]);
    }

    #[test]
    fn duplicate_add_reinforces() {
        let mut d = DeltaDataset::new(figure2_toy());
        assert!(!d.add_rating(0, 1, 3.0), "pair already rated");
        assert_eq!(d.num_ratings(), 6, "no new edge");
        assert_eq!(d.profile(0).rating(1), Some(4.0), "1.0 + 3.0");
        assert_eq!(raters(&d, 1), vec![0, 1], "rater set unchanged");
    }

    #[test]
    fn remove_rating_updates_both_sides() {
        let mut d = DeltaDataset::new(figure2_toy());
        assert!(d.remove_rating(1, 1)); // Bob drops coffee
        assert!(!d.remove_rating(1, 1), "already gone");
        assert_eq!(d.version(), 1, "a no-op removal changes nothing");
        assert_eq!(d.num_ratings(), 5);
        assert_eq!(d.profile(1).items, &[2]);
        assert_eq!(raters(&d, 1), vec![0]);
    }

    #[test]
    fn add_after_remove_cancels() {
        let mut d = DeltaDataset::new(figure2_toy());
        assert!(d.remove_rating(0, 1));
        assert!(d.add_rating(0, 1, 5.0));
        assert_eq!(d.num_ratings(), 6);
        assert_eq!(raters(&d, 1), vec![0, 1]);
        assert_eq!(d.profile(0).rating(1), Some(5.0), "fresh value, not sum");
    }

    #[test]
    fn new_users_and_items_grow_the_space() {
        let mut d = DeltaDataset::new(figure2_toy());
        let u = d.add_user();
        assert_eq!(u, 4);
        assert_eq!(d.num_users(), 5);
        assert!(d.profile(u).is_empty());
        // Rating an unseen item grows the item space.
        assert!(d.add_rating(u, 9, 1.0));
        assert_eq!(d.num_items(), 10);
        assert_eq!(raters(&d, 9), vec![4]);
        assert!(raters(&d, 7).is_empty());
        assert!(raters(&d, 10).is_empty(), "beyond the item space");
    }

    /// Checks every item's live row exactly against the materialised
    /// item profile (the same ids in the same ascending order, and the
    /// same rating bits), an item beyond the space as empty, and every
    /// cached statistic against a fresh computation on the materialised
    /// user profile, bit for bit.
    fn assert_live(d: &DeltaDataset) {
        let frozen = d.to_dataset();
        assert_eq!(frozen.num_items(), d.num_items());
        let rating_bits =
            |ratings: &[Rating]| ratings.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        for i in 0..d.num_items() as ItemId {
            let (users, ratings) = d.item_row(i);
            let (want_users, want_ratings) = frozen.item_profiles().row_entries(i);
            assert_eq!(users, want_users, "item {i}'s raters");
            assert_eq!(
                rating_bits(ratings),
                rating_bits(want_ratings),
                "item {i}'s ratings"
            );
        }
        assert_eq!(d.item_row(d.num_items() as ItemId), (&[][..], &[][..]));
        let bits = |s: ProfileStats| (s.len, s.norm.to_bits(), s.total.to_bits());
        for u in 0..d.num_users() as UserId {
            let fresh = ProfileStats::of(frozen.user_profile(u));
            assert_eq!(bits(d.stats(u)), bits(fresh), "user {u}");
        }
    }

    #[test]
    fn to_dataset_round_trips_all_mutations() {
        let mut d = DeltaDataset::new(figure2_toy());
        d.remove_rating(1, 2);
        d.add_rating(2, 0, 2.0);
        let u = d.add_user();
        d.add_rating(u, 3, 1.0);
        // A reinforced base rating, a reinforced added one, and a base
        // rating removed then re-added with a fresh value.
        d.add_rating(0, 1, 2.5);
        d.add_rating(u, 3, 0.5);
        d.remove_rating(3, 3);
        d.add_rating(3, 3, 4.0);
        let frozen = d.to_dataset();
        assert_eq!(frozen.num_users(), 5);
        assert_eq!(frozen.num_ratings(), d.num_ratings());
        assert_eq!(frozen.user_profile(1).items, &[1]);
        assert_eq!(frozen.user_profile(2).items, &[0, 3]);
        assert_eq!(frozen.user_profile(4).items, &[3]);
        // The item side agrees with the frozen dataset, ratings included.
        assert_live(&d);
        let shopping: Vec<_> = frozen.item_profile(3).iter().collect();
        assert_eq!(shopping, vec![(2, 1.0), (3, 4.0), (4, 1.5)]);
    }

    #[test]
    fn compact_clears_overlay_preserving_content() {
        let mut d = DeltaDataset::new(figure2_toy());
        d.add_rating(2, 1, 2.0);
        d.remove_rating(0, 0);
        assert_eq!(d.overlay_users(), 2);
        let before = d.to_dataset();
        let version = d.version();
        d.compact();
        assert_eq!(d.overlay_users(), 0);
        assert_eq!(d.version(), version, "compaction keeps the contents");
        let after = d.to_dataset();
        assert_eq!(before.num_ratings(), after.num_ratings());
        for u in 0..before.num_users() as UserId {
            assert_eq!(before.user_profile(u).items, after.user_profile(u).items);
        }
        // Still mutable after compaction (item 0 lost its only base rater
        // above, so Dave is now alone on it).
        assert!(d.add_rating(3, 0, 1.0));
        assert_eq!(raters(&d, 0), vec![3]);
    }

    #[test]
    fn view_reads_live_state_and_is_shareable() {
        fn assert_shareable<T: Copy + Send + Sync>(_: T) {}
        let mut d = DeltaDataset::new(figure2_toy());
        d.add_rating(2, 1, 2.0);
        // Shard workers share the store as a plain `&DeltaDataset`.
        let v = &d;
        assert_shareable(v);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        assert_eq!(v.num_users(), 4);
                        assert_eq!(v.num_ratings(), 7);
                        assert_eq!(v.profile(2).items, &[1, 3]);
                        assert_eq!(v.item_row(1), (&[0, 1, 2][..], &[1.0, 1.0, 2.0][..]));
                    })
                })
                .collect();
            for reader in readers {
                reader.join().unwrap();
            }
        });
    }

    /// Every profile of a capture as owned `(item, rating bits)` rows.
    fn frozen_profiles(f: &FrozenDelta) -> Vec<Vec<(ItemId, u32)>> {
        (0..f.num_users() as UserId)
            .map(|u| {
                let profile = f.user_profile(u);
                profile.iter().map(|(i, r)| (i, r.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn a_capture_keeps_every_profile_across_later_mutations() {
        let mut d = DeltaDataset::new(figure2_toy());
        d.add_rating(2, 1, 2.0);
        let frozen = d.freeze();
        let want = frozen_profiles(&frozen);
        let sizes = |f: &FrozenDelta| (f.num_users(), f.num_items(), f.num_ratings());
        let want_sizes = sizes(&frozen);
        let want_bytes = {
            let mut buf = Vec::new();
            crate::codec::write_dataset(&mut buf, &frozen.to_dataset()).unwrap();
            buf
        };
        // A new pair on a captured overlay user and on a base user, a
        // re-rating, removals from both, a new user rating a new item,
        // then a compaction that replaces the base.
        d.add_rating(2, 0, 1.5);
        d.add_rating(3, 2, 1.0);
        d.add_rating(0, 1, 3.0);
        d.remove_rating(2, 3);
        d.remove_rating(1, 2);
        let u = d.add_user();
        d.add_rating(u, 7, 1.0);
        assert_eq!(frozen_profiles(&frozen), want, "after the mutations");
        d.compact();
        d.add_rating(1, 3, 1.0);
        assert_eq!(frozen_profiles(&frozen), want, "after a compaction");
        assert_eq!(sizes(&frozen), want_sizes);
        let mut bytes = Vec::new();
        crate::codec::write_dataset(&mut bytes, &frozen.to_dataset()).unwrap();
        assert_eq!(bytes, want_bytes, "the materialised capture moved");
        // The live store moved on meanwhile.
        assert_eq!(d.profile(2).items, &[0, 1]);
        assert_eq!(d.num_users(), 5);
    }

    #[test]
    fn a_capture_after_a_batch_shares_every_untouched_overlay_profile() {
        let mut d = DeltaDataset::new(figure2_toy());
        d.add_rating(0, 2, 1.0);
        d.add_rating(1, 3, 1.0);
        d.add_rating(2, 0, 1.0);
        let u = d.add_user();
        d.add_rating(u, 1, 1.0);
        let before = d.freeze();
        // One batch: a re-rating of overlay user 1, a removal from
        // overlay user 2, and a first mutation of base user 3.
        let touched = [1, 2, 3];
        d.add_rating(1, 3, 1.0);
        d.remove_rating(2, 0);
        d.add_rating(3, 0, 1.0);
        let after = d.freeze();
        assert!(Arc::ptr_eq(&before.layers.base, &after.layers.base));
        for (v, profile) in &before.layers.overlay {
            let now = &after.layers.overlay[v];
            if touched.contains(v) {
                assert!(!Arc::ptr_eq(profile, now), "user {v} was edited in place");
            } else {
                assert!(Arc::ptr_eq(profile, now), "user {v} was copied");
            }
        }
        assert_eq!(after.layers.overlay.len(), before.layers.overlay.len() + 1);
        assert_eq!(before.user_profile(2).items, &[0, 3], "the capture kept it");
        assert_eq!(after.user_profile(2).items, &[3]);
    }

    #[test]
    fn an_unchanged_capture_materialises_as_its_base() {
        let mut d = DeltaDataset::new(figure2_toy());
        let frozen = d.freeze();
        assert!(std::ptr::eq(frozen.materialised(), d.base()));
        d.add_rating(2, 1, 2.0);
        let frozen = d.freeze();
        let once = frozen.materialised();
        assert!(
            std::ptr::eq(once, frozen.materialised()),
            "materialised twice"
        );
        assert_eq!(once.item_profile(1).items, &[0, 1, 2]);
        let wrapped = FrozenDelta::from_dataset(Arc::new(figure2_toy()));
        assert_eq!(wrapped.user_profile(1).items, &[1, 2]);
        assert_eq!(wrapped.materialised().num_ratings(), 6);
    }

    mod properties {
        use super::*;
        use crate::dataset::DatasetBuilder;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Six users over five items, about two ratings in three, with
        /// ratings other than 1.0 so that rating mix-ups show.
        fn base() -> Dataset {
            let mut b = DatasetBuilder::new("delta-props", 6, 5);
            for u in 0..6u32 {
                for i in 0..5u32 {
                    if (u * 7 + i * 3) % 3 != 0 {
                        b.add_rating(u, i, 1.0 + ((u + i) % 4) as f32 * 0.5);
                    }
                }
            }
            b.build()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// New pairs (on new items too), repeated adds, removals,
            /// re-adds of removed pairs, new users and compactions, in
            /// any order, keep the item side and the statistics live
            /// after every step.
            #[test]
            fn item_side_and_stats_stay_live(
                ops in vec((0u32..8, 0u32..16, 0u32..16, 1u32..8), 0..48)
            ) {
                let mut d = DeltaDataset::new(base());
                let mut removed: Vec<(UserId, ItemId)> = Vec::new();
                for (kind, user, pick, rating) in ops {
                    let u = user % d.num_users() as UserId;
                    let rating = rating as Rating * 0.5;
                    let owned = d.profile(u).items.get(pick as usize % d.profile(u).len().max(1));
                    match (kind, owned.copied()) {
                        (0, _) => {
                            d.add_user();
                        }
                        (1, _) => d.compact(),
                        (2, Some(i)) => {
                            prop_assert!(d.remove_rating(u, i));
                            removed.push((u, i));
                        }
                        (3, _) => {
                            // Usually a re-add; a new-pair step may
                            // have re-added it already.
                            if let Some((v, i)) = removed.pop() {
                                d.add_rating(v, i, rating);
                            }
                        }
                        (4, Some(i)) => prop_assert!(!d.add_rating(u, i, rating)),
                        _ => {
                            let i = pick % (d.num_items() as ItemId + 2);
                            d.add_rating(u, i, rating);
                        }
                    }
                    assert_live(&d);
                }
            }

            /// Captures taken between steps of the same mix of mutations
            /// and compactions keep reading what they captured.
            #[test]
            fn captures_stay_frozen(
                ops in vec((0u32..8, 0u32..16, 0u32..16, 1u32..8), 0..48)
            ) {
                let mut d = DeltaDataset::new(base());
                let mut captures = Vec::new();
                for (step, (kind, user, pick, rating)) in ops.into_iter().enumerate() {
                    let u = user % d.num_users() as UserId;
                    let rating = rating as Rating * 0.5;
                    let owned = d.profile(u).items.get(pick as usize % d.profile(u).len().max(1));
                    match (kind, owned.copied()) {
                        (0, _) => {
                            d.add_user();
                        }
                        (1, _) => d.compact(),
                        (2, Some(i)) => {
                            d.remove_rating(u, i);
                        }
                        _ => {
                            d.add_rating(u, pick % (d.num_items() as ItemId + 2), rating);
                        }
                    }
                    if step % 3 == 0 {
                        let frozen = d.freeze();
                        let want = frozen_profiles(&frozen);
                        captures.push((frozen, want));
                    }
                    for (frozen, want) in &captures {
                        prop_assert_eq!(&frozen_profiles(frozen), want);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rating_unknown_user_panics() {
        let mut d = DeltaDataset::new(figure2_toy());
        d.add_rating(99, 0, 1.0);
    }
}
