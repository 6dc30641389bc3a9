//! Hash-partitioned accumulator shards — the storage layer of the
//! streaming engine.
//!
//! [`StreamingPipeline`](crate::StreamingPipeline) used to keep every
//! user in one `BTreeMap`, which serializes ingestion: a bulk delta (a
//! full crawl round, a monitor poll batch) touches users all over the id
//! space, but every insert goes through the same map. A [`ShardSet`]
//! splits the crowd into N disjoint shards by a stable hash of the user
//! id, each behind its own mutex.
//!
//! Every write — a bulk backfill, a writer's batch, a retraction, a
//! replayed log record — goes through one call, [`ShardSet::apply`]: the
//! batch is **routed once**, then each touched shard is locked once
//! (an uncontended `try_lock` on the fast path) while its deltas are
//! applied. Writers route by the same FNV hash and hold one shard at a
//! time, so many writer threads of a
//! [`ConcurrentStreamingPipeline`](crate::ConcurrentStreamingPipeline)
//! drive the same shards at once and two writers touching different
//! shards never contend. A bulk ingest may also fan out: scoped workers
//! each own a contiguous run of whole shards. Only the single-owner
//! phases that never write posts — refresh, window expiry and snapshot
//! restore — reach through the mutexes with [`Mutex::get_mut`], a plain
//! borrow.
//!
//! # Per-post cost
//!
//! A post for a known user costs one map probe and no allocation:
//!
//! * each shard's users sit in a hash map keyed by the same FNV-1a as
//!   routing and probed with the borrowed `&str`, so only a user's first
//!   post copies the id — into an `Arc<str>` that the dirty list, the
//!   kept profile and the kept placement share;
//! * dirtiness is a flag on the accumulator plus a per-shard list of the
//!   ids flagged since the last drain, which clones the key's `Arc` —
//!   a refcount, not a string copy — once per refresh, not once per
//!   post;
//! * a post at or after the user's last active slot — a crawl replayed
//!   in time order — bumps or appends that slot in place
//!   ([`UserAccumulator::absorb`]); only an earlier post pays the sorted
//!   merge. Slot vectors grow by a quarter when full, not by doubling,
//!   since they stay resident for the user's lifetime.
//!
//! # Compact slots and the range rule
//!
//! A live slot costs 5 bytes: a `u32` key and a `u8` count.
//!
//! * A key counts hours from a fixed epoch [`EPOCH_HOURS`] (2³¹ − 8)
//!   hours before 1970-01-01 00:00 UTC. The epoch is a UTC midnight, so a
//!   key's hour of day is `key % 24`.
//! * A count holds its slot's live posts up to 255. A slot with more
//!   posts stores 255, and its exact count sits in a per-user side table
//!   sorted by key, empty for almost every user.
//!
//! The keys span 1970 ± about 245 000 years, while a [`Timestamp`] holds
//! any `i64` second. A post outside that range ([`post_key`] is `None`)
//! never reaches an accumulator, and nothing panics on one:
//!
//! * `IngestWriter` refuses a batch holding one with
//!   [`CoreError::PostOutOfRange`](crate::CoreError::PostOutOfRange)
//!   before the write-ahead log sees it, so `POST …/ingest` answers 400;
//! * the infallible in-process ingests, log replay and a persisted slot
//!   from an older store drop it and count it in
//!   `streaming.posts_out_of_range`.
//!
//! Posts inside the range analyze exactly as they would with `i64` keys,
//! and the durable codecs write each key as its signed hours since 1970.
//!
//! # Determinism
//!
//! Sharding never changes a byte of analysis output, for any shard count
//! and any thread count:
//!
//! * Routing is a pure function of the user id ([FNV-1a] over the id
//!   bytes, reduced modulo the shard count), so the same user always
//!   lands in the same shard.
//! * A batch is partitioned **in arrival order**: deltas for the same
//!   user stay in their original relative order inside that user's
//!   shard. Deltas for *different* users commute — each accumulator is
//!   independent — so applying shards concurrently is observationally
//!   identical to the serial loop. (Deltas for the *same* user commute
//!   too: the accumulator state is a slot-set union plus integer adds,
//!   so even the multi-writer path needs no cross-writer ordering — see
//!   DESIGN.md §15.)
//! * The dirty set is drained in **globally sorted user-id order**
//!   ([`ShardSet::take_dirty_sorted`]), exactly the order the unsharded
//!   engine's single `BTreeSet` produced. Everything downstream
//!   (profile rebuild, placement, report assembly) therefore sees the
//!   same users in the same order regardless of the shard count.
//! * Hash-map order depends on insertion history, so nothing reads it
//!   unsorted: [`ShardSet::for_each_shard`] (the durable snapshot export)
//!   and [`ShardSet::all_users_sorted`] sort by id, and the rest only
//!   probes or sums.
//!
//! `tests/sharding_determinism.rs` asserts the resulting snapshots are
//! byte-identical across shard counts {1, 4, 16} × threads {1, 2, 8};
//! `tests/concurrent_determinism.rs` extends the same assertion to
//! multi-writer ingestion.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crowdtz_stats::BINS;
use crowdtz_time::Timestamp;

use crate::engine::clamped_threads;

/// Number of shards to use by default: the `CROWDTZ_SHARDS` environment
/// variable when set to a positive integer, otherwise 8.
///
/// Unlike the thread count, the default is a fixed constant rather than
/// the machine's parallelism: the shard count shapes gauge names and
/// bench output, and a machine-dependent default would make runs harder
/// to compare. (The *results* are shard-count-invariant either way.)
pub fn default_shards() -> usize {
    if let Ok(v) = std::env::var("CROWDTZ_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    8
}

/// 64-bit FNV-1a over the user id — stable across platforms and runs
/// (unlike `std`'s randomized `DefaultHasher`), cheap, and well mixed on
/// short ASCII ids.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().extend(bytes)
}

/// FNV-1a as a [`Hasher`] — the routing hash, reused to index each
/// shard's user map.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn extend(mut self, bytes: &[u8]) -> u64 {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = self.extend(bytes);
    }

    /// Folds the high half into the low one: every id in a shard agrees
    /// on the hash modulo the shard count, and the table picks buckets
    /// from the low bits.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// One shard's users, keyed by the id every kept entry of the user
/// shares and probed with `&str`. Its iteration order depends on
/// insertion history, so every export sorts by id.
type UserMap = HashMap<Arc<str>, UserAccumulator, BuildHasherDefault<Fnv1a>>;

/// Lock a shard mutex, surviving poisoning: accumulator state is plain
/// data, and a writer that panicked mid-batch leaves at worst a
/// partially applied batch — the same state an interrupted sequential
/// loop would leave.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Mutex::get_mut` with the same poisoning policy as [`relock`].
fn remut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(|e| e.into_inner())
}

/// Observability handles for the multi-writer ingest path, created once
/// by the concurrent engine and passed down so the per-batch cost is an
/// atomic add, not a registry lookup.
#[derive(Debug, Clone)]
pub(crate) struct SharedIngestObs {
    /// `ingest.lock_wait_ns`: nanoseconds spent blocked on a contended
    /// shard (or gate) lock — one observation per contended acquisition.
    pub(crate) lock_wait: crowdtz_obs::Histogram,
    /// `ingest.shard_contention`: shard-lock acquisitions that blocked.
    pub(crate) shard_contention: crowdtz_obs::Counter,
}

/// Per-user integer accumulator: everything needed to rebuild the user's
/// [`ActivityProfile`](crate::ActivityProfile) without touching raw
/// history again. Five bytes per live slot (see the module docs) plus
/// 104 bytes; the per-hour counts are derived from the slot keys
/// ([`hour_counts`](Self::hour_counts)), not stored.
#[derive(Debug, Clone, Default)]
pub(crate) struct UserAccumulator {
    /// Sorted, deduplicated keys of active slots ([`post_key`]).
    pub(crate) slots: Vec<u32>,
    /// Live post count per slot, parallel to `slots` — the refcount the
    /// signed-delta path decrements — saturated at 255: a fuller slot's
    /// exact count sits in `heavy`. A slot stays active while its count
    /// is positive; the exact counts sum to `posts`.
    counts: Vec<u8>,
    /// `(key, exact count)` of every slot holding more than 255 posts,
    /// sorted by key.
    heavy: Vec<(u32, u32)>,
    /// Raw post count, duplicates included (the eligibility threshold
    /// counts posts, not slots).
    pub(crate) posts: usize,
    /// The user's analysis as of the last refresh; `None` when the user
    /// is below the activity threshold.
    pub(crate) analysis: Option<UserAnalysis>,
    /// Whether the state changed since the last refresh — exactly when
    /// the id sits in its shard's dirty list.
    pub(crate) dirty: bool,
}

/// Hours from the slot epoch to 1970-01-01 00:00 UTC: the multiple of 24
/// nearest the middle of `u32`, so the epoch is a UTC midnight.
const EPOCH_HOURS: i64 = (1 << 31) - 8;

/// The key of the slot `hours` after 1970-01-01 00:00 UTC, `None`
/// outside the range a `u32` key spans.
pub(crate) fn key_of(hours: i64) -> Option<u32> {
    u32::try_from(hours.checked_add(EPOCH_HOURS)?).ok()
}

/// The signed hours since 1970 of a key — the inverse of [`key_of`].
fn hours_of(key: u32) -> i64 {
    i64::from(key) - EPOCH_HOURS
}

/// A post's slot key, `None` for a post outside the range — the one
/// test of the range rule (module docs). Its `day·24 + hour` slot in
/// UTC is its hour since 1970.
pub(crate) fn post_key(ts: Timestamp) -> Option<u32> {
    key_of(ts.as_secs().div_euclid(3_600))
}

/// A key's hour of day: the epoch is a UTC midnight.
fn hour_of(key: u32) -> usize {
    (key % 24) as usize
}

/// A live count's byte: the count itself up to 255, else 255.
fn saturate(count: u32) -> u8 {
    u8::try_from(count).unwrap_or(u8::MAX)
}

/// The sorted `(slot key, post count)` runs of a delta's in-range posts
/// — the common routing for both signs: the merge path of absorb adds
/// the counts, release subtracts them.
fn keyed_counts(posts: &[Timestamp]) -> Vec<(u32, u32)> {
    let mut keys: Vec<u32> = posts.iter().filter_map(|&ts| post_key(ts)).collect();
    keys.sort_unstable();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for k in keys {
        match runs.last_mut() {
            Some((last, c)) if *last == k => *c += 1,
            _ => runs.push((k, 1)),
        }
    }
    runs
}

/// Reserves room for one more element, growing a full vector by a
/// quarter of its length (plus 4) instead of doubling it: slot vectors
/// live as long as their user, so doubling's slack would stay resident.
fn reserve_one<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len() / 4 + 4);
    }
}

impl UserAccumulator {
    /// An accumulator holding `slots`: ascending `(hours since 1970, live
    /// count)` pairs with positive counts, the form the durable codecs
    /// persist. A slot outside the key range is dropped with its posts
    /// (module docs). Returns the accumulator, clean and unanalyzed, and
    /// the posts dropped.
    pub(crate) fn from_slots(
        slots: impl IntoIterator<Item = (i64, u32)>,
    ) -> (UserAccumulator, usize) {
        let slots = slots.into_iter();
        let mut acc = UserAccumulator::default();
        acc.slots.reserve_exact(slots.size_hint().0);
        acc.counts.reserve_exact(slots.size_hint().0);
        let mut dropped = 0usize;
        for (hours, count) in slots {
            let Some(key) = key_of(hours) else {
                dropped += count as usize;
                continue;
            };
            acc.slots.push(key);
            acc.counts.push(saturate(count));
            if count > 255 {
                acc.heavy.push((key, count));
            }
            acc.posts += count as usize;
        }
        (acc, dropped)
    }

    /// Active slots per hour of day — the integer pre-image of the
    /// profile's distribution — counted from the slot keys: one pass over
    /// the slots, paid once per refresh of a dirty user.
    pub(crate) fn hour_counts(&self) -> [u32; BINS] {
        let mut counts = [0u32; BINS];
        for &key in &self.slots {
            counts[hour_of(key)] += 1;
        }
        counts
    }

    /// `(hours since 1970, exact live count)` of every active slot, in
    /// ascending order — the form the durable codecs persist.
    pub(crate) fn live_slots(&self) -> impl ExactSizeIterator<Item = (i64, u32)> + Clone + '_ {
        (0..self.slots.len()).map(|i| (hours_of(self.slots[i]), self.count(i)))
    }

    /// Where slot `key` sits in `heavy`, or where it would go.
    fn heavy_slot(&self, key: u32) -> Result<usize, usize> {
        self.heavy.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Keeps slot `key`'s exact live count in `heavy` while it is over
    /// 255, and out of it otherwise.
    fn set_heavy(&mut self, key: u32, count: u32) {
        match self.heavy_slot(key) {
            Ok(j) if count > 255 => self.heavy[j].1 = count,
            Ok(j) => {
                self.heavy.remove(j);
            }
            Err(j) if count > 255 => self.heavy.insert(j, (key, count)),
            Err(_) => {}
        }
    }

    /// Slot `i`'s exact live count.
    fn count(&self, i: usize) -> u32 {
        match self.counts[i] {
            u8::MAX => self
                .heavy_slot(self.slots[i])
                .map_or(255, |j| self.heavy[j].1),
            c => u32::from(c),
        }
    }

    /// Sets slot `i`'s live count.
    fn set_count(&mut self, i: usize, count: u32) {
        self.counts[i] = saturate(count);
        self.set_heavy(self.slots[i], count);
    }

    /// Adds `posts` to slot `i`'s live count: one byte add while the
    /// count stays within a byte.
    fn add_posts(&mut self, i: usize, posts: u32) {
        match u8::try_from(u32::from(self.counts[i]) + posts) {
            Ok(byte) if self.counts[i] < u8::MAX => self.counts[i] = byte,
            _ => self.set_count(i, self.count(i) + posts),
        }
    }

    /// Absorbs one delta of posts — a pure integer update — and returns
    /// the posts absorbed: all of them but any outside the key range,
    /// which are dropped (module docs). Duplicates and out-of-order
    /// arrivals are fine; a timestamp whose (day, hour) slot is already
    /// active only bumps the slot's refcount.
    ///
    /// Posts at or after the last active slot — a crawl replayed in time
    /// order — bump or append that slot in place, amortised O(1) each.
    /// The first earlier post hands itself and the rest of the delta to
    /// the sorted merge; both paths leave identical state.
    pub(crate) fn absorb(&mut self, posts: &[Timestamp]) -> usize {
        let mut absorbed = 0usize;
        for (i, &ts) in posts.iter().enumerate() {
            let Some(k) = post_key(ts) else {
                continue;
            };
            match self.slots.last() {
                Some(&last) if k < last => {
                    absorbed += self.merge(&posts[i..]);
                    break;
                }
                Some(&last) if k == last => self.add_posts(self.slots.len() - 1, 1),
                _ => {
                    reserve_one(&mut self.slots);
                    reserve_one(&mut self.counts);
                    self.slots.push(k);
                    self.counts.push(1);
                }
            }
            absorbed += 1;
        }
        self.posts += absorbed;
        absorbed
    }

    /// Merges posts in any order into the sorted slots and returns the
    /// posts merged (the caller adds them to the post count).
    fn merge(&mut self, posts: &[Timestamp]) -> usize {
        let mut merged = 0usize;
        let mut fresh: Vec<(u32, u32)> = Vec::new();
        for (k, c) in keyed_counts(posts) {
            merged += c as usize;
            match self.slots.binary_search(&k) {
                Ok(i) => self.add_posts(i, c),
                Err(_) => fresh.push((k, c)),
            }
        }
        if fresh.is_empty() {
            return merged;
        }
        for &(k, c) in &fresh {
            self.set_heavy(k, c);
        }
        // Merge the two sorted runs in one pass.
        let mut slots = Vec::with_capacity(self.slots.len() + fresh.len());
        let mut counts = Vec::with_capacity(self.slots.len() + fresh.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.slots.len() && j < fresh.len() {
            if self.slots[i] < fresh[j].0 {
                slots.push(self.slots[i]);
                counts.push(self.counts[i]);
                i += 1;
            } else {
                slots.push(fresh[j].0);
                counts.push(saturate(fresh[j].1));
                j += 1;
            }
        }
        slots.extend_from_slice(&self.slots[i..]);
        counts.extend_from_slice(&self.counts[i..]);
        for &(k, c) in &fresh[j..] {
            slots.push(k);
            counts.push(saturate(c));
        }
        self.slots = slots;
        self.counts = counts;
        merged
    }

    /// Exact inverse of [`absorb`](Self::absorb): decrements the slot
    /// refcounts, removes slots whose count reaches zero, and returns how many posts were actually
    /// removed. A timestamp that was never ingested (or already
    /// retracted) is skipped rather than driving a count negative, so the
    /// state stays exactly what an engine that never saw the removed
    /// posts would hold.
    pub(crate) fn release(&mut self, posts: &[Timestamp]) -> usize {
        let mut removed = 0usize;
        let mut vacated = false;
        for (k, c) in keyed_counts(posts) {
            if let Ok(i) = self.slots.binary_search(&k) {
                let live = self.count(i);
                let take = c.min(live);
                self.set_count(i, live - take);
                removed += take as usize;
                vacated |= take == live;
            }
        }
        if vacated {
            let mut keep = 0usize;
            for i in 0..self.slots.len() {
                if self.counts[i] > 0 {
                    self.slots[keep] = self.slots[i];
                    self.counts[keep] = self.counts[i];
                    keep += 1;
                }
            }
            self.slots.truncate(keep);
            self.counts.truncate(keep);
        }
        self.posts -= removed;
        removed
    }

    /// Drops every slot below `cutoff` (hours since 1970) whole, whatever
    /// its refcount, with its posts; `on_slot` sees each dropped slot's hours. Slots are sorted, so the
    /// dropped ones are a prefix. Returns how many posts were released.
    pub(crate) fn release_below(&mut self, cutoff: i64, on_slot: &mut impl FnMut(i64)) -> usize {
        let n = self.slots.partition_point(|&k| hours_of(k) < cutoff);
        let mut released = 0usize;
        for i in 0..n {
            released += self.count(i) as usize;
            on_slot(hours_of(self.slots[i]));
        }
        let heavy = self.heavy.partition_point(|&(k, _)| hours_of(k) < cutoff);
        self.heavy.drain(..heavy);
        self.slots.drain(..n);
        self.counts.drain(..n);
        self.posts -= released;
        released
    }
}

/// An eligible user's analysis as of the last refresh. The engine's kept
/// vectors own a kept user's profile and placement; this record holds
/// only what a refresh needs to retire them — the zone to uncount — and
/// what a durable snapshot persists.
#[derive(Debug, Clone, Copy)]
pub(crate) enum UserAnalysis {
    /// Removed by the §IV.C flatness filter (never with polishing off).
    Flat,
    /// Kept and placed: the offset in minutes east of UTC and the EMD to
    /// that zone, in hours.
    Kept { offset_minutes: i32, emd: f64 },
}

/// One hash partition of the crowd: its users plus the dirty ids whose
/// profiles changed since the last refresh.
#[derive(Debug, Clone, Default)]
struct Shard {
    users: UserMap,
    /// Ids flagged dirty since the last drain, in flagging order, each a
    /// clone of its map key; each appears once, because only a clean
    /// accumulator gets pushed.
    dirty: Vec<Arc<str>>,
}

/// Flags a changed accumulator dirty, queueing its id on the first
/// change since the last drain.
fn mark_dirty(acc: &mut UserAccumulator, dirty: &mut Vec<Arc<str>>, user: &Arc<str>) {
    if !acc.dirty {
        acc.dirty = true;
        dirty.push(Arc::clone(user));
    }
}

impl Shard {
    /// Applies one signed delta to this shard's slice of the crowd — the
    /// inner loop of [`ShardSet::apply`], so ingest and retraction route
    /// identically — and returns the posts applied: the in-range ones of
    /// an ingest, those actually released by a retraction. A known user
    /// costs one map probe.
    ///
    /// An ingest that absorbs a post changes the profile (at minimum its
    /// post count), so the user must be re-analyzed; one that absorbs
    /// nothing (empty, or every post outside the key range) changes
    /// nothing and adds no user. A retraction skips unknown users and
    /// never-ingested posts (retracting a post the engine never saw is a
    /// no-op), and one that releases nothing leaves the dirty set
    /// untouched — the state remains exactly what an engine that never
    /// saw the retracted posts would hold. A user's (possibly now-empty)
    /// accumulator stays in the map until the next refresh forgets it:
    /// an empty accumulator analyzes to nothing, so reports are
    /// unaffected, and keeping it preserves the refresh invariant that
    /// every dirty id resolves to an accumulator.
    fn apply(&mut self, user: &str, posts: &[Timestamp], retract: bool) -> usize {
        let Shard { users, dirty } = self;
        match users.get_mut(user) {
            Some(acc) => {
                let applied = if retract {
                    acc.release(posts)
                } else {
                    acc.absorb(posts)
                };
                if applied > 0 && !acc.dirty {
                    acc.dirty = true;
                    // The user's first change since the last drain queues
                    // its key: a second probe once per refresh, not per post.
                    let (id, _) = users.get_key_value(user).expect("probed above");
                    dirty.push(Arc::clone(id));
                }
                applied
            }
            None if retract => 0,
            None => {
                let mut acc = UserAccumulator::default();
                let applied = acc.absorb(posts);
                if applied > 0 {
                    let id = Arc::from(user);
                    mark_dirty(&mut acc, dirty, &id);
                    users.insert(id, acc);
                }
                applied
            }
        }
    }

    /// Releases every slot below `cutoff` from every user and marks each
    /// user that lost one dirty. Returns the posts released.
    fn release_below(&mut self, cutoff: i64, on_slot: &mut impl FnMut(i64)) -> usize {
        let Shard { users, dirty } = self;
        let mut released = 0usize;
        for (user, acc) in users.iter_mut() {
            if acc.slots.first().is_some_and(|&k| hours_of(k) < cutoff) {
                released += acc.release_below(cutoff, on_slot);
                mark_dirty(acc, dirty, user);
            }
        }
        released
    }
}

/// N hash-partitioned shards of per-user accumulators with per-shard
/// dirty sets, each behind its own mutex. See the module docs for the
/// determinism argument; writes ([`apply`](Self::apply)) lock one shard
/// at a time, the single-owner phases bypass the mutexes with `get_mut`.
#[derive(Debug)]
pub(crate) struct ShardSet {
    shards: Vec<Mutex<Shard>>,
}

impl Clone for ShardSet {
    fn clone(&self) -> ShardSet {
        ShardSet {
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(relock(s).clone()))
                .collect(),
        }
    }
}

impl ShardSet {
    /// A set of `shards` empty shards (at least 1).
    pub(crate) fn new(shards: usize) -> ShardSet {
        ShardSet {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a user routes to — a pure function of the id.
    pub(crate) fn shard_of(&self, user: &str) -> usize {
        (fnv1a(user.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The accumulators for `ids` in the given order — the refresh
    /// phase-1 read. Single-owner access: reaches through the mutexes
    /// without locking.
    pub(crate) fn accs_for(&mut self, ids: &[Arc<str>]) -> Vec<&UserAccumulator> {
        let count = self.shards.len() as u64;
        let maps: Vec<&UserMap> = self.shards.iter_mut().map(|m| &remut(m).users).collect();
        ids.iter()
            .map(|id| {
                let shard = (fnv1a(id.as_bytes()) % count) as usize;
                maps[shard].get(&**id).expect("dirty user exists")
            })
            .collect()
    }

    /// The user's accumulator, if ever ingested (single-owner access).
    #[cfg(test)]
    pub(crate) fn acc(&mut self, user: &str) -> Option<&UserAccumulator> {
        let shard = self.shard_of(user);
        remut(&mut self.shards[shard]).users.get(user)
    }

    /// Mutable access to the user's accumulator (single-owner access).
    pub(crate) fn acc_mut(&mut self, user: &str) -> Option<&mut UserAccumulator> {
        let shard = self.shard_of(user);
        remut(&mut self.shards[shard]).users.get_mut(user)
    }

    /// Removes a user's accumulator (single-owner access) — the refresh
    /// forgets a user left with no live post. The user must be clean:
    /// a dirty id would outlive its accumulator in the shard's list.
    pub(crate) fn forget(&mut self, user: &str) {
        let shard = self.shard_of(user);
        let removed = remut(&mut self.shards[shard]).users.remove(user);
        debug_assert!(removed.is_some_and(|acc| !acc.dirty && acc.posts == 0));
    }

    /// The oldest and newest live slots across the crowd, in hours since
    /// 1970, `None` while no user holds a slot (single-owner access).
    pub(crate) fn live_slot_range(&mut self) -> Option<(i64, i64)> {
        self.shards
            .iter_mut()
            .flat_map(|s| remut(s).users.values())
            .filter_map(|acc| Some((*acc.slots.first()?, *acc.slots.last()?)))
            .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))
            .map(|(lo, hi)| (hours_of(lo), hours_of(hi)))
    }

    /// Releases every slot below `cutoff` (hours since 1970) from every
    /// user in one pass over the shards, marking each user that lost one
    /// dirty; `on_slot` sees each released slot's hours. Returns the
    /// posts released (single-owner access).
    pub(crate) fn release_below(&mut self, cutoff: i64, mut on_slot: impl FnMut(i64)) -> usize {
        self.shards
            .iter_mut()
            .map(|s| remut(s).release_below(cutoff, &mut on_slot))
            .sum()
    }

    /// The one write path: routes a batch of signed deltas to their
    /// shards (in arrival order), then locks each touched shard **once**,
    /// applies its deltas in arrival order, and releases it before
    /// moving on. With `retract` each delta is released from its
    /// accumulator instead of absorbed. At most one shard lock is held
    /// per thread, so writer/writer deadlock is impossible and two
    /// writers whose batches route to disjoint shards never contend.
    /// With `threads > 1` the shards are split into contiguous runs, one
    /// scoped worker each, so no two workers ever touch the same
    /// accumulator.
    ///
    /// Retraction only commutes with ingestion of the *same* posts when
    /// it runs after them (releasing an unseen post is a skip, not a
    /// debt), so callers sequence a post's retraction after the batch
    /// that ingested it. Window expiry needs no such ordering: it
    /// releases whole slots under the write gate
    /// ([`release_below`](Self::release_below)).
    ///
    /// Contended acquisitions are counted and their wait timed into the
    /// `ingest.*` metrics when `obs` is attached; the uncontended fast
    /// path costs one `try_lock`. Returns the posts applied: the in-range
    /// ones of an ingest, the released ones of a retraction.
    pub(crate) fn apply(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        threads: usize,
        obs: Option<&SharedIngestObs>,
    ) -> usize {
        // One routing vector: `(shard, delta index)` sorted, so each
        // shard's deltas form one run, in arrival order.
        let mut routed: Vec<(usize, usize)> = deltas
            .iter()
            .enumerate()
            .map(|(i, (user, _))| (self.shard_of(user), i))
            .collect();
        routed.sort_unstable();
        let apply_run = |mut routed: &[(usize, usize)]| {
            let mut applied = 0usize;
            while let Some(&(index, _)) = routed.first() {
                let (run, rest) = routed.split_at(routed.partition_point(|&(s, _)| s == index));
                routed = rest;
                let mutex = &self.shards[index];
                let mut shard = match mutex.try_lock() {
                    Ok(guard) => guard,
                    Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        let start = Instant::now();
                        let guard = relock(mutex);
                        if let Some(obs) = obs {
                            obs.shard_contention.inc();
                            obs.lock_wait.observe(start.elapsed().as_nanos() as u64);
                        }
                        guard
                    }
                };
                for &(_, i) in run {
                    let (user, posts) = deltas[i];
                    applied += shard.apply(user, posts, retract);
                }
            }
            applied
        };
        // Clamped only when asked to fan out: reading the host's
        // parallelism costs microseconds, more than a small writer batch.
        let threads = match threads.min(self.shards.len()) {
            0 | 1 => 1,
            n => clamped_threads(n),
        };
        if threads == 1 {
            return apply_run(&routed);
        }
        // Worker `w` owns shards `w·chunk_len ..` up to the next worker's.
        let chunk_len = self.shards.len().div_ceil(threads);
        let applied = AtomicUsize::new(0);
        let (apply_run, total) = (&apply_run, &applied);
        crossbeam::thread::scope(|scope| {
            let mut rest = &routed[..];
            while let Some(&(first, _)) = rest.first() {
                let end = (first / chunk_len + 1) * chunk_len;
                let (run, tail) = rest.split_at(rest.partition_point(|&(s, _)| s < end));
                rest = tail;
                scope.spawn(move |_| total.fetch_add(apply_run(run), Ordering::Relaxed));
            }
        })
        .expect("thread scope failed");
        applied.into_inner()
    }

    /// Drains every shard's dirty list into one globally id-sorted vector
    /// and clears the drained users' flags — the merge point where
    /// sharding disappears: downstream refresh work sees exactly the
    /// order a single sorted set would have produced.
    pub(crate) fn take_dirty_sorted(&mut self) -> Vec<Arc<str>> {
        let mut dirty: Vec<Arc<str>> = Vec::with_capacity(self.dirty_len());
        for shard in &mut self.shards {
            let shard = remut(shard);
            for id in shard.dirty.drain(..) {
                shard.users.get_mut(&*id).expect("dirty user exists").dirty = false;
                dirty.push(id);
            }
        }
        dirty.sort_unstable();
        dirty
    }

    /// Total dirty users across all shards.
    pub(crate) fn dirty_len(&self) -> usize {
        self.shards.iter().map(|s| relock(s).dirty.len()).sum()
    }

    /// Users held in the shards: every user with a live post, plus
    /// users emptied since the last refresh (which forgets them).
    pub(crate) fn users_tracked(&self) -> usize {
        self.shards.iter().map(|s| relock(s).users.len()).sum()
    }

    /// Total posts ingested (duplicates included).
    pub(crate) fn posts_ingested(&self) -> usize {
        self.shards
            .iter()
            .map(|s| relock(s).users.values().map(|a| a.posts).sum::<usize>())
            .sum()
    }

    /// Users per shard, in shard-index order — the occupancy the
    /// observability layer gauges.
    pub(crate) fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| relock(s).users.len()).collect()
    }

    /// Visits every shard in index order with its users sorted by id —
    /// the export side of durable snapshots, whose bytes depend on that
    /// order (a user's `dirty` flag says whether it awaits a refresh).
    /// Locks each shard for the duration of its visit.
    pub(crate) fn for_each_shard<F>(&self, mut f: F)
    where
        F: FnMut(&[(&str, &UserAccumulator)]),
    {
        for shard in &self.shards {
            let shard = relock(shard);
            let mut users: Vec<(&str, &UserAccumulator)> =
                shard.users.iter().map(|(id, acc)| (&**id, acc)).collect();
            users.sort_unstable_by_key(|&(id, _)| id);
            f(&users);
        }
    }

    /// Reinstates one user recovered from a durable snapshot, routing by
    /// the *current* shard count (snapshots survive reconfiguration: the
    /// persisted partition is just how the users happened to be grouped
    /// at write time). `dirty` re-marks users that were awaiting a
    /// refresh when the snapshot was taken; `acc` arrives clean, and a
    /// snapshot lists each id once.
    pub(crate) fn restore_user(&mut self, id: Arc<str>, mut acc: UserAccumulator, dirty: bool) {
        let shard = self.shard_of(&id);
        let shard = remut(&mut self.shards[shard]);
        if dirty {
            mark_dirty(&mut acc, &mut shard.dirty, &id);
        }
        shard.users.insert(id, acc);
    }

    /// Every user across all shards in global id order — the recovery
    /// pass that rebuilds the engine's derived state walks this once.
    pub(crate) fn all_users_sorted(&mut self) -> Vec<(&Arc<str>, &UserAccumulator)> {
        let mut all: Vec<(&Arc<str>, &UserAccumulator)> = self
            .shards
            .iter_mut()
            .flat_map(|s| remut(s).users.iter())
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn ts(slot: i64) -> Timestamp {
        Timestamp::from_secs(slot * 3_600)
    }

    /// Hours since 1970 and exact live counts of `acc`'s slots.
    fn slots(acc: &UserAccumulator) -> (Vec<i64>, Vec<u32>) {
        acc.live_slots().unzip()
    }

    /// One delta through the write path, on the calling thread.
    fn ingest(set: &ShardSet, user: &str, posts: &[Timestamp]) {
        set.apply(&[(user, posts)], false, 1, None);
    }

    /// One retraction through the write path, on the calling thread.
    fn retract(set: &ShardSet, user: &str, posts: &[Timestamp]) {
        set.apply(&[(user, posts)], true, 1, None);
    }

    /// The drained dirty ids, as strings.
    fn drain(set: &mut ShardSet) -> Vec<String> {
        set.take_dirty_sorted()
            .iter()
            .map(|id| id.to_string())
            .collect()
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let set = ShardSet::new(7);
        for user in ["alice", "bob", "u000042", "日本"] {
            let s = set.shard_of(user);
            assert!(s < 7);
            assert_eq!(s, set.shard_of(user), "routing must be deterministic");
        }
        // One shard routes everything to index 0.
        let one = ShardSet::new(1);
        assert_eq!(one.shard_of("anyone"), 0);
    }

    #[test]
    fn fnv_spreads_sequential_ids() {
        // Sequential ids (the synthetic-population shape) must not pile
        // into one shard.
        let set = ShardSet::new(8);
        let mut counts = [0usize; 8];
        for i in 0..800 {
            counts[set.shard_of(&format!("u{i:06}"))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {i} is empty over 800 sequential ids");
            assert!(c < 400, "shard {i} holds {c} of 800 ids");
        }
    }

    #[test]
    fn batch_ingest_matches_serial_ingest() {
        let deltas: Vec<(String, Vec<Timestamp>)> = (0..40)
            .map(|i| {
                (
                    format!("u{:02}", i % 13),
                    (0..3).map(|j| ts(i * 5 + j)).collect(),
                )
            })
            .collect();
        let borrowed: Vec<(&str, &[Timestamp])> = deltas
            .iter()
            .map(|(u, p)| (u.as_str(), p.as_slice()))
            .collect();
        let mut serial = ShardSet::new(4);
        for &(user, posts) in &borrowed {
            ingest(&serial, user, posts);
        }
        for threads in [1usize, 2, 8] {
            let mut batched = ShardSet::new(4);
            batched.apply(&borrowed, false, threads, None);
            assert_eq!(batched.users_tracked(), serial.users_tracked());
            assert_eq!(batched.posts_ingested(), serial.posts_ingested());
            assert_eq!(batched.take_dirty_sorted(), {
                let mut s = serial.clone();
                s.take_dirty_sorted()
            });
            for user in (0..13).map(|i| format!("u{i:02}")) {
                let a = batched.acc(&user).expect("user ingested").clone();
                let b = serial.acc(&user).expect("user ingested");
                assert_eq!(a.slots, b.slots);
                assert_eq!(a.hour_counts(), b.hour_counts());
                assert_eq!(a.posts, b.posts);
            }
        }
    }

    /// The fanned-out batch (two workers) against the calling thread.
    #[test]
    fn shared_batch_ingest_matches_owned_batch_ingest() {
        let deltas: Vec<(String, Vec<Timestamp>)> = (0..60)
            .map(|i| {
                (
                    format!("w{:02}", i % 17),
                    (0..2).map(|j| ts(i * 7 + j)).collect(),
                )
            })
            .collect();
        let borrowed: Vec<(&str, &[Timestamp])> = deltas
            .iter()
            .map(|(u, p)| (u.as_str(), p.as_slice()))
            .collect();
        let mut one = ShardSet::new(4);
        one.apply(&borrowed, false, 1, None);
        let mut two = ShardSet::new(4);
        two.apply(&borrowed, false, 2, None);
        assert_eq!(two.users_tracked(), one.users_tracked());
        assert_eq!(two.posts_ingested(), one.posts_ingested());
        assert_eq!(two.take_dirty_sorted(), one.take_dirty_sorted());
    }

    #[test]
    fn shared_ingest_from_many_threads_converges_to_the_serial_state() {
        // 8 threads, disjoint delta slices: the final accumulator state
        // must equal the serial loop's, whatever the interleaving.
        let deltas: Vec<(String, Vec<Timestamp>)> = (0..160)
            .map(|i| (format!("c{:02}", i % 23), vec![ts(i), ts(i + 3)]))
            .collect();
        let mut serial = ShardSet::new(4);
        for (u, p) in &deltas {
            ingest(&serial, u, p);
        }
        let shared = ShardSet::new(4);
        std::thread::scope(|scope| {
            for chunk in deltas.chunks(20) {
                let shared = &shared;
                scope.spawn(move || {
                    for (u, p) in chunk {
                        let one = [(u.as_str(), p.as_slice())];
                        shared.apply(&one, false, 1, None);
                    }
                });
            }
        });
        let mut shared = shared;
        assert_eq!(shared.posts_ingested(), serial.posts_ingested());
        assert_eq!(shared.take_dirty_sorted(), serial.take_dirty_sorted());
        let ids: Vec<String> = (0..23).map(|i| format!("c{i:02}")).collect();
        for id in &ids {
            let got = shared.acc(id).expect("user ingested").clone();
            let want = serial.acc(id).expect("user ingested");
            assert_eq!(got.slots, want.slots, "{id}");
            assert_eq!(got.hour_counts(), want.hour_counts(), "{id}");
            assert_eq!(got.posts, want.posts, "{id}");
        }
    }

    #[test]
    fn dirty_drain_is_globally_sorted_for_any_shard_count() {
        for shards in [1usize, 4, 16] {
            let mut set = ShardSet::new(shards);
            // Deliberately unsorted arrival order.
            for user in ["zeta", "alpha", "mike", "beta", "zeta"] {
                ingest(&set, user, &[ts(1)]);
            }
            assert_eq!(set.dirty_len(), 4);
            let drained = drain(&mut set);
            assert_eq!(drained, ["alpha", "beta", "mike", "zeta"]);
            assert_eq!(set.dirty_len(), 0, "drain must clear every shard");
        }
    }

    #[test]
    fn accumulator_absorb_is_idempotent_on_slots() {
        let mut acc = UserAccumulator::default();
        acc.absorb(&[ts(5), ts(5), ts(2)]);
        acc.absorb(&[ts(5)]);
        assert_eq!(slots(&acc), (vec![2, 5], vec![1, 3]));
        assert_eq!(acc.posts, 4);
        assert_eq!(acc.hour_counts()[2], 1);
        assert_eq!(acc.hour_counts()[5], 1);
    }

    #[test]
    fn accumulator_absorb_commutes_across_delta_order() {
        // The multi-writer determinism argument rests on this: absorbing
        // the same deltas in any order yields identical state.
        let deltas: Vec<Vec<Timestamp>> = vec![
            vec![ts(10), ts(4)],
            vec![ts(4), ts(200)],
            vec![ts(77)],
            vec![ts(10), ts(10), ts(5)],
        ];
        let mut forward = UserAccumulator::default();
        for d in &deltas {
            forward.absorb(d);
        }
        let mut reverse = UserAccumulator::default();
        for d in deltas.iter().rev() {
            reverse.absorb(d);
        }
        assert_eq!(forward.slots, reverse.slots);
        assert_eq!(forward.hour_counts(), reverse.hour_counts());
        assert_eq!(forward.posts, reverse.posts);
    }

    #[test]
    fn release_is_the_exact_inverse_of_absorb() {
        // Ingest A∪B, release B: state must equal an accumulator that
        // only ever saw A — including the per-slot refcounts.
        let a = [ts(1), ts(1), ts(5), ts(30)];
        let b = [ts(1), ts(5), ts(5), ts(200)];
        let mut acc = UserAccumulator::default();
        acc.absorb(&a);
        acc.absorb(&b);
        assert_eq!(acc.release(&b), b.len());
        let mut fresh = UserAccumulator::default();
        fresh.absorb(&a);
        assert_eq!(slots(&acc), slots(&fresh));
        assert_eq!(acc.hour_counts(), fresh.hour_counts());
        assert_eq!(acc.posts, fresh.posts);
    }

    #[test]
    fn release_of_unseen_posts_is_a_noop() {
        let mut acc = UserAccumulator::default();
        acc.absorb(&[ts(3), ts(3)]);
        let before = acc.clone();
        // ts(900) never ingested; ts(3) over-released by one.
        assert_eq!(acc.release(&[ts(900)]), 0);
        assert_eq!(acc.release(&[ts(3), ts(3), ts(3)]), 2);
        assert_eq!(acc.posts, 0);
        assert!(acc.slots.is_empty());
        assert_eq!(acc.hour_counts(), [0; BINS]);
        // The earlier no-op left everything intact.
        assert_eq!(before.posts, 2);
        assert_eq!(slots(&before), (vec![3], vec![2]));
    }

    #[test]
    fn release_keeps_shared_slots_while_posts_remain() {
        // Two posts in one slot: retracting one must keep the slot (and
        // its hour count); retracting the other clears it.
        let mut acc = UserAccumulator::default();
        acc.absorb(&[ts(7), ts(7)]);
        assert_eq!(acc.release(&[ts(7)]), 1);
        assert_eq!(slots(&acc), (vec![7], vec![1]));
        assert_eq!(acc.hour_counts()[7], 1);
        assert_eq!(acc.release(&[ts(7)]), 1);
        assert!(acc.slots.is_empty());
        assert_eq!(acc.hour_counts()[7], 0);
    }

    #[test]
    fn shard_retract_matches_fresh_ingest_of_survivors() {
        for shards in [1usize, 4, 16] {
            let mut set = ShardSet::new(shards);
            let keep: Vec<(String, Vec<Timestamp>)> = (0..9)
                .map(|i| (format!("u{i:02}"), vec![ts(i * 3), ts(i * 3 + 1)]))
                .collect();
            let drop: Vec<(String, Vec<Timestamp>)> = (0..9)
                .step_by(2)
                .map(|i| (format!("u{i:02}"), vec![ts(i * 3 + 1), ts(i * 100 + 40)]))
                .collect();
            for (u, p) in keep.iter().chain(&drop) {
                ingest(&set, u, p);
            }
            for (u, p) in &drop {
                retract(&set, u, p);
            }
            let mut fresh = ShardSet::new(shards);
            for (u, p) in &keep {
                ingest(&fresh, u, p);
            }
            assert_eq!(set.posts_ingested(), fresh.posts_ingested());
            for (u, _) in &keep {
                let got = set.acc(u).expect("user kept").clone();
                let want = fresh.acc(u).expect("user kept");
                assert_eq!(slots(&got), slots(want), "{u} shards={shards}");
                assert_eq!(got.hour_counts(), want.hour_counts(), "{u}");
                assert_eq!(got.posts, want.posts, "{u}");
            }
        }
    }

    #[test]
    fn retract_of_unknown_user_changes_nothing() {
        let mut set = ShardSet::new(4);
        ingest(&set, "known", &[ts(1)]);
        set.take_dirty_sorted();
        retract(&set, "ghost", &[ts(1)]);
        // A retraction that removed nothing must not dirty the user.
        retract(&set, "known", &[ts(999)]);
        assert_eq!(set.dirty_len(), 0);
        assert_eq!(set.users_tracked(), 1);
    }

    /// Signed batches fanned out over two workers against the calling
    /// thread.
    #[test]
    fn retract_batch_shared_matches_owned_retract_batch() {
        let posts: Vec<(String, Vec<Timestamp>)> = (0..40)
            .map(|i| (format!("r{:02}", i % 11), vec![ts(i), ts(i + 2)]))
            .collect();
        let dropped: Vec<(String, Vec<Timestamp>)> = posts.iter().skip(13).cloned().collect();
        fn as_refs(v: &[(String, Vec<Timestamp>)]) -> Vec<(&str, &[Timestamp])> {
            v.iter().map(|(u, p)| (u.as_str(), p.as_slice())).collect()
        }
        let mut one = ShardSet::new(4);
        one.apply(&as_refs(&posts), false, 1, None);
        one.apply(&as_refs(&dropped), true, 1, None);
        let mut two = ShardSet::new(4);
        two.apply(&as_refs(&posts), false, 2, None);
        two.apply(&as_refs(&dropped), true, 2, None);
        assert_eq!(two.posts_ingested(), one.posts_ingested());
        assert_eq!(two.take_dirty_sorted(), one.take_dirty_sorted());
    }

    #[test]
    fn release_below_drops_whole_slots_like_a_fresh_ingest_of_the_rest() {
        // Slots 3 (two posts), 5 (300, past the count escape), 7, 9 (three
        // posts) and 30: a cutoff of 9 drops slots 3, 5 and 7 whole,
        // whatever their refcounts.
        let below = [&[ts(3), ts(3)][..], &[ts(5); 300], &[ts(7)]].concat();
        let rest = [ts(9), ts(9), ts(9), ts(30)];
        let mut acc = UserAccumulator::default();
        acc.absorb(&[&below[..], &rest].concat());
        let mut seen = Vec::new();
        assert_eq!(acc.release_below(9, &mut |k| seen.push(k)), below.len());
        assert_eq!(seen, [3, 5, 7]);
        assert!(acc.heavy.is_empty());
        let mut fresh = UserAccumulator::default();
        fresh.absorb(&rest);
        assert_eq!(slots(&acc), slots(&fresh));
        assert_eq!(acc.hour_counts(), fresh.hour_counts());
        assert_eq!(acc.posts, fresh.posts);
        assert_eq!(
            acc.release_below(9, &mut |_| panic!("nothing left below")),
            0
        );
    }

    #[test]
    fn shard_set_expiry_dirties_only_users_that_lost_slots() {
        for shards in [1usize, 4, 16] {
            let mut set = ShardSet::new(shards);
            assert_eq!(set.live_slot_range(), None);
            ingest(&set, "old", &[ts(1), ts(2)]);
            ingest(&set, "mixed", &[ts(4), ts(4), ts(50)]);
            ingest(&set, "new", &[ts(60)]);
            ingest(&set, "emptied", &[ts(5)]);
            retract(&set, "emptied", &[ts(5)]);
            set.take_dirty_sorted();
            assert_eq!(set.live_slot_range(), Some((1, 60)));
            let mut released_slots = Vec::new();
            assert_eq!(set.release_below(10, |k| released_slots.push(k)), 4);
            released_slots.sort_unstable();
            assert_eq!(released_slots, [1, 2, 4]);
            assert_eq!(drain(&mut set), ["mixed", "old"], "shards={shards}");
            assert_eq!(set.live_slot_range(), Some((50, 60)));
            assert_eq!(set.posts_ingested(), 2);
            assert_eq!(set.users_tracked(), 4, "emptied users stay in the map");
            assert_eq!(set.release_below(10, |_| panic!("nothing below")), 0);
            assert_eq!(set.dirty_len(), 0);
        }
    }

    #[test]
    fn empty_delta_is_ignored() {
        let set = ShardSet::new(3);
        ingest(&set, "ghost", &[]);
        assert_eq!(set.users_tracked(), 0);
        assert_eq!(set.dirty_len(), 0);
    }

    /// One step of a signed-delta sequence over [`MODEL_USERS`].
    #[derive(Debug, Clone)]
    enum Step {
        Apply {
            retract: bool,
            deltas: Vec<(usize, Vec<Timestamp>)>,
        },
        /// Window expiry: release every slot below the cutoff hour.
        Expire(i64),
        Drain,
    }

    const MODEL_USERS: &[&str] = &["carol", "alice", "bob"];

    /// The first and last second inside the key range (module docs).
    const RANGE_SECS: (i64, i64) = (
        -EPOCH_HOURS * 3_600,
        (u32::MAX as i64 - EPOCH_HOURS) * 3_600 + 3_599,
    );

    /// Posts at, just inside and just outside both edges of the key
    /// range, and the `i64` extremes.
    fn edge_posts() -> [Timestamp; 8] {
        let (lo, hi) = RANGE_SECS;
        [
            lo - 1,
            lo,
            lo + 3_600,
            hi - 3_600,
            hi,
            hi + 1,
            i64::MIN,
            i64::MAX,
        ]
        .map(Timestamp::from_secs)
    }

    /// Sequences mixing time-ordered, late, same-slot and duplicate
    /// posts in multi-post deltas with retractions of seen and unseen
    /// posts, posts at both edges of the key range, slots filled and
    /// drained past 255 posts (the count escape), and drains in between.
    struct Steps;

    impl proptest::Strategy for Steps {
        type Value = Vec<Step>;

        fn try_generate(&self, rng: &mut proptest::TestRng) -> Option<Vec<Step>> {
            let mut pick = |n: u64| (rng.next_u64() % n) as i64;
            let mut clock = pick(1_000_000) * 3_600;
            let mut seen: Vec<Timestamp> = Vec::new();
            let mut steps = Vec::new();
            for _ in 0..1 + pick(24) {
                match pick(10) {
                    0 | 1 => {
                        steps.push(Step::Drain);
                        continue;
                    }
                    // Mostly a few days behind the clock, now and then
                    // past every slot of the range.
                    2 => {
                        let cutoff = match pick(8) {
                            0 => RANGE_SECS.1 / 3_600 + 1,
                            _ => clock / 3_600 - pick(24 * 8),
                        };
                        steps.push(Step::Expire(cutoff));
                        continue;
                    }
                    _ => {}
                }
                let retract = pick(3) == 0;
                let deltas = (0..1 + pick(3))
                    .map(|_| {
                        let user = pick(MODEL_USERS.len() as u64) as usize;
                        let mut posts = (0..pick(5))
                            .map(|_| match (retract, pick(6)) {
                                // A duplicate ingest, or a seen retraction.
                                (_, 2 | 3) if !seen.is_empty() && (retract || pick(2) == 0) => {
                                    seen[pick(seen.len() as u64) as usize]
                                }
                                // Late, then in the clock's slot.
                                (false, 0) => ts(clock / 3_600 - 1 - pick(200)),
                                (false, 1) => {
                                    Timestamp::from_secs(clock / 3_600 * 3_600 + pick(3_600))
                                }
                                (_, 5) => edge_posts()[pick(8) as usize],
                                // Mostly unseen.
                                (true, _) => Timestamp::from_secs(pick(2_000_000) * 1_800),
                                _ => {
                                    clock += pick(3) * 3_600 + pick(3_600);
                                    Timestamp::from_secs(clock)
                                }
                            })
                            .collect::<Vec<_>>();
                        // Now and then a burst into one slot: two bursts
                        // take it past a byte, a retraction burst back.
                        if let (0, Some(&post)) = (pick(6), posts.first()) {
                            posts.resize(posts.len() + 120 + pick(200) as usize, post);
                        }
                        seen.extend(&posts);
                        (user, posts)
                    })
                    .collect();
                steps.push(Step::Apply { retract, deltas });
            }
            Some(steps)
        }
    }

    /// The reference: per-user live post count per `i64` slot, plus the
    /// users changed since the last drain. A post outside the key range
    /// is dropped.
    #[derive(Default)]
    struct Model {
        slots: Vec<Option<BTreeMap<i64, u32>>>,
        changed: BTreeSet<&'static str>,
    }

    impl Model {
        /// Applies one signed batch and returns the posts applied.
        fn apply(&mut self, retract: bool, deltas: &[(usize, Vec<Timestamp>)]) -> usize {
            self.slots.resize(MODEL_USERS.len(), None);
            let mut applied = 0usize;
            for (user, posts) in deltas {
                let (lo, hi) = RANGE_SECS;
                let posts: Vec<i64> = posts
                    .iter()
                    .map(|ts| ts.as_secs())
                    .filter(|secs| (lo..=hi).contains(secs))
                    .collect();
                let slots = &mut self.slots[*user];
                if posts.is_empty() || (slots.is_none() && retract) {
                    continue;
                }
                let mut changed = !retract;
                let slots = slots.get_or_insert_with(BTreeMap::new);
                for secs in posts {
                    let count = slots.entry(secs.div_euclid(3_600)).or_insert(0);
                    if !retract {
                        *count += 1;
                        applied += 1;
                    } else if *count > 0 {
                        *count -= 1;
                        applied += 1;
                        changed = true;
                    }
                }
                slots.retain(|_, &mut c| c > 0);
                if changed {
                    self.changed.insert(MODEL_USERS[*user]);
                }
            }
            applied
        }

        /// Releases every slot below `cutoff` and returns the posts
        /// released.
        fn expire(&mut self, cutoff: i64) -> usize {
            let mut released = 0usize;
            for (user, slots) in MODEL_USERS.iter().zip(&mut self.slots) {
                let Some(slots) = slots else {
                    continue;
                };
                let kept = slots.split_off(&cutoff);
                let below = std::mem::replace(slots, kept);
                if !below.is_empty() {
                    released += below.values().sum::<u32>() as usize;
                    self.changed.insert(user);
                }
            }
            released
        }

        fn check(&self, set: &mut ShardSet) -> Result<(), String> {
            for (user, model) in MODEL_USERS.iter().zip(&self.slots) {
                let (Some(model), Some(acc)) = (model, set.acc(user)) else {
                    proptest::prop_assert!(model.is_none() && set.acc(user).is_none(), "{user}");
                    continue;
                };
                let mut hours = [0u32; BINS];
                for &k in model.keys() {
                    hours[k.rem_euclid(24) as usize] += 1;
                }
                let (keys, counts) = slots(acc);
                proptest::prop_assert_eq!(&keys, &model.keys().copied().collect::<Vec<_>>());
                proptest::prop_assert_eq!(&counts, &model.values().copied().collect::<Vec<_>>());
                proptest::prop_assert_eq!(acc.hour_counts(), hours);
                proptest::prop_assert_eq!(acc.posts, model.values().sum::<u32>() as usize);
            }
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(500))]

        #[test]
        fn accumulators_match_the_slot_model(steps in Steps, shards in 1usize..5) {
            let mut model = Model::default();
            let mut one = ShardSet::new(shards);
            let mut two = ShardSet::new(shards);
            for step in &steps {
                match step {
                    Step::Apply { retract, deltas } => {
                        let want = model.apply(*retract, deltas);
                        let refs: Vec<(&str, &[Timestamp])> = deltas
                            .iter()
                            .map(|(u, p)| (MODEL_USERS[*u], p.as_slice()))
                            .collect();
                        proptest::prop_assert_eq!(one.apply(&refs, *retract, 1, None), want);
                        proptest::prop_assert_eq!(two.apply(&refs, *retract, 2, None), want);
                    }
                    Step::Expire(cutoff) => {
                        let want = model.expire(*cutoff);
                        for set in [&mut one, &mut two] {
                            proptest::prop_assert_eq!(set.release_below(*cutoff, |_| ()), want);
                        }
                    }
                    Step::Drain => {
                        let want: Vec<&str> = std::mem::take(&mut model.changed).into_iter().collect();
                        for set in [&mut one, &mut two] {
                            proptest::prop_assert_eq!(set.dirty_len(), want.len());
                            proptest::prop_assert_eq!(&drain(set), &want);
                            proptest::prop_assert!(set.take_dirty_sorted().is_empty());
                        }
                    }
                }
                model.check(&mut one)?;
                model.check(&mut two)?;
            }
        }
    }

    #[test]
    fn default_shards_is_positive() {
        assert!(default_shards() >= 1);
    }
}
