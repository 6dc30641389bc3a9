//! Hash-partitioned accumulator shards — the storage layer of the
//! streaming engine.
//!
//! [`StreamingPipeline`](crate::StreamingPipeline) used to keep every
//! user in one `BTreeMap`, which serializes ingestion: a bulk delta (a
//! full crawl round, a monitor poll batch) touches users all over the id
//! space, but every insert goes through the same map. A [`ShardSet`]
//! splits the crowd into N disjoint shards by a stable hash of the user
//! id, so a batch of deltas can be **routed once and applied
//! concurrently** — each worker owns whole shards, no locks, no shared
//! mutable state.
//!
//! Each shard additionally sits behind its own mutex, so a
//! [`ConcurrentStreamingPipeline`](crate::ConcurrentStreamingPipeline)
//! can drive the same shards from **many writer threads at once**
//! ([`ShardSet::apply_batch_shared`]): writers route by the same FNV hash
//! and lock one shard at a time, so two writers touching different shards
//! never contend. The single-owner `&mut` paths are unchanged in
//! cost — they reach through the mutexes with
//! [`Mutex::get_mut`], which is a plain borrow, not a lock.
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
//!
//! `tests/sharding_determinism.rs` asserts the resulting snapshots are
//! byte-identical across shard counts {1, 4, 16} × threads {1, 2, 8};
//! `tests/concurrent_determinism.rs` extends the same assertion to
//! multi-writer ingestion.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crowdtz_stats::BINS;
use crowdtz_time::{Timestamp, TzOffset};

use crate::engine::clamped_threads;
use crate::placement::UserPlacement;
use crate::profile::ActivityProfile;

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
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

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
/// [`ActivityProfile`] without touching raw history again.
#[derive(Debug, Clone, Default)]
pub(crate) struct UserAccumulator {
    /// Sorted, deduplicated `day·24 + hour` keys of active slots (UTC).
    pub(crate) slots: Vec<i64>,
    /// Live post count per slot, parallel to `slots` — the refcount the
    /// signed-delta path decrements. A slot stays active while its count
    /// is positive; `sum(slot_counts) == posts` always.
    pub(crate) slot_counts: Vec<u32>,
    /// Number of active slots per hour of day — the integer pre-image of
    /// the profile's distribution.
    pub(crate) hour_counts: [u32; BINS],
    /// Raw post count, duplicates included (the eligibility threshold
    /// counts posts, not slots).
    pub(crate) posts: usize,
    /// The user's analysis as of the last refresh; `None` when the user
    /// is below the activity threshold.
    pub(crate) analysis: Option<UserAnalysis>,
}

/// The sorted `(slot key, post count)` runs of a delta — the common
/// routing for both signs: absorb adds the counts, release subtracts
/// them.
fn keyed_counts(posts: &[Timestamp]) -> Vec<(i64, u32)> {
    let mut keys: Vec<i64> = posts
        .iter()
        .map(|ts| {
            ts.day_in_offset(TzOffset::UTC) * 24 + i64::from(ts.hour_in_offset(TzOffset::UTC))
        })
        .collect();
    keys.sort_unstable();
    let mut runs: Vec<(i64, u32)> = Vec::new();
    for k in keys {
        match runs.last_mut() {
            Some((last, c)) if *last == k => *c += 1,
            _ => runs.push((k, 1)),
        }
    }
    runs
}

impl UserAccumulator {
    /// Absorbs one delta of posts — a pure integer update. Duplicates and
    /// out-of-order arrivals are fine; a timestamp whose (day, hour) slot
    /// is already active only bumps the slot's refcount.
    pub(crate) fn absorb(&mut self, posts: &[Timestamp]) {
        self.posts += posts.len();
        let mut fresh: Vec<(i64, u32)> = Vec::new();
        for (k, c) in keyed_counts(posts) {
            match self.slots.binary_search(&k) {
                Ok(i) => self.slot_counts[i] += c,
                Err(_) => fresh.push((k, c)),
            }
        }
        if fresh.is_empty() {
            return;
        }
        for &(k, _) in &fresh {
            self.hour_counts[k.rem_euclid(24) as usize] += 1;
        }
        // Merge the two sorted runs in one pass.
        let mut slots = Vec::with_capacity(self.slots.len() + fresh.len());
        let mut counts = Vec::with_capacity(self.slots.len() + fresh.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.slots.len() && j < fresh.len() {
            if self.slots[i] < fresh[j].0 {
                slots.push(self.slots[i]);
                counts.push(self.slot_counts[i]);
                i += 1;
            } else {
                slots.push(fresh[j].0);
                counts.push(fresh[j].1);
                j += 1;
            }
        }
        slots.extend_from_slice(&self.slots[i..]);
        counts.extend_from_slice(&self.slot_counts[i..]);
        for &(k, c) in &fresh[j..] {
            slots.push(k);
            counts.push(c);
        }
        self.slots = slots;
        self.slot_counts = counts;
    }

    /// Exact inverse of [`absorb`](Self::absorb): decrements the slot
    /// refcounts, removes slots whose count reaches zero (and their
    /// hour-count contribution), and returns how many posts were actually
    /// removed. A timestamp that was never ingested (or already
    /// retracted) is skipped rather than driving a count negative, so the
    /// state stays exactly what an engine that never saw the removed
    /// posts would hold.
    pub(crate) fn release(&mut self, posts: &[Timestamp]) -> usize {
        let mut removed = 0usize;
        let mut vacated = false;
        for (k, c) in keyed_counts(posts) {
            if let Ok(i) = self.slots.binary_search(&k) {
                let take = c.min(self.slot_counts[i]);
                self.slot_counts[i] -= take;
                removed += take as usize;
                if self.slot_counts[i] == 0 {
                    self.hour_counts[k.rem_euclid(24) as usize] -= 1;
                    vacated = true;
                }
            }
        }
        if vacated {
            let mut keep = 0usize;
            for i in 0..self.slots.len() {
                if self.slot_counts[i] > 0 {
                    self.slots[keep] = self.slots[i];
                    self.slot_counts[keep] = self.slot_counts[i];
                    keep += 1;
                }
            }
            self.slots.truncate(keep);
            self.slot_counts.truncate(keep);
        }
        self.posts -= removed;
        removed
    }
}

/// The per-user outputs the batch pipeline would have produced.
#[derive(Debug, Clone)]
pub(crate) struct UserAnalysis {
    pub(crate) profile: ActivityProfile,
    /// §IV.C flatness flag (always `false` when polishing is disabled).
    pub(crate) flat: bool,
    /// Placement, computed only for kept (non-flat) users.
    pub(crate) placement: Option<UserPlacement>,
}

impl UserAnalysis {
    pub(crate) fn kept(&self) -> bool {
        !self.flat
    }
}

/// One hash partition of the crowd: its users plus the dirty ids whose
/// profiles changed since the last refresh.
#[derive(Debug, Clone, Default)]
struct Shard {
    users: BTreeMap<String, UserAccumulator>,
    dirty: BTreeSet<String>,
}

impl Shard {
    /// Applies one delta to this shard's slice of the crowd. Empty deltas
    /// are ignored (they would not change the profile).
    fn ingest(&mut self, user: &str, posts: &[Timestamp]) {
        if posts.is_empty() {
            return;
        }
        self.users.entry(user.to_owned()).or_default().absorb(posts);
        // Any non-empty delta changes the profile (at minimum its post
        // count), so the user must be re-analyzed.
        self.dirty.insert(user.to_owned());
    }

    /// Applies one signed delta. Unknown users and never-ingested posts
    /// are skipped (retraction of a post the engine never saw is a
    /// no-op), and a retraction that changes nothing leaves the dirty set
    /// untouched — the state remains exactly what an engine that never
    /// saw the retracted posts would hold. The user's (possibly now-empty)
    /// accumulator stays in the map: an empty accumulator analyzes to
    /// nothing, so reports are unaffected, and keeping it preserves the
    /// refresh invariant that every dirty id resolves to an accumulator.
    fn retract(&mut self, user: &str, posts: &[Timestamp]) {
        if posts.is_empty() {
            return;
        }
        let Some(acc) = self.users.get_mut(user) else {
            return;
        };
        if acc.release(posts) == 0 {
            return;
        }
        self.dirty.insert(user.to_owned());
    }

    /// Dispatches one delta by sign — the shared inner loop of the batch
    /// paths, so ingest and retraction route identically.
    fn apply(&mut self, user: &str, posts: &[Timestamp], retract: bool) {
        if retract {
            self.retract(user, posts);
        } else {
            self.ingest(user, posts);
        }
    }
}

/// N hash-partitioned shards of per-user accumulators with per-shard
/// dirty sets, each behind its own mutex. See the module docs for the
/// determinism argument; single-owner paths bypass the mutexes with
/// `get_mut`, multi-writer paths lock one shard at a time.
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
    pub(crate) fn accs_for(&mut self, ids: &[String]) -> Vec<&UserAccumulator> {
        let count = self.shards.len() as u64;
        let maps: Vec<&BTreeMap<String, UserAccumulator>> =
            self.shards.iter_mut().map(|m| &remut(m).users).collect();
        ids.iter()
            .map(|id| {
                let shard = (fnv1a(id.as_bytes()) % count) as usize;
                maps[shard].get(id).expect("dirty user exists")
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

    /// Routes and applies a single delta (single-owner access).
    pub(crate) fn ingest(&mut self, user: &str, posts: &[Timestamp]) {
        let shard = self.shard_of(user);
        remut(&mut self.shards[shard]).ingest(user, posts);
    }

    /// Routes and retracts a single delta (single-owner access).
    pub(crate) fn retract(&mut self, user: &str, posts: &[Timestamp]) {
        let shard = self.shard_of(user);
        remut(&mut self.shards[shard]).retract(user, posts);
    }

    /// Routes a batch of signed deltas to their shards (in arrival
    /// order), then applies the shards concurrently on up to `threads`
    /// workers — each worker owns a contiguous run of whole shards, so no
    /// two threads ever touch the same accumulator. With `retract` each
    /// delta is released from its accumulator instead of absorbed.
    /// Single-owner access: workers split the mutexes mutably instead of
    /// locking them.
    pub(crate) fn apply_batch(
        &mut self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        threads: usize,
    ) {
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (user, _)) in deltas.iter().enumerate() {
            routed[self.shard_of(user)].push(i);
        }
        let threads = clamped_threads(threads).min(self.shards.len());
        if threads == 1 {
            for (shard, idxs) in self.shards.iter_mut().zip(&routed) {
                let shard = remut(shard);
                for &i in idxs {
                    let (user, posts) = deltas[i];
                    shard.apply(user, posts, retract);
                }
            }
            return;
        }
        let mut work: Vec<(&mut Shard, Vec<usize>)> =
            self.shards.iter_mut().map(remut).zip(routed).collect();
        let chunk_len = work.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for chunk in work.chunks_mut(chunk_len) {
                scope.spawn(move |_| {
                    for (shard, idxs) in chunk.iter_mut() {
                        for &i in idxs.iter() {
                            let (user, posts) = deltas[i];
                            shard.apply(user, posts, retract);
                        }
                    }
                });
            }
        })
        .expect("thread scope failed");
    }

    /// Multi-writer signed batch: routes the batch per shard, then locks
    /// each touched shard **once**, applies its deltas in arrival order,
    /// and releases before moving to the next — at most one shard lock is
    /// held at a time, so writer/writer deadlock is impossible and two
    /// writers whose batches route to disjoint shards never contend.
    /// Retraction only commutes with ingestion of the *same* posts when
    /// it runs after them (releasing an unseen post is a skip, not a
    /// debt), so callers sequence a post's retraction after the batch
    /// that ingested it; see `window.rs`.
    ///
    /// Contended acquisitions are counted and their wait timed into the
    /// `ingest.*` metrics when `obs` is attached; the uncontended fast
    /// path costs one `try_lock`.
    pub(crate) fn apply_batch_shared(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        obs: Option<&SharedIngestObs>,
    ) {
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (user, _)) in deltas.iter().enumerate() {
            routed[self.shard_of(user)].push(i);
        }
        for (mutex, idxs) in self.shards.iter().zip(&routed) {
            if idxs.is_empty() {
                continue;
            }
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
            for &i in idxs {
                let (user, posts) = deltas[i];
                shard.apply(user, posts, retract);
            }
        }
    }

    /// Drains every shard's dirty set into one globally id-sorted vector —
    /// the merge point where sharding disappears: downstream refresh work
    /// sees exactly the order a single `BTreeSet` would have produced.
    pub(crate) fn take_dirty_sorted(&mut self) -> Vec<String> {
        let mut dirty: Vec<String> = self
            .shards
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut remut(s).dirty))
            .collect();
        // Each shard's run is already sorted; one global sort merges them.
        dirty.sort_unstable();
        dirty
    }

    /// Total dirty users across all shards.
    pub(crate) fn dirty_len(&self) -> usize {
        self.shards.iter().map(|s| relock(s).dirty.len()).sum()
    }

    /// Total users ever ingested.
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

    /// Visits every shard in index order with its id-sorted accumulator
    /// map and dirty set — the export side of durable snapshots. Locks
    /// each shard for the duration of its visit.
    pub(crate) fn for_each_shard<F>(&self, mut f: F)
    where
        F: FnMut(&BTreeMap<String, UserAccumulator>, &BTreeSet<String>),
    {
        for shard in &self.shards {
            let shard = relock(shard);
            f(&shard.users, &shard.dirty);
        }
    }

    /// Reinstates one user recovered from a durable snapshot, routing by
    /// the *current* shard count (snapshots survive reconfiguration: the
    /// persisted partition is just how the users happened to be grouped
    /// at write time). `dirty` re-marks users that were awaiting a
    /// refresh when the snapshot was taken.
    pub(crate) fn restore_user(&mut self, id: String, acc: UserAccumulator, dirty: bool) {
        let shard = self.shard_of(&id);
        let shard = remut(&mut self.shards[shard]);
        if dirty {
            shard.dirty.insert(id.clone());
        }
        shard.users.insert(id, acc);
    }

    /// Every user across all shards in global id order — the recovery
    /// pass that rebuilds the engine's derived state walks this once.
    pub(crate) fn all_users_sorted(&mut self) -> Vec<(&String, &UserAccumulator)> {
        let mut all: Vec<(&String, &UserAccumulator)> = self
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
    use super::*;

    fn ts(slot: i64) -> Timestamp {
        Timestamp::from_secs(slot * 3_600)
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
            serial.ingest(user, posts);
        }
        for threads in [1usize, 2, 8] {
            let mut batched = ShardSet::new(4);
            batched.apply_batch(&borrowed, false, threads);
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
                assert_eq!(a.hour_counts, b.hour_counts);
                assert_eq!(a.posts, b.posts);
            }
        }
    }

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
        let mut owned = ShardSet::new(4);
        owned.apply_batch(&borrowed, false, 1);
        let shared = ShardSet::new(4);
        shared.apply_batch_shared(&borrowed, false, None);
        let mut shared = shared;
        assert_eq!(shared.users_tracked(), owned.users_tracked());
        assert_eq!(shared.posts_ingested(), owned.posts_ingested());
        assert_eq!(shared.take_dirty_sorted(), owned.take_dirty_sorted());
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
            serial.ingest(u, p);
        }
        let shared = ShardSet::new(4);
        std::thread::scope(|scope| {
            for chunk in deltas.chunks(20) {
                let shared = &shared;
                scope.spawn(move || {
                    for (u, p) in chunk {
                        let one = [(u.as_str(), p.as_slice())];
                        shared.apply_batch_shared(&one, false, None);
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
            assert_eq!(got.hour_counts, want.hour_counts, "{id}");
            assert_eq!(got.posts, want.posts, "{id}");
        }
    }

    #[test]
    fn dirty_drain_is_globally_sorted_for_any_shard_count() {
        for shards in [1usize, 4, 16] {
            let mut set = ShardSet::new(shards);
            // Deliberately unsorted arrival order.
            for user in ["zeta", "alpha", "mike", "beta", "zeta"] {
                set.ingest(user, &[ts(1)]);
            }
            assert_eq!(set.dirty_len(), 4);
            let drained = set.take_dirty_sorted();
            assert_eq!(drained, ["alpha", "beta", "mike", "zeta"]);
            assert_eq!(set.dirty_len(), 0, "drain must clear every shard");
        }
    }

    #[test]
    fn accumulator_absorb_is_idempotent_on_slots() {
        let mut acc = UserAccumulator::default();
        acc.absorb(&[ts(5), ts(5), ts(2)]);
        acc.absorb(&[ts(5)]);
        assert_eq!(acc.slots, vec![2, 5]);
        assert_eq!(acc.posts, 4);
        assert_eq!(acc.hour_counts[2], 1);
        assert_eq!(acc.hour_counts[5], 1);
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
        assert_eq!(forward.hour_counts, reverse.hour_counts);
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
        assert_eq!(acc.slots, fresh.slots);
        assert_eq!(acc.slot_counts, fresh.slot_counts);
        assert_eq!(acc.hour_counts, fresh.hour_counts);
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
        assert_eq!(acc.hour_counts, [0; BINS]);
        // The earlier no-op left everything intact.
        assert_eq!(before.posts, 2);
        assert_eq!(before.slots, vec![3]);
        assert_eq!(before.slot_counts, vec![2]);
    }

    #[test]
    fn release_keeps_shared_slots_while_posts_remain() {
        // Two posts in one slot: retracting one must keep the slot (and
        // its hour count); retracting the other clears it.
        let mut acc = UserAccumulator::default();
        acc.absorb(&[ts(7), ts(7)]);
        assert_eq!(acc.release(&[ts(7)]), 1);
        assert_eq!(acc.slots, vec![7]);
        assert_eq!(acc.slot_counts, vec![1]);
        assert_eq!(acc.hour_counts[7], 1);
        assert_eq!(acc.release(&[ts(7)]), 1);
        assert!(acc.slots.is_empty());
        assert_eq!(acc.hour_counts[7], 0);
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
                set.ingest(u, p);
            }
            for (u, p) in &drop {
                set.retract(u, p);
            }
            let mut fresh = ShardSet::new(shards);
            for (u, p) in &keep {
                fresh.ingest(u, p);
            }
            assert_eq!(set.posts_ingested(), fresh.posts_ingested());
            for (u, _) in &keep {
                let got = set.acc(u).expect("user kept").clone();
                let want = fresh.acc(u).expect("user kept");
                assert_eq!(got.slots, want.slots, "{u} shards={shards}");
                assert_eq!(got.slot_counts, want.slot_counts, "{u}");
                assert_eq!(got.hour_counts, want.hour_counts, "{u}");
                assert_eq!(got.posts, want.posts, "{u}");
            }
        }
    }

    #[test]
    fn retract_of_unknown_user_changes_nothing() {
        let mut set = ShardSet::new(4);
        set.ingest("known", &[ts(1)]);
        set.take_dirty_sorted();
        set.retract("ghost", &[ts(1)]);
        // A retraction that removed nothing must not dirty the user.
        set.retract("known", &[ts(999)]);
        assert_eq!(set.dirty_len(), 0);
        assert_eq!(set.users_tracked(), 1);
    }

    #[test]
    fn retract_batch_shared_matches_owned_retract_batch() {
        let posts: Vec<(String, Vec<Timestamp>)> = (0..40)
            .map(|i| (format!("r{:02}", i % 11), vec![ts(i), ts(i + 2)]))
            .collect();
        let dropped: Vec<(String, Vec<Timestamp>)> = posts.iter().skip(13).cloned().collect();
        fn as_refs(v: &[(String, Vec<Timestamp>)]) -> Vec<(&str, &[Timestamp])> {
            v.iter().map(|(u, p)| (u.as_str(), p.as_slice())).collect()
        }
        let mut owned = ShardSet::new(4);
        owned.apply_batch(&as_refs(&posts), false, 2);
        owned.apply_batch(&as_refs(&dropped), true, 2);
        let shared = ShardSet::new(4);
        shared.apply_batch_shared(&as_refs(&posts), false, None);
        shared.apply_batch_shared(&as_refs(&dropped), true, None);
        let mut shared = shared;
        assert_eq!(shared.posts_ingested(), owned.posts_ingested());
        assert_eq!(shared.take_dirty_sorted(), owned.take_dirty_sorted());
    }

    #[test]
    fn empty_delta_is_ignored() {
        let mut set = ShardSet::new(3);
        set.ingest("ghost", &[]);
        assert_eq!(set.users_tracked(), 0);
        assert_eq!(set.dirty_len(), 0);
    }

    #[test]
    fn default_shards_is_positive() {
        assert!(default_shards() >= 1);
    }
}
