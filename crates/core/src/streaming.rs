//! Incremental (streaming) crowd geolocation — re-analysis cost
//! proportional to *what changed*, not to crowd size.
//!
//! The [`StreamingPipeline`] is the workspace's one analysis engine:
//! [`GeolocationPipeline::analyze`] is now literally "ingest everything
//! into a fresh streaming engine, snapshot once", so the batch and
//! incremental paths cannot drift apart. Internally it keeps per-user
//! **integer accumulators** partitioned across hash shards:
//!
//! * each user's active slots are a sorted vector of `day·24 + hour` keys
//!   (a `u32` key and a `u8` count, five bytes a slot: `shard.rs`), whose
//!   keys modulo 24 give the per-hour counts a refresh profiles, so
//!   [`ingest`](StreamingPipeline::ingest) is a pure delta update that
//!   never re-scans history (a post in time order is appended in place),
//!   and [`retract`](StreamingPipeline::retract) is its exact inverse;
//! * accumulators live in a [`ShardSet`] — N shards keyed by a stable
//!   hash of the user id, each a hash map plus a list of dirty ids;
//! * every write is one **signed batch** through one crate-private
//!   `apply`: the public ingests and [`retract`](StreamingPipeline::retract),
//!   the concurrent engine's writer batches and durable recovery's log
//!   replay alike. A batch is routed once and each touched shard locked
//!   once; bulk deltas ([`ingest_set`](StreamingPipeline::ingest_set),
//!   [`ingest_posts`](StreamingPipeline::ingest_posts)) fan out
//!   **concurrently**, one worker per run of whole shards (see `shard.rs`
//!   for the determinism argument);
//! * only dirty users are re-profiled: each one's hour counts are derived
//!   once, and feed both its CDF, which goes straight through the batch
//!   kernel of the long-lived [`PlacementEngine`], and its kept profile;
//! * each accumulator keeps a `Copy` analysis record (flat, or kept at
//!   an offset and EMD); the kept profiles (hour counts, not floats) and
//!   placements live only in the id-sorted kept vectors, and share the
//!   shard key's `Arc<str>` id, so carrying an entry over costs a
//!   refcount, never an allocation. A refresh patches them in one
//!   ascending merge with the id-sorted dirty list, together with a refresh
//!   generation stamp per entry: the generation of the refresh that last
//!   wrote it, which lets a tenant splice an unchanged user's JSON from
//!   its previous body (`body.rs`);
//! * a refresh forgets a dirty user left with no live post, so the
//!   shards hold users with posts, not every user ever seen;
//! * the placement histogram is maintained as integer zone counts,
//!   updated by subtracting a re-placed user's old zone and adding the
//!   new one;
//! * the mixture refit is the paper's cold fit, reused outright while the
//!   zone counts it was computed from stay unchanged.
//!
//! # The identity guarantee
//!
//! [`snapshot`](StreamingPipeline::snapshot) is **byte-identical**
//! (serialized through `serde_json`) to a from-scratch analysis of the
//! same cumulative traces, for any thread count and any shard count.
//! Four choices make that exact rather than approximate:
//!
//! 1. All per-user state is integral (slot keys and counts, post
//!    counts, and the hour counts derived from them), so delta updates
//!    commute with batching exactly, and shards merge at refresh time by
//!    draining dirty ids in globally sorted order — the order a single
//!    map would have produced.
//! 2. Every eligible dirty user is placed by the same batch kernel on a
//!    CDF rebuilt from the same integers, and the kernel's batches are
//!    carved before threading, so each placement — and each pruning
//!    count — is a pure function of the user's state.
//! 3. The crowd profile is **re-summed** from the kept per-user counts in
//!    user-id order — an O(24·n) pass, made once per refresh generation —
//!    rather than delta-updated in `f64`, because float addition is not
//!    associative and a running sum would drift.
//! 4. The zone-count histogram goes through
//!    [`PlacementHistogram::from_zone_counts`], which is float-identical
//!    to `from_placements`, and the fits are pure functions of that
//!    histogram (cold fits, reused outright when the zone counts did not
//!    change).

use std::sync::Arc;

use crowdtz_stats::BINS;
use crowdtz_time::{Timestamp, TraceSet};

use crate::crowd::CrowdProfile;
use crate::engine::{chunked_map, KernelObs, PlacementEngine, BATCH_USERS};
use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::placement::{PlacementHistogram, UserPlacement, ZoneGrid};
use crate::profile::{distribution_of, ActivityProfile};
use crate::shard::{ShardSet, SharedIngestObs, UserAccumulator, UserAnalysis};
use crate::single::{MultiRegionFit, SingleRegionFit};

/// The entries of a kept vector, in order, for the refresh merge to
/// carry over: moved out when the engine was the vector's only owner,
/// cloned one at a time from the vector itself while a published report
/// still holds it — a held report is never mutated, and no second full
/// copy of the vector is made.
enum Entries<T> {
    /// The engine's own vector, consumed.
    Moved(std::vec::IntoIter<T>),
    /// A vector a report shares, read in place from `next` on.
    Held { shared: Arc<Vec<T>>, next: usize },
}

impl<T: Clone> Entries<T> {
    /// The entries of the vector behind `shared`, leaving an empty one.
    fn take(shared: &mut Arc<Vec<T>>) -> Entries<T> {
        match Arc::try_unwrap(std::mem::take(shared)) {
            Ok(vec) => Entries::Moved(vec.into_iter()),
            Err(shared) => Entries::Held { shared, next: 0 },
        }
    }

    /// The entries not yet taken.
    fn as_slice(&self) -> &[T] {
        match self {
            Entries::Moved(entries) => entries.as_slice(),
            Entries::Held { shared, next } => &shared[*next..],
        }
    }
}

impl<T: Clone> Iterator for Entries<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Entries::Moved(entries) => entries.next(),
            Entries::Held { shared, next } => {
                let entry = shared.get(*next)?.clone();
                *next += 1;
                Some(entry)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.as_slice().len();
        (left, Some(left))
    }
}

/// How many of the id-sorted `profiles` sort below `id` — an exponential
/// search from the front, so a dense run of dirty users costs O(1)
/// comparisons each and a sparse one O(log gap).
fn count_below(profiles: &[ActivityProfile], id: &str) -> usize {
    let mut end = 1;
    while end <= profiles.len() && profiles[end - 1].user() < id {
        end *= 2;
    }
    let start = end / 2;
    start + profiles[start..end.min(profiles.len())].partition_point(|p| p.user() < id)
}

/// A batch of single-post observations as one delta per post — the
/// monitor-poll shape every batch ingest of single posts takes.
pub(crate) fn singles<S: AsRef<str>>(posts: &[(S, Timestamp)]) -> Vec<(&str, &[Timestamp])> {
    posts
        .iter()
        .map(|(user, ts)| (user.as_ref(), std::slice::from_ref(ts)))
        .collect()
}

/// Observability handles, created once at construction so the per-post
/// ingest path and every refresh pay atomic adds, not registry lookups.
#[derive(Debug, Clone)]
struct StreamObs {
    observer: Arc<crowdtz_obs::Observer>,
    /// `streaming.posts_ingested`: posts absorbed across all ingested
    /// deltas.
    posts: crowdtz_obs::Counter,
    /// `streaming.posts_out_of_range`: posts dropped because they lie
    /// outside the slot-key range (`shard.rs`).
    out_of_range: crowdtz_obs::Counter,
    /// `streaming.posts_retracted`: posts actually removed by signed
    /// deltas (a post whose slot holds no live count removes nothing).
    retracted: crowdtz_obs::Counter,
    /// `streaming.deltas`: non-empty deltas applied, of either sign.
    deltas: crowdtz_obs::Counter,
    /// `streaming.dirty`: dirty-set size entering the last refresh.
    dirty: crowdtz_obs::Gauge,
    /// `streaming.snapshots`: snapshots taken.
    snapshots: crowdtz_obs::Counter,
    /// `streaming.em_iterations`: EM iterations the mixture fits spent,
    /// over every component count and start (cache hits spend none).
    em_iterations: crowdtz_obs::Counter,
    /// `placement.users`: users each refresh kept.
    placement_users: crowdtz_obs::Counter,
    /// `shard.NN.users`: users per shard as of the last refresh.
    shard_users: Vec<crowdtz_obs::Gauge>,
    /// The placement kernel's pruning accounting.
    kernel: KernelObs,
}

impl StreamObs {
    fn new(observer: Arc<crowdtz_obs::Observer>, shards: usize, grid: ZoneGrid) -> StreamObs {
        StreamObs {
            posts: observer.counter("streaming.posts_ingested"),
            out_of_range: observer.counter("streaming.posts_out_of_range"),
            retracted: observer.counter("streaming.posts_retracted"),
            deltas: observer.counter("streaming.deltas"),
            dirty: observer.gauge("streaming.dirty"),
            snapshots: observer.counter("streaming.snapshots"),
            em_iterations: observer.counter("streaming.em_iterations"),
            placement_users: observer.counter("placement.users"),
            shard_users: (0..shards)
                .map(|i| observer.gauge(&format!("shard.{i:02}.users")))
                .collect(),
            kernel: KernelObs::new(&observer, grid),
            observer,
        }
    }
}

/// The last mixture fit, keyed by the exact zone counts it was computed
/// from: identical counts → identical histogram → the cached fit *is* the
/// refit, bit for bit.
#[derive(Debug, Clone)]
struct FitCache {
    zone_counts: Vec<usize>,
    single: SingleRegionFit,
    multi: MultiRegionFit,
}

/// Incremental version of [`GeolocationPipeline`]: ingest post deltas as
/// they arrive, snapshot on demand.
///
/// ```
/// use crowdtz_core::{GeolocationPipeline, StreamingPipeline};
/// use crowdtz_time::Timestamp;
///
/// let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
/// let mut stream = StreamingPipeline::new(pipeline.clone());
/// let mut traces = crowdtz_time::TraceSet::new();
/// for day in 0..40i64 {
///     let post = Timestamp::from_secs(day * 86_400 + 20 * 3_600);
///     stream.ingest("u", &[post]);        // delta update
///     traces.record("u", post);           // cumulative mirror
/// }
/// let incremental = stream.snapshot().unwrap();
/// let batch = pipeline.analyze(&traces).unwrap();
/// assert_eq!(
///     serde_json::to_string(&incremental).unwrap(),
///     serde_json::to_string(&batch).unwrap(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct StreamingPipeline {
    pipeline: GeolocationPipeline,
    engine: PlacementEngine,
    /// Hash-partitioned per-user accumulators + dirty sets
    /// ([`GeolocationPipeline::shards`] sets the partition count).
    shards: ShardSet,
    /// Kept users' profiles in user-id order — exactly the vector the
    /// batch pipeline would build, and the only owner of each kept
    /// user's profile. Shared with every snapshot through its [`Arc`]:
    /// a refresh moves the entries out while no snapshot is alive, and
    /// clones each entry it carries over out of the shared vector when
    /// one is.
    kept_profiles: Arc<Vec<ActivityProfile>>,
    /// Kept users' placements, parallel to `kept_profiles`.
    kept_placements: Arc<Vec<UserPlacement>>,
    /// The refresh generation that last wrote each kept entry, parallel
    /// to `kept_profiles`: an entry whose stamp is not newer than some
    /// earlier generation is unchanged since that generation's report.
    kept_stamps: Arc<Vec<u64>>,
    /// Refreshes that changed at least one user since this engine was
    /// built or recovered.
    generation: u64,
    /// Users with an analysis record (at or above the activity
    /// threshold); `eligible − kept` is the flat-removed count.
    eligible: usize,
    /// Kept users per zone index (one slot per zone of the pipeline's
    /// grid) — the integer pre-image of the placement histogram,
    /// maintained by subtract-old / add-new on re-placement.
    zone_counts: Vec<usize>,
    fit_cache: Option<FitCache>,
    /// The crowd profile of the kept profiles, summed by the first
    /// snapshot after the refresh that last changed them; cleared when
    /// they change.
    crowd: Option<CrowdProfile>,
    obs: Option<StreamObs>,
}

impl StreamingPipeline {
    /// Wraps a configured batch pipeline. The pipeline's generic profile,
    /// activity threshold, polishing flag, component cap, thread count,
    /// and shard count all carry over; the placement engine is built
    /// once and reused across every refresh.
    pub fn new(pipeline: GeolocationPipeline) -> StreamingPipeline {
        let grid = pipeline.effective_grid();
        let engine = PlacementEngine::with_grid(pipeline.generic(), grid);
        let shards = ShardSet::new(pipeline.effective_shards());
        let obs = pipeline
            .obs()
            .map(|o| StreamObs::new(o, shards.shard_count(), grid));
        StreamingPipeline {
            pipeline,
            engine,
            obs,
            shards,
            kept_profiles: Arc::new(Vec::new()),
            kept_placements: Arc::new(Vec::new()),
            kept_stamps: Arc::new(Vec::new()),
            generation: 0,
            eligible: 0,
            zone_counts: vec![0; grid.zones()],
            fit_cache: None,
            crowd: None,
        }
    }

    /// The wrapped batch pipeline configuration.
    pub fn pipeline(&self) -> &GeolocationPipeline {
        &self.pipeline
    }

    /// Number of users the engine holds state for: every user with a
    /// live post, plus users emptied (every post retracted or expired)
    /// since the last refresh, which forgets them.
    pub fn users_tracked(&self) -> usize {
        self.shards.users_tracked()
    }

    /// Users whose profiles changed since the last refresh — the work the
    /// next [`snapshot`](StreamingPipeline::snapshot) will actually do.
    pub fn dirty_users(&self) -> usize {
        self.shards.dirty_len()
    }

    /// Total posts ingested across all users (duplicates included).
    pub fn posts_ingested(&self) -> usize {
        self.shards.posts_ingested()
    }

    /// Number of hash shards the accumulator store is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// Users per shard, in shard-index order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.occupancy()
    }

    /// Shard store access for the durable-persistence layer (`durable.rs`).
    pub(crate) fn shards_ref(&self) -> &ShardSet {
        &self.shards
    }

    /// Mutable shard store access for snapshot restore.
    pub(crate) fn shards_mut_ref(&mut self) -> &mut ShardSet {
        &mut self.shards
    }

    /// Recomputes every piece of derived state (kept vectors, eligible
    /// count, zone counts) from the accumulators' analysis records — the
    /// last step of recovering a durable snapshot. Profiles take the hour
    /// counts refresh derives and the shard key as their id, in global
    /// user-id order, exactly the order incremental refreshes maintain,
    /// so a recovered engine continues byte-identical to one that never
    /// restarted. (A user restored dirty gets the profile of its current
    /// counts; the next refresh overwrites it.) Every kept entry is
    /// stamped with the current generation. The fit and crowd caches are
    /// dropped: a cold refit and a fresh sum are bit-identical anyway.
    pub(crate) fn rebuild_derived_state(&mut self) {
        let grid = self.engine.grid();
        let mut profiles = Vec::new();
        let mut placements = Vec::new();
        let mut eligible = 0usize;
        let mut zone_counts = vec![0usize; grid.zones()];
        for (id, acc) in self.shards.all_users_sorted() {
            let Some(analysis) = acc.analysis else {
                continue;
            };
            eligible += 1;
            let UserAnalysis::Kept {
                offset_minutes,
                emd,
            } = analysis
            else {
                continue;
            };
            zone_counts[grid.index_of_minutes(offset_minutes)] += 1;
            placements.push(UserPlacement::from_offset_minutes(
                Arc::clone(id),
                offset_minutes,
                emd,
            ));
            profiles.push(ActivityProfile::from_parts(
                Arc::clone(id),
                acc.hour_counts(),
                acc.slots.len(),
                acc.posts,
            ));
        }
        self.kept_stamps = Arc::new(vec![self.generation; profiles.len()]);
        self.kept_profiles = Arc::new(profiles);
        self.kept_placements = Arc::new(placements);
        self.eligible = eligible;
        self.zone_counts = zone_counts;
        self.fit_cache = None;
        self.crowd = None;
    }

    /// Ingests new posts for one user — a pure delta update.
    ///
    /// Timestamps are read in UTC (the anonymous-crowd convention the
    /// batch pipeline uses); duplicates and out-of-order arrivals are
    /// fine, and re-ingesting a timestamp whose (day, hour) slot is
    /// already active only bumps the post count — exactly what the batch
    /// rebuild would conclude. Empty deltas are ignored, and a post
    /// outside the slot range (1970 ± about 245 000 years, DESIGN.md
    /// §10) is dropped and counted in `streaming.posts_out_of_range`.
    ///
    /// Cost: amortised O(1) per post at or after the user's last active
    /// slot (the time-ordered crawl); a delta with earlier posts pays
    /// `O(k log k + s)` for `k` posts against `s` existing slots. Both
    /// are independent of crowd size.
    pub fn ingest(&mut self, user: &str, posts: &[Timestamp]) {
        self.apply(&[(user, posts)], false, 1, None);
    }

    /// Ingests every trace of a set (e.g. a first full crawl before
    /// incremental monitoring takes over) — one delta per trace, routed
    /// to the shards once and applied concurrently on the pipeline's
    /// worker threads.
    pub fn ingest_set(&mut self, traces: &TraceSet) {
        let deltas: Vec<(&str, &[Timestamp])> =
            traces.iter().map(|t| (t.id(), t.posts())).collect();
        self.apply(&deltas, false, self.pipeline.effective_threads(), None);
    }

    /// Ingests a batch of single-post observations — the shape a forum
    /// monitor poll produces (`Monitor::run_batched` in `crowdtz-forum`).
    /// Each `(author, timestamp)` pair counts as one delta, exactly as if
    /// [`ingest`](StreamingPipeline::ingest) had been called per
    /// observation in order, but the batch is routed to the shards once
    /// and applied concurrently.
    pub fn ingest_posts<S: AsRef<str>>(&mut self, posts: &[(S, Timestamp)]) {
        self.apply(
            &singles(posts),
            false,
            self.pipeline.effective_threads(),
            None,
        );
    }

    /// Retracts posts for one user — the signed inverse of
    /// [`ingest`](StreamingPipeline::ingest). The accumulator's slot
    /// refcounts are decremented, slots reaching zero disappear, and a
    /// user falling below the activity threshold drops out of the
    /// analysis at the next refresh — the snapshot afterwards is
    /// byte-identical to an engine that never saw the retracted posts.
    /// Retracting posts the engine never saw is a no-op, so retraction
    /// must be sequenced after the ingest that delivered the posts.
    pub fn retract(&mut self, user: &str, posts: &[Timestamp]) {
        self.apply(&[(user, posts)], true, 1, None);
    }

    /// The engine's one write path: a signed batch of deltas, ingested
    /// or (with `retract`) released, through [`ShardSet::apply`]. Every
    /// public ingest and retraction, every concurrent writer's batch
    /// (`concurrent.rs`) and every replayed log record (`durable.rs`)
    /// comes through here; `threads` fans a bulk batch out over runs of
    /// whole shards, and 1 keeps it on the calling thread.
    ///
    /// The batch locks one shard at a time and every metric update is
    /// an atomic add, so any number of writer threads may call this at
    /// once; deltas commute (see `shard.rs`), so the final accumulator
    /// state — and with it every later snapshot — is identical to a
    /// serial application of the same batches in any order. Counts the
    /// batch once, after the shards report what they applied:
    /// `streaming.deltas` gains the non-empty deltas, and
    /// `streaming.posts_ingested` or `streaming.posts_retracted` the
    /// posts applied; an ingest's posts outside the slot range go to
    /// `streaming.posts_out_of_range`. Returns the posts applied: the
    /// in-range ones of an ingest, the released ones of a retraction.
    pub(crate) fn apply(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        threads: usize,
        ingest_obs: Option<&SharedIngestObs>,
    ) -> usize {
        if deltas.is_empty() {
            return 0;
        }
        let applied = self.shards.apply(deltas, retract, threads, ingest_obs);
        if let Some(obs) = &self.obs {
            let (nonempty, posts) = deltas
                .iter()
                .fold((0u64, 0usize), |(n, total), (_, posts)| {
                    (n + u64::from(!posts.is_empty()), total + posts.len())
                });
            obs.deltas.add(nonempty);
            if retract {
                obs.retracted.add(applied as u64);
            } else {
                obs.posts.add(applied as u64);
                if posts > applied {
                    obs.out_of_range.add((posts - applied) as u64);
                }
            }
        }
        applied
    }

    /// Counts `posts` dropped outside the slot range where the write
    /// path did not see them: slots of a recovered snapshot.
    pub(crate) fn count_out_of_range(&self, posts: usize) {
        if let Some(obs) = &self.obs {
            obs.out_of_range.add(posts as u64);
        }
    }

    /// Re-analyzes exactly the dirty users: drain every shard's dirty set
    /// in globally sorted id order, build the eligible users' CDF rows
    /// (in parallel, one worker per kernel batch at most), place every
    /// row through the batch kernel, then swap each user's analysis
    /// record, patch the zone counts, and merge the dirty users into the
    /// kept vectors in one ascending pass, stamping each entry it writes
    /// with the new refresh generation. A dirty user left with no live
    /// post is forgotten: its accumulator leaves its shard. Chunking is
    /// order-stable and the kernel's batches are carved before
    /// threading, so the per-user results — and therefore every
    /// snapshot — are invariant to both the thread count and the shard
    /// count.
    ///
    /// No per-user copy outlives its phase: phase 1 derives each eligible
    /// user's hour counts once and writes them and the CDF rows the
    /// kernel reads into rows this thread owns, and the merge moves a
    /// kept user's counts into its profile, whose distribution divides
    /// out bit for bit as the row's did.
    fn refresh(&mut self) {
        if let Some(obs) = &self.obs {
            obs.dirty.set(self.shards.dirty_len() as f64);
        }
        if self.shards.dirty_len() == 0 {
            return;
        }
        // Clone the Arc into a local so the span guard does not hold a
        // borrow of `self` across the mutable refresh work below.
        let observer = self.obs.as_ref().map(|o| Arc::clone(&o.observer));
        let _s = crowdtz_obs::span!(observer, "streaming.refresh");
        self.generation += 1;
        let dirty: Vec<Arc<str>> = self.shards.take_dirty_sorted();
        let min_posts = self.pipeline.min_posts_threshold();
        let polish = self.pipeline.polish_enabled();
        let threads = self.pipeline.effective_threads();
        // Phase 1 (parallel, pure): each eligible dirty user's hour
        // counts, from its slot keys, and its CDF row, from the counts —
        // on at most one worker per kernel batch, so a refresh of up to
        // `BATCH_USERS` users runs on this thread, like its kernel pass:
        // spawning and joining workers would cost more than the work.
        let prepare_threads = threads.min(dirty.len().div_ceil(BATCH_USERS));
        let (counts, cdfs, kept_before) = {
            let mut work: Vec<&UserAccumulator> = self.shards.accs_for(&dirty);
            let kept_before = work
                .iter()
                .filter(|acc| matches!(acc.analysis, Some(UserAnalysis::Kept { .. })))
                .count();
            work.retain(|acc| Self::eligible(acc, min_posts));
            let counts: Vec<[u32; BINS]> =
                chunked_map(&work, prepare_threads, |acc| acc.hour_counts());
            let cdfs: Vec<[f64; BINS]> =
                chunked_map(&counts, prepare_threads, |c| distribution_of(c).cdf());
            (counts, cdfs, kept_before)
        };
        // Phase 2: place every eligible CDF (parallel batch kernel).
        let resolved = {
            let _p = crowdtz_obs::span!(observer, "streaming.place");
            let kernel = self.obs.as_ref().map(|o| &o.kernel);
            self.engine.resolve_cdfs(&cdfs, threads, kernel)
        };
        drop(cdfs);
        let kept_after = resolved.iter().filter(|r| !(polish && r.flat)).count();
        // Phase 3 (sequential): swap each dirty user's analysis record,
        // patch the zone counts, and merge the user into the kept
        // vectors — one ascending pass that gallops from dirty user to
        // dirty user. Runs of clean kept users are carried over in bulk
        // with their stamps, a user who stays kept is carried over and
        // overwritten with no allocation, a newly kept user's profile and
        // placement share its dirty-list id (the shard key's `Arc`), and a
        // dropped user is skipped; nothing shifts a tail. Every entry
        // written here takes the new generation's stamp.
        let grid = self.engine.grid();
        let len = self.kept_profiles.len() + kept_after - kept_before;
        let mut profiles = Vec::with_capacity(len);
        let mut placements = Vec::with_capacity(len);
        let mut stamps = Vec::with_capacity(len);
        let mut old_profiles = Entries::take(&mut self.kept_profiles);
        let mut old_placements = Entries::take(&mut self.kept_placements);
        let mut old_stamps = Entries::take(&mut self.kept_stamps);
        let mut resolutions = resolved.into_iter().zip(counts);
        for id in dirty {
            let acc = self.shards.acc_mut(&id).expect("dirty user exists");
            let resolved = Self::eligible(acc, min_posts).then(|| {
                resolutions
                    .next()
                    .expect("one resolution per eligible user")
            });
            let analysis = resolved.as_ref().map(|(r, _)| {
                if polish && r.flat {
                    UserAnalysis::Flat
                } else {
                    UserAnalysis::Kept {
                        offset_minutes: r.zone_minutes,
                        emd: r.emd,
                    }
                }
            });
            let previous = std::mem::replace(&mut acc.analysis, analysis);
            let (active_slots, posts) = (acc.slots.len(), acc.posts);
            if active_slots == 0 {
                // Every post retracted or expired: nothing is left to
                // analyze, and a later post starts a fresh accumulator.
                self.shards.forget(&id);
            }
            self.eligible -= usize::from(previous.is_some());
            self.eligible += usize::from(analysis.is_some());
            let run = count_below(old_profiles.as_slice(), &id);
            profiles.extend(old_profiles.by_ref().take(run));
            placements.extend(old_placements.by_ref().take(run));
            stamps.extend(old_stamps.by_ref().take(run));
            let held = match previous {
                Some(UserAnalysis::Kept { offset_minutes, .. }) => {
                    self.zone_counts[grid.index_of_minutes(offset_minutes)] -= 1;
                    old_stamps.next();
                    let entry = old_profiles.next().zip(old_placements.next());
                    Some(entry.expect("kept user is in the kept vectors"))
                }
                _ => None,
            };
            let (
                Some(UserAnalysis::Kept {
                    offset_minutes,
                    emd,
                }),
                Some((_, counts)),
            ) = (analysis, resolved)
            else {
                continue;
            };
            self.zone_counts[grid.index_of_minutes(offset_minutes)] += 1;
            stamps.push(self.generation);
            match held {
                Some((mut profile, mut placement)) => {
                    debug_assert_eq!(profile.user(), &*id);
                    profile.set_activity(counts, active_slots, posts);
                    placement.set_offset_minutes(offset_minutes, emd);
                    profiles.push(profile);
                    placements.push(placement);
                }
                None => {
                    placements.push(UserPlacement::from_offset_minutes(
                        Arc::clone(&id),
                        offset_minutes,
                        emd,
                    ));
                    profiles.push(ActivityProfile::from_parts(id, counts, active_slots, posts));
                }
            }
        }
        profiles.extend(old_profiles);
        placements.extend(old_placements);
        stamps.extend(old_stamps);
        self.kept_profiles = Arc::new(profiles);
        self.kept_placements = Arc::new(placements);
        self.kept_stamps = Arc::new(stamps);
        self.crowd = None;
        if let Some(obs) = &self.obs {
            obs.placement_users.add(kept_after as u64);
            // Shard occupancy, as of this refresh.
            for (gauge, n) in obs.shard_users.iter().zip(self.shards.occupancy()) {
                gauge.set(n as f64);
            }
        }
    }

    /// The refresh generation stamp of each kept entry (parallel to the
    /// kept vectors, so to the profiles of the last snapshot) and the
    /// current refresh generation: what a published report carries so a
    /// tenant can splice its body from an older one (`body.rs`).
    pub(crate) fn kept_stamps(&self) -> (Arc<Vec<u64>>, u64) {
        (Arc::clone(&self.kept_stamps), self.generation)
    }

    /// Whether a user is analyzed: at or above the activity threshold,
    /// with an active slot.
    fn eligible(acc: &UserAccumulator, min_posts: usize) -> bool {
        acc.posts >= min_posts && !acc.slots.is_empty()
    }

    /// Produces the current [`GeolocationReport`], doing work proportional
    /// to the dirty set (plus one cheap O(24·n) reduction). The report
    /// shares the kept profile/placement vectors with the engine via
    /// `Arc` — assembling it copies nothing per user, and holding an old
    /// report makes the next refresh clone the entries it carries over
    /// rather than move them.
    ///
    /// The report is byte-identical to [`GeolocationPipeline::analyze`]
    /// over the cumulative traces.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyCrowd`] when no user survives the filters.
    /// * [`CoreError::Stats`] when a fit fails.
    pub fn snapshot(&mut self) -> Result<GeolocationReport, CoreError> {
        self.snapshot_with_coverage(1.0)
    }

    /// [`snapshot`](StreamingPipeline::snapshot) for a crawl that covered
    /// only a `coverage` fraction of the forum — the streaming analogue of
    /// [`GeolocationPipeline::analyze_partial`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCoverage`] when `coverage` is outside `(0, 1]`.
    /// * Everything [`snapshot`](StreamingPipeline::snapshot) can return.
    pub fn snapshot_with_coverage(
        &mut self,
        coverage: f64,
    ) -> Result<GeolocationReport, CoreError> {
        if !coverage.is_finite() || coverage <= 0.0 || coverage > 1.0 {
            return Err(CoreError::InvalidCoverage { coverage });
        }
        let observer = self.obs.as_ref().map(|o| Arc::clone(&o.observer));
        let _s = crowdtz_obs::span!(observer, "streaming.snapshot");
        if let Some(obs) = &self.obs {
            obs.snapshots.inc();
        }
        self.refresh();
        if self.kept_profiles.is_empty() {
            return Err(CoreError::EmptyCrowd);
        }
        let flat_removed = self.eligible - self.kept_profiles.len();
        // Re-summed (not delta-updated) in user-id order: f64 addition is
        // not associative, and the identity guarantee requires summing in
        // exactly this order — see the module docs. A refresh that changed
        // nothing leaves the last sum in place.
        let crowd = match &self.crowd {
            Some(crowd) => crowd.clone(),
            None => self
                .crowd
                .insert(CrowdProfile::aggregate(&self.kept_profiles)?)
                .clone(),
        };
        let histogram = PlacementHistogram::from_zone_counts(&self.zone_counts);
        let (single, multi) = {
            let _f = crowdtz_obs::span!(observer, "streaming.fit");
            self.refit(&histogram)?
        };
        Ok(GeolocationReport::from_parts(
            Arc::clone(&self.kept_profiles),
            flat_removed,
            crowd,
            Arc::clone(&self.kept_placements),
            histogram,
            single,
            multi,
            coverage,
            self.pipeline.effective_threads(),
        ))
    }

    /// The fit stage: cache hit when the zone counts are unchanged (the
    /// fits are pure functions of the histogram), otherwise the cold fit.
    fn refit(
        &mut self,
        histogram: &PlacementHistogram,
    ) -> Result<(SingleRegionFit, MultiRegionFit), CoreError> {
        if let Some(cache) = &self.fit_cache {
            if cache.zone_counts == self.zone_counts {
                return Ok((cache.single.clone(), cache.multi.clone()));
            }
        }
        let max_components = self.pipeline.max_components_limit();
        let single = SingleRegionFit::fit(histogram)?;
        let (multi, em_iterations) = MultiRegionFit::fit_counted(histogram, max_components)?;
        if let Some(obs) = &self.obs {
            obs.em_iterations.add(em_iterations as u64);
        }
        self.fit_cache = Some(FitCache {
            zone_counts: self.zone_counts.clone(),
            single: single.clone(),
            multi: multi.clone(),
        });
        Ok((single, multi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_synth::PopulationSpec;
    use crowdtz_time::{RegionDb, UserTrace};

    fn crowd(region: &str, users: usize, seed: u64) -> TraceSet {
        let db = RegionDb::extended();
        PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(users)
            .seed(seed)
            .posts_per_day(0.5)
            .generate()
    }

    fn report_json(r: &GeolocationReport) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn one_shot_ingest_matches_batch() {
        let traces = crowd("japan", 40, 7);
        let pipeline = GeolocationPipeline::default().threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        stream.ingest_set(&traces);
        let inc = stream.snapshot().unwrap();
        let batch = pipeline.analyze(&traces).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
    }

    #[test]
    fn incremental_rounds_match_batch_at_each_round() {
        // Split each user's history into 3 windows and ingest round by
        // round; after every round the snapshot must equal a from-scratch
        // batch analysis of the cumulative traces.
        let traces = crowd("italy", 30, 5);
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let mut cumulative = TraceSet::new();
        for round in 0..3usize {
            for t in traces.iter() {
                let posts = t.posts();
                let chunk = &posts[posts.len() * round / 3..posts.len() * (round + 1) / 3];
                stream.ingest(t.id(), chunk);
                for &p in chunk {
                    cumulative.record(t.id(), p);
                }
            }
            let inc = stream.snapshot().unwrap();
            let batch = pipeline.analyze(&cumulative).unwrap();
            assert_eq!(report_json(&inc), report_json(&batch), "round {round}");
        }
        assert_eq!(cumulative.total_posts(), traces.total_posts());
    }

    #[test]
    fn dirty_set_shrinks_to_what_changed() {
        let traces = crowd("france", 20, 9);
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default().threads(1));
        stream.ingest_set(&traces);
        assert_eq!(stream.dirty_users(), stream.users_tracked());
        stream.snapshot().unwrap();
        assert_eq!(stream.dirty_users(), 0);
        // Touch one user → exactly one dirty.
        let id = traces.iter().next().unwrap().id().to_owned();
        stream.ingest(&id, &[Timestamp::from_secs(123_456_789)]);
        assert_eq!(stream.dirty_users(), 1);
        stream.snapshot().unwrap();
        assert_eq!(stream.dirty_users(), 0);
    }

    #[test]
    fn duplicate_and_unordered_ingest_is_idempotent_on_slots() {
        let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let t0 = Timestamp::from_secs(1_450_000_000);
        // Same slot three times, across two deltas, out of order.
        stream.ingest("u", &[t0 + 100, t0]);
        stream.ingest("u", &[t0 + 50]);
        let mut traces = TraceSet::new();
        for &ts in &[t0 + 100, t0, t0 + 50] {
            traces.record("u", ts);
        }
        let inc = stream.snapshot().unwrap();
        let batch = pipeline.analyze(&traces).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
        assert_eq!(inc.profiles()[0].active_slots(), 1);
        assert_eq!(inc.profiles()[0].post_count(), 3);
    }

    #[test]
    fn empty_delta_is_ignored_and_empty_crowd_errors() {
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default());
        stream.ingest("ghost", &[]);
        assert_eq!(stream.users_tracked(), 0);
        assert!(matches!(stream.snapshot(), Err(CoreError::EmptyCrowd)));
        // A sub-threshold user is tracked but not classified.
        stream.ingest("quiet", &[Timestamp::from_secs(0)]);
        assert_eq!(stream.users_tracked(), 1);
        assert!(matches!(stream.snapshot(), Err(CoreError::EmptyCrowd)));
    }

    #[test]
    fn invalid_coverage_is_rejected() {
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default());
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert!(matches!(
                stream.snapshot_with_coverage(bad),
                Err(CoreError::InvalidCoverage { .. })
            ));
        }
    }

    #[test]
    fn partial_coverage_matches_batch_partial() {
        let traces = crowd("japan", 30, 3);
        let pipeline = GeolocationPipeline::default().threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        stream.ingest_set(&traces);
        let inc = stream.snapshot_with_coverage(0.5).unwrap();
        let batch = pipeline.analyze_partial(&traces, 0.5).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
        assert!(inc.is_partial());
    }

    #[test]
    fn unchanged_crowd_reuses_the_fit_cache() {
        let traces = crowd("malaysia", 30, 11);
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default().threads(1));
        stream.ingest_set(&traces);
        let a = stream.snapshot().unwrap();
        // No ingest between snapshots: zone counts unchanged, cache hit.
        let b = stream.snapshot().unwrap();
        assert_eq!(report_json(&a), report_json(&b));
    }

    #[test]
    fn accessors_report_progress() {
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default().min_posts(1));
        assert_eq!(stream.users_tracked(), 0);
        assert_eq!(stream.posts_ingested(), 0);
        stream.ingest("a", &[Timestamp::from_secs(0), Timestamp::from_secs(3_600)]);
        assert_eq!(stream.users_tracked(), 1);
        assert_eq!(stream.posts_ingested(), 2);
        assert_eq!(stream.dirty_users(), 1);
        assert!(stream.pipeline().min_posts_threshold() == 1);
    }

    #[test]
    fn shard_configuration_carries_over_and_never_changes_output() {
        let traces = crowd("france", 25, 21);
        let baseline = {
            let mut s = StreamingPipeline::new(GeolocationPipeline::default().shards(1).threads(2));
            s.ingest_set(&traces);
            report_json(&s.snapshot().unwrap())
        };
        for shards in [4usize, 16] {
            let mut s =
                StreamingPipeline::new(GeolocationPipeline::default().shards(shards).threads(2));
            assert_eq!(s.shard_count(), shards);
            s.ingest_set(&traces);
            assert_eq!(s.shard_occupancy().len(), shards);
            assert_eq!(
                s.shard_occupancy().iter().sum::<usize>(),
                s.users_tracked(),
                "occupancy must partition the crowd"
            );
            assert_eq!(
                report_json(&s.snapshot().unwrap()),
                baseline,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn ingest_posts_matches_per_observation_ingest() {
        let traces = crowd("italy", 15, 23);
        let mut batch: Vec<(String, Timestamp)> = Vec::new();
        for t in traces.iter() {
            for &p in t.posts() {
                batch.push((t.id().to_owned(), p));
            }
        }
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut batched = StreamingPipeline::new(pipeline.clone());
        batched.ingest_posts(&batch);
        let mut serial = StreamingPipeline::new(pipeline);
        for (user, ts) in &batch {
            serial.ingest(user, std::slice::from_ref(ts));
        }
        assert_eq!(batched.posts_ingested(), serial.posts_ingested());
        assert_eq!(
            report_json(&batched.snapshot().unwrap()),
            report_json(&serial.snapshot().unwrap())
        );
    }

    #[test]
    fn retraction_snapshot_matches_engine_that_never_saw_the_posts() {
        // Ingest A∪B, retract B: the snapshot must be byte-identical to
        // an engine fed A alone — including users B pushed over the
        // activity threshold who now drop back below it.
        let traces = crowd("japan", 25, 31);
        let all: Vec<&UserTrace> = traces.iter().collect();
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        for t in &all {
            stream.ingest(t.id(), t.posts());
        }
        // B = the back half of every user's history.
        for t in &all {
            let posts = t.posts();
            stream.retract(t.id(), &posts[posts.len() / 2..]);
        }
        let mut fresh = StreamingPipeline::new(pipeline);
        for t in &all {
            let posts = t.posts();
            fresh.ingest(t.id(), &posts[..posts.len() / 2]);
        }
        assert_eq!(stream.posts_ingested(), fresh.posts_ingested());
        assert_eq!(
            report_json(&stream.snapshot().unwrap()),
            report_json(&fresh.snapshot().unwrap())
        );
    }

    #[test]
    fn retraction_interleaves_with_snapshots() {
        // Snapshot between ingest and retract: the intermediate refresh
        // must not disturb the final identity.
        let traces = crowd("brazil", 20, 33);
        let pipeline = GeolocationPipeline::default().min_posts(5).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        stream.ingest_set(&traces);
        stream.snapshot().unwrap();
        let dropped: Vec<(String, Vec<Timestamp>)> = traces
            .iter()
            .take(10)
            .map(|t| (t.id().to_owned(), t.posts().to_vec()))
            .collect();
        for (u, p) in &dropped {
            stream.retract(u, p);
        }
        let mut fresh = StreamingPipeline::new(pipeline);
        for t in traces.iter().skip(10) {
            fresh.ingest(t.id(), t.posts());
        }
        assert_eq!(
            report_json(&stream.snapshot().unwrap()),
            report_json(&fresh.snapshot().unwrap())
        );
    }

    #[test]
    fn a_refresh_moves_unheld_entries_and_never_touches_a_held_report() {
        let post = |day: i64, hour: i64| Timestamp::from_secs(day * 86_400 + hour * 3_600);
        let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
        let mut stream = StreamingPipeline::new(pipeline);
        for user in 0..8i64 {
            let posts: Vec<Timestamp> = (0..10)
                .map(|day| post(day, (user * 3 + day % 2) % 24))
                .collect();
            stream.ingest(&format!("u{user}"), &posts);
        }
        // Every kept user's profile and placement hold the one allocation
        // its shard keys the user by.
        let assert_shared = |stream: &mut StreamingPipeline, report: &GeolocationReport| {
            let keys: Vec<Arc<str>> = stream
                .shards
                .all_users_sorted()
                .into_iter()
                .map(|(id, _)| Arc::clone(id))
                .collect();
            for (p, q) in report.profiles().iter().zip(report.placements()) {
                let key = keys
                    .iter()
                    .find(|k| **k == *p.id())
                    .expect("kept user is in a shard");
                assert!(
                    Arc::ptr_eq(p.id(), key),
                    "{}'s profile copies its id",
                    p.user()
                );
                assert!(
                    Arc::ptr_eq(q.id(), key),
                    "{}'s placement copies its id",
                    p.user()
                );
            }
        };

        // No report held: the clean users and the re-placed `u3` are
        // carried over, and the newly kept `u9` takes the shard's key.
        let first = stream.snapshot().unwrap();
        assert_shared(&mut stream, &first);
        drop(first);
        stream.ingest("u3", &[post(11, 5)]);
        stream.ingest("u9", &[post(11, 6)]);
        let second = stream.snapshot().unwrap();
        assert_eq!(second.profiles().len(), 9);
        assert_shared(&mut stream, &second);
        drop(second);

        // A report held across a refresh keeps its vectors, entries and
        // bytes; the next report's carried-over entries share its ids.
        let held = stream.snapshot().unwrap();
        let held_json = report_json(&held);
        let held_entries = (held.profiles().to_vec(), held.placements().to_vec());
        let held_vectors = (held.profiles().as_ptr(), held.placements().as_ptr());
        stream.ingest("u5", &[post(12, 7)]);
        stream.ingest("u10", &[post(12, 8)]);
        let next = stream.snapshot().unwrap();
        assert_eq!(report_json(&held), held_json);
        assert_eq!(
            (held.profiles().to_vec(), held.placements().to_vec()),
            held_entries
        );
        assert_eq!(
            (held.profiles().as_ptr(), held.placements().as_ptr()),
            held_vectors
        );
        assert_eq!(next.profiles().len(), held.profiles().len() + 1);
        assert_shared(&mut stream, &next);
        for p in held.profiles() {
            let carried = next.profiles().iter().find(|q| q.user() == p.user());
            assert!(Arc::ptr_eq(p.id(), carried.expect("still kept").id()));
        }
    }
}
