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
//!   plus a 24-bin count of active slots per hour, so
//!   [`ingest`](StreamingPipeline::ingest) is a pure delta update that
//!   never re-scans history, and [`retract`](StreamingPipeline::retract)
//!   is its exact inverse;
//! * accumulators live in a [`ShardSet`] — N shards keyed by a stable
//!   hash of the user id, each with its own dirty set — so bulk deltas
//!   ([`ingest_set`](StreamingPipeline::ingest_set),
//!   [`ingest_posts`](StreamingPipeline::ingest_posts)) are routed once
//!   and applied **concurrently**, one worker per run of shards, with no
//!   locks (see `shard.rs` for the determinism argument);
//! * only dirty users are re-profiled, and their CDFs go through a
//!   **placement cache** (quantized CDF → zone + EMD + flatness) on the
//!   long-lived [`PlacementEngine`], so a profile shape seen before —
//!   common at low post counts — skips the exact EMD scan entirely;
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
//! same cumulative traces, for any thread count, any shard count, and
//! with the placement cache on or off. Four choices make that exact
//! rather than approximate:
//!
//! 1. All per-user state is integral (slot keys, hour counts, post
//!    counts), so delta updates commute with batching exactly, and
//!    shards merge at refresh time by draining dirty ids in globally
//!    sorted order — the order a single map would have produced.
//! 2. The placement cache is probed sequentially and keyed on the
//!    full-precision CDF bits, so a hit returns a value computed from a
//!    bit-identical input (and hit/miss counts are thread-invariant).
//! 3. The crowd profile is **re-summed at snapshot time** from the cached
//!    per-user distributions in user-id order — an O(24·n) pass — rather
//!    than delta-updated in `f64`, because float addition is not
//!    associative and a running sum would drift.
//! 4. The zone-count histogram goes through
//!    [`PlacementHistogram::from_zone_counts`], which is float-identical
//!    to `from_placements`, and the fits are pure functions of that
//!    histogram (cold fits, reused outright when the zone counts did not
//!    change).

use std::sync::Arc;

use crowdtz_stats::{Distribution24, Histogram24, BINS};
use crowdtz_time::{Timestamp, TraceSet, UserTrace};

use crate::crowd::CrowdProfile;
use crate::engine::{chunked_map, PlacementCache, PlacementEngine};
use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::placement::{PlacementHistogram, UserPlacement};
use crate::profile::ActivityProfile;
use crate::shard::{ShardSet, SharedIngestObs, UserAccumulator, UserAnalysis};
use crate::single::{MultiRegionFit, SingleRegionFit};

/// Observability handles, created once at construction so the per-post
/// ingest path pays one atomic add, not a registry lookup.
#[derive(Debug, Clone)]
struct StreamObs {
    observer: Arc<crowdtz_obs::Observer>,
    /// `streaming.posts_ingested`: posts across all deltas.
    posts: crowdtz_obs::Counter,
    /// `streaming.posts_retracted`: posts removed by signed deltas.
    retracted: crowdtz_obs::Counter,
    /// `streaming.deltas`: ingested non-empty deltas.
    deltas: crowdtz_obs::Counter,
    /// `streaming.dirty`: dirty-set size entering the last refresh.
    dirty: crowdtz_obs::Gauge,
    /// `streaming.snapshots`: snapshots taken.
    snapshots: crowdtz_obs::Counter,
}

impl StreamObs {
    fn new(observer: Arc<crowdtz_obs::Observer>) -> StreamObs {
        StreamObs {
            posts: observer.counter("streaming.posts_ingested"),
            retracted: observer.counter("streaming.posts_retracted"),
            deltas: observer.counter("streaming.deltas"),
            dirty: observer.gauge("streaming.dirty"),
            snapshots: observer.counter("streaming.snapshots"),
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
    /// CDF-keyed placement cache, persistent across refreshes
    /// ([`GeolocationPipeline::placement_cache`] toggles it).
    cache: PlacementCache,
    /// Kept users' profiles in user-id order — exactly the vector the
    /// batch pipeline would build, patched in place per dirty user and
    /// shared with every snapshot through its [`Arc`]. `Arc::make_mut`
    /// keeps the patch O(dirty) while no snapshot is alive, and falls
    /// back to one copy-on-write clone when one is.
    kept_profiles: Arc<Vec<ActivityProfile>>,
    /// Kept users' placements, parallel to `kept_profiles`.
    kept_placements: Arc<Vec<UserPlacement>>,
    /// Users whose analysis is `Some` (at or above the activity
    /// threshold); `eligible − kept` is the flat-removed count.
    eligible: usize,
    /// Kept users per zone index (one slot per zone of the pipeline's
    /// grid) — the integer pre-image of the placement histogram,
    /// maintained by subtract-old / add-new on re-placement.
    zone_counts: Vec<usize>,
    fit_cache: Option<FitCache>,
    obs: Option<StreamObs>,
}

impl StreamingPipeline {
    /// Wraps a configured batch pipeline. The pipeline's generic profile,
    /// activity threshold, polishing flag, component cap, thread count,
    /// shard count, and placement-cache toggle all carry over; the
    /// placement engine is built once and reused across every refresh.
    pub fn new(pipeline: GeolocationPipeline) -> StreamingPipeline {
        let grid = pipeline.effective_grid();
        let engine = PlacementEngine::with_grid(pipeline.generic(), grid);
        let obs = pipeline.obs().map(StreamObs::new);
        let shards = ShardSet::new(pipeline.effective_shards());
        let cache = PlacementCache::new(pipeline.placement_cache_enabled());
        StreamingPipeline {
            pipeline,
            engine,
            obs,
            shards,
            cache,
            kept_profiles: Arc::new(Vec::new()),
            kept_placements: Arc::new(Vec::new()),
            eligible: 0,
            zone_counts: vec![0; grid.zones()],
            fit_cache: None,
        }
    }

    /// The wrapped batch pipeline configuration.
    pub fn pipeline(&self) -> &GeolocationPipeline {
        &self.pipeline
    }

    /// Number of users ever ingested.
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

    /// Lifetime placement-cache `(hits, misses)`. With the cache disabled
    /// every resolution counts as a miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
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
    /// count, zone counts) from the accumulators' stored analyses — the
    /// last step of recovering a durable snapshot. The kept vectors are
    /// rebuilt in global user-id order, exactly the order incremental
    /// refreshes maintain, so a recovered engine continues byte-identical
    /// to one that never restarted. The fit cache is dropped: a cold
    /// refit is bit-identical anyway.
    pub(crate) fn rebuild_derived_state(&mut self) {
        let grid = self.engine.grid();
        let mut profiles = Vec::new();
        let mut placements = Vec::new();
        let mut eligible = 0usize;
        let mut zone_counts = vec![0usize; grid.zones()];
        for (_, acc) in self.shards.all_users_sorted() {
            let Some(a) = &acc.analysis else { continue };
            eligible += 1;
            if let Some(p) = &a.placement {
                zone_counts[grid.index_of_minutes(p.offset_minutes())] += 1;
            }
            if a.kept() {
                profiles.push(a.profile.clone());
                placements.push(a.placement.clone().expect("kept users are placed"));
            }
        }
        self.kept_profiles = Arc::new(profiles);
        self.kept_placements = Arc::new(placements);
        self.eligible = eligible;
        self.zone_counts = zone_counts;
        self.fit_cache = None;
    }

    /// Ingests new posts for one user — a pure delta update.
    ///
    /// Timestamps are read in UTC (the anonymous-crowd convention the
    /// batch pipeline uses); duplicates and out-of-order arrivals are
    /// fine, and re-ingesting a timestamp whose (day, hour) slot is
    /// already active only bumps the post count — exactly what the batch
    /// rebuild would conclude. Empty deltas are ignored.
    ///
    /// Cost: `O(k log k + s)` for `k` new posts against `s` existing
    /// slots, independent of crowd size and of total history length.
    pub fn ingest(&mut self, user: &str, posts: &[Timestamp]) {
        if posts.is_empty() {
            return;
        }
        self.count(&[(user, posts)], false);
        self.shards.ingest(user, posts);
    }

    /// Ingests a whole trace as one delta (convenience for replaying
    /// per-user deltas such as [`TraceSet::delta_from`]).
    pub fn ingest_trace(&mut self, trace: &UserTrace) {
        self.ingest(trace.id(), trace.posts());
    }

    /// Ingests every trace of a set (e.g. a first full crawl before
    /// incremental monitoring takes over) — one delta per non-empty
    /// trace, routed to the shards once and applied concurrently on the
    /// pipeline's worker threads.
    pub fn ingest_set(&mut self, traces: &TraceSet) {
        let deltas: Vec<(&str, &[Timestamp])> = traces
            .iter()
            .map(|t| (t.id(), t.posts()))
            .filter(|(_, p)| !p.is_empty())
            .collect();
        self.ingest_deltas(&deltas);
    }

    /// Ingests a batch of single-post observations — the shape a forum
    /// monitor poll produces (`Monitor::run_batched` in `crowdtz-forum`).
    /// Each `(author, timestamp)` pair counts as one delta, exactly as if
    /// [`ingest`](StreamingPipeline::ingest) had been called per
    /// observation in order, but the batch is routed to the shards once
    /// and applied concurrently.
    pub fn ingest_posts(&mut self, posts: &[(String, Timestamp)]) {
        let deltas: Vec<(&str, &[Timestamp])> = posts
            .iter()
            .map(|(user, ts)| (user.as_str(), std::slice::from_ref(ts)))
            .collect();
        self.ingest_deltas(&deltas);
    }

    /// Retracts posts for one user — the signed inverse of
    /// [`ingest`](StreamingPipeline::ingest). The accumulator's slot
    /// refcounts are decremented, slots reaching zero disappear (with
    /// their hour-count contribution), and a user falling below the
    /// activity threshold drops out of the analysis at the next refresh —
    /// the snapshot afterwards is byte-identical to an engine that never
    /// saw the retracted posts. Retracting posts the engine never saw is
    /// a no-op, so retraction must be sequenced after the ingest that
    /// delivered the posts (the windowed pipeline guarantees this).
    pub fn retract(&mut self, user: &str, posts: &[Timestamp]) {
        if posts.is_empty() {
            return;
        }
        self.count(&[(user, posts)], true);
        self.shards.retract(user, posts);
    }

    /// Bulk ingest: count the batch once (totals are order-free), then
    /// let the shard set apply it in parallel.
    fn ingest_deltas(&mut self, deltas: &[(&str, &[Timestamp])]) {
        if deltas.is_empty() {
            return;
        }
        self.count(deltas, false);
        self.shards
            .apply_batch(deltas, false, self.pipeline.effective_threads());
    }

    /// A signed batch through a **shared** reference — the concurrent
    /// engine's writer path (`concurrent.rs`), ingesting or (with
    /// `retract`) releasing the posts.
    ///
    /// The batch locks one shard at a time
    /// ([`ShardSet::apply_batch_shared`]) and every metric update is an
    /// atomic add, so any number of writer threads may call this at once;
    /// deltas commute (see `shard.rs`), so the final accumulator state —
    /// and with it every later snapshot — is identical to a serial
    /// application of the same batches in any order.
    pub(crate) fn apply_deltas_shared(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        ingest_obs: Option<&SharedIngestObs>,
    ) {
        if deltas.is_empty() {
            return;
        }
        self.count(deltas, retract);
        self.shards.apply_batch_shared(deltas, retract, ingest_obs);
    }

    /// Counts a signed batch into `streaming.posts_ingested` or
    /// `streaming.posts_retracted`, plus `streaming.deltas`.
    fn count(&self, deltas: &[(&str, &[Timestamp])], retract: bool) {
        if let Some(obs) = &self.obs {
            let posts: usize = deltas.iter().map(|(_, p)| p.len()).sum();
            if retract {
                obs.retracted.add(posts as u64);
            } else {
                obs.posts.add(posts as u64);
            }
            obs.deltas.add(deltas.len() as u64);
        }
    }

    /// Re-analyzes exactly the dirty users: drain every shard's dirty set
    /// in globally sorted id order, rebuild the changed profiles in
    /// parallel, resolve their CDFs through the placement cache (parallel
    /// exact scans for the misses only), and patch the zone counts and
    /// the shared kept vectors sequentially. Chunking is order-stable and
    /// the cache probe is sequential, so the per-user results — and
    /// therefore every snapshot — are invariant to both the thread count
    /// and the shard count.
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
        let dirty: Vec<String> = self.shards.take_dirty_sorted();
        let min_posts = self.pipeline.min_posts_threshold();
        let polish = self.pipeline.polish_enabled();
        let threads = self.pipeline.effective_threads();
        // Phase 1 (parallel, pure): rebuild each dirty user's distribution
        // and CDF from its integer accumulator.
        let prepared: Vec<Option<(Distribution24, [f64; BINS])>> = {
            let work: Vec<&UserAccumulator> = self.shards.accs_for(&dirty);
            chunked_map(&work, threads, |&acc| Self::prepare_user(acc, min_posts))
        };
        // Phase 2: resolve the eligible CDFs through the placement cache
        // (sequential probe, parallel compute of the misses).
        let cdfs: Vec<[f64; BINS]> = prepared
            .iter()
            .filter_map(|p| p.as_ref().map(|&(_, cdf)| cdf))
            .collect();
        let resolved =
            self.engine
                .resolve_cdfs(&cdfs, &mut self.cache, threads, observer.as_deref());
        // Phase 3 (sequential): assemble analyses and patch shared state.
        let mut resolutions = resolved.into_iter();
        let mut placed = 0u64;
        let profiles = Arc::make_mut(&mut self.kept_profiles);
        let placements = Arc::make_mut(&mut self.kept_placements);
        for (id, prep) in dirty.into_iter().zip(prepared) {
            let acc = self.shards.acc_mut(&id).expect("dirty user exists");
            let analysis = prep.map(|(distribution, _)| {
                let r = resolutions
                    .next()
                    .expect("one resolution per eligible user");
                let profile = ActivityProfile::from_parts(
                    id.clone(),
                    distribution,
                    acc.slots.len(),
                    acc.posts,
                );
                let flat = polish && r.flat;
                let placement = if flat {
                    None
                } else {
                    Some(UserPlacement::from_offset_minutes(
                        profile.user(),
                        r.zone_minutes,
                        r.emd,
                    ))
                };
                UserAnalysis {
                    profile,
                    flat,
                    placement,
                }
            });
            placed += u64::from(analysis.as_ref().is_some_and(UserAnalysis::kept));
            let grid = self.engine.grid();
            let old = acc.analysis.take();
            if let Some(p) = old.as_ref().and_then(|a| a.placement.as_ref()) {
                self.zone_counts[grid.index_of_minutes(p.offset_minutes())] -= 1;
            }
            if let Some(p) = analysis.as_ref().and_then(|a| a.placement.as_ref()) {
                self.zone_counts[grid.index_of_minutes(p.offset_minutes())] += 1;
            }
            self.eligible -= usize::from(old.is_some());
            self.eligible += usize::from(analysis.is_some());
            // Patch the kept vectors at the user's id-ordered position.
            // Dirty users that stay kept (the steady state) are replaced
            // in place; membership changes shift the tail, and the
            // initial bulk ingest arrives in ascending id order, so every
            // insert is an append.
            let old_kept = old.as_ref().is_some_and(UserAnalysis::kept);
            let new_kept = analysis.as_ref().is_some_and(UserAnalysis::kept);
            let pos = profiles.binary_search_by(|p| p.user().cmp(&id));
            match (old_kept, new_kept) {
                (_, true) => {
                    let a = analysis.as_ref().expect("kept analysis exists");
                    let profile = a.profile.clone();
                    let placement = a.placement.clone().expect("kept users are placed");
                    match pos {
                        Ok(i) => {
                            debug_assert!(old_kept);
                            profiles[i] = profile;
                            placements[i] = placement;
                        }
                        Err(i) => {
                            debug_assert!(!old_kept);
                            profiles.insert(i, profile);
                            placements.insert(i, placement);
                        }
                    }
                }
                (true, false) => {
                    let i = pos.expect("kept user is in the kept vectors");
                    profiles.remove(i);
                    placements.remove(i);
                }
                (false, false) => {}
            }
            let acc = self.shards.acc_mut(&id).expect("dirty user exists");
            acc.analysis = analysis;
        }
        if let Some(obs) = &self.obs {
            obs.observer.counter("placement.users").add(placed);
            // Shard occupancy, as of this refresh.
            for (i, n) in self.shards.occupancy().into_iter().enumerate() {
                obs.observer
                    .gauge(&format!("shard.{i:02}.users"))
                    .set(n as f64);
            }
        }
    }

    /// One user's distribution + CDF from the integer accumulator —
    /// `None` below the activity threshold. Pure, so it fans out across
    /// worker threads; the flatness/placement decision happens in the
    /// cache-backed resolve step.
    fn prepare_user(
        acc: &UserAccumulator,
        min_posts: usize,
    ) -> Option<(Distribution24, [f64; BINS])> {
        if acc.posts < min_posts || acc.slots.is_empty() {
            return None;
        }
        let mut bins = [0.0_f64; BINS];
        for (dst, &c) in bins.iter_mut().zip(acc.hour_counts.iter()) {
            *dst = f64::from(c);
        }
        let distribution = Histogram24::from_bins(bins).normalized().ok()?;
        let cdf = distribution.cdf();
        Some((distribution, cdf))
    }

    /// Produces the current [`GeolocationReport`], doing work proportional
    /// to the dirty set (plus one cheap O(24·n) reduction). The report
    /// shares the kept profile/placement vectors with the engine via
    /// `Arc` — assembling it copies nothing per user, and holding an old
    /// report costs at most one copy-on-write clone at the next refresh.
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
        // exactly this order — see the module docs.
        let crowd = CrowdProfile::aggregate(&self.kept_profiles)?;
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
        let multi = MultiRegionFit::fit(histogram, max_components)?;
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
    use crowdtz_time::RegionDb;

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
            stream.ingest_trace(t);
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
            fresh.ingest_trace(t);
        }
        assert_eq!(
            report_json(&stream.snapshot().unwrap()),
            report_json(&fresh.snapshot().unwrap())
        );
    }

    #[test]
    fn placement_cache_hits_on_repeated_profiles() {
        // Every user posts at the same two slots → one distinct CDF.
        let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let mut traces = TraceSet::new();
        let posts = [
            Timestamp::from_secs(20 * 3_600),
            Timestamp::from_secs(86_400 + 21 * 3_600),
        ];
        for i in 0..30 {
            let id = format!("u{i:02}");
            stream.ingest(&id, &posts);
            for &p in &posts {
                traces.record(&id, p);
            }
        }
        let inc = stream.snapshot().unwrap();
        let (hits, misses) = stream.cache_stats();
        assert_eq!(misses, 1, "one distinct profile shape");
        assert_eq!(hits, 29);
        // The cache never changes a byte: cache-off matches exactly.
        let off = {
            let mut s = StreamingPipeline::new(pipeline.placement_cache(false));
            s.ingest_set(&traces);
            s.snapshot().unwrap()
        };
        assert_eq!(report_json(&inc), report_json(&off));
    }
}
