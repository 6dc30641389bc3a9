//! Sliding-window analysis and longitudinal drift tracking — the
//! scenario layer the signed-delta ingestion path exists for.
//!
//! A [`WindowedPipeline`] fronts a [`ConcurrentStreamingPipeline`] with
//! a **time-bucketed retraction queue**: every ingested post is also
//! registered under its event-time bucket (`floor(secs / bucket_secs)`),
//! and at publish time every bucket older than the configured window
//! span (measured from the newest bucket ever seen — an event-time high
//! watermark) is retracted through the engine's signed-delta path. The
//! engine therefore always analyzes exactly the posts inside the
//! sliding window, and because retraction is an exact inverse
//! (`shard.rs`), each windowed report is byte-identical to a fresh
//! engine fed only the surviving posts — the invariant
//! `tests/window_identity.rs` pins across writers × shards × grids,
//! with and without durability.
//!
//! On top of the window sits a [`DriftTracker`]: each publish appends a
//! [`DriftPoint`] carrying the zone-composition fractions of the
//! report, the L1 shift of those fractions against a trailing mean of
//! the previous points, and a **change-point flag** raised when the
//! shift exceeds the configured threshold — the per-community
//! time-zone-composition trajectory the ROADMAP's longitudinal-drift
//! item calls for (user-base migration, DST-season re-checks).
//!
//! # Ordering
//!
//! Retraction is only an exact inverse when it runs *after* the ingest
//! that delivered the posts (releasing an unseen post is a skip, not a
//! debt). The pipeline guarantees this by construction: posts enter the
//! queue only in [`ingest_posts`](WindowedPipeline::ingest_posts), after
//! their ingest batch returned, and expiry happens at publish under the
//! queue lock.
//! Explicit retraction ([`retract_posts`](WindowedPipeline::retract_posts))
//! also *unregisters* the posts from the queue — otherwise a later
//! expiry would retract them a second time and break the identity (two
//! posts sharing a slot would lose the slot while one still survives).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crowdtz_time::Timestamp;

use crate::concurrent::{ConcurrentStreamingPipeline, IngestWriter, PublishedReport};
use crate::error::CoreError;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of the sliding window and its drift tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Width of one retraction bucket in seconds of event time
    /// (default: one week). Posts are grouped by
    /// `floor(secs / bucket_secs)`.
    pub bucket_secs: i64,
    /// Window span in buckets (default 8): a bucket expires once the
    /// newest tracked bucket is at least this far ahead of it.
    pub window_buckets: usize,
    /// L1 threshold on the zone-fraction shift (against the trailing
    /// mean) above which a publish is flagged as a change-point
    /// (default 0.25; the L1 distance between two distributions ranges
    /// over `[0, 2]`).
    pub drift_threshold: f64,
    /// How many previous trajectory points the trailing mean averages
    /// (default 4).
    pub drift_history: usize,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            bucket_secs: 7 * 86_400,
            window_buckets: 8,
            drift_threshold: 0.25,
            drift_history: 4,
        }
    }
}

/// One point of the longitudinal trajectory: the zone composition at a
/// publish, plus its drift against the trailing mean.
#[derive(Debug, Clone)]
pub struct DriftPoint {
    epoch: u64,
    bucket: i64,
    fractions: Vec<f64>,
    shift: f64,
    changepoint: bool,
}

impl DriftPoint {
    /// The publication epoch this point was recorded at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The event-time high watermark (newest tracked bucket index) at
    /// the publish — the trajectory's x-axis.
    pub fn bucket(&self) -> i64 {
        self.bucket
    }

    /// The report's zone-composition fractions (one per grid zone).
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// `Σ|Δfraction|` against the trailing mean of the previous points
    /// (0 for the first point).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Whether this publish crossed the drift threshold.
    pub fn is_changepoint(&self) -> bool {
        self.changepoint
    }

    /// The dominant zone as `(zone index, fraction)`, if any zone holds
    /// users.
    pub fn dominant(&self) -> Option<(usize, f64)> {
        self.fractions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .filter(|(_, &f)| f > 0.0)
            .map(|(i, &f)| (i, f))
    }
}

/// Records the per-publish zone-composition trajectory and flags
/// change-points: a point whose L1 distance to the trailing mean of the
/// previous `history` points exceeds `threshold`. Standalone —
/// [`WindowedPipeline`] drives one, but any publish loop can.
#[derive(Debug)]
pub struct DriftTracker {
    history: usize,
    threshold: f64,
    points: Vec<DriftPoint>,
}

impl DriftTracker {
    /// A tracker averaging the last `history` points (min 1) with the
    /// given change-point threshold.
    pub fn new(history: usize, threshold: f64) -> DriftTracker {
        DriftTracker {
            history: history.max(1),
            threshold,
            points: Vec::new(),
        }
    }

    /// Appends one trajectory point and returns it. The first point is
    /// never a change-point (there is no history to drift from).
    pub fn record(&mut self, epoch: u64, bucket: i64, fractions: Vec<f64>) -> &DriftPoint {
        let tail_start = self.points.len().saturating_sub(self.history);
        let tail = &self.points[tail_start..];
        let shift = if tail.is_empty() {
            0.0
        } else {
            let mut mean = vec![0.0f64; fractions.len()];
            for p in tail {
                for (m, f) in mean.iter_mut().zip(&p.fractions) {
                    *m += f;
                }
            }
            let n = tail.len() as f64;
            mean.iter()
                .zip(&fractions)
                .map(|(m, f)| (m / n - f).abs())
                .sum()
        };
        let changepoint = !tail.is_empty() && shift > self.threshold;
        self.points.push(DriftPoint {
            epoch,
            bucket,
            fractions,
            shift,
            changepoint,
        });
        self.points.last().expect("just pushed")
    }

    /// The full trajectory, in publish order.
    pub fn points(&self) -> &[DriftPoint] {
        &self.points
    }

    /// The trajectory points flagged as change-points.
    pub fn changepoints(&self) -> Vec<&DriftPoint> {
        self.points.iter().filter(|p| p.changepoint).collect()
    }
}

/// The retraction queue: live posts pending expiry, keyed by event-time
/// bucket, plus the high watermark expiry is measured from.
#[derive(Debug, Default)]
struct WindowState {
    buckets: BTreeMap<i64, Vec<(String, Timestamp)>>,
    /// Newest bucket ever tracked (event time, not wall time): buckets
    /// at or below `max_bucket − window_buckets` are expired.
    max_bucket: Option<i64>,
}

/// Observability handles (`window.*`), resolved once at construction.
#[derive(Debug)]
struct WindowObs {
    observer: Arc<crowdtz_obs::Observer>,
    /// `window.retractions`: posts retracted (expiry + explicit).
    retractions: crowdtz_obs::Counter,
    /// `window.expired_buckets`: buckets auto-retracted at publish.
    expired_buckets: crowdtz_obs::Counter,
    /// `window.changepoints`: publishes flagged by the drift tracker.
    changepoints: crowdtz_obs::Counter,
}

/// A sliding-window front over the concurrent engine: tracks ingested
/// posts in event-time buckets, auto-retracts expired buckets at
/// publish, and records the drift trajectory. See the module docs.
#[derive(Debug)]
pub struct WindowedPipeline {
    engine: ConcurrentStreamingPipeline,
    config: WindowConfig,
    state: Mutex<WindowState>,
    tracker: Mutex<DriftTracker>,
    /// Dedicated writer for expiry batches, registered once so repeated
    /// publishes do not grow the engine's watermark vector.
    retractor: IngestWriter,
    obs: Option<WindowObs>,
}

impl WindowedPipeline {
    /// Wraps an engine (cheap handle clone) with the given window
    /// config. `observer` attaches the `window.*` metrics and the
    /// `window.publish` span; pass the same observer the engine uses.
    /// `bucket_secs` and `window_buckets` are clamped to ≥ 1.
    pub fn new(
        engine: ConcurrentStreamingPipeline,
        config: WindowConfig,
        observer: Option<Arc<crowdtz_obs::Observer>>,
    ) -> WindowedPipeline {
        let config = WindowConfig {
            bucket_secs: config.bucket_secs.max(1),
            window_buckets: config.window_buckets.max(1),
            ..config
        };
        let tracker = DriftTracker::new(config.drift_history, config.drift_threshold);
        let retractor = engine.writer();
        let obs = observer.map(|observer| WindowObs {
            retractions: observer.counter("window.retractions"),
            expired_buckets: observer.counter("window.expired_buckets"),
            changepoints: observer.counter("window.changepoints"),
            observer,
        });
        WindowedPipeline {
            engine,
            config,
            state: Mutex::new(WindowState::default()),
            tracker: Mutex::new(tracker),
            retractor,
            obs,
        }
    }

    /// The fronted engine (for registering writers, wait-free snapshot
    /// reads, durable checkpoints).
    pub fn engine(&self) -> &ConcurrentStreamingPipeline {
        &self.engine
    }

    /// The window configuration (after clamping).
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// The bucket index a timestamp falls into.
    fn bucket_of(&self, ts: Timestamp) -> i64 {
        ts.as_secs().div_euclid(self.config.bucket_secs)
    }

    /// Posts currently tracked in the retraction queue (not yet
    /// expired or explicitly retracted).
    pub fn pending_posts(&self) -> usize {
        relock(&self.state).buckets.values().map(Vec::len).sum()
    }

    /// Registers already-ingested posts in the retraction queue. Call
    /// after the ingest batch that delivered them returned — the queue
    /// must never get ahead of the engine, or expiry would retract
    /// posts the shards have not absorbed (a silent skip that breaks
    /// the window, see the module docs on ordering).
    fn track(&self, posts: &[(&str, Timestamp)]) {
        if posts.is_empty() {
            return;
        }
        let mut state = relock(&self.state);
        for &(user, ts) in posts {
            let bucket = self.bucket_of(ts);
            state
                .buckets
                .entry(bucket)
                .or_default()
                .push((user.to_owned(), ts));
            state.max_bucket = Some(state.max_bucket.map_or(bucket, |m| m.max(bucket)));
        }
    }

    /// Ingests posts through `writer` and tracks them in one call — the
    /// convenience most callers want.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] in durable mode when the write-ahead append
    /// fails; the queue is only updated on success.
    pub fn ingest_posts(
        &self,
        writer: &IngestWriter,
        posts: &[(&str, Timestamp)],
    ) -> Result<(), CoreError> {
        writer.ingest_posts_ref(posts)?;
        self.track(posts);
        Ok(())
    }

    /// Explicitly retracts posts (a moderation takedown, a dedup fix):
    /// removes them from the retraction queue, then releases **exactly
    /// the entries that were still tracked** from the engine through
    /// `writer`'s signed path. Posts no longer in the queue (already
    /// expired, or retracted before) are skipped — retracting them
    /// again would strip slots that surviving posts still hold. Returns
    /// how many posts were retracted.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] in durable mode when the write-ahead append
    /// fails.
    pub fn retract_posts(
        &self,
        writer: &IngestWriter,
        posts: &[(&str, Timestamp)],
    ) -> Result<usize, CoreError> {
        if posts.is_empty() {
            return Ok(0);
        }
        let live = self.untrack(posts);
        if live.is_empty() {
            return Ok(0);
        }
        let refs: Vec<(&str, Timestamp)> = live.iter().map(|(u, t)| (u.as_str(), *t)).collect();
        writer.retract_posts_ref(&refs)?;
        if let Some(obs) = &self.obs {
            obs.retractions.add(live.len() as u64);
        }
        Ok(live.len())
    }

    /// Removes the first queue entry matching each `(user, timestamp)`
    /// pair, returning the entries that were actually tracked (posts
    /// already expired are simply gone and must not be released again).
    fn untrack(&self, posts: &[(&str, Timestamp)]) -> Vec<(String, Timestamp)> {
        let mut state = relock(&self.state);
        let mut removed = Vec::new();
        for &(user, ts) in posts {
            let bucket = self.bucket_of(ts);
            if let Some(entries) = state.buckets.get_mut(&bucket) {
                if let Some(i) = entries
                    .iter()
                    .position(|(u, t)| u == user && t.as_secs() == ts.as_secs())
                {
                    removed.push(entries.swap_remove(i));
                    if entries.is_empty() {
                        state.buckets.remove(&bucket);
                    }
                }
            }
        }
        removed
    }

    /// Publishes a windowed report: expires every bucket older than the
    /// window span (retracting its posts through the engine's signed
    /// path), publishes through the engine's consistent cut, and
    /// records the drift-trajectory point. Concurrent publishes
    /// serialize on the queue lock, so expiry and cut always pair up.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyCrowd`] when no user survives inside the
    ///   window.
    /// * [`CoreError::Stats`] when a fit fails.
    /// * [`CoreError::Store`] when a WAL append or due rotation fails.
    pub fn publish(&self) -> Result<Arc<PublishedReport>, CoreError> {
        self.publish_with_coverage(1.0)
    }

    /// [`publish`](Self::publish) for a partial crawl.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCoverage`] when `coverage` is outside
    /// `(0, 1]`, plus everything [`publish`](Self::publish) returns.
    pub fn publish_with_coverage(&self, coverage: f64) -> Result<Arc<PublishedReport>, CoreError> {
        let observer = self.obs.as_ref().map(|o| Arc::clone(&o.observer));
        let _s = crowdtz_obs::span!(observer, "window.publish");
        // Hold the queue lock through expiry + publish: a concurrent
        // publish cannot interleave its cut between our retraction and
        // our snapshot. Writers in ingest_posts block on it only briefly.
        let mut state = relock(&self.state);
        if let Some(max_bucket) = state.max_bucket {
            let cutoff = max_bucket - self.config.window_buckets as i64 + 1;
            let mut expired_posts: Vec<(String, Timestamp)> = Vec::new();
            let mut expired_buckets = 0u64;
            while let Some(entry) = state.buckets.first_entry() {
                if *entry.key() >= cutoff {
                    break;
                }
                expired_buckets += 1;
                expired_posts.extend(entry.remove());
            }
            if !expired_posts.is_empty() {
                let refs: Vec<(&str, Timestamp)> = expired_posts
                    .iter()
                    .map(|(u, t)| (u.as_str(), *t))
                    .collect();
                self.retractor.retract_posts_ref(&refs)?;
                if let Some(obs) = &self.obs {
                    obs.expired_buckets.add(expired_buckets);
                    obs.retractions.add(expired_posts.len() as u64);
                }
            }
        }
        let published = self.engine.publish_with_coverage(coverage)?;
        let bucket = state.max_bucket.unwrap_or(0);
        let point_is_changepoint = {
            let mut tracker = relock(&self.tracker);
            let fractions = published.report().histogram().fractions().to_vec();
            tracker
                .record(published.epoch(), bucket, fractions)
                .is_changepoint()
        };
        if point_is_changepoint {
            if let Some(obs) = &self.obs {
                obs.changepoints.inc();
            }
        }
        Ok(published)
    }

    /// The drift trajectory recorded so far, in publish order.
    pub fn trajectory(&self) -> Vec<DriftPoint> {
        relock(&self.tracker).points().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeolocationPipeline;

    fn pipeline() -> GeolocationPipeline {
        GeolocationPipeline::default().min_posts(1).threads(1)
    }

    /// `n` daily posts for `user` at `hour`, starting at day `day0`.
    fn daily(day0: i64, hour: u8, n: usize) -> Vec<Timestamp> {
        (0..n as i64)
            .map(|d| Timestamp::from_secs((day0 + d) * 86_400 + i64::from(hour) * 3_600))
            .collect()
    }

    fn windowed(bucket_days: i64, window_buckets: usize) -> WindowedPipeline {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        WindowedPipeline::new(
            engine,
            WindowConfig {
                bucket_secs: bucket_days * 86_400,
                window_buckets,
                ..WindowConfig::default()
            },
            None,
        )
    }

    #[test]
    fn expiry_matches_engine_fed_only_surviving_posts() {
        // 2-day buckets, window of 2 buckets: posts from days 0–1
        // expire once days 4–5 arrive.
        let window = windowed(2, 2);
        let writer = window.engine().writer();
        let old: Vec<(String, Timestamp)> = daily(0, 20, 2)
            .into_iter()
            .map(|t| ("alice".to_owned(), t))
            .collect();
        let new: Vec<(String, Timestamp)> = daily(4, 9, 2)
            .into_iter()
            .map(|t| ("bob".to_owned(), t))
            .collect();
        for batch in [&old, &new] {
            let refs: Vec<(&str, Timestamp)> =
                batch.iter().map(|(u, t)| (u.as_str(), *t)).collect();
            window.ingest_posts(&writer, &refs).unwrap();
        }
        let published = window.publish().unwrap();
        let fresh = ConcurrentStreamingPipeline::new(pipeline());
        let refs: Vec<(&str, Timestamp)> = new.iter().map(|(u, t)| (u.as_str(), *t)).collect();
        fresh.writer().ingest_posts_ref(&refs).unwrap();
        let expected = fresh.publish().unwrap();
        assert_eq!(
            serde_json::to_string(published.report()).unwrap(),
            serde_json::to_string(expected.report()).unwrap()
        );
        assert_eq!(window.pending_posts(), 2, "only the new bucket remains");
    }

    #[test]
    fn explicit_retraction_prevents_double_expiry() {
        // Two posts share a slot; explicitly retracting one must not
        // let the later expiry retract it again (which would strip the
        // slot the surviving post still holds).
        let window = windowed(1, 1);
        let writer = window.engine().writer();
        let t = Timestamp::from_secs(20 * 3_600);
        window.ingest_posts(&writer, &[("u", t), ("u", t)]).unwrap();
        window.retract_posts(&writer, &[("u", t)]).unwrap();
        assert_eq!(window.pending_posts(), 1);
        let published = window.publish().unwrap();
        assert_eq!(published.report().profiles()[0].post_count(), 1);
        assert_eq!(published.report().profiles()[0].active_slots(), 1);
    }

    #[test]
    fn retraction_of_untracked_posts_is_skipped() {
        let window = windowed(1, 1);
        let writer = window.engine().writer();
        let t = Timestamp::from_secs(20 * 3_600);
        window.ingest_posts(&writer, &[("u", t), ("u", t)]).unwrap();
        // The queue holds two copies: two retracts succeed, the third
        // finds nothing tracked and must not touch the engine.
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 1);
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 1);
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 0);
        assert_eq!(window.pending_posts(), 0);
    }

    #[test]
    fn expired_posts_cannot_be_retracted_twice() {
        // 30-minute buckets: posts at 20:00 and 20:30 share the hourly
        // accumulator slot but live in different buckets. After 20:00
        // expires, an explicit retract of it must NOT strip the slot the
        // 20:30 post still holds.
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let window = WindowedPipeline::new(
            engine,
            WindowConfig {
                bucket_secs: 1_800,
                window_buckets: 2,
                ..WindowConfig::default()
            },
            None,
        );
        let writer = window.engine().writer();
        let a = Timestamp::from_secs(20 * 3_600);
        let b = Timestamp::from_secs(20 * 3_600 + 1_800);
        let c = Timestamp::from_secs(21 * 3_600);
        window.ingest_posts(&writer, &[("u", a), ("u", b)]).unwrap();
        window.ingest_posts(&writer, &[("v", c)]).unwrap();
        window.publish().unwrap(); // expires only `a`
        assert_eq!(window.retract_posts(&writer, &[("u", a)]).unwrap(), 0);
        let published = window.publish().unwrap();
        let fresh = ConcurrentStreamingPipeline::new(pipeline());
        fresh
            .writer()
            .ingest_posts_ref(&[("u", b), ("v", c)])
            .unwrap();
        let expected = fresh.publish().unwrap();
        assert_eq!(
            serde_json::to_string(published.report()).unwrap(),
            serde_json::to_string(expected.report()).unwrap()
        );
    }

    #[test]
    fn drift_tracker_flags_a_composition_shift() {
        let mut tracker = DriftTracker::new(3, 0.5);
        let mut east = vec![0.0; 24];
        east[2] = 1.0;
        let mut west = vec![0.0; 24];
        west[20] = 1.0;
        for epoch in 1..=4 {
            let p = tracker.record(epoch, epoch as i64, east.clone());
            assert!(!p.is_changepoint(), "stable trajectory at {epoch}");
        }
        let p = tracker.record(5, 5, west.clone()).clone();
        assert!(p.is_changepoint(), "full shift must flag");
        assert!((p.shift() - 2.0).abs() < 1e-12, "disjoint L1 is 2");
        assert_eq!(tracker.changepoints().len(), 1);
        assert_eq!(tracker.points().len(), 5);
        assert_eq!(p.dominant(), Some((20, 1.0)));
    }

    #[test]
    fn window_never_expires_inside_the_span() {
        let window = windowed(1, 10);
        let writer = window.engine().writer();
        for day in 0..5i64 {
            let posts: Vec<(String, Timestamp)> = daily(day, 12, 1)
                .into_iter()
                .map(|t| (format!("u{day}"), t))
                .collect();
            let refs: Vec<(&str, Timestamp)> =
                posts.iter().map(|(u, t)| (u.as_str(), *t)).collect();
            window.ingest_posts(&writer, &refs).unwrap();
        }
        window.publish().unwrap();
        assert_eq!(window.pending_posts(), 5, "nothing expired");
        assert_eq!(window.trajectory().len(), 1);
    }
}
