//! Sliding-window analysis and longitudinal drift tracking — the
//! scenario layer the signed-delta ingestion path exists for.
//!
//! A [`WindowedPipeline`] fronts a [`ConcurrentStreamingPipeline`] and
//! derives window expiry from the engine's own accumulators. Buckets are
//! whole hours (`bucket_secs` is a positive multiple of 3 600), so an
//! accumulator's hour slot (`day·24 + hour`) never straddles a bucket
//! boundary. At each publish, under the write gate that makes the cut,
//! the engine finds the bucket of its newest *live* slot and releases
//! every slot of every bucket older than the configured span. No post is
//! tracked beside the engine: posts from any writer path expire, and a
//! durable engine keeps expiring after a restart because the window
//! state *is* engine state. The engine therefore always analyzes
//! exactly the posts inside the sliding window, and each windowed report
//! is byte-identical to a fresh engine fed only the surviving posts —
//! the invariant `tests/window_identity.rs` pins across writers ×
//! shards × grids, with and without durability.
//!
//! The newest bucket is read from live slots at the cut, not kept as a
//! high watermark. The two differ in one case: when every post of the
//! newest bucket(s) was explicitly retracted, the window measures from
//! the newest bucket that still holds a post.
//!
//! Explicit retraction ([`retract_posts`](WindowedPipeline::retract_posts))
//! is the engine's signed path, exactly as on a plain tenant: a post
//! releases one count of its slot when the slot is live (even if that
//! exact post was never ingested), and nothing once its slot expired.
//!
//! On top of the window sits a [`DriftTracker`]: each publish appends a
//! [`DriftPoint`] carrying the zone-composition fractions of the
//! report, the L1 shift of those fractions against a trailing mean of
//! the previous points, and a **change-point flag** raised when the
//! shift exceeds the configured threshold — the per-community
//! time-zone-composition trajectory the ROADMAP's longitudinal-drift
//! item calls for (user-base migration, DST-season re-checks). The
//! trajectory lives in memory and starts over after a restart.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crowdtz_time::Timestamp;

use crate::concurrent::{ConcurrentStreamingPipeline, IngestWriter, PublishedReport, WindowSpan};
use crate::error::CoreError;

/// Seconds in one hour slot — the unit every bucket is a multiple of.
const HOUR_SECS: i64 = 3_600;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of the sliding window and its drift tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Width of one bucket in seconds of event time, a positive multiple
    /// of 3 600 (default: one week). Posts are grouped by
    /// `floor(secs / bucket_secs)`.
    pub bucket_secs: i64,
    /// Window span in buckets (default 8): a bucket expires once the
    /// bucket of the newest live post is at least this far ahead of it.
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

    /// The bucket of the newest live post at the publish — the
    /// trajectory's x-axis.
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

/// Observability handles (`window.*`), resolved once at construction.
#[derive(Debug)]
struct WindowObs {
    observer: Arc<crowdtz_obs::Observer>,
    /// `window.retractions`: posts released (expiry + explicit).
    retractions: crowdtz_obs::Counter,
    /// `window.expired_buckets`: distinct buckets that lost slots at a
    /// publish.
    expired_buckets: crowdtz_obs::Counter,
    /// `window.changepoints`: publishes flagged by the drift tracker.
    changepoints: crowdtz_obs::Counter,
}

/// A sliding-window front over the concurrent engine: expires every
/// bucket older than the window at publish, from the engine's own
/// accumulators, and records the drift trajectory. See the module docs.
#[derive(Debug)]
pub struct WindowedPipeline {
    engine: ConcurrentStreamingPipeline,
    config: WindowConfig,
    tracker: Mutex<DriftTracker>,
    obs: Option<WindowObs>,
}

impl WindowedPipeline {
    /// Wraps an engine (cheap handle clone) with the given window
    /// config. `observer` attaches the `window.*` metrics and the
    /// `window.publish` span; pass the same observer the engine uses.
    /// `bucket_secs` is clamped to ≥ 1 and rounded up to whole hours;
    /// `window_buckets` is clamped to ≥ 1.
    pub fn new(
        engine: ConcurrentStreamingPipeline,
        config: WindowConfig,
        observer: Option<Arc<crowdtz_obs::Observer>>,
    ) -> WindowedPipeline {
        let bucket_hours =
            ((config.bucket_secs.max(1) - 1) / HOUR_SECS + 1).min(i64::MAX / HOUR_SECS);
        let config = WindowConfig {
            bucket_secs: bucket_hours * HOUR_SECS,
            window_buckets: config.window_buckets.max(1),
            ..config
        };
        let tracker = DriftTracker::new(config.drift_history, config.drift_threshold);
        let obs = observer.map(|observer| WindowObs {
            retractions: observer.counter("window.retractions"),
            expired_buckets: observer.counter("window.expired_buckets"),
            changepoints: observer.counter("window.changepoints"),
            observer,
        });
        WindowedPipeline {
            engine,
            config,
            tracker: Mutex::new(tracker),
            obs,
        }
    }

    /// The fronted engine (for registering writers, snapshot reads,
    /// durable checkpoints).
    pub fn engine(&self) -> &ConcurrentStreamingPipeline {
        &self.engine
    }

    /// The window configuration (after clamping and rounding).
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Live posts the engine holds: ingested, not yet expired or
    /// retracted.
    pub fn pending_posts(&self) -> usize {
        self.engine.posts_ingested()
    }

    /// Ingests posts through `writer` — the same path as
    /// [`IngestWriter::ingest_posts_ref`]: expiry reads the engine, so
    /// posts need no registration and any writer path expires alike.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] in durable mode when the write-ahead append
    /// fails.
    pub fn ingest_posts<S: AsRef<str>>(
        &self,
        writer: &IngestWriter,
        posts: &[(S, Timestamp)],
    ) -> Result<(), CoreError> {
        writer.ingest_posts_ref(posts)
    }

    /// Explicitly retracts posts (a moderation takedown, a dedup fix)
    /// through `writer`'s signed path, as on a plain tenant. Returns how
    /// many posts the shards actually released: a post whose slot is
    /// live releases one count of it, a post whose slot is gone
    /// (expired, retracted, never ingested) releases nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] in durable mode when the write-ahead append
    /// fails.
    pub fn retract_posts<S: AsRef<str>>(
        &self,
        writer: &IngestWriter,
        posts: &[(S, Timestamp)],
    ) -> Result<usize, CoreError> {
        let released = writer.retract_posts_ref(posts)?;
        if let Some(obs) = &self.obs {
            obs.retractions.add(released as u64);
        }
        Ok(released)
    }

    /// Publishes a windowed report: under the engine's write gate,
    /// releases every slot of every bucket older than the window span
    /// (journaling the cutoff first in durable mode) and publishes the
    /// cut, then records the drift-trajectory point. Concurrent
    /// publishes serialize on the tracker lock, so the trajectory stays
    /// in epoch order.
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
        let span = WindowSpan {
            bucket_hours: self.config.bucket_secs / HOUR_SECS,
            window_buckets: i64::try_from(self.config.window_buckets).unwrap_or(i64::MAX),
        };
        // Held across the cut: a concurrent publish cannot record its
        // point between our cut and our record.
        let mut tracker = relock(&self.tracker);
        let (expiry, published) = self.engine.publish_windowed(coverage, span);
        if let Some(obs) = &self.obs {
            obs.expired_buckets.add(expiry.buckets as u64);
            obs.retractions.add(expiry.posts as u64);
        }
        let published = published?;
        let fractions = published.report().histogram().fractions().to_vec();
        let bucket = expiry.newest_bucket.unwrap_or(0);
        let point = tracker.record(published.epoch(), bucket, fractions);
        if point.is_changepoint() {
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
            window.ingest_posts(&writer, batch).unwrap();
        }
        let published = window.publish().unwrap();
        let fresh = ConcurrentStreamingPipeline::new(pipeline());
        fresh.writer().ingest_posts_ref(&new).unwrap();
        let expected = fresh.publish().unwrap();
        assert_eq!(
            serde_json::to_string(published.report()).unwrap(),
            serde_json::to_string(expected.report()).unwrap()
        );
        assert_eq!(window.pending_posts(), 2, "only the new bucket remains");
    }

    #[test]
    fn a_user_who_stops_posting_leaves_with_the_window() {
        // `alice` is placed at the first cut, then never posts again:
        // the cut that expires her days must drop her from the report
        // although nothing else touched her since.
        let window = windowed(1, 2);
        let writer = window.engine().writer();
        let day = |user: &str, d: i64, hour: u8| -> Vec<(String, Timestamp)> {
            daily(d, hour, 1)
                .into_iter()
                .map(|t| (user.to_owned(), t))
                .collect()
        };
        let ingest = |posts: &[(String, Timestamp)]| {
            window.ingest_posts(&writer, posts).unwrap();
        };
        ingest(&[day("alice", 0, 20), day("bob", 0, 9)].concat());
        assert_eq!(window.publish().unwrap().report().profiles().len(), 2);
        let late = [day("bob", 2, 9), day("bob", 3, 10)].concat();
        ingest(&late);
        let published = window.publish().unwrap();
        let fresh = ConcurrentStreamingPipeline::new(pipeline());
        fresh.writer().ingest_posts_ref(&late).unwrap();
        assert_eq!(
            serde_json::to_string(published.report()).unwrap(),
            serde_json::to_string(fresh.publish().unwrap().report()).unwrap()
        );
    }

    #[test]
    fn explicit_retraction_prevents_double_expiry() {
        // Two posts share a slot; explicitly retracting one must leave
        // the slot live, with the surviving post's count, through the
        // next cut.
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
        // The slot holds two counts: two retracts release one each, the
        // third finds the slot gone and releases nothing.
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 1);
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 1);
        assert_eq!(window.retract_posts(&writer, &[("u", t)]).unwrap(), 0);
        assert_eq!(window.pending_posts(), 0);
    }

    #[test]
    fn expired_posts_cannot_be_retracted_twice() {
        // One-hour buckets, a one-bucket window: `u`'s posts at 20:00 and
        // 20:30 share slot 20 and expire together once 21:00 is the
        // newest bucket. Retracting the expired 20:00 post afterwards
        // must release nothing — not a count of `u`'s surviving slot 21.
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let window = WindowedPipeline::new(
            engine,
            WindowConfig {
                bucket_secs: 3_600,
                window_buckets: 1,
                ..WindowConfig::default()
            },
            None,
        );
        let writer = window.engine().writer();
        let a = Timestamp::from_secs(20 * 3_600);
        let b = Timestamp::from_secs(20 * 3_600 + 1_800);
        let c = Timestamp::from_secs(21 * 3_600);
        let d = Timestamp::from_secs(21 * 3_600 + 900);
        window.ingest_posts(&writer, &[("u", a), ("u", b)]).unwrap();
        window.ingest_posts(&writer, &[("v", c), ("u", d)]).unwrap();
        window.publish().unwrap(); // expires slot 20: `a` and `b`
        assert_eq!(window.pending_posts(), 2);
        assert_eq!(window.retract_posts(&writer, &[("u", a)]).unwrap(), 0);
        assert_eq!(
            window.pending_posts(),
            2,
            "the expired post released nothing"
        );
        let published = window.publish().unwrap();
        let fresh = ConcurrentStreamingPipeline::new(pipeline());
        fresh
            .writer()
            .ingest_posts_ref(&[("v", c), ("u", d)])
            .unwrap();
        let expected = fresh.publish().unwrap();
        assert_eq!(
            serde_json::to_string(published.report()).unwrap(),
            serde_json::to_string(expected.report()).unwrap()
        );
    }

    #[test]
    fn buckets_round_up_to_whole_hours() {
        for (asked, got) in [
            (0, 3_600),
            (1, 3_600),
            (1_800, 3_600),
            (3_600, 3_600),
            (3_601, 7_200),
        ] {
            let engine = ConcurrentStreamingPipeline::new(pipeline());
            let config = WindowConfig {
                bucket_secs: asked,
                ..WindowConfig::default()
            };
            assert_eq!(
                WindowedPipeline::new(engine, config, None)
                    .config()
                    .bucket_secs,
                got
            );
        }
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let config = WindowConfig {
            bucket_secs: i64::MAX,
            ..WindowConfig::default()
        };
        let secs = WindowedPipeline::new(engine, config, None)
            .config()
            .bucket_secs;
        assert_eq!(secs % 3_600, 0, "the largest bucket is still whole hours");
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
            window.ingest_posts(&writer, &posts).unwrap();
        }
        window.publish().unwrap();
        assert_eq!(window.pending_posts(), 5, "nothing expired");
        assert_eq!(window.trajectory().len(), 1);
    }
}
