//! The scraper: dump crawls, clock calibration, monitor mode, and
//! checkpoint/resume for crawls interrupted by transport failure.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use crowdtz_time::{Timestamp, TraceSet};
use crowdtz_tor::AnonymousChannel;

use crate::error::ForumError;
use crate::model::{PostId, ThreadId};
use crate::protocol::{Request, Response};
use crate::retry::{CrawlStats, ResilientChannel, RetryPolicy};

/// Result of the §V server-clock calibration: the measured offset between
/// the forum's displayed time and the observer's UTC clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationReport {
    /// Server clock minus observer UTC, in seconds.
    pub offset_secs: i64,
}

/// The output of a dump crawl: per-user traces in *server* time, plus
/// coverage bookkeeping, plus (after calibration) the offset needed to
/// normalize them to UTC.
///
/// A report from an interrupted crawl
/// ([`CrawlCheckpoint::partial_report`]) may cover only part of the forum;
/// [`coverage`](ScrapeReport::coverage) says how much.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeReport {
    server_traces: TraceSet,
    posts_seen: usize,
    hidden_posts: usize,
    offset_secs: Option<i64>,
    threads_total: usize,
    threads_completed: usize,
    pages_crawled: usize,
    stats: CrawlStats,
}

impl ScrapeReport {
    /// Traces with timestamps exactly as displayed by the forum.
    pub fn server_traces(&self) -> &TraceSet {
        &self.server_traces
    }

    /// Total posts crawled.
    pub fn posts_seen(&self) -> usize {
        self.posts_seen
    }

    /// Posts whose timestamp the forum withheld.
    pub fn hidden_posts(&self) -> usize {
        self.hidden_posts
    }

    /// The calibrated offset attached to this report, if any.
    pub fn offset_secs(&self) -> Option<i64> {
        self.offset_secs
    }

    /// Threads the forum listed.
    pub fn threads_total(&self) -> usize {
        self.threads_total
    }

    /// Threads crawled to their last page.
    pub fn threads_completed(&self) -> usize {
        self.threads_completed
    }

    /// Thread pages fetched and decoded.
    pub fn pages_crawled(&self) -> usize {
        self.pages_crawled
    }

    /// Fraction of listed threads fully crawled, in `0.0..=1.0`
    /// (`1.0` for a complete dump, and vacuously for an empty forum).
    pub fn coverage(&self) -> f64 {
        if self.threads_total == 0 {
            1.0
        } else {
            self.threads_completed as f64 / self.threads_total as f64
        }
    }

    /// Transport-level retry counters for the crawl that produced this
    /// report.
    pub fn stats(&self) -> CrawlStats {
        self.stats
    }

    /// Attaches a calibration result.
    #[must_use]
    pub fn with_offset(mut self, offset_secs: i64) -> ScrapeReport {
        self.offset_secs = Some(offset_secs);
        self
    }

    /// Attaches transport statistics (used when building a report from a
    /// checkpoint, which does not carry them).
    #[must_use]
    pub fn with_stats(mut self, stats: CrawlStats) -> ScrapeReport {
        self.stats = stats;
        self
    }

    /// Traces normalized to UTC by subtracting the calibrated offset.
    /// Borrows the server traces when no shift is needed (no calibration
    /// attached, or a zero offset) instead of copying them.
    pub fn utc_traces(&self) -> Cow<'_, TraceSet> {
        match self.offset_secs {
            Some(off) if off != 0 => Cow::Owned(self.server_traces.shifted_secs(-off)),
            _ => Cow::Borrowed(&self.server_traces),
        }
    }
}

impl fmt::Display for ScrapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrape: {} users, {} posts ({} hidden), {}/{} threads, offset {:?}",
            self.server_traces.len(),
            self.posts_seen,
            self.hidden_posts,
            self.threads_completed,
            self.threads_total,
            self.offset_secs
        )
    }
}

/// Where an interrupted dump crawl stopped, and everything it had
/// gathered so far.
///
/// Serializable: a crawler can persist the checkpoint, die, and resume in
/// a fresh process with [`Scraper::resume_dump`] without re-fetching any
/// page it already processed. Granularity is one thread page — a page
/// either fully lands in the checkpoint or was never recorded, so a
/// resumed crawl never double-counts posts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrawlCheckpoint {
    threads: Vec<ThreadId>,
    listed: bool,
    thread_cursor: usize,
    page_cursor: usize,
    traces: TraceSet,
    posts_seen: usize,
    hidden_posts: usize,
    pages_crawled: usize,
}

impl CrawlCheckpoint {
    /// A checkpoint at the very start of a crawl (nothing listed, nothing
    /// fetched). Passing it to [`Scraper::resume_dump`] performs a full
    /// dump.
    pub fn start() -> CrawlCheckpoint {
        CrawlCheckpoint::default()
    }

    /// Threads the listing phase discovered (0 until listing completes).
    pub fn threads_total(&self) -> usize {
        self.threads.len()
    }

    /// Threads crawled to their last page.
    pub fn threads_completed(&self) -> usize {
        self.thread_cursor
    }

    /// Thread pages fetched and decoded so far.
    pub fn pages_crawled(&self) -> usize {
        self.pages_crawled
    }

    /// Posts recorded so far.
    pub fn posts_seen(&self) -> usize {
        self.posts_seen
    }

    /// True when the crawl this checkpoint describes had finished.
    pub fn is_complete(&self) -> bool {
        self.listed && self.thread_cursor >= self.threads.len()
    }

    /// A report over whatever the interrupted crawl managed to gather.
    /// Its [`coverage`](ScrapeReport::coverage) reflects the missing
    /// threads; transport stats are not part of the checkpoint — attach
    /// them with [`ScrapeReport::with_stats`] if needed.
    pub fn partial_report(&self) -> ScrapeReport {
        ScrapeReport {
            server_traces: self.traces.clone(),
            posts_seen: self.posts_seen,
            hidden_posts: self.hidden_posts,
            offset_secs: None,
            threads_total: self.threads.len(),
            threads_completed: self.thread_cursor,
            pages_crawled: self.pages_crawled,
            stats: CrawlStats::default(),
        }
    }

    fn into_report(self, stats: CrawlStats) -> ScrapeReport {
        ScrapeReport {
            threads_total: self.threads.len(),
            threads_completed: self.thread_cursor,
            pages_crawled: self.pages_crawled,
            server_traces: self.traces,
            posts_seen: self.posts_seen,
            hidden_posts: self.hidden_posts,
            offset_secs: None,
            stats,
        }
    }
}

/// A dump crawl died mid-flight: the fault that exhausted the retry
/// budget, plus a [`CrawlCheckpoint`] to resume from.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlInterrupted {
    /// The unrecovered fault.
    pub error: ForumError,
    /// Resume point covering everything gathered before the fault.
    pub checkpoint: CrawlCheckpoint,
}

impl fmt::Display for CrawlInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crawl interrupted after {}/{} threads ({} pages): {}",
            self.checkpoint.threads_completed(),
            self.checkpoint.threads_total(),
            self.checkpoint.pages_crawled(),
            self.error
        )
    }
}

impl std::error::Error for CrawlInterrupted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A forum scraper working over an anonymous Tor channel.
///
/// Mirrors the paper's §V procedure: *"First, we sign up in the forum and
/// write a post in the 'Welcome' or 'Spam' thread to calculate the offset
/// between the server time and UTC. … once the offset from UTC is known we
/// can collect the timestamps of the posts in a sound and consistent way."*
///
/// Transport faults are absorbed by a [`RetryPolicy`] (see
/// [`crate::retry`]): transient errors retry with exponential backoff,
/// collapsed circuits are rebuilt automatically, and undecodable responses
/// are re-fetched. Faults that outlive the retry budget surface as errors;
/// [`resume_dump`](Scraper::resume_dump) turns them into resumable
/// checkpoints instead of losing the crawl.
pub struct Scraper {
    link: ResilientChannel,
}

impl Scraper {
    /// Creates a scraper over an established channel with the default
    /// retry policy.
    pub fn new(channel: AnonymousChannel) -> Scraper {
        Scraper {
            link: ResilientChannel::new(channel, RetryPolicy::default()),
        }
    }

    /// Replaces the retry policy ([`RetryPolicy::none`] restores
    /// fail-fast behaviour).
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Scraper {
        self.link.set_policy(policy);
        self
    }

    /// Attaches an observer: the transport records retry/backoff counters
    /// (`scrape.*`) and dumps record spans, resume counts, and a coverage
    /// gauge into it. Without one, the process-global observer (if
    /// installed) is used. Carries over to [`into_monitor`](Scraper::into_monitor).
    #[must_use]
    pub fn observer(mut self, observer: std::sync::Arc<crowdtz_obs::Observer>) -> Scraper {
        self.link.set_observer(observer);
        self
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.link.policy()
    }

    /// Transport-level counters accumulated by this scraper so far.
    pub fn crawl_stats(&self) -> CrawlStats {
        self.link.stats()
    }

    fn ask(&mut self, req: &Request) -> Result<Response, ForumError> {
        self.link.ask(req)
    }

    /// Lists all readable threads (walking every listing page).
    pub fn list_threads(&mut self) -> Result<Vec<crate::model::ThreadInfo>, ForumError> {
        let mut out = Vec::new();
        let mut page = 0;
        loop {
            match self.ask(&Request::ListThreads { page })? {
                Response::Threads { threads, pages } => {
                    out.extend(threads);
                    page += 1;
                    if page >= pages {
                        break;
                    }
                }
                Response::Error { reason } => {
                    return Err(ForumError::Protocol { reason });
                }
                _ => {
                    return Err(ForumError::Protocol {
                        reason: "unexpected response to ListThreads".into(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Measures the server-clock offset by posting to the first readable
    /// thread and comparing the echoed server timestamp with `own_now`.
    ///
    /// # Errors
    ///
    /// [`ForumError::TimestampsHidden`] when the forum strips timestamps —
    /// in that case use [`Monitor`] instead.
    pub fn calibrate(&mut self, own_now: Timestamp) -> Result<CalibrationReport, ForumError> {
        let threads = self.list_threads()?;
        let welcome: ThreadId =
            threads
                .first()
                .map(|t| t.id)
                .ok_or_else(|| ForumError::Protocol {
                    reason: "forum has no readable threads".into(),
                })?;
        match self.ask(&Request::PostMessage {
            thread: welcome,
            author: "observer".into(),
            client_now: own_now,
        })? {
            Response::Posted { post } => match post.shown_time {
                Some(shown) => Ok(CalibrationReport {
                    offset_secs: shown - own_now,
                }),
                None => Err(ForumError::TimestampsHidden),
            },
            Response::Error { reason } => Err(ForumError::Protocol { reason }),
            _ => Err(ForumError::Protocol {
                reason: "unexpected response to PostMessage".into(),
            }),
        }
    }

    /// Crawls every readable thread and collects `(author, shown time)`
    /// into per-user traces (server time). Posts without timestamps are
    /// counted but not recorded.
    ///
    /// Equivalent to [`resume_dump`](Scraper::resume_dump) from
    /// [`CrawlCheckpoint::start`], discarding the checkpoint on failure.
    pub fn dump(&mut self) -> Result<ScrapeReport, ForumError> {
        self.resume_dump(CrawlCheckpoint::start())
            .map_err(|interrupted| interrupted.error)
    }

    /// Runs (or resumes) a dump crawl from `checkpoint`.
    ///
    /// On an unrecoverable fault the crawl stops and returns a
    /// [`CrawlInterrupted`] carrying a fresh checkpoint; calling
    /// `resume_dump` again with it continues exactly where the crawl
    /// stopped, without re-fetching completed pages. An interrupted crawl
    /// resumed to completion yields the same traces as an uninterrupted
    /// one.
    // The Err variant carries the full checkpoint by value — that payload
    // is the whole point of the interruption contract, not an accident.
    #[allow(clippy::result_large_err)]
    pub fn resume_dump(
        &mut self,
        checkpoint: CrawlCheckpoint,
    ) -> Result<ScrapeReport, CrawlInterrupted> {
        let observer = self.link.observer();
        let _s = crowdtz_obs::span!(observer, "scrape.dump");
        if let Some(obs) = &observer {
            // A checkpoint with any recorded progress means this call is a
            // resume of an interrupted crawl, not a fresh dump.
            if checkpoint.listed || checkpoint.pages_crawled > 0 {
                obs.counter("scrape.resumes").inc();
            }
        }
        let mut cp = checkpoint;
        if !cp.listed {
            match self.list_threads() {
                Ok(threads) => {
                    cp.threads = threads.into_iter().map(|t| t.id).collect();
                    cp.listed = true;
                }
                Err(error) => {
                    return Err(CrawlInterrupted {
                        error,
                        checkpoint: cp,
                    })
                }
            }
        }
        while cp.thread_cursor < cp.threads.len() {
            let thread = cp.threads[cp.thread_cursor];
            let page = cp.page_cursor;
            let interrupted = |error, checkpoint| CrawlInterrupted { error, checkpoint };
            match self.ask(&Request::GetThread { thread, page }) {
                Ok(Response::ThreadPage { posts, pages }) => {
                    for p in posts {
                        cp.posts_seen += 1;
                        match p.shown_time {
                            Some(ts) => cp.traces.record(&p.author, ts),
                            None => cp.hidden_posts += 1,
                        }
                    }
                    cp.pages_crawled += 1;
                    cp.page_cursor += 1;
                    if cp.page_cursor >= pages {
                        cp.thread_cursor += 1;
                        cp.page_cursor = 0;
                    }
                }
                Ok(Response::Error { reason }) => {
                    return Err(interrupted(ForumError::Protocol { reason }, cp));
                }
                Ok(_) => {
                    return Err(interrupted(
                        ForumError::Protocol {
                            reason: "unexpected response to GetThread".into(),
                        },
                        cp,
                    ));
                }
                Err(error) => return Err(interrupted(error, cp)),
            }
        }
        let report = cp.into_report(self.link.stats());
        if let Some(obs) = &observer {
            obs.counter("scrape.dumps").inc();
            obs.gauge("scrape.coverage").set(report.coverage());
        }
        Ok(report)
    }

    /// Convenience: calibrate, then dump, returning UTC-normalized output.
    ///
    /// `own_now` must be an instant after the posts of interest (the
    /// crawl's wall-clock time).
    pub fn calibrated_dump(&mut self, own_now: Timestamp) -> Result<ScrapeReport, ForumError> {
        let calibration = self.calibrate(own_now)?;
        Ok(self.dump()?.with_offset(calibration.offset_secs))
    }

    /// Converts this scraper into a [`Monitor`] for forums that hide
    /// timestamps. The retry policy and accumulated stats carry over.
    pub fn into_monitor(self) -> Monitor {
        Monitor {
            link: self.link,
            last_seen: PostId(0),
        }
    }
}

impl fmt::Debug for Scraper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scraper")
            .field("address", &self.link.address())
            .finish_non_exhaustive()
    }
}

/// Where an interrupted monitoring session stopped.
///
/// Serializable for the same reason as [`CrawlCheckpoint`]: persist,
/// restart, hand to [`Monitor::resume_run_batched`]. It holds no
/// observations — the consumer owns every delivered batch — so its
/// serialized size stays O(1) however long the session runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MonitorCheckpoint {
    last_seen: PostId,
    /// `None` until the initial fast-forward past the window start is
    /// done; afterwards the next scheduled poll instant.
    next_poll: Option<Timestamp>,
    /// Sequence number of the last batch [`Monitor::resume_run_batched`]
    /// delivered (0 before any batch). Persisted alongside each batch by
    /// the consumer, it is what lets a restarted session prove a
    /// re-delivered boundary batch has already been applied.
    batch_seq: u64,
}

impl MonitorCheckpoint {
    /// A checkpoint at the very start of a monitoring session.
    pub fn start() -> MonitorCheckpoint {
        MonitorCheckpoint::default()
    }

    /// The id of the newest post the session had seen.
    pub fn last_seen(&self) -> PostId {
        self.last_seen
    }

    /// Sequence number of the last batch delivered by
    /// [`Monitor::resume_run_batched`] (0 before any batch).
    pub fn batch_seq(&self) -> u64 {
        self.batch_seq
    }
}

/// A monitoring session died mid-flight: the fault that exhausted the
/// retry budget, plus a [`MonitorCheckpoint`] to resume from.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorInterrupted {
    /// The unrecovered fault.
    pub error: ForumError,
    /// Resume point: the cursor of the last batch delivered before the
    /// fault, and the poll that failed.
    pub checkpoint: MonitorCheckpoint,
}

impl fmt::Display for MonitorInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor interrupted after {} batches: {}",
            self.checkpoint.batch_seq, self.error
        )
    }
}

impl std::error::Error for MonitorInterrupted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Monitor mode (§VII): when the forum removes timestamps, watch it and
/// timestamp new posts yourself.
///
/// *"it is enough to monitor the forum, see when posts are made and
/// timestamp them ourselves"* — the precision is bounded by the polling
/// interval, which adds uniform noise of at most one interval.
pub struct Monitor {
    link: ResilientChannel,
    last_seen: PostId,
}

impl Monitor {
    /// Creates a monitor over an established channel with the default
    /// retry policy.
    pub fn new(channel: AnonymousChannel) -> Monitor {
        Monitor {
            link: ResilientChannel::new(channel, RetryPolicy::default()),
            last_seen: PostId(0),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Monitor {
        self.link.set_policy(policy);
        self
    }

    /// Attaches an observer: polls and self-timestamped posts are counted
    /// (`monitor.polls` / `monitor.posts`), sessions resumed from a
    /// checkpoint bump `monitor.resumes`, and the transport records its
    /// `scrape.*` retry counters into the same observer.
    #[must_use]
    pub fn observer(mut self, observer: std::sync::Arc<crowdtz_obs::Observer>) -> Monitor {
        self.link.set_observer(observer);
        self
    }

    /// Transport-level counters accumulated by this monitor so far.
    pub fn crawl_stats(&self) -> CrawlStats {
        self.link.stats()
    }

    /// The id of the newest post seen so far.
    pub fn last_seen(&self) -> PostId {
        self.last_seen
    }

    /// Polls once at `observer_now`, self-timestamping every new post with
    /// the observer's clock. Returns the `(author, observed time)` pairs.
    pub fn poll(
        &mut self,
        observer_now: Timestamp,
    ) -> Result<Vec<(String, Timestamp)>, ForumError> {
        let mut out = Vec::new();
        self.poll_each(observer_now, |author, ts| out.push((author.to_owned(), ts)))?;
        Ok(out)
    }

    /// One poll loop, invoking `sink` per new post as soon as the post is
    /// consumed — so observations made before a mid-poll fault are not
    /// lost (crucial for checkpointing: `last_seen` advances with
    /// consumption).
    fn poll_each(
        &mut self,
        observer_now: Timestamp,
        mut sink: impl FnMut(&str, Timestamp),
    ) -> Result<(), ForumError> {
        let mut seen = 0u64;
        let result = self.poll_each_inner(observer_now, &mut sink, &mut seen);
        if let Some(obs) = self.link.observer() {
            obs.counter("monitor.polls").inc();
            obs.counter("monitor.posts").add(seen);
        }
        result
    }

    fn poll_each_inner(
        &mut self,
        observer_now: Timestamp,
        sink: &mut impl FnMut(&str, Timestamp),
        seen: &mut u64,
    ) -> Result<(), ForumError> {
        loop {
            match self.link.ask(&Request::NewPosts {
                after: self.last_seen,
                observer_now,
            })? {
                Response::Fresh { posts } => {
                    if posts.is_empty() {
                        return Ok(());
                    }
                    for p in &posts {
                        self.last_seen = self.last_seen.max(p.id);
                        *seen += 1;
                        sink(&p.author, observer_now);
                    }
                }
                Response::Error { reason } => return Err(ForumError::Protocol { reason }),
                _ => {
                    return Err(ForumError::Protocol {
                        reason: "unexpected response to NewPosts".into(),
                    })
                }
            }
        }
    }

    /// Runs the monitor from `from` to `to` polling every `interval_secs`,
    /// accumulating self-timestamped traces (already in observer UTC).
    ///
    /// The same session as
    /// [`resume_run_batched`](Monitor::resume_run_batched), started at
    /// this monitor's own cursor, recording every batch and discarding
    /// the checkpoint on failure.
    pub fn run(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        interval_secs: i64,
    ) -> Result<TraceSet, ForumError> {
        let observer = self.link.observer();
        let _s = crowdtz_obs::span!(observer, "monitor.run");
        let mut traces = TraceSet::default();
        let cp = self.fresh_checkpoint();
        self.session(from, to, interval_secs, cp, |_, batch, _| {
            for (author, ts) in batch {
                traces.record(author, *ts);
            }
            true
        })
        .map_err(|interrupted| interrupted.error)?;
        Ok(traces)
    }

    /// Runs the monitor over the same window, but delivers each poll's
    /// observations to `sink` as one batch of `(author, observed time)`
    /// instead of accumulating a [`TraceSet`].
    ///
    /// This is the natural feed for the sharded streaming engine: hand
    /// every batch to `crowdtz_core::StreamingPipeline::ingest_posts`,
    /// which routes the whole poll across accumulator shards in one
    /// concurrent pass, then snapshot between rounds. Empty polls are
    /// not delivered. The same session as [`run`](Monitor::run), without
    /// its span.
    pub fn run_batched(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        interval_secs: i64,
        mut sink: impl FnMut(&[(String, Timestamp)]),
    ) -> Result<(), ForumError> {
        let cp = self.fresh_checkpoint();
        self.session(from, to, interval_secs, cp, |_, batch, _| {
            sink(batch);
            true
        })
        .map_err(|interrupted| interrupted.error)
    }

    /// Runs (or resumes) a monitoring session delivering each non-empty
    /// poll as one batch tagged with a monotonically increasing **batch
    /// sequence number**, together with the checkpoint describing the
    /// session *after* that batch.
    ///
    /// This is the durable streaming feed. The sequence number closes
    /// the restart gap: persist it *with* the batch (e.g. hand both to
    /// `crowdtz_core::IngestWriter::ingest_batch` on an engine opened
    /// with `ConcurrentStreamingPipeline::open_durable`, which stores the
    /// serialized checkpoint in the same log record as the batch) and a
    /// killed session restarted from a recovered — possibly stale —
    /// checkpoint re-delivers the boundary batch with its original
    /// sequence number, so the consumer drops it by comparison instead
    /// of double-counting it.
    ///
    /// The checkpoint sets this monitor's cursor, rewinding it past
    /// anything never delivered as a batch. On a fault, the returned
    /// checkpoint — and the monitor's own cursor — rewind to the last
    /// *delivered* batch, so observations buffered in a partially polled
    /// batch are re-polled on resume rather than lost; its schedule keeps
    /// every empty poll made since, so each resume makes progress. The
    /// sink returns `true` to continue; `false` ends the session cleanly
    /// after the current batch (for consumers whose own persistence
    /// failed — resume later from the checkpoint they last managed to
    /// store).
    // As with `Scraper::resume_dump`: the Err variant carries the
    // checkpoint by value on purpose.
    #[allow(clippy::result_large_err)]
    pub fn resume_run_batched(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        interval_secs: i64,
        checkpoint: MonitorCheckpoint,
        sink: impl FnMut(u64, &[(String, Timestamp)], &MonitorCheckpoint) -> bool,
    ) -> Result<(), MonitorInterrupted> {
        let observer = self.link.observer();
        let _s = crowdtz_obs::span!(observer, "monitor.run");
        if let Some(obs) = &observer {
            if checkpoint.last_seen > PostId(0) || checkpoint.next_poll.is_some() {
                obs.counter("monitor.resumes").inc();
            }
        }
        self.session(from, to, interval_secs, checkpoint, sink)
    }

    /// A checkpoint that starts a session at this monitor's own cursor,
    /// so a monitor reused for the next window does not re-deliver what
    /// an earlier session saw.
    fn fresh_checkpoint(&self) -> MonitorCheckpoint {
        MonitorCheckpoint {
            last_seen: self.last_seen,
            ..MonitorCheckpoint::start()
        }
    }

    /// The one poll loop behind every session: a fast-forward past
    /// everything that predates `from`, then one poll per interval, the
    /// last clamped to `to` so no post inside (previous poll, `to`] is
    /// missed.
    fn session(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        interval_secs: i64,
        mut cp: MonitorCheckpoint,
        mut sink: impl FnMut(u64, &[(String, Timestamp)], &MonitorCheckpoint) -> bool,
    ) -> Result<(), MonitorInterrupted> {
        let interval = interval_secs.max(1);
        // Rewind — never fast-forward — to the checkpoint: anything this
        // monitor saw beyond it was never delivered as a batch.
        self.last_seen = cp.last_seen;
        let mut t = match cp.next_poll {
            Some(t) => t,
            None => {
                // Safe to redo on resume: discarded ids stay discarded.
                if let Err(error) = self.poll_each(from, |_, _| {}) {
                    return Err(self.rewind(error, cp));
                }
                cp.last_seen = self.last_seen;
                cp.next_poll = Some(from + interval);
                from + interval
            }
        };
        let mut batch: Vec<(String, Timestamp)> = Vec::new();
        while t - interval < to {
            batch.clear();
            let poll = self.poll_each(t.min(to), |author, ts| batch.push((author.to_owned(), ts)));
            if let Err(error) = poll {
                return Err(self.rewind(error, cp));
            }
            t = t + interval;
            // An empty poll leaves the cursor where the last batch put it,
            // so the checkpoint stays exact with only its schedule moved.
            cp.next_poll = Some(t);
            if !batch.is_empty() {
                cp.last_seen = self.last_seen;
                cp.batch_seq += 1;
                if !sink(cp.batch_seq, &batch, &cp) {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Rewinds the cursor to `checkpoint`, the last delivered batch, so a
    /// partly finished poll is polled again on resume.
    fn rewind(&mut self, error: ForumError, checkpoint: MonitorCheckpoint) -> MonitorInterrupted {
        self.last_seen = checkpoint.last_seen;
        MonitorInterrupted { error, checkpoint }
    }
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("address", &self.link.address())
            .field("last_seen", &self.last_seen)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::ForumHost;
    use crate::protocol::TimestampPolicy;
    use crate::simulate::SimulatedForum;
    use crate::spec::{CrowdComponent, ForumSpec};
    use crowdtz_time::CivilDateTime;
    use crowdtz_tor::{Fault, FaultPlan, FaultRates, TorNetwork};

    type DeliveredBatch = (u64, Vec<(String, Timestamp)>, MonitorCheckpoint);

    fn forum_spec(offset_secs: i64, policy: TimestampPolicy) -> ForumSpec {
        ForumSpec::new("Test Forum", vec![CrowdComponent::new("italy", 1.0)], 8)
            .seed(42)
            .server_offset_secs(offset_secs)
            .policy(policy)
    }

    fn connect(spec: &ForumSpec) -> (Scraper, SimulatedForum) {
        let (scraper, forum, _) = connect_faulty(spec, FaultRates::none());
        (scraper, forum)
    }

    fn connect_faulty(
        spec: &ForumSpec,
        rates: FaultRates,
    ) -> (Scraper, SimulatedForum, TorNetwork) {
        let forum = SimulatedForum::generate(spec);
        let host = ForumHost::new(forum.clone()).page_size(25);
        let mut net = TorNetwork::with_relays(30, 5);
        net.set_fault_plan(FaultPlan::new(9, rates));
        let addr = net.publish(host.into_hidden_service(1)).unwrap();
        let channel = net.connect(&addr, 2).unwrap();
        (Scraper::new(channel), forum, net)
    }

    fn end_of_2016() -> Timestamp {
        Timestamp::from_civil_utc(CivilDateTime::new(2017, 1, 15, 0, 0, 0).unwrap())
    }

    #[test]
    fn calibration_measures_offset_exactly() {
        for offset in [-25_200i64, 0, 3_600, 12_345 - 45 /* quarter-ish */] {
            let (mut scraper, _) = connect(&forum_spec(offset, TimestampPolicy::Visible));
            let report = scraper.calibrate(end_of_2016()).unwrap();
            assert_eq!(report.offset_secs, offset);
        }
    }

    #[test]
    fn calibration_fails_on_hidden_timestamps() {
        let (mut scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        assert!(matches!(
            scraper.calibrate(end_of_2016()),
            Err(ForumError::TimestampsHidden)
        ));
    }

    #[test]
    fn dump_recovers_ground_truth_after_calibration() {
        let (mut scraper, forum) = connect(&forum_spec(7_200, TimestampPolicy::Visible));
        let report = scraper.calibrated_dump(end_of_2016()).unwrap();
        assert_eq!(report.posts_seen(), forum.post_count());
        assert_eq!(report.hidden_posts(), 0);
        assert_eq!(*report.utc_traces(), forum.ground_truth());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.threads_completed(), report.threads_total());
        assert!(report.pages_crawled() >= report.threads_total());
    }

    #[test]
    fn utc_traces_borrows_when_unshifted() {
        let (mut scraper, _) = connect(&forum_spec(0, TimestampPolicy::Visible));
        let report = scraper.dump().unwrap();
        assert!(matches!(report.utc_traces(), Cow::Borrowed(_)));
        let report = report.with_offset(0);
        assert!(matches!(report.utc_traces(), Cow::Borrowed(_)));
        let report = report.with_offset(3_600);
        assert!(matches!(report.utc_traces(), Cow::Owned(_)));
    }

    #[test]
    fn dump_without_calibration_is_shifted() {
        let (mut scraper, forum) = connect(&forum_spec(3_600, TimestampPolicy::Visible));
        let report = scraper.dump().unwrap();
        assert_ne!(*report.utc_traces(), forum.ground_truth());
        assert_eq!(
            report.server_traces().shifted_secs(-3_600),
            forum.ground_truth()
        );
    }

    #[test]
    fn dump_counts_hidden_posts() {
        let (mut scraper, forum) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let report = scraper.dump().unwrap();
        assert_eq!(report.hidden_posts(), forum.post_count());
        assert_eq!(report.server_traces().total_posts(), 0);
        assert!(report.to_string().contains("hidden"));
    }

    #[test]
    fn dump_absorbs_faults_under_default_policy() {
        let (mut scraper, forum, _) = connect_faulty(
            &forum_spec(0, TimestampPolicy::Visible),
            FaultRates::mixed(0.15),
        );
        let report = scraper.dump().unwrap();
        assert_eq!(report.posts_seen(), forum.post_count());
        assert_eq!(report.coverage(), 1.0);
        let stats = report.stats();
        assert!(stats.faults_absorbed > 0, "no faults hit at 15%?");
        assert_eq!(stats.faults_absorbed, stats.retries_spent);
        assert!(stats.backoff_ms > 0);
    }

    #[test]
    fn observer_records_faults_retries_and_coverage() {
        use std::sync::Arc;
        // Same setup as `connect_faulty`, but with an explicit observer
        // attached to both the network (fault counters) and the scraper
        // (retry counters) before the channel is built.
        let spec = forum_spec(0, TimestampPolicy::Visible);
        let forum = SimulatedForum::generate(&spec);
        let host = ForumHost::new(forum).page_size(25);
        let mut net = TorNetwork::with_relays(30, 5);
        let observer = crowdtz_obs::Observer::from_env();
        net.set_observer(Arc::clone(&observer));
        net.set_fault_plan(FaultPlan::new(9, FaultRates::mixed(0.15)));
        let addr = net.publish(host.into_hidden_service(1)).unwrap();
        let mut scraper =
            Scraper::new(net.connect(&addr, 2).unwrap()).observer(Arc::clone(&observer));

        let report = scraper.dump().unwrap();
        assert_eq!(report.coverage(), 1.0);

        let metrics = observer.snapshot();
        let stats = report.stats();
        // The observer saw exactly what the crawl stats recorded.
        assert_eq!(metrics.counters["scrape.requests"], stats.requests);
        assert_eq!(metrics.counters["scrape.retries"], stats.retries_spent);
        assert_eq!(
            metrics.counters["scrape.faults_absorbed"],
            stats.faults_absorbed
        );
        assert_eq!(metrics.counters["scrape.backoff_ms"], stats.backoff_ms);
        assert!(
            metrics.counters["scrape.faults_absorbed"] > 0,
            "15% rate hit nothing?"
        );
        // Every fault the plan injected landed in a per-kind counter.
        assert_eq!(
            metrics.counters["tor.fault.injected"],
            net.faults_injected()
        );
        let per_kind: u64 = Fault::ALL
            .iter()
            .map(|f| metrics.counters[&format!("tor.fault.{f}")])
            .sum();
        assert_eq!(per_kind, metrics.counters["tor.fault.injected"]);
        assert_eq!(metrics.counters["scrape.dumps"], 1);
        assert_eq!(metrics.gauges["scrape.coverage"], 1.0);
    }

    #[test]
    fn interrupted_dump_resumes_to_identical_traces() {
        // Reference run: no faults.
        let (mut clean, _forum) = connect(&forum_spec(0, TimestampPolicy::Visible));
        let reference = clean.dump().unwrap();

        // Chaos run with a fail-fast policy: the first fault interrupts.
        let (scraper, _, net) =
            connect_faulty(&forum_spec(0, TimestampPolicy::Visible), FaultRates::none());
        let mut scraper = scraper.retry_policy(RetryPolicy::none());
        net.force_fault(Fault::Timeout);
        let interrupted = scraper
            .resume_dump(CrawlCheckpoint::start())
            .expect_err("forced fault must interrupt a fail-fast crawl");
        assert!(matches!(
            interrupted.error,
            ForumError::Transport(crowdtz_tor::TorError::RequestTimeout { .. })
        ));
        assert!(!interrupted.checkpoint.is_complete());
        assert!(interrupted.to_string().contains("interrupted"));

        // Serialize/deserialize the checkpoint (as a crawler restart would).
        let blob = serde_json::to_string(&interrupted.checkpoint).unwrap();
        let restored: CrawlCheckpoint = serde_json::from_str(&blob).unwrap();
        assert_eq!(restored, interrupted.checkpoint);

        // Resume: identical result, no double counting.
        let resumed = scraper.resume_dump(restored).unwrap();
        assert_eq!(resumed.posts_seen(), reference.posts_seen());
        assert_eq!(resumed.server_traces(), reference.server_traces());
        assert_eq!(resumed.coverage(), 1.0);
    }

    #[test]
    fn partial_report_reflects_coverage() {
        // Half of all requests time out; fail-fast, so the crawl keeps
        // getting interrupted mid-flight and we resume it each time.
        let rates = FaultRates {
            timeout: 0.5,
            ..FaultRates::none()
        };
        let (scraper, _, _net) = connect_faulty(&forum_spec(0, TimestampPolicy::Visible), rates);
        let mut scraper = scraper.retry_policy(RetryPolicy::none());
        let mut cp = CrawlCheckpoint::start();
        let mut mid_crawl: Option<ScrapeReport> = None;
        let mut tries = 0u32;
        let full = loop {
            tries += 1;
            assert!(tries <= 10_000, "crawl makes no progress");
            match scraper.resume_dump(cp) {
                Ok(report) => break report,
                Err(interrupted) => {
                    let at = &interrupted.checkpoint;
                    if at.threads_total() > 0 && !at.is_complete() {
                        mid_crawl = Some(at.partial_report());
                    }
                    cp = interrupted.checkpoint;
                }
            }
        };
        let partial = mid_crawl.expect("no mid-crawl interruption at 50% timeouts");
        assert_eq!(partial.threads_total(), full.threads_total());
        assert!(partial.coverage() < 1.0);
        assert!(partial.posts_seen() <= full.posts_seen());
        assert_eq!(partial.offset_secs(), None);
        assert_eq!(full.coverage(), 1.0);
    }

    #[test]
    fn monitor_self_timestamps_within_interval() {
        let (scraper, forum) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        // Monitor March 2016 with 30-minute polls.
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 4, 1, 0, 0, 0).unwrap());
        let interval = 1_800;
        let observed = monitor.run(from, to, interval).unwrap();
        // Ground truth in the window.
        let truth: usize = forum
            .posts()
            .iter()
            .filter(|p| p.true_time() > from && p.true_time() <= to)
            .count();
        assert_eq!(observed.total_posts(), truth);
        // Every observed time is within one interval after the true time.
        for trace in observed.iter() {
            for &obs in trace.posts() {
                let matching = forum.posts().iter().any(|p| {
                    p.author() == trace.id()
                        && obs - p.true_time() >= 0
                        && obs - p.true_time() <= interval
                });
                assert!(matching, "no true post within interval of {obs}");
            }
        }
    }

    #[test]
    fn run_batched_delivers_every_observation_in_poll_batches() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let interval = 3_600;

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let reference = scraper.into_monitor().run(from, to, interval).unwrap();

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut batched = TraceSet::default();
        let mut batches = 0usize;
        scraper
            .into_monitor()
            .run_batched(from, to, interval, |batch| {
                assert!(!batch.is_empty(), "empty batches must not be delivered");
                // Each batch is one poll: every observation shares its
                // self-timestamp (the observer clock of that poll).
                let t0 = batch[0].1;
                for (author, ts) in batch {
                    assert_eq!(*ts, t0);
                    batched.record(author, *ts);
                }
                batches += 1;
            })
            .unwrap();
        assert_eq!(batched, reference);
        assert!(batches > 1, "a week of hourly polls must batch many times");
    }

    #[test]
    fn batched_resume_delivers_each_seq_exactly_once_across_interruptions() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let interval = 3_600;

        // Reference: one uninterrupted batched session.
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut reference: Vec<(u64, Vec<(String, Timestamp)>)> = Vec::new();
        scraper
            .into_monitor()
            .resume_run_batched(
                from,
                to,
                interval,
                MonitorCheckpoint::start(),
                |seq, b, cp| {
                    assert_eq!(cp.batch_seq(), seq);
                    reference.push((seq, b.to_vec()));
                    true
                },
            )
            .unwrap();
        assert!(reference.len() > 1);
        let seqs: Vec<u64> = reference.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=reference.len() as u64).collect::<Vec<_>>());

        // Chaos session: fail-fast policy with forced faults, resuming
        // each time from the checkpoint persisted with the last batch,
        // deduping by sequence number.
        let (scraper, _, net) =
            connect_faulty(&forum_spec(0, TimestampPolicy::Hidden), FaultRates::none());
        let mut monitor = scraper.into_monitor().retry_policy(RetryPolicy::none());
        net.force_fault(Fault::Timeout);
        net.force_fault(Fault::Timeout);
        let mut stored = MonitorCheckpoint::start();
        let mut applied: Vec<(u64, Vec<(String, Timestamp)>)> = Vec::new();
        let mut interruptions = 0u32;
        loop {
            // Round-trip the stored checkpoint as a restart would.
            let blob = serde_json::to_string(&stored).unwrap();
            let cp: MonitorCheckpoint = serde_json::from_str(&blob).unwrap();
            let result = monitor.resume_run_batched(from, to, interval, cp, |seq, b, after| {
                let last = applied.last().map_or(0, |(s, _)| *s);
                assert!(seq > last, "monitor re-delivered an applied batch");
                applied.push((seq, b.to_vec()));
                stored = after.clone();
                true
            });
            match result {
                Ok(()) => break,
                Err(interrupted) => {
                    interruptions += 1;
                    assert!(interruptions <= 10, "batched resume makes no progress");
                    assert!(interrupted.to_string().contains("monitor interrupted"));
                    stored = interrupted.checkpoint;
                }
            }
        }
        assert!(interruptions >= 2, "both forced faults should interrupt");
        assert_eq!(applied, reference);

        // Resumed to completion, the session observed what `run` does.
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let traces = scraper.into_monitor().run(from, to, interval).unwrap();
        let mut resumed = TraceSet::default();
        for (author, ts) in applied.iter().flat_map(|(_, b)| b) {
            resumed.record(author, *ts);
        }
        assert_eq!(resumed, traces);
    }

    #[test]
    fn stale_checkpoint_redelivers_the_boundary_batch_with_its_original_seq() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let interval = 3_600;

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut delivered: Vec<DeliveredBatch> = Vec::new();
        scraper
            .into_monitor()
            .resume_run_batched(
                from,
                to,
                interval,
                MonitorCheckpoint::start(),
                |seq, b, cp| {
                    delivered.push((seq, b.to_vec(), cp.clone()));
                    true
                },
            )
            .unwrap();
        assert!(delivered.len() >= 3);

        // A fresh process restarted from a checkpoint one batch behind
        // the consumer's durable state: the boundary batch comes back
        // with its original sequence number and identical content, so a
        // seq compare is all the consumer needs to drop it.
        let k = delivered.len() / 2;
        let stale = delivered[k - 1].2.clone();
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut redelivered: Vec<(u64, Vec<(String, Timestamp)>)> = Vec::new();
        scraper
            .into_monitor()
            .resume_run_batched(from, to, interval, stale, |seq, b, _| {
                redelivered.push((seq, b.to_vec()));
                true
            })
            .unwrap();
        let tail: Vec<(u64, Vec<(String, Timestamp)>)> = delivered[k..]
            .iter()
            .map(|(s, b, _)| (*s, b.clone()))
            .collect();
        assert_eq!(redelivered, tail);
        assert_eq!(redelivered[0].0, delivered[k].0, "boundary keeps its seq");
    }

    #[test]
    fn batched_sink_can_stop_the_session_cleanly() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        let mut stored: Option<MonitorCheckpoint> = None;
        let mut first_leg = 0u64;
        monitor
            .resume_run_batched(from, to, 3_600, MonitorCheckpoint::start(), |seq, _, cp| {
                first_leg = seq;
                stored = Some(cp.clone());
                seq < 2 // stop after the second batch
            })
            .unwrap();
        assert_eq!(first_leg, 2);
        // Resume where the sink stopped: delivery continues at seq 3.
        let mut next = 0u64;
        monitor
            .resume_run_batched(from, to, 3_600, stored.unwrap(), |seq, _, _| {
                if next == 0 {
                    next = seq;
                }
                true
            })
            .unwrap();
        assert_eq!(next, 3);
    }

    #[test]
    fn a_batch_stopped_before_any_checkpoint_was_stored_comes_back() {
        // The consumer failed to persist batch 1, so the checkpoint it
        // last stored is `start()`: the same monitor resumed from it
        // delivers seq 1 again with the same posts.
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        let mut legs = [Vec::new(), Vec::new()];
        for leg in &mut legs {
            let cp = MonitorCheckpoint::start();
            monitor
                .resume_run_batched(from, to, 3_600, cp, |seq, b, _| {
                    leg.push((seq, b.to_vec()));
                    false
                })
                .unwrap();
        }
        assert_eq!(legs[0].len(), 1);
        assert_eq!(legs[1], legs[0]);
    }

    #[test]
    fn monitor_is_incremental() {
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        let t1 = Timestamp::from_civil_utc(CivilDateTime::new(2016, 6, 1, 0, 0, 0).unwrap());
        let first = monitor.poll(t1).unwrap();
        let again = monitor.poll(t1).unwrap();
        assert!(!first.is_empty());
        assert!(again.is_empty(), "second poll must return nothing new");
        assert!(monitor.last_seen() > PostId(0));
    }

    #[test]
    fn monitor_retries_absorb_faults() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let reference = scraper.into_monitor().run(from, to, 3_600).unwrap();

        // Every entry point on the same seeded channel. Equal stats mean
        // equal requests, which keeps a seeded chaos run replaying; only
        // `run_batched` records no `monitor.run` span.
        let mut stats = Vec::new();
        for (entry, spans) in [("run", 1), ("run_batched", 0), ("resume_run_batched", 1)] {
            let observer = crowdtz_obs::Observer::from_env();
            let (scraper, _, _net) = connect_faulty(
                &forum_spec(0, TimestampPolicy::Hidden),
                FaultRates::mixed(0.10),
            );
            let mut monitor = scraper.observer(observer.clone()).into_monitor();
            let mut batched = TraceSet::default();
            let mut record = |batch: &[(String, Timestamp)]| {
                for (author, ts) in batch {
                    batched.record(author, *ts);
                }
            };
            let observed = match entry {
                "run" => monitor.run(from, to, 3_600).unwrap(),
                "run_batched" => {
                    monitor.run_batched(from, to, 3_600, &mut record).unwrap();
                    batched
                }
                _ => {
                    let cp = MonitorCheckpoint::start();
                    monitor
                        .resume_run_batched(from, to, 3_600, cp, |_, b, _| {
                            record(b);
                            true
                        })
                        .unwrap();
                    batched
                }
            };
            assert_eq!(observed, reference, "{entry}");
            let stages = observer.stage_timings();
            let calls = stages.iter().find(|s| s.name == "monitor.run");
            assert_eq!(calls.map_or(0, |s| s.calls), spans, "{entry}");
            stats.push(monitor.crawl_stats());
        }
        assert!(stats[0].faults_absorbed > 0);
        assert_eq!(stats[1..], [stats[0], stats[0]]);
    }

    #[test]
    fn reused_monitor_delivers_each_post_once_across_windows() {
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let mid = from + 3 * 86_400;
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut whole = scraper.into_monitor();
        let reference = whole.run(from, to, 3_600).unwrap();

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        let mut observed = TraceSet::default();
        for (start, end) in [(from, mid), (mid, to)] {
            monitor
                .run_batched(start, end, 3_600, |batch| {
                    for (author, ts) in batch {
                        observed.record(author, *ts);
                    }
                })
                .unwrap();
        }
        assert_eq!(observed, reference);
        // The second window starts from the monitor's own cursor, so its
        // fast-forward is one empty poll, not a re-read of the forum.
        assert_eq!(
            monitor.crawl_stats().requests,
            whole.crawl_stats().requests + 1
        );
    }

    #[test]
    fn a_fault_rewinds_the_cursor_to_the_last_delivered_batch() {
        // Fail-fast timeouts: some faults land inside a poll that
        // consumed posts it never delivered. Each resume starts from the
        // checkpoint the fault returned and still delivers what `run`
        // observes, once.
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let reference = scraper.into_monitor().run(from, to, 3_600).unwrap();
        for timeout in [0.1, 0.3] {
            let rates = FaultRates {
                timeout,
                ..FaultRates::none()
            };
            let (scraper, _, _net) = connect_faulty(&forum_spec(0, TimestampPolicy::Hidden), rates);
            let mut monitor = scraper.into_monitor().retry_policy(RetryPolicy::none());
            let mut cp = MonitorCheckpoint::start();
            let mut observed = TraceSet::default();
            let mut last_seq = 0u64;
            let mut interruptions = 0u32;
            while let Err(interrupted) =
                monitor.resume_run_batched(from, to, 3_600, cp, |seq, b, _| {
                    assert_eq!(seq, last_seq + 1, "a batch was lost or re-delivered");
                    last_seq = seq;
                    for (author, ts) in b {
                        observed.record(author, *ts);
                    }
                    true
                })
            {
                interruptions += 1;
                assert!(interruptions <= 1_000, "monitor resume makes no progress");
                assert_eq!(monitor.last_seen(), interrupted.checkpoint.last_seen());
                cp = interrupted.checkpoint;
            }
            assert!(interruptions > 0);
            assert_eq!(observed, reference, "{timeout}");
        }
    }

    #[test]
    fn checkpoint_with_a_traces_field_still_resumes() {
        // The checkpoint after batch 8 of this session as an earlier
        // release serialized it, with an always-empty `traces` field;
        // durable stores hold such blobs in their log records.
        let blob =
            r#"{"last_seen":124,"next_poll":1457035200,"traces":{"traces":{}},"batch_seq":8}"#;
        let stored: MonitorCheckpoint = serde_json::from_str(blob).unwrap();
        let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
        let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());

        let (scraper, _) = connect(&forum_spec(0, TimestampPolicy::Hidden));
        let mut monitor = scraper.into_monitor();
        let mut delivered: Vec<DeliveredBatch> = Vec::new();
        monitor
            .resume_run_batched(from, to, 3_600, MonitorCheckpoint::start(), |seq, b, cp| {
                delivered.push((seq, b.to_vec(), cp.clone()));
                true
            })
            .unwrap();
        assert_eq!(delivered[7].2, stored);
        assert!(!serde_json::to_string(&stored).unwrap().contains("traces"));

        // The same monitor, its cursor at the window end: a checkpoint
        // with progress sets the cursor, so everything after it returns.
        let mut resumed: Vec<(u64, Vec<(String, Timestamp)>)> = Vec::new();
        monitor
            .resume_run_batched(from, to, 3_600, stored, |seq, b, _| {
                resumed.push((seq, b.to_vec()));
                true
            })
            .unwrap();
        let tail: Vec<(u64, Vec<(String, Timestamp)>)> = delivered[8..]
            .iter()
            .map(|(s, b, _)| (*s, b.clone()))
            .collect();
        assert_eq!(resumed, tail);
    }

    #[test]
    fn delayed_policy_perturbs_dump() {
        let (mut scraper, forum) = connect(&forum_spec(
            0,
            TimestampPolicy::DelayedUniform {
                max_delay_secs: 6 * 3_600,
            },
        ));
        let report = scraper.dump().unwrap();
        assert_eq!(report.posts_seen(), forum.post_count());
        // Same post multiset cardinality but shifted times.
        assert_ne!(report.server_traces(), &forum.ground_truth());
    }

    #[test]
    fn list_threads_sees_only_public_sections() {
        let forum = SimulatedForum::generate(&ForumSpec::pedo_support().scaled(0.03));
        let sections = forum.spec().section_list().to_vec();
        let host = ForumHost::new(forum);
        let mut net = TorNetwork::with_relays(30, 5);
        let addr = net.publish(host.into_hidden_service(1)).unwrap();
        let mut scraper = Scraper::new(net.connect(&addr, 2).unwrap());
        for t in scraper.list_threads().unwrap() {
            assert!(sections[t.section].is_scrapable());
        }
    }
}
