//! Live concurrent monitoring: N monitors, one shared engine.
//!
//! [`run_concurrent`] is the deployment shape the paper's measurement
//! campaign implies — several monitors (one per mirror, per board, or
//! per time window) scraping in parallel and feeding a single
//! [`ConcurrentStreamingPipeline`]. Each monitor gets its own thread
//! and its own [`IngestWriter`](crowdtz_core::IngestWriter); poll
//! batches route across the engine's shards by user hash, so monitors
//! observing different crowds almost never contend, and a dashboard
//! thread can call
//! [`snapshot`](ConcurrentStreamingPipeline::snapshot) throughout
//! without slowing the crawl down.
//!
//! Determinism carries over from the engine: once every monitor has
//! finished, a [`publish`](ConcurrentStreamingPipeline::publish) is
//! byte-identical to feeding the same polls through one sequential
//! `StreamingPipeline` — regardless of how the threads interleaved.
//!
//! ```no_run
//! use crowdtz::live::run_concurrent;
//! use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline};
//! # fn monitors() -> Vec<crowdtz_forum::Monitor> { Vec::new() }
//! # fn window() -> (crowdtz_time::Timestamp, crowdtz_time::Timestamp) { todo!() }
//!
//! let engine = ConcurrentStreamingPipeline::new(GeolocationPipeline::default());
//! let mut fleet = monitors();
//! let (from, to) = window();
//! run_concurrent(&engine, &mut fleet, from, to, 3_600).unwrap();
//! let report = engine.publish().unwrap().report().clone();
//! ```

use std::fmt;
use std::sync::Arc;

use crowdtz_core::{ConcurrentStreamingPipeline, CoreError, TenantConfig, TenantError};
use crowdtz_forum::{ForumError, Monitor};
use crowdtz_serve::{serve, ServeConfig, ServerHandle};
use crowdtz_time::Timestamp;

/// What can go wrong while monitors feed the shared engine.
#[derive(Debug)]
pub enum LiveError {
    /// A monitor's scrape failed (transport, protocol, …).
    Forum(ForumError),
    /// The engine rejected an ingest — only possible in durable mode,
    /// when the write-ahead append fails.
    Core(CoreError),
    /// The HTTP service could not bind its socket.
    Serve(std::io::Error),
    /// The forum could not be registered as a tenant.
    Tenant(TenantError),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Forum(e) => write!(f, "monitor failed: {e}"),
            LiveError::Core(e) => write!(f, "ingest failed: {e}"),
            LiveError::Serve(e) => write!(f, "serve failed: {e}"),
            LiveError::Tenant(e) => write!(f, "tenant failed: {e}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Forum(e) => Some(e),
            LiveError::Core(e) => Some(e),
            LiveError::Serve(e) => Some(e),
            LiveError::Tenant(e) => Some(e),
        }
    }
}

impl From<ForumError> for LiveError {
    fn from(e: ForumError) -> LiveError {
        LiveError::Forum(e)
    }
}

impl From<CoreError> for LiveError {
    fn from(e: CoreError) -> LiveError {
        LiveError::Core(e)
    }
}

/// Runs every monitor over `[from, to]` on its own thread, feeding one
/// shared engine. Returns when all monitors finish (or have failed).
///
/// Each thread registers its own writer, so every poll batch is one
/// gate-read hold (and, in durable mode, one write-ahead log record).
/// A monitor that fails stops scraping; after its first ingest error a
/// writer also stops applying further batches, so the engine never
/// holds state its durable log is missing. Other monitors are *not*
/// interrupted — partial progress from healthy monitors is kept, which
/// matches how a real crawl degrades.
///
/// # Errors
///
/// The first error in monitor order: [`LiveError::Forum`] when a scrape
/// fails, [`LiveError::Core`] when a durable append fails.
pub fn run_concurrent(
    engine: &ConcurrentStreamingPipeline,
    monitors: &mut [Monitor],
    from: Timestamp,
    to: Timestamp,
    interval_secs: i64,
) -> Result<(), LiveError> {
    let outcomes: Vec<Result<(), LiveError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = monitors
            .iter_mut()
            .map(|monitor| {
                let writer = engine.writer();
                scope.spawn(move || -> Result<(), LiveError> {
                    let mut ingest_err: Option<CoreError> = None;
                    monitor.run_batched(from, to, interval_secs, |batch| {
                        if ingest_err.is_none() {
                            if let Err(e) = writer.ingest_posts_ref(batch) {
                                ingest_err = Some(e);
                            }
                        }
                    })?;
                    match ingest_err {
                        Some(e) => Err(e.into()),
                        None => Ok(()),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("monitor thread panicked"))
            .collect()
    });
    outcomes.into_iter().collect()
}

/// Crawls a forum with a monitor fleet, then serves the analysis over
/// HTTP: one tenant named `forum`, its engine fed by [`run_concurrent`],
/// one publish so `GET …/snapshot` answers immediately, and the running
/// [`ServerHandle`] returned for the caller to hold (and eventually
/// [`shutdown`](ServerHandle::shutdown)).
///
/// This is the whole deployment story in one call: the paper's
/// measurement campaign as a monitoring *service* rather than a batch
/// run. New deltas can keep flowing in over `POST …/ingest` after this
/// returns — the initial crawl is just the warm-up corpus.
///
/// # Errors
///
/// [`LiveError::Serve`] when the bind fails, [`LiveError::Tenant`] when
/// the forum name is rejected, plus everything [`run_concurrent`] can
/// return. An engine with no placeable users yet publishes nothing
/// (snapshot stays 404) but is not an error.
pub fn serve_monitors(
    config: ServeConfig,
    forum: &str,
    tenant: TenantConfig,
    monitors: &mut [Monitor],
    from: Timestamp,
    to: Timestamp,
    interval_secs: i64,
) -> Result<ServerHandle, LiveError> {
    let handle = serve(config, None).map_err(LiveError::Serve)?;
    let observer = Arc::clone(handle.service().observer());
    let tenant = handle
        .service()
        .registry()
        .create(forum, tenant, Some(observer))
        .map_err(LiveError::Tenant)?;
    run_concurrent(tenant.engine(), monitors, from, to, interval_secs)?;
    // Windowed tenants publish through the window front so the crawl's
    // first cut already expires stale buckets and seeds the trajectory.
    let cut = match tenant.window() {
        Some(window) => window.publish(),
        None => tenant.engine().publish(),
    };
    match cut {
        Ok(_) | Err(CoreError::EmptyCrowd | CoreError::InsufficientActivity { .. }) => Ok(handle),
        Err(e) => Err(LiveError::Core(e)),
    }
}
