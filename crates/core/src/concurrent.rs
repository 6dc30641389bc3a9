//! Concurrent multi-writer ingestion with snapshot reads that never touch
//! the batch gate or a shard lock.
//!
//! [`ConcurrentStreamingPipeline`] fronts one [`StreamingPipeline`] with
//! the locking the ROADMAP's "serve it" item calls for: many `Monitor`s
//! (or any producer threads) feed one shared engine through
//! [`IngestWriter`] handles, while readers consume published reports
//! without ever touching a lock a writer holds. Three layers, with a
//! strict lock order (DESIGN.md §15):
//!
//! 1. **The batch gate** — an `RwLock` around the engine. Writers hold
//!    the *read* side for exactly one batch, so any number of writers
//!    ingest simultaneously; [`publish`](ConcurrentStreamingPipeline::publish)
//!    takes the *write* side, which is a consistent cut: every batch is
//!    either fully applied or not yet started when the snapshot runs.
//! 2. **Per-shard mutexes** (`shard.rs`) — inside the read gate, every
//!    writer batch, ingest or retraction, is one signed call to the
//!    engine's one write path: it routes users by the stable FNV hash
//!    and locks **one shard at a time**, so writers touching different
//!    shards never contend, and the lock order (gate → WAL → one shard)
//!    is trivially cycle-free.
//! 3. **The published slot** — one `RwLock<Option<Arc<…>>>`, replaced
//!    by the publisher under the write gate.
//!    [`snapshot`](ConcurrentStreamingPipeline::snapshot) clones the
//!    newest published `Arc` under the slot's read side without
//!    acquiring the gate or a shard lock: readers never block writers,
//!    writers never block readers, and a reader waits at most for a
//!    publisher's `Arc` swap.
//!
//! # Determinism under concurrency
//!
//! Published reports are **byte-identical** (through `serde_json`) to
//! the single-owner `&mut` path fed the same cumulative deltas, for any
//! writer count × shard count × grid, with or without durability.
//! The argument, pinned by `tests/concurrent_determinism.rs`:
//!
//! * A delta is a slot-set union plus integer adds
//!   (`UserAccumulator::absorb`), so deltas **commute** — the final
//!   accumulator state does not depend on the interleaving.
//! * Refresh drains dirty ids in **globally sorted order** — the merge
//!   order is fixed, not arrival order.
//! * Everything downstream of the accumulators (profiles, placements,
//!   zone counts, fits) is a pure function of that state. The engine
//!   places dirty users through the same batch kernel as the sequential
//!   engine, only inside
//!   [`publish`](ConcurrentStreamingPipeline::publish) under the write
//!   gate — so even the placement counters are a pure function of the
//!   published cuts.
//!
//! Additionally, each writer carries a monotonic **watermark** (batches
//! fully applied), bumped *inside* its gate hold. A publish captures the
//! watermark vector under the write gate, so every published report
//! names the exact per-writer batch prefix it reflects — which is what
//! makes the snapshot-during-ingest consistency property testable:
//! replaying exactly those prefixes sequentially reproduces the report
//! byte for byte.
//!
//! # Durable mode
//!
//! [`ConcurrentStreamingPipeline::open_durable`] recovers snapshot + log
//! suffix (`durable.rs`), then keeps the store behind a WAL mutex
//! *inside* the gate. A writer's batch is appended and fsynced under
//! gate-read + WAL-lock *before* the shard apply; a monitor batch
//! ([`IngestWriter::ingest_batch`]) also carries its sequence number and
//! checkpoint, and a re-delivered one is dropped under the same lock.
//! A windowed cut (`window.rs`) releases expired slots under the write
//! gate and journals its cutoff first, as one record.
//! Snapshot rotation runs only under the write gate — at a publish once
//! the log has passed 1 MiB, and on
//! [`checkpoint_now`](ConcurrentStreamingPipeline::checkpoint_now) — so
//! at rotation the in-memory state equals the logged state exactly.
//!
//! ```
//! use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline};
//! use crowdtz_time::Timestamp;
//!
//! let engine = ConcurrentStreamingPipeline::new(
//!     GeolocationPipeline::default().min_posts(1).threads(1),
//! );
//! std::thread::scope(|scope| {
//!     for w in 0..4 {
//!         let writer = engine.writer();
//!         scope.spawn(move || {
//!             for day in 0..10i64 {
//!                 let post = Timestamp::from_secs(day * 86_400 + 20 * 3_600);
//!                 writer.ingest(&format!("u{w}"), &[post]).unwrap();
//!             }
//!         });
//!     }
//! });
//! let published = engine.publish().unwrap();
//! assert_eq!(published.report().profiles().len(), 4);
//! // Read the newest published report, without the batch gate:
//! assert_eq!(engine.snapshot().unwrap().epoch(), published.epoch());
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crowdtz_store::{DurableStore, RealVfs, Vfs};
use crowdtz_time::Timestamp;

use crate::durable::{build_snapshot_parts, encode_batch, encode_expiry, recover};
use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::shard::{post_key, SharedIngestObs};
use crate::streaming::{singles, StreamingPipeline};

/// Bucket bounds for the `ingest.lock_wait_ns` histogram: nanoseconds a
/// writer spent blocked on a contended gate or shard lock, from "one
/// cache miss" to "someone held the write gate through a full refresh".
const LOCK_WAIT_BOUNDS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Reacquire helpers with the workspace poisoning policy: all state
/// behind these locks is either plain data updated batch-atomically or
/// re-derivable, so a panicked former holder is survivable.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Observability handles, resolved once so the per-batch cost is an
/// atomic add per metric, not a registry lookup.
#[derive(Debug)]
struct ConcurrentObs {
    /// Shard-level handles threaded into `ShardSet::apply`.
    shared: SharedIngestObs,
    /// `ingest.gate_contention`: batch-gate acquisitions that blocked
    /// (a publish was running or pending).
    gate_contention: crowdtz_obs::Counter,
    /// `ingest.batches`: writer batches fully applied.
    batches: crowdtz_obs::Counter,
    /// `ingest.publishes`: reports published.
    publishes: crowdtz_obs::Counter,
    /// `ingest.writers`: currently registered [`IngestWriter`] handles.
    writers: crowdtz_obs::Gauge,
}

impl ConcurrentObs {
    fn new(observer: &crowdtz_obs::Observer) -> ConcurrentObs {
        ConcurrentObs {
            shared: SharedIngestObs {
                lock_wait: observer.histogram("ingest.lock_wait_ns", LOCK_WAIT_BOUNDS),
                shard_contention: observer.counter("ingest.shard_contention"),
            },
            gate_contention: observer.counter("ingest.gate_contention"),
            batches: observer.counter("ingest.batches"),
            publishes: observer.counter("ingest.publishes"),
            writers: observer.gauge("ingest.writers"),
        }
    }
}

/// The durable half of the engine, serialized behind its own mutex
/// *inside* the gate: appends from concurrent writers interleave at
/// batch granularity (each record is one writer's whole batch), exactly
/// the granularity recovery replays.
#[derive(Debug)]
struct Wal {
    store: DurableStore,
    /// Highest monitor batch sequence applied (0 before any) — carried
    /// through recovery and into rotated snapshot metas.
    source_seq: u64,
    /// Monitor checkpoint blob valid as of the current state.
    checkpoint: Option<String>,
}

/// Everything the batch gate guards. Writers reach `stream` through a
/// shared reference (its `apply` locks per shard); the publisher's
/// write guard gives the `&mut` that `snapshot()` needs.
#[derive(Debug)]
struct Engine {
    stream: StreamingPipeline,
    wal: Option<Mutex<Wal>>,
}

impl Engine {
    /// The one rotation rule (write gate held): when `force`d, or once
    /// the store says the log is due, write a generation of the current
    /// state and compact the log. `None`: not durable, or not due.
    fn rotate(&mut self, force: bool) -> Result<Option<u64>, CoreError> {
        let Engine { stream, wal } = self;
        let Some(wal) = wal else {
            return Ok(None);
        };
        let wal = wal.get_mut().unwrap_or_else(PoisonError::into_inner);
        if !force && !wal.store.should_snapshot() {
            return Ok(None);
        }
        let parts = build_snapshot_parts(stream, wal.source_seq, wal.checkpoint.as_deref());
        let last_seq = wal.store.last_seq();
        Ok(Some(wal.store.write_snapshot(last_seq, &parts)?))
    }

    /// Releases every slot older than the window (write gate held). The
    /// cutoff is `window_buckets − 1` buckets before the bucket of the
    /// newest live slot; when a slot lies below it, a durable engine
    /// journals the cutoff before the release.
    fn expire(&mut self, span: WindowSpan) -> Result<Expiry, CoreError> {
        let Some((oldest, newest)) = self.stream.shards_mut_ref().live_slot_range() else {
            return Ok(Expiry::default());
        };
        let newest_bucket = newest.div_euclid(span.bucket_hours);
        let cutoff = newest_bucket
            .saturating_sub(span.window_buckets - 1)
            .saturating_mul(span.bucket_hours);
        let mut expiry = Expiry {
            newest_bucket: Some(newest_bucket),
            ..Expiry::default()
        };
        if oldest >= cutoff {
            return Ok(expiry);
        }
        if let Some(wal) = &mut self.wal {
            let wal = wal.get_mut().unwrap_or_else(PoisonError::into_inner);
            wal.store.append_delta(&encode_expiry(cutoff))?;
        }
        let mut buckets = BTreeSet::new();
        expiry.posts = self.stream.shards_mut_ref().release_below(cutoff, |slot| {
            buckets.insert(slot.div_euclid(span.bucket_hours));
        });
        expiry.buckets = buckets.len();
        Ok(expiry)
    }
}

/// The window a windowed cut expires against, in hour slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSpan {
    /// Hour slots per bucket (≥ 1).
    pub(crate) bucket_hours: i64,
    /// Buckets kept live (≥ 1).
    pub(crate) window_buckets: i64,
}

/// What a windowed cut released.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Expiry {
    /// The bucket of the newest live slot at the cut; `None` while the
    /// engine holds no post.
    pub(crate) newest_bucket: Option<i64>,
    /// Posts released.
    pub(crate) posts: usize,
    /// Distinct buckets that lost slots.
    pub(crate) buckets: usize,
}

/// One published snapshot: the report plus the exact cut it reflects.
#[derive(Debug)]
pub struct PublishedReport {
    report: GeolocationReport,
    epoch: u64,
    watermarks: Vec<u64>,
    posts_ingested: usize,
    /// The refresh generation that last wrote each kept entry, parallel
    /// to the report's profiles and placements.
    stamps: Arc<Vec<u64>>,
    /// The engine's refresh generation at the cut.
    generation: u64,
}

impl PublishedReport {
    /// The geolocation report, byte-identical to the single-owner path
    /// fed the same per-writer batch prefixes (see the module docs).
    pub fn report(&self) -> &GeolocationReport {
        &self.report
    }

    /// Publication epoch: 1 for the first publish, monotonically
    /// increasing.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Batches fully applied per registered writer (in registration
    /// order) at the moment of the cut — the exact prefix this report
    /// reflects. Writers registered after this publish are absent.
    pub fn watermarks(&self) -> &[u64] {
        &self.watermarks
    }

    /// Total posts ingested (duplicates included) at the cut.
    pub fn posts_ingested(&self) -> usize {
        self.posts_ingested
    }

    /// The refresh generation that last wrote each kept user's entry, in
    /// the order of the report's profiles: an entry stamped at or before
    /// generation `g` is unchanged since the engine's report at `g`.
    pub(crate) fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The engine's refresh generation at the cut.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

/// State shared by the pipeline handle and every writer.
#[derive(Debug)]
struct Shared {
    gate: RwLock<Engine>,
    /// The newest published report, `None` before the first publish.
    /// Replaced only under the write gate; a reader holds its read side
    /// for one `Arc` clone and never touches the gate or a shard lock.
    published: RwLock<Option<Arc<PublishedReport>>>,
    /// Per-writer applied-batch watermarks, in registration order. The
    /// vector only grows — a dropped writer's watermark stays, so
    /// published watermark vectors keep their indices stable.
    writers: Mutex<Vec<Arc<AtomicU64>>>,
    /// Currently live writer handles (for the `ingest.writers` gauge).
    active_writers: AtomicUsize,
    obs: Option<ConcurrentObs>,
}

impl Shared {
    /// A writer's gate acquisition: uncontended `try_read` fast path;
    /// on contention (a publish holds or awaits the write side), count
    /// it and record the wait in `ingest.lock_wait_ns`.
    fn enter_batch(&self) -> RwLockReadGuard<'_, Engine> {
        match self.gate.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                let started = self.obs.as_ref().map(|obs| {
                    obs.gate_contention.inc();
                    Instant::now()
                });
                let guard = read_lock(&self.gate);
                if let (Some(obs), Some(t0)) = (&self.obs, started) {
                    obs.shared
                        .lock_wait
                        .observe(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                guard
            }
        }
    }
}

/// A concurrent, multi-writer front for the streaming engine. See the
/// module docs for the locking and determinism model. Cheap to share:
/// the handle itself is an `Arc` around the shared state, and
/// [`writer`](Self::writer) hands out independently owned ingest
/// handles.
#[derive(Debug, Clone)]
pub struct ConcurrentStreamingPipeline {
    shared: Arc<Shared>,
}

/// One writer's handle: every ingest holds the batch gate (read side)
/// for exactly one batch and locks one shard at a time, so writers on
/// different shards proceed in parallel. Dropping the handle
/// unregisters it from the `ingest.writers` gauge; its watermark slot
/// survives so published watermark vectors keep stable indices.
#[derive(Debug)]
pub struct IngestWriter {
    shared: Arc<Shared>,
    watermark: Arc<AtomicU64>,
}

impl ConcurrentStreamingPipeline {
    /// Wraps a configured batch pipeline, exactly as
    /// [`StreamingPipeline::new`].
    pub fn new(pipeline: GeolocationPipeline) -> ConcurrentStreamingPipeline {
        let obs = pipeline.obs().map(|o| ConcurrentObs::new(&o));
        Self::assemble(StreamingPipeline::new(pipeline), None, obs)
    }

    /// Opens (creating if necessary) a **durable** concurrent engine at
    /// `dir`: the newest valid snapshot generation plus the valid log
    /// suffix resume byte-identical to an engine that never crashed,
    /// monitor sequence and checkpoint included. Corrupt generations
    /// are quarantined with fallback to the previous one; a torn log
    /// tail is truncated. Pass the same pipeline configuration across
    /// restarts — the store persists state, not configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when the directory is unusable or a
    /// CRC-valid snapshot or log record fails structural decoding.
    pub fn open_durable(
        pipeline: GeolocationPipeline,
        dir: impl Into<PathBuf>,
    ) -> Result<ConcurrentStreamingPipeline, CoreError> {
        Self::open_durable_with(pipeline, Box::new(RealVfs::new()), dir)
    }

    /// [`open_durable`](Self::open_durable) with an explicit VFS (the
    /// fault-injection hook).
    ///
    /// # Errors
    ///
    /// As [`open_durable`](Self::open_durable).
    pub fn open_durable_with(
        pipeline: GeolocationPipeline,
        vfs: Box<dyn Vfs>,
        dir: impl Into<PathBuf>,
    ) -> Result<ConcurrentStreamingPipeline, CoreError> {
        let obs = pipeline.obs().map(|o| ConcurrentObs::new(&o));
        let (stream, store, source_seq, checkpoint) = recover(pipeline, vfs, dir.into())?;
        Ok(Self::assemble(
            stream,
            Some(Wal {
                store,
                source_seq,
                checkpoint,
            }),
            obs,
        ))
    }

    fn assemble(
        stream: StreamingPipeline,
        wal: Option<Wal>,
        obs: Option<ConcurrentObs>,
    ) -> ConcurrentStreamingPipeline {
        ConcurrentStreamingPipeline {
            shared: Arc::new(Shared {
                gate: RwLock::new(Engine {
                    stream,
                    wal: wal.map(Mutex::new),
                }),
                published: RwLock::new(None),
                writers: Mutex::new(Vec::new()),
                active_writers: AtomicUsize::new(0),
                obs,
            }),
        }
    }

    /// Registers a new writer. Handles are independent: each may live on
    /// its own thread, and any number may ingest simultaneously.
    pub fn writer(&self) -> IngestWriter {
        let watermark = Arc::new(AtomicU64::new(0));
        relock(&self.shared.writers).push(Arc::clone(&watermark));
        let live = self.shared.active_writers.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(obs) = &self.shared.obs {
            obs.writers.set(live as f64);
        }
        IngestWriter {
            shared: Arc::clone(&self.shared),
            watermark,
        }
    }

    /// Publishes a fresh report and returns it.
    ///
    /// Takes the write gate — a **consistent cut**: every writer batch
    /// is fully applied or not yet started, and the per-writer
    /// watermarks captured here name exactly the applied prefixes. In
    /// durable mode the log is rotated here once it has outgrown its
    /// threshold — whether or not the report succeeds.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyCrowd`] when no user survives the filters.
    /// * [`CoreError::Stats`] when a fit fails.
    /// * [`CoreError::Store`] when a due rotation fails.
    pub fn publish(&self) -> Result<Arc<PublishedReport>, CoreError> {
        self.publish_with_coverage(1.0)
    }

    /// [`publish`](Self::publish) for a partial crawl — the concurrent
    /// analogue of [`StreamingPipeline::snapshot_with_coverage`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCoverage`] when `coverage` is outside
    ///   `(0, 1]`, plus everything [`publish`](Self::publish) returns.
    pub fn publish_with_coverage(&self, coverage: f64) -> Result<Arc<PublishedReport>, CoreError> {
        self.cut(&mut write_lock(&self.shared.gate), coverage)
    }

    /// A windowed cut: under one write-gate hold, releases every slot
    /// older than `span` (see `window.rs`), then publishes as
    /// [`publish_with_coverage`](Self::publish_with_coverage). Expiry and
    /// cut are one atomic step: no batch lands between them. What was
    /// released comes back even when the report fails.
    pub(crate) fn publish_windowed(
        &self,
        coverage: f64,
        span: WindowSpan,
    ) -> (Expiry, Result<Arc<PublishedReport>, CoreError>) {
        let mut guard = write_lock(&self.shared.gate);
        match guard.expire(span) {
            Ok(expiry) => (expiry, self.cut(&mut guard, coverage)),
            Err(e) => (Expiry::default(), Err(e)),
        }
    }

    /// The body of every publish, write gate held.
    fn cut(&self, guard: &mut Engine, coverage: f64) -> Result<Arc<PublishedReport>, CoreError> {
        // Under the write gate no watermark can move (bumps happen under
        // a read hold), so this vector is the exact cut.
        let watermarks: Vec<u64> = relock(&self.shared.writers)
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        // Rotation reads the store alone: a failed report still rotates.
        let report = guard.stream.snapshot_with_coverage(coverage);
        guard.rotate(false)?;
        let report = report?;
        let posts_ingested = guard.stream.posts_ingested();
        let (stamps, generation) = guard.stream.kept_stamps();
        debug_assert_eq!(stamps.len(), report.profiles().len());
        let mut slot = write_lock(&self.shared.published);
        let published = Arc::new(PublishedReport {
            report,
            epoch: slot.as_ref().map_or(0, |held| held.epoch) + 1,
            watermarks,
            posts_ingested,
            stamps,
            generation,
        });
        // Readers wait for the swap only: the superseded report drops
        // after the slot is released.
        let _superseded = slot.replace(Arc::clone(&published));
        drop(slot);
        if let Some(obs) = &self.shared.obs {
            obs.publishes.inc();
        }
        Ok(published)
    }

    /// The newest published report. This never acquires the batch gate
    /// or a shard lock, so a reader loop cannot slow ingestion down (and
    /// ingestion cannot starve readers); it waits at most for a publish
    /// to swap in its `Arc`. `None` before the first
    /// [`publish`](Self::publish).
    pub fn snapshot(&self) -> Option<Arc<PublishedReport>> {
        read_lock(&self.shared.published).clone()
    }

    /// Writes a durable snapshot generation now (compacting the log),
    /// regardless of the rotation threshold; `Ok(None)` on a
    /// non-durable engine. Takes the write gate, so the persisted
    /// generation equals the in-memory state exactly.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when writing the generation fails.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, CoreError> {
        write_lock(&self.shared.gate).rotate(true)
    }

    /// Highest monitor batch sequence applied (0 before any, and on a
    /// non-durable engine); [`IngestWriter::ingest_batch`] drops batches
    /// at or below it.
    pub fn last_source_seq(&self) -> u64 {
        let guard = read_lock(&self.shared.gate);
        guard.wal.as_ref().map_or(0, |wal| relock(wal).source_seq)
    }

    /// The monitor checkpoint stored with the newest applied batch that
    /// carried one — where to resume the monitor after a restart.
    pub fn source_checkpoint(&self) -> Option<String> {
        let guard = read_lock(&self.shared.gate);
        let wal = relock(guard.wal.as_ref()?);
        wal.checkpoint.clone()
    }

    /// Number of users ever ingested (brief gate-read).
    pub fn users_tracked(&self) -> usize {
        read_lock(&self.shared.gate).stream.users_tracked()
    }

    /// Total posts ingested across all users, duplicates included.
    pub fn posts_ingested(&self) -> usize {
        read_lock(&self.shared.gate).stream.posts_ingested()
    }

    /// Users whose profiles changed since the last refresh.
    pub fn dirty_users(&self) -> usize {
        read_lock(&self.shared.gate).stream.dirty_users()
    }

    /// Number of hash shards the accumulator store is partitioned into.
    pub fn shard_count(&self) -> usize {
        read_lock(&self.shared.gate).stream.shard_count()
    }

    /// Currently registered (not yet dropped) writer handles.
    pub fn active_writers(&self) -> usize {
        self.shared.active_writers.load(Ordering::Relaxed)
    }
}

impl IngestWriter {
    /// Ingests new posts for one user — one batch, one gate hold.
    ///
    /// # Errors
    ///
    /// * [`CoreError::PostOutOfRange`] when a post lies outside the slot
    ///   range; the batch is refused whole, before the write-ahead log.
    /// * [`CoreError::Store`] in durable mode when the write-ahead append
    ///   fails.
    ///
    /// The engine is unchanged in either case.
    pub fn ingest(&self, user: &str, posts: &[Timestamp]) -> Result<(), CoreError> {
        self.apply_batch(&[(user, posts)], false, None).map(drop)
    }

    /// Ingests a batch of single-post observations (the monitor poll
    /// shape) as one batch — one gate hold, one WAL record in durable
    /// mode, one watermark step.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_posts_ref<S: AsRef<str>>(
        &self,
        posts: &[(S, Timestamp)],
    ) -> Result<(), CoreError> {
        self.apply_batch(&singles(posts), false, None).map(drop)
    }

    /// Ingests one monitor batch with its sequence number (≥ 1) and the
    /// checkpoint valid once it is applied, both stored in the batch's
    /// log record. A durable engine drops a batch whose `source_seq` is
    /// not beyond the highest applied (`Ok(false)`), so a monitor
    /// restarted from a stale checkpoint never double-counts; the check,
    /// the append and the bookkeeping share the WAL lock. A non-durable
    /// engine has no restart to dedupe across: it applies the batch and
    /// returns `Ok(true)`. The engine keeps one sequence, so it belongs
    /// to one monitor thread; feed other producers through
    /// [`ingest_posts_ref`](Self::ingest_posts_ref).
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_batch<S: AsRef<str>>(
        &self,
        source_seq: u64,
        posts: &[(S, Timestamp)],
        checkpoint: Option<&str>,
    ) -> Result<bool, CoreError> {
        self.apply_batch(&singles(posts), false, Some((source_seq, checkpoint)))
            .map(|applied| applied.is_some())
    }

    /// Retracts posts for one user — one signed batch, one gate hold,
    /// under exactly the ingest discipline (WAL append first in durable
    /// mode, one shard locked at a time, watermark bumped inside the
    /// hold). Retraction batches count toward the writer's watermark
    /// like any other batch.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn retract(&self, user: &str, posts: &[Timestamp]) -> Result<(), CoreError> {
        self.apply_batch(&[(user, posts)], true, None).map(drop)
    }

    /// Retracts a batch of single-post observations as one signed batch.
    /// Returns how many posts the shards actually released: a post whose
    /// slot holds no live count (never ingested, already retracted or
    /// expired) releases nothing.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn retract_posts_ref<S: AsRef<str>>(
        &self,
        posts: &[(S, Timestamp)],
    ) -> Result<usize, CoreError> {
        self.apply_batch(&singles(posts), true, None)
            .map(|applied| applied.unwrap_or(0))
    }

    /// Ingests a batch of per-user deltas — one gate hold, one WAL
    /// record in durable mode, one watermark step. A batch with no post
    /// is ignored (no gate hold, no watermark step).
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_deltas(&self, deltas: &[(&str, &[Timestamp])]) -> Result<(), CoreError> {
        self.apply_batch(deltas, false, None).map(drop)
    }

    /// The one batch step behind every write of this handle: a signed
    /// batch (with `retract`, a retraction), optionally a monitor batch
    /// whose `source` is its sequence number and checkpoint. A batch
    /// with no post and no `source` is ignored (no gate hold, no WAL
    /// record, no watermark step), and one holding a post outside the
    /// slot range is refused before any of them.
    ///
    /// Lock order: gate (read) → WAL append + fsync (durable mode) →
    /// shards, one at a time → watermark bump → gate release. The
    /// watermark moves only after the batch is fully applied and only
    /// inside the gate hold, which is what makes publish-time watermark
    /// capture an exact cut. Returns the posts applied (for a
    /// retraction, those actually released), or `None` when a durable
    /// engine had already applied that sequence.
    fn apply_batch(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        source: Option<(u64, Option<&str>)>,
    ) -> Result<Option<usize>, CoreError> {
        if source.is_none() && deltas.iter().all(|(_, posts)| posts.is_empty()) {
            return Ok(Some(0));
        }
        for &(user, posts) in deltas {
            if let Some(ts) = posts.iter().find(|&&ts| post_key(ts).is_none()) {
                return Err(CoreError::PostOutOfRange {
                    user: user.to_owned(),
                    secs: ts.as_secs(),
                });
            }
        }
        let guard = self.shared.enter_batch();
        if let Some(wal) = &guard.wal {
            let (seq, checkpoint) = source.unwrap_or((0, None));
            let payload = encode_batch(seq, checkpoint, deltas, retract);
            let mut wal = relock(wal);
            if source.is_some() && seq <= wal.source_seq {
                return Ok(None);
            }
            wal.store.append_delta(&payload)?;
            if source.is_some() {
                wal.source_seq = seq;
                if let Some(checkpoint) = checkpoint {
                    wal.checkpoint = Some(checkpoint.to_owned());
                }
            }
        }
        let obs = self.shared.obs.as_ref().map(|o| &o.shared);
        let applied = guard.stream.apply(deltas, retract, 1, obs);
        if let Some(obs) = &self.shared.obs {
            obs.batches.inc();
        }
        self.watermark.fetch_add(1, Ordering::Release);
        drop(guard);
        Ok(Some(applied))
    }

    /// Batches this writer has fully applied — its own watermark.
    pub fn batches_applied(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }
}

impl Drop for IngestWriter {
    fn drop(&mut self) {
        let live = self
            .shared
            .active_writers
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        if let Some(obs) = &self.shared.obs {
            obs.writers.set(live as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> GeolocationPipeline {
        GeolocationPipeline::default().min_posts(1).threads(1)
    }

    fn posts_for(day0: i64, hour: u8, n: usize) -> Vec<Timestamp> {
        (0..n as i64)
            .map(|d| Timestamp::from_secs((day0 + d) * 86_400 + i64::from(hour) * 3_600))
            .collect()
    }

    #[test]
    fn snapshot_is_none_before_first_publish_and_latest_after() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        assert!(engine.snapshot().is_none());
        let writer = engine.writer();
        writer.ingest("a", &posts_for(0, 20, 12)).unwrap();
        let p1 = engine.publish().unwrap();
        assert_eq!(p1.epoch(), 1);
        assert_eq!(engine.snapshot().unwrap().epoch(), 1);
        writer.ingest("b", &posts_for(0, 9, 12)).unwrap();
        let p2 = engine.publish().unwrap();
        assert_eq!(p2.epoch(), 2);
        assert_eq!(engine.snapshot().unwrap().epoch(), 2);
        // Old Arcs stay valid after being superseded.
        assert_eq!(p1.report().profiles().len(), 1);
        assert_eq!(p2.report().profiles().len(), 2);
    }

    #[test]
    fn concurrent_writers_match_the_single_owner_path() {
        let traces: Vec<(String, Vec<Timestamp>)> = (0..24)
            .map(|i| {
                (
                    format!("u{i:02}"),
                    posts_for(i % 5, (i * 3 % 24) as u8, 8 + i as usize % 7),
                )
            })
            .collect();
        let mut reference = StreamingPipeline::new(pipeline());
        for (user, posts) in &traces {
            reference.ingest(user, posts);
        }
        let expected = serde_json::to_string(&reference.snapshot().unwrap()).unwrap();

        let engine = ConcurrentStreamingPipeline::new(pipeline());
        std::thread::scope(|scope| {
            for chunk in traces.chunks(6) {
                let writer = engine.writer();
                scope.spawn(move || {
                    for (user, posts) in chunk {
                        writer.ingest(user, posts).unwrap();
                    }
                });
            }
        });
        let published = engine.publish().unwrap();
        assert_eq!(serde_json::to_string(published.report()).unwrap(), expected);
        assert_eq!(published.watermarks().iter().sum::<u64>(), 24);
    }

    #[test]
    fn watermarks_name_the_published_cut() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let w0 = engine.writer();
        let w1 = engine.writer();
        w0.ingest("a", &posts_for(0, 20, 10)).unwrap();
        w0.ingest("b", &posts_for(0, 21, 10)).unwrap();
        w1.ingest("c", &posts_for(0, 3, 10)).unwrap();
        let published = engine.publish().unwrap();
        assert_eq!(published.watermarks(), &[2, 1]);
        assert_eq!(w0.batches_applied(), 2);
        assert_eq!(w1.batches_applied(), 1);
        // A writer registered after the publish is absent from it.
        let _w2 = engine.writer();
        assert_eq!(published.watermarks().len(), 2);
        assert_eq!(engine.active_writers(), 3);
    }

    #[test]
    fn dropped_writers_keep_their_watermark_index() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let w0 = engine.writer();
        w0.ingest("a", &posts_for(0, 20, 10)).unwrap();
        drop(w0);
        assert_eq!(engine.active_writers(), 0);
        let w1 = engine.writer();
        w1.ingest("b", &posts_for(0, 9, 10)).unwrap();
        let published = engine.publish().unwrap();
        // Index 0 is the dropped writer, index 1 the live one.
        assert_eq!(published.watermarks(), &[1, 1]);
    }

    #[test]
    fn empty_batches_hold_nothing_and_move_nothing() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let writer = engine.writer();
        writer.ingest("ghost", &[]).unwrap();
        writer.ingest_posts_ref::<&str>(&[]).unwrap();
        writer.ingest_deltas(&[("ghost", &[])]).unwrap();
        assert_eq!(writer.batches_applied(), 0);
        assert_eq!(engine.users_tracked(), 0);
        assert!(matches!(engine.publish(), Err(CoreError::EmptyCrowd)));
    }

    #[test]
    fn readers_see_published_reports_while_writers_ingest() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        engine
            .writer()
            .ingest("seed", &posts_for(0, 20, 10))
            .unwrap();
        let first = engine.publish().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            let stop_ref = &stop;
            scope.spawn(move || {
                for i in 0..40 {
                    let writer = engine_ref.writer();
                    writer
                        .ingest(&format!("w{i}"), &posts_for(i, (i % 24) as u8, 6))
                        .unwrap();
                    if i % 8 == 7 {
                        engine_ref.publish().unwrap();
                    }
                }
                stop_ref.store(true, Ordering::Release);
            });
            // Reader loop: every observed report is a fully published
            // epoch ≥ the first one, never torn, never blocking.
            let mut last_epoch = 0u64;
            while !stop.load(Ordering::Acquire) {
                let report = engine.snapshot().expect("published before loop");
                assert!(report.epoch() >= first.epoch());
                assert!(report.epoch() >= last_epoch, "epochs are monotonic");
                last_epoch = report.epoch();
                // The seed batch carried 10 posts, every later batch 6:
                // watermarks and post totals must describe the same cut.
                let batches = report.watermarks().iter().sum::<u64>() as usize;
                assert_eq!(report.posts_ingested(), 10 + 6 * (batches - 1));
            }
        });
    }

    #[test]
    fn concurrent_retraction_matches_the_single_owner_path() {
        // Ingest everything, then retract the back half from several
        // writers at once: the published report must equal a single-owner
        // engine fed only the surviving posts.
        let traces: Vec<(String, Vec<Timestamp>)> = (0..18)
            .map(|i| (format!("u{i:02}"), posts_for(i % 4, (i * 5 % 24) as u8, 10)))
            .collect();
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let seed = engine.writer();
        for (user, posts) in &traces {
            seed.ingest(user, posts).unwrap();
        }
        std::thread::scope(|scope| {
            for chunk in traces.chunks(6) {
                let writer = engine.writer();
                scope.spawn(move || {
                    for (user, posts) in chunk {
                        writer.retract(user, &posts[5..]).unwrap();
                    }
                });
            }
        });
        let mut reference = StreamingPipeline::new(pipeline());
        for (user, posts) in &traces {
            reference.ingest(user, &posts[..5]);
        }
        let expected = serde_json::to_string(&reference.snapshot().unwrap()).unwrap();
        let published = engine.publish().unwrap();
        assert_eq!(serde_json::to_string(published.report()).unwrap(), expected);
        // 18 ingest batches + 18 retraction batches, all watermarked.
        assert_eq!(published.watermarks().iter().sum::<u64>(), 36);
    }

    #[test]
    fn publish_with_invalid_coverage_is_rejected() {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        engine.writer().ingest("a", &posts_for(0, 20, 10)).unwrap();
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert!(matches!(
                engine.publish_with_coverage(bad),
                Err(CoreError::InvalidCoverage { .. })
            ));
        }
        assert!(
            engine.snapshot().is_none(),
            "failed publishes publish nothing"
        );
    }

    /// What a checkpoint of `engine` would persist right now.
    fn snapshot_parts(engine: &ConcurrentStreamingPipeline) -> Vec<Vec<u8>> {
        let mut guard = write_lock(&engine.shared.gate);
        let Engine { stream, wal } = &mut *guard;
        let wal = wal.as_mut().expect("durable engine");
        let wal = wal.get_mut().unwrap_or_else(PoisonError::into_inner);
        build_snapshot_parts(stream, wal.source_seq, wal.checkpoint.as_deref())
    }

    #[test]
    fn durable_snapshot_parts_do_not_depend_on_ingest_order() {
        // Ids arrive out of sorted order; the second phase adds posts
        // older than any first-phase post and retracts some first-phase
        // posts.
        let first: Vec<(String, Vec<Timestamp>)> = (0..40)
            .map(|i| {
                let user = format!("user{:02}", i * 17 % 40);
                (
                    user,
                    posts_for(10 + i % 9, (i * 5 % 24) as u8, 2 + i as usize % 4),
                )
            })
            .collect();
        let second: Vec<(String, Vec<Timestamp>)> = first
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, (user, _))| (user.clone(), posts_for(i as i64 % 7, 3, 3)))
            .collect();
        let retracted: Vec<(String, Vec<Timestamp>)> = first
            .iter()
            .skip(1)
            .step_by(4)
            .map(|(user, posts)| (user.clone(), posts[..1].to_vec()))
            .collect();
        let dir = |tag: &str| {
            let dir =
                std::env::temp_dir().join(format!("crowdtz-parts-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let open = |tag: &str| {
            ConcurrentStreamingPipeline::open_durable(pipeline().shards(4), dir(tag)).unwrap()
        };

        let serial = open("serial");
        let writer = serial.writer();
        for (user, posts) in &first {
            writer.ingest(user, posts).unwrap();
        }
        serial.publish().unwrap();
        for (user, posts) in &second {
            writer.ingest(user, posts).unwrap();
        }
        for (user, posts) in &retracted {
            writer.retract(user, posts).unwrap();
        }

        // Three writers, each taking every third delta in reverse order.
        let interleaved = open("interleaved");
        let phase = |deltas: &[(String, Vec<Timestamp>)], retract: bool| {
            std::thread::scope(|scope| {
                for k in 0..3 {
                    let writer = interleaved.writer();
                    scope.spawn(move || {
                        for (user, posts) in deltas.iter().skip(k).step_by(3).rev() {
                            if retract {
                                writer.retract(user, posts).unwrap();
                            } else {
                                writer.ingest(user, posts).unwrap();
                            }
                        }
                    });
                }
            });
        };
        phase(&first, false);
        interleaved.publish().unwrap();
        phase(&retracted, true);
        phase(&second, false);

        let parts = snapshot_parts(&serial);
        assert_eq!(parts, snapshot_parts(&interleaved));
        let (meta, shards) = parts.split_last().unwrap();
        assert!(!meta.is_empty());
        let mut dirty_seen = 0;
        for part in shards {
            let (users, _) = crate::durable::decode_shard(part).unwrap();
            let ids: Vec<&str> = users.iter().map(|(id, _, _)| &**id).collect();
            let dirty: Vec<&str> = users
                .iter()
                .filter(|&&(_, _, dirty)| dirty)
                .map(|(id, _, _)| &**id)
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "{dirty:?}");
            assert!(ids.len() >= 2);
            dirty_seen += dirty.len();
        }
        let touched: std::collections::BTreeSet<&String> = second
            .iter()
            .chain(&retracted)
            .map(|(user, _)| user)
            .collect();
        assert_eq!(dirty_seen, touched.len());
        drop((serial, interleaved));
        for tag in ["serial", "interleaved"] {
            let _ = std::fs::remove_dir_all(dir(tag));
        }
    }
}
