//! Concurrent multi-writer ingestion with wait-free snapshot reads.
//!
//! [`ConcurrentStreamingPipeline`] fronts one [`StreamingPipeline`] with
//! the locking the ROADMAP's "serve it" item calls for: many `Monitor`s
//! (or any producer threads) feed one shared engine through
//! [`IngestWriter`] handles, while readers consume published reports
//! without ever touching a writer-visible lock. Three layers, with a
//! strict lock order (DESIGN.md §15):
//!
//! 1. **The batch gate** — an `RwLock` around the engine. Writers hold
//!    the *read* side for exactly one batch, so any number of writers
//!    ingest simultaneously; [`publish`](ConcurrentStreamingPipeline::publish)
//!    takes the *write* side, which is a consistent cut: every batch is
//!    either fully applied or not yet started when the snapshot runs.
//! 2. **Per-shard mutexes** (`shard.rs`) — inside the read gate, a batch
//!    routes users by the stable FNV hash and locks **one shard at a
//!    time**, so writers touching different shards never contend, and
//!    the lock order (gate → WAL → one shard) is trivially cycle-free.
//! 3. **The published cell** — an epoch/`Arc`-swap double buffer.
//!    [`snapshot`](ConcurrentStreamingPipeline::snapshot) clones the
//!    newest published `Arc` without acquiring the gate: readers never
//!    block writers and writers never block readers.
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
//!   resolves placements through the same private placement cache as
//!   the sequential engine, probed only by
//!   [`publish`](ConcurrentStreamingPipeline::publish) under the write
//!   gate — so even the cache's hit/miss/eviction counts are a pure
//!   function of the published cuts.
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
//! [`ConcurrentStreamingPipeline::open_durable`] recovers through the
//! normal [`StreamingPipeline::open_durable_with`] path, then re-homes
//! the store behind a WAL mutex *inside* the gate. A writer's batch is
//! appended and fsynced under gate-read + WAL-lock *before* the shard
//! apply (the same write-ahead contract as the sequential
//! [`DurableStreamingPipeline`](crate::DurableStreamingPipeline)), and
//! snapshot rotation runs only under the write gate — so at rotation the
//! in-memory state equals the logged state exactly, and recovery is
//! unchanged.
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
//! // Wait-free read of the newest published report:
//! assert_eq!(engine.snapshot().unwrap().epoch(), published.epoch());
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crowdtz_store::{DurableStore, RealVfs, Vfs};
use crowdtz_time::Timestamp;

use crate::durable::{build_snapshot_parts, encode_batch};
use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::shard::SharedIngestObs;
use crate::streaming::StreamingPipeline;

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

fn read_gate<T>(gate: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    gate.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_gate<T>(gate: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    gate.write().unwrap_or_else(PoisonError::into_inner)
}

/// Observability handles, resolved once so the per-batch cost is an
/// atomic add per metric, not a registry lookup.
#[derive(Debug)]
struct ConcurrentObs {
    /// Shard-level handles threaded into `ShardSet::apply_batch_shared`.
    shared: SharedIngestObs,
    /// `ingest.gate_contention`: batch-gate acquisitions that blocked
    /// (a publish was running or pending).
    gate_contention: crowdtz_obs::Counter,
    /// `ingest.batches`: writer batches fully applied.
    batches: crowdtz_obs::Counter,
    /// `ingest.publishes`: reports published through the cell.
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
/// shared reference (`apply_deltas_shared` locks per shard); the
/// publisher's write guard gives the `&mut` that `snapshot()` needs.
#[derive(Debug)]
struct Engine {
    stream: StreamingPipeline,
    wal: Option<Mutex<Wal>>,
}

/// One published snapshot: the report plus the exact cut it reflects.
#[derive(Debug)]
pub struct PublishedReport {
    report: GeolocationReport,
    epoch: u64,
    watermarks: Vec<u64>,
    posts_ingested: usize,
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
}

/// The epoch/`Arc`-swap publication cell: an atomic epoch plus two
/// slots. The publisher (serialized by the write gate) stores the new
/// `Arc` into the *inactive* slot, then flips the epoch with `Release`;
/// readers load the epoch, briefly lock the epoch's slot, and clone the
/// `Arc`. A reader therefore never blocks a writer (writers don't touch
/// the cell) and blocks the *next* publish only for the nanoseconds an
/// `Arc` clone takes — two publishes apart, never the current one.
#[derive(Debug, Default)]
struct PublishedCell {
    /// 0 = nothing published yet; otherwise the newest report's epoch,
    /// stored in slot `epoch & 1`.
    epoch: AtomicU64,
    slots: [Mutex<Option<Arc<PublishedReport>>>; 2],
}

impl PublishedCell {
    /// The epoch the next publish will carry. Single-publisher (write
    /// gate held), so a plain read is exact.
    fn next_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed) + 1
    }

    /// Installs a report (single publisher, write gate held): inactive
    /// slot first, then the epoch flip that makes it visible.
    fn install(&self, report: Arc<PublishedReport>) {
        let epoch = report.epoch;
        *relock(&self.slots[(epoch & 1) as usize]) = Some(report);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The newest published report, or `None` before the first publish.
    /// Retries only when a publish flipped the epoch mid-read; slots are
    /// replaced wholesale under their mutex, so the clone is never torn
    /// and always some fully published report (possibly newer than the
    /// epoch first observed).
    fn read(&self) -> Option<Arc<PublishedReport>> {
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch == 0 {
                return None;
            }
            let slot = relock(&self.slots[(epoch & 1) as usize]);
            if let Some(report) = slot.as_ref() {
                if report.epoch >= epoch {
                    return Some(Arc::clone(report));
                }
            }
        }
    }
}

/// State shared by the pipeline handle and every writer.
#[derive(Debug)]
struct Shared {
    gate: RwLock<Engine>,
    cell: PublishedCell,
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
                let guard = read_gate(&self.gate);
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
    /// `dir`: recovery runs through the sequential
    /// [`StreamingPipeline::open_durable`] path (byte-identical resume),
    /// then the store is re-homed behind the WAL lock. See the module
    /// docs for the write-ahead contract under concurrency.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when the directory is unusable or a
    /// CRC-valid snapshot fails structural decoding.
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
        let durable = StreamingPipeline::open_durable_with(pipeline, vfs, dir)?;
        let (stream, store, source_seq, checkpoint) = durable.into_parts();
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
                cell: PublishedCell::default(),
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

    /// Publishes a fresh report through the cell and returns it.
    ///
    /// Takes the write gate — a **consistent cut**: every writer batch
    /// is fully applied or not yet started, and the per-writer
    /// watermarks captured here name exactly the applied prefixes. In
    /// durable mode, snapshot rotation happens here (and only here) when
    /// the log has outgrown its threshold, so rotation always persists a
    /// state equal to the log it compacts.
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
        let mut guard = write_gate(&self.shared.gate);
        // Under the write gate no watermark can move (bumps happen under
        // a read hold), so this vector is the exact cut.
        let watermarks: Vec<u64> = relock(&self.shared.writers)
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        let Engine { stream, wal } = &mut *guard;
        let report = stream.snapshot_with_coverage(coverage)?;
        if let Some(wal) = wal {
            let wal = wal.get_mut().unwrap_or_else(PoisonError::into_inner);
            if wal.store.should_snapshot() {
                let parts =
                    build_snapshot_parts(stream, wal.source_seq, wal.checkpoint.as_deref())?;
                let last_seq = wal.store.last_seq();
                wal.store.write_snapshot(last_seq, &parts)?;
            }
        }
        let posts_ingested = stream.posts_ingested();
        let published = Arc::new(PublishedReport {
            report,
            epoch: self.shared.cell.next_epoch(),
            watermarks,
            posts_ingested,
        });
        self.shared.cell.install(Arc::clone(&published));
        if let Some(obs) = &self.shared.obs {
            obs.publishes.inc();
        }
        Ok(published)
    }

    /// The newest published report — **wait-free with respect to
    /// writers**: this never acquires the batch gate or a shard lock, so
    /// a reader loop cannot slow ingestion down (and ingestion cannot
    /// starve readers). `None` before the first
    /// [`publish`](Self::publish).
    pub fn snapshot(&self) -> Option<Arc<PublishedReport>> {
        self.shared.cell.read()
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
        let mut guard = write_gate(&self.shared.gate);
        let Engine { stream, wal } = &mut *guard;
        let Some(wal) = wal else {
            return Ok(None);
        };
        let wal = wal.get_mut().unwrap_or_else(PoisonError::into_inner);
        let parts = build_snapshot_parts(stream, wal.source_seq, wal.checkpoint.as_deref())?;
        let last_seq = wal.store.last_seq();
        Ok(Some(wal.store.write_snapshot(last_seq, &parts)?))
    }

    /// Number of users ever ingested (brief gate-read).
    pub fn users_tracked(&self) -> usize {
        read_gate(&self.shared.gate).stream.users_tracked()
    }

    /// Total posts ingested across all users, duplicates included.
    pub fn posts_ingested(&self) -> usize {
        read_gate(&self.shared.gate).stream.posts_ingested()
    }

    /// Users whose profiles changed since the last refresh.
    pub fn dirty_users(&self) -> usize {
        read_gate(&self.shared.gate).stream.dirty_users()
    }

    /// Number of hash shards the accumulator store is partitioned into.
    pub fn shard_count(&self) -> usize {
        read_gate(&self.shared.gate).stream.shard_count()
    }

    /// Lifetime placement-cache `(hits, misses)` — equal to those of a
    /// sequential [`StreamingPipeline`] that snapshots at the same cuts.
    pub fn cache_stats(&self) -> (u64, u64) {
        read_gate(&self.shared.gate).stream.cache_stats()
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
    /// [`CoreError::Store`] in durable mode when the write-ahead append
    /// fails; the in-memory engine is unchanged in that case.
    pub fn ingest(&self, user: &str, posts: &[Timestamp]) -> Result<(), CoreError> {
        if posts.is_empty() {
            return Ok(());
        }
        self.ingest_deltas(&[(user, posts)])
    }

    /// Ingests a batch of single-post observations (the monitor poll
    /// shape) as one batch — one gate hold, one WAL record in durable
    /// mode, one watermark step.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_posts_ref(&self, posts: &[(&str, Timestamp)]) -> Result<(), CoreError> {
        let deltas: Vec<(&str, &[Timestamp])> = posts
            .iter()
            .map(|(user, ts)| (*user, std::slice::from_ref(ts)))
            .collect();
        self.ingest_deltas(&deltas)
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
        if posts.is_empty() {
            return Ok(());
        }
        self.apply_deltas(&[(user, posts)], true)
    }

    /// Retracts a batch of single-post observations as one signed batch.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn retract_posts_ref(&self, posts: &[(&str, Timestamp)]) -> Result<(), CoreError> {
        let deltas: Vec<(&str, &[Timestamp])> = posts
            .iter()
            .map(|(user, ts)| (*user, std::slice::from_ref(ts)))
            .collect();
        self.apply_deltas(&deltas, true)
    }

    /// Ingests a batch of per-user deltas. Empty batches are ignored
    /// (no gate hold, no watermark step).
    ///
    /// Lock order: gate (read) → WAL append + fsync (durable mode) →
    /// shards, one at a time → watermark bump → gate release. The
    /// watermark moves only after the batch is fully applied and only
    /// inside the gate hold, which is what makes publish-time watermark
    /// capture an exact cut.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn ingest_deltas(&self, deltas: &[(&str, &[Timestamp])]) -> Result<(), CoreError> {
        self.apply_deltas(deltas, false)
    }

    /// [`ingest_deltas`](Self::ingest_deltas), or with `retract` its
    /// signed inverse: the same gate/WAL/shard lock order, but the record
    /// is a retraction and the shards release the posts.
    fn apply_deltas(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
    ) -> Result<(), CoreError> {
        if deltas.iter().all(|(_, posts)| posts.is_empty()) {
            return Ok(());
        }
        let guard = self.shared.enter_batch();
        if let Some(wal) = &guard.wal {
            let payload = encode_batch(deltas, retract)?;
            let mut wal = relock(wal);
            wal.store.append_delta(&payload)?;
        }
        let obs = self.shared.obs.as_ref().map(|o| &o.shared);
        guard.stream.apply_deltas_shared(deltas, retract, obs);
        if let Some(obs) = &self.shared.obs {
            obs.batches.inc();
        }
        self.watermark.fetch_add(1, Ordering::Release);
        drop(guard);
        Ok(())
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
        writer.ingest_posts_ref(&[]).unwrap();
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
}
