//! Durable streaming analysis — crash-safe persistence of the shard
//! accumulators via `crowdtz-store`.
//!
//! [`StreamingPipeline::open_durable`] wraps the streaming engine in a
//! [`DurableStreamingPipeline`] backed by a store directory holding
//! per-shard **snapshots** plus an append-only, CRC-framed **delta
//! log** (one record per batch). Every batch is write-ahead: it is
//! appended and fsynced *before* it is applied in memory, so once
//! [`DurableStreamingPipeline::ingest_batch`] (or a durable
//! [`IngestWriter`](crate::IngestWriter) batch) returns `Ok` the posts
//! survive any crash. Signed records — the concurrent engine's
//! retractions — replay through the same path.
//! Reopening the directory recovers *snapshot + valid log suffix* and
//! resumes **byte-identical** to an engine that never crashed:
//!
//! * Everything the snapshot persists per user is integral — slot keys,
//!   post counts, the flatness flag, the zone, and the EMD as raw
//!   `f64::to_bits` — and everything derived (distributions, profiles,
//!   kept vectors, zone counts) is recomputed by the same pure
//!   functions the live engine uses, in the same global user-id order.
//! * Log records replay through the same ingest path as live batches.
//! * The store assigns sequence numbers; a snapshot covers a prefix,
//!   recovery replays only the suffix — warm-restart cost scales with
//!   the log length, not the crawl length.
//!
//! The monitor-facing [`DurableStreamingPipeline::ingest_batch`] stores
//! a *source* sequence number and an opaque checkpoint blob inside the
//! same log record as the batch, transactionally: a monitor that is
//! killed and resumed from its persisted checkpoint may re-deliver the
//! boundary batch, and the engine drops it by sequence number instead
//! of double-counting posts.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crowdtz_stats::{Histogram24, BINS};
use crowdtz_store::{DurableStore, RealVfs, StoreError, Vfs};
use crowdtz_time::Timestamp;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::placement::UserPlacement;
use crate::profile::ActivityProfile;
use crate::shard::{UserAccumulator, UserAnalysis};
use crate::streaming::StreamingPipeline;

/// One ingest batch as logged: the engine-visible deltas plus the
/// monitor bookkeeping stored transactionally with them.
///
/// # Record versioning
///
/// The signed-delta extension rides in the `retractions` field, omitted
/// from the wire when empty and defaulted when absent (hand-written
/// impls below — the vendored serde derive has no attribute support):
/// pre-signed-record logs, which have no such field, decode with no
/// retractions and replay as pure ingest, and a new log that only ever
/// ingests is byte-identical to what the old code would have written —
/// the field's *presence* is the version marker, no framing change
/// needed.
#[derive(Debug)]
struct LogBatch {
    /// Source (monitor) batch sequence number; `0` for batches that
    /// did not come through [`DurableStreamingPipeline::ingest_batch`].
    source_seq: u64,
    /// Opaque monitor checkpoint valid *after* this batch.
    checkpoint: Option<String>,
    /// `(user, post timestamps as epoch seconds)` deltas.
    deltas: Vec<(String, Vec<i64>)>,
    /// Signed (negative) deltas, applied after `deltas` — same shape.
    retractions: Vec<(String, Vec<i64>)>,
}

impl Serialize for LogBatch {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("source_seq".to_owned(), self.source_seq.to_value()),
            ("checkpoint".to_owned(), self.checkpoint.to_value()),
            ("deltas".to_owned(), self.deltas.to_value()),
        ];
        if !self.retractions.is_empty() {
            fields.push(("retractions".to_owned(), self.retractions.to_value()));
        }
        serde::Value::object(fields)
    }
}

impl Deserialize for LogBatch {
    fn from_value(value: &serde::Value) -> Result<LogBatch, serde::DeError> {
        Ok(LogBatch {
            source_seq: Deserialize::from_value(value.field("source_seq")?)?,
            checkpoint: Deserialize::from_value(value.field("checkpoint")?)?,
            deltas: Deserialize::from_value(value.field("deltas")?)?,
            // Absent in pre-signed-record logs → pure-ingest replay.
            retractions: match value.field("retractions") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// Persisted form of one user's placement analysis.
/// `offset_minutes`/`emd_bits` are meaningful only when `placed`; the
/// EMD travels as raw bits so the recovered value is the identical
/// `f64`, and the offset travels in minutes so sub-hour placements on
/// the half- and quarter-hour grids survive recovery exactly (a
/// whole-hours field would silently truncate ±15/±30/±45).
#[derive(Debug, Serialize, Deserialize)]
struct AnalysisSnap {
    flat: bool,
    placed: bool,
    offset_minutes: i32,
    emd_bits: u64,
}

/// Persisted form of one user's accumulator. Hour counts are derivable
/// from the slot keys and are rebuilt on load.
#[derive(Debug)]
struct UserSnap {
    id: String,
    slots: Vec<i64>,
    /// Live post count per slot, parallel to `slots` — the refcounts the
    /// retraction path needs. Absent in pre-signed-record snapshots
    /// (hand-written impls below, defaulted when missing);
    /// [`rebuild_accumulator`] then reconstructs counts that preserve
    /// the `sum == posts` invariant (analysis output never depends on
    /// the split, only later retractions would).
    slot_posts: Vec<u32>,
    posts: u64,
    analysis: Option<AnalysisSnap>,
}

impl Serialize for UserSnap {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("id".to_owned(), self.id.to_value()),
            ("slots".to_owned(), self.slots.to_value()),
        ];
        if !self.slot_posts.is_empty() {
            fields.push(("slot_posts".to_owned(), self.slot_posts.to_value()));
        }
        fields.push(("posts".to_owned(), self.posts.to_value()));
        fields.push(("analysis".to_owned(), self.analysis.to_value()));
        serde::Value::object(fields)
    }
}

impl Deserialize for UserSnap {
    fn from_value(value: &serde::Value) -> Result<UserSnap, serde::DeError> {
        Ok(UserSnap {
            id: Deserialize::from_value(value.field("id")?)?,
            slots: Deserialize::from_value(value.field("slots")?)?,
            slot_posts: match value.field("slot_posts") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => Vec::new(),
            },
            posts: Deserialize::from_value(value.field("posts")?)?,
            analysis: Deserialize::from_value(value.field("analysis")?)?,
        })
    }
}

/// One snapshot part: a shard's users (in id order) plus its dirty ids.
#[derive(Debug, Serialize, Deserialize)]
struct ShardSnap {
    users: Vec<UserSnap>,
    dirty: Vec<String>,
}

/// The final snapshot part: engine-level bookkeeping.
#[derive(Debug, Serialize, Deserialize)]
struct MetaSnap {
    source_seq: u64,
    checkpoint: Option<String>,
}

fn codec_err(what: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Store(StoreError::Codec {
        reason: format!("{what}: {e}"),
    })
}

fn encode_json<T: Serialize>(what: &str, value: &T) -> Result<Vec<u8>, CoreError> {
    Ok(serde_json::to_string(value)
        .map_err(|e| codec_err(what, e))?
        .into_bytes())
}

fn decode_json<T: serde::Deserialize>(what: &str, bytes: &[u8]) -> Result<T, CoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| codec_err(what, e))?;
    serde_json::from_str(text).map_err(|e| codec_err(what, e))
}

impl StreamingPipeline {
    /// Opens (creating if necessary) a durable streaming engine at
    /// `dir`, recovering any persisted state: the newest valid snapshot
    /// generation is loaded, the valid log suffix is replayed through
    /// the normal ingest path, and the engine resumes byte-identical to
    /// one that never crashed. Corrupt snapshot generations are
    /// quarantined with fallback to the previous one; a torn log tail
    /// is truncated silently (it is the expected crash signature, not
    /// an error).
    ///
    /// The caller must pass the same pipeline *configuration* (activity
    /// threshold, polishing, generic profile) across restarts — the
    /// store persists accumulated state, not configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when the directory is unusable or a
    /// CRC-valid snapshot fails structural decoding.
    pub fn open_durable(
        pipeline: GeolocationPipeline,
        dir: impl Into<PathBuf>,
    ) -> Result<DurableStreamingPipeline, CoreError> {
        Self::open_durable_with(pipeline, Box::new(RealVfs::new()), dir)
    }

    /// [`StreamingPipeline::open_durable`] with an explicit VFS —
    /// the hook fault-injection tests use to run the whole engine over
    /// a `crowdtz_store::FaultStore`.
    pub fn open_durable_with(
        pipeline: GeolocationPipeline,
        vfs: Box<dyn Vfs>,
        dir: impl Into<PathBuf>,
    ) -> Result<DurableStreamingPipeline, CoreError> {
        let obs = pipeline.obs();
        let (store, recovered) = DurableStore::open_with(vfs, dir, obs)?;
        let mut inner = StreamingPipeline::new(pipeline);
        let mut source_seq = 0u64;
        let mut checkpoint = None;
        if let Some(snap) = &recovered.snapshot {
            let (meta_part, shard_parts) = snap.parts.split_last().ok_or_else(|| {
                CoreError::Store(StoreError::Corrupt {
                    path: String::new(),
                    reason: "snapshot has no parts".into(),
                })
            })?;
            let meta: MetaSnap = decode_json("snapshot meta", meta_part)?;
            source_seq = meta.source_seq;
            checkpoint = meta.checkpoint;
            for part in shard_parts {
                let shard: ShardSnap = decode_json("shard snapshot", part)?;
                let dirty: BTreeSet<String> = shard.dirty.into_iter().collect();
                for user in shard.users {
                    let was_dirty = dirty.contains(&user.id);
                    let acc = rebuild_accumulator(&user)?;
                    inner.shards_mut_ref().restore_user(user.id, acc, was_dirty);
                }
            }
            inner.rebuild_derived_state();
        }
        for (_, payload) in &recovered.deltas {
            let batch: LogBatch = decode_json("log record", payload)?;
            apply_batch(&mut inner, &batch);
            if batch.source_seq != 0 {
                source_seq = source_seq.max(batch.source_seq);
                if batch.checkpoint.is_some() {
                    checkpoint = batch.checkpoint;
                }
            }
        }
        Ok(DurableStreamingPipeline {
            inner,
            store,
            source_seq,
            checkpoint,
        })
    }
}

/// Encodes a source-less signed batch as one WAL record — the concurrent
/// engine's writer path (`concurrent.rs`) appends these under its WAL
/// lock before applying the deltas in memory, the same write-ahead
/// contract [`DurableStreamingPipeline::ingest_batch`] keeps. A
/// retraction batch rides in the record's `retractions` field; recovery
/// replays either kind through [`apply_batch`] unchanged.
pub(crate) fn encode_batch(
    deltas: &[(&str, &[Timestamp])],
    retract: bool,
) -> Result<Vec<u8>, CoreError> {
    let owned: Vec<(String, Vec<i64>)> = deltas
        .iter()
        .map(|(user, posts)| {
            (
                (*user).to_owned(),
                posts.iter().map(|t| t.as_secs()).collect(),
            )
        })
        .collect();
    let (deltas, retractions) = if retract {
        (Vec::new(), owned)
    } else {
        (owned, Vec::new())
    };
    let batch = LogBatch {
        source_seq: 0,
        checkpoint: None,
        deltas,
        retractions,
    };
    encode_json("log record", &batch)
}

/// Builds the full snapshot part set — one [`ShardSnap`] per shard in
/// shard-index order, then the [`MetaSnap`] — for the engine's current
/// in-memory state. Shared by [`DurableStreamingPipeline::checkpoint_now`]
/// and the concurrent engine's publish-time rotation (`concurrent.rs`),
/// so both persist byte-identical generations for identical state.
pub(crate) fn build_snapshot_parts(
    stream: &StreamingPipeline,
    source_seq: u64,
    checkpoint: Option<&str>,
) -> Result<Vec<Vec<u8>>, CoreError> {
    let mut parts: Vec<Result<Vec<u8>, CoreError>> = Vec::new();
    stream.shards_ref().for_each_shard(|users, dirty| {
        let snap = ShardSnap {
            users: users
                .iter()
                .map(|(id, acc)| UserSnap {
                    id: id.clone(),
                    slots: acc.slots.clone(),
                    slot_posts: acc.slot_counts.clone(),
                    posts: acc.posts as u64,
                    analysis: acc.analysis.as_ref().map(|a| AnalysisSnap {
                        flat: a.flat,
                        placed: a.placement.is_some(),
                        offset_minutes: a
                            .placement
                            .as_ref()
                            .map_or(0, UserPlacement::offset_minutes),
                        emd_bits: a.placement.as_ref().map_or(0, |p| p.emd().to_bits()),
                    }),
                })
                .collect(),
            dirty: dirty.iter().cloned().collect(),
        };
        parts.push(encode_json("shard snapshot", &snap));
    });
    let meta = MetaSnap {
        source_seq,
        checkpoint: checkpoint.map(str::to_owned),
    };
    parts.push(encode_json("snapshot meta", &meta));
    parts.into_iter().collect()
}

/// Replays one logged batch through the normal delta-update path —
/// ingests first, then retractions, matching the live order (a record
/// never carries both today, but the order makes mixed records safe).
fn apply_batch(inner: &mut StreamingPipeline, batch: &LogBatch) {
    for (user, secs) in &batch.deltas {
        let posts: Vec<Timestamp> = secs.iter().map(|&s| Timestamp::from_secs(s)).collect();
        inner.ingest(user, &posts);
    }
    for (user, secs) in &batch.retractions {
        let posts: Vec<Timestamp> = secs.iter().map(|&s| Timestamp::from_secs(s)).collect();
        inner.retract(user, &posts);
    }
}

/// Rebuilds a [`UserAccumulator`] (hour counts, profile, placement)
/// from its persisted integer state, using the same pure functions the
/// live refresh uses so the result is bit-identical.
fn rebuild_accumulator(user: &UserSnap) -> Result<UserAccumulator, CoreError> {
    let mut hour_counts = [0u32; BINS];
    for &k in &user.slots {
        hour_counts[k.rem_euclid(24) as usize] += 1;
    }
    let analysis = match &user.analysis {
        None => None,
        Some(a) => {
            let mut bins = [0.0_f64; BINS];
            for (dst, &c) in bins.iter_mut().zip(hour_counts.iter()) {
                *dst = f64::from(c);
            }
            let distribution = Histogram24::from_bins(bins)
                .normalized()
                .map_err(|e| codec_err("snapshot analysis with empty activity", e))?;
            let profile = ActivityProfile::from_parts(
                user.id.clone(),
                distribution,
                user.slots.len(),
                user.posts as usize,
            );
            let placement = a.placed.then(|| {
                UserPlacement::from_offset_minutes(
                    profile.user(),
                    a.offset_minutes,
                    f64::from_bits(a.emd_bits),
                )
            });
            Some(UserAnalysis {
                profile,
                flat: a.flat,
                placement,
            })
        }
    };
    let slot_counts = if user.slot_posts.len() == user.slots.len() {
        user.slot_posts.clone()
    } else {
        // Pre-signed-record snapshot: the per-slot split was not
        // persisted. Any split summing to `posts` yields the identical
        // analysis; park the surplus on the first slot so the refcount
        // invariant holds for whatever retractions come later.
        let mut counts = vec![1u32; user.slots.len()];
        if let Some(first) = counts.first_mut() {
            *first += (user.posts as usize).saturating_sub(user.slots.len()) as u32;
        }
        counts
    };
    Ok(UserAccumulator {
        slots: user.slots.clone(),
        slot_counts,
        hour_counts,
        posts: user.posts as usize,
        analysis,
    })
}

/// A [`StreamingPipeline`] whose every ingest is logged write-ahead to
/// a [`DurableStore`], with periodic snapshot rotation. See the module
/// docs for the recovery guarantees.
#[derive(Debug)]
pub struct DurableStreamingPipeline {
    inner: StreamingPipeline,
    store: DurableStore,
    /// Highest monitor batch sequence applied (0 before any).
    source_seq: u64,
    /// Monitor checkpoint blob valid as of the current state.
    checkpoint: Option<String>,
}

impl DurableStreamingPipeline {
    /// Ingests one monitor batch with its sequence number and the
    /// checkpoint that becomes valid once the batch is applied, stored
    /// transactionally in the same log record. Batches whose
    /// `source_seq` is not beyond the highest already applied are
    /// dropped (`Ok(false)`) — the warm-restart dedup that keeps a
    /// re-delivered boundary batch from double-counting posts.
    ///
    /// `source_seq` must be ≥ 1; sequence numbers are expected to be
    /// assigned densely by the monitor.
    pub fn ingest_batch(
        &mut self,
        source_seq: u64,
        posts: &[(String, Timestamp)],
        checkpoint: Option<&str>,
    ) -> Result<bool, CoreError> {
        if source_seq <= self.source_seq {
            return Ok(false);
        }
        let batch = LogBatch {
            source_seq,
            checkpoint: checkpoint.map(str::to_owned),
            deltas: posts
                .iter()
                .map(|(user, ts)| (user.clone(), vec![ts.as_secs()]))
                .collect(),
            retractions: Vec::new(),
        };
        self.log_and_apply(batch)?;
        Ok(true)
    }

    /// Append the record, apply it in memory, rotate the snapshot if
    /// the log has outgrown its threshold.
    fn log_and_apply(&mut self, batch: LogBatch) -> Result<(), CoreError> {
        let payload = encode_json("log record", &batch)?;
        self.store.append_delta(&payload)?;
        apply_batch(&mut self.inner, &batch);
        if batch.source_seq != 0 {
            self.source_seq = batch.source_seq;
            if batch.checkpoint.is_some() {
                self.checkpoint = batch.checkpoint;
            }
        }
        if self.store.should_snapshot() {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Writes a snapshot generation covering everything ingested so
    /// far, rotating out the oldest retained generation and compacting
    /// the log. Called automatically when the log outgrows the
    /// threshold; callers can also invoke it explicitly (e.g. before a
    /// planned shutdown). Returns the generation number.
    pub fn checkpoint_now(&mut self) -> Result<u64, CoreError> {
        let parts = build_snapshot_parts(&self.inner, self.source_seq, self.checkpoint.as_deref())?;
        let last_seq = self.store.last_seq();
        Ok(self.store.write_snapshot(last_seq, &parts)?)
    }

    /// Produces the current report — see
    /// [`StreamingPipeline::snapshot`]. Pure analysis; nothing is
    /// persisted (the report is derivable, and recovery recomputes it).
    pub fn snapshot(&mut self) -> Result<GeolocationReport, CoreError> {
        self.inner.snapshot()
    }

    /// [`StreamingPipeline::snapshot_with_coverage`] passthrough.
    pub fn snapshot_with_coverage(
        &mut self,
        coverage: f64,
    ) -> Result<GeolocationReport, CoreError> {
        self.inner.snapshot_with_coverage(coverage)
    }

    /// The wrapped streaming engine (read-only: mutating it directly
    /// would bypass the write-ahead log).
    pub fn stream(&self) -> &StreamingPipeline {
        &self.inner
    }

    /// The underlying store (log length, last sequence, directory).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Highest monitor batch sequence applied; batches at or below it
    /// are dropped by [`DurableStreamingPipeline::ingest_batch`].
    pub fn last_source_seq(&self) -> u64 {
        self.source_seq
    }

    /// The monitor checkpoint stored with the newest applied batch.
    pub fn source_checkpoint(&self) -> Option<&str> {
        self.checkpoint.as_deref()
    }

    /// Sets the log-size threshold (bytes) that triggers automatic
    /// snapshot rotation mid-ingest.
    pub fn snapshot_every_bytes(&mut self, bytes: u64) {
        self.store.set_compact_threshold(bytes);
    }

    /// Splits the durable engine into its pieces. The concurrent engine
    /// (`concurrent.rs`) recovers through the normal
    /// [`StreamingPipeline::open_durable_with`] path and then re-homes
    /// the stream and the store behind its own locks.
    pub(crate) fn into_parts(self) -> (StreamingPipeline, DurableStore, u64, Option<String>) {
        (self.inner, self.store, self.source_seq, self.checkpoint)
    }
}
