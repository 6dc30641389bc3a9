//! Durable streaming analysis — the payload codec and the recovery
//! behind `ConcurrentStreamingPipeline::open_durable`.
//!
//! A durable engine is backed by a `crowdtz-store` directory holding
//! per-shard **snapshots** plus an append-only, CRC-framed **delta log**
//! (one record per batch, ingest or retraction), written ahead of every
//! in-memory apply (`concurrent.rs`). Reopening the directory recovers
//! *snapshot + valid log suffix* and resumes **byte-identical** to an
//! engine that never crashed:
//!
//! * Everything the snapshot persists per user is integral — slot keys,
//!   post counts, the flatness flag, the zone, and the EMD as raw
//!   `f64::to_bits` — and everything derived (distributions, profiles,
//!   kept vectors, zone counts) is recomputed by the same pure
//!   functions the live engine uses, in the same global user-id order.
//! * Log records replay through the same write path as live batches:
//!   each record's ingest list is one batch and its retraction list one
//!   signed batch, through the call every writer batch takes. A
//!   windowed cut's expiry record replays through the same slot release.
//! * The store assigns sequence numbers; a snapshot covers a prefix,
//!   recovery replays only the suffix — warm-restart cost scales with
//!   the log length, not the crawl length.
//!
//! A monitor batch (`IngestWriter::ingest_batch`) stores its *source*
//! sequence number and an opaque checkpoint blob inside the same log
//! record as its posts, transactionally; recovery restores both, so a
//! monitor resumed from its checkpoint re-delivers the boundary batch
//! and the engine drops it by sequence number.
//!
//! # Payload codec
//!
//! Every payload this module writes is a binary record whose first byte
//! names its kind: `1` a log batch, `2` a shard snapshot part, `3` the
//! snapshot meta part, `4` a log expiry (the cutoff slot of a windowed
//! cut, as a zigzag varint). Inside a record:
//!
//! * counts, lengths and sequence numbers are LEB128 varints, and a
//!   string is its byte length then its UTF-8 bytes;
//! * a post timestamp is the zigzag varint of its difference from the
//!   record's previous timestamp; a user's ascending slot keys are
//!   zigzag-varint deltas the same way, restarting at 0 for each user;
//! * each persisted user carries one flag byte holding its analysis tag
//!   (none, flat, kept) and whether it awaits a refresh (dirty);
//! * a kept user's offset travels in minutes (a zigzag varint) and its
//!   EMD as the raw little-endian `f64::to_bits`.
//!
//! A payload whose first byte is `{` is a JSON record from a store
//! written before the binary codec. Such records are still read, never
//! written, so older stores recover byte-identically. Decoding never
//! panics: bytes that pass the frame CRC but are malformed return
//! [`StoreError::Codec`], and every declared count or length is checked
//! against the bytes left before anything is reserved for it.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use crowdtz_store::{DurableStore, StoreError, Vfs};
use crowdtz_time::Timestamp;
use serde::Deserialize;

use crate::error::CoreError;
use crate::pipeline::GeolocationPipeline;
use crate::shard::{UserAccumulator, UserAnalysis};
use crate::streaming::StreamingPipeline;

/// Record-kind byte of a log batch.
const KIND_BATCH: u8 = 1;
/// Record-kind byte of a shard snapshot part.
const KIND_SHARD: u8 = 2;
/// Record-kind byte of the snapshot meta part.
const KIND_META: u8 = 3;
/// Record-kind byte of a log expiry: every slot below its cutoff was
/// released.
const KIND_EXPIRY: u8 = 4;
/// First byte of a legacy JSON payload (an object).
const LEGACY_JSON: u8 = b'{';

/// The analysis-tag bits of a persisted user's flag byte.
const TAG_MASK: u8 = 0b011;
const TAG_NONE: u8 = 0;
const TAG_FLAT: u8 = 1;
const TAG_KEPT: u8 = 2;
/// Flag bit of a user that was awaiting a refresh when persisted.
const DIRTY_BIT: u8 = 0b100;

/// Largest persisted zone offset, in minutes either side of UTC.
const MAX_OFFSET_MINUTES: u64 = 24 * 60;

/// One ingest batch as logged: the engine-visible deltas plus the
/// monitor bookkeeping stored transactionally with them. Recovery
/// decodes every log record into one, whichever codec wrote it.
///
/// # Record versioning
///
/// The first payload byte versions every record: the binary kinds
/// (`1` batch, `2` shard part, `3` meta, `4` expiry) are what this code
/// writes, and
/// `{` marks a JSON record written before the binary codec, read
/// through the `Deserialize` impls below and never written. A future
/// layout takes a new kind byte, and the readers of the old ones stay.
///
/// Within the legacy JSON, the signed-delta extension rides in the
/// `retractions` field, defaulted when absent (hand-written impl below —
/// the vendored serde derive has no attribute support): pre-signed-record
/// logs decode with no retractions and replay as pure ingest.
#[derive(Debug, PartialEq)]
struct LogBatch {
    /// Source (monitor) batch sequence number; `0` for batches that
    /// did not come through `IngestWriter::ingest_batch`.
    source_seq: u64,
    /// Opaque monitor checkpoint valid *after* this batch.
    checkpoint: Option<String>,
    /// `(user, post timestamps)` deltas; legacy JSON stores each
    /// timestamp as its epoch seconds.
    deltas: Vec<(String, Vec<Timestamp>)>,
    /// Signed (negative) deltas, applied after `deltas` — same shape.
    retractions: Vec<(String, Vec<Timestamp>)>,
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

/// Legacy JSON form of one user's placement analysis: an unplaced
/// analysis is flat, so the record's `flat` key is not read.
/// `offset_minutes`/`emd_bits` are meaningful only when `placed`.
#[derive(Debug, Deserialize)]
struct AnalysisSnap {
    placed: bool,
    offset_minutes: i32,
    emd_bits: u64,
}

/// Legacy JSON form of one user's accumulator. Hour counts are derivable
/// from the slot keys and are rebuilt on load.
#[derive(Debug)]
struct UserSnap {
    id: String,
    slots: Vec<i64>,
    /// Live post count per slot, parallel to `slots`. Absent in
    /// pre-signed-record snapshots (defaulted when missing);
    /// [`rebuild_accumulator`] then reconstructs counts that preserve
    /// the `sum == posts` invariant (analysis output never depends on
    /// the split, only later retractions would).
    slot_posts: Vec<u32>,
    posts: u64,
    analysis: Option<AnalysisSnap>,
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

/// Legacy JSON shard part: a shard's users (in id order) plus its dirty
/// ids.
#[derive(Debug, Deserialize)]
struct ShardSnap {
    users: Vec<UserSnap>,
    dirty: Vec<String>,
}

/// The snapshot's final part: engine-level bookkeeping.
#[derive(Debug, Deserialize)]
struct MetaSnap {
    source_seq: u64,
    checkpoint: Option<String>,
}

/// One persisted user as recovery restores it: id, accumulator, and
/// whether it was awaiting a refresh.
pub(crate) type RestoredUser = (Arc<str>, UserAccumulator, bool);

fn codec_err(what: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Store(StoreError::Codec {
        reason: format!("{what}: {e}"),
    })
}

fn decode_json<T: serde::Deserialize>(what: &str, bytes: &[u8]) -> Result<T, CoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| codec_err(what, e))?;
    serde_json::from_str(text).map_err(|e| codec_err(what, e))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// `None` as `0`, `Some(s)` as `s.len() + 1` followed by the bytes.
fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_varint(out, 0),
        Some(s) => {
            put_varint(out, s.len() as u64 + 1);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Encodes one log batch: the source sequence number (`0` for a batch
/// that is not a monitor's), the checkpoint, then the ingest and the
/// retraction deltas as two counted lists of `(user, posts)`. `deltas`
/// fill the retraction list when `retract`, else the ingest list.
/// Timestamps delta-chain across the whole record.
pub(crate) fn encode_batch(
    source_seq: u64,
    checkpoint: Option<&str>,
    deltas: &[(&str, &[Timestamp])],
    retract: bool,
) -> Vec<u8> {
    let (ingest, retractions): (&[_], &[_]) = if retract {
        (&[], deltas)
    } else {
        (deltas, &[])
    };
    let mut out = Vec::with_capacity(16 + 24 * deltas.len());
    out.push(KIND_BATCH);
    put_varint(&mut out, source_seq);
    put_opt_str(&mut out, checkpoint);
    let mut prev = 0i64;
    put_deltas(&mut out, &mut prev, ingest);
    put_deltas(&mut out, &mut prev, retractions);
    out
}

/// One counted list of `(user, posts)` deltas, continuing the record's
/// timestamp chain in `prev`.
fn put_deltas(out: &mut Vec<u8>, prev: &mut i64, deltas: &[(&str, &[Timestamp])]) {
    put_varint(out, deltas.len() as u64);
    for (user, posts) in deltas {
        put_str(out, user);
        put_varint(out, posts.len() as u64);
        for ts in *posts {
            let secs = ts.as_secs();
            put_varint(out, zigzag(secs.wrapping_sub(*prev)));
            *prev = secs;
        }
    }
}

/// Encodes one shard snapshot part: the user count, then each user
/// ([`put_user`]).
fn encode_shard(users: &[(&str, &UserAccumulator)]) -> Vec<u8> {
    let bytes: usize = users
        .iter()
        .map(|(id, acc)| id.len() + 16 + 3 * acc.slots.len())
        .sum();
    let mut out = Vec::with_capacity(8 + bytes);
    out.push(KIND_SHARD);
    put_varint(&mut out, users.len() as u64);
    for &(id, acc) in users {
        // A user emptied since the last refresh (every post retracted or
        // expired) is dirty with a stale analysis. Persisting none is
        // what that refresh concludes, and an analysis needs activity.
        let analysis = acc.analysis.filter(|_| !acc.slots.is_empty());
        put_user(&mut out, id, analysis, acc.dirty, acc.live_slots());
    }
    out
}

/// One persisted user: its id, flag byte, post count, slot count, slot
/// keys (signed hours since 1970, as zigzag deltas), slot counts and,
/// when kept, its offset and EMD bits. `slots` yields ascending `(hours,
/// live count)` pairs; the post count is their sum.
fn put_user(
    out: &mut Vec<u8>,
    id: &str,
    analysis: Option<UserAnalysis>,
    dirty: bool,
    slots: impl ExactSizeIterator<Item = (i64, u32)> + Clone,
) {
    put_str(out, id);
    let tag = match analysis {
        None => TAG_NONE,
        Some(UserAnalysis::Flat) => TAG_FLAT,
        Some(UserAnalysis::Kept { .. }) => TAG_KEPT,
    };
    out.push(if dirty { tag | DIRTY_BIT } else { tag });
    put_varint(out, slots.clone().map(|(_, c)| u64::from(c)).sum());
    put_varint(out, slots.len() as u64);
    let mut prev = 0i64;
    for (key, _) in slots.clone() {
        put_varint(out, zigzag(key.wrapping_sub(prev)));
        prev = key;
    }
    for (_, count) in slots {
        put_varint(out, u64::from(count));
    }
    if let Some(UserAnalysis::Kept {
        offset_minutes,
        emd,
    }) = analysis
    {
        put_varint(out, zigzag(i64::from(offset_minutes)));
        out.extend_from_slice(&emd.to_bits().to_le_bytes());
    }
}

fn encode_meta(source_seq: u64, checkpoint: Option<&str>) -> Vec<u8> {
    let mut out = vec![KIND_META];
    put_varint(&mut out, source_seq);
    put_opt_str(&mut out, checkpoint);
    out
}

/// Encodes one log expiry: the cutoff slot below which a windowed cut
/// released every slot.
pub(crate) fn encode_expiry(cutoff: i64) -> Vec<u8> {
    let mut out = vec![KIND_EXPIRY];
    put_varint(&mut out, zigzag(cutoff));
    out
}

/// A cursor over one binary payload. Every read checks the bytes left,
/// so malformed input surfaces as a `Codec` error naming `what`.
struct Reader<'a> {
    what: &'static str,
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Opens `payload` past its record-kind byte, which must be `kind`.
    fn open(what: &'static str, payload: &'a [u8], kind: u8) -> Result<Reader<'a>, CoreError> {
        match payload.split_first() {
            Some((&k, bytes)) if k == kind => Ok(Reader { what, bytes }),
            Some((&k, _)) => Err(codec_err(what, format!("record kind {k}, want {kind}"))),
            None => Err(codec_err(what, "empty payload")),
        }
    }

    fn err(&self, reason: &str) -> CoreError {
        codec_err(self.what, reason)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if n > self.bytes.len() {
            return Err(self.err("truncated"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn byte(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CoreError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            // The tenth byte carries only bit 63.
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint overflows 64 bits"))
    }

    fn zigzag(&mut self) -> Result<i64, CoreError> {
        self.varint().map(unzigzag)
    }

    /// A count of items that each take at least `min_bytes`; larger than
    /// the bytes left could hold is an error, so no count reserves more
    /// than the payload can back.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CoreError> {
        let n = self.varint()?;
        if n > (self.bytes.len() / min_bytes) as u64 {
            return Err(self.err("count exceeds the payload"));
        }
        Ok(n as usize)
    }

    fn str_of_len(&mut self, len: usize) -> Result<&'a str, CoreError> {
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| codec_err(self.what, e))
    }

    fn str(&mut self) -> Result<&'a str, CoreError> {
        let len = self.count(1)?;
        self.str_of_len(len)
    }

    fn opt_str(&mut self) -> Result<Option<&'a str>, CoreError> {
        match self.varint()? {
            0 => Ok(None),
            n => match usize::try_from(n - 1) {
                Ok(len) => self.str_of_len(len).map(Some),
                Err(_) => Err(self.err("truncated")),
            },
        }
    }

    /// One counted list of `(user, posts)` deltas, continuing the
    /// record's timestamp chain in `prev`.
    fn deltas(&mut self, prev: &mut i64) -> Result<Vec<(String, Vec<Timestamp>)>, CoreError> {
        let n = self.count(2)?;
        let mut deltas = Vec::with_capacity(n);
        for _ in 0..n {
            let user = self.str()?.to_owned();
            let posts = self.count(1)?;
            let mut timestamps = Vec::with_capacity(posts);
            for _ in 0..posts {
                *prev = prev.wrapping_add(self.zigzag()?);
                timestamps.push(Timestamp::from_secs(*prev));
            }
            deltas.push((user, timestamps));
        }
        Ok(deltas)
    }

    /// One persisted user of a shard part, and the posts of its slots
    /// outside the key range, which are dropped (`shard.rs`): the user
    /// then comes back dirty, since its analysis saw them. `slots` is
    /// scratch for the `(key, count)` pairs: every key precedes every
    /// count.
    fn user(&mut self, slots: &mut Vec<(i64, u32)>) -> Result<(RestoredUser, usize), CoreError> {
        let id = Arc::from(self.str()?);
        let flags = self.byte()?;
        if flags & !(TAG_MASK | DIRTY_BIT) != 0 {
            return Err(self.err("unknown user flag bits"));
        }
        let posts = self.varint()?;
        let n = self.count(2)?;
        slots.clear();
        let mut prev = 0i64;
        for i in 0..n {
            let key = prev.wrapping_add(self.zigzag()?);
            if i > 0 && key <= prev {
                return Err(self.err("slot keys not ascending"));
            }
            slots.push((key, 0));
            prev = key;
        }
        let mut total = 0u64;
        for (_, slot_count) in slots.iter_mut() {
            let count = match u32::try_from(self.varint()?) {
                Ok(count) if count > 0 => count,
                _ => return Err(self.err("slot count outside 1..=u32::MAX")),
            };
            total = total
                .checked_add(u64::from(count))
                .ok_or_else(|| self.err("slot counts overflow"))?;
            *slot_count = count;
        }
        if total != posts {
            return Err(self.err("slot counts do not sum to the post count"));
        }
        // The accumulator counts posts in a `usize`.
        usize::try_from(posts).map_err(|e| codec_err(self.what, e))?;
        let analysis = match flags & TAG_MASK {
            TAG_NONE => None,
            TAG_FLAT => Some(UserAnalysis::Flat),
            TAG_KEPT => {
                let offset = self.zigzag()?;
                if offset.unsigned_abs() > MAX_OFFSET_MINUTES {
                    return Err(self.err("zone offset beyond a day"));
                }
                let mut bits = [0u8; 8];
                bits.copy_from_slice(self.take(8)?);
                Some(UserAnalysis::Kept {
                    offset_minutes: offset as i32,
                    emd: f64::from_bits(u64::from_le_bytes(bits)),
                })
            }
            _ => return Err(self.err("unknown analysis tag")),
        };
        // An analysis needs a profile, and a profile needs activity.
        if analysis.is_some() && n == 0 {
            return Err(self.err("analysis with empty activity"));
        }
        let (mut acc, dropped) = UserAccumulator::from_slots(slots.iter().copied());
        acc.analysis = analysis;
        let dirty = flags & DIRTY_BIT != 0 || dropped > 0;
        Ok(((id, acc, dirty), dropped))
    }

    /// Ends the record: trailing bytes are an error.
    fn finish(self) -> Result<(), CoreError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.err("trailing bytes"))
        }
    }
}

fn is_legacy_json(payload: &[u8]) -> bool {
    payload.first() == Some(&LEGACY_JSON)
}

/// Decodes one log record, binary or legacy JSON.
fn decode_batch(payload: &[u8]) -> Result<LogBatch, CoreError> {
    const WHAT: &str = "log record";
    if is_legacy_json(payload) {
        return decode_json(WHAT, payload);
    }
    let mut r = Reader::open(WHAT, payload, KIND_BATCH)?;
    let source_seq = r.varint()?;
    let checkpoint = r.opt_str()?.map(str::to_owned);
    let mut prev = 0i64;
    let deltas = r.deltas(&mut prev)?;
    let retractions = r.deltas(&mut prev)?;
    r.finish()?;
    Ok(LogBatch {
        source_seq,
        checkpoint,
        deltas,
        retractions,
    })
}

/// Decodes one log expiry into its cutoff slot.
fn decode_expiry(payload: &[u8]) -> Result<i64, CoreError> {
    let mut r = Reader::open("log expiry", payload, KIND_EXPIRY)?;
    let cutoff = r.zigzag()?;
    r.finish()?;
    Ok(cutoff)
}

/// Decodes one binary shard part into its users, in stored (id) order,
/// and the posts dropped with slots outside the key range.
pub(crate) fn decode_shard(part: &[u8]) -> Result<(Vec<RestoredUser>, usize), CoreError> {
    let mut r = Reader::open("shard snapshot", part, KIND_SHARD)?;
    let n = r.count(4)?;
    let mut users = Vec::with_capacity(n);
    let (mut slots, mut dropped) = (Vec::new(), 0usize);
    for _ in 0..n {
        let (user, out_of_range) = r.user(&mut slots)?;
        users.push(user);
        dropped += out_of_range;
    }
    r.finish()?;
    Ok((users, dropped))
}

/// Decodes one shard part, binary or legacy JSON, as [`decode_shard`].
fn read_shard(part: &[u8]) -> Result<(Vec<RestoredUser>, usize), CoreError> {
    if !is_legacy_json(part) {
        return decode_shard(part);
    }
    let shard: ShardSnap = decode_json("shard snapshot", part)?;
    let dirty: BTreeSet<String> = shard.dirty.into_iter().collect();
    let mut dropped = 0usize;
    let users = shard
        .users
        .into_iter()
        .map(|user| {
            let (acc, out_of_range) = rebuild_accumulator(&user)?;
            dropped += out_of_range;
            let was_dirty = dirty.contains(&user.id) || out_of_range > 0;
            Ok((user.id.into(), acc, was_dirty))
        })
        .collect::<Result<_, CoreError>>()?;
    Ok((users, dropped))
}

/// Decodes the meta part, binary or legacy JSON.
fn read_meta(part: &[u8]) -> Result<MetaSnap, CoreError> {
    const WHAT: &str = "snapshot meta";
    if is_legacy_json(part) {
        return decode_json(WHAT, part);
    }
    let mut r = Reader::open(WHAT, part, KIND_META)?;
    let source_seq = r.varint()?;
    let checkpoint = r.opt_str()?.map(str::to_owned);
    r.finish()?;
    Ok(MetaSnap {
        source_seq,
        checkpoint,
    })
}

/// Opens (creating if necessary) the store at `dir` and recovers the
/// engine persisted there: the newest valid snapshot generation is
/// loaded and the valid log suffix replayed in log order, expiries
/// through the slot release of a windowed cut and each batch through
/// the engine's one write path — its ingest list as one batch, then its
/// retraction list as one signed batch, the order the live writer
/// logged them in. The replay is the `durable.replay` span. Returns the
/// engine, the open store, and the highest monitor batch sequence with
/// its checkpoint.
pub(crate) fn recover(
    pipeline: GeolocationPipeline,
    vfs: Box<dyn Vfs>,
    dir: PathBuf,
) -> Result<(StreamingPipeline, DurableStore, u64, Option<String>), CoreError> {
    let obs = pipeline.obs();
    let (store, recovered) = DurableStore::open_with(vfs, dir, obs.clone())?;
    let mut stream = StreamingPipeline::new(pipeline);
    let mut source_seq = 0u64;
    let mut checkpoint = None;
    if let Some(snap) = &recovered.snapshot {
        let (meta_part, shard_parts) = snap.parts.split_last().ok_or_else(|| {
            CoreError::Store(StoreError::Corrupt {
                path: String::new(),
                reason: "snapshot has no parts".into(),
            })
        })?;
        let meta = read_meta(meta_part)?;
        source_seq = meta.source_seq;
        checkpoint = meta.checkpoint;
        for part in shard_parts {
            // A user with no live post analyzes to nothing, and a refresh
            // would forget it; generations written before refreshes
            // forgot emptied users still list them.
            let (users, dropped) = read_shard(part)?;
            stream.count_out_of_range(dropped);
            for (id, acc, dirty) in users {
                if !acc.slots.is_empty() {
                    stream.shards_mut_ref().restore_user(id, acc, dirty);
                }
            }
        }
        stream.rebuild_derived_state();
    }
    let _replay = crowdtz_obs::span!(obs, "durable.replay");
    for (_, payload) in &recovered.deltas {
        if payload.first() == Some(&KIND_EXPIRY) {
            let cutoff = decode_expiry(payload)?;
            stream.shards_mut_ref().release_below(cutoff, |_| {});
            continue;
        }
        let batch = decode_batch(payload)?;
        for (deltas, retract) in [(&batch.deltas, false), (&batch.retractions, true)] {
            let deltas: Vec<(&str, &[Timestamp])> = deltas
                .iter()
                .map(|(user, posts)| (user.as_str(), posts.as_slice()))
                .collect();
            stream.apply(&deltas, retract, 1, None);
        }
        if batch.source_seq != 0 {
            source_seq = source_seq.max(batch.source_seq);
            if batch.checkpoint.is_some() {
                checkpoint = batch.checkpoint;
            }
        }
    }
    Ok((stream, store, source_seq, checkpoint))
}

/// Builds the full snapshot part set — one shard part per shard in
/// shard-index order, then the meta part — for the engine's current
/// in-memory state: what the concurrent engine's rotation
/// (`concurrent.rs`) persists.
pub(crate) fn build_snapshot_parts(
    stream: &StreamingPipeline,
    source_seq: u64,
    checkpoint: Option<&str>,
) -> Vec<Vec<u8>> {
    let mut parts = Vec::new();
    stream
        .shards_ref()
        .for_each_shard(|users| parts.push(encode_shard(users)));
    parts.push(encode_meta(source_seq, checkpoint));
    parts
}

/// Rebuilds a [`UserAccumulator`] (slots, analysis record) from a
/// legacy JSON user, and the posts dropped with slots outside the key
/// range; the engine then rebuilds profiles from the hour counts the
/// live refresh derives (`StreamingPipeline::rebuild_derived_state`),
/// so the result is bit-identical.
fn rebuild_accumulator(user: &UserSnap) -> Result<(UserAccumulator, usize), CoreError> {
    let analysis = match &user.analysis {
        None => None,
        // An analysis needs a profile, and a profile needs activity.
        Some(_) if user.slots.is_empty() => {
            return Err(codec_err("snapshot analysis with empty activity", &user.id))
        }
        Some(a) if a.placed => Some(UserAnalysis::Kept {
            offset_minutes: a.offset_minutes,
            emd: f64::from_bits(a.emd_bits),
        }),
        Some(_) => Some(UserAnalysis::Flat),
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
    let (mut acc, dropped) =
        UserAccumulator::from_slots(user.slots.iter().copied().zip(slot_counts));
    acc.analysis = analysis;
    Ok((acc, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws below `n` (`n > 0`).
    fn pick(rng: &mut proptest::TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// Ids and checkpoints: empty, ASCII, and multi-byte UTF-8.
    fn text(rng: &mut proptest::TestRng) -> String {
        const WORDS: &[&str] = &[
            "",
            "u1",
            "vendor_42",
            "привет",
            "東京",
            "ü",
            "🧅-relay",
            "a b",
        ];
        (0..pick(rng, 3))
            .map(|_| WORDS[pick(rng, WORDS.len() as u64) as usize])
            .collect()
    }

    /// Timestamps near each other, far apart, and at the `i64` extremes.
    fn secs(rng: &mut proptest::TestRng, near: i64) -> i64 {
        match pick(rng, 6) {
            0 => i64::MIN + pick(rng, 3) as i64,
            1 => i64::MAX - pick(rng, 3) as i64,
            2 => rng.next_u64() as i64,
            _ => near.wrapping_add(pick(rng, 7_200) as i64 - 3_600),
        }
    }

    /// A batch as the writers hand it over: sequence, checkpoint,
    /// deltas, and whether they are retractions.
    type Batch = (u64, Option<String>, Vec<(String, Vec<Timestamp>)>, bool);

    struct Batches;

    impl proptest::Strategy for Batches {
        type Value = Batch;

        fn try_generate(&self, rng: &mut proptest::TestRng) -> Option<Batch> {
            let source_seq = match pick(rng, 4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> pick(rng, 64),
            };
            let checkpoint = (pick(rng, 2) == 0).then(|| text(rng));
            let mut near = 1_451_606_400 + pick(rng, 1 << 25) as i64;
            let mut deltas = |rng: &mut proptest::TestRng| -> Vec<(String, Vec<Timestamp>)> {
                (0..pick(rng, 5))
                    .map(|_| {
                        let posts = (0..pick(rng, 6))
                            .map(|_| {
                                near = secs(rng, near);
                                Timestamp::from_secs(near)
                            })
                            .collect();
                        (text(rng), posts)
                    })
                    .collect()
            };
            let deltas = deltas(rng);
            Some((source_seq, checkpoint, deltas, pick(rng, 2) == 0))
        }
    }

    fn encode(batch: &Batch) -> Vec<u8> {
        let (source_seq, checkpoint, deltas, retract) = batch;
        let deltas: Vec<(&str, &[Timestamp])> = deltas
            .iter()
            .map(|(user, posts)| (user.as_str(), posts.as_slice()))
            .collect();
        encode_batch(*source_seq, checkpoint.as_deref(), &deltas, *retract)
    }

    /// One persisted user as the codec sees it: `(hours since 1970,
    /// live count)` slots, which may lie outside the key range.
    #[derive(Debug, Clone)]
    struct RawUser {
        id: String,
        slots: Vec<(i64, u32)>,
        analysis: Option<UserAnalysis>,
        dirty: bool,
    }

    /// A shard's worth of users: every analysis variant, sub-hour
    /// offsets, NaN and other odd EMD bits, slot counts past the count
    /// escape up to `u32::MAX`, and slot keys out to the `i64` extremes,
    /// most of them outside the key range.
    struct Shards;

    impl proptest::Strategy for Shards {
        type Value = Vec<RawUser>;

        fn try_generate(&self, rng: &mut proptest::TestRng) -> Option<Self::Value> {
            let users = (0..pick(rng, 6))
                .map(|_| {
                    let mut key = match pick(rng, 4) {
                        0 => i64::MIN + pick(rng, 4) as i64,
                        1 => i64::MAX - 40,
                        _ => 400_000 + pick(rng, 1 << 20) as i64 - (1 << 19),
                    };
                    let mut slots = Vec::new();
                    for _ in 0..pick(rng, 12) {
                        let count = match pick(rng, 6) {
                            0 => u32::MAX,
                            1 => 1 + pick(rng, u64::from(u32::MAX)) as u32,
                            2 => 250 + pick(rng, 12) as u32,
                            _ => 1 + pick(rng, 3) as u32,
                        };
                        slots.push((key, count));
                        let span = if pick(rng, 3) == 0 { 1 << 40 } else { 30 };
                        let gap = 1 + pick(rng, span);
                        match key.checked_add(gap as i64) {
                            Some(next) => key = next,
                            None => break,
                        }
                    }
                    let analysis = match (slots.is_empty(), pick(rng, 3)) {
                        (true, _) | (_, 0) => None,
                        (_, 1) => Some(UserAnalysis::Flat),
                        _ => Some(UserAnalysis::Kept {
                            offset_minutes: (pick(rng, 105) as i32 - 48) * 15,
                            emd: match pick(rng, 4) {
                                0 => f64::NAN,
                                1 => f64::from_bits(0x7FF8_0000_DEAD_BEEF),
                                2 => f64::from_bits(rng.next_u64()),
                                _ => rng.unit_f64() * 12.0,
                            },
                        }),
                    };
                    RawUser {
                        id: text(rng),
                        slots,
                        analysis,
                        dirty: pick(rng, 2) == 0,
                    }
                })
                .collect();
            Some(users)
        }
    }

    /// Cutoff slots: 0 and −1, the `i64` extremes, random bits, and keys
    /// near the slots of today's posts.
    struct Cutoffs;

    impl proptest::Strategy for Cutoffs {
        type Value = i64;

        fn try_generate(&self, rng: &mut proptest::TestRng) -> Option<i64> {
            Some(match pick(rng, 4) {
                0 => [0, -1, i64::MIN, i64::MAX][pick(rng, 4) as usize],
                1 => rng.next_u64() as i64,
                _ => 400_000 + pick(rng, 1 << 20) as i64 - (1 << 19),
            })
        }
    }

    fn encode_users(users: &[(Arc<str>, UserAccumulator)]) -> Vec<u8> {
        let refs: Vec<(&str, &UserAccumulator)> =
            users.iter().map(|(id, acc)| (&**id, acc)).collect();
        encode_shard(&refs)
    }

    /// A shard part of raw users, written by the codec's user writer.
    fn encode_raw(users: &[RawUser]) -> Vec<u8> {
        let mut out = vec![KIND_SHARD];
        put_varint(&mut out, users.len() as u64);
        for user in users {
            let slots = user.slots.iter().copied();
            put_user(&mut out, &user.id, user.analysis, user.dirty, slots);
        }
        out
    }

    /// What the engine keeps of a raw user: its slots inside the key
    /// range, dirty when it lost one, and an analysis while a slot is
    /// left — the user as the engine would persist it.
    fn in_range(user: &RawUser) -> RawUser {
        let slots: Vec<(i64, u32)> = user
            .slots
            .iter()
            .copied()
            .filter(|&(k, _)| crate::shard::key_of(k).is_some())
            .collect();
        RawUser {
            id: user.id.clone(),
            dirty: user.dirty || slots.len() < user.slots.len(),
            analysis: user.analysis.filter(|_| !slots.is_empty()),
            slots,
        }
    }

    /// `Copy` view of an analysis that compares the EMD by its bits.
    fn analysis_bits(analysis: Option<UserAnalysis>) -> Option<(bool, i32, u64)> {
        analysis.map(|a| match a {
            UserAnalysis::Flat => (false, 0, 0),
            UserAnalysis::Kept {
                offset_minutes,
                emd,
            } => (true, offset_minutes, emd.to_bits()),
        })
    }

    fn is_codec_err<T>(result: &Result<T, CoreError>) -> bool {
        matches!(result, Err(CoreError::Store(StoreError::Codec { .. })))
    }

    /// Decoded, or refused with a `Codec` error — never anything else.
    fn ok_or_codec_err<T>(result: Result<T, CoreError>) -> bool {
        result.is_ok() || is_codec_err(&result)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        #[test]
        fn batches_round_trip(batch in Batches) {
            let decoded = decode_batch(&encode(&batch)).map_err(|e| e.to_string())?;
            let (source_seq, checkpoint, deltas, retract) = &batch;
            let (ingest, retractions) = if *retract {
                (Vec::new(), deltas.clone())
            } else {
                (deltas.clone(), Vec::new())
            };
            proptest::prop_assert_eq!(
                decoded,
                LogBatch {
                    source_seq: *source_seq,
                    checkpoint: checkpoint.clone(),
                    deltas: ingest,
                    retractions,
                }
            );
        }

        #[test]
        fn accumulators_round_trip(users in Shards) {
            let (decoded, dropped) = decode_shard(&encode_raw(&users)).map_err(|e| e.to_string())?;
            proptest::prop_assert_eq!(decoded.len(), users.len());
            let mut want_dropped = 0usize;
            let mut restored = Vec::new();
            for ((id, mut acc, dirty), raw) in decoded.into_iter().zip(&users) {
                let want = in_range(raw);
                let sum = |slots: &[(i64, u32)]| slots.iter().map(|&(_, c)| c as usize).sum::<usize>();
                want_dropped += sum(&raw.slots) - sum(&want.slots);
                let mut hours = [0u32; crowdtz_stats::BINS];
                for &(k, _) in &want.slots {
                    hours[k.rem_euclid(24) as usize] += 1;
                }
                proptest::prop_assert_eq!(&*id, want.id.as_str());
                proptest::prop_assert_eq!(acc.live_slots().collect::<Vec<_>>(), want.slots.clone());
                proptest::prop_assert_eq!(acc.hour_counts(), hours);
                proptest::prop_assert_eq!(acc.posts, sum(&want.slots));
                proptest::prop_assert_eq!(analysis_bits(acc.analysis), analysis_bits(raw.analysis));
                proptest::prop_assert_eq!(dirty, want.dirty);
                proptest::prop_assert!(!acc.dirty, "restored accumulators arrive clean");
                acc.dirty = dirty;
                restored.push((id, acc));
            }
            proptest::prop_assert_eq!(dropped, want_dropped);
            // The compact accumulators persist exactly the bytes of their
            // in-range slots.
            let kept: Vec<RawUser> = users.iter().map(in_range).collect();
            proptest::prop_assert_eq!(encode_users(&restored), encode_raw(&kept));
        }

        #[test]
        fn expiries_round_trip(cutoff in Cutoffs) {
            let payload = encode_expiry(cutoff);
            proptest::prop_assert_eq!(decode_expiry(&payload).map_err(|e| e.to_string())?, cutoff);
            proptest::prop_assert!(is_codec_err(&decode_batch(&payload)), "an expiry is not a batch");
        }

        #[test]
        fn damaged_payloads_are_codec_errors(
            batch in Batches,
            users in Shards,
            cutoff in Cutoffs,
            seed in 0u64..u64::MAX,
        ) {
            let meta = encode_meta(batch.0, batch.1.as_deref());
            let payloads = [encode(&batch), encode_raw(&users), meta, encode_expiry(cutoff)];
            let decoders: [fn(&[u8]) -> bool; 4] = [
                |p| ok_or_codec_err(decode_batch(p)),
                |p| ok_or_codec_err(read_shard(p)),
                |p| ok_or_codec_err(read_meta(p)),
                |p| ok_or_codec_err(decode_expiry(p)),
            ];
            let strict: [fn(&[u8]) -> bool; 4] = [
                |p| is_codec_err(&decode_batch(p)),
                |p| is_codec_err(&read_shard(p)),
                |p| is_codec_err(&read_meta(p)),
                |p| is_codec_err(&decode_expiry(p)),
            ];
            let mut rng = proptest::TestRng::for_case("damaged_payloads", (seed % 1_000) as u32);
            for (i, payload) in payloads.iter().enumerate() {
                // Every strict prefix is missing bytes the parse needs.
                for cut in 0..payload.len() {
                    proptest::prop_assert!(strict[i](&payload[..cut]), "kind {i} cut at {cut}");
                }
                // A trailing byte is never silently ignored.
                let mut longer = payload.clone();
                longer.push(0);
                proptest::prop_assert!(strict[i](&longer), "kind {i} with a trailing byte");
                // A flipped bit decodes to something or fails as a codec error.
                for _ in 0..16 {
                    let mut flipped = payload.clone();
                    let at = pick(&mut rng, flipped.len() as u64) as usize;
                    flipped[at] ^= 1 << pick(&mut rng, 8);
                    proptest::prop_assert!(decoders[i](&flipped), "kind {i} flip at {at}");
                }
                // So does noise behind any first byte.
                let mut noise = vec![0u8; pick(&mut rng, 48) as usize + 1];
                for byte in noise.iter_mut() {
                    *byte = rng.next_u64() as u8;
                }
                noise[0] = [KIND_BATCH, KIND_SHARD, KIND_META, KIND_EXPIRY, LEGACY_JSON, noise[0]]
                    [pick(&mut rng, 6) as usize];
                proptest::prop_assert!(decoders[i](&noise), "kind {i} noise {noise:?}");
            }
        }
    }

    #[test]
    fn forged_counts_fail_before_reserving() {
        // 2^63 users, slots or deltas promised by a dozen bytes.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let shard = [&[KIND_SHARD][..], &huge].concat();
        assert!(is_codec_err(&decode_shard(&shard)));
        let user = [&[KIND_SHARD, 1, 1, b'u', TAG_NONE, 0][..], &huge].concat();
        assert!(is_codec_err(&decode_shard(&user)));
        let batch = [&[KIND_BATCH, 0, 0][..], &huge].concat();
        assert!(is_codec_err(&decode_batch(&batch)));
        // An eleventh varint byte, and a tenth carrying more than bit 63.
        let long = [&[KIND_META][..], &[0x80; 10], &[0x00]].concat();
        assert!(is_codec_err(&read_meta(&long)));
        let wide = [&[KIND_META][..], &[0xFF; 9], &[0x02, 0x00]].concat();
        assert!(is_codec_err(&read_meta(&wide)));
    }

    #[test]
    fn shard_records_reject_what_the_engine_cannot_hold() {
        let one = |flags: u8, keys: &[u64], counts: &[u64], posts: u64| {
            let mut out = vec![KIND_SHARD, 1, 1, b'u', flags];
            put_varint(&mut out, posts);
            put_varint(&mut out, keys.len() as u64);
            for &k in keys {
                put_varint(&mut out, k);
            }
            for &c in counts {
                put_varint(&mut out, c);
            }
            decode_shard(&out)
        };
        assert!(one(TAG_NONE, &[zigzag(5), zigzag(1)], &[1, 1], 2).is_ok());
        assert!(
            is_codec_err(&one(TAG_NONE, &[zigzag(5), zigzag(0)], &[1, 1], 2)),
            "repeated key"
        );
        assert!(
            is_codec_err(&one(TAG_NONE, &[zigzag(5), zigzag(-1)], &[1, 1], 2)),
            "descending"
        );
        assert!(
            is_codec_err(&one(TAG_NONE, &[zigzag(5)], &[0], 0)),
            "empty slot"
        );
        assert!(
            is_codec_err(&one(TAG_NONE, &[zigzag(5)], &[1 << 32], 1 << 32)),
            "u32 overflow"
        );
        assert!(
            is_codec_err(&one(TAG_NONE, &[zigzag(5)], &[2], 3)),
            "posts mismatch"
        );
        assert!(
            is_codec_err(&one(TAG_FLAT, &[], &[], 0)),
            "analysis without activity"
        );
        assert!(is_codec_err(&one(3, &[zigzag(5)], &[1], 1)), "unknown tag");
        assert!(
            is_codec_err(&one(0x08, &[zigzag(5)], &[1], 1)),
            "unknown flag bit"
        );
    }

    #[test]
    fn meta_round_trips_and_records_check_their_kind() {
        for (seq, checkpoint) in [(0, None), (7, Some("")), (u64::MAX, Some("ckpt-✓"))] {
            let meta = read_meta(&encode_meta(seq, checkpoint)).unwrap();
            assert_eq!(
                (meta.source_seq, meta.checkpoint.as_deref()),
                (seq, checkpoint)
            );
        }
        let meta = encode_meta(1, None);
        assert!(is_codec_err(&decode_batch(&meta)));
        assert!(is_codec_err(&read_shard(&meta)));
        assert!(is_codec_err(&read_meta(&[])));
        assert!(is_codec_err(&read_meta(b"{\"source_seq\":")));
    }

    /// Days `from..=to` of a small two-zone crowd, two posts per user per
    /// day.
    fn days(from: i64, to: i64) -> Vec<(String, Timestamp)> {
        (from..=to)
            .flat_map(|d| {
                (0..6i64).flat_map(move |u| {
                    (0..2i64).map(move |k| {
                        let hour = (u * 5 + k * 7 + d) % 24;
                        (
                            format!("u{u}"),
                            Timestamp::from_secs(d * 86_400 + hour * 3_600),
                        )
                    })
                })
            })
            .collect()
    }

    fn durable_pipeline() -> GeolocationPipeline {
        GeolocationPipeline::default()
            .min_posts(1)
            .threads(1)
            .shards(4)
    }

    fn report_of(engine: &crate::ConcurrentStreamingPipeline) -> String {
        serde_json::to_string(engine.publish().unwrap().report()).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowdtz-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recovery_replays_cutoff_records_around_a_checkpoint() {
        use crate::{ConcurrentStreamingPipeline, WindowConfig, WindowedPipeline};
        let dir = scratch_dir("cutoffs");
        // Three daily buckets: the cut after day `d` keeps days d−2..=d.
        let survivors = |d: i64| {
            let fresh = ConcurrentStreamingPipeline::new(durable_pipeline());
            fresh
                .writer()
                .ingest_posts_ref(&days((d - 2).max(0), d))
                .unwrap();
            report_of(&fresh)
        };
        {
            let engine =
                ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
            let config = WindowConfig {
                bucket_secs: 86_400,
                window_buckets: 3,
                ..WindowConfig::default()
            };
            let window = WindowedPipeline::new(engine, config, None);
            let writer = window.engine().writer();
            for d in 0..9 {
                window.ingest_posts(&writer, &days(d, d)).unwrap();
                let published = window.publish().unwrap();
                assert_eq!(
                    serde_json::to_string(published.report()).unwrap(),
                    survivors(d),
                    "day {d}"
                );
                if d == 4 {
                    assert!(window.engine().checkpoint_now().unwrap().is_some());
                }
            }
        }
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.snapshot.is_some(), "the checkpoint's generation");
        let kinds: Vec<u8> = recovered.deltas.iter().map(|(_, p)| p[0]).collect();
        // Days 5–8 after the checkpoint: a batch then a cutoff each.
        assert_eq!(kinds, [KIND_BATCH, KIND_EXPIRY].repeat(4));
        let engine = ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
        assert_eq!(report_of(&engine), survivors(8));
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_user_whose_posts_all_expire_is_forgotten_across_a_reopen() {
        use crate::{ConcurrentStreamingPipeline, WindowConfig, WindowedPipeline};
        let dir = scratch_dir("forgotten");
        // Two daily buckets: the cut after day 3 keeps days 2–3.
        let windowed = |engine| {
            let config = WindowConfig {
                bucket_secs: 86_400,
                window_buckets: 2,
                ..WindowConfig::default()
            };
            WindowedPipeline::new(engine, config, None)
        };
        let uninterrupted = windowed(ConcurrentStreamingPipeline::new(durable_pipeline()));
        let publish_both = |durable: &WindowedPipeline, posts: &[(String, Timestamp)]| {
            for window in [durable, &uninterrupted] {
                let writer = window.engine().writer();
                window.ingest_posts(&writer, posts).unwrap();
            }
            let got = durable.publish().unwrap();
            let want = uninterrupted.publish().unwrap();
            assert_eq!(
                serde_json::to_string(got.report()).unwrap(),
                serde_json::to_string(want.report()).unwrap()
            );
        };
        let gone = [("gone".to_owned(), Timestamp::from_secs(20 * 3_600))];
        {
            let durable = windowed(
                ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap(),
            );
            publish_both(&durable, &[&gone[..], &days(0, 1)].concat());
            assert_eq!(durable.engine().users_tracked(), 7);
            // Day 3 expires days 0–1: `gone` has no live post left.
            publish_both(&durable, &days(2, 3));
            assert_eq!(durable.engine().users_tracked(), 6, "`gone` is forgotten");
            assert!(durable.engine().checkpoint_now().unwrap().is_some());
        }
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        let parts = &recovered
            .snapshot
            .expect("the checkpoint's generation")
            .parts;
        let (_, shards) = parts.split_last().unwrap();
        let mut ids: Vec<String> = Vec::new();
        for part in shards {
            ids.extend(
                decode_shard(part)
                    .unwrap()
                    .0
                    .into_iter()
                    .map(|(id, _, _)| id.to_string()),
            );
        }
        ids.sort();
        assert_eq!(ids, ["u0", "u1", "u2", "u3", "u4", "u5"]);
        let reopened =
            windowed(ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap());
        assert_eq!(reopened.engine().users_tracked(), 6);
        publish_both(&reopened, &days(4, 4));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_with_both_lists_replays_as_ingest_then_retraction() {
        use crate::ConcurrentStreamingPipeline;
        // `gone` is ingested and retracted by the same record: replaying
        // the retraction list first would leave its post behind.
        let gone = ("gone".to_owned(), Timestamp::from_secs(20 * 3_600));
        let posts = [days(0, 3), vec![gone.clone()]].concat();
        let retracted = [posts.iter().step_by(3).cloned().collect(), vec![gone]].concat();
        let per_post = |posts: &[(String, Timestamp)]| -> Vec<(String, Vec<Timestamp>)> {
            posts.iter().map(|(u, t)| (u.clone(), vec![*t])).collect()
        };
        let (ingest, retractions) = (per_post(&posts), per_post(&retracted));
        fn as_refs(deltas: &[(String, Vec<Timestamp>)]) -> Vec<(&str, &[Timestamp])> {
            deltas
                .iter()
                .map(|(u, p)| (u.as_str(), p.as_slice()))
                .collect()
        }
        let mut binary = vec![KIND_BATCH];
        put_varint(&mut binary, 7);
        put_opt_str(&mut binary, Some("mixed"));
        let mut prev = 0i64;
        put_deltas(&mut binary, &mut prev, &as_refs(&ingest));
        put_deltas(&mut binary, &mut prev, &as_refs(&retractions));
        let json = |deltas: &[(String, Vec<Timestamp>)]| -> String {
            let items: Vec<String> = deltas
                .iter()
                .map(|(u, p)| format!("[{u:?},[{}]]", p[0].as_secs()))
                .collect();
            items.join(",")
        };
        let legacy = format!(
            r#"{{"source_seq":7,"checkpoint":"mixed","deltas":[{}],"retractions":[{}]}}"#,
            json(&ingest),
            json(&retractions)
        );
        let decoded = decode_batch(&binary).unwrap();
        assert_eq!(decoded, decode_batch(legacy.as_bytes()).unwrap());
        assert_eq!((decoded.deltas, decoded.retractions), (ingest, retractions));

        let live = ConcurrentStreamingPipeline::new(durable_pipeline());
        let writer = live.writer();
        writer.ingest_posts_ref(&posts).unwrap();
        writer.retract_posts_ref(&retracted).unwrap();
        let want = report_of(&live);
        for (tag, payload) in [
            ("mixed-binary", binary),
            ("mixed-json", legacy.into_bytes()),
        ] {
            let dir = scratch_dir(tag);
            DurableStore::open(&dir)
                .unwrap()
                .0
                .append_delta(&payload)
                .unwrap();
            let engine =
                ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
            assert_eq!(engine.posts_ingested(), live.posts_ingested(), "{tag}");
            assert_eq!(report_of(&engine), want, "{tag}");
            assert_eq!(engine.users_tracked(), live.users_tracked(), "{tag}");
            assert_eq!(engine.last_source_seq(), 7);
            assert_eq!(engine.source_checkpoint().as_deref(), Some("mixed"));
            drop(engine);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn replay_counts_deltas_and_releases_like_the_live_writer() {
        use crate::ConcurrentStreamingPipeline;
        use crowdtz_obs::Observer;
        let dir = scratch_dir("counters");
        let counters = |observer: &Observer| {
            let counters = observer.snapshot().counters;
            [
                "streaming.deltas",
                "streaming.posts_ingested",
                "streaming.posts_retracted",
            ]
            .map(|name| counters[name])
        };
        let open = |observer: &std::sync::Arc<Observer>| {
            let pipeline = durable_pipeline().observer(std::sync::Arc::clone(observer));
            ConcurrentStreamingPipeline::open_durable(pipeline, &dir).unwrap()
        };
        let t = Timestamp::from_secs(20 * 3_600);
        let live = Observer::from_env();
        let released = {
            let writer = open(&live).writer();
            // An empty delta beside a real one, then a post never ingested.
            writer.ingest_deltas(&[("a", &[]), ("b", &[t])]).unwrap();
            writer.retract_posts_ref(&[("b", t + 3_600)]).unwrap()
        };
        let replayed = Observer::from_env();
        let engine = open(&replayed);
        assert_eq!(released, 0);
        assert_eq!(counters(&live), [2, 1, 0]);
        assert_eq!(counters(&replayed), counters(&live));
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_times_the_suffix_replay_once() {
        use crate::ConcurrentStreamingPipeline;
        use crowdtz_obs::Observer;
        let dir = scratch_dir("replay-span");
        {
            let engine =
                ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
            let writer = engine.writer();
            writer.ingest_posts_ref(&days(0, 2)).unwrap();
            writer.ingest_posts_ref(&days(3, 4)).unwrap();
        }
        let observer = Observer::from_env();
        let pipeline = durable_pipeline().observer(std::sync::Arc::clone(&observer));
        let engine = ConcurrentStreamingPipeline::open_durable(pipeline, &dir).unwrap();
        assert_eq!(observer.snapshot().counters["store.records_replayed"], 2);
        let replays: Vec<_> = observer
            .stage_timings()
            .into_iter()
            .filter(|stage| stage.name == "durable.replay")
            .map(|stage| stage.calls)
            .collect();
        assert_eq!(replays, [1]);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_user_emptied_before_a_checkpoint_recovers() {
        use crate::ConcurrentStreamingPipeline;
        let dir = scratch_dir("emptied");
        let gone = days(0, 2);
        let kept = days(3, 5);
        {
            let engine =
                ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
            let writer = engine.writer();
            writer.ingest_posts_ref(&gone).unwrap();
            writer
                .ingest("stays", &[Timestamp::from_secs(20 * 3_600)])
                .unwrap();
            engine.publish().unwrap();
            // Every post of u0..u5 retracted, then a generation written
            // before any refresh: those users are dirty and empty.
            writer.retract_posts_ref(&gone).unwrap();
            assert!(engine.checkpoint_now().unwrap().is_some());
            writer.ingest_posts_ref(&kept).unwrap();
        }
        let engine = ConcurrentStreamingPipeline::open_durable(durable_pipeline(), &dir).unwrap();
        let fresh = ConcurrentStreamingPipeline::new(durable_pipeline());
        let writer = fresh.writer();
        writer
            .ingest("stays", &[Timestamp::from_secs(20 * 3_600)])
            .unwrap();
        writer.ingest_posts_ref(&kept).unwrap();
        assert_eq!(report_of(&engine), report_of(&fresh));
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
