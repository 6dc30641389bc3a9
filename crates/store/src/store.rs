//! The durable store proper: a directory holding snapshot generations
//! plus an append-only delta log.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/deltas.log                  append-only framed records, one per batch
//! <dir>/snap-<gen16>.manifest       one framed record; JSON Manifest payload
//! <dir>/snap-<gen16>-<part4>.part   one framed record; opaque payload
//! <dir>/*.tmp                       in-flight writes; deleted on open
//! <dir>/*.corrupt                   quarantined files; never read again
//! ```
//!
//! The manifest rename is the commit point for a snapshot generation:
//! parts are written and fsynced first, then the manifest is written to
//! a `.tmp` name, fsynced, renamed into place, and the directory is
//! fsynced. A crash anywhere before the rename leaves only uncommitted
//! part files, which recovery deletes; a crash after leaves a fully
//! valid generation. The two newest committed generations are retained
//! so that a corrupt newest generation (bit rot after commit) still has
//! a fallback; older generations are pruned at the next rotation.
//!
//! The store is payload-agnostic: callers hand it opaque bytes for both
//! delta records and snapshot parts. Sequence numbers are assigned by
//! the store (monotonic from 1) and returned from [`DurableStore::append_delta`];
//! a snapshot covers everything up to its `last_seq`, and recovery
//! returns the snapshot plus only the log records *after* it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdtz_obs::{Counter, Observer};
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::log::{decode_blob, decode_log, encode_record, scan_log, TailState};
use crate::vfs::{file_in, RealVfs, Vfs};

/// Name of the delta log inside a store directory.
pub const LOG_FILE: &str = "deltas.log";

/// Manifest format version; bumped if the layout ever changes.
const MANIFEST_VERSION: u32 = 1;

/// Log size (bytes) above which [`DurableStore::should_snapshot`]
/// recommends rotating.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    generation: u64,
    last_seq: u64,
    part_crcs: Vec<u32>,
}

/// A fully verified snapshot recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    pub generation: u64,
    pub last_seq: u64,
    pub parts: Vec<Vec<u8>>,
}

/// What recovery had to do to get the store open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid log records returned for replay (seq beyond the snapshot).
    pub records_replayed: u64,
    /// Complete records that failed CRC and were truncated away.
    pub corrupt_records_skipped: u64,
    /// Bytes of torn/corrupt tail removed from the log.
    pub tail_bytes_truncated: u64,
    /// Snapshot generations quarantined as corrupt.
    pub generations_quarantined: u64,
    /// Valid log records already covered by the snapshot and dropped.
    pub stale_records_dropped: u64,
}

/// Result of opening a store directory.
#[derive(Debug)]
pub struct Recovered {
    /// Newest snapshot generation that verified end-to-end, if any.
    pub snapshot: Option<SnapshotData>,
    /// `(seq, payload)` of every valid log record past the snapshot,
    /// in sequence order.
    pub deltas: Vec<(u64, Vec<u8>)>,
    pub stats: RecoveryStats,
}

/// Crash-safe snapshot + delta-log store over a [`Vfs`].
#[derive(Debug)]
pub struct DurableStore {
    vfs: Box<dyn Vfs>,
    dir: PathBuf,
    /// Sequence number the next appended delta will get.
    next_seq: u64,
    /// Generation number the next snapshot will get.
    next_gen: u64,
    /// Committed generations on disk, oldest → newest: `(gen, last_seq)`.
    retained: Vec<(u64, u64)>,
    /// Current byte length of the (valid portion of the) delta log.
    log_len: u64,
    metrics: Option<StoreMetrics>,
}

/// The counters a live store bumps (`store.*`), resolved once at open.
#[derive(Debug)]
struct StoreMetrics {
    deltas_appended: Counter,
    snapshots_written: Counter,
    log_compactions: Counter,
}

fn manifest_name(gen: u64) -> String {
    format!("snap-{gen:016}.manifest")
}

fn part_name(gen: u64, part: usize) -> String {
    format!("snap-{gen:016}-{part:04}.part")
}

/// Parse `snap-<gen16>.manifest` → generation.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".manifest")?;
    (rest.len() == 16).then(|| rest.parse().ok())?
}

/// Parse `snap-<gen16>-<part4>.part` → (generation, part index).
fn parse_part_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".part")?;
    if rest.len() != 21 {
        return None;
    }
    let (gen, part) = rest.split_at(16);
    let part = part.strip_prefix('-')?;
    Some((gen.parse().ok()?, part.parse().ok()?))
}

impl DurableStore {
    /// Open (creating if necessary) a store at `dir` with the real
    /// filesystem and no observer.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, Recovered), StoreError> {
        Self::open_with(Box::new(RealVfs::new()), dir, None)
    }

    /// Open with an explicit [`Vfs`] (e.g. a
    /// [`crate::fault::FaultStore`]) and optional observer.
    ///
    /// Recovery is paranoid and idempotent: corrupt generations are
    /// quarantined (renamed `*.corrupt`), uncommitted part/tmp files
    /// deleted, and a torn or corrupt log tail truncated. Crashing
    /// *during* recovery and reopening converges to the same state.
    pub fn open_with(
        vfs: Box<dyn Vfs>,
        dir: impl Into<PathBuf>,
        obs: Option<Arc<Observer>>,
    ) -> Result<(Self, Recovered), StoreError> {
        let dir = dir.into();
        let span_obs = obs.clone();
        let _span = crowdtz_obs::span!(span_obs, "store.recovery");
        vfs.create_dir_all(&dir)?;
        let mut stats = RecoveryStats::default();

        // Sweep leftover tmp files from interrupted writes.
        let names = vfs.list(&dir)?;
        for name in names.iter().filter(|n| n.ends_with(".tmp")) {
            vfs.remove(&file_in(&dir, name))?;
        }

        // Index committed-looking snapshot files.
        let mut manifest_gens: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_manifest_name(n))
            .collect();
        manifest_gens.sort_unstable();
        let part_index: Vec<(u64, usize)> =
            names.iter().filter_map(|n| parse_part_name(n)).collect();
        let max_gen_seen = manifest_gens
            .iter()
            .copied()
            .chain(part_index.iter().map(|&(g, _)| g))
            .max()
            .unwrap_or(0);

        // Try generations newest-first; quarantine the ones that fail.
        let mut snapshot: Option<SnapshotData> = None;
        for &gen in manifest_gens.iter().rev() {
            match Self::load_generation(vfs.as_ref(), &dir, gen) {
                Some(snap) => {
                    snapshot = Some(snap);
                    break;
                }
                None => {
                    stats.generations_quarantined += 1;
                    Self::quarantine_generation(vfs.as_ref(), &dir, gen, &part_index)?;
                }
            }
        }

        // Delete uncommitted or pruned leftovers: part files whose
        // generation has no surviving manifest, and committed generations
        // older than the one we just verified (they would have been
        // pruned at the next rotation anyway; recovery proves the newest
        // one good, so the fallback has served its purpose). An older
        // generation that fails verification is quarantined like a newer
        // one, not deleted: its files are the evidence of the rot.
        let keep_gen = snapshot.as_ref().map(|s| s.generation);
        for &(gen, part) in &part_index {
            if Some(gen) != keep_gen && manifest_gens.binary_search(&gen).is_err() {
                let path = file_in(&dir, &part_name(gen, part));
                if vfs.exists(&path) {
                    vfs.remove(&path)?;
                }
            }
        }
        for &gen in manifest_gens
            .iter()
            .filter(|&&g| keep_gen.is_some_and(|k| g < k))
        {
            if Self::load_generation(vfs.as_ref(), &dir, gen).is_some() {
                Self::delete_generation(vfs.as_ref(), &dir, gen, &part_index)?;
            } else {
                stats.generations_quarantined += 1;
                Self::quarantine_generation(vfs.as_ref(), &dir, gen, &part_index)?;
            }
        }

        // Open the log: truncate any invalid tail, drop records the
        // snapshot already covers, and hand the rest back for replay.
        let log_path = file_in(&dir, LOG_FILE);
        let snap_last_seq = snapshot.as_ref().map_or(0, |s| s.last_seq);
        let mut deltas = Vec::new();
        let log_len;
        let mut max_seq = snap_last_seq;
        if vfs.exists(&log_path) {
            let data = vfs.read(&log_path)?;
            let decoded = decode_log(&data);
            match decoded.tail {
                TailState::Clean => {}
                TailState::Torn { bytes } => {
                    stats.tail_bytes_truncated += bytes;
                }
                TailState::Corrupt { bytes } => {
                    stats.corrupt_records_skipped += 1;
                    stats.tail_bytes_truncated += bytes;
                }
            }
            if decoded.valid_len < data.len() as u64 {
                vfs.truncate(&log_path, decoded.valid_len)?;
                vfs.sync(&log_path)?;
            }
            log_len = decoded.valid_len;
            for (seq, payload) in decoded.records {
                max_seq = max_seq.max(seq);
                if seq > snap_last_seq {
                    deltas.push((seq, payload));
                } else {
                    stats.stale_records_dropped += 1;
                }
            }
            deltas.sort_by_key(|&(seq, _)| seq);
        } else {
            // Create the log up front so later appends never create a
            // file whose directory entry was never fsynced.
            vfs.write(&log_path, &[])?;
            vfs.sync(&log_path)?;
            vfs.sync_dir(&dir)?;
            log_len = 0;
        }
        stats.records_replayed = deltas.len() as u64;

        let metrics = obs.as_ref().map(|o| {
            o.counter("store.records_replayed")
                .add(stats.records_replayed);
            o.counter("store.corrupt_records_skipped")
                .add(stats.corrupt_records_skipped);
            o.counter("store.generations_quarantined")
                .add(stats.generations_quarantined);
            StoreMetrics {
                deltas_appended: o.counter("store.deltas_appended"),
                snapshots_written: o.counter("store.snapshots_written"),
                log_compactions: o.counter("store.log_compactions"),
            }
        });

        let retained = snapshot
            .as_ref()
            .map(|s| vec![(s.generation, s.last_seq)])
            .unwrap_or_default();
        let store = DurableStore {
            vfs,
            dir,
            next_seq: max_seq + 1,
            next_gen: max_gen_seen + 1,
            retained,
            log_len,
            metrics,
        };
        Ok((
            store,
            Recovered {
                snapshot,
                deltas,
                stats,
            },
        ))
    }

    /// Read and fully verify one committed generation. `None` means
    /// anything at all was wrong with it.
    fn load_generation(vfs: &dyn Vfs, dir: &Path, gen: u64) -> Option<SnapshotData> {
        let raw = vfs.read(&file_in(dir, &manifest_name(gen))).ok()?;
        let payload = decode_blob(&raw, gen)?;
        let manifest: Manifest = serde_json::from_str(std::str::from_utf8(&payload).ok()?).ok()?;
        if manifest.version != MANIFEST_VERSION || manifest.generation != gen {
            return None;
        }
        let mut parts = Vec::with_capacity(manifest.part_crcs.len());
        for (i, &want_crc) in manifest.part_crcs.iter().enumerate() {
            let raw = vfs.read(&file_in(dir, &part_name(gen, i))).ok()?;
            let part = decode_blob(&raw, gen)?;
            if crate::crc::crc32(&part) != want_crc {
                return None;
            }
            parts.push(part);
        }
        Some(SnapshotData {
            generation: gen,
            last_seq: manifest.last_seq,
            parts,
        })
    }

    /// Rename every file of a bad generation to `<name>.corrupt`.
    /// Manifest first, so a crash mid-quarantine leaves the remaining
    /// parts manifest-less (deleted as uncommitted on the next open)
    /// rather than resurrecting a half-quarantined generation.
    fn quarantine_generation(
        vfs: &dyn Vfs,
        dir: &Path,
        gen: u64,
        part_index: &[(u64, usize)],
    ) -> Result<(), StoreError> {
        let manifest = file_in(dir, &manifest_name(gen));
        if vfs.exists(&manifest) {
            let to = file_in(dir, &format!("{}.corrupt", manifest_name(gen)));
            vfs.rename(&manifest, &to)?;
        }
        for &(g, part) in part_index {
            if g == gen {
                let from = file_in(dir, &part_name(gen, part));
                if vfs.exists(&from) {
                    let to = file_in(dir, &format!("{}.corrupt", part_name(gen, part)));
                    vfs.rename(&from, &to)?;
                }
            }
        }
        Ok(())
    }

    /// Remove every file of a committed generation. Manifest first:
    /// once it is gone the generation is uncommitted, and a crash
    /// mid-delete leaves only part files that the next open sweeps.
    fn delete_generation(
        vfs: &dyn Vfs,
        dir: &Path,
        gen: u64,
        part_index: &[(u64, usize)],
    ) -> Result<(), StoreError> {
        let manifest = file_in(dir, &manifest_name(gen));
        if vfs.exists(&manifest) {
            vfs.remove(&manifest)?;
        }
        for &(g, part) in part_index {
            if g == gen {
                let path = file_in(dir, &part_name(gen, part));
                if vfs.exists(&path) {
                    vfs.remove(&path)?;
                }
            }
        }
        Ok(())
    }

    /// Append one delta record and fsync it. Returns the sequence
    /// number assigned to the record; once this returns `Ok`, the
    /// record is durable and recovery is guaranteed to return it (or a
    /// snapshot covering it).
    pub fn append_delta(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let rec = encode_record(seq, payload);
        let log_path = file_in(&self.dir, LOG_FILE);
        self.vfs.append(&log_path, &rec)?;
        self.vfs.sync(&log_path)?;
        self.next_seq += 1;
        self.log_len += rec.len() as u64;
        if let Some(metrics) = &self.metrics {
            metrics.deltas_appended.inc();
        }
        Ok(seq)
    }

    /// Write a new snapshot generation covering everything up to
    /// `last_seq`, then prune old generations (keeping this one and its
    /// predecessor) and compact the log down to records newer than the
    /// oldest retained generation.
    ///
    /// Commit point is the manifest rename; a crash before it leaves
    /// the previous generation authoritative and the new one's files as
    /// deletable junk.
    pub fn write_snapshot(&mut self, last_seq: u64, parts: &[Vec<u8>]) -> Result<u64, StoreError> {
        let gen = self.next_gen;
        let mut part_crcs = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            let path = file_in(&self.dir, &part_name(gen, i));
            self.vfs.write(&path, &encode_record(gen, part))?;
            self.vfs.sync(&path)?;
            part_crcs.push(crate::crc::crc32(part));
        }
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            generation: gen,
            last_seq,
            part_crcs,
        };
        let body = serde_json::to_string(&manifest).map_err(|e| StoreError::Codec {
            reason: e.to_string(),
        })?;
        let tmp = file_in(&self.dir, &format!("{}.tmp", manifest_name(gen)));
        self.vfs.write(&tmp, &encode_record(gen, body.as_bytes()))?;
        self.vfs.sync(&tmp)?;
        self.vfs
            .rename(&tmp, &file_in(&self.dir, &manifest_name(gen)))?;
        self.vfs.sync_dir(&self.dir)?;
        // Committed. Everything past this point is cleanup that the
        // next open would redo if we crashed here.
        self.next_gen = gen + 1;
        self.retained.push((gen, last_seq));
        while self.retained.len() > 2 {
            let (old_gen, _) = self.retained.remove(0);
            self.remove_generation_files(old_gen)?;
        }
        if let Some(metrics) = &self.metrics {
            metrics.snapshots_written.inc();
        }
        self.compact()?;
        Ok(gen)
    }

    fn remove_generation_files(&self, gen: u64) -> Result<(), StoreError> {
        let manifest = file_in(&self.dir, &manifest_name(gen));
        if self.vfs.exists(&manifest) {
            self.vfs.remove(&manifest)?;
        }
        for part in 0.. {
            let path = file_in(&self.dir, &part_name(gen, part));
            if !self.vfs.exists(&path) {
                break;
            }
            self.vfs.remove(&path)?;
        }
        Ok(())
    }

    /// Rewrite the log keeping only records newer than the oldest
    /// retained snapshot, and none of a torn or corrupt tail. No-op when
    /// nothing can be dropped.
    ///
    /// Records ascend by seq, so the kept records are one contiguous
    /// suffix of the log's valid prefix: it is written exactly as it was
    /// read, with no decode or re-encode.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let Some(&(_, floor)) = self.retained.first() else {
            return Ok(());
        };
        let log_path = file_in(&self.dir, LOG_FILE);
        let data = self.vfs.read(&log_path)?;
        let mut kept_from = None;
        let mut last_seq = 0;
        let (valid_len, _) = scan_log(&data, |offset, seq, _| {
            debug_assert!(seq > last_seq, "log records ascend by seq");
            last_seq = seq;
            if seq > floor && kept_from.is_none() {
                kept_from = Some(offset);
            }
        });
        let valid_len = valid_len as usize;
        let kept = &data[kept_from.unwrap_or(valid_len)..valid_len];
        if kept.len() == data.len() {
            return Ok(());
        }
        let tmp = file_in(&self.dir, &format!("{LOG_FILE}.tmp"));
        self.vfs.write(&tmp, kept)?;
        self.vfs.sync(&tmp)?;
        self.vfs.rename(&tmp, &log_path)?;
        self.vfs.sync_dir(&self.dir)?;
        self.log_len = kept.len() as u64;
        if let Some(metrics) = &self.metrics {
            metrics.log_compactions.inc();
        }
        Ok(())
    }

    /// Whether the log has grown past [`DEFAULT_COMPACT_THRESHOLD`] and
    /// the caller should snapshot (which rotates and compacts).
    pub fn should_snapshot(&self) -> bool {
        self.log_len >= DEFAULT_COMPACT_THRESHOLD
    }

    /// Highest sequence number assigned so far (0 before any append).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current valid byte length of the delta log.
    pub fn log_len(&self) -> u64 {
        self.log_len
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
