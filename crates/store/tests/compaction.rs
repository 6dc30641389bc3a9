//! Compaction writes the kept suffix of the log as it was read: a
//! property test over random logs, tails and floors against a reference
//! that decodes the log and encodes the kept records again, on an
//! in-memory `Vfs` that journals every mutating call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crowdtz_store::{
    decode_log, encode_record, DurableStore, StoreError, Vfs, VfsResult, LOG_FILE,
};

/// Files in memory, shared between the store and the test.
#[derive(Debug, Clone, Default)]
struct MemVfs {
    files: Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>,
    /// Every mutating call, as `op file-name…`.
    calls: Arc<Mutex<Vec<String>>>,
}

impl MemVfs {
    fn files(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.files.lock().unwrap()
    }

    fn journal(&self, op: &str, paths: &[&Path]) {
        let names: Vec<_> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        self.calls
            .lock()
            .unwrap()
            .push(format!("{op} {}", names.join(" ")));
    }

    fn take_calls(&self) -> Vec<String> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }

    fn missing(op: &'static str, path: &Path) -> StoreError {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            reason: "no such file".into(),
        }
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &Path) -> VfsResult<Vec<u8>> {
        let files = self.files();
        files
            .get(path)
            .cloned()
            .ok_or_else(|| Self::missing("read", path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> VfsResult<()> {
        self.journal("write", &[path]);
        self.files().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> VfsResult<()> {
        self.journal("append", &[path]);
        let mut files = self.files();
        files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> VfsResult<()> {
        self.journal("sync", &[path]);
        if self.exists(path) {
            Ok(())
        } else {
            Err(Self::missing("sync", path))
        }
    }

    fn sync_dir(&self, dir: &Path) -> VfsResult<()> {
        self.journal("sync_dir", &[dir]);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> VfsResult<()> {
        self.journal("rename", &[from, to]);
        let mut files = self.files();
        let data = files
            .remove(from)
            .ok_or_else(|| Self::missing("rename", from))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> VfsResult<()> {
        self.journal("remove", &[path]);
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| Self::missing("remove", path))
    }

    fn truncate(&self, path: &Path, len: u64) -> VfsResult<()> {
        self.journal("truncate", &[path]);
        let mut files = self.files();
        let data = files
            .get_mut(path)
            .ok_or_else(|| Self::missing("truncate", path))?;
        data.truncate(len as usize);
        Ok(())
    }

    fn list(&self, dir: &Path) -> VfsResult<Vec<String>> {
        Ok(self
            .files()
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path)
    }

    fn create_dir_all(&self, _dir: &Path) -> VfsResult<()> {
        Ok(())
    }
}

/// What the log's invalid tail is made of.
fn tail(rng: &mut StdRng, seq: u64) -> Vec<u8> {
    let mut payload = vec![0u8; rng.gen_range(0..=64)];
    rng.fill_bytes(&mut payload);
    let mut record = encode_record(seq, &payload);
    match rng.gen_range(0..3) {
        0 => Vec::new(),
        // A crash mid-append: a strict, non-empty prefix of a record.
        1 => {
            record.truncate(rng.gen_range(1..record.len()));
            record
        }
        // Bit rot in a complete record (a flip in its length field may
        // read as torn instead; either way it is not valid).
        _ => {
            let at = rng.gen_range(0..record.len());
            record[at] ^= 1 << rng.gen_range(0..8);
            record
        }
    }
}

#[test]
fn compaction_writes_the_kept_suffix_exactly_as_reencoding_it_would() {
    let dir = Path::new("/mem/store");
    let log = dir.join(LOG_FILE);
    let mut rng = StdRng::seed_from_u64(0xC0_4AC7);
    for case in 0..12 {
        let records = rng.gen_range(1..=200u64);
        let mut valid = Vec::new();
        for seq in 1..=records {
            let mut payload = vec![0u8; rng.gen_range(0..=2048)];
            rng.fill_bytes(&mut payload);
            valid.extend_from_slice(&encode_record(seq, &payload));
        }
        let tail = tail(&mut rng, records + 1);
        let mut data = valid.clone();
        data.extend_from_slice(&tail);
        // The reference: every valid record past the floor, decoded and
        // encoded again.
        let decoded = decode_log(&data);
        assert_eq!(decoded.records.len() as u64, records);
        let reencoded = |floor: u64| -> Vec<u8> {
            let mut out = Vec::new();
            for (seq, payload) in decoded.records.iter().filter(|(seq, _)| *seq > floor) {
                out.extend_from_slice(&encode_record(*seq, payload));
            }
            out
        };
        for floor in 0..=records {
            let vfs = MemVfs::default();
            vfs.files().insert(log.clone(), valid.clone());
            let (mut store, recovered) =
                DurableStore::open_with(Box::new(vfs.clone()), dir, None).unwrap();
            assert_eq!(recovered.deltas.len() as u64, records);
            // The tail arrives after the open, as a failed append that
            // the process outlived would leave it.
            vfs.files().get_mut(&log).unwrap().extend_from_slice(&tail);
            vfs.take_calls();
            store.write_snapshot(floor, &[]).unwrap();
            let want = reencoded(floor);
            let compacted = vfs.files()[&log].clone();
            assert!(
                compacted == want,
                "case {case}, floor {floor}: compaction wrote {} bytes, re-encoding {}",
                compacted.len(),
                want.len()
            );
            assert_eq!(store.log_len(), compacted.len() as u64);
            // The manifest commit, then the log's own write-fsync-rename
            // dance, unless there was nothing to drop.
            let calls = vfs.take_calls();
            let compaction: &[String] = if want == data {
                &[]
            } else {
                &[
                    format!("write {LOG_FILE}.tmp"),
                    format!("sync {LOG_FILE}.tmp"),
                    format!("rename {LOG_FILE}.tmp {LOG_FILE}"),
                    "sync_dir store".to_string(),
                ]
            };
            assert_eq!(calls.len(), 4 + compaction.len(), "{calls:?}");
            assert!(calls[0].ends_with(".manifest.tmp"), "{calls:?}");
            assert_eq!(calls[4..], *compaction, "case {case}, floor {floor}");
        }
    }
}
