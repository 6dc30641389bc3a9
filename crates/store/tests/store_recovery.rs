//! Integration tests for `DurableStore`: clean roundtrips, torn-tail
//! recovery, generation fallback, and an exhaustive crash-point sweep
//! over a scripted workload.

use std::path::PathBuf;

use crowdtz_store::{
    decode_log, encode_record, DurableStore, FaultPlan, FaultStore, StoreError, TailState, LOG_FILE,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(i: u64) -> Vec<u8> {
    format!("batch-{i}-{}", "x".repeat((i % 7) as usize * 10)).into_bytes()
}

#[test]
fn fresh_open_then_reopen_roundtrips_deltas() {
    let dir = tmp_dir("roundtrip");
    let (mut store, rec) = DurableStore::open(&dir).unwrap();
    assert!(rec.snapshot.is_none());
    assert!(rec.deltas.is_empty());
    for i in 0..5 {
        let seq = store.append_delta(&batch(i)).unwrap();
        assert_eq!(seq, i + 1, "sequence numbers are dense from 1");
    }
    drop(store);

    let (store, rec) = DurableStore::open(&dir).unwrap();
    assert!(rec.snapshot.is_none());
    let seqs: Vec<u64> = rec.deltas.iter().map(|&(s, _)| s).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    for (i, (_, payload)) in rec.deltas.iter().enumerate() {
        assert_eq!(payload, &batch(i as u64));
    }
    assert_eq!(store.last_seq(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_covers_prefix_and_replay_returns_only_suffix() {
    let dir = tmp_dir("suffix");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    for i in 0..4 {
        store.append_delta(&batch(i)).unwrap();
    }
    store
        .write_snapshot(3, &[b"shard-a".to_vec(), b"shard-b".to_vec()])
        .unwrap();
    store.append_delta(&batch(9)).unwrap();
    drop(store);

    let (_, rec) = DurableStore::open(&dir).unwrap();
    let snap = rec.snapshot.expect("snapshot must be recovered");
    assert_eq!(snap.last_seq, 3);
    assert_eq!(snap.parts, vec![b"shard-a".to_vec(), b"shard-b".to_vec()]);
    let seqs: Vec<u64> = rec.deltas.iter().map(|&(s, _)| s).collect();
    assert_eq!(seqs, vec![4, 5], "only records past last_seq replay");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_log_tail_is_truncated_silently() {
    let dir = tmp_dir("torn");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    store.append_delta(&batch(1)).unwrap();
    store.append_delta(&batch(2)).unwrap();
    drop(store);

    // Simulate a crash mid-append: a partial third record at the tail.
    let log = dir.join(LOG_FILE);
    let mut data = std::fs::read(&log).unwrap();
    let torn = encode_record(3, &batch(3));
    data.extend_from_slice(&torn[..torn.len() - 5]);
    std::fs::write(&log, &data).unwrap();

    let (mut store, rec) = DurableStore::open(&dir).unwrap();
    assert_eq!(rec.deltas.len(), 2, "torn tail is a clean end-of-log");
    assert!(rec.stats.tail_bytes_truncated > 0);
    assert_eq!(rec.stats.corrupt_records_skipped, 0);
    // The file itself was repaired, and the store keeps appending
    // seamlessly after the truncation point.
    let reread = decode_log(&std::fs::read(&log).unwrap());
    assert_eq!(reread.tail, TailState::Clean);
    assert_eq!(store.append_delta(&batch(4)).unwrap(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_record_counts_and_truncates() {
    let dir = tmp_dir("corrupt");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    store.append_delta(&batch(1)).unwrap();
    let keep_len = std::fs::read(dir.join(LOG_FILE)).unwrap().len();
    store.append_delta(&batch(2)).unwrap();
    drop(store);

    // Flip one payload bit inside the second record.
    let log = dir.join(LOG_FILE);
    let mut data = std::fs::read(&log).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x40;
    std::fs::write(&log, &data).unwrap();

    let (_, rec) = DurableStore::open(&dir).unwrap();
    assert_eq!(rec.deltas.len(), 1);
    assert_eq!(rec.stats.corrupt_records_skipped, 1);
    assert_eq!(std::fs::read(&log).unwrap().len(), keep_len);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_newest_generation_falls_back_and_quarantines() {
    let dir = tmp_dir("fallback");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    for i in 0..3 {
        store.append_delta(&batch(i)).unwrap();
    }
    store.write_snapshot(2, &[b"old-gen".to_vec()]).unwrap();
    store.append_delta(&batch(7)).unwrap();
    store.write_snapshot(4, &[b"new-gen".to_vec()]).unwrap();
    drop(store);

    // Rot a byte inside the newest generation's part file.
    let part = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".part"))
        .max() // newest generation sorts last
        .unwrap();
    let mut data = std::fs::read(&part).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x01;
    std::fs::write(&part, &data).unwrap();

    let (_, rec) = DurableStore::open(&dir).unwrap();
    let snap = rec.snapshot.expect("must fall back to previous generation");
    assert_eq!(snap.parts, vec![b"old-gen".to_vec()]);
    assert_eq!(snap.last_seq, 2);
    assert_eq!(rec.stats.generations_quarantined, 1);
    // Records the bad generation claimed to cover are replayed again
    // from the log (the fallback's suffix), so nothing acked is lost.
    let seqs: Vec<u64> = rec.deltas.iter().map(|&(s, _)| s).collect();
    assert!(
        seqs.contains(&4),
        "suffix past the fallback snapshot replays"
    );
    // The rotten files are quarantined, not deleted.
    let corrupted: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().ends_with(".corrupt"))
        .collect();
    assert!(!corrupted.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Names of the files in `dir` that end with `suffix`, sorted.
fn files_ending(dir: &PathBuf, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .collect();
    names.sort();
    names
}

#[test]
fn corrupt_older_generation_is_quarantined_not_leaked() {
    let dir = tmp_dir("older-rot");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    store.append_delta(&batch(1)).unwrap();
    store.write_snapshot(1, &[b"old-gen".to_vec()]).unwrap();
    store.append_delta(&batch(2)).unwrap();
    store.write_snapshot(2, &[b"new-gen".to_vec()]).unwrap();
    drop(store);

    // Rot a byte inside the *older* generation's part; the newest stays
    // intact, so recovery loads it and retires the older one.
    let old_part = dir.join(&files_ending(&dir, ".part")[0]);
    let mut data = std::fs::read(&old_part).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    std::fs::write(&old_part, &data).unwrap();

    let (_, rec) = DurableStore::open(&dir).unwrap();
    assert_eq!(
        rec.snapshot.expect("newest generation").parts,
        vec![b"new-gen".to_vec()]
    );
    assert_eq!(rec.stats.generations_quarantined, 1);
    assert_eq!(
        files_ending(&dir, ".manifest").len(),
        1,
        "rotten generation retired"
    );
    assert_eq!(
        files_ending(&dir, ".corrupt").len(),
        2,
        "manifest and part kept as evidence"
    );
    // Reopening converges: nothing left to quarantine, nothing leaked.
    for _ in 0..2 {
        let (_, rec) = DurableStore::open(&dir).unwrap();
        assert_eq!(rec.stats.generations_quarantined, 0);
        assert_eq!(rec.snapshot.unwrap().generation, 2);
        assert_eq!(files_ending(&dir, ".manifest").len(), 1);
        assert_eq!(files_ending(&dir, ".part").len(), 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_drops_covered_records_but_preserves_suffix() {
    let dir = tmp_dir("compact");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    for i in 0..10 {
        store.append_delta(&batch(i)).unwrap();
    }
    let before = store.log_len();
    store.write_snapshot(10, &[b"covered".to_vec()]).unwrap();
    // First rotation retains only this generation, so everything up to
    // seq 10 is compactable.
    assert!(store.log_len() < before);
    store.append_delta(&batch(11)).unwrap();
    drop(store);

    let (_, rec) = DurableStore::open(&dir).unwrap();
    assert_eq!(rec.deltas.len(), 1);
    assert_eq!(rec.snapshot.unwrap().last_seq, 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The core durability contract, exercised at every possible crash
/// point of a fixed workload:
///
/// 1. recovery never errors (after the crashed "process" is replaced
///    by a fresh VFS),
/// 2. every record acked before the crash is recovered — as a log
///    record or inside a snapshot's coverage,
/// 3. the recovered sequence is a dense prefix-consistent range with
///    at most the one unacked in-flight record beyond it.
#[test]
fn every_crash_point_recovers_all_acked_state() {
    // CI sweeps this exhaustive crash-point matrix across fault-plan
    // seeds: the seed varies the torn-write prefix lengths at every
    // crash point (see `FaultPlan`).
    let seed_base: u64 = std::env::var("STORE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Count the ops of an uncrashed run first.
    let total_ops = {
        let dir = tmp_dir("sweep-probe");
        let vfs = FaultStore::new(FaultPlan::new(0));
        let probe = vfs.probe();
        run_workload(Box::new(vfs), &dir).expect("uncrashed run succeeds");
        std::fs::remove_dir_all(&dir).unwrap();
        probe.ops()
    };
    assert!(total_ops > 20, "workload should span many mutating ops");

    for crash_at in 0..total_ops {
        let dir = tmp_dir(&format!("sweep-{seed_base}-{crash_at}"));
        let vfs = FaultStore::new(
            FaultPlan::new(seed_base.wrapping_mul(1_000).wrapping_add(crash_at)).crash_at(crash_at),
        );
        let acked = match run_workload(Box::new(vfs), &dir) {
            Ok(acked) => acked,
            Err((acked, e)) => {
                assert!(
                    matches!(e, StoreError::InjectedCrash { .. }),
                    "only injected crashes expected, got {e} at op {crash_at}"
                );
                acked
            }
        };
        // "Restart the process": reopen with a clean VFS.
        let (_, rec) = DurableStore::open(&dir)
            .unwrap_or_else(|e| panic!("recovery failed after crash at op {crash_at}: {e}"));
        let snap_last = rec.snapshot.as_ref().map_or(0, |s| s.last_seq);
        let recovered: Vec<u64> = rec.deltas.iter().map(|&(s, _)| s).collect();
        for &seq in &acked {
            assert!(
                seq <= snap_last || recovered.contains(&seq),
                "acked seq {seq} lost after crash at op {crash_at} \
                 (snapshot covers {snap_last}, log has {recovered:?})"
            );
        }
        // Payload integrity of replayed records.
        for (seq, payload) in &rec.deltas {
            assert_eq!(payload, &batch(*seq), "payload mismatch at op {crash_at}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Fixed workload used by the crash sweep. Returns the seqs of acked
/// appends; on crash, returns what was acked before it fired.
#[allow(clippy::result_large_err)]
fn run_workload(
    vfs: Box<dyn crowdtz_store::Vfs>,
    dir: &PathBuf,
) -> Result<Vec<u64>, (Vec<u64>, StoreError)> {
    let mut acked = Vec::new();
    let (mut store, _) = DurableStore::open_with(vfs, dir, None).map_err(|e| (acked.clone(), e))?;
    for i in 1..=3u64 {
        let seq = store
            .append_delta(&batch(i))
            .map_err(|e| (acked.clone(), e))?;
        acked.push(seq);
    }
    store
        .write_snapshot(2, &[b"part-0".to_vec(), b"part-1".to_vec()])
        .map_err(|e| (acked.clone(), e))?;
    for i in 4..=5u64 {
        let seq = store
            .append_delta(&batch(i))
            .map_err(|e| (acked.clone(), e))?;
        acked.push(seq);
    }
    store
        .write_snapshot(5, &[b"part-0v2".to_vec()])
        .map_err(|e| (acked.clone(), e))?;
    let seq = store
        .append_delta(&batch(6))
        .map_err(|e| (acked.clone(), e))?;
    acked.push(seq);
    Ok(acked)
}
