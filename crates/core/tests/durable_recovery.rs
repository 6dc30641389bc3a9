//! Recovery invariants of the durable streaming engine.
//!
//! The contract under test (ISSUE 6): for **any** crash point injected
//! by `FaultStore`, `open_durable` recovers either the pre-crash
//! snapshot state or the post-batch state — never a partial batch —
//! and the recovered engine's `publish()` is serde_json byte-identical
//! to a never-crashed engine fed the same deltas.

use std::path::{Path, PathBuf};

use crowdtz_core::{
    ConcurrentStreamingPipeline, CoreError, GeolocationPipeline, StreamingPipeline, ZoneGrid,
};
use crowdtz_store::{FaultPlan, FaultStore};
use crowdtz_time::Timestamp;
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic monitor-shaped batch `b` for workload `seed`: a few
/// users, each posting in a seed-dependent hour slot. Integer math
/// only, so every run of a case sees identical data.
fn batch(seed: u64, b: u64) -> Vec<(String, Timestamp)> {
    let mut posts = Vec::new();
    for i in 0..8u64 {
        let user = format!("u{:02}", (seed + i) % 10);
        let slot = ((seed * 31 + b * 7 + i * 13) % (40 * 24)) as i64;
        posts.push((user, Timestamp::from_secs(slot * 3_600)));
    }
    posts
}

fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default().min_posts(1)
}

fn is_injected_crash(e: &CoreError) -> bool {
    matches!(e, CoreError::Store(s) if s.is_injected_crash())
}

/// Snapshot serialized to a comparable string; degenerate crowds may
/// legitimately error, and then the error must be identical too.
fn snapshot_json(engine: &mut StreamingPipeline) -> String {
    match engine.snapshot() {
        Ok(r) => serde_json::to_string(&r).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

/// [`snapshot_json`] for the durable engine's publish.
fn publish_json(engine: &ConcurrentStreamingPipeline) -> String {
    match engine.publish() {
        Ok(published) => serde_json::to_string(published.report()).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

/// The never-crashed reference: a plain in-memory engine fed batches
/// `1..=upto`.
fn reference_json(seed: u64, upto: u64) -> String {
    let mut engine = StreamingPipeline::new(pipeline());
    for b in 1..=upto {
        engine.ingest_posts(&batch(seed, b));
    }
    snapshot_json(&mut engine)
}

#[test]
fn warm_restart_resumes_byte_identical() {
    let seed = 42;
    let dir = tmp_dir("warm-restart");

    // Run 1: ingest 5 monitor batches with a rotation after the third,
    // so recovery loads a snapshot generation and replays a log suffix,
    // then "die" abruptly (drop without any orderly shutdown).
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=5u64 {
            let ckpt = format!("ckpt-{b}");
            assert!(writer
                .ingest_batch(b, &batch(seed, b), Some(&ckpt))
                .unwrap());
            if b == 3 {
                durable.checkpoint_now().unwrap();
            }
        }
        assert_eq!(durable.last_source_seq(), 5);
    }

    // Run 2: recover, verify bookkeeping, and resume.
    let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    let writer = durable.writer();
    assert_eq!(durable.last_source_seq(), 5);
    assert_eq!(durable.source_checkpoint().as_deref(), Some("ckpt-5"));
    let recovered = publish_json(&durable);
    assert_eq!(
        recovered,
        reference_json(seed, 5),
        "recovered state diverged"
    );

    // A re-delivered boundary batch (the monitor restart gap) is
    // dropped by sequence number, not double-counted.
    assert!(!writer
        .ingest_batch(5, &batch(seed, 5), Some("ckpt-5"))
        .unwrap());
    assert_eq!(durable.posts_ingested(), 5 * 8);

    // Resuming matches an engine that never restarted.
    assert!(writer
        .ingest_batch(6, &batch(seed, 6), Some("ckpt-6"))
        .unwrap());
    let resumed = publish_json(&durable);
    assert_eq!(resumed, reference_json(seed, 6), "resumed state diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_restart_replays_only_the_log_suffix() {
    let seed = 7;
    let dir = tmp_dir("suffix-only");
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=20u64 {
            writer.ingest_batch(b, &batch(seed, b), None).unwrap();
        }
        // Explicit rotation: everything so far is covered by the
        // snapshot and compacted out of the log...
        durable.checkpoint_now().unwrap();
        // ...and only these two records should ever replay again.
        writer.ingest_batch(21, &batch(seed, 21), None).unwrap();
        writer.ingest_batch(22, &batch(seed, 22), None).unwrap();
    }
    let vfs = FaultStore::new(FaultPlan::new(0));
    let durable =
        ConcurrentStreamingPipeline::open_durable_with(pipeline(), Box::new(vfs), &dir).unwrap();
    // 22 batches ingested, but the warm restart replayed only 2.
    assert_eq!(durable.last_source_seq(), 22);
    let (store, rec) = crowdtz_store::DurableStore::open(&dir).unwrap();
    assert!(store.log_len() > 0, "suffix records remain in the log");
    assert_eq!(
        rec.stats.records_replayed, 2,
        "replay scales with log suffix"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_tolerates_a_torn_log_tail() {
    let seed = 3;
    let dir = tmp_dir("torn-tail");
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=3u64 {
            writer.ingest_batch(b, &batch(seed, b), None).unwrap();
        }
    }
    // Crash signature: a half-written record at the log tail.
    let log = dir.join(crowdtz_store::LOG_FILE);
    let mut data = std::fs::read(&log).unwrap();
    let garbage = crowdtz_store::encode_record(4, b"half-written batch record");
    data.extend_from_slice(&garbage[..garbage.len() / 2]);
    std::fs::write(&log, &data).unwrap();

    let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    assert_eq!(
        durable.last_source_seq(),
        3,
        "torn tail recovers to last full batch"
    );
    let got = publish_json(&durable);
    assert_eq!(got, reference_json(seed, 3));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sub-hour placements survive a checkpoint + warm restart byte-exactly.
///
/// Regression: the snapshot format once persisted placements as whole
/// hours, so recovery silently floored every ±15/±30/±45 quarter-grid
/// offset to its hour — an hourly-grid engine could never notice.
#[test]
fn quarter_grid_placements_survive_restart_exactly() {
    let dir = tmp_dir("quarter-grid");
    let quarter = || {
        GeolocationPipeline::default()
            .min_posts(1)
            .grid(ZoneGrid::QuarterHour)
    };
    // A clustered diurnal workload: 12 users, 5 posts per batch around a
    // per-user home hour with deterministic jitter. Enough activity to
    // survive polishing, shaped enough to place — and on the quarter
    // grid, placements land off the whole-hour lattice.
    let shifted: Vec<Vec<(String, Timestamp)>> = (0..4i64)
        .map(|day| {
            (0..12i64)
                .flat_map(|u| {
                    (0..5i64).map(move |p| {
                        let home = if u % 3 == 0 { 12 } else { 21 };
                        let jitter = (u * 7 + p * 3 + day) % 5 - 2;
                        let hour = (home + jitter).rem_euclid(24);
                        (
                            format!("user{u:02}"),
                            Timestamp::from_secs(day * 86_400 + hour * 3_600 + u * 60),
                        )
                    })
                })
                .collect()
        })
        .collect();

    let reference = {
        let mut engine = StreamingPipeline::new(quarter());
        for posts in &shifted {
            engine.ingest_posts(posts);
        }
        snapshot_json(&mut engine)
    };
    // `zone_minutes` is serialized only when nonzero, so its presence
    // proves the workload actually exercises sub-hour offsets.
    assert!(
        reference.contains("zone_minutes"),
        "workload must place at least one user off the whole-hour lattice: {reference}"
    );

    {
        let durable = ConcurrentStreamingPipeline::open_durable(quarter(), &dir).unwrap();
        let writer = durable.writer();
        for (b, posts) in shifted.iter().enumerate() {
            writer.ingest_batch(b as u64 + 1, posts, None).unwrap();
        }
        // Force a snapshot generation so recovery rebuilds placements
        // from the persisted accumulator, not by replaying the log.
        durable.checkpoint_now().unwrap();
    }
    let recovered = ConcurrentStreamingPipeline::open_durable(quarter(), &dir).unwrap();
    let got = publish_json(&recovered);
    assert_eq!(
        got, reference,
        "quarter-grid placements truncated by recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rotation is decided from the store alone: a publish whose report
/// fails — here every user is below the activity threshold, as early in
/// a crawl or on a window that has emptied — still rotates a log that
/// has outgrown its threshold, so a restart does not replay it all.
#[test]
fn publish_rotates_even_when_its_report_fails() {
    let dir = tmp_dir("failed-publish-rotates");
    let quiet = || GeolocationPipeline::default().min_posts(1_000);
    // 200 users × 100 single-post deltas with long ids: well past the
    // 1 MiB rotation threshold, and nobody reaches 1 000 posts.
    let users: Vec<String> = (0..200)
        .map(|u| format!("{u:04}-{}", "x".repeat(60)))
        .collect();
    let engine = ConcurrentStreamingPipeline::open_durable(quiet(), &dir).unwrap();
    let writer = engine.writer();
    for day in 0..100i64 {
        let posts: Vec<(&str, Timestamp)> = users
            .iter()
            .enumerate()
            .map(|(u, user)| {
                let hour = (u as i64 + day) % 24;
                (
                    user.as_str(),
                    Timestamp::from_secs(day * 86_400 + hour * 3_600),
                )
            })
            .collect();
        writer.ingest_posts_ref(&posts).unwrap();
    }
    let log = dir.join(crowdtz_store::LOG_FILE);
    let logged = std::fs::metadata(&log).unwrap().len();
    assert!(
        logged >= crowdtz_store::DEFAULT_COMPACT_THRESHOLD,
        "workload must outgrow the rotation threshold: {logged} B"
    );
    assert!(matches!(engine.publish(), Err(CoreError::EmptyCrowd)));
    let manifests = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|entry| {
            let name = entry.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(".manifest")
        })
        .count();
    assert_eq!(manifests, 1, "the failed publish wrote no generation");
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        0,
        "the failed publish left the log uncompacted"
    );
    drop((writer, engine));

    let (_, rec) = crowdtz_store::DurableStore::open(&dir).unwrap();
    assert_eq!(rec.stats.records_replayed, 0);
    let reopened = ConcurrentStreamingPipeline::open_durable(quiet(), &dir).unwrap();
    assert_eq!(reopened.users_tracked(), users.len());
    assert!(matches!(reopened.publish(), Err(CoreError::EmptyCrowd)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seed of the exhaustive sweep's workload data.
const SWEEP_SEED: u64 = 5;

/// One step of the exhaustive sweep's workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Monitor batch `seq` through `ingest_batch`, with checkpoint
    /// `ckpt-{seq}`.
    Monitor(u64),
    /// One plain batch through `ingest_posts_ref`.
    Plain,
    /// One retraction batch through `retract_posts_ref`.
    Retract,
    /// One `checkpoint_now` rotation.
    Rotate,
}

/// The sweep's workload: every way the server's write path and
/// rotation touch the store, with both rotations between batches.
const SWEEP: [Step; 9] = [
    Step::Monitor(1),
    Step::Monitor(2),
    Step::Rotate,
    Step::Plain,
    Step::Monitor(3),
    Step::Retract,
    Step::Rotate,
    Step::Monitor(4),
    Step::Monitor(5),
];

/// The posts of a batch step (`None` for a rotation).
fn step_posts(step: Step) -> Option<Vec<(String, Timestamp)>> {
    match step {
        Step::Monitor(seq) => Some(batch(SWEEP_SEED, seq)),
        Step::Plain => Some(batch(SWEEP_SEED + 1, 9)),
        // Posts the first monitor batch delivered.
        Step::Retract => Some(batch(SWEEP_SEED, 1)[..5].to_vec()),
        Step::Rotate => None,
    }
}

/// The sweep's batch steps, in order.
fn sweep_batches() -> Vec<Step> {
    SWEEP
        .into_iter()
        .filter(|step| step_posts(*step).is_some())
        .collect()
}

/// Runs the sweep workload on a durable engine over `vfs`. Returns the
/// batches acked and the error that stopped the run, if any.
fn run_sweep(vfs: FaultStore, dir: &Path) -> (u64, Option<CoreError>) {
    let engine =
        match ConcurrentStreamingPipeline::open_durable_with(pipeline(), Box::new(vfs), dir) {
            Ok(engine) => engine,
            Err(e) => return (0, Some(e)),
        };
    let writer = engine.writer();
    let mut acked = 0;
    for step in SWEEP {
        let posts = step_posts(step).unwrap_or_default();
        let result = match step {
            Step::Monitor(seq) => writer
                .ingest_batch(seq, &posts, Some(&format!("ckpt-{seq}")))
                .map(|applied| assert!(applied, "batch {seq} deduped")),
            Step::Plain => writer.ingest_posts_ref(&posts),
            Step::Retract => writer.retract_posts_ref(&posts).map(drop),
            Step::Rotate => engine.checkpoint_now().map(drop),
        };
        if let Err(e) = result {
            return (acked, Some(e));
        }
        if !matches!(step, Step::Rotate) {
            acked += 1;
        }
    }
    (acked, None)
}

/// What an engine that applied the sweep's first `k` batches publishes,
/// with the monitor sequence number and checkpoint it must carry.
fn sweep_reference(k: usize) -> (String, u64, Option<String>) {
    let mut engine = StreamingPipeline::new(pipeline());
    let mut source = (0, None);
    for step in sweep_batches().into_iter().take(k) {
        let posts = step_posts(step).unwrap();
        if let Step::Retract = step {
            for (user, ts) in &posts {
                engine.retract(user, std::slice::from_ref(ts));
            }
        } else {
            engine.ingest_posts(&posts);
        }
        if let Step::Monitor(seq) = step {
            source = (seq, Some(format!("ckpt-{seq}")));
        }
    }
    (snapshot_json(&mut engine), source.0, source.1)
}

/// Every crash point of one small workload on the engine the server
/// runs — monitor batches, a plain and a retraction batch, two
/// rotations — recovers a batch boundary: reopening never fails, the
/// recovered publish equals the in-memory reference after the acked
/// batches or one more, and the monitor sequence number and checkpoint
/// travel with their batch. CI's `STORE_SEED` varies the torn-write
/// prefixes at every crash point, as in the store's own sweep.
#[test]
fn every_engine_crash_point_recovers_a_batch_boundary() {
    let seed_base: u64 = std::env::var("STORE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Count the ops of an uncrashed run first.
    let total_ops = {
        let dir = tmp_dir("engine-sweep-probe");
        let vfs = FaultStore::new(FaultPlan::new(0));
        let probe = vfs.probe();
        let (acked, err) = run_sweep(vfs, &dir);
        assert!(err.is_none(), "uncrashed run failed: {err:?}");
        assert_eq!(acked as usize, sweep_batches().len());
        std::fs::remove_dir_all(&dir).unwrap();
        probe.ops()
    };
    assert!(total_ops > 40, "workload should span many mutating ops");
    let references: Vec<_> = (0..=sweep_batches().len()).map(sweep_reference).collect();
    // Every batch moves the report, so the boundary a recovery lands on
    // is unambiguous.
    for pair in references.windows(2) {
        assert_ne!(pair[0].0, pair[1].0);
    }

    for crash_at in 0..total_ops {
        let dir = tmp_dir(&format!("engine-sweep-{seed_base}-{crash_at}"));
        let vfs = FaultStore::new(
            FaultPlan::new(seed_base.wrapping_mul(1_000).wrapping_add(crash_at)).crash_at(crash_at),
        );
        let (acked, err) = run_sweep(vfs, &dir);
        match &err {
            Some(e) if is_injected_crash(e) => {}
            other => panic!("crash at op {crash_at}: expected an injected crash, got {other:?}"),
        }
        // "Restart the process": reopen with a clean VFS.
        let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir)
            .unwrap_or_else(|e| panic!("recovery failed after crash at op {crash_at}: {e}"));
        let got = (
            publish_json(&recovered),
            recovered.last_source_seq(),
            recovered.source_checkpoint(),
        );
        let acked = acked as usize;
        assert!(
            references[acked..].iter().take(2).any(|want| *want == got),
            "crash at op {crash_at}: recovered seq {} / checkpoint {:?} is not the \
             boundary after {acked} or {} batches",
            got.1,
            got.2,
            acked + 1
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sweep seeded crash points through the full engine: recovery must
    /// land on a batch boundary (acked batches all present, at most the
    /// one in-flight batch beyond them) and be byte-identical to the
    /// never-crashed reference at that boundary.
    #[test]
    fn any_crash_point_recovers_a_batch_boundary(
        seed in 0u64..1000,
        crash_at in 0u64..120,
    ) {
        let dir = tmp_dir(&format!("crash-{seed}-{crash_at}"));
        let vfs = FaultStore::new(FaultPlan::new(seed).crash_at(crash_at));
        let probe = vfs.probe();
        let mut acked = 0u64;
        match ConcurrentStreamingPipeline::open_durable_with(pipeline(), Box::new(vfs), &dir) {
            Err(e) => {
                prop_assert!(is_injected_crash(&e), "unexpected open failure: {}", e);
            }
            Ok(durable) => {
                let writer = durable.writer();
                for b in 1..=6u64 {
                    let ckpt = format!("ckpt-{b}");
                    match writer.ingest_batch(b, &batch(seed, b), Some(&ckpt)) {
                        Ok(applied) => {
                            prop_assert!(applied);
                            acked = b;
                        }
                        Err(e) => {
                            prop_assert!(is_injected_crash(&e), "unexpected ingest failure: {}", e);
                            break;
                        }
                    }
                    // Rotations (part writes, manifest rename,
                    // compaction) mid-workload put crash points inside
                    // every store code path.
                    if b % 2 == 0 {
                        if let Err(e) = durable.checkpoint_now() {
                            prop_assert!(is_injected_crash(&e), "unexpected rotation failure: {}", e);
                            break;
                        }
                    }
                }
            }
        }

        // "Restart the process": reopen with a clean VFS.
        let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir)
            .map_err(|e| format!("recovery must never fail, got: {e}"))?;
        let r = recovered.last_source_seq();
        // Never a partial batch: the recovered sequence is a batch
        // boundary containing every acked batch, plus at most the one
        // batch whose ingest call crashed after its append was durable.
        prop_assert!(
            r == acked || r == acked + 1,
            "recovered seq {} vs acked {} (crash fired: {})",
            r, acked, probe.crashed()
        );
        if r >= 1 {
            prop_assert_eq!(
                recovered.source_checkpoint(),
                Some(format!("ckpt-{r}")),
                "checkpoint must travel with its batch"
            );
        }
        let got = publish_json(&recovered);
        prop_assert_eq!(got, reference_json(seed, r), "diverged at boundary {}", r);
        std::fs::remove_dir_all(&dir).ok();
    }
}
