//! Windowed retraction identity (ISSUE 10): a sliding-window run —
//! concurrent multi-writer ingest, explicit retractions, and automatic
//! bucket expiry at publish — must end byte-identical to a fresh engine
//! that only ever saw the surviving posts. Pinned across writers ×
//! shards × grids, with and without durability, and across a
//! kill-and-restart that replays the signed write-ahead log.

use std::path::PathBuf;

use crowdtz_core::{
    ConcurrentStreamingPipeline, GeolocationPipeline, WindowConfig, WindowedPipeline, ZoneGrid,
};
use crowdtz_synth::MigrationSpec;
use crowdtz_time::{RegionDb, Timestamp};
use proptest::prelude::*;

/// One bucket per day, a three-bucket window: rounds 0..ROUNDS each fill
/// one bucket, so by the last publish rounds `0..ROUNDS-SPAN` have
/// expired.
const BUCKET_SECS: i64 = 86_400;
const SPAN: usize = 3;
const ROUNDS: usize = 6;
const USERS: usize = 8;
const PER_USER: usize = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-window-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pipeline(grid: ZoneGrid, shards: usize) -> GeolocationPipeline {
    GeolocationPipeline::default()
        .grid(grid)
        .shards(shards)
        .threads(2)
        .min_posts(1)
}

fn window_config() -> WindowConfig {
    WindowConfig {
        bucket_secs: BUCKET_SECS,
        window_buckets: SPAN,
        ..WindowConfig::default()
    }
}

/// Round `r`'s posts: every user posts `PER_USER` times on day `r`, in
/// seed-dependent slots. Integer math only — identical on every run.
fn round_posts(seed: u64, r: usize) -> Vec<(String, Timestamp)> {
    let mut posts = Vec::new();
    for u in 0..USERS {
        for k in 0..PER_USER {
            let hour = (seed as usize + u * 3 + k * 5 + r) % 24;
            let minute = (u * 7 + k) % 60;
            posts.push((
                format!("w{u:02}"),
                Timestamp::from_secs(
                    r as i64 * BUCKET_SECS + hour as i64 * 3_600 + minute as i64 * 60,
                ),
            ));
        }
    }
    posts
}

/// The posts explicitly retracted during round `r`: a seed-dependent
/// subset of round `r−1`'s (still inside the window, so each is live
/// when retracted).
fn explicit_retractions(seed: u64, r: usize) -> Vec<(String, Timestamp)> {
    if r == 0 {
        return Vec::new();
    }
    round_posts(seed, r - 1)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (*i as u64 + seed + r as u64).is_multiple_of(5))
        .map(|(_, post)| post)
        .collect()
}

/// The posts a full run leaves inside the window: everything from the
/// last `SPAN` rounds minus what was explicitly retracted.
fn survivors(seed: u64) -> Vec<(String, Timestamp)> {
    let retracted: Vec<(String, Timestamp)> = (1..ROUNDS)
        .flat_map(|r| explicit_retractions(seed, r))
        .collect();
    let cutoff = (ROUNDS - 1) as i64 - SPAN as i64 + 1;
    (0..ROUNDS)
        .flat_map(|r| round_posts(seed, r))
        .filter(|(user, ts)| {
            ts.as_secs().div_euclid(BUCKET_SECS) >= cutoff
                && !retracted.iter().any(|(ru, rt)| ru == user && rt == ts)
        })
        .collect()
}

fn report_json(
    result: Result<std::sync::Arc<crowdtz_core::PublishedReport>, crowdtz_core::CoreError>,
) -> String {
    match result {
        Ok(published) => serde_json::to_string(published.report()).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

/// Drives the full windowed workload over `engine`: `writers` threads
/// per round splitting the round's posts, writer 0 also issuing the
/// round's explicit retractions, one publish per round (expiring
/// buckets that left the window). Returns the final report JSON.
fn run_windowed(engine: ConcurrentStreamingPipeline, seed: u64, writers: usize) -> String {
    let window = WindowedPipeline::new(engine, window_config(), None);
    for r in 0..ROUNDS {
        let posts = round_posts(seed, r);
        let retractions = explicit_retractions(seed, r);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let chunk: Vec<(&str, Timestamp)> = posts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % writers == w)
                    .map(|(_, (user, ts))| (user.as_str(), *ts))
                    .collect();
                // Retractions target the previous round — already
                // ingested, disjoint from every concurrent ingest — so
                // they can interleave freely with the other writers.
                let retract: &[(String, Timestamp)] = if w == 0 { &retractions } else { &[] };
                let window = &window;
                scope.spawn(move || {
                    let writer = window.engine().writer();
                    window.ingest_posts(&writer, &chunk).unwrap();
                    let retracted = window.retract_posts(&writer, retract).unwrap();
                    assert_eq!(retracted, retract.len(), "all targets were live");
                });
            }
        });
        if r < ROUNDS - 1 {
            // Intermediate cuts drive expiry mid-run; the report itself
            // is irrelevant here.
            let _ = window.publish();
        }
    }
    report_json(window.publish())
}

/// The reference: a fresh engine fed only the surviving posts.
fn reference_json(grid: ZoneGrid, shards: usize, seed: u64) -> String {
    let fresh = ConcurrentStreamingPipeline::new(pipeline(grid, shards));
    fresh.writer().ingest_posts_ref(&survivors(seed)).unwrap();
    report_json(fresh.publish())
}

fn check_in_memory(writers: usize, shards: usize, grid: ZoneGrid, seed: u64) {
    let engine = ConcurrentStreamingPipeline::new(pipeline(grid, shards));
    let got = run_windowed(engine, seed, writers);
    let want = reference_json(grid, shards, seed);
    assert_eq!(
        got,
        want,
        "windowed run diverged: writers={writers} shards={shards} grid={}",
        grid.zones()
    );
}

#[test]
fn windowed_runs_match_the_survivor_reference_across_the_matrix() {
    for &writers in &[1usize, 2, 8] {
        for &shards in &[1usize, 4, 16] {
            for &grid in &[ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
                check_in_memory(writers, shards, grid, writers as u64 * 100 + shards as u64);
            }
        }
    }
}

#[test]
fn durable_windowed_runs_match_and_survive_a_kill_and_restart() {
    for &(writers, shards, grid, seed) in &[
        (2usize, 4usize, ZoneGrid::Hourly, 5u64),
        (2, 1, ZoneGrid::QuarterHour, 6),
        (8, 16, ZoneGrid::HalfHour, 7),
    ] {
        let dir = tmp_dir(&format!("durable-{seed}"));
        let want = reference_json(grid, shards, seed);
        {
            let engine =
                ConcurrentStreamingPipeline::open_durable(pipeline(grid, shards), &dir).unwrap();
            let got = run_windowed(engine, seed, writers);
            assert_eq!(got, want, "durable run diverged (seed {seed})");
            // The run ends here with NO checkpoint: recovery below must
            // replay the signed log — ingests and retractions — alone.
        }
        let recovered =
            ConcurrentStreamingPipeline::open_durable(pipeline(grid, shards), &dir).unwrap();
        let got = report_json(recovered.publish());
        assert_eq!(got, want, "kill-and-restart replay diverged (seed {seed})");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeds and writer/shard placements: any interleaving of
    /// concurrent ingests and retractions lands on the same bytes.
    #[test]
    fn any_interleaving_matches_the_survivor_reference(
        seed in 0u64..1_000,
        writers in 1usize..=4,
        shard_pick in 0usize..3,
        grid_pick in 0usize..3,
    ) {
        let shards = [1, 4, 16][shard_pick];
        let grid = [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour][grid_pick];
        let engine = ConcurrentStreamingPipeline::new(pipeline(grid, shards));
        let got = run_windowed(engine, seed, writers);
        prop_assert_eq!(got, reference_json(grid, shards, seed));
    }
}

/// End-to-end longitudinal drift: a crowd that migrates UTC−5 → UTC+8
/// must be flagged by the tracker within one bucket of the true switch.
#[test]
fn migration_changepoint_lands_within_one_bucket_of_ground_truth() {
    let db = RegionDb::extended();
    let spec = MigrationSpec::new(
        db.get(&"new-york".into()).unwrap().clone(),
        db.get(&"china".into()).unwrap().clone(),
    )
    .users(24)
    .rounds(8)
    .switch_round(4)
    .round_days(7)
    .seed(11)
    .posts_per_day(3.0);
    let engine =
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2));
    let window = WindowedPipeline::new(
        engine,
        WindowConfig {
            bucket_secs: spec.round_secs(),
            window_buckets: 2,
            // Publish-to-publish sampling scatter for a crowd this size
            // sits near L1 ≈ 0.8; the real migration spikes past 1.6.
            drift_threshold: 1.2,
            drift_history: 3,
        },
        None,
    );
    let writer = window.engine().writer();
    for round in 0..spec.round_count() {
        window
            .ingest_posts(&writer, &spec.round_posts(round))
            .unwrap();
        window.publish().unwrap();
    }
    let trajectory = window.trajectory();
    assert_eq!(trajectory.len(), spec.round_count());
    let truth = spec
        .round_start(spec.ground_truth_round())
        .days_since_epoch()
        * 86_400
        / spec.round_secs();
    let first_flagged = trajectory
        .iter()
        .find(|p| p.is_changepoint())
        .unwrap_or_else(|| panic!("migration never flagged; trajectory: {trajectory:?}"));
    assert!(
        (first_flagged.bucket() - truth).abs() <= 1,
        "change-point at bucket {} but the switch happened at {truth}",
        first_flagged.bucket()
    );
    // Before the switch the dominant zone sits west of UTC, after it
    // east — the trajectory's dominant offsets must say so.
    let grid = ZoneGrid::Hourly;
    let dominant_minutes =
        |p: &crowdtz_core::DriftPoint| p.dominant().map(|(zone, _)| grid.minutes_of(zone)).unwrap();
    assert!(
        dominant_minutes(&trajectory[1]) < 0,
        "early rounds are UTC−5"
    );
    assert!(
        dominant_minutes(trajectory.last().unwrap()) > 0,
        "late rounds are UTC+8"
    );
}

/// The reference for a cut whose newest round is `newest` with nothing
/// explicitly retracted: a fresh engine fed only the rounds still inside
/// the window.
fn window_reference(grid: ZoneGrid, shards: usize, seed: u64, newest: usize) -> String {
    let fresh = ConcurrentStreamingPipeline::new(pipeline(grid, shards));
    let live: Vec<(String, Timestamp)> = (newest.saturating_sub(SPAN - 1)..=newest)
        .flat_map(|r| round_posts(seed, r))
        .collect();
    fresh.writer().ingest_posts_ref(&live).unwrap();
    report_json(fresh.publish())
}

/// A durable windowed engine dropped without a checkpoint keeps
/// expiring after the restart: the window is engine state, recovered
/// from the log's batch and cutoff records, so rounds ingested before
/// the restart still leave the window on time.
#[test]
fn durable_window_keeps_expiring_after_a_restart_without_checkpoint() {
    let (grid, shards, seed) = (ZoneGrid::Hourly, 4, 13);
    let dir = tmp_dir("restart");
    let round = |window: &WindowedPipeline, r: usize| -> String {
        window
            .ingest_posts(&window.engine().writer(), &round_posts(seed, r))
            .unwrap();
        report_json(window.publish())
    };
    {
        let engine =
            ConcurrentStreamingPipeline::open_durable(pipeline(grid, shards), &dir).unwrap();
        let window = WindowedPipeline::new(engine, window_config(), None);
        for r in 0..5 {
            assert_eq!(
                round(&window, r),
                window_reference(grid, shards, seed, r),
                "round {r}"
            );
        }
        // Dropped here with NO checkpoint: the restart replays the log.
    }
    let engine = ConcurrentStreamingPipeline::open_durable(pipeline(grid, shards), &dir).unwrap();
    assert_eq!(
        report_json(engine.publish()),
        window_reference(grid, shards, seed, 4),
        "the replayed log holds exactly the last cut's window"
    );
    let window = WindowedPipeline::new(engine, window_config(), None);
    for r in 5..9 {
        assert_eq!(
            round(&window, r),
            window_reference(grid, shards, seed, r),
            "round {r} after the restart"
        );
    }
    drop(window);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Expiry reads the accumulators, so posts expire whichever writer path
/// delivered them: a monitor's sequence-numbered batches, plain
/// `ingest_posts_ref` batches, and the window front's `ingest_posts`,
/// in memory and durable.
#[test]
fn posts_from_every_writer_path_expire() {
    let (grid, shards, seed) = (ZoneGrid::HalfHour, 4, 21);
    for durable in [false, true] {
        let dir = tmp_dir("writer-paths");
        let engine = if durable {
            ConcurrentStreamingPipeline::open_durable(pipeline(grid, shards), &dir).unwrap()
        } else {
            ConcurrentStreamingPipeline::new(pipeline(grid, shards))
        };
        let window = WindowedPipeline::new(engine, window_config(), None);
        let (monitor, plain, front) = (
            window.engine().writer(),
            window.engine().writer(),
            window.engine().writer(),
        );
        for r in 0..ROUNDS + 2 {
            let posts = round_posts(seed, r);
            let third = |k: usize| -> Vec<(&str, Timestamp)> {
                posts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == k)
                    .map(|(_, (u, t))| (u.as_str(), *t))
                    .collect()
            };
            let checkpoint = format!("round-{r}");
            assert!(monitor
                .ingest_batch(r as u64 + 1, &third(0), Some(&checkpoint))
                .unwrap());
            plain.ingest_posts_ref(&third(1)).unwrap();
            window.ingest_posts(&front, &third(2)).unwrap();
            assert_eq!(
                report_json(window.publish()),
                window_reference(grid, shards, seed, r),
                "round {r}, durable {durable}"
            );
        }
        drop((monitor, plain, front, window));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
