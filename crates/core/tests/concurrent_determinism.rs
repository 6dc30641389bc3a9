//! Determinism must survive concurrency (ISSUE 8): reports published by
//! the multi-writer [`ConcurrentStreamingPipeline`] are byte-identical
//! (through `serde_json`) to the single-owner `&mut` path fed the same
//! deltas — for every writer count × shard count × zone grid, with and
//! without durability — and every report observed *mid-ingest* equals
//! the sequential snapshot of exactly the per-writer batch prefixes its
//! watermark vector names.
//!
//! The placement cache's hit, miss and eviction counts are pinned the
//! same way: they equal those of a sequential engine that snapshots at
//! the same cuts.
//!
//! The schedules are **seeded**: which batches each writer sends, and
//! in which order, is a pure function of the seed, so a failure here is
//! a reproducible interleaving family, not a flake.

use std::sync::Arc;

use proptest::prelude::*;

use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline, StreamingPipeline, ZoneGrid};
use crowdtz_obs::Observer;
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp};

const WRITER_GRID: [usize; 3] = [1, 2, 8];
const SHARD_GRID: [usize; 3] = [1, 4, 16];

/// One ingest batch: a user and a chunk of their posts.
type Batch = (String, Vec<Timestamp>);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deterministic stream of non-empty batches from a two-region crowd:
/// every user's trace is split into chunks, and the chunk order is
/// shuffled by `seed` so cumulative prefixes interleave users.
fn batches(seed: u64) -> Vec<Batch> {
    let db = RegionDb::extended();
    let mut out: Vec<Batch> = Vec::new();
    for (region, rseed) in [("japan", 3u64), ("brazil", 4u64)] {
        let traces = PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(18)
            .seed(rseed)
            .posts_per_day(0.6)
            .generate();
        for trace in traces.iter() {
            for chunk in trace.posts().chunks(5) {
                out.push((trace.id().to_owned(), chunk.to_vec()));
            }
        }
    }
    // Fisher–Yates with a seeded xorshift: the schedule is the seed.
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Deal batches to `writers` round-robin: writer `w` sends batches
/// `w, w + writers, …` in that order. Together with the seeded shuffle
/// this fixes each writer's schedule exactly.
fn deal(batches: &[Batch], writers: usize) -> Vec<Vec<Batch>> {
    let mut per_writer: Vec<Vec<Batch>> = vec![Vec::new(); writers];
    for (i, batch) in batches.iter().enumerate() {
        per_writer[i % writers].push(batch.clone());
    }
    per_writer
}

fn pipeline(shards: usize, grid: ZoneGrid) -> GeolocationPipeline {
    GeolocationPipeline::default()
        .min_posts(1)
        .shards(shards)
        .threads(2)
        .grid(grid)
}

/// The single-owner reference: all batches, sequentially, `&mut` path.
fn sequential_json(batches: &[Batch], shards: usize, grid: ZoneGrid) -> String {
    let mut engine = StreamingPipeline::new(pipeline(shards, grid));
    for (user, posts) in batches {
        engine.ingest(user, posts);
    }
    serde_json::to_string(&engine.snapshot().unwrap()).unwrap()
}

/// The concurrent path: one thread per writer, then one publish.
fn concurrent_json(schedules: &[Vec<Batch>], shards: usize, grid: ZoneGrid) -> String {
    let engine = ConcurrentStreamingPipeline::new(pipeline(shards, grid));
    std::thread::scope(|scope| {
        for schedule in schedules {
            let writer = engine.writer();
            scope.spawn(move || {
                for (user, posts) in schedule {
                    writer.ingest(user, posts).unwrap();
                }
            });
        }
    });
    serde_json::to_string(engine.publish().unwrap().report()).unwrap()
}

#[test]
fn concurrent_matches_single_owner_across_writers_and_shards() {
    for seed in [1u64, 2, 3] {
        let all = batches(seed);
        for shards in SHARD_GRID {
            let want = sequential_json(&all, shards, ZoneGrid::Hourly);
            for writers in WRITER_GRID {
                let got = concurrent_json(&deal(&all, writers), shards, ZoneGrid::Hourly);
                assert_eq!(
                    got, want,
                    "diverged at seed {seed}, {shards} shards, {writers} writers"
                );
            }
        }
    }
}

#[test]
fn concurrent_matches_single_owner_on_every_zone_grid() {
    let all = batches(7);
    for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
        let want = sequential_json(&all, 4, grid);
        let got = concurrent_json(&deal(&all, 8), 4, grid);
        assert_eq!(got, want, "diverged on {grid:?}");
    }
}

#[test]
fn durable_concurrent_matches_plain_sequential_and_recovers_identically() {
    let all = batches(11);
    let want = sequential_json(&all, 4, ZoneGrid::Hourly);

    let dir =
        std::env::temp_dir().join(format!("crowdtz-concurrent-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let engine =
        ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
    std::thread::scope(|scope| {
        for schedule in deal(&all, 8) {
            let writer = engine.writer();
            scope.spawn(move || {
                for (user, posts) in &schedule {
                    writer.ingest(user, posts).unwrap();
                }
            });
        }
    });
    let published = engine.publish().unwrap();
    assert_eq!(
        serde_json::to_string(published.report()).unwrap(),
        want,
        "durable concurrent diverged from plain sequential"
    );
    engine.checkpoint_now().unwrap().expect("durable engine");
    drop(engine);

    // Recovery through the *sequential* durable path sees the same state:
    // the concurrent WAL is an ordinary log.
    let mut recovered =
        StreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
    assert_eq!(
        serde_json::to_string(&recovered.snapshot().unwrap()).unwrap(),
        want,
        "recovery diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_mid_ingest_report_equals_its_watermark_prefix_replayed() {
    let all = batches(5);
    let schedules = deal(&all, 4);
    let engine = ConcurrentStreamingPipeline::new(pipeline(4, ZoneGrid::Hourly));

    // Register writers *before* spawning so watermark index `i` is
    // schedule `i`, then publish concurrently with ingestion until the
    // cut covers every batch.
    let writers: Vec<_> = schedules.iter().map(|_| engine.writer()).collect();
    let total_batches: usize = schedules.iter().map(Vec::len).sum();
    let observed = std::thread::scope(|scope| {
        for (writer, schedule) in writers.iter().zip(&schedules) {
            scope.spawn(move || {
                for (user, posts) in schedule {
                    writer.ingest(user, posts).unwrap();
                    std::thread::yield_now();
                }
            });
        }
        let mut observed = Vec::new();
        loop {
            // Mid-ingest publishes can race an empty engine (EmptyCrowd);
            // those cuts simply aren't observable reports.
            if let Ok(report) = engine.publish() {
                let done = report.watermarks().iter().sum::<u64>() as usize == total_batches;
                observed.push(report);
                if done {
                    break;
                }
            }
            std::thread::yield_now();
        }
        observed
    });
    drop(writers);

    // The final cut is the full run; every cut — including any caught
    // mid-ingest — must equal the sequential replay of exactly the
    // per-writer prefixes its watermark vector names: never torn, always
    // some-prefix-of-batches consistent.
    for report in &observed {
        let mut reference = StreamingPipeline::new(pipeline(4, ZoneGrid::Hourly));
        for (w, taken) in report.watermarks().iter().enumerate() {
            for (user, posts) in schedules[w].iter().take(*taken as usize) {
                reference.ingest(user, posts);
            }
        }
        let want = serde_json::to_string(&reference.snapshot().unwrap()).unwrap();
        let got = serde_json::to_string(report.report()).unwrap();
        assert_eq!(
            got,
            want,
            "cut {:?} diverged from its prefix replay",
            report.watermarks()
        );
    }
    let full = observed.last().expect("loop exits on the full cut");
    assert_eq!(
        serde_json::to_string(full.report()).unwrap(),
        sequential_json(&all, 4, ZoneGrid::Hourly),
        "final cut diverged from the full sequential reference"
    );
}

/// Single-post batches for users whose profiles coincide, split into
/// the two halves of a run: twins post at 20:00 in the first half and
/// at 21:00 in the second, so each half resolves one shape many times;
/// late users post the first half's 20:00 shape only in the second
/// half, so they hit entries an earlier publish cached.
fn twin_batches() -> (Vec<Batch>, Vec<Batch>) {
    let at = |day: i64, hour: i64| Timestamp::from_secs(day * 86_400 + hour * 3_600);
    let twins: Vec<String> = (0..12).map(|i| format!("twin{i:02}")).collect();
    let first = twins.iter().map(|u| (u.clone(), vec![at(0, 20)])).collect();
    let second = twins
        .iter()
        .map(|u| (u.clone(), vec![at(1, 21)]))
        .chain((0..6).map(|i| (format!("late{i}"), vec![at(0, 20)])))
        .collect();
    (first, second)
}

/// The observer's placement-cache hit, miss and eviction counters.
fn cache_counters(observer: &Observer) -> [u64; 3] {
    [
        "placement.cache_hits",
        "placement.cache_misses",
        "placement.cache_evictions",
    ]
    .map(|name| observer.counter(name).get())
}

#[test]
fn concurrent_cache_counters_match_the_sequential_engine() {
    // The concurrent engine resolves placements only when it publishes,
    // under the write gate, so its cache sees exactly the dirty users a
    // sequential engine snapshotting at the same cuts sees: the counts
    // are a function of the cuts, not of the writer schedule.
    let (twins_head, twins_tail) = twin_batches();
    for seed in [1u64, 2, 3] {
        let all = batches(seed);
        let (head, tail) = all.split_at(all.len() / 2);
        let halves = [
            [head, &twins_head[..]].concat(),
            [tail, &twins_tail[..]].concat(),
        ];
        for shards in SHARD_GRID {
            let observer = Observer::from_env();
            let mut reference = StreamingPipeline::new(
                pipeline(shards, ZoneGrid::Hourly).observer(Arc::clone(&observer)),
            );
            for half in &halves {
                for (user, posts) in half {
                    reference.ingest(user, posts);
                }
                reference.snapshot().unwrap();
            }
            let want = (reference.cache_stats(), cache_counters(&observer));
            // 11 twin hits per half plus 6 late hits on the first
            // half's entry.
            assert!(want.0 .0 >= 28, "too few cache hits: {want:?}");
            for writers in WRITER_GRID {
                let observer = Observer::from_env();
                let engine = ConcurrentStreamingPipeline::new(
                    pipeline(shards, ZoneGrid::Hourly).observer(Arc::clone(&observer)),
                );
                for half in &halves {
                    std::thread::scope(|scope| {
                        for schedule in deal(half, writers) {
                            let writer = engine.writer();
                            scope.spawn(move || {
                                for (user, posts) in &schedule {
                                    writer.ingest(user, posts).unwrap();
                                }
                            });
                        }
                    });
                    engine.publish().unwrap();
                }
                assert_eq!(
                    (engine.cache_stats(), cache_counters(&observer)),
                    want,
                    "cache counters diverged at seed {seed}, {shards} shards, {writers} writers"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn proptest_pins_concurrent_determinism(
        seed in 1u64..1_000,
        writers in 1usize..6,
        shards in 1usize..8,
    ) {
        let all = batches(seed);
        let want = sequential_json(&all, shards, ZoneGrid::Hourly);
        let got = concurrent_json(&deal(&all, writers), shards, ZoneGrid::Hourly);
        prop_assert_eq!(got, want);
    }
}
