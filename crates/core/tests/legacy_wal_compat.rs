//! Backward compatibility: stores written by older code must recover
//! byte-identically on today's engine, and snapshot generations must
//! keep their on-disk bytes.
//!
//! The fixture at `tests/fixtures/legacy-deltas.log` is a committed
//! JSON log from before the signed-delta extension (no `retractions`
//! field in any record) — its bytes are pinned in git, so this test
//! keeps passing even as the current encoder evolves. The files under
//! `tests/fixtures/generation-48/` are one JSON snapshot generation,
//! written before the binary codec; `tests/fixtures/generation-48-v2/`
//! is the same state as today's binary codec writes it: a 48-zone
//! durable engine writes exactly those bytes for [`generation_batches`],
//! and reopening either directory resumes where it left off.
//! Regenerate the log or the v2 generation (only if they must change)
//! with:
//!
//! ```text
//! cargo test -p crowdtz-core --test legacy_wal_compat -- --ignored
//! ```

use std::path::{Path, PathBuf};

use crowdtz_core::{
    ConcurrentStreamingPipeline, CoreError, GeolocationPipeline, GeolocationReport,
    StreamingPipeline, ZoneGrid,
};
use crowdtz_store::{encode_record, LOG_FILE};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/legacy-deltas.log"
);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-legacy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The recovery configuration the fixture is pinned against.
fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default()
        .shards(4)
        .threads(1)
        .min_posts(1)
}

/// One fixture batch: `(source_seq, checkpoint, deltas)`.
type FixtureBatch = (u64, Option<&'static str>, Vec<(&'static str, Vec<i64>)>);

/// The batches the fixture encodes. Shared by the regenerator and by
/// the in-memory reference below.
fn fixture_batches() -> Vec<FixtureBatch> {
    vec![
        (
            1,
            Some("round-1"),
            vec![
                ("legacy-a", vec![3_600, 7 * 3_600, 90_000]),
                ("legacy-b", vec![20 * 3_600, 21 * 3_600 + 1_800]),
            ],
        ),
        (
            2,
            None,
            vec![
                ("legacy-a", vec![2 * 86_400 + 8 * 3_600]),
                (
                    "legacy-c",
                    vec![13 * 3_600, 86_400 + 13 * 3_600, 2 * 86_400],
                ),
            ],
        ),
        (
            5,
            Some("round-5"),
            vec![("legacy-b", vec![3 * 86_400 + 4 * 3_600 + 900])],
        ),
    ]
}

/// Old-format payload, written out by hand so the bytes cannot drift
/// with the current encoder: `source_seq`, `checkpoint`, `deltas` — and
/// nothing else. No `retractions` field ever existed in these logs.
fn legacy_payload(seq: u64, checkpoint: Option<&str>, deltas: &[(&str, Vec<i64>)]) -> String {
    let deltas_json: Vec<String> = deltas
        .iter()
        .map(|(user, posts)| {
            let posts_json: Vec<String> = posts.iter().map(|s| s.to_string()).collect();
            format!("[\"{user}\",[{}]]", posts_json.join(","))
        })
        .collect();
    let checkpoint_json = match checkpoint {
        Some(c) => format!("\"{c}\""),
        None => "null".to_owned(),
    };
    format!(
        "{{\"source_seq\":{seq},\"checkpoint\":{checkpoint_json},\"deltas\":[{}]}}",
        deltas_json.join(",")
    )
}

/// Regenerates the committed fixture. Ignored: run it manually only
/// when the fixture itself has to change, then commit the result.
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_legacy_wal_fixture() {
    let mut log = Vec::new();
    for (seq, checkpoint, deltas) in fixture_batches() {
        let payload = legacy_payload(seq, checkpoint, &deltas);
        log.extend_from_slice(&encode_record(seq, payload.as_bytes()));
    }
    std::fs::create_dir_all(PathBuf::from(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, &log).unwrap();
}

/// A temp durable dir seeded with (only) the committed legacy log.
fn seeded_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = std::fs::read(FIXTURE).expect("committed fixture present");
    std::fs::write(dir.join(LOG_FILE), fixture).unwrap();
    dir
}

/// The report an engine that ingested the fixture batches directly (no
/// durability, no recovery) produces.
fn reference_json() -> String {
    let mut engine = StreamingPipeline::new(pipeline());
    for (_, _, deltas) in fixture_batches() {
        for (user, posts) in deltas {
            let posts: Vec<Timestamp> = posts.iter().map(|&s| Timestamp::from_secs(s)).collect();
            engine.ingest(user, &posts);
        }
    }
    serde_json::to_string(&engine.snapshot().unwrap()).unwrap()
}

#[test]
fn old_format_log_recovers_byte_identically() {
    let dir = seeded_dir("log");
    let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    assert_eq!(recovered.last_source_seq(), 5, "source seq recovered");
    assert_eq!(
        recovered.source_checkpoint().as_deref(),
        Some("round-5"),
        "checkpoint recovered"
    );
    let published = recovered.publish().unwrap();
    let got = serde_json::to_string(published.report()).unwrap();
    assert_eq!(got, reference_json(), "legacy replay diverged");
    // The recovered engine keeps working as a signed-delta engine: a
    // retraction of one legacy post lands on the same bytes as never
    // having ingested it.
    let writer = recovered.writer();
    writer
        .retract_posts_ref(&[(
            "legacy-b",
            Timestamp::from_secs(3 * 86_400 + 4 * 3_600 + 900),
        )])
        .unwrap();
    let mut reference = StreamingPipeline::new(pipeline());
    for (_, _, deltas) in fixture_batches() {
        for (user, posts) in deltas {
            let posts: Vec<Timestamp> = posts
                .iter()
                .filter(|&&s| !(user == "legacy-b" && s == 3 * 86_400 + 4 * 3_600 + 900))
                .map(|&s| Timestamp::from_secs(s))
                .collect();
            reference.ingest(user, &posts);
        }
    }
    assert_eq!(
        serde_json::to_string(recovered.publish().unwrap().report()).unwrap(),
        serde_json::to_string(&reference.snapshot().unwrap()).unwrap(),
        "retraction on a recovered legacy engine diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The JSON generation, written before the binary codec: read-only.
const GENERATION_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/generation-48");

/// The same generation as the binary codec writes it.
const GENERATION_FIXTURE_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/generation-48-v2"
);

/// The configuration the generation fixture is pinned against: the
/// 48-zone grid, a 10-post threshold, polishing on.
fn generation_pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default()
        .grid(ZoneGrid::HalfHour)
        .shards(4)
        .threads(1)
        .min_posts(10)
}

/// One monitor batch of `(user, post)` pairs.
type Posts = Vec<(String, Timestamp)>;

/// The generation fixture's crowd, as three monitor batches: the first
/// two precede a publish, the third follows it. `gen-half` is an India
/// (UTC+5:30) user, kept at a half-hour offset; `gen-flat` posts at every
/// hour of the day and is flat-removed; `gen-sub` stays below the
/// threshold; `gen-home` is an Italian user whose third-batch posts leave
/// it dirty after the last publish.
fn generation_batches() -> [Posts; 3] {
    let db = RegionDb::extended();
    let synth = |region: &str, id: &str, seed: u64| -> Vec<Timestamp> {
        PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(1)
            .seed(seed)
            .posts_per_day(0.5)
            .generate()
            .iter()
            .next()
            .map(|t| t.posts().to_vec())
            .unwrap_or_else(|| panic!("{id}: empty synthetic trace"))
    };
    let tag = |id: &str, posts: &[Timestamp]| -> Posts {
        posts.iter().map(|&t| (id.to_owned(), t)).collect()
    };
    let half = synth("india", "gen-half", 5);
    let home = synth("italy", "gen-home", 6);
    let flat: Vec<Timestamp> = (0..48i64)
        .map(|k| Timestamp::from_secs(k * 86_400 + (k % 24) * 3_600 + 600))
        .collect();
    let sub = [
        Timestamp::from_secs(3 * 3_600),
        Timestamp::from_secs(86_400),
    ];
    let (home_a, home_b) = home.split_at(home.len() * 2 / 3);
    let (home_b, home_c) = home_b.split_at(home_b.len() / 2);
    [
        [
            tag("gen-half", &half),
            tag("gen-flat", &flat),
            tag("gen-sub", &sub),
            tag("gen-home", home_a),
        ]
        .concat(),
        tag("gen-home", home_b),
        tag("gen-home", home_c),
    ]
}

/// Feeds the fixture batches to a durable engine in `dir`, publishing
/// after the second, and writes one snapshot generation.
fn write_generation(dir: &Path) {
    let engine = ConcurrentStreamingPipeline::open_durable(generation_pipeline(), dir).unwrap();
    let writer = engine.writer();
    let [first, second, third] = generation_batches();
    writer.ingest_batch(1, &first, Some("gen-1")).unwrap();
    writer.ingest_batch(2, &second, None).unwrap();
    engine.publish().unwrap();
    writer.ingest_batch(3, &third, Some("gen-3")).unwrap();
    assert_eq!(engine.dirty_users(), 1, "gen-home is left dirty");
    engine.checkpoint_now().unwrap();
}

/// The `snap-*` files of a store directory, sorted by name.
fn generation_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-"))
        })
        .map(|path| {
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Regenerates the committed binary generation fixture. Ignored: run it
/// manually only when the fixture itself has to change, then commit it.
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_generation_fixture() {
    let dir = tmp_dir("generation-regen");
    write_generation(&dir);
    let fixture = PathBuf::from(GENERATION_FIXTURE_V2);
    let _ = std::fs::remove_dir_all(&fixture);
    std::fs::create_dir_all(&fixture).unwrap();
    for (name, bytes) in generation_files(&dir) {
        std::fs::write(fixture.join(name), bytes).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_writes_the_pinned_generation_bytes() {
    let dir = tmp_dir("generation-write");
    write_generation(&dir);
    let pinned = generation_files(Path::new(GENERATION_FIXTURE_V2));
    assert!(!pinned.is_empty(), "committed generation fixture present");
    let written = generation_files(&dir);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&written), names(&pinned));
    for ((name, got), (_, want)) in written.iter().zip(&pinned) {
        assert!(got == want, "{name} differs from the pinned generation");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A temp store directory seeded with the generation in `fixture`.
fn seeded_generation_dir(tag: &str, fixture: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in generation_files(Path::new(fixture)) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

/// The generation fixture's state in memory: its batches, with a
/// publish after the second, and no disk.
fn generation_reference() -> StreamingPipeline {
    let mut reference = StreamingPipeline::new(generation_pipeline());
    let [first, second, third] = generation_batches();
    for (i, batch) in [first, second, third].iter().enumerate() {
        reference.ingest_posts(batch);
        if i == 1 {
            reference.snapshot().unwrap();
        }
    }
    reference
}

/// The JSON bytes of a report.
fn json(report: Result<GeolocationReport, CoreError>) -> String {
    serde_json::to_string(&report.unwrap()).unwrap()
}

/// The JSON bytes of the report `engine` publishes now.
fn published(engine: &ConcurrentStreamingPipeline) -> String {
    serde_json::to_string(engine.publish().unwrap().report()).unwrap()
}

#[test]
fn pinned_generation_reopens_into_the_reference_next_report() {
    let mut reference = generation_reference();
    let want = reference.snapshot().unwrap();
    for fixture in [GENERATION_FIXTURE, GENERATION_FIXTURE_V2] {
        let dir = seeded_generation_dir("generation-open", fixture);
        let reopened =
            ConcurrentStreamingPipeline::open_durable(generation_pipeline(), &dir).unwrap();
        assert_eq!(reopened.last_source_seq(), 3, "{fixture}");
        assert_eq!(
            reopened.source_checkpoint().as_deref(),
            Some("gen-3"),
            "{fixture}"
        );
        assert_eq!(
            published(&reopened),
            serde_json::to_string(&want).unwrap(),
            "reopened {fixture} diverged from the reference"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // The crowd covers what the fixture is for.
    assert!(
        want.placements()
            .iter()
            .any(|p| p.user() == "gen-half" && p.zone_minutes() == 30),
        "gen-half is not kept at a half-hour offset: {:?}",
        want.placements()
    );
    assert_eq!(want.flat_removed(), 1, "gen-flat is flat-removed");
    assert!(want.profiles().iter().all(|p| p.user() != "gen-sub"));
}

/// One post per `(user, epoch seconds)` pair, as a monitor batch.
fn monitor_batch(posts: &[(&str, i64)]) -> Posts {
    posts
        .iter()
        .map(|&(user, secs)| (user.to_owned(), Timestamp::from_secs(secs)))
        .collect()
}

/// A store written before the binary codec upgrades in place: its JSON
/// generation and JSON log records load, new records and the next
/// generation are binary, and after every step — reopen, ingest,
/// rotation, reopen, and a fallback onto the JSON generation that
/// replays a mixed log — the engine publishes the bytes of one that
/// never touched disk.
#[test]
fn json_store_upgrades_to_binary_in_place() {
    const DAY: i64 = 86_400;
    let dir = seeded_generation_dir("upgrade", GENERATION_FIXTURE);
    let mut reference = generation_reference();

    // Two JSON log records past the generation, which covers seq 3:
    // `gen-sub` crosses the threshold, `gen-new` arrives.
    let sub: Vec<i64> = (0..9).map(|k| 500 * DAY + k * DAY + 3 * 3_600).collect();
    let new: Vec<i64> = (0..12).map(|k| 500 * DAY + k * DAY + 14 * 3_600).collect();
    let legacy: [FixtureBatch; 2] = [
        (4, Some("json-4"), vec![("gen-sub", sub)]),
        (
            5,
            None,
            vec![("gen-new", new), ("gen-half", vec![510 * DAY])],
        ),
    ];
    let mut log = Vec::new();
    for (seq, checkpoint, deltas) in &legacy {
        let payload = legacy_payload(*seq, *checkpoint, deltas);
        log.extend_from_slice(&encode_record(*seq, payload.as_bytes()));
        for (user, posts) in deltas {
            let posts: Vec<Timestamp> = posts.iter().map(|&s| Timestamp::from_secs(s)).collect();
            reference.ingest(user, &posts);
        }
    }
    std::fs::write(dir.join(LOG_FILE), log).unwrap();

    let engine = ConcurrentStreamingPipeline::open_durable(generation_pipeline(), &dir).unwrap();
    let writer = engine.writer();
    assert_eq!(engine.last_source_seq(), 5);
    assert_eq!(engine.source_checkpoint().as_deref(), Some("json-4"));
    assert_eq!(published(&engine), json(reference.snapshot()));

    // Binary records after the JSON ones, then a binary rotation.
    let ingest = |reference: &mut StreamingPipeline, seq: u64, posts: &[(&str, i64)]| {
        let batch = monitor_batch(posts);
        assert!(writer
            .ingest_batch(seq, &batch, Some(&format!("bin-{seq}")))
            .unwrap());
        for (user, ts) in &batch {
            reference.ingest(user, std::slice::from_ref(ts));
        }
        assert_eq!(published(&engine), json(reference.snapshot()));
    };
    ingest(
        &mut reference,
        6,
        &[("gen-new", 520 * DAY + 15 * 3_600), ("gen-x", 520 * DAY)],
    );
    assert_eq!(engine.checkpoint_now().unwrap(), Some(2));
    for (name, bytes) in generation_files(&dir) {
        if name.starts_with("snap-0000000000000002-") {
            let payload = crowdtz_store::decode_blob(&bytes, 2).unwrap();
            assert!(matches!(payload[0], 2 | 3), "{name} is not a binary part");
        }
    }
    ingest(
        &mut reference,
        7,
        &[("gen-sub", 521 * DAY + 3 * 3_600), ("gen-half", 522 * DAY)],
    );
    drop((writer, engine));
    let want = json(reference.snapshot());

    // A copy whose binary generation rots falls back to the JSON one and
    // replays two JSON records, then two binary ones.
    let fallback = tmp_dir("upgrade-fallback");
    std::fs::create_dir_all(&fallback).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, fallback.join(path.file_name().unwrap())).unwrap();
    }
    let rotten = fallback.join("snap-0000000000000002-0000.part");
    let mut bytes = std::fs::read(&rotten).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&rotten, bytes).unwrap();

    for (store, generation) in [(&dir, 2), (&fallback, 1)] {
        let reopened =
            ConcurrentStreamingPipeline::open_durable(generation_pipeline(), store).unwrap();
        assert_eq!(reopened.last_source_seq(), 7, "generation {generation}");
        assert_eq!(reopened.source_checkpoint().as_deref(), Some("bin-7"));
        assert_eq!(
            published(&reopened),
            want,
            "reopened onto generation {generation} diverged"
        );
        std::fs::remove_dir_all(store).unwrap();
    }
}
