//! Backward compatibility: write-ahead logs written *before* the
//! signed-delta extension (no `retractions` field in any record) must
//! recover byte-identically on today's engine, and snapshot generations
//! must keep their on-disk bytes.
//!
//! The fixture at `tests/fixtures/legacy-deltas.log` is a committed
//! old-format log — its bytes are pinned in git, so this test keeps
//! passing even if the current encoder evolves further. The files under
//! `tests/fixtures/generation-48/` are one snapshot generation, pinned
//! the same way: a 48-zone durable engine writes exactly these bytes for
//! [`generation_batches`], and reopening them resumes where it left off.
//! Regenerate either fixture (only if it must change) with:
//!
//! ```text
//! cargo test -p crowdtz-core --test legacy_wal_compat -- --ignored
//! ```

use std::path::{Path, PathBuf};

use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline, StreamingPipeline, ZoneGrid};
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
fn old_format_log_recovers_byte_identically_on_the_durable_engine() {
    let dir = seeded_dir("single");
    let mut recovered = StreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    assert_eq!(recovered.last_source_seq(), 5, "source seq recovered");
    assert_eq!(
        recovered.source_checkpoint(),
        Some("round-5"),
        "checkpoint recovered"
    );
    let got = serde_json::to_string(&recovered.snapshot().unwrap()).unwrap();
    assert_eq!(got, reference_json(), "legacy replay diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_format_log_recovers_byte_identically_on_the_concurrent_engine() {
    let dir = seeded_dir("concurrent");
    let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
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

const GENERATION_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/generation-48");

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
    let mut engine = StreamingPipeline::open_durable(generation_pipeline(), dir).unwrap();
    let [first, second, third] = generation_batches();
    engine.ingest_batch(1, &first, Some("gen-1")).unwrap();
    engine.ingest_batch(2, &second, None).unwrap();
    engine.snapshot().unwrap();
    engine.ingest_batch(3, &third, Some("gen-3")).unwrap();
    assert_eq!(engine.stream().dirty_users(), 1, "gen-home is left dirty");
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

/// Regenerates the committed generation fixture. Ignored: run it
/// manually only when the fixture itself has to change, then commit it.
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_generation_fixture() {
    let dir = tmp_dir("generation-regen");
    write_generation(&dir);
    let fixture = PathBuf::from(GENERATION_FIXTURE);
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
    let pinned = generation_files(Path::new(GENERATION_FIXTURE));
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

#[test]
fn pinned_generation_reopens_into_the_reference_next_report() {
    let dir = tmp_dir("generation-open");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in generation_files(Path::new(GENERATION_FIXTURE)) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let mut reopened = StreamingPipeline::open_durable(generation_pipeline(), &dir).unwrap();
    assert_eq!(reopened.last_source_seq(), 3);
    assert_eq!(reopened.source_checkpoint(), Some("gen-3"));
    let got = reopened.snapshot().unwrap();

    // The in-memory reference: the same batches and publishes, no disk.
    let mut reference = StreamingPipeline::new(generation_pipeline());
    let [first, second, third] = generation_batches();
    for (i, batch) in [first, second, third].iter().enumerate() {
        reference.ingest_posts(batch);
        if i == 1 {
            reference.snapshot().unwrap();
        }
    }
    let want = reference.snapshot().unwrap();
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&want).unwrap(),
        "reopened generation diverged from the reference"
    );
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
    std::fs::remove_dir_all(&dir).unwrap();
}
