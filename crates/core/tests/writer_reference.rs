//! The streaming JSON writer against the value tree, on full reports.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`, and
//! every byte-identity suite encodes both of its sides that way, so none
//! of them would notice a writer bug. Here each report is also printed
//! through `to_value().write_compact()`, the tree path the writer must
//! reproduce byte for byte: on all three zone grids, at partial coverage,
//! on a windowed tenant, and after durable recovery. The tenant's cached
//! body must be those same bytes — also when it is spliced from the
//! previous body, over random operation sequences.

use std::path::PathBuf;
use std::sync::Arc;

use crowdtz_core::{
    GeolocationReport, PublishedReport, Tenant, TenantConfig, TenantRegistry, WindowConfig,
    ZoneGrid,
};
use crowdtz_obs::{LogLevel, Observer};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp};
use proptest::prelude::*;
use serde::Serialize;

const WEEK_SECS: i64 = 7 * 86_400;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-writer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Users from whole-, half- and quarter-hour zones (Brazil −3, India
/// +5:30, Nepal +5:45, Japan +9), so finer grids place off the hour, in
/// time order.
fn crowd_posts() -> Vec<(String, Timestamp)> {
    let db = RegionDb::extended();
    let mut posts = Vec::new();
    for (seed, region) in (11..).zip(["brazil", "india", "nepal", "japan"]) {
        let spec = PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(20)
            .seed(seed)
            .posts_per_day(0.4)
            .prefix(region);
        for trace in spec.generate().iter() {
            posts.extend(trace.posts().iter().map(|&ts| (trace.id().to_string(), ts)));
        }
    }
    posts.sort_by_key(|&(_, ts)| ts);
    posts
}

fn config(grid: ZoneGrid) -> TenantConfig {
    TenantConfig {
        grid,
        threads: 2,
        min_posts: 10,
        ..TenantConfig::default()
    }
}

/// Asserts the streamed report equals the tree's text and the tenant's
/// body; returns the text.
fn assert_streams(tenant: &Tenant, published: &PublishedReport) -> String {
    let report: &GeolocationReport = published.report();
    let streamed = serde_json::to_string(report).unwrap();
    let mut tree = String::new();
    report.to_value().write_compact(&mut tree);
    assert_eq!(streamed, tree, "epoch {}", published.epoch());
    assert_eq!(
        tenant.report_body(published).unwrap().as_slice(),
        streamed.as_bytes()
    );
    streamed
}

#[test]
fn reports_on_every_grid_stream_like_the_tree() {
    let posts = crowd_posts();
    for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
        let registry = TenantRegistry::new();
        let tenant = registry.create("forum", config(grid), None).unwrap();
        tenant.engine().writer().ingest_posts_ref(&posts).unwrap();
        let text = assert_streams(&tenant, &tenant.engine().publish().unwrap());
        assert_eq!(
            text.contains("zone_minutes"),
            grid != ZoneGrid::Hourly,
            "{grid}: sub-hour placements must appear exactly on finer grids"
        );
        // A partial crawl reweights the report by its coverage.
        assert_streams(
            &tenant,
            &tenant.engine().publish_with_coverage(0.6).unwrap(),
        );
    }
}

#[test]
fn windowed_reports_stream_like_the_tree() {
    let posts = crowd_posts();
    let registry = TenantRegistry::new();
    let tenant = registry
        .create(
            "windowed",
            TenantConfig {
                window: Some(WindowConfig {
                    bucket_secs: WEEK_SECS,
                    window_buckets: 8,
                    ..WindowConfig::default()
                }),
                ..config(ZoneGrid::HalfHour)
            },
            None,
        )
        .unwrap();
    let window = tenant.window().unwrap();
    let writer = tenant.engine().writer();
    let mut published = 0;
    // Time-ordered chunks, so older weeks expire as the crawl advances.
    for chunk in posts.chunks(posts.len() / 16 + 1) {
        window.ingest_posts(&writer, chunk).unwrap();
        if let Ok(cut) = window.publish() {
            assert_streams(&tenant, &cut);
            published += 1;
        }
    }
    assert!(published > 5, "only {published} windowed publishes");
}

#[test]
fn recovered_reports_stream_like_the_tree() {
    let dir = tmp_dir("recovered");
    let posts = crowd_posts();
    let durable = || TenantConfig {
        durable_dir: Some(dir.clone()),
        ..config(ZoneGrid::QuarterHour)
    };
    let before = {
        let registry = TenantRegistry::new();
        let tenant = registry.create("durable", durable(), None).unwrap();
        let writer = tenant.engine().writer();
        let (head, tail) = posts.split_at(posts.len() / 2);
        writer.ingest_posts_ref(head).unwrap();
        registry.checkpoint_all().unwrap();
        // The second half stays in the log, replayed on recovery.
        writer.ingest_posts_ref(tail).unwrap();
        assert_streams(&tenant, &tenant.engine().publish().unwrap())
    };
    let registry = TenantRegistry::new();
    let tenant = registry.create("durable", durable(), None).unwrap();
    let after = assert_streams(&tenant, &tenant.engine().publish().unwrap());
    assert_eq!(after, before, "recovery changed the report");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One random post burst for a user, on days `day − 2 ..= day`: peaked
/// near the user's hour (a placeable profile), spread evenly over the
/// day (a flat one), or at random hours — so users cross the flat
/// filter both ways as bursts accumulate and expire.
fn burst(rng: &mut proptest::TestRng, peak: u64, day: u64) -> Vec<Timestamp> {
    let n = 1 + rng.next_u64() % 5;
    let kind = rng.next_u64() % 3;
    let start = rng.next_u64() % 24;
    (0..n)
        .map(|k| {
            let hour = match kind {
                0 => peak + rng.next_u64() % 2,
                1 => start + k * 24 / n,
                _ => rng.next_u64() % 24,
            } % 24;
            let day = day - rng.next_u64() % 3;
            let minute = rng.next_u64() % 60;
            Timestamp::from_secs((day * 86_400 + hour * 3_600 + minute * 60) as i64)
        })
        .collect()
}

/// A publish through the tenant's front: the window's when it has one.
fn publish(tenant: &Tenant, coverage: f64) -> Option<Arc<PublishedReport>> {
    match tenant.window() {
        Some(window) => window.publish_with_coverage(coverage),
        None => tenant.engine().publish_with_coverage(coverage),
    }
    .ok()
}

/// Splice identity: random operation sequences on a plain and on a
/// windowed durable tenant — ingest and retraction, window expiry as
/// the days advance, users crossing the activity threshold and the flat
/// filter both ways, publishes whose body is never asked for, bodies of
/// superseded epochs asked for after newer ones, zero-dirty publishes at
/// a new coverage, and one durable reopen partway through. Every body
/// the tenant serves equals `serde_json::to_vec` of its report. Over the
/// run, bodies must both copy from their predecessor and encode fresh
/// bytes, so the property cannot hold vacuously.
#[test]
fn spliced_bodies_equal_the_full_encode() {
    const USERS: usize = 10;
    const STEPS: usize = 48;
    let observer = Observer::with_level(LogLevel::Off);
    let config = ProptestConfig::with_cases(16);
    proptest::run_cases(&config, "spliced_bodies", |rng| {
        let dir = tmp_dir("spliced");
        let grids = [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour];
        let windowed = rng.next_u64() % 2 == 0;
        let config = TenantConfig {
            grid: grids[(rng.next_u64() % 3) as usize],
            threads: 1 + (rng.next_u64() % 2) as usize,
            shards: 3,
            min_posts: 4,
            durable_dir: Some(dir.clone()),
            window: windowed.then(|| WindowConfig {
                bucket_secs: 86_400,
                window_buckets: 3 + (rng.next_u64() % 4) as usize,
                ..WindowConfig::default()
            }),
        };
        let open = || {
            let registry = TenantRegistry::new();
            let tenant = registry
                .create("spliced", config.clone(), Some(Arc::clone(&observer)))
                .unwrap();
            (registry, tenant)
        };
        let (mut registry, mut tenant) = open();
        let mut writer = tenant.engine().writer();
        let peaks: Vec<u64> = (0..USERS).map(|_| rng.next_u64() % 24).collect();
        let mut live: Vec<Vec<Timestamp>> = vec![Vec::new(); USERS];
        let mut cuts: Vec<Arc<PublishedReport>> = Vec::new();
        let mut day = 2u64;
        let reopen_at = STEPS / 4 + (rng.next_u64() % (STEPS as u64 / 2)) as usize;
        for step in 0..STEPS {
            if step == reopen_at {
                drop((writer, tenant, registry));
                (registry, tenant) = open();
                writer = tenant.engine().writer();
                cuts.clear();
            }
            let u = (rng.next_u64() % USERS as u64) as usize;
            let id = format!("u{u:02}");
            match rng.next_u64() % 10 {
                0..=3 => {
                    let posts = burst(rng, peaks[u], day);
                    writer.ingest(&id, &posts).unwrap();
                    live[u].extend(posts);
                }
                4 if !live[u].is_empty() => {
                    // Retract seen posts: all of them, or a few; expired
                    // ones release nothing.
                    let n = if rng.next_u64() % 3 == 0 {
                        live[u].len()
                    } else {
                        (1 + rng.next_u64() % 3).min(live[u].len() as u64) as usize
                    };
                    let gone: Vec<(&str, Timestamp)> = (0..n)
                        .map(|_| {
                            let i = (rng.next_u64() % live[u].len() as u64) as usize;
                            (id.as_str(), live[u].swap_remove(i))
                        })
                        .collect();
                    writer.retract_posts_ref(&gone).unwrap();
                }
                5 => day += 1 + rng.next_u64() % 2,
                6 if cuts.len() > 1 => {
                    // A superseded cut, asked for after a newer one.
                    let cut = &cuts[(rng.next_u64() % (cuts.len() as u64 - 1)) as usize];
                    let body = tenant.report_body(cut).unwrap();
                    let want = serde_json::to_vec(cut.report()).unwrap();
                    prop_assert!(*body == want, "superseded epoch {}", cut.epoch());
                }
                _ => {
                    // A publish, then sometimes a zero-dirty one at a new
                    // coverage; some bodies are never asked for.
                    let coverage = [1.0, 0.5, 0.25][(rng.next_u64() % 3) as usize];
                    let Some(cut) = publish(&tenant, coverage) else {
                        continue;
                    };
                    cuts.push(cut);
                    if rng.next_u64() % 3 == 0 {
                        let again = publish(&tenant, coverage / 2.0).expect("nothing changed");
                        cuts.push(again);
                    }
                    let newest = cuts.last().expect("just published");
                    if rng.next_u64() % 4 != 0 {
                        let body = tenant.report_body(newest).unwrap();
                        let want = serde_json::to_vec(newest.report()).unwrap();
                        prop_assert!(*body == want, "step {} epoch {}", step, newest.epoch());
                    }
                }
            }
        }
        drop((writer, tenant, registry));
        std::fs::remove_dir_all(&dir).unwrap();
        Ok(())
    });
    let counters = observer.snapshot().counters;
    let (bytes, copied) = (
        counters["tenant.body_bytes"],
        counters["tenant.body_bytes_copied"],
    );
    assert!(
        0 < copied && copied < bytes,
        "bodies must both splice and encode: {copied} of {bytes} bytes copied"
    );
}
