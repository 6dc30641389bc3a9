//! The streaming JSON writer against the value tree, on full reports.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`, and
//! every byte-identity suite encodes both of its sides that way, so none
//! of them would notice a writer bug. Here each report is also printed
//! through `to_value().write_compact()`, the tree path the writer must
//! reproduce byte for byte: on all three zone grids, at partial coverage,
//! on a windowed tenant, and after durable recovery. The tenant's cached
//! body must be those same bytes.

use std::path::PathBuf;

use crowdtz_core::{
    GeolocationReport, PublishedReport, Tenant, TenantConfig, TenantRegistry, WindowConfig,
    ZoneGrid,
};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp};
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

fn borrowed(posts: &[(String, Timestamp)]) -> Vec<(&str, Timestamp)> {
    posts
        .iter()
        .map(|(user, ts)| (user.as_str(), *ts))
        .collect()
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
        tenant
            .engine()
            .writer()
            .ingest_posts_ref(&borrowed(&posts))
            .unwrap();
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
        window.ingest_posts(&writer, &borrowed(chunk)).unwrap();
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
        writer.ingest_posts_ref(&borrowed(head)).unwrap();
        registry.checkpoint_all().unwrap();
        // The second half stays in the log, replayed on recovery.
        writer.ingest_posts_ref(&borrowed(tail)).unwrap();
        assert_streams(&tenant, &tenant.engine().publish().unwrap())
    };
    let registry = TenantRegistry::new();
    let tenant = registry.create("durable", durable(), None).unwrap();
    let after = assert_streams(&tenant, &tenant.engine().publish().unwrap());
    assert_eq!(after, before, "recovery changed the report");
    std::fs::remove_dir_all(&dir).unwrap();
}
