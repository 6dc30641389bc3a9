//! Observability is strictly out-of-band: attaching an observer never
//! changes a single byte of analysis output, and the metrics it records
//! satisfy exact invariants against the reports they describe — at every
//! worker-thread count.

use std::sync::Arc;

use crowdtz_core::{
    ConcurrentStreamingPipeline, GeolocationPipeline, GeolocationReport, StreamingPipeline,
    WindowConfig, WindowedPipeline,
};
use crowdtz_obs::Observer;
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, TraceSet};

/// A two-region crowd (Japan UTC+9 and Brazil UTC−3) so polish, the
/// mixture fit, and placement pruning all have real work to do.
fn two_region_crowd() -> TraceSet {
    let db = RegionDb::extended();
    let mut traces = PopulationSpec::new(db.get(&"japan".into()).unwrap().clone())
        .users(40)
        .seed(3)
        .posts_per_day(0.5)
        .generate();
    let brazil = PopulationSpec::new(db.get(&"brazil".into()).unwrap().clone())
        .users(40)
        .seed(4)
        .posts_per_day(0.5)
        .generate();
    for t in brazil.iter() {
        traces.insert(t.clone());
    }
    traces
}

fn full_json(report: &GeolocationReport) -> String {
    serde_json::to_string(report).unwrap()
}

#[test]
fn observer_never_changes_batch_output() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let plain = GeolocationPipeline::default()
            .threads(threads)
            .analyze(&traces)
            .unwrap();
        let observed = GeolocationPipeline::default()
            .threads(threads)
            .observer(Observer::from_env())
            .analyze(&traces)
            .unwrap();
        assert_eq!(
            full_json(&plain),
            full_json(&observed),
            "observer changed batch output at {threads} threads"
        );
    }
}

#[test]
fn observer_never_changes_streaming_output() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let snapshot = |observer: Option<Arc<Observer>>| {
            let mut pipeline = GeolocationPipeline::default().threads(threads);
            if let Some(obs) = observer {
                pipeline = pipeline.observer(obs);
            }
            let mut streaming = StreamingPipeline::new(pipeline);
            streaming.ingest_set(&traces);
            full_json(&streaming.snapshot().unwrap())
        };
        assert_eq!(
            snapshot(None),
            snapshot(Some(Observer::from_env())),
            "observer changed streaming output at {threads} threads"
        );
    }
}

#[test]
fn placed_user_counter_matches_report() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let report = GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let metrics = observer.snapshot();
    assert_eq!(
        metrics.counters["pipeline.users_placed"],
        report.users_classified() as u64
    );
    assert_eq!(
        metrics.counters["placement.users"],
        report.users_classified() as u64
    );
    assert_eq!(metrics.counters["pipeline.analyses"], 1);
    assert_eq!(
        metrics.counters["pipeline.flat_removed"],
        report.flat_removed() as u64
    );
}

#[test]
fn every_eligible_user_resolves_exactly_once() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let report = GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let metrics = observer.snapshot();
    let hist = &metrics.histograms["placement.exact_evals_per_user"];
    // One histogram observation per eligible (above-threshold) user:
    // kept and flat-removed users alike run the exact scan once.
    let eligible = (report.users_classified() + report.flat_removed()) as u64;
    assert_eq!(hist.count, eligible);
    assert_eq!(hist.buckets.iter().sum::<u64>(), eligible);
    assert_eq!(hist.sum, metrics.counters["placement.exact_evals"]);
    // Every scan costs at least one and at most 24 exact EMD evaluations.
    assert!(hist.sum >= hist.count);
    assert!(
        hist.sum <= 24 * hist.count,
        "pruning bound violated: {}",
        hist.sum
    );
}

#[test]
fn shard_occupancy_gauges_partition_the_crowd() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let mut streaming = StreamingPipeline::new(
        GeolocationPipeline::default()
            .shards(4)
            .observer(Arc::clone(&observer)),
    );
    streaming.ingest_set(&traces);
    streaming.snapshot().unwrap();
    let metrics = observer.snapshot();
    let total: f64 = (0..4)
        .map(|i| metrics.gauges[&format!("shard.{i:02}.users")])
        .sum();
    assert_eq!(total, traces.iter().count() as f64);
}

#[test]
fn streaming_dirty_gauge_tracks_delta_size() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let mut streaming =
        StreamingPipeline::new(GeolocationPipeline::default().observer(Arc::clone(&observer)));
    streaming.ingest_set(&traces);
    streaming.snapshot().unwrap();
    // Everything was dirty on the priming snapshot.
    let total_users = traces.iter().count() as f64;
    assert_eq!(observer.snapshot().gauges["streaming.dirty"], total_users);

    // Touch exactly three users; the next refresh must gauge exactly 3.
    let ids: Vec<String> = traces.iter().take(3).map(|t| t.id().to_string()).collect();
    for (i, id) in ids.iter().enumerate() {
        streaming.ingest(
            id,
            &[crowdtz_time::Timestamp::from_secs(
                86_400 * (i as i64 + 400),
            )],
        );
    }
    streaming.snapshot().unwrap();
    let metrics = observer.snapshot();
    assert_eq!(metrics.gauges["streaming.dirty"], 3.0);
    assert_eq!(metrics.counters["streaming.snapshots"], 2);
    // `ingest_set` ingests one delta per trace, plus the three touches.
    assert_eq!(
        metrics.counters["streaming.deltas"],
        total_users as u64 + ids.len() as u64
    );
}

#[test]
fn metric_snapshots_are_identical_across_thread_counts() {
    let traces = two_region_crowd();
    let metrics_json = |threads: usize| {
        let observer = Observer::from_env();
        GeolocationPipeline::default()
            .threads(threads)
            .observer(Arc::clone(&observer))
            .analyze(&traces)
            .unwrap();
        serde_json::to_string(&observer.snapshot()).unwrap()
    };
    let baseline = metrics_json(1);
    for threads in [2usize, 8] {
        assert_eq!(
            baseline,
            metrics_json(threads),
            "metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn stage_timings_cover_every_pipeline_stage() {
    // Batch analyze is ingest-then-snapshot on the sharded engine, so
    // its stage spans are the streaming engine's plus the ingest span.
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let stages = observer.stage_timings();
    let stage = |name: &str| {
        stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing stage {name}"))
    };
    for expected in [
        "pipeline.ingest",
        "streaming.refresh",
        "streaming.place",
        "streaming.snapshot",
        "streaming.fit",
    ] {
        assert_eq!(stage(expected).calls, 1);
        assert!(
            stage(expected).total_ns > 0,
            "zero wall time for {expected}"
        );
    }
    // Kernel time is a part of the refresh, reported apart from its
    // bookkeeping.
    assert!(stage("streaming.place").total_ns <= stage("streaming.refresh").total_ns);
}

/// Runs a three-round windowed workload — ingest, one explicit
/// retraction, and an expiry at the final publish — and returns the
/// final report JSON plus the observer (if any).
fn windowed_run(observer: Option<Arc<Observer>>) -> String {
    let engine =
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2));
    let window = WindowedPipeline::new(
        engine,
        WindowConfig {
            bucket_secs: 86_400,
            window_buckets: 2,
            drift_threshold: 0.5,
            drift_history: 2,
        },
        observer,
    );
    let writer = window.engine().writer();
    for day in 0..3i64 {
        let posts: Vec<(String, crowdtz_time::Timestamp)> = (0..6)
            .map(|u| {
                (
                    format!("obs-u{u}"),
                    crowdtz_time::Timestamp::from_secs(day * 86_400 + (u * 3 + day) * 3_600),
                )
            })
            .collect();
        window.ingest_posts(&writer, &posts).unwrap();
        if day == 1 {
            window
                .retract_posts(
                    &writer,
                    &[("obs-u0", crowdtz_time::Timestamp::from_secs(86_400 + 3_600))],
                )
                .unwrap();
        }
        window.publish().unwrap();
    }
    serde_json::to_string(window.publish().unwrap().report()).unwrap()
}

#[test]
fn observer_never_changes_windowed_output() {
    assert_eq!(
        windowed_run(None),
        windowed_run(Some(Observer::from_env())),
        "observer changed windowed output"
    );
}

#[test]
fn window_counters_match_the_workload() {
    let observer = Observer::from_env();
    windowed_run(Some(Arc::clone(&observer)));
    let metrics = observer.snapshot();
    // One explicit retraction (a day-1 post), plus all 6 day-0 posts
    // released when the day-0 bucket left the two-bucket window at the
    // day-2 publish.
    assert_eq!(metrics.counters["window.retractions"], 1 + 6);
    assert_eq!(metrics.counters["window.expired_buckets"], 1);
    // Changepoints depend on the estimator, but the counter must agree
    // with whatever the run recorded — here the day-1 retraction plus
    // expiry shuffle small-crowd fractions, so just require presence.
    assert!(metrics.counters.contains_key("window.changepoints"));
    let stages = observer.stage_timings();
    let publish = stages
        .iter()
        .find(|s| s.name == "window.publish")
        .expect("window.publish span recorded");
    assert_eq!(publish.calls, 4);
    assert!(publish.total_ns > 0);
}
