//! Streaming snapshots are byte-identical to batch analysis — end to end,
//! at every round of incremental ingestion, and for any worker-thread
//! count.
//!
//! CI runs this file under `CROWDTZ_THREADS=1` and `CROWDTZ_THREADS=4`
//! (see `.github/workflows/ci.yml`) alongside `parallel_determinism.rs`,
//! so the env knob is exercised on the streaming path too.

use crowdtz_core::{GeolocationPipeline, GeolocationReport, StreamingPipeline};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, TraceSet};

/// A two-region crowd (Japan UTC+9 and Brazil UTC−3) so polish, the
/// mixture, and the dirty-set bookkeeping all have real work to do.
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

/// Serializes the whole report. Any divergence between the batch and the
/// streaming path — ordering, accumulation, caching — is a string
/// mismatch.
fn full_json(report: &GeolocationReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// Every numeric product of the report, excluding the `threads` tag —
/// for comparisons *across* thread counts, where the tag legitimately
/// differs.
fn numeric_json(report: &GeolocationReport) -> String {
    serde_json::to_string(&(
        report.placements(),
        report.histogram(),
        report.single_fit(),
        report.multi_fit(),
    ))
    .unwrap()
}

/// The first `round + 1` of 3 index-chunks of every user's posts, as a
/// cumulative trace set.
fn cumulative_rounds(traces: &TraceSet, round: usize) -> TraceSet {
    let mut out = TraceSet::default();
    for trace in traces.iter() {
        let posts = trace.posts();
        for &ts in &posts[..posts.len() * (round + 1) / 3] {
            out.record(trace.id(), ts);
        }
    }
    out
}

#[test]
fn streaming_snapshot_is_byte_identical_to_batch_across_thread_counts() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let batch = GeolocationPipeline::default()
            .threads(threads)
            .analyze(&traces)
            .unwrap();
        let mut streaming = StreamingPipeline::new(GeolocationPipeline::default().threads(threads));
        streaming.ingest_set(&traces);
        let snapshot = streaming.snapshot().unwrap();
        assert_eq!(
            full_json(&batch),
            full_json(&snapshot),
            "streaming diverged from batch at {threads} threads"
        );
    }
}

#[test]
fn incremental_rounds_match_batch_at_every_thread_count() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let mut streaming = StreamingPipeline::new(GeolocationPipeline::default().threads(threads));
        let mut ingested = TraceSet::default();
        for round in 0..3 {
            // Stream only this round's delta; batch re-analyzes the
            // cumulative traces from scratch.
            let cumulative = cumulative_rounds(&traces, round);
            for delta in cumulative.delta_from(&ingested) {
                streaming.ingest(delta.0, &delta.1);
            }
            ingested = cumulative.clone();
            let batch = GeolocationPipeline::default()
                .threads(threads)
                .analyze(&cumulative)
                .unwrap();
            let snapshot = streaming.snapshot().unwrap();
            assert_eq!(
                full_json(&batch),
                full_json(&snapshot),
                "round {round} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn env_default_thread_count_changes_nothing_for_streaming() {
    // Whatever CROWDTZ_THREADS (or the machine's parallelism) resolves
    // to, the default-threaded streaming snapshot must match the
    // single-threaded one.
    let traces = two_region_crowd();
    let snapshot_json = |pipeline: GeolocationPipeline| {
        let mut streaming = StreamingPipeline::new(pipeline);
        streaming.ingest_set(&traces);
        numeric_json(&streaming.snapshot().unwrap())
    };
    assert_eq!(
        snapshot_json(GeolocationPipeline::default()),
        snapshot_json(GeolocationPipeline::default().threads(1))
    );
}
