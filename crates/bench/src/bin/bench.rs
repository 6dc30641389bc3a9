//! Benchmark telemetry: times the placement engine against the naive
//! per-call path, the bootstrap across thread counts, the streaming
//! pipeline against full re-analysis, and the sharded ingest across
//! shard counts, then writes the numbers to `BENCH_placement.json`,
//! `BENCH_streaming.json`, and `BENCH_sharding.json` for CI and the
//! ROADMAP to track.
//!
//! ```text
//! cargo run --release -p crowdtz-bench --bin bench \
//!     [users] [out.json] [streaming_users] [streaming_out.json] \
//!     [sharding_out.json] [durability_out.json] [ingest_out.json] \
//!     [serve_out.json] [window_out.json] [--obs-out obs.json]
//! ```
//!
//! Defaults: 10 000 placement users to `BENCH_placement.json`, 100 000
//! streaming users to `BENCH_streaming.json` and `BENCH_sharding.json`,
//! durable-store numbers to `BENCH_durability.json`, concurrent
//! multi-writer ingest throughput (writers 1/2/4/8 at 1/4/16 shards) and
//! one writer's serving-shape throughput (hourly polls of a simulated
//! crawl) to `BENCH_ingest.json`, and HTTP requests/sec through a loopback
//! `crowdtz-serve` instance (ingest POSTs and published-snapshot GETs
//! at 1/2/4 clients) to `BENCH_serve.json`, in the working directory. The durability JSON times the warm `open_durable` restart
//! at two write-ahead-log suffix lengths over the *same* crawl (replay
//! cost must scale with the log, not the crawl), the snapshot rotation
//! itself, the from-scratch re-analysis a warm restart avoids, and the
//! bytes the store writes: log bytes per post and generation bytes per
//! user. The sharding JSON records ingest posts/sec
//! at 1, 4, and 16 shards.
//! The placement JSON carries users/sec for each placement path, the
//! single-thread batch-kernel throughput on each zone grid (24/48/96),
//! resamples/sec for each bootstrap thread count, and the headline
//! engine-vs-naive ratio; both sections record the requested *and*
//! effective worker counts, since [`clamped_threads`] caps workers at
//! the host's parallelism, and the 4-thread-vs-1 bootstrap ratio is
//! omitted entirely when the host clamps every request to one worker
//! (it would measure scheduler noise, not speedup). The
//! streaming JSON compares a full batch re-analysis against an
//! incremental snapshot with ~1% dirty users, and times the serving
//! path's publish and body encode with ~1% dirty users and the previous
//! report held, against a full encode of the same report.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

use crowdtz_bench::{synthetic_profiles, synthetic_traces};
use crowdtz_core::{
    bootstrap_components_threads, clamped_threads, default_threads, place_user, BootstrapConfig,
    ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline, MultiRegionFit,
    PlacementEngine, PlacementHistogram, StreamingPipeline, TenantConfig, TenantRegistry, ZoneGrid,
};
use crowdtz_stats::simd_path;
use crowdtz_time::Timestamp;

/// Best-of-`runs` wall-clock seconds for `work`.
fn time_best<T>(runs: usize, mut work: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(work());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut positional = Vec::new();
    let mut obs_out: Option<String> = None;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == "--obs-out" {
            obs_out = Some(raw.next().expect("--obs-out needs a path"));
        } else {
            positional.push(arg);
        }
    }
    // Same opt-in rule as `repro`: the instrumented layers see an observer
    // only when a report or stderr echo was asked for.
    let observer = if obs_out.is_some() || std::env::var_os("CROWDTZ_LOG").is_some() {
        let obs = crowdtz_obs::Observer::from_env();
        crowdtz_obs::install_global(std::sync::Arc::clone(&obs));
        Some(obs)
    } else {
        None
    };
    let mut args = positional.into_iter();
    let users: usize = args
        .next()
        .map(|a| a.parse().expect("users must be an integer"))
        .unwrap_or(10_000);
    let out_path = args.next().unwrap_or_else(|| "BENCH_placement.json".into());
    let streaming_users: usize = args
        .next()
        .map(|a| a.parse().expect("streaming_users must be an integer"))
        .unwrap_or(100_000);
    let streaming_out = args.next().unwrap_or_else(|| "BENCH_streaming.json".into());
    let sharding_out = args.next().unwrap_or_else(|| "BENCH_sharding.json".into());
    let durability_out = args
        .next()
        .unwrap_or_else(|| "BENCH_durability.json".into());
    let ingest_out = args.next().unwrap_or_else(|| "BENCH_ingest.json".into());
    let serve_out = args.next().unwrap_or_else(|| "BENCH_serve.json".into());
    let window_out = args.next().unwrap_or_else(|| "BENCH_window.json".into());
    let runs = 5;
    let threads = default_threads();

    eprintln!("synthesizing {users} profiles…");
    let profiles = synthetic_profiles(users, 40, 7);
    let generic = GenericProfile::reference();
    let engine = PlacementEngine::new(&generic);

    eprintln!("timing placement (best of {runs})…");
    let naive_s = time_best(runs, || {
        profiles
            .iter()
            .map(|p| place_user(p, &generic))
            .collect::<Vec<_>>()
    });
    let engine_s = time_best(runs, || engine.place_all(&profiles, 1));
    let parallel_s = time_best(runs, || engine.place_all(&profiles, threads));
    let placements = engine.place_all(&profiles, threads);

    // Single-thread batch-kernel throughput on each zone grid, so CI can
    // gate per-grid regressions (the 48/96 grids do 2x/4x the lane work).
    eprintln!("timing the batch kernel per grid (best of {runs})…");
    let mut kernel_users_per_sec_by_grid = std::collections::BTreeMap::new();
    for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
        let grid_engine = PlacementEngine::with_grid(&generic, grid);
        let s = time_best(runs, || grid_engine.place_all(&profiles, 1));
        kernel_users_per_sec_by_grid.insert(grid.label().to_string(), users as f64 / s);
    }

    let iterations = 200;
    let config = BootstrapConfig {
        iterations,
        ..BootstrapConfig::default()
    };
    eprintln!("timing bootstrap ({iterations} resamples, best of {runs})…");
    let boot_s: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let s = time_best(runs, || {
                bootstrap_components_threads(&placements, &config, t).expect("bootstrap fits")
            });
            (t, s)
        })
        .collect();
    let boot_1 = boot_s[0].1;
    let boot_4 = boot_s[2].1;

    let placement = serde_json::json!({
        "naive_users_per_sec": users as f64 / naive_s,
        "engine_users_per_sec": users as f64 / engine_s,
        "parallel_users_per_sec": users as f64 / parallel_s,
        "parallel_threads": threads,
        "parallel_threads_effective": clamped_threads(threads),
        "engine_speedup_vs_naive": naive_s / engine_s,
        "parallel_speedup_vs_naive": naive_s / parallel_s,
        "kernel_users_per_sec_by_grid": kernel_users_per_sec_by_grid,
    });
    let resamples_per_sec: std::collections::BTreeMap<String, f64> = boot_s
        .iter()
        .map(|&(t, s)| (t.to_string(), iterations as f64 / s))
        .collect();
    let requested_threads: Vec<usize> = boot_s.iter().map(|&(t, _)| t).collect();
    let effective_threads: std::collections::BTreeMap<String, usize> = boot_s
        .iter()
        .map(|&(t, _)| (t.to_string(), clamped_threads(t)))
        .collect();
    let mut bootstrap = serde_json::json!({
        "iterations": iterations,
        "resamples_per_sec": resamples_per_sec,
        "requested_threads": requested_threads,
        "effective_threads": effective_threads,
    });
    // When the host clamps every request to one worker the 4-vs-1 ratio
    // measures scheduler noise, not parallel speedup — omit it rather
    // than publish a misleading ~1.0x.
    if clamped_threads(4) > 1 {
        if let serde_json::Value::Object(fields) = &mut bootstrap {
            fields.push((
                "speedup_4_threads_vs_1".to_string(),
                serde_json::json!(boot_1 / boot_4),
            ));
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = serde_json::json!({
        "users": users,
        "posts_per_user": 40,
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "placement": placement,
        "bootstrap": bootstrap,
        "fit": fit_bench(),
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");

    // The ISSUE's acceptance bars, surfaced loudly (non-fatal: CI boxes
    // can be noisy; the JSON is the record).
    let engine_speedup = naive_s / engine_s;
    if engine_speedup < 5.0 {
        eprintln!("WARNING: engine speedup {engine_speedup:.2}x is below the 5x bar");
    }
    let boot_speedup = boot_1 / boot_4;
    if boot_speedup < 1.5 {
        if host_cpus < 2 {
            eprintln!(
                "note: bootstrap 4-thread speedup {boot_speedup:.2}x — host has 1 CPU, \
                 parallel speedup is not measurable here"
            );
        } else {
            eprintln!(
                "WARNING: bootstrap 4-thread speedup {boot_speedup:.2}x is below the 1.5x bar"
            );
        }
    }

    streaming_bench(streaming_users, threads, host_cpus, &streaming_out);
    sharding_bench(streaming_users, threads, host_cpus, &sharding_out);
    durability_bench(streaming_users, threads, host_cpus, &durability_out);
    ingest_bench(streaming_users, host_cpus, &ingest_out);
    serve_bench(host_cpus, &serve_out);
    window_bench(host_cpus, &window_out);

    if let (Some(obs), Some(path)) = (&observer, &obs_out) {
        let report = obs.run_report("bench");
        let json = serde_json::to_string_pretty(&report).expect("serialize run report");
        std::fs::write(path, format!("{json}\n")).expect("write observability report");
        eprintln!("wrote observability report to {path}");
    }
}

/// Zone counts (UTC−11 … UTC+12) of the last daily publish of perfbench's
/// `dashboard` at seed 7: a Dream Market crowd of 1 812 users, 65 % at
/// UTC+1 and 35 % at UTC−6.
const DREAM_MARKET_ZONE_COUNTS: [usize; 24] = [
    3, 9, 44, 58, 80, 116, 129, 95, 90, 89, 117, 166, 214, 221, 209, 115, 41, 12, 1, 2, 0, 0, 0, 1,
];

/// The p50 wall time and the EM iterations of one
/// [`MultiRegionFit::fit`] (four components at most, the serving
/// default) on [`DREAM_MARKET_ZONE_COUNTS`]: the fixed cost every publish
/// and every bootstrap resample pays.
fn fit_bench() -> serde_json::Value {
    const RUNS: usize = 201;
    let histogram = PlacementHistogram::from_zone_counts(&DREAM_MARKET_ZONE_COUNTS);
    eprintln!("timing the mixture fit ({RUNS} runs)…");
    let (_, em_iterations) =
        MultiRegionFit::fit_counted(&histogram, 4).expect("the fixed histogram fits");
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(MultiRegionFit::fit(std::hint::black_box(&histogram), 4))
                .expect("the fixed histogram fits");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    serde_json::json!({
        "users": DREAM_MARKET_ZONE_COUNTS.iter().sum::<usize>(),
        "max_components": 4,
        "p50_ms": ms[RUNS / 2],
        "em_iterations": em_iterations,
    })
}

/// Full batch re-analysis vs incremental streaming snapshot with ~1%
/// dirty users, plus the held-report round of [`held_report_round`],
/// written to `BENCH_streaming.json`.
fn streaming_bench(users: usize, threads: usize, host_cpus: usize, out_path: &str) {
    let posts_per_user = 40;
    eprintln!("synthesizing {users} streaming traces…");
    let traces = synthetic_traces(users, posts_per_user, 11);
    let pipeline = || GeolocationPipeline::default().threads(threads);

    let runs = 3;
    eprintln!("timing full re-analysis (best of {runs})…");
    let full_s = time_best(runs, || pipeline().analyze(&traces).expect("batch analyze"));

    // Prime the streaming engine with the whole crowd, then time only the
    // between-rounds work: ingest a ~1% dirty set and snapshot.
    let mut streaming = StreamingPipeline::new(pipeline());
    streaming.ingest_set(&traces);
    streaming.snapshot().expect("priming snapshot");
    // Zero dirty users: the floor of any snapshot (collect + aggregate +
    // fit-cache hit).
    let cached_s = time_best(runs, || streaming.snapshot().expect("cached snapshot"));
    let dirty = (users / 100).max(1);
    eprintln!("timing incremental snapshots ({dirty} dirty users/round, best of {runs})…");
    let mut round: i64 = 0;
    let incr_s = time_best(runs, || {
        round += 1;
        for i in 0..dirty {
            let user = format!("u{:06}", (i * 97 + round as usize * 31) % users);
            let ts =
                Timestamp::from_secs(posts_per_user as i64 * 86_400 + round * 3_600 + i as i64);
            streaming.ingest(&user, &[ts]);
        }
        streaming.snapshot().expect("incremental snapshot")
    });

    drop(streaming);
    let held = held_report_round(&traces, dirty, threads, runs);

    let speedup = full_s / incr_s;
    let report = serde_json::json!({
        "users": users,
        "posts_per_user": posts_per_user,
        "dirty_users_per_round": dirty,
        "threads": threads,
        "threads_effective": clamped_threads(threads),
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "full_reanalyze_secs": full_s,
        "cached_snapshot_secs": cached_s,
        "incremental_snapshot_secs": incr_s,
        "full_users_per_sec": users as f64 / full_s,
        "incremental_users_per_sec": users as f64 / incr_s,
        "incremental_speedup_vs_full": speedup,
        "held_publish_secs": held.publish_s,
        "held_encode_secs": held.encode_s,
        "held_full_encode_secs": held.full_encode_s,
        "held_encode_copied_share": held.copied_share,
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize streaming report");
    std::fs::write(out_path, format!("{json}\n")).expect("write streaming telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if speedup < 10.0 {
        eprintln!("WARNING: incremental speedup {speedup:.2}x is below the 10x bar");
    }
    let encode_speedup = held.full_encode_s / held.encode_s;
    if encode_speedup < 3.0 {
        eprintln!(
            "WARNING: the spliced encode is {encode_speedup:.2}x the full one, below the 3x bar"
        );
    }
}

/// Best-of-`runs` seconds of the serving path's steps, and the share of
/// body bytes the spliced encodes copied (deterministic).
struct HeldRound {
    publish_s: f64,
    encode_s: f64,
    full_encode_s: f64,
    copied_share: f64,
}

/// Rounds through a [`TenantRegistry`] tenant primed with `traces`: each
/// round ingests one post for `dirty` users, publishes with the previous
/// report still held, and encodes the body (`Tenant::report_body`,
/// spliced from the previous body), which must equal the full encode
/// (`serde_json::to_vec`) timed beside it.
fn held_report_round(
    traces: &crowdtz_time::TraceSet,
    dirty: usize,
    threads: usize,
    runs: usize,
) -> HeldRound {
    let users = traces.len();
    eprintln!(
        "timing held-report publishes and encodes ({dirty} dirty users/round, best of {runs})…"
    );
    let observer = crowdtz_obs::Observer::with_level(crowdtz_obs::LogLevel::Off);
    let registry = TenantRegistry::new();
    let config = TenantConfig {
        threads,
        ..TenantConfig::default()
    };
    let tenant = registry
        .create("held", config, Some(Arc::clone(&observer)))
        .expect("create the held tenant");
    let writer = tenant.engine().writer();
    let deltas: Vec<(&str, &[Timestamp])> = traces.iter().map(|t| (t.id(), t.posts())).collect();
    writer.ingest_deltas(&deltas).expect("prime the tenant");
    let mut held = tenant.engine().publish().expect("priming publish");
    tenant.report_body(&held).expect("priming body");
    let counters = || {
        let counters = observer.snapshot().counters;
        (
            counters["tenant.body_bytes"],
            counters["tenant.body_bytes_copied"],
        )
    };
    let (bytes_before, copied_before) = counters();
    let mut round = HeldRound {
        publish_s: f64::INFINITY,
        encode_s: f64::INFINITY,
        full_encode_s: f64::INFINITY,
        copied_share: 0.0,
    };
    for r in 1..=runs {
        for i in 0..dirty {
            let user = format!("u{:06}", (i * 89 + r * 53) % users);
            let ts = Timestamp::from_secs(100 * 86_400 + r as i64 * 3_600 + i as i64);
            writer.ingest(&user, &[ts]).expect("dirty ingest");
        }
        let start = Instant::now();
        let published = tenant.engine().publish().expect("held publish");
        round.publish_s = round.publish_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let body = tenant.report_body(&published).expect("spliced body");
        round.encode_s = round.encode_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let full = serde_json::to_vec(published.report()).expect("full encode");
        round.full_encode_s = round.full_encode_s.min(start.elapsed().as_secs_f64());
        assert!(*body == full, "the spliced body must equal the full encode");
        // The previous report stays held across the next publish.
        held = published;
    }
    drop(held);
    let (bytes, copied) = counters();
    round.copied_share = (copied - copied_before) as f64 / (bytes - bytes_before) as f64;
    round
}

/// Ingest throughput across shard counts, written to
/// `BENCH_sharding.json`.
fn sharding_bench(users: usize, threads: usize, host_cpus: usize, out_path: &str) {
    let posts_per_user = 40;
    eprintln!("synthesizing {users} sharding traces…");
    let traces = synthetic_traces(users, posts_per_user, 17);
    let total_posts = (users * posts_per_user) as f64;

    let runs = 3;
    // A sorted array of records, not a string-keyed map: consumers get
    // shard counts as integers in ascending order instead of lexically
    // ordered keys ("16" < "4").
    let mut ingest_posts_per_sec = Vec::new();
    for shards in [1usize, 4, 16] {
        eprintln!("timing ingest at {shards} shards (best of {runs})…");
        let s = time_best(runs, || {
            let mut streaming = StreamingPipeline::new(
                GeolocationPipeline::default()
                    .threads(threads)
                    .shards(shards),
            );
            streaming.ingest_set(&traces);
            streaming
        });
        ingest_posts_per_sec.push(serde_json::json!({
            "shards": shards,
            "posts_per_sec": total_posts / s,
        }));
    }

    let report = serde_json::json!({
        "users": users,
        "posts_per_user": posts_per_user,
        "threads": threads,
        "threads_effective": clamped_threads(threads),
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "ingest_posts_per_sec": ingest_posts_per_sec,
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize sharding report");
    std::fs::write(out_path, format!("{json}\n")).expect("write sharding telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// Concurrent multi-writer ingest throughput (posts/sec) across writer
/// counts 1/2/4/8 at 1/4/16 shards, plus the serving shape
/// ([`serving_ingest_posts_per_sec`]), written to `BENCH_ingest.json`.
/// The grid feeds one 40-post delta per user into empty accumulators.
///
/// Clamp-aware: every record carries the requested *and* effective
/// writer count, and the per-shard scaling ratios (4 writers vs 1) are
/// omitted entirely on a one-CPU host, where they would measure
/// scheduler noise rather than lock-per-shard parallelism.
fn ingest_bench(users: usize, host_cpus: usize, out_path: &str) {
    // Ingest cost is per-batch lock traffic, not crowd scale; a modest
    // crowd keeps the 12-combination sweep quick.
    let users = users.min(20_000);
    let posts_per_user = 40;
    eprintln!("synthesizing {users} concurrent-ingest traces…");
    let traces = synthetic_traces(users, posts_per_user, 31);
    let per_user: Vec<(String, Vec<Timestamp>)> = traces
        .iter()
        .map(|t| (t.id().to_owned(), t.posts().to_vec()))
        .collect();
    let total_posts = (users * posts_per_user) as f64;

    let runs = 3;
    let writer_grid = [1usize, 2, 4, 8];
    let mut records = Vec::new();
    let mut scaling = Vec::new();
    for shards in [1usize, 4, 16] {
        let mut by_writers: Vec<(usize, f64)> = Vec::new();
        for writers in writer_grid {
            eprintln!(
                "timing concurrent ingest at {shards} shards / {writers} writers \
                 (best of {runs})…"
            );
            // Deal users round-robin so every writer carries an equal,
            // shard-mixed share; each ingest call is a 64-user batch
            // (one gate hold, one watermark step).
            let schedules: Vec<Vec<&(String, Vec<Timestamp>)>> = {
                let mut schedules = vec![Vec::new(); writers];
                for (i, delta) in per_user.iter().enumerate() {
                    schedules[i % writers].push(delta);
                }
                schedules
            };
            let secs = time_best(runs, || {
                let engine = ConcurrentStreamingPipeline::new(
                    GeolocationPipeline::default().shards(shards).threads(1),
                );
                std::thread::scope(|scope| {
                    for schedule in &schedules {
                        let writer = engine.writer();
                        scope.spawn(move || {
                            for chunk in schedule.chunks(64) {
                                let deltas: Vec<(&str, &[Timestamp])> = chunk
                                    .iter()
                                    .map(|(user, posts)| (user.as_str(), posts.as_slice()))
                                    .collect();
                                writer.ingest_deltas(&deltas).expect("plain ingest");
                            }
                        });
                    }
                });
                engine
            });
            let posts_per_sec = total_posts / secs;
            by_writers.push((writers, posts_per_sec));
            records.push(serde_json::json!({
                "shards": shards,
                "writers": writers,
                "writers_effective": clamped_threads(writers),
                "posts_per_sec": posts_per_sec,
            }));
        }
        if host_cpus > 1 {
            let one = by_writers[0].1;
            let four = by_writers[2].1;
            scaling.push(serde_json::json!({
                "shards": shards,
                "speedup_4_writers_vs_1": four / one,
            }));
        }
    }

    let (serving_posts, serving_polls, serving) = serving_ingest_posts_per_sec(runs);
    let mut report = serde_json::json!({
        "users": users,
        "posts_per_user": posts_per_user,
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "writer_grid": writer_grid,
        "ingest_posts_per_sec": records,
        "serving_posts": serving_posts,
        "serving_polls": serving_polls,
        "serving_ingest_posts_per_sec": serving,
    });
    if host_cpus > 1 {
        if let serde_json::Value::Object(fields) = &mut report {
            fields.push(("scaling".to_string(), serde_json::Value::Array(scaling)));
        }
    } else {
        eprintln!("note: host has 1 CPU — writer-scaling ratios omitted (not measurable)");
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize ingest report");
    std::fs::write(out_path, format!("{json}\n")).expect("write ingest telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// The serving shape: one writer replays a year of Dream Market scaled
/// ×20 (3 780 users), in time order, as one
/// [`ingest_posts_ref`](crowdtz_core::IngestWriter::ingest_posts_ref)
/// poll per simulated hour, so almost every post lands on a user with
/// history. Returns `(posts, polls, best-of-runs posts/sec)`.
fn serving_ingest_posts_per_sec(runs: usize) -> (usize, usize, f64) {
    use crowdtz_forum::{ForumSpec, SimulatedForum};

    eprintln!("timing serving-shape ingest (hourly polls, best of {runs})…");
    let forum = SimulatedForum::generate(&ForumSpec::dream_market().scaled(20.0));
    let posts: Vec<(&str, Timestamp)> = forum
        .posts()
        .iter()
        .map(|p| (p.author(), p.true_time()))
        .collect();
    let mut polls: Vec<&[(&str, Timestamp)]> = Vec::new();
    let mut start = 0;
    for i in 1..=posts.len() {
        let hour = |j: usize| posts[j].1.as_secs().div_euclid(3_600);
        if i == posts.len() || hour(i) != hour(start) {
            polls.push(&posts[start..i]);
            start = i;
        }
    }
    let secs = time_best(runs, || {
        let engine = ConcurrentStreamingPipeline::new(GeolocationPipeline::default().threads(1));
        let writer = engine.writer();
        for poll in &polls {
            writer.ingest_posts_ref(poll).expect("plain ingest");
        }
        engine
    });
    (posts.len(), polls.len(), posts.len() as f64 / secs)
}

/// HTTP throughput through a loopback `crowdtz-serve` instance: ingest
/// POSTs (distinct users per request, pre-serialized bodies) and
/// published-snapshot GETs at 1/2/4 concurrent clients, written to
/// `BENCH_serve.json`.
///
/// Clamp-aware: every record carries the requested *and* effective
/// client count (client threads clamp like worker threads), so the
/// regression gate can skip comparisons the host cannot express.
fn serve_bench(host_cpus: usize, out_path: &str) {
    use crowdtz_serve::{serve, HttpClient, ServeConfig};

    let runs = 3;
    let client_grid = [1usize, 2, 4];
    let requests_per_client = 200;
    let users_per_batch = 8;
    let posts_per_user = 10i64;

    // One pre-serialized ingest body per (client, request): distinct
    // users everywhere, so the engine sees an ingest-heavy crawl and
    // serialization cost stays outside the timed region.
    let body_for = |request_idx: usize| -> Vec<u8> {
        let entries: Vec<serde_json::Value> = (0..users_per_batch)
            .map(|u| {
                let id = request_idx * users_per_batch + u;
                let posts: Vec<i64> = (0..posts_per_user)
                    .map(|p| p * 86_400 + ((id as i64 * 7 + p) % 24) * 3_600)
                    .collect();
                serde_json::json!({"user": format!("u{id:07}"), "posts": posts})
            })
            .collect();
        serde_json::to_vec(&serde_json::json!({ "deltas": entries })).expect("ingest body")
    };

    let handle = serve(
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // A small published tenant for the read path: 50 users, one cut.
    {
        let mut admin = HttpClient::connect(addr).expect("connect");
        let created = admin
            .post_json("/v1/tenants/reader", &serde_json::json!({"min_posts": 1}))
            .expect("create reader tenant");
        assert_eq!(created.status, 201, "create reader tenant");
        let entries: Vec<serde_json::Value> = (0..50)
            .map(|u| {
                let posts: Vec<i64> = (0..posts_per_user)
                    .map(|p| p * 86_400 + ((u * 5 + p) % 24) * 3_600)
                    .collect();
                serde_json::json!({"user": format!("r{u:03}"), "posts": posts})
            })
            .collect();
        let ingested = admin
            .post_json(
                "/v1/tenants/reader/ingest",
                &serde_json::json!({ "deltas": entries }),
            )
            .expect("reader ingest");
        assert_eq!(ingested.status, 200);
        let published = admin
            .get("/v1/tenants/reader/snapshot?publish=1")
            .expect("reader publish");
        assert_eq!(published.status, 200, "publish reader tenant");
    }

    let mut ingest_rows = Vec::new();
    let mut snapshot_rows = Vec::new();
    let mut tenant_seq = 0usize;
    for clients in client_grid {
        let bodies: Vec<Vec<Vec<u8>>> = (0..clients)
            .map(|c| {
                (0..requests_per_client)
                    .map(|i| body_for(c * requests_per_client + i))
                    .collect()
            })
            .collect();
        let total_requests = (clients * requests_per_client) as f64;

        eprintln!("timing HTTP ingest at {clients} clients (best of {runs})…");
        let ingest_s = time_best(runs, || {
            // A fresh tenant per run: no cross-run state, no deletes.
            let tenant = format!("bench-{tenant_seq}");
            tenant_seq += 1;
            let mut admin = HttpClient::connect(addr).expect("connect");
            let created = admin
                .post_json(
                    &format!("/v1/tenants/{tenant}"),
                    &serde_json::json!({"min_posts": 1}),
                )
                .expect("create bench tenant");
            assert_eq!(created.status, 201, "create bench tenant");
            let path = format!("/v1/tenants/{tenant}/ingest");
            std::thread::scope(|scope| {
                for schedule in &bodies {
                    let path = path.as_str();
                    scope.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("client connect");
                        for body in schedule {
                            let reply = client
                                .request("POST", path, Some(body))
                                .expect("ingest request");
                            assert_eq!(reply.status, 200, "ingest");
                        }
                    });
                }
            });
        });
        ingest_rows.push(serde_json::json!({
            "clients": clients,
            "clients_effective": clamped_threads(clients),
            "requests_per_sec": total_requests / ingest_s,
        }));

        eprintln!("timing snapshot reads at {clients} clients (best of {runs})…");
        let read_s = time_best(runs, || {
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        let mut client = HttpClient::connect(addr).expect("client connect");
                        for _ in 0..requests_per_client {
                            let reply = client
                                .get("/v1/tenants/reader/snapshot")
                                .expect("snapshot request");
                            assert_eq!(reply.status, 200, "snapshot read");
                        }
                    });
                }
            });
        });
        snapshot_rows.push(serde_json::json!({
            "clients": clients,
            "clients_effective": clamped_threads(clients),
            "requests_per_sec": total_requests / read_s,
        }));
    }
    handle.shutdown().expect("serve shutdown");

    let report = serde_json::json!({
        "requests_per_client": requests_per_client,
        "users_per_batch": users_per_batch,
        "posts_per_user": posts_per_user,
        "workers": 4,
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "ingest_requests_per_sec": ingest_rows,
        "snapshot_requests_per_sec": snapshot_rows,
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize serve report");
    std::fs::write(out_path, format!("{json}\n")).expect("write serve telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// Signed-delta window costs, written to `BENCH_window.json`: windowed
/// vs plain ingest posts/sec over the same workload (a
/// [`crowdtz_core::WindowedPipeline`] tracks nothing per post, so the
/// two run the same writer path and `tracking_overhead_pct` reads host
/// noise around 0), retraction throughput (posts/sec released through
/// the signed path), and the publish that releases every slot older
/// than the window vs a steady-state publish with nothing to expire.
fn window_bench(host_cpus: usize, out_path: &str) {
    use crowdtz_core::{WindowConfig, WindowedPipeline};

    let users = 10_000usize;
    let rounds = 6usize;
    let bucket_secs = 86_400i64;
    let window_buckets = 3usize;
    let total_posts = (users * rounds) as f64;

    // One post per user per round, spread over the round's day.
    let round_posts = |r: usize| -> Vec<(String, Timestamp)> {
        (0..users)
            .map(|u| {
                (
                    format!("u{u:06}"),
                    Timestamp::from_secs(
                        r as i64 * bucket_secs + (u % 24) as i64 * 3_600 + (u / 24) as i64,
                    ),
                )
            })
            .collect()
    };
    let all_rounds: Vec<Vec<(String, Timestamp)>> = (0..rounds).map(round_posts).collect();
    fn refs(round: &[(String, Timestamp)]) -> Vec<(&str, Timestamp)> {
        round.iter().map(|(u, t)| (u.as_str(), *t)).collect()
    }
    let pipeline = || GeolocationPipeline::default().min_posts(1).threads(1);
    let config = WindowConfig {
        bucket_secs,
        window_buckets,
        ..WindowConfig::default()
    };

    let runs = 3;
    eprintln!("timing plain ingest ({users} users x {rounds} rounds, best of {runs})…");
    let plain_s = time_best(runs, || {
        let engine = ConcurrentStreamingPipeline::new(pipeline());
        let writer = engine.writer();
        for round in &all_rounds {
            writer.ingest_posts_ref(&refs(round)).expect("plain ingest");
        }
        engine
    });

    eprintln!("timing windowed ingest (same workload, best of {runs})…");
    let windowed_s = time_best(runs, || {
        let window = WindowedPipeline::new(
            ConcurrentStreamingPipeline::new(pipeline()),
            config.clone(),
            None,
        );
        let writer = window.engine().writer();
        for round in &all_rounds {
            window
                .ingest_posts(&writer, &refs(round))
                .expect("windowed ingest");
        }
        window
    });

    eprintln!("timing retraction (one full round, best of {runs})…");
    let mut retract_s = f64::INFINITY;
    for _ in 0..runs {
        let window = WindowedPipeline::new(
            ConcurrentStreamingPipeline::new(pipeline()),
            config.clone(),
            None,
        );
        let writer = window.engine().writer();
        for round in &all_rounds {
            window
                .ingest_posts(&writer, &refs(round))
                .expect("windowed ingest");
        }
        let start = Instant::now();
        let released = window
            .retract_posts(&writer, &refs(&all_rounds[rounds - 1]))
            .expect("retract round");
        retract_s = retract_s.min(start.elapsed().as_secs_f64());
        assert_eq!(released, users, "every retraction target was live");
    }

    // The publish that expires everything outside the window (rounds
    // 0..rounds-window_buckets, here 3 x users posts released in one
    // cut) vs the steady-state publish right after it (nothing left to
    // expire; the report is already warm).
    eprintln!("timing publish with a full expiry (best of {runs})…");
    let mut expiry_s = f64::INFINITY;
    let mut steady_s = f64::INFINITY;
    for _ in 0..runs {
        let window = WindowedPipeline::new(
            ConcurrentStreamingPipeline::new(pipeline()),
            config.clone(),
            None,
        );
        let writer = window.engine().writer();
        for round in &all_rounds {
            window
                .ingest_posts(&writer, &refs(round))
                .expect("windowed ingest");
        }
        let start = Instant::now();
        std::hint::black_box(window.publish().expect("expiry publish"));
        expiry_s = expiry_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(window.publish().expect("steady publish"));
        steady_s = steady_s.min(start.elapsed().as_secs_f64());
    }

    let expired_posts = (users * (rounds - window_buckets)) as f64;
    let report = serde_json::json!({
        "users": users,
        "rounds": rounds,
        "bucket_secs": bucket_secs,
        "window_buckets": window_buckets,
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "plain_ingest_posts_per_sec": total_posts / plain_s,
        "windowed_ingest_posts_per_sec": total_posts / windowed_s,
        "tracking_overhead_pct": (windowed_s / plain_s - 1.0) * 100.0,
        "retract_posts_per_sec": users as f64 / retract_s.max(1e-9),
        "publish_expiry_secs": expiry_s,
        "publish_steady_secs": steady_s,
        "expired_posts_at_the_cut": expired_posts,
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize window report");
    std::fs::write(out_path, format!("{json}\n")).expect("write window telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
    let overhead = windowed_s / plain_s;
    if overhead > 2.0 {
        eprintln!(
            "WARNING: windowed ingest is {overhead:.2}x plain ingest — both run the same \
             writer path, so per-post work has crept into the window front"
        );
    }
}

/// Warm-restart cost of the durable store at two log-suffix lengths
/// over the same crawl, plus snapshot rotation and the from-scratch
/// re-analysis a warm restart avoids, written to
/// `BENCH_durability.json` with two deterministic size rows: write-ahead
/// log bytes per suffix post and snapshot-generation bytes per user.
fn durability_bench(users: usize, threads: usize, host_cpus: usize, out_path: &str) {
    // The durable engine's cost profile is about record counts, not
    // crowd scale — a modest crowd keeps the bench quick.
    let users = users.min(10_000);
    let posts_per_user = 40;
    let (short_suffix, long_suffix) = (8u64, 64u64);
    eprintln!("synthesizing {users} durable traces…");
    let traces = synthetic_traces(users, posts_per_user, 29);
    let pipeline = || GeolocationPipeline::default().threads(threads);
    let dir = std::env::temp_dir().join(format!("crowdtz-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One delta batch: ~0.1% of the crowd posting once. Deterministic in
    // the batch number, so replayed and re-ingested runs agree.
    let delta = |b: u64| -> Vec<(String, Timestamp)> {
        (0..(users / 1000).max(1))
            .map(|i| {
                let user = format!("u{:06}", (i * 131 + b as usize * 37) % users);
                let ts = Timestamp::from_secs(
                    posts_per_user as i64 * 86_400 + b as i64 * 3_600 + i as i64,
                );
                (user, ts)
            })
            .collect()
    };
    let ingest_deltas = |engine: &ConcurrentStreamingPipeline, batches: RangeInclusive<u64>| {
        let writer = engine.writer();
        for b in batches {
            let posts = delta(b);
            let posts: Vec<(&str, Timestamp)> = posts
                .iter()
                .map(|(user, ts)| (user.as_str(), *ts))
                .collect();
            writer.ingest_batch(1 + b, &posts, None).expect("delta");
        }
    };
    let open = || ConcurrentStreamingPipeline::open_durable(pipeline(), &dir);

    // Nothing publishes, so the log rotates only at the explicit
    // checkpoints and the suffix grows to exactly the lengths under test.
    eprintln!("building the durable state ({long_suffix}-record suffix)…");
    {
        let engine = open().expect("open durable engine");
        let primer: Vec<(&str, Timestamp)> = traces
            .iter()
            .flat_map(|t| t.posts().iter().map(move |&ts| (t.id(), ts)))
            .collect();
        engine
            .writer()
            .ingest_batch(1, &primer, None)
            .expect("ingest primer batch");
        engine.checkpoint_now().expect("primer snapshot");
        ingest_deltas(&engine, 1..=short_suffix);
    }
    let runs = 3;
    let warm_open = |label: &str| {
        eprintln!("timing warm open ({label}, best of {runs})…");
        time_best(runs, || open().expect("warm open"))
    };
    let warm_short_s = warm_open("short suffix");
    let (_, rec) = crowdtz_store::DurableStore::open(&dir).expect("store stats");
    let short_records = rec.stats.records_replayed;

    // Same crawl, longer un-snapshotted suffix.
    ingest_deltas(
        &open().expect("reopen durable engine"),
        short_suffix + 1..=long_suffix,
    );
    // The log now holds exactly the suffix records.
    let suffix_posts: usize = (1..=long_suffix).map(|b| delta(b).len()).sum();
    let (store, rec) = crowdtz_store::DurableStore::open(&dir).expect("store stats");
    let log_bytes_per_post = store.log_len() as f64 / suffix_posts as f64;
    let long_records = rec.stats.records_replayed;
    drop(store);
    let warm_long_s = warm_open("long suffix");

    // Snapshot rotation: fold the long suffix into a new generation and
    // compact the log. Timed once — the first call does the real work.
    let engine = open().expect("reopen for rotation");
    let start = Instant::now();
    let generation = engine
        .checkpoint_now()
        .expect("rotation snapshot")
        .expect("durable engine");
    let rotation_s = start.elapsed().as_secs_f64();
    drop(engine);
    // Every file of the generation just written: its parts and manifest.
    let prefix = format!("snap-{generation:016}");
    let generation_bytes: u64 = std::fs::read_dir(&dir)
        .expect("list durable dir")
        .map(|entry| entry.expect("durable dir entry"))
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .map(|entry| entry.metadata().expect("generation file size").len())
        .sum();
    let warm_compacted_s = warm_open("post-rotation");

    // The alternative to any of this: re-analyze the whole crawl cold.
    eprintln!("timing cold re-analysis (best of {runs})…");
    let mut cumulative = traces;
    for b in 1..=long_suffix {
        for (user, ts) in delta(b) {
            cumulative.record(&user, ts);
        }
    }
    let cold_s = time_best(runs, || {
        pipeline().analyze(&cumulative).expect("cold analyze")
    });

    let report = serde_json::json!({
        "users": users,
        "posts_per_user": posts_per_user,
        "threads": threads,
        "threads_effective": clamped_threads(threads),
        "host_cpus": host_cpus,
        "simd": simd_path(),
        "short_suffix_records": short_records,
        "long_suffix_records": long_records,
        "warm_open_short_suffix_secs": warm_short_s,
        "warm_open_long_suffix_secs": warm_long_s,
        "warm_open_post_rotation_secs": warm_compacted_s,
        "replay_secs_per_record":
            (warm_long_s - warm_short_s) / (long_records - short_records).max(1) as f64,
        "snapshot_rotation_secs": rotation_s,
        "log_bytes_per_post": log_bytes_per_post,
        "generation_bytes_per_user": generation_bytes as f64 / users as f64,
        "cold_reanalyze_secs": cold_s,
        "warm_open_speedup_vs_cold": cold_s / warm_long_s,
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize durability report");
    std::fs::write(out_path, format!("{json}\n")).expect("write durability telemetry");
    println!("{json}");
    eprintln!("wrote {out_path}");
    let _ = std::fs::remove_dir_all(&dir);
    // Replay cost must track the log suffix, not the crawl: the long
    // suffix replays 8x the records; opening after rotation replays ~0.
    if warm_long_s < warm_short_s {
        eprintln!(
            "note: long-suffix open ({warm_long_s:.4}s) beat short-suffix open \
             ({warm_short_s:.4}s) — replay is noise-dominated at this scale"
        );
    }
}
