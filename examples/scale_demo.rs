//! Scale demo: geolocating a 100 000-user crowd through the placement
//! engine, sequential vs parallel.
//!
//! ```text
//! cargo run --release --example scale_demo [users]
//! ```
//!
//! Synthesizes a two-region crowd (60% Tokyo UTC+9, 40% São Paulo UTC−3)
//! directly as per-user traces — the crawl is not what this demo
//! measures — then runs the full profile → polish → place → fit pipeline
//! twice: once on 1 thread, once on every available core
//! (`CROWDTZ_THREADS` overrides). The two reports are byte-identical; only
//! the wall-clock differs.

use std::time::Instant;

use crowdtz::core::{default_threads, GenericProfile, GeolocationPipeline, GeolocationReport};
use crowdtz::time::{Timestamp, TraceSet, UserTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `users` traces from the reference generic profile shifted to
/// each user's home zone: 60% at UTC+9, 40% at UTC−3, 40 posts each.
fn synthesize(users: usize, seed: u64) -> TraceSet {
    let generic = GenericProfile::reference();
    let regions = [(9i32, 6usize), (-3, 4)]; // (zone, weight in tenths)
    let tables: Vec<(i32, [u64; 24])> = regions
        .iter()
        .map(|&(zone, _)| {
            let profile = generic.zone_profile(zone);
            let mut cum = [0u64; 24];
            let mut acc = 0u64;
            for (h, c) in cum.iter_mut().enumerate() {
                acc += (profile.as_slice()[h] * 1e6) as u64 + 1;
                *c = acc;
            }
            (zone, cum)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..users)
        .map(|i| {
            let (_, table) = &tables[usize::from(i % 10 >= regions[0].1)];
            let total = table[23];
            let posts: Vec<Timestamp> = (0..40)
                .map(|day: i64| {
                    let r = rng.gen_range(0..total);
                    let hour = table.iter().position(|&c| r < c).unwrap_or(23);
                    Timestamp::from_secs(day * 86_400 + hour as i64 * 3_600)
                })
                .collect();
            UserTrace::new(format!("u{i:06}"), posts)
        })
        .collect()
}

fn run(traces: &TraceSet, threads: usize) -> (GeolocationReport, f64) {
    let pipeline = GeolocationPipeline::default().threads(threads);
    let start = Instant::now();
    let report = pipeline.analyze(traces).expect("pipeline runs");
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("users must be an integer"))
        .unwrap_or(100_000);
    println!("synthesizing {users} users (60% UTC+9, 40% UTC-3)…");
    let traces = synthesize(users, 42);

    let (sequential, seq_s) = run(&traces, 1);
    let threads = default_threads();
    let (parallel, par_s) = run(&traces, threads);

    println!("sequential (1 thread):     {seq_s:.2} s");
    println!(
        "parallel   ({threads} thread(s)): {par_s:.2} s  ({:.2}x)",
        seq_s / par_s
    );
    assert_eq!(
        sequential.histogram().fractions(),
        parallel.histogram().fractions(),
        "thread count changed the numbers — determinism invariant broken"
    );

    println!(
        "\n{} users classified, {} flat profiles removed",
        parallel.users_classified(),
        parallel.flat_removed()
    );
    println!("recovered components:");
    for (zone, weight) in parallel.multi_fit().time_zones() {
        println!(
            "  {:>3.0}% of the crowd in {}",
            weight * 100.0,
            crowdtz::time::zone_label(zone)
        );
    }
}
