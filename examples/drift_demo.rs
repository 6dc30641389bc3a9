//! Longitudinal drift demo: a dark-web crowd migrates half-way around
//! the world, and the windowed pipeline's drift tracker catches it.
//!
//! ```text
//! cargo run --release --example drift_demo [users] [rounds] [switch_round]
//! ```
//!
//! Synthesizes a [`MigrationSpec`] fixture — the same user ids posting
//! round after round, generated in New York (UTC−5) up to the switch
//! round and in China (UTC+8) from it onward — and feeds each round to a
//! [`WindowedPipeline`] with one bucket per round and a two-bucket
//! sliding window. Every publish retracts the expired bucket, re-places
//! the surviving crowd, and appends one [`DriftPoint`] to the
//! trajectory: the zone-composition histogram, its L1 shift against the
//! trailing mean, and whether that shift crossed the change-point
//! threshold. The demo prints the trajectory as a tiny timeline and
//! checks the first flagged bucket lands within one bucket of the true
//! switch.
//!
//! [`DriftPoint`]: crowdtz::core::DriftPoint
//! [`MigrationSpec`]: crowdtz::synth::MigrationSpec
//! [`WindowedPipeline`]: crowdtz::core::WindowedPipeline

use crowdtz::core::{
    ConcurrentStreamingPipeline, GeolocationPipeline, WindowConfig, WindowedPipeline, ZoneGrid,
};
use crowdtz::synth::MigrationSpec;
use crowdtz::time::{zone_label, RegionDb, TzOffset};

fn main() {
    let mut args = std::env::args().skip(1);
    let users: usize = args
        .next()
        .map(|a| a.parse().expect("users must be an integer"))
        .unwrap_or(24);
    let rounds: usize = args
        .next()
        .map(|a| a.parse().expect("rounds must be an integer"))
        .unwrap_or(8);
    let switch: usize = args
        .next()
        .map(|a| a.parse().expect("switch_round must be an integer"))
        .unwrap_or(rounds / 2);

    let db = RegionDb::extended();
    let spec = MigrationSpec::new(
        db.get(&"new-york".into()).unwrap().clone(),
        db.get(&"china".into()).unwrap().clone(),
    )
    .users(users)
    .rounds(rounds)
    .switch_round(switch)
    .round_days(7)
    .seed(11)
    .posts_per_day(3.0);

    println!(
        "{users} users, {rounds} rounds of 7 days; New York (UTC−5) → China (UTC+8) at round {switch}"
    );

    let engine =
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2));
    let window = WindowedPipeline::new(
        engine,
        WindowConfig {
            bucket_secs: spec.round_secs(),
            window_buckets: 2,
            drift_threshold: 1.2,
            drift_history: 3,
        },
        None,
    );

    let writer = window.engine().writer();
    for round in 0..spec.round_count() {
        window
            .ingest_posts(&writer, &spec.round_posts(round))
            .expect("ingest round");
        window.publish().expect("publish round");
    }

    println!("\ntrajectory (one point per publish, window = last 2 rounds):");
    let grid = ZoneGrid::Hourly;
    for point in window.trajectory() {
        let dominant = point
            .dominant()
            .map(|(zone, f)| {
                let offset = TzOffset::from_minutes(grid.minutes_of(zone)).expect("grid offset");
                format!("{} holds {:.0}%", zone_label(offset), f * 100.0)
            })
            .unwrap_or_else(|| "empty crowd".to_owned());
        println!(
            "  bucket {}  shift {:.2}  {}  {}",
            point.bucket(),
            point.shift(),
            if point.is_changepoint() {
                "<< CHANGE-POINT"
            } else {
                "              "
            },
            dominant
        );
    }

    let trajectory = window.trajectory();
    let truth = spec
        .round_start(spec.ground_truth_round())
        .days_since_epoch()
        * 86_400
        / spec.round_secs();
    let first = trajectory
        .iter()
        .find(|p| p.is_changepoint())
        .expect("the migration must be flagged");
    println!(
        "\nfirst change-point at bucket {} — ground truth bucket {truth} (|Δ| = {})",
        first.bucket(),
        (first.bucket() - truth).abs()
    );
    assert!(
        (first.bucket() - truth).abs() <= 1,
        "drift tracker missed the migration window"
    );
    println!("flagged within one bucket of the true switch ✓");
}
