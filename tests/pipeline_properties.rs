//! Cross-crate property tests: invariants of the full pipeline under
//! randomized worlds.

use crowdtz::core::{
    place_distribution, GenericProfile, GeolocationPipeline, GeolocationReport, PlacementHistogram,
    StreamingPipeline, ZoneGrid,
};
use crowdtz::synth::PopulationSpec;
use crowdtz::time::{HolidayCalendar, Region, RegionDb, Timestamp, TzOffset, Zone};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

const GRIDS: [ZoneGrid; 3] = [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour];

/// The text the value tree prints for `report`: the reference that
/// `serde_json::to_string` (the streaming `write_json` path every
/// snapshot body takes) must reproduce byte for byte.
fn tree_text(report: &GeolocationReport) -> String {
    let mut tree = String::new();
    report.to_value().write_compact(&mut tree);
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A synthetic fixed-offset crowd is always placed within ±2 zones of
    /// its home offset, for any offset and seed.
    #[test]
    fn placement_tracks_home_offset(offset in -11i32..=12, seed in 0u64..1_000) {
        let region = Region::new(
            "prop-region",
            "Prop Region",
            Zone::fixed(TzOffset::from_hours(offset).unwrap()),
            None,
            HolidayCalendar::none(),
        );
        let traces = PopulationSpec::new(region)
            .users(30)
            .posts_per_day(0.8)
            .seed(seed)
            .generate();
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let mean = report.mixture().dominant().unwrap().mean;
        // Distance on the 24-zone circle.
        let diff = (mean - f64::from(offset)).rem_euclid(24.0);
        let circ = diff.min(24.0 - diff);
        prop_assert!(circ <= 2.0, "offset {offset}: mean {mean}");
    }

    /// Shifting every generic zone profile and re-placing is the identity:
    /// zone_profile(k) always places at k.
    #[test]
    fn zone_profiles_place_at_their_own_zone(k in -11i32..=12) {
        let generic = GenericProfile::reference();
        let (zone, emd) = place_distribution(&generic.zone_profile(k), &generic);
        prop_assert_eq!(zone, k);
        prop_assert!(emd < 1e-12);
    }

    /// The placement histogram is a probability vector whatever the crowd.
    #[test]
    fn histogram_is_normalized(seed in 0u64..500) {
        let db = RegionDb::table1();
        let traces = PopulationSpec::new(db.require(&"france".into()).unwrap().clone())
            .users(20)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let total: f64 = report.histogram().fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(report.histogram().users(), report.users_classified());
        let xs = PlacementHistogram::xs();
        prop_assert_eq!(xs.len(), 24);
    }

    /// Mixture weights always sum to one and every component mean stays on
    /// the zone axis.
    #[test]
    fn mixture_component_invariants(seed in 0u64..500) {
        let db = RegionDb::table1();
        let mut traces = PopulationSpec::new(db.require(&"japan".into()).unwrap().clone())
            .users(25)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();
        for t in PopulationSpec::new(db.require(&"brazil".into()).unwrap().clone())
            .users(25)
            .posts_per_day(0.7)
            .seed(seed ^ 0xB)
            .generate()
            .iter()
        {
            traces.insert(t.clone());
        }
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let weights: f64 = report.mixture().components().iter().map(|c| c.weight).sum();
        prop_assert!((weights - 1.0).abs() < 1e-6);
        for c in report.mixture().components() {
            prop_assert!((-13.0..=14.0).contains(&c.mean), "mean {}", c.mean);
            prop_assert!(c.sigma > 0.0);
        }
    }

    /// Streaming ingestion is order- and chunking-independent: splitting
    /// every user's posts into arbitrary chunks and feeding them in an
    /// arbitrary interleaving yields a snapshot byte-identical to the
    /// one-shot batch analysis of the same traces.
    #[test]
    fn streaming_ingest_is_chunk_order_invariant(
        seed in 0u64..200,
        chunks in 1usize..=4,
        shuffle_seed in 0u64..1_000,
    ) {
        let db = RegionDb::table1();
        let traces = PopulationSpec::new(db.require(&"france".into()).unwrap().clone())
            .users(20)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();

        // Split each user's posts into `chunks` index-slices, then feed
        // the (user, slice) pieces in a shuffled order.
        let mut pieces = Vec::new();
        for trace in traces.iter() {
            let posts = trace.posts();
            for c in 0..chunks {
                let piece = &posts[posts.len() * c / chunks..posts.len() * (c + 1) / chunks];
                if !piece.is_empty() {
                    pieces.push((trace.id(), piece));
                }
            }
        }
        pieces.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        let pipeline = || GeolocationPipeline::with_generic(GenericProfile::reference());
        let mut streaming = StreamingPipeline::new(pipeline());
        for (user, piece) in pieces {
            streaming.ingest(user, piece);
        }
        let snapshot = streaming.snapshot().expect("snapshot");
        let batch = pipeline().analyze(&traces).expect("analyze");
        prop_assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }

    /// The streamed report is the value tree's text for any crowd on any
    /// grid: a random whole-hour crowd mixed with half- and quarter-hour
    /// zones (India, Nepal), so finer grids place users off the hour.
    #[test]
    fn streamed_report_matches_the_value_tree(
        offset in -11i32..=12,
        seed in 0u64..1_000,
        grid in 0usize..3,
    ) {
        let region = Region::new(
            "prop-region",
            "Prop Region",
            Zone::fixed(TzOffset::from_hours(offset).unwrap()),
            None,
            HolidayCalendar::none(),
        );
        let mut traces = PopulationSpec::new(region)
            .users(15)
            .posts_per_day(0.8)
            .seed(seed)
            .generate();
        let db = RegionDb::extended();
        for (salt, name) in (1u64..).zip(["india", "nepal"]) {
            for t in PopulationSpec::new(db.require(&name.into()).unwrap().clone())
                .users(10)
                .posts_per_day(0.8)
                .seed(seed ^ salt)
                .prefix(name)
                .generate()
                .iter()
            {
                traces.insert(t.clone());
            }
        }
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .grid(GRIDS[grid])
            .analyze(&traces)
            .expect("analyze");
        let tree = tree_text(&report);
        prop_assert_eq!(serde_json::to_string(&report).unwrap(), tree.clone());
        prop_assert_eq!(serde_json::to_vec(&report).unwrap(), tree.into_bytes());
    }

    /// A partial-coverage cut streams like the tree too: coverage
    /// reweights the report's counts, so its floats are no longer the
    /// small slot-count ratios of a full crawl.
    #[test]
    fn partial_coverage_cut_streams_like_the_value_tree(
        seed in 0u64..500,
        coverage in 0.05f64..1.0,
        grid in 0usize..3,
    ) {
        let db = RegionDb::table1();
        let traces = PopulationSpec::new(db.require(&"france".into()).unwrap().clone())
            .users(20)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();
        let mut streaming = StreamingPipeline::new(
            GeolocationPipeline::with_generic(GenericProfile::reference()).grid(GRIDS[grid]),
        );
        for trace in traces.iter() {
            streaming.ingest(trace.id(), trace.posts());
        }
        let cut = streaming.snapshot_with_coverage(coverage).expect("snapshot");
        let tree = tree_text(&cut);
        prop_assert_eq!(serde_json::to_string(&cut).unwrap(), tree.clone());
        prop_assert_eq!(serde_json::to_vec(&cut).unwrap(), tree.into_bytes());
    }
}

/// Where a churned user stands at a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Standing {
    Below,
    Flat,
    Kept,
}

/// One random post burst for a user: peaked near the user's hour (a
/// placeable profile), spread evenly over the day (a flat one), or at
/// random hours — so users turn flat and back as bursts accumulate.
fn burst(rng: &mut proptest::TestRng, peak: u64) -> Vec<Timestamp> {
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
            let day = rng.next_u64() % 90;
            let minute = rng.next_u64() % 60;
            Timestamp::from_secs((day * 86_400 + hour * 3_600 + minute * 60) as i64)
        })
        .collect()
}

/// Kept-set churn: random signed sequences over a dozen users, with a
/// low activity threshold and polishing on, push users across the
/// threshold in both directions, flat and back, and out of the kept set
/// and into it again. At every snapshot the churned engine's bytes equal
/// a fresh engine fed only the surviving posts, the previous report —
/// held across the refresh — serializes to its old bytes, the kept
/// vectors are strictly ascending by user, and the histogram is the one
/// the placements give. Every kind of membership change must occur over
/// the run, so the property cannot hold vacuously.
#[test]
fn kept_set_churn_matches_a_fresh_engine_and_spares_held_reports() {
    const USERS: usize = 12;
    const MIN_POSTS: usize = 4;
    let id = |u: usize| format!("u{u:02}");
    // Crossed up, crossed down, turned flat, turned back, re-entered.
    let mut seen = [0usize; 5];
    let config = ProptestConfig::with_cases(24);
    proptest::run_cases(&config, "kept_set_churn", |rng| {
        let grid = GRIDS[(rng.next_u64() % 2) as usize];
        let pipeline = GeolocationPipeline::with_generic(GenericProfile::reference())
            .min_posts(MIN_POSTS)
            .polish(true)
            .threads(1)
            .shards(3)
            .grid(grid);
        let mut engine = StreamingPipeline::new(pipeline.clone());
        let peaks: Vec<u64> = (0..USERS).map(|_| rng.next_u64() % 24).collect();
        let mut live: Vec<Vec<Timestamp>> = vec![Vec::new(); USERS];
        let mut standing = [Standing::Below; USERS];
        let mut left_kept = [false; USERS];
        let mut held: Option<(GeolocationReport, String)> = None;
        for step in 0..60 {
            let u = (rng.next_u64() % USERS as u64) as usize;
            if rng.next_u64() % 3 == 0 && !live[u].is_empty() {
                // Retract seen posts: all of them, or a few.
                let n = if rng.next_u64() % 3 == 0 {
                    live[u].len()
                } else {
                    (1 + rng.next_u64() % 3).min(live[u].len() as u64) as usize
                };
                let gone: Vec<Timestamp> = (0..n)
                    .map(|_| {
                        let i = (rng.next_u64() % live[u].len() as u64) as usize;
                        live[u].swap_remove(i)
                    })
                    .collect();
                engine.retract(&id(u), &gone);
            } else {
                let posts = burst(rng, peaks[u]);
                live[u].extend(&posts);
                engine.ingest(&id(u), &posts);
            }
            if step % 3 != 2 {
                continue;
            }
            let got = engine.snapshot();
            if let Some((report, bytes)) = &held {
                prop_assert_eq!(
                    &serde_json::to_string(report).unwrap(),
                    bytes,
                    "a held report changed at step {}",
                    step
                );
            }
            let mut fresh = StreamingPipeline::new(pipeline.clone());
            for (v, posts) in live.iter().enumerate() {
                if !posts.is_empty() {
                    fresh.ingest(&id(v), posts);
                }
            }
            let want = fresh
                .snapshot()
                .map(|r| serde_json::to_string(&r).unwrap())
                .map_err(|e| e.to_string());
            let got_bytes = got
                .as_ref()
                .map(|r| serde_json::to_string(r).unwrap())
                .map_err(|e| e.to_string());
            prop_assert_eq!(&got_bytes, &want, "step {}", step);
            let mut kept = [false; USERS];
            if let Ok(report) = got {
                let users: Vec<&str> = report.profiles().iter().map(|p| p.user()).collect();
                let placed: Vec<&str> = report.placements().iter().map(|p| p.user()).collect();
                prop_assert!(users.windows(2).all(|w| w[0] < w[1]), "{:?}", users);
                prop_assert_eq!(&placed, &users);
                prop_assert_eq!(
                    report.histogram(),
                    &PlacementHistogram::from_placements_on_grid(report.placements(), grid)
                );
                for user in users {
                    kept[user[1..].parse::<usize>().unwrap()] = true;
                }
                held = Some((report, got_bytes.unwrap()));
            }
            for v in 0..USERS {
                let now = if live[v].len() < MIN_POSTS {
                    Standing::Below
                } else if kept[v] {
                    Standing::Kept
                } else {
                    Standing::Flat
                };
                match (standing[v], now) {
                    (Standing::Below, Standing::Flat | Standing::Kept) => seen[0] += 1,
                    (Standing::Flat | Standing::Kept, Standing::Below) => seen[1] += 1,
                    (Standing::Kept, Standing::Flat) => seen[2] += 1,
                    (Standing::Flat, Standing::Kept) => seen[3] += 1,
                    _ => {}
                }
                if standing[v] == Standing::Kept && now != Standing::Kept {
                    left_kept[v] = true;
                }
                if standing[v] != Standing::Kept && now == Standing::Kept && left_kept[v] {
                    seen[4] += 1;
                }
                standing[v] = now;
            }
        }
        Ok(())
    });
    assert!(
        seen.iter().all(|&n| n > 0),
        "a kind of membership change never happened: {seen:?}"
    );
}
