//! Synthetic crowds for the bench bin.
//!
//! The bench bin times the engine's layers at up to 100 000 users; the
//! crowds here are built once, before any clock starts, so each timed
//! region is the algorithm, not the data generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crowdtz_core::{ActivityProfile, GenericProfile};
use crowdtz_time::{Timestamp, TraceSet, TzOffset, UserTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One integer cumulative table per zone for O(24) inverse sampling of
/// post hours from the reference generic profile.
fn zone_cumulative_tables(generic: &GenericProfile) -> Vec<[u64; 24]> {
    (-11..=12)
        .map(|k| {
            let zone = generic.zone_profile(k);
            let mut cum = [0u64; 24];
            let mut acc = 0u64;
            for (h, c) in cum.iter_mut().enumerate() {
                acc += (zone.as_slice()[h] * 1e6) as u64 + 1;
                *c = acc;
            }
            cum
        })
        .collect()
}

/// Samples one user's posts (one per synthetic day) from a zone table.
fn sample_posts(table: &[u64; 24], posts_per_user: usize, rng: &mut StdRng) -> Vec<Timestamp> {
    let total = table[23];
    (0..posts_per_user)
        .map(|day| {
            let r = rng.gen_range(0..total);
            let hour = table.iter().position(|&c| r < c).unwrap();
            Timestamp::from_secs(day as i64 * 86_400 + hour as i64 * 3_600)
        })
        .collect()
}

/// Synthesizes `users` activity profiles spread round-robin across all 24
/// time zones, sampling each user's post hours from the reference generic
/// profile shifted to their zone.
///
/// This skips trace generation entirely (no population model, no per-post
/// civil-time bookkeeping), which is what makes the 100k-user placement
/// benchmarks affordable; the profiles still have the realistic diurnal
/// shape placement pruning sees in practice.
pub fn synthetic_profiles(users: usize, posts_per_user: usize, seed: u64) -> Vec<ActivityProfile> {
    let generic = GenericProfile::reference();
    let tables = zone_cumulative_tables(&generic);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..users)
        .map(|i| {
            let posts = sample_posts(&tables[i % tables.len()], posts_per_user, &mut rng);
            ActivityProfile::from_trace_offset(
                &UserTrace::new(format!("u{i:06}"), posts),
                TzOffset::UTC,
            )
            .expect("synthetic trace is non-empty")
        })
        .collect()
}

/// The trace-level counterpart of [`synthetic_profiles`]: the same
/// round-robin zone crowd, but returned as a [`TraceSet`] so the bench
/// bin can exercise the full trace → profile → placement path — batch
/// (`GeolocationPipeline::analyze`) or streaming
/// (`StreamingPipeline::ingest_set`).
pub fn synthetic_traces(users: usize, posts_per_user: usize, seed: u64) -> TraceSet {
    let generic = GenericProfile::reference();
    let tables = zone_cumulative_tables(&generic);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TraceSet::default();
    for i in 0..users {
        let posts = sample_posts(&tables[i % tables.len()], posts_per_user, &mut rng);
        out.insert(UserTrace::new(format!("u{i:06}"), posts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_core::{place_user, PlacementHistogram, ProfileBuilder};

    #[test]
    fn synthetic_profiles_are_cheap_and_placeable() {
        let profs = synthetic_profiles(48, 40, 1);
        assert_eq!(profs.len(), 48);
        assert!(profs.iter().all(|p| p.post_count() == 40));
        let generic = GenericProfile::reference();
        let placements: Vec<_> = profs.iter().map(|p| place_user(p, &generic)).collect();
        assert_eq!(PlacementHistogram::from_placements(&placements).users(), 48);
    }

    #[test]
    fn synthetic_traces_rebuild_the_synthetic_profiles() {
        let profs = synthetic_profiles(24, 40, 9);
        let traces = synthetic_traces(24, 40, 9);
        assert_eq!(traces.len(), 24);
        assert_eq!(traces.total_posts(), 24 * 40);
        // Same RNG stream and zone tables: building profiles from the
        // traces recovers the profile fixture exactly.
        let rebuilt = ProfileBuilder::new().min_posts(30).build(&traces);
        assert_eq!(rebuilt.len(), profs.len());
        for (a, b) in rebuilt.iter().zip(&profs) {
            assert_eq!(a.user(), b.user());
            assert_eq!(a.distribution().as_slice(), b.distribution().as_slice());
        }
    }
}
