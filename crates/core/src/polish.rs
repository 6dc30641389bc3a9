//! Dataset polishing: removing flat (bot-like) profiles — §IV.C.
//!
//! *"we remove all the users whose profiles, according to the EMD, result
//! being closer to an artificial profile created by us where every value is
//! of 1/24 … than to a timezone profile. We apply this procedure in an
//! iterative way."*

use crate::engine::{chunked_map, PlacementEngine};
use crate::generic::GenericProfile;
use crate::profile::ActivityProfile;

/// The result of a polishing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PolishOutcome {
    /// Users whose profiles carry time-zone information.
    pub kept: Vec<ActivityProfile>,
    /// Users removed as flat (bots, shift workers).
    pub flat: Vec<ActivityProfile>,
}

/// Splits profiles into informative and flat ones.
///
/// A profile is *flat* when its EMD to the uniform `1/24` profile is
/// smaller than its EMD to every time-zone profile.
pub fn split_flat_profiles(
    profiles: Vec<ActivityProfile>,
    generic: &GenericProfile,
) -> PolishOutcome {
    split_flat_profiles_with(profiles, &PlacementEngine::new(generic), 1)
}

/// [`split_flat_profiles`] over a prebuilt [`PlacementEngine`], fanning
/// the per-profile EMD checks across `threads` worker threads.
///
/// The engine's precomputed uniform and zone CDFs replace the per-call
/// profile materialization; the flat/kept decision is identical (both
/// paths evaluate the shared `circular_emd_cdf` kernel), and the two
/// output vectors preserve input order regardless of thread count.
pub fn split_flat_profiles_with(
    profiles: Vec<ActivityProfile>,
    engine: &PlacementEngine,
    threads: usize,
) -> PolishOutcome {
    let flags: Vec<bool> = chunked_map(&profiles, threads, |p| engine.is_flat(&p.distribution()));
    let mut kept = Vec::new();
    let mut flat = Vec::new();
    for (p, is_flat) in profiles.into_iter().zip(flags) {
        if is_flat {
            flat.push(p);
        } else {
            kept.push(p);
        }
    }
    PolishOutcome { kept, flat }
}

/// Iteratively polishes a *generic profile estimate*: starting from crowd
/// profiles that may contain bots, repeatedly remove flat users and rebuild
/// the generic profile until no user is removed (or `max_rounds` passes).
///
/// Returns the polished profiles and the number of rounds performed.
pub fn iterative_polish(
    mut profiles: Vec<ActivityProfile>,
    mut generic: GenericProfile,
    max_rounds: usize,
) -> (Vec<ActivityProfile>, GenericProfile, usize) {
    let mut rounds = 0;
    for _ in 0..max_rounds {
        rounds += 1;
        let before = profiles.len();
        let outcome = split_flat_profiles(profiles, &generic);
        profiles = outcome.kept;
        if profiles.len() == before || profiles.is_empty() {
            break;
        }
        // Rebuild the generic estimate from the survivors.
        if let Ok(crowd) = crate::crowd::CrowdProfile::aggregate(&profiles) {
            // The crowd is a mixture of zones; recentre it on its own peak
            // so the reference local curve keeps its alignment.
            let recentred = crowd
                .distribution()
                .shifted(21 - crowd.distribution().peak_hour() as i32);
            generic = GenericProfile::from_distribution(recentred);
        }
    }
    (profiles, generic, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::{Timestamp, TzOffset, UserTrace};

    /// A bot: one post every hour for ten days.
    fn flat_profile(name: &str) -> ActivityProfile {
        let posts: Vec<Timestamp> = (0..240)
            .map(|i| Timestamp::from_secs(1_450_000_000 + i * 3_600))
            .collect();
        ActivityProfile::from_trace_offset(&UserTrace::new(name, posts), TzOffset::UTC).unwrap()
    }

    /// A human-like user following the generic curve at UTC+k.
    fn human_profile(name: &str, k: i32) -> ActivityProfile {
        let generic = GenericProfile::reference();
        let zone = generic.zone_profile(k);
        let mut posts = Vec::new();
        for day in 0..40u32 {
            for h in 0..24u8 {
                if (zone.get(h as usize) * 40.0).round() as u32 > day {
                    posts.push(Timestamp::from_secs(
                        1_450_000_000 + i64::from(day) * 86_400 + i64::from(h) * 3_600,
                    ));
                }
            }
        }
        ActivityProfile::from_trace_offset(&UserTrace::new(name, posts), TzOffset::UTC).unwrap()
    }

    #[test]
    fn separates_bots_from_humans() {
        let generic = GenericProfile::reference();
        let profiles = vec![
            human_profile("h1", 1),
            flat_profile("bot1"),
            human_profile("h2", -6),
            flat_profile("bot2"),
        ];
        let outcome = split_flat_profiles(profiles, &generic);
        let kept: Vec<&str> = outcome.kept.iter().map(ActivityProfile::user).collect();
        let flat: Vec<&str> = outcome.flat.iter().map(ActivityProfile::user).collect();
        assert_eq!(kept, vec!["h1", "h2"]);
        assert_eq!(flat, vec!["bot1", "bot2"]);
    }

    #[test]
    fn pure_humans_all_kept() {
        let generic = GenericProfile::reference();
        let profiles: Vec<ActivityProfile> = (-5..5)
            .map(|k| human_profile(&format!("h{k}"), k))
            .collect();
        let outcome = split_flat_profiles(profiles, &generic);
        assert!(outcome.flat.is_empty());
        assert_eq!(outcome.kept.len(), 10);
    }

    #[test]
    fn empty_input() {
        let outcome = split_flat_profiles(Vec::new(), &GenericProfile::reference());
        assert!(outcome.kept.is_empty());
        assert!(outcome.flat.is_empty());
    }

    #[test]
    fn iterative_polish_converges() {
        let generic = GenericProfile::reference();
        let mut profiles = vec![flat_profile("bot")];
        for k in [-3, 0, 2] {
            profiles.push(human_profile(&format!("h{k}"), k));
        }
        let (kept, _polished, rounds) = iterative_polish(profiles, generic, 10);
        assert_eq!(kept.len(), 3);
        assert!((1..=10).contains(&rounds));
    }

    #[test]
    fn iterative_polish_stops_on_stable_set() {
        let generic = GenericProfile::reference();
        let profiles = vec![human_profile("h", 0)];
        let (kept, _, rounds) = iterative_polish(profiles, generic, 10);
        assert_eq!(kept.len(), 1);
        assert_eq!(rounds, 1);
    }
}
