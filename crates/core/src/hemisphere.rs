//! Hemisphere detection from daylight-saving shifts — §V.F.
//!
//! Northern regions run DST roughly March→October, southern regions
//! roughly October→February. A user's *local* rhythm is constant, so their
//! **UTC** profile shifts by one hour between the DST and standard
//! seasons — in opposite directions in the two hemispheres:
//!
//! * **north**: winter profile ≈ summer profile shifted **forward** 1 h;
//! * **south**: winter profile ≈ summer profile shifted **backward** 1 h;
//! * **no DST**: the two seasonal profiles match unshifted.
//!
//! To keep the signal clean we compare *core-season* windows
//! (December–January vs June–August), the months whose DST state is
//! unambiguous under every rule in the region database.

use std::fmt;

use serde::{Deserialize, Serialize};

use crowdtz_stats::circular_emd;
use crowdtz_time::{Hemisphere, Timestamp, TzOffset, UserTrace};

use crate::profile::ActivityProfile;

/// Tuning parameters for the hemisphere classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HemisphereConfig {
    /// Minimum active (day, hour) slots required in *each* seasonal window.
    pub min_slots_per_season: usize,
    /// A shifted match must beat the unshifted distance by this relative
    /// margin to call a hemisphere (guards against noise).
    pub margin: f64,
}

impl Default for HemisphereConfig {
    fn default() -> HemisphereConfig {
        HemisphereConfig {
            min_slots_per_season: 10,
            // Calibrated on the synthetic world: seasonal-profile EMD
            // noise is large below ~1000 active slots, so a hemisphere is
            // only called when the shifted comparison improves on the
            // unshifted one by ≥30% (and beats the ±2 h control shifts).
            // Saturated users separate cleanly (genuine DST ratios reach
            // ~0.2, no-DST ratios sit near 1); at moderate activity this
            // margin keeps the no-DST false-positive rate ≈5% while
            // retaining most genuine verdicts — abstention, not error, is
            // the failure mode, matching the paper's restriction to the
            // most active users.
            margin: 0.30,
        }
    }
}

/// The classifier's verdict for one user, with the evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HemisphereVerdict {
    /// The inferred hemisphere ([`Hemisphere::Unknown`] = no DST signal).
    pub hemisphere: Hemisphere,
    /// EMD(winter, summer shifted +1 h) — small for northern users.
    pub d_forward: f64,
    /// EMD(winter, summer shifted −1 h) — small for southern users.
    pub d_backward: f64,
    /// EMD(winter, summer unshifted) — small for no-DST users.
    pub d_unshifted: f64,
    /// Active slots in the winter window.
    pub winter_slots: usize,
    /// Active slots in the summer window.
    pub summer_slots: usize,
}

impl fmt::Display for HemisphereVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (d+1={:.3}, d-1={:.3}, d0={:.3})",
            self.hemisphere, self.d_forward, self.d_backward, self.d_unshifted
        )
    }
}

/// Splits a trace into the core winter (Nov–Jan) and summer (May–Sep)
/// sub-traces by UTC month.
///
/// These months have a near-unambiguous DST state under every rule in the
/// region database: northern rules (EU, US) are on standard time across
/// November–January and on DST across May–September, while the southern
/// rules (Brazil, Paraguay, Australia) are the exact opposite. The only
/// dilution is the first US week of November; wider windows would pick up
/// whole transition weeks (Brazil already leaves DST in mid-February,
/// Paraguay only in late March), blurring the one-hour signature.
fn seasonal_split(trace: &UserTrace) -> (UserTrace, UserTrace) {
    let mut winter = Vec::new();
    let mut summer = Vec::new();
    for &ts in trace.posts() {
        let Ok(civil) = ts.to_civil_utc() else {
            continue;
        };
        match civil.date().month_number() {
            11 | 12 | 1 => winter.push(ts),
            5..=9 => summer.push(ts),
            _ => {}
        }
    }
    (
        UserTrace::new(format!("{}#winter", trace.id()), winter),
        UserTrace::new(format!("{}#summer", trace.id()), summer),
    )
}

/// Classifies one user's hemisphere from the DST signature in their trace.
///
/// Returns `None` when either seasonal window has too little activity to
/// compare (the paper restricts this analysis to the most active users for
/// the same reason).
pub fn classify_user(trace: &UserTrace, config: &HemisphereConfig) -> Option<HemisphereVerdict> {
    let (winter, summer) = seasonal_split(trace);
    let wp = ActivityProfile::from_trace_offset(&winter, TzOffset::UTC)?;
    let sp = ActivityProfile::from_trace_offset(&summer, TzOffset::UTC)?;
    if wp.active_slots() < config.min_slots_per_season
        || sp.active_slots() < config.min_slots_per_season
    {
        return None;
    }
    let w = &wp.distribution();
    let s = &sp.distribution();
    let d_forward = circular_emd(w, &s.shifted(1));
    let d_backward = circular_emd(w, &s.shifted(-1));
    let d_unshifted = circular_emd(w, s);
    // Control shifts: DST moves clocks by exactly one hour, so a genuine
    // signature puts the minimum at ±1 h. The ±2 h distances give a
    // per-user noise floor — sampling noise that happens to prefer *some*
    // shift rarely prefers ±1 specifically over ±2.
    let d_control = circular_emd(w, &s.shifted(2)).min(circular_emd(w, &s.shifted(-2)));

    let margin = 1.0 - config.margin;
    let beats_null = |d: f64| d < d_unshifted * margin && d <= d_control;
    let hemisphere = if d_forward < d_backward && beats_null(d_forward) {
        Hemisphere::Northern
    } else if d_backward < d_forward && beats_null(d_backward) {
        Hemisphere::Southern
    } else {
        Hemisphere::Unknown
    };
    Some(HemisphereVerdict {
        hemisphere,
        d_forward,
        d_backward,
        d_unshifted,
        winter_slots: wp.active_slots(),
        summer_slots: sp.active_slots(),
    })
}

/// Classifies the `n` most active users of a crowd (the paper uses the top
/// five), returning `(user id, verdict)` pairs for those with enough
/// seasonal activity.
pub fn classify_most_active(
    traces: &crowdtz_time::TraceSet,
    n: usize,
    config: &HemisphereConfig,
) -> Vec<(String, HemisphereVerdict)> {
    traces
        .most_active(n)
        .into_iter()
        .filter_map(|t| classify_user(t, config).map(|v| (t.id().to_owned(), v)))
        .collect()
}

/// Helper for tests and experiments: counts verdicts per hemisphere.
pub fn tally(verdicts: &[(String, HemisphereVerdict)]) -> (usize, usize, usize) {
    let mut n = 0;
    let mut s = 0;
    let mut u = 0;
    for (_, v) in verdicts {
        match v.hemisphere {
            Hemisphere::Northern => n += 1,
            Hemisphere::Southern => s += 1,
            Hemisphere::Unknown => u += 1,
        }
    }
    (n, s, u)
}

/// Convenience used by tests: extracts the window of a timestamp.
#[doc(hidden)]
pub fn is_winter_month(ts: Timestamp) -> bool {
    matches!(
        ts.to_civil_utc().map(|c| c.date().month_number()),
        Ok(11) | Ok(12) | Ok(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::{CivilDateTime, Date, DstRule, Zone};

    /// A user with a fixed local rhythm living in `zone`, posting at the
    /// given local hours every third day of 2016.
    fn seasonal_user(zone: Zone) -> UserTrace {
        let mut posts = Vec::new();
        let start = Date::new(2016, 1, 1).unwrap();
        let end = Date::new(2016, 12, 31).unwrap();
        for (i, date) in start.iter_to(end).enumerate() {
            if i % 3 != 0 {
                continue;
            }
            for hour in [8u8, 13, 20, 21] {
                let local = CivilDateTime::from_date_time(date, hour, 15, 0).unwrap();
                if let Ok(ts) = zone.from_local(local) {
                    posts.push(ts);
                }
            }
        }
        UserTrace::new("u", posts)
    }

    #[test]
    fn northern_user_detected() {
        let berlin = Zone::eu(TzOffset::from_hours(1).unwrap());
        let verdict = classify_user(&seasonal_user(berlin), &HemisphereConfig::default()).unwrap();
        assert_eq!(verdict.hemisphere, Hemisphere::Northern, "{verdict}");
        assert!(verdict.d_forward < verdict.d_backward);
    }

    #[test]
    fn us_northern_user_detected() {
        let chicago = Zone::us(TzOffset::from_hours(-6).unwrap());
        let verdict = classify_user(&seasonal_user(chicago), &HemisphereConfig::default()).unwrap();
        assert_eq!(verdict.hemisphere, Hemisphere::Northern, "{verdict}");
    }

    #[test]
    fn southern_user_detected() {
        let sao_paulo = Zone::with_dst(TzOffset::from_hours(-3).unwrap(), DstRule::brazil());
        let verdict =
            classify_user(&seasonal_user(sao_paulo), &HemisphereConfig::default()).unwrap();
        assert_eq!(verdict.hemisphere, Hemisphere::Southern, "{verdict}");
        assert!(verdict.d_backward < verdict.d_forward);
    }

    #[test]
    fn australian_user_detected_southern() {
        let sydney = Zone::with_dst(TzOffset::from_hours(10).unwrap(), DstRule::australia_nsw());
        let verdict = classify_user(&seasonal_user(sydney), &HemisphereConfig::default()).unwrap();
        assert_eq!(verdict.hemisphere, Hemisphere::Southern, "{verdict}");
    }

    #[test]
    fn no_dst_user_is_unknown() {
        let tokyo = Zone::fixed(TzOffset::from_hours(9).unwrap());
        let verdict = classify_user(&seasonal_user(tokyo), &HemisphereConfig::default()).unwrap();
        assert_eq!(verdict.hemisphere, Hemisphere::Unknown, "{verdict}");
    }

    #[test]
    fn sparse_user_returns_none() {
        let trace = UserTrace::new(
            "sparse",
            vec![Timestamp::from_civil_utc(
                CivilDateTime::new(2016, 1, 5, 12, 0, 0).unwrap(),
            )],
        );
        assert!(classify_user(&trace, &HemisphereConfig::default()).is_none());
    }

    #[test]
    fn classify_most_active_filters_and_orders() {
        let mut traces = crowdtz_time::TraceSet::new();
        let berlin = Zone::eu(TzOffset::from_hours(1).unwrap());
        traces.insert(UserTrace::new(
            "big",
            seasonal_user(berlin).posts().to_vec(),
        ));
        traces.insert(UserTrace::new(
            "tiny",
            vec![Timestamp::from_secs(1_460_000_000)],
        ));
        let verdicts = classify_most_active(&traces, 5, &HemisphereConfig::default());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0, "big");
        let (n, s, u) = tally(&verdicts);
        assert_eq!((n, s, u), (1, 0, 0));
    }

    #[test]
    fn every_dst_rule_and_offset_classifies_correctly() {
        // Sweep standard offsets for each DST family: the verdict must be
        // correct (never contradictory, and for these clean high-volume
        // synthetic users, never an abstention either).
        for std_offset in [-8i32, -6, -3, 0, 1, 2, 10] {
            let off = TzOffset::from_hours(std_offset).unwrap();
            for (rule, expected) in [
                (DstRule::eu(), Hemisphere::Northern),
                (DstRule::us(), Hemisphere::Northern),
                (DstRule::brazil(), Hemisphere::Southern),
                (DstRule::paraguay(), Hemisphere::Southern),
                (DstRule::australia_nsw(), Hemisphere::Southern),
            ] {
                let zone = Zone::with_dst(off, rule);
                let verdict =
                    classify_user(&seasonal_user(zone), &HemisphereConfig::default()).unwrap();
                assert_eq!(
                    verdict.hemisphere, expected,
                    "offset {std_offset}, rule {rule}: {verdict}"
                );
            }
            // Fixed zones must abstain.
            let verdict = classify_user(
                &seasonal_user(Zone::fixed(off)),
                &HemisphereConfig::default(),
            )
            .unwrap();
            assert_eq!(
                verdict.hemisphere,
                Hemisphere::Unknown,
                "offset {std_offset} fixed: {verdict}"
            );
        }
    }

    #[test]
    fn equator_adjacent_fixed_zones_abstain() {
        // Zones in the equatorial band (UTC−1..UTC+1) rarely observe DST;
        // the classifier must abstain rather than infer a hemisphere from
        // the offset alone, and the unshifted comparison must win.
        for off in [-1i32, 0, 1] {
            let zone = Zone::fixed(TzOffset::from_hours(off).unwrap());
            let verdict =
                classify_user(&seasonal_user(zone), &HemisphereConfig::default()).unwrap();
            assert_eq!(
                verdict.hemisphere,
                Hemisphere::Unknown,
                "offset {off}: {verdict}"
            );
            assert!(
                verdict.d_unshifted <= verdict.d_forward.min(verdict.d_backward),
                "offset {off}: {verdict}"
            );
        }
    }

    #[test]
    fn mirrored_dst_rule_flips_the_verdict_symmetrically() {
        // Swapping a rule's transitions moves the DST period to the other
        // side of the year: the user's winter and summer UTC profiles
        // trade places, so the verdict flips and the two shifted distances
        // swap. The core-season windows (Nov–Jan / May–Sep) sit strictly
        // inside both rules' DST and standard periods, so the symmetry is
        // exact, not approximate.
        let off = TzOffset::from_hours(0).unwrap();
        let eu = DstRule::eu();
        let mirror = DstRule::new(eu.end(), eu.start(), eu.shift_secs());
        assert!(mirror.is_southern());
        let config = HemisphereConfig::default();
        let north = classify_user(&seasonal_user(Zone::with_dst(off, eu)), &config).unwrap();
        let south = classify_user(&seasonal_user(Zone::with_dst(off, mirror)), &config).unwrap();
        assert_eq!(north.hemisphere, Hemisphere::Northern, "{north}");
        assert_eq!(south.hemisphere, Hemisphere::Southern, "{south}");
        assert!((north.d_forward - south.d_backward).abs() < 1e-12);
        assert!((north.d_backward - south.d_forward).abs() < 1e-12);
        assert!((north.d_unshifted - south.d_unshifted).abs() < 1e-12);
    }

    #[test]
    fn seasonal_split_excludes_transition_months() {
        let ts =
            |m: u8| Timestamp::from_civil_utc(CivilDateTime::new(2016, m, 15, 12, 0, 0).unwrap());
        let trace = UserTrace::new("u", (1..=12).map(ts).collect());
        let (winter, summer) = seasonal_split(&trace);
        assert_eq!(winter.len(), 3); // Nov, Dec, Jan
        assert_eq!(summer.len(), 5); // May–Sep
        assert!(is_winter_month(ts(12)));
        assert!(!is_winter_month(ts(6)));
    }
}
