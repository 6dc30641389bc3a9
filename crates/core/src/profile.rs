//! User activity profiles — Eq. 1 of the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

use crowdtz_stats::{Distribution24, Histogram24};
use crowdtz_time::{HolidayCalendar, Timestamp, TraceSet, TzOffset, UserTrace, Zone};

/// A user's activity profile: the probability of being active at each hour
/// of the day (Eq. 1).
///
/// The paper's `a_d(h)` is a boolean — *whether* the user posted in hour
/// `h` of day `d` — so multiple posts within the same hour of the same day
/// count once. The profile is the normalized count of active (day, hour)
/// slots per hour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityProfile {
    user: String,
    distribution: Distribution24,
    active_slots: usize,
    post_count: usize,
}

impl ActivityProfile {
    /// Builds the profile of a trace with hours read in a **fixed offset**
    /// (use [`TzOffset::UTC`] for anonymous crowds, whose zone is unknown).
    ///
    /// Returns `None` for traces with no posts.
    pub fn from_trace_offset(trace: &UserTrace, offset: TzOffset) -> Option<ActivityProfile> {
        Self::build(
            trace,
            |ts| (ts.day_in_offset(offset), ts.hour_in_offset(offset)),
            None,
            &mut Vec::new(),
        )
    }

    /// Builds the profile with hours read in **local civil time** of a
    /// [`Zone`], honouring daylight saving — the paper does this when
    /// building ground-truth region profiles (*"we have considered daylight
    /// saving time for all regions where it is used"*) — and optionally
    /// dropping posts that fall on holidays.
    pub fn from_trace_local(
        trace: &UserTrace,
        zone: Zone,
        holidays: Option<&HolidayCalendar>,
    ) -> Option<ActivityProfile> {
        Self::build(
            trace,
            |ts| {
                let local = zone.to_local(ts);
                (local.date().days_since_epoch(), local.hour())
            },
            holidays.map(|h| (zone, h)),
            &mut Vec::new(),
        )
    }

    /// The build kernel behind both constructors. `scratch` collects the
    /// (day, hour) keys and is sort+dedup'd in place — callers on hot
    /// paths reuse one buffer across users instead of growing a fresh
    /// `BTreeSet` per trace (node allocation per post dominated the old
    /// profile-build cost).
    fn build(
        trace: &UserTrace,
        slot: impl Fn(Timestamp) -> (i64, u8),
        holiday_filter: Option<(Zone, &HolidayCalendar)>,
        scratch: &mut Vec<(i64, u8)>,
    ) -> Option<ActivityProfile> {
        scratch.clear();
        let mut posts = 0usize;
        for &ts in trace.posts() {
            if let Some((zone, calendar)) = &holiday_filter {
                if calendar.contains(zone.to_local(ts).date()) {
                    continue;
                }
            }
            posts += 1;
            scratch.push(slot(ts));
        }
        scratch.sort_unstable();
        scratch.dedup();
        if scratch.is_empty() {
            return None;
        }
        let hist: Histogram24 = scratch.iter().map(|&(_, h)| h).collect();
        Some(ActivityProfile {
            user: trace.id().to_owned(),
            distribution: hist.normalized().ok()?,
            active_slots: scratch.len(),
            post_count: posts,
        })
    }

    /// Assembles a profile from already-computed parts — the streaming
    /// accumulators maintain slot counts incrementally and must produce
    /// profiles bit-identical to the batch constructors.
    pub(crate) fn from_parts(
        user: String,
        distribution: Distribution24,
        active_slots: usize,
        post_count: usize,
    ) -> ActivityProfile {
        ActivityProfile {
            user,
            distribution,
            active_slots,
            post_count,
        }
    }

    /// Replaces everything but the user id — the streaming refresh
    /// re-profiles a user who stays kept in place, with no allocation.
    pub(crate) fn set_activity(
        &mut self,
        distribution: Distribution24,
        active_slots: usize,
        post_count: usize,
    ) {
        self.distribution = distribution;
        self.active_slots = active_slots;
        self.post_count = post_count;
    }

    /// The user's pseudonym.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The hourly activity distribution `P_u`.
    pub fn distribution(&self) -> &Distribution24 {
        &self.distribution
    }

    /// Number of distinct active (day, hour) slots.
    pub fn active_slots(&self) -> usize {
        self.active_slots
    }

    /// Number of posts contributing to the profile (after filters).
    pub fn post_count(&self) -> usize {
        self.post_count
    }

    /// A copy with the hourly distribution rotated by `hours`.
    ///
    /// Used to express a DST-normalized *local-time* profile in UTC hours
    /// (rotate by minus the standard offset): the paper builds ground-truth
    /// profiles with daylight saving accounted for, then compares in a
    /// common frame.
    #[must_use]
    pub fn shifted(&self, hours: i32) -> ActivityProfile {
        ActivityProfile {
            user: self.user.clone(),
            distribution: self.distribution.shifted(hours),
            active_slots: self.active_slots,
            post_count: self.post_count,
        }
    }
}

impl fmt::Display for ActivityProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} slots, peak {:02}h",
            self.user,
            self.active_slots,
            self.distribution.peak_hour()
        )
    }
}

/// Builds per-user profiles from a trace set with the paper's filters.
///
/// ```
/// use crowdtz_core::ProfileBuilder;
/// use crowdtz_time::{TraceSet, Timestamp, UserTrace};
///
/// let mut traces = TraceSet::new();
/// traces.insert(UserTrace::new("busy", (0..40).map(|i| Timestamp::from_secs(i * 90_000)).collect()));
/// traces.insert(UserTrace::new("quiet", vec![Timestamp::from_secs(0)]));
/// let profiles = ProfileBuilder::new().min_posts(30).build(&traces);
/// assert_eq!(profiles.len(), 1); // "quiet" is filtered out
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    min_posts: usize,
    offset: TzOffset,
    local: Option<(Zone, Option<HolidayCalendar>)>,
}

impl ProfileBuilder {
    /// Default builder: UTC hours, the paper's 30-post activity threshold.
    pub fn new() -> ProfileBuilder {
        ProfileBuilder {
            min_posts: 30,
            offset: TzOffset::UTC,
            local: None,
        }
    }

    /// Sets the minimum number of posts for a user to be profiled
    /// (*"non active users … lower than a certain threshold … we chose the
    /// threshold to be 30 posts"*).
    #[must_use]
    pub fn min_posts(mut self, min_posts: usize) -> ProfileBuilder {
        self.min_posts = min_posts;
        self
    }

    /// Reads hours in the given fixed offset (anonymous crowds: UTC).
    #[must_use]
    pub fn offset(mut self, offset: TzOffset) -> ProfileBuilder {
        self.offset = offset;
        self.local = None;
        self
    }

    /// Reads hours in local civil time of a known zone (DST-aware), with
    /// an optional holiday filter — the ground-truth configuration.
    #[must_use]
    pub fn local_zone(mut self, zone: Zone, holidays: Option<HolidayCalendar>) -> ProfileBuilder {
        self.local = Some((zone, holidays));
        self
    }

    /// Builds the profiles of all sufficiently active users.
    pub fn build(&self, traces: &TraceSet) -> Vec<ActivityProfile> {
        self.build_threads(traces, 1)
    }

    /// [`ProfileBuilder::build`] fanned across `threads` worker threads.
    ///
    /// Traces are split into contiguous chunks in the trace set's (sorted)
    /// iteration order and per-chunk results are concatenated in chunk
    /// order, so the output is identical for every thread count.
    pub fn build_threads(&self, traces: &TraceSet, threads: usize) -> Vec<ActivityProfile> {
        let eligible: Vec<&UserTrace> = traces
            .iter()
            .filter(|t| t.len() >= self.min_posts)
            .collect();
        crate::engine::chunked_map_with(&eligible, threads, Vec::new, |scratch, t, out| {
            let profile = match &self.local {
                Some((zone, holidays)) => {
                    let (zone, holidays) = (*zone, holidays.as_ref());
                    ActivityProfile::build(
                        t,
                        |ts| {
                            let local = zone.to_local(ts);
                            (local.date().days_since_epoch(), local.hour())
                        },
                        holidays.map(|h| (zone, h)),
                        scratch,
                    )
                }
                None => {
                    let offset = self.offset;
                    ActivityProfile::build(
                        t,
                        |ts| (ts.day_in_offset(offset), ts.hour_in_offset(offset)),
                        None,
                        scratch,
                    )
                }
            };
            out.extend(profile);
        })
    }
}

impl Default for ProfileBuilder {
    fn default() -> ProfileBuilder {
        ProfileBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::{CivilDateTime, TraceSet};

    fn at(y: i32, m: u8, d: u8, h: u8, min: u8) -> Timestamp {
        Timestamp::from_civil_utc(CivilDateTime::new(y, m, d, h, min, 0).unwrap())
    }

    #[test]
    fn multiple_posts_in_one_hour_count_once() {
        // Three posts in the same hour of the same day → one active slot.
        let trace = UserTrace::new(
            "u",
            vec![
                at(2016, 5, 1, 9, 0),
                at(2016, 5, 1, 9, 20),
                at(2016, 5, 1, 9, 55),
            ],
        );
        let p = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        assert_eq!(p.active_slots(), 1);
        assert_eq!(p.post_count(), 3);
        assert_eq!(p.distribution().get(9), 1.0);
    }

    #[test]
    fn same_hour_on_different_days_counts_per_day() {
        let trace = UserTrace::new("u", vec![at(2016, 5, 1, 9, 0), at(2016, 5, 2, 9, 0)]);
        let p = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        assert_eq!(p.active_slots(), 2);
        assert_eq!(p.distribution().get(9), 1.0);
    }

    #[test]
    fn profile_is_normalized() {
        let trace = UserTrace::new(
            "u",
            vec![
                at(2016, 5, 1, 9, 0),
                at(2016, 5, 1, 21, 0),
                at(2016, 5, 2, 21, 0),
            ],
        );
        let p = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        let total: f64 = p.distribution().as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((p.distribution().get(21) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn offset_shifts_hours() {
        let trace = UserTrace::new("u", vec![at(2016, 5, 1, 23, 30)]);
        let utc = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        assert_eq!(utc.distribution().peak_hour(), 23);
        let plus2 =
            ActivityProfile::from_trace_offset(&trace, TzOffset::from_hours(2).unwrap()).unwrap();
        assert_eq!(plus2.distribution().peak_hour(), 1);
    }

    #[test]
    fn local_zone_applies_dst() {
        // 12:00 UTC in July is 14:00 in Berlin (UTC+2 with DST).
        let trace = UserTrace::new("u", vec![at(2016, 7, 15, 12, 0)]);
        let berlin = Zone::eu(TzOffset::from_hours(1).unwrap());
        let p = ActivityProfile::from_trace_local(&trace, berlin, None).unwrap();
        assert_eq!(p.distribution().peak_hour(), 14);
    }

    #[test]
    fn holiday_filter_drops_posts() {
        let berlin = Zone::eu(TzOffset::from_hours(1).unwrap());
        let cal = HolidayCalendar::western(); // includes Dec 23 – Jan 2
        let trace = UserTrace::new("u", vec![at(2016, 12, 25, 10, 0), at(2016, 3, 10, 10, 0)]);
        let p = ActivityProfile::from_trace_local(&trace, berlin, Some(&cal)).unwrap();
        assert_eq!(p.post_count(), 1);
        // All posts on holidays → no profile at all.
        let only_holiday = UserTrace::new("u", vec![at(2016, 12, 25, 10, 0)]);
        assert!(ActivityProfile::from_trace_local(&only_holiday, berlin, Some(&cal)).is_none());
    }

    #[test]
    fn empty_trace_yields_none() {
        let trace = UserTrace::new("u", vec![]);
        assert!(ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).is_none());
    }

    #[test]
    fn builder_threshold() {
        let mut traces = TraceSet::new();
        let many: Vec<Timestamp> = (0..35)
            .map(|i| at(2016, 3, 1 + (i % 28) as u8, 10, 0) + i64::from(i) * 60)
            .collect();
        traces.insert(UserTrace::new("active", many));
        traces.insert(UserTrace::new("casual", vec![at(2016, 3, 1, 10, 0)]));
        let profiles = ProfileBuilder::new().min_posts(30).build(&traces);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].user(), "active");
        // Lowering the threshold admits both.
        let profiles = ProfileBuilder::new().min_posts(1).build(&traces);
        assert_eq!(profiles.len(), 2);
    }

    #[test]
    fn display() {
        let trace = UserTrace::new("alice", vec![at(2016, 5, 1, 9, 0)]);
        let p = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        assert!(p.to_string().contains("alice"));
        assert!(p.to_string().contains("09h"));
    }
}
