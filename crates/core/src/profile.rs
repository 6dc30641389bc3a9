//! User activity profiles — Eq. 1 of the paper.

use std::fmt;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use crowdtz_stats::{Distribution24, Histogram24, BINS};
use crowdtz_time::{HolidayCalendar, Timestamp, TraceSet, TzOffset, UserTrace, Zone};

/// A user's activity profile: the probability of being active at each hour
/// of the day (Eq. 1).
///
/// The paper's `a_d(h)` is a boolean — *whether* the user posted in hour
/// `h` of day `d` — so multiple posts within the same hour of the same day
/// count once. The profile is the normalized count of active (day, hour)
/// slots per hour.
///
/// A profile keeps the integer counts, not the distribution — 128 bytes
/// with the id, which the engine shares between a user's profile and
/// placement — and [`distribution`](ActivityProfile::distribution)
/// divides them out on demand. The serialized form carries the
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    user: Arc<str>,
    /// Active (day, hour) slots per hour of day; they sum to
    /// `active_slots`, which is positive.
    counts: [u32; BINS],
    active_slots: usize,
    post_count: usize,
}

/// The distribution of per-hour slot counts with positive mass: each count
/// over their sum, exactly as [`Histogram24::normalized`] divides them. The
/// one function behind a profile's distribution and the CDF row the
/// placement kernel reads, so the two agree bit for bit.
pub(crate) fn distribution_of(counts: &[u32; BINS]) -> Distribution24 {
    Histogram24::from_bins(counts.map(f64::from))
        .normalized()
        .expect("an active slot gives the counts mass")
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
        let mut counts = [0u32; BINS];
        for &(_, hour) in scratch.iter() {
            counts[usize::from(hour)] += 1;
        }
        Some(ActivityProfile {
            user: trace.id().into(),
            counts,
            active_slots: scratch.len(),
            post_count: posts,
        })
    }

    /// Assembles a profile from already-computed parts — the streaming
    /// accumulators maintain slot counts incrementally and must produce
    /// profiles bit-identical to the batch constructors. `counts` sum to
    /// `active_slots`, which is positive.
    pub(crate) fn from_parts(
        user: Arc<str>,
        counts: [u32; BINS],
        active_slots: usize,
        post_count: usize,
    ) -> ActivityProfile {
        debug_assert_eq!(
            counts.iter().map(|&c| c as usize).sum::<usize>(),
            active_slots
        );
        ActivityProfile {
            user,
            counts,
            active_slots,
            post_count,
        }
    }

    /// Replaces everything but the user id — the streaming refresh
    /// re-profiles a user who stays kept in place, with no allocation.
    pub(crate) fn set_activity(
        &mut self,
        counts: [u32; BINS],
        active_slots: usize,
        post_count: usize,
    ) {
        self.counts = counts;
        self.active_slots = active_slots;
        self.post_count = post_count;
    }

    /// The user's pseudonym.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The pseudonym's shared allocation: every profile and placement of
    /// the user that the engine keeps holds this one.
    pub(crate) fn id(&self) -> &Arc<str> {
        &self.user
    }

    /// The hourly activity distribution `P_u`: each hour's count of
    /// active slots over [`active_slots`](ActivityProfile::active_slots).
    pub fn distribution(&self) -> Distribution24 {
        distribution_of(&self.counts)
    }

    /// Adds the distribution into `sum`, hour by hour, without building
    /// it: each count over `active_slots`, the division
    /// [`distribution`](ActivityProfile::distribution) makes, so the sum
    /// is bit-identical to adding the distributions.
    pub(crate) fn add_distribution_to(&self, sum: &mut [f64; BINS]) {
        let slots = self.active_slots as f64;
        for (dst, &c) in sum.iter_mut().zip(&self.counts) {
            *dst += f64::from(c) / slots;
        }
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
        let mut counts = [0u32; BINS];
        for (h, &c) in self.counts.iter().enumerate() {
            counts[(h as i32 + hours).rem_euclid(BINS as i32) as usize] = c;
        }
        ActivityProfile {
            counts,
            ..self.clone()
        }
    }
}

// Hand-written: the serialized form carries the distribution the counts
// divide out to, in the field order of the derive this replaced.
impl Serialize for ActivityProfile {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("user".to_string(), self.user().to_value()),
            ("distribution".to_string(), self.distribution().to_value()),
            ("active_slots".to_string(), self.active_slots.to_value()),
            ("post_count".to_string(), self.post_count.to_value()),
        ])
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"user\":");
        self.user().write_json(out);
        out.push_str(",\"distribution\":");
        self.distribution().write_json(out);
        out.push_str(",\"active_slots\":");
        self.active_slots.write_json(out);
        out.push_str(",\"post_count\":");
        self.post_count.write_json(out);
        out.push('}');
    }
}

/// Recovers each hour's count as `round(p·active_slots)`, and refuses a
/// profile whose counts do not sum to `active_slots` or do not divide
/// back out to the distribution's exact bits: a distribution that is not
/// a ratio of slot counts is not a profile.
impl Deserialize for ActivityProfile {
    fn from_value(value: &Value) -> Result<ActivityProfile, DeError> {
        let user = String::from_value(value.field("user")?)?;
        let distribution = Distribution24::from_value(value.field("distribution")?)?;
        let active_slots = usize::from_value(value.field("active_slots")?)?;
        let post_count = usize::from_value(value.field("post_count")?)?;
        let slots = active_slots as f64;
        let counts = std::array::from_fn(|h| (distribution.get(h) * slots).round() as u32);
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        let exact = total > 0
            && total == active_slots as u64
            && distribution_of(&counts)
                .as_slice()
                .iter()
                .zip(distribution.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !exact {
            return Err(DeError::custom(format!(
                "profile of {user:?}: the distribution is not a ratio of {active_slots} slot counts"
            )));
        }
        Ok(ActivityProfile {
            user: user.into(),
            counts,
            active_slots,
            post_count,
        })
    }
}

impl fmt::Display for ActivityProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} slots, peak {:02}h",
            self.user,
            self.active_slots,
            self.distribution().peak_hour()
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

    /// Hour counts with mass: all hours drawn from zero, small and up to
    /// 2²⁰, or one hot hour.
    struct Counts;

    impl proptest::Strategy for Counts {
        type Value = [u32; BINS];

        fn try_generate(&self, rng: &mut proptest::TestRng) -> Option<[u32; BINS]> {
            let mut pick = |n: u64| (rng.next_u64() % n) as u32;
            let counts = match pick(3) {
                0 => {
                    let mut counts = [0; BINS];
                    counts[pick(BINS as u64) as usize] = 1 + pick(1 << 20);
                    counts
                }
                _ => std::array::from_fn(|_| match pick(4) {
                    0 | 1 => 0,
                    2 => 1 + pick(40),
                    _ => pick(1 << 20),
                }),
            };
            counts.iter().any(|&c| c > 0).then_some(counts)
        }
    }

    fn profile_of(counts: [u32; BINS]) -> ActivityProfile {
        let slots = counts.iter().map(|&c| c as usize).sum();
        ActivityProfile::from_parts("u\"1".into(), counts, slots, slots + 3)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Serializing then deserializing gives an equal profile and the
        /// same bytes, through the streaming writer and the value tree
        /// alike, for a profile and its rotations.
        #[test]
        fn count_profiles_round_trip_through_json(counts in Counts, hours in -30i32..30) {
            let profile = profile_of(counts);
            let shifted = profile.shifted(hours);
            let want: Vec<u64> = profile.distribution().shifted(hours).as_slice().iter().map(|p| p.to_bits()).collect();
            let got: Vec<u64> = shifted.distribution().as_slice().iter().map(|p| p.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
            for p in [profile, shifted] {
                let json = serde_json::to_string(&p).unwrap();
                let mut tree = String::new();
                p.to_value().write_compact(&mut tree);
                proptest::prop_assert_eq!(&tree, &json);
                let back: ActivityProfile = serde_json::from_str(&json).map_err(|e| e.to_string())?;
                proptest::prop_assert_eq!(&back, &p);
                proptest::prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
            }
        }

        /// A distribution one ulp off a count ratio is refused.
        #[test]
        fn distributions_off_a_count_ratio_are_refused(counts in Counts, bin in 0usize..BINS) {
            let profile = profile_of(counts);
            let mut p = profile.distribution().as_slice().to_vec();
            p[bin] = f64::from_bits(p[bin].to_bits() + 1);
            let Value::Object(mut fields) = profile.to_value() else {
                unreachable!("a profile serializes as an object");
            };
            fields[1].1 = Value::object(vec![("p".to_string(), p.to_value())]);
            proptest::prop_assert!(ActivityProfile::from_value(&Value::Object(fields)).is_err());
        }
    }

    #[test]
    fn counts_that_miss_the_slot_total_are_refused() {
        let profile = |p: [f64; 3], slots: usize| {
            let p: Vec<String> = (0..BINS)
                .map(|h| p.get(h).copied().unwrap_or(0.0).to_string())
                .collect();
            let json = format!(
                r#"{{"user":"u","distribution":{{"p":[{}]}},"active_slots":{slots},"post_count":9}}"#,
                p.join(",")
            );
            serde_json::from_str::<ActivityProfile>(&json)
        };
        assert_eq!(profile([0.5, 0.5, 0.0], 4).unwrap().counts[..3], [2, 2, 0]);
        // Halves of three slots round to 2 + 2.
        assert!(profile([0.5, 0.5, 0.0], 3).is_err());
        assert!(profile([0.0, 0.0, 0.0], 0).is_err());
        assert!(profile([0.25, 0.75, 0.0], 0).is_err());
    }
}
