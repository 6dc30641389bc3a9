//! EMD-based placement of users into time zones — §IV.A.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crowdtz_stats::circular_emd;

use crate::generic::GenericProfile;
use crate::profile::ActivityProfile;

/// Number of candidate time zones on the default hourly grid
/// (UTC−11 … UTC+12).
pub const ZONE_COUNT: usize = 24;

/// Resolution of the circular zone grid the placement engine scans.
///
/// The paper's grid is 24 whole-hour zones, which stays the default (and
/// the serde-compatible representation everywhere). Real time zones are
/// finer: India (+5:30) needs half-hour resolution, Nepal (+5:45) and the
/// Chatham Islands (+12:45) need quarter-hour resolution. Each variant is
/// a uniform grid of `zones()` offsets spaced `step_minutes()` apart,
/// covering the full circle starting at UTC−11:00; activity profiles stay
/// 24-bin hourly and are upsampled to the grid inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ZoneGrid {
    /// 24 whole-hour zones, UTC−11 … UTC+12 (the paper's grid).
    #[default]
    Hourly,
    /// 48 half-hour zones, UTC−11:00 … UTC+12:30.
    HalfHour,
    /// 96 quarter-hour zones, UTC−11:00 … UTC+12:45.
    QuarterHour,
}

impl ZoneGrid {
    /// Number of zones (= CDF bins) on this grid.
    pub const fn zones(self) -> usize {
        match self {
            ZoneGrid::Hourly => 24,
            ZoneGrid::HalfHour => 48,
            ZoneGrid::QuarterHour => 96,
        }
    }

    /// Grid bins per hour of the day (1, 2 or 4).
    pub const fn per_hour(self) -> usize {
        self.zones() / 24
    }

    /// Spacing between adjacent zones, in minutes (60, 30 or 15).
    pub const fn step_minutes(self) -> i32 {
        (24 * 60 / self.zones()) as i32
    }

    /// The grid index of a zone offset given in minutes east of UTC.
    ///
    /// Offsets must be multiples of [`ZoneGrid::step_minutes`]; the
    /// mapping wraps circularly, mirroring the hourly
    /// [`PlacementHistogram::index_of`] (−11:00 → 0).
    pub fn index_of_minutes(self, minutes: i32) -> usize {
        debug_assert_eq!(minutes % self.step_minutes(), 0);
        let units = minutes / self.step_minutes();
        (units + 11 * self.per_hour() as i32).rem_euclid(self.zones() as i32) as usize
    }

    /// The zone offset of a grid index, in minutes east of UTC.
    pub fn minutes_of(self, index: usize) -> i32 {
        (index as i32 - 11 * self.per_hour() as i32) * self.step_minutes()
    }

    /// The grid with the given number of zones, if any.
    pub fn from_zones(zones: usize) -> Option<ZoneGrid> {
        match zones {
            24 => Some(ZoneGrid::Hourly),
            48 => Some(ZoneGrid::HalfHour),
            96 => Some(ZoneGrid::QuarterHour),
            _ => None,
        }
    }

    /// The grid selected by the `CROWDTZ_GRID` environment variable
    /// (`24`/`hourly`, `48`/`half`, `96`/`quarter`), defaulting to hourly.
    pub fn from_env() -> ZoneGrid {
        match std::env::var("CROWDTZ_GRID").as_deref() {
            Ok("48") | Ok("half") | Ok("half-hour") => ZoneGrid::HalfHour,
            Ok("96") | Ok("quarter") | Ok("quarter-hour") => ZoneGrid::QuarterHour,
            _ => ZoneGrid::Hourly,
        }
    }

    /// The coarsest grid on which every given placement's offset is
    /// representable — hourly unless some placement carries a fractional
    /// offset.
    pub fn covering<'a>(placements: impl IntoIterator<Item = &'a UserPlacement>) -> ZoneGrid {
        let mut grid = ZoneGrid::Hourly;
        for p in placements {
            if p.offset_minutes() % 30 != 0 {
                return ZoneGrid::QuarterHour;
            }
            if p.offset_minutes() % 60 != 0 {
                grid = ZoneGrid::HalfHour;
            }
        }
        grid
    }

    /// A short human-readable label (`"24"`, `"48"`, `"96"`).
    pub fn label(self) -> &'static str {
        match self {
            ZoneGrid::Hourly => "24",
            ZoneGrid::HalfHour => "48",
            ZoneGrid::QuarterHour => "96",
        }
    }
}

impl fmt::Display for ZoneGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-zone grid", self.zones())
    }
}

/// The placement of one user: the time zone whose profile is EMD-closest.
#[derive(Debug, Clone, PartialEq)]
pub struct UserPlacement {
    /// Shared with the user's profile wherever the engine keeps both.
    user: Arc<str>,
    zone_hours: i32,
    emd: f64,
    /// Sub-hour part of the offset (same sign as the offset, 0 on the
    /// hourly grid). Skipped in the serialized form when zero so hourly
    /// placements serialize exactly as before the grid generalization.
    zone_minutes: i32,
}

// Hand-written (the vendored serde derive has no `skip_serializing_if` /
// `default`): `zone_minutes` is emitted only when nonzero, so hourly
// placements keep their pre-grid wire format and pre-grid snapshots load
// unchanged.
impl Serialize for UserPlacement {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("user".to_string(), self.user().to_value()),
            ("zone_hours".to_string(), self.zone_hours.to_value()),
            ("emd".to_string(), self.emd.to_value()),
        ];
        if self.zone_minutes != 0 {
            fields.push(("zone_minutes".to_string(), self.zone_minutes.to_value()));
        }
        serde::Value::object(fields)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"user\":");
        self.user().write_json(out);
        out.push_str(",\"zone_hours\":");
        self.zone_hours.write_json(out);
        out.push_str(",\"emd\":");
        self.emd.write_json(out);
        if self.zone_minutes != 0 {
            out.push_str(",\"zone_minutes\":");
            self.zone_minutes.write_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for UserPlacement {
    fn from_value(value: &serde::Value) -> Result<UserPlacement, serde::DeError> {
        Ok(UserPlacement {
            user: String::from_value(value.field("user")?)?.into(),
            zone_hours: i32::from_value(value.field("zone_hours")?)?,
            emd: f64::from_value(value.field("emd")?)?,
            zone_minutes: match value.field("zone_minutes") {
                Ok(v) => i32::from_value(v)?,
                Err(_) => 0,
            },
        })
    }
}

impl UserPlacement {
    /// Creates a whole-hour placement record directly (used when
    /// placements come from synthetic constructions rather than
    /// [`place_user`], e.g. the replicated-crowd experiment of Fig. 6a).
    pub fn new(user: impl Into<Arc<str>>, zone_hours: i32, emd: f64) -> UserPlacement {
        UserPlacement {
            user: user.into(),
            zone_hours,
            emd,
            zone_minutes: 0,
        }
    }

    /// Creates a placement at an offset given in minutes east of UTC
    /// (e.g. `345` for Nepal's +5:45).
    pub fn from_offset_minutes(
        user: impl Into<Arc<str>>,
        offset_minutes: i32,
        emd: f64,
    ) -> UserPlacement {
        UserPlacement {
            user: user.into(),
            zone_hours: offset_minutes / 60,
            zone_minutes: offset_minutes % 60,
            emd,
        }
    }

    /// Moves the placement to another offset and distance, keeping the
    /// user id — the streaming refresh re-places a user who stays kept in
    /// place, with no allocation.
    pub(crate) fn set_offset_minutes(&mut self, offset_minutes: i32, emd: f64) {
        *self = UserPlacement::from_offset_minutes(Arc::clone(&self.user), offset_minutes, emd);
    }

    /// The user's pseudonym.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The pseudonym's allocation, shared with the user's profile.
    #[cfg(test)]
    pub(crate) fn id(&self) -> &Arc<str> {
        &self.user
    }

    /// The whole-hours part of the assigned offset (−11 … +12), truncated
    /// towards zero for fractional zones (+5:45 → 5).
    pub fn zone_hours(&self) -> i32 {
        self.zone_hours
    }

    /// The sub-hour part of the assigned offset, in minutes with the same
    /// sign as the offset (0 on the hourly grid, ±15/±30/±45 on finer
    /// grids).
    pub fn zone_minutes(&self) -> i32 {
        self.zone_minutes
    }

    /// The full assigned offset in minutes east of UTC.
    pub fn offset_minutes(&self) -> i32 {
        self.zone_hours * 60 + self.zone_minutes
    }

    /// The EMD to the winning zone profile, in hours of probability mass.
    pub fn emd(&self) -> f64 {
        self.emd
    }
}

impl fmt::Display for UserPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.zone_minutes == 0 {
            write!(
                f,
                "{} → UTC{:+} (emd {:.3})",
                self.user, self.zone_hours, self.emd
            )
        } else {
            let sign = if self.offset_minutes() < 0 { '-' } else { '+' };
            write!(
                f,
                "{} → UTC{}{}:{:02} (emd {:.3})",
                self.user,
                sign,
                self.zone_hours.abs(),
                self.zone_minutes.abs(),
                self.emd
            )
        }
    }
}

/// Places a user (profile in **UTC hours**) into the time zone whose
/// shifted generic profile minimizes the Earth Mover's Distance.
///
/// §IV.A: *"we geolocate that member on the timezone whose activity
/// profile is less distant"*.
///
/// ```
/// use crowdtz_core::{place_user, ActivityProfile, GenericProfile};
/// use crowdtz_time::{CivilDateTime, Timestamp, TzOffset, UserTrace};
///
/// // A user who is active exactly like the generic profile of UTC+2.
/// let generic = GenericProfile::reference();
/// # let mut posts = Vec::new();
/// # for day in 1..=28u8 { for h in [8u8, 12, 19, 21] {
/// #   posts.push(Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, day, (h + 22) % 24, 0, 0)?));
/// # }}
/// let trace = UserTrace::new("u", posts);
/// let profile = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
/// let placement = place_user(&profile, &generic);
/// // Four landmark hours are a coarse profile; the placement lands on the
/// // true zone or its immediate neighbour.
/// assert!((placement.zone_hours() - 2).abs() <= 1);
/// # Ok::<(), crowdtz_time::TimeError>(())
/// ```
pub fn place_user(profile: &ActivityProfile, generic: &GenericProfile) -> UserPlacement {
    let (zone_hours, emd) = place_distribution(&profile.distribution(), generic);
    UserPlacement::new(Arc::clone(profile.id()), zone_hours, emd)
}

/// Places a bare hourly distribution (UTC hours) into its EMD-closest
/// time zone; returns `(zone hours, emd)`.
///
/// [`place_user`] is this function plus user bookkeeping.
pub fn place_distribution(
    distribution: &crowdtz_stats::Distribution24,
    generic: &GenericProfile,
) -> (i32, f64) {
    let mut best = (0i32, f64::INFINITY);
    for k in -11..=12 {
        let d = circular_emd(distribution, &generic.zone_profile(k));
        if d < best.1 {
            best = (k, d);
        }
    }
    best
}

/// The distribution of a crowd over the time zones of a [`ZoneGrid`] —
/// the object the paper's Figures 3–5 and 9–13 plot, and the input to the
/// Gaussian / mixture fits.
///
/// The grid is implicit in the number of fractions (24, 48 or 96), so the
/// hourly JSON representation is unchanged from the fixed-size days.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementHistogram {
    fractions: Vec<f64>,
    users: usize,
}

impl PlacementHistogram {
    /// Builds the histogram from user placements, on the coarsest grid
    /// that represents every placement (hourly unless fractional offsets
    /// are present).
    pub fn from_placements<'a>(
        placements: impl IntoIterator<Item = &'a UserPlacement>,
    ) -> PlacementHistogram {
        let list: Vec<&UserPlacement> = placements.into_iter().collect();
        let grid = ZoneGrid::covering(list.iter().copied());
        Self::from_placements_on_grid(list, grid)
    }

    /// Builds the histogram from user placements on an explicit grid.
    pub fn from_placements_on_grid<'a>(
        placements: impl IntoIterator<Item = &'a UserPlacement>,
        grid: ZoneGrid,
    ) -> PlacementHistogram {
        let mut counts = vec![0.0_f64; grid.zones()];
        let mut users = 0usize;
        for p in placements {
            counts[grid.index_of_minutes(p.offset_minutes())] += 1.0;
            users += 1;
        }
        if users > 0 {
            for c in &mut counts {
                *c /= users as f64;
            }
        }
        PlacementHistogram {
            fractions: counts,
            users,
        }
    }

    /// Builds the histogram directly from per-zone-index counts; the grid
    /// is given by the slice length (24, 48 or 96; index `i` ↔ offset
    /// [`ZoneGrid::minutes_of`]`(i)`).
    ///
    /// Float-identical to [`PlacementHistogram::from_placements`] over a
    /// placement multiset with the same counts: integer counts are exact
    /// in `f64` and the normalizing division is the same. The bootstrap
    /// uses this to resample by zone index without materializing
    /// intermediate `Vec<UserPlacement>`s.
    pub fn from_zone_counts(counts: &[usize]) -> PlacementHistogram {
        let users: usize = counts.iter().sum();
        let mut fractions = vec![0.0_f64; counts.len()];
        if users > 0 {
            for (dst, &c) in fractions.iter_mut().zip(counts.iter()) {
                *dst = c as f64 / users as f64;
            }
        }
        PlacementHistogram { fractions, users }
    }

    /// The array index of a whole-hour zone offset on the hourly grid
    /// (−11 → 0 … +12 → 23).
    pub fn index_of(zone_hours: i32) -> usize {
        (zone_hours + 11).rem_euclid(ZONE_COUNT as i32) as usize
    }

    /// The zone offset of an array index on the hourly grid.
    pub fn zone_of(index: usize) -> i32 {
        index as i32 - 11
    }

    /// The grid this histogram lives on, derived from its width.
    pub fn grid(&self) -> ZoneGrid {
        ZoneGrid::from_zones(self.fractions.len()).unwrap_or_default()
    }

    /// Number of zone bins (24, 48 or 96).
    pub fn bins(&self) -> usize {
        self.fractions.len()
    }

    /// Fraction of the crowd placed in each zone, indexed from UTC−11:00
    /// in [`ZoneGrid::step_minutes`] steps.
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// The fraction placed at the given whole-hour zone offset.
    pub fn fraction_at(&self, zone_hours: i32) -> f64 {
        self.fractions[self.grid().index_of_minutes(zone_hours * 60)]
    }

    /// Number of placed users.
    pub fn users(&self) -> usize {
        self.users
    }

    /// The hourly zone coordinates (−11 … +12) as `f64`, for curve
    /// fitting on 24-bin histograms.
    pub fn xs() -> [f64; ZONE_COUNT] {
        let mut out = [0.0; ZONE_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Self::zone_of(i) as f64;
        }
        out
    }

    /// This histogram's zone coordinates in hours east of UTC (e.g.
    /// `-11.0, -10.75, …` on the quarter-hour grid), for curve fitting.
    /// Equal to [`PlacementHistogram::xs`] on the hourly grid.
    pub fn zone_coords(&self) -> Vec<f64> {
        let grid = self.grid();
        (0..self.bins())
            .map(|i| f64::from(grid.minutes_of(i)) / 60.0)
            .collect()
    }

    /// Absolute user counts per zone (fractions × users).
    pub fn counts(&self) -> Vec<f64> {
        let mut out = self.fractions.clone();
        for v in &mut out {
            *v *= self.users as f64;
        }
        out
    }

    /// The start index of the best "cut" of the circle: the centre of the
    /// emptiest 5-hour circular window.
    ///
    /// Hours (and thus time zones) live on a circle, but the Gaussian /
    /// mixture fits operate on a line. Cutting the circle where the crowd
    /// is absent and unrolling from there keeps every real component away
    /// from the axis ends, so crowds near UTC±12 fit as cleanly as crowds
    /// near UTC+0 (see [`PlacementHistogram::rotated_fractions`]).
    pub fn wrap_cut(&self) -> usize {
        let bins = self.bins();
        let window = 5 * self.grid().per_hour();
        let mass_at = |start: usize| -> f64 {
            (0..window)
                .map(|i| self.fractions[(start + i) % bins])
                .sum()
        };
        let min_mass = (0..bins).map(mass_at).fold(f64::INFINITY, f64::min);
        // Several windows may tie at the minimum (e.g. a long empty arc);
        // cut at the middle of the longest run of tied windows so the
        // crowd sits as centrally as possible on the unrolled axis.
        let tied: Vec<bool> = (0..bins).map(|s| mass_at(s) <= min_mass + 1e-12).collect();
        if tied.iter().all(|&t| t) {
            // Uniform histogram: every cut is equally good.
            return 0;
        }
        let mut best_run = (0usize, 0usize); // (start, length)
        for start in 0..bins {
            let prev = (start + bins - 1) % bins;
            if !tied[start] || tied[prev] {
                continue; // only consider run beginnings
            }
            let mut len = 1;
            while tied[(start + len) % bins] {
                len += 1;
            }
            if len > best_run.1 {
                best_run = (start, len);
            }
        }
        (best_run.0 + best_run.1 / 2 + window / 2) % bins
    }

    /// The fractions unrolled from `cut`: element `i` is the fraction of
    /// the original index `(cut + i) % bins`.
    pub fn rotated_fractions(&self, cut: usize) -> Vec<f64> {
        let bins = self.bins();
        (0..bins)
            .map(|i| self.fractions[(cut + i) % bins])
            .collect()
    }

    /// Maps a fractional coordinate on the rotated hourly axis
    /// (`0.0..24.0`, produced by fitting
    /// [`PlacementHistogram::rotated_fractions`] of a 24-bin histogram)
    /// back to a zone coordinate in `(-12.0, 12.0]`.
    pub fn unrotate_coord(coord: f64, cut: usize) -> f64 {
        let original_index = (coord + cut as f64).rem_euclid(ZONE_COUNT as f64);
        let zone = original_index - 11.0;
        if zone > 12.0 {
            zone - 24.0
        } else {
            zone
        }
    }

    /// Maps a fractional coordinate in **hours** along this histogram's
    /// rotated axis back to a zone coordinate in hours east of UTC.
    ///
    /// Identical to [`PlacementHistogram::unrotate_coord`] on the hourly
    /// grid; on finer grids the wrap boundary moves to the grid's last
    /// zone (+12:30 / +12:45).
    pub fn unrotate_axis_coord(&self, coord: f64, cut: usize) -> f64 {
        let step_hours = f64::from(self.grid().step_minutes()) / 60.0;
        let original = (coord + cut as f64 * step_hours).rem_euclid(24.0);
        let zone = original - 11.0;
        let max = 13.0 - step_hours;
        if zone > max {
            zone - 24.0
        } else {
            zone
        }
    }

    /// The whole-hour zone offset holding the largest fraction, truncated
    /// towards zero on fractional grids (see
    /// [`PlacementHistogram::peak_offset_minutes`]).
    pub fn peak_zone(&self) -> i32 {
        self.peak_offset_minutes() / 60
    }

    /// The zone offset holding the largest fraction, in minutes east of
    /// UTC.
    pub fn peak_offset_minutes(&self) -> i32 {
        let idx = self
            .fractions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(11 * self.grid().per_hour());
        self.grid().minutes_of(idx)
    }
}

impl fmt::Display for PlacementHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.peak_offset_minutes();
        if peak % 60 == 0 {
            write!(
                f,
                "placement of {} users, peak at UTC{:+}",
                self.users,
                peak / 60
            )
        } else {
            let sign = if peak < 0 { '-' } else { '+' };
            write!(
                f,
                "placement of {} users, peak at UTC{}{}:{:02}",
                self.users,
                sign,
                (peak / 60).abs(),
                (peak % 60).abs()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_stats::Distribution24;
    use crowdtz_time::{CivilDateTime, Timestamp, TzOffset, UserTrace};

    /// Builds a user whose activity replays the generic curve at UTC+k.
    fn user_at_zone(name: &str, k: i32, generic: &GenericProfile) -> ActivityProfile {
        let zone_profile = generic.zone_profile(k);
        let mut posts = Vec::new();
        // Deterministically lay out posts proportional to the profile.
        for day in 0..60u32 {
            for h in 0..24u8 {
                let weight = zone_profile.get(h as usize);
                // Post on days where the cumulative weight crosses integers.
                let times = (weight * 60.0).round() as u32;
                if day < times {
                    let date_day = 1 + (day % 28) as u8;
                    let month = 1 + (day / 28) as u8;
                    posts.push(Timestamp::from_civil_utc(
                        CivilDateTime::new(2016, month, date_day, h, 30, 0).unwrap(),
                    ));
                }
            }
        }
        ActivityProfile::from_trace_offset(&UserTrace::new(name, posts), TzOffset::UTC).unwrap()
    }

    #[test]
    fn exact_zone_replicas_place_exactly() {
        let generic = GenericProfile::reference();
        for k in [-8, -3, 0, 1, 5, 9, 12] {
            let profile = user_at_zone("u", k, &generic);
            let placement = place_user(&profile, &generic);
            assert_eq!(placement.zone_hours(), k, "zone {k}");
            assert!(placement.emd() < 1.0);
        }
    }

    #[test]
    fn histogram_from_placements() {
        let placements = vec![
            UserPlacement::new("a", 1, 0.1),
            UserPlacement::new("b", 1, 0.2),
            UserPlacement::new("c", -6, 0.3),
        ];
        let hist = PlacementHistogram::from_placements(&placements);
        assert_eq!(hist.users(), 3);
        assert_eq!(hist.bins(), 24);
        assert!((hist.fraction_at(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((hist.fraction_at(-6) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(hist.peak_zone(), 1);
        let total: f64 = hist.fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(hist.counts()[PlacementHistogram::index_of(1)], 2.0);
    }

    #[test]
    fn empty_histogram() {
        let hist = PlacementHistogram::from_placements(&[]);
        assert_eq!(hist.users(), 0);
        assert_eq!(hist.bins(), 24);
        assert_eq!(hist.fractions().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn index_zone_bijection() {
        for k in -11..=12 {
            assert_eq!(
                PlacementHistogram::zone_of(PlacementHistogram::index_of(k)),
                k
            );
        }
        let xs = PlacementHistogram::xs();
        assert_eq!(xs[0], -11.0);
        assert_eq!(xs[23], 12.0);
    }

    #[test]
    fn grid_index_minute_bijection() {
        for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
            for i in 0..grid.zones() {
                assert_eq!(grid.index_of_minutes(grid.minutes_of(i)), i, "{grid} / {i}");
            }
            assert_eq!(grid.minutes_of(0), -11 * 60);
            assert_eq!(
                grid.minutes_of(grid.zones() - 1),
                13 * 60 - grid.step_minutes()
            );
            assert_eq!(grid.zones() as i32 * grid.step_minutes(), 24 * 60);
        }
        // The hourly grid agrees with the historical index mapping.
        for k in -11..=12 {
            assert_eq!(
                ZoneGrid::Hourly.index_of_minutes(k * 60),
                PlacementHistogram::index_of(k)
            );
        }
        // Nepal and Chatham land on quarter-hour indices.
        let q = ZoneGrid::QuarterHour;
        assert_eq!(q.minutes_of(q.index_of_minutes(345)), 345);
        assert_eq!(q.minutes_of(q.index_of_minutes(765)), 765);
        assert_eq!(ZoneGrid::from_zones(48), Some(ZoneGrid::HalfHour));
        assert_eq!(ZoneGrid::from_zones(25), None);
    }

    #[test]
    fn covering_grid_widens_with_fractional_offsets() {
        let hourly = [UserPlacement::new("a", 3, 0.1)];
        assert_eq!(ZoneGrid::covering(&hourly), ZoneGrid::Hourly);
        let half = [UserPlacement::from_offset_minutes("b", 330, 0.1)];
        assert_eq!(ZoneGrid::covering(&half), ZoneGrid::HalfHour);
        let quarter = [
            UserPlacement::new("a", 3, 0.1),
            UserPlacement::from_offset_minutes("c", -345, 0.1),
        ];
        assert_eq!(ZoneGrid::covering(&quarter), ZoneGrid::QuarterHour);
    }

    #[test]
    fn quarter_hour_histogram_keeps_fractional_peaks() {
        let placements = vec![
            UserPlacement::from_offset_minutes("a", 345, 0.1),
            UserPlacement::from_offset_minutes("b", 345, 0.2),
            UserPlacement::new("c", -6, 0.3),
        ];
        let hist = PlacementHistogram::from_placements(&placements);
        assert_eq!(hist.bins(), 96);
        assert_eq!(hist.peak_offset_minutes(), 345);
        assert_eq!(hist.peak_zone(), 5);
        assert!(hist.to_string().contains("UTC+5:45"), "{hist}");
        let coords = hist.zone_coords();
        assert_eq!(coords[0], -11.0);
        assert_eq!(coords[1], -10.75);
    }

    #[test]
    fn uniform_profile_still_places_somewhere() {
        // A perfectly flat user has some minimal-EMD zone; placement never
        // panics (polishing should have removed such users, but the
        // function itself is total).
        let trace = UserTrace::new(
            "flat",
            (0..240)
                .map(|i| Timestamp::from_secs(i * 3_600 + 1_450_000_000))
                .collect(),
        );
        let profile = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
        let placement = place_user(&profile, &GenericProfile::reference());
        assert!((-11..=12).contains(&placement.zone_hours()));
    }

    #[test]
    fn neighbour_zone_confusion_is_monotone() {
        // A user exactly at UTC+2: EMD to +2 < EMD to +3 < EMD to +6.
        let generic = GenericProfile::reference();
        let profile = user_at_zone("u", 2, &generic);
        let d = |k: i32| circular_emd(&profile.distribution(), &generic.zone_profile(k));
        assert!(d(2) < d(3));
        assert!(d(3) < d(6));
    }

    #[test]
    fn wrap_cut_avoids_the_crowd() {
        // All mass around UTC+12 / UTC−11: the cut must land on the far,
        // empty side of the circle.
        let placements: Vec<UserPlacement> = [(12, 5), (-11, 4), (11, 3)]
            .iter()
            .flat_map(|&(zone, n)| {
                (0..n).map(move |i| UserPlacement::new(format!("u{zone}-{i}"), zone, 0.1))
            })
            .collect();
        let hist = PlacementHistogram::from_placements(&placements);
        let cut = hist.wrap_cut();
        // The crowd occupies indices 22, 23 (zones +11, +12) and 0 (−11);
        // the cut must be well away from those.
        let crowd_indices = [22usize, 23, 0];
        for &ci in &crowd_indices {
            let dist = (cut as i32 - ci as i32)
                .rem_euclid(24)
                .min((ci as i32 - cut as i32).rem_euclid(24));
            assert!(dist >= 4, "cut {cut} too close to crowd index {ci}");
        }
    }

    #[test]
    fn rotated_fractions_round_trip() {
        let placements: Vec<UserPlacement> = (0..5)
            .map(|i| UserPlacement::new(format!("u{i}"), 3, 0.1))
            .collect();
        let hist = PlacementHistogram::from_placements(&placements);
        let cut = 7;
        let rotated = hist.rotated_fractions(cut);
        for (i, &v) in rotated.iter().enumerate() {
            assert_eq!(v, hist.fractions()[(cut + i) % 24]);
        }
        // Mass is conserved.
        assert!((rotated.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrotate_coord_inverts_rotation() {
        for cut in 0..24usize {
            for zone in -11..=12i32 {
                let original_index = (zone + 11) as usize;
                let rotated_coord = (original_index + 24 - cut) % 24;
                let back = PlacementHistogram::unrotate_coord(rotated_coord as f64, cut);
                assert_eq!(back as i32, zone, "cut {cut}, zone {zone}");
            }
        }
        // Fractional coordinates stay in (−12, 12].
        let z = PlacementHistogram::unrotate_coord(23.7, 0);
        assert!(z > -12.0 && z <= 12.0, "{z}");
    }

    #[test]
    fn unrotate_axis_coord_matches_static_form_on_hourly_grid() {
        let placements: Vec<UserPlacement> = (0..3)
            .map(|i| UserPlacement::new(format!("u{i}"), 3, 0.1))
            .collect();
        let hist = PlacementHistogram::from_placements(&placements);
        for cut in 0..24usize {
            for coord in [0.0, 3.25, 11.5, 23.7] {
                assert_eq!(
                    hist.unrotate_axis_coord(coord, cut).to_bits(),
                    PlacementHistogram::unrotate_coord(coord, cut).to_bits(),
                    "cut {cut}, coord {coord}"
                );
            }
        }
    }

    #[test]
    fn unrotate_axis_coord_inverts_rotation_on_quarter_grid() {
        let placements = vec![UserPlacement::from_offset_minutes("a", 345, 0.1)];
        let hist = PlacementHistogram::from_placements(&placements);
        assert_eq!(hist.bins(), 96);
        let grid = ZoneGrid::QuarterHour;
        for cut in [0usize, 17, 44, 95] {
            for index in [0usize, 21, 44, 95] {
                let rotated_index = (index + 96 - cut) % 96;
                let coord = rotated_index as f64 * 0.25;
                let back = hist.unrotate_axis_coord(coord, cut);
                let expect = f64::from(grid.minutes_of(index)) / 60.0;
                assert!(
                    (back - expect).abs() < 1e-9,
                    "cut {cut}, index {index}: {back} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn display_formats() {
        let p = UserPlacement::new("u", -6, 0.25);
        assert_eq!(p.to_string(), "u → UTC-6 (emd 0.250)");
        let nepal = UserPlacement::from_offset_minutes("n", 345, 0.125);
        assert_eq!(nepal.to_string(), "n → UTC+5:45 (emd 0.125)");
        let chatham_west = UserPlacement::from_offset_minutes("c", -615, 0.5);
        assert_eq!(chatham_west.to_string(), "c → UTC-10:15 (emd 0.500)");
        let hist = PlacementHistogram::from_placements(&[p]);
        assert!(hist.to_string().contains("UTC-6"));
    }

    #[test]
    fn hourly_serde_has_no_minutes_field() {
        let p = UserPlacement::new("u", 3, 0.25);
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("zone_minutes"), "{json}");
        let back: UserPlacement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Fractional placements round-trip with the extra field.
        let q = UserPlacement::from_offset_minutes("u", -345, 0.25);
        let json = serde_json::to_string(&q).unwrap();
        assert!(json.contains("zone_minutes"), "{json}");
        let back: UserPlacement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.offset_minutes(), -345);
    }

    #[test]
    fn streamed_placement_matches_the_value_tree() {
        for p in [
            UserPlacement::new("u\"1", 0, 0.0),
            UserPlacement::new("u", -11, 1.0 / 3.0),
            UserPlacement::from_offset_minutes("nepal", 345, 0.125),
            UserPlacement::from_offset_minutes("marquesas", -570, 2.5e-7),
        ] {
            let mut tree = String::new();
            p.to_value().write_compact(&mut tree);
            assert_eq!(serde_json::to_string(&p).unwrap(), tree);
        }
    }

    #[test]
    fn delta_profiles_wrap_near_day_boundary() {
        // Peak at 21h local for UTC+12 means 9h UTC — placement still
        // resolves to +12 rather than an alias.
        let generic = GenericProfile::reference();
        let profile = user_at_zone("u", 12, &generic);
        assert_eq!(place_user(&profile, &generic).zone_hours(), 12);
        let _ = Distribution24::uniform();
    }
}
