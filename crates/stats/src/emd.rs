//! Earth Mover's Distance (1-Wasserstein) between 24-bin distributions.
//!
//! The paper (§IV.A) places each anonymous user into the time zone whose
//! profile minimizes the EMD: *"the one for which it takes less effort to
//! transform the single user profile into by both shifting and moving
//! probability mass"*. Hours of the day live on a circle, so both the
//! linear metric (ground distance = |i − j|) and the circular metric
//! (ground distance = min(|i − j|, 24 − |i − j|)) are provided, along with
//! the shift-minimized variant used for flexible alignment.

use crate::dist::{Distribution24, BINS};

/// EMD with the line ground distance `|i − j|`, in units of hours.
///
/// Computed exactly from cumulative sums:
/// `EMD(p, q) = Σ_h |CDF_p(h) − CDF_q(h)|`.
///
/// ```
/// use crowdtz_stats::{linear_emd, Distribution24};
/// let a = Distribution24::delta(3);
/// let b = Distribution24::delta(7);
/// assert_eq!(linear_emd(&a, &b), 4.0);
/// assert_eq!(linear_emd(&a, &a), 0.0);
/// ```
pub fn linear_emd(p: &Distribution24, q: &Distribution24) -> f64 {
    let mut acc = 0.0_f64;
    let mut diff = 0.0_f64;
    for h in 0..BINS {
        diff += p.get(h) - q.get(h);
        acc += diff.abs();
    }
    acc
}

/// EMD with the circular ground distance `min(|i − j|, 24 − |i − j|)`.
///
/// On the circle the optimal transport subtracts the *median* of the CDF
/// differences: `EMD(p, q) = min_c Σ_h |CDF_p(h) − CDF_q(h) − c|`, achieved
/// at `c = median`.
///
/// ```
/// use crowdtz_stats::{circular_emd, Distribution24};
/// // Hours 23 and 0 are adjacent on the circle.
/// let a = Distribution24::delta(23);
/// let b = Distribution24::delta(0);
/// assert_eq!(circular_emd(&a, &b), 1.0);
/// ```
pub fn circular_emd(p: &Distribution24, q: &Distribution24) -> f64 {
    circular_emd_cdf(&p.cdf(), &q.cdf())
}

/// [`circular_emd`] evaluated on precomputed CDFs (see
/// [`Distribution24::cdf`]).
///
/// This is the hot-path form of the kernel: the placement engine in
/// `crowdtz-core` precomputes the 24 zone-profile CDFs once and calls this
/// per user, and [`circular_emd`] itself is a thin wrapper over it — both
/// paths therefore produce bit-identical distances. The median of the CDF
/// differences is found by `select_nth_unstable` (O(n), no full sort) on a
/// fixed stack array; nothing here allocates.
pub fn circular_emd_cdf(p_cdf: &[f64; BINS], q_cdf: &[f64; BINS]) -> f64 {
    let mut diffs = [0.0_f64; BINS];
    for h in 0..BINS {
        diffs[h] = p_cdf[h] - q_cdf[h];
    }
    circular_emd_of_cdf_diff(&diffs)
}

/// `min_c Σ_h |d[h] − c|` for a circular CDF-difference array — the shared
/// tail of every circular-EMD path.
///
/// The optimal `c` is the median, and at the median the objective telescopes
/// to *(sum of the 12 largest diffs) − (sum of the 12 smallest)*, computed
/// as in-order half sums over the ascending-sorted differences. The sorted
/// summation order makes the bits a function of the difference multiset
/// alone, which is what lets the lane-parallel batch kernel
/// ([`SortNetwork`](crate::SortNetwork)) reproduce this value exactly —
/// see its determinism discussion.
pub fn circular_emd_of_cdf_diff(diffs: &[f64; BINS]) -> f64 {
    let mut scratch = *diffs;
    crate::kernel::circular_emd_of_cdf_diff_scratch(&mut scratch)
}

/// Writes `CDF_{p shifted by s}(h) − CDF_q(h)` into `diffs` without
/// materializing the shifted distribution.
///
/// The CDF of `p.shifted(s)` is a rotation of `p`'s CDF with a two-piece
/// additive fix-up: with `a = (−s) mod 24`,
/// `CDF_{p_s}(h) = CDF_p((h + a) mod 24) − CDF_p(a − 1) + [h + a ≥ 24]`,
/// where the bracket adds the full mass (1 after normalization, the total
/// in general) once the rotated index wraps past the end of the day.
fn shifted_cdf_diff(p_cdf: &[f64; BINS], q_cdf: &[f64; BINS], shift: i32, diffs: &mut [f64; BINS]) {
    let a = (-shift).rem_euclid(BINS as i32) as usize;
    let pre = if a == 0 { 0.0 } else { p_cdf[a - 1] };
    let total = p_cdf[BINS - 1];
    for (h, d) in diffs.iter_mut().enumerate() {
        let wrap = if h + a >= BINS { total } else { 0.0 };
        *d = p_cdf[(h + a) % BINS] - pre + wrap - q_cdf[h];
    }
}

/// The minimum linear EMD over all 24 circular shifts of `p`, together with
/// the optimal shift.
///
/// Returns `(shift, emd)` where `p.shifted(shift)` is closest to `q`. This
/// is the "shift + move mass" transform the paper describes; with zone
/// profiles being shifts of a single generic profile, evaluating the user
/// against all 24 shifted profiles is exactly this computation.
pub fn min_shift_emd(p: &Distribution24, q: &Distribution24) -> (i32, f64) {
    // Both CDFs are computed once; each shift is evaluated by rotating the
    // CDF difference in place instead of materializing `p.shifted(shift)`
    // and re-accumulating its cumulative sums 24 times.
    let p_cdf = p.cdf();
    let q_cdf = q.cdf();
    let mut diffs = [0.0_f64; BINS];
    let mut best = (0, f64::INFINITY);
    for shift in 0..BINS as i32 {
        shifted_cdf_diff(&p_cdf, &q_cdf, shift, &mut diffs);
        let d = diffs.iter().map(|d| d.abs()).sum();
        if d < best.1 {
            best = (shift, d);
        }
    }
    // Report shifts in the symmetric range (−11..=12) for readability.
    let (s, d) = best;
    let s = if s > 12 { s - 24 } else { s };
    (s, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution24;

    fn delta(h: u8) -> Distribution24 {
        Distribution24::delta(h)
    }

    #[test]
    fn linear_emd_between_deltas_is_bin_distance() {
        assert_eq!(linear_emd(&delta(0), &delta(23)), 23.0);
        assert_eq!(linear_emd(&delta(10), &delta(12)), 2.0);
    }

    #[test]
    fn circular_emd_wraps() {
        assert_eq!(circular_emd(&delta(0), &delta(23)), 1.0);
        assert_eq!(circular_emd(&delta(0), &delta(12)), 12.0);
        assert_eq!(circular_emd(&delta(2), &delta(22)), 4.0);
    }

    #[test]
    fn emd_identity() {
        let u = Distribution24::uniform();
        assert_eq!(linear_emd(&u, &u), 0.0);
        assert_eq!(circular_emd(&u, &u), 0.0);
    }

    #[test]
    fn emd_symmetry() {
        let a = delta(3).mix(&Distribution24::uniform(), 0.3);
        let b = delta(17).mix(&Distribution24::uniform(), 0.6);
        assert!((linear_emd(&a, &b) - linear_emd(&b, &a)).abs() < 1e-12);
        assert!((circular_emd(&a, &b) - circular_emd(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn circular_never_exceeds_linear() {
        let a = delta(1).mix(&delta(22), 0.5);
        let b = delta(12);
        assert!(circular_emd(&a, &b) <= linear_emd(&a, &b) + 1e-12);
    }

    #[test]
    fn min_shift_emd_finds_pure_shift() {
        let base = delta(3).mix(&delta(9), 0.4).mix(&delta(21), 0.3);
        let moved = base.shifted(5);
        let (shift, d) = min_shift_emd(&base, &moved);
        assert_eq!(shift, 5);
        assert!(d < 1e-12);
        // And the reverse direction reports a negative shift.
        let (shift, _) = min_shift_emd(&moved, &base);
        assert_eq!(shift, -5);
    }

    #[test]
    fn uniform_is_equidistant_from_all_deltas_circularly() {
        let u = Distribution24::uniform();
        let d0 = circular_emd(&u, &delta(0));
        for h in 1..24 {
            let dh = circular_emd(&u, &delta(h));
            assert!((d0 - dh).abs() < 1e-9, "hour {h}: {d0} vs {dh}");
        }
    }

    #[test]
    fn cdf_kernels_match_distribution_kernels_exactly() {
        let a = delta(3).mix(&Distribution24::uniform(), 0.37);
        let b = delta(19)
            .mix(&delta(7), 0.4)
            .mix(&Distribution24::uniform(), 0.1);
        let (ac, bc) = (a.cdf(), b.cdf());
        // Bit-identical: circular_emd is defined in terms of the CDF kernel.
        assert_eq!(circular_emd(&a, &b), circular_emd_cdf(&ac, &bc));
    }

    #[test]
    fn in_place_shifted_diff_matches_materialized_shift() {
        let p = delta(3)
            .mix(&delta(14), 0.45)
            .mix(&Distribution24::uniform(), 0.2);
        let q = delta(20).mix(&Distribution24::uniform(), 0.3);
        let (pc, qc) = (p.cdf(), q.cdf());
        let mut diffs = [0.0_f64; BINS];
        for shift in 0..BINS as i32 {
            shifted_cdf_diff(&pc, &qc, shift, &mut diffs);
            let lin: f64 = diffs.iter().map(|d| d.abs()).sum();
            assert!(
                (lin - linear_emd(&p.shifted(shift), &q)).abs() < 1e-12,
                "linear, shift {shift}"
            );
            let circ = circular_emd_of_cdf_diff(&diffs);
            assert!(
                (circ - circular_emd(&p.shifted(shift), &q)).abs() < 1e-12,
                "circular, shift {shift}"
            );
        }
    }

    #[test]
    fn half_sum_form_equals_median_form() {
        // The partitioned form must agree with the textbook median form.
        let p = delta(5).mix(&Distribution24::uniform(), 0.3);
        let q = delta(17).mix(&delta(2), 0.25);
        let (pc, qc) = (p.cdf(), q.cdf());
        let mut diffs = [0.0_f64; BINS];
        for h in 0..BINS {
            diffs[h] = pc[h] - qc[h];
        }
        let mut sorted = diffs;
        sorted.sort_by(f64::total_cmp);
        let median = sorted[BINS / 2 - 1];
        let via_median: f64 = diffs.iter().map(|d| (d - median).abs()).sum();
        assert!((circular_emd_of_cdf_diff(&diffs) - via_median).abs() < 1e-12);
    }

    #[test]
    fn flat_profile_is_closer_to_uniform_than_to_peaked_profile() {
        // The §IV.C bot filter depends on this ordering.
        let nearly_flat = Distribution24::uniform().mix(&delta(13), 0.05);
        let peaked = delta(21).mix(&delta(9), 0.3);
        let to_uniform = circular_emd(&nearly_flat, &Distribution24::uniform());
        let to_peaked = circular_emd(&nearly_flat, &peaked);
        assert!(to_uniform < to_peaked);
    }
}
