//! Width-generic, fixed-point and lane-parallel EMD kernels for batched
//! placement.
//!
//! The 24-bin kernels in [`crate::emd`] serve the scalar per-user path. The
//! placement engine in `crowdtz-core` additionally works on finer circular
//! grids (48 half-hour and 96 quarter-hour zones) and places users in
//! structure-of-arrays batches; the kernels here are their shared core:
//!
//! * a slice-width generalization of the circular EMD (bit-identical to
//!   the `[f64; 24]` version at width 24);
//! * the quad lower bound on that EMD, in a real-valued reference form
//!   ([`circular_emd_quad_lower_bound_slice`]) and a fixed-point
//!   (integer) form ([`quad_fold`], [`batch_quad_bounds`]) used to prune
//!   whole lanes of a batch with pure `i32` arithmetic. Quantization
//!   makes the integer bound *approximate*, so a provable slack
//!   ([`prune_slack`]) is subtracted before comparing it against the best
//!   exact distance — pruning stays conservative and the selected zone
//!   stays bit-identical to the scalar scan;
//! * a lane-parallel exact kernel ([`SortNetwork`]): [`EMD_LANES`]
//!   CDF-difference columns are sorted simultaneously by a branch-free
//!   compare-exchange network and reduced by in-order half sums, producing
//!   per column exactly the bits of
//!   [`circular_emd_of_cdf_diff_scratch`].
//!
//! # Why the exact kernel sorts
//!
//! `min_c Σ_h |d_h − c|` is attained at the median, where the objective
//! telescopes to *(sum of the largest half) − (sum of the smallest half)*.
//! Computing those half sums over the **ascending-sorted** sequence, in
//! index order, makes the result a function of the sorted *multiset* alone:
//! any correct ascending sort — a library sort, a compare-exchange network,
//! one lane of a SIMD batch — yields the same `f64` bits. (Compare-equal
//! elements are interchangeable under summation: equal non-zero values
//! share one bit pattern, and `±0.0` summands never change an accumulation
//! that starts from `+0.0`.) A half-*partition* (`select_nth_unstable`)
//! would be asymptotically cheaper but leaves the within-half order — and
//! therefore the sum bits — at the mercy of the library's partition
//! internals; full sorting buys toolchain- and path-independent
//! determinism for two dozen extra comparisons.
//!
//! SIMD note: the network's compare-exchange lowers to `min`/`max` and the
//! half sums to lane-wise adds. Rust never fuses or reassociates float
//! ops, so the autovectorized, `avx2`-enabled and plain scalar builds of
//! the same loops all produce identical bits — the runtime CPU dispatch in
//! [`SortNetwork::batch_emd`] is a pure speed switch.

/// The widest instruction set the batch kernels may use on this CPU.
/// `Avx512f` is only reported where AVX2 is present too, so a kernel may
/// fall back from it to its AVX2 build on a batch too narrow for 16
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    Avx512f,
    Avx2,
    Scalar,
}

/// The one runtime feature check behind every kernel's dispatch (std
/// caches the CPU query, so this is an atomic load per call).
fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512f;
            }
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// The instruction set the batch kernels dispatch to on this CPU:
/// `"avx512f"`, `"avx2"` or `"scalar"` — the widest path
/// [`batch_quad_bounds`], [`batch_min_argmin`] and
/// [`SortNetwork::batch_emd`] take on full-width batches. Benchmarks
/// record it beside their figures; results never depend on it.
pub fn simd_path() -> &'static str {
    match isa() {
        Isa::Avx512f => "avx512f",
        Isa::Avx2 => "avx2",
        Isa::Scalar => "scalar",
    }
}

/// Fixed-point scale for quantized CDF values: `2^22`.
///
/// CDF values live in `[0, 1]`, so a quantized value fits easily in `i32`;
/// a quad plane value is at most `2·2^22` in magnitude, a quad term (the
/// largest plane difference, see [`batch_quad_bounds`]) at most `4·2^22`,
/// and the 24 quads of the 96-bin grid sum to at most
/// `24·4·2^22 + slack < 2^31`, so the batched accumulation never
/// overflows `i32`.
pub const CDF_FIXED_SCALE: f64 = (1u32 << 22) as f64;

/// Lanes (columns) per [`SortNetwork::batch_emd`] call: 64 `f64` columns
/// are 8 cache lines per row — wide enough that the compare-exchange loops
/// vectorize at full width on any SIMD ISA, small enough that a 96-row
/// problem stays L1-resident (96 · 64 · 8 B = 48 KiB).
pub const EMD_LANES: usize = 64;

/// Quantizes one CDF value to fixed point: `round(x · 2^22)`.
///
/// Implemented as `(x · 2^22 + 0.5) as i32`, which equals
/// `(x · 2^22).round() as i32` for every `x` in `[0, 1]`: with
/// `y = x · 2^22 ∈ [0, 2^22]`, `y + 0.5` is exact in `f64` (needs at most
/// 23 + 1 significand bits), and truncating `y + 0.5` is floor, i.e.
/// round-half-away-from-zero for non-negative `y` — `.round()`'s rule.
/// The cast form avoids the `round` libm call, which is slow on targets
/// without a native rounding instruction.
#[inline]
pub fn quantize_cdf(x: f64) -> i32 {
    debug_assert!((-1.0..=2.0).contains(&x));
    (x * CDF_FIXED_SCALE + 0.5) as i32
}

/// The slack (in fixed-point quanta) that makes the integer lower bound
/// conservative for a `bins`-wide circular grid.
///
/// Each plane difference of the quad bound ([`batch_quad_bounds`])
/// involves eight quantizations of at most half a quantum error each, so
/// it is within 4 quanta of its scaled real value; the max of a quad's
/// three planes inherits that error budget, and a sum over `bins / 4`
/// quads is within `4 · bins / 4 = bins` quanta of the scaled real-valued
/// bound ([`circular_emd_quad_lower_bound_slice`]). One extra quantum
/// generously absorbs the `f64` rounding of the quantization products
/// themselves.
/// Subtracting this slack before comparing against the best distance means
/// a lane is pruned only when its true bound genuinely exceeds it.
#[inline]
pub fn prune_slack(bins: usize) -> i32 {
    bins as i32 + 1
}

/// In-order half sums of an ascending-sorted CDF-difference slice:
/// `Σ upper half − Σ lower half`, accumulated left to right from `+0.0`.
///
/// This exact accumulation order is the determinism contract shared by the
/// scalar kernel and every lane of [`SortNetwork::batch_emd`] — see the
/// module docs.
#[inline(always)]
fn sorted_half_sums(sorted: &[f64]) -> f64 {
    let half = sorted.len() / 2;
    let mut acc = 0.0_f64;
    for &v in &sorted[..half] {
        acc -= v;
    }
    for &v in &sorted[half..] {
        acc += v;
    }
    acc
}

/// `min_c Σ_h |d[h] − c|` for a circular CDF-difference slice of any even
/// width — the slice form of
/// [`circular_emd_of_cdf_diff`](crate::circular_emd_of_cdf_diff), in units
/// of grid bins.
///
/// The slice is consumed as scratch (sorted in place). The result depends
/// only on the multiset of differences, so it is bit-identical to any lane
/// of the batched [`SortNetwork::batch_emd`] over the same values.
// `is_multiple_of` would be tidier but is Rust 1.87; MSRV is 1.75.
#[allow(clippy::manual_is_multiple_of)]
pub fn circular_emd_of_cdf_diff_scratch(diffs: &mut [f64]) -> f64 {
    debug_assert!(diffs.len() >= 2 && diffs.len() % 2 == 0);
    diffs.sort_unstable_by(f64::total_cmp);
    sorted_half_sums(diffs)
}

/// Folds a CDF into its three quantized quad pairing-sums:
/// for quarter `q = len / 4` and quad `r` grouping positions
/// `{r, r+q, r+2q, r+3q}` with quantized values `Q0..Q3`,
///
/// * `out[r]        = Q0 + Q1 − Q2 − Q3`
/// * `out[q + r]    = Q0 − Q1 + Q2 − Q3`
/// * `out[2q + r]   = Q0 − Q1 − Q2 + Q3`
///
/// — one plane per complementary 2+2 pairing of the quad. The quad lower
/// bound between a user and a zone CDF is then a pure integer expression
/// over two folds (see [`batch_quad_bounds`]): for each quad, the largest
/// absolute plane difference equals `(s3 − s0) + (s2 − s1)` of the sorted
/// per-position differences `s0 ≤ s1 ≤ s2 ≤ s3`, which is
/// `min_c Σ |d_i − c|` over the quad — the tightest bound any constant
/// shift admits on those four positions.
#[inline]
pub fn quad_fold(cdf: &[f64], out: &mut [i32]) {
    let q = cdf.len() / 4;
    debug_assert_eq!(cdf.len() % 4, 0);
    debug_assert_eq!(out.len(), 3 * q);
    for r in 0..q {
        let q0 = quantize_cdf(cdf[r]);
        let q1 = quantize_cdf(cdf[r + q]);
        let q2 = quantize_cdf(cdf[r + 2 * q]);
        let q3 = quantize_cdf(cdf[r + 3 * q]);
        out[r] = q0 + q1 - q2 - q3;
        out[q + r] = q0 - q1 + q2 - q3;
        out[2 * q + r] = q0 - q1 - q2 + q3;
    }
}

#[inline(always)]
fn batch_quad_bounds_impl(user_folds: &[i32], zone_fold: &[i32], lanes: usize, bounds: &mut [i32]) {
    let q = zone_fold.len() / 3;
    for r in 0..q {
        let za = zone_fold[r];
        let zb = zone_fold[q + r];
        let zc = zone_fold[2 * q + r];
        let ra = &user_folds[r * lanes..(r + 1) * lanes];
        let rb = &user_folds[(q + r) * lanes..(q + r + 1) * lanes];
        let rc = &user_folds[(2 * q + r) * lanes..(2 * q + r + 1) * lanes];
        for (((b, &ua), &ub), &uc) in bounds
            .iter_mut()
            .zip(ra.iter())
            .zip(rb.iter())
            .zip(rc.iter())
        {
            let a = (ua - za).abs();
            let b2 = (ub - zb).abs();
            let c = (uc - zc).abs();
            *b += a.max(b2).max(c);
        }
    }
}

/// `batch_quad_bounds_impl` compiled with AVX2 enabled.
///
/// # Safety
/// The caller must have verified `avx2` support at runtime. The body is
/// pure integer arithmetic over the same memory as the portable path, so
/// results are identical; only the instruction selection changes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn batch_quad_bounds_avx2(
    user_folds: &[i32],
    zone_fold: &[i32],
    lanes: usize,
    bounds: &mut [i32],
) {
    batch_quad_bounds_impl(user_folds, zone_fold, lanes, bounds);
}

/// `batch_quad_bounds_impl` compiled with AVX-512F enabled (16-wide `i32`
/// lanes instead of AVX2's 8).
///
/// # Safety
/// The caller must have verified `avx512f` support at runtime. Pure
/// integer arithmetic — bit-identical to the other builds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn batch_quad_bounds_avx512(
    user_folds: &[i32],
    zone_fold: &[i32],
    lanes: usize,
    bounds: &mut [i32],
) {
    batch_quad_bounds_impl(user_folds, zone_fold, lanes, bounds);
}

/// Accumulates quantized quad lower bounds for a whole batch of users
/// against one zone, lane-wise.
///
/// `user_folds` is laid out structure-of-arrays, plane-row-major: lane `u`
/// of fold row `h` (of `3 · bins/4` rows, see [`quad_fold`]) lives at
/// `user_folds[h * lanes + u]`. `zone_fold` is the zone CDF's own
/// [`quad_fold`]. For every lane and every quad `r`,
/// `bounds[u] += max(|ΔA_r|, |ΔB_r|, |ΔC_r|)` where `ΔX_r` is the lane's
/// plane-`X` fold difference against the zone — an integer identity for
/// `(s3 − s0) + (s2 − s1)` of the sorted quad differences, so the bound is
/// the per-quad optimal-shift cost summed over quads. Branch-free `i32`
/// min/max over contiguous memory, dispatched to an AVX2 build when the
/// CPU has it; integer arithmetic, so dispatch cannot change a single
/// bound. Callers zero `bounds` per zone.
pub fn batch_quad_bounds(user_folds: &[i32], zone_fold: &[i32], lanes: usize, bounds: &mut [i32]) {
    debug_assert_eq!(bounds.len(), lanes);
    debug_assert_eq!(user_folds.len(), zone_fold.len() * lanes);
    debug_assert_eq!(zone_fold.len() % 3, 0);
    #[cfg(target_arch = "x86_64")]
    match isa() {
        Isa::Avx512f if lanes >= 16 => {
            // SAFETY: `isa` checked avx512f.
            #[allow(unsafe_code)]
            unsafe {
                batch_quad_bounds_avx512(user_folds, zone_fold, lanes, bounds)
            };
            return;
        }
        Isa::Avx512f | Isa::Avx2 if lanes >= 8 => {
            // SAFETY: `isa` checked avx2 for both variants.
            #[allow(unsafe_code)]
            unsafe {
                batch_quad_bounds_avx2(user_folds, zone_fold, lanes, bounds)
            };
            return;
        }
        _ => {}
    }
    batch_quad_bounds_impl(user_folds, zone_fold, lanes, bounds);
}

/// The real-valued quad lower bound `Σ_r (s3 − s0) + (s2 − s1)` over
/// sorted quad differences — the unquantized reference for
/// [`batch_quad_bounds`], in units of grid bins. Never above the exact
/// circular EMD: the shift that is optimal for the whole circle is one
/// candidate shift for every quad.
pub fn circular_emd_quad_lower_bound_slice(diffs: &[f64]) -> f64 {
    let q = diffs.len() / 4;
    let mut acc = 0.0;
    for r in 0..q {
        let mut v = [diffs[r], diffs[r + q], diffs[r + 2 * q], diffs[r + 3 * q]];
        v.sort_unstable_by(f64::total_cmp);
        acc += (v[3] - v[0]) + (v[2] - v[1]);
    }
    acc
}

#[inline(always)]
fn batch_min_argmin_impl(row: &[i32], zone: u32, min: &mut [i32], argmin: &mut [u32]) {
    for ((&b, m), a) in row.iter().zip(min.iter_mut()).zip(argmin.iter_mut()) {
        if b < *m {
            *m = b;
            *a = zone;
        }
    }
}

/// `batch_min_argmin_impl` compiled with AVX-512F enabled.
///
/// # Safety
/// The caller must have verified `avx512f` support at runtime. Integer
/// compare-and-select over the same memory as the portable path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn batch_min_argmin_avx512(row: &[i32], zone: u32, min: &mut [i32], argmin: &mut [u32]) {
    batch_min_argmin_impl(row, zone, min, argmin);
}

/// `batch_min_argmin_impl` compiled with AVX2 enabled.
///
/// # Safety
/// The caller must have verified `avx2` support at runtime. Integer
/// compare/blend only — bit-identical to the other builds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn batch_min_argmin_avx2(row: &[i32], zone: u32, min: &mut [i32], argmin: &mut [u32]) {
    batch_min_argmin_impl(row, zone, min, argmin);
}

/// Folds one zone's bound row into a running per-lane minimum:
/// `if row[u] < min[u] { min[u] = row[u]; argmin[u] = zone }`.
///
/// Called once per zone in ascending zone order, this leaves `argmin[u]`
/// holding the *smallest-indexed* zone attaining the minimal bound for
/// lane `u` — exactly the first candidate the scalar scan's strict-`<`
/// sweep selects. Strict `<` with ascending calls is what preserves the
/// tie rule. Integer compare-and-select over one zone's row of quad
/// bounds, SIMD-dispatched like [`batch_quad_bounds`].
pub fn batch_min_argmin(row: &[i32], zone: u32, min: &mut [i32], argmin: &mut [u32]) {
    debug_assert_eq!(row.len(), min.len());
    debug_assert_eq!(row.len(), argmin.len());
    #[cfg(target_arch = "x86_64")]
    match isa() {
        Isa::Avx512f if row.len() >= 16 => {
            // SAFETY: `isa` checked avx512f.
            #[allow(unsafe_code)]
            unsafe {
                batch_min_argmin_avx512(row, zone, min, argmin)
            };
            return;
        }
        Isa::Avx512f | Isa::Avx2 if row.len() >= 8 => {
            // SAFETY: `isa` checked avx2 for both variants.
            #[allow(unsafe_code)]
            unsafe {
                batch_min_argmin_avx2(row, zone, min, argmin)
            };
            return;
        }
        _ => {}
    }
    batch_min_argmin_impl(row, zone, min, argmin);
}

/// A Batcher odd-even mergesort network for one circular-grid width, plus
/// the lane-parallel exact-EMD kernel built on it.
///
/// The network is a fixed sequence of compare-exchange index pairs
/// `(i, j)`, `i < j`, that sorts any `bins`-element array ascending. Being
/// data-independent, the same sequence sorts [`EMD_LANES`] independent
/// columns simultaneously with branch-free lane-wise `min`/`max` — the
/// shape autovectorizers turn into packed SIMD at full width. 132 pairs
/// sort 24 elements; 48 and 96 cost 400 and 1077.
#[derive(Debug, Clone)]
pub struct SortNetwork {
    bins: usize,
    pairs: Vec<(u16, u16)>,
}

impl SortNetwork {
    /// Builds the compare-exchange schedule for `bins` elements (any
    /// `bins ≥ 2`; the engine uses 24, 48 and 96).
    pub fn new(bins: usize) -> SortNetwork {
        // Batcher's iterative odd-even merge schedule for arbitrary n:
        // p sweeps the power-of-two merge sizes, k the sub-distances.
        let mut pairs = Vec::new();
        let mut p = 1usize;
        while p < bins {
            let mut k = p;
            loop {
                let mut j = k % p;
                while j + k < bins {
                    for i in 0..k.min(bins - j - k) {
                        if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                            pairs.push(((i + j) as u16, (i + j + k) as u16));
                        }
                    }
                    j += 2 * k;
                }
                if k == 1 {
                    break;
                }
                k /= 2;
            }
            p *= 2;
        }
        SortNetwork { bins, pairs }
    }

    /// The grid width this network sorts.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Sorts and reduces [`EMD_LANES`] CDF-difference columns at once:
    /// `rows` holds `bins` rows of `EMD_LANES` lanes (row-major; column
    /// `l` is one user-vs-zone difference vector), and on return
    /// `out[l]` is `min_c Σ_h |rows[h][l] − c|` — bit-for-bit what
    /// [`circular_emd_of_cdf_diff_scratch`] returns for that column.
    ///
    /// `rows` is consumed as scratch (each column ends up sorted). The
    /// hot loops run through a runtime AVX2 dispatch; see the module docs
    /// for why the dispatch cannot change any bit of the result.
    pub fn batch_emd(&self, rows: &mut [f64], out: &mut [f64; EMD_LANES]) {
        assert_eq!(rows.len(), self.bins * EMD_LANES);
        #[cfg(target_arch = "x86_64")]
        match isa() {
            Isa::Avx512f => {
                // SAFETY: `isa` checked avx512f.
                #[allow(unsafe_code)]
                unsafe {
                    self.batch_emd_avx512(rows, out)
                };
                return;
            }
            Isa::Avx2 => {
                // SAFETY: `isa` checked avx2.
                #[allow(unsafe_code)]
                unsafe {
                    self.batch_emd_avx2(rows, out)
                };
                return;
            }
            Isa::Scalar => {}
        }
        self.batch_emd_impl(rows, out);
    }

    /// `batch_emd_impl` compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The caller must have verified `avx2` support at runtime. Lane-wise
    /// `min`/`max`/add over the same memory as the portable path; Rust
    /// does not fuse or reassociate float ops, so both builds produce
    /// identical bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn batch_emd_avx2(&self, rows: &mut [f64], out: &mut [f64; EMD_LANES]) {
        self.batch_emd_impl(rows, out);
    }

    /// `batch_emd_impl` compiled with AVX-512F enabled (8-wide `f64`
    /// lanes instead of AVX2's 4, and half the compare-exchange
    /// instruction count per group).
    ///
    /// # Safety
    /// The caller must have verified `avx512f` support at runtime. The
    /// lane ops are pure `min`/`max` selects and in-order adds, so the
    /// wider build produces identical bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)]
    unsafe fn batch_emd_avx512(&self, rows: &mut [f64], out: &mut [f64; EMD_LANES]) {
        self.batch_emd_impl(rows, out);
    }

    #[inline(always)]
    fn batch_emd_impl(&self, rows: &mut [f64], out: &mut [f64; EMD_LANES]) {
        const W: usize = EMD_LANES;
        for &(i, j) in &self.pairs {
            let (i, j) = (usize::from(i), usize::from(j));
            // Two disjoint W-wide rows; fixed-size views keep the lane
            // loop's trip count a compile-time constant.
            let (lo, hi) = rows.split_at_mut(j * W);
            let a: &mut [f64; W] = (&mut lo[i * W..(i + 1) * W]).try_into().unwrap();
            let b: &mut [f64; W] = (&mut hi[..W]).try_into().unwrap();
            for l in 0..W {
                let x = a[l];
                let y = b[l];
                a[l] = if y < x { y } else { x };
                b[l] = if y < x { x } else { y };
            }
        }
        // In-order half sums per lane — the same accumulation sequence as
        // `sorted_half_sums`, so each lane matches the scalar kernel.
        let half = self.bins / 2;
        *out = [0.0; W];
        for h in 0..half {
            let row: &[f64; W] = (&rows[h * W..(h + 1) * W]).try_into().unwrap();
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o -= v;
            }
        }
        for h in half..self.bins {
            let row: &[f64; W] = (&rows[h * W..(h + 1) * W]).try_into().unwrap();
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::BINS;
    use crate::{circular_emd_of_cdf_diff, Distribution24};

    fn cdf_pair(a: u8, b: u8, t: f64) -> ([f64; BINS], [f64; BINS]) {
        let p = Distribution24::delta(a).mix(&Distribution24::uniform(), t);
        let q = Distribution24::delta(b).mix(&Distribution24::uniform(), 1.0 - t);
        (p.cdf(), q.cdf())
    }

    #[test]
    fn scratch_kernel_matches_array_kernel_at_width_24() {
        let (pc, qc) = cdf_pair(3, 19, 0.3);
        let mut diffs = [0.0_f64; BINS];
        for h in 0..BINS {
            diffs[h] = pc[h] - qc[h];
        }
        let mut scratch = diffs;
        assert_eq!(
            circular_emd_of_cdf_diff(&diffs).to_bits(),
            circular_emd_of_cdf_diff_scratch(&mut scratch).to_bits(),
        );
    }

    #[test]
    fn quantizer_matches_rounding_everywhere() {
        // The cast form must agree with `.round()` on a dense sweep of
        // [0, 1] plus every half-quantum boundary case.
        for i in 0..=4096u32 {
            let x = f64::from(i) / 4096.0;
            assert_eq!(
                quantize_cdf(x),
                (x * CDF_FIXED_SCALE).round() as i32,
                "x = {x}"
            );
        }
        for q in [0u32, 1, 2, (1 << 22) - 1, 1 << 22] {
            let exact = f64::from(q) / CDF_FIXED_SCALE;
            assert_eq!(quantize_cdf(exact), q as i32);
            // Exactly-half values round away from zero, like `.round()`.
            let half_up = (f64::from(q) + 0.5) / CDF_FIXED_SCALE;
            assert_eq!(
                quantize_cdf(half_up),
                (half_up * CDF_FIXED_SCALE).round() as i32
            );
        }
    }

    /// A CDF on a `bins`-wide grid: a point mass at `peak` mixed with the
    /// uniform profile at weight `t`.
    fn peaked_cdf(bins: usize, peak: usize, t: f64) -> Vec<f64> {
        let mut acc = 0.0;
        (0..bins)
            .map(|h| {
                acc += t / bins as f64 + if h == peak { 1.0 - t } else { 0.0 };
                acc
            })
            .collect()
    }

    /// A pseudo-random CDF on a `bins`-wide grid, from a xorshift state.
    fn random_cdf(bins: usize, rng: &mut u64) -> Vec<f64> {
        let weights: Vec<f64> = (0..bins)
            .map(|_| {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                (*rng >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }

    /// The quad fold of a CDF, as a fresh vector.
    fn fold_of(cdf: &[f64]) -> Vec<i32> {
        let mut fold = vec![0i32; 3 * cdf.len() / 4];
        quad_fold(cdf, &mut fold);
        fold
    }

    #[test]
    fn integer_bound_is_conservative_after_slack() {
        // On every grid the engine scans, the slack-adjusted integer quad
        // bound never exceeds the real-valued quad bound, which never
        // exceeds the exact circular EMD — the pruning soundness chain.
        let mut rng = 0x2545F4914F6CDD1Du64;
        for bins in [24usize, 48, 96] {
            let step = bins / 24;
            let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
            for (a, b) in [(0usize, 12usize), (3, 4), (23, 0), (7, 7), (1, 18)] {
                for t in [0.0, 0.15, 0.5, 0.85] {
                    pairs.push((
                        peaked_cdf(bins, a * step, t),
                        peaked_cdf(bins, b * step + step / 2, 1.0 - t),
                    ));
                }
            }
            for _ in 0..40 {
                pairs.push((random_cdf(bins, &mut rng), random_cdf(bins, &mut rng)));
            }
            for (p, q) in &pairs {
                // Single-lane batch: the SoA layout degenerates to the fold
                // itself.
                let mut bound = [0i32];
                batch_quad_bounds(&fold_of(p), &fold_of(q), 1, &mut bound);
                let adjusted = f64::from(bound[0] - prune_slack(bins)) / CDF_FIXED_SCALE;
                let mut diffs: Vec<f64> = p.iter().zip(q).map(|(a, b)| a - b).collect();
                let real = circular_emd_quad_lower_bound_slice(&diffs);
                let exact = circular_emd_of_cdf_diff_scratch(&mut diffs);
                assert!(
                    adjusted <= real,
                    "{bins} bins: integer bound {adjusted} exceeds quad bound {real}"
                );
                assert!(
                    adjusted <= exact,
                    "{bins} bins: integer bound {adjusted} exceeds exact {exact}"
                );
                // Both sides are f64 sums of the same differences, so a
                // tight bound may land an ulp or two above the exact value.
                assert!(
                    real <= exact + 1e-12,
                    "{bins} bins: quad bound {real} exceeds exact {exact}"
                );
            }
        }
    }

    #[test]
    fn batch_layout_matches_per_lane_folds() {
        // Users interleaved SoA must produce the same bounds as independent
        // single-lane calls; 19 lanes reach every SIMD dispatch width.
        let mut rng = 0x9E3779B97F4A7C15u64;
        for bins in [24usize, 48, 96] {
            let fw = 3 * bins / 4;
            let users: Vec<Vec<f64>> = (0..19).map(|_| random_cdf(bins, &mut rng)).collect();
            let zone_fold = fold_of(&peaked_cdf(bins, bins / 3, 0.35));
            let lanes = users.len();
            let mut soa = vec![0i32; fw * lanes];
            for (u, cdf) in users.iter().enumerate() {
                for (h, &v) in fold_of(cdf).iter().enumerate() {
                    soa[h * lanes + u] = v;
                }
            }
            let mut batch_bounds = vec![0i32; lanes];
            batch_quad_bounds(&soa, &zone_fold, lanes, &mut batch_bounds);
            for (u, cdf) in users.iter().enumerate() {
                let mut single = [0i32];
                batch_quad_bounds(&fold_of(cdf), &zone_fold, 1, &mut single);
                assert_eq!(batch_bounds[u], single[0], "{bins} bins, lane {u}");
            }
        }
    }

    #[test]
    fn quantization_round_trips_exact_dyadic_values() {
        // Values with ≤ 22 fractional bits are represented exactly.
        for x in [0.0, 0.25, 0.5, 0.75, 1.0, 1.0 / 1024.0] {
            assert_eq!(f64::from(quantize_cdf(x)) / CDF_FIXED_SCALE, x);
        }
    }

    #[test]
    fn network_sorts_every_grid_width() {
        let mut rng = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for bins in [2usize, 6, 24, 48, 96] {
            let net = SortNetwork::new(bins);
            let mut vals: Vec<f64> = (0..bins).map(|_| next()).collect();
            // Run the network one lane wide by hand.
            for &(i, j) in &net.pairs {
                let (i, j) = (usize::from(i), usize::from(j));
                if vals[j] < vals[i] {
                    vals.swap(i, j);
                }
            }
            assert!(
                vals.windows(2).all(|w| w[0] <= w[1]),
                "network failed to sort {bins} elements"
            );
        }
    }

    #[test]
    fn batch_emd_lanes_match_scalar_kernel_bitwise() {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for bins in [24usize, 48, 96] {
            let net = SortNetwork::new(bins);
            let mut rows = vec![0.0_f64; bins * EMD_LANES];
            let mut columns = vec![vec![0.0_f64; bins]; EMD_LANES];
            for h in 0..bins {
                for (l, column) in columns.iter_mut().enumerate() {
                    let v = next();
                    rows[h * EMD_LANES + l] = v;
                    column[h] = v;
                }
            }
            // Exercise ties too: lane 7 duplicates lane 3's column.
            for h in 0..bins {
                rows[h * EMD_LANES + 7] = rows[h * EMD_LANES + 3];
                columns[7][h] = columns[3][h];
            }
            let mut out = [0.0_f64; EMD_LANES];
            net.batch_emd(&mut rows, &mut out);
            for (l, column) in columns.iter_mut().enumerate() {
                let scalar = circular_emd_of_cdf_diff_scratch(column);
                assert_eq!(out[l].to_bits(), scalar.to_bits(), "bins {bins}, lane {l}");
            }
        }
    }

    #[test]
    fn batch_min_argmin_keeps_first_minimal_zone() {
        let lanes = 11;
        let mut min = vec![i32::MAX; lanes];
        let mut arg = vec![u32::MAX; lanes];
        let rows = [
            vec![5i32, 3, 9, 7, 5, 5, 2, 8, 1, 4, 6],
            vec![5i32, 4, 2, 7, 4, 5, 2, 9, 1, 3, 6],
            vec![6i32, 3, 2, 6, 4, 5, 2, 7, 0, 3, 5],
        ];
        for (zone, row) in rows.iter().enumerate() {
            batch_min_argmin(row, zone as u32, &mut min, &mut arg);
        }
        // Per lane: the minimum, attained at the smallest zone index.
        for l in 0..lanes {
            let best = rows.iter().map(|r| r[l]).min().unwrap();
            let first = rows.iter().position(|r| r[l] == best).unwrap() as u32;
            assert_eq!(min[l], best, "lane {l}");
            assert_eq!(arg[l], first, "lane {l}");
        }
    }
}
