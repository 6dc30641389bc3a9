//! The placement engine: precomputed zone-CDF kernels, a fixed-point SoA
//! batch kernel, and deterministic work-splitting parallelism for the
//! §IV.A hot path.
//!
//! [`place_user`](crate::place_user) re-materializes all 24 shifted zone
//! profiles — and re-accumulates their cumulative sums — for *every* user.
//! At the crowd sizes the ROADMAP targets (millions of users, multiplied
//! across forums) that is the dominant cost of the whole method. The
//! [`PlacementEngine`] precomputes, once per generic profile and
//! [`ZoneGrid`], every zone profile **and its CDF** (plus the uniform CDF
//! the §IV.C bot filter compares against), and places users through two
//! complementary kernels:
//!
//! * a **scalar** kernel ([`PlacementEngine::place_cdf`]) — one fused
//!   difference-and-pruning-bound sweep per zone, then exact O(n)
//!   selection ([`circular_emd_of_cdf_diff`]) in ascending-bound order;
//! * a **batch** kernel (used by [`PlacementEngine::place_all`] and the
//!   streaming refresh) — users are processed in structure-of-arrays
//!   batches of [`BATCH_USERS`]. Every CDF is folded into its quantized
//!   fixed-point quad planes (`crowdtz-stats`'s [`quad_fold`]), and the
//!   pruning lower bound for a whole lane block against each zone is one
//!   contiguous, branch-free `i32` loop ([`batch_quad_bounds`]) the
//!   compiler autovectorizes. Exact `f64` selection then runs in *waves*:
//!   every still-live lane contributes its next candidate zone to
//!   [`EMD_LANES`]-wide SIMD groups of the sorting-network EMD kernel,
//!   and lanes retire as the slack-adjusted integer bound proves no
//!   remaining zone can win.
//!
//! Quantization cannot change a result: the integer bound is only used to
//! *prune*, after subtracting a provable slack ([`prune_slack`]), so a
//! zone is skipped exactly when its true lower bound proves it cannot win.
//! The winning zone's distance is always evaluated by the same shared
//! exact kernel on the same `f64` CDF differences, and the argmin under
//! the (distance, index) order is visit-order-independent — so the batch
//! kernel, the scalar kernel, and [`place_user`](crate::place_user) are
//! all bit-identical on the hourly grid.
//!
//! # Zone grids
//!
//! The engine scans any [`ZoneGrid`]. Activity profiles stay 24-bin
//! hourly; on finer grids each user CDF is upsampled on the fly (each
//! hour's mass split evenly across the 2 or 4 sub-bins — exact power-of-
//! two divisions), and zone profiles are grid-resolution rotations of the
//! upsampled generic profile. Distances stay in **hours** of probability
//! mass: grid-bin distances are scaled by the bin width (1, 0.5 or 0.25 —
//! powers of two, so the scaling is exact and order-preserving).
//!
//! # Determinism under parallelism
//!
//! [`PlacementEngine::place_all`] splits users into fixed-size batches
//! *before* fanning batches across scoped worker threads in contiguous,
//! order-stable chunks, so batch composition — and with it every pruning
//! decision and metric — is identical for any thread count, including 1
//! (see `DESIGN.md` §9 and §14).

use std::sync::{Arc, OnceLock};

use crowdtz_stats::{
    batch_min_argmin, batch_quad_bounds, circular_emd_of_cdf_diff_scratch, prune_slack, quad_fold,
    Distribution24, SortNetwork, BINS, CDF_FIXED_SCALE, EMD_LANES,
};

use crate::generic::GenericProfile;
use crate::placement::{UserPlacement, ZoneGrid};
use crate::profile::ActivityProfile;

/// Bucket bounds for the `placement.exact_evals_per_user` histogram on the
/// hourly grid: zones per evaluated profile that reached the exact EMD
/// evaluation (of 24 total). One observation is recorded per resolved
/// profile.
pub(crate) const EXACT_EVAL_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 24];

/// Per-grid bucket bounds for `placement.exact_evals_per_user`: the hourly
/// bounds extended to the grid's zone count, so pruning effectiveness is
/// visible at the same resolution on every grid.
pub(crate) fn exact_eval_bounds(grid: ZoneGrid) -> &'static [u64] {
    match grid {
        ZoneGrid::Hourly => EXACT_EVAL_BOUNDS,
        ZoneGrid::HalfHour => &[1, 2, 3, 4, 6, 8, 12, 24, 48],
        ZoneGrid::QuarterHour => &[1, 2, 3, 4, 6, 8, 12, 24, 48, 96],
    }
}

/// Users per structure-of-arrays batch in the batch placement kernel.
///
/// Batches are carved from the input *before* work is distributed over
/// threads, so batch composition (and therefore pruning behaviour and
/// metrics) never depends on the thread count. Within a batch the exact
/// evaluations run as *waves* of [`EMD_LANES`]-wide SIMD groups (see
/// [`PlacementEngine::resolve_batch`]); a large batch keeps late waves —
/// where only the hard lanes are still alive — densely packed instead of
/// padding a mostly-idle SIMD group per 64 users. 1024 lanes keep the
/// whole working set (grid CDFs + bound matrix + its transpose) around
/// 400 KiB on the hourly grid — L2-resident on anything current.
pub(crate) const BATCH_USERS: usize = 1024;

/// Everything placement derives from one CDF: the EMD-closest zone, its
/// distance, and the §IV.C flatness verdict — a pure function of the CDF
/// (given the engine's generic profile and grid) — plus the kernel's
/// pruning accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResolvedCdf {
    /// UTC offset (minutes east) of the EMD-closest zone.
    pub(crate) zone_minutes: i32,
    /// Circular EMD to that zone, in hours of probability mass.
    pub(crate) emd: f64,
    /// Whether the profile is closer to uniform than to every zone.
    pub(crate) flat: bool,
    /// Zones that reached the exact EMD evaluation; the batch bound
    /// pruned the rest of the grid.
    exact_evals: u32,
}

/// The batch kernel's metric handles, resolved once per engine so a
/// refresh pays atomic adds, not registry lookups.
#[derive(Debug, Clone)]
pub(crate) struct KernelObs {
    /// `placement.exact_evals`: zones that reached the exact evaluation.
    exact_evals: crowdtz_obs::Counter,
    /// `placement.batch_prunes`: zones the batch bound skipped.
    batch_prunes: crowdtz_obs::Counter,
    /// `placement.exact_evals_per_user`: one observation per CDF,
    /// bucketed per grid.
    per_user: crowdtz_obs::Histogram,
}

impl KernelObs {
    pub(crate) fn new(observer: &crowdtz_obs::Observer, grid: ZoneGrid) -> KernelObs {
        KernelObs {
            exact_evals: observer.counter("placement.exact_evals"),
            batch_prunes: observer.counter("placement.batch_prunes"),
            per_user: observer.histogram("placement.exact_evals_per_user", exact_eval_bounds(grid)),
        }
    }
}

/// Lanes per L1-resident sub-block of the bound phase. Assembly, bound
/// rows and the transpose all work on one sub-block at a time, so the
/// block-local buffers (`ufolds`, `bounds`) stay a few KiB regardless of
/// [`BATCH_USERS`] — the full-batch bound matrix only ever exists in its
/// lane-major transposed form. 64 lanes are 8 AVX2 `i32x8` vectors wide,
/// enough to saturate the vectorized bound sweep.
const BOUND_BLOCK: usize = 64;

/// Per-worker reusable scratch for the SoA batch kernel — every buffer the
/// kernel touches, sized once for [`BATCH_USERS`] lanes at the engine's
/// grid width and reused across batches so the hot path never allocates.
struct BatchScratch {
    /// Lane-major grid-resolution user CDFs: `ucdfs[u*bins + h]`.
    ucdfs: Vec<f64>,
    /// Plane-row-major quantized quad folds for one [`BOUND_BLOCK`]:
    /// `ufolds[h*block + u]` over `3 · bins/4` fold rows ([`quad_fold`]).
    ufolds: Vec<i32>,
    /// One lane's fold, before the row-major scatter.
    fold: Vec<i32>,
    /// Zone-major integer bound rows for one [`BOUND_BLOCK`]:
    /// `bounds[i*block + u]`.
    bounds: Vec<i32>,
    /// Per-lane running minimal bound for one [`BOUND_BLOCK`] — folded
    /// zone by zone during the bound sweep ([`batch_min_argmin`]).
    seed_min: Vec<i32>,
    /// Zone attaining `seed_min` (smallest index on ties) — each lane's
    /// first exact-evaluation candidate, for free out of the bound phase.
    seed_idx: Vec<u32>,
    /// Lane-major bound matrix for the whole batch: `tbounds[u*bins + i]`.
    /// Consumed destructively — the candidate scan overwrites a visited
    /// zone's bound with `i32::MAX`, which both marks it visited and keeps
    /// the scan a branch-free min over the row.
    tbounds: Vec<i32>,
    /// Per-lane current candidate zone for the next wave.
    cand: Vec<u32>,
    /// Lanes still scanning, compacted in place between waves.
    live: Vec<u32>,
    /// Per-lane best exact EMD so far (grid-step units).
    best_emd: Vec<f64>,
    /// Zone index achieving `best_emd` (smallest index on ties).
    best_idx: Vec<u32>,
    /// Per-lane exact-evaluation count (the `exact_evals` metric).
    evals: Vec<u32>,
    /// Per-lane §IV.C flatness verdict.
    flat: Vec<bool>,
    /// Bin-major CDF-difference columns for one SIMD group:
    /// `rows[h*EMD_LANES + t]`.
    rows: Vec<f64>,
    /// The group's [`EMD_LANES`] exact distances.
    emds: [f64; EMD_LANES],
}

impl BatchScratch {
    fn new(bins: usize) -> BatchScratch {
        BatchScratch {
            ucdfs: vec![0.0; BATCH_USERS * bins],
            ufolds: vec![0; (3 * bins / 4) * BOUND_BLOCK],
            fold: vec![0; 3 * bins / 4],
            bounds: vec![0; bins * BOUND_BLOCK],
            seed_min: vec![0; BOUND_BLOCK],
            seed_idx: vec![0; BOUND_BLOCK],
            tbounds: vec![0; BATCH_USERS * bins],
            cand: vec![0; BATCH_USERS],
            live: Vec::with_capacity(BATCH_USERS),
            best_emd: vec![0.0; BATCH_USERS],
            best_idx: vec![0; BATCH_USERS],
            evals: vec![0; BATCH_USERS],
            flat: vec![false; BATCH_USERS],
            rows: vec![0.0; bins * EMD_LANES],
            emds: [0.0; EMD_LANES],
        }
    }
}

/// [`row_min_unvisited`] at a compile-time width, so the min reduction
/// unrolls and vectorizes instead of looping over a runtime length.
#[inline]
fn row_min_w<const N: usize>(row: &[i32; N]) -> (usize, i32) {
    let mut m = i32::MAX;
    for &b in row.iter() {
        m = m.min(b);
    }
    let mut i = 0usize;
    while i < N - 1 && row[i] != m {
        i += 1;
    }
    (i, m)
}

/// The candidate scan's one step: the unvisited (`!= i32::MAX`) zone with
/// the smallest bound, smallest index on ties — as a branch-free vector
/// min over the row followed by a first-position match, which is exactly
/// the tie rule the scalar scan's strict `<` implements. Returns
/// `None` once every zone is visited (real bounds never reach `i32::MAX`:
/// they are at most `bins · 2 ·` [`CDF_FIXED_SCALE`] plus slack).
#[inline]
fn row_min_unvisited(row: &[i32]) -> Option<(usize, i32)> {
    let (i, m) = match row.len() {
        24 => row_min_w::<24>(row.try_into().expect("len checked")),
        48 => row_min_w::<48>(row.try_into().expect("len checked")),
        96 => row_min_w::<96>(row.try_into().expect("len checked")),
        _ => {
            let m = row.iter().copied().min().unwrap_or(i32::MAX);
            (row.iter().position(|&b| b == m).unwrap_or(0), m)
        }
    };
    if m == i32::MAX {
        return None;
    }
    Some((i, m))
}

/// The machine's available parallelism (1 if that cannot be
/// determined), read once per process:
/// [`std::thread::available_parallelism`] re-reads the cgroup CPU quota
/// each time, at microseconds a call, and every parallel map and shard
/// fan-out asks for it.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of worker threads to use by default: the `CROWDTZ_THREADS`
/// environment variable when set to a positive integer (read on every
/// call), otherwise the machine's available parallelism (1 if that
/// cannot be determined).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CROWDTZ_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    host_parallelism()
}

/// Clamps a requested worker count to the machine's available parallelism
/// (and to at least 1).
///
/// Oversubscribing CPU-bound workers never helps and measurably hurts on
/// small hosts (a 1-CPU container running "4 threads" pays spawn and
/// scheduling cost for zero parallelism — the 0.92× bootstrap regression in
/// `BENCH_placement.json`). Results are unaffected: every parallel path in
/// this workspace is byte-identical for any thread count (DESIGN.md §9),
/// so the clamp is purely a performance guard. Benches record both the
/// requested and the effective (clamped) count.
pub fn clamped_threads(requested: usize) -> usize {
    requested.max(1).min(host_parallelism())
}

/// Maps `items` through `map` on up to `threads` scoped worker threads,
/// preserving input order.
///
/// Items are split into contiguous chunks, one per thread, and each
/// worker writes its chunk's results into the output the calling thread
/// allocated ([`fill_rows`]), so for a pure `map` the output is identical
/// for every thread count. Used by placement, polishing, and the
/// streaming refresh.
///
/// Each call with more than one worker spawns and joins its threads,
/// which costs on the order of 100 µs of CPU — more than a cheap `map`
/// over a few hundred items. Callers with small per-item work cap
/// `threads` themselves: the streaming refresh runs at most one worker
/// per [`BATCH_USERS`] dirty users, so a small refresh stays on the
/// calling thread, as its kernel pass does.
pub(crate) fn chunked_map<T, U, F>(items: &[T], threads: usize, map: F) -> Vec<U>
where
    T: Sync,
    U: Clone + Default + Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = vec![U::default(); items.len()];
    fill_rows(
        items,
        &mut out,
        1,
        threads,
        || (),
        |_, items, rows| {
            for (item, row) in items.iter().zip(rows) {
                *row = map(item);
            }
        },
    );
    out
}

/// Fills `out`, one row per item of `items`, on up to `threads` scoped
/// workers: items and rows split into contiguous runs of whole
/// `granule`s, and each run is filled by `fill` with its own scratch.
///
/// Workers write only into memory the caller owns: `out`, and the
/// scratches `init` builds on the calling thread before any worker
/// starts. So a worker allocates nothing that outlives it — the
/// allocator keeps what a thread allocated in that thread's arena,
/// resident after the thread exits. A single run stays on the calling
/// thread. For a pure `fill` the rows are identical for every thread
/// count.
pub(crate) fn fill_rows<T, U, S, I, F>(
    items: &[T],
    out: &mut [U],
    granule: usize,
    threads: usize,
    init: I,
    fill: F,
) where
    T: Sync,
    U: Send,
    S: Send,
    I: Fn() -> S,
    F: Fn(&mut S, &[T], &mut [U]) + Sync,
{
    debug_assert_eq!(items.len(), out.len());
    if items.is_empty() {
        return;
    }
    let granules = items.len().div_ceil(granule);
    let threads = clamped_threads(threads).min(granules);
    if threads == 1 {
        fill(&mut init(), items, out);
        return;
    }
    let run = granules.div_ceil(threads) * granule;
    let mut scratch: Vec<S> = (0..threads).map(|_| init()).collect();
    let fill = &fill;
    crossbeam::thread::scope(|scope| {
        for ((items, out), scratch) in items.chunks(run).zip(out.chunks_mut(run)).zip(&mut scratch)
        {
            scope.spawn(move |_| fill(scratch, items, out));
        }
    })
    .expect("thread scope failed");
}

/// Like [`chunked_map`], but each worker thread carries a reusable scratch
/// value built by `init`, and each item may emit any number of outputs by
/// appending to the worker's output vector.
///
/// Output order is (chunk order, item order within the chunk, append order
/// within the item) — i.e. exactly the order a sequential
/// `for item in items { fill(&mut scratch, item, &mut out) }` loop would
/// produce — so for a pure `fill` the result is byte-identical for every
/// thread count. Used where a per-item allocation would dominate (the
/// bootstrap's resample buffers, profile slot scratch).
pub(crate) fn chunked_map_with<T, U, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    fill: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, &mut Vec<U>) + Sync,
{
    let threads = clamped_threads(threads).min(items.len().max(1));
    if threads == 1 {
        let mut scratch = init();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            fill(&mut scratch, item, &mut out);
        }
        return out;
    }
    let chunk_len = items.len().div_ceil(threads);
    let init = &init;
    let fill = &fill;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut out = Vec::with_capacity(chunk.len());
                    for item in chunk {
                        fill(&mut scratch, item, &mut out);
                    }
                    out
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("worker thread panicked"));
        }
        out
    })
    .expect("thread scope failed")
}

/// Precomputed placement state for one generic profile on one [`ZoneGrid`].
///
/// ```
/// use crowdtz_core::{place_user, GenericProfile, PlacementEngine};
/// # use crowdtz_core::ActivityProfile;
/// use crowdtz_time::{Timestamp, TzOffset, UserTrace};
///
/// let engine = PlacementEngine::new(&GenericProfile::reference());
/// let trace = UserTrace::new("u", (0..40).map(|i| Timestamp::from_secs(i * 90_000)).collect());
/// let profile = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
/// // Bit-identical to the naive per-call path.
/// assert_eq!(engine.place(&profile), place_user(&profile, engine.generic()));
/// ```
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    generic: GenericProfile,
    grid: ZoneGrid,
    /// CDF of the zone profile at grid index `i`, flattened zone-major:
    /// `zone_cdfs[i * bins .. (i + 1) * bins]` (index `i` ↔ offset
    /// [`ZoneGrid::minutes_of`]`(i)`).
    zone_cdfs: Vec<f64>,
    /// Quantized quad folds of each zone CDF, flattened zone-major
    /// (`3 · bins / 4` words per zone, see [`quad_fold`]) — the
    /// fixed-point side of the batch pruning bound.
    zone_folds: Vec<i32>,
    /// CDF of the uniform profile at grid resolution, for the §IV.C
    /// flatness check.
    uniform_cdf: Vec<f64>,
    /// The grid-width compare-exchange schedule driving the lane-parallel
    /// exact EMD kernel ([`SortNetwork::batch_emd`]).
    net: SortNetwork,
}

impl PlacementEngine {
    /// Precomputes the 24 hourly zone profiles and their CDFs — the
    /// paper's grid and the serde-compatible default.
    pub fn new(generic: &GenericProfile) -> PlacementEngine {
        PlacementEngine::with_grid(generic, ZoneGrid::Hourly)
    }

    /// Precomputes every zone profile of `grid` and its CDF.
    ///
    /// The generic profile stays 24-bin hourly; on finer grids each
    /// hour's probability mass is split evenly across the grid's sub-bins
    /// (an exact power-of-two division), and zone `i`'s profile is the
    /// upsampled local curve rotated by `i` grid bins.
    pub fn with_grid(generic: &GenericProfile, grid: ZoneGrid) -> PlacementEngine {
        let bins = grid.zones();
        let per = grid.per_hour();
        let inv = 1.0 / per as f64;
        // Upsampled local and uniform profiles at grid resolution.
        let mut local = vec![0.0_f64; bins];
        let mut uniform = vec![0.0_f64; bins];
        let local24 = generic.distribution();
        let uniform24 = Distribution24::uniform();
        for h in 0..BINS {
            let lw = local24.get(h) * inv;
            let uw = uniform24.get(h) * inv;
            for j in 0..per {
                local[h * per + j] = lw;
                uniform[h * per + j] = uw;
            }
        }
        let mut zone_cdfs = vec![0.0_f64; bins * bins];
        let fw = 3 * bins / 4;
        let mut zone_folds = vec![0i32; bins * fw];
        for i in 0..bins {
            // Zone i's profile in UTC bins: local activity shifted so that
            // UTC bin b reads the local curve at b + offset(i) — the same
            // rotation `GenericProfile::zone_profile` applies hourly.
            let units = i as i32 - (11 * per) as i32;
            let cdf = &mut zone_cdfs[i * bins..(i + 1) * bins];
            let mut acc = 0.0_f64;
            for (b, slot) in cdf.iter_mut().enumerate() {
                let src = (b as i32 + units).rem_euclid(bins as i32) as usize;
                acc += local[src];
                *slot = acc;
            }
            quad_fold(cdf, &mut zone_folds[i * fw..(i + 1) * fw]);
        }
        let mut uniform_cdf = vec![0.0_f64; bins];
        let mut acc = 0.0_f64;
        for (slot, &v) in uniform_cdf.iter_mut().zip(uniform.iter()) {
            acc += v;
            *slot = acc;
        }
        PlacementEngine {
            generic: generic.clone(),
            grid,
            zone_cdfs,
            zone_folds,
            uniform_cdf,
            net: SortNetwork::new(bins),
        }
    }

    /// The generic profile the engine was built from.
    pub fn generic(&self) -> &GenericProfile {
        &self.generic
    }

    /// The zone grid this engine scans.
    pub fn grid(&self) -> ZoneGrid {
        self.grid
    }

    /// Grid-bin width in hours (1, 0.5 or 0.25) — the exact power-of-two
    /// factor that converts bin-unit EMDs to hours.
    fn step_hours(&self) -> f64 {
        f64::from(self.grid.step_minutes()) / 60.0
    }

    /// Upsamples a 24-bin hourly CDF to grid resolution: each hour's mass
    /// is spread evenly over its sub-bins. At `per_hour == 1` this is a
    /// plain copy, so the hourly grid is bit-transparent.
    fn upsample_cdf(&self, cdf24: &[f64; BINS], out: &mut [f64]) {
        let per = self.grid.per_hour();
        if per == 1 {
            out.copy_from_slice(cdf24);
            return;
        }
        let inv = 1.0 / per as f64;
        let mut acc = 0.0_f64;
        let mut prev = 0.0_f64;
        for (h, &c) in cdf24.iter().enumerate() {
            let step = (c - prev) * inv;
            prev = c;
            for j in 0..per {
                acc += step;
                out[h * per + j] = acc;
            }
        }
    }

    /// The exact circular EMD (in grid-bin units) between a grid CDF and
    /// zone `i`, via the shared partition kernel on freshly computed
    /// `f64` differences.
    fn exact_zone_emd(&self, ucdf: &[f64], zone: usize, diffs: &mut [f64]) -> f64 {
        let bins = ucdf.len();
        let zcdf = &self.zone_cdfs[zone * bins..(zone + 1) * bins];
        for ((d, &u), &z) in diffs.iter_mut().zip(ucdf.iter()).zip(zcdf.iter()) {
            *d = u - z;
        }
        circular_emd_of_cdf_diff_scratch(diffs)
    }

    /// Scalar grid scan: the same quantized quad bounds as the batch
    /// kernel (one lane wide), with exact selection in ascending-bound
    /// order. Returns `(zone index, emd in bin units, exact evals)`.
    ///
    /// Pruning decisions use the slack-protected integer bound, never the
    /// quad bound summed in `f64`: the float sum is only a real-arithmetic
    /// lower bound and can land a few ulps *above* the exact EMD, which
    /// on the dense 48/96-zone grids is enough to mis-prune a near-tied
    /// winner. The integer bound minus [`prune_slack`] is a true lower
    /// bound in `f64`, so the scalar and batch kernels provably select
    /// the same argmin under `(emd, zone index)`.
    fn scan_cdf_grid(&self, ucdf: &[f64]) -> (usize, f64, u32) {
        let bins = ucdf.len();
        let fw = 3 * bins / 4;
        let slack = prune_slack(bins);
        let mut fold = vec![0i32; fw];
        quad_fold(ucdf, &mut fold);
        let mut bounds = vec![0i32; bins];
        for i in 0..bins {
            batch_quad_bounds(
                &fold,
                &self.zone_folds[i * fw..(i + 1) * fw],
                1,
                &mut bounds[i..=i],
            );
        }
        let mut diffs = vec![0.0_f64; bins];
        let mut visited = vec![false; bins];
        let mut exact_evals = 0u32;
        let mut best_idx = usize::MAX;
        let mut best_emd = f64::INFINITY;
        loop {
            // Unvisited zone with the smallest bound; strict < keeps the
            // smallest index on ties.
            let mut i = usize::MAX;
            let mut min_bound = i32::MAX;
            for (j, &b) in bounds.iter().enumerate() {
                if !visited[j] && b < min_bound {
                    min_bound = b;
                    i = j;
                }
            }
            if i == usize::MAX {
                break;
            }
            let lower = f64::from(min_bound - slack) / CDF_FIXED_SCALE;
            if lower > best_emd {
                break;
            }
            visited[i] = true;
            // An equal-bound zone with a larger index can at best tie,
            // and ties go to the smaller index — skip the exact pass.
            if lower >= best_emd && i > best_idx {
                continue;
            }
            let d = self.exact_zone_emd(ucdf, i, &mut diffs);
            exact_evals += 1;
            if d < best_emd || (d == best_emd && i < best_idx) {
                best_emd = d;
                best_idx = i;
            }
        }
        (best_idx, best_emd, exact_evals)
    }

    /// Places a precomputed 24-bin user CDF through the scalar kernel,
    /// returning `(offset minutes east, emd in hours)`.
    pub fn place_cdf_minutes(&self, user_cdf: &[f64; BINS]) -> (i32, f64) {
        let mut ucdf = vec![0.0_f64; self.grid.zones()];
        self.upsample_cdf(user_cdf, &mut ucdf);
        let (idx, emd_bins, _) = self.scan_cdf_grid(&ucdf);
        (self.grid.minutes_of(idx), emd_bins * self.step_hours())
    }

    /// Places a precomputed 24-bin user CDF: the EMD-closest zone (whole
    /// hours, truncated towards zero on fractional grids) and its
    /// distance in hours.
    pub fn place_cdf(&self, user_cdf: &[f64; BINS]) -> (i32, f64) {
        let (minutes, emd) = self.place_cdf_minutes(user_cdf);
        (minutes / 60, emd)
    }

    /// Places a bare hourly distribution (UTC hours), like
    /// [`place_distribution`](crate::place_distribution) but against the
    /// precomputed zone CDFs.
    pub fn place_distribution(&self, distribution: &Distribution24) -> (i32, f64) {
        self.place_cdf(&distribution.cdf())
    }

    /// Places one user — bit-identical to
    /// [`place_user`](crate::place_user) with the same generic profile on
    /// the hourly grid; on finer grids the placement carries the
    /// fractional offset (see [`UserPlacement::offset_minutes`]).
    pub fn place(&self, profile: &ActivityProfile) -> UserPlacement {
        let (minutes, emd) = self.place_cdf_minutes(&profile.distribution().cdf());
        UserPlacement::from_offset_minutes(Arc::clone(profile.id()), minutes, emd)
    }

    /// The SoA batch kernel: resolves up to [`BATCH_USERS`] 24-bin CDFs
    /// at once through wave-scheduled, fixed-width SIMD evaluation.
    ///
    /// Phases, all deterministic in the input order:
    ///
    /// 1. **Assembly** — every CDF is upsampled to grid resolution
    ///    (lane-major) and folded into its quantized quad planes
    ///    ([`quad_fold`]) laid out fold-row-major across lanes.
    /// 2. **Bounds** — each zone costs one contiguous integer
    ///    [`batch_quad_bounds`] sweep over all lanes of one
    ///    [`BOUND_BLOCK`]; the same pass folds a running
    ///    [`batch_min_argmin`], so every lane leaves the sweep knowing
    ///    its smallest-indexed minimal-bound zone — exactly the first
    ///    candidate the scalar scan would pick. An in-cache transpose
    ///    then lays the bound matrix out lane-major for the candidate
    ///    scans.
    /// 3. **Waves** — each live lane holds one candidate zone per wave.
    ///    The wave's (lane, zone) tasks are packed into [`EMD_LANES`]-wide
    ///    groups and evaluated by the lane-parallel exact kernel
    ///    ([`SortNetwork::batch_emd`]): gather the CDF differences
    ///    column-per-task, sort all columns at once with the branch-free
    ///    compare-exchange network, reduce by in-order half sums. Between
    ///    waves each lane advances to its next unvisited zone in ascending
    ///    (integer bound, index) order, stopping — or tie-skipping —
    ///    under exactly the scalar scan's slack-adjusted rules, so the
    ///    per-lane evaluation *sequence* (and with it `exact_evals`) is
    ///    identical to [`Self::scan_cdf_grid`] on the same CDF. Groups
    ///    always run at full width; tail columns beyond the wave's tasks
    ///    are sorted as garbage and ignored, which costs nothing extra
    ///    because the kernel's cost is fixed per group.
    ///
    /// The winner is the argmin under (distance, zone index), and every
    /// exact distance comes from the shared sorted-half-sums kernel — so
    /// batch, scalar, and [`place_user`](crate::place_user) placements
    /// are bit-identical (`engine_proptests` pins this per grid, thread
    /// count, and shard count).
    fn resolve_batch(
        &self,
        cdfs: &[[f64; BINS]],
        with_flat: bool,
        s: &mut BatchScratch,
        out: &mut [ResolvedCdf],
    ) {
        let bins = self.grid.zones();
        let fw = 3 * bins / 4;
        let lanes = cdfs.len();
        debug_assert!(lanes <= BATCH_USERS);
        if lanes == 0 {
            return;
        }
        let slack = prune_slack(bins);
        let step_hours = self.step_hours();
        // On the hourly grid the "upsampled" CDF is the input CDF itself,
        // so the exact path gathers straight from `cdfs` and the lane-major
        // copy is skipped entirely.
        let hourly = self.grid.per_hour() == 1;
        let BatchScratch {
            ucdfs,
            ufolds,
            fold,
            bounds,
            seed_min,
            seed_idx,
            tbounds,
            cand,
            live,
            best_emd,
            best_idx,
            evals,
            flat,
            rows,
            emds,
        } = s;
        let (ucdfs, fold) = (&mut ucdfs[..], &mut fold[..]);
        let (tbounds, cand) = (&mut tbounds[..], &mut cand[..]);
        let (best_emd, best_idx) = (&mut best_emd[..], &mut best_idx[..]);
        let (evals, flat, rows) = (&mut evals[..], &mut flat[..], &mut rows[..]);
        let zone_cdfs = &self.zone_cdfs[..];
        fn ucdf_of<'a>(
            hourly: bool,
            cdfs: &'a [[f64; BINS]],
            ucdfs: &'a [f64],
            bins: usize,
            u: usize,
        ) -> &'a [f64] {
            if hourly {
                &cdfs[u]
            } else {
                &ucdfs[u * bins..(u + 1) * bins]
            }
        }

        // Phases 1+2, one L1-resident sub-block at a time: SoA assembly
        // (grid CDFs lane-major for the exact path, quantized folds
        // pair-major for the bound path), then the vectorized integer
        // bound sweep per zone, then an in-cache transpose into the
        // batch-wide lane-major bound matrix the candidate scans walk.
        let mut b0 = 0usize;
        while b0 < lanes {
            let bw = BOUND_BLOCK.min(lanes - b0);
            for u in 0..bw {
                if hourly {
                    quad_fold(&cdfs[b0 + u], fold);
                } else {
                    let ucdf = &mut ucdfs[(b0 + u) * bins..(b0 + u + 1) * bins];
                    self.upsample_cdf(&cdfs[b0 + u], ucdf);
                    quad_fold(ucdf, fold);
                }
                for (h, &v) in fold.iter().enumerate() {
                    ufolds[h * bw + u] = v;
                }
            }
            let smin = &mut seed_min[..bw];
            let sidx = &mut seed_idx[..bw];
            smin.fill(i32::MAX);
            for i in 0..bins {
                let row = &mut bounds[i * bw..(i + 1) * bw];
                row.fill(0);
                batch_quad_bounds(
                    &ufolds[..fw * bw],
                    &self.zone_folds[i * fw..(i + 1) * fw],
                    bw,
                    row,
                );
                // Fold the running per-lane (min bound, smallest zone)
                // while the row is still in cache — each lane leaves the
                // sweep knowing its first exact candidate, exactly the
                // zone the scalar scan's strict-< pass would pick.
                batch_min_argmin(row, i as u32, smin, sidx);
            }
            for u in 0..bw {
                let trow = &mut tbounds[(b0 + u) * bins..(b0 + u + 1) * bins];
                for (i, slot) in trow.iter_mut().enumerate() {
                    *slot = bounds[i * bw + u];
                }
                // Mark the seed visited now, while the row is hot.
                trow[sidx[u] as usize] = i32::MAX;
                cand[b0 + u] = sidx[u];
            }
            b0 += bw;
        }

        // Phase 3: wave-scheduled exact evaluation. Wave 1 is every lane
        // against its bound-argmin zone — already folded out of the bound
        // sweep (and marked visited) above; the scalar scan evaluates the
        // same zone unconditionally as its first candidate, since every
        // bound beats an infinite best.
        live.clear();
        for u in 0..lanes {
            best_emd[u] = f64::INFINITY;
            best_idx[u] = u32::MAX;
            evals[u] = 0;
            live.push(u as u32);
        }
        while !live.is_empty() {
            let groups = live.len().div_ceil(EMD_LANES);
            for g in 0..groups {
                let hi = ((g + 1) * EMD_LANES).min(live.len());
                // Gather one difference column per task; columns past the
                // group's end keep the previous group's (finite) values
                // and their results are never read.
                for (col, &lu) in live[g * EMD_LANES..hi].iter().enumerate() {
                    let u = lu as usize;
                    let zone = cand[u] as usize;
                    let ucdf = ucdf_of(hourly, cdfs, ucdfs, bins, u);
                    let zcdf = &zone_cdfs[zone * bins..(zone + 1) * bins];
                    for h in 0..bins {
                        rows[h * EMD_LANES + col] = ucdf[h] - zcdf[h];
                    }
                }
                self.net.batch_emd(rows, emds);
                for (col, &lu) in live[g * EMD_LANES..hi].iter().enumerate() {
                    let u = lu as usize;
                    let d = emds[col];
                    let i = cand[u];
                    evals[u] += 1;
                    if d < best_emd[u] || (d == best_emd[u] && i < best_idx[u]) {
                        best_emd[u] = d;
                        best_idx[u] = i;
                    }
                }
            }
            // Advance every live lane to its next candidate — the scalar
            // scan's selection loop, one step per lane: ascending
            // (bound, index), prune-stop when even the slack-adjusted
            // bound cannot win, tie-skip equal-bound zones with larger
            // indices.
            let mut kept = 0usize;
            for r in 0..live.len() {
                let u = live[r] as usize;
                let trow = &mut tbounds[u * bins..(u + 1) * bins];
                let mut keep = false;
                while let Some((min_i, min_b)) = row_min_unvisited(trow) {
                    // Conservative: after the slack, the integer bound is
                    // a true lower bound, so a pruned zone can neither
                    // beat nor tie the best.
                    let lower = f64::from(min_b - slack) / CDF_FIXED_SCALE;
                    if lower > best_emd[u] {
                        break;
                    }
                    trow[min_i] = i32::MAX;
                    // An equal-bound zone with a larger index can at best
                    // tie, and ties go to the smaller index — skip the
                    // exact pass but keep scanning.
                    if lower >= best_emd[u] && min_i as u32 > best_idx[u] {
                        continue;
                    }
                    cand[u] = min_i as u32;
                    keep = true;
                    break;
                }
                if keep {
                    live[kept] = u as u32;
                    kept += 1;
                }
            }
            live.truncate(kept);
        }

        // §IV.C flatness, batched the same way: one full-width wave of
        // every lane against the uniform CDF.
        if with_flat {
            for g in 0..lanes.div_ceil(EMD_LANES) {
                let hi = ((g + 1) * EMD_LANES).min(lanes);
                for u in g * EMD_LANES..hi {
                    let ucdf = ucdf_of(hourly, cdfs, ucdfs, bins, u);
                    let col = u - g * EMD_LANES;
                    for h in 0..bins {
                        rows[h * EMD_LANES + col] = ucdf[h] - self.uniform_cdf[h];
                    }
                }
                self.net.batch_emd(rows, emds);
                for u in g * EMD_LANES..hi {
                    flat[u] = emds[u - g * EMD_LANES] < best_emd[u];
                }
            }
        } else {
            flat[..lanes].fill(false);
        }

        for (u, row) in out.iter_mut().enumerate() {
            *row = ResolvedCdf {
                zone_minutes: self.grid.minutes_of(best_idx[u] as usize),
                emd: best_emd[u] * step_hours,
                flat: flat[u],
                exact_evals: evals[u],
            };
        }
    }

    /// Resolves any number of CDFs through the batch kernel, fanning
    /// fixed-size batches across `threads` workers with one reusable
    /// [`BatchScratch`] per worker ([`fill_rows`]: the rows and the
    /// scratches are the caller's). Batches are carved before threading,
    /// so outcomes (including pruning counts) are byte-identical for
    /// every thread count.
    fn resolve_batches(
        &self,
        cdfs: &[[f64; BINS]],
        threads: usize,
        with_flat: bool,
    ) -> Vec<ResolvedCdf> {
        let mut out = vec![ResolvedCdf::default(); cdfs.len()];
        fill_rows(
            cdfs,
            &mut out,
            BATCH_USERS,
            threads,
            || BatchScratch::new(self.grid.zones()),
            |scratch, cdfs, out| {
                for (batch, rows) in cdfs.chunks(BATCH_USERS).zip(out.chunks_mut(BATCH_USERS)) {
                    self.resolve_batch(batch, with_flat, scratch, rows);
                }
            },
        );
        out
    }

    /// Places every profile through the SoA batch kernel, fanning the
    /// work across `threads` scoped worker threads with order-stable
    /// chunked reduction. The result is byte-identical for any thread
    /// count — and, on the hourly grid, to the scalar
    /// [`place`](Self::place) per profile.
    pub fn place_all(&self, profiles: &[ActivityProfile], threads: usize) -> Vec<UserPlacement> {
        let cdfs: Vec<[f64; BINS]> = chunked_map(profiles, threads, |p| p.distribution().cdf());
        let outcomes = self.resolve_batches(&cdfs, threads, false);
        profiles
            .iter()
            .zip(outcomes)
            .map(|(p, o)| {
                UserPlacement::from_offset_minutes(Arc::clone(p.id()), o.zone_minutes, o.emd)
            })
            .collect()
    }

    /// Resolves user CDFs — placement, EMD and the §IV.C flatness verdict
    /// per CDF, in input order — through the SoA batch kernel on
    /// `threads` workers. Every CDF is scanned; the outcomes are
    /// byte-identical for every thread count.
    ///
    /// Observability (when `obs` is attached): the kernel's pruning
    /// accounting ([`KernelObs`]).
    pub(crate) fn resolve_cdfs(
        &self,
        cdfs: &[[f64; BINS]],
        threads: usize,
        obs: Option<&KernelObs>,
    ) -> Vec<ResolvedCdf> {
        let resolved = self.resolve_batches(cdfs, threads, true);
        if let Some(obs) = obs {
            let mut evals = 0u64;
            for r in &resolved {
                evals += u64::from(r.exact_evals);
                obs.per_user.observe(u64::from(r.exact_evals));
            }
            let zones = (self.grid.zones() * resolved.len()) as u64;
            obs.exact_evals.add(evals);
            obs.batch_prunes.add(zones - evals);
        }
        resolved
    }

    /// The §IV.C flatness test: whether `distribution` is circular-EMD
    /// closer to the uniform profile than to every zone profile.
    ///
    /// Decision-identical to the naive check in [`crate::polish`] (both
    /// sides evaluate the shared exact kernel, and the bin-to-hour
    /// scaling is an exact power of two so the comparison is unchanged),
    /// but the uniform CDF is precomputed and the zone scan reuses the
    /// pruned placement kernel.
    pub fn is_flat(&self, distribution: &Distribution24) -> bool {
        let bins = self.grid.zones();
        let mut ucdf = vec![0.0_f64; bins];
        self.upsample_cdf(&distribution.cdf(), &mut ucdf);
        let (_, best_zone_emd, _) = self.scan_cdf_grid(&ucdf);
        let mut diffs = vec![0.0_f64; bins];
        for ((d, &u), &z) in diffs
            .iter_mut()
            .zip(ucdf.iter())
            .zip(self.uniform_cdf.iter())
        {
            *d = u - z;
        }
        circular_emd_of_cdf_diff_scratch(&mut diffs) < best_zone_emd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_user;
    use crowdtz_time::{Timestamp, TzOffset, UserTrace};

    fn profile_from_hours(name: &str, weights: &[(u8, usize)]) -> ActivityProfile {
        let mut posts = Vec::new();
        let mut day = 0i64;
        for &(hour, times) in weights {
            for _ in 0..times {
                posts.push(Timestamp::from_secs(day * 86_400 + i64::from(hour) * 3_600));
                day += 1;
            }
        }
        ActivityProfile::from_trace_offset(&UserTrace::new(name, posts), TzOffset::UTC).unwrap()
    }

    #[test]
    fn engine_matches_naive_place_user() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let shapes: Vec<ActivityProfile> = vec![
            profile_from_hours("a", &[(21, 10), (20, 6), (9, 3)]),
            profile_from_hours("b", &[(3, 8), (4, 8), (15, 2)]),
            profile_from_hours("c", &[(0, 5), (23, 5), (12, 5)]),
            profile_from_hours("flatish", &(0..24).map(|h| (h, 2)).collect::<Vec<_>>()),
        ];
        for p in &shapes {
            let naive = place_user(p, &generic);
            let fast = engine.place(p);
            assert_eq!(naive, fast, "user {}", p.user());
        }
    }

    #[test]
    fn batch_kernel_matches_scalar_on_every_grid() {
        let generic = GenericProfile::reference();
        let profiles: Vec<ActivityProfile> = (0..83)
            .map(|i| {
                profile_from_hours(
                    &format!("u{i:03}"),
                    &[((i % 24) as u8, 8), (((i * 7) % 24) as u8, 4)],
                )
            })
            .collect();
        for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
            let engine = PlacementEngine::with_grid(&generic, grid);
            let batch = engine.place_all(&profiles, 1);
            for (p, b) in profiles.iter().zip(&batch) {
                let scalar = engine.place(p);
                assert_eq!(&scalar, b, "{grid}, user {}", p.user());
            }
        }
    }

    #[test]
    fn place_all_is_order_stable_across_thread_counts() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let profiles: Vec<ActivityProfile> = (0..37)
            .map(|i| {
                profile_from_hours(
                    &format!("u{i:03}"),
                    &[((i % 24) as u8, 8), (((i * 7) % 24) as u8, 4)],
                )
            })
            .collect();
        let one = engine.place_all(&profiles, 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                one,
                engine.place_all(&profiles, threads),
                "{threads} threads"
            );
        }
        // Order matches input order.
        for (p, placed) in profiles.iter().zip(&one) {
            assert_eq!(p.user(), placed.user());
        }
    }

    #[test]
    fn quarter_grid_emd_never_exceeds_hourly_emd() {
        // Finer grids add candidate zones (every hourly zone is also a
        // quarter-hour zone with a bit-identical profile), so the best
        // distance can only improve.
        let generic = GenericProfile::reference();
        let hourly = PlacementEngine::new(&generic);
        let quarter = PlacementEngine::with_grid(&generic, ZoneGrid::QuarterHour);
        for i in 0..24u8 {
            let p = profile_from_hours("u", &[(i, 9), ((i + 3) % 24, 4)]);
            let coarse = hourly.place(&p);
            let fine = quarter.place(&p);
            assert!(
                fine.emd() <= coarse.emd() + 1e-12,
                "hour {i}: {} > {}",
                fine.emd(),
                coarse.emd()
            );
        }
    }

    #[test]
    fn is_flat_matches_naive_comparison() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let uniform = Distribution24::uniform();
        for dist in [
            Distribution24::uniform(),
            Distribution24::delta(21).mix(&uniform, 0.3),
            uniform.mix(&Distribution24::delta(13), 0.05),
            generic.zone_profile(3),
        ] {
            let naive_best = (-11..=12)
                .map(|k| crowdtz_stats::circular_emd(&dist, &generic.zone_profile(k)))
                .fold(f64::INFINITY, f64::min);
            let naive_flat = crowdtz_stats::circular_emd(&dist, &uniform) < naive_best;
            assert_eq!(engine.is_flat(&dist), naive_flat);
        }
    }

    #[test]
    fn empty_input_and_single_thread_edge_cases() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        assert!(engine.place_all(&[], 4).is_empty());
        let one = vec![profile_from_hours("solo", &[(21, 9)])];
        assert_eq!(engine.place_all(&one, 16).len(), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_cdfs_matches_the_direct_kernels() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let profiles = [
            profile_from_hours("a", &[(21, 10), (20, 6), (9, 3)]),
            profile_from_hours("b", &[(3, 8), (4, 8), (15, 2)]),
            profile_from_hours("flatish", &(0..24).map(|h| (h, 2)).collect::<Vec<_>>()),
        ];
        let order = [0usize, 0, 1, 2];
        let cdfs: Vec<[f64; BINS]> = order
            .iter()
            .map(|&i| profiles[i].distribution().cdf())
            .collect();
        for threads in [1usize, 4] {
            let resolved = engine.resolve_cdfs(&cdfs, threads, None);
            assert_eq!(resolved.len(), cdfs.len());
            for (r, i) in resolved.iter().zip(order) {
                let cdf = profiles[i].distribution().cdf();
                let (minutes, e) = engine.place_cdf_minutes(&cdf);
                assert_eq!(r.zone_minutes, minutes);
                assert_eq!(r.emd.to_bits(), e.to_bits());
                assert_eq!(r.flat, engine.is_flat(&profiles[i].distribution()));
            }
        }
    }

    #[test]
    fn resolve_cdfs_is_grid_aware_and_thread_invariant() {
        let engine =
            PlacementEngine::with_grid(&GenericProfile::reference(), ZoneGrid::QuarterHour);
        let cdfs: Vec<[f64; BINS]> = (0..7)
            .map(|i| {
                profile_from_hours(&format!("u{i}"), &[((i * 5 % 24) as u8, 9), (2, 3)])
                    .distribution()
                    .cdf()
            })
            .collect();
        let two = engine.resolve_cdfs(&cdfs, 2, None);
        let one = engine.resolve_cdfs(&cdfs, 1, None);
        for ((a, b), cdf) in two.iter().zip(&one).zip(&cdfs) {
            assert_eq!(a.zone_minutes, b.zone_minutes);
            assert_eq!(a.emd.to_bits(), b.emd.to_bits());
            assert_eq!(a.flat, b.flat);
            let (minutes, e) = engine.place_cdf_minutes(cdf);
            assert_eq!(a.zone_minutes, minutes);
            assert_eq!(a.emd.to_bits(), e.to_bits());
            // Quarter-hour zones carry minute-resolution offsets.
            assert_eq!(a.zone_minutes % 15, 0);
        }
    }

    #[test]
    fn chunked_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let doubled = chunked_map(&items, 7, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn clamped_threads_bounds() {
        assert_eq!(clamped_threads(0), 1);
        assert!(clamped_threads(1) == 1);
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(clamped_threads(10_000), available);
    }

    #[test]
    fn chunked_map_with_matches_sequential_multi_output() {
        let items: Vec<usize> = (0..53).collect();
        // Each item emits `i % 3` outputs through a reused scratch buffer.
        let run = |threads| {
            chunked_map_with(
                &items,
                threads,
                Vec::<usize>::new,
                |scratch, &i, out: &mut Vec<usize>| {
                    scratch.clear();
                    scratch.extend((0..i % 3).map(|j| i * 10 + j));
                    out.extend_from_slice(scratch);
                },
            )
        };
        let one = run(1);
        for threads in [2, 5, 64] {
            assert_eq!(one, run(threads), "{threads} threads");
        }
        assert!(chunked_map_with(
            &[] as &[usize],
            4,
            || (),
            |_, _, out: &mut Vec<usize>| {
                out.push(0);
            }
        )
        .is_empty());
    }
}
