//! Statistical kernels for the crowdtz project.
//!
//! This crate implements, from scratch, every numerical method the paper
//! relies on:
//!
//! * [`Distribution24`] / [`Histogram24`] — 24-bin daily activity
//!   distributions (the paper's Eq. 1 & Eq. 2 objects live in
//!   `crowdtz-core`; the simplex type and its algebra live here).
//! * [`linear_emd`], [`circular_emd`], [`min_shift_emd`] — the Earth
//!   Mover's Distance (1-Wasserstein) on the line and on the circle, plus
//!   shift-minimized variants (§IV.A: *"it takes less effort to transform
//!   the single user profile into by both shifting and moving probability
//!   mass"*).
//! * [`pearson`] — Pearson correlation (used to show region profiles are
//!   near-identical up to a shift, ≈0.9 average).
//! * [`GaussianCurve`] and least-squares [`fit_gaussian`] — single-country
//!   placement fitting (§IV.A, Figures 3–5).
//! * [`GaussianMixture`] fitted by [`em`] with AIC/BIC model selection —
//!   multi-country placement (§IV.B, Figure 6).
//! * [`FitQuality`] — the point-by-point average/standard-deviation metric
//!   of Table II.
//! * [`render_bars`] / [`render_overlay`] — terminal bar charts used by the
//!   experiment harness to render every figure.

// `deny`, not `forbid`: the SIMD runtime dispatch in `kernel` carries the
// crate's only `unsafe` (calling `#[target_feature(enable = "avx2")]`
// builds of otherwise-safe loops behind a CPU check), under a scoped,
// documented allow. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod ascii;
mod descriptive;
mod dist;
mod emd;
mod error;
mod fitmetrics;
mod gaussian;
mod gmm;
mod kernel;
mod pearson;

pub use ascii::{render_bars, render_overlay, AsciiChart};
pub use descriptive::{mean, median, population_std, variance, weighted_mean, Summary};
pub use dist::{Distribution24, Histogram24, BINS};
pub use emd::{
    circular_emd, circular_emd_cdf, circular_emd_of_cdf_diff, linear_emd, linear_emd_cdf,
    min_shift_emd, shift_alignment,
};
pub use error::StatsError;
pub use fitmetrics::FitQuality;
pub use gaussian::{fit_gaussian, GaussianCurve};
pub use gmm::{
    em, select_components, EmConfig, GaussianComponent, GaussianMixture, SelectionCriterion,
};
pub use kernel::{
    batch_min_argmin, batch_quad_bounds, circular_emd_of_cdf_diff_scratch,
    circular_emd_quad_lower_bound_slice, prune_slack, quad_fold, quantize_cdf, SortNetwork,
    CDF_FIXED_SCALE, EMD_LANES,
};
pub use pearson::{pearson, pearson_matrix};
