//! Gaussian mixture models fitted by Expectation–Maximization.
//!
//! §IV.B of the paper: multi-country crowds produce placement histograms
//! that follow a *mixture* of Gaussians, one per region. The number of
//! regions is unknown a priori, so EM is run for increasing component
//! counts ([`sweep_components`]) and the best model is chosen by an
//! information criterion ([`SelectionCriterion`]). EM is initialized with
//! the σ observed empirically on single-region placements, exactly as the
//! paper prescribes (and can hold it fixed via [`EmConfig::fixed_sigma`]).
//!
//! Every run is accelerated by SQUAREM (Varadhan & Roland 2008) with a
//! monotone log-likelihood safeguard and stops once an EM step barely
//! moves the parameters; a second start is dropped once it reaches the
//! first start's modes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::StatsError;

/// One Gaussian component of a mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianComponent {
    /// Mixing proportion π ∈ (0, 1]; components of a mixture sum to 1.
    pub weight: f64,
    /// Component mean μ (a time-zone coordinate, −11 … +12).
    pub mean: f64,
    /// Component standard deviation σ.
    pub sigma: f64,
}

impl GaussianComponent {
    /// The component's weighted normal density at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sigma;
        self.weight * (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }
}

impl fmt::Display for GaussianComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "π={:.2} μ={:+.2} σ={:.2}",
            self.weight, self.mean, self.sigma
        )
    }
}

/// A one-dimensional Gaussian mixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianMixture {
    components: Vec<GaussianComponent>,
    log_likelihood: f64,
    iterations: usize,
}

impl GaussianMixture {
    /// The mixture components, sorted by descending weight.
    pub fn components(&self) -> &[GaussianComponent] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The heaviest component (the crowd's dominant region).
    pub fn dominant(&self) -> Option<&GaussianComponent> {
        self.components.first()
    }

    /// Total mixture density at `x`.
    pub fn density(&self, x: f64) -> f64 {
        self.components.iter().map(|c| c.density(x)).sum()
    }

    /// Mixture density evaluated at each of `xs`.
    ///
    /// With unit-width bins this approximates per-bin probabilities, so the
    /// output is directly comparable to a placement histogram.
    pub fn density_all(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.density(x)).collect()
    }

    /// Mixture density of the **wrapped** (circular) distribution with the
    /// given period: the density of `x` plus its images one period away.
    ///
    /// For components with σ ≪ period this equals the wrapped-normal
    /// density to machine precision; use it when the coordinate lives on a
    /// circle (hours of the day, time zones).
    pub fn density_wrapped(&self, x: f64, period: f64) -> f64 {
        self.density(x) + self.density(x - period) + self.density(x + period)
    }

    /// [`GaussianMixture::density_wrapped`] over a slice of coordinates.
    pub fn density_all_wrapped(&self, xs: &[f64], period: f64) -> Vec<f64> {
        xs.iter()
            .map(|&x| self.density_wrapped(x, period))
            .collect()
    }

    /// Returns the mixture with every component mean transformed by `f`
    /// (e.g. mapped back from a rotated fitting axis), re-sorted by
    /// weight.
    #[must_use]
    pub fn map_means(mut self, f: impl Fn(f64) -> f64) -> GaussianMixture {
        for c in &mut self.components {
            c.mean = f(c.mean);
        }
        self.components
            .sort_by(|a, b| b.weight.total_cmp(&a.weight));
        self
    }

    /// Final data log-likelihood of the EM run.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Number of EM iterations the run that produced this mixture
    /// performed (not counting any other start or component count).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Bayesian information criterion: `−2·logL + p·ln(n)` with
    /// `p = 3k − 1`, the parameter count of `k` components with free
    /// weights, means and σ. The count is the same under
    /// [`EmConfig::fixed_sigma`], where σ is not fitted and only `2k − 1`
    /// parameters are free.
    pub fn bic(&self, n_points: f64) -> f64 {
        let p = (3 * self.len()) as f64 - 1.0;
        -2.0 * self.log_likelihood + p * n_points.max(1.0).ln()
    }

    /// Akaike information criterion: `−2·logL + 2p`, with the same
    /// `p = 3k − 1` as [`GaussianMixture::bic`] (also under a fixed σ).
    pub fn aic(&self) -> f64 {
        let p = (3 * self.len()) as f64 - 1.0;
        -2.0 * self.log_likelihood + 2.0 * p
    }
}

impl fmt::Display for GaussianMixture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GMM[")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// Configuration for the EM algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Maximum EM iterations one run may spend. An iteration is one
    /// E-step and one M-step, whether a plain step or the step taken from
    /// an extrapolated point.
    pub max_iterations: usize,
    /// Convergence threshold on parameter movement: a run stops once an
    /// EM step moves no weight by `tolerance` or more, and no mean or σ
    /// by `tolerance` component widths (the fixed σ, or `sigma_init`) or
    /// more. The rule reads the same on a crowd of fifty and of fifty
    /// thousand.
    pub tolerance: f64,
    /// Initial component σ; the paper uses the empirical 2.5.
    pub sigma_init: f64,
    /// Lower bound on σ, preventing component collapse onto one bin.
    pub sigma_floor: f64,
    /// Minimum mixing weight, preventing dead components.
    pub weight_floor: f64,
    /// When set, component σ is held at this value instead of being
    /// re-estimated — EM fits only means and weights. Useful when the
    /// component width is known a priori (the paper's placement
    /// components all have σ ≈ 2.5).
    pub fixed_sigma: Option<f64>,
}

impl Default for EmConfig {
    /// The paper's setup: σ initialized to 2.5; a run stops once an EM
    /// step moves no weight by 9e-4 and no mean by 9e-4 component widths,
    /// or after 70 iterations.
    fn default() -> EmConfig {
        EmConfig {
            max_iterations: 70,
            tolerance: 9e-4,
            sigma_init: 2.5,
            sigma_floor: 0.6,
            weight_floor: 1e-4,
            fixed_sigma: None,
        }
    }
}

/// Growth factor of the SQUAREM step bound: a cycle whose step length
/// reaches the bound multiplies it by this, a discarded extrapolation at
/// the bound divides it (never below 1).
const STEP_GROWTH: f64 = 8.0;

/// Two runs have reached the same modes once every mean of one lies
/// within this fraction of a component width of the other's.
const SAME_MODE_WIDTHS: f64 = 0.02;

/// Checks the data for a `k`-component fit; returns its total mass.
fn validate(xs: &[f64], weights: &[f64], k: usize) -> Result<f64, StatsError> {
    if xs.len() != weights.len() {
        return Err(StatsError::LengthMismatch {
            left: xs.len(),
            right: weights.len(),
        });
    }
    let positive = weights.iter().filter(|&&w| w > 0.0).count();
    if k == 0 || k > positive {
        return Err(StatsError::NotEnoughData {
            got: positive,
            needed: k.max(1),
        });
    }
    let total_w: f64 = weights.iter().sum();
    if total_w <= 0.0 {
        return Err(StatsError::InvalidDistribution {
            reason: "total weight is zero".to_owned(),
        });
    }
    Ok(total_w)
}

/// Fits a `k`-component mixture to weighted 1-D data by EM.
///
/// `xs` are data coordinates (time-zone indices), `weights` their masses
/// (e.g. how many users were placed in each zone). One component has a
/// single likelihood optimum, so `k = 1` runs from the weighted median
/// alone. A larger `k` runs from the weighted quantiles of the data and
/// from its `k` highest peaks, keeping the fit with the higher
/// log-likelihood; the peak run is dropped as soon as it reaches the
/// quantile run's modes. Both starts are deterministic, and so is the
/// result.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] when slices differ in length.
/// * [`StatsError::NotEnoughData`] when `k` is 0 or exceeds the number of
///   positive-mass points.
/// * [`StatsError::InvalidDistribution`] when the total weight is zero.
pub fn em(
    xs: &[f64],
    weights: &[f64],
    k: usize,
    config: &EmConfig,
) -> Result<GaussianMixture, StatsError> {
    let total_w = validate(xs, weights, k)?;
    Ok(Run::new(xs, weights, total_w, config).fit(k))
}

/// Initial means at the weighted quantiles (2i+1)/2k.
fn quantile_means(xs: &[f64], weights: &[f64], k: usize, total_w: f64) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut means = Vec::with_capacity(k);
    for i in 0..k {
        let target = (2.0 * i as f64 + 1.0) / (2.0 * k as f64) * total_w;
        let mut acc = 0.0;
        let mut mean = xs[order[0]];
        for &idx in &order {
            acc += weights[idx];
            if acc >= target {
                mean = xs[idx];
                break;
            }
            mean = xs[idx];
        }
        means.push(mean);
    }
    means
}

/// Initial means at the k highest weight peaks, greedily suppressing the
/// neighbourhood (±3 coordinates — about one component width) of each
/// chosen peak so a heavy mode's own shoulder cannot swallow a second
/// seed.
fn peak_means(xs: &[f64], weights: &[f64], k: usize) -> Vec<f64> {
    let mut remaining: Vec<f64> = weights.to_vec();
    let mut means = Vec::with_capacity(k);
    for _ in 0..k {
        let Some((best, _)) = remaining
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            break;
        };
        means.push(xs[best]);
        let centre = xs[best];
        for (i, w) in remaining.iter_mut().enumerate() {
            if (xs[i] - centre).abs() <= 3.0 {
                *w = 0.0;
            }
        }
    }
    // Fewer peaks than k (everything suppressed): fall back to data range.
    while means.len() < k {
        means.push(xs[means.len() % xs.len()]);
    }
    means
}

/// The EM runs over one data set: the coordinates, their masses, a
/// responsibility buffer, and the iterations spent so far.
struct Run<'a> {
    xs: &'a [f64],
    weights: &'a [f64],
    /// The points with positive mass, `(coordinate, mass)`: a massless
    /// point adds nothing to the likelihood or to an M-step sum, so the
    /// steps skip it.
    points: Vec<(f64, f64)>,
    total_w: f64,
    config: &'a EmConfig,
    /// The smallest and largest coordinate with positive mass:
    /// extrapolated means are kept inside it, where every M-step leaves
    /// them.
    range: (f64, f64),
    resp: Vec<f64>,
    /// Per-component `(Σ r·w, Σ r·w·x)` of the M-step.
    sums: Vec<(f64, f64)>,
    iterations: usize,
}

impl<'a> Run<'a> {
    fn new(xs: &'a [f64], weights: &'a [f64], total_w: f64, config: &'a EmConfig) -> Run<'a> {
        let points: Vec<(f64, f64)> = xs
            .iter()
            .zip(weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(&x, &w)| (x, w))
            .collect();
        let lo = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        Run {
            xs,
            weights,
            points,
            total_w,
            config,
            range: (lo, hi),
            resp: Vec::new(),
            sums: Vec::new(),
            iterations: 0,
        }
    }

    /// The component width: the fixed σ, or the initial one.
    fn width(&self) -> f64 {
        self.config.fixed_sigma.unwrap_or(self.config.sigma_init)
    }

    /// Equal-weight components at `means`.
    fn seed(&self, means: &[f64]) -> Vec<GaussianComponent> {
        means
            .iter()
            .map(|&mean| GaussianComponent {
                weight: 1.0 / means.len() as f64,
                mean,
                sigma: self.width(),
            })
            .collect()
    }

    /// The `k`-component fit of [`em`].
    fn fit(&mut self, k: usize) -> GaussianMixture {
        let (xs, weights) = (self.xs, self.weights);
        let quantile = self.seed(&quantile_means(xs, weights, k, self.total_w));
        let first = self
            .run_from(quantile, None)
            .expect("a run without a rival finishes");
        if k == 1 {
            return first;
        }
        // The quantile start can split a dominant mode when one region far
        // outweighs the others; the peak start covers exactly that case.
        let peak = self.seed(&peak_means(xs, weights, k));
        match self.run_from(peak, Some(&first)) {
            Some(second) if second.log_likelihood > first.log_likelihood => second,
            _ => first,
        }
    }

    /// One EM iteration: returns the log-likelihood at `from` and writes
    /// its EM update into `to`.
    fn step(&mut self, from: &[GaussianComponent], to: &mut Vec<GaussianComponent>) -> f64 {
        self.iterations += 1;
        let config = self.config;
        let k = from.len();
        self.resp.resize(self.points.len() * k, 0.0);
        // E-step.
        let mut ll = 0.0;
        for (row, &(x, w)) in self.resp.chunks_exact_mut(k).zip(&self.points) {
            let mut total = 0.0;
            for (r, c) in row.iter_mut().zip(from) {
                *r = c.density(x);
                total += *r;
            }
            if total > 0.0 {
                for r in row.iter_mut() {
                    *r /= total;
                }
                ll += w * total.ln();
            } else {
                // Point far from every component: spread responsibility.
                row.fill(1.0 / k as f64);
                ll += w * (-745.0); // ~ln(f64::MIN_POSITIVE)
            }
        }
        // M-step.
        self.sums.clear();
        self.sums.resize(k, (0.0, 0.0));
        for (row, &(x, w)) in self.resp.chunks_exact(k).zip(&self.points) {
            for (sum, &resp) in self.sums.iter_mut().zip(row) {
                let r = resp * w;
                sum.0 += r;
                sum.1 += r * x;
            }
        }
        to.clear();
        for (j, &(nk, mu)) in self.sums.iter().enumerate() {
            if nk < config.weight_floor * self.total_w {
                // Revive a dead component at the point with worst fit.
                let worst = self
                    .points
                    .iter()
                    .map(|&(x, _)| x)
                    .min_by(|&xa, &xb| {
                        let fa: f64 = from.iter().map(|c| c.density(xa)).sum();
                        let fb: f64 = from.iter().map(|c| c.density(xb)).sum();
                        fa.total_cmp(&fb)
                    })
                    .unwrap_or(self.xs[0]);
                to.push(GaussianComponent {
                    weight: config.weight_floor.max(1.0 / self.total_w),
                    mean: worst,
                    sigma: self.width(),
                });
                continue;
            }
            let mu = mu / nk;
            let sigma = config.fixed_sigma.unwrap_or_else(|| {
                let mut var = 0.0;
                for (row, &(x, w)) in self.resp.chunks_exact(k).zip(&self.points) {
                    var += row[j] * w * (x - mu) * (x - mu);
                }
                (var / nk).sqrt().max(config.sigma_floor)
            });
            to.push(GaussianComponent {
                weight: (nk / self.total_w).max(config.weight_floor),
                mean: mu,
                sigma,
            });
        }
        normalize_weights(to);
        ll
    }

    /// The SQUAREM extrapolation (Varadhan & Roland 2008) of two EM
    /// steps `θ0 → θ1 → θ2`: `θ0 + 2s·r + s²·v` with `r = θ1 − θ0`,
    /// `v = θ2 − 2θ1 + θ0` and step length `s = ‖r‖/‖v‖` clamped to
    /// `[1, step_max]` (`s = 1` lands on `θ2`), projected back onto valid
    /// parameters. Returns the point and the step length taken.
    fn extrapolate(
        &self,
        t0: &[GaussianComponent],
        t1: &[GaussianComponent],
        t2: &[GaussianComponent],
        step_max: f64,
    ) -> (Vec<GaussianComponent>, f64) {
        let params = |c: &GaussianComponent| [c.weight, c.mean, c.sigma];
        let (mut rr, mut vv) = (0.0, 0.0);
        for ((a, b), c) in t0.iter().zip(t1).zip(t2) {
            for ((p0, p1), p2) in params(a).into_iter().zip(params(b)).zip(params(c)) {
                let r = p1 - p0;
                let v = p2 - 2.0 * p1 + p0;
                rr += r * r;
                vv += v * v;
            }
        }
        let step = if vv > 0.0 {
            (rr / vv).sqrt().clamp(1.0, step_max)
        } else {
            1.0
        };
        let (lo, hi) = self.range;
        let mut out: Vec<GaussianComponent> = t0
            .iter()
            .zip(t1)
            .zip(t2)
            .map(|((a, b), c)| {
                let at = |p0: f64, p1: f64, p2: f64| {
                    p0 + 2.0 * step * (p1 - p0) + step * step * (p2 - 2.0 * p1 + p0)
                };
                GaussianComponent {
                    weight: at(a.weight, b.weight, c.weight).max(self.config.weight_floor),
                    mean: at(a.mean, b.mean, c.mean).clamp(lo, hi),
                    sigma: at(a.sigma, b.sigma, c.sigma).max(self.config.sigma_floor),
                }
            })
            .collect();
        normalize_weights(&mut out);
        (out, step)
    }

    /// One accelerated EM run from `start`: SQUAREM with a growing step
    /// bound, as in Varadhan & Roland's reference implementation. Each
    /// cycle takes two EM steps, extrapolates along them, and takes one
    /// more EM step from the extrapolated point. The step bound starts at
    /// 1 — plain EM, so the first cycles follow the path EM itself takes
    /// and the run stays in EM's basin — and grows [`STEP_GROWTH`]-fold
    /// whenever a step reaches it. An extrapolated point whose
    /// log-likelihood is below `θ1`'s is discarded for `θ2`, so the
    /// likelihood never falls. The run stops once an EM step leaves every
    /// parameter within the tolerance ([`EmConfig::tolerance`]), or when
    /// `max_iterations` are spent.
    ///
    /// With a `rival` (the first start's fit), the run is dropped —
    /// `None` — as soon as it has reached the rival's modes
    /// ([`SAME_MODE_WIDTHS`]): it can only end where the rival did.
    fn run_from(
        &mut self,
        start: Vec<GaussianComponent>,
        rival: Option<&GaussianMixture>,
    ) -> Option<GaussianMixture> {
        let budget = self.iterations + self.config.max_iterations.max(1);
        let first = self.iterations;
        let (tolerance, width) = (self.config.tolerance, self.width());
        // Whether the EM step `from → to` ends the run.
        let done = |run: &Run, from: &[GaussianComponent], to: &[GaussianComponent]| {
            let settled = from.iter().zip(to).all(|(a, b)| {
                (a.weight - b.weight).abs() < tolerance
                    && (a.mean - b.mean).abs() / width < tolerance
                    && (a.sigma - b.sigma).abs() / width < tolerance
            });
            settled || run.iterations >= budget
        };
        let mut step_max = 1.0;
        let mut theta = start;
        let (mut t1, mut t2, mut next) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            if rival.is_some_and(|r| self.same_modes(&theta, r)) {
                return None;
            }
            let ll0 = self.step(&theta, &mut t1);
            if done(self, &theta, &t1) {
                return Some(finish(t1, ll0, self.iterations - first));
            }
            let ll1 = self.step(&t1, &mut t2);
            if done(self, &t1, &t2) {
                return Some(finish(t2, ll1, self.iterations - first));
            }
            let (jump, step) = self.extrapolate(&theta, &t1, &t2, step_max);
            let at_jump = self.step(&jump, &mut next);
            if at_jump >= ll1 {
                if done(self, &jump, &next) {
                    return Some(finish(next, at_jump, self.iterations - first));
                }
                std::mem::swap(&mut theta, &mut next);
                if step >= step_max {
                    step_max *= STEP_GROWTH;
                }
            } else {
                if self.iterations >= budget {
                    return Some(finish(t2, ll1, self.iterations - first));
                }
                std::mem::swap(&mut theta, &mut t2);
                if step >= step_max {
                    step_max = (step_max / STEP_GROWTH).max(1.0);
                }
            }
        }
    }

    /// Whether every mean of `components` lies within
    /// [`SAME_MODE_WIDTHS`] component widths of a distinct mean of `fit`,
    /// pairing both in sorted order.
    fn same_modes(&self, components: &[GaussianComponent], fit: &GaussianMixture) -> bool {
        let sorted = |mut m: Vec<f64>| {
            m.sort_by(f64::total_cmp);
            m
        };
        let ours = sorted(components.iter().map(|c| c.mean).collect());
        let theirs = sorted(fit.components.iter().map(|c| c.mean).collect());
        let within = SAME_MODE_WIDTHS * self.width();
        ours.len() == theirs.len()
            && ours
                .iter()
                .zip(&theirs)
                .all(|(a, b)| (a - b).abs() <= within)
    }
}

/// Rescales mixing weights to sum to one.
fn normalize_weights(components: &mut [GaussianComponent]) {
    let total: f64 = components.iter().map(|c| c.weight).sum();
    for c in components {
        c.weight /= total;
    }
}

/// A finished run, components sorted by descending weight.
fn finish(
    mut components: Vec<GaussianComponent>,
    log_likelihood: f64,
    iterations: usize,
) -> GaussianMixture {
    components.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    GaussianMixture {
        components,
        log_likelihood,
        iterations,
    }
}

/// The information criterion used to pick the number of components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionCriterion {
    /// Bayesian information criterion — conservative; penalty grows with
    /// the sample size, so nearby components get merged at small n.
    Bic,
    /// Akaike information criterion — a constant penalty of 2 per
    /// parameter; resolves close components sooner, at the price of
    /// occasionally over-segmenting (pair with a pruning step).
    Aic,
}

/// Mixtures with 1 … `max_k` components fitted to one data set, and the
/// EM iterations they cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSweep {
    models: Vec<GaussianMixture>,
    n_eff: f64,
    iterations: usize,
}

impl ComponentSweep {
    /// The fitted mixtures; entry `i` has `i + 1` components. Shorter
    /// than `max_k` when the data has fewer positive-mass points.
    pub fn models(&self) -> &[GaussianMixture] {
        &self.models
    }

    /// EM iterations over every component count and start.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Index into [`ComponentSweep::models`] of the mixture with the
    /// lowest value of `criterion` (the fewest components on a tie). The
    /// effective sample size for the BIC is the total weight (the number
    /// of placed users), not the number of bins.
    pub fn best(&self, criterion: SelectionCriterion) -> usize {
        let score = |m: &GaussianMixture| match criterion {
            SelectionCriterion::Bic => m.bic(self.n_eff),
            SelectionCriterion::Aic => m.aic(),
        };
        let mut best = 0;
        for (i, model) in self.models.iter().enumerate() {
            if score(model) < score(&self.models[best]) {
                best = i;
            }
        }
        best
    }
}

/// Fits mixtures with 1 … `max_k` components, each as [`em`] does;
/// component counts beyond the number of positive-mass points are not
/// fitted.
///
/// # Errors
///
/// As [`em`] with `k = 1`; `max_k` of zero yields
/// [`StatsError::NotEnoughData`].
pub fn sweep_components(
    xs: &[f64],
    weights: &[f64],
    max_k: usize,
    config: &EmConfig,
) -> Result<ComponentSweep, StatsError> {
    if max_k == 0 {
        return Err(StatsError::NotEnoughData { got: 0, needed: 1 });
    }
    let total_w = validate(xs, weights, 1)?;
    let positive = weights.iter().filter(|&&w| w > 0.0).count();
    let mut run = Run::new(xs, weights, total_w, config);
    let models = (1..=max_k.min(positive)).map(|k| run.fit(k)).collect();
    Ok(ComponentSweep {
        models,
        n_eff: total_w,
        iterations: run.iterations,
    })
}

/// Fits mixtures with 1 … `max_k` components ([`sweep_components`]) and
/// returns the one with the lowest value of the chosen criterion.
///
/// # Errors
///
/// As [`sweep_components`].
pub fn select_components(
    xs: &[f64],
    weights: &[f64],
    max_k: usize,
    config: &EmConfig,
    criterion: SelectionCriterion,
) -> Result<GaussianMixture, StatsError> {
    let mut sweep = sweep_components(xs, weights, max_k, config)?;
    let best = sweep.best(criterion);
    Ok(sweep.models.swap_remove(best))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds histogram weights over the 24 zone coordinates from a mixture.
    fn sample_weights(mix: &[GaussianComponent], n: f64) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (-11..=12).map(f64::from).collect();
        let ws: Vec<f64> = xs
            .iter()
            .map(|&x| n * mix.iter().map(|c| c.density(x)).sum::<f64>())
            .collect();
        (xs, ws)
    }

    #[test]
    fn em_recovers_single_gaussian() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 1.0,
            sigma: 2.5,
        }];
        let (xs, ws) = sample_weights(&truth, 500.0);
        let model = em(&xs, &ws, 1, &EmConfig::default()).unwrap();
        let c = model.dominant().unwrap();
        assert!((c.mean - 1.0).abs() < 0.1, "{model}");
        assert!((c.sigma - 2.5).abs() < 0.3, "{model}");
    }

    #[test]
    fn em_recovers_two_components() {
        let truth = vec![
            GaussianComponent {
                weight: 0.7,
                mean: 1.0,
                sigma: 2.0,
            },
            GaussianComponent {
                weight: 0.3,
                mean: -6.0,
                sigma: 2.0,
            },
        ];
        let (xs, ws) = sample_weights(&truth, 1000.0);
        let model = em(&xs, &ws, 2, &EmConfig::default()).unwrap();
        let cs = model.components();
        assert_eq!(cs.len(), 2);
        assert!((cs[0].mean - 1.0).abs() < 0.5, "{model}");
        assert!((cs[1].mean + 6.0).abs() < 0.5, "{model}");
        assert!(cs[0].weight > cs[1].weight);
    }

    #[test]
    fn select_components_finds_right_k() {
        for true_k in 1..=3usize {
            let means = [-7.0, 1.0, 8.0];
            let truth: Vec<GaussianComponent> = (0..true_k)
                .map(|i| GaussianComponent {
                    weight: 1.0 / true_k as f64,
                    mean: means[i],
                    sigma: 2.0,
                })
                .collect();
            let (xs, ws) = sample_weights(&truth, 600.0);
            let model =
                select_components(&xs, &ws, 4, &EmConfig::default(), SelectionCriterion::Bic)
                    .unwrap();
            assert_eq!(model.len(), true_k, "k={true_k}: {model}");
        }
    }

    #[test]
    fn runs_stop_within_their_iteration_budget() {
        // A zero tolerance drives every run to its cap, so across the caps
        // below the last allowed iteration falls on each kind of step: a
        // plain one, or one from a kept or a discarded jump.
        let truth =
            [(0.6, 1.0), (0.25, -6.0), (0.15, -3.0)].map(|(weight, mean)| GaussianComponent {
                weight,
                mean,
                sigma: 2.0,
            });
        let (xs, ws) = sample_weights(&truth, 2000.0);
        for cap in 1..=40 {
            let config = EmConfig {
                max_iterations: cap,
                tolerance: 0.0,
                fixed_sigma: Some(2.0),
                ..EmConfig::default()
            };
            for k in 1..=4 {
                let model = em(&xs, &ws, k, &config).unwrap();
                assert!(
                    model.iterations() <= cap,
                    "k={k}: {} > {cap}",
                    model.iterations()
                );
            }
        }
    }

    #[test]
    fn density_integrates_to_one() {
        let truth = vec![
            GaussianComponent {
                weight: 0.6,
                mean: 0.0,
                sigma: 1.5,
            },
            GaussianComponent {
                weight: 0.4,
                mean: 5.0,
                sigma: 2.0,
            },
        ];
        let (xs, ws) = sample_weights(&truth, 100.0);
        let model = em(&xs, &ws, 2, &EmConfig::default()).unwrap();
        let step = 0.01;
        let total: f64 = (-3000..3000)
            .map(|i| model.density(i as f64 * step) * step)
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "{total}");
    }

    #[test]
    fn em_error_cases() {
        let xs = [0.0, 1.0];
        let ws = [1.0, 1.0];
        assert!(matches!(
            em(&xs, &ws[..1], 1, &EmConfig::default()),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            em(&xs, &ws, 0, &EmConfig::default()),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert!(matches!(
            em(&xs, &ws, 3, &EmConfig::default()),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert!(matches!(
            em(&xs, &[0.0, 0.0], 1, &EmConfig::default()),
            Err(StatsError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn component_weights_sum_to_one() {
        let truth = vec![
            GaussianComponent {
                weight: 0.5,
                mean: -3.0,
                sigma: 2.0,
            },
            GaussianComponent {
                weight: 0.5,
                mean: 6.0,
                sigma: 2.0,
            },
        ];
        let (xs, ws) = sample_weights(&truth, 400.0);
        let model = em(&xs, &ws, 2, &EmConfig::default()).unwrap();
        let total: f64 = model.components().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bic_penalizes_extra_components_on_simple_data() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 0.0,
            sigma: 2.5,
        }];
        let (xs, ws) = sample_weights(&truth, 300.0);
        let m1 = em(&xs, &ws, 1, &EmConfig::default()).unwrap();
        let m3 = em(&xs, &ws, 3, &EmConfig::default()).unwrap();
        let n: f64 = ws.iter().sum();
        assert!(m1.bic(n) < m3.bic(n));
    }

    #[test]
    fn sigma_floor_prevents_collapse() {
        // All mass on a single coordinate — σ would collapse to 0 without a floor.
        let xs: Vec<f64> = (-11..=12).map(f64::from).collect();
        let mut ws = vec![0.0; 24];
        ws[11] = 100.0;
        ws[12] = 1.0;
        let model = em(&xs, &ws, 1, &EmConfig::default()).unwrap();
        assert!(model.dominant().unwrap().sigma >= 0.6);
    }

    #[test]
    fn wrapped_density_integrates_to_one_over_one_period() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 11.5, // hugging the wrap boundary
            sigma: 2.0,
        }];
        let (xs, ws) = sample_weights(&truth, 200.0);
        let model = em(&xs, &ws, 1, &EmConfig::default()).unwrap();
        let step = 0.01;
        let total: f64 = (-1200..1200)
            .map(|i| model.density_wrapped(i as f64 * step, 24.0) * step)
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "{total}");
        // The wrapped density is periodic.
        let a = model.density_wrapped(-11.0, 24.0);
        let b = model.density_wrapped(13.0, 24.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn map_means_transforms_and_resorts() {
        let truth = vec![
            GaussianComponent {
                weight: 0.6,
                mean: 2.0,
                sigma: 2.0,
            },
            GaussianComponent {
                weight: 0.4,
                mean: -5.0,
                sigma: 2.0,
            },
        ];
        let (xs, ws) = sample_weights(&truth, 300.0);
        let model = em(&xs, &ws, 2, &EmConfig::default()).unwrap();
        let mapped = model.clone().map_means(|m| m + 10.0);
        assert_eq!(mapped.len(), model.len());
        for (a, b) in mapped.components().iter().zip(model.components()) {
            assert!((a.mean - (b.mean + 10.0)).abs() < 1e-12);
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn fixed_sigma_is_honoured() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 0.0,
            sigma: 1.0, // narrower than the fixed value
        }];
        let (xs, ws) = sample_weights(&truth, 300.0);
        let config = EmConfig {
            fixed_sigma: Some(2.5),
            ..EmConfig::default()
        };
        let model = em(&xs, &ws, 1, &config).unwrap();
        assert_eq!(model.dominant().unwrap().sigma, 2.5);
    }

    #[test]
    fn aic_selection_is_available() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 2.0,
            sigma: 2.0,
        }];
        let (xs, ws) = sample_weights(&truth, 300.0);
        let model =
            select_components(&xs, &ws, 3, &EmConfig::default(), SelectionCriterion::Aic).unwrap();
        assert!(!model.is_empty());
        assert!(model.aic() <= model.bic(ws.iter().sum()) + 1e9); // both defined
    }

    #[test]
    fn display_and_accessors() {
        let truth = vec![GaussianComponent {
            weight: 1.0,
            mean: 2.0,
            sigma: 2.5,
        }];
        let (xs, ws) = sample_weights(&truth, 100.0);
        let model = em(&xs, &ws, 1, &EmConfig::default()).unwrap();
        assert!(!model.is_empty());
        assert!(model.iterations() >= 1);
        assert!(model.log_likelihood().is_finite());
        assert!(model.to_string().contains("GMM["));
        assert!(model.aic().is_finite());
    }
}
