//! Gaussian mixture models fitted by Expectation–Maximization.
//!
//! §IV.B of the paper: multi-country crowds produce placement histograms
//! that follow a *mixture* of Gaussians, one per region. The number of
//! regions is unknown a priori, so EM is run for increasing component
//! counts and the best model is chosen by an information criterion
//! ([`SelectionCriterion`]). EM is initialized with the σ observed
//! empirically on single-region placements, exactly as the paper
//! prescribes (and can hold it fixed via [`EmConfig::fixed_sigma`]).

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

    /// Number of EM iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Bayesian information criterion: `−2·logL + p·ln(n)` with
    /// `p = 3k − 1` free parameters.
    pub fn bic(&self, n_points: f64) -> f64 {
        let p = (3 * self.len()) as f64 - 1.0;
        -2.0 * self.log_likelihood + p * n_points.max(1.0).ln()
    }

    /// Akaike information criterion: `−2·logL + 2p`.
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
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the log-likelihood improvement.
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
    /// The paper's setup: σ initialized to 2.5, tight convergence.
    fn default() -> EmConfig {
        EmConfig {
            max_iterations: 500,
            tolerance: 1e-9,
            sigma_init: 2.5,
            sigma_floor: 0.6,
            weight_floor: 1e-4,
            fixed_sigma: None,
        }
    }
}

/// Fits a `k`-component mixture to weighted 1-D data by EM.
///
/// `xs` are data coordinates (time-zone indices), `weights` their masses
/// (e.g. how many users were placed in each zone). Initial means are spread
/// over the weighted quantiles of the data, so the run is deterministic.
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

    // Two deterministic restarts — quantile-seeded and peak-seeded — and
    // keep the run with the higher final log-likelihood. The quantile init
    // can split a dominant mode when one region far outweighs the others;
    // the peak init covers exactly that case.
    let quantile = em_from(
        xs,
        weights,
        quantile_means(xs, weights, k, total_w),
        config,
        total_w,
    );
    let peak = em_from(xs, weights, peak_means(xs, weights, k), config, total_w);
    Ok(if peak.log_likelihood > quantile.log_likelihood {
        peak
    } else {
        quantile
    })
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

/// One EM run from the given initial means.
fn em_from(
    xs: &[f64],
    weights: &[f64],
    initial_means: Vec<f64>,
    config: &EmConfig,
    total_w: f64,
) -> GaussianMixture {
    let k = initial_means.len();
    let mut components: Vec<GaussianComponent> = initial_means
        .into_iter()
        .map(|mean| GaussianComponent {
            weight: 1.0 / k as f64,
            mean,
            sigma: config.sigma_init,
        })
        .collect();

    let n = xs.len();
    let mut resp = vec![0.0_f64; n * k];
    let mut log_likelihood = f64::NEG_INFINITY;
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // E-step.
        let mut new_ll = 0.0;
        for (i, (&x, &w)) in xs.iter().zip(weights.iter()).enumerate() {
            let mut total = 0.0;
            for (j, c) in components.iter().enumerate() {
                let d = c.density(x);
                resp[i * k + j] = d;
                total += d;
            }
            if total > 0.0 {
                for j in 0..k {
                    resp[i * k + j] /= total;
                }
                new_ll += w * total.ln();
            } else {
                // Point far from every component: spread responsibility.
                for j in 0..k {
                    resp[i * k + j] = 1.0 / k as f64;
                }
                new_ll += w * (-745.0); // ~ln(f64::MIN_POSITIVE)
            }
        }
        // M-step.
        for j in 0..k {
            let mut nk = 0.0;
            let mut mu = 0.0;
            for (i, (&x, &w)) in xs.iter().zip(weights.iter()).enumerate() {
                let r = resp[i * k + j] * w;
                nk += r;
                mu += r * x;
            }
            if nk < config.weight_floor * total_w {
                // Revive a dead component at the point with worst fit.
                let worst = xs
                    .iter()
                    .zip(weights.iter())
                    .enumerate()
                    .filter(|(_, (_, &w))| w > 0.0)
                    .min_by(|(_, (&xa, _)), (_, (&xb, _))| {
                        let fa: f64 = components.iter().map(|c| c.density(xa)).sum();
                        let fb: f64 = components.iter().map(|c| c.density(xb)).sum();
                        fa.total_cmp(&fb)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                components[j] = GaussianComponent {
                    weight: config.weight_floor.max(1.0 / total_w),
                    mean: xs[worst],
                    sigma: config.sigma_init,
                };
                continue;
            }
            mu /= nk;
            let mut var = 0.0;
            for (i, (&x, &w)) in xs.iter().zip(weights.iter()).enumerate() {
                let r = resp[i * k + j] * w;
                var += r * (x - mu) * (x - mu);
            }
            var /= nk;
            components[j] = GaussianComponent {
                weight: (nk / total_w).max(config.weight_floor),
                mean: mu,
                sigma: config
                    .fixed_sigma
                    .unwrap_or_else(|| var.sqrt().max(config.sigma_floor)),
            };
        }
        // Renormalize weights.
        let wsum: f64 = components.iter().map(|c| c.weight).sum();
        for c in &mut components {
            c.weight /= wsum;
        }

        if (new_ll - log_likelihood).abs() < config.tolerance {
            log_likelihood = new_ll;
            break;
        }
        log_likelihood = new_ll;
    }

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

/// Fits mixtures with 1 … `max_k` components and returns the one with the
/// lowest value of the chosen criterion.
///
/// The effective sample size for the BIC is the total weight (the number of
/// placed users), not the number of bins.
///
/// # Errors
///
/// Propagates errors from [`em`]; `max_k` of zero yields
/// [`StatsError::NotEnoughData`].
pub fn select_components(
    xs: &[f64],
    weights: &[f64],
    max_k: usize,
    config: &EmConfig,
    criterion: SelectionCriterion,
) -> Result<GaussianMixture, StatsError> {
    if max_k == 0 {
        return Err(StatsError::NotEnoughData { got: 0, needed: 1 });
    }
    let n_eff: f64 = weights.iter().sum();
    let mut best: Option<(f64, GaussianMixture)> = None;
    let mut last_err = None;
    for k in 1..=max_k {
        match em(xs, weights, k, config) {
            Ok(model) => {
                let score = match criterion {
                    SelectionCriterion::Bic => model.bic(n_eff),
                    SelectionCriterion::Aic => model.aic(),
                };
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, model));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((_, model)) => Ok(model),
        None => Err(last_err.unwrap_or(StatsError::NotEnoughData { got: 0, needed: 1 })),
    }
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
