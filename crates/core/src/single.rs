//! Gaussian and Gaussian-mixture fits of placement histograms — §IV.A/B.

use std::fmt;

use serde::{Deserialize, Serialize};

use crowdtz_stats::{
    em, fit_gaussian, select_components, EmConfig, FitQuality, GaussianCurve, GaussianMixture,
    SelectionCriterion, StatsError,
};
use crowdtz_time::TzOffset;

use crate::placement::PlacementHistogram;

/// The σ the paper observed on single-region placements — *"the average
/// Gaussian standard deviation value for all the countries considered is
/// σ ≈ 2.5, and … it corresponds to half of the typical hour with lowest
/// activity, between 4am and 5am local time"* — used to initialize fits.
pub const SIGMA_INIT: f64 = 2.5;

/// The σ *this reproduction* observes on its own single-region placements
/// (Figures 3–5 of the harness fit σ ≈ 1.9–2.1 on the synthetic world).
///
/// The paper's procedure is to plug the empirically observed width into
/// the EM — it measured 2.5 on its Twitter data; we measure ≈ 2.0 on the
/// synthetic twin and use that for mixture components.
pub const SIGMA_COMPONENT: f64 = 2.0;

/// Lower bound on a mixture component's σ when fitting placements.
///
/// Single-region placements spread with σ ≈ 2.5 (chronotype variation), so
/// a genuine regional component can never be much narrower; the floor
/// stops the EM from explaining quantization noise with sliver
/// components.
pub const SIGMA_FLOOR: f64 = 1.5;

/// Components lighter than this mixing weight are considered fitting
/// noise, and the mixture is refitted with one component fewer. With σ
/// held at the known width, spurious sliver components are already rare,
/// so the floor only needs to catch near-empty ones.
const MIN_COMPONENT_WEIGHT: f64 = 0.07;

/// Components whose means are closer than this (in hours) describe the
/// same region and are merged by refitting with one component fewer.
/// With σ fixed at ≈ 2.0, two means closer than 2.5 h (1.25 σ) are not
/// meaningfully distinct zones.
const MIN_COMPONENT_SEPARATION: f64 = 2.5;

/// Snaps a fractional zone coordinate to the nearest canonical offset
/// (UTC−11 … UTC+12), wrapping circularly (−11.7 snaps to UTC+12).
fn snap_zone(mean: f64) -> TzOffset {
    let hours = ((mean.round() as i32 + 11).rem_euclid(24)) - 11;
    TzOffset::from_hours(hours).expect("wrapped into valid range")
}

/// The rotated fitting axis for a `bins`-wide histogram: coordinates in
/// **hours** (`0, 24/bins, …`), so σ constants and means keep hour units
/// on every grid. On the hourly grid the spacing factor is exactly `1.0`,
/// so the axis is bit-identical to the historical `0.0, 1.0, …` one.
fn rotated_axis(bins: usize) -> Vec<f64> {
    let step_hours = 24.0 / bins as f64;
    (0..bins).map(|i| i as f64 * step_hours).collect()
}

/// A single-region geolocation: one Gaussian over the placement histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleRegionFit {
    curve: GaussianCurve,
    quality: FitQuality,
}

impl SingleRegionFit {
    /// Fits a Gaussian (seeded with σ = 2.5) to the placement histogram
    /// and computes the Table II point-by-point quality metric.
    ///
    /// # Errors
    ///
    /// Propagates fitting failures from [`fit_gaussian`].
    pub fn fit(histogram: &PlacementHistogram) -> Result<SingleRegionFit, StatsError> {
        // Zones live on a circle; fit on the axis unrolled at the crowd's
        // emptiest stretch so crowds near UTC±12 are not split in two.
        // The axis is in hours regardless of grid resolution, so every σ
        // constant keeps its meaning on the 48- and 96-zone grids.
        let cut = histogram.wrap_cut();
        let rotated = histogram.rotated_fractions(cut);
        let xs_rot = rotated_axis(rotated.len());
        let fit_rot = fit_gaussian(&xs_rot, &rotated, Some(SIGMA_INIT))?;
        let curve = GaussianCurve::new(
            histogram.unrotate_axis_coord(fit_rot.mean, cut),
            fit_rot.sigma,
            fit_rot.amplitude,
        );
        let fitted = curve.eval_all_wrapped(&histogram.zone_coords(), 24.0);
        let quality = FitQuality::between(&fitted, histogram.fractions())?;
        Ok(SingleRegionFit { curve, quality })
    }

    /// The fitted Gaussian.
    pub fn curve(&self) -> GaussianCurve {
        self.curve
    }

    /// The Table II quality metric (average & std of point distances).
    pub fn quality(&self) -> FitQuality {
        self.quality
    }

    /// The uncovered time zone: the Gaussian mean snapped to the nearest
    /// whole-hour offset. *"The center of the Gaussian will uncover the
    /// timezone of the unknown region."*
    pub fn time_zone(&self) -> TzOffset {
        snap_zone(self.curve.mean)
    }

    /// The Table II baseline for this fit: the fitted curve rotated by 12
    /// zones compared against the data.
    ///
    /// # Errors
    ///
    /// Propagates metric computation failures.
    pub fn baseline(&self, histogram: &PlacementHistogram) -> Result<FitQuality, StatsError> {
        let fitted = self.curve.eval_all_wrapped(&histogram.zone_coords(), 24.0);
        FitQuality::shifted_baseline(&fitted, histogram.fractions(), histogram.bins() / 2)
    }
}

impl fmt::Display for SingleRegionFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ⇒ {} [{}]",
            self.curve,
            self.time_zone(),
            self.quality
        )
    }
}

/// A multi-region geolocation: a Gaussian mixture over the placement
/// histogram, with the component count chosen by information criterion
/// (§IV.B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiRegionFit {
    mixture: GaussianMixture,
    quality: FitQuality,
}

impl MultiRegionFit {
    /// Fits mixtures with 1 … `max_components` components by EM (σ held
    /// at the empirically known 2.5, as the paper prescribes) and keeps
    /// the best by AIC, followed by a pruning pass that merges
    /// overlapping components and drops near-empty ones.
    ///
    /// # Errors
    ///
    /// Propagates EM failures (e.g. an empty histogram).
    pub fn fit(
        histogram: &PlacementHistogram,
        max_components: usize,
    ) -> Result<MultiRegionFit, StatsError> {
        // Unroll the circle at the crowd's emptiest stretch (see
        // `SingleRegionFit::fit`), fit on the line, then map means back.
        let cut = histogram.wrap_cut();
        let rotated = histogram.rotated_fractions(cut);
        let users = histogram.users() as f64;
        let counts: Vec<f64> = rotated.iter().map(|f| f * users).collect();
        let xs_rot = rotated_axis(rotated.len());
        let config = Self::em_config();
        let mut mixture = select_components(
            &xs_rot,
            &counts,
            max_components,
            &config,
            SelectionCriterion::Aic,
        )?;
        // Prune implausible components: a region's placement spread is
        // known, so near-duplicate means or sliver weights are fitting
        // noise — refit with fewer components until clean.
        while mixture.len() > 1 && Self::needs_prune(&mixture) {
            mixture = em(&xs_rot, &counts, mixture.len() - 1, &config)?;
        }
        let mixture = mixture.map_means(|m| histogram.unrotate_axis_coord(m, cut));
        let quality = Self::quality_of(&mixture, histogram)?;
        Ok(MultiRegionFit { mixture, quality })
    }

    fn em_config() -> EmConfig {
        EmConfig {
            sigma_init: SIGMA_INIT,
            sigma_floor: SIGMA_FLOOR,
            // §IV.B: the width of a genuine regional component is known
            // from single-region placements; holding it fixed lets EM
            // spend its freedom on means and weights only, which stops a
            // heavy region's tail from swallowing a light one.
            fixed_sigma: Some(SIGMA_COMPONENT),
            ..EmConfig::default()
        }
    }

    fn needs_prune(mixture: &GaussianMixture) -> bool {
        let comps = mixture.components();
        let sliver = comps.iter().any(|c| c.weight < MIN_COMPONENT_WEIGHT);
        let overlap = comps.iter().enumerate().any(|(i, a)| {
            comps[i + 1..].iter().any(|b| {
                let d = (a.mean - b.mean).abs();
                d.min(24.0 - d) < MIN_COMPONENT_SEPARATION
            })
        });
        sliver || overlap
    }

    /// Fits a mixture with exactly `k` components.
    ///
    /// # Errors
    ///
    /// Propagates EM failures.
    pub fn fit_k(histogram: &PlacementHistogram, k: usize) -> Result<MultiRegionFit, StatsError> {
        let cut = histogram.wrap_cut();
        let rotated = histogram.rotated_fractions(cut);
        let users = histogram.users() as f64;
        let counts: Vec<f64> = rotated.iter().map(|f| f * users).collect();
        let xs_rot = rotated_axis(rotated.len());
        let config = Self::em_config();
        let mixture =
            em(&xs_rot, &counts, k, &config)?.map_means(|m| histogram.unrotate_axis_coord(m, cut));
        let quality = Self::quality_of(&mixture, histogram)?;
        Ok(MultiRegionFit { mixture, quality })
    }

    fn quality_of(
        mixture: &GaussianMixture,
        histogram: &PlacementHistogram,
    ) -> Result<FitQuality, StatsError> {
        let fitted = mixture.density_all_wrapped(&histogram.zone_coords(), 24.0);
        FitQuality::between(&fitted, histogram.fractions())
    }

    /// The fitted mixture evaluated over the 24 zone coordinates (wrapped
    /// density) — the series plotted against the placement histogram.
    pub fn fitted_series(&self) -> Vec<f64> {
        self.mixture
            .density_all_wrapped(&PlacementHistogram::xs(), 24.0)
    }

    /// The fitted mixture, components sorted by descending weight.
    pub fn mixture(&self) -> &GaussianMixture {
        &self.mixture
    }

    /// The Table II quality metric.
    pub fn quality(&self) -> FitQuality {
        self.quality
    }

    /// The uncovered time zones: each component's mean snapped to the
    /// nearest whole-hour offset, with its mixing weight.
    pub fn time_zones(&self) -> Vec<(TzOffset, f64)> {
        self.mixture
            .components()
            .iter()
            .map(|c| (snap_zone(c.mean), c.weight))
            .collect()
    }
}

impl fmt::Display for MultiRegionFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.mixture, self.quality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::UserPlacement;

    /// Builds a placement histogram by sampling a Gaussian over the zones.
    fn gaussian_histogram(mean: f64, sigma: f64, n: usize) -> PlacementHistogram {
        let mut placements = Vec::new();
        let mut count = 0usize;
        for k in -11..=12 {
            let z = (k as f64 - mean) / sigma;
            let weight = (-0.5 * z * z).exp();
            let users = (weight * n as f64).round() as usize;
            for i in 0..users {
                placements.push(
                    serde_json::from_str::<UserPlacement>(&format!(
                        r#"{{"user":"u{count}-{i}","zone_hours":{k},"emd":0.1}}"#
                    ))
                    .unwrap(),
                );
                count += 1;
            }
        }
        PlacementHistogram::from_placements(&placements)
    }

    #[test]
    fn single_fit_recovers_zone() {
        for mean in [-6.0, 0.0, 1.0, 8.0] {
            let hist = gaussian_histogram(mean, 2.5, 100);
            let fit = SingleRegionFit::fit(&hist).unwrap();
            assert!(
                (fit.curve().mean - mean).abs() < 0.3,
                "mean {mean}: {}",
                fit.curve()
            );
            assert_eq!(fit.time_zone().whole_hours(), mean as i32);
            assert!(fit.quality().average < 0.02, "{}", fit.quality());
        }
    }

    #[test]
    fn baseline_is_much_worse() {
        let hist = gaussian_histogram(1.0, 2.5, 200);
        let fit = SingleRegionFit::fit(&hist).unwrap();
        let baseline = fit.baseline(&hist).unwrap();
        assert!(
            baseline.average > fit.quality().average * 3.0,
            "baseline {} vs fit {}",
            baseline,
            fit.quality()
        );
    }

    #[test]
    fn multi_fit_selects_one_component_for_single_region() {
        // The bump width matches the known component width: a genuine
        // single-region placement.
        let hist = gaussian_histogram(3.0, SIGMA_COMPONENT, 150);
        let fit = MultiRegionFit::fit(&hist, 4).unwrap();
        assert_eq!(fit.mixture().len(), 1, "{}", fit.mixture());
        let zones = fit.time_zones();
        assert_eq!(zones[0].0.whole_hours(), 3);
    }

    #[test]
    fn multi_fit_recovers_two_regions() {
        // 2/3 at UTC+1, 1/3 at UTC−6 (the Dream Market shape).
        let big = gaussian_histogram(1.0, 2.0, 200);
        let small = gaussian_histogram(-6.0, 2.0, 100);
        let mut placements = Vec::new();
        let mut id = 0usize;
        for (hist, share) in [(&big, 2), (&small, 1)] {
            for k in -11..=12 {
                let users = (hist.fraction_at(k) * hist.users() as f64).round() as usize * share;
                for _ in 0..users {
                    placements.push(
                        serde_json::from_str::<UserPlacement>(&format!(
                            r#"{{"user":"u{id}","zone_hours":{k},"emd":0.1}}"#
                        ))
                        .unwrap(),
                    );
                    id += 1;
                }
            }
        }
        let hist = PlacementHistogram::from_placements(&placements);
        let fit = MultiRegionFit::fit(&hist, 4).unwrap();
        assert_eq!(fit.mixture().len(), 2, "{}", fit.mixture());
        let zones = fit.time_zones();
        assert_eq!(zones[0].0.whole_hours(), 1, "largest at UTC+1");
        assert_eq!(zones[1].0.whole_hours(), -6, "second at UTC-6");
        assert!(zones[0].1 > zones[1].1);
    }

    #[test]
    fn fit_k_forces_component_count() {
        let hist = gaussian_histogram(0.0, 2.5, 120);
        let fit = MultiRegionFit::fit_k(&hist, 2).unwrap();
        assert_eq!(fit.mixture().len(), 2);
    }

    #[test]
    fn empty_histogram_errors() {
        let hist = PlacementHistogram::from_placements(&[]);
        assert!(SingleRegionFit::fit(&hist).is_err());
        assert!(MultiRegionFit::fit(&hist, 3).is_err());
    }

    #[test]
    fn fits_survive_the_date_line() {
        // A crowd at UTC+12 wraps onto UTC−11; both fits must recover the
        // boundary zone instead of being dragged towards the axis middle.
        let mut placements = Vec::new();
        let mut id = 0usize;
        for (zone, n) in [(12i32, 40usize), (11, 25), (-11, 25), (10, 8), (-10, 8)] {
            for _ in 0..n {
                placements.push(UserPlacement::new(format!("u{id}"), zone, 0.1));
                id += 1;
            }
        }
        let hist = PlacementHistogram::from_placements(&placements);
        let single = SingleRegionFit::fit(&hist).unwrap();
        assert_eq!(single.time_zone().whole_hours(), 12, "{}", single.curve());
        let multi = MultiRegionFit::fit(&hist, 3).unwrap();
        assert_eq!(multi.mixture().len(), 1, "{}", multi.mixture());
        let mean = multi.mixture().dominant().unwrap().mean;
        let circ = ((mean - 12.0).abs()).min(24.0 - (mean - 12.0).abs());
        assert!(circ <= 1.0, "mean {mean}");
        // The wrapped fitted series peaks at the boundary.
        let series = multi.fitted_series();
        let peak_idx = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let peak_zone = PlacementHistogram::zone_of(peak_idx);
        assert!(
            peak_zone == 12 || peak_zone == -11,
            "peak at UTC{peak_zone:+}"
        );
    }

    #[test]
    fn snap_zone_wraps() {
        assert_eq!(snap_zone(12.4).whole_hours(), 12);
        assert_eq!(snap_zone(-11.6).whole_hours(), 12); // −12 ≡ +12
        assert_eq!(snap_zone(0.2).whole_hours(), 0);
        assert_eq!(snap_zone(-11.2).whole_hours(), -11);
    }

    #[test]
    fn display() {
        let hist = gaussian_histogram(1.0, 2.5, 100);
        let fit = SingleRegionFit::fit(&hist).unwrap();
        assert!(fit.to_string().contains("UTC+1"));
        let multi = MultiRegionFit::fit(&hist, 3).unwrap();
        assert!(multi.to_string().contains("GMM["));
    }
}
