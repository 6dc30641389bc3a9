//! Figures 8–13 — the five Dark Web forums of §V: simulate, scrape over
//! the Tor substrate, calibrate the server clock, geolocate the crowd.

use std::sync::Arc;

use crowdtz_core::{GenericProfile, GeolocationPipeline, GeolocationReport, PlacementHistogram};
use crowdtz_forum::{ForumHost, ForumSpec, Scraper, SimulatedForum};
use crowdtz_obs::Observer;
use crowdtz_stats::{render_bars, render_overlay};
use crowdtz_time::{CivilDateTime, Timestamp};
use crowdtz_tor::TorNetwork;

use crate::report::{Config, ExperimentOutput};

/// The scale applied to forum populations: forums are small enough (≤ 638
/// users) to run near full size even when the Twitter dataset is scaled
/// down, and close components (Pedo Support's UTC−8/−7 vs UTC−3) need the
/// full crowd to resolve.
pub fn forum_scale(config: &Config) -> f64 {
    (config.scale * 7.0).clamp(0.5, 1.0)
}

/// End-to-end analysis of one forum: simulate → publish as a hidden
/// service → scrape through a Tor circuit → calibrate → geolocate.
#[derive(Debug)]
pub struct ForumAnalysis {
    /// The simulated forum (ground truth).
    pub forum: SimulatedForum,
    /// The measured server-clock offset (seconds).
    pub offset_secs: i64,
    /// The geolocation pipeline's report.
    pub report: GeolocationReport,
}

/// Runs the full measurement path against a forum spec.
///
/// # Panics
///
/// Panics if the simulation or analysis fails — experiment presets are
/// sized so they cannot.
pub fn analyze(spec: ForumSpec, config: &Config) -> ForumAnalysis {
    analyze_observed(spec, config, None)
}

/// [`analyze`], with the scraper and the pipeline recording into
/// `observer` instead of the process-global one when it is given.
pub(crate) fn analyze_observed(
    spec: ForumSpec,
    config: &Config,
    observer: Option<Arc<Observer>>,
) -> ForumAnalysis {
    let spec = spec.scaled(forum_scale(config));
    let forum = SimulatedForum::generate(&spec);
    let host = ForumHost::new(forum.clone()).page_size(100);
    let mut network = TorNetwork::with_relays(60, config.seed);
    let address = network
        .publish(host.into_hidden_service(config.seed ^ 0x51))
        .expect("network large enough");
    let channel = network
        .connect(&address, config.seed ^ 0xC1)
        .expect("connect");
    let mut scraper = Scraper::new(channel);
    let mut pipeline = GeolocationPipeline::with_generic(GenericProfile::reference());
    if let Some(observer) = observer {
        scraper = scraper.observer(Arc::clone(&observer));
        pipeline = pipeline.observer(observer);
    }
    let crawl_time =
        Timestamp::from_civil_utc(CivilDateTime::new(2017, 1, 15, 12, 0, 0).expect("valid"));
    let scrape = scraper
        .calibrated_dump(crawl_time)
        .expect("scrape succeeds");
    let offset_secs = scrape.offset_secs().expect("calibrated");
    let report = pipeline
        .analyze(&scrape.utc_traces())
        .expect("non-empty crowd");
    ForumAnalysis {
        forum,
        offset_secs,
        report,
    }
}

fn placement_chart(out: &mut ExperimentOutput, title: &str, analysis: &ForumAnalysis) {
    let hist = analysis.report.histogram();
    let fitted = analysis
        .report
        .mixture()
        .density_all_wrapped(&PlacementHistogram::xs(), 24.0);
    out.line(render_overlay(title, hist.fractions(), &fitted));
    out.line(format!(
        "{} users classified, {} posts; server offset {} s; mixture {}",
        analysis.report.users_classified(),
        analysis.report.posts_classified(),
        analysis.offset_secs,
        analysis.report.mixture()
    ));
    for (zone, weight) in analysis.report.multi_fit().time_zones() {
        out.line(format!(
            "  {:>3.0}% of the crowd in {}",
            weight * 100.0,
            crowdtz_time::zone_label(zone)
        ));
    }
}

fn check_component(
    out: &mut ExperimentOutput,
    analysis: &ForumAnalysis,
    label: &str,
    paper_zone: f64,
    tolerance: f64,
) {
    let means: Vec<String> = analysis
        .report
        .mixture()
        .components()
        .iter()
        .map(|c| format!("{:+.1}(π{:.2})", c.mean, c.weight))
        .collect();
    let hit = analysis
        .report
        .mixture()
        .components()
        .iter()
        .any(|c| (c.mean - paper_zone).abs() <= tolerance);
    out.finding(
        label,
        format!("component near UTC{paper_zone:+.0}"),
        means.join(", "),
        hit,
    );
}

fn check_quality(out: &mut ExperimentOutput, analysis: &ForumAnalysis, paper: &str) {
    let q = analysis.report.quality();
    let baseline = analysis
        .report
        .single_fit()
        .baseline(analysis.report.histogram())
        .map(|b| b.average)
        .unwrap_or(f64::INFINITY);
    out.finding(
        "fit quality ≪ 12h-shift baseline",
        format!("paper: {paper}; baseline avg 0.081"),
        format!("avg {:.3} vs baseline {:.3}", q.average, baseline),
        q.average < baseline,
    );
}

/// Fig. 8 — the CRD Club crowd profile and its correlation with the
/// generic profile (paper: Pearson 0.93).
pub fn run_fig8(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig8", "CRD Club crowd profile (UTC+3)");
    let analysis = analyze(ForumSpec::crd_club(), config);
    let crowd = analysis.report.crowd_profile();
    // Plot in Moscow local hours (UTC+3), as the paper's Fig. 8 does.
    out.line(render_bars(
        "CRD Club crowd, UTC+3 local hours",
        crowd.shifted(3).distribution().as_slice(),
    ));
    let pipeline = GeolocationPipeline::with_generic(GenericProfile::reference());
    let r = pipeline.crowd_correlation(crowd, 3).unwrap_or(0.0);
    out.finding(
        "correlation with generic profile",
        "Pearson 0.93",
        format!("{r:.3} (at UTC+3)"),
        r > 0.85,
    );
    out.finding(
        "crowd volume",
        "209 users, 14,809 posts",
        format!(
            "{} users, {} posts (scale {:.2})",
            analysis.report.users_classified(),
            analysis.report.posts_classified(),
            forum_scale(config)
        ),
        analysis.report.users_classified() > 20,
    );
    out
}

/// Fig. 9 — CRD Club placement: one Gaussian between UTC+3 and UTC+4.
pub fn run_fig9(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig9", "CRD Club placement");
    let analysis = analyze(ForumSpec::crd_club(), config);
    placement_chart(&mut out, "CRD Club placement", &analysis);
    out.finding(
        "number of components",
        "1 (single Gaussian)",
        format!("{}", analysis.report.mixture().len()),
        analysis.report.mixture().len() == 1,
    );
    let mean = analysis
        .report
        .mixture()
        .dominant()
        .map(|c| c.mean)
        .unwrap_or(99.0);
    out.finding(
        "Gaussian mean between UTC+3 and UTC+4",
        "mean ∈ [3, 4]",
        format!("{mean:+.2}"),
        (2.4..=4.6).contains(&mean),
    );
    check_quality(&mut out, &analysis, "avg 0.007, σ 0.006");
    out
}

/// Fig. 10 — Italian DarkNet Community: one component at UTC+1, slightly
/// towards UTC+2.
pub fn run_fig10(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig10", "Italian DarkNet Community placement");
    let analysis = analyze(ForumSpec::idc(), config);
    placement_chart(&mut out, "IDC placement", &analysis);
    out.finding(
        "number of components",
        "1",
        format!("{}", analysis.report.mixture().len()),
        analysis.report.mixture().len() == 1,
    );
    let mean = analysis
        .report
        .mixture()
        .dominant()
        .map(|c| c.mean)
        .unwrap_or(99.0);
    out.finding(
        "component at the Italian zone",
        "peak at UTC+1, shifted towards UTC+2",
        format!("{mean:+.2}"),
        (0.4..=2.2).contains(&mean),
    );
    check_quality(&mut out, &analysis, "σ 0.016, avg 0.014");
    out
}

/// Fig. 11 — Dream Market: two components, the larger at UTC+1, the
/// smaller at UTC−6.
pub fn run_fig11(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig11", "Dream Market placement");
    let analysis = analyze(ForumSpec::dream_market(), config);
    placement_chart(&mut out, "Dream Market placement", &analysis);
    out.finding(
        "number of components",
        "2",
        format!("{}", analysis.report.mixture().len()),
        analysis.report.mixture().len() == 2,
    );
    check_component(&mut out, &analysis, "larger component in Europe", 1.0, 1.5);
    check_component(&mut out, &analysis, "smaller component at UTC−6", -6.0, 1.5);
    let comps = analysis.report.mixture().components();
    let ordered = comps.len() == 2 && comps[0].mean > comps[1].mean;
    out.finding(
        "Europe outweighs America",
        "largest component is the UTC+1 one",
        format!(
            "weights: {:?}",
            comps
                .iter()
                .map(|c| (c.mean.round() as i32, (c.weight * 100.0).round() / 100.0))
                .collect::<Vec<_>>()
        ),
        ordered,
    );
    check_quality(&mut out, &analysis, "avg 0.011, σ 0.008");
    out
}

/// Fig. 12 — The Majestic Garden: larger component at UTC−6, second at
/// UTC+1 ("a mostly American forum").
pub fn run_fig12(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig12", "The Majestic Garden placement");
    let analysis = analyze(ForumSpec::majestic_garden(), config);
    placement_chart(&mut out, "Majestic Garden placement", &analysis);
    out.finding(
        "number of components",
        "2",
        format!("{}", analysis.report.mixture().len()),
        analysis.report.mixture().len() == 2,
    );
    check_component(&mut out, &analysis, "larger component at UTC−6", -6.0, 1.5);
    check_component(&mut out, &analysis, "second component at UTC+1", 1.0, 1.5);
    let comps = analysis.report.mixture().components();
    let american = comps.first().map(|c| c.mean < -3.0).unwrap_or(false);
    out.finding(
        "mostly American forum",
        "dominant component is the UTC−6 one",
        format!(
            "dominant mean {:+.1}",
            comps.first().map(|c| c.mean).unwrap_or(99.0)
        ),
        american,
    );
    check_quality(&mut out, &analysis, "avg 0.009, σ 0.011");
    out
}

/// Fig. 13 — Pedo Support Community: three components at UTC−8/−7, UTC−3,
/// and UTC+4.
pub fn run_fig13(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("fig13", "Pedo Support Community placement");
    let analysis = analyze(ForumSpec::pedo_support(), config);
    placement_chart(&mut out, "Pedo Support placement", &analysis);
    out.finding(
        "number of components",
        "3",
        format!("{}", analysis.report.mixture().len()),
        analysis.report.mixture().len() == 3,
    );
    check_component(
        &mut out,
        &analysis,
        "highest between UTC−8 and UTC−7",
        -7.5,
        1.6,
    );
    check_component(&mut out, &analysis, "second at UTC−3", -3.0, 1.5);
    check_component(&mut out, &analysis, "smallest at UTC+4", 4.0, 1.5);
    check_quality(&mut out, &analysis, "σ 0.012, avg 0.01");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crd_club_lands_in_russia() {
        let out = run_fig9(&Config::test());
        assert!(out.all_ok(), "{out}");
    }

    #[test]
    fn idc_lands_in_italy() {
        let out = run_fig10(&Config::test());
        assert!(out.all_ok(), "{out}");
    }

    #[test]
    fn dream_market_splits_two_regions() {
        let out = run_fig11(&Config::test());
        assert!(out.all_ok(), "{out}");
    }

    #[test]
    fn fig8_correlation_holds() {
        let out = run_fig8(&Config::test());
        assert!(out.all_ok(), "{out}");
    }

    #[test]
    fn majestic_garden_is_mostly_american() {
        let out = run_fig12(&Config::test());
        assert!(out.all_ok(), "{out}");
    }

    #[test]
    fn pedo_support_resolves_three_components() {
        let out = run_fig13(&Config::test());
        assert!(out.all_ok(), "{out}");
    }
}
