//! Ablations — quantifying the design choices DESIGN.md §6 calls out:
//!
//! * circular vs linear EMD for placement;
//! * fixed-σ vs free-σ mixture components;
//! * AIC vs BIC component selection;
//! * polishing on vs off under bot contamination;
//! * the paper's 30-post activity threshold vs lower thresholds.

use crowdtz_core::{
    default_threads, ActivityProfile, GenericProfile, GeolocationPipeline, PlacementEngine,
    PlacementHistogram, ProfileBuilder, UserPlacement,
};
use crowdtz_stats::{em, linear_emd, select_components, EmConfig, SelectionCriterion};
use crowdtz_synth::{generate_bot, BotSpec, PopulationSpec};
use crowdtz_time::{RegionDb, TraceSet};

use crate::report::{Config, ExperimentOutput};

/// Runs all ablations and reports the deltas.
pub fn run(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("ablations", "Design-choice ablations");
    let db = RegionDb::extended();
    let users = ((80.0 * config.scale * 4.0) as usize).max(40);

    emd_ablation(&mut out, &db, users, config.seed);
    sigma_and_criterion_ablation(&mut out, &db, users, config.seed);
    polish_ablation(&mut out, &db, users, config.seed);
    threshold_ablation(&mut out, &db, users, config.seed);
    out
}

fn crowd(db: &RegionDb, region: &str, users: usize, seed: u64) -> TraceSet {
    PopulationSpec::new(db.get(&region.into()).expect("region").clone())
        .users(users)
        .posts_per_day(0.6)
        .seed(seed)
        .generate()
}

fn profiles(traces: &TraceSet) -> Vec<ActivityProfile> {
    ProfileBuilder::new().min_posts(30).build(traces)
}

/// Circular vs linear EMD: measure mean |placed − home| on a crowd whose
/// night trough wraps midnight in UTC (Japan, UTC+9).
fn emd_ablation(out: &mut ExperimentOutput, db: &RegionDb, users: usize, seed: u64) {
    let generic = GenericProfile::reference();
    let traces = crowd(db, "japan", users, seed);
    let profs = profiles(&traces);
    let home = 9.0;

    let engine = PlacementEngine::new(&generic);
    let circ_err: f64 = engine
        .place_all(&profs, default_threads())
        .iter()
        .map(|placed| (f64::from(placed.zone_hours()) - home).abs())
        .sum::<f64>()
        / profs.len() as f64;

    // Linear EMD placement, reimplemented for the ablation.
    let lin_err: f64 = profs
        .iter()
        .map(|p| {
            let distribution = p.distribution();
            let mut best = (0i32, f64::INFINITY);
            for k in -11..=12 {
                let d = linear_emd(&distribution, &generic.zone_profile(k));
                if d < best.1 {
                    best = (k, d);
                }
            }
            (f64::from(best.0) - home).abs()
        })
        .sum::<f64>()
        / profs.len() as f64;

    out.line(format!(
        "EMD ablation (Japanese crowd, home UTC+9): mean |error| circular {circ_err:.2} h vs linear {lin_err:.2} h"
    ));
    out.finding(
        "circular EMD ≥ linear EMD accuracy",
        "hours live on a circle; the wrap must not cost accuracy",
        format!("circular {circ_err:.2} vs linear {lin_err:.2}"),
        circ_err <= lin_err + 0.1,
    );
}

/// Fixed-σ + AIC (ours) vs free-σ + BIC (naive) on a 65/35 two-region
/// crowd — the Dream Market shape.
fn sigma_and_criterion_ablation(
    out: &mut ExperimentOutput,
    db: &RegionDb,
    users: usize,
    seed: u64,
) {
    let generic = GenericProfile::reference();
    let engine = PlacementEngine::new(&generic);
    let mut placements: Vec<UserPlacement> = Vec::new();
    for (region, n) in [("germany", users * 2 / 3), ("us-central", users / 3)] {
        let profs = profiles(&crowd(db, region, n, seed ^ region.len() as u64));
        placements.extend(engine.place_all(&profs, default_threads()));
    }
    let hist = PlacementHistogram::from_placements(&placements);
    let counts = hist.counts();
    let xs = PlacementHistogram::xs();

    let ours = crowdtz_core::MultiRegionFit::fit(&hist, 4).expect("fit");
    let naive_cfg = EmConfig::default(); // free σ
    let naive =
        select_components(&xs, &counts, 4, &naive_cfg, SelectionCriterion::Bic).expect("naive fit");

    out.line(format!(
        "ours (fixed σ + AIC + pruning): {}",
        ours.mixture()
    ));
    out.line(format!("naive (free σ + BIC):           {naive}"));
    let ours_found_both = ours.mixture().len() == 2
        && ours
            .mixture()
            .components()
            .iter()
            .any(|c| (c.mean - 1.0).abs() <= 2.0)
        && ours
            .mixture()
            .components()
            .iter()
            .any(|c| (c.mean + 6.0).abs() <= 2.0);
    out.finding(
        "fixed-σ + AIC finds the 65/35 split",
        "two components at UTC+1 and UTC−6",
        format!("{}", ours.mixture()),
        ours_found_both,
    );
    // The naive setup is reported, not asserted — it sometimes works; the
    // point of the ablation is the comparison lines above.
    let _ = em(&xs, &counts, 2, &naive_cfg);
}

/// Polishing on vs off with 25% bot contamination.
fn polish_ablation(out: &mut ExperimentOutput, db: &RegionDb, users: usize, seed: u64) {
    let mut traces = crowd(db, "italy", users, seed ^ 0x9);
    let bots = users / 4;
    for b in 0..bots {
        traces.insert(generate_bot(
            &format!("bot{b}"),
            &BotSpec::default(),
            seed + b as u64,
        ));
    }
    let with = GeolocationPipeline::default()
        .analyze(&traces)
        .expect("with polish");
    let without = GeolocationPipeline::default()
        .polish(false)
        .analyze(&traces)
        .expect("without polish");
    let err = |r: &crowdtz_core::GeolocationReport| {
        (r.mixture().dominant().map(|c| c.mean).unwrap_or(99.0) - 1.0).abs()
    };
    out.line(format!(
        "polish ablation ({bots} bots / {users} humans): with polish err {:.2} h ({} removed), without err {:.2} h",
        err(&with),
        with.flat_removed(),
        err(&without)
    ));
    out.finding(
        "polishing absorbs bot contamination",
        "flat profiles are removed before placement (§IV.C)",
        format!(
            "{} bots removed; dominant error {:.2} h (with) vs {:.2} h (without)",
            with.flat_removed(),
            err(&with),
            err(&without)
        ),
        with.flat_removed() >= bots * 3 / 4 && err(&with) <= err(&without) + 0.3,
    );
}

/// The 30-post activity threshold vs admitting everyone.
fn threshold_ablation(out: &mut ExperimentOutput, db: &RegionDb, users: usize, seed: u64) {
    // A crowd with a casual tail: half the users post ~4 times a year.
    let mut traces = crowd(db, "france", users, seed ^ 0x77);
    let casuals = PopulationSpec::new(db.get(&"france".into()).expect("region").clone())
        .users(users)
        .posts_per_day(0.012)
        .seed(seed ^ 0xCA5)
        .prefix("casual")
        .generate();
    for t in casuals.iter() {
        traces.insert(t.clone());
    }
    let strict = GeolocationPipeline::default()
        .analyze(&traces)
        .expect("strict");
    let loose = GeolocationPipeline::default()
        .min_posts(2)
        .analyze(&traces)
        .expect("loose");
    let err = |r: &crowdtz_core::GeolocationReport| {
        (r.mixture().dominant().map(|c| c.mean).unwrap_or(99.0) - 1.0).abs()
    };
    let sigma_of = |r: &crowdtz_core::GeolocationReport| r.single_fit().curve().sigma;
    out.line(format!(
        "threshold ablation: ≥30 posts → {} users, err {:.2} h, placement σ {:.2}; ≥2 posts → {} users, err {:.2} h, σ {:.2}",
        strict.users_classified(),
        err(&strict),
        sigma_of(&strict),
        loose.users_classified(),
        err(&loose),
        sigma_of(&loose),
    ));
    out.finding(
        "30-post threshold keeps the placement sharp",
        "users with a handful of posts do not give enough information (§IV)",
        format!(
            "σ {:.2} (≥30) vs {:.2} (≥2)",
            sigma_of(&strict),
            sigma_of(&loose)
        ),
        sigma_of(&strict) <= sigma_of(&loose) + 0.05 && err(&strict) <= 1.5,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_pass() {
        let out = run(&Config::test());
        assert!(out.all_ok(), "{out}");
    }
}
