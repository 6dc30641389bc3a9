//! The accuracy ledger: recovered zones and mixture weights against
//! synthetic ground truth, one seeded row per `{scenario, grid, seed}`.
//!
//! The shape checks of the other experiments are pass/fail and accept a
//! zone within ±2 h, so a fit can drift by an hour unnoticed. The ledger
//! records *how far* each answer is from the truth instead, and
//! `tools/obs_gate.py --accuracy base.json cur.json` fails a change whose
//! ledger is worse than the baseline's:
//!
//! * a true component's snapped zone flips;
//! * a row's mean zone error grows by more than 6 min, or its mean weight
//!   error by more than 0.01;
//! * a row's spurious weight grows, or its share of fits with the wrong
//!   component count grows;
//! * a perfbench-shaped publish that met the zone rule stops meeting it.
//!
//! **Rows.** Each row holds the true components (standard offset in
//! minutes, crowd share) and the recovered ones; `k_true` counts the
//! distinct standard offsets and `k_recovered` the mixture components.
//! For each true component it records the circular error in minutes to
//! its nearest recovered component, the recovered mean snapped to the
//! grid's step, and its weight error: the gap between its share and the
//! recovered weight attributed to it (each recovered component goes to
//! its nearest true component within ±3 h). Recovered weight farther than
//! 3 h from every true component is *spurious*. The Table II goodness of
//! the fit (average and standard deviation) is recorded beside them.
//!
//! **Scenarios,** three seeds each: single-country crowds at UTC+1,
//! UTC−6 and UTC+12 (the wrap); two-country mixtures 65/35 at +1/−6,
//! 50/50 at +1/+9 and a close +1/+4 pair; the five forum presets through
//! the full scrape path; India (+5:30) and Nepal (+5:45) on the 48- and
//! 96-zone grids; a heavy-tailed, bot-laden crowd after Tavabi et al.;
//! and the X3 partial-compliance adversary.
//!
//! **The perfbench shapes,** replayed in process for seeds 1–10 through
//! the tenant engine the server runs: Dream Market ×10 through the
//! 26-week daily window (a 182-day preload, then 35 daily publishes) and
//! Dream Market ×20 with weekly publishes. Each publish records its
//! component count and whether perfbench's zone rule holds (the two
//! heaviest components within ±2 h of UTC+1 and UTC−6).
//!
//! The ledger is a fixed benchmark: it ignores `--scale` and `--seed`, so
//! every run of the same code writes the same `BENCH_accuracy.json`.

use std::ops::Range;
use std::sync::Arc;

use serde::Serialize;

use crowdtz_core::{
    CoreError, GeolocationPipeline, GeolocationReport, Tenant, TenantConfig, TenantRegistry,
    WindowConfig, ZoneGrid,
};
use crowdtz_forum::{ForumSpec, SimulatedForum};
use crowdtz_obs::{LogLevel, Observer};
use crowdtz_synth::{
    generate_bot, generate_shift_worker, BotSpec, PopulationSpec, ShiftWorkerSpec,
};
use crowdtz_time::{RegionDb, Timestamp, TraceSet};

use crate::report::{Config, ExperimentOutput};

/// Where `repro accuracy` writes the ledger, relative to the working
/// directory.
pub const LEDGER_PATH: &str = "BENCH_accuracy.json";

/// Seeds of the synthetic scenarios.
const SCENARIO_SEEDS: Range<u64> = 1..4;
/// Seeds of the perfbench-shaped replays.
const SHAPE_SEEDS: Range<u64> = 1..11;
/// A recovered component farther than this from every true component
/// (minutes, on the 24 h circle) is spurious.
const MATCH_MINUTES: f64 = 180.0;
const MINUTES_PER_DAY: f64 = 1_440.0;
const DAY: i64 = 86_400;
const WEEK: i64 = 7 * DAY;

/// One mixture component as the ledger records it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Component {
    /// Zone in minutes east of UTC (the mean, for a recovered component).
    pub zone_min: f64,
    /// Crowd share (the mixing weight, for a recovered component).
    pub weight: f64,
}

/// How one fit compares with the truth.
#[derive(Debug, Clone, PartialEq)]
struct Score {
    recovered: Vec<Component>,
    /// Per true component: circular minutes to the nearest recovered one.
    zone_error_min: Vec<f64>,
    /// Per true component: that nearest recovered mean, snapped to the
    /// grid's step (minutes).
    snapped_zone_min: Vec<i32>,
    /// Per true component: |share − recovered weight attributed to it|.
    weight_error: Vec<f64>,
    spurious_weight: f64,
}

/// Circular distance between two zones in minutes.
fn circular_minutes(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(MINUTES_PER_DAY);
    d.min(MINUTES_PER_DAY - d)
}

/// Snaps a zone to the nearest multiple of `step` minutes, wrapped into
/// (−12 h, +12 h].
fn snap(zone_min: f64, step: i32) -> i32 {
    let snapped = (zone_min / f64::from(step)).round() as i32 * step;
    (snapped + 719).rem_euclid(1_440) - 719
}

fn score(truth: &[Component], report: &GeolocationReport, step: i32) -> Score {
    let recovered: Vec<Component> = report
        .mixture()
        .components()
        .iter()
        .map(|c| Component {
            zone_min: c.mean * 60.0,
            weight: c.weight,
        })
        .collect();
    let mut attributed = vec![0.0; truth.len()];
    let mut spurious_weight = 0.0;
    for r in &recovered {
        let nearest = truth
            .iter()
            .enumerate()
            .map(|(i, t)| (i, circular_minutes(t.zone_min, r.zone_min)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match nearest {
            Some((i, d)) if d <= MATCH_MINUTES => attributed[i] += r.weight,
            _ => spurious_weight += r.weight,
        }
    }
    let mut zone_error_min = Vec::with_capacity(truth.len());
    let mut snapped_zone_min = Vec::with_capacity(truth.len());
    for t in truth {
        let nearest = recovered
            .iter()
            .min_by(|a, b| {
                circular_minutes(t.zone_min, a.zone_min)
                    .total_cmp(&circular_minutes(t.zone_min, b.zone_min))
            })
            .expect("a fitted mixture has a component");
        zone_error_min.push(circular_minutes(t.zone_min, nearest.zone_min));
        snapped_zone_min.push(snap(nearest.zone_min, step));
    }
    let weight_error = truth
        .iter()
        .zip(&attributed)
        .map(|(t, a)| (t.weight - a).abs())
        .collect();
    Score {
        recovered,
        zone_error_min,
        snapped_zone_min,
        weight_error,
        spurious_weight,
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

fn rounded(components: &[Component]) -> Vec<Component> {
    components
        .iter()
        .map(|c| Component {
            zone_min: round_to(c.zone_min, 1),
            weight: round_to(c.weight, 4),
        })
        .collect()
}

/// One `{scenario, grid, seed}` fit against its truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioRow {
    /// Scenario id.
    pub scenario: String,
    /// Zones on the placement grid (24, 48 or 96).
    pub grid: usize,
    /// Seed of the synthetic crowd.
    pub seed: u64,
    /// Distinct standard offsets in the crowd.
    pub k_true: usize,
    /// Components of the fitted mixture.
    pub k_recovered: usize,
    /// The truth: standard offsets and crowd shares.
    pub true_components: Vec<Component>,
    /// The fitted mixture, heaviest first.
    pub recovered: Vec<Component>,
    /// Per true component: minutes to the nearest recovered mean.
    pub zone_error_min: Vec<f64>,
    /// Per true component: that mean snapped to the grid's step.
    pub snapped_zone_min: Vec<i32>,
    /// Per true component: share minus attributed weight, absolute.
    pub weight_error: Vec<f64>,
    /// Recovered weight more than 3 h from every true component.
    pub spurious_weight: f64,
    /// Table II goodness: average point distance.
    pub goodness_avg: f64,
    /// Table II goodness: standard deviation of the point distances.
    pub goodness_std: f64,
}

impl ScenarioRow {
    fn new(
        scenario: &str,
        seed: u64,
        truth: &[Component],
        report: &GeolocationReport,
    ) -> ScenarioRow {
        let grid = report.histogram().grid();
        let s = score(truth, report, grid.step_minutes());
        let quality = report.quality();
        ScenarioRow {
            scenario: scenario.to_owned(),
            grid: grid.zones(),
            seed,
            k_true: truth.len(),
            k_recovered: s.recovered.len(),
            true_components: rounded(truth),
            recovered: rounded(&s.recovered),
            zone_error_min: s.zone_error_min.iter().map(|&e| round_to(e, 1)).collect(),
            snapped_zone_min: s.snapped_zone_min,
            weight_error: s.weight_error.iter().map(|&e| round_to(e, 4)).collect(),
            spurious_weight: round_to(s.spurious_weight, 4),
            goodness_avg: round_to(quality.average, 5),
            goodness_std: round_to(quality.standard_deviation, 5),
        }
    }
}

/// One perfbench-shaped replay: every publish of one seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShapeRow {
    /// `perfbench-dashboard` or `perfbench-backfill`.
    pub scenario: String,
    /// Zones on the placement grid.
    pub grid: usize,
    /// Forum seed.
    pub seed: u64,
    /// Dream Market's two standard offsets.
    pub k_true: usize,
    /// The truth.
    pub true_components: Vec<Component>,
    /// Publishes replayed.
    pub publishes: usize,
    /// Component count of each publish.
    pub k: Vec<usize>,
    /// Whether each publish meets perfbench's zone rule.
    pub zone_rule: Vec<bool>,
    /// Share of publishes whose component count is not `k_true`.
    pub k_mismatch_share: f64,
    /// Share of publishes with any spurious weight.
    pub spurious_share: f64,
    /// Spurious weight, averaged over publishes.
    pub spurious_weight: f64,
    /// Zone error (mean over true components), averaged over publishes.
    pub zone_error_min: f64,
    /// Weight error (mean over true components), averaged over publishes.
    pub weight_error: f64,
    /// The last publish's fitted mixture (the one perfbench checks).
    pub last_recovered: Vec<Component>,
    /// The last publish's snapped zone per true component.
    pub last_snapped_zone_min: Vec<i32>,
}

/// Appends the figures every row gates: its mean zone error, mean weight
/// error, spurious weight and `k` mismatch (lower is better), and the
/// snapped zone of each true component (must not change).
fn gate_rows(
    rows: &mut Vec<MetricRow>,
    key: &str,
    lower: [f64; 4],
    truth: &[Component],
    snapped: &[i32],
) {
    const LOWER: [(&str, &str); 4] = [
        ("zone_error_min", "min"),
        ("weight_error", "weight"),
        ("spurious_weight", "weight"),
        ("k_mismatch", "share"),
    ];
    for ((metric, unit), value) in LOWER.into_iter().zip(lower) {
        rows.push(MetricRow {
            name: format!("{key}/{metric}"),
            value,
            unit,
            better: "lower",
        });
    }
    for (t, z) in truth.iter().zip(snapped) {
        rows.push(MetricRow {
            name: format!("{key}/snapped_zone_min/{}", t.zone_min),
            value: f64::from(*z),
            unit: "min",
            better: "equal",
        });
    }
}

/// The whole ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Synthetic scenarios, forum presets and the adversary.
    pub scenarios: Vec<ScenarioRow>,
    /// The perfbench shapes.
    pub shapes: Vec<ShapeRow>,
    /// EM iterations per mixture fit over the perfbench-shape replays
    /// (`streaming.em_iterations` over `streaming.fit` calls): the fit's
    /// cost, recorded beside its accuracy and not gated here.
    pub shape_em_iterations_per_fit: f64,
}

/// One gated figure in the `{name, value, unit, better}` row schema
/// `tools/obs_gate.py` reads. `better` is `lower`, `higher` or `equal`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricRow {
    /// `scenario/grid/seed/metric[/index]`; the gate picks its tolerance
    /// by the `metric` segment.
    pub name: String,
    /// The figure.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: &'static str,
}

impl Ledger {
    /// The gated figures of every row.
    pub fn metrics(&self) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for r in &self.scenarios {
            let lower = [
                round_to(mean(&r.zone_error_min), 1),
                round_to(mean(&r.weight_error), 4),
                r.spurious_weight,
                f64::from(u8::from(r.k_recovered != r.k_true)),
            ];
            let key = format!("{}/{}/{}", r.scenario, r.grid, r.seed);
            gate_rows(
                &mut rows,
                &key,
                lower,
                &r.true_components,
                &r.snapped_zone_min,
            );
        }
        for r in &self.shapes {
            let lower = [
                r.zone_error_min,
                r.weight_error,
                r.spurious_weight,
                r.k_mismatch_share,
            ];
            let key = format!("{}/{}/{}", r.scenario, r.grid, r.seed);
            gate_rows(
                &mut rows,
                &key,
                lower,
                &r.true_components,
                &r.last_snapped_zone_min,
            );
            for (i, ok) in r.zone_rule.iter().enumerate() {
                rows.push(MetricRow {
                    name: format!("{key}/zone_rule/{i}"),
                    value: f64::from(u8::from(*ok)),
                    unit: "bool",
                    better: "higher",
                });
            }
        }
        rows
    }

    /// Share of Dream Market publishes (both perfbench shapes, every
    /// seed) with any spurious weight.
    pub fn shape_spurious_share(&self) -> f64 {
        let publishes: usize = self.shapes.iter().map(|r| r.publishes).sum();
        let spurious: f64 = self
            .shapes
            .iter()
            .map(|r| r.spurious_share * r.publishes as f64)
            .sum();
        spurious / publishes.max(1) as f64
    }

    /// The ledger as `BENCH_accuracy.json` holds it: one row per line, so
    /// a diff of two ledgers reads row by row.
    pub fn to_json(&self) -> String {
        fn lines<T: Serialize>(rows: &[T]) -> String {
            rows.iter()
                .map(|r| format!("    {}", serde_json::to_string(r).expect("rows serialize")))
                .collect::<Vec<_>>()
                .join(",\n")
        }
        format!(
            "{{\n  \"experiment\": \"accuracy\",\n  \"shape_spurious_share\": {},\n  \
             \"shape_em_iterations_per_fit\": {},\n  \
             \"scenarios\": [\n{}\n  ],\n  \"shapes\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
            round_to(self.shape_spurious_share(), 4),
            self.shape_em_iterations_per_fit,
            lines(&self.scenarios),
            lines(&self.shapes),
            lines(&self.metrics()),
        )
    }
}

// ---- ground truth -------------------------------------------------------

fn offset_minutes(region: &str) -> f64 {
    let db = RegionDb::extended();
    let region = db
        .get(&region.into())
        .unwrap_or_else(|| panic!("region {region} is in the database"));
    (region.standard_offset().hours() * 60.0).round()
}

/// Groups `(zone minutes, share)` pairs by zone, summing shares, in
/// descending share order.
fn truth_of(parts: &[(f64, f64)]) -> Vec<Component> {
    let total: f64 = parts.iter().map(|p| p.1).sum();
    let mut truth: Vec<Component> = Vec::new();
    for &(zone_min, share) in parts {
        match truth.iter_mut().find(|c| c.zone_min == zone_min) {
            Some(c) => c.weight += share / total,
            None => truth.push(Component {
                zone_min,
                weight: share / total,
            }),
        }
    }
    truth.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    truth
}

// ---- synthetic crowds -----------------------------------------------------

fn population(region: &str, users: usize, posts_per_day: f64, seed: u64, tag: &str) -> TraceSet {
    let db = RegionDb::extended();
    PopulationSpec::new(db.get(&region.into()).expect("known region").clone())
        .users(users)
        .posts_per_day(posts_per_day)
        .seed(seed)
        .prefix(format!("{tag}-{region}-"))
        .generate()
}

fn merged(sets: impl IntoIterator<Item = TraceSet>) -> TraceSet {
    let mut all = TraceSet::new();
    for set in sets {
        for trace in set.iter() {
            all.insert(trace.clone());
        }
    }
    all
}

fn analyze(traces: &TraceSet, grid: ZoneGrid) -> GeolocationReport {
    GeolocationPipeline::default()
        .grid(grid)
        .observer(own_observer())
        .analyze(traces)
        .expect("ledger crowds are analyzable")
}

/// A silent observer for the ledger's own engines. The ledger replays
/// about a million posts whatever `--scale` says; recording that into the
/// process-wide observer would swamp the stage totals and work counters
/// that a `repro --obs-out` run report holds for the paper's experiments.
fn own_observer() -> Arc<Observer> {
    Observer::with_level(LogLevel::Off)
}

/// A crowd of `users` split over `(region, share)` parts.
fn mixture_crowd(parts: &[(&str, f64)], users: usize, seed: u64) -> TraceSet {
    merged(parts.iter().enumerate().map(|(i, &(region, share))| {
        let n = (users as f64 * share).round() as usize;
        population(region, n, 0.6, seed * 31 + i as u64, "m")
    }))
}

fn mixture_row(scenario: &str, parts: &[(&str, f64)], seed: u64) -> ScenarioRow {
    let traces = mixture_crowd(parts, 200, seed);
    let truth = truth_of(
        &parts
            .iter()
            .map(|&(region, share)| (offset_minutes(region), share))
            .collect::<Vec<_>>(),
    );
    ScenarioRow::new(scenario, seed, &truth, &analyze(&traces, ZoneGrid::Hourly))
}

/// A Japanese (UTC+9, no DST) crowd observed three hours earlier: a
/// UTC+12 crowd that straddles the date line.
fn wrap_row(seed: u64) -> ScenarioRow {
    let traces = population("japan", 150, 0.6, seed, "w").shifted_secs(-3 * 3_600);
    let truth = [Component {
        zone_min: 720.0,
        weight: 1.0,
    }];
    ScenarioRow::new(
        "single-utc+12",
        seed,
        &truth,
        &analyze(&traces, ZoneGrid::Hourly),
    )
}

fn fine_grid_row(region: &str, grid: ZoneGrid, seed: u64) -> ScenarioRow {
    let traces = population(region, 120, 0.6, seed, "g");
    let truth = truth_of(&[(offset_minutes(region), 1.0)]);
    ScenarioRow::new(region, seed, &truth, &analyze(&traces, grid))
}

/// After Tavabi et al.'s dark-web activity: a 60/40 Germany / US-Eastern
/// crowd whose per-user rates are heavy-tailed (40 % post every week or
/// so, 10 % several times a day), plus bots and rotating-shift workers
/// that carry no zone and must be polished away.
fn bot_laden_row(seed: u64) -> ScenarioRow {
    const TIERS: [(f64, f64); 4] = [(0.15, 0.4), (0.4, 0.3), (1.2, 0.2), (4.0, 0.1)];
    const HUMANS: f64 = 200.0;
    let mut sets = Vec::new();
    for (t, &(rate, share)) in TIERS.iter().enumerate() {
        for (c, (region, part)) in [("germany", 0.6), ("us-eastern", 0.4)].iter().enumerate() {
            let n = (HUMANS * share * part).round() as usize;
            let tag = format!("h{t}");
            sets.push(population(
                region,
                n,
                rate,
                seed * 97 + (t * 2 + c) as u64,
                &tag,
            ));
        }
    }
    let mut machines = TraceSet::new();
    let bot = BotSpec {
        posts_per_day: 6.0,
        ..BotSpec::default()
    };
    for i in 0..24u64 {
        machines.insert(generate_bot(&format!("bot-{i}"), &bot, seed * 1_000 + i));
    }
    let shift = ShiftWorkerSpec {
        posts_per_day: 2.0,
        ..ShiftWorkerSpec::default()
    };
    for i in 0..12u64 {
        machines.insert(generate_shift_worker(
            &format!("shift-{i}"),
            &shift,
            seed * 1_000 + 500 + i,
        ));
    }
    sets.push(machines);
    let traces = merged(sets);
    let truth = truth_of(&[
        (offset_minutes("germany"), 0.6),
        (offset_minutes("us-eastern"), 0.4),
    ]);
    ScenarioRow::new(
        "bot-laden",
        seed,
        &truth,
        &analyze(&traces, ZoneGrid::Hourly),
    )
}

/// The X3 adversary at partial compliance: a third of an Italian crowd
/// re-times every post to look like UTC−6. The method measures activity,
/// so the truth it should report is that split.
fn adversary_row(seed: u64) -> ScenarioRow {
    let traces = population("italy", 180, 0.6, seed, "x3");
    let partial = crate::adversarial::partial_compliance(&traces);
    let truth = truth_of(&[(offset_minutes("italy"), 2.0), (-360.0, 1.0)]);
    ScenarioRow::new(
        "x3-partial-compliance",
        seed,
        &truth,
        &analyze(&partial, ZoneGrid::Hourly),
    )
}

fn forum_row(id: &str, spec: ForumSpec, seed: u64) -> ScenarioRow {
    let db = RegionDb::extended();
    let parts: Vec<(f64, f64)> = spec
        .components()
        .iter()
        .map(|c| {
            let region = db.get(c.region()).expect("preset regions exist");
            (
                (region.standard_offset().hours() * 60.0).round(),
                c.weight(),
            )
        })
        .collect();
    let config = Config { scale: 1.0, seed };
    let forum_seed = spec.seed_value() ^ seed;
    let analysis =
        crate::forums::analyze_observed(spec.seed(forum_seed), &config, Some(own_observer()));
    ScenarioRow::new(id, seed, &truth_of(&parts), &analysis.report)
}

fn scenario_rows() -> Vec<ScenarioRow> {
    let mut rows = Vec::new();
    for seed in SCENARIO_SEEDS {
        for (scenario, region) in [("single-utc+1", "germany"), ("single-utc-6", "illinois")] {
            let traces = population(region, 150, 0.6, seed, "s");
            let truth = truth_of(&[(offset_minutes(region), 1.0)]);
            rows.push(ScenarioRow::new(
                scenario,
                seed,
                &truth,
                &analyze(&traces, ZoneGrid::Hourly),
            ));
        }
        rows.push(wrap_row(seed));
        rows.push(mixture_row(
            "mix-65:35-utc+1:utc-6",
            &[("germany", 0.65), ("us-central", 0.35)],
            seed,
        ));
        rows.push(mixture_row(
            "mix-50:50-utc+1:utc+9",
            &[("germany", 0.5), ("japan", 0.5)],
            seed,
        ));
        rows.push(mixture_row(
            "mix-close-utc+1:utc+4",
            &[("germany", 0.6), ("uae", 0.4)],
            seed,
        ));
        for (id, spec) in [
            ("crd-club", ForumSpec::crd_club()),
            ("idc", ForumSpec::idc()),
            ("dream-market", ForumSpec::dream_market()),
            ("majestic-garden", ForumSpec::majestic_garden()),
            ("pedo-support", ForumSpec::pedo_support()),
        ] {
            rows.push(forum_row(id, spec, seed));
        }
        for region in ["india", "nepal"] {
            for grid in [ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
                rows.push(fine_grid_row(region, grid, seed));
            }
        }
        rows.push(bot_laden_row(seed));
        rows.push(adversary_row(seed));
    }
    rows
}

// ---- the perfbench shapes -------------------------------------------------

/// perfbench's zone rule: the two heaviest components lie within ±2 h of
/// UTC+1 and UTC−6.
fn zone_rule(report: &GeolocationReport) -> bool {
    let near = |mean: f64, zone: f64| circular_minutes(mean * 60.0, zone * 60.0) <= 120.0;
    match report.mixture().components() {
        [a, b, ..] => {
            (near(a.mean, 1.0) && near(b.mean, -6.0)) || (near(a.mean, -6.0) && near(b.mean, 1.0))
        }
        _ => false,
    }
}

/// Dream Market ×`scale`'s posts as `(author, time)`, in time order,
/// grouped into consecutive runs of equal `period`-second slices.
fn dream_market_periods(scale: f64, seed: u64, period: i64) -> Vec<Vec<(String, Timestamp)>> {
    let forum = SimulatedForum::generate(&ForumSpec::dream_market().scaled(scale).seed(seed));
    let mut periods: Vec<Vec<(String, Timestamp)>> = Vec::new();
    let mut current = None;
    for post in forum.posts() {
        let slice = post.true_time().as_secs().div_euclid(period);
        if current != Some(slice) {
            periods.push(Vec::new());
            current = Some(slice);
        }
        periods
            .last_mut()
            .expect("just pushed")
            .push((post.author().to_owned(), post.true_time()));
    }
    periods
}

fn ingest(tenant: &Tenant, writer: &crowdtz_core::IngestWriter, posts: &[(String, Timestamp)]) {
    match tenant.window() {
        Some(window) => window.ingest_posts(writer, posts),
        None => writer.ingest_posts_ref(posts),
    }
    .expect("in-memory ingest cannot fail");
}

fn publish(tenant: &Tenant) -> Result<GeolocationReport, CoreError> {
    let published = match tenant.window() {
        Some(window) => window.publish(),
        None => tenant.engine().publish(),
    }?;
    Ok(published.report().clone())
}

fn shape_row(scenario: &str, seed: u64, reports: &[GeolocationReport]) -> ShapeRow {
    let truth = [
        Component {
            zone_min: 60.0,
            weight: 0.65,
        },
        Component {
            zone_min: -360.0,
            weight: 0.35,
        },
    ];
    let scores: Vec<Score> = reports.iter().map(|r| score(&truth, r, 60)).collect();
    let n = reports.len().max(1) as f64;
    let share = |f: &dyn Fn(&Score) -> bool| scores.iter().filter(|s| f(s)).count() as f64 / n;
    let last = scores.last().expect("every shape publishes");
    ShapeRow {
        scenario: scenario.to_owned(),
        grid: 24,
        seed,
        k_true: truth.len(),
        true_components: truth.to_vec(),
        publishes: reports.len(),
        k: scores.iter().map(|s| s.recovered.len()).collect(),
        zone_rule: reports.iter().map(zone_rule).collect(),
        k_mismatch_share: round_to(share(&|s| s.recovered.len() != truth.len()), 4),
        spurious_share: round_to(share(&|s| s.spurious_weight > 0.0), 4),
        spurious_weight: round_to(scores.iter().map(|s| s.spurious_weight).sum::<f64>() / n, 4),
        zone_error_min: round_to(
            scores.iter().map(|s| mean(&s.zone_error_min)).sum::<f64>() / n,
            1,
        ),
        weight_error: round_to(
            scores.iter().map(|s| mean(&s.weight_error)).sum::<f64>() / n,
            4,
        ),
        last_recovered: rounded(&last.recovered),
        last_snapped_zone_min: last.snapped_zone_min.clone(),
    }
}

/// perfbench's `dashboard`: Dream Market ×10 on a 26-week window of
/// daily buckets; 182 days preloaded, then 35 daily publishes.
fn dashboard_shape(seed: u64, observer: &Arc<Observer>) -> ShapeRow {
    const WINDOW_DAYS: usize = 182;
    const LIVE_DAYS: usize = 35;
    let days = dream_market_periods(10.0, seed, DAY);
    let registry = TenantRegistry::new();
    let config = TenantConfig {
        threads: 1,
        min_posts: 20,
        window: Some(WindowConfig {
            bucket_secs: DAY,
            window_buckets: WINDOW_DAYS,
            ..WindowConfig::default()
        }),
        ..TenantConfig::default()
    };
    let tenant = registry
        .create("dashboard", config, Some(Arc::clone(observer)))
        .expect("an in-memory tenant opens");
    let writer = tenant.engine().writer();
    for day in &days[..WINDOW_DAYS] {
        ingest(&tenant, &writer, day);
    }
    publish(&tenant).expect("the preloaded window publishes");
    let reports: Vec<GeolocationReport> = days[WINDOW_DAYS..WINDOW_DAYS + LIVE_DAYS]
        .iter()
        .map(|day| {
            ingest(&tenant, &writer, day);
            publish(&tenant).expect("a live day publishes")
        })
        .collect();
    shape_row("perfbench-dashboard", seed, &reports)
}

/// perfbench's `backfill`: Dream Market ×20 crawled for a year, published
/// at the end of every week that has an analyzable crowd.
fn backfill_shape(seed: u64, observer: &Arc<Observer>) -> ShapeRow {
    let weeks = dream_market_periods(20.0, seed, WEEK);
    let registry = TenantRegistry::new();
    let config = TenantConfig {
        threads: 1,
        ..TenantConfig::default()
    };
    let tenant = registry
        .create("backfill", config, Some(Arc::clone(observer)))
        .expect("an in-memory tenant opens");
    let writer = tenant.engine().writer();
    let mut reports = Vec::new();
    for week in &weeks {
        ingest(&tenant, &writer, week);
        match publish(&tenant) {
            Ok(report) => reports.push(report),
            Err(CoreError::EmptyCrowd) => {}
            Err(e) => panic!("backfill publish failed: {e}"),
        }
    }
    shape_row("perfbench-backfill", seed, &reports)
}

/// Computes every row of the ledger.
pub fn ledger() -> Ledger {
    let observer = own_observer();
    let mut shapes = Vec::new();
    for seed in SHAPE_SEEDS {
        shapes.push(dashboard_shape(seed, &observer));
    }
    for seed in SHAPE_SEEDS {
        shapes.push(backfill_shape(seed, &observer));
    }
    let em_iterations = observer
        .snapshot()
        .counters
        .get("streaming.em_iterations")
        .copied()
        .unwrap_or(0);
    let fits = observer
        .stage_timings()
        .iter()
        .find(|s| s.name == "streaming.fit")
        .map_or(0, |s| s.calls);
    Ledger {
        scenarios: scenario_rows(),
        shapes,
        shape_em_iterations_per_fit: round_to(em_iterations as f64 / fits.max(1) as f64, 1),
    }
}

fn components_text(components: &[Component]) -> String {
    components
        .iter()
        .map(|c| format!("{:+.0}m π{:.2}", c.zone_min, c.weight))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the ledger as an experiment output: one line per row, and the
/// shape checks every ledger must pass.
pub fn report(ledger: &Ledger) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("accuracy", "Accuracy ledger against ground truth");
    out.line(format!(
        "{:<24} {:>4} {:>4} {:>3}/{:<3} {:>8} {:>8} {:>8}  recovered",
        "scenario", "grid", "seed", "k", "true", "zone err", "w err", "spurious"
    ));
    for r in &ledger.scenarios {
        out.line(format!(
            "{:<24} {:>4} {:>4} {:>3}/{:<3} {:>7.1}m {:>8.4} {:>8.4}  {}",
            r.scenario,
            r.grid,
            r.seed,
            r.k_recovered,
            r.k_true,
            mean(&r.zone_error_min),
            mean(&r.weight_error),
            r.spurious_weight,
            components_text(&r.recovered)
        ));
    }
    out.line(format!(
        "{:<24} {:>4} {:>9} {:>9} {:>8} {:>8} {:>8}  zone rule",
        "shape", "seed", "k≠k_true", "spurious", "zone err", "w err", "spur w"
    ));
    for r in &ledger.shapes {
        let held = r.zone_rule.iter().filter(|&&ok| ok).count();
        out.line(format!(
            "{:<24} {:>4} {:>9.3} {:>9.3} {:>7.1}m {:>8.4} {:>8.4}  {held}/{}",
            r.scenario,
            r.seed,
            r.k_mismatch_share,
            r.spurious_share,
            r.zone_error_min,
            r.weight_error,
            r.spurious_weight,
            r.publishes
        ));
    }
    out.line(format!(
        "Dream Market publishes with a spurious component: {:.1} %; \
         EM iterations per fit: {:.1}",
        100.0 * ledger.shape_spurious_share(),
        ledger.shape_em_iterations_per_fit
    ));

    let last_ok = ledger
        .shapes
        .iter()
        .filter(|r| r.zone_rule.last() == Some(&true))
        .count();
    out.finding(
        "perfbench zone rule, last publish",
        "two heaviest components near UTC+1 and UTC-6",
        format!("{last_ok}/{} replays", ledger.shapes.len()),
        last_ok == ledger.shapes.len(),
    );
    let singles: Vec<&ScenarioRow> = ledger
        .scenarios
        .iter()
        .filter(|r| r.scenario.starts_with("single-"))
        .collect();
    let worst = singles
        .iter()
        .map(|r| mean(&r.zone_error_min))
        .fold(0.0, f64::max);
    out.finding(
        "single-country zone error",
        "the Gaussian centre uncovers the home zone",
        format!("worst {worst:.0} min over {} crowds", singles.len()),
        worst <= 60.0,
    );
    out
}

/// Runs the ledger, writes it to [`LEDGER_PATH`] and reports it.
pub fn run(_config: &Config) -> ExperimentOutput {
    let ledger = ledger();
    let mut out = report(&ledger);
    match std::fs::write(LEDGER_PATH, ledger.to_json()) {
        Ok(()) => out.line(format!("wrote {LEDGER_PATH}")),
        Err(e) => out.finding(
            "ledger written",
            LEDGER_PATH,
            format!("cannot write: {e}"),
            false,
        ),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_distance_and_snapping_wrap() {
        assert_eq!(circular_minutes(690.0, -690.0), 60.0);
        assert_eq!(circular_minutes(60.0, -360.0), 420.0);
        assert_eq!(snap(715.0, 60), 720);
        assert_eq!(snap(-700.0, 60), 720, "−12 h is +12 h");
        assert_eq!(snap(-660.0, 60), -660);
        assert_eq!(snap(340.0, 15), 345);
        assert_eq!(snap(340.0, 30), 330);
    }

    #[test]
    fn truth_groups_parts_by_zone() {
        let truth = truth_of(&[(60.0, 0.24), (60.0, 0.41), (-360.0, 0.35)]);
        assert_eq!(truth.len(), 2);
        assert_eq!(truth[0].zone_min, 60.0);
        assert!((truth[0].weight - 0.65).abs() < 1e-12);
    }

    #[test]
    fn metric_rows_carry_the_gate_schema() {
        let row = ScenarioRow {
            scenario: "s".into(),
            grid: 24,
            seed: 1,
            k_true: 2,
            k_recovered: 3,
            true_components: vec![
                Component {
                    zone_min: 60.0,
                    weight: 0.65,
                },
                Component {
                    zone_min: -360.0,
                    weight: 0.35,
                },
            ],
            recovered: Vec::new(),
            zone_error_min: vec![10.0, 20.0],
            snapped_zone_min: vec![60, -360],
            weight_error: vec![0.01, 0.03],
            spurious_weight: 0.1,
            goodness_avg: 0.0,
            goodness_std: 0.0,
        };
        let ledger = Ledger {
            scenarios: vec![row],
            shapes: Vec::new(),
            shape_em_iterations_per_fit: 0.0,
        };
        let metrics = ledger.metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "s/24/1/zone_error_min",
                "s/24/1/weight_error",
                "s/24/1/spurious_weight",
                "s/24/1/k_mismatch",
                "s/24/1/snapped_zone_min/60",
                "s/24/1/snapped_zone_min/-360",
            ]
        );
        assert_eq!(metrics[0].value, 15.0);
        assert_eq!(metrics[3].value, 1.0);
        assert_eq!(metrics[5].better, "equal");
        let json = ledger.to_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("the ledger parses");
        assert!(doc.field("metrics").is_ok());
    }
}
