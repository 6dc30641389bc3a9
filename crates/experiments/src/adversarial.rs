//! Extension X3 — the §VII adversarial-coordination discussion:
//!
//! *"What if the crowd coordinates and users deliberately post with a
//! profile of a different region? … coordinating the behavior of hundreds
//! of anonymous users can be very hard. Moreover, if anonymous users are
//! forced to wake up in the night to make a post, most probably they
//! don't, and they either leave the forum or keep behaving normally."*
//!
//! We model three compliance levels for an Italian (UTC+1) crowd trying to
//! masquerade as a UTC−6 crowd:
//!
//! * **full compliance** — every user re-times every post (the unrealistic
//!   best case for the defenders): the methodology is fooled, placing the
//!   crowd at the decoy zone;
//! * **partial compliance** — a third of users comply, the rest behave
//!   normally (the realistic case the paper predicts): the mixture simply
//!   reports *two* components, the real zone still visible;
//! * **defection** — compliant users skip (rather than re-time) the posts
//!   that would fall in their night: the decoy component is weak and the
//!   real zone dominates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crowdtz_core::{GenericProfile, GeolocationPipeline};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet, UserTrace};

use crate::report::{Config, ExperimentOutput};

const HOME_ZONE: f64 = 1.0; // Italy
const DECOY_ZONE: f64 = -6.0;

/// Re-times a trace so its profile looks like the decoy zone's: shift
/// every post by the zone difference.
fn fully_retime(trace: &UserTrace) -> UserTrace {
    let shift_secs = ((DECOY_ZONE - HOME_ZONE) * 3_600.0) as i64;
    // Moving activity to look like UTC−6 means the same local behaviour
    // *observed* 7 h later in UTC.
    trace.shifted_secs(-shift_secs)
}

/// Drops the posts a compliant user would have to make during their real
/// night (01–07 local = 00–06 UTC for Italy): the "they just don't wake
/// up" case.
fn defect_by_skipping(trace: &UserTrace, rng: &mut StdRng) -> UserTrace {
    let posts: Vec<Timestamp> = trace
        .posts()
        .iter()
        .copied()
        .filter(|ts| {
            let retimed_hour = (ts.as_secs() + 7 * 3_600).rem_euclid(86_400) / 3_600;
            // A post that, re-timed, would land in the decoy evening
            // requires actually posting at 01–07 local: users skip ~90%.
            let requires_night_posting = (18..=23).contains(&retimed_hour);
            !requires_night_posting || rng.gen_bool(0.1)
        })
        .collect();
    UserTrace::new(trace.id(), posts)
}

/// Partial compliance: every third user re-times every post to the decoy
/// zone, the rest behave normally.
pub(crate) fn partial_compliance(traces: &TraceSet) -> TraceSet {
    let mut partial = TraceSet::new();
    for (i, t) in traces.iter().enumerate() {
        partial.insert(if i % 3 == 0 {
            fully_retime(t)
        } else {
            t.clone()
        });
    }
    partial
}

/// Runs the adversarial-coordination experiment.
pub fn run(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("adversarial", "§VII: coordinated decoy crowds");
    let db = RegionDb::extended();
    let users = ((60.0 * config.scale * 4.0) as usize).max(40);
    let traces = PopulationSpec::new(db.get(&"italy".into()).expect("italy").clone())
        .users(users)
        .posts_per_day(0.6)
        .seed(config.seed ^ 0xADE)
        .generate();
    let pipeline = GeolocationPipeline::with_generic(GenericProfile::reference());

    // --- Full compliance ---------------------------------------------------
    let full: TraceSet = traces.iter().map(fully_retime).collect();
    let report = pipeline.analyze(&full).expect("analyzable");
    let mean = report.mixture().dominant().map(|c| c.mean).unwrap_or(99.0);
    out.line(format!(
        "full compliance: dominant component at {mean:+.2} (decoy is {DECOY_ZONE:+})"
    ));
    out.finding(
        "full coordination fools the method",
        "the paper assumes people are not under adversary control",
        format!("crowd placed at {mean:+.2}"),
        (mean - DECOY_ZONE).abs() <= 1.5,
    );

    // --- Partial compliance (1/3 comply) ------------------------------------
    let partial = partial_compliance(&traces);
    let report = pipeline.analyze(&partial).expect("analyzable");
    let comps: Vec<f64> = report
        .mixture()
        .components()
        .iter()
        .map(|c| c.mean)
        .collect();
    out.line(format!(
        "partial compliance (1/3): mixture {}",
        report.mixture()
    ));
    out.finding(
        "partial coordination leaks the real zone",
        "coordinating hundreds of anonymous users is very hard",
        format!("component means {comps:?}"),
        comps.iter().any(|m| (m - HOME_ZONE).abs() <= 1.5),
    );

    // --- Defection: skip instead of re-time ---------------------------------
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDEF);
    let mut defect = TraceSet::new();
    for (i, t) in traces.iter().enumerate() {
        defect.insert(if i % 3 == 0 {
            defect_by_skipping(&fully_retime(t), &mut rng)
        } else {
            t.clone()
        });
    }
    let report = pipeline.analyze(&defect).expect("analyzable");
    let dominant = report.mixture().dominant().map(|c| c.mean).unwrap_or(99.0);
    out.line(format!(
        "defection (skip night posts): mixture {}",
        report.mixture()
    ));
    out.finding(
        "defecting decoys leave the real zone dominant",
        "if forced to wake up in the night, most probably they don't",
        format!("dominant component at {dominant:+.2}"),
        (dominant - HOME_ZONE).abs() <= 1.5,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversarial_scenarios_behave_as_discussed() {
        let out = run(&Config::test());
        assert!(out.all_ok(), "{out}");
    }
}
