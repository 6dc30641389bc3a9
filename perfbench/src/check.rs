//! Output checks: in-process references and the comparisons that fail a run.
//!
//! Every reference is built outside the timed region, from the same
//! [`Batch`]es the socket run sends, through a tenant built by
//! [`TenantRegistry`] with the server's tenant configuration — so the
//! reference engine is the same `ConcurrentStreamingPipeline` (fronted by
//! a `WindowedPipeline` on `dashboard`) the server runs.

use std::sync::Arc;

use crowdtz_core::{
    CoreError, GeolocationReport, IngestWriter, PublishedReport, Tenant, TenantConfig,
    TenantRegistry,
};

use crate::inputs::{Batch, DashPlan, Op, Week};

/// Snapshot bodies a correct server serves.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Body of the round's last `?publish=1`.
    pub last: Vec<u8>,
    /// Body of the first `?publish=1` after each respawn, in kill order.
    pub after_kill: Vec<Vec<u8>>,
}

/// An in-process tenant fed exactly like the server's.
struct RefTenant {
    _registry: TenantRegistry,
    tenant: Arc<Tenant>,
    writer: IngestWriter,
}

impl RefTenant {
    fn new(config: &TenantConfig) -> RefTenant {
        let registry = TenantRegistry::new();
        let tenant = registry
            .create("reference", config.clone(), None)
            .expect("an in-memory tenant always opens");
        let writer = tenant.engine().writer();
        RefTenant {
            _registry: registry,
            tenant,
            writer,
        }
    }

    fn ingest(&self, batch: &Batch) {
        let flat = batch.flat();
        let result = match self.tenant.window() {
            Some(window) => window.ingest_posts(&self.writer, &flat),
            None => self.writer.ingest_posts_ref(&flat),
        };
        result.expect("in-memory ingest cannot fail");
    }

    fn publish(&self) -> Result<Arc<PublishedReport>, CoreError> {
        match self.tenant.window() {
            Some(window) => window.publish(),
            None => self.tenant.engine().publish(),
        }
    }
}

fn encode(published: &PublishedReport) -> Vec<u8> {
    serde_json::to_vec(published.report()).expect("reports always serialize")
}

/// Replays a crawl week by week, publishing at every week end, and
/// returns the weeks annotated with whether their publish succeeds and
/// whether a kill follows it (after the publishes numbered in `kills`),
/// plus the bodies a correct server serves when every batch is acked.
///
/// # Panics
///
/// On a publish error other than an empty crowd: the inputs are broken.
pub fn crawl_reference(
    config: &TenantConfig,
    batches: &[Batch],
    ranges: &[std::ops::Range<usize>],
    kills: &[usize],
) -> (Vec<Week>, Expected) {
    let reference = RefTenant::new(config);
    let mut weeks = Vec::with_capacity(ranges.len());
    let mut expected = Expected::default();
    let mut publishes = 0;
    let mut last = None;
    for range in ranges {
        for b in range.clone() {
            reference.ingest(&batches[b]);
        }
        let publish = match reference.publish() {
            Ok(published) => {
                last = Some(published);
                true
            }
            Err(CoreError::EmptyCrowd) => false,
            Err(e) => panic!("reference publish failed: {e}"),
        };
        publishes += usize::from(publish);
        let kill = publish && kills.contains(&publishes);
        if kill {
            expected
                .after_kill
                .push(encode(last.as_ref().expect("just published")));
        }
        weeks.push(Week {
            batches: range.clone(),
            publish,
            kill,
        });
    }
    expected.last = encode(&last.expect("the crawl publishes at least once"));
    (weeks, expected)
}

/// The bodies a correct server serves when only the batches for which
/// `acked` holds were applied (used when some ingest failed).
pub fn crawl_expected(
    config: &TenantConfig,
    batches: &[Batch],
    weeks: &[Week],
    acked: &dyn Fn(usize) -> bool,
) -> Result<Expected, CoreError> {
    let reference = RefTenant::new(config);
    let mut expected = Expected::default();
    for week in weeks {
        for b in week.batches.clone().filter(|&b| acked(b)) {
            reference.ingest(&batches[b]);
        }
        if week.publish {
            let body = encode(&*reference.publish()?);
            if week.kill {
                expected.after_kill.push(body.clone());
            }
            expected.last = body;
        }
    }
    Ok(expected)
}

/// Replays a dashboard round — preload, first publish, then the live
/// monitor's polls and bucket-boundary publishes in schedule order —
/// through a windowed reference, ingesting only `acked` batches.
pub fn dashboard_expected(
    config: &TenantConfig,
    batches: &[Batch],
    plan: &DashPlan,
    acked: &dyn Fn(usize) -> bool,
) -> Result<Expected, CoreError> {
    let reference = RefTenant::new(config);
    for b in plan.preload.clone().filter(|&b| acked(b)) {
        reference.ingest(&batches[b]);
    }
    let mut last = reference.publish()?;
    for &(_, op, batch) in &plan.monitor {
        match (op, batch) {
            (Op::Ingest, Some(b)) if acked(b) => reference.ingest(&batches[b]),
            (Op::Publish, _) => last = reference.publish()?,
            _ => {}
        }
    }
    Ok(Expected {
        last: encode(&last),
        after_kill: Vec::new(),
    })
}

/// [`dashboard_expected`] with every batch acked.
///
/// # Panics
///
/// When the reference cannot publish: the inputs are broken.
pub fn dashboard_reference(config: &TenantConfig, batches: &[Batch], plan: &DashPlan) -> Expected {
    dashboard_expected(config, batches, plan, &|_| true)
        .unwrap_or_else(|e| panic!("reference publish failed: {e}"))
}

/// Byte identity of a served body against its reference.
pub fn same_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: served body differs from the reference at byte {at} \
         ({} bytes served, {} expected)",
        got.len(),
        want.len()
    ))
}

/// Whether `mean` (hours) lies within two hours of UTC`zone`, on the
/// 24-hour circle.
fn near(mean: f64, zone: f64) -> bool {
    let d = (mean - zone).rem_euclid(24.0);
    d.min(24.0 - d) <= 2.0
}

/// The two heaviest mixture components of a served report lie within
/// ±2 h of UTC+1 and UTC−6, Dream Market's two crowds.
pub fn check_zones(body: &[u8]) -> Result<(), String> {
    let report: GeolocationReport = serde_json::from_slice(body)
        .map_err(|e| format!("served snapshot is not a report: {e}"))?;
    let mut components: Vec<(f64, f64)> = report
        .multi_fit()
        .mixture()
        .components()
        .iter()
        .map(|c| (c.weight, c.mean))
        .collect();
    components.sort_by(|a, b| b.0.total_cmp(&a.0));
    let means: Vec<f64> = components.iter().take(2).map(|c| c.1).collect();
    match means[..] {
        [a, b] if (near(a, 1.0) && near(b, -6.0)) || (near(a, -6.0) && near(b, 1.0)) => Ok(()),
        _ => Err(format!(
            "largest mixture components at {means:?} h, expected UTC+1 and UTC-6 within 2 h"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_identity_rejects_a_one_byte_perturbation() {
        let want = br#"{"histogram":{"users":3780}}"#.to_vec();
        assert!(same_bytes("snapshot", &want, &want).is_ok());
        for at in [0, 12, want.len() - 1] {
            let mut got = want.clone();
            got[at] ^= 1;
            let err = same_bytes("snapshot", &got, &want).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{err}");
        }
        let mut longer = want.clone();
        longer.push(b' ');
        assert!(same_bytes("snapshot", &longer, &want).is_err());
        assert!(same_bytes("snapshot", &want[1..], &want).is_err());
    }

    #[test]
    fn zone_distance_wraps_around_the_day() {
        assert!(near(1.4, 1.0));
        assert!(near(-5.0, -6.0));
        assert!(near(11.5, -11.0));
        assert!(!near(4.0, 1.0));
    }
}
