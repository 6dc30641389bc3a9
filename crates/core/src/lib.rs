//! The paper's method: time-zone geolocation of crowds from post times.
//!
//! This crate implements §III–§V of *Time-Zone Geolocation of Crowds in the
//! Dark Web* (ICDCS 2018) on top of the `crowdtz-time` and `crowdtz-stats`
//! substrates:
//!
//! 1. **User activity profiles** (Eq. 1): [`ActivityProfile`] — the
//!    distribution of a user's active (day, hour) slots over the 24 hours.
//! 2. **Crowd profiles** (Eq. 2): [`CrowdProfile`] — the normalized
//!    aggregate of user profiles.
//! 3. **The generic profile** (§IV, Fig. 2b): [`GenericProfile`] — region
//!    profiles shifted to a common time zone are near-identical, so one
//!    curve, shifted by the UTC offset, stands for *any* time zone.
//! 4. **Placement** (§IV.A): [`place_user`] / [`PlacementHistogram`] —
//!    each user goes to the time zone whose profile minimizes the Earth
//!    Mover's Distance.
//! 5. **Polishing** (§IV.C): [`polish::split_flat_profiles`] — users whose
//!    profile is closer to uniform than to any time zone (bots, shift
//!    workers) are removed.
//! 6. **Single-region fitting** (§IV.A): [`SingleRegionFit`] — a Gaussian
//!    with σ ≈ 2.5 over the placement histogram.
//! 7. **Multi-region fitting** (§IV.B): [`MultiRegionFit`] — a Gaussian
//!    mixture fitted by EM, with the component count selected by BIC.
//! 8. **Hemisphere detection** (§V.F): [`hemisphere`] — DST leaves
//!    opposite seasonal shifts in the northern and southern hemispheres.
//! 9. **The full pipeline** (§V): [`GeolocationPipeline`] — polish,
//!    place, fit, report, with the Table II quality metrics.
//! 10. **Streaming re-analysis** (§V's monitoring scenario):
//!     [`StreamingPipeline`] — delta ingestion over hash-partitioned
//!     shards of per-user integer accumulators, dirty-user re-placement
//!     through the batch placement kernel, and the cold mixture fit
//!     reused while the zone counts are unchanged.
//!     Batch analysis *is* this engine (one ingest, one snapshot), so
//!     snapshots are byte-identical to [`GeolocationPipeline::analyze`]
//!     by construction — at every shard count and thread count.
//! 11. **Serving** (the monitor deployed): [`ConcurrentStreamingPipeline`]
//!     — many writers, and reads of published reports that never touch
//!     the batch gate or a shard lock — and,
//!     opened with [`ConcurrentStreamingPipeline::open_durable`], the one
//!     durable engine: write-ahead batches, monitor batches deduped by
//!     sequence number ([`IngestWriter::ingest_batch`]), and warm
//!     restarts byte-identical to an engine that never stopped.
//!
//! # Quickstart
//!
//! ```
//! use crowdtz_core::{GenericProfile, GeolocationPipeline};
//! use crowdtz_synth::PopulationSpec;
//! use crowdtz_time::RegionDb;
//!
//! // Ground truth: a synthetic German crowd.
//! let db = RegionDb::table1();
//! let germany = db.get(&"germany".into()).unwrap();
//! let traces = PopulationSpec::new(germany.clone()).users(60).seed(1).generate();
//!
//! // Geolocate it from post times alone.
//! let pipeline = GeolocationPipeline::with_generic(GenericProfile::reference());
//! let report = pipeline.analyze(&traces)?;
//! let dominant = report.mixture().dominant().unwrap();
//! assert!((dominant.mean - 1.0).abs() < 1.5, "Germany is UTC+1, got {}", dominant.mean);
//! # Ok::<(), crowdtz_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod body;
mod concurrent;
mod confidence;
mod crowd;
mod durable;
mod engine;
mod error;
mod generic;
pub mod hemisphere;
mod pipeline;
mod placement;
pub mod polish;
mod profile;
mod shard;
mod single;
mod streaming;
mod tenant;
mod window;

pub use concurrent::{ConcurrentStreamingPipeline, IngestWriter, PublishedReport};
pub use confidence::{
    bootstrap_components, bootstrap_components_threads, BootstrapConfig, ComponentConfidence,
};
pub use crowd::CrowdProfile;
pub use engine::{clamped_threads, default_threads, PlacementEngine};
pub use error::CoreError;
pub use generic::GenericProfile;
pub use pipeline::{GeolocationPipeline, GeolocationReport};
pub use placement::{
    place_distribution, place_user, PlacementHistogram, UserPlacement, ZoneGrid, ZONE_COUNT,
};
pub use profile::{ActivityProfile, ProfileBuilder};
pub use shard::default_shards;
pub use single::{MultiRegionFit, SingleRegionFit, SIGMA_INIT};
pub use streaming::StreamingPipeline;
pub use tenant::{
    valid_tenant_name, Tenant, TenantConfig, TenantError, TenantRegistry, MAX_TENANT_NAME,
};
pub use window::{DriftPoint, DriftTracker, WindowConfig, WindowedPipeline};
