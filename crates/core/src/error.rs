//! Error type for the geolocation pipeline.

use std::fmt;

use crowdtz_stats::StatsError;

/// The error type returned by fallible operations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A numeric kernel failed (degenerate fit, empty distribution…).
    Stats(StatsError),
    /// No user passed the activity/polishing filters, so there is no crowd
    /// to geolocate.
    EmptyCrowd,
    /// A user trace had too few active slots to build a profile.
    InsufficientActivity {
        /// The user in question.
        user: String,
        /// Active (day, hour) slots found.
        slots: usize,
        /// Slots required.
        needed: usize,
    },
    /// A partial-dump analysis was given a coverage fraction outside
    /// `(0, 1]` (a crawl that covered nothing cannot be analyzed, and one
    /// cannot cover more than the whole forum).
    InvalidCoverage {
        /// The offending fraction.
        coverage: f64,
    },
    /// The durable store failed — an I/O error, unroutable corruption,
    /// or an injected crash point (see `crowdtz-store`).
    Store(crowdtz_store::StoreError),
    /// A post lies outside the engine's slot range: 1970 ± about
    /// 245 000 years (DESIGN.md §10). An
    /// [`IngestWriter`](crate::IngestWriter) refuses the whole batch
    /// holding it before the write-ahead log: nothing is logged or
    /// applied.
    PostOutOfRange {
        /// The post's author.
        user: String,
        /// The post's timestamp, in seconds since 1970.
        secs: i64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stats(e) => write!(f, "statistics failure: {e}"),
            CoreError::EmptyCrowd => {
                write!(f, "no users survived filtering; nothing to geolocate")
            }
            CoreError::InsufficientActivity {
                user,
                slots,
                needed,
            } => write!(f, "user {user:?} has {slots} active slots, need {needed}"),
            CoreError::InvalidCoverage { coverage } => {
                write!(f, "coverage fraction {coverage} outside (0, 1]")
            }
            CoreError::Store(e) => write!(f, "durable store failure: {e}"),
            CoreError::PostOutOfRange { user, secs } => write!(
                f,
                "post of user {user:?} at {secs} s lies outside the slot range \
                 (1970 ± about 245 000 years)"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> CoreError {
        CoreError::Stats(e)
    }
}

impl From<crowdtz_store::StoreError> for CoreError {
    fn from(e: crowdtz_store::StoreError) -> CoreError {
        CoreError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::Stats(StatsError::ZeroVariance);
        assert!(e.to_string().contains("statistics"));
        assert!(e.source().is_some());
        assert!(CoreError::EmptyCrowd.source().is_none());
        let e = CoreError::InsufficientActivity {
            user: "u1".into(),
            slots: 3,
            needed: 30,
        };
        assert!(e.to_string().contains("u1"));
        let e = CoreError::InvalidCoverage { coverage: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = CoreError::PostOutOfRange {
            user: "u1".into(),
            secs: i64::MIN,
        };
        assert!(e.to_string().contains(&i64::MIN.to_string()));
    }
}
