//! Multi-tenant engine registry: one [`ConcurrentStreamingPipeline`]
//! per forum.
//!
//! The serving layer (`crowdtz-serve`) fronts many forums side by side —
//! the deployment shape "Characterizing Activity on the Deep and Dark
//! Web" implies, where dozens of boards are analyzed over the same
//! horizon. A [`TenantRegistry`] owns that mapping: tenant creation is
//! serialized (no two requests can race the same name into two engines),
//! lookups are cheap reads of an `RwLock`-guarded map handing out `Arc`s,
//! and [`checkpoint_all`](TenantRegistry::checkpoint_all) is the
//! graceful-shutdown hook — every durable tenant folds its write-ahead
//! log into a fresh snapshot generation so the next process start is a
//! warm, replay-free open.
//!
//! The registry is transport-agnostic: it knows nothing about HTTP. All
//! request framing, routing, and error mapping live in `crowdtz-serve`;
//! everything here is reusable from any embedding (a CLI, a test
//! harness, a different wire protocol).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::body::{encode, Base, BodyIndex};
use crate::concurrent::{ConcurrentStreamingPipeline, PublishedReport};
use crate::error::CoreError;
use crate::pipeline::GeolocationPipeline;
use crate::placement::ZoneGrid;
use crate::window::{WindowConfig, WindowedPipeline};

/// Longest accepted tenant name. Names become directory components in
/// durable mode, so the bound keeps paths portable.
pub const MAX_TENANT_NAME: usize = 64;

/// Whether `name` is a valid tenant name: 1–[`MAX_TENANT_NAME`] chars
/// from `[A-Za-z0-9._-]`, not starting with a dot (durable tenants use
/// the name as a directory component, so `..` and hidden-file shapes are
/// rejected outright — there is no path traversal to sanitize later).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// How one tenant's engine is configured. The analysis knobs mirror the
/// [`GeolocationPipeline`] builder; `durable_dir` switches the engine to
/// the write-ahead [`open_durable`](ConcurrentStreamingPipeline::open_durable)
/// path.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Zone grid resolution (24/48/96 bins).
    pub grid: ZoneGrid,
    /// Accumulator shard count (0 = the engine default).
    pub shards: usize,
    /// Worker threads for refresh/snapshot (0 = the engine default).
    pub threads: usize,
    /// Minimum posts before a user enters the analysis.
    pub min_posts: usize,
    /// When set, the engine journals every batch under this directory
    /// and recovers warm from it on the next create.
    pub durable_dir: Option<PathBuf>,
    /// When set, the tenant fronts its engine with a [`WindowedPipeline`]:
    /// posts expire out of the analysis after the configured span and
    /// every publish appends a drift-trajectory point.
    pub window: Option<WindowConfig>,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            grid: ZoneGrid::default(),
            shards: 0,
            threads: 0,
            min_posts: GeolocationPipeline::default().min_posts_threshold(),
            durable_dir: None,
            window: None,
        }
    }
}

impl TenantConfig {
    fn build_pipeline(&self, observer: Option<Arc<crowdtz_obs::Observer>>) -> GeolocationPipeline {
        let mut pipeline = GeolocationPipeline::default()
            .grid(self.grid)
            .min_posts(self.min_posts);
        if self.shards > 0 {
            pipeline = pipeline.shards(self.shards);
        }
        if self.threads > 0 {
            pipeline = pipeline.threads(self.threads);
        }
        if let Some(observer) = observer {
            pipeline = pipeline.observer(observer);
        }
        pipeline
    }
}

/// One registered forum: its name, configuration, and concurrent engine.
/// Handed out as an `Arc` — holders keep the engine alive even if the
/// tenant is later removed from the registry.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    config: TenantConfig,
    engine: ConcurrentStreamingPipeline,
    window: Option<WindowedPipeline>,
    /// The newest encoded epoch's body and index, and a spare
    /// allocation for the next body (see [`Tenant::report_body`]).
    body: Mutex<Kept>,
    obs: Option<BodyObs>,
}

/// What [`Tenant::report_body`] keeps between calls.
#[derive(Debug, Default)]
struct Kept {
    newest: Option<KeptBody>,
    /// The allocation of the body the newest replaced, when no reader
    /// or response still held it: the next body is written into it.
    spare: Vec<u8>,
}

/// The newest encoded epoch: `serde_json::to_vec` of its report, and
/// where each kept user's JSON sits in it.
#[derive(Debug)]
struct KeptBody {
    epoch: u64,
    /// The engine's refresh generation at the epoch's cut.
    generation: u64,
    body: Arc<Vec<u8>>,
    /// `None` when the body outgrew the index's offsets.
    index: Option<Arc<BodyIndex>>,
}

/// Observability handles (`tenant.*`), resolved once at creation.
#[derive(Debug)]
struct BodyObs {
    /// `tenant.body_bytes`: bytes of every body kept as the newest.
    bytes: crowdtz_obs::Counter,
    /// `tenant.body_bytes_copied`: those bytes copied from the previous
    /// body rather than encoded.
    copied: crowdtz_obs::Counter,
}

impl Tenant {
    /// The tenant's (validated) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// The tenant's concurrent engine. Cheap to clone; writers come from
    /// [`ConcurrentStreamingPipeline::writer`].
    pub fn engine(&self) -> &ConcurrentStreamingPipeline {
        &self.engine
    }

    /// Whether this tenant journals to a durable store.
    pub fn is_durable(&self) -> bool {
        self.config.durable_dir.is_some()
    }

    /// The tenant's sliding-window front, when the config asked for one.
    /// Windowed tenants should publish through it (so expiry and drift
    /// tracking run) rather than through the raw engine.
    pub fn window(&self) -> Option<&WindowedPipeline> {
        self.window.as_ref()
    }

    /// `serde_json::to_vec(published.report())`, encoded at most once
    /// for the newest epoch: the tenant keeps that epoch's body, so every
    /// later read of the same cut shares it. Whichever caller first
    /// encodes a newer epoch replaces the kept body; the encode runs
    /// with no lock held. A report older than the kept one (a caller
    /// still holding a superseded cut) is encoded in full on demand and
    /// not kept.
    ///
    /// A newer epoch is spliced from the kept body, so its cost scales
    /// with the users that changed rather than with the crowd. Beside
    /// the body the tenant keeps an index — each kept user's id and the
    /// byte ranges of its profile and placement, about 20 bytes per user
    /// plus its id — and the new body copies those ranges for every user
    /// the engine has not rewritten since the kept body's cut (a refresh
    /// generation stamp per kept entry says which); only the rest, and
    /// the top-level fields, are encoded. The first body of a tenant
    /// (after a durable reopen too) is a full encode. A new body is
    /// written into the allocation of the body the kept one replaced,
    /// when nothing still holds it, and is shrunk to its exact size. The
    /// returned `Arc` is the kept body itself, so a caller that serves it
    /// by reference (`crowdtz-serve`'s snapshot responses) holds it until
    /// the bytes are written, and a body replaced meanwhile is not
    /// recycled.
    ///
    /// # Errors
    ///
    /// Whatever `serde_json::to_vec` returns for the report.
    pub fn report_body(
        &self,
        published: &PublishedReport,
    ) -> Result<Arc<Vec<u8>>, serde_json::Error> {
        let epoch = published.epoch();
        let (superseded, base, buffer) = {
            let mut kept = self.kept_body();
            match &kept.newest {
                Some(newest) if newest.epoch == epoch => return Ok(Arc::clone(&newest.body)),
                Some(newest) if newest.epoch > epoch => (true, None, Vec::new()),
                Some(newest) => (
                    false,
                    newest
                        .index
                        .as_ref()
                        .filter(|_| newest.generation <= published.generation())
                        .map(|index| {
                            (
                                Arc::clone(&newest.body),
                                Arc::clone(index),
                                newest.generation,
                            )
                        }),
                    std::mem::take(&mut kept.spare),
                ),
                None => (false, None, Vec::new()),
            }
        };
        if superseded {
            return Ok(Arc::new(serde_json::to_vec(published.report())?));
        }
        let encoded = encode(
            published,
            base.as_ref().map(|(body, index, generation)| Base {
                body,
                index,
                generation: *generation,
            }),
            buffer,
        );
        // Let go of the kept body, so that once replaced its allocation
        // can become the spare.
        drop(base);
        let body = Arc::new(encoded.body);
        let mut kept = self.kept_body();
        match &kept.newest {
            // Another reader encoded this epoch meanwhile: share theirs.
            Some(newest) if newest.epoch == epoch => Ok(Arc::clone(&newest.body)),
            Some(newest) if newest.epoch > epoch => Ok(body),
            _ => {
                if let Some(obs) = &self.obs {
                    obs.bytes.add(body.len() as u64);
                    obs.copied.add(encoded.copied as u64);
                }
                let replaced = kept.newest.replace(KeptBody {
                    epoch,
                    generation: published.generation(),
                    body: Arc::clone(&body),
                    index: encoded.index.map(Arc::new),
                });
                if let Some(spare) = replaced.and_then(|old| Arc::try_unwrap(old.body).ok()) {
                    kept.spare = spare;
                }
                Ok(body)
            }
        }
    }

    fn kept_body(&self) -> MutexGuard<'_, Kept> {
        self.body.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why a tenant could not be created.
#[derive(Debug)]
pub enum TenantError {
    /// The name failed [`valid_tenant_name`].
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// A tenant with this name already exists.
    AlreadyExists {
        /// The contested name.
        name: String,
    },
    /// The engine could not be built (durable recovery failed).
    Core(CoreError),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::InvalidName { name } => write!(
                f,
                "invalid tenant name {name:?}: want 1-{MAX_TENANT_NAME} chars of \
                 [A-Za-z0-9._-], not starting with '.'"
            ),
            TenantError::AlreadyExists { name } => write!(f, "tenant {name:?} already exists"),
            TenantError::Core(e) => write!(f, "tenant engine failed to open: {e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for TenantError {
    fn from(e: CoreError) -> TenantError {
        TenantError::Core(e)
    }
}

/// A name-keyed registry of tenant engines with serialized creation and
/// a graceful-shutdown checkpoint hook. See the module docs.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Creates and registers a tenant. Creation holds the registry's
    /// write lock for the whole engine build, so two concurrent creates
    /// of the same name cannot both succeed — and a durable tenant's
    /// recovery can never run twice against the same directory.
    ///
    /// # Errors
    ///
    /// * [`TenantError::InvalidName`] — the name fails [`valid_tenant_name`].
    /// * [`TenantError::AlreadyExists`] — the name is taken.
    /// * [`TenantError::Core`] — durable recovery failed.
    pub fn create(
        &self,
        name: &str,
        config: TenantConfig,
        observer: Option<Arc<crowdtz_obs::Observer>>,
    ) -> Result<Arc<Tenant>, TenantError> {
        if !valid_tenant_name(name) {
            return Err(TenantError::InvalidName {
                name: name.to_string(),
            });
        }
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(name) {
            return Err(TenantError::AlreadyExists {
                name: name.to_string(),
            });
        }
        let pipeline = config.build_pipeline(observer.clone());
        let engine = match &config.durable_dir {
            None => ConcurrentStreamingPipeline::new(pipeline),
            Some(dir) => ConcurrentStreamingPipeline::open_durable(pipeline, dir)?,
        };
        let obs = observer.as_ref().map(|observer| BodyObs {
            bytes: observer.counter("tenant.body_bytes"),
            copied: observer.counter("tenant.body_bytes_copied"),
        });
        let window = config
            .window
            .clone()
            .map(|w| WindowedPipeline::new(engine.clone(), w, observer));
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            config,
            engine,
            window,
            body: Mutex::default(),
            obs,
        });
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// The tenant named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes a tenant from the registry, returning it if present.
    /// Outstanding `Arc`s (and their writers) stay valid; the engine is
    /// dropped once the last holder lets go.
    pub fn remove(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
    }

    /// The graceful-shutdown hook: every **durable** tenant writes a
    /// snapshot generation now (compacting its log), so the next open is
    /// warm and replay-free. Non-durable tenants are untouched. Returns
    /// how many tenants checkpointed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] from the first tenant whose checkpoint
    /// fails; earlier tenants' generations are already committed.
    pub fn checkpoint_all(&self) -> Result<usize, CoreError> {
        let tenants: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        let mut written = 0;
        for tenant in tenants {
            if tenant.engine.checkpoint_now()?.is_some() {
                written += 1;
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::Timestamp;

    #[test]
    fn names_are_validated() {
        for good in ["alpha", "dark-market", "b0ard_2", "a.b", "x"] {
            assert!(valid_tenant_name(good), "{good:?} should be valid");
        }
        for bad in [
            "",
            ".",
            "..",
            ".hidden",
            "a/b",
            "a b",
            "a\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_tenant_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn create_get_list_and_duplicate_rejection() {
        let registry = TenantRegistry::new();
        assert!(registry.is_empty());
        registry
            .create("alpha", TenantConfig::default(), None)
            .unwrap();
        registry
            .create("beta", TenantConfig::default(), None)
            .unwrap();
        assert_eq!(registry.names(), ["alpha", "beta"]);
        assert_eq!(registry.len(), 2);
        assert!(registry.get("alpha").is_some());
        assert!(registry.get("gamma").is_none());
        assert!(matches!(
            registry.create("alpha", TenantConfig::default(), None),
            Err(TenantError::AlreadyExists { .. })
        ));
        assert!(matches!(
            registry.create("bad name", TenantConfig::default(), None),
            Err(TenantError::InvalidName { .. })
        ));
    }

    #[test]
    fn tenants_are_isolated_engines() {
        let registry = TenantRegistry::new();
        let config = TenantConfig {
            min_posts: 1,
            threads: 1,
            ..TenantConfig::default()
        };
        let a = registry.create("a", config.clone(), None).unwrap();
        let b = registry.create("b", config, None).unwrap();
        let writer = a.engine().writer();
        for day in 0..10i64 {
            writer
                .ingest("ua", &[Timestamp::from_secs(day * 86_400 + 20 * 3_600)])
                .unwrap();
        }
        assert_eq!(a.engine().users_tracked(), 1);
        assert_eq!(b.engine().users_tracked(), 0, "tenants share nothing");
    }

    #[test]
    fn a_replaced_body_becomes_the_spare_unless_a_reader_still_holds_it() {
        let registry = TenantRegistry::new();
        let config = TenantConfig {
            min_posts: 1,
            threads: 1,
            ..TenantConfig::default()
        };
        let tenant = registry.create("alpha", config, None).unwrap();
        let writer = tenant.engine().writer();
        let mut round = 0i64;
        // A new user's ten posts, then the body of a fresh cut.
        let mut publish = || {
            round += 1;
            for day in round..round + 10 {
                let at = day * 86_400 + (day % 5 + 16) * 3_600;
                writer
                    .ingest(&format!("u{round}"), &[Timestamp::from_secs(at)])
                    .unwrap();
            }
            let published = tenant.engine().publish().unwrap();
            let body = tenant.report_body(&published).unwrap();
            assert_eq!(*body, serde_json::to_vec(published.report()).unwrap());
            body
        };
        let spare = |tenant: &Tenant| {
            let kept = tenant.kept_body();
            (kept.spare.as_ptr(), kept.spare.capacity())
        };
        // A reader still holds the first body when the second replaces
        // it, as a snapshot response does until it is written: it is not
        // recycled, and its bytes stay as they were.
        let first = publish();
        let first_bytes = first.to_vec();
        let second = publish();
        assert_eq!(spare(&tenant).1, 0);
        assert_eq!(*first, first_bytes);
        // Nothing holds the second body when the third replaces it: its
        // allocation becomes the spare, which the fourth body takes.
        let second_ptr = second.as_ptr();
        drop((first, second));
        let third = publish();
        assert_eq!(spare(&tenant).0, second_ptr);
        assert_ne!(spare(&tenant).1, 0);
        let _fourth = publish();
        assert_eq!(spare(&tenant).1, 0, "the held third body is not the spare");
        drop(third);
    }

    #[test]
    fn checkpoint_all_touches_only_durable_tenants() {
        let dir = std::env::temp_dir().join(format!("crowdtz-tenant-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = TenantRegistry::new();
        registry
            .create("plain", TenantConfig::default(), None)
            .unwrap();
        let durable = registry
            .create(
                "journaled",
                TenantConfig {
                    min_posts: 1,
                    threads: 1,
                    durable_dir: Some(dir.join("journaled")),
                    ..TenantConfig::default()
                },
                None,
            )
            .unwrap();
        assert!(durable.is_durable());
        let writer = durable.engine().writer();
        for day in 0..10i64 {
            writer
                .ingest("u", &[Timestamp::from_secs(day * 86_400 + 7 * 3_600)])
                .unwrap();
        }
        assert_eq!(registry.checkpoint_all().unwrap(), 1);
        // Removal hands back the Arc and leaves others registered.
        assert!(registry.remove("plain").is_some());
        assert_eq!(registry.names(), ["journaled"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
