//! The analysis service: routes → tenant engines.
//!
//! [`AnalysisService`] is transport-light — it maps one parsed
//! [`Request`] to one [`Response`] against a [`TenantRegistry`], with
//! all per-route metrics recorded out of band. The connection loop in
//! `server.rs` owns sockets; nothing here does I/O.
//!
//! # Route table
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | `POST` | `/v1/tenants/{forum}` | create a tenant (JSON config body, optional `window` object) |
//! | `POST` | `/v1/tenants/{forum}/ingest` | ingest delta batches, returns the writer watermark |
//! | `POST` | `/v1/tenants/{forum}/retract` | retract previously ingested posts (same body shape) |
//! | `GET`  | `/v1/tenants/{forum}/snapshot` | newest published report (`?publish=1` cuts a fresh one) |
//! | `GET`  | `/v1/tenants/{forum}/drift` | zone-count histogram (`?nonzero=1`, `?top=N`, `?publish=1`), or the longitudinal trajectory with `?trajectory=1` |
//! | `GET`  | `/v1/tenants` | list tenants |
//! | `GET`  | `/metrics` | Prometheus text exposition |
//! | `GET`  | `/healthz` | liveness |
//!
//! # The byte-identity contract
//!
//! `GET …/snapshot` returns **exactly** `serde_json::to_string(report)`
//! as the body — the same bytes the in-process engine's published report
//! serializes to — with the cut metadata (epoch, per-writer watermarks,
//! post total) in `X-Crowdtz-*` headers rather than a JSON envelope.
//! That is what lets `tests/serve_http.rs` pin the HTTP path against an
//! in-process replay with `assert_eq!` on raw bodies, the same way every
//! prior layer of this workspace was pinned. Each epoch is encoded once
//! and kept on its tenant ([`Tenant::report_body`]); every read of that
//! epoch copies the kept bytes.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crowdtz_core::{
    CoreError, IngestWriter, PublishedReport, Tenant, TenantConfig, TenantError, TenantRegistry,
    WindowConfig, ZoneGrid,
};
use crowdtz_obs::{labeled, Counter, Gauge, Histogram, Observer};
use crowdtz_time::Timestamp;

use crate::http::{Request, Response};

/// Route labels, also the `route` label values on `serve.*` metrics.
pub const ROUTES: &[&str] = &[
    "create", "ingest", "retract", "snapshot", "drift", "tenants", "metrics", "healthz", "other",
];

/// Per-route latency bounds: 10µs … 10s.
const LATENCY_BOUNDS: &[u64] = &[
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// The `serve.*` metric handles, resolved once at service construction.
#[derive(Debug)]
pub struct ServeMetrics {
    /// `serve.requests`: requests fully parsed and routed.
    pub requests: Counter,
    /// `serve.bytes_in` / `serve.bytes_out`: wire bytes per direction.
    pub bytes_in: Counter,
    /// See [`ServeMetrics::bytes_in`].
    pub bytes_out: Counter,
    /// `serve.responses|class=…`: one counter per status class.
    classes: BTreeMap<&'static str, Counter>,
    /// `serve.latency_ns|route=…`: handler wall time per route.
    latency: BTreeMap<&'static str, Histogram>,
    /// `serve.connections`: currently open connections.
    connections: Gauge,
    /// Backing count for the gauge (gauges are last-write-wins).
    open: AtomicI64,
    /// `serve.panics`: handler panics caught by the connection loop.
    /// The malformed-input suite asserts this stays zero.
    pub panics: Counter,
}

impl ServeMetrics {
    fn new(observer: &Observer) -> ServeMetrics {
        ServeMetrics {
            requests: observer.counter("serve.requests"),
            bytes_in: observer.counter("serve.bytes_in"),
            bytes_out: observer.counter("serve.bytes_out"),
            classes: ["1xx", "2xx", "3xx", "4xx", "5xx"]
                .into_iter()
                .map(|class| {
                    (
                        class,
                        observer.counter(&labeled("serve.responses", "class", class)),
                    )
                })
                .collect(),
            latency: ROUTES
                .iter()
                .map(|&route| {
                    (
                        route,
                        observer.histogram(
                            &labeled("serve.latency_ns", "route", route),
                            LATENCY_BOUNDS,
                        ),
                    )
                })
                .collect(),
            connections: observer.gauge("serve.connections"),
            open: AtomicI64::new(0),
            panics: observer.counter("serve.panics"),
        }
    }

    /// Tracks a connection opening (bumps the `serve.connections` gauge).
    pub fn conn_opened(&self) {
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.connections.set(now as f64);
    }

    /// Tracks a connection closing.
    pub fn conn_closed(&self) {
        let now = self.open.fetch_sub(1, Ordering::Relaxed) - 1;
        self.connections.set(now as f64);
    }

    /// Records one routed response: request count, status class, and
    /// handler latency.
    pub fn record(&self, route: &'static str, status: u16, elapsed_ns: u64) {
        self.requests.inc();
        let class = match status / 100 {
            1 => "1xx",
            2 => "2xx",
            3 => "3xx",
            4 => "4xx",
            _ => "5xx",
        };
        if let Some(counter) = self.classes.get(class) {
            counter.inc();
        }
        if let Some(hist) = self.latency.get(route) {
            hist.observe(elapsed_ns);
        }
    }
}

/// Service-level configuration (the server wraps this with socket
/// settings in [`ServeConfig`](crate::ServeConfig)).
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Directory under which durable tenants journal
    /// (`<root>/<tenant>`). `None` disables durable tenants: creating
    /// one returns `503`.
    pub durable_root: Option<PathBuf>,
    /// Abort the process (SIGABRT, no orderly shutdown) when ingest
    /// batch `n+1` arrives, *before* anything is journaled or applied —
    /// the deterministic crash point the kill-and-restart suite drives.
    /// `None` in production.
    pub crash_after_batches: Option<u64>,
}

/// Per-connection state: one [`IngestWriter`] per tenant, created
/// lazily on the first ingest — so a connection's batches carry one
/// stable watermark index per tenant, and
/// `POST …/ingest` can return "batches this writer has fully applied"
/// as its response.
#[derive(Debug, Default)]
pub struct ConnState {
    writers: HashMap<String, IngestWriter>,
}

/// The routing core. Shared across every worker thread via `Arc`.
#[derive(Debug)]
pub struct AnalysisService {
    registry: TenantRegistry,
    observer: Arc<Observer>,
    metrics: ServeMetrics,
    config: ServiceConfig,
    /// Ingest batches accepted service-wide (drives `crash_after_batches`).
    ingest_batches: AtomicU64,
}

impl AnalysisService {
    /// Builds a service over an empty registry. When `observer` is
    /// `None`, the process-global observer is used if installed,
    /// otherwise a private one — `/metrics` always has a registry to
    /// render.
    pub fn new(config: ServiceConfig, observer: Option<Arc<Observer>>) -> AnalysisService {
        let observer = observer
            .or_else(crowdtz_obs::global)
            .unwrap_or_else(Observer::from_env);
        AnalysisService {
            registry: TenantRegistry::new(),
            metrics: ServeMetrics::new(&observer),
            observer,
            config,
            ingest_batches: AtomicU64::new(0),
        }
    }

    /// The tenant registry (for embeddings that pre-create tenants).
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// The observer every tenant engine reports into.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.observer
    }

    /// The `serve.*` metric handles (the connection loop records into
    /// these).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Routes one request. Returns the response and the route label for
    /// metrics. Never panics on malformed input — every parse failure is
    /// a 4xx.
    pub fn handle(&self, request: &Request, conn: &mut ConnState) -> (Response, &'static str) {
        let segments = request.segments();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET" | "HEAD", ["healthz"]) => (Response::text(200, "ok\n"), "healthz"),
            ("GET" | "HEAD", ["metrics"]) => (self.metrics_response(), "metrics"),
            ("GET" | "HEAD", ["v1", "tenants"]) => (self.list_tenants(), "tenants"),
            ("POST", ["v1", "tenants", name]) => (self.create_tenant(name, request), "create"),
            ("POST", ["v1", "tenants", name, "ingest"]) => {
                (self.ingest(name, request, conn), "ingest")
            }
            ("POST", ["v1", "tenants", name, "retract"]) => {
                (self.retract(name, request, conn), "retract")
            }
            ("GET" | "HEAD", ["v1", "tenants", name, "snapshot"]) => {
                (self.snapshot(name, request), "snapshot")
            }
            ("GET" | "HEAD", ["v1", "tenants", name, "drift"]) => {
                (self.drift(name, request), "drift")
            }
            // Known paths with the wrong method get 405 + Allow.
            (_, ["healthz"] | ["metrics"] | ["v1", "tenants"]) => {
                (method_not_allowed("GET"), "other")
            }
            (_, ["v1", "tenants", _]) => (method_not_allowed("POST"), "other"),
            (_, ["v1", "tenants", _, "ingest" | "retract"]) => {
                (method_not_allowed("POST"), "other")
            }
            (_, ["v1", "tenants", _, "snapshot" | "drift"]) => (method_not_allowed("GET"), "other"),
            _ => (
                Response::error(404, &format!("no route for {}", request.path)),
                "other",
            ),
        }
    }

    fn metrics_response(&self) -> Response {
        let text = self.observer.snapshot().to_prometheus();
        Response {
            status: 200,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: text.into_bytes(),
            close: false,
        }
    }

    fn list_tenants(&self) -> Response {
        let tenants: Vec<serde_json::Value> = self
            .registry
            .names()
            .into_iter()
            .filter_map(|name| self.registry.get(&name))
            .map(|tenant| {
                serde_json::json!({
                    "forum": tenant.name(),
                    "grid": tenant.config().grid.zones(),
                    "durable": tenant.is_durable(),
                    "users": tenant.engine().users_tracked(),
                    "posts": tenant.engine().posts_ingested(),
                })
            })
            .collect();
        Response::json(200, &serde_json::json!({ "tenants": tenants }))
    }

    fn create_tenant(&self, name: &str, request: &Request) -> Response {
        let spec = if request.body.is_empty() {
            serde_json::Value::object(Vec::new())
        } else {
            match serde_json::from_slice::<serde_json::Value>(&request.body) {
                Ok(value @ serde_json::Value::Object(_)) => value,
                Ok(other) => {
                    return Response::error(
                        400,
                        &format!("config must be a JSON object, got {}", other.kind()),
                    )
                }
                Err(e) => return Response::error(400, &format!("body is not JSON: {e}")),
            }
        };
        let mut config = TenantConfig::default();
        match parse_grid(&spec) {
            Ok(Some(grid)) => config.grid = grid,
            Ok(None) => {}
            Err(message) => return Response::error(400, &message),
        }
        for (field, slot) in [
            ("shards", &mut config.shards),
            ("threads", &mut config.threads),
            ("min_posts", &mut config.min_posts),
        ] {
            match parse_usize(&spec, field) {
                Ok(Some(v)) => *slot = v,
                Ok(None) => {}
                Err(message) => return Response::error(400, &message),
            }
        }
        match parse_window(&spec) {
            Ok(window) => config.window = window,
            Err(message) => return Response::error(400, &message),
        }
        match field_of(&spec, "durable") {
            None => {}
            Some(serde_json::Value::Bool(false)) => {}
            Some(serde_json::Value::Bool(true)) => match &self.config.durable_root {
                None => {
                    return Response::error(
                        503,
                        "durable tenants are disabled: the server has no --durable-root",
                    )
                }
                Some(root) => config.durable_dir = Some(root.join(name)),
            },
            Some(other) => {
                return Response::error(
                    400,
                    &format!("durable must be a bool, got {}", other.kind()),
                )
            }
        }
        match self
            .registry
            .create(name, config, Some(Arc::clone(&self.observer)))
        {
            Ok(tenant) => Response::json(
                201,
                &serde_json::json!({
                    "forum": tenant.name(),
                    "grid": tenant.config().grid.zones(),
                    "shards": tenant.engine().shard_count(),
                    "min_posts": tenant.config().min_posts,
                    "durable": tenant.is_durable(),
                    "windowed": tenant.window().is_some(),
                }),
            ),
            Err(TenantError::InvalidName { name }) => {
                Response::error(400, &format!("invalid tenant name {name:?}"))
            }
            Err(TenantError::AlreadyExists { name }) => {
                Response::error(409, &format!("tenant {name:?} already exists"))
            }
            Err(TenantError::Core(e)) => {
                Response::error(500, &format!("tenant engine failed to open: {e}"))
            }
        }
    }

    fn ingest(&self, name: &str, request: &Request, conn: &mut ConnState) -> Response {
        let Some(tenant) = self.registry.get(name) else {
            return Response::error(404, &format!("unknown tenant {name:?}"));
        };
        let deltas = match parse_deltas(&request.body) {
            Ok(deltas) => deltas,
            Err(message) => return Response::error(400, &message),
        };
        // The deterministic crash point: batch n+1 aborts before the WAL
        // or any shard sees it, so exactly n batches are recoverable and
        // an unacknowledged batch is never half-durable.
        if let Some(limit) = self.config.crash_after_batches {
            if self.ingest_batches.fetch_add(1, Ordering::SeqCst) >= limit {
                eprintln!("crowdtz-serve: --crash-after {limit} reached, aborting");
                std::process::abort();
            }
        }
        let writer = conn
            .writers
            .entry(name.to_string())
            .or_insert_with(|| tenant.engine().writer());
        let flat = flatten_deltas(&deltas);
        let result = match tenant.window() {
            // Windowed tenants ingest-and-track in one call, so every
            // post is queued for expiry the moment it is acknowledged.
            Some(window) => window.ingest_posts(writer, &flat),
            None => writer.ingest_posts_ref(&flat),
        };
        if let Err(e) = result {
            // Only the durable append can fail; the in-memory engine is
            // untouched, but this connection's journal is now suspect.
            return Response::error(500, &format!("write-ahead append failed: {e}")).closing();
        }
        Response::json(
            200,
            &serde_json::json!({
                "forum": name,
                "watermark": writer.batches_applied(),
                "users": deltas.len(),
                "posts": flat.len(),
            }),
        )
    }

    /// `POST …/retract`: the signed inverse of ingest, same body shape.
    /// On a windowed tenant the posts are also removed from the expiry
    /// queue so they cannot be retracted a second time.
    fn retract(&self, name: &str, request: &Request, conn: &mut ConnState) -> Response {
        let Some(tenant) = self.registry.get(name) else {
            return Response::error(404, &format!("unknown tenant {name:?}"));
        };
        let deltas = match parse_deltas(&request.body) {
            Ok(deltas) => deltas,
            Err(message) => return Response::error(400, &message),
        };
        let writer = conn
            .writers
            .entry(name.to_string())
            .or_insert_with(|| tenant.engine().writer());
        let flat = flatten_deltas(&deltas);
        // On a windowed tenant only still-tracked posts are released
        // (the count comes back); unwindowed retraction submits all.
        let retracted = match tenant.window() {
            Some(window) => window.retract_posts(writer, &flat),
            None => writer.retract_posts_ref(&flat).map(|()| flat.len()),
        };
        let retracted = match retracted {
            Ok(n) => n,
            Err(e) => {
                return Response::error(500, &format!("write-ahead append failed: {e}")).closing()
            }
        };
        Response::json(
            200,
            &serde_json::json!({
                "forum": name,
                "watermark": writer.batches_applied(),
                "users": deltas.len(),
                "posts": retracted,
            }),
        )
    }

    /// Resolves the report to serve: the newest published cell read
    /// (wait-free), or a fresh `publish` cut when `?publish=1`. On a
    /// windowed tenant the cut goes through the window front, so expiry
    /// and the drift trajectory advance with it.
    fn published(
        &self,
        tenant: &Tenant,
        request: &Request,
    ) -> Result<Arc<PublishedReport>, Response> {
        let publish = matches!(request.query_param("publish"), Some("1" | "true"));
        if publish {
            let coverage = match request.query_param("coverage") {
                None => 1.0,
                Some(raw) => raw
                    .parse::<f64>()
                    .map_err(|_| Response::error(400, &format!("unparseable coverage {raw:?}")))?,
            };
            let cut = match tenant.window() {
                Some(window) => window.publish_with_coverage(coverage),
                None => tenant.engine().publish_with_coverage(coverage),
            };
            cut.map_err(|e| match e {
                CoreError::EmptyCrowd => {
                    Response::error(409, "no users survive the filters yet; ingest more")
                }
                CoreError::InvalidCoverage { coverage } => {
                    Response::error(400, &format!("coverage {coverage} outside (0, 1]"))
                }
                other => Response::error(500, &format!("publish failed: {other}")),
            })
        } else {
            tenant.engine().snapshot().ok_or_else(|| {
                Response::error(
                    404,
                    "nothing published yet; POST more batches or GET ?publish=1",
                )
            })
        }
    }

    fn snapshot(&self, name: &str, request: &Request) -> Response {
        let Some(tenant) = self.registry.get(name) else {
            return Response::error(404, &format!("unknown tenant {name:?}"));
        };
        let published = match self.published(&tenant, request) {
            Ok(published) => published,
            Err(response) => return response,
        };
        // One encode per published epoch; each response copies it.
        let body = match tenant.report_body(&published) {
            Ok(body) => body.to_vec(),
            Err(e) => return Response::error(500, &format!("serialize failed: {e}")),
        };
        let watermarks = published
            .watermarks()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Response {
            status: 200,
            headers: Vec::new(),
            content_type: "application/json",
            body,
            close: false,
        }
        .with_header("X-Crowdtz-Epoch", published.epoch().to_string())
        .with_header("X-Crowdtz-Watermarks", watermarks)
        .with_header("X-Crowdtz-Posts", published.posts_ingested().to_string())
    }

    fn drift(&self, name: &str, request: &Request) -> Response {
        let Some(tenant) = self.registry.get(name) else {
            return Response::error(404, &format!("unknown tenant {name:?}"));
        };
        if matches!(request.query_param("trajectory"), Some("1" | "true")) {
            return self.drift_trajectory(&tenant, request);
        }
        let top = match request.query_param("top") {
            None => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => return Response::error(400, &format!("unparseable top {raw:?}")),
            },
        };
        let nonzero = matches!(request.query_param("nonzero"), Some("1" | "true"));
        let published = match self.published(&tenant, request) {
            Ok(published) => published,
            Err(response) => return response,
        };
        let histogram = published.report().histogram();
        let grid = histogram.grid();
        let counts = histogram.counts();
        let fractions = histogram.fractions();
        let mut zones: Vec<(i32, f64, f64)> = (0..histogram.bins())
            .map(|i| (grid.minutes_of(i), counts[i], fractions[i]))
            .filter(|&(_, count, _)| !nonzero || count > 0.0)
            .collect();
        if let Some(top) = top {
            // Largest crowds first, offset as the deterministic tie-break.
            zones.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            zones.truncate(top);
        }
        let rows: Vec<serde_json::Value> = zones
            .into_iter()
            .map(|(offset_minutes, count, fraction)| {
                serde_json::json!({
                    "offset_minutes": offset_minutes,
                    "count": count,
                    "fraction": fraction,
                })
            })
            .collect();
        Response::json(
            200,
            &serde_json::json!({
                "forum": name,
                "epoch": published.epoch(),
                "grid": grid.zones(),
                "users": histogram.users(),
                "zones": rows,
            }),
        )
    }

    /// `GET …/drift?trajectory=1`: the longitudinal drift trajectory —
    /// one row per publish, with the L1 shift, the change-point flag,
    /// and the dominant zone. `?publish=1` cuts a fresh point first.
    fn drift_trajectory(&self, tenant: &Tenant, request: &Request) -> Response {
        let Some(window) = tenant.window() else {
            return Response::error(
                400,
                &format!(
                    "tenant {:?} has no window config; create it with a \"window\" object",
                    tenant.name()
                ),
            );
        };
        if matches!(request.query_param("publish"), Some("1" | "true")) {
            if let Err(response) = self.published(tenant, request) {
                return response;
            }
        }
        let grid = tenant.config().grid;
        let points = window.trajectory();
        let changepoints = points.iter().filter(|p| p.is_changepoint()).count();
        let rows: Vec<serde_json::Value> = points
            .iter()
            .map(|p| {
                let (dominant_offset, dominant_fraction) = match p.dominant() {
                    Some((zone, fraction)) => (
                        serde_json::json!(grid.minutes_of(zone)),
                        serde_json::json!(fraction),
                    ),
                    None => (serde_json::Value::Null, serde_json::Value::Null),
                };
                serde_json::json!({
                    "epoch": p.epoch(),
                    "bucket": p.bucket(),
                    "shift": p.shift(),
                    "changepoint": p.is_changepoint(),
                    "dominant_offset_minutes": dominant_offset,
                    "dominant_fraction": dominant_fraction,
                })
            })
            .collect();
        Response::json(
            200,
            &serde_json::json!({
                "forum": tenant.name(),
                "grid": grid.zones(),
                "bucket_secs": window.config().bucket_secs,
                "window_buckets": window.config().window_buckets,
                "changepoints": changepoints,
                "trajectory": rows,
            }),
        )
    }
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, &format!("method not allowed; try {allow}"))
        .with_header("Allow", allow.to_string())
}

/// `spec[name]` when `spec` is an object with that field.
fn field_of<'v>(spec: &'v serde_json::Value, name: &str) -> Option<&'v serde_json::Value> {
    match spec {
        serde_json::Value::Object(fields) => fields
            .iter()
            .find(|(field, _)| field == name)
            .map(|(_, value)| value),
        _ => None,
    }
}

fn parse_usize(spec: &serde_json::Value, field: &str) -> Result<Option<usize>, String> {
    match field_of(spec, field) {
        None => Ok(None),
        Some(value) => match value.as_u64() {
            Some(n) => usize::try_from(n)
                .map(Some)
                .map_err(|_| format!("{field} {n} is out of range")),
            None => Err(format!(
                "{field} must be a non-negative integer, got {}",
                value.kind()
            )),
        },
    }
}

/// Flattens grouped deltas into the `(user, timestamp)` pairs the
/// borrowed ingest/retract variants take.
fn flatten_deltas(deltas: &[(String, Vec<Timestamp>)]) -> Vec<(&str, Timestamp)> {
    deltas
        .iter()
        .flat_map(|(user, posts)| posts.iter().map(move |ts| (user.as_str(), *ts)))
        .collect()
}

/// `window` is an optional object: `{"bucket_secs": n, "window_buckets":
/// n, "drift_threshold": x, "drift_history": n}`, each field defaulting
/// to [`WindowConfig::default`].
fn parse_window(spec: &serde_json::Value) -> Result<Option<WindowConfig>, String> {
    let Some(value) = field_of(spec, "window") else {
        return Ok(None);
    };
    if !matches!(value, serde_json::Value::Object(_)) {
        return Err(format!("window must be an object, got {}", value.kind()));
    }
    let mut config = WindowConfig::default();
    if let Some(raw) = field_of(value, "bucket_secs") {
        config.bucket_secs = raw
            .as_i64()
            .filter(|&n| n > 0)
            .ok_or_else(|| "window.bucket_secs must be a positive integer".to_string())?;
    }
    if let Some(raw) = field_of(value, "window_buckets") {
        let n = raw
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| "window.window_buckets must be a positive integer".to_string())?;
        config.window_buckets =
            usize::try_from(n).map_err(|_| format!("window.window_buckets {n} is out of range"))?;
    }
    if let Some(raw) = field_of(value, "drift_threshold") {
        config.drift_threshold = raw
            .as_f64()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| "window.drift_threshold must be a non-negative number".to_string())?;
    }
    if let Some(raw) = field_of(value, "drift_history") {
        let n = raw
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| "window.drift_history must be a positive integer".to_string())?;
        config.drift_history =
            usize::try_from(n).map_err(|_| format!("window.drift_history {n} is out of range"))?;
    }
    Ok(Some(config))
}

/// `grid` accepts the zone count (24/48/96) or the `CROWDTZ_GRID`-style
/// names.
fn parse_grid(spec: &serde_json::Value) -> Result<Option<ZoneGrid>, String> {
    let Some(value) = field_of(spec, "grid") else {
        return Ok(None);
    };
    if let Some(zones) = value.as_u64() {
        return ZoneGrid::from_zones(zones as usize)
            .map(Some)
            .ok_or_else(|| format!("grid must be 24, 48 or 96, got {zones}"));
    }
    match value.as_str() {
        Some("hourly" | "24") => Ok(Some(ZoneGrid::Hourly)),
        Some("half" | "half-hour" | "48") => Ok(Some(ZoneGrid::HalfHour)),
        Some("quarter" | "quarter-hour" | "96") => Ok(Some(ZoneGrid::QuarterHour)),
        Some(other) => Err(format!("unknown grid {other:?}")),
        None => Err(format!(
            "grid must be a number or string, got {}",
            value.kind()
        )),
    }
}

/// Parses an ingest body: `{"deltas": [{"user": "...", "posts":
/// [secs, …]}, …]}`, timestamps in epoch seconds.
fn parse_deltas(body: &[u8]) -> Result<Vec<(String, Vec<Timestamp>)>, String> {
    let value: serde_json::Value =
        serde_json::from_slice(body).map_err(|e| format!("body is not JSON: {e}"))?;
    let Some(entries) = field_of(&value, "deltas") else {
        return Err("missing field \"deltas\"".into());
    };
    let serde_json::Value::Array(entries) = entries else {
        return Err(format!("deltas must be an array, got {}", entries.kind()));
    };
    let mut deltas = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let user = field_of(entry, "user")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("deltas[{i}].user must be a string"))?;
        if user.is_empty() {
            return Err(format!("deltas[{i}].user must be non-empty"));
        }
        let posts = match field_of(entry, "posts") {
            Some(serde_json::Value::Array(posts)) => posts,
            Some(other) => {
                return Err(format!(
                    "deltas[{i}].posts must be an array, got {}",
                    other.kind()
                ))
            }
            None => return Err(format!("deltas[{i}].posts must be an array")),
        };
        let mut timestamps = Vec::with_capacity(posts.len());
        for (j, post) in posts.iter().enumerate() {
            let secs = post.as_i64().ok_or_else(|| {
                format!("deltas[{i}].posts[{j}] must be an integer (epoch seconds)")
            })?;
            timestamps.push(Timestamp::from_secs(secs));
        }
        deltas.push((user.to_string(), timestamps));
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (
                p.to_string(),
                q.split('&')
                    .map(|pair| match pair.split_once('=') {
                        Some((k, v)) => (k.to_string(), v.to_string()),
                        None => (pair.to_string(), String::new()),
                    })
                    .collect(),
            ),
            None => (target.to_string(), Vec::new()),
        };
        Request {
            method: method.to_string(),
            path,
            query,
            headers: Vec::new(),
            body: body.to_vec(),
            close: false,
            wire_bytes: body.len(),
        }
    }

    fn service() -> AnalysisService {
        AnalysisService::new(
            ServiceConfig::default(),
            Some(Observer::with_level(crowdtz_obs::LogLevel::Off)),
        )
    }

    #[test]
    fn create_ingest_publish_snapshot_round_trip() {
        let service = service();
        let mut conn = ConnState::default();
        let (created, route) = service.handle(
            &request(
                "POST",
                "/v1/tenants/alpha",
                br#"{"min_posts": 1, "threads": 1}"#,
            ),
            &mut conn,
        );
        assert_eq!((created.status, route), (201, "create"));

        let mut deltas = String::from(r#"{"deltas":["#);
        for day in 0..10 {
            if day > 0 {
                deltas.push(',');
            }
            deltas.push_str(&format!(
                r#"{{"user":"u1","posts":[{}]}}"#,
                day * 86_400 + 20 * 3_600
            ));
        }
        deltas.push_str("]}");
        let (ingested, route) = service.handle(
            &request("POST", "/v1/tenants/alpha/ingest", deltas.as_bytes()),
            &mut conn,
        );
        assert_eq!((ingested.status, route), (200, "ingest"));
        let body: serde_json::Value = serde_json::from_slice(&ingested.body).unwrap();
        assert_eq!(body.field("watermark").unwrap().as_u64(), Some(1));
        assert_eq!(body.field("posts").unwrap().as_u64(), Some(10));

        // Nothing published yet → 404; publish=1 cuts a report.
        let (miss, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot", b""),
            &mut conn,
        );
        assert_eq!(miss.status, 404);
        let (hit, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
            &mut conn,
        );
        assert_eq!(hit.status, 200);
        assert!(hit
            .headers
            .iter()
            .any(|(n, v)| n == "X-Crowdtz-Epoch" && v == "1"));
        // The published cell now serves the same bytes wait-free.
        let (cached, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot", b""),
            &mut conn,
        );
        assert_eq!(cached.status, 200);
        assert_eq!(cached.body, hit.body);

        let (drift, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/drift?nonzero=1", b""),
            &mut conn,
        );
        assert_eq!(drift.status, 200);
        let drift: serde_json::Value = serde_json::from_slice(&drift.body).unwrap();
        assert_eq!(drift.field("users").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn windowed_tenant_expires_old_posts_and_reports_the_trajectory() {
        let service = service();
        let mut conn = ConnState::default();
        let (created, route) = service.handle(
            &request(
                "POST",
                "/v1/tenants/w",
                br#"{"min_posts": 1, "threads": 1, "window": {"bucket_secs": 86400, "window_buckets": 2, "drift_threshold": 0.5, "drift_history": 2}}"#,
            ),
            &mut conn,
        );
        assert_eq!((created.status, route), (201, "create"));
        let created: serde_json::Value = serde_json::from_slice(&created.body).unwrap();
        assert_eq!(
            created.field("windowed").unwrap(),
            &serde_json::Value::Bool(true)
        );

        // Bucket 0: a night-owl user; publish point one.
        let (r, _) = service.handle(
            &request(
                "POST",
                "/v1/tenants/w/ingest",
                br#"{"deltas":[{"user":"old","posts":[72000]}]}"#,
            ),
            &mut conn,
        );
        assert_eq!(r.status, 200);
        let (r, _) = service.handle(
            &request("GET", "/v1/tenants/w/snapshot?publish=1", b""),
            &mut conn,
        );
        assert_eq!(r.status, 200);

        // Buckets 4 and 5: a morning user. Publishing now expires bucket
        // 0 (cutoff = 5 − 2 + 1 = 4), so only "new" survives — a full
        // composition shift, which the tracker must flag.
        let (r, _) = service.handle(
            &request(
                "POST",
                "/v1/tenants/w/ingest",
                br#"{"deltas":[{"user":"new","posts":[378000, 464400]}]}"#,
            ),
            &mut conn,
        );
        assert_eq!(r.status, 200);
        let (r, _) = service.handle(
            &request("GET", "/v1/tenants/w/snapshot?publish=1", b""),
            &mut conn,
        );
        assert_eq!(r.status, 200);
        let report: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let users = report.field("histogram").unwrap().field("users").unwrap();
        assert_eq!(users.as_u64(), Some(1), "expired user must be gone");

        // Explicit retraction over the same wire shape.
        let (r, route) = service.handle(
            &request(
                "POST",
                "/v1/tenants/w/retract",
                br#"{"deltas":[{"user":"new","posts":[464400]}]}"#,
            ),
            &mut conn,
        );
        assert_eq!((r.status, route), (200, "retract"));
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body.field("posts").unwrap().as_u64(), Some(1));

        let (r, _) = service.handle(
            &request("GET", "/v1/tenants/w/drift?trajectory=1", b""),
            &mut conn,
        );
        assert_eq!(r.status, 200);
        let body: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(body.field("window_buckets").unwrap().as_u64(), Some(2));
        assert_eq!(body.field("changepoints").unwrap().as_u64(), Some(1));
        let serde_json::Value::Array(points) = body.field("trajectory").unwrap() else {
            panic!("trajectory must be an array");
        };
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[1].field("changepoint").unwrap(),
            &serde_json::Value::Bool(true),
            "full composition shift must be flagged"
        );
        assert!(points[1].field("shift").unwrap().as_f64().unwrap() > 0.5);
    }

    #[test]
    fn bad_inputs_map_to_4xx_not_panics() {
        let service = service();
        let mut conn = ConnState::default();
        service.handle(
            &request("POST", "/v1/tenants/alpha", br#"{"min_posts": 1}"#),
            &mut conn,
        );
        for (method, target, body, want) in [
            ("POST", "/v1/tenants/alpha", b"{}".as_slice(), 409),
            ("POST", "/v1/tenants/bad name!", b"{}", 400),
            ("POST", "/v1/tenants/beta", br#"{"grid": 25}"#, 400),
            ("POST", "/v1/tenants/beta", br#"{"shards": -4}"#, 400),
            ("POST", "/v1/tenants/beta", br#"{"durable": true}"#, 503),
            ("POST", "/v1/tenants/beta", br#"{"window": 5}"#, 400),
            (
                "POST",
                "/v1/tenants/beta",
                br#"{"window": {"bucket_secs": 0}}"#,
                400,
            ),
            (
                "POST",
                "/v1/tenants/beta",
                br#"{"window": {"drift_threshold": "hot"}}"#,
                400,
            ),
            ("POST", "/v1/tenants/ghost/ingest", br#"{"deltas":[]}"#, 404),
            (
                "POST",
                "/v1/tenants/ghost/retract",
                br#"{"deltas":[]}"#,
                404,
            ),
            ("POST", "/v1/tenants/alpha/retract", b"not json", 400),
            ("GET", "/v1/tenants/alpha/drift?trajectory=1", b"", 400),
            ("GET", "/v1/tenants/alpha/retract", b"", 405),
            ("POST", "/v1/tenants/alpha/ingest", b"not json", 400),
            ("POST", "/v1/tenants/alpha/ingest", br#"{"deltas": 7}"#, 400),
            (
                "POST",
                "/v1/tenants/alpha/ingest",
                br#"{"deltas":[{"user":"","posts":[1]}]}"#,
                400,
            ),
            (
                "POST",
                "/v1/tenants/alpha/ingest",
                br#"{"deltas":[{"user":"u","posts":["x"]}]}"#,
                400,
            ),
            ("GET", "/v1/tenants/ghost/snapshot", b"", 404),
            ("GET", "/v1/tenants/alpha/snapshot?publish=1", b"", 409),
            (
                "GET",
                "/v1/tenants/alpha/snapshot?publish=1&coverage=2",
                b"",
                400,
            ),
            ("GET", "/v1/tenants/alpha/drift?top=banana", b"", 400),
            ("DELETE", "/v1/tenants/alpha/snapshot", b"", 405),
            ("POST", "/healthz", b"", 405),
            ("GET", "/nope", b"", 404),
        ] {
            let (response, _) = service.handle(&request(method, target, body), &mut conn);
            assert_eq!(
                response.status,
                want,
                "{method} {target} with {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    fn header<'r>(response: &'r Response, name: &str) -> &'r str {
        response
            .headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("no {name} header"))
    }

    /// A tenant `name` holding one user's posts on days `days`.
    fn seeded(service: &AnalysisService, name: &str, days: std::ops::Range<i64>) -> ConnState {
        let mut conn = ConnState::default();
        let (created, _) = service.handle(
            &request(
                "POST",
                &format!("/v1/tenants/{name}"),
                br#"{"min_posts": 1, "threads": 1}"#,
            ),
            &mut conn,
        );
        assert_eq!(created.status, 201);
        ingest_days(service, &mut conn, name, "u1", days);
        conn
    }

    fn ingest_days(
        service: &AnalysisService,
        conn: &mut ConnState,
        name: &str,
        user: &str,
        days: std::ops::Range<i64>,
    ) {
        let posts: Vec<String> = days
            .map(|day| (day * 86_400 + (day % 7 + 17) * 3_600).to_string())
            .collect();
        let body = format!(
            r#"{{"deltas":[{{"user":"{user}","posts":[{}]}}]}}"#,
            posts.join(",")
        );
        let (ingested, _) = service.handle(
            &request(
                "POST",
                &format!("/v1/tenants/{name}/ingest"),
                body.as_bytes(),
            ),
            conn,
        );
        assert_eq!(ingested.status, 200);
    }

    #[test]
    fn repeated_reads_of_one_epoch_share_one_encode() {
        let service = service();
        let mut conn = seeded(&service, "alpha", 0..10);
        let (cut, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
            &mut conn,
        );
        assert_eq!(cut.status, 200);
        let tenant = service.registry().get("alpha").unwrap();
        let published = tenant.engine().snapshot().unwrap();
        // The publishing request encoded the epoch and kept the body.
        let kept = tenant.report_body(&published).unwrap();
        assert_eq!(cut.body, *kept);
        for _ in 0..3 {
            let (read, _) = service.handle(
                &request("GET", "/v1/tenants/alpha/snapshot", b""),
                &mut conn,
            );
            assert_eq!(read.body, *kept);
            assert!(Arc::ptr_eq(&kept, &tenant.report_body(&published).unwrap()));
        }
        assert_eq!(*kept, serde_json::to_vec(published.report()).unwrap());
    }

    #[test]
    fn a_publish_replaces_the_body_and_old_cuts_encode_their_own() {
        let service = service();
        let mut conn = seeded(&service, "alpha", 0..10);
        let publish = |conn: &mut ConnState| {
            service.handle(
                &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
                conn,
            )
        };
        let (first, _) = publish(&mut conn);
        let tenant = service.registry().get("alpha").unwrap();
        let old = tenant.engine().snapshot().unwrap();
        let old_body = tenant.report_body(&old).unwrap();
        assert_eq!(first.body, *old_body);

        ingest_days(&service, &mut conn, "alpha", "u2", 3..20);
        let (second, _) = publish(&mut conn);
        assert_eq!(header(&second, "X-Crowdtz-Epoch"), "2");
        let new = tenant.engine().snapshot().unwrap();
        let kept = tenant.report_body(&new).unwrap();
        assert_eq!(second.body, *kept);
        assert_ne!(*kept, *old_body);

        // The superseded cut still encodes to its own bytes, and asking
        // for it leaves the newest epoch's body in place.
        let again = tenant.report_body(&old).unwrap();
        assert_eq!(*again, serde_json::to_vec(old.report()).unwrap());
        assert_eq!(*again, *old_body);
        assert!(Arc::ptr_eq(&kept, &tenant.report_body(&new).unwrap()));
        let (read, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot", b""),
            &mut conn,
        );
        assert_eq!(read.body, *kept);
    }

    #[test]
    fn concurrent_reads_get_the_bytes_of_the_epoch_they_name() {
        const PUBLISHES: i64 = 12;
        const READS: usize = 40;
        let service = service();
        let mut conn = seeded(&service, "alpha", 0..10);
        let (first, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
            &mut conn,
        );
        assert_eq!(first.status, 200);
        let tenant = service.registry().get("alpha").unwrap();
        let mut reports = vec![tenant.engine().snapshot().unwrap()];
        let barrier = std::sync::Barrier::new(3);
        let (published, read) = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                barrier.wait();
                let mut served = Vec::new();
                for round in 1..=PUBLISHES {
                    let user = format!("p{round}");
                    ingest_days(&service, &mut conn, "alpha", &user, round..round + 8);
                    let (cut, _) = service.handle(
                        &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
                        &mut conn,
                    );
                    // The only publisher: the newest cut is the one it made.
                    let report = tenant.engine().snapshot().unwrap();
                    assert_eq!(header(&cut, "X-Crowdtz-Epoch"), report.epoch().to_string());
                    served.push((report.epoch().to_string(), cut.body));
                    reports.push(report);
                }
                served
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut conn = ConnState::default();
                        barrier.wait();
                        (0..READS)
                            .map(|_| {
                                let (read, _) = service.handle(
                                    &request("GET", "/v1/tenants/alpha/snapshot", b""),
                                    &mut conn,
                                );
                                assert_eq!(read.status, 200);
                                (header(&read, "X-Crowdtz-Epoch").to_string(), read.body)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let published = publisher.join().unwrap();
            let read: Vec<_> = readers
                .into_iter()
                .flat_map(|reader| reader.join().unwrap())
                .collect();
            (published, read)
        });
        let by_epoch: HashMap<String, Vec<u8>> = reports
            .iter()
            .map(|r| {
                (
                    r.epoch().to_string(),
                    serde_json::to_vec(r.report()).unwrap(),
                )
            })
            .collect();
        assert_eq!(by_epoch.len(), PUBLISHES as usize + 1);
        for (epoch, body) in published.iter().chain(&read) {
            assert_eq!(Some(body), by_epoch.get(epoch), "epoch {epoch}");
        }
    }

    #[test]
    fn head_snapshot_sends_the_body_length_without_the_body() {
        let service = service();
        let mut conn = seeded(&service, "alpha", 0..10);
        let (get, _) = service.handle(
            &request("GET", "/v1/tenants/alpha/snapshot?publish=1", b""),
            &mut conn,
        );
        let (head, route) = service.handle(
            &request("HEAD", "/v1/tenants/alpha/snapshot", b""),
            &mut conn,
        );
        assert_eq!((head.status, route), (200, "snapshot"));
        let mut wire = Vec::new();
        let written = head.write_to(&mut wire, true).unwrap();
        let wire = String::from_utf8(wire).unwrap();
        assert_eq!(written, wire.len());
        assert!(
            wire.contains(&format!("Content-Length: {}\r\n", get.body.len())),
            "{wire}"
        );
        assert!(wire.ends_with("\r\n\r\n"), "HEAD must send no body");
    }

    #[test]
    fn metrics_route_renders_serve_series() {
        let service = service();
        let mut conn = ConnState::default();
        service.metrics().record("healthz", 200, 1_000);
        let (response, route) = service.handle(&request("GET", "/metrics", b""), &mut conn);
        assert_eq!((response.status, route), (200, "metrics"));
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("crowdtz_serve_requests_total 1"));
        assert!(text.contains("crowdtz_serve_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("crowdtz_serve_latency_ns_count{route=\"healthz\"} 1"));
    }
}
