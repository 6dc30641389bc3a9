//! `crowdtz-serve` — the multi-tenant HTTP analysis service.
//!
//! The monitoring scenario of *Time-Zone Geolocation of Crowds in the
//! Dark Web* (§V) run as a long-lived service: one
//! [`ConcurrentStreamingPipeline`](crowdtz_core::ConcurrentStreamingPipeline)
//! per forum tenant, fronted by a hand-rolled HTTP/1.1 server on
//! `std::net` with a fixed accept pool. No external dependencies beyond
//! the workspace's vendored set — the HTTP layer is ~400 lines of
//! strict parsing, which is the price of the vendored-only policy and
//! cheaper than auditing a framework.
//!
//! Layering, bottom-up:
//!
//! - [`http`]: framing only — request parsing with hard limits,
//!   response serialization, no routes, no engine types;
//! - [`service`]: routing — one [`Request`] in, one [`Response`] out,
//!   against a [`TenantRegistry`](crowdtz_core::TenantRegistry);
//! - [`server`]: sockets — the accept pool, per-connection loop,
//!   graceful shutdown with a final durable checkpoint;
//! - [`client`]: a minimal blocking client so tests and benches can
//!   drive the server black-box.
//!
//! The load-bearing invariant, inherited from every layer below: the
//! body of `GET /v1/tenants/{forum}/snapshot` is **byte-identical** to
//! `serde_json::to_vec` of the report an in-process engine publishes
//! after ingesting the same deltas — over any number of connections,
//! workers, tenants, and grids. `tests/serve_http.rs` pins exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use client::{ClientResponse, HttpClient};
pub use http::{Body, Request, Response, DEFAULT_MAX_BODY_BYTES};
pub use server::{resolve_addr, serve, serve_with, ServeConfig, ServerHandle};
pub use service::{AnalysisService, ConnState, ServeMetrics, ServiceConfig};
