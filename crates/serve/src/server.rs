//! The TCP front: a fixed accept pool of worker threads.
//!
//! # Threading model
//!
//! One `TcpListener`, cloned into `workers` OS threads that each loop on
//! `accept()` — the kernel load-balances connections across blocked
//! acceptors, so there is no dispatcher thread and no cross-thread
//! hand-off of sockets. Each worker owns the connections it accepted for
//! their whole lifetime and runs the read → route → write loop inline.
//! This is deliberately *not* an async reactor: the engine underneath is
//! lock-per-shard with snapshot reads off the batch gate, so handler
//! latency is dominated by actual analysis work, and a thread per
//! in-flight connection (bounded by the pool) is the simplest model that
//! cannot starve.
//!
//! # Interaction with the engine's gate
//!
//! Ingest and retract handlers hold the engine's read gate only inside
//! the writer's one batch step; snapshot handlers read the published
//! slot without the gate or a shard lock. A slow `publish` (write gate)
//! therefore stalls concurrent *ingest* batches briefly but never a
//! plain `GET …/snapshot` — the service stays readable under its own
//! re-analysis.
//!
//! # Shutdown
//!
//! `ServerHandle::shutdown` flips a flag, then connects one throwaway
//! socket per worker to wake every blocked `accept()` (no signals, no
//! platform APIs). Workers finish the request they are writing, close,
//! and join; finally every durable tenant is checkpointed via
//! [`TenantRegistry::checkpoint_all`](crowdtz_core::TenantRegistry::checkpoint_all)
//! so a restart warm-loads from a compact snapshot instead of replaying
//! the whole delta log.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crowdtz_core::CoreError;
use crowdtz_obs::Observer;

use crate::http::{read_request, Response, DEFAULT_MAX_BODY_BYTES};
use crate::service::{AnalysisService, ConnState, ServiceConfig};

/// Socket-level server configuration wrapping a [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Accept-pool size (clamped to at least 1).
    pub workers: usize,
    /// Per-request body cap in bytes.
    pub max_body_bytes: usize,
    /// Read timeout per request; an idle keep-alive connection is closed
    /// with `408` when it expires. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// The routing layer's configuration.
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            read_timeout: Some(Duration::from_secs(30)),
            service: ServiceConfig::default(),
        }
    }
}

/// A bound, running server. Dropping the handle does *not* stop the
/// workers — call [`shutdown`](ServerHandle::shutdown).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<AnalysisService>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing service, for in-process inspection in tests.
    pub fn service(&self) -> &Arc<AnalysisService> {
        &self.service
    }

    /// Stops accepting, drains the workers, and checkpoints every
    /// durable tenant. Returns the number of tenants checkpointed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when a final checkpoint cannot be written;
    /// the workers are already joined by then.
    pub fn shutdown(mut self) -> Result<usize, CoreError> {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.workers.len() {
            // Wake one blocked accept() per worker; errors mean the
            // listener is already gone, which is what we want anyway.
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.service.registry().checkpoint_all()
    }

    /// Blocks until every worker exits (i.e. until another thread calls
    /// nothing — workers run until `shutdown`; this is for binaries that
    /// serve forever).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds `config.addr` and starts the accept pool.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(config: ServeConfig, observer: Option<Arc<Observer>>) -> io::Result<ServerHandle> {
    let service = Arc::new(AnalysisService::new(config.service.clone(), observer));
    serve_with(config, service)
}

/// Starts the accept pool over an existing service (tests pre-create
/// tenants through [`AnalysisService::registry`]).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_with(config: ServeConfig, service: Arc<AnalysisService>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = config.workers.max(1);
    let handles = (0..workers)
        .map(|i| {
            let listener = listener.try_clone()?;
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let max_body = config.max_body_bytes;
            let read_timeout = config.read_timeout;
            Ok(std::thread::Builder::new()
                .name(format!("crowdtz-serve-{i}"))
                .spawn(move || accept_loop(&listener, &service, &stop, max_body, read_timeout))
                .expect("spawn accept worker"))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ServerHandle {
        addr,
        service,
        stop,
        workers: handles,
    })
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<AnalysisService>,
    stop: &AtomicBool,
    max_body: usize,
    read_timeout: Option<Duration>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        service.metrics().conn_opened();
        // A panicking handler must not take the worker thread (and its
        // share of the accept pool) down with it: count it, close the
        // connection, keep serving. The malformed-input suite asserts
        // the counter stays at zero.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            connection_loop(stream, service, stop, max_body, read_timeout);
        }));
        if outcome.is_err() {
            service.metrics().panics.inc();
        }
        service.metrics().conn_closed();
    }
}

/// How often an idle connection re-checks the shutdown flag. Bounds
/// shutdown latency without waking anything when traffic is flowing.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Serves one connection until close, error, timeout, or shutdown.
///
/// Between requests the socket timeout is dropped to [`IDLE_POLL`] and
/// the loop waits on `fill_buf` — which buffers without consuming, so
/// polling costs nothing in framing — re-checking the stop flag each
/// tick. Once a request's first byte arrives the full `read_timeout`
/// applies to the rest of it.
fn connection_loop(
    stream: TcpStream,
    service: &Arc<AnalysisService>,
    stop: &AtomicBool,
    max_body: usize,
    read_timeout: Option<Duration>,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    let mut conn = ConnState::default();
    loop {
        // Idle phase: poll for the next request's first byte.
        if reader.get_ref().set_read_timeout(Some(IDLE_POLL)).is_err() {
            return;
        }
        let deadline = read_timeout.map(|t| Instant::now() + t);
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF at a request boundary
                Ok(_) => break,   // request bytes are waiting
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        let response = Response::error(408, "idle timeout").closing();
                        service.metrics().record("other", response.status, 0);
                        send(service, &mut writer, &response, false);
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        // Request phase: the configured timeout covers the whole read.
        if reader.get_ref().set_read_timeout(read_timeout).is_err() {
            return;
        }
        let request = match read_request(&mut reader, max_body) {
            Ok(request) => request,
            Err(error) => {
                if let Some(response) = error.response() {
                    service.metrics().record("other", response.status, 0);
                    send(service, &mut writer, &response, false);
                }
                return;
            }
        };
        service.metrics().bytes_in.add(request.wire_bytes as u64);
        let head_only = request.method == "HEAD";
        let started = Instant::now();
        let (mut response, route) = service.handle(&request, &mut conn);
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        service.metrics().record(route, response.status, elapsed);
        if request.close || stop.load(Ordering::SeqCst) {
            response = response.closing();
        }
        let close = response.close;
        if !send(service, &mut writer, &response, head_only) || close {
            return;
        }
    }
}

/// Writes a response, counting bytes; `false` means the peer is gone.
fn send(
    service: &Arc<AnalysisService>,
    writer: &mut TcpStream,
    response: &Response,
    head_only: bool,
) -> bool {
    match response.write_to(writer, head_only) {
        Ok(n) => {
            service.metrics().bytes_out.add(n as u64);
            true
        }
        Err(_) => false,
    }
}

/// Resolves a human-entered address like `127.0.0.1:0` or `:8080`.
///
/// # Errors
///
/// `InvalidInput` when nothing resolves.
pub fn resolve_addr(raw: &str) -> io::Result<SocketAddr> {
    let candidate = if raw.starts_with(':') {
        format!("127.0.0.1{raw}")
    } else {
        raw.to_string()
    };
    candidate
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("bad address {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crowdtz_obs::LogLevel;

    fn quiet() -> Option<Arc<Observer>> {
        Some(Observer::with_level(LogLevel::Off))
    }

    #[test]
    fn serves_health_and_404_over_real_sockets() {
        let handle = serve(ServeConfig::default(), quiet()).unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let ok = client.get("/healthz").unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"ok\n");
        // Keep-alive: the same connection serves the next request.
        let miss = client.get("/no/such/route").unwrap();
        assert_eq!(miss.status, 404);
        assert_eq!(handle.shutdown().unwrap(), 0);
    }

    #[test]
    fn shutdown_unblocks_every_worker() {
        let config = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        let handle = serve(config, quiet()).unwrap();
        // No traffic at all: every worker is parked in accept().
        assert_eq!(handle.shutdown().unwrap(), 0);
    }

    #[test]
    fn head_requests_get_headers_without_bodies() {
        let handle = serve(ServeConfig::default(), quiet()).unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let head = client.request("HEAD", "/healthz", None).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.header("content-length"), Some("3"));
        assert!(head.body.is_empty());
        // Framing survives: the next request still parses.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        handle.shutdown().unwrap();
    }
}
