//! The traced run: the socket run's request stream replayed in-process,
//! sequentially, with no sockets, against an [`AnalysisService`] built
//! over the benchmark's own [`Observer`].
//!
//! Each request gets a root span with three children — the layer
//! boundaries the server crosses: `http::read_request` over the exact
//! wire bytes, `AnalysisService::handle`, and `Response::write_to`. Time
//! inside `handle` is split two ways without touching the program:
//! deltas of the observer's existing stage timings and counters, read
//! before and after each request, and probes that time the public
//! function a handler calls, on the same input. Ingest probes feed
//! shadow engines the identical flattened batches.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{self, Cursor};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline, IngestWriter, TenantConfig};
use crowdtz_obs::{LogLevel, Observer};
use crowdtz_serve::http::read_request;
use crowdtz_serve::{AnalysisService, ConnState, ServiceConfig, DEFAULT_MAX_BODY_BYTES};
use crowdtz_store::{DurableStore, HEADER_LEN, LOG_FILE};

use crate::inputs::{Inputs, Op, Plan, Workload, TENANT};
use crate::spans::Recorder;
use crate::stats::Dist;

/// Stage timings whose per-request deltas split `handle`.
const STAGES: [&str; 5] = [
    "streaming.snapshot",
    "streaming.refresh",
    "streaming.fit",
    "window.publish",
    "store.recovery",
];

/// One step of the replayed stream.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A request on generator connection `conn`.
    Send {
        op: Op,
        conn: usize,
        batch: Option<usize>,
    },
    /// SIGKILL stand-in: drop the service and its connections unflushed.
    Kill,
}

/// The socket run's stream in the order one round issues it. Two
/// connections map to two [`ConnState`]s, so the engine sees the same
/// writers it sees over sockets.
fn stream(inputs: &Inputs) -> Vec<Step> {
    let send = |op, conn, batch| Step::Send { op, conn, batch };
    let mut steps = vec![send(Op::Create, 0, None)];
    match &inputs.plan {
        Plan::Crawl(weeks) => {
            for week in weeks {
                for b in week.batches.clone() {
                    steps.push(send(Op::Ingest, b % 2, Some(b)));
                }
                if week.publish {
                    steps.push(send(Op::Publish, 0, None));
                }
                if week.kill {
                    steps.push(Step::Kill);
                    steps.push(send(Op::Create, 0, None));
                    steps.push(send(Op::Publish, 0, None));
                }
            }
        }
        Plan::Dash(plan) => {
            for b in plan.preload.clone() {
                steps.push(send(Op::Ingest, 0, Some(b)));
            }
            steps.push(send(Op::Publish, 0, None));
            let mut live: Vec<(u64, usize, Op, Option<usize>)> = plan
                .monitor
                .iter()
                .map(|&(due, op, batch)| (due, 0, op, batch))
                .chain(plan.analysts.iter().map(|&(due, op)| (due, 1, op, None)))
                .collect();
            live.sort_by_key(|&(due, conn, _, _)| (due, conn));
            steps.extend(
                live.into_iter()
                    .map(|(_, conn, op, batch)| send(op, conn, batch)),
            );
        }
    }
    steps
}

/// Span and stage timings of one replayed request.
#[derive(Debug, Clone)]
struct ReqRec {
    op: Op,
    root_ns: u64,
    read_ns: u64,
    handle_ns: u64,
    write_ns: u64,
    written: usize,
    stages: [u64; STAGES.len()],
}

/// What the traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Body of the replay's last publish.
    pub last_body: Vec<u8>,
    /// Requests the replay sent, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Probe samples in nanoseconds, by probe name.
type Probes = BTreeMap<&'static str, Vec<f64>>;

fn stage_totals(observer: &Observer) -> [u64; STAGES.len()] {
    let timings = observer.stage_timings();
    STAGES.map(|name| {
        timings
            .iter()
            .find(|t| t.name == name)
            .map_or(0, |t| t.total_ns)
    })
}

/// Runs `f` and records its wall time under probe `name`.
fn timed<R>(probes: &mut Probes, name: &'static str, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as f64;
    probes.entry(name).or_default().push(ns);
    out
}

/// The engine configuration a tenant built from `config` runs with.
fn pipeline_of(config: &TenantConfig) -> GeolocationPipeline {
    GeolocationPipeline::default()
        .grid(config.grid)
        .min_posts(config.min_posts)
        .threads(config.threads)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Shadow engines (held through their writers, one per connection) and
/// the standalone store the ingest probes feed.
struct Shadows {
    plain_writers: Vec<IngestWriter>,
    durable_writers: Vec<IngestWriter>,
    durable_dir: PathBuf,
    store: DurableStore,
    wal_bytes: u64,
}

impl Shadows {
    fn open(config: &TenantConfig, work: &Path) -> io::Result<Shadows> {
        let durable_dir = work.join("shadow-durable");
        let store_dir = work.join("probe-store");
        for dir in [&durable_dir, &store_dir] {
            let _ = fs::remove_dir_all(dir);
        }
        let plain = ConcurrentStreamingPipeline::new(pipeline_of(config));
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline_of(config), &durable_dir)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (store, _) =
            DurableStore::open(&store_dir).map_err(|e| io::Error::other(e.to_string()))?;
        Ok(Shadows {
            plain_writers: vec![plain.writer(), plain.writer()],
            durable_writers: vec![durable.writer(), durable.writer()],
            durable_dir,
            store,
            wal_bytes: 0,
        })
    }

    fn log_len(&self) -> u64 {
        fs::metadata(self.durable_dir.join(LOG_FILE)).map_or(0, |m| m.len())
    }
}

/// Replays one round of `inputs` and computes the per-layer metrics.
/// `socket` supplies the socket-run figures the table subtracts from or
/// copies (p50 latencies, `/metrics` contention counts, generator lag).
pub fn traced_run(
    inputs: &Inputs,
    socket: &crate::socket::SocketRun,
    work: &Path,
    spans_out: &Path,
) -> io::Result<Traced> {
    let observer = Observer::with_level(LogLevel::Off);
    let root_dir = work.join("trace-root");
    let _ = fs::remove_dir_all(&root_dir);
    let durable = inputs.workload == Workload::DurableRestart;
    let service_config = || ServiceConfig {
        durable_root: durable.then(|| root_dir.clone()),
        crash_after_batches: None,
    };
    let mut service = AnalysisService::new(service_config(), Some(Arc::clone(&observer)));
    let mut conns = vec![ConnState::default(), ConnState::default()];
    let mut shadows = Shadows::open(&inputs.tenant_config, work)?;
    let mut rec = Recorder::new();
    let mut reqs: Vec<ReqRec> = Vec::new();
    let mut probes = Probes::new();
    let mut traced = Traced::default();
    let mut dirty = Vec::new();
    let mut posts = 0usize;
    let mut bytes_in = 0usize;

    for (id, step) in stream(inputs).into_iter().enumerate() {
        let (op, conn, batch) = match step {
            Step::Kill => {
                drop(std::mem::replace(
                    &mut service,
                    AnalysisService::new(service_config(), Some(Arc::clone(&observer))),
                ));
                conns = vec![ConnState::default(), ConnState::default()];
                let copy = work.join("killed-root-copy");
                copy_dir(&root_dir.join(TENANT), &copy)?;
                let opened = timed(&mut probes, "store.open", || DurableStore::open(&copy));
                drop(black_box(opened));
                continue;
            }
            Step::Send { op, conn, batch } => (op, conn, batch),
        };
        let wire: &[u8] = match batch {
            Some(b) => &inputs.batches[b].wire,
            None => inputs.wire_of(op),
        };
        let tenant = service.registry().get(TENANT);
        if op == Op::Publish {
            dirty.push(tenant.as_ref().map_or(0, |t| t.engine().dirty_users()) as f64);
        }

        // Observer reads sit outside the root span: they are tracing
        // overhead, not server work.
        let before = stage_totals(&observer);
        let label = op.label();
        let root = rec.open("request", label, None, id as u64);
        let s = rec.open("http::read_request", label, Some(root), id as u64);
        let request = read_request(&mut Cursor::new(wire), DEFAULT_MAX_BODY_BYTES);
        rec.close(s);
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                rec.close(root);
                traced.attempted += 1;
                traced.failed += 1;
                traced
                    .errors
                    .push(format!("request {id}: unparseable: {e:?}"));
                continue;
            }
        };
        let h = rec.open("AnalysisService::handle", label, Some(root), id as u64);
        let (response, _route) = service.handle(&request, &mut conns[conn]);
        rec.close(h);
        let w = rec.open("Response::write_to", label, Some(root), id as u64);
        let mut out = Vec::with_capacity(response.body.len() + 256);
        let written = response.write_to(&mut out, false).unwrap_or(0);
        rec.close(w);
        rec.close(root);
        let after = stage_totals(&observer);

        traced.attempted += 1;
        if !(200..300).contains(&response.status) {
            traced.failed += 1;
            traced.errors.push(format!(
                "request {id} ({label}) answered {}",
                response.status
            ));
        }
        let spans = &rec.spans;
        reqs.push(ReqRec {
            op,
            root_ns: spans[root].duration_ns(),
            read_ns: spans[s].duration_ns(),
            handle_ns: spans[h].duration_ns(),
            write_ns: spans[w].duration_ns(),
            written,
            stages: std::array::from_fn(|i| after[i] - before[i]),
        });

        match op {
            Op::Ingest => {
                let batch = &inputs.batches[batch.expect("ingest steps carry a batch")];
                posts += batch.posts;
                bytes_in += wire.len();
                probe_ingest(&mut shadows, &mut probes, &request.body, batch, conn)?;
            }
            Op::Publish | Op::Read => {
                if op == Op::Publish {
                    traced.last_body = response.body.clone();
                }
                if let Some(tenant) = service.registry().get(TENANT) {
                    let published = timed(&mut probes, "concurrent.snapshot", || {
                        tenant.engine().snapshot()
                    });
                    if let Some(published) = published {
                        let body = timed(&mut probes, "service.encode", || {
                            serde_json::to_vec(published.report())
                        });
                        drop(black_box(body));
                    }
                }
            }
            Op::Drift => {
                let tenant = service.registry().get(TENANT);
                if let Some(window) = tenant.as_ref().and_then(|t| t.window()) {
                    let points = timed(&mut probes, "window.trajectory", || window.trajectory());
                    drop(black_box(points));
                }
            }
            _ => {}
        }
        drop(black_box(out));
    }

    let pending = service
        .registry()
        .get(TENANT)
        .and_then(|t| t.window().map(|w| w.pending_posts()))
        .unwrap_or(0);
    let probe_observer = Observer::with_level(LogLevel::Off);
    if !durable {
        probe_recovery(inputs, &shadows, &probe_observer, &mut probes, work)?;
    }
    drop(service);
    drop(conns);

    let mut file = io::BufWriter::new(fs::File::create(spans_out)?);
    rec.write_jsonl(&mut file)?;
    io::Write::flush(&mut file)?;

    let counters = {
        let mut counters = observer.snapshot().counters;
        for (name, value) in probe_observer.snapshot().counters {
            if name == "store.records_replayed" {
                *counters.entry(name).or_insert(0) += value;
            }
        }
        counters
    };
    let ctx = Ctx {
        reqs: &reqs,
        probes: &probes,
        counters: &counters,
        socket,
        windowed: inputs.tenant_config.window.is_some(),
        durable,
    };
    traced.metrics = ctx.metrics(&dirty, posts, bytes_in, pending, shadows.wal_bytes);
    Ok(traced)
}

/// Times the public functions an ingest handler calls, on its input:
/// body decode, the concurrent engine's borrowed ingest, the durable
/// engine's, and the store append at the size the WAL grew by.
fn probe_ingest(
    shadows: &mut Shadows,
    probes: &mut Probes,
    body: &[u8],
    batch: &crate::inputs::Batch,
    conn: usize,
) -> io::Result<()> {
    let decoded = timed(probes, "service.decode", || {
        serde_json::from_slice::<serde_json::Value>(body)
    });
    drop(black_box(decoded));

    let flat = batch.flat();
    let plain = timed(probes, "concurrent.ingest", || {
        shadows.plain_writers[conn].ingest_posts_ref(&flat)
    });
    let log_before = shadows.log_len();
    let durable = timed(probes, "durable.ingest", || {
        shadows.durable_writers[conn].ingest_posts_ref(&flat)
    });
    let grew = shadows.log_len().saturating_sub(log_before);
    shadows.wal_bytes += grew;
    for result in [plain, durable] {
        result.map_err(|e| io::Error::other(e.to_string()))?;
    }

    let payload = vec![b' '; (grew as usize).saturating_sub(HEADER_LEN)];
    let appended = timed(probes, "store.append_delta", || {
        shadows.store.append_delta(&payload)
    });
    appended.map_err(|e| io::Error::other(e.to_string()))?;
    Ok(())
}

/// Workloads without a durable tenant still report the store's open and
/// recovery cost: a copy of the durable shadow (fed the same batches) is
/// opened as a bare store and recovered as an engine.
fn probe_recovery(
    inputs: &Inputs,
    shadows: &Shadows,
    observer: &Arc<Observer>,
    probes: &mut Probes,
    work: &Path,
) -> io::Result<()> {
    let copy = work.join("shadow-copy");
    copy_dir(&shadows.durable_dir, &copy)?;
    let opened = timed(probes, "store.open", || DurableStore::open(&copy));
    drop(black_box(opened));
    let recovered = ConcurrentStreamingPipeline::open_durable(
        pipeline_of(&inputs.tenant_config).observer(Arc::clone(observer)),
        &copy,
    );
    drop(black_box(recovered));
    if let Some(t) = observer
        .stage_timings()
        .iter()
        .find(|t| t.name == "store.recovery")
    {
        probes
            .entry("store.recovery")
            .or_default()
            .push(t.total_ns as f64 / t.calls.max(1) as f64);
    }
    let _ = fs::remove_dir_all(&copy);
    Ok(())
}

/// Inputs of the per-layer table.
struct Ctx<'a> {
    reqs: &'a [ReqRec],
    probes: &'a Probes,
    counters: &'a BTreeMap<String, u64>,
    socket: &'a crate::socket::SocketRun,
    windowed: bool,
    durable: bool,
}

fn p50(values: impl IntoIterator<Item = f64>) -> f64 {
    Dist::new(values.into_iter().collect()).p50().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Ctx<'_> {
    fn of(&self, op: Op) -> impl Iterator<Item = &ReqRec> + '_ {
        self.reqs.iter().filter(move |r| r.op == op)
    }

    fn count(&self, op: Op) -> f64 {
        self.of(op).count() as f64
    }

    fn probe_p50(&self, name: &str) -> f64 {
        self.probes
            .get(name)
            .map_or(0.0, |v| p50(v.iter().copied()))
    }

    fn stage(&self, op: Op, name: &str) -> impl Iterator<Item = f64> + '_ {
        let i = STAGES.iter().position(|s| *s == name).expect("known stage");
        self.of(op).map(move |r| r.stages[i] as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Socket p50 minus traced root p50, in ms (0 when the op never ran).
    fn unattributed(&self, op: Op) -> f64 {
        match self.socket.latency_ms(op).p50() {
            Some(socket) if self.count(op) > 0.0 => {
                socket - p50(self.of(op).map(|r| r.root_ns as f64)) / 1e6
            }
            _ => 0.0,
        }
    }

    /// Share of `handle` time that existing spans plus probe medians cover.
    fn attributed_pct(&self, op: Op) -> f64 {
        let handle: f64 = self.of(op).map(|r| r.handle_ns as f64).sum();
        let n = self.count(op);
        let covered = match op {
            Op::Ingest => {
                let engine = if self.durable {
                    "durable.ingest"
                } else {
                    "concurrent.ingest"
                };
                n * (self.probe_p50("service.decode") + self.probe_p50(engine))
            }
            Op::Publish => {
                let top = if self.windowed {
                    "window.publish"
                } else {
                    "streaming.snapshot"
                };
                self.stage(op, top).sum::<f64>() + n * self.probe_p50("service.encode")
            }
            Op::Read => {
                n * (self.probe_p50("concurrent.snapshot") + self.probe_p50("service.encode"))
            }
            Op::Drift => n * self.probe_p50("window.trajectory"),
            Op::Create => self.stage(op, "store.recovery").sum(),
            _ => 0.0,
        };
        100.0 * ratio(covered, handle)
    }

    fn metrics(
        &self,
        dirty: &[f64],
        posts: usize,
        bytes_in: usize,
        pending: usize,
        wal_bytes: u64,
    ) -> BTreeMap<String, f64> {
        const US: f64 = 1e3;
        const MS: f64 = 1e6;
        let handle = |op| p50(self.of(op).map(|r| r.handle_ns as f64));
        let snapshot_route = || {
            self.reqs
                .iter()
                .filter(|r| matches!(r.op, Op::Publish | Op::Read))
        };
        let scraped = |name: &str| self.socket.scraped.get(name).copied().unwrap_or(0.0);
        let lag_ms = Dist::new(
            self.socket
                .samples
                .iter()
                .map(|s| s.lag_ns as f64 / MS)
                .collect(),
        );
        let hits = self.counter("placement.cache_hits");
        let window_self = self
            .stage(Op::Publish, "window.publish")
            .zip(self.stage(Op::Publish, "streaming.snapshot"))
            .map(|(w, s)| (w - s).max(0.0));
        let recovery = if self.durable {
            // The first create opens an empty root; the rest recover.
            p50(self.stage(Op::Create, "store.recovery").skip(1))
        } else {
            self.probe_p50("store.recovery")
        };
        let mut m: Vec<(String, f64)> = [
            (
                "server.unattributed.ingest.p50_ms",
                self.unattributed(Op::Ingest),
            ),
            (
                "server.unattributed.publish.p50_ms",
                self.unattributed(Op::Publish),
            ),
            (
                "server.unattributed.snapshot.p50_ms",
                self.unattributed(Op::Read),
            ),
            (
                "http.read_request.p50_us",
                p50(self.reqs.iter().map(|r| r.read_ns as f64)) / US,
            ),
            (
                "http.write_to.p50_us",
                p50(snapshot_route().map(|r| r.write_ns as f64)) / US,
            ),
            (
                "http.bytes_in_per_post",
                ratio(bytes_in as f64, posts as f64),
            ),
            (
                "http.bytes_out_per_read",
                ratio(
                    snapshot_route().map(|r| r.written as f64).sum(),
                    snapshot_route().count() as f64,
                ),
            ),
            ("service.handle.ingest.p50_us", handle(Op::Ingest) / US),
            ("service.handle.drift.p50_us", handle(Op::Drift) / US),
            ("service.handle.publish.p50_ms", handle(Op::Publish) / MS),
            ("service.handle.snapshot.p50_ms", handle(Op::Read) / MS),
            ("service.handle.create.p50_ms", handle(Op::Create) / MS),
            (
                "service.decode.p50_us",
                self.probe_p50("service.decode") / US,
            ),
            (
                "service.encode.p50_ms",
                self.probe_p50("service.encode") / MS,
            ),
            (
                "concurrent.ingest.p50_us",
                self.probe_p50("concurrent.ingest") / US,
            ),
            (
                "concurrent.snapshot.p50_us",
                self.probe_p50("concurrent.snapshot") / US,
            ),
            (
                "concurrent.gate_waits_per_batch",
                ratio(
                    scraped("crowdtz_ingest_gate_contention_total"),
                    scraped("crowdtz_ingest_batches_total"),
                ),
            ),
            (
                "concurrent.lock_wait_ms",
                ratio(
                    scraped("crowdtz_ingest_lock_wait_ns_sum") / MS,
                    self.socket.rounds as f64,
                ),
            ),
            (
                "shard.deltas_per_post",
                ratio(
                    self.counter("streaming.deltas"),
                    self.counter("streaming.posts_ingested"),
                ),
            ),
            (
                "streaming.refresh.p50_ms",
                p50(self.stage(Op::Publish, "streaming.refresh")) / MS,
            ),
            (
                "streaming.dirty_per_publish",
                ratio(dirty.iter().sum(), dirty.len() as f64),
            ),
            (
                "streaming.fit.p50_ms",
                p50(self.stage(Op::Publish, "streaming.fit")) / MS,
            ),
            (
                "engine.cache_hit_rate",
                ratio(hits, hits + self.counter("placement.cache_misses")),
            ),
            (
                "engine.exact_evals_per_user",
                ratio(
                    self.counter("placement.exact_evals"),
                    self.counter("placement.users"),
                ),
            ),
            (
                "window.publish.self_p50_ms",
                if self.windowed {
                    p50(window_self) / MS
                } else {
                    0.0
                },
            ),
            (
                "window.retractions_per_publish",
                ratio(self.counter("window.retractions"), self.count(Op::Publish)),
            ),
            ("window.pending_posts", pending as f64),
            (
                "durable.ingest.p50_us",
                self.probe_p50("durable.ingest") / US,
            ),
            (
                "store.append_delta.p50_us",
                self.probe_p50("store.append_delta") / US,
            ),
            (
                "store.wal_bytes_per_post",
                ratio(wal_bytes as f64, posts as f64),
            ),
            (
                "store.snapshots_written",
                self.counter("store.snapshots_written"),
            ),
            ("store.open.p50_ms", self.probe_p50("store.open") / MS),
            ("store.recovery.p50_ms", recovery / MS),
            (
                "store.records_replayed",
                self.counter("store.records_replayed"),
            ),
            (
                "loadgen.lag.p99_ms",
                lag_ms
                    .tail(99.0)
                    .or_else(|| lag_ms.highest_tail().map(|t| t.1))
                    .unwrap_or(0.0),
            ),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        for op in [Op::Ingest, Op::Publish, Op::Read, Op::Drift, Op::Create] {
            let name = format!("trace.attributed_pct.{}", op.label());
            m.push((name, self.attributed_pct(op)));
        }
        m.into_iter().collect()
    }
}
