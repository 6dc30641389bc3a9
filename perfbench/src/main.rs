//! End-to-end, layer-attributed benchmark of the `crowdtz-serve` binary.
//!
//! ```text
//! crowdtz-perfbench --server <crowdtz-serve> --workload <name> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! The socket run spawns the real server and drives it over loopback
//! from this one process (two threads, two connections); it prints every
//! end-to-end metric by name and unit, checks every served snapshot byte
//! for byte against an in-process reference, and exits non-zero when a
//! check fails. With `--trace 1` it then replays the same request stream
//! in-process with spans around every layer boundary and prints the
//! per-layer table instead. The last stdout line is the JSON result.
//! `perfbench/README.md` explains the workloads and the metric table.

mod check;
mod inputs;
mod server;
mod socket;
mod spans;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::{Inputs, Op, Workload, ENGINE_THREADS};
use server::{ServerCmd, SERVER_WORKERS};
use stats::Dist;

/// Generator threads, one connection each.
const GENERATOR_THREADS: usize = 2;

/// A metric the benchmark reports: name, unit, and which way is better.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics gated on every workload (`--trace 0`): the ones
/// every workload defines that stay steadiest from run to run on a shared
/// 2-vCPU host whose hypervisor steals 5–40 % of the CPU for minutes at a
/// time. Throughput, latencies and their tails moved by 10–100 % there and
/// are printed on the `result` line instead (see `end_to_end`).
const END_TO_END: &[Metric] = &[
    metric("server_cpu_us_per_post", "us", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
];

/// A per-layer metric with the end-to-end metric it should move, and on
/// which workload (the choosing-metrics "how the metrics interact" map).
struct Layer {
    metric: Metric,
    moves: &'static str,
    on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        metric: metric(name, unit, better),
        moves,
        on,
    }
}

/// Per-layer metrics (`--trace 1`), module by module: name, unit,
/// direction, the end-to-end metric it should move, and on which workload.
#[rustfmt::skip]
const PER_LAYER: &[Layer] = &[
    // serve::server — socket p50 minus traced root p50: loopback,
    // kernel and tracing overhead.
    layer("server.unattributed.ingest.p50_ms", "ms", "lower", "ingest_p50_ms", "backfill"),
    layer("server.unattributed.publish.p50_ms", "ms", "lower", "publish_p50_ms", "backfill"),
    layer("server.unattributed.snapshot.p50_ms", "ms", "lower", "read_p50_ms", "dashboard"),
    // serve::http
    layer("http.read_request.p50_us", "us", "lower", "ingest_p50_ms", "backfill"),
    layer("http.write_to.p50_us", "us", "lower", "read_p50_ms", "dashboard"),
    layer("http.bytes_in_per_post", "B", "lower", "ingest_posts_per_s", "backfill"),
    layer("http.bytes_out_per_read", "B", "lower", "read_p50_ms", "dashboard"),
    // serve::service
    layer("service.handle.ingest.p50_us", "us", "lower", "ingest_p50_ms", "all"),
    layer("service.handle.drift.p50_us", "us", "lower", "drift latency", "dashboard"),
    layer("service.handle.publish.p50_ms", "ms", "lower", "publish_p50_ms", "all"),
    layer("service.handle.snapshot.p50_ms", "ms", "lower", "read_p50_ms", "dashboard"),
    layer("service.handle.create.p50_ms", "ms", "lower", "recovery_s", "durable_restart"),
    layer("service.decode.p50_us", "us", "lower", "ingest_p50_ms", "backfill"),
    layer("service.encode.p50_ms", "ms", "lower", "read_p50_ms, publish_p50_ms", "dashboard"),
    // core::concurrent
    layer("concurrent.ingest.p50_us", "us", "lower", "ingest_posts_per_s", "backfill"),
    layer("concurrent.snapshot.p50_us", "us", "lower", "read_p50_ms (stays ~0)", "dashboard"),
    layer("concurrent.gate_waits_per_batch", "ratio", "lower", "ingest_p99_ms", "dashboard, backfill"),
    layer("concurrent.lock_wait_ms", "ms", "lower", "ingest_p99_ms", "dashboard, backfill"),
    // core::shard
    layer("shard.deltas_per_post", "ratio", "lower", "ingest_posts_per_s", "backfill"),
    // core::streaming
    layer("streaming.refresh.p50_ms", "ms", "lower", "publish_p50_ms", "backfill"),
    layer("streaming.dirty_per_publish", "count", "lower", "publish_p50_ms", "backfill"),
    layer("streaming.fit.p50_ms", "ms", "lower", "publish_p50_ms", "dashboard"),
    // core::engine
    layer("engine.cache_hit_rate", "ratio", "higher", "publish_p50_ms", "backfill"),
    layer("engine.exact_evals_per_user", "ratio", "lower", "publish_p50_ms", "backfill"),
    // core::window
    layer("window.publish.self_p50_ms", "ms", "lower", "publish_p50_ms", "dashboard"),
    layer("window.retractions_per_publish", "count", "lower", "publish_p50_ms", "dashboard"),
    layer("window.pending_posts", "count", "lower", "peak_rss_mb", "dashboard"),
    // core::durable
    layer("durable.ingest.p50_us", "us", "lower", "ingest_p50_ms", "durable_restart"),
    // crowdtz-store
    layer("store.append_delta.p50_us", "us", "lower", "ingest_posts_per_s", "durable_restart"),
    layer("store.wal_bytes_per_post", "B", "lower", "disk_bytes_per_post", "durable_restart"),
    layer("store.snapshots_written", "count", "lower", "publish_p90_ms", "durable_restart"),
    layer("store.open.p50_ms", "ms", "lower", "recovery_s", "durable_restart"),
    layer("store.recovery.p50_ms", "ms", "lower", "recovery_s", "durable_restart"),
    layer("store.records_replayed", "count", "lower", "recovery_s", "durable_restart"),
    // the benchmark itself
    layer("loadgen.lag.p99_ms", "ms", "lower", "validity of read_*", "dashboard"),
    layer("trace.attributed_pct.ingest", "%", "higher", "validity of the table", "all"),
    layer("trace.attributed_pct.publish", "%", "higher", "validity of the table", "all"),
    layer("trace.attributed_pct.snapshot", "%", "higher", "validity of the table", "all"),
    layer("trace.attributed_pct.drift", "%", "higher", "validity of the table", "all"),
    layer("trace.attributed_pct.create", "%", "higher", "validity of the table", "all"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be an integer")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        server: take("--server")?.into(),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

/// The SIMD path `crowdtz_stats::kernel` dispatches to, found with the
/// same feature checks.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// The commit under test, when the checkout is a git work tree.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The durable tenant's flush policy, as the results state it.
fn flush_policy() -> String {
    format!(
        "fsync per ingest batch (WAL append under the gate); snapshot rotation at publish \
         once the log passes {} bytes",
        crowdtz_store::DEFAULT_COMPACT_THRESHOLD
    )
}

/// One end-to-end figure: name, value, unit, and which way is better.
type Figure = (&'static str, f64, &'static str, &'static str);

/// End-to-end figures: every gated metric, then the ones that only some
/// workloads define or that this host measures too noisily to gate.
/// A reported tail percentile without 10 samples beyond it is an error.
fn end_to_end(run: &socket::SocketRun) -> Result<Vec<Figure>, String> {
    let need = |dist: &Dist, p: f64, what: &str| {
        dist.tail(p).ok_or_else(|| {
            format!(
                "{what}: {} samples do not support p{p} (10 must lie beyond it)",
                dist.len()
            )
        })
    };
    let ingest = run.latency_ms(Op::Ingest);
    let publish = run.latency_ms(Op::Publish);
    let measured_s = run.measured_ns as f64 / 1e9;
    let posts = run.posts_acked.max(1) as f64;
    let mut out = vec![
        (
            "ingest_posts_per_s",
            run.posts_acked as f64 / measured_s,
            "posts/s",
            "higher",
        ),
        ("ingest_p50_ms", ingest.p50().unwrap_or(0.0), "ms", "lower"),
        (
            "ingest_p99_ms",
            need(&ingest, 99.0, "ingest")?,
            "ms",
            "lower",
        ),
        (
            "publish_p50_ms",
            publish.p50().unwrap_or(0.0),
            "ms",
            "lower",
        ),
        (
            "publish_p90_ms",
            need(&publish, 90.0, "publish")?,
            "ms",
            "lower",
        ),
        (
            "server_cpu_us_per_post",
            run.server_cpu_s * 1e6 / posts,
            "us",
            "lower",
        ),
        (
            "setup_s",
            Dist::new(run.setup_s.clone()).p50().unwrap_or(0.0),
            "s",
            "lower",
        ),
        (
            "peak_rss_mb",
            run.peak_rss_bytes as f64 / 1e6,
            "MB",
            "lower",
        ),
    ];
    let reads = run.latency_ms(Op::Read);
    if let Some(median) = reads.p50() {
        out.push(("read_p50_ms", median, "ms", "lower"));
        out.push(("read_p90_ms", need(&reads, 90.0, "read")?, "ms", "lower"));
    }
    if let Some(median) = run.latency_ms(Op::Drift).p50() {
        out.push(("drift_p50_ms", median, "ms", "lower"));
    }
    if let Some(recovery) = Dist::new(run.recovery_s.clone()).p50() {
        out.push(("recovery_s", recovery, "s", "lower"));
    }
    if let Some(disk) = Dist::new(run.disk_bytes_per_post.clone()).p50() {
        out.push(("disk_bytes_per_post", disk, "B", "lower"));
    }
    out.push((
        "failed_frac",
        run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
        "ratio",
        "lower",
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "crowdtz-perfbench: {e}\nusage: crowdtz-perfbench --server <bin> --workload \
                 <backfill|dashboard|durable_restart> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if GENERATOR_THREADS > host_cpus {
        eprintln!(
            "crowdtz-perfbench: refusing to start: {GENERATOR_THREADS} generator threads \
             would exceed the {host_cpus} available CPUs"
        );
        return ExitCode::from(2);
    }
    if !args.server.is_file() {
        eprintln!(
            "crowdtz-perfbench: no server binary at {}",
            args.server.display()
        );
        return ExitCode::from(2);
    }
    match run(&args, host_cpus) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("crowdtz-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args, host_cpus: usize) -> Result<bool, String> {
    let name = args.workload.name();
    let work = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
    let out_dir = PathBuf::from(".bench_out");
    for dir in [&work, &out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let result = measure(args, host_cpus, &work, &out_dir);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn measure(args: &Args, host_cpus: usize, work: &Path, out_dir: &Path) -> Result<bool, String> {
    let name = args.workload.name();
    eprintln!(
        "crowdtz-perfbench: generating {name} inputs for seed {}",
        args.seed
    );
    let inputs = Inputs::build(args.workload, args.seed);
    let cmd = ServerCmd {
        bin: args.server.clone(),
    };
    eprintln!("crowdtz-perfbench: socket run ({} s)", args.seconds);
    let socket = socket::socket_run(&cmd, &inputs, args.seconds, work);
    let mut errors = socket.errors.clone();
    if errors.is_empty() {
        if let Err(e) = check::check_zones(&socket.last_body) {
            errors.push(e);
        }
    }
    let e2e = end_to_end(&socket)?;
    let mut attempted = socket.tally.attempted;
    let mut failed = socket.tally.failed;

    let mut reported: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        eprintln!("crowdtz-perfbench: traced replay");
        let spans = out_dir.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        let traced = traced::traced_run(&inputs, &socket, work, &spans)
            .map_err(|e| format!("traced run: {e}"))?;
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors.iter().cloned());
        if let Err(e) = check::same_bytes(
            "traced replay's last publish vs the socket run's",
            &traced.last_body,
            &socket.last_body,
        ) {
            errors.push(e);
        }
        println!("per-layer table ({name}, seed {}):", args.seed);
        println!(
            "  {:<38} {:>14} {:<6} {:<7} {:<28} on",
            "metric", "value", "unit", "better", "moves"
        );
        for layer in PER_LAYER {
            let value = *traced
                .metrics
                .get(layer.metric.name)
                .ok_or_else(|| format!("traced run did not produce {}", layer.metric.name))?;
            println!(
                "  {:<38} {:>14.4} {:<6} {:<7} {:<28} {}",
                layer.metric.name,
                value,
                layer.metric.unit,
                layer.metric.better,
                layer.moves,
                layer.on
            );
            reported.push((layer.metric.name.to_string(), value, layer.metric.unit));
        }
        println!("  spans written to {}", spans.display());
    } else {
        for m in END_TO_END {
            let value = e2e
                .iter()
                .find(|f| f.0 == m.name)
                .map(|f| f.1)
                .expect("end_to_end computes every gated metric");
            reported.push((m.name.to_string(), value, m.unit));
        }
    }

    let samples = format!(
        "{{\"ingest\":{},\"publish\":{},\"read\":{},\"drift\":{},\"setup\":{},\"recovery\":{}}}",
        socket.latency_ms(Op::Ingest).len(),
        socket.latency_ms(Op::Publish).len(),
        socket.latency_ms(Op::Read).len(),
        socket.latency_ms(Op::Drift).len(),
        socket.setup_s.len(),
        socket.recovery_s.len(),
    );
    println!("end-to-end ({name}, seed {}, socket run):", args.seed);
    for (metric, value, unit, better) in &e2e {
        let gate = if END_TO_END.iter().any(|m| m.name == *metric) {
            "gated"
        } else {
            "reported"
        };
        println!("  {metric:<24} {value:>14.4} {unit:<8} {better:<7} {gate}");
    }
    println!("  samples: {samples}; rounds {}", socket.rounds);
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }

    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"workload\":{},\"seed\":{},\"commit\":{},\"host_cpus\":{host_cpus},\
         \"generator_threads\":{GENERATOR_THREADS},\"connections\":{GENERATOR_THREADS},\
         \"server_workers\":{SERVER_WORKERS},\"crowdtz_threads\":{ENGINE_THREADS},\
         \"simd\":{},\"flush_policy\":{},\"forum_users\":{},\"forum_posts\":{},\
         \"rounds\":{},\"measured_s\":{},\"samples\":{samples}",
        json_str(name),
        args.seed,
        json_str(&git_commit()),
        json_str(simd_path()),
        json_str(&flush_policy()),
        inputs.users,
        inputs.posts,
        socket.rounds,
        socket.measured_ns as f64 / 1e9,
    );
    for (metric, value, unit, _) in &e2e {
        let _ = write!(
            meta,
            ",{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(metric),
            json_str(unit)
        );
    }
    meta.push('}');
    println!("result {meta}");

    let correct = errors.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (metric, value, unit)) in reported.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{metric} is not a finite number"));
        }
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(metric),
            json_str(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", END_TO_END.iter().collect::<Vec<_>>()),
            ("per_layer", PER_LAYER.iter().map(|l| &l.metric).collect()),
        ] {
            let serde_json::Value::Array(entries) = doc.field(key).expect(key) else {
                panic!("{key} must be an array");
            };
            assert_eq!(entries.len(), table.len(), "{key}");
            for (entry, m) in entries.iter().zip(table) {
                let get = |f: &str| {
                    entry
                        .field(f)
                        .ok()
                        .and_then(|v| v.as_str())
                        .map(String::from)
                };
                assert_eq!(get("name").as_deref(), Some(m.name));
                assert_eq!(get("unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(get("better").as_deref(), Some(m.better), "{}", m.name);
            }
        }
    }
}
