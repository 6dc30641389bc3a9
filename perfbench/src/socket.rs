//! The socket run: the real server driven over loopback by two generator
//! threads, one connection each, with tracing off.
//!
//! A run is a sequence of identical rounds, each on a freshly spawned
//! server (and, for `durable_restart`, a fresh durable root). Rounds
//! repeat until the measured phases add up to `--seconds` and every
//! reported percentile has enough samples beyond it.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::check::{crawl_expected, dashboard_expected, same_bytes, Expected};
use crate::inputs::{DashPlan, Inputs, Op, Plan, Week, Workload};
use crate::server::{dir_bytes, succeeded, Conn, Server, ServerCmd};
use crate::stats::Dist;

/// Set-up samples per run; rounds that fall short are topped up with
/// set-up-only cycles. A crawl's set-up is a spawn and one create, a few
/// milliseconds whose fsyncs (on `durable_restart`) vary, so it takes
/// many; the dashboard's preloads half a year of posts (~0.5 s each).
fn setup_samples(workload: Workload) -> usize {
    match workload {
        Workload::Dashboard => 11,
        Workload::Backfill | Workload::DurableRestart => 51,
    }
}

/// Hard cap on rounds, whatever the sample counts.
const MAX_ROUNDS: usize = 12;

/// `/metrics` counters summed over rounds.
const SCRAPED: &[&str] = &[
    "crowdtz_ingest_gate_contention_total",
    "crowdtz_ingest_batches_total",
    "crowdtz_ingest_lock_wait_ns_sum",
];

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: Op,
    pub ok: bool,
    /// Closed loop: from send to reply. Open loop: from the scheduled send.
    pub latency_ns: u64,
    /// How late the generator itself sent it: after the later of its
    /// scheduled time (open loop) and the previous reply on its
    /// connection. Waiting for a slow reply is the server's delay and is
    /// in `latency_ns` instead.
    pub lag_ns: u64,
}

/// Attempted and failed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted request.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything the socket run measured.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Requests of the measured phases (crawl or live).
    pub samples: Vec<Sample>,
    /// Every request sent, set-up, recovery and scrapes included.
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// Wall time of the measured phases, restarts excluded.
    pub measured_ns: u64,
    pub posts_acked: u64,
    /// Server CPU seconds after set-up, over every process of every round
    /// (a respawned server's recovery included).
    pub server_cpu_s: f64,
    pub peak_rss_bytes: u64,
    pub disk_bytes_per_post: Vec<f64>,
    /// [`SCRAPED`] counters, summed over rounds.
    pub scraped: BTreeMap<String, f64>,
    pub rounds: usize,
    /// Output-check failures and aborted rounds.
    pub errors: Vec<String>,
    /// Body of the last round's last publish.
    pub last_body: Vec<u8>,
}

impl SocketRun {
    /// The latency distribution of `op`, in milliseconds.
    pub fn latency_ms(&self, op: Op) -> Dist {
        Dist::new(
            self.samples
                .iter()
                .filter(|s| s.op == op && s.ok)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect(),
        )
    }

    /// Whether every percentile the workload reports is supported.
    fn enough_samples(&self, workload: Workload) -> bool {
        let mut ok = self.latency_ms(Op::Ingest).tail(99.0).is_some()
            && self.latency_ms(Op::Publish).tail(90.0).is_some();
        if workload == Workload::Dashboard {
            ok &= self.latency_ms(Op::Read).tail(90.0).is_some();
        }
        ok
    }

    /// Adds the CPU `server` used since `base` seconds.
    fn note_cpu(&mut self, server: &Server, base: f64) {
        self.server_cpu_s += (server.cpu_seconds().unwrap_or(base) - base).max(0.0);
    }

    fn note_rss(&mut self, server: &Server) {
        let rss = server.peak_rss_bytes().unwrap_or(0);
        self.peak_rss_bytes = self.peak_rss_bytes.max(rss);
    }
}

/// One connection's log.
#[derive(Debug, Default)]
struct ConnLog {
    samples: Vec<Sample>,
    tally: Tally,
    acked: Vec<usize>,
    posts: u64,
    /// When the previous reply on this connection arrived.
    last_reply: Option<Instant>,
}

impl ConnLog {
    /// Sends one request that could go from `ready` on, and logs it.
    /// Returns the response body when the request succeeded.
    fn send(
        &mut self,
        conn: &mut Conn,
        op: Op,
        wire: &[u8],
        ready: Instant,
        open_loop: bool,
    ) -> Option<Vec<u8>> {
        let sent = Instant::now();
        let result = conn.exchange(wire);
        let done = Instant::now();
        let ok = succeeded(&result);
        self.tally.record(ok);
        let from = if open_loop { ready } else { sent };
        let could_send = self.last_reply.map_or(ready, |reply| reply.max(ready));
        self.last_reply = Some(done);
        self.samples.push(Sample {
            op,
            ok,
            latency_ns: nanos(done - from),
            lag_ns: nanos(sent.saturating_duration_since(could_send)),
        });
        result.ok().filter(|_| ok).map(|r| r.body)
    }

    fn ingest(&mut self, conn: &mut Conn, inputs: &Inputs, b: usize, ready: Instant, open: bool) {
        let batch = &inputs.batches[b];
        if self
            .send(conn, Op::Ingest, &batch.wire, ready, open)
            .is_some()
        {
            self.acked.push(b);
            self.posts += batch.posts as u64;
        }
    }

    fn merge_into(self, run: &mut SocketRun, acked: &mut [bool]) {
        run.samples.extend(self.samples);
        run.tally.add(self.tally);
        run.posts_acked += self.posts;
        for b in self.acked {
            acked[b] = true;
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sends an untimed request (set-up, recovery, scrape) and requires 2xx.
fn must(run: &mut SocketRun, conn: &mut Conn, op: Op, wire: &[u8]) -> io::Result<Vec<u8>> {
    let result = conn.exchange(wire);
    let ok = succeeded(&result);
    run.tally.record(ok);
    match result {
        Ok(r) if ok => Ok(r.body),
        Ok(r) => Err(io::Error::other(format!(
            "{} answered {}: {}",
            op.label(),
            r.status,
            String::from_utf8_lossy(&r.body)
        ))),
        Err(e) => Err(e),
    }
}

/// Spawn → `/healthz` 200 → tenant created (→ window preloaded and first
/// publish answered, on `dashboard`). Records the set-up time.
fn setup(
    cmd: &ServerCmd,
    inputs: &Inputs,
    root: Option<&Path>,
    run: &mut SocketRun,
) -> io::Result<(Server, Conn)> {
    let started = Instant::now();
    let server = cmd.spawn(root)?;
    let mut conn = Conn::new(server.addr);
    must(run, &mut conn, Op::Healthz, inputs.wire_of(Op::Healthz))?;
    must(run, &mut conn, Op::Create, inputs.wire_of(Op::Create))?;
    if let Plan::Dash(plan) = &inputs.plan {
        for b in plan.preload.clone() {
            must(run, &mut conn, Op::Ingest, &inputs.batches[b].wire)?;
        }
        must(run, &mut conn, Op::Publish, inputs.wire_of(Op::Publish))?;
    }
    run.setup_s.push(started.elapsed().as_secs_f64());
    Ok((server, conn))
}

/// Scrapes `/metrics`, notes peak RSS, and SIGKILLs the server.
fn finish(run: &mut SocketRun, server: Server, conn: &mut Conn, inputs: &Inputs) {
    if let Ok(text) = must(run, conn, Op::Metrics, inputs.wire_of(Op::Metrics)) {
        for line in String::from_utf8_lossy(&text).lines() {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if SCRAPED.contains(&name) {
                    let value: f64 = value.parse().unwrap_or(0.0);
                    *run.scraped.entry(name.to_string()).or_insert(0.0) += value;
                }
            }
        }
    }
    run.note_rss(&server);
    server.kill();
}

/// Runs rounds until `seconds` of measured phase and enough samples.
pub fn socket_run(cmd: &ServerCmd, inputs: &Inputs, seconds: u64, work: &Path) -> SocketRun {
    let mut run = SocketRun::default();
    let target_ns = seconds.saturating_mul(1_000_000_000);
    while run.rounds < MAX_ROUNDS {
        let result = match &inputs.plan {
            Plan::Crawl(weeks) => {
                let root = (inputs.workload == Workload::DurableRestart)
                    .then(|| work.join(format!("round-{}", run.rounds)));
                let result = crawl_round(cmd, inputs, weeks, root.as_deref(), &mut run);
                if let Some(root) = root {
                    let _ = std::fs::remove_dir_all(root);
                }
                result
            }
            Plan::Dash(plan) => dash_round(cmd, inputs, plan, &mut run),
        };
        if let Err(e) = result {
            run.errors.push(format!("round {}: {e}", run.rounds));
            return run;
        }
        run.rounds += 1;
        if run.measured_ns >= target_ns && run.enough_samples(inputs.workload) {
            break;
        }
    }
    let durable = inputs.workload == Workload::DurableRestart;
    while run.setup_s.len() < setup_samples(inputs.workload) {
        let root = durable.then(|| work.join(format!("setup-{}", run.setup_s.len())));
        match setup(cmd, inputs, root.as_deref(), &mut run) {
            Ok((server, _conn)) => {
                run.note_rss(&server);
                server.kill();
            }
            Err(e) => {
                run.errors.push(format!("set-up: {e}"));
                break;
            }
        }
        if let Some(root) = root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
    run
}

/// The generator's second connection in a crawl: the odd-numbered polls
/// of every week, meeting the main thread at each week boundary.
fn crawl_peer(
    inputs: &Inputs,
    weeks: &[Week],
    barrier: &Barrier,
    target: &Mutex<(std::net::SocketAddr, u64)>,
) -> ConnLog {
    let lock = |t: &Mutex<_>| *t.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, mut generation) = lock(target);
    let mut conn = Conn::new(addr);
    let mut log = ConnLog::default();
    let mut ready = Instant::now();
    for week in weeks {
        for b in week.batches.clone().filter(|b| b % 2 == 1) {
            log.ingest(&mut conn, inputs, b, ready, false);
            ready = Instant::now();
        }
        barrier.wait();
        barrier.wait();
        let (addr, current) = lock(target);
        if current != generation {
            conn = Conn::new(addr);
            generation = current;
        }
        ready = Instant::now();
    }
    log
}

/// One `backfill` or `durable_restart` round: two closed-loop crawler
/// connections split each week's polls; at the week boundary both are
/// idle (every reply is in, so acked = applied = durable) and the main
/// connection publishes — then, after the marked weeks, SIGKILLs and
/// respawns the server on the same durable root.
fn crawl_round(
    cmd: &ServerCmd,
    inputs: &Inputs,
    weeks: &[Week],
    root: Option<&Path>,
    run: &mut SocketRun,
) -> io::Result<()> {
    let (server, mut conn) = setup(cmd, inputs, root, run)?;
    let mut cpu_base = server.cpu_seconds().unwrap_or(0.0);
    let barrier = Barrier::new(2);
    let target = Mutex::new((server.addr, 0u64));
    let mut server = Some(server);
    let mut acked = vec![false; inputs.batches.len()];
    let mut restarts = Duration::ZERO;
    let mut kill_bodies: Vec<Vec<u8>> = Vec::new();
    let mut last_body = Vec::new();
    let mut restart_error = None;
    let started = Instant::now();
    // Nothing in this scope may return early: the peer would wait at
    // the week barrier forever.
    let (mine, peer) = thread::scope(|scope| {
        let peer = scope.spawn(|| crawl_peer(inputs, weeks, &barrier, &target));
        let mut log = ConnLog::default();
        let mut ready = Instant::now();
        for week in weeks {
            for b in week.batches.clone().filter(|b| b % 2 == 0) {
                log.ingest(&mut conn, inputs, b, ready, false);
                ready = Instant::now();
            }
            barrier.wait();
            ready = Instant::now();
            if week.publish {
                if let Some(body) =
                    log.send(&mut conn, Op::Publish, &inputs.publish_wire, ready, false)
                {
                    last_body = body;
                }
            }
            if week.kill && restart_error.is_none() {
                let killed = Instant::now();
                if let Some(old) = server.take() {
                    run.note_rss(&old);
                    run.note_cpu(&old, cpu_base);
                    cpu_base = 0.0;
                    old.kill();
                }
                match cmd.spawn(root).and_then(|new| {
                    let recovered = recover(run, &new, inputs, killed);
                    server = Some(new);
                    recovered
                }) {
                    Ok((new_conn, body)) => {
                        conn = new_conn;
                        kill_bodies.push(body);
                    }
                    Err(e) => restart_error = Some(e),
                }
                if let Some(new) = &server {
                    let mut t = target.lock().unwrap_or_else(PoisonError::into_inner);
                    *t = (new.addr, t.1 + 1);
                }
                restarts += killed.elapsed();
            }
            barrier.wait();
            ready = Instant::now();
        }
        (log, peer.join().expect("crawler thread panicked"))
    });
    run.measured_ns += nanos(started.elapsed().saturating_sub(restarts));
    mine.merge_into(run, &mut acked);
    peer.merge_into(run, &mut acked);
    if let Some(root) = root {
        let posts: usize = acked
            .iter()
            .zip(&inputs.batches)
            .filter(|(a, _)| **a)
            .map(|(_, b)| b.posts)
            .sum();
        run.disk_bytes_per_post
            .push(dir_bytes(root) as f64 / posts.max(1) as f64);
    }
    if let Some(server) = server {
        run.note_cpu(&server, cpu_base);
        finish(run, server, &mut conn, inputs);
    }
    if let Some(e) = restart_error {
        return Err(e);
    }
    let expected = if acked.iter().all(|&a| a) {
        inputs.expected.clone()
    } else {
        crawl_expected(&inputs.tenant_config, &inputs.batches, weeks, &|b| acked[b])
            .map_err(|e| io::Error::other(e.to_string()))?
    };
    compare(run, &last_body, &kill_bodies, &expected);
    run.last_body = last_body;
    Ok(())
}

/// Respawned server → `/healthz` → tenant re-created (recovery runs
/// here) → first `?publish=1` answered. Records `recovery_s` from
/// `killed` and returns the connection and the publish body.
fn recover(
    run: &mut SocketRun,
    server: &Server,
    inputs: &Inputs,
    killed: Instant,
) -> io::Result<(Conn, Vec<u8>)> {
    let mut conn = Conn::new(server.addr);
    must(run, &mut conn, Op::Healthz, inputs.wire_of(Op::Healthz))?;
    must(run, &mut conn, Op::Create, inputs.wire_of(Op::Create))?;
    let body = must(run, &mut conn, Op::Publish, inputs.wire_of(Op::Publish))?;
    run.recovery_s.push(killed.elapsed().as_secs_f64());
    Ok((conn, body))
}

fn compare(run: &mut SocketRun, last: &[u8], after_kill: &[Vec<u8>], expected: &Expected) {
    let round = run.rounds;
    if let Err(e) = same_bytes(&format!("round {round} last publish"), last, &expected.last) {
        run.errors.push(e);
    }
    if after_kill.len() != expected.after_kill.len() {
        run.errors.push(format!(
            "round {round}: {} post-respawn publishes, expected {}",
            after_kill.len(),
            expected.after_kill.len()
        ));
    }
    for (k, (got, want)) in after_kill.iter().zip(&expected.after_kill).enumerate() {
        if let Err(e) = same_bytes(
            &format!("round {round} publish after respawn {k}"),
            got,
            want,
        ) {
            run.errors.push(e);
        }
    }
}

/// Sleeps until `due`. The sleep's wake-up slack shows up as generator
/// lag; spinning it away would take CPU from the server on a small host.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// One `dashboard` round: set-up preloads the window; then the live
/// monitor (main connection) and the analysts (second connection) send
/// on fixed schedules, each request timed from its scheduled send.
fn dash_round(
    cmd: &ServerCmd,
    inputs: &Inputs,
    plan: &DashPlan,
    run: &mut SocketRun,
) -> io::Result<()> {
    let (server, mut conn) = setup(cmd, inputs, None, run)?;
    let cpu_base = server.cpu_seconds().unwrap_or(0.0);
    let mut acked = vec![false; inputs.batches.len()];
    for b in plan.preload.clone() {
        acked[b] = true;
    }
    let addr = server.addr;
    let mut last_body = Vec::new();
    let start = Instant::now() + Duration::from_millis(5);
    let (mine, peer) = thread::scope(|scope| {
        let peer = scope.spawn(|| {
            let mut conn = Conn::new(addr);
            let mut log = ConnLog::default();
            for &(due, op) in &plan.analysts {
                let due = start + Duration::from_nanos(due);
                wait_until(due);
                log.send(&mut conn, op, inputs.wire_of(op), due, true);
            }
            log
        });
        let mut log = ConnLog::default();
        for &(due, op, batch) in &plan.monitor {
            let due = start + Duration::from_nanos(due);
            wait_until(due);
            match batch {
                Some(b) => log.ingest(&mut conn, inputs, b, due, true),
                None => {
                    if let Some(body) = log.send(&mut conn, op, inputs.wire_of(op), due, true) {
                        last_body = body;
                    }
                }
            }
        }
        (log, peer.join().expect("analyst thread panicked"))
    });
    run.measured_ns += nanos(start.elapsed());
    run.note_cpu(&server, cpu_base);
    mine.merge_into(run, &mut acked);
    peer.merge_into(run, &mut acked);
    finish(run, server, &mut conn, inputs);
    let expected = if acked.iter().all(|&a| a) {
        inputs.expected.clone()
    } else {
        dashboard_expected(&inputs.tenant_config, &inputs.batches, plan, &|b| acked[b])
            .map_err(|e| io::Error::other(e.to_string()))?
    };
    compare(run, &last_body, &[], &expected);
    run.last_body = last_body;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_serve::ClientResponse;

    fn response(status: u16) -> io::Result<ClientResponse> {
        Ok(ClientResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    #[test]
    fn every_attempt_counts_and_only_2xx_succeeds() {
        let outcomes = [
            response(200),
            response(201),
            response(409),
            response(500),
            Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out")),
            Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset")),
            response(204),
        ];
        let mut tally = Tally::default();
        for outcome in &outcomes {
            tally.record(succeeded(outcome));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 7,
                failed: 4
            }
        );
    }
}
