//! Seeded inputs: the simulated forum, its crawler polls as grouped-delta
//! ingest bodies, and the request plan of each workload.
//!
//! Everything here is a pure function of the workload and the seed, and
//! is built before any clock starts. The socket run, the in-process
//! references and the traced replay all read the same [`Inputs`], so the
//! traced replay parses exactly the bytes the socket run sent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

use crowdtz_core::{TenantConfig, WindowConfig};
use crowdtz_forum::{ForumSpec, SimulatedForum};
use crowdtz_time::Timestamp;

use crate::check::{crawl_reference, dashboard_reference, Expected};

const HOUR: i64 = 3_600;
const DAY: i64 = 86_400;
const WEEK: i64 = 7 * DAY;

/// Engine worker threads per tenant (`CROWDTZ_THREADS` for the server,
/// `threads` in every tenant config, and the in-process references).
pub const ENGINE_THREADS: usize = 2;

/// `dream_market()` users are multiplied by this for the crawls (189 →
/// 3 780 users, ~440k posts over the simulated year).
const CRAWL_SCALE: f64 = 20.0;
/// The dashboard's forum is half as large (1 890 users): its open-loop
/// reads and publishes then keep the server at about a quarter of two
/// CPUs, so its schedule holds even when a shared host steals CPU.
const DASH_SCALE: f64 = 10.0;

/// Tenant name used by every workload.
pub const TENANT: &str = "dream-market";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop archive replay into a plain tenant.
    Backfill,
    /// Open-loop live monitor plus analysts on a windowed tenant.
    Dashboard,
    /// Closed-loop archive replay into a durable tenant, with SIGKILLs.
    DurableRestart,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "backfill" => Some(Workload::Backfill),
            "dashboard" => Some(Workload::Dashboard),
            "durable_restart" => Some(Workload::DurableRestart),
            _ => None,
        }
    }

    /// The workload's name as the command line and results spell it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Dashboard => "dashboard",
            Workload::DurableRestart => "durable_restart",
        }
    }
}

/// What a request does, as the metrics name it. `Publish` is
/// `GET …/snapshot?publish=1`; `Read` is a plain `GET …/snapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Healthz,
    Create,
    Ingest,
    Publish,
    Read,
    Drift,
    Metrics,
}

impl Op {
    /// Label used in per-layer metric names (`service.handle.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            Op::Healthz => "healthz",
            Op::Create => "create",
            Op::Ingest => "ingest",
            Op::Publish => "publish",
            Op::Read => "snapshot",
            Op::Drift => "drift",
            Op::Metrics => "metrics",
        }
    }
}

/// One crawler poll: the posts of one simulated hour, grouped by user.
#[derive(Debug)]
pub struct Batch {
    /// `(user, timestamps)` in user order, exactly as the body lists them.
    pub deltas: Vec<(String, Vec<Timestamp>)>,
    /// Posts in the batch.
    pub posts: usize,
    /// Start of the simulated hour, in epoch seconds.
    pub hour: i64,
    /// Full request bytes of `POST /v1/tenants/{TENANT}/ingest`.
    pub wire: Vec<u8>,
}

impl Batch {
    /// The `(user, timestamp)` pairs, flattened in body order — the shape
    /// the service hands to the engine.
    pub fn flat(&self) -> Vec<(&str, Timestamp)> {
        self.deltas
            .iter()
            .flat_map(|(user, posts)| posts.iter().map(move |ts| (user.as_str(), *ts)))
            .collect()
    }
}

/// One simulated week of a crawl: its polls, then (maybe) a publish.
#[derive(Debug, Clone)]
pub struct Week {
    /// Indices into [`Inputs::batches`].
    pub batches: Range<usize>,
    /// Whether the harness publishes at this week's end. Weeks before any
    /// user reaches the activity threshold are skipped: their publish
    /// would be refused with 409.
    pub publish: bool,
    /// Whether the harness SIGKILLs and respawns the server after this
    /// week's publish (`durable_restart` only).
    pub kill: bool,
}

/// The open-loop schedule of one `dashboard` round.
#[derive(Debug, Clone)]
pub struct DashPlan {
    /// Polls ingested during set-up: the window's history.
    pub preload: Range<usize>,
    /// Live monitor: `(due offset ns, op, batch)`; `batch` is set for ingests.
    pub monitor: Vec<(u64, Op, Option<usize>)>,
    /// Analysts: `(due offset ns, op)`.
    pub analysts: Vec<(u64, Op)>,
}

/// The workload's plan of one round.
#[derive(Debug, Clone)]
pub enum Plan {
    /// `backfill` and `durable_restart`.
    Crawl(Vec<Week>),
    /// `dashboard`.
    Dash(DashPlan),
}

/// Everything a run needs, built from the seed before timing starts.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub users: usize,
    pub posts: usize,
    pub batches: Vec<Batch>,
    pub plan: Plan,
    /// Engine configuration of the tenant (the server's copy is built
    /// from [`Inputs::create_wire`]).
    pub tenant_config: TenantConfig,
    /// `POST /v1/tenants/{TENANT}` request bytes.
    pub create_wire: Vec<u8>,
    pub publish_wire: Vec<u8>,
    pub read_wire: Vec<u8>,
    pub drift_wire: Vec<u8>,
    pub healthz_wire: Vec<u8>,
    pub metrics_wire: Vec<u8>,
    /// Snapshot bodies a correct server must serve, from in-process
    /// references fed the same batches and publishes.
    pub expected: Expected,
}

// ---- dashboard shape --------------------------------------------------

/// Activity threshold of the windowed tenant. Dream Market users post
/// ~0.29 times a day, so a 26-week window holds ~53 posts per user and
/// nearly every user in it clears 20.
const DASH_MIN_POSTS: usize = 20;
/// Window buckets are simulated days.
const DASH_BUCKET_SECS: i64 = DAY;
/// Window span in buckets: 26 weeks, a long window in the spirit of
/// tracking a community's zones over long spans of activity. Windows of a
/// few weeks hold so few posts per user that the fit splits the UTC−6
/// crowd into two components (near UTC−3 and UTC−7), and the zone check
/// fails on most seeds.
const DASH_WINDOW_BUCKETS: usize = 182;
/// Simulated days the live monitor covers in one round.
const DASH_LIVE_DAYS: usize = 35;
/// Wall time of one simulated day in the live phase.
const DASH_DAY_NS: u64 = 100_000_000;
/// Wall spacing of the hourly polls; the 24 polls take the first 24 ms
/// of each day and the bucket-boundary publish is due at 24 ms, which
/// leaves it 76 ms before the next day's first poll.
const DASH_POLL_NS: u64 = 1_000_000;
/// Analyst request spacing, cycling snapshot, drift, snapshot.
const DASH_ANALYST_NS: u64 = 60_000_000;

// ---- durable_restart shape --------------------------------------------

/// Ordinals of the publishes after which the server is SIGKILLed and
/// respawned.
const KILL_AFTER_PUBLISHES: &[usize] = &[13, 26, 39];

/// Request bytes as the socket run sends them.
pub fn wire(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {target} HTTP/1.1\r\nHost: crowdtz-bench\r\n");
    if method == "POST" {
        let _ = write!(
            out,
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    out
}

fn ingest_body(deltas: &[(String, Vec<Timestamp>)]) -> Vec<u8> {
    let mut body = String::from("{\"deltas\":[");
    for (i, (user, posts)) in deltas.iter().enumerate() {
        // Simulated pseudonyms are `memberNNNN`: nothing to escape.
        assert!(user.bytes().all(|b| b.is_ascii_alphanumeric()));
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{{\"user\":\"{user}\",\"posts\":[");
        for (j, ts) in posts.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "{}", ts.as_secs());
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    body.into_bytes()
}

/// Splits the forum's posts, in time order, into one batch per simulated
/// hour that has posts.
fn hourly_batches(forum: &SimulatedForum) -> Vec<Batch> {
    let ingest_target = format!("/v1/tenants/{TENANT}/ingest");
    let mut batches = Vec::new();
    let posts = forum.posts();
    let mut i = 0;
    while i < posts.len() {
        let hour = posts[i].true_time().as_secs().div_euclid(HOUR);
        let mut grouped: BTreeMap<&str, Vec<Timestamp>> = BTreeMap::new();
        let mut n = 0;
        while i < posts.len() && posts[i].true_time().as_secs().div_euclid(HOUR) == hour {
            grouped
                .entry(posts[i].author())
                .or_default()
                .push(posts[i].true_time());
            i += 1;
            n += 1;
        }
        let deltas: Vec<(String, Vec<Timestamp>)> = grouped
            .into_iter()
            .map(|(user, ts)| (user.to_string(), ts))
            .collect();
        let body = ingest_body(&deltas);
        batches.push(Batch {
            wire: wire("POST", &ingest_target, &body),
            deltas,
            posts: n,
            hour: hour * HOUR,
        });
    }
    batches
}

/// Groups consecutive batches by `key(batch.hour)`.
fn group_by(batches: &[Batch], key: impl Fn(i64) -> i64) -> Vec<Range<usize>> {
    let mut groups: Vec<Range<usize>> = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if key(batches[g.start].hour) == key(batch.hour) => g.end = i + 1,
            _ => groups.push(i..i + 1),
        }
    }
    groups
}

impl Inputs {
    /// Generates the forum from `seed` and lays out the workload's plan.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let scale = match workload {
            Workload::Dashboard => DASH_SCALE,
            Workload::Backfill | Workload::DurableRestart => CRAWL_SCALE,
        };
        let forum = SimulatedForum::generate(&ForumSpec::dream_market().scaled(scale).seed(seed));
        let batches = hourly_batches(&forum);
        let mut tenant_config = TenantConfig {
            threads: ENGINE_THREADS,
            ..TenantConfig::default()
        };
        let create_body = match workload {
            Workload::Backfill => format!("{{\"threads\":{ENGINE_THREADS}}}"),
            Workload::DurableRestart => {
                format!("{{\"threads\":{ENGINE_THREADS},\"durable\":true}}")
            }
            Workload::Dashboard => {
                tenant_config.min_posts = DASH_MIN_POSTS;
                tenant_config.window = Some(WindowConfig {
                    bucket_secs: DASH_BUCKET_SECS,
                    window_buckets: DASH_WINDOW_BUCKETS,
                    ..WindowConfig::default()
                });
                format!(
                    "{{\"threads\":{ENGINE_THREADS},\"min_posts\":{DASH_MIN_POSTS},\
                     \"window\":{{\"bucket_secs\":{DASH_BUCKET_SECS},\
                     \"window_buckets\":{DASH_WINDOW_BUCKETS}}}}}"
                )
            }
        };
        let (plan, expected) = match workload {
            Workload::Backfill | Workload::DurableRestart => {
                let weeks = group_by(&batches, |hour| hour.div_euclid(WEEK));
                let kills: &[usize] = if workload == Workload::DurableRestart {
                    KILL_AFTER_PUBLISHES
                } else {
                    &[]
                };
                let (weeks, expected) = crawl_reference(&tenant_config, &batches, &weeks, kills);
                (Plan::Crawl(weeks), expected)
            }
            Workload::Dashboard => {
                let days = group_by(&batches, |hour| hour.div_euclid(DAY));
                let plan = dash_plan(&batches, &days);
                let expected = dashboard_reference(&tenant_config, &batches, &plan);
                (Plan::Dash(plan), expected)
            }
        };
        let base = format!("/v1/tenants/{TENANT}");
        Inputs {
            workload,
            users: forum.user_count(),
            posts: forum.post_count(),
            plan,
            tenant_config,
            create_wire: wire("POST", &base, create_body.as_bytes()),
            publish_wire: wire("GET", &format!("{base}/snapshot?publish=1"), b""),
            read_wire: wire("GET", &format!("{base}/snapshot"), b""),
            drift_wire: wire("GET", &format!("{base}/drift?trajectory=1"), b""),
            healthz_wire: wire("GET", "/healthz", b""),
            metrics_wire: wire("GET", "/metrics", b""),
            batches,
            expected,
        }
    }

    /// Request bytes of a non-ingest op.
    pub fn wire_of(&self, op: Op) -> &[u8] {
        match op {
            Op::Healthz => &self.healthz_wire,
            Op::Create => &self.create_wire,
            Op::Publish => &self.publish_wire,
            Op::Read => &self.read_wire,
            Op::Drift => &self.drift_wire,
            Op::Metrics => &self.metrics_wire,
            Op::Ingest => unreachable!("ingest bytes live on their batch"),
        }
    }
}

/// Lays out one dashboard round: the first [`DASH_WINDOW_BUCKETS`] days
/// are preloaded, the next [`DASH_LIVE_DAYS`] are polled live.
fn dash_plan(batches: &[Batch], days: &[Range<usize>]) -> DashPlan {
    let live_days = &days[DASH_WINDOW_BUCKETS..DASH_WINDOW_BUCKETS + DASH_LIVE_DAYS];
    let mut monitor = Vec::new();
    for (d, day) in live_days.iter().enumerate() {
        let day_start = d as u64 * DASH_DAY_NS;
        let midnight = batches[day.start].hour.div_euclid(DAY) * DAY;
        for b in day.clone() {
            let hour_of_day = ((batches[b].hour - midnight) / HOUR) as u64;
            monitor.push((day_start + hour_of_day * DASH_POLL_NS, Op::Ingest, Some(b)));
        }
        monitor.push((day_start + 24 * DASH_POLL_NS, Op::Publish, None));
    }
    let live_ns = DASH_LIVE_DAYS as u64 * DASH_DAY_NS;
    let analysts = (0..live_ns / DASH_ANALYST_NS)
        .map(|i| {
            let op = if i % 3 == 1 { Op::Drift } else { Op::Read };
            (i * DASH_ANALYST_NS + DASH_ANALYST_NS / 2, op)
        })
        .collect();
    DashPlan {
        preload: days[0].start..days[DASH_WINDOW_BUCKETS - 1].end,
        monitor,
        analysts,
    }
}
