//! Black-box integration for `crowdtz-serve` (ISSUE 9): concurrent HTTP
//! clients, multiple tenants, both grids, with and without durability —
//! and the one invariant that matters: the snapshot body that comes back
//! over the wire is **byte-identical** to what an in-process
//! [`ConcurrentStreamingPipeline`] publishes after ingesting the same
//! deltas.
//!
//! Every test runs the same shape: start a server on an ephemeral
//! loopback port, create two tenants on different grids over HTTP, fan
//! the workload out over N client threads (each with its own persistent
//! connection, hence its own per-tenant `IngestWriter` on the server),
//! interleave their batches across both tenants, then publish and
//! compare raw bytes. The engine's determinism guarantee — deltas
//! commute — is what makes the comparison exact for any interleaving
//! the threads produce.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use crowdtz::core::{ConcurrentStreamingPipeline, GeolocationPipeline, PublishedReport, ZoneGrid};
use crowdtz::serve::{serve, ClientResponse, HttpClient, ServeConfig, ServerHandle, ServiceConfig};
use crowdtz::time::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

const USERS_PER_TENANT: usize = 60;
const POSTS_PER_USER: usize = 15;
const MIN_POSTS: usize = 8;
const BATCH_USERS: usize = 10;

/// The two tenants every test creates: name, grid label, grid.
const TENANTS: &[(&str, &str, ZoneGrid)] = &[
    ("midnight-market", "hourly", ZoneGrid::Hourly),
    ("onion-forum", "quarter-hour", ZoneGrid::QuarterHour),
];

/// Per-tenant workload: `(tenant name, [(user, posts)])`.
type TenantWorkload = (String, Vec<(String, Vec<Timestamp>)>);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic two-region workload (70% UTC+1, 30% UTC+9), seeded per
/// tenant so the two tenants hold different crowds.
fn synthesize(seed: u64) -> Vec<(String, Vec<Timestamp>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..USERS_PER_TENANT)
        .map(|i| {
            let home_hour: i64 = if i % 10 < 7 { 20 } else { 12 };
            let posts: Vec<Timestamp> = (0..POSTS_PER_USER)
                .map(|p| {
                    let jitter: i64 = rng.gen_range(-2..=2);
                    let hour = (home_hour + jitter).rem_euclid(24);
                    Timestamp::from_secs((p as i64) * 86_400 + hour * 3_600 + (i as i64))
                })
                .collect();
            (format!("u{i:04}"), posts)
        })
        .collect()
}

fn batch_body(chunk: &[(String, Vec<Timestamp>)]) -> serde_json::Value {
    let entries: Vec<serde_json::Value> = chunk
        .iter()
        .map(|(user, posts)| {
            let secs: Vec<i64> = posts.iter().map(|t| t.as_secs()).collect();
            json!({"user": user, "posts": secs})
        })
        .collect();
    json!({ "deltas": entries })
}

/// The reference engine: one in-process engine, one writer, same deltas.
fn reference_engine(
    grid: ZoneGrid,
    deltas: &[(String, Vec<Timestamp>)],
) -> ConcurrentStreamingPipeline {
    let engine = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default()
            .min_posts(MIN_POSTS)
            .shards(4)
            .grid(grid),
    );
    let writer = engine.writer();
    for (user, posts) in deltas {
        writer.ingest(user, posts).expect("reference ingest");
    }
    engine
}

/// The reference bytes: the reference engine's publish, encoded.
fn in_process_reference(grid: ZoneGrid, deltas: &[(String, Vec<Timestamp>)]) -> Vec<u8> {
    let published = reference_engine(grid, deltas)
        .publish()
        .expect("reference publish");
    serde_json::to_vec(published.report()).expect("serialize reference")
}

fn start_server(durable_root: Option<PathBuf>) -> ServerHandle {
    let config = ServeConfig {
        workers: 4,
        service: ServiceConfig {
            durable_root,
            crash_after_batches: None,
        },
        ..ServeConfig::default()
    };
    serve(config, None).expect("bind loopback")
}

fn create_tenants(handle: &ServerHandle, durable: bool) {
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for (name, grid, _) in TENANTS {
        let created = client
            .post_json(
                &format!("/v1/tenants/{name}"),
                &json!({
                    "grid": *grid,
                    "min_posts": MIN_POSTS,
                    "shards": 4,
                    "durable": durable,
                }),
            )
            .expect("create tenant");
        assert_eq!(created.status, 201, "create {name}");
        let body = created.json().expect("create body");
        assert_eq!(
            body.field("durable").unwrap(),
            &json!(durable),
            "durable flag for {name}"
        );
    }
}

/// Fans the per-tenant batch lists out over `clients` threads. Each
/// thread owns one connection and posts its share of batches to *both*
/// tenants, interleaved, so server-side writers see mixed traffic.
fn ingest_concurrently(handle: &ServerHandle, clients: usize, workloads: &[TenantWorkload]) {
    let addr = handle.addr();
    let workloads = Arc::new(
        workloads
            .iter()
            .map(|(name, deltas)| {
                let batches: Vec<serde_json::Value> =
                    deltas.chunks(BATCH_USERS).map(batch_body).collect();
                (name.clone(), batches)
            })
            .collect::<Vec<_>>(),
    );
    std::thread::scope(|scope| {
        for client_idx in 0..clients {
            let workloads = Arc::clone(&workloads);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connect");
                let mut applied = 0u64;
                let batch_count = workloads.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
                for batch_idx in (client_idx..batch_count).step_by(clients) {
                    // Interleave: this batch index to every tenant that
                    // has it, back to back on the same connection.
                    for (name, batches) in workloads.iter() {
                        let Some(body) = batches.get(batch_idx) else {
                            continue;
                        };
                        let response = client
                            .post_json(&format!("/v1/tenants/{name}/ingest"), body)
                            .expect("ingest request");
                        assert_eq!(response.status, 200, "ingest into {name}");
                        let reply = response.json().expect("ingest reply");
                        let watermark = reply.field("watermark").unwrap().as_u64().unwrap();
                        assert!(
                            watermark > 0,
                            "writer watermark must advance on every batch"
                        );
                        applied += 1;
                    }
                }
                applied
            });
        }
    });
}

/// Publishes each tenant over HTTP and pins the body bytes against the
/// in-process reference; re-reads from the published cell to prove the
/// wait-free path serves the same Arc.
fn assert_snapshots_match(handle: &ServerHandle, workloads: &[TenantWorkload], clients: usize) {
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for ((name, deltas), (_, _, grid)) in workloads.iter().zip(TENANTS) {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("publish snapshot");
        assert_eq!(published.status, 200, "publish {name}");
        let expected = in_process_reference(*grid, deltas);
        assert_eq!(
            published.body, expected,
            "HTTP snapshot of {name} diverged from the in-process engine"
        );
        assert_eq!(
            published.header("x-crowdtz-posts"),
            Some((deltas.len() * POSTS_PER_USER).to_string().as_str()),
            "post count at the cut for {name}"
        );
        // One writer per ingesting connection, plus tenant-creation and
        // snapshot connections that never wrote.
        let watermarks: Vec<u64> = published
            .header("x-crowdtz-watermarks")
            .expect("watermark header")
            .split(',')
            .map(|w| w.parse().unwrap())
            .collect();
        let writers_used = watermarks.iter().filter(|&&w| w > 0).count();
        assert_eq!(
            writers_used,
            clients.min(deltas.chunks(BATCH_USERS).len()),
            "every ingesting connection shows as one watermark for {name}"
        );

        let replay = client
            .get(&format!("/v1/tenants/{name}/snapshot"))
            .expect("cached snapshot");
        assert_eq!(replay.status, 200);
        assert_eq!(
            replay.body, published.body,
            "wait-free read of {name} returned different bytes"
        );
        assert_eq!(
            replay.header("x-crowdtz-epoch"),
            published.header("x-crowdtz-epoch"),
            "cached read must serve the same epoch"
        );
    }
}

fn exercise(clients: usize, durable: bool, tag: &str) {
    let durable_root = durable.then(|| tmp_dir(tag));
    let handle = start_server(durable_root.clone());
    create_tenants(&handle, durable);
    let workloads: Vec<TenantWorkload> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| ((*name).to_string(), synthesize(1000 + i as u64)))
        .collect();
    ingest_concurrently(&handle, clients, &workloads);
    assert_snapshots_match(&handle, &workloads, clients);
    let checkpointed = handle.shutdown().expect("shutdown");
    if durable {
        assert_eq!(checkpointed, TENANTS.len(), "both tenants checkpointed");
        let root = durable_root.unwrap();
        for (name, _, _) in TENANTS {
            assert!(
                root.join(name).is_dir(),
                "durable tenant {name} journals under its own directory"
            );
        }
        let _ = std::fs::remove_dir_all(root);
    } else {
        assert_eq!(checkpointed, 0, "nothing durable to checkpoint");
    }
}

#[test]
fn two_clients_two_tenants_both_grids() {
    exercise(2, false, "2c");
}

#[test]
fn four_clients_two_tenants_both_grids() {
    exercise(4, false, "4c");
}

#[test]
fn two_clients_durable_tenants() {
    exercise(2, true, "2c-durable");
}

#[test]
fn four_clients_durable_tenants() {
    exercise(4, true, "4c-durable");
}

/// A windowed tenant over a real socket (ISSUE 10): ingest a migrating
/// crowd round by round, retract over HTTP, publish through the sliding
/// window, and read the drift trajectory back — the snapshot bytes pin
/// against an in-process [`WindowedPipeline`] driven identically, and
/// the trajectory flags the migration within one bucket of the truth.
#[test]
fn windowed_tenant_tracks_a_migration_over_the_wire() {
    use crowdtz::core::{WindowConfig, WindowedPipeline};
    use crowdtz::synth::MigrationSpec;
    use crowdtz::time::RegionDb;

    let db = RegionDb::extended();
    let spec = MigrationSpec::new(
        db.get(&"new-york".into()).unwrap().clone(),
        db.get(&"china".into()).unwrap().clone(),
    )
    .users(24)
    .rounds(8)
    .switch_round(4)
    .round_days(7)
    .seed(11)
    .posts_per_day(3.0);

    // The last round's posts by the first user — retracted over HTTP
    // before the final publish, and from the reference identically.
    let retract: Vec<(String, Vec<Timestamp>)> = {
        let posts: Vec<Timestamp> = spec
            .round_posts(spec.round_count() - 1)
            .into_iter()
            .filter(|(user, _)| user == "mig-u0")
            .map(|(_, ts)| ts)
            .collect();
        assert!(!posts.is_empty(), "fixture user posted in the last round");
        vec![("mig-u0".to_owned(), posts)]
    };
    let grouped = |round: usize| -> Vec<(String, Vec<Timestamp>)> {
        let mut by_user: Vec<(String, Vec<Timestamp>)> = Vec::new();
        for (user, ts) in spec.round_posts(round) {
            match by_user.iter_mut().find(|(u, _)| *u == user) {
                Some((_, posts)) => posts.push(ts),
                None => by_user.push((user, vec![ts])),
            }
        }
        by_user
    };

    let handle = start_server(None);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let created = client
        .post_json(
            "/v1/tenants/migrating-market",
            &json!({
                "min_posts": 1,
                "threads": 2,
                "window": json!({
                    "bucket_secs": spec.round_secs(),
                    "window_buckets": 2,
                    "drift_threshold": 1.2,
                    "drift_history": 3,
                }),
            }),
        )
        .expect("create windowed tenant");
    assert_eq!(created.status, 201);
    assert_eq!(
        created.json().unwrap().field("windowed").unwrap(),
        &json!(true),
        "creation reports the window"
    );

    // The in-process twin, driven through the same sequence of calls.
    let reference = WindowedPipeline::new(
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2)),
        WindowConfig {
            bucket_secs: spec.round_secs(),
            window_buckets: 2,
            drift_threshold: 1.2,
            drift_history: 3,
        },
        None,
    );
    let ref_writer = reference.engine().writer();

    let mut last_http_body = Vec::new();
    for round in 0..spec.round_count() {
        let batch = grouped(round);
        let response = client
            .post_json("/v1/tenants/migrating-market/ingest", &batch_body(&batch))
            .expect("ingest round");
        assert_eq!(response.status, 200, "ingest round {round}");
        let flat: Vec<(&str, Timestamp)> = batch
            .iter()
            .flat_map(|(user, posts)| posts.iter().map(move |&ts| (user.as_str(), ts)))
            .collect();
        reference.ingest_posts(&ref_writer, &flat).unwrap();

        if round == spec.round_count() - 1 {
            let retracted = client
                .post_json(
                    "/v1/tenants/migrating-market/retract",
                    &batch_body(&retract),
                )
                .expect("retract over the wire");
            assert_eq!(retracted.status, 200);
            assert_eq!(
                retracted
                    .json()
                    .unwrap()
                    .field("posts")
                    .unwrap()
                    .as_u64()
                    .unwrap(),
                retract[0].1.len() as u64,
                "every retraction target was live"
            );
            let flat: Vec<(&str, Timestamp)> = retract
                .iter()
                .flat_map(|(user, posts)| posts.iter().map(move |&ts| (user.as_str(), ts)))
                .collect();
            reference.retract_posts(&ref_writer, &flat).unwrap();
        }

        let published = client
            .get("/v1/tenants/migrating-market/snapshot?publish=1")
            .expect("publish round");
        assert_eq!(published.status, 200, "publish round {round}");
        last_http_body = published.body;
        reference.publish().unwrap();
    }
    assert_eq!(
        last_http_body,
        serde_json::to_vec(reference.engine().snapshot().unwrap().report()).unwrap(),
        "windowed snapshot over the wire diverged from the in-process twin"
    );

    let drift = client
        .get("/v1/tenants/migrating-market/drift?trajectory=1")
        .expect("drift trajectory");
    assert_eq!(drift.status, 200);
    let body = drift.json().expect("trajectory body");
    assert_eq!(
        body.field("window_buckets").unwrap().as_u64().unwrap(),
        2,
        "window config echoed"
    );
    assert!(
        body.field("changepoints").unwrap().as_u64().unwrap() >= 1,
        "the migration must be flagged"
    );
    let rows = match body.field("trajectory").unwrap() {
        serde_json::Value::Array(rows) => rows,
        other => panic!("trajectory must be an array, got {other:?}"),
    };
    assert_eq!(rows.len(), spec.round_count(), "one point per publish");
    let truth = spec
        .round_start(spec.ground_truth_round())
        .days_since_epoch()
        * 86_400
        / spec.round_secs();
    let first_flagged = rows
        .iter()
        .find(|row| row.field("changepoint").unwrap() == &json!(true))
        .expect("a flagged trajectory row");
    let bucket = first_flagged.field("bucket").unwrap().as_i64().unwrap();
    assert!(
        (bucket - truth).abs() <= 1,
        "wire trajectory flagged bucket {bucket}, switch at {truth}"
    );
    drop(client);
    handle.shutdown().expect("shutdown");
}

/// A durable tenant warm-restarts: shut the server down, start a new
/// one over the same root, re-create the tenant, and the recovered
/// engine publishes the same bytes without any re-ingest.
#[test]
fn durable_tenant_warm_restarts_into_identical_bytes() {
    let root = tmp_dir("restart");
    let handle = start_server(Some(root.clone()));
    create_tenants(&handle, true);
    let workloads: Vec<TenantWorkload> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| ((*name).to_string(), synthesize(2000 + i as u64)))
        .collect();
    ingest_concurrently(&handle, 2, &workloads);

    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let mut first: Vec<Vec<u8>> = Vec::new();
    for (name, _) in &workloads {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("first publish");
        assert_eq!(published.status, 200);
        first.push(published.body);
    }
    drop(client);
    handle.shutdown().expect("first shutdown");

    let handle = start_server(Some(root.clone()));
    create_tenants(&handle, true); // same names: recovered, not empty
    let mut client = HttpClient::connect(handle.addr()).expect("reconnect");
    for ((name, _), before) in workloads.iter().zip(&first) {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("second publish");
        assert_eq!(published.status, 200, "publish {name} after restart");
        assert_eq!(
            &published.body, before,
            "warm-restarted {name} must publish identical bytes"
        );
    }
    drop(client);
    handle.shutdown().expect("second shutdown");
    let _ = std::fs::remove_dir_all(root);
}

/// A durable windowed tenant keeps expiring across a restart: days 0–4
/// are ingested and published, the server shuts down, a new server on
/// the same root re-creates the tenant, and days 5–8 continue. Every
/// publish after the restart must equal a fresh engine fed only the
/// days still inside the three-day window — including the days that
/// arrived before the restart.
#[test]
fn durable_windowed_tenant_keeps_expiring_across_a_restart() {
    const NAME: &str = "rolling-market";
    const SPAN: i64 = 3;
    // Two posts per user per day, each inside its own day.
    let day = |d: i64| -> Vec<(String, Vec<Timestamp>)> {
        (0..24i64)
            .map(|i| {
                let home = if i % 3 == 0 { 12 } else { 20 };
                let posts = (0..2i64)
                    .map(|k| {
                        let hour = (home + 2 * k - 1 + (i + d) % 3).rem_euclid(24);
                        Timestamp::from_secs(d * 86_400 + hour * 3_600 + i * 61)
                    })
                    .collect();
                (format!("r{i:03}"), posts)
            })
            .collect()
    };
    let reference = |newest: i64| -> Vec<u8> {
        let engine =
            ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(2).shards(4));
        let writer = engine.writer();
        for d in (newest - SPAN + 1).max(0)..=newest {
            for (user, posts) in day(d) {
                writer.ingest(&user, &posts).expect("reference ingest");
            }
        }
        let published = engine.publish().expect("reference publish");
        serde_json::to_vec(published.report()).expect("serialize reference")
    };
    let create = |handle: &ServerHandle| {
        let mut client = HttpClient::connect(handle.addr()).expect("connect");
        let created = client
            .post_json(
                &format!("/v1/tenants/{NAME}"),
                &json!({
                    "min_posts": 2,
                    "shards": 4,
                    "durable": true,
                    "window": json!({"bucket_secs": 86_400, "window_buckets": SPAN}),
                }),
            )
            .expect("create windowed tenant");
        assert_eq!(created.status, 201);
        client
    };
    let ingest_and_publish = |client: &mut HttpClient, d: i64| {
        ingest_batch(client, NAME, &day(d));
        let published = client
            .get(&format!("/v1/tenants/{NAME}/snapshot?publish=1"))
            .expect("publish");
        assert_eq!(published.status, 200, "publish day {d}");
        assert_eq!(published.body, reference(d), "day {d}");
    };

    let root = tmp_dir("window-restart");
    let handle = start_server(Some(root.clone()));
    let mut client = create(&handle);
    for d in 0..5 {
        ingest_and_publish(&mut client, d);
    }
    drop(client);
    handle.shutdown().expect("first shutdown");

    let handle = start_server(Some(root.clone()));
    let mut client = create(&handle);
    for d in 5..9 {
        ingest_and_publish(&mut client, d);
    }
    drop(client);
    handle.shutdown().expect("second shutdown");
    let _ = std::fs::remove_dir_all(root);
}

/// Ingests `chunk` as one batch over `client` and asserts it applied.
fn ingest_batch(client: &mut HttpClient, name: &str, chunk: &[(String, Vec<Timestamp>)]) {
    let response = client
        .post_json(&format!("/v1/tenants/{name}/ingest"), &batch_body(chunk))
        .expect("ingest request");
    assert_eq!(response.status, 200, "ingest into {name}");
}

/// Each epoch's body is encoded once and kept; plain reads must follow
/// the newest epoch. After every publish, reads on a second connection
/// get that cut's bytes under its epoch, which are the in-process
/// reference's bytes for the deltas so far. Reads between an ingest and
/// the next publish still get the previous cut.
#[test]
fn plain_reads_follow_every_new_epoch_over_the_wire() {
    let handle = start_server(None);
    create_tenants(&handle, false);
    let (name, _, grid) = TENANTS[0];
    let deltas = synthesize(3000);
    let path = format!("/v1/tenants/{name}/snapshot");
    let mut writer = HttpClient::connect(handle.addr()).expect("connect writer");
    let mut reader = HttpClient::connect(handle.addr()).expect("connect reader");
    assert_eq!(
        reader.get(&path).expect("read before any publish").status,
        404,
        "nothing published yet"
    );

    let mut previous: Vec<u8> = Vec::new();
    let round_users = 2 * BATCH_USERS;
    for (round, chunk) in deltas.chunks(round_users).enumerate() {
        ingest_batch(&mut writer, name, chunk);
        if round > 0 {
            let before = reader.get(&path).expect("read before publish");
            assert_eq!(before.body, previous, "round {round}: read before publish");
            assert_eq!(
                before.header("x-crowdtz-epoch"),
                Some(round.to_string().as_str()),
                "round {round}: epoch before publish"
            );
        }
        let published = writer.get(&format!("{path}?publish=1")).expect("publish");
        assert_eq!(published.status, 200, "publish round {round}");
        let epoch = (round + 1).to_string();
        assert_eq!(published.header("x-crowdtz-epoch"), Some(epoch.as_str()));
        let seen = (round_users * (round + 1)).min(deltas.len());
        assert_eq!(
            published.body,
            in_process_reference(grid, &deltas[..seen]),
            "round {round}: cut of the first {seen} users"
        );
        assert_ne!(
            published.body, previous,
            "round {round}: the cut must change"
        );
        for read in 0..3 {
            let cached = reader.get(&path).expect("plain read");
            assert_eq!(cached.status, 200);
            assert_eq!(cached.header("x-crowdtz-epoch"), Some(epoch.as_str()));
            assert_eq!(
                cached.body, published.body,
                "round {round}, read {read}: plain read of the newest cut"
            );
        }
        previous = published.body;
    }
    drop((writer, reader));
    handle.shutdown().expect("shutdown");
}

/// `HEAD …/snapshot` on a keep-alive connection sends the GET body's
/// `Content-Length` and epoch but no body: the GET that follows on the
/// same connection still parses and returns the full bytes.
#[test]
fn head_snapshot_sends_the_get_content_length_over_the_wire() {
    let handle = start_server(None);
    create_tenants(&handle, false);
    let (name, _, _) = TENANTS[1];
    let deltas = synthesize(4000);
    let path = format!("/v1/tenants/{name}/snapshot");
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    assert_eq!(
        client.request("HEAD", &path, None).expect("HEAD").status,
        404,
        "nothing published yet"
    );
    for (round, chunk) in deltas.chunks(3 * BATCH_USERS).enumerate() {
        ingest_batch(&mut client, name, chunk);
        let published = client.get(&format!("{path}?publish=1")).expect("publish");
        assert_eq!(published.status, 200, "publish round {round}");
        let head = client.request("HEAD", &path, None).expect("HEAD");
        assert_eq!(head.status, 200, "round {round}");
        assert!(head.body.is_empty(), "round {round}: HEAD has no body");
        assert_eq!(
            head.header("content-length"),
            Some(published.body.len().to_string().as_str()),
            "round {round}: HEAD length"
        );
        assert_eq!(
            head.header("x-crowdtz-epoch"),
            published.header("x-crowdtz-epoch")
        );
        let read = client.get(&path).expect("GET after HEAD");
        assert_eq!(read.status, 200, "round {round}: GET after HEAD");
        assert_eq!(read.body, published.body, "round {round}: GET after HEAD");
    }
    drop(client);
    handle.shutdown().expect("shutdown");
}

/// One publisher and two readers on their own connections, released
/// together by a barrier: every body a reader gets is, byte for byte,
/// the body the publisher got for the epoch the reader's
/// `X-Crowdtz-Epoch` names, whichever request encoded it first.
#[test]
fn concurrent_wire_readers_get_the_bytes_of_the_epoch_they_name() {
    const READS: usize = 30;
    let handle = start_server(None);
    create_tenants(&handle, false);
    let (name, _, grid) = TENANTS[0];
    let deltas = synthesize(5000);
    let (first, rest) = deltas.split_at(2 * BATCH_USERS);
    let addr = handle.addr();
    let path = format!("/v1/tenants/{name}/snapshot");

    // Epoch 1 exists before the readers start, so every read is a 200.
    let mut publisher = HttpClient::connect(addr).expect("connect publisher");
    let epoch_of = |response: &ClientResponse| -> u64 {
        let epoch = response.header("x-crowdtz-epoch").expect("epoch header");
        epoch.parse().expect("numeric epoch")
    };
    let publish = |client: &mut HttpClient, bodies: &mut BTreeMap<u64, Vec<u8>>| {
        let cut = client.get(&format!("{path}?publish=1")).expect("publish");
        assert_eq!(cut.status, 200);
        assert!(
            bodies.insert(epoch_of(&cut), cut.body).is_none(),
            "epochs are new"
        );
    };
    let mut bodies = BTreeMap::new();
    ingest_batch(&mut publisher, name, first);
    publish(&mut publisher, &mut bodies);

    let barrier = Barrier::new(3);
    let reads: Vec<(u64, Vec<u8>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, path, epoch_of) = (&barrier, &path, &epoch_of);
                scope.spawn(move || {
                    barrier.wait();
                    let mut client = HttpClient::connect(addr).expect("connect reader");
                    (0..READS)
                        .map(|_| {
                            let read = client.get(path).expect("plain read");
                            assert_eq!(read.status, 200);
                            (epoch_of(&read), read.body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        for chunk in rest.chunks(4) {
            ingest_batch(&mut publisher, name, chunk);
            publish(&mut publisher, &mut bodies);
        }
        readers
            .into_iter()
            .flat_map(|reader| reader.join().expect("reader thread"))
            .collect()
    });

    assert_eq!(reads.len(), 2 * READS);
    for (epoch, body) in &reads {
        let expected = bodies
            .get(epoch)
            .unwrap_or_else(|| panic!("read named epoch {epoch}, never published"));
        assert_eq!(body, expected, "read of epoch {epoch}");
    }
    let last = bodies.values().last().expect("a published cut");
    assert_eq!(*last, in_process_reference(grid, &deltas));
    drop(publisher);
    handle.shutdown().expect("shutdown");
}

/// A partial-coverage cut is an epoch of its own: plain reads after
/// `?publish=1&coverage=0.5` serve the reweighted report, and the next
/// full cut of the same, unchanged state replaces it. The kept body
/// follows the epoch, not the ingested state.
#[test]
fn coverage_cuts_are_served_as_their_own_epochs_over_the_wire() {
    let handle = start_server(None);
    create_tenants(&handle, false);
    let (name, _, grid) = TENANTS[1];
    let deltas = synthesize(6000);
    let path = format!("/v1/tenants/{name}/snapshot");
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let mut reader = HttpClient::connect(handle.addr()).expect("connect reader");
    for chunk in deltas.chunks(BATCH_USERS) {
        ingest_batch(&mut client, name, chunk);
    }
    let reference = reference_engine(grid, &deltas);
    let encode =
        |cut: Arc<PublishedReport>| serde_json::to_vec(cut.report()).expect("serialize reference");

    let full = client.get(&format!("{path}?publish=1")).expect("full cut");
    assert_eq!(full.status, 200);
    assert_eq!(full.body, encode(reference.publish().unwrap()));
    let partial = client
        .get(&format!("{path}?publish=1&coverage=0.5"))
        .expect("partial cut");
    assert_eq!(partial.status, 200);
    assert_eq!(partial.header("x-crowdtz-epoch"), Some("2"));
    assert_eq!(
        partial.body,
        encode(reference.publish_with_coverage(0.5).unwrap())
    );
    assert_ne!(partial.body, full.body, "coverage reweights the report");
    let read = reader.get(&path).expect("read of the partial cut");
    assert_eq!(read.header("x-crowdtz-epoch"), Some("2"));
    assert_eq!(read.body, partial.body, "plain read of the partial cut");

    let again = client
        .get(&format!("{path}?publish=1"))
        .expect("full again");
    assert_eq!(again.header("x-crowdtz-epoch"), Some("3"));
    assert_eq!(again.body, full.body, "same state, full coverage");
    let read = reader.get(&path).expect("read of the new full cut");
    assert_eq!(read.header("x-crowdtz-epoch"), Some("3"));
    assert_eq!(read.body, full.body, "plain read after the full cut");
    drop((client, reader));
    handle.shutdown().expect("shutdown");
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let meta = entry.metadata().expect("metadata");
            if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// Posts at `i64::MIN` and `i64::MAX` seconds lie outside the engine's
/// slot range (1970 ± about 245 000 years). Every public entry point
/// survives them: the in-process ingests drop them, a writer refuses
/// the batch whole before its log, and `POST …/ingest` answers 400 on a
/// connection that stays open, with nothing journaled.
#[test]
fn posts_outside_the_slot_range_are_refused_or_dropped_at_every_entry_point() {
    use crowdtz::core::{CoreError, StreamingPipeline};
    use crowdtz::time::TraceSet;

    let extremes = [
        Timestamp::from_secs(i64::MIN),
        Timestamp::from_secs(i64::MAX),
    ];
    let crowd: Vec<(String, Vec<Timestamp>)> = (0..6i64)
        .map(|u| {
            let posts = (0..10i64)
                .map(|d| Timestamp::from_secs(d * 86_400 + (18 + u % 4) * 3_600))
                .collect();
            (format!("u{u}"), posts)
        })
        .collect();
    let pipeline = || GeolocationPipeline::default().min_posts(1).threads(1);
    let want = {
        let mut reference = StreamingPipeline::new(pipeline());
        for (user, posts) in &crowd {
            reference.ingest(user, posts);
        }
        serde_json::to_vec(&reference.snapshot().expect("reference snapshot")).unwrap()
    };

    // The in-process ingests drop the extremes, and a retraction of
    // them releases nothing.
    let mut stream = StreamingPipeline::new(pipeline());
    for (user, posts) in &crowd {
        stream.ingest(user, &[&extremes[..1], posts, &extremes[1..]].concat());
    }
    stream.ingest("only-extremes", &extremes);
    let mut set = TraceSet::new();
    for &ts in &extremes {
        set.record("traced", ts);
    }
    stream.ingest_set(&set);
    stream.ingest_posts(&[("polled", extremes[0]), ("polled", extremes[1])]);
    stream.retract("u0", &extremes);
    assert_eq!(stream.users_tracked(), crowd.len());
    assert_eq!(stream.posts_ingested(), 60);
    assert_eq!(
        serde_json::to_vec(&stream.snapshot().unwrap()).unwrap(),
        want
    );

    // A durable writer refuses every batch holding one, whatever its
    // method, before the write-ahead log.
    let dir = tmp_dir("out-of-range-engine");
    let engine = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).expect("open");
    let writer = engine.writer();
    for (user, posts) in &crowd {
        writer.ingest(user, posts).expect("in-range ingest");
    }
    let logged = dir_bytes(&dir);
    let refused = [
        writer.ingest("u0", &[crowd[0].1[0], extremes[0]]),
        writer.ingest_posts_ref(&[("u1", extremes[1])]),
        writer.ingest_deltas(&[("u2", &extremes[..])]),
        writer
            .ingest_batch(1, &[("u3", extremes[0])], Some("checkpoint"))
            .map(drop),
        writer.retract("u4", &extremes[1..]),
        writer.retract_posts_ref(&[("u5", extremes[0])]).map(drop),
    ];
    for result in refused {
        assert!(
            matches!(result, Err(CoreError::PostOutOfRange { .. })),
            "{result:?}"
        );
    }
    assert_eq!(dir_bytes(&dir), logged, "a refused batch is never logged");
    assert_eq!(writer.batches_applied(), crowd.len() as u64);
    assert_eq!(
        (engine.last_source_seq(), engine.source_checkpoint()),
        (0, None)
    );
    let published = engine.publish().expect("publish");
    assert_eq!(serde_json::to_vec(published.report()).unwrap(), want);
    drop((writer, engine));
    let _ = std::fs::remove_dir_all(&dir);

    // Over the wire: a 400 on a connection that stays open.
    let root = tmp_dir("out-of-range-serve");
    let handle = start_server(Some(root.clone()));
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let created = client
        .post_json(
            "/v1/tenants/edge",
            &json!({"min_posts": 1, "threads": 1, "durable": true}),
        )
        .expect("create");
    assert_eq!(created.status, 201);
    ingest_batch(&mut client, "edge", &crowd);
    let logged = dir_bytes(&root);
    for ts in extremes {
        let body = batch_body(&[("u0".to_owned(), vec![crowd[0].1[0], ts])]);
        for route in ["ingest", "retract"] {
            let response = client
                .post_json(&format!("/v1/tenants/edge/{route}"), &body)
                .expect("the connection stays open");
            assert_eq!(response.status, 400, "{route} {}", ts.as_secs());
        }
    }
    assert_eq!(dir_bytes(&root), logged, "a refused body is never logged");
    let published = client
        .get("/v1/tenants/edge/snapshot?publish=1")
        .expect("the same connection still serves");
    assert_eq!(published.status, 200);
    assert_eq!(published.body, want);
    drop(client);
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(root);
}
