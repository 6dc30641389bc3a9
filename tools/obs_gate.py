#!/usr/bin/env python3
"""Observability regression gate.

Compares the current run report (``obs.json``, the serialized
``crowdtz_obs::RunReport``) against the previous run's artifact and fails
when either

* a pipeline stage's wall time regressed more than ``THRESHOLD``x, or
* ``placement.exact_evals`` — the deterministic work counter behind the
  pruned EMD scan — grew more than ``THRESHOLD``x, or
* the EM iterations per mixture fit — the ``streaming.em_iterations``
  counter over the ``streaming.fit`` stage's calls — grew more than
  ``THRESHOLD``x,

which catches both "someone made a stage slow" and "someone quietly
disabled the pruning" (or let the mixture fit creep back to its cap).

With the optional durability pair (``BENCH_durability.json`` from the
bench bin), additionally fails when the warm ``open_durable`` restart or
the snapshot rotation regressed more than ``THRESHOLD``x, when either
deterministic byte count (``log_bytes_per_post``,
``generation_bytes_per_user``) grew at all over a baseline with the same
``users``, and —
baseline or not — when the replay-scaling invariant is broken: the
long-suffix run must replay more log records than the short-suffix run
over the same crawl (replay cost scales with the write-ahead log, not
the crawl).

With the optional placement pair (``--placement base.json current.json``,
the bench bin's ``BENCH_placement.json``), additionally fails when the
batch kernel's single-thread users/sec on any zone grid (24/48/96)
dropped more than ``THRESHOLD``x against the baseline, or when the
mixture fit on the fixed Dream Market histogram (the ``fit`` block) got
``THRESHOLD``x slower or spent ``THRESHOLD``x more EM iterations.

With the optional sharding pair (``--sharding base.json current.json``,
the bench bin's ``BENCH_sharding.json``), additionally fails when the
bulk ingest throughput at any shard count dropped more than
``THRESHOLD``x. The row times ``StreamingPipeline::ingest_set`` — one
``&mut`` batch through the engine's one write call, fanned out over the
bench's worker threads. Records are the sorted ``{shards,
posts_per_sec}`` array the bench emits.

With the optional ingest pair (``--ingest base.json current.json``, the
bench bin's ``BENCH_ingest.json``), additionally fails when concurrent
multi-writer ingest throughput at any (shards, writers) combination
dropped more than ``THRESHOLD``x. The check is clamp-aware: writer
counts above either run's ``host_cpus`` are skipped (an oversubscribed
writer pool measures scheduler noise, not the lock-per-shard engine),
so on a one-CPU host only the single-writer rows are gated. The skip is
symmetric — the clamp is ``min(base host_cpus, current host_cpus)`` —
and baseline rows missing a key (older bench layouts) are skipped
rather than crashing the gate.

With the optional serve pair (``--serve base.json current.json``, the
bench bin's ``BENCH_serve.json``), additionally fails when HTTP
requests/sec through the loopback service — ingest POSTs or
published-snapshot GETs at any client count — dropped more than
``THRESHOLD``x. Clamp-aware with the same symmetric rule: client counts
above ``min(base host_cpus, current host_cpus)`` are skipped.

With the optional window pair (``--window base.json current.json``, the
bench bin's ``BENCH_window.json``), additionally fails when any of the
signed-delta throughputs (plain ingest, windowed ingest, retraction
posts/sec) dropped more than ``THRESHOLD``x, or when the
bucket-expiring publish got slower by the same factor (skipped while
both runs are under ``MIN_STORE_SECS``, where it is allocator noise).

With the optional accuracy pair (``--accuracy base.json current.json``,
``repro accuracy``'s ``BENCH_accuracy.json``), additionally fails when
the accuracy ledger got worse than the baseline's. The ledger's
``metrics`` are rows in the ``{name, value, unit, better}`` schema,
named ``scenario/grid/seed/metric[/index]``, and ``check_rows`` compares
them with the additive tolerance ``ACCURACY_TOLERANCES`` gives their
``metric`` segment:

* ``snapped_zone_min`` (``better: equal``): a true component's snapped
  zone flips;
* ``zone_error_min``: a row's mean zone error grows by more than 6 min;
* ``weight_error``: a row's mean weight error grows by more than 0.01;
* ``spurious_weight`` / ``k_mismatch``: a row's spurious weight, or its
  share of fits with the wrong component count, grows at all;
* ``zone_rule`` (``better: higher``): a perfbench-shaped publish that met
  perfbench's zone rule fails it.

A baseline row missing from the current ledger fails too: a scenario
cannot leave the ledger quietly. The ledger is deterministic, so CI
compares it against the committed file, not the cached previous run.
With only pair flags given, the run-report positionals may be omitted.

Usage: ``obs_gate.py baseline.json current.json``
       ``obs_gate.py baseline.json current.json base_durability.json current_durability.json``
       ``obs_gate.py ... --placement base_placement.json current_placement.json``
       ``obs_gate.py ... --sharding base_sharding.json current_sharding.json``
       ``obs_gate.py ... --ingest base_ingest.json current_ingest.json``
       ``obs_gate.py ... --serve base_serve.json current_serve.json``
       ``obs_gate.py ... --window base_window.json current_window.json``
       ``obs_gate.py [...] --accuracy base_accuracy.json current_accuracy.json``

Wall times are noisy on shared CI runners, so stages where *both* runs
spent less than ``MIN_STAGE_NS`` are ignored, and the work-counter
checks only apply once a counter is large enough to be meaningful (the
per-fit EM check once both runs made ``MIN_FITS`` fits). Stages
present in only one of the two reports are skipped: experiments come and
go, and a brand-new stage has no baseline to regress from.
"""

import json
import sys

THRESHOLD = 2.0
# Sub-5ms stages are scheduler noise, not signal.
MIN_STAGE_NS = 5_000_000
# Exact-evals drift below this is a config change, not a regression.
MIN_EVALS = 1_000
# EM iterations are gated per mixture fit, not in total: a run report
# holds a few dozen fits (31 in CI's `repro --scale 0.1`, about 83
# iterations each), so a total floor would sit above any count a creep
# back towards the cap produces. Fewer fits than this are too few to
# compare.
MIN_FITS = 10
# Sub-10ms durable-store timings are filesystem noise, not signal.
MIN_STORE_SECS = 0.010
# Timed durability keys gated against the baseline.
DURABILITY_KEYS = ("warm_open_long_suffix_secs", "snapshot_rotation_secs")
# Deterministic durability byte counts: any growth over the baseline fails.
DURABILITY_BYTE_KEYS = ("log_bytes_per_post", "generation_bytes_per_user")


def em_iterations_per_fit(report):
    """The ``streaming.em_iterations`` counter over the ``streaming.fit``
    stage's calls, or None when the report has fewer than ``MIN_FITS``
    fits or lacks the counter."""
    fits = next(
        (s["calls"] for s in report.get("stages", []) if s["name"] == "streaming.fit"),
        0,
    )
    iterations = report.get("metrics", {}).get("counters", {}).get(
        "streaming.em_iterations"
    )
    if iterations is None or fits < MIN_FITS:
        return None
    return iterations / fits


def check_durability(base, cur, failures):
    """Gate BENCH_durability.json: timed regressions, byte-count growth,
    and the replay-scales-with-the-log invariant. Returns comparisons
    made."""
    checked = 0
    short = cur.get("short_suffix_records", 0)
    long_ = cur.get("long_suffix_records", 0)
    checked += 1
    if long_ <= short:
        failures.append(
            f"durability: long suffix replayed {long_} records vs {short} short — "
            "replay no longer scales with the log suffix"
        )
    for key in DURABILITY_KEYS:
        prev_s, now_s = base.get(key), cur.get(key)
        if prev_s is None or now_s is None:
            continue
        if max(prev_s, now_s) < MIN_STORE_SECS:
            continue
        checked += 1
        ratio = now_s / max(prev_s, 1e-12)
        if ratio > THRESHOLD:
            failures.append(
                f"durability {key}: {prev_s * 1e3:.1f} ms -> "
                f"{now_s * 1e3:.1f} ms ({ratio:.2f}x)"
            )
    # The byte counts repeat exactly only over the same crowd.
    same_crowd = base.get("users") == cur.get("users")
    for key in DURABILITY_BYTE_KEYS:
        prev_b, now_b = base.get(key), cur.get(key)
        if prev_b is None or now_b is None or not same_crowd:
            continue
        checked += 1
        if now_b > prev_b:
            failures.append(f"durability {key}: {prev_b:.2f} B -> {now_b:.2f} B (grew)")
    return checked


def check_placement(base, cur, failures):
    """Gate BENCH_placement.json: per-grid batch-kernel throughput must
    stay within THRESHOLD of the baseline, and so must the mixture fit's
    p50 time and EM iterations (the ``fit`` block; skipped when either
    side lacks it). Returns comparisons made."""
    checked = 0
    base_fit, cur_fit = base.get("fit", {}), cur.get("fit", {})
    for key, unit in (("p50_ms", "ms"), ("em_iterations", "iterations")):
        prev, now = base_fit.get(key), cur_fit.get(key)
        if prev is None or now is None or prev <= 0:
            continue
        checked += 1
        ratio = now / prev
        if ratio > THRESHOLD:
            failures.append(
                f"mixture fit {key}: {prev:,.3f} {unit} -> {now:,.3f} {unit} ({ratio:.2f}x)"
            )
    base_grids = base.get("placement", {}).get("kernel_users_per_sec_by_grid", {})
    cur_grids = cur.get("placement", {}).get("kernel_users_per_sec_by_grid", {})
    for grid, now in sorted(cur_grids.items()):
        prev = base_grids.get(grid)
        if prev is None or prev <= 0 or now <= 0:
            continue
        checked += 1
        ratio = prev / now
        if ratio > THRESHOLD:
            failures.append(
                f"placement kernel, {grid}-zone grid: {prev:,.0f} users/s -> "
                f"{now:,.0f} users/s ({ratio:.2f}x slower)"
            )
    return checked


def check_sharding(base, cur, failures):
    """Gate BENCH_sharding.json: bulk ingest posts/sec per shard count
    must stay within THRESHOLD. Returns comparisons made."""
    checked = 0
    base_rows = {r["shards"]: r["posts_per_sec"] for r in base.get("ingest_posts_per_sec", [])}
    for row in cur.get("ingest_posts_per_sec", []):
        prev = base_rows.get(row["shards"])
        now = row["posts_per_sec"]
        if prev is None or prev <= 0 or now <= 0:
            continue
        checked += 1
        ratio = prev / now
        if ratio > THRESHOLD:
            failures.append(
                f"sharding ingest, {row['shards']} shards: {prev:,.0f} posts/s -> "
                f"{now:,.0f} posts/s ({ratio:.2f}x slower)"
            )
    return checked


def check_ingest(base, cur, failures):
    """Gate BENCH_ingest.json: concurrent multi-writer ingest posts/sec
    per (shards, writers), and the one-writer serving-shape figure, must
    stay within THRESHOLD. Clamp-aware: rows whose writer count exceeds
    either run's host_cpus are skipped — an oversubscribed pool measures
    the scheduler, not the engine. Returns comparisons made."""
    checked = 0
    prev = base.get("serving_ingest_posts_per_sec", 0)
    now = cur.get("serving_ingest_posts_per_sec", 0)
    if prev > 0 and now > 0:
        checked += 1
        if prev / now > THRESHOLD:
            failures.append(
                f"serving-shape ingest: {prev:,.0f} posts/s -> {now:,.0f} posts/s "
                f"({prev / now:.2f}x slower)"
            )
    measurable = min(base.get("host_cpus", 1), cur.get("host_cpus", 1))
    # Tolerate baseline rows from older bench layouts that lack a key —
    # a stale artifact cache must degrade to "nothing to compare", not
    # crash the gate asymmetrically.
    base_rows = {
        (r["shards"], r["writers"]): r["posts_per_sec"]
        for r in base.get("ingest_posts_per_sec", [])
        if "shards" in r and "writers" in r and "posts_per_sec" in r
    }
    for row in cur.get("ingest_posts_per_sec", []):
        if "shards" not in row or "writers" not in row or "posts_per_sec" not in row:
            continue
        if row["writers"] > max(measurable, 1):
            continue
        prev = base_rows.get((row["shards"], row["writers"]))
        now = row["posts_per_sec"]
        if prev is None or prev <= 0 or now <= 0:
            continue
        checked += 1
        ratio = prev / now
        if ratio > THRESHOLD:
            failures.append(
                f"concurrent ingest, {row['shards']} shards x {row['writers']} writers: "
                f"{prev:,.0f} posts/s -> {now:,.0f} posts/s ({ratio:.2f}x slower)"
            )
    return checked


SERVE_SERIES = ("ingest_requests_per_sec", "snapshot_requests_per_sec")


def check_serve(base, cur, failures):
    """Gate BENCH_serve.json: HTTP requests/sec per client count, for
    both the ingest-POST and snapshot-GET series, must stay within
    THRESHOLD. Clamp-aware and symmetric like check_ingest: client
    counts above ``min(base host_cpus, current host_cpus)`` are skipped,
    and incomplete rows on either side are ignored. Returns comparisons
    made."""
    checked = 0
    measurable = min(base.get("host_cpus", 1), cur.get("host_cpus", 1))
    for series in SERVE_SERIES:
        base_rows = {
            r["clients"]: r["requests_per_sec"]
            for r in base.get(series, [])
            if "clients" in r and "requests_per_sec" in r
        }
        for row in cur.get(series, []):
            if "clients" not in row or "requests_per_sec" not in row:
                continue
            if row["clients"] > max(measurable, 1):
                continue
            prev = base_rows.get(row["clients"])
            now = row["requests_per_sec"]
            if prev is None or prev <= 0 or now <= 0:
                continue
            checked += 1
            ratio = prev / now
            if ratio > THRESHOLD:
                failures.append(
                    f"serve {series}, {row['clients']} clients: "
                    f"{prev:,.0f} req/s -> {now:,.0f} req/s ({ratio:.2f}x slower)"
                )
    return checked


WINDOW_THROUGHPUT_KEYS = (
    "plain_ingest_posts_per_sec",
    "windowed_ingest_posts_per_sec",
    "retract_posts_per_sec",
)


def check_window(base, cur, failures):
    """Gate BENCH_window.json: signed-delta throughputs must stay within
    THRESHOLD of the baseline, and the bucket-expiring publish must not
    get THRESHOLDx slower. Missing keys on either side (older bench
    layouts) are skipped. Returns comparisons made."""
    checked = 0
    for key in WINDOW_THROUGHPUT_KEYS:
        prev, now = base.get(key), cur.get(key)
        if prev is None or now is None or prev <= 0 or now <= 0:
            continue
        checked += 1
        ratio = prev / now
        if ratio > THRESHOLD:
            failures.append(
                f"window {key}: {prev:,.0f} posts/s -> {now:,.0f} posts/s "
                f"({ratio:.2f}x slower)"
            )
    prev_s, now_s = base.get("publish_expiry_secs"), cur.get("publish_expiry_secs")
    if prev_s is not None and now_s is not None and max(prev_s, now_s) >= MIN_STORE_SECS:
        checked += 1
        ratio = now_s / max(prev_s, 1e-12)
        if ratio > THRESHOLD:
            failures.append(
                f"window publish_expiry_secs: {prev_s * 1e3:.1f} ms -> "
                f"{now_s * 1e3:.1f} ms ({ratio:.2f}x)"
            )
    return checked


# Additive tolerance per ledger metric; a metric not listed here gets 0.
ACCURACY_TOLERANCES = {
    "zone_error_min": 6.0,
    "weight_error": 0.01,
    "spurious_weight": 0.0,
    "k_mismatch": 0.0,
    "snapped_zone_min": 0.0,
    "zone_rule": 0.0,
}


def check_rows(label, base_rows, cur_rows, tolerance_of, failures):
    """Compare two lists of ``{name, value, unit, better}`` rows by name:
    a ``lower`` row fails when it grew by more than its tolerance, a
    ``higher`` row when it fell by more, an ``equal`` row when it changed
    at all. A baseline row missing from the current list fails. Returns
    comparisons made."""
    current = {r["name"]: r for r in cur_rows}
    checked = 0
    for row in base_rows:
        name, prev = row["name"], row["value"]
        now_row = current.get(name)
        if now_row is None:
            failures.append(f"{label} {name}: missing from the current run")
            continue
        now = now_row["value"]
        better = now_row.get("better", row.get("better"))
        tolerance = tolerance_of(name)
        checked += 1
        if better == "lower":
            worse = now > prev + tolerance
        elif better == "higher":
            worse = now < prev - tolerance
        else:
            worse = now != prev
        if worse:
            failures.append(
                f"{label} {name}: {prev} -> {now} {row.get('unit', '')} "
                f"(better {better}, tolerance {tolerance})"
            )
    return checked


def check_accuracy(base, cur, failures):
    """Gate BENCH_accuracy.json: every baseline ledger row, compared by
    ``check_rows`` under ``ACCURACY_TOLERANCES`` keyed by the name's
    ``metric`` segment. Returns comparisons made."""

    def tolerance_of(name):
        parts = name.split("/")
        return ACCURACY_TOLERANCES.get(parts[3] if len(parts) > 3 else "", 0.0)

    return check_rows(
        "accuracy", base.get("metrics", []), cur.get("metrics", []), tolerance_of, failures
    )


def pop_pair(argv, flag):
    """Extract ``flag base cur`` from argv; returns (pair or None, argv)."""
    if flag not in argv:
        return None, argv
    i = argv.index(flag)
    pair = argv[i + 1 : i + 3]
    if len(pair) != 2:
        print(__doc__.strip(), file=sys.stderr)
        raise SystemExit(2)
    return pair, argv[:i] + argv[i + 3 :]


def main() -> int:
    argv = sys.argv[1:]
    placement_pair, argv = pop_pair(argv, "--placement")
    sharding_pair, argv = pop_pair(argv, "--sharding")
    ingest_pair, argv = pop_pair(argv, "--ingest")
    serve_pair, argv = pop_pair(argv, "--serve")
    window_pair, argv = pop_pair(argv, "--window")
    accuracy_pair, argv = pop_pair(argv, "--accuracy")
    pairs = (
        (placement_pair, check_placement),
        (sharding_pair, check_sharding),
        (ingest_pair, check_ingest),
        (serve_pair, check_serve),
        (window_pair, check_window),
        (accuracy_pair, check_accuracy),
    )
    any_pair = any(pair is not None for pair, _ in pairs)
    if len(argv) not in (2, 4) and not (any_pair and not argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, cur = {}, {}
    if argv:
        with open(argv[0]) as f:
            base = json.load(f)
        with open(argv[1]) as f:
            cur = json.load(f)

    failures = []
    checked = 0

    for pair, check in pairs:
        if pair is None:
            continue
        with open(pair[0]) as f:
            pair_base = json.load(f)
        with open(pair[1]) as f:
            pair_cur = json.load(f)
        checked += check(pair_base, pair_cur, failures)

    if len(argv) == 4:
        with open(argv[2]) as f:
            base_durability = json.load(f)
        with open(argv[3]) as f:
            cur_durability = json.load(f)
        checked += check_durability(base_durability, cur_durability, failures)

    base_stages = {s["name"]: s["total_ns"] for s in base.get("stages", [])}
    for stage in cur.get("stages", []):
        prev_ns = base_stages.get(stage["name"])
        if prev_ns is None:
            continue
        now_ns = stage["total_ns"]
        if max(prev_ns, now_ns) < MIN_STAGE_NS:
            continue
        checked += 1
        ratio = now_ns / max(prev_ns, 1)
        if ratio > THRESHOLD:
            failures.append(
                f"stage {stage['name']}: {prev_ns / 1e6:.1f} ms -> "
                f"{now_ns / 1e6:.1f} ms ({ratio:.2f}x)"
            )

    counter = "placement.exact_evals"
    prev = base.get("metrics", {}).get("counters", {}).get(counter)
    now = cur.get("metrics", {}).get("counters", {}).get(counter)
    if prev is not None and now is not None and now >= MIN_EVALS:
        checked += 1
        ratio = now / max(prev, 1)
        if ratio > THRESHOLD:
            failures.append(f"{counter}: {prev} -> {now} ({ratio:.2f}x)")

    prev, now = em_iterations_per_fit(base), em_iterations_per_fit(cur)
    if prev is not None and now is not None:
        checked += 1
        ratio = now / max(prev, 1)
        if ratio > THRESHOLD:
            failures.append(
                f"streaming.em_iterations per fit: {prev:.1f} -> {now:.1f} "
                f"({ratio:.2f}x)"
            )

    if failures:
        print(f"obs gate: {len(failures)} regression(s)", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"obs gate: ok ({checked} comparisons within their thresholds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
