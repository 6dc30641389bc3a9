#!/usr/bin/env python3
"""Regression gate over benchmark records.

Usage: ``obs_gate.py BASE CUR [BASE CUR ...]``

Each ``BASE CUR`` pair is two runs of one record: a ``BENCH_*.json``
file or a run report (``obs.json``, the serialized
``crowdtz_obs::RunReport``). The gate reads every file as a list of
``{name, value, unit, better}`` rows. A BENCH file carries its rows as
``metrics`` and its context (``users``, ``host_cpus``, ``simd``, thread
counts) as top-level fields. A run report (it has ``stages``) is turned
into rows by ``report_rows``: each stage's wall time, the
``placement.exact_evals`` counter, and EM iterations per mixture fit.

``compare`` checks every baseline row against the current row of the
same name under the rule ``RULES`` gives the first ``/``-separated
segment of its name that the table names. A row whose metric has no
rule is recorded but not compared. A ``ratio`` rule fails when the
figure got more than that many times worse; it needs two positive
figures and is skipped while both sit under the rule's ``floor``. A
``slack`` rule fails when the figure got worse by more than the slack,
or, for ``better: equal``, when it changed at all.

* A baseline row missing from the current file fails when its rule is
  ``required`` (the accuracy ledger: a scenario cannot leave it quietly)
  and is skipped otherwise (a bench figure or stage new or gone).
* A rule with ``same`` compares only when both files agree on those
  context fields (byte counts repeat exactly only over the same crowd).
* A row naming ``writers=N`` or ``clients=N`` is skipped when N exceeds
  either run's ``host_cpus``: an oversubscribed pool measures the
  scheduler, not the engine.

A file with no rows (an older layout) compares nothing, and the gate
says so. Exits 1 on any failure, 2 on bad usage.
"""

import json
import sys

# Worse by more than this factor fails a ratio rule.
RATIO = 2.0
# Durable-store and expiry timings under 10 ms are filesystem noise.
STORE_FLOOR_SECS = 0.010
# Snapshot rotation and the long-suffix warm open take 5.1-14.5 ms at CI
# scale (10 000 users, twenty runs on one 2-CPU host, ten beside a busy
# process, every pair within 2x): a floor under all of them compares
# every pair.
ROTATION_FLOOR_SECS = 0.002
# A run report's EM iterations per fit are compared once it made this
# many fits: CI's `repro --scale 0.1` makes a few dozen.
MIN_FITS = 10
# Resident bytes per user read 1 143-1 150 B over three CI-scale runs
# (10 000 users) on one 2-CPU host: growth by a quarter is a regression,
# not noise.
STATE_RATIO = 1.25

RULES = {
    # Run report: sub-5 ms stages are scheduler noise, and an
    # exact-evals drift under 1 000 is a config change.
    "stage": {"ratio": RATIO, "floor": 5_000_000},
    "placement.exact_evals": {"ratio": RATIO, "floor": 1_000},
    "em_iterations_per_fit": {"ratio": RATIO},
    # BENCH_placement.json
    "kernel_users_per_sec": {"ratio": RATIO},
    "fit_p50_ms": {"ratio": RATIO},
    "fit_em_iterations": {"ratio": RATIO},
    # BENCH_sharding.json and BENCH_ingest.json
    "ingest_posts_per_sec": {"ratio": RATIO},
    "serving_ingest_posts_per_sec": {"ratio": RATIO},
    # BENCH_serve.json
    "ingest_requests_per_sec": {"ratio": RATIO},
    "snapshot_requests_per_sec": {"ratio": RATIO},
    # BENCH_window.json
    "plain_ingest_posts_per_sec": {"ratio": RATIO},
    "windowed_ingest_posts_per_sec": {"ratio": RATIO},
    "retract_posts_per_sec": {"ratio": RATIO},
    "publish_expiry_secs": {"ratio": RATIO, "floor": STORE_FLOOR_SECS},
    # BENCH_streaming.json: 0.6-2.6 ms at CI scale, every pair of twenty
    # runs on one 2-CPU host (ten beside a busy process) within 1.91x,
    # so no floor.
    "incremental_snapshot_secs": {"ratio": RATIO},
    "held_publish_secs": {"ratio": RATIO},
    "held_encode_secs": {"ratio": RATIO},
    # ... the snapshot whose refresh finds nothing dirty, 0.06-0.08 ms at
    # CI scale (best of three): a crowd re-summed on every snapshot reads
    # about 1 ms, and the floor keeps sub-0.5 ms scheduler noise out.
    "cached_snapshot_secs": {"ratio": RATIO, "floor": 0.0005},
    # ... and the engine's VmRSS growth per user, which repeats only over
    # the same crowd.
    "state_bytes_per_user": {"ratio": STATE_RATIO, "same": ("users",)},
    # BENCH_durability.json
    "warm_open_long_suffix_secs": {"ratio": RATIO, "floor": ROTATION_FLOOR_SECS},
    "snapshot_rotation_secs": {"ratio": RATIO, "floor": ROTATION_FLOOR_SECS},
    "log_bytes_per_post": {"slack": 0.0, "same": ("users",)},
    "generation_bytes_per_user": {"slack": 0.0, "same": ("users",)},
    # BENCH_accuracy.json, named `scenario/grid/seed/metric[/index]`
    "zone_error_min": {"slack": 6.0, "required": True},
    "weight_error": {"slack": 0.01, "required": True},
    "spurious_weight": {"slack": 0.0, "required": True},
    "k_mismatch": {"slack": 0.0, "required": True},
    "snapped_zone_min": {"slack": 0.0, "required": True},
    "zone_rule": {"slack": 0.0, "required": True},
}

# Name segments that count parallel workers, clamped to the host.
CLAMPED = ("writers=", "clients=")


def rule_of(name):
    """The rule of the first segment of ``name`` that ``RULES`` names."""
    return next((RULES[s] for s in name.split("/") if s in RULES), None)


def report_rows(report):
    """A run report's gated figures as rows."""
    rows = [
        {"name": f"stage/{s['name']}", "value": s["total_ns"], "unit": "ns", "better": "lower"}
        for s in report.get("stages", [])
    ]
    counters = report.get("metrics", {}).get("counters", {})
    evals = counters.get("placement.exact_evals")
    if evals is not None:
        rows.append(
            {"name": "placement.exact_evals", "value": evals, "unit": "count", "better": "lower"}
        )
    fits = next(
        (s["calls"] for s in report.get("stages", []) if s["name"] == "streaming.fit"), 0
    )
    iterations = counters.get("streaming.em_iterations")
    if iterations is not None and fits >= MIN_FITS:
        rows.append(
            {
                "name": "em_iterations_per_fit",
                "value": iterations / fits,
                "unit": "iterations",
                "better": "lower",
            }
        )
    return rows


def rows_of(doc):
    """A record's rows: a run report's through ``report_rows``, a BENCH
    file's ``metrics``, none for an older layout."""
    return report_rows(doc) if "stages" in doc else doc.get("metrics", [])


def clamped(name, cpus):
    """Whether ``name`` counts more workers than ``cpus`` can run."""
    return any(
        int(s[len(prefix) :]) > cpus
        for s in name.split("/")
        for prefix in CLAMPED
        if s.startswith(prefix)
    )


def compare(label, base, cur, failures):
    """Checks every row of ``base`` against ``cur`` (see the module doc),
    appending a message per regression. Returns comparisons made."""
    current = {r["name"]: r for r in rows_of(cur)}
    cpus = max(min(base.get("host_cpus", 1), cur.get("host_cpus", 1)), 1)
    checked = 0
    for row in rows_of(base):
        name, prev = row["name"], row["value"]
        rule = rule_of(name)
        if rule is None or clamped(name, cpus):
            continue
        if any(base.get(k) != cur.get(k) for k in rule.get("same", ())):
            continue
        now_row = current.get(name)
        if now_row is None:
            if rule.get("required"):
                failures.append(f"{label} {name}: missing from the current run")
            continue
        now = now_row["value"]
        better = now_row.get("better", row.get("better"))
        unit = row.get("unit", "")
        if "ratio" in rule:
            if prev <= 0 or now <= 0 or max(prev, now) < rule.get("floor", 0):
                continue
            worse = now / prev if better == "lower" else prev / now
            checked += 1
            if worse > rule["ratio"]:
                failures.append(
                    f"{label} {name}: {prev:,.6g} -> {now:,.6g} {unit} ({worse:.2f}x worse)"
                )
            continue
        slack = rule["slack"]
        checked += 1
        if better == "lower":
            regressed = now > prev + slack
        elif better == "higher":
            regressed = now < prev - slack
        else:
            regressed = now != prev
        if regressed:
            failures.append(
                f"{label} {name}: {prev} -> {now} {unit} (better {better}, slack {slack})"
            )
    return checked


def main(argv) -> int:
    if not argv or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    checked = 0
    for base_path, cur_path in zip(argv[::2], argv[1::2]):
        with open(base_path) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
        if not rows_of(base) or not rows_of(cur):
            print(f"obs gate: {base_path} vs {cur_path}: no rows on one side "
                  "(an older layout?), nothing compared")
            continue
        checked += compare(cur_path, base, cur, failures)
    if failures:
        print(f"obs gate: {len(failures)} regression(s)", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"obs gate: ok ({checked} comparisons within their thresholds)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
