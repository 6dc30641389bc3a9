#!/usr/bin/env python3
"""Tests of the regression gate: one hand-made pair per rule, an older
layout, and every committed BENCH file against itself.

Run: ``python3 tools/test_obs_gate.py``
"""

import glob
import json
import os
import sys
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

import obs_gate  # noqa: E402


def row(name, value, better="higher", unit="x"):
    return {"name": name, "value": value, "unit": unit, "better": better}


def bench(*rows, **context):
    return {**context, "metrics": list(rows)}


def gate(base, cur):
    """(comparisons, failures) of one pair."""
    failures = []
    return obs_gate.compare("test", base, cur, failures), failures


class RatioRules(unittest.TestCase):
    def test_a_throughput_drop_past_the_ratio_fails(self):
        name = "ingest_posts_per_sec/shards=4"
        self.assertEqual(len(gate(bench(row(name, 2.1e6)), bench(row(name, 1e6)))[1]), 1)
        self.assertEqual(gate(bench(row(name, 1.9e6)), bench(row(name, 1e6))), (1, []))

    def test_a_slowdown_past_the_ratio_fails(self):
        base = bench(row("fit_p50_ms", 1.0, "lower", "ms"))
        self.assertEqual(len(gate(base, bench(row("fit_p50_ms", 2.1, "lower", "ms")))[1]), 1)
        self.assertEqual(gate(base, bench(row("fit_p50_ms", 1.9, "lower", "ms"))), (1, []))

    def test_both_sides_under_the_floor_are_skipped(self):
        base = bench(row("publish_expiry_secs", 0.001, "lower", "s"))
        cur = bench(row("publish_expiry_secs", 0.009, "lower", "s"))
        self.assertEqual(gate(base, cur), (0, []))
        cur = bench(row("publish_expiry_secs", 0.011, "lower", "s"))
        self.assertEqual(len(gate(base, cur)[1]), 1)
        # One side over the floor is enough to compare.
        self.assertEqual(gate(cur, base), (1, []))

    def test_ci_scale_rotation_and_warm_open_are_compared(self):
        for name in ("snapshot_rotation_secs", "warm_open_long_suffix_secs"):
            with self.subTest(name=name):
                base = bench(row(name, 0.0057, "lower", "s"))
                self.assertEqual(gate(base, bench(row(name, 0.0096, "lower", "s"))), (1, []))
                self.assertEqual(len(gate(base, bench(row(name, 0.0120, "lower", "s")))[1]), 1)
                tiny = bench(row(name, 0.0005, "lower", "s"))
                self.assertEqual(gate(tiny, bench(row(name, 0.0015, "lower", "s"))), (0, []))

    def test_incremental_snapshot_slowdown_past_the_ratio_fails(self):
        self.streaming_row_is_gated("incremental_snapshot_secs", 0.00063)

    def test_held_publish_slowdown_past_the_ratio_fails(self):
        self.streaming_row_is_gated("held_publish_secs", 0.0014)

    def test_held_encode_slowdown_past_the_ratio_fails(self):
        self.streaming_row_is_gated("held_encode_secs", 0.00088)

    def test_a_crowd_summed_on_every_clean_snapshot_fails(self):
        name = "cached_snapshot_secs"
        base = bench(row(name, 0.000063, "lower", "s"))
        self.assertEqual(len(gate(base, bench(row(name, 0.000063 * 17, "lower", "s")))[1]), 1)

    def test_clean_snapshots_under_the_floor_are_skipped(self):
        name = "cached_snapshot_secs"
        base = bench(row(name, 0.000063, "lower", "s"))
        self.assertEqual(gate(base, bench(row(name, 0.00045, "lower", "s"))), (0, []))
        self.assertEqual(gate(bench(row(name, 0.00045, "lower", "s")), base), (0, []))

    def streaming_row_is_gated(self, name, secs):
        """A sub-millisecond CI-scale figure is compared: within 2x passes,
        past it fails."""
        base = bench(row(name, secs, "lower", "s"))
        self.assertEqual(gate(base, bench(row(name, secs * 1.9, "lower", "s"))), (1, []))
        self.assertEqual(len(gate(base, bench(row(name, secs * 2.1, "lower", "s")))[1]), 1)

    def test_state_bytes_per_user_growth_past_a_quarter_fails(self):
        name = "state_bytes_per_user"
        base = bench(row(name, 1_143.0, "lower", "B"), users=10_000)
        grown = bench(row(name, 1_143.0 * 1.2, "lower", "B"), users=10_000)
        self.assertEqual(gate(base, grown), (1, []))
        bloated = bench(row(name, 1_143.0 * 1.3, "lower", "B"), users=10_000)
        self.assertEqual(len(gate(base, bloated)[1]), 1)
        # Per-user bytes of another crowd size are not compared.
        self.assertEqual(gate(base, {**bloated, "users": 100_000}), (0, []))

    def test_a_figure_on_one_side_only_is_skipped(self):
        base = bench(row("kernel_users_per_sec/grid=96", 4e5))
        self.assertEqual(gate(base, bench()), (0, []))
        self.assertEqual(gate(bench(), base), (0, []))

    def test_a_row_without_a_rule_is_not_compared(self):
        base = bench(row("naive_users_per_sec", 1e5))
        self.assertEqual(gate(base, bench(row("naive_users_per_sec", 1.0))), (0, []))


class SlackRules(unittest.TestCase):
    def test_a_byte_row_that_grows_at_all_fails(self):
        base = bench(row("log_bytes_per_post", 12.4, "lower", "B"), users=10_000)
        cur = bench(row("log_bytes_per_post", 12.41, "lower", "B"), users=10_000)
        self.assertEqual(len(gate(base, cur)[1]), 1)
        self.assertEqual(gate(base, base), (1, []))

    def test_byte_rows_of_different_crowds_are_skipped(self):
        base = bench(row("log_bytes_per_post", 12.4, "lower", "B"), users=10_000)
        cur = bench(row("log_bytes_per_post", 20.0, "lower", "B"), users=2_000)
        self.assertEqual(gate(base, cur), (0, []))

    def test_zone_error_has_six_minutes_of_slack(self):
        name = "single-utc+1/24/1/zone_error_min"
        base = bench(row(name, 26.4, "lower", "min"))
        self.assertEqual(gate(base, bench(row(name, 26.4 + 5.9, "lower", "min"))), (1, []))
        self.assertEqual(len(gate(base, bench(row(name, 26.4 + 6.1, "lower", "min")))[1]), 1)

    def test_any_change_of_a_snapped_zone_fails(self):
        name = "single-utc+1/24/1/snapped_zone_min/60"
        base = bench(row(name, 60, "equal", "min"))
        self.assertEqual(gate(base, base), (1, []))
        self.assertEqual(len(gate(base, bench(row(name, 75, "equal", "min")))[1]), 1)
        self.assertEqual(len(gate(base, bench(row(name, 45, "equal", "min")))[1]), 1)

    def test_a_ledger_row_missing_from_the_current_run_fails(self):
        base = bench(row("mix/24/1/k_mismatch", 0, "lower", "share"))
        checked, failures = gate(base, bench())
        self.assertEqual(checked, 0)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing", failures[0])


class Clamp(unittest.TestCase):
    def test_a_writer_row_above_either_hosts_cpus_is_skipped(self):
        name = "ingest_posts_per_sec/shards=4/writers=4"
        slow = bench(row(name, 1e6), host_cpus=8)
        fast = bench(row(name, 9e6), host_cpus=2)
        self.assertEqual(gate(fast, slow), (0, []))
        self.assertEqual(gate(slow, fast), (0, []))
        self.assertEqual(len(gate({**fast, "host_cpus": 4}, slow)[1]), 1)

    def test_a_client_row_within_the_hosts_cpus_is_compared(self):
        name = "snapshot_requests_per_sec/clients=2"
        base = bench(row(name, 9e3), host_cpus=2)
        self.assertEqual(len(gate(base, bench(row(name, 1e3), host_cpus=2))[1]), 1)


class RunReport(unittest.TestCase):
    @staticmethod
    def report(ns, evals, iterations):
        return {
            "stages": [
                {"name": "streaming.refresh", "calls": 3, "total_ns": ns},
                {"name": "streaming.fit", "calls": 20, "total_ns": 1},
            ],
            "metrics": {
                "counters": {
                    "placement.exact_evals": evals,
                    "streaming.em_iterations": iterations,
                }
            },
        }

    def test_a_report_becomes_rows(self):
        rows = {r["name"]: r["value"] for r in obs_gate.rows_of(self.report(9e6, 5e3, 1_000))}
        self.assertEqual(rows["stage/streaming.refresh"], 9e6)
        self.assertEqual(rows["placement.exact_evals"], 5e3)
        self.assertEqual(rows["em_iterations_per_fit"], 50)

    def test_a_stage_em_or_evals_regression_fails(self):
        base = self.report(9e6, 5e3, 1_000)
        self.assertEqual(gate(base, base), (3, []))
        self.assertEqual(len(gate(base, self.report(19e6, 11e3, 2_100))[1]), 3)

    def test_fits_under_the_minimum_are_not_compared(self):
        base = self.report(9e6, 5e3, 1_000)
        base["stages"][1]["calls"] = obs_gate.MIN_FITS - 1
        names = [r["name"] for r in obs_gate.rows_of(base)]
        self.assertNotIn("em_iterations_per_fit", names)


class Files(unittest.TestCase):
    def run_gate(self, *paths):
        return obs_gate.main(list(paths))

    def test_an_older_layout_compares_nothing(self):
        old = {"users": 10_000, "host_cpus": 2, "ingest_posts_per_sec": [{"shards": 1}]}
        self.assertEqual(obs_gate.rows_of(old), [])
        self.assertEqual(gate(old, bench(row("ingest_posts_per_sec/shards=1", 1.0))), (0, []))
        self.assertEqual(gate(bench(row("ingest_posts_per_sec/shards=1", 1.0)), old), (0, []))

    def test_every_committed_bench_file_passes_against_itself(self):
        root = os.path.dirname(TOOLS)
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        self.assertTrue(paths)
        for path in paths:
            with open(path) as f:
                doc = json.load(f)
            with self.subTest(path=os.path.basename(path)):
                self.assertTrue(obs_gate.rows_of(doc))
                self.assertEqual(gate(doc, doc)[1], [])
        self.assertEqual(self.run_gate(*[p for path in paths for p in (path, path)]), 0)

    def test_an_odd_argument_count_is_a_usage_error(self):
        self.assertEqual(self.run_gate("only-one.json"), 2)
        self.assertEqual(self.run_gate(), 2)


if __name__ == "__main__":
    unittest.main()
