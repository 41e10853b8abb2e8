#!/usr/bin/env python3
"""Unit tests for the CI gate/history tooling (stdlib only, ctest-invoked).

CI's correctness now rests on check_regression.py (the exact-metric and
wall-clock gates) and history.py (the cross-run trajectory artifact), so
they are tested like any other component: exact-metric drift detection,
fail-closed behavior when a gate would compare nothing, history
append/replace semantics, the SVG plotter, and the A/B tool's per-layer
summary.

    $ python3 bench/test_tooling.py        # or via ctest: test_bench_tooling
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(BENCH_DIR, "check_regression.py")
HISTORY = os.path.join(BENCH_DIR, "history.py")

sys.path.insert(0, BENCH_DIR)
import ab_compare  # noqa: E402  (a sibling script, imported for summarize)


def run(script, *args):
    """Runs a tool; returns (exit_code, stdout+stderr)."""
    p = subprocess.run([sys.executable, script, *args],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def report(label, backend, **fields):
    r = {"label": label, "backend": backend}
    r.update(fields)
    return r


class ToolingCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write_json(self, name, obj):
        p = self.path(name)
        with open(p, "w") as f:
            json.dump(obj, f)
        return p


class CheckRegressionExact(ToolingCase):
    def test_identical_metrics_pass(self):
        rows = [report("sort", "sim-pws", makespan=100, cache_misses=5)]
        base = self.write_json("base.json", rows)
        fresh = self.write_json("fresh.json", rows)
        code, out = run(CHECK, fresh, "--baseline", base,
                        "--exact-metrics", "makespan,cache_misses")
        self.assertEqual(code, 0, out)
        self.assertIn("2 deterministic value(s) exact", out)

    def test_any_drift_fails(self):
        base = self.write_json(
            "base.json", [report("sort", "sim-pws", makespan=100)])
        fresh = self.write_json(
            "fresh.json", [report("sort", "sim-pws", makespan=101)])
        code, out = run(CHECK, fresh, "--baseline", base,
                        "--exact-metrics", "makespan")
        self.assertEqual(code, 1, out)
        self.assertIn("DRIFT", out)

    def test_fails_closed_when_nothing_compares(self):
        # A renamed metric must not silently disable the gate.
        base = self.write_json(
            "base.json", [report("sort", "sim-pws", makespan=100)])
        fresh = self.write_json(
            "fresh.json", [report("sort", "sim-pws", makespan=100)])
        code, out = run(CHECK, fresh, "--baseline", base,
                        "--exact-metrics", "renamed_metric")
        self.assertEqual(code, 1, out)
        self.assertIn("failing", out)

    def test_missing_baseline_is_usage_error(self):
        fresh = self.write_json(
            "fresh.json", [report("sort", "sim-pws", makespan=1)])
        code, out = run(CHECK, fresh, "--baseline",
                        self.path("nonexistent.json"),
                        "--exact-metrics", "makespan")
        self.assertEqual(code, 2, out)

    def test_rows_missing_metric_are_skipped(self):
        # par-* rows carry no simulator fields; their absence must not trip
        # the exact gate while the sim rows still compare.
        base = self.write_json("base.json", [
            report("sort", "sim-pws", makespan=100),
            report("sort", "par-random", pool_steals=7)])
        fresh = self.write_json("fresh.json", [
            report("sort", "sim-pws", makespan=100),
            report("sort", "par-random", pool_steals=12)])
        code, out = run(CHECK, fresh, "--baseline", base,
                        "--exact-metrics", "makespan")
        self.assertEqual(code, 0, out)

    def test_new_and_gone_rows_never_fail(self):
        base = self.write_json("base.json", [
            report("old", "sim-pws", makespan=5),
            report("kept", "sim-pws", makespan=9)])
        fresh = self.write_json("fresh.json", [
            report("kept", "sim-pws", makespan=9),
            report("new", "sim-pws", makespan=3)])
        code, out = run(CHECK, fresh, "--baseline", base,
                        "--exact-metrics", "makespan")
        self.assertEqual(code, 0, out)
        self.assertIn("[gone]", out)
        self.assertIn("[new]", out)


class CheckRegressionWallClock(ToolingCase):
    def test_regression_over_threshold_fails(self):
        base = self.write_json(
            "base.json", [report("sort", "seq", wall_ms=100.0)])
        fresh = self.write_json(
            "fresh.json", [report("sort", "seq", wall_ms=260.0)])
        code, out = run(CHECK, fresh, "--baseline", base, "--threshold", "1.0")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_noise_floor_skips_tiny_rows(self):
        base = self.write_json(
            "base.json", [report("sort", "seq", wall_ms=1.0)])
        fresh = self.write_json(
            "fresh.json", [report("sort", "seq", wall_ms=50.0)])
        code, out = run(CHECK, fresh, "--baseline", base, "--min-ms", "5.0")
        self.assertEqual(code, 0, out)


class CheckRegressionTrend(ToolingCase):
    def history(self, name, walls, label="sort", backend="seq",
                metric="wall_ms"):
        entries = [{"commit": f"c{i}",
                    "reports": [report(label, backend, **{metric: w})]}
                   for i, w in enumerate(walls)]
        return self.write_json(name, entries)

    def test_monotonic_regression_fails(self):
        hist = self.history("h.json", [100.0, 110.0, 125.0, 140.0, 160.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5",
                        "--threshold", "0.25")
        self.assertEqual(code, 1, out)
        self.assertIn("TREND", out)

    def test_dip_resets_the_verdict(self):
        # Same endpoints, but one dip: noise, not a sustained drift.
        hist = self.history("h.json", [100.0, 140.0, 95.0, 150.0, 160.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5",
                        "--threshold", "0.25")
        self.assertEqual(code, 0, out)

    def test_monotonic_below_threshold_passes(self):
        hist = self.history("h.json", [100.0, 101.0, 102.0, 103.0, 104.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5",
                        "--threshold", "0.25")
        self.assertEqual(code, 0, out)
        self.assertIn("[ok]", out)

    def test_young_history_passes(self):
        hist = self.history("h.json", [100.0, 200.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5")
        self.assertEqual(code, 0, out)
        self.assertIn("passing", out)

    def test_only_trailing_window_is_judged(self):
        # Old regression, flat recent history: the last K entries rule.
        hist = self.history(
            "h.json", [10.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5")
        self.assertEqual(code, 0, out)

    def test_noise_floor_skips_tiny_series(self):
        hist = self.history("h.json", [1.0, 2.0, 3.0, 4.0, 5.0])
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5",
                        "--min-ms", "5.0")
        self.assertEqual(code, 0, out)

    def test_rows_missing_metric_are_skipped(self):
        # A row that only appears in some commits must not crash or fail.
        entries = [{"commit": f"c{i}",
                    "reports": [report("sort", "seq", wall_ms=100.0 + i)]}
                   for i in range(5)]
        entries[2]["reports"].append(report("new", "seq", wall_ms=1000.0))
        hist = self.write_json("h.json", entries)
        code, out = run(CHECK, "--trend", "--history", hist, "--last", "5",
                        "--threshold", "0.25")
        self.assertEqual(code, 0, out)

    def test_missing_history_is_usage_error(self):
        code, _ = run(CHECK, "--trend", "--history", self.path("none.json"))
        self.assertEqual(code, 2)

    def test_fresh_required_without_trend(self):
        code, _ = run(CHECK)
        self.assertEqual(code, 2)


class HistoryAdd(ToolingCase):
    def test_append_then_replace_is_idempotent(self):
        fresh = self.write_json(
            "fresh.json", [report("sort", "sim-pws", makespan=100)])
        hist = self.path("hist.json")
        code, out = run(HISTORY, "add", fresh, "--commit", "aaa",
                        "--history", hist)
        self.assertEqual(code, 0, out)
        code, _ = run(HISTORY, "add", fresh, "--commit", "bbb",
                      "--history", hist)
        self.assertEqual(code, 0)
        # Re-adding commit aaa replaces its entry instead of duplicating.
        fresh2 = self.write_json(
            "fresh2.json", [report("sort", "sim-pws", makespan=42)])
        code, out = run(HISTORY, "add", fresh2, "--commit", "aaa",
                        "--history", hist)
        self.assertEqual(code, 0, out)
        self.assertIn("replaced", out)
        with open(hist) as f:
            entries = json.load(f)
        self.assertEqual([e["commit"] for e in entries], ["aaa", "bbb"])
        self.assertEqual(entries[0]["reports"][0]["makespan"], 42)

    def test_max_entries_keeps_newest(self):
        fresh = self.write_json(
            "fresh.json", [report("sort", "sim-pws", makespan=1)])
        hist = self.path("hist.json")
        for sha in ("aaa", "bbb", "ccc"):
            run(HISTORY, "add", fresh, "--commit", sha, "--history", hist,
                "--max-entries", "2")
        with open(hist) as f:
            entries = json.load(f)
        self.assertEqual([e["commit"] for e in entries], ["bbb", "ccc"])

    def test_multi_file_add_merges_rows_by_label_backend(self):
        hist = self.path("h.json")
        a = self.write_json("a.json", [report("eng", "sim-pws", makespan=10),
                                       report("dup", "sim-pws", makespan=1)])
        b = self.write_json("b.json", [report("serve", "service", p50_ms=3.5),
                                       report("dup", "sim-pws", makespan=2)])
        code, out = run(HISTORY, "add", a, b, "--commit", "c1",
                        "--history", hist)
        self.assertEqual(code, 0, out)
        with open(hist) as f:
            entries = json.load(f)
        self.assertEqual(len(entries), 1)
        rows = {(r["label"], r["backend"]): r
                for r in entries[0]["reports"]}
        self.assertEqual(len(rows), 3)       # dup merged, not duplicated
        self.assertEqual(rows[("dup", "sim-pws")]["makespan"], 2)  # later wins
        self.assertEqual(rows[("serve", "service")]["p50_ms"], 3.5)

    def test_non_array_artifact_is_rejected(self):
        bad = self.write_json("bad.json", {"not": "an array"})
        code, out = run(HISTORY, "add", bad, "--commit", "aaa",
                        "--history", self.path("hist.json"))
        self.assertEqual(code, 2, out)


class HistoryShowAndPlot(ToolingCase):
    def make_history(self):
        hist = self.path("hist.json")
        for sha, ms in (("aaa", 100), ("bbb", 90)):
            fresh = self.write_json(f"fresh_{sha}.json", [
                report("sort", "sim-pws", makespan=ms),
                report("sort", "par-random", pool_steals=3)])
            run(HISTORY, "add", fresh, "--commit", sha, "--history", hist)
        return hist

    def test_show_prints_trajectory(self):
        hist = self.make_history()
        code, out = run(HISTORY, "show", "--history", hist,
                        "--metric", "makespan")
        self.assertEqual(code, 0, out)
        self.assertIn("sort/sim-pws: 100 90", out)

    def test_plot_emits_svg_with_series(self):
        hist = self.make_history()
        svg_path = self.path("out.svg")
        code, out = run(HISTORY, "plot", "--history", hist,
                        "--metric", "makespan", "--out", svg_path)
        self.assertEqual(code, 0, out)
        with open(svg_path) as f:
            svg = f.read()
        self.assertTrue(svg.startswith("<svg"))
        self.assertIn("</svg>", svg)
        self.assertIn("sort/sim-pws", svg)          # legend entry
        self.assertIn("<polyline", svg)             # the trajectory line
        # Rows that never carry the metric are dropped, not plotted at 0.
        self.assertNotIn("par-random", svg)

    def test_plot_missing_history_is_usage_error(self):
        code, _ = run(HISTORY, "plot", "--history", self.path("none.json"),
                      "--out", self.path("out.svg"))
        self.assertEqual(code, 2)


class AbCompareSummary(unittest.TestCase):
    """ab_compare.py's per-layer summary of the driver's JSON lines."""

    @staticmethod
    def lines(layer, pairs):
        out = ['{"layer": "%s", "digest": "00ff"}' % layer]
        for r, (a, b) in enumerate(pairs):
            out.append(json.dumps({"round": r, "layer": layer,
                                   "a_ms": a, "b_ms": b}))
        return out

    def test_equal_sides_are_unresolved(self):
        pairs = [(1.0, 1.1), (1.1, 1.0), (1.0, 1.0), (2.0, 2.0), (1.0, 0.9)]
        [row] = ab_compare.summarize(self.lines("pws", pairs))
        self.assertEqual(row["layer"], "pws")
        self.assertEqual(row["rounds"], 5)
        self.assertAlmostEqual(row["ratio"], 1.0)
        self.assertLessEqual(row["q1"], 1.0)
        self.assertGreaterEqual(row["q3"], 1.0)
        self.assertEqual(row["verdict"], "unresolved")

    def test_faster_and_slower_sides_resolve(self):
        faster = [(10.0, 8.0 + 0.1 * r) for r in range(8)]
        slower = [(10.0, 12.0 - 0.1 * r) for r in range(8)]
        rows = ab_compare.summarize(self.lines("pws", faster) +
                                    self.lines("submit", slower))
        self.assertEqual([r["layer"] for r in rows], ["pws", "submit"])
        self.assertEqual(rows[0]["verdict"], "B faster")
        self.assertLess(rows[0]["q3"], 1.0)
        self.assertAlmostEqual(rows[0]["a_ms"], 10.0)
        self.assertEqual(rows[1]["verdict"], "B slower")
        self.assertGreater(rows[1]["q1"], 1.0)

    def test_one_round_is_its_own_interval(self):
        [row] = ab_compare.summarize(self.lines("rws", [(4.0, 3.0)]))
        self.assertEqual((row["q1"], row["ratio"], row["q3"]),
                         (0.75, 0.75, 0.75))


if __name__ == "__main__":
    unittest.main(verbosity=2)
