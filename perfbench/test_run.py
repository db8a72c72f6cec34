"""Unit tests for perfbench's parsers and statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import run

FIGURE3 = """\
================================================================
Figure 3: base energy-delay and average cache size measurements
================================================================
benchmark  C:rel-ED  C:leak+dyn  C:avg-size  C:slowdown  C:missrate  C:params       U:rel-ED  U:slowdown  paper C:ED  paper C:size
----------------------------------------------------------------------------------------------------------------------------------
applu      0.14      0.11+0.03   10.5%       0.2%        0.76%       mb=400 sb=2K   0.14      0.2%        0.20        20.0%
fpppp      2.56      2.17+0.39   83.9%       60.8%!      4.08%       mb=100 sb=32K  2.56      60.8%       1.00        100.0%
swim       0.53      0.53+0.00   53.1%       0.0%        0.04%       mb=100 sb=32K  0.53      0.0%        0.40        35.0%

mean constrained energy-delay reduction: -14.2% (paper headline: 62.0%)
mean unconstrained energy-delay reduction: -14.2% (paper headline: 67.0%)
mean constrained cache-size reduction: 42.2% (paper: ~62%)

legend: C = performance-constrained (slowdown <= 4%), U = unconstrained;
"""

SUMMARY = """\
suite: summary
  job      wall time  simulated  memory hits  disk hits  remote hits
  total 4.17s; session: 105 simulations, 0 memory hits, 0 disk hits, 0 remote hits, 15 workloads generated
"""


class Figure3Parser(unittest.TestCase):
    def test_rows_and_means(self):
        fig = run.parse_figure3(FIGURE3)
        self.assertEqual([r["name"] for r in fig["rows"]], ["applu", "fpppp", "swim"])
        fpppp = fig["rows"][1]
        self.assertEqual(fpppp["c_ed"], 2.56)
        self.assertEqual(fpppp["c_size_pct"], 83.9)
        self.assertEqual(fpppp["c_slowdown_pct"], 60.8)
        self.assertTrue(fpppp["violation"])
        self.assertFalse(fig["rows"][0]["violation"])
        self.assertEqual(fpppp["paper_ed"], 1.00)
        self.assertEqual(fig["ed_reduction_pct"], -14.2)
        self.assertEqual(fig["size_reduction_pct"], 42.2)

    def test_fidelity_metrics(self):
        m = run.figure3_metrics(run.parse_figure3(FIGURE3))
        self.assertAlmostEqual(m["fig3_ed_gap"], (0.06 + 1.56 + 0.13) / 3)
        self.assertEqual(m["fig3.constraint_violations"], 1)
        self.assertEqual(m["fig3_size_reduction_pct"], 42.2)

    def test_missing_table_is_an_error(self):
        with self.assertRaises(ValueError):
            run.parse_figure3("suite: nothing here\n")
        with self.assertRaises(ValueError):
            run.parse_figure3(FIGURE3.split("mean constrained")[0])


class SummaryParser(unittest.TestCase):
    def test_session_line(self):
        self.assertEqual(run.parse_summary(SUMMARY), {
            "simulations": 105, "memory_hits": 0, "disk_hits": 0,
            "remote_hits": 0, "workload_gens": 15,
        })

    def test_missing_line_is_an_error(self):
        with self.assertRaises(ValueError):
            run.parse_summary("suite: summary\n")


NO_TIERS = "result store: disabled (set DRI_STORE to a directory to enable)\n"

REMOTE = """\
result store: disabled (set DRI_STORE to a directory to enable)
remote store (http://127.0.0.1:4100):
  hits: 105
  misses: 0
  corrupt: 0
  errors: 0
  bytes fetched: 61044
  batch round trips: 1
  records accepted: 0
  writes rejected: 0
  push round trips: 0
server (http://127.0.0.1:4100/stats):
  records accepted: 7
"""


class StoreStatsParser(unittest.TestCase):
    def test_no_remote_tier(self):
        report, remote = run.split_store_stats(FIGURE3 + NO_TIERS)
        self.assertEqual(report, FIGURE3)
        self.assertIsNone(remote)

    def test_remote_counters_stop_at_the_server_section(self):
        report, remote = run.split_store_stats(FIGURE3 + REMOTE)
        self.assertEqual(report, FIGURE3)
        self.assertEqual(remote["hits"], 105)
        self.assertEqual(remote["batch_round_trips"], 1)
        self.assertEqual(remote["records_accepted"], 0)

    def test_missing_section_is_an_error(self):
        with self.assertRaises(ValueError):
            run.split_store_stats(FIGURE3)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(1, 11))
        self.assertEqual(run.percentile(values, 50), 5.5)
        self.assertAlmostEqual(run.percentile(values, 90), 9.1)
        self.assertEqual(run.percentile(values, 100), 10)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_summary_carries_the_sample_count(self):
        s = run.timing_summary([4.0, 1.0, 3.0, 2.0])
        self.assertEqual(s["n"], 4)
        self.assertEqual(s["p50"], 2.5)
        self.assertAlmostEqual(s["p90"], 3.7)

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(run.spread([5.0]), 0.0)


class Prometheus(unittest.TestCase):
    def test_samples_by_series(self):
        text = ("# TYPE dri_x_total counter\ndri_x_total 7\n"
                "dri_lat_ns{quantile=\"0.5\"} 100\ndri_lat_ns_sum 300\ndri_lat_ns_count 2\n")
        m = run.parse_prometheus(text)
        self.assertEqual(m["dri_x_total"], 7)
        self.assertEqual(m["dri_lat_ns_sum"], 300)
        self.assertEqual(m['dri_lat_ns{quantile="0.5"}'], 100)


class MetricGrammar(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_benchmark_json_follows_the_grammar(self):
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in self.spec[g]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_bad_names_units_and_bounds_are_refused(self):
        for group, field, value in (
            ("end_to_end", "name", "_leading_underscore"),
            ("end_to_end", "name", "x" * 65),
            ("per_layer", "name", "has space"),
            ("per_layer", "unit", "much-too-long-unit"),
            ("end_to_end", "unit", "µs"),
            ("end_to_end", "bound", 0.3),
        ):
            spec = copy.deepcopy(self.spec)
            spec[group][0][field] = value
            with self.assertRaises(run.BenchError, msg=f"{group}.{field}={value!r}"):
                run.check_spec(spec)

    def test_repeated_names_are_refused(self):
        spec = copy.deepcopy(self.spec)
        spec["per_layer"].append(dict(spec["end_to_end"][0], better="lower"))
        with self.assertRaises(run.BenchError):
            run.check_spec(spec)

    def test_benchmark_json_is_small(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        self.assertLess(os.path.getsize(path), 64 * 1024)
        with open(path) as f:
            self.assertEqual(set(json.load(f)), {
                "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})


if __name__ == "__main__":
    unittest.main()
