"""Self-tests of the benchmark: the correctness gate, the tracer, the
reference kernel, and the metric names against BENCHMARK.json.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import circreg.homology  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from circreg.betti import BettiTable, hochster_betti_table  # noqa: E402
from circreg.graphs import Graph, circulant  # noqa: E402


def current(path: str):
    owner, attr = tracer.resolve(path)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def small_workload() -> workloads.Workload:
    """A fraction of a second of every layer: one verify suite, two tables."""
    g = circulant(10, {1, 5})
    steps = [
        workloads._suite_step("hoshino", ["verify", "hoshino", "--json"]),
        workloads._table_step("table_s.c10.gf2", g, 2),
        workloads._table_step("table_s.c10.q", g, "Q"),
    ]
    return workloads.Workload("small", steps, steps[1].label)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rp2 = Graph(12, workloads.RP2_EDGES)
        cls.gf2 = hochster_betti_table(cls.rp2, 2)
        cls.q = hochster_betti_table(cls.rp2, "Q")

    def test_true_tables_pass(self):
        self.assertEqual(gate.table_problems("rp2.gf2", self.rp2, self.gf2), [])
        self.assertEqual(gate.table_problems("rp2.q", self.rp2, self.q), [])

    def test_one_changed_beta_is_rejected(self):
        for label in ("rp2.gf2", "unpinned"):
            for cell, b in self.gf2.entries.items():
                entries = dict(self.gf2.entries)
                entries[cell] = b + 1
                bad = BettiTable(12, 2, entries)
                self.assertTrue(gate.table_problems(label, self.rp2, bad), (label, cell))

    def test_swapped_field_tables_are_rejected(self):
        self.assertNotEqual(self.gf2.entries, self.q.entries)
        as_q = BettiTable(12, "Q", self.gf2.entries)
        as_gf2 = BettiTable(12, 2, self.q.entries)
        self.assertTrue(gate.table_problems("rp2.q", self.rp2, as_q))
        self.assertTrue(gate.table_problems("rp2.gf2", self.rp2, as_gf2))

    def test_relabelled_input_keeps_pinned_tables(self):
        wl = workloads.sweep(7)
        step = next(s for s in wl.steps if s.label == "table_s.rp2.q")
        self.assertNotEqual(step.graph, Graph(12, workloads.RP2_EDGES))
        table = step.run(None)
        self.assertEqual(gate.table_problems("rp2.q", step.graph, table), [])

    def test_report_digest_ignores_timing_only(self):
        report = workloads.run_cli(["verify", "hoshino", "--nmax", "4", "--json"])
        digest = gate.report_digest(report)
        for rec in report["instances"]:
            rec["wall_ms"] += 1.0
        self.assertEqual(gate.report_digest(report), digest)
        report["instances"][0]["pass"] = not report["instances"][0]["pass"]
        self.assertNotEqual(gate.report_digest(report), digest)
        report["ok"] = False
        self.assertTrue(gate.report_problems("hoshino", report, None))


class TracerTest(unittest.TestCase):
    def test_traced_pass_restores_every_attribute(self):
        originals = {t.path: current(t.path) for t in layers.TARGETS}
        wl = small_workload()
        checker = gate.Checker()
        t = tracer.Tracer()
        with t.installed(layers.TARGETS):
            self.assertIsNot(current(layers.RANK), originals[layers.RANK])
            run.run_pass(wl, checker, tracer=t)
        self.assertEqual(checker.problems, [])
        self.assertEqual(t.missing, [])
        for path, original in originals.items():
            self.assertIs(current(path), original, path)
        self.assertTrue(tracer.nesting_ok(t.spans))
        metrics = layers.pass_metrics(t)
        self.assertEqual(set(metrics), set(layers.NEEDS))
        for name in ("betti.tables", "homology.calls", "homology.rank_calls", "verify.instances"):
            self.assertGreater(metrics[name], 0, name)
        self.assertGreater(metrics["graphs.s"], 0)
        self.assertGreater(metrics["complexes.s"], 0)
        self.assertLess(metrics["betti.memo_hit_ratio"], 1)

    def test_missing_name_drops_its_metrics(self):
        saved = circreg.homology._boundary_rank
        del circreg.homology._boundary_rank
        t = tracer.Tracer()
        try:
            t.install(layers.TARGETS)
        finally:
            t.restore()
            circreg.homology._boundary_rank = saved
        self.assertEqual(t.missing, [layers.RANK])
        metrics = layers.pass_metrics(t)
        self.assertNotIn("homology.rank_s", metrics)
        self.assertNotIn("homology.self_s", metrics)
        self.assertIn("betti.orbit_s", metrics)

    def test_hook_that_no_longer_fits_is_a_missing_name(self):
        t = tracer.Tracer()
        target = tracer.Target(layers.RANK, "homology.rank", lambda tr, a, k, r: a[7])
        with t.installed([target]):
            hochster_betti_table(circulant(6, {1}), 2)
        self.assertEqual(t.missing, [layers.RANK])
        self.assertNotIn("homology.rank_calls", layers.pass_metrics(t))

    def test_self_time_subtracts_children(self):
        spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["d", 0, 5.0, 6.0]]
        self.assertEqual(tracer.self_times(spans), [6.0, 2.0, 1.0, 1.0])
        self.assertTrue(tracer.nesting_ok(spans))
        spans[3][3] = 11.0
        self.assertFalse(tracer.nesting_ok(spans))


class ReferenceSpeedTest(unittest.TestCase):
    def test_reference_kernel_work_is_fixed(self):
        # Scaled times compare across commits only while the kernel's work stays the same.
        self.assertEqual(run.reference_kernel(), 201)


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(set(run.LAYER_UNITS) - set(layers.NEEDS), {"trace.overhead", "betti.workers2_speedup"})


if __name__ == "__main__":
    unittest.main()
