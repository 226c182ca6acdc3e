"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 benchmarks/selftest.py``.  They
take a few seconds: one test runs small CLI commands with and without the
tracing shims.
"""

import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

import run
import spans
import workloads

run.pin_environment()
run.OUT.mkdir(exist_ok=True)
sys.path.insert(0, str(run.SRC))

SMALL_CERTIFY = ["certify", "--kind", "c", "--n", "3", "--cones", "0,1,9,16",
                 f"--sign={workloads.SIGNS[0]}", f"--sign={workloads.SIGNS[1]}", "--jobs", "1"]
SMALL_FAN = workloads.FAN_COMMANDS["fan-c3"]


class DigestTests(unittest.TestCase):
    def test_digest_ignores_order(self):
        items = [["k1", True, "+", "member"], ["k2", True, "-", "nonmember"], ["k3", False, "+", None]]
        shuffled = list(items)
        random.Random(5).shuffle(shuffled)
        self.assertEqual(workloads.digest(items), workloads.digest(shuffled))

    def test_changed_verdict_is_one_failed_operation(self):
        items = [[f"k{i}", True, "+", "member"] for i in range(5)]
        expected = [workloads.item_hash(i) for i in items]
        changed = [list(i) for i in items]
        changed[3][3] = "nonmember"
        self.assertNotEqual(workloads.digest(items), workloads.digest(changed))
        check = workloads.compare_items(changed, {"items": expected}, attempted=5)
        self.assertEqual(check.failed, 1)
        self.assertEqual(workloads.compare_items(items[::-1], {"items": expected}, attempted=5).failed, 0)
        self.assertEqual(workloads.compare_items(items[:3], {"items": expected}, attempted=5).failed, 2)

    def test_fan_digest_sees_rays_not_numbering(self):
        doc = {
            "cones": [{"face": [], "rays": [], "tree_key": "root"},
                      {"face": [0], "rays": [[1, 0, 2]], "tree_key": "a"},
                      {"face": [1], "rays": [[0, 1, 1]], "tree_key": "b"},
                      {"face": [0, 1], "rays": [[1, 0, 2], [0, 1, 1]], "tree_key": "ab"}],
            "facet_relation": [[[], [0]], [[], [1]], [[0], [0, 1]], [[1], [0, 1]]],
        }
        renumbered = {  # vertices 0 and 1 swapped, lists reordered
            "cones": [{"face": [0, 1], "rays": [[0, 1, 1], [1, 0, 2]], "tree_key": "ab"},
                      {"face": [1], "rays": [[1, 0, 2]], "tree_key": "a"},
                      {"face": [0], "rays": [[0, 1, 1]], "tree_key": "b"},
                      {"face": [], "rays": [], "tree_key": "root"}],
            "facet_relation": [[[0], [0, 1]], [[], [1]], [[], [0]], [[1], [0, 1]]],
        }
        base = workloads.digest(workloads.fan_items(doc))
        self.assertEqual(base, workloads.digest(workloads.fan_items(renumbered)))
        doc["cones"][1]["rays"] = [[1, 0, 3]]
        self.assertNotEqual(base, workloads.digest(workloads.fan_items(doc)))


class FailureTests(unittest.TestCase):
    class RaisingCli:
        @staticmethod
        def main(argv):
            from utrop.errors import GroebnerBudgetError
            raise GroebnerBudgetError(11, 10)

    class ResourceCli:
        @staticmethod
        def main(argv):
            return 3  # the CLI's exit code for an exhausted budget

    def test_crash_and_budget_exit_fail_every_verdict(self):
        w = workloads.WORKLOADS["certify-c3"]
        for cli in (self.RaisingCli, self.ResourceCli):
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                outcome = w.run({"cli": cli, "signs": list(workloads.SIGNS)}, tmp)
            check = w.check({"tree_key": {}}, outcome)
            self.assertEqual((check.attempted, check.failed), (68, 68))

    def test_census_crash_is_counted(self):
        w = workloads.WORKLOADS["census-c3"]
        check = w.check({}, RuntimeError("boom"))
        self.assertEqual((check.attempted, check.failed), (2176, 2176))

    def test_failing_passes_do_not_stop_the_run(self):
        class Flaky:
            calls = setups = 0

            def setup(self, seed):
                self.setups += 1

            def run(self, inputs, tmpdir):
                self.calls += 1
                return self.calls % 2

            def check(self, inputs, outcome):
                return workloads.Check(1, outcome)

        flaky = Flaky()
        passes = run.measure(flaky, 0, 0.05, None, "")
        self.assertGreaterEqual(len(passes), 1)
        self.assertEqual(passes[0]["check"].failed, 1)
        # every pass is set up afresh, and the set-up is timed apart from the pass
        self.assertEqual(flaky.setups, len(passes))
        self.assertTrue(all(p["setup_s"] > 0 for p in passes))

    def test_unreadable_output_fails_the_pass(self):
        class Unreadable:
            operations = 7

            def setup(self, seed):
                pass

            def run(self, inputs, tmpdir):
                return {}

            def check(self, inputs, report):
                return report["patterns"]

        check = run.measure(Unreadable(), 0, 0.05, None, "")[0]["check"]
        self.assertEqual((check.attempted, check.failed), (7, 7))


class SpanTests(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        recs = [
            ["cli.main", 0.0, 10.0, -1, None],
            ["initial.initial_ideal", 1.0, 4.0, 0, None],
            ["groebner.groebner_basis", 2.0, 3.0, 1, {"pairs": 1, "zero_reductions": 0, "basis_size": 1}],
            ["linalg.rank", 5.0, 6.5, 0, None],
        ]
        self.assertEqual(spans.self_times(recs), [5.5, 2.0, 1.0, 1.5])
        self.assertEqual(spans.root_self_s(recs), 5.5)
        metrics, _ = spans.layer_metrics(recs)
        self.assertEqual(metrics["cli.self_s"], 5.5)
        self.assertEqual(metrics["groebner.weighted.calls"], 1)
        self.assertEqual(metrics["initial.initial_ideal.self_s"], 2.0)

    def test_per_layer_names_match_benchmark_json(self):
        recs = [["cli.main", 0.0, 1.0, -1, None]]
        passes = [{"traced": False, "wall_s": 1.0, "spans": None},
                  {"traced": True, "wall_s": 1.0, "spans": recs}]
        got = {k: unit for k, (_, unit) in run.per_layer(passes).items()}
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(got, {m["name"]: m["unit"] for m in bench["per_layer"]})


class TracingChangesNothingTests(unittest.TestCase):
    def outputs(self, traced: bool):
        from utrop import cli
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        try:
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                docs = []
                for argv in (SMALL_CERTIFY, SMALL_FAN):
                    out = str(Path(tmp) / "out.json")
                    self.assertEqual(workloads.run_cli(cli, argv, out), 0)
                    docs.append(json.loads(Path(out).read_text()))
        finally:
            tracer.uninstall()
        return docs, tracer.take()

    def test_traced_and_untraced_results_are_identical(self):
        plain, none = self.outputs(traced=False)
        traced, recs = self.outputs(traced=True)
        self.assertEqual(none, [])
        for a, b in zip(plain, traced):
            # output_hash covers every verdict, witness and Groebner counter
            self.assertEqual(a["manifest"]["output_hash"], b["manifest"]["output_hash"])
        self.assertEqual(workloads.digest(workloads.fan_items(plain[1])),
                         workloads.digest(workloads.fan_items(traced[1])))
        metrics, cones = spans.layer_metrics(recs)
        self.assertEqual(metrics["groebner.weighted.calls"], 4)
        self.assertGreater(metrics["groebner.grevlex.pairs"], 0)  # counters the shim injected
        self.assertGreater(metrics["fans.pairwise_lp.calls"], 0)
        self.assertEqual(sum(metrics[f"signed.decided_by.{d}"] for d in spans.DECISIONS), 8)
        self.assertEqual(len(cones), 4)


if __name__ == "__main__":
    unittest.main()
