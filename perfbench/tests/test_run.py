"""Tests of the benchmark harness: the metric list, determinism records and
the compare command.

    python3 -m unittest discover -s perfbench/tests

Each test builds `wb-perfbench` (a no-op once built) and runs a handful of
single simulations of about a second each.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

BINARY = run.build()


def row(workload, seed, traced=False):
    r, err = run.simulate(BINARY, workload, seed, traced, 0)
    assert err is None, err
    return r


def compare(rows_a, rows_b):
    with tempfile.TemporaryDirectory(dir=HERE) as d:
        paths = []
        for name, rows in (("a.jsonl", rows_a), ("b.jsonl", rows_b)):
            path = Path(d) / name
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
            paths.append(str(path))
        p = subprocess.run([sys.executable, str(HERE / "run.py"), "compare", *paths], capture_output=True, text=True)
    return p.returncode, p.stdout


class MetricList(unittest.TestCase):
    def test_benchmark_json_names_every_metric_the_harness_prints(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        traced = row("torture16_lossy", 1, traced=True)
        layers = {**run.layer_counts(traced), **run.layer_times(traced), "trace.overhead_s": (0, "s")}
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], [(k, u) for k, (_, u) in layers.items()])
        e2e = {**run.e2e_counts(traced), **run.e2e_times(traced), "pass_frac": (1, "ratio")}
        self.assertEqual(sorted((m["name"], m["unit"]) for m in bench["end_to_end"]), sorted((k, u) for k, (_, u) in e2e.items()))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.SEEDS))


class Determinism(unittest.TestCase):
    def test_same_seed_shows_zero_diffs(self):
        a, b = row("torture16_lossy", 5), row("torture16_lossy", 5)
        code, out = compare([a], [b])
        self.assertEqual(code, 0, out)
        self.assertIn("0 counts moved", out)

    def test_two_seeds_move_sim_cycles(self):
        a, b = row("torture16_lossy", 5), row("torture16_lossy", 6)
        self.assertNotEqual(a["counts"]["sim_cycles"], b["counts"]["sim_cycles"])
        b["seed"] = a["seed"]  # compare them as if they were one input
        code, out = compare([a], [b])
        self.assertEqual(code, 1)
        self.assertIn("sim_cycles:", out)

    def test_tracing_leaves_counts_unchanged(self):
        self.assertEqual(row("fft64", 2)["counts"], row("fft64", 2, traced=True)["counts"])


if __name__ == "__main__":
    unittest.main()
