"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s slotbench -p 'test_*.py'

The last test drives the built slotbench binary and is skipped until
`python3 slotbench/run.py ...` has built it once.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics as m  # noqa: E402

BINARY = ROOT / ".bench_build" / "slotbench" / "slotbench"


def slots_doc(n, **flags):
    """A column-wise "slots" object with n clean slots; `flags` maps a
    column to the indices set to 1."""
    cols = ("threw", "degraded", "invalid", "fell_back", "faulted", "first", "warm")
    doc = {c: [0] * n for c in cols}
    doc["first"][0] = 1
    for col, idx in flags.items():
        for i in idx:
            doc[col][i] = 1
    for col in ("step_ms", "work_ms", "solve_ms", "build_ms", "barrier_ms", "newton"):
        doc[col] = [float(i + 1) for i in range(n)]
    doc["solve_ms"] = [-1.0] * n
    doc["attempts"] = [2 if i in flags.get("fell_back", ()) else 1 for i in range(n)]
    return doc


def run_doc(n, episodes=1, workload="fig5-k4", **flags):
    return {
        "workload": workload,
        "host": {"threads": 4, "build_type": "Release"},
        "setup_s": [0.001, 0.002, 0.003],
        "episodes": [{"loop_s": 1.0, "slots": n // episodes, "cost": 5.0}
                     for _ in range(episodes)],
        "slots": slots_doc(n, **flags),
        "registry": {"counters": {}, "histograms": {
            "sora_p2_barrier_seconds": {"count": n, "sum": sum(range(1, n + 1)) / 1e3}}},
        "snapshot_bytes": 0.0,
        "peak_rss_mb": 10.0,
    }


def trace_doc(n):
    """Spans matching run_doc(n): slot i's barrier span lasts i + 1 ms,
    which is what run_doc's registry histogram sums to."""
    events = [{"name": "bench/build", "dur": 1000.0}, {"name": "bench/ctor", "dur": 2000.0}]
    events += [{"name": "bench/step", "dur": 1000.0 * (i + 1) + 500.0} for i in range(n)]
    events += [{"name": "p2/barrier", "dur": 1000.0 * (i + 1)} for i in range(n)]
    return {"traceEvents": events}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_sorted_copy(self):
        samples = list(range(100, 0, -1))  # 100..1, unsorted order
        self.assertEqual(m.percentile(samples, 0.5), (50, 100, 50))
        self.assertEqual(m.percentile(samples, 0.9), (90, 100, 10))
        self.assertEqual(m.percentile(samples, 1.0), (100, 100, 0))
        self.assertEqual(samples[0], 100)  # input left untouched

    def test_small_and_uneven_counts(self):
        self.assertEqual(m.percentile([7.0], 0.9), (7.0, 1, 0))
        # 99 samples: rank ceil(89.1) = 90, so only 9 lie beyond p90.
        self.assertEqual(m.percentile(list(range(1, 100)), 0.9), (90, 99, 9))
        self.assertEqual(m.percentile([3, 1, 2], 0.5), (2, 3, 1))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)
        with self.assertRaises(ValueError):
            m.percentile([1.0], 0.0)

    def test_sample_count_rule(self):
        # p90 has >= 10 samples beyond it from 100 timed slots on.
        self.assertGreaterEqual(m.percentile(range(100), 0.9)[2], m.MIN_TAIL_SAMPLES)
        self.assertLess(m.percentile(range(99), 0.9)[2], m.MIN_TAIL_SAMPLES)
        _, context = m.end_to_end(run_doc(100))
        self.assertEqual(context["slot_p90_ms"], {"n": 100, "beyond": 10, "trusted": True})
        _, context = m.end_to_end(run_doc(99))
        self.assertEqual(context["slot_p90_ms"], {"n": 99, "beyond": 9, "trusted": False})

    def test_per_slot_min(self):
        values = [5, 9, 1, 3, 2, 4, 8, 7, 6]  # three episodes of three slots
        self.assertEqual(m.per_slot_min(values, 3), [3, 2, 1])
        with self.assertRaises(ValueError):
            m.per_slot_min(values, 2)

    def test_end_to_end_is_best_of_n_with_pooled_context(self):
        doc = run_doc(6, episodes=2)
        doc["slots"]["step_ms"] = [10.0, 20.0, 30.0, 5.0, 25.0, 60.0]
        doc["slots"]["work_ms"] = list(doc["slots"]["step_ms"])
        doc["episodes"] = [{"loop_s": 0.06, "slots": 3, "cost": 5.0},
                           {"loop_s": 0.09, "slots": 3, "cost": 5.0}]
        values, context = m.end_to_end(doc)
        self.assertEqual(values["slot_p50_ms"], 20.0)  # of [5, 20, 30]
        self.assertEqual(values["slot_p90_ms"], 30.0)
        self.assertAlmostEqual(values["slots_per_s"], 3 / 0.055)
        self.assertEqual(context["slot_p90_ms"], {"n": 3, "beyond": 0, "trusted": False})
        pooled = context["all_episodes"]
        self.assertEqual(pooled["slot_p50_ms"], 20.0)  # rank 3 of 6
        self.assertEqual(pooled["slot_p90_ms"], 60.0)  # rank 6 of 6
        self.assertAlmostEqual(pooled["slots_per_s"], 6 / 0.15)


class FailedSlotTest(unittest.TestCase):
    def test_degraded_slot_counts_as_failed(self):
        self.assertEqual(m.failed_slots(slots_doc(10)), 0)
        self.assertEqual(m.failed_slots(slots_doc(10, degraded=[3])), 1)

    def test_every_failure_kind_counts_once(self):
        doc = slots_doc(10, degraded=[1, 2], threw=[2, 5], invalid=[7])
        self.assertEqual(m.failed_slots(doc), 4)

    def test_fallback_alone_is_not_a_failure(self):
        doc = slots_doc(10, fell_back=[4], faulted=[4])
        self.assertEqual(m.failed_slots(doc), 0)
        self.assertEqual(m.fallback_mismatches(doc), [])
        self.assertEqual(m.fallback_mismatches(slots_doc(10, fell_back=[4])), [4])

    def test_reference_check(self):
        ref = {"w": {"rtol": 1e-6, "seeds": {"1": 100.0}, "band": [90.0, 110.0]}}
        self.assertIsNone(m.check_reference("w", 1, 100.00001, ref))
        self.assertIsNotNone(m.check_reference("w", 1, 100.01, ref))
        self.assertIsNone(m.check_reference("w", 2, 95.0, ref))
        self.assertIsNotNone(m.check_reference("w", 2, 120.0, ref))
        self.assertIsNotNone(m.check_reference("other", 1, 100.0, ref))


class NameTest(unittest.TestCase):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names_follow_the_rule(self):
        names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for e in self.declared[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(m.NAME_RE.match(name), name)
        for w in self.declared["workloads"]:
            self.assertTrue(w["why"].strip())
            self.assertNotIn("\n", w["why"])

    def test_emitted_names_are_declared(self):
        end_to_end = {e["name"] for e in self.declared["end_to_end"]}
        per_layer = {e["name"] for e in self.declared["per_layer"]}
        values, _ = m.end_to_end(run_doc(12, episodes=3))
        self.assertEqual(set(values), end_to_end)
        self.assertEqual(m.check_names(values, end_to_end), [])
        layers, _ = m.per_layer(run_doc(6), trace_doc(6), run_doc(6), run_doc(6))
        self.assertEqual(set(layers), per_layer)
        self.assertEqual(m.check_names(layers, per_layer), [])
        self.assertEqual(m.check_names({"bad name": 1, "core.p2.x": 2}, per_layer),
                         ["bad name", "core.p2.x"])


class ReconcileTest(unittest.TestCase):
    def test_spans_match_the_registry(self):
        _, reconcile = m.per_layer(run_doc(6), trace_doc(6), run_doc(6), run_doc(6))
        self.assertAlmostEqual(reconcile, 0.0)

    def test_decomposed_spans_count_as_barrier_time(self):
        trace = trace_doc(6)
        barrier =[ev for ev in trace["traceEvents"] if ev["name"] == "p2/barrier"]
        barrier[0]["name"] = "p2/decomposed"
        _, reconcile = m.per_layer(run_doc(6), trace, run_doc(6), run_doc(6))
        self.assertAlmostEqual(reconcile, 0.0)

    def test_disagreeing_timers_are_caught(self):
        trace = trace_doc(6)
        trace["traceEvents"] = [ev for ev in trace["traceEvents"]
                                if not (ev["name"] == "p2/barrier" and ev["dur"] == 6000.0)]
        _, reconcile = m.per_layer(run_doc(6), trace, run_doc(6), run_doc(6))
        self.assertAlmostEqual(reconcile, 6 / 21)  # the 6 ms span of 21 ms is missing


@unittest.skipUnless(BINARY.is_file(), "slotbench binary not built yet")
class BinaryTest(unittest.TestCase):
    def run_binary(self, *args):
        env = {k: v for k, v in os.environ.items() if not k.startswith("SORA_")}
        env["SORA_THREADS"] = "1"
        proc = subprocess.run(
            [str(BINARY), "--workload", "fig5-k4", "--seed", "1", "--threads", "1",
             "--episodes", "1"] + list(args),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_injected_degraded_slots_are_counted_failed(self):
        doc = self.run_binary("--degrade-every", "3")
        slots = doc["slots"]
        n = doc["shape"]["episode_slots"]
        self.assertEqual(len(slots["step_ms"]), n)
        degraded = [i for i, d in enumerate(slots["degraded"]) if d]
        self.assertEqual(degraded, list(range(2, n, 3)))
        self.assertGreaterEqual(m.failed_slots(slots), len(degraded))
        self.assertEqual(
            m.failed_slots(slots),
            sum(1 for t, d, v in zip(slots["threw"], slots["degraded"], slots["invalid"])
                if t or d or v))


if __name__ == "__main__":
    unittest.main()
