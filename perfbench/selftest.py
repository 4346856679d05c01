"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # run the self-tests
    python3 perfbench/selftest.py --record   # rewrite digests.json

Run from the root of a checkout.  They check that the generators are
deterministic, that the checks reject an output with one value changed, that
traced and untraced runs produce identical outputs, that a call over the time
limit fails as a timeout, that a task's cost takes out the contention the
reference probes saw, that the default seed's exact outputs still match
digests.json, and that BENCHMARK.json names exactly the metrics the benchmark
prints.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tasks  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from dstoch import RatMatrix  # noqa: E402

WORKDIR = HERE / "out" / "selftest-inputs"


def setUpModule():
    signal.signal(signal.SIGALRM, worker._alarm)


def _bump(grid, i=0, j=0):
    """The same grid with entry (i, j) increased by 1/7."""
    rows = [list(row) for row in grid]
    rows[i][j] += Fraction(1, 7)
    return RatMatrix(rows)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in tasks.WORKLOADS.items():
            with self.subTest(workload=name):
                a = cls().inputs(5, WORKDIR / "a")
                b = cls().inputs(5, WORKDIR / "b")
                c = cls().inputs(6, WORKDIR / "c")
                if name == "cli_mix":  # inputs are files; compare their text
                    a, b, c = ([sorted(p.read_text() for p in (WORKDIR / d).iterdir())]
                               for d in "abc")
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Checks(unittest.TestCase):
    def first_output(self, name):
        w = tasks.WORKLOADS[name]()
        inp = w.inputs(0, WORKDIR / name)[0]
        out = w.task(inp, worker.untraced)
        self.assertEqual(w.check(inp, out), [])
        return w, inp, out

    def test_spectral_rejects_one_changed_fraction(self):
        w, inp, out = self.first_output("exact_spectral")
        for k in range(len(out.poly) - 1):
            poly = list(out.poly)
            poly[k] += Fraction(1, 7)
            self.assertNotEqual(w.check(inp, dataclasses.replace(out, poly=tuple(poly))), [])
        for field in ("balanced", "back", "updated"):
            bumped = _bump(getattr(out, field).rows, 1, 2)
            self.assertNotEqual(w.check(inp, dataclasses.replace(out, **{field: bumped})), [])
        self.assertNotEqual(w.check(inp, dataclasses.replace(out, eps=out.eps + 1)), [])

    def test_structural_rejects_one_changed_fraction(self):
        w, inp, out = self.first_output("exact_structural")
        for field in ("projected", "nr", "back"):
            bumped = _bump(getattr(out, field).rows, 3, 1)
            self.assertNotEqual(w.check(inp, dataclasses.replace(out, **{field: bumped})), [])
        self.assertNotEqual(
            w.check(inp, dataclasses.replace(out, distance=(out.distance or 0) + Fraction(1, 7))),
            [],
        )
        self.assertNotEqual(
            w.check(inp, dataclasses.replace(out, text=out.text.replace("/", "0/", 1))), []
        )

    def test_float_rejects_a_perturbed_realization(self):
        w, inp, out = self.first_output("float_realize")
        arr = out.realized.to_numpy()
        arr[0, 0] += 1e-6
        realized = type(out.realized)(arr)
        self.assertNotEqual(w.check(inp, dataclasses.replace(out, realized=realized)), [])

    def test_cli_exit_code_is_checked(self):
        w = tasks.CliMix()
        inp = w.inputs(0, WORKDIR / "cli")[0]
        self.assertNotEqual(w.check(inp, tasks.CliOutput(2, "", "")), [])


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_identical(self):
        for name, cls in tasks.WORKLOADS.items():
            with self.subTest(workload=name):
                w = cls()
                inputs = w.inputs(3, WORKDIR / name)[:3]
                deadline = time.perf_counter() + 60
                plain = worker.measure(w, inputs, 0, deadline)
                tracer = Tracer()
                with instrument(tracer, "dstoch", worker.LAYERS):
                    traced = worker.measure(w, inputs, 0, deadline, tracer)
                self.assertEqual(plain.digest, traced.digest)
                self.assertEqual(plain.unexpected + traced.unexpected, 0)
                seconds, calls = tracer.self_times()
                self.assertEqual(calls[f"task.{name}"], 2 * len(inputs))  # two passes
                self.assertTrue(set(seconds) - {f"task.{name}"} <= set(worker.TRACED_CALLS))
        import dstoch.spectra

        self.assertIs(dstoch.spectra.charpoly, dstoch.charpoly)  # instrument() restored it

    def test_self_time_subtracts_children(self):
        t = Tracer()
        t.spans = [["task", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 6.0, 0, 0]]
        seconds, calls = t.self_times()
        self.assertEqual(seconds, {"task": 5.0, "a": 3.0, "b": 3.0})


class TimeLimit(unittest.TestCase):
    def test_a_call_over_the_limit_fails_as_a_timeout(self):
        class Spin(tasks.Workload):
            name = "spin"

            def task(self, inp, call):
                return call("spin", time.sleep, 5)

            def check(self, inp, out):
                return []

        saved = worker.CALL_LIMIT_S
        worker.CALL_LIMIT_S = 0.05
        try:
            phase = worker.measure(Spin(), [None], 0, time.perf_counter() + 10)
        finally:
            worker.CALL_LIMIT_S = saved
        self.assertEqual((phase.failed, phase.unexpected), (2, 2))  # one per pass
        self.assertTrue(any(r.startswith("timeout") for r in phase.reasons))


class Contention(unittest.TestCase):
    def test_cost_scales_wall_time_by_the_probes_around_it(self):
        ref = worker.PROBE_REF_S
        # input 0 runs once between probes at the reference speed, then
        # twice as long between probes that average twice as slow; input 1
        # runs between the same
        probes = [ref, ref, 3 * ref, ref]
        for cost in worker.costs([0.3, 0.6, 0.6], probes, 2):
            self.assertAlmostEqual(cost, 0.3)


class Contract(unittest.TestCase):
    def test_tail_has_ten_beyond(self):
        lat = list(range(1, 47))
        value, pct = run.tail(lat)
        self.assertEqual(sum(v > value for v in lat), 10)
        self.assertAlmostEqual(pct, 100 * 36 / 46)
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0))

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["tasks_per_s", "task_ms_p50", "task_ms_tail", "setup_s", "peak_rss_mb"],
        )
        want = [f"{c}{suffix}" for c in worker.TRACED_CALLS for suffix in ("_s", "_calls")]
        want += ["cli.startup_s", *worker.COUNTERS, "trace.overhead_frac"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], want)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_default_seed_digests_match_the_record(self):
        recorded = json.loads((HERE / "digests.json").read_text())
        self.assertEqual(default_seed_digests(), recorded)


def default_seed_digests() -> dict:
    """Digest of one pass of exact outputs per workload that has them."""
    digests = {}
    for name in ("exact_spectral", "exact_structural", "cli_mix"):
        w = tasks.WORKLOADS[name]()
        inputs = w.inputs(run.DEFAULT_SEED, WORKDIR / name)
        digests[name] = worker.measure(w, inputs, 0, time.perf_counter() + 120).digest
    return digests


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        signal.signal(signal.SIGALRM, worker._alarm)
        (HERE / "digests.json").write_text(json.dumps(default_seed_digests(), indent=2) + "\n")
    else:
        unittest.main()
