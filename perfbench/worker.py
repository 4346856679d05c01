"""Benchmark worker: one closed loop with a single client, in its own process.

Started by ``run.py`` with OpenBLAS pinned to one thread and ``src`` on
PYTHONPATH.  It imports the library, materializes the workload's inputs from
the seed, then runs the workload's inputs pass after pass until the tasks
have been busy for ``--seconds`` (always whole passes, at least two, so that
every output is seen twice).  Each task is timed alone; its output is checked
after the clock stops.  The result is one JSON object on standard output.

On a shared host a core runs up to about 1.8x slower while neighbours load
it, and how much of the time it is slowed changes from second to second and
can last a whole run, so two runs of the same code can differ by half.  To
take that out, a short reference probe (fixed pure-Python Fraction
arithmetic) is timed after every task.  A task's cost is its wall time scaled
by PROBE_REF_S over the mean of the probes just before and just after it: the
wall time the task would take on a core where the probe takes PROBE_REF_S.
Each input's cost (``cost``) is the median over its passes.

With ``--trace 1`` it runs an untraced phase and then a traced phase, each
for half of ``--seconds``, checks that both produced the same outputs, and reports the
per-layer metrics from the traced phase's spans.  ``--setup-only`` stops
after materializing and prints ``ready``; ``run.py`` times that.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

#: a single library call (or CLI process) that runs longer fails as a timeout
CALL_LIMIT_S = 30.0
#: no new task starts this long after the worker started
DEADLINE_S = 140.0
#: the reference probe sums this many terms of the harmonic series
PROBE_TERMS = 1000
#: the probe's time on an idle vCPU of the 2-vCPU Intel Xeon host the
#: benchmark was tuned on (fastest of about 1000 probes); costs are reported
#: for a core of that speed
PROBE_REF_S = 0.0024

#: the package modules whose calls the traced run records
LAYERS = ("core", "spectra", "rado", "balance", "nearness", "orthogonal")

#: span names reported as per-layer metrics, in every traced run whichever
#: workload it ran (0 where the workload never makes the call); the spans
#: file holds every span, these included
TRACED_CALLS = (
    "core.parse_scalar", "core.parse_matrix", "core.classify", "core.column_stats",
    "core.uniform_matrix", "core.frobenius_distance_sq", "core.format_matrix",
    "spectra.charpoly", "spectra.cospectral", "spectra.nullspace",
    "spectra.similar_to_unit_sums", "spectra.poly_from_spectrum", "spectra.companion",
    "spectra.charpoly_float",
    "rado.RadoUpdate", "rado.rado_update", "rado.shift",
    "balance.epsilon_threshold", "balance.balance", "balance.balance_minimal",
    "balance.balance_nr", "balance.normalize_to_stochastic",
    "nearness.ds_condition", "nearness.cospectral_ds", "nearness.nearest_ds",
    "nearness.nearest_ds_distance_sq",
    "orthogonal.realize_cospectral", "orthogonal.realize_nonneg",
    "orthogonal.canonical_basis", "orthogonal.random_basis", "orthogonal.embed",
    "orthogonal.extract",
    "cli.process", "cli.run",
)

#: per-layer counters and their units; a workload that never sets one reports 0
COUNTERS = {
    "spectra.den_bits_max": "bits",
    "nearness.den_bits_max": "bits",
    "orthogonal.k_max": "1",
    "orthogonal.sum_err_max": "1",
    "orthogonal.min_entry": "1",
    "orthogonal.eig_err_max": "1",
    "orthogonal.coeff_residual_max": "1",
    "cli.exit_mismatch": "count/pass",
}


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout(f"call exceeded {CALL_LIMIT_S} s")


def limited(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def untraced(name, fn, *args):
    return limited(fn, *args)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    #: per input, the median over its passes of its contention-adjusted time
    cost: list = field(default_factory=list)
    #: the probe's fastest time in this phase, in seconds
    probe_s: float = 0.0
    busy: float = 0.0
    passes: int = 0
    failed: int = 0
    unexpected: int = 0
    reasons: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    digest: str = ""


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction arithmetic."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return perf_counter() - t0


def costs(latencies, probes, n_inputs: int) -> list[float]:
    """Per input, the median over its passes of its wall time scaled by
    PROBE_REF_S over the mean of the probes around it.  The i-th latency is
    that of input i % n_inputs, timed between probes i and i + 1."""
    adjusted: list = [[] for _ in range(n_inputs)]
    for i, elapsed in enumerate(latencies):
        adjusted[i % n_inputs].append(elapsed * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]))
    return [statistics.median(times) for times in adjusted]


def measure(workload, inputs, seconds: float, deadline: float, tracer=None) -> Phase:
    phase = Phase()
    if tracer:
        call = tracer.wrap(limited)

        def run_task(inp):
            name = f"task.{workload.name}"
            return tracer.task(len(phase.latencies), name, workload.task, inp, call)
    else:
        def run_task(inp):
            return workload.task(inp, untraced)

    first: list = [None] * len(inputs)
    probes = [probe()]
    while phase.passes < 2 or (phase.busy < seconds and perf_counter() < deadline):
        for k, inp in enumerate(inputs):
            if phase.passes and perf_counter() >= deadline:
                break
            t0 = perf_counter()
            try:
                out, bad = run_task(inp), None
            except CallTimeout as exc:
                out, bad = None, [f"timeout: {exc}"]
            except Exception as exc:  # any library error here is a failure
                out, bad = None, [f"unexpected {type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - t0
            phase.busy += elapsed
            probes.append(probe())
            phase.latencies.append(elapsed)
            # checks run after the clock stopped; a repeat of an output that
            # was already checked inherits that verdict
            if bad is None:
                if first[k] is not None and first[k][0] == out:
                    bad = first[k][1]
                else:
                    bad = workload.check(inp, out)
            if first[k] is None:
                first[k] = (out, bad)
                if out is not None:
                    workload.observe(inp, out, phase.counters)
                # the kept outputs must not make later tasks' collections
                # slower: move everything alive out of the collector's reach
                gc.collect()
                gc.freeze()
            if bad:
                phase.failed += 1
                if not getattr(inp, "known_defect", ""):
                    phase.unexpected += 1
                for reason in bad:
                    phase.reasons[reason] = phase.reasons.get(reason, 0) + 1
            if tracer:
                workload.side(inp, tracer.leaf)
        phase.passes += 1
    phase.probe_s = min(probes)
    phase.cost = costs(phase.latencies, probes, len(inputs))
    digest = hashlib.sha256()
    for inp, (out, _) in zip(inputs, first):
        digest.update(
            (workload.render(inp, out) if out is not None else "<failed>").encode() + b"\0"
        )
    phase.digest = digest.hexdigest()
    return phase


def per_layer(tracer, phase: Phase, untraced_phase: Phase) -> dict:
    seconds, calls = tracer.self_times()
    metrics = {}
    for name in TRACED_CALLS:
        metrics[f"{name}_s"] = (seconds.get(name, 0.0) / phase.passes, "s/pass")
        metrics[f"{name}_calls"] = (calls.get(name, 0), "count")
    metrics["cli.startup_s"] = (
        metrics["cli.process_s"][0] - metrics["cli.run_s"][0],
        "s/pass",
    )
    for name, unit in COUNTERS.items():
        metrics[name] = (phase.counters.get(name, 0), unit)
    # rates at each input's cost, as tasks_per_s is measured
    metrics["trace.overhead_frac"] = (1 - sum(untraced_phase.cost) / sum(phase.cost), "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench/out")
    parser.add_argument("--setup-only", action="store_true")
    ns = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    import tasks  # imports dstoch: part of the set-up being timed

    workload = tasks.WORKLOADS[ns.workload]()
    out_dir = Path(ns.out)
    workdir = out_dir / f"{ns.workload}-{ns.seed}-inputs"
    try:
        inputs = workload.inputs(ns.seed, workdir)
        if ns.setup_only:
            print("ready", flush=True)
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        seconds = ns.seconds / 2 if ns.trace else ns.seconds
        main_phase = measure(workload, inputs, seconds, deadline)
        result = {
            "phase": main_phase.__dict__,
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_CHILDREN if ns.workload == "cli_mix" else resource.RUSAGE_SELF
            ).ru_maxrss,
        }
        if ns.trace:
            from spans import Tracer, instrument

            tracer = Tracer()
            with instrument(tracer, "dstoch", LAYERS):
                traced = measure(workload, inputs, seconds, deadline, tracer)
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(out_dir / f"spans-{ns.workload}-{ns.seed}.jsonl")
            result["traced"] = traced.__dict__
            result["per_layer"] = per_layer(tracer, traced, main_phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
