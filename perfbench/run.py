#!/usr/bin/env python3
"""Benchmark harness for sampdisc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scaling-p2 --seed 1 --seconds 38 --trace 0

It imports sampdisc from ``src/`` of that checkout, builds the workload's
inputs from ``--seed``, runs passes of the workload for about
``--seconds`` seconds (at least two), checks every output, and prints a
JSON object as its last line of standard output:

    {"correct": ..., "attempted": <checks made>, "failed": <checks failed>,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

``--trace 0`` reports the end-to-end metrics (run_s, op_ms.p50,
op_ms.p90, setup_s, peak_rss_mb). ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracing.py``, plus
the tracing overhead. The exit code is 0 when every check passed, 1 when
one failed, and 2 when sampdisc cannot be found. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy is imported: results are byte-identical
# only at a fixed thread count, and one thread is steadier on a shared host.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 21  # fresh interpreters timed per run; setup_s is their median
MIN_PASSES = 2
MIN_TRACED_PASSES = 5  # U T U T U: two traced/untraced pairs, two untraced passes after the first
PROBE_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 20


def load(name: str, seed: int):
    """Import sampdisc and build the workload's inputs; returns the elapsed time too."""
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of what a user waits for)
    import sampdisc
    import sampdisc.cli  # noqa: F401

    import workloads

    if Path(sampdisc.__file__).resolve().parent != SRC / "sampdisc":
        raise ImportError(f"sampdisc imported from {sampdisc.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]
    state = workload.setup(sampdisc, seed)
    return sampdisc, workload, state, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Time import plus input generation in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def git_sha() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {"blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "numpy": numpy.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def timer(sink: list):
    def timed(fn):
        start = time.perf_counter()
        result = fn()
        sink.append(time.perf_counter() - start)
        return result
    return timed


def run_passes(sd, workload, state, checks, seconds, plan, min_passes=MIN_PASSES,
               between=lambda fraction: None):
    """Run passes until the next one would end after ``seconds``.

    ``plan(i)`` returns the Tracer that pass i runs under, or None. Pass
    1's outputs are checked; every later pass must reproduce them byte for
    byte. ``between(fraction)`` runs before each pass and once after the
    last, with the share of ``seconds`` used so far (1.0 after the last);
    its time counts towards ``seconds``. Returns one (seconds, op times,
    tracer) tuple per pass.
    """
    passes = []
    first = None
    start = time.perf_counter()
    while True:
        between((time.perf_counter() - start) / seconds)
        tracer = plan(len(passes))
        ops: list[float] = []
        try:
            t0 = time.perf_counter()
            with tracer or contextlib.nullcontext():
                payload, result = workload.run_pass(sd, state, timer(ops))
            passes.append((time.perf_counter() - t0, ops, tracer))
            if first is None:
                first = payload
                workload.check(sd, state, result, checks)
            else:
                checks.add(payload == first, f"pass {len(passes)} output differs from pass 1")
        except Exception as exc:  # counted as a failed check; the run's outputs are wrong
            traceback.print_exc(file=sys.stderr)
            checks.add(False, f"pass {len(passes) + 1} raised {exc!r}")
            break
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            break
    between(1.0)
    return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds, checks):
    # The setup probes are spread over the run, between passes, so that
    # setup_s samples the host over the whole run rather than one moment.
    setup = []

    def probe(fraction):
        while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * fraction)):
            setup.append(probe_setup(name, seed))

    sd, workload, state, _ = load(name, seed)
    passes = run_passes(sd, workload, state, checks, seconds, lambda i: None, between=probe)
    times = [p[0] for p in passes] or [0.0]
    ops = [t for p in passes for t in p[1]] or [0.0, 0.0]
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
    print(f"{name}: {len(passes)} passes, {len(ops)} timed ops "
          f"({len(ops) // max(len(passes), 1)} a pass), {SETUP_PROBES} setup probes")
    print(f"pass s: {[round(t, 4) for t in times]}; setup s: {[round(t, 4) for t in setup]}")
    return {
        "run_s": metric(statistics.median(times), "s"),
        "op_ms.p50": metric(statistics.median(ops) * 1e3, "ms"),
        "op_ms.p90": metric(p90 * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def op_ratios(passes, i, j):
    """Per-op time ratios of pass i over pass j (the same ops in the same order)."""
    return [a / b for a, b in zip(passes[i][1], passes[j][1]) if b > 0]


def per_layer(name, seed, seconds, checks):
    import tracing

    sd, workload, state, _ = load(name, seed)
    passes = run_passes(sd, workload, state, checks, seconds,
                        lambda i: tracing.Tracer() if i % 2 else None, min_passes=MIN_TRACED_PASSES)
    traced = [p for p in passes if p[2] is not None]
    snaps = [p[2].snapshot() for p in traced] or [tracing.Tracer().snapshot()]
    missing = sorted(set().union(*(p[2].missing for p in traced)))
    out = {}
    for key, unit in tracing.metric_units().items():
        values = [s[key] for s in snaps]
        if unit == "count" and len(set(values)) > 1:
            print(f"note: {key} differs between traced passes: {values}")
        out[key] = metric(statistics.median(values) if unit == "s" else values[0], unit)
    # Each traced pass (odd index) is paired with the untraced pass right
    # after it, op by op, so that the host's slow drift cancels in each
    # ratio. The first pass pays the one-time costs and is never a partner.
    # The untraced passes after the first differ among themselves by the
    # host's noise alone; an overhead inside that range is not resolved.
    ratios = [r for i in range(1, len(passes) - 1, 2) for r in op_ratios(passes, i, i + 1)]
    overhead = statistics.median(ratios) if ratios else 0.0
    untraced = [p[0] for p in passes[2::2]]
    noise = (max(untraced) - min(untraced)) / statistics.median(untraced) if len(untraced) > 1 else math.inf
    out["trace.overhead"] = metric(overhead, "ratio")
    print(f"{name}: {len(passes) - len(traced)} untraced and {len(traced)} traced passes; "
          f"traced / untraced op time = {overhead:.4f}, median of {len(ratios)} paired ops")
    verdict = "resolved" if abs(overhead - 1) > noise else "not resolved: within the noise"
    print(f"untraced passes after the first differ by {noise:.4f} of their median "
          f"({len(untraced)} passes); the overhead is {verdict}")
    if traced:
        print("bindings wrapped: " + ", ".join(f"{k}={v}" for k, v in sorted(traced[0][2].sites.items())))
    for line in missing:
        print(f"missing: {line}")
        print(f"missing: {line}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance seed, 1)")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sampdisc" / "__init__.py").is_file():
        print(f"error: no sampdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:  # the parent passes a checked name and seed
        print(json.dumps({"setup_s": load(args.workload, args.seed)[3]}))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    checks = workloads.Checks()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, seed, args.seconds, checks)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"checks: {checks.made} made, {len(checks.failures)} failed")
    for failure in checks.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED: {failure}")
        print(f"FAILED: {failure}", file=sys.stderr)
    if len(checks.failures) > MAX_FAILURES_SHOWN:
        print(f"... and {len(checks.failures) - MAX_FAILURES_SHOWN} more failed checks")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.made,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
