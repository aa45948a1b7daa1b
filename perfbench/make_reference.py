#!/usr/bin/env python3
"""Regenerate reference.json: the two studies' m* and probed curves per seed.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose results are trusted (the commit
that introduced the benchmark, whose studies the acceptance gate pins).
A later change must keep matching the stored values: run.py compares m*
exactly and every curve float within a relative 1e-9, for each seed of
``workloads.REFERENCE_SEEDS``. Other seeds get only the seed-independent
checks.
"""

from __future__ import annotations

import json
import sys

import run  # pins the BLAS threads before numpy is imported


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    out = {}
    for name in ("scaling-p2", "lacunary-p4"):
        out[name] = {}
        for seed in workloads.REFERENCE_SEEDS:
            sd, workload, config, _ = run.load(name, seed)
            _, report = workload.run_pass(sd, config, lambda fn: fn())
            curve = workloads.study_curve(report)
            out[name][str(seed)] = {"m_stars": report.summary["m_stars"],
                                    "curve": {str(k): v for k, v in curve.items()}}
            print(f"{name} seed {seed}: m* = {report.summary['m_stars']}", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
