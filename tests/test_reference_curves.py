"""The benchmark's cut lacunary study against its stored reference curves.

``perfbench/reference.json`` holds m* and the probed curve of the
``lacunary-p4`` workload (the acceptance lacunary config cut to n <= 4,
2 trials and budget 16) at seeds 0 to 19. Two seeds are rerun here: the
acceptance seed 1, and seed 13, whose c1_min of 1.6e-15 at one probe keeps
its digits only while every constant is the ratio recomputed at the
element found. m* and each probe's (m, trials, successes) must match
exactly, c1_min and c2_max to 1e-9 relative, as the benchmark checks them.
"""

import json
from pathlib import Path

import pytest

from sampdisc import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

LACUNARY_CUT = {"kind": "study-lacunary", "ns": [2, 3, 4], "ratio": 2, "p": 4, "eps": 0.5, "trials": 2,
                "success_threshold": 0.9, "m_max_factor": 4, "budget": 16}


@pytest.mark.parametrize("seed", [1, 13])
def test_cut_lacunary_study_matches_the_reference(seed):
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        ref = json.load(fh)["lacunary-p4"][str(seed)]
    report = cli.run_experiment(cli.ExperimentConfig(dict(LACUNARY_CUT, seed=seed)))
    assert report.summary["m_stars"] == ref["m_stars"]
    for n in LACUNARY_CUT["ns"]:
        got = [[row[c] for c in ("m", "trials", "successes", "c1_min", "c2_max")]
               for row in report.series if row["n"] == n]
        want = ref["curve"][str(n)]
        assert [r[:3] for r in got] == [r[:3] for r in want]
        for g, w in zip(got, want):
            assert g[3] == pytest.approx(w[3], rel=1e-9, abs=0)
            assert g[4] == pytest.approx(w[4], rel=1e-9, abs=0)
