"""The three benchmark workloads: inputs from a seed, one pass, and its checks.

Each workload is a ``Workload`` with three steps:

- ``setup(sd, seed)`` builds every input from the seed (nothing is drawn
  later, so two passes see the same inputs);
- ``run_pass(sd, state, timed)`` runs one pass through sampdisc's public
  API, timing each op through ``timed(fn)``, and returns
  ``(payload, result)``: ``payload`` is a string holding every output
  digit, compared byte for byte between passes, and ``result`` is what
  ``check`` inspects;
- ``check(sd, state, result, checks)`` records one entry per correctness
  check in ``checks``.

``sd`` is the imported ``sampdisc`` package. Workload code reaches every
function through a module attribute (``sd.cli.run_experiment``), never
through a name bound at import time, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = range(20)  # the seeds whose study results reference.json holds
DEFAULT_SEED = 1  # the acceptance gate's seed


class Checks:
    """Correctness checks made in one run; ``failures`` keeps the messages."""

    def __init__(self):
        self.made = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.failures.append(what)

    def close(self, a: float, b: float, rel: float, what: str) -> None:
        self.add(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300), f"{what}: {a!r} != {b!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    check: object


def _reference(name: str, seed: int, checks: Checks):
    """The stored m* and curve of ``name`` at ``seed``, or None for a seed
    outside REFERENCE_SEEDS. A reference that cannot be read, or lacks the
    workload or a seed of REFERENCE_SEEDS, is a failed check."""
    try:
        ref = json.loads(REFERENCE_PATH.read_text())[name].get(str(seed))
    except (OSError, KeyError, ValueError, AttributeError) as exc:
        checks.add(False, f"{name}: cannot read its entry in {REFERENCE_PATH.name}: {exc!r}")
        return None
    checks.add(ref is not None or seed not in REFERENCE_SEEDS,
               f"{name}: seed {seed} is missing from {REFERENCE_PATH.name}")
    return ref


# ---------------------------------------------------------------------------
# the two acceptance studies

# The acceptance gate's scaling config, unchanged apart from the seed.
SCALING_CONFIG = {
    "kind": "study-scaling", "Ns": [5, 9, 17, 33], "p": 2, "eps": 0.5,
    "trials": 50, "success_threshold": 0.9, "seed": 1, "m_max_factor": 20,
}

# The acceptance gate's lacunary config with n = 5 dropped and 2 trials
# instead of 20: the full config takes about 95 s a pass, far too long to
# repeat within one run. n = 4 still probes m_max = 1728 numerator rows.
LACUNARY_CONFIG = {
    "kind": "study-lacunary", "ns": [2, 3, 4], "ratio": 2, "p": 4,
    "eps": 0.5, "trials": 2, "success_threshold": 0.9, "seed": 1,
    "m_max_factor": 4, "budget": 16,
}

CURVE_COLUMNS = ("m", "trials", "successes", "c1_min", "c2_max")


def _study_setup(base):
    def setup(sd, seed):
        return dict(base, seed=int(seed))
    return setup


def _study_pass(sd, config, timed):
    # a fresh copy per pass: run_experiment keeps a reference to the dict
    report = timed(lambda: sd.cli.run_experiment(sd.cli.ExperimentConfig(json.loads(json.dumps(config)))))
    payload = report.series_csv() + json.dumps(report.summary, sort_keys=True) + "\n"
    return payload, report


def study_curve(report) -> dict:
    """``{size: [[m, trials, successes, c1_min, c2_max], ...]}`` from a study report."""
    label = report.series_columns[0]
    curve: dict[int, list] = {}
    for row in report.series:
        curve.setdefault(int(row[label]), []).append([row[c] for c in CURVE_COLUMNS])
    return curve


def _check_study(config, report, checks, name):
    sizes = config.get("Ns") or config.get("ns")
    m_stars = report.summary.get("m_stars", [])
    checks.add(len(m_stars) == len(sizes), f"{name}: {len(m_stars)} m* for {len(sizes)} sizes")
    curve = study_curve(report)
    threshold = config["success_threshold"] * config["trials"]
    for size, m_star in zip(sizes, m_stars):
        # the bisection's answer must agree with its own probes: m* clears
        # the threshold and m* - 1 does not, unless m* is the dimension
        # (both studies' sizes are their spaces' dimensions)
        rows = {r[0]: r for r in curve.get(size, [])}
        at = rows.get(m_star)
        ok = at is not None and m_star >= size and at[2] >= threshold
        if ok and m_star > size:
            below = rows.get(m_star - 1)
            ok = below is not None and below[2] < threshold
        checks.add(ok, f"{name}: size {size} m*={m_star} disagrees with its probed curve")

    ref = _reference(name, config["seed"], checks)
    if ref is None:
        return
    checks.add(m_stars == ref["m_stars"], f"{name}: m* {m_stars} != reference {ref['m_stars']}")
    for size in sizes:
        got, want = curve.get(size, []), ref["curve"][str(size)]
        checks.add([r[:3] for r in got] == [r[:3] for r in want],
                   f"{name}: size {size} probed (m, trials, successes) differ from the reference")
        for g, w in zip(got, want):
            checks.close(g[3], w[3], 1e-9, f"{name}: size {size} m={g[0]} c1_min")
            checks.close(g[4], w[4], 1e-9, f"{name}: size {size} m={g[0]} c2_max")


def _check_scaling(sd, config, report, checks):
    _check_study(config, report, checks, "scaling-p2")
    # independent recheck of the rows at m* and m* - 1: draw each trial's
    # nodes from its documented stream (seed, N) -> (m, trial) and take
    # the frame-matrix eigenvalues directly with numpy
    eps, trials = config["eps"], config["trials"]
    curve = study_curve(report)
    for n, m_star in zip(config["Ns"], report.summary.get("m_stars", [])):
        deg = (n - 1) // 2
        space = sd.make_trig_space(1, [[k] for k in range(-deg, deg + 1)])
        freqs = np.arange(-deg, deg + 1, dtype=float)
        rows = {r[0]: r for r in curve.get(n, [])}
        for m in (m_star, m_star - 1):
            if m not in rows:
                continue
            c1s, c2s, wins = [], [], 0
            for t in range(trials):
                pts = sd.discretization.generate_points(space, "iid", m, seed=((config["seed"], n), m, t))
                U = np.exp(1j * np.outer(np.asarray(pts.points)[:, 0], freqs))
                lam = np.linalg.eigvalsh(U.conj().T @ U / m)
                c1, c2 = max(float(lam[0]), 0.0), float(lam[-1])
                c1s.append(c1)
                c2s.append(c2)
                wins += c1 >= 1.0 - eps and c2 <= 1.0 + eps
            row = rows[m]
            checks.add(row[2] == wins, f"scaling-p2: N={n} m={m} successes {row[2]} != recomputed {wins}")
            checks.close(row[3], min(c1s), 1e-9, f"scaling-p2: N={n} m={m} recomputed c1_min")
            checks.close(row[4], max(c2s), 1e-9, f"scaling-p2: N={n} m={m} recomputed c2_max")


def _check_lacunary(sd, config, report, checks):
    _check_study(config, report, checks, "lacunary-p4")


# ---------------------------------------------------------------------------
# recovery ops: recovery and best approximation on the degree-8 space

RECOVER_DEGREE = 8
RECOVER_EQUISPACED = 33
RECOVER_RANDOM = 120
RECOVER_PREDICT = 256

# Periodic targets from analytic to merely C^1, fixed across seeds: the
# seed draws the leverage and iid nodes. Kinked targets such as |x - pi|
# are left out on purpose: one took 2.5 to 8.9 s, depending on where the
# kink sat, against about 0.2 s for a smooth target, so it alone would
# set the pass time.
RECOVER_TARGETS = (
    ("exp(cos x)", lambda x: np.exp(np.cos(x))),
    ("|sin x|^1.5", lambda x: np.abs(np.sin(x)) ** 1.5),
    ("1/(1.2 - cos x)", lambda x: 1.0 / (1.2 - np.cos(x))),
    ("cos 11x", lambda x: np.cos(11 * x)),
    ("tanh(4 sin x)", lambda x: np.tanh(4 * np.sin(x))),
    ("|sin x|^3", lambda x: np.abs(np.sin(x)) ** 3),
    ("exp(sin 2x) + 0.3 cos 9x", lambda x: np.exp(np.sin(2 * x)) + 0.3 * np.cos(9 * x)),
    ("sqrt(1.05 - cos x)", lambda x: np.sqrt(1.05 - np.cos(x))),
    ("1/(1 + 25 sin^2(x/2))", lambda x: 1.0 / (1.0 + 25.0 * np.sin(x / 2) ** 2)),
    ("max(cos x, 0)^2", lambda x: np.maximum(np.cos(x), 0.0) ** 2),
    ("cos(x)^9 + i sin 3x", lambda x: np.cos(x) ** 9 + 1j * np.sin(3 * x)),
    ("log(2.5 + sin x + cos 3x)", lambda x: np.log(2.5 + np.sin(x) + np.cos(3 * x))),
    ("exp(-4 sin^2 x)", lambda x: np.exp(-4.0 * np.sin(x) ** 2)),
)


def _recover_setup(sd, seed):
    rng = np.random.default_rng((seed, 3))
    space = sd.make_trig_space(1, [[k] for k in range(-RECOVER_DEGREE, RECOVER_DEGREE + 1)])
    gen = sd.discretization.generate_points
    equi = gen(space, "equispaced", RECOVER_EQUISPACED)
    lev = gen(space, "leverage", RECOVER_RANDOM, seed=(seed, 1))
    iid = gen(space, "iid", RECOVER_RANDOM, seed=(seed, 2))
    x_iid = np.asarray(iid.points)[:, 0]
    x_test = np.sort(rng.uniform(0.0, 2 * np.pi, RECOVER_PREDICT))
    targets = [(name, f, f(x_iid)) for name, f in RECOVER_TARGETS]
    return {"space": space, "equi": equi, "lev": lev, "iid": iid, "x_iid": x_iid,
            "x_test": x_test, "targets": targets,
            "uniform": np.full(RECOVER_RANDOM, 1.0 / RECOVER_RANDOM)}


def _recover_pass(sd, st, timed):
    rec, norms = sd.recovery, sd.norms
    space = st["space"]
    out = []
    for name, f, y in st["targets"]:
        row = {"target": name}
        for key, sample, p in (("equi_p2", st["equi"], 2), ("lev_p2", st["lev"], 2),
                               ("equi_p4", st["equi"], 4)):
            r = timed(lambda: rec.verify_recovery(f, space, sample, p))
            row[key] = [r.lhs, r.rhs, r.holds]
        for p in (1.5, 3):
            pred = timed(lambda: rec.LpwRegressor(space, p).fit(st["x_iid"], y).predict(st["x_test"]))
            row[f"regressor_p{p}"] = [float(np.sum(np.abs(pred))), bool(np.all(np.isfinite(pred)))]
        res = timed(lambda: rec.lpw_recover(norms.SampleVector(y, st["iid"]), space, math.inf, st["uniform"]))
        row["lpw_inf"] = res.discrete_residual
        for p in (1.5, 3):
            _, dist = timed(lambda: norms.best_approx(f, space, p))
            row[f"best_p{p}"] = dist
        out.append(row)
    return repr(out), out


def _check_recover(sd, st, rows, checks):
    for row in rows:
        t = row["target"]
        for key in ("equi_p2", "lev_p2", "equi_p4"):
            lhs, rhs, holds = row[key]
            checks.add(holds and math.isfinite(lhs) and math.isfinite(rhs),
                       f"recovery: {t} {key} bound fails: lhs={lhs!r} rhs={rhs!r}")
        for key in ("regressor_p1.5", "regressor_p3"):
            total, finite = row[key]
            checks.add(finite and math.isfinite(total), f"recovery: {t} {key} non-finite prediction")
        for key in ("lpw_inf", "best_p1.5", "best_p3"):
            checks.add(math.isfinite(row[key]) and row[key] >= 0, f"recovery: {t} {key}={row[key]!r}")


# ---------------------------------------------------------------------------
# crosscheck ops: certify against the enumeration oracle on small spaces

CROSS_INSTANCES = 28


def _crosscheck_setup(sd, seed):
    # The spaces and sample sizes come from the acceptance gate's
    # criterion-4 generator at its own seed, 2024, and the seed draws the
    # nodes. In a trial with 40 instances, drawing the spaces from the
    # seed too spread op_ms.p90 over eight seeds by 18 % of its median
    # instead of 12 %, because an op's cost follows the space's degree and
    # m. Every instance checks p = 2; the slower ops rotate over fixed
    # positions: p = 4 on two in four instances, the sup-norm certificate
    # on one in four, the Nikolskii search on one in four, N = 3 on one in
    # ten, and p = 3, whose oracle takes over a second, on the first
    # instance only.
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(CROSS_INSTANCES):
        n = 3 if i % 10 == 9 else 2
        freqs = sorted(rng.choice(np.arange(-4, 5), size=n, replace=False).tolist())
        space = sd.make_trig_space(1, [[int(k)] for k in freqs])
        m = int(rng.integers(n + 2, 13))
        pts = sd.discretization.generate_points(space, "iid", m, seed=(seed, 500, i))
        ps = (2,) + ((3,) if i == 0 else ()) + ((4,) if i % 4 in (0, 3) else ())
        instances.append({"freqs": freqs, "space": space, "points": pts, "ps": ps,
                          "sup": i % 4 == 1, "nikolskii": i % 4 == 2})
    return instances


def _crosscheck_pass(sd, instances, timed):
    disc, norms = sd.discretization, sd.norms
    out = []
    for inst in instances:
        space, pts = inst["space"], inst["points"]
        row = {"freqs": inst["freqs"], "m": pts.m}
        for p in inst["ps"]:
            cert = timed(lambda: disc.certify(space, pts, p))
            oracle = timed(lambda: disc.brute_force_certificate(space, pts, p))
            row[f"p{p}"] = [cert.c1_pow, cert.c2_pow, oracle.c1_pow, oracle.c2_pow, oracle.tolerance]
        if inst["sup"]:
            row["pinf"] = timed(lambda: disc.certify(space, pts, math.inf)).c1_pow
        if inst["nikolskii"]:
            for q in (3, 4):
                row[f"nik_q{q}"] = timed(lambda: norms.nikolskii_constant(space, q)).M
        out.append(row)
    return repr(out), out


def _check_crosscheck(sd, instances, rows, checks):
    for row in rows:
        for key in ("p2", "p3", "p4"):
            if key not in row:
                continue
            c1, c2, o1, o2, tol = row[key]
            checks.add(abs(c1 - o1) <= tol and abs(c2 - o2) <= tol,
                       f"crosscheck: freqs {row['freqs']} m={row['m']} {key}: "
                       f"certify ({c1!r}, {c2!r}) vs oracle ({o1!r}, {o2!r}) tol {tol!r}")
        if "pinf" in row:
            checks.add(0.0 <= row["pinf"] <= 1.0, f"crosscheck: freqs {row['freqs']} p=inf c1={row['pinf']!r}")
        for q in (3, 4):
            if f"nik_q{q}" in row:
                # sup |f| >= ||f||_q for the probability measure, and
                # ||f||_2 <= ||f||_q caps M by the q = 2 value sqrt(N)
                M = row[f"nik_q{q}"]
                checks.add(1.0 - 1e-9 <= M <= math.sqrt(len(row["freqs"])) + 1e-9,
                           f"crosscheck: freqs {row['freqs']} nikolskii q={q} M={M!r}")


# ---------------------------------------------------------------------------
# recover-crosscheck: both op mixes in one pass. Two workloads of about
# 2.7 s and 4.9 s a pass ran 25 s each before; one workload with 38 s
# runs has fewer, longer runs to spread the host's noise over.


def _ops_setup(sd, seed):
    return _recover_setup(sd, seed), _crosscheck_setup(sd, seed)


def _ops_pass(sd, state, timed):
    recover_payload, recover_rows = _recover_pass(sd, state[0], timed)
    cross_payload, cross_rows = _crosscheck_pass(sd, state[1], timed)
    return recover_payload + "\n" + cross_payload, (recover_rows, cross_rows)


def _check_ops(sd, state, result, checks):
    _check_recover(sd, state[0], result[0], checks)
    _check_crosscheck(sd, state[1], result[1], checks)


WORKLOADS = {
    w.name: w for w in (
        Workload("scaling-p2", _study_setup(SCALING_CONFIG), _study_pass, _check_scaling),
        Workload("lacunary-p4", _study_setup(LACUNARY_CONFIG), _study_pass, _check_lacunary),
        Workload("recover-crosscheck", _ops_setup, _ops_pass, _check_ops),
    )
}
