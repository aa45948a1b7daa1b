"""Tests for the shared solvers: the stacked step halving of extremize_ratio."""

import math

import numpy as np
import pytest

from sampdisc import _optim, generate_points, make_lacunary_space, make_trig_space, norms


def sequential_extremize_ratio(num_mat, num_w, den_mat, den_w, p, restarts=64, iters=150,
                               maximize=False, seed=(0xD15C, 0), extra_starts=None):
    """Frozen reference: one objective call per step halving.

    This is extremize_ratio as it was before halvings were stacked, plus an
    ``evaluations`` count; the stacked loop must reproduce it bit for bit.
    """
    n = num_mat.shape[1]
    rng = np.random.default_rng(seed)
    starts = list(extra_starts) if extra_starts is not None else []
    k = max(restarts, 1)
    rand = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    C = np.vstack([np.asarray(starts, dtype=complex).reshape(-1, n), rand]) if starts else rand
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    sign = -1.0 if maximize else 1.0
    num_w = np.asarray(num_w, dtype=float)
    den_w = np.asarray(den_w, dtype=float)

    def objective(Cb):
        Yn = Cb @ num_mat.T
        Yd = Cb @ den_mat.T
        Sn = (np.abs(Yn) ** p) @ num_w
        Sd = (np.abs(Yd) ** p) @ den_w
        F = sign * (np.log(np.maximum(Sn, 1e-300)) - np.log(np.maximum(Sd, 1e-300)))
        return F, Yn, Yd, Sn, Sd

    def grad(mat, w, Y):
        a = np.maximum(np.abs(Y), 1e-300)
        return p * ((w * a ** (p - 2.0) * Y) @ np.conj(mat))

    F, Yn, Yd, Sn, Sd = objective(C)
    evaluations = 1
    step = np.full(C.shape[0], 0.25)
    active = np.ones(C.shape[0], dtype=bool)
    it = 0
    for it in range(iters):
        if not np.any(active):
            break
        Gn = grad(num_mat, num_w, Yn)
        Gd = grad(den_mat, den_w, Yd)
        G = sign * (Gn / np.maximum(Sn, 1e-300)[:, None] - Gd / np.maximum(Sd, 1e-300)[:, None])
        moved = np.zeros(C.shape[0], dtype=bool)
        for _ in range(25):
            trial = np.where(active & ~moved)[0]
            if trial.size == 0:
                break
            cand = C[trial] - step[trial, None] * G[trial]
            cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
            Fc, Ync, Ydc, Snc, Sdc = objective(cand)
            evaluations += 1
            better = Fc < F[trial] - 1e-15
            idx = trial[better]
            C[idx] = cand[better]
            F[idx] = Fc[better]
            Yn[idx] = Ync[better]
            Yd[idx] = Ydc[better]
            Sn[idx] = Snc[better]
            Sd[idx] = Sdc[better]
            step[idx] = np.minimum(step[idx] * 1.5, 1.0)
            moved[idx] = True
            step[trial[~better]] *= 0.5
        active &= moved | (step > 1e-13)
    ratios = Sn / np.maximum(Sd, 1e-300)
    best = int(np.argmax(ratios)) if maximize else int(np.argmin(ratios))
    report = {"iterations": it + 1, "restarts": int(C.shape[0]), "evaluations": evaluations}
    return float(ratios[best]), C[best], report


def _even_p_setup(space, m, p, seed):
    # the inputs of discretization._heuristic_p_certificate
    sample = generate_points(space, "iid", m, seed=seed)
    U = space.basis_values(sample.points)
    V, gamma = norms.power_rule(space, p)
    _, _, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), vt[0].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    return (U, np.full(m, 1.0 / m), V, gamma, p), {"extra_starts": extras}


def _sup_setup(space, m, seed):
    # the inputs of discretization._sup_certificate
    sample = generate_points(space, "iid", m, seed=seed)
    U = space.basis_values(sample.points)
    V = space.basis_values(space.grid([max(96 * deg, 96) for deg in space.degrees]))
    _, _, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    args = (U, np.full(m, 1.0 / m), V, np.full(V.shape[0], 1.0 / V.shape[0]), 64.0)
    return args, {"extra_starts": extras, "seed": (0xC3, 0)}


def _case(name):
    lacunary = make_lacunary_space(4, 2.0)
    three = make_trig_space(1, [[0], [1], [3]])
    if name == "lacunary-min":
        args, kw = _even_p_setup(lacunary, 4, 4, seed=7)
        return args, dict(kw, seed=(0xC1, 0))
    if name == "p3":
        args, kw = _even_p_setup(three, 9, 3, seed=22)
        return args, dict(kw, restarts=32, seed=(0xC1, 0))
    if name == "sup":
        return _sup_setup(three, 7, seed=5)
    if name == "lacunary-max":
        args, kw = _even_p_setup(lacunary, 12, 4, seed=0)
        return args, dict(kw, maximize=True, seed=(0xC2, 0))
    raise KeyError(name)


CASES = ("lacunary-min", "p3", "sup", "lacunary-max")


@pytest.mark.parametrize("name", CASES)
def test_stacked_halving_matches_sequential_loop(name):
    args, kw = _case(name)
    ratio, c, report = _optim.extremize_ratio(*args, **kw)
    ref_ratio, ref_c, ref_report = sequential_extremize_ratio(*args, **kw)
    assert ratio == ref_ratio
    assert np.array_equal(c, ref_c)
    assert {k: v for k, v in report.items() if k != "evaluations"} == \
        {k: v for k, v in ref_report.items() if k != "evaluations"}


@pytest.mark.parametrize("name", CASES)
def test_stacked_calls_stay_within_restart_count(name, monkeypatch):
    rows = []
    power_sum = _optim._power_sum

    def recording(Y, w, p):
        rows.append(Y.size // Y.shape[-1])
        return power_sum(Y, w, p)

    monkeypatch.setattr(_optim, "_power_sum", recording)
    args, kw = _case(name)
    _, _, report = _optim.extremize_ratio(*args, **kw)
    assert max(rows) <= report["restarts"]
    assert len(rows) == 2 * report["evaluations"]


def test_stacked_halving_saves_evaluations_on_lacunary_case():
    args, kw = _case("lacunary-min")
    _, _, report = _optim.extremize_ratio(*args, **kw)
    _, _, ref_report = sequential_extremize_ratio(*args, **kw)
    assert report["iterations"] == ref_report["iterations"]
    assert report["restarts"] == ref_report["restarts"]
    assert report["evaluations"] < ref_report["evaluations"]
