"""Tests for the shared solvers: the stacked step halving of extremize_ratio
and the finite-p residual solver."""

import math

import numpy as np
import pytest

from sampdisc import _optim, generate_points, make_lacunary_space, make_trig_space, norms, tolerances


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
    ref_ratio, ref_c, ref_report = sequential_extremize_ratio(*args, **kw)
    # a denominator exponent equal to p must not move a bit either
    for extra in ({}, {"den_p": args[4]}):
        ratio, c, report = _optim.extremize_ratio(*args, **kw, **extra)
        assert ratio == ref_ratio
        assert np.array_equal(c, ref_c)
        assert {k: v for k, v in report.items() if k != "evaluations"} == \
            {k: v for k, v in ref_report.items() if k != "evaluations"}


@pytest.mark.parametrize("p,q", [(64.0, 3.0), (64.0, 1.5), (4.0, 2.0), (3.0, 5.0)])
def test_denominator_exponent_ratio_is_recomputable(p, q):
    # the returned ratio is sum w |A c|^p / (sum gamma |B c|^q)^(p/q) at the
    # returned c, recomputed here without the optimizer's helpers, and it is
    # at least as extreme as that ratio over 4,000 random directions
    space = make_trig_space(1, [[0], [1], [3]])
    sample = generate_points(space, "iid", 9, seed=31)
    A = space.basis_values(sample.points)
    w = np.full(9, 1.0 / 9)
    B, gamma = norms.power_rule(space, q)
    C = np.random.default_rng(5).standard_normal((4_000, 3, 2)) @ np.array([1.0, 1j])
    sampled = ((np.abs(C @ A.T) ** p) @ w) / ((np.abs(C @ B.T) ** q) @ gamma) ** (p / q)
    for maximize in (False, True):
        ratio, c, _ = _optim.extremize_ratio(A, w, B, gamma, p, restarts=8, maximize=maximize,
                                             den_p=q)
        num = sum(wj * abs(np.dot(row, c)) ** p for wj, row in zip(w, A))
        den = sum(gj * abs(np.dot(row, c)) ** q for gj, row in zip(gamma, B))
        assert ratio == pytest.approx(num / den ** (p / q), rel=1e-10)
        assert ratio >= sampled.max() if maximize else ratio <= sampled.min()


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


def svd_irls(U, y, w, p, c):
    """Frozen reference: the IRLS loop of lpw_recover before the solver was
    shared, one SVD least-squares solve of the reweighted problem per step.
    Returns the final ``sum w |y - U c|^p``."""

    def gradient(c):
        r = y - U @ c
        a = np.maximum(np.abs(r), 1e-300)
        return -p * (U.conj().T @ (w * a ** (p - 2.0) * r)), r

    def halving_step(c, obj, direction, t_min):
        t = 1.0
        while t > t_min:
            cand = c + t * direction
            r = y - U @ cand
            val = float(np.sum(w * np.abs(r) ** p))
            if val < obj - 1e-16:
                return cand, val, r
            t *= 0.5
        return None

    tol = tolerances.get("recovery_tol")
    g, r = gradient(c)
    scale = max(1.0, float(np.linalg.norm(g)))
    obj = float(np.sum(w * np.abs(r) ** p))
    for _ in range(300):
        if float(np.linalg.norm(g)) <= tol * scale:
            break
        a = np.maximum(np.abs(r), 1e-12)
        omega = np.maximum(w * a ** (p - 2.0), 1e-12)
        c_prop, _ = _optim.weighted_lstsq(U, y, omega)
        moved = (halving_step(c, obj, c_prop - c, 1e-14)
                 or halving_step(c, obj, -g, 1e-16))
        if moved is None:
            break
        c, obj, r = moved
        g, r = gradient(c)
    return obj


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("degree,mode,m", [(3, "iid", 30), (8, "iid", 20), (8, "iid", 120),
                                           (8, "leverage", 60), (3, "iid", 5), (8, "iid", 12)])
def test_residual_solver_reaches_svd_irls_minimum(degree, mode, m, p):
    # the QR-coordinate steps may not end above the per-step SVD loop's sum;
    # m = 5 and m = 12 are below the dimensions 7 and 17
    space = make_trig_space(1, [[k] for k in range(-degree, degree + 1)])
    sample = generate_points(space, mode, m, seed=(degree, m))
    w = getattr(sample, "weights", np.full(m, 1.0 / m))
    U = space.basis_values(sample.points)
    y = np.maximum(np.cos(sample.points[:, 0]), 0.0) ** 2
    c0, _ = _optim.weighted_lstsq(U, y, w)
    _, total, _ = _optim.minimize_residual(U, y, w, p, c0)
    ref = svd_irls(U, y, w, p, c0)
    assert total <= ref * (1 + 1e-8) + 1e-14
