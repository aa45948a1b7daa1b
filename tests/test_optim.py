"""Tests for the shared solvers: the stacked step halving, the stacked senses
and the sumset numerator of extremize_ratio, and the finite-p residual
solver."""

import math

import numpy as np
import pytest

from sampdisc import _optim, certify, generate_points, make_lacunary_space, make_trig_space, norms, tensor_product
from sampdisc.discretization import PointSet, _sumset_space


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
    # the inputs of discretization._heuristic_search
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
    V = space.basis_values(space.grid(norms._sup_sizes(space)))
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


def one_sense(kw):
    """``kw`` of a case, with its sense and seed as the one-sense tuples of
    ``extremize_ratio``."""
    return dict(kw, maximize=(kw.get("maximize", False),), seed=(kw["seed"],))


@pytest.mark.parametrize("name", CASES)
def test_stacked_halving_matches_sequential_loop(name):
    args, kw = _case(name)
    ref_ratio, ref_c, ref_report = sequential_extremize_ratio(*args, **kw)
    # a denominator exponent equal to p must not move a bit either
    for extra in ({}, {"den_p": args[4]}):
        (ratio,), (c,), report = _optim.extremize_ratio(*args, **one_sense(kw), **extra)
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
        (ratio,), (c,), _ = _optim.extremize_ratio(A, w, B, gamma, p, restarts=8, maximize=(maximize,),
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
    _, _, report = _optim.extremize_ratio(*args, **one_sense(kw))
    assert max(rows) <= report["restarts"]
    assert len(rows) == 2 * report["evaluations"]


def test_stacked_halving_saves_evaluations_on_lacunary_case():
    args, kw = _case("lacunary-min")
    _, _, report = _optim.extremize_ratio(*args, **one_sense(kw))
    _, _, ref_report = sequential_extremize_ratio(*args, **kw)
    assert report["iterations"] == ref_report["iterations"]
    assert report["restarts"] == ref_report["restarts"]
    assert report["evaluations"] < ref_report["evaluations"]


def _lift_case(name, p, m=40, seed=3):
    # the sample's values U, weights w, the exact rule (V, gamma) and the
    # sumset hook (B, L) that discretization._prepare and _heuristic_search build
    if name == "lacunary":
        space = make_lacunary_space(3, 2)
    else:
        space = tensor_product([make_trig_space(1, [[0], [1], [3]]), make_trig_space(1, [[-1], [0], [2]])])
    sample = generate_points(space, "iid", m, seed=seed)
    w = np.random.default_rng(seed).uniform(0.5, 1.5, m)
    w /= w.sum()
    V, gamma = norms.power_rule(space, p)
    lift = _sumset_space(space, p // 2)
    B = lift.basis_values(space.grid(norms._power_sizes(space, p)))
    L = np.linalg.qr(np.sqrt(w)[:, None] * lift.basis_values(sample.points), mode="r")
    return space.basis_values(sample.points), w, V, gamma, B, L


LIFT_CASES = [("lacunary", 4), ("lacunary", 6), ("tensor", 4)]


def test_certify_steers_on_the_factor_that_lift_case_builds(monkeypatch):
    # m = 120 is above the lift rule of lacunary n = 3 at p = 4 (17 nodes x |2K| = 6)
    _, w, _, _, B, L = _lift_case("lacunary", 4, m=120, seed=12)
    space = make_lacunary_space(3, 2)
    sample = generate_points(space, "iid", 120, seed=12)
    hooks = []

    class Stop(Exception):
        pass

    def capture(*args, lift=None, **kw):
        hooks.append(lift)
        raise Stop

    monkeypatch.setattr(_optim, "extremize_ratio", capture)
    with pytest.raises(Stop):
        certify(space, PointSet(sample.points, weights=w), 4)
    (hook,) = hooks
    assert np.array_equal(hook[0], B) and np.array_equal(hook[1], L)


@pytest.mark.parametrize("name,p", LIFT_CASES)
def test_sumset_numerator_is_the_discrete_power_sum(name, p):
    U, w, V, gamma, B, L = _lift_case(name, p)
    values, _ = _optim._sumset_numerator(V, gamma, B, L, p // 2)
    C = np.random.default_rng(11).standard_normal((25, U.shape[1], 2)) @ np.array([1.0, 1j])
    _, sums = values(C, C @ V.T)
    direct = np.array([sum(wj * abs(np.dot(row, c)) ** p for wj, row in zip(w, U)) for c in C])
    assert np.max(np.abs(sums / direct - 1.0)) <= 1e-12


@pytest.mark.parametrize("name,p", LIFT_CASES)
def test_sumset_numerator_gradient_matches_central_differences(name, p):
    U, w, V, gamma, B, L = _lift_case(name, p)
    values, grad = _optim._sumset_numerator(V, gamma, B, L, p // 2)
    c = np.random.default_rng(12).standard_normal((U.shape[1], 2)) @ np.array([1.0, 1j])

    def total(x):
        return values(x[None, :], (x @ V.T)[None, :])[1][0]

    Z, _ = values(c[None, :], (c @ V.T)[None, :])
    G = grad(Z, (c @ V.T)[None, :])[0]
    h = 1e-6
    for i in range(c.size):
        e = np.zeros(c.size, dtype=complex)
        e[i] = h
        # dS = Re sum conj(G_i) dc_i: the real part of G_i along Re c_i, the imaginary part along Im c_i
        assert (total(c + e) - total(c - e)) / (2 * h) == pytest.approx(G[i].real, rel=1e-6, abs=1e-9)
        assert (total(c + 1j * e) - total(c - 1j * e)) / (2 * h) == pytest.approx(G[i].imag, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("name,p", LIFT_CASES)
def test_lifted_call_returns_the_direct_ratio(name, p):
    U, w, V, gamma, B, L = _lift_case(name, p)
    ratios, cs, report = _optim.extremize_ratio(U, w, V, gamma, p, restarts=8, maximize=(False, True),
                                                seed=((0xC1, 0), (0xC2, 0)), lift=(B, L))
    assert report["restarts"] == 16
    for ratio, c in zip(ratios, cs):
        num = sum(wj * abs(np.dot(row, c)) ** p for wj, row in zip(w, U))
        den = sum(gj * abs(np.dot(row, c)) ** p for gj, row in zip(gamma, V))
        assert ratio == pytest.approx(num / den, rel=1e-13)
    assert ratios[0] <= ratios[1]


def _two_sense_cases():
    three = make_trig_space(1, [[0], [1], [3]])
    for n, m, seed in [(2, 5, 1), (2, 12, 2), (3, 7, 3), (3, 20, 4), (4, 4, 5), (4, 9, 6), (4, 30, 7)]:
        args, kw = _even_p_setup(make_lacunary_space(n, 2), m, 4, seed=seed)
        yield args, dict(kw, restarts=16)
    for m, seed in [(4, 8), (9, 9), (15, 10)]:
        args, kw = _even_p_setup(three, m, 3, seed=seed)
        yield args, dict(kw, restarts=16)
    args, kw = _even_p_setup(make_lacunary_space(2, 2), 6, 6, seed=11)
    yield args, dict(kw, restarts=16)
    U, w, V, gamma, B, L = _lift_case("lacunary", 4, m=120, seed=12)
    yield (U, w, V, gamma, 4), {"restarts": 16, "lift": (B, L)}


def test_stacked_senses_agree_with_single_sense_calls():
    cases = 0
    for args, kw in _two_sense_cases():
        (lo, hi), (c_lo, c_hi), report = _optim.extremize_ratio(
            *args, maximize=(False, True), seed=((0xC1, 0), (0xC2, 0)), **kw)
        (lo1,), _, report1 = _optim.extremize_ratio(*args, seed=((0xC1, 0),), **kw)
        (hi1,), _, _ = _optim.extremize_ratio(*args, maximize=(True,), seed=((0xC2, 0),), **kw)
        assert lo == pytest.approx(lo1, rel=1e-9)
        assert hi == pytest.approx(hi1, rel=1e-9)
        assert report["restarts"] == 2 * report1["restarts"]
        assert c_lo.shape == c_hi.shape == (args[0].shape[1],)
        cases += 1
    assert cases >= 10


def svd_lstsq(U, y, w):
    """Minimizer of ``sum w |y - U c|^2`` by an SVD least-squares solve of the
    whole weighted system (minimum-norm if rank-deficient)."""
    sw = np.sqrt(w)
    return np.linalg.lstsq(U * sw[:, None], y * sw, rcond=None)[0]


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

    tol = _optim.RECOVERY_TOL
    g, r = gradient(c)
    scale = max(1.0, float(np.linalg.norm(g)))
    obj = float(np.sum(w * np.abs(r) ** p))
    for _ in range(300):
        if float(np.linalg.norm(g)) <= tol * scale:
            break
        a = np.maximum(np.abs(r), 1e-12)
        omega = np.maximum(w * a ** (p - 2.0), 1e-12)
        c_prop = svd_lstsq(U, y, omega)
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
    c0 = svd_lstsq(U, y, w)
    _, total, _ = _optim.minimize_residual(U, y, w, p, c0)
    ref = svd_irls(U, y, w, p, c0)
    assert total <= ref * (1 + 1e-8) + 1e-14


def _solver_inputs(degree, m, seed=3):
    space = make_trig_space(1, [[k] for k in range(-degree, degree + 1)])
    U = space.basis_values(generate_points(space, "iid", m, seed=seed).points)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = rng.uniform(0.5, 1.5, m)
    return U, y, w / w.sum(), rng.uniform(0.5, 2.0, m)


def _aliased_inputs(spectrum, m, seed=5):
    # equispaced nodes alias frequencies equal modulo m, so U has m >= N
    # rows and rank below N; with non-uniform s the step must project onto
    # the range of R in the weighted norm, not the Euclidean one
    space = make_trig_space(1, [[k] for k in spectrum])
    U = space.basis_values(2 * np.pi * np.arange(m)[:, None] / m)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = rng.uniform(0.5, 1.5, m)
    return U, y, w / w.sum(), rng.uniform(0.1, 10.0, m)


@pytest.mark.parametrize("inputs,alive,dead", [
    (lambda: _solver_inputs(8, 120), None, None), (lambda: _solver_inputs(3, 5), None, None),
    (lambda: _solver_inputs(8, 120), 16, 1e-300), (lambda: _solver_inputs(3, 40), 0, 0.0),
    (lambda: _solver_inputs(3, 40), 3, 0.0), (lambda: _aliased_inputs([0, 1, 4], 4), None, None),
    (lambda: _aliased_inputs([-4, -1, 0, 2, 4, 6], 6), None, None)],
    ids=["full-rank", "m<N", "N-1-live", "none-live", "3-of-7-live", "aliased-3-of-4", "aliased-6-of-6"])
def test_weighted_solver_matches_svd_lstsq(inputs, alive, dead, monkeypatch):
    # full rank; m < N (degree 3 has N = 7); only N - 1 = 16 weights above
    # 1e-300, which leaves the Cholesky test to the fallback; no weight or
    # only 3 of N = 7 nonzero, where the Cholesky factor itself fails; and U
    # of rank 2 and 4 on aliased equispaced nodes
    U, y, w, s = inputs()
    if alive is not None:
        s[alive:] = dead
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
    fallbacks, refused = [], []

    def checked_cholesky(G):
        try:
            return cholesky(G)
        except np.linalg.LinAlgError:
            refused.append(G)
            raise

    monkeypatch.setattr(np.linalg, "eigh", lambda G: fallbacks.append(G) or eigh(G))
    monkeypatch.setattr(np.linalg, "cholesky", checked_cholesky)
    c, rank = _optim._weighted_solver(U, y, w)(s)
    ref = svd_lstsq(U, y, s * w)
    assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)
    assert rank == np.linalg.matrix_rank(U)
    assert len(fallbacks) == (alive is not None)
    assert len(refused) == (dead == 0.0)


def two_lstsq_lawson(U, y, w):
    """Frozen reference: lawson as it was when each step made two SVD
    least-squares solves, ``(Q^H S Q) d = Q^H S sqrt(w) y``, then ``R c = d``.
    Returns the best iterate's maximum residual."""
    sw = np.sqrt(w)
    Q, R = np.linalg.qr(U * sw[:, None])
    b = sw * y
    omega = w
    best_val = math.inf
    history = []
    for _ in range(300):
        QhS = np.conj(Q) * (omega / w)[:, None]
        d = np.linalg.lstsq(QhS.T @ Q, QhS.T @ b, rcond=None)[0]
        c = np.linalg.lstsq(R, d, rcond=None)[0]
        r = np.abs(y - U @ c)
        mx = float(np.max(r))
        best_val = min(best_val, mx)
        history.append(mx)
        if len(history) > 12 and abs(history[-1] - history[-12]) <= 0.1 * _optim.MINIMAX_REL * max(history[-1], 1e-30):
            break
        omega = omega * (r + 1e-300)
        omega /= np.sum(omega)
    return best_val


LAWSON_TARGETS = (lambda x: np.exp(np.cos(x)), lambda x: np.abs(np.sin(x)) ** 1.5,
                  lambda x: 1.0 / (1.0 + 25.0 * np.sin(x / 2) ** 2), lambda x: np.maximum(np.cos(x), 0.0) ** 2,
                  lambda x: np.cos(x) ** 9 + 1j * np.sin(3 * x))


@pytest.mark.parametrize("seed", [1, 7])
def test_lawson_matches_two_lstsq_loop(seed):
    # degree-8 minimax fits at 120 iid nodes, as recover-crosscheck runs them
    space = make_trig_space(1, [[k] for k in range(-8, 9)])
    sample = generate_points(space, "iid", 120, seed=seed)
    U = space.basis_values(sample.points)
    w = np.full(120, 1.0 / 120)
    for target in LAWSON_TARGETS:
        y = target(sample.points[:, 0]).astype(complex)
        c, best, report = _optim.lawson(U, y, w)
        ref = two_lstsq_lawson(U, y, w)
        assert best == pytest.approx(ref, rel=1e-5)
        assert best == float(np.max(np.abs(y - U @ c)))
        assert report["lower_bound"] <= best
        assert report["rank"] == 17
