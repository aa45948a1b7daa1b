"""Tests for point generation, certification, subsampling, and m-search."""

import itertools
import logging
import math
import re

import numpy as np
import pytest

from sampdisc import (
    CoefficientVector,
    DiscreteSpace,
    FiniteDomain,
    TorusDomain,
    TrigSpace,
    TwoStageBudget,
    brute_force_certificate,
    certify,
    extract_factor,
    generate_points,
    make_lacunary_space,
    make_trig_space,
    minimal_m_search,
    norm_p,
    restrict,
    success_curve_csv,
    tensor_product,
    two_stage_subsample,
)
from sampdisc import _optim, discretization, norms
from sampdisc.discretization import PointSet, _sumset_space
from sampdisc.recovery import LpwRegressor
from sampdisc.errors import (
    BudgetExhaustedError,
    ConfigError,
    InvalidPointError,
    InvalidSampleError,
    InvalidSpectrumError,
    InvalidWeightError,
    FactorExtractionError,
    InvalidExponentError,
    MissingSeedError,
    OracleTooLargeError,
    SearchFailedError,
    UnsupportedDomainError,
)

TWO_PI = 2 * math.pi


def full_trig_space(degree):
    return make_trig_space(1, [[k] for k in range(-degree, degree + 1)])


# ---------------------------------------------------------------------------
# generation


def test_equispaced_nodes():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 5)
    assert np.allclose(pts.points.ravel(), np.arange(5) * TWO_PI / 5)


def test_tensor_point_set_is_lexicographic():
    f1 = full_trig_space(1)
    f2 = full_trig_space(1)
    t = tensor_product([f1, f2])
    p1 = generate_points(f1, "equispaced", 3)
    p2 = generate_points(f2, "equispaced", 4)
    ts = generate_points(t, "tensor", factors=[p1, p2])
    assert ts.m == 12
    # first factor varies slowest
    assert np.allclose(ts.points[:4, 0], p1.points[0, 0])
    assert np.allclose(ts.points[:4, 1], p2.points[:, 0])


def test_leverage_on_flat_space_is_uniform():
    sp = full_trig_space(2)
    lev = generate_points(sp, "leverage", 30, seed=11)
    assert lev.weighted
    assert np.allclose(lev.weights, 1 / 30, atol=1e-12)
    assert float(np.sum(lev.weights)) == pytest.approx(1.0, abs=1e-12)


def test_random_modes_require_seed():
    sp = full_trig_space(1)
    with pytest.raises(MissingSeedError):
        generate_points(sp, "iid", 5)
    with pytest.raises(MissingSeedError):
        generate_points(sp, "leverage", 5)


def test_generation_rejects_empty():
    sp = full_trig_space(1)
    with pytest.raises(InvalidSampleError):
        generate_points(sp, "iid", 0, seed=1)


def test_plain_point_set_weights_are_uniform_and_read_only():
    pts = PointSet(np.arange(7) * TWO_PI / 7)
    assert not pts.weighted and generate_points(full_trig_space(1), "leverage", 9, seed=3).weighted
    assert np.array_equal(pts.weights, np.full(7, 1.0 / 7))
    with pytest.raises(ValueError):
        pts.weights[0] = 1.0
    assert not {"weights", "weight_sum"} & set(pts.to_dict())
    # a weighted set keeps a read-only copy: the caller's later edit does not reach it
    w = np.array([0.2, 0.3, 0.5])
    weighted = PointSet(np.arange(3) * TWO_PI / 3, weights=w)
    w[0] = 5.0
    assert weighted.weighted and np.array_equal(weighted.weights, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        weighted.weights[0] = 1.0
    record = weighted.to_dict()
    assert record["weights"] == [0.2, 0.3, 0.5] and record["weight_sum"] == pytest.approx(1.0, abs=1e-15)


def test_complex_points_are_refused():
    # a cast to float would drop the imaginary parts with only a ComplexWarning
    with pytest.raises(InvalidPointError, match="complex"):
        PointSet(np.array([1 + 2j, 3 + 0j]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused(value):
    # NaN was kept and inf became NaN, which to_dict wrote as non-JSON NaN and
    # certify refused with a shape message
    with pytest.raises(InvalidPointError, match="finite"):
        PointSet(np.array([[0.5], [value], [1.5]]))
    # integer finite-domain indices are unaffected
    assert PointSet(np.array([0, 2, 1])).points.tolist() == [0, 2, 1]


@pytest.mark.parametrize("points", [[["a"]], [[None]], np.array([True, False]), np.array([[0.5], [1]], dtype=object)],
                         ids=["string", "none", "bool", "object"])
def test_non_numeric_points_are_refused(points):
    # a string point ended in a raw ValueError inside certify, and booleans
    # certified as the points 1 and 0
    with pytest.raises(InvalidPointError, match="dtype"):
        PointSet(points)


def test_generate_points_refuses_sizes_past_the_cap_before_drawing(monkeypatch):
    # iid m = 10**11 asked numpy for 745 GiB
    monkeypatch.setattr(TrigSpace, "draw", lambda *a: pytest.fail("drew points"))
    monkeypatch.setattr(discretization, "torus_grid", lambda sizes: pytest.fail("built the grid"))
    big = norms._MAX_GRID + 1
    sp = full_trig_space(2)
    for mode in ("iid", "leverage"):
        with pytest.raises(InvalidSampleError, match="more than"):
            generate_points(sp, mode, big, seed=1)
    with pytest.raises(InvalidSampleError, match="more than"):
        generate_points(sp, "equispaced", big)
    sp2 = make_trig_space(2, [[0, 0], [1, 0], [0, 1]])
    with pytest.raises(InvalidSampleError, match="more than"):
        generate_points(sp2, "equispaced", sizes=[2049, 2048])


_SP = full_trig_space(2)


@pytest.mark.parametrize("call,error", [
    (lambda: generate_points(_SP, "iid", 3, seed=-1), InvalidSampleError),
    (lambda: generate_points(_SP, "iid", 3, seed=1.5), InvalidSampleError),
    (lambda: generate_points(_SP, "iid", 2.5, seed=1), InvalidSampleError),
    (lambda: generate_points(_SP, "equispaced", 2.5), InvalidSampleError),
    (lambda: two_stage_subsample(_SP, 2, 0.5, TwoStageBudget(40, 10), seed=-1), InvalidSampleError),
    (lambda: two_stage_subsample(_SP, 2, 0.5, TwoStageBudget(20.5, 4), seed=1), InvalidSampleError),
    (lambda: two_stage_subsample(_SP, 2, 0.5, TwoStageBudget(20, 4.5), seed=1), InvalidSampleError),
    (lambda: minimal_m_search(_SP, 2, 0.1, 2, 1.0, seed=1, m_max=7.5), InvalidSampleError),
    (lambda: minimal_m_search(_SP, 2, 0.5, 2.5, 0.9, seed=1), InvalidSampleError),
    (lambda: brute_force_certificate(_SP, generate_points(_SP, "iid", 8, seed=1), 4, resolution=0),
     InvalidSampleError),
    (lambda: brute_force_certificate(_SP, generate_points(_SP, "iid", 8, seed=1), 4, resolution=-5),
     InvalidSampleError),
    (lambda: brute_force_certificate(_SP, generate_points(_SP, "iid", 8, seed=1), 4, resolution=2.5),
     InvalidSampleError),
    (lambda: LpwRegressor(_SP).set_params(foo=1), ConfigError),
    (lambda: generate_points(_SP, "iid", True, seed=1), InvalidSampleError),
    (lambda: minimal_m_search(_SP, 2, 0.5, True, 0.9, seed=1), InvalidSampleError),
    (lambda: minimal_m_search(_SP, 2, 0.5, 2, 1.5, seed=1), InvalidExponentError),
    (lambda: minimal_m_search(_SP, 2, 0.5, 2, -0.5, seed=1), InvalidExponentError),
    (lambda: minimal_m_search(_SP, 2, 0.5, 2, math.nan, seed=1), InvalidExponentError),
], ids=["seed-negative", "seed-float", "m-float", "equispaced-m-float", "two-stage-seed-negative",
        "two-stage-stage1-float", "two-stage-stage2-float", "m-max-float", "trials-float",
        "resolution-0", "resolution-negative", "resolution-float", "set-params-unknown", "m-bool",
        "trials-bool", "threshold-above-1", "threshold-negative", "threshold-nan"])
def test_bad_counts_and_seeds_raise_typed_errors(call, error):
    # a typed SampdiscError, not numpy's or Python's raw ValueError, TypeError or ZeroDivisionError
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: certify(_SP, generate_points(_SP, "iid", 8, seed=1), 3, budget=2.5), InvalidSampleError),
    (lambda: certify(_SP, generate_points(_SP, "iid", 8, seed=1), 3, budget=-3), InvalidSampleError),
    (lambda: certify(_SP, generate_points(_SP, "iid", 8, seed=1), 3, budget=0), InvalidSampleError),
    (lambda: TwoStageBudget(40, 10, retries=2.5), InvalidSampleError),
    (lambda: TwoStageBudget(40, 10, retries=-1), InvalidSampleError),
    (lambda: generate_points(_SP, "equispaced", sizes=[2.5]), InvalidSampleError),
    (lambda: make_lacunary_space(2.5, 2), InvalidSpectrumError),
    (lambda: TorusDomain(2.5), UnsupportedDomainError),
    (lambda: FiniteDomain(2.5), UnsupportedDomainError),
    (lambda: certify(_SP, generate_points(_SP, "iid", 8, seed=1), 3, budget=True), InvalidSampleError),
    (lambda: generate_points(_SP, "equispaced", sizes=[True]), InvalidSampleError),
    (lambda: make_lacunary_space(True, 2), InvalidSpectrumError),
    (lambda: TorusDomain(True), UnsupportedDomainError),
], ids=["budget-float", "budget-negative", "budget-0", "retries-float", "retries-negative",
        "equispaced-sizes-float", "lacunary-n-float", "torus-dim-float", "finite-size-float", "budget-bool",
        "equispaced-sizes-bool", "lacunary-n-bool", "torus-dim-bool"])
def test_counts_are_integers_in_range_or_a_typed_error(call, error):
    # each ran silently as a truncated or clamped count, or ended in a raw TypeError
    with pytest.raises(error):
        call()


def test_weighted_point_set_validates():
    with pytest.raises(InvalidWeightError):
        PointSet(np.zeros((3, 1)), weights=[1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# certification, p = 2


def test_equispaced_exact_certificate():
    sp = full_trig_space(2)
    cert = certify(sp, generate_points(sp, "equispaced", 5), 2)
    assert cert.method == "exact-eigen"
    assert cert.status == "certified"
    assert cert.c1_pow == pytest.approx(1.0, abs=1e-10)
    assert cert.c2_pow == pytest.approx(1.0, abs=1e-10)


def test_single_point_kills_lower_constant():
    sp = full_trig_space(1)
    cert = certify(sp, PointSet(np.array([[0.3]])), 2)
    assert cert.c1_pow <= 1e-12


def test_certify_p2_matches_rayleigh_oracle():
    # independent check: random unit vectors stay inside the certified band
    # and the frame eigenvectors attain the band edges under direct summation
    sp = full_trig_space(2)
    pts = generate_points(sp, "iid", 20, seed=11)
    cert = certify(sp, pts, 2)
    U = sp.basis_values(pts.points)
    rng = np.random.default_rng(12)
    C = rng.standard_normal((2000, 5)) + 1j * rng.standard_normal((2000, 5))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    ratios = np.mean(np.abs(C @ U.T) ** 2, axis=1)  # continuous norm is |c|^2
    assert np.min(ratios) >= cert.c1_pow - 1e-8
    assert np.max(ratios) <= cert.c2_pow + 1e-8
    F = U.conj().T @ U / pts.m
    lam, Q = np.linalg.eigh(F)
    for col, target in ((0, cert.c1_pow), (-1, cert.c2_pow)):
        v = Q[:, col]
        f = CoefficientVector(sp, v)
        direct = np.mean(np.abs(U @ v) ** 2) / norm_p(f, 2) ** 2
        assert direct == pytest.approx(target, abs=1e-8)


def test_certify_order_invariance():
    sp = full_trig_space(2)
    pts = generate_points(sp, "iid", 15, seed=13)
    shuffled = PointSet(np.asarray(pts.points)[::-1].copy())
    a = certify(sp, pts, 2)
    b = certify(sp, shuffled, 2)
    assert a.c1_pow == pytest.approx(b.c1_pow, abs=1e-12)
    assert a.c2_pow == pytest.approx(b.c2_pow, abs=1e-12)


def test_certify_basis_change_invariance():
    rng = np.random.default_rng(14)
    base = restrict(full_trig_space(2), generate_points(full_trig_space(2), "iid", 40, seed=15))
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    reparam = DiscreteSpace(base.values @ A)
    idx = PointSet(np.arange(0, 40, 3))
    a = certify(base, idx, 2)
    b = certify(reparam, idx, 2)
    assert a.c1_pow == pytest.approx(b.c1_pow, abs=1e-10)
    assert a.c2_pow == pytest.approx(b.c2_pow, abs=1e-10)


def test_certify_basis_invariance_ill_conditioned():
    # Q is orthonormal in L2(1/S) and cond(M) = 10^4.5, so the Gram matrix of
    # Q M has condition about 1e9; whitening through it would square that
    S, n, m = 60, 6, 25
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((S, n)))[0] * math.sqrt(S)
        U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        M = U @ np.diag(np.logspace(0, -4.5, n)) @ V
        pts = PointSet(np.sort(rng.choice(S, m, replace=False)))
        a, b = certify(DiscreteSpace(Q), pts, 2), certify(DiscreteSpace(Q @ M), pts, 2)
        assert b.c1_pow == pytest.approx(a.c1_pow, rel=1e-11, abs=0)
        assert b.c2_pow == pytest.approx(a.c2_pow, rel=1e-11, abs=0)


def test_certificate_sandwich_with_constants():
    sp = full_trig_space(1)
    for seed in range(5):
        cert = certify(sp, generate_points(sp, "iid", 10, seed=seed), 2)
        assert cert.c1_pow <= cert.c2_pow
        assert cert.c1_pow <= 1.0 + 1e-12
        assert cert.c2_pow >= 1.0 - 1e-12


def test_weighted_certificate_uses_weights():
    sp = full_trig_space(1)
    lev = generate_points(sp, "leverage", 25, seed=17)
    cert = certify(sp, lev, 2)
    assert cert.weighted
    U = sp.basis_values(lev.points)
    F = U.conj().T @ (lev.weights[:, None] * U)
    lam = np.linalg.eigvalsh(F)
    assert cert.c1_pow == pytest.approx(float(lam[0]), abs=1e-12)
    assert cert.c2_pow == pytest.approx(float(lam[-1]), abs=1e-12)


@pytest.mark.parametrize("seed,complex_basis,weighted,drawn",
                         [(31, False, False, False), (32, True, False, False), (33, False, True, False),
                          (34, True, True, False), (35, True, False, True)],
                         ids=["31-False-False", "32-True-False", "33-False-True", "34-True-True", "35-drawn"])
def test_discrete_space_p2_certificate_matches_generalized_eigenvalues(seed, complex_basis, weighted, drawn):
    # independent route: the eigenvalues of B^-1 A, A the sampled and B the
    # continuous Gram matrix, from a general (nonsymmetric) eigensolver;
    # drawn samples are iid domain indices from generate_points, repeats allowed
    rng = np.random.default_rng(seed)
    S, n, m = 15, 4, 9
    vals = rng.standard_normal((S, n)) + (1j * rng.standard_normal((S, n)) if complex_basis else 0)
    if drawn:
        idx = generate_points(DiscreteSpace(vals), "iid", m, seed=seed).points
    else:
        idx = np.sort(rng.choice(S, size=m, replace=False))
    w = rng.uniform(0.5, 2.0, m) / m if weighted else np.full(m, 1.0 / m)
    cert = certify(DiscreteSpace(vals), PointSet(idx, weights=w) if weighted else PointSet(idx), 2)
    A = vals[idx].conj().T @ (w[:, None] * vals[idx])
    B = vals.conj().T @ vals / S
    lam = np.sort(np.linalg.eigvals(np.linalg.solve(B, A)).real)
    assert cert.weighted == weighted
    assert cert.c1_pow == pytest.approx(lam[0], rel=1e-10, abs=0)
    assert cert.c2_pow == pytest.approx(lam[-1], rel=1e-10, abs=0)


# ---------------------------------------------------------------------------
# certification, even p and general p


def test_even_p_exact_quadrature():
    sp = make_trig_space(1, [[1], [-1]])
    cert = certify(sp, generate_points(sp, "equispaced", 5), 4)
    assert cert.method == "exact-quadrature"
    assert cert.status == "certified"
    assert cert.c1_pow == pytest.approx(1.0, abs=1e-10)
    assert cert.c2_pow == pytest.approx(1.0, abs=1e-10)


def test_even_p_exactness_scales_with_degree():
    sp = full_trig_space(2)
    cert = certify(sp, generate_points(sp, "equispaced", 4 * 2 + 1), 4)
    assert (cert.c1_pow, cert.c2_pow) == (1.0, 1.0)


def _moment_box_exact(space, sample, p):
    """Plain-numpy moment test: the sample integrates every frequency with
    coordinates up to ``p * degree`` within 1e-12, so it integrates |f|^p."""
    box = [np.arange(-p * deg, p * deg + 1) for deg in space.degrees]
    K = np.stack([g.ravel() for g in np.meshgrid(*box, indexing="ij")], axis=1)
    moments = sample.weights @ np.exp(1j * (sample.points @ K.T))
    return np.max(np.abs(moments - np.all(K == 0, axis=1))) <= 1e-12


def _even_p_battery():
    for p in (4, 6):
        for n in (1, 2, 3):
            sp = full_trig_space(n)
            for m in range(2 * n + 1, p * n + 3):
                pts = generate_points(sp, "equispaced", m)
                yield sp, pts, p
                w = 1.0 + 0.5 * np.cos(np.arange(m))
                yield sp, PointSet(pts.points, weights=np.full(m, 1.0 / m)), p
                yield sp, PointSet(pts.points, weights=w / w.sum()), p
        for spec in ([[0], [1]], [[-1], [0], [1]]):
            f = make_trig_space(1, spec)
            for a, b in ((3, 3), (4, 5), (5, 5), (7, 7), (9, 9)):
                T = tensor_product([f, f])
                yield T, generate_points(T, "tensor", factors=[generate_points(f, "equispaced", a),
                                                               generate_points(f, "equispaced", b)]), p


def test_even_p_eigen_test_keeps_every_moment_box_exact_case():
    passed = 0
    for sp, pts, p in _even_p_battery():
        if _moment_box_exact(sp, pts, p):
            passed += 1
            cert = certify(sp, pts, p)
            assert cert.method == "exact-quadrature" and cert.status == "certified"
            assert (cert.c1_pow, cert.c2_pow) == (1.0, 1.0)
    assert passed >= 20


def test_even_p_exact_on_lacunary_sample_the_moment_box_misses():
    sp = make_lacunary_space(5, 2)  # K = {1, 2, 4, 8, 16}: 2K - 2K lies in [-30, 30]
    pts = generate_points(sp, "equispaced", 33)
    assert not _moment_box_exact(sp, pts, 4)
    cert = certify(sp, pts, 4)
    assert (cert.method, cert.status) == ("exact-quadrature", "certified")
    assert (cert.c1_pow, cert.c2_pow) == (1.0, 1.0)


def test_even_p_exact_on_tensor_beyond_the_moment_box():
    f = make_trig_space(1, [[0], [16]])
    T = tensor_product([f, f, f])  # the moment box would hold 129^3 frequencies
    pts = generate_points(T, "tensor", factors=[generate_points(f, "equispaced", 3)] * 3)
    cert = certify(T, pts, 4)
    assert (cert.method, cert.status) == ("exact-quadrature", "certified")
    assert (cert.c1_pow, cert.c2_pow) == (1.0, 1.0)
    assert cert.tolerance <= 1e-12


@pytest.mark.parametrize("spectrum,s", [([[1], [2], [4]], 1), ([[1], [2], [4]], 5), ([[-1], [0], [1]], 6),
                                         ([[0, 0], [1, 0], [0, 3], [2, 1]], 7), ([[3]], 4)])
def test_sumset_by_doubling_matches_repeated_sums(spectrum, s):
    # the reference sums every s-tuple of K, whatever order _sumset_space adds in
    K = np.array(spectrum)
    S = np.unique([np.sum(t, axis=0) for t in itertools.product(K, repeat=s)], axis=0)
    lift = _sumset_space(make_trig_space(K.shape[1], spectrum), s)
    assert np.array_equal(lift.spectrum.frequencies, S)


def _heuristic_inputs(space, sample, p):
    # the inputs of discretization._heuristic_search's optimizer call, with the sumset hook built for any m
    w = np.full(sample.m, 1.0 / sample.m)
    U = space.basis_values(sample.points)
    V, gamma = norms.power_rule(space, p)
    lift = _sumset_space(space, p // 2)
    B = lift.basis_values(space.grid(norms._power_sizes(space, p)))
    L = np.linalg.qr(np.sqrt(w)[:, None] * lift.basis_values(sample.points), mode="r")
    _, _, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), vt[0].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    return (U, w, V, gamma, p), {"extra_starts": extras, "lift": (B, L)}


def test_lifted_search_reports_the_direct_minimum_of_a_near_singular_sample():
    # the lacunary study's n = 4, m = 4 row at seed 13: its c1 is 1.6e-15, far
    # below the rounding of the frame form, so only a ratio recomputed from
    # the samples keeps it to 1e-9
    sp = make_lacunary_space(4, 2)
    pts = generate_points(sp, "iid", 4, seed=((13, 4), 4, 0))
    args, kw = _heuristic_inputs(sp, pts, 4)
    (lo, _), _, _ = _optim.extremize_ratio(*args, restarts=16, maximize=(False, True),
                                           seed=((0xC1, 0), (0xC2, 0)), **kw)
    assert lo == pytest.approx(1.5780147551428179e-15, rel=1e-9)
    assert certify(sp, pts, 4, budget=16).c1_pow == pytest.approx(1.5780147551428179e-15, rel=1e-9)


@pytest.mark.parametrize("n,m", [(2, 28), (2, 60), (3, 103)])
def test_lifted_certificate_agrees_with_the_direct_search(n, m, monkeypatch):
    # above m = nodes * |sK| certify steers on the sumset frame; without the
    # lift the same search gives the same constants to 1e-9
    sp = make_lacunary_space(n, 2)
    pts = generate_points(sp, "iid", m, seed=(n, m))
    lifted = []
    sumset_numerator = _optim._sumset_numerator
    monkeypatch.setattr(_optim, "_sumset_numerator", lambda *a: lifted.append(1) or sumset_numerator(*a))
    cert = certify(sp, pts, 4, budget=16)
    assert lifted and (cert.method, cert.status) == ("optimization-bound", "heuristic-upper-C1")
    direct = discretization._heuristic_search(sp, pts, 4, 16).run()
    assert cert.c1_pow == pytest.approx(direct.c1_pow, rel=1e-9)
    assert cert.c2_pow == pytest.approx(direct.c2_pow, rel=1e-9)


def test_lift_is_only_used_above_the_size_rule(monkeypatch):
    # lacunary n = 2: 9 nodes and |2K| = 3, so m = 27 stays direct
    sp = make_lacunary_space(2, 2)
    monkeypatch.setattr(_optim, "_sumset_numerator", lambda *a: pytest.fail("lifted at m = 27"))
    certify(sp, generate_points(sp, "iid", 27, seed=1), 4, budget=4)


@pytest.mark.parametrize("m", [27, 60])
def test_certify_evaluates_the_sumset_basis_at_the_sample_once(m, monkeypatch):
    # lacunary n = 2 at p = 4: m = 27 is below the lift rule (9 nodes x |2K| = 3), m = 60 above it
    sp = make_lacunary_space(2, 2)
    pts = generate_points(sp, "iid", m, seed=1)
    at_sample = []
    sumset_space = discretization._sumset_space

    def counted(space, s, **kw):
        lift = sumset_space(space, s, **kw)
        values = lift.basis_values

        def basis_values(points):
            at_sample.append(len(points) == m)
            return values(points)

        lift.basis_values = basis_values
        return lift

    monkeypatch.setattr(discretization, "_sumset_space", counted)
    assert certify(sp, pts, 4, budget=4).method == "optimization-bound"
    assert at_sample.count(True) == 1


def test_sumset_frame_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # N = 33 at p = 100 on 100,000 points passes the rule's cap (1,601 nodes)
    # and the sampled basis's (m N = 3.3 M), but its frame would be m x |50K| = 100,000 x 1,601
    sp = full_trig_space(16)
    pts = generate_points(sp, "iid", 100_000, seed=1)
    basis_values = TrigSpace.basis_values

    def guarded(self, points):
        if len(points) * self.dim > norms._MAX_GRID:
            pytest.fail(f"asked for a {len(points)} x {self.dim} basis matrix")
        return basis_values(self, points)

    monkeypatch.setattr(TrigSpace, "basis_values", guarded)
    with pytest.raises(InvalidExponentError, match="sumset frame"):
        certify(sp, pts, 100)


def _gram_deviation(space, sample, p):
    # the frame test as the Gram matrix's eigenvalues: max |lambda - 1| over E^H W E
    E = _sumset_space(space, p // 2).basis_values(sample.points)
    lam = np.linalg.eigvalsh(E.conj().T @ (E / sample.m))
    return max(1.0 - lam[0], lam[-1] - 1.0)


@pytest.mark.parametrize("p", [4, 6])
def test_frame_deviation_from_the_factor_matches_the_gram_eigenvalues(p):
    sp = make_lacunary_space(2, 2)
    # equispaced nodes are exact, and certify reports the deviation as the tolerance
    exact = generate_points(sp, "equispaced", 5)
    cert = certify(sp, exact, p)
    assert cert.method == "exact-quadrature"
    assert cert.tolerance == pytest.approx(max(_gram_deviation(sp, exact, p), 1e-15), abs=1e-14)
    # iid nodes are not; above the lift rule certify reports sigma(R)^2 as its
    # bracket, and the deviation read off it is the Gram one
    iid = generate_points(sp, "iid", 60, seed=5)
    cert = certify(sp, iid, p)
    deviation = _gram_deviation(sp, iid, p)
    assert max(1.0 - cert.c1_lower, cert.c2_upper - 1.0) == pytest.approx(deviation, abs=1e-14)
    assert deviation > 1e-12


def test_huge_even_exponent_is_refused_before_any_grid_is_built(monkeypatch):
    sp = make_trig_space(1, [[-1], [0], [1]])
    monkeypatch.setattr("sampdisc.spaces.torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    pts = PointSet(np.linspace(0, TWO_PI, 5, endpoint=False))
    # a 10^12-node exact rule, and a 10^6-node rule the heuristic search would hold 134 times
    for p in (1e12, 1e6):
        with pytest.raises(InvalidExponentError):
            certify(sp, pts, p)
    with pytest.raises(InvalidExponentError):
        norms.power_rule(sp, 1e12)


@pytest.mark.parametrize("spectrum,p", [([[0]], 1e12), ([[1]], 4_194_302)])
def test_one_frequency_at_a_huge_even_exponent_is_exact_at_once(monkeypatch, spectrum, p):
    # sK is the one frequency sk, whatever p is: the 5 x 1 frame is exact, and
    # no sumset is built by additions (one per unit of s would never end)
    unique = np.unique
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) > 100:
            pytest.fail("np.unique called more than 100 times")
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    cert = certify(make_trig_space(1, spectrum), PointSet(np.linspace(0, TWO_PI, 5, endpoint=False)), p)
    assert (cert.method, cert.status, cert.c1_pow, cert.c2_pow) == ("exact-quadrature", "certified", 1.0, 1.0)


@pytest.mark.parametrize("n,m,p", [(2, 5, 4), (2, 5, 6), (3, 9, 4)])
def test_even_p_sumset_exact_cases_agree_with_oracle(n, m, p):
    sp = make_lacunary_space(n, 2)
    pts = generate_points(sp, "equispaced", m)
    cert = certify(sp, pts, p)
    assert cert.method == "exact-quadrature"
    oracle = brute_force_certificate(sp, pts, p)
    assert oracle.c1_pow == pytest.approx(1.0, abs=oracle.tolerance)
    assert oracle.c2_pow == pytest.approx(1.0, abs=oracle.tolerance)


def test_even_p_sample_smaller_than_sumset_is_heuristic():
    sp = full_trig_space(2)  # |2K| = 9 frequencies, more than the 8 nodes
    cert = certify(sp, generate_points(sp, "equispaced", 8), 4, budget=4)
    assert (cert.method, cert.status) == ("optimization-bound", "heuristic-upper-C1")


def test_brute_force_exact_case():
    sp = make_trig_space(1, [[1], [-1]])
    cert = brute_force_certificate(sp, generate_points(sp, "equispaced", 5), 4)
    assert cert.c1_pow == pytest.approx(1.0, abs=1e-3)
    assert cert.c2_pow == pytest.approx(1.0, abs=1e-3)
    # enumeration only bounds the extremes: min >= C1 and max <= C2
    assert cert.status == "heuristic-upper-C1"


def test_brute_force_single_exponential():
    sp = make_trig_space(1, [[1]])
    cert = brute_force_certificate(sp, PointSet(np.array([[1.1]])), 2)
    assert cert.c1_pow == pytest.approx(1.0, abs=1e-9)
    assert cert.c2_pow == pytest.approx(1.0, abs=1e-9)
    # N = 1 has a single ratio, so it is exact
    assert cert.status == "certified"


def test_brute_force_labels_weighted_sample():
    sp = make_trig_space(1, [[0], [2]])
    lev = generate_points(sp, "leverage", 6, seed=17)
    assert lev.weighted
    oracle = brute_force_certificate(sp, lev, 2)
    assert oracle.weighted and certify(sp, lev, 2).weighted
    assert not brute_force_certificate(sp, PointSet(lev.points), 2).weighted


def test_brute_force_size_guard():
    sp = full_trig_space(2)  # N = 5
    with pytest.raises(OracleTooLargeError):
        brute_force_certificate(sp, generate_points(sp, "equispaced", 7), 2)


@pytest.mark.parametrize("p", [math.inf, 0.5])
def test_brute_force_rejects_exponent(p):
    sp = make_trig_space(1, [[0], [1]])
    with pytest.raises(InvalidExponentError):
        brute_force_certificate(sp, generate_points(sp, "equispaced", 4), p)


@pytest.mark.parametrize("p,seed,spectrum", [(2, 21, [[0], [1], [3]]), (3, 22, [[0], [1], [3]]),
                                             (4, 23, [[0], [1], [3]]), (1.5, 24, [[0], [3]])],
                         ids=["2-21", "3-22", "4-23", "1.5-24"])
def test_certify_agrees_with_oracle(p, seed, spectrum):
    # p = 1.5 takes the oracle's non-integer powers, at N = 2 to keep it quick
    sp = make_trig_space(1, spectrum)
    pts = generate_points(sp, "iid", 9, seed=seed)
    cert = certify(sp, pts, p)
    oracle = brute_force_certificate(sp, pts, p)
    assert abs(cert.c1_pow - oracle.c1_pow) <= oracle.tolerance
    assert abs(cert.c2_pow - oracle.c2_pow) <= oracle.tolerance


def test_general_p_is_labeled_heuristic():
    sp = full_trig_space(1)
    cert = certify(sp, generate_points(sp, "iid", 8, seed=24), 3)
    assert cert.status == "heuristic-upper-C1"
    assert cert.method == "optimization-bound"


def test_rank_deficient_sample_gives_zero_c1_at_p3():
    sp = full_trig_space(2)
    cert = certify(sp, generate_points(sp, "iid", 3, seed=25), 3)
    assert cert.c1_pow == 0.0


# ---------------------------------------------------------------------------
# tensor multiplicativity and factor extraction


def test_tensor_certificate_is_product_at_p2():
    f1 = full_trig_space(1)
    f2 = full_trig_space(1)
    t = tensor_product([f1, f2])
    p1 = generate_points(f1, "iid", 7, seed=26)
    p2 = generate_points(f2, "iid", 9, seed=27)
    c1 = certify(f1, p1, 2)
    c2 = certify(f2, p2, 2)
    ct = certify(t, generate_points(t, "tensor", factors=[p1, p2]), 2)
    assert ct.c1_pow >= c1.c1_pow * c2.c1_pow - 1e-8
    assert ct.c2_pow <= c1.c2_pow * c2.c2_pow + 1e-8


def test_extract_factor_matches_direct_when_other_factor_exact():
    f1 = full_trig_space(1)
    f2 = full_trig_space(1)
    t = tensor_product([f1, f2])
    p1 = generate_points(f1, "iid", 8, seed=28)
    p2 = generate_points(f2, "equispaced", 3)  # exact (1, 1) factor
    ts = generate_points(t, "tensor", factors=[p1, p2])
    ct = certify(t, ts, 2)
    fac_set, transferred = extract_factor(t, ts, 0, ct)
    direct = certify(f1, fac_set, 2)
    assert transferred.c1_pow == pytest.approx(direct.c1_pow, abs=1e-8)
    assert transferred.c2_pow == pytest.approx(direct.c2_pow, abs=1e-8)


def test_extract_factor_requires_constants():
    f1 = full_trig_space(1)
    f2 = make_trig_space(1, [[1], [2]])  # no constant
    t = tensor_product([f1, f2])
    p1 = generate_points(f1, "equispaced", 3)
    p2 = generate_points(f2, "equispaced", 5)
    ts = generate_points(t, "tensor", factors=[p1, p2])
    ct = certify(t, ts, 2)
    with pytest.raises(FactorExtractionError):
        extract_factor(t, ts, 1, ct)


def test_exact_factors_transfer_exactly():
    f1 = full_trig_space(1)
    f2 = full_trig_space(2)
    t = tensor_product([f1, f2])
    p1 = generate_points(f1, "equispaced", 3)
    p2 = generate_points(f2, "equispaced", 5)
    ts = generate_points(t, "tensor", factors=[p1, p2])
    ct = certify(t, ts, 2)
    fac_set, transferred = extract_factor(t, ts, 0, ct)
    assert transferred.c1_pow == pytest.approx(1.0, abs=1e-9)
    assert transferred.c2_pow == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# leverage weights and the flat-system sampling budget


def test_leverage_weight_sum_concentrates():
    sp = full_trig_space(2)
    sums = [float(np.sum(generate_points(sp, "leverage", 15, seed=s).weights)) for s in range(100)]
    assert np.mean([s <= 2.0 for s in sums]) >= 0.95
    assert np.allclose(sums, 1.0, atol=1e-9)  # exactly 1 for flat systems


def test_flat_system_sampling_budget():
    # enough random points certify well with high empirical probability
    sp = full_trig_space(2)
    n = sp.dim
    m = 32 * n
    hits = 0
    for seed in range(20):
        cert = certify(sp, generate_points(sp, "iid", m, seed=(99, seed)), 2)
        hits += cert.meets(0.5)
    assert hits >= 18


# ---------------------------------------------------------------------------
# two-stage subsampling


def test_two_stage_reaches_band():
    sp = full_trig_space(2)
    subset, cert = two_stage_subsample(sp, 2, 0.5, TwoStageBudget(500, 60, 40), seed=1)
    assert subset.m == 60
    assert cert.c1_pow >= 0.5
    assert cert.c2_pow <= 1.5


def test_two_stage_degenerate_subset_is_stage_one():
    sp = full_trig_space(1)
    subset, cert = two_stage_subsample(sp, 2, 0.5, TwoStageBudget(50, 50, 5), seed=2)
    assert subset.m == 50
    again = certify(sp, subset, 2)
    assert cert.c1_pow == pytest.approx(again.c1_pow, abs=1e-12)


def test_two_stage_budget_exhaustion():
    sp = full_trig_space(2)
    with pytest.raises(BudgetExhaustedError) as info:
        two_stage_subsample(sp, 2, 0.5, TwoStageBudget(100, 2, 3), seed=3)
    assert info.value.best_certificate is not None
    assert info.value.best_certificate.c1_pow <= 1e-10  # rank-deficient subsets


# ---------------------------------------------------------------------------
# minimal m search


def test_minimal_m_search_needs_at_least_dimension():
    sp = full_trig_space(2)
    res = minimal_m_search(sp, 2, 0.5, 10, 0.9, seed=4)
    assert res.m_star >= sp.dim
    assert all(pt.trials == 10 for pt in res.curve)


def test_minimal_m_search_deterministic():
    sp = full_trig_space(1)
    a = minimal_m_search(sp, 2, 0.5, 10, 0.9, seed=6)
    b = minimal_m_search(sp, 2, 0.5, 10, 0.9, seed=6)
    assert a.m_star == b.m_star
    assert success_curve_csv(a.curve) == success_curve_csv(b.curve)


def test_minimal_m_search_refuses_m_max_past_the_cap_before_drawing(monkeypatch):
    # m_max = 1e200 asked numpy for an m_max x N array and failed inside the draw
    drawn = []
    monkeypatch.setattr(discretization, "generate_points", lambda *a, **k: drawn.append(a))
    sp = full_trig_space(2)
    for m_max in (norms._MAX_GRID // sp.dim + 1, 10 ** 200):
        with pytest.raises(InvalidSampleError, match="basis matrix"):
            minimal_m_search(sp, 2, 0.5, 5, 0.9, seed=1, m_max=m_max)
    assert drawn == []


def test_minimal_m_search_failure_carries_curve():
    sp = full_trig_space(2)
    with pytest.raises(SearchFailedError) as info:
        minimal_m_search(sp, 2, 0.01, 5, 0.99, seed=7, m_max=sp.dim + 2)
    assert len(info.value.curve) >= 1


# ---------------------------------------------------------------------------
# frame brackets and probe pruning


def _bracket_case(n, m, p, seed):
    sp = make_lacunary_space(n, 2)
    return sp, generate_points(sp, "iid", m, seed=(seed, m))


# lacunary K = {1, 2, 4, ...}: |2K| = 3 and 6 at n = 2 and 3, |3K| = 4 and 9;
# sK is built when s (n - 1) < m, and c1_lower is 0 when |sK| > m
@pytest.mark.parametrize("n,m,p,built,full", [
    (2, 2, 4, False, False), (3, 4, 4, False, False), (3, 5, 4, True, False), (2, 9, 4, True, True),
    (3, 30, 4, True, True), (2, 3, 6, False, False), (3, 6, 6, False, False), (3, 7, 6, True, False),
    (2, 20, 6, True, True), (3, 45, 6, True, True),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_frame_bracket_holds_the_estimate(n, m, p, built, full, seed):
    cert = certify(*_bracket_case(n, m, p, seed), p, budget=8)
    assert cert.method == "optimization-bound"
    assert (cert.c2_upper is not None) == built
    assert (cert.c1_lower > 0) == full
    assert cert.c1_lower * (1 - 1e-12) <= cert.c1_pow
    assert not built or cert.c2_pow <= cert.c2_upper * (1 + 1e-12)


@pytest.mark.parametrize("n,m,p", [(3, 5, 4), (3, 30, 4), (2, 20, 6), (3, 60, 6)])
def test_frame_bracket_does_not_depend_on_point_order(n, m, p):
    sp, pts = _bracket_case(n, m, p, 3)
    shuffled = PointSet(pts.points[np.random.default_rng(m).permutation(m)])
    a, b = certify(sp, pts, p, budget=2), certify(sp, shuffled, p, budget=2)
    assert b.c1_lower == pytest.approx(a.c1_lower, rel=1e-12, abs=1e-15)
    assert b.c2_upper == pytest.approx(a.c2_upper, rel=1e-12)


@pytest.mark.parametrize("n,m,p", [(2, 6, 4), (2, 12, 6), (3, 20, 4)])
def test_oracle_lies_in_the_frame_bracket(n, m, p):
    sp, pts = _bracket_case(n, m, p, 4)
    cert = certify(sp, pts, p, budget=2)
    oracle = brute_force_certificate(sp, pts, p)
    assert cert.c1_lower > 0
    assert oracle.c1_pow >= cert.c1_lower - oracle.tolerance
    assert oracle.c2_pow <= cert.c2_upper + oracle.tolerance


def test_p2_and_exact_quadrature_certificates_carry_their_bracket():
    sp = make_lacunary_space(2, 2)
    cert = certify(sp, generate_points(sp, "iid", 9, seed=1), 2)
    assert (cert.c1_lower, cert.c2_upper) == (cert.c1_pow, cert.c2_pow)
    cert = certify(sp, generate_points(sp, "equispaced", 5), 4)
    assert cert.method == "exact-quadrature"
    assert cert.c1_lower == pytest.approx(1.0, abs=1e-12) and cert.c2_upper == pytest.approx(1.0, abs=1e-12)
    cert = certify(sp, generate_points(sp, "iid", 9, seed=1), 3, budget=2)
    assert (cert.c1_lower, cert.c2_upper) == (None, None)


def _every_trial(space, p, eps, trials, seed, budget, ms):
    # the probes before pruning: certify every trial at each size
    points = []
    for m in ms:
        certs = [certify(space, generate_points(space, "iid", m, seed=(seed, m, t)), p, budget=budget)
                 for t in range(trials)]
        points.append(discretization.CurvePoint(m, trials, sum(c.meets(eps) for c in certs),
                                                min(c.c1_pow for c in certs), max(c.c2_pow for c in certs)))
    return points


def _pruned_search(space, p, eps, seed, monkeypatch, caplog, trials=6, m_max=None):
    """The curve of minimal_m_search, each probed trial's log mark, and the
    (m, trial) of every trial whose points reached the optimizer."""
    reached = []
    optimize = _optim.extremize_ratio
    monkeypatch.setattr(_optim, "extremize_ratio", lambda U, *a, **kw: reached.append(U) or optimize(U, *a, **kw))
    with caplog.at_level(logging.DEBUG, logger="sampdisc.discretization"):
        try:
            curve = minimal_m_search(space, p, eps, trials, 0.5, seed=seed, m_max=m_max, budget=4).curve
        except SearchFailedError as exc:
            curve = exc.curve
    marks = {(int(m), int(t)): mark for m, t, mark in
             re.findall(r"probe m=(\d+) trial=(\d+) stream=\S+ (searched|decided)", caplog.text)}
    caplog.clear()
    values = {key: space.basis_values(generate_points(space, "iid", key[0], seed=(seed, *key)).points)
              for key in marks}
    hits = [key for key in marks if any(np.array_equal(U, values[key]) for U in reached)]
    assert len(hits) == len(reached)
    return curve, marks, set(hits)


@pytest.mark.parametrize("n,p", [(2, 4), (2, 6), (3, 4), (3, 6)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruned_probes_give_the_curve_of_every_trial(n, p, seed, monkeypatch, caplog):
    sp = make_lacunary_space(n, 2)
    curve, marks, reached = _pruned_search(sp, p, 0.5, seed, monkeypatch, caplog)
    assert len(marks) == 6 * len(curve)
    assert reached == {key for key, mark in marks.items() if mark == "searched"}
    assert len(reached) < len(marks)  # some trial was decided and never searched
    monkeypatch.undo()
    assert curve == _every_trial(sp, p, 0.5, 6, seed, 4, [pt.m for pt in curve])


def test_pruned_probes_search_every_undecided_trial(monkeypatch, caplog):
    # at eps = 0.95 every trial's bracket and start ratios leave the band test
    # open at m = 2 and 3 (seed 10, 3 trials, found by a scan of seeds < 60),
    # so every trial is searched
    sp = make_lacunary_space(2, 2)
    decided = []
    verdict = discretization._Search.verdict
    monkeypatch.setattr(discretization._Search, "verdict",
                        lambda self, eps: decided.append(verdict(self, eps)) or decided[-1])
    curve, marks, reached = _pruned_search(sp, 4, 0.95, 10, monkeypatch, caplog, trials=3, m_max=3)
    assert decided and set(decided) == {None}
    assert reached == set(marks)
    monkeypatch.undo()
    assert curve == _every_trial(sp, 4, 0.95, 3, 10, 4, [pt.m for pt in curve])


@pytest.mark.parametrize("p", [2, 3])
def test_probes_without_a_bracket_work_as_before(p, monkeypatch, caplog):
    # p = 2 is final before any search; p = 3 has no frame, so every trial is searched
    sp = make_lacunary_space(2, 2)
    curve, marks, reached = _pruned_search(sp, p, 0.5, 1, monkeypatch, caplog, trials=3, m_max=40)
    assert reached == (set() if p == 2 else set(marks))
    assert set(marks.values()) == {"decided" if p == 2 else "searched"}
    monkeypatch.undo()
    assert curve == _every_trial(sp, p, 0.5, 3, 1, 4, [pt.m for pt in curve])


def test_success_curve_csv_format():
    sp = full_trig_space(1)
    res = minimal_m_search(sp, 2, 0.5, 5, 0.8, seed=8)
    csv = success_curve_csv(res.curve)
    assert csv.splitlines()[0] == "m,trials,successes,c1_min,c2_max"
    assert len(csv.splitlines()) == len(res.curve) + 1


def test_equispaced_full_grid_in_two_dimensions():
    t = tensor_product([full_trig_space(1), full_trig_space(1)])
    pts = generate_points(t, "equispaced", sizes=[3, 4])
    assert pts.m == 12
    assert pts.points.shape == (12, 2)


def test_sup_certificate_shape():
    sp = full_trig_space(1)
    cert = certify(sp, generate_points(sp, "equispaced", 7), math.inf, budget=8)
    assert cert.c2_pow == 1.0
    assert 0 < cert.c1_pow <= 1.0
    assert cert.status == "heuristic"


def test_two_stage_deterministic():
    sp = full_trig_space(1)
    budget = TwoStageBudget(120, 25, 20)
    s1, c1 = two_stage_subsample(sp, 2, 0.5, budget, seed=10)
    s2, c2 = two_stage_subsample(sp, 2, 0.5, budget, seed=10)
    assert np.array_equal(s1.points, s2.points)
    assert c1.c1_pow == c2.c1_pow
