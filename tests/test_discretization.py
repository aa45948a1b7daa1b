"""Tests for point generation, certification, subsampling, and m-search."""

import logging
import math

import numpy as np
import pytest

from sampdisc import (
    CoefficientVector,
    DiscreteSpace,
    TwoStageBudget,
    WeightedPointSet,
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
from sampdisc.discretization import PointSet
from sampdisc.errors import (
    BudgetExhaustedError,
    InvalidSampleError,
    FactorExtractionError,
    InvalidExponentError,
    MissingSeedError,
    OracleTooLargeError,
    SearchFailedError,
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
    assert isinstance(lev, WeightedPointSet)
    assert np.allclose(lev.weights, 1 / 30, atol=1e-12)
    assert lev.weight_sum == pytest.approx(1.0, abs=1e-12)


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


def test_weighted_point_set_validates():
    with pytest.raises(Exception):
        WeightedPointSet(np.zeros((3, 1)), [1.0, -1.0, 1.0])


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
    assert isinstance(lev, WeightedPointSet)
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


@pytest.mark.parametrize("p,seed", [(2, 21), (3, 22), (4, 23)])
def test_certify_agrees_with_oracle(p, seed):
    sp = make_trig_space(1, [[0], [1], [3]])
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
    sums = [generate_points(sp, "leverage", 15, seed=s).weight_sum for s in range(100)]
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


def test_minimal_m_search_equispaced_diagnostic():
    sp = full_trig_space(2)
    res = minimal_m_search(sp, 2, 0.5, 3, 0.9, seed=5, generator="equispaced")
    assert res.m_star == sp.dim


def test_minimal_m_search_deterministic():
    sp = full_trig_space(1)
    a = minimal_m_search(sp, 2, 0.5, 10, 0.9, seed=6)
    b = minimal_m_search(sp, 2, 0.5, 10, 0.9, seed=6)
    assert a.m_star == b.m_star
    assert success_curve_csv(a.curve) == success_curve_csv(b.curve)


def test_minimal_m_search_failure_carries_curve():
    sp = full_trig_space(2)
    with pytest.raises(SearchFailedError) as info:
        minimal_m_search(sp, 2, 0.01, 5, 0.99, seed=7, m_max=sp.dim + 2)
    assert len(info.value.curve) >= 1


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
