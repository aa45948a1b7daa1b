"""Tests for norms, best approximation, and conditioning constants."""

import math

import numpy as np
import pytest

from sampdisc import (
    CoefficientVector,
    DiscreteSpace,
    best_approx,
    christoffel_sup,
    discrete_norm,
    make_lacunary_space,
    make_trig_space,
    nikolskii_constant,
    norm_p,
    norm_sup,
    tensor_product,
)
from sampdisc import _optim
from sampdisc.errors import (
    DegenerateSpaceError,
    InvalidExponentError,
    InvalidWeightError,
    UnsupportedNormError,
)
from sampdisc.discretization import PointSet, WeightedPointSet
from sampdisc.norms import SampleVector, torus_grid
from sampdisc.recovery import lpw_recover

TWO_PI = 2 * math.pi


def full_trig_space(degree):
    return make_trig_space(1, [[k] for k in range(-degree, degree + 1)])


# ---------------------------------------------------------------------------
# norm_p


def test_unimodular_norm_is_one():
    sp = make_trig_space(1, [[3]])
    f = CoefficientVector(sp, [1])
    for p in (1, 2, 3, 4, 7.5):
        assert norm_p(f, p) == pytest.approx(1.0, abs=1e-9)


def test_parseval_two_term():
    sp = make_trig_space(1, [[1], [-1]])
    f = CoefficientVector(sp, [1, 1])
    assert norm_p(f, 2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_cosine_fourth_power():
    # (1/2pi) * integral (2 cos x)^4 dx = 6, so the L4 norm is 6**(1/4)
    sp = make_trig_space(1, [[1], [-1]])
    f = CoefficientVector(sp, [1, 1])
    assert norm_p(f, 4) == pytest.approx(6 ** 0.25, abs=1e-12)
    # independent oracle: plain Riemann mean on a 10x finer grid
    xs = np.arange(50_000) * (TWO_PI / 50_000)
    oracle = (np.mean(np.abs(2 * np.cos(xs)) ** 4)) ** 0.25
    assert norm_p(f, 4) == pytest.approx(oracle, abs=1e-10)


def test_even_p_exactness_against_finer_grid():
    rng = np.random.default_rng(5)
    sp = full_trig_space(3)
    f = CoefficientVector(sp, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    for p in (2, 4, 6):
        nodes = p * 3 + 1
        xs = np.arange(10 * nodes) * (TWO_PI / (10 * nodes))
        fine = (np.mean(np.abs(np.asarray(
            sp.basis_values(xs) @ f.coefficients)) ** p)) ** (1 / p)
        assert norm_p(f, p) == pytest.approx(fine, abs=1e-12)


def test_parseval_random():
    rng = np.random.default_rng(6)
    sp = full_trig_space(4)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = CoefficientVector(sp, c)
    assert norm_p(f, 2) ** 2 == pytest.approx(float(np.sum(np.abs(c) ** 2)), abs=1e-12)


def test_norm_p_rejects_small_exponent():
    sp = full_trig_space(1)
    with pytest.raises(InvalidExponentError):
        norm_p(CoefficientVector(sp, [1, 0, 1]), 0.5)


def test_norm_p_finite_domain_exact():
    sp = DiscreteSpace(np.array([[1.0, 1.0], [1.0, -1.0]]))
    f = CoefficientVector(sp, [1, 1])  # values (2, 0)
    assert norm_p(f, 3) == pytest.approx((0.5 * 8) ** (1 / 3))


# ---------------------------------------------------------------------------
# norm_sup


def test_sup_of_cosine():
    sp = make_trig_space(1, [[1], [-1]])
    assert norm_sup(CoefficientVector(sp, [1, 1])) == pytest.approx(2.0, rel=1e-9)


def test_sup_of_dirichlet_numerator():
    sp = full_trig_space(2)
    f = CoefficientVector(sp, np.ones(5))
    assert norm_sup(f) == pytest.approx(5.0, rel=1e-9)


def test_sup_against_dense_grid():
    rng = np.random.default_rng(7)
    sp = full_trig_space(2)
    f = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    xs = np.arange(1_000_000) * (TWO_PI / 1_000_000)
    dense = float(np.max(np.abs(sp.basis_values(xs) @ f.coefficients)))
    assert norm_sup(f) == pytest.approx(dense, rel=1e-6)


# ---------------------------------------------------------------------------
# discrete norms


def test_discrete_norm_constant():
    vals = np.full(10, 3.0 - 4.0j)
    for p in (1, 2, 4):
        assert discrete_norm(vals, p) == pytest.approx(5.0)


def test_discrete_norm_sup():
    assert discrete_norm(np.array([1.0, -1.0]), math.inf) == pytest.approx(1.0)


def test_discrete_norm_hand_weighted():
    assert discrete_norm(np.array([3.0, 4.0]), 2, weights=[0.5, 0.5]) == pytest.approx(
        math.sqrt(12.5)
    )


def test_discrete_norm_rejects_bad_weights():
    with pytest.raises(InvalidWeightError):
        discrete_norm(np.array([1.0, 2.0]), 2, weights=[0.5, -0.5])
    with pytest.raises(UnsupportedNormError):
        discrete_norm(np.array([1.0, 2.0]), math.inf, weights=[0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["WeightedPointSet", "discrete_norm", "lpw_recover"])
def test_non_finite_weights_rejected(entry, bad):
    # nan <= 0 is False, so a positivity test alone lets NaN through
    weights = [bad, 1.0, 1.0]
    pts = np.array([[0.0], [2.0], [4.0]])
    with pytest.raises(InvalidWeightError):
        if entry == "WeightedPointSet":
            WeightedPointSet(pts, weights)
        elif entry == "discrete_norm":
            discrete_norm([1.0, 2.0, 3.0], 2, weights=weights)
        else:
            lpw_recover(SampleVector([1.0, 2.0, 3.0], PointSet(pts)), full_trig_space(1), 2, weights)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_discrete_norm_monotone_in_p(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    norms = [discrete_norm(vals, p) for p in (1, 2, 4)] + [discrete_norm(vals, math.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# best approximation


def test_projection_of_orthogonal_exponential():
    sp = make_trig_space(1, [[1]])
    target = CoefficientVector(make_trig_space(1, [[2]]), [1])
    proj, dist = best_approx(target, sp, 2)
    assert np.max(np.abs(proj.coefficients)) <= 1e-12
    assert dist == pytest.approx(1.0, abs=1e-9)


def test_projection_recovers_member():
    rng = np.random.default_rng(8)
    sp = full_trig_space(2)
    f = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    proj, dist = best_approx(f, sp, 2)
    assert dist <= 1e-10
    assert np.max(np.abs(proj.coefficients - f.coefficients)) <= 1e-10


def test_projection_residual_is_gram_orthogonal():
    sp = full_trig_space(1)
    target = lambda x: np.cos(2 * x) + 0.3 * np.sin(x)  # noqa: E731
    proj, _ = best_approx(target, sp, 2)
    xs = torus_grid([4096])
    V = sp.basis_values(xs)
    resid = target(xs[:, 0]) - V @ proj.coefficients
    inner = V.conj().T @ resid / xs.shape[0]
    assert np.max(np.abs(inner)) <= 1e-10


def test_minimax_of_higher_cosine():
    # cos(2x) against degree-1 space: the best sup approximation is zero
    sp = full_trig_space(1)
    proj, dist = best_approx(lambda x: np.cos(2 * x), sp, math.inf)
    assert dist == pytest.approx(1.0, rel=1e-3)
    assert np.max(np.abs(proj.coefficients)) <= 1e-3
    # oracle: dense-grid minimax of cos(2x) - u for the returned u is the
    # distance itself, and no coefficient perturbation does better
    xs = np.arange(200_001) * (TWO_PI / 200_001)
    dense = float(np.max(np.abs(np.cos(2 * xs) - sp.basis_values(xs) @ proj.coefficients)))
    assert dense <= dist * (1 + 1e-3) + 1e-9


def test_general_p_descent_beats_projection():
    sp = full_trig_space(1)
    target = lambda x: np.cos(2 * x) + 0.5 * np.cos(x) ** 2  # noqa: E731
    proj4, dist4 = best_approx(target, sp, 4)
    _, dist2 = best_approx(target, sp, 2)
    # the L4-optimal residual has smaller L4 norm than the L2 projection's
    xs = torus_grid([8192])
    r2 = np.abs(target(xs[:, 0]) - sp.basis_values(xs) @ best_approx(target, sp, 2)[0].coefficients)
    l4_of_l2 = float(np.mean(r2 ** 4) ** 0.25)
    assert dist4 <= l4_of_l2 + 1e-9


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_pnorm_objective_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(9)
    sp = full_trig_space(1)
    xs = torus_grid([64])
    V = sp.basis_values(xs)
    gamma = np.full(64, 1 / 64)
    t = np.cos(2 * xs[:, 0]) + 0.2

    def value(c):
        return float(np.sum(gamma * np.abs(t - V @ c) ** p))

    # the gradient of the residual solver shared by best_approx and lpw_recover
    h = 1e-6
    for _ in range(10):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = _optim.residual_gradient(V.conj().T, gamma, t - V @ c, p)
        for i in range(3):
            e = np.zeros(3, dtype=complex)
            e[i] = h
            fd_re = (value(c + e) - value(c - e)) / (2 * h)
            fd_im = (value(c + 1j * e) - value(c - 1j * e)) / (2 * h)
            scale = max(1.0, abs(g[i]))
            assert abs(fd_re - g[i].real) <= 1e-5 * scale
            assert abs(fd_im - g[i].imag) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# Christoffel and Nikolskii constants


def test_christoffel_flat_for_trig():
    assert christoffel_sup(full_trig_space(3)) == 1.0
    assert christoffel_sup(make_lacunary_space(4, 2)) == 1.0


def test_christoffel_hand_example():
    sp = DiscreteSpace(np.eye(2))
    assert christoffel_sup(sp) == pytest.approx(1.0, abs=1e-12)


def test_christoffel_degenerate_basis():
    sp = DiscreteSpace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateSpaceError):
        christoffel_sup(sp)


@pytest.mark.parametrize("N", [3, 5, 9, 17])
def test_nikolskii_q2_flat(N):
    deg = (N - 1) // 2
    est = nikolskii_constant(full_trig_space(deg), 2)
    assert est.M == pytest.approx(math.sqrt(N), abs=1e-10)
    assert est.B == pytest.approx(1.0, abs=1e-10)
    assert est.method == "analytic"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nikolskii_q2_lacunary(n):
    est = nikolskii_constant(make_lacunary_space(n, 2), 2)
    assert est.M == pytest.approx(math.sqrt(n), abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nikolskii_q4_lacunary_upper_bound(n):
    est = nikolskii_constant(make_lacunary_space(n, 2), 4)
    assert est.method == "grid-search"
    assert est.B <= n ** 0.25 + 1e-6
    # the aligned-peak element already gives a ratio of order sqrt(n)
    assert est.M >= 0.5 * math.sqrt(n)


def test_nikolskii_q2_christoffel_identity():
    for sp in (full_trig_space(2), DiscreteSpace(np.array([[1.0, 0.5], [0.2, 1.0], [0.1, -0.3]]))):
        est = nikolskii_constant(sp, 2)
        t = christoffel_sup(sp)
        assert est.M == pytest.approx(t * math.sqrt(sp.dim), abs=1e-10)


def test_nikolskii_rejects_bad_exponent():
    with pytest.raises(InvalidExponentError):
        nikolskii_constant(full_trig_space(1), 0.5)


def test_tensor_nikolskii_q2_multiplicative():
    f1 = full_trig_space(1)
    f2 = full_trig_space(2)
    t = tensor_product([f1, f2])
    m1 = nikolskii_constant(f1, 2).M
    m2 = nikolskii_constant(f2, 2).M
    mt = nikolskii_constant(t, 2).M
    assert mt == pytest.approx(m1 * m2, abs=1e-8)


def test_tensor_nikolskii_q4_bounded_by_product():
    f1 = make_lacunary_space(2, 2)
    f2 = make_lacunary_space(2, 2)
    t = tensor_product([f1, f2])
    m1 = nikolskii_constant(f1, 4).M
    m2 = nikolskii_constant(f2, 4).M
    mt = nikolskii_constant(t, 4).M
    assert mt <= m1 * m2 * (1 + 1e-6)


def test_nikolskii_q4_two_term_spaces_exact():
    # f = a e_k + b e_l with |a|^2 + |b|^2 = 1 and u = |ab| has
    # (sup |f| / ||f||_4)^4 = (1 + 2u)^2 / (1 + 2u^2), increasing up to u = 1/2
    exact = (8 / 3) ** 0.25
    spectra = [[[k], [l]] for k in range(-4, 5) for l in range(k + 1, 5)]
    spectra += [[[0, 0], [1, 1]], [[1, 0], [0, 2]]]
    for spectrum in spectra:
        est = nikolskii_constant(make_trig_space(len(spectrum[0]), spectrum), 4)
        assert est.method == "grid-search"
        assert est.M == pytest.approx(exact, rel=1e-12), spectrum


def test_nikolskii_grid_search_lower_bounds_hold():
    # spaces containing the constants give M >= 1, i.e. B >= N**(-1/q)
    sp = full_trig_space(1)
    for q in (1.5, 3, 5):
        est = nikolskii_constant(sp, q)
        assert est.M >= 1 - 1e-9
        assert est.B >= sp.dim ** (-1 / q) - 1e-9
