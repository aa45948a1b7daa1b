"""Tests for sample recovery and the certified error bound."""

import math

import numpy as np
import pytest

from sampdisc import (
    CoefficientVector,
    Certificate,
    LpwRegressor,
    PointSet,
    SampleVector,
    best_approx,
    certify,
    evaluate,
    generate_points,
    lpw_recover,
    make_trig_space,
    norm_p,
    recovery_bound,
    sample_function,
    verify_recovery,
)
from sampdisc.errors import (
    HeuristicCertificateError,
    InvalidSampleError,
    InvalidWeightError,
    UnboundedBoundError,
)
from sampdisc import recovery
from sampdisc.norms import torus_grid

TWO_PI = 2 * math.pi


def full_trig_space(degree):
    return make_trig_space(1, [[k] for k in range(-degree, degree + 1)])


def uniform(m):
    return np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------
# the recovery operator


def test_member_recovered_exactly():
    rng = np.random.default_rng(31)
    sp = full_trig_space(2)
    f = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    pts = generate_points(sp, "iid", 12, seed=32)
    res = lpw_recover(sample_function(f, pts), sp, 2, uniform(12))
    assert np.max(np.abs(res.coefficients.coefficients - f.coefficients)) <= 1e-10
    assert res.discrete_residual <= 1e-10
    assert not res.degenerate


def test_invisible_perturbation_is_ignored():
    # v vanishes at all 6 equispaced nodes, so f = u + v recovers u exactly
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 6)
    rng = np.random.default_rng(33)
    u = CoefficientVector(sp, rng.standard_normal(3))
    f = lambda x: evaluate(u, x) + (np.exp(6j * x) - 1.0)  # noqa: E731
    res = lpw_recover(sample_function(f, pts), sp, 2, uniform(6))
    assert np.max(np.abs(res.coefficients.coefficients - u.coefficients)) <= 1e-10


def test_cos2x_anchor_projects_to_zero():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 9)
    res = lpw_recover(sample_function(lambda x: np.cos(2 * x), pts), sp, 2, uniform(9))
    assert np.max(np.abs(res.coefficients.coefficients)) <= 1e-12
    # the L2 error of recovering zero is the norm of cos(2x)
    err_space = make_trig_space(1, [[2], [-2]])
    err = CoefficientVector(err_space, [0.5, 0.5])
    assert norm_p(err, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_p2_residual_orthogonality():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 9, seed=34)
    w = np.linspace(0.5, 1.5, 9)
    w /= w.sum()
    samples = sample_function(lambda x: np.cos(3 * x) + 0.2, pts)
    res = lpw_recover(samples, sp, 2, w)
    U = sp.basis_values(pts.points)
    r = samples.values - U @ res.coefficients.coefficients
    assert np.max(np.abs(U.conj().T @ (w * r))) <= 1e-9


def test_p2_linearity():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 8, seed=35)
    rng = np.random.default_rng(36)
    ya = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    yb = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = uniform(8)
    ca = lpw_recover(SampleVector(ya, pts), sp, 2, w).coefficients.coefficients
    cb = lpw_recover(SampleVector(yb, pts), sp, 2, w).coefficients.coefficients
    cab = lpw_recover(SampleVector(2 * ya + 1j * yb, pts), sp, 2, w).coefficients.coefficients
    assert np.max(np.abs(cab - (2 * ca + 1j * cb))) <= 1e-10


def test_recovery_idempotent():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 10, seed=37)
    w = uniform(10)
    first = lpw_recover(sample_function(lambda x: np.cos(2 * x) + np.sin(x), pts), sp, 2, w)
    again = lpw_recover(sample_function(first.coefficients, pts), sp, 2, w)
    assert np.max(np.abs(again.coefficients.coefficients
                         - first.coefficients.coefficients)) <= 1e-10


@pytest.mark.parametrize("p", [2, 3, math.inf])
def test_sample_vector_must_match_its_points(p):
    sp = full_trig_space(2)
    pts = generate_points(sp, "equispaced", 8)
    with pytest.raises(InvalidSampleError, match="6 sample values for 8 points"):
        lpw_recover(SampleVector(np.ones(6), pts), sp, p, uniform(6))


def test_member_recovery_weight_invariant():
    rng = np.random.default_rng(38)
    sp = full_trig_space(1)
    f = CoefficientVector(sp, rng.standard_normal(3))
    pts = generate_points(sp, "iid", 7, seed=39)
    samples = sample_function(f, pts)
    for w in (uniform(7), np.linspace(0.1, 2.0, 7)):
        res = lpw_recover(samples, sp, 4, w)
        assert np.max(np.abs(res.coefficients.coefficients - f.coefficients)) <= 1e-8
        kept = w.copy()
        w[0] = 5.0  # the result holds its own copy of the weights
        assert np.array_equal(res.weights_used, kept)


def test_rank_deficient_system_flagged():
    sp = full_trig_space(2)
    pts = generate_points(sp, "iid", 3, seed=40)
    res = lpw_recover(sample_function(lambda x: np.cos(x), pts), sp, 2, uniform(3))
    assert res.degenerate


def test_p4_convexity_of_returned_minimizer():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 11, seed=41)
    w = uniform(11)
    samples = sample_function(lambda x: np.cos(2 * x) + 0.3 * np.sin(3 * x), pts)
    res = lpw_recover(samples, sp, 4, w)
    c = res.coefficients.coefficients
    U = sp.basis_values(pts.points)

    def objective(cc):
        return float(np.sum(w * np.abs(samples.values - U @ cc) ** 4))

    base = objective(c)
    rng = np.random.default_rng(42)
    for _ in range(100):
        delta = 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert objective(c + delta) >= base - 1e-12
    assert res.optimizer_report["final_grad_norm"] <= 1e-6


@pytest.mark.parametrize("weights", [uniform(40), np.linspace(0.5, 1.5, 40)])
def test_p_inf_reports_lawson_lower_bound(weights):
    sp = full_trig_space(2)
    pts = generate_points(sp, "iid", 40, seed=48)
    samples = sample_function(lambda x: np.abs(np.sin(x)) ** 1.5, pts)
    res = lpw_recover(samples, sp, math.inf, weights)
    assert 0 < res.optimizer_report["lower_bound"] <= res.discrete_residual


def test_p_inf_recovery_matches_best_approx_on_its_grid():
    # recovery and best approximation at p = inf run the same Lawson loop;
    # 512 nodes is best_approx's minimax grid for a degree-2 space
    sp = full_trig_space(2)
    target = lambda x: np.tanh(4 * np.sin(x))  # noqa: E731
    grid = PointSet(torus_grid([512]))
    res = lpw_recover(sample_function(target, grid), sp, math.inf, uniform(512))
    _, dist = best_approx(target, sp, math.inf)
    assert res.discrete_residual == pytest.approx(dist, rel=0, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3, 4])
def test_finite_p_recovery_matches_best_approx_on_its_grid(p):
    # one residual solver serves both; 2048 nodes is best_approx's grid for
    # this degree-8 target
    sp = full_trig_space(8)
    target = lambda x: np.maximum(np.cos(x), 0.0) ** 2  # noqa: E731
    grid = PointSet(torus_grid([2048]))
    res = lpw_recover(sample_function(target, grid), sp, p, uniform(2048))
    _, dist = best_approx(target, sp, p)
    assert res.discrete_residual == pytest.approx(dist, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1.5, 3, 4])
def test_finite_p_recovery_is_scale_equivariant(p):
    # every stopping and clipping rule of the solver is relative, so scaling
    # the data scales the fit; an absolute stopping scale returned the p = 2
    # start for small data and stopped early for large data
    sp = full_trig_space(8)
    pts = generate_points(sp, "iid", 120, seed=1)
    y = np.maximum(np.cos(pts.points[:, 0]), 0.0) ** 2
    ref = lpw_recover(SampleVector(y, pts), sp, p, uniform(120))
    c_ref = ref.coefficients.coefficients
    for a in (1e-3, 1.0, 1e3):
        res = lpw_recover(SampleVector(a * y, pts), sp, p, uniform(120))
        c = res.coefficients.coefficients
        assert np.max(np.abs(c - a * c_ref)) <= 1e-8 * a * np.max(np.abs(c_ref))
        assert res.discrete_residual == pytest.approx(a * ref.discrete_residual, rel=1e-8, abs=0)


def test_verify_recovery_p4_fit_ends_on_gradient_test(monkeypatch):
    # 33 equispaced nodes on the degree-8 space: the p = 4 fit of |sin x|^3
    # starts with a gradient norm of about 2e-9 and must still be minimized,
    # not returned as the p = 2 start, which lies 9 % above the minimum
    sp = full_trig_space(8)
    pts = generate_points(sp, "equispaced", 33)
    f = lambda x: np.abs(np.sin(x)) ** 3  # noqa: E731
    fits = []

    def recording(*args):
        fits.append(lpw_recover(*args))
        return fits[-1]

    monkeypatch.setattr(recovery, "lpw_recover", recording)
    assert verify_recovery(f, sp, pts, 4).holds
    (fit,) = fits
    assert fit.optimizer_report["stop"] == "gradient"
    samples = sample_function(f, pts)
    start = lpw_recover(samples, sp, 2, uniform(33)).coefficients.coefficients
    U = sp.basis_values(pts.points)
    start_residual = float(np.mean(np.abs(samples.values - U @ start) ** 4)) ** 0.25
    assert fit.discrete_residual <= 0.95 * start_residual


def test_p4_deterministic():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 9, seed=43)
    samples = sample_function(lambda x: np.cos(2 * x), pts)
    a = lpw_recover(samples, sp, 4, uniform(9))
    b = lpw_recover(samples, sp, 4, uniform(9))
    assert np.array_equal(a.coefficients.coefficients, b.coefficients.coefficients)


# ---------------------------------------------------------------------------
# the error bound


def test_bound_for_perfect_certificate():
    cert = Certificate(2.0, 1.0, 1.0, "exact-eigen", "certified")
    assert recovery_bound(cert, uniform(9)) == pytest.approx(3.0)


def test_bound_for_half_certificate():
    cert = Certificate(2.0, 0.5, 1.2, "exact-eigen", "certified")
    assert recovery_bound(cert, uniform(9)) == pytest.approx(2 * math.sqrt(2) + 1)


def test_bound_refuses_heuristic():
    cert = Certificate(3.0, 0.9, 1.1, "optimization-bound", "heuristic-upper-C1")
    with pytest.raises(HeuristicCertificateError):
        recovery_bound(cert, uniform(5))


def test_bound_rejects_zero_lower_constant():
    cert = Certificate(2.0, 0.0, 1.0, "exact-eigen", "certified")
    with pytest.raises(UnboundedBoundError):
        recovery_bound(cert, uniform(5))


def test_uniform_certificate_rejects_other_weights():
    cert = Certificate(2.0, 1.0, 1.0, "exact-eigen", "certified", weighted=False)
    with pytest.raises(InvalidWeightError):
        recovery_bound(cert, np.array([0.9, 0.1]))


@pytest.mark.parametrize("weights", [[math.nan, 0.5, 0.5], [-1.0, 0.5, 0.5], []])
def test_bound_rejects_bad_weights(weights):
    cert = Certificate(2.0, 0.5, 1.0, "exact-eigen", "certified", weighted=True)
    with pytest.raises(InvalidWeightError):
        recovery_bound(cert, weights)


def test_verify_recovery_member_trivial():
    rng = np.random.default_rng(44)
    sp = full_trig_space(1)
    f = CoefficientVector(sp, rng.standard_normal(3))
    pts = generate_points(sp, "equispaced", 7)
    report = verify_recovery(f, sp, pts, 2)
    assert report.lhs <= 1e-9
    assert report.holds


def test_verify_recovery_cos2x_anchor():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 9)
    report = verify_recovery(lambda x: np.cos(2 * x), sp, pts, 2)
    assert report.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert report.bound_constant == pytest.approx(3.0, abs=1e-9)
    assert report.rhs == pytest.approx(3.0, rel=1e-3)
    assert report.holds


def test_verify_recovery_p4_even_quadrature():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 9)
    report = verify_recovery(lambda x: np.cos(2 * x), sp, pts, 4)
    assert report.bound_constant == pytest.approx(3.0, abs=1e-9)
    assert report.holds


def test_verify_recovery_weighted_sample():
    sp = full_trig_space(1)
    lev = generate_points(sp, "leverage", 25, seed=45)
    report = verify_recovery(lambda x: np.cos(2 * x) + 0.1 * np.sin(x), sp, lev, 2)
    assert report.c2_weights == pytest.approx(1.0, abs=1e-9)
    assert report.holds


def test_verify_recovery_refuses_heuristic_p3():
    sp = full_trig_space(1)
    pts = generate_points(sp, "iid", 12, seed=46)
    with pytest.raises(HeuristicCertificateError):
        verify_recovery(lambda x: np.cos(2 * x), sp, pts, 3)


# ---------------------------------------------------------------------------
# estimator facade


def test_regressor_round_trip():
    rng = np.random.default_rng(47)
    sp = full_trig_space(2)
    f = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    xs = rng.uniform(0, TWO_PI, 20)
    reg = LpwRegressor(space=sp).fit(xs, evaluate(f, xs))
    assert np.max(np.abs(reg.coef_ - f.coefficients)) <= 1e-9
    xnew = rng.uniform(0, TWO_PI, 6)
    assert np.max(np.abs(reg.predict(xnew) - evaluate(f, xnew))) <= 1e-9


def test_regressor_params_protocol():
    sp = full_trig_space(1)
    reg = LpwRegressor()
    assert reg.get_params() == {"space": None, "p": 2.0}
    reg.set_params(space=sp, p=4.0)
    assert reg.get_params()["p"] == 4.0
    clone = LpwRegressor(**reg.get_params())
    assert clone.space is sp


def test_regressor_validates_shapes():
    sp = full_trig_space(1)
    reg = LpwRegressor(space=sp)
    with pytest.raises(Exception):
        reg.fit(np.zeros((4, 2)), np.zeros(4))  # wrong point dimension
    with pytest.raises(Exception):
        reg.fit(np.zeros(4), np.zeros(5))  # length mismatch


def test_verify_recovery_p_inf_advisory_flag():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 12)
    report = verify_recovery(lambda x: np.cos(2 * x), sp, pts, math.inf)
    assert report.advisory
    assert report.holds


@pytest.mark.parametrize("p,keys", [(4, {"iterations", "rank", "stop", "final_grad_norm"}),
                                    (math.inf, {"iterations", "rank", "lower_bound"})])
def test_verify_recovery_keeps_the_solver_report(p, keys, monkeypatch):
    # the report of the lpw_recover fit the left side was measured on
    sp = full_trig_space(8)
    pts = generate_points(sp, "equispaced", 33)
    fits = []

    def recording(*args):
        fits.append(lpw_recover(*args))
        return fits[-1]

    monkeypatch.setattr(recovery, "lpw_recover", recording)
    report = verify_recovery(lambda x: np.abs(np.sin(x)) ** 3, sp, pts, p)
    (fit,) = fits
    assert report.optimizer_report == fit.optimizer_report
    assert set(report.optimizer_report) == keys
    assert report.to_dict()["optimizer"] == fit.optimizer_report
    assert report.optimizer_report["iterations"] >= 1
    assert report.optimizer_report["rank"] == sp.dim
