"""Tests for norms, best approximation, and conditioning constants."""

import math

import numpy as np
import pytest

from sampdisc import (
    Certificate,
    CoefficientVector,
    DiscreteSpace,
    best_approx,
    brute_force_certificate,
    certify,
    christoffel_sup,
    discrete_norm,
    generate_points,
    make_lacunary_space,
    make_trig_space,
    nikolskii_constant,
    norm_p,
    norm_sup,
    recovery_bound,
    sample_function,
    tensor_product,
)
from sampdisc import _optim, norms, spaces
from sampdisc.errors import (
    DegenerateSpaceError,
    InvalidExponentError,
    InvalidSampleError,
    InvalidTargetError,
    InvalidWeightError,
    OracleTooLargeError,
    UnsupportedNormError,
)
from sampdisc.discretization import PointSet
from sampdisc.norms import SampleVector, handle_norm_p, torus_grid
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


def _exponent_entry_points():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 5)
    w = np.full(5, 0.2)
    return {
        "certify": lambda p: certify(sp, pts, p),
        "norm_p": lambda p: norm_p(CoefficientVector(sp, [1, 0, 1]), p),
        "handle_norm_p": lambda p: handle_norm_p(np.cos, sp, p),
        "discrete_norm": lambda p: discrete_norm(np.ones(3), p),
        "best_approx": lambda p: best_approx(np.cos, sp, p),
        "lpw_recover": lambda p: lpw_recover(sample_function(np.cos, pts), sp, p, w),
        "brute_force_certificate": lambda p: brute_force_certificate(sp, pts, p),
        "nikolskii_constant": lambda p: nikolskii_constant(sp, p),
        "recovery_bound": lambda p: recovery_bound(Certificate(p, 1.0, 1.0, "exact-eigen", "certified"), w),
    }


@pytest.mark.parametrize("p", [math.nan, 0.5])
@pytest.mark.parametrize("entry", sorted(_exponent_entry_points()))
def test_entry_points_reject_bad_exponent(entry, p, capfd):
    # a typed error before any numerics: no raw ValueError, no nan result,
    # no LAPACK message on stderr
    with pytest.raises(InvalidExponentError):
        _exponent_entry_points()[entry](p)
    assert capfd.readouterr().err == ""


def test_norm_p_finite_domain_exact():
    sp = DiscreteSpace(np.array([[1.0, 1.0], [1.0, -1.0]]))
    f = CoefficientVector(sp, [1, 1])  # values (2, 0)
    assert norm_p(f, 3) == pytest.approx((0.5 * 8) ** (1 / 3))
    # the sup norm is the largest modulus over every point of the domain: of 4j, -1.5 + 0.5j and 4.5j
    g = CoefficientVector(DiscreteSpace(np.array([[1.0, 2j], [0.5, -1.0], [3.0, 1j]])), [1j, 1.5])
    assert norm_sup(g) == norm_p(g, math.inf) == pytest.approx(4.5, rel=1e-15)


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


def test_norm_sup_makes_one_basis_call_per_box_scan(monkeypatch):
    # one call on the 512-node grid and one per box scan, 20 in all
    rng = np.random.default_rng(11)
    sp = full_trig_space(8)
    f = CoefficientVector(sp, rng.standard_normal(17) + 1j * rng.standard_normal(17))
    grid_max = float(np.max(np.abs(sp.basis_values(torus_grid([512])) @ f.coefficients)))
    calls = []
    basis_values = spaces.TrigSpace.basis_values

    def counting(self, points):
        calls.append(len(points))
        return basis_values(self, points)

    monkeypatch.setattr(spaces.TrigSpace, "basis_values", counting)
    value = norm_sup(f)
    assert len(calls) == 21
    assert type(value) is float
    assert value >= grid_max


def test_sup_argmax_in_two_dimensions_matches_a_dense_grid():
    # the box scan moves both axes at once; the reference maximum comes from
    # a 257 x 257 grid over the torus and three 201 x 201 grids, each
    # reaching two node spacings of the one before around its best node
    rng = np.random.default_rng(4)
    sp = tensor_product([full_trig_space(2), full_trig_space(1)])
    f = CoefficientVector(sp, rng.standard_normal(15) + 1j * rng.standard_normal(15))
    value, x = norms.sup_argmax(f)
    centre, reach = np.full(2, math.pi), math.pi
    for n in (257, 201, 201, 201):
        axis = np.linspace(-reach, reach, n)
        pts = centre + np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = np.abs(sp.basis_values(pts) @ f.coefficients)
        centre, dense = pts[int(np.argmax(vals))], float(np.max(vals))
        reach = 4 * reach / (n - 1)
    assert type(value) is float
    assert value == pytest.approx(dense, rel=1e-9)
    assert abs(sp.basis_values(x[None, :]) @ f.coefficients)[0] == pytest.approx(value, rel=1e-12)


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


@pytest.mark.parametrize("p", [2, math.inf])
def test_discrete_norm_rejects_empty_vector(p):
    with pytest.raises(InvalidSampleError):
        discrete_norm([], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["PointSet", "discrete_norm", "lpw_recover"])
def test_non_finite_weights_rejected(entry, bad):
    # nan <= 0 is False, so a positivity test alone lets NaN through
    weights = [bad, 1.0, 1.0]
    pts = np.array([[0.0], [2.0], [4.0]])
    with pytest.raises(InvalidWeightError):
        if entry == "PointSet":
            PointSet(pts, weights=weights)
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


def _fail_above_max_grid(monkeypatch):
    # every torus grid the package builds comes from spaces.torus_grid; fail
    # before allocating one of more than _MAX_GRID nodes
    build = spaces.torus_grid

    def capped(sizes):
        if math.prod(sizes) > norms._MAX_GRID:
            pytest.fail(f"a grid of {sizes} nodes exceeds _MAX_GRID")
        return build(sizes)

    monkeypatch.setattr(spaces, "torus_grid", capped)


AXES3 = make_trig_space(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_best_approx_3d_refinement_stays_within_max_grid(monkeypatch):
    # a kink keeps the projection from converging, so refinement runs until
    # the next grid would pass the cap
    _fail_above_max_grid(monkeypatch)
    kinked = lambda x: np.abs(np.sin(x[:, 0])) + np.abs(np.cos(x[:, 1] + x[:, 2]))  # noqa: E731
    proj, dist = best_approx(kinked, AXES3, 2)
    assert 0 < dist < 1 and np.all(np.isfinite(proj.coefficients))


def test_handle_sup_norm_is_the_maximum_on_the_handle_grid(monkeypatch):
    sp = full_trig_space(2)
    h = lambda x: np.cos(3 * x) * np.exp(np.sin(x))  # noqa: E731
    assert handle_norm_p(h, sp, math.inf) == float(np.max(np.abs(h(torus_grid([512])[:, 0]))))
    _fail_above_max_grid(monkeypatch)
    sup = handle_norm_p(lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1] - x[:, 2]), AXES3, math.inf)
    assert 1 - 1e-3 <= sup <= 1


# degree 3 on three axes: the sup and handle rules ask for 192^3 = 7,077,888 nodes
CUBE3 = make_trig_space(3, [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]])


def test_sup_grids_past_max_grid_are_refused_before_building(monkeypatch):
    _fail_above_max_grid(monkeypatch)
    sample = generate_points(CUBE3, "iid", 8, seed=0)
    f = CoefficientVector(CUBE3, np.ones(4))
    target = lambda x: np.cos(x[:, 0])  # noqa: E731
    for call in (lambda: certify(CUBE3, sample, math.inf), lambda: norms.sup_argmax(f),
                 lambda: best_approx(target, CUBE3, math.inf), lambda: best_approx(target, CUBE3, 2),
                 lambda: handle_norm_p(target, CUBE3, math.inf)):
        with pytest.raises(UnsupportedNormError, match="192 x 192 x 192 grid nodes"):
            call()


def test_3d_sup_certificate_is_refused_before_any_grid_is_built(monkeypatch):
    # 66 restarts over the 64^3 sup grid: this ran 165 s at 1.1 GB
    sample = generate_points(AXES3, "iid", 20, seed=3)
    monkeypatch.setattr(spaces, "torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    with pytest.raises(UnsupportedNormError, match="66 x 262144 values"):
        certify(AXES3, sample, math.inf)


def test_degree_one_3d_sup_search_still_runs(monkeypatch):
    # 64^3 nodes; the 128^3 handle grid runs in the two tests above
    _fail_above_max_grid(monkeypatch)
    assert norm_sup(CoefficientVector(AXES3, np.ones(4))) == pytest.approx(4.0, rel=1e-12)


def test_3d_nikolskii_search_is_refused_before_any_grid_is_built(monkeypatch):
    # 8 search rows over the 128^3 sup grid of degree 2 on three axes
    space = make_trig_space(3, [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])
    monkeypatch.setattr(spaces, "torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    with pytest.raises(UnsupportedNormError, match="8 x 2097152 values"):
        nikolskii_constant(space, 3)


def test_degree_one_3d_nikolskii_search_passes_the_cap(monkeypatch):
    # 8 x 64^3 values are allowed; the search itself takes about 25 s, so
    # the test stops where its 64^3 sup grid would be built
    class SupGrid(Exception):
        pass

    build = spaces.torus_grid

    def stop_at_sup_grid(sizes):
        if list(sizes) == [64, 64, 64]:
            raise SupGrid
        return build(sizes)

    monkeypatch.setattr(spaces, "torus_grid", stop_at_sup_grid)
    with pytest.raises(SupGrid):
        nikolskii_constant(AXES3, 3)


def test_non_even_rule_past_max_grid_is_refused_before_any_grid_is_built(monkeypatch):
    # degree 20 on three axes: certify(p=3) asked for 321^3 = 33,076,161 rule nodes
    space = make_trig_space(3, [[0, 0, 0], [20, 0, 0], [0, 20, 0], [0, 0, 20]])
    sample = generate_points(space, "iid", 20, seed=3)
    monkeypatch.setattr(spaces, "torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    for call in (lambda: certify(space, sample, 3), lambda: norms.power_rule(space, 3)):
        with pytest.raises(InvalidExponentError, match="321 x 321 x 321 grid nodes"):
            call()


@pytest.mark.parametrize("space,values", [
    (make_trig_space(3, [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4]]), "134 x 274625 values"),
    (make_lacunary_space(12, 2), "134 x 32769 values"),
], ids=["degree-4-on-3-axes", "lacunary-12"])
def test_non_even_search_past_max_grid_is_refused_before_any_grid_is_built(space, values, monkeypatch):
    # 2 x (64 + 3) search rows over the p = 3 rule: 36.8 M values at degree 4 on three axes
    sample = generate_points(space, "iid", 20, seed=3)
    monkeypatch.setattr(spaces, "torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    with pytest.raises(InvalidExponentError, match=values):
        certify(space, sample, 3)


def test_non_even_norm_and_oracle_grids_past_max_grid_are_refused_before_any_grid_is_built(monkeypatch):
    # degree 300 on two of three axes: p = 3 asked for 1201 x 1201 x 64 norm
    # nodes and 1201 x 1201 x 24 oracle nodes
    space = make_trig_space(3, [[0, 0, 0], [300, 0, 0], [0, 300, 0]])
    sample = generate_points(space, "iid", 8, seed=3)
    monkeypatch.setattr(spaces, "torus_grid", lambda sizes: pytest.fail(f"built {sizes}"))
    with pytest.raises(UnsupportedNormError, match="1201 x 1201 x 64 grid nodes"):
        norm_p(CoefficientVector(space, np.ones(3)), 3)
    with pytest.raises(OracleTooLargeError, match="1201 x 1201 x 24 grid nodes"):
        brute_force_certificate(space, sample, 3)


def _discrete_space(size):
    return DiscreteSpace(np.random.default_rng(size).standard_normal((size, 2)))


@pytest.mark.parametrize("size,call,error", [
    (40_000, lambda sp: certify(sp, PointSet(np.arange(40)), 3), InvalidExponentError),
    (40_000, lambda sp: certify(sp, PointSet(np.arange(40)), 4), InvalidExponentError),
    (70_000, lambda sp: certify(sp, PointSet(np.arange(40)), math.inf), UnsupportedNormError),
    (600_000, lambda sp: nikolskii_constant(sp, 3), UnsupportedNormError),
], ids=["p3-40000", "p4-40000", "inf-70000", "nikolskii-q3-600000"])
def test_finite_domain_search_past_max_grid_is_refused(size, call, error, monkeypatch):
    # a finite domain's grid is all of its points, not one node: 134 x 40,000,
    # 66 x 70,000 and 8 x 600,000 values pass the cap
    monkeypatch.setattr(_optim, "extremize_ratio", lambda *a, **k: pytest.fail("the search was reached"))
    with pytest.raises(error, match=f"x {size} values, more than 4194304"):
        call(_discrete_space(size))


def test_finite_domain_search_just_below_max_grid_runs(monkeypatch):
    # 134 rows x 31,300 points = 4,194,200 values, within the cap
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(_optim, "extremize_ratio", reached)
    with pytest.raises(Reached):
        certify(_discrete_space(31_300), PointSet(np.arange(40)), 3)


@pytest.mark.parametrize("p", [2, 3, math.inf])
def test_best_approx_sends_sampled_values_to_lpw_recover(p):
    # a sample is not an exact quadrature of the domain, so best_approx
    # refuses it rather than fitting it as one
    sp = full_trig_space(2)
    samples = sample_function(lambda x: np.exp(np.cos(x)), generate_points(sp, "iid", 12, seed=3))
    with pytest.raises(InvalidTargetError, match="lpw_recover"):
        best_approx(samples, sp, p)


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
        g = _optim.residual_gradient(V, gamma, t - V @ c, p)
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


@pytest.mark.parametrize("call", ["certify p=2", "best_approx p=2", "best_approx p=3"])
def test_rank_deficient_basis_is_degenerate_where_the_gram_is_inverted(call):
    # span{(1, 2, 3)} written with two equal columns
    sp = DiscreteSpace(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(DegenerateSpaceError):
        if call == "certify p=2":
            certify(sp, PointSet(np.array([0, 1])), 2)
        else:
            best_approx(lambda x: np.asarray(x, dtype=float), sp, int(call[-1]))


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
