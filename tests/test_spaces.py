"""Tests for domains, spectra, and subspace construction."""

import math

import numpy as np
import pytest

from sampdisc import (
    CoefficientVector,
    DiscreteSpace,
    FiniteDomain,
    Spectrum,
    TorusDomain,
    evaluate,
    generate_points,
    gram_matrix,
    make_lacunary_space,
    make_trig_space,
    restrict,
    space_to_dict,
    tensor_product,
)
from sampdisc.cli import _build_space
from sampdisc.errors import (
    InvalidPointError,
    InvalidRatioError,
    InvalidSampleError,
    InvalidSpectrumError,
    UnsupportedDomainError,
)

TWO_PI = 2 * math.pi


def full_trig_space(degree, d=1):
    if d == 1:
        return make_trig_space(1, [[k] for k in range(-degree, degree + 1)])
    ks = [[k1, k2] for k1 in range(-degree, degree + 1) for k2 in range(-degree, degree + 1)]
    return make_trig_space(2, ks)


def test_make_trig_space_basic():
    sp = make_trig_space(1, [[-1], [0], [1]])
    assert sp.dim == 3
    assert sp.contains_constant


def test_make_trig_space_2d():
    sp = make_trig_space(2, [[0, 0], [1, 0], [0, 1]])
    assert sp.dim == 3
    assert sp.domain.dim == 2


def test_duplicate_frequencies_rejected():
    with pytest.raises(InvalidSpectrumError):
        make_trig_space(1, [[1], [1]])


def test_lacunary_sequence_default_ratio():
    sp = make_lacunary_space(3, 2)
    assert sp.spectrum.frequencies.ravel().tolist() == [1, 2, 4]
    assert not sp.contains_constant


def test_lacunary_single_frequency():
    sp = make_lacunary_space(1, 2)
    assert sp.spectrum.frequencies.ravel().tolist() == [1]


def test_lacunary_bad_ratio():
    with pytest.raises(InvalidRatioError):
        make_lacunary_space(2, 1)
    # nan and inf reached math.ceil (ValueError, OverflowError), and a nan ratio was kept;
    # at 1e308 the third frequency, ceil(1e308 * 1e308), raised a raw OverflowError
    for ratio in (math.nan, math.inf, 1e308):
        with pytest.raises(InvalidRatioError):
            make_lacunary_space(3, ratio)
    with pytest.raises(InvalidRatioError):
        Spectrum([1, 2, 4], lacunary_ratio=math.nan)
    # a string ratio reached the comparison with 1 and raised a raw TypeError
    with pytest.raises(InvalidRatioError):
        make_lacunary_space(3, "2")
    with pytest.raises(InvalidRatioError):
        Spectrum([1, 2, 4], lacunary_ratio="2")


def test_lacunary_fractional_ratio_growth():
    sp = make_lacunary_space(5, 1.5)
    ks = sp.spectrum.frequencies.ravel()
    assert np.all(ks[1:] >= 1.5 * ks[:-1])


@pytest.mark.parametrize("frequencies", [[[-2 ** 63], [0]], [2 ** 63]])
def test_spectrum_refuses_frequencies_past_int64(frequencies):
    # -2**63 has no int64 absolute value: np.abs wrapped it and the degree read 0,
    # so certify's grids were undersized; 2**63 raised a raw OverflowError
    with pytest.raises(InvalidSpectrumError):
        Spectrum(frequencies)


def test_spectrum_keeps_the_int64_extremes():
    top = 2 ** 63 - 1
    assert Spectrum([[-top], [top]]).degrees == (top,)


def test_spectrum_scalar_input():
    spec = Spectrum([-1, 0, 1])
    assert spec.dim == 1
    assert len(spec) == 3


def test_tensor_product_dimensions():
    f = full_trig_space(1)
    t = tensor_product([f, f])
    assert t.dim == 9
    assert t.domain.dim == 2
    assert t.contains_constant

    g = make_trig_space(1, [[k] for k in range(-2, 3)])
    assert tensor_product([f, g]).dim == 15


def test_tensor_product_rejects_finite_factor():
    f = full_trig_space(1)
    fin = DiscreteSpace(np.eye(3))
    with pytest.raises(UnsupportedDomainError):
        tensor_product([fin, f])


def test_evaluate_single_exponential():
    sp = make_trig_space(1, [[1]])
    f = CoefficientVector(sp, [1])
    assert evaluate(f, [0.0])[0] == pytest.approx(1.0)


def test_evaluate_cosine_zero():
    sp = make_trig_space(1, [[1], [-1]])
    f = CoefficientVector(sp, [1, 1])
    assert abs(evaluate(f, [math.pi / 2])[0]) == pytest.approx(0.0, abs=1e-15)


def _fsum_evaluate(freqs, coeffs, x):
    # compensated term-by-term summation, independent of the vectorized path
    re = math.fsum(
        (c * complex(math.cos(k * x), math.sin(k * x))).real for k, c in zip(freqs, coeffs)
    )
    im = math.fsum(
        (c * complex(math.cos(k * x), math.sin(k * x))).imag for k, c in zip(freqs, coeffs)
    )
    return complex(re, im)


def test_evaluate_matches_direct_summation():
    rng = np.random.default_rng(0)
    freqs = [-3, -1, 0, 2, 5]
    sp = make_trig_space(1, [[k] for k in freqs])
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    f = CoefficientVector(sp, coeffs)
    xs = rng.uniform(0, TWO_PI, 5)
    got = evaluate(f, xs)
    for x, g in zip(xs, got):
        assert abs(g - _fsum_evaluate(freqs, coeffs, x)) <= 1e-12


def test_evaluate_rejects_wrong_dimension():
    sp = make_trig_space(2, [[0, 0], [1, 0]])
    f = CoefficientVector(sp, [1, 1])
    with pytest.raises(InvalidPointError):
        evaluate(f, np.zeros((4, 3)))


def test_evaluate_linear():
    rng = np.random.default_rng(1)
    sp = full_trig_space(2)
    a = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    b = CoefficientVector(sp, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    xs = rng.uniform(0, TWO_PI, 7)
    lhs = evaluate(2.0 * a + (-1.5 + 0.5j) * b, xs)
    rhs = 2.0 * evaluate(a, xs) + (-1.5 + 0.5j) * evaluate(b, xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_tensor_evaluation_factorizes():
    rng = np.random.default_rng(2)
    f1 = full_trig_space(1)
    f2 = make_trig_space(1, [[k] for k in range(-2, 3)])
    t = tensor_product([f1, f2])
    c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    ct = np.kron(c1, c2)  # factor-major basis order
    xs = rng.uniform(0, TWO_PI, (6, 2))
    lhs = evaluate(CoefficientVector(t, ct), xs)
    rhs = evaluate(CoefficientVector(f1, c1), xs[:, :1]) * evaluate(
        CoefficientVector(f2, c2), xs[:, 1:]
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_gram_identity_for_trig():
    sp = full_trig_space(3)
    G = gram_matrix(sp)
    assert np.max(np.abs(G - np.eye(7))) <= 1e-14


def test_gram_identity_for_tensor():
    t = tensor_product([full_trig_space(1), full_trig_space(1)])
    assert np.max(np.abs(gram_matrix(t) - np.eye(9))) <= 1e-14


def test_gram_finite_set_hand_computed():
    # two value vectors on four points; averages of products done by hand
    v1 = np.array([1, 1, 1, 1], dtype=complex)
    v2 = np.array([1, 1j, -1, -1j], dtype=complex)
    sp = DiscreteSpace(np.stack([v1, v2], axis=1))
    G = gram_matrix(sp)
    # <v1,v1> = 1, <v2,v2> = 1, <v1,v2> = mean(1*conj(i^j)) = 0
    assert G[0, 0] == pytest.approx(1.0)
    assert G[1, 1] == pytest.approx(1.0)
    assert abs(G[0, 1]) <= 1e-15


def test_restrict_equispaced_identity_gram():
    sp = full_trig_space(1)
    pts = generate_points(sp, "equispaced", 3)
    r = restrict(sp, pts)
    assert r.domain.size == 3
    assert np.max(np.abs(gram_matrix(r) - np.eye(3))) <= 1e-14


def test_restrict_preserves_evaluation():
    rng = np.random.default_rng(3)
    sp = full_trig_space(2)
    pts = generate_points(sp, "iid", 6, seed=4)
    r = restrict(sp, pts)
    direct = sp.basis_values(pts.points)
    assert np.array_equal(r.values, direct)
    f = CoefficientVector(sp, rng.standard_normal(5))
    fr = CoefficientVector(r, f.coefficients)
    assert np.array_equal(evaluate(fr, np.arange(6)), evaluate(f, pts.points))


def test_restrict_small_sample_warns():
    sp = full_trig_space(1)
    with pytest.warns(UserWarning):
        restrict(sp, np.array([[0.5]]))


def test_restrict_empty_sample():
    sp = full_trig_space(1)
    with pytest.raises(InvalidSampleError):
        restrict(sp, np.zeros((0, 1)))


def test_discrete_space_contains_constant():
    ones = DiscreteSpace(np.ones((4, 1)))
    assert ones.contains_constant
    odd = DiscreteSpace(np.array([[1.0], [-1.0]]))
    assert not odd.contains_constant


def test_discrete_space_state_is_fixed_at_construction():
    sp = DiscreteSpace(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))
    state = dict(vars(sp))
    assert sp.contains_constant
    assert np.allclose(gram_matrix(sp), sp.coef_gram().T)
    assert vars(sp).keys() == state.keys() and all(vars(sp)[k] is v for k, v in state.items())


def test_serialization_round_trip():
    for sp in (
        full_trig_space(2),
        make_lacunary_space(4, 2),
        tensor_product([full_trig_space(1), make_trig_space(1, [[k] for k in range(-2, 3)])]),
    ):
        back = _build_space(space_to_dict(sp), "space")
        assert back.dim == sp.dim
        assert back.domain.dim == sp.domain.dim
        assert np.array_equal(back.spectrum.frequencies, sp.spectrum.frequencies)
        assert space_to_dict(back) == space_to_dict(sp)


def test_lacunary_shorthand_description():
    sp = _build_space({"kind": "lacunary", "n": 3, "ratio": 2}, "space")
    assert sp.spectrum.frequencies.ravel().tolist() == [1, 2, 4]


def test_domain_measures_have_unit_mass():
    # integrating the constant 1 gives 1 on both domain kinds
    from sampdisc import norm_p

    trig = make_trig_space(1, [[0]])
    assert norm_p(CoefficientVector(trig, [1]), 1) == pytest.approx(1.0, abs=1e-12)
    fin = DiscreteSpace(np.ones((5, 1)))
    assert norm_p(CoefficientVector(fin, [1]), 1) == pytest.approx(1.0, abs=1e-15)


def test_spectrum_dimension_mismatch():
    with pytest.raises(InvalidSpectrumError):
        make_trig_space(2, [[1], [2]])


# basis_values must reproduce exp(i <k, x>) from the full angle matrix bit
# for bit: near-singular p = 2 certificates carry every last bit of it

def _exp_basis(space, points):
    return np.exp(1j * (space.check_points(points) @ space.spectrum.frequencies.T))


def _bits(values):
    # compares signed zeros too, unlike np.array_equal
    return np.ascontiguousarray(values).view(np.uint64)


ONE_D_SPECTRA = {"-16..16": range(-16, 17), "0..8": range(9), "lacunary": [1, 2, 4, 8, 16],
                 "3,-5,7": [3, -5, 7]}
ONE_D_POINTS = {
    "iid": np.random.default_rng(11).uniform(0.0, TWO_PI, 300),
    "grid-513": np.arange(513) * (TWO_PI / 513),  # starts at 0, where sin is a signed zero
    "scalar": 2.5,
    "flat-list": [0.0, -0.0, -1.25, 3.0, 1e5],
}


@pytest.mark.parametrize("points", ONE_D_POINTS.values(), ids=ONE_D_POINTS.keys())
@pytest.mark.parametrize("spectrum", ONE_D_SPECTRA.values(), ids=ONE_D_SPECTRA.keys())
def test_basis_values_equal_complex_exp_bit_for_bit(spectrum, points):
    sp = make_trig_space(1, [[k] for k in spectrum])
    got = sp.basis_values(points)
    assert got.shape == (np.size(points), sp.dim)
    assert np.array_equal(_bits(got), _bits(_exp_basis(sp, points)))


@pytest.mark.parametrize("factors", [
    [range(-3, 4), [0, 2, -2, 5]],
    [range(-2, 3), [0, 1], [-1, 1, 3]],
], ids=["2d", "3d"])
def test_tensor_basis_values_match_complex_exp(factors):
    sp = tensor_product([make_trig_space(1, [[k] for k in f]) for f in factors])
    d = sp.domain.dim
    for pts in (np.random.default_rng(12).uniform(0.0, TWO_PI, (400, d)), sp.grid([17] * d)):
        assert np.max(np.abs(sp.basis_values(pts) - _exp_basis(sp, pts))) <= 1e-15


def test_basis_angles_are_shared_by_frequency_pairs():
    # one angle column per pair {k, -k}; spectra without pairs gather every column as is
    assert full_trig_space(16)._half.shape == (17, 1)
    assert full_trig_space(2, d=2)._half.shape == (13, 2)
    for sp in (make_trig_space(1, [[3], [-5], [7]]), make_lacunary_space(5, 2)):
        assert np.array_equal(sp._cols, np.arange(sp.dim)) and np.all(sp._signs == 1.0)


def test_domains_compare_by_value_and_refuse_assignment():
    assert TorusDomain(2) == TorusDomain(2) and TorusDomain(2) != TorusDomain(3)
    assert FiniteDomain(5) == FiniteDomain(5) and FiniteDomain(5) != FiniteDomain(4)
    assert TorusDomain(1) != FiniteDomain(1)
    assert make_trig_space(2, [[0, 0], [1, 0]]).domain == TorusDomain(2)
    assert repr(TorusDomain(2)) == "TorusDomain(dim=2)"
    assert repr(FiniteDomain(7)) == "FiniteDomain(size=7)"
    torus, finite = TorusDomain(2), FiniteDomain(5)
    with pytest.raises(AttributeError):
        torus.dim = 3
    with pytest.raises(AttributeError):
        finite.size = 4
    assert torus.dim == 2 and finite.size == 5
