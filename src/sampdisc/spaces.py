"""Domains, spectra, and finite-dimensional function subspaces.

Two kinds of spaces are supported: spans of complex exponentials
``exp(i <k, x>)`` on the d-torus ``[0, 2*pi)^d`` with the normalized
Lebesgue probability measure, and spaces of value vectors on a finite
point domain carrying uniform weights ``1/S``. Every object here is
immutable after construction and every operation is a pure function of
its inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidPointError,
    InvalidRatioError,
    InvalidSampleError,
    InvalidSpectrumError,
    UnsupportedDomainError,
)

TWO_PI = 2.0 * math.pi

__all__ = [
    "TorusDomain",
    "FiniteDomain",
    "Spectrum",
    "Subspace",
    "TrigSpace",
    "DiscreteSpace",
    "CoefficientVector",
    "make_trig_space",
    "make_lacunary_space",
    "tensor_product",
    "evaluate",
    "gram_matrix",
    "restrict",
    "space_to_dict",
    "space_from_dict",
]


@dataclass(frozen=True)
class TorusDomain:
    """The d-torus with the normalized Lebesgue probability measure."""

    dim: int

    def __post_init__(self):
        if not is_count(self.dim):
            raise UnsupportedDomainError(f"torus dimension must be an integer >= 1, got {self.dim!r}")


@dataclass(frozen=True)
class FiniteDomain:
    """An ordered set of ``size`` abstract points, each with weight 1/size.

    Points are addressed by their index ``0 .. size-1``.
    """

    size: int

    def __post_init__(self):
        if not is_count(self.size):
            raise UnsupportedDomainError(f"finite domain size must be an integer >= 1, got {self.size!r}")


def is_count(value, least=1) -> bool:
    """True for an integer (numpy's too) of at least ``least``."""
    return isinstance(value, numbers.Integral) and value >= least


class Spectrum:
    """An ordered list of distinct integer frequency vectors.

    Parameters
    ----------
    frequencies : iterable
        Either scalars (dimension 1) or length-d integer vectors.
    lacunary_ratio : float, optional
        If set, asserts the one-dimensional lacunary structure
        ``k_1 = 1`` and ``k_{j+1} >= ratio * k_j`` with a finite ratio > 1.
    """

    def __init__(self, frequencies, lacunary_ratio: float | None = None):
        arr = np.asarray(list(frequencies))
        if arr.size == 0:
            raise InvalidSpectrumError("spectrum must be nonempty")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
            raise InvalidSpectrumError("frequencies must be integer vectors")
        rows = [tuple(int(v) for v in row) for row in arr]
        if len(set(rows)) != len(rows):
            raise InvalidSpectrumError("duplicate frequencies in spectrum")
        self._freqs = np.array(rows, dtype=np.int64)
        self._freqs.setflags(write=False)
        if lacunary_ratio is not None:
            if not 1 < lacunary_ratio < math.inf:
                raise InvalidRatioError("lacunary ratio must be > 1 and finite")
            ks = self._freqs[:, 0]
            if self.dim != 1 or ks[0] != 1 or np.any(ks[1:] < lacunary_ratio * ks[:-1]):
                raise InvalidSpectrumError("frequencies do not satisfy the lacunary growth condition")
        self._ratio = lacunary_ratio

    @property
    def frequencies(self) -> np.ndarray:
        """Integer array of shape (N, d)."""
        return self._freqs

    @property
    def dim(self) -> int:
        return self._freqs.shape[1]

    @property
    def lacunary_ratio(self) -> float | None:
        return self._ratio

    @property
    def degrees(self) -> tuple[int, ...]:
        """Largest absolute frequency per coordinate."""
        return tuple(int(v) for v in np.abs(self._freqs).max(axis=0))

    def __len__(self):
        return self._freqs.shape[0]

    def __repr__(self):
        return f"Spectrum({self._freqs.tolist()!r}, lacunary_ratio={self._ratio!r})"


class Subspace:
    """Common interface of the concrete space kinds."""

    domain = None
    # largest absolute frequency per coordinate; none on a finite domain
    degrees: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def contains_constant(self) -> bool:
        raise NotImplementedError

    def basis_values(self, points) -> np.ndarray:
        """Values of all basis functions at the given points, shape (m, N)."""
        raise NotImplementedError

    def grid(self, sizes) -> np.ndarray:
        """Evaluation grid with ``sizes[i]`` equispaced nodes on coordinate i;
        a finite domain has no coordinates and returns all of its points."""
        raise NotImplementedError

    def draw(self, rng, count) -> np.ndarray:
        """``count`` iid points from the domain measure."""
        raise NotImplementedError

    def coef_gram(self) -> np.ndarray:
        """Hermitian B with ``||f||_2^2 = c^H B c`` for ``f = sum c_i u_i``."""
        raise NotImplementedError


class TrigSpace(Subspace):
    """Span of complex exponentials on the torus, indexed by a spectrum.

    The basis is orthonormal in L2 of the normalized Lebesgue measure, so
    the Gram matrix is exactly the identity.
    """

    def __init__(self, spectrum: Spectrum, factors: tuple["TrigSpace", ...] | None = None):
        self._spectrum = spectrum
        self._domain = TorusDomain(spectrum.dim)
        self._factors = tuple(factors) if factors else None
        # basis_values computes angles only for the first frequency h of each
        # pair {h, -h}; column i of the basis reads column _cols[i] of those
        # angles, its sine negated where _signs[i] is -1
        K = spectrum.frequencies
        rows = [tuple(r) for r in K.tolist()]
        where = {r: i for i, r in enumerate(rows)}
        first = np.array([min(i, where.get(tuple(-v for v in r), i)) for i, r in enumerate(rows)])
        reps = np.flatnonzero(first == np.arange(len(rows)))
        self._half = K[reps]
        self._cols = np.searchsorted(reps, first)
        self._signs = np.where(first < np.arange(len(rows)), -1.0, 1.0)
        for a in (self._half, self._cols, self._signs):
            a.setflags(write=False)

    @property
    def domain(self) -> TorusDomain:
        return self._domain

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    @property
    def dim(self) -> int:
        return len(self._spectrum)

    @property
    def contains_constant(self) -> bool:
        return bool(np.any(np.all(self._spectrum.frequencies == 0, axis=1)))

    @property
    def factors(self) -> tuple["TrigSpace", ...] | None:
        """Factor spaces when built by :func:`tensor_product`, else None."""
        return self._factors

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._spectrum.degrees

    def check_points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        d = self.domain.dim
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            # a flat list is a batch of points when d == 1, a single point otherwise
            pts = pts[:, None] if d == 1 else pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != d or not np.all(np.isfinite(pts)):
            raise InvalidPointError(f"expected points of dimension {d}, got shape {np.shape(points)}")
        return pts

    def basis_values(self, points) -> np.ndarray:
        """Values ``exp(i <k, x>)``, shape (m, N), equal bit for bit to
        ``np.exp(1j * (pts @ K.T))`` with K the frequency rows.

        The bits matter: p = 2 certificates near a singular frame report
        constants of about 1e-9, whose digits follow every last bit of the
        basis values, and identical configs must give identical output. The
        values come from one cos/sin pass over the angles of half of the
        ``{k, -k}`` pairs. That is exact because ``x . (-k) = -(x . k)`` in
        floating point (rounding is symmetric), cos is even and sin odd,
        and numpy's complex exp of ``0 + i t`` is ``cos t + i sin(t + 0)``;
        ``tests/test_spaces.py`` checks the identity bit for bit.
        """
        pts = self.check_points(points)
        theta = pts @ self._half.T
        out = np.empty((pts.shape[0], self.dim), dtype=complex)
        out.real = np.cos(theta)[:, self._cols]
        np.multiply(np.sin(theta)[:, self._cols], self._signs, out=out.imag)
        out.imag += 0.0  # -0 to +0: exp(1j * t) has sine +0 at t = -0 and at t = +0
        return out

    def grid(self, sizes) -> np.ndarray:
        return torus_grid(sizes)

    def draw(self, rng, count) -> np.ndarray:
        return rng.uniform(0.0, TWO_PI, size=(count, self.domain.dim))

    def coef_gram(self) -> np.ndarray:
        return np.eye(self.dim)

    def __repr__(self):
        return f"TrigSpace(dim={self.dim}, d={self.domain.dim})"


class DiscreteSpace(Subspace):
    """A space of value vectors on a finite uniform-weight domain.

    ``values[j, i]`` is the i-th basis function at domain point j.
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise InvalidSampleError("basis value matrix must be 2-d and nonempty")
        self._values = vals.copy()
        self._values.setflags(write=False)
        self._domain = FiniteDomain(vals.shape[0])

    @property
    def domain(self) -> FiniteDomain:
        return self._domain

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.shape[1]

    @property
    def contains_constant(self) -> bool:
        ones = np.ones(self.domain.size, dtype=complex)
        c = np.linalg.lstsq(self._values, ones, rcond=None)[0]
        return float(np.linalg.norm(self._values @ c - ones)) <= 1e-10 * math.sqrt(self.domain.size)

    def check_points(self, points) -> np.ndarray:
        idx = np.asarray(points)
        if idx.ndim == 0:
            idx = idx.reshape(1)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise InvalidPointError("finite-domain points are integer indices")
        if np.any(idx < 0) or np.any(idx >= self.domain.size):
            raise InvalidPointError("point index outside the finite domain")
        return idx

    def basis_values(self, points) -> np.ndarray:
        return self._values[self.check_points(points)]

    def grid(self, sizes) -> np.ndarray:
        return np.arange(self.domain.size)

    def draw(self, rng, count) -> np.ndarray:
        return rng.integers(0, self.domain.size, size=count)

    def coef_gram(self) -> np.ndarray:
        return (self._values.conj().T @ self._values) / self.domain.size

    def __repr__(self):
        return f"DiscreteSpace(dim={self.dim}, points={self.domain.size})"


class CoefficientVector:
    """An element ``f = sum_i c_i u_i`` of a subspace."""

    def __init__(self, space: Subspace, coefficients):
        coeffs = np.asarray(coefficients, dtype=complex).reshape(-1)
        if coeffs.shape[0] != space.dim:
            raise InvalidSampleError(
                f"coefficient length {coeffs.shape[0]} does not match dimension {space.dim}"
            )
        self.space = space
        self.coefficients = coeffs.copy()
        self.coefficients.setflags(write=False)

    def __add__(self, other):
        if other.space is not self.space:
            raise UnsupportedDomainError("cannot add elements of different spaces")
        return CoefficientVector(self.space, self.coefficients + other.coefficients)

    def __sub__(self, other):
        if other.space is not self.space:
            raise UnsupportedDomainError("cannot subtract elements of different spaces")
        return CoefficientVector(self.space, self.coefficients - other.coefficients)

    def __mul__(self, scalar):
        return CoefficientVector(self.space, self.coefficients * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"CoefficientVector(dim={self.space.dim})"


def make_trig_space(d: int, spectrum) -> TrigSpace:
    """Build the span of exponentials on the d-torus for the given spectrum.

    Raises InvalidSpectrumError on duplicates or on a dimension mismatch.
    """
    spec = spectrum if isinstance(spectrum, Spectrum) else Spectrum(spectrum)
    if spec.dim != d:
        raise InvalidSpectrumError(f"spectrum has dimension {spec.dim}, expected {d}")
    return TrigSpace(spec)


def make_lacunary_space(n: int, b: float) -> TrigSpace:
    """Span of n exponentials with geometrically growing frequencies.

    Uses the minimal admissible sequence ``k_1 = 1``,
    ``k_{j+1} = ceil(b * k_j)``, which is deterministic and reproducible.
    """
    if not 1 < b < math.inf:
        raise InvalidRatioError("growth ratio must be > 1 and finite")
    if not is_count(n):
        raise InvalidSpectrumError(f"need an integer number of frequencies >= 1, got {n!r}")
    ks = [1]
    while len(ks) < n:
        ks.append(math.ceil(b * ks[-1]))
    return TrigSpace(Spectrum(ks, lacunary_ratio=b))


def tensor_product(factors) -> TrigSpace:
    """Product space spanned by all products of factor basis functions.

    All factors must live on torus domains; the result lives on the
    product torus with the product measure. Basis order is factor-major:
    the first factor's index varies slowest.
    """
    factors = tuple(factors)
    if len(factors) < 2:
        raise InvalidSampleError("tensor product needs at least two factors")
    for f in factors:
        if not isinstance(f, TrigSpace):
            raise UnsupportedDomainError("tensor products are supported for torus spaces only")
    return TrigSpace(Spectrum(product_rows([f.spectrum.frequencies for f in factors])),
                     factors=factors)


def product_rows(blocks) -> np.ndarray:
    """Rows of the cartesian product of 2-D row blocks, first block slowest:
    every row is one row of each block, side by side."""
    idx = np.indices([b.shape[0] for b in blocks]).reshape(len(blocks), -1)
    return np.concatenate([b[i] for b, i in zip(blocks, idx)], axis=1)


def torus_grid(sizes) -> np.ndarray:
    """Equispaced product grid on the torus, shape (prod(sizes), d)."""
    return product_rows([(np.arange(n) * (TWO_PI / n))[:, None] for n in sizes])


def evaluate(f: CoefficientVector, points) -> np.ndarray:
    """Pointwise values ``sum_i c_i u_i(x)``, in the input point order."""
    return f.space.basis_values(points) @ f.coefficients


def gram_matrix(space: Subspace) -> np.ndarray:
    """Matrix of L2(mu) inner products ``G[a, b] = <u_a, u_b>``.

    Exactly the identity for exponential bases on the torus; the uniform
    average ``(1/S) sum_j u_a(x_j) * conj(u_b(x_j))`` on finite domains.
    """
    return space.coef_gram().T.copy()


def restrict(space: Subspace, sample) -> DiscreteSpace:
    """Restrict a space onto a sample, yielding a finite-domain space.

    The new basis vectors are the original basis evaluated at the sample
    points; the new measure is uniform. Warns when the sample is smaller
    than the dimension (the restricted Gram is then rank-deficient).
    """
    pts = getattr(sample, "points", sample)
    pts = np.asarray(pts)
    if pts.size == 0:
        raise InvalidSampleError("cannot restrict to an empty sample")
    if pts.shape[0] < space.dim:
        warnings.warn(
            f"restricting a {space.dim}-dimensional space to {pts.shape[0]} points; "
            "the restricted Gram matrix is rank-deficient",
            stacklevel=2,
        )
    return DiscreteSpace(space.basis_values(pts))


def space_to_dict(space: Subspace) -> dict:
    """JSON-ready description of a torus space (used by the CLI config)."""
    if isinstance(space, TrigSpace):
        if space.factors is not None:
            return {"kind": "tensor", "factors": [space_to_dict(f) for f in space.factors]}
        out = {
            "kind": "trig",
            "dimension": space.domain.dim,
            "spectrum": space.spectrum.frequencies.tolist(),
        }
        if space.spectrum.lacunary_ratio is not None:
            out["lacunary_ratio"] = space.spectrum.lacunary_ratio
        return out
    raise UnsupportedDomainError("only torus spaces serialize to JSON")


def space_from_dict(desc: dict) -> TrigSpace:
    """Inverse of :func:`space_to_dict`; also accepts a lacunary shorthand."""
    kind = desc.get("kind")
    if kind == "trig":
        spec = Spectrum(desc["spectrum"], lacunary_ratio=desc.get("lacunary_ratio"))
        return make_trig_space(int(desc["dimension"]), spec)
    if kind == "lacunary":
        return make_lacunary_space(int(desc["n"]), float(desc["ratio"]))
    if kind == "tensor":
        return tensor_product([space_from_dict(f) for f in desc["factors"]])
    raise UnsupportedDomainError(f"unknown space kind {kind!r}")
