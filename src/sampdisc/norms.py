"""Continuous and discrete norms, best approximations, and related constants.

Torus integrals are computed with equispaced product quadrature. For even
integer exponents the rule with at least ``p * degree + 1`` nodes per
dimension is exact, because ``|f|^p`` is itself a trigonometric polynomial
of per-coordinate degree at most ``p * degree``. For other exponents the
grid is refined dyadically until two successive values agree to the
``quad_stop`` tolerance; the result is then accurate to about 1e-8 in
absolute terms for the well-scaled functions this toolkit produces.

Sup norms of torus functions are grid searches with local refinement and
are therefore lower estimates. Finite-domain norms are exact weighted sums.
"""

from __future__ import annotations

import math

import numpy as np

from . import _optim, tolerances
from .errors import (
    DegenerateSpaceError,
    InvalidExponentError,
    InvalidTargetError,
    InvalidWeightError,
    UnsupportedNormError,
)
from .spaces import (
    TWO_PI,
    CoefficientVector,
    Subspace,
    TrigSpace,
    evaluate,
)
from .spaces import torus_grid  # noqa: F401  (part of this module's interface)

__all__ = [
    "SampleVector",
    "NikolskiiEstimate",
    "sample_function",
    "norm_p",
    "norm_sup",
    "discrete_norm",
    "best_approx",
    "christoffel_sup",
    "nikolskii_constant",
    "handle_norm_p",
]

_MAX_GRID = 1 << 22  # refinement cap on the total number of quadrature nodes


class SampleVector:
    """The vector of values of a function at the nodes of a point set."""

    def __init__(self, values, source=None):
        self.values = np.asarray(values, dtype=complex).reshape(-1)
        self.source = source

    def __len__(self):
        return self.values.shape[0]


class NikolskiiEstimate:
    """Estimated constant M in ``sup |f| <= M * ||f||_q`` over a subspace.

    ``B = M / N**(1/q)`` is the normalized form used by the sampling
    budgets. ``method`` is "analytic" when M is an exact identity (q = 2)
    and "grid-search" when it is a heuristic lower estimate: the true
    ratio ``sup |f| / ||f||_q`` at the element a smoothed sphere search
    found, with ``grid_size`` nodes in that search's sup grid.
    """

    def __init__(self, q, M, B, method, grid_size=0):
        self.q = float(q)
        self.M = float(M)
        self.B = float(B)
        self.method = method
        self.grid_size = int(grid_size)

    def __repr__(self):
        return f"NikolskiiEstimate(q={self.q}, M={self.M:.6g}, B={self.B:.6g}, method={self.method!r})"


def call_target(target, points) -> np.ndarray:
    """Values of ``target`` at ``points``.

    ``target`` may be a CoefficientVector or a callable. Callables receive
    the point array (flattened to shape (m,) on one-dimensional domains)
    and must return one value per point.
    """
    pts = np.asarray(points)
    if isinstance(target, CoefficientVector):
        return evaluate(target, pts)
    if not callable(target):
        raise InvalidTargetError(f"cannot evaluate target of type {type(target).__name__}")
    args = pts[:, 0] if pts.ndim == 2 and pts.shape[1] == 1 else pts
    try:
        vals = np.asarray(target(args), dtype=complex).reshape(-1)
    except Exception as exc:
        raise InvalidTargetError(f"target is not evaluable on the domain: {exc}") from exc
    if vals.shape[0] != pts.shape[0]:
        raise InvalidTargetError("target returned the wrong number of values")
    return vals


def sample_function(target, pointset) -> SampleVector:
    """Build the sample vector of ``target`` at the nodes of ``pointset``;
    see :func:`call_target` for the accepted targets."""
    return SampleVector(call_target(target, pointset.points), source=pointset)


# ---------------------------------------------------------------------------
# quadrature grids


def _even_sizes(space: Subspace, p: int):
    return [max(int(p) * deg + 1, 1) for deg in space.degrees]


def _is_even_integer(p) -> bool:
    return p != math.inf and float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2


def power_rule(space: Subspace, p):
    """Quadrature rule (values matrix, weights) for ``||f||_p^p``.

    Exact for finite domains and for even integer p on the torus. For
    other exponents this is a dense-grid relaxation sized generously for
    the space's degree.
    """
    if _is_even_integer(p):
        sizes = _even_sizes(space, int(p))
    else:
        floor = {1: 1024, 2: 96}.get(len(space.degrees), 32)
        sizes = [max(16 * deg + 1, floor) for deg in space.degrees]
    grid = space.grid(sizes)
    return space.basis_values(grid), np.full(grid.shape[0], 1.0 / grid.shape[0])


def _power_mean(vals, p) -> float:
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


def _refined_norm(values_on, space: Subspace, sizes, p) -> float:
    """L_p norm of ``values_on(grid)`` over the space's domain.

    Starts from the grid with ``sizes`` nodes per coordinate and doubles
    them until two successive values agree to ``quad_stop``. A finite
    domain's grid is all of its points, so its first value is exact.
    """
    stop = tolerances.get("quad_stop")
    prev = None
    while True:
        cur = _power_mean(values_on(space.grid(sizes)), p)
        converged = prev is not None and abs(cur - prev) <= stop * max(1.0, abs(prev))
        if converged or not sizes or math.prod(sizes) * (2 ** len(sizes)) > _MAX_GRID:
            return cur
        prev = cur
        sizes = [2 * n for n in sizes]


def norm_p(f: CoefficientVector, p) -> float:
    """The L_p(mu) norm of an element, 1 <= p < infinity.

    Exact for finite domains and for even integer p on the torus;
    otherwise computed by dyadic grid refinement.
    """
    if p == math.inf:
        return norm_sup(f)
    if p < 1:
        raise InvalidExponentError("norm exponent must satisfy p >= 1")
    space = f.space
    if _is_even_integer(p):
        return _power_mean(evaluate(f, space.grid(_even_sizes(space, int(p)))), p)
    return _refined_norm(lambda x: evaluate(f, x), space,
                         [max(2 * deg + 1, 32) for deg in space.degrees], p)


def handle_norm_p(handle, space: Subspace, p) -> float:
    """L_p norm of an arbitrary function handle over the space's domain.

    Used when the integrand is not an element of a known subspace (e.g.
    a recovery residual); refines dyadically like :func:`norm_p`.
    """
    if p < 1:
        raise InvalidExponentError("norm exponent must satisfy p >= 1")
    return _refined_norm(lambda x: call_target(handle, x), space,
                         [max(4 * deg + 1, 64) for deg in space.degrees], p)


# ---------------------------------------------------------------------------
# sup norm


def _golden_max(fn, lo, hi, iters=60):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _sup_sizes(space: Subspace):
    return [max(64 * deg, 64) for deg in space.degrees]


def sup_argmax(f: CoefficientVector):
    """Lower estimate of ``max |f|`` together with a maximizing point.

    Torus search: an equispaced grid with at least ``64 * degree`` nodes
    per dimension, followed by coordinate-wise golden-section refinement.
    Finite domains are scanned exactly.
    """
    space = f.space
    sizes = _sup_sizes(space)
    grid = space.grid(sizes)
    vals = np.abs(evaluate(f, grid))
    j = int(np.argmax(vals))
    best_val = float(vals[j])
    x = np.atleast_1d(grid[j]).copy()
    if not sizes:  # a finite domain has no coordinates to refine
        return best_val, x
    for _ in range(1 if len(sizes) == 1 else 2):
        for axis, n in enumerate(sizes):
            h = TWO_PI / n

            def along(t, _axis=axis):
                y = x.copy()
                y[_axis] += t
                return abs(evaluate(f, y[None, :])[0])

            t_best, v = _golden_max(along, -h, h)
            if v > best_val:
                best_val = v
                x[axis] += t_best
    return best_val, np.mod(x, TWO_PI)


def norm_sup(f: CoefficientVector) -> float:
    """Uniform norm; exact on finite domains, a grid-search lower estimate
    on the torus (see :func:`sup_argmax`)."""
    return sup_argmax(f)[0]


# ---------------------------------------------------------------------------
# discrete norms


def checked_weights(weights, count: int, of: str) -> np.ndarray:
    """``weights`` as a float vector of ``count`` finite positive entries."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != count:
        raise InvalidWeightError(f"got {w.shape[0]} weights for {count} {of}")
    if not np.all(np.isfinite(w)):
        raise InvalidWeightError("weights must be finite")
    if np.any(w <= 0):
        raise InvalidWeightError("weights must be strictly positive")
    return w


def discrete_norm(s, p, weights=None) -> float:
    """Weighted discrete p-norm of a sample vector.

    Default weights are uniform ``1/m``. ``p = inf`` takes the plain
    maximum of moduli and rejects explicit weights, which have no
    counterpart in the sup case.
    """
    vals = np.asarray(getattr(s, "values", s), dtype=complex).reshape(-1)
    m = vals.shape[0]
    if p == math.inf:
        if weights is not None:
            raise UnsupportedNormError("the weighted sup norm is undefined; drop the weights for p=inf")
        return float(np.max(np.abs(vals)))
    if p < 1:
        raise InvalidExponentError("norm exponent must satisfy p >= 1")
    w = np.full(m, 1.0 / m) if weights is None else checked_weights(weights, m, "values")
    return float(np.sum(w * np.abs(vals) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# best approximation


def _approx_grid(target, space, base_floor):
    """Grid, weights, and target values for the approximation solvers."""
    if isinstance(target, SampleVector):
        if target.source is None:
            raise InvalidTargetError("sample-vector target has no source point set")
        grid = np.asarray(target.source.points)
        t = target.values
    else:
        grid = space.grid([max(64 * deg, base_floor) for deg in space.degrees])
        t = call_target(target, grid)
    return grid, np.full(grid.shape[0], 1.0 / grid.shape[0]), t


def _project_l2(target, space):
    """Orthogonal projection via the exact Gram system; grid right-hand side.
    Returns ``(c, distance, (V, gamma, t))``, the last three on the final grid."""
    B = space.coef_gram()
    last_c = None
    floor = 256 if len(space.degrees) == 1 else 64
    # a sample target's grid is its source, a finite domain's grid is all of it
    fixed_grid = isinstance(target, SampleVector) or not space.degrees
    while True:
        grid, gamma, t = _approx_grid(target, space, floor)
        V = space.basis_values(grid)
        rhs = V.conj().T @ (gamma * t)
        c = np.linalg.solve(B, rhs)
        dist = float(np.sqrt(np.sum(gamma * np.abs(t - V @ c) ** 2)))
        converged = last_c is not None and np.max(np.abs(c - last_c)) <= 1e-10 and abs(dist - last_d) <= 1e-9
        if converged or fixed_grid or grid.shape[0] * 2 > _MAX_GRID:
            return c, dist, (V, gamma, t)
        last_c, last_d = c, dist
        floor = 2 * max(floor, max(64 * deg for deg in space.degrees))


def best_approx(target, space: Subspace, p):
    """Best approximation of ``target`` from the space in the L_p sense.

    Returns ``(projection, distance)``. The distance is computed on a
    grid and therefore approximates the true distance from below; for
    p = 2 the projection itself is the exact orthogonal one. The p = inf
    branch is a discrete minimax fit by :func:`_optim.lawson`, which stops
    when its maximum residual stalls and is not held to a stated relative
    accuracy. Other exponents run :func:`_optim.minimize_residual`, the
    solver of :func:`recovery.lpw_recover`, on the L2 projection's grid
    from the projection, to the ``recovery_tol`` first-order tolerance.
    """
    if p != math.inf and p < 1:
        raise InvalidExponentError("norm exponent must satisfy p >= 1")
    if p == math.inf:
        grid, gamma, t = _approx_grid(target, space, 512 if len(space.degrees) == 1 else 128)
        c, dist, _ = _optim.lawson(space.basis_values(grid), t, gamma)
        return CoefficientVector(space, c), dist
    c2, dist2, (V, gamma, t) = _project_l2(target, space)
    if p == 2:
        return CoefficientVector(space, c2), dist2
    c, total, _ = _optim.minimize_residual(V, t, gamma, p, c2)
    return CoefficientVector(space, c), total ** (1.0 / p)


# ---------------------------------------------------------------------------
# conditioning constants


def orthonormal_transform(space: Subspace) -> np.ndarray:
    """Matrix T with ``basis @ T`` orthonormal in L2(mu).

    Identity for torus exponential bases. Raises DegenerateSpaceError when
    the Gram matrix is numerically singular.
    """
    if isinstance(space, TrigSpace):
        return np.eye(space.dim)
    B = space.coef_gram()
    lam, Q = np.linalg.eigh(B)
    if lam[0] <= 1e-12 * max(lam[-1], 1e-300):
        raise DegenerateSpaceError("basis is numerically rank-deficient")
    return Q / np.sqrt(lam)


def christoffel_sup(space: Subspace) -> float:
    """The constant t with ``sup_x sum_i |u_i(x)|^2 = N t^2`` for the
    orthonormalized basis.

    Exactly 1 for exponential systems on the torus, where the sum is
    constantly N. Finite domains are scanned exactly.
    """
    if isinstance(space, TrigSpace):
        return 1.0
    k = christoffel_density(space, space.grid(()))
    return float(math.sqrt(np.max(k) / space.dim))


def christoffel_density(space: Subspace, points) -> np.ndarray:
    """``sum_i |u_i(x)|^2`` of the orthonormalized basis at each point."""
    W = space.basis_values(points) @ orthonormal_transform(space)
    return np.sum(np.abs(W) ** 2, axis=1)


def nikolskii_constant(space: Subspace, q) -> NikolskiiEstimate:
    """Constant of the inequality ``sup |f| <= M ||f||_q`` over the space.

    For q = 2 the constant is an exact identity obtained from the
    orthonormalized Christoffel sum (the pointwise Cauchy-Schwarz bound is
    attained by the kernel at the maximizing point). Other exponents are
    heuristic lower estimates: :func:`_optim.extremize_ratio` maximizes a
    smoothed ratio, the ``SMOOTH_SUP_P`` power mean on :func:`sup_argmax`'s
    grid over ``||f||_q``, and M is the true ratio
    ``sup_argmax(f) / norm_p(f, q)`` at the element it returns.
    """
    if q < 1 or q == math.inf:
        raise InvalidExponentError("Nikolskii exponent must satisfy 1 <= q < inf")
    n = space.dim
    if q == 2:
        t = christoffel_sup(space)
        M = t * math.sqrt(n)
        return NikolskiiEstimate(q, M, M / n ** 0.5, "analytic", 0)
    orthonormal_transform(space)  # rejects rank-deficient bases up front
    Vq, gq = power_rule(space, q)
    Vs = space.basis_values(space.grid(_sup_sizes(space)))
    # the conjugated-peak start is the exact extremizer for flat systems; the
    # peak is at the grid's first point (the torus origin, or point 0)
    starts = [np.conj(Vs[0]), np.ones(n, dtype=complex)]
    _, c, _ = _optim.extremize_ratio(Vs, np.full(Vs.shape[0], 1.0 / Vs.shape[0]), Vq, gq,
                                     _optim.SMOOTH_SUP_P, restarts=6, maximize=True,
                                     seed=(101, n, int(round(q * 1000))), extra_starts=starts,
                                     den_p=q)
    f = CoefficientVector(space, c)
    M = sup_argmax(f)[0] / max(norm_p(f, q), 1e-300)
    return NikolskiiEstimate(q, M, M / n ** (1.0 / q), "grid-search", Vs.shape[0])
