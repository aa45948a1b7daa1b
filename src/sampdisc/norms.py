"""Continuous and discrete norms, best approximations, and related constants.

Every grid but the enumeration oracle's is sized here, one rule per purpose:
:func:`_power_sizes` for certificate and Nikolskii quadratures, exact for even
integer p as ``|f|^p`` is then a trigonometric polynomial of per-coordinate
degree ``p * degree``; :func:`_sup_sizes` for sup searches over elements;
:func:`_handle_sizes` for a function of unknown degree; and
``max(4 * degree + 1, 64)`` nodes per dimension to start an L_p norm at
non-even p. :func:`_refine` doubles such a grid until two successive values
agree (norms to ``QUAD_STOP``, relative, which leaves them accurate to about
1e-8 for the well-scaled functions this toolkit produces). Every grid is
capped by :func:`_capped` before anything is built: each of these rules, and
the oracle's, refuses a grid of over ``_MAX_GRID`` nodes (on a finite domain,
its points) or a sphere search of over ``_MAX_GRID`` values (its rows times
those nodes), and :func:`_refine` never doubles past the cap.

Torus sup norms are lower estimates: grid searches with box scans for
elements, a maximum on the fixed handle grid for other functions.
Finite-domain norms are exact weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _optim
from .errors import (
    DegenerateSpaceError,
    InvalidExponentError,
    InvalidSampleError,
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
    product_rows,
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
QUAD_STOP = 1e-9  # relative agreement of two successive refined values that ends refinement
_NIKOLSKII_ROWS = 8  # rows of the q != 2 Nikolskii search: two fixed starts and six random restarts


class SampleVector:
    """The vector of values of a function at the nodes of a point set."""

    def __init__(self, values, source=None):
        self.values = np.asarray(values, dtype=complex).reshape(-1)
        self.source = source

    def __len__(self):
        return self.values.shape[0]


@dataclass(repr=False, eq=False)
class NikolskiiEstimate:
    """Estimated constant M in ``sup |f| <= M * ||f||_q`` over a subspace.

    ``B = M / N**(1/q)`` is the normalized form used by the sampling
    budgets. ``method`` is "analytic" when M is an exact identity (q = 2)
    and "grid-search" for a lower estimate up to :func:`norm_p`'s
    refinement accuracy, about 1e-8: the ratio ``sup |f| / ||f||_q`` at
    the element a smoothed sphere search found (``grid_size`` sup nodes).
    """

    q: float
    M: float
    B: float
    method: str
    grid_size: int = 0

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
        raise InvalidTargetError(f"cannot evaluate a {type(target).__name__}; lpw_recover fits sampled values")
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


def _is_even_integer(p) -> bool:
    return p != math.inf and float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2


def _capped(space: Subspace, sizes, error, what, rows=1):
    """``sizes``; raises ``error`` when the grid (``prod(sizes)`` nodes, or a
    finite domain's points) passes ``_MAX_GRID`` nodes, or ``rows`` times it
    passes ``_MAX_GRID`` values: the one cap, checked before anything is built."""
    nodes = math.prod(sizes) if sizes else space.domain.size
    if nodes > _MAX_GRID:
        raise error(f"{what} needs {' x '.join(map(str, sizes)) or nodes} grid nodes, more than {_MAX_GRID}")
    if rows * nodes > _MAX_GRID:
        raise error(f"{what} needs a {nodes}-node grid; the heuristic search would hold "
                    f"{rows} x {nodes} values, more than {_MAX_GRID}")
    return sizes


def _power_sizes(space: Subspace, p, rows=1):
    """Nodes per axis of :func:`power_rule`: ``p * degree + 1`` at even
    integer p, else ``max(16 * degree + 1, floor)`` with a floor of 1,024,
    96 or 32 nodes on one, two or more axes; held by :func:`_capped` with the
    search's ``rows`` (InvalidExponentError)."""
    if _is_even_integer(p):
        sizes = [int(p) * deg + 1 for deg in space.degrees]
    else:
        floor = {1: 1024, 2: 96}.get(len(space.degrees), 32)
        sizes = [max(16 * deg + 1, floor) for deg in space.degrees]
    return _capped(space, sizes, InvalidExponentError, f"the quadrature rule of exponent {p!r}", rows)


def power_rule(space: Subspace, p):
    """Quadrature rule (values matrix, weights) for ``||f||_p^p`` on the
    :func:`_power_sizes` grid.

    Exact for finite domains and for even integer p on the torus. For other
    exponents this is a dense-grid relaxation sized generously for the
    space's degree.
    """
    grid = space.grid(_power_sizes(space, p))
    return space.basis_values(grid), np.full(grid.shape[0], 1.0 / grid.shape[0])


def _power_mean(vals, p) -> float:
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


def _refine(compute, sizes, agree):
    """Last ``compute(sizes)``, doubling every axis of ``sizes`` until two
    successive results ``agree(prev, cur)`` or the next grid would exceed
    ``_MAX_GRID`` nodes. A finite domain has no axes: it is computed once."""
    cur = compute(sizes)
    while True:
        if not sizes or math.prod(sizes) * 2 ** len(sizes) > _MAX_GRID:
            return cur
        sizes = [2 * n for n in sizes]
        prev, cur = cur, compute(sizes)
        if agree(prev, cur):
            return cur


def norm_p(f: CoefficientVector, p) -> float:
    """The L_p(mu) norm of an element, 1 <= p <= infinity.

    Exact for finite domains and for even integer p on the torus; else
    :func:`handle_norm_p`'s refinement, or :func:`norm_sup` at p = inf.
    """
    checked_exponent(p)
    if p == math.inf:
        return norm_sup(f)
    if _is_even_integer(p):
        return _power_mean(power_rule(f.space, p)[0] @ f.coefficients, p)
    return handle_norm_p(f, f.space, p)


def handle_norm_p(handle, space: Subspace, p) -> float:
    """L_p norm of an arbitrary function handle over the space's domain.

    Used when the integrand is not an element of a known subspace (e.g. a
    recovery residual). Finite p refines from ``max(4 * degree + 1, 64)``
    nodes per dimension, and refuses a space where those pass ``_MAX_GRID``
    (UnsupportedNormError); p = inf is the largest modulus on the
    :func:`_handle_sizes` grid, which ``best_approx(p=inf)`` fits on.
    """
    checked_exponent(p)
    if p == math.inf:
        return float(np.max(np.abs(call_target(handle, space.grid(_handle_sizes(space))))))
    start = _capped(space, [max(4 * deg + 1, 64) for deg in space.degrees], UnsupportedNormError,
                    f"the L_{p!r} norm of a function on the space's domain")
    return _refine(lambda sizes: _power_mean(call_target(handle, space.grid(sizes)), p), start,
                   lambda prev, cur: abs(cur - prev) <= QUAD_STOP * max(1.0, abs(prev)))


# ---------------------------------------------------------------------------
# sup norm


def _sup_sizes(space: Subspace, rows=1):
    """Nodes per dimension of the sup search over elements of the space, held
    by :func:`_capped` with the search's ``rows`` (UnsupportedNormError)."""
    return _capped(space, [max(64 * deg, 64) for deg in space.degrees], UnsupportedNormError,
                   "the sup search over the space", rows)


def _handle_sizes(space: Subspace):
    """Nodes per dimension for a function of unknown degree on the space's
    domain, at most ``_MAX_GRID`` in all (UnsupportedNormError)."""
    return _capped(space, [max(64 * deg, 512 if len(space.degrees) == 1 else 128) for deg in space.degrees],
                   UnsupportedNormError, "a function on the space's domain")


def sup_argmax(f: CoefficientVector):
    """Lower estimate of ``max |f|`` together with a maximizing point.

    Torus search: the largest modulus on the :func:`_sup_sizes` grid, then
    20 scans, each one basis call, of a box of 9 nodes per axis around the
    best point so far, reaching one grid spacing to each side and then a
    quarter as far each time. The point moves only on a strict improvement,
    so the float returned is never below the grid maximum. Finite domains
    are scanned exactly.
    """
    space = f.space
    sizes = _sup_sizes(space)
    grid = space.grid(sizes)
    vals = np.abs(evaluate(f, grid))
    j = int(np.argmax(vals))
    best_val = float(vals[j])
    x = np.atleast_1d(grid[j])
    if not sizes:  # a finite domain has no coordinates to refine
        return best_val, x
    ticks = np.linspace(-1.0, 1.0, 9)
    for k in range(20):
        box = x + product_rows([(ticks * (TWO_PI / n / 4 ** k))[:, None] for n in sizes])
        vals = np.abs(evaluate(f, box))
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, x = float(vals[j]), box[j]
    return best_val, np.mod(x, TWO_PI)


def norm_sup(f: CoefficientVector) -> float:
    """Uniform norm; exact on finite domains, a grid-search lower estimate
    on the torus (see :func:`sup_argmax`)."""
    return sup_argmax(f)[0]


# ---------------------------------------------------------------------------
# discrete norms


def checked_weights(weights, count: int, of: str) -> np.ndarray:
    """``weights`` as a new float vector of ``count`` finite positive entries,
    so that a later edit of the caller's array does not reach it."""
    w = np.array(weights, dtype=float).reshape(-1)
    if w.shape[0] != count:
        raise InvalidWeightError(f"got {w.shape[0]} weights for {count} {of}")
    if not np.all(np.isfinite(w)):
        raise InvalidWeightError("weights must be finite")
    if np.any(w <= 0):
        raise InvalidWeightError("weights must be strictly positive")
    return w


def checked_exponent(p, finite=False) -> None:
    """Raise InvalidExponentError unless ``1 <= p <= inf``, with ``p < inf``
    when ``finite``; NaN fails too."""
    if not p >= 1 or (finite and p == math.inf):
        raise InvalidExponentError(f"exponent must be >= 1{' and finite' if finite else ''}, got {p!r}")


def discrete_norm(s, p, weights=None) -> float:
    """Weighted discrete p-norm of a sample vector.

    Default weights are uniform ``1/m``. ``p = inf`` takes the plain
    maximum of moduli and rejects explicit weights, which have no
    counterpart in the sup case.
    """
    checked_exponent(p)
    vals = np.asarray(getattr(s, "values", s), dtype=complex).reshape(-1)
    m = vals.shape[0]
    if m == 0:
        raise InvalidSampleError("sample vector must be nonempty")
    if p == math.inf:
        if weights is not None:
            raise UnsupportedNormError("the weighted sup norm is undefined; drop the weights for p=inf")
        return float(np.max(np.abs(vals)))
    w = np.full(m, 1.0 / m) if weights is None else checked_weights(weights, m, "values")
    return float(np.sum(w * np.abs(vals) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# best approximation


def _approx_grid(target, space, sizes):
    """Grid, weights, and target values for the approximation solvers."""
    grid = space.grid(sizes)
    return grid, np.full(grid.shape[0], 1.0 / grid.shape[0]), call_target(target, grid)


def _project_l2(target, space):
    """Orthogonal projection ``c = T T^H V^H (gamma t)``, T from :func:`orthonormal_transform`.
    Returns ``(c, distance, (V, gamma, t))``, the last three on the final grid."""
    T = orthonormal_transform(space)

    def project(sizes):
        grid, gamma, t = _approx_grid(target, space, sizes)
        V = space.basis_values(grid)
        c = T @ (T.conj().T @ (V.conj().T @ (gamma * t)))
        return c, float(np.sqrt(np.sum(gamma * np.abs(t - V @ c) ** 2))), (V, gamma, t)

    return _refine(project, _handle_sizes(space), lambda prev, cur: (
        np.max(np.abs(cur[0] - prev[0])) <= 1e-10 and abs(cur[1] - prev[1]) <= 1e-9))


def best_approx(target, space: Subspace, p):
    """Best approximation of ``target`` from the space in the L_p sense.

    Returns ``(projection, distance)`` for a function or CoefficientVector
    ``target``; sampled values are fitted by :func:`recovery.lpw_recover`. The
    distance is computed on a grid and therefore approximates the true
    distance from below; for p = 2 the projection itself is the exact
    orthogonal one, refined by :func:`_refine` from the :func:`_handle_sizes`
    grid until its coefficients agree to 1e-10 and its distance to 1e-9. The
    p = inf branch is a discrete minimax fit by :func:`_optim.lawson` on the
    :func:`_handle_sizes` grid, which stops when its maximum residual stalls
    and is not held to a stated relative accuracy. Other exponents run
    :func:`_optim.minimize_residual`, the solver of ``lpw_recover``, on the L2
    projection's grid from the projection, until its gradient norm falls to
    ``_optim.RECOVERY_TOL`` times the projection's or no step lowers the sum.
    """
    checked_exponent(p)
    if p == math.inf:
        grid, gamma, t = _approx_grid(target, space, _handle_sizes(space))
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
    """Matrix T with ``basis @ T`` orthonormal in L2(mu); ``T T^H`` is the
    package's one inverse of the Gram matrix.

    Identity for torus exponential bases. On a finite domain it is the
    inverse of R in the QR factorization of the scaled values, so the Gram
    matrix ``R^H R`` is never formed and its condition number is not
    squared. Raises DegenerateSpaceError when R is numerically singular.
    """
    if isinstance(space, TrigSpace):
        return np.eye(space.dim)
    R = np.linalg.qr(space.values / math.sqrt(space.domain.size), mode="r")
    sv = np.linalg.svd(R, compute_uv=False)
    if R.shape[0] < space.dim or sv[-1] <= 1e-6 * sv[0]:
        raise DegenerateSpaceError("basis is numerically rank-deficient")
    return np.linalg.inv(R)


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
    attained by the kernel at the maximizing point). Other exponents give
    lower estimates up to :func:`norm_p`'s refinement accuracy, about 1e-8:
    :func:`_optim.extremize_ratio` maximizes the ``SMOOTH_SUP_P`` power mean
    on the :func:`_sup_sizes` grid over ``||f||_q`` on :func:`power_rule`'s,
    and M is the ratio ``sup_argmax(f) / norm_p(f, q)`` at the element it
    returns. A space whose ``_NIKOLSKII_ROWS`` search rows times sup nodes
    pass ``_MAX_GRID`` is refused by :func:`_sup_sizes` (UnsupportedNormError)
    before any grid is built: on a finite domain, above 524,288 points.
    """
    checked_exponent(q, finite=True)
    n = space.dim
    if q == 2:
        t = christoffel_sup(space)
        M = t * math.sqrt(n)
        return NikolskiiEstimate(float(q), M, M / n ** 0.5, "analytic", 0)
    sizes = _sup_sizes(space, _NIKOLSKII_ROWS)
    orthonormal_transform(space)  # rejects rank-deficient bases up front
    Vq, gq = power_rule(space, q)
    Vs = space.basis_values(space.grid(sizes))
    # the conjugated-peak start is the exact extremizer for flat systems; the
    # peak is at the grid's first point (the torus origin, or point 0)
    starts = [np.conj(Vs[0]), np.ones(n, dtype=complex)]
    _, (c,), _ = _optim.extremize_ratio(Vs, np.full(Vs.shape[0], 1.0 / Vs.shape[0]), Vq, gq,
                                        _optim.SMOOTH_SUP_P, restarts=_NIKOLSKII_ROWS - len(starts),
                                        maximize=(True,), den_p=q,
                                        seed=((101, n, int(round(q * 1000))),), extra_starts=starts)
    f = CoefficientVector(space, c)
    M = sup_argmax(f)[0] / max(norm_p(f, q), 1e-300)
    q = float(q)
    return NikolskiiEstimate(q, M, M / n ** (1.0 / q), "grid-search", Vs.shape[0])
