"""Point-set generation, discretization certificates, and sample-size search.

A certificate for ``(space, points, p)`` bounds the ratio of the discrete
p-th power mean to the continuous one over all nonzero elements of the
space:

    c1 * ||f||_p^p  <=  sum_j w_j |f(xi_j)|^p  <=  c2 * ||f||_p^p

with ``w_j = 1/m`` for unweighted point sets. At p = 2 the constants are
exact: the extreme eigenvalues of the sampled Gram matrix in a basis
orthonormalized by :func:`norms.orthonormal_transform`. For even integer
p = 2s on the torus, ``|f|^p = |f^s|^2`` with ``f^s`` in the span of the
s-fold sumset of the spectrum: the certificate is exact, (1, 1), when the
sample's frame matrix on that span, ``R^H R`` with R the one QR factor of
the weighted sumset basis at the sample, is the identity to 1e-12. All
other exponents fall back to randomized-restart optimization and are
labeled heuristic: the minimum found is only an upper bound on the true
lower constant, the maximum a lower bound on the upper one. One stacked
search finds both. At even p on large samples :func:`certify` hands it the
same R to steer on, at a cost free of the sample size, and each constant is
still the direct discrete ratio at the element found. The extreme squared
singular values of R bracket the true constants, rigorously up to
rounding, and every even-p torus certificate carries them as ``c1_lower``
and ``c2_upper`` (None where no frame exists; ``report.json`` writes null);
``c1_pow`` and ``c2_pow`` stay heuristic estimates.

Good point sets are not constructed directly; they are found. The
module draws random candidates, certifies them a posteriori, and
searches for the smallest sample size whose success rate clears a
threshold, searching only the trials whose bracket leaves their outcome
open (see :func:`minimal_m_search`). Every randomized routine derives an
independent stream from (seed, context indices) and is bit-reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _optim, norms
from .errors import (
    BudgetExhaustedError,
    InvalidExponentError,
    InvalidPointError,
    InvalidSampleError,
    FactorExtractionError,
    MissingSeedError,
    OracleTooLargeError,
    SearchFailedError,
    UnsupportedDomainError,
)
from .spaces import (TWO_PI, CoefficientVector, Spectrum, Subspace, TrigSpace, is_count, product_rows,
                     torus_grid)

logger = logging.getLogger(__name__)

__all__ = [
    "PointSet",
    "Certificate",
    "TwoStageBudget",
    "CurvePoint",
    "MinimalMResult",
    "generate_points",
    "certify",
    "brute_force_certificate",
    "two_stage_subsample",
    "minimal_m_search",
    "extract_factor",
    "success_curve_csv",
]


class PointSet:
    """An ordered set of m domain points with a provenance record and the
    read-only node ``weights`` of its discrete norms: a copy of the given
    ``weights`` (finite and positive, InvalidWeightError) with ``weighted``
    True, else uniform ``1/m`` with ``weighted`` False."""

    def __init__(self, points, provenance=None, factors=None, *, weights=None):
        pts = np.asarray(points)
        if pts.size == 0:
            raise InvalidSampleError("point set must be nonempty")
        if np.iscomplexobj(pts):
            raise InvalidPointError("points must be real, not complex")
        if np.issubdtype(pts.dtype, np.floating):
            if not np.all(np.isfinite(pts)):
                raise InvalidPointError("points must be finite")
            pts = np.mod(np.asarray(pts, dtype=float), TWO_PI)
            if pts.ndim == 1:
                pts = pts[:, None]
        else:
            pts = pts.copy()
        self.points = pts
        self.points.setflags(write=False)
        self.provenance = dict(provenance or {})
        self.factors = tuple(factors) if factors else None
        self.weighted = weights is not None
        self.weights = (norms.checked_weights(weights, self.m, "points") if self.weighted
                        else np.full(self.m, 1.0 / self.m))
        self.weights.setflags(write=False)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        out = {"points": self.points.tolist(), "provenance": self.provenance}
        if self.weighted:
            out.update(weights=self.weights.tolist(), weight_sum=float(np.sum(self.weights)))
        return out

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m})"


@dataclass
class Certificate:
    """Discretization constants for one (space, points, p) triple.

    ``c1_pow`` and ``c2_pow`` compare p-th powers, except at p = inf where
    ``c1_pow`` is the norm-form constant and ``c2_pow`` is identically 1.
    ``weighted`` records whether the bounds refer to the point set's own
    weights (True) or to the uniform 1/m weighting. ``c1_lower`` and
    ``c2_upper`` bracket the true constants, rigorously up to rounding:
    the p = 2 eigenvalues, or at even p on the torus the extreme
    eigenvalues of the sumset frame matrix; None where no frame exists
    (``c2_upper`` also when the sumset is not built).
    """

    p: float
    c1_pow: float
    c2_pow: float
    method: str  # exact-eigen | exact-quadrature | optimization-bound | brute-force | transfer
    status: str  # certified | heuristic-upper-C1 | heuristic
    tolerance: float | None = None
    weighted: bool = False
    c1_lower: float | None = None
    c2_upper: float | None = None

    def meets(self, eps: float) -> bool:
        """True when the constants lie within the (1 - eps, 1 + eps) band."""
        return self.c1_pow >= 1.0 - eps and self.c2_pow <= 1.0 + eps

    def to_dict(self) -> dict:
        """The fields, with p = inf as None."""
        return {**asdict(self), "p": None if self.p == math.inf else self.p}


# ---------------------------------------------------------------------------
# point generation


def generate_points(space: Subspace, mode: str, m: int | None = None, *,
                    sizes=None, factors=None, seed=None):
    """Generate a candidate point set for the given space.

    Modes: ``iid`` draws m points from the domain measure; ``equispaced``
    builds the uniform grid (per-dimension sizes for product domains);
    ``tensor`` takes the cartesian product of factor point sets;
    ``leverage`` draws from the normalized Christoffel density by
    rejection sampling and returns a weighted :class:`PointSet` whose
    weights are the matching reciprocals ``N / (m k(x_j))``.
    """
    if mode in ("iid", "leverage"):
        if seed is None:
            raise MissingSeedError(f"{mode} generation requires a seed")
        _check_count(m, "m")
        try:
            rng = np.random.default_rng(seed)
        except (TypeError, ValueError) as exc:
            raise InvalidSampleError(f"bad seed {seed!r}: {exc}") from exc

    if mode == "iid":
        return PointSet(space.draw(rng, m), {"mode": "iid", "seed": _seed_repr(seed), "m": int(m)})

    if mode == "equispaced":
        if not isinstance(space, TrigSpace):
            raise UnsupportedDomainError("equispaced nodes require a torus space")
        d = space.domain.dim
        if sizes is None:
            _check_count(m, "m")
            sizes = [m] * d
        sizes = list(sizes)
        if len(sizes) != d or not all(map(is_count, sizes)):
            raise InvalidSampleError(f"need {d} integer grid sizes >= 1, got {sizes!r}")
        sizes = [int(s) for s in sizes]
        return PointSet(torus_grid(sizes), {"mode": "equispaced", "sizes": sizes})

    if mode == "tensor":
        if factors is None or len(factors) < 2:
            raise InvalidSampleError("tensor mode needs at least two factor point sets")
        if not isinstance(space, TrigSpace) or space.factors is None:
            raise UnsupportedDomainError("tensor mode requires a tensor-product space")
        if len(factors) != len(space.factors):
            raise InvalidSampleError("one factor point set per tensor factor")
        for fac_space, fac_pts in zip(space.factors, factors):
            if np.asarray(fac_pts.points).shape[1] != fac_space.domain.dim:
                raise InvalidSampleError("factor point set does not match factor domain")
        # cartesian product, first factor varying slowest
        out = product_rows([np.asarray(f.points, dtype=float) for f in factors])
        prov = {"mode": "tensor", "factor_sizes": [f.m for f in factors],
                "factor_provenance": [f.provenance for f in factors]}
        return PointSet(out, prov, factors=factors)

    if mode == "leverage":
        n = space.dim
        t = norms.christoffel_sup(space)
        envelope = n * t * t * (1.0 + 1e-9)
        accepted = []
        proposals = 0
        while sum(a.shape[0] for a in accepted) < m:
            batch = max(2 * m, 64)
            pts = space.draw(rng, batch)
            k = norms.christoffel_density(space, pts)
            u = rng.uniform(0.0, 1.0, size=batch)
            keep = u <= k / envelope
            proposals += batch
            accepted.append(pts[keep])
        pts = np.concatenate(accepted, axis=0)[:m]
        k = norms.christoffel_density(space, pts)
        weights = n / (m * k)
        prov = {"mode": "leverage", "seed": _seed_repr(seed), "m": int(m),
                "acceptance_rate": m / proposals if proposals else 1.0}
        return PointSet(pts, prov, weights=weights)

    raise InvalidSampleError(f"unknown generation mode {mode!r}")


def _check_count(value, name, least=1):
    """Raise InvalidSampleError unless ``value`` is an integer >= ``least``."""
    if not is_count(value, least):
        raise InvalidSampleError(f"need an integer {name} >= {least}, got {value!r}")


def _seed_repr(seed):
    return list(seed) if isinstance(seed, (tuple, list)) else int(seed)


# ---------------------------------------------------------------------------
# certification


def _sumset_space(space: TrigSpace, s: int, rows: int = 1) -> TrigSpace:
    """Span of the s-fold sumset ``K + ... + K`` of the spectrum K, built by
    s - 1 additions of K; refused (InvalidExponentError) as soon as ``rows``
    times a partial sumset, which sK contains a translate of, passes
    ``norms._MAX_GRID`` values. One frequency k gives the one frequency sk,
    with no additions (the sumset would not grow to meet the cap)."""
    K = S = space.spectrum.frequencies
    if len(K) == 1:
        return TrigSpace(Spectrum(s * K))
    for _ in range(s - 1):
        S = np.unique((S[:, None, :] + K[None, :, :]).reshape(-1, K.shape[1]), axis=0)
        if rows * S.shape[0] > norms._MAX_GRID:
            raise InvalidExponentError(f"the sumset frame of exponent {2 * s} would hold {rows} x "
                                       f"{S.shape[0]} or more values, more than {norms._MAX_GRID}")
    return TrigSpace(Spectrum(S))


@dataclass
class _Search:
    """A certificate prepared up to its one ``extremize_ratio`` call, which
    ``run()`` makes; :func:`_prepare` returns one on every path. An exact
    certificate comes as a search already done: ``run()`` returns it, its
    bracket is the certificate's, and its start ratios are its constants.
    ``c1_lower`` and ``c2_upper`` are the frame bracket, None where no frame
    exists; the search's c1 is at most ``c1_start`` and its c2 at least
    ``c2_start``, the least and greatest direct ratio at its fixed starts (it
    only accepts improvements)."""

    run: object
    c1_lower: float | None = None
    c2_upper: float | None = None
    c1_start: float = math.inf
    c2_start: float = -math.inf

    @property
    def c1_floor(self) -> float:
        """``c1_lower``, 0 without one, less ``_MARGIN`` relative for rounding."""
        return (self.c1_lower or 0.0) * (1 - _MARGIN)

    @property
    def c2_ceiling(self) -> float:
        """``c2_upper``, inf without one, plus ``_MARGIN`` relative."""
        return math.inf if self.c2_upper is None else self.c2_upper * (1 + _MARGIN)

    def verdict(self, eps):
        """True or False when the bracket or a start ratio, widened by
        ``_MARGIN``, decides the (1 +- eps) band test; None when only the
        search can."""
        inside = self.c1_floor >= 1 - eps and self.c2_ceiling <= 1 + eps
        outside = self.c1_start * (1 + _MARGIN) < 1 - eps or self.c2_start * (1 - _MARGIN) > 1 + eps
        return bool(inside) if inside != outside else None


_MARGIN = 1e-12  # relative slack on a bracket or start ratio in the probe's decisions


def _done(cert: Certificate) -> _Search:
    """The search of an exact certificate, already done."""
    return _Search(lambda: cert, cert.c1_lower, cert.c2_upper, cert.c1_pow, cert.c2_pow)


def _heuristic_search(space, sample, p, budget, frame=None, bracket=(None, None)) -> _Search:
    """Both constants from one stacked min/max search of ``extremize_ratio``,
    refused (InvalidExponentError) when its rows times the :func:`norms.power_rule`
    nodes (a finite domain's points) pass ``norms._MAX_GRID``.

    ``frame = (lift, R)``, the span of the sumset sK at p = 2s and the R
    factor of its weighted values at the sample, makes the search steer on
    the frame matrix ``R^H R`` (``extremize_ratio``'s numerator hook);
    :func:`certify` passes it when it pays. Either way the constants are the
    direct discrete ratios at the elements found.
    """
    U = space.basis_values(sample.points)
    # adversarial starts: near-null directions of the sampled system
    _, sv, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), vt[0].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    singular = U.shape[0] < space.dim or (sv.size and sv[-1] <= 1e-10 * sv[0])
    senses = (True,) if singular else (False, True)
    sizes = norms._power_sizes(space, p, rows=len(senses) * (budget + len(extras)))
    V, gamma = norms.power_rule(space, p)
    E = np.array(extras)
    starts = (_optim._power_sum(E @ U.T, sample.weights, p)
              / np.maximum(_optim._power_sum(E @ V.T, gamma, p), 1e-300))

    def run():
        hook = None if frame is None else (frame[0].basis_values(space.grid(sizes)), frame[1])
        ratios, _, _ = _optim.extremize_ratio(U, sample.weights, V, gamma, p, restarts=budget, maximize=senses,
                                              seed=tuple((0xC2 if mx else 0xC1, 0) for mx in senses),
                                              extra_starts=extras, lift=hook)
        return Certificate(float(p), 0.0 if singular else max(ratios[0], 0.0), ratios[-1], "optimization-bound",
                           "heuristic-upper-C1", tolerance=None, weighted=sample.weighted,
                           c1_lower=bracket[0], c2_upper=bracket[1])

    return _Search(run, *bracket, c1_start=0.0 if singular else float(np.min(starts)),
                   c2_start=float(np.max(starts)))


def _sup_certificate(space, sample, budget) -> Certificate:
    # smoothed max: power mean with a large even exponent steers the
    # search, the reported constant is the true ratio at the best point
    U = space.basis_values(sample.points)
    _, sv, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    sizes = norms._sup_sizes(space, rows=budget + len(extras))
    V = space.basis_values(space.grid(sizes))
    wnum = np.full(U.shape[0], 1.0 / U.shape[0])
    wden = np.full(V.shape[0], 1.0 / V.shape[0])
    _, (c,), _ = _optim.extremize_ratio(U, wnum, V, wden, _optim.SMOOTH_SUP_P, restarts=budget,
                                        seed=((0xC3, 0),), extra_starts=extras)
    f = CoefficientVector(space, c)
    num = float(np.max(np.abs(U @ c)))
    den = norms.sup_argmax(f)[0]
    c1 = num / max(den, 1e-300)
    return Certificate(math.inf, min(c1, 1.0), 1.0, "optimization-bound",
                       "heuristic", tolerance=None, weighted=False)


def certify(space: Subspace, sample: PointSet, p, budget: int = 64) -> Certificate:
    """Compute discretization constants for (space, sample, p).

    p = 2 is exact: the eigenvalues of the sampled Gram matrix, which are
    also its bracket. Even integer p = 2s on the torus is exact when every
    squared singular value of R, the R factor of the weighted basis of the
    s-fold sumset sK at the sample (so ``R^H R`` is its frame matrix), lies
    within 1e-12 of 1. Everything else is a randomized-restart optimization
    bound, ``heuristic-upper-C1``; see the module docstring for its
    one-sidedness. At p = 2s the certificate carries the frame bracket
    ``c1_lower <= c1 <= c2 <= c2_upper`` with ``c1_lower = sigma_min(R)^2``
    (0 when |sK| > m) and ``c2_upper = sigma_max(R)^2``. When sK is not
    built (s (N - 1) >= m), ``c1_lower`` is 0 and ``c2_upper`` None; on every
    other heuristic path both are None. The bracket is rigorous up to
    rounding; ``c1_pow`` and ``c2_pow`` stay the search's estimates, inside
    it.

    At p = 2s the search steers on the same R when ``m > nodes * |sK|``,
    nodes those of the exact rule: the direct numerator costs O(m N) per row
    and evaluation, the lifted one O(nodes (N + |sK|) + |sK|^2). Direct /
    lifted time of a stacked p = 4 call (16 restarts a sense; best of 3; 2
    cores, 1 BLAS thread) on five 1-D spaces with N = 2-4: 0.74-1.02 at
    m <= 48, 0.92-1.26 at m = 96, 0.96-1.83 at m = 192, 2.5-6.8 at m = 768
    and 8.4-13.8 at m = 1,536. The rule lifts lacunary spaces with
    N = 2, 3, 4 above m = 27, 102 and 330. Finite p raises
    InvalidExponentError, and p = inf UnsupportedNormError, when the
    quadrature or sup grid passes ``norms._MAX_GRID`` nodes or the heuristic
    search would hold more than ``_MAX_GRID`` values (its rows times those
    nodes); at p = 2s on the torus also when the sumset frame would (m times
    |sK|, refused while sK is built). A finite domain's grid is all its
    points: at the default budget a full-rank sample is refused above 31,300
    of them at finite p != 2, and above 63,550 at p = inf. ``budget``, the
    restarts of each heuristic search, is an integer >= 1
    (InvalidSampleError).

    The work runs in two steps, which :func:`minimal_m_search` calls apart:
    ``_prepare`` gives the search with its bracket, and its ``run()`` makes
    the one optimizer call, or at once returns an exact certificate.
    """
    return _prepare(space, sample, p, budget).run()


def _prepare(space: Subspace, sample: PointSet, p, budget: int) -> _Search:
    """:func:`certify` up to its heuristic search: the search with its bracket
    and start ratios, already done for an exact certificate. Each call builds
    its own power rule."""
    norms.checked_exponent(p)
    _check_count(budget, "budget")
    if p == math.inf:
        return _Search(lambda: _sup_certificate(space, sample, budget))
    if p == 2:
        U = space.basis_values(sample.points)
        if not isinstance(space, TrigSpace):  # the torus basis is already orthonormal
            U = U @ norms.orthonormal_transform(space)
        lam = np.linalg.eigvalsh(U.conj().T @ (sample.weights[:, None] * U))
        c1, c2 = max(float(lam[0]), 0.0), float(lam[-1])
        return _done(Certificate(2.0, c1, c2, "exact-eigen", "certified", tolerance=1e-12 * max(c2, 1.0),
                                 weighted=sample.weighted, c1_lower=c1, c2_upper=c2))
    if not (norms._is_even_integer(p) and isinstance(space, TrigSpace)):
        return _heuristic_search(space, sample, p, budget)
    nodes = math.prod(norms._power_sizes(space, p))  # refuses a rule past _MAX_GRID before anything is built
    s = int(p) // 2
    # |sK| >= s (N - 1) + 1, as for any sumset in Z^d: below that the frame
    # test and the lifted search are both out of reach, so sK is not built
    if s * (space.dim - 1) >= sample.m:
        return _heuristic_search(space, sample, p, budget, bracket=(0.0, None))
    lift = _sumset_space(space, s, rows=sample.m)
    R = np.linalg.qr(np.sqrt(sample.weights)[:, None] * lift.basis_values(sample.points), mode="r")
    lam = np.linalg.svd(R, compute_uv=False) ** 2
    # a frame matrix of rank below lift.dim (R has m < |sK| rows) is never I: c1_lower = 0 fails
    bracket = (float(lam[-1]) if lift.dim <= sample.m else 0.0, float(lam[0]))
    deviation = max(1.0 - bracket[0], bracket[1] - 1.0)
    if deviation <= 1e-12:
        return _done(Certificate(float(p), 1.0, 1.0, "exact-quadrature", "certified",
                                 tolerance=max(deviation, 1e-15), weighted=sample.weighted,
                                 c1_lower=bracket[0], c2_upper=bracket[1]))
    frame = (lift, R) if sample.m > nodes * lift.dim else None
    return _heuristic_search(space, sample, p, budget, frame, bracket)


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_rule(space: Subspace, p):
    """Quadrature for the oracle: the exact :func:`norms.power_rule` for even
    integer p, else equispaced means on a grid of its own."""
    if norms._is_even_integer(p):
        return norms.power_rule(space, p)
    per = {1: 512, 2: 64}.get(len(space.degrees), 24)
    grid = space.grid(norms._capped(space, [max(per, 4 * deg + 1) for deg in space.degrees],
                                    OracleTooLargeError, "the oracle's rule"))
    return space.basis_values(grid), np.full(grid.shape[0], 1.0 / grid.shape[0])


def _abs_pow(y, p):
    a = np.abs(y)
    ip = int(p)
    if float(p) == ip:
        out = a.copy()
        for _ in range(ip - 1):
            out *= a
        return out
    return a ** p


def _oracle_ratios(C, U, w, V, gamma, p):
    # 1,024 directions at a time, so the products with V stay small
    return np.concatenate([(_abs_pow(B @ U.T, p) @ w) / np.maximum(_abs_pow(B @ V.T, p) @ gamma, 1e-300)
                           for B in np.split(C, range(1024, C.shape[0], 1024))])


def brute_force_certificate(space: Subspace, sample: PointSet, p,
                            resolution: int = 200) -> Certificate:
    """Certificate by pure enumeration, for cross-checking ``certify``.

    Sweeps a deterministic quasi-uniform set of coefficient directions,
    normalizes each to unit continuous norm implicitly via the ratio, and
    returns the extreme discrete p-th powers observed; nested shrinking
    sweeps around the extremes sharpen the estimate. The reported
    tolerance scales like the squared covering radius of the sweep,
    calibrated to 1e-3 at resolution 200. Guarded to N <= 3 and to a
    finite p >= 1. The label is ``heuristic-upper-C1`` (the minimum seen
    bounds C1 from above, the maximum C2 from below), except at N = 1,
    whose single ratio is exact and ``certified``.
    """
    norms.checked_exponent(p, finite=True)
    _check_count(resolution, "resolution")
    n = space.dim
    if n > 3:
        raise OracleTooLargeError("brute-force oracle supports N <= 3 only")
    w = sample.weights
    U = space.basis_values(sample.points)
    V, gamma = _oracle_rule(space, p)
    tol = max(1e-6, 1e-3 * (200.0 / resolution) ** 2)
    if n == 1:
        r = float(_oracle_ratios(np.ones((1, 1), dtype=complex), U, w, V, gamma, p)[0])
        return Certificate(float(p), r, r, "brute-force", "certified", tolerance=tol,
                           weighted=sample.weighted)

    rng = np.random.default_rng((0x0AC, n, int(resolution)))
    lo, hi = math.inf, -math.inf
    c_lo = c_hi = None

    def sweep(center, h, k, sides):
        # k random directions around center; keeps new extremes on the given sides
        nonlocal lo, hi, c_lo, c_hi
        C = center + h * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        r = _oracle_ratios(C, U, w, V, gamma, p)
        i_lo, i_hi = int(np.argmin(r)), int(np.argmax(r))
        if "lo" in sides and r[i_lo] < lo:
            lo, c_lo = float(r[i_lo]), C[i_lo]
        if "hi" in sides and r[i_hi] > hi:
            hi, c_hi = float(r[i_hi]), C[i_hi]

    total = min(resolution ** (2 * n - 2), 120_000)
    for start in range(0, total, 8_192):
        sweep(0.0, 1.0, min(8_192, total - start), ("lo", "hi"))
    h = 4.0 * total ** (-1.0 / (2 * n - 2))
    for _ in range(5):
        sweep(c_lo, h, 8_192, ("lo",))
        sweep(c_hi, h, 8_192, ("hi",))
        h /= 4.0
    return Certificate(float(p), max(lo, 0.0), hi, "brute-force", "heuristic-upper-C1",
                       tolerance=tol, weighted=sample.weighted)


# ---------------------------------------------------------------------------
# two-stage subsampling


@dataclass
class TwoStageBudget:
    """Budgets of the two-stage procedure: a large first draw, the target
    subset size, and the number of subset retries; integers with
    ``1 <= stage2_m <= stage1_s`` and ``retries >= 0`` (InvalidSampleError)."""

    stage1_s: int
    stage2_m: int
    retries: int = 50

    def __post_init__(self):
        _check_count(self.stage1_s, "stage1_s")
        _check_count(self.stage2_m, "stage2_m")
        _check_count(self.retries, "retries", least=0)
        if self.stage2_m > self.stage1_s:
            raise InvalidSampleError("need 1 <= stage2_m <= stage1_s")


_TWO_STAGE_BUDGET = 32  # restarts of each heuristic two-stage certificate


def two_stage_subsample(space: Subspace, q, eps: float, budgets: TwoStageBudget, seed):
    """Draw a large iid set, then search for a small certified subset.

    Stage 1 draws ``stage1_s`` iid points and certifies them against the
    continuous norm (exactly at q = 2, heuristically otherwise). Stage 2
    repeatedly draws uniform subsets of size ``stage2_m`` without
    replacement and returns the first whose certificate lies in the
    (1 +- eps) band; after ``retries`` failures it raises
    BudgetExhaustedError carrying the best attempt.
    """
    if q < 2:
        raise InvalidExponentError("the two-stage procedure needs q >= 2")
    if not 0 < eps < 1:
        raise InvalidExponentError("eps must lie in (0, 1)")
    stage1 = generate_points(space, "iid", budgets.stage1_s, seed=(seed, 0x51))
    cert1 = certify(space, stage1, q, budget=_TWO_STAGE_BUDGET)
    logger.info("two-stage stage1: S=%d c1=%.4f c2=%.4f", stage1.m, cert1.c1_pow, cert1.c2_pow)
    if budgets.stage2_m == budgets.stage1_s:
        return stage1, cert1

    best_score = -math.inf
    best = (None, None)
    for attempt in range(budgets.retries):
        rng = np.random.default_rng((seed, 0x52, attempt))
        idx = rng.choice(budgets.stage1_s, size=budgets.stage2_m, replace=False)
        subset = PointSet(np.asarray(stage1.points)[np.sort(idx)],
                          {"mode": "subsample", "parent": stage1.provenance,
                           "retry": attempt, "stage1_certificate": cert1.to_dict()})
        cert = certify(space, subset, q, budget=_TWO_STAGE_BUDGET)
        logger.debug("two-stage attempt %d: c1=%.4f c2=%.4f", attempt, cert.c1_pow, cert.c2_pow)
        if cert.meets(eps):
            return subset, cert
        score = min(cert.c1_pow - (1.0 - eps), (1.0 + eps) - cert.c2_pow)
        if score > best_score:
            best_score, best = score, (subset, cert)
    raise BudgetExhaustedError(
        f"no certified subset of size {budgets.stage2_m} in {budgets.retries} retries",
        best_points=best[0], best_certificate=best[1],
    )


# ---------------------------------------------------------------------------
# minimal sample-size search


@dataclass
class CurvePoint:
    """Aggregated certification outcome of all trials at one sample size."""

    m: int
    trials: int
    successes: int
    c1_min: float
    c2_max: float


@dataclass
class MinimalMResult:
    """Outcome of the bisection: the smallest admissible m and the probed
    success-rate curve (sorted by m)."""

    m_star: int
    curve: list = field(default_factory=list)


def minimal_m_search(space: Subspace, p, eps: float, trials: int,
                     success_threshold: float, seed, m_max: int | None = None,
                     budget: int = 16) -> MinimalMResult:
    """Bisect for the smallest m whose trial success rate clears the threshold.

    A trial at size m draws m iid points from the measure, certifies them,
    and succeeds when the constants lie in the (1 +- eps) band. Trials
    derive their streams from (seed, m, trial), so the result is
    deterministic and independent of probing order.

    A probe needs only its successes, least c1 and greatest c2, so it runs
    the heuristic search of a trial only where that can change them. It
    prepares every trial as a search, as :func:`certify` does; a trial whose
    frame bracket lies in the band is a success, and one with a start ratio
    outside it a failure (see ``_Search.verdict``). It runs every undecided
    trial, then trials in ascending ``c1_lower`` while that is at most the
    least c1 found, then in descending ``c2_upper`` while that is at least
    the greatest c2 found. A run makes the same call as in :func:`certify`,
    so the curve is the one certifying every trial gives, bit for bit. An
    exact trial (p = 2, or exact quadrature at even p) is a search already
    done, bracketed by its own constants, so its run calls no optimizer; the
    debug log marks a trial ``searched`` only when its optimizer ran.
    Without a bracket (odd or non-integer p, p = inf, a finite domain) every
    trial is searched; at p = 2 none is.

    ``m_max`` (default ``max(2N, ceil(32 N log2(2N)^2))``) is an integer
    >= 1 whose m_max x N basis matrix holds at most ``norms._MAX_GRID``
    values, else InvalidSampleError before any point is drawn.
    ``success_threshold``, the least success rate, lies in [0, 1] and ``eps``
    in (0, 1), else InvalidExponentError, also before any draw.
    """
    if not 0 < eps < 1:
        raise InvalidExponentError("eps must lie in (0, 1)")
    if not 0 <= success_threshold <= 1:
        raise InvalidExponentError(f"success_threshold must lie in [0, 1], got {success_threshold!r}")
    _check_count(trials, "number of trials")
    n = space.dim
    if m_max is None:
        m_max = max(2 * n, math.ceil(32 * n * max(1.0, math.log2(2 * n)) ** 2))
    _check_count(m_max, "m_max")
    if m_max * n > norms._MAX_GRID:
        raise InvalidSampleError(f"an m_max above {norms._MAX_GRID // n} needs an m_max x {n} basis matrix, "
                                 f"more than {norms._MAX_GRID} values")
    probed: dict[int, CurvePoint] = {}

    def probe(m: int) -> bool:
        if m not in probed:
            preps = [_prepare(space, generate_points(space, "iid", m, seed=(seed, m, t)), p, budget)
                     for t in range(trials)]
            outcomes = _settle(preps, eps)
            certs = [o for o in outcomes if o is not None]
            successes = sum(x.verdict(eps) if o is None else o.meets(eps) for x, o in zip(preps, outcomes))
            searched = [o is not None and o.method == "optimization-bound" for o in outcomes]
            for t, (x, o) in enumerate(zip(preps, outcomes)):
                logger.debug("probe m=%d trial=%d stream=(%s,%d,%d) %s c1_lower=%s c2_upper=%s "
                             "starts=%s/%s c1=%s c2=%s", m, t, seed, m, t,
                             "searched" if searched[t] else "decided", x.c1_lower, x.c2_upper,
                             x.c1_start, x.c2_start, *((None, None) if o is None else (o.c1_pow, o.c2_pow)))
            probed[m] = CurvePoint(m, trials, successes, min(c.c1_pow for c in certs),
                                   max(c.c2_pow for c in certs))
            logger.info("probe m=%d: %d/%d successes, %d/%d searched", m, successes, trials, sum(searched),
                        trials)
        pt = probed[m]
        return pt.successes >= success_threshold * pt.trials

    def curve():
        return [probed[k] for k in sorted(probed)]

    if probe(n):
        return MinimalMResult(n, curve())
    if not probe(m_max):
        raise SearchFailedError(f"no m <= {m_max} reaches the success threshold", curve=curve())
    lo, hi = n, m_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return MinimalMResult(hi, curve())


def _settle(preps, eps):
    """:func:`minimal_m_search`'s pruning: per ``_Search`` of ``preps``, its
    Certificate, or None if its verdict decides it and its constants cannot
    change the probe's least c1 or greatest c2."""
    out = [x.run() if x.verdict(eps) is None else None for x in preps]
    for i in sorted((i for i, o in enumerate(out) if o is None), key=lambda i: preps[i].c1_floor):
        if preps[i].c1_floor > min((o.c1_pow for o in out if o is not None), default=math.inf):
            break
        out[i] = preps[i].run()
    for i in sorted((i for i, o in enumerate(out) if o is None), key=lambda i: -preps[i].c2_ceiling):
        if preps[i].c2_ceiling < max((o.c2_pow for o in out if o is not None), default=-math.inf):
            break
        out[i] = preps[i].run()
    return out


def success_curve_csv(curve) -> str:
    """CSV payload for a success-rate curve (deterministic formatting)."""
    lines = ["m,trials,successes,c1_min,c2_max"]
    for pt in curve:
        lines.append(f"{pt.m},{pt.trials},{pt.successes},{pt.c1_min!r},{pt.c2_max!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tensor factor extraction


def extract_factor(space: TrigSpace, tensor_sample: PointSet, index: int,
                   tensor_cert: Certificate):
    """Transfer a tensor-set certificate to one factor point set.

    Valid because a function of one block of variables belongs to the
    tensor space whenever every other factor contains the constants; the
    tensor-set mean of such a function reduces to the factor-set mean.
    The transferred constants are inherited as-is (they bound, but need
    not equal, the factor's own best constants).
    """
    if space.factors is None:
        raise UnsupportedDomainError("extract_factor needs a tensor-product space")
    if tensor_sample.factors is None:
        raise InvalidSampleError("point set has no tensor provenance")
    if not 0 <= index < len(tensor_sample.factors):
        raise InvalidSampleError(f"factor index {index} out of range")
    for i, fac in enumerate(space.factors):
        if not fac.contains_constant:
            raise FactorExtractionError(f"tensor factor {i} does not contain the constants")
    transferred = replace(tensor_cert, method="transfer")
    return tensor_sample.factors[index], transferred
