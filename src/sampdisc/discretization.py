"""Point-set generation, discretization certificates, and sample-size search.

A certificate for ``(space, points, p)`` bounds the ratio of the discrete
p-th power mean to the continuous one over all nonzero elements of the
space:

    c1 * ||f||_p^p  <=  sum_j w_j |f(xi_j)|^p  <=  c2 * ||f||_p^p

with ``w_j = 1/m`` for unweighted point sets. At p = 2 the constants are
the extreme eigenvalues of the sampled frame matrix and exact. For even
integer p the certificate is exact whenever the sample integrates all
trigonometric polynomials up to degree ``p * degree``; this is verified
numerically from the aliasing moments rather than assumed from
provenance. All other exponents fall back to randomized-restart
optimization and are labeled heuristic: the minimum found is only an
upper bound on the true lower constant, the maximum a lower bound on the
upper one.

Good point sets are not constructed directly; they are found. The
module draws random candidates, certifies them a posteriori, and
searches for the smallest sample size whose success rate clears a
threshold. Every randomized routine derives an independent
stream from (seed, context indices) and is bit-reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _optim, norms
from .errors import (
    BudgetExhaustedError,
    InvalidExponentError,
    InvalidSampleError,
    FactorExtractionError,
    MissingSeedError,
    OracleTooLargeError,
    SearchFailedError,
    UnsupportedDomainError,
)
from .spaces import TWO_PI, CoefficientVector, Subspace, TrigSpace, torus_grid

logger = logging.getLogger(__name__)

__all__ = [
    "PointSet",
    "WeightedPointSet",
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
    """An ordered set of m domain points with a provenance record."""

    def __init__(self, points, provenance=None, factors=None):
        pts = np.asarray(points)
        if pts.size == 0:
            raise InvalidSampleError("point set must be nonempty")
        if np.issubdtype(pts.dtype, np.floating) or np.issubdtype(pts.dtype, np.complexfloating):
            pts = np.mod(np.asarray(pts, dtype=float), TWO_PI)
            if pts.ndim == 1:
                pts = pts[:, None]
        else:
            pts = pts.copy()
        self.points = pts
        self.points.setflags(write=False)
        self.provenance = dict(provenance or {})
        self.factors = tuple(factors) if factors else None

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        return {"points": self.points.tolist(), "provenance": self.provenance}

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m})"


class WeightedPointSet(PointSet):
    """A point set with strictly positive per-node weights."""

    def __init__(self, points, weights, provenance=None, factors=None):
        super().__init__(points, provenance, factors)
        self.weights = norms.checked_weights(weights, self.m, "points")
        self.weights.setflags(write=False)
        self.weight_sum = float(np.sum(self.weights))

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["weights"] = self.weights.tolist()
        out["weight_sum"] = self.weight_sum
        return out


@dataclass
class Certificate:
    """Discretization constants for one (space, points, p) triple.

    ``c1_pow`` and ``c2_pow`` compare p-th powers, except at p = inf where
    ``c1_pow`` is the norm-form constant and ``c2_pow`` is identically 1.
    ``weighted`` records whether the bounds refer to the point set's own
    weights (True) or to the uniform 1/m weighting.
    """

    p: float
    c1_pow: float
    c2_pow: float
    method: str  # exact-eigen | exact-quadrature | optimization-bound | brute-force | transfer
    status: str  # certified | heuristic-upper-C1 | heuristic
    tolerance: float | None = None
    weighted: bool = False

    def meets(self, eps: float) -> bool:
        """True when the constants lie within the (1 - eps, 1 + eps) band."""
        return self.c1_pow >= 1.0 - eps and self.c2_pow <= 1.0 + eps

    def to_dict(self) -> dict:
        return {
            "p": None if self.p == math.inf else self.p,
            "c1_pow": self.c1_pow,
            "c2_pow": self.c2_pow,
            "method": self.method,
            "status": self.status,
            "tolerance": self.tolerance,
            "weighted": self.weighted,
        }


# ---------------------------------------------------------------------------
# point generation


def generate_points(space: Subspace, mode: str, m: int | None = None, *,
                    sizes=None, factors=None, seed=None):
    """Generate a candidate point set for the given space.

    Modes: ``iid`` draws m points from the domain measure; ``equispaced``
    builds the uniform grid (per-dimension sizes for product domains);
    ``tensor`` takes the cartesian product of factor point sets;
    ``leverage`` draws from the normalized Christoffel density by
    rejection sampling and attaches the matching reciprocal weights.
    """
    if mode in ("iid", "leverage"):
        if seed is None:
            raise MissingSeedError(f"{mode} generation requires a seed")
        if m is None or m < 1:
            raise InvalidSampleError("need m >= 1 points")
        rng = np.random.default_rng(seed)

    if mode == "iid":
        return PointSet(space.draw(rng, m), {"mode": "iid", "seed": _seed_repr(seed), "m": int(m)})

    if mode == "equispaced":
        if not isinstance(space, TrigSpace):
            raise UnsupportedDomainError("equispaced nodes require a torus space")
        d = space.domain.dim
        if sizes is None:
            if m is None or m < 1:
                raise InvalidSampleError("need m >= 1 points")
            sizes = [int(m)] * d
        sizes = [int(s) for s in sizes]
        if len(sizes) != d or any(s < 1 for s in sizes):
            raise InvalidSampleError(f"need {d} positive grid sizes")
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
        grids = [np.asarray(f.points, dtype=float) for f in factors]
        counts = [g.shape[0] for g in grids]
        total = math.prod(counts)
        out = np.zeros((total, sum(g.shape[1] for g in grids)))
        rep = total
        col = 0
        for g in grids:
            rep //= g.shape[0]
            tile = total // (rep * g.shape[0])
            block = np.repeat(g, rep, axis=0)
            out[:, col:col + g.shape[1]] = np.tile(block, (tile, 1))
            col += g.shape[1]
        prov = {"mode": "tensor", "factor_sizes": counts,
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
        return WeightedPointSet(pts, weights, prov)

    raise InvalidSampleError(f"unknown generation mode {mode!r}")


def _seed_repr(seed):
    return list(seed) if isinstance(seed, (tuple, list)) else int(seed)


# ---------------------------------------------------------------------------
# certification


def _sample_weights(sample: PointSet) -> tuple[np.ndarray, bool]:
    if isinstance(sample, WeightedPointSet):
        return sample.weights, True
    return np.full(sample.m, 1.0 / sample.m), False


def _quadrature_defect(space: TrigSpace, sample: PointSet, degree_mult: int) -> float | None:
    """Largest aliasing-moment error of the sample up to the given degree.

    Returns None when the moment box is too large to enumerate; a defect
    near machine precision certifies that the sample integrates every
    |f|^p exactly.
    """
    degs = [degree_mult * deg for deg in space.degrees]
    count = math.prod(2 * g + 1 for g in degs)
    if count > 2_000_000:
        return None
    axes = [np.arange(-g, g + 1) for g in degs]
    mesh = np.meshgrid(*axes, indexing="ij")
    K = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w, _ = _sample_weights(sample)
    E = np.exp(1j * (np.asarray(sample.points) @ K.T))
    moments = w @ E
    target = np.all(K == 0, axis=1).astype(float)
    return float(np.max(np.abs(moments - target)))


def _exact_eigen_certificate(space: Subspace, sample: PointSet, weights, weighted) -> Certificate:
    U = space.basis_values(sample.points)
    A = U.conj().T @ (weights[:, None] * U)
    if isinstance(space, TrigSpace):
        lam = np.linalg.eigvalsh(A)
    else:
        B = space.coef_gram()
        L = np.linalg.cholesky(B)
        X = np.linalg.solve(L, A)
        Y = np.linalg.solve(L, X.conj().T).conj().T
        lam = np.linalg.eigvalsh(Y)
    c1 = max(float(lam[0]), 0.0)
    c2 = float(lam[-1])
    return Certificate(2.0, c1, c2, "exact-eigen", "certified",
                       tolerance=1e-12 * max(c2, 1.0), weighted=weighted)


def _heuristic_p_certificate(space, sample, p, weights, weighted, budget) -> Certificate:
    U = space.basis_values(sample.points)
    V, gamma = norms.power_rule(space, p)
    # adversarial starts: near-null directions of the sampled system
    _, sv, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), vt[0].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    if U.shape[0] < space.dim or (sv.size and sv[-1] <= 1e-10 * sv[0]):
        lo = 0.0
    else:
        lo, _, _ = _optim.extremize_ratio(U, weights, V, gamma, p, restarts=budget,
                                          seed=(0xC1, 0), extra_starts=extras)
    hi, _, _ = _optim.extremize_ratio(U, weights, V, gamma, p, restarts=budget,
                                      maximize=True, seed=(0xC2, 0), extra_starts=extras)
    return Certificate(float(p), max(lo, 0.0), hi, "optimization-bound",
                       "heuristic-upper-C1", tolerance=None, weighted=weighted)


def _sup_certificate(space, sample, budget) -> Certificate:
    # smoothed max: power mean with a large even exponent steers the
    # search, the reported constant is the true ratio at the best point
    U = space.basis_values(sample.points)
    V = space.basis_values(space.grid([max(96 * deg, 96) for deg in space.degrees]))
    wnum = np.full(U.shape[0], 1.0 / U.shape[0])
    wden = np.full(V.shape[0], 1.0 / V.shape[0])
    _, sv, vt = np.linalg.svd(U, full_matrices=False)
    extras = [vt[-1].conj(), np.ones(space.dim) / math.sqrt(space.dim)]
    _, c, _ = _optim.extremize_ratio(U, wnum, V, wden, _optim.SMOOTH_SUP_P, restarts=budget,
                                     seed=(0xC3, 0), extra_starts=extras)
    f = CoefficientVector(space, c)
    num = float(np.max(np.abs(U @ c)))
    den = norms.sup_argmax(f)[0]
    c1 = num / max(den, 1e-300)
    return Certificate(math.inf, min(c1, 1.0), 1.0, "optimization-bound",
                       "heuristic", tolerance=None, weighted=False)


def certify(space: Subspace, sample: PointSet, p, budget: int = 64) -> Certificate:
    """Compute discretization constants for (space, sample, p).

    p = 2 is exact (frame-matrix eigenvalues). Even integer p is exact
    whenever the sample's aliasing moments vanish up to degree
    ``p * degree``. Everything else is a randomized-restart optimization
    bound; see the module docstring for its one-sidedness.
    """
    if sample.m < 1:
        raise InvalidSampleError("empty sample")
    if p != math.inf and p < 1:
        raise InvalidExponentError("discretization exponent must satisfy p >= 1")
    weights, weighted = _sample_weights(sample)
    if p == math.inf:
        return _sup_certificate(space, sample, budget)
    if p == 2:
        return _exact_eigen_certificate(space, sample, weights, weighted)
    if float(p) == int(p) and int(p) % 2 == 0 and isinstance(space, TrigSpace):
        defect = _quadrature_defect(space, sample, int(p))
        if defect is not None and defect <= 1e-12:
            tol = defect * math.prod(2 * int(p) * d + 1 for d in space.degrees) * space.dim
            return Certificate(float(p), 1.0, 1.0, "exact-quadrature", "certified",
                               tolerance=max(tol, 1e-15), weighted=weighted)
    return _heuristic_p_certificate(space, sample, p, weights, weighted, budget)


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_rule(space: Subspace, p):
    """Independent quadrature for the oracle: plain equispaced means."""
    if float(p) == int(p) and int(p) % 2 == 0:
        sizes = [int(p) * deg + 1 for deg in space.degrees]
    else:
        per = {1: 512, 2: 64}.get(len(space.degrees), 24)
        sizes = [max(per, 4 * deg + 1) for deg in space.degrees]
    grid = space.grid(sizes)
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
    if p == math.inf or p < 1:
        raise InvalidExponentError("the oracle needs a finite exponent p >= 1")
    n = space.dim
    if n > 3:
        raise OracleTooLargeError("brute-force oracle supports N <= 3 only")
    w, weighted = _sample_weights(sample)
    U = space.basis_values(sample.points)
    V, gamma = _oracle_rule(space, p)
    tol = max(1e-6, 1e-3 * (200.0 / resolution) ** 2)
    if n == 1:
        r = float(_oracle_ratios(np.ones((1, 1), dtype=complex), U, w, V, gamma, p)[0])
        return Certificate(float(p), r, r, "brute-force", "certified", tolerance=tol,
                           weighted=weighted)

    rng = np.random.default_rng((0x0AC, n, int(resolution)))
    total = min(resolution ** (2 * n - 2), 120_000)
    lo, hi = math.inf, -math.inf
    c_lo = c_hi = None
    for start in range(0, total, 8_192):
        k = min(8_192, total - start)
        C = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        r = _oracle_ratios(C, U, w, V, gamma, p)
        i_lo, i_hi = int(np.argmin(r)), int(np.argmax(r))
        if r[i_lo] < lo:
            lo, c_lo = float(r[i_lo]), C[i_lo]
        if r[i_hi] > hi:
            hi, c_hi = float(r[i_hi]), C[i_hi]
    h = 4.0 * total ** (-1.0 / (2 * n - 2))
    for _ in range(5):
        for which in ("lo", "hi"):
            center = c_lo if which == "lo" else c_hi
            C = center[None, :] + h * (rng.standard_normal((8_192, n)) + 1j * rng.standard_normal((8_192, n)))
            C /= np.linalg.norm(C, axis=1, keepdims=True)
            r = _oracle_ratios(C, U, w, V, gamma, p)
            if which == "lo":
                i = int(np.argmin(r))
                if r[i] < lo:
                    lo, c_lo = float(r[i]), C[i]
            else:
                i = int(np.argmax(r))
                if r[i] > hi:
                    hi, c_hi = float(r[i]), C[i]
        h /= 4.0
    return Certificate(float(p), max(lo, 0.0), hi, "brute-force", "heuristic-upper-C1",
                       tolerance=tol, weighted=weighted)


# ---------------------------------------------------------------------------
# two-stage subsampling


@dataclass
class TwoStageBudget:
    """Budgets of the two-stage procedure: a large first draw, the target
    subset size, and the number of subset retries."""

    stage1_s: int
    stage2_m: int
    retries: int = 50


def two_stage_subsample(space: Subspace, q, eps: float, budgets: TwoStageBudget,
                        seed, certify_budget: int = 32):
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
    if budgets.stage1_s < 1 or budgets.stage2_m < 1 or budgets.stage2_m > budgets.stage1_s:
        raise InvalidSampleError("need 1 <= stage2_m <= stage1_s")
    stage1 = generate_points(space, "iid", budgets.stage1_s, seed=(seed, 0x51))
    cert1 = certify(space, stage1, q, budget=certify_budget)
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
        cert = certify(space, subset, q, budget=certify_budget)
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
                     generator: str = "iid", budget: int = 16) -> MinimalMResult:
    """Bisect for the smallest m whose trial success rate clears the threshold.

    A trial at size m draws points (iid from the measure, or the
    deterministic equispaced family in diagnostic mode), certifies them,
    and succeeds when the constants lie in the (1 +- eps) band. Trials
    derive their streams from (seed, m, trial), so the result is
    deterministic and independent of probing order.
    """
    if not 0 < eps < 1:
        raise InvalidExponentError("eps must lie in (0, 1)")
    if trials < 1:
        raise InvalidSampleError("need at least one trial")
    n = space.dim
    if m_max is None:
        m_max = max(2 * n, math.ceil(32 * n * max(1.0, math.log2(2 * n)) ** 2))
    probed: dict[int, CurvePoint] = {}

    def probe(m: int) -> bool:
        if m not in probed:
            successes = 0
            c1s, c2s = [], []
            for t in range(trials):
                if generator == "equispaced":
                    pts = generate_points(space, "equispaced", m)
                else:
                    pts = generate_points(space, "iid", m, seed=(seed, m, t))
                cert = certify(space, pts, p, budget=budget)
                c1s.append(cert.c1_pow)
                c2s.append(cert.c2_pow)
                if cert.meets(eps):
                    successes += 1
                logger.debug("probe m=%d trial=%d stream=(%s,%d,%d) c1=%.4f c2=%.4f",
                             m, t, seed, m, t, cert.c1_pow, cert.c2_pow)
            probed[m] = CurvePoint(m, trials, successes, min(c1s), max(c2s))
            logger.info("probe m=%d: %d/%d successes", m, successes, trials)
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
