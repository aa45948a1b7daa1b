"""Weighted least-squares-type recovery from samples and its error bound.

The recovery operator returns the element of the subspace minimizing the
weighted discrete p-norm of the sample residual. Finite exponents run the
residual solver of best approximation, ``_optim.minimize_residual`` (IRLS
with step halving), from the p = 2 solution, which is exact at p = 2, so
the result is deterministic; p = inf runs Lawson's minimax fit.

The error bound engine converts a certified discretization certificate
into the constant ``2 * C1^(-1) * C2^(1/p) + 1`` multiplying the
sup-distance of the target from the subspace, at the certificate's p and
the point set's weights. Heuristic certificates are refused at finite p:
an upper bound on the true lower constant cannot establish the
discretization assumption the bound rests on. At p = inf, whose
certificate is always heuristic, the report is marked advisory instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _optim
from .discretization import Certificate, PointSet, certify
from .errors import (
    ConfigError,
    HeuristicCertificateError,
    InvalidSampleError,
    InvalidWeightError,
    UnboundedBoundError,
)
from .norms import (SampleVector, best_approx, call_target, checked_exponent, checked_weights,
                    handle_norm_p, sample_function)
from .spaces import CoefficientVector, Subspace, evaluate

__all__ = [
    "RecoveryResult",
    "RecoveryBoundReport",
    "lpw_recover",
    "recovery_bound",
    "verify_recovery",
    "LpwRegressor",
]

# factor on the right side of the bound check, as the grid sup-distance is a lower estimate
RECOVERY_SLACK = 1.05


@dataclass(repr=False, eq=False)
class RecoveryResult:
    """Outcome of one recovery: coefficients, residual, and solver report."""

    coefficients: CoefficientVector
    discrete_residual: float
    p: float
    weights_used: np.ndarray
    optimizer_report: dict
    degenerate: bool = False

    def __repr__(self):
        return (f"RecoveryResult(p={self.p}, residual={self.discrete_residual:.3e}, "
                f"degenerate={self.degenerate})")


@dataclass(eq=False)
class RecoveryBoundReport:
    """One verified instance of the recovery error bound.

    ``optimizer_report`` is the report of the :func:`lpw_recover` solve the
    left side was measured on: ``iterations`` and ``rank``, with ``stop``
    and ``final_grad_norm`` for finite p or ``lower_bound`` at p = inf.
    """

    c1_norm: float
    c2_weights: float
    bound_constant: float
    lhs: float
    rhs: float
    slack: float
    d_inf: float
    p: float
    optimizer_report: dict
    advisory: bool = False

    @property
    def holds(self) -> bool:
        return bool(self.lhs <= self.rhs * self.slack)

    def to_dict(self) -> dict:
        """The fields, with p = inf as None, ``holds`` added and the solver
        report under ``optimizer``."""
        out = asdict(self)
        out.update(p=None if self.p == math.inf else self.p, holds=self.holds,
                   optimizer=out.pop("optimizer_report"))
        return out


def lpw_recover(samples: SampleVector, space: Subspace, p, weights) -> RecoveryResult:
    """Minimize the weighted discrete p-norm of the sample residual.

    Finite p runs :func:`_optim.minimize_residual`, the solver
    :func:`best_approx` runs on its grid, and p = inf runs
    :func:`_optim.lawson` (advisory; see the bound's p = inf caveats), both
    from the given weights. The report is the solver's, with the ``rank``
    of the weighted system; a rank-deficient system returns the
    minimum-norm solution with the ``degenerate`` flag set.
    """
    if samples.source is None:
        raise InvalidSampleError("sample vector must reference its point set")
    if len(samples) != samples.source.m:
        raise InvalidSampleError(f"{len(samples)} sample values for {samples.source.m} points")
    checked_exponent(p)
    y = samples.values
    w = checked_weights(weights, y.shape[0], "samples")
    U = space.basis_values(samples.source.points)
    if p == math.inf:
        c, resid, report = _optim.lawson(U, y, w)
    else:
        c, total, report = _optim.minimize_residual(U, y, w, p, None)
        resid = total ** (1.0 / p)
    return RecoveryResult(CoefficientVector(space, c), float(resid), float(p), w, report,
                          degenerate=report["rank"] < space.dim)


def _c1_norm(cert: Certificate) -> float:
    """``c1_pow`` in norm form: itself at p = inf, else its 1/p-th power."""
    return cert.c1_pow if cert.p == math.inf else cert.c1_pow ** (1.0 / cert.p)


def recovery_bound(cert: Certificate, weights) -> float:
    """The constant ``2 C1^(-1) C2^(1/p) + 1`` from a certified certificate.

    The exponent p is the certificate's. Its power-form lower constant
    converts to norm form by the 1/p-th power; the weight budget C2 is the
    plain weight sum, which drops out at p = inf. The weights must be
    nonempty, finite and positive. At finite p a uniform-form certificate
    is only accepted with uniform weights: it says nothing about others.
    """
    checked_exponent(cert.p)
    if cert.status != "certified":
        raise HeuristicCertificateError(
            "recovery bounds need a certified certificate; a heuristic upper "
            "bound on C1 does not establish the discretization assumption")
    if cert.c1_pow <= 0:
        raise UnboundedBoundError("lower discretization constant is zero")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise InvalidWeightError("need at least one weight")
    w = checked_weights(w, w.size, "samples")
    if cert.p < math.inf and not cert.weighted and not np.allclose(w, 1.0 / w.size, rtol=0, atol=1e-12):
        raise InvalidWeightError("certificate is in uniform 1/m form; supply uniform weights")
    return 2.0 / _c1_norm(cert) * float(np.sum(w)) ** (1.0 / cert.p) + 1.0


def verify_recovery(f, space: Subspace, sample: PointSet, p) -> RecoveryBoundReport:
    """Recover ``f`` from its samples and check the certified error bound.

    Both use the sample's own weights. The left side is the L_p error of the
    recovery by :func:`handle_norm_p` (at p = inf its maximum on the fixed
    grid ``best_approx(p=inf)`` fits on); the right side is the bound
    constant times that fit's sup-distance of f from the space, and the
    comparison carries the ``RECOVERY_SLACK`` factor because that distance
    estimate is one-sided. A heuristic certificate is refused at finite p;
    the p = inf one, always heuristic, gives a report marked advisory.
    """
    cert = certify(space, sample, p, budget=64)
    w = sample.weights
    advisory = bool(p == math.inf and cert.status != "certified")
    if advisory:
        cert = replace(cert, status="certified")
    bound = recovery_bound(cert, w)

    samples = sample_function(f, sample)
    rec = lpw_recover(samples, space, p, w)
    u = rec.coefficients

    def residual(x):
        return call_target(f, x) - evaluate(u, x)

    lhs = handle_norm_p(residual, space, p)
    _, d_inf = best_approx(f, space, math.inf)
    rhs = bound * d_inf
    return RecoveryBoundReport(_c1_norm(cert), float(np.sum(w)), bound, lhs, rhs,
                               RECOVERY_SLACK, d_inf, float(p), rec.optimizer_report,
                               advisory=advisory)


class LpwRegressor:
    """Estimator-style wrapper around the recovery operator.

    Follows the fit/predict convention with ``get_params``/``set_params``
    so the recovery step drops into standard pipeline tooling. ``X`` is
    the node array (shape (m,) or (m, d) on the torus, integer indices on
    finite domains) and ``y`` holds the sampled values.
    """

    def __init__(self, space: Subspace | None = None, p: float = 2.0):
        self.space = space
        self.p = p

    def get_params(self, deep: bool = True) -> dict:
        return {"space": self.space, "p": self.p}

    def set_params(self, **params) -> "LpwRegressor":
        for key, value in params.items():
            if key not in ("space", "p"):
                raise ConfigError(key, "unknown parameter")
            setattr(self, key, value)
        return self

    def _check_inputs(self, X, y=None):
        if self.space is None:
            raise InvalidSampleError("set the `space` parameter before fitting")
        pts = self.space.check_points(X)
        if y is None:
            return pts, None
        yv = np.asarray(y, dtype=complex).reshape(-1)
        if yv.shape[0] != pts.shape[0]:
            raise InvalidSampleError(f"X has {pts.shape[0]} rows but y has {yv.shape[0]}")
        return pts, yv

    def fit(self, X, y, sample_weight=None) -> "LpwRegressor":
        pts, yv = self._check_inputs(X, y)
        pointset = PointSet(pts, {"mode": "user"}, weights=sample_weight)
        result = lpw_recover(SampleVector(yv, pointset), self.space, self.p, pointset.weights)
        self.result_ = result
        self.coef_ = result.coefficients.coefficients
        return self

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise InvalidSampleError("this regressor is not fitted yet; call fit first")
        pts, _ = self._check_inputs(X)
        return evaluate(self.result_.coefficients, pts)
