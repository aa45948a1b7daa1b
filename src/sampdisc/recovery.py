"""Weighted least-squares-type recovery from samples and its error bound.

The recovery operator returns the element of the subspace minimizing the
weighted discrete p-norm of the sample residual. Finite exponents run the
residual solver of best approximation, ``_optim.minimize_residual`` (IRLS
with step halving), from the p = 2 solution, which is exact at p = 2, so
the result is deterministic; p = inf runs Lawson's minimax fit.

The error bound engine converts a certified discretization certificate
into the constant ``2 * C1^(-1) * C2^(1/p) + 1`` multiplying the
sup-distance of the target from the subspace. Heuristic certificates are
refused: an upper bound on the true lower constant cannot establish the
discretization assumption the bound rests on.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _optim
from .discretization import Certificate, PointSet, _sample_weights, certify
from .errors import (
    ConfigError,
    HeuristicCertificateError,
    InvalidExponentError,
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


class RecoveryResult:
    """Outcome of one recovery: coefficients, residual, and solver report."""

    def __init__(self, coefficients, discrete_residual, p, weights_used,
                 optimizer_report, degenerate=False):
        self.coefficients = coefficients
        self.discrete_residual = float(discrete_residual)
        self.p = float(p)
        self.weights_used = weights_used
        self.optimizer_report = optimizer_report
        self.degenerate = bool(degenerate)

    def __repr__(self):
        return (f"RecoveryResult(p={self.p}, residual={self.discrete_residual:.3e}, "
                f"degenerate={self.degenerate})")


class RecoveryBoundReport:
    """One verified instance of the recovery error bound.

    ``optimizer_report`` is the report of the :func:`lpw_recover` solve the
    left side was measured on: ``iterations`` and ``rank``, with ``stop``
    and ``final_grad_norm`` for finite p or ``lower_bound`` at p = inf.
    """

    def __init__(self, c1_norm, c2_weights, bound_constant, lhs, rhs, slack,
                 d_inf, p, optimizer_report, advisory=False):
        self.c1_norm = float(c1_norm)
        self.c2_weights = float(c2_weights)
        self.bound_constant = float(bound_constant)
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.slack = float(slack)
        self.d_inf = float(d_inf)
        self.p = float(p)
        self.advisory = bool(advisory)
        self.optimizer_report = optimizer_report

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * self.slack

    def to_dict(self) -> dict:
        return {
            "p": None if self.p == math.inf else self.p,
            "c1_norm": self.c1_norm,
            "c2_weights": self.c2_weights,
            "bound_constant": self.bound_constant,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "d_inf": self.d_inf,
            "holds": self.holds,
            "advisory": self.advisory,
            "optimizer": self.optimizer_report,
        }


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
    return RecoveryResult(CoefficientVector(space, c), resid, p, w, report,
                          degenerate=report["rank"] < space.dim)


def recovery_bound(cert: Certificate, weights, p) -> float:
    """The constant ``2 C1^(-1) C2^(1/p) + 1`` from a certified certificate.

    The certificate's power-form lower constant converts to norm form by
    the 1/p-th power; the weight budget C2 is the plain weight sum. The
    weights must be nonempty, finite and positive. A certificate in uniform
    form is only accepted together with uniform weights, since its bounds
    say nothing about other weightings.
    """
    checked_exponent(p)
    if cert.status != "certified":
        raise HeuristicCertificateError(
            "recovery bounds need a certified certificate; a heuristic upper "
            "bound on C1 does not establish the discretization assumption")
    if p != cert.p:
        raise InvalidExponentError(f"certificate is for p={cert.p}, not p={p}")
    if cert.c1_pow <= 0:
        raise UnboundedBoundError("lower discretization constant is zero")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise InvalidWeightError("need at least one weight")
    w = checked_weights(w, w.size, "samples")
    if p == math.inf:
        return 2.0 / cert.c1_pow + 1.0
    if not cert.weighted:
        if not np.allclose(w, 1.0 / w.shape[0], rtol=0, atol=1e-12):
            raise InvalidWeightError(
                "certificate is in uniform 1/m form; supply uniform weights")
    c1_norm = cert.c1_pow ** (1.0 / p)
    c2 = float(np.sum(w))
    return 2.0 / c1_norm * c2 ** (1.0 / p) + 1.0


def verify_recovery(f, space: Subspace, sample: PointSet, p,
                    allow_heuristic: bool = False) -> RecoveryBoundReport:
    """Recover ``f`` from its samples and check the certified error bound.

    The left side is the L_p error of the recovery by :func:`handle_norm_p`
    (at p = inf its maximum on the fixed grid ``best_approx(p=inf)`` fits
    on); the right side is the bound constant times that fit's sup-distance
    of f from the space, and the comparison carries the ``RECOVERY_SLACK``
    factor because that distance estimate is one-sided. With
    ``allow_heuristic`` the p = inf branch accepts a heuristic constant
    and marks the report advisory.
    """
    cert = certify(space, sample, p, budget=64)
    w, _ = _sample_weights(sample)
    advisory = cert.status != "certified" and allow_heuristic and p == math.inf
    if advisory:
        cert = dataclasses.replace(cert, status="certified")
    bound = recovery_bound(cert, w, p)

    samples = sample_function(f, sample)
    rec = lpw_recover(samples, space, p, w)
    u = rec.coefficients

    def residual(x):
        return call_target(f, x) - evaluate(u, x)

    lhs = handle_norm_p(residual, space, p)
    _, d_inf = best_approx(f, space, math.inf)
    c1_norm = cert.c1_pow if p == math.inf else cert.c1_pow ** (1.0 / p)
    rhs = bound * d_inf
    return RecoveryBoundReport(c1_norm, float(np.sum(w)), bound, lhs, rhs,
                               RECOVERY_SLACK, d_inf, p, rec.optimizer_report,
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
        pointset = PointSet(pts, {"mode": "user"})
        if sample_weight is None:
            sample_weight = np.full(pointset.m, 1.0 / pointset.m)
        result = lpw_recover(SampleVector(yv, pointset), self.space, self.p, sample_weight)
        self.result_ = result
        self.coef_ = result.coefficients.coefficients
        return self

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise InvalidSampleError("this regressor is not fitted yet; call fit first")
        pts, _ = self._check_inputs(X)
        return evaluate(self.result_.coefficients, pts)
