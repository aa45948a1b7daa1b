"""Deterministic solvers shared by the norm and recovery modules.

``extremize_ratio`` is a projected-gradient search on coefficient spheres,
used to extremize ratios of discrete to continuous p-th power norms.
Restarts run as one batched numpy computation and every restart derives
its step size independently. The bits of a row of ``C[subset] @ U.T`` can
differ from the same row of ``C @ U.T``, so which restarts share a call
matters. Results are bit-reproducible because each call's restart set is a
deterministic function of the inputs, and the stacked step halving replays
those sets exactly. Ties between equally good optima are broken by the
lowest restart index.

``lawson`` is the discrete minimax fit (Lawson's reweighting), used for
best approximation and recovery at p = inf.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances


# 2**-k, the step factor after k halvings
_SCALES = 0.5 ** np.arange(26)


def _power_sum(Y, w, p):
    return (np.abs(Y) ** p) @ w


def _power_grad(C, mat, w, p, Y):
    # gradient of sum_j w_j |(mat c)_j|^p in the real inner product sense
    a = np.abs(Y)
    a = np.maximum(a, 1e-300)
    return p * ((w * a ** (p - 2.0) * Y) @ np.conj(mat))


def extremize_ratio(num_mat, num_w, den_mat, den_w, p, restarts=64, iters=150,
                    maximize=False, seed=(0xD15C, 0), extra_starts=None):
    """Extremize ``R(c) = sum w |num_mat c|^p / sum gamma |den_mat c|^p``.

    Returns ``(ratio, c, report)`` for the best restart. The search moves
    along the gradient of log R with per-restart step halving and sphere
    renormalization (R is scale-invariant). The minimum found is an upper
    bound on the true infimum and the maximum found is a lower bound on
    the true supremum. The report holds ``iterations`` (gradient steps),
    ``restarts`` and ``evaluations`` (objective calls).
    """
    n = num_mat.shape[1]
    rng = np.random.default_rng(seed)
    starts = list(extra_starts) if extra_starts is not None else []
    k = max(restarts, 1)
    rand = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    C = np.vstack([np.asarray(starts, dtype=complex).reshape(-1, n), rand]) if starts else rand
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    sign = -1.0 if maximize else 1.0

    num_w = np.asarray(num_w, dtype=float)
    den_w = np.asarray(den_w, dtype=float)

    def objective(Cb):
        Yn = Cb @ num_mat.T
        Yd = Cb @ den_mat.T
        Sn = _power_sum(Yn, num_w, p)
        Sd = _power_sum(Yd, den_w, p)
        F = sign * (np.log(np.maximum(Sn, 1e-300)) - np.log(np.maximum(Sd, 1e-300)))
        return F, Yn, Yd, Sn, Sd

    F, Yn, Yd, Sn, Sd = objective(C)
    evaluations = 1
    step = np.full(C.shape[0], 0.25)
    active = np.ones(C.shape[0], dtype=bool)
    it = 0
    for it in range(iters):
        if not np.any(active):
            break
        Gn = _power_grad(C, num_mat, num_w, p, Yn)
        Gd = _power_grad(C, den_mat, den_w, p, Yd)
        G = sign * (Gn / np.maximum(Sn, 1e-300)[:, None] - Gd / np.maximum(Sd, 1e-300)[:, None])
        moved = np.zeros(C.shape[0], dtype=bool)
        # Up to 25 halvings of the step: accept the restarts whose candidate
        # improves, halve the step of the others. After a halving that moved
        # nothing, the next ones try the same restart set, so `depth` of them
        # are evaluated as one (depth, t, n) stack and replayed up to the
        # first slice that improves. The scales are exact powers of two and
        # stacked matmul makes the same BLAS call per slice, so each slice is
        # bit-identical to its one-halving call; depth * t stays within the
        # restart count, so no call is larger than the first evaluation.
        halving, stack = 0, False
        while halving < 25:
            trial = np.where(active & ~moved)[0]
            if trial.size == 0:
                break
            depth = min(25 - halving, C.shape[0] // trial.size) if stack else 1
            cand = C[trial] - (_SCALES[:depth, None] * step[trial])[:, :, None] * G[trial]
            cand = cand / np.linalg.norm(cand, axis=-1, keepdims=True)
            Fc, Ync, Ydc, Snc, Sdc = objective(cand)
            evaluations += 1
            better = Fc < F[trial] - 1e-15
            stack = not better.any()
            if stack:
                step[trial] *= _SCALES[depth]
                halving += depth
                continue
            b = int(np.argmax(better.any(axis=1)))
            ok = better[b]
            idx = trial[ok]
            C[idx] = cand[b, ok]
            F[idx] = Fc[b, ok]
            Yn[idx] = Ync[b, ok]
            Yd[idx] = Ydc[b, ok]
            Sn[idx] = Snc[b, ok]
            Sd[idx] = Sdc[b, ok]
            step[idx] = np.minimum(step[idx] * _SCALES[b] * 1.5, 1.0)
            moved[idx] = True
            step[trial[~ok]] *= _SCALES[b + 1]
            halving += b + 1
        active &= moved | (step > 1e-13)
    ratios = Sn / np.maximum(Sd, 1e-300)
    best = int(np.argmax(ratios)) if maximize else int(np.argmin(ratios))
    report = {"iterations": it + 1, "restarts": int(C.shape[0]), "evaluations": evaluations}
    return float(ratios[best]), C[best], report


def weighted_lstsq(U, y, w):
    """Minimizer of ``sum w |y - U c|^2`` (minimum-norm if rank-deficient)
    and the rank of the weighted system."""
    sw = np.sqrt(w)
    c, _, rank, _ = np.linalg.lstsq(U * sw[:, None], y * sw, rcond=None)
    return c, rank


def lawson(U, y, w):
    """Discrete minimax fit ``min_c max_j |y_j - (U c)_j|`` by Lawson's reweighting.

    Starts from the positive weights ``w`` and multiplies them by the
    residual moduli after each weighted least-squares step. Stops when the
    maximum residual moved by at most ``0.1 * minimax_rel`` relative over
    the last 11 steps, or after 300 steps; this stall rule does not bound
    the relative error by ``minimax_rel``.

    Returns ``(c, max_residual, report)`` for the best iterate; the report
    holds ``iterations`` and ``lower_bound``. With the step's weights
    scaled to sum 1, its root weighted mean square residual is the least
    over all c, hence at most any c's maximum residual; ``lower_bound`` is
    the largest such value over the steps.
    """
    rel = tolerances.get("minimax_rel")
    omega = np.asarray(w, dtype=float)
    best_val, best_c = math.inf, np.zeros(U.shape[1], dtype=complex)
    lower = 0.0
    history = []
    for it in range(1, 301):
        c, _ = weighted_lstsq(U, y, omega)
        r = np.abs(y - U @ c)
        mx = float(np.max(r))
        lower = max(lower, math.sqrt(float(np.sum(omega * r * r) / np.sum(omega))))
        if mx < best_val:
            best_val, best_c = mx, c
        history.append(mx)
        if len(history) > 12 and abs(history[-1] - history[-12]) <= 0.1 * rel * max(history[-1], 1e-30):
            break
        omega = omega * (r + 1e-300)
        omega /= np.sum(omega)
    return best_c, best_val, {"iterations": it, "lower_bound": lower}
