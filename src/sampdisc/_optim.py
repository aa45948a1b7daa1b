"""Deterministic solvers shared by the norm and recovery modules.

``extremize_ratio`` is a projected-gradient search on coefficient spheres,
used to extremize ratios of discrete to continuous p-th power norms, and
sup-to-L_q ratios with the ``SMOOTH_SUP_P`` power mean as the sup.
Restarts run as one batched numpy computation and every restart derives
its step size independently. The bits of a row of ``C[subset] @ U.T`` can
differ from the same row of ``C @ U.T``, so which restarts share a call
matters. Results are bit-reproducible because each call's restart set is a
deterministic function of the inputs, and the stacked step halving replays
those sets exactly. Ties between equally good optima are broken by the
lowest restart index.

``minimize_residual`` minimizes the weighted p-th power sum of a residual
for finite p, and ``lawson`` is the discrete minimax fit (Lawson's
reweighting) for p = inf. Best approximation runs them on a quadrature
grid and recovery on the samples.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances


# 2**-k, the step factor after k halvings
_SCALES = 0.5 ** np.arange(26)

# exponent of the power mean that stands in for a maximum over a grid
SMOOTH_SUP_P = 64.0


def _power_sum(Y, w, p):
    return (np.abs(Y) ** p) @ w


def _power_grad(mat, w, p, Y):
    # gradient of sum_j w_j |(mat c)_j|^p in the real inner product sense
    a = np.maximum(np.abs(Y), 1e-300)
    return p * ((w * a ** (p - 2.0) * Y) @ np.conj(mat))


def extremize_ratio(num_mat, num_w, den_mat, den_w, p, restarts=64, maximize=False,
                    seed=(0xD15C, 0), extra_starts=None, den_p=None):
    """Extremize ``R(c) = sum w |num_mat c|^p / (sum gamma |den_mat c|^q)^(p/q)``
    with ``q = den_p``, by default ``p``.

    Returns ``(ratio, c, report)`` for the best restart. The search takes
    up to 150 steps along the gradient of log R with per-restart step
    halving and sphere renormalization (R is scale-invariant). The minimum
    found is an upper bound on the true infimum and the maximum found is a
    lower bound on the true supremum. The report holds ``iterations``
    (gradient steps), ``restarts`` and ``evaluations`` (objective calls).
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
    q = p if den_p is None else den_p
    k_den = p / q  # exactly 1.0 when q is p

    def objective(Cb):
        Yn = Cb @ num_mat.T
        Yd = Cb @ den_mat.T
        Sn = _power_sum(Yn, num_w, p)
        Sd = _power_sum(Yd, den_w, q)
        F = sign * (np.log(np.maximum(Sn, 1e-300)) - k_den * np.log(np.maximum(Sd, 1e-300)))
        return F, Yn, Yd, Sn, Sd

    F, Yn, Yd, Sn, Sd = objective(C)
    evaluations = 1
    step = np.full(C.shape[0], 0.25)
    active = np.ones(C.shape[0], dtype=bool)
    it = 0
    for it in range(150):
        if not np.any(active):
            break
        Gn = _power_grad(num_mat, num_w, p, Yn)
        Gd = _power_grad(den_mat, den_w, q, Yd)
        G = sign * (Gn / np.maximum(Sn, 1e-300)[:, None] - k_den * (Gd / np.maximum(Sd, 1e-300)[:, None]))
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
    ratios = Sn / np.maximum(Sd, 1e-300) ** k_den
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


def residual_gradient(Uh, w, r, p):
    """Gradient of ``sum w |y - U c|^p`` with respect to c in the real inner
    product sense, from the residual ``r = y - U c`` and ``Uh``, the
    conjugate transpose of ``U``."""
    a = np.maximum(np.abs(r), 1e-300)
    return -p * (Uh @ (w * a ** (p - 2.0) * r))


def _halving_step(U, w, p, c, r, obj, direction, t_min):
    """``(c', obj', r')`` for the first ``c' = c + t * direction``, t = 1,
    1/2, ... down to ``t_min``, whose residual ``r' = r - t U direction``
    lowers ``sum w |r'|^p`` below ``obj``; None if none does."""
    Ud = U @ direction
    t = 1.0
    while t > t_min:
        r_t = r - t * Ud
        val = float(np.sum(w * np.abs(r_t) ** p))
        if val < obj - 1e-16:
            return c + t * direction, val, r_t
        t *= 0.5
    return None


def minimize_residual(U, y, w, p, c):
    """Minimize ``sum w |y - U c|^p`` over c for finite p >= 1, starting at ``c``.

    Damped IRLS: each step tries 1, 1/2, ... times the step to the
    reweighted least-squares minimizer, then along the negative gradient,
    and takes the first that lowers the sum. It stops when the gradient
    norm is at most ``recovery_tol * max(1, starting gradient norm)``, when
    no step lowers the sum, or after 300 steps; at p = 2 the start is the
    exact minimizer. Reweighted problems are solved in the coordinates of
    one thin QR ``sqrt(w) U = Q R``: ``(Q^H S Q) d = Q^H S sqrt(w) y`` with
    ``S = omega / w``, then ``R c = d``, both by least squares so a
    rank-deficient U still works. Trial residuals along a direction are
    updated, not recomputed from ``y``.

    Returns ``(c, sum, report)``; the report holds ``iterations`` and
    ``final_grad_norm``.
    """
    Uh = U.conj().T
    sw = np.sqrt(w)
    Q, R = np.linalg.qr(U * sw[:, None])
    Qh = Q.conj().T
    b = sw * y
    tol = tolerances.get("recovery_tol")
    r = y - U @ c
    g = residual_gradient(Uh, w, r, p)
    scale = max(1.0, float(np.linalg.norm(g)))
    obj = float(np.sum(w * np.abs(r) ** p))
    for iterations in range(1, 301):
        if p == 2 or float(np.linalg.norm(g)) <= tol * scale:
            break
        # IRLS proposal; residual moduli and weights clipped below to keep
        # the reweighted system finite near exact fits
        a = np.maximum(np.abs(r), 1e-12)
        s = np.maximum(w * a ** (p - 2.0), 1e-12) / w
        d = np.linalg.lstsq((Qh * s) @ Q, Qh @ (s * b), rcond=None)[0]
        c_prop = np.linalg.lstsq(R, d, rcond=None)[0]
        moved = (_halving_step(U, w, p, c, r, obj, c_prop - c, 1e-14)
                 or _halving_step(U, w, p, c, r, obj, -g, 1e-16))
        if moved is None:
            break
        c, obj, r = moved
        g = residual_gradient(Uh, w, r, p)
    return c, obj, {"iterations": iterations, "final_grad_norm": float(np.linalg.norm(g))}
