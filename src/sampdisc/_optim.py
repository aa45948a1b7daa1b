"""Deterministic solvers shared by the norm and recovery modules.

``extremize_ratio`` is a projected-gradient search on coefficient spheres,
used to extremize ratios of discrete to continuous p-th power norms, and
sup-to-L_q ratios with the ``SMOOTH_SUP_P`` power mean as the sup.
Restarts run as one batched numpy computation and every restart derives
its step size independently. Every call names its senses, minimize or
maximize, one or two, and returns one result per sense; all senses search
as one stack with a sign per row. The numerator is a hook: the direct sum
over the sample rows, or, at even p, its frame form on the sumset's span,
whose cost does not grow with the sample size. The bits of a row of
``C[subset] @ U.T`` can differ from the same row of ``C @ U.T``, so which
restarts share a call matters, and stacked senses share one restart set.
Results are bit-reproducible because each call's restart set is a
deterministic function of the inputs, and the stacked step halving replays
those sets exactly. Ties between equally good optima are broken by the
lowest restart index.

``minimize_residual`` minimizes the weighted p-th power sum of a residual
for finite p by IRLS with step halving, and ``lawson`` is the discrete
minimax fit (Lawson's reweighting) for p = inf. Both take one thin QR of
the weighted basis and R's pseudo-inverse per call; each reweighted
least-squares step is then one Cholesky-tested solve of order N, or of
U's rank if that is lower, in the QR coordinates, with an eigenvalue
fallback for weightings too near singular.
Best approximation runs them on a quadrature grid and recovery on the
samples.
"""

from __future__ import annotations

import math

import numpy as np


# 2**-k, the step factor after k halvings
_SCALES = 0.5 ** np.arange(26)

# extremize_ratio's stall rule: stop when every sense's best log-ratio has
# moved by at most _STALL_REL over the last _STALL_STEPS steps
_STALL_STEPS = 10
_STALL_REL = 1e-12

# exponent of the power mean that stands in for a maximum over a grid
SMOOTH_SUP_P = 64.0


def _power_sum(Y, w, p):
    return (np.abs(Y) ** p) @ w


def _power_grad(mat, w, p, Y):
    # gradient of sum_j w_j |(mat c)_j|^p in the real inner product sense
    a = np.maximum(np.abs(Y), 1e-300)
    return p * ((w * a ** (p - 2.0) * Y) @ np.conj(mat))


def _direct_numerator(mat, w, p):
    """``(values, grad)`` of ``sum w |mat c|^p``: ``values(C, Y)`` gives the
    rows' values and sums, ``grad(values, Y)`` the gradient."""
    def values(C, Y):
        vals = C @ mat.T
        return vals, _power_sum(vals, w, p)

    return values, lambda vals, Y: _power_grad(mat, w, p, vals)


def _sumset_numerator(V, gamma, B, L, s):
    """``(values, grad)`` as in :func:`_direct_numerator`, for the frame
    form ``||g L^T||^2`` of ``sum w |f|^(2s)``, from ``Y = C V^T`` on the
    exact rule ``(V, gamma)``: ``g = (Y^s)(gamma conj B)`` holds the
    coefficients of ``f^s`` in the basis B of the sumset's span, and the
    gradient is ``2s ((gamma conj(Y)^(s-1) (h B^T)) conj V)`` with
    ``h = (g L^T) conj L``."""
    P = gamma[:, None] * np.conj(B)
    Lt, Lc, Bt, Vc = L.T, np.conj(L), B.T, np.conj(V)

    def values(C, Y):
        Z = ((Y ** s) @ P) @ Lt
        return Z, np.sum(Z.real ** 2 + Z.imag ** 2, axis=-1)

    def grad(Z, Y):
        return (2 * s) * ((gamma * ((Z @ Lc) @ Bt) * np.conj(Y) ** (s - 1)) @ Vc)

    return values, grad


def extremize_ratio(num_mat, num_w, den_mat, den_w, p, restarts=64, maximize=(False,),
                    seed=((0xD15C, 0),), extra_starts=(), den_p=None, lift=None):
    """Extremize ``R(c) = sum w |num_mat c|^p / (sum gamma |den_mat c|^q)^(p/q)``
    with ``q = den_p``, by default ``p``, in each sense of ``maximize``.

    ``maximize`` holds one bool and ``seed`` one seed per sense. Each sense
    draws its restarts from its own seed after its copy of ``extra_starts``
    and picks its best restart among its own rows. Returns ``(ratios, cs,
    report)``, one ratio and one c per sense. The search steps along the
    gradient of log R with per-restart step halving and sphere
    renormalization (R is scale-invariant). It stops when every sense's
    best log R over its rows has moved by at most ``_STALL_REL`` over the
    last ``_STALL_STEPS`` steps (``stall``), when no restart is left
    (``no-step``: a restart drops out after a step that did not move it
    and left its step size at most 1e-13), or after 150 steps (``cap``),
    and returns the ratios at the rows where it stopped. A minimum found
    is an upper bound on the true infimum and a maximum found a lower
    bound on the true supremum. The report holds ``iterations`` (gradient
    steps), ``restarts`` (rows, over every sense), ``evaluations``
    (objective calls) and ``stop``.

    Numerator hook: for ``p = 2s`` with ``den_mat`` the exact rule V,
    ``den_w`` its weights gamma and ``lift = (B, L)``, the search steers on
    ``||g L^T||^2`` instead of ``sum w |num_mat c|^p``. Here B is the basis
    of the s-fold sumset's span on the rule's nodes, so ``g = (Y^s)(gamma
    conj B)`` with ``Y = C V^T`` holds the coefficients of ``f^s``, and L
    is the R factor of ``sqrt(w) E`` (E that basis at the sample), so the
    frame matrix is ``L^H L`` and ``||g L^T||^2 = sum w |f|^p``. An
    evaluation then costs ``O(nodes (N + |sK|) + |sK|^2)`` per row, free of
    the sample size m. The ratio returned is the direct
    ``sum w |num_mat c|^p`` at the final rows, one m-row product per call,
    and the best restart is chosen on it.
    """
    n = num_mat.shape[1]
    starts = np.asarray(extra_starts, dtype=complex).reshape(-1, n)
    k = max(restarts, 1)
    blocks = []
    for sd in seed:
        rng = np.random.default_rng(sd)
        blocks += [starts, rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))]
    C = np.vstack(blocks)
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    rows = C.shape[0] // len(maximize)
    sign = np.repeat([-1.0 if mx else 1.0 for mx in maximize], rows)  # minimize sign * log R

    num_w = np.asarray(num_w, dtype=float)
    den_w = np.asarray(den_w, dtype=float)
    q = p if den_p is None else den_p
    k_den = p / q  # exactly 1.0 when q is p

    if lift is None:
        numerator, numerator_grad = _direct_numerator(num_mat, num_w, p)
    else:
        numerator, numerator_grad = _sumset_numerator(den_mat, den_w, *lift, int(p) // 2)

    def objective(Cb, sg):
        Yd = Cb @ den_mat.T
        Yn, Sn = numerator(Cb, Yd)
        Sd = _power_sum(Yd, den_w, q)
        F = sg * (np.log(np.maximum(Sn, 1e-300)) - k_den * np.log(np.maximum(Sd, 1e-300)))
        return F, Yn, Yd, Sn, Sd

    state = (C, *objective(C, sign))  # C, F, Yn, Yd, Sn, Sd: a row per restart, updated in place
    _, F, Yn, Yd, Sn, Sd = state
    evaluations = 1
    step = np.full(C.shape[0], 0.25)
    active = np.ones(C.shape[0], dtype=bool)
    bests = []  # each sense's best signed log-ratio at the top of each step
    stop = "cap"
    it = 0
    for it in range(150):
        if not np.any(active):
            stop = "no-step"
            break
        bests.append(F.reshape(len(maximize), rows).min(axis=1))
        if len(bests) > _STALL_STEPS and np.all(bests[-1 - _STALL_STEPS] - bests[-1] <= _STALL_REL):
            stop = "stall"
            break
        Gn = numerator_grad(Yn, Yd)
        Gd = _power_grad(den_mat, den_w, q, Yd)
        G = sign[:, None] * (Gn / np.maximum(Sn, 1e-300)[:, None] - k_den * (Gd / np.maximum(Sd, 1e-300)[:, None]))
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
            found = (cand, *objective(cand, sign[trial]))
            evaluations += 1
            better = found[1] < F[trial] - 1e-15
            stack = not better.any()
            if stack:
                step[trial] *= _SCALES[depth]
                halving += depth
                continue
            b = int(np.argmax(better.any(axis=1)))
            ok = better[b]
            idx = trial[ok]
            for kept, new in zip(state, found):
                kept[idx] = new[b, ok]
            step[idx] = np.minimum(step[idx] * _SCALES[b] * 1.5, 1.0)
            moved[idx] = True
            step[trial[~ok]] *= _SCALES[b + 1]
            halving += b + 1
        active &= moved | (step > 1e-13)
    if lift is not None:  # report the direct sum, not the steering one
        Sn = _power_sum(C @ num_mat.T, num_w, p)
    ratios = Sn / np.maximum(Sd, 1e-300) ** k_den
    report = {"iterations": it + 1, "restarts": int(C.shape[0]), "evaluations": evaluations, "stop": stop}
    best = [lo + int(np.argmax(ratios[lo:lo + rows]) if mx else np.argmin(ratios[lo:lo + rows]))
            for lo, mx in zip(range(0, C.shape[0], rows), maximize)]
    return tuple(float(ratios[b]) for b in best), tuple(C[b] for b in best), report


# The squared pivot ratio of a Cholesky factor of G is a lower estimate of
# cond(G), 270 times too low at worst over recover-crosscheck's Lawson
# steps, and a singular G can leave a last squared pivot of 64 eps
# relative; the fast path so stops this factor short of lstsq's cutoff.
_PIVOT_MARGIN = 1e4


def _weighted_solver(U, y, w):
    """``solve(s)``: the minimum-norm minimizer of ``sum s w |y - U c|^2`` and
    the rank of U, from one thin QR ``sqrt(w) U = Q R`` per call.

    A step solves ``G d = Q^H S sqrt(w) y`` with ``G = Q^H S Q`` of order k
    by one LAPACK solve, after a Cholesky factor of G has shown it positive
    definite with a condition number, estimated from the factor's diagonal,
    of at most ``1 / (_PIVOT_MARGIN k eps)``; then ``c = R^+ d``, with R's
    pseudo-inverse taken once per call by ``lstsq(R, I)``, whose rank is
    the one reported. When that rank is below R's row count, d must lie in
    the range of R, so Q and R are first restricted to R's leading left
    singular vectors and G is of order rank. Past ``1 / (k eps)`` an SVD
    solve of G drops directions, so a step that fails the test keeps the
    eigenvectors of G that ``lstsq(G, .)`` would keep, and solves the
    weighted problem restricted to them for its minimum-norm c by least
    squares.
    """
    sw = np.sqrt(w)
    Q, R = np.linalg.qr(U * sw[:, None])
    b = sw * y
    R_pinv, _, rank, _ = np.linalg.lstsq(R, np.eye(R.shape[0]), rcond=None)
    rank = int(rank)
    if 0 < rank < R.shape[0]:  # at rank 0, R^+ = 0 already gives c = 0
        L, sigma, Vh = np.linalg.svd(R, full_matrices=False)
        Q, R = Q @ L[:, :rank], sigma[:rank, None] * Vh[:rank]
        R_pinv = np.conj(Vh[:rank]).T / sigma[:rank]
    cut = R.shape[0] * np.finfo(float).eps  # numpy lstsq's default rcond for an order-k matrix

    def solve(s):
        QhS = np.conj(Q)
        QhS *= s[:, None]
        G, h = QhS.T @ Q, QhS.T @ b
        try:
            pivots = np.linalg.cholesky(G).diagonal().real
            if (pivots.min() / pivots.max()) ** 2 >= _PIVOT_MARGIN * cut:
                return R_pinv @ np.linalg.solve(G, h), rank
        except np.linalg.LinAlgError:
            pass
        lam, V = np.linalg.eigh(G)
        keep = lam > cut * lam[-1]
        root, Vh = np.sqrt(lam[keep]), np.conj(V[:, keep]).T
        c = np.linalg.lstsq(root[:, None] * (Vh @ R), (Vh @ h) / root, rcond=None)[0]
        return c, rank

    return solve


MINIMAX_REL = 1e-4  # scale of Lawson's stall rule; not a bound on the fit's relative error


def lawson(U, y, w):
    """Discrete minimax fit ``min_c max_j |y_j - (U c)_j|`` by Lawson's reweighting.

    Starts from the positive weights ``w`` and multiplies them by the
    residual moduli after each weighted least-squares step, one solve of
    :func:`_weighted_solver` each. Stops when the maximum residual moved by
    at most ``0.1 * MINIMAX_REL`` relative over the last 11 steps, or after
    300 steps; this stall rule does not bound the relative error by
    ``MINIMAX_REL``.

    Returns ``(c, max_residual, report)`` for the best iterate; the report
    holds ``iterations``, ``rank`` (of U) and ``lower_bound``. With the
    step's weights scaled to sum 1, its root weighted mean square residual
    is the least over all c, hence at most any c's maximum residual;
    ``lower_bound`` is the largest such value over the steps.
    """
    solve = _weighted_solver(U, y, w)
    omega = w
    best_val, best_c = math.inf, np.zeros(U.shape[1], dtype=complex)
    lower = 0.0
    history = []
    for it in range(1, 301):
        c, rank = solve(omega / w)
        r = np.abs(y - U @ c)
        mx = float(np.max(r))
        lower = max(lower, math.sqrt(float(np.sum(omega * r * r) / np.sum(omega))))
        if mx < best_val:
            best_val, best_c = mx, c
        history.append(mx)
        if len(history) > 12 and abs(history[-1] - history[-12]) <= 0.1 * MINIMAX_REL * max(history[-1], 1e-30):
            break
        omega = omega * (r + 1e-300)
        omega /= np.sum(omega)
    return best_c, best_val, {"iterations": it, "rank": rank, "lower_bound": lower}


def residual_gradient(U, w, r, p):
    """Gradient of ``sum w |y - U c|^p`` with respect to c in the real inner
    product sense, from the residual ``r = y - U c``."""
    v = w * np.maximum(np.abs(r), 1e-300) ** (p - 2.0) * r  # the guard only meets r = 0
    return -p * np.conj(np.conj(v) @ U)  # U^H v without a conjugate copy of U


_T_MIN = 1e-14  # smallest IRLS step factor tried
_ACCEPT = 1e-15  # relative decrease of the sum that counts as a step
_CLIP = 1e-12  # residual moduli and weights are clipped at this fraction of their largest
RECOVERY_TOL = 1e-8  # gradient norm, relative to the starting one, that ends the solve


def minimize_residual(U, y, w, p, c):
    """Minimize ``sum w |y - U c|^p`` over c for finite p >= 1.

    IRLS with step halving from ``c``, or from the p = 2 minimizer, which
    is exact at p = 2, when ``c`` is None. Each step solves the reweighted
    least-squares problem with the QR of ``_weighted_solver``, residual
    moduli and weights clipped below relative to their largest, then takes
    the first of t0, t0/2, ... times the step to its minimizer that lowers
    the sum by more than ``_ACCEPT`` relative; the halvings end at
    ``_T_MIN``. For real residuals the sum's Hessian is
    ``p (p - 1)`` times the IRLS matrix, so ``t0 = 1 / (p - 1)`` is the
    Newton step; it is capped at 2, as the sum is not smooth at zero
    residuals for p near 1. The solve stops when the gradient norm is at
    most ``RECOVERY_TOL`` times the starting one (``gradient``; at once at
    p = 2), when no step lowers the sum (``no-step``) or after 300 steps
    (``cap``). Every rule is relative, so scaling y scales c.

    Returns ``(c, sum, report)``; the report holds ``iterations``,
    ``final_grad_norm``, ``stop`` and, if the start was computed here,
    ``rank`` (of U).
    """
    solve = _weighted_solver(U, y, w)
    report = {}
    if c is None:
        c, report["rank"] = solve(np.ones_like(w))
    r = y - U @ c
    obj = float(np.sum(w * np.abs(r) ** p))
    g = residual_gradient(U, w, r, p)
    g_stop = RECOVERY_TOL * float(np.linalg.norm(g))
    stop = "cap"
    for iterations in range(1, 301):
        if p == 2 or float(np.linalg.norm(g)) <= g_stop:
            stop = "gradient"
            break
        a = np.abs(r)
        a = np.maximum(a, _CLIP * np.max(a))
        omega = w * a ** (p - 2.0)
        direction = solve(np.maximum(omega, _CLIP * np.max(omega)) / w)[0] - c
        Ud = U @ direction
        t = 1.0 / max(p - 1.0, 0.5)
        while t > _T_MIN:
            r_t = r - t * Ud
            val = float(np.sum(w * np.abs(r_t) ** p))
            if val < obj * (1.0 - _ACCEPT):
                break
            t *= 0.5
        else:
            stop = "no-step"
            break
        c, obj, r = c + t * direction, val, r_t
        g = residual_gradient(U, w, r, p)
    report.update(iterations=iterations, final_grad_norm=float(np.linalg.norm(g)), stop=stop)
    return c, obj, report
