"""Tunable numeric tolerances.

Every documented tolerance of the toolkit lives here so the CLI can
override any of them with ``--tolerance KEY=VAL``.
"""

DEFAULTS = {
    # successive-refinement agreement when integrating |f|^p for non-even p
    "quad_stop": 1e-9,
    # stall rule of the discrete minimax (Lawson) fit
    "minimax_rel": 1e-4,
    # first-order optimality for convex descent (best approximation)
    "descent_tol": 1e-8,
    # first-order optimality for the sample recovery optimizer
    "recovery_tol": 1e-8,
    # slack factor applied when verifying the recovery error bound
    "recovery_slack": 1.05,
}

_active = dict(DEFAULTS)


def get(name: str) -> float:
    return _active[name]


def set_override(name: str, value: float) -> None:
    if name not in DEFAULTS:
        raise KeyError(f"unknown tolerance {name!r}; known: {sorted(DEFAULTS)}")
    _active[name] = float(value)


def reset() -> None:
    _active.clear()
    _active.update(DEFAULTS)
