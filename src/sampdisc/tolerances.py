"""Tunable numeric tolerances.

Every documented tolerance of the toolkit lives here so the CLI can
override any of them with ``--tolerance KEY=VAL``.
"""

from contextvars import ContextVar

DEFAULTS = {
    # successive-refinement agreement when integrating |f|^p for non-even p
    "quad_stop": 1e-9,
    # stall rule of the discrete minimax (Lawson) fit
    "minimax_rel": 1e-4,
    # first-order optimality of the finite-p residual solver (best
    # approximation and sample recovery)
    "recovery_tol": 1e-8,
    # slack factor applied when verifying the recovery error bound
    "recovery_slack": 1.05,
}

_active: ContextVar[dict] = ContextVar("sampdisc_tolerances", default=DEFAULTS)


def get(name: str) -> float:
    return _active.get()[name]


class override:
    """Context manager: ``{name: value}`` overrides held in a context variable for its
    ``with`` block only, unseen by other runs and threads; checked on creation."""

    def __init__(self, values: dict):
        self._values = dict(_active.get())
        for name, value in values.items():
            if name not in DEFAULTS:
                raise KeyError(f"unknown tolerance {name!r}; known: {sorted(DEFAULTS)}")
            self._values[name] = float(value)

    def __enter__(self):
        self._token = _active.set(self._values)

    def __exit__(self, *exc):
        _active.reset(self._token)
