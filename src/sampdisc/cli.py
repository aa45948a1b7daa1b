"""Command-line driver for reproducible experiments.

Reads a JSON config, dispatches to the toolkit, and writes a JSON report
plus a CSV series next to it. Identical configs (including the seed)
reproduce identical CSV payloads byte for byte; the JSON report also
carries wall-clock time, which naturally varies.

Exit codes: 0 success, 2 config error, 3 search/retry budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .discretization import (
    TwoStageBudget,
    certify,
    extract_factor,
    generate_points,
    minimal_m_search,
    two_stage_subsample,
)
from .errors import (BudgetExhaustedError, ConfigError, InvalidRatioError, InvalidSampleError, SampdiscError,
                     SearchFailedError)
from .norms import nikolskii_constant
from .recovery import verify_recovery
from .spaces import (
    CoefficientVector,
    Spectrum,
    make_lacunary_space,
    make_trig_space,
    space_to_dict,
    tensor_product,
)

logger = logging.getLogger("sampdisc.cli")

REQUIRED = object()  # default of a field that must be present


def _read(node, key, cast, default=REQUIRED, at=""):
    """``cast(value, at + key)`` of field ``key`` of ``node``, else ``default``."""
    value = node.get(key, REQUIRED) if isinstance(node, dict) else REQUIRED
    if value is not REQUIRED:
        return cast(value, at + key)
    if default is REQUIRED:
        raise ConfigError(at + key, "missing required field")
    return default


def _fields(node, fields, at="", allowed=()):
    """``{key: _read(...)}`` for each ``(key, cast, default)`` of ``fields``;
    any other key of ``node`` that is not ``allowed`` is an unknown field."""
    unknown = [key for key in node if key not in allowed and all(key != f[0] for f in fields)]
    if unknown:
        raise ConfigError(at + str(unknown[0]), "unknown field")
    return {key: _read(node, key, cast, default, at) for key, cast, default in fields}


def _check(ok, rule, convert=lambda v: v):
    """Caster: ``convert`` the value, then require ``ok``; booleans and NaN never pass."""
    def cast(value, path):
        try:
            if isinstance(value, bool):
                raise TypeError("no field takes a boolean")
            x = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(path, f"bad value {value!r}: {exc}") from exc
        if x != x or not ok(x):
            raise ConfigError(path, f"bad value {value!r}: {rule}")
        return x
    return cast


def _list_of(item):
    def cast(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "must be a nonempty list")
        return [item(v, f"{path}.{i}") for i, v in enumerate(value)]
    return cast


def _struct(*fields):
    return lambda value, path: _fields(OBJECT(value, path), fields, f"{path}.")


def _tagged(node, tag, tables, at="", allowed=()):
    """``(name, _fields(...))`` of an object whose field ``tag`` names its table of ``tables``."""
    name = _read(node, tag, _check(lambda v: v in tuple(tables), f"expected one of {tuple(tables)}"), at=at)
    return name, _fields(node, tables[name], at, allowed=(tag, *allowed))


REAL = _check(lambda x: True, "must be a number", float)
RATIO = _check(lambda x: 1 < x < math.inf, "must be > 1 and finite", float)
POSITIVE = _check(lambda x: 0 < x < math.inf, "must be positive and finite", float)
FRACTION = _check(lambda x: 0 <= x <= 1, "must lie in [0, 1]", float)
EPS = _check(lambda x: 0 < x < 1, "eps must lie in (0, 1)", float)


def _integer(value):
    """``int(value)``, refusing a string and a number with a fractional part."""
    if isinstance(value, str):
        raise TypeError("must be a number, not a string")
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError("must be an integer")
    return n


COUNT = _check(lambda n: n >= 1, "must be >= 1", _integer)
NATURAL = _check(lambda n: n >= 0, "must be >= 0", _integer)
ODD = _check(lambda n: n >= 1 and n % 2 == 1, "scaling study uses odd N = 2*degree + 1", _integer)
COEFFICIENT = _check(lambda z: True, "must be a number or an [re, im] pair",
                     lambda v: complex(*v) if isinstance(v, list) else complex(v))
TEXT = _check(lambda v: isinstance(v, str), "must be a string")
OBJECT = _check(lambda v: isinstance(v, dict), "must be an object")
FREQUENCIES = _list_of(lambda v, _: v)


def _build_space(desc, path):
    kind, f = _tagged(OBJECT(desc, path), "kind", SPACE_FIELDS, f"{path}.")
    try:
        if kind == "trig":
            return make_trig_space(f["dimension"], Spectrum(f["spectrum"], f["lacunary_ratio"]))
        if kind == "lacunary":
            return make_lacunary_space(f["n"], f["ratio"])
        return tensor_product(f["factors"])
    except (SampdiscError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _read_sample(spec, path):
    return _tagged(OBJECT(spec, path), "mode", SAMPLE_FIELDS, f"{path}.")


# The fields of each space kind and sample mode, read as those of each experiment kind
SPACE_FIELDS = {"trig": (("dimension", COUNT, REQUIRED), ("spectrum", FREQUENCIES, REQUIRED),
                         ("lacunary_ratio", RATIO, None)),
                "lacunary": (("n", COUNT, REQUIRED), ("ratio", RATIO, REQUIRED)),
                "tensor": (("factors", _list_of(_build_space), REQUIRED),)}
RANDOM = (("m", COUNT, REQUIRED), ("seed", NATURAL, None))
SAMPLE_FIELDS = {"iid": RANDOM, "leverage": RANDOM,
                 "equispaced": (("m", COUNT, None), ("sizes", _list_of(COUNT), None)),
                 "tensor": (("factor_samples", _list_of(_read_sample), REQUIRED),)}


def _build_sample(space, sample, seed, at="sample."):
    """Draw the points of a ``(mode, spec)`` sample read at ``at``; its seed overrides ``seed``."""
    mode, spec = sample
    if mode == "tensor":
        if space.factors is None:
            raise ConfigError(f"{at}mode", "tensor sampling needs a tensor-product space")
        subs = spec["factor_samples"]
        if len(subs) != len(space.factors):
            raise ConfigError(f"{at}factor_samples", "one sample spec per tensor factor")
        return generate_points(space, "tensor", factors=[
            _build_sample(fac, sub, seed, f"{at}factor_samples.{i}.")
            for i, (fac, sub) in enumerate(zip(space.factors, subs))])
    if mode == "equispaced":
        if spec["m"] is None and spec["sizes"] is None:
            raise ConfigError(f"{at}m", "missing required field (an equispaced sample may give sizes)")
        if spec["sizes"] is not None and len(spec["sizes"]) != space.domain.dim:
            raise ConfigError(f"{at}sizes", f"need {space.domain.dim}, one per dimension")
        return generate_points(space, "equispaced", spec["m"], sizes=spec["sizes"])
    seed = seed if spec["seed"] is None else spec["seed"]
    if seed is None:
        raise ConfigError(f"{at}seed", "random sampling requires a seed")
    return generate_points(space, mode, spec["m"], seed=seed)


def _build_target(desc, path):
    spectrum, coeffs = _struct(("spectrum", FREQUENCIES, REQUIRED),
                               ("coefficients", _list_of(COEFFICIENT), REQUIRED))(desc, path).values()
    try:
        arr = np.asarray(spectrum)
        d = 1 if arr.ndim == 1 else arr.shape[1]
        return CoefficientVector(make_trig_space(d, spectrum), coeffs)
    except (SampdiscError, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


SPACE = ("space", _build_space, REQUIRED)
P = ("p", REAL, REQUIRED)
SEED = ("seed", NATURAL, None)
STUDY = (P, ("eps", EPS, REQUIRED), ("trials", COUNT, REQUIRED),
         ("success_threshold", FRACTION, REQUIRED), ("seed", NATURAL, REQUIRED), ("budget", COUNT, 16))
# Every field of every kind: (key, caster, default or REQUIRED), read before
# any work starts; the seed is required where the kind itself draws points.
FIELDS = {
    "certify": (SPACE, ("sample", _read_sample, REQUIRED), P, ("budget", COUNT, 64), SEED),
    "nikolskii": (SPACE, ("q", REAL, REQUIRED), SEED),
    "generate": (SPACE, ("sample", _read_sample, REQUIRED), SEED),
    "subsample": (SPACE, ("q", REAL, REQUIRED), ("eps", EPS, REQUIRED),
                  ("budgets", _struct(("stage1_s", COUNT, REQUIRED), ("stage2_m", COUNT, REQUIRED),
                                      ("retries", NATURAL, 50)), REQUIRED),
                  ("seed", NATURAL, REQUIRED)),
    "recover": (SPACE, ("sample", _read_sample, REQUIRED), ("target", _build_target, REQUIRED), P, SEED),
    "study-scaling": (("Ns", _list_of(ODD), REQUIRED), ("m_max_factor", POSITIVE, 20.0), *STUDY),
    "study-lacunary": (("ns", _list_of(COUNT), REQUIRED), ("ratio", RATIO, 2.0),
                       ("m_max_factor", POSITIVE, 4.0), *STUDY),
    "study-tensor": (("factors", _list_of(_build_space), REQUIRED),
                     ("factor_samples", _list_of(_read_sample), REQUIRED), P, ("budget", COUNT, 64), SEED),
}


@dataclass
class ExperimentConfig:
    """An experiment description (thin wrapper over the JSON dict)."""

    data: dict

    @property
    def kind(self) -> str:
        return self.data["kind"]


@dataclass
class Report:
    """Everything one run produced, ready for serialization."""

    config: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    series_columns: list = field(default_factory=list)
    series: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    version: str = __version__
    seed: int | None = None

    def series_csv(self) -> str:
        lines = [",".join(self.series_columns)]
        for row in self.series:
            lines.append(",".join(_csv_cell(row[c]) for c in self.series_columns))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return asdict(self)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fit_exponents(sizes, m_stars, **against):
    """``exponent_vs_<name>`` and ``residual_vs_<name>``: slope and RMS
    residual of a line through ``(log x, log m_star)`` for each sequence x of
    ``against``; none unless ``sizes`` holds two distinct values."""
    if len(set(sizes)) < 2:
        return {}
    out = {}
    ly = np.log(np.asarray(m_stars, float))
    for name, xs in against.items():
        lx = np.log(np.asarray(xs, float))
        slope, intercept = np.polyfit(lx, ly, 1)
        out[f"exponent_vs_{name}"] = float(slope)
        out[f"residual_vs_{name}"] = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return out


def _run_certify(report, space, sample, p, budget, seed):
    points = _build_sample(space, sample, seed)
    cert = certify(space, points, p, budget=budget)
    report.records.append({"space": space_to_dict(space), "m": points.m,
                           "certificate": cert.to_dict()})
    report.summary = {"c1_pow": cert.c1_pow, "c2_pow": cert.c2_pow, "status": cert.status}


def _run_nikolskii(report, space, q, seed):
    rec = asdict(nikolskii_constant(space, q))
    report.records.append(rec)
    report.summary = dict(rec)


def _run_generate(report, space, sample, seed):
    points = _build_sample(space, sample, seed)
    report.records.append(points.to_dict())
    report.summary = {"m": points.m, "mode": points.provenance.get("mode")}


def _run_subsample(report, space, q, eps, budgets, seed):
    subset, cert = two_stage_subsample(space, q, eps, TwoStageBudget(**budgets), seed)
    report.records.append({"points": subset.to_dict(), "certificate": cert.to_dict()})
    report.summary = {"m": subset.m, "c1_pow": cert.c1_pow, "c2_pow": cert.c2_pow}


def _run_recover(report, space, sample, target, p, seed):
    if target.space.domain != space.domain:
        raise ConfigError("target.spectrum", f"frequencies of dimension {target.space.domain.dim} "
                          f"for a space of dimension {space.domain.dim}")
    bound_report = verify_recovery(target, space, _build_sample(space, sample, seed), p)
    report.records.append(bound_report.to_dict())
    report.summary = {"lhs": bound_report.lhs, "rhs": bound_report.rhs,
                      "holds": bound_report.holds, "advisory": bound_report.advisory}


def _m_max(factor, n, power, log_term):
    """``ceil(factor * n ** power * log_term)``, the m_max of study size n. A
    power past every float (p = inf or a huge p at power p/2) is a
    ConfigError naming ``p``, a product past it one naming ``m_max_factor``."""
    try:
        grow = float(n ** power)
    except OverflowError:
        grow = math.inf
    if grow == math.inf:
        raise ConfigError("p", f"m_max grows as {n} ** {power!r}, past every float")
    if factor * grow * log_term == math.inf:
        raise ConfigError("m_max_factor", f"m_max = {factor!r} * {grow!r} * {log_term!r} is past every float")
    return math.ceil(factor * grow * log_term)


def _run_size_study(report, size_label, sizes, spaces, m_maxes, seed, **search):
    m_stars = []
    for s, space, m_max in zip(sizes, spaces, m_maxes):
        try:
            result = minimal_m_search(space, seed=(seed, s), m_max=m_max, **search)
        except InvalidSampleError as exc:  # the m_max cap: every other count was read as a field
            raise ConfigError("m_max_factor", str(exc)) from exc
        m_stars.append(result.m_star)
        logger.info("%s=%d -> m_star=%d", size_label, s, result.m_star)
        for pt in result.curve:
            report.series.append({size_label: s, "m": pt.m, "trials": pt.trials,
                                  "successes": pt.successes, "c1_min": pt.c1_min,
                                  "c2_max": pt.c2_max})
        report.records.append({size_label: s, "m_star": result.m_star,
                               "stream": [seed, s]})
    report.series_columns = [size_label, "m", "trials", "successes", "c1_min", "c2_max"]
    return m_stars


def _run_scaling(report, Ns, m_max_factor, **study):
    spaces = [make_trig_space(1, [[k] for k in range(-(n // 2), n // 2 + 1)]) for n in Ns]
    m_maxes = [_m_max(m_max_factor, n, 1, math.log2(2 * n)) for n in Ns]
    m_stars = _run_size_study(report, "N", Ns, spaces, m_maxes, **study)
    report.summary = {"Ns": Ns, "m_stars": m_stars, **_fit_exponents(
        Ns, m_stars, N=Ns, NlogN=[n * math.log2(2 * n) for n in Ns])}


def _run_lacunary(report, ns, ratio, m_max_factor, **study):
    try:
        spaces = [make_lacunary_space(n, ratio) for n in ns]
    except InvalidRatioError as exc:
        raise ConfigError("ratio", str(exc)) from exc
    m_maxes = [_m_max(m_max_factor, n, study["p"] / 2.0, max(1.0, math.log2(2 * n)) ** 3) for n in ns]
    m_stars = _run_size_study(report, "n", ns, spaces, m_maxes, **study)
    report.summary = {"ns": ns, "m_stars": m_stars, **_fit_exponents(ns, m_stars, n=ns)}


def _run_tensor(report, factors, factor_samples, p, budget, seed):
    tensor_space = tensor_product(factors)
    tensor_set = _build_sample(tensor_space, ("tensor", {"factor_samples": factor_samples}), seed, at="")
    certs = [certify(sp, ps, p, budget=budget) for sp, ps in zip(factors, tensor_set.factors)]
    for i, (ps, cert) in enumerate(zip(tensor_set.factors, certs)):
        report.records.append({"factor": i, "m": ps.m, "certificate": cert.to_dict()})
    tensor_cert = certify(tensor_space, tensor_set, p, budget=budget)
    report.records.append({"tensor_m": tensor_set.m, "certificate": tensor_cert.to_dict()})
    c1_prod = math.prod(c.c1_pow for c in certs)
    c2_prod = math.prod(c.c2_pow for c in certs)
    inside = (tensor_cert.c1_pow >= c1_prod - 1e-8) and (tensor_cert.c2_pow <= c2_prod + 1e-8)
    if all(sp.contains_constant for sp in factors):
        # extract_factor's set is tensor_set.factors[i], certified above as certs[i]
        for i, direct in enumerate(certs):
            _, transferred = extract_factor(tensor_space, tensor_set, i, tensor_cert)
            report.records.append({"factor": i, "transferred": transferred.to_dict(),
                                   "direct": direct.to_dict()})
    report.summary = {"c1_product": c1_prod, "c2_product": c2_prod,
                      "tensor_c1": tensor_cert.c1_pow, "tensor_c2": tensor_cert.c2_pow,
                      "within_product_interval": inside}


RUNNERS = {"certify": _run_certify, "nikolskii": _run_nikolskii, "generate": _run_generate,
           "subsample": _run_subsample, "recover": _run_recover, "study-scaling": _run_scaling,
           "study-lacunary": _run_lacunary, "study-tensor": _run_tensor}


def run_experiment(config: ExperimentConfig) -> Report:
    """Read every field of the config's kind, then run the kind."""
    start = time.monotonic()
    kind, values = _tagged(config.data, "kind", FIELDS, allowed=("out",))
    report = Report(config=config.data, seed=values["seed"])
    RUNNERS[kind](report, **values)
    report.wall_clock_s = time.monotonic() - start
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sampdisc",
        description="Sampling discretization and recovery experiments.")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default from config, else cwd)")
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:  # JSON and config errors are ValueErrors
        data = OBJECT(json.loads(Path(args.config).read_text()), args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        data["seed"] = args.seed

    config = ExperimentConfig(data)
    try:
        out_dir = Path(args.out or _read(data, "out", TEXT, "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out", f"cannot create the output directory: {exc}") from exc
        report = run_experiment(config)
    except (BudgetExhaustedError, SearchFailedError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except SampdiscError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if report.series:
        (out_dir / "series.csv").write_text(report.series_csv())

    print(f"kind: {config.kind}")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    print(f"report: {out_dir / 'report.json'}")
    if report.series:
        print(f"series: {out_dir / 'series.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
