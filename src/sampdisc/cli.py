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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, tolerances
from .discretization import (
    TwoStageBudget,
    certify,
    extract_factor,
    generate_points,
    minimal_m_search,
    two_stage_subsample,
)
from .errors import BudgetExhaustedError, ConfigError, SampdiscError, SearchFailedError
from .norms import nikolskii_constant
from .recovery import verify_recovery
from .spaces import (
    CoefficientVector,
    make_lacunary_space,
    make_trig_space,
    space_from_dict,
    space_to_dict,
    tensor_product,
)

logger = logging.getLogger("sampdisc.cli")

KINDS = ("certify", "nikolskii", "generate", "subsample", "recover",
         "study-scaling", "study-lacunary", "study-tensor")


@dataclass
class ExperimentConfig:
    """Validated experiment description (thin wrapper over the JSON dict)."""

    data: dict

    @property
    def kind(self) -> str:
        return self.data["kind"]

    def get(self, path, default=None):
        """Value at a dotted path; a digit part indexes a list."""
        cur = self.data
        for part in path.split("."):
            if isinstance(cur, list) and part.isdigit() and int(part) < len(cur):
                cur = cur[int(part)]
            elif isinstance(cur, dict) and part in cur:
                cur = cur[part]
            else:
                return default
        return cur

    def need(self, path, caster=lambda v: v):
        sentinel = object()
        value = self.get(path, sentinel)
        if value is sentinel:
            raise ConfigError(path, "missing required field")
        try:
            return caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, f"bad value {value!r}: {exc}") from exc


@dataclass
class Report:
    """Everything one run produced, ready for serialization."""

    config: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    series_columns: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    version: str = __version__
    seed: int | None = None

    def series_csv(self) -> str:
        lines = [",".join(self.series_columns)]
        for row in self.series:
            lines.append(",".join(_csv_cell(row[c]) for c in self.series_columns))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": self.records,
            "summary": self.summary,
            "series_columns": self.series_columns,
            "series": self.series,
            "wall_clock_s": self.wall_clock_s,
            "version": self.version,
            "seed": self.seed,
        }


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _validate(config: ExperimentConfig) -> None:
    kind = config.need("kind", str)
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    randomized = kind in ("subsample", "study-scaling", "study-lacunary") or (
        config.get("sample.mode") in ("iid", "leverage"))
    if randomized and config.get("seed") is None:
        raise ConfigError("seed", "randomized experiments require a seed")
    if config.get("eps") is not None and not 0 < config.need("eps", float) < 1:
        raise ConfigError("eps", "eps must lie in (0, 1)")
    for path in ("Ns", "ns"):
        rng = config.get(path)
        if rng is not None and (not isinstance(rng, list) or not rng):
            raise ConfigError(path, "must be a nonempty list")


def _build_space(config: ExperimentConfig, path="space"):
    desc = config.need(path, dict)
    try:
        if desc.get("kind") == "tensor":
            count = len(config.need(f"{path}.factors", list))
            return tensor_product([_build_space(config, f"{path}.factors.{i}") for i in range(count)])
        return space_from_dict(desc)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", "missing required field") from exc
    except (SampdiscError, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_sample(space, config: ExperimentConfig, path="sample"):
    desc = config.need(path, dict)
    mode = desc.get("mode")
    m = config.need(f"{path}.m", int) if "m" in desc else None
    if mode in ("iid", "leverage"):
        seed = desc.get("seed", config.get("seed"))
        if seed is None:
            raise ConfigError(f"{path}.seed", "random sampling requires a seed")
        return generate_points(space, mode, m, seed=seed)
    if mode == "equispaced":
        return generate_points(space, "equispaced", m, sizes=desc.get("sizes"))
    if mode == "tensor":
        if space.factors is None:
            raise ConfigError(path, "tensor sampling needs a tensor-product space")
        subs = desc.get("factor_samples")
        if not isinstance(subs, list) or len(subs) != len(space.factors):
            raise ConfigError(f"{path}.factor_samples", "one sample spec per tensor factor")
        factor_sets = []
        for i, (fac, sub) in enumerate(zip(space.factors, subs)):
            factor_sets.append(_build_sample(fac, ExperimentConfig({"sample": sub, "seed": config.get("seed")}), "sample"))
        return generate_points(space, "tensor", factors=factor_sets)
    raise ConfigError(f"{path}.mode", f"unknown sampling mode {mode!r}")


def _build_target(config: ExperimentConfig, path="target"):
    desc = config.need(path, dict)
    spectrum = desc.get("spectrum")
    coeffs = desc.get("coefficients")
    if spectrum is None or coeffs is None:
        raise ConfigError(path, "target needs 'spectrum' and 'coefficients'")
    arr = np.asarray(spectrum)
    d = 1 if arr.ndim == 1 else arr.shape[1]
    target_space = make_trig_space(d, spectrum)
    values = np.array([complex(c[0], c[1]) if isinstance(c, list) else complex(c)
                       for c in coeffs])
    return CoefficientVector(target_space, values)


def _fit_exponent(xs, ys):
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def _run_size_study(config, report, sizes, make_space, m_max_for, size_label):
    p = config.need("p", float)
    eps = config.need("eps", float)
    trials = config.need("trials", int)
    threshold = config.need("success_threshold", float)
    seed = config.need("seed", int)
    budget = int(config.get("budget", 16))
    m_stars = []
    for s in sizes:
        space = make_space(s)
        result = minimal_m_search(space, p, eps, trials, threshold,
                                  seed=(seed, s), m_max=m_max_for(s), budget=budget)
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


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute a validated experiment and return the full report."""
    _validate(config)
    start = time.monotonic()
    report = Report(config=config.data, seed=config.get("seed"))
    kind = config.kind

    if kind == "certify":
        space = _build_space(config)
        sample = _build_sample(space, config)
        p = config.need("p", float)
        cert = certify(space, sample, p, budget=int(config.get("budget", 64)))
        report.records.append({"space": space_to_dict(space), "m": sample.m,
                               "certificate": cert.to_dict()})
        report.summary = {"c1_pow": cert.c1_pow, "c2_pow": cert.c2_pow,
                          "status": cert.status}

    elif kind == "nikolskii":
        space = _build_space(config)
        q = config.need("q", float)
        est = nikolskii_constant(space, q)
        rec = {"q": est.q, "M": est.M, "B": est.B, "method": est.method,
               "grid_size": est.grid_size}
        report.records.append(rec)
        report.summary = dict(rec)

    elif kind == "generate":
        space = _build_space(config)
        sample = _build_sample(space, config)
        report.records.append(sample.to_dict())
        report.summary = {"m": sample.m, "mode": sample.provenance.get("mode")}

    elif kind == "subsample":
        space = _build_space(config)
        q = config.need("q", float)
        eps = config.need("eps", float)
        budgets = TwoStageBudget(
            stage1_s=config.need("budgets.stage1_s", int),
            stage2_m=config.need("budgets.stage2_m", int),
            retries=int(config.get("budgets.retries", 50)),
        )
        subset, cert = two_stage_subsample(space, q, eps, budgets, config.need("seed", int))
        report.records.append({"points": subset.to_dict(), "certificate": cert.to_dict()})
        report.summary = {"m": subset.m, "c1_pow": cert.c1_pow, "c2_pow": cert.c2_pow}

    elif kind == "recover":
        space = _build_space(config)
        sample = _build_sample(space, config)
        target = _build_target(config)
        p = config.need("p", float)
        bound_report = verify_recovery(target, space, sample, p)
        report.records.append(bound_report.to_dict())
        report.summary = {"lhs": bound_report.lhs, "rhs": bound_report.rhs,
                          "holds": bound_report.holds}

    elif kind == "study-scaling":
        Ns = [int(v) for v in config.need("Ns", list)]
        factor = float(config.get("m_max_factor", 20.0))

        def make_space(n):
            if n % 2 != 1:
                raise ConfigError("Ns", "scaling study uses odd N = 2*degree + 1")
            deg = (n - 1) // 2
            return make_trig_space(1, [[k] for k in range(-deg, deg + 1)])

        def m_max_for(n):
            return math.ceil(factor * n * math.log2(2 * n))

        m_stars = _run_size_study(config, report, Ns, make_space, m_max_for, "N")
        alpha_n, resid_n = _fit_exponent(Ns, m_stars)
        nlogn = [n * math.log2(2 * n) for n in Ns]
        alpha_nlogn, resid_nlogn = _fit_exponent(nlogn, m_stars)
        report.summary = {"Ns": Ns, "m_stars": m_stars,
                          "exponent_vs_N": alpha_n, "residual_vs_N": resid_n,
                          "exponent_vs_NlogN": alpha_nlogn,
                          "residual_vs_NlogN": resid_nlogn}

    elif kind == "study-lacunary":
        ns = [int(v) for v in config.need("ns", list)]
        ratio = float(config.get("ratio", 2.0))
        p = config.need("p", float)
        factor = float(config.get("m_max_factor", 4.0))

        def make_space(n):
            return make_lacunary_space(n, ratio)

        def m_max_for(n):
            return math.ceil(factor * n ** (p / 2.0) * max(1.0, math.log2(2 * n)) ** 3)

        m_stars = _run_size_study(config, report, ns, make_space, m_max_for, "n")
        report.summary = {"ns": ns, "m_stars": m_stars}
        if len(ns) > 1:
            alpha, resid = _fit_exponent(ns, m_stars)
            report.summary.update({"exponent_vs_n": alpha, "residual_vs_n": resid})

    elif kind == "study-tensor":
        factor_descs = config.need("factors", list)
        sample_descs = config.need("factor_samples", list)
        if len(factor_descs) != len(sample_descs):
            raise ConfigError("factor_samples", "one sample spec per factor")
        p = config.need("p", float)
        spaces = [_build_space(config, f"factors.{i}") for i in range(len(factor_descs))]
        sets = []
        certs = []
        for i, (sp, sd) in enumerate(zip(spaces, sample_descs)):
            ps = _build_sample(sp, ExperimentConfig({"sample": sd, "seed": config.get("seed")}))
            cert = certify(sp, ps, p, budget=int(config.get("budget", 64)))
            sets.append(ps)
            certs.append(cert)
            report.records.append({"factor": i, "m": ps.m, "certificate": cert.to_dict()})
        tensor_space = tensor_product(spaces)
        tensor_set = generate_points(tensor_space, "tensor", factors=sets)
        tensor_cert = certify(tensor_space, tensor_set, p, budget=int(config.get("budget", 64)))
        report.records.append({"tensor_m": tensor_set.m, "certificate": tensor_cert.to_dict()})
        c1_prod = math.prod(c.c1_pow for c in certs)
        c2_prod = math.prod(c.c2_pow for c in certs)
        inside = (tensor_cert.c1_pow >= c1_prod - 1e-8) and (tensor_cert.c2_pow <= c2_prod + 1e-8)
        extraction = []
        if all(sp.contains_constant for sp in spaces):
            for i, sp in enumerate(spaces):
                fac_set, transferred = extract_factor(tensor_space, tensor_set, i, tensor_cert)
                direct = certify(sp, fac_set, p, budget=int(config.get("budget", 64)))
                extraction.append({"factor": i, "transferred": transferred.to_dict(),
                                   "direct": direct.to_dict()})
        report.records.extend(extraction)
        report.summary = {"c1_product": c1_prod, "c2_product": c2_prod,
                          "tensor_c1": tensor_cert.c1_pow, "tensor_c2": tensor_cert.c2_pow,
                          "within_product_interval": inside}

    report.wall_clock_s = time.monotonic() - start
    return report


def _apply_overrides(data: dict, args) -> dict:
    for name in ("seed", "p", "q", "eps", "trials"):
        value = getattr(args, name)
        if value is not None:
            data[name] = value
    if args.threshold is not None:
        data["success_threshold"] = args.threshold
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sampdisc",
        description="Sampling discretization and recovery experiments.")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default from config, else cwd)")
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="KEY=VAL", help="override a named tolerance")
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    data = _apply_overrides(data, args)
    for item in args.tolerance:
        key, _, val = item.partition("=")
        try:
            tolerances.set_override(key, float(val))
        except (KeyError, ValueError) as exc:
            print(f"config error: --tolerance {item}: {exc}", file=sys.stderr)
            return 2

    config = ExperimentConfig(data)
    try:
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhaustedError, SearchFailedError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except SampdiscError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or config.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
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
