"""Configuration-driven experiment runner.

Subcommands map one-to-one onto experiments:

  regularizer-recovery  emit the (x, f_X, f_Z, phi_explicit, phi_envelope,
                        in_image) curves for the configured prior and noise
  denoiser-check        emit (z, psi_tweedie, psi_oracle, abs_err) comparing
                        the score-identity denoiser to the Bayes integral
  deblur                simulate a blurred noisy observation of a sample
                        from the prior, run the solver, emit the trace and
                        the truth/observation/reconstruction grids
  certificate-suite     run the numerical certificate battery and emit a
                        deterministic PASS/FAIL report

Only deblur has an [operator] section.  Its one kind is conv2d, the
library's one operator (a circular 2-D blur).  The prior is a scalar
mixture in every experiment; deblur draws its ``height * width`` pixels
i.i.d. from it.  ``experiment.kind``, when set, must name the invoked
subcommand, in any case and with ``_`` or ``-``.

Config files are a strict flat key/value format with [section] headers,
``#`` comments, one ``key = value`` per line.  ``_SCHEMA`` names each
key's parser, and each value is parsed as it is read.  Unknown sections or
keys, duplicate keys, and malformed values, even in a key the invoked
experiment does not read, are all hard errors that name the offending line.
Exit codes: 0 success, 1 bad config or command line, 2 numerical failure
(including any FAIL in the certificate suite).
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import moreau, pnp
from .denoiser import Denoiser, QuadratureError
from .marginal import Marginal, NoiseModel
from .moreau import EnvelopeNotUnimodalError, EnvelopeUnboundedError, MultivaluedProxError
from .operators import CircularConv2D, Fidelity, gaussian_blur_kernel
from .prior import ComponentKind, MixturePrior
from .regularizer import CONVEXITY_TOL, Regularizer, certify_weak_convexity
from .textio import csv_text, fmt17, write_text

__all__ = ["ConfigError", "parse_config", "run_experiment", "main"]


class ConfigError(ValueError):
    """A config file failed validation; the message names the offender."""


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_seed(s: str) -> int:
    """A seed: numpy's generators take non-negative integers only."""
    v = _parse_int(s)
    if v < 0:
        raise ValueError(f"must be a non-negative integer, got {s!r}")
    return v


def _seed_argument(s: str) -> int:
    """``_parse_seed`` for argparse, which prints the message of this type."""
    try:
        return _parse_seed(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_choice(options: dict):
    """Parser of a case-insensitive name among ``options``; returns its value."""

    def parse(s: str):
        v = s.strip().lower()
        if v not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {s!r}")
        return options[v]

    return parse


def _parse_list(parse_item):
    """Parser of a comma-separated list of ``parse_item`` values."""

    def parse(s: str) -> list:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list")
        return [parse_item(p) for p in parts]

    return parse


_parse_float_list = _parse_list(_parse_float)


def _parse_kernel(s: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in s.split(";")) if r]
    if not rows:
        raise ValueError("expected kernel rows separated by ';'")
    parsed = [_parse_float_list(r) for r in rows]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ValueError("kernel rows have unequal lengths")
    return np.asarray(parsed, dtype=float)


def _parse_experiment(s: str) -> str:
    """An experiment name, in any case and with ``_`` or ``-``."""
    name = s.lower().replace("_", "-")
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {s!r}")
    return name


def _parse_lambda(s: str) -> float | None:
    """``auto`` (None: ``Fidelity.auto`` picks lambda) or a number."""
    return None if s.lower() == "auto" else _parse_float(s)


# section -> key -> parser of its (stripped) value
_SCHEMA = {
    "experiment": {"kind": _parse_experiment, "seed": _parse_seed},
    "prior": {
        "kinds": _parse_list(_parse_choice({k.value: k for k in ComponentKind})),
        "weights": _parse_float_list,
        "locations": _parse_float_list,
        "scales": _parse_float_list,
    },
    "noise": {"sigma2": _parse_float},
    "grid": {"points": _parse_int, "half_width_scales": _parse_float},
    "operator": {
        "kind": _parse_choice({"conv2d": "conv2d"}),
        "kernel": _parse_kernel,
        "height": _parse_int,
        "width": _parse_int,
        "measurement_sigma2": _parse_float,
    },
    "solver": {
        "max_iters": _parse_int,
        "init": _parse_choice({i.value: i for i in pnp.Init}),
        "lambda": _parse_lambda,
        "record_objective": _parse_bool,
    },
    "output": {"prefix": str},
}


class Config:
    """Parsed config: sections of key -> parsed value."""

    def __init__(self, sections: dict[str, dict[str, object]]):
        self.sections = sections

    def require_section(self, name: str) -> None:
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")

    def section(self, name: str) -> dict[str, object]:
        """The keys a section sets, with their values; empty if it is absent."""
        return dict(self.sections.get(name, {}))

    def get(self, section: str, key: str, default=None, required: bool = False):
        values = self.sections.get(section, {})
        if key in values:
            return values[key]
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return default


def parse_config(text: str) -> Config:
    """Parse, schema-check and value-check a config file; raise ConfigError,
    naming the line, on the first fault."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key/value before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        try:
            sections[current][key] = _SCHEMA[current][key](value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {current}.{key}: {exc}") from exc
    return Config(sections)


# -- model assembly ------------------------------------------------------------


def _regularizer_from(cfg: Config) -> Regularizer:
    """The configured model chain: prior, noisy marginal, denoiser, regularizer."""
    arrays = {
        key: cfg.get("prior", key, required=True)
        for key in ("kinds", "weights", "locations", "scales")
    }
    try:
        prior = MixturePrior.from_arrays(**arrays)
    except ValueError as exc:
        raise ConfigError(f"section [prior]: {exc}") from exc
    sigma2 = cfg.get("noise", "sigma2", required=True)
    try:
        noise = NoiseModel(sigma2)
    except ValueError as exc:
        raise ConfigError(f"section [noise]: {exc}") from exc
    return Regularizer(Denoiser(Marginal(prior, noise)))


def _grid_from(cfg: Config, reg: Regularizer) -> np.ndarray:
    """``reg.default_grid`` with the [grid] keys the config sets."""
    settings = cfg.section("grid")
    if "points" in settings and settings["points"] < 3:
        raise ConfigError("grid.points must be >= 3")
    if "half_width_scales" in settings and settings["half_width_scales"] <= 0:
        raise ConfigError("grid.half_width_scales must be > 0")
    return reg.default_grid(**settings)


def _operator_from(cfg: Config) -> CircularConv2D:
    cfg.get("operator", "kind", required=True)
    kernel = cfg.get("operator", "kernel", required=True)
    h = cfg.get("operator", "height", required=True)
    w = cfg.get("operator", "width", required=True)
    try:
        return CircularConv2D(kernel, (h, w))
    except ValueError as exc:
        raise ConfigError(f"section [operator]: {exc}") from exc


def _solver_settings(cfg: Config) -> tuple[pnp.SolverConfig, float | None]:
    """``pnp.SolverConfig`` with the [solver] keys the config sets, and
    lambda (None for auto)."""
    settings = cfg.section("solver")
    lam = settings.pop("lambda", None)
    if lam is not None and lam <= 0:
        raise ConfigError("solver.lambda must be > 0 or 'auto'")
    try:
        return pnp.SolverConfig(**settings), lam
    except ValueError as exc:
        raise ConfigError(f"section [solver]: {exc}") from exc


def _observe(prior: MixturePrior, op: CircularConv2D, meas_sigma2: float, seed: int):
    """A truth drawn from the prior and its blurred noisy observation."""
    n = op.input_size
    truth = prior.sample(n, seed=seed)
    noise = np.random.default_rng(seed + 1).standard_normal(n)
    return truth, op.apply(truth) + math.sqrt(meas_sigma2) * noise


# -- experiments ---------------------------------------------------------------


def _run_regularizer_recovery(cfg: Config, prefix: Path, seed: int) -> int:
    reg = _regularizer_from(cfg)
    grid = _grid_from(cfg, reg)
    out = Path(f"{prefix}_curves.csv")
    reg.write_curves_csv(grid, out)
    print(f"wrote {out}")
    return 0


def _run_denoiser_check(cfg: Config, prefix: Path, seed: int) -> int:
    reg = _regularizer_from(cfg)
    grid = _grid_from(cfg, reg)
    tweedie = reg.denoiser.scalar_apply(grid)
    oracle = reg.denoiser.posterior_mean(grid)
    err = np.abs(tweedie - oracle)
    out = Path(f"{prefix}_denoiser.csv")
    write_text(out, csv_text("z,psi_tweedie,psi_oracle,abs_err", (grid, tweedie, oracle, err)))
    print(f"wrote {out} (max abs_err {err.max():.3e})")
    return 0


def _write_grid_csv(path: Path, flat: np.ndarray, shape: tuple[int, int]) -> None:
    write_text(path, csv_text(None, flat.reshape(shape).T))


def _run_deblur(cfg: Config, prefix: Path, seed: int) -> int:
    op = _operator_from(cfg)
    meas_sigma2 = cfg.get("operator", "measurement_sigma2", required=True)
    if meas_sigma2 <= 0:
        raise ConfigError("operator.measurement_sigma2 must be > 0")
    solver_cfg, lam = _solver_settings(cfg)
    reg = _regularizer_from(cfg)

    truth, y = _observe(reg.marginal.prior, op, meas_sigma2, seed)
    fid = Fidelity.auto(op, y) if lam is None else Fidelity(op, y, lam)
    trace = pnp.run(reg.denoiser, fid, reg, solver_cfg)

    pnp.write_trace_csv(trace, Path(f"{prefix}_trace.csv"), truth=truth)
    _write_grid_csv(Path(f"{prefix}_truth.csv"), truth, op.image_shape)
    _write_grid_csv(Path(f"{prefix}_observation.csv"), y, op.image_shape)
    _write_grid_csv(Path(f"{prefix}_reconstruction.csv"), trace.final_x, op.image_shape)
    p_obs = pnp.psnr(y, truth)
    p_rec = pnp.psnr(trace.final_x, truth)
    print(f"wrote {prefix}_trace.csv and signal grids")
    print(f"psnr: observation {p_obs:.3f} dB -> reconstruction {p_rec:.3f} dB")
    return 0


# -- certificate suite ---------------------------------------------------------
#
# Every check takes (reg, seed) and returns its metrics by name.


def _check_tweedie(reg: Regularizer, seed: int) -> dict[str, float]:
    den = reg.denoiser
    grid = reg.default_grid(points=41, half_width_scales=4.0)
    tweedie = den.scalar_apply(grid)
    oracle = den.posterior_mean(grid)
    return {"max_abs_err": float(np.abs(tweedie - oracle).max())}


def _check_route_agreement(reg: Regularizer, seed: int) -> dict[str, float]:
    grid = reg.default_grid(points=101)
    explicit, in_image = reg.phi_explicit_profile(grid)
    envelope, _ = reg.phi_envelope_profile(grid)
    if not in_image.any():
        return {}  # no metric, so the gate fails
    rel = np.abs(explicit[in_image] - envelope[in_image]) / np.maximum(
        1.0, np.abs(explicit[in_image])
    )
    return {"max_rel_err": float(rel.max())}


def _check_sandwich(reg: Regularizer, seed: int) -> dict[str, float]:
    grid = np.linspace(-3.0, 3.0, 61)
    # name -> (f, whether f is convex, so its inner envelope is unimodal)
    specs = {
        "quadratic": (lambda y: 0.5 * np.asarray(y) ** 2, True),
        "absolute": (lambda y: np.abs(y), True),
        "cosine": (lambda y: np.cos(3.0 * np.asarray(y)), False),
    }
    metrics = {}
    for name, (f, convex) in specs.items():

        def inner(ys, f=f, convex=convex):
            return moreau.lower_envelope_many(f, 1.0, ys, unimodal=convex)[0]

        # M_1 f(y) - (y - x)^2 / 2 is concave for every f: the outer search
        # is unimodal even where the inner one is not
        outer, _ = moreau.upper_envelope_many(inner, 1.0, grid, unimodal=True)
        gap = f(grid) - outer
        metrics[f"{name}_min_gap"] = float(gap.min())
        metrics[f"{name}_max_gap"] = float(gap.max())
    return metrics


def _check_envelope_gradient(reg: Regularizer, seed: int) -> dict[str, float]:
    fz = reg.marginal.scalar_value
    worst = 0.0
    # deliberately asymmetric points: a symmetric bimodal marginal has a
    # genuinely two-valued prox at its symmetry centre, where the gradient
    # identity does not apply
    for x in (-1.9, -0.7, 0.3, 1.2, 2.1):
        g = moreau.envelope_gradient(fz, 1.0, float(x))
        h = 1e-4
        lo = moreau.lower_envelope(fz, 1.0, float(x) - h).value
        hi = moreau.lower_envelope(fz, 1.0, float(x) + h).value
        fd = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(1.0, abs(fd)))
    return {"max_rel_err": worst}


def _check_moreau_identity(reg: Regularizer, seed: int) -> dict[str, float]:
    sigma2 = reg.marginal.sigma2
    grid = reg.default_grid(points=21, half_width_scales=3.0)
    # phi is 1-weakly convex, so phi(y) + (y - x)^2 / 2 has one basin
    m1, _ = moreau.lower_envelope_many(
        lambda ys: reg.phi_explicit_profile(ys)[0], 1.0, grid, unimodal=True
    )
    fz = reg.marginal.scalar_value(grid)
    anchors = [reg.c_constant(a) for a in (0.0, 0.5, -1.0)]
    return {
        "max_abs_err": float(np.abs(m1 / sigma2 + reg.c_anchor - fz).max()),
        "anchor_spread": max(anchors) - min(anchors),
    }


def _check_weak_convexity(reg: Regularizer, seed: int) -> dict[str, float]:
    control = certify_weak_convexity(lambda x: -np.asarray(x) ** 2, np.linspace(-3, 3, 201))
    return {
        "min_second_difference": reg.weak_convexity_certificate(reg.default_grid(points=201)),
        "control_min_second_difference": control,
    }


def _check_prox_consistency(reg: Regularizer, seed: int) -> dict[str, float]:
    zs = reg.default_grid(points=15, half_width_scales=3.0)
    # argmin_y phi(y) + (y-z)^2/2 for each z, by nested envelopes (phi by
    # its envelope route); the objective is convex, as phi is 1-weakly convex
    _, prox_points = moreau.lower_envelope_many(
        lambda ys: reg.phi_envelope_profile(ys)[0], 1.0, zs, unimodal=True
    )
    applied = reg.denoiser.scalar_apply(zs)
    return {"max_abs_err": float(np.abs(prox_points - applied).max())}


def _check_solver_small(reg: Regularizer, seed: int) -> dict[str, float]:
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (12, 12))
    truth, y = _observe(reg.marginal.prior, op, 0.04, seed)
    fid = Fidelity.auto(op, y)
    trace = pnp.run(
        reg.denoiser, fid, reg,
        pnp.SolverConfig(max_iters=120, init=pnp.Init.ADJOINT_OBSERVATION),
    )
    # each descent slack may sit 1e-9 max(1, |F|) below zero, for rounding in F
    margin = min(
        s + 1e-9 * max(1.0, abs(r.objective_F))
        for s, r in zip(pnp.descent_check(trace), trace.records)
    )
    return {
        "min_descent_margin": float(margin),
        "rate_violations": float(len(pnp.rate_certificate(trace).violations)),
        "psnr_gain_db": pnp.psnr(trace.final_x, truth) - pnp.psnr(y, truth),
    }


# name -> (check, gate rows), in run order.  A check PASSes iff every row
# (metric, comparison, threshold) holds; a missing or NaN metric fails it,
# and so does a search that refuses an objective as not unimodal.
_CERTIFICATES = {
    "tweedie_oracle": (_check_tweedie, [("max_abs_err", "<=", 1e-6)]),
    "route_agreement": (_check_route_agreement, [("max_rel_err", "<=", 1e-6)]),
    "sandwich": (_check_sandwich, [
        ("quadratic_min_gap", ">=", -1e-7),
        ("quadratic_max_gap", "<=", 1e-7),
        ("absolute_min_gap", ">=", -1e-7),
        ("cosine_min_gap", ">=", -1e-7),
        ("cosine_max_gap", ">", 0.1),
    ]),
    "envelope_gradient": (_check_envelope_gradient, [("max_rel_err", "<=", 1e-5)]),
    "moreau_identity": (_check_moreau_identity, [
        ("max_abs_err", "<=", 1e-6),
        ("anchor_spread", "<=", 1e-6),
    ]),
    "weak_convexity": (_check_weak_convexity, [
        ("min_second_difference", ">=", -CONVEXITY_TOL),
        ("control_min_second_difference", "<", -CONVEXITY_TOL),
    ]),
    "prox_consistency": (_check_prox_consistency, [("max_abs_err", "<=", 1e-6)]),
    "solver_small": (
        _check_solver_small,
        [("min_descent_margin", ">=", 0.0), ("rate_violations", "<=", 0.0)],
    ),
}

_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def _passes(metrics: dict[str, float], gates) -> bool:
    """Whether every gate row holds; NaN compares False, so it fails."""
    return all(
        _COMPARISONS[comparison](metrics.get(metric, math.nan), threshold)
        for metric, comparison, threshold in gates
    )


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _run_certificate_suite(cfg: Config, prefix: Path, seed: int) -> int:
    reg = _regularizer_from(cfg)
    metrics = {}
    for name, (check, _) in _CERTIFICATES.items():
        try:
            metrics[name] = check(reg, seed)
        except EnvelopeNotUnimodalError as exc:
            print(f"{name}: numerical failure: {exc}", file=sys.stderr)
            metrics[name] = {}
    passed = {name: _passes(metrics[name], gates) for name, (_, gates) in _CERTIFICATES.items()}

    lines = []
    for name in sorted(passed):
        lines.append(f"{name} = {_verdict(passed[name])}")
        lines += [f"{name}.{key} = {fmt17(metrics[name][key])}" for key in sorted(metrics[name])]
    overall = all(passed.values())
    lines.append(f"overall = {_verdict(overall)}")
    out = Path(f"{prefix}_certificates.txt")
    write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    for name in sorted(passed):
        print(f"{name}: {_verdict(passed[name])}")
    print(f"overall: {_verdict(overall)}")
    return 0 if overall else 2


# experiment name -> (runner, required sections)
_EXPERIMENTS = {
    "regularizer-recovery": (_run_regularizer_recovery, ("prior", "noise")),
    "denoiser-check": (_run_denoiser_check, ("prior", "noise")),
    "deblur": (_run_deblur, ("prior", "noise", "operator")),
    "certificate-suite": (_run_certificate_suite, ("prior", "noise")),
}


def run_experiment(command: str, cfg: Config, out: str | None, seed_override: int | None) -> int:
    kind = cfg.get("experiment", "kind")
    if kind not in (None, command):
        raise ConfigError(f"experiment.kind is {kind!r} but the {command!r} subcommand was invoked")
    runner, sections = _EXPERIMENTS[command]
    for section in sections:
        cfg.require_section(section)
    seed = cfg.get("experiment", "seed", default=0) if seed_override is None else seed_override
    prefix = cfg.get("output", "prefix") if out is None else out
    if prefix is None:
        raise ConfigError("no output prefix: set [output] prefix or pass --out")
    return runner(cfg, Path(prefix), seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmseprox",
        description="Denoiser-implied regularizer experiments and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output path prefix (overrides [output] prefix)")
        p.add_argument("--seed", type=_seed_argument, default=None,
                       help="seed (overrides [experiment] seed)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, here a numerical failure's code
        return 0 if exc.code == 0 else 1

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        return run_experiment(args.command, cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        QuadratureError,
        EnvelopeNotUnimodalError,
        EnvelopeUnboundedError,
        MultivaluedProxError,
        pnp.DivergenceError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
