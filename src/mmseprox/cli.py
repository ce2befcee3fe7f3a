"""Configuration-driven experiment runner.

Subcommands map one-to-one onto experiments:

  regularizer-recovery  emit the (x, f_X, f_Z, phi_explicit, phi_envelope,
                        in_image) curves for the configured prior and noise
  denoiser-check        emit (z, psi_tweedie, psi_oracle, abs_err) comparing
                        the score-identity denoiser to the Bayes integral
  deblur                simulate a blurred noisy observation of a sample
                        from the prior, run the solver, emit the trace and
                        the truth/observation/reconstruction grids
  certificate-suite     run the checks of the ``certificates`` module and
                        emit a deterministic PASS/FAIL report

Only deblur has an [operator] section.  Its one kind is conv2d, the
library's one operator (a circular 2-D blur).  The prior is a scalar
mixture in every experiment; deblur draws its ``height * width`` pixels
i.i.d. from it.  ``experiment.kind``, when set, must name the invoked
subcommand, in any case and with ``_`` or ``-``.

Config files are a strict flat key/value format with [section] headers,
``#`` comments, one ``key = value`` per line.  ``_SCHEMA`` names each
key's parser, which checks the value's syntax and range as it is read.
Unknown sections or keys, duplicate keys, and malformed or out-of-range
values, even in a key the invoked experiment does not read, are all hard
errors that name the offending line.  A section that the experiment
requires must set every key of its schema; [grid] and [solver] keys left
out take the library's defaults.
Exit codes: 0 success, 1 bad config or command line, 2 numerical failure
(``certificates.NUMERICAL_FAILURES``) or any FAIL in the certificate suite.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import certificates, pnp
from .denoiser import Denoiser
from .marginal import Marginal, NoiseModel
from .operators import CircularConv2D, Fidelity, observe
from .prior import ComponentKind, MixturePrior
from .regularizer import Regularizer, certify_weak_convexity  # noqa: F401 (perfbench/tracing.py wraps it here)
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


def _at_least(parse, low, strict: bool = False):
    """``parse``, rejecting values below ``low`` (or at it, if ``strict``)."""

    def check(s: str):
        v = parse(s)
        if v < low or (strict and v == low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {s!r}")
        return v

    return check


_parse_positive = _at_least(_parse_float, 0, strict=True)


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
    """``auto`` (None: ``Fidelity.auto`` picks lambda) or a positive number."""
    return None if s.lower() == "auto" else _parse_positive(s)


# section -> key -> parser of its (stripped) value, which checks its range
_SCHEMA = {
    "experiment": {"kind": _parse_experiment, "seed": _parse_seed},
    "prior": {
        "kinds": _parse_list(_parse_choice({k.value: k for k in ComponentKind})),
        "weights": _parse_list(_parse_positive),
        "locations": _parse_float_list,
        "scales": _parse_list(_parse_positive),
    },
    "noise": {"sigma2": _parse_positive},
    "grid": {"points": _at_least(_parse_int, 3), "half_width_scales": _parse_positive},
    "operator": {
        "kind": _parse_choice({"conv2d": "conv2d"}),
        "kernel": _parse_kernel,
        "height": _at_least(_parse_int, 1),
        "width": _at_least(_parse_int, 1),
        "measurement_sigma2": _parse_positive,
    },
    "solver": {
        "max_iters": _at_least(_parse_int, 1),
        "init": _parse_choice({i.value: i for i in pnp.Init}),
        "lambda": _parse_lambda,
        "record_objective": _parse_bool,
    },
    "output": {"prefix": str},
}


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse, schema-check and value-check a config file into section ->
    key -> value; raise ConfigError, naming the line, on the first fault."""
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
    return sections


# -- experiments ---------------------------------------------------------------


def _regularizer_from(cfg: dict) -> Regularizer:
    """The configured model chain: prior, noisy marginal, denoiser, regularizer."""
    try:
        prior = MixturePrior.from_arrays(**cfg["prior"])
    except ValueError as exc:
        raise ConfigError(f"section [prior]: {exc}") from exc
    return Regularizer(Denoiser(Marginal(prior, NoiseModel(**cfg["noise"]))))


def _run_regularizer_recovery(cfg: dict, prefix: Path, seed: int) -> int:
    reg = _regularizer_from(cfg)
    grid = reg.default_grid(**cfg.get("grid", {}))
    out = Path(f"{prefix}_curves.csv")
    reg.write_curves_csv(grid, out)
    print(f"wrote {out}")
    return 0


def _run_denoiser_check(cfg: dict, prefix: Path, seed: int) -> int:
    reg = _regularizer_from(cfg)
    grid = reg.default_grid(**cfg.get("grid", {}))
    tweedie = reg.denoiser.scalar_apply(grid)
    oracle = reg.denoiser.posterior_mean(grid)
    err = np.abs(tweedie - oracle)
    out = Path(f"{prefix}_denoiser.csv")
    write_text(out, csv_text("z,psi_tweedie,psi_oracle,abs_err", (grid, tweedie, oracle, err)))
    print(f"wrote {out} (max abs_err {err.max():.3e})")
    return 0


def _run_deblur(cfg: dict, prefix: Path, seed: int) -> int:
    operator = cfg["operator"]
    try:
        op = CircularConv2D(operator["kernel"], (operator["height"], operator["width"]))
    except ValueError as exc:
        raise ConfigError(f"section [operator]: {exc}") from exc
    solver = dict(cfg.get("solver", {}))
    lam = solver.pop("lambda", None)
    reg = _regularizer_from(cfg)

    truth, y = observe(reg.marginal.prior, op, operator["measurement_sigma2"], seed)
    fid = Fidelity.auto(op, y) if lam is None else Fidelity(op, y, lam)
    trace = pnp.run(fid, reg, pnp.SolverConfig(**solver))

    pnp.write_trace_csv(trace, Path(f"{prefix}_trace.csv"), truth=truth)
    for name, flat in (("truth", truth), ("observation", y), ("reconstruction", trace.final_x)):
        write_text(Path(f"{prefix}_{name}.csv"), csv_text(None, flat.reshape(op.image_shape).T))
    p_obs = pnp.psnr(y, truth)
    p_rec = pnp.psnr(trace.final_x, truth)
    print(f"wrote {prefix}_trace.csv and signal grids")
    print(f"psnr: observation {p_obs:.3f} dB -> reconstruction {p_rec:.3f} dB")
    return 0


_VERDICT = {True: "PASS", False: "FAIL"}


def _run_certificate_suite(cfg: dict, prefix: Path, seed: int) -> int:
    results = certificates.run_certificates(_regularizer_from(cfg), seed)
    for name, (_, _, failure) in results.items():
        if failure is not None:
            print(f"{name}: numerical failure: {failure}", file=sys.stderr)
    lines = []
    for name, (metrics, passed, _) in sorted(results.items()):
        lines.append(f"{name} = {_VERDICT[passed]}")
        lines += [f"{name}.{key} = {fmt17(metrics[key])}" for key in sorted(metrics)]
    overall = all(passed for _, passed, _ in results.values())
    lines.append(f"overall = {_VERDICT[overall]}")
    out = Path(f"{prefix}_certificates.txt")
    write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    for name, (_, passed, _) in sorted(results.items()):
        print(f"{name}: {_VERDICT[passed]}")
    print(f"overall: {_VERDICT[overall]}")
    return 0 if overall else 2


# experiment name -> (runner, required sections)
_EXPERIMENTS = {
    "regularizer-recovery": (_run_regularizer_recovery, ("prior", "noise")),
    "denoiser-check": (_run_denoiser_check, ("prior", "noise")),
    "deblur": (_run_deblur, ("prior", "noise", "operator")),
    "certificate-suite": (_run_certificate_suite, ("prior", "noise")),
}


def run_experiment(command: str, cfg: dict, out: str | None, seed_override: int | None) -> int:
    """Run ``command`` on a ``parse_config`` result; each section the
    experiment requires must set every key of its schema."""
    experiment = cfg.get("experiment", {})
    kind = experiment.get("kind")
    if kind not in (None, command):
        raise ConfigError(f"experiment.kind is {kind!r} but the {command!r} subcommand was invoked")
    runner, sections = _EXPERIMENTS[command]
    for section in sections:
        if section not in cfg:
            raise ConfigError(f"missing required section [{section}]")
        for key in _SCHEMA[section]:
            if key not in cfg[section]:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
    seed = experiment.get("seed", 0) if seed_override is None else seed_override
    prefix = cfg.get("output", {}).get("prefix") if out is None else out
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
    except certificates.NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
