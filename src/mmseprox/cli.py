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
``#`` comments, one ``key = value`` per line.  Unknown sections or keys,
duplicate keys, and malformed values are all hard errors that name the
offending line.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure (including any FAIL in the certificate suite).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import moreau, pnp
from .denoiser import Denoiser, QuadratureError
from .marginal import Marginal, NoiseModel
from .moreau import EnvelopeUnboundedError, MultivaluedProxError
from .operators import CircularConv2D, Fidelity, gaussian_blur_kernel
from .prior import ComponentKind, MixturePrior
from .regularizer import Regularizer, certify_weak_convexity
from .textio import csv_text, fmt17, write_text

__all__ = ["ConfigError", "parse_config", "run_experiment", "main"]

_SCHEMA = {
    "experiment": {"kind", "seed"},
    "prior": {"kinds", "weights", "locations", "scales"},
    "noise": {"sigma2"},
    "grid": {"points", "half_width_scales"},
    "operator": {"kind", "kernel", "height", "width", "measurement_sigma2"},
    "solver": {"max_iters", "init", "lambda", "record_objective"},
    "output": {"prefix"},
}


class ConfigError(ValueError):
    """A config file failed validation; the message names the offender."""


class Config:
    """Parsed config: sections of key -> (raw value, line number)."""

    def __init__(self, sections: dict[str, dict[str, tuple[str, int]]]):
        self.sections = sections

    def require_section(self, name: str) -> None:
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")

    def raw(self, section: str, key: str):
        return self.sections.get(section, {}).get(key)

    def get(self, section: str, key: str, parse, default=None, required: bool = False):
        entry = self.raw(section, key)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            return default
        value, lineno = entry
        try:
            return parse(value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from exc


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_str(s: str) -> str:
    return s.strip()


def _parse_choice(options):
    def parse(s: str) -> str:
        v = s.strip().lower()
        if v not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {s!r}")
        return v

    return parse


def _parse_float_list(s: str) -> list[float]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [_parse_float(p) for p in parts]


def _parse_str_list(s: str) -> list[str]:
    parts = [p.strip().lower() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list")
    return parts


def _parse_kernel(s: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in s.split(";")) if r]
    if not rows:
        raise ValueError("expected kernel rows separated by ';'")
    parsed = [_parse_float_list(r) for r in rows]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ValueError("kernel rows have unequal lengths")
    return np.asarray(parsed, dtype=float)


def parse_config(text: str) -> Config:
    """Parse and schema-check a config file; raise ConfigError on any issue."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = (value, lineno)
    return Config(sections)


# -- model assembly ------------------------------------------------------------


def _prior_from(cfg: Config) -> MixturePrior:
    """The configured scalar mixture prior."""
    kinds = cfg.get("prior", "kinds", _parse_str_list, required=True)
    weights = cfg.get("prior", "weights", _parse_float_list, required=True)
    locations = cfg.get("prior", "locations", _parse_float_list, required=True)
    scales = cfg.get("prior", "scales", _parse_float_list, required=True)
    for k in kinds:
        if k not in ("gaussian", "laplace"):
            raise ConfigError(f"prior.kinds: unknown component kind {k!r}")
    try:
        return MixturePrior.from_arrays(
            kinds=[ComponentKind(k) for k in kinds],
            weights=weights,
            locations=locations,
            scales=scales,
        )
    except ValueError as exc:
        raise ConfigError(f"section [prior]: {exc}") from exc


def _noise_from(cfg: Config) -> NoiseModel:
    sigma2 = cfg.get("noise", "sigma2", _parse_float, required=True)
    try:
        return NoiseModel(sigma2)
    except ValueError as exc:
        raise ConfigError(f"section [noise]: {exc}") from exc


def _grid_from(cfg: Config, reg: Regularizer) -> np.ndarray:
    points = cfg.get("grid", "points", _parse_int, default=401)
    half_width = cfg.get("grid", "half_width_scales", _parse_float, default=6.0)
    if points < 3:
        raise ConfigError("grid.points must be >= 3")
    if half_width <= 0:
        raise ConfigError("grid.half_width_scales must be > 0")
    return reg.default_grid(points=points, half_width_scales=half_width)


def _operator_from(cfg: Config) -> CircularConv2D:
    cfg.get("operator", "kind", _parse_choice({"conv2d"}), required=True)
    kernel = cfg.get("operator", "kernel", _parse_kernel, required=True)
    h = cfg.get("operator", "height", _parse_int, required=True)
    w = cfg.get("operator", "width", _parse_int, required=True)
    try:
        return CircularConv2D(kernel, (h, w))
    except ValueError as exc:
        raise ConfigError(f"section [operator]: {exc}") from exc


def _solver_settings(cfg: Config):
    max_iters = cfg.get("solver", "max_iters", _parse_int, default=50)
    init_name = cfg.get(
        "solver", "init", _parse_choice({i.value for i in pnp.Init}), default=pnp.Init.ZEROS.value
    )
    record = cfg.get("solver", "record_objective", _parse_bool, default=True)
    lam_raw = cfg.raw("solver", "lambda")
    if lam_raw is None or lam_raw[0].strip().lower() == "auto":
        lam = None
    else:
        lam = cfg.get("solver", "lambda", _parse_float)
        if lam <= 0:
            raise ConfigError("solver.lambda must be > 0 or 'auto'")
    try:
        sc = pnp.SolverConfig(
            max_iters=max_iters, init=pnp.Init(init_name), record_objective=record
        )
    except ValueError as exc:
        raise ConfigError(f"section [solver]: {exc}") from exc
    return sc, lam


def _out_prefix(cfg: Config, override: str | None) -> Path:
    prefix = override
    if prefix is None:
        prefix = cfg.get("output", "prefix", _parse_str, required=False)
    if prefix is None:
        raise ConfigError("no output prefix: set [output] prefix or pass --out")
    return Path(prefix)


def _seed_from(cfg: Config, override: int | None) -> int:
    if override is not None:
        return int(override)
    return cfg.get("experiment", "seed", _parse_int, default=0)


# -- experiments ---------------------------------------------------------------


def _run_regularizer_recovery(cfg: Config, prefix: Path, seed: int) -> int:
    reg = Regularizer(Denoiser(Marginal(_prior_from(cfg), _noise_from(cfg))))
    grid = _grid_from(cfg, reg)
    out = Path(f"{prefix}_curves.csv")
    reg.write_curves_csv(grid, out)
    print(f"wrote {out}")
    return 0


def _run_denoiser_check(cfg: Config, prefix: Path, seed: int) -> int:
    den = Denoiser(Marginal(_prior_from(cfg), _noise_from(cfg)))
    reg = Regularizer(den)
    grid = _grid_from(cfg, reg)
    tweedie = den.scalar_apply(grid)
    oracle = den.posterior_mean(grid)
    err = np.abs(tweedie - oracle)
    out = Path(f"{prefix}_denoiser.csv")
    write_text(out, csv_text("z,psi_tweedie,psi_oracle,abs_err", (grid, tweedie, oracle, err)))
    print(f"wrote {out} (max abs_err {err.max():.3e})")
    return 0


def _write_grid_csv(path: Path, flat: np.ndarray, shape: tuple[int, int]) -> None:
    write_text(path, csv_text(None, flat.reshape(shape).T))


def _run_deblur(cfg: Config, prefix: Path, seed: int) -> int:
    op = _operator_from(cfg)
    meas_sigma2 = cfg.get("operator", "measurement_sigma2", _parse_float, required=True)
    if meas_sigma2 <= 0:
        raise ConfigError("operator.measurement_sigma2 must be > 0")

    n = op.input_size
    prior = _prior_from(cfg)
    den = Denoiser(Marginal(prior, _noise_from(cfg)))
    reg = Regularizer(den)

    truth = prior.sample(n, seed=seed)
    noise = np.random.default_rng(seed + 1).standard_normal(n)
    y = op.apply(truth) + math.sqrt(meas_sigma2) * noise

    solver_cfg, lam = _solver_settings(cfg)
    fid = Fidelity.auto(op, y) if lam is None else Fidelity(op, y, lam)
    trace = pnp.run(den, fid, reg, solver_cfg)

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


def _nested_prox_points(reg: Regularizer, zs: np.ndarray) -> np.ndarray:
    """argmin_y phi(y) + (y-z)^2/2 for each z, by nested envelopes (phi by
    its envelope route)."""

    def phi_values(ys):
        vals, _ = reg.phi_envelope_profile(ys)
        return vals

    _, argopts = moreau.lower_envelope_many(phi_values, 1.0, zs, grid_points=301)
    return argopts


def _suite_tweedie(reg: Regularizer, details: dict) -> bool:
    den = reg.denoiser
    grid = reg.default_grid(points=41, half_width_scales=4.0)
    tweedie = den.scalar_apply(grid)
    oracle = den.posterior_mean(grid)
    worst = float(np.abs(tweedie - oracle).max())
    details["max_abs_err"] = worst
    return worst <= 1e-6


def _suite_route_agreement(reg: Regularizer, details: dict) -> bool:
    grid = reg.default_grid(points=101)
    explicit, in_image = reg.phi_explicit_profile(grid)
    envelope, _ = reg.phi_envelope_profile(grid)
    if not in_image.any():
        return False
    rel = np.abs(explicit[in_image] - envelope[in_image]) / np.maximum(
        1.0, np.abs(explicit[in_image])
    )
    details["max_rel_err"] = float(rel.max())
    return bool(rel.max() <= 1e-6)


def _suite_sandwich(details: dict) -> bool:
    grid = np.linspace(-3.0, 3.0, 61)
    specs = {
        "quadratic": lambda y: 0.5 * np.asarray(y) ** 2,
        "absolute": lambda y: np.abs(y),
        "cosine": lambda y: np.cos(3.0 * np.asarray(y)),
    }
    ok = True
    for name, f in specs.items():
        def inner(ys, f=f):
            vals, _ = moreau.lower_envelope_many(f, 1.0, ys)
            return vals

        outer, _ = moreau.upper_envelope_many(inner, 1.0, grid)
        gap = f(grid) - outer
        details[f"{name}_min_gap"] = float(gap.min())
        details[f"{name}_max_gap"] = float(gap.max())
        if gap.min() < -1e-7:
            ok = False
    if abs(details["quadratic_max_gap"]) > 1e-7:
        ok = False
    if details["cosine_max_gap"] <= 0.1:
        ok = False
    return ok


def _suite_envelope_gradient(reg: Regularizer, details: dict) -> bool:
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
    details["max_rel_err"] = worst
    return worst <= 1e-5


def _suite_moreau_identity(reg: Regularizer, details: dict) -> bool:
    sigma2 = reg.marginal.sigma2
    grid = reg.default_grid(points=21, half_width_scales=3.0)

    def phi_values(ys):
        vals, _ = reg.phi_explicit_profile(ys)
        return vals

    m1, _ = moreau.lower_envelope_many(phi_values, 1.0, grid)
    fz = reg.marginal.scalar_value(grid)
    worst = float(np.abs(m1 / sigma2 + reg.c_anchor - fz).max())
    details["max_abs_err"] = worst
    anchors = [reg.c_constant(a) for a in (0.0, 0.5, -1.0)]
    spread = max(anchors) - min(anchors)
    details["anchor_spread"] = spread
    return worst <= 1e-6 and spread <= 1e-6


def _suite_weak_convexity(reg: Regularizer, details: dict) -> bool:
    cert = reg.weak_convexity_certificate(reg.default_grid(points=201))
    details["min_second_difference"] = cert.min_second_difference
    control = certify_weak_convexity(lambda x: -np.asarray(x) ** 2, np.linspace(-3, 3, 201))
    details["control_min_second_difference"] = control.min_second_difference
    return cert.passed and not control.passed


def _suite_prox_consistency(reg: Regularizer, details: dict) -> bool:
    zs = reg.default_grid(points=15, half_width_scales=3.0)
    prox_points = _nested_prox_points(reg, zs)
    applied = reg.denoiser.scalar_apply(zs)
    worst = float(np.abs(prox_points - applied).max())
    details["max_abs_err"] = worst
    return worst <= 1e-6


def _suite_solver_small(reg: Regularizer, seed: int, details: dict) -> bool:
    side = 12
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (side, side))
    truth = reg.marginal.prior.sample(side * side, seed=seed)
    noise = np.random.default_rng(seed + 1).standard_normal(side * side)
    y = op.apply(truth) + math.sqrt(0.04) * noise
    fid = Fidelity.auto(op, y)
    trace = pnp.run(
        reg.denoiser, fid, reg,
        pnp.SolverConfig(max_iters=120, init=pnp.Init.ADJOINT_OBSERVATION),
    )
    slacks = pnp.descent_check(trace)
    floor = min(
        s + 1e-9 * max(1.0, abs(r.objective_F)) for s, r in zip(slacks, trace.records)
    )
    cert = pnp.rate_certificate(trace)
    details["min_descent_margin"] = float(floor)
    details["rate_violations"] = float(len(cert.violations))
    details["psnr_gain_db"] = pnp.psnr(trace.final_x, truth) - pnp.psnr(y, truth)
    return floor >= 0.0 and not cert.violations


def _run_certificate_suite(cfg: Config, prefix: Path, seed: int) -> int:
    reg = Regularizer(Denoiser(Marginal(_prior_from(cfg), _noise_from(cfg))))
    suites = {}
    details: dict[str, dict[str, float]] = {}

    def record(name: str, fn) -> None:
        details[name] = {}
        suites[name] = bool(fn(details[name]))

    record("tweedie_oracle", lambda d: _suite_tweedie(reg, d))
    record("route_agreement", lambda d: _suite_route_agreement(reg, d))
    record("sandwich", lambda d: _suite_sandwich(d))
    record("envelope_gradient", lambda d: _suite_envelope_gradient(reg, d))
    record("moreau_identity", lambda d: _suite_moreau_identity(reg, d))
    record("weak_convexity", lambda d: _suite_weak_convexity(reg, d))
    record("prox_consistency", lambda d: _suite_prox_consistency(reg, d))
    record("solver_small", lambda d: _suite_solver_small(reg, seed, d))

    lines = []
    for name in sorted(suites):
        lines.append(f"{name} = {'PASS' if suites[name] else 'FAIL'}")
        for key in sorted(details[name]):
            lines.append(f"{name}.{key} = {fmt17(details[name][key])}")
    overall = all(suites.values())
    lines.append(f"overall = {'PASS' if overall else 'FAIL'}")
    out = Path(f"{prefix}_certificates.txt")
    write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    for name in sorted(suites):
        print(f"{name}: {'PASS' if suites[name] else 'FAIL'}")
    print(f"overall: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 2


# experiment name -> (runner, required sections); experiment.kind may also
# spell a name in any case and with underscores for hyphens.
_EXPERIMENTS = {
    "regularizer-recovery": (_run_regularizer_recovery, ("prior", "noise")),
    "denoiser-check": (_run_denoiser_check, ("prior", "noise")),
    "deblur": (_run_deblur, ("prior", "noise", "operator")),
    "certificate-suite": (_run_certificate_suite, ("prior", "noise")),
}


def run_experiment(command: str, cfg: Config, out: str | None, seed_override: int | None) -> int:
    kind = cfg.get("experiment", "kind", _parse_str)
    if kind is not None:
        normalized = kind.lower().replace("_", "-")
        if normalized not in _EXPERIMENTS:
            raise ConfigError(f"experiment.kind: unknown experiment {kind!r}")
        if normalized != command:
            raise ConfigError(
                f"experiment.kind is {kind!r} but the {command!r} subcommand was invoked"
            )
    runner, sections = _EXPERIMENTS[command]
    for section in sections:
        cfg.require_section(section)
    seed = _seed_from(cfg, seed_override)
    prefix = _out_prefix(cfg, out)
    return runner(cfg, prefix, seed)


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
        p.add_argument("--seed", type=int, default=None, help="seed (overrides [experiment] seed)")
    args = parser.parse_args(argv)

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
