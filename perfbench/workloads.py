"""The three benchmark workloads: generated configs, work units and gates.

Each workload is one fresh process that runs one or more ``mmseprox``
experiments through ``mmseprox.cli.main`` on a config the benchmark writes
from its seed.  The gates read only the files the program wrote and reuse
the package's own thresholds and diagnostics (``pnp.rate_certificate``,
``pnp.psnr``), so a wrong output is counted as a failure, never as a fast
sample.  ``README.md`` beside this file says why each workload was chosen.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

GMIX2 = {"kinds": ["gaussian", "gaussian"], "weights": [0.5, 0.5],
         "locations": [-2.0, 2.0], "scales": [0.5, 0.5]}

BLUR_SIZE, BLUR_SIGMA2, MEASUREMENT_SIGMA2 = 3, 0.25, 0.04
# The -1e-9 max(1, |F|) descent floor of the package's own certificate suite.
DESCENT_FLOOR = 1e-9
MIN_PSNR_GAIN_DB = 2.0
EPS = 2.0**-52


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the experiment mmseprox.cli.main runs
    prior: dict
    sigma2: float
    side: int = 0  # deblur image side; 0 for workloads without a solve
    iters: int = 0
    record_objective: bool = False
    expected_spans: tuple[str, ...] = ()

    @property
    def work_units(self) -> int:
        """Pixel-iterations or certificates per execution."""
        if self.side:
            return self.side * self.side * self.iters
        return len(CERTIFICATES)

    def config(self, seed: int, prefix: str) -> str:
        p = self.prior
        lines = [
            "[experiment]",
            f"kind = {self.command}",
            f"seed = {seed}",
            "[prior]",
            "kinds = " + ", ".join(p["kinds"]),
            "weights = " + ", ".join(map(repr, p["weights"])),
            "locations = " + ", ".join(map(repr, p["locations"])),
            "scales = " + ", ".join(map(repr, p["scales"])),
            "[noise]",
            f"sigma2 = {self.sigma2!r}",
        ]
        if self.side:
            rows = ";".join(",".join(repr(float(v)) for v in row) for row in blur_kernel())
            lines += [
                "[operator]", "kind = conv2d", f"kernel = {rows}",
                f"height = {self.side}", f"width = {self.side}",
                f"measurement_sigma2 = {MEASUREMENT_SIGMA2!r}",
                "[solver]", f"max_iters = {self.iters}", "init = adjoint_observation",
                "lambda = auto", f"record_objective = {str(self.record_objective).lower()}",
            ]
        lines += ["[output]", f"prefix = {prefix}"]
        return "\n".join(lines) + "\n"

    def model_spec(self, seed: int) -> dict:
        """What the set-up probe builds: the same models the CLI builds."""
        return {"prior": self.prior, "sigma2": self.sigma2, "side": self.side,
                "blur": [BLUR_SIZE, BLUR_SIGMA2], "measurement_sigma2": MEASUREMENT_SIGMA2,
                "seed": seed}


def blur_kernel():
    from mmseprox.operators import gaussian_blur_kernel

    return gaussian_blur_kernel(BLUR_SIZE, BLUR_SIGMA2)


CERTIFICATES = ("envelope_gradient", "moreau_identity", "prox_consistency", "route_agreement",
                "sandwich", "solver_small", "tweedie_oracle", "weak_convexity")

_ENTRY = ("cli.main", "regularizer.init", "marginal.scalar_f", "denoiser.scalar_apply",
          "denoiser.scalar_invert", "textio.write_text")
_SOLVE = ("pnp.run", "denoiser.apply", "operators.grad", "operators.operator_norm",
          "fft.rfft2", "fft.irfft2")
_DEBLUR = _ENTRY + _SOLVE + ("pnp.write_trace_csv", "pnp.psnr")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("deblur-32-objective", "deblur", GMIX2, 0.04, side=32, iters=12,
                 record_objective=True,
                 expected_spans=_DEBLUR + ("regularizer.phi_total", "operators.value",
                                           "moreau.upper_envelope_many")),
        Workload("deblur-256-plain", "deblur", GMIX2, 0.04, side=256, iters=60,
                 expected_spans=_DEBLUR),
        Workload("certificates-gmix2", "certificate-suite", GMIX2, 1.0,
                 expected_spans=_ENTRY + _SOLVE + (
                     "regularizer.phi_explicit_profile", "regularizer.phi_envelope_profile",
                     "moreau.upper_envelope_many", "denoiser.posterior_mean",
                     "regularizer.phi_total", "operators.value", "moreau.lower_envelope_many",
                     "moreau.lower_envelope", "moreau.envelope_gradient")),
    )
}


def toy(w: Workload) -> Workload:
    """The same code paths at sizes that run in about a second each."""
    if w.side:
        # The plain solve needs more steps to shrink its residual tenfold.
        return dataclasses.replace(w, side=8, iters=12 if w.record_objective else 40)
    return w


# -- gates -------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _grid(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",").reshape(-1)


def check(w: Workload, out: Path, code: int) -> tuple[list[tuple[str, bool]], float]:
    """Gates on one execution's outputs, and its psnr_db figure.

    Any unreadable or missing output fails the gate that needed it.
    """
    gates = [("exit_0", code == 0)]
    try:
        if w.side:
            more, psnr_db = _check_deblur(w, out)
        else:
            more, psnr_db = _check_certificates(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return gates + [(f"outputs_readable ({type(exc).__name__}: {exc})", False)], math.nan
    return gates + more, psnr_db


def _check_deblur(w: Workload, out: Path):
    from mmseprox import pnp

    truth = _grid(out / "w_truth.csv")
    observation = _grid(out / "w_observation.csv")
    reconstruction = _grid(out / "w_reconstruction.csv")
    psnr_db = pnp.psnr(reconstruction, truth)
    gain = psnr_db - pnp.psnr(observation, truth)
    rows = _rows(out / "w_trace.csv")
    gates = [
        ("trace_rows", len(rows) == w.iters),
        ("psnr_gain", gain >= MIN_PSNR_GAIN_DB),
    ]
    if w.record_objective:
        F = [float(r["F"]) for r in rows]
        slack = [float(r["descent_slack"]) for r in rows]
        gates.append(("descent", all(
            s >= -DESCENT_FLOOR * max(1.0, abs(f)) for s, f in zip(slack, F))))
        certificate = pnp.rate_certificate(_trace_from_rows(rows))
        gates.append(("rate_certificate", not certificate.violations))
    else:
        best = [float(r["best_residual"]) for r in rows]
        gates.append(("residual_shrinks_10x", best[-1] <= best[0] / 10.0))
    return gates, psnr_db


def _trace_from_rows(rows):
    """Rebuild the solver trace from its CSV (17 significant digits round-trip).

    ``lambda = auto`` fixes L = 0.99; the last row's descent slack gives
    the objective at the final iterate.
    """
    from mmseprox import pnp

    L = 0.99
    records = [
        pnp.IterRecord(k=int(r["k"]), objective_F=float(r["F"]), residual=float(r["residual"]),
                       best_residual=float(r["best_residual"]),
                       descent_slack=float(r["descent_slack"]), step_norm=float(r["step_norm"]))
        for r in rows
    ]
    last = records[-1]
    final = last.objective_F - last.descent_slack - 0.5 * (1.0 - L) * last.step_norm**2
    return pnp.SolverTrace(records=records, iterates=[], final_x=None,
                           final_objective=final, lipschitz=L)


def _check_certificates(out: Path):
    report = {}
    for line in (out / "w_certificates.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    gates = [(f"certificate.{name}", report.get(name) == "PASS") for name in CERTIFICATES]
    gates.append(("overall_pass", report.get("overall") == "PASS"))
    # PSNR, with unit peak, of the numerical prox of phi against the denoiser.
    err = float(report["prox_consistency.max_abs_err"])
    return gates, -20.0 * math.log10(max(err, EPS))
