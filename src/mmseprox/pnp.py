"""Plug-and-play proximal gradient solver with convergence diagnostics.

One iteration is x_{k+1} = apply(x_k - grad(x_k)) with the denoiser as the
proximal step (implicit step size 1), which requires the fidelity gradient
to be L-Lipschitz with L < 1.  Alongside the iterates the solver records,
per step k:

  objective_F   value of the composite objective at x_k
                (fidelity + summed envelope-route regularizer)
  residual      ||(x_k - x_{k+1}) + grad(x_{k+1}) - grad(x_k)||, an upper
                bound on the distance from 0 to the composite objective's
                subdifferential at x_{k+1}
  best_residual running minimum of residual
  descent_slack F(x_k) - F(x_{k+1}) - (1-L)/2 * step_norm^2, which the
                descent inequality keeps nonnegative up to rounding
  step_norm     ||x_k - x_{k+1}||

``rate_certificate`` checks the nonasymptotic bound: for every k, the best
residual seen through step k is at most C sqrt(F(x_1) - F*) / sqrt(k) with
C = (1 + L) / sqrt((1 - L)/2) and F* the smallest recorded objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .operators import Fidelity
from .regularizer import Regularizer
from .textio import csv_text, write_text

__all__ = [
    "Init",
    "SolverConfig",
    "IterRecord",
    "SolverTrace",
    "RateCertificate",
    "DivergenceError",
    "run",
    "descent_check",
    "rate_certificate",
    "psnr",
    "write_trace_csv",
]


# Absolute slack added to every rate bound, so rounding cannot flag a violation.
_RATE_TOL = 1e-9


class Init(str, Enum):
    ZEROS = "zeros"
    OBSERVATION = "observation"
    ADJOINT_OBSERVATION = "adjoint_observation"


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 50
    init: Init = Init.ZEROS
    record_objective: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class IterRecord:
    k: int
    objective_F: float
    residual: float
    best_residual: float
    descent_slack: float
    step_norm: float


@dataclass
class SolverTrace:
    records: list[IterRecord]
    iterates: list[np.ndarray] = field(repr=False)
    final_x: np.ndarray = field(repr=False)
    final_objective: float
    lipschitz: float


@dataclass(frozen=True)
class RateCertificate:
    C: float
    F1: float
    Fstar_estimate: float
    violations: tuple[int, ...]


class DivergenceError(RuntimeError):
    """An iterate went non-finite; carries the trace accumulated so far."""

    def __init__(self, message: str, trace: SolverTrace):
        super().__init__(message)
        self.trace = trace


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by numpy's own pairwise sum.  BLAS nrm2 splits long
    vectors across threads, so its last digits depend on the thread count."""
    return math.sqrt(float(np.add.reduce(v * v)))


def _initial_point(fid: Fidelity, init: Init) -> np.ndarray:
    if init == Init.ZEROS:
        return np.zeros(fid.op.input_size)
    if init == Init.OBSERVATION:
        return fid.y.copy()
    if init == Init.ADJOINT_OBSERVATION:
        return fid.op.adjoint(fid.y)
    raise ValueError(f"unknown init {init!r}")


def run(fid: Fidelity, reg: Regularizer, cfg: SolverConfig) -> SolverTrace:
    """Iterate the scheme from cfg.init for cfg.max_iters steps, with
    ``reg.denoiser`` as the proximal step, recording each step.

    Without recorded objectives F is NaN, and so is every descent slack.
    """
    L = fid.lipschitz()
    if not L < 1.0:
        raise ValueError(
            f"fidelity Lipschitz constant is {L!r}; the scheme requires L < 1 "
            "(rescale the fidelity, e.g. Fidelity.auto)"
        )

    def objective(x: np.ndarray) -> float:
        if not cfg.record_objective:
            return math.nan
        return fid.value(x) + reg.phi_total(x)

    x = _initial_point(fid, cfg.init)
    # Every x here is a fresh array that nothing writes into, so the
    # iterates are kept without copies.
    iterates = [x]
    records: list[IterRecord] = []
    F = objective(x)
    best = math.inf

    g = fid.grad(x)
    for k in range(1, cfg.max_iters + 1):
        x_next = reg.denoiser.apply(x - g)
        if not np.isfinite(x_next).all():
            raise DivergenceError(
                f"iterate {k} is non-finite",
                SolverTrace(records, iterates, iterates[-1], float(F), float(L)),
            )
        g_next = fid.grad(x_next)
        diff = x - x_next
        step = _norm(diff)
        diff += g_next
        diff -= g
        res = _norm(diff)
        F_next = objective(x_next)
        best = min(best, res)
        records.append(
            IterRecord(
                k=k,
                objective_F=F,
                residual=res,
                best_residual=best,
                descent_slack=F - F_next - 0.5 * (1.0 - L) * step**2,
                step_norm=step,
            )
        )
        x, g, F = x_next, g_next, F_next
        iterates.append(x)

    return SolverTrace(records, iterates, iterates[-1], float(F), float(L))


def descent_check(trace: SolverTrace) -> list[float]:
    """Per-step descent slacks; raises if objectives were not recorded."""
    if any(math.isnan(r.descent_slack) for r in trace.records):
        raise ValueError("objectives were not recorded; rerun with record_objective=True")
    return [r.descent_slack for r in trace.records]


def rate_certificate(trace: SolverTrace) -> RateCertificate:
    """Check the k^{-1/2} residual bound along a recorded trace."""
    K = len(trace.records)
    if K < 10:
        raise ValueError(f"trace has only {K} records; need at least 10")
    if any(math.isnan(r.objective_F) for r in trace.records) or math.isnan(trace.final_objective):
        raise ValueError("objectives were not recorded; rerun with record_objective=True")
    L = trace.lipschitz
    C = (1.0 + L) / math.sqrt((1.0 - L) / 2.0)
    F1 = trace.records[0].objective_F
    Fstar = min(min(r.objective_F for r in trace.records), trace.final_objective)
    gap = math.sqrt(max(F1 - Fstar, 0.0))
    violations = tuple(
        k
        for k, r in enumerate(trace.records, 1)
        if r.best_residual > C * gap / math.sqrt(k) + _RATE_TOL
    )
    return RateCertificate(C=C, F1=F1, Fstar_estimate=Fstar, violations=violations)


def psnr(x, truth) -> float:
    """Peak signal-to-noise ratio in dB against a known clean signal (peak: its max)."""
    x = np.asarray(x, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if x.shape != truth.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {truth.shape}")
    peak = float(truth.max())
    mse = float(np.mean((x - truth) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def write_trace_csv(trace: SolverTrace, destination, truth) -> None:
    """Emit the trace; the psnr against the clean signal ``truth`` at row k
    is measured on the iterate the step started from."""
    fields = ("k", "objective_F", "residual", "best_residual", "descent_slack", "step_norm")
    columns = [[getattr(rec, name) for rec in trace.records] for name in fields]
    columns.append([psnr(trace.iterates[rec.k - 1], truth) for rec in trace.records])
    write_text(destination, csv_text("k,F,residual,best_residual,descent_slack,step_norm,psnr", columns))
