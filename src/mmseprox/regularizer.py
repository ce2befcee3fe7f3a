"""The regularizer implicitly defined by the MMSE denoiser.

Two independent evaluation routes are provided.  The explicit route
inverts the denoiser and evaluates

    phi_explicit(x) = -1/2 ||y - x||^2 + sigma2 * f_Z(y),   y = apply^{-1}(x),

which is finite exactly on the image of the denoiser (+inf elsewhere).
The envelope route evaluates

    phi_envelope(x) = sigma2 * U(x) - sigma2 * c,

where U is the upper Moreau envelope of the marginal negative log density
at parameter sigma2 and c is the anchor constant (analytically zero; kept
as an honestly computed quantity so the identity is tested, not assumed).
The two routes agree on the image of the denoiser; the envelope route is
additionally finite off-image whenever the envelope objective is bounded,
which is what makes it usable as a solver objective.

Weak-convexity certification works on second differences of phi + x^2/2
over a uniform grid; the same machinery is exposed for raw callables so a
known-nonconvex control can be shown to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import moreau
from .denoiser import Denoiser
from .textio import fmt17, fmt_bool, write_text

__all__ = [
    "Route",
    "PhiValue",
    "CertificateReport",
    "Regularizer",
    "second_difference_report",
    "certify_weak_convexity",
]

# Anchor point of the constant c, and the residual below which an inverted
# point counts as inside the image of the denoiser.
_ANCHOR = 0.0
_INVERT_TOL = 1e-10


class Route(str, Enum):
    EXPLICIT = "explicit"
    ENVELOPE = "envelope"


@dataclass(frozen=True)
class PhiValue:
    """A regularizer evaluation: value, which route produced it, and
    whether the point lies in the image of the denoiser."""

    value: float
    route: Route
    in_image: bool


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a second-difference weak-convexity check."""

    passed: bool
    min_second_difference: float
    points_used: int
    spacing: float


def _as_coords(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"expected a scalar or 1-D coordinate vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _check_uniform_grid(grid: np.ndarray) -> float:
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("grid must be strictly increasing and uniformly spaced")
    return h


def second_difference_report(values, spacing: float, tol: float = 1e-5) -> CertificateReport:
    """Min central second difference of ``values`` on a uniform grid; PASS iff >= -tol."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError("need at least 3 grid values for a second difference")
    second = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / spacing**2
    worst = float(second.min())
    return CertificateReport(
        passed=bool(worst >= -tol),
        min_second_difference=worst,
        points_used=int(values.size),
        spacing=float(spacing),
    )


def certify_weak_convexity(eval_fn, grid, tol: float = 1e-5) -> CertificateReport:
    """Certify 1-weak convexity of a raw scalar callable on a uniform grid."""
    grid = np.asarray(grid, dtype=float)
    h = _check_uniform_grid(grid)
    g = np.asarray(eval_fn(grid), dtype=float) + 0.5 * grid**2
    return second_difference_report(g, h, tol)


class Regularizer:
    """Evaluates the denoiser-implied regularizer by both routes.

    The anchor constant is computed eagerly at construction at the anchor
    point 0; ``c_constant`` recomputes it at any other anchor so anchor
    independence can be checked.
    """

    def __init__(self, denoiser: Denoiser):
        self.denoiser = denoiser
        self.marginal = denoiser.marginal
        self.c_anchor = self._c_at(_ANCHOR)

    # -- anchor constant ---------------------------------------------------------

    def _c_at(self, x0: float) -> float:
        sigma2 = self.marginal.sigma2
        x0arr = np.array([float(x0)])
        psi0 = float(self.denoiser.scalar_apply(x0arr)[0])
        value, in_image = self._explicit_values(np.array([psi0]))
        if not in_image.all() or not np.isfinite(value).all():
            raise ValueError(
                f"anchor {x0!r}: inversion failed at its denoised value {psi0!r}; "
                "choose an anchor inside the support of the model"
            )
        moreau_at_anchor = float(value[0]) + 0.5 * (psi0 - float(x0)) ** 2
        f0 = float(self.marginal.scalar_value(x0arr)[0])
        return f0 - moreau_at_anchor / sigma2

    def c_constant(self, anchor: float | None = None) -> float:
        """Anchor constant; pass a different anchor to check independence."""
        if anchor is None:
            return self.c_anchor
        return self._c_at(anchor)

    # -- explicit route ----------------------------------------------------------

    def _explicit_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ys, res, ok = self.denoiser.scalar_invert(xs, tol=_INVERT_TOL)
        in_image = ok & (res <= _INVERT_TOL)
        fz = self.marginal.scalar_value(ys)
        vals = -0.5 * (ys - xs) ** 2 + self.marginal.sigma2 * fz
        vals = np.where(in_image, vals, np.inf)
        return vals, in_image

    def phi_explicit(self, x) -> PhiValue:
        """Regularizer via denoiser inversion; +inf outside the image."""
        xs, _ = _as_coords(x)
        vals, in_image = self._explicit_values(xs)
        if not in_image.all():
            return PhiValue(math.inf, Route.EXPLICIT, False)
        return PhiValue(float(vals.sum()), Route.EXPLICIT, True)

    def phi_explicit_profile(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per-point explicit values and in-image flags over a grid."""
        xs = np.asarray(xs, dtype=float).reshape(-1)
        return self._explicit_values(xs)

    # -- envelope route ----------------------------------------------------------

    def _envelope_values(self, xs: np.ndarray, seeds=None) -> np.ndarray:
        sigma2 = self.marginal.sigma2
        vals, _ = moreau.upper_envelope_many(self.marginal.scalar_value, sigma2, xs, seeds=seeds)
        return sigma2 * vals - sigma2 * self.c_anchor

    def phi_envelope(self, x) -> PhiValue:
        """Regularizer via the upper envelope of the marginal; finite
        wherever the envelope objective is bounded, including off-image."""
        xs, _ = _as_coords(x)
        vals, in_image = self.phi_envelope_profile(xs)
        return PhiValue(float(vals.sum()), Route.ENVELOPE, bool(in_image.all()))

    def phi_envelope_profile(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per-point envelope values and in-image flags over a grid."""
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys, res, ok = self.denoiser.scalar_invert(xs, tol=_INVERT_TOL)
        in_image = ok & (res <= _INVERT_TOL)
        seeds = np.where(in_image, ys, np.nan)
        return self._envelope_values(xs, seeds=seeds), in_image

    def phi_total(self, x) -> float:
        """Summed envelope-route value, the solver objective term.

        Skips inversion entirely: no seeds, no image flags — the envelope
        search stands on its own here.
        """
        xs, _ = _as_coords(x)
        return float(self._envelope_values(xs).sum())

    # -- certification -----------------------------------------------------------

    def weak_convexity_certificate(self, grid, tol: float = 1e-5) -> CertificateReport:
        """Second differences of phi_envelope + x^2/2 on the in-image part
        of a uniform grid; PASS iff the minimum is >= -tol."""
        grid = np.asarray(grid, dtype=float)
        h = _check_uniform_grid(grid)
        vals, in_image = self.phi_envelope_profile(grid)
        idx = np.flatnonzero(in_image)
        if idx.size < 3:
            raise ValueError("fewer than 3 in-image grid points; widen or recenter the grid")
        if np.any(np.diff(idx) != 1):
            raise ValueError("in-image grid points are not contiguous; the grid straddles the image boundary irregularly")
        g = vals[idx] + 0.5 * grid[idx] ** 2
        return second_difference_report(g, h, tol)

    # -- grids and emission --------------------------------------------------------

    def default_grid(self, points: int = 401, half_width_scales: float = 6.0) -> np.ndarray:
        """Uniform grid centered on the prior mean, spanning +/- the given
        number of combined (prior + noise) standard deviations."""
        prior = self.marginal.prior
        center = float(prior.mean)
        scale = math.sqrt(float(prior.variance) + self.marginal.sigma2)
        half = half_width_scales * scale
        return np.linspace(center - half, center + half, int(points))

    def write_curves_csv(self, xs, destination) -> None:
        """Emit the recovery curves: x, f_X, f_Z, phi_explicit, phi_envelope, in_image."""
        xs = np.asarray(xs, dtype=float).reshape(-1)
        f_x = -np.asarray(self.marginal.prior.scalar_log_pdf(xs))
        f_z = self.marginal.scalar_value(xs)
        explicit, in_image = self.phi_explicit_profile(xs)
        envelope, _ = self.phi_envelope_profile(xs)
        lines = ["x,f_X,f_Z,phi_explicit,phi_envelope,in_image"]
        for i in range(xs.size):
            lines.append(
                ",".join(
                    (
                        fmt17(xs[i]),
                        fmt17(f_x[i]),
                        fmt17(f_z[i]),
                        fmt17(explicit[i]),
                        fmt17(envelope[i]),
                        fmt_bool(in_image[i]),
                    )
                )
            )
        write_text(destination, "\n".join(lines) + "\n")
