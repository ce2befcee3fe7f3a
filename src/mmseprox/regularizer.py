"""The regularizer implicitly defined by the MMSE denoiser.

The prior is separable, so the regularizer is too: phi(x) = sum_i phi(x_i),
and every map here acts on each coordinate.  Two independent evaluation
routes are provided.  The explicit route inverts the denoiser and evaluates

    phi(x) = -1/2 (y - x)^2 + sigma2 * f_Z(y),   y = apply^{-1}(x),

which is finite exactly on the image of the denoiser (+inf elsewhere).
The envelope route evaluates

    phi(x) = sigma2 * U(x) - sigma2 * c,

where U is the upper Moreau envelope of the marginal negative log density
at parameter sigma2 and c is the anchor constant (analytically zero; kept
as an honestly computed quantity so the identity is tested, not assumed).
The two routes agree on the image of the denoiser; the envelope route is
additionally finite off-image whenever the envelope objective is bounded,
which is what makes it usable as a solver objective (``phi_total``).

Weak-convexity certification has one rule, ``certify_weak_convexity``:
the smallest central second difference of f + x^2/2 over a uniform grid.
The verdict is the ``weak_convexity`` gate row's (``cli._CERTIFICATES``):
it must be >= -CONVEXITY_TOL.  The regularizer applies the rule to the
envelope route on the in-image part of a grid; any plain callable can be
passed too, so a known-nonconvex control can be shown to fail.
"""

from __future__ import annotations

import math

import numpy as np

from . import moreau
from .denoiser import INVERT_TOL, Denoiser
from .textio import csv_text, write_text

__all__ = [
    "Regularizer",
    "certify_weak_convexity",
]

# Anchor point of the constant c, and how far below zero a second
# difference of phi + x^2/2 may sit and still certify.
_ANCHOR = 0.0
CONVEXITY_TOL = 1e-5


def _check_uniform_grid(grid: np.ndarray) -> float:
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("grid must be strictly increasing and uniformly spaced")
    return h


def certify_weak_convexity(eval_fn, grid) -> float:
    """Min central second difference of eval_fn + x^2/2 on a uniform grid;
    1-weak convexity certifies, up to rounding, iff it is >= -CONVEXITY_TOL."""
    grid = np.asarray(grid, dtype=float)
    h = _check_uniform_grid(grid)
    g = np.asarray(eval_fn(grid), dtype=float) + 0.5 * grid**2
    return float(((g[:-2] - 2.0 * g[1:-1] + g[2:]) / h**2).min())


class Regularizer:
    """Evaluates the denoiser-implied regularizer by both routes.

    The anchor constant ``c_anchor`` is computed eagerly at construction at
    the anchor point 0; ``c_constant`` recomputes it at any other anchor so
    anchor independence can be checked.
    """

    def __init__(self, denoiser: Denoiser):
        self.denoiser = denoiser
        self.marginal = denoiser.marginal
        self.c_anchor = self.c_constant(_ANCHOR)

    # -- anchor constant ---------------------------------------------------------

    def c_constant(self, anchor: float) -> float:
        """The anchor constant computed at ``anchor``."""
        x0arr = np.array([float(anchor)])
        psi0 = float(self.denoiser.scalar_apply(x0arr)[0])
        value, in_image = self.phi_explicit_profile(psi0)
        if not in_image.all() or not np.isfinite(value).all():
            raise ValueError(
                f"anchor {anchor!r}: inversion failed at its denoised value {psi0!r}; "
                "choose an anchor inside the support of the model"
            )
        moreau_at_anchor = float(value[0]) + 0.5 * (psi0 - float(anchor)) ** 2
        f0 = float(self.marginal.scalar_value(x0arr)[0])
        return f0 - moreau_at_anchor / self.marginal.sigma2

    # -- explicit route ----------------------------------------------------------

    def _invert(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Preimages under the denoiser and the flags of the points in its
        image: those whose residual reaches ``INVERT_TOL``."""
        ys, res = self.denoiser.scalar_invert(xs)
        return ys, res <= INVERT_TOL

    def phi_explicit_profile(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per-point explicit values (+inf off the image) and in-image flags."""
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys, in_image = self._invert(xs)
        fz = self.marginal.scalar_value(ys)
        vals = -0.5 * (ys - xs) ** 2 + self.marginal.sigma2 * fz
        return np.where(in_image, vals, np.inf), in_image

    # -- envelope route ----------------------------------------------------------

    def phi_envelope_profile(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per-point envelope values and envelope maximizers over a grid.

        The search reads f_Z values alone and never inverts the denoiser;
        on the image of the denoiser the maximizer is its preimage.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        sigma2 = self.marginal.sigma2
        vals, maximizers = moreau.upper_envelope_many(self.marginal.scalar_value, sigma2, xs)
        return sigma2 * vals - sigma2 * self.c_anchor, maximizers

    def phi_total(self, x) -> float:
        """Envelope-route phi summed over the coordinates of ``x``, the
        solver objective term."""
        return float(self.phi_envelope_profile(x)[0].sum())

    # -- certification -----------------------------------------------------------

    def weak_convexity_certificate(self, grid) -> float:
        """``certify_weak_convexity`` of the envelope-route phi on the
        in-image part of a uniform grid; phi is evaluated there only, so
        a grid may reach past a bounded image."""
        grid = np.asarray(grid, dtype=float)
        _check_uniform_grid(grid)
        _, in_image = self._invert(grid)
        idx = np.flatnonzero(in_image)
        if idx.size < 3:
            raise ValueError("fewer than 3 in-image grid points; widen or recenter the grid")
        if np.any(np.diff(idx) != 1):
            raise ValueError("in-image grid points are not contiguous; the grid straddles the image boundary irregularly")
        return certify_weak_convexity(lambda xs: self.phi_envelope_profile(xs)[0], grid[idx])

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
        text = csv_text(
            "x,f_X,f_Z,phi_explicit,phi_envelope,in_image",
            (xs, f_x, f_z, explicit, envelope, in_image),
        )
        write_text(destination, text)
