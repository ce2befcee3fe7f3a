"""MMSE denoiser for Gaussian noise: the posterior mean E[X | Z = z].

The primary evaluation route is the score identity
``apply(z) = z - sigma2 * grad_f_z(z)``, which shares every digit with the
marginal's evaluation pass.  ``posterior_mean`` recomputes the same
quantity from the Bayes integral instead (exact component responsibilities
for all-Gaussian priors, adaptive quadrature otherwise) and exists so that
the two independent routes can be checked against each other.

``invert`` solves apply(y) = x for y.  The denoiser is strictly increasing
coordinatewise (its derivative is the posterior variance over sigma2), so
a bracket plus safeguarded Newton always converges when x lies in the
image; bracket expansion failure is how points outside the image are
detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginal import Marginal
from .prior import ComponentKind

__all__ = ["Denoiser", "InversionResult", "QuadratureError"]

# Bracket expansion gives up once the bracket is this many times
# max(sigma, |x|) away from the target x; beyond it the target is treated
# as outside the image of the denoiser.  Scaling with |x| keeps far targets
# of a denoiser whose image is R (D(y) ~ c*y with c < 1) inside it.
_BRACKET_HORIZON = 1e6


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested accuracy."""


@dataclass(frozen=True)
class InversionResult:
    """Solution of apply(preimage) = x.

    ``residual`` is the largest coordinatewise |apply(preimage) - x|;
    ``in_image`` reports whether every coordinate was bracketed and solved
    to tolerance.
    """

    preimage: float | np.ndarray
    residual: float
    in_image: bool


class Denoiser:
    """Posterior-mean denoiser attached to a :class:`Marginal`."""

    def __init__(self, marginal: Marginal):
        self.marginal = marginal

    @property
    def sigma2(self) -> float:
        return self.marginal.sigma2

    # -- forward map ---------------------------------------------------------

    def scalar_apply(self, zs) -> np.ndarray:
        """Elementwise denoiser on raw coordinate arrays."""
        zs = np.asarray(zs, dtype=float)
        return zs - self.sigma2 * self.marginal.scalar_f(zs)[1]

    def scalar_derivative(self, zs) -> np.ndarray:
        """Elementwise derivative, equal to Var(X | Z = z) / sigma2 >= 0."""
        zs = np.asarray(zs, dtype=float)
        return 1.0 - self.sigma2 * self.marginal.scalar_f(zs)[2]

    def apply(self, z):
        """Denoise ``z`` via the score route (float in scalar mode)."""
        arr, scalar = self.marginal._check_point(z)
        out = self.scalar_apply(arr)
        return float(out) if scalar else out

    def jacobian(self, z):
        """Jacobian of ``apply``: a float in scalar mode; the diagonal
        vector of the (diagonal) Jacobian in separable mode."""
        arr, scalar = self.marginal._check_point(z)
        out = self.scalar_derivative(arr)
        return float(out) if scalar else out

    # -- Bayes-integral route --------------------------------------------------

    def posterior_mean(self, z):
        """E[X | Z = z] from the Bayes integral (no score identity).

        All-Gaussian priors use exact component responsibilities; priors
        with Laplace components use adaptive quadrature of the posterior
        integral, normalized at its peak to keep the integrand O(1).
        """
        arr, scalar = self.marginal._check_point(z)
        flat = np.atleast_1d(arr)
        prior = self.marginal.prior
        if prior.is_all_gaussian:
            out = self._posterior_mean_gaussian(flat)
        else:
            out = np.array([self._posterior_mean_quad(float(zi)) for zi in flat])
        return float(out[0]) if scalar else out

    def _posterior_mean_gaussian(self, zs: np.ndarray) -> np.ndarray:
        prior = self.marginal.prior
        s2 = self.sigma2
        var = prior._sc**2 + s2
        dev = zs[:, None] - prior._mu
        terms = np.log(prior._w) - 0.5 * np.log(var) - 0.5 * dev**2 / var
        m = terms.max(axis=1, keepdims=True)
        resp = np.exp(terms - m)
        resp /= resp.sum(axis=1, keepdims=True)
        comp_mean = (prior._sc**2 * zs[:, None] + s2 * prior._mu) / var
        return (resp * comp_mean).sum(axis=1)

    def _posterior_integrals(self, z: float, shifted: bool, epsrel: float = 1e-10):
        """Quadrature of the posterior integrand, peak-normalized.

        Returns (numerator, denominator) where the numerator weight is
        (x - z) when ``shifted`` (for conditioning) and x otherwise.
        """
        from scipy import integrate  # only priors with Laplace components get here

        prior = self.marginal.prior
        sigma = np.sqrt(self.sigma2)
        kinks = sorted(
            {c.location for c in prior.components if c.kind is ComponentKind.LAPLACE}
        )
        lo = min(z - 14.0 * sigma, min(c.location - 60.0 * c.scale for c in prior.components))
        hi = max(z + 14.0 * sigma, max(c.location + 60.0 * c.scale for c in prior.components))

        def log_post(x):
            return prior.scalar_log_pdf(x) - (x - z) ** 2 / (2.0 * self.sigma2)

        probe = np.unique(np.concatenate([np.linspace(lo, hi, 4097), kinks, [z]]))
        peak = float(log_post(probe).max())

        points = [p for p in {*kinks, z} if lo < p < hi]
        opts = dict(points=sorted(points), limit=400, epsabs=1e-12, epsrel=epsrel)
        inv_2s2 = 1.0 / (2.0 * self.sigma2)

        def log_post_f(x: float) -> float:
            return prior._log_pdf_float(x) - (x - z) * (x - z) * inv_2s2

        def weight(x: float) -> float:
            return (x - z) if shifted else x

        den, den_err, *den_info = integrate.quad(
            lambda x: math.exp(log_post_f(x) - peak), lo, hi,
            full_output=1, **opts,
        )
        num, num_err, *num_info = integrate.quad(
            lambda x: weight(x) * math.exp(log_post_f(x) - peak), lo, hi,
            full_output=1, **opts,
        )
        for label, err, info, ref in (("denominator", den_err, den_info, den),
                                      ("numerator", num_err, num_info, num)):
            if len(info) > 1 or not np.isfinite(err) or err > 1e-8 * max(1.0, abs(ref)):
                raise QuadratureError(
                    f"posterior-mean quadrature did not converge at z={z!r}: "
                    f"{label} estimate {ref!r} with error bound {err!r}"
                    + (f"; {info[1]}" if len(info) > 1 else "")
                )
        return num, den

    def _posterior_mean_quad(self, z: float) -> float:
        num, den = self._posterior_integrals(z, shifted=True)
        return z + num / den

    # -- inversion ---------------------------------------------------------------

    def scalar_invert(
        self, xs, tol: float = 1e-10, max_iters: int = 100
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized inverse of the scalar denoiser.

        Returns ``(preimages, residuals, bracketed)``.  Coordinates whose
        bracket cannot be expanded to contain ``x`` within the horizon are
        reported unbracketed; their preimage is the best bracket endpoint.
        """
        xs = np.asarray(xs, dtype=float).copy()
        sigma = np.sqrt(self.sigma2)
        lo = xs - 10.0 * sigma
        hi = xs + 10.0 * sigma
        horizon = _BRACKET_HORIZON * np.maximum(sigma, np.abs(xs))

        # Geometric bracket expansion; apply() is increasing, so only the
        # side whose value has the wrong sign needs to grow.
        for _ in range(64):
            need_lo = self.scalar_apply(lo) > xs
            need_lo &= (xs - lo) < horizon
            need_hi = self.scalar_apply(hi) < xs
            need_hi &= (hi - xs) < horizon
            if not (need_lo.any() or need_hi.any()):
                break
            lo = np.where(need_lo, xs - 2.0 * (xs - lo), lo)
            hi = np.where(need_hi, xs + 2.0 * (hi - xs), hi)
        bracketed = (self.scalar_apply(lo) <= xs) & (self.scalar_apply(hi) >= xs)

        # One f_Z pass per Newton step gives both the residual and the slope.
        y = 0.5 * (lo + hi)
        _, f1, f2 = self.marginal.scalar_f(y)
        fy = (y - self.sigma2 * f1) - xs
        for _ in range(max_iters):
            if np.all(np.abs(fy) <= tol):
                break
            # Shrink the bracket around the root first so both the Newton
            # safeguard and the bisection fallback see the current bracket.
            hi = np.where(fy > 0.0, y, hi)
            lo = np.where(fy <= 0.0, y, lo)
            dy = 1.0 - self.sigma2 * f2
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = y - fy / dy
            inside = (newton > lo) & (newton < hi) & np.isfinite(newton)
            y = np.where(inside, newton, 0.5 * (lo + hi))
            _, f1, f2 = self.marginal.scalar_f(y)
            fy = (y - self.sigma2 * f1) - xs
        residuals = np.abs(fy)
        return y, residuals, bracketed

    def invert(self, x, tol: float = 1e-10) -> InversionResult:
        """Solve apply(preimage) = x with a bracketed safeguarded Newton."""
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be > 0, got {tol!r}")
        arr, scalar = self.marginal._check_point(x)
        ys, res, ok = self.scalar_invert(np.atleast_1d(arr), tol=tol)
        in_image = bool(ok.all() and (res <= tol).all())
        if scalar:
            return InversionResult(float(ys[0]), float(res[0]), in_image)
        return InversionResult(ys, float(res.max()), in_image)
