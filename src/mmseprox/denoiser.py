"""MMSE denoiser for Gaussian noise: the posterior mean E[X | Z = z].

Every map here acts elementwise on an array of any shape, one scalar
denoising problem per entry.  The primary evaluation route is the score
identity ``apply(z) = z - sigma2 * f_Z'(z)``, on the marginal's score-only
pass, which shares every digit with its full evaluation pass.
``posterior_mean`` recomputes the same quantity from the Bayes integral
instead (exact component responsibilities for all-Gaussian priors, adaptive
quadrature otherwise) and exists so that the two independent routes can be
checked against each other.

``scalar_invert`` solves apply(y) = x for y.  The denoiser is strictly
increasing (its derivative is the posterior variance over sigma2), and the
marginal's ``preimage_bracket`` holds the preimage of every x, so a
safeguarded Newton iteration on that bracket converges wherever x lies in
the image.  It reports each residual and decides nothing: a point whose
residual stays large lies outside the image.
"""

from __future__ import annotations

import math

import numpy as np

from .marginal import Marginal
from .prior import ComponentKind

__all__ = ["Denoiser", "QuadratureError"]

# Newton steps of the inversion, the residual |apply(y) - x| at which a
# point counts as solved (and, in the regularizer, as inside the image),
# and the relative accuracy asked of each posterior-mean quadrature.
_NEWTON_MAX_ITERS = 100
INVERT_TOL = 1e-10
_QUAD_EPSREL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested accuracy."""


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
        out = self.marginal.scalar_score(zs)
        out *= self.sigma2
        return np.subtract(zs, out, out=out)

    def scalar_derivative(self, zs) -> np.ndarray:
        """Elementwise derivative, equal to Var(X | Z = z) / sigma2 >= 0."""
        zs = np.asarray(zs, dtype=float)
        return 1.0 - self.sigma2 * self.marginal.scalar_f(zs)[2]

    def apply(self, z):
        """Denoise ``z`` via the score route; a float for a scalar ``z``."""
        out = self.scalar_apply(z)
        return float(out) if out.ndim == 0 else out

    # -- Bayes-integral route --------------------------------------------------

    def posterior_mean(self, z):
        """E[X | Z = z] from the Bayes integral (no score identity).

        All-Gaussian priors use exact component responsibilities; priors
        with Laplace components use adaptive quadrature of the posterior
        integral, normalized at its peak to keep the integrand O(1).
        """
        zs = np.asarray(z, dtype=float)
        if not np.all(np.isfinite(zs)):
            raise ValueError("evaluation point must be finite")
        flat = zs.reshape(-1)
        if self.marginal.prior.is_all_gaussian:
            out = self._posterior_mean_gaussian(flat)
        else:
            out = np.array([self._posterior_mean_quad(float(zi)) for zi in flat])
        return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

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

    def _posterior_mean_quad(self, z: float) -> float:
        """z + E[X - z | Z = z] by quadrature of the peak-normalized
        posterior integrand; the shift by z keeps the numerator well
        conditioned."""
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
        opts = dict(points=sorted(points), limit=400, epsabs=1e-12, epsrel=_QUAD_EPSREL)
        inv_2s2 = 1.0 / (2.0 * self.sigma2)

        def log_post_f(x: float) -> float:
            return prior._log_pdf_float(x) - (x - z) * (x - z) * inv_2s2

        den, den_err, *den_info = integrate.quad(
            lambda x: math.exp(log_post_f(x) - peak), lo, hi,
            full_output=1, **opts,
        )
        num, num_err, *num_info = integrate.quad(
            lambda x: (x - z) * math.exp(log_post_f(x) - peak), lo, hi,
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
        return z + num / den

    # -- inversion ---------------------------------------------------------------

    def scalar_invert(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized inverse of the denoiser.

        Returns ``(preimages, residuals)``, each of the shape of ``xs``,
        with residual ``|apply(y) - x|``.  Newton starts from x clipped
        into the marginal's ``preimage_bracket``, and each f_Z pass shrinks
        the bracket to the side that holds the root.  A Newton step is
        taken only if it lands strictly inside the bracket and moves at
        most half its width; otherwise the bracket is bisected.  Each
        point is solved as if alone: it leaves the iteration once its
        residual is at most ``INVERT_TOL``, or after ``_NEWTON_MAX_ITERS``
        steps, with whatever residual it has then.
        """
        shape = np.shape(xs)
        xs = np.asarray(xs, dtype=float).reshape(-1)
        lo, hi = self.marginal.preimage_bracket(xs)
        y = np.clip(xs, lo, hi)

        # One f_Z pass per Newton step gives both the residual and the slope.
        preimages, residuals = np.empty_like(y), np.empty_like(y)
        rows = np.arange(y.size)
        for step in range(_NEWTON_MAX_ITERS + 1):
            _, f1, f2 = self.marginal.scalar_f(y)
            fy = (y - self.sigma2 * f1) - xs
            done = (np.abs(fy) <= INVERT_TOL) | (step == _NEWTON_MAX_ITERS)
            if done.any():
                preimages[rows[done]] = y[done]
                residuals[rows[done]] = np.abs(fy[done])
                y, fy, f2, lo, hi, xs, rows = (
                    z[~done] for z in (y, fy, f2, lo, hi, xs, rows)
                )
            if rows.size == 0:
                break
            # Shrink the bracket around the root first so both the Newton
            # safeguard and the bisection fallback see the current bracket.
            hi = np.where(fy > 0.0, y, hi)
            lo = np.where(fy <= 0.0, y, lo)
            dy = 1.0 - self.sigma2 * f2
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = y - fy / dy
            take = (newton > lo) & (newton < hi) & (np.abs(newton - y) <= 0.5 * (hi - lo))
            y = np.where(take, newton, 0.5 * (lo + hi))
        return preimages.reshape(shape), residuals.reshape(shape)
