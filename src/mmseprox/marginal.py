"""Gaussian-smoothed marginal of a mixture prior.

For a prior density p_X and noise level sigma2, the marginal is the
convolution p_Z = p_X * N(0, sigma2).  This module evaluates the negative
log marginal f_Z = -log p_Z together with its first two derivatives.  All
three quantities are produced by one shared evaluation pass so that they
are mutually consistent; downstream identities (denoiser inversion, the
envelope reconstruction of the regularizer) are sensitive to mixed
accuracy between f_Z and its derivatives.

Each component kind has one exact formula for its convolved density q_i
and the ratios q_i'/q_i, q_i''/q_i:

* Gaussian -- the convolution is again Gaussian, with variance
  ``scale**2 + sigma2``; all Gaussian components are evaluated together
  in one vectorized call.
* Laplace -- the integrand has a kink, which a plain quadrature rule
  resolves far too slowly (a Gauss-Hermite rule of order 200 leaves an
  error of ~1e-1 on the score).  Splitting the integral at the kink
  reduces each half to a Gaussian integral with an exact closed form in
  terms of the normal CDF (see ``_laplace_component``).

The per-component rows are then mixed by responsibility weights.
Everything is computed with max-subtracted log-sum-exp and the stable
``log_ndtr``, so tail evaluations degrade gracefully to the dominant
component instead of hitting 0/0.

Layout: the arrays are component-major, one row of length n per component
(shape ``(K, n)``), and every mixing sum runs over axis 0.  numpy reduces a
short inner axis (the ``(n, K)`` layout with K = 2) one tiny row at a time,
while a sum over rows is K - 1 elementwise passes over contiguous memory;
on 65536 points of a two-component prior the full pass is about 2.7 times
faster, and the value-only pass below about 5 times.  For K <= 7 the
additions happen in the same order either way, so the digits do not
depend on the layout; from eight rows on numpy's pairwise summation
regroups the sum, which moves the last bits only.

Two passes share the log terms and the log-sum-exp: ``scalar_f`` returns
``(f_Z, f_Z', f_Z'')``, and ``scalar_value`` returns ``f_Z`` alone and
skips the ratio rows, for callers that read only the value (the Moreau
envelope searches, the explicit route, the anchor constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prior import MixturePrior

__all__ = ["NoiseModel", "Marginal"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _stack(blocks):
    """Row blocks stacked on axis 0; a single block (the all-Gaussian hot
    path) is returned as is, without a copy."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian noise with variance ``sigma2 > 0``."""

    sigma2: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")


class Marginal:
    """Negative log density of Z = X + noise and its derivatives, exact
    for every Gaussian and Laplace component.

    Parameters
    ----------
    prior:
        The clean-signal mixture prior.
    noise:
        Gaussian :class:`NoiseModel`.
    """

    def __init__(self, prior: MixturePrior, noise: NoiseModel):
        self.prior = prior
        self.noise = noise
        # Per-kind constants, computed once: scalar_value and scalar_f run
        # ~1e5 times on small inputs in the certificate suite.  Gaussian
        # components are (K, 1) columns of (log w_i - log sqrt(2 pi var_i),
        # mu_i, var_i = s_i^2 + sigma2); Laplace ones (log w, mu, b).
        gauss = prior._gauss
        logw = np.log(prior._w)
        self._gaussian = None
        if gauss.any():
            var = (prior._sc[gauss] ** 2 + noise.sigma2)[:, None]
            lognorm = logw[gauss][:, None] - 0.5 * (_LOG_2PI + np.log(var))
            self._gaussian = (lognorm, prior._mu[gauss][:, None], var)
        self._laplace = [(logw[i], prior._mu[i], prior._sc[i]) for i in np.flatnonzero(~gauss)]

    @property
    def sigma2(self) -> float:
        return self.noise.sigma2

    # -- shared evaluation pass --------------------------------------------

    def scalar_f(self, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Elementwise ``(f_Z, f_Z', f_Z'')`` of the scalar marginal."""
        zs, flat = self._flatten(zs)
        terms, ratio_blocks = self._log_terms(flat)
        f, resp, norm = self._log_sum_exp(terms)
        slope, curve = (_stack(rows) for rows in zip(*(ratios() for ratios in ratio_blocks)))
        resp /= norm
        s1 = (resp * slope).sum(axis=0)
        s2 = (resp * curve).sum(axis=0)
        f1, f2 = -s1, -s2 + s1**2
        return f.reshape(zs.shape), f1.reshape(zs.shape), f2.reshape(zs.shape)

    def scalar_value(self, zs) -> np.ndarray:
        """Elementwise ``f_Z`` alone, equal to ``scalar_f(zs)[0]`` bit for bit.

        The same log terms and log-sum-exp as ``scalar_f``, without the
        ratio rows that only the derivatives need.
        """
        zs, flat = self._flatten(zs)
        terms, _ = self._log_terms(flat)
        return self._log_sum_exp(terms)[0].reshape(zs.shape)

    @staticmethod
    def _flatten(zs) -> tuple[np.ndarray, np.ndarray]:
        zs = np.asarray(zs, dtype=float)
        if not np.all(np.isfinite(zs)):
            raise ValueError("evaluation point must be finite")
        return zs, zs.reshape(-1)

    def _log_terms(self, flat):
        """Rows ``log w_i + log q_i``, shape ``(K, n)``, Gaussian components
        first, then each Laplace component in prior order; and, per block
        of rows, a callable returning that block's ``(q_i'/q_i, q_i''/q_i)``
        rows from the intermediates already computed."""
        blocks = []
        if self._gaussian is not None:
            blocks.append(self._gaussian_components(flat, *self._gaussian))
        for logw, mu, b in self._laplace:
            blocks.append(self._laplace_component(flat, logw, mu, b))
        return _stack([terms for terms, _ in blocks]), [ratios for _, ratios in blocks]

    @staticmethod
    def _log_sum_exp(terms):
        """``f_Z`` from the component rows, with the unnormalized
        responsibilities and their column sums for the derivatives."""
        m = terms.max(axis=0)
        resp = np.exp(terms - m)
        norm = resp.sum(axis=0)
        return -(m + np.log(norm)), resp, norm

    @staticmethod
    def _gaussian_components(zs, lognorm, mu, var):
        """Closed-form convolution of Gaussian components, one row each:
        each is again Gaussian, with variance ``scale**2 + sigma2``."""
        dev = zs - mu
        terms = lognorm - 0.5 * dev**2 / var

        def ratios():
            slope = -dev / var
            return slope, slope**2 - 1.0 / var

        return terms, ratios

    def _laplace_component(self, zs, logw, mu, b):
        """Kink-split convolution of one Laplace component (exact).

        Splitting ``int p_X(z - sigma*u) phi(u) du`` at the kink of p_X
        leaves two half-line Gaussian integrals:

            q(z) = e^(s2/(2 b^2)) / (2 b) * [ e^(-d/b) Phi((d - s2/b)/sigma)
                                            + e^(+d/b) Phi(-(d + s2/b)/sigma) ]

        with d = z - mu.  The Gaussian boundary terms of the two branch
        derivatives cancel, leaving q' = (L - R)/b and
        q''/q = (1 - N(d; 0, s2)/q)/b^2.
        """
        from scipy import special  # only Laplace components need it

        sigma = np.sqrt(self.sigma2)
        d = zs - mu
        base = self.sigma2 / (2.0 * b**2) - np.log(2.0 * b)
        log_r = base - d / b + special.log_ndtr((d - self.sigma2 / b) / sigma)
        log_l = base + d / b + special.log_ndtr(-(d + self.sigma2 / b) / sigma)
        m = np.maximum(log_r, log_l)
        er = np.exp(log_r - m)
        el = np.exp(log_l - m)
        logq = m + np.log(er + el)

        def ratios():
            r1 = (el - er) / (b * (el + er))
            log_gauss = -0.5 * (_LOG_2PI + np.log(self.sigma2)) - 0.5 * d**2 / self.sigma2
            r2 = (1.0 - np.exp(log_gauss - logq)) / b**2
            return r1[None, :], r2[None, :]

        return (logw + logq)[None, :], ratios

    # -- public contract -----------------------------------------------------

    def _check_point(self, z) -> tuple[np.ndarray, bool]:
        arr = np.asarray(z, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("evaluation point must be finite")
        if self.prior.dimension is None:
            if arr.ndim != 0:
                raise ValueError("scalar-mode marginal expects a scalar point")
            return arr, True
        if arr.shape != (self.prior.dimension,):
            raise ValueError(
                f"separable marginal expects a vector of length {self.prior.dimension}, "
                f"got shape {arr.shape}"
            )
        return arr, False

    def f_z(self, z) -> float:
        """Negative log marginal density (sum over coordinates)."""
        arr, _ = self._check_point(z)
        return float(self.scalar_value(arr).sum())

    def grad_f_z(self, z):
        """Gradient of f_Z: a float in scalar mode, a vector otherwise."""
        arr, scalar = self._check_point(z)
        g = self.scalar_f(arr)[1]
        return float(g) if scalar else g

    def hess_f_z(self, z):
        """Hessian of f_Z: a float in scalar mode; in separable mode the
        Hessian is diagonal and only the diagonal vector is returned."""
        arr, scalar = self._check_point(z)
        h = self.scalar_f(arr)[2]
        return float(h) if scalar else h
