"""Gaussian-smoothed marginal of a mixture prior.

For a prior density p_X and noise level sigma2, the marginal is the
convolution p_Z = p_X * N(0, sigma2).  This module evaluates the negative
log marginal f_Z = -log p_Z together with its first two derivatives.  All
three quantities are produced by one shared evaluation pass so that they
are mutually consistent; downstream identities (denoiser inversion, the
envelope reconstruction of the regularizer) are sensitive to mixed
accuracy between f_Z and its derivatives.

Each component kind has one exact formula for its convolved density q_i,
its slope q_i'/q_i and its curvature (log q_i)'':

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

Three passes share the log terms and the log-sum-exp, and each returns
the same bits as the matching output of the full pass:

* ``scalar_f`` returns ``(f_Z, f_Z', f_Z'')``, for Newton in the
  denoiser's inversion;
* ``scalar_value`` returns ``f_Z`` alone and skips the ratio rows, for
  callers that read only the value (the Moreau envelope searches, the
  explicit route, the anchor constant);
* ``scalar_score`` returns ``f_Z'`` alone and skips ``log(norm)`` and the
  curvature rows, for the denoiser's forward map.

Each pass owns its temporaries and never writes into its input: the shared
steps run in place on arrays the pass allocated itself (the Gaussian rows,
the shifted exponentials, the responsibilities), in the same operation
order as the out-of-place formulas, so no digit depends on which pass ran.
On 65536 points of a two-component prior the peaks are 6 input-sized
arrays for ``scalar_score``, 4 for ``scalar_value`` and 9 for
``scalar_f``.
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
        # The prior's own s_i^2 is kept for preimage_bracket: var_i - sigma2
        # would cancel when s_i << sigma.
        gauss = prior._gauss
        logw = np.log(prior._w)
        self._gaussian = None
        if gauss.any():
            s2 = (prior._sc[gauss] ** 2)[:, None]
            var = s2 + noise.sigma2
            lognorm = logw[gauss][:, None] - 0.5 * (_LOG_2PI + np.log(var))
            self._gaussian = (lognorm, prior._mu[gauss][:, None], var)
            self._gaussian_s2 = s2
        self._laplace = [(logw[i], prior._mu[i], prior._sc[i]) for i in np.flatnonzero(~gauss)]

    @property
    def sigma2(self) -> float:
        return self.noise.sigma2

    # -- shared evaluation passes -------------------------------------------

    def scalar_f(self, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Elementwise ``(f_Z, f_Z', f_Z'')`` on an array of any shape."""
        zs, flat = self._flatten(zs)
        terms, blocks = self._log_terms(flat)
        m, norm = self._exp_shifted(terms)
        resp = terms
        resp /= norm
        f = self._value(m, norm)
        slopes = [slope_rows() for slope_rows, _ in blocks]
        curves = [curve_rows(s) for (_, curve_rows), s in zip(blocks, slopes)]
        slope, curve = _stack(slopes), _stack(curves)
        s1 = (slope * resp).sum(axis=0)
        # f_Z'' = -sum r_i ((log q_i)'' + (s_i - s1)^2).  No term grows with
        # the slope itself, whereas sum r_i q_i''/q_i - s1^2 subtracts two
        # squares of it (~1e13 for a narrow Gaussian at y ~ 1e6) and cancels.
        slope -= s1
        np.square(slope, out=slope)
        slope += curve
        slope *= resp
        f2 = slope.sum(axis=0)
        np.negative(f2, out=f2)
        return f.reshape(zs.shape), np.negative(s1).reshape(zs.shape), f2.reshape(zs.shape)

    def scalar_value(self, zs) -> np.ndarray:
        """Elementwise ``f_Z`` alone, equal to ``scalar_f(zs)[0]`` bit for bit.

        The same log terms and log-sum-exp as ``scalar_f``, without the
        ratio rows that only the derivatives need.
        """
        zs, flat = self._flatten(zs)
        terms = self._log_terms(flat)[0]
        return self._value(*self._exp_shifted(terms)).reshape(zs.shape)

    def scalar_score(self, zs) -> np.ndarray:
        """Elementwise ``f_Z'`` alone, equal to ``scalar_f(zs)[1]`` bit for bit.

        The same log terms, log-sum-exp and slope rows as ``scalar_f``,
        without ``log(norm)`` and the curvature rows.
        """
        zs, flat = self._flatten(zs)
        terms, blocks = self._log_terms(flat)
        norm = self._exp_shifted(terms)[1]
        resp = terms
        resp /= norm
        resp *= _stack([slope_rows() for slope_rows, _ in blocks])
        s1 = resp.sum(axis=0)
        return np.negative(s1, out=s1).reshape(zs.shape)

    def preimage_bracket(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise ``(lo, hi)`` with ``D(lo) <= x <= D(hi)`` for the
        denoiser ``D(y) = y - sigma2 * f_Z'(y)``.

        ``D`` is the responsibility-weighted mean of the per-component
        posterior means, each increasing in y: ``a*y + (1 - a)*mu`` with
        ``a = s^2/(s^2 + sigma2)`` for a Gaussian component, and within
        ``sigma2/b`` of y for a Laplace one, since ``|(log q)'| <= 1/b``.
        So ``D(y) >= x`` once every component mean is, and ``D(y) <= x``
        once none exceeds it: the bracket runs from the least to the
        greatest of the per-component preimages, the Gaussian
        ``(x*(s^2 + sigma2) - sigma2*mu)/s^2`` and the Laplace
        ``x -/+ sigma2/b``.  It is widened by a rounding allowance, since a
        single Gaussian collapses it onto one float.
        """
        xs, flat = self._flatten(xs)
        ends = []
        if self._gaussian is not None:
            _, mu, var = self._gaussian
            ends.extend((flat * var - self.sigma2 * mu) / self._gaussian_s2)
        for _, _, b in self._laplace:
            ends.extend((flat - self.sigma2 / b, flat + self.sigma2 / b))
        lo, hi = np.min(ends, axis=0), np.max(ends, axis=0)
        pad = 1e-8 * (np.maximum(np.abs(lo), np.abs(hi)) + np.sqrt(self.sigma2))
        return (lo - pad).reshape(xs.shape), (hi + pad).reshape(xs.shape)

    @staticmethod
    def _flatten(zs) -> tuple[np.ndarray, np.ndarray]:
        zs = np.asarray(zs, dtype=float)
        if not np.all(np.isfinite(zs)):
            raise ValueError("evaluation point must be finite")
        return zs, zs.reshape(-1)

    def _log_terms(self, flat):
        """Rows ``log w_i + log q_i``, shape ``(K, n)``, Gaussian components
        first, then each Laplace component in prior order, in a fresh array
        the caller owns; and, per block of rows, a pair of callables
        ``(slope, curve)``.  ``slope()`` returns the block's ``q_i'/q_i``
        rows and may be called once; ``curve(s)`` returns its
        ``(log q_i)''`` rows given those slope rows ``s``.  Both reuse the
        intermediates already computed."""
        blocks = []
        if self._gaussian is not None:
            blocks.append(self._gaussian_components(flat, *self._gaussian))
        for logw, mu, b in self._laplace:
            blocks.append(self._laplace_component(flat, logw, mu, b))
        return _stack([terms for terms, _ in blocks]), [ratios for _, ratios in blocks]

    @staticmethod
    def _exp_shifted(terms):
        """The log-sum-exp, in place: turns the rows into the unnormalized
        responsibilities ``exp(terms - m)`` and returns the column max ``m``
        and the column sums ``norm``, so that ``f_Z = -(m + log(norm))``."""
        m = terms.max(axis=0)
        terms -= m
        np.exp(terms, out=terms)
        return m, terms.sum(axis=0)

    @staticmethod
    def _value(m, norm):
        """``f_Z = -(m + log(norm))``, computed over ``norm``."""
        f = np.log(norm, out=norm)
        f += m
        return np.negative(f, out=f)

    @staticmethod
    def _gaussian_components(zs, lognorm, mu, var):
        """Closed-form convolution of Gaussian components, one row each:
        each is again Gaussian, with variance ``scale**2 + sigma2``."""
        dev = zs - mu
        terms = np.square(dev)
        terms *= 0.5
        terms /= var
        np.subtract(lognorm, terms, out=terms)

        def slope():
            # -dev / var, written over dev (nothing else reads it).
            np.negative(dev, out=dev)
            return np.divide(dev, var, out=dev)

        def curve(slope):
            return np.broadcast_to(-1.0 / var, slope.shape)

        return terms, (slope, curve)

    def _laplace_component(self, zs, logw, mu, b):
        """Kink-split convolution of one Laplace component (exact).

        Splitting ``int p_X(z - sigma*u) phi(u) du`` at the kink of p_X
        leaves two half-line Gaussian integrals:

            q(z) = e^(s2/(2 b^2)) / (2 b) * [ e^(-d/b) Phi((d - s2/b)/sigma)
                                            + e^(+d/b) Phi(-(d + s2/b)/sigma) ]

        with d = z - mu.  The Gaussian boundary terms of the two branch
        derivatives cancel, leaving q' = (L - R)/b and
        q''/q = (1 - N(d; 0, s2)/q)/b^2, so (log q)'' = q''/q - (q'/q)^2
        with |q'/q| <= 1/b.
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

        def slope():
            return ((el - er) / (b * (el + er)))[None, :]

        def curve(slope):
            log_gauss = -0.5 * (_LOG_2PI + np.log(self.sigma2)) - 0.5 * d**2 / self.sigma2
            return (1.0 - np.exp(log_gauss - logq)) / b**2 - slope**2

        return (logw + logq)[None, :], (slope, curve)
