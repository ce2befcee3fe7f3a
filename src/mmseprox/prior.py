"""Finite scalar mixtures of Gaussian and Laplace components.

A prior is a distribution on the real line.  Its density and every
quantity derived from it act elementwise, so an array of any shape is a
point of the i.i.d. product prior, one coordinate per entry; ``dimension``
only sets the shape of a :meth:`MixturePrior.sample`.  All density work is
done in log space with max-subtracted log-sum-exp so that evaluations stay
finite far into the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = ["ComponentKind", "MixtureComponent", "MixturePrior"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class ComponentKind(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component.

    ``scale`` is the standard deviation for Gaussian components and the
    diversity parameter ``b`` for Laplace components (whose standard
    deviation is ``b * sqrt(2)``).  Scales must be strictly positive:
    point masses are not representable.
    """

    kind: ComponentKind
    location: float
    scale: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "kind", ComponentKind(self.kind))
        if not np.isfinite(self.location):
            raise ValueError("component location must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"component scale must be finite and > 0, got {self.scale!r}")
        if not (np.isfinite(self.weight) and 0.0 < self.weight <= 1.0):
            raise ValueError(f"component weight must lie in (0, 1], got {self.weight!r}")

    @property
    def variance(self) -> float:
        if self.kind is ComponentKind.GAUSSIAN:
            return self.scale**2
        return 2.0 * self.scale**2


@dataclass(frozen=True)
class MixturePrior:
    """Mixture of Gaussian/Laplace components.

    Parameters
    ----------
    components:
        Non-empty sequence of :class:`MixtureComponent` whose weights sum
        to one (within 1e-12).
    dimension:
        ``None`` to draw scalars; an integer ``n >= 1`` to draw vectors of
        ``n`` i.i.d. coordinates from :meth:`sample`.
    """

    components: tuple[MixtureComponent, ...]
    dimension: int | None = None
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _mu: np.ndarray = field(init=False, repr=False, compare=False)
    _sc: np.ndarray = field(init=False, repr=False, compare=False)
    _gauss: np.ndarray = field(init=False, repr=False, compare=False)
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        object.__setattr__(self, "components", comps)
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        if self.dimension is not None:
            n = int(self.dimension)
            if n < 1:
                raise ValueError(f"dimension must be >= 1, got {self.dimension!r}")
            object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "_w", np.array([c.weight for c in comps]))
        object.__setattr__(self, "_mu", np.array([c.location for c in comps]))
        object.__setattr__(self, "_sc", np.array([c.scale for c in comps]))
        object.__setattr__(
            self, "_gauss", np.array([c.kind is ComponentKind.GAUSSIAN for c in comps])
        )
        flat = tuple(
            (
                math.log(c.weight)
                - (
                    0.5 * _LOG_2PI + math.log(c.scale)
                    if c.kind is ComponentKind.GAUSSIAN
                    else math.log(2.0 * c.scale)
                ),
                c.kind is ComponentKind.GAUSSIAN,
                c.location,
                c.scale,
            )
            for c in comps
        )
        object.__setattr__(self, "_flat", flat)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        kinds: Sequence[str | ComponentKind],
        weights: Sequence[float],
        locations: Sequence[float],
        scales: Sequence[float],
        dimension: int | None = None,
    ) -> "MixturePrior":
        if not (len(kinds) == len(weights) == len(locations) == len(scales)):
            raise ValueError("kinds, weights, locations, scales must have equal length")
        comps = tuple(
            MixtureComponent(ComponentKind(k), float(m), float(s), float(w))
            for k, w, m, s in zip(kinds, weights, locations, scales)
        )
        return cls(comps, dimension)

    # -- basic facts -------------------------------------------------------

    @property
    def is_all_gaussian(self) -> bool:
        return bool(self._gauss.all())

    @property
    def mean(self) -> float:
        """Mean of the scalar mixture."""
        return float(self._w @ self._mu)

    @property
    def variance(self) -> float:
        """Variance of the scalar mixture."""
        second = self._w @ (self._mu**2 + np.array([c.variance for c in self.components]))
        return float(second - self.mean**2)

    # -- scalar-mixture evaluation (vectorized helpers) --------------------

    def _log_terms(self, xs: np.ndarray) -> np.ndarray:
        """Per-component log densities plus log-weights, shape (..., K)."""
        x = xs[..., None]
        mu, sc, w = self._mu, self._sc, self._w
        dev = x - mu
        gauss = np.log(w) - 0.5 * _LOG_2PI - np.log(sc) - 0.5 * (dev / sc) ** 2
        lap = np.log(w) - np.log(2.0 * sc) - np.abs(dev) / sc
        return np.where(self._gauss, gauss, lap)

    def scalar_log_pdf(self, xs) -> np.ndarray:
        """Elementwise log density of the scalar mixture."""
        xs = np.asarray(xs, dtype=float)
        terms = self._log_terms(xs)
        m = terms.max(axis=-1)
        return m + np.log(np.exp(terms - m[..., None]).sum(axis=-1))

    def _log_pdf_float(self, x: float) -> float:
        """Same log density for one plain float.

        Adaptive quadrature evaluates its integrand point by point; going
        through the ndarray path there costs ~10x in overhead.
        """
        terms = [
            const - 0.5 * ((x - mu) / sc) ** 2 if gauss else const - abs(x - mu) / sc
            for const, gauss, mu, sc in self._flat
        ]
        m = max(terms)
        return m + math.log(math.fsum(math.exp(t - m) for t in terms))

    # -- sampling ----------------------------------------------------------

    def sample(self, n_samples: int, seed) -> np.ndarray:
        """Draw ``n_samples`` i.i.d. points; deterministic given ``seed``.

        Returns shape ``(n_samples,)`` when ``dimension`` is ``None`` and
        ``(n_samples, dimension)`` otherwise.  Each draw picks a
        component from the categorical weight vector, then applies the
        component's location-scale map to a standard draw.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        shape = (n_samples,) if self.dimension is None else (n_samples, self.dimension)
        idx = rng.choice(len(self.components), size=shape, p=self._w)
        std_gauss = rng.standard_normal(shape)
        std_lap = rng.laplace(0.0, 1.0, shape)
        std = np.where(self._gauss[idx], std_gauss, std_lap)
        return self._mu[idx] + self._sc[idx] * std
