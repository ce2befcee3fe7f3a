"""Shared fixtures: the three scalar priors used across the suite, both
noise levels, a Laplace+Gaussian prior that only the marginal cases use,
and an analytic two-point marginal whose denoiser image is a bounded
interval (the mixture priors all have image = R, so boundary behavior
needs this extra fixture)."""

from __future__ import annotations

import numpy as np
import pytest

from mmseprox import ComponentKind, Denoiser, Marginal, MixturePrior, NoiseModel

FIXTURE_NAMES = ("gauss1", "gmix2", "laplace1")
SIGMA2S = (0.25, 1.0)
# Marginal cases add a mixed-kind prior, so both component formulas are
# exercised inside one mixture.
MARGINAL_NAMES = FIXTURE_NAMES + ("lapgauss",)


def make_prior(name: str, dimension: int | None = None) -> MixturePrior:
    if name == "gauss1":
        return MixturePrior.gaussian(0.0, 1.0, dimension=dimension)
    if name == "gmix2":
        return MixturePrior.from_arrays(
            kinds=[ComponentKind.GAUSSIAN, ComponentKind.GAUSSIAN],
            weights=[0.5, 0.5],
            locations=[-2.0, 2.0],
            scales=[0.5, 0.5],
            dimension=dimension,
        )
    if name == "laplace1":
        return MixturePrior.laplace(0.0, 1.0, dimension=dimension)
    if name == "lapgauss":
        return MixturePrior.from_arrays(
            kinds=[ComponentKind.LAPLACE, ComponentKind.GAUSSIAN],
            weights=[0.4, 0.6],
            locations=[-1.0, 1.5],
            scales=[0.5, 0.7],
            dimension=dimension,
        )
    raise ValueError(name)


def make_marginal(name: str, sigma2: float) -> Marginal:
    return Marginal(make_prior(name), NoiseModel(sigma2))


@pytest.fixture(params=FIXTURE_NAMES)
def prior_name(request) -> str:
    return request.param


@pytest.fixture(
    params=[(n, s2) for n in MARGINAL_NAMES for s2 in SIGMA2S],
    ids=[f"{n}-s{s2}" for n in MARGINAL_NAMES for s2 in SIGMA2S],
)
def marginal_case(request):
    name, sigma2 = request.param
    return name, sigma2, make_marginal(name, sigma2)


class TwoPointMarginal:
    """Noisy marginal of the two-point prior (mass 1/2 at -1 and +1, unit
    noise), in closed form:

        f_Z(z) = (z^2 + 1)/2 + log(2 pi)/2 - log cosh(z)

    Its denoiser is tanh, so the denoiser image is the open interval
    (-1, 1) -- the only fixture here with a bounded image.
    """

    sigma2 = 1.0

    @staticmethod
    def scalar_f(zs):
        zs = np.asarray(zs, dtype=float)
        t = np.tanh(zs)
        # log cosh without overflow: |z| + log1p(exp(-2|z|)) - log 2
        logcosh = np.abs(zs) + np.log1p(np.exp(-2.0 * np.abs(zs))) - np.log(2.0)
        f = 0.5 * (zs**2 + 1.0) + 0.5 * np.log(2.0 * np.pi) - logcosh
        return f, zs - t, t**2

    @classmethod
    def scalar_value(cls, zs):
        return cls.scalar_f(zs)[0]


@pytest.fixture
def two_point_denoiser() -> Denoiser:
    return Denoiser(TwoPointMarginal())
