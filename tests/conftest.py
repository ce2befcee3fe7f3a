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
    """Noisy marginal of the two-point prior (mass 1/2 at -a and +a, with
    a = ``half_gap``; unit noise), in closed form:

        f_Z(z) = (z^2 + a^2)/2 + log(2 pi)/2 - log cosh(a z)

    Its denoiser is a tanh(a z), so the denoiser image is the open interval
    (-a, a) -- the only fixture here with a bounded image.  Here a = 1; a
    subclass may squeeze the image by setting a smaller ``half_gap``.
    """

    sigma2 = 1.0
    half_gap = 1.0

    @classmethod
    def scalar_f(cls, zs):
        a = cls.half_gap
        zs = np.asarray(zs, dtype=float)
        az = a * zs
        t = np.tanh(az)
        # log cosh without overflow: |u| + log1p(exp(-2|u|)) - log 2
        logcosh = np.abs(az) + np.log1p(np.exp(-2.0 * np.abs(az))) - np.log(2.0)
        f = 0.5 * (zs**2 + a * a) + 0.5 * np.log(2.0 * np.pi) - logcosh
        return f, zs - a * t, (1.0 - a * a) + a * a * t**2

    @classmethod
    def preimage_bracket(cls, xs):
        # artanh(x/a)/a with x clipped just inside the image, widened by 1
        # each way; a target off the image keeps a residual of at least |x| - a.
        a = cls.half_gap
        u = np.clip(np.asarray(xs, dtype=float) / a, -1.0 + 1e-12, 1.0 - 1e-12)
        y = np.arctanh(u) / a
        return y - 1.0, y + 1.0

    @classmethod
    def scalar_value(cls, zs):
        return cls.scalar_f(zs)[0]

    @classmethod
    def scalar_score(cls, zs):
        return cls.scalar_f(zs)[1]


@pytest.fixture
def two_point_denoiser() -> Denoiser:
    return Denoiser(TwoPointMarginal())
