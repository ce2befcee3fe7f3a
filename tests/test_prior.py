import numpy as np
import pytest
from scipy import stats

from mmseprox import ComponentKind, MixtureComponent, MixturePrior

from conftest import make_prior


def test_component_validation():
    with pytest.raises(ValueError):
        MixtureComponent(ComponentKind.GAUSSIAN, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        MixtureComponent(ComponentKind.GAUSSIAN, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MixtureComponent(ComponentKind.GAUSSIAN, np.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        MixtureComponent(ComponentKind.GAUSSIAN, 0.0, 1.0, -0.5)


def test_mixture_validation():
    good = MixtureComponent(ComponentKind.GAUSSIAN, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        MixturePrior(())
    with pytest.raises(ValueError):  # weights must sum to 1
        MixturePrior((good, good, good))
    with pytest.raises(ValueError):
        MixturePrior((good, good), dimension=0)
    with pytest.raises(ValueError):
        MixturePrior.from_arrays(
            kinds=[ComponentKind.GAUSSIAN],
            weights=[0.5, 0.5],
            locations=[0.0, 1.0],
            scales=[1.0, 1.0],
        )


def test_moments():
    p = make_prior("gmix2")
    assert p.mean == pytest.approx(0.0, abs=1e-15)
    # E[X^2] = sum w_i (mu_i^2 + s_i^2) = 4 + 0.25
    assert p.variance == pytest.approx(4.25, abs=1e-12)
    lap = make_prior("laplace1")
    assert lap.mean == pytest.approx(0.0, abs=1e-15)
    assert lap.variance == pytest.approx(2.0, abs=1e-12)  # 2 b^2


def test_scalar_log_pdf_matches_direct_formulas():
    xs = np.array([-2.3, -0.4, 0.0, 1.7])
    gauss = make_prior("gauss1")
    expected = -0.5 * xs**2 - 0.5 * np.log(2 * np.pi)
    np.testing.assert_allclose(gauss.scalar_log_pdf(xs), expected, rtol=1e-14)

    lap = make_prior("laplace1")
    np.testing.assert_allclose(lap.scalar_log_pdf(xs), -np.abs(xs) - np.log(2.0), rtol=1e-14)

    mix = make_prior("gmix2")
    dens = 0.5 * stats.norm.pdf(xs, -2, 0.5) + 0.5 * stats.norm.pdf(xs, 2, 0.5)
    np.testing.assert_allclose(mix.scalar_log_pdf(xs), np.log(dens), rtol=1e-12)


def test_pdf_normalization(prior_name):
    p = make_prior(prior_name)
    grid = np.linspace(-40, 40, 200001)
    mass = np.trapezoid(np.exp(p.scalar_log_pdf(grid)), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)  # trapezoid kink error ~h^2


def test_sampling_matches_distribution(prior_name):
    p = make_prior(prior_name)
    n = 40000
    draws = p.sample(n, seed=7)
    assert draws.shape == (n,)
    if prior_name == "gauss1":
        cdf = stats.norm.cdf
    elif prior_name == "laplace1":
        cdf = stats.laplace.cdf
    else:
        cdf = lambda x: 0.5 * stats.norm.cdf(x, -2, 0.5) + 0.5 * stats.norm.cdf(x, 2, 0.5)
    stat = stats.kstest(draws, cdf).statistic
    assert stat <= 1.628 / np.sqrt(n)  # 1% critical value
    assert draws.mean() == pytest.approx(p.mean, abs=5 * np.sqrt(p.variance / n))


def test_sampling_is_seeded():
    p = make_prior("gmix2")
    np.testing.assert_array_equal(p.sample(100, seed=3), p.sample(100, seed=3))
    assert not np.array_equal(p.sample(100, seed=3), p.sample(100, seed=4))


def test_separable_mode():
    # dimension sets the shape of a sample and nothing else: one draw of
    # n coordinates is n scalar draws, bit for bit.
    p = make_prior("gmix2", dimension=5)
    draws = p.sample(3, seed=0)
    assert draws.shape == (3, 5)
    assert np.array_equal(p.scalar_log_pdf(draws), p.scalar_log_pdf(draws.reshape(-1)).reshape(3, 5))
    scalar = make_prior("gmix2")
    for seed in (0, 1, 7, 123):
        one = MixturePrior(scalar.components, dimension=144).sample(1, seed)
        assert np.array_equal(one, scalar.sample(144, seed)[None, :])
