import numpy as np
import pytest
from scipy.special import roots_legendre

from mmseprox import Denoiser, Marginal, MixturePrior, NoiseModel

from conftest import make_marginal, make_prior
from test_marginal import ORACLE, ORACLE_ZS


def test_apply_and_posterior_mean_match_oracle(marginal_case):
    name, sigma2, marg = marginal_case
    den = Denoiser(marg)
    for z in ORACLE_ZS:
        _, ef1, _, epm = ORACLE[(name, sigma2, float(z))]
        # score route: z - sigma2 * f'
        assert den.apply(float(z)) == pytest.approx(float(z) - sigma2 * ef1, abs=1e-10)
        # Bayes-integral route, independent of the score identity
        assert den.posterior_mean(float(z)) == pytest.approx(epm, abs=1e-8)


def test_two_routes_agree_on_grid(marginal_case):
    name, _, marg = marginal_case
    den = Denoiser(marg)
    zs = np.linspace(-7.5, 7.5, 101)
    tweedie = den.scalar_apply(zs)
    oracle = np.array([den.posterior_mean(float(z)) for z in zs])
    tol = 1e-8 if name != "laplace1" else 1e-6
    np.testing.assert_allclose(tweedie, oracle, atol=tol)


def test_posterior_mean_gauss_legendre_cross_check():
    # Independent fixed-rule integral of the Bayes quotient for the Laplace
    # prior: 400-node Gauss-Legendre on each side of the density kink.
    marg = make_marginal("laplace1", 1.0)
    den = Denoiser(marg)
    nodes, weights = roots_legendre(400)

    def post_mean(z):
        num = den_sum = 0.0
        for a, b in ((-40.0, 0.0), (0.0, 40.0)):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            joint = np.exp(-np.abs(x)) / 2 * np.exp(-0.5 * (z - x) ** 2) / np.sqrt(2 * np.pi)
            num += float((w * x * joint).sum())
            den_sum += float((w * joint).sum())
        return num / den_sum

    for z in (-2.7, -0.3, 0.8, 3.4):
        assert den.posterior_mean(z) == pytest.approx(post_mean(z), abs=1e-8)


def test_derivative_positive_and_matches_difference(marginal_case):
    _, _, marg = marginal_case
    den = Denoiser(marg)
    zs = np.linspace(-6, 6, 41)
    d = den.scalar_derivative(zs)
    assert np.all(d > 0)  # strictly increasing denoiser
    h = 1e-6
    fd = (den.scalar_apply(zs + h) - den.scalar_apply(zs - h)) / (2 * h)
    np.testing.assert_allclose(d, fd, rtol=1e-5, atol=1e-7)


def test_denoising_reduces_error(marginal_case):
    _, sigma2, marg = marginal_case
    den = Denoiser(marg)
    rng = np.random.default_rng(11)
    x = marg.prior.sample(4000, seed=5)
    z = x + np.sqrt(sigma2) * rng.standard_normal(x.shape)
    mse_noisy = np.mean((z - x) ** 2)
    mse_denoised = np.mean((den.scalar_apply(z) - x) ** 2)
    assert mse_denoised < mse_noisy


def test_inversion_round_trip(marginal_case):
    _, _, marg = marginal_case
    den = Denoiser(marg)
    zs = np.linspace(-8, 8, 33)
    xs = den.scalar_apply(zs)
    ys, res, ok = den.scalar_invert(xs, tol=1e-10)
    assert ok.all()
    assert res.max() <= 1e-10
    np.testing.assert_allclose(ys, zs, atol=1e-7)
    result = den.invert(float(xs[3]))
    assert result.in_image
    assert result.preimage == pytest.approx(zs[3], abs=1e-7)


def test_two_point_denoiser_is_tanh(two_point_denoiser):
    den = two_point_denoiser
    zs = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(den.scalar_apply(zs), np.tanh(zs), atol=1e-14)
    np.testing.assert_allclose(den.scalar_derivative(zs), 1 / np.cosh(zs) ** 2, atol=1e-14)


def test_two_point_image_is_bounded(two_point_denoiser):
    den = two_point_denoiser
    inside = den.scalar_invert(np.array([0.5]))
    assert inside[2].all()
    assert inside[0][0] == pytest.approx(np.arctanh(0.5), abs=1e-8)
    ys, res, ok = den.scalar_invert(np.array([1.5, -1.01, -1.5]))
    assert not ok.any()  # outside the image (-1, 1): no preimage exists


def test_far_targets_of_an_unbounded_image_are_bracketed():
    # D(y) = y / 1.04 maps onto R, so every target has a preimage, however
    # many noise standard deviations (here 0.2) away from 0 it lies.
    den = Denoiser(Marginal(MixturePrior.gaussian(0.0, 1.0), NoiseModel(0.04)))
    xs = np.array([1e7, -1e9])
    ys, res, ok = den.scalar_invert(xs)
    assert ok.all()
    assert np.all(res <= 1e-10 * np.abs(xs))
    np.testing.assert_allclose(ys, 1.04 * xs, rtol=1e-12)
    assert den.invert(1e7).in_image


def test_invert_rejects_bad_tolerance():
    den = Denoiser(make_marginal("gauss1", 1.0))
    with pytest.raises(ValueError):
        den.invert(0.5, tol=0.0)


def test_separable_apply_matches_scalar():
    prior = make_prior("gmix2", dimension=3)
    den = Denoiser(Marginal(prior, NoiseModel(0.25)))
    scalar_den = Denoiser(make_marginal("gmix2", 0.25))
    z = np.array([-2.2, 0.1, 1.9])
    np.testing.assert_allclose(den.apply(z), scalar_den.scalar_apply(z), rtol=1e-14)
    np.testing.assert_allclose(den.jacobian(z), scalar_den.scalar_derivative(z), rtol=1e-14)
    with pytest.raises(ValueError):
        den.apply(np.zeros(2))


def test_posterior_mean_far_tail_laplace():
    den = Denoiser(make_marginal("laplace1", 0.25))
    # far in the tail the Laplace score is exactly 1/b, so psi(z) = z - sigma2
    assert den.apply(40.0) == pytest.approx(40.0 - 0.25, abs=1e-9)
