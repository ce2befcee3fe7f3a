import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from mmseprox import Denoiser, Marginal, MixturePrior, NoiseModel, denoiser

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
    ys, res, ok = den.scalar_invert(xs)
    assert ok.all()
    assert res.max() <= 1e-10
    np.testing.assert_allclose(ys, zs, atol=1e-7)
    y, r, one_ok = den.scalar_invert(xs[3])
    assert y.shape == r.shape == one_ok.shape == ()
    assert one_ok and r <= 1e-10
    assert y == pytest.approx(zs[3], abs=1e-7)


def test_batch_inversion_solves_each_point_as_if_alone(monkeypatch):
    # A point leaves the Newton iteration once solved, so its preimage does
    # not depend on the batch, and the batch takes no more Newton passes
    # than its slowest point does alone.
    marg = make_marginal("gmix2", 1.0)
    den = Denoiser(marg)
    xs = np.linspace(-12.0, 12.0, 501)
    passes, bracket_passes = [], []
    scalar_f, scalar_apply = marg.scalar_f, den.scalar_apply

    def f_pass(zs):
        passes.append(zs)
        return scalar_f(zs)

    def bracket_pass(zs):  # one f_Z pass of the bracket expansion
        bracket_passes.append(zs)
        return scalar_apply(zs)

    monkeypatch.setattr(marg, "scalar_f", f_pass)
    monkeypatch.setattr(den, "scalar_apply", bracket_pass)
    ys, res, ok = den.scalar_invert(xs)
    batch_passes, expansion = len(passes), len(bracket_passes)
    assert ok.all() and res.max() <= 1e-10
    single_passes = []
    for i, x in enumerate(xs):
        passes.clear()
        y, r, _ = den.scalar_invert(np.array([x]))
        single_passes.append(len(passes))
        assert y[0] == ys[i] and r[0] == res[i], (float(x), float(y[0]), float(ys[i]))
    assert batch_passes <= max(single_passes) + expansion


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
    # Alone, the far target meets the absolute residual of the in-image test.
    _, r, one_ok = den.scalar_invert(1e7)
    assert one_ok and r <= denoiser.INVERT_TOL


def test_bracket_ends_are_evaluated_once(monkeypatch):
    # The start bracket x -+ 10 sigma already holds the preimage (D(y) =
    # y / 1.25), so inversion evaluates each bracket end once and every
    # later f_Z pass is a Newton step.  The bracket ends go through the
    # score-only pass and Newton through the full one; both are counted.
    marg = make_marginal("gauss1", 0.25)
    den = Denoiser(marg)
    seen = []

    def counting(name):
        evaluate = getattr(marg, name)

        def wrapped(zs):
            seen.append(np.array(zs, dtype=float))
            return evaluate(zs)

        return wrapped

    for name in ("scalar_f", "scalar_score"):
        monkeypatch.setattr(marg, name, counting(name))
    x = 0.3
    ys, res, ok = den.scalar_invert(np.array([x]))
    assert ok.all() and res[0] <= 1e-10
    assert ys[0] == pytest.approx(1.25 * x, rel=1e-12)
    sigma = np.sqrt(marg.sigma2)
    ends = [x - 10.0 * sigma, x + 10.0 * sigma]
    assert [float(z[0]) for z in seen[:2]] == ends
    newton = seen[2:]
    assert newton and not any(float(z[0]) in ends for z in newton)


def test_separable_apply_matches_scalar():
    # dimension shapes only a prior sample: apply is elementwise on any shape.
    prior = make_prior("gmix2", dimension=3)
    den = Denoiser(Marginal(prior, NoiseModel(0.25)))
    scalar_den = Denoiser(make_marginal("gmix2", 0.25))
    z = np.array([[-2.2, 0.1, 1.9], [0.4, -0.7, 3.0]])
    assert np.array_equal(den.apply(z), scalar_den.scalar_apply(z))
    assert np.array_equal(den.apply(z[0, :2]), scalar_den.scalar_apply(z[0, :2]))
    assert type(den.apply(1.3)) is float
    assert den.apply(1.3) == scalar_den.scalar_apply(np.array([1.3]))[0]
    with pytest.raises(ValueError):
        den.apply(np.array([0.0, np.inf]))


@pytest.mark.parametrize("name", ["gmix2", "laplace1"])
def test_posterior_mean_is_elementwise_and_rejects_non_finite(name):
    den = Denoiser(make_marginal(name, 0.25))
    z = np.array([[-2.2, 0.1], [1.9, 0.4]])
    pointwise = np.array([den.posterior_mean(float(v)) for v in z.reshape(-1)])
    assert np.array_equal(den.posterior_mean(z), pointwise.reshape(z.shape))
    assert type(den.posterior_mean(0.4)) is float
    for bad in (np.nan, np.array([0.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            den.posterior_mean(bad)


def test_posterior_mean_far_tail_laplace():
    den = Denoiser(make_marginal("laplace1", 0.25))
    # far in the tail the Laplace score is exactly 1/b, so psi(z) = z - sigma2
    assert den.apply(40.0) == pytest.approx(40.0 - 0.25, abs=1e-9)


def test_scalar_apply_leaves_its_input_unchanged(marginal_case):
    _, _, marg = marginal_case
    den = Denoiser(marg)
    for zs in (np.linspace(-40.0, 40.0, 801), np.linspace(-3.0, 3.0, 12).reshape(3, 4),
               np.array(0.4)):
        before = zs.copy()
        out = den.scalar_apply(zs)
        assert np.array_equal(zs, before)
        assert out.shape == zs.shape and not np.shares_memory(out, zs)


def test_scalar_apply_allocation_peak():
    # D needs only f_Z', so its pass keeps a few input-sized temporaries;
    # the full (f, f', f'') route it replaced peaked at 17 of them on this
    # input.  A byte count, unlike a timing, is the same on every run.
    den = Denoiser(make_marginal("gmix2", 0.04))
    zs = np.random.default_rng(0).standard_normal(65536) * 3.0
    den.scalar_apply(zs)
    tracemalloc.start()
    try:
        den.scalar_apply(zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * zs.nbytes, peak / zs.nbytes
