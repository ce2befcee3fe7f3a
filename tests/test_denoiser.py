import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from mmseprox import Denoiser, Marginal, MixturePrior, NoiseModel, Regularizer, denoiser

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
    ys, res = den.scalar_invert(xs)
    assert res.max() <= 1e-10
    np.testing.assert_allclose(ys, zs, atol=1e-7)
    y, r = den.scalar_invert(xs[3])
    assert y.shape == r.shape == ()
    assert r <= 1e-10
    assert y == pytest.approx(zs[3], abs=1e-7)


def test_batch_inversion_solves_each_point_as_if_alone(monkeypatch):
    # A point leaves the Newton iteration once solved, so its preimage does
    # not depend on the batch, and the batch takes no more Newton passes
    # than its slowest point does alone.
    marg = make_marginal("gmix2", 1.0)
    den = Denoiser(marg)
    xs = np.linspace(-12.0, 12.0, 501)
    passes = []
    scalar_f = marg.scalar_f

    def f_pass(zs):
        passes.append(zs)
        return scalar_f(zs)

    monkeypatch.setattr(marg, "scalar_f", f_pass)
    ys, res = den.scalar_invert(xs)
    batch_passes = len(passes)
    assert res.max() <= 1e-10
    single_passes = []
    for i, x in enumerate(xs):
        passes.clear()
        y, r = den.scalar_invert(np.array([x]))
        single_passes.append(len(passes))
        assert y[0] == ys[i] and r[0] == res[i], (float(x), float(y[0]), float(ys[i]))
    assert batch_passes <= max(single_passes)


def test_two_point_denoiser_is_tanh(two_point_denoiser):
    den = two_point_denoiser
    zs = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(den.scalar_apply(zs), np.tanh(zs), atol=1e-14)
    np.testing.assert_allclose(den.scalar_derivative(zs), 1 / np.cosh(zs) ** 2, atol=1e-14)


def test_two_point_image_is_bounded(two_point_denoiser):
    den = two_point_denoiser
    inside = den.scalar_invert(np.array([0.5]))
    assert inside[1][0] <= denoiser.INVERT_TOL
    assert inside[0][0] == pytest.approx(np.arctanh(0.5), abs=1e-8)
    xs = np.array([1.5, -1.01, -1.5])
    ys, res = den.scalar_invert(xs)
    ok = res <= denoiser.INVERT_TOL
    assert not ok.any()  # outside the image (-1, 1): no preimage exists
    assert np.all(res >= np.abs(xs) - 1.0)


def test_far_targets_of_an_unbounded_image_are_bracketed():
    # D(y) = y / 1.04 maps onto R, so every target has a preimage, however
    # many noise standard deviations (here 0.2) away from 0 it lies.
    den = Denoiser(make_marginal("gauss1", 0.04))
    xs = np.array([1e7, -1e9])
    ys, res = den.scalar_invert(xs)
    assert np.all(res <= 1e-10 * np.abs(xs))
    np.testing.assert_allclose(ys, 1.04 * xs, rtol=1e-12)
    # Alone, the far target meets the absolute residual of the in-image test.
    _, r = den.scalar_invert(1e7)
    assert r <= denoiser.INVERT_TOL


def test_every_inversion_pass_is_a_newton_pass(monkeypatch):
    # The bracket comes from the prior, not from evaluating D, so inversion
    # never calls the score-only pass: its first full f_Z pass is at x
    # clipped into the bracket, and every pass is a Newton step.
    marg = make_marginal("gmix2", 1.0)
    den = Denoiser(marg)
    seen = {"scalar_f": [], "scalar_score": []}

    def counting(name):
        evaluate = getattr(marg, name)

        def wrapped(zs):
            seen[name].append(np.array(zs, dtype=float))
            return evaluate(zs)

        return wrapped

    for name in seen:
        monkeypatch.setattr(marg, name, counting(name))
    xs = np.array([-30.0, -2.0, 0.3, 1.7, 4.0])
    lo, hi = marg.preimage_bracket(xs)
    _, res = den.scalar_invert(xs)
    assert res.max() <= denoiser.INVERT_TOL
    assert seen["scalar_score"] == []
    assert np.array_equal(seen["scalar_f"][0], np.clip(xs, lo, hi))


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


# -- inversion on the prior's bracket -------------------------------------------

L, G = "laplace", "gaussian"


def mixture_denoiser(kinds, weights, locations, scales, sigma2) -> Denoiser:
    prior = MixturePrior.from_arrays(kinds, weights, locations, scales)
    return Denoiser(Marginal(prior, NoiseModel(sigma2)))


@pytest.mark.parametrize(
    "den, xs",
    [
        # Three Laplace components: undamped Newton steps oscillate inside
        # the bracket and stop at a residual of about 15.
        (mixture_denoiser([L, L, L], [0.927126, 0.038575, 0.034299],
                          [4.244512, 0.465662, -1.649057],
                          [1.095109, 0.646817, 23.389266], 88.646817), [-14.066046]),
        # A wide Laplace beside a narrow Gaussian.
        (mixture_denoiser([L, G], [0.083284, 0.916716], [-0.206738, -0.225829],
                          [32.554076, 0.27349], 77.700336), [15.42338]),
        # gmix2 at scale 1e-4: the preimages lie at 5e7 .. 4.8e9, about
        # x * sigma2 / s^2 from the origin.
        (mixture_denoiser([G, G], [0.5, 0.5], [-2.0, 2.0], [1e-4, 1e-4], 1.0),
         [2.5, 5.0, 50.0]),
    ],
    ids=["three-laplace", "laplace-gaussian", "gmix2-narrow"],
)
def test_hard_targets_are_solved_and_in_the_image(den, xs):
    xs = np.array(xs)
    _, res = den.scalar_invert(xs)
    assert res.max() <= denoiser.INVERT_TOL, res
    values, in_image = Regularizer(den).phi_explicit_profile(xs)
    assert in_image.all() and np.isfinite(values).all(), values


def test_three_laplace_explicit_route_meets_the_envelope_route():
    den = mixture_denoiser([L, L, L], [0.927126, 0.038575, 0.034299],
                           [4.244512, 0.465662, -1.649057],
                           [1.095109, 0.646817, 23.389266], 88.646817)
    reg = Regularizer(den)
    x = np.array([-14.066046])
    explicit, _ = reg.phi_explicit_profile(x)
    envelope, maximizer = reg.phi_envelope_profile(x)
    assert explicit[0] == pytest.approx(envelope[0], rel=1e-8)
    assert den.scalar_invert(x)[0][0] == pytest.approx(maximizer[0], rel=1e-6)


def test_derivative_does_not_cancel_in_the_tails():
    # D' = s^2/(s^2 + sigma2) for one Gaussian.  Far out the slope of f_Z is
    # ~2.4e6, so a curvature that subtracts two squares of it cancels.
    s2 = 0.0022**2
    den = mixture_denoiser([G], [1.0], [0.35], [0.0022], 1.21)
    np.testing.assert_allclose(den.scalar_derivative(np.array([2.9e6, -2.9e6])),
                               s2 / (s2 + 1.21), rtol=1e-9, atol=0.0)
    # Its preimage lies near -2.9e6: the residual stops at the eps*|y| floor
    # of y - sigma2*f_Z'(y).
    assert den.scalar_invert(-11.38)[1] <= 1e-8
    gauss1 = Denoiser(make_marginal("gauss1", 0.04))
    assert gauss1.scalar_derivative(1e6) == pytest.approx(1.0 / 1.04, rel=1e-14)


@pytest.mark.parametrize("scale, sigma2", [(1.0, 0.04), (1e-3, 1.0)])
def test_degenerate_bracket_still_solves(scale, sigma2):
    # A single Gaussian collapses the bracket onto the preimage; the
    # rounding allowance leaves Newton room to reach INVERT_TOL.
    den = mixture_denoiser([G], [1.0], [0.0], [scale], sigma2)
    _, res = den.scalar_invert(np.linspace(-1.0, 1.0, 2000))
    assert res.max() <= denoiser.INVERT_TOL


@pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("sigma2", [0.04, 1.0, 77.0])
def test_gaussian_bracket_holds_the_exact_preimage(ratio, sigma2):
    # The Gaussian end divides by the prior's own s^2: var - sigma2 would
    # lose ~eps * sigma2/s^2 relative, past the rounding allowance once s
    # is far below sigma.  The exact preimage comes from rational arithmetic.
    mu, scale = 0.35, ratio * math.sqrt(sigma2)
    marg = Marginal(MixturePrior.from_arrays(["gaussian"], [1.0], [mu], [scale]), NoiseModel(sigma2))
    xs = np.linspace(-50.0, 50.0, 41)
    lo, hi = marg.preimage_bracket(xs)
    s2, t2 = Fraction(scale) ** 2, Fraction(sigma2)
    exact = np.array([float((Fraction(x) * (s2 + t2) - t2 * Fraction(mu)) / s2) for x in xs])
    assert np.all(lo <= exact) and np.all(exact <= hi)


_component = st.tuples(
    st.sampled_from([G, L]),
    st.floats(0.05, 1.0),  # unnormalized weight
    st.floats(-10.0, 10.0),  # location
    st.floats(-3.0, 1.0),  # log10 of scale / sigma
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    components=st.lists(_component, min_size=1, max_size=3),
    log_sigma2=st.floats(-2.0, 2.0),
    xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
)
def test_bracket_holds_the_preimage(components, log_sigma2, xs):
    sigma2 = 10.0**log_sigma2
    sigma = np.sqrt(sigma2)
    kinds, weights, locations, ratios = zip(*components)
    weights = np.array(weights) / sum(weights)
    scales = [10.0**r * sigma for r in ratios]
    den = mixture_denoiser(kinds, weights, locations, scales, sigma2)
    xs = np.array(xs)
    lo, hi = den.marginal.preimage_bracket(xs)
    assert np.all(den.scalar_apply(lo) <= xs) and np.all(xs <= den.scalar_apply(hi))
    _, res = den.scalar_invert(xs)
    narrowest = min(ratios)
    if narrowest >= -1.0:
        assert res.max() <= denoiser.INVERT_TOL
    elif narrowest >= -2.0:
        assert res.max() <= 1e-6
