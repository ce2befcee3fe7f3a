import math

import numpy as np
import pytest

from mmseprox import ComponentKind, Marginal, MixturePrior, NoiseModel

from conftest import MARGINAL_NAMES, make_marginal, make_prior

# Frozen oracle table computed with 40-digit arithmetic from the raw density
# definitions (mixture-of-Gaussians marginals in closed form; priors with a
# Laplace component convolved by numeric quadrature with the Gaussian-kernel
# derivatives taken analytically under the integral).  Each entry is
#   (name, sigma2, z): (f, f', f'', posterior_mean)
# for the negative log marginal f.  The last column is consumed by the
# denoiser tests.
ORACLE = {
    ("gauss1", 0.25, -3.1): (4.8745103088617776, -2.48, 0.8, -2.48),
    ("gauss1", 0.25, 0.4): (1.0945103088617776, 0.32, 0.8, 0.32),
    ("gauss1", 0.25, 2.2): (2.9665103088617776, 1.76, 0.8, 1.76),
    ("gauss1", 1.0, -3.1): (3.6680121234846454, -1.55, 0.5, -1.55),
    ("gauss1", 1.0, 0.4): (1.3055121234846454, 0.2, 0.5, 0.2),
    ("gauss1", 1.0, 2.2): (2.4755121234846454, 1.1, 0.5, 1.1),
    ("gmix2", 0.25, -3.1): (2.4755121234676826, -2.2000000001357022, 1.9999999989143825, -2.5499999999660745),
    ("gmix2", 0.25, 0.4): (3.785558790322215, -2.8866742176258851, -0.40843321309256776, 1.1216685544064713),
    ("gmix2", 0.25, 2.2): (1.3055121007641857, 0.40000018176367529, 1.9999985458906307, 2.0999999545590812),
    ("gmix2", 1.0, -3.1): (2.2076083094742913, -0.88015737196197703, 0.79949643448760793, -2.219842628038023),
    ("gmix2", 1.0, 0.4): (2.5023319473092059, -0.58383928455395999, -0.94307454769698574, 0.98383928455395999),
    ("gmix2", 1.0, 2.2): (1.7387817464343175, 0.16280115083657356, 0.79104416376897385, 2.0371988491634264),
    ("laplace1", 0.25, -3.1): (3.6681471814153903, -0.99999998973014716, 1.2001849832865763e-7, -2.8500000025674632),
    ("laplace1", 0.25, 0.4): (1.150454902411044, 0.48296689634929334, 1.0638932102575457, 0.27925827591267667),
    ("laplace1", 0.25, 2.2): (2.7681562470509354, 0.99992193950401241, 0.0006385141915017705, 1.9500195151239969),
    ("laplace1", 1.0, -3.1): (3.300862319695047, -0.97948439481830117, 0.048038175576554829, -2.1205156051816988),
    ("laplace1", 1.0, 0.4): (1.3828485044551904, 0.20821576000695066, 0.51136707504869848, 0.19178423999304934),
    ("laplace1", 1.0, 2.2): (2.4540673898617273, 0.88103287839057865, 0.1889862904794337, 1.3189671216094213),
    ("lapgauss", 0.25, -3.1): (4.6165173912901139, -1.9983003918594034, 0.011702790038907078, -2.6004249020351492),
    ("lapgauss", 0.25, 0.4): (1.8183168292342803, -0.65842231713544905, -1.0323065308605684, 0.56460557928386226),
    ("lapgauss", 0.25, 2.2): (1.6048240968851127, 0.9516944075691635, 1.3379553901187012, 1.9620763981077091),
    ("lapgauss", 1.0, -3.1): (3.5698836629059485, -1.4278747677599644, 0.51006544536845789, -1.6721252322400356),
    ("lapgauss", 1.0, 0.4): (1.6279917510078016, -0.15599457735986989, -0.0094375248378506661, 0.55599457735986989),
    ("lapgauss", 1.0, 2.2): (1.7667567605758538, 0.5061516728988093, 0.61114604359297847, 1.6938483271011907),
}

ORACLE_ZS = np.array([-3.1, 0.4, 2.2])


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.0)
    with pytest.raises(ValueError):
        NoiseModel(-1.0)
    with pytest.raises(ValueError):
        NoiseModel(np.inf)


def test_scalar_f_matches_oracle(marginal_case):
    name, sigma2, marg = marginal_case
    f, f1, f2 = marg.scalar_f(ORACLE_ZS)
    for i, z in enumerate(ORACLE_ZS):
        ef, ef1, ef2, _ = ORACLE[(name, sigma2, float(z))]
        tol = dict(rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(f[i], ef, **tol)
        np.testing.assert_allclose(f1[i], ef1, **tol)
        np.testing.assert_allclose(f2[i], ef2, **tol)


def test_public_accessors_match_scalar_f():
    marg = make_marginal("gmix2", 1.0)
    f, f1, f2 = marg.scalar_f(ORACLE_ZS)
    for i, z in enumerate(ORACLE_ZS):
        one = marg.scalar_f(float(z))
        assert [v.shape for v in one] == [(), (), ()]
        assert (one[0], one[1], one[2]) == (f[i], f1[i], f2[i])
        assert marg.scalar_value(float(z)) == f[i]


def test_scalar_f_acts_elementwise_on_any_shape(marginal_case):
    _, _, marg = marginal_case
    flat = np.linspace(-7.0, 7.0, 24)
    grid = flat.reshape(2, 3, 4)
    for got, want in zip(marg.scalar_f(grid), marg.scalar_f(flat)):
        assert got.shape == grid.shape
        assert np.array_equal(got, want.reshape(grid.shape))
    assert np.array_equal(marg.scalar_value(grid), marg.scalar_value(flat).reshape(grid.shape))


def test_derivatives_match_finite_differences(marginal_case):
    _, _, marg = marginal_case
    zs = np.linspace(-4.1, 3.7, 11)
    h = 1e-5
    f, f1, f2 = marg.scalar_f(zs)
    f_plus = marg.scalar_f(zs + h)[0]
    f_minus = marg.scalar_f(zs - h)[0]
    np.testing.assert_allclose(f1, (f_plus - f_minus) / (2 * h), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(f2, (f_plus - 2 * f + f_minus) / h**2, rtol=1e-4, atol=1e-4)


def test_far_tail_values_stay_finite(marginal_case):
    _, _, marg = marginal_case
    zs = np.array([-300.0, -40.0, 40.0, 300.0])
    f, f1, f2 = marg.scalar_f(zs)
    assert np.all(np.isfinite(f))
    assert np.all(np.isfinite(f1))
    assert np.all(np.isfinite(f2))
    assert np.all(f > 0)
    assert np.all(np.sign(f1) == np.sign(zs))  # pushed back toward the mass


def test_density_normalization(marginal_case):
    _, _, marg = marginal_case
    grid = np.linspace(-60, 60, 120001)
    mass = np.trapezoid(np.exp(-marg.scalar_f(grid)[0]), grid)
    assert mass == pytest.approx(1.0, abs=1e-7)


def test_separable_mode_sums():
    # dimension shapes only a prior sample: f_Z of the product prior is the
    # sum of the scalar f_Z over the coordinates, of any number of them.
    prior = make_prior("gmix2", dimension=4)
    marg = Marginal(prior, NoiseModel(1.0))
    scalar = make_marginal("gmix2", 1.0)
    for z in (np.array([-3.1, 0.4, 2.2, 0.0]), np.array([0.4, 2.2])):
        for got, want in zip(marg.scalar_f(z), scalar.scalar_f(z)):
            assert np.array_equal(got, want)
        assert marg.scalar_value(z).sum() == scalar.scalar_f(z)[0].sum()


# Grid in [-40, 40] plus both far tails, out to |z| = 1e3.
VALUE_ZS = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-1e3, -300.0, 300.0, 1e3]])


def _assert_single_output_passes_equal_scalar_f(marg):
    """scalar_value and scalar_score return scalar_f's value and score bit
    for bit, on a flat grid, a 2-D grid and 0-d points."""
    grid = VALUE_ZS[1:].reshape(4, -1)
    for zs in (VALUE_ZS, grid):
        f, f1, _ = marg.scalar_f(zs)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(f1))
        assert np.array_equal(marg.scalar_value(zs), f)
        assert np.array_equal(marg.scalar_score(zs), f1)
    for z in (0.4, -1e3, np.float64(1e3)):
        f, f1, _ = marg.scalar_f(z)
        value, score = marg.scalar_value(z), marg.scalar_score(z)
        assert value.shape == score.shape == ()
        assert value == f and score == f1


def test_scalar_value_is_scalar_f_value(marginal_case):
    _, _, marg = marginal_case
    _assert_single_output_passes_equal_scalar_f(marg)
    for single_output in (marg.scalar_value, marg.scalar_score):
        with pytest.raises(ValueError):
            single_output(np.array([0.0, np.nan]))


@pytest.mark.parametrize("sigma2", (1e-3, 0.04, 100.0))
@pytest.mark.parametrize("name", MARGINAL_NAMES)
def test_single_output_passes_at_extreme_noise_levels(name, sigma2):
    _assert_single_output_passes_equal_scalar_f(make_marginal(name, sigma2))


def test_passes_leave_their_input_unchanged(marginal_case):
    _, _, marg = marginal_case
    for zs in (VALUE_ZS, VALUE_ZS[1:].reshape(4, -1), np.array(0.4)):
        before = zs.copy()
        outputs = [*marg.scalar_f(zs), marg.scalar_value(zs), marg.scalar_score(zs)]
        assert np.array_equal(zs, before)
        # Each output is a fresh array, so a caller may write into it.
        assert not any(np.shares_memory(out, zs) for out in outputs)


def _fsum_reference(z, weights, locations, scales, sigma2):
    """(f, f', f'') at one point by a math.fsum log-sum-exp, and the sums of
    absolute terms that bound the rounding error of each."""
    terms, slopes, curves = [], [], []
    for w, mu, s in zip(weights, locations, scales):
        var = s * s + sigma2
        d = z - mu
        terms.append(math.log(w) - 0.5 * (math.log(2.0 * math.pi) + math.log(var)) - 0.5 * d * d / var)
        slopes.append(-d / var)
        curves.append((d / var) ** 2 - 1.0 / var)
    m = max(terms)
    e = [math.exp(t - m) for t in terms]
    norm = math.fsum(e)
    resp = [x / norm for x in e]
    s1 = math.fsum(r * a for r, a in zip(resp, slopes))
    s2 = math.fsum(r * c for r, c in zip(resp, curves))
    f = -(m + math.log(norm))
    values = (f, -s1, -s2 + s1 * s1)
    scales_ = (
        abs(f),
        math.fsum(r * abs(a) for r, a in zip(resp, slopes)),
        math.fsum(r * abs(c) for r, c in zip(resp, curves)) + s1 * s1,
    )
    return values, scales_


@pytest.mark.parametrize("sigma2", (0.04, 1.0, 4.0))
def test_ten_gaussian_components_match_fsum_reference(sigma2):
    # Ten rows is past the eight-term block of numpy's pairwise summation,
    # the one regime where the component-major sums round differently.
    weights = [0.1] * 10
    locations = [k - 5.0 for k in range(10)]
    scales = [0.3 + 0.05 * k for k in range(10)]
    prior = MixturePrior.from_arrays(
        kinds=[ComponentKind.GAUSSIAN] * 10, weights=weights, locations=locations, scales=scales
    )
    marg = Marginal(prior, NoiseModel(sigma2))
    zs = np.concatenate([np.linspace(-40.0, 40.0, 401), [-300.0, 300.0]])
    got = marg.scalar_f(zs)
    for i, z in enumerate(zs):
        ref, bound = _fsum_reference(float(z), weights, locations, scales, sigma2)
        for k in range(3):
            # Relative to the summed magnitudes: f' crosses zero, where a
            # pointwise relative error is undefined.
            assert abs(got[k][i] - ref[k]) <= 1e-12 * bound[k], (k, float(z), got[k][i], ref[k])
