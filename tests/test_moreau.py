import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TwoPointMarginal, make_marginal
from mmseprox import moreau
from mmseprox import (
    Denoiser,
    EnvelopeNotFiniteError,
    EnvelopeNotUnimodalError,
    EnvelopeUnboundedError,
    MultivaluedProxError,
    envelope_gradient,
    lower_envelope,
    lower_envelope_many,
    Regularizer,
    upper_envelope,
    upper_envelope_many,
)

HALF_LOG_4PI = 1.2655121234846454

QUAD = lambda y: 0.5 * np.asarray(y) ** 2
ABS = lambda y: np.abs(y)
WAVY = lambda y: np.cos(3.0 * np.asarray(y)) + 0.1 * np.asarray(y) ** 2


def test_lower_envelope_quadratic():
    # min 0.5 y^2 + (y - 2)^2 / 2 = 1 at y = 1
    r = lower_envelope(QUAD, 1.0, 2.0)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.argopt == pytest.approx(1.0, abs=1e-6)


def test_lower_envelope_absolute():
    r = lower_envelope(ABS, 1.0, 0.4)
    assert r.value == pytest.approx(0.08, abs=1e-10)
    assert r.argopt == pytest.approx(0.0, abs=1e-6)
    r = lower_envelope(ABS, 1.0, 3.0)
    assert r.value == pytest.approx(2.5, abs=1e-10)
    assert r.argopt == pytest.approx(2.0, abs=1e-6)


def test_upper_envelope_quadratic():
    # sup 0.5 y^2 - (y - 1)^2 at gamma = 1/2: maximum 1 at y = 2
    r = upper_envelope(QUAD, 0.5, 1.0)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.argopt == pytest.approx(2.0, abs=1e-6)


def test_upper_envelope_standard_normal_marginal():
    # f(y) = y^2/4 + log(4 pi)/2 (unit prior plus unit noise);
    # sup f(y) - (y-1)^2/2 = 1/2 + log(4 pi)/2 at y = 2
    f = lambda y: 0.25 * np.asarray(y) ** 2 + HALF_LOG_4PI
    r = upper_envelope(f, 1.0, 1.0)
    assert r.value == pytest.approx(0.5 + HALF_LOG_4PI, abs=1e-10)
    assert r.argopt == pytest.approx(2.0, abs=1e-6)


def test_prox_values():
    # the prox is the lower envelope's minimizer
    assert lower_envelope(ABS, 1.0, -0.3).argopt == pytest.approx(0.0, abs=1e-6)  # soft threshold
    assert lower_envelope(ABS, 1.0, 3.0).argopt == pytest.approx(2.0, abs=1e-6)
    assert lower_envelope(QUAD, 2.0, 3.0).argopt == pytest.approx(1.0, abs=1e-6)  # 3 / (1 + gamma)


def test_envelope_gradient_absolute():
    g = envelope_gradient(ABS, 1.0, 3.0)
    assert g == pytest.approx(1.0, abs=1e-6)  # (x - prox) / gamma = (3 - 2) / 1


def test_envelope_gradient_matches_finite_difference():
    f = lambda y: np.log(np.cosh(np.asarray(y)))
    for x in (-2.3, 0.4, 1.8):
        g = envelope_gradient(f, 0.7, x)
        h = 1e-5
        fd = (lower_envelope(f, 0.7, x + h).value - lower_envelope(f, 0.7, x - h).value) / (2 * h)
        assert g == pytest.approx(fd, abs=1e-6)


def test_unbounded_envelopes_raise():
    with pytest.raises(EnvelopeUnboundedError):
        upper_envelope(QUAD, 2.0, 0.0)  # quadratic beats the quadratic penalty
    neg = lambda y: -np.asarray(y) ** 2
    with pytest.raises(EnvelopeUnboundedError):
        lower_envelope(neg, 1.0, 0.0)


def test_double_well_ties_and_multivalued_prox():
    w = lambda y: (np.asarray(y) ** 2 - 1.0) ** 2
    r = lower_envelope(w, 1.0, 0.0)
    root = np.sqrt(3.0) / 2.0
    assert r.value == pytest.approx(7.0 / 16.0, abs=1e-9)
    assert len(r.candidates) == 2
    assert r.argopt == pytest.approx(-root, abs=1e-6)  # deterministic: smaller tie
    with pytest.raises(MultivaluedProxError):
        envelope_gradient(w, 1.0, 0.0)
    # off the symmetry point the prox is single-valued again
    assert envelope_gradient(w, 1.0, 0.2) == pytest.approx(
        (lower_envelope(w, 1.0, 0.2001).value - lower_envelope(w, 1.0, 0.1999).value) / 2e-4,
        abs=1e-5,
    )


def test_nonfinite_window_raises_the_same_error():
    nowhere = lambda y: np.full(np.shape(y), np.nan)
    with pytest.raises(EnvelopeNotFiniteError, match=r"at x=0\.25 has no finite value") as scalar:
        lower_envelope(nowhere, 1.0, 0.25)
    with pytest.raises(EnvelopeNotFiniteError, match=r"at x=0\.25 has no finite value") as many:
        lower_envelope_many(nowhere, 1.0, np.array([0.25]))
    assert scalar.type is many.type is EnvelopeNotFiniteError
    assert str(scalar.value) == str(many.value)
    # the first point whose window holds no finite value is the one named
    far_left = lambda y: np.where(np.asarray(y) < -40.0, 0.0, np.nan)
    with pytest.raises(EnvelopeNotFiniteError, match=r"at x=0\.25 has no finite value"):
        lower_envelope_many(far_left, 1.0, np.array([-30.0, 0.25, 1.0]))


def test_validation_errors():
    with pytest.raises(ValueError):
        lower_envelope(QUAD, 0.0, 1.0)
    with pytest.raises(ValueError):
        lower_envelope(QUAD, -1.0, 1.0)
    with pytest.raises(ValueError):
        lower_envelope(QUAD, 1.0, np.inf)


def test_vectorized_matches_scalar():
    xs = np.linspace(-4, 4, 17)
    vals, args = lower_envelope_many(np.abs, 1.0, xs)
    for i, x in enumerate(xs):
        r = lower_envelope(ABS, 1.0, float(x))
        assert vals[i] == pytest.approx(r.value, abs=1e-9)
        assert args[i] == pytest.approx(r.argopt, abs=1e-6)
    uvals, uargs = upper_envelope_many(lambda y: 0.25 * np.asarray(y) ** 2, 1.0, xs)
    for i, x in enumerate(xs):
        r = upper_envelope(lambda y: 0.25 * np.asarray(y) ** 2, 1.0, float(x))
        assert uvals[i] == pytest.approx(r.value, abs=1e-9)


def test_vectorized_window_expansion():
    # the stationary point sits 30 away from x, beyond the default window
    f = lambda y: 0.5 * (np.asarray(y) - 60.0) ** 2
    vals, args = lower_envelope_many(f, 1.0, np.array([0.0]))
    assert args[0] == pytest.approx(30.0, abs=1e-6)
    assert vals[0] == pytest.approx(900.0, abs=1e-6)


def test_vectorized_unbounded_raises():
    with pytest.raises(EnvelopeUnboundedError):
        lower_envelope_many(lambda y: -np.asarray(y) ** 2, 1.0, np.array([0.0]))


def test_blocked_scan_matches_one_block(monkeypatch):
    xs = np.linspace(-6.0, 6.0, 97)
    whole = [lower_envelope_many(WAVY, 1.0, xs), upper_envelope_many(np.cos, 1.0, xs)]
    monkeypatch.setattr(moreau, "_SCAN_ENTRIES", 7 * 501)  # 14 blocks, the last partial
    blocked = [lower_envelope_many(WAVY, 1.0, xs), upper_envelope_many(np.cos, 1.0, xs)]
    for (v0, y0), (v1, y1) in zip(whole, blocked):
        assert np.array_equal(v0, v1) and np.array_equal(y0, y1)


def test_only_rows_at_a_window_edge_widen(monkeypatch):
    # f(y) = -30 max(y, 0): for x > -15 the prox is x + 30, outside the
    # first window [x - 20, x + 20], so those rows widen; for x < -15 it is
    # x itself.  (Just above -15 the single-basin search misses the far
    # optimum, as the window never reaches it.)  Shuffled, every block of four
    # mixes both kinds of row; each point gets the result it gets alone.
    ramp = lambda y: -30.0 * np.maximum(np.asarray(y), 0.0)
    xs = np.random.default_rng(3).permutation(np.r_[-40.5:-20.0:1.0, -12.5:10.0:1.0])
    whole = lower_envelope_many(ramp, 1.0, xs)
    alone = np.array([lower_envelope_many(ramp, 1.0, xs[i : i + 1]) for i in range(xs.size)])
    monkeypatch.setattr(moreau, "_SCAN_ENTRIES", 4 * 501)  # 11 blocks
    blocked = lower_envelope_many(ramp, 1.0, xs)
    for result in (whole, blocked):
        assert np.array_equal(result[0], alone[:, 0, 0]) and np.array_equal(result[1], alone[:, 1, 0])
    np.testing.assert_allclose(whole[1], np.where(xs > -15.0, xs + 30.0, xs), atol=1e-6)


def test_golden_section_runs_once_per_call(monkeypatch):
    # Blocks split only the scan: the brackets of every block are refined
    # in one golden pass, so each extra block costs one extra objective call.
    xs = np.linspace(-6.0, 6.0, 97)
    calls = []
    for entries in (97 * 501, 7 * 501):  # one block, then 14 blocks
        monkeypatch.setattr(moreau, "_SCAN_ENTRIES", entries)
        f = _Counting(WAVY)
        lower_envelope_many(f, 1.0, xs)
        calls.append(f.calls)
    assert calls[1] == calls[0] + 13, calls


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vectorized_scan_memory_is_bounded():
    # 61 x 501 points, what a dense inner envelope gets at once when a dense
    # outer envelope of 61 points scans it.  The scan holds a few arrays of
    # one _SCAN_ENTRIES block (256 KB each) at a time; what grows with the
    # points is the golden pass, a few arrays of 30561 floats (245 KB each).
    peak = _traced_peak(lower_envelope_many, np.cos, 1.0, np.linspace(-3.0, 3.0, 30561))
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_phi_route_memory_is_bounded():
    # phi_total on a 32 x 32 image: 1024 envelope points of gmix2 f_Z
    reg = Regularizer(Denoiser(make_marginal("gmix2", 0.04)))
    peak = _traced_peak(reg.phi_envelope_profile, np.linspace(-4.0, 4.0, 1024))
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_sandwich_identity_quadratic():
    xs = np.linspace(-2, 2, 9)
    inner = lambda ys: lower_envelope_many(lambda y: 0.5 * np.asarray(y) ** 2, 1.0, ys)[0]
    outer, _ = upper_envelope_many(inner, 1.0, xs)
    np.testing.assert_allclose(outer, 0.5 * xs**2, atol=1e-9)


class _Counting:
    """Wraps an objective and counts its calls and evaluated points."""

    def __init__(self, fn):
        self.fn, self.calls, self.points = fn, 0, 0

    def __call__(self, ys):
        self.calls += 1
        self.points += np.size(ys)
        return self.fn(ys)


def test_vectorized_search_evaluation_budget():
    # the grid plus one evaluation per golden step, about 60 steps
    f = _Counting(lambda y: 0.25 * np.asarray(y) ** 2)
    xs = np.linspace(-3.0, 3.0, 13)
    upper_envelope_many(f, 1.0, xs)
    assert f.points / xs.size <= 501 + 70


def test_scalar_basins_share_each_golden_step():
    # two basins are refined as two rows of one golden section, so the
    # double well costs no more calls than a search with a single basin
    well = _Counting(lambda y: (np.asarray(y) ** 2 - 1.0) ** 2)
    assert len(lower_envelope(well, 1.0, 0.0).candidates) == 2
    single = _Counting(lambda y: (np.asarray(y) - 0.5) ** 2)
    assert lower_envelope(single, 1.0, 0.0).argopt == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert well.calls <= single.calls


def _golden_loop(obj, a, b, tol=1e-13):
    """Reference: the scalar golden-section loop, one bracket at a time."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(200):
        if (b - a) <= tol * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = obj(d)
    return (c, fc) if fc <= fd else (d, fd)


def test_golden_rows_match_the_scalar_loop():
    f = lambda y: np.cos(3.0 * np.asarray(y)) + 0.1 * np.asarray(y) ** 2
    a = np.array([-2.0, -0.5, 0.3, 5.0, 100.0])
    b = np.array([-1.0, 0.5, 0.31, 9.0, 100.5])
    xs = np.array([0.0, 0.2, -1.0, 7.0, 100.0])
    y, v = moreau._golden(f, 1.0, 0.7, a.copy(), b.copy(), xs)
    for i in range(a.size):
        obj = lambda t, x=xs[i]: float(moreau._objective(f, 1.0, 0.7, np.array([t]), x)[0])
        assert (y[i], v[i]) == _golden_loop(obj, a[i], b[i])


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(a=_reals(0.1, 3.0), m=_reals(-2.0, 2.0), gamma=_reals(0.25, 4.0), x=_reals(-5.0, 5.0))
def test_absolute_value_envelope_is_huber(a, m, gamma, x):
    f = lambda y: a * np.abs(np.asarray(y) - m)
    d = x - m
    soft = m + np.sign(d) * max(abs(d) - a * gamma, 0.0)
    huber = d * d / (2.0 * gamma) if abs(d) <= a * gamma else a * abs(d) - 0.5 * a * a * gamma
    r = lower_envelope(f, gamma, x)
    vals, args = lower_envelope_many(f, gamma, np.array([x]))
    for value, argopt in ((r.value, r.argopt), (vals[0], args[0])):
        assert value == pytest.approx(huber, abs=1e-9)
        assert argopt == pytest.approx(soft, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(t=_reals(-2.0, 0.5), gamma=_reals(0.25, 4.0), x=_reals(-3.0, 3.0))
def test_quadratic_upper_envelope_closed_form(t, gamma, x):
    q = t / gamma  # q * gamma = t < 1 keeps the envelope finite
    f = lambda y: 0.5 * q * np.asarray(y) ** 2
    argmax = x / (1.0 - t)
    value = q * x * x / (2.0 * (1.0 - t))
    r = upper_envelope(f, gamma, x)
    vals, args = upper_envelope_many(f, gamma, np.array([x]))
    for got, argopt in ((r.value, r.argopt), (vals[0], args[0])):
        assert got == pytest.approx(value, abs=1e-9)
        assert argopt == pytest.approx(argmax, abs=1e-6)


# -- the unimodal search -------------------------------------------------------


def _nested_prox_objective():
    """The suite's nested-prox objective: envelope-route phi of gmix2 at sigma2 = 1."""
    reg = Regularizer(Denoiser(make_marginal("gmix2", 1.0)))
    return lambda ys: reg.phi_envelope_profile(ys)[0], reg.default_grid(15, 3.0)


@pytest.mark.parametrize("case", ["quadratic", "absolute", "quarter_upper", "nested_prox"])
def test_unimodal_search_agrees_with_dense(case):
    xs = np.linspace(-4.0, 4.0, 33)
    many, f = lower_envelope_many, QUAD
    if case == "absolute":
        f = ABS
    elif case == "quarter_upper":
        many, f = upper_envelope_many, lambda y: 0.25 * np.asarray(y) ** 2
    elif case == "nested_prox":
        f, xs = _nested_prox_objective()
    dense_vals, dense_args = many(f, 1.0, xs)
    vals, args = many(f, 1.0, xs, unimodal=True)
    rel = np.abs(vals - dense_vals) / np.maximum(1.0, np.abs(dense_vals))
    assert rel.max() <= 1e-12, f"values differ by {rel.max():.2e} relative"
    assert np.abs(args - dense_args).max() <= 1e-7


def test_unimodal_blocked_search_matches_each_point_alone(monkeypatch):
    xs = np.linspace(-6.0, 6.0, 97)
    f = lambda y: np.log(np.cosh(np.asarray(y))) + 0.1 * np.asarray(y) ** 2
    whole = lower_envelope_many(f, 1.0, xs, unimodal=True)
    alone = np.array([lower_envelope_many(f, 1.0, xs[i : i + 1], unimodal=True) for i in range(xs.size)])
    monkeypatch.setattr(moreau, "_SCAN_ENTRIES", 7 * moreau._UNIMODAL_GRID_POINTS)  # 14 blocks
    blocked = lower_envelope_many(f, 1.0, xs, unimodal=True)
    for result in (whole, blocked):
        assert np.array_equal(result[0], alone[:, 0, 0]) and np.array_equal(result[1], alone[:, 1, 0])


def test_unimodal_window_expansion():
    f = lambda y: 0.5 * (np.asarray(y) - 60.0) ** 2
    vals, args = lower_envelope_many(f, 1.0, np.array([0.0]), unimodal=True)
    assert args[0] == pytest.approx(30.0, abs=1e-6)
    assert vals[0] == pytest.approx(900.0, abs=1e-6)


def test_unimodal_search_evaluation_budget():
    # the short grid plus one evaluation per golden step, about 67 steps
    f = _Counting(lambda y: 0.25 * np.asarray(y) ** 2)
    xs = np.linspace(-3.0, 3.0, 13)
    upper_envelope_many(f, 1.0, xs, unimodal=True)
    assert f.points / xs.size <= moreau._UNIMODAL_GRID_POINTS + 70


def test_unimodal_search_refuses_several_basins():
    wavy = lambda y: np.cos(3.0 * np.asarray(y))
    with pytest.raises(EnvelopeNotUnimodalError, match="more than one basin"):
        lower_envelope_many(wavy, 1.0, np.linspace(-3.0, 3.0, 7), unimodal=True)


class _SqueezedTwoPoint(TwoPointMarginal):
    """The two-point marginal with its denoiser image squeezed to (-0.05, 0.05)."""

    half_gap = 0.05


def test_unimodal_search_refuses_a_grid_with_no_finite_value():
    # explicit phi is +inf off an image narrower than the short grid's
    # spacing (1.25), so no grid point around x = 0.6 is finite; the dense
    # grid (spacing 0.08) still lands in the image.
    reg = Regularizer(Denoiser(_SqueezedTwoPoint()))
    phi = lambda ys: reg.phi_explicit_profile(ys)[0]
    xs = np.array([0.6])
    vals, args = lower_envelope_many(phi, 1.0, xs)
    assert np.isfinite(vals[0]) and abs(args[0]) < 0.05
    with pytest.raises(EnvelopeNotFiniteError, match="no finite value") as refused:
        lower_envelope_many(phi, 1.0, xs, unimodal=True)
    assert refused.type is EnvelopeNotFiniteError


def test_unimodal_check_takes_infinite_tails_without_warnings():
    # the indicator of [-3, 3] is convex: +inf tails continue the fall and
    # the rise, and no inf - inf is formed while checking them
    box = lambda y: np.where(np.abs(np.asarray(y)) <= 3.0, 0.0, np.inf)
    xs = np.array([-7.0, 0.4, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, args = lower_envelope_many(box, 1.0, xs, unimodal=True)
    np.testing.assert_allclose(args, [-3.0, 0.4, 3.0], atol=1e-7)
    np.testing.assert_allclose(vals, [8.0, 0.0, 2.0], atol=1e-9)
