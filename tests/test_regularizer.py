import math

import numpy as np
import pytest

from mmseprox import (
    Denoiser,
    Marginal,
    NoiseModel,
    Regularizer,
    certify_weak_convexity,
)
from mmseprox.regularizer import CONVEXITY_TOL

from conftest import FIXTURE_NAMES, SIGMA2S, make_marginal, make_prior


def make_reg(name: str, sigma2: float) -> Regularizer:
    return Regularizer(Denoiser(make_marginal(name, sigma2)))


def test_unit_gaussian_closed_form():
    # For a unit Gaussian prior with unit noise the denoiser is z/2 and the
    # penalty works out to x^2/2 + log(4 pi)/2 exactly.
    reg = make_reg("gauss1", 1.0)
    expected = 0.5 + 0.5 * math.log(4 * math.pi)
    explicit, in_image = reg.phi_explicit_profile(1.0)
    envelope, _ = reg.phi_envelope_profile(1.0)
    assert in_image.all()
    for phi in (explicit, envelope):
        assert phi.shape == (1,)
        assert phi[0] == pytest.approx(expected, abs=1e-9)
    assert reg.phi_total(1.0) == envelope[0]


def test_gaussian_closed_form_large_noise():
    # sigma2 = 4: denoiser z/5, penalty 2 x^2 + 2 log(10 pi)
    reg = make_reg("gauss1", 4.0)
    xs = np.array([-1.3, 0.0, 0.7, 2.1])
    expected = 2.0 * xs**2 + 2.0 * math.log(10 * math.pi)
    explicit, _ = reg.phi_explicit_profile(xs)
    envelope, _ = reg.phi_envelope_profile(xs)
    np.testing.assert_allclose(explicit, expected, rtol=1e-9)
    np.testing.assert_allclose(envelope, expected, rtol=1e-9)


def test_routes_agree(marginal_case):
    _, sigma2, marg = marginal_case
    reg = Regularizer(Denoiser(marg))
    grid = reg.default_grid(points=81)
    explicit, in_image = reg.phi_explicit_profile(grid)
    envelope, _ = reg.phi_envelope_profile(grid)
    assert in_image.all()  # mixture priors have image = R
    rel = np.abs(explicit - envelope) / np.maximum(1.0, np.abs(explicit))
    assert rel.max() <= 1e-8


def test_envelope_route_never_inverts(monkeypatch):
    reg = make_reg("gmix2", 1.0)
    calls = []
    original = Denoiser.scalar_invert

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Denoiser, "scalar_invert", counting)
    values, maximizers = reg.phi_envelope_profile(reg.default_grid(points=21))
    assert values.shape == maximizers.shape == (21,)
    assert calls == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("sigma2", SIGMA2S)
def test_envelope_maximizers_are_preimages(name, sigma2):
    reg = make_reg(name, sigma2)
    grid = reg.default_grid(points=401)
    _, maximizers = reg.phi_envelope_profile(grid)
    preimages, res = reg.denoiser.scalar_invert(grid)
    assert res.max() <= 1e-10
    rel = np.abs(maximizers - preimages) / np.maximum(1.0, np.abs(preimages))
    assert rel.max() <= 1e-6


def test_anchor_constant_is_zero_and_anchor_free():
    reg = make_reg("gmix2", 0.25)
    assert reg.c_anchor == pytest.approx(0.0, abs=1e-10)
    values = [reg.c_constant(a) for a in (0.0, 0.5, -1.0, 3.0, -8.0)]
    assert max(values) - min(values) <= 1e-10


def test_moreau_identity_reconstructs_marginal():
    # (1/sigma2) * (lower envelope of phi at 1) + c should reproduce f_Z
    from mmseprox import lower_envelope_many

    reg = make_reg("laplace1", 0.25)
    grid = reg.default_grid(points=21, half_width_scales=3.0)

    def phi_values(ys):
        arr = np.asarray(ys, dtype=float)
        vals, _ = reg.phi_explicit_profile(arr.reshape(-1))
        return vals.reshape(arr.shape)

    m1, _ = lower_envelope_many(phi_values, 1.0, grid)
    fz = np.asarray(reg.marginal.scalar_f(grid)[0])
    np.testing.assert_allclose(m1 / 0.25 + reg.c_anchor, fz, atol=1e-8)


def test_weak_convexity_certificates(marginal_case):
    _, _, marg = marginal_case
    reg = Regularizer(Denoiser(marg))
    assert reg.weak_convexity_certificate(reg.default_grid(points=201)) >= -CONVEXITY_TOL


def test_weak_convexity_control_fails():
    control = certify_weak_convexity(lambda x: -np.asarray(x) ** 2, np.linspace(-3, 3, 201))
    assert control < -CONVEXITY_TOL
    assert control == pytest.approx(-1.0, abs=1e-6)


def test_weak_convexity_validation():
    with pytest.raises(ValueError):
        certify_weak_convexity(np.abs, np.array([0.0, 0.1]))  # needs >= 3 points
    with pytest.raises(ValueError):
        certify_weak_convexity(np.abs, np.array([0.0, 0.1, 0.3]))  # non-uniform grid


def test_two_point_fixture_bounded_image(two_point_denoiser):
    reg = Regularizer(two_point_denoiser)
    inside = np.linspace(-0.99, 0.99, 199)
    explicit, in_image = reg.phi_explicit_profile(inside)
    assert in_image.all()
    assert np.all(np.isfinite(explicit))
    # direct check against the closed form through atanh
    ys = np.arctanh(inside)
    f = reg.marginal.scalar_f(ys)[0]
    direct = -0.5 * (ys - inside) ** 2 + f
    np.testing.assert_allclose(explicit, direct, atol=1e-7)

    outside, in_image = reg.phi_explicit_profile([1.5])
    assert not in_image[0]
    assert math.isinf(outside[0])

    assert reg.weak_convexity_certificate(inside) >= -CONVEXITY_TOL


def test_weak_convexity_grid_past_bounded_image(two_point_denoiser):
    # The image of tanh is (-1, 1); phi is +inf and its envelope objective
    # unbounded outside, so only the in-image points may be evaluated.
    reg = Regularizer(two_point_denoiser)
    worst = reg.weak_convexity_certificate(np.linspace(-1.5, 1.5, 301))
    assert worst >= -CONVEXITY_TOL
    assert worst == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError, match="fewer than 3 in-image grid points"):
        reg.weak_convexity_certificate(np.linspace(0.5, 3.0, 6))


def test_phi_total_sums_coordinates():
    scalar_reg = make_reg("gmix2", 1.0)
    prior = make_prior("gmix2", dimension=4)
    vec_reg = Regularizer(Denoiser(Marginal(prior, NoiseModel(1.0))))
    x = np.array([-2.3, 0.2, 1.8, 4.0])
    total = vec_reg.phi_total(x)
    assert total == float(vec_reg.phi_envelope_profile(x)[0].sum())
    assert vec_reg.phi_total(x.reshape(2, 2)) == total
    per_coord = sum(scalar_reg.phi_total(float(v)) for v in x)
    assert total == pytest.approx(per_coord, rel=1e-10)
    with pytest.raises(ValueError, match="finite"):
        vec_reg.phi_total(np.array([0.0, np.nan]))


def test_default_grid_shape():
    reg = make_reg("gmix2", 1.0)
    grid = reg.default_grid(points=101, half_width_scales=6.0)
    assert grid.shape == (101,)
    width = math.sqrt(4.25 + 1.0) * 6.0
    assert grid[0] == pytest.approx(-width)
    assert grid[-1] == pytest.approx(width)
    assert np.allclose(np.diff(grid), grid[1] - grid[0])


def test_curves_csv_format(tmp_path):
    reg = make_reg("gauss1", 1.0)
    path = tmp_path / "out_curves.csv"
    grid = reg.default_grid(points=11, half_width_scales=2.0)
    reg.write_curves_csv(grid, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,f_X,f_Z,phi_explicit,phi_envelope,in_image"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert len(first) == 6
    assert first[5] == "true"
    assert float(first[0]) == pytest.approx(grid[0])
    # repeated emission is byte-identical
    path2 = tmp_path / "again_curves.csv"
    reg.write_curves_csv(grid, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_far_tail_anchor_stays_consistent():
    reg = make_reg("gauss1", 1.0)
    for anchor in (-12.0, 12.0):
        assert reg.c_constant(anchor) == pytest.approx(0.0, abs=1e-9)
