import math

import numpy as np
import pytest

from mmseprox import (
    CircularConv2D,
    Denoiser,
    DivergenceError,
    Fidelity,
    Init,
    IterRecord,
    Marginal,
    MixturePrior,
    NoiseModel,
    Regularizer,
    SolverConfig,
    SolverTrace,
    descent_check,
    gaussian_blur_kernel,
    psnr,
    rate_certificate,
    run,
    write_trace_csv,
)
from mmseprox.denoiser import INVERT_TOL

from conftest import make_marginal


def identity(n: int) -> CircularConv2D:
    """A unit 1x1 kernel on a one-row image: the identity operator."""
    return CircularConv2D(np.ones((1, 1)), (1, n))


def unit_gauss_model():
    den = Denoiser(make_marginal("gauss1", 1.0))
    return den, Regularizer(den)


def small_deblur_problem(side=8, seed=0, max_iters=40):
    n = side * side
    prior = MixturePrior.from_arrays(
        kinds=["gaussian", "gaussian"],
        weights=[0.5, 0.5],
        locations=[-2.0, 2.0],
        scales=[0.5, 0.5],
        dimension=n,
    )
    den = Denoiser(Marginal(prior, NoiseModel(0.04)))
    reg = Regularizer(den)
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (side, side))
    truth = prior.sample(1, seed=seed).reshape(-1)
    noise = np.random.default_rng(seed + 1).standard_normal(n)
    y = op.apply(truth) + 0.2 * noise
    fid = Fidelity.auto(op, y)
    cfg = SolverConfig(max_iters=max_iters, init=Init.ADJOINT_OBSERVATION)
    return den, reg, fid, truth, y, cfg


def test_scalar_worked_example():
    # unit Gaussian prior, unit noise (denoiser z/2), identity operator,
    # lam = 1/2, y = 1, started from the observation x = 1: the gradient
    # (x - 1)/2 is 0 there, so the first step lands exactly on 0.5, and its
    # stationarity residual is (1 - 0.5) + (0.5 - 1)/2 - 0 = 0.25
    den, reg = unit_gauss_model()
    fid = Fidelity(identity(1), np.ones(1), 0.5)
    cfg = SolverConfig(max_iters=12, init=Init.OBSERVATION)
    trace = run(den, fid, reg, cfg)
    assert trace.iterates[0][0] == pytest.approx(1.0, abs=0.0)  # start point is kept
    assert trace.iterates[1][0] == pytest.approx(0.5, abs=1e-14)
    assert trace.records[0].k == 1
    assert trace.records[0].residual == pytest.approx(0.25, abs=1e-14)
    # x_{k+1} = x_k/4 + 1/4 from here on, which contracts to 1/3
    assert trace.iterates[2][0] == pytest.approx(0.375, abs=1e-14)
    assert trace.lipschitz == pytest.approx(0.5, rel=1e-9)


def test_monotone_descent_and_rate():
    den, reg, fid, truth, y, cfg = small_deblur_problem()
    trace = run(den, fid, reg, cfg)
    slacks = descent_check(trace)
    assert min(slacks) >= -1e-9
    cert = rate_certificate(trace)
    assert cert.violations == ()
    assert cert.C == pytest.approx((1 + 0.99) / math.sqrt((1 - 0.99) / 2), rel=1e-9)
    # objective decreases overall
    assert trace.final_objective < trace.records[0].objective_F


def test_residual_tends_to_zero_and_membership():
    den, reg, fid, _, _, cfg = small_deblur_problem(max_iters=80)
    trace = run(den, fid, reg, cfg)
    assert trace.records[-1].best_residual <= 1e-4 * trace.records[0].best_residual
    x = trace.final_x
    # the fixed-point map should nearly reproduce the final iterate
    step = den.apply(x - fid.grad(x))
    assert float(np.max(np.abs(step - x))) <= 1e-4
    # iterates after the first step lie in the denoiser image
    _, res = den.scalar_invert(trace.iterates[3])
    assert res.max() <= INVERT_TOL


def test_best_residual_is_running_minimum():
    den, reg, fid, _, _, cfg = small_deblur_problem(max_iters=25)
    trace = run(den, fid, reg, cfg)
    best = np.inf
    for rec in trace.records:
        best = min(best, rec.residual)
        assert rec.best_residual == pytest.approx(best, rel=1e-12)


def test_init_modes():
    den, reg, fid, truth, y, _ = small_deblur_problem()
    t0 = run(den, fid, reg, SolverConfig(max_iters=1, init=Init.ZEROS))
    t1 = run(den, fid, reg, SolverConfig(max_iters=1, init=Init.OBSERVATION))
    t2 = run(den, fid, reg, SolverConfig(max_iters=1, init=Init.ADJOINT_OBSERVATION))
    z0 = den.apply(np.zeros_like(y) - fid.grad(np.zeros_like(y)))
    np.testing.assert_allclose(t0.iterates[1], z0, atol=1e-12)
    # the start points themselves differ: observation vs back-projected observation
    assert not np.allclose(t1.iterates[0], t2.iterates[0])


def test_run_leaves_its_inputs_unchanged():
    den, reg, fid, _, y, _ = small_deblur_problem(max_iters=5)
    # a random observation as a start point, then the problem's own
    y0 = np.random.default_rng(4).standard_normal(y.size)
    fid0 = Fidelity(fid.op, y0, fid.lam)
    observation = SolverConfig(max_iters=5, init=Init.OBSERVATION)
    for f in (fid0, fid):
        before_y = f.y.copy()
        trace = run(den, f, reg, observation)
        assert np.array_equal(f.y, before_y)
        # The iterates are kept without copies; each must still be its own array.
        arrays = [f.y, *trace.iterates]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        assert trace.final_x is trace.iterates[-1]


def test_lipschitz_at_least_one_rejected():
    den, reg = unit_gauss_model()
    fid = Fidelity(identity(2), np.zeros(2), 1.0)  # L = 1.0
    with pytest.raises(ValueError, match="[Ll]ipschitz"):
        run(den, fid, reg, SolverConfig(max_iters=3))


def test_divergence_reports_partial_trace():
    _, reg = unit_gauss_model()

    class BlowupDenoiser:
        """Behaves like halving for two steps, then returns NaN."""

        def __init__(self):
            self.calls = 0

        def apply(self, z):
            self.calls += 1
            z = np.asarray(z, dtype=float)
            if self.calls >= 3:
                return np.full_like(z, np.nan)
            return 0.5 * z

    fid = Fidelity(identity(2), np.array([0.3, -0.2]), 0.5)
    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        run(BlowupDenoiser(), fid, reg, SolverConfig(max_iters=10, init=Init.OBSERVATION))
    partial = excinfo.value.trace
    assert partial is not None
    assert len(partial.records) == 2
    assert len(partial.iterates) == 3
    assert all(math.isfinite(r.descent_slack) for r in partial.records)


def test_record_objective_off():
    den, reg, fid, _, _, _ = small_deblur_problem(max_iters=12)
    cfg = SolverConfig(max_iters=12, record_objective=False)
    trace = run(den, fid, reg, cfg)
    assert math.isnan(trace.records[0].objective_F)
    with pytest.raises(ValueError):
        descent_check(trace)
    with pytest.raises(ValueError):
        rate_certificate(trace)


def test_rate_certificate_needs_enough_records():
    den, reg, fid, _, _, _ = small_deblur_problem(max_iters=5)
    trace = run(den, fid, reg, SolverConfig(max_iters=5))
    with pytest.raises(ValueError):
        rate_certificate(trace)


def test_rate_certificate_checks_the_last_record():
    # L = 0.5 gives C = 3 and F1 - F* = 1, so the bound 3 / sqrt(k) first
    # drops below the best residual 0.88 at k = 12, the last record
    records = [IterRecord(k, 1.0, 0.88, 0.88, 0.0, 0.0) for k in range(1, 13)]
    trace = SolverTrace(records, [], np.zeros(1), final_objective=0.0, lipschitz=0.5)
    cert = rate_certificate(trace)
    assert cert.C == pytest.approx(3.0)
    assert cert.violations == (12,)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_psnr():
    truth = np.array([0.0, 2.0, 4.0])
    assert psnr(truth, truth) == math.inf
    noisy = truth + np.array([1.0, -1.0, 1.0])
    # peak 4, mse 1 -> 10 log10(16)
    assert psnr(noisy, truth) == pytest.approx(10 * math.log10(16.0), rel=1e-12)


def test_trace_csv_roundtrip(tmp_path):
    den, reg, fid, truth, _, cfg = small_deblur_problem(max_iters=12)
    trace = run(den, fid, reg, cfg)
    path = tmp_path / "t_trace.csv"
    write_trace_csv(trace, path, truth=truth)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,F,residual,best_residual,descent_slack,step_norm,psnr"
    assert len(lines) == 13
    cols = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_array_equal(cols[:, 0], np.arange(1, 13))
    assert np.all(np.isfinite(cols[:, 1]))
    assert np.all(np.isfinite(cols[:, 6]))  # psnr against the truth
