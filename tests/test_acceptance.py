"""Acceptance gate: the nine end-to-end checks this package must pass.

Each test covers one numbered criterion and prints a single
machine-greppable ``CRITERION n ...: PASS`` line once its assertions
hold (run with ``-s`` to see them); a failed assertion is the
corresponding FAIL, with the offending numbers in the message.
Criteria with wall-clock budgets enforce them here.
"""

import ast
import contextlib
import io
import math
import re
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_NAMES, SIGMA2S, TwoPointMarginal, make_marginal, make_prior
from mmseprox import cli, moreau, pnp
from mmseprox.denoiser import Denoiser
from mmseprox.marginal import Marginal, NoiseModel
from mmseprox.operators import CircularConv2D, Fidelity, gaussian_blur_kernel
from mmseprox.certificates import CONVEXITY_TOL
from mmseprox.regularizer import Regularizer, certify_weak_convexity

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_TRACE = DATA / "golden_deblur_trace.csv"
GOLDEN_CERTIFICATES = DATA / "golden_certificates.txt"
GOLDEN_HOST = DATA / "golden_host.txt"

CERT_CONFIG = """\
[experiment]
kind = certificate-suite
seed = 0

[prior]
kinds = gaussian, gaussian
weights = 0.5, 0.5
locations = -2, 2
scales = 0.5, 0.5

[noise]
sigma2 = 1.0
"""


def host_fingerprint() -> str:
    """This host's numpy version and SIMD extensions (the ``baseline`` and
    ``found`` lists ``np.show_runtime()`` prints), one ``key = value`` line
    each: numpy's SIMD ``exp`` and ``log`` set the last bits of the goldens."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        np.show_runtime()
    text = " ".join(printed.getvalue().split())

    def listed(key: str) -> str:
        match = re.search(rf"'{key}': (\[.*?\])", text)
        return " ".join(ast.literal_eval(match.group(1))) if match else "unknown"

    return (
        f"numpy = {np.__version__}\n"
        f"simd_baseline = {listed('baseline')}\n"
        f"simd_found = {listed('found')}\n"
    )


def _hosts() -> str:
    """This host's fingerprint beside the golden host's, and whether they differ."""
    here = host_fingerprint().splitlines()
    there = ["(missing; run: python tests/data/regenerate.py)"]
    if GOLDEN_HOST.exists():
        there = [line for line in GOLDEN_HOST.read_text().splitlines() if not line.startswith("#")]
    verdict = (
        "the hosts match, so the code moved the numbers"
        if here == there
        else "the hosts differ, and rounding may differ with them"
    )
    return "\n".join(
        ["this host:", *(f"  {line}" for line in here),
         "golden host:", *(f"  {line}" for line in there), verdict]
    )


def _report_mismatch(new: bytes, golden: bytes) -> str:
    """Each report line that differs from the golden, as key: golden -> new."""

    def entries(report: bytes) -> dict[str, str]:
        return dict(line.partition(" = ")[::2] for line in report.decode().splitlines())

    old, cur = entries(golden), entries(new)
    moved = [
        f"  {key}: golden {old.get(key)} -> new {cur.get(key)}"
        for key in sorted(old.keys() | cur.keys())
        if old.get(key) != cur.get(key)
    ]
    return "\n".join(["report deviates from the golden run:", *moved, _hosts()])


def _trace_mismatch(new: bytes, golden: bytes) -> str:
    """How many trace lines differ from the golden, and the first differing
    line and column with both values (an absent line or cell reads '')."""
    lines = list(zip_longest(golden.decode().splitlines(), new.decode().splitlines(), fillvalue=""))
    differing = [i for i, (old, cur) in enumerate(lines) if old != cur]
    first = differing[0]
    cells = list(zip_longest(*(line.split(",") for line in lines[first]), fillvalue=""))
    column = next(j for j, (old, cur) in enumerate(cells) if old != cur)
    header = lines[0][0].split(",")
    name = header[column] if column < len(header) else f"#{column}"
    return (
        f"trace deviates from the golden run: {len(differing)} of {len(lines)} lines differ; "
        f"first at line {first + 1}, column {name}: golden {cells[column][0]!r} -> "
        f"new {cells[column][1]!r}\n{_hosts()}"
    )


def test_golden_mismatch_messages_name_both_hosts():
    # Only the messages read the fingerprints; the comparisons stay byte-exact.
    assert GOLDEN_HOST.exists(), "golden host missing; run: python tests/data/regenerate.py"
    here = host_fingerprint()
    assert re.fullmatch(r"numpy = \S+\nsimd_baseline = .+\nsimd_found = .*\n", here), here
    trace = b"k,F\n0,1.5\n"
    for message in (_report_mismatch(b"a = 2\n", b"a = 1\n"),
                    _trace_mismatch(trace.replace(b"1.5", b"2.5"), trace)):
        assert "this host:\n  " + here.splitlines()[0] in message
        assert "\ngolden host:\n  numpy = " in message
        assert message.endswith(("the hosts match, so the code moved the numbers",
                                 "the hosts differ, and rounding may differ with them"))


@pytest.fixture(scope="module")
def regs():
    return {
        (name, s2): Regularizer(Denoiser(make_marginal(name, s2)))
        for name in FIXTURE_NAMES
        for s2 in SIGMA2S
    }


def run_deblur_experiment():
    """The seed-locked 32x32 deblurring problem behind criterion 7."""
    side = 32
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (side, side))
    prior = make_prior("gmix2", dimension=side * side)
    den = Denoiser(Marginal(prior, NoiseModel(0.04)))
    reg = Regularizer(den)
    truth = np.asarray(prior.sample(1, seed=0)).reshape(-1)
    noise = np.random.default_rng(1).standard_normal(side * side)
    y = op.apply(truth) + math.sqrt(0.04) * noise
    fid = Fidelity.auto(op, y)
    cfg = pnp.SolverConfig(max_iters=500, init=pnp.Init.ADJOINT_OBSERVATION)
    trace = pnp.run(fid, reg, cfg)
    return trace, truth, y, fid


@pytest.fixture(scope="module")
def deblur_run():
    start = time.monotonic()
    trace, truth, y, fid = run_deblur_experiment()
    return trace, truth, y, fid, time.monotonic() - start


def test_criterion_1_posterior_mean_agreement(regs):
    start = time.monotonic()
    worst = {name: 0.0 for name in FIXTURE_NAMES}
    for (name, s2), reg in regs.items():
        den = reg.denoiser
        grid = reg.default_grid(points=400, half_width_scales=6.0)
        score_form = den.scalar_apply(grid)
        quadrature = np.array([den.posterior_mean(float(z)) for z in grid])
        err = float(np.abs(score_form - quadrature).max())
        tol = 1e-6 if name == "laplace1" else 1e-8
        assert err <= tol, f"{name} sigma2={s2}: max |apply - posterior_mean| {err:.3e} > {tol}"
        worst[name] = max(worst[name], err)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(
        f"CRITERION 1 (score form vs posterior-mean quadrature): PASS "
        f"(gauss1 {worst['gauss1']:.2e}, gmix2 {worst['gmix2']:.2e}, "
        f"laplace1 {worst['laplace1']:.2e}; {elapsed:.1f}s < 10s)"
    )


def test_criterion_2_explicit_matches_envelope(regs):
    start = time.monotonic()
    worst = 0.0
    for (name, s2), reg in regs.items():
        grid = reg.default_grid(points=401, half_width_scales=6.0)
        explicit, in_image = reg.phi_explicit_profile(grid)
        envelope, _ = reg.phi_envelope_profile(grid)
        assert in_image.all(), f"{name} sigma2={s2}: grid left the denoiser image"
        rel = np.abs(explicit - envelope) / np.maximum(1.0, np.abs(explicit))
        bad = rel > 1e-6
        assert not bad.any(), (
            f"{name} sigma2={s2}: routes disagree at {int(bad.sum())} of "
            f"{grid.size} points, worst relative error {rel.max():.3e}"
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(
        f"CRITERION 2 (explicit vs envelope route, 401 points x 6 cases): PASS "
        f"(worst relative error {worst:.2e}; {elapsed:.1f}s < 60s)"
    )


def test_criterion_3_weak_convexity_certificates(regs):
    margins = []
    for (name, s2), reg in regs.items():
        worst = reg.weak_convexity_certificate(reg.default_grid(points=401))
        assert worst >= -CONVEXITY_TOL, f"{name} sigma2={s2}: min second difference {worst:.3e}"
        margins.append(worst)
    two_point = Regularizer(Denoiser(TwoPointMarginal()))
    bounded = two_point.weak_convexity_certificate(np.linspace(-0.99, 0.99, 401))
    assert bounded >= -CONVEXITY_TOL, f"two-point fixture: min second difference {bounded:.3e}"
    control = certify_weak_convexity(
        lambda x: -np.asarray(x) ** 2, np.linspace(-3.0, 3.0, 401)
    )
    assert control < -CONVEXITY_TOL, "concave control was not flagged"
    print(
        f"CRITERION 3 (shifted-curvature certificate): PASS "
        f"(worst fixture margin {min(margins):.4f}, two-point {bounded:.4f}, "
        f"control min {control:.2f} correctly FAILs)"
    )


def test_criterion_4_envelope_sandwich():
    grid = np.linspace(-3.0, 3.0, 121)
    cases = {
        "quadratic": lambda y: 0.5 * np.asarray(y) ** 2,
        "absolute": lambda y: np.abs(y),
        "cosine": lambda y: np.cos(3.0 * np.asarray(y)),
    }
    gaps = {}
    for name, f in cases.items():

        def lower_values(ys, f=f):
            vals, _ = moreau.lower_envelope_many(f, 1.0, ys)
            return vals

        outer, _ = moreau.upper_envelope_many(lower_values, 1.0, grid)
        gap = f(grid) - outer  # >= 0 means upper-of-lower sits below f
        gaps[name] = (float(gap.min()), float(gap.max()))
        assert gap.min() >= -1e-7, f"{name}: upper-of-lower exceeds f by {-gap.min():.3e}"
    lo, hi = gaps["quadratic"]
    assert max(abs(lo), abs(hi)) <= 1e-7, f"quadratic should be recovered exactly, gap [{lo:.1e}, {hi:.1e}]"
    assert gaps["cosine"][1] > 0.1, f"cosine gap never exceeds 0.1 (max {gaps['cosine'][1]:.3f})"
    print(
        f"CRITERION 4 (upper-of-lower envelope sandwich): PASS "
        f"(quadratic |gap| <= {max(abs(lo), abs(hi)):.1e}, absolute gap >= {gaps['absolute'][0]:.1e}, "
        f"cosine max gap {gaps['cosine'][1]:.3f} > 0.1)"
    )


def test_criterion_5_envelope_gradient_identity(regs):
    rng = np.random.default_rng(11)
    h = 1e-4
    worst = 0.0
    for (name, s2), reg in regs.items():
        marg = reg.marginal
        fz = lambda ys, m=marg: np.asarray(m.scalar_f(ys)[0])
        # stay clear of the symmetric mixture's centre, where the prox is
        # genuinely two-valued and the gradient identity does not apply
        pts = rng.uniform(0.15, 4.5, size=20) * rng.choice([-1.0, 1.0], size=20)
        for x in pts:
            g = moreau.envelope_gradient(fz, 1.0, float(x))
            lo = moreau.lower_envelope(fz, 1.0, float(x) - h).value
            hi = moreau.lower_envelope(fz, 1.0, float(x) + h).value
            fd = (hi - lo) / (2.0 * h)
            rel = abs(g - fd) / max(1.0, abs(fd))
            assert rel <= 1e-5, f"{name} sigma2={s2} at x={x:.4f}: relative error {rel:.3e}"
            worst = max(worst, rel)
    print(
        f"CRITERION 5 (envelope gradient vs central differences, 20 random "
        f"points x 6 cases): PASS (worst relative error {worst:.2e})"
    )


def test_criterion_6_marginal_reconstruction(regs):
    worst_err = 0.0
    worst_spread = 0.0
    for (name, s2), reg in regs.items():
        grid = reg.default_grid(points=401, half_width_scales=6.0)

        def phi_values(ys, reg=reg):
            arr = np.asarray(ys, dtype=float)
            vals, _ = reg.phi_explicit_profile(arr.reshape(-1))
            return vals.reshape(arr.shape)

        m1, _ = moreau.lower_envelope_many(phi_values, 1.0, grid)
        fz = np.asarray(reg.marginal.scalar_f(grid)[0])
        err = float(np.abs(m1 / s2 + reg.c_anchor - fz).max())
        assert err <= 1e-6, f"{name} sigma2={s2}: reconstruction misses f_Z by {err:.3e}"
        anchors = [reg.c_constant(a) for a in (0.0, 0.5, -1.0)]
        spread = max(anchors) - min(anchors)
        assert spread <= 1e-6, f"{name} sigma2={s2}: anchor constants spread {spread:.3e}"
        worst_err = max(worst_err, err)
        worst_spread = max(worst_spread, spread)
    print(
        f"CRITERION 6 (marginal reconstructed from the regularizer): PASS "
        f"(worst grid error {worst_err:.2e}, worst anchor spread {worst_spread:.2e})"
    )


def test_criterion_7_deblur_convergence(deblur_run, tmp_path):
    trace, truth, y, fid, elapsed = deblur_run
    assert elapsed < 300.0, f"solve took {elapsed:.0f}s, budget 300s"
    L = fid.lipschitz()
    assert L == pytest.approx(0.99, rel=1e-9)

    slacks = pnp.descent_check(trace)
    assert len(slacks) == 500
    assert min(slacks) >= -1e-9, f"worst descent slack {min(slacks):.3e}"

    cert = pnp.rate_certificate(trace)
    assert cert.C == pytest.approx((1.0 + L) / math.sqrt((1.0 - L) / 2.0), rel=1e-12)
    assert cert.violations == (), f"rate bound violated at k={cert.violations[:5]}..."

    gain = pnp.psnr(trace.final_x, truth) - pnp.psnr(y, truth)
    assert gain >= 2.0, f"psnr gain {gain:.2f} dB < 2 dB"

    first = trace.records[0].best_residual
    last = trace.records[-1].best_residual
    assert last <= first / 10.0, f"best residual shrank only {first / max(last, 1e-300):.1f}x"

    out = tmp_path / "trace.csv"
    pnp.write_trace_csv(trace, out, truth=truth)
    assert GOLDEN_TRACE.exists(), "golden trace missing; run: python tests/data/regenerate.py"
    new, golden = out.read_bytes(), GOLDEN_TRACE.read_bytes()
    assert new == golden, _trace_mismatch(new, golden)
    print(
        f"CRITERION 7 (32x32 deblurring convergence): PASS "
        f"(psnr gain {gain:.2f} dB, worst slack {min(slacks):.2e}, "
        f"residual shrink {first / max(last, 1e-300):.1e}x, 0 rate violations, "
        f"{elapsed:.0f}s < 300s, trace byte-identical to golden)"
    )


def test_criterion_8_prox_matches_denoiser(regs):
    worst = 0.0
    for (name, s2), reg in regs.items():
        zs = reg.default_grid(points=50, half_width_scales=3.0)

        def envelope_values(ys, reg=reg):
            vals, _ = reg.phi_envelope_profile(np.asarray(ys, dtype=float).reshape(-1))
            return vals

        _, prox_points = moreau.lower_envelope_many(envelope_values, 1.0, zs)
        applied = reg.denoiser.scalar_apply(zs)
        err = float(np.abs(prox_points - applied).max())
        assert err <= 1e-6, f"{name} sigma2={s2}: numerical prox misses denoiser by {err:.3e}"
        worst = max(worst, err)
    print(
        f"CRITERION 8 (numerical prox of the envelope equals the denoiser, "
        f"50 points x 6 cases): PASS (worst error {worst:.2e})"
    )


def test_criterion_9_certificate_determinism(tmp_path):
    config = tmp_path / "cert.ini"
    config.write_text(CERT_CONFIG, encoding="utf-8")
    rc_a = cli.main(["certificate-suite", "--config", str(config), "--out", str(tmp_path / "a")])
    rc_b = cli.main(["certificate-suite", "--config", str(config), "--out", str(tmp_path / "b")])
    assert rc_a == 0 and rc_b == 0
    report_a = (tmp_path / "a_certificates.txt").read_bytes()
    report_b = (tmp_path / "b_certificates.txt").read_bytes()
    assert report_a == report_b, "repeated runs with the same seed differ"
    assert GOLDEN_CERTIFICATES.exists(), (
        "golden certificates missing; run: python tests/data/regenerate.py"
    )
    golden = GOLDEN_CERTIFICATES.read_bytes()
    assert report_a == golden, _report_mismatch(report_a, golden)
    assert report_a.decode().rstrip().endswith("overall = PASS")
    print(
        "CRITERION 9 (certificate-suite determinism): PASS "
        "(two seeded runs byte-identical, match golden, overall = PASS)"
    )
