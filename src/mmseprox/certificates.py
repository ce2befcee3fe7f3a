"""The certificate suite: the paper's claims, checked numerically.

Eight checks test that the denoiser is the prox of phi, that phi is sigma2
times the upper Moreau envelope of f_Z, that phi is 1-weakly convex and
that PnP proximal gradient descends at the k^{-1/2} rate.  A certificate
PASSes iff every gate row (metric, comparison, threshold) of its check
holds; a missing or NaN metric fails its row, and a numerical failure
inside a check leaves it no metrics.  Envelope and solver functions are
called through their modules (``moreau.*``, ``pnp.*``), where a tracer that
wraps module attributes sees them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import moreau, pnp, regularizer
from .denoiser import QuadratureError
from .operators import CircularConv2D, Fidelity, gaussian_blur_kernel, observe
from .regularizer import ImageGridError, Regularizer

__all__ = ["CERTIFICATES", "COMPARISONS", "CONVEXITY_TOL", "NUMERICAL_FAILURES", "passes",
           "run_certificates"]

# How far below zero a second difference of phi + x^2/2 may sit and still
# certify 1-weak convexity, and the descent slack allowed per unit of
# max(1, |F|) for rounding in an objective F.
CONVEXITY_TOL = 1e-5
_DESCENT_TOL = 1e-9

# The errors that mean a computation failed, not that its input was bad.
NUMERICAL_FAILURES = (QuadratureError, moreau.EnvelopeNotUnimodalError, moreau.EnvelopeUnboundedError,
                      moreau.MultivaluedProxError, pnp.DivergenceError)


def _check_tweedie(reg: Regularizer, seed: int) -> dict[str, float]:
    den = reg.denoiser
    grid = reg.default_grid(points=41, half_width_scales=4.0)
    tweedie = den.scalar_apply(grid)
    oracle = den.posterior_mean(grid)
    return {"max_abs_err": float(np.abs(tweedie - oracle).max())}


def _check_route_agreement(reg: Regularizer, seed: int) -> dict[str, float]:
    grid = reg.default_grid(points=101)
    explicit, in_image = reg.phi_explicit_profile(grid)
    envelope, _ = reg.phi_envelope_profile(grid)
    if not in_image.any():
        return {}  # no metric, so the gate fails
    explicit, envelope = explicit[in_image], envelope[in_image]
    rel = np.abs(explicit - envelope) / np.maximum(1.0, np.abs(explicit))
    return {"max_rel_err": float(rel.max())}


def _check_sandwich(reg: Regularizer, seed: int) -> dict[str, float]:
    grid = np.linspace(-3.0, 3.0, 61)
    # name -> (f, whether f is convex, so its inner envelope is unimodal)
    specs = {
        "quadratic": (lambda y: 0.5 * np.asarray(y) ** 2, True),
        "absolute": (lambda y: np.abs(y), True),
        "cosine": (lambda y: np.cos(3.0 * np.asarray(y)), False),
    }
    metrics = {}
    for name, (f, convex) in specs.items():

        def inner(ys, f=f, convex=convex):
            return moreau.lower_envelope_many(f, 1.0, ys, unimodal=convex)[0]

        # M_1 f(y) - (y - x)^2 / 2 is concave for every f: the outer search
        # is unimodal even where the inner one is not
        outer, _ = moreau.upper_envelope_many(inner, 1.0, grid, unimodal=True)
        gap = f(grid) - outer
        metrics[f"{name}_min_gap"] = float(gap.min())
        metrics[f"{name}_max_gap"] = float(gap.max())
    return metrics


def _check_envelope_gradient(reg: Regularizer, seed: int) -> dict[str, float]:
    fz = reg.marginal.scalar_value
    worst = 0.0
    # deliberately asymmetric points: a symmetric bimodal marginal has a
    # genuinely two-valued prox at its symmetry centre, where the gradient
    # identity does not apply
    for x in (-1.9, -0.7, 0.3, 1.2, 2.1):
        g = moreau.envelope_gradient(fz, 1.0, float(x))
        h = 1e-4
        lo = moreau.lower_envelope(fz, 1.0, float(x) - h).value
        hi = moreau.lower_envelope(fz, 1.0, float(x) + h).value
        fd = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(1.0, abs(fd)))
    return {"max_rel_err": worst}


def _check_moreau_identity(reg: Regularizer, seed: int) -> dict[str, float]:
    sigma2 = reg.marginal.sigma2
    grid = reg.default_grid(points=21, half_width_scales=3.0)
    # phi is 1-weakly convex, so phi(y) + (y - x)^2 / 2 has one basin
    m1, _ = moreau.lower_envelope_many(
        lambda ys: reg.phi_explicit_profile(ys)[0], 1.0, grid, unimodal=True
    )
    fz = reg.marginal.scalar_value(grid)
    anchors = [reg.c_constant(a) for a in (0.0, 0.5, -1.0)]
    return {
        "max_abs_err": float(np.abs(m1 / sigma2 + reg.c_anchor - fz).max()),
        "anchor_spread": max(anchors) - min(anchors),
    }


def _check_weak_convexity(reg: Regularizer, seed: int) -> dict[str, float]:
    control = regularizer.certify_weak_convexity(lambda x: -np.asarray(x) ** 2, np.linspace(-3, 3, 201))
    metrics = {"control_min_second_difference": control}
    try:
        metrics["min_second_difference"] = reg.weak_convexity_certificate(reg.default_grid(points=201))
    except ImageGridError:
        pass  # the grid's in-image part is too short or broken: no metric, so the row fails
    return metrics


def _check_prox_consistency(reg: Regularizer, seed: int) -> dict[str, float]:
    zs = reg.default_grid(points=15, half_width_scales=3.0)
    # argmin_y phi(y) + (y-z)^2/2 for each z, by nested envelopes (phi by
    # its envelope route); the objective is convex, as phi is 1-weakly convex
    _, prox_points = moreau.lower_envelope_many(
        lambda ys: reg.phi_envelope_profile(ys)[0], 1.0, zs, unimodal=True
    )
    applied = reg.denoiser.scalar_apply(zs)
    return {"max_abs_err": float(np.abs(prox_points - applied).max())}


def _check_solver_small(reg: Regularizer, seed: int) -> dict[str, float]:
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (12, 12))
    truth, y = observe(reg.marginal.prior, op, 0.04, seed)
    fid = Fidelity.auto(op, y)
    trace = pnp.run(fid, reg, pnp.SolverConfig(max_iters=120, init=pnp.Init.ADJOINT_OBSERVATION))
    margin = min(
        s + _DESCENT_TOL * max(1.0, abs(r.objective_F))
        for s, r in zip(pnp.descent_check(trace), trace.records)
    )
    return {
        "min_descent_margin": float(margin),
        "rate_violations": float(len(pnp.rate_certificate(trace).violations)),
        "psnr_gain_db": pnp.psnr(trace.final_x, truth) - pnp.psnr(y, truth),
    }


# name -> (check, gate rows), in run order
CERTIFICATES = {
    "tweedie_oracle": (_check_tweedie, [("max_abs_err", "<=", 1e-6)]),
    "route_agreement": (_check_route_agreement, [("max_rel_err", "<=", 1e-6)]),
    "sandwich": (_check_sandwich, [
        ("quadratic_min_gap", ">=", -1e-7),
        ("quadratic_max_gap", "<=", 1e-7),
        ("absolute_min_gap", ">=", -1e-7),
        ("cosine_min_gap", ">=", -1e-7),
        ("cosine_max_gap", ">", 0.1),
    ]),
    "envelope_gradient": (_check_envelope_gradient, [("max_rel_err", "<=", 1e-5)]),
    "moreau_identity": (_check_moreau_identity, [
        ("max_abs_err", "<=", 1e-6),
        ("anchor_spread", "<=", 1e-6),
    ]),
    "weak_convexity": (_check_weak_convexity, [
        ("min_second_difference", ">=", -CONVEXITY_TOL),
        ("control_min_second_difference", "<", -CONVEXITY_TOL),
    ]),
    "prox_consistency": (_check_prox_consistency, [("max_abs_err", "<=", 1e-6)]),
    "solver_small": (
        _check_solver_small,
        [("min_descent_margin", ">=", 0.0), ("rate_violations", "<=", 0.0)],
    ),
}

COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def passes(metrics: dict[str, float], gates) -> bool:
    """Whether every gate row holds; NaN compares False, so it fails."""
    return all(
        COMPARISONS[comparison](metrics.get(metric, math.nan), threshold)
        for metric, comparison, threshold in gates
    )


def run_certificates(reg: Regularizer, seed: int) -> dict[str, tuple[dict[str, float], bool, str | None]]:
    """Run every check of ``CERTIFICATES`` in order: name -> (metrics,
    whether every gate row holds, the message of the numerical failure that
    stopped the check, or None)."""
    results = {}
    for name, (check, gates) in CERTIFICATES.items():
        try:
            metrics, failure = check(reg, seed), None
        except NUMERICAL_FAILURES as exc:
            metrics, failure = {}, str(exc)
        results[name] = (metrics, passes(metrics, gates), failure)
    return results
