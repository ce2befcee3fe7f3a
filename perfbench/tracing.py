"""Span tracer that wraps the package's public functions from outside.

Nothing in the package is edited: ``install`` replaces each traced function
at every name its callers look it up by (a class attribute, a module
attribute, or a module global created by ``from x import name``), records
one span per call and ``restore`` puts the originals back.  Spans are kept
in memory as ``[name, start, end, parent, points, extra]``; ``summarize``
turns them into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []

    def wrap(self, name: str, locations, measure=None) -> None:
        """Trace the callable found at every ``(namespace, attr)`` in ``locations``.

        ``measure(args, result)`` returns ``(points, extra)`` for the span;
        by default no points are counted.
        """
        owner, attr = locations[0]
        original = vars(owner)[attr]
        for other, other_attr in locations[1:]:
            if vars(other)[other_attr] is not original:
                raise RuntimeError(f"{name}: {other_attr} is not the same object everywhere")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4], span[5] = measure(args, result)
            return result

        for target, target_attr in locations:
            setattr(target, target_attr, wrapper)
            self._patches.append((target, target_attr, original))

    def restore(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
            self._restored.append((target, attr, original))

    def restored(self) -> bool:
        """True when every patched name holds its original object again."""
        return not self._patches and all(
            vars(target)[attr] is original for target, attr, original in self._restored
        )


def _size(i):
    return lambda args, result: (int(np.size(args[i])), 0)


def _fft_bytes(args, result):
    return int(np.size(result)), int(np.asarray(args[0]).nbytes + result.nbytes)


def _text_bytes(args, result):
    return 0, len(args[1].encode("utf-8"))


def _solver_trace(args, result):
    return len(result.records), sum(int(x.nbytes) for x in result.iterates)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every package module."""
    from mmseprox import cli, denoiser, marginal, moreau, operators, pnp, prior, regularizer, textio

    Den, Reg, Fid = denoiser.Denoiser, regularizer.Regularizer, operators.Fidelity
    table = [
        ("cli.main", [(cli, "main")], None),
        ("prior.scalar_log_pdf", [(prior.MixturePrior, "scalar_log_pdf")], _size(1)),
        ("marginal.scalar_f", [(marginal.Marginal, "scalar_f")], _size(1)),
        ("denoiser.apply", [(Den, "apply")], _size(1)),
        ("denoiser.scalar_apply", [(Den, "scalar_apply")], _size(1)),
        ("denoiser.scalar_derivative", [(Den, "scalar_derivative")], _size(1)),
        ("denoiser.scalar_invert", [(Den, "scalar_invert")], _size(1)),
        ("denoiser.posterior_mean", [(Den, "posterior_mean")], _size(1)),
        ("regularizer.init", [(Reg, "__init__")], None),
        ("regularizer.c_constant", [(Reg, "c_constant")], None),
        ("regularizer.phi_total", [(Reg, "phi_total")], _size(1)),
        ("regularizer.phi_envelope_profile", [(Reg, "phi_envelope_profile")], _size(1)),
        ("regularizer.phi_explicit_profile", [(Reg, "phi_explicit_profile")], _size(1)),
        ("regularizer.weak_convexity_certificate", [(Reg, "weak_convexity_certificate")], _size(1)),
        ("regularizer.write_curves_csv", [(Reg, "write_curves_csv")], _size(1)),
        (
            "regularizer.certify_weak_convexity",
            [(regularizer, "certify_weak_convexity"), (cli, "certify_weak_convexity")],
            _size(1),
        ),
        ("moreau.upper_envelope_many", [(moreau, "upper_envelope_many")], _size(2)),
        ("moreau.lower_envelope_many", [(moreau, "lower_envelope_many")], _size(2)),
        ("moreau.lower_envelope", [(moreau, "lower_envelope")], None),
        ("moreau.upper_envelope", [(moreau, "upper_envelope")], None),
        ("moreau.envelope_gradient", [(moreau, "envelope_gradient")], None),
        ("operators.operator_norm", [(operators.LinearOperator, "operator_norm")], None),
        ("operators.apply", [(operators.CircularConv2D, "apply")], _size(1)),
        ("operators.adjoint", [(operators.CircularConv2D, "adjoint")], _size(1)),
        ("operators.grad", [(Fid, "grad")], _size(1)),
        ("operators.value", [(Fid, "value")], _size(1)),
        ("fft.rfft2", [(np.fft, "rfft2")], _fft_bytes),
        ("fft.irfft2", [(np.fft, "irfft2")], _fft_bytes),
        ("pnp.run", [(pnp, "run")], _solver_trace),
        ("pnp.descent_check", [(pnp, "descent_check")], None),
        ("pnp.rate_certificate", [(pnp, "rate_certificate")], None),
        ("pnp.psnr", [(pnp, "psnr")], None),
        ("pnp.write_trace_csv", [(pnp, "write_trace_csv")], None),
        (
            "textio.write_text",
            [(textio, "write_text"), (cli, "write_text"), (pnp, "write_text"),
             (regularizer, "write_text")],
            _text_bytes,
        ),
    ]
    for name, locations, measure in table:
        tracer.wrap(name, locations, measure)


FFT = ("fft.rfft2", "fft.irfft2")


def summarize(spans: list[list]) -> dict:
    """Per-name totals plus the cross-layer ratios, from the raw spans."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def nearest(i: int, names) -> int:
        p = spans[i][3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        return p

    totals = defaultdict(lambda: {"calls": 0, "points": 0, "self_s": 0.0, "incl_s": 0.0, "extra": 0})
    for i, (name, start, end, _, points, extra) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["points"] += points
        t["extra"] += extra
        t["self_s"] += (end - start) - child_time[i]
        if nearest(i, (name,)) < 0:
            t["incl_s"] += end - start

    # Work done inside a layer, attributed to the nearest enclosing span.
    evals_in = defaultdict(int)  # scalar_f points per enclosing span index
    grad_ffts = {"calls": 0, "bytes": 0}
    run_parts = defaultdict(float)  # inclusive time of named spans under pnp.run
    for i, s in enumerate(spans):
        name = s[0]
        if name == "marginal.scalar_f":
            for owner in ("moreau.upper_envelope_many", "denoiser.scalar_invert"):
                j = nearest(i, (owner,))
                if j >= 0:
                    evals_in[j] += s[4]
        elif name in FFT and nearest(i, ("operators.grad",)) >= 0:
            grad_ffts["calls"] += 1
            grad_ffts["bytes"] += s[5]
        if name in ("regularizer.phi_total", "operators.value", "denoiser.scalar_apply",
                    "operators.grad"):
            if nearest(i, ("pnp.run",)) >= 0 and nearest(i, (name,)) < 0:
                run_parts[name] += s[2] - s[1]

    def per_point(owner: str) -> float:
        # Only spans whose evaluator actually reached f_Z count: the
        # certificate suite also runs envelopes of plain test functions.
        idx = [i for i, s in enumerate(spans) if s[0] == owner and evals_in.get(i, 0) > 0]
        points = sum(spans[i][4] for i in idx)
        return sum(evals_in[i] for i in idx) / points if points else 0.0

    run = totals.get("pnp.run")
    run_s = run["incl_s"] if run else 0.0
    iterations = run["points"] if run else 0
    grads = totals["operators.grad"]["calls"] if "operators.grad" in totals else 0
    derived = {
        "denoiser.invert_evals_per_point": per_point("denoiser.scalar_invert"),
        "moreau.upper_evals_per_point": per_point("moreau.upper_envelope_many"),
        "operators.ffts_per_grad": grad_ffts["calls"] / grads if grads else 0.0,
        "operators.fft_mb": grad_ffts["bytes"] / 1e6,
        "operators.fft_calls": sum(totals[f]["calls"] for f in FFT if f in totals),
        "operators.fft.self_s": sum(totals[f]["self_s"] for f in FFT if f in totals),
        "pnp.iterations": iterations,
        "pnp.iter_s": run_s / iterations if iterations else 0.0,
        "pnp.iterates_mb": (run["extra"] if run else 0) / 1e6,
        "pnp.objective_share": (
            (run_parts["regularizer.phi_total"] + run_parts["operators.value"]) / run_s
            if run_s else 0.0
        ),
        "pnp.denoise_grad_share": (
            (run_parts["denoiser.scalar_apply"] + run_parts["operators.grad"]) / run_s
            if run_s else 0.0
        ),
    }
    return {"spans": n, "totals": dict(totals), "derived": derived}
