"""The benchmark under ``perfbench/`` drives the package from outside: it
wraps package functions by name and builds package types from the files a
run writes.  These checks fail when a change breaks what it relies on."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from mmseprox import cli  # noqa: E402


def test_tracer_wraps_and_restores_every_name():
    # install raises when a wrapped name is gone or its aliases split.
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()
    assert tracer.restored()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_probe_builds_its_models(name):
    # The set-up probe builds package types by their own constructors (for
    # example from_arrays with dimension=, Fidelity.auto and
    # gaussian_blur_kernel); a run whose probe fails measures nothing.
    child._build_models(workloads.toy(workloads.WORKLOADS[name]).model_spec(3))


@pytest.mark.parametrize("name", ["deblur-32-objective", "deblur-256-plain", "certificates-gmix2"])
def test_deblur_workloads_pass_their_gates(name, tmp_path):
    # Runs traced, as a traced benchmark run does: every expected span must
    # be reached (its span_hit gate), e.g. operator_norm on the class the
    # tracer wraps, and the gradient must cost two FFTs.  The certificate
    # suite is the workload that reaches the inversion spans.
    w = workloads.toy(workloads.WORKLOADS[name])
    config = tmp_path / "cfg.ini"
    config.write_text(w.config(3, str(tmp_path / "w")), encoding="utf-8")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main([w.command, "--config", str(config)])
    finally:
        tracer.restore()
    assert tracer.restored()
    gates, _ = workloads.check(w, tmp_path, code)
    assert gates and all(ok for _, ok in gates), gates
    summary = tracing.summarize(tracer.spans)
    missed = [s for s in w.expected_spans if summary["totals"].get(s, {}).get("calls", 0) < 1]
    assert not missed, missed
    assert summary["derived"]["operators.ffts_per_grad"] == 2
