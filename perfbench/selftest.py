"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/selftest.py -q

It drives every workload's code path through ``run.main`` with the workload
swapped for its toy size (an 8x8 deblur; the certificate suite has fixed
sizes and takes about 15 s), checks that every metric is
printed with its unit, that a corrupted output is counted as a failed gate
and never timed, that tracing restores what it patched, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, workload, workloads.toy(workloads.WORKLOADS[workload]))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    stdout = capsys.readouterr().out
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    expected = run.PER_LAYER if trace else {k: u for k, (u, _, _) in run.END_TO_END.items()}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (" in line
                   for line in stdout.splitlines()), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result


def _zero_reconstruction(out: Path) -> None:
    path = out / "w_reconstruction.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(",".join("0" for _ in r.split(",")) for r in rows) + "\n",
                    encoding="utf-8")


def test_corrupted_output_counts_as_failure(monkeypatch):
    digest = run._digest

    def corrupt_then_digest(out: Path) -> str:
        _zero_reconstruction(out)
        return digest(out)

    monkeypatch.setattr(run, "_digest", corrupt_then_digest)
    w = workloads.toy(workloads.WORKLOADS["deblur-256-plain"])
    bench = run.Bench(ROOT, w, seed=3)
    try:
        metrics, _, gates = bench.timed(5.0)
    finally:
        shutil.rmtree(bench.work.parent, ignore_errors=True)
    assert ("psnr_gain", False) in gates
    assert metrics["gate_pass_ratio"] < 1.0
    # Every execution wrote the same wrong bytes; each one is counted.
    executions = gates.count(("exit_0", True))
    assert executions >= 2 and gates.count(("psnr_gain", False)) == executions
    # No execution passed, so nothing was timed.
    assert math.isnan(metrics["wall_s"]) and math.isnan(metrics["throughput"])


def test_corrupted_certificate_report_fails_its_gates(tmp_path):
    report = "\n".join([*(f"{n} = PASS" for n in workloads.CERTIFICATES),
                        "prox_consistency.max_abs_err = 1e-8", "overall = FAIL"])
    (tmp_path / "w_certificates.txt").write_text(report + "\n", encoding="utf-8")
    w = workloads.WORKLOADS["certificates-gmix2"]
    gates, _ = workloads.check(w, tmp_path, 0)
    assert [name for name, ok in gates if not ok] == ["overall_pass"]


def test_tracer_restores_every_patched_name():
    from mmseprox import cli, marginal, pnp, regularizer, textio

    before = (marginal.Marginal.scalar_f, pnp.run, cli.write_text, pnp.write_text,
              regularizer.write_text, textio.write_text, cli.main)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert pnp.run is not before[1] and cli.write_text is textio.write_text
    tracer.restore()
    assert tracer.restored()
    after = (marginal.Marginal.scalar_f, pnp.run, cli.write_text, pnp.write_text,
             regularizer.write_text, textio.write_text, cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "deblur-32-objective", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
            == {k: v[:2] for k, v in run.END_TO_END.items()})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
