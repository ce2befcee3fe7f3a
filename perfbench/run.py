"""Benchmark of the mmseprox chain f_Z -> D -> phi -> PnP, end to end and per layer.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload deblur-32-objective --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: several set-up probes, then
a closed loop of workload executions (one process at a time, each started
after the previous one ended) for ``--seconds`` seconds.  Times of the
executions are reported from the fastest one, set-up time as the median
of the probes; ``README.md`` says why.
``--trace 1`` runs the workload once untraced and once traced, checks that
both wrote identical outputs, and reports the per-layer metrics.  Every
execution's outputs pass through the workload's correctness gates.  The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
# Every run must end within 180 s; leave room for the final checks.
DEADLINE_S = 165.0

# name -> (unit, better, statistic over the run's samples).  On a shared
# host the CPU speed can drift by up to 2x over tens of seconds with the
# load of other tenants; the fastest execution of a run is the figure that
# drift moves least, so execution times take the best sample.
END_TO_END = {
    "wall_s": ("s", "lower", "lowest"),
    "setup_s": ("s", "lower", "median"),
    "throughput": ("1/s", "higher", "highest"),
    "peak_rss_mb": ("MB", "lower", "median"),
    "psnr_db": ("dB", "higher", "median"),
    "gate_pass_ratio": ("ratio", "higher", "median"),
}
STATISTICS = {"lowest": min, "highest": max, "median": statistics.median}

# name -> unit; "<span>.<field>" names are read from the span totals, the
# others are derived by tracing.summarize (or, for trace_overhead_s, here).
PER_LAYER = {
    "marginal.scalar_f.calls": "count",
    "marginal.scalar_f.points": "count",
    "marginal.scalar_f.self_s": "s",
    "denoiser.scalar_apply.points": "count",
    "denoiser.scalar_apply.self_s": "s",
    "denoiser.scalar_invert.points": "count",
    "denoiser.scalar_invert.self_s": "s",
    "denoiser.invert_evals_per_point": "ratio",
    "denoiser.posterior_mean.points": "count",
    "denoiser.posterior_mean.self_s": "s",
    "regularizer.init.self_s": "s",
    "regularizer.phi_total.calls": "count",
    "regularizer.phi_total.self_s": "s",
    "regularizer.phi_envelope_profile.self_s": "s",
    "regularizer.phi_explicit_profile.self_s": "s",
    "moreau.upper_envelope_many.points": "count",
    "moreau.upper_envelope_many.self_s": "s",
    "moreau.upper_evals_per_point": "ratio",
    "moreau.lower_envelope_many.points": "count",
    "moreau.lower_envelope_many.self_s": "s",
    "moreau.lower_envelope.calls": "count",
    "moreau.lower_envelope.self_s": "s",
    "operators.grad.calls": "count",
    "operators.grad.self_s": "s",
    "operators.grad.incl_s": "s",
    "operators.fft.self_s": "s",
    "operators.ffts_per_grad": "ratio",
    "operators.fft_mb": "MB",
    "operators.fft_calls": "count",
    "operators.value.self_s": "s",
    "operators.operator_norm.self_s": "s",
    "pnp.run.calls": "count",
    "pnp.iterations": "count",
    "pnp.iter_s": "s",
    "pnp.iterates_mb": "MB",
    "pnp.objective_share": "ratio",
    "pnp.denoise_grad_share": "ratio",
    "pnp.write_trace_csv.self_s": "s",
    "textio.write_text.calls": "count",
    "textio.write_text.bytes": "B",
    "textio.write_text.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


@dataclasses.dataclass
class Execution:
    wall_s: float
    rss_mb: float
    digest: str
    gates: list
    psnr_db: float
    report: dict


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.src = root / "src"
        self.w = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(self.src), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def _spawn(self, mode: str, spec: dict, cwd: Path) -> tuple[dict, float]:
        """Run one child process to completion; returns its report and start time."""
        spec_path, report_path = cwd / "spec.json", cwd / "report.json"
        spec_path.write_text(json.dumps({**spec, "report": str(report_path)}), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next process")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
                cwd=cwd, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"{mode} process exceeded the time left ({remaining:.0f} s)") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if not Path(report["module"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"mmseprox was imported from {report['module']}, not {self.src}")
        return report, t0

    def _fresh_dir(self) -> Path:
        self.count += 1
        d = self.work / f"p{self.count}"
        d.mkdir(parents=True)
        return d

    def setup_probe(self) -> float:
        d = self._fresh_dir()
        report, t0 = self._spawn("setup", self.w.model_spec(self.seed), d)
        shutil.rmtree(d)
        return report["t_end"] - t0

    def execute(self, trace: bool, reference: str | None = None) -> Execution:
        """One workload process, its outputs gated (and compared with ``reference``)."""
        d = self._fresh_dir()
        (d / "cfg.ini").write_text(self.w.config(self.seed, "out/w"), encoding="utf-8")
        argv = [self.w.command, "--config", "cfg.ini"]
        report, t0 = self._spawn("run", {"argv": argv, "trace": trace}, d)
        digest = _digest(d / "out")
        gates, psnr_db = workloads.check(self.w, d / "out", report["code"])
        if reference is not None:
            gates.append(("same_outputs_as_first", digest == reference))
        shutil.rmtree(d)
        return Execution(report["t_end"] - t0, report["rss_kb"] / 1024.0, digest, gates,
                         psnr_db, report)

    def timed(self, seconds: float):
        # Set-up probes are interleaved with the executions, so that a burst
        # of load from other tenants of the machine hits both alike.
        setups: list[float] = []
        runs: list[Execution] = []
        durations: list[float] = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            if len(setups) < SETUP_PROBES:
                setups.append(self.setup_probe())
            runs.append(self.execute(False, runs[0].digest if runs else None))
            durations.append(time.monotonic() - t)
            elapsed = time.monotonic() - start
            left = self.deadline - time.monotonic()
            if elapsed + statistics.median(durations) > seconds or 2.0 * max(durations) > left:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        gates = [g for r in runs for g in r.gates]
        # Only executions that passed every gate are timing samples; with
        # none, the timings are undefined and the result is incorrect.
        good = [r for r in runs if all(ok for _, ok in r.gates)]
        walls = [r.wall_s for r in good]
        # Work per second beyond set-up, both taken at their fastest.
        rates = [self.w.work_units / max(wall - min(setups), 1e-9) for wall in walls]
        failed = sum(not ok for _, ok in gates)
        samples = {
            "wall_s": walls,
            "setup_s": setups,
            "throughput": rates,
            "peak_rss_mb": [r.rss_mb for r in good],
            "psnr_db": [r.psnr_db for r in good],
            "gate_pass_ratio": [1.0 - failed / len(gates)],
        }
        metrics = {name: STATISTICS[END_TO_END[name][2]](values) if values else math.nan
                   for name, values in samples.items()}
        return metrics, samples, gates

    def traced(self):
        plain = self.execute(False)
        traced = self.execute(True)
        layers = traced.report["layers"]
        totals, derived = layers["totals"], layers["derived"]
        gates = plain.gates + traced.gates + [
            ("traced_outputs_identical", plain.digest == traced.digest),
            ("originals_restored", bool(traced.report["restored"])),
        ] + [(f"span_hit.{s}", totals.get(s, {}).get("calls", 0) >= 1)
             for s in self.w.expected_spans]
        derived["trace_overhead_s"] = traced.wall_s - plain.wall_s
        metrics = {}
        for name in PER_LAYER:
            if name in derived:
                metrics[name] = derived[name]
            else:
                span, field = name.rsplit(".", 1)
                t = totals.get(span, {})
                metrics[name] = t.get("extra", 0) if field == "bytes" else t.get(field, 0)
        return metrics, {name: [v] for name, v in metrics.items()}, gates, layers["spans"]


def _source_id(root: Path) -> str:
    """The git commit when the checkout is a repository, else a digest of src/."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return "git " + (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return "git " + ref
    except OSError:
        h = hashlib.sha256()
        for path in sorted((root / "src").rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
        return "sha256(src/**/*.py) " + h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source": _source_id(root),
        "seed": seed,
        "threads": "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mmseprox" / "__init__.py").is_file():
        print("error: src/mmseprox not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    w = workloads.WORKLOADS[args.workload]
    bench = Bench(root, w, args.seed)
    try:
        if args.trace:
            metrics, samples, gates, spans = bench.traced()
        else:
            metrics, samples, gates = bench.timed(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else {k: u for k, (u, _, _) in END_TO_END.items()}
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment(root, args.seed)))
    for name, value in metrics.items():
        values = samples[name]
        spread = (f"; median {statistics.median(values):.6g}, min {min(values):.6g}, "
                  f"max {max(values):.6g}" if len(values) > 1 else "")
        statistic = "median" if args.trace else END_TO_END[name][2]
        print(f"metric {name} = {value:.6g} {units[name]} ({statistic} of {len(values)} "
              f"sample{'s' if len(values) > 1 else ''}{spread})")
    if args.trace:
        print(f"spans recorded {spans}")
    failed = [name for name, ok in gates if not ok]
    print(f"gates {len(gates)} attempted, {len(failed)} failed" +
          (": " + ", ".join(failed) if failed else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        # A metric left undefined by failed gates (no timing sample, an
        # unreadable output) reads 0; the result is then marked incorrect.
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
