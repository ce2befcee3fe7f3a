"""One benchmark process: either a set-up probe or one workload execution.

    python3 child.py setup <spec.json>   import mmseprox and build the models
    python3 child.py run <spec.json>     call mmseprox.cli.main on spec["argv"]

The parent starts the clock before spawning this process; the child writes
``time.monotonic()`` (system-wide on Linux) at the moment its last output is
written, plus its peak resident memory, to ``spec["report"]``.  With
``spec["trace"]`` the run is traced and the per-layer summary is added
after the clock has stopped.
"""

import json
import math
import resource
import sys
import time
from pathlib import Path


def _build_models(spec: dict) -> None:
    import numpy as np

    from mmseprox import (
        CircularConv2D, ComponentKind, Denoiser, Fidelity, Marginal, MixturePrior, NoiseModel,
        Regularizer,
    )
    from mmseprox.operators import gaussian_blur_kernel

    p, side = spec["prior"], spec["side"]
    prior = MixturePrior.from_arrays(
        kinds=[ComponentKind(k) for k in p["kinds"]], weights=p["weights"],
        locations=p["locations"], scales=p["scales"], dimension=side * side if side else None,
    )
    Regularizer(Denoiser(Marginal(prior, NoiseModel(spec["sigma2"]))))
    if side:
        op = CircularConv2D(gaussian_blur_kernel(*spec["blur"]), (side, side))
        seed = spec["seed"]
        truth = np.asarray(prior.sample(1, seed=seed)).reshape(-1)
        noise = np.random.default_rng(seed + 1).standard_normal(side * side)
        Fidelity.auto(op, op.apply(truth) + math.sqrt(spec["measurement_sigma2"]) * noise)


def main() -> int:
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    report = {}
    if mode == "setup":
        _build_models(spec)
        report["t_end"] = time.monotonic()
    else:
        from mmseprox import cli

        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        try:
            report["code"] = cli.main(spec["argv"])
        finally:
            if tracer is not None:
                tracer.restore()
        report["t_end"] = time.monotonic()
        if tracer is not None:
            report["restored"] = tracer.restored()
            report["layers"] = tracing.summarize(tracer.spans)
    import mmseprox

    report["module"] = mmseprox.__file__
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
