import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import mmseprox

MODULES = (
    "prior", "marginal", "denoiser", "moreau", "operators", "pnp", "regularizer", "certificates"
)
ROOT = Path(__file__).resolve().parents[1]


def test_package_root_exports_every_public_name():
    for module in MODULES:
        mod = importlib.import_module(f"mmseprox.{module}")
        missing = sorted(set(mod.__all__) - set(mmseprox.__all__))
        assert not missing, f"mmseprox.__all__ lacks {missing} from mmseprox.{module}"
        for name in mod.__all__:
            assert getattr(mmseprox, name) is getattr(mod, name)


def test_no_library_module_imports_cli():
    # cli sits on top: it parses, dispatches and formats, and the library
    # never reaches back into it
    for path in sorted((ROOT / "src" / "mmseprox").glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
                names += [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "cli" for n in names if n), (path.name, names)


def _run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_all_gaussian_runs_never_import_scipy(tmp_path):
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
import numpy as np
from mmseprox import ComponentKind, Denoiser, Marginal, MixturePrior, NoiseModel, Regularizer
prior = MixturePrior.from_arrays(kinds=[ComponentKind.GAUSSIAN] * 2, weights=[0.5, 0.5],
                                 locations=[-2.0, 2.0], scales=[0.5, 0.5])
reg = Regularizer(Denoiser(Marginal(prior, NoiseModel(0.25))))
reg.denoiser.scalar_apply(np.linspace(-3.0, 3.0, 7))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_regenerate_script_imports_from_a_plain_checkout(tmp_path):
    # run_name other than "__main__" imports the script without calling
    # main(), so the golden files are not rewritten.
    script = ROOT / "tests" / "data" / "regenerate.py"
    code = f"""
import runpy
names = runpy.run_path({str(script)!r}, run_name="check")
assert callable(names["main"]) and names["cli"].__name__ == "mmseprox.cli"
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
