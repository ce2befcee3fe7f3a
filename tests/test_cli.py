"""Command-line checks: config parsing, error reporting, and experiment runs."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from mmseprox import EnvelopeNotUnimodalError, Marginal, cli, moreau
from mmseprox.cli import ConfigError, parse_config
from mmseprox.operators import gaussian_blur_kernel
from mmseprox.textio import fmt17

ROOT = Path(__file__).resolve().parents[1]


def write_config(path: Path, text: str) -> Path:
    path.write_text(dedent(text), encoding="utf-8")
    return path


# -- parsing -------------------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(
        dedent(
            """\
            # comment, then a blank line

            [experiment]
            kind = denoiser-check
            seed = 3
            [noise]
            sigma2 = 0.25
            """
        )
    )
    assert cfg.get("experiment", "kind") == "denoiser-check"
    assert cfg.get("experiment", "seed") == 3
    assert cfg.get("noise", "sigma2") == 0.25
    # absent optional key falls back to its default
    assert cfg.get("grid", "points", default=401) == 401


@pytest.mark.parametrize("key", ["length", "matrix_file"])
def test_operator_schema_is_conv2d_only(key):
    with pytest.raises(ConfigError, match=rf"line 3: unknown key '{key}' in section \[operator\]"):
        parse_config(f"[operator]\nkind = conv2d\n{key} = 16\n")


def test_readme_config_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    rc = cli.run_experiment("regularizer-recovery", cfg, str(tmp_path / "mix"), None)
    assert rc == 0
    lines = (tmp_path / "mix_curves.csv").read_text().splitlines()
    assert lines[0] == "x,f_X,f_Z,phi_explicit,phi_envelope,in_image"
    assert len(lines) == 402


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 1: unknown section"):
        parse_config("[bogus]\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'zzz'"):
        parse_config("[noise]\nzzz = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key"):
        parse_config("[noise]\nsigma2 = 1\nsigma2 = 2\n")


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError, match=r"line 3: duplicate section"):
        parse_config("[noise]\nsigma2 = 1\n[noise]\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
        parse_config("[noise]\nsigma2 0.25\n")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError, match="before any"):
        parse_config("sigma2 = 0.25\n")


def test_empty_section_name_rejected():
    with pytest.raises(ConfigError, match="empty section name"):
        parse_config("[ ]\n")


def test_empty_key_rejected():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("[noise]\n= 0.25\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: bad value for noise.sigma2"):
        parse_config("[noise]\nsigma2 = banana\n")


def test_value_parsers():
    assert cli._parse_bool("Yes") is True
    assert cli._parse_bool("off") is False
    with pytest.raises(ValueError):
        cli._parse_bool("maybe")
    with pytest.raises(ValueError):
        cli._parse_float("inf")
    assert cli._parse_float_list("1, 2,3") == [1.0, 2.0, 3.0]
    k = cli._parse_kernel("0.2, 0.5, 0.3")
    assert k.shape == (1, 3)
    k = cli._parse_kernel("1, 2; 3, 4")
    assert k.shape == (2, 2) and k[1, 0] == 3.0
    with pytest.raises(ValueError, match="unequal"):
        cli._parse_kernel("1, 2; 3")


# -- dispatch errors -----------------------------------------------------------

DENOISER_CFG = """\
    [experiment]
    kind = denoiser-check
    [prior]
    kinds = gaussian
    weights = 1
    locations = 0
    scales = 1
    [noise]
    sigma2 = 0.25
    [grid]
    points = 41
    """


GMIX2_CFG = """\
[prior]
kinds = gaussian, gaussian
weights = 0.5, 0.5
locations = -2, 2
scales = 0.5, 0.5
[noise]
sigma2 = 1.0
[grid]
points = 5
"""


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["denoiser-check", "--config", str(tmp_path / "absent.ini")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_kind_subcommand_mismatch(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", DENOISER_CFG)
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "subcommand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, command, output",
    [
        ("denoiser_check", "denoiser-check", "o_denoiser.csv"),
        ("REGULARIZER_RECOVERY", "regularizer-recovery", "o_curves.csv"),
        ("certificate_suite", "certificate-suite", "o_certificates.txt"),
    ],
)
def test_kind_spellings_dispatch(tmp_path, monkeypatch, kind, command, output):
    stub_certificates(monkeypatch)
    text = DENOISER_CFG.replace("kind = denoiser-check", f"kind = {kind}").replace(
        "points = 41", "points = 11"
    )
    path = write_config(tmp_path / "c.ini", text)
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / output).exists()


def test_kind_alias_mismatch_names_subcommand(tmp_path, capsys):
    text = DENOISER_CFG.replace("kind = denoiser-check", "kind = certificate_suite")
    path = write_config(tmp_path / "c.ini", text)
    rc = cli.main(["denoiser-check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "subcommand" in capsys.readouterr().err
    assert not (tmp_path / "o_denoiser.csv").exists()


@pytest.mark.parametrize(
    "command", ["denoiser-check", "regularizer-recovery", "certificate-suite", "deblur"]
)
def test_dimension_is_an_unknown_key(tmp_path, capsys, command):
    # Every experiment's prior is scalar; deblur takes its pixel count from
    # the operator, so even the matching height * width = 64 is rejected.
    if command == "deblur":
        path = deblur_config(tmp_path)
    else:
        path = write_config(tmp_path / "c.ini", DENOISER_CFG.replace("kind = denoiser-check", "seed = 0"))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("scales =")) + 1
    path.write_text("\n".join(lines[:at] + ["dimension = 64"] + lines[at:]) + "\n")
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "new" / "o")])
    assert rc == 1
    assert f"line {at + 1}: unknown key 'dimension' in section [prior]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_rejected_config_creates_no_output_directory(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.ini", DENOISER_CFG.replace("sigma2 = 0.25", "sigma2 = -1"))
    rc = cli.main(["denoiser-check", "--config", str(bad), "--out", str(tmp_path / "new" / "o")])
    assert rc == 1
    assert "sigma2" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    good = write_config(tmp_path / "good.ini", DENOISER_CFG)
    rc = cli.main(["denoiser-check", "--config", str(good), "--out", str(tmp_path / "new" / "o")])
    assert rc == 0
    assert (tmp_path / "new" / "o_denoiser.csv").exists()


def test_unknown_experiment_kind(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", "[experiment]\nkind = frobnicate\n")
    rc = cli.main(["denoiser-check", "--config", str(path)])
    assert rc == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_missing_domain_section_named(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", "[noise]\nsigma2 = 1\n")
    rc = cli.main(["denoiser-check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "missing required section [prior]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, edit, code, message",
    [
        ("denoiser-check", ("scales = 1\n", ""), 1,
         "missing required key 'scales' in section [prior]"),
        ("denoiser-check", ("weights = 1\n", "weights = 0.5\n"), 1,
         "section [prior]: component weights must sum to 1"),
        ("denoiser-check", ("points = 41", "points = 2"), 1, "grid.points must be >= 3"),
        ("denoiser-check", ("points = 41", "half_width_scales = 0"), 1,
         "grid.half_width_scales must be > 0"),
        ("deblur", ("height = 8", "height = 2"), 1, "section [operator]: kernel shape (3, 3)"),
        ("deblur", ("lambda = auto", "lambda = -1"), 1, "solver.lambda must be > 0 or 'auto'"),
        ("deblur", ("measurement_sigma2 = 0.04", "measurement_sigma2 = 0"), 1,
         "operator.measurement_sigma2 must be > 0"),
        # gmix2 at scale 1e-4 and sigma2 = 1: the envelope maximizer lies
        # near 1e9, far past the search window.
        ("regularizer-recovery", ("scales = 0.5, 0.5", "scales = 0.0001, 0.0001"), 2,
         "numerical failure: envelope objective"),
    ],
    ids=["missing-key", "bad-prior", "grid-points", "grid-half-width", "kernel-too-large",
         "lambda", "measurement-sigma2", "numerical-failure"],
)
def test_config_value_errors(tmp_path, capsys, command, edit, code, message):
    if command == "deblur":
        text = deblur_config(tmp_path).read_text()
    elif command == "regularizer-recovery":
        text = GMIX2_CFG
    else:
        text = dedent(DENOISER_CFG)
    assert edit[0] in text
    path = tmp_path / "c.ini"
    path.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == code
    assert message in capsys.readouterr().err


def test_missing_output_prefix(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", DENOISER_CFG)
    rc = cli.main(["denoiser-check", "--config", str(path)])
    assert rc == 1
    assert "no output prefix" in capsys.readouterr().err


# -- experiment runs -----------------------------------------------------------


def test_denoiser_check_runs_and_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path / "c.ini", DENOISER_CFG)
    rc_a = cli.main(["denoiser-check", "--config", str(path), "--out", str(tmp_path / "a")])
    rc_b = cli.main(["denoiser-check", "--config", str(path), "--out", str(tmp_path / "b")])
    assert rc_a == 0 and rc_b == 0
    out_a = (tmp_path / "a_denoiser.csv").read_bytes()
    out_b = (tmp_path / "b_denoiser.csv").read_bytes()
    assert out_a == out_b
    lines = out_a.decode().splitlines()
    assert lines[0] == "z,psi_tweedie,psi_oracle,abs_err"
    assert len(lines) == 42
    errs = [float(row.split(",")[3]) for row in lines[1:]]
    assert max(errs) < 1e-9
    assert "max abs_err" in capsys.readouterr().out


def test_regularizer_recovery_runs(tmp_path):
    path = write_config(
        tmp_path / "c.ini",
        """\
        [prior]
        kinds = gaussian, gaussian
        weights = 0.5, 0.5
        locations = -2, 2
        scales = 0.5, 0.5
        [noise]
        sigma2 = 1.0
        [grid]
        points = 31
        [output]
        prefix = {out}
        """.format(out=tmp_path / "rec"),
    )
    rc = cli.main(["regularizer-recovery", "--config", str(path)])
    assert rc == 0
    lines = (tmp_path / "rec_curves.csv").read_text().splitlines()
    assert lines[0] == "x,f_X,f_Z,phi_explicit,phi_envelope,in_image"
    assert len(lines) == 32
    for row in lines[1:]:
        _, _, _, explicit, envelope, in_image = row.split(",")
        assert in_image == "true"
        a, b = float(explicit), float(envelope)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def deblur_config(tmp_path, side=8, max_iters=20):
    k = gaussian_blur_kernel(3, 0.25)
    kernel = "; ".join(", ".join(fmt17(v) for v in row) for row in k)
    return write_config(
        tmp_path / "deblur.ini",
        f"""\
        [experiment]
        kind = deblur
        seed = 0
        [prior]
        kinds = gaussian, gaussian
        weights = 0.5, 0.5
        locations = -2, 2
        scales = 0.5, 0.5
        [noise]
        sigma2 = 0.04
        [operator]
        kind = conv2d
        kernel = {kernel}
        height = {side}
        width = {side}
        measurement_sigma2 = 0.04
        [solver]
        max_iters = {max_iters}
        init = adjoint_observation
        lambda = auto
        """,
    )


def test_deblur_runs_and_seed_changes_output(tmp_path, capsys):
    path = deblur_config(tmp_path)
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "a")])
    assert rc == 0
    for suffix in ("trace", "truth", "observation", "reconstruction"):
        assert (tmp_path / f"a_{suffix}.csv").exists()
    trace = (tmp_path / "a_trace.csv").read_text().splitlines()
    assert trace[0] == "k,F,residual,best_residual,descent_slack,step_norm,psnr"
    assert len(trace) == 21
    assert "psnr:" in capsys.readouterr().out
    # same config, same seed: byte-identical; different seed: different data
    cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "b")])
    cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "c"), "--seed", "7"])
    repeat = (tmp_path / "b_trace.csv").read_bytes()
    reseeded = (tmp_path / "c_trace.csv").read_bytes()
    assert repeat == (tmp_path / "a_trace.csv").read_bytes()
    assert reseeded != repeat


def test_deblur_bytes_do_not_depend_on_earlier_runs(tmp_path, capsys):
    # The deblur-256-plain benchmark config (seed 7), run in this process
    # right after the certificate suite, must write what a fresh process
    # writes for the same config.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cert = workloads.WORKLOADS["certificates-gmix2"]
    path = write_config(tmp_path / "cert.ini", cert.config(7, str(tmp_path / "cert")))
    assert cli.main([cert.command, "--config", str(path)]) == 0
    deblur = workloads.WORKLOADS["deblur-256-plain"]
    digests = {}
    for run in ("after", "fresh"):
        path = write_config(tmp_path / f"{run}.ini", deblur.config(7, str(tmp_path / run)))
        argv = [deblur.command, "--config", str(path)]
        if run == "after":
            assert cli.main(argv) == 0
        else:
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            code = "import sys; from mmseprox import cli; sys.exit(cli.main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                           capture_output=True, timeout=120)
        digests[run] = [
            hashlib.sha256((tmp_path / f"{run}_{name}.csv").read_bytes()).hexdigest()
            for name in ("trace", "reconstruction")
        ]
    assert digests["after"] == digests["fresh"]


def test_deblur_bytes_do_not_depend_on_blas_threads(tmp_path):
    # From about 10^4 entries on, a threaded BLAS splits dot products and
    # norms across threads, which regroups their sums; at 128 x 128 a run
    # with one thread and a run with two must still write the same bytes.
    # Three steps keep the recorded objectives (F needs the fidelity value)
    # affordable.
    path = deblur_config(tmp_path, side=128, max_iters=3)
    code = "import sys; from mmseprox import cli; sys.exit(cli.main(sys.argv[1:]))"
    digests = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-c", code, "deblur", "--config", str(path),
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
        digests[threads] = [
            hashlib.sha256((tmp_path / f"t{threads}_{name}.csv").read_bytes()).hexdigest()
            for name in ("trace", "reconstruction")
        ]
    assert digests["1"] == digests["2"]


def test_deblur_bytes_do_not_depend_on_the_scan_block_size(tmp_path, monkeypatch):
    # The envelope scan's block size bounds memory and sets no number: the
    # recorded objective (phi_total, 64 envelope points) must write the same
    # bytes in one block (the default) as in 22 blocks of three rows.
    path = deblur_config(tmp_path)
    path.write_text(path.read_text() + "record_objective = true\n")
    outputs = {}
    for run, entries in (("default", moreau._SCAN_ENTRIES), ("blocked", 3 * 501)):
        monkeypatch.setattr(moreau, "_SCAN_ENTRIES", entries)
        assert cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / run)]) == 0
        outputs[run] = [(tmp_path / f"{run}_{name}.csv").read_bytes()
                        for name in ("trace", "truth", "observation", "reconstruction")]
    assert outputs["default"] == outputs["blocked"]


def set_kernel(path: Path, kernel: str) -> Path:
    text = "\n".join(
        f"kernel = {kernel}" if line.startswith("kernel =") else line
        for line in path.read_text().splitlines()
    )
    path.write_text(text + "\n")
    return path


def test_deblur_ragged_kernel(tmp_path, capsys):
    path = set_kernel(deblur_config(tmp_path), "1, 2; 3")
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "operator.kernel" in capsys.readouterr().err


def test_deblur_difference_kernel_converges(tmp_path, capsys):
    # outer([-1, 1], [-1, 1]) annihilates the k = 0 and l = 0 Fourier axes;
    # lambda = auto must still scale by its true norm 4 and keep L < 1
    path = set_kernel(deblur_config(tmp_path, side=16), "1, -1; -1, 1")
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "d")])
    assert rc == 0, capsys.readouterr().err
    cols = np.genfromtxt(tmp_path / "d_trace.csv", delimiter=",", skip_header=1)
    assert np.isfinite(cols).all()
    best = cols[:, 3]
    assert best[-1] < 0.5 * best[0]


def test_deblur_zero_kernel_rejected(tmp_path, capsys):
    path = set_kernel(deblur_config(tmp_path), "0, 0; 0, 0")
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "z")])
    assert rc == 1
    assert "operator norm is zero" in capsys.readouterr().err


def test_deblur_requires_conv2d(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.ini",
        """\
        [prior]
        kinds = gaussian
        weights = 1
        locations = 0
        scales = 1
        [noise]
        sigma2 = 0.04
        [operator]
        kind = identity
        """,
    )
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "conv2d" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dense", "conv1d"])
def test_deblur_rejects_other_operator_kinds(tmp_path, capsys, kind):
    path = deblur_config(tmp_path)
    path.write_text(path.read_text().replace("kind = conv2d", f"kind = {kind}"))
    rc = cli.main(["deblur", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "conv2d" in capsys.readouterr().err


CERT_CFG = """\
    [prior]
    kinds = gaussian
    weights = 1
    locations = 0
    scales = 1
    [noise]
    sigma2 = 1.0
    """


def stub_certificates(monkeypatch, metrics=None):
    """Replace every check with one that returns fixed metrics: those in
    ``metrics[name]`` where given, else values on which every gate row holds."""
    nudge = {"<=": 0.0, ">=": 0.0, "<": -1.0, ">": 1.0}
    table = {}
    for name, (_, gates) in cli._CERTIFICATES.items():
        holding = {metric: threshold + nudge[cmp] for metric, cmp, threshold in gates}
        fixed = {**holding, **(metrics or {}).get(name, {})}
        table[name] = (lambda reg, seed, fixed=fixed: fixed, gates)
    monkeypatch.setattr(cli, "_CERTIFICATES", table)


def test_certificate_suite_failure_exits_2(tmp_path, capsys, monkeypatch):
    # stub the checks so the gate rows, the report and the exit code are
    # what's under test; cosine_max_gap must be > 0.1, so 0.1 fails one row
    stub_certificates(monkeypatch, {"sandwich": {"cosine_max_gap": 0.1}})
    path = write_config(tmp_path / "c.ini", CERT_CFG)
    rc = cli.main(["certificate-suite", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    report = (tmp_path / "o_certificates.txt").read_text().splitlines()
    assert "sandwich = FAIL" in report
    assert "sandwich.cosine_max_gap = 0.10000000000000001" in report
    assert "sandwich.quadratic_max_gap = 9.9999999999999995e-08" in report
    assert "route_agreement = PASS" in report
    assert report[-1] == "overall = FAIL"
    out = capsys.readouterr().out
    assert "sandwich: FAIL" in out and "overall: FAIL" in out


def test_certificate_suite_all_green_exits_0(tmp_path, monkeypatch):
    stub_certificates(monkeypatch)
    path = write_config(tmp_path / "c.ini", CERT_CFG)
    rc = cli.main(["certificate-suite", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = (tmp_path / "o_certificates.txt").read_text().splitlines()
    assert [line for line in report if " = FAIL" in line] == []
    assert report[-1] == "overall = PASS"


def test_nan_or_missing_metric_fails_every_gate_row():
    # NaN compares False every way; an abs(gap) > bound test, for one,
    # would let a NaN gap pass
    for comparison in cli._COMPARISONS:
        assert not cli._passes({"m": math.nan}, [("m", comparison, 0.0)])
        assert not cli._passes({}, [("m", comparison, 0.0)])
    for _, gates in cli._CERTIFICATES.values():
        for row in gates:
            assert not cli._passes({row[0]: math.nan}, [row])


def test_gate_rows_name_reported_metrics():
    golden = (ROOT / "tests" / "data" / "golden_certificates.txt").read_text().splitlines()
    keys = {line.partition(" = ")[0] for line in golden}
    for name, (_, gates) in cli._CERTIFICATES.items():
        assert name in keys
        for metric, _, _ in gates:
            assert f"{name}.{metric}" in keys


def test_readme_lists_the_gate_rows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("The gate rows, in run order:\n\n```\n", 1)[1].split("```", 1)[0]
    documented = []
    for line in block.splitlines():
        row, comparison, threshold = line.split()
        documented.append((*row.split("."), comparison, float(threshold)))
    assert documented == [
        (name, *row) for name, (_, gates) in cli._CERTIFICATES.items() for row in gates
    ]


def test_certificate_suite_rejects_malformed_unread_key(tmp_path, capsys):
    # the suite reads no [solver] key, yet a bad value there is an error
    path = write_config(tmp_path / "c.ini", CERT_CFG + "    [solver]\n    init = sideways\n")
    rc = cli.main(["certificate-suite", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line 9: bad value for solver.init" in capsys.readouterr().err
    assert not (tmp_path / "o_certificates.txt").exists()


GMIX2_CERT_CFG = """\
    [prior]
    kinds = gaussian, gaussian
    weights = 0.5, 0.5
    locations = -2, 2
    scales = 0.5, 0.5
    [noise]
    sigma2 = 1.0
    """


class _ValueMutant(Marginal):
    """f_Z + 0.4 cos 3z in value, with the true score: D stays right, but
    explicit phi is no longer 1-weakly convex."""

    def scalar_value(self, zs):
        return super().scalar_value(zs) + 0.4 * np.cos(3.0 * np.asarray(zs))


def test_value_mutant_fails_its_certificates(tmp_path, capsys, monkeypatch):
    # the unimodal search refuses the mutant's explicit phi, which fails
    # moreau_identity without aborting the suite; the nested prox misses D
    monkeypatch.setattr(cli, "Marginal", _ValueMutant)
    path = write_config(tmp_path / "c.ini", GMIX2_CERT_CFG)
    rc = cli.main(["certificate-suite", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    report = (tmp_path / "o_certificates.txt").read_text().splitlines()
    assert "moreau_identity = FAIL" in report
    assert not any(line.startswith("moreau_identity.") for line in report)
    assert "prox_consistency = FAIL" in report
    err = float(next(l for l in report if l.startswith("prox_consistency.max_abs_err")).split(" = ")[1])
    assert err > 0.1
    assert report[-1] == "overall = FAIL"
    assert "moreau_identity: numerical failure: " in capsys.readouterr().err


def test_refused_search_outside_the_suite_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise EnvelopeNotUnimodalError("envelope objective at x=0.0 has more than one basin")

    monkeypatch.setattr(moreau, "upper_envelope_many", refuse)
    path = write_config(tmp_path / "c.ini", GMIX2_CERT_CFG + "    [grid]\n    points = 5\n")
    rc = cli.main(["regularizer-recovery", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "numerical failure: envelope objective at x=0.0" in capsys.readouterr().err
