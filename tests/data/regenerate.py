"""Rebuild the golden regression files from the current implementation.

Run from the repository root:

    python tests/data/regenerate.py

Both files are produced by the exact code paths the acceptance tests
drive, so a passing regeneration is byte-for-byte what the tests expect.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The test modules and the package source, so that a plain checkout runs.
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from test_acceptance import CERT_CONFIG, GOLDEN_CERTIFICATES, GOLDEN_TRACE, run_deblur_experiment

from mmseprox import cli, pnp


def main() -> None:
    trace, truth, _, _ = run_deblur_experiment()
    pnp.write_trace_csv(trace, GOLDEN_TRACE, truth=truth)
    print(f"wrote {GOLDEN_TRACE}")

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cert.ini"
        config.write_text(CERT_CONFIG, encoding="utf-8")
        rc = cli.main(
            ["certificate-suite", "--config", str(config), "--out", str(Path(tmp) / "golden")]
        )
        if rc != 0:
            raise SystemExit(f"certificate suite failed with exit code {rc}")
        GOLDEN_CERTIFICATES.write_bytes((Path(tmp) / "golden_certificates.txt").read_bytes())
    print(f"wrote {GOLDEN_CERTIFICATES}")


if __name__ == "__main__":
    main()
