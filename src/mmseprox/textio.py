"""Deterministic text serialization shared by the CSV and report writers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["fmt17", "fmt_bool", "csv_text", "write_text"]


# printf-style spec with 17 significant digits (round-trip exact); one
# template per CSV row joins it, so a row is formatted by one ``%``.
_FLOAT17 = "%.17g"


def fmt17(value: float) -> str:
    """Format a float with 17 significant digits (round-trip exact).

    NaN of either sign is written ``nan``, the infinities ``inf``/``-inf``.
    """
    return _FLOAT17 % float(value)


def fmt_bool(flag) -> str:
    return "true" if flag else "false"


def csv_text(header: str | None, columns) -> str:
    """CSV text: an optional header line, then one comma-joined row per
    entry of the equal-length ``columns``, and a trailing newline.

    Boolean columns are written with ``fmt_bool``, all others with ``fmt17``.
    """
    specs, cells = [], []
    for column in columns:
        column = np.asarray(column)
        if column.dtype == bool:
            specs.append("%s")
            cells.append([fmt_bool(v) for v in column.tolist()])
        else:
            specs.append(_FLOAT17)
            cells.append(column.tolist())
    template = ",".join(specs)
    lines = [] if header is None else [header]
    lines.extend(template % row for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write_text(destination, text: str) -> None:
    """Write ``text`` to a path, creating its parent directory if missing."""
    path = Path(destination)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
