"""Deterministic text serialization shared by the CSV and report writers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["fmt17", "fmt_bool", "csv_text", "write_text"]


def fmt17(value: float) -> str:
    """Format a float with 17 significant digits (round-trip exact).

    NaN of either sign is written ``nan``, the infinities ``inf``/``-inf``.
    """
    return format(float(value), ".17g")


def fmt_bool(flag) -> str:
    return "true" if flag else "false"


def csv_text(header: str | None, columns) -> str:
    """CSV text: an optional header line, then one comma-joined row per
    entry of the equal-length ``columns``, and a trailing newline.

    Boolean columns are written with ``fmt_bool``, all others with ``fmt17``.
    """
    cells = []
    for column in columns:
        column = np.asarray(column)
        fmt = fmt_bool if column.dtype == bool else fmt17
        cells.append([fmt(v) for v in column.tolist()])
    lines = [] if header is None else [header]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write_text(destination, text: str) -> None:
    """Write ``text`` to a file-like object, or to a path whose parent
    directory is created if missing."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
