"""Deterministic text serialization shared by the CSV and report writers."""

from __future__ import annotations

from pathlib import Path

__all__ = ["fmt17", "fmt_bool", "write_text"]


def fmt17(value: float) -> str:
    """Format a float with 17 significant digits (round-trip exact).

    NaN of either sign is written ``nan``, the infinities ``inf``/``-inf``.
    """
    return format(float(value), ".17g")


def fmt_bool(flag) -> str:
    return "true" if flag else "false"


def write_text(destination, text: str) -> None:
    """Write ``text`` to a path or a file-like object."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")
