"""Text formatting helpers: 17-significant-digit floats and CSV emission.

Floats are written with %.17g so that every IEEE-754 double round-trips
exactly through text.  CSV files use '.' as the decimal separator and LF
line endings on every platform.
"""
from __future__ import annotations

import io
from typing import Iterable, Sequence


def f17(x: float) -> str:
    return format(float(x), ".17g")


def cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f17(v)
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], provenance: str | None = None) -> None:
    write_csv_lines(path, header, (",".join(cell(v) for v in row) + "\n" for row in rows), provenance)


def write_csv_lines(path, header: Sequence[str], lines: Iterable[str], provenance: str | None = None) -> None:
    """Write CSV rows already formatted as text, each line ending in a newline."""
    buf = io.StringIO()
    if provenance:
        buf.write(f"# {provenance}\n")
    buf.write(",".join(header) + "\n")
    buf.writelines(lines)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
