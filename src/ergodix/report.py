"""Deterministic CSV/JSON artifact writers.

CSV floats carry 17 significant digits (lossless for doubles); JSON objects
are sorted-key with a schema tag, and repeated runs produce byte-identical
files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SCHEMA = "ergodix/1"


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.17g')}j"
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plain(value):
    """json ``default``: complex numbers as ``[re, im]``, numpy scalars as Python ones."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: Path, obj: dict) -> None:
    payload = {"schema": SCHEMA, **obj}
    chunks = json.JSONEncoder(sort_keys=True, indent=1, default=_plain).iterencode(payload)
    # The encoder that indent selects yields about one chunk per token; joining
    # them a slice at a time keeps a long table from holding every chunk at once.
    with path.open("w", encoding="utf-8") as fp:
        while part := "".join(itertools.islice(chunks, 1 << 14)):
            fp.write(part)
        fp.write("\n")
