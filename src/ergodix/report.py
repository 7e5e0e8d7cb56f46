"""Deterministic CSV/JSON artifact writers.

CSV floats carry 17 significant digits (lossless for doubles).  JSON reports
carry a schema tag and are, byte for byte, ``json.dumps(obj, sort_keys=True,
indent=1)``.  Objects with string keys and lists are laid out here, tables
(lists of equal-length rows of exact ints, finite floats or nested tables) a
column and a block of rows at a time; every other value goes to the stdlib
encoder.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

SCHEMA = "ergodix/1"
# rows of a long list formatted and written at once
_BLOCK = 1 << 10


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


# the stdlib encoder, for keys and every value _chunks does not lay out itself
_encode = json.JSONEncoder(sort_keys=True, indent=1, default=_plain).encode


def _cells(items: Sequence, depth: int) -> Optional[list[str]]:
    """The JSON text of each item of a table column, closing brackets at
    indent ``depth``, or None if the items are no table.  A number column is
    one ``repr``: json writes the same reprs, and neither holds ", "."""
    kinds = set(map(type, items))
    if kinds <= {int, float}:
        texts = repr(list(items))[1:-1].split(", ")
        return texts if {"nan", "inf", "-inf"}.isdisjoint(texts) else None
    if not kinds <= {list, tuple} or len(set(map(len, items))) != 1 or not items[0]:
        return None
    columns = [_cells(column, depth + 1) for column in zip(*items)]
    if None in columns:
        return None
    inner, tail = "\n" + " " * (depth + 1), "\n" + " " * depth + "]"
    return ["[" + inner + text + tail for text in map(("," + inner).join, zip(*columns))]


def _chunks(obj, depth: int) -> Iterator[str]:
    """The indent-1, sorted-key JSON text of ``obj`` with its closing
    bracket at indent ``depth``."""
    inner, close = "\n" + " " * (depth + 1), "\n" + " " * depth
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + _encode(key) + ": "
            yield from _chunks(obj[key], depth + 1)
        yield close + "}"
    elif type(obj) in (list, tuple) and obj:
        for start in range(0, len(obj), _BLOCK):
            block = obj[start:start + _BLOCK]
            cells = _cells(block, depth + 1) or ["".join(_chunks(x, depth + 1)) for x in block]
            yield ("," if start else "[") + inner + ("," + inner).join(cells)
        yield close + "]"
    else:
        # JSON strings never hold a raw newline, so this only indents lines
        yield _encode(obj).replace("\n", close)


def write_json(path: Path, obj: dict) -> None:
    with path.open("w", encoding="utf-8") as fp:
        fp.writelines(_chunks({"schema": SCHEMA, **obj}, 0))
        fp.write("\n")
