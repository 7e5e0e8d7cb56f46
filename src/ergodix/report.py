"""Deterministic CSV/JSON artifact writers.

CSV floats carry 17 significant digits (lossless for doubles).  JSON reports
carry a schema tag and are, byte for byte, ``json.dumps(obj, sort_keys=True,
indent=1)``, each ``Table`` as the list of its rows.  Objects with string
keys and Tables are laid out here, every other value by the stdlib encoder.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

SCHEMA = "ergodix/1"
# rows of a Table formatted and written at once
_BLOCK = 1 << 10


class Table:
    """Named columns of equal length.  A column is a numpy array, kept as it
    comes, or a list of ints, floats or strings; a (k, q) integer column
    holds one group element per row.  The writers turn a column into Python
    values one _BLOCK of rows at a time."""

    def __init__(self, **columns):
        self.columns = {name: column if isinstance(column, np.ndarray) else list(column)
                        for name, column in columns.items()}
        lengths = set(map(len, self.columns.values()))
        if len(lengths) > 1:
            raise ValueError(f"table columns have unequal lengths {sorted(lengths)}")
        self.length = max(lengths, default=0)


def _blocks(table: Table) -> Iterator[list[list]]:
    """The columns of a Table as lists, _BLOCK rows at a time."""
    for start in range(0, table.length, _BLOCK):
        yield [column[start:start + _BLOCK].tolist() if isinstance(column, np.ndarray)
               else column[start:start + _BLOCK] for column in table.columns.values()]


def write_csv(path: Path, table: Table) -> None:
    with path.open("w", encoding="utf-8") as fp:
        fp.write(",".join(table.columns) + "\n")
        for block in _blocks(table):
            cells = ([format(x, ".17g") if isinstance(x, float) else str(x) for x in column]
                     for column in block)
            fp.writelines(",".join(row) + "\n" for row in zip(*cells))


def _plain(value):
    """json ``default``: a Table as its rows, complex numbers as ``[re, im]``,
    numpy scalars as Python ones."""
    if isinstance(value, Table):
        return [list(row) for block in _blocks(value) for row in zip(*block)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# the stdlib encoder, for keys and every value _chunks does not lay out itself
_encode = json.JSONEncoder(sort_keys=True, indent=1, default=_plain).encode


def _rows(columns: list[list], depth: int) -> list[str]:
    """The JSON text of each row of nonempty Table columns, closing at indent
    ``depth``; group elements nest.  A number column is one ``repr``: json
    writes the same reprs but NaN and Infinity for nan and inf (the only
    letters in them but e), and neither holds ", "."""
    texts = []
    for column in columns:
        if isinstance(column[0], (list, tuple)):
            texts.append(_rows(list(map(list, zip(*column))), depth + 1))
        elif isinstance(column[0], str):
            texts.append(list(map(_encode, column)))
        else:
            texts.append(repr(column)[1:-1].replace("nan", "NaN")
                         .replace("inf", "Infinity").split(", "))
    inner, tail = "\n" + " " * (depth + 1), "\n" + " " * depth + "]"
    return ["[" + inner + ("," + inner).join(row) + tail for row in zip(*texts)]


def _chunks(obj, depth: int) -> Iterator[str]:
    """The indent-1, sorted-key JSON text of ``obj`` with its closing
    bracket at indent ``depth``."""
    inner, close = "\n" + " " * (depth + 1), "\n" + " " * depth
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + _encode(key) + ": "
            yield from _chunks(obj[key], depth + 1)
        yield close + "}"
    elif isinstance(obj, Table) and obj.length:
        for i, block in enumerate(_blocks(obj)):
            yield ("," if i else "[") + inner + ("," + inner).join(_rows(block, depth + 1))
        yield close + "]"
    else:
        # JSON strings never hold a raw newline, so this only indents lines
        yield _encode(obj).replace("\n", close)


def write_json(path: Path, obj: dict) -> None:
    with path.open("w", encoding="utf-8") as fp:
        fp.writelines(_chunks({"schema": SCHEMA, **obj}, 0))
        fp.write("\n")
