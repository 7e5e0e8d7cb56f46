import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodix import report
from ergodix.cli import main
from ergodix.report import SCHEMA, _BLOCK, _plain, write_json
from test_cli import matrix_to_json


def stdlib(payload) -> str:
    """The reference layout: the stdlib encoder's indent-1, sorted-key text."""
    return json.dumps(payload, sort_keys=True, indent=1, default=_plain) + "\n"


def written(obj: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        write_json(path, obj)
        return path.read_text(encoding="utf-8")


# text with every JSON structural character, escapes and non-ASCII
texts = st.text(st.sampled_from('[]{},:"\\ \n\tab0é€😀\x00'), max_size=6)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1e300, 5e-324])
numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
# values that are valid JSON but leave the table path: non-finite floats,
# bools, None, numpy scalars, complex numbers and strings
odd = (floats | st.booleans() | st.none() | texts | st.complex_numbers(max_magnitude=1e6)
       | st.builds(np.float64, floats) | st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))
       | st.builds(np.bool_, st.booleans()) | st.builds(np.complex128, st.complex_numbers()))
cells = numbers | odd


@st.composite
def tables(draw, depth=0):
    """Lists of equal-length rows of mostly exact numbers (sometimes nested
    rows), with an occasional odd value, ragged row or empty row."""
    width = draw(st.integers(0 if depth else 1, 3))
    nested = depth < 2 and draw(st.booleans())
    column_kinds = [draw(st.sampled_from(["number", "nested"] if nested else ["number"]))
                    for _ in range(width)]

    def row():
        out = []
        for kind in column_kinds:
            if kind == "nested":
                out.append(draw(tables(depth + 1)))
            else:
                out.append(draw(numbers) if draw(st.integers(0, 9)) else draw(odd))
        return out if draw(st.booleans()) else tuple(out)

    rows = [row() for _ in range(draw(st.integers(0, 5)))]
    if rows and draw(st.integers(0, 5)) == 0:
        rows.append(draw(st.lists(numbers, max_size=width + 2)))
    return rows


scalars = cells | tables()
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(texts, children, max_size=4)
                      | st.dictionaries(st.integers(-9, 9), children, max_size=3)
                      | tables()),
    max_leaves=20)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    @example([])
    @example({})
    @example({"a": [[], {}, [[]], [{}]], "b": [[(), ()], ((),)]})
    @example([[1.0, -0.0], [float("nan"), 2], [math.inf, -math.inf]])
    @example([[1, True], [False, 2]])
    @example({3: [1, 2], -1: {"x": None}})
    @example([[np.float64(0.5), 1j], [np.int64(3), complex(1, -0.0)]])
    def test_matches_the_stdlib_encoder(self, obj):
        assert written({"value": obj}) == stdlib({"schema": SCHEMA, "value": obj})
        assert "".join(report._chunks(obj, 0)) + "\n" == stdlib(obj)

    @pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_tables_across_block_edges(self, rows):
        table = [[(k, -k), k / 7, -k] for k in range(rows)]
        assert written({"t": table}) == stdlib({"schema": SCHEMA, "t": table})
        # an odd value in the last row sends only its block to the stdlib
        table[-1][1] = math.nan
        assert written({"t": table}) == stdlib({"schema": SCHEMA, "t": table})

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError, match="ndarray"):
            written({"a": [[1, np.zeros(2)]]})


class TestCliReports:
    """Each report a subcommand writes is the stdlib encoding of its parsed
    content, byte for byte."""

    PROJ = matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0]))
    CASES = {
        "vdc_box": ("vdc", {"sequence": {"kind": "weyl-quadratic", "alpha": 0.3},
                            "windows": {"shape": "box", "n_min": 1, "n_max": 40, "stride": 13}}),
        "vdc_custom": ("vdc", {"sequence": {"kind": "linear-phase", "alpha": 0.25},
                               "windows": {"shape": "custom",
                                           "elements": list(range(-9, 10, 2))}}),
        "split": ("split", {"system": {"kind": "clock-shift", "Q": 3}}),
        # a projection onto one of four cyclically permuted points: the
        # square's defect check fails, so failures.json is written
        "failing_mix": ("mix", {
            "system": {"kind": "cyclic", "dim": 4},
            "windows": {"shape": "box", "n_min": 1, "n_max": 12},
            "observables": {"a": {"kind": "matrix", "entries": PROJ},
                            "b": {"kind": "matrix", "entries": PROJ}},
            "hom": {"kind": "scalar", "m": 1},
            "threshold": 0.05,
            "statistics": ["weak-mixing", "square"],
        }),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reports_match_the_stdlib_encoder(self, tmp_path, case):
        command, cfg = self.CASES[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == (1 if case == "failing_mix" else 0)
        reports = sorted(out.glob("*.json"))
        if case == "failing_mix":
            assert out / "failures.json" in reports
        assert reports
        for report_path in reports:
            text = report_path.read_text(encoding="utf-8")
            assert text == stdlib(json.loads(text)), report_path.name
