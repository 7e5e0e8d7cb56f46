import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodix import report
from ergodix.cli import main
from ergodix.report import SCHEMA, _BLOCK, _plain, Table, write_csv, write_json
from test_cli import FOLNER_CFG, HIGHER_CFG, MIX_CFG, matrix_to_json


def plain(obj):
    """``obj`` with every Table replaced by the list of its rows, each array
    column listed whole."""
    if isinstance(obj, Table):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in obj.columns.values()]
        return [list(row) for row in zip(*columns)]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(plain, obj))
    return obj


def stdlib(payload) -> str:
    """The reference layout: the stdlib encoder's indent-1, sorted-key text
    of the payload, its Tables as lists of rows."""
    return json.dumps(plain(payload), sort_keys=True, indent=1, default=_plain) + "\n"


def written(obj: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        write_json(path, obj)
        return path.read_text(encoding="utf-8")


# text with every JSON structural character, escapes and non-ASCII
texts = st.text(st.sampled_from('[]{},:"\\ \n\tab0é€😀\x00'), max_size=6)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1e300, 5e-324])
numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(-2 ** 63, 2 ** 63 - 1)
# values outside Tables: every one goes to the stdlib encoder
cells = (numbers | floats | st.booleans() | st.none() | texts
         | st.complex_numbers(max_magnitude=1e6)
         | st.builds(np.float64, floats) | st.builds(np.int64, int64s)
         | st.builds(np.bool_, st.booleans()) | st.builds(np.complex128, st.complex_numbers()))


@st.composite
def tables(draw):
    """Tables of int, float, string and group-element columns, as lists or
    numpy arrays, with NaN, infinities and -0.0 among the floats."""
    length = draw(st.integers(0, 6))

    def values(strategy):
        return draw(st.lists(strategy, min_size=length, max_size=length))

    columns = {}
    for name in draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=4)):
        kind = draw(st.sampled_from(["int", "float", "number", "text",
                                     "int64", "float64", "element"]))
        if kind == "int64":
            columns[name] = np.array(values(int64s), dtype=np.int64)
        elif kind == "float64":
            columns[name] = np.array(values(floats), dtype=np.float64)
        elif kind == "element":
            rank = draw(st.integers(1, 3))
            columns[name] = np.array(values(st.lists(int64s, min_size=rank, max_size=rank)),
                                     dtype=np.int64).reshape(length, rank)
        else:
            columns[name] = values({"int": st.integers(), "float": floats,
                                    "number": numbers, "text": texts}[kind])
    return Table(**columns)


scalars = cells | tables()
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(texts, children, max_size=4)
                      | st.dictionaries(st.integers(-9, 9), children, max_size=3)),
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
    @example({"t": Table(x=[1.0, -0.0, math.nan, math.inf, -math.inf], n=np.arange(5))})
    @example({"t": Table(), "u": Table(h=np.zeros((0, 2), dtype=np.int64), x=[])})
    @example({"t": [Table(h=np.array([[1, -2], [0, 3]]), x=[0.5, math.nan])]})
    @example({"t": Table(h=np.array([[2 ** 63 - 1], [-2 ** 63]]), s=["a", '"\n'])})
    def test_matches_the_stdlib_encoder(self, obj):
        assert written({"value": obj}) == stdlib({"schema": SCHEMA, "value": obj})
        assert "".join(report._chunks(obj, 0)) + "\n" == stdlib(obj)

    @pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_tables_across_block_edges(self, tmp_path, rows):
        k = np.arange(rows)
        ratio = (k / 7).tolist()
        table = Table(h=np.stack([k, -k], axis=1), ratio=ratio, n=-k)
        assert written({"t": table}) == stdlib({"schema": SCHEMA, "t": table})
        # a non-finite float in the last block only
        ratio[-1] = math.nan
        table = Table(h=np.stack([k, -k], axis=1), ratio=ratio, n=-k)
        assert written({"t": table}) == stdlib({"schema": SCHEMA, "t": table})
        # array columns, listed a block at a time, write the bytes of lists
        arrays = Table(h=np.stack([k, -k], axis=1), ratio=np.array(ratio), n=-k)
        lists = Table(h=np.stack([k, -k], axis=1).tolist(), ratio=ratio, n=(-k).tolist())
        assert written({"t": arrays}) == written({"t": lists})
        assert json.dumps([arrays], default=_plain) == json.dumps([lists], default=_plain)
        write_csv(tmp_path / "arrays.csv", arrays)
        write_csv(tmp_path / "lists.csv", lists)
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError, match="ndarray"):
            written({"a": [[1, np.zeros(2)]]})

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            Table(n=[1, 2], x=np.zeros(3))


def exact_cell(text: str) -> bool:
    """An int literal, or the 17-digit text of the float it reads as."""
    if re.fullmatch(r"-?[0-9]+", text):
        return True
    try:
        return format(float(text), ".17g") == text
    except ValueError:
        return False


class TestWriteCsv:
    def test_columns_under_their_names(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, Table(n=np.arange(3), value=[0.1, 1 / 3, math.nan],
                              h=["0_1", "2_3", "-1_0"]))
        assert path.read_text(encoding="utf-8") == (
            "n,value,h\n0,0.10000000000000001,0_1\n1,0.33333333333333331,2_3\n2,nan,-1_0\n")

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, Table(n=[], value=np.zeros(0)))
        assert path.read_text(encoding="utf-8") == "n,value\n"


class TestCliReports:
    """Each report a subcommand writes is the stdlib encoding of its parsed
    content, byte for byte, and each CSV cell is exact."""

    PROJ = matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0]))
    # a projection onto one of three clock states, on the Z^2 clock-shift system
    CLOCK = {"system": {"kind": "clock-shift", "Q": 3},
             "observable": {"kind": "matrix", "entries": matrix_to_json(np.diag([1.0, 0.0, 0.0]))},
             "exponents": [1, 2],
             "windows": {"shape": "box", "n_min": 1, "n_max": 3},
             "candidates": [[0, 0], [1, 0], [2, 0]]}
    CASES = {
        "folner": ("folner", FOLNER_CFG),
        "mix": ("mix", MIX_CFG),
        "higher": ("higher", {**HIGHER_CFG, "gamma": {"h_max": 2}}),
        "compact": ("compact", {**CLOCK, "epsilon": 0.01, "scan": {"shape": "box", "n": 2}}),
        "szemeredi": ("szemeredi", CLOCK),
        "invariants": ("invariants", {"seed": 1, "scale": 0.01}),
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
        for csv_path in sorted(out.glob("*.csv")):
            header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
            names = header.split(",")
            for line in lines:
                for name, cell in zip(names, line.split(","), strict=True):
                    if csv_path.name == "higher_gamma.csv" and name == "h":
                        assert re.fullmatch(r"-?[0-9]+(_-?[0-9]+)*", cell), cell
                    else:
                        assert exact_cell(cell), (csv_path.name, name, cell)
