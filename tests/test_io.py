"""Differential tests of the CLI's dataset reader and JSON artifact writer.

The reader takes numpy's C reader for plain CSV files and `csv.reader` with
Python's `float` (`cli._csv_rows`) for every other file or fault. Random
valid and faulty CSVs must give the same Dataset (ids, arrays and dtypes) or
the same ParseError (message, row and column) from `load_dataset` as from
`_csv_rows` called directly. The writer must give the bytes of json's
pure-Python encoder at indent=1 (`oracles.json_artifact_text`).
"""

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from clusterbal import cli
from clusterbal.errors import ParseError

from oracles import json_artifact_text

DIFF = settings(max_examples=300, deadline=None, derandomize=True)

PLAIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["1e3", "-0.0", "+1", "2.5", ".5", "5.", "1E-3", "0"]),
)
# cells that `float` and numpy's reader may read differently, or refuse
ODD = st.sampled_from([
    " 1.5 ", "\x1c-0.75\t", "\x1d2\x1e", "\x1f3", "\xa04\xa0", "\t5", " 6", "1_0", "２", "٣",
    "nan", "-NaN", "inf", "-inf", "infinity", "+Infinity", "1e", ".", "", " ", "abc", "#1", "1#",
    "0x10", "1 2", "+-1", '"4"', '"1,5"', "1e400", "-1e-400", "5e-324",
])
TREATMENTS = st.sampled_from(["0", "1", "1.0", " 0 ", "0e0", "2", "-1", "nan", "true", "１", "", '"1"'])
CLUSTER_IDS = st.sampled_from(["a", "b", "c", " a ", "a\t", "\x1ca", "\xa0b", "é", "c d", "a#", "",
                               '"a,z"', '"b"', "b,"])


@st.composite
def csv_files(draw):
    """The text of a random CSV: a shuffled header with 1-3 covariates and
    perhaps an ignored column, then rows of plain cells. Half the files have
    each kind of oddity one time in three, in about one row or cell in four:
    one odd number, one odd cluster_id, one odd treatment, quotes around one
    column's cells, a row with a field too many or too few, a blank line, CRLF
    line ends."""
    p = draw(st.integers(1, 3))
    names = ["cluster_id", "unit_id", "treatment", "outcome", *(f"x{j + 1}" for j in range(p))]
    if draw(st.booleans()):
        names.append("note")
    names = draw(st.permutations(names))
    odd_file = draw(st.booleans())
    kinds = {kind for kind in ("number", "id", "treatment", "quote", "width", "blank", "crlf")
             if odd_file and draw(st.integers(0, 2)) == 0}
    odd = {
        "number": draw(ODD), "id": draw(CLUSTER_IDS), "treatment": draw(TREATMENTS),
        "quote": draw(st.sampled_from(names)), "width": draw(st.sampled_from(["extra", "short"])), "blank": draw(st.sampled_from(["", " ", "\t", ","])),
    }

    def pick(kind, usual):
        return odd[kind] if kind in kinds and draw(st.integers(0, 3)) == 0 else draw(usual)

    usual = {
        "cluster_id": ("id", st.sampled_from(["a", "b", "c"])),
        "unit_id": ("number", st.integers(0, 3).map(str)),
        "treatment": ("treatment", st.sampled_from(["0", "1"])),
        "note": ("id", st.sampled_from(["", "x", "#", " "])),
    }
    lines = [",".join(draw(st.sampled_from([h, f" {h} ", h])) for h in names)]
    for _ in range(draw(st.integers(0, 6))):
        cells = [pick(*usual.get(h, ("number", PLAIN))) for h in names]
        line = ",".join(f'"{c}"' if pick("quote", st.just(None)) == h else c for c, h in zip(cells, names))
        width = pick("width", st.just(None))
        line = {"extra": line + ",9", "short": line.rpartition(",")[0]}.get(width, line)
        if pick("blank", st.just(None)) is not None:
            lines.append(odd["blank"])
        lines.append(line)
    end = "\r\n" if "crlf" in kinds else "\n"
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return ("\n" * draw(st.integers(0, 1))) + text


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return (str(exc), exc.row, exc.column)


def _same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.ids == want.ids
    for key in ("covariates", "treatments", "outcomes", "starts", "sizes"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), key
        assert np.array_equal(np.signbit(a), np.signbit(b)), key  # -0.0 read as -0.0 by both
    assert got.covariates.flags.c_contiguous


@DIFF
@given(text=csv_files(), bom=st.booleans())
def test_csv_reader_matches_the_csv_reader_path(text, bom):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(("﻿" if bom else "").encode() + text.encode())
        want = _outcome(lambda: cli._csv_rows(text))
        _same(_outcome(lambda: cli.load_dataset(path)), want)
    finally:
        os.unlink(path)
    fast = cli._csv_columns(text) if not any(c in text for c in '"\r\0') else None
    event("C reader" if fast is not None else "csv.reader")
    if fast is not None:  # the C path never reads a file the row path refuses
        _same(fast, want)


def test_plain_csv_takes_the_c_reader(tmp_path):
    text = ("cluster_id,unit_id,treatment,outcome,x2,x1\n"
            "b, 2 ,1,0.25,20,2\n"
            "a,1,0, 1.5 ,-1,-10\n"
            "b,0,0,0.5,  30,3\n"
            "a,3,1,2.5,-2,-20\n"
            " b ,1,1e0,\x1c-0.75\t,40,4\n"
            "c,7,0,1,5,6\n")
    fast = cli._csv_columns(text)
    assert fast is not None
    _same(fast, cli._csv_rows(text))
    for odd in ("1_0", "２", "٣"):  # float reads these, numpy's reader does not
        assert cli._csv_columns(text.replace("-10", odd)) is None
    assert cli._csv_columns(text.replace("c,7,0,1,5,6", "c,7,0,1,5,6,9")) is None
    quoted = text.replace("c,7", '"c",7')  # csv.reader drops the quotes, numpy's reader would not
    path = tmp_path / "quoted.csv"
    path.write_text(quoted)
    _same(cli.load_dataset(str(path)), fast)


# ---------- writer ----------

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308]),
)
LEAVES = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.none(),
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(['two\nlines "quoted"', "tab\tback\\slash", "é ünï ✓ 😀", "\x00\x1f"]),
)
DOCS = st.recursive(
    st.one_of(LEAVES, st.lists(FLOATS, max_size=6), st.lists(FLOATS.map(np.float64), max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(-5, 5), st.floats(allow_nan=False, allow_infinity=False)),
                        inner, max_size=3),
        st.dictionaries(st.sampled_from([True, False, None]), inner, max_size=1),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.one_of(DOCS, st.lists(FLOATS, min_size=1, max_size=1), st.just([]), st.just({})))
def test_json_artifact_matches_the_pure_python_encoder(doc):
    manifest = cli.RunManifest(command="clusterbal estimate", inputs={"dataset": "d.csv", "policy": None},
                               seed=1, version="0", timestamp="t")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        cli.write_json_artifact(path, doc, manifest)
        with open(path, "rb") as fh:
            got = fh.read()
    want = json_artifact_text(doc)
    assert manifest.output_digest == hashlib.sha256(want.encode()).hexdigest()
    whole = {"manifest": dataclasses.asdict(manifest), "result": doc}
    assert got == json_artifact_text(whole).encode()
    json.loads(got)  # strict JSON: no NaN or Infinity token
