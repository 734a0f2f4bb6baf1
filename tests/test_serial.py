import dataclasses
import gc
import io
import json
import os
import struct
import tempfile
import tracemalloc
from functools import partial

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kreinalg import serial
from kreinalg.cli import main
from kreinalg.densela import Tolerance
from kreinalg.errors import InputError
from kreinalg.serial import (dump_json, load_json, matrix_from_obj, matrix_to_obj,
                             problem_from_obj, read_json, read_matrix, read_operand,
                             write_json)
from kreinalg.suite import run_property_suite


def test_matrix_roundtrip_values():
    M = np.array([[1.5 + 2.0j, 0.0], [-3.0, 1e-12j]], dtype=complex)
    back = matrix_from_obj(matrix_to_obj(M))
    assert np.array_equal(back, M)


def test_roundtrip_is_byte_identical(tmp_path):
    M = np.array([[0.1, -2.25 + 0.5j], [7.0, 0.0]], dtype=complex)
    path = tmp_path / "m.json"
    path.write_text(dump_json(matrix_to_obj(M)))
    first = path.read_text()
    again = dump_json(matrix_to_obj(matrix_from_obj(load_json(path))))
    assert again == first


def test_empty_matrix():
    M = np.zeros((2, 0), dtype=complex)
    obj = matrix_to_obj(M)
    assert obj["rows"] == 2 and obj["cols"] == 0 and obj["data"] == []
    assert matrix_from_obj(obj).shape == (2, 0)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_matrix_from_obj_reads_empty_data(rows, cols):
    M = matrix_from_obj({"rows": rows, "cols": cols, "data": []})
    assert M.shape == (rows, cols) and M.dtype == complex


@pytest.mark.parametrize("obj", [
    {"rows": 2, "cols": 2},                                   # missing data
    {"rows": 2, "cols": 1, "data": [[1, 0]]},                 # wrong length
    {"rows": 1, "cols": 1, "data": [[1]]},                    # not a pair
    {"rows": 1, "cols": 1, "data": [["x", 0]]},               # not numeric
    {"rows": 1, "cols": 1, "data": [[float("nan"), 0]]},      # not finite
    {"rows": -1, "cols": 1, "data": []},
    "nope",
])
def test_matrix_from_obj_rejects(obj):
    with pytest.raises(InputError):
        matrix_from_obj(obj)


def test_problem_file_space_and_tolerance():
    J = np.diag([1.0, -1.0]).astype(complex)
    C = np.array([[0, 1], [-1, 0]], dtype=complex)
    obj = {"space": {"J": matrix_to_obj(J)}, "operator": matrix_to_obj(C),
           "tolerance": {"residual_tol": 1e-6}}
    got_J, got_C, tol = problem_from_obj(obj)
    assert np.array_equal(got_J, J)
    assert np.array_equal(got_C, C)
    assert tol == Tolerance(rank_tol=1e-10, residual_tol=1e-6)


def test_problem_file_defaults():
    C = np.eye(2, dtype=complex)
    J, M, tol = problem_from_obj({"operator": matrix_to_obj(C)})
    assert J is None
    assert tol is None
    # null, like a missing field, sets no tolerance
    assert problem_from_obj({"operator": matrix_to_obj(C), "tolerance": None})[2] is None


def test_read_operand_of_a_matrix_file(tmp_path):
    C = np.array([[1.0, 2.0j], [-2.0j, 0.5]])
    path = tmp_path / "m.json"
    path.write_text(dump_json(matrix_to_obj(C)))
    J, M, tol = read_operand(path)
    assert J is None and tol is None
    assert np.array_equal(M, C)


@pytest.mark.parametrize("extra", [{}, {"tolerance": None}])
def test_read_operand_of_a_problem_file_without_a_tolerance(tmp_path, extra):
    C, S = np.diag([2.0, -1.0]), np.diag([1.0, -1.0])
    path = tmp_path / "p.json"
    path.write_text(dump_json({"operator": matrix_to_obj(C),
                               "space": {"J": matrix_to_obj(S)}, **extra}))
    J, M, tol = read_operand(path)
    assert np.array_equal(J, S) and np.array_equal(M, C)
    assert tol is None


def test_read_operand_of_a_problem_file_with_a_tolerance(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(dump_json({"operator": matrix_to_obj(np.eye(1)),
                               "tolerance": {"rank_tol": 1e-6}}))
    assert read_operand(path)[2] == Tolerance(rank_tol=1e-6)


@pytest.mark.parametrize("text", ["[]", '[{"rows": 1, "cols": 1, "data": [[1, 0]]}]',
                                  "{}", '{"space": {}, "cols": 1, "data": [[1, 0]]}'])
def test_read_operand_refuses_other_documents(capsys, tmp_path, text):
    # a top-level list, and an object with neither "operator" nor "rows"
    path = tmp_path / "x.json"
    path.write_text(text)
    assert main(["indices", "-i", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: input must be a problem file (operator key) or a matrix file\n")


def test_read_matrix_names_its_file_and_checks_squareness_on_request(tmp_path):
    problem, wide = tmp_path / "p.json", tmp_path / "b.json"
    problem.write_text(dump_json({"operator": matrix_to_obj(np.eye(2))}))
    B = np.arange(6.0).reshape(2, 3) * (1 - 1j)
    wide.write_text(dump_json(matrix_to_obj(B)))
    for square in (False, True):
        # a problem file is not a matrix file, whatever it holds
        with pytest.raises(InputError, match=r"^some basis: missing field 'rows'$"):
            read_matrix(problem, "some basis", square)
    assert np.array_equal(read_matrix(wide, "some basis"), B)
    with pytest.raises(InputError, match=r"^some basis must be square$"):
        read_matrix(wide, "some basis", square=True)


@pytest.mark.parametrize("obj", [
    {},                                                       # no operator
    {"operator": {"rows": 2, "cols": 2, "data": [[1, 0]] * 4},
     "space": {"J": {"rows": 3, "cols": 3, "data": [[1, 0]] * 9}}},
    {"operator": {"rows": 2, "cols": 2, "data": [[1, 0]] * 4},
     "tolerance": {"bogus": 1.0}},
    {"operator": {"rows": 2, "cols": 3, "data": [[1, 0]] * 6}},   # not square
] + [{"operator": {"rows": 1, "cols": 1, "data": [[1, 0]]}, "tolerance": tol}
     for tol in (False, 0, [], "", [1], "x")])                  # not an object
def test_problem_from_obj_rejects(obj):
    with pytest.raises(InputError):
        problem_from_obj(obj)


def test_collector_pause_restores_the_callers_state():
    assert gc.isenabled()
    with pytest.raises(InputError), serial._collector_paused():
        assert not gc.isenabled()
        raise InputError("read failed")
    assert gc.isenabled()
    gc.disable()
    try:
        with serial._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_load_json_failures(tmp_path):
    with pytest.raises(InputError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(InputError):
        load_json(bad)


def reference_read(path, convert):
    """The reader before orjson: ``convert`` of json's tree of the text
    ``open(path, encoding="utf-8")`` gives, kept as the reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return convert(tree)


def bits(value):
    """``value`` with each array and double replaced by its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, Tolerance):
        return bits(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def read_outcome(read, path, convert):
    """The bits of ``read(path, convert)``, or its ``InputError`` message."""
    try:
        return bits(read(path, convert))
    except InputError as exc:
        return str(exc)


CONVERTERS = (problem_from_obj, partial(matrix_from_obj, what="operator"))


def assert_readers_agree(path):
    for convert in CONVERTERS:
        assert (read_outcome(read_json, path, convert)
                == read_outcome(reference_read, path, convert))


def _matrix(rows, cols, data, extra=""):
    return f'{{"rows":{rows},"cols":{cols},"data":{data}{extra}}}'.encode()


_ONE = _matrix(1, 1, "[[1.5,-0.0]]")
_DEEP = 2000


def _noted(note: str) -> bytes:
    """A 1 x 1 matrix file with an ignored ``note`` field."""
    return _matrix(1, 1, "[[1,0]]", ',"note":' + note)


def _tolerance(text: str) -> bytes:
    return b'{"operator":' + _ONE + b',"tolerance":{"rank_tol":' + text.encode() + b"}}"


# files on which orjson and json could differ; json must decide each
_EDGE_FILES = {
    "plain": _ONE,
    "ignored NaN": _noted("NaN"),
    "Infinity": _matrix(1, 1, "[[Infinity,0]]"),
    "1e400": _matrix(1, 1, "[[1e400,0]]"),
    "ignored 1e400": _noted("1e400"),
    "tolerance 1e400": _tolerance("1e400"),
    "tolerance NaN": _tolerance("NaN"),
    "tolerance 2**64": _tolerance(str(2 ** 64)),
    "escaped lone surrogate": _noted('"\\ud800"'),
    "escaped low surrogate": _noted('["\\udfff", 1]'),
    "rows 2**64": _matrix(2 ** 64, 1, "[[1,0]]"),
    "rows 2**64+1": _matrix(2 ** 64 + 1, 0, "[]"),
    "rows -2**63-1": _matrix(-2 ** 63 - 1, 1, "[[1,0]]"),
    "rows 2**63": _matrix(2 ** 63, 1, "[[1,0]]"),
    "entries 2**64, -2**63-1": _matrix(1, 1, f"[[{2 ** 64},{-2 ** 63 - 1}]]"),
    "entries 2**64-1, -2**63": _matrix(1, 1, f"[[{2 ** 64 - 1},{-2 ** 63}]]"),
    "entries near 2**1024": _matrix(1, 1, f"[[{10 ** 300 + 7},{2 ** 1024 - 1}]]"),
    "entry 10**400": _matrix(1, 1, f"[[{10 ** 400},0]]"),
    "json's digit limit": _noted("1" * 5000),
    "nesting 64": _noted("[" * 63 + "]" * 63),
    "nesting 65": _noted("[" * 64 + "]" * 64),
    "nesting 2000": _noted("[" * _DEEP + "]" * _DEEP),
    "objects nesting 2000": _noted('{"a":' * _DEEP + "1" + "}" * _DEEP),
    "string ]]]]": _noted('"]]]]"'),
    "string of brackets": _noted('"[[[[{{{{"'),
    "escaped quote": _noted('"\\""'),
    "nesting behind escaped quotes":
        _noted('["\\"",' + "[" * _DEEP + "]" * _DEEP + ',"\\""]'),
    "escaped backslash": _noted('"a\\\\"'),
    "duplicate key": _noted("2").replace(b'"note"', b'"rows"'),
    "BOM": b"\xef\xbb\xbf" + _ONE,
    "CRLF and CR": _ONE.replace(b",", b",\r\n").replace(b":", b"\r:\t"),
    "error after CRs": _ONE.replace(b",", b",\r").replace(b"1.5", b"1.5."),
    "not UTF-8": _ONE[:-1] + b',"note":"\xff"}',
    "UTF-8 surrogate": _ONE[:-1] + b',"note":"\xed\xa0\x80"}',
    "overlong UTF-8": _ONE[:-1] + b',"note":"\xc0\xaf"}',
    "CR in a string": _ONE[:-1] + b',"note":"a\rb"}',
    "U+2028 and DEL": _ONE[:-1] + b',"note":"\xe2\x80\xa8\x7f"}',
    "trailing NUL": _ONE + b"\x00",
    "empty": b"",
    "whitespace": b"  \r\n",
    "unclosed": b"[" * 200 + b"]" * 199,
}


@pytest.mark.parametrize("raw", _EDGE_FILES.values(), ids=_EDGE_FILES.keys())
def test_read_json_decides_like_json(tmp_path, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    assert_readers_agree(str(path))


def _fail(*args, **kwargs):
    raise AssertionError("the wrong parser ran")


@pytest.mark.parametrize("note", ['"]]]]"', '"{{\\u0041"', "[" * 63 + "]" * 63])
def test_plain_files_skip_json(tmp_path, monkeypatch, note):
    raw = _matrix(1, 1, "[[1,\r\n0.5]]", f',"note":{note}')
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    if b"\\" in raw:        # an escape sends the file to json
        monkeypatch.setattr(orjson, "loads", _fail)
    else:
        monkeypatch.setattr(serial, "_json_tree", _fail)
    assert read_json(path, matrix_from_obj).tolist() == [[1 + 0.5j]]


@pytest.mark.parametrize("note, nesting", [
    ('"]]]]"', 3), ('"[[[[{{"', 3), ("[" * 64 + "]" * 64, 65), ("[[]]", 3),
    ('"[[[', 4), ('"a"[[[', 4), ("]]]]]", 3)])
def test_nesting_is_counted_outside_strings(note, nesting):
    assert serial._nesting(_matrix(1, 1, "[[1,0]]", f',"note":{note}')) == nesting


json_ws = st.sampled_from(["", "", " ", "\n", "\r\n", "\r", "\t", " \r\n\t "])
# numerals both parsers take, and ones orjson refuses or turns into doubles
exact_numerals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17e}".format),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.25G}".format),
    st.floats(5e-5, 2e-4).map(repr),
    st.floats(5e15, 2e16).map(repr),
    st.floats(0, 1e-307).map(repr),                     # subnormals
    st.floats(0, 1e-307).map("{:.30e}".format),
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][+-]?[0-9]{1,2})?",
                  fullmatch=True),
    st.sampled_from([2 ** 63, -2 ** 63, 2 ** 64]).flatmap(
        lambda base: st.integers(-3, 3).map(lambda d: str(base + d))),
    st.integers().map(str),
    st.integers(-2 ** 1000, 2 ** 1000).map(str),
    st.sampled_from(["-0", "-0.0", "0.0001", "1e-4", "9.999999999999999e-05",
                     "1e16", "1E+16", "9999999999999998", "5e-324", "2.5e-324",
                     "2.2250738585072014e-308", "1.7976931348623157e308",
                     "1.7976931348623158e308", "1e-400"]))
odd_numerals = st.one_of(
    st.sampled_from(["NaN", "-Infinity", "1e400", "-1e999", str(2 ** 1024), "9" * 400]),
    st.from_regex(r"-?[1-9]\.[0-9]{0,20}[eE]\+?3[0-9][0-9]", fullmatch=True))
json_numerals = exact_numerals | odd_numerals


def mostly(good, odd):
    """``good`` three draws in four, else ``good | odd``: most files stay
    on orjson's path, so that path is the one the property tests."""
    return st.sampled_from([good] * 3 + [good | odd]).flatmap(lambda s: s)
json_strings = st.one_of(
    st.text(max_size=6).map(partial(json.dumps, ensure_ascii=False)),
    st.sampled_from(['"]]]]"', '"\\""', '"[{"', '"\\ud800"', '"\\\\"']))


@st.composite
def json_texts(draw, fields, note=True):
    """An object of ``fields``, (key, value text) pairs, in a drawn order,
    with drawn whitespace around every token and maybe an ignored note."""
    fields = list(fields)
    if note and draw(st.integers(0, 2)) == 0:
        fields.append(("note", draw(mostly(json_strings | exact_numerals, odd_numerals))))
    fields = draw(st.permutations(fields))
    ws = draw(st.lists(json_ws, min_size=4 * len(fields) + 2,
                       max_size=4 * len(fields) + 2))
    parts = [ws[0], "{"]
    for k, (key, value) in enumerate(fields):
        parts += [ws[4 * k + 1], "," if k else "", json.dumps(key), ws[4 * k + 2], ":",
                  ws[4 * k + 3], value, ws[4 * k + 4]]
    return "".join(parts + ["}", ws[-1]])


@st.composite
def matrix_texts(draw, square=False):
    rows = draw(st.integers(0, 3))
    cols = rows if square else draw(st.integers(0, 3))
    count = lambda v: mostly(st.just(str(v)), st.sampled_from(  # noqa: E731
        [f"{v}.0", str(v + 2 ** 64), str(v - 2 ** 63 - 1), "-0", "1e400"]))
    numerals = draw(st.sampled_from([exact_numerals] * 3 + [json_numerals]))
    pair = st.tuples(numerals, numerals).map("[{0[0]},{0[1]}]".format)
    data = draw(st.lists(pair, min_size=rows * cols, max_size=rows * cols))
    if draw(st.integers(0, 9)) == 0:       # a length off by one
        data = data[:-1] if data else [draw(pair)]
    return draw(json_texts([("rows", draw(count(rows))), ("cols", draw(count(cols))),
                            ("data", "[" + ",".join(data) + "]")]))


@st.composite
def problem_texts(draw):
    fields = [("operator", draw(matrix_texts(square=True)))]
    if draw(st.booleans()):
        fields.append(("space", draw(json_texts([("J", draw(matrix_texts(square=True)))]))))
    if draw(st.booleans()):
        tol = draw(st.lists(st.sampled_from(["rank_tol", "residual_tol"]), unique=True))
        fields.append(("tolerance", draw(json_texts(
            [(name, draw(mostly(st.floats(1e-12, 1e-2).map(repr), json_numerals)))
             for name in tol], note=False))))
    return draw(json_texts(fields))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(matrix_texts() | problem_texts(),
       st.sampled_from([b""] * 17 + [b"\xff", b"\xed\xa0\x80", b"\xef\xbb\xbf"]))
@example('{"rows":1,"cols":1,"data":[[4.9406564584124654e-324,-0.0]]}', b"")
@example('{"rows":1,"cols":1,"data":[[9223372036854775808,18446744073709551616]]}', b"")
@example('{"operator":{"rows":0,"cols":0,"data":[]},"tolerance":{"rank_tol":1e-4}}', b"")
def test_read_json_equals_the_json_reader(text, stray):
    # same arrays and tolerances, bit for bit, or the same InputError
    # message, on well-formed files and on files a drawn stray byte spoils
    raw = text.encode()
    cut = len(raw) // 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "wb") as fh:
            fh.write(raw[:cut] + stray + raw[cut:])
        assert_readers_agree(path)


def test_dump_json_is_compact_and_sorted():
    s = dump_json({"b": 1, "a": [1.5, True]})
    assert s == '{"a":[1.5,true],"b":1}'


def lists(obj):
    """``obj`` with each array replaced by the per-entry matrix object the
    writer produced before it rendered arrays itself."""
    if isinstance(obj, np.ndarray):
        A = np.asarray(obj, dtype=complex)
        return {"rows": int(A.shape[0]), "cols": int(A.shape[1]),
                "data": [[float(x.real), float(x.imag)] for x in A.reshape(-1)]}
    if isinstance(obj, dict):
        return {key: lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [lists(value) for value in obj]
    return obj


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


doubles = st.floats() | st.sampled_from([0.0, -0.0])
arrays = st.one_of(
    hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=3),
               elements=st.builds(complex, doubles, doubles)),
    hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=3),
               elements=doubles))
scalars = st.none() | st.booleans() | st.integers() | doubles | st.text(max_size=4)
reports = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(reports)
@example({"a": np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]]),
          "b": [np.zeros((2, 0)), -0.0]})
@example({"empty": np.zeros((0, 0), dtype=complex), "n": 3})
def test_dump_json_renders_arrays_as_matrix_objects(report):
    # text, not ==: -0.0 == 0.0 would hide a lost sign
    assert dump_json(report) == canonical(lists(report))


def test_dump_json_of_a_report_without_arrays():
    report = run_property_suite(3, 1, 4)
    assert dump_json(report) == canonical(report)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(reports)
def test_write_json_is_dump_json_and_a_newline(report):
    fh = io.StringIO()
    write_json(report, fh)
    assert fh.getvalue() == dump_json(report) + "\n"


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def _write_peak(report) -> int:
    tracemalloc.start()
    try:
        write_json(report, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_json_renders_one_matrix_at_a_time():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
            for _ in range(4)]
    one = _write_peak({"command": "decompose", "m0": mats[0]})
    four = _write_peak({"command": "decompose",
                        "bases": {"m0": mats[0], "m1": mats[1]},
                        "projections": {"m2": mats[2], "m3": mats[3]}})
    listed = _write_peak({"command": "decompose", "bases": [mats[:2], tuple(mats[2:])]})
    # encoding the whole report at once would hold all four as lists and text
    assert four < 1.5 * one and listed < 1.5 * one


def loop_matrix_from_obj(obj, what: str = "matrix") -> np.ndarray:
    """The per-entry parser that ``matrix_from_obj`` replaced, kept as the
    reference for its decisions, messages and bits."""
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise InputError(f"{what}: missing field {exc}") from exc

    def is_number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not all(is_number(v) and isinstance(v, int) and v >= 0 for v in (rows, cols)):
        raise InputError(f"{what}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(f"{what}: data length must be rows*cols = {rows * cols}")
    out = np.zeros(rows * cols, dtype=complex)
    for k, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not (is_number(pair[0]) and is_number(pair[1]))):
            raise InputError(f"{what}: entry {k} is not a [re, im] pair")
        try:
            out[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise InputError(f"{what}: entry {k} does not fit in a double") from None
    if rows * cols and not np.isfinite(out).all():
        raise InputError(f"{what}: entries must be finite")
    return out.reshape(rows, cols)


def outcome(parse, obj):
    """The bits of ``parse(obj)``, or the message of its ``InputError``."""
    try:
        M = parse(obj)
    except InputError as exc:
        return str(exc)
    return M.shape, M.view(np.uint64).tobytes()


big_ints = st.sampled_from([2 ** 53 + 1, 2 ** 63 + 1, -2 ** 64 - 1, 10 ** 300 + 7,
                            10 ** 400, -10 ** 400, 2 ** 1024 - 1])
json_numbers = (st.integers() | big_ints | st.floats()
                | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
hostile = st.booleans() | st.none() | st.text(max_size=2) | st.just([1.0, [2.0]])
entries = st.one_of(
    st.lists(json_numbers, min_size=2, max_size=2),
    st.lists(json_numbers | hostile, min_size=2, max_size=2),
    st.lists(json_numbers, min_size=0, max_size=3),
    hostile | json_numbers | st.tuples(json_numbers, json_numbers))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.lists(json_numbers, min_size=2, max_size=2), max_size=6)
       | st.lists(entries, max_size=6))
@example([[2 ** 53 + 1, 2 ** 63 + 1], [-2 ** 64 - 1, 10 ** 300 + 7]])
@example([[2 ** 53 + 1, -0.0]])
@example([[1.5, 2 ** 63 + 1]])
@example([[1, 2], [True, 0]])
@example([[1, 2], ["1", 0]])
@example([[1, 2], [None, 0]])
@example([[1, 2], [10 ** 400, 0]])
@example([[float("nan"), 0], [1.0, 2]])
@example([])
def test_matrix_from_obj_matches_the_per_entry_loop(data):
    # same array bits, or the same InputError message
    obj = {"rows": len(data), "cols": 1, "data": data}
    assert outcome(matrix_from_obj, obj) == outcome(loop_matrix_from_obj, obj)


report_arrays = st.one_of(
    hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
               elements=st.builds(complex, doubles, doubles)),
    hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
               elements=doubles))
nested_reports = st.recursive(
    scalars | report_arrays,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=8)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nested_reports)
@example({"a": np.zeros((0, 5)), "b": np.zeros((5, 0), dtype=complex)})
@example({"row": np.array([[-0.0, 1.5, -2.0]]),
          "odd": np.arange(21.0).reshape(7, 3) * (1 - 2j),
          "nested": [np.eye(3), {"in": np.full((5, 1), -0.0)}]})
def test_write_json_in_two_row_blocks_is_dump_json_and_a_newline(report):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serial, "_BLOCK_ROWS", 2)    # 5- and 7-row arrays end in a part block
        fh = io.StringIO()
        write_json(report, fh)
    assert fh.getvalue() == dump_json(report) + "\n"


def reference_rows(block) -> str:
    """The text of ``block``'s data as json writes it."""
    return json.dumps(matrix_to_obj(block)["data"], separators=(",", ":"))[1:-1]


_EDGES = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
          5e-324, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
          1.7976931348623157e308]
render_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(hnp.arrays(complex, render_shapes,
                  elements=st.builds(complex, st.floats(), st.floats()))
       | hnp.arrays(float, render_shapes, elements=st.floats()))
@example(np.array([_EDGES]))
@example(np.array([_EDGES, _EDGES[::-1]]).T.copy().view(complex))
@example(np.array([[1.5 - 2j, 0.0], [0.1j, 1e15 + 3j]]))      # no special entry
@example(np.array([[float("nan"), -1e-300], [-float("inf"), 2e16]]))    # only special
@example(np.array([[5e-324, 9.999999999999999e-05, 1e16, 1.7976931348623157e308],
                   [-5e-324, -9.999999999999999e-05, -1e16, -1.7976931348623157e308]]))
def test_render_rows_is_json_text(block):
    assert serial._render_rows(block) == reference_rows(block)


class _FailingWriter:
    def __init__(self, after: int):
        self.left = after

    def write(self, text: str) -> int:
        self.left -= 1
        if self.left < 0:
            raise OSError("disk full")
        return len(text)


def test_a_failed_write_raises_and_the_next_write_completes(monkeypatch):
    monkeypatch.setattr(serial, "_BLOCK_ROWS", 1)
    report = {"m": np.ones((40, 3)), "n": np.ones((40, 3))}
    with pytest.raises(OSError, match="disk full"):
        write_json(report, _FailingWriter(after=10))
    write_json(report, _Discard())


@pytest.mark.parametrize("report", [
    {1: 2, 3: {4: 5}},
    {10: "ten", 9: [{-1: None}]},
    {1.5: [1.0], -2.0: {0.5: 2}},
    {True: 1, False: {0: None}},
    {None: {"k": 1}},
    {"s": {1: {"t": 2}}, "u": [{2: 3}], "v": {}},
])
def test_non_string_keys_render_as_json(report):
    want = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert dump_json(report) == want
    fh = io.StringIO()
    write_json(report, fh)
    assert fh.getvalue() == want + "\n"
