import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kreinalg.densela import Tolerance
from kreinalg.errors import InputError
from kreinalg.serial import (dump_json, load_json, matrix_from_obj,
                             matrix_to_obj, problem_from_obj, write_json)
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
    assert tol == Tolerance()


@pytest.mark.parametrize("obj", [
    {},                                                       # no operator
    {"operator": {"rows": 2, "cols": 2, "data": [[1, 0]] * 4},
     "space": {"J": {"rows": 3, "cols": 3, "data": [[1, 0]] * 9}}},
    {"operator": {"rows": 2, "cols": 2, "data": [[1, 0]] * 4},
     "tolerance": {"bogus": 1.0}},
    {"operator": {"rows": 2, "cols": 3, "data": [[1, 0]] * 6}},   # not square
])
def test_problem_from_obj_rejects(obj):
    with pytest.raises(InputError):
        problem_from_obj(obj)


def test_load_json_failures(tmp_path):
    with pytest.raises(InputError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(InputError):
        load_json(bad)


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
    # encoding the whole report at once would hold all four as lists and text
    assert four < 1.5 * one
