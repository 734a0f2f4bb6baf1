"""Fuzzed command lines: every input file, however malformed, ends in an
exit code of 0-3 from the in-process ``main``, never in an exception, and
with at most a one-line message (no warning printed beside it).

Inputs are arbitrary JSON values (huge integers, NaN/Inf, booleans,
strings, nesting) and near-miss matrix and problem objects with at most
three rows and columns, run through ``indices``, ``decompose``,
``factorize``, ``congruent`` and ``phillips`` with and without ``--space``.
Every file drawn is also read by ``read_json`` and by json's reader, which
must give the same arrays and tolerances or the same message.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from kreinalg.cli import main
from kreinalg.errors import InputError
from kreinalg.serial import (load_json, matrix_from_obj, matrix_to_obj,
                             problem_from_obj, read_json)

KEYS = ("rows", "cols", "data", "operator", "space", "J", "tolerance",
        "rank_tol", "residual_tol")

json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-10 ** 30, 10 ** 30) | st.sampled_from([10 ** 400, 2 ** 63, -1])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=3),
    max_leaves=8)

entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-9, 1e-300, 1e300]) | st.floats(-3, 3)


@st.composite
def raw_matrices(draw):
    """A rows/cols/data object that is right, or nearly right."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = rows * cols
    pair = st.lists(entries, min_size=2, max_size=2)
    data = draw(st.lists(pair | json_values if draw(st.booleans()) else pair,
                         min_size=max(n - 1, 0), max_size=n + 1))
    obj = {"rows": rows, "cols": cols, "data": data}
    field = draw(st.sampled_from((None, None, None) + KEYS[:3]))
    if field is not None:
        if draw(st.booleans()):
            del obj[field]
        else:
            obj[field] = draw(json_values)
    return obj


@st.composite
def square_matrices(draw, n, symmetry=False):
    """An n x n matrix object: a signature matrix rotated by a unitary, a
    Hermitian matrix, or arbitrary entries."""
    kind = draw(st.sampled_from(["symmetry", "hermitian", "raw"] if symmetry
                                else ["hermitian", "raw"]))
    if kind == "symmetry":
        signs = draw(st.lists(st.sampled_from([1.0, -1.0, 0.0, 1.0 + 1e-7]),
                              min_size=n, max_size=n))
        Z = draw(st.lists(st.floats(-3, 3), min_size=n * n, max_size=n * n))
        Q = np.linalg.qr(np.reshape(Z, (n, n)) + 1e-3 * np.eye(n))[0]
        M = (Q * np.array(signs)) @ Q.conj().T
    else:
        M = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                     dtype=complex).reshape(n, n)
        if kind == "hermitian":
            M = M + M.conj().T
    return matrix_to_obj(M)


@st.composite
def operand_files(draw, n, space=False):
    """Content of an n-dimensional operand (or, with ``space``, symmetry) file."""
    kind = draw(st.sampled_from(["json", "matrix", "basis", "square", "problem"]))
    if kind == "json":
        return draw(json_values)
    if kind == "matrix":
        return draw(raw_matrices())
    if kind == "basis":
        cols = draw(st.integers(0, 2))
        return matrix_to_obj(np.reshape(draw(st.lists(
            entries, min_size=n * cols, max_size=n * cols)), (n, cols)))
    if kind == "square" or space:
        return draw(square_matrices(n, symmetry=space))
    problem = {"operator": draw(square_matrices(n) | raw_matrices())}
    if draw(st.booleans()):
        problem["space"] = {"J": draw(square_matrices(n, symmetry=True))}
    if draw(st.booleans()):
        problem["tolerance"] = draw(st.dictionaries(
            st.sampled_from(KEYS[-2:]), st.sampled_from([1e-6, 1e-2, 0.5, 0.0])
            | json_values, max_size=2))
    return problem


@st.composite
def command_lines(draw):
    """(command, first operand, second operand, --space file or None,
    --machine), the files mostly of one shared dimension."""
    n = draw(st.integers(0, 3))
    return (draw(st.sampled_from(["indices", "decompose", "factorize",
                                  "congruent", "phillips"])),
            draw(operand_files(n)), draw(operand_files(n)),
            draw(st.none() | operand_files(n, space=True)), draw(st.booleans()))


def read_outcome(read, path, convert):
    """The bits of ``read(path, convert)``, or its ``InputError`` message."""
    try:
        value = read(path, convert)
    except InputError as exc:
        return str(exc)
    return [(part.shape, part.tobytes()) if isinstance(part, np.ndarray) else part
            for part in (value if isinstance(value, tuple) else (value,))]


def json_read(path, convert):
    return convert(load_json(path))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command_lines())
def test_cli_never_raises(case):
    command, first, second, space, machine = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("a", first), ("b", second), ("j", space)):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(obj))
            for convert in (problem_from_obj, matrix_from_obj):
                assert (read_outcome(read_json, paths[-1], convert)
                        == read_outcome(json_read, paths[-1], convert))
        if command in ("congruent", "phillips"):
            argv = [command, paths[0], paths[1]]
        else:
            argv = [command, "-i", paths[0]]
        if space is not None:
            argv += ["--space", paths[2]]
        if machine:
            argv.append("--machine")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        if code in (2, 3):
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1
