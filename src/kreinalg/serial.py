"""JSON serialization for matrices and problem files.

Complex entries travel as [re, im] pairs, row-major, so files are
locale-proof and round-trip bit-exactly.  A problem file carries an
operator, an optional space (J defaults to the identity, Hilbert mode),
and optional tolerance overrides; :func:`read_operand` reads every
operand file and decides which of the two it is, and :func:`read_matrix`
reads every other matrix file: a symmetry, a basis.

:func:`read_json` reads every input file: orjson parses a file that holds
no backslash and nests at most ``_MAX_NESTING`` brackets deep, and json
parses the same bytes when orjson or the conversion refuses them, so json
decides every failure and its message.

Reports hold their matrices as arrays; the writer renders every array in
row blocks, in order, so no whole matrix exists as Python lists or text.
orjson renders each block; json renders the entries that orjson would
write unlike ``float.__repr__``.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain

import numpy as np

from .densela import Tolerance
from .errors import InputError

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "problem_from_obj",
    "read_operand",
    "read_matrix",
    "load_json",
    "read_json",
    "dump_json",
    "write_json",
]

# rows per rendered block of a report matrix
_BLOCK_ROWS = 32

# the deepest bracket nesting orjson is given: input files nest at most 5
# deep, json refuses about 1,000, and orjson 3.8.3 crashes near 200,000
_MAX_NESTING = 64
# _nesting's tables: the bytes it drops (all but brackets and quotes), a
# string without escapes, and each bracket's step in depth
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STRING = re.compile(rb'"[^"]*"')
_NEST_STEP = np.zeros(256, np.int8)
_NEST_STEP[list(b"[{")] = 1
_NEST_STEP[list(b"]}")] = -1


def matrix_to_obj(M) -> dict:
    A = np.asarray(M, dtype=complex)
    data = np.stack([A.real, A.imag], -1).reshape(-1, 2).tolist()
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": data}


def _is_number(v) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_float(v, what: str) -> float:
    if not _is_number(v):
        raise InputError(f"{what} must be a number")
    try:
        return float(v)
    except OverflowError:
        raise InputError(f"{what} does not fit in a double") from None


def matrix_from_obj(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise InputError(f"{what}: missing field {exc}") from exc
    if not all(_is_number(v) and isinstance(v, int) and v >= 0 for v in (rows, cols)):
        raise InputError(f"{what}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(f"{what}: data length must be rows*cols = {rows * cols}")
    out = None
    if (set(map(type, data)) <= {list} and set(map(len, data)) <= {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        # checked first: numpy would turn True, "1" and None into doubles
        with suppress(OverflowError):
            out = np.fromiter(chain.from_iterable(data), np.float64,
                              2 * len(data)).view(complex)
    if out is None:     # the per-entry loop names the first bad entry
        out = np.zeros(rows * cols, dtype=complex)
        for k, pair in enumerate(data):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not (_is_number(pair[0]) and _is_number(pair[1]))):
                raise InputError(f"{what}: entry {k} is not a [re, im] pair")
            try:
                out[k] = complex(pair[0], pair[1])
            except OverflowError:
                raise InputError(f"{what}: entry {k} does not fit in a double") from None
    if not np.isfinite(out).all():
        raise InputError(f"{what}: entries must be finite")
    try:
        return out.reshape(rows, cols)
    except ValueError:      # an empty shape with a dimension numpy cannot index
        raise InputError(f"{what}: {rows} x {cols} is too large a shape") from None


def _square_from_obj(obj, what: str) -> np.ndarray:
    """:func:`matrix_from_obj` of a square matrix: an operator or a symmetry."""
    M = matrix_from_obj(obj, what)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"{what} must be square")
    return M


def problem_from_obj(obj) -> tuple[np.ndarray | None, np.ndarray, Tolerance | None]:
    """Parse a problem object into (J or None, operator, tolerance or None if unset)."""
    if not isinstance(obj, dict) or "operator" not in obj:
        raise InputError("problem file must be an object with an 'operator' field")
    op = _square_from_obj(obj["operator"], "operator")
    J = None
    if obj.get("space") is not None:
        space = obj["space"]
        if not isinstance(space, dict) or "J" not in space:
            raise InputError("space must be an object with a 'J' matrix")
        J = _square_from_obj(space["J"], "space.J")
        if J.shape[0] != op.shape[0]:
            raise InputError(
                f"space.J dimension {J.shape[0]} does not match operator "
                f"dimension {op.shape[0]}")
    tol_obj = obj.get("tolerance")
    if tol_obj is None:         # a missing field or null: no tolerance set
        return J, op, None
    if not isinstance(tol_obj, dict):
        raise InputError("tolerance must be an object")
    unknown = set(tol_obj) - {"rank_tol", "residual_tol"}
    if unknown:
        raise InputError(f"unknown tolerance fields: {sorted(unknown)}")
    return J, op, Tolerance(**{name: _as_float(tol_obj.get(name, getattr(Tolerance, name)),
                                               f"tolerance.{name}")
                               for name in ("rank_tol", "residual_tol")})


@contextmanager
def _collector_paused():
    """Pause the cyclic collector for the block.  A parsed JSON tree holds
    no cycle, so the passes its many lists would set off free nothing.  On
    exit the collector is enabled again only if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _json_tree(raw: bytes, path):
    """json's tree of ``raw`` decoded as ``open(path, encoding="utf-8")``
    would decode it, universal newlines included."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable UTF-8, integers past the digit limit,
        # nesting past the recursion limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def load_json(path):
    """json's tree of the file at ``path``: what :func:`read_json` gives
    ``convert`` whenever orjson could decide otherwise."""
    return _json_tree(_read_bytes(path), path)


def _nesting(raw: bytes) -> int:
    """The deepest bracket nesting of ``raw`` outside its strings.  ``raw``
    holds no backslash, so each string runs from a quote to the next one."""
    marks = _STRING.sub(b"", raw.translate(None, _NOT_MARKS))
    steps = _NEST_STEP[np.frombuffer(marks, np.uint8)]
    return int(np.cumsum(steps, dtype=np.int64).max(initial=0))


def read_json(path, convert):
    """``convert`` of the JSON document in ``path``, read once.  orjson
    parses the bytes unless they hold a backslash or nest deeper than
    ``_MAX_NESTING``; if it refuses them, or ``convert`` raises
    :class:`InputError` on its tree, json parses the same bytes, so json's
    tree decides every failure.  Parsing and converting run with the
    cyclic collector paused, and each tree is dropped before it resumes."""
    # outside the pause: the objects a first import keeps would set off a
    # collection as soon as the collector resumed
    import orjson
    raw = _read_bytes(path)
    with _collector_paused():
        if b"\\" not in raw and _nesting(raw) <= _MAX_NESTING:
            with suppress(orjson.JSONDecodeError, InputError):
                return convert(orjson.loads(raw))
        return convert(_json_tree(raw, path))


def read_operand(path) -> tuple[np.ndarray | None, np.ndarray, Tolerance | None]:
    """:func:`problem_from_obj` of a problem file (an ``operator`` key), or
    ``(None, M, None)`` of a matrix file (a ``rows`` key), read by :func:`read_json`."""
    def convert(obj):
        if isinstance(obj, dict) and "operator" in obj:
            return problem_from_obj(obj)
        if isinstance(obj, dict) and "rows" in obj:
            # a matrix file is a problem file's operator alone: no J, no tolerance
            return None, _square_from_obj(obj, "operator"), None
        raise InputError(
            f"{path}: input must be a problem file (operator key) or a matrix file")
    return read_json(path, convert)


def read_matrix(path, what: str, square: bool = False) -> np.ndarray:
    """:func:`matrix_from_obj` of the file at ``path``, ``what`` in every message,
    refused unless square if ``square``; bound per call, as a tracer rebinds it."""
    return read_json(path, partial(_square_from_obj if square else matrix_from_obj, what=what))


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _render_rows(block) -> str:
    """The [re, im] pairs of ``block``, comma-separated, without brackets,
    as json writes them.  orjson writes NaN and ±inf as ``null``, non-zero
    magnitudes below 1e-4 and from 1e16 unlike ``float.__repr__``: those
    go in as NaN, and their json text replaces each ``null`` in order.
    json writes a finite float as ``float.__repr__`` does, so only NaN and
    ±inf go through json."""
    import orjson
    A = np.asarray(block, dtype=complex)
    pairs = np.stack([A.real, A.imag], -1).reshape(-1, 2)
    mag = np.abs(pairs)
    odd = ~((mag >= 1e-4) & (mag < 1e16)) & (pairs != 0)
    special = pairs[odd].tolist()
    pairs[odd] = np.nan
    text = orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1]
    if not special:
        return text
    first, *rest = text.split("null")
    return first + "".join((repr(x) if math.isfinite(x) else json.dumps(x)) + part
                           for x, part in zip(special, rest))


def _pieces(obj):
    """The canonical text of ``obj`` in pieces: a dict with string keys is
    walked key by key and a list or tuple item by item, an array is its
    matrix object with the data rendered a row block at a time by
    :func:`_render_rows`, any other value (a scalar, a dict with other keys) is text."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for k, key in enumerate(sorted(obj)):
            yield f"{',' if k else ''}{_dumps(key)}:"
            yield from _pieces(obj[key])
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for k, item in enumerate(obj):
            if k:
                yield ","
            yield from _pieces(item)
        yield "]"
    elif isinstance(obj, np.ndarray):
        rows, cols = obj.shape[0], obj.shape[1]
        yield f'{{"cols":{cols},"data":['
        # with no columns the blocks are empty text: rows x 0 data is [], not [,,,]
        for r in range(0, rows if cols else 0, _BLOCK_ROWS):
            if r:
                yield ","
            yield _render_rows(obj[r:r + _BLOCK_ROWS])
        yield f'],"rows":{rows}}}'
    else:
        yield _dumps(obj)


def dump_json(obj) -> str:
    """Canonical single-document rendering: sorted keys, no whitespace drift.
    An array anywhere in ``obj`` renders as its :func:`matrix_to_obj` object."""
    return "".join(_pieces(obj))


def write_json(obj, fh) -> None:
    """Write :func:`dump_json` of ``obj`` and a newline to ``fh``, piece by
    piece, in this process: each row block is rendered as it is written."""
    for piece in _pieces(obj):
        fh.write(piece)
    fh.write("\n")
