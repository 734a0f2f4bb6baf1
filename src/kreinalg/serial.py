"""JSON serialization for matrices and problem files.

Complex entries travel as [re, im] pairs, row-major, so files are
locale-proof and round-trip bit-exactly.  A problem file carries an
operator, an optional space (J defaults to the identity, Hilbert mode),
and optional tolerance overrides.

Reports hold their matrices as arrays; the writer renders them in row
blocks, in order, so no whole matrix exists as Python lists or text.
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain

import numpy as np

from ._pool import fork_map
from .densela import Tolerance
from .errors import InputError

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "problem_from_obj",
    "load_json",
    "dump_json",
    "write_json",
]

# rows per rendered block of a report matrix, and the matrix entries in a
# report from which write_json renders the blocks in forked workers: a
# two-worker pool costs 0.01-0.03 s, a 2**16-entry matrix 0.15 s to render
_BLOCK_ROWS, _POOL_ENTRIES = 32, 1 << 16


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
    if rows * cols and not np.isfinite(out).all():
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


def problem_from_obj(obj) -> tuple[np.ndarray | None, np.ndarray, Tolerance]:
    """Parse a problem object into (J or None, operator matrix, tolerance)."""
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
    if tol_obj is None:         # a missing field or null: no overrides
        tol_obj = {}
    if not isinstance(tol_obj, dict):
        raise InputError("tolerance must be an object")
    unknown = set(tol_obj) - {"rank_tol", "residual_tol"}
    if unknown:
        raise InputError(f"unknown tolerance fields: {sorted(unknown)}")
    tol = Tolerance(**{name: _as_float(tol_obj.get(name, getattr(Tolerance, name)),
                                       f"tolerance.{name}")
                       for name in ("rank_tol", "residual_tol")})
    return J, op, tol


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


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable UTF-8, integers past the digit limit,
        # nesting past the recursion limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _matrix_default(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_matrix_default)


def _render_rows(block) -> str:
    """The [re, im] pairs of ``block``, comma-separated, without brackets."""
    return json.dumps(matrix_to_obj(block)["data"], separators=(",", ":"))[1:-1]


def _pieces(obj):
    """The canonical text of ``obj`` in pieces: a dict with string keys is
    walked key by key, an array is its matrix object with the data left as
    row blocks for :func:`_render_rows`, any other value (a list and its
    arrays, a dict with other keys) is text."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for k, key in enumerate(sorted(obj)):
            yield f"{',' if k else ''}{_dumps(key)}:"
            yield from _pieces(obj[key])
        yield "}"
    elif isinstance(obj, np.ndarray):
        rows, cols = obj.shape[0], obj.shape[1]
        yield f'{{"cols":{cols},"data":['
        for r in range(0, rows if cols else 0, _BLOCK_ROWS):
            if r:
                yield ","
            yield obj[r:r + _BLOCK_ROWS]
        yield f'],"rows":{rows}}}'
    else:
        yield _dumps(obj)


def dump_json(obj) -> str:
    """Canonical single-document rendering: sorted keys, no whitespace drift.
    An array anywhere in ``obj`` renders as its :func:`matrix_to_obj` object."""
    return "".join(p if isinstance(p, str) else _render_rows(p) for p in _pieces(obj))


def write_json(obj, fh) -> None:
    """Write :func:`dump_json` of ``obj`` and a newline to ``fh``, piece by
    piece.  Forked workers render the row blocks when the report holds
    ``_POOL_ENTRIES`` matrix entries and more than one CPU is available."""
    pieces = list(_pieces(obj))
    blocks = [p for p in pieces if not isinstance(p, str)]
    pooled = (blocks and sum(b.size for b in blocks) >= _POOL_ENTRIES
              and len(os.sched_getaffinity(0)) > 1)
    with (fork_map(_render_rows, blocks) if pooled
          else nullcontext(map(_render_rows, blocks))) as rendered:
        for p in pieces:
            fh.write(p if isinstance(p, str) else next(rendered))
    fh.write("\n")
