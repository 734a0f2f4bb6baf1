"""Two recorders for tests that count.  ``record(monkeypatch)`` wraps
``np.linalg``'s kernels and lists the LAPACK passes made from
``kreinalg.densela`` or ``kreinalg.decomp``, where every engine pass is taken,
so set-up calls drop out; a values-only SVD is recorded as ``svdvals``,
numpy's name for it.  ``calls(monkeypatch, fn)`` lists the calls of a kreinalg
function, rebound wherever a loaded kreinalg module or class binds it."""

import sys
from typing import NamedTuple

import numpy as np
import pytest

_ENGINE = frozenset({"kreinalg.densela", "kreinalg.decomp"})


class Pass(NamedTuple):
    kernel: str            # eigh, eigvalsh, svd, svdvals, cholesky, inv or norm
    vectors: bool          # eigenvectors or singular vectors taken
    shape: tuple
    operand: np.ndarray    # the array handed to the kernel


def kinds(passes, prefix: str = "") -> list:   # the kernels named prefix..., in order
    return [p.kernel for p in passes if p.kernel.startswith(prefix)]


def record(monkeypatch) -> list:
    passes = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky", "inv", "norm"):
        def recorded(a, *args, _name=name, _kernel=getattr(np.linalg, name), **kw):
            if sys._getframe(1).f_globals.get("__name__") in _ENGINE:
                vectors = _name == "eigh" or _name == "svd" and kw.get("compute_uv", True)
                passes.append(Pass("svdvals" if _name == "svd" and not vectors else _name,
                                   vectors, np.shape(a), a))
            return _kernel(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recorded)
    return passes


def calls(monkeypatch, fn) -> list:
    """``(args, result)`` of each call of ``fn``, which is rebound under every
    name a ``kreinalg`` module, or a class of one, binds it to; the test fails
    at once if none does, so an empty list always means no call."""
    seen = []

    def recorded(*args, **kw):
        result = fn(*args, **kw)
        seen.append((args, result))
        return result

    mods = {m for name, m in list(sys.modules.items()) if name.split(".")[0] == "kreinalg"}
    owners = mods | {c for m in mods for c in vars(m).values()
                     if isinstance(c, type) and c.__module__.startswith("kreinalg")}
    bound = [(o, key) for o in owners for key, value in vars(o).items() if value is fn]
    if not bound:
        pytest.fail(f"no kreinalg module or class binds {fn.__qualname__}")
    for owner, key in bound:
        monkeypatch.setattr(owner, key, recorded)
    return seen
