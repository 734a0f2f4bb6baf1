"""One recorder of the LAPACK passes the engines take: ``record(monkeypatch)``
wraps ``np.linalg``'s kernels and lists the calls made from ``kreinalg.densela``
or ``kreinalg.decomp``, where every engine pass is taken, so set-up calls drop
out.  A values-only SVD is recorded as ``svdvals``, numpy's name for it."""

import sys
from typing import NamedTuple

import numpy as np

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
