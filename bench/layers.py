"""Span tracing of kreinalg from outside the package.

``Tracer.install`` wraps the public functions of each kreinalg module by
rebinding their names in every kreinalg module that holds them (the
defining module included), and swaps each module's ``np`` for a copy
whose ``linalg`` entry points are wrapped too, so only LAPACK calls made
by the package count as the ``kernel`` layer.  ``Tracer.uninstall``
restores every original binding.

A span's self time is its duration minus the durations of the wrapped
calls made inside it, so the self times of all spans add up to the time
spent inside top-level wrapped calls.  Spans are kept in memory and
written out by ``save_spans``.
"""

from __future__ import annotations

import array
import importlib
import os
import types
from time import perf_counter

import numpy

# layer -> (module, functions reported one by one, functions timed only as
# part of the layer; None there means every function in the module's __all__)
LAYERS = {
    "cli": ("kreinalg.cli", (), ("main",)),
    "serial": ("kreinalg.serial",
               ("load_json", "matrix_from_obj", "matrix_to_obj", "dump_json"), ()),
    "krein": ("kreinalg.krein",
              ("make_space", "is_selfadjoint", "make_subspace", "classify_subspace",
               "c_orthogonal", "space_indices"), ()),
    "densela": ("kreinalg.densela",
                ("spectral_norm", "herm_eig", "inertia", "psd_sqrt", "null_basis",
                 "pinv", "svd"), ()),
    "hermdex": ("kreinalg.hermdex",
                ("hermitian_indices", "canonical_form", "transport",
                 "build_congruence", "Congruence.__post_init__"), ()),
    "decomp": ("kreinalg.decomp", ("decompose", "validate", "projections"), ()),
    "bkfact": ("kreinalg.bkfact", ("bk_factorize", "bk_verify", "keyth_verify"), ()),
    "phillips": ("kreinalg.phillips",
                 ("graph_rep", "check_compatibility", "phillips_extend"), ()),
    "genrand": ("kreinalg.genrand", (), None),
    "suite": ("kreinalg.suite",
              ("congruence_invariance_battery", "sylvester_battery",
               "decomposition_battery", "bk_roundtrip_battery",
               "bk_converse_battery", "keyth_battery", "phillips_battery",
               "identities_battery"), ()),
    "kernel": ("numpy.linalg", ("eigh", "eigvalsh", "svd", "norm", "inv"), ()),
}

MODULES = ("kreinalg", "kreinalg.cli", "kreinalg.serial", "kreinalg.krein",
           "kreinalg.densela", "kreinalg.hermdex", "kreinalg.decomp",
           "kreinalg.bkfact", "kreinalg.phillips", "kreinalg.genrand",
           "kreinalg.suite")

EXTRA_COUNTERS = ("serial.bytes_in", "serial.bytes_out", "kernel.work_n3")


def _work(args, result) -> int:
    """m * n * min(m, n), times the batch size, of a kernel's operand."""
    shape = numpy.shape(args[0])
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return int(numpy.prod(shape[:-2], dtype=numpy.int64)) * m * n * min(m, n)


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


# function (or layer) -> (counter, measure(args, result)), on normal return
_EXTRAS = {
    "serial.load_json": ("serial.bytes_in", _file_size),
    "serial.dump_json": ("serial.bytes_out", lambda args, text: len(text.encode())),
    "kernel": ("kernel.work_n3", _work),
}


class Tracer:
    """Per-function call counts and self times, plus the raw spans."""

    def __init__(self):
        self.labels: list[str] = []          # "layer.function"
        self._index: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.reported: list[bool] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = dict.fromkeys(EXTRA_COUNTERS, 0)
        self._stack: list[list] = []          # [span id, child time]
        self._next_id = 1
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_fn = array.array("i")
        self.span_t0 = array.array("d")
        self.span_t1 = array.array("d")
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn, layer: str, label: str, reported: bool, extra=None):
        idx = self._index.get(label)
        if idx is None:                     # first install: a new slot
            idx = self._index[label] = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
            self.reported.append(reported)
            self.calls.append(0)
            self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans = (self.span_id, self.span_parent, self.span_fn,
                 self.span_t0, self.span_t1)
        counters = self.counters
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[0].append(sid)
                spans[1].append(parent)
                spans[2].append(idx)
                spans[3].append(t0)
                spans[4].append(t1)
            if extra is not None:
                counters[extra[0]] += extra[1](args, result)
            return result

        return traced

    def _rebind(self, orig, new) -> None:
        """Point every kreinalg-module reference to ``orig`` at ``new``."""
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, new)
                    self._undo.append((setattr, mod, name, orig))
                elif isinstance(value, list):
                    for k, item in enumerate(value):
                        if isinstance(item, tuple) and orig in item:
                            value[k] = tuple(new if x is orig else x for x in item)
                            self._undo.append((value.__setitem__, k, item))

    def install(self) -> None:
        for layer, (modname, reported, whole) in LAYERS.items():
            if layer == "kernel":
                continue
            mod = importlib.import_module(modname)
            names = list(reported) + list(whole if whole is not None else
                                          getattr(mod, "__all__", ()))
            for name in dict.fromkeys(names):
                extra = _EXTRAS.get(f"{layer}.{name}")
                if "." in name:                      # a method
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrapper(orig, layer, f"{layer}.{name}",
                                                     name in reported))
                    self._undo.append((setattr, cls, meth, orig))
                    continue
                orig = getattr(mod, name)
                if not isinstance(orig, types.FunctionType):
                    continue                         # classes, constants
                self._rebind(orig, self._wrapper(orig, layer, f"{layer}.{name}",
                                                 name in reported, extra))
        self._install_kernel()

    def _install_kernel(self) -> None:
        la = types.ModuleType("numpy.linalg")
        la.__dict__.update(numpy.linalg.__dict__)
        for name in LAYERS["kernel"][1]:
            setattr(la, name, self._wrapper(getattr(numpy.linalg, name), "kernel",
                                            f"kernel.{name}", True,
                                            _EXTRAS["kernel"]))
        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(numpy.__dict__)
        np_proxy.linalg = la
        for modname in MODULES:
            mod = importlib.import_module(modname)
            if vars(mod).get("np") is numpy:
                mod.np = np_proxy
                self._undo.append((setattr, mod, "np", numpy))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Layer and reported-function calls/self times, plus counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, label in enumerate(self.labels):
            layer = self.layer_of[i]
            out[f"{layer}.calls"] += self.calls[i]
            out[f"{layer}.self_s"] += self.self_s[i]
            if self.reported[i]:
                out[f"{label}.calls"] = self.calls[i]
                out[f"{label}.self_s"] = self.self_s[i]
        out.update(self.counters)
        return out

    def total_self_s(self) -> float:
        return float(sum(self.self_s))

    def top(self, k: int = 10) -> list[tuple[str, int, float]]:
        order = sorted(range(len(self.labels)), key=lambda i: -self.self_s[i])
        return [(self.labels[i], self.calls[i], self.self_s[i]) for i in order[:k]
                if self.calls[i]]

    def save_spans(self, path: str) -> None:
        """Write the spans as arrays: id, parent id, function index, start, end."""
        numpy.savez(path, labels=numpy.array(self.labels),
                    id=numpy.frombuffer(self.span_id, dtype=numpy.int64),
                    parent=numpy.frombuffer(self.span_parent, dtype=numpy.int64),
                    fn=numpy.frombuffer(self.span_fn, dtype=numpy.int32),
                    t0=numpy.frombuffer(self.span_t0, dtype=numpy.float64),
                    t1=numpy.frombuffer(self.span_t1, dtype=numpy.float64))


def metric_names() -> list[str]:
    """Every per-layer metric the tracer emits, in a fixed order."""
    names = []
    for layer, (_, reported, _) in LAYERS.items():
        names += [f"{layer}.calls", f"{layer}.self_s"]
        for fn in reported:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    return names + list(EXTRA_COUNTERS)
