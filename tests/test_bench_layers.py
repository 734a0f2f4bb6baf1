"""The benchmark's span tracer names functions of the package by string.

`bench/layers.py` wraps each name in its ``LAYERS`` table and skips a name
that is no longer a function, so a rename in ``kreinalg`` would silently
drop a per-layer metric.  This test reads the table, without running the
tracer, and checks that every name still resolves.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


def _resolve(module, name: str):
    if "." in name:                         # a method, wrapped on its class
        cls_name, meth = name.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, name)


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_resolves(layer):
    modname, reported, whole = LAYERS[layer]
    module = importlib.import_module(modname)
    names = list(reported) + list(whole if whole is not None else module.__all__)
    assert names, layer
    for name in names:
        fn = _resolve(module, name)
        if layer == "kernel":
            assert callable(fn), name
        elif whole is None and name not in reported:
            continue                        # the tracer skips classes in __all__
        else:
            assert isinstance(fn, types.FunctionType), f"{modname}.{name}"
