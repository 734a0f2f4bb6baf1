"""The pass ledger: how many LAPACK passes of each kernel (``passes.record``)
every command takes.  ``golden/passes.json`` has a row per golden command line
(``cli.main`` in ``tests/golden``), per property-suite battery at the golden's
arguments (in process: the recorder cannot see the suite's forked workers), and
per command on the benchmark's seed-1 problem at n = 128.  A change that
changes a count updates the table in the same diff; regenerate it with

    python tests/test_passes.py
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from passes import kinds, record
from test_golden import CASES, GOLDEN, SRC

LEDGER = GOLDEN / "passes.json"


def _n128_inputs(tmp: str) -> tuple:
    """The benchmark's problem at n = 128, seed 1, and a congruent copy of it."""
    spec = importlib.util.spec_from_file_location("gen", SRC.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = gen.rng_for(1, 128)
    J, C, _ = gen.problem(rng, 128)
    paths = str(Path(tmp) / "problem.json"), str(Path(tmp) / "pair.json")
    gen.write_problem(paths[0], J, C)
    gen.write_problem(paths[1], *gen.transported(rng, J, C))
    return paths


def ledger() -> dict:
    sys.path.insert(0, str(SRC))
    from kreinalg import suite
    from kreinalg.cli import main
    from kreinalg.densela import Tolerance
    rows = {}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        problem, pair = _n128_inputs(tmp)
        mp.chdir(GOLDEN)
        passes = record(mp)

        def row(name, run, *args):
            passes.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                out = run(*args)
            assert out in (0, 1) or isinstance(out, dict), (name, out)
            rows[name] = dict(sorted(Counter(kinds(passes)).items()))

        for name, argv in CASES.items():
            if name != "property-suite":
                row(name, main, [*argv, "--machine"])
        for name, battery in suite._BATTERIES:
            row(f"property-suite:{name}", battery, 20260822, 3, 8, Tolerance())
        for argv in (["indices", "-i", problem], ["decompose", "-i", problem],
                     ["factorize", "-i", problem], ["congruent", problem, pair]):
            row(f"n128:{argv[0]}", main, [*argv, "--machine"])
    return rows


def test_pass_ledger():
    want, got = json.loads(LEDGER.read_text()), ledger()
    changed = [f"{name}: {want.get(name)} -> {got.get(name)}"
               for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert not changed, "pass counts changed (old -> new):\n" + "\n".join(changed)


if __name__ == "__main__":
    rows = ledger()   # one row a line, so a diff shows each changed row
    LEDGER.write_text("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(row)}"
                                         for name, row in rows.items()) + "\n}\n")
