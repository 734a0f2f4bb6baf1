"""Acceptance gate: the nine headline checks, one printed verdict line each.

Each criterion runs its full-size battery at a fixed seed and must pass at
the library's default tolerances.  Timings accumulate so the last criterion
can enforce the whole-gate budget.
"""

import json
import subprocess
import sys
import time

from kreinalg.densela import Tolerance
from kreinalg.suite import (bk_converse_battery, bk_roundtrip_battery,
                            congruence_invariance_battery,
                            decomposition_battery, identities_battery,
                            keyth_battery, phillips_battery, sylvester_battery)

SEED = 20260822
DIM_MAX = 8
TOL = Tolerance()

_DURATIONS: dict[int, float] = {}


def _run(number: int, battery, *args, **kw):
    t0 = time.perf_counter()
    report = battery(SEED, *args, dim_max=DIM_MAX, tol=TOL, **kw)
    _DURATIONS[number] = time.perf_counter() - t0
    return report


def _verdict(capsys, number: int, label: str, ok: bool) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {label}"
    if number in _DURATIONS:
        line += f"  ({_DURATIONS[number]:.1f}s)"
    with capsys.disabled():
        print(line)
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_index_invariance(capsys):
    rep = _run(1, congruence_invariance_battery, 1000)
    ok = rep["passed"] and rep["cases"] == 1000 and _DURATIONS[1] < 30.0
    _verdict(capsys, 1,
             "1000 transported operators keep exact index triples in under 30s",
             ok)


def test_criterion_2_classification(capsys):
    rep = _run(2, sylvester_battery, 500)
    ok = rep["passed"] and rep["cases"] == 500 and rep["failures"] == 0
    _verdict(capsys, 2,
             "500 congruence verdicts match the index oracle, both directions",
             ok)


def test_criterion_3_decomposition(capsys):
    rep = _run(3, decomposition_battery, 1000)
    ok = rep["passed"] and rep["cases"] == 1000
    _verdict(capsys, 3,
             "1000 decompositions validate with idempotent summing projections",
             ok)


def test_criterion_4_factor_roundtrip(capsys):
    rep = _run(4, bk_roundtrip_battery, 1000)
    ok = (rep["passed"] and rep["cases"] == 1000
          and rep["kernel_cases"] >= 200)
    _verdict(capsys, 4,
             "1000 factorizations verify, at least 200 with nontrivial kernel",
             ok)


def test_criterion_5_signature_forcing(capsys):
    rep = _run(5, bk_converse_battery, 1000)
    ok = (rep["passed"] and rep["cases"] == 1000
          and rep["refactorizations"] == 50)
    _verdict(capsys, 5,
             "1000 built products force exact factor-space signatures, "
             "invariant under 50 refactorizations",
             ok)


def test_criterion_6_graph_pipeline(capsys):
    rep = _run(6, keyth_battery, 300)
    ok = rep["passed"] and rep["cases"] == 300
    _verdict(capsys, 6,
             "300 graph pipelines transfer indices exactly with dim bounds",
             ok)


def test_criterion_7_contraction_extension(capsys):
    rep = _run(7, phillips_battery, 300)
    ok = rep["passed"] and rep["cases"] == 300
    _verdict(capsys, 7,
             "300 semidefinite pairs extend to maximal pairs through one "
             "contraction",
             ok)


def test_criterion_8_root_identities(capsys):
    rep = _run(8, identities_battery, 500)
    ok = rep["passed"] and rep["cases"] == 500
    _verdict(capsys, 8,
             "500 square-root factor identities hold with band invariance",
             ok)


def test_criterion_9_deterministic_reports(capsys):
    cmd = [sys.executable, "-m", "kreinalg.cli", "property-suite",
           "--seed", str(SEED), "--machine"]
    t0 = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    _DURATIONS[9] = time.perf_counter() - t0
    total = sum(_DURATIONS.values())
    identical = first.stdout == second.stdout and first.stdout.strip() != b""
    clean = first.returncode == 0 and second.returncode == 0
    suite_passed = False
    if identical and clean:
        suite_passed = bool(json.loads(first.stdout)["passed"])
    ok = identical and clean and suite_passed and total < 120.0
    _verdict(capsys, 9,
             f"two full suite runs agree byte for byte, gate total "
             f"{total:.1f}s of 120s",
             ok)
