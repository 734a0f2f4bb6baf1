import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from kreinalg import suite
from kreinalg.cli import main
from kreinalg.densela import Tolerance
from kreinalg.errors import InputError, PreconditionFailed
from kreinalg.krein import Subspace, hilbert_space
from kreinalg.suite import (DEFAULT_COUNTS, bk_converse_battery,
                            bk_roundtrip_battery, keyth_battery,
                            run_property_suite)
from passes import kinds, record


def test_report_shape_and_determinism():
    a = run_property_suite(31, count=8)
    b = run_property_suite(31, count=8)
    assert a == b
    assert a["schema_version"] == 1
    assert a["seed"] == 31
    assert [x["name"] for x in a["batteries"]] == list(DEFAULT_COUNTS)
    json.dumps(a)          # every value must serialize


def test_count_zero_is_vacuous():
    rep = run_property_suite(1, count=0)
    assert rep["passed"]
    for b in rep["batteries"]:
        assert b["cases"] == 0 and b["failures"] == 0
    # every field is reported when no case ran: worst values 0.0, no best
    # non-congruent residual, and the refactorizations skipped
    zero = {"cases": 0, "failures": 0, "passed": True}
    assert rep["batteries"] == [
        {"name": "congruence_invariance", **zero},
        {"name": "sylvester_classification", **zero,
         "worst_congruent_residual": 0.0, "best_noncongruent_residual": None},
        {"name": "decomposition", **zero, "worst_projection_residual": 0.0},
        {"name": "bk_roundtrip", **zero, "kernel_cases": 0,
         "kernel_cases_required": 0, "worst_product_residual": 0.0},
        {"name": "bk_converse", **zero, "refactorizations": 50,
         "refactorization_failures": 0},
        {"name": "keyth_pipeline", **zero},
        {"name": "phillips_extension", **zero, "worst_contraction_norm": 0.0,
         "worst_restriction_residual": 0.0},
        {"name": "keyfact_identities", **zero, "worst_residual": 0.0},
    ]
    assert all(type(v) is float for b in rep["batteries"]
               for k, v in b.items() if k.startswith("worst_"))


def test_seed_changes_streams():
    a = run_property_suite(1, count=4)
    b = run_property_suite(2, count=4)
    assert a != b


def test_roundtrip_battery_counts_kernels():
    rep = bk_roundtrip_battery(5, count=40)
    assert rep["passed"]
    assert rep["kernel_cases"] >= rep["kernel_cases_required"]
    assert rep["worst_product_residual"] <= 1e-8


def test_converse_battery_refactorizations():
    rep = bk_converse_battery(5, count=30)
    assert rep["passed"]
    assert rep["refactorizations"] == 50
    assert rep["refactorization_failures"] == 0


def test_keyth_battery_validates_each_symmetry_once(monkeypatch):
    import kreinalg.bkfact as bkfact
    import kreinalg.krein as krein
    spaces, read = [], []
    make_space, space_indices = krein.make_space, krein.space_indices

    def counted(J, *rest):
        spaces.append(make_space(J, *rest))
        return spaces[-1]

    for mod in [m for name, m in sys.modules.items() if name.startswith("kreinalg")]:
        if getattr(mod, "make_space", None) is make_space:
            monkeypatch.setattr(mod, "make_space", counted)
    monkeypatch.setattr(bkfact, "space_indices",
                        lambda H: read.append(H) or space_indices(H))
    assert keyth_battery(9, count=6)["passed"]
    assert len(spaces) == 6
    # keyth_verify reads the space the battery made of J_A: its factor's domain
    assert len(read) == 6 and all(a is b for a, b in zip(read, spaces))


def test_sylvester_battery_counts_from_its_eigendecompositions(monkeypatch):
    # every case eigendecomposes both operators, so the congruence verdict
    # takes no eigenvalues-only pass of its own
    passes = record(monkeypatch)
    report = suite.sylvester_battery(20260822, count=30)
    assert report["passed"] and report["best_noncongruent_residual"] is not None
    assert kinds(passes, "eig") == ["eigh"] * 50


def test_default_suite_runs_each_battery_at_its_own_size(no_workers_left,
                                                         monkeypatch):
    # stubs that echo the count they receive; run with no count, each must
    # get its battery's `count=` default, which DEFAULT_COUNTS also lists
    def echo(name):
        return lambda seed, count, dim_max, tol: {"name": name, "cases": count,
                                                  "passed": True}

    defaults = {name: inspect.signature(fn).parameters["count"].default
                for name, fn in suite._BATTERIES}
    monkeypatch.setattr(suite, "_BATTERIES",
                        [(name, echo(name)) for name, _ in suite._BATTERIES])
    got = {b["name"]: b["cases"] for b in run_property_suite(5)["batteries"]}
    assert got == defaults == DEFAULT_COUNTS


@pytest.fixture(scope="module")
def small_report():
    return run_property_suite(77, count=12)


@pytest.mark.parametrize("name", list(DEFAULT_COUNTS))
def test_batteries_pass_small(small_report, name):
    found = {b["name"]: b for b in small_report["batteries"]}[name]
    assert found["passed"], found


@pytest.fixture
def no_workers_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seed, count, dim_max", [(3, 5, 8), (1234, 2, 3), (2 ** 64 - 1, 4, 1)])
def test_pool_matches_in_process_batteries(no_workers_left, seed, count, dim_max):
    tol = Tolerance()
    want = [fn(seed, count, dim_max, tol) for _, fn in suite._BATTERIES]
    assert run_property_suite(seed, count=count, dim_max=dim_max)["batteries"] == want


def test_report_does_not_depend_on_worker_count(no_workers_left, monkeypatch):
    many = run_property_suite(19, count=6)
    sizes = []
    init = ProcessPoolExecutor.__init__

    def pool(self, max_workers=None, *rest, **kw):
        sizes.append(max_workers)
        init(self, max_workers, *rest, **kw)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_property_suite(19, count=6) == many
    assert sizes == [1]


@pytest.mark.parametrize("exc, code", [
    (InputError("battery input out of range"), 2),
    (PreconditionFailed(["first hypothesis", "second"]), 3)])
def test_worker_errors_reach_the_exit_code(no_workers_left, monkeypatch, capsys,
                                           exc, code):
    def broken(seed, count, dim_max, tol):
        raise exc

    batteries = list(suite._BATTERIES)
    batteries[5] = ("keyth_pipeline", broken)
    monkeypatch.setattr(suite, "_BATTERIES", batteries)
    assert main(["property-suite", "--seed", "4", "--count", "1", "--machine"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {exc}\n"


# a battery that kills its own worker, as the OOM killer might, in place of
# bk_roundtrip; the fork hands the patched table to the workers
_KILL_A_WORKER = ("import multiprocessing, os, signal, sys\n"
                  "from kreinalg import suite\n"
                  "from kreinalg.cli import main\n"
                  "from kreinalg.errors import KreinError\n"
                  "def killed(seed, count, dim_max, tol):\n"
                  "    os.kill(os.getpid(), signal.SIGKILL)\n"
                  "suite._BATTERIES[3] = ('bk_roundtrip', killed)\n")


def test_a_dead_worker_raises_instead_of_hanging():
    # a worker killed mid-task ends the suite with KreinError, and no other
    # worker is left behind
    code = _KILL_A_WORKER + ("try:\n"
                             "    suite.run_property_suite(4, count=1)\n"
                             "except KreinError as exc:\n"
                             "    print(type(exc).__name__, multiprocessing.active_children())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=10)
    assert done.stdout == "KreinError []\n"


def test_a_dead_worker_ends_property_suite_with_one_error_line():
    code = _KILL_A_WORKER + ("code = main(['property-suite', '--seed', '4', '--count', '1',\n"
                             "             '--machine'])\n"
                             "print(multiprocessing.active_children())\n"
                             "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10)
    assert done.returncode == 1
    assert done.stdout == "[]\n"
    assert done.stderr == "error: a worker process died before its task finished\n"


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_random_contraction_with_an_empty_side_takes_no_randomness(rows, cols):
    # the phillips battery draws its next unitaries from the same stream
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    G = suite._random_contraction(rng, rows, cols, 0.95)
    assert G.shape == (rows, cols) and G.dtype == complex
    assert rng.random() == twin.random()


def test_an_empty_subspace_is_contained_in_any():
    for n in (0, 3):
        H = hilbert_space(n)
        empty = Subspace(H, np.zeros((n, 0), dtype=complex))
        for big in (empty, Subspace(H, np.eye(n, dtype=complex))):
            assert suite._contained(empty, big, Tolerance())
