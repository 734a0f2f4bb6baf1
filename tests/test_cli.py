import contextlib
import gc
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kreinalg import cli, serial, suite
from kreinalg.cli import main
from kreinalg.errors import ContractionOverflow
from kreinalg.serial import dump_json, matrix_to_obj
from passes import calls, kinds, record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
J2 = np.diag([1.0, -1.0]).astype(complex)
C2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def write(path, obj):
    path.write_text(dump_json(obj))
    return str(path)


@pytest.fixture
def c2_file(tmp_path):
    return write(tmp_path / "c2.json",
                 {"space": {"J": matrix_to_obj(J2)}, "operator": matrix_to_obj(C2)})


def run_machine(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_indices_krein(capsys, c2_file):
    code, rep = run_machine(capsys, ["indices", "-i", c2_file, "--machine"])
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["indices"] == [1, 1, 0]
    assert rep["space"] == {"dim": 2, "ind_minus": 1, "ind_plus": 1}


def test_indices_defaults_to_hilbert(capsys, tmp_path):
    f = write(tmp_path / "m.json", matrix_to_obj(np.diag([4.0, -9.0, 0.0])))
    code, rep = run_machine(capsys, ["indices", "-i", f, "--machine"])
    assert code == 0
    assert rep["indices"] == [1, 1, 1]
    assert rep["space"]["ind_plus"] == 3


def test_indices_space_flag_overrides(capsys, tmp_path):
    f = write(tmp_path / "m.json", matrix_to_obj(np.eye(2)))
    s = write(tmp_path / "j.json", matrix_to_obj(J2))
    code, rep = run_machine(capsys, ["indices", "-i", f, "--space", s, "--machine"])
    assert code == 0
    assert rep["indices"] == [1, 1, 0]
    s3 = write(tmp_path / "j3.json", matrix_to_obj(np.diag([1.0, -1.0, 1.0])))
    assert main(["indices", "-i", f, "--space", s3]) == 3   # wrong size
    assert "operator needs 2x2" in capsys.readouterr().err


def test_indices_human_output(capsys, c2_file):
    assert main(["indices", "-i", c2_file]) == 0
    out = capsys.readouterr().out
    assert "h+ = 1" in out and "h- = 1" in out


_TEST_PID = os.getpid()


def _battery_and_die(task: tuple) -> dict:
    if os.getpid() == _TEST_PID:
        raise AssertionError("ran a battery in the test process")
    os.kill(os.getpid(), signal.SIGKILL)


def test_dead_suite_worker_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(suite, "_run_battery", _battery_and_die)
    assert main(["property-suite", "--count", "1", "--machine"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


_ORJSON_LOADED = ("import sys, kreinalg\n"
                  "if len(sys.argv) > 1:\n"
                  "    from kreinalg.cli import main\n"
                  "    assert main(sys.argv[1:]) == 0\n"
                  "print('orjson' in sys.modules, file=sys.stderr)\n")


@pytest.mark.parametrize("argv, loaded", [
    ([], False),
    (["property-suite", "--count", "1", "--machine"], False),
    (["indices", "-i", "C2"], True),                     # it reads the file
    (["decompose", "-i", "C2", "--machine"], True)])
def test_orjson_is_imported_to_render_a_matrix(c2_file, argv, loaded):
    argv = [c2_file if a == "C2" else a for a in argv]
    done = subprocess.run([sys.executable, "-c", _ORJSON_LOADED, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert done.stderr == f"{loaded}\n"


def _hermitian(n: int, seed: int) -> np.ndarray:
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A + A.T


@pytest.mark.parametrize("sink", ["pipe", "/dev/full"])
def test_failed_report_write_is_one_line(tmp_path, sink):
    # decompose at n = 128 writes 2**16 matrix entries, far more than a
    # pipe holds; the pipe's reader closes it after 20 bytes
    f = write(tmp_path / "c.json", matrix_to_obj(_hermitian(128, 128)))
    cmd = [sys.executable, "-m", "kreinalg", "decompose", "-i", f, "--machine"]
    env = {**os.environ, "PYTHONPATH": SRC}
    with contextlib.ExitStack() as stack:
        out = (subprocess.PIPE if sink == "pipe"
               else stack.enter_context(open(sink, "wb")))
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, env=env,
                                start_new_session=True)
        if sink == "pipe":
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):     # no worker outlives the command
        os.killpg(proc.pid, 0)


class _Stop(Exception):
    """Ends a command once its input files are read."""


def _raise_stop(*args, **kwargs):
    raise _Stop


@contextlib.contextmanager
def _collections():
    """The generations of the cyclic collections started in the block."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield starts
    finally:
        gc.callbacks.remove(count)


@pytest.fixture
def files64(tmp_path):
    """64 x 64 problem, matrix and symmetry files, and two 64 x 32 bases."""
    J = np.diag([1.0] * 40 + [-1.0] * 24)
    C = _hermitian(64, 64)
    B = np.random.default_rng(65).standard_normal((64, 64))
    return {"problem": write(tmp_path / "p.json", {"space": {"J": matrix_to_obj(J)},
                                                   "operator": matrix_to_obj(C)}),
            "matrix": write(tmp_path / "c.json", matrix_to_obj(C)),
            "space": write(tmp_path / "j.json", matrix_to_obj(J)),
            "plus": write(tmp_path / "bp.json", matrix_to_obj(B[:, :32])),
            "minus": write(tmp_path / "bm.json", matrix_to_obj(B[:, 32:]))}


@pytest.mark.parametrize("case", ["problem", "space", "phillips"])
def test_reading_files_starts_no_collection(monkeypatch, files64, case):
    # a parsed tree holds no cycle: the reader parses and converts it with
    # the cyclic collector paused, and the command stops right after reading
    argv = {"problem": ["indices", "-i", files64["problem"]],
            "space": ["indices", "-i", files64["matrix"], "--space", files64["space"]],
            "phillips": ["phillips", files64["plus"], files64["minus"],
                         "--space", files64["space"]]}[case]
    monkeypatch.setattr(cli, "_operand_space", _raise_stop)     # called after all reads
    # the first import of orjson in a process allocates enough to set off a
    # collection of its own; the reader's import must not count as its read
    import orjson  # noqa: F401
    gc.collect()
    with _collections() as starts, pytest.raises(_Stop):
        main(argv)
    assert starts == []
    assert gc.isenabled()


@pytest.mark.parametrize("content, code", [
    (json.dumps(matrix_to_obj(np.eye(2))), 0),
    (None, 2),                                          # a missing file
    ("{]", 2),
    ("[" * 100000, 2),                                  # RecursionError
    (json.dumps({"rows": 1, "cols": 1, "data": [[True, 0]]}), 2),
])
def test_collector_runs_again_after_each_read(capsys, tmp_path, content, code):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    assert main(["indices", "-i", str(path)]) == code
    assert gc.isenabled()
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_reader_keeps_a_disabled_collector(capsys, c2_file):
    gc.disable()
    try:
        assert main(["indices", "-i", c2_file]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


_DIAG = b'{"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0],[-1,0]]'


@pytest.mark.parametrize("raw, code", [
    (_DIAG + b',"note":"\\ud800"}', 0),                # orjson declines it
    (_DIAG + b"}", 0),                                  # orjson takes it
    (_DIAG.replace(b"2", str(2 ** 64).encode(), 1) + b"}", 2),   # its tree is refused
])
def test_piped_input_is_read_once(tmp_path, raw, code):
    # json parses the bytes orjson declined or whose tree was refused:
    # stdin cannot be read a second time
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    cmd = [sys.executable, "-m", "kreinalg", "indices", "-i"]
    env = {**os.environ, "PYTHONPATH": SRC}
    piped = subprocess.run(cmd + ["/dev/stdin"], input=raw, capture_output=True,
                           env=env, timeout=120)
    named = subprocess.run(cmd + [str(path)], capture_output=True, env=env, timeout=120)
    assert piped.returncode == named.returncode == code
    assert piped.stdout == named.stdout
    assert piped.stderr == named.stderr.replace(str(path).encode(), b"/dev/stdin")
    if code:
        assert piped.stderr.startswith(b"error: ") and piped.stderr.count(b"\n") == 1
    else:
        assert b"h+ = 1" in piped.stdout


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")])
def test_deep_nesting_exits_2(tmp_path, opener, closer):
    # orjson 3.8.3 segfaults on a document nested 200,000 deep; the reader's
    # nesting guard gives it to json, which refuses it
    deep = 200_000
    path = tmp_path / "deep.json"
    path.write_text(opener * deep + "1" + closer * deep)
    done = subprocess.run([sys.executable, "-m", "kreinalg", "indices", "-i", str(path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 2
    assert done.stderr.startswith("error: invalid JSON in ")
    assert done.stderr.count("\n") == 1


def test_decompose(capsys, c2_file):
    code, rep = run_machine(capsys, ["decompose", "-i", c2_file, "--machine"])
    assert code == 0
    assert rep["validation"]["passed"]
    assert rep["bases"]["plus"]["cols"] == 1
    assert rep["projections"]["zero"]["data"] == [[0.0, 0.0]] * 4


def test_factorize_writes_outputs(capsys, c2_file, tmp_path):
    out_dir = tmp_path / "fact"
    code, rep = run_machine(capsys, ["factorize", "-i", c2_file,
                                     "--out", str(out_dir), "--machine"])
    assert code == 0
    assert rep["verify"]["passed"]
    assert rep["factor_space"]["ind_plus"] == 1
    # each file is its report entry, written in the report's own rendering
    for name, entry in (("factor_space", rep["factor_space"]["J"]),
                        ("factor", rep["factor"]), ("verify", rep["verify"])):
        assert (out_dir / f"{name}.json").read_text() == dump_json(entry) + "\n"
    assert json.loads((out_dir / "verify.json").read_text())["passed"]


def test_congruent_verdicts(capsys, tmp_path):
    a = write(tmp_path / "a.json", matrix_to_obj(np.eye(2)))
    b = write(tmp_path / "b.json", matrix_to_obj(np.diag([1.0, -1.0])))
    code, rep = run_machine(capsys, ["congruent", a, a, "--machine"])
    assert code == 0 and rep["congruent"]
    assert rep["residual"] <= 1e-8
    code, rep = run_machine(capsys, ["congruent", a, b, "--machine"])
    assert code == 0 and not rep["congruent"]
    assert "X" not in rep


@pytest.mark.parametrize("a", [1e-20, 1e-17, 1e-12, 1.0, 1e20])
def test_congruent_at_any_scale(capsys, tmp_path, a):
    # a diag(1, 0) and diag(1, 0) share the triple (1, 0, 1) at every a > 0;
    # the kernel scale makes the witness a multiple of a unitary
    fa = write(tmp_path / "a.json", matrix_to_obj(np.diag([a, 0.0])))
    fb = write(tmp_path / "b.json", matrix_to_obj(np.diag([1.0, 0.0])))
    code, rep = run_machine(capsys, ["congruent", fa, fb, "--machine"])
    assert code == 0 and rep["congruent"]
    X = serial.matrix_from_obj(rep["X"])
    assert np.linalg.cond(X) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("operand, triple", [
    ({"operator": matrix_to_obj(np.diag([1.5e308, -1.0]))}, [1, 0, 1]),
    (matrix_to_obj(np.array([[1e308]])), [1, 0, 0]),
])
def test_finite_entries_up_to_the_largest_double(capsys, tmp_path, operand, triple):
    # J C + (J C)^H overflows on these operators; their Hermitian part does not
    f = write(tmp_path / "big.json", operand)
    code, rep = run_machine(capsys, ["indices", "-i", f, "--machine"])
    assert code == 0 and rep["indices"] == triple
    code, rep = run_machine(capsys, ["decompose", "-i", f, "--machine"])
    assert code == 0 and rep["validation"]["passed"]
    assert rep["validation"]["indices"] == triple
    code, rep = run_machine(capsys, ["factorize", "-i", f, "--machine"])
    assert code == 0 and rep["verify"]["passed"]
    assert rep["verify"]["operator_indices"] == triple


def test_phillips_half_pair(capsys, tmp_path):
    p = write(tmp_path / "p.json", matrix_to_obj(np.array([[1.0], [0.5]])))
    m = write(tmp_path / "m.json", matrix_to_obj(np.array([[0.5], [1.0]])))
    s = write(tmp_path / "j.json", matrix_to_obj(J2))
    code, rep = run_machine(capsys, ["phillips", p, m, "--space", s, "--machine"])
    assert code == 0
    G = rep["contraction"]
    assert (G["rows"], G["cols"]) == (1, 1)
    assert G["data"][0][0] == pytest.approx(0.5, abs=1e-12)
    assert abs(G["data"][0][1]) < 1e-12
    assert rep["dims"] == {"plus": 1, "minus": 1}


def test_phillips_writes_outputs(capsys, tmp_path):
    p = write(tmp_path / "p.json", matrix_to_obj(np.array([[1.0], [0.5]])))
    m = write(tmp_path / "m.json", matrix_to_obj(np.array([[0.5], [1.0]])))
    s = write(tmp_path / "j.json", matrix_to_obj(J2))
    out_dir = tmp_path / "ext"
    code, rep = run_machine(capsys, ["phillips", p, m, "--space", s,
                                     "--out", str(out_dir), "--machine"])
    assert code == 0
    for name in ("contraction", "maximal_plus", "maximal_minus"):
        assert (out_dir / f"{name}.json").read_text() == dump_json(rep[name]) + "\n"
    # an unwritable --out is an input error with a one-line message
    capsys.readouterr()
    blocked = str(out_dir / "contraction.json")          # a file, not a directory
    assert main(["phillips", p, m, "--space", s, "--out", blocked]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_phillips_incompatible_exit_code(capsys, tmp_path):
    p = write(tmp_path / "p.json", matrix_to_obj(np.array([[1.0], [0.0]])))
    m = write(tmp_path / "m.json", matrix_to_obj(np.array([[0.9], [1.0]])))
    s = write(tmp_path / "j.json", matrix_to_obj(J2))
    assert main(["phillips", p, m, "--space", s]) == 3
    assert "orthogonal" in capsys.readouterr().err
    s3 = write(tmp_path / "j3.json", matrix_to_obj(np.diag([1.0, -1.0, 1.0])))
    assert main(["phillips", p, m, "--space", s3]) == 3     # wrong size
    assert "operator needs 2x2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["indices", "phillips"])
def test_non_square_space_is_an_input_error(capsys, tmp_path, command):
    # a symmetry that is not square is malformed input, as in a problem file
    f = write(tmp_path / "m.json", matrix_to_obj(np.eye(2)))
    s = write(tmp_path / "j.json", matrix_to_obj(np.ones((2, 3))))
    argv = {"indices": ["indices", "-i", f], "phillips": ["phillips", f, f]}[command]
    assert main([*argv, "--space", s]) == 2
    assert capsys.readouterr().err == "error: space symmetry must be square\n"


def test_space_flag_reads_a_matrix_file_only(capsys, tmp_path):
    # operands may be problem files; the symmetry file must be a matrix file
    f = write(tmp_path / "m.json", matrix_to_obj(np.eye(2)))
    s = write(tmp_path / "j.json", {"operator": matrix_to_obj(J2)})
    assert main(["indices", "-i", f, "--space", s]) == 2
    assert capsys.readouterr().err == "error: space symmetry: missing field 'rows'\n"


def test_phillips_dimension_needs_an_input(capsys, tmp_path):
    # zero-column bases fix no dimension: without --space nothing bounds
    # "rows", with --space the symmetry's size does
    empty = write(tmp_path / "e.json", {"rows": 10 ** 10, "cols": 0, "data": []})
    assert main(["phillips", empty, empty]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    s = write(tmp_path / "j.json", matrix_to_obj(J2))
    assert main(["phillips", empty, empty, "--space", s]) == 3


_ONE = matrix_to_obj(np.eye(1))


@pytest.mark.parametrize("files, argv, code, err", [
    ({"p": matrix_to_obj(np.ones((3, 1))), "m": matrix_to_obj(np.ones((2, 1)))},
     ["phillips", "p", "m"], 3, "basis row counts differ: 3 vs 2"),
    ({"f": {"operator": _ONE, "space": [1]}}, ["indices", "-i", "f"], 2,
     "space must be an object with a 'J' matrix"),
    ({"f": {"operator": _ONE, "tolerance": {"rank_tol": 10 ** 400}}},
     ["indices", "-i", "f"], 2, "tolerance.rank_tol does not fit in a double"),
], ids=["phillips_row_counts", "space_not_an_object", "tolerance_overflows"])
def test_refusals_name_their_cause(capsys, tmp_path, files, argv, code, err):
    paths = {name: write(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
    assert main([paths.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_exit_code_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["indices", "-i", str(bad)]) == 2
    assert main(["indices", "-i", str(tmp_path / "missing.json")]) == 2
    one = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}
    hostile = {
        "huge_int": json.dumps({"operator": {**one, "data": [[10 ** 400, 0]]}}),
        "tol_string": json.dumps({"operator": one, "tolerance": {"rank_tol": "abc"}}),
        # only a missing field or null means no overrides
        **{f"tol_{name}": json.dumps({"operator": one, "tolerance": tol})
           for name, tol in (("false", False), ("zero", 0), ("empty_list", []),
                             ("empty_string", ""))},
        "bool_entry": json.dumps({"operator": {**one, "data": [[True, False]]}}),
        "bool_shape": json.dumps({"operator": {**one, "rows": True, "cols": True}}),
        "digits": "1" * 5000,
        "nesting": "[" * 100000,
        "not_utf8": b"\xff\xfe",
        "non_square": json.dumps({"rows": 2, "cols": 3, "data": [[0.0, 0.0]] * 6}),
        "huge_rows": json.dumps({"rows": 10 ** 10, "cols": 0, "data": []}),
        "unindexable_rows": json.dumps({"rows": 2 ** 62, "cols": 0, "data": []}),
        "huge_int_rows": json.dumps({"rows": 10 ** 400, "cols": 0, "data": []}),
    }
    for name, text in hostile.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a printed warning is a second line
            assert main(["indices", "-i", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name


@pytest.mark.parametrize("diagonal", [[1e308, 1.0], [1e300, -1.0], [2.0, 1.0]])
def test_symmetry_whose_square_overflows_does_not_square_to_the_identity(
        capsys, tmp_path, diagonal):
    # J^2 overflows for the first two: a Hermitian J whose square overflows
    # has ||J||_2 >= 1e154, so it is refused as diag(2, 1) is, not as NaN/Inf
    f = write(tmp_path / "p.json", {"operator": matrix_to_obj(np.eye(2)),
                                    "space": {"J": matrix_to_obj(np.diag(diagonal))}})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a printed warning is a second line
        assert main(["indices", "-i", f]) == 3
    assert capsys.readouterr().err == (
        "error: candidate symmetry does not square to the identity\n")


def test_exit_code_precondition(capsys, tmp_path, monkeypatch):
    f = write(tmp_path / "nonsa.json",
              {"space": {"J": matrix_to_obj(J2)},
               "operator": matrix_to_obj(np.array([[0.0, 1.0], [1.0, 0.0]]))})
    assert main(["indices", "-i", f]) == 3

    def overflow(*args, **kwargs):
        raise ContractionOverflow("completion left the unit ball")

    # the numerical family exits 1, like every other KreinError
    monkeypatch.setattr(cli, "hermitian_indices", overflow)
    capsys.readouterr()
    assert main(["indices", "-i", f]) == 1
    assert capsys.readouterr().err == "error: completion left the unit ball\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("name", ["read_json", "hermitian_indices"])
def test_out_of_memory_is_one_line(capsys, monkeypatch, c2_file, name):
    # the reader and an engine alike: exit 1, one line, no traceback; each
    # is patched where it is called, the reader in serial's read_operand
    monkeypatch.setattr(serial if name == "read_json" else cli, name, _out_of_memory)
    assert main(["indices", "-i", c2_file, "--machine"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built once, when the module is imported
    built = calls(monkeypatch, cli.build_parser)
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    for command in ("indices", "factorize"):
        argv = [command, "-i", os.path.join(golden, "problem8.json"), "--machine"]
        assert main(argv) == 0
        with open(os.path.join(golden, f"{command}.out")) as fh:
            assert capsys.readouterr().out == fh.read()
    assert not built


def test_out_of_memory_under_an_address_space_cap(tmp_path):
    # a 256 MB address-space cap on the child alone; each "[]" of the 12 MB
    # document is a list of its own, so json's tree needs over 300 MB; the
    # backslash gives the document to json, whose allocation failure is a
    # MemoryError (orjson's is a crash, README, Exit codes)
    import resource
    cap = 256 * 2 ** 20
    path = tmp_path / "big.json"
    path.write_text('{"note": "\\\\", "data": [' + "[]," * 4_000_000 + "[]]}")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # one BLAS thread, so the import's own reservations stay far below the cap
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "kreinalg", "indices", "-i", str(path)],
                          capture_output=True, text=True, timeout=120, env=env,
                          preexec_fn=limit)
    assert done.returncode == 1, done.stderr
    assert done.stderr == "error: out of memory\n"


def test_tolerance_flag_applies(capsys, tmp_path):
    # 1e-6 perturbation of a kernel direction: strict tolerance sees rank,
    # loose tolerance folds it into the kernel
    f = write(tmp_path / "m.json", matrix_to_obj(np.diag([1.0, 1e-6])))
    code, rep = run_machine(capsys, ["indices", "-i", f, "--machine"])
    assert rep["indices"] == [2, 0, 0]
    code, rep = run_machine(capsys, ["indices", "-i", f,
                                     "--tol-rank", "1e-4", "--machine"])
    assert rep["indices"] == [1, 0, 1]


def test_pair_tolerance_is_settled_before_spaces(capsys, tmp_path, monkeypatch):
    # J^2 - I is off by about 1e-6: rejected at the default residual_tol,
    # accepted at the 1e-5 that B's problem file sets for both operands
    s = write(tmp_path / "j.json", matrix_to_obj(J2 * (1.0 + 5e-7)))
    a = write(tmp_path / "a.json", matrix_to_obj(np.eye(2)))
    b = write(tmp_path / "b.json", {"operator": matrix_to_obj(np.eye(2)),
                                    "tolerance": {"residual_tol": 1e-5}})
    read, made = calls(monkeypatch, cli.read_matrix), calls(monkeypatch, cli.make_space)
    code, rep = run_machine(capsys, ["congruent", a, b, "--space", s, "--machine"])
    assert code == 0 and rep["congruent"]
    # the symmetry is read and validated once for both operands
    assert [args[0] for args, _ in read].count(s) == 1 and len(made) == 1
    assert main(["congruent", a, a, "--space", s]) == 3


def test_property_suite_small(capsys):
    code, rep = run_machine(capsys, ["property-suite", "--seed", "3",
                                     "--count", "6", "--machine"])
    assert code == 0
    assert rep["passed"]
    assert len(rep["batteries"]) == 8


def test_property_suite_rejects_negative_count(capsys):
    assert main(["property-suite", "--count", "-3", "--machine"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("dim_max", ["0", "65", "2000"])
def test_property_suite_rejects_dim_max_out_of_range(capsys, monkeypatch, dim_max):
    # checked before any worker starts, even with no cases to run
    from concurrent.futures import ProcessPoolExecutor
    monkeypatch.setattr(ProcessPoolExecutor, "__init__",
                        lambda *a, **kw: pytest.fail("a pool was started"))
    assert main(["property-suite", "--dim-max", dim_max, "--count", "0",
                 "--machine"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_property_suite_rejects_seed_out_of_range(capsys, seed):
    # --seed obeys the one range rule of run_property_suite
    assert main(["property-suite", "--seed", str(seed), "--count", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_property_suite_has_no_space_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["property-suite", "--space", str(tmp_path / "j.json"), "--count", "0"])
    assert exc.value.code == 2


def test_property_suite_negative_control(capsys, monkeypatch):
    """An injected violation must surface as exit code 1."""

    def broken(seed, count=None, dim_max=8, tol=None):
        return {"seed": seed, "dim_max": dim_max,
                "batteries": [{"name": "congruence_invariance", "cases": 1,
                               "failures": 1, "passed": False}],
                "passed": False}

    monkeypatch.setattr(cli, "run_property_suite", broken)
    assert main(["property-suite", "--seed", "1", "--machine"]) == 1
    assert not json.loads(capsys.readouterr().out)["passed"]


def test_property_suite_reports_the_schema_version_of_the_envelope(capsys, monkeypatch):
    # every command's report carries cli.SCHEMA_VERSION, the suite's too
    monkeypatch.setattr(cli, "SCHEMA_VERSION", 2)
    code, rep = run_machine(capsys, ["property-suite", "--count", "0", "--machine"])
    assert code == 0 and rep["schema_version"] == 2


@pytest.mark.parametrize("missing, code", [(False, 0), (True, 2)])
def test_main_entry_exits_with_the_code_of_main(capsys, monkeypatch, c2_file,
                                                 missing, code):
    # main_entry is the target of the krein console script
    path = c2_file + ".missing" if missing else c2_file
    monkeypatch.setattr(sys, "argv", ["krein", "indices", "-i", path])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == code


def test_krein_console_script_targets_main_entry():
    # pyproject's [project.scripts] is what installs `krein`, the name the
    # README uses throughout; its target must resolve to cli.main_entry
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["krein"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main_entry


def test_cli_starts_without_scipy():
    # no command imports scipy; every command, the property suite too, runs
    # on numpy alone (test_golden.py::test_every_command_runs_with_scipy_blocked)
    code = "import sys, kreinalg.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_starts_without_multiprocessing():
    # only property-suite starts worker processes
    code = "import sys, kreinalg.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_large_dimension_smoke(capsys, tmp_path):
    # n = 64: indices and factorization agree at the dimension cap
    from kreinalg.genrand import gen_selfadjoint, gen_space_with_split
    H = gen_space_with_split(640, 40, 24)
    C = gen_selfadjoint(641, H, kernel_prob=1.0)
    f = write(tmp_path / "big.json",
              {"space": {"J": matrix_to_obj(H.J)}, "operator": matrix_to_obj(C.matrix)})
    code, rep = run_machine(capsys, ["indices", "-i", f, "--machine"])
    assert code == 0
    assert sum(rep["indices"]) == 64
    assert rep["indices"][2] >= 1
    code, rep2 = run_machine(capsys, ["factorize", "-i", f, "--machine"])
    assert code == 0
    assert rep2["verify"]["passed"]
    assert rep2["factor_space"]["dim"] == 64 - rep["indices"][2]


def test_indices_counts_the_space_without_its_eigenvectors(monkeypatch, capsys, tmp_path):
    # the space's signature is counted from J's eigenvalues alone, and the
    # operator's triple from J C's: no eigendecomposition with vectors
    from kreinalg.genrand import gen_space_with_split
    J = gen_space_with_split(3, 5, 3).J
    G = np.random.default_rng(4).standard_normal((8, 8))
    path = write(tmp_path / "p.json", {"space": {"J": matrix_to_obj(J)},
                                       "operator": matrix_to_obj(J @ (G + G.T))})
    passes = record(monkeypatch)
    code, report = run_machine(capsys, ["indices", "-i", path, "--machine"])
    assert code == 0
    assert report["space"] == {"dim": 8, "ind_plus": 5, "ind_minus": 3}
    assert [(p.kernel, np.allclose(p.operand, J)) for p in passes] == [
        ("eigvalsh", False), ("eigvalsh", True)]


def _problem64(tmp_path, name="p64.json", seed=21):
    """A problem file at n = 64 (the generators' cap) and its matrices."""
    from kreinalg.genrand import gen_selfadjoint, gen_space_with_split
    H = gen_space_with_split(seed, 30, 34)
    C = gen_selfadjoint(seed + 1, H, kernel_prob=1.0)
    return write(tmp_path / name, {"space": {"J": matrix_to_obj(H.J)},
                                   "operator": matrix_to_obj(C.matrix)}), H.J, C.matrix


def test_indices_takes_no_eigendecomposition_with_vectors(monkeypatch, capsys, tmp_path):
    path, _, _ = _problem64(tmp_path)
    passes = record(monkeypatch)
    code, report = run_machine(capsys, ["indices", "-i", path, "--machine"])
    assert code == 0 and report["space"]["dim"] == 64 and report["indices"][2] >= 1
    assert kinds(passes, "eig") == ["eigvalsh"] * 2


def test_decompose_takes_no_svd_of_the_operator(monkeypatch, capsys, tmp_path):
    path, _, C = _problem64(tmp_path)
    passes = record(monkeypatch)
    code, report = run_machine(capsys, ["decompose", "-i", path, "--machine"])
    assert code == 0 and report["validation"]["passed"]
    svds = [p.operand for p in passes if p.kernel.startswith("svd")]
    assert "norm" not in kinds(passes) and svds
    assert not any(A.shape == C.shape and np.array_equal(A, C) for A in svds)


def test_congruent_pair_takes_one_eigendecomposition_per_operator(monkeypatch, capsys,
                                                                   tmp_path):
    a, _, _ = _problem64(tmp_path, "a.json")
    passes = record(monkeypatch)
    code, report = run_machine(capsys, ["congruent", a, a, "--machine"])
    assert code == 0 and report["congruent"]
    assert kinds(passes, "eig") == ["eigh"] * 2


@pytest.mark.parametrize("command", ["indices", "decompose", "factorize", "congruent"])
def test_no_matrix_is_checked_for_hermitian_twice(monkeypatch, capsys, tmp_path, command):
    from kreinalg.densela import _hermitian_within
    path, J, C = _problem64(tmp_path)
    seen = calls(monkeypatch, _hermitian_within)
    argv = [path, path] if command == "congruent" else ["-i", path]
    assert main([command, *argv, "--machine"]) == 0
    capsys.readouterr()
    # J once per space read, J C once per operator, and nothing else
    operands = 2 if command == "congruent" else 1
    checked = [args[0] for args, _ in seen]
    assert [np.array_equal(A, J) for A in checked] == [True] * operands + [False] * operands
    assert all(np.allclose(A, J @ C) for A in checked[operands:])


def test_overflowing_deviation_is_a_precondition_failure(capsys, tmp_path):
    # A - A^H overflows for these finite entries: decided on A/2, not refused
    m = write(tmp_path / "m.json", matrix_to_obj(np.array([[1e308, 1e308], [-1e308, 1.0]])))
    assert main(["indices", "-i", m]) == 3
    assert capsys.readouterr().err == (
        "error: the hermitian index triple requires a selfadjoint operator\n")
    p = write(tmp_path / "p.json",
              {"space": {"J": matrix_to_obj(np.array([[1e308, 1e308], [-1e308, 1.0]]))},
               "operator": matrix_to_obj(np.eye(2))})
    assert main(["indices", "-i", p]) == 3
    assert capsys.readouterr().err == "error: candidate symmetry is not Hermitian\n"


@pytest.mark.parametrize("J", [
    [[1e308, 1e308], [1e308, 1e308]],                                 # Hermitian
    [[0.0, 1.5e308, 1.5e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],      # J^2 = 0
    [[1.0, 1.5e308, 1.5e308], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],    # J^2 = I
])
def test_a_symmetry_whose_norm_overflows_is_a_precondition_failure(capsys, tmp_path, J):
    # a symmetry has ||J||_2 = 1, and these finite J have a 2-norm beyond the
    # largest double, against which the Hermitian test decides nothing
    p = write(tmp_path / "p.json", {"space": {"J": matrix_to_obj(np.array(J))},
                                    "operator": matrix_to_obj(np.eye(len(J)))})
    assert main(["indices", "-i", p]) == 3
    assert capsys.readouterr().err == (
        "error: candidate symmetry's 2-norm exceeds the largest double\n")


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [0.5, 0.5, 1.0]],   # ||C - C^H||_2 ~ 8.7e307
    [[1.0, 1.0], [1.0, 1.0]],                               # triple (1, 0, 1)
])
@pytest.mark.parametrize("command", ["indices", "decompose", "factorize"])
def test_a_scale_that_overflows_is_a_numerical_failure(capsys, tmp_path, rows, command):
    # ||C||_2 of these finite operators exceeds the largest double: against
    # t * inf any residual would pass, so no report is given
    f = write(tmp_path / "c.json", matrix_to_obj(1e308 * np.array(rows)))
    assert main([command, "-i", f]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


def test_a_problem_file_without_a_tolerance_object_sets_none(capsys, tmp_path):
    # only b sets a tolerance, the 1e-5 its 1e-6 deviation from selfadjoint
    # needs; a missing or null object in a must not override it in either order
    Cb = np.diag([2.0, -1.0]).astype(complex)
    Cb[0, 1] = 1e-6
    b = write(tmp_path / "b.json", {"space": {"J": matrix_to_obj(J2)},
                                    "operator": matrix_to_obj(Cb),
                                    "tolerance": {"residual_tol": 1e-5}})
    for tol in ({}, {"tolerance": None}):
        a = write(tmp_path / "a.json", {"space": {"J": matrix_to_obj(J2)},
                                        "operator": matrix_to_obj(np.diag([2.0, -1.0])),
                                        **tol})
        for pair in ((a, b), (b, a)):
            code, rep = run_machine(capsys, ["congruent", *pair, "--machine"])
            assert code == 0 and rep["congruent"]
        assert main(["congruent", a, b, "--tol-res", "1e-8"]) == 3
