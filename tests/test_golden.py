"""Golden outputs: every command's --machine report and its text, byte for byte.

The fixtures under tests/golden/ pin the exact bytes each subcommand
prints for a small (n = 8) Krein problem, with --machine in
``<case>.out`` and without it in ``<case>.txt``, so a change that claims
to leave the output byte-identical is checked here rather than just
claimed.
Each command runs as its own process under the caller's BLAS threading
(``OPENBLAS_NUM_THREADS`` passes through), so the bytes are checked with
BLAS pinned to one thread and with it threaded alike.

Regenerate the inputs, the expected reports and texts (only when an output is
meant to change) with

    python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# each case runs twice: with --machine (``<case>.out``) and without (``<case>.txt``)
CASES = {
    "indices": ["indices", "-i", "problem8.json"],
    "decompose": ["decompose", "-i", "problem8.json"],
    "factorize": ["factorize", "-i", "problem8.json"],
    "congruent": ["congruent", "problem8.json", "pair8_b.json"],
    "phillips": ["phillips", "plus8.json", "minus8.json", "--space", "space8.json"],
    # no --space: the Hilbert space's frames come from the identity
    "phillips-hilbert": ["phillips", "plus8.json", "empty8.json"],
    "property-suite": ["property-suite", "--seed", "20260822", "--count", "3"],
    # operand loading: matrix files, --space, tolerance flags
    "indices-hilbert": ["indices", "-i", "hermitian8.json"],
    "factorize-space": ["factorize", "-i", "operator8.json", "--space",
                        "symmetry8.json"],
    "congruent-space": ["congruent", "operator8.json", "operator8.json", "--space",
                        "symmetry8.json"],
    "congruent-no": ["congruent", "problem8.json", "other8.json"],
    "congruent-tol-res": ["congruent", "problem8.json", "pair8_b.json",
                          "--tol-res", "1e-6"],
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_case(argv) -> bytes:
    done = subprocess.run([sys.executable, "-m", "kreinalg", *argv], cwd=GOLDEN,
                          env=child_env(), capture_output=True, check=True)
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert run_case([*CASES[name], "--machine"]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert run_case(CASES[name]) == expected


def test_every_command_runs_with_scipy_blocked():
    # kreinalg needs numpy alone: with every import of scipy failing (a None
    # entry in sys.modules), each case must still print its golden report
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        from kreinalg.cli import main
        out = {}
        for name, argv in json.loads(sys.argv[1]).items():
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                main([*argv, "--machine"])
            out[name] = buf.getvalue()
        print(json.dumps(out))
    """)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(CASES)], cwd=GOLDEN,
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name, out in json.loads(done.stdout).items():
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes(), name


def write_inputs() -> None:
    """Seeded n = 8 inputs: a problem with a kernel on a (4, 4) space, a
    congruent copy on a (5, 3) space, and an orthogonal semidefinite pair."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from kreinalg.genrand import (complex_gaussian, gen_invertible, gen_selfadjoint,
                                  gen_space_with_split, haar_unitary)
    from kreinalg.hermdex import transport
    from kreinalg.phillips import canonical_frames
    from kreinalg.serial import dump_json, matrix_to_obj

    def write(name, obj):
        (GOLDEN / name).write_text(dump_json(obj) + "\n")

    H = gen_space_with_split(801, 4, 4)
    A = gen_selfadjoint(802, H, kernel_prob=1.0)
    write("problem8.json", {"space": {"J": matrix_to_obj(H.J)},
                            "operator": matrix_to_obj(A.matrix)})
    K = gen_space_with_split(803, 5, 3)
    B = transport(A, gen_invertible(804, K, H))
    write("pair8_b.json", {"space": {"J": matrix_to_obj(K.J)},
                           "operator": matrix_to_obj(B.matrix)})

    S = gen_space_with_split(805, 4, 4)
    rng = np.random.Generator(np.random.PCG64(806))
    U_plus, U_minus = canonical_frames(S)
    U, _, Vh = np.linalg.svd(complex_gaussian(rng, 4, 4))
    G0 = (U * rng.uniform(0.0, 0.95, 4)) @ Vh
    plus = (U_plus + U_minus @ G0) @ haar_unitary(rng, 4)[:, :2]
    minus = (U_plus @ G0.conj().T + U_minus) @ haar_unitary(rng, 4)[:, :2]
    write("space8.json", matrix_to_obj(S.J))
    write("plus8.json", matrix_to_obj(plus))
    write("minus8.json", matrix_to_obj(minus))
    write_loader_inputs()


def write_loader_inputs() -> None:
    """Matrix-file operands for the loader cases: problem8's operator and
    symmetry as separate files, its Hermitian representative J C for
    Hilbert mode, a kernel-free operator on a (4, 4) space that is not
    congruent to it, and an empty basis of 8-vectors."""
    sys.path.insert(0, str(SRC))
    from kreinalg.genrand import gen_selfadjoint, gen_space_with_split
    from kreinalg.serial import dump_json, load_json, matrix_from_obj, matrix_to_obj

    def write(name, obj):
        (GOLDEN / name).write_text(dump_json(obj) + "\n")

    problem = load_json(GOLDEN / "problem8.json")
    J = matrix_from_obj(problem["space"]["J"])
    C = matrix_from_obj(problem["operator"])
    write("operator8.json", matrix_to_obj(C))
    write("symmetry8.json", matrix_to_obj(J))
    JC = J @ C
    write("hermitian8.json", matrix_to_obj(0.5 * (JC + JC.conj().T)))
    H = gen_space_with_split(807, 4, 4)
    D = gen_selfadjoint(808, H, kernel_prob=0.0)
    write("other8.json", {"space": {"J": matrix_to_obj(H.J)},
                          "operator": matrix_to_obj(D.matrix)})
    write("empty8.json", {"rows": 8, "cols": 0, "data": []})


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_inputs()
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_bytes(run_case([*argv, "--machine"]))
        (GOLDEN / f"{case}.txt").write_bytes(run_case(argv))
