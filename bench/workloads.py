"""The benchmark's three workloads.

Each workload has a ``setup`` (generate and write its inputs, then warm
up), a list of ``steps`` that together make one operation, ``run_step``
to execute one step and return its wall time, exit code and report
bytes, and ``check`` to hold a report against the answer the inputs
were built to have.  ``cli_large`` and ``suite_small`` run the ``krein``
command line, as a subprocess when untraced and through
``kreinalg.cli.main`` in this process when traced; ``engine_mid`` calls
the library in this process in both modes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

import gen

RESIDUAL_TOL = 1e-8            # the package's default Tolerance().residual_tol

# Battery sizes of `krein property-suite` at default counts, 5,600 cases.
SUITE_COUNTS = {
    "congruence_invariance": 1000,
    "sylvester_classification": 500,
    "decomposition": 1000,
    "bk_roundtrip": 1000,
    "bk_converse": 1000,
    "keyth_pipeline": 300,
    "phillips_extension": 300,
    "keyfact_identities": 500,
}


class _Sink(io.TextIOBase):
    """Stands in for stdout: keeps what is written and counts it."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def getvalue(self) -> bytes:
        return "".join(self.parts).encode("utf-8")


def _call_main(argv: list[str]) -> tuple[int, bytes]:
    """``kreinalg.cli.main`` in this process, stdout captured."""
    import kreinalg.cli
    sink = _Sink()
    with contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = kreinalg.cli.main(argv)
        except SystemExit as exc:           # argparse rejections
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, sink.getvalue()


def _file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def child_env(root: str) -> dict:
    """This process's environment with ``root/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _triple_failures(what: str, got, want) -> list[str]:
    return [] if list(got) == list(want) else [f"{what}: got {list(got)}, want {list(want)}"]


class Workload:
    name = ""
    in_process = False          # untraced steps run in this process
    steps: list[str] = []
    min_ops = 2                 # so that each step's report digest is compared


    def __init__(self, root: str, tmp: str, seed: int, tiny: bool):
        self.root, self.tmp, self.seed = root, tmp, seed


class CliWorkload(Workload):
    """Workloads that drive the ``krein`` command line."""

    def __init__(self, root: str, tmp: str, seed: int, tiny: bool):
        super().__init__(root, tmp, seed, tiny)
        self.env = child_env(root)
        self.commands: dict[str, list[str]] = {}

    @property
    def steps(self) -> list[str]:
        return list(self.commands)

    def krein(self, argv: list[str], out_path: str) -> tuple[float, int, bytes]:
        """One ``krein`` invocation as its own process; stdout to a file."""
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "kreinalg", *argv],
                                  stdout=out, stderr=subprocess.DEVNULL,
                                  env=self.env, cwd=self.root, timeout=170)
            wall = perf_counter() - t0
        with open(out_path, "rb") as fh:
            return wall, proc.returncode, fh.read()

    def run_step(self, step: str, in_process: bool) -> tuple[float, int, bytes]:
        argv = self.commands[step]
        if not in_process:
            return self.krein(argv, os.path.join(self.tmp, "report.json"))
        t0 = perf_counter()
        rc, out = _call_main(argv)
        return perf_counter() - t0, rc, out

    def check(self, step: str, rc: int, out: bytes) -> list[str]:
        if rc != 0:
            return [f"{step}: exit code {rc}"]
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"{step}: report is not JSON ({exc})"]
        try:
            return self.check_report(step, report)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"{step}: report lacks an expected field ({exc!r})"]

    def check_report(self, step: str, report: dict) -> list[str]:
        raise NotImplementedError


class CliLarge(CliWorkload):
    """``indices``/``decompose``/``factorize`` on one problem file and
    ``congruent`` on a pair, each a fresh process."""

    name = "cli_large"
    # One operation takes about 20 s, so a run with a short --seconds makes
    # just one; the traced run, which runs every command twice, compares
    # the digests of repeated cli_large reports.
    min_ops = 1

    def __init__(self, root, tmp, seed, tiny):
        super().__init__(root, tmp, seed, tiny)
        self.n, self.n_pair = (16, 8) if tiny else (512, 256)
        p, a, b = (os.path.join(tmp, f) for f in ("P.json", "A.json", "B.json"))
        self.files = (p, a, b)
        self.commands = {
            "indices": ["indices", "-i", p, "--machine"],
            "decompose": ["decompose", "-i", p, "--machine"],
            "factorize": ["factorize", "-i", p, "--machine"],
            "congruent": ["congruent", a, b, "--machine"],
        }
        self.expect: dict = {}

    def setup(self) -> tuple[str, list[str]]:
        p, a, b = self.files
        J, C, triple = gen.problem(gen.rng_for(self.seed, 1), self.n)
        gen.write_problem(p, J, C)
        rng = gen.rng_for(self.seed, 2)
        J_a, A, triple_a = gen.problem(rng, self.n_pair)
        J_b, B = gen.transported(rng, J_a, A)
        gen.write_problem(a, J_a, A)
        gen.write_problem(b, J_b, B)
        self.expect = {"triple": triple, "triple_pair": triple_a,
                       "signature": [self.n // 2, self.n - self.n // 2]}
        # warm-up: the page cache holds the inputs, the imports are compiled
        digest = _file_digest(p, a, b)
        tiny = os.path.join(self.tmp, "warm.json")
        gen.write_problem(tiny, *gen.problem(gen.rng_for(self.seed, 3), 8)[:2])
        _, rc, _ = self.krein(["indices", "-i", tiny, "--machine"],
                              os.path.join(self.tmp, "warm.out"))
        return digest, ([] if rc == 0 else [f"warm-up: exit code {rc}"])

    def check_report(self, step, r):
        triple = self.expect["triple"]
        if step == "indices":
            fails = _triple_failures("indices", r["indices"], triple)
            sig = [r["space"]["ind_plus"], r["space"]["ind_minus"]]
            return fails + _triple_failures("space signature", sig,
                                            self.expect["signature"])
        if step == "decompose":
            v = r["validation"]
            fails = _triple_failures("decompose dims", v["dims"], triple)
            return fails + ([] if v["passed"] is True else ["decompose: validation failed"])
        if step == "factorize":
            fs = r["factor_space"]
            fails = _triple_failures("factor space signature",
                                     [fs["ind_plus"], fs["ind_minus"]], triple[:2])
            return fails + ([] if r["verify"]["passed"] is True
                            else ["factorize: verification failed"])
        want = self.expect["triple_pair"]
        fails = (_triple_failures("congruent indices_a", r["indices_a"], want)
                 + _triple_failures("congruent indices_b", r["indices_b"], want))
        if r["congruent"] is not True:
            return fails + ["congruent: reported not congruent"]
        if not r["residual"] <= RESIDUAL_TOL:
            fails.append(f"congruent: residual {r['residual']:.3e} above {RESIDUAL_TOL}")
        return fails


class SuiteSmall(CliWorkload):
    """``krein property-suite`` at default counts, dimensions up to 8."""

    name = "suite_small"

    def __init__(self, root, tmp, seed, tiny):
        super().__init__(root, tmp, seed, tiny)
        argv = ["property-suite", "--seed", str(seed), "--machine"]
        self.counts = dict.fromkeys(SUITE_COUNTS, 2) if tiny else SUITE_COUNTS
        self.commands = {"property-suite": argv + (["--count", "2"] if tiny else [])}

    def setup(self) -> tuple[str, list[str]]:
        _, rc, _ = self.krein(["property-suite", "--seed", str(self.seed),
                               "--count", "1", "--machine"],
                              os.path.join(self.tmp, "warm.out"))
        return str(self.seed), ([] if rc == 0 else [f"warm-up: exit code {rc}"])

    def check_report(self, step, r):
        fails = [] if r["passed"] is True else ["property-suite: passed is not true"]
        if r["seed"] != self.seed or r["dim_max"] != 8:
            fails.append(f"property-suite: seed {r['seed']}, dim_max {r['dim_max']}")
        got = {b["name"]: b for b in r["batteries"]}
        if sorted(got) != sorted(self.counts):
            fails.append(f"property-suite: batteries {sorted(got)}")
        for name, cases in self.counts.items():
            b = got.get(name, {})
            if b.get("cases") != cases or b.get("failures") != 0:
                fails.append(f"{name}: {b.get('cases')} cases, "
                             f"{b.get('failures')} failures, want {cases} and 0")
        return fails


class EngineMid(Workload):
    """Library calls in this process at n in {64, 128, 256}: no JSON, no
    subprocess."""

    name = "engine_mid"
    in_process = True
    steps = ["batch"]

    def __init__(self, root, tmp, seed, tiny):
        super().__init__(root, tmp, seed, tiny)
        self.sizes = (8, 16) if tiny else (64, 128, 256)
        self.cases: list[dict] = []

    def _make_case(self, n: int, key: int) -> dict:
        rng = gen.rng_for(self.seed, 10 + key)
        J, C, triple = gen.problem(rng, n)
        J_b, B = gen.transported(rng, J, C)
        J_s, plus, minus, pair, domains = gen.semidefinite_pair(rng, n)
        return {"n": n, "J": J, "C": C, "triple": list(triple), "J_b": J_b, "B": B,
                "J_s": J_s, "plus": plus, "minus": minus,
                "pair": list(pair), "domains": list(domains)}

    def setup(self) -> tuple[str, list[str]]:
        self.cases = [self._make_case(n, k) for k, n in enumerate(self.sizes)]
        h = hashlib.sha256()
        for case in self.cases:
            for key in ("J", "C", "J_b", "B", "J_s", "plus", "minus"):
                h.update(case[key].tobytes())
        warm = [self._make_case(8, 99)]     # warm-up: one pass at n = 8
        _, rc, out = self._batch(warm)
        return h.hexdigest(), self._check_cases("warm-up", warm, rc, out)

    def _library_pass(self, case: dict) -> dict:
        import kreinalg as K
        H = K.make_space(case["J"])
        C = K.KOperator(H, H, case["C"])
        out = {"indices": K.hermitian_indices(C), "canonical": K.canonical_form(C)}
        dec = K.decompose(C)
        out["validation"] = K.validate(C, dec)
        out["dec"], out["proj"] = dec, K.projections(C, dec)
        F = K.bk_factorize(C)
        out["F"], out["verify"] = F, K.bk_verify(C, F)
        Hb = K.make_space(case["J_b"])
        B = K.KOperator(Hb, Hb, case["B"])
        out["indices_b"] = K.hermitian_indices(B)
        X = K.build_congruence(C, B)
        back = K.transport(B, X)
        scale = max(K.spectral_norm(C.matrix), K.spectral_norm(B.matrix))
        out["X"] = X
        out["residual"] = K.spectral_norm(C.matrix - back.matrix) / scale
        Hs = K.make_space(case["J_s"])
        gp = K.graph_rep(K.make_subspace(Hs, case["plus"]), "plus")
        gm = K.graph_rep(K.make_subspace(Hs, case["minus"]), "minus")
        out["compatible"] = K.check_compatibility(gp, gm)
        out["gp"], out["gm"], out["ext"] = gp, gm, K.phillips_extend(gp, gm)
        return out

    def run_step(self, step, in_process=True):
        return self._batch(self.cases)

    def _batch(self, cases: list[dict]) -> tuple[float, int, bytes]:
        """Timed library passes over ``cases``; the report is built after."""
        t0 = perf_counter()
        try:
            results = [self._library_pass(case) for case in cases]
        except Exception as exc:            # any raise is a failed operation
            return perf_counter() - t0, 1, repr(exc).encode()
        wall = perf_counter() - t0
        return wall, 0, json.dumps([self._report(c, r) for c, r in zip(cases, results)],
                                   sort_keys=True).encode()

    @staticmethod
    def _report(case: dict, r: dict) -> dict:
        dec, P, ext = r["dec"], r["proj"], r["ext"]
        arrays = [dec.M_plus.basis, dec.M_minus.basis, dec.M_zero.basis,
                  P.Q_plus.matrix, P.Q_minus.matrix, P.Q_zero.matrix,
                  r["F"].A.matrix, r["X"].X.matrix, ext.G]
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        total = P.Q_plus.matrix + P.Q_minus.matrix + P.Q_zero.matrix
        v = r["validation"]
        return {
            "n": case["n"],
            "indices": list(r["indices"]),
            "canonical": list(r["canonical"].indices),
            "validation": {"passed": v["passed"], "dims": v["dims"]},
            "projection_sum_residual": float(np.linalg.norm(total - np.eye(case["n"]), 2)),
            "verify": {"passed": r["verify"]["passed"],
                       "factor_space_indices": r["verify"]["factor_space_indices"]},
            "indices_b": list(r["indices_b"]),
            "congruence_residual": float(r["residual"]),
            "phillips": {"compatible": bool(r["compatible"]),
                         "domains": [r["gp"].M.dim, r["gm"].M.dim],
                         "dims": [ext.G_tilde_plus.dim, ext.G_tilde_minus.dim],
                         "norm": float(np.linalg.norm(ext.G, 2))},
            "arrays_sha256": h.hexdigest(),
        }

    def check(self, step, rc, out):
        return self._check_cases(step, self.cases, rc, out)

    @staticmethod
    def _check_cases(step: str, cases: list[dict], rc: int, out: bytes) -> list[str]:
        if rc != 0:
            return [f"{step}: raised {out.decode(errors='replace')}"]
        fails = []
        for case, r in zip(cases, json.loads(out)):
            n, triple = case["n"], case["triple"]
            tag = f"{step} n={n}"
            fails += _triple_failures(f"{tag} indices", r["indices"], triple)
            fails += _triple_failures(f"{tag} canonical form", r["canonical"], triple)
            fails += _triple_failures(f"{tag} decompose dims",
                                      r["validation"]["dims"], triple)
            fails += _triple_failures(f"{tag} factor space signature",
                                      r["verify"]["factor_space_indices"], triple[:2])
            fails += _triple_failures(f"{tag} indices of transported copy",
                                      r["indices_b"], triple)
            ph = r["phillips"]
            fails += _triple_failures(f"{tag} phillips domains", ph["domains"],
                                      case["domains"])
            fails += _triple_failures(f"{tag} maximal pair dims", ph["dims"],
                                      case["pair"])
            flags = {"validation": r["validation"]["passed"] is True,
                     "verify": r["verify"]["passed"] is True,
                     "compatible": ph["compatible"] is True,
                     "contraction": ph["norm"] <= 1.0 + RESIDUAL_TOL,
                     "projections": r["projection_sum_residual"] <= RESIDUAL_TOL,
                     "congruence": r["congruence_residual"] <= RESIDUAL_TOL}
            fails += [f"{tag}: {k} check failed" for k, ok in flags.items() if not ok]
        return fails


WORKLOADS = {w.name: w for w in (CliLarge, SuiteSmall, EngineMid)}
