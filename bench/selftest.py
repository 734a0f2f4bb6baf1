"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced with ``--tiny`` and
checks that each emits exactly the metrics BENCHMARK.json names, with
their units, that the traced self times reconcile with the traced wall
time, that the known-answer checks reject a deliberately wrong expected
answer, and that the benchmark refuses to run without the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "0.1",
                           "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0 ({proc.stderr.strip()[-300:]})")
    if proc.returncode:
        return
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           f"{tag}: result keys")
    expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
           f"{tag}: correct, {res['attempted']} attempted, {res['failed']} failed")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{tag}: every metric emitted with its unit "
           f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        total += m["trace.unattributed_s"]
        expect(abs(total - m["trace.wall_s"]) <= 1e-9 * max(1.0, m["trace.wall_s"]),
               f"{tag}: layer self times + unattributed = traced wall")
        expect(m["trace.overhead_ratio"] > 0, f"{tag}: overhead ratio reported")
    else:
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{tag}: every end-to-end metric is positive")


def check_wrong_answers(tmp: str) -> None:
    """Each known-answer check must reject a corrupted expectation."""
    wl = workloads.CliLarge(ROOT, tmp, 7, tiny=True)
    wl.setup()
    good = wl.expect
    outputs = {step: wl.run_step(step, False) for step in wl.steps}
    for step, (_, rc, out) in outputs.items():
        expect(wl.check(step, rc, out) == [], f"cli_large {step}: true answer accepted")
    h_plus, h_minus, h_zero = good["triple"]
    wl.expect = dict(good, triple=(h_minus, h_plus + 1, h_zero))
    for step in ("indices", "decompose", "factorize"):
        _, rc, out = outputs[step]
        expect(wl.check(step, rc, out) != [], f"cli_large {step}: wrong triple caught")
    a, b, c = good["triple_pair"]
    wl.expect = dict(good, triple_pair=(a + 1, b, c - 1))
    _, rc, out = outputs["congruent"]
    expect(wl.check("congruent", rc, out) != [], "cli_large congruent: wrong triple caught")
    expect(wl.check("indices", 2, b"") != [], "cli_large: nonzero exit caught")

    eng = workloads.EngineMid(ROOT, tmp, 7, tiny=True)
    eng.setup()
    _, rc, out = eng.run_step("batch", True)
    expect(eng.check("batch", rc, out) == [], "engine_mid: true answers accepted")
    p, q, z = eng.cases[0]["triple"]
    eng.cases[0]["triple"] = [q, p, z + 1]
    expect(eng.check("batch", rc, out) != [], "engine_mid: wrong triple caught")

    suite = workloads.SuiteSmall(ROOT, tmp, 7, tiny=True)
    _, rc, out = suite.run_step("property-suite", False)
    expect(suite.check("property-suite", rc, out) == [], "suite_small: true answers accepted")
    suite.counts = dict(suite.counts, decomposition=3)
    expect(suite.check("property-suite", rc, out) != [], "suite_small: wrong case count caught")


def check_refuses_without_sources(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "engine_mid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"no sources: exit code {proc.returncode}, no result printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, spec)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
    try:
        check_wrong_answers(tmp)
        check_refuses_without_sources(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
