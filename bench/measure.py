"""Timing loops, answer bookkeeping and machine facts for bench/run.py."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

import layers
from workloads import child_env

STEP_METRICS = [f"step.{s}.wall_s" for s in
                ("indices", "decompose", "factorize", "congruent",
                 "property-suite", "batch")]
EXTRA_LAYER_METRICS = ["startup.import_s", "trace.wall_s", "trace.unattributed_s",
                       "trace.overhead_ratio", "check.fail_ratio"]


_UNITS = {".calls": "count", "_s": "s", "bytes_in": "B", "bytes_out": "B",
          "work_n3": "mnk", "ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in a fixed order, with its unit."""
    names = layers.metric_names() + EXTRA_LAYER_METRICS + STEP_METRICS
    return {name: next(u for suffix, u in _UNITS.items() if name.endswith(suffix))
            for name in names}


class Tally:
    """Attempted and failed operations, with the report digest of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[str, list[str]] = {}

    def add(self, step: str, failures: list[str], report: bytes | None = None):
        self.attempted += 1
        if report is not None:
            digest = hashlib.sha256(report).hexdigest()
            seen = self.digests.setdefault(step, [])
            if seen and digest != seen[0]:
                failures = failures + [f"{step}: report digest differs from the first "
                                       f"repetition in this run"]
            seen.append(digest)
        if failures:
            self.failed += 1
            self.messages += failures[:5]

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _setup(wl, tally: Tally, first: list) -> float:
    t0 = perf_counter()
    digest, failures = wl.setup()
    wall = perf_counter() - t0
    if first and digest != first[0]:
        failures = failures + ["setup: generated inputs differ between set-ups"]
    first.append(digest)
    tally.add("setup", failures)
    return wall


def untraced(wl, seconds: float, setup_reps: int) -> dict:
    """Set up ``setup_reps`` times, then repeat the operation for ``seconds``,
    and at least ``wl.min_ops`` times."""
    tally = Tally()
    first: list = []
    setup_s = [_setup(wl, tally, first) for _ in range(setup_reps)]
    ops: list[float] = []
    steps: dict[str, list[float]] = {s: [] for s in wl.steps}
    start = perf_counter()
    while len(ops) < wl.min_ops or perf_counter() - start < seconds:
        total = 0.0
        for step in wl.steps:
            wall, rc, out = wl.run_step(step, wl.in_process)
            total += wall
            steps[step].append(wall)
            tally.add(step, wl.check(step, rc, out), out)
        ops.append(total)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0     # kB on Linux
    metrics = {"op_s": {"value": median(ops), "unit": "s"},
               "setup_s": {"value": median(setup_s), "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    summary = [f"{wl.name}: op_s median {median(ops):.4f} s over {len(ops)} "
               f"operations (steps: {', '.join(wl.steps)})"]
    summary += [f"  {s}: median {median(v):.4f} s over {len(v)}" for s, v in steps.items()]
    summary += [f"setup_s median {median(setup_s):.4f} s over {len(setup_s)}",
                f"peak_rss_mb {rss_mb:.1f} ({'this process' if wl.in_process else 'children'})",
                f"attempted {tally.attempted}, failed {tally.failed}"]
    summary += [f"FAIL {m}" for m in tally.messages]
    return {"result": tally.result(metrics), "summary": summary,
            "samples": {"op_s": ops, "setup_s": setup_s, "steps": steps},
            "digests": tally.digests, "failures": tally.messages}


def import_seconds(root: str, reps: int) -> list[float]:
    """Wall times of ``python -c "import kreinalg.cli"``."""
    env = child_env(root)
    walls = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import kreinalg.cli"], env=env,
                       cwd=root, check=True)
        walls.append(perf_counter() - t0)
    return walls


def traced(wl, import_reps: int) -> dict:
    """Each step in this process untraced, then again under the tracer."""
    tally = Tally()
    _setup(wl, tally, [])
    imports = import_seconds(wl.root, import_reps)
    tracer = layers.Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    step_walls = dict.fromkeys(STEP_METRICS, 0.0)
    for step in wl.steps:
        wall, rc, out = wl.run_step(step, True)
        tally.add(step, wl.check(step, rc, out), out)
        walls["untraced"] += wall
        step_walls[f"step.{step}.wall_s"] += wall
        tracer.install()
        try:
            wall, rc, out = wl.run_step(step, True)
        finally:
            tracer.uninstall()
        tally.add(step, wl.check(step, rc, out), out)
        walls["traced"] += wall

    values = tracer.metrics()
    values.update(step_walls)
    values["startup.import_s"] = median(imports)
    values["trace.wall_s"] = walls["traced"]
    values["trace.unattributed_s"] = walls["traced"] - tracer.total_self_s()
    values["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
    values["check.fail_ratio"] = tally.failed / tally.attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_units().items()}

    summary = [f"{wl.name} traced: wall {walls['traced']:.4f} s, untraced "
               f"{walls['untraced']:.4f} s, overhead ratio "
               f"{values['trace.overhead_ratio']:.4f}",
               "layer self times (s):"]
    for layer in layers.LAYERS:
        summary.append(f"  {layer:9s} {values[layer + '.self_s']:10.4f}  "
                       f"{values[layer + '.calls']:9d} calls")
    summary.append(f"  {'unattrib.':9s} {values['trace.unattributed_s']:10.4f}")
    summary.append(f"  {'sum':9s} {tracer.total_self_s() + values['trace.unattributed_s']:10.4f}"
                   f"  (= traced wall)")
    summary.append("top self-time functions:")
    summary += [f"  {label:40s} {s:10.4f} s {c:9d} calls"
                for label, c, s in tracer.top(10)]
    summary.append(f"startup.import_s median {median(imports):.4f} s over {len(imports)}")
    summary.append(f"attempted {tally.attempted}, failed {tally.failed}")
    summary += [f"FAIL {m}" for m in tally.messages]
    return {"result": tally.result(metrics), "summary": summary, "spans": tracer,
            "samples": {"import_s": imports}, "digests": tally.digests,
            "failures": tally.messages}


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}
