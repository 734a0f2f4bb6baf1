"""kreinalg benchmark: one command, three workloads, traced or not.

    python3 bench/run.py --workload cli_large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  Untraced runs print the end-to-end metrics, traced runs the
per-layer ones; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record with
every sample, every report digest and the machine facts goes to
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

# Pin BLAS threads before numpy loads; child processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPS = 3
IMPORT_REPS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_large", "suite_small", "engine_mid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not 0 <= args.seed < 2 ** 63:
        print("bench: --seed must be a nonnegative 64-bit integer", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kreinalg", "__init__.py")):
        print(f"bench: no kreinalg sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    import measure
    from workloads import WORKLOADS

    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        wl = WORKLOADS[args.workload](root, tmp, args.seed, args.tiny)
        if args.trace:
            record = measure.traced(wl, IMPORT_REPS)
        else:
            record = measure.untraced(wl, args.seconds, SETUP_REPS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    record["machine"] = measure.machine_facts(BLAS_THREADS)
    record["args"] = vars(args)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        spans.save_spans(os.path.join(out_dir, stem + ".spans.npz"))
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for line in record["summary"]:
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
