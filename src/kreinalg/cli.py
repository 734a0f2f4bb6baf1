"""Command line front end.

Subcommands map onto the library engines: ``indices``, ``decompose``,
``factorize``, ``congruent``, ``phillips``, ``property-suite``.  Operand
files are read by ``serial.read_operand``, which decides their format and
tolerance, the other matrix files by ``serial.read_matrix``.  One table,
``_COMMANDS``, declares each subcommand once (name, help, ``cmd_*`` and
its own arguments) and :func:`build_parser` turns its rows into
subparsers, once per process.  Each ``cmd_*`` returns
``(report, text_lines, exit_code)`` and writes its own ``--out`` files;
:func:`main` adds the schema version and command name and emits the
report once: one JSON document under ``--machine``, else the lines.

Exit codes: 0 success, 1 property violation, numerical failure or
exhausted memory, 2 input or validation error, 3 mathematical
precondition failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bkfact import bk_factorize, bk_verify
from .decomp import decompose, projections, validate
from .densela import Tolerance, spectral_norm
from .errors import DimensionMismatch, InputError, KreinError, PreconditionError
from .hermdex import (build_congruence, hermitian_indices, require_equal_dims,
                      transport)
from .krein import (IndexTriple, KOperator, KreinSpace, hilbert_space, make_space,
                    make_subspace, selfadjoint_split, space_indices)
from .phillips import graph_rep, phillips_extend
from .serial import read_matrix, read_operand, write_json
from .suite import run_property_suite

__all__ = ["main", "main_entry", "build_parser"]

SCHEMA_VERSION = 1


def _merge_tolerance(args, file_tol: Tolerance | None) -> Tolerance:
    # flag > file > default
    base = file_tol if file_tol is not None else Tolerance()
    rank = args.tol_rank if args.tol_rank is not None else base.rank_tol
    res = args.tol_res if args.tol_res is not None else base.residual_tol
    return Tolerance(rank_tol=rank, residual_tol=res)


def _space_flag(args, tol: Tolerance) -> KreinSpace | None:
    """The --space symmetry, read and validated once per command."""
    return None if args.space is None else make_space(
        read_matrix(args.space, "space symmetry", square=True), tol)


def _operand_space(flag: KreinSpace | None, J, n: int, tol: Tolerance) -> KreinSpace:
    """An n-dimensional operand's space: --space, else its own J, else Hilbert."""
    if flag is not None:
        if flag.dim != n:
            raise DimensionMismatch(
                f"symmetry is {flag.dim}x{flag.dim}, operator needs {n}x{n}")
        return flag
    return make_space(J, tol) if J is not None else hilbert_space(n)


def _load_operators(args, *paths) -> tuple[list[KOperator], Tolerance]:
    """Operators from problem or matrix files.  The tolerance (flags, then
    the first file with a tolerance object, then the default) is settled
    before any space is validated, so every space is checked under it."""
    parsed = [read_operand(path) for path in paths]
    tol = _merge_tolerance(args, next(
        (file_tol for _, _, file_tol in parsed if file_tol is not None), None))
    flag = _space_flag(args, tol)
    ops = []
    for J, M, _ in parsed:
        space = _operand_space(flag, J, M.shape[0], tol)
        ops.append(KOperator(space, space, M))
    return ops, tol


def _emit(report: dict, args, lines: list[str]) -> None:
    try:
        if args.machine:
            write_json(report, sys.stdout)
        else:
            print(*lines, sep="\n")
        sys.stdout.flush()
    except OSError as exc:
        # what is still buffered goes nowhere, so shutdown has no failed
        # flush to report (the SIGPIPE note of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write the report: {exc}") from exc


def _indices_line(label: str, triple) -> str:
    return f"{label}: h+ = {triple[0]}, h- = {triple[1]}, h0 = {triple[2]}"


def cmd_indices(args) -> tuple:
    (C,), tol = _load_operators(args, args.input)
    idx = hermitian_indices(C, tol)
    ip, im = space_indices(C.domain)
    report = {
        "indices": list(idx),
        "space": {"dim": C.domain.dim, "ind_plus": ip, "ind_minus": im},
    }
    return report, [
        _indices_line("operator indices", idx),
        f"space signature: ind+ = {ip}, ind- = {im} (dim {C.domain.dim})"], 0


def cmd_decompose(args) -> tuple:
    (C,), tol = _load_operators(args, args.input)
    dec = decompose(C, tol)
    rep = validate(C, dec, tol)
    P = projections(C, dec, tol)
    report = {
        "bases": {"plus": dec.M_plus.basis, "minus": dec.M_minus.basis,
                  "zero": dec.M_zero.basis},
        "projections": {"plus": P.Q_plus.matrix, "minus": P.Q_minus.matrix,
                        "zero": P.Q_zero.matrix},
        "validation": rep,
    }
    d = rep["dims"]
    return report, [
        f"part dimensions: plus {d[0]}, minus {d[1]}, zero {d[2]}",
        *(f"  {key}: {'ok' if rep[key] else 'FAILED'}"
          for key in ("sign_conditions", "pairwise_sums_direct", "pairwise_c_orthogonal",
                      "dimensions_match_indices", "direct_sum")),
        f"validation passed: {rep['passed']}"], 0 if rep["passed"] else 1


def cmd_factorize(args) -> tuple:
    (C,), tol = _load_operators(args, args.input)
    F = bk_factorize(C, tol)
    rep = bk_verify(C, F, tol)
    ip, im = rep["factor_space_indices"]
    report = {
        "factor_space": {"dim": F.A_space.dim, "ind_plus": ip, "ind_minus": im,
                         "J": F.A_space.J},
        "factor": F.A.matrix,
        "verify": rep,
    }
    _write_outputs(args.out, {"factor_space": F.A_space.J, "factor": F.A.matrix,
                              "verify": rep})
    return report, [
        f"factor space: dim {F.A_space.dim} (ind+ = {ip}, ind- = {im})",
        f"product residual: {rep['product_residual']:.3e}",
        f"injective: {rep['injective']}, index equality: {rep['index_equality']}",
        f"verified: {rep['passed']}"], 0 if rep["passed"] else 1


def cmd_congruent(args) -> tuple:
    (A, B), tol = _load_operators(args, args.input_a, args.input_b)
    require_equal_dims(A, B)
    # cut from the eigendecompositions a congruence is built from, not from
    # eigenvalues taken before them
    idx_a, idx_b = (IndexTriple(*selfadjoint_split(C, tol, "the hermitian index triple")
                                .counts) for C in (A, B))
    report = {
        "indices_a": list(idx_a),
        "indices_b": list(idx_b),
        "congruent": idx_a == idx_b,
    }
    verdict = "congruent: no"
    if report["congruent"]:
        X = build_congruence(A, B, tol)
        resid = spectral_norm(A.matrix - transport(B, X, tol).matrix)
        scale = max(A.norm, B.norm)
        report["X"] = X.X.matrix
        report["residual"] = float(resid / scale if scale > 0 else resid)
        verdict = f"congruent: yes (residual {report['residual']:.3e})"
    return report, [_indices_line("indices of A", idx_a),
                    _indices_line("indices of B", idx_b), verdict], 0


def cmd_phillips(args) -> tuple:
    tol = _merge_tolerance(args, None)
    Bp = read_matrix(args.plus, "nonnegative basis")
    Bm = read_matrix(args.minus, "nonpositive basis")
    n = Bp.shape[0]
    if Bm.shape[0] != n:
        raise DimensionMismatch(
            f"basis row counts differ: {n} vs {Bm.shape[0]}")
    if args.space is None and not (Bp.shape[1] or Bm.shape[1]):
        raise InputError("without --space a basis needs a column to fix the dimension")
    space = _operand_space(_space_flag(args, tol), None, n, tol)
    Sp = make_subspace(space, Bp, tol)
    Sm = make_subspace(space, Bm, tol)
    gp = graph_rep(Sp, "plus", tol)
    gm = graph_rep(Sm, "minus", tol)
    ext = phillips_extend(gp, gm, tol)
    report = {
        "contraction": ext.G,
        "contraction_norm": float(spectral_norm(ext.G)),
        "maximal_plus": ext.G_tilde_plus.basis,
        "maximal_minus": ext.G_tilde_minus.basis,
        "dims": {"plus": ext.G_tilde_plus.dim, "minus": ext.G_tilde_minus.dim},
    }
    _write_outputs(args.out, {key: report[key] for key in
                              ("contraction", "maximal_plus", "maximal_minus")})
    return report, [
        f"contraction norm: {report['contraction_norm']:.6f}",
        f"maximal pair dimensions: plus {ext.G_tilde_plus.dim}, "
        f"minus {ext.G_tilde_minus.dim}"], 0


def cmd_property_suite(args) -> tuple:
    tol = _merge_tolerance(args, None)
    report = run_property_suite(args.seed, args.count, args.dim_max, tol)
    lines = [f"{b['name']}: {b['cases']} cases, {b['failures']} failures "
             f"[{'pass' if b['passed'] else 'FAIL'}]" for b in report["batteries"]]
    lines.append(f"suite passed: {report['passed']} (seed {report['seed']})")
    return report, lines, 0 if report["passed"] else 1


def _write_outputs(out_dir: str | None, files: dict) -> None:
    """Write each report entry to ``out_dir/<name>.json`` (skipped without --out)."""
    if out_dir is None:
        return
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, obj in files.items():
            with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                write_json(obj, fh)
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc


def _arg(*flags, **options) -> tuple:
    return flags, options


_INPUT = _arg("--input", "-i", required=True, metavar="FILE",
              help="problem or matrix JSON file")
_SPACE = _arg("--space", metavar="FILE", help="JSON matrix file with the "
              "fundamental symmetry J (default: identity)")
# every command takes these after its own arguments
_COMMON = (_arg("--tol-rank", type=float, default=None, metavar="T",
                help="rank decision tolerance"),
           _arg("--tol-res", type=float, default=None, metavar="T",
                help="residual tolerance"),
           _arg("--machine", action="store_true",
                help="emit one JSON document instead of text"))

# one row per subcommand, in help order: name, help, command, own arguments
_COMMANDS = (
    ("indices", "hermitian index triple of a selfadjoint operator", cmd_indices,
     (_INPUT, _SPACE)),
    ("decompose", "orthogonal decomposition into sign-definite parts", cmd_decompose,
     (_INPUT, _SPACE)),
    ("factorize", "factor C = A A* over a space matching the indices", cmd_factorize,
     (_INPUT, _arg("--out", metavar="DIR", help="directory for factor output files"),
      _SPACE)),
    ("congruent", "decide congruence of two operators", cmd_congruent,
     (_arg("input_a", metavar="FILE_A"), _arg("input_b", metavar="FILE_B"), _SPACE)),
    ("phillips", "extend an orthogonal semidefinite pair to a maximal pair", cmd_phillips,
     (_arg("plus", metavar="PLUS_BASIS",
           help="matrix file, columns span the nonnegative subspace"),
      _arg("minus", metavar="MINUS_BASIS",
           help="matrix file, columns span the nonpositive subspace"),
      _arg("--out", metavar="DIR", help="directory for contraction and basis files"),
      _SPACE)),
    ("property-suite", "run the randomized invariant batteries", cmd_property_suite,
     (_arg("--seed", type=int, default=0, help="master seed (default 0)"),
      _arg("--count", type=int, default=None,
           help="cases per battery (default: per-battery sizes)"),
      _arg("--dim-max", type=int, default=8,
           help="largest random dimension (default 8)"))),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="krein",
        description="Inertia, congruence, and factorization tools for "
                    "selfadjoint operators on indefinite inner product spaces.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, blurb, fn, arguments in _COMMANDS:
        p = sub.add_parser(name, help=blurb)
        for flags, options in (*arguments, *_COMMON):
            p.add_argument(*flags, **options)
        p.set_defaults(func=fn)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with np.errstate(all="ignore"):     # non-finite values are checked, not warned of
            report, lines, code = args.func(args)
            _emit({"schema_version": SCHEMA_VERSION, "command": args.command, **report},
                  args, lines)
        return code
    except KreinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, InputError)
                else 3 if isinstance(exc, PreconditionError) else 1)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
