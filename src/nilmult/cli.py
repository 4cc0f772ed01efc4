"""Command-line front end.

    nilmult info <spec>
    nilmult multiplier <spec>
    nilmult bounds <spec>
    nilmult kernel <spec>
    nilmult verify corpus [--max-dim N] [--json] [--parallel]
    nilmult verify lemma [--arity-max K]

Every subcommand accepts ``--format table|json|csv`` and
``--strict-remark``.  ``verify corpus`` runs every algebra in this
process; ``--parallel`` is accepted for compatibility and changes
nothing.  Exit codes: 0 all checks pass, 1 a checked property failed,
2 bad input (spec string, file, or flags), 3 an internal error (any
other exception), 141 (128 + SIGPIPE) the reader closed stdout.

This module imports only ``argparse``, ``os`` and ``sys``; each command
imports the layers it calls when it runs: ``--help`` none, ``verify
lemma`` only ``free_lie`` and ``record``, ``kernel`` no ``analysis``.
"""

from __future__ import annotations

import argparse
import os
import sys


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[k]) for r in cells)) if cells else len(h)
              for k, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _emit(fmt: str, headers: list[str], rows: list[list], payload) -> None:
    """Render one report in the requested format; json and csv load here."""
    if fmt == "json":
        import json
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        import csv
        csv.writer(sys.stdout).writerows([headers, *rows])
    else:
        _print_table(headers, rows)


# -- single-algebra commands ---------------------------------------------------

def cmd_info(args) -> int:
    from .catalog import build
    from .lie_core import series_profile, upper_series

    L = build(args.spec)
    prof = series_profile(L)
    lower = [s.dim for s in prof.lower]
    # dimensions are invariants; the adapted table is cheap on a dense input basis
    upper = [s.dim for s in upper_series(prof.adapted)]
    payload = {
        "name": L.name, "dim": L.dim, "abelian": L.is_abelian,
        "class": prof.nilpotency_class, "m": prof.derived_dim,
        "gen_count": prof.gen_count, "lower_series_dims": lower,
        "upper_series_dims": upper,
        "brackets": {f"{i + 1},{j + 1}": {str(k + 1): str(c) for k, c in entry.items()}
                     for (i, j), entry in sorted(L.table.items())},
    }
    headers = ["name", "n", "abelian", "class", "m", "gen_count",
               "lower_dims", "upper_dims"]
    rows = [[L.name, L.dim, L.is_abelian, prof.nilpotency_class,
             prof.derived_dim, prof.gen_count,
             ">".join(map(str, lower)), "<".join(map(str, upper))]]
    _emit(args.format, headers, rows, payload)
    return 0


def cmd_multiplier(args) -> int:
    from .catalog import build
    from .homology import multiplier_dim

    L = build(args.spec)
    result = multiplier_dim(L)
    headers = ["name", "n", "rank_d2", "rank_d3", "dim_M"]
    rows = [[L.name, result.n, result.rank_d2, result.rank_d3, result.dim_M]]
    payload = {"name": L.name, **vars(result)}
    _emit(args.format, headers, rows, payload)
    return 0


_BOUND_HEADERS = ["name", "n", "m", "c", "dim_M", "batten", "hardy_stitzinger",
                  "yankosky_closed", "niroomand_russo", "rai", "rai_refined",
                  "theorem"]


def _refined_cell(value, holds) -> str:
    """The rai_refined cell: '-' when undefined, '!' marks a failed value."""
    if value is None:
        return "-"
    return f"{value}{'!' if holds is False else ''}"


def _bound_row(report) -> list:
    return [report.name, report.n, report.m, report.c, report.dim_M,
            report.batten, report.hardy_stitzinger, report.yankosky_closed,
            "-" if report.niroomand_russo is None else report.niroomand_russo,
            "-" if report.rai is None else report.rai,
            _refined_cell(report.rai_refined, report.refined_holds),
            "-" if report.theorem_holds is None else
            ("holds" if report.theorem_holds else "FAILS")]


def cmd_bounds(args) -> int:
    from .analysis import bound_report
    from .catalog import build

    L = build(args.spec)
    report = bound_report(L)
    _emit(args.format, _BOUND_HEADERS, [_bound_row(report)], report.to_dict())
    code = 0
    if report.refined_holds is False:
        print(f"warning: refined value {report.rai_refined} is below "
              f"dim M = {report.dim_M} for {report.name}", file=sys.stderr)
        if args.strict_remark:
            code = 1
    if report.theorem_holds is False:
        print(f"check failed: {report.name}: dim M = {report.dim_M} exceeds "
              f"bound {report.rai}", file=sys.stderr)
        code = 1
    return code


def cmd_kernel(args) -> int:
    from .catalog import build
    from .homology import ker_lambda_dims

    L = build(args.spec)
    profile = ker_lambda_dims(L)
    headers = ["name", "i", "dim_g_i/g_i+1", "dim_M(L/g_i)", "ker_lambda_i",
               "required", "domain", "ok"]
    rows = [[profile.name, row.i, row.dim_gamma_i_mod_next,
             row.dim_M_of_L_mod_gamma_i, row.ker_lambda_i,
             row.required_lower_bound, row.domain_bound,
             "yes" if row.satisfied else "NO"] for row in profile.rows]
    payload = dict(vars(profile), rows=[vars(row) for row in profile.rows])
    _emit(args.format, headers, rows, payload)
    if not profile.all_satisfied:
        bad = [r.i for r in profile.rows if not r.satisfied]
        print(f"check failed: {profile.name}: kernel rows {bad}", file=sys.stderr)
        return 1
    return 0


# -- verify lemma ----------------------------------------------------------------

# Arities 3..18 take about 0.8 s and 53 MB in a cold start (2-vCPU VM,
# Python 3.11); each further arity costs about 2x the time and 1.7x the memory.
ARITY_MAX = 18


def cmd_verify_lemma(args) -> int:
    if args.arity_max < 3:
        print("error: --arity-max must be at least 3", file=sys.stderr)
        return 2
    if args.arity_max > ARITY_MAX:
        print(f"error: --arity-max must be at most {ARITY_MAX}", file=sys.stderr)
        return 2
    from .free_lie import lemma31_expression, verify_lemma31

    failures = 0
    records = []
    for i in range(3, args.arity_max + 1):
        terms = [str(expr) for _, expr in lemma31_expression(i)]
        residual = verify_lemma31(i)
        records.append({"arity": i, "terms": terms, "residual": str(residual)})
        if args.format == "table":
            print(f"i={i}: {residual}")
            for t, term in enumerate(terms, start=1):
                print(f"  term {t}: {term}")
        if not residual.is_zero:
            failures += 1
            print(f"check failed: arity {i} residual {residual}", file=sys.stderr)
    if args.format != "table":
        rows = [[r["arity"], t, term, r["residual"]]
                for r in records for t, term in enumerate(r["terms"], start=1)]
        _emit(args.format, ["arity", "term", "expression", "residual"], rows, records)
    return 1 if failures else 0


# -- verify corpus ----------------------------------------------------------------

def _verify_spec(spec: str) -> dict:
    """Every check for one corpus member, as a JSON-safe dict."""
    from .analysis import VerificationFailure, bound_report, verify_theorem
    from .catalog import build

    L = build(spec)
    report = bound_report(L)
    record = {"name": L.name, "abelian": L.is_abelian, "ok": True,
              "failure": None, "report": report.to_dict(), "kernel": [],
              "witness_ranks": [], "eq3_ok": None, "yankosky_step_ok": None,
              "refined_ok": report.refined_holds}
    if L.is_abelian:
        if report.dim_M != report.batten:
            record["ok"] = False
            record["failure"] = f"abelian multiplier {report.dim_M} != {report.batten}"
        return record
    try:
        verification = verify_theorem(L, report)
    except VerificationFailure as exc:
        record["ok"] = False
        record["failure"] = str(exc)
        return record
    record["kernel"] = [{"i": r.i, "ker_lambda_i": r.ker_lambda_i,
                         "required_lower_bound": r.required_lower_bound,
                         "domain_bound": r.domain_bound,
                         "satisfied": r.satisfied}
                        for r in verification.kernel.rows]
    # verify_theorem returns only when every check holds: it checked that
    # each Ψ_i set has rank len(z), eq3 and the class-c quotient inequality.
    record["witness_ranks"] = [[w.i, len(w.z), len(w.z)]
                               for w in verification.witnesses]
    record["eq3_ok"] = True
    record["yankosky_step_ok"] = True
    return record


def cmd_verify_corpus(args) -> int:
    if args.max_dim is not None and args.max_dim < 1:
        print("error: --max-dim must be at least 1", file=sys.stderr)
        return 2
    from .catalog import default_manifest

    fmt = "json" if args.json else args.format
    results = [_verify_spec(spec) for spec in default_manifest(args.max_dim)]

    headers = ["name", "n", "m", "c", "dim_M", "rai", "rai_refined", "status"]
    rows = []
    for r in results:
        rep = r["report"]
        rows.append([r["name"], rep["n"], rep["m"], rep["c"], rep["dim_M"],
                     rep.get("rai", "-"),
                     _refined_cell(rep.get("rai_refined"), r["refined_ok"]),
                     "ok" if r["ok"] else "FAIL"])
    _emit(fmt, headers, rows, results)

    failures = [r for r in results if not r["ok"]]
    violators = [r["name"] for r in results if r["refined_ok"] is False]
    for r in failures:
        print(f"check failed: {r['failure']}", file=sys.stderr)
    if violators:
        print("warning: refined value below dim M for: "
              + ", ".join(violators), file=sys.stderr)
    checked = sum(1 for r in results if not r["abelian"])
    print(f"verified {len(results)} algebras ({checked} nonabelian), "
          f"{len(failures)} failures, {len(violators)} refined-value violations",
          file=sys.stderr)
    if failures:
        return 1
    if violators and args.strict_remark:
        return 1
    return 0


# -- parser ------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    common.add_argument("--strict-remark", action="store_true",
                        help="exit 1 when the refined value fails")

    parser = argparse.ArgumentParser(
        prog="nilmult",
        description="Exact multiplier dimensions and bounds for nilpotent "
                    "Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, text in (
            ("info", cmd_info, "dimensions and central series of one algebra"),
            ("multiplier", cmd_multiplier, "multiplier dimension of one algebra"),
            ("bounds", cmd_bounds, "all bound values for one algebra"),
            ("kernel", cmd_kernel, "kernel dimensions of the bracket maps")):
        p_single = sub.add_parser(name, parents=[common], help=text)
        p_single.add_argument("spec")
        p_single.set_defaults(handler=handler)

    p_verify = sub.add_parser("verify", help="run the checked properties")
    v_sub = p_verify.add_subparsers(dest="target", required=True)

    p_corpus = v_sub.add_parser("corpus", parents=[common],
                                help="verify every corpus algebra")
    p_corpus.add_argument("--max-dim", type=int, default=None,
                          help="only corpus members of dimension <= N")
    p_corpus.add_argument("--json", action="store_true",
                          help="shorthand for --format json")
    p_corpus.add_argument("--parallel", action="store_true",
                          help="accepted for compatibility; changes nothing")
    p_corpus.set_defaults(handler=cmd_verify_corpus)

    p_lemma = v_sub.add_parser("lemma", parents=[common],
                               help="expand the commutator identity")
    p_lemma.add_argument("--arity-max", type=int, default=6,
                         help="largest arity to expand (default 6)")
    p_lemma.set_defaults(handler=cmd_verify_lemma)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # unwritten output goes to devnull, so exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        # The error classes load on this path only, analysis only if it is loaded.
        from .catalog import ParseError, SpecError
        from .homology import RangeError
        from .lie_core import JacobiViolation, NotNilpotent

        analysis = sys.modules.get(f"{__package__}.analysis")
        if analysis is not None and isinstance(exc, analysis.VerificationFailure):
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, (SpecError, ParseError, JacobiViolation, NotNilpotent, RangeError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
