"""Command-line interface: coefficient tables and verification reports.

Subcommands:

* ``classes``  - the coefficient table for one (d, g) and variant;
* ``table1``   - the fourteen positive single-twist corrections (d <= 5),
  checked with every other residue class;
* ``table2``   - the trigonal comparison families for one even genus;
* ``patel``    - the j = 2 partial-compactification display;
* ``verify``   - the property suites (lattice | identities | tables | all).

Rationals are always printed exactly ("p/q" or "p"); partitions print as
"(3|2|1)".  Exit codes: 0 success, 1 verification failure (a FAIL row of a
table command, or a failed ``verify`` check), 2 usage error
(bad input, or a construction that does not apply), 3 internal invariant
failure (a bug, reported as one line, not a traceback), 141 standard
output closed early by the reader (``maroni ... | head``; 128 + SIGPIPE).
``csv`` rows are written as they are computed, ``table`` and ``json`` after
the last row, so a failure after the first row (exit 2 or 3) leaves the csv
rows before the failing type on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Iterable

from . import formulas, verify
from .combinatorics import HurwitzParams, Partition
from .errors import DomainError, InvariantError

CSV_HEADER = "j,mu,n,m,r,c,coefficient,variant,provenance"


def _text(value) -> str:
    """Render one cell: rationals exactly as p/q, absent values as '-'."""
    return "-" if value is None else str(value)


def _emit_rows(header: list[str], rows: Iterable[list], fmt: str, out) -> None:
    """Write rows, read once, as an aligned table, csv, or json.

    csv writes each row as it is read; the table (for its column widths)
    and json collect every row first.  Cells may be ints, Fractions,
    strings or None; rationals serialize as exact "p/q" strings in every
    format, never as floats.
    """
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_text(v) for v in row) + "\n")
    elif fmt == "json":
        payload = [{h: str(v) if isinstance(v, Fraction) else v
                    for h, v in zip(header, row)} for row in rows]
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        cells = [[_text(v) for v in row] for row in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(header)
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in cells:
            out.write(
                "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n"
            )


def cmd_classes(args, out) -> int:
    table = formulas.build_table(HurwitzParams(args.d, args.g), args.variant)
    rows = (
        [r.bt.j, str(r.bt.mu), r.bt.n, r.bt.m, r.bt.r, r.bt.c, r.coefficient,
         args.variant, r.provenance]
        for r in table
    )
    _emit_rows(CSV_HEADER.split(","), rows, args.format, out)
    return 0


def _emit_checks(header: list[str], cells: Iterable[list], rows, fmt, out) -> int:
    """Write the shown cells; exit 1 iff any checked row is FAIL."""
    _emit_rows(header, cells, fmt, out)
    return 1 if any(row.status == "FAIL" for row in rows) else 0


def cmd_table1(args, out) -> int:
    # every class is checked; shown are the listed ones and any that fails
    rows = verify.table1_rows()
    cells = [
        [d, str(Partition(parts)), residue, row.computed, row.expected, row.status]
        for (d, parts, residue), row in rows.items()
        if (d, parts, residue) in verify.TABLE1 or row.status == "FAIL"
    ]
    return _emit_checks(["d", "mu", "j_mod", "sigma", "expected", "status"],
                        cells, rows.values(), args.format, out)


def cmd_table2(args, out) -> int:
    rows = formulas.dp_trigonal_check(args.g)
    cells = ([r.family, r.label, r.computed, r.expected, r.status, r.note]
             for r in rows)
    return _emit_checks(["family", "label", "computed", "expected", "status",
                         "note"], cells, rows, args.format, out)


def cmd_patel(args, out) -> int:
    rows = formulas.patel_consistency(HurwitzParams(args.d, args.g))
    cells = ([r.family, r.expected, r.computed, r.status] for r in rows)
    return _emit_checks(["piece", "coefficient", "sigma_st_at_j2", "status"],
                        cells, rows, args.format, out)


def cmd_verify(args, out) -> int:
    results = verify.run_suites(args.suite, max_d=args.max_d, max_g=args.max_g,
                                explore_ties=args.tie_exhaustive)
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        out.write(f"[{status}] {res.name}: {res.checked} cases checked\n")
        for message in res.failures:
            out.write(f"       {message}\n")
    failed = not all(res.ok for res in results)
    out.write("RESULT: " + ("FAIL\n" if failed else "PASS\n"))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maroni",
        description="Exact boundary coefficients of extended Maroni classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")

    p_classes = sub.add_parser("classes", help="coefficient table for (d, g)")
    p_classes.add_argument("--d", type=int, required=True)
    p_classes.add_argument("--g", type=int, required=True)
    p_classes.add_argument("--variant", choices=formulas.VARIANTS, default="st")
    add_format(p_classes)
    p_classes.set_defaults(func=cmd_classes)

    p_t1 = sub.add_parser("table1", help="single-twist correction table")
    add_format(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="trigonal comparison table")
    p_t2.add_argument("--g", type=int, required=True)
    add_format(p_t2)
    p_t2.set_defaults(func=cmd_table2)

    p_patel = sub.add_parser("patel", help="j=2 partial-compactification display")
    p_patel.add_argument("--d", type=int, required=True)
    p_patel.add_argument("--g", type=int, required=True)
    add_format(p_patel)
    p_patel.set_defaults(func=cmd_patel)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", choices=verify.SUITES, default="all")
    p_verify.add_argument("--max-d", type=int, default=5, help=(
        f"largest degree d (3..{verify.MAX_D}) of the lattice and identities "
        "suites; the tables suite and the W_E^2 check have fixed ranges"))
    p_verify.add_argument("--max-g", type=int, default=16, help=(
        "largest genus g of the identities suite's per-type checks; the lattice "
        f"suite runs at g = (d-1)k, k in {verify.LATTICE_KS}, on chains with m <= "
        f"{verify.LATTICE_MAX_LCM}, the patel check at k <= {verify.PATEL_MAX_K}, "
        "and the tables suite at fixed ranges"))
    p_verify.add_argument(
        "--tie-exhaustive", action="store_true",
        help="also round again with every tie explored and check that the "
             "rounded points equal the default ones (identities suite)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # reader gone: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
