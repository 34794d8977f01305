"""Command-line interface: coefficient tables and verification reports.

Subcommands:

* ``classes``  - the coefficient table for one (d, g) and variant;
* ``table1``   - the fourteen positive single-twist corrections (d <= 5);
* ``table2``   - the trigonal comparison families for one even genus;
* ``patel``    - the j = 2 partial-compactification display;
* ``verify``   - the property suites (lattice | identities | tables | all).

Rationals are always printed exactly ("p/q" or "p"); partitions print as
"(3|2|1)".  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formulas, verify
from .combinatorics import HurwitzParams
from .errors import DomainError

CSV_HEADER = "j,mu,n,m,r,c,coefficient,variant,provenance"


def _text(value) -> str:
    """Render one cell: rationals exactly as p/q, absent values as '-'."""
    if value is None:
        return "-"
    return str(value)


def _json_cell(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    return value


def _emit_rows(header: list[str], rows: list[list], fmt: str, out) -> None:
    """Write rows as an aligned table, csv, or json.

    Cells may be ints, Fractions, strings or None; rationals serialize as
    exact "p/q" strings in every format, never as floats.
    """
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_text(v) for v in row) + "\n")
    elif fmt == "json":
        payload = [
            {h: _json_cell(v) for h, v in zip(header, row)} for row in rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
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
    params = _params(args)
    table = formulas.build_table(params, args.variant, args.tie_exhaustive)
    rows = [
        [
            r.bt.j,
            str(r.bt.mu),
            r.bt.n,
            r.bt.m,
            r.bt.r,
            r.bt.c,
            r.coefficient,
            r.variant,
            r.provenance,
        ]
        for r in table.rows
    ]
    _emit_rows(CSV_HEADER.split(","), rows, args.format, out)
    return 0


def cmd_table1(args, out) -> int:
    rows = []
    failures = 0
    computed = {
        (d, mu.parts, residue): delta
        for d in (3, 4, 5)
        for mu, residue, delta in verify.table1_deltas(d)
    }
    for (d, parts, residue), expected in verify.TABLE1.items():
        delta = computed[(d, parts, residue)]
        ok = delta == expected
        failures += 0 if ok else 1
        mu_text = "(" + "|".join(map(str, parts)) + ")"
        rows.append(
            [d, mu_text, residue, delta, expected, "PASS" if ok else "FAIL"]
        )
    _emit_rows(["d", "mu", "j_mod", "sigma", "expected", "status"],
               rows, args.format, out)
    return 1 if failures else 0


def cmd_table2(args, out) -> int:
    if args.g % 2 != 0 or args.g < 4:
        raise DomainError(f"table2 needs even g >= 4, got g={args.g}")
    rows = []
    failures = 0
    for row in formulas.dp_trigonal_check(args.g):
        failures += 1 if row.status == "FAIL" else 0
        rows.append(
            [row.family, row.label, row.computed, row.expected,
             row.status, row.note]
        )
    _emit_rows(["family", "label", "computed", "expected", "status", "note"],
               rows, args.format, out)
    return 1 if failures else 0


def cmd_patel(args, out) -> int:
    params = _params(args)
    rows = []
    failures = 0
    for label, displayed, direct in formulas.patel_consistency(params):
        if direct is None:
            status = "SKIP"
        else:
            status = "PASS" if displayed == direct else "FAIL"
            failures += 0 if status == "PASS" else 1
        rows.append([label, displayed, direct, status])
    _emit_rows(["piece", "coefficient", "sigma_st_at_j2", "status"],
               rows, args.format, out)
    return 1 if failures else 0


def cmd_verify(args, out) -> int:
    results = verify.run_suites(
        args.suite,
        radius=args.radius,
        max_d=args.max_d,
        max_g=args.max_g,
        explore_ties=args.tie_exhaustive,
    )
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        out.write(f"[{status}] {res.name}: {res.checked} cases checked\n")
        for message in res.failures:
            out.write(f"       {message}\n")
    failed = not all(res.ok for res in results)
    out.write("RESULT: " + ("FAIL\n" if failed else "PASS\n"))
    return 1 if failed else 0


def _params(args) -> HurwitzParams:
    return HurwitzParams(args.d, args.g)


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
    p_classes.add_argument("--tie-exhaustive", action="store_true")
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
    p_verify.add_argument("--suite", choices=("lattice", "identities",
                                              "tables", "all"), default="all")
    p_verify.add_argument("--radius", type=int, default=3)
    p_verify.add_argument("--max-d", type=int, default=5)
    p_verify.add_argument("--max-g", type=int, default=16)
    p_verify.add_argument("--tie-exhaustive", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
