"""Guards for the rules that every change to the engine must keep.

1. Both benchmark commands print exactly their golden output.  The argv
   and the golden files are read from ``perfbench/``, never written.
2. The engine runs in integers: the ``Fraction`` matrix pairing
   ``intersect`` is only the reference that tests and ``verify`` compare
   with, so no engine path may call it.  Likewise the nodal scan calls the
   ``Fraction`` functional ``nodal_f1`` only at its 15 identity points,
   and each correction builds A once.  Whether the joint twist applies is
   asked of the type: no engine path catches ``DomainError`` (nor a base
   class), which only ``cli`` turns into exit 2.  The chain vector
   (m - i) x - delta_i has one builder, ``BoundaryType.chain_nums``, and the
   twist divisor (-v_0, ..., -v_{m-1}, 0) one, ``chain.divisor_vector``.
   ``chain`` and ``lattice`` build a ``Fraction`` only in the references,
   the two ``Fraction`` views and one error message, so no ``Fraction``
   divisor layer returns to the engine.
3. The ``Fraction`` references stay exact: on integer coefficient vectors
   and points they return ``Fraction``s, and every coefficient of the
   tests' divisor class is one (an ``int`` coefficient would turn
   ``theta_dot(a_div) / 2`` into a float).
4. ``verify`` builds each object once: with the tie search on, the
   identity suite still builds one correction per twist and type, and
   checks the tie search on the rounded points alone; the lattice suite
   rounds and builds A once per twist and type, each correction a check
   reads builds one A, a partition derives its lcm once, and each joint
   rounding derives its numerators once.
5. The ``classes`` bytes of every variant stay as they are: one sha256
   per variant over the csv output for d = 3..8, k = 1, 2, and one per
   variant and format over the table and json output at two (d, g).
6. The package is stdlib-only: no declared dependency, and every absolute
   import in ``src/maroni`` is a standard-library module or ``maroni``.
7. The tie search has one path, ``verify --tie-exhaustive`` down to the
   roundings: no other function takes ``explore_ties``.
8. The lattice maxima are certified by the edge bound alone: ``src/maroni``
   defines no box search (the box program is a test oracle), the edge
   bound settles every case of the benchmark's ``verify`` range, and the
   ``classes`` path runs neither the bound nor A.
9. A published-table row has one verdict: ``formulas.check_row`` is the
   only function that builds a ``CheckRow``, and the table commands and
   their ``verify`` checks compare nothing but a row's status.
10. The package binds no names: ``maroni/__init__.py`` is its docstring
    and callers import from the modules.
11. Every name the benchmark's tracer wraps resolves on the module it
    names, the roundings take ``explore_ties`` second, where the tracer
    reads it, and ``gcd_profile`` keeps the cache whose hits and misses
    the traced child reports.  ``perfbench/tracer.py`` is read, never
    written.
12. ``verify`` takes no option that adds work without cause: its options
    are pinned, and the retired ``--radius``, whose every value the edge
    bound settles, is argparse's usage error.
13. Every field of every named-tuple record in ``src/maroni`` is read by
    name somewhere in ``src/maroni``: a field nothing reads is dead weight.
"""

import argparse
import ast
import collections
import contextlib
import hashlib
import importlib
import inspect
import io
import runpy
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

from chain_divisors import (
    add,
    component,
    fibral,
    full_fibre,
    standard_divisor,
    theta_dot,
)
import maroni.chain as chain
import maroni.combinatorics as combinatorics
import maroni.lattice as lattice
import maroni.nodal as nodal
import maroni.twist as twist
from maroni import formulas, verify
from maroni.cli import build_parser, main
from maroni.combinatorics import HurwitzParams, enumerate_boundary_types

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_command_prints_its_golden_output(name):
    workload = WORKLOADS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(workload.argv))
    assert code == 0
    assert out.getvalue() == workload.golden()


def _forbid(monkeypatch, owner, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("a forbidden function ran")

    for name in names:
        monkeypatch.setattr(owner, name, forbidden)


def test_verify_all_certifies_every_maximum_without_a_box(monkeypatch):
    defined = set()
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert not defined & {"box_max", "_radius_box"}
    bound, calls = twist.ChainQuadratic.edge_bound, []

    def counted(self, *args, **kwargs):
        calls.append(self)
        return bound(self, *args, **kwargs)

    monkeypatch.setattr(twist.ChainQuadratic, "edge_bound", counted)
    test_benchmark_command_prints_its_golden_output("verify_all")
    assert len(calls) == 110 + 74  # one bound per integer-maximum case


@pytest.mark.parametrize("variant", formulas.VARIANTS)
def test_classes_path_runs_no_bound_box_or_a(monkeypatch, variant):
    _forbid(monkeypatch, twist.ChainQuadratic, "edge_bound")
    _forbid(monkeypatch, lattice, "a_standard")
    for d in range(3, 7):
        for k in (1, 2):
            assert tuple(formulas.build_table(HurwitzParams(d, (d - 1) * k),
                                              variant))


def test_engine_never_calls_the_matrix_pairing(monkeypatch):
    def forbidden(d1, d2):
        raise AssertionError("the engine called the Fraction matrix pairing")

    monkeypatch.setattr(chain, "intersect", forbidden)
    monkeypatch.setattr(lattice, "intersect", forbidden)
    for d in range(3, 6):
        for k in (1, 2):
            params = HurwitzParams(d, (d - 1) * k)
            assert tuple(formulas.build_table(params, "min"))
            for bt in enumerate_boundary_types(params):
                joint = bt.mu.has_unit_part
                lattice.correction_n(bt)
                lattice.single_round(bt, explore_ties=True)
                if joint:
                    lattice.correction_ln(bt)
                    lattice.joint_round(bt, explore_ties=True)
                assert lattice.verify_integer_max(bt)
                assert not joint or lattice.verify_joint_max(bt)


def test_nodal_scan_calls_the_fraction_functional_only_to_check(monkeypatch):
    calls = []
    nodal_f1 = nodal.nodal_f1

    def counted(bt, z):
        calls.append(z)
        return nodal_f1(bt, z)

    monkeypatch.setattr(nodal, "nodal_f1", counted)
    for g in (2, 4, 8):
        for bt in enumerate_boundary_types(HurwitzParams(3, g)):
            if bt.mu.parts == (1, 1, 1):
                calls.clear()
                assert nodal.verify_trigonal_nodal_max(bt)
                assert len(calls) <= 15  # the 15 identity points


# DomainError and its bases: catching any of them catches it
DOMAIN_CATCHERS = {"DomainError", "ValueError", "Exception", "BaseException"}


def test_no_engine_path_catches_a_domain_error():
    # a type the joint twist does not apply to is told by bt.mu.has_unit_part;
    # catching the error would drop a row or a check on a raising bug
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                assert node.type is not None, f"{path.name}:{node.lineno} bare except"
                caught = {getattr(n, "id", getattr(n, "attr", None))
                          for n in ast.walk(node.type)}
                assert not caught & DOMAIN_CATCHERS, (
                    f"{path.name}:{node.lineno} catches {caught & DOMAIN_CATCHERS}")


def _builds_chain_vector(node):
    """Whether node is (m - i) * x - delta[i]: a product with a difference
    factor, minus an entry of a delta vector."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    product, entry = node.left, node.right
    return (isinstance(entry, ast.Subscript)
            and ast.unparse(entry.value).endswith("delta")
            and isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)
            and any(isinstance(f, ast.BinOp) and isinstance(f.op, ast.Sub)
                    for f in (product.left, product.right)))


def _builders(builds):
    """(file, function) per function of src/maroni with a node ``builds`` accepts."""
    found = set()
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(map(builds, ast.walk(node))):
                found.add((path.name, node.name))
    return found


def test_only_chain_nums_builds_the_chain_vector():
    # A (x = c), the single critical twist (x = a) and the branch numerators
    # (x = l) all read BoundaryType.chain_nums
    assert _builders(_builds_chain_vector) == {("combinatorics.py", "chain_nums")}


def _negated(node):
    """Whether node is a comprehension of negated entries, [-v for v in ...]."""
    return (isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and isinstance(node.elt, ast.UnaryOp) and isinstance(node.elt.op, ast.USub))


def _zero_padded(node):
    """Whether node is a list or tuple display whose last entry is 0."""
    return (isinstance(node, (ast.List, ast.Tuple)) and bool(node.elts)
            and isinstance(node.elts[-1], ast.Constant) and node.elts[-1].value == 0)


def _builds_divisor_vector(node):
    """Whether node is [-v for v in ...] + [0] or [*(-v for v in ...), 0]."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _negated(node.left) and _zero_padded(node.right)
    return _zero_padded(node) and any(
        isinstance(e, ast.Starred) and _negated(e.value) for e in node.elts)


def test_only_divisor_vector_negates_and_pads_the_chain_vector():
    # A from alpha (a_standard, the references, the verify degree check) and
    # the branch class from chain_nums(l) (twist_quadratic, joint_f_value)
    assert _builders(_builds_divisor_vector) == {("chain.py", "divisor_vector")}


def _record_fields(tree):
    """(record, field) per field of each named tuple a module defines: a
    ``NamedTuple`` class body or a ``namedtuple("Name", "f g")`` base."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            if getattr(base, "id", None) == "NamedTuple":
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        yield node.name, item.target.id
            elif isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                for field in base.args[1].value.replace(",", " ").split():
                    yield node.name, field


def test_every_record_field_is_read_by_name():
    fields, reads = set(), set()
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields.update(_record_fields(tree))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert {(record, field) for record, field in fields if field not in reads} == set()
    assert len(fields) == 30  # the scan sees every record


# where chain.py and lattice.py may build a Fraction: the matrix-pairing
# references, the sum_sq and delta views, and _correction's error message
FRACTION_BUILDERS = {
    ("chain.py", "intersect"), ("lattice.py", "f_twist"),
    ("lattice.py", "joint_f_value"), ("lattice.py", "RoundedPoint.sum_sq"),
    ("lattice.py", "CorrectionResult.delta"), ("lattice.py", "_correction: raise"),
}


def _fraction_sites(tree):
    """(owner, node) per load of Fraction (a name or an attribute) outside
    an annotation; the owner is the dotted path of functions, classes and
    class attributes, with ": raise" added inside a raise statement."""
    sites = []

    def visit(node, owner, in_raise, in_class_body):
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        name = node.name if isinstance(node, scopes) else None
        if in_class_body and isinstance(node, ast.Assign):
            name = getattr(node.targets[0], "id", None)
        if name:
            owner = f"{owner}.{name}" if owner else name
        in_raise = in_raise or isinstance(node, ast.Raise)
        if "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None)) \
                and isinstance(node.ctx, ast.Load):
            sites.append((owner + (": raise" if in_raise else ""), node))
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            body = isinstance(node, ast.ClassDef) and field == "body"
            for sub in child if isinstance(child, list) else [child]:
                if isinstance(sub, ast.AST):
                    visit(sub, owner, in_raise, body)

    visit(tree, "", False, False)
    return sites


def test_chain_and_lattice_build_a_fraction_only_in_the_references():
    found = set()
    for name in ("chain.py", "lattice.py"):
        tree = ast.parse((ROOT / "src" / "maroni" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):  # no alias hides a Fraction
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                assert all(a.asname is None for a in node.names), name
        for owner, node in _fraction_sites(tree):
            assert owner, f"{name}:{node.lineno} uses Fraction at module level"
            found.add((name, owner))
    assert found == FRACTION_BUILDERS


def test_each_correction_builds_standard_a_once(monkeypatch):
    calls = []
    a_standard = lattice.a_standard

    def counted(bt):
        calls.append(bt)
        return a_standard(bt)

    monkeypatch.setattr(lattice, "a_standard", counted)
    for d in range(3, 6):
        for k in (1, 2):
            for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k)):
                pairs = [(lattice.correction_n, lattice.single_round)]
                if bt.mu.has_unit_part:
                    pairs.append((lattice.correction_ln, lattice.joint_round))
                for correction, rounding in pairs:
                    calls.clear()
                    correction(bt)
                    assert len(calls) == 1
                    rounding(bt, explore_ties=True)  # the tie search builds no A
                    assert len(calls) == 1


def _small_types():
    for d in range(3, 6):
        for k in (1, 2):
            yield from enumerate_boundary_types(HurwitzParams(d, (d - 1) * k))


def test_reference_pairings_stay_exact_on_integers():
    for bt in _small_types():
        nvec, xvec = list(range(1 - bt.m, 1)), list(range(bt.m))
        std = chain.a_standard(bt)
        n_int, a_int = [*nvec, 0], chain.divisor_vector(std.alpha)
        n_div, a_div = fibral(bt.m, n_int), standard_divisor(std)
        divisors = [n_div, a_div, add(n_div, a_div), n_div - a_div,
                    n_div.scaled(-1), n_div.scaled(2), full_fibre(bt.m),
                    component(bt.m, 0)]
        assert all(type(c) is Fraction for div in divisors for c in div.coeffs)
        values = [chain.intersect(n_int, a_int), chain.intersect(a_int, a_int),
                  chain.intersect(n_div.coeffs, a_div.coeffs), theta_dot(a_div),
                  lattice.f_twist(bt, n_int)]
        if bt.mu.has_unit_part:
            values.append(lattice.joint_f_value(bt, nvec, xvec))
        if bt.d == 3 and bt.mu.parts == (1, 1, 1):
            values.append(nodal.nodal_f1(bt, (1, 0, 2, 1)))
        assert all(type(v) is Fraction for v in values)


def test_tie_check_builds_no_second_correction(monkeypatch):
    calls = {name: [] for name in ("correction_n", "correction_ln",
                                   "single_round", "joint_round")}

    def counted(name):
        original = getattr(lattice, name)

        def wrapper(bt, **kwargs):
            calls[name].append((bt, kwargs.get("explore_ties", False)))
            return original(bt, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lattice, name, counted(name))
    results = verify.run_identity_suite(max_d=4, max_g=6, explore_ties=True)
    assert all(res.ok for res in results)
    types = [bt for params in verify._params_range(4, 6)
             for bt in enumerate_boundary_types(params)]
    applicable = [bt for bt in types if bt.mu.has_unit_part]
    assert (len(types), len(applicable)) == (57, 35)
    assert [bt for bt, _ in calls["correction_n"]] == types
    assert [bt for bt, _ in calls["correction_ln"]
            if bt.mu.has_unit_part] == applicable
    # the tie check itself still runs the tie search, once per twist
    assert [bt for bt, ties in calls["single_round"] if ties] == types
    assert [bt for bt, ties in calls["joint_round"] if ties] == applicable


def test_verify_all_derives_the_joint_numerators_once_per_joint_rounding(
        monkeypatch):
    # the joint corrections and oracles take the branch numerators X_i from
    # bt.chain_nums(bt.l); only joint_round builds N_i (1074 _joint_nums
    # calls for 810 roundings when they took X_i from a second _joint_nums)
    calls = collections.Counter()

    def counted(name):
        original = getattr(lattice, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("_joint_nums", "joint_round"):
        monkeypatch.setattr(lattice, name, counted(name))
    test_benchmark_command_prints_its_golden_output("verify_all")
    assert calls["_joint_nums"] == calls["joint_round"] > 0


def test_verify_all_builds_one_a_per_correction_and_one_lcm_per_partition(
        monkeypatch):
    # counts, not timings, on the benchmark's verify arguments: one A per
    # correction a check reads, 288 + 190 in the identity suite, 49 for
    # table1 and 110 + 74 in the lattice suite (1183 when verify built its
    # own copies); one lcm per Partition object (13 244 when bt.m took one)
    a_calls, lcm_calls, partitions = [], [], []
    a_standard, lcm = lattice.a_standard, combinatorics.lcm
    new = combinatorics.Partition.__new__

    def counted_new(cls, parts):
        partitions.append(parts)
        return new(cls, parts)

    monkeypatch.setattr(lattice, "a_standard",
                        lambda bt: a_calls.append(bt) or a_standard(bt))
    monkeypatch.setattr(combinatorics, "lcm",
                        lambda *parts: lcm_calls.append(parts) or lcm(*parts))
    monkeypatch.setattr(combinatorics.Partition, "__new__", counted_new)
    test_benchmark_command_prints_its_golden_output("verify_all")
    assert len(a_calls) <= 288 + 190 + 49 + 110 + 74
    assert 0 < len(lcm_calls) <= len(partitions)


def test_lattice_suite_rounds_and_builds_a_once_per_twist_and_type(monkeypatch):
    counts = {name: collections.Counter()
              for name in ("single_round", "joint_round", "a_standard")}

    def counted(name):
        original, counter = getattr(lattice, name), counts[name]

        def wrapper(bt, *args):
            if not any(args):  # the default point, not the tie search
                counter[bt] += 1
            return original(bt, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(lattice, name, counted(name))
    assert all(res.ok for res in verify.run_lattice_suite(max_d=5, radius=3))
    types = [bt for d in range(3, 6) for k in verify.LATTICE_KS
             for bt in enumerate_boundary_types(HurwitzParams(d, (d - 1) * k))
             if bt.m <= verify.LATTICE_MAX_LCM]
    assert len(types) == 110  # verify_all's single-twist case count
    # joint_round runs only where the joint twist applies (a part equal to 1)
    applicable = [bt for bt in types if bt.mu.has_unit_part]
    assert counts["single_round"] == collections.Counter(types)
    assert counts["joint_round"] == collections.Counter(applicable)
    assert counts["a_standard"] == collections.Counter(types + applicable)


# sha256 of the concatenated `classes --format csv` output, d = 3..8 and
# k = 1, 2 in that order (812 rows per variant, 558 for corr2)
CLASSES_SHA256 = {
    "st": "c268d73a09e8b04567e9ccaac2b1665732926822fbccf88291b33e7d0136972e",
    "corr1": "76e6d634e98a05779902f0ed3c8b907592e970c72c601c333b1fb60f2ec0f352",
    "corr2": "939a0dd3e0fbda99c62ac11f0405616310b22fca74a4823963f6dfd363cacb2b",
    "min": "a76f6e2d650efae30a13a4d7de12d8844f9402b1f09a606d176b2d2f09117e30",
}


@pytest.mark.parametrize("variant", sorted(CLASSES_SHA256))
def test_classes_bytes_of_every_variant_are_pinned(variant):
    digest = hashlib.sha256()
    for d in range(3, 9):
        for k in (1, 2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["classes", "--d", str(d), "--g", str((d - 1) * k),
                             "--variant", variant, "--format", "csv"])
            assert code == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == CLASSES_SHA256[variant]


# sha256 of the concatenated `classes` output in the two collecting formats,
# (d, g) = (4, 3) then (5, 8); computed before the rows were streamed
CLASSES_TABLE_JSON_SHA256 = {
    ("corr1", "json"): "adf92f2d7016e7c2516b3caa8814ed4c548397f2e86ab90643145255705eda5a",
    ("corr1", "table"): "d558305ebcb0bfcc8967a3e09208f033a8f78108c39dc2193bee53a5c187b18b",
    ("corr2", "json"): "0321ae198a3dc50397c2910613d2bafdb6a1ab751be58701eb55e073ddc68383",
    ("corr2", "table"): "fcbc1cc9ee93b84dbe8f18d79e0196db65cd932b27562855558da10b74340991",
    ("min", "json"): "d1eeb4329ef3c5e8eb243c22b742b2827989bf6fea43eed8244e57931ebeb0df",
    ("min", "table"): "a6c38270862de62105516b7dbe2a0eed5ea65073b56c2240ed69c6a7c0cf93c2",
    ("st", "json"): "bee4809fa4de7b2df4faac86f705f3f7f82a152e72b1c321e8fab0fe0b6a4bc7",
    ("st", "table"): "7c9f52df59a738a2b7eeda0bfd68ee22dd0b562a341d8cb7fd117ae1e29f5d9a",
}


@pytest.mark.parametrize("variant, fmt", sorted(CLASSES_TABLE_JSON_SHA256))
def test_classes_table_and_json_bytes_are_pinned(variant, fmt):
    digest = hashlib.sha256()
    for d, g in ((4, 3), (5, 8)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classes", "--d", str(d), "--g", str(g),
                         "--variant", variant, "--format", fmt])
        assert code == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == CLASSES_TABLE_JSON_SHA256[variant, fmt]


def test_package_is_stdlib_only():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
    sources = sorted((ROOT / "src" / "maroni").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "maroni", (
                    f"{path.name} imports {name}"
                )


# every function that takes explore_ties: verify's tie check and the
# roundings it calls; the corrections and the formulas take the default point
TIE_SEARCH_PATH = {"run_suites", "run_identity_suite", "single_round",
                   "joint_round", "round_chain"}


def test_tie_search_is_a_parameter_only_of_its_one_path():
    owners = set()
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)]
                if "explore_ties" in names:
                    owners.add(node.name)
    assert owners == TIE_SEARCH_PATH


# the functions that read published-table rows, by source file: the table
# commands, their verify checks and the two loops they share
ROW_READERS = {
    "cli.py": {"_emit_checks", "cmd_table1", "cmd_table2", "cmd_patel"},
    "verify.py": {"_tally", "run_table1_check", "run_table2_check",
                  "run_patel_check"},
}
STATUSES = {"PASS", "FAIL", "SKIP"}


def _is_status(node):
    return isinstance(node, ast.Constant) and node.value in STATUSES


def test_table_verdicts_are_decided_only_by_the_row_builder():
    builders, readers = set(), set()
    for path in sorted((ROOT / "src" / "maroni").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and "CheckRow" in (
                        getattr(sub.func, "id", None),
                        getattr(sub.func, "attr", None)):
                    builders.add(node.name)
            if node.name not in ROW_READERS.get(path.name, ()):
                continue
            readers.add(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Compare) and any(
                        isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops):
                    operands = [sub.left, *sub.comparators]
                    assert any(map(_is_status, operands)), (
                        f"{node.name} compares {ast.unparse(sub)}")
    assert builders == {"check_row"}
    assert readers == set().union(*ROW_READERS.values())


def test_package_init_is_its_docstring_only():
    tree = ast.parse((ROOT / "src" / "maroni" / "__init__.py").read_text(
        encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1  # no import, assignment or definition


def test_every_traced_name_resolves_on_its_module():
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    for table in (tracer["SPANNED"], tracer["COUNTED"]):
        for module, names in table.items():
            owner = importlib.import_module(f"maroni.{module}")
            for name in names:
                assert callable(getattr(owner, name, None)), (module, name)
    for name in ("round_chain", "joint_round"):
        second = list(inspect.signature(getattr(lattice, name)).parameters.values())[1]
        assert (second.name, second.kind) == (
            "explore_ties", inspect.Parameter.POSITIONAL_OR_KEYWORD), name
    # the traced child reports the hits and misses of the gcd_profile cache,
    # which every new Partition looks up once
    before = combinatorics.gcd_profile.cache_info()
    combinatorics.Partition((2, 1))
    after = combinatorics.gcd_profile.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_verify_options_are_pinned_and_take_no_radius(capsys):
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {opt for action in sub.choices["verify"]._actions
               for opt in action.option_strings}
    assert options == {"-h", "--help", "--suite", "--max-d", "--max-g",
                       "--tie-exhaustive"}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--radius", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: maroni")
    assert err.endswith("error: unrecognized arguments: --radius 3\n")
    assert "Traceback" not in err
