"""Benchmark harness for the maroni CLI.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --write-golden

Each workload (``workloads.py``) is one fixed ``maroni`` command.  Every
measurement runs it in a fresh, single-threaded child process
(``child.py``), because a user pays cold caches on every invocation; the
children run one at a time (a closed loop with one client), pinned to the
allowed CPUs in turn (see ``measure``).  A run keeps
launching children while the next one still fits in ``--seconds`` and
reports means over them (see ``end_to_end``).  Every child's output is
scored against the golden copy in ``golden/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: wall_s
(the ``cli.main`` call), cpu_s (user+sys over the same call), setup_s
(launch to parser built; a few extra set-up-only children add samples)
and peak_rss_mb.  fail_frac (failed over attempted operations) is printed
with them; the final JSON carries it as ``failed``/``attempted``.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of BENCHMARK.json from the traced ones (see
``tracer.py``), plus the tracing overhead.  It also checks that traced
output is byte-identical to untraced output and that the layers predicted
idle on a workload are idle.

The inputs are fixed, so ``--seed`` only permutes the order of runs (where
the set-up-only children fall, which child of a traced pair goes first)
and, for ``all``, the order of workloads.  The seed and the launch order
are in the record written to ``perfbench/out/``.  The last line on stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import tracer
from workloads import (CHECK_SLUGS, GOLDEN_DIR, WORKLOADS, items, parse_checks,
                       score)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 5  # extra set-up-only children per untraced run
RUN_LIMIT_S = 170  # a whole run must end within 180 s
CHILD_LIMIT_S = 150  # no single child may run longer than this

IDLE_ON_CLASSES = (
    "chain.a_standard.calls",
    "lattice.verify_integer_max.calls",
    "lattice.verify_joint_max.calls",
    "lattice.verify_trigonal_nodal_max.calls",
    "lattice.nodal_f1.calls",
)
TIE_MODE = ("lattice.round_chain.tie_mode_calls",
            "lattice.joint_round.tie_mode_calls")


class ChildFailed(RuntimeError):
    pass


def launch(mode: str, argv, timeout: float, cpu: int | None = None) -> dict:
    """Run one child, pinned to ``cpu`` if given; its report, with setup_s."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, "--", *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
            preexec_fn=None if cpu is None else (
                lambda: os.sched_setaffinity(0, {cpu})),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["mode"] = mode
    report["cpu"] = cpu
    report["setup_s"] = report.pop("ready") - start
    return report


def measure(workload, seconds: float, seed: int, trace: bool) -> list[dict]:
    """Launch children for about ``seconds`` and return their reports.

    A unit is one plain child (untraced runs) or one untraced/traced pair
    (traced runs).  Units start while the longest one so far still fits;
    there is always at least one.  Successive children are pinned to the
    allowed CPUs in turn, so that a run samples every CPU about equally;
    on a shared host this made runs repeat more closely (README, Noise).
    """
    rng = random.Random(seed)
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    start = time.monotonic()
    deadline = start + seconds
    reports: list[dict] = []

    def remaining() -> float:
        return min(CHILD_LIMIT_S, RUN_LIMIT_S - (time.monotonic() - start))

    def unit_modes() -> list[str]:
        return rng.sample(["plain", "traced"], 2) if trace else ["plain"]

    probes_first = 0 if trace else rng.randint(0, SETUP_PROBES)
    probes_last = 0 if trace else SETUP_PROBES - probes_first
    for _ in range(probes_first):
        reports.append(launch("setup", workload.argv, remaining(), next(cpus)))
    longest = 0.0
    while True:
        unit_start = time.monotonic()
        for mode in unit_modes():
            reports.append(launch(mode, workload.argv, remaining(), next(cpus)))
        longest = max(longest, time.monotonic() - unit_start)
        if time.monotonic() + longest > deadline - 0.25 * probes_last:
            break
    for _ in range(probes_last):
        reports.append(launch("setup", workload.argv, remaining(), next(cpus)))
    return reports


def end_to_end(reports) -> dict:
    """Means over the run's full children; the median over all set-ups.

    On a shared host a child runs at one of two speeds, switching every
    10-30 s.  A run's median jumps between them as their mix crosses one
    half, while the mean moves in proportion to the mix, so the mean
    repeats more closely from run to run.  Set-up samples are many and
    short, and the first child of a fresh checkout compiles bytecode, so
    set-up uses the median.
    """
    plain = [r for r in reports if r["mode"] == "plain"]
    return {
        "wall_s": statistics.mean(r["wall_s"] for r in plain),
        "cpu_s": statistics.mean(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.mean(r["rss_kb"] * 1024 / 1e6
                                       for r in plain),
    }


def per_layer(report: dict, names, untraced_wall: float) -> dict:
    """Every named per-layer metric from one traced child's report."""
    agg = tracer.aggregate(report["spans"])
    fns, layers, counts = agg["functions"], agg["layers"], report["counts"]
    traced_wall = report["wall_s"]
    hits, misses = report["gcd_profile"]
    cases = {f"verify.{CHECK_SLUGS.get(check, check)}.cases": n
             for check, (_, n) in parse_checks(report["stdout"]).items()}
    a_calls = fns.get("chain.a_standard", {}).get("calls", 0)
    types = counts.get("combinatorics.enumerate_boundary_types.types", 0)
    special = {
        "chain.a_standard.calls_per_type": a_calls / types if types else 0.0,
        "combinatorics.gcd_profile.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "combinatorics.gcd_profile.lookups": hits + misses,
        "cli.render_s": fns.get("cli.cmd_classes", {}).get("self_s", 0.0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.spans": len(report["spans"]),
    }
    out = {}
    for name in names:
        func, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in counts:
            out[name] = counts[name]
        elif name.startswith("verify.") and field == "cases":
            out[name] = cases.get(name, 0)
        elif field == "self_frac":
            out[name] = layers[func] / traced_wall
        elif field in ("calls", "busy_s", "self_s"):
            out[name] = fns.get(func, {}).get(field, 0)
        elif field in ("p50_us", "p99_us"):
            q = 0.5 if field == "p50_us" else 0.99
            durations = fns.get(func, {}).get("durations", [])
            out[name] = tracer.percentile(durations, q) * 1e6
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def idle_violations(workload, values: dict) -> list[str]:
    """The layers predicted idle on this workload that were not."""
    out = []
    if workload.kind == "classes":
        out += [f"{name} = {values[name]}, predicted 0"
                for name in IDLE_ON_CLASSES if values[name]]
    ties = sum(values[name] for name in TIE_MODE)
    if workload.name == "classes_min" and ties:
        out.append(f"{ties} tie-search rounding calls, predicted 0")
    if workload.name == "verify_all" and not ties:
        out.append("no tie-search rounding call, predicted some")
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    golden = workload.golden()
    reports = measure(workload, seconds, seed, trace)
    full = [r for r in reports if r["mode"] != "setup"]
    attempted = failed = 0
    for r in full:
        a, f = score(workload.kind, golden, r["stdout"], r["exit"])
        r["attempted"], r["failed"] = a, f
        attempted, failed = attempted + a, failed + f
    problems = []
    if trace:
        plain = [r for r in full if r["mode"] == "plain"]
        traced = [r for r in full if r["mode"] == "traced"]
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        names = [m["name"] for m in spec["per_layer"]]
        each = [per_layer(r, names, untraced_wall) for r in traced]
        # median_low keeps counts integral: it returns one child's value
        metrics = {n: statistics.median_low(v[n] for v in each)
                   for n in names}
        if any(r["stdout"] != plain[0]["stdout"] for r in traced):
            problems.append("traced stdout differs from untraced stdout")
        problems += idle_violations(workload, metrics)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(reports)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": workload.name,
        "argv": list(workload.argv),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "order": [r["mode"] for r in reports],
        "items": items(workload.kind, full[0]["stdout"]),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
        "children": reports,
    }


def summarize(res: dict) -> None:
    runs = sum(1 for m in res["order"] if m != "setup")
    print(f"workload {res['workload']}: maroni {' '.join(res['argv'])}")
    print(f"  seed {res['seed']}, {runs} full runs, launch order "
          f"{','.join(res['order'])}; {res['items']} items per run")
    for name, metric in res["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_frac':48s} {frac:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")


def write_record(res: dict) -> None:
    """Keep every child's figures (and the traced spans) for inspection."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json")
    children = [{k: v for k, v in r.items() if k != "stdout"}
                for r in res["children"]]
    record = dict(res, children=children, python=sys.version.split()[0],
                  nproc=os.cpu_count())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def write_golden() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        report = launch("plain", workload.argv, CHILD_LIMIT_S)
        if report["exit"] != 0:
            raise ChildFailed(f"{workload.name} exited with {report['exit']}")
        with open(workload.golden_path, "w", encoding="utf-8") as fh:
            fh.write(report["stdout"])
        print(f"wrote {workload.golden_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="overwrite golden/ with this checkout's output")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "maroni", "cli.py")):
        print(f"error: no maroni sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    results = []
    for name in names:
        try:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), spec)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        write_record(res)
        summarize(res)
        results.append(res)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"]
                       for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{n}" if prefix else n): m
                    for r in results for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
