"""Spans and counters recorded from outside the maroni package.

A traced child process wraps the public functions of each maroni module
after import.  A spanned function records (name, start, end, parent) on
every call; the highest-frequency functions get a call counter only, so
tracing them does not swamp the run.  Spans stay in memory until the run
ends; ``aggregate`` then turns them into per-function call counts, busy
time, self time and latency percentiles.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

PACKAGE = "maroni"

# module -> functions timed with a span on every call
SPANNED = {
    "combinatorics": ("enumerate_boundary_types",),
    "chain": ("a_standard",),
    "lattice": (
        "round_chain", "joint_round",
        "correction_n", "correction_ln", "f_twist", "joint_f_value",
        "verify_integer_max", "verify_joint_max", "verify_trigonal_nodal_max",
    ),
    "formulas": ("build_table", "sigma_min", "sigma_st", "sigma_corr1",
                 "sigma_corr2"),
    "verify": ("run_identity_suite", "run_lattice_suite"),
    "cli": ("main", "cmd_classes"),
}

# module -> functions called too often for spans: counted only
COUNTED = {
    "chain": ("intersect",),
    "lattice": ("nodal_f1",),
}

# the layer each spanned function's self time is charged to; lattice is
# split by role
LAYER_OF = {
    "lattice.round_chain": "lattice.rounding",
    "lattice.joint_round": "lattice.rounding",
    "lattice.correction_n": "lattice.corrections",
    "lattice.correction_ln": "lattice.corrections",
    "lattice.f_twist": "lattice.corrections",
    "lattice.joint_f_value": "lattice.corrections",
    "lattice.verify_integer_max": "lattice.oracles",
    "lattice.verify_joint_max": "lattice.oracles",
    "lattice.verify_trigonal_nodal_max": "lattice.oracles",
}
LAYERS = ("combinatorics", "chain", "lattice.rounding", "lattice.corrections",
          "lattice.oracles", "formulas", "verify", "cli")


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def _tie_mode(args, kwargs) -> bool:
    """Whether a round_chain/joint_round call asks for the tie search."""
    if "explore_ties" in kwargs:
        return bool(kwargs["explore_ties"])
    return len(args) > 1 and bool(args[1])


class Tracer:
    """Collects spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack = [-1]

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] += 0  # report the count even when it stays 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sized(self, name: str, fn):
        """Count the items a function returns."""
        counts = self.counts
        counts[name] += 0  # report the count even when it stays 0

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += len(result)
            return result

        return wrapper

    def tie_counted(self, name: str, fn):
        """Count the calls that ask for the exhaustive tie search."""
        counts = self.counts
        counts[name] += 0  # report the count even when it stays 0

        def wrapper(*args, **kwargs):
            if _tie_mode(args, kwargs):
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded module binds it by name.

        ``lattice`` and ``verify`` import ``a_standard`` and ``intersect``
        from ``chain`` by name, so rebinding only the defining module would
        miss their calls; every module attribute that is the original
        function object is replaced.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == PACKAGE]
        for short, names in SPANNED.items():
            for attr in names:
                name = f"{short}.{attr}"
                orig = _lookup(short, attr)
                fn = self.spanned(name, orig)
                if attr in ("round_chain", "joint_round"):
                    fn = self.tie_counted(f"{name}.tie_mode_calls", fn)
                elif attr == "enumerate_boundary_types":
                    fn = self.sized(f"{name}.types", fn)
                _rebind(modules, orig, fn)
        for short, names in COUNTED.items():
            for attr in names:
                orig = _lookup(short, attr)
                _rebind(modules, orig,
                        self.counted(f"{short}.{attr}.calls", orig))


def _lookup(module: str, attr: str):
    return getattr(sys.modules[f"{PACKAGE}.{module}"], attr)


def _rebind(modules, orig, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate(spans) -> dict:
    """Per-name statistics of a list of (name, start, end, parent) spans.

    Spans nest (the run is one thread), so a span's children cover
    disjoint parts of it and its self time is its duration minus theirs.
    ``busy`` sums only the outermost spans of a name, so a function that
    reaches itself again is not counted twice.  Per layer, ``layers``
    sums the self time of every span charged to that layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        entry = stats.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[idx]
        entry["durations"].append(dur)
        if not _has_ancestor(spans, parent, name):
            entry["busy_s"] += dur
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + dur - child_time[idx]
    for entry in stats.values():
        entry["durations"].sort()
    return {"functions": stats, "layers": layers}


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
