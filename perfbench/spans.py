"""Spans around the public calls into each skewrook module, for the traced
run only.

`install` swaps every public function of the five computing modules for a
wrapper, in every skewrook module namespace that binds it, so calls between
modules are seen too.  Three methods are wrapped on their classes: the
pattern scans of Permutation, Board.intersect, and LaurentPoly.__mul__.
Multiplication runs millions of times, so it is counted and timed in two
accumulators and records no span.  A call re-entering a function that is
already open (the memoised recurrences) folds into the open span.

Spans are kept in memory as (name, parent, query, start, end) and written
out by the worker when the pass ends.  Each query's spans hang under a root
span that carries the query index.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from math import factorial

LAYERS = ("qalgebra", "permutations", "boards", "rooks", "intervals")
HULLS = ("boards.right_hull", "boards.left_hull", "boards.intersect", "boards.Board.intersect")
INTERVAL_SCANS = ("permutations.bruhat_interval", "permutations.poincare_brute", "permutations.eulerian_gf")
PATTERN_SCANS = ("permutations.Permutation.find_forbidden", "permutations.Permutation.contains_pattern")
ROOK_ENTRIES = ("rooks.q_rook_number", "rooks.rook_number", "rooks.full_placement_q_poly")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.stack: list[int] = []
        self.open: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)
        self.boards: set = set()
        self.caches: list = []
        self.query = -1

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append((name, parent, self.query, time.perf_counter(), 0.0))
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def _exit(self, idx: int) -> float:
        end = time.perf_counter()
        name, parent, query, start, _ = self.spans[idx]
        self.spans[idx] = (name, parent, query, start, end)
        self.stack.pop()
        self.open[name] -= 1
        return end - start

    def root(self, name: str, query: int, fn, *args):
        """Run fn(*args) as query `query` under a root span."""
        self.query = query
        idx = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per step, so consumer time between steps is not charged
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open[name]:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if name in ROOK_ENTRIES:
                tracer.boards.add(args[0])
            elif name in INTERVAL_SCANS:
                tracer.counts["perms_scanned"] += factorial(len(args[0]))
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer._exit(idx)
            if name in PATTERN_SCANS and result not in (None, False):
                tracer.times["refusal_scan"] += dt
            return result

        return wrapper

    def wrap_mul(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def mul(a, b):
            t0 = clock()
            out = fn(a, b)
            tracer.times["poly_mul"] += clock() - t0
            tracer.counts["poly_mul"] += 1
            return out

        return mul

    # -- summaries ---------------------------------------------------------------

    def inclusive(self, names) -> float:
        """Time in spans named in `names`, not counting a span twice when it
        runs inside another of them."""
        names = set(names)
        total = 0.0
        for name, parent, _, start, end in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][1]
            if p < 0:
                total += end - start
        return total

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        hits = sum(c.cache_info().hits for c in self.caches)
        lookups = hits + sum(c.cache_info().misses for c in self.caches)
        metrics = {
            "qalgebra.poly_mul_calls": self.counts["poly_mul"],
            "qalgebra.poly_mul_s": self.times["poly_mul"],
            "qalgebra.q_stirling_s": self.inclusive(["qalgebra.q_stirling"]),
            "qalgebra.q_factorial_s": self.inclusive(["qalgebra.q_factorial"]),
            "qalgebra.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "permutations.pattern_scans": sum(self.counts[n] for n in PATTERN_SCANS),
            "permutations.pattern_scan_s": self.inclusive(PATTERN_SCANS),
            "permutations.refusal_scan_s": self.times["refusal_scan"],
            "permutations.interval_scan_s": self.inclusive(INTERVAL_SCANS),
            "permutations.perms_scanned": self.counts["perms_scanned"],
            "boards.hull_s": self.inclusive(HULLS),
            "boards.cells": (
                sum(b.count_ones() for b in self.boards) / len(self.boards) if self.boards else 0.0
            ),
            "boards.enumerate_s": self.inclusive(["boards.enumerate_rook_configs"]),
            "rooks.q_rook_number_calls": self.counts["rooks.q_rook_number"],
            "rooks.q_rook_number_s": self.inclusive(["rooks.q_rook_number"]),
            "rooks.rook_number_s": self.inclusive(["rooks.rook_number"]),
            "rooks.full_placement_s": self.inclusive(["rooks.full_placement_q_poly"]),
            "rooks.brute_s": self.inclusive(["rooks.q_rook_number_brute", "rooks.inv_stat"]),
            "intervals.poincare_via_rook_self_s": own["intervals.poincare_via_rook"],
            "intervals.theoremA_self_s": own["intervals.theoremA_poincare"],
            "intervals.theoremB_self_s": own["intervals.theoremB_poincare"],
            "intervals.count_dp_s": self.inclusive(["intervals.count_lower_interval_dp"]),
        }
        for layer in LAYERS + ("verify",):
            metrics[f"{layer}.self_s"] = sum(
                t for name, t in own.items() if name.split(".", 1)[0] == layer
            )
        for suite in ("stirling", "rook", "intervals", "typeB"):
            metrics[f"verify.{suite}_s"] = self.inclusive([f"verify.{suite}"])
        return metrics


def install(tracer: Tracer, sk) -> None:
    """Wrap the public calls of the five computing modules (see module doc)."""
    mods = {m: importlib.import_module(f"skewrook.{m}") for m in LAYERS + ("verify", "cli")}
    wrapped = {}
    for layer in LAYERS:
        for attr in mods[layer].__all__:
            fn = getattr(mods[layer], attr)
            if callable(fn) and not inspect.isclass(fn):
                wrapped[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for mod in [*mods.values(), sk]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    perm, board, poly = sk.Permutation, sk.Board, sk.LaurentPoly
    for method in ("find_forbidden", "contains_pattern"):
        setattr(perm, method, tracer.wrap(f"permutations.Permutation.{method}", getattr(perm, method)))
    board.intersect = tracer.wrap("boards.Board.intersect", board.intersect)
    poly.__mul__ = poly.__rmul__ = tracer.wrap_mul(poly.__mul__)
    tracer.caches = [
        getattr(mods["qalgebra"], name).__wrapped__ for name in ("q_stirling", "q_factorial", "stirling2")
    ]
