"""Span tracing around calls into the package's layers, from outside ``src/``.

Each traced function is replaced, in every ``graphlim`` module namespace
that holds a reference to it, by a wrapper that records one span: name,
start, end and parent span.  The parent is the innermost open span of the
calling thread; work that ``experiments._map_reps`` hands to pool workers is
attributed to the ``_map_reps`` span that submitted it.  A layer's self time
is its span durations minus the union of its child spans' intervals.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# metric name -> (module, attribute)
LAYERS = {
    "combinat.is_indecomposable": ("combinat", "is_indecomposable"),
    "combinat.sample_matching": ("combinat", "sample_matching"),
    "combinat.xyz_stats": ("combinat", "xyz_stats"),
    "combinat.sample_permutation": ("combinat", "sample_permutation"),
    "combinat.sample_irreducible_dyck": ("combinat", "sample_irreducible_dyck"),
    "combinat.sample_dyck": ("combinat", "sample_dyck"),
    "combinat.heights_arrays": ("combinat", "_heights_arrays"),
    "graphs.clique_count_circle": ("graphs", "clique_count_circle"),
    "graphs.clique_count_inversion": ("graphs", "clique_count_inversion"),
    "graphs.inversion_graph": ("graphs", "inversion_graph"),
    "graphs.circle_graph": ("graphs", "circle_graph"),
    "graphs.canonical_form": ("graphs", "canonical_form"),
    "graphs.is_split_prime": ("graphs", "is_split_prime"),
    "graphs.jump_walk": ("graphs", "_distances_from"),
    "graphs.all_pairs_distances": ("graphs", "all_pairs_distances"),
    "graphon.step_graphon": ("graphon", "step_graphon"),
    "graphon.clique_density": ("graphon", "clique_density"),
    "mmspace.gp_box_estimate_unit": ("mmspace", "gp_box_estimate_unit"),
    "mmspace.sample_excursion": ("mmspace", "sample_excursion"),
    "mmspace.excursion_distance": ("mmspace", "excursion_distance"),
    "mmspace.excursion_integral": ("mmspace", "excursion_integral"),
    "experiments.uig_blocks": ("experiments", "_sample_uig_blocks"),
    "experiments.matchings_batch": ("experiments", "_sample_matchings_batch"),
    "experiments.xyz_batch": ("experiments", "_xyz_batch"),
    "experiments.map_reps": ("experiments", "_map_reps"),
    "experiments.mc_indecomposable_rate": ("experiments", "mc_indecomposable_rate"),
    "experiments.mc_clique_density": ("experiments", "mc_clique_density"),
    "experiments.heatmap_experiment": ("experiments", "heatmap_experiment"),
    "experiments.exact_enumeration_suite": ("experiments", "exact_enumeration_suite"),
    "experiments.verify_gp": ("experiments", "verify_gp"),
    "experiments.mc_unit_clique_scaling": ("experiments", "mc_unit_clique_scaling"),
    "experiments.largest_component_stats": ("experiments", "largest_component_stats"),
    "experiments.verify_distance_formula": ("experiments", "verify_distance_formula"),
    "experiments.mc_poisson_xyz": ("experiments", "mc_poisson_xyz"),
    "cli.main": ("cli", "main"),
}

MODULES = ("combinat", "graphs", "graphon", "mmspace", "experiments", "cli")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds inside _map_reps
    threads: int = 1  # _map_reps worker count
    arg: object = None  # the matching passed to is_indecomposable


class Tracer:
    """Spans kept in memory, keyed by id; safe to record from pool workers."""

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> tuple[int, Span]:
        stack = self._stack()
        sid = next(self._ids)
        span = Span(name, stack[-1] if stack else None, 0.0)
        self.spans[sid] = span
        stack.append(sid)
        return sid, span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, span = self._open(name)
            if name == "combinat.is_indecomposable":
                span.arg = args[0]
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack().pop()

        return traced

    def wrap_map_reps(self, fn):
        """_map_reps(fn, master, reps, threads): also hand the span to workers."""

        def traced(rep_fn, master, reps, threads):
            sid, span = self._open("experiments.map_reps")

            def adopted(i, rng):
                saved = self._stack()
                self._local.stack = [sid]
                try:
                    return rep_fn(i, rng)
                finally:
                    self._local.stack = saved

            span.threads = threads
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                return fn(adopted, master, reps, threads)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                self._stack().pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every graphlim namespace that refers to a traced function."""
        mods = {m: importlib.import_module(f"graphlim.{m}") for m in MODULES}
        patched = []
        for name, (mod_name, attr) in LAYERS.items():
            orig = getattr(mods[mod_name], attr)
            wrapper = self.wrap_map_reps(orig) if name == "experiments.map_reps" else self.wrap(name, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, orig))
        try:
            yield self
        finally:
            for mod, key, orig in reversed(patched):
                setattr(mod, key, orig)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls and self seconds (duration minus child union)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans.values():
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, span in self.spans.items():
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(sid, ())]
            )
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += max(0.0, (span.end - span.start) - covered)
        return dict(out)

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans.values() if s.name == name]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total
