"""Spans around the public functions of each ``alteration_lab`` module.

``Tracer.prepare`` wraps each traced function once and finds every module
binding where it is looked up (``from .copies import enumerate_copies``
copies the name into ``experiments``, ``alteration``, ``games`` and
``cli``), and the class for methods.  ``Tracer.active`` puts the wrappers
in place for the length of one op and the originals back afterwards, so
the output checks between ops run untraced.  Spans are
kept in memory as parallel lists with parent ids and written out once at
the end; counts read from return values are kept beside them.

A layer's self time is the sum of its spans' durations minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _len_result(counts, args, kwargs, result):
    counts["copies.enumerate_copies.copies_found"] += len(result)


def _bool_result(counts, args, kwargs, result):
    counts["copies.has_copy_through_edge.true"] += bool(result)


def _clique_result(counts, args, kwargs, result):
    budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
    counts["cliques.max_clique.expansions"] += result.expansions
    counts["cliques.max_clique.budget_exhausted"] += (
        budget is not None and result.expansions > budget
    )


def _greedy_result(counts, args, kwargs, result):
    counts["alteration.greedy_alteration.rejected"] += len(result.removed)
    counts["alteration.greedy_alteration.scanned"] += result.input_graph.num_edges


def _write_result(counts, args, kwargs, result):
    out = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else None))
    counts["experiments.write_result.bytes"] += sum(
        f.stat().st_size for f in out.iterdir() if f.is_file()
    )


# (span name, module, attribute path, hook on the return value)
TARGETS = (
    ("copies.enumerate_copies", "copies", "enumerate_copies", _len_result),
    ("copies.CopyIndex.init", "copies", "CopyIndex.__init__", None),
    ("copies.k_set_stats", "copies", "k_set_stats", None),
    ("copies.packing_report", "copies", "packing_report", None),
    ("copies.has_copy_through_edge", "copies", "has_copy_through_edge", _bool_result),
    ("graphs.Graph.init", "graphs", "Graph.__init__", None),
    ("graphs.Graph.edges_inside", "graphs", "Graph.edges_inside", None),
    ("graphs.Graph.without_edges", "graphs", "Graph.without_edges", None),
    ("games.RpsState.is_legal", "games", "RpsState.is_legal", None),
    ("games.run_rps", "games", "run_rps", None),
    ("games.coupled_rps_check", "games", "coupled_rps_check", None),
    ("games.run_online_ramsey", "games", "run_online_ramsey", None),
    ("randomness.RandomSource.stream", "randomness", "RandomSource.stream", None),
    ("randomness.sample_gnp", "randomness", "sample_gnp", None),
    ("randomness.sample_uniform_hypergraph", "randomness", "sample_uniform_hypergraph", None),
    ("randomness.EdgeLabelTable.label", "randomness", "EdgeLabelTable.label", None),
    ("randomness.EdgeLabelTable.threshold_graph", "randomness", "EdgeLabelTable.threshold_graph", None),
    ("cliques.max_clique", "cliques", "max_clique", _clique_result),
    ("cliques.max_independent_set", "cliques", "max_independent_set", None),
    ("alteration.refined_alteration", "alteration", "refined_alteration", None),
    ("alteration.greedy_alteration", "alteration", "greedy_alteration", _greedy_result),
    ("alteration.disjoint_collection_alteration", "alteration", "disjoint_collection_alteration", None),
    ("alteration.independence_number", "alteration", "independence_number", None),
    ("alteration.ramsey_certificate", "alteration", "ramsey_certificate", None),
    ("density.density_report", "density", "density_report", None),
    ("density.minimal_balanced_core", "density", "minimal_balanced_core", None),
    ("experiments.derive_parameters", "experiments", "derive_parameters", None),
    ("experiments.run_concentration_experiment", "experiments", "run_concentration_experiment", None),
    ("experiments.run_game_experiment", "experiments", "run_game_experiment", None),
    ("experiments.run_tail_check", "experiments", "run_tail_check", None),
    ("experiments.write_result", "experiments", "write_result", _write_result),
)

# Counted, not timed: one call is one propose/decide turn.
TURN_COUNTER = ("games", "RpsState._apply")

PACKAGE = "alteration_lab"
_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- spans --------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------

    def _modules(self, extra):
        mods = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        return mods + list(extra)

    def bind(self, owner, attr: str, wrapped) -> None:
        """Put ``wrapped`` at ``owner.attr`` while the tracer is active."""
        self._bindings.append((owner, attr, vars(owner).get(attr, _MISSING), wrapped))

    def prepare(self, extra_modules=()) -> None:
        """Wrap every target; ``extra_modules`` also get their bindings replaced."""
        modules = self._modules(extra_modules)
        for name, module, path, hook in TARGETS:
            self._prepare_one(modules, module, path, self.wrap(name, self._lookup(module, path), hook))
        module, path = TURN_COUNTER
        self._prepare_one(modules, module, path, self.counter("games.turns", self._lookup(module, path)))

    def _lookup(self, module: str, path: str):
        owner = sys.modules[f"{PACKAGE}.{module}"]
        for part in path.split("."):
            owner = vars(owner)[part]
        return owner

    def _prepare_one(self, modules, module: str, path: str, wrapped) -> None:
        *classes, attr = path.split(".")
        original = wrapped.__wrapped__
        if classes:
            self.bind(self._lookup(module, ".".join(classes)), attr, wrapped)
            return
        for mod in modules:
            for key, value in vars(mod).items():
                if value is original:
                    self.bind(mod, key, wrapped)

    @contextmanager
    def active(self):
        """Traced bindings in place for the body, originals restored after."""
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._bindings):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        out: dict[str, float] = {}
        for name, value in zip(self.names, own.tolist()):
            out[name] = out.get(name, 0.0) + value
        return out

    def calls(self) -> Counter:
        return Counter(self.names)

    def write(self, path: Path) -> None:
        """Spans (name, parent, start, end) and counts as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "names": names,
            "span_name": [ids[n] for n in self.names],
            "parent": self.parents,
            "start_s": [round(t - t0, 7) for t in self.starts],
            "end_s": [round(t - t0, 7) for t in self.ends],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
