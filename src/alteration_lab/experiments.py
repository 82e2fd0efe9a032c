"""Parameter derivation and seeded Monte Carlo experiment drivers.

Parameters follow the density-threshold scaling: with exponent m equal to
the (minimum) r-density of the forbidden pattern(s),

    n = floor(c * (k^(r-1) / log k) ** m)      (log is natural throughout)
    p = min(1, C * log k / k^(r-1))

Each trial owns an independent RNG substream addressed by its index, so
results are bit-identical regardless of worker count or scheduling; all
aggregation is order-independent.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .alteration import ramsey_certificate, refined_alteration, independence_number
from .cliques import CliqueSearch, complement_masks
from .copies import (
    PackingInfeasibleError,
    _conflicts,
    _k_members,
    _k_set_counts,
    _validate_k,
    enumerate_copies,
    global_copy_stats,
)
from .density import density_report, minimal_balanced_core
from .games import (
    PumpBuilder,
    RandomBuilder,
    RandomDecider,
    RandomLegalProposer,
    DenseFirstProposer,
    ThresholdPainter,
    builder_final_graphs,
    rps_final_graph,
    run_online_ramsey,
    run_rps,
)
from .graphs import Graph, UniformHypergraph, complete_graph, complete_multipartite
from .randomness import (
    RandomSource,
    clamp_probability,
    sample_gnp,
    sample_uniform_hypergraph,
)

Pattern = Graph | UniformHypergraph


class InfeasibleError(RuntimeError):
    """Requested sizes exceed what exact desk-scale computation supports."""


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


@dataclass(frozen=True)
class ExperimentParams:
    """Derived experiment operating point plus bookkeeping inputs."""

    k: int
    big_c: float
    little_c: float
    delta: float
    r: int
    trials: int
    k_samples: int
    seed: int
    pattern: Pattern | None
    family: tuple[Pattern, ...] | None
    exponent: Fraction
    n: int
    p: float
    p_clamped: bool

    def __post_init__(self):
        _check_trials(self.trials)

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        if self.family is not None:
            return self.family
        if self.pattern is None:
            raise ValueError("parameters hold neither a pattern nor a family")
        return (self.pattern,)

    def graph_pattern(self, experiment: str) -> Graph:
        """The pattern of an experiment that runs on graphs only."""
        if not isinstance(self.pattern, Graph):
            raise ValueError(f"{experiment} run on graph patterns, got {type(self.pattern).__name__}")
        return self.pattern

    def describe(self) -> dict:
        return {
            "k": self.k,
            "C": self.big_c,
            "c": self.little_c,
            "delta": self.delta,
            "r": self.r,
            "trials": self.trials,
            "k_samples": self.k_samples,
            "seed": self.seed,
            "exponent": str(self.exponent),
            "n": self.n,
            "p": self.p,
            "p_clamped": self.p_clamped,
            "patterns": [g.to_json_obj() for g in self.patterns],
            "family_mode": self.family is not None,
        }


def derived_n_p(
    k: int, big_c: float, little_c: float, exponent: Fraction, r: int
) -> tuple[int, float, bool]:
    """The scaling formulas alone, shared by every driver (natural log)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    base = k ** (r - 1) / math.log(k)
    n = math.floor(little_c * base ** float(exponent))
    p, clamped = clamp_probability(
        big_c * math.log(k) / k ** (r - 1), context=f"k={k}, C={big_c}"
    )
    return n, p, clamped


def derive_parameters(
    pattern: Pattern | None = None,
    family: Sequence[Pattern] | None = None,
    *,
    k: int,
    big_c: float,
    little_c: float,
    delta: float = 0.5,
    trials: int = 200,
    k_samples: int = 50,
    seed: int = 0,
    n_override: int | None = None,
    p_override: float | None = None,
) -> ExperimentParams:
    """Derive (n, p) from the pattern density and the scaling constants.

    Family mode takes the minimum density exponent over the members and
    requires every member to be strictly balanced.  Explicit n/p overrides
    bypass the formulas (recorded as given) for regime-specific studies.
    """
    if (pattern is None) == (family is None):
        raise ValueError("provide exactly one of pattern or family")
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    if big_c <= 0 or little_c <= 0:
        raise ValueError("scaling constants C and c must be positive")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")

    members: tuple[Pattern, ...] = tuple(family) if family is not None else (pattern,)
    r = members[0].r
    if any(m.r != r for m in members):
        raise ValueError("all family members must share one uniformity")
    reports = [density_report(m) for m in members]
    if family is not None:
        bad = [i for i, rep in enumerate(reports) if not rep.strictly_balanced]
        if bad:
            raise ValueError(
                f"family members at positions {bad} are not strictly balanced"
            )
    elif not reports[0].strictly_balanced:
        warnings.warn(
            "pattern is not strictly balanced; derived scaling uses its density "
            "but the concentration statements assume strict balance",
            stacklevel=2,
        )
    exponent = min(rep.value for rep in reports)

    n, p, clamped = derived_n_p(k, big_c, little_c, exponent, r)
    if n_override is not None:
        n = n_override
    if p_override is not None:
        if not 0 <= p_override <= 1:
            raise ValueError(f"p override must lie in [0, 1], got {p_override}")
        p, clamped = p_override, False
    return ExperimentParams(
        k=k,
        big_c=big_c,
        little_c=little_c,
        delta=delta,
        r=r,
        trials=trials,
        k_samples=k_samples,
        seed=seed,
        pattern=pattern,
        family=tuple(family) if family is not None else None,
        exponent=exponent,
        n=n,
        p=p,
        p_clamped=clamped,
    )


@dataclass
class ExperimentResult:
    name: str
    summary: dict
    records: list[dict]
    plot_rows: list[dict]


# ---------------------------------------------------------------------
# Trial scheduling
# ---------------------------------------------------------------------


def worker_count(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, explicit)
    return max(1, int(os.environ.get("ALTERATION_LAB_WORKERS", "1")))


def map_trials(fn: Callable[[int], dict], n_trials: int, workers: int | None = None) -> list[dict]:
    """Run fn over trial indices 0..n-1; output order is always by index."""
    w = worker_count(workers)
    if w <= 1 or n_trials <= 1:
        return [fn(t) for t in range(n_trials)]
    chunk = max(1, n_trials // (4 * w))
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, range(n_trials), chunksize=chunk))


def _guard_size(params: ExperimentParams) -> None:
    cells = math.comb(params.n, params.r)
    work = cells * max(1, params.trials)
    if work > 60_000_000:
        raise InfeasibleError(
            f"estimated {work:.2e} sampled cells (C({params.n},{params.r}) per trial "
            f"x {params.trials} trials) exceeds the desk-scale budget of 6e7"
        )


def _sample_host(params: ExperimentParams, stream) -> Pattern:
    if params.r == 2:
        return sample_gnp(params.n, params.p, stream)
    return sample_uniform_hypergraph(params.n, params.r, params.p, stream)


def _adversarial_k(
    host: Pattern, covered: Sequence[Sequence[int]], seeds: Sequence[Sequence[int]], k: int
) -> list[tuple[int, ...]]:
    """Grow one K per seed edge, greedily maximizing covered internal edges.

    score[v] counts covered edges whose only vertex outside the chosen set
    is v; each step adds the first unchosen vertex of highest score.  For
    r = 2 every seed grows at once: row s of a seeds x n score matrix is
    seed s's score, and each step adds the covered-edge adjacency row of
    each seed's new vertex.  For r >= 3 the covered-edge incidence is built
    once for all seeds, and the scores update incrementally from the
    covered edges at each added vertex.
    """
    if k > host.n:
        raise ValueError(f"K of size {k} does not fit in a host on {host.n} vertices")
    r = host.r
    edges = np.asarray(covered, dtype=np.int64).reshape(-1, r)
    # A chosen vertex's score drops below -len(edges), and each covered edge
    # raises it at most once after that, so it stays below every unchosen
    # score (all >= 0) and argmax finds the lowest-labelled best vertex.
    sunk = -len(edges) - 1
    if r == 2:
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1, 2)
        adjacency = np.zeros((host.n, host.n), dtype=np.int64)
        adjacency[edges[:, 0], edges[:, 1]] = 1
        adjacency[edges[:, 1], edges[:, 0]] = 1
        score = np.zeros((len(seeds), host.n), dtype=np.int64)
        chosen = np.zeros((len(seeds), host.n), dtype=bool)
        every = np.arange(len(seeds))
        size = max(k, 2)
        for step in range(size):
            u = seeds[:, step] if step < 2 else score.argmax(axis=1)
            chosen[every, u] = True
            score[every, u] = sunk
            score += adjacency[u]
        # Each step chose a new vertex, so every row holds size of them.
        return list(map(tuple, np.nonzero(chosen)[1].reshape(len(seeds), size).tolist()))
    # others[u] holds, per covered edge at u, the edge's other r - 1 vertices.
    at = np.argsort(edges.ravel(), kind="stable")
    starts = np.searchsorted(edges.ravel()[at], np.arange(host.n + 1))
    row, col = np.divmod(at, r)
    others = np.split(edges[row[:, None], (col[:, None] + np.arange(1, r)) % r], starts[1:-1])
    k_sets = []
    for seed in seeds:
        score = np.zeros(host.n, dtype=np.int64)
        chosen = np.zeros(host.n, dtype=bool)
        for u in [*seed, *[None] * (k - len(seed))]:
            if u is None:
                u = int(score.argmax())
            chosen[u] = True
            score[u] = sunk
            o = others[u]
            inside = chosen[o]
            last = inside.sum(axis=1) == r - 2  # edges now missing one vertex
            np.add.at(score, o[last][~inside[last]], 1)
        k_sets.append(tuple(np.flatnonzero(chosen).tolist()))
    return k_sets


def _mean(values: Sequence) -> float | None:
    """The mean of the values, or None when there are none."""
    return sum(values) / len(values) if values else None


def _concentration_thresholds(params: ExperimentParams) -> dict:
    """The most copy-covered edges (Y) and the fewest edges (X) a k-set may hold."""
    return {
        "y_threshold": params.delta * math.comb(params.k, params.r) * params.p,
        "x_threshold": (1 - params.delta) * math.comb(params.k, params.r) * params.p,
    }


def _concentration_trial(params: ExperimentParams, k_policy: str, trial: int) -> dict:
    stream = RandomSource(params.seed).stream("concentration", trial)
    host = _sample_host(params, stream)
    indexes = [enumerate_copies(host, pat) for pat in params.patterns]
    family_mode = params.family is not None

    n_adv = 0
    if k_policy == "adversarial":
        n_adv = params.k_samples
    elif k_policy == "mixed":
        n_adv = params.k_samples // 2
    elif k_policy != "uniform":
        raise ValueError(f"unknown K policy {k_policy!r}")

    # Adversarial seeds cycle through the covered edges, most copies first.
    counts = np.sum([idx.counts for idx in indexes], axis=0)
    covered = np.flatnonzero(counts)
    by_count = covered[np.lexsort((covered, -counts[covered]))]
    edge_array = indexes[0].edge_array
    seeds = edge_array[by_count[np.arange(n_adv) % len(by_count)]] if len(by_count) else []
    k_sets = _adversarial_k(host, edge_array[covered], seeds, params.k)
    while len(k_sets) < params.k_samples:
        pick = stream.choice(params.n, size=params.k, replace=False)
        k_sets.append(tuple(sorted(pick.tolist())))

    # Row 0 holds each K's edge count X, then one row of covered edges per
    # pattern, then (family mode) the edges covered by any member: Y.
    covers = [idx.covered for idx in indexes]
    if family_mode:
        covers.append(np.logical_or.reduce(covers))
    xs, *ys = _k_set_counts(indexes[0], k_sets, covers).tolist()
    thresholds = _concentration_thresholds(params)
    rows = []
    all_y_ok = True
    all_x_ok = True
    for x, y, member_y in zip(xs, ys[-1], zip(*ys[: len(indexes)])):
        y_ok = y <= thresholds["y_threshold"]
        x_ok = x >= thresholds["x_threshold"]
        all_y_ok &= y_ok
        all_x_ok &= x_ok
        rows.append({"x": x, "y": y, "y_members": list(member_y), "y_ok": y_ok, "x_ok": x_ok})
    return {
        "trial": trial,
        "host_edges": host.num_edges,
        "copy_counts": [len(idx) for idx in indexes],
        "max_copies_per_edge": max(idx.max_copies_per_edge for idx in indexes),
        "k_sets": rows,
        "all_y_ok": all_y_ok,
        "all_x_ok": all_x_ok,
    }


def run_concentration_experiment(
    params: ExperimentParams, k_policy: str = "mixed", workers: int | None = None
) -> ExperimentResult:
    """Sampled check of the covered-edge and edge-count thresholds on k-sets.

    Per trial: sample the host, enumerate copies of each pattern, then
    evaluate X/Y statistics on sampled k-sets (uniform draws plus
    adversarial sets grown around maximum-coverage edges).  When n < k the
    statement is vacuous and reported as such without sampling.
    """
    base = {
        "params": params.describe(),
        "k_policy": k_policy,
        **_concentration_thresholds(params),
    }
    if params.n < params.k:
        summary = {
            **base,
            "vacuous": True,
            "note": "n < k: no k-vertex subsets exist, thresholds hold vacuously",
            "freq_y_ok": 1.0,
            "freq_x_ok": 1.0,
            "mean_x": None,
            "mean_y": None,
        }
        return ExperimentResult("concentration", summary, [], [])
    _guard_size(params)
    records = map_trials(
        partial(_concentration_trial, params, k_policy), params.trials, workers
    )
    xs = [row["x"] for rec in records for row in rec["k_sets"]]
    ys = [row["y"] for rec in records for row in rec["k_sets"]]
    summary = {
        **base,
        "vacuous": False,
        "freq_y_ok": _mean([r["all_y_ok"] for r in records]),
        "freq_x_ok": _mean([r["all_x_ok"] for r in records]),
        "mean_x": _mean(xs),
        "mean_y": _mean(ys),
        "mean_copies": _mean([sum(r["copy_counts"]) for r in records]),
    }
    return ExperimentResult("concentration", summary, records, [])


def _copy_count_thresholds(params: ExperimentParams) -> dict:
    """The most copies a host vertex, and a whole host, may hold."""
    return {
        "per_vertex_threshold": params.delta * params.n * params.p,
        "total_threshold": params.delta * math.comb(params.n, 2) * params.p,
    }


def _copy_count_trial(params: ExperimentParams, trial: int) -> dict:
    stream = RandomSource(params.seed).stream("copy-count", trial)
    host = sample_gnp(params.n, params.p, stream)
    pattern = params.graph_pattern("copy-count experiments")
    stats = global_copy_stats(enumerate_copies(host, pattern))
    identity_ok = stats.total * pattern.n == sum(stats.per_vertex)
    if not identity_ok:
        raise RuntimeError(
            f"trial {trial}: copy-count identity violated "
            f"(total={stats.total}, per-vertex sum={sum(stats.per_vertex)})"
        )
    max_per_vertex = max(stats.per_vertex, default=0)
    thresholds = _copy_count_thresholds(params)
    return {
        "trial": trial,
        "host_edges": host.num_edges,
        "total_copies": stats.total,
        "max_per_vertex": max_per_vertex,
        "identity_ok": identity_ok,
        "per_vertex_ok": max_per_vertex <= thresholds["per_vertex_threshold"],
        "total_ok": stats.total <= thresholds["total_threshold"],
    }


def run_copy_count_experiment(
    params: ExperimentParams, workers: int | None = None
) -> ExperimentResult:
    """Global and per-vertex copy-count concentration for a graph pattern.

    Requires a pattern with 2-density above 1 (below that, k dwarfs n and
    the global statement is out of regime).  Each trial verifies the exact
    identity total = sum(per-vertex)/v_H and the two delta thresholds.
    """
    pattern = params.graph_pattern("copy-count experiments")
    if density_report(pattern).value <= 1:
        raise ValueError("pattern 2-density must exceed 1 for this experiment")
    _guard_size(params)
    records = map_trials(partial(_copy_count_trial, params), params.trials, workers)
    summary = {
        "params": params.describe(),
        **_copy_count_thresholds(params),
        "freq_per_vertex_ok": _mean([r["per_vertex_ok"] for r in records]),
        "freq_total_ok": _mean([r["total_ok"] for r in records]),
        "identity_violations": sum(not r["identity_ok"] for r in records),
        "mean_total": _mean([r["total_copies"] for r in records]),
    }
    return ExperimentResult("copy-count", summary, records, [])


# ---------------------------------------------------------------------
# Disjoint-packing tail bound
# ---------------------------------------------------------------------


# A block of tail trials holds its uniforms (8 bytes per host edge) and its
# member presence tests (a byte per member edge) in about this many bytes.
_TAIL_BLOCK_BYTES = 1 << 20


def _tail_block(host_edges: int, member_cells: int) -> int:
    """Trials per block of the tail audit's batched draws."""
    return max(1, _TAIL_BLOCK_BYTES // (8 * host_edges + member_cells))


def run_tail_check(
    n: int,
    pattern: Graph,
    k_set: Sequence[int],
    p: float,
    trials: int,
    seed: int = 0,
    x_grid: Sequence[int] | None = None,
    copy_cap: int = 5000,
) -> ExperimentResult:
    """Monte Carlo audit of the disjoint-packing tail bound.

    The member collection holds every complete-host pattern copy sharing
    exactly two vertices (one edge) with K.  With mu the expected number
    of present members, the tail of the largest present edge-disjoint
    subcollection Z is checked against (e*mu/x)^x at every grid point,
    within three binomial-proportion standard deviations.  The members and
    their shared-edge conflicts come from the packing kernel in copies.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_trials(trials)
    host = complete_graph(n)
    ks = _validate_k(host, k_set)
    index = enumerate_copies(host, pattern)
    rows, _, members = _k_members(index, ks)
    member_rows = rows[members]
    if len(member_rows) > copy_cap:
        raise PackingInfeasibleError(
            f"{len(member_rows)} packing members exceed cap {copy_cap}"
        )
    # Summed member by member: len(members) * p**e_H can differ in the last bit.
    mu = sum(p ** pattern.num_edges for _ in member_rows)
    # Z of a presence set is a clique of the member compatibility graph
    # restricted to the present members: one search answers every set.
    search = CliqueSearch(complement_masks(_conflicts(member_rows.tolist())))
    packing_bound = search.run().size

    if x_grid is None:
        x_grid = [x for x in range(1, packing_bound + 1) if x > mu]
    else:
        x_grid = list(x_grid)
        if any(x <= mu for x in x_grid):
            raise ValueError("tail grid points must exceed mu")

    # Trial t decides host edge i of K_n, the i-th pair of
    # combinations(range(n), 2), by the i-th uniform of stream ("tail", t).
    # Z depends only on which members are present, so it is computed once
    # per presence set; bit j of the set's packed bytes is member j.
    source = RandomSource(seed)
    z_hist: dict[int, int] = {}
    z_of: dict[bytes, int] = {}
    block = _tail_block(host.num_edges, member_rows.size)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        bits = source.uniforms("tail", start, stop, host.num_edges) < p
        present = bits[:, member_rows].all(axis=2)
        for key in np.packbits(present, axis=1, bitorder="little"):
            key = key.tobytes()
            z = z_of.get(key)
            if z is None:
                z = z_of[key] = search.run(within=int.from_bytes(key, "little")).size
            z_hist[z] = z_hist.get(z, 0) + 1

    plot_rows = []
    all_ok = True
    for x in x_grid:
        count = sum(c for z, c in z_hist.items() if z >= x)
        empirical = count / trials
        bound = (math.e * mu / x) ** x if mu > 0 else 0.0
        capped = min(bound, 1.0)
        sigma = math.sqrt(capped * (1 - capped) / trials)
        ok = empirical <= capped + 3 * sigma
        all_ok &= ok
        plot_rows.append(
            {
                "x": x,
                "empirical": empirical,
                "bound": bound,
                "tolerance": 3 * sigma,
                "ok": ok,
            }
        )
    summary = {
        "n": n,
        "pattern": pattern.to_json_obj(),
        "k_set": sorted(ks),
        "p": p,
        "trials": trials,
        "seed": seed,
        "members": len(member_rows),
        "mu": mu,
        "packing_bound": packing_bound,
        "z_histogram": {str(z): c for z, c in sorted(z_hist.items())},
        "grid": [row["x"] for row in plot_rows],
        "all_ok": all_ok,
    }
    return ExperimentResult("tail", summary, [], plot_rows)


# ---------------------------------------------------------------------
# Planted witness for the copy-count lower tail
# ---------------------------------------------------------------------


def run_planted_witness(
    pattern: Graph, k: int, n: int, p: float, delta: float
) -> ExperimentResult:
    """Deterministic planted construction forcing many K-touching copies.

    Plants a complete multipartite graph on v_H disjoint blocks of size t
    inside the first k vertices, where t is the smallest integer whose
    v_H-th power reaches delta * C(k,2) * p.  The exact copy count then
    dominates t^v_H, which dominates the threshold.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    v_h = pattern.n
    threshold = delta * math.comb(k, 2) * p
    t = math.ceil(threshold ** (1 / v_h)) if threshold > 0 else 0
    if v_h * t > k:
        raise InfeasibleError(
            f"infeasible planting: v_H*t = {v_h}*{t} = {v_h * t} exceeds k = {k}"
        )
    if t == 0:
        count = 0
    else:
        planted = complete_multipartite([t] * v_h)
        host = Graph(n, planted.edges)
        count = len(enumerate_copies(host, pattern))
    t_power = t**v_h
    summary = {
        "pattern": pattern.to_json_obj(),
        "k": k,
        "n": n,
        "p": p,
        "delta": delta,
        "threshold": threshold,
        "t": t,
        "copy_count": count,
        "t_power": t_power,
        "count_ge_t_power": count >= t_power,
        "t_power_ge_threshold": t_power >= threshold,
        "holds": count >= t_power >= threshold,
    }
    return ExperimentResult("planted-witness", summary, [], [])


# ---------------------------------------------------------------------
# Ramsey witness search
# ---------------------------------------------------------------------


def run_ramsey_search(
    pattern: Graph,
    k: int,
    big_c_grid: Sequence[float],
    little_c_grid: Sequence[float],
    trials: int,
    seed: int = 0,
    budget: int = 10_000_000,
) -> ExperimentResult:
    """Search a (C, c) grid for certified Ramsey-witness graphs.

    Each grid point derives (n, p), samples hosts, applies the refined
    alteration, and certifies pattern-freeness plus independence below k.
    Reports the largest n achieving a certified witness; an empty search
    is reported honestly.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    _check_trials(trials)
    exponent = density_report(pattern).value
    source = RandomSource(seed)
    best: dict | None = None
    best_graph: Graph | None = None
    plot_rows = []
    for ci, big_c in enumerate(sorted(set(big_c_grid))):
        for cj, little_c in enumerate(sorted(set(little_c_grid))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                n, p, clamped = derived_n_p(k, big_c, little_c, exponent, 2)
            successes = 0
            first_witness: Graph | None = None
            if n >= 1:
                for t in range(trials):
                    stream = source.stream(f"ramsey-search/{ci}/{cj}", t)
                    host = sample_gnp(n, p, stream)
                    altered = refined_alteration(host, pattern)
                    cert = ramsey_certificate(altered.output_graph, pattern, k, budget)
                    if cert.holds:
                        successes += 1
                        if first_witness is None:
                            first_witness = altered.output_graph
            plot_rows.append(
                {
                    "C": big_c,
                    "c": little_c,
                    "n": n,
                    "p": p,
                    "p_clamped": clamped,
                    "trials": trials,
                    "successes": successes,
                }
            )
            if first_witness is not None and (best is None or n > best["n"]):
                best = {"C": big_c, "c": little_c, "n": n, "p": p}
                best_graph = first_witness
    summary = {
        "pattern": pattern.to_json_obj(),
        "k": k,
        "trials_per_point": trials,
        "seed": seed,
        "found": best is not None,
        "best": best,
        "witness": best_graph.to_json_obj() if best_graph is not None else None,
    }
    return ExperimentResult("ramsey-search", summary, [], plot_rows)


# ---------------------------------------------------------------------
# Game experiments
# ---------------------------------------------------------------------


def _rps_trial(params: ExperimentParams, proposer_name: str, budget: int, trial: int) -> dict:
    pattern = params.graph_pattern("game experiments")
    proposer = DenseFirstProposer() if proposer_name == "dense" else RandomLegalProposer()
    transcript = run_rps(
        params.n,
        pattern,
        proposer,
        RandomDecider(params.p),
        RandomSource(params.seed),
        game_index=trial,
    )
    final = rps_final_graph(transcript)
    independence = independence_number(final, budget=budget)
    return {
        "trial": trial,
        "turns": len(transcript.turns),
        "outcome": transcript.outcome,
        "final_edges": final.num_edges,
        "alpha": independence.lower,
        "alpha_exact": independence.exact,
        "proposer_win": independence.exact and independence.lower >= params.k,
    }


def _builder_trial(
    params: ExperimentParams,
    builder_name: str,
    turn_cap: int,
    pool_cap: int,
    core: Graph,
    trial: int,
) -> dict:
    pattern = params.graph_pattern("game experiments")
    if builder_name == "pump":
        builder = PumpBuilder(params.k)
    else:
        builder = RandomBuilder(min(pool_cap, max(2, 2 * turn_cap)))
    transcript = run_online_ramsey(
        pattern,
        params.k,
        builder,
        ThresholdPainter(params.p, core),
        turn_cap,
        RandomSource(params.seed),
        game_index=trial,
        pool_cap=pool_cap,
    )
    red, blue = builder_final_graphs(transcript)
    red_clean = len(enumerate_copies(red, core)) == 0 if red.num_edges else True
    return {
        "trial": trial,
        "turns": len(transcript.turns),
        "outcome": transcript.outcome,
        "red_edges": red.num_edges,
        "blue_edges": blue.num_edges,
        "red_core_free": red_clean,
        "survived": transcript.outcome in ("turn-cap", "exhausted"),
    }


def run_game_experiment(
    mode: str,
    params: ExperimentParams,
    proposer: str = "random",
    builder: str = "random",
    turn_cap: int | None = None,
    pool_cap: int | None = None,
    alpha_budget: int = 10_000_000,
    workers: int | None = None,
) -> ExperimentResult:
    """Seeded batches of full games with per-trial digests.

    rps mode reports how often the final graph still contains an
    independent set of size k (the proposer's win) against the
    probability-p blind decider.  builder mode reports the threshold
    painter's survival frequency through the turn budget, where the
    budget defaults to floor(L*n/2) with L = floor((k-1)/4).
    """
    pattern = params.graph_pattern("game experiments")
    if mode == "rps":
        records = map_trials(
            partial(_rps_trial, params, proposer, alpha_budget),
            params.trials,
            workers,
        )
        summary = {
            "mode": mode,
            "params": params.describe(),
            "proposer": proposer,
            "freq_proposer_win": _mean([r["proposer_win"] for r in records]),
            "freq_alpha_exact": _mean([r["alpha_exact"] for r in records]),
            "mean_final_edges": _mean([r["final_edges"] for r in records]),
        }
        return ExperimentResult("rps-game", summary, records, [])
    if mode == "builder":
        threshold = (params.k - 1) // 4
        cap = turn_cap if turn_cap is not None else threshold * params.n // 2
        pool = pool_cap if pool_cap is not None else max(4 * cap, 2 * params.k, 2)
        core = minimal_balanced_core(pattern)
        records = map_trials(
            partial(_builder_trial, params, builder, cap, pool, core),
            params.trials,
            workers,
        )
        summary = {
            "mode": mode,
            "params": params.describe(),
            "builder": builder,
            "turn_cap": cap,
            "pool_cap": pool,
            "degree_threshold": threshold,
            "core": core.to_json_obj(),
            "freq_survived": _mean([r["survived"] for r in records]),
            "red_core_violations": sum(not r["red_core_free"] for r in records),
        }
        return ExperimentResult("builder-game", summary, records, [])
    raise ValueError(f"unknown game mode {mode!r}")


# ---------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, (Graph, UniformHypergraph)):
        return obj.to_json_obj()
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default)


def summary_csv(summary: dict) -> str:
    """A summary as CSV: a key,value header, then one row per key in sorted
    order with its value as JSON, quoted where CSV needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows([key, dumps(summary[key])] for key in sorted(summary))
    return buf.getvalue()


def write_result(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write summary.json, summary.csv, trials.jsonl and plot.csv (if any)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(dumps(result.summary) + "\n", encoding="utf-8")
    (out / "summary.csv").write_text(summary_csv(result.summary), encoding="utf-8", newline="")
    if result.records:
        with (out / "trials.jsonl").open("w", encoding="utf-8") as fh:
            for rec in result.records:
                fh.write(dumps(rec) + "\n")
    if result.plot_rows:
        cols = sorted({k for row in result.plot_rows for k in row})
        with (out / "plot.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in result.plot_rows:
                writer.writerow(row)
