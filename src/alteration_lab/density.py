"""Exact 2-density and r-density of small pattern (hyper)graphs.

The 2-density of a graph H maximizes (e_F - 1)/(v_F - 2) over subgraphs F
on at least 3 vertices, with a single edge contributing 1/2.  The r-uniform
analog maximizes (e_F - 1)/(v_F - r) over subgraphs on at least r+1
vertices, with a lone r-edge contributing 1/r.  H is strictly balanced
when every proper subgraph has strictly smaller density.

All values are exact rationals; the maximization runs over induced
subgraphs of each vertex subset, which dominate because adding edges on a
fixed vertex set can only raise the ratio.  The same argument settles the
balancedness verdict for proper spanning subgraphs: with e >= 2 edges on
n >= r+1 vertices, one has at most (e-2)/(n-r), strictly below the full
vertex set's (e-1)/(n-r), so it never ties the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .graphs import Graph, UniformHypergraph


@dataclass(frozen=True)
class DensityReport:
    """Density value with the attaining vertex subset and balancedness verdict."""

    value: Fraction
    witness: tuple[int, ...]
    strictly_balanced: bool
    uniformity: int


def _induced_edge_count(masks: tuple[int, ...], subset: tuple[int, ...]) -> int:
    mask = 0
    for v in subset:
        mask |= 1 << v
    return sum((masks[v] & mask).bit_count() for v in subset) // 2


def _graph_candidates(pattern: Graph) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Yield (subset, induced edge count, num, den) for every density candidate.

    Size-2 subsets contribute only via the single-edge case (value 1/2);
    larger subsets contribute (e - 1)/(size - 2) whenever they have an edge.
    """
    masks = pattern.adjacency_masks
    for size in range(2, pattern.n + 1):
        for subset in combinations(range(pattern.n), size):
            e = _induced_edge_count(masks, subset)
            if size == 2:
                if e == 1:
                    yield subset, e, 1, 2
            elif e >= 1:
                yield subset, e, e - 1, size - 2


def _hypergraph_candidates(
    pattern: UniformHypergraph,
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    r = pattern.r
    edge_masks = []
    for e in pattern.edges:
        m = 0
        for v in e:
            m |= 1 << v
        edge_masks.append(m)
    for size in range(r, pattern.n + 1):
        for subset in combinations(range(pattern.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            e = sum(1 for em in edge_masks if em & mask == em)
            if size == r:
                if e == 1:
                    yield subset, e, 1, r
            elif e >= 1:
                yield subset, e, e - 1, size - r


def _report(pattern: Graph | UniformHypergraph, uniformity: int) -> DensityReport:
    candidates = (
        _graph_candidates(pattern)
        if isinstance(pattern, Graph)
        else _hypergraph_candidates(pattern)
    )
    best_num, best_den = 0, 1
    witness: tuple[int, ...] = ()
    for subset, _, num, den in candidates:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            witness = subset

    # Strict balancedness: no proper subgraph may attain the maximum.
    # Only induced subgraphs on proper vertex subsets can tie it.  A proper
    # spanning subgraph has at most e - 2 edges over n - r, which is less
    # than the full vertex set's (e - 1)/(n - r) and so than the maximum.
    strict = True
    candidates = (
        _graph_candidates(pattern)
        if isinstance(pattern, Graph)
        else _hypergraph_candidates(pattern)
    )
    for subset, _, num, den in candidates:
        if len(subset) < pattern.n and num * best_den == best_num * den:
            strict = False
            break

    return DensityReport(
        value=Fraction(best_num, best_den),
        witness=witness,
        strictly_balanced=strict,
        uniformity=uniformity,
    )


def two_density_report(pattern: Graph) -> DensityReport:
    """Exact 2-density of a graph with at least one edge."""
    if pattern.num_edges == 0:
        raise ValueError("2-density is undefined for an edgeless graph")
    return _report(pattern, 2)


def r_density_report(pattern: UniformHypergraph) -> DensityReport:
    """Exact r-density of an r-uniform hypergraph with at least one edge."""
    if pattern.num_edges == 0:
        raise ValueError("r-density is undefined for an edgeless hypergraph")
    return _report(pattern, pattern.r)


def density_report(pattern: Graph | UniformHypergraph) -> DensityReport:
    if isinstance(pattern, Graph):
        return two_density_report(pattern)
    return r_density_report(pattern)


def minimal_balanced_core(pattern: Graph) -> Graph:
    """Edge-minimal strictly 2-balanced subgraph attaining the 2-density.

    Returns the pattern unchanged when it is already strictly 2-balanced.
    Otherwise candidates are induced subgraphs without isolated vertices
    whose density equals the maximum; the one with the fewest edges wins,
    ties broken lexicographically on the canonical edge list.  The result
    is relabeled onto 0..k-1.
    """
    report = two_density_report(pattern)
    if report.strictly_balanced:
        return pattern
    target = report.value
    masks = pattern.adjacency_masks
    candidates: list[tuple[int, tuple, tuple[int, ...]]] = []
    for subset, e, num, den in _graph_candidates(pattern):
        if Fraction(num, den) != target:
            continue
        mask = 0
        for v in subset:
            mask |= 1 << v
        if any((masks[v] & mask) == 0 for v in subset):
            continue
        candidates.append((e, pattern.edges_inside(subset), subset))
    # target is attained by some induced subgraph, so candidates is nonempty
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, _, subset = candidates[0]
    core = pattern.induced(subset, relabel=True)
    core_report = two_density_report(core)
    if not (core_report.strictly_balanced and core_report.value == target):
        raise RuntimeError(f"the core found for density {target} is not strictly balanced at it")
    return core
