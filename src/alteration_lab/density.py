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
from typing import Iterator

from .graphs import Graph, UniformHypergraph

# The subset table holds 2^n counts: 16.8M at 24 vertices, where K24 takes
# 9.2 s and 163 MB peak on a 2-vCPU machine.  Larger patterns fail fast
# instead of filling memory.
_MAX_VERTICES = 24


@dataclass(frozen=True)
class DensityReport:
    """Density value with the attaining vertex subset and balancedness verdict."""

    value: Fraction
    witness: tuple[int, ...]
    strictly_balanced: bool
    uniformity: int


def _edge_counts(pattern: Graph | UniformHypergraph) -> list[int]:
    """Induced edge count of every vertex subset, indexed by its bitmask.

    e(S) = e(S - v) + (edges at v inside S - v), with v the top vertex of
    S; an edge lies inside S - v only when v is its top vertex, so each
    edge is kept under that vertex as the mask of its other vertices.
    """
    if pattern.n > _MAX_VERTICES:
        raise ValueError(
            f"exact density scans all 2^n vertex subsets; a pattern on {pattern.n} "
            f"vertices exceeds the limit of {_MAX_VERTICES}"
        )
    graph = isinstance(pattern, Graph)
    if graph:
        masks = pattern.adjacency_masks
    else:
        below: list[list[int]] = [[] for _ in range(pattern.n)]
        for e in pattern.edges:
            below[e[-1]].append(sum(1 << w for w in e[:-1]))
    counts = [0]
    for s in range(1, 1 << pattern.n):
        v = s.bit_length() - 1
        rest = s ^ 1 << v
        if graph:
            counts.append(counts[rest] + (masks[v] & rest).bit_count())
        else:
            counts.append(counts[rest] + sum(m & rest == m for m in below[v]))
    return counts


def _vertices(s: int) -> tuple[int, ...]:
    return tuple(v for v in range(s.bit_length()) if s >> v & 1)


def _precedes(a: int, b: int) -> bool:
    """Does subset a come before subset b in (size, lexicographic) order?"""
    if a.bit_count() != b.bit_count():
        return a.bit_count() < b.bit_count()
    return bool(a & (a ^ b) & -(a ^ b))  # a holds the lowest differing vertex


def _candidates(counts: list[int], r: int) -> Iterator[tuple[int, int, int, int]]:
    """(subset, induced edge count, num, den) of every density candidate.

    Size-r subsets count only as a lone edge (1/r); larger ones count
    (e - 1)/(size - r) whenever they hold an edge.
    """
    for s, e in enumerate(counts):
        size = s.bit_count()
        if e and size >= r:
            yield (s, e, 1, r) if size == r else (s, e, e - 1, size - r)


def density_report(pattern: Graph | UniformHypergraph) -> DensityReport:
    """Exact r-density of an r-uniform pattern with at least one edge, which
    for a graph is its 2-density.

    One walk over the subsets keeps the best ratio and its first subset
    in (size, lexicographic) order.  Only induced subgraphs on proper
    vertex subsets can tie the maximum: a proper spanning subgraph has at
    most e - 2 edges over n - r, which is less than the full vertex set's
    (e - 1)/(n - r) and so than the maximum.  A proper subset comes before
    the full set, so the pattern is strictly balanced exactly when the full
    set is the witness.
    """
    r = pattern.r
    if pattern.num_edges == 0:
        raise ValueError(
            "2-density is undefined for an edgeless graph"
            if r == 2
            else "r-density is undefined for an edgeless hypergraph"
        )
    best_num, best_den, witness = 0, 1, 0
    for s, _, num, den in _candidates(_edge_counts(pattern), r):
        gain = num * best_den - best_num * den
        if gain > 0 or (gain == 0 and _precedes(s, witness)):
            best_num, best_den, witness = num, den, s
    return DensityReport(
        value=Fraction(best_num, best_den),
        witness=_vertices(witness),
        strictly_balanced=witness == (1 << pattern.n) - 1,
        uniformity=r,
    )


# The 2-density of a graph and the r-density of a hypergraph are one report.
two_density_report = r_density_report = density_report


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
    # A subset at the maximum has no vertex isolated inside, as dropping one
    # would raise its ratio; so its edges fix it, and no two keys tie.
    cores = [
        (e, pattern.edges_inside(_vertices(s)), s)
        for s, e, num, den in _candidates(_edge_counts(pattern), 2)
        if Fraction(num, den) == target
    ]
    core = pattern.induced(_vertices(min(cores)[2]), relabel=True)
    core_report = two_density_report(core)
    if not (core_report.strictly_balanced and core_report.value == target):
        raise RuntimeError(f"the core found for density {target} is not strictly balanced at it")
    return core
