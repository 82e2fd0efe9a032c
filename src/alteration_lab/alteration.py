"""Three alterations turning a graph into a pattern-free subgraph, plus
exact independence number and Ramsey-witness certification.

* refined: delete every edge lying in some pattern copy.
* greedy: scan the edges in a given order, rejecting any edge that would
  complete a copy with the edges accepted so far.
* disjoint-collection: delete the edges of a greedily built inclusion-
  maximal collection of edge-disjoint copies.

All three outputs are pattern-free; the refined removal is a superset of
the disjoint-collection removal, so the surviving edge sets nest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cliques import max_independent_set
from .copies import Copy, _greedy_pack, enumerate_copies, has_copy_through_edge
from .graphs import Graph, canonical_pair


@dataclass(frozen=True)
class AlterationResult:
    input_graph: Graph
    output_graph: Graph
    removed: frozenset[tuple[int, int]]
    method: str
    collection: tuple[Copy, ...] | None = None


@dataclass(frozen=True)
class IndependenceResult:
    """Exact independence number, or certified bounds when the budget ran out."""

    lower: int
    upper: int
    witness: tuple[int, ...]
    exact: bool

    @property
    def alpha(self) -> int | None:
        return self.lower if self.exact else None


@dataclass(frozen=True)
class RamseyCertificate:
    """Evidence that a graph is pattern-free with independence number below k."""

    holds: bool
    status: str  # certified | copy-found | large-independent-set | undetermined
    independence: IndependenceResult | None
    violating_copy: Copy | None


def refined_alteration(graph: Graph, pattern: Graph) -> AlterationResult:
    """Delete every edge of the graph that lies in some pattern copy."""
    index = enumerate_copies(graph, pattern)
    removed = frozenset(index.covered_edges)
    return AlterationResult(
        input_graph=graph,
        output_graph=graph.without_edges(removed),
        removed=removed,
        method="refined",
    )


def greedy_alteration(
    graph: Graph, pattern: Graph, order: Sequence[tuple[int, int]]
) -> AlterationResult:
    """Accept edges in the given order unless they complete a pattern copy.

    order must be a permutation of the graph's edge set.  An edge is
    rejected exactly when adding it to the accepted set creates a copy
    through it.
    """
    canon_order = [canonical_pair(u, v) for u, v in order]
    if sorted(canon_order) != list(graph.edges):
        raise ValueError("order must be a permutation of the graph's edges")
    masks = [0] * graph.n
    accepted: list[tuple[int, int]] = []
    removed: list[tuple[int, int]] = []
    for u, v in canon_order:
        if has_copy_through_edge(masks, pattern, u, v):
            removed.append((u, v))
        else:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            accepted.append((u, v))
    return AlterationResult(
        input_graph=graph,
        output_graph=Graph(graph.n, accepted),
        removed=frozenset(removed),
        method="greedy",
    )


def disjoint_collection_alteration(graph: Graph, pattern: Graph) -> AlterationResult:
    """Delete the edges of a maximal collection of edge-disjoint copies.

    The collection is built greedily over copies in canonical edge-set
    order, so the result is deterministic.  Maximality makes the output
    pattern-free: any surviving copy would have been edge-disjoint from
    the collection and hence added to it.
    """
    index = enumerate_copies(graph, pattern)
    rows = index.order[_greedy_pack(index.edge_ids[index.order].tolist())]
    removed = frozenset(graph.edges[i] for i in index.edge_ids[rows].ravel().tolist())
    return AlterationResult(
        input_graph=graph,
        output_graph=graph.without_edges(removed),
        removed=removed,
        method="disjoint-collection",
        collection=index._copies_at(rows),
    )


def independence_number(graph: Graph, budget: int = 10_000_000) -> IndependenceResult:
    """Exact independence number by branch and bound within a node budget."""
    result = max_independent_set(graph.adjacency_masks, budget=budget)
    return IndependenceResult(
        lower=result.size,
        upper=result.upper_bound,
        witness=result.members,
        exact=result.exact,
    )


def ramsey_certificate(
    graph: Graph, pattern: Graph, k: int, budget: int = 10_000_000
) -> RamseyCertificate:
    """Certify that a graph is pattern-free and has no independent k-set.

    A certified result witnesses a Ramsey-number lower bound: any graph
    passing both checks shows the (pattern, k) Ramsey number exceeds n.
    """
    index = enumerate_copies(graph, pattern)
    if len(index):
        return RamseyCertificate(
            holds=False,
            status="copy-found",
            independence=None,
            violating_copy=index._copies_at(index.order[:1])[0],
        )
    independence = independence_number(graph, budget=budget)
    if not independence.exact:
        # Bounds may still decide the certificate; otherwise it is open.
        if independence.upper < k:
            return RamseyCertificate(True, "certified", independence, None)
        if independence.lower >= k:
            return RamseyCertificate(
                False, "large-independent-set", independence, None
            )
        return RamseyCertificate(False, "undetermined", independence, None)
    if independence.lower >= k:
        return RamseyCertificate(False, "large-independent-set", independence, None)
    return RamseyCertificate(True, "certified", independence, None)
