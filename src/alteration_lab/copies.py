"""Enumeration of pattern copies in a host (hyper)graph and derived statistics.

A copy is a subgraph of the host isomorphic to the pattern, identified by
its edge set (plus its vertex set, which only matters for patterns with
isolated vertices).

A PatternPlan, compiled once per pattern, places the pattern's vertices
one position at a time and has two evaluators.  Enumeration evaluates it
level by level over numpy arrays, in blocks of rows taken depth first
(Generic Join, Ngo, Re and Rudra, SIGMOD Record 2013, with the
symmetry-breaking conditions as filters).  A depth-first bitmask search
answers whether a copy passes through an edge, compiles the plans'
conditions, and keeps the closed-pair record of a growing graph
(ClosedPairs): the pairs whose addition would complete a copy, updated by
one search per accepted edge and read by the propose/decide game with two
bit tests.

Enumeration hands its image array to a CopyIndex.  The index keeps
copies as int arrays over the host's edge numbering (vertex images and
edge ids per copy) and derives from them, with numpy, the per-edge copy
counts, the covered-edge mask and the copy-multiplicity maxima that
alteration, k-set statistics and the packing audit need.
Copy objects and the edge-keyed coverage map are built only when first
read.

This module alone decides what an edge-disjoint packing of copies is
made of: the packing members for a vertex set K (copies with an edge
inside K that share exactly two vertices with K), the shared-edge
conflict relation, and the greedy in-order packing, all over rows of
edge ids in canonical copy order.  The packing audit, the tail-bound
driver in experiments and the disjoint-collection alteration use them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, permutations
from operator import itemgetter, or_
from typing import Collection, Iterable, Sequence

import numpy as np

from .cliques import max_independent_set
from .graphs import Graph, UniformHypergraph

EdgeTuple = tuple[int, ...]


class PackingInfeasibleError(RuntimeError):
    """Raised when an exact packing instance exceeds the configured size cap."""


@dataclass(frozen=True)
class Copy:
    """One host subgraph isomorphic to the pattern."""

    vertices: frozenset[int]
    edges: frozenset[EdgeTuple]

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.edges)), tuple(sorted(self.vertices)))


@dataclass(frozen=True)
class KSetStats:
    """Edge counts inside one vertex subset K of the host."""

    vertices: tuple[int, ...]
    edges_inside: int          # host edges with all endpoints in K
    covered_inside: int        # of those, covered by at least one copy
    covered_by_family: int | None = None  # covered by a copy of any family member


@dataclass(frozen=True)
class PackingReport:
    """Sizes of the copy packings behind the covered-edge bound for one K.

    The bound audited here: covered_inside is at most the maximum
    edge-disjoint packing of two-vertex copies, plus 2 * e_H^2 * (the two
    greedy packing sizes) * the per-edge copy maximum.
    """

    vertices: tuple[int, ...]
    touching_count: int          # copies with an edge inside K
    two_vertex_count: int        # of those, sharing exactly two vertices with K
    max_disjoint_two_vertex: int    # exact maximum edge-disjoint packing
    greedy_disjoint_touching: int   # inclusion-maximal packing of the rest
    greedy_disjoint_pair_unions: int  # inclusion-maximal packing of overlapping pair unions
    covered_inside: int
    bound_rhs: int
    bound_holds: bool
    max_disjoint_witness: tuple[int, ...]


@dataclass(frozen=True)
class GlobalCopyStats:
    """Total copy count and per-vertex copy counts of an index."""

    total: int
    per_vertex: tuple[int, ...]


def _edge_array(structure: Graph | UniformHypergraph) -> np.ndarray:
    """The edges as an m x r int array, in edge order."""
    flat = chain.from_iterable(structure.edges)
    count = structure.num_edges * structure.r
    return np.fromiter(flat, dtype=np.int64, count=count).reshape(-1, structure.r)


def _code(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Sorted vertex tuples, given column by column, read as base-n digits:
    sorted tuples of one length get increasing codes."""
    return sum(col * n ** (len(columns) - 1 - j) for j, col in enumerate(columns))


class CopyIndex:
    """All pattern copies of a host as int arrays over the host's edge numbering.

    Host edge i is host.edges[i]; the edges are sorted, so edge order is
    id order.  Row c of images holds the host image of each pattern vertex
    (copies x v_H), and row c of edge_ids the id of the host edge each
    pattern edge maps to (copies x e_H).  Rows come in search order.
    counts[i] is the number of copies through edge i and covered marks the
    edges with at least one.

    The views order, copies, coverage, covered_edges and
    max_copies_per_edge_pair are built on first use: copies holds Copy
    objects in canonical Copy.sort_key order, order[i] is the row of
    canonical copy id i, and the copy ids in coverage and in packing
    reports index into copies.

    images may be flat or 2-D; each row must be a distinct copy, given as
    the host image of pattern vertices 0..v_H-1 in turn.
    """

    def __init__(
        self,
        host: Graph | UniformHypergraph,
        pattern: Graph | UniformHypergraph,
        images: Sequence[int] | np.ndarray,
    ):
        self.host = host
        self.pattern = pattern
        r = host.r
        m = host.num_edges
        if max(host.n**r, m * m) >= 1 << 63:
            raise OverflowError(f"edge codes of a host with n={host.n}, m={m} exceed int64")
        self.images = np.asarray(images, dtype=np.int64).reshape(-1, pattern.n)
        # Column-major: the gathers of k_set_stats stay column by column.
        self.edge_array = np.asfortranarray(_edge_array(host))
        # The images of each pattern edge's j-th vertex, sorted across the
        # edge by min/max passes (r is small).
        ends = [self.images[:, list(col)] for col in zip(*pattern.edges)]
        for last in range(r - 1, 0, -1):
            for j in range(last):
                ends[j], ends[j + 1] = np.minimum(ends[j], ends[j + 1]), np.maximum(ends[j], ends[j + 1])
        codes = _code(ends, host.n)
        host_codes = _code(self.edge_array.T, host.n)
        self.edge_ids = np.searchsorted(host_codes, codes)
        # A code past the last edge finds the -1 sentinel, which no code equals.
        if not np.array_equal(np.append(host_codes, -1)[self.edge_ids], codes):
            raise ValueError("images map a pattern edge onto a non-edge of the host")
        self.counts = np.bincount(self.edge_ids.ravel(), minlength=m)
        self.covered = self.counts > 0
        self.max_copies_per_edge = int(self.counts.max(initial=0))

    @cached_property
    def max_copies_per_edge_pair(self) -> int:
        """The most copies through any two host edges together."""
        # An edge pair f < g of one copy is the key f * m + g.
        ordered = np.sort(self.edge_ids, axis=1)
        first, second = np.triu_indices(self.pattern.num_edges, 1)
        keys = ordered[:, first] * self.host.num_edges + ordered[:, second]
        return int(np.unique(keys, return_counts=True)[1].max(initial=0))

    @cached_property
    def order(self) -> np.ndarray:
        """Row numbers in Copy.sort_key order (sorted edges, then sorted
        vertices): canonical copy id i is row order[i]."""
        rows = np.hstack([np.sort(self.edge_ids, axis=1), np.sort(self.images, axis=1)])
        return np.lexsort(rows.T[::-1])

    @cached_property
    def copies(self) -> tuple[Copy, ...]:
        """Copy objects in canonical Copy.sort_key order."""
        return self._copies_at(self.order)

    def _copies_at(self, rows: np.ndarray) -> tuple[Copy, ...]:
        """Copy objects for the given rows, in that order."""
        edge = self.host.edges.__getitem__
        # Pattern edge order fixes each frozenset's iteration order, and so the key
        # order of coverage.
        return tuple(
            Copy(vertices=frozenset(vs), edges=frozenset(map(edge, es)))
            for vs, es in zip(self.images[rows].tolist(), self.edge_ids[rows].tolist())
        )

    def first_copies(self, ids: Sequence[int]) -> list[Copy | None]:
        """The first copy in canonical order through each given host edge id,
        or None where no copy passes; only those Copy objects are built."""
        through, at = np.unique(self.edge_ids[self.order].ravel(), return_index=True)
        first = np.full(self.host.num_edges, -1)
        first[through] = self.order[at // self.pattern.num_edges]
        rows = first[list(ids)]
        built = iter(self._copies_at(rows[rows >= 0]))
        return [next(built) if row >= 0 else None for row in rows.tolist()]

    @cached_property
    def coverage(self) -> dict[EdgeTuple, tuple[int, ...]]:
        """Each covered edge mapped to the ids of the copies through it."""
        coverage: dict[EdgeTuple, list[int]] = {}
        for i, copy in enumerate(self.copies):
            for e in copy.edges:
                coverage.setdefault(e, []).append(i)
        return {e: tuple(ids) for e, ids in coverage.items()}

    @cached_property
    def covered_edges(self) -> frozenset[EdgeTuple]:
        return frozenset(self.host.edges[i] for i in np.flatnonzero(self.covered).tolist())

    @property
    def pattern_edge_count(self) -> int:
        return self.pattern.num_edges

    def __len__(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return (
            f"CopyIndex(copies={len(self)}, "
            f"max_per_edge={self.max_copies_per_edge}, "
            f"max_per_edge_pair={self.max_copies_per_edge_pair})"
        )


# ---------------------------------------------------------------------
# The matcher: one plan per pattern, one bitmask search
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PatternPlan:
    """How to map one pattern into any host of its uniformity.

    Position i places pattern vertex order[i].  completes[i] lists, for
    each pattern edge completed at position i, the sorted (r-1)-tuple of
    earlier positions holding its other vertices; keys[i] reads those
    images off the image list as an int (r = 2) or a tuple (r >= 3), the
    host lookup key.  lower[i] lists earlier positions whose images must
    be smaller: the symmetry-breaking conditions of Grochow and Kellis
    (RECOMB 2007) from the stabilizer chain of Aut(H), which admit one map
    per copy.  bound[i] is the fewest candidates position i can succeed
    with.
    """

    order: tuple[int, ...]
    completes: tuple[tuple[tuple[int, ...], ...], ...]
    keys: tuple[tuple[itemgetter, ...], ...]
    lower: tuple[tuple[int, ...], ...]
    bound: tuple[int, ...]


def _stop(images: list[int], last: int) -> bool:
    return True


def _search(plan: PatternPlan, table, allowed: Sequence[int], leaf) -> bool:
    """Map the plan's positions into a host depth first; True once leaf is.

    table[key] masks the host vertices completing the key's vertices to a
    host edge.  allowed[i] masks the host vertices position i may take; a
    single bit pins it.  The last position is read as a mask, not
    enumerated: leaf gets the images of the earlier positions and the
    nonzero mask of host vertices the last position may take, and returns
    True to stop.
    """
    last = len(plan.order) - 1
    keys, lower, bound = plan.keys, plan.lower, plan.bound
    images = [0] * (last + 1)

    def extend(pos: int, used: int) -> bool:
        cand = allowed[pos] & ~used
        for key in keys[pos]:
            cand &= table[key(images)]
        for p in lower[pos]:
            cand &= -(2 << images[p])  # the vertices above images[p]
        if pos == last:
            return cand != 0 and leaf(images, cand)
        count = cand.bit_count()
        need = bound[pos]
        while count >= need:
            low = cand & -cand
            images[pos] = low.bit_length() - 1
            if extend(pos + 1, used | low):
                return True
            cand ^= low
            count -= 1
        return False

    found = extend(0, 0)
    # extend refers to itself; breaking that cycle frees it, the leaf and the
    # table now rather than at the next garbage collection.
    del extend
    return found


def _completion_table(structure: Graph | UniformHypergraph):
    """r = 2: the adjacency masks.  r >= 3: every ordering of each
    (r-1)-subset of an edge, mapped to the mask of its completing vertices."""
    if structure.r == 2:
        graph = structure if isinstance(structure, Graph) else structure.to_graph()
        return graph.adjacency_masks
    table: defaultdict[EdgeTuple, int] = defaultdict(int)
    for e in structure.edges:
        for j, w in enumerate(e):
            for key in permutations(e[:j] + e[j + 1 :]):
                table[key] |= 1 << w
    return table


def _visit_order(
    structure: Graph | UniformHypergraph, prefix: tuple[int, ...]
) -> tuple[int, ...]:
    """The prefix, then greedily the vertex completing the most edges; ties
    prefer high degree for stronger pruning, then the lower label."""
    incident = [[e for e in structure.edges if v in e] for v in range(structure.n)]
    order = list(prefix)
    while len(order) < structure.n:
        placed = set(order)

        def score(v: int) -> tuple[int, int, int]:
            done = sum(len(placed.intersection(e)) == len(e) - 1 for e in incident[v])
            return done, len(incident[v]), -v

        order.append(max(set(range(structure.n)) - placed, key=score))
    return tuple(order)


@lru_cache(maxsize=256)
def _compile(
    structure: Graph | UniformHypergraph,
    prefix: tuple[int, ...] = (),
    held: tuple[int, ...] = (),
) -> PatternPlan:
    """Plan a pattern's search with the prefix placed first.

    The conditions start after the prefix, from the chain of automorphisms
    fixing it.  Orbits come from the search run from the pattern into
    itself: w is in the orbit of order[t] under the automorphisms fixing
    order[:t] exactly when some map fixing order[:t] sends order[t] to w.
    With held vertices, the group is the automorphisms keeping them
    setwise.
    """
    n = structure.n
    order = _visit_order(structure, prefix)
    pos = {v: i for i, v in enumerate(order)}
    completes: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in structure.edges:
        ps = sorted(pos[w] for w in e)
        completes[ps[-1]].append(tuple(ps[:-1]))
    plain = PatternPlan(
        order,
        tuple(map(tuple, completes)),
        tuple(tuple(itemgetter(*t) for t in c) for c in completes),
        ((),) * n,
        (1,) * n,
    )

    table = _completion_table(structure)
    free = _held_masks(n, held, order)
    lower: list[list[int]] = [[] for _ in range(n)]
    for t in range(len(prefix), n):
        fixed = [1 << v for v in order[:t]]
        for w in order[t + 1 :]:
            if _search(plain, table, fixed + [1 << w & free[t]] + free[t + 1 :], _stop):
                lower[pos[w]].append(t)

    # Position i needs a candidate for itself and for each later position
    # whose candidates lie within its own and whose image lies above its.
    below: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for t in lower[j]:
            below[j] |= below[t] | {t}
    bound = tuple(
        1 + sum(i in below[j] and set(completes[i]) <= set(completes[j]) for j in range(i + 1, n))
        for i in range(n)
    )
    return replace(plain, lower=tuple(map(tuple, lower)), bound=bound)


def _held_masks(n: int, held: tuple[int, ...], order: Sequence[int]) -> list[int]:
    """Per position of order, where an automorphism keeping the held
    vertices setwise may send its vertex: held onto held, the rest onto the
    rest."""
    keep = sum(1 << w for w in held)
    rest = ((1 << n) - 1) ^ keep
    return [keep if v in held else rest for v in order]


@lru_cache(maxsize=256)
def _edge_orbit_plans(
    structure: Graph, held: tuple[int, ...] = (), oriented: bool = True
) -> tuple[PatternPlan, ...]:
    """One plan per orbit of the automorphisms keeping held setwise on the
    (oriented) edges of a graph, pinning the orbit's first edge first.

    A map sending some edge onto a host pair (u, v) can be moved by such an
    automorphism to send that edge's orbit representative there instead.
    When an automorphism swaps an edge's ends, one orientation covers both.
    Every rooted query and closed-pair record compiles here, so this is
    where a hypergraph pattern is turned away.
    """
    if not isinstance(structure, Graph):
        raise TypeError(f"rooted copy queries take graph patterns, got {structure!r}")
    edges = [e for a, b in structure.edges for e in ((a, b), (b, a))]
    plans: list[PatternPlan] = []
    reached: set[tuple[int, int]] = set()
    for x, y in edges:
        if (x, y) in reached:
            continue
        plan = _compile(structure, (x, y), held)
        plans.append(plan)
        free = _held_masks(structure.n, held, plan.order)
        for x2, y2 in edges:
            allowed = [1 << x2 & free[0], 1 << y2 & free[1]] + free[2:]
            if (x2, y2) not in reached and _search(plan, structure.adjacency_masks, allowed, _stop):
                reached.update([(x2, y2)] if oriented else [(x2, y2), (y2, x2)])
    return tuple(plans)


@lru_cache(maxsize=128)
def _closing_plans(pattern: Graph) -> tuple[tuple[PatternPlan, int, int], ...]:
    """Plans finding the pairs an added edge closes, each with the earlier
    and the later position of the pattern edge's ends.

    A pair xy is closed when some map of H sends a pattern edge e = ab onto
    xy and H - e into the graph.  Maps differing by an automorphism close
    the same pairs, so e runs over one edge per orbit of Aut(H), and the
    added edge over one oriented edge of H - e per orbit of the
    automorphisms of H keeping {a, b} setwise; those automorphisms also set
    each plan's conditions.  When a plan places a or b last, that end's
    candidate mask is the set of partners closed with the other end.
    """
    plans = []
    for rep in _edge_orbit_plans(pattern, oriented=False):
        ends = rep.order[:2]
        for plan in _edge_orbit_plans(pattern.without_edges([ends]), held=ends):
            plans.append((plan, *sorted(map(plan.order.index, ends))))
    return tuple(plans)


class ClosedPairs:
    """The H-free process's record of closed pairs in a growing graph.

    masks holds the graph's adjacency bitmasks.  Bit y of closed[x] set
    means adding xy would complete a copy of the pattern through xy; a pair
    may be recorded under either end, so is_closed reads both.  add(u, v)
    adds an edge and closes, for each pattern edge e, the image of e under
    every map of H - e through uv.  A graph only grows, so a closed pair
    stays closed.  With one pattern edge, every pair is closed from the
    start once the host has room for the pattern.
    """

    def __init__(self, pattern: Graph, n: int):
        if pattern.num_edges == 0:
            raise ValueError("pattern must have at least one edge")
        full = (1 << n) - 1
        start = pattern.num_edges == 1 and n >= pattern.n
        self.masks: list[int] = [0] * n
        self.closed: list[int] = [full ^ 1 << x if start else 0 for x in range(n)]
        self._free = [full] * (pattern.n - 2)
        self._plans = [
            (plan, self._closer(first, second, second == pattern.n - 1))
            for plan, first, second in _closing_plans(pattern)
        ]

    def _closer(self, first: int, second: int, masked: bool):
        """The leaf closing the images of positions first and second; when
        second is the last position, its mask closes all its candidates."""
        closed = self.closed

        def close_mask(images: list[int], last: int) -> bool:
            closed[images[first]] |= last
            return False

        def close_pair(images: list[int], last: int) -> bool:
            closed[images[first]] |= 1 << images[second]
            return False

        return close_mask if masked else close_pair

    def add(self, u: int, v: int) -> None:
        self.masks[u] |= 1 << v
        self.masks[v] |= 1 << u
        allowed = [1 << u, 1 << v] + self._free
        for plan, close in self._plans:
            _search(plan, self.masks, allowed, close)

    def is_closed(self, u: int, v: int) -> bool:
        return bool((self.closed[u] >> v | self.closed[v] >> u) & 1)


# Cells of one block's candidate matrix (rows x host vertices).
_BLOCK_CELLS = 1 << 16


def _completion_matrix(edges: np.ndarray, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The host's completion rows, with the codes that index them.

    r = 2: no codes, and the adjacency matrix: row u marks the vertices
    completing u to an edge.  r >= 3: the sorted base-n codes of the
    (r-1)-subsets of host edges, and a (subsets + 1) x n matrix whose row j
    marks the vertices completing subset j to an edge; the last row is all
    false and answers a subset of no edge.
    """
    m, r = edges.shape
    if r == 2:
        matrix = np.zeros((n, n), dtype=bool)
        matrix[edges[:, 0], edges[:, 1]] = True
        matrix[edges[:, 1], edges[:, 0]] = True
        return None, matrix
    # Row (i, j) of subsets is edge i without its j-th vertex, edges[i, j].
    drop = [[c for c in range(r) if c != j] for j in range(r)]
    subsets = edges[:, drop].reshape(m * r, r - 1)
    codes, at = np.unique(_code(subsets.T, n), return_inverse=True)
    matrix = np.zeros((len(codes) + 1, n), dtype=bool)
    matrix[at, edges.ravel()] = True
    return codes, matrix


def _extend(
    plan: PatternPlan,
    pos: int,
    rows: np.ndarray,
    fits: np.ndarray,
    codes: np.ndarray | None,
    matrix: np.ndarray,
) -> np.ndarray:
    """The rows of partial maps extended by every candidate for position
    pos, row by row and each row's candidates in increasing order.

    A candidate fits the degree of the position's pattern vertex, completes
    each of its keys to a host edge, is unused, lies above the images the
    position's conditions name, and leaves at least bound[pos] candidates
    from itself upward.
    """
    n = matrix.shape[1]
    cand = np.repeat(fits[pos][None, :], len(rows), axis=0)
    for key in plan.completes[pos]:
        if codes is None:
            cand &= matrix[rows[:, key[0]]]
        else:
            code = _code(np.sort(rows[:, list(key)], axis=1).T, n)
            at = np.searchsorted(codes, code)
            # A code of no subset, past the last one too, reads the false row.
            cand &= matrix[np.where(np.append(codes, -1)[at] == code, at, len(codes))]
    cand[np.arange(len(rows))[:, None], rows] = False
    if plan.lower[pos]:
        cand &= np.arange(n) > rows[:, list(plan.lower[pos])].max(axis=1)[:, None]
    if plan.bound[pos] > 1:
        left = np.cumsum(cand[:, ::-1], axis=1, dtype=np.min_scalar_type(n))[:, ::-1]
        cand &= left >= plan.bound[pos]
    at, vertex = np.nonzero(cand)
    grown = np.empty((len(at), pos + 1), dtype=np.int64)
    grown[:, :pos] = rows[at]
    grown[:, pos] = vertex
    return grown


def enumerate_copies(
    host: Graph | UniformHypergraph, pattern: Graph | UniformHypergraph
) -> CopyIndex:
    """Enumerate every distinct pattern copy of the host.

    Host and pattern must have the same uniformity r, so a graph and an
    r = 2 hypergraph may meet.  A pattern larger than
    the host simply yields an empty index.  The search visits each copy
    exactly once: the pattern's symmetry-breaking conditions admit one of
    the |Aut(H)| maps onto each copy.

    The partial maps are the rows of an int array, and each position
    extends a block of rows at once (_extend).  A block holds at most
    _BLOCK_CELLS candidate cells, and each is carried to the last position
    before the next; np.nonzero lists hits in row-major order, so the maps
    come out in depth-first order, as the bitmask search would list them.
    """
    if pattern.r != host.r:
        raise ValueError(f"uniformity mismatch: host r={host.r}, pattern r={pattern.r}")
    if pattern.num_edges == 0:
        raise ValueError("pattern must have at least one edge")

    plan = _compile(pattern)
    edges = _edge_array(host)
    codes, matrix = _completion_matrix(edges, host.n)
    degree = np.bincount(edges.ravel(), minlength=host.n)
    needed = np.bincount(_edge_array(pattern).ravel(), minlength=pattern.n)
    fits = degree >= needed[list(plan.order), None]
    step = max(1, _BLOCK_CELLS // max(host.n, 1))
    found = []
    todo = [(0, np.zeros((1, 0), dtype=np.int64))]
    while todo:
        pos, rows = todo.pop()
        if pos == pattern.n:
            found.append(rows)
        elif len(rows) > step:
            todo.extend((pos, rows[i : i + step]) for i in reversed(range(0, len(rows), step)))
        elif len(rows):
            todo.append((pos + 1, _extend(plan, pos, rows, fits, codes, matrix)))
    by_position = np.concatenate(found) if found else np.zeros((0, pattern.n), dtype=np.int64)
    # Positions follow the plan's order; the index wants pattern vertex order.
    return CopyIndex(host, pattern, by_position[:, np.argsort(plan.order)])


def has_copy_through_edge(
    masks: Sequence[int], pattern: Graph, u: int, v: int
) -> bool:
    """Does the graph given by adjacency masks, plus edge (u, v), hold a
    pattern copy through (u, v)?

    masks is read only and may or may not already contain the edge.  Used
    where a graph is asked about once per edge: the greedy alteration scan
    and the builder/painter game's win and red-core checks; with pattern
    K_k it is the blue-clique check.
    """
    table = list(masks)
    table[u] |= 1 << v
    table[v] |= 1 << u
    allowed = [1 << u, 1 << v] + [(1 << len(masks)) - 1] * (pattern.n - 2)
    return any(_search(plan, table, allowed, _stop) for plan in _edge_orbit_plans(pattern))


def _validate_k(host: Graph | UniformHypergraph, k_set: Iterable[int]) -> frozenset[int]:
    ks = frozenset(k_set)
    if any(not (0 <= v < host.n) for v in ks):
        raise ValueError(f"K contains vertices outside 0..{host.n - 1}")
    return ks


def _k_mask(n: int, ks: frozenset[int]) -> np.ndarray:
    """A validated K as a boolean mask over the host vertices 0..n-1."""
    in_k = np.zeros(n, dtype=bool)
    in_k[list(ks)] = True
    return in_k


def _k_set_counts(
    index: CopyIndex, k_sets: Sequence[Collection[int]], covers: Sequence[np.ndarray]
) -> np.ndarray:
    """Edge counts inside each of several vertex sets of the index's host.

    Row 0 counts the host edges inside each set; row 1 + i counts those of
    them that covers[i], a mask over the host edges, marks.  The sets are
    one membership mask (sets x n), gathered over the edge array column by
    column.  The vertices must be host vertices.
    """
    members = np.zeros((len(k_sets), index.host.n), dtype=bool)
    rows = np.repeat(np.arange(len(k_sets)), [len(ks) for ks in k_sets])
    members[rows, np.fromiter(chain.from_iterable(k_sets), dtype=np.int64, count=len(rows))] = True
    inside = reduce(np.logical_and, [members[:, col] for col in index.edge_array.T])
    counts = [np.count_nonzero(inside, axis=1)]
    counts += [np.count_nonzero(inside & cover, axis=1) for cover in covers]
    return np.array(counts)


def k_set_stats(
    index: CopyIndex,
    k_set: Iterable[int],
    family: Sequence[CopyIndex] | None = None,
) -> KSetStats:
    """Edge counts inside K: total, copy-covered, and family-covered.

    With a family of indexes over the same host, covered_by_family counts
    the K-internal edges lying in a copy of any family member.
    """
    ks = _validate_k(index.host, k_set)
    covers = [index.covered]
    if family is not None:
        for member in family:
            if member.host != index.host:
                raise ValueError("family indexes must share the host")
        covers.append(np.logical_or.reduce([m.covered for m in family]))
    inside, covered, *by_family = _k_set_counts(index, [ks], covers)[:, 0].tolist()
    return KSetStats(
        vertices=tuple(sorted(ks)),
        edges_inside=inside,
        covered_inside=covered,
        covered_by_family=by_family[0] if by_family else None,
    )


# ---------------------------------------------------------------------
# Edge-disjoint packings of copies, over canonical copy ids
# ---------------------------------------------------------------------


def _k_members(index: CopyIndex, ks: frozenset[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The copies' edge-id rows in canonical order, which of each row's
    edges lie inside K, and the packing members: the copies with an edge
    inside K that share exactly two vertices with K.  Vertices of K that
    are not host vertices meet no copy."""
    in_k = _k_mask(index.host.n, ks)
    rows = index.edge_ids[index.order]
    inside = in_k[index.edge_array[rows]].all(axis=2)
    two_vertex = np.count_nonzero(in_k[index.images[index.order]], axis=1) == 2
    return rows, inside, inside.any(axis=1) & two_vertex


def _conflicts(rows: Sequence[Sequence[int]]) -> list[int]:
    """Shared-edge conflict masks of rows of edge ids: bit j of mask i is
    set when rows i != j have an edge in common."""
    owners: defaultdict[int, int] = defaultdict(int)
    for j, row in enumerate(rows):
        for e in row:
            owners[e] |= 1 << j
    return [reduce(or_, map(owners.__getitem__, row)) & ~(1 << j) for j, row in enumerate(rows)]


def _greedy_pack(rows: Iterable[Sequence[int]]) -> list[int]:
    """Positions of the rows of edge ids that an in-order scan keeps when
    each must share no edge with those kept before it.  The packing is
    inclusion-maximal: every row left out meets a kept one."""
    used = 0
    kept = []
    for j, row in enumerate(rows):
        bits = reduce(or_, [1 << e for e in row], 0)
        if not used & bits:
            used |= bits
            kept.append(j)
    return kept


def packing_report(
    index: CopyIndex, k_set: Iterable[int], copy_cap: int = 5000
) -> PackingReport:
    """Audit the covered-edge bound for one K via exact and greedy packings.

    The exact maximum runs on the conflict graph of copies sharing exactly
    two vertices with K (adjacent iff they share an edge); the remaining
    K-touching copies and the qualifying overlapping copy pairs are packed
    greedily in canonical copy order, which is inclusion-maximal.
    """
    if index.host.r != 2:
        raise TypeError("packing reports are defined for graph hosts only")
    ks = _validate_k(index.host, k_set)
    rows, inside, members = _k_members(index, ks)
    touching = inside.any(axis=1)
    two_vertex = np.flatnonzero(members).tolist()

    if len(two_vertex) > copy_cap:
        raise PackingInfeasibleError(
            f"exact packing infeasible: {len(two_vertex)} copies exceed cap {copy_cap}"
        )

    member_rows = rows[members].tolist()
    conflict = _conflicts(member_rows)
    mis = max_independent_set(conflict)
    if not mis.exact:
        raise RuntimeError("the unbudgeted packing search returned an inexact size")
    witness = tuple(two_vertex[j] for j in mis.members)

    greedy_touching = len(_greedy_pack(rows[touching & ~members].tolist()))

    # A member shares with K the two ends of its one edge inside K.
    k_edge = rows[members][inside[members]].tolist()
    unions = [
        member_rows[a] + member_rows[b]
        for a, b in combinations(range(len(member_rows)), 2)
        if conflict[a] >> b & 1 and k_edge[a] != k_edge[b]
    ]
    greedy_pairs = len(_greedy_pack(unions))

    covered = k_set_stats(index, ks).covered_inside
    e_h = index.pattern_edge_count
    rhs = mis.size + 2 * e_h * e_h * (greedy_touching + greedy_pairs) * index.max_copies_per_edge
    return PackingReport(
        vertices=tuple(sorted(ks)),
        touching_count=int(np.count_nonzero(touching)),
        two_vertex_count=len(two_vertex),
        max_disjoint_two_vertex=mis.size,
        greedy_disjoint_touching=greedy_touching,
        greedy_disjoint_pair_unions=greedy_pairs,
        covered_inside=covered,
        bound_rhs=rhs,
        bound_holds=covered <= rhs,
        max_disjoint_witness=witness,
    )


def global_copy_stats(index: CopyIndex) -> GlobalCopyStats:
    """Total copy count and per-vertex copy counts.

    The identity total = sum(per_vertex) / v_H holds exactly because every
    copy has exactly v_H vertices.
    """
    per_vertex = np.bincount(index.images.ravel(), minlength=index.host.n)
    return GlobalCopyStats(total=len(index), per_vertex=tuple(per_vertex.tolist()))
