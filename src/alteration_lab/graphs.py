"""Immutable graph and r-uniform hypergraph structures.

Vertices are dense integers 0..n-1.  Edges are stored canonically (sorted
tuples) so that equal structures compare and serialize identically.  Both
types round-trip through a line-based text format and a JSON object form,
which one private base class defines for both.  Uniformity is the
attribute r: a Graph has r = 2 as a class attribute, and a hypergraph
carries its own; the Graph forms hold no r.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Sequence

Edge = tuple[int, int]


def canonical_pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _parse_text(text: str, kind: str, fields: str) -> tuple[list[int], list[list[int]]]:
    """Header integers and edge rows of the line format, checked line by line.

    fields names the header fields, such as 'n m r'; each of the m edge
    lines must then hold r vertices (2 for graphs).  Errors name the
    1-based line of the text.
    """
    rows = [(i, line.split()) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not rows:
        raise ValueError(f"empty {kind} text")

    def ints(lineno: int, tokens: list[str]) -> list[int]:
        try:
            return [int(x) for x in tokens]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {' '.join(tokens)!r}") from None

    header = rows[0][1]
    if len(header) != len(fields.split()):
        raise ValueError(f"{kind} header must be '{fields}', got {' '.join(header)}")
    values = ints(*rows[0])
    m = values[1]
    width = values[2] if len(values) == 3 else 2  # a hypergraph header ends in r
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    for lineno, tokens in rows[1:]:
        if len(tokens) != width:
            raise ValueError(
                f"line {lineno}: an edge line holds {width} vertices, got {' '.join(tokens)!r}"
            )
    return values, [ints(lineno, tokens) for lineno, tokens in rows[1:]]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_fields(obj, kind: str, keys: Sequence[str]) -> list:
    """The named fields of a JSON object form, or ValueError naming a missing
    or mistyped one: n and r are integers, edges a list of integer lists,
    each of r vertices (2 for graphs)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{kind} JSON object has no {key!r} key")
        value = obj[key]
        if key == "edges":
            rows = isinstance(value, list) and all(isinstance(e, list) for e in value)
            if not (rows and all(_is_int(v) for e in value for v in e)):
                raise ValueError(f"{kind} JSON field 'edges' must be a list of integer lists")
            width = obj["r"] if "r" in keys else 2
            for e in value:
                if len(e) != width:
                    raise ValueError(f"{kind} JSON field 'edges': edge {e} does not hold {width} vertices")
        elif not _is_int(value):
            raise ValueError(f"{kind} JSON field {key!r} must be an integer, got {type(value).__name__}")
    return [obj[key] for key in keys]


class _Structure:
    """What graphs and r-uniform hypergraphs share: the edge count, equality
    and hashing, and the text and JSON forms.

    _fields names the header of both forms: 'n m' for graphs, 'n m r' for
    hypergraphs.  The constructor takes the header values but m, in order,
    then the edges.
    """

    __slots__ = ()
    _kind: str
    _fields: tuple[str, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.r == other.r
            and self.edge_set == other.edge_set
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.r, self.edge_set))
        return self._hash

    # -- serialization ------------------------------------------------

    def _header(self) -> list[int]:
        return [self.num_edges if f == "m" else getattr(self, f) for f in self._fields]

    def to_text(self) -> str:
        lines = [" ".join(map(str, self._header()))]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        (n, _, *rest), edges = _parse_text(text, cls._kind, " ".join(cls._fields))
        return cls(n, *rest, edges)

    def to_json_obj(self) -> dict:
        obj = dict(zip(self._fields, self._header()))
        obj["edges"] = [list(e) for e in self.edges]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict):
        n, *rest, edges = _json_fields(obj, cls._kind, ("n", *cls._fields[2:], "edges"))
        s = cls(n, *rest, [tuple(e) for e in edges])
        if "m" in obj and obj["m"] != s.num_edges:
            raise ValueError("edge count field disagrees with edge list")
        return s

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_obj(json.loads(text))


class Graph(_Structure):
    """Simple undirected graph on vertices 0..n-1: the r = 2 structure.

    Immutable after construction: the edge set and the adjacency
    bitmasks, built on first read, never change.  Safe to share across
    threads.  Duplicate input edges collapse; loops are rejected.
    """

    __slots__ = ("n", "edges", "edge_set", "_masks", "_hash")
    r = 2
    _kind = "graph"
    _fields = ("n", "m")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            canon.add(canonical_pair(u, v))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(canon))
        self.edge_set: frozenset[Edge] = frozenset(self.edges)
        self._masks: tuple[int, ...] | None = None
        self._hash: int | None = None

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Adjacency as integer bitsets, one mask per vertex (computed once)."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = tuple(masks)
        return self._masks

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_pair(u, v) in self.edge_set

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def edges_inside(self, vertices: Iterable[int]) -> tuple[Edge, ...]:
        """Edges with both endpoints in the given vertex set."""
        vs = set(vertices)
        return tuple(e for e in self.edges if e[0] in vs and e[1] in vs)

    def induced(self, vertices: Iterable[int], relabel: bool = False) -> "Graph":
        """Induced subgraph on a vertex subset.

        With relabel=True the kept vertices are renumbered 0..len-1 in
        ascending order of their original labels; otherwise the vertex
        count stays n and outside vertices become isolated.
        """
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("induced subgraph vertices out of range")
        inside = self.edges_inside(vs)
        if not relabel:
            return Graph(self.n, inside)
        index = {v: i for i, v in enumerate(vs)}
        return Graph(len(vs), [(index[u], index[v]) for u, v in inside])

    def without_edges(self, removed: Iterable[Sequence[int]]) -> "Graph":
        gone = {canonical_pair(u, v) for u, v in removed}
        return Graph(self.n, self.edge_set - gone)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    def __reduce__(self):
        return (Graph, (self.n, self.edges))


class UniformHypergraph(_Structure):
    """r-uniform hypergraph on vertices 0..n-1 with canonical sorted edges."""

    __slots__ = ("n", "r", "edges", "edge_set", "_hash")
    _kind = "hypergraph"
    _fields = ("n", "m", "r")

    def __init__(self, n: int, r: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if r < 2:
            raise ValueError(f"uniformity must be at least 2, got {r}")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r or len(set(t)) != r:
                raise ValueError(f"edge {tuple(e)} is not a set of {r} distinct vertices")
            if not (0 <= t[0] and t[-1] < n):
                raise ValueError(f"edge {t} out of range for n={n}")
            canon.add(t)
        self.n = n
        self.r = r
        self.edges: tuple[tuple[int, ...], ...] = tuple(sorted(canon))
        self.edge_set: frozenset[tuple[int, ...]] = frozenset(self.edges)
        self._hash: int | None = None

    def edges_inside(self, vertices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        vs = set(vertices)
        return tuple(e for e in self.edges if all(v in vs for v in e))

    def to_graph(self) -> Graph:
        """Lossless conversion for the r=2 case."""
        if self.r != 2:
            raise ValueError(f"only r=2 converts to Graph, got r={self.r}")
        return Graph(self.n, self.edges)

    @classmethod
    def from_graph(cls, g: Graph) -> "UniformHypergraph":
        return cls(g.n, 2, g.edges)

    def __repr__(self) -> str:
        return f"UniformHypergraph(n={self.n}, r={self.r}, m={self.num_edges})"

    def __reduce__(self):
        return (UniformHypergraph, (self.n, self.r, self.edges))


# -- constructors for common patterns ---------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    if not parts or any(t < 1 for t in parts):
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for t in parts:
        bounds.append(range(start, start + t))
        start += t
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges.extend((u, v) for u in bounds[i] for v in bounds[j])
    return Graph(start, edges)


def complete_uniform(n: int, r: int) -> UniformHypergraph:
    if n < r:
        raise ValueError(f"complete {r}-uniform hypergraph needs n >= r, got n={n}")
    return UniformHypergraph(n, r, combinations(range(n), r))


def tight_path(num_edges: int, r: int) -> UniformHypergraph:
    """r-uniform tight path: consecutive windows of width r on a vertex line."""
    if num_edges < 1:
        raise ValueError("tight path needs at least one edge")
    n = r + num_edges - 1
    return UniformHypergraph(n, r, [tuple(range(i, i + r)) for i in range(num_edges)])


def _graph_if_2_uniform(h: UniformHypergraph) -> Graph | UniformHypergraph:
    return h.to_graph() if h.r == 2 else h


def pattern_from_name(name: str) -> Graph | UniformHypergraph:
    """Parse a pattern name.

    Grammar: ``K5`` (clique), ``C5`` (cycle), ``P4`` (path), ``K2,2,3``
    (complete multipartite), ``K4r3`` (complete r-uniform), ``TP2r3``
    (r-uniform tight path with the given number of edges).  An r=2 name
    gives the Graph.
    """
    s = name.strip()
    try:
        if s.startswith("TP") and "r" in s:
            m_str, r_str = s[2:].split("r", 1)
            return _graph_if_2_uniform(tight_path(int(m_str), int(r_str)))
        if s.startswith("K") and "r" in s and "," not in s:
            n_str, r_str = s[1:].split("r", 1)
            return _graph_if_2_uniform(complete_uniform(int(n_str), int(r_str)))
        if s.startswith("K") and "," in s:
            return complete_multipartite([int(t) for t in s[1:].split(",")])
        if s.startswith("K"):
            return complete_graph(int(s[1:]))
        if s.startswith("C"):
            return cycle_graph(int(s[1:]))
        if s.startswith("P"):
            return path_graph(int(s[1:]))
    except ValueError as exc:
        raise ValueError(f"cannot parse pattern name {name!r}: {exc}") from exc
    raise ValueError(f"unknown pattern name {name!r}")


def load_structure(path_or_name: str, text: str | None = None) -> Graph | UniformHypergraph:
    """Load a graph or hypergraph from file text, auto-detected by header width
    or an ``r`` key; an r=2 hypergraph loads as the Graph."""
    if text is None:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"{path_or_name}: empty structure text")
    if stripped.startswith("{"):
        obj = json.loads(stripped)
        if "r" in obj:
            return _graph_if_2_uniform(UniformHypergraph.from_json_obj(obj))
        return Graph.from_json_obj(obj)
    header = stripped.splitlines()[0].split()
    if len(header) == 3:
        return _graph_if_2_uniform(UniformHypergraph.from_text(text))
    return Graph.from_text(text)
