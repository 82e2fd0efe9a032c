"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately naive: direct enumeration with Fractions,
permutation counting, and subset scans.  The oracles never share code with
the production paths they audit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from alteration_lab.graphs import Graph, canonical_pair


def brute_two_density(graph: Graph) -> Fraction:
    """Max over vertex subsets of (induced edges - 1)/(size - 2), plus the
    single-edge 1/2 term."""
    best: Fraction | None = None
    for size in range(2, graph.n + 1):
        for subset in combinations(range(graph.n), size):
            inside = {v for v in subset}
            e = sum(1 for u, v in graph.edges if u in inside and v in inside)
            if size == 2 and e == 1:
                value = Fraction(1, 2)
            elif size >= 3 and e >= 1:
                value = Fraction(e - 1, size - 2)
            else:
                continue
            if best is None or value > best:
                best = value
    assert best is not None, "oracle called on an edgeless graph"
    return best


def brute_density_all_edge_subsets(graph: Graph) -> Fraction:
    """Max density over ALL subgraphs (every nonempty edge subset)."""
    best: Fraction | None = None
    for size in range(1, graph.num_edges + 1):
        for edges in combinations(graph.edges, size):
            support = {v for e in edges for v in e}
            if size == 1:
                value = Fraction(1, 2)
            elif len(support) >= 3:
                value = Fraction(size - 1, len(support) - 2)
            else:
                continue
            if best is None or value > best:
                best = value
    assert best is not None
    return best


def automorphism_count(pattern: Graph) -> int:
    count = 0
    for perm in permutations(range(pattern.n)):
        if all(
            canonical_pair(perm[u], perm[v]) in pattern.edge_set
            for u, v in pattern.edges
        ):
            count += 1
    return count


def injection_count(host: Graph, pattern: Graph) -> int:
    """Injective pattern-edge-preserving maps from pattern to host."""
    if pattern.n > host.n:
        return 0
    count = 0
    for image in permutations(range(host.n), pattern.n):
        if all(
            canonical_pair(image[u], image[v]) in host.edge_set
            for u, v in pattern.edges
        ):
            count += 1
    return count


def copy_count_oracle(host: Graph, pattern: Graph) -> int:
    """Copies = injections / automorphisms (patterns without isolated vertices)."""
    injections = injection_count(host, pattern)
    if injections == 0:
        return 0
    aut = automorphism_count(pattern)
    assert injections % aut == 0, "injection count must be a multiple of |Aut|"
    return injections // aut


def hypergraph_injection_count(host, pattern) -> int:
    count = 0
    for image in permutations(range(host.n), pattern.n):
        if all(
            tuple(sorted(image[v] for v in e)) in host.edge_set
            for e in pattern.edges
        ):
            count += 1
    return count


def hypergraph_copy_oracle(host, pattern) -> int:
    injections = hypergraph_injection_count(host, pattern)
    if injections == 0:
        return 0
    aut = hypergraph_injection_count(pattern, pattern)
    assert injections % aut == 0
    return injections // aut


def brute_copies(host, pattern) -> list[tuple[frozenset, frozenset]]:
    """(vertex set, edge set) of every pattern copy, in canonical copy order:
    sorted edges, then sorted vertices.  Graphs and hypergraphs alike."""
    found = set()
    for image in permutations(range(host.n), pattern.n):
        edges = frozenset(tuple(sorted(image[v] for v in e)) for e in pattern.edges)
        if edges <= host.edge_set:
            found.add((frozenset(image), edges))
    return sorted(found, key=lambda c: (tuple(sorted(c[1])), tuple(sorted(c[0]))))


def brute_copy_stats(n: int, copies) -> tuple[dict, int, int, tuple[int, ...]]:
    """Coverage, the per-edge and per-edge-pair copy maxima and the
    per-vertex copy counts, recounted from (vertex set, edge set) copies."""
    coverage: dict = {}
    for i, (_, edges) in enumerate(copies):
        for e in edges:
            coverage.setdefault(e, []).append(i)
    pairs = Counter(pair for _, edges in copies for pair in combinations(sorted(edges), 2))
    per_vertex = tuple(sum(v in vertices for vertices, _ in copies) for v in range(n))
    return (
        {e: tuple(ids) for e, ids in coverage.items()},
        max((len(ids) for ids in coverage.values()), default=0),
        max(pairs.values(), default=0),
        per_vertex,
    )


def brute_k_set_counts(host, covered_sets, k_set) -> tuple[int, list[int], int]:
    """Edges inside K, covered edges inside K per covered-edge set, and
    edges inside K lying in any of the sets."""
    ks = set(k_set)
    inside = [e for e in host.edges if ks.issuperset(e)]
    per_set = [sum(e in covered for e in inside) for covered in covered_sets]
    return len(inside), per_set, sum(any(e in c for c in covered_sets) for e in inside)


def greedy_adversarial_k(host, covered, seed_edge, k: int) -> tuple[int, ...]:
    """K grown from a covered edge by adding, while |K| < k, the lowest
    unchosen vertex completing the most covered edges into K."""
    by_vertex: dict[int, list[int]] = {}
    for i, e in enumerate(covered):
        for v in e:
            by_vertex.setdefault(v, []).append(i)
    outside = [len(e) for e in covered]
    score = [0] * host.n
    chosen: set[int] = set()

    def add(u: int) -> None:
        chosen.add(u)
        for i in by_vertex.get(u, ()):
            outside[i] -= 1
            if outside[i] == 0:
                score[u] -= 1  # the edge just went fully internal
            elif outside[i] == 1:
                for w in covered[i]:
                    if w not in chosen:
                        score[w] += 1
                        break

    for v in seed_edge:
        add(v)
    while len(chosen) < k:
        best_v, best_score = -1, -1
        for v in range(host.n):
            if v not in chosen and score[v] > best_score:
                best_v, best_score = v, score[v]
        add(best_v)
    return tuple(sorted(chosen))


def brute_max_edge_disjoint(edge_sets) -> int:
    """Exact maximum edge-disjoint subcollection by subset enumeration."""
    sets = [frozenset(es) for es in edge_sets]
    best = 0
    for mask in range(1 << len(sets)):
        if mask.bit_count() <= best:
            continue
        chosen = [sets[i] for i in range(len(sets)) if mask >> i & 1]
        union = set()
        total = 0
        for es in chosen:
            union |= es
            total += len(es)
        if len(union) == total:
            best = len(chosen)
    return best


def brute_max_clique(masks) -> int:
    n = len(masks)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        vs = [v for v in range(n) if mask >> v & 1]
        if all(masks[u] >> v & 1 for u, v in combinations(vs, 2)):
            best = len(vs)
    return best


def brute_independence_number(graph: Graph) -> int:
    best = 0
    for mask in range(1 << graph.n):
        if mask.bit_count() <= best:
            continue
        vs = [v for v in range(graph.n) if mask >> v & 1]
        if all(not graph.has_edge(u, v) for u, v in combinations(vs, 2)):
            best = len(vs)
    return best


def brute_has_clique(adjacency, vertices, size: int) -> bool:
    """Any clique of the given size among the listed vertices?"""
    if size <= 1:
        return len(vertices) >= size
    for subset in combinations(sorted(vertices), size):
        if all(v in adjacency[u] for u, v in combinations(subset, 2)):
            return True
    return False


# -- isomorphism testing for the exhaustive corpus ---------------------


def wl_colors(graph: Graph, rounds: int = 3) -> tuple[int, ...]:
    """Stable vertex colors from iterated neighborhood refinement.

    Colors are renumbered each round by sorted signature, which keeps them
    isomorphism-invariant.
    """
    colors = [graph.degree(v) for v in range(graph.n)]
    for _ in range(rounds):
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in graph.adjacency[v])))
            for v in range(graph.n)
        ]
        relabel = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [relabel[sig] for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    return tuple(colors)


def invariant_key(graph: Graph) -> tuple:
    return (graph.n, graph.num_edges, tuple(sorted(wl_colors(graph))))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return False
    c1, c2 = wl_colors(g1), wl_colors(g2)
    if sorted(c1) != sorted(c2):
        return False
    by_color: dict[int, list[int]] = {}
    for w in range(g2.n):
        by_color.setdefault(c2[w], []).append(w)
    # Rarest colors first shrink the branching factor.
    order = sorted(range(g1.n), key=lambda v: (len(by_color[c1[v]]), -g1.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == g1.n:
            return True
        v = order[i]
        for w in by_color[c1[v]]:
            if w in used:
                continue
            ok = True
            for u, x in mapping.items():
                if (u in g1.adjacency[v]) != (x in g2.adjacency[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if backtrack(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return backtrack(0)
