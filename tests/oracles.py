"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately naive: direct enumeration with Fractions,
permutation counting, and subset scans.  The oracles never share code with
the production paths they audit.  The reference packing audit and tail
loop are the earlier scans over Copy objects; they reuse copy enumeration,
the exact independent set and the random streams, not the packing code.
The reference density report and minimal core are the earlier two-walk
scan over vertex subsets in (size, lexicographic) order.  The reference
enumeration is the earlier depth-first evaluation of the compiled pattern
plan over bitmasks, collecting its maps in one flat int list.  The
reference clique search is the earlier branch and bound that renumbered
the graph at every call and colored its root twice.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from alteration_lab.cliques import CliqueResult, max_independent_set
from alteration_lab.copies import (
    PackingInfeasibleError,
    PackingReport,
    _compile,
    _completion_table,
    _search,
    enumerate_copies,
)
from alteration_lab.density import DensityReport
from alteration_lab.graphs import Graph, UniformHypergraph, canonical_pair, complete_graph
from alteration_lab.randomness import RandomSource


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


def reference_enumerate_images(host, pattern) -> np.ndarray:
    """The image rows enumerate_copies gives (copies x v_H, pattern vertex
    order), from the depth-first bitmask search of the same plan: each map's
    last position is read as a mask, and the maps go to one flat list."""
    plan = _compile(pattern)
    flat: list[int] = []

    def keep(images: list[int], last: int) -> bool:
        while last:
            low = last & -last
            images[-1] = low.bit_length() - 1
            flat.extend(images)
            last ^= low
        return False

    _search(plan, _completion_table(host), [(1 << host.n) - 1] * pattern.n, keep)
    by_position = np.array(flat, dtype=np.int64).reshape(-1, pattern.n)
    return by_position[:, np.argsort(plan.order)]


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


def _shared_edge_masks(members) -> list[int]:
    """Conflict masks over Copy objects: adjacent iff they share an edge."""
    edge_owners: dict = {}
    for j, c in enumerate(members):
        for e in c.edges:
            edge_owners.setdefault(e, []).append(j)
    masks = [0] * len(members)
    for owners in edge_owners.values():
        for a, b in combinations(owners, 2):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return masks


def reference_packing_report(index, k_set, copy_cap: int = 5000):
    """The packing audit as a scan over Copy objects in canonical order:
    touching copies, the two-vertex members, their shared-edge conflict
    graph and the two greedy edge-disjoint packings."""
    ks = frozenset(k_set)
    copies = index.copies
    touching = [i for i, c in enumerate(copies) if any(ks.issuperset(e) for e in c.edges)]
    two_vertex = [i for i in touching if len(copies[i].vertices & ks) == 2]
    if len(two_vertex) > copy_cap:
        raise PackingInfeasibleError(f"{len(two_vertex)} copies exceed cap {copy_cap}")
    mis = max_independent_set(_shared_edge_masks([copies[i] for i in two_vertex]))
    witness = tuple(two_vertex[j] for j in mis.members)

    used: set = set()
    greedy_touching = 0
    for i in touching:
        if i not in two_vertex and used.isdisjoint(copies[i].edges):
            greedy_touching += 1
            used.update(copies[i].edges)
    used = set()
    greedy_pairs = 0
    for a, b in combinations(two_vertex, 2):
        ca, cb = copies[a], copies[b]
        if ca.edges & cb.edges and ca.vertices & ks != cb.vertices & ks:
            union = ca.edges | cb.edges
            if used.isdisjoint(union):
                greedy_pairs += 1
                used.update(union)

    covered = sum(ks.issuperset(e) for e in index.covered_edges)
    e_h = index.pattern.num_edges
    rhs = mis.size + 2 * e_h * e_h * (greedy_touching + greedy_pairs) * index.max_copies_per_edge
    return PackingReport(
        vertices=tuple(sorted(ks)),
        touching_count=len(touching),
        two_vertex_count=len(two_vertex),
        max_disjoint_two_vertex=mis.size,
        greedy_disjoint_touching=greedy_touching,
        greedy_disjoint_pair_unions=greedy_pairs,
        covered_inside=covered,
        bound_rhs=rhs,
        bound_holds=covered <= rhs,
        max_disjoint_witness=witness,
    )


def reference_tail_check(n, pattern, k_set, p, trials, seed, x_grid=None):
    """The disjoint-packing tail audit over Copy objects: the members share
    exactly two vertices with K and one edge inside it, and each trial
    relabels the present members' conflict masks before its exact packing.
    Returns (summary, plot rows) as run_tail_check writes them."""
    ks = frozenset(k_set)
    members = [
        c for c in enumerate_copies(complete_graph(n), pattern).copies
        if len(c.vertices & ks) == 2 and any(ks.issuperset(e) for e in c.edges)
    ]
    mu = sum(p ** len(c.edges) for c in members)
    conflict = _shared_edge_masks(members)
    packing_bound = max_independent_set(conflict).size if members else 0
    if x_grid is None:
        x_grid = [x for x in range(1, packing_bound + 1) if x > mu]

    pairs = list(combinations(range(n), 2))
    pair_index = {e: i for i, e in enumerate(pairs)}
    member_edges = [sorted(pair_index[e] for e in c.edges) for c in members]
    source = RandomSource(seed)
    z_hist: dict[int, int] = {}
    for t in range(trials):
        bits = source.stream("tail", t).random(len(pairs)) < p
        present = [j for j, es in enumerate(member_edges) if all(bits[i] for i in es)]
        local = {j: i for i, j in enumerate(present)}
        masks = [0] * len(present)
        for i, j in enumerate(present):
            for j2 in present:
                if conflict[j] >> j2 & 1:
                    masks[i] |= 1 << local[j2]
        z = max_independent_set(masks).size
        z_hist[z] = z_hist.get(z, 0) + 1

    plot_rows = []
    for x in x_grid:
        empirical = sum(c for z, c in z_hist.items() if z >= x) / trials
        bound = (math.e * mu / x) ** x if mu > 0 else 0.0
        capped = min(bound, 1.0)
        sigma = math.sqrt(capped * (1 - capped) / trials)
        plot_rows.append(
            {"x": x, "empirical": empirical, "bound": bound, "tolerance": 3 * sigma,
             "ok": empirical <= capped + 3 * sigma}
        )
    summary = {
        "n": n,
        "pattern": pattern.to_json_obj(),
        "k_set": sorted(ks),
        "p": p,
        "trials": trials,
        "seed": seed,
        "members": len(members),
        "mu": mu,
        "packing_bound": packing_bound,
        "z_histogram": {str(z): c for z, c in sorted(z_hist.items())},
        "grid": [row["x"] for row in plot_rows],
        "all_ok": all(row["ok"] for row in plot_rows),
    }
    return summary, plot_rows


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


# -- the clique search CliqueSearch replaced -----------------------------


def _reference_color_order(candidates: int, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set.

    Returns vertices grouped by ascending color together with their color
    number; the final color count upper-bounds any clique inside the set.
    """
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    remaining = candidates
    while remaining:
        color += 1
        available = remaining
        while available:
            v = (available & -available).bit_length() - 1
            bit = 1 << v
            available &= ~masks[v] & ~bit
            remaining &= ~bit
            order.append(v)
            bounds.append(color)
    return order, bounds


def reference_max_clique(masks: Sequence[int], budget: int | None = None) -> CliqueResult:
    """Exact maximum clique of the graph given by adjacency bitmasks.

    budget caps branch-and-bound node expansions; when exhausted the result
    carries exact=False with the best clique found and a certified upper
    bound (the root coloring number).
    """
    n = len(masks)
    if n == 0:
        return CliqueResult(0, (), True, 0, 0)

    # Renumber by descending degree for better coloring bounds.
    perm = sorted(range(n), key=lambda v: (-masks[v].bit_count(), v))
    back = [0] * n
    for new, old in enumerate(perm):
        back[old] = new
    re_masks = [0] * n
    for old in range(n):
        m = masks[old]
        new_m = 0
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            new_m |= 1 << back[w]
        re_masks[back[old]] = new_m

    full = (1 << n) - 1
    _, root_bounds = _reference_color_order(full, re_masks)
    root_bound = root_bounds[-1] if root_bounds else 0

    best_size = 0
    best: list[int] = []
    stack: list[int] = []
    expansions = 0

    def expand(candidates: int) -> bool:
        """False when the budget ran out inside this subtree."""
        nonlocal best_size, best, expansions
        expansions += 1
        if budget is not None and expansions > budget:
            return False
        order, bounds = _reference_color_order(candidates, re_masks)
        for i in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[i] <= best_size:
                return True
            v = order[i]
            candidates &= ~(1 << v)
            stack.append(v)
            nxt = candidates & re_masks[v]
            if nxt:
                if not expand(nxt):
                    stack.pop()
                    return False
            elif len(stack) > best_size:
                best_size = len(stack)
                best = stack.copy()
            stack.pop()
        return True

    exact = expand(full)
    del expand  # a self-referencing closure: free it now, not at the next collection
    upper = best_size if exact else max(best_size, root_bound)
    members = tuple(sorted(perm[v] for v in best))
    return CliqueResult(best_size, members, exact, upper, expansions)


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


# -- the two-walk density scan the subset-table pass replaced -----------


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


def reference_density_report(pattern: Graph | UniformHypergraph, uniformity: int) -> DensityReport:
    """The density report as two walks over (size, lexicographic) subsets:
    the first finds the maximum and its first subset, the second looks for
    a proper subset tying it."""
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


def reference_minimal_balanced_core(pattern: Graph) -> Graph:
    """The fewest-edge induced subgraph without isolated vertices at the
    2-density, ties broken on the edge list; the pattern itself when it is
    strictly balanced."""
    report = reference_density_report(pattern, 2)
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
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, _, subset = candidates[0]
    return pattern.induced(subset, relabel=True)
