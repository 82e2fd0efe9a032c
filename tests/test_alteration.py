import random

import pytest

from alteration_lab.alteration import (
    disjoint_collection_alteration,
    greedy_alteration,
    independence_number,
    ramsey_certificate,
    refined_alteration,
)
from alteration_lab import copies
from alteration_lab.copies import enumerate_copies, k_set_stats
from alteration_lab.graphs import Graph, complete_graph, cycle_graph
from alteration_lab.randomness import RandomSource, sample_gnp

from oracles import brute_independence_number

K3 = complete_graph(3)
K4 = complete_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)

PATTERNS = [K3, C4, K4, C5]


def test_refined_examples():
    assert refined_alteration(K4, K3).output_graph.num_edges == 0
    assert refined_alteration(C5, K3).output_graph == C5
    host = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    out = refined_alteration(host, K3)
    assert out.output_graph.edge_set == frozenset({(3, 4)})
    assert out.removed == frozenset({(0, 1), (0, 2), (1, 2)})


def test_greedy_examples():
    assert greedy_alteration(K3, K3, list(K3.edges)).output_graph.num_edges == 2
    tri_free = cycle_graph(6)
    assert greedy_alteration(tri_free, K3, list(tri_free.edges)).output_graph == tri_free
    out = greedy_alteration(K4, K3, list(K4.edges))
    assert out.output_graph.edge_set == frozenset({(0, 1), (0, 2), (0, 3)})


def test_greedy_requires_permutation():
    with pytest.raises(ValueError):
        greedy_alteration(K4, K3, list(K4.edges)[:-1])
    with pytest.raises(ValueError):
        greedy_alteration(K4, K3, list(K4.edges) + [(0, 1)])


def test_disjoint_collection_examples():
    out = disjoint_collection_alteration(K4, K3)
    assert len(out.collection) == 1
    assert out.output_graph.num_edges == 3
    degrees = sorted(out.output_graph.degree(v) for v in range(4))
    assert degrees == [1, 1, 1, 3]  # a 3-star
    assert disjoint_collection_alteration(C5, K3).output_graph == C5
    assert out.method == "disjoint-collection"


def test_ramsey_certificate_builds_only_the_reported_copy(monkeypatch):
    host = sample_gnp(14, 0.5, RandomSource(8).stream("host"))
    first = enumerate_copies(host, K3).copies[0]
    built = []
    real_copy = copies.Copy

    def counting_copy(**fields):
        built.append(fields)
        return real_copy(**fields)

    monkeypatch.setattr(copies, "Copy", counting_copy)
    cert = ramsey_certificate(host, K3, 5)
    assert cert.status == "copy-found"
    assert len(built) == 1 and cert.violating_copy == first


def test_disjoint_collection_builds_only_chosen_copies(monkeypatch):
    host = sample_gnp(14, 0.5, RandomSource(8).stream("host"))
    every_copy = enumerate_copies(host, K3).copies
    built = []
    real_copy = copies.Copy

    def counting_copy(**fields):
        built.append(fields)
        return real_copy(**fields)

    monkeypatch.setattr(copies, "Copy", counting_copy)
    out = disjoint_collection_alteration(host, K3)
    assert 0 < len(built) == len(out.collection) < len(every_copy)
    # The collection is the in-order edge-disjoint scan of the canonical copies.
    used: set = set()
    chosen = []
    for c in every_copy:
        if used.isdisjoint(c.edges):
            used |= c.edges
            chosen.append(c)
    assert out.collection == tuple(chosen)
    assert out.removed == frozenset(used)


def test_removal_nesting_on_k4():
    refined = refined_alteration(K4, K3)
    collected = disjoint_collection_alteration(K4, K3)
    assert refined.output_graph.edge_set <= collected.output_graph.edge_set <= K4.edge_set


def test_all_methods_pattern_free_random():
    rng = random.Random(23)
    src = RandomSource(23)
    for trial in range(40):
        n = rng.randint(5, 18)
        host = sample_gnp(n, rng.uniform(0.2, 0.6), src.stream("alt", trial))
        pattern = PATTERNS[trial % len(PATTERNS)]
        refined = refined_alteration(host, pattern)
        greedy = greedy_alteration(host, pattern, list(host.edges))
        collected = disjoint_collection_alteration(host, pattern)
        for result in (refined, greedy, collected):
            assert len(enumerate_copies(result.output_graph, pattern)) == 0
            assert result.output_graph.edge_set == host.edge_set - result.removed
        assert refined.output_graph.edge_set <= collected.output_graph.edge_set


def test_refined_per_k_identity():
    rng = random.Random(29)
    src = RandomSource(29)
    for trial in range(15):
        n = rng.randint(6, 16)
        host = sample_gnp(n, rng.uniform(0.3, 0.6), src.stream("perk", trial))
        index = enumerate_copies(host, K3)
        out = refined_alteration(host, K3).output_graph
        for _ in range(20):
            k_set = rng.sample(range(n), rng.randint(2, n))
            stats = k_set_stats(index, k_set)
            assert len(out.edges_inside(k_set)) == stats.edges_inside - stats.covered_inside


def test_greedy_output_maximal_triangle_free():
    rng = random.Random(31)
    src = RandomSource(31)
    for trial in range(15):
        host = sample_gnp(rng.randint(5, 14), rng.uniform(0.3, 0.7), src.stream("max", trial))
        result = greedy_alteration(host, K3, list(host.edges))
        out = result.output_graph
        for u, v in result.removed:
            grown = Graph(host.n, list(out.edges) + [(u, v)])
            assert len(enumerate_copies(grown, K3)) > 0


def test_independence_trivial_and_brute():
    assert independence_number(complete_graph(7)).alpha == 1
    assert independence_number(Graph(9)).alpha == 9
    assert independence_number(C5).alpha == 2
    src = RandomSource(37)
    rng = random.Random(37)
    for trial in range(15):
        g = sample_gnp(rng.randint(1, 12), rng.uniform(0.2, 0.8), src.stream("alpha", trial))
        res = independence_number(g)
        assert res.exact
        assert res.alpha == brute_independence_number(g)
        assert all(not g.has_edge(u, v) for u in res.witness for v in res.witness if u < v)
        assert len(res.witness) == res.alpha


def test_independence_budget_exhaustion_brackets_truth():
    g = sample_gnp(18, 0.5, RandomSource(41).stream("big"))
    res = independence_number(g, budget=2)
    truth = brute_independence_number(g)
    assert not res.exact
    assert res.lower <= truth <= res.upper
    with pytest.raises(ValueError):
        independence_number(g, budget=0)


def test_ramsey_certificate_undetermined_on_tiny_budget():
    # A triangle-free host too large to solve in 2 expansions: the bounds
    # stay apart and the certificate reports undetermined.
    host = sample_gnp(40, 0.08, RandomSource(43).stream("u"))
    out = refined_alteration(host, K3).output_graph
    cert = ramsey_certificate(out, K3, 5, budget=2)
    if not cert.independence.exact:
        assert cert.status in ("undetermined", "large-independent-set", "certified")
        if cert.status == "undetermined":
            assert cert.independence.lower < 5 <= cert.independence.upper


def test_ramsey_certificate_cases():
    cert = ramsey_certificate(C5, K3, 3)
    assert cert.holds and cert.status == "certified"
    assert cert.independence.alpha == 2

    refuted = ramsey_certificate(K3, K3, 5)
    assert not refuted.holds and refuted.status == "copy-found"
    assert refuted.violating_copy is not None

    empty = ramsey_certificate(Graph(5), K3, 3)
    assert not empty.holds and empty.status == "large-independent-set"
    assert len(empty.independence.witness) == 5
