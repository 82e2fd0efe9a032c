import gc
import random
import time
from itertools import combinations

import numpy as np
import pytest

from alteration_lab import copies
from alteration_lab.copies import (
    CopyIndex,
    GlobalCopyStats,
    PackingInfeasibleError,
    enumerate_copies,
    global_copy_stats,
    has_copy_through_edge,
    k_set_stats,
    packing_report,
)
from alteration_lab.graphs import (
    Graph,
    UniformHypergraph,
    complete_graph,
    complete_multipartite,
    complete_uniform,
    cycle_graph,
    path_graph,
    tight_path,
)
from alteration_lab.randomness import RandomSource, sample_gnp, sample_uniform_hypergraph

from oracles import (
    brute_copies,
    brute_copy_stats,
    brute_k_set_counts,
    brute_max_edge_disjoint,
    copy_count_oracle,
    hypergraph_copy_oracle,
    reference_enumerate_images,
    reference_packing_report,
)


K3 = complete_graph(3)
K4 = complete_graph(4)
K5 = complete_graph(5)
P3 = path_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)
K23 = complete_multipartite([2, 3])
PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])
MATCHING = Graph(4, [(0, 1), (2, 3)])
EDGE_AND_VERTEX = Graph(3, [(0, 1)])


def test_identity_copy():
    assert len(enumerate_copies(K3, K3)) == 1


def test_triangles_of_k4():
    index = enumerate_copies(K4, K3)
    assert len(index) == 4
    assert index.max_copies_per_edge == 2
    assert index.max_copies_per_edge_pair == 1


def test_four_cycles_of_k4():
    assert len(enumerate_copies(K4, C4)) == 3


def test_pattern_larger_than_host_is_empty():
    index = enumerate_copies(K3, K4)
    assert len(index) == 0
    assert index.max_copies_per_edge == 0


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        enumerate_copies(K4, Graph(3))


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError, match="host r=2, pattern r=3"):
        enumerate_copies(K4, complete_uniform(3, 3))
    with pytest.raises(ValueError):
        enumerate_copies(complete_uniform(6, 3), complete_uniform(4, 4))


def test_graph_and_two_uniform_hypergraph_mix():
    # Uniformity decides what may meet: an r=2 hypergraph is a graph here.
    expected = enumerate_copies(K4, K3).images
    two_uniform = UniformHypergraph.from_graph
    for host, pattern in ((K4, two_uniform(K3)), (two_uniform(K4), K3)):
        assert (enumerate_copies(host, pattern).images == expected).all()


def test_disconnected_pattern():
    matching = Graph(4, [(0, 1), (2, 3)])
    assert len(enumerate_copies(path_graph(3), matching)) == 0
    assert len(enumerate_copies(path_graph(4), matching)) == 1
    assert len(enumerate_copies(K4, matching)) == 3


def test_copies_with_isolated_pattern_vertex_are_vertex_distinct():
    pattern = Graph(3, [(0, 1)])  # one edge plus an isolated vertex
    index = enumerate_copies(K3, pattern)
    # Each of the 3 edges extends by the single remaining vertex.
    assert len(index) == 3
    assert all(len(c.vertices) == 3 for c in index.copies)


def test_hypergraph_copies():
    assert len(enumerate_copies(complete_uniform(5, 3), complete_uniform(4, 3))) == 5
    assert len(enumerate_copies(complete_uniform(4, 3), tight_path(2, 3))) == 6


def test_hypergraph_oracle_agreement():
    from alteration_lab.randomness import sample_uniform_hypergraph

    src = RandomSource(21)
    patterns = [complete_uniform(4, 3), tight_path(2, 3), complete_uniform(3, 3)]
    for trial in range(15):
        host = sample_uniform_hypergraph(7, 3, 0.35, src.stream("hh", trial))
        pattern = patterns[trial % len(patterns)]
        assert len(enumerate_copies(host, pattern)) == hypergraph_copy_oracle(host, pattern)


def test_exact_packing_matches_subset_enumeration():
    rng = random.Random(25)
    src = RandomSource(25)
    checked = 0
    for trial in range(40):
        host = sample_gnp(rng.randint(6, 12), rng.uniform(0.3, 0.6), src.stream("pk", trial))
        index = enumerate_copies(host, K3)
        k_set = rng.sample(range(host.n), rng.randint(2, 4))
        ks = set(k_set)
        two_vertex = [
            c
            for c in index.copies
            if len(c.vertices & ks) == 2
            and any(e[0] in ks and e[1] in ks for e in c.edges)
        ]
        if not 1 <= len(two_vertex) <= 12:
            continue
        checked += 1
        report = packing_report(index, k_set)
        assert report.max_disjoint_two_vertex == brute_max_edge_disjoint(
            [c.edges for c in two_vertex]
        )
    assert checked >= 10


def test_oracle_agreement_random_hosts():
    rng = random.Random(7)
    src = RandomSource(7)
    patterns = [K3, P3, C4, K4, K23, C5, PAW, STAR, MATCHING, K5]
    for trial in range(40):
        n = rng.randint(2, 8)
        host = sample_gnp(n, rng.uniform(0.2, 0.9), src.stream("host", trial))
        pattern = patterns[trial % len(patterns)]
        assert len(enumerate_copies(host, pattern)) == copy_count_oracle(host, pattern)


def test_coverage_consistency():
    src = RandomSource(3)
    host = sample_gnp(12, 0.4, src.stream("h"))
    index = enumerate_copies(host, K3)
    recount: dict = {}
    for i, copy in enumerate(index.copies):
        for e in copy.edges:
            recount.setdefault(e, []).append(i)
    assert {e: tuple(ids) for e, ids in recount.items()} == index.coverage
    assert index.max_copies_per_edge == max(
        (len(v) for v in index.coverage.values()), default=0
    )


def test_k_set_stats_examples():
    c5 = cycle_graph(5)
    s = k_set_stats(enumerate_copies(c5, K3), range(5))
    assert (s.edges_inside, s.covered_inside) == (5, 0)

    host = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    s2 = k_set_stats(enumerate_copies(host, K3), range(5))
    assert (s2.edges_inside, s2.covered_inside) == (4, 3)

    k5 = complete_graph(5)
    s3 = k_set_stats(enumerate_copies(k5, K3), range(5))
    assert (s3.edges_inside, s3.covered_inside) == (10, 10)


def test_k_set_stats_rejects_bad_vertices():
    with pytest.raises(ValueError):
        k_set_stats(enumerate_copies(K4, K3), [0, 9])


def test_k_set_family_dominates_members():
    src = RandomSource(5)
    host = sample_gnp(10, 0.5, src.stream("h"))
    idx3 = enumerate_copies(host, K3)
    idx4 = enumerate_copies(host, C4)
    ks = range(6)
    stats = k_set_stats(idx3, ks, family=[idx3, idx4])
    assert stats.covered_by_family >= k_set_stats(idx3, ks).covered_inside
    assert stats.covered_by_family >= k_set_stats(idx4, ks).covered_inside


def test_k_set_bounds_invariants():
    src = RandomSource(8)
    for trial in range(10):
        host = sample_gnp(11, 0.5, src.stream("b", trial))
        index = enumerate_copies(host, K3)
        for size in (3, 5, 8):
            ks = list(range(size))
            s = k_set_stats(index, ks)
            assert 0 <= s.covered_inside <= s.edges_inside <= size * (size - 1) // 2


def test_packing_report_two_vertex_example():
    report = packing_report(enumerate_copies(K4, K3), [0, 1])
    assert report.two_vertex_count == 2
    assert report.max_disjoint_two_vertex == 1
    assert report.greedy_disjoint_touching == 0
    assert report.greedy_disjoint_pair_unions == 0
    assert report.covered_inside == 1
    assert report.bound_holds


def test_packing_report_full_triangle():
    report = packing_report(enumerate_copies(K3, K3), [0, 1, 2])
    assert report.two_vertex_count == 0
    assert report.greedy_disjoint_touching == 1
    assert report.bound_holds


def test_packing_report_copy_free_host():
    report = packing_report(enumerate_copies(cycle_graph(5), K3), [0, 1, 2, 3])
    assert report.touching_count == 0
    assert report.covered_inside == 0
    assert report.bound_holds


def test_packing_report_single_vertex_k():
    report = packing_report(enumerate_copies(K4, K3), [2])
    assert report.touching_count == 0
    assert report.covered_inside == 0
    assert report.bound_holds


def test_packing_cap_raises():
    with pytest.raises(PackingInfeasibleError):
        packing_report(enumerate_copies(complete_graph(6), K3), [0, 1], copy_cap=1)


def test_packing_bound_on_random_instances():
    rng = random.Random(11)
    src = RandomSource(11)
    for trial in range(25):
        host = sample_gnp(rng.randint(6, 14), rng.uniform(0.3, 0.6), src.stream("p", trial))
        index = enumerate_copies(host, K3)
        size = rng.randint(3, min(6, host.n))
        k_set = rng.sample(range(host.n), size)
        report = packing_report(index, k_set)
        assert report.bound_holds
        assert report.covered_inside == k_set_stats(index, k_set).covered_inside


def test_packing_report_matches_reference():
    # Every field, the witness's canonical copy ids included, against the
    # audit that scans Copy objects; hosts without copies too.
    rng = random.Random(41)
    src = RandomSource(41)
    hosts = [Graph(6), cycle_graph(7), path_graph(9)]
    hosts += [
        sample_gnp(rng.randint(4, 14), rng.uniform(0.2, 0.6), src.stream("packing", trial))
        for trial in range(16)
    ]
    compared = 0
    for host in hosts:
        for pattern in (K3, C4, K4, C5, PAW):
            index = enumerate_copies(host, pattern)
            for size in range(1, min(8, host.n) + 1):
                ks = rng.sample(range(host.n), size)
                report = packing_report(index, ks)
                assert report == reference_packing_report(index, ks)
                compared += report.two_vertex_count > 1
    assert compared >= 100


def test_global_stats_examples():
    stats = global_copy_stats(enumerate_copies(K4, K3))
    assert stats.total == 4
    assert stats.per_vertex == (3, 3, 3, 3)
    assert stats.total * 3 == sum(stats.per_vertex)

    empty = global_copy_stats(enumerate_copies(Graph(5, [(0, 1)]), K3))
    assert empty.total == 0 and set(empty.per_vertex) == {0}

    k5 = global_copy_stats(enumerate_copies(complete_graph(5), K3))
    assert k5.total == 10
    assert k5.per_vertex == (6, 6, 6, 6, 6)


def test_copy_count_identity_random():
    src = RandomSource(13)
    for trial in range(20):
        host = sample_gnp(11, 0.45, src.stream("g", trial))
        for pattern in (K3, C4):
            stats = global_copy_stats(enumerate_copies(host, pattern))
            assert stats.total * pattern.n == sum(stats.per_vertex)


def test_monotone_in_host_edges():
    src = RandomSource(17)
    host = sample_gnp(10, 0.35, src.stream("g"))
    index = enumerate_copies(host, K3)
    missing = [e for e in combinations(range(10), 2) if e not in host.edge_set]
    k_set = list(range(6))
    base = k_set_stats(index, k_set)
    base_stats = global_copy_stats(index)
    for e in missing[:5]:
        grown = Graph(10, list(host.edges) + [e])
        gi = enumerate_copies(grown, K3)
        gs = global_copy_stats(gi)
        assert gs.total >= base_stats.total
        assert all(a >= b for a, b in zip(gs.per_vertex, base_stats.per_vertex))
        assert gi.max_copies_per_edge >= index.max_copies_per_edge
        assert k_set_stats(gi, k_set).covered_inside >= base.covered_inside


def test_has_copy_through_edge_matches_enumeration():
    src = RandomSource(19)
    for trial in range(15):
        host = sample_gnp(9, 0.5, src.stream("g", trial))
        adjacency = list(host.adjacency_masks)
        for pattern in (K3, P3, C4, K4, PAW, K23, C5, STAR, MATCHING, K5):
            index = enumerate_copies(host, pattern)
            for u, v in host.edges:
                expected = (u, v) in index.coverage
                assert has_copy_through_edge(adjacency, pattern, u, v) == expected


def test_has_copy_through_edge_clique_in_turan_graph_is_fast():
    # T(22, 11) has clique number 11, so no K12 passes through any edge.
    # Without symmetry breaking the rooted search tries every ordering of
    # every clique in the common neighbourhood, a T(18, 9), before it can
    # answer no.
    host = complete_multipartite([2] * 11)
    u, v = host.edges[0]
    start = time.perf_counter()
    assert not has_copy_through_edge(list(host.adjacency_masks), complete_graph(12), u, v)
    assert time.perf_counter() - start < 1.0


def test_closing_plans_for_k12_compile_fast():
    copies._compile.cache_clear()
    copies._edge_orbit_plans.cache_clear()
    copies._closing_plans.cache_clear()
    start = time.perf_counter()
    plans = copies._closing_plans(complete_graph(12))
    assert time.perf_counter() - start < 1.0
    # K12 has one edge orbit; K12 - ab has three orbits of oriented edges
    # under the automorphisms keeping {a, b}: a/b to the rest, the rest to
    # a/b, and inside the rest.
    assert len(plans) == 3


def test_hypergraph_k_set_stats_complete_host():
    host = complete_uniform(7, 3)
    index = enumerate_copies(host, complete_uniform(4, 3))
    stats = k_set_stats(index, range(5))
    from math import comb

    assert stats.edges_inside == comb(5, 3)
    # every triple inside a 5-set completes to a 4-clique within the host
    assert stats.covered_inside == comb(5, 3)


def check_index_against_brute_force(host, patterns, rng):
    """Every array-backed statistic of each pattern's index against a
    recount from brute-force copy sets, then k_set_stats on random K."""
    indexes, covered_sets = [], []
    for pattern in patterns:
        index = enumerate_copies(host, pattern)
        expected = brute_copies(host, pattern)
        assert [(c.vertices, c.edges) for c in index.copies] == expected
        coverage, per_edge, per_pair, per_vertex = brute_copy_stats(host.n, expected)
        assert index.coverage == coverage
        assert index.covered_edges == frozenset(coverage)
        assert (index.max_copies_per_edge, index.max_copies_per_edge_pair) == (per_edge, per_pair)
        assert global_copy_stats(index) == GlobalCopyStats(len(expected), per_vertex)
        indexes.append(index)
        covered_sets.append(frozenset(coverage))
    for _ in range(4):
        ks = rng.sample(range(host.n), rng.randint(0, host.n))
        inside, per_set, union = brute_k_set_counts(host, covered_sets, ks)
        for index, covered in zip(indexes, per_set):
            stats = k_set_stats(index, ks)
            assert (stats.edges_inside, stats.covered_inside, stats.covered_by_family) == (
                inside, covered, None
            )
        stats = k_set_stats(indexes[0], ks, family=indexes)
        assert (stats.edges_inside, stats.covered_inside, stats.covered_by_family) == (
            inside, per_set[0], union
        )


def test_array_index_matches_brute_force_on_graphs():
    rng = random.Random(31)
    src = RandomSource(31)
    for trial in range(10):
        host = sample_gnp(rng.randint(4, 12), rng.uniform(0.3, 0.8), src.stream("arrays", trial))
        check_index_against_brute_force(host, (K3, C4, K4, PAW, MATCHING), rng)


def test_array_index_matches_brute_force_on_hypergraphs():
    rng = random.Random(33)
    src = RandomSource(33)
    patterns = (complete_uniform(4, 3), tight_path(2, 3), complete_uniform(3, 3), tight_path(3, 3))
    for trial in range(8):
        host = sample_uniform_hypergraph(rng.randint(4, 8), 3, rng.uniform(0.3, 0.7), src.stream("arrays", trial))
        check_index_against_brute_force(host, patterns, rng)


def test_copy_index_rejects_bad_images():
    host = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert len(CopyIndex(host, K3, [2, 0, 1])) == 1
    with pytest.raises(ValueError, match="non-edge"):
        CopyIndex(host, K3, [0, 1, 3])
    with pytest.raises(ValueError, match="non-edge"):
        CopyIndex(Graph(4), K3, [0, 1, 2])
    # Codes of 3-sets on 2**21 vertices would need 63 bits.
    huge = UniformHypergraph(2**21, 3, [(0, 1, 2)])
    with pytest.raises(OverflowError):
        CopyIndex(huge, complete_uniform(3, 3), [0, 1, 2])


def test_searches_leave_no_reference_cycles():
    # The depth-first search is a self-referencing closure; a cycle would
    # keep the host table and every found image alive until a collection.
    host = sample_gnp(20, 0.5, RandomSource(1).stream("host"))
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_copies(host, complete_graph(3))) > 0
        has_copy_through_edge(list(host.adjacency_masks), cycle_graph(4), *host.edges[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def assert_same_images(host, patterns):
    for pattern in patterns:
        expected = reference_enumerate_images(host, pattern)
        got = enumerate_copies(host, pattern).images
        assert np.array_equal(got, expected), (host, pattern)


def test_level_wise_matches_depth_first_on_graphs():
    # Row for row, so copy ids and every digest built on them hold.
    src = RandomSource(43)
    patterns = (K3, C4, K4, C5, PAW, MATCHING, EDGE_AND_VERTEX, K5)
    shapes = [(5, 0.9), (9, 0.6), (16, 0.5), (30, 0.3), (47, 0.15), (94, 0.06), (94, 0.03)]
    for trial, (n, p) in enumerate(shapes * 2):
        assert_same_images(sample_gnp(n, p, src.stream("level-wise", trial)), patterns)
    # The concentration hosts of criterion 10: levels span several blocks.
    for trial, (n, p) in enumerate([(94, 0.369), (47, 0.738)]):
        assert_same_images(sample_gnp(n, p, src.stream("dense", trial)), (K3, C4, K4))
    # Empty, sparse and degree-poor hosts: no vertex may fit a position.
    for host in (Graph(6), Graph(2, [(0, 1)]), path_graph(7), complete_multipartite([1, 5])):
        assert_same_images(host, patterns)


def test_level_wise_matches_depth_first_on_hypergraphs():
    src = RandomSource(47)
    three = (complete_uniform(4, 3), tight_path(2, 3), tight_path(3, 3),
             UniformHypergraph(5, 3, [(0, 1, 2), (1, 2, 3)]))  # vertex 4 isolated
    four = (complete_uniform(5, 4), tight_path(2, 4), UniformHypergraph(5, 4, [(0, 1, 2, 3)]))
    for trial in range(6):
        host = sample_uniform_hypergraph(7 + 2 * trial, 3, 0.5 - 0.06 * trial, src.stream("r3", trial))
        assert_same_images(host, three)
        host = sample_uniform_hypergraph(6 + trial, 4, 0.75 - 0.05 * trial, src.stream("r4", trial))
        assert_same_images(host, four)
    assert_same_images(UniformHypergraph(6, 3), three)


def test_level_wise_order_holds_across_block_boundaries(monkeypatch):
    # Blocks of two or three rows: every level splits, and the blocks must
    # still come out depth first.
    src = RandomSource(53)
    graph = sample_gnp(24, 0.4, src.stream("blocks"))
    hypergraph = sample_uniform_hypergraph(10, 3, 0.4, src.stream("blocks-r3"))
    for rows in (2, 3):
        monkeypatch.setattr(copies, "_BLOCK_CELLS", rows * graph.n)
        assert_same_images(graph, (K3, C4, K4, PAW, EDGE_AND_VERTEX))
        monkeypatch.setattr(copies, "_BLOCK_CELLS", rows * hypergraph.n)
        assert_same_images(hypergraph, (complete_uniform(4, 3), tight_path(2, 3)))


def test_level_wise_evaluation_leaves_no_reference_cycles(monkeypatch):
    monkeypatch.setattr(copies, "_BLOCK_CELLS", 3 * 20)
    graph = sample_gnp(20, 0.5, RandomSource(2).stream("host"))
    hypergraph = sample_uniform_hypergraph(9, 3, 0.4, RandomSource(2).stream("host-r3"))
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_copies(graph, C4)) > 0
        assert len(enumerate_copies(hypergraph, complete_uniform(4, 3))) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_batched_k_set_counts_match_brute_force():
    rng = random.Random(59)
    src = RandomSource(59)
    hosts = [sample_gnp(rng.randint(5, 30), rng.uniform(0.2, 0.7), src.stream("ks", t)) for t in range(8)]
    hosts += [sample_uniform_hypergraph(rng.randint(5, 9), 3, 0.4, src.stream("ks3", t)) for t in range(4)]
    for host in hosts:
        patterns = (K3, C4) if host.r == 2 else (complete_uniform(4, 3), tight_path(2, 3))
        indexes = [enumerate_copies(host, pattern) for pattern in patterns]
        covered = [index.covered_edges for index in indexes]
        k_sets = [rng.sample(range(host.n), rng.randint(0, host.n)) for _ in range(12)]
        union = np.logical_or.reduce([index.covered for index in indexes])
        counts = copies._k_set_counts(indexes[0], k_sets, [i.covered for i in indexes] + [union])
        assert counts.shape == (4, len(k_sets))
        for column, ks in zip(counts.T.tolist(), k_sets):
            inside, per_set, any_set = brute_k_set_counts(host, covered, ks)
            assert column == [inside, *per_set, any_set]
