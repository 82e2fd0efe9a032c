from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from alteration_lab.density import (
    density_report,
    minimal_balanced_core,
    r_density_report,
    two_density_report,
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

from corpus import all_graphs_up_to
from oracles import (
    brute_density_all_edge_subsets,
    brute_two_density,
    reference_density_report,
    reference_minimal_balanced_core,
)
from strategies import graphs


def test_single_edge_density():
    rep = two_density_report(complete_graph(2))
    assert rep.value == Fraction(1, 2)
    assert rep.strictly_balanced
    assert rep.witness == (0, 1)


def test_clique_densities():
    assert two_density_report(complete_graph(3)).value == Fraction(2)
    assert two_density_report(complete_graph(5)).value == Fraction(3)
    for s in range(3, 8):
        assert two_density_report(complete_graph(s)).value == Fraction(s + 1, 2)
        assert two_density_report(complete_graph(s)).strictly_balanced


def test_cycle_density():
    rep = two_density_report(cycle_graph(5))
    assert rep.value == Fraction(4, 3)
    assert rep.strictly_balanced


def test_patterns_over_the_subset_table_limit_fail_fast():
    for pattern in (complete_graph(25), path_graph(40), complete_uniform(25, 3)):
        with pytest.raises(ValueError, match="exceeds the limit of 24"):
            density_report(pattern)
    with pytest.raises(ValueError, match="exceeds the limit of 24"):
        minimal_balanced_core(Graph(25, [(0, 1), (1, 2), (0, 2), (2, 3)]))


def test_edgeless_rejected():
    with pytest.raises(ValueError):
        two_density_report(Graph(3))
    with pytest.raises(ValueError):
        r_density_report(UniformHypergraph(4, 3))


def test_triangle_with_pendant_not_balanced():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    rep = two_density_report(g)
    assert rep.value == Fraction(2)
    assert not rep.strictly_balanced
    assert set(rep.witness) == {0, 1, 2}


def test_star_fails_strict_balance_by_density_tie():
    # K_{1,3} ties its own density on the sub-star with two leaves.
    rep = two_density_report(complete_multipartite([1, 3]))
    assert rep.value == Fraction(1)
    assert not rep.strictly_balanced


def test_isolated_vertex_breaks_strict_balance():
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert not two_density_report(g).strictly_balanced


def test_minimal_core_identity_on_balanced():
    k4 = complete_graph(4)
    assert minimal_balanced_core(k4) is k4


def test_minimal_core_strips_pendant():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert minimal_balanced_core(g) == complete_graph(3)


def test_minimal_core_tie_break_on_disjoint_union():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    core = minimal_balanced_core(g)
    assert core == complete_graph(3)


def test_minimal_core_of_star_is_two_edge_path():
    star = complete_multipartite([1, 3])
    core = minimal_balanced_core(star)
    assert core.n == 3 and core.num_edges == 2
    assert sorted(core.degree(v) for v in range(3)) == [1, 1, 2]
    assert two_density_report(core).strictly_balanced


def test_minimal_core_on_forest_is_single_edge():
    g = Graph(5, [(0, 1), (2, 3)])
    core = minimal_balanced_core(g)
    assert core == complete_graph(2)


def test_r_density_single_edge_case():
    rep = r_density_report(complete_uniform(3, 3))
    assert rep.value == Fraction(1, 3)
    assert rep.strictly_balanced


def test_r_density_complete_3_uniform():
    rep = r_density_report(complete_uniform(4, 3))
    assert rep.value == Fraction(3)
    assert rep.strictly_balanced


def test_r_density_tight_path():
    rep = r_density_report(tight_path(2, 3))
    assert rep.value == Fraction(1)
    assert rep.strictly_balanced


@given(graphs(min_edges=1, max_n=6))
@settings(max_examples=60)
def test_r2_agrees_with_two_density(g):
    h = UniformHypergraph.from_graph(g)
    rep2 = two_density_report(g)
    repr_ = r_density_report(h)
    assert repr_.value == rep2.value
    assert repr_.strictly_balanced == rep2.strictly_balanced


@given(graphs(min_edges=1, max_n=7))
@settings(max_examples=80)
def test_matches_vertex_subset_oracle(g):
    assert two_density_report(g).value == brute_two_density(g)


@given(graphs(min_edges=1, max_n=5))
@settings(max_examples=40)
def test_induced_restriction_matches_full_subgraph_scan(g):
    # The vertex-subset maximization equals the maximum over all subgraphs.
    assert two_density_report(g).value == brute_density_all_edge_subsets(g)


@given(graphs(min_edges=1, max_n=7))
@settings(max_examples=50)
def test_monotone_under_edge_addition(g):
    from itertools import combinations

    missing = [e for e in combinations(range(g.n), 2) if e not in g.edge_set]
    base = two_density_report(g).value
    for e in missing[:3]:
        grown = Graph(g.n, list(g.edges) + [e])
        assert two_density_report(grown).value >= base


@given(graphs(min_edges=1, max_n=7))
@settings(max_examples=50)
def test_core_is_balanced_and_attains_parent_density(g):
    rep = two_density_report(g)
    core = minimal_balanced_core(g)
    core_rep = two_density_report(core)
    assert core_rep.strictly_balanced
    assert core_rep.value == rep.value


def test_witness_density_equals_value():
    for g in (cycle_graph(5), complete_graph(4), path_graph(4)):
        rep = two_density_report(g)
        sub = g.induced(rep.witness, relabel=True)
        if sub.n == 2:
            assert rep.value == Fraction(1, 2)
        else:
            assert rep.value == Fraction(sub.num_edges - 1, sub.n - 2)


def test_matches_two_walk_reference_on_corpus():
    # Every field of the report, and the core, as the earlier two-walk scan
    # gives them, over every graph with an edge on at most 7 vertices.
    for graphs in all_graphs_up_to(7).values():
        for g in graphs:
            if g.num_edges == 0:
                continue
            rep = two_density_report(g)
            assert rep == reference_density_report(g, 2), g.edges
            assert minimal_balanced_core(g) == reference_minimal_balanced_core(g), g.edges


def test_r_density_matches_two_walk_reference():
    patterns = [
        complete_uniform(3, 3),
        complete_uniform(4, 3),
        complete_uniform(5, 3),
        complete_uniform(5, 4),
        tight_path(2, 3),
        tight_path(3, 3),
        tight_path(3, 4),
        UniformHypergraph(5, 3, [(0, 1, 2), (1, 2, 3)]),  # vertex 4 isolated
        UniformHypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]),  # each edge ties the whole
        UniformHypergraph(8, 3, [*combinations(range(4), 3), *combinations(range(4, 8), 3)]),
        UniformHypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]),  # two petals tie three
    ]
    verdicts = set()
    for h in patterns:
        rep = r_density_report(h)
        assert rep == reference_density_report(h, h.r), h
        verdicts.add(rep.strictly_balanced)
    assert verdicts == {True, False}
