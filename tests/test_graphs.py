import pytest
from hypothesis import given

from alteration_lab.graphs import (
    Graph,
    UniformHypergraph,
    complete_graph,
    complete_multipartite,
    complete_uniform,
    cycle_graph,
    load_structure,
    path_graph,
    pattern_from_name,
    tight_path,
)

from strategies import graphs, hypergraphs


def test_construction_canonicalizes_and_dedups():
    g = Graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.num_edges == 2
    assert g.has_edge(2, 1) and g.has_edge(3, 0)


def test_loops_and_range_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_adjacency_consistent():
    g = Graph(5, [(0, 1), (1, 2), (1, 4)])
    masks = g.adjacency_masks
    assert masks[1] == (1 << 0) | (1 << 2) | (1 << 4)
    assert masks[3] == 0
    assert g.degree(1) == 3


def test_induced_and_without_edges():
    g = complete_graph(4)
    sub = g.induced([0, 1, 3], relabel=True)
    assert sub == complete_graph(3)
    kept = g.without_edges([(0, 1)])
    assert kept.num_edges == 5 and not kept.has_edge(0, 1)


def test_named_patterns():
    assert pattern_from_name("K4") == complete_graph(4)
    assert pattern_from_name("C5") == cycle_graph(5)
    assert pattern_from_name("P4") == path_graph(4)
    assert pattern_from_name("K2,3") == complete_multipartite([2, 3])
    assert pattern_from_name("K4r3") == complete_uniform(4, 3)
    assert pattern_from_name("TP2r3") == tight_path(2, 3)
    with pytest.raises(ValueError):
        pattern_from_name("X9")


def test_text_round_trip_examples(tmp_path):
    g = Graph(5, [(0, 1), (2, 4)])
    text = g.to_text()
    assert text == "5 2\n0 1\n2 4\n"
    assert Graph.from_text(text) == g
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_structure(str(path)) == g


def test_hypergraph_text_round_trip(tmp_path):
    h = UniformHypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
    text = h.to_text()
    assert text.splitlines()[0] == "5 2 3"
    assert UniformHypergraph.from_text(text) == h
    path = tmp_path / "h.txt"
    path.write_text(text)
    assert load_structure(str(path)) == h


def test_malformed_text_names_the_line():
    with pytest.raises(ValueError, match="line 2"):
        Graph.from_text("2 1\n0\n")
    with pytest.raises(ValueError, match="line 3"):
        Graph.from_text("3 2\n0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        UniformHypergraph.from_text("4 1 3\n0 1\n")
    with pytest.raises(ValueError, match="line 4"):
        load_structure("g.txt", "\n3 1\n\n0 1 2\n")
    with pytest.raises(ValueError, match="empty"):
        load_structure("g.txt", "")
    with pytest.raises(ValueError, match="line 2"):
        Graph.from_text("3 1\n0 x\n")
    with pytest.raises(ValueError, match="line 1"):
        Graph.from_text("3 one\n0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        UniformHypergraph.from_text("5 2 3\n0 1 2\n1 2 2.5\n")


def test_json_missing_keys_are_named():
    for text, key in (
        ('{"n": 3}', "edges"),
        ('{"edges": [[0, 1]]}', "n"),
        ('{"n": 4, "r": 3}', "edges"),
        ('{"n": "3", "edges": []}', "n"),
        ('{"n": 3, "edges": 5}', "edges"),
        ('{"n": 3, "edges": [[0, 1], 2]}', "edges"),
        ('{"n": 3, "edges": [[0, 1.5]]}', "edges"),
        ('{"n": true, "edges": []}', "n"),
        ('{"n": 4, "r": "3", "edges": []}', "r"),
        ('{"n": 4, "r": 3, "edges": {"0": [0, 1, 2]}}', "edges"),
        ('{"n": 4, "edges": [[0, 1], [0, 1, 2]]}', "edges"),
        ('{"n": 4, "r": 3, "edges": [[0, 1]]}', "edges"),
    ):
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_structure("g.json", text)
    with pytest.raises(ValueError, match="'r'"):
        UniformHypergraph.from_json_obj({"n": 4, "edges": [[0, 1, 2]]})
    for form in ([3, [[0, 1]]], "3 1", None):
        with pytest.raises(ValueError, match="must be an object"):
            Graph.from_json_obj(form)
        with pytest.raises(ValueError, match="must be an object"):
            UniformHypergraph.from_json_obj(form)
    with pytest.raises(ValueError, match="must be an object"):
        Graph.from_json("[3, []]")


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        UniformHypergraph(4, 3, [(0, 1)])
    with pytest.raises(ValueError):
        UniformHypergraph(4, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        UniformHypergraph(4, 1)


def test_r2_interconversion():
    g = Graph(4, [(0, 1), (1, 3)])
    h = UniformHypergraph.from_graph(g)
    assert h.to_graph() == g
    with pytest.raises(ValueError):
        complete_uniform(4, 3).to_graph()


@given(graphs())
def test_text_round_trip_is_identity(g):
    assert Graph.from_text(g.to_text()) == g
    assert g.to_text() == Graph.from_text(g.to_text()).to_text()


@given(graphs())
def test_json_round_trip_is_identity(g):
    assert Graph.from_json(g.to_json()) == g


@given(hypergraphs())
def test_hypergraph_round_trips(h):
    assert UniformHypergraph.from_text(h.to_text()) == h
    assert UniformHypergraph.from_json(h.to_json()) == h


@given(graphs())
def test_edges_inside_subsets(g):
    all_inside = g.edges_inside(range(g.n))
    assert set(all_inside) == set(g.edges)
    assert g.edges_inside([]) == ()
