from itertools import combinations

import pytest

from alteration_lab import copies, games
from alteration_lab.alteration import greedy_alteration
from alteration_lab.copies import ClosedPairs, enumerate_copies, has_copy_through_edge
from alteration_lab.density import minimal_balanced_core
from alteration_lab.games import (
    AllBluePainter,
    AllRedPainter,
    DenseFirstProposer,
    FixedDecider,
    GameTranscript,
    PumpBuilder,
    RandomBuilder,
    RandomDecider,
    RandomLegalProposer,
    RpsState,
    RuleViolation,
    ThresholdPainter,
    builder_final_graphs,
    coupled_rps_check,
    rps_final_graph,
    run_online_ramsey,
    run_rps,
)
from alteration_lab.graphs import (
    Graph,
    UniformHypergraph,
    complete_graph,
    complete_multipartite,
    complete_uniform,
    cycle_graph,
)
from alteration_lab.randomness import RandomSource, derive_labels

from oracles import brute_has_clique

K3 = complete_graph(3)
C4 = cycle_graph(4)
PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def test_rps_always_accept_on_three_vertices_gives_path():
    t = run_rps(3, K3, RandomLegalProposer(), FixedDecider(True), RandomSource(1))
    g = rps_final_graph(t)
    assert t.outcome == "exhausted"
    assert g.num_edges == 2
    assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]


def test_rps_always_reject_proposes_every_pair():
    t = run_rps(6, K3, RandomLegalProposer(), FixedDecider(False), RandomSource(2))
    assert len(t.turns) == 15
    assert not t.final_edges
    assert all(turn.action == "reject" for turn in t.turns)


def test_rps_final_graphs_pattern_free_over_seeds():
    for seed in range(50):
        t = run_rps(14, K3, RandomLegalProposer(), RandomDecider(0.4), RandomSource(seed))
        g = rps_final_graph(t)
        if g.num_edges:
            assert len(enumerate_copies(g, K3)) == 0
        assert Graph(14, t.final_edges) == g


def test_rps_replay_bit_exact():
    a = run_rps(11, C4, RandomLegalProposer(), RandomDecider(0.5), RandomSource(77), game_index=3)
    b = run_rps(11, C4, RandomLegalProposer(), RandomDecider(0.5), RandomSource(77), game_index=3)
    assert a == b
    assert isinstance(a, GameTranscript)


def test_decider_blindness_across_proposers():
    a = run_rps(10, K3, RandomLegalProposer(), RandomDecider(0.4), RandomSource(5), game_index=2)
    b = run_rps(10, K3, DenseFirstProposer(), RandomDecider(0.4), RandomSource(5), game_index=2)
    da = [t.action for t in a.turns]
    db = [t.action for t in b.turns]
    m = min(len(da), len(db))
    assert da[:m] == db[:m]


def test_rps_rule_violation_on_bad_proposer():
    class LyingProposer:
        def session(self, state, stream):
            class Session:
                def next_pair(self, state):
                    return None  # claims exhaustion immediately

            return Session()

    with pytest.raises(RuleViolation):
        run_rps(5, K3, LyingProposer(), FixedDecider(False), RandomSource(1))


def test_rps_rule_violation_on_repeated_pair():
    class StubbornProposer:
        def session(self, state, stream):
            class Session:
                def next_pair(self, state):
                    return (0, 1)

            return Session()

    with pytest.raises(RuleViolation):
        run_rps(5, K3, StubbornProposer(), FixedDecider(False), RandomSource(1))


def test_coupling_trivial_p0():
    labels = derive_labels(8, RandomSource(3))
    report = coupled_rps_check(8, K3, RandomLegalProposer(), 0.0, labels, RandomSource(3))
    assert report.ok
    assert report.random_graph.num_edges == 0
    assert report.game_graph.num_edges == 0


def test_coupling_p1_on_k4():
    labels = derive_labels(4, RandomSource(4))
    report = coupled_rps_check(4, K3, DenseFirstProposer(), 1.0, labels, RandomSource(4))
    assert report.ok
    assert report.random_graph == complete_graph(4)
    assert len(enumerate_copies(report.game_graph, K3)) == 0
    # every dropped edge is witnessed by a triangle of the random graph
    assert all(copy is not None for _, copy in report.difference_witnesses)


def test_coupling_holds_over_seeded_batch():
    for seed in range(60):
        n = 8 + seed % 10
        pattern = K3 if seed % 2 == 0 else C4
        labels = derive_labels(n, RandomSource(seed))
        report = coupled_rps_check(
            n, pattern, RandomLegalProposer(), 0.2 + (seed % 5) * 0.1, labels, RandomSource(seed)
        )
        assert report.subset_ok and report.difference_covered_ok


# Every pattern shape the closed-pair record must handle: one edge (with and
# without a spare vertex), isolated vertices, pendant edges, several edge
# orbits, disconnected and dense patterns.
RECORD_PATTERNS = (
    Graph(2, [(0, 1)]), Graph(3, [(0, 1)]), Graph(4, [(0, 1), (1, 2)]),
    K3, C4, PAW, Graph(4, [(0, 1), (0, 2), (0, 3)]), Graph(4, [(0, 1), (2, 3)]),
    complete_multipartite([2, 3]), cycle_graph(5), complete_graph(4), complete_graph(5),
)


def test_closed_pair_record_matches_rooted_queries():
    # Hosts grown one edge at a time, copies of H allowed: after each edge,
    # the whole record must agree with a rooted query on every non-edge.
    src = RandomSource(23)
    for i, pattern in enumerate(RECORD_PATTERNS):
        for n in (2, 3, 5, 8, 10):
            rng = src.stream("grow", 100 * i + n)
            pairs = list(combinations(range(n), 2))
            order = rng.permutation(len(pairs))[: int(len(pairs) * 0.6) + 1]
            record = ClosedPairs(pattern, n)
            for step in [None, *order.tolist()]:
                if step is not None:
                    record.add(*pairs[step])
                for u, v in pairs:
                    if not record.masks[u] >> v & 1:
                        expected = has_copy_through_edge(record.masks, pattern, u, v)
                        assert record.is_closed(u, v) == expected, (pattern.edges, n, u, v)


def test_is_legal_matches_rooted_search(monkeypatch):
    is_legal = RpsState.is_legal
    asked = []

    def checked(state, u, v):
        legal = is_legal(state, u, v)
        if 0 <= u < state.n and 0 <= v < state.n and u != v and not state.proposed[u] >> v & 1:
            asked.append((u, v))
            assert legal != has_copy_through_edge(state.record.masks, state.pattern, u, v)
        return legal

    monkeypatch.setattr(RpsState, "is_legal", checked)
    for i, pattern in enumerate(RECORD_PATTERNS):
        for n in (2, 3, 7, 12, 20):
            for proposer in (RandomLegalProposer(), DenseFirstProposer()):
                for decider in (RandomDecider(0.5), FixedDecider(True)):
                    run_rps(n, pattern, proposer, decider, RandomSource(i + n), i)
    assert len(asked) > 10_000


def test_propose_decide_games_make_no_rooted_search(monkeypatch):
    def rooted(*args):
        raise AssertionError("rooted search in a propose/decide game")

    monkeypatch.setattr(games, "has_copy_through_edge", rooted)
    labels = derive_labels(12, RandomSource(2))
    for pattern in (K3, C4, PAW):
        for proposer in (RandomLegalProposer(), DenseFirstProposer()):
            run_rps(12, pattern, proposer, RandomDecider(0.5), RandomSource(2))
            assert coupled_rps_check(12, pattern, proposer, 0.5, labels, RandomSource(2)).ok


def test_coupled_check_builds_only_witness_copies(monkeypatch):
    labels = derive_labels(14, RandomSource(6))
    index = enumerate_copies(labels.threshold_graph(0.6), K3)
    built = []
    real_copy = copies.Copy

    def counting_copy(**fields):
        built.append(fields)
        return real_copy(**fields)

    monkeypatch.setattr(copies, "Copy", counting_copy)
    report = coupled_rps_check(14, K3, RandomLegalProposer(), 0.6, labels, RandomSource(6))
    witnesses = [c for _, c in report.difference_witnesses if c is not None]
    assert 0 < len(built) == len(witnesses) < len(index.copies)
    # Each witness is the first canonical copy through its edge.
    assert report.difference_witnesses == tuple(
        (e, index.copies[index.coverage[e][0]])
        for e in sorted(report.random_graph.edge_set - report.game_graph.edge_set)
    )


def test_builder_zero_turn_cap():
    t = run_online_ramsey(K3, 5, RandomBuilder(6), ThresholdPainter(0.5, K3), 0, RandomSource(1), pool_cap=6)
    assert t.outcome == "turn-cap"
    assert not t.turns


def test_builder_duplicate_edge_violation():
    class RepeatBuilder:
        def session(self, state, stream):
            class Session:
                def next_pair(self, state):
                    return (0, 1)

            return Session()

    with pytest.raises(RuleViolation):
        run_online_ramsey(K3, 5, RepeatBuilder(), AllBluePainter(), 5, RandomSource(1), pool_cap=4)


def test_threshold_painter_never_builds_red_core_even_at_p1():
    # Builder densifies inside the high-degree set; the painter's revert
    # rule keeps the red graph core-free even when every attempt is red.
    t = run_online_ramsey(
        K3, 9, PumpBuilder(9), ThresholdPainter(1.0, K3), 80, RandomSource(9), pool_cap=40
    )
    red, _ = builder_final_graphs(t)
    assert t.outcome != "red-pattern"
    if red.num_edges:
        assert len(enumerate_copies(red, K3)) == 0


def test_threshold_painter_uses_minimal_core_for_unbalanced_pattern():
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    core = minimal_balanced_core(paw)
    assert core == K3
    t = run_online_ramsey(
        paw, 9, PumpBuilder(9), ThresholdPainter(0.8, core), 70, RandomSource(11), pool_cap=40
    )
    red, _ = builder_final_graphs(t)
    if red.num_edges:
        assert len(enumerate_copies(red, core)) == 0


def test_all_blue_painter_loses_to_pump_builder():
    t = run_online_ramsey(K3, 4, PumpBuilder(4), AllBluePainter(), 100, RandomSource(2), pool_cap=20)
    assert t.outcome == "blue-clique"


def test_all_red_painter_loses_on_red_pattern():
    t = run_online_ramsey(K3, 30, RandomBuilder(8), AllRedPainter(), 100, RandomSource(2), pool_cap=32)
    assert t.outcome == "red-pattern"


def test_blue_clique_detection_matches_brute_force():
    for seed in range(12):
        k = 4 + seed % 2  # targets 4 and 5
        t = run_online_ramsey(
            K3, k, RandomBuilder(k + 3), AllBluePainter(), 60, RandomSource(seed), pool_cap=k + 3
        )
        n = t.param("pool_cap")
        adjacency = [set() for _ in range(n)]
        for i, turn in enumerate(t.turns):
            u, v = turn.pair
            adjacency[u].add(v)
            adjacency[v].add(u)
            found = brute_has_clique(adjacency, range(n), k)
            if i < len(t.turns) - 1:
                assert not found  # engine must stop at the first clique
        final_found = brute_has_clique(adjacency, range(n), k)
        assert final_found == (t.outcome == "blue-clique")


def test_blue_clique_vertices_sit_in_high_degree_set():
    # A blue k-clique forces degree >= k-1 > threshold on its vertices, so
    # winning cliques can only appear inside the high-degree set.
    from itertools import combinations

    for seed in range(8):
        k = 4
        t = run_online_ramsey(
            K3, k, RandomBuilder(7), AllBluePainter(), 40, RandomSource(seed), pool_cap=7
        )
        if t.outcome != "blue-clique":
            continue
        n = t.param("pool_cap")
        threshold = t.param("degree_threshold")
        degrees = [0] * n
        blue_adj = [set() for _ in range(n)]
        for turn in t.turns:
            u, v = turn.pair
            degrees[u] += 1
            degrees[v] += 1
            if turn.action == "blue":
                blue_adj[u].add(v)
                blue_adj[v].add(u)
        for clique in combinations(range(n), k):
            if all(b in blue_adj[a] for a, b in combinations(clique, 2)):
                assert all(degrees[v] >= max(threshold, k - 1) for v in clique)


def test_builder_replay_bit_exact():
    args = dict(turn_cap=40, game_index=6, pool_cap=30)
    a = run_online_ramsey(K3, 7, RandomBuilder(12), ThresholdPainter(0.5, K3), rng=RandomSource(13), **args)
    b = run_online_ramsey(K3, 7, RandomBuilder(12), ThresholdPainter(0.5, K3), rng=RandomSource(13), **args)
    assert a == b


def test_pump_builder_raises_degree_threshold():
    t = run_online_ramsey(
        K3, 9, PumpBuilder(9), AllBluePainter(), 200, RandomSource(3), pool_cap=40
    )
    # after the circulant phase every target has degree >= 2 = threshold
    degrees = [0] * 40
    for turn in t.turns:
        u, v = turn.pair
        degrees[u] += 1
        degrees[v] += 1
    assert all(degrees[v] >= 2 for v in range(18))


def test_transcript_param_lookup():
    t = run_rps(4, K3, RandomLegalProposer(), FixedDecider(False), RandomSource(1))
    assert t.param("n") == 4
    with pytest.raises(KeyError):
        t.param("missing")


@pytest.mark.parametrize("pattern", [complete_uniform(4, 3), UniformHypergraph.from_graph(K3)])
def test_hypergraph_patterns_are_a_type_error(pattern):
    # Every rooted query and closed-pair record turns a hypergraph pattern away
    # with an error naming graph patterns.
    host = complete_graph(6)
    labels = derive_labels(6, RandomSource(1))
    calls = [
        lambda: has_copy_through_edge(host.adjacency_masks, pattern, 0, 1),
        lambda: run_rps(6, pattern, RandomLegalProposer(), FixedDecider(True), RandomSource(1)),
        lambda: coupled_rps_check(6, pattern, RandomLegalProposer(), 0.5, labels, RandomSource(1)),
        lambda: greedy_alteration(host, pattern, host.edges),
        lambda: run_online_ramsey(pattern, 4, RandomBuilder(8), AllRedPainter(), 10, RandomSource(1)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="graph patterns"):
            call()
