import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from alteration_lab import copies, experiments
from alteration_lab.copies import enumerate_copies
from alteration_lab.experiments import (
    InfeasibleError,
    _adversarial_k,
    _builder_trial,
    _copy_count_trial,
    _rps_trial,
    derive_parameters,
    derived_n_p,
    dumps,
    run_concentration_experiment,
    run_copy_count_experiment,
    run_game_experiment,
    run_planted_witness,
    run_ramsey_search,
    run_tail_check,
)
from alteration_lab.graphs import (
    Graph,
    complete_graph,
    complete_uniform,
    cycle_graph,
)
from alteration_lab.randomness import RandomSource, sample_gnp, sample_uniform_hypergraph

from oracles import greedy_adversarial_k, reference_tail_check

K3 = complete_graph(3)
K4 = complete_graph(4)
C4 = cycle_graph(4)


def test_derive_parameters_triangle_point():
    params = derive_parameters(K3, k=100, big_c=1, little_c=1)
    assert params.n == 471
    assert abs(params.p - math.log(100) / 100) < 1e-12
    assert params.exponent == Fraction(2)
    assert not params.p_clamped


def test_derive_parameters_clamps_with_warning():
    with pytest.warns(UserWarning):
        params = derive_parameters(K3, k=3, big_c=10, little_c=1)
    assert params.p == 1.0 and params.p_clamped


def test_derive_parameters_family_minimum_exponent():
    params = derive_parameters(family=[K3, K4], k=10, big_c=1, little_c=1)
    assert params.exponent == Fraction(2)  # min(2, 5/2)


def test_derive_parameters_rejects_unbalanced_family_member():
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        derive_parameters(family=[K3, paw], k=10, big_c=1, little_c=1)


def test_derive_parameters_validation():
    with pytest.raises(ValueError):
        derive_parameters(K3, k=2, big_c=1, little_c=1)
    with pytest.raises(ValueError):
        derive_parameters(k=10, big_c=1, little_c=1)
    with pytest.raises(ValueError):
        derive_parameters(K3, family=[K3], k=10, big_c=1, little_c=1)
    with pytest.raises(ValueError):
        derive_parameters(K3, k=10, big_c=0, little_c=1)
    with pytest.raises(ValueError):
        derive_parameters(K3, k=10, big_c=1, little_c=1, delta=0)
    with pytest.raises(ValueError):
        derive_parameters(family=[K3, complete_uniform(4, 3)], k=10, big_c=1, little_c=1)


def test_concentration_p0_trivial():
    params = derive_parameters(
        K3, k=6, big_c=1, little_c=8, trials=5, k_samples=4, seed=1, p_override=0.0
    )
    result = run_concentration_experiment(params)
    assert result.summary["freq_y_ok"] == 1.0
    assert all(
        row["x"] == 0 and row["y"] == 0
        for rec in result.records
        for row in rec["k_sets"]
    )


def test_concentration_vacuous_when_n_below_k():
    params = derive_parameters(K3, k=40, big_c=4, little_c=0.2, trials=5, seed=1)
    assert params.n == 23
    result = run_concentration_experiment(params)
    assert result.summary["vacuous"]
    assert result.summary["freq_y_ok"] == 1.0
    assert not result.records


def test_adversarial_k_rejects_k_above_n():
    host = complete_graph(23)
    covered = list(host.edges)
    with pytest.raises(ValueError):
        _adversarial_k(host, covered, [covered[0]], 40)
    assert _adversarial_k(host, covered, [covered[0]], 23) == [tuple(range(23))]


def test_adversarial_k_matches_greedy_oracle():
    rng = random.Random(37)
    src = RandomSource(37)
    cases = []
    for t in range(8):
        host = sample_gnp(rng.randint(6, 14), rng.uniform(0.3, 0.8), src.stream("adv", t))
        cases.append((host, sorted(enumerate_copies(host, K3).covered_edges)))
    for t in range(4):
        host = sample_uniform_hypergraph(9, 3, 0.4, src.stream("adv3", t))
        cases.append((host, sorted(enumerate_copies(host, complete_uniform(4, 3)).covered_edges)))
        # Sparse, every edge covered: one step often completes several
        # edges missing the same vertex.
        host = sample_uniform_hypergraph(10, 3, 0.3, src.stream("adv3-sparse", t))
        cases.append((host, list(host.edges)))
    # Symmetric hosts, every edge covered: ties at almost every step.
    for host in (complete_graph(7), cycle_graph(9), complete_uniform(7, 3)):
        cases.append((host, list(host.edges)))
    grown = 0
    for host, covered in cases:
        for k in (2, host.n // 2, host.n):
            expected = [greedy_adversarial_k(host, covered, e, k) for e in covered]
            assert _adversarial_k(host, covered, covered, k) == expected
            grown += len(expected)
    assert grown >= 300


def test_single_pattern_trial_builds_no_copies(monkeypatch):
    def no_copy(**fields):
        pytest.fail("a Copy object was built")

    calls = []
    counted = experiments._k_set_counts
    monkeypatch.setattr(copies, "Copy", no_copy)
    monkeypatch.setattr(
        experiments, "_k_set_counts", lambda *args, **kw: calls.append(1) or counted(*args, **kw)
    )
    params = derive_parameters(K3, k=6, big_c=0.5, little_c=8, trials=2, k_samples=5, seed=6)
    run_concentration_experiment(params)
    # One batched call per trial counts every K's edges.
    assert len(calls) == params.trials


def test_graph_only_experiments_reject_hypergraph_patterns():
    params = derive_parameters(
        complete_uniform(4, 3), k=6, big_c=1, little_c=1, trials=1, n_override=8, p_override=0.3
    )
    core = complete_graph(3)
    for call in (
        lambda: _copy_count_trial(params, 0),
        lambda: _rps_trial(params, "random", 1000, 0),
        lambda: _builder_trial(params, "pump", 10, 10, core, 0),
        lambda: run_copy_count_experiment(params),
        lambda: run_game_experiment("rps", params),
    ):
        with pytest.raises(ValueError, match="graph patterns"):
            call()
    with pytest.raises(ValueError, match="neither a pattern nor a family"):
        replace(params, pattern=None).patterns


def test_concentration_family_dominates_members():
    params = derive_parameters(
        family=[K3, C4], k=6, big_c=0.5, little_c=8, trials=6, k_samples=6, seed=4
    )
    result = run_concentration_experiment(params)
    for rec in result.records:
        for row in rec["k_sets"]:
            assert row["y"] >= max(row["y_members"])


def test_concentration_threshold_flags_recomputable():
    params = derive_parameters(K3, k=6, big_c=0.5, little_c=8, trials=5, k_samples=5, seed=6)
    result = run_concentration_experiment(params)
    y_thr = result.summary["y_threshold"]
    x_thr = result.summary["x_threshold"]
    for rec in result.records:
        for row in rec["k_sets"]:
            assert row["y_ok"] == (row["y"] <= y_thr)
            assert row["x_ok"] == (row["x"] >= x_thr)
        assert rec["all_y_ok"] == all(r["y_ok"] for r in rec["k_sets"])
        assert rec["max_copies_per_edge"] >= 0


def test_concentration_trend_strict_in_meaningful_regime():
    # Halving c shrinks n, so fewer copies cover K-internal edges: at this
    # operating point the satisfaction frequency rises strictly and the
    # mean covered count drops strictly (paired seeds).
    def point(c):
        params = derive_parameters(
            K3, k=10, big_c=1.0, little_c=c, delta=0.8,
            trials=60, k_samples=20, seed=42,
        )
        return run_concentration_experiment(params).summary

    wide, narrow = point(1.2), point(0.6)
    assert narrow["freq_y_ok"] > wide["freq_y_ok"]
    assert narrow["mean_y"] < wide["mean_y"]
    assert 0.0 < narrow["freq_y_ok"] < 1.0


def test_concentration_guard_rejects_huge_instances():
    params = derive_parameters(K3, k=2000, big_c=1, little_c=1, trials=100, seed=0)
    with pytest.raises(InfeasibleError):
        run_concentration_experiment(params)


def test_concentration_deterministic_across_workers():
    # Summaries and whole trial records are bit-identical across worker counts.
    params = derive_parameters(K3, k=6, big_c=0.5, little_c=8, trials=6, k_samples=4, seed=9)
    serial = run_concentration_experiment(params, workers=1)
    parallel = run_concentration_experiment(params, workers=2)
    assert dumps(serial.summary) == dumps(parallel.summary)
    assert [dumps(r) for r in serial.records] == [dumps(r) for r in parallel.records]


def test_copy_count_rejects_low_density_pattern():
    path = Graph(3, [(0, 1), (1, 2)])
    params = derive_parameters(path, k=10, big_c=1, little_c=1, trials=3)
    with pytest.raises(ValueError):
        run_copy_count_experiment(params)


def test_copy_count_identity_and_p0():
    params = derive_parameters(K3, k=40, big_c=4, little_c=0.2, trials=10, seed=3, p_override=0.0)
    result = run_copy_count_experiment(params)
    assert result.summary["identity_violations"] == 0
    assert result.summary["freq_per_vertex_ok"] == 1.0
    assert all(r["total_copies"] == 0 for r in result.records)

    params2 = derive_parameters(K3, k=40, big_c=4, little_c=0.2, trials=20, seed=3)
    result2 = run_copy_count_experiment(params2)
    assert result2.summary["identity_violations"] == 0


def test_copy_count_trend_as_c_shrinks():
    # Paired seeds; shrinking c shrinks n, so both satisfaction
    # frequencies rise monotonically (strictly, at this operating point).
    freqs = []
    for c in (0.2, 0.1, 0.05):
        params = derive_parameters(K3, k=40, big_c=4, little_c=c, trials=100, seed=88)
        summary = run_copy_count_experiment(params).summary
        freqs.append((summary["freq_per_vertex_ok"], summary["freq_total_ok"]))
    assert freqs[0] < freqs[1] < freqs[2]
    assert 0.0 < freqs[1][0] < 1.0


def test_tail_check_empty_collection():
    # Pattern too large for any two-vertex placement: K5 needs 3 outside vertices.
    result = run_tail_check(4, complete_graph(5), range(3), 0.4, trials=50, seed=1)
    assert result.summary["members"] == 0
    assert result.summary["mu"] == 0
    assert result.summary["all_ok"]


def test_tail_check_known_member_count():
    result = run_tail_check(10, K3, range(4), 0.3, trials=2000, seed=2)
    assert result.summary["members"] == 36  # 6 internal pairs x 6 outside vertices
    assert abs(result.summary["mu"] - 36 * 0.3**3) < 1e-12
    assert result.summary["packing_bound"] == 6
    assert result.summary["all_ok"]


def test_tail_check_p1_is_deterministic_packing():
    result = run_tail_check(8, K3, range(4), 1.0, trials=10, seed=3)
    bound = result.summary["packing_bound"]
    hist = result.summary["z_histogram"]
    assert hist == {str(bound): 10}


def test_tail_check_matches_reference():
    for pattern in (K3, C4):
        for n in range(6, 11):
            for p in (0.3, 0.5, 1.0):
                k_set = {0.3: range(4), 0.5: range(n // 2), 1.0: [0, 2, n - 1]}[p]
                result = run_tail_check(n, pattern, k_set, p, trials=60, seed=n)
                summary, rows = reference_tail_check(n, pattern, k_set, p, trials=60, seed=n)
                assert dumps(result.summary) == dumps(summary)
                assert dumps(result.plot_rows) == dumps(rows)
            with pytest.raises(ValueError, match="outside"):
                run_tail_check(n, pattern, [0, 2, n + 1], 1.0, trials=60, seed=n)


def test_tail_check_across_block_boundary():
    # K3 on K10 with K = {0..3}: 45 host edges and 36 members of 3 edges.
    # The trial count ends three trials into a second block of draws.
    trials = experiments._tail_block(45, 36 * 3) + 3
    for p in (0.3, 0.5, 1.0):
        result = run_tail_check(10, K3, range(4), p, trials=trials, seed=9)
        summary, rows = reference_tail_check(10, K3, range(4), p, trials=trials, seed=9)
        assert dumps(result.summary) == dumps(summary)
        assert dumps(result.plot_rows) == dumps(rows)


@pytest.mark.parametrize(
    "driver",
    [
        lambda t: run_concentration_experiment(
            derive_parameters(K3, k=6, big_c=1.0, little_c=1.0, trials=t)
        ),
        lambda t: run_copy_count_experiment(
            derive_parameters(K4, k=5, big_c=1.0, little_c=1.0, trials=t)
        ),
        lambda t: run_game_experiment(
            "rps", derive_parameters(K3, k=5, big_c=1.0, little_c=1.0, trials=t)
        ),
        lambda t: run_game_experiment(
            "builder", derive_parameters(K3, k=5, big_c=1.0, little_c=1.0, trials=t)
        ),
        lambda t: run_tail_check(6, K3, range(4), 0.5, trials=t),
        lambda t: run_ramsey_search(K3, 4, [1.0], [1.0], trials=t),
    ],
    ids=["concentration", "lemma5", "rps", "builder-game", "tail", "ramsey-search"],
)
def test_drivers_refuse_fewer_than_one_trial(driver):
    for trials in (0, -2):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            driver(trials)
    driver(1)


def test_packing_audit_and_tail_check_build_no_copies(monkeypatch):
    def no_copy(**fields):
        pytest.fail("a Copy object was built")

    host = sample_gnp(12, 0.5, RandomSource(4).stream("host"))
    index = enumerate_copies(host, C4)
    monkeypatch.setattr(copies, "Copy", no_copy)
    assert copies.packing_report(index, range(6)).two_vertex_count > 0
    assert run_tail_check(8, K3, range(4), 0.5, trials=20, seed=1).summary["members"] == 24


def test_tail_check_grid_validation():
    with pytest.raises(ValueError):
        run_tail_check(8, K3, range(4), 0.3, trials=10, seed=1, x_grid=[0])


def test_planted_witness_small_t():
    result = run_planted_witness(K3, 12, 16, 0.01, 0.5)
    assert result.summary["t"] == 1
    assert result.summary["copy_count"] >= 1
    assert result.summary["holds"]


def test_planted_witness_t2_and_t3():
    r2 = run_planted_witness(K3, 10, 10, 0.15, 1.0)
    assert r2.summary["t"] == 2 and r2.summary["copy_count"] >= 8
    r3 = run_planted_witness(K3, 12, 12, 0.4, 1.0)
    assert r3.summary["t"] == 3 and r3.summary["copy_count"] >= 27
    assert r2.summary["holds"] and r3.summary["holds"]


def test_planted_witness_c4():
    result = run_planted_witness(C4, 12, 12, 0.1, 1.0)
    assert result.summary["t"] == 2
    assert result.summary["copy_count"] >= 16
    assert result.summary["holds"]


def test_planted_witness_infeasible_diagnosis():
    with pytest.raises(InfeasibleError) as exc:
        run_planted_witness(K3, 5, 10, 1.0, 1.0)
    assert "exceeds k" in str(exc.value)


def test_ramsey_search_finds_pentagon_witness():
    result = run_ramsey_search(K3, 3, [1.0, 1.4, 2.0], [0.7, 0.85], trials=100, seed=11)
    assert result.summary["found"]
    best = result.summary["best"]
    assert best["n"] == 5
    witness = Graph.from_json_obj(result.summary["witness"])
    assert witness.n == 5 and witness.num_edges == 5
    assert all(witness.degree(v) == 2 for v in range(5))
    # Points at n=6 exist in the grid but cannot certify (no such graph).
    n6 = [row for row in result.plot_rows if row["n"] == 6]
    assert n6 and all(row["successes"] == 0 for row in n6)


def test_ramsey_search_k2_caps_at_two_vertices():
    result = run_ramsey_search(K3, 2, [2.0], [0.1, 0.25, 0.4], trials=40, seed=5)
    assert result.summary["found"]
    assert result.summary["best"]["n"] == 2


def test_ramsey_search_clamped_p_reported_honestly():
    # A huge C clamps p to 1; hosts are complete, the refined alteration
    # strips every edge for n >= 3, and only tiny n certify.
    result = run_ramsey_search(K3, 3, [50.0], [0.3, 0.7], trials=10, seed=6)
    clamped_rows = [row for row in result.plot_rows if row["p_clamped"]]
    assert clamped_rows
    for row in result.plot_rows:
        if row["n"] >= 3:
            assert row["successes"] == 0


def test_game_experiment_rps_baseline_and_random():
    baseline = derive_parameters(
        K3, k=6, big_c=1, little_c=1, trials=20, seed=21, n_override=12, p_override=0.0
    )
    rb = run_game_experiment("rps", baseline)
    assert rb.summary["freq_proposer_win"] == 1.0  # empty graph keeps alpha = n >= k

    random_point = derive_parameters(
        K3, k=6, big_c=1, little_c=1, trials=20, seed=21, n_override=12, p_override=0.5
    )
    rr = run_game_experiment("rps", random_point)
    assert rr.summary["freq_proposer_win"] < 1.0


def test_game_experiment_builder_invariants():
    params = derive_parameters(
        K3, k=9, big_c=1, little_c=1, trials=10, seed=22, n_override=20, p_override=0.6
    )
    result = run_game_experiment("builder", params, builder="pump")
    assert result.summary["red_core_violations"] == 0
    assert result.summary["turn_cap"] == 20  # floor(2 * 20 / 2)
    assert 0.0 <= result.summary["freq_survived"] <= 1.0


def test_game_experiment_builder_low_threshold_regime():
    # k=5 gives degree threshold 1 and a turn budget of floor(n/2).
    params = derive_parameters(
        K3, k=5, big_c=1, little_c=1, trials=5, seed=33, n_override=16, p_override=0.5
    )
    result = run_game_experiment("builder", params, builder="random")
    assert result.summary["degree_threshold"] == 1
    assert result.summary["turn_cap"] == 8
    assert result.summary["red_core_violations"] == 0


def test_game_experiment_rejects_unknown_mode():
    params = derive_parameters(K3, k=6, big_c=1, little_c=1, trials=2, n_override=8, p_override=0.3)
    with pytest.raises(ValueError):
        run_game_experiment("tournament", params)


def test_derived_n_p_low_k():
    n, p, clamped = derived_n_p(2, 2.0, 1.0, Fraction(2), 2)
    assert n == math.floor((2 / math.log(2)) ** 2)
    assert not clamped


def test_dumps_handles_fractions_and_graphs():
    text = dumps({"f": Fraction(4, 3), "g": K3, "s": frozenset({2, 1})})
    assert '"4/3"' in text and '"edges"' in text and "[1, 2]" in text
