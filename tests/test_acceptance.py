"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
a single pass/fail line (run with `pytest tests/test_acceptance.py -s -v`
to see them live).  Runtime budgets are part of the criteria and are
asserted alongside the checks.
"""

import math
import random
import time
from fractions import Fraction

from alteration_lab.alteration import (
    disjoint_collection_alteration,
    greedy_alteration,
    refined_alteration,
)
from alteration_lab.copies import enumerate_copies, k_set_stats, packing_report
from alteration_lab.density import two_density_report
from alteration_lab.experiments import (
    derive_parameters,
    run_concentration_experiment,
    run_copy_count_experiment,
    run_planted_witness,
    run_ramsey_search,
    run_tail_check,
)
from alteration_lab.games import (
    AllBluePainter,
    PumpBuilder,
    RandomBuilder,
    RandomDecider,
    RandomLegalProposer,
    ThresholdPainter,
    builder_final_graphs,
    coupled_rps_check,
    rps_final_graph,
    run_online_ramsey,
    run_rps,
)
from alteration_lab.graphs import (
    Graph,
    complete_graph,
    complete_uniform,
    cycle_graph,
    path_graph,
    tight_path,
)
from alteration_lab.randomness import (
    RandomSource,
    derive_labels,
    sample_gnp,
    sample_uniform_hypergraph,
)

from corpus import KNOWN_CLASS_COUNTS, all_graphs_up_to
from oracles import brute_has_clique, brute_two_density, copy_count_oracle

K3 = complete_graph(3)
K4 = complete_graph(4)
P3 = path_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {label} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_c01_density_conformance():
    budget = 120.0
    start = time.time()
    levels = all_graphs_up_to(8)
    counts_ok = all(
        len(levels[n]) == KNOWN_CLASS_COUNTS[n] for n in levels
    )
    mismatches = 0
    checked = 0
    for graphs in levels.values():
        for g in graphs:
            if g.num_edges == 0:
                continue
            checked += 1
            if two_density_report(g).value != brute_two_density(g):
                mismatches += 1
    cliques_ok = all(
        two_density_report(complete_graph(s)).value == Fraction(s + 1, 2)
        for s in range(3, 8)
    )
    elapsed = time.time() - start
    ok = counts_ok and mismatches == 0 and cliques_ok and elapsed < budget
    _report(1, "density conformance", ok, elapsed, budget,
            f"{checked} graphs, {mismatches} mismatches, corpus counts ok={counts_ok}")
    assert counts_ok and mismatches == 0 and cliques_ok
    assert elapsed < budget


def test_c02_copy_count_oracle():
    budget = 60.0
    start = time.time()
    rng = random.Random(202)
    src = RandomSource(202)
    patterns = [K3, P3, C4, K4]
    mismatches = 0
    for trial in range(500):
        n = rng.randint(2, 8)
        host = sample_gnp(n, rng.uniform(0.15, 0.9), src.stream("c2", trial))
        pattern = patterns[trial % len(patterns)]
        if len(enumerate_copies(host, pattern)) != copy_count_oracle(host, pattern):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < budget
    _report(2, "copy-count oracle", ok, elapsed, budget, f"500 instances, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < budget


def test_c03_packing_bound_audit():
    budget = 300.0
    start = time.time()
    rng = random.Random(303)
    src = RandomSource(303)
    p_ranges = {K3: (0.15, 0.5), C4: (0.1, 0.35), K4: (0.25, 0.5)}
    patterns = [K3, C4, K4]
    violations = 0
    for trial in range(200):
        pattern = patterns[trial % len(patterns)]
        lo, hi = p_ranges[pattern]
        n = rng.randint(10, 20)
        host = sample_gnp(n, rng.uniform(lo, hi), src.stream("c3", trial))
        index = enumerate_copies(host, pattern)
        k_size = rng.randint(4, 10)
        k_set = rng.sample(range(n), k_size)
        report = packing_report(index, k_set)
        if not report.bound_holds:
            violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < budget
    _report(3, "covered-edge packing bound", ok, elapsed, budget, f"200 instances, {violations} violations")
    assert violations == 0
    assert elapsed < budget


def test_c04_alteration_invariants():
    budget = 300.0
    start = time.time()
    rng = random.Random(404)
    src = RandomSource(404)
    p_ranges = {K3: (0.15, 0.5), C4: (0.1, 0.35), K4: (0.2, 0.45), C5: (0.1, 0.3)}
    patterns = [K3, C4, K4, C5]
    violations = 0
    for trial in range(500):
        pattern = patterns[trial % len(patterns)]
        lo, hi = p_ranges[pattern]
        n = rng.randint(6, 30)
        host = sample_gnp(n, rng.uniform(lo, hi), src.stream("c4", trial))
        index = enumerate_copies(host, pattern)
        refined = refined_alteration(host, pattern)
        greedy = greedy_alteration(host, pattern, list(host.edges))
        collected = disjoint_collection_alteration(host, pattern)
        for result in (refined, greedy, collected):
            if len(enumerate_copies(result.output_graph, pattern)) != 0:
                violations += 1
        if not (
            refined.output_graph.edge_set
            <= collected.output_graph.edge_set
            <= host.edge_set
        ):
            violations += 1
        for _ in range(20):
            k_set = rng.sample(range(n), rng.randint(2, n))
            stats = k_set_stats(index, k_set)
            inside = len(refined.output_graph.edges_inside(k_set))
            if inside != stats.edges_inside - stats.covered_inside:
                violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < budget
    _report(4, "alteration invariants", ok, elapsed, budget, f"500 instances, {violations} violations")
    assert violations == 0
    assert elapsed < budget


def test_c05_game_coupling():
    budget = 300.0
    start = time.time()
    rng = random.Random(505)
    violations = 0
    for trial in range(1000):
        pattern = K3 if trial % 2 == 0 else C4
        n = rng.randint(8, 30)
        p = rng.uniform(0.15, 0.6) if pattern is K3 else rng.uniform(0.1, 0.4)
        labels = derive_labels(n, RandomSource(trial))
        report = coupled_rps_check(
            n, pattern, RandomLegalProposer(), p, labels, RandomSource(trial)
        )
        if not (report.subset_ok and report.difference_covered_ok):
            violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < budget
    _report(5, "game/random-graph coupling", ok, elapsed, budget, f"1000 runs, {violations} violations")
    assert violations == 0
    assert elapsed < budget


def test_c06_packing_tail_bound():
    budget = 300.0
    start = time.time()
    result = run_tail_check(10, K3, range(4), 0.3, trials=100_000, seed=606)
    elapsed = time.time() - start
    grid = result.plot_rows
    ok = result.summary["all_ok"] and len(grid) > 0 and elapsed < budget
    worst = max((row["empirical"] - row["bound"] for row in grid), default=float("-inf"))
    _report(6, "disjoint-packing tail bound", ok, elapsed, budget,
            f"mu={result.summary['mu']:.3f}, grid={result.summary['grid']}, max excess={worst:.2e}")
    assert result.summary["members"] == 36
    assert result.summary["all_ok"]
    assert len(grid) > 0
    assert elapsed < budget


def test_c07_planted_witness():
    budget = 60.0
    start = time.time()
    cases = [
        (K3, 10, 0.15, 1.0, 2),   # t = ceil((45 * 0.15)^(1/3)) = 2
        (K3, 12, 0.4, 1.0, 3),    # t = ceil((66 * 0.4)^(1/3)) = 3
        (C4, 12, 0.1, 1.0, 2),    # t = ceil((66 * 0.1)^(1/4)) = 2
    ]
    all_hold = True
    details = []
    for pattern, k, p, delta, expected_t in cases:
        result = run_planted_witness(pattern, k, k, p, delta)
        s = result.summary
        all_hold &= s["holds"] and s["t"] == expected_t
        details.append(f"t={s['t']} count={s['copy_count']}>= {s['t_power']}")
    elapsed = time.time() - start
    ok = all_hold and elapsed < budget
    _report(7, "planted witness lower bound", ok, elapsed, budget, "; ".join(details))
    assert all_hold
    assert elapsed < budget


def test_c08_copy_count_identity():
    budget = 120.0
    start = time.time()
    params = derive_parameters(K3, k=40, big_c=4, little_c=0.2, trials=200, seed=808)
    result = run_copy_count_experiment(params)
    elapsed = time.time() - start
    ok = result.summary["identity_violations"] == 0 and len(result.records) == 200
    _report(8, "copy-count identity", ok and elapsed < budget, elapsed, budget,
            f"200 trials, {result.summary['identity_violations']} violations")
    assert ok
    assert elapsed < budget


def test_c09_ramsey_witness_search():
    budget = 60.0
    start = time.time()
    result = run_ramsey_search(K3, 3, [1.0, 1.4, 2.0], [0.7, 0.85], trials=100, seed=909)
    elapsed = time.time() - start
    best = result.summary["best"]
    found = result.summary["found"] and best["n"] == 5
    witness = Graph.from_json_obj(result.summary["witness"]) if found else None
    is_pentagon = (
        witness is not None
        and witness.n == 5
        and witness.num_edges == 5
        and all(witness.degree(v) == 2 for v in range(5))
        and len(enumerate_copies(witness, K3)) == 0
    )
    ok = found and is_pentagon and elapsed < budget
    _report(9, "ramsey witness search", ok, elapsed, budget,
            f"best={best}, witness is a 5-cycle: {is_pentagon}")
    assert found and is_pentagon
    assert elapsed < budget


def test_c10_paired_trend_checks():
    budget = 600.0
    start = time.time()
    seed = 1010

    def point(big_c, little_c):
        params = derive_parameters(
            K3, k=40, big_c=big_c, little_c=little_c, delta=0.5,
            trials=200, k_samples=50, seed=seed,
        )
        return run_concentration_experiment(params)

    # The (C=4, c=0.4) point belongs to both checks and is computed once.
    shared = point(4, 0.4)

    # Covered-edge threshold frequency must not decrease as c is halved
    # (paired seeds: identical per-trial substreams at every point).
    y_chain = [point(4, 0.8), shared, point(4, 0.2)]
    y_freqs = [r.summary["freq_y_ok"] for r in y_chain]
    y_ok = all(b >= a for a, b in zip(y_freqs, y_freqs[1:]))
    # At C=4 that chain is trivial: c=0.2 gives n=23 < k (vacuous) and both
    # other points read 0.  At C=1 both points are real hosts (n=94, 47)
    # and the frequency moves off 0 as c is halved.
    sparse_freqs = [point(1, c).summary["freq_y_ok"] for c in (0.8, 0.4)]
    y_ok = y_ok and sparse_freqs[1] >= sparse_freqs[0]

    # Edge-count threshold frequency must not decrease as C is doubled.
    x_pair = [shared, point(8, 0.4)]
    x_freqs = [r.summary["freq_x_ok"] for r in x_pair]
    x_ok = x_freqs[1] >= x_freqs[0]

    elapsed = time.time() - start
    ok = y_ok and x_ok and elapsed < budget
    _report(10, "paired-seed trend checks", ok, elapsed, budget,
            f"y-freqs (c=0.8,0.4,0.2): {y_freqs}; at C=1 (c=0.8,0.4): {sparse_freqs}; "
            f"x-freqs (C=4,8): {x_freqs}")
    assert y_ok and x_ok
    assert elapsed < budget


def test_c11_game_invariants():
    budget = 300.0
    start = time.time()

    red_violations = 0
    for trial in range(200):
        t = run_online_ramsey(
            K3, 9, PumpBuilder(9), ThresholdPainter(0.6, K3), 20,
            RandomSource(1111), game_index=trial, pool_cap=40,
        )
        red, _ = builder_final_graphs(t)
        if red.num_edges and len(enumerate_copies(red, K3)) != 0:
            red_violations += 1
        if t.outcome == "red-pattern":
            red_violations += 1

    rps_violations = 0
    for trial in range(200):
        t = run_rps(
            14, K3, RandomLegalProposer(), RandomDecider(0.4),
            RandomSource(2222), game_index=trial,
        )
        g = rps_final_graph(t)
        if g.num_edges and len(enumerate_copies(g, K3)) != 0:
            rps_violations += 1

    detection_mismatch = 0
    for k in range(4, 9):
        for trial in range(4):
            t = run_online_ramsey(
                K3, k, RandomBuilder(k + 3), AllBluePainter(), 60,
                RandomSource(3333 + k), game_index=trial, pool_cap=k + 3,
            )
            n = t.param("pool_cap")
            adjacency = [set() for _ in range(n)]
            for i, turn in enumerate(t.turns):
                u, v = turn.pair
                adjacency[u].add(v)
                adjacency[v].add(u)
                found = brute_has_clique(adjacency, range(n), k)
                last = i == len(t.turns) - 1
                if found and not last:
                    detection_mismatch += 1  # engine should have stopped earlier
                if last and found != (t.outcome == "blue-clique"):
                    detection_mismatch += 1

    replay_mismatch = 0
    for trial in range(5):
        a = run_rps(12, K3, RandomLegalProposer(), RandomDecider(0.5),
                    RandomSource(4444), game_index=trial)
        b = run_rps(12, K3, RandomLegalProposer(), RandomDecider(0.5),
                    RandomSource(4444), game_index=trial)
        if a != b:
            replay_mismatch += 1
        c = run_online_ramsey(K3, 9, PumpBuilder(9), ThresholdPainter(0.6, K3), 20,
                              RandomSource(5555), game_index=trial, pool_cap=40)
        d = run_online_ramsey(K3, 9, PumpBuilder(9), ThresholdPainter(0.6, K3), 20,
                              RandomSource(5555), game_index=trial, pool_cap=40)
        if c != d:
            replay_mismatch += 1

    elapsed = time.time() - start
    ok = (
        red_violations == 0
        and rps_violations == 0
        and detection_mismatch == 0
        and replay_mismatch == 0
        and elapsed < budget
    )
    _report(11, "game invariants", ok, elapsed, budget,
            f"red={red_violations}, rps={rps_violations}, "
            f"clique-detect={detection_mismatch}, replay={replay_mismatch}")
    assert red_violations == 0 and rps_violations == 0
    assert detection_mismatch == 0 and replay_mismatch == 0
    assert elapsed < budget


def test_c12_hypergraph_mode():
    budget = 300.0
    start = time.time()

    # Binomial mean of the r=3 sampler over seeded trials, 3-sigma tolerance.
    src = RandomSource(1212)
    trials = 10_000
    total = sum(
        sample_uniform_hypergraph(10, 3, 0.2, src.stream("c12", t)).num_edges
        for t in range(trials)
    )
    mean = total / trials
    expected = math.comb(10, 3) * 0.2
    sigma = math.sqrt(math.comb(10, 3) * 0.2 * 0.8 / trials)
    sampler_ok = abs(mean - expected) <= 3 * sigma

    # Family mode with two strictly 3-balanced patterns: the family-covered
    # count dominates each member's count on every sampled K.
    fam = [complete_uniform(4, 3), tight_path(2, 3)]
    params = derive_parameters(
        family=fam, k=6, big_c=1, little_c=1, trials=30, k_samples=8,
        seed=1212, n_override=12, p_override=0.15,
    )
    result = run_concentration_experiment(params)
    family_ok = all(
        row["y"] >= max(row["y_members"])
        for rec in result.records
        for row in rec["k_sets"]
    )

    elapsed = time.time() - start
    ok = sampler_ok and family_ok and elapsed < budget
    _report(12, "hypergraph mode", ok, elapsed, budget,
            f"sampler mean {mean:.3f} vs {expected:.1f} (3s={3*sigma:.3f}), family ok={family_ok}")
    assert sampler_ok and family_ok
    assert elapsed < budget
