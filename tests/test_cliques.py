import gc
import random

import pytest

from alteration_lab.cliques import (
    CliqueSearch,
    complement_masks,
    max_clique,
    max_independent_set,
)

from oracles import brute_max_clique, reference_max_clique


def random_masks(rng, n, p):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def test_max_clique_matches_brute_force():
    rng = random.Random(51)
    for _ in range(60):
        n = rng.randint(0, 12)
        masks = random_masks(rng, n, rng.uniform(0.1, 0.9))
        result = max_clique(masks)
        truth = brute_max_clique(masks)
        assert result.exact
        assert result.size == truth == result.upper_bound
        members = result.members
        assert all(masks[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1:])


def test_max_independent_set_is_complement_clique():
    rng = random.Random(52)
    for _ in range(30):
        n = rng.randint(1, 11)
        masks = random_masks(rng, n, 0.5)
        mis = max_independent_set(masks)
        assert mis.size == brute_max_clique(complement_masks(masks))
        assert all(
            not (masks[u] >> v & 1) for i, u in enumerate(mis.members) for v in mis.members[i + 1:]
        )


def test_budget_exhaustion_gives_certified_bounds():
    rng = random.Random(53)
    masks = random_masks(rng, 16, 0.6)
    truth = brute_max_clique(masks)
    capped = max_clique(masks, budget=2)
    assert not capped.exact
    assert capped.size <= truth <= capped.upper_bound


def test_empty_graph():
    result = max_clique([])
    assert result.size == 0 and result.exact


def test_max_clique_leaves_no_reference_cycles():
    masks = random_masks(random.Random(3), 20, 0.5)
    gc.collect()
    gc.disable()
    try:
        assert max_clique(masks).size >= 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_clique_matches_reference_search():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(0, 70)
        masks = random_masks(rng, n, rng.uniform(0.1, 0.9))
        for budget in (None, 1, 2, 7, 100):
            assert max_clique(masks, budget) == reference_max_clique(masks, budget), (n, budget)


def test_search_within_a_subset_matches_brute_force():
    rng = random.Random(62)
    for _ in range(80):
        n = rng.randint(0, 13)
        masks = random_masks(rng, n, rng.uniform(0.1, 0.9))
        search = CliqueSearch(masks)
        for within in (0, (1 << n) - 1, *(rng.getrandbits(n) if n else 0 for _ in range(4))):
            inside = [v for v in range(n) if within >> v & 1]
            induced = [sum((masks[u] >> v & 1) << j for j, v in enumerate(inside)) for u in inside]
            result = search.run(within=within)
            assert result.exact and result.size == result.upper_bound == brute_max_clique(induced)
            members = result.members
            assert all(within >> v & 1 for v in members)
            assert all(masks[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1:])


def test_budget_below_one_is_refused():
    for masks in ([], random_masks(random.Random(4), 6, 0.5)):
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget must be positive"):
                CliqueSearch(masks).run(budget)
            with pytest.raises(ValueError, match="budget must be positive"):
                max_independent_set(masks, budget)
