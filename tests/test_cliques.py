import gc
import random

from alteration_lab.cliques import (
    complement_masks,
    max_clique,
    max_independent_set,
)

from oracles import brute_max_clique


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
