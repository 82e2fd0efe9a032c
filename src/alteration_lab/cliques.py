"""Exact maximum clique and maximum independent set on bitset adjacency.

Branch and bound with a greedy-coloring upper bound.  Vertices are
renumbered by descending degree before the search, which tightens the
coloring bound on the instances this package produces (conflict graphs of
copy packings and complements of sparse random graphs).  A node-expansion
budget turns unbounded worst cases into certified lower/upper bounds
instead of silent hangs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class CliqueResult:
    """Outcome of an exact search; bounds coincide iff exact is True."""

    size: int
    members: tuple[int, ...]
    exact: bool
    upper_bound: int
    expansions: int


def _color_order(candidates: int, masks: Sequence[int]) -> tuple[list[int], list[int]]:
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


def max_clique(masks: Sequence[int], budget: int | None = None) -> CliqueResult:
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
    _, root_bounds = _color_order(full, re_masks)
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
        order, bounds = _color_order(candidates, re_masks)
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


def complement_masks(masks: Sequence[int]) -> list[int]:
    n = len(masks)
    full = (1 << n) - 1
    return [full & ~masks[v] & ~(1 << v) for v in range(n)]


def max_independent_set(
    masks: Sequence[int], budget: int | None = None
) -> CliqueResult:
    """Exact maximum independent set, solved as a clique of the complement."""
    return max_clique(complement_masks(masks), budget=budget)
