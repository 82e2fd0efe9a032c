"""Exact maximum clique and maximum independent set on bitset adjacency.

Branch and bound with a greedy-coloring upper bound (Tomita and Kameda).
A CliqueSearch renumbers its graph once, by descending degree, which
tightens the bound on the graphs this package searches (conflict graphs of
copy packings, complements of sparse random graphs), then runs any number
of searches.  Each node is colored once, and a vertex whose color cannot
beat the best clique found is left out of the branching order (the k_min
rule of San Segundo et al.'s BBMC).  A search within a vertex subset finds
the size a search of the induced subgraph finds, and some maximum clique
of it, not necessarily the one that search returns.  A node-expansion
budget turns unbounded worst cases into certified lower/upper bounds.
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


class CliqueSearch:
    """Exact maximum-clique searches of one graph given by adjacency bitmasks."""

    def __init__(self, masks: Sequence[int]):
        n = len(masks)
        # A stable sort: ties keep ascending labels.
        self.perm = perm = sorted(range(n), key=lambda v: -masks[v].bit_count())
        back = [0] * n
        for new, old in enumerate(perm):
            back[old] = new
        # Entry b of table j is the search's mask of the vertex set b << 8 * j.
        self._tables = []
        for base in range(0, n, 8):
            table = [0]
            for b in range(1, 1 << min(8, n - base)):
                low = b & -b
                table.append(table[b ^ low] | 1 << back[base + low.bit_length() - 1])
            self._tables.append(table)
        self._adj = adj = [self._relabel(masks[old]) for old in perm]
        self._non_adj = [~m & ~(1 << v) for v, m in enumerate(adj)]

    def _relabel(self, mask: int) -> int:
        """A vertex-set mask in the caller's labels, in the search's labels."""
        out = 0
        for table, b in zip(self._tables, mask.to_bytes(len(self._tables), "little")):
            out |= table[b]
        return out

    def run(self, budget: int | None = None, within: int | None = None) -> CliqueResult:
        """Exact maximum clique, of the subgraph induced by the vertex mask
        within if given.  Past budget node expansions the result has
        exact=False, the best clique found and the root coloring number as
        a certified upper bound."""
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        root = (1 << len(self.perm)) - 1 if within is None else self._relabel(within)
        if not root:
            return CliqueResult(0, (), True, 0, 0)
        adj = self._adj
        non_adj = self._non_adj
        best_size = 0
        best: list[int] = []
        stack: list[int] = []
        expansions = 0
        root_bound = 0

        def expand(candidates: int) -> bool:
            """False when the budget ran out inside this subtree."""
            nonlocal best_size, best, expansions, root_bound
            expansions += 1
            if budget is not None and expansions > budget:
                return False
            depth = len(stack)
            # Greedy coloring; a vertex of color <= k_min cannot win here.
            k_min = best_size - depth
            order: list[int] = []
            bounds: list[int] = []
            color = 0
            remaining = candidates
            while remaining:
                color += 1
                available = remaining
                while available:
                    low = available & -available
                    v = low.bit_length() - 1
                    available &= non_adj[v]
                    remaining ^= low
                    if color > k_min:
                        order.append(v)
                        bounds.append(color)
            if expansions == 1:
                root_bound = color
            for i in range(len(order) - 1, -1, -1):
                if depth + bounds[i] <= best_size:
                    return True
                v = order[i]
                candidates ^= 1 << v
                stack.append(v)
                nxt = candidates & adj[v]
                if nxt:
                    if not expand(nxt):
                        stack.pop()
                        return False
                elif depth >= best_size:
                    best_size = depth + 1
                    best = stack.copy()
                stack.pop()
            return True

        exact = expand(root)
        del expand  # a self-referencing closure: free it now, not at the next collection
        upper = best_size if exact else max(best_size, root_bound)
        members = tuple(sorted(self.perm[v] for v in best))
        return CliqueResult(best_size, members, exact, upper, expansions)


def max_clique(masks: Sequence[int], budget: int | None = None) -> CliqueResult:
    """Exact maximum clique of the graph given by adjacency bitmasks."""
    return CliqueSearch(masks).run(budget)


def complement_masks(masks: Sequence[int]) -> list[int]:
    n = len(masks)
    full = (1 << n) - 1
    return [full & ~masks[v] & ~(1 << v) for v in range(n)]


def max_independent_set(
    masks: Sequence[int], budget: int | None = None
) -> CliqueResult:
    """Exact maximum independent set, solved as a clique of the complement."""
    return max_clique(complement_masks(masks), budget=budget)
