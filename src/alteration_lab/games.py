"""Turn-based engines for two online Ramsey games.

Propose/decide game: Proposer names an unproposed vertex pair that would
not complete a forbidden pattern copy; Decider simultaneously accepts or
rejects it without seeing the pair.  The game ends when no legal pair
remains, so the final graph is pattern-free by rule enforcement.

Builder/painter game: Builder places an edge, Painter immediately colors
it red or blue.  Builder wins on a red pattern copy or a blue clique of
the target size; the engine detects both exactly through the newest edge.

Engine graphs are adjacency bitmasks.  The propose/decide state keeps
the graph's copies.ClosedPairs record, updated once per accepted edge, so
a legality check is two bit tests and no proposal needs a search.  The
builder/painter checks are copies.has_copy_through_edge queries, one per
placed edge; a blue clique is a copy of K_k.  A game's turns are the one
record of its edges.

Strategies hold only parameters; strategy.session(...) makes the per-game
player.  Proposer and builder sessions answer next_pair(state) with a pair,
or None when they have none left; the built-ins share a shuffled-pool and
a plan-cursor session that skip pairs failing state.is_legal (proposers)
or state.is_unplaced (builders).  Decider sessions answer decide(turn,
history), painter sessions color(state, u, v); both count their RNG draws
in .draws.  A strategy that draws nothing is its own session.

The threshold painter and the probability-p decider are the randomized
strategies the experiments study; the other built-ins are adversaries to
exercise them.  One game instance is strictly sequential; independent
games run in parallel on separate substreams.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .copies import ClosedPairs, Copy, enumerate_copies, has_copy_through_edge
from .graphs import Graph, canonical_pair, complete_graph
from .randomness import EdgeLabelTable, RandomSource


class RuleViolation(RuntimeError):
    """A strategy broke the game rules; the message identifies the turn."""


@dataclass(frozen=True)
class TurnRecord:
    pair: tuple[int, int]
    action: str  # accept | reject | red | blue
    draws: int   # RNG draws the deciding side consumed this turn


@dataclass(frozen=True)
class GameTranscript:
    game: str  # rps | builder
    params: tuple[tuple[str, object], ...]
    turns: tuple[TurnRecord, ...]
    outcome: str  # exhausted | turn-cap | red-pattern | blue-clique

    @property
    def final_edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted edges of the final graph: every pair not rejected."""
        return tuple(sorted(t.pair for t in self.turns if t.action != "reject"))

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)


def rps_final_graph(transcript: GameTranscript) -> Graph:
    """Rebuild the final graph of a propose/decide transcript from its turns."""
    return Graph(transcript.param("n"), transcript.final_edges)


def builder_final_graphs(transcript: GameTranscript) -> tuple[Graph, Graph]:
    """Rebuild (red, blue) graphs of a builder/painter transcript."""
    n = transcript.param("pool_cap")
    red = Graph(n, [t.pair for t in transcript.turns if t.action == "red"])
    blue = Graph(n, [t.pair for t in transcript.turns if t.action == "blue"])
    return red, blue


class _ShuffledPoolSession:
    """Draws a uniformly random pair from the pool, removes it, and hands it
    out if keep(u, v) holds; a pair that fails is dropped for good."""

    def __init__(self, pairs, stream: np.random.Generator, keep):
        self.pool = list(pairs)
        self.stream = stream
        self.keep = keep

    def next_pair(self, state) -> tuple[int, int] | None:
        pool = self.pool
        while pool:
            i = int(self.stream.integers(len(pool)))
            pair = pool[i]
            pool[i] = pool[-1]
            pool.pop()
            if self.keep(*pair):
                return pair
        return None


class _PlanCursorSession:
    """Hands out the pairs of a fixed plan in order, skipping those that
    fail keep(u, v)."""

    def __init__(self, plan: list[tuple[int, int]], keep):
        self.plan = plan
        self.cursor = 0
        self.keep = keep

    def next_pair(self, state) -> tuple[int, int] | None:
        while self.cursor < len(self.plan):
            pair = self.plan[self.cursor]
            self.cursor += 1
            if self.keep(*pair):
                return pair
        return None


# ---------------------------------------------------------------------
# Propose / decide game
# ---------------------------------------------------------------------


class RpsState:
    """Engine-owned game state; strategies read it but must not mutate it.

    record is the closed-pair record of the accepted graph; proposed[x]
    masks the pairs proposed with x.
    """

    def __init__(self, n: int, pattern: Graph):
        self.n = n
        self.pattern = pattern
        self.record = ClosedPairs(pattern, n)
        self.proposed: list[int] = [0] * n
        self.turn = 0
        self.decisions: list[bool] = []

    def is_legal(self, u: int, v: int) -> bool:
        """Unproposed and would not complete a pattern copy if accepted."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return not (self.proposed[u] >> v & 1 or self.record.is_closed(u, v))

    def any_legal_pair(self) -> tuple[int, int] | None:
        for x, y in combinations(range(self.n), 2):
            if not (self.proposed[x] >> y & 1 or self.record.is_closed(x, y)):
                return x, y
        return None

    def _apply(self, u: int, v: int, accept: bool) -> None:
        self.proposed[u] |= 1 << v
        self.proposed[v] |= 1 << u
        if accept:
            self.record.add(u, v)
        self.decisions.append(accept)
        self.turn += 1


class RandomLegalProposer:
    """Proposes a uniformly random legal unproposed pair.

    Once a pair becomes illegal it stays illegal (the graph only grows),
    so rejected candidates are dropped permanently; each legality check is
    two bit tests against the state's closed-pair record.
    """

    def session(self, state: RpsState, stream: np.random.Generator):
        return _ShuffledPoolSession(combinations(range(state.n), 2), stream, state.is_legal)


class DenseFirstProposer:
    """Proposes pairs inside the lowest-indexed vertices first."""

    def session(self, state: RpsState, stream: np.random.Generator):
        # (0,1), (0,2), (1,2), (0,3), ... : grows a clique prefix.
        plan = sorted(combinations(range(state.n), 2), key=lambda e: (e[1], e[0]))
        return _PlanCursorSession(plan, state.is_legal)


class RandomDecider:
    """Accepts each turn independently with probability p, seeing no pair."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"acceptance probability must lie in [0, 1], got {p}")
        self.p = p

    def session(self, stream: np.random.Generator):
        return _RandomDeciderSession(self.p, stream)


class _RandomDeciderSession:
    def __init__(self, p: float, stream: np.random.Generator):
        self.p = p
        self.stream = stream
        self.draws = 0

    def decide(self, turn: int, history: tuple[bool, ...]) -> bool:
        self.draws += 1
        return float(self.stream.random()) < self.p


class FixedDecider:
    """Always accepts or always rejects; consumes no randomness."""

    draws = 0

    def __init__(self, accept: bool):
        self.accept = accept

    def session(self, stream: np.random.Generator):
        return self

    def decide(self, turn: int, history: tuple[bool, ...]) -> bool:
        return self.accept


def _run_rps_loop(psession, decide, state: RpsState) -> list[TurnRecord]:
    """Shared proposal loop; decide(turn, history, pair) -> (accept, draws)."""
    turns: list[TurnRecord] = []
    while True:
        pair = psession.next_pair(state)
        if pair is None:
            leftover = state.any_legal_pair()
            if leftover is not None:
                raise RuleViolation(
                    f"turn {state.turn}: proposer signaled exhaustion but pair "
                    f"{leftover} is still legal"
                )
            break
        u, v = pair
        if not state.is_legal(u, v):
            raise RuleViolation(f"turn {state.turn}: illegal proposal {pair}")
        accept, draws = decide(state.turn, tuple(state.decisions), (u, v))
        state._apply(u, v, accept)
        turns.append(
            TurnRecord(canonical_pair(u, v), "accept" if accept else "reject", draws)
        )
    return turns


def run_rps(
    n: int,
    pattern: Graph,
    proposer,
    decider,
    rng: RandomSource,
    game_index: int = 0,
) -> GameTranscript:
    """Play the propose/decide game to exhaustion.

    Decider blindness is structural: the decide callback receives only the
    turn index and its own decision history, never the proposed pair.
    Each (pair, decision) is revealed to both players after the turn via
    the shared state.
    """
    state = RpsState(n, pattern)
    psession = proposer.session(state, rng.stream("rps-proposer", game_index))
    dsession = decider.session(rng.stream("rps-decider", game_index))

    def decide(turn, history, pair):
        before = dsession.draws
        accept = dsession.decide(turn, history)
        return accept, dsession.draws - before

    turns = _run_rps_loop(psession, decide, state)
    return GameTranscript(
        game="rps",
        params=(
            ("game_index", game_index),
            ("n", n),
            ("pattern_edges", pattern.edges),
            ("pattern_n", pattern.n),
            ("seed", rng.seed),
        ),
        turns=tuple(turns),
        outcome="exhausted",
    )


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of one coupled game run against its threshold random graph."""

    game_graph: Graph
    random_graph: Graph
    subset_ok: bool  # accepted edges all appear in the random graph
    difference_covered_ok: bool  # every random-graph-only edge lies in a copy
    difference_witnesses: tuple[tuple[tuple[int, int], Copy | None], ...]

    @property
    def ok(self) -> bool:
        return self.subset_ok and self.difference_covered_ok


def coupled_rps_check(
    n: int,
    pattern: Graph,
    proposer,
    p: float,
    labels: EdgeLabelTable,
    rng: RandomSource,
    game_index: int = 0,
) -> CouplingReport:
    """Couple a game against the threshold graph of a shared label table.

    The game is played with the acceptance rule "accept the pair iff its
    label is below p", which is distributed like the probability-p blind
    decider but shares randomness with the threshold graph.  The report
    checks that accepted edges embed in the threshold graph and that every
    threshold-graph edge missing from the final graph lies in some pattern
    copy of the threshold graph.
    """
    if labels.n != n:
        raise ValueError(f"label table covers n={labels.n}, game needs n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    state = RpsState(n, pattern)
    psession = proposer.session(state, rng.stream("coupled-proposer", game_index))

    def decide(turn, history, pair):
        return labels.label(*pair) < p, 0

    turns = _run_rps_loop(psession, decide, state)
    game_graph = Graph(n, (t.pair for t in turns if t.action == "accept"))
    random_graph = labels.threshold_graph(p)
    subset_ok = game_graph.edge_set <= random_graph.edge_set

    missing = [i for i, e in enumerate(random_graph.edges) if e not in game_graph.edge_set]
    witnesses = enumerate_copies(random_graph, pattern).first_copies(missing) if missing else []
    return CouplingReport(
        game_graph=game_graph,
        random_graph=random_graph,
        subset_ok=subset_ok,
        difference_covered_ok=None not in witnesses,
        difference_witnesses=tuple((random_graph.edges[i], c) for i, c in zip(missing, witnesses)),
    )


# ---------------------------------------------------------------------
# Builder / painter game
# ---------------------------------------------------------------------


class BuilderGameState:
    """Engine-owned state of the builder/painter game.

    high_degree holds the vertices currently adjacent to at least
    degree_threshold builder edges; it is recomputed at the end of each
    turn, so a painter consulting it during a turn sees last turn's set.
    """

    def __init__(self, pool_cap: int, degree_threshold: int, clique_target: int):
        self.pool_cap = pool_cap
        self.degree_threshold = degree_threshold
        self.clique_target = clique_target
        self.clique = complete_graph(clique_target)
        self.masks: list[int] = [0] * pool_cap
        self.red_masks: list[int] = [0] * pool_cap
        self.blue_masks: list[int] = [0] * pool_cap
        # A threshold of zero admits every vertex from the start.
        self.high_degree: set[int] = (
            set(range(pool_cap)) if degree_threshold == 0 else set()
        )
        self.turn = 0

    def is_unplaced(self, u: int, v: int) -> bool:
        return not self.masks[u] >> v & 1


class ThresholdPainter:
    """Defaults to blue; attempts red with probability p on edges inside the
    high-degree set, reverting to blue when a red core copy would form."""

    def __init__(self, p: float, core: Graph):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"red-attempt probability must lie in [0, 1], got {p}")
        if core.num_edges == 0:
            raise ValueError("core pattern must have at least one edge")
        self.p = p
        self.core = core

    def session(self, state: BuilderGameState, stream: np.random.Generator):
        return _ThresholdPainterSession(self.p, self.core, stream)


class _ThresholdPainterSession:
    def __init__(self, p: float, core: Graph, stream: np.random.Generator):
        self.p = p
        self.core = core
        self.stream = stream
        self.draws = 0

    def color(self, state: BuilderGameState, u: int, v: int) -> str:
        if u in state.high_degree and v in state.high_degree:
            self.draws += 1
            if float(self.stream.random()) < self.p:
                if not has_copy_through_edge(state.red_masks, self.core, u, v):
                    return "red"
        return "blue"


class AllBluePainter:
    draws = 0

    def session(self, state: BuilderGameState, stream: np.random.Generator):
        return self

    def color(self, state: BuilderGameState, u: int, v: int) -> str:
        return "blue"


class AllRedPainter:
    draws = 0

    def session(self, state: BuilderGameState, stream: np.random.Generator):
        return self

    def color(self, state: BuilderGameState, u: int, v: int) -> str:
        return "red"


class RandomBuilder:
    """Places a uniformly random unplaced pair within a bounded vertex pool."""

    def __init__(self, pool_size: int):
        if pool_size < 2:
            raise ValueError(f"pool must hold at least 2 vertices, got {pool_size}")
        self.pool_size = pool_size

    def session(self, state: BuilderGameState, stream: np.random.Generator):
        if self.pool_size > state.pool_cap:
            raise ValueError("builder pool exceeds the game's vertex cap")
        pairs = combinations(range(self.pool_size), 2)
        return _ShuffledPoolSession(pairs, stream, state.is_unplaced)


class PumpBuilder:
    """Pushes 2k vertices over the degree threshold, then densifies k of them.

    Phase one walks circulant offsets on the 2k targets until every target
    degree reaches the threshold; phase two plays all pairs inside the
    first k targets.  This stresses the painter exactly where red attempts
    happen.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError(f"clique target must be at least 2, got {k}")
        self.k = k

    def session(self, state: BuilderGameState, stream: np.random.Generator):
        targets = 2 * self.k
        if targets > state.pool_cap:
            raise ValueError("pump builder needs a pool of at least 2k vertices")
        plan: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        offsets = max(1, (state.degree_threshold + 1) // 2)
        for s in range(1, offsets + 1):
            for i in range(targets):
                pair = canonical_pair(i, (i + s) % targets)
                if pair not in seen:
                    seen.add(pair)
                    plan.append(pair)
        for pair in combinations(range(self.k), 2):
            if pair not in seen:
                seen.add(pair)
                plan.append(pair)
        return _PlanCursorSession(plan, state.is_unplaced)


def run_online_ramsey(
    pattern: Graph,
    k: int,
    builder,
    painter,
    turn_cap: int,
    rng: RandomSource,
    game_index: int = 0,
    pool_cap: int | None = None,
) -> GameTranscript:
    """Play builder/painter until a red pattern copy, a blue k-clique, the
    turn cap, or builder exhaustion.

    The degree threshold for the high-degree set is floor((k-1)/4).  Wins
    are detected exactly by searching through the newest edge of the
    matching color, which is sound because a first monochromatic witness
    must contain the newest edge of its color.
    """
    if pattern.num_edges == 0:
        raise ValueError("pattern must have at least one edge")
    if turn_cap < 0:
        raise ValueError(f"turn cap must be nonnegative, got {turn_cap}")
    if k < 2:
        raise ValueError(f"clique target must be at least 2, got {k}")
    threshold = (k - 1) // 4
    if pool_cap is None:
        pool_cap = max(4 * turn_cap, 2)
    state = BuilderGameState(pool_cap, threshold, k)
    bsession = builder.session(state, rng.stream("builder", game_index))
    psession = painter.session(state, rng.stream("painter", game_index))

    turns: list[TurnRecord] = []
    outcome = "turn-cap"
    for _ in range(turn_cap):
        pair = bsession.next_pair(state)
        if pair is None:
            outcome = "exhausted"
            break
        u, v = pair
        if u == v or not (0 <= u < pool_cap and 0 <= v < pool_cap):
            raise RuleViolation(f"turn {state.turn}: invalid vertex pair {pair}")
        if not state.is_unplaced(u, v):
            raise RuleViolation(f"turn {state.turn}: duplicate edge {pair}")
        state.masks[u] |= 1 << v
        state.masks[v] |= 1 << u
        before = psession.draws
        color = psession.color(state, u, v)
        if color not in ("red", "blue"):
            raise RuleViolation(f"turn {state.turn}: painter returned {color!r}")
        draws = psession.draws - before
        turns.append(TurnRecord(canonical_pair(u, v), color, draws))

        side = state.red_masks if color == "red" else state.blue_masks
        target = pattern if color == "red" else state.clique
        won = has_copy_through_edge(side, target, u, v)
        if won:
            outcome = "red-pattern" if color == "red" else "blue-clique"
        side[u] |= 1 << v
        side[v] |= 1 << u

        for w in (u, v):
            if state.masks[w].bit_count() >= threshold:
                state.high_degree.add(w)
        state.turn += 1
        if won:
            break

    return GameTranscript(
        game="builder",
        params=(
            ("clique_target", k),
            ("degree_threshold", threshold),
            ("game_index", game_index),
            ("pattern_edges", pattern.edges),
            ("pattern_n", pattern.n),
            ("pool_cap", pool_cap),
            ("seed", rng.seed),
            ("turn_cap", turn_cap),
        ),
        turns=tuple(turns),
        outcome=outcome,
    )
