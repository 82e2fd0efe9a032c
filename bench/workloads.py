"""The four benchmark workloads: seeded op inputs, the op itself, and its checks.

Every workload drives the public API of ``alteration_lab`` from this one
process with ``workers=1``.  An op's inputs are a pure function of
(workload, workload seed, op index), so the same seed gives the same ops.
Each op returns an ``Outcome``: the objects its checks need plus the
canonical bytes whose sha256 is compared with the pinned digests.

The checks here are the invariants of the acceptance criteria, computed
with code of the benchmark's own where that is cheap (pattern-freeness,
subset chains, the criterion-04 identity), so a wrong kernel cannot vouch
for itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import alteration_lab as al
from alteration_lab import cli, experiments
from alteration_lab.experiments import (
    derive_parameters,
    dumps,
    run_concentration_experiment,
    run_game_experiment,
    run_tail_check,
)
from alteration_lab.games import (
    RandomLegalProposer,
    builder_final_graphs,
    coupled_rps_check,
    rps_final_graph,
)
from alteration_lab.graphs import complete_graph, cycle_graph, pattern_from_name

K3 = complete_graph(3)
K4 = complete_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def op_seed(workload: str, seed: int, tag: str, index: int) -> int:
    """32-bit seed of one op, independent of every other (tag, index)."""
    material = f"{workload}/{seed}/{tag}/{index}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(), "little")


@dataclass
class Outcome:
    canonical: bytes
    problems: list[str]


def _canon(obj) -> bytes:
    return (dumps(obj) + "\n").encode("utf-8")


# ---------------------------------------------------------------------
# Independent pattern detectors on adjacency bitmasks
# ---------------------------------------------------------------------


def _masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _has_k3(adj, edges) -> bool:
    return any(adj[u] & adj[v] for u, v in edges)


def _has_k4(adj, edges) -> bool:
    for u, v in edges:
        common = adj[u] & adj[v]
        if any(adj[w] & common for w in _bits(common)):
            return True
    return False


def _has_c4(adj, edges) -> bool:
    n = len(adj)
    return any(
        (adj[u] & adj[v]).bit_count() >= 2 for u in range(n) for v in range(u + 1, n)
    )


def _has_c5(adj, edges) -> bool:
    # a-b-c-e-d-a with five distinct vertices.
    for x, y in edges:
        for a, b in ((x, y), (y, x)):
            for c in _bits(adj[b] & ~(1 << a)):
                for d in _bits(adj[a] & ~(1 << b) & ~(1 << c)):
                    used = (1 << a) | (1 << b) | (1 << c) | (1 << d)
                    if adj[c] & adj[d] & ~used:
                        return True
    return False


_DETECTORS = {"K3": _has_k3, "K4": _has_k4, "C4": _has_c4, "C5": _has_c5}


def contains(pattern_name: str, graph) -> bool:
    """Does the graph contain the named pattern (checked without the library)?"""
    return _DETECTORS[pattern_name](_masks(graph.n, graph.edges), graph.edges)


@contextlib.contextmanager
def returns_of(module, names):
    """Collect what ``module.<name>`` returns while the body runs.

    Lets a check see the game transcripts that ``run_game_experiment``
    reduces to counts, at the cost of one extra call per game.
    """
    got: dict[str, list] = {name: [] for name in names}
    saved = {name: getattr(module, name) for name in names}

    def keeper(fn, out):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            out.append(result)
            return result
        return kept

    for name, fn in saved.items():
        setattr(module, name, keeper(fn, got[name]))
    try:
        yield got
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


class Workload:
    """One named workload.  Subclasses define ``kinds`` and ``run``.

    ``kinds`` is the number of distinct op shapes; op i has shape
    i % kinds, and timed phases end on a whole round of shapes so every
    run measures the same mix.
    """

    name = ""
    kinds = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def op_input(self, index: int) -> tuple[int, int]:
        """(shape, seed) of timed op ``index``."""
        return index % self.kinds, op_seed(self.name, self.seed, "op", index)

    def warmup_inputs(self) -> list[tuple[int, int]]:
        """One op of each shape, on seeds no timed op uses.

        The same on every workload seed, so that set-up time does not
        depend on how costly a drawn warm-up input happens to be.
        """
        return [
            (shape, op_seed(self.name, 0, "warmup", shape))
            for shape in range(self.kinds)
        ]

    def run(self, shape: int, seed: int):
        raise NotImplementedError

    def check(self, shape: int, seed: int, result) -> Outcome:
        raise NotImplementedError


class Concentration(Workload):
    """One ``alteration-lab concentration`` CLI call, K3 at k=40, one trial.

    The shapes are the three non-vacuous operating points of criterion 10.
    """

    name = "concentration"
    POINTS = ((4, 0.8), (4, 0.4), (8, 0.4))
    kinds = len(POINTS)

    def run(self, shape: int, seed: int):
        big_c, little_c = self.POINTS[shape]
        out = self.scratch / "concentration"
        args = [
            "concentration", "--pattern", "K3", "--k", "40",
            "--C", str(big_c), "--c", str(little_c),
            "--trials", "1", "--k-samples", "50", "--policy", "mixed",
            "--seed", str(seed), "--out", str(out),
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main.main(args, standalone_mode=False)
        return out, stdout.getvalue()

    def check(self, shape, seed, result) -> Outcome:
        out, stdout = result
        summary_text = (out / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(summary_text)
        records = [
            json.loads(line)
            for line in (out / "trials.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        problems = []
        if summary["vacuous"]:
            problems.append("operating point is vacuous")
        if json.loads(stdout) != summary:
            problems.append("stdout summary differs from summary.json")
        for rec in records:
            if len(rec["k_sets"]) != 50:
                problems.append(f"{len(rec['k_sets'])} k-sets, expected 50")
            for row in rec["k_sets"]:
                if not row["y"] <= row["x"] or any(y > row["x"] for y in row["y_members"]):
                    problems.append(f"covered {row['y']} exceeds inside {row['x']}")
            # Wall-clock runtime is the one field that differs between runs.
            rec.pop("runtime", None)
        canonical = summary_text.encode("utf-8") + _canon(records)
        canonical += (out / "summary.csv").read_bytes()
        return Outcome(canonical, problems)


class Tail(Workload):
    """``run_tail_check`` on K10 for K3 with K={0..3}, at p=0.3 then p=0.5."""

    name = "tail"
    PS = (0.3, 0.5)
    TRIALS = 1000

    def run(self, shape: int, seed: int):
        return [
            run_tail_check(10, K3, range(4), p, trials=self.TRIALS, seed=seed)
            for p in self.PS
        ]

    def check(self, shape, seed, result) -> Outcome:
        problems = []
        for res in result:
            s = res.summary
            hist = {int(z): c for z, c in s["z_histogram"].items()}
            if sum(hist.values()) != self.TRIALS:
                problems.append(f"histogram sums to {sum(hist.values())}")
            if max(hist) > s["packing_bound"]:
                problems.append(f"max z {max(hist)} exceeds packing bound")
            if s["members"] != 36:
                problems.append(f"{s['members']} members, expected 36")
        return Outcome(_canon([[r.summary, r.plot_rows] for r in result]), problems)


class Games(Workload):
    """Four games on one seed: two propose/decide batches, one coupled game
    and one pump-builder game."""

    name = "games"
    RPS = (("K3", K3, 60, 0.4), ("C4", C4, 40, 0.3))
    RPS_K = 10
    COUPLED = (30, 0.4)
    BUILDER = (17, 40, 0.6)  # k, n, p

    def _params(self, pattern, k, n, p, seed):
        return derive_parameters(
            pattern, k=k, big_c=1.0, little_c=1.0, trials=1, seed=seed,
            n_override=n, p_override=p,
        )

    def run(self, shape: int, seed: int):
        with returns_of(experiments, ("run_rps", "run_online_ramsey")) as games:
            rps = [
                run_game_experiment("rps", self._params(pat, self.RPS_K, n, p, seed))
                for _, pat, n, p in self.RPS
            ]
            n, p = self.COUPLED
            source = al.RandomSource(seed)
            coupled = coupled_rps_check(
                n, K3, RandomLegalProposer(), p, al.derive_labels(n, source), source
            )
            k, n, p = self.BUILDER
            builder = run_game_experiment(
                "builder", self._params(K3, k, n, p, seed), builder="pump"
            )
        return rps, coupled, builder, games

    def check(self, shape, seed, result) -> Outcome:
        rps, coupled, builder, games = result
        problems = []
        transcripts = games["run_rps"]
        if len(transcripts) != len(rps) or len(games["run_online_ramsey"]) != 1:
            return Outcome(b"", ["run_game_experiment did not play one game per batch"])
        for (name, _, _, _), res, transcript in zip(self.RPS, rps, transcripts):
            rec = res.records[0]
            final = rps_final_graph(transcript)
            if (len(transcript.turns), final.num_edges) != (rec["turns"], rec["final_edges"]):
                problems.append(f"rps {name} transcript differs from its record")
            if contains(name, final):
                problems.append(f"rps {name} final graph contains {name}")
        if not coupled.ok:
            problems.append("coupling report not ok")
        if not coupled.game_graph.edge_set <= coupled.random_graph.edge_set:
            problems.append("coupled game graph not inside the threshold graph")
        if contains("K3", coupled.game_graph):
            problems.append("coupled game graph contains K3")
        rec = builder.records[0]
        red, _ = builder_final_graphs(games["run_online_ramsey"][0])
        if red.num_edges != rec["red_edges"] or not rec["red_core_free"]:
            problems.append("builder transcript differs from its record")
        if contains("K3", red):
            problems.append("builder red graph contains K3")
        canonical = _canon(
            {
                "rps": [[r.summary, r.records] for r in rps],
                "coupled": {
                    "game": coupled.game_graph,
                    "random": coupled.random_graph,
                    "ok": [coupled.subset_ok, coupled.difference_covered_ok],
                    "witnesses": [
                        [e, sorted(c.edges) if c else None]
                        for e, c in coupled.difference_witnesses
                    ],
                },
                "builder": [builder.summary, builder.records],
            }
        )
        return Outcome(canonical, problems)


class PatternMix(Workload):
    """K4, C4 and C5 through the matcher, the three alterations, the K-set
    statistics, the packing audit and the Ramsey certificate, plus one
    r=3 family concentration trial."""

    name = "pattern-mix"
    GRAPHS = (("K4", K4, 40, 0.35), ("C4", C4, 40, 0.15), ("C5", C5, 30, 0.15))
    K_SIZE = 10
    RAMSEY_K = 10
    R3 = (("K4r3", "TP2r3"), 18, 0.15, 8, 20)  # family, n, p, k, k_samples

    def run(self, shape: int, seed: int):
        source = al.RandomSource(seed)
        parts = []
        for name, pat, n, p in self.GRAPHS:
            stream = source.stream(f"pattern-mix/{name}")
            host = al.sample_gnp(n, p, stream)
            index = al.enumerate_copies(host, pat)
            refined = al.refined_alteration(host, pat)
            order = [host.edges[i] for i in stream.permutation(host.num_edges)]
            greedy = al.greedy_alteration(host, pat, order)
            collected = al.disjoint_collection_alteration(host, pat)
            k_set = sorted(int(v) for v in stream.choice(n, size=self.K_SIZE, replace=False))
            stats = al.k_set_stats(index, k_set)
            packing = al.packing_report(index, k_set)
            cert = al.ramsey_certificate(greedy.output_graph, pat, self.RAMSEY_K)
            parts.append((host, index, refined, greedy, collected, k_set, stats, packing, cert))
        family, n, p, k, k_samples = self.R3
        params = derive_parameters(
            family=[pattern_from_name(f) for f in family], k=k, big_c=1.0,
            little_c=1.0, trials=1, k_samples=k_samples, seed=seed,
            n_override=n, p_override=p,
        )
        return parts, run_concentration_experiment(params)

    def check(self, shape, seed, result) -> Outcome:
        parts, r3 = result
        problems = []
        canonical = []
        for (name, _, _, _), part in zip(self.GRAPHS, parts):
            host, index, refined, greedy, collected, k_set, stats, packing, cert = part
            for res in (refined, greedy, collected):
                if contains(name, res.output_graph):
                    problems.append(f"{res.method} output contains {name}")
            r_e, c_e, h_e = (
                refined.output_graph.edge_set,
                collected.output_graph.edge_set,
                host.edge_set,
            )
            if not (r_e <= c_e <= h_e and greedy.output_graph.edge_set <= h_e):
                problems.append(f"{name}: alteration outputs do not nest in the host")
            if not packing.bound_holds:
                problems.append(f"{name}: packing bound fails")
            ks = set(k_set)
            inside = sum(1 for u, v in r_e if u in ks and v in ks)
            if inside != stats.edges_inside - stats.covered_inside:
                problems.append(f"{name}: criterion-04 identity fails")
            if cert.status == "copy-found":
                problems.append(f"{name}: greedy output certified to contain a copy")
            canonical.append(
                {
                    "host": host,
                    "copies": len(index),
                    "removed": [sorted(refined.removed), sorted(greedy.removed), sorted(collected.removed)],
                    "k_set": k_set,
                    "stats": [stats.edges_inside, stats.covered_inside],
                    "packing": [
                        packing.touching_count, packing.two_vertex_count,
                        packing.max_disjoint_two_vertex, packing.bound_rhs,
                    ],
                    "certificate": [
                        cert.status,
                        cert.independence.lower if cert.independence else None,
                        cert.independence.upper if cert.independence else None,
                    ],
                }
            )
        for rec in r3.records:
            for row in rec["k_sets"]:
                if not row["y"] <= row["x"]:
                    problems.append(f"r=3 covered {row['y']} exceeds inside {row['x']}")
            rec = dict(rec)
            rec.pop("runtime", None)
            canonical.append(rec)
        canonical.append(r3.summary)
        return Outcome(_canon(canonical), problems)


WORKLOADS = {w.name: w for w in (Concentration, Tail, Games, PatternMix)}
