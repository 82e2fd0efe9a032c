"""Golden sha256 digests of what every driver writes, at small fixed seeds.

Each case runs through the CLI.  The trial drivers run at
ALTERATION_LAB_WORKERS 1 and 2 and must give the same pinned digest: the
README promises outputs that are identical across runs and worker counts.
A rewrite that changes any written byte fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from alteration_lab.cli import main
from alteration_lab.density import minimal_balanced_core
from alteration_lab.games import (
    AllBluePainter,
    AllRedPainter,
    DenseFirstProposer,
    FixedDecider,
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
from alteration_lab.graphs import Graph, complete_graph, cycle_graph
from alteration_lab.randomness import RandomSource, derive_labels, sample_gnp

DRIVERS = {
    "concentration": (
        "concentration --pattern K3 --k 6 --C 0.5 --c 8 --trials 4 --k-samples 6 --seed 2",
        "fa0e06e7797536c5730111bb4fdc87572a64c6f9c24fcc97bbc5d5d901676766",
    ),
    "concentration-r3-family": (
        "concentration --family K4r3 --family TP2r3 --k 8 --n 12 --p 0.3 --trials 3 --k-samples 6 --seed 1",
        "82326f59fbacac95733166ef0ac29f2c025c46216735e0998f44fb644e609e7a",
    ),
    "lemma5": (
        "lemma5 --pattern K3 --k 40 --C 4 --c 0.2 --trials 5 --seed 3",
        "ffa5f688fbbfd9a39fae3aa51a151722df39783994b2904f626079183beb6be3",
    ),
    "rps": (
        "rps --pattern K3 --k 6 --n 10 --p 0.4 --trials 3 --seed 4",
        "0bc89b6a81db9a8fee2efd3cb827d68223be7d3865b4b7756c2a84c461687ab8",
    ),
    "builder-game": (
        "builder-game --pattern K3 --k 9 --n 16 --p 0.5 --trials 3 --seed 4 --builder pump",
        "e84b3f438d07b2c4b17c718a1b2203d22e661accb342e16fa3a91e90a52eeebd",
    ),
}

SINGLE_RUN = {
    "tail": (
        "tail --n 10 --p 0.3 --trials 300 --seed 1",
        "ae14bf685069e4e0bdaa35311da9249e1e77b6902eb03e75b77daf0a596d27a5",
    ),
    "tail-c4": (
        "tail --n 8 --pattern C4 --k-size 5 --p 0.3 --trials 200 --seed 2",
        "e2fe07b3e47afefd30a26b6c388d3b9bd82a611052bb951697391516358305d6",
    ),
    "witness": (
        "witness --pattern K3 --k 12 --n 12 --p 0.4 --delta 1.0",
        "622ec6b95f66da1310d053aa6a0250fffd904d162eefdbb383db60d26e2a872e",
    ),
    "ramsey-search": (
        "ramsey-search --pattern K3 --k 3 --C 1.4 --C 2 --c 0.7 --trials 40 --seed 11",
        "2e62f30350d39873d86f8718fe5c87f1704d098105afdacc46170c48b500202f",
    ),
}

HOST_COMMANDS = {
    "copies-K3": (
        "copies {host} --pattern K3 --k-set 0,1,2,3,4 --k-set 2,5,7,9,11,13 --k-set 0,1,2,3,4,5,6,7,8,9 --k-set 6",
        "6ffdd1ce56db4d9dc851aeb766d5cd523d3065bf589a58f69f62fb82374dd954",
    ),
    "copies-C4": (
        "copies {host} --pattern C4 --k-set 0,1,2,3,4,5,6 --k-set 3,8",
        "04e859513a1cdb38ac02a44f31292d5aa49dd9dbae04a03c1f8c948caf285196",
    ),
    "alter-refined": (
        "alter {host} --pattern K3 --method refined --out {out}",
        "a678214894869eee8d7594faafd5dba524b8bf7895ccee648014999825be5192",
    ),
    "alter-greedy": (
        "alter {host} --pattern C4 --method greedy --order random --seed 5 --out {out}",
        "a025df3efb0bf8f05d9feaa3648297ff9d289cb45501f55ad37bb56746b8a5f6",
    ),
    "alter-disjoint-collection": (
        "alter {host} --pattern K3 --method disjoint-collection --out {out}",
        "71fed3f4dc3cb0da01b98c14290d675b6b499ad9e608a36f9ff8e3bc0540158d",
    ),
}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def written(out: Path) -> dict[str, bytes]:
    """The driver's output files, byte for byte."""
    return {p.name: p.read_bytes() for p in out.iterdir()}


def run(args: str, workers: int = 1) -> str:
    result = CliRunner().invoke(
        main, args.split(), env={"ALTERATION_LAB_WORKERS": str(workers)}, catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_trial_driver_digests(name, workers, tmp_path):
    args, expected = DRIVERS[name]
    run(f"{args} --out {tmp_path}", workers)
    assert digest(written(tmp_path)) == expected


@pytest.mark.parametrize("name", sorted(SINGLE_RUN))
def test_single_run_driver_digests(name, tmp_path):
    args, expected = SINGLE_RUN[name]
    run(f"{args} --out {tmp_path}")
    assert digest(written(tmp_path)) == expected


@pytest.fixture
def host_file(tmp_path) -> Path:
    path = tmp_path / "host.txt"
    path.write_text(sample_gnp(14, 0.5, RandomSource(8).stream("golden-host")).to_text())
    return path


@pytest.mark.parametrize("name", sorted(HOST_COMMANDS))
def test_host_command_digests(name, host_file, tmp_path):
    args, expected = HOST_COMMANDS[name]
    out = tmp_path / "altered.txt"
    stdout = run(args.format(host=host_file, out=out))
    files = {"stdout": stdout.encode()}
    if out.exists():
        # The method name alter prints is checked in test_cli.
        summary = json.loads(stdout)
        del summary["method"]
        files = {"stdout": json.dumps(summary, sort_keys=True).encode(), out.name: out.read_bytes()}
    assert digest(files) == expected


GAME_PATTERNS = {
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
}
GAMES_DIGEST = "f9c7c4cf1959e005634a1c10a47724ef4c02465fdb09a337a472f284138eaaec"


def _transcript(t) -> list:
    if t.game == "rps":
        graphs = [rps_final_graph(t).edges]
    else:
        graphs = [g.edges for g in builder_final_graphs(t)]
    return [
        t.game,
        [[k, v] for k, v in t.params],
        [[turn.pair, turn.action, turn.draws] for turn in t.turns],
        t.outcome,
        t.final_edges,
        graphs,
    ]


def test_game_transcript_digest():
    """Every built-in proposer x decider and builder x painter, and the
    coupling report of each proposer, over a seeded grid: the games'
    turns, final graphs and witnesses must not change by a byte."""
    rows = []
    for seed in range(6):
        for n in (5, 9, 14):
            for name, pattern in GAME_PATTERNS.items():
                rng = RandomSource(seed)
                proposers = (RandomLegalProposer(), DenseFirstProposer())
                for proposer in proposers:
                    for decider in (RandomDecider(0.4), FixedDecider(True), FixedDecider(False)):
                        rows.append(_transcript(run_rps(n, pattern, proposer, decider, rng, seed)))
                    labels = derive_labels(n, rng)
                    report = coupled_rps_check(n, pattern, proposer, 0.5, labels, rng, seed)
                    rows.append([
                        report.game_graph.edges,
                        report.random_graph.edges,
                        [report.subset_ok, report.difference_covered_ok],
                        [[e, c.sort_key() if c else None] for e, c in report.difference_witnesses],
                    ])
                k = max(2, n // 2)
                core = minimal_balanced_core(pattern)
                for builder in (RandomBuilder(n), PumpBuilder(k)):
                    for painter in (ThresholdPainter(0.6, core), AllBluePainter(), AllRedPainter()):
                        t = run_online_ramsey(pattern, k, builder, painter, 3 * n, rng, seed, pool_cap=n)
                        rows.append(_transcript(t))
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GAMES_DIGEST
